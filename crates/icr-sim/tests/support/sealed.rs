//! The sealed-trial differential harness, shared by the full-size test
//! in `crates/icr-sim/tests/sealed_trials.rs` and the debug-sized copy
//! in the facade's `tests/`: every trial of a scheme × app × error model
//! × sampling × oracle matrix runs through the full [`run_sim`], through
//! [`run_trial`] and taped against its cell's fault-free run
//! ([`run_trial_taped`]). The sealed trial must agree with the full run
//! on the outcome, the delivered fault count and the importance weight,
//! and the taped trial must return the sealed trial's whole
//! [`TrialResult`](icr_sim::TrialResult).

use icr_core::{DataL1Config, ErrorOutcome, InjectionProposal, Scheme};
use icr_fault::{conditional_arrival, trial_seed, ErrorModel};
use icr_sim::{
    run_sim, run_trial, run_trial_taped, store_working_set, FaultConfig, Pool, SimConfig, Tape,
};
use std::sync::Arc;

/// The matrix a differential run covers.
pub struct Matrix {
    pub schemes: Vec<Scheme>,
    pub apps: Vec<&'static str>,
    pub models: Vec<ErrorModel>,
    pub trials: u64,
    pub instructions: u64,
    pub seed: u64,
}

/// One trial of the matrix and how to reproduce it.
struct Trial {
    what: String,
    config: SimConfig,
    hot_blocks: Option<Arc<std::collections::HashSet<u64>>>,
    tape: Arc<Tape>,
}

/// What a differential run checked.
pub struct Checked {
    /// Trials run every way.
    pub pairs: usize,
    /// The fraction of the full runs' dL1 accesses the sealed trials
    /// simulated.
    pub simulated: f64,
    /// Trials the tape replay finished without falling back.
    pub on_tape: usize,
}

/// Every trial of `m`, uniform and importance-sampled, oracle on and
/// off. Importance trials are built the way a campaign builds them: a
/// site boost and arrival horizon from the tape-recording fault-free
/// run, and a forced arrival drawn from the conditional arrival
/// distribution.
fn trials(m: &Matrix) -> Vec<Trial> {
    let p = 8.0 / m.instructions as f64;
    let mut out = Vec::new();
    let mut cell = 0u64;
    for &scheme in &m.schemes {
        for &app in &m.apps {
            for oracle in [true, false] {
                let mut dl1 = DataL1Config::paper_default(scheme);
                dl1.oracle = oracle;
                let geometry = dl1.geometry;
                let base = SimConfig::builder(app, dl1)
                    .instructions(m.instructions)
                    .seed(m.seed);
                let (profile, tape) = Tape::record(&base.clone().build());
                let tape = Arc::new(tape);
                let boost = InjectionProposal::from_windows(&profile.exposure).dirty_boost;
                let hot = Arc::new(store_working_set(
                    &icr_trace::store::global().get(app, m.seed, m.instructions),
                    geometry,
                ));
                for &model in &m.models {
                    for importance in [false, true] {
                        for t in 0..m.trials {
                            let index = cell * m.trials + t;
                            let mut b = base.clone().fault(FaultConfig::one_shot(
                                model,
                                p,
                                trial_seed(m.seed, index),
                            ));
                            if importance {
                                let arrival = conditional_arrival(
                                    p,
                                    profile.pipeline.cycles.max(1),
                                    trial_seed(!m.seed, index),
                                );
                                b = b.fault_bias(boost).fault_arrival(arrival);
                            }
                            out.push(Trial {
                                what: format!(
                                    "scheme {}, app {app}, model {}, importance \
                                     {importance}, oracle {oracle}, seed {}, trial {t} \
                                     (index {index})",
                                    scheme.name(),
                                    model.name(),
                                    m.seed
                                ),
                                config: b.build(),
                                hot_blocks: importance.then(|| hot.clone()),
                                tape: tape.clone(),
                            });
                        }
                        cell += 1;
                    }
                }
            }
        }
    }
    out
}

/// Runs every trial of `m` all three ways on two threads and panics on
/// the first disagreement, naming the trial.
pub fn check(m: &Matrix) -> Checked {
    let trials = trials(m);
    let n = trials.len();
    let rows = Pool::new(2).run(trials, |t| {
        let full = run_sim(&t.config);
        let sealed = run_trial(&t.config, t.hot_blocks.clone());
        let expected = ErrorOutcome::classify_single_fault(full.faults_injected, &full.icr);
        assert_eq!(
            (
                sealed.outcome(),
                sealed.faults_injected,
                sealed.fault_weight
            ),
            (expected, full.faults_injected, full.fault_weight),
            "sealed trial disagrees with the full run: {}",
            t.what
        );
        let replayed = t.tape.replay(&t.config, t.hot_blocks.clone());
        let taped = run_trial_taped(&t.config, t.hot_blocks.clone(), &t.tape);
        assert_eq!(
            (taped, replayed.unwrap_or(sealed)),
            (sealed, sealed),
            "taped trial disagrees with the sealed trial: {}",
            t.what
        );
        (
            sealed.icr.cache.accesses(),
            full.icr.cache.accesses(),
            replayed.is_some(),
        )
    });
    let (sealed, full) = rows
        .iter()
        .fold((0u64, 0u64), |(s, f), &(a, b, _)| (s + a, f + b));
    Checked {
        pairs: n,
        simulated: sealed as f64 / full as f64,
        on_tape: rows.iter().filter(|r| r.2).count(),
    }
}

impl Checked {
    /// Asserts that at least 90% of the trials finished on the tape and
    /// that at least one fell back, so both paths were exercised.
    pub fn assert_mostly_on_tape(&self) {
        assert!(
            self.on_tape * 10 >= self.pairs * 9,
            "only {} of {} trials finished on the tape",
            self.on_tape,
            self.pairs
        );
        assert!(
            self.on_tape < self.pairs,
            "no trial fell back to run_trial: the fallback went unexercised"
        );
    }
}
