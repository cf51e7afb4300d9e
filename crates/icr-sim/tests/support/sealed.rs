//! The sealed-trial differential harness, shared by the full-size test
//! in `crates/icr-sim/tests/sealed_trials.rs` and the debug-sized copy
//! in the facade's `tests/`: every trial of a scheme × app × error model
//! × sampling × oracle matrix runs once through [`run_trial`] and once
//! through the full [`run_sim`], and the two must agree on the outcome,
//! the delivered fault count and the importance weight.

use icr_core::{DataL1Config, ErrorOutcome, InjectionProposal, Scheme};
use icr_fault::{conditional_arrival, trial_seed, ErrorModel};
use icr_sim::{run_sim, run_trial, store_working_set, FaultConfig, Pool, SimConfig};
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
}

/// Every trial of `m`, uniform and importance-sampled, oracle on and
/// off. Importance trials are built the way a campaign builds them: a
/// site boost and arrival horizon from a fault-free profile, and a
/// forced arrival drawn from the conditional arrival distribution.
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
                let profile = run_sim(&base.clone().build());
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

/// Runs every trial of `m` both ways on two threads and panics on the
/// first disagreement, naming the trial. Returns the number of pairs
/// checked and the fraction of the full runs' dL1 accesses the sealed
/// trials simulated.
pub fn check(m: &Matrix) -> (usize, f64) {
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
        (sealed.icr.cache.accesses(), full.icr.cache.accesses())
    });
    let (sealed, full) = rows
        .iter()
        .fold((0u64, 0u64), |(s, f), &(a, b)| (s + a, f + b));
    (n, sealed as f64 / full as f64)
}
