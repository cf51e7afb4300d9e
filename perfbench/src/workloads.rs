//! The three workloads. Each runs once per process: `Engine::global()` and
//! `icr_trace::store::global()` are process-wide, so a second run in the
//! same process would find warm caches and inherited memory.
//!
//! Every run has the same three phases:
//! 1. set-up: materialise every trace the timed phase reads, through the
//!    workload store, several times, and keep the median;
//! 2. the timed phase, checked by [`crate::checks`];
//! 3. traced runs only: a campaign-shaped trial leg and the single-layer
//!    probes of [`crate::layers`] on the workload's own cells.

use crate::checks;
use crate::layers::{self, clock_cost};
use crate::spans::{self, Tracer};
use icr_core::{DataL1Config, ErrorOutcome, OutcomeTally, Scheme};
use icr_fault::trial_seed;
use icr_sim::experiment::{all_figures, figure_runners, ExpOptions};
use icr_sim::{
    run_campaign, run_sim, CampaignSpec, Engine, FaultConfig, Pool, SimConfig, SimResult,
};
use icr_trace::apps::APP_NAMES;
use icr_trace::store::{self, WorkloadStore};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Worker threads for every pool the benchmark drives: the machine's two
/// cores.
pub const THREADS: usize = 2;

/// The schemes the campaign runs and the other workloads probe: the
/// unprotected-replica baseline, the paper's recommended scheme and the
/// costliest dL1 (ROADMAP's worst case).
pub const SCHEMES: [Scheme; 3] = [Scheme::BASE_P, Scheme::ICR_P_PS_S, Scheme::ICR_ECC_PP_LS];

pub const FIGURES_INSTS: u64 = 50_000;
/// `experiment::stability` reruns Figure 12 on this many workload seeds,
/// `seed + k·7919`.
const STABILITY_SEEDS: u64 = 5;

pub const CAMPAIGN_APPS: [&str; 2] = ["gzip", "mcf"];
pub const CAMPAIGN_TRIALS: u64 = 200;
pub const CAMPAIGN_INSTS: u64 = 20_000;

pub const LONG_RUN_APP: &str = "mcf";
pub const LONG_RUN_SCHEME: Scheme = Scheme::ICR_ECC_PP_LS;
pub const LONG_RUN_INSTS: u64 = 2_000_000;
pub const LONG_RUN_REPS: usize = 5;

/// The workload seed at which the outputs are compared with digests
/// recorded from this tree (`ExpOptions`' default seed).
pub const DEFAULT_SEED: u64 = 42;
/// Equal to the digest of `icr-exp all --insts 50000 --json` without its
/// trailing newline.
const FIGURES_DIGEST: u64 = 0xf8e0_c48f_11c0_df34;
const CAMPAIGN_DIGEST: u64 = 0xf3a2_e948_f42c_1586;
const LONG_RUN_DIGEST: u64 = 0x8bd9_ea19_c762_2ac3;

fn recorded(seed: u64, digest: u64) -> Option<u64> {
    (seed == DEFAULT_SEED).then_some(digest)
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Record {
    /// Median host seconds to materialise the workload's traces.
    pub setup_s: f64,
    /// Host seconds of the timed phase (`long_run`: the median repetition).
    pub wall_s: f64,
    /// Host ns per simulated instruction in the timed phase.
    pub ns_per_inst: f64,
    /// Simulation runs (campaign trials, figure cells, repetitions)
    /// completed per host second in the timed phase.
    pub trials_per_s: f64,
    /// Output checks made and failed.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// FNV-1a of the checked output.
    pub digest: u64,
    /// Per-layer metrics (traced runs only), by name.
    pub layers: Vec<(&'static str, f64)>,
}

impl Record {
    fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }
}

/// Runs `workload` once and returns its measurements; `None` for an
/// unknown name.
pub fn run(workload: &str, seed: u64, tracer: &Tracer) -> Option<Record> {
    let mut rec = Record::default();
    match workload {
        "figures" => figures(seed, tracer, &mut rec),
        "campaign" => campaign(seed, tracer, &mut rec),
        "long_run" => long_run(seed, tracer, &mut rec),
        _ => return None,
    }
    Some(rec)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an unsorted sample.
fn percentile(mut v: Vec<f64>, p: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Materialises every `(app, seed, instructions)` key at least three
/// times and for at least half a second, the last time through the
/// process-wide store the timed phase reads. Earlier repetitions use a
/// fresh store each, so every repetition generates its traces. Returns
/// the median seconds and the instructions one repetition materialises.
fn setup(tr: &Tracer, keys: &[(&str, u64, u64)]) -> (f64, u64) {
    const MIN_REPS: usize = 3;
    const MAX_REPS: usize = 25;
    const MIN_TOTAL_S: f64 = 0.5;
    let mut times = Vec::new();
    loop {
        let rep = times.len();
        let last = rep + 1 >= MIN_REPS
            && (times.iter().sum::<f64>() >= MIN_TOTAL_S || rep + 1 >= MAX_REPS);
        let fresh = WorkloadStore::new();
        let store = if last { store::global() } else { &fresh };
        let t = Instant::now();
        tr.span("setup", None, rep as u64, |id| {
            for &(app, seed, n) in keys {
                tr.span("trace.get", id, rep as u64, |_| {
                    black_box(store.get(app, seed, n))
                });
            }
        });
        times.push(t.elapsed().as_secs_f64());
        if last {
            break;
        }
    }
    let insts = keys.iter().map(|k| k.2).sum();
    (median(times), insts)
}

/// Store hit ratio so far; read right after the timed phase, before the
/// probes add lookups of their own.
fn store_hit_ratio() -> f64 {
    let s = store::global();
    s.hits() as f64 / (s.hits() + s.misses()).max(1) as f64
}

fn engine_layers(rec: &mut Record) {
    let e = Engine::global();
    let st = e.stats();
    rec.layers.push((
        "engine.hit_ratio",
        st.run_hits as f64 / (st.run_hits + st.run_misses).max(1) as f64,
    ));
    rec.layers
        .push(("engine.cached_runs", e.cached_runs() as f64));
}

fn pool_layers(rec: &mut Record, jobs: &[Duration], wall: Duration) {
    let busy: Duration = jobs.iter().sum();
    rec.layers.push((
        "pool.busy_frac",
        busy.as_secs_f64() / (THREADS as f64 * wall.as_secs_f64()),
    ));
    rec.layers.push((
        "pool.critical_job_s",
        jobs.iter().max().map_or(0.0, Duration::as_secs_f64),
    ));
}

fn figures(seed: u64, tr: &Tracer, rec: &mut Record) {
    let opts = ExpOptions {
        instructions: FIGURES_INSTS,
        seed,
        threads: THREADS,
    };
    let keys: Vec<(&str, u64, u64)> = APP_NAMES
        .iter()
        .flat_map(|&app| {
            (0..STABILITY_SEEDS).map(move |k| (app, seed.wrapping_add(k * 7919), FIGURES_INSTS))
        })
        .collect();
    let (setup_s, setup_insts) = setup(tr, &keys);
    rec.setup_s = setup_s;
    let misses = store::global().misses();

    let runners = figure_runners();
    let ids: Vec<&str> = runners.iter().map(|r| r.0).collect();
    let mut jobs = Vec::new();
    let t = Instant::now();
    let figs = if !tr.enabled() {
        all_figures(&opts)
    } else {
        tr.span("timed", None, 0, |id| {
            let indexed: Vec<_> = runners.into_iter().enumerate().collect();
            opts.pool().run_observed(
                indexed,
                |(i, (_, f))| tr.span("figure", id, i as u64, |_| f(&opts)),
                |p| jobs.push(p.elapsed),
            )
        })
    };
    let wall = t.elapsed();
    let hit_ratio = store_hit_ratio();

    let body: Vec<String> = figs.iter().map(|f| f.to_json()).collect();
    let doc = format!("[\n{}\n]", body.join(",\n"));
    rec.digest = checks::fnv(doc.as_bytes());
    rec.check(checks::check_figures(
        &doc,
        &ids,
        recorded(seed, FIGURES_DIGEST),
    ));
    rec.check(if store::global().misses() == misses {
        Ok(())
    } else {
        Err("the figures read traces that set-up did not materialise".into())
    });
    let runs = Engine::global().stats().run_misses;
    rec.wall_s = wall.as_secs_f64();
    rec.ns_per_inst = wall.as_nanos() as f64 / (runs * FIGURES_INSTS) as f64;
    rec.trials_per_s = runs as f64 / wall.as_secs_f64();

    if tr.enabled() {
        rec.layers.push(("trace.store_hit_ratio", hit_ratio));
        engine_layers(rec);
        pool_layers(rec, &jobs, wall);
        let spec = trial_spec(&SCHEMES, &APP_NAMES, 2, seed, FIGURES_INSTS);
        let trials = trial_leg(tr, &spec, rec, false).1;
        traced_layers(tr, rec, &spec, &trials, false, 2, setup_insts);
    }
}

fn campaign(seed: u64, tr: &Tracer, rec: &mut Record) {
    let spec = trial_spec(
        &SCHEMES,
        &CAMPAIGN_APPS,
        CAMPAIGN_TRIALS,
        seed,
        CAMPAIGN_INSTS,
    );
    let keys: Vec<(&str, u64, u64)> = CAMPAIGN_APPS
        .iter()
        .map(|&a| (a, seed, CAMPAIGN_INSTS))
        .collect();
    let (setup_s, setup_insts) = setup(tr, &keys);
    rec.setup_s = setup_s;

    let t = Instant::now();
    let report = tr.span("timed", None, 0, |id| {
        tr.span("campaign.run", id, 0, |_| run_campaign(&spec))
    });
    let wall = t.elapsed();
    let hit_ratio = store_hit_ratio();
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            rec.check(Err(format!("run_campaign failed: {e}")));
            return;
        }
    };
    rec.digest = checks::fnv(report.to_json().as_bytes());
    rec.check(checks::check_campaign(
        &report,
        SCHEMES.len() * CAMPAIGN_APPS.len(),
        CAMPAIGN_TRIALS,
        recorded(seed, CAMPAIGN_DIGEST),
    ));
    let trials: u64 = report.cells.iter().map(|c| c.trials).sum();
    rec.wall_s = wall.as_secs_f64();
    rec.ns_per_inst = wall.as_nanos() as f64 / (trials * CAMPAIGN_INSTS) as f64;
    rec.trials_per_s = trials as f64 / wall.as_secs_f64();

    if tr.enabled() {
        rec.layers.push(("trace.store_hit_ratio", hit_ratio));
        engine_layers(rec);
        let (tallies, results) = trial_leg(tr, &spec, rec, true);
        let reported: Vec<OutcomeTally> = report.cells.iter().map(|c| c.tally).collect();
        rec.check(if tallies == reported {
            Ok(())
        } else {
            Err("the traced trial leg did not reproduce the report's tallies".into())
        });
        traced_layers(tr, rec, &spec, &results, true, 8, setup_insts);
    }
}

fn long_run(seed: u64, tr: &Tracer, rec: &mut Record) {
    let cfg = SimConfig::paper(
        LONG_RUN_APP,
        DataL1Config::paper_default(LONG_RUN_SCHEME),
        LONG_RUN_INSTS,
        seed,
    );
    let (setup_s, setup_insts) = setup(tr, &[(LONG_RUN_APP, seed, LONG_RUN_INSTS)]);
    rec.setup_s = setup_s;

    // `run_sim` directly, not through the engine, so no repetition is
    // served from the memo.
    let mut times = Vec::new();
    let reps: Vec<SimResult> = tr.span("timed", None, 0, |id| {
        (0..LONG_RUN_REPS)
            .map(|r| {
                let t = Instant::now();
                let res = tr.span("long_run.rep", id, r as u64, |_| run_sim(&cfg));
                times.push(t.elapsed().as_secs_f64());
                res
            })
            .collect()
    });
    let hit_ratio = store_hit_ratio();
    rec.digest = checks::fnv(reps[0].to_json().as_bytes());
    rec.check(checks::check_long_run(
        &reps,
        LONG_RUN_INSTS,
        recorded(seed, LONG_RUN_DIGEST),
    ));
    rec.wall_s = median(times);
    rec.ns_per_inst = rec.wall_s * 1e9 / LONG_RUN_INSTS as f64;
    rec.trials_per_s = 1.0 / rec.wall_s;

    if tr.enabled() {
        rec.layers.push(("trace.store_hit_ratio", hit_ratio));
        engine_layers(rec);
        let spec = trial_spec(&[LONG_RUN_SCHEME], &[LONG_RUN_APP], 2, seed, LONG_RUN_INSTS);
        let trials = trial_leg(tr, &spec, rec, true).1;
        traced_layers(tr, rec, &spec, &trials, false, 2, setup_insts);
    }
}

/// A uniform one-shot campaign over `schemes × apps`: the `campaign`
/// workload itself, and the trial leg the other workloads run on their
/// own cells.
fn trial_spec(
    schemes: &[Scheme],
    apps: &[&str],
    trials: u64,
    seed: u64,
    insts: u64,
) -> CampaignSpec {
    let apps = apps.iter().map(|a| a.to_string()).collect();
    let mut spec = CampaignSpec::new(schemes.to_vec(), apps, trials, seed);
    spec.instructions = insts;
    spec.threads = THREADS;
    spec
}

/// Trial `trial` of cell `cell` (row-major over schemes × apps), built
/// the way `icr_sim::campaign` builds it for a uniform campaign.
pub fn trial_config(spec: &CampaignSpec, cell: usize, trial: u64) -> SimConfig {
    let scheme = spec.schemes[cell / spec.apps.len()];
    let app = &spec.apps[cell % spec.apps.len()];
    let global_index = cell as u64 * spec.trials_per_cell + trial;
    let mut dl1 = DataL1Config::paper_default(scheme);
    dl1.oracle = spec.oracle;
    SimConfig::builder(app, dl1)
        .instructions(spec.instructions)
        .seed(spec.master_seed)
        .fault(FaultConfig::one_shot(
            spec.model,
            spec.effective_p(),
            trial_seed(spec.master_seed, global_index),
        ))
        .build()
}

/// Runs every trial of `spec` through `run_sim`, one pool job and one
/// span per trial, and returns the per-cell outcome tallies plus each
/// trial's result, cell-major. Records the trial-time percentiles, the
/// delivered ratio and, unless the timed phase already drove a pool, the
/// pool metrics.
fn trial_leg(
    tr: &Tracer,
    spec: &CampaignSpec,
    rec: &mut Record,
    pool_metrics: bool,
) -> (Vec<OutcomeTally>, Vec<SimResult>) {
    let cells = spec.schemes.len() * spec.apps.len();
    let jobs: Vec<(usize, u64)> = (0..cells)
        .flat_map(|c| (0..spec.trials_per_cell).map(move |t| (c, t)))
        .collect();
    let mut times = Vec::new();
    let t = Instant::now();
    let results = tr.span("trials", None, 0, |id| {
        Pool::new(THREADS).run_observed(
            jobs.clone(),
            |(c, trial)| {
                let cfg = trial_config(spec, c, trial);
                let global = c as u64 * spec.trials_per_cell + trial;
                tr.span("campaign.trial", id, global, |_| run_sim(&cfg))
            },
            |p| times.push(p.elapsed),
        )
    });
    let wall = t.elapsed();
    let mut tallies = vec![OutcomeTally::default(); cells];
    for (&(c, _), r) in jobs.iter().zip(&results) {
        tallies[c].record(ErrorOutcome::classify_single_fault(
            r.faults_injected,
            &r.icr,
        ));
    }
    let ms: Vec<f64> = times.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    rec.layers
        .push(("campaign.trial_ms_p50", percentile(ms.clone(), 50.0)));
    rec.layers
        .push(("campaign.trial_ms_p99", percentile(ms, 99.0)));
    let injected: u64 = tallies.iter().map(OutcomeTally::injected).sum();
    rec.layers
        .push(("fault.delivered_ratio", injected as f64 / jobs.len() as f64));
    if pool_metrics {
        pool_layers(rec, &times, wall);
    }
    (tallies, results)
}

/// The single-layer probes on every cell of `spec`, fault-free and with
/// the oracle shadow as the workload's timed phase runs it, plus the
/// injector on the first `fault_trials` trials of each cell. Each probe
/// is checked against `run_sim`: a mirror or replay whose statistics
/// differ fails the run.
fn traced_layers(
    tr: &Tracer,
    rec: &mut Record,
    spec: &CampaignSpec,
    trials: &[SimResult],
    oracle: bool,
    fault_trials: u64,
    setup_insts: u64,
) {
    const CONSTRUCT_REPS: u64 = 20;
    let clock = clock_cost();
    let cells = spec.schemes.len() * spec.apps.len();
    let (mut insts, mut accesses, mut created, mut attempts) = (0u64, 0u64, 0u64, 0u64);
    let mut fault_time = Duration::ZERO;
    let mut checks = Vec::new();
    for c in 0..cells {
        let mut cfg = trial_config(spec, c, 0);
        cfg.fault = None;
        cfg.dl1.oracle = oracle;
        let trace = store::global().get(&cfg.app, cfg.seed, cfg.instructions);
        let c64 = c as u64;
        tr.span("probe", None, c64, |id| {
            for _ in 0..CONSTRUCT_REPS {
                let parts = tr.span("sim.construct", id, c64, |_| layers::construct(&cfg));
                drop(parts);
            }
            let (mut core, mut dl1, mut backend, _) = layers::construct(&cfg);
            let core = tr.span("cpu.pipeline_run", id, c64, |_| {
                layers::core_only(&mut core, &trace)
            });
            let real = tr.span("sim.run_sim", id, c64, |_| run_sim(&cfg));
            let m = tr.span("probe.mirror", id, c64, |_| {
                layers::mirror_run(&cfg, &trace, clock)
            });
            let replayed = tr.span("dl1.replay", id, c64, |_| {
                layers::replay_dl1(&mut dl1, &mut backend, &m.accesses)
            });
            checks.push(if core.committed != cfg.instructions {
                Err(format!(
                    "core probe committed {} of {}",
                    core.committed, cfg.instructions
                ))
            } else if m.pipeline != real.pipeline || m.icr != real.icr || replayed != real.icr {
                Err(format!(
                    "probe of {} × {} differs from run_sim",
                    real.scheme, real.app
                ))
            } else {
                Ok(())
            });
            insts += cfg.instructions;
            accesses += m.accesses.len() as u64;
            created += real.icr.replicas_created;
            attempts += real.icr.replication_attempts;
        });
        for trial in 0..fault_trials.min(spec.trials_per_cell) {
            let cfg = trial_config(spec, c, trial);
            let real = &trials[c * spec.trials_per_cell as usize + trial as usize];
            let m = tr.span("probe.fault", None, c64, |_| {
                layers::mirror_run(&cfg, &trace, clock)
            });
            checks.push(
                if m.faults_injected != real.faults_injected
                    || m.icr != real.icr
                    || m.pipeline != real.pipeline
                {
                    Err(format!(
                        "faulted probe of {} × {} differs from run_sim",
                        real.scheme, real.app
                    ))
                } else {
                    Ok(())
                },
            );
            fault_time += m.fault_time;
        }
    }
    for c in checks {
        rec.check(c);
    }
    let probed_trials = cells as u64 * fault_trials.min(spec.trials_per_cell);

    let all = tr.spans();
    let by_name = spans::self_time_by_name(&all);
    let ns = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64;
    let (core, dl1, sim) = (ns("cpu.pipeline_run"), ns("dl1.replay"), ns("sim.run_sim"));
    let store = store::global();
    rec.layers.extend([
        (
            "trace.gen_ns_per_inst",
            ns("trace.get") / (setup_insts as f64 * setup_reps(&all)),
        ),
        (
            "trace.resident_mb",
            store.resident_bytes() as f64 / (1 << 20) as f64,
        ),
        ("core.ns_per_inst", core / insts as f64),
        ("core.share", core / sim),
        ("dl1.ns_per_access", dl1 / accesses as f64),
        ("dl1.accesses_per_inst", accesses as f64 / insts as f64),
        (
            "dl1.replication_ability",
            created as f64 / attempts.max(1) as f64,
        ),
        (
            "fault.advance_ns_per_trial",
            fault_time.as_nanos() as f64 / probed_trials as f64,
        ),
        (
            "sim.construct_ms",
            ns("sim.construct") / 1e6 / (cells as u64 * CONSTRUCT_REPS) as f64,
        ),
        ("sim.glue_ns_per_inst", (sim - core - dl1) / insts as f64),
    ]);
}

fn setup_reps(spans: &[spans::Span]) -> f64 {
    spans.iter().filter(|s| s.name == "setup").count() as f64
}
