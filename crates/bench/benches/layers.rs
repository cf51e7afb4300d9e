//! Layer benchmark: what a full run costs per instruction, what its
//! core alone costs per instruction, and what its memory side alone
//! costs per dL1 access, for every paper scheme on a light (gzip) and a
//! miss-heavy (mcf) workload, plus what materialising each workload's
//! trace costs. Recorded to `BENCH_layers.json` at the repository root.
//!
//! ```text
//! make bench-layers        # or: cargo bench -p icr-bench --bench layers
//! ```
//!
//! Three legs per cell, all at [`INSTRUCTIONS`] instructions:
//!
//! * **sim** — [`run_sim`] end to end (trace source, core, memory
//!   side), in ns per instruction;
//! * **core** — [`Pipeline::run`] on the same trace against ports that
//!   answer each fetch, load and store with the latency the run's own
//!   iL1 and dL1 returned for it, in call order: the out-of-order core
//!   with the memory side's work taken out. In ns per instruction;
//! * **mem** — a fault-free [`Tape::replay`] of the same run, passing
//!   the tape's own configuration so every taped event is replayed: the
//!   dL1, its codes, the exposure ledger, L2 and memory, with no core.
//!   In ns per dL1 access. Campaign trials run exactly this layer.
//!
//! One more leg per app, outside the scheme cells: **trace** — a fresh
//! [`WorkloadStore`] materialising the app's trace, in ns per
//! instruction, with the resident bytes per instruction it holds.
//!
//! Each cell checks itself: the core leg's `PipelineStats` and the
//! replay's `IcrStats` must equal `run_sim`'s, so a timing is only
//! recorded for a leg that did all of the run's work in its layer. The
//! dL1 is configured as a campaign cell configures it (the paper
//! default plus the oracle shadow).
//!
//! Not a criterion target: each leg is the best of [`REPS`] runs,
//! mirroring `BENCH_campaign.json`, and the `history` array carries
//! one summary entry per recorded run forward.

use icr_core::{DataL1, DataL1Config, Scheme};
use icr_cpu::{DataMemory, InstrMemory, Pipeline, PipelineStats};
use icr_mem::{Addr, InstrCache, MemoryBackend};
use icr_sim::json::{self, obj, Value};
use icr_sim::{run_sim, SimConfig, Tape};
use icr_trace::{Inst, WorkloadStore};
use std::time::Instant;

const INSTRUCTIONS: u64 = 500_000;
const APPS: [&str; 2] = ["gzip", "mcf"];
const REPS: usize = 3;
const SEED: u64 = 42;
const HISTORY_KEEP: usize = 20;
/// The cell the ROADMAP's headline targets are stated for: the
/// costliest replication case, replicating on every load miss.
const HEADLINE: (Scheme, &str) = (Scheme::ICR_ECC_PP_LS, "mcf");

/// Best-of-[`REPS`] wall time of `f`, in nanoseconds.
fn best_ns(mut f: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e9
        })
        .fold(f64::INFINITY, f64::min)
}

/// The machine [`run_sim`] builds for a fault-free run, logging the
/// latency of every fetch and of every dL1 access in call order.
struct Recording {
    dl1: DataL1,
    backend: MemoryBackend,
    icache: InstrCache,
    fetches: Vec<u64>,
    accesses: Vec<u64>,
}

impl DataMemory for Recording {
    fn load(&mut self, addr: u64, now: u64) -> u64 {
        let lat = self.dl1.load(Addr(addr), now, &mut self.backend);
        self.accesses.push(lat);
        lat
    }
    fn store(&mut self, addr: u64, now: u64) -> u64 {
        let lat = self.dl1.store(Addr(addr), now, &mut self.backend);
        self.accesses.push(lat);
        lat
    }
}

impl InstrMemory for Recording {
    fn fetch(&mut self, pc: u64, _now: u64) -> u64 {
        let lat = self.icache.fetch(Addr(pc), &mut self.backend);
        self.fetches.push(lat);
        lat
    }
}

/// Runs `cfg`'s core on `trace` against its real memory side and
/// returns the fetch and dL1 latency streams, in call order.
fn record_latencies(cfg: &SimConfig, trace: &[Inst]) -> (PipelineStats, Vec<u64>, Vec<u64>) {
    let mut machine = Recording {
        dl1: DataL1::new(cfg.dl1.clone()),
        backend: MemoryBackend::new(&cfg.hierarchy),
        icache: InstrCache::new(&cfg.hierarchy),
        fetches: Vec::with_capacity(trace.len()),
        accesses: Vec::with_capacity(trace.len()),
    };
    let stats = Pipeline::new(cfg.cpu).run_on(trace.iter().copied(), &mut machine);
    (stats, machine.fetches, machine.accesses)
}

/// A port answering each call with the next latency of a recorded
/// stream.
struct Replay<'a> {
    latencies: &'a [u64],
    next: usize,
}

impl Replay<'_> {
    fn new(latencies: &[u64]) -> Replay<'_> {
        Replay { latencies, next: 0 }
    }

    fn next(&mut self) -> u64 {
        let lat = self.latencies[self.next];
        self.next += 1;
        lat
    }
}

impl DataMemory for Replay<'_> {
    fn load(&mut self, _addr: u64, _now: u64) -> u64 {
        self.next()
    }
    fn store(&mut self, _addr: u64, _now: u64) -> u64 {
        self.next()
    }
}

impl InstrMemory for Replay<'_> {
    fn fetch(&mut self, _pc: u64, _now: u64) -> u64 {
        self.next()
    }
}

/// The core leg: `cfg`'s core on `trace`, its ports replaying the
/// recorded latencies.
fn replay_core(
    cfg: &SimConfig,
    trace: &[Inst],
    fetches: &[u64],
    accesses: &[u64],
) -> PipelineStats {
    Pipeline::new(cfg.cpu).run(
        trace.iter().copied(),
        &mut Replay::new(fetches),
        &mut Replay::new(accesses),
    )
}

/// The trace leg: best-of-[`REPS`] ns per instruction for a fresh
/// store to materialise `app`'s trace, and the bytes per instruction
/// the store holds for it.
fn trace_leg(app: &str) -> (f64, f64) {
    let mut bytes = 0;
    let ns = best_ns(|| {
        let store = WorkloadStore::new();
        std::hint::black_box(store.get(app, SEED, INSTRUCTIONS));
        bytes = store.resident_bytes();
    }) / INSTRUCTIONS as f64;
    (ns, bytes as f64 / INSTRUCTIONS as f64)
}

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_layers.json");

    let (mut trace_sum, mut trace_bytes) = (0.0, f64::NAN);
    for app in APPS {
        let (ns, bytes) = trace_leg(app);
        println!("trace {app:<5} {ns:>8.1} ns/inst, {bytes} B/inst resident");
        trace_sum += ns;
        trace_bytes = bytes;
    }

    let mut rows = Vec::new();
    let (mut headline_core, mut headline_mem) = (f64::NAN, f64::NAN);
    let (mut sim_sum, mut core_sum, mut mem_sum) = (0.0, 0.0, 0.0);
    println!(
        "{:<22} {:<5} {:>14} {:>14} {:>16}",
        "scheme", "app", "sim ns/inst", "core ns/inst", "mem ns/access"
    );
    for scheme in Scheme::all_paper_schemes() {
        for app in APPS {
            let mut dl1 = DataL1Config::paper_default(scheme);
            dl1.oracle = true;
            let cfg = SimConfig::builder(app, dl1)
                .instructions(INSTRUCTIONS)
                .seed(SEED)
                .build();
            let reference = run_sim(&cfg);
            let (_, tape) = Tape::record(&cfg);
            let replayed = tape
                .replay(tape.config(), None)
                .expect("a fault-free replay of the tape's own configuration");
            assert_eq!(
                replayed.icr,
                reference.icr,
                "{} × {app}: the replay must redo the run's memory side",
                scheme.name()
            );
            let accesses = reference.icr.cache.accesses();
            let trace = icr_trace::store::global().get(app, SEED, INSTRUCTIONS);
            let (recorded, fetch_lat, access_lat) = record_latencies(&cfg, &trace);
            assert_eq!(
                recorded,
                reference.pipeline,
                "{} × {app}: the recording machine must be run_sim's",
                scheme.name()
            );
            assert_eq!(
                replay_core(&cfg, &trace, &fetch_lat, &access_lat),
                reference.pipeline,
                "{} × {app}: the core leg must redo the run's core",
                scheme.name()
            );

            let sim_ns = best_ns(|| {
                run_sim(&cfg);
            }) / INSTRUCTIONS as f64;
            let core_ns = best_ns(|| {
                replay_core(&cfg, &trace, &fetch_lat, &access_lat);
            }) / INSTRUCTIONS as f64;
            let mem_ns = best_ns(|| {
                tape.replay(tape.config(), None);
            }) / accesses as f64;
            println!(
                "{:<22} {app:<5} {sim_ns:>14.1} {core_ns:>14.1} {mem_ns:>16.1}",
                scheme.name()
            );
            if (scheme, app) == HEADLINE {
                headline_core = core_ns;
                headline_mem = mem_ns;
            }
            sim_sum += sim_ns;
            core_sum += core_ns;
            mem_sum += mem_ns;
            rows.push(obj([
                ("scheme", scheme.name().into()),
                ("app", app.into()),
                ("accesses", accesses.into()),
                ("sim_ns_per_inst", sim_ns.into()),
                ("core_ns_per_inst", core_ns.into()),
                ("mem_ns_per_access", mem_ns.into()),
            ]));
        }
    }
    let cells = rows.len() as f64;
    let metrics = obj([
        ("sim_ns_per_inst_mean", (sim_sum / cells).into()),
        ("core_ns_per_inst_mean", (core_sum / cells).into()),
        ("mem_ns_per_access_mean", (mem_sum / cells).into()),
        ("headline_core_ns_per_inst", headline_core.into()),
        ("headline_mem_ns_per_access", headline_mem.into()),
        (
            "trace_ns_per_inst_mean",
            (trace_sum / APPS.len() as f64).into(),
        ),
        ("trace_bytes_per_inst", trace_bytes.into()),
    ]);
    println!(
        "  mean: sim {:.1} ns/inst, core {:.1} ns/inst, mem {:.1} ns/access; \
         {} × {}: core {headline_core:.1} ns/inst, mem {headline_mem:.1} ns/access",
        sim_sum / cells,
        core_sum / cells,
        mem_sum / cells,
        HEADLINE.0.name(),
        HEADLINE.1
    );

    let label = icr_bench::label();
    let Value::Obj(mut entry) = metrics.clone() else {
        unreachable!("metrics is an object")
    };
    entry.insert(0, ("label".into(), label.clone().into()));
    let prev = icr_bench::read_previous(path);
    let history = icr_bench::carry_history(prev.as_ref(), Value::Obj(entry), HISTORY_KEEP);
    let report = obj([
        ("bench", "layers".into()),
        ("label", label.into()),
        (
            "config",
            obj([
                ("instructions", INSTRUCTIONS.into()),
                ("seed", SEED.into()),
                ("reps", REPS.into()),
                ("oracle", true.into()),
                (
                    "headline",
                    format!("{} × {}", HEADLINE.0.name(), HEADLINE.1).into(),
                ),
            ]),
        ),
        ("metrics", metrics),
        ("rows", Value::Arr(rows)),
        (
            "history",
            json::parse(&history).expect("carry_history writes JSON"),
        ),
    ]);
    std::fs::write(path, format!("{}\n", json::pretty(&report))).expect("write BENCH_layers.json");
    println!("-> {path}");
}
