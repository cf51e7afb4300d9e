//! Layer benchmark: what a full run costs per instruction, and what its
//! memory side alone costs per dL1 access, for every paper scheme on a
//! light (gzip) and a miss-heavy (mcf) workload. Recorded to
//! `BENCH_layers.json` at the repository root.
//!
//! ```text
//! make bench-layers        # or: cargo bench -p icr-bench --bench layers
//! ```
//!
//! Two legs per cell, both at [`INSTRUCTIONS`] instructions:
//!
//! * **sim** — [`run_sim`] end to end (trace source, core, memory
//!   side), in ns per instruction;
//! * **mem** — a fault-free [`Tape::replay`] of the same run, passing
//!   the tape's own configuration so every taped event is replayed: the
//!   dL1, its codes, the exposure ledger, L2 and memory, with no core.
//!   In ns per dL1 access. Campaign trials run exactly this layer.
//!
//! Each cell checks itself: the replay's `IcrStats` must equal
//! `run_sim`'s, so a timing is only recorded for a replay that did all
//! of the run's memory-side work. The dL1 is configured as a campaign
//! cell configures it (the paper default plus the oracle shadow).
//!
//! Not a criterion target: each leg is the best of [`REPS`] runs,
//! mirroring `BENCH_campaign.json`, and the `history` array carries
//! one summary entry per recorded run forward.

use icr_core::{DataL1Config, Scheme};
use icr_sim::json::{self, obj, Value};
use icr_sim::{run_sim, SimConfig, Tape};
use std::time::Instant;

const INSTRUCTIONS: u64 = 500_000;
const APPS: [&str; 2] = ["gzip", "mcf"];
const REPS: usize = 3;
const SEED: u64 = 42;
const HISTORY_KEEP: usize = 20;
/// The cell the ROADMAP's memory-side target is stated for: the
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

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_layers.json");

    let mut rows = Vec::new();
    let mut headline_mem = f64::NAN;
    let (mut sim_sum, mut mem_sum) = (0.0, 0.0);
    println!(
        "{:<22} {:<5} {:>14} {:>16}",
        "scheme", "app", "sim ns/inst", "mem ns/access"
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

            let sim_ns = best_ns(|| {
                run_sim(&cfg);
            }) / INSTRUCTIONS as f64;
            let mem_ns = best_ns(|| {
                tape.replay(tape.config(), None);
            }) / accesses as f64;
            println!(
                "{:<22} {app:<5} {sim_ns:>14.1} {mem_ns:>16.1}",
                scheme.name()
            );
            if (scheme, app) == HEADLINE {
                headline_mem = mem_ns;
            }
            sim_sum += sim_ns;
            mem_sum += mem_ns;
            rows.push(obj([
                ("scheme", scheme.name().into()),
                ("app", app.into()),
                ("accesses", accesses.into()),
                ("sim_ns_per_inst", sim_ns.into()),
                ("mem_ns_per_access", mem_ns.into()),
            ]));
        }
    }
    let cells = rows.len() as f64;
    let metrics = obj([
        ("sim_ns_per_inst_mean", (sim_sum / cells).into()),
        ("mem_ns_per_access_mean", (mem_sum / cells).into()),
        ("headline_mem_ns_per_access", headline_mem.into()),
    ]);
    println!(
        "  mean: sim {:.1} ns/inst, mem {:.1} ns/access; {} × {}: mem {headline_mem:.1} ns/access",
        sim_sum / cells,
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
