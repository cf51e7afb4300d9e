//! Full-matrix benchmark: regenerate every figure cold (empty run cache
//! and workload store) through the figure-granularity pipeline, and
//! record per-figure plus total wall-clock to `BENCH_all.json` at the
//! repository root.
//!
//! ```text
//! make bench-all           # or: cargo bench -p icr-bench --bench all
//! ```
//!
//! The file is tracked: each PR refreshes it, and the `history` array
//! carries the last few totals forward so the cold-time trajectory is
//! readable without walking git history. Environment knobs:
//!
//! * `ICR_BENCH_LABEL` — label for the new history entry (default: the
//!   short git revision, else `local`).
//! * `ICR_BENCH_GATE` — when set, exit non-zero if the new total cold
//!   time regresses more than `ICR_BENCH_GATE_PCT` percent (default 20)
//!   over the committed baseline. This is the CI regression gate.
//!
//! Not a criterion target for the same reason as the engine bench: the
//! interesting quantity is one *cold* pass, which repeated iterations
//! would erase. Per-figure times are measured inside the pipelined
//! scheduler, so a figure whose cells were memoized by an earlier
//! figure is credited with its warm (near-zero) cost — exactly what the
//! end-to-end `icr-exp all` run pays.

use icr_sim::exec::Pool;
use icr_sim::experiment::{figure_runners, ExpOptions};
use icr_sim::json::{esc, num, obj, Value};
use std::time::Instant;

const HISTORY_KEEP: usize = 20;

fn main() {
    let opts = ExpOptions {
        instructions: 200_000,
        seed: 42,
        threads: 0,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_all.json");
    let prev = icr_bench::read_previous(path);
    let prev_total = match prev.as_ref().and_then(|d| d.get("total_cold_s")) {
        Some(Value::Num(tok)) => tok.parse::<f64>().ok(),
        _ => None,
    };

    let runners = figure_runners();
    let ids: Vec<&'static str> = runners.iter().map(|(id, _)| *id).collect();
    let mut elapsed = vec![0.0f64; runners.len()];

    let t = Instant::now();
    let results = Pool::new(opts.threads).run_observed(
        runners,
        |(_, f)| f(&opts),
        |p| elapsed[p.index] = p.elapsed.as_secs_f64(),
    );
    let total_s = t.elapsed().as_secs_f64();
    assert_eq!(results.len(), ids.len());

    let figures: Vec<String> = ids
        .iter()
        .zip(&elapsed)
        .map(|(id, s)| format!("{{\"id\":{},\"cold_s\":{}}}", esc(id), num(*s)))
        .collect();

    // Carry the previous history forward, appending this run.
    let entry = obj([
        ("label", icr_bench::label().into()),
        ("total_cold_s", total_s.into()),
    ]);
    let history = icr_bench::carry_history(prev.as_ref(), entry, HISTORY_KEEP);

    let json = format!(
        "{{\"bench\":\"all\",\"instructions\":{},\"threads\":{},\"total_cold_s\":{},\"figures\":[{}],\"history\":{}}}",
        opts.instructions,
        Pool::new(opts.threads).threads(),
        num(total_s),
        figures.join(","),
        history,
    );
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_all.json");

    let mut slowest: Vec<(&str, f64)> = ids.iter().copied().zip(elapsed.iter().copied()).collect();
    slowest.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: Vec<String> = slowest
        .iter()
        .take(3)
        .map(|(id, s)| format!("{id} {s:.2}s"))
        .collect();
    println!(
        "all figures cold in {total_s:.2}s (slowest: {}) -> {path}",
        top.join(", ")
    );

    if std::env::var_os("ICR_BENCH_GATE").is_some() {
        let pct: f64 = std::env::var("ICR_BENCH_GATE_PCT")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20.0);
        match prev_total {
            Some(base) if total_s > base * (1.0 + pct / 100.0) => {
                eprintln!(
                    "cold-time regression gate: {total_s:.2}s is more than {pct}% over \
                     the committed baseline {base:.2}s"
                );
                std::process::exit(1);
            }
            Some(base) => println!("gate ok: {total_s:.2}s vs baseline {base:.2}s (limit +{pct}%)"),
            None => println!("gate skipped: no committed baseline to compare against"),
        }
    }
}
