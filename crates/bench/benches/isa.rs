//! Interpret-vs-replay benchmark for the execution-driven ISA kernels:
//! time one cold interpretation of each kernel against one replay of its
//! saved `.icrt` trace, and record both to `BENCH_isa.json` at the
//! repository root.
//!
//! ```text
//! make bench-isa           # or: cargo bench -p icr-bench --bench isa
//! ```
//!
//! Replay is the whole point of the on-disk trace cache: the second and
//! later simulations of a kernel should pay a decode-and-validate pass,
//! not a full RV32IM interpretation. The bench asserts that the total
//! replay time beats the total interpret time, so the cache earning its
//! keep is checked every time this target runs — alongside the recorded
//! numbers, which make the margin visible in review.
//!
//! Not a criterion target: the interesting quantities are single cold
//! passes over each kernel, measured with plain [`Instant`], and the
//! file format mirrors `BENCH_all.json` (label + history carried
//! forward, `ICR_BENCH_LABEL` honoured).

use icr_sim::json::{esc, num};
use icr_trace::disk;
use std::time::Instant;

const SEED: u64 = 42;

/// Runs `f` three times and returns (best wall-clock seconds, last
/// result): the minimum is the standard noise-resistant estimate for a
/// short single-pass measurement.
fn best_of_3<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("ran at least once"))
}

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_isa.json");
    let dir = std::env::temp_dir().join("icr-bench-isa");
    std::fs::create_dir_all(&dir).expect("bench scratch dir");

    let mut rows = Vec::new();
    let mut total_interp = 0.0f64;
    let mut total_replay = 0.0f64;
    for name in icr_isa::kernels::kernel_names() {
        let (interp_s, (trace, retired, _)) = best_of_3(|| icr_isa::run_kernel(name, SEED));

        let file = dir.join(format!(
            "{}.icrt",
            name.strip_prefix("isa:").unwrap_or(name)
        ));
        disk::write_trace(&file, name, SEED, &trace).expect("trace writes");

        let (replay_s, stored) = best_of_3(|| disk::read_trace(&file).expect("trace replays"));
        assert_eq!(stored.insts, trace, "{name}: replay must be exact");

        let bytes = std::fs::metadata(&file).expect("trace file").len();
        println!(
            "{name:<14} {retired:>7} insts  interpret {:>8.3}ms  replay {:>8.3}ms  ({bytes} bytes, {:.2} B/inst)",
            interp_s * 1e3,
            replay_s * 1e3,
            bytes as f64 / retired.max(1) as f64
        );
        total_interp += interp_s;
        total_replay += replay_s;
        rows.push(format!(
            "{{\"app\":{},\"retired\":{retired},\"interpret_s\":{},\"replay_s\":{},\"trace_bytes\":{bytes}}}",
            esc(name),
            num(interp_s),
            num(replay_s),
        ));
    }

    let json = format!(
        "{{\"bench\":\"isa\",\"label\":{},\"seed\":{SEED},\"total_interpret_s\":{},\"total_replay_s\":{},\"kernels\":[{}]}}",
        esc(&icr_bench::label()),
        num(total_interp),
        num(total_replay),
        rows.join(","),
    );
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_isa.json");
    println!(
        "total: interpret {:.3}ms, replay {:.3}ms ({:.1}x) -> {path}",
        total_interp * 1e3,
        total_replay * 1e3,
        total_interp / total_replay.max(1e-12)
    );

    assert!(
        total_replay < total_interp,
        "replaying stored traces ({total_replay:.4}s) must beat re-interpreting \
         ({total_interp:.4}s) — the disk cache is not earning its keep"
    );
}
