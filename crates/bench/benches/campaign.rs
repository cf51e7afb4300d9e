//! Checkpoint-overhead benchmark for the sharded campaign service:
//! time the same campaign shape through the sharded runner with
//! checkpointing off (in-memory only) and on (one digest-verified file
//! per shard), plus a pure resume pass over the completed checkpoint
//! set, and record shard throughput and the overhead to
//! `BENCH_campaign.json` at the repository root.
//!
//! ```text
//! make bench-campaign      # or: cargo bench -p icr-bench --bench campaign
//! ```
//!
//! Crash safety must be close to free or nobody leaves it on, so the
//! bench asserts the checkpointing leg stays within 5% of the
//! in-memory leg — the durability budget is checked every time this
//! target runs, with the recorded numbers making the margin visible in
//! review.
//!
//! Not a criterion target: each repetition uses a fresh master seed per
//! leg, so no leg can reuse another's work, and the best-of-3 minimum
//! is recorded, mirroring `BENCH_isa.json`; the `history` array carries
//! prior totals forward like `BENCH_all.json`.

use icr_core::Scheme;
use icr_sim::json::{esc, num};
use icr_sim::{run_sharded_campaign, CampaignSpec, ShardedCampaignSpec};
use std::time::Instant;

const REPS: usize = 3;
const TRIALS_PER_CELL: u64 = 300;
const SHARD_SIZE: u64 = 50;
const INSTRUCTIONS: u64 = 20_000;
const OVERHEAD_LIMIT_PCT: f64 = 5.0;
const HISTORY_KEEP: usize = 20;

/// One campaign shape per (leg, repetition), distinguished only by the
/// master seed, so every leg executes cold.
fn spec(master_seed: u64) -> ShardedCampaignSpec {
    let mut base = CampaignSpec::new(
        vec![Scheme::BASE_P, Scheme::ICR_P_PS_S],
        vec!["gzip".into(), "gcc".into()],
        TRIALS_PER_CELL,
        master_seed,
    );
    base.instructions = INSTRUCTIONS;
    ShardedCampaignSpec::new(base, SHARD_SIZE)
}

fn label() -> String {
    if let Ok(l) = std::env::var("ICR_BENCH_LABEL") {
        return l;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "local".into())
}

/// Extracts the `[...]` array following `"history":`, brackets included.
fn extract_history(doc: &str) -> Option<&str> {
    let at = doc.find("\"history\":[")? + "\"history\":".len();
    let rest = &doc[at..];
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits the comma-joined `{...}` entries of a flat history array.
fn split_history_entries(inner: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    for (i, c) in inner.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    if let Some(s) = start.take() {
                        out.push(inner[s..=i].to_string());
                    }
                }
            }
            _ => {}
        }
    }
    out
}

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    let scratch = std::env::temp_dir().join(format!("icr-bench-campaign-{}", std::process::id()));

    let total_trials =
        TRIALS_PER_CELL * spec(0).base.schemes.len() as u64 * spec(0).base.apps.len() as u64;
    let mut plain_s = f64::INFINITY;
    let mut ckpt_s = f64::INFINITY;
    let mut resume_s = f64::INFINITY;

    for rep in 0..REPS as u64 {
        // Leg 1: the sharded runner with no checkpoint directory — all
        // the shard machinery, none of the I/O. This is the baseline the
        // durability cost is measured against.
        let t = Instant::now();
        let report = run_sharded_campaign(&spec(1_000 + rep), None, false).expect("in-memory leg");
        plain_s = plain_s.min(t.elapsed().as_secs_f64());
        assert!(report.complete);

        // Leg 2: identical shape, one digest-verified checkpoint file
        // (write + fsync + rename + dir fsync) per completed shard.
        let dir = scratch.join(format!("rep{rep}"));
        let t = Instant::now();
        let report =
            run_sharded_campaign(&spec(2_000 + rep), Some(&dir), false).expect("checkpointed leg");
        ckpt_s = ckpt_s.min(t.elapsed().as_secs_f64());
        assert!(report.complete);
        let shards = report.shards_done;

        // Leg 3: resume over the finished set — every shard read back,
        // digest-verified, and skipped. The crash-recovery fast path.
        let t = Instant::now();
        let report =
            run_sharded_campaign(&spec(2_000 + rep), Some(&dir), true).expect("resume leg");
        resume_s = resume_s.min(t.elapsed().as_secs_f64());
        assert!(report.complete && report.shards_resumed == shards && report.quarantined == 0);
    }
    std::fs::remove_dir_all(&scratch).ok();

    let overhead_pct = (ckpt_s - plain_s) / plain_s * 100.0;
    let trials_per_s = total_trials as f64 / ckpt_s;
    println!(
        "{total_trials} trials × {INSTRUCTIONS} insts, shards of {SHARD_SIZE}/cell (best of {REPS}):"
    );
    println!("  in-memory    {:>8.3}s", plain_s);
    println!(
        "  checkpointed {:>8.3}s  ({overhead_pct:+.2}% — {trials_per_s:.0} trials/s)",
        ckpt_s
    );
    println!(
        "  resume       {:>8.3}s  (all shards verified + skipped)",
        resume_s
    );

    let prev = std::fs::read_to_string(path).ok();
    let mut history: Vec<String> = prev
        .as_deref()
        .and_then(extract_history)
        .map(|h| h.trim_start_matches('[').trim_end_matches(']'))
        .into_iter()
        .flat_map(split_history_entries)
        .collect();
    history.push(format!(
        "{{\"label\":{},\"checkpointed_s\":{},\"overhead_pct\":{}}}",
        esc(&label()),
        num(ckpt_s),
        num(overhead_pct),
    ));
    if history.len() > HISTORY_KEEP {
        history.drain(..history.len() - HISTORY_KEEP);
    }

    let json = format!(
        "{{\"bench\":\"campaign\",\"trials\":{total_trials},\"instructions\":{INSTRUCTIONS},\
         \"shard_size\":{SHARD_SIZE},\"in_memory_s\":{},\"checkpointed_s\":{},\"resume_s\":{},\
         \"trials_per_s\":{},\"checkpoint_overhead_pct\":{},\"history\":[{}]}}",
        num(plain_s),
        num(ckpt_s),
        num(resume_s),
        num(trials_per_s),
        num(overhead_pct),
        history.join(","),
    );
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_campaign.json");
    println!("-> {path}");

    assert!(
        overhead_pct < OVERHEAD_LIMIT_PCT,
        "checkpointing cost {overhead_pct:.2}% of campaign wall time — over the \
         {OVERHEAD_LIMIT_PCT}% durability budget (in-memory {plain_s:.3}s vs \
         checkpointed {ckpt_s:.3}s)"
    );
    assert!(
        resume_s < plain_s,
        "resuming a finished campaign ({resume_s:.3}s) must beat re-running it \
         ({plain_s:.3}s) — checkpoint verification is not earning its keep"
    );
}
