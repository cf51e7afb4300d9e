#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer metrics of the ICR simulator.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Builds the `perfbench` package (the benchmark's own Rust crate, which calls
the simulator's public APIs), then starts one `perfbench` process per
workload run, again and again until `--seconds` have passed, and reports
the median of every metric over those processes. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
traced and untraced processes alternate, and the metrics are the
per-layer ones plus the tracing overhead. See perfbench/README.md.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("figures", "campaign", "long_run")
END_TO_END = {
    "wall_s": "s",
    "trials_per_s": "1/s",
    "ns_per_inst": "ns",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "trace.gen_ns_per_inst": "ns",
    "trace.resident_mb": "MB",
    "trace.store_hit_ratio": "ratio",
    "core.ns_per_inst": "ns",
    "core.share": "ratio",
    "dl1.ns_per_access": "ns",
    "dl1.accesses_per_inst": "ratio",
    "dl1.replication_ability": "ratio",
    "fault.advance_ns_per_trial": "ns",
    "fault.delivered_ratio": "ratio",
    "sim.construct_ms": "ms",
    "sim.glue_ns_per_inst": "ns",
    "engine.hit_ratio": "ratio",
    "engine.cached_runs": "count",
    "pool.busy_frac": "ratio",
    "pool.critical_job_s": "s",
    "campaign.trial_ms_p50": "ms",
    "campaign.trial_ms_p99": "ms",
    "tracing.overhead_frac": "ratio",
}
# A process that has not finished by then has hung.
CHILD_TIMEOUT_S = 150


def build():
    """Builds the benchmark crate; returns the binary's path, or None."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # Cargo keeps lock and cache files in CARGO_HOME; the crate has only
    # path dependencies, so a private one under the target directory keeps
    # every write inside the checkout.
    env = dict(os.environ, CARGO_TARGET_DIR=target,
               CARGO_HOME=os.path.join(target, "cargo-home"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def run_child(binary, workload, seed, traced):
    """One workload run in its own process; its record, or None if it failed."""
    cmd = [binary, workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: {workload} exited with {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def aggregate(records, names):
    """Median over the records of every metric in `names`."""
    return {name: statistics.median(r["metrics"][name] for r in records) for name in names}


def measure(binary, workload, seed, seconds, traced):
    """Runs processes until `seconds` have passed; returns the result object."""
    untraced, traced_recs = [], []
    attempted = failed = 0
    start = time.monotonic()
    for i in itertools.count():
        # In a traced benchmark run, untraced and traced processes
        # alternate, so the tracing overhead is measured under the same
        # conditions as the per-layer metrics.
        want_trace = traced and i % 2 == 1
        rec = run_child(binary, workload, seed, want_trace)
        if rec is None:
            attempted += 1
            failed += 1
        else:
            attempted += rec["attempted"]
            failed += rec["failed"]
            (traced_recs if want_trace else untraced).append(rec)
        if time.monotonic() - start >= seconds and (want_trace or not traced):
            break
    if not untraced or (traced and not traced_recs):
        return None
    if traced:
        metrics = aggregate(traced_recs, [n for n in PER_LAYER if n != "tracing.overhead_frac"])
        wall = statistics.median(r["metrics"]["wall_s"] for r in untraced)
        metrics["tracing.overhead_frac"] = aggregate(traced_recs, ["wall_s"])["wall_s"] / wall - 1
        units = PER_LAYER
    else:
        metrics = aggregate(untraced, END_TO_END)
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    binary = build()
    if binary is None:
        return 1
    result = measure(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    if result is None:
        print("perfbench: no workload run completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
