//! One workload run of the repository benchmark, in a process of its own.
//!
//! ```text
//! perfbench <figures|campaign|long_run> --seed N --trace 0|1
//! ```
//!
//! Prints the run's measurements as one JSON object on the last line of
//! standard output. `run.py` starts several of these processes per
//! benchmark run and reports their medians. With `--trace 1` the run also
//! records spans around each call into a layer, writes them to
//! `.bench_out/spans-<workload>-<seed>.jsonl` and adds the per-layer
//! metrics.

mod checks;
mod layers;
mod spans;
mod workloads;

use icr_sim::json::esc;
use std::process::ExitCode;

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || {
        eprintln!("usage: perfbench <figures|campaign|long_run> --seed N --trace 0|1");
        ExitCode::from(2)
    };
    let [workload, seed_flag, seed, trace_flag, trace] = args.as_slice() else {
        return usage();
    };
    let (Ok(seed), Ok(trace @ (0 | 1))) = (seed.parse::<u64>(), trace.parse::<u8>()) else {
        return usage();
    };
    if seed_flag != "--seed" || trace_flag != "--trace" {
        return usage();
    }

    let tracer = spans::Tracer::new(trace == 1);
    let Some(rec) = workloads::run(workload, seed, &tracer) else {
        return usage();
    };
    let rss = match peak_rss_mb() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if trace == 1 {
        let written = std::fs::create_dir_all(".bench_out").and_then(|()| {
            let path = format!(".bench_out/spans-{workload}-{seed}.jsonl");
            let file = std::fs::File::create(path)?;
            spans::write_jsonl(&tracer.spans(), std::io::BufWriter::new(file))
        });
        if let Err(e) = written {
            eprintln!("perfbench: writing spans: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut metrics = vec![
        ("setup_s", rec.setup_s),
        ("wall_s", rec.wall_s),
        ("ns_per_inst", rec.ns_per_inst),
        ("trials_per_s", rec.trials_per_s),
        ("peak_rss_mb", rss),
    ];
    metrics.extend(rec.layers.iter().copied());
    if let Some((name, _)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not finite");
        return ExitCode::FAILURE;
    }
    for e in &rec.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("{}:{v}", esc(k)))
        .collect();
    println!(
        "{{\"workload\":{},\"seed\":{seed},\"traced\":{},\"attempted\":{},\"failed\":{},\"digest\":\"{:#018x}\",\"metrics\":{{{}}}}}",
        esc(workload),
        trace == 1,
        rec.attempted,
        rec.failed,
        rec.digest,
        fields.join(",")
    );
    ExitCode::SUCCESS
}
