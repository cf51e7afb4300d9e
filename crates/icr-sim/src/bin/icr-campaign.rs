//! `icr-campaign` — deterministic parallel Monte-Carlo fault-injection
//! campaign over a (scheme × app) matrix, with optional sharded
//! checkpointing so a killed run resumes to byte-identical output.
//!
//! ```text
//! icr-campaign [options]
//! icr-campaign merge [options] DIR...
//!
//! options:
//!   --schemes a,b,c   comma-separated schemes       (default basep,baseecc,icr-p-ps-s,icr-ecc-ps-s)
//!   --apps a,b,c      comma-separated workloads     (default gzip,gcc,mcf)
//!   --trials N        trials per (scheme × app) cell (default 100)
//!   --batch N         early-stop check granularity  (default 50)
//!   --seed S          master seed                   (default 42)
//!   --insts N         instructions per trial        (default 20000)
//!   --model M         direct|adjacent|column|random (default random)
//!   --fault P         per-cycle fault probability   (default auto: 8/insts)
//!   --ci-width W      stop a cell once its Wilson 95% interval is narrower
//!   --threads N       worker threads                (default all cores)
//!   --no-oracle       disable the silent-corruption oracle shadow
//!   --importance      importance-sample the injection sites: tilt strikes
//!                     toward dirty-parity lines (per-cell proposal from a
//!                     fault-free exposure profile) and report weighted,
//!                     unbiased estimates next to the raw counts
//!   --checkpoint DIR  run sharded: persist one digest-verified checkpoint
//!                     per completed shard into DIR (see --shard-size)
//!   --resume          skip shards DIR already holds verified checkpoints
//!                     for; corrupt files are quarantined and re-run
//!   --shard-size N    trials per shard per cell     (default: --batch)
//!   --worker I/N      run only shards s with s % N == I — worker I of an
//!                     N-way fan-out (requires --checkpoint; workers may
//!                     share a directory or each use their own)
//!   --json PATH       write the JSON report to PATH, '-' = stdout
//!                     (default stdout — same convention as icr-run/icr-exp)
//!   --quiet           suppress progress output
//! ```
//!
//! `icr-campaign merge` takes the same spec options plus one or more
//! checkpoint directories and replays the union of their verified
//! shard checkpoints — strictly restore-only, executing no trial —
//! into the report a single-process run of the spec would have
//! written, byte for byte. Missing shards, spec-fingerprint
//! mismatches and conflicting duplicates are runtime errors; merge
//! never modifies the input directories.
//!
//! The JSON report is a pure function of the options: no timestamps, no
//! host data, bit-identical across runs, thread counts, and — in
//! checkpoint mode — across any sequence of kills and resumes. Progress
//! and timing go to stderr only; in checkpoint mode that means one
//! streaming line per completed shard instead of silence until the
//! final blob.
//!
//! SIGINT in checkpoint mode triggers a graceful drain: the in-flight
//! shard finishes, its checkpoint is flushed, and the report is written
//! with `"complete": false` so partial results are explicit. Invalid
//! command-line input exits with code 2 and a diagnostic; runtime
//! failures (e.g. an unwritable checkpoint directory) exit with 1.
//! `--help` or `-h` prints the usage and exits 0.

use icr_core::Scheme;
use icr_fault::ErrorModel;
use icr_sim::json::write_output;
use icr_sim::{
    merge_sharded_campaign, run_campaign_observed, run_sharded_campaign_observed, CampaignSpec,
    ShardEvent, ShardedCampaignSpec,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

fn parse_model(name: &str) -> Option<ErrorModel> {
    Some(match name {
        "direct" => ErrorModel::Direct,
        "adjacent" => ErrorModel::Adjacent,
        "column" => ErrorModel::Column,
        "random" => ErrorModel::Random,
        _ => return None,
    })
}

/// The usage text, printed by `--help`/`-h` and after every
/// invalid-invocation diagnostic.
const USAGE: &str = "usage: icr-campaign [--schemes a,b,c] [--apps a,b,c] [--trials N]\n\
         \x20                   [--batch N] [--seed S] [--insts N] [--model M]\n\
         \x20                   [--fault P] [--ci-width W] [--threads N]\n\
         \x20                   [--no-oracle] [--importance] [--checkpoint DIR]\n\
         \x20                   [--resume] [--shard-size N] [--worker I/N]\n\
         \x20                   [--json PATH] [--quiet]\n\
         \x20      icr-campaign merge [spec options] DIR...\n\
         schemes: basep baseecc baseecc-spec icr-{p,ecc}-{ps,pp}[-l2]-{s,ls}\n\
         models:  direct adjacent column random\n\
         apps:    gzip vpr gcc mcf parser mesa vortex art (+ bzip2 twolf crafty gap,\n\
         \x20     execution-driven isa:{bubble,qsort,matmul,chase,strsearch,lz,checksum})";

/// Prints a diagnostic plus the usage text and returns the
/// invalid-invocation exit code (2, in the `getopt` tradition —
/// distinct from runtime failures, which exit 1).
fn fail_usage(diagnostic: &str) -> ExitCode {
    eprintln!("error: {diagnostic}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Installs a SIGINT handler that only sets a flag (the async-signal-safe
/// minimum); the shard loop polls it between shards and drains. On
/// non-Unix targets the flag simply never fires.
fn install_sigint_flag() -> &'static AtomicBool {
    static STOP: AtomicBool = AtomicBool::new(false);
    #[cfg(unix)]
    {
        extern "C" fn on_sigint(_signum: i32) {
            STOP.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        // SAFETY: `on_sigint` is async-signal-safe (a single relaxed-free
        // atomic store) and stays alive for the process lifetime.
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
    &STOP
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    // `icr-campaign merge [spec options] DIR...` — same spec vocabulary,
    // positional checkpoint directories, restore-only.
    let merge_mode = args.first().is_some_and(|a| a == "merge");
    if merge_mode {
        args.remove(0);
    }

    let mut spec = CampaignSpec::new(
        vec![
            Scheme::BASE_P,
            Scheme::BASE_ECC,
            Scheme::ICR_P_PS_S,
            Scheme::ICR_ECC_PS_S,
        ],
        vec!["gzip".into(), "gcc".into(), "mcf".into()],
        100,
        42,
    );
    let mut json_path: Option<String> = None;
    let mut quiet = false;
    let mut checkpoint_dir: Option<String> = None;
    let mut resume = false;
    let mut shard_size: Option<u64> = None;
    let mut worker: Option<(u64, u64)> = None;
    let mut merge_dirs: Vec<PathBuf> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        macro_rules! take_value {
            ($flag:expr) => {
                match take(&mut i) {
                    Some(v) => v,
                    None => return fail_usage(&format!("{} requires a value", $flag)),
                }
            };
        }
        macro_rules! take_parsed {
            ($flag:expr, $what:expr) => {{
                let v = take_value!($flag);
                match v.parse() {
                    Ok(n) => n,
                    Err(_) => {
                        return fail_usage(&format!("{} expects {}, got {v:?}", $flag, $what))
                    }
                }
            }};
        }
        match args[i].as_str() {
            "--schemes" => {
                let v = take_value!("--schemes");
                let mut schemes = Vec::new();
                for name in v.split(',') {
                    match name.parse::<Scheme>() {
                        Ok(s) => schemes.push(s),
                        Err(e) => return fail_usage(&e.to_string()),
                    }
                }
                spec.schemes = schemes;
            }
            "--apps" => {
                let v = take_value!("--apps");
                spec.apps = v.split(',').map(|a| a.trim().to_string()).collect();
            }
            "--trials" => spec.trials_per_cell = take_parsed!("--trials", "a positive integer"),
            "--batch" => spec.batch = take_parsed!("--batch", "a positive integer"),
            "--seed" => spec.master_seed = take_parsed!("--seed", "an unsigned integer"),
            "--insts" => spec.instructions = take_parsed!("--insts", "a positive integer"),
            "--model" => {
                let v = take_value!("--model");
                let Some(m) = parse_model(&v) else {
                    return fail_usage(&format!("unknown model {v:?}"));
                };
                spec.model = m;
            }
            "--fault" => spec.p_per_cycle = take_parsed!("--fault", "a probability"),
            "--ci-width" => {
                spec.target_ci_width = Some(take_parsed!("--ci-width", "a width in (0, 1]"))
            }
            "--threads" => spec.threads = take_parsed!("--threads", "an unsigned integer"),
            "--no-oracle" => spec.oracle = false,
            "--importance" => spec.importance = true,
            "--checkpoint" => checkpoint_dir = Some(take_value!("--checkpoint")),
            "--resume" => resume = true,
            "--shard-size" => shard_size = Some(take_parsed!("--shard-size", "a positive integer")),
            "--worker" => {
                let v = take_value!("--worker");
                let parsed = v.split_once('/').and_then(|(idx, total)| {
                    Some((idx.parse::<u64>().ok()?, total.parse::<u64>().ok()?))
                });
                let Some((idx, total)) = parsed else {
                    return fail_usage(&format!("--worker expects I/N (e.g. 0/4), got {v:?}"));
                };
                worker = Some((idx, total));
            }
            "--json" => json_path = Some(take_value!("--json")),
            "--quiet" => quiet = true,
            other if merge_mode && !other.starts_with('-') => {
                merge_dirs.push(PathBuf::from(other));
            }
            other => return fail_usage(&format!("unknown option {other:?}")),
        }
        i += 1;
    }

    if spec.schemes.is_empty() {
        return fail_usage("--schemes must name at least one scheme");
    }
    if spec.apps.is_empty() {
        return fail_usage("--apps must name at least one workload");
    }
    if spec.trials_per_cell == 0 {
        return fail_usage("--trials must be at least 1");
    }
    if spec.batch == 0 {
        return fail_usage("--batch must be at least 1");
    }
    if spec.instructions == 0 {
        return fail_usage("--insts must be at least 1");
    }
    if !(0.0..=1.0).contains(&spec.p_per_cycle) || !spec.p_per_cycle.is_finite() {
        return fail_usage("--fault must be a probability in [0, 1]");
    }
    if spec.target_ci_width.is_some_and(|w| !(w > 0.0 && w <= 1.0)) {
        return fail_usage("--ci-width must be in (0, 1]");
    }
    if shard_size == Some(0) {
        return fail_usage("--shard-size must be at least 1");
    }
    if resume && checkpoint_dir.is_none() {
        return fail_usage("--resume requires --checkpoint DIR");
    }
    // Merge has no checkpoint directory of its own but must agree with
    // the workers on the shard partition, so it accepts --shard-size.
    if shard_size.is_some() && checkpoint_dir.is_none() && !merge_mode {
        return fail_usage("--shard-size requires --checkpoint DIR");
    }
    if let Some((idx, total)) = worker {
        if checkpoint_dir.is_none() {
            return fail_usage("--worker requires --checkpoint DIR");
        }
        if total == 0 {
            return fail_usage("--worker I/N needs at least one worker (N >= 1)");
        }
        if idx >= total {
            return fail_usage(&format!(
                "--worker index {idx} is out of range for {total} worker(s)"
            ));
        }
        if spec.target_ci_width.is_some() {
            return fail_usage(
                "--worker is incompatible with --ci-width: early stopping needs \
                 the full cumulative shard order, which a worker slice cannot see",
            );
        }
    }
    if merge_mode {
        if checkpoint_dir.is_some() || resume || worker.is_some() {
            return fail_usage(
                "merge takes checkpoint directories as positional arguments; \
                               --checkpoint, --resume and --worker do not apply",
            );
        }
        if merge_dirs.is_empty() {
            return fail_usage("merge needs at least one checkpoint directory");
        }
    }
    // Resolve workloads through the store — the same authority the
    // simulator uses — so a bad name fails here with exit 2 instead of
    // aborting mid-campaign, and execution-driven `isa:*` kernels are
    // accepted once their source is installed.
    icr_isa::install();
    for app in &spec.apps {
        if !icr_trace::store::global().resolvable(app) {
            return fail_usage(&format!("unknown app {app:?}"));
        }
    }

    let total_trials_max =
        spec.trials_per_cell * spec.schemes.len() as u64 * spec.apps.len() as u64;
    if !quiet {
        eprintln!(
            "campaign: {} schemes × {} apps × {} trials (≤ {} total), model {}, seed {}, p/cycle {:.2e}",
            spec.schemes.len(),
            spec.apps.len(),
            spec.trials_per_cell,
            total_trials_max,
            spec.model.name(),
            spec.master_seed,
            spec.effective_p(),
        );
    }

    if merge_mode {
        return run_merge(spec, shard_size, &merge_dirs, json_path, quiet);
    }
    match checkpoint_dir {
        Some(dir) => run_checkpointed(spec, &dir, resume, shard_size, worker, json_path, quiet),
        None => run_plain(spec, json_path, quiet),
    }
}

/// `icr-campaign merge` — replay worker checkpoint directories into the
/// single-process report, restore-only.
fn run_merge(
    spec: CampaignSpec,
    shard_size: Option<u64>,
    dirs: &[PathBuf],
    json_path: Option<String>,
    quiet: bool,
) -> ExitCode {
    let shard_size = shard_size.unwrap_or(spec.batch);
    let sspec = ShardedCampaignSpec::new(spec, shard_size);
    if !quiet {
        eprintln!(
            "merging {} checkpoint directories: {} shards of {} trials/cell (spec fingerprint {:#018x})",
            dirs.len(),
            sspec.shards_total(),
            sspec.shard_size,
            sspec.fingerprint(),
        );
    }
    let report = match merge_sharded_campaign(&sspec, dirs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !quiet {
        let executed: u64 = report.report.cells.iter().map(|c| c.trials).sum();
        eprintln!(
            "merged: {executed} trials restored from {} of {} shards\n",
            report.shards_done, report.shards_total,
        );
        eprint!("{}", report.report.summary_table());
    }
    write_report(&report.to_json(), json_path.as_deref(), quiet)
}

/// The sharded, checkpointed service mode behind `--checkpoint`.
fn run_checkpointed(
    spec: CampaignSpec,
    dir: &str,
    resume: bool,
    shard_size: Option<u64>,
    worker: Option<(u64, u64)>,
    json_path: Option<String>,
    quiet: bool,
) -> ExitCode {
    let shard_size = shard_size.unwrap_or(spec.batch);
    let mut sspec = ShardedCampaignSpec::new(spec, shard_size);
    if let Some((idx, total)) = worker {
        sspec = sspec.with_worker(idx, total);
    }
    let stop = install_sigint_flag();
    if !quiet {
        let worker_note = match worker {
            Some((idx, total)) => format!(", worker {idx}/{total}"),
            None => String::new(),
        };
        eprintln!(
            "checkpointing to {dir}: {} shards of {} trials/cell{}{worker_note} (spec fingerprint {:#018x})",
            sspec.shards_total(),
            sspec.shard_size,
            if resume { ", resuming" } else { "" },
            sspec.fingerprint(),
        );
    }

    let started = Instant::now();
    let result = run_sharded_campaign_observed(&sspec, Some(Path::new(dir)), resume, stop, |e| {
        match e {
            // Quarantine diagnostics always print: silently re-running a
            // corrupt checkpoint's shard would hide data damage.
            ShardEvent::Quarantined {
                shard,
                quarantined_to,
                reason,
            } => eprintln!(
                "  shard {shard}: checkpoint failed verification ({reason}); \
                 quarantined to {}; shard will re-run",
                quarantined_to.display()
            ),
            ShardEvent::ShardDone(p) => {
                if !quiet {
                    let secs = started.elapsed().as_secs_f64();
                    eprintln!(
                        "  shard {:>4}/{:<4} {} {:>8} trials total, {:>3} cells active  ({:.0} trials/s)",
                        p.shard + 1,
                        p.shards_total,
                        if p.resumed { "resumed " } else { "ran     " },
                        p.trials_done,
                        p.cells_active,
                        p.trials_done as f64 / secs.max(1e-9),
                    );
                }
            }
        }
    });

    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            // A populated directory without --resume is an invocation
            // error; anything else is a runtime failure.
            return if e.to_string().contains("--resume") {
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            };
        }
    };

    let secs = started.elapsed().as_secs_f64();
    // A worker's slice is done when every shard it owns is accounted
    // for; its report still carries `complete: false` because the other
    // workers' shards are not in it.
    let owned_shards = (0..sspec.shards_total())
        .filter(|&s| sspec.owns_shard(s))
        .count() as u64;
    let slice_done = report.complete || (worker.is_some() && report.shards_done == owned_shards);
    if !quiet {
        let executed: u64 = report.report.cells.iter().map(|c| c.trials).sum();
        eprintln!(
            "{}: {executed} trials accounted ({} of {} shards, {} resumed{}) in {secs:.2}s\n",
            if slice_done { "done" } else { "interrupted" },
            report.shards_done,
            report.shards_total,
            report.shards_resumed,
            if report.quarantined > 0 {
                format!(", {} quarantined", report.quarantined)
            } else {
                String::new()
            },
        );
        eprint!("{}", report.report.summary_table());
    }
    if !report.complete {
        if slice_done {
            eprintln!(
                "worker slice finished: checkpoints are flushed; \
                 run `icr-campaign merge` over every worker's directory \
                 to assemble the full report \
                 (a worker's own JSON carries \"complete\": false)"
            );
        } else {
            eprintln!(
                "campaign drained after SIGINT: checkpoints are flushed; \
                 re-run with --checkpoint {dir} --resume to finish \
                 (JSON carries \"complete\": false)"
            );
        }
    }

    write_report(&report.to_json(), json_path.as_deref(), quiet)
}

/// The original single-process batch mode (no `--checkpoint`).
fn run_plain(spec: CampaignSpec, json_path: Option<String>, quiet: bool) -> ExitCode {
    let started = Instant::now();
    let mut per_cell: std::collections::HashMap<(String, String), u64> = Default::default();
    let result = run_campaign_observed(&spec, |p| {
        per_cell.insert((p.scheme.to_string(), p.app.to_string()), p.trials_done);
        if quiet {
            return;
        }
        let trials_done: u64 = per_cell.values().sum();
        let secs = started.elapsed().as_secs_f64();
        eprintln!(
            "  {:<16} {:<8} {:>5}/{:<5} survived {:.4} [{:.4}, {:.4}]{}  ({:.0} trials/s)",
            p.scheme,
            p.app,
            p.trials_done,
            p.trials_target,
            p.survived,
            p.ci95.0,
            p.ci95.1,
            if p.done {
                if p.stopped_early {
                    "  ✓ early"
                } else {
                    "  ✓"
                }
            } else {
                ""
            },
            if secs > 0.0 {
                trials_done as f64 / secs
            } else {
                0.0
            },
        );
    });
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let executed: u64 = report.cells.iter().map(|c| c.trials).sum();
    let secs = started.elapsed().as_secs_f64();
    if !quiet {
        eprintln!(
            "done: {executed} trials in {secs:.2}s ({:.0} trials/s)\n",
            executed as f64 / secs.max(1e-9)
        );
        eprint!("{}", report.summary_table());
    }
    write_report(&report.to_json(), json_path.as_deref(), quiet)
}

/// Writes the final JSON through the shared hardened writer.
fn write_report(json: &str, json_path: Option<&str>, quiet: bool) -> ExitCode {
    // `to_json` already ends with a newline; trim it so the shared writer
    // appends exactly one, keeping report bytes identical to earlier
    // releases for both file and stdout destinations.
    let path = json_path.unwrap_or("-");
    if let Err(e) = write_output(json.trim_end_matches('\n'), path) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    if !quiet && path != "-" {
        eprintln!("\nJSON report written to {path}");
    }
    ExitCode::SUCCESS
}
