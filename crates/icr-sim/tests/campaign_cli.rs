//! CLI contract tests for `icr-campaign`: every class of invalid
//! invocation exits with code 2 and prints a diagnostic plus the usage
//! text to stderr; valid invocations exit 0. Runtime failures (covered
//! at the end) exit 1, keeping the three codes distinguishable for
//! scripts driving the binary.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_icr-campaign");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn icr-campaign")
}

/// Asserts the invocation is rejected as invalid: exit code 2, the
/// expected diagnostic fragment, and the usage text.
fn assert_usage_error(args: &[&str], diagnostic_fragment: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "args {args:?}: expected exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(diagnostic_fragment),
        "args {args:?}: diagnostic {diagnostic_fragment:?} missing from stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("usage: icr-campaign"),
        "args {args:?}: usage text missing from stderr:\n{stderr}"
    );
}

#[test]
fn help_prints_usage_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = run(&[flag]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("usage: icr-campaign") && out.stderr.is_empty(),
            "{flag}: expected usage on stdout and exit 0, got {out:?}"
        );
    }
}

#[test]
fn unknown_option_exits_2() {
    assert_usage_error(&["--frobnicate"], "unknown option \"--frobnicate\"");
}

#[test]
fn unknown_scheme_exits_2() {
    assert_usage_error(&["--schemes", "basep,tmr"], "unknown scheme \"tmr\"");
}

#[test]
fn unknown_model_exits_2() {
    assert_usage_error(&["--model", "burst"], "unknown model \"burst\"");
}

#[test]
fn unknown_app_exits_2() {
    assert_usage_error(&["--apps", "gzip,doom"], "unknown app \"doom\"");
}

#[test]
fn unknown_isa_app_exits_2() {
    // `isa:` kernels validate through the same store lookup as the
    // synthetic apps; a bad kernel name is an invocation error.
    assert_usage_error(&["--apps", "isa:doom"], "unknown app \"isa:doom\"");
}

#[test]
fn worker_without_checkpoint_exits_2() {
    assert_usage_error(&["--worker", "0/2"], "--worker requires --checkpoint DIR");
}

#[test]
fn malformed_worker_exits_2() {
    assert_usage_error(
        &["--checkpoint", "/tmp/x", "--worker", "2"],
        "--worker expects I/N",
    );
}

#[test]
fn worker_index_out_of_range_exits_2() {
    assert_usage_error(
        &["--checkpoint", "/tmp/x", "--worker", "3/2"],
        "--worker index 3 is out of range",
    );
}

#[test]
fn worker_with_ci_width_exits_2() {
    assert_usage_error(
        &[
            "--checkpoint",
            "/tmp/x",
            "--worker",
            "0/2",
            "--ci-width",
            "0.1",
        ],
        "--worker is incompatible with --ci-width",
    );
}

#[test]
fn merge_without_directories_exits_2() {
    assert_usage_error(&["merge"], "merge needs at least one checkpoint directory");
}

#[test]
fn merge_with_checkpoint_flags_exits_2() {
    assert_usage_error(
        &["merge", "--checkpoint", "/tmp/x", "/tmp/d"],
        "--checkpoint, --resume and --worker do not apply",
    );
}

#[test]
fn non_numeric_trials_exits_2() {
    assert_usage_error(&["--trials", "abc"], "--trials expects a positive integer");
}

#[test]
fn zero_trials_exits_2() {
    assert_usage_error(&["--trials", "0"], "--trials must be at least 1");
}

#[test]
fn zero_batch_exits_2() {
    assert_usage_error(&["--batch", "0"], "--batch must be at least 1");
}

#[test]
fn zero_insts_exits_2() {
    assert_usage_error(&["--insts", "0"], "--insts must be at least 1");
}

#[test]
fn missing_value_exits_2() {
    assert_usage_error(&["--seed"], "--seed requires a value");
}

#[test]
fn non_numeric_fault_exits_2() {
    assert_usage_error(&["--fault", "lots"], "--fault expects a probability");
}

#[test]
fn out_of_range_fault_exits_2() {
    assert_usage_error(
        &["--fault", "1.5"],
        "--fault must be a probability in [0, 1]",
    );
    assert_usage_error(
        &["--fault", "NaN"],
        "--fault must be a probability in [0, 1]",
    );
}

#[test]
fn out_of_range_ci_width_exits_2() {
    assert_usage_error(&["--ci-width", "0"], "--ci-width must be in (0, 1]");
}

#[test]
fn zero_shard_size_exits_2() {
    assert_usage_error(
        &["--checkpoint", "/tmp/x", "--shard-size", "0"],
        "--shard-size must be at least 1",
    );
}

#[test]
fn resume_without_checkpoint_exits_2() {
    assert_usage_error(&["--resume"], "--resume requires --checkpoint DIR");
}

#[test]
fn shard_size_without_checkpoint_exits_2() {
    assert_usage_error(
        &["--shard-size", "5"],
        "--shard-size requires --checkpoint DIR",
    );
}

#[test]
fn empty_scheme_list_exits_2() {
    assert_usage_error(&["--schemes", " "], "unknown scheme");
}

#[test]
fn populated_checkpoint_dir_without_resume_exits_2() {
    let dir = std::env::temp_dir().join(format!("icr_cli_populated_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let common = [
        "--schemes",
        "basep",
        "--apps",
        "gzip",
        "--trials",
        "4",
        "--insts",
        "500",
        "--shard-size",
        "2",
        "--quiet",
        "--json",
        "-",
        "--checkpoint",
    ];
    let dir_s = dir.to_str().unwrap();

    let first = run(&[&common[..], &[dir_s]].concat());
    assert!(first.status.success(), "seeding run failed: {first:?}");

    let second = run(&[&common[..], &[dir_s]].concat());
    assert_eq!(
        second.status.code(),
        Some(2),
        "re-running over a populated directory without --resume must be \
         rejected as an invocation error\nstderr: {}",
        String::from_utf8_lossy(&second.stderr)
    );
    assert!(String::from_utf8_lossy(&second.stderr).contains("--resume"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn valid_tiny_run_exits_0_with_report_on_stdout() {
    let out = run(&[
        "--schemes",
        "basep",
        "--apps",
        "gzip",
        "--trials",
        "4",
        "--insts",
        "500",
        "--quiet",
    ]);
    assert!(out.status.success(), "valid run failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"campaign\"") && stdout.contains("\"cells\""),
        "JSON report missing from stdout:\n{stdout}"
    );
}

#[test]
fn importance_run_reports_weighted_estimates() {
    let out = run(&[
        "--schemes",
        "icr-p-ps-s",
        "--apps",
        "gzip",
        "--trials",
        "6",
        "--insts",
        "500",
        "--importance",
        "--quiet",
        "--json",
        "-",
    ]);
    assert!(out.status.success(), "importance run failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"importance\": true") && stdout.contains("\"wilson95_weighted\""),
        "weighted estimates missing from JSON:\n{stdout}"
    );
}

#[test]
fn two_worker_fanout_cli_merges_to_single_process_bytes() {
    // The full service path through the binary: two workers write
    // disjoint shard slices, `merge` replays them, and the merged JSON
    // on stdout is byte-identical to a single-process checkpointed run.
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let d0 = tmp.join(format!("icr_cli_fanout0_{pid}"));
    let d1 = tmp.join(format!("icr_cli_fanout1_{pid}"));
    let dsolo = tmp.join(format!("icr_cli_fanout_solo_{pid}"));
    for d in [&d0, &d1, &dsolo] {
        std::fs::remove_dir_all(d).ok();
    }

    let spec = [
        "--schemes",
        "basep,icr-p-ps-s",
        "--apps",
        "gzip",
        "--trials",
        "6",
        "--insts",
        "500",
        "--shard-size",
        "2",
        "--importance",
        "--quiet",
        "--json",
        "-",
    ];

    let solo = run(&[&spec[..], &["--checkpoint", dsolo.to_str().unwrap()]].concat());
    assert!(solo.status.success(), "single-process run failed: {solo:?}");

    for (i, d) in [(0u64, &d0), (1u64, &d1)] {
        let slice = format!("{i}/2");
        let out = run(&[
            &spec[..],
            &["--checkpoint", d.to_str().unwrap(), "--worker", &slice],
        ]
        .concat());
        assert!(out.status.success(), "worker {i} failed: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("\"complete\": false"),
            "a worker slice must never claim completeness:\n{stdout}"
        );
        assert!(stdout.contains(&format!("\"worker\": [{i}, 2]")));
    }

    let merged = run(&[
        &["merge"][..],
        &spec[..],
        &[d0.to_str().unwrap(), d1.to_str().unwrap()],
    ]
    .concat());
    assert!(
        merged.status.success(),
        "merge failed: {}",
        String::from_utf8_lossy(&merged.stderr)
    );
    assert_eq!(
        merged.stdout, solo.stdout,
        "merged JSON differs from the single-process run"
    );

    // A merge over half the shard space is a runtime failure (exit 1).
    let partial = run(&[&["merge"][..], &spec[..], &[d0.to_str().unwrap()]].concat());
    assert_eq!(
        partial.status.code(),
        Some(1),
        "incomplete merge must exit 1\nstderr: {}",
        String::from_utf8_lossy(&partial.stderr)
    );
    assert!(String::from_utf8_lossy(&partial.stderr).contains("no checkpoint covers shard"));

    for d in [&d0, &d1, &dsolo] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn unwritable_json_destination_exits_1() {
    let out = run(&[
        "--schemes",
        "basep",
        "--apps",
        "gzip",
        "--trials",
        "2",
        "--insts",
        "500",
        "--quiet",
        "--json",
        "/nonexistent-dir/out.json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "runtime failures must exit 1, not {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}
