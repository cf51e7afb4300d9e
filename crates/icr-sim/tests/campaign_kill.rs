//! Kill-test harness for the sharded, checkpointed campaign service:
//! spawn the real `icr-campaign` binary, SIGKILL it mid-run at
//! randomized points, resume, and require the final JSON to be
//! byte-identical to an uninterrupted run. Also proves the corruption
//! quarantine and the SIGINT graceful drain through the CLI.
//!
//! Kills are timed by observed progress, not by the clock: a run is
//! killed once it has written a randomized number of new shard
//! checkpoints, so the kill lands mid-run however fast trials are. The
//! randomized counts derive from the wall clock and are printed on
//! every run, so a failing schedule is reproducible from the test log;
//! determinism of the *results* is exactly what the harness is proving,
//! so varying the schedule between runs is a feature — every CI run
//! probes a different crash point.

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, SystemTime};

const BIN: &str = env!("CARGO_BIN_EXE_icr-campaign");

/// The campaign every test in this file runs: 40 shards, so a kill
/// after a few checkpoints lands mid-run, small enough to finish in
/// seconds.
fn campaign_args(dir: &Path, json: &Path, extra: &[&str]) -> Vec<String> {
    let mut args: Vec<String> = [
        "--schemes",
        "basep,icr-p-ps-s",
        "--apps",
        "gzip",
        "--trials",
        "200",
        "--insts",
        "2000",
        "--shard-size",
        "5",
        "--quiet",
        "--checkpoint",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.push(dir.to_str().unwrap().into());
    args.push("--json".into());
    args.push(json.to_str().unwrap().into());
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("icr_killtest_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A cheap wall-clock-seeded SplitMix64 for kill offsets.
fn entropy() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x9e3779b97f4a7c15)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Shard checkpoints completed in `dir` so far.
fn checkpoints(dir: &Path) -> usize {
    icr_sim::checkpoint::scan_dir(dir).map_or(0, |found| found.len())
}

/// Waits until `dir` holds at least `count` shard checkpoints. Returns
/// `false` instead if `child` exits first.
fn wait_for_checkpoints(child: &mut Child, dir: &Path, count: usize) -> bool {
    loop {
        if child.try_wait().expect("poll child").is_some() {
            return false;
        }
        if checkpoints(dir) >= count {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn run_to_completion(dir: &Path, json: &Path, resume: bool) {
    let extra: &[&str] = if resume { &["--resume"] } else { &[] };
    let status = Command::new(BIN)
        .args(campaign_args(dir, json, extra))
        .status()
        .expect("spawn icr-campaign");
    assert!(status.success(), "campaign failed: {status}");
}

#[test]
fn sigkill_at_randomized_points_then_resume_is_byte_identical() {
    let straight_dir = scratch("straight");
    let straight_json = straight_dir.join("out.json");
    run_to_completion(&straight_dir, &straight_json, false);
    let expected = std::fs::read(&straight_json).unwrap();
    assert!(
        String::from_utf8_lossy(&expected).contains("\"complete\": true"),
        "straight-through run must be complete"
    );

    let kill_dir = scratch("killed");
    let kill_json = kill_dir.join("out.json");
    let mut rng = entropy();
    let mut kills = 0;
    // Kill/resume cycles, each killed after 1–3 new checkpoints, until
    // one run survives to completion (each resume restarts further
    // along, so this terminates).
    for cycle in 0.. {
        let target = checkpoints(&kill_dir) + 1 + (splitmix(&mut rng) % 3) as usize;
        let mut child = Command::new(BIN)
            .args(campaign_args(&kill_dir, &kill_json, &["--resume"]))
            .spawn()
            .expect("spawn icr-campaign");
        let running = wait_for_checkpoints(&mut child, &kill_dir, target);
        if running {
            child.kill().expect("SIGKILL");
        }
        let status = child.wait().expect("reap");
        if status.success() {
            // Outran the killer: the campaign finished on its own.
            println!("cycle {cycle}: completed before checkpoint {target}");
            break;
        }
        assert!(running, "campaign failed: {status}");
        kills += 1;
        println!("cycle {cycle}: SIGKILLed at checkpoint {target}");
        assert!(cycle < 200, "campaign never completed across 200 cycles");
    }
    assert!(kills >= 1, "no SIGKILL landed mid-run");
    println!("survived {kills} SIGKILLs");

    let resumed = std::fs::read(&kill_json).unwrap();
    assert_eq!(
        resumed, expected,
        "killed-and-resumed output differs from the uninterrupted run"
    );

    std::fs::remove_dir_all(&straight_dir).ok();
    std::fs::remove_dir_all(&kill_dir).ok();
}

#[test]
fn corrupted_checkpoint_is_quarantined_and_recovered_from() {
    let dir = scratch("corrupt");
    let json = dir.join("out.json");
    run_to_completion(&dir, &json, false);
    let expected = std::fs::read(&json).unwrap();

    // Damage one checkpoint two ways across two resumes: first a
    // payload mutation (digest mismatch), then a truncation.
    let victim = dir.join("shard-00002.json");
    let original = std::fs::read_to_string(&victim).unwrap();
    std::fs::write(&victim, original.replacen("\"trials\":", "\"trails\":", 1)).unwrap();
    std::fs::remove_file(&json).unwrap();

    let output = Command::new(BIN)
        .args(campaign_args(&dir, &json, &["--resume"]))
        .output()
        .expect("spawn icr-campaign");
    assert!(
        output.status.success(),
        "resume failed: {:?}",
        output.status
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("quarantined"),
        "no quarantine diagnostic in stderr:\n{stderr}"
    );
    assert!(
        dir.join("shard-00002.json.quarantined").exists(),
        "corrupt file must be renamed aside, not deleted"
    );
    assert_eq!(
        std::fs::read(&json).unwrap(),
        expected,
        "recovered output differs"
    );

    // Truncation, second round: quarantine must pick a fresh name.
    std::fs::write(&victim, &original[..original.len() / 3]).unwrap();
    std::fs::remove_file(&json).unwrap();
    run_to_completion(&dir, &json, true);
    assert!(dir.join("shard-00002.json.quarantined.1").exists());
    assert_eq!(std::fs::read(&json).unwrap(), expected);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[cfg(unix)]
fn sigint_drains_gracefully_and_marks_partial_results() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGINT: i32 = 2;

    let dir = scratch("sigint");
    let json = dir.join("out.json");
    // A long campaign (100 shards) so SIGINT, sent once the first
    // checkpoint is on disk, lands well before completion.
    let long_args = |resume: bool| {
        let mut a: Vec<String> = [
            "--schemes",
            "basep,baseecc,icr-p-ps-s,icr-ecc-ps-s",
            "--apps",
            "gzip,gcc",
            "--trials",
            "500",
            "--insts",
            "2000",
            "--shard-size",
            "5",
            "--quiet",
            "--checkpoint",
            dir.to_str().unwrap(),
            "--json",
            json.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>();
        if resume {
            a.push("--resume".into());
        }
        a
    };
    let mut child = Command::new(BIN)
        .args(long_args(false))
        .spawn()
        .expect("spawn icr-campaign");
    assert!(
        wait_for_checkpoints(&mut child, &dir, 1),
        "the campaign finished before its first checkpoint was seen"
    );
    let rc = unsafe { kill(child.id() as i32, SIGINT) };
    assert_eq!(rc, 0, "sending SIGINT failed");
    let status = child.wait().expect("reap");
    assert!(status.success(), "graceful drain must exit 0, got {status}");

    let doc = std::fs::read_to_string(&json).expect("drained run still writes its report");
    assert!(
        doc.contains("\"complete\": false"),
        "partial results must carry the explicit marker:\n{doc}"
    );
    assert!(
        !icr_sim::checkpoint::scan_dir(&dir).unwrap().is_empty(),
        "drain must flush checkpoints"
    );

    // And the drained campaign resumes — same spec, so the flushed
    // checkpoints are trusted (no quarantine) — to a complete run.
    let out = Command::new(BIN)
        .args(long_args(true))
        .output()
        .expect("spawn icr-campaign");
    assert!(out.status.success(), "resume after drain failed: {out:?}");
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("quarantined"),
        "resuming the drained campaign must trust its own checkpoints"
    );
    assert!(std::fs::read_to_string(&json)
        .unwrap()
        .contains("\"complete\": true"));

    std::fs::remove_dir_all(&dir).ok();
}
