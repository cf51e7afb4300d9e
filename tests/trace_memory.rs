//! Materialising a trace costs one copy of it: the process's peak
//! resident set (`VmHWM`) may grow by at most 1.25 × the trace's payload
//! plus 4 MiB while a fresh `WorkloadStore` builds a 500k-instruction
//! mcf trace. Growing a `Vec` and copying it into the `Arc` would peak at
//! well over twice the payload.
//!
//! The file holds a single test, so no other test shares the process
//! and moves its high-water mark. Without `/proc` the test skips.

use icr_trace::{Inst, WorkloadStore};

const INSTS: u64 = 500_000;

/// `VmHWM` of this process in bytes, or `None` without `/proc`.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

#[test]
fn materialising_a_trace_peaks_at_one_copy() {
    let Some(before) = peak_rss_bytes() else {
        eprintln!("skipped: /proc/self/status has no VmHWM on this platform");
        return;
    };
    let store = WorkloadStore::new();
    let trace = store.get("mcf", 42, INSTS);
    let after = peak_rss_bytes().expect("VmHWM was readable a moment ago");

    let payload = INSTS * std::mem::size_of::<Inst>() as u64;
    assert_eq!(trace.len() as u64, INSTS);
    assert_eq!(store.resident_bytes() as u64, payload);
    let budget = payload + payload / 4 + (4 << 20);
    let grown = after.saturating_sub(before);
    assert!(
        grown <= budget,
        "materialising {INSTS} instructions ({payload} B of payload) grew the \
         peak RSS by {grown} B, over the {budget} B budget"
    );
}
