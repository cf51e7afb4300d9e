//! Mutation smoke tests for the lockstep audit subsystem: prove that the
//! `icr-check` reference model actually *fires* on the class of bug each
//! of this PR's fixes removed. Each test reconstructs the pre-fix state
//! or formula and asserts the checker rejects it, alongside a positive
//! control showing the fixed code passes the same check.
//!
//! (Exact-value unit tests in the fixed modules catch the literal
//! reverts; these tests catch the *behaviour*, whatever code produces
//! it.)

use icr_check::{RefModel, RefWriteBuffer};
use icr_core::{DataL1, DataL1Config, ErrorOutcome, OutcomeTally, Scheme};
use icr_mem::{Addr, BlockAddr, HierarchyConfig, MemoryBackend, WriteBuffer};
use icr_sim::audit::{export_real_state, ref_config};
use icr_sim::json::parse;
use icr_sim::{run_audit, run_sim, AuditSpec, CheckMode, SimConfig};

/// Drives the real dL1 and the reference model in lockstep through an
/// access schedule, checking after every access, and returns both for
/// further inspection.
fn lockstep(
    cfg: DataL1Config,
    schedule: &[(bool, u64, u64)], // (is_store, addr, cycle)
) -> (DataL1, MemoryBackend, RefModel) {
    let hierarchy = HierarchyConfig::default();
    let mut backend = MemoryBackend::new(&hierarchy);
    let mut dl1 = DataL1::new(cfg.clone());
    let mut model = RefModel::new(ref_config(&cfg, &hierarchy));
    for &(is_store, addr, now) in schedule {
        if is_store {
            dl1.store(Addr(addr), now, &mut backend);
            model.store(addr, now);
        } else {
            dl1.load(Addr(addr), now, &mut backend);
            model.load(addr, now);
        }
        let real = export_real_state(&dl1, &backend, now);
        model
            .check(now, &real)
            .unwrap_or_else(|e| panic!("clean lockstep diverged at cycle {now}: {e}"));
    }
    (dl1, backend, model)
}

// ---------------------------------------------------------------------
// Satellite 1: decay counter / deadness boundary.
// ---------------------------------------------------------------------

/// The pre-fix decay counter ticked `elapsed / (window/4)` with a plain
/// `.min(3)`, saturating at 3·tick = three *quarters* of the window —
/// so `counter == 3` disagreed with `is_dead` (a full window) for a
/// quarter of every window. Reconstructing that formula in the exported
/// state must trip the checker's decay cross-check.
#[test]
fn checker_catches_the_old_decay_counter_formula() {
    let cfg = DataL1Config::paper_default(Scheme::BASE_P); // window 1000, tick 250
    let window = cfg.decay.window;
    let tick = cfg.decay.tick_interval();
    // Touch a line at cycle 0, then observe at cycle 800: three ticks
    // elapsed but the window has not — the disagreement zone.
    let (dl1, backend, mut model) =
        lockstep(cfg, &[(false, 0x1000_0000, 0), (false, 0x2000_0000, 800)]);
    let now = 800;
    let mut real = export_real_state(&dl1, &backend, now);
    let line = real
        .lines
        .iter_mut()
        .find(|l| l.last_access == 0)
        .expect("the cycle-0 line is resident");
    let elapsed = now - line.last_access;
    assert!(elapsed >= 3 * tick && elapsed < window, "in the bug zone");
    // The fixed code exports 2 here; the pre-fix formula said 3.
    assert_eq!(line.counter, 2);
    line.counter = ((elapsed / tick).min(3)) as u8;
    assert_eq!(line.counter, 3);
    let err = model.check(now, &real).unwrap_err();
    assert!(err.contains("decay counter diverged"), "{err}");
}

// ---------------------------------------------------------------------
// Satellite 2: write-buffer stall-window drain.
// ---------------------------------------------------------------------

/// The real buffer and the reference buffer agree push-for-push across a
/// schedule with coalescing, draining and full-buffer stalls — and the
/// pre-fix buffer shape (a charged stall window that left an already-due
/// entry queued) is rejected by the drain invariant.
#[test]
fn checker_catches_a_stall_that_leaves_due_entries_queued() {
    let mut real = WriteBuffer::new(2, 6);
    let mut reference = RefWriteBuffer::new(2, 6);
    let export = |wb: &WriteBuffer| icr_check::RealWriteBuffer {
        occupancy: wb.occupancy(),
        pushes: wb.pushes(),
        coalesced: wb.coalesced(),
        retired: wb.retired(),
        stall_cycles: wb.stall_cycles(),
        pending_ready: wb.pending_ready(),
    };
    let schedule: &[(u64, u64)] = &[
        (0, 0x000),
        (0, 0x040), // buffer now full
        (0, 0x040), // coalesces
        (0, 0x080), // full: stalls to cycle 6, drains the head
        (8, 0x000), // full again: stalls to 12; must NOT coalesce into
        // the 0x000 write that retired during the first stall
        (40, 0x0c0), // long idle: everything drained
    ];
    for &(now, addr) in schedule {
        let real_stall = real.push(now, BlockAddr(addr));
        let ref_stall = reference.push(now, addr);
        assert_eq!(real_stall, ref_stall, "stall diverged at cycle {now}");
        reference
            .check(&export(&real))
            .unwrap_or_else(|e| panic!("clean write-buffer lockstep diverged: {e}"));
    }
    assert_eq!(real.coalesced(), 1, "only the legitimate coalesce");

    // Reconstruct the pre-fix shape: rewind to the state just after the
    // first stall, but with the entry that retired during the stall
    // window still queued (the old code popped exactly one head entry and
    // never drained the rest of the window).
    let mut reference = RefWriteBuffer::new(2, 6);
    for &(now, addr) in &schedule[..4] {
        reference.push(now, addr);
    }
    let mut doctored = {
        let mut fresh = WriteBuffer::new(2, 6);
        for &(now, addr) in &schedule[..4] {
            fresh.push(now, BlockAddr(addr));
        }
        export(&fresh)
    };
    // An entry due at cycle 6 — inside the charged stall window — is
    // still pending.
    doctored.pending_ready.insert(0, 6);
    doctored.occupancy += 1;
    doctored.retired -= 1;
    let err = reference.check(&doctored).unwrap_err();
    assert!(err.contains("charged stall window"), "{err}");
}

/// The full write-through §5.8 configuration audits clean end-to-end
/// (write buffer included) under the in-simulator lockstep checker.
#[test]
fn write_through_configuration_audits_clean() {
    let mut dl1 = DataL1Config::paper_default(Scheme::BASE_P);
    dl1.write_policy = icr_core::WritePolicy::WriteThrough { buffer_entries: 8 };
    let cfg = SimConfig::builder("gzip", dl1)
        .instructions(3_000)
        .seed(3)
        .check(CheckMode::Lockstep)
        .build();
    let r = run_sim(&cfg); // panics on any divergence
    assert!(r.icr.cache.write_accesses > 0);
}

// ---------------------------------------------------------------------
// Satellite 3: outcome-tally conservation.
// ---------------------------------------------------------------------

/// A tally built through the real `OutcomeTally` API passes conservation;
/// the pre-fix accounting shape — losses exceeding delivered faults, the
/// numbers that used to drive `wilson_ci95` into a panic via a wrapping
/// subtraction — is rejected.
#[test]
fn checker_catches_unconserved_tallies() {
    let mut tally = OutcomeTally::default();
    for o in [
        ErrorOutcome::CorrectedByReplica,
        ErrorOutcome::RefetchedFromL2,
        ErrorOutcome::Masked,
        ErrorOutcome::DetectedUnrecoverable,
        ErrorOutcome::SilentCorruption,
        ErrorOutcome::NotInjected,
    ] {
        tally.record(o);
    }
    let args = (
        6u64, // total trials
        tally.count(ErrorOutcome::NotInjected),
        tally.recovered(),
        tally.count(ErrorOutcome::Masked),
        tally.count(ErrorOutcome::DetectedUnrecoverable),
        tally.count(ErrorOutcome::SilentCorruption),
    );
    icr_check::tally_conserved(args.0, args.1, args.2, args.3, args.4, args.5)
        .expect("API-built tallies conserve");
    assert_eq!(tally.survived_count(), 3); // 2 recovered + 1 masked

    // Double-counted losses (the wrapping-subtraction shape).
    let err =
        icr_check::tally_conserved(args.0, args.1, args.2, args.3, args.4 + 4, args.5).unwrap_err();
    assert!(err.contains("injected"), "{err}");
    // A trial that vanished from the terminal classes.
    assert!(
        icr_check::tally_conserved(args.0 + 1, args.1, args.2, args.3, args.4, args.5).is_err()
    );
}

// ---------------------------------------------------------------------
// Satellite 4: atomic JSON output.
// ---------------------------------------------------------------------

/// Every report emitter produces a complete JSON document, and the
/// strict parser rejects every strict prefix — what a torn, non-atomic
/// write would leave behind. Together with `write_output`'s temp-file
/// rename this is the torn-report guarantee.
#[test]
fn checker_catches_truncated_report_files() {
    let spec = AuditSpec::new(vec![Scheme::BASE_P], vec!["gzip".into()], 2_000, 5);
    let report = run_audit(&spec);
    let json = report.to_json();
    assert!(parse(&json).is_ok());
    for cut in 1..json.len() {
        assert!(
            parse(&json[..cut]).is_err(),
            "torn write of length {cut} accepted"
        );
    }

    let sim = run_sim(&SimConfig::paper(
        "gzip",
        DataL1Config::paper_default(Scheme::BASE_P),
        2_000,
        5,
    ));
    let json = sim.to_json();
    assert!(parse(&json).is_ok());
    assert!(parse(&json[..json.len() / 2]).is_err());
}

// ---------------------------------------------------------------------
// Satellite 5: t-table beyond df 30.
// ---------------------------------------------------------------------

/// The pre-fix table jumped straight from the df-30 row to the normal
/// 1.96 for every df > 30, making 31–120-sample intervals
/// anti-conservative. The fixed table is conservative in that whole
/// range.
#[test]
fn checker_catches_the_t_table_cliff_past_df_30() {
    // The old code returned exactly 1.96 here.
    for df in [31, 35, 40, 59, 60, 119, 120, 999] {
        assert!(
            icr_sim::stats::t_critical_95(df) > 1.96,
            "df {df} must stay above the normal critical value"
        );
    }
    assert_eq!(icr_sim::stats::t_critical_95(1000), 1.96);
}

// ---------------------------------------------------------------------
// Matrix coverage: the checker runs clean across scheme variants.
// ---------------------------------------------------------------------

/// A cross-section of scheme space — parity/ECC, store/load-miss
/// triggers, serial/parallel lookup, §5.6 keep-replicas, aggressive
/// decay — audits clean under the in-simulator lockstep checker.
#[test]
fn scheme_variants_audit_clean() {
    let variants: Vec<DataL1Config> = vec![
        DataL1Config::paper_default(Scheme::BASE_ECC),
        DataL1Config::paper_default(Scheme::ICR_P_PS_LS),
        DataL1Config::paper_default(Scheme::ICR_ECC_PP_S),
        DataL1Config::aggressive(Scheme::ICR_P_PS_S),
        DataL1Config::paper_default(Scheme::ICR_P_PS_LS_L2),
        DataL1Config::paper_default(Scheme::ICR_ECC_PS_S_L2),
        {
            let mut c = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
            c.keep_replicas_on_evict = true;
            c
        },
    ];
    for dl1 in variants {
        let scheme = dl1.scheme.name();
        let cfg = SimConfig::builder("vpr", dl1)
            .instructions(2_000)
            .seed(11)
            .check(CheckMode::Lockstep)
            .build();
        let r = run_sim(&cfg); // panics on any divergence
        assert!(r.icr.cache.accesses() > 0, "{scheme} ran");
    }
}
