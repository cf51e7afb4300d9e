//! Lockstep reference model and invariant checks for the ICR dL1.
//!
//! The simulator's hot paths are heavily optimised: associative lookup
//! over packed lines, incremental statistics, a memoizing execution
//! engine, lazy decay counters. This crate is the opposite on purpose —
//! a *deliberately naive* model of the paper's §3 semantics that an
//! auditor can read top to bottom:
//!
//! * associative lookup by **linear scan** over every way,
//! * the replica map as a plain **`HashMap`** ledger, cross-checked
//!   against a fresh scan on every diff,
//! * protection state as an **enum** per line, recomputed from first
//!   principles,
//! * decay counters recomputed from the last-access cycle each time.
//!
//! [`RefModel`] consumes the same access stream as the real `DataL1`
//! and [`RefModel::check`] diffs the full observable state after every
//! access: tags, dirty bits, protection, replica pairing, recency order,
//! per-line decay counters, and the statistics counters — plus the
//! conservation invariants (hits + misses = accesses, stats monotone,
//! replicas always paired to a live primary a legal distance-k away).
//!
//! The crate is **dependency-free**, including on the rest of the
//! workspace: it must share no code — and therefore no bugs — with what
//! it audits. The simulator side translates its state into the plain
//! [`RealState`] structs defined here.
//!
//! One more free-standing check rounds out the audit surface:
//! [`tally_conserved`] (fault-campaign outcome conservation: injected =
//! recovered + masked + lost + silent).

mod model;
mod write_buffer;

pub use model::{
    ref_decay_counter, ref_is_dead, Counters, RealLine, RealSetExport, RealSets, RealState,
    RefConfig, RefLine, RefModel, RefProtection, RefVictim, RefWriteBufferConfig,
};
pub use write_buffer::{RealWriteBuffer, RefWriteBuffer};

/// Checks the outcome-conservation invariant of one fault-campaign
/// tally: every delivered fault ends in exactly one of the four
/// terminal classes, so
///
/// ```text
/// injected  =  total - not_injected  =  recovered + masked + lost + silent
/// ```
///
/// where `lost` is the detected-but-unrecoverable count. A violation
/// means double- or under-counted trials — exactly the class of bug a
/// raw `injected - lost` subtraction would later turn into a wrapping
/// panic inside a Wilson interval.
///
/// # Errors
///
/// Returns a description of the first violated equation.
pub fn tally_conserved(
    total: u64,
    not_injected: u64,
    recovered: u64,
    masked: u64,
    lost: u64,
    silent: u64,
) -> Result<(), String> {
    if not_injected > total {
        return Err(format!(
            "tally: not_injected {not_injected} exceeds total {total}"
        ));
    }
    let injected = total - not_injected;
    let accounted = recovered + masked + lost + silent;
    if accounted != injected {
        return Err(format!(
            "tally: injected {injected} != recovered {recovered} + masked {masked} \
             + lost {lost} + silent {silent} (= {accounted})"
        ));
    }
    if lost + silent > injected {
        return Err(format!(
            "tally: lost {lost} + silent {silent} exceeds injected {injected}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_conservation_accepts_balanced_tallies() {
        // 10 trials: 2 undelivered, 5 recovered, 1 masked, 1 lost, 1 silent.
        assert!(tally_conserved(10, 2, 5, 1, 1, 1).is_ok());
        assert!(tally_conserved(0, 0, 0, 0, 0, 0).is_ok());
    }

    #[test]
    fn tally_conservation_rejects_leaks() {
        // One delivered trial vanished from the terminal classes.
        let err = tally_conserved(10, 2, 4, 1, 1, 1).unwrap_err();
        assert!(err.contains("injected 8"), "{err}");
        // More losses than delivered faults — the Wilson underflow shape.
        assert!(tally_conserved(4, 2, 0, 0, 3, 2).is_err());
        assert!(tally_conserved(3, 5, 0, 0, 0, 0).is_err());
    }
}
