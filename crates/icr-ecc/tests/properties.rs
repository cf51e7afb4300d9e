//! Property-based tests for the coding substrate: the SEC-DED and parity
//! guarantees must hold for *all* data words and *all* error positions, not
//! just hand-picked samples.

use icr_ecc::secded::Decode;
use icr_ecc::{ByteParity, CheckOutcome, ProtectedWord, Protection, SecDed};
use proptest::prelude::*;

proptest! {
    /// Encoding then decoding with no injected error is always clean.
    #[test]
    fn secded_roundtrip_clean(data: u64) {
        prop_assert_eq!(SecDed::encode(data).decode(data), Decode::Clean);
    }

    /// SEC: any single data-bit flip is corrected back to the original word.
    #[test]
    fn secded_corrects_any_single_data_flip(data: u64, bit in 0u32..64) {
        let code = SecDed::encode(data);
        match code.decode(data ^ (1u64 << bit)) {
            Decode::CorrectedData { bit: b, data: fixed } => {
                prop_assert_eq!(b, bit);
                prop_assert_eq!(fixed, data);
            }
            other => prop_assert!(false, "expected correction, got {:?}", other),
        }
    }

    /// SEC: any single check-bit flip is recognised as a check-bit error.
    #[test]
    fn secded_corrects_any_single_check_flip(data: u64, bit in 0u32..8) {
        let mut code = SecDed::encode(data);
        code.flip_bit(bit);
        prop_assert_eq!(code.decode(data), Decode::CorrectedCheck { bit });
    }

    /// DED: any double data-bit flip is detected and never miscorrected.
    #[test]
    fn secded_detects_any_double_data_flip(
        data: u64,
        a in 0u32..64,
        b in 0u32..64,
    ) {
        prop_assume!(a != b);
        let code = SecDed::encode(data);
        let corrupted = data ^ (1u64 << a) ^ (1u64 << b);
        prop_assert_eq!(code.decode(corrupted), Decode::DoubleError);
    }

    /// DED across storage classes: one data flip plus one check flip is
    /// still a detected double error.
    #[test]
    fn secded_detects_mixed_double_flip(
        data: u64,
        data_bit in 0u32..64,
        check_bit in 0u32..8,
    ) {
        let mut code = SecDed::encode(data);
        code.flip_bit(check_bit);
        let corrupted = data ^ (1u64 << data_bit);
        prop_assert_eq!(code.decode(corrupted), Decode::DoubleError);
    }

    /// Parity detects every single-bit data flip.
    #[test]
    fn parity_detects_any_single_flip(data: u64, bit in 0u32..64) {
        let enc = ByteParity::encode(data);
        let check = enc.check(data ^ (1u64 << bit));
        prop_assert!(check.is_error());
        prop_assert_eq!(check.mismatched_bytes(), 1 << (bit / 8));
    }

    /// Parity detects any two flips that land in *different* bytes.
    #[test]
    fn parity_detects_cross_byte_double_flip(
        data: u64,
        a in 0u32..64,
        b in 0u32..64,
    ) {
        prop_assume!(a / 8 != b / 8);
        let enc = ByteParity::encode(data);
        let check = enc.check(data ^ (1u64 << a) ^ (1u64 << b));
        prop_assert_eq!(check.mismatch_count(), 2);
    }

    /// An even number of flips inside one byte aliases for parity — the
    /// documented limitation that motivates replicas / SEC-DED.
    #[test]
    fn parity_misses_same_byte_double_flip(
        data: u64,
        byte in 0u32..8,
        a in 0u32..8,
        b in 0u32..8,
    ) {
        prop_assume!(a != b);
        let enc = ByteParity::encode(data);
        let corrupted = data ^ (1u64 << (byte * 8 + a)) ^ (1u64 << (byte * 8 + b));
        prop_assert!(enc.check(corrupted).is_clean());
    }

    /// ProtectedWord under SEC-DED self-heals any single-bit fault and ends
    /// up clean with the original data.
    #[test]
    fn protected_word_secded_self_heals(data: u64, bit in 0u32..72) {
        let mut w = ProtectedWord::encode(data, Protection::SecDed);
        if bit < 64 {
            w.flip_data_bit(bit);
        } else {
            w.flip_check_bit(bit - 64);
        }
        prop_assert_eq!(w.check_and_correct(), CheckOutcome::CorrectedSingle);
        prop_assert_eq!(w.data(), data);
        prop_assert!(w.is_clean());
    }

    /// ProtectedWord under parity flags any single-bit fault as
    /// uncorrectable but never silently passes it.
    #[test]
    fn protected_word_parity_flags_single_fault(data: u64, bit in 0u32..64) {
        let mut w = ProtectedWord::encode(data, Protection::Parity);
        w.flip_data_bit(bit);
        prop_assert_eq!(w.check_and_correct(), CheckOutcome::DetectedUncorrectable);
    }

    /// A store after corruption always restores integrity.
    #[test]
    fn write_always_restores_integrity(
        old: u64,
        new: u64,
        bit in 0u32..64,
        secded: bool,
    ) {
        let prot = if secded { Protection::SecDed } else { Protection::Parity };
        let mut w = ProtectedWord::encode(old, prot);
        w.flip_data_bit(bit);
        w.write(new);
        prop_assert!(w.is_clean());
        prop_assert_eq!(w.data(), new);
    }
}

/// The straightforward definitions the fast codes must reproduce bit for
/// bit: byte parity as a popcount per byte, and SEC-DED as a walk over
/// the codeword positions of the set data bits.
mod reference {
    /// Bit *i* is the parity of byte *i*, one `count_ones` per byte.
    pub fn word_parity(data: u64) -> u8 {
        let mut out = 0u8;
        for byte in 0..8 {
            let b = ((data >> (byte * 8)) & 0xFF) as u8;
            out |= (b.count_ones() as u8 & 1) << byte;
        }
        out
    }

    /// Codeword positions `1..=71` that are not powers of two, in
    /// increasing order: position of data bit *i* is entry *i*.
    pub fn data_positions() -> Vec<u32> {
        (1..=71u32).filter(|p| !p.is_power_of_two()).collect()
    }

    /// XOR of the codeword positions of the set bits of `data`.
    fn position_xor(data: u64) -> u32 {
        data_positions()
            .iter()
            .enumerate()
            .filter(|&(i, _)| (data >> i) & 1 == 1)
            .fold(0, |acc, (_, &p)| acc ^ p)
    }

    /// Hamming check bits 0–6 from the position walk, plus the overall
    /// parity bit 7 that makes the 72-bit codeword even.
    pub fn encode(data: u64) -> u8 {
        let mut check = (position_xor(data) & 0x7F) as u8;
        if (data.count_ones() + check.count_ones()) % 2 == 1 {
            check |= 0x80;
        }
        check
    }

    /// `(position, overall_odd)` of (`data`, stored `check`).
    pub fn syndrome(data: u64, check: u8) -> (u32, bool) {
        let position = position_xor(data) ^ u32::from(check & 0x7F);
        (position, (data.count_ones() + check.count_ones()) % 2 == 1)
    }
}

proptest! {
    /// The parity fold equals one popcount per byte on every word.
    #[test]
    fn word_parity_matches_per_byte_popcount(data: u64) {
        prop_assert_eq!(icr_ecc::word_parity(data), reference::word_parity(data));
    }

    /// The byte-table SEC-DED encoder equals the position walk.
    #[test]
    fn secded_encode_matches_position_walk(data: u64) {
        prop_assert_eq!(SecDed::encode(data).bits(), reference::encode(data));
    }

    /// The syndrome equals the position walk for any stored check bits,
    /// consistent or not.
    #[test]
    fn secded_syndrome_matches_position_walk(data: u64, check: u8) {
        let syn = SecDed::from_bits(check).syndrome(data);
        prop_assert_eq!((syn.position, syn.overall_odd), reference::syndrome(data, check));
    }
}

/// Sparse and dense words, which random `u64`s almost never are, against
/// the same references.
#[test]
fn codes_match_the_references_on_sparse_and_dense_words() {
    for a in 0..64 {
        for b in 0..64 {
            for data in [1u64 << a | 1 << b, !(1u64 << a | 1 << b)] {
                assert_eq!(icr_ecc::word_parity(data), reference::word_parity(data));
                assert_eq!(SecDed::encode(data).bits(), reference::encode(data));
            }
        }
    }
}

proptest! {
    /// Check bits computed when a fault first touches a word are the ones
    /// an eager encode would have stored: any single strike, on a data or
    /// a check bit, is detected under parity and corrected under SEC-DED.
    #[test]
    fn deferred_check_bits_decode_like_eager_ones(data: u64, bit in 0u32..72, secded: bool) {
        let prot = if secded { Protection::SecDed } else { Protection::Parity };
        let mut w = ProtectedWord::encode(data, prot);
        if bit < 64 {
            w.flip_data_bit(bit);
        } else {
            w.flip_check_bit(bit - 64);
        }
        let expected = if secded {
            CheckOutcome::CorrectedSingle
        } else {
            CheckOutcome::DetectedUncorrectable
        };
        prop_assert_eq!(w.check_and_correct(), expected);
        if secded {
            prop_assert_eq!(w, ProtectedWord::encode(data, prot));
        }
    }

    /// A word whose bits were flipped and flipped back equals, and hashes
    /// like, the word encoded afresh.
    #[test]
    fn words_compare_by_their_bits(data: u64, bit in 0u32..64, secded: bool) {
        use std::hash::{BuildHasher, RandomState};
        let prot = if secded { Protection::SecDed } else { Protection::Parity };
        let fresh = ProtectedWord::encode(data, prot);
        let mut w = fresh;
        w.flip_data_bit(bit);
        prop_assert_ne!(w, fresh);
        w.flip_data_bit(bit);
        prop_assert_eq!(w, fresh);
        let s = RandomState::new();
        prop_assert_eq!(s.hash_one(w), s.hash_one(fresh));
    }
}
