//! A stored 64-bit word together with its check bits — the unit the cache
//! model manipulates.
//!
//! Cache lines in the ICR simulator are arrays of [`ProtectedWord`]s; fault
//! injection flips real bits (data or check) and loads verify integrity via
//! [`ProtectedWord::check_and_correct`].
//!
//! A word no fault has touched since it was last written carries exactly
//! the code of its data, so its check bits are not stored: they are
//! computed the moment a fault first flips a bit of the word, and a check
//! of an untouched word is clean without decoding anything. Every
//! observable outcome is the same as encoding eagerly.

use std::hash::{Hash, Hasher};

use crate::parity::ByteParity;
use crate::secded::{Decode, SecDed};

/// Which code protects a stored word.
///
/// The paper's scheme names embed this choice: `*-P-*` lines use
/// [`Protection::Parity`], `*-ECC-*` unreplicated lines use
/// [`Protection::SecDed`]. Replicated lines are always parity-protected
/// (paper §3.1, "How do we protect replicated cache blocks?").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Protection {
    /// Per-byte even parity: detects single-bit errors, corrects nothing.
    #[default]
    Parity,
    /// Hamming(72,64) SEC-DED: corrects single-bit, detects double-bit.
    SecDed,
}

/// Outcome of verifying a [`ProtectedWord`] on a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckOutcome {
    /// No error was detected.
    Clean,
    /// SEC-DED corrected a single-bit error in place.
    CorrectedSingle,
    /// An error was detected but the code cannot correct it (parity hit, or
    /// SEC-DED double/multi error). Recovery must come from elsewhere — a
    /// replica or the next memory level.
    DetectedUncorrectable,
}

impl CheckOutcome {
    /// `true` when the word's data can be used as-is after the check.
    pub fn data_is_good(self) -> bool {
        !matches!(self, CheckOutcome::DetectedUncorrectable)
    }
}

/// One 64-bit data word plus the check bits of its [`Protection`] code.
///
/// Two words are equal when their data, code and check bits are, however
/// the check bits are held.
///
/// ```
/// use icr_ecc::{ProtectedWord, Protection, CheckOutcome};
///
/// let mut w = ProtectedWord::encode(42, Protection::Parity);
/// assert_eq!(w.check_and_correct(), CheckOutcome::Clean);
/// w.flip_data_bit(3);
/// assert_eq!(w.check_and_correct(), CheckOutcome::DetectedUncorrectable);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ProtectedWord {
    data: u64,
    code: StoredCode,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StoredCode {
    /// Exactly the code of the stored data, not yet computed.
    Consistent(Protection),
    Parity(ByteParity),
    SecDed(SecDed),
}

impl ProtectedWord {
    /// Encodes `data` under `protection`.
    pub fn encode(data: u64, protection: Protection) -> Self {
        ProtectedWord {
            data,
            code: StoredCode::Consistent(protection),
        }
    }

    /// The check bits as stored: computed from the data when the word
    /// still carries exactly its data's code.
    fn stored_code(&self) -> StoredCode {
        match self.code {
            StoredCode::Consistent(Protection::Parity) => {
                StoredCode::Parity(ByteParity::encode(self.data))
            }
            StoredCode::Consistent(Protection::SecDed) => {
                StoredCode::SecDed(SecDed::encode(self.data))
            }
            stored => stored,
        }
    }

    /// The stored data word (possibly corrupted; run
    /// [`check_and_correct`](Self::check_and_correct) first to trust it).
    pub fn data(&self) -> u64 {
        self.data
    }

    /// The protection code this word is stored under.
    pub fn protection(&self) -> Protection {
        match self.code {
            StoredCode::Consistent(p) => p,
            StoredCode::Parity(_) => Protection::Parity,
            StoredCode::SecDed(_) => Protection::SecDed,
        }
    }

    /// Overwrites the data and re-encodes the check bits, as a store does.
    pub fn write(&mut self, data: u64) {
        *self = ProtectedWord::encode(data, self.protection());
    }

    /// Re-encodes this word under a different protection code, preserving
    /// the (possibly corrupted) data bits. Used when a line's role changes
    /// (e.g. a SEC-DED line becomes a parity-protected replica).
    pub fn reprotect(&mut self, protection: Protection) {
        *self = ProtectedWord::encode(self.data, protection);
    }

    /// Flips one bit of the stored data, modelling a transient fault.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64`.
    pub fn flip_data_bit(&mut self, bit: u32) {
        assert!(bit < 64, "data word has 64 bits, got bit {bit}");
        // The check bits stay those of the data before the flip.
        self.code = self.stored_code();
        self.data ^= 1u64 << bit;
    }

    /// Flips one bit of the stored check bits, modelling a transient fault
    /// in the redundancy storage itself.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn flip_check_bit(&mut self, bit: u32) {
        self.code = self.stored_code();
        match &mut self.code {
            StoredCode::Parity(p) => p.flip_bit(bit),
            StoredCode::SecDed(s) => s.flip_bit(bit),
            StoredCode::Consistent(_) => unreachable!("stored_code computes the check bits"),
        }
    }

    /// Verifies the word and, for SEC-DED, corrects a single-bit error in
    /// place. Models the integrity check a load performs.
    pub fn check_and_correct(&mut self) -> CheckOutcome {
        match self.code {
            StoredCode::Consistent(_) => CheckOutcome::Clean,
            StoredCode::Parity(p) => {
                if p.check(self.data).is_clean() {
                    CheckOutcome::Clean
                } else {
                    CheckOutcome::DetectedUncorrectable
                }
            }
            StoredCode::SecDed(s) => match s.decode(self.data) {
                Decode::Clean => CheckOutcome::Clean,
                Decode::CorrectedData { data, .. } => {
                    self.data = data;
                    // The check bits were consistent with the corrected data
                    // already (the flip was in data), so keep them.
                    self.code = StoredCode::Consistent(Protection::SecDed);
                    CheckOutcome::CorrectedSingle
                }
                Decode::CorrectedCheck { .. } => {
                    // Data was fine; refresh the check bits.
                    self.code = StoredCode::Consistent(Protection::SecDed);
                    CheckOutcome::CorrectedSingle
                }
                Decode::DoubleError | Decode::MultiError => CheckOutcome::DetectedUncorrectable,
            },
        }
    }

    /// Non-mutating integrity probe: `true` when the stored word would pass
    /// its check without needing correction.
    pub fn is_clean(&self) -> bool {
        match self.code {
            StoredCode::Consistent(_) => true,
            StoredCode::Parity(p) => p.check(self.data).is_clean(),
            StoredCode::SecDed(s) => matches!(s.decode(self.data), Decode::Clean),
        }
    }
}

impl PartialEq for ProtectedWord {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data && self.stored_code() == other.stored_code()
    }
}

impl Eq for ProtectedWord {}

impl Hash for ProtectedWord {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.data.hash(state);
        self.stored_code().hash(state);
    }
}

impl Default for ProtectedWord {
    fn default() -> Self {
        ProtectedWord::encode(0, Protection::Parity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_roundtrip_both_codes() {
        for prot in [Protection::Parity, Protection::SecDed] {
            let mut w = ProtectedWord::encode(0x1122_3344_5566_7788, prot);
            assert!(w.is_clean());
            assert_eq!(w.check_and_correct(), CheckOutcome::Clean);
            assert_eq!(w.data(), 0x1122_3344_5566_7788);
            assert_eq!(w.protection(), prot);
        }
    }

    #[test]
    fn parity_detects_but_cannot_correct() {
        let mut w = ProtectedWord::encode(99, Protection::Parity);
        w.flip_data_bit(11);
        assert!(!w.is_clean());
        assert_eq!(w.check_and_correct(), CheckOutcome::DetectedUncorrectable);
        assert!(!w.check_and_correct().data_is_good());
    }

    #[test]
    fn secded_corrects_single_data_flip_in_place() {
        let mut w = ProtectedWord::encode(0xFFEE_DDCC_BBAA_0099, Protection::SecDed);
        w.flip_data_bit(60);
        assert_eq!(w.check_and_correct(), CheckOutcome::CorrectedSingle);
        assert_eq!(w.data(), 0xFFEE_DDCC_BBAA_0099);
        // Once corrected, the word is clean again.
        assert_eq!(w.check_and_correct(), CheckOutcome::Clean);
    }

    #[test]
    fn secded_corrects_check_bit_flip() {
        let mut w = ProtectedWord::encode(7, Protection::SecDed);
        w.flip_check_bit(2);
        assert_eq!(w.check_and_correct(), CheckOutcome::CorrectedSingle);
        assert_eq!(w.data(), 7);
        assert!(w.is_clean());
    }

    #[test]
    fn secded_double_flip_is_uncorrectable() {
        let mut w = ProtectedWord::encode(12345, Protection::SecDed);
        w.flip_data_bit(1);
        w.flip_data_bit(2);
        assert_eq!(w.check_and_correct(), CheckOutcome::DetectedUncorrectable);
    }

    #[test]
    fn write_reencodes_check_bits() {
        let mut w = ProtectedWord::encode(1, Protection::SecDed);
        w.flip_data_bit(5); // corrupt...
        w.write(2); // ...then a store overwrites: corruption is gone
        assert_eq!(w.check_and_correct(), CheckOutcome::Clean);
        assert_eq!(w.data(), 2);
    }

    #[test]
    fn reprotect_switches_code_preserving_data() {
        let mut w = ProtectedWord::encode(0xAB, Protection::SecDed);
        w.reprotect(Protection::Parity);
        assert_eq!(w.protection(), Protection::Parity);
        assert_eq!(w.data(), 0xAB);
        assert!(w.is_clean());
    }

    #[test]
    fn default_is_clean_zero_parity_word() {
        let mut w = ProtectedWord::default();
        assert_eq!(w.data(), 0);
        assert_eq!(w.protection(), Protection::Parity);
        assert_eq!(w.check_and_correct(), CheckOutcome::Clean);
    }
}
