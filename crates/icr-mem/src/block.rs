//! Cache-block data storage.

use crate::addr::BlockAddr;

/// The data payload of one cache block: `block_bytes / 8` 64-bit words.
///
/// Lower levels of the hierarchy (L2, DRAM) store plain words; only the
/// ICR-protected dL1 (in `icr-core`) wraps words in check bits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DataBlock {
    words: Vec<u64>,
}

impl DataBlock {
    /// A block of `words_per_block` zero words.
    pub fn zeroed(words_per_block: usize) -> Self {
        DataBlock {
            words: vec![0; words_per_block],
        }
    }

    /// Builds a block from its words.
    pub fn from_words(words: Vec<u64>) -> Self {
        DataBlock { words }
    }

    /// The deterministic "pristine" contents of an untouched memory block:
    /// a cheap address mix so every block has distinctive, reproducible
    /// data without storing the whole address space.
    pub fn pristine(addr: BlockAddr, words_per_block: usize) -> Self {
        let mut words = vec![0; words_per_block];
        pristine_into(addr, &mut words);
        DataBlock { words }
    }

    /// Number of words in the block.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` when the block holds no words (never the case for blocks made
    /// by this crate's constructors, which require `words_per_block >= 1`).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn word(&self, i: usize) -> u64 {
        self.words[i]
    }

    /// Writes word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set_word(&mut self, i: usize, value: u64) {
        self.words[i] = value;
    }

    /// All words, in block order.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// All words, writable.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

/// Writes the [`DataBlock::pristine`] words of `addr` into `out`.
pub(crate) fn pristine_into(addr: BlockAddr, out: &mut [u64]) {
    for (i, w) in (0u64..).zip(out) {
        *w = splitmix64(addr.raw().wrapping_add(i.wrapping_mul(8)));
    }
}

/// SplitMix64 — a tiny, high-quality 64-bit mixer used to derive pristine
/// memory contents from addresses deterministically.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_block_is_all_zero() {
        let b = DataBlock::zeroed(8);
        assert_eq!(b.len(), 8);
        assert!(b.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn pristine_is_deterministic_and_distinctive() {
        let a = DataBlock::pristine(BlockAddr(0x1000), 8);
        let b = DataBlock::pristine(BlockAddr(0x1000), 8);
        let c = DataBlock::pristine(BlockAddr(0x1040), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Words within a block differ from each other.
        assert_ne!(a.word(0), a.word(1));
    }

    #[test]
    fn set_word_roundtrips() {
        let mut b = DataBlock::zeroed(4);
        b.set_word(2, 0xFEED);
        assert_eq!(b.word(2), 0xFEED);
        assert_eq!(b.word(0), 0);
    }

    #[test]
    fn splitmix_nonzero_and_spread() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
