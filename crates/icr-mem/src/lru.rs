//! Least-recently-used ordering within one cache set.
//!
//! Beyond plain LRU victim selection, ICR's replica placement needs
//! *restricted* LRU — "LRU only amongst the dead blocks", "LRU amongst
//! replicas" — so [`LruQueue::victim_among`] selects the LRU way from an
//! eligibility mask.

/// The most ways a set may have: [`LruQueue`] keeps its order inline in
/// an array this long, so a cache's recency state needs no allocation
/// per set.
pub const MAX_WAYS: usize = 16;

/// Recency tracking for the ways of a single set.
///
/// Ways are ordered from most- to least-recently used; `touch` moves a way
/// to the MRU end. For the small associativities of real L1/L2 caches
/// (≤ [`MAX_WAYS`]) an inline array beats any linked or heap structure.
///
/// ```
/// use icr_mem::LruQueue;
///
/// let mut q = LruQueue::new(4);
/// q.touch(0); q.touch(1); q.touch(2); q.touch(3);
/// assert_eq!(q.victim(), 0);            // 0 is now least recent
/// q.touch(0);
/// assert_eq!(q.victim(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LruQueue {
    /// Way indices, most-recently-used first; only `..len` is meaningful.
    order: [u8; MAX_WAYS],
    len: u8,
}

impl LruQueue {
    /// A queue over `ways` ways; initially way 0 is MRU and way `ways-1`
    /// is LRU (so an empty set fills ways in reverse index order, matching
    /// hardware that fills invalid ways first by index).
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0` or `ways > MAX_WAYS`.
    pub fn new(ways: usize) -> Self {
        assert!(ways > 0, "a set must have at least one way");
        assert!(ways <= MAX_WAYS, "a set may have at most {MAX_WAYS} ways");
        let mut order = [0u8; MAX_WAYS];
        for (w, slot) in order.iter_mut().enumerate() {
            *slot = w as u8;
        }
        LruQueue {
            order,
            len: ways as u8,
        }
    }

    /// Number of ways tracked.
    pub fn ways(&self) -> usize {
        self.len as usize
    }

    fn order(&self) -> &[u8] {
        &self.order[..self.len as usize]
    }

    fn position(&self, way: usize) -> usize {
        self.order()
            .iter()
            .position(|&w| w as usize == way)
            .expect("way out of range")
    }

    /// Marks `way` as most-recently used.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn touch(&mut self, way: usize) {
        let pos = self.position(way);
        self.order.copy_within(0..pos, 1);
        self.order[0] = way as u8;
    }

    /// Marks `way` as *least*-recently used — used when a block is demoted
    /// (e.g. a replica that should be first in line for eviction).
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn demote(&mut self, way: usize) {
        let pos = self.position(way);
        let last = self.len as usize - 1;
        self.order.copy_within(pos + 1..=last, pos);
        self.order[last] = way as u8;
    }

    /// The globally least-recently-used way.
    pub fn victim(&self) -> usize {
        self.order[self.len as usize - 1] as usize
    }

    /// The least-recently-used way among those whose bit is set in the
    /// way mask `eligible` (bit *w* for way *w*), or `None` if no way is
    /// eligible. Bits at or above the number of ways are ignored.
    pub fn victim_among(&self, eligible: u16) -> Option<usize> {
        self.order()
            .iter()
            .rev()
            .map(|&w| w as usize)
            .find(|&w| eligible >> w & 1 == 1)
    }

    /// Ways from most- to least-recently used (for inspection/tests).
    pub fn mru_to_lru(&self) -> Vec<usize> {
        self.order().iter().map(|&w| w as usize).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_order_fills_high_ways_first() {
        let q = LruQueue::new(4);
        assert_eq!(q.victim(), 3);
    }

    #[test]
    fn touch_moves_to_mru() {
        let mut q = LruQueue::new(4);
        q.touch(3);
        assert_eq!(q.mru_to_lru(), &[3, 0, 1, 2]);
        assert_eq!(q.victim(), 2);
    }

    #[test]
    fn repeated_touch_is_idempotent() {
        let mut q = LruQueue::new(4);
        q.touch(1);
        q.touch(1);
        assert_eq!(q.mru_to_lru(), &[1, 0, 2, 3]);
    }

    #[test]
    fn demote_moves_to_lru() {
        let mut q = LruQueue::new(4);
        q.touch(2); // [2,0,1,3]
        q.demote(2);
        assert_eq!(q.victim(), 2);
    }

    #[test]
    fn victim_among_respects_mask() {
        let mut q = LruQueue::new(4);
        // Make order [3,2,1,0]: LRU is 0.
        q.touch(1);
        q.touch(2);
        q.touch(3);
        assert_eq!(q.victim(), 0);
        // But only ways 2 and 3 are eligible: pick 2 (less recent than 3).
        assert_eq!(q.victim_among(0b1100), Some(2));
        assert_eq!(q.victim_among(0), None);
        assert_eq!(q.victim_among(0b1111), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        LruQueue::new(0);
    }

    #[test]
    #[should_panic(expected = "at most 16 ways")]
    fn too_many_ways_panics() {
        LruQueue::new(MAX_WAYS + 1);
    }

    #[test]
    fn mask_bits_beyond_the_ways_are_ignored() {
        let q = LruQueue::new(4);
        assert_eq!(q.victim_among(0xFFF0), None);
        assert_eq!(q.victim_among(0xFFF1), Some(0));
    }
}
