//! Property-based tests for the memory substrate: geometry round-trips,
//! LRU ordering invariants, cache capacity bounds and write-buffer bounds
//! must hold for arbitrary access streams.

use icr_mem::{
    AccessKind, Addr, BlockAddr, Cache, CacheGeometry, DataBlock, LruQueue, MainMemory, SetIndex,
    WriteBuffer,
};
use proptest::prelude::*;

fn arb_geometry() -> impl Strategy<Value = CacheGeometry> {
    // size 2^9..2^16, assoc 2^0..2^3, block 2^3..2^7, with size >= assoc*block
    (9u32..=16, 0u32..=3, 3u32..=7).prop_filter_map("cache too small", |(s, a, b)| {
        let (size, assoc, block) = (1usize << s, 1usize << a, 1usize << b);
        (size >= assoc * block).then(|| CacheGeometry::new(size, assoc, block))
    })
}

/// The division-based address split the shift-and-mask geometry must
/// reproduce: `(size, assoc, block)` of `g` and its arithmetic spelled
/// out with `/`, `*` and `rem_euclid`.
mod reference {
    use super::*;

    pub fn num_sets(g: CacheGeometry) -> usize {
        g.size_bytes() / (g.associativity() * g.block_bytes())
    }

    pub fn set_index(g: CacheGeometry, block: BlockAddr) -> usize {
        (block.raw() / g.block_bytes() as u64) as usize & (num_sets(g) - 1)
    }

    pub fn tag(g: CacheGeometry, block: BlockAddr) -> u64 {
        block.raw() / g.block_bytes() as u64 / num_sets(g) as u64
    }

    pub fn block_addr_from_parts(g: CacheGeometry, tag: u64, set: usize) -> u64 {
        tag.wrapping_mul(num_sets(g) as u64)
            .wrapping_add(set as u64)
            .wrapping_mul(g.block_bytes() as u64)
    }

    pub fn set_at_distance(g: CacheGeometry, set: usize, k: isize) -> usize {
        (set as isize + k).rem_euclid(num_sets(g) as isize) as usize
    }
}

/// Distances at and beyond the set count `n`, on both sides.
fn far_distances(k: isize, n: isize) -> [isize; 4] {
    [k * n, -(n + 1), n + 1, k % n - 3 * n]
}

proptest! {
    /// The five address-split methods equal their division-based
    /// definitions for every geometry, address and distance — negative
    /// `k` and `|k|` beyond the set count included.
    #[test]
    fn geometry_matches_division_reference(
        g in arb_geometry(),
        raw: u64,
        tag_raw: u64,
        set_raw: usize,
        k in -100_000isize..100_000,
    ) {
        prop_assert_eq!(g.num_sets(), reference::num_sets(g));
        let b = g.block_addr(Addr(raw));
        prop_assert_eq!(g.set_index(b).0, reference::set_index(g, b));
        prop_assert_eq!(g.tag(b), reference::tag(g, b));
        let set = set_raw % g.num_sets();
        // Any tag, including ones whose reassembly wraps past 2^64.
        prop_assert_eq!(
            g.block_addr_from_parts(tag_raw, SetIndex(set)).raw(),
            reference::block_addr_from_parts(g, tag_raw, set)
        );
        prop_assert_eq!(
            g.block_addr_from_parts(g.tag(b), g.set_index(b)).raw(),
            reference::block_addr_from_parts(g, reference::tag(g, b), reference::set_index(g, b))
        );
        prop_assert_eq!(
            g.set_at_distance(SetIndex(set), k).0,
            reference::set_at_distance(g, set, k)
        );
        let n = g.num_sets() as isize;
        for far in far_distances(k, n) {
            prop_assert_eq!(
                g.set_at_distance(SetIndex(set), far).0,
                reference::set_at_distance(g, set, far),
                "k = {}", far
            );
        }
    }

    /// tag + set index fully determine the block address.
    #[test]
    fn geometry_tag_set_roundtrip(g in arb_geometry(), raw: u64) {
        let b = g.block_addr(Addr(raw));
        let reassembled = g.block_addr_from_parts(g.tag(b), g.set_index(b));
        prop_assert_eq!(reassembled, b);
    }

    /// Block addresses are aligned and contain their byte address.
    #[test]
    fn block_addr_alignment(g in arb_geometry(), raw: u64) {
        let b = g.block_addr(Addr(raw));
        prop_assert_eq!(b.raw() % g.block_bytes() as u64, 0);
        prop_assert!(b.raw() <= raw);
        prop_assert!(raw - b.raw() < g.block_bytes() as u64);
    }

    /// distance-k placement always lands in a valid set, and distance-0 is
    /// the identity (the paper's "horizontal replication").
    #[test]
    fn distance_k_stays_in_range(g in arb_geometry(), set_raw: usize, k in -1000isize..1000) {
        let set = SetIndex(set_raw % g.num_sets());
        let target = g.set_at_distance(set, k);
        prop_assert!(target.0 < g.num_sets());
        prop_assert_eq!(g.set_at_distance(set, 0), set);
        // Moving +k then -k returns home.
        prop_assert_eq!(g.set_at_distance(target, -k), set);
    }

    /// After any sequence of touches, the LRU order is a permutation of the
    /// ways and `touch(w)` makes `w` the MRU.
    #[test]
    fn lru_order_is_permutation(ways in 1usize..8, touches in prop::collection::vec(0usize..8, 0..64)) {
        let mut q = LruQueue::new(ways);
        for t in touches {
            let w = t % ways;
            q.touch(w);
            prop_assert_eq!(q.mru_to_lru()[0], w);
        }
        let mut seen = q.mru_to_lru().to_vec();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..ways).collect::<Vec<_>>());
    }

    /// victim_among returns an eligible way that is no more recent than any
    /// other eligible way.
    #[test]
    fn victim_among_is_lru_of_eligible(
        ways in 2usize..8,
        touches in prop::collection::vec(0usize..8, 0..32),
        mask_bits in 0u8..=255,
    ) {
        let mut q = LruQueue::new(ways);
        for t in touches {
            q.touch(t % ways);
        }
        let mask: Vec<bool> = (0..ways).map(|w| mask_bits & (1 << w) != 0).collect();
        match q.victim_among(u16::from(mask_bits)) {
            None => prop_assert!(mask.iter().all(|&e| !e)),
            Some(v) => {
                prop_assert!(mask[v]);
                // No eligible way appears after v in MRU→LRU order.
                let pos = q.mru_to_lru().iter().position(|&w| w == v).unwrap();
                for &w in &q.mru_to_lru()[pos + 1..] {
                    prop_assert!(!mask[w], "way {} is eligible and older", w);
                }
            }
        }
    }

    /// A cache never holds more blocks than its capacity, and a block just
    /// filled is resident.
    #[test]
    fn cache_capacity_bound(accesses in prop::collection::vec(0u64..64, 1..200)) {
        let g = CacheGeometry::new(512, 2, 64); // 4 sets, 2 ways
        let mut c = Cache::new(g, 1);
        let capacity = g.num_sets() * g.associativity();
        for a in accesses {
            let block = g.block_addr(Addr(a * 64));
            if !c.lookup(block, AccessKind::Read) {
                c.fill(block, DataBlock::pristine(block, g.words_per_block()), false);
            }
            prop_assert!(c.contains(block));
            prop_assert!(c.resident_blocks() <= capacity);
        }
    }

    /// Dirty data survives eviction: write a word, force eviction through
    /// conflict fills, and the evicted block carries the written value.
    #[test]
    fn dirty_eviction_carries_data(value: u64, word in 0usize..8) {
        let g = CacheGeometry::new(128, 1, 64); // 2 sets, direct-mapped
        let mut c = Cache::new(g, 1);
        let a = BlockAddr(0);
        c.fill(a, DataBlock::zeroed(8), false);
        c.write_word(a, word, value);
        let ev = c.fill(BlockAddr(128), DataBlock::zeroed(8), false).unwrap();
        prop_assert_eq!(ev.addr, a);
        prop_assert!(ev.dirty);
        prop_assert_eq!(ev.data.word(word), value);
    }

    /// Memory read-your-writes for arbitrary write sequences.
    #[test]
    fn memory_read_your_writes(writes in prop::collection::vec((0u64..32, any::<u64>()), 1..50)) {
        let mut m = MainMemory::new(8, 100);
        let mut last = std::collections::HashMap::new();
        for (blk, val) in writes {
            let addr = BlockAddr(blk * 64);
            let mut d = DataBlock::zeroed(8);
            d.set_word(0, val);
            m.write_block(addr, d);
            last.insert(addr, val);
        }
        for (addr, val) in last {
            prop_assert_eq!(m.read_block(addr).0.word(0), val);
        }
    }

    /// The write buffer never exceeds capacity and never reports stalls
    /// when it has room.
    #[test]
    fn write_buffer_bounds(
        capacity in 1usize..8,
        pushes in prop::collection::vec((0u64..1000, 0u64..16), 1..100),
    ) {
        let mut wb = WriteBuffer::new(capacity, 6);
        let mut now = 0u64;
        for (dt, blk) in pushes {
            now += dt;
            let before = wb.occupancy();
            let stall = wb.push(now, BlockAddr(blk * 64));
            if before < capacity {
                prop_assert_eq!(stall, 0);
            }
            prop_assert!(wb.occupancy() <= capacity);
        }
        prop_assert!(wb.coalesced() <= wb.pushes());
    }
}
