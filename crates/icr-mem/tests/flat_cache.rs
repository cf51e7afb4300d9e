//! The slot-indexed [`Cache`] and the inline [`LruQueue`] against a
//! reference that keeps the earlier layout: one heap `Vec` of lines and
//! one heap `Vec`-ordered recency queue per set. Random fill, lookup,
//! word read/write, block update, invalidate, touch and demote
//! sequences must pick the same victims, evict the same blocks with the
//! same data, and keep the same statistics.

use icr_mem::{
    AccessKind, BlockAddr, Cache, CacheGeometry, CacheStats, DataBlock, Evicted, LruQueue, SetIndex,
};
use proptest::prelude::*;

/// Recency order as a heap vector, most-recently-used first.
#[derive(Debug, Clone)]
struct VecLru(Vec<usize>);

impl VecLru {
    fn new(ways: usize) -> Self {
        VecLru((0..ways).collect())
    }

    fn touch(&mut self, way: usize) {
        let pos = self.0.iter().position(|&w| w == way).unwrap();
        let w = self.0.remove(pos);
        self.0.insert(0, w);
    }

    fn demote(&mut self, way: usize) {
        let pos = self.0.iter().position(|&w| w == way).unwrap();
        let w = self.0.remove(pos);
        self.0.push(w);
    }

    fn victim(&self) -> usize {
        *self.0.last().unwrap()
    }

    fn victim_among(&self, eligible: &[bool]) -> Option<usize> {
        self.0.iter().rev().copied().find(|&w| eligible[w])
    }
}

#[derive(Debug, Clone)]
struct RefLine {
    valid: bool,
    dirty: bool,
    tag: u64,
    data: DataBlock,
}

#[derive(Debug, Clone)]
struct RefSet {
    lines: Vec<RefLine>,
    lru: VecLru,
}

/// The set-of-vectors cache layout, with every line's data allocated.
struct RefCache {
    geometry: CacheGeometry,
    sets: Vec<RefSet>,
    stats: CacheStats,
}

impl RefCache {
    fn new(geometry: CacheGeometry) -> Self {
        let ways = geometry.associativity();
        let words = geometry.words_per_block();
        let sets = (0..geometry.num_sets())
            .map(|_| RefSet {
                lines: (0..ways)
                    .map(|_| RefLine {
                        valid: false,
                        dirty: false,
                        tag: 0,
                        data: DataBlock::zeroed(words),
                    })
                    .collect(),
                lru: VecLru::new(ways),
            })
            .collect();
        RefCache {
            geometry,
            sets,
            stats: CacheStats::default(),
        }
    }

    fn find(&self, addr: BlockAddr) -> Option<(usize, usize)> {
        let tag = self.geometry.tag(addr);
        let set = self.geometry.set_index(addr).0;
        let way = self.sets[set]
            .lines
            .iter()
            .position(|l| l.valid && l.tag == tag)?;
        Some((set, way))
    }

    fn lookup(&mut self, addr: BlockAddr, kind: AccessKind) -> bool {
        let hit = self.find(addr);
        match kind {
            AccessKind::Read => {
                self.stats.read_accesses += 1;
                self.stats.read_hits += u64::from(hit.is_some());
            }
            AccessKind::Write => {
                self.stats.write_accesses += 1;
                self.stats.write_hits += u64::from(hit.is_some());
            }
        }
        let Some((s, w)) = hit else {
            return false;
        };
        self.sets[s].lru.touch(w);
        if kind == AccessKind::Write {
            self.sets[s].lines[w].dirty = true;
        }
        true
    }

    fn read_word(&mut self, addr: BlockAddr, word: usize) -> Option<u64> {
        let (s, w) = self.find(addr)?;
        self.sets[s].lru.touch(w);
        Some(self.sets[s].lines[w].data.word(word))
    }

    fn write_word(&mut self, addr: BlockAddr, word: usize, value: u64) -> bool {
        let Some((s, w)) = self.find(addr) else {
            return false;
        };
        self.sets[s].lru.touch(w);
        self.sets[s].lines[w].data.set_word(word, value);
        self.sets[s].lines[w].dirty = true;
        true
    }

    fn update_block(&mut self, addr: BlockAddr, data: DataBlock) -> bool {
        let Some((s, w)) = self.find(addr) else {
            return false;
        };
        self.sets[s].lru.touch(w);
        self.sets[s].lines[w].data = data;
        self.sets[s].lines[w].dirty = true;
        true
    }

    fn fill(&mut self, addr: BlockAddr, data: DataBlock, dirty: bool) -> Option<Evicted> {
        self.stats.fills += 1;
        let tag = self.geometry.tag(addr);
        let s = self.geometry.set_index(addr).0;
        let set = &mut self.sets[s];
        let way = match set.lines.iter().position(|l| !l.valid) {
            Some(w) => w,
            None => set.lru.victim(),
        };
        let old = std::mem::replace(
            &mut set.lines[way],
            RefLine {
                valid: true,
                dirty,
                tag,
                data,
            },
        );
        set.lru.touch(way);
        old.valid.then(|| {
            self.stats.evictions += 1;
            self.stats.writebacks += u64::from(old.dirty);
            Evicted {
                addr: self.geometry.block_addr_from_parts(old.tag, SetIndex(s)),
                data: old.data,
                dirty: old.dirty,
            }
        })
    }

    fn invalidate(&mut self, addr: BlockAddr) -> Option<Evicted> {
        let (s, w) = self.find(addr)?;
        let words = self.geometry.words_per_block();
        let line = &mut self.sets[s].lines[w];
        line.valid = false;
        Some(Evicted {
            addr: self.geometry.block_addr_from_parts(line.tag, SetIndex(s)),
            data: std::mem::replace(&mut line.data, DataBlock::zeroed(words)),
            dirty: std::mem::take(&mut line.dirty),
        })
    }

    fn resident_blocks(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.lines.iter().filter(|l| l.valid).count())
            .sum()
    }
}

/// `(op, block index, word, value)` with `op` choosing among the
/// cache's mutating and observing calls.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, usize, u64)>> {
    prop::collection::vec((0u8..8, 0u64..48, 0usize..8, any::<u64>()), 1..300)
}

proptest! {
    /// Both layouts agree call by call and end with the same stats.
    #[test]
    fn flat_cache_matches_the_set_of_vectors_layout(
        ways_log in 0u32..=3,
        ops in arb_ops(),
    ) {
        // 8 sets of 1–8 ways over 48 blocks: conflict-heavy on purpose.
        let ways = 1usize << ways_log;
        let g = CacheGeometry::new(8 * ways * 64, ways, 64);
        let mut flat = Cache::new(g, 6);
        let mut reference = RefCache::new(g);
        for (op, block, word, value) in ops {
            let a = BlockAddr(block * 64);
            match op {
                0 | 1 => {
                    // A fill follows every miss, so victims get exercised.
                    let kind = if op == 0 { AccessKind::Read } else { AccessKind::Write };
                    let hit = flat.lookup(a, kind);
                    prop_assert_eq!(hit, reference.lookup(a, kind));
                    if !hit {
                        let data = DataBlock::pristine(a, 8);
                        let dirty = value & 1 == 1;
                        prop_assert_eq!(
                            flat.fill(a, data.clone(), dirty),
                            reference.fill(a, data, dirty)
                        );
                    }
                }
                2 => prop_assert_eq!(flat.read_word(a, word), reference.read_word(a, word)),
                3 => prop_assert_eq!(
                    flat.write_word(a, word, value),
                    reference.write_word(a, word, value)
                ),
                4 => {
                    let mut d = DataBlock::zeroed(8);
                    d.set_word(word, value);
                    prop_assert_eq!(flat.update_block(a, d.clone()), reference.update_block(a, d));
                }
                5 => prop_assert_eq!(flat.invalidate(a), reference.invalidate(a)),
                6 => {
                    let expected = reference.find(a).map(|(s, w)| &reference.sets[s].lines[w].data);
                    prop_assert_eq!(flat.peek_block(a), expected);
                }
                _ => prop_assert_eq!(flat.contains(a), reference.find(a).is_some()),
            }
            prop_assert_eq!(flat.resident_blocks(), reference.resident_blocks());
        }
        prop_assert_eq!(*flat.stats(), reference.stats);
    }

    /// The inline queue orders, picks victims and answers restricted
    /// victim queries exactly like the heap-vector queue.
    #[test]
    fn inline_lru_matches_the_vector_queue(
        ways_log in 0u32..=4,
        ops in prop::collection::vec((0u8..4, 0usize..16, 0u16..=u16::MAX), 0..200),
    ) {
        let ways = 1usize << ways_log;
        let mut inline = LruQueue::new(ways);
        let mut reference = VecLru::new(ways);
        for (op, way, mask_bits) in ops {
            let way = way % ways;
            match op {
                0 => {
                    inline.touch(way);
                    reference.touch(way);
                }
                1 => {
                    inline.demote(way);
                    reference.demote(way);
                }
                2 => prop_assert_eq!(inline.victim(), reference.victim()),
                _ => {
                    let mask: Vec<bool> = (0..ways).map(|w| mask_bits & (1 << w) != 0).collect();
                    prop_assert_eq!(inline.victim_among(&mask), reference.victim_among(&mask));
                }
            }
            prop_assert_eq!(inline.mru_to_lru(), reference.0.clone());
        }
    }
}
