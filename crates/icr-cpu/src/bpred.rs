//! Branch prediction: bimodal, two-level, the combined predictor of
//! Table 1, and a set-associative BTB.

use crate::config::CpuConfig;

/// Two-bit saturating counter helpers.
fn counter_up(c: u8) -> u8 {
    (c + 1).min(3)
}
fn counter_down(c: u8) -> u8 {
    c.saturating_sub(1)
}
fn counter_taken(c: u8) -> bool {
    c >= 2
}

/// A direction predictor.
pub trait DirPredictor {
    /// Predicts the direction of the branch at `pc`.
    fn predict(&self, pc: u64) -> bool;
    /// Trains with the resolved outcome.
    fn update(&mut self, pc: u64, taken: bool);
}

/// Bimodal predictor: a table of 2-bit counters indexed by PC.
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<u8>,
}

impl Bimodal {
    /// A predictor with `entries` counters (power of two), initialised
    /// weakly taken.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        Bimodal {
            table: vec![2; entries],
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.table.len() - 1)
    }
}

impl DirPredictor for Bimodal {
    fn predict(&self, pc: u64) -> bool {
        counter_taken(self.table[self.index(pc)])
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        self.table[i] = if taken {
            counter_up(self.table[i])
        } else {
            counter_down(self.table[i])
        };
    }
}

/// Two-level adaptive predictor: per-branch history registers indexing a
/// shared pattern table of 2-bit counters.
#[derive(Debug, Clone)]
pub struct TwoLevel {
    histories: Vec<u16>,
    pattern: Vec<u8>,
    history_bits: u32,
}

impl TwoLevel {
    /// A predictor with `history_entries` branch-history registers of
    /// `history_bits` bits and `pattern_entries` pattern counters.
    ///
    /// # Panics
    ///
    /// Panics unless both table sizes are powers of two and
    /// `history_bits <= 16`.
    pub fn new(history_entries: usize, pattern_entries: usize, history_bits: u32) -> Self {
        assert!(history_entries.is_power_of_two());
        assert!(pattern_entries.is_power_of_two());
        assert!(history_bits <= 16, "history register is 16 bits wide");
        TwoLevel {
            histories: vec![0; history_entries],
            pattern: vec![2; pattern_entries],
            history_bits,
        }
    }

    fn hist_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.histories.len() - 1)
    }

    fn pattern_index(&self, pc: u64) -> usize {
        let h = self.histories[self.hist_index(pc)] as usize;
        // XOR-fold the PC in so different branches sharing a history value
        // do not fully alias (gshare-style hashing).
        (h ^ ((pc >> 2) as usize)) & (self.pattern.len() - 1)
    }
}

impl DirPredictor for TwoLevel {
    fn predict(&self, pc: u64) -> bool {
        counter_taken(self.pattern[self.pattern_index(pc)])
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let pi = self.pattern_index(pc);
        self.pattern[pi] = if taken {
            counter_up(self.pattern[pi])
        } else {
            counter_down(self.pattern[pi])
        };
        let hi = self.hist_index(pc);
        let mask = (1u16 << self.history_bits) - 1;
        self.histories[hi] = ((self.histories[hi] << 1) | taken as u16) & mask;
    }
}

/// The paper's combined predictor: bimodal + two-level with a 2-bit
/// chooser per entry selecting which component to trust.
#[derive(Debug, Clone)]
pub struct Combined {
    bimodal: Bimodal,
    two_level: TwoLevel,
    chooser: Vec<u8>,
}

impl Combined {
    /// Builds the combined predictor from a [`CpuConfig`].
    pub fn from_config(config: &CpuConfig) -> Self {
        Combined {
            bimodal: Bimodal::new(config.bimodal_entries),
            two_level: TwoLevel::new(
                config.two_level_entries,
                config.two_level_entries,
                config.history_bits,
            ),
            chooser: vec![2; config.chooser_entries],
        }
    }

    fn chooser_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.chooser.len() - 1)
    }
}

impl DirPredictor for Combined {
    fn predict(&self, pc: u64) -> bool {
        // Chooser >= 2 selects the two-level component.
        if counter_taken(self.chooser[self.chooser_index(pc)]) {
            self.two_level.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let p_two = self.two_level.predict(pc);
        let p_bi = self.bimodal.predict(pc);
        // Train the chooser toward whichever component was right.
        if p_two != p_bi {
            let ci = self.chooser_index(pc);
            self.chooser[ci] = if p_two == taken {
                counter_up(self.chooser[ci])
            } else {
                counter_down(self.chooser[ci])
            };
        }
        self.two_level.update(pc, taken);
        self.bimodal.update(pc, taken);
    }
}

/// Branch target buffer: set-associative PC → target map with LRU.
///
/// The sets lie in one flat array, `ways` entries each, and each set's
/// first `fill` entries are its valid ones, most recently used first.
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<BtbEntry>,
    fill: Vec<usize>,
    ways: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct BtbEntry {
    pc: u64,
    target: u64,
}

impl Btb {
    /// A BTB with `entries` total entries across `ways`-way sets.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` divides `entries` and the set count is a power
    /// of two.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(
            ways > 0 && entries.is_multiple_of(ways),
            "ways must divide entries"
        );
        let sets = entries / ways;
        assert!(
            sets.is_power_of_two(),
            "BTB set count must be a power of two"
        );
        Btb {
            entries: vec![BtbEntry::default(); entries],
            fill: vec![0; sets],
            ways,
        }
    }

    fn set_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.fill.len() - 1)
    }

    /// The valid entries of the set `pc` maps to, MRU first.
    fn set(&self, pc: u64) -> &[BtbEntry] {
        let si = self.set_index(pc);
        let start = si * self.ways;
        &self.entries[start..start + self.fill[si]]
    }

    /// The predicted target for the branch at `pc`, if the BTB knows one.
    pub fn lookup(&self, pc: u64) -> Option<u64> {
        self.set(pc).iter().find(|e| e.pc == pc).map(|e| e.target)
    }

    /// Installs/refreshes the target of a taken branch.
    pub fn update(&mut self, pc: u64, target: u64) {
        // Rotating the set's prefix up to the refreshed entry (or up to
        // the LRU entry of a full set, or the first free way) by one puts
        // that entry first and shifts the more recent ones down a place.
        let pos = self.set(pc).iter().position(|e| e.pc == pc);
        let si = self.set_index(pc);
        let end = match pos {
            Some(pos) => pos + 1,
            None => {
                if self.fill[si] < self.ways {
                    self.fill[si] += 1;
                }
                self.fill[si]
            }
        };
        let start = si * self.ways;
        let set = &mut self.entries[start..start + end];
        set.rotate_right(1);
        set[0] = BtbEntry { pc, target };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_a_bias() {
        let mut p = Bimodal::new(64);
        for _ in 0..4 {
            p.update(0x100, true);
        }
        assert!(p.predict(0x100));
        for _ in 0..4 {
            p.update(0x100, false);
        }
        assert!(!p.predict(0x100));
    }

    #[test]
    fn two_level_learns_an_alternating_pattern() {
        let mut p = TwoLevel::new(64, 256, 8);
        // Warm up on strict alternation.
        let mut taken = false;
        for _ in 0..200 {
            p.update(0x200, taken);
            taken = !taken;
        }
        // Now it should predict the alternation correctly.
        let mut correct = 0;
        for _ in 0..100 {
            if p.predict(0x200) == taken {
                correct += 1;
            }
            p.update(0x200, taken);
            taken = !taken;
        }
        assert!(correct > 95, "two-level got {correct}/100 on alternation");
    }

    #[test]
    fn bimodal_cannot_learn_alternation() {
        let mut p = Bimodal::new(64);
        let mut taken = false;
        let mut correct = 0;
        for _ in 0..200 {
            if p.predict(0x200) == taken {
                correct += 1;
            }
            p.update(0x200, taken);
            taken = !taken;
        }
        assert!(correct < 150, "bimodal should struggle on alternation");
    }

    #[test]
    fn combined_tracks_the_better_component() {
        let mut p = Combined::from_config(&CpuConfig::default());
        let mut taken = false;
        for _ in 0..300 {
            p.update(0x300, taken);
            taken = !taken;
        }
        let mut correct = 0;
        for _ in 0..100 {
            if p.predict(0x300) == taken {
                correct += 1;
            }
            p.update(0x300, taken);
            taken = !taken;
        }
        assert!(correct > 90, "combined got {correct}/100 on alternation");
    }

    #[test]
    fn btb_remembers_targets() {
        let mut b = Btb::new(512, 4);
        assert_eq!(b.lookup(0x100), None);
        b.update(0x100, 0x4000);
        assert_eq!(b.lookup(0x100), Some(0x4000));
        b.update(0x100, 0x8000);
        assert_eq!(b.lookup(0x100), Some(0x8000));
    }

    #[test]
    fn btb_evicts_lru_within_a_set() {
        let mut b = Btb::new(8, 2); // 4 sets, 2 ways
                                    // Three branches mapping to the same set (stride = 4 sets * 4B).
        let (a, c, d) = (0x10, 0x10 + 16, 0x10 + 32);
        b.update(a, 1);
        b.update(c, 2);
        b.update(d, 3); // evicts a
        assert_eq!(b.lookup(a), None);
        assert_eq!(b.lookup(c), Some(2));
        assert_eq!(b.lookup(d), Some(3));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bimodal_size_must_be_power_of_two() {
        Bimodal::new(100);
    }
}
