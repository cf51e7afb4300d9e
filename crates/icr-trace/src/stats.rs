//! Summary statistics over a trace prefix — used to sanity-check that the
//! generators actually produce the mixes and localities their profiles
//! promise (calibration tests), and handy for workload characterisation in
//! examples.

use crate::inst::{Inst, OpClass};
use std::collections::HashSet;

/// Aggregate statistics of a finite instruction stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Instructions observed.
    pub instructions: u64,
    /// Loads observed.
    pub loads: u64,
    /// Stores observed.
    pub stores: u64,
    /// Branches observed.
    pub branches: u64,
    /// Taken branches observed.
    pub taken_branches: u64,
    /// Distinct 64-byte data blocks touched.
    pub unique_data_blocks: u64,
    /// Distinct instruction addresses fetched.
    pub unique_pcs: u64,
}

impl TraceStats {
    /// Collects statistics from an instruction stream.
    pub fn collect<I: IntoIterator<Item = Inst>>(trace: I) -> Self {
        let mut s = TraceStats::default();
        let mut blocks = HashSet::new();
        let mut pcs = HashSet::new();
        for inst in trace {
            s.instructions += 1;
            pcs.insert(inst.pc);
            match inst.op {
                OpClass::Load => s.loads += 1,
                OpClass::Store => s.stores += 1,
                OpClass::Branch => {
                    s.branches += 1;
                    if inst.taken {
                        s.taken_branches += 1;
                    }
                }
                _ => {}
            }
            if let Some(a) = inst.mem_addr() {
                blocks.insert(a / 64);
            }
        }
        s.unique_data_blocks = blocks.len() as u64;
        s.unique_pcs = pcs.len() as u64;
        s
    }

    /// Fraction of instructions that are loads.
    pub fn load_fraction(&self) -> f64 {
        self.frac(self.loads)
    }

    /// Fraction of instructions that are stores.
    pub fn store_fraction(&self) -> f64 {
        self.frac(self.stores)
    }

    /// Fraction of instructions that are branches.
    pub fn branch_fraction(&self) -> f64 {
        self.frac(self.branches)
    }

    /// Fraction of branches that are taken (0 when there are none).
    pub fn taken_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.taken_branches as f64 / self.branches as f64
        }
    }

    fn frac(&self, n: u64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            n as f64 / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{self, APP_NAMES};
    use crate::generator::TraceGenerator;

    #[test]
    fn empty_trace_gives_zeroes() {
        let s = TraceStats::collect(std::iter::empty());
        assert_eq!(s.instructions, 0);
        assert_eq!(s.load_fraction(), 0.0);
        assert_eq!(s.taken_rate(), 0.0);
    }

    /// Calibration: each generator realises its profile's instruction mix
    /// to within a couple of percentage points.
    #[test]
    fn generators_realise_their_op_mix() {
        for name in APP_NAMES {
            let p = apps::profile(name);
            let s = TraceStats::collect(TraceGenerator::new(p.clone(), 1).take(200_000));
            let tol = 0.03;
            assert!(
                (s.load_fraction() - p.mix.load).abs() < tol,
                "{name}: loads {:.3} vs {:.3}",
                s.load_fraction(),
                p.mix.load
            );
            assert!(
                (s.store_fraction() - p.mix.store).abs() < tol,
                "{name}: stores {:.3} vs {:.3}",
                s.store_fraction(),
                p.mix.store
            );
            assert!(
                (s.branch_fraction() - p.mix.branch).abs() < tol,
                "{name}: branches {:.3} vs {:.3}",
                s.branch_fraction(),
                p.mix.branch
            );
        }
    }

    /// Calibration: footprints order the way the profiles intend — mcf
    /// touches the most blocks, and every app exceeds the 256-block dL1.
    #[test]
    fn footprints_are_ordered_sensibly() {
        let mut footprints = std::collections::HashMap::new();
        for name in APP_NAMES {
            let s = TraceStats::collect(TraceGenerator::new(apps::profile(name), 1).take(100_000));
            footprints.insert(name, s.unique_data_blocks);
        }
        let mcf = footprints["mcf"];
        for (name, &fp) in &footprints {
            assert!(fp > 256, "{name} footprint {fp} should exceed the dL1");
            if *name != "mcf" {
                assert!(mcf > fp, "mcf ({mcf}) should out-spread {name} ({fp})");
            }
        }
    }
}
