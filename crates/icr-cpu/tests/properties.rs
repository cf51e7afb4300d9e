//! Property-based tests for the out-of-order core: for *any* well-formed
//! instruction stream, the pipeline must commit everything exactly once,
//! respect its structural limits, and never wedge.

use icr_cpu::{Bimodal, Btb, Combined, TwoLevel};
use icr_cpu::{CpuConfig, DirPredictor, FixedLatencyMemory, PerfectMemory, Pipeline};
use icr_trace::{Inst, OpClass, Reg};
use proptest::prelude::*;

/// An arbitrary small, well-formed instruction stream.
fn arb_trace() -> impl Strategy<Value = Vec<Inst>> {
    let op = prop::sample::select(vec![
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::FpAlu,
        OpClass::FpMul,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
    ]);
    prop::collection::vec((op, 0u8..64, 0u8..64, 0u64..256, any::<bool>()), 1..200).prop_map(
        |raw| {
            let mut pc = 0x1000u64;
            raw.into_iter()
                .map(|(op, d, s, blk, taken)| {
                    let inst = match op {
                        OpClass::Load => {
                            Inst::load(pc, 0x8000 + blk * 8, Some(Reg(d)), [Some(Reg(s)), None])
                        }
                        OpClass::Store => Inst::store(pc, 0x8000 + blk * 8, [Some(Reg(s)), None]),
                        OpClass::Branch => Inst::branch(
                            pc,
                            0x1000 + (blk % 64) * 4,
                            taken,
                            None,
                            [Some(Reg(s)), None],
                        ),
                        other => Inst::alu(pc, other, Some(Reg(d)), [Some(Reg(s)), None]),
                    };
                    pc = if op == OpClass::Branch && taken {
                        inst.target()
                    } else {
                        pc + 4
                    };
                    inst
                })
                .collect()
        },
    )
}

proptest! {
    /// Every instruction commits exactly once, whatever the stream shape.
    #[test]
    fn pipeline_commits_every_instruction(trace in arb_trace()) {
        let n = trace.len() as u64;
        let loads = trace.iter().filter(|i| i.op == OpClass::Load).count() as u64;
        let stores = trace.iter().filter(|i| i.op == OpClass::Store).count() as u64;
        let branches = trace.iter().filter(|i| i.op == OpClass::Branch).count() as u64;
        let mut cpu = Pipeline::new(CpuConfig::default());
        let stats = cpu.run(trace, &mut PerfectMemory, &mut PerfectMemory);
        prop_assert_eq!(stats.committed, n);
        prop_assert_eq!(stats.loads, loads);
        prop_assert_eq!(stats.stores, stores);
        prop_assert_eq!(stats.branches, branches);
        prop_assert!(stats.mispredicts <= stats.branches);
        // Cannot beat the machine width.
        prop_assert!(stats.committed <= stats.cycles * 4);
    }

    /// Slower memory cannot make the machine meaningfully *faster*, and
    /// the run still terminates.
    ///
    /// Strict monotonicity does not hold for greedy schedulers (Graham's
    /// scheduling anomalies: delaying one op can reorder the oldest-first
    /// issue scan into a globally better schedule), so a small tolerance
    /// is allowed; systematic speedups would still fail this bound.
    #[test]
    fn slower_memory_is_near_monotone(trace in arb_trace(), extra in 1u64..50) {
        let mut cpu = Pipeline::new(CpuConfig::default());
        let fast = cpu.run(trace.clone(), &mut PerfectMemory, &mut PerfectMemory);
        let mut slow_mem = FixedLatencyMemory { load_latency: 1 + extra, store_latency: 1 };
        let mut cpu = Pipeline::new(CpuConfig::default());
        let slow = cpu.run(trace, &mut PerfectMemory, &mut slow_mem);
        prop_assert!(
            slow.cycles as f64 >= 0.95 * fast.cycles as f64 - 10.0,
            "slower memory produced a >5% speedup: {} vs {}",
            slow.cycles,
            fast.cycles
        );
        prop_assert_eq!(slow.committed, fast.committed);
    }

    /// Direction predictors accept any PC without panicking and learn a
    /// constant direction within a handful of updates.
    #[test]
    fn predictors_learn_constant_streams(pc: u64, taken: bool) {
        let mut bi = Bimodal::new(1024);
        let mut two = TwoLevel::new(512, 1024, 8);
        let mut comb = Combined::from_config(&CpuConfig::default());
        for _ in 0..32 {
            bi.update(pc, taken);
            two.update(pc, taken);
            comb.update(pc, taken);
        }
        prop_assert_eq!(bi.predict(pc), taken);
        prop_assert_eq!(two.predict(pc), taken);
        prop_assert_eq!(comb.predict(pc), taken);
    }

    /// The BTB returns exactly what was last installed for a PC.
    #[test]
    fn btb_read_your_writes(installs in prop::collection::vec((0u64..4096, any::<u64>()), 1..64)) {
        let mut btb = Btb::new(512, 4);
        let mut last = std::collections::HashMap::new();
        for (pc, target) in installs {
            btb.update(pc, target);
            last.insert(pc, target);
        }
        for (pc, target) in last {
            // The entry may have been evicted, but if present it must be
            // the most recent target.
            if let Some(t) = btb.lookup(pc) {
                prop_assert_eq!(t, target);
            }
        }
    }

    /// The flat BTB behaves as a per-set most-recently-used list: the
    /// same lookups hit with the same targets after any update sequence.
    #[test]
    fn btb_matches_mru_list_reference(
        ops in prop::collection::vec((0u64..64, any::<u64>(), any::<bool>()), 1..200),
        ways in prop::sample::select(vec![1usize, 2, 4, 8]),
    ) {
        let mut btb = Btb::new(16, ways);
        let mut reference = ReferenceBtb::new(16, ways);
        for (pc_index, target, install) in ops {
            let pc = pc_index * 4;
            if install {
                btb.update(pc, target);
                reference.update(pc, target);
            }
            prop_assert_eq!(btb.lookup(pc), reference.lookup(pc));
        }
        for pc_index in 0..64u64 {
            prop_assert_eq!(btb.lookup(pc_index * 4), reference.lookup(pc_index * 4));
        }
    }
}

/// A BTB as one most-recently-used list per set.
struct ReferenceBtb {
    sets: Vec<Vec<(u64, u64)>>,
    ways: usize,
}

impl ReferenceBtb {
    fn new(entries: usize, ways: usize) -> Self {
        ReferenceBtb {
            sets: vec![Vec::new(); entries / ways],
            ways,
        }
    }

    fn set(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.sets.len()
    }

    fn lookup(&self, pc: u64) -> Option<u64> {
        let set = &self.sets[self.set(pc)];
        set.iter().find(|e| e.0 == pc).map(|e| e.1)
    }

    fn update(&mut self, pc: u64, target: u64) {
        let ways = self.ways;
        let si = self.set(pc);
        let set = &mut self.sets[si];
        if let Some(pos) = set.iter().position(|e| e.0 == pc) {
            set.remove(pos);
        } else if set.len() == ways {
            set.pop();
        }
        set.insert(0, (pc, target));
    }
}
