//! The cycle-level out-of-order core: fetch → dispatch → issue → execute →
//! writeback → commit, in the style of SimpleScalar's `sim-outorder` RUU
//! machine.
//!
//! The model is trace-driven: the instruction stream is the correct path,
//! so branch mispredictions are charged as front-end stalls (fetch halts at
//! a mispredicted branch and resumes `penalty` cycles after it resolves)
//! rather than by executing wrong-path instructions. Everything else — the
//! 16-entry RUU, the 8-entry LSQ, 4-wide issue, functional-unit contention,
//! store-to-load forwarding and non-blocking loads — is modelled per cycle,
//! which is what lets the superscalar core *hide* part of the dL1 latency,
//! the effect the paper's Figure 9 turns on.

use crate::bpred::{Btb, Combined, DirPredictor};
use crate::config::CpuConfig;
use crate::fu::{op_latency, FuPool};
use crate::mem::{DataMemory, InstrMemory};
use icr_trace::{Inst, OpClass};
use std::collections::VecDeque;

/// Aggregate results of a pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// Branches committed.
    pub branches: u64,
    /// Branches that were mispredicted.
    pub mispredicts: u64,
    /// Sum of observed load latencies (for the mean).
    pub load_latency_sum: u64,
}

impl PipelineStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Mean observed load latency in cycles.
    pub fn mean_load_latency(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.load_latency_sum as f64 / self.loads as f64
        }
    }

    /// Branch misprediction rate in `[0, 1]`.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Waiting,
    Issued { done_at: u64 },
    Done,
}

#[derive(Debug, Clone)]
struct Entry {
    inst: Inst,
    seq: u64,
    state: EntryState,
    /// Producer sequence numbers this entry waits on (snapshot at dispatch).
    deps: [Option<u64>; 2],
    mispredicted: bool,
    load_latency: u64,
}

/// The out-of-order core.
///
/// ```
/// use icr_cpu::{Pipeline, CpuConfig, PerfectMemory};
/// use icr_trace::{apps, TraceGenerator};
///
/// let mut cpu = Pipeline::new(CpuConfig::default());
/// let trace = TraceGenerator::new(apps::profile("gzip"), 1).take(10_000);
/// let stats = cpu.run(trace, &mut PerfectMemory, &mut PerfectMemory);
/// assert_eq!(stats.committed, 10_000);
/// assert!(stats.ipc() > 1.0); // 4-wide core on perfect memory
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: CpuConfig,
    bpred: Combined,
    btb: Btb,
}

impl Pipeline {
    /// Builds a core.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`CpuConfig::validate`].
    pub fn new(config: CpuConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid CPU config: {e}"));
        Pipeline {
            bpred: Combined::from_config(&config),
            btb: Btb::new(config.btb_entries, config.btb_ways),
            config,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Runs the core over `trace` until it is exhausted, against the given
    /// instruction and data memories. Returns the run's statistics.
    ///
    /// Use `trace.take(n)` to bound the instruction count. When `dmem`
    /// reports [`DataMemory::halted`] after an access, the run stops there
    /// and the statistics cover only the cycles simulated so far.
    pub fn run<I>(
        &mut self,
        trace: I,
        imem: &mut dyn InstrMemory,
        dmem: &mut dyn DataMemory,
    ) -> PipelineStats
    where
        I: IntoIterator<Item = Inst>,
    {
        let mut trace = trace.into_iter().peekable();
        let cfg = self.config;
        let mut stats = PipelineStats::default();
        let mut ruu: VecDeque<Entry> = VecDeque::with_capacity(cfg.ruu_size);
        let mut head_seq: u64 = 0;
        let mut next_seq: u64 = 0;
        // Latest producer of each architectural register, by sequence.
        let mut reg_producer: [Option<u64>; 64] = [None; 64];
        let mut fu = FuPool::from_config(&cfg);
        let mut cycle: u64 = 0;
        // Front-end control.
        let mut fetch_resume: u64 = 0;
        let mut fetch_halted_by: Option<u64> = None;
        let mut commit_blocked_until: u64 = 0;
        // Memory ops resident in the RUU (the LSQ occupancy), maintained
        // incrementally instead of rescanning the RUU per fetch.
        let mut mem_in_flight: usize = 0;
        // Incremental occupancy bookkeeping, so the writeback and issue
        // scans run only on cycles where they can transition something:
        // how many entries are Issued and the earliest cycle any of them
        // completes (u64::MAX when none), and how many are Waiting.
        let mut issued_cnt: usize = 0;
        let mut next_done: u64 = u64::MAX;
        let mut waiting_cnt: usize = 0;

        let entry_done = |ruu: &VecDeque<Entry>, head: u64, seq: u64| -> bool {
            if seq < head {
                return true; // already committed
            }
            match ruu.get((seq - head) as usize) {
                Some(e) => e.state == EntryState::Done,
                None => true,
            }
        };

        'run: loop {
            // ---- Writeback: finish execution, resolve branches. ----
            // The scan can only transition entries when some Issued op has
            // reached its completion cycle; `next_done` tracks the
            // earliest one, so most cycles skip the scan outright.
            let mut wrote_back = 0usize;
            if issued_cnt > 0 && next_done <= cycle {
                let mut resolved_halt: Option<u64> = None;
                let mut remaining_next = u64::MAX;
                for e in ruu.iter_mut() {
                    if let EntryState::Issued { done_at } = e.state {
                        if done_at <= cycle {
                            e.state = EntryState::Done;
                            wrote_back += 1;
                            issued_cnt -= 1;
                            if e.mispredicted && fetch_halted_by == Some(e.seq) {
                                resolved_halt = Some(done_at + cfg.mispredict_penalty);
                            }
                        } else {
                            remaining_next = remaining_next.min(done_at);
                        }
                    }
                }
                next_done = remaining_next;
                if let Some(resume) = resolved_halt {
                    fetch_halted_by = None;
                    fetch_resume = fetch_resume.max(resume);
                }
            }

            // ---- Commit: retire completed head entries in order. ----
            let mut committed_now = 0;
            if cycle >= commit_blocked_until {
                while committed_now < cfg.commit_width {
                    let Some(head) = ruu.front() else { break };
                    if head.state != EntryState::Done {
                        break;
                    }
                    let e = ruu.pop_front().expect("front exists");
                    head_seq = e.seq + 1;
                    stats.committed += 1;
                    if e.inst.op.is_mem() {
                        mem_in_flight -= 1;
                    }
                    committed_now += 1;
                    match e.inst.op {
                        OpClass::Load => {
                            stats.loads += 1;
                            stats.load_latency_sum += e.load_latency;
                        }
                        OpClass::Store => {
                            stats.stores += 1;
                            // The dL1 write (and any ICR replication)
                            // happens at retire.
                            let lat = dmem.store(e.inst.mem_addr.expect("store has addr"), cycle);
                            if dmem.halted() {
                                break 'run;
                            }
                            if lat > 1 {
                                commit_blocked_until = cycle + lat - 1;
                            }
                        }
                        OpClass::Branch => {
                            stats.branches += 1;
                            if e.mispredicted {
                                stats.mispredicts += 1;
                            }
                        }
                        _ => {}
                    }
                    // Retire the register mapping if this was the last
                    // producer.
                    if let Some(d) = e.inst.dest {
                        if reg_producer[d.0 as usize] == Some(e.seq) {
                            reg_producer[d.0 as usize] = None;
                        }
                    }
                    if e.inst.op == OpClass::Store && commit_blocked_until > cycle {
                        break; // a stalled store blocks younger commits
                    }
                }
            }

            // ---- Issue: start ready waiting entries, oldest first. ----
            // Skipped when nothing is Waiting; the FU pool's per-cycle
            // counters only matter to `try_claim`, so resetting them is
            // deferred to cycles that can actually issue.
            let mut issued = 0;
            let waiting_at_start = waiting_cnt;
            if waiting_at_start > 0 {
                fu.new_cycle();
                let mut waiting_seen = 0;
                for i in 0..ruu.len() {
                    if issued == cfg.issue_width || waiting_seen == waiting_at_start {
                        break;
                    }
                    if ruu[i].state != EntryState::Waiting {
                        continue;
                    }
                    waiting_seen += 1;
                    let deps_ready = ruu[i]
                        .deps
                        .iter()
                        .flatten()
                        .all(|&d| entry_done(&ruu, head_seq, d));
                    if !deps_ready {
                        continue;
                    }
                    // Loads must respect older same-word stores (no
                    // speculation past unresolved conflicting stores; forward
                    // from completed ones).
                    let mut load_forwarded = false;
                    if ruu[i].inst.op == OpClass::Load {
                        let my_word = ruu[i].inst.mem_addr.expect("load has addr") >> 3;
                        let my_seq = ruu[i].seq;
                        let mut blocked = false;
                        for e in ruu.iter() {
                            if e.seq >= my_seq {
                                break;
                            }
                            if e.inst.op == OpClass::Store
                                && e.inst.mem_addr.map(|a| a >> 3) == Some(my_word)
                            {
                                if e.state == EntryState::Done {
                                    load_forwarded = true; // will forward
                                } else {
                                    blocked = true; // store not executed yet
                                    break;
                                }
                            }
                        }
                        if blocked {
                            continue;
                        }
                    }
                    if !fu.try_claim(ruu[i].inst.op) {
                        continue;
                    }
                    let lat = match ruu[i].inst.op {
                        OpClass::Load => {
                            let lat = if load_forwarded {
                                1
                            } else {
                                let lat =
                                    dmem.load(ruu[i].inst.mem_addr.expect("load has addr"), cycle);
                                if dmem.halted() {
                                    break 'run;
                                }
                                lat
                            };
                            ruu[i].load_latency = lat;
                            lat
                        }
                        op => op_latency(op),
                    };
                    let done_at = cycle + lat;
                    ruu[i].state = EntryState::Issued { done_at };
                    issued += 1;
                    waiting_cnt -= 1;
                    issued_cnt += 1;
                    next_done = next_done.min(done_at);
                }
            }

            // ---- Fetch/dispatch: bring in new instructions. ----
            let mut fetched = 0;
            if fetch_halted_by.is_none() && cycle >= fetch_resume {
                while fetched < cfg.fetch_width {
                    if ruu.len() >= cfg.ruu_size {
                        break;
                    }
                    let Some(next) = trace.peek() else { break };
                    if next.op.is_mem() && mem_in_flight >= cfg.lsq_size {
                        break;
                    }
                    let inst = trace.next().expect("peeked");
                    if inst.op.is_mem() {
                        mem_in_flight += 1;
                    }
                    let flat = imem.fetch(inst.pc, cycle);
                    let mut ends_group = false;
                    if flat > 1 {
                        // icache miss: this group ends and fetch resumes
                        // when the line arrives.
                        fetch_resume = cycle + flat - 1;
                        ends_group = true;
                    }
                    let seq = next_seq;
                    next_seq += 1;
                    let deps = [
                        inst.srcs[0].and_then(|r| reg_producer[r.0 as usize]),
                        inst.srcs[1].and_then(|r| reg_producer[r.0 as usize]),
                    ];
                    let mut mispredicted = false;
                    if inst.op == OpClass::Branch {
                        let pred_taken = self.bpred.predict(inst.pc);
                        let pred_target = self.btb.lookup(inst.pc);
                        mispredicted = pred_taken != inst.taken
                            || (inst.taken && pred_target != Some(inst.target));
                        self.bpred.update(inst.pc, inst.taken);
                        if inst.taken {
                            self.btb.update(inst.pc, inst.target);
                            ends_group = true; // taken branch ends the group
                        }
                        if mispredicted {
                            fetch_halted_by = Some(seq);
                            ends_group = true;
                        }
                    }
                    if let Some(d) = inst.dest {
                        reg_producer[d.0 as usize] = Some(seq);
                    }
                    ruu.push_back(Entry {
                        inst,
                        seq,
                        state: EntryState::Waiting,
                        deps,
                        mispredicted,
                        load_latency: 0,
                    });
                    waiting_cnt += 1;
                    fetched += 1;
                    if ends_group {
                        break;
                    }
                }
            }

            // ---- Idle-cycle skip. ----
            // A cycle that wrote back, committed, issued and fetched
            // nothing leaves the whole machine state untouched: every
            // per-cycle scan above is then a pure function of time, and
            // re-running it yields the same nothing until the next timed
            // event. Jump straight there. The only timed events are an
            // in-flight op completing (its `done_at`), a stalled store's
            // commit block expiring over an already-Done head, and the
            // front end's `fetch_resume`; everything else can only change
            // as a consequence of one of those. This is a pure wall-clock
            // optimisation — `cycle` takes exactly the values at which the
            // naive loop would have done work, so results are bit-exact.
            if wrote_back == 0 && committed_now == 0 && issued == 0 && fetched == 0 {
                // `next_done` is exactly min done_at over Issued entries
                // (u64::MAX when none) — no rescan needed.
                let mut event = next_done;
                if commit_blocked_until > cycle
                    && ruu.front().is_some_and(|h| h.state == EntryState::Done)
                {
                    event = event.min(commit_blocked_until);
                }
                if fetch_halted_by.is_none() && fetch_resume > cycle && trace.peek().is_some() {
                    event = event.min(fetch_resume);
                }
                if event != u64::MAX && event > cycle + 1 {
                    cycle = event;
                    continue;
                }
            }

            cycle += 1;
            if ruu.is_empty() && trace.peek().is_none() {
                break;
            }
            // Safety valve: a cycle-level model must always make progress;
            // a hang here is a bug, so fail loudly rather than spin.
            assert!(
                cycle < stats.committed.max(1) * 1000 + 1_000_000,
                "pipeline stopped making progress at cycle {cycle}"
            );
        }
        stats.cycles = cycle;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{FixedLatencyMemory, PerfectMemory};
    use icr_trace::{apps, Reg, TraceGenerator};

    fn run_app(app: &str, n: usize, dmem: &mut dyn DataMemory) -> PipelineStats {
        let mut cpu = Pipeline::new(CpuConfig::default());
        let trace = TraceGenerator::new(apps::profile(app), 1).take(n);
        cpu.run(trace, &mut PerfectMemory, dmem)
    }

    #[test]
    fn commits_every_instruction() {
        let stats = run_app("gzip", 20_000, &mut PerfectMemory);
        assert_eq!(stats.committed, 20_000);
        assert!(stats.cycles > 0);
    }

    /// Halts after its `limit`-th access.
    struct HaltingMemory {
        accesses: u64,
        limit: u64,
    }

    impl DataMemory for HaltingMemory {
        fn load(&mut self, _addr: u64, _now: u64) -> u64 {
            self.accesses += 1;
            1
        }
        fn store(&mut self, _addr: u64, _now: u64) -> u64 {
            self.accesses += 1;
            1
        }
        fn halted(&self) -> bool {
            self.accesses >= self.limit
        }
    }

    #[test]
    fn halting_memory_stops_the_run_at_that_access() {
        let mut mem = HaltingMemory {
            accesses: 0,
            limit: 100,
        };
        let stats = run_app("gzip", 20_000, &mut mem);
        assert_eq!(mem.accesses, 100, "no access after the halt");
        assert!(stats.committed < 20_000);
        let full = run_app("gzip", 20_000, &mut PerfectMemory);
        assert!(stats.cycles < full.cycles);
    }

    #[test]
    fn ipc_is_superscalar_but_bounded() {
        let stats = run_app("gzip", 20_000, &mut PerfectMemory);
        let ipc = stats.ipc();
        assert!(ipc > 1.0, "4-wide core should exceed 1 IPC, got {ipc:.2}");
        assert!(ipc <= 4.0, "cannot exceed machine width, got {ipc:.2}");
    }

    #[test]
    fn slower_loads_cost_cycles() {
        let fast = run_app("gzip", 20_000, &mut PerfectMemory);
        let mut slow_mem = FixedLatencyMemory {
            load_latency: 2,
            store_latency: 1,
        };
        let slow = run_app("gzip", 20_000, &mut slow_mem);
        assert!(
            slow.cycles > fast.cycles,
            "2-cycle loads must cost cycles: {} vs {}",
            slow.cycles,
            fast.cycles
        );
        // But the OoO core hides part of it: the slowdown is less than the
        // full extra cycle per load.
        let hidden = (slow.cycles - fast.cycles) as f64;
        assert!(
            hidden < fast.loads as f64,
            "OoO must hide some load latency: {hidden} extra cycles for {} loads",
            fast.loads
        );
    }

    #[test]
    fn very_slow_memory_dominates_runtime() {
        let mut mem = FixedLatencyMemory {
            load_latency: 100,
            store_latency: 1,
        };
        let stats = run_app("gzip", 5_000, &mut mem);
        assert!(
            stats.ipc() < 1.0,
            "100-cycle loads should crush IPC, got {:.2}",
            stats.ipc()
        );
    }

    #[test]
    fn branch_prediction_learns_the_program() {
        let stats = run_app("mesa", 50_000, &mut PerfectMemory);
        // mesa's profile is highly predictable (0.94).
        assert!(
            stats.mispredict_rate() < 0.15,
            "predictable code should predict well, got {:.3}",
            stats.mispredict_rate()
        );
    }

    #[test]
    fn gcc_mispredicts_more_than_mesa() {
        let mesa = run_app("mesa", 50_000, &mut PerfectMemory);
        let gcc = run_app("gcc", 50_000, &mut PerfectMemory);
        assert!(
            gcc.mispredict_rate() > mesa.mispredict_rate(),
            "gcc {:.3} should out-mispredict mesa {:.3}",
            gcc.mispredict_rate(),
            mesa.mispredict_rate()
        );
    }

    #[test]
    fn counts_match_trace_mix() {
        let n = 30_000;
        let trace: Vec<_> = TraceGenerator::new(apps::profile("vortex"), 1)
            .take(n)
            .collect();
        let expected_loads = trace.iter().filter(|i| i.op == OpClass::Load).count() as u64;
        let expected_stores = trace.iter().filter(|i| i.op == OpClass::Store).count() as u64;
        let mut cpu = Pipeline::new(CpuConfig::default());
        let stats = cpu.run(trace, &mut PerfectMemory, &mut PerfectMemory);
        assert_eq!(stats.loads, expected_loads);
        assert_eq!(stats.stores, expected_stores);
    }

    #[test]
    fn store_to_load_forwarding_hides_memory() {
        // A long-latency load holds up in-order commit; behind it, a store
        // to X executes and a load of X must forward from the LSQ instead
        // of paying memory latency again.
        let insts = vec![
            Inst::load(0x100, 0x9000, Reg(9), None),
            Inst::store(0x104, 0x8000, Reg(1), None),
            Inst::load(0x108, 0x8000, Reg(2), None),
        ];
        let mut mem = FixedLatencyMemory {
            load_latency: 50,
            store_latency: 1,
        };
        let mut cpu = Pipeline::new(CpuConfig::default());
        let stats = cpu.run(insts, &mut PerfectMemory, &mut mem);
        assert_eq!(stats.committed, 3);
        assert!(
            stats.cycles < 70,
            "second load must forward, not serialise: took {}",
            stats.cycles
        );
        assert_eq!(
            stats.load_latency_sum, 51,
            "first load pays 50, forwarded load pays 1"
        );
    }

    #[test]
    fn dependent_chain_serialises() {
        // A chain of dependent adds cannot exceed 1 IPC.
        let insts: Vec<_> = (0..1000)
            .map(|i| Inst::alu(0x100 + i * 4, OpClass::IntAlu, Reg(1), [Some(Reg(1)), None]))
            .collect();
        let mut cpu = Pipeline::new(CpuConfig::default());
        let stats = cpu.run(insts, &mut PerfectMemory, &mut PerfectMemory);
        assert!(
            stats.cycles >= 1000,
            "dependent chain must serialise, took {}",
            stats.cycles
        );
    }

    #[test]
    fn independent_ops_run_wide() {
        // Independent adds across many registers should push IPC toward 4
        // (bounded by the 4 integer ALUs).
        let insts: Vec<_> = (0..4000u64)
            .map(|i| {
                Inst::alu(
                    0x100 + i * 4,
                    OpClass::IntAlu,
                    Reg((i % 24) as u8),
                    [None, None],
                )
            })
            .collect();
        let mut cpu = Pipeline::new(CpuConfig::default());
        let stats = cpu.run(insts, &mut PerfectMemory, &mut PerfectMemory);
        assert!(
            stats.ipc() > 2.5,
            "independent adds should run wide, got {:.2}",
            stats.ipc()
        );
    }

    #[test]
    fn empty_trace_is_fine() {
        let mut cpu = Pipeline::new(CpuConfig::default());
        let stats = cpu.run(Vec::new(), &mut PerfectMemory, &mut PerfectMemory);
        assert_eq!(stats.committed, 0);
    }
}
