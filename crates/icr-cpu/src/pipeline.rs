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
//!
//! The RUU is a ring of [`MAX_RUU_SIZE`] slots indexed by `seq & 63`,
//! scheduled through `u64` masks with one bit per slot: the scans visit
//! only the bits that can matter (DESIGN.md §15).

use crate::bpred::{Btb, Combined, DirPredictor};
use crate::config::{CpuConfig, MAX_RUU_SIZE};
use crate::fu::{op_latency, FuPool};
use crate::mem::{DataMemory, InstrMemory};
use icr_trace::{Inst, OpClass, Reg};

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

/// A dependence or register mapping with no in-flight producer.
const NO_SEQ: u64 = u64::MAX;

/// What the scheduler keeps of the instruction in one RUU slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    op: OpClass,
    mispredicted: bool,
    dest: Option<Reg>,
    /// Effective address of a load or store.
    addr: u64,
    /// Completion cycle, once issued.
    done_at: u64,
    load_latency: u64,
}

const EMPTY_SLOT: Slot = Slot {
    op: OpClass::IntAlu,
    mispredicted: false,
    dest: None,
    addr: 0,
    done_at: 0,
    load_latency: 0,
};

/// The RUU: sequence numbers `head..tail` in slots `seq & 63`, and the
/// state of each occupied slot as one bit in exactly one of `waiting`,
/// `issued` and `done`. `stores` marks the occupied slots holding a
/// store, and `blocked` the waiting ones with a producer that has not
/// written back.
struct Ring {
    slots: [Slot; MAX_RUU_SIZE],
    /// Per slot: the producer slots it still waits on.
    pending: [u64; MAX_RUU_SIZE],
    /// Per slot: the consumer slots waiting on it.
    wakes: [u64; MAX_RUU_SIZE],
    waiting: u64,
    issued: u64,
    done: u64,
    stores: u64,
    blocked: u64,
    head: u64,
    tail: u64,
}

/// How a ready load relates to the older stores to its word.
enum StoreMatch {
    /// No older store writes the word: the load reads memory.
    None,
    /// Every older store to the word has executed: the load forwards.
    Forward,
    /// Some older store to the word has not executed: the load waits.
    Blocked,
}

/// The slot of sequence number `seq`.
fn slot_of(seq: u64) -> usize {
    (seq & (MAX_RUU_SIZE as u64 - 1)) as usize
}

impl Ring {
    fn new() -> Ring {
        Ring {
            slots: [EMPTY_SLOT; MAX_RUU_SIZE],
            pending: [0; MAX_RUU_SIZE],
            wakes: [0; MAX_RUU_SIZE],
            waiting: 0,
            issued: 0,
            done: 0,
            stores: 0,
            blocked: 0,
            head: 0,
            tail: 0,
        }
    }

    fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// `mask` rotated so bit `k` is the slot of sequence `head + k`: the
    /// set bits from the lowest up are then oldest first.
    fn by_age(&self, mask: u64) -> u64 {
        mask.rotate_right(slot_of(self.head) as u32)
    }

    /// Whether the value of producer `seq` is available: no producer, or
    /// it has committed, or it has written back. Slots are reused, so a
    /// committed producer is recognised by its sequence number.
    fn ready(&self, seq: u64) -> bool {
        seq == NO_SEQ || seq < self.head || self.done & (1 << slot_of(seq)) != 0
    }

    fn head_done(&self) -> bool {
        self.done & (1 << slot_of(self.head)) != 0
    }

    /// Classifies the stores older than the entry `age` slots past the
    /// head that write word `word`.
    fn older_stores_to(&self, age: u32, word: u64) -> StoreMatch {
        let mut older = self.by_age(self.stores) & ((1 << age) - 1);
        let mut found = StoreMatch::None;
        while older != 0 {
            let slot = slot_of(self.head + u64::from(older.trailing_zeros()));
            older &= older - 1;
            if self.slots[slot].addr >> 3 == word {
                if self.done & (1 << slot) == 0 {
                    return StoreMatch::Blocked;
                }
                found = StoreMatch::Forward;
            }
        }
        found
    }

    /// Dispatches `slot` as sequence `tail`, waiting to issue until the
    /// producers `deps` ([`NO_SEQ`] for none) have written back.
    fn push(&mut self, slot: Slot, deps: [u64; 2]) {
        let i = slot_of(self.tail);
        self.slots[i] = slot;
        self.wakes[i] = 0;
        let mut pending = 0;
        for seq in deps {
            if !self.ready(seq) {
                let producer = slot_of(seq);
                pending |= 1 << producer;
                self.wakes[producer] |= 1 << i;
            }
        }
        self.pending[i] = pending;
        if pending != 0 {
            self.blocked |= 1 << i;
        }
        self.waiting |= 1 << i;
        if slot.op == OpClass::Store {
            self.stores |= 1 << i;
        }
        self.tail += 1;
    }

    /// Moves the issued slots `finished` to done and unblocks the
    /// consumers that were waiting only on them.
    fn write_back(&mut self, finished: u64) {
        self.issued &= !finished;
        self.done |= finished;
        let mut producers = finished;
        while producers != 0 {
            let producer = producers.trailing_zeros() as usize;
            producers &= producers - 1;
            let mut consumers = self.wakes[producer];
            while consumers != 0 {
                let c = consumers.trailing_zeros() as usize;
                consumers &= consumers - 1;
                self.pending[c] &= !(1 << producer);
                if self.pending[c] == 0 {
                    self.blocked &= !(1 << c);
                }
            }
        }
    }

    /// Retires the head entry, which must be done.
    fn pop(&mut self) -> Slot {
        let i = slot_of(self.head);
        self.done &= !(1 << i);
        self.stores &= !(1 << i);
        self.head += 1;
        self.slots[i]
    }
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

/// Two separate ports as the one machine [`Pipeline::run_on`] drives.
struct Ports<'a> {
    imem: &'a mut dyn InstrMemory,
    dmem: &'a mut dyn DataMemory,
}

impl InstrMemory for Ports<'_> {
    fn fetch(&mut self, pc: u64, now: u64) -> u64 {
        self.imem.fetch(pc, now)
    }
}

impl DataMemory for Ports<'_> {
    fn load(&mut self, addr: u64, now: u64) -> u64 {
        self.dmem.load(addr, now)
    }
    fn store(&mut self, addr: u64, now: u64) -> u64 {
        self.dmem.store(addr, now)
    }
    fn halted(&self) -> bool {
        self.dmem.halted()
    }
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

    /// Runs the core over `trace` until it is exhausted, against separate
    /// instruction and data memories. Returns the run's statistics.
    ///
    /// This is [`run_on`](Self::run_on) with the two ports paired into
    /// one machine; a caller that owns a single value implementing both
    /// traits should call `run_on` directly, so each access is a static
    /// call.
    pub fn run<I>(
        &mut self,
        trace: I,
        imem: &mut dyn InstrMemory,
        dmem: &mut dyn DataMemory,
    ) -> PipelineStats
    where
        I: IntoIterator<Item = Inst>,
    {
        self.run_on(trace, &mut Ports { imem, dmem })
    }

    /// Runs the core over `trace` until it is exhausted, against `mem`,
    /// which serves both instruction fetches and data accesses. Returns
    /// the run's statistics.
    ///
    /// Use `trace.take(n)` to bound the instruction count. When `mem`
    /// reports [`DataMemory::halted`] after an access, the run stops there
    /// and the statistics cover only the cycles simulated so far.
    pub fn run_on<I, M>(&mut self, trace: I, mem: &mut M) -> PipelineStats
    where
        I: IntoIterator<Item = Inst>,
        M: InstrMemory + DataMemory + ?Sized,
    {
        let mut trace = trace.into_iter().peekable();
        let cfg = self.config;
        let mut stats = PipelineStats::default();
        let mut ruu = Ring::new();
        // Latest producer of each architectural register, by sequence.
        let mut reg_producer = [NO_SEQ; 64];
        let mut fu = FuPool::from_config(&cfg);
        let mut cycle: u64 = 0;
        // Front-end control.
        let mut fetch_resume: u64 = 0;
        let mut fetch_halted_by: Option<u64> = None;
        let mut commit_blocked_until: u64 = 0;
        // Memory ops resident in the RUU (the LSQ occupancy), maintained
        // incrementally instead of rescanning the RUU per fetch.
        let mut mem_in_flight: usize = 0;
        // The earliest cycle any Issued entry completes (u64::MAX when
        // none), so the writeback scan runs only on cycles where it can
        // transition something.
        let mut next_done: u64 = u64::MAX;

        'run: loop {
            // ---- Writeback: finish execution, resolve branches. ----
            let mut finished = 0u64;
            if ruu.issued != 0 && next_done <= cycle {
                let mut remaining_next = u64::MAX;
                let mut scan = ruu.issued;
                while scan != 0 {
                    let slot = scan.trailing_zeros() as usize;
                    scan &= scan - 1;
                    let done_at = ruu.slots[slot].done_at;
                    if done_at <= cycle {
                        finished |= 1 << slot;
                    } else {
                        remaining_next = remaining_next.min(done_at);
                    }
                }
                ruu.write_back(finished);
                next_done = remaining_next;
                // The mispredicted branch fetch waits on, once it resolves.
                if let Some(seq) = fetch_halted_by {
                    let slot = slot_of(seq);
                    if finished & (1 << slot) != 0 {
                        fetch_halted_by = None;
                        fetch_resume =
                            fetch_resume.max(ruu.slots[slot].done_at + cfg.mispredict_penalty);
                    }
                }
            }

            // ---- Commit: retire completed head entries in order. ----
            let mut committed_now = 0;
            if cycle >= commit_blocked_until {
                while committed_now < cfg.commit_width && ruu.head_done() {
                    let seq = ruu.head;
                    let e = ruu.pop();
                    stats.committed += 1;
                    if e.op.is_mem() {
                        mem_in_flight -= 1;
                    }
                    committed_now += 1;
                    match e.op {
                        OpClass::Load => {
                            stats.loads += 1;
                            stats.load_latency_sum += e.load_latency;
                        }
                        OpClass::Store => {
                            stats.stores += 1;
                            // The dL1 write (and any ICR replication)
                            // happens at retire.
                            let lat = mem.store(e.addr, cycle);
                            if mem.halted() {
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
                    if let Some(d) = e.dest {
                        if reg_producer[d.0 as usize] == seq {
                            reg_producer[d.0 as usize] = NO_SEQ;
                        }
                    }
                    if e.op == OpClass::Store && commit_blocked_until > cycle {
                        break; // a stalled store blocks younger commits
                    }
                }
            }

            // ---- Issue: start ready waiting entries, oldest first. ----
            // Skipped when no waiting entry has all its operands; the FU
            // pool's per-cycle counters only matter to `try_claim`, so
            // resetting them is deferred to cycles that can actually
            // issue.
            let mut issued = 0;
            let ready = ruu.waiting & !ruu.blocked;
            if ready != 0 {
                fu.new_cycle();
                let mut candidates = ruu.by_age(ready);
                while candidates != 0 && issued < cfg.issue_width {
                    let age = candidates.trailing_zeros();
                    candidates &= candidates - 1;
                    let slot = slot_of(ruu.head + u64::from(age));
                    let e = ruu.slots[slot];
                    // Loads must respect older same-word stores (no
                    // speculation past unresolved conflicting stores; forward
                    // from completed ones).
                    let mut load_forwarded = false;
                    if e.op == OpClass::Load {
                        match ruu.older_stores_to(age, e.addr >> 3) {
                            StoreMatch::Blocked => continue,
                            StoreMatch::Forward => load_forwarded = true,
                            StoreMatch::None => {}
                        }
                    }
                    if !fu.try_claim(e.op) {
                        continue;
                    }
                    let lat = match e.op {
                        OpClass::Load => {
                            let lat = if load_forwarded {
                                1
                            } else {
                                let lat = mem.load(e.addr, cycle);
                                if mem.halted() {
                                    break 'run;
                                }
                                lat
                            };
                            ruu.slots[slot].load_latency = lat;
                            lat
                        }
                        op => op_latency(op),
                    };
                    let done_at = cycle + lat;
                    ruu.slots[slot].done_at = done_at;
                    ruu.waiting &= !(1 << slot);
                    ruu.issued |= 1 << slot;
                    issued += 1;
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
                    let flat = mem.fetch(inst.pc, cycle);
                    let mut ends_group = false;
                    if flat > 1 {
                        // icache miss: this group ends and fetch resumes
                        // when the line arrives.
                        fetch_resume = cycle + flat - 1;
                        ends_group = true;
                    }
                    let seq = ruu.tail;
                    let deps = inst
                        .srcs
                        .map(|r| r.map_or(NO_SEQ, |r| reg_producer[r.0 as usize]));
                    let mut mispredicted = false;
                    if inst.op == OpClass::Branch {
                        let pred_taken = self.bpred.predict(inst.pc);
                        let pred_target = self.btb.lookup(inst.pc);
                        mispredicted = pred_taken != inst.taken
                            || (inst.taken && pred_target != Some(inst.target()));
                        self.bpred.update(inst.pc, inst.taken);
                        if inst.taken {
                            self.btb.update(inst.pc, inst.target());
                            ends_group = true; // taken branch ends the group
                        }
                        if mispredicted {
                            fetch_halted_by = Some(seq);
                            ends_group = true;
                        }
                    }
                    if let Some(d) = inst.dest {
                        reg_producer[d.0 as usize] = seq;
                    }
                    ruu.push(
                        Slot {
                            op: inst.op,
                            mispredicted,
                            dest: inst.dest,
                            addr: inst.mem_addr().unwrap_or(0),
                            done_at: 0,
                            load_latency: 0,
                        },
                        deps,
                    );
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
            if finished == 0 && committed_now == 0 && issued == 0 && fetched == 0 {
                // `next_done` is exactly min done_at over Issued entries
                // (u64::MAX when none) — no rescan needed.
                let mut event = next_done;
                if commit_blocked_until > cycle && ruu.head_done() {
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
            Inst::load(0x100, 0x9000, Some(Reg(9)), [None, None]),
            Inst::store(0x104, 0x8000, [Some(Reg(1)), None]),
            Inst::load(0x108, 0x8000, Some(Reg(2)), [None, None]),
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
            .map(|i| {
                Inst::alu(
                    0x100 + i * 4,
                    OpClass::IntAlu,
                    Some(Reg(1)),
                    [Some(Reg(1)), None],
                )
            })
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
                    Some(Reg((i % 24) as u8)),
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
