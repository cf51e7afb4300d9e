//! The pipeline's view of the memory system.
//!
//! The core is deliberately decoupled from any particular cache model: the
//! ICR schemes, the baselines and the test doubles all implement these two
//! traits. Latency is the only thing the pipeline needs back — the
//! functional side (data, protection, replication) stays inside the
//! implementation.

/// Data-side memory interface (the dL1 and everything below it).
pub trait DataMemory {
    /// Performs a load of the word at `addr` at absolute cycle `now`;
    /// returns the total load-to-use latency in cycles (≥ 1).
    fn load(&mut self, addr: u64, now: u64) -> u64;

    /// Performs a store to the word at `addr` at absolute cycle `now`;
    /// returns the cycles the store occupies commit (1 in the common,
    /// buffered case; more when a write-through buffer is full).
    fn store(&mut self, addr: u64, now: u64) -> u64;

    /// `true` once the memory side wants the run to end early. The core
    /// asks after every [`load`](Self::load) and [`store`](Self::store)
    /// and, on `true`, returns at once with the statistics gathered so
    /// far. One-shot fault trials use this to stop as soon as their
    /// fault's outcome is fixed; every other memory never halts.
    fn halted(&self) -> bool {
        false
    }
}

/// Instruction-side memory interface (the iL1 and everything below it).
pub trait InstrMemory {
    /// Fetches the instruction at `pc` at absolute cycle `now`; returns the
    /// fetch latency in cycles (≥ 1).
    fn fetch(&mut self, pc: u64, now: u64) -> u64;
}

/// An ideal memory: every access takes one cycle. Useful for isolating the
/// core in tests and for upper-bound comparisons.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectMemory;

impl DataMemory for PerfectMemory {
    fn load(&mut self, _addr: u64, _now: u64) -> u64 {
        1
    }
    fn store(&mut self, _addr: u64, _now: u64) -> u64 {
        1
    }
}

impl InstrMemory for PerfectMemory {
    fn fetch(&mut self, _pc: u64, _now: u64) -> u64 {
        1
    }
}

/// A fixed-latency data memory for tests: every load costs `load_latency`,
/// every store costs `store_latency`.
#[derive(Debug, Clone, Copy)]
pub struct FixedLatencyMemory {
    /// Latency charged to every load.
    pub load_latency: u64,
    /// Latency charged to every store.
    pub store_latency: u64,
}

impl DataMemory for FixedLatencyMemory {
    fn load(&mut self, _addr: u64, _now: u64) -> u64 {
        self.load_latency
    }
    fn store(&mut self, _addr: u64, _now: u64) -> u64 {
        self.store_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_memory_is_single_cycle() {
        let mut m = PerfectMemory;
        assert_eq!(m.load(0x1000, 5), 1);
        assert_eq!(m.store(0x1000, 5), 1);
        assert_eq!(m.fetch(0x400, 5), 1);
    }

    #[test]
    fn fixed_latency_memory_returns_configured_costs() {
        let mut m = FixedLatencyMemory {
            load_latency: 2,
            store_latency: 1,
        };
        assert_eq!(m.load(0, 0), 2);
        assert_eq!(m.store(0, 0), 1);
    }
}
