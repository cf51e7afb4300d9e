//! Taped trials: replay a one-shot fault trial against the memory-side
//! events of its cell's fault-free run instead of re-running the core.
//!
//! The out-of-order core is a pure function of the trace, the latencies
//! its two memory ports return and `halted()`. A [`Tape`] records, in
//! call order, every event of a fault-free run that touches state a
//! trial can change: each dL1 load or store (address, cycle, returned
//! latency) and each iL1 miss's L2 read (block, latency). iL1 hits never
//! reach the backend, so they are not taped.
//!
//! [`Tape::replay`] builds only the memory side of a trial (dL1, L2 and
//! memory, injector, seal watch) and feeds it the taped events. As long
//! as every replayed event returns the taped latency, a real core would
//! have issued exactly the taped next event, so the replay *is* the
//! trial. After each dL1 event the seal is checked first: a sealed trial
//! stops there, whatever that access returned, because the real machine
//! halts right after it too. The first latency that differs ends the
//! replay and [`run_trial_taped`] falls back to [`run_trial`], which
//! keeps every result exact by construction. DESIGN.md §14 has the
//! argument in full.

use crate::simulator::{
    is_one_shot, record, run_trial, trace_of, MemSide, SimConfig, SimResult, TrialResult,
};
use icr_mem::BlockAddr;
use icr_trace::Inst;
use std::collections::HashSet;
use std::sync::Arc;

/// The kind of a taped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// A dL1 load of a word address.
    Load,
    /// A dL1 store to a word address.
    Store,
    /// An iL1 miss's read of an L2 block.
    L2Read,
}

/// A dL1 event whose address, cycle gap or latency does not fit the
/// narrow per-event arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WideEvent {
    index: usize,
    addr: u64,
    delta: u64,
    latency: u64,
}

/// An iL1 miss's L2 read, made just before dL1 event `before`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct L2Read {
    before: usize,
    block: u64,
    latency: u64,
}

/// Collects a run's events as the ports see them, in the arrays of a
/// [`Tape`].
#[derive(Debug)]
pub(crate) struct Recorder {
    addrs: Vec<u32>,
    deltas: Vec<u16>,
    packed: Vec<u16>,
    wide: Vec<WideEvent>,
    l2_reads: Vec<L2Read>,
    last_cycle: u64,
}

impl Recorder {
    /// A recorder sized for `trace`: one dL1 event per memory
    /// instruction.
    pub(crate) fn for_trace(trace: &[Inst]) -> Recorder {
        let mem_ops = trace.iter().filter(|i| i.mem_addr().is_some()).count();
        Recorder {
            addrs: Vec::with_capacity(mem_ops),
            deltas: Vec::with_capacity(mem_ops),
            packed: Vec::with_capacity(mem_ops),
            wide: Vec::new(),
            l2_reads: Vec::new(),
            last_cycle: 0,
        }
    }

    /// Tapes one event at cycle `now` that returned `latency`. `addr` is
    /// the word address of a dL1 event or the block of an L2 read.
    pub(crate) fn push(&mut self, kind: Event, addr: u64, now: u64, latency: u64) {
        let index = self.packed.len();
        if kind == Event::L2Read {
            self.l2_reads.push(L2Read {
                before: index,
                block: addr,
                latency,
            });
            return;
        }
        // Wrapping keeps any cycle order exact; the core's never goes
        // backwards, so in practice gaps are small and non-negative.
        let delta = now.wrapping_sub(self.last_cycle);
        self.last_cycle = now;
        let store = u16::from(kind == Event::Store);
        let narrow = (
            u32::try_from(addr),
            u16::try_from(delta),
            u16::try_from(latency).ok().filter(|&l| l <= u16::MAX >> 1),
        );
        if let (Ok(a), Ok(d), Some(l)) = narrow {
            self.addrs.push(a);
            self.deltas.push(d);
            self.packed.push(l << 1 | store);
        } else {
            self.wide.push(WideEvent {
                index,
                addr,
                delta,
                latency,
            });
            self.addrs.push(0);
            self.deltas.push(0);
            self.packed.push(store);
        }
    }
}

/// The memory-side events of one fault-free run and the configuration
/// they were recorded from.
///
/// Each dL1 event takes 8 bytes across three narrow arrays: the low 32
/// bits of its word address, its cycle gap to the previous dL1 event
/// (16 bits) and its latency with a store bit (16 bits). The rare event
/// with a wider field is stored whole in a side list, and the iL1's
/// misses — a handful per run — in another, each keyed by the dL1 event
/// it precedes.
#[derive(Debug, Clone, PartialEq)]
pub struct Tape {
    config: SimConfig,
    addrs: Box<[u32]>,
    deltas: Box<[u16]>,
    /// `latency << 1 | is_store`.
    packed: Box<[u16]>,
    wide: Box<[WideEvent]>,
    l2_reads: Box<[L2Read]>,
}

impl Tape {
    /// Runs `config` once with fault injection removed (no fault, site
    /// bias or forced arrival) and tapes its memory side. Also returns
    /// that run's result, which equals [`run_sim`](crate::run_sim)'s for
    /// the same configuration.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration or unknown application name.
    pub fn record(config: &SimConfig) -> (SimResult, Tape) {
        let config = fault_free(config);
        let (result, rec) = record(&config);
        let tape = Tape {
            config,
            addrs: rec.addrs.into_boxed_slice(),
            deltas: rec.deltas.into_boxed_slice(),
            packed: rec.packed.into_boxed_slice(),
            wide: rec.wide.into_boxed_slice(),
            l2_reads: rec.l2_reads.into_boxed_slice(),
        };
        (result, tape)
    }

    /// The fault-free configuration the tape was recorded from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Replays the trial `config` describes against the tape. Returns
    /// `None`, having simulated only a prefix, when `config` is not a
    /// faulted form of the tape's configuration or some event's latency
    /// differs from the taped one before the trial's fault is sealed;
    /// otherwise returns exactly what [`run_trial`] would. `hot_blocks`
    /// is as for [`run_trial`].
    pub fn replay(
        &self,
        config: &SimConfig,
        hot_blocks: Option<Arc<HashSet<u64>>>,
    ) -> Option<TrialResult> {
        if fault_free(config) != self.config {
            return None;
        }
        let trace = trace_of(config);
        let mut mem = MemSide::new(config, &trace, hot_blocks, is_one_shot(config));
        let mut l2_reads = self.l2_reads.iter().peekable();
        let mut wide = self.wide.iter().peekable();
        let mut now = 0u64;
        for (i, &packed) in self.packed.iter().enumerate() {
            while let Some(r) = l2_reads.next_if(|r| r.before == i) {
                if mem.backend.read_block(BlockAddr(r.block)).1 != r.latency {
                    return None;
                }
            }
            let (addr, delta, taped) = match wide.next_if(|w| w.index == i) {
                Some(w) => (w.addr, w.delta, w.latency),
                None => (
                    u64::from(self.addrs[i]),
                    u64::from(self.deltas[i]),
                    u64::from(packed >> 1),
                ),
            };
            now = now.wrapping_add(delta);
            let latency = if packed & 1 == 0 {
                mem.load(addr, now)
            } else {
                mem.store(addr, now)
            };
            if mem.sealed {
                break;
            }
            if latency != taped {
                return None;
            }
        }
        // L2 reads after the last dL1 event cannot reach the result.
        Some(mem.trial_result(config))
    }
}

/// `config` with fault injection removed: no fault, site bias or forced
/// arrival. Every trial of a campaign cell shares this configuration.
fn fault_free(config: &SimConfig) -> SimConfig {
    let mut config = config.clone();
    config.fault = None;
    config.fault_bias = None;
    config.fault_arrival = None;
    config
}

/// Runs one fault trial against `tape`, the tape of its fault-free
/// configuration, falling back to [`run_trial`] when the replay
/// diverges ([`Tape::replay`]). The result always equals
/// [`run_trial`]'s.
///
/// # Panics
///
/// Panics on an invalid configuration or unknown application name.
pub fn run_trial_taped(
    config: &SimConfig,
    hot_blocks: Option<Arc<HashSet<u64>>>,
    tape: &Tape,
) -> TrialResult {
    tape.replay(config, hot_blocks.clone())
        .unwrap_or_else(|| run_trial(config, hot_blocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{run_sim, FaultConfig};
    use icr_core::{DataL1Config, Scheme};
    use icr_fault::ErrorModel;

    fn base() -> SimConfig {
        SimConfig::builder("gzip", DataL1Config::paper_default(Scheme::ICR_P_PS_S))
            .instructions(4_000)
            .seed(3)
            .build()
    }

    fn trial(seed: u64) -> SimConfig {
        let mut c = base();
        c.fault = Some(FaultConfig::one_shot(ErrorModel::Random, 0.002, seed));
        c
    }

    #[test]
    fn recording_returns_the_fault_free_result() {
        let (result, tape) = Tape::record(&trial(1));
        assert_eq!(result, run_sim(&base()));
        assert_eq!(tape.config(), &base());
        assert_eq!(tape.packed.len() as u64, result.icr.cache.accesses());
        assert!(!tape.l2_reads.is_empty(), "iL1 misses read the L2");
        assert!(tape.wide.is_empty());
    }

    #[test]
    fn replayed_trials_equal_run_trial() {
        let (_, tape) = Tape::record(&base());
        for seed in 0..12 {
            let cfg = trial(seed);
            assert_eq!(
                run_trial_taped(&cfg, None, &tape),
                run_trial(&cfg, None),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn a_corrupted_latency_falls_back_to_the_exact_result() {
        let (_, mut tape) = Tape::record(&base());
        let cfg = trial(5);
        let exact = run_trial(&cfg, None);
        assert!(tape.replay(&cfg, None).is_some());
        // Corrupt the first dL1 event's latency, long before the fault
        // arrives: the replay must notice, and the fallback be exact.
        let mut packed = tape.packed.to_vec();
        packed[0] += 2;
        tape.packed = packed.into_boxed_slice();
        assert_eq!(tape.replay(&cfg, None), None);
        assert_eq!(run_trial_taped(&cfg, None, &tape), exact);
    }

    #[test]
    fn foreign_configurations_are_not_replayed() {
        let (_, tape) = Tape::record(&base());
        let mut other = trial(2);
        other.seed = 4;
        assert_eq!(tape.replay(&other, None), None);
        assert_eq!(
            run_trial_taped(&other, None, &tape),
            run_trial(&other, None)
        );
    }

    #[test]
    fn events_that_do_not_fit_go_to_the_side_list() {
        let mut rec = Recorder::for_trace(&[]);
        rec.push(Event::Load, 8, 5, 3);
        rec.push(Event::L2Read, 64, 6, 106);
        rec.push(Event::Store, 1 << 40, 6, 1);
        rec.push(Event::Load, 16, 6 + (1 << 20), 2);
        rec.push(Event::Load, 24, 7 + (1 << 20), 1 << 15);
        let e = &rec;
        assert_eq!(e.packed, [3 << 1, 1, 0, 0]);
        assert_eq!(e.addrs, [8, 0, 0, 0]);
        assert_eq!(e.deltas, [5, 0, 0, 0]);
        let wide: Vec<_> = e
            .wide
            .iter()
            .map(|w| (w.index, w.addr, w.delta, w.latency))
            .collect();
        assert_eq!(
            wide,
            [(1, 1 << 40, 1, 1), (2, 16, 1 << 20, 2), (3, 24, 1, 1 << 15)]
        );
        assert_eq!(
            e.l2_reads,
            [L2Read {
                before: 1,
                block: 64,
                latency: 106
            }]
        );
    }
}
