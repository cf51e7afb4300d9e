//! Single-layer measurements, built from the public APIs of `icr-cpu`,
//! `icr-core`, `icr-mem` and `icr-fault`.
//!
//! [`MirrorRun`] assembles the same machine `icr_sim::run_sim` builds —
//! core, iL1, dL1, memory backend and optional one-shot injector, wired
//! through two shared ports — but records the dL1 access stream with its
//! cycle stamps and times the injector. Callers compare its statistics
//! with `run_sim`'s for the same configuration, so a mirror that drifts
//! from the simulator voids its numbers instead of misreporting them.

use icr_core::{DataL1, IcrStats};
use icr_cpu::{DataMemory, InstrMemory, PerfectMemory, Pipeline, PipelineStats};
use icr_fault::FaultInjector;
use icr_mem::{Addr, InstrCache, MemoryBackend};
use icr_sim::SimConfig;
use icr_trace::Inst;
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One data access as the core issued it.
#[derive(Debug, Clone, Copy)]
pub struct Access {
    pub addr: u64,
    pub now: u64,
    pub store: bool,
}

/// What a mirrored run produced.
pub struct MirrorRun {
    pub pipeline: PipelineStats,
    pub icr: IcrStats,
    pub faults_injected: u64,
    pub accesses: Vec<Access>,
    /// Host time inside `FaultInjector::advance` (and the `inject_one`
    /// it calls) while the injector still had a fault to deliver, with
    /// the clock's own cost taken off.
    pub fault_time: Duration,
}

struct Machine {
    dl1: DataL1,
    icache: InstrCache,
    backend: MemoryBackend,
    injector: Option<FaultInjector>,
    fault_horizon: u64,
    accesses: Vec<Access>,
    fault_time: Duration,
    timed_advances: u32,
}

impl Machine {
    /// Drives the injector exactly as `run_sim` does: up to `now`, before
    /// the access observes state. Once the one-shot fault is delivered,
    /// `advance` returns at once; only the calls before that are timed,
    /// because reading the clock would cost more than those calls.
    fn advance_faults(&mut self, now: u64) {
        let Some(inj) = &mut self.injector else {
            return;
        };
        if now <= self.fault_horizon {
            return;
        }
        if inj.quiesced() {
            inj.advance(&mut self.dl1, &mut self.backend, self.fault_horizon, now);
        } else {
            let t = Instant::now();
            inj.advance(&mut self.dl1, &mut self.backend, self.fault_horizon, now);
            self.fault_time += t.elapsed();
            self.timed_advances += 1;
        }
        self.fault_horizon = now;
    }

    fn access(&mut self, addr: u64, now: u64, store: bool) -> u64 {
        self.advance_faults(now);
        self.accesses.push(Access { addr, now, store });
        if store {
            self.dl1.store(Addr(addr), now, &mut self.backend)
        } else {
            self.dl1.load(Addr(addr), now, &mut self.backend)
        }
    }
}

struct DmemPort(Rc<RefCell<Machine>>);
struct ImemPort(Rc<RefCell<Machine>>);

impl DataMemory for DmemPort {
    fn load(&mut self, addr: u64, now: u64) -> u64 {
        self.0.borrow_mut().access(addr, now, false)
    }

    fn store(&mut self, addr: u64, now: u64) -> u64 {
        self.0.borrow_mut().access(addr, now, true)
    }
}

impl InstrMemory for ImemPort {
    fn fetch(&mut self, pc: u64, _now: u64) -> u64 {
        let mut m = self.0.borrow_mut();
        let m = &mut *m;
        m.icache.fetch(Addr(pc), &mut m.backend)
    }
}

/// Builds the four per-run parts `run_sim` constructs for `config`:
/// core, dL1, memory backend and iL1.
pub fn construct(config: &SimConfig) -> (Pipeline, DataL1, MemoryBackend, InstrCache) {
    (
        Pipeline::new(config.cpu),
        DataL1::new(config.dl1.clone()),
        MemoryBackend::new(&config.hierarchy),
        InstrCache::new(&config.hierarchy),
    )
}

/// Runs `config` on `trace` through the mirrored machine.
///
/// # Panics
///
/// Panics on a configuration feature the mirror does not model (scrub,
/// lockstep audit, biased or forced fault arrival, analytic arrival
/// weighting, unbounded faults); the benchmark uses none of them.
pub fn mirror_run(config: &SimConfig, trace: &[Inst], clock_cost: Duration) -> MirrorRun {
    assert!(
        config.scrub.is_none()
            && config.check == icr_sim::CheckMode::Off
            && config.fault_bias.is_none()
            && config.fault_arrival.is_none()
            && config.vuln_arrival_p.is_none()
            && config.fault.is_none_or(|f| f.max_faults.is_some()),
        "the mirrored machine models plain and one-shot runs only"
    );
    let (mut pipeline, dl1, backend, icache) = construct(config);
    let injector = config.fault.map(|f| {
        let max = f.max_faults.expect("checked above");
        FaultInjector::new(f.model, f.p_per_cycle, f.seed)
            .with_max_faults(max)
            .with_log()
    });
    let machine = Rc::new(RefCell::new(Machine {
        dl1,
        icache,
        backend,
        injector,
        fault_horizon: 0,
        accesses: Vec::with_capacity(trace.len() / 2),
        fault_time: Duration::ZERO,
        timed_advances: 0,
    }));
    let stats = pipeline.run(
        trace.iter().copied(),
        &mut ImemPort(machine.clone()),
        &mut DmemPort(machine.clone()),
    );
    let m = Rc::try_unwrap(machine)
        .ok()
        .expect("the ports were dropped with the run")
        .into_inner();
    MirrorRun {
        pipeline: stats,
        icr: *m.dl1.stats(),
        faults_injected: m.injector.as_ref().map_or(0, |i| i.injected()),
        accesses: m.accesses,
        fault_time: m.fault_time.saturating_sub(clock_cost * m.timed_advances),
    }
}

/// The core alone: `Pipeline::run` on `trace` with perfect memories.
pub fn core_only(pipeline: &mut Pipeline, trace: &[Inst]) -> PipelineStats {
    pipeline.run(
        trace.iter().copied(),
        &mut PerfectMemory,
        &mut PerfectMemory,
    )
}

/// Replays a recorded access stream, with its cycle stamps, through a
/// dL1 and memory backend and returns the dL1's final statistics.
pub fn replay_dl1(dl1: &mut DataL1, backend: &mut MemoryBackend, accesses: &[Access]) -> IcrStats {
    for a in accesses {
        let lat = if a.store {
            dl1.store(Addr(a.addr), a.now, backend)
        } else {
            dl1.load(Addr(a.addr), a.now, backend)
        };
        black_box(lat);
    }
    *dl1.stats()
}

/// Median cost of reading the clock around an empty section, which
/// [`mirror_run`] takes off each timed injector call.
pub fn clock_cost() -> Duration {
    let mut samples: Vec<Duration> = (0..2_001)
        .map(|_| {
            let t = Instant::now();
            black_box(());
            t.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use icr_core::{DataL1Config, Scheme};
    use icr_fault::ErrorModel;
    use icr_sim::{run_sim, FaultConfig};

    fn trace(config: &SimConfig) -> std::sync::Arc<[Inst]> {
        icr_trace::store::global().get(&config.app, config.seed, config.instructions)
    }

    #[test]
    fn mirror_and_replay_reproduce_run_sim() {
        for scheme in [Scheme::BASE_P, Scheme::ICR_ECC_PP_LS] {
            let cfg = SimConfig::paper("mcf", DataL1Config::paper_default(scheme), 4_000, 3);
            let real = run_sim(&cfg);
            let m = mirror_run(&cfg, &trace(&cfg), Duration::ZERO);
            assert_eq!(m.pipeline, real.pipeline);
            assert_eq!(m.icr, real.icr);
            let (_, mut dl1, mut backend, _) = construct(&cfg);
            assert_eq!(replay_dl1(&mut dl1, &mut backend, &m.accesses), real.icr);
        }
    }

    #[test]
    fn faulted_mirror_reproduces_a_one_shot_trial() {
        let mut dl1 = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
        dl1.oracle = true;
        let cfg = SimConfig::builder("gzip", dl1)
            .instructions(4_000)
            .seed(5)
            .fault(FaultConfig::one_shot(ErrorModel::Random, 8.0 / 4_000.0, 11))
            .build();
        let real = run_sim(&cfg);
        let m = mirror_run(&cfg, &trace(&cfg), Duration::ZERO);
        assert_eq!(real.faults_injected, 1);
        assert_eq!(m.faults_injected, real.faults_injected);
        assert_eq!(m.icr, real.icr);
        assert_eq!(m.pipeline, real.pipeline);
    }
}
