//! The assembled machine: out-of-order core + iL1 + ICR dL1 + L2 + memory
//! plus optional fault injection. [`run_sim`] runs it to completion, and
//! [`run_trial`] runs a one-shot fault trial until its outcome is fixed.

use crate::json::{self, obj};
use crate::tape::{Event, Recorder};
use icr_core::{DataL1, DataL1Config, ErrorOutcome, WritePolicy};
use icr_cpu::{CpuConfig, DataMemory, InstrMemory, Pipeline, PipelineStats};
use icr_energy::AccessCounts;
use icr_fault::{ErrorModel, FaultInjector, InjectedFault};
use icr_mem::{
    Addr, BlockAddr, CacheGeometry, CacheStats, HierarchyConfig, InstrCache, MemoryBackend,
};
use icr_trace::{Inst, OpClass};
use std::collections::HashSet;
use std::sync::Arc;

/// Fault-injection settings for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Which of the four error models strikes.
    pub model: ErrorModel,
    /// Per-cycle fault probability.
    pub p_per_cycle: f64,
    /// Injector seed.
    pub seed: u64,
    /// Cap on total faults delivered (`None` = unlimited). Campaigns use
    /// `Some(1)` so each trial observes exactly one event.
    pub max_faults: Option<u64>,
}

impl FaultConfig {
    /// A single-event-upset configuration: at most one fault, arriving
    /// per-cycle with probability `p_per_cycle`. This is the trial shape
    /// the Monte-Carlo campaign engine uses.
    pub fn one_shot(model: ErrorModel, p_per_cycle: f64, seed: u64) -> Self {
        FaultConfig {
            model,
            p_per_cycle,
            seed,
            max_faults: Some(1),
        }
    }
}

/// Background-scrubber settings for a run (extension; see
/// `DataL1::scrub_step`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubConfig {
    /// Cycles between scrub steps.
    pub interval: u64,
    /// Lines swept per step.
    pub lines_per_step: usize,
}

/// Whether a run carries the lockstep reference-model auditor
/// (`icr-check`) alongside the real dL1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// Normal operation: no auditing.
    #[default]
    Off,
    /// Drive a naive reference model in lockstep with the dL1 and diff
    /// the full observable state after **every** access. Panics with a
    /// labelled divergence report on the first mismatch. Fault injection
    /// and scrubbing are rejected (the reference model covers the
    /// fault-free semantics), and replication hints must be empty.
    Lockstep,
}

/// A complete simulation configuration.
///
/// Construct one with [`SimConfig::paper`] (the paper's machine, the
/// common case) or [`SimConfig::builder`] (every knob). The struct is
/// `#[non_exhaustive]`: fields stay readable and assignable, but new
/// configuration axes can be added without breaking downstream literals.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SimConfig {
    /// Core parameters (Table 1 defaults).
    pub cpu: CpuConfig,
    /// iL1/L2/memory parameters (Table 1 defaults).
    pub hierarchy: HierarchyConfig,
    /// The dL1 under study.
    pub dl1: DataL1Config,
    /// Workload name (one of [`icr_trace::apps::APP_NAMES`]).
    pub app: String,
    /// Dynamic instructions to simulate.
    pub instructions: u64,
    /// Workload seed.
    pub seed: u64,
    /// Optional transient-fault injection.
    pub fault: Option<FaultConfig>,
    /// Optional background scrubbing.
    pub scrub: Option<ScrubConfig>,
    /// Per-cycle arrival probability for the analytic vulnerability
    /// model's weighting (`None` = uniform arrival). Set this to the
    /// campaign's `p_per_cycle` when cross-validating against
    /// Monte-Carlo one-shot trials.
    pub vuln_arrival_p: Option<f64>,
    /// Importance-sampling site bias for the fault injector (`None` =
    /// the historical uniform draw). When set, strike-worthy parity
    /// lines — dirty primaries plus store-working-set residents — are
    /// struck `boost`× as often and [`SimResult::fault_weight`] carries
    /// the per-run likelihood ratio.
    pub fault_bias: Option<f64>,
    /// Forces the fault arrival to a fixed cycle instead of drawing
    /// per-cycle Bernoulli arrivals (`None` = the stochastic arrival).
    /// Campaigns set this to a [`icr_fault::conditional_arrival`] draw
    /// so every importance-sampled trial delivers its fault.
    pub fault_arrival: Option<u64>,
    /// Lockstep reference-model auditing (default [`CheckMode::Off`]).
    pub check: CheckMode,
}

impl SimConfig {
    /// The paper's machine running `app` for `instructions` instructions
    /// with the given dL1.
    pub fn paper(app: &str, dl1: DataL1Config, instructions: u64, seed: u64) -> Self {
        SimConfig::builder(app, dl1)
            .instructions(instructions)
            .seed(seed)
            .build()
    }

    /// A builder over every configuration knob, starting from the
    /// paper's machine running `app` with the given dL1 for the repo's
    /// default budget (200k instructions, seed 42).
    pub fn builder(app: &str, dl1: DataL1Config) -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig {
                cpu: CpuConfig::default(),
                hierarchy: HierarchyConfig::default(),
                dl1,
                app: app.to_owned(),
                instructions: 200_000,
                seed: 42,
                fault: None,
                scrub: None,
                vuln_arrival_p: None,
                fault_bias: None,
                fault_arrival: None,
                check: CheckMode::Off,
            },
        }
    }
}

/// Builds a [`SimConfig`]; obtained from [`SimConfig::builder`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Core parameters (defaults to the paper's Table 1 machine).
    pub fn cpu(mut self, cpu: CpuConfig) -> Self {
        self.config.cpu = cpu;
        self
    }

    /// iL1/L2/memory parameters (defaults to the paper's Table 1).
    pub fn hierarchy(mut self, hierarchy: HierarchyConfig) -> Self {
        self.config.hierarchy = hierarchy;
        self
    }

    /// Dynamic instructions to simulate.
    pub fn instructions(mut self, instructions: u64) -> Self {
        self.config.instructions = instructions;
        self
    }

    /// Workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Adds fault injection.
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.config.fault = Some(fault);
        self
    }

    /// Adds background scrubbing.
    pub fn scrub(mut self, scrub: ScrubConfig) -> Self {
        self.config.scrub = Some(scrub);
        self
    }

    /// Weights the analytic exposure windows against a geometric
    /// (per-cycle Bernoulli `p`) fault arrival instead of a uniform one.
    pub fn vuln_arrival(mut self, p_per_cycle: f64) -> Self {
        self.config.vuln_arrival_p = Some(p_per_cycle);
        self
    }

    /// Biases the fault injector's site draw toward strike-worthy
    /// parity lines — dirty primaries and lines holding the workload's
    /// store working set — by `boost`× (importance sampling; see
    /// `FaultInjector::with_site_bias`). Requires fault injection to be
    /// configured to have any effect.
    pub fn fault_bias(mut self, boost: f64) -> Self {
        self.config.fault_bias = Some(boost);
        self
    }

    /// Forces the fault arrival to the given cycle (see
    /// `FaultInjector::with_forced_arrival`). Requires fault injection
    /// to be configured to have any effect.
    pub fn fault_arrival(mut self, cycle: u64) -> Self {
        self.config.fault_arrival = Some(cycle);
        self
    }

    /// Runs the simulation under the given audit mode.
    pub fn check(mut self, mode: CheckMode) -> Self {
        self.config.check = mode;
        self
    }

    /// The finished configuration.
    pub fn build(self) -> SimConfig {
        self.config
    }
}

/// Everything a run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Workload name.
    pub app: String,
    /// dL1 scheme name.
    pub scheme: String,
    /// Core statistics (cycles, IPC, mispredicts, …).
    pub pipeline: PipelineStats,
    /// dL1 statistics (replication, recovery, …).
    pub icr: icr_core::IcrStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// iL1 statistics.
    pub l1i: CacheStats,
    /// Main-memory block reads.
    pub memory_reads: u64,
    /// Main-memory block writes.
    pub memory_writes: u64,
    /// Faults injected during the run.
    pub faults_injected: u64,
    /// Access counts for the energy model (write-through L2 write traffic
    /// already coalesced through the write buffer).
    pub energy_counts: AccessCounts,
    /// Time-weighted average number of words vulnerable to single-bit
    /// loss (AVF-style exposure). Computed exactly from the exposure
    /// ledger's dirty-unreplicated-parity residency, not by sampling.
    pub avg_vulnerable_words: f64,
    /// The analytic vulnerability-window accounting accumulated over the
    /// run: per-state residency and per-class consumed windows (see
    /// `icr-vuln`).
    pub exposure: icr_core::ExposureWindows,
    /// The importance weight (likelihood ratio) of the injected fault
    /// when the run used a biased site draw ([`SimConfig::fault_bias`]):
    /// `Some(1.0)` for a biased run whose fault never arrived, `None`
    /// for uniform runs. Deliberately kept out of
    /// [`to_json`](SimResult::to_json) so uniform report bytes are
    /// unchanged.
    pub fault_weight: Option<f64>,
    /// The strike log for bounded-fault runs (`max_faults` set): site,
    /// word, bit and the struck line's state at injection. Empty for
    /// unbounded runs, which skip logging to stay cheap. Also kept out
    /// of [`to_json`](SimResult::to_json).
    pub fault_log: Vec<InjectedFault>,
}

impl SimResult {
    /// Serialises the run as one JSON object — the `icr-run --json`
    /// payload, mirroring the sections of the text report.
    pub fn to_json(&self) -> String {
        let (p, c, e) = (&self.pipeline, &self.icr, &self.energy_counts);
        let core = obj([
            ("cycles", p.cycles.into()),
            ("committed", p.committed.into()),
            ("ipc", p.ipc().into()),
            ("mispredicts", p.mispredicts.into()),
            ("mispredict_rate", p.mispredict_rate().into()),
            ("mean_load_latency", p.mean_load_latency().into()),
        ]);
        let dl1 = obj([
            ("accesses", c.cache.accesses().into()),
            ("loads", c.cache.read_accesses.into()),
            ("stores", c.cache.write_accesses.into()),
            ("miss_rate", c.miss_rate().into()),
            ("writebacks", c.writebacks.into()),
        ]);
        let replication = obj([
            ("attempts", c.replication_attempts.into()),
            ("ability", c.replication_ability().into()),
            ("replicas_created", c.replicas_created.into()),
            ("replica_updates", c.replica_updates.into()),
            ("replica_evictions", c.replica_evictions.into()),
            ("loads_with_replica", c.loads_with_replica().into()),
            (
                "misses_served_by_replica",
                c.misses_served_by_replica.into(),
            ),
        ]);
        let reliability = obj([
            ("faults_injected", self.faults_injected.into()),
            ("errors_detected", c.errors_detected.into()),
            ("corrected_ecc", c.errors_corrected_ecc.into()),
            ("recovered_replica", c.errors_recovered_replica.into()),
            ("recovered_l2", c.errors_recovered_l2.into()),
            ("scrub_heals", c.scrub_heals.into()),
            ("unrecoverable_loads", c.unrecoverable_loads.into()),
            (
                "unrecoverable_load_fraction",
                c.unrecoverable_load_fraction().into(),
            ),
            ("avg_vulnerable_words", self.avg_vulnerable_words.into()),
        ]);
        let memory = obj([
            ("l2_accesses", self.l2.accesses().into()),
            ("l2_miss_rate", self.l2.miss_rate().into()),
            ("l1i_miss_rate", self.l1i.miss_rate().into()),
            ("memory_reads", self.memory_reads.into()),
            ("memory_writes", self.memory_writes.into()),
        ]);
        let energy = obj([
            ("l1_reads", e.l1_reads.into()),
            ("l1_writes", e.l1_writes.into()),
            ("parity_ops", e.parity_ops.into()),
            ("ecc_ops", e.ecc_ops.into()),
            ("l2_accesses", e.l2_accesses.into()),
        ]);
        json::pretty(&obj([
            ("app", self.app.as_str().into()),
            ("scheme", self.scheme.as_str().into()),
            ("core", core),
            ("dl1", dl1),
            ("replication", replication),
            ("reliability", reliability),
            ("memory", memory),
            ("energy", energy),
        ]))
    }
}

/// What a one-shot fault trial reports: the three things its outcome
/// and importance weight are read from. Produced by [`run_trial`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialResult {
    /// Faults injected (0 or 1).
    pub faults_injected: u64,
    /// dL1 statistics at the point the trial stopped. The error counters
    /// [`ErrorOutcome::classify_single_fault`] reads equal the full
    /// run's; the rest cover only the simulated prefix.
    pub icr: icr_core::IcrStats,
    /// The fault's likelihood ratio, as [`SimResult::fault_weight`].
    pub fault_weight: Option<f64>,
}

impl TrialResult {
    /// How the trial's fault ended.
    pub fn outcome(&self) -> ErrorOutcome {
        ErrorOutcome::classify_single_fault(self.faults_injected, &self.icr)
    }
}

/// The aligned blocks `trace` stores to: the store working set an
/// importance-sampled injector boosts (see [`SimConfig::fault_bias`]).
/// A pure function of the trace, so a campaign builds it once per cell
/// and shares it across the cell's trials.
pub fn store_working_set(trace: &[Inst], geometry: CacheGeometry) -> HashSet<u64> {
    trace
        .iter()
        .filter(|i| i.op == OpClass::Store)
        .filter_map(|i| i.mem_addr())
        .map(|a| geometry.block_addr(Addr(a)).raw())
        .collect()
}

/// The memory side of the machine: the dL1 and everything below it, plus
/// the fault injector, scrubber, auditor and seal watch that act on it.
/// The core's data port drives it one access at a time, and a taped
/// trial ([`crate::tape`]) replays a recorded access stream through it
/// with no core at all.
pub(crate) struct MemSide {
    dl1: DataL1,
    /// L2 and main memory, shared with the instruction side.
    pub(crate) backend: MemoryBackend,
    injector: Option<FaultInjector>,
    /// Last cycle up to which faults have been injected.
    fault_horizon: u64,
    scrub: Option<ScrubConfig>,
    /// Next cycle at which the scrubber fires.
    next_scrub: u64,
    /// The lockstep auditor ([`CheckMode::Lockstep`] runs only).
    checker: Option<Box<crate::audit::LockstepChecker>>,
    /// Stop the run once the delivered fault's outcome is fixed
    /// ([`run_trial`] of a one-shot configuration).
    stop_when_sealed: bool,
    /// Set after the first access at which the struck block is sealed.
    pub(crate) sealed: bool,
}

impl MemSide {
    /// The memory side `config` describes, before its first access. A
    /// biased injector boosts `hot_blocks`, or the store working set of
    /// `trace` when none is given. With `stop_when_sealed`, it watches a
    /// one-shot fault for its seal.
    pub(crate) fn new(
        config: &SimConfig,
        trace: &[Inst],
        hot_blocks: Option<Arc<HashSet<u64>>>,
        stop_when_sealed: bool,
    ) -> MemSide {
        let mut dl1 = DataL1::new(config.dl1.clone());
        if let Some(p) = config.vuln_arrival_p {
            dl1.set_exposure_arrival(icr_core::Arrival::Geometric { p });
        }
        let checker = match config.check {
            CheckMode::Off => None,
            CheckMode::Lockstep => {
                assert!(
                    config.fault.is_none() && config.scrub.is_none(),
                    "lockstep auditing covers the fault-free semantics: \
                     disable fault injection and scrubbing"
                );
                Some(Box::new(crate::audit::LockstepChecker::new(
                    &config.dl1,
                    &config.hierarchy,
                    &config.app,
                )))
            }
        };
        MemSide {
            dl1,
            backend: MemoryBackend::new(&config.hierarchy),
            injector: config.fault.map(|f| {
                let mut inj = FaultInjector::new(f.model, f.p_per_cycle, f.seed);
                if let Some(max) = f.max_faults {
                    inj = inj.with_max_faults(max);
                    // One-shot trials log their (single) fault for free:
                    // campaigns and diagnostics read the strike site from
                    // the result instead of re-deriving it.
                    inj = inj.with_log();
                }
                if let Some(boost) = config.fault_bias {
                    // The boosted class is loss-prone lines plus the
                    // workload's store working set — the blocks a clean-line
                    // strike can launder through once a later store dirties
                    // them. The set is a pure function of the trace, so the
                    // uniform (no-bias) RNG stream is untouched.
                    let stores = hot_blocks
                        .unwrap_or_else(|| Arc::new(store_working_set(trace, config.dl1.geometry)));
                    inj = inj.with_site_bias(boost).with_hot_blocks(stores);
                }
                if let Some(cycle) = config.fault_arrival {
                    inj = inj.with_forced_arrival(cycle);
                }
                inj
            }),
            fault_horizon: 0,
            scrub: config.scrub,
            next_scrub: config.scrub.map(|s| s.interval).unwrap_or(0),
            checker,
            stop_when_sealed,
            sealed: false,
        }
    }

    /// A dL1 load at cycle `now`; returns its latency.
    pub(crate) fn load(&mut self, addr: u64, now: u64) -> u64 {
        self.advance_faults(now);
        let lat = self.dl1.load(Addr(addr), now, &mut self.backend);
        if let Some(chk) = &mut self.checker {
            chk.after_load(addr, now, &self.dl1, &self.backend);
        }
        self.watch_seal();
        lat
    }

    /// A dL1 store at cycle `now`; returns its latency.
    pub(crate) fn store(&mut self, addr: u64, now: u64) -> u64 {
        self.advance_faults(now);
        let lat = self.dl1.store(Addr(addr), now, &mut self.backend);
        if let Some(chk) = &mut self.checker {
            chk.after_store(addr, now, &self.dl1, &self.backend);
        }
        self.watch_seal();
        lat
    }

    /// Brings fault injection up to `now` before an access observes state.
    fn advance_faults(&mut self, now: u64) {
        if let Some(inj) = &mut self.injector {
            if now > self.fault_horizon {
                inj.advance(&mut self.dl1, &mut self.backend, self.fault_horizon, now);
                self.fault_horizon = now;
            }
        }
        if let Some(scrub) = self.scrub {
            while now >= self.next_scrub {
                let at = self.next_scrub;
                self.dl1
                    .scrub_step(scrub.lines_per_step, at, &mut self.backend);
                self.next_scrub += scrub.interval.max(1);
            }
        }
    }

    /// After a dL1 access: once the fault has struck, checks whether its
    /// block is sealed ([`DataL1::block_sealed`]).
    fn watch_seal(&mut self) {
        if !self.stop_when_sealed {
            return;
        }
        let struck = self.injector.as_ref().and_then(|i| i.log().first());
        if let Some(fault) = struck {
            self.sealed = self
                .dl1
                .block_sealed(BlockAddr(fault.site_block), &self.backend);
        }
    }

    /// Faults delivered so far.
    fn faults_injected(&self) -> u64 {
        self.injector.as_ref().map(|i| i.injected()).unwrap_or(0)
    }

    /// The likelihood ratio of a biased run's fault (`None` when
    /// unbiased).
    fn fault_weight(&self, config: &SimConfig) -> Option<f64> {
        match (config.fault_bias, self.injector.as_ref()) {
            (Some(_), Some(inj)) => Some(inj.last_weight()),
            _ => None,
        }
    }

    /// What a trial of `config` that stopped here reports.
    pub(crate) fn trial_result(&self, config: &SimConfig) -> TrialResult {
        TrialResult {
            faults_injected: self.faults_injected(),
            icr: *self.dl1.stats(),
            fault_weight: self.fault_weight(config),
        }
    }
}

/// `true` for a configuration whose injector delivers at most one fault:
/// the run may stop once that fault's outcome is fixed.
pub(crate) fn is_one_shot(config: &SimConfig) -> bool {
    config.fault.is_some_and(|f| f.max_faults == Some(1))
}

/// The whole machine: the memory side plus the iL1, optionally taping
/// what its memory side sees.
struct Machine {
    mem: MemSide,
    icache: InstrCache,
    /// Records the run's memory-side events ([`crate::Tape::record`]).
    recorder: Option<Recorder>,
}

impl Machine {
    /// The machine `config` describes, before its first cycle; see
    /// [`MemSide::new`]. A `recorder` tapes the run.
    fn new(
        config: &SimConfig,
        trace: &[Inst],
        hot_blocks: Option<Arc<HashSet<u64>>>,
        stop_when_sealed: bool,
        recorder: Option<Recorder>,
    ) -> Machine {
        Machine {
            mem: MemSide::new(config, trace, hot_blocks, stop_when_sealed),
            icache: InstrCache::new(&config.hierarchy),
            recorder,
        }
    }

    /// Runs the core over `trace` against this machine. Returns the
    /// core's statistics and the machine as the run left it.
    fn run(mut self, config: &SimConfig, trace: &[Inst]) -> (PipelineStats, Machine) {
        let stats = Pipeline::new(config.cpu).run_on(trace.iter().copied(), &mut self);
        (stats, self)
    }
}

impl DataMemory for Machine {
    fn load(&mut self, addr: u64, now: u64) -> u64 {
        let lat = self.mem.load(addr, now);
        if let Some(rec) = &mut self.recorder {
            rec.push(Event::Load, addr, now, lat);
        }
        lat
    }

    fn store(&mut self, addr: u64, now: u64) -> u64 {
        let lat = self.mem.store(addr, now);
        if let Some(rec) = &mut self.recorder {
            rec.push(Event::Store, addr, now, lat);
        }
        lat
    }

    fn halted(&self) -> bool {
        self.mem.sealed
    }
}

impl InstrMemory for Machine {
    fn fetch(&mut self, pc: u64, now: u64) -> u64 {
        let (lat, l2_read) = self.icache.fetch_traced(Addr(pc), &mut self.mem.backend);
        if let (Some(rec), Some((block, l2_lat))) = (&mut self.recorder, l2_read) {
            rec.push(Event::L2Read, block.raw(), now, l2_lat);
        }
        lat
    }
}

/// The workload trace `config` runs, from the process-wide store.
pub(crate) fn trace_of(config: &SimConfig) -> Arc<[Inst]> {
    // Make the execution-driven `isa:*` kernels resolvable everywhere a
    // simulation can start; install() is idempotent and cheap.
    icr_isa::install();
    // Traces are pure functions of (app, seed, instructions); the
    // process-wide store materialises each one once and shares it across
    // schemes, figures, trials and worker threads.
    icr_trace::store::global().get(&config.app, config.seed, config.instructions)
}

/// Runs one complete simulation.
///
/// # Panics
///
/// Panics on an invalid configuration or unknown application name.
pub fn run_sim(config: &SimConfig) -> SimResult {
    let trace = trace_of(config);
    let (stats, m) = Machine::new(config, &trace, None, false, None).run(config, &trace);
    sim_result(config, stats, &m)
}

/// Assembles the [`SimResult`] of a finished run.
fn sim_result(config: &SimConfig, stats: PipelineStats, m: &Machine) -> SimResult {
    let dl1 = &m.mem.dl1;
    let backend = &m.mem.backend;
    let icr = *dl1.stats();
    let l2 = *backend.l2_stats();
    let l1i = *m.icache.stats();

    // Energy: in write-through mode the buffer coalesces stores, so L2
    // write traffic is the buffer's drain count, not one write per store.
    let l2_accesses = match dl1.config().write_policy {
        WritePolicy::WriteBack => l2.accesses(),
        WritePolicy::WriteThrough { .. } => {
            let wb_writes = dl1
                .write_buffer()
                .map(|wb| wb.total_l2_writes())
                .unwrap_or(0);
            l2.read_accesses + wb_writes
        }
    };
    let energy_counts = AccessCounts {
        l1_reads: icr.l1_read_ops,
        l1_writes: icr.l1_write_ops,
        parity_ops: icr.parity_ops,
        ecc_ops: icr.ecc_ops,
        l2_accesses,
    };

    let exposure = dl1.exposure_windows(stats.cycles);
    SimResult {
        app: config.app.clone(),
        scheme: config.dl1.scheme.name(),
        pipeline: stats,
        icr,
        l2,
        l1i,
        memory_reads: backend.memory_reads(),
        memory_writes: backend.memory_writes(),
        faults_injected: m.mem.faults_injected(),
        energy_counts,
        avg_vulnerable_words: exposure.avg_words_in(icr_core::ProtState::DirtyParity),
        exposure,
        fault_weight: m.mem.fault_weight(config),
        fault_log: m
            .mem
            .injector
            .as_ref()
            .map(|i| i.log().to_vec())
            .unwrap_or_default(),
    }
}

/// Runs `config` and tapes its memory side; see [`crate::Tape::record`].
pub(crate) fn record(config: &SimConfig) -> (SimResult, Recorder) {
    let trace = trace_of(config);
    let recorder = Recorder::for_trace(&trace);
    let (stats, mut m) =
        Machine::new(config, &trace, None, false, Some(recorder)).run(config, &trace);
    let result = sim_result(config, stats, &m);
    (result, m.recorder.take().expect("recording run"))
}

/// Runs one fault trial, stopping as early as its outcome allows.
///
/// A one-shot configuration (`fault.max_faults == Some(1)`) stops at
/// the first dL1 access after the fault has struck at which the struck
/// block is sealed ([`DataL1::block_sealed`]): from there on no counter
/// the outcome is read from can change, so [`TrialResult::outcome`] and
/// the weight equal what the full [`run_sim`] reports. Any other
/// configuration runs to completion. Trials bypass the
/// [`Engine`](crate::Engine) memo, since their configurations never
/// repeat. A biased injector boosts `hot_blocks` when given (build it
/// once with [`store_working_set`]), else the trace's store working set.
///
/// # Panics
///
/// Panics on an invalid configuration or unknown application name.
pub fn run_trial(config: &SimConfig, hot_blocks: Option<Arc<HashSet<u64>>>) -> TrialResult {
    let trace = trace_of(config);
    let one_shot = is_one_shot(config);
    let (_, m) = Machine::new(config, &trace, hot_blocks, one_shot, None).run(config, &trace);
    m.mem.trial_result(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icr_core::Scheme;

    fn quick(app: &str, dl1: DataL1Config) -> SimResult {
        run_sim(&SimConfig::paper(app, dl1, 20_000, 1))
    }

    #[test]
    fn full_machine_runs_to_completion() {
        let r = quick("gzip", DataL1Config::paper_default(Scheme::BASE_P));
        assert_eq!(r.pipeline.committed, 20_000);
        assert!(r.pipeline.cycles > 0);
        assert!(r.icr.cache.accesses() > 0);
        assert!(r.l2.accesses() > 0, "dL1 misses must reach L2");
        assert!(r.l1i.accesses() > 0);
    }

    #[test]
    fn baseecc_is_slower_than_basep() {
        let p = quick("gzip", DataL1Config::paper_default(Scheme::BASE_P));
        let e = quick("gzip", DataL1Config::paper_default(Scheme::BASE_ECC));
        assert!(
            e.pipeline.cycles > p.pipeline.cycles,
            "2-cycle ECC loads must cost cycles: {} vs {}",
            e.pipeline.cycles,
            p.pipeline.cycles
        );
    }

    #[test]
    fn icr_p_ps_s_is_close_to_basep() {
        let p = quick("gzip", DataL1Config::paper_default(Scheme::BASE_P));
        let i = quick("gzip", DataL1Config::paper_default(Scheme::ICR_P_PS_S));
        let overhead = i.pipeline.cycles as f64 / p.pipeline.cycles as f64;
        assert!(
            overhead < 1.15,
            "ICR-P-PS(S) should be near BaseP, got {overhead:.3}x"
        );
        assert!(i.icr.loads_with_replica() > 0.0);
    }

    #[test]
    fn determinism_same_config_same_result() {
        let a = quick("vpr", DataL1Config::paper_default(Scheme::ICR_P_PS_S));
        let b = quick("vpr", DataL1Config::paper_default(Scheme::ICR_P_PS_S));
        assert_eq!(a.pipeline, b.pipeline);
        assert_eq!(a.icr, b.icr);
    }

    #[test]
    fn fault_injection_produces_detections() {
        let cfg = SimConfig::builder("vortex", DataL1Config::paper_default(Scheme::BASE_P))
            .instructions(20_000)
            .seed(1)
            .fault(FaultConfig {
                model: ErrorModel::Random,
                p_per_cycle: 0.01,
                seed: 9,
                max_faults: None,
            })
            .build();
        let r = run_sim(&cfg);
        assert!(r.faults_injected > 0);
        assert!(
            r.icr.errors_detected > 0,
            "with {} faults injected some loads must detect",
            r.faults_injected
        );
    }

    #[test]
    fn fault_weight_reported_only_under_bias() {
        let base = SimConfig::builder("gzip", DataL1Config::paper_default(Scheme::BASE_P))
            .instructions(5_000)
            .seed(1)
            .fault(FaultConfig::one_shot(ErrorModel::Random, 0.001, 9));
        let uniform = run_sim(&base.clone().build());
        assert_eq!(uniform.fault_weight, None);

        let biased = run_sim(&base.fault_bias(8.0).build());
        let w = biased.fault_weight.expect("biased runs report a weight");
        assert!(w.is_finite() && w > 0.0, "bad weight {w}");
        if biased.faults_injected == 0 {
            assert_eq!(w, 1.0, "undelivered trials carry weight 1");
        }
        // The arrival process is untouched by the bias: the same seed
        // delivers (or withholds) the fault identically.
        assert_eq!(uniform.faults_injected, biased.faults_injected);
    }

    #[test]
    fn energy_counts_populated() {
        let r = quick("gcc", DataL1Config::paper_default(Scheme::ICR_ECC_PS_S));
        assert!(r.energy_counts.l1_reads > 0);
        assert!(r.energy_counts.l1_writes > 0);
        assert!(r.energy_counts.ecc_ops > 0, "unreplicated lines use ECC");
        assert!(
            r.energy_counts.parity_ops > 0,
            "replicated lines use parity"
        );
        assert!(r.energy_counts.l2_accesses > 0);
    }
}
