//! Shared by the core's golden-statistics tests: FNV-1a digests of
//! [`PipelineStats`] over a matrix of applications, memories and RUU/LSQ
//! sizes, so a rewrite of the scheduler can be checked bit for bit
//! against a table recorded before it.
//!
//! Each digest also folds in every memory call the core made (port,
//! address, cycle), so a change in the order or timing of accesses shows
//! even where the statistics happen to agree.

use icr_cpu::{CpuConfig, DataMemory, InstrMemory, Pipeline, PipelineStats};
use icr_trace::{apps, TraceGenerator};

/// The RUU/LSQ sizes every memory runs at.
pub const SIZES: [(usize, usize); 4] = [(8, 4), (16, 8), (32, 16), (64, 32)];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds the eight bytes of `x` into the FNV-1a hash `h`.
pub fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

fn fold_stats(h: u64, s: &PipelineStats) -> u64 {
    [
        s.cycles,
        s.committed,
        s.loads,
        s.stores,
        s.branches,
        s.mispredicts,
        s.load_latency_sum,
    ]
    .into_iter()
    .fold(h, fnv)
}

/// The latency model behind a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Latency {
    /// Every access takes one cycle.
    Perfect,
    /// Loads take `load`, stores `store`, fetches one cycle.
    Fixed { load: u64, store: u64 },
    /// Seeded pseudo-random latencies: loads from 1 to 100+, stores
    /// sometimes above one cycle (so commit blocks), fetches sometimes
    /// missing.
    Random { seed: u64 },
}

impl Latency {
    /// The four memories of the golden table.
    pub fn all() -> [(&'static str, Latency); 4] {
        [
            ("perfect", Latency::Perfect),
            ("fixed-2/1", Latency::Fixed { load: 2, store: 1 }),
            (
                "fixed-100/1",
                Latency::Fixed {
                    load: 100,
                    store: 1,
                },
            ),
            ("random", Latency::Random { seed: 0x5eed }),
        ]
    }
}

/// A port that answers with a [`Latency`], logs every call into a
/// digest and halts after `halt_after` data accesses.
pub struct Port {
    latency: Latency,
    state: u64,
    halt_after: u64,
    /// Data accesses made so far.
    pub accesses: u64,
    /// FNV-1a digest of every call: port, address, cycle.
    pub calls: u64,
}

impl Port {
    /// A port answering with `latency` that never halts.
    pub fn new(latency: Latency) -> Port {
        Port::halting(latency, u64::MAX)
    }

    /// A port that halts once it has served `halt_after` data accesses.
    pub fn halting(latency: Latency, halt_after: u64) -> Port {
        let state = match latency {
            Latency::Random { seed } => seed,
            _ => 0,
        };
        Port {
            latency,
            state,
            halt_after,
            accesses: 0,
            calls: FNV_OFFSET,
        }
    }

    /// splitmix64.
    fn draw(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn log(&mut self, port: u64, addr: u64, now: u64) {
        self.calls = fnv(fnv(fnv(self.calls, port), addr), now);
    }
}

impl DataMemory for Port {
    fn load(&mut self, addr: u64, now: u64) -> u64 {
        self.accesses += 1;
        self.log(1, addr, now);
        match self.latency {
            Latency::Perfect => 1,
            Latency::Fixed { load, .. } => load,
            Latency::Random { .. } => {
                let r = self.draw();
                match r % 8 {
                    0..=4 => 1,
                    5 | 6 => 2 + (r >> 8) % 8,
                    _ => 20 + (r >> 8) % 100,
                }
            }
        }
    }

    fn store(&mut self, addr: u64, now: u64) -> u64 {
        self.accesses += 1;
        self.log(2, addr, now);
        match self.latency {
            Latency::Perfect => 1,
            Latency::Fixed { store, .. } => store,
            Latency::Random { .. } => {
                let r = self.draw();
                if r.is_multiple_of(5) {
                    2 + (r >> 8) % 6
                } else {
                    1
                }
            }
        }
    }

    fn halted(&self) -> bool {
        self.accesses >= self.halt_after
    }
}

impl InstrMemory for Port {
    fn fetch(&mut self, pc: u64, now: u64) -> u64 {
        self.log(3, pc, now);
        match self.latency {
            Latency::Random { .. } => {
                let r = self.draw();
                if r.is_multiple_of(16) {
                    2 + (r >> 8) % 20
                } else {
                    1
                }
            }
            _ => 1,
        }
    }
}

/// A core with the paper's configuration at the given RUU/LSQ size.
pub fn core(ruu: usize, lsq: usize) -> Pipeline {
    Pipeline::new(CpuConfig {
        ruu_size: ruu,
        lsq_size: lsq,
        ..CpuConfig::default()
    })
}

/// Runs `app` for `insts` instructions on `dmem`, with an instruction
/// port of the same latency model seeded apart. Returns the statistics
/// folded with both ports' call digests.
pub fn run(app: &str, insts: usize, (ruu, lsq): (usize, usize), mut dmem: Port) -> (u64, Port) {
    let mut imem = Port::new(match dmem.latency {
        Latency::Random { seed } => Latency::Random { seed: !seed },
        other => other,
    });
    let trace = TraceGenerator::new(apps::profile(app), 1).take(insts);
    let stats = core(ruu, lsq).run(trace, &mut imem, &mut dmem);
    let h = fold_stats(FNV_OFFSET, &stats);
    (fnv(fnv(h, dmem.calls), imem.calls), dmem)
}

/// One digest per memory × RUU/LSQ size, each over every app of `apps`
/// at `insts` instructions, labelled `"<memory> <ruu>/<lsq>"`.
pub fn table(apps: &[&str], insts: usize) -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for (name, latency) in Latency::all() {
        for size in SIZES {
            let h = apps.iter().fold(FNV_OFFSET, |h, app| {
                fnv(h, run(app, insts, size, Port::new(latency)).0)
            });
            rows.push((format!("{name} {}/{}", size.0, size.1), h));
        }
    }
    rows
}

/// One digest per access count in `limits`: a random-latency memory
/// that halts after that many data accesses, over every app of `apps`
/// at `insts` instructions and every size. Also checks that no access
/// follows the halt.
pub fn halting(apps: &[&str], insts: usize, limits: &[u64]) -> Vec<(String, u64)> {
    limits
        .iter()
        .map(|&limit| {
            let mut h = FNV_OFFSET;
            for app in apps {
                for size in SIZES {
                    let port = Port::halting(Latency::Random { seed: limit }, limit);
                    let (d, port) = run(app, insts, size, port);
                    assert!(port.accesses <= limit, "{app}: an access after the halt");
                    h = fnv(h, d);
                }
            }
            (format!("halt@{limit}"), h)
        })
        .collect()
}

/// Asserts `got` equals the pinned `want`, printing the whole table
/// in source form on a mismatch.
pub fn assert_table(got: &[(String, u64)], want: &[(&str, u64)]) {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((gn, gh), (wn, wh))| gn == wn && gh == wh);
    if !same {
        let rows: String = got
            .iter()
            .map(|(n, h)| format!("    (\"{n}\", {h:#018x}),\n"))
            .collect();
        panic!("golden core statistics moved; this run's table:\n{rows}");
    }
}
