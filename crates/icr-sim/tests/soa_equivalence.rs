//! Differential pin of the dL1's observable state across the refactor to
//! a structure-of-arrays hot path.
//!
//! The fixture table below was recorded from the pre-refactor
//! (array-of-structs) implementation: one digest per (scheme × app) cell
//! of the paper matrix, folding every `export_lines` field, the per-set
//! `lru_order`, the audited statistics counters and the returned access
//! latencies at regular checkpoints during a trace replay. Any layout
//! change that perturbs a tag, dirty bit, protection code, replica flag,
//! decay counter, recency order, latency or counter — at any checkpoint,
//! not just at the end — changes the digest.
//!
//! Regenerate with:
//!
//! ```text
//! cargo test -p icr-sim --test soa_equivalence --release -- \
//!     --ignored record_digests --nocapture
//! ```
//!
//! Alongside the recorded matrix, randomized access sequences (vendored
//! proptest stand-in) drive the dL1 in lockstep against the independent
//! `icr-check` reference model, so sequences no trace produces are
//! covered too — zero divergences tolerated.

use icr_core::{DataL1, DataL1Config, Scheme, VictimPolicy, WritePolicy};
use icr_mem::{Addr, HierarchyConfig, MemoryBackend};
use icr_sim::audit::{export_real_state, ref_config};
use icr_trace::apps::APP_NAMES;
use icr_trace::OpClass;
use proptest::prelude::*;

/// Instructions replayed per cell. Small enough to keep the whole matrix
/// in tier-1 time, large enough to exercise fills, evictions,
/// replication, decay death and write-back traffic.
const REPLAY_INSTRUCTIONS: u64 = 20_000;
const REPLAY_SEED: u64 = 42;
/// Digest checkpoint cadence, in memory accesses. Prime, so it does not
/// alias with any power-of-two structure in the cache.
const CHECKPOINT_EVERY: u64 = 997;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Folds the full observable state of the cache — every exported line
/// field, the recency order of every set, and the audited counters.
fn fold_state(h: &mut u64, dl1: &DataL1, now: u64) {
    for l in dl1.export_lines(now) {
        fold(h, l.set as u64);
        fold(h, l.way as u64);
        fold(h, l.addr.raw());
        fold(h, u64::from(l.dirty));
        fold(h, u64::from(l.is_replica));
        fold(h, u64::from(l.protection == icr_ecc::Protection::SecDed));
        fold(h, l.last_access);
        fold(h, u64::from(l.counter));
        fold(h, u64::from(l.dead));
    }
    for s in 0..dl1.geometry().num_sets() {
        for w in dl1.lru_order(s) {
            fold(h, w as u64);
        }
    }
    let st = dl1.stats();
    for v in [
        st.cache.read_accesses,
        st.cache.read_hits,
        st.cache.write_accesses,
        st.cache.write_hits,
        st.cache.fills,
        st.cache.evictions,
        st.writebacks,
        st.replicas_created,
        st.replica_evictions,
        st.replica_updates,
        st.replication_attempts,
        st.replication_with_one,
        st.replication_with_two,
        st.read_hits_with_replica,
        st.misses_served_by_replica,
        st.l1_read_ops,
        st.l1_write_ops,
        st.parity_ops,
        st.ecc_ops,
        dl1.vulnerable_word_count() as u64,
    ] {
        fold(h, v);
    }
}

/// Replays the memory accesses of one traced workload through a dL1 and
/// digests the observable state at every checkpoint. The access clock
/// advances by each access's returned latency, so a latency change
/// shifts every later `last_access` and decay counter into the digest.
fn replay_digest(cfg: DataL1Config, app: &str) -> u64 {
    let trace = icr_trace::store::global().get(app, REPLAY_SEED, REPLAY_INSTRUCTIONS);
    let mut dl1 = DataL1::new(cfg);
    let mut backend = MemoryBackend::new(&HierarchyConfig::default());
    let mut h = FNV_OFFSET;
    let mut now = 0u64;
    let mut accesses = 0u64;
    for inst in trace.iter() {
        let lat = match inst.op {
            OpClass::Load => dl1.load(Addr(inst.mem_addr().unwrap()), now, &mut backend),
            OpClass::Store => dl1.store(Addr(inst.mem_addr().unwrap()), now, &mut backend),
            _ => {
                now += 1;
                continue;
            }
        };
        fold(&mut h, lat);
        now += 1 + lat;
        accesses += 1;
        if accesses.is_multiple_of(CHECKPOINT_EVERY) {
            fold_state(&mut h, &dl1, now);
        }
    }
    fold_state(&mut h, &dl1, now);
    h
}

/// The recorded pre-refactor digests, row-major over
/// `Scheme::all_paper_schemes() × APP_NAMES` (paper-default config per
/// scheme). Regenerate via the ignored `record_digests` test.
const RECORDED: [[u64; 8]; 10] = [
    [
        // BaseP
        0x69820c0581b934ca,
        0xdff05b07f77cf58b,
        0x08b3b39c29e65c8d,
        0x1ca48f6a77dc23ea,
        0x2c3286516f5ad64e,
        0xce3048edfa2d8214,
        0x2c513ede070f72f1,
        0xe5521a7462644fd2,
    ],
    [
        // BaseECC
        0xfa896ffd098ace05,
        0xbcb7b00d1b458d8d,
        0x71a5ab2b3e916a84,
        0x255b3c70523b37bd,
        0xd030c7694f140ddb,
        0x637f9c72fcaeb067,
        0xf964c8f94dd8ee58,
        0x7b3899574141b155,
    ],
    [
        // ICR-P-PS (LS)
        0xba4b8e156d07b387,
        0x05114169980f7158,
        0x53a755c78376bdc9,
        0x0197624c535a223b,
        0xd00136bbf9d6d8ee,
        0x6ba258b3f2f5ad6e,
        0xf71cbb3e87ea5558,
        0x0cc76f86d9cade74,
    ],
    [
        // ICR-P-PS (S)
        0x2d7a6cb6b5e2d770,
        0xf7dedc4eb90b5a29,
        0xe91c46b4874b665d,
        0x7d76261f87acc0d9,
        0xb93cb920c311d507,
        0xf6c42c7c1aa61311,
        0x0d53f60c14874911,
        0xb2e4c4cd187bf4ac,
    ],
    [
        // ICR-P-PP (LS)
        0xd6c2010748815e00,
        0xae1a2f6701f46339,
        0x7a16daad41ff0417,
        0x12fda5b2a61d41b0,
        0x05fd25f02a170eba,
        0xdac0fe486802d5cd,
        0xfdbde0b2424ef2b4,
        0x1d15baa009430535,
    ],
    [
        // ICR-P-PP (S)
        0x6d535788d99e0ca3,
        0x7761da5548ae29a5,
        0x7ef41e5f7bb26f4d,
        0x6be790e07309cab0,
        0xf5e6845ed4007a2c,
        0x6dd637b321b7ca97,
        0x332a7dcdd369dee4,
        0x31777b5c7f1350b2,
    ],
    [
        // ICR-ECC-PS (LS)
        0x638d04b9ecd06e41,
        0x0447fddeb6f4c0d2,
        0x5d022c5f7fb44887,
        0xde24135eaa4fe23e,
        0xc6038a0d80103f8a,
        0xe760b0282abd9996,
        0x77ba5d0761d6bb79,
        0xf928d90505c1a579,
    ],
    [
        // ICR-ECC-PS (S)
        0xa13200826a272126,
        0x75f1e16046540752,
        0xb339f42f9f857f6e,
        0xe1b5868ad032423f,
        0xf7ff680a97ffa4b2,
        0x84200df20459f8ff,
        0xe42030a68dc68504,
        0xaed5b22dd8b882f2,
    ],
    [
        // ICR-ECC-PP (LS)
        0x599fda8668edbdf0,
        0x7a007a20ea52d61f,
        0x7a68e5251aedbb82,
        0x6a87d769105b8fb1,
        0xe1ef838faad160ae,
        0x0ad9003cf8d2b447,
        0x30279708ee1ffb22,
        0x34050e4825a4a673,
    ],
    [
        // ICR-ECC-PP (S)
        0x100cef0502e4385f,
        0xcd6ac6f1e5bd4395,
        0x37c321644bc40b6c,
        0x86b95c5ba667ca23,
        0x04af89bee0f879c4,
        0xa1d26fc4f16f4139,
        0xfeaabdbbf632d338,
        0x541cfed5ac37ab76,
    ],
];

/// Prints the fixture table from the *current* implementation. Run this
/// before a refactor to record the baseline, then paste the output over
/// `RECORDED`.
#[test]
#[ignore = "fixture recorder, run explicitly with --ignored"]
fn record_digests() {
    println!("const RECORDED: [[u64; 8]; 10] = [");
    for scheme in Scheme::all_paper_schemes() {
        println!("    [ // {}", scheme.name());
        for app in APP_NAMES {
            let d = replay_digest(DataL1Config::paper_default(scheme), app);
            println!("        {d:#018x},");
        }
        println!("    ],");
    }
    println!("];");
}

#[test]
fn digests_match_recorded_pre_refactor_state() {
    let schemes = Scheme::all_paper_schemes();
    assert_eq!(schemes.len(), RECORDED.len());
    let mut failures = Vec::new();
    for (si, &scheme) in schemes.iter().enumerate() {
        for (ai, app) in APP_NAMES.iter().enumerate() {
            let got = replay_digest(DataL1Config::paper_default(scheme), app);
            let want = RECORDED[si][ai];
            if got != want {
                failures.push(format!(
                    "{} x {app}: recorded {want:#018x}, got {got:#018x}",
                    scheme.name()
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "observable dL1 state diverged from the pre-refactor recording:\n{}",
        failures.join("\n")
    );
}

/// The write-through path has its own fixture (the matrix above is all
/// write-back): one digest per app pins buffer stalls, clean lines and
/// no-allocate misses.
const RECORDED_WT: [u64; 8] = [
    0xb7c4aa141c0b49c3,
    0x59a0f639baadc54d,
    0x1bd640b47f1a2e00,
    0x0acf4dc4d98093e6,
    0xfa62e1786cce347c,
    0x9d6ac061ec660e39,
    0x5a4e378d9563ef29,
    0xddf6847b010d1d09,
];

fn wt_config() -> DataL1Config {
    let mut cfg = DataL1Config::paper_default(Scheme::BASE_P);
    cfg.write_policy = WritePolicy::WriteThrough { buffer_entries: 8 };
    cfg
}

#[test]
#[ignore = "fixture recorder, run explicitly with --ignored"]
fn record_digests_write_through() {
    println!("const RECORDED_WT: [u64; 8] = [");
    for app in APP_NAMES {
        println!("    {:#018x},", replay_digest(wt_config(), app));
    }
    println!("];");
}

#[test]
fn write_through_digests_match_recorded_pre_refactor_state() {
    for (ai, app) in APP_NAMES.iter().enumerate() {
        let got = replay_digest(wt_config(), app);
        assert_eq!(
            got, RECORDED_WT[ai],
            "write-through {app}: recorded {:#018x}, got {got:#018x}",
            RECORDED_WT[ai]
        );
    }
}

// ---------------------------------------------------------------------
// Randomized sequences: lockstep against the independent reference model.
// ---------------------------------------------------------------------

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    // Every named preset: the ten paper schemes, the speculative-ECC
    // comparison point, and the eight L2-spill variants.
    prop::sample::select(Scheme::all_named_schemes())
}

fn arb_victim() -> impl Strategy<Value = VictimPolicy> {
    prop::sample::select(vec![
        VictimPolicy::DeadOnly,
        VictimPolicy::DeadFirst,
        VictimPolicy::ReplicaFirst,
        VictimPolicy::ReplicaOnly,
    ])
}

/// One synthetic access: block id, word, store?, cycle gap.
fn arb_ops() -> impl Strategy<Value = Vec<(u16, u8, bool, u8)>> {
    prop::collection::vec((0u16..512, 0u8..8, any::<bool>(), 0u8..50), 1..250)
}

proptest! {
    /// For arbitrary schemes, victim policies and access sequences, the
    /// dL1's exported state must match the naive reference model after
    /// every single access.
    #[test]
    fn random_sequences_stay_in_lockstep_with_the_reference_model(
        scheme in arb_scheme(),
        victim in arb_victim(),
        keep in any::<bool>(),
        decay_window in prop::sample::select(vec![0u64, 300, 1000]),
        ops in arb_ops(),
    ) {
        let mut cfg = DataL1Config::paper_default(scheme);
        cfg.victim = victim;
        cfg.keep_replicas_on_evict = keep;
        cfg.decay = icr_core::DecayConfig { window: decay_window };
        let g = cfg.geometry;
        let hierarchy = HierarchyConfig::default();
        let mut model = icr_check::RefModel::new(ref_config(&cfg, &hierarchy));
        let mut dl1 = DataL1::new(cfg);
        let mut backend = MemoryBackend::new(&hierarchy);
        let mut now = 0u64;
        for &(block, word, is_store, gap) in &ops {
            let addr = Addr(0x4000_0000 + u64::from(block) * g.block_bytes() as u64
                + u64::from(word) * 8);
            let lat = if is_store {
                model.store(addr.raw(), now);
                dl1.store(addr, now, &mut backend)
            } else {
                model.load(addr.raw(), now);
                dl1.load(addr, now, &mut backend)
            };
            let real = export_real_state(&dl1, &backend, now);
            if let Err(e) = model.check(now, &real) {
                prop_assert!(false, "divergence at cycle {now}: {e}");
            }
            now += 1 + lat + u64::from(gap);
        }
    }
}
