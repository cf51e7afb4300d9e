//! The synthetic generator's output, pinned: `disk::trace_digest` of the
//! first 100k instructions of every app under two seeds. The digest is
//! the FNV-1a of the `.icrt` record bytes, so a change to the generator,
//! to the `Inst` layout, to the codec or to the store's materialisation
//! that moves any field of any instruction shows up here.

use icr_trace::{apps, disk, TraceGenerator, WorkloadStore};

const INSTS: u64 = 100_000;

/// `(app, seed, trace_digest)` of the first [`INSTS`] instructions.
const DIGESTS: [(&str, u64, u64); 16] = [
    ("gzip", 1, 0xf4bd_65ec_2736_cea8),
    ("gzip", 42, 0xb9b7_8175_ee5c_04bf),
    ("vpr", 1, 0xeb0a_dc4c_8455_dafa),
    ("vpr", 42, 0x53ee_8184_2db9_2bba),
    ("gcc", 1, 0x1869_db4c_34f4_b614),
    ("gcc", 42, 0x30e4_d5b3_f4c9_326a),
    ("mcf", 1, 0x6e74_727b_1326_0b99),
    ("mcf", 42, 0xe9bf_f912_02d5_e51b),
    ("parser", 1, 0xbe3c_e728_68a1_624e),
    ("parser", 42, 0x8a0b_7a7e_e1e5_1a51),
    ("mesa", 1, 0xa8f7_c20c_19ae_516a),
    ("mesa", 42, 0xb181_9361_728d_8122),
    ("vortex", 1, 0xc545_3ddc_88c2_671c),
    ("vortex", 42, 0x1f89_5edc_2df8_3c3f),
    ("art", 1, 0x4f04_ba45_3154_a3f6),
    ("art", 42, 0xa1e7_dd98_3472_6bc0),
];

#[test]
fn table_covers_every_app_under_both_seeds() {
    for app in apps::APP_NAMES {
        for seed in [1, 42] {
            assert!(
                DIGESTS.iter().any(|&(a, s, _)| a == app && s == seed),
                "{app}/{seed} missing from the table"
            );
        }
    }
}

#[test]
fn generated_traces_match_the_pinned_digests() {
    for (app, seed, want) in DIGESTS {
        let trace: Vec<_> = TraceGenerator::new(apps::profile(app), seed)
            .take(INSTS as usize)
            .collect();
        assert_eq!(
            disk::trace_digest(&trace),
            want,
            "{app}/{seed}: generator output moved"
        );
    }
}

#[test]
fn stored_traces_match_the_pinned_digests() {
    let store = WorkloadStore::new();
    for (app, seed, want) in DIGESTS {
        let trace = store.get(app, seed, INSTS);
        assert_eq!(trace.len() as u64, INSTS);
        assert_eq!(
            disk::trace_digest(&trace),
            want,
            "{app}/{seed}: materialised trace differs from the generator"
        );
    }
}
