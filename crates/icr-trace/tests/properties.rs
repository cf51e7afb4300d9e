//! Property-based tests for the workload generators: any valid profile
//! must yield well-formed, deterministic instruction streams whose
//! realised statistics track the profile.

use icr_trace::{
    AppProfile, BranchProfile, LocalityProfile, OpClass, OpMix, TraceGenerator, TraceStats,
};
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = AppProfile> {
    (
        (
            0.05f64..0.35, // load
            0.02f64..0.20, // store
            0.05f64..0.20, // branch
        ),
        (
            1u32..8,       // hot size (x16 blocks)
            1u32..16,      // warm size (x32 blocks)
            0.3f64..0.9,   // p_hot
            0.0f64..1.0,   // stride fraction
            any::<bool>(), // pointer chase
            any::<bool>(), // hot confined
            0u32..64,      // warm dwell
        ),
        (
            16usize..512, // branch sites
            0.2f64..0.9,  // taken rate
            0.0f64..1.0,  // predictability
        ),
    )
        .prop_map(
            |(
                (load, store, branch),
                (hot, warm, p_hot, stride, chase, confined, dwell),
                (sites, taken, pred),
            )| {
                let rest = 1.0 - load - store - branch;
                AppProfile {
                    name: "synthetic".into(),
                    mix: OpMix {
                        load,
                        store,
                        branch,
                        int_alu: rest * 0.85,
                        int_mul: rest * 0.05,
                        fp_alu: rest * 0.07,
                        fp_mul: rest * 0.03,
                    },
                    locality: LocalityProfile {
                        hot_blocks: (hot * 16) as usize,
                        warm_blocks: (warm * 32) as usize,
                        cold_blocks: 4096,
                        p_hot,
                        p_warm: (1.0 - p_hot) * 0.6,
                        stride_fraction: stride,
                        pointer_chase: chase,
                        store_hot_bias: 1.0,
                        store_reuse: 0.05,
                        warm_dwell: dwell,
                        hot_confined: confined,
                    },
                    branch: BranchProfile {
                        sites,
                        taken_rate: taken,
                        predictability: pred,
                    },
                    data_base: 0x1000_0000,
                    code_base: 0x0040_0000,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any generated profile validates and produces a deterministic,
    /// well-formed stream.
    #[test]
    fn any_profile_generates_wellformed_streams(profile in arb_profile(), seed: u64) {
        profile.validate().expect("constructed to be valid");
        let a: Vec<_> = TraceGenerator::new(profile.clone(), seed).take(2000).collect();
        let b: Vec<_> = TraceGenerator::new(profile.clone(), seed).take(2000).collect();
        prop_assert_eq!(&a, &b, "same seed, same stream");
        for inst in &a {
            match inst.op {
                OpClass::Load => {
                    prop_assert!(inst.mem_addr().is_some());
                    prop_assert!(inst.dest.is_some());
                }
                OpClass::Store => {
                    prop_assert!(inst.mem_addr().is_some());
                    prop_assert!(inst.dest.is_none());
                    prop_assert!(inst.srcs[0].is_some(), "stores carry a data source");
                }
                OpClass::Branch => {
                    prop_assert!(inst.mem_addr().is_none());
                    prop_assert!(inst.target() >= profile.code_base);
                }
                _ => prop_assert!(inst.mem_addr().is_none()),
            }
            if let Some(addr) = inst.mem_addr() {
                prop_assert_eq!(addr % 8, 0, "word aligned");
                prop_assert!(addr >= profile.data_base);
            }
        }
    }

    /// Realised op fractions track the profile within loose bounds.
    #[test]
    fn realised_mix_tracks_profile(profile in arb_profile()) {
        let stats = TraceStats::collect(
            TraceGenerator::new(profile.clone(), 7).take(50_000),
        );
        prop_assert!((stats.load_fraction() - profile.mix.load).abs() < 0.05,
            "loads {} vs {}", stats.load_fraction(), profile.mix.load);
        prop_assert!((stats.store_fraction() - profile.mix.store).abs() < 0.05,
            "stores {} vs {}", stats.store_fraction(), profile.mix.store);
        prop_assert!((stats.branch_fraction() - profile.mix.branch).abs() < 0.05,
            "branches {} vs {}", stats.branch_fraction(), profile.mix.branch);
    }
}
