//! Debug-sized copy of `crates/icr-sim/tests/sealed_trials.rs`: a sealed
//! one-shot trial must report the outcome, fault count and weight of the
//! full run, here over three schemes that between them cover parity and
//! SEC-DED, both lookups and the L2 spill tier.

#[path = "../crates/icr-sim/tests/support/sealed.rs"]
mod sealed;

use icr_core::Scheme;
use icr_fault::ErrorModel;
use sealed::Matrix;

#[test]
fn sealed_trials_match_full_runs() {
    let m = Matrix {
        schemes: vec![
            Scheme::BASE_P,
            Scheme::ICR_P_PP_LS,
            Scheme::ICR_ECC_PP_LS_L2,
        ],
        apps: vec!["gzip"],
        models: ErrorModel::all().to_vec(),
        trials: 3,
        instructions: 4_000,
        seed: 7,
    };
    let (pairs, simulated) = sealed::check(&m);
    assert_eq!(pairs, 3 * 4 * 2 * 2 * 3);
    assert!(
        simulated < 0.9,
        "trials barely stopped early: {simulated:.3}"
    );
}
