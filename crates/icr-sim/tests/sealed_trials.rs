//! Sealed one-shot trials against full runs, trial by trial: for every
//! trial of the ten paper presets plus two L2-spill descriptors × gzip,
//! mcf and gcc × all four error models × uniform and importance
//! sampling × oracle on and off, the trial that stops once its fault's
//! outcome is fixed must report the outcome, fault count and weight of
//! the run simulated to its last instruction.

#[path = "support/sealed.rs"]
mod sealed;

use icr_core::Scheme;
use icr_fault::ErrorModel;
use sealed::Matrix;

#[test]
fn sealed_trials_match_full_runs_across_the_matrix() {
    let mut schemes = Scheme::all_paper_schemes();
    schemes.extend([Scheme::ICR_P_PS_S_L2, Scheme::ICR_ECC_PP_LS_L2]);
    let m = Matrix {
        schemes,
        apps: vec!["gzip", "mcf", "gcc"],
        models: ErrorModel::all().to_vec(),
        trials: 6,
        instructions: 4_000,
        seed: 20_031,
    };
    let (pairs, simulated) = sealed::check(&m);
    assert_eq!(pairs, 3_456);
    println!("{pairs} pairs agree; sealed trials simulated {simulated:.3} of the accesses");
    assert!(
        simulated < 0.75,
        "trials barely stopped early: {simulated:.3}"
    );
}
