//! Byte-level pin of the default figure matrix across the ISA-frontend
//! work: execution-driven `isa:*` workloads join the app roster via
//! `EXTENDED_APP_NAMES` only, so the document `icr-exp all --json`
//! emits — every figure id, x label, series label and number token —
//! must not move. The digest below was recorded from the tree *before*
//! the `icr-isa` crate existed; this test re-derives the document
//! through the same `all_figures` + join path the binary uses (at a
//! reduced instruction budget so the whole matrix fits in tier-1 time)
//! and compares bytes.
//!
//! Regenerate (only when a PR *deliberately* changes figure output)
//! with:
//!
//! ```text
//! cargo test -p icr-sim --test golden_figures --release -- \
//!     --ignored record_golden_digest --nocapture
//! ```
//!
//! A second table, [`REPORT_DIGESTS`], pins the bytes of the other
//! report documents — `SimResult`, audit, vuln, uniform and importance
//! campaigns, and one worker leg of a sharded run — at tiny budgets.
//! Regenerate it the same way with `record_report_digests`.

use icr_core::{DataL1Config, Scheme};
use icr_sim::experiment::{all_figures, figure_runners, ExpOptions};
use icr_sim::{
    run_audit, run_campaign, run_sharded_campaign, run_sim, run_vuln, AuditSpec, CampaignSpec,
    ShardedCampaignSpec, SimConfig, VulnSpec,
};
use icr_trace::apps::{APP_NAMES, EXTENDED_APP_NAMES};

/// The budget the pin runs at. Small enough for debug-mode tier-1,
/// large enough that every figure exercises fills, evictions,
/// replication, decay and write-back traffic.
const GOLDEN_INSTRUCTIONS: u64 = 3_000;
const GOLDEN_SEED: u64 = 42;

/// FNV-1a over the document bytes.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds the exact document `icr-exp all --json` writes, at the test
/// budget.
fn all_json_document() -> String {
    let opts = ExpOptions {
        instructions: GOLDEN_INSTRUCTIONS,
        seed: GOLDEN_SEED,
        threads: 0,
    };
    let body = all_figures(&opts)
        .iter()
        .map(|f| f.to_json())
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{body}\n]")
}

/// Recorded from the pre-`icr-isa` tree. If this moves, the default
/// figure matrix's bytes moved.
const GOLDEN_DIGEST: u64 = 0x0e9b_bc95_d77e_6ac3; // 29 figures, 25060 bytes

#[test]
#[ignore = "fixture recorder, run explicitly with --ignored"]
fn record_golden_digest() {
    let doc = all_json_document();
    println!(
        "const GOLDEN_DIGEST: u64 = {:#018x}; // {} figures, {} bytes",
        fnv(doc.as_bytes()),
        doc.matches("\"id\":").count(),
        doc.len()
    );
}

#[test]
fn default_figure_matrix_bytes_are_pinned() {
    let doc = all_json_document();
    assert_eq!(
        fnv(doc.as_bytes()),
        GOLDEN_DIGEST,
        "the `icr-exp all --json` document changed; ISA workloads must \
         join via EXTENDED_APP_NAMES without touching the default matrix \
         (re-record only if the figure change is deliberate)"
    );
}

/// The roster invariants behind the pin: the paper's eight apps are
/// untouched, no `isa:` name appears in `APP_NAMES`, and no figure
/// runner id refers to the ISA matrix.
#[test]
fn isa_workloads_join_via_extended_names_only() {
    assert_eq!(
        APP_NAMES,
        ["gzip", "vpr", "gcc", "mcf", "parser", "mesa", "vortex", "art"]
    );
    assert!(
        APP_NAMES.iter().all(|a| !a.starts_with("isa:")),
        "default app roster must stay synthetic"
    );
    assert!(
        EXTENDED_APP_NAMES.iter().any(|a| a.starts_with("isa:")),
        "execution-driven kernels are published through EXTENDED_APP_NAMES"
    );
    assert!(
        figure_runners().iter().all(|(id, _)| *id != "isa"),
        "the ISA matrix is its own subcommand, not part of `all`"
    );
}

/// The scheme-descriptor redesign's analogue of the roster invariant:
/// the ten paper presets stay the only schemes the default figures name
/// (every one a dL1-only placement), the spill figure is its own
/// subcommand, and the digest above therefore pins the paper presets'
/// default output bytes across the `SchemeSpec` rewrite.
#[test]
fn spill_descriptors_join_outside_the_default_matrix() {
    assert!(
        figure_runners().iter().all(|(id, _)| *id != "spill"),
        "the spill comparison is its own subcommand, not part of `all`"
    );
    let paper = icr_core::Scheme::all_paper_schemes();
    assert_eq!(paper.len(), 10);
    assert!(
        paper.iter().all(|s| !s.spills_to_l2()),
        "paper presets must keep replicas in the dL1 only"
    );
    // No named spill preset leaks into the pinned document.
    let doc = all_json_document();
    for s in icr_core::Scheme::all_spill_schemes() {
        assert!(
            !doc.contains(&s.name()),
            "spill scheme {} appeared in the default figure document",
            s.name()
        );
    }
}

/// A two-scheme, one-app campaign small enough for debug-mode tier-1.
fn tiny_campaign(importance: bool, target_ci_width: Option<f64>) -> CampaignSpec {
    let mut spec = CampaignSpec::new(
        vec![Scheme::BASE_P, Scheme::ICR_P_PS_S],
        vec!["gzip".into()],
        20,
        9,
    );
    spec.instructions = 2_000;
    spec.batch = 10;
    spec.threads = 1;
    spec.importance = importance;
    spec.target_ci_width = target_ci_width;
    spec
}

/// Every pinned report document, by name. Trailing newlines are
/// stripped before hashing, so the digests pin each document's layout
/// and tokens; which documents end in a newline is pinned separately by
/// `report_line_endings_are_pinned`.
fn report_documents() -> Vec<(&'static str, String)> {
    let schemes = vec![Scheme::BASE_P, Scheme::ICR_P_PS_S];
    let apps = vec!["gzip".to_string()];
    let sim = run_sim(&SimConfig::paper(
        "gzip",
        DataL1Config::paper_default(Scheme::ICR_P_PS_S),
        2_000,
        5,
    ));
    let audit = run_audit(&AuditSpec::new(schemes.clone(), apps.clone(), 2_000, 5));
    let vuln = run_vuln(&VulnSpec::new(schemes, apps, 2_000, 5));
    let campaign = |importance, width| {
        run_campaign(&tiny_campaign(importance, width))
            .expect("campaign runs")
            .to_json()
    };
    let leg = ShardedCampaignSpec::new(tiny_campaign(true, None), 5).with_worker(1, 2);
    let leg = run_sharded_campaign(&leg, None, false).expect("worker leg runs");
    vec![
        ("sim", sim.to_json()),
        ("audit", audit.to_json()),
        ("vuln", vuln.to_json()),
        ("campaign_uniform", campaign(false, None)),
        ("campaign_uniform_target", campaign(false, Some(0.5))),
        ("campaign_importance", campaign(true, None)),
        ("campaign_importance_target", campaign(true, Some(0.5))),
        ("sharded_worker_leg", leg.to_json()),
    ]
}

/// Recorded from the tree before the reports were built as
/// `json::Value`s; if one moves, that report's bytes moved.
const REPORT_DIGESTS: [(&str, u64); 8] = [
    ("sim", 0xf30a7ebfe2aad72b),                        // 1015 bytes
    ("audit", 0x476c447864ee4805),                      // 368 bytes
    ("vuln", 0x688a826d1c4713b3),                       // 1846 bytes
    ("campaign_uniform", 0xb38b0c1cb6164c41),           // 1244 bytes
    ("campaign_uniform_target", 0x57a6026cc9f50bc3),    // 1238 bytes
    ("campaign_importance", 0xd9742cdb7349d0f2),        // 2079 bytes
    ("campaign_importance_target", 0xfa6d3f834150258b), // 2041 bytes
    ("sharded_worker_leg", 0xaea43991276b86c8),         // 2215 bytes
];

#[test]
#[ignore = "fixture recorder, run explicitly with --ignored"]
fn record_report_digests() {
    println!("const REPORT_DIGESTS: [(&str, u64); 8] = [");
    for (name, doc) in report_documents() {
        let doc = doc.trim_end_matches('\n');
        println!(
            "    ({name:?}, {:#018x}), // {} bytes",
            fnv(doc.as_bytes()),
            doc.len()
        );
    }
    println!("];");
}

#[test]
fn report_bytes_are_pinned() {
    let docs = report_documents();
    assert_eq!(docs.len(), REPORT_DIGESTS.len());
    for ((name, doc), (pinned_name, pinned)) in docs.iter().zip(REPORT_DIGESTS) {
        assert_eq!(*name, pinned_name);
        assert_eq!(
            fnv(doc.trim_end_matches('\n').as_bytes()),
            pinned,
            "the {name} report's bytes changed:\n{doc}"
        );
    }
}

/// Campaign documents end in exactly one newline; every other report
/// ends at its closing brace.
#[test]
fn report_line_endings_are_pinned() {
    for (name, doc) in report_documents() {
        let newline = name.starts_with("campaign") || name.starts_with("sharded");
        assert!(doc.ends_with(if newline { "}\n" } else { "}" }), "{name}");
    }
}
