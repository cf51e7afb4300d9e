//! Round-trip tests for `icr-sim::json`: serialize → parse →
//! re-serialize every report type and assert byte equality of the
//! canonical form. This is the guard on the "bit-identical JSON"
//! invariant the bench trajectory depends on: if number formatting,
//! string escaping, or member ordering ever became unstable, the second
//! serialization would not reproduce the first.
//!
//! The byte-equality bar sits at two layouts. The reports are printed
//! by `json::pretty`, so re-printing a parsed report with it must give
//! the original bytes back. Below that, `parse(doc).to_json()` must be a
//! fixed point of `parse ∘ to_json`, and parsing must lose nothing —
//! every counter, float token, and key survives verbatim.

use icr_core::{DataL1Config, Scheme};
use icr_sim::json::{parse, pretty, Value};
use icr_sim::{
    run_audit, run_campaign, run_sharded_campaign, run_sim, run_vuln, AuditSpec, CampaignSpec,
    ShardedCampaignSpec, SimConfig, VulnSpec,
};

/// Parses the pretty-printed report `doc`, asserts `json::pretty`
/// reprints it byte for byte, and returns the parsed value.
fn roundtrip(doc: &str) -> Value {
    let v = canonical_roundtrip(doc);
    assert_eq!(pretty(&v), doc, "json::pretty must reprint the report");
    v
}

/// Parses `doc`, asserts canonical re-serialization is a byte-exact
/// fixed point, and returns the parsed value for structural checks.
fn canonical_roundtrip(doc: &str) -> Value {
    let v = parse(doc).unwrap_or_else(|e| panic!("emitted document failed to parse: {e}\n{doc}"));
    let canonical = v.to_json();
    let v2 = parse(&canonical)
        .unwrap_or_else(|e| panic!("canonical form failed to parse: {e}\n{canonical}"));
    assert_eq!(
        canonical,
        v2.to_json(),
        "canonical serialization must be a byte-exact fixed point"
    );
    assert_eq!(v, v2, "parse must be lossless over the canonical form");
    v
}

#[test]
fn sim_result_json_round_trips() {
    let r = run_sim(&SimConfig::paper(
        "gzip",
        DataL1Config::paper_default(Scheme::ICR_P_PS_S),
        2_000,
        5,
    ));
    let doc = r.to_json();
    let v = roundtrip(&doc);
    assert_eq!(v.get("app"), Some(&Value::Str("gzip".into())));
    assert!(v.get("replication").is_some(), "replication section kept");
    // Determinism end to end: a second run serializes to the same bytes.
    let again = run_sim(&SimConfig::paper(
        "gzip",
        DataL1Config::paper_default(Scheme::ICR_P_PS_S),
        2_000,
        5,
    ));
    assert_eq!(doc, again.to_json());
}

#[test]
fn audit_report_json_round_trips() {
    let spec = AuditSpec::new(vec![Scheme::ICR_P_PS_S], vec!["gzip".into()], 2_000, 5);
    let report = run_audit(&spec);
    let v = roundtrip(&report.to_json());
    let audit = v.get("audit").expect("audit section");
    assert_eq!(audit.get("instructions"), Some(&Value::Num("2000".into())));
    assert!(audit.get("total_accesses_checked").is_some());
}

#[test]
fn vuln_report_json_round_trips() {
    let spec = VulnSpec::new(vec![Scheme::BASE_P], vec!["gzip".into()], 2_000, 5);
    let report = run_vuln(&spec);
    let v = roundtrip(&report.to_json());
    assert!(v.get("vuln").is_some(), "vuln section kept");
}

#[test]
fn campaign_report_json_round_trips() {
    let mut spec = CampaignSpec::new(vec![Scheme::ICR_P_PS_S], vec!["gzip".into()], 20, 9);
    spec.instructions = 2_000;
    spec.batch = 10;
    spec.threads = 1;
    let report = run_campaign(&spec).expect("campaign runs");
    let doc = report.to_json();
    let v = roundtrip(
        doc.strip_suffix('\n')
            .expect("campaign reports end in a newline"),
    );
    assert!(v.get("campaign").is_some(), "campaign section kept");
    // The tally fields the conservation audit feeds on survive parsing.
    let cells = v.get("cells").expect("cells array");
    let Value::Arr(cells) = cells else {
        panic!("cells is an array")
    };
    assert!(!cells.is_empty());
}

/// The sharded report places `sharding` second, after `campaign`: on
/// one line for a single-process run (four scalars) and broken over
/// lines for a worker leg (its `worker` member is an array).
#[test]
fn sharded_report_json_round_trips() {
    let mut base = CampaignSpec::new(vec![Scheme::BASE_P], vec!["gzip".into()], 20, 9);
    base.instructions = 2_000;
    base.threads = 1;
    let spec = ShardedCampaignSpec::new(base, 10);
    for (spec, one_line) in [(spec.clone(), true), (spec.with_worker(0, 2), false)] {
        let report = run_sharded_campaign(&spec, None, false).expect("campaign runs");
        let doc = report.to_json();
        let v = roundtrip(
            doc.strip_suffix('\n')
                .expect("campaign reports end in a newline"),
        );
        let Value::Obj(members) = &v else {
            panic!("the report is an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["campaign", "sharding", "cells"]);
        assert_eq!(
            doc.contains("\n  \"sharding\": {\"shard_size\": 10,"),
            one_line
        );
    }
}

/// Float tokens survive verbatim: the parser never converts through
/// `f64`, so a 17-significant-digit token — the shortest-round-trip
/// output of `json::num` — is reproduced byte for byte.
#[test]
fn number_tokens_survive_verbatim() {
    let doc = "{\"v\": [0.30670142616163165, -1.5e-3, 2820.1196859794295, 50000]}";
    let v = canonical_roundtrip(doc);
    assert_eq!(
        v.to_json(),
        "{\"v\":[0.30670142616163165,-1.5e-3,2820.1196859794295,50000]}"
    );
}
