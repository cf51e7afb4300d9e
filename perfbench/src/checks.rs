//! Output checks. Every workload run is checked before its timings count;
//! a failed check is reported as a failed run, never silently dropped.

use icr_core::ErrorOutcome;
use icr_sim::{CampaignReport, SimResult};

/// FNV-1a over the bytes, the digest the repository's golden tests use.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn check_digest(what: &str, bytes: &[u8], expected: Option<u64>) -> Result<(), String> {
    match expected {
        Some(want) if fnv(bytes) != want => Err(format!(
            "{what} digest {:#018x} differs from the recorded {want:#018x}",
            fnv(bytes)
        )),
        _ => Ok(()),
    }
}

/// The figure document (`icr-exp all --json`'s bytes) parses with the
/// repository's strict parser and holds one well-formed figure per
/// runner id, in order; with a recorded digest, its bytes match.
pub fn check_figures(doc: &str, ids: &[&str], digest: Option<u64>) -> Result<(), String> {
    use icr_sim::json::{parse, Value};
    let Value::Arr(figs) = parse(doc)? else {
        return Err("the figure document is not a JSON array".into());
    };
    if figs.len() != ids.len() {
        return Err(format!("{} figures for {} runners", figs.len(), ids.len()));
    }
    for (fig, id) in figs.iter().zip(ids) {
        if fig.get("id") != Some(&Value::Str(id.to_string())) {
            return Err(format!("expected figure {id:?}, found {:?}", fig.get("id")));
        }
        let (Some(Value::Arr(xs)), Some(Value::Arr(series))) = (fig.get("xs"), fig.get("series"))
        else {
            return Err(format!("figure {id} lacks xs or series"));
        };
        if series.is_empty() {
            return Err(format!("figure {id} has no series"));
        }
        for s in series {
            match s.get("values") {
                Some(Value::Arr(v)) if v.len() == xs.len() => {}
                _ => return Err(format!("figure {id} has a series not aligned with its xs")),
            }
        }
    }
    check_digest("figure document", doc.as_bytes(), digest)
}

/// Every cell ran its whole trial budget and its outcome tally accounts
/// for each trial exactly once; with a recorded digest, the report's
/// JSON bytes match.
pub fn check_campaign(
    report: &CampaignReport,
    cells: usize,
    budget: u64,
    digest: Option<u64>,
) -> Result<(), String> {
    if report.cells.len() != cells {
        return Err(format!("{} cells, expected {cells}", report.cells.len()));
    }
    for c in &report.cells {
        let name = format!("{} × {}", c.scheme.name(), c.app);
        if c.trials != budget || c.stopped_early {
            return Err(format!("{name} ran {} of {budget} trials", c.trials));
        }
        let tallied: u64 = ErrorOutcome::ALL.iter().map(|&o| c.tally.count(o)).sum();
        if tallied != c.trials {
            return Err(format!(
                "{name} tallies {tallied} outcomes for {} trials",
                c.trials
            ));
        }
    }
    check_digest("campaign report", report.to_json().as_bytes(), digest)
}

/// Every repetition committed the whole budget and serialised to the
/// same bytes; with a recorded digest, those bytes match.
pub fn check_long_run(reps: &[SimResult], budget: u64, digest: Option<u64>) -> Result<(), String> {
    let Some(first) = reps.first() else {
        return Err("no repetitions".into());
    };
    let json = first.to_json();
    for (i, r) in reps.iter().enumerate() {
        if r.pipeline.committed != budget {
            return Err(format!(
                "repetition {i} committed {} of {budget} instructions",
                r.pipeline.committed
            ));
        }
        if r.to_json() != json {
            return Err(format!("repetition {i} differs from repetition 0"));
        }
    }
    check_digest("run result", json.as_bytes(), digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icr_core::{DataL1Config, OutcomeTally, Scheme};
    use icr_sim::{run_campaign, run_sim, CampaignSpec, FigureResult, SimConfig};

    fn figure(id: &str) -> FigureResult {
        FigureResult {
            id: id.into(),
            title: "t".into(),
            unit: "u".into(),
            xs: vec!["a".into(), "b".into()],
            series: vec![icr_sim::Series {
                label: "s".into(),
                values: vec![1.0, f64::NAN],
            }],
            notes: String::new(),
        }
    }

    fn document(figs: &[FigureResult]) -> String {
        let body: Vec<String> = figs.iter().map(FigureResult::to_json).collect();
        format!("[\n{}\n]", body.join(",\n"))
    }

    #[test]
    fn figure_check_rejects_corrupted_documents() {
        let doc = document(&[figure("fig1"), figure("fig2")]);
        let ids = ["fig1", "fig2"];
        assert_eq!(check_figures(&doc, &ids, None), Ok(()));
        assert_eq!(check_figures(&doc, &ids, Some(fnv(doc.as_bytes()))), Ok(()));

        assert!(
            check_figures(&doc[..doc.len() - 2], &ids, None).is_err(),
            "truncated"
        );
        assert!(
            check_figures(&doc, &["fig1", "fig3"], None).is_err(),
            "wrong id"
        );
        assert!(
            check_figures(&doc, &["fig1"], None).is_err(),
            "extra figure"
        );
        let retitled = doc.replacen("\"title\":\"t\"", "\"title\":\"T\"", 1);
        assert_eq!(check_figures(&retitled, &ids, None), Ok(()));
        assert!(
            check_figures(&retitled, &ids, Some(fnv(doc.as_bytes()))).is_err(),
            "digest"
        );
        let mut short = figure("fig2");
        short.series[0].values.pop();
        let misaligned = document(&[figure("fig1"), short]);
        assert!(
            check_figures(&misaligned, &ids, None).is_err(),
            "misaligned series"
        );
    }

    #[test]
    fn campaign_check_rejects_corrupted_reports() {
        let mut spec = CampaignSpec::new(vec![Scheme::BASE_P], vec!["gzip".into()], 3, 1);
        spec.instructions = 2_000;
        spec.threads = 1;
        let report = run_campaign(&spec).expect("campaign runs");
        let digest = fnv(report.to_json().as_bytes());
        assert_eq!(check_campaign(&report, 1, 3, Some(digest)), Ok(()));

        assert!(check_campaign(&report, 2, 3, None).is_err(), "missing cell");
        assert!(check_campaign(&report, 1, 4, None).is_err(), "short budget");
        let mut lost = report.clone();
        let mut counts = lost.cells[0].tally.counts();
        let k = counts
            .iter()
            .position(|&n| n > 0)
            .expect("a non-empty outcome");
        counts[k] -= 1;
        lost.cells[0].tally = OutcomeTally::from_counts(counts);
        assert!(
            check_campaign(&lost, 1, 3, None).is_err(),
            "tally loses a trial"
        );
        let mut early = report.clone();
        early.cells[0].stopped_early = true;
        assert!(check_campaign(&early, 1, 3, None).is_err(), "stopped early");
        assert!(
            check_campaign(&report, 1, 3, Some(digest ^ 1)).is_err(),
            "digest"
        );
    }

    #[test]
    fn long_run_check_rejects_corrupted_results() {
        let cfg = SimConfig::paper("mcf", DataL1Config::paper_default(Scheme::BASE_P), 2_000, 1);
        let r = run_sim(&cfg);
        let digest = fnv(r.to_json().as_bytes());
        assert_eq!(
            check_long_run(&[r.clone(), r.clone()], 2_000, Some(digest)),
            Ok(())
        );

        assert!(check_long_run(&[], 2_000, None).is_err(), "no repetitions");
        assert!(
            check_long_run(std::slice::from_ref(&r), 3_000, None).is_err(),
            "short run"
        );
        let mut drift = r.clone();
        drift.icr.writebacks += 1;
        assert!(
            check_long_run(&[r.clone(), drift], 2_000, None).is_err(),
            "drift"
        );
        assert!(
            check_long_run(&[r], 2_000, Some(digest ^ 1)).is_err(),
            "digest"
        );
    }
}
