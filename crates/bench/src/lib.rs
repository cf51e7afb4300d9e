//! Criterion benchmark harness for the ICR reproduction (see benches/),
//! plus the helpers the `BENCH_*.json` writers share.

use icr_sim::json::{self, Value};

/// Label for a new history entry: `ICR_BENCH_LABEL` when set, else the
/// short git revision, else `local`.
pub fn label() -> String {
    if let Ok(l) = std::env::var("ICR_BENCH_LABEL") {
        return l;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "local".into())
}

/// Reads and parses the committed BENCH file at `path`; `None` when it
/// is missing or not a JSON document.
pub fn read_previous(path: &str) -> Option<Value> {
    json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// The `history` array of `prev` carried forward with `entry` appended,
/// keeping the last `keep` entries, as a compact JSON array. Kept
/// entries are re-serialised by [`Value::to_json`], which reproduces
/// the compact bytes these files are written in.
pub fn carry_history(prev: Option<&Value>, entry: Value, keep: usize) -> String {
    let mut history = match prev.and_then(|p| p.get("history")) {
        Some(Value::Arr(entries)) => entries.clone(),
        _ => Vec::new(),
    };
    history.push(entry);
    history.drain(..history.len().saturating_sub(keep));
    Value::Arr(history).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each committed BENCH file's history comes back byte for byte,
    /// followed by the new entry.
    #[test]
    fn committed_histories_carry_forward_byte_for_byte() {
        for name in [
            "BENCH_all.json",
            "BENCH_campaign.json",
            "BENCH_importance.json",
        ] {
            let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap();
            // `history` is the last member of each one-line document.
            let at = text.find("\"history\":").unwrap() + "\"history\":".len();
            let committed = text.trim_end().strip_suffix('}').unwrap()[at..].to_string();
            let entry = Value::Obj(vec![("label".into(), Value::from("new × entry"))]);
            let carried = carry_history(read_previous(&path).as_ref(), entry, usize::MAX);
            let expected = format!(
                "{},{{\"label\":\"new × entry\"}}]",
                committed.strip_suffix(']').unwrap()
            );
            assert_eq!(carried, expected, "{name}");
        }
    }

    #[test]
    fn history_keeps_the_last_entries() {
        let prev = json::parse(r#"{"history":[{"n":1},{"n":2},{"n":3}]}"#).unwrap();
        let entry = Value::Obj(vec![("n".into(), Value::from(4u64))]);
        assert_eq!(
            carry_history(Some(&prev), entry.clone(), 2),
            r#"[{"n":3},{"n":4}]"#
        );
        assert_eq!(carry_history(None, entry, 2), r#"[{"n":4}]"#);
    }
}
