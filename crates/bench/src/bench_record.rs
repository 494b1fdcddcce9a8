//! The `reproduce --bench-out` wall-clock record, with partial-run
//! merging.
//!
//! A `--which` run used to rebuild the whole record from only the
//! experiments that ran, silently clobbering the committed full-run
//! record (`results/BENCH_reproduce.json` once read `total_wall_ms:
//! 0.329` with a single `oracle` entry). [`merged_bench_json`] fixes
//! that: per-experiment entries from the previous record survive a
//! partial rerun — only the experiments that actually ran are refreshed
//! — and the totals stay honest (`total_wall_ms` is the sum of the
//! merged per-experiment walls, and `which` reports `"all"` only when
//! every canonical experiment is covered).

use ltsp_telemetry::json::{self, JsonValue};
use ltsp_telemetry::Histogram;

use crate::catalog::EXPERIMENTS;

/// The names of every experiment `reproduce` can run, in report order
/// (the name column of [`EXPERIMENTS`]). Merged records list experiments
/// in this order regardless of which rerun refreshed them.
pub const CANONICAL_EXPERIMENTS: [&str; EXPERIMENTS.len()] = {
    let mut names = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = EXPERIMENTS[i].0;
        i += 1;
    }
    names
};

/// Per-experiment wall timings carried over from an existing record.
fn existing_timings(existing: &str) -> Vec<(String, f64)> {
    let Ok(doc) = json::parse(existing) else {
        return Vec::new();
    };
    if doc.get("schema").and_then(JsonValue::as_str) != Some("ltsp.bench.reproduce.v1") {
        return Vec::new();
    }
    let Some(exps) = doc.get("experiments").and_then(JsonValue::as_array) else {
        return Vec::new();
    };
    exps.iter()
        .filter_map(|e| {
            let name = e.get("name").and_then(JsonValue::as_str)?;
            let ms = e.get("wall_ms").and_then(JsonValue::as_f64)?;
            Some((name.to_string(), ms))
        })
        .collect()
}

/// Renders the machine-readable wall-clock record
/// (`ltsp.bench.reproduce.v1`), merging this run's per-experiment
/// timings into `existing` (the previous record's bytes, if any).
///
/// Experiments that ran now take their fresh timing; experiments present
/// only in the previous record keep theirs; the rest are absent. Names
/// follow [`CANONICAL_EXPERIMENTS`] order (unknown leftover names keep
/// their relative order at the end). `total_wall_ms` is the sum of the
/// merged per-experiment walls. `which` is `"all"` when the merged
/// record covers every canonical experiment, otherwise this run's
/// selector. `scale`, `jobs` and the phase KPIs always describe the
/// current run.
pub fn merged_bench_json(
    which: &str,
    scale: f64,
    jobs: usize,
    timings: &[(String, f64)],
    phases: &[(&'static str, Histogram)],
    existing: Option<&str>,
) -> String {
    let mut merged: Vec<(String, f64)> = Vec::new();
    let mut leftover: Vec<(String, f64)> = existing.map(existing_timings).unwrap_or_default();
    // This run wins over the previous record.
    leftover.retain(|(n, _)| !timings.iter().any(|(t, _)| t == n));
    for name in CANONICAL_EXPERIMENTS {
        if let Some((_, ms)) = timings.iter().find(|(n, _)| n == name) {
            merged.push((name.to_string(), *ms));
        } else if let Some(pos) = leftover.iter().position(|(n, _)| n == name) {
            merged.push(leftover.remove(pos));
        }
    }
    // Fresh timings under unknown names (defensive), then unknown
    // leftovers from the previous record.
    for (n, ms) in timings {
        if !CANONICAL_EXPERIMENTS.contains(&n.as_str()) {
            merged.push((n.clone(), *ms));
        }
    }
    merged.extend(leftover);

    let covered = CANONICAL_EXPERIMENTS
        .iter()
        .all(|name| merged.iter().any(|(n, _)| n == name));
    let which = if covered { "all" } else { which };
    let total_ms: f64 = merged.iter().map(|(_, ms)| ms).sum();

    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"ltsp.bench.reproduce.v1\",\n");
    s.push_str(&format!("  \"which\": \"{which}\",\n"));
    s.push_str(&format!("  \"scale\": {scale},\n"));
    s.push_str(&format!("  \"jobs\": {jobs},\n"));
    s.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        ltsp_par::default_parallelism()
    ));
    s.push_str(&format!("  \"total_wall_ms\": {total_ms:.3},\n"));
    s.push_str("  \"phases\": {");
    for (i, (name, h)) in phases.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "\"{name}\": {{\"p50\": {}, \"p99\": {}, \"count\": {}}}",
            h.quantile(0.50).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            h.count
        ));
    }
    s.push_str("},\n");
    s.push_str("  \"experiments\": [\n");
    for (i, (name, ms)) in merged.iter().enumerate() {
        let sep = if i + 1 < merged.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"wall_ms\": {ms:.3}}}{sep}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings(entries: &[(&str, f64)]) -> Vec<(String, f64)> {
        entries.iter().map(|(n, ms)| (n.to_string(), *ms)).collect()
    }

    fn full_record() -> String {
        let all: Vec<(String, f64)> = CANONICAL_EXPERIMENTS
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), 100.0 + i as f64))
            .collect();
        merged_bench_json("all", 1.0, 4, &all, &[], None)
    }

    fn wall_of(record: &str, name: &str) -> Option<f64> {
        let doc = json::parse(record).unwrap();
        doc.get("experiments")?
            .as_array()?
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some(name))?
            .get("wall_ms")?
            .as_f64()
    }

    #[test]
    fn partial_rerun_does_not_clobber_the_full_record() {
        // The headline regression: a `--which oracle` rerun must keep
        // every other experiment's entry from the existing record.
        let full = full_record();
        let partial = merged_bench_json(
            "oracle",
            1.0,
            4,
            &timings(&[("oracle", 0.3)]),
            &[],
            Some(&full),
        );
        let doc = json::parse(&partial).unwrap();
        let exps = doc.get("experiments").unwrap().as_array().unwrap();
        assert_eq!(exps.len(), CANONICAL_EXPERIMENTS.len(), "{partial}");
        // The rerun experiment is refreshed...
        assert_eq!(wall_of(&partial, "oracle"), Some(0.3));
        // ...everything else survives with its old timing...
        assert_eq!(wall_of(&partial, "fig7"), Some(101.0));
        assert_eq!(wall_of(&partial, "ablations"), Some(114.0));
        // ...the record still covers all experiments...
        assert_eq!(doc.get("which").unwrap().as_str(), Some("all"));
        // ...and the total is the honest sum of the merged walls.
        let expect: f64 = (0..15).map(|i| 100.0 + i as f64).sum::<f64>() - (100.0 + 12.0) + 0.3;
        let total = doc.get("total_wall_ms").unwrap().as_f64().unwrap();
        assert!((total - expect).abs() < 1e-6, "total {total} != {expect}");
    }

    #[test]
    fn experiments_come_back_in_canonical_order() {
        let full = full_record();
        let partial =
            merged_bench_json("fig9", 1.0, 2, &timings(&[("fig9", 7.0)]), &[], Some(&full));
        let doc = json::parse(&partial).unwrap();
        let names: Vec<String> = doc
            .get("experiments")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, CANONICAL_EXPERIMENTS.to_vec());
    }

    #[test]
    fn partial_run_without_existing_record_reports_partial_coverage() {
        let rec = merged_bench_json("oracle", 1.0, 1, &timings(&[("oracle", 0.5)]), &[], None);
        let doc = json::parse(&rec).unwrap();
        assert_eq!(doc.get("which").unwrap().as_str(), Some("oracle"));
        assert_eq!(doc.get("experiments").unwrap().as_array().unwrap().len(), 1);
        let total = doc.get("total_wall_ms").unwrap().as_f64().unwrap();
        assert!((total - 0.5).abs() < 1e-6);
    }

    #[test]
    fn garbage_existing_record_is_ignored() {
        for existing in [
            "",
            "not json",
            r#"{"schema": "other.v1", "experiments": []}"#,
        ] {
            let rec = merged_bench_json(
                "fig5",
                1.0,
                1,
                &timings(&[("fig5", 1.0)]),
                &[],
                Some(existing),
            );
            let doc = json::parse(&rec).unwrap();
            assert_eq!(
                doc.get("experiments").unwrap().as_array().unwrap().len(),
                1,
                "existing {existing:?}"
            );
        }
    }

    #[test]
    fn full_rerun_replaces_everything() {
        let full = full_record();
        let all: Vec<(String, f64)> = CANONICAL_EXPERIMENTS
            .iter()
            .map(|n| (n.to_string(), 1.0))
            .collect();
        let rec = merged_bench_json("all", 1.0, 4, &all, &[], Some(&full));
        let doc = json::parse(&rec).unwrap();
        let total = doc.get("total_wall_ms").unwrap().as_f64().unwrap();
        assert!((total - 15.0).abs() < 1e-6, "all walls refreshed");
    }
}
