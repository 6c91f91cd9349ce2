//! `benchmark compare A.json B.json`: per (workload, end-to-end metric), did
//! B get worse than A by more than the benchmark's own bound?
//!
//! A results file is what `suite` writes: `{"runs": [record, …], "claim":
//! null}`, one record per process launch. Only untraced runs are compared;
//! per-layer numbers explain a difference, they do not judge it.

use crate::report::{Decl, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};
use a1_json::Json;
use std::collections::BTreeMap;

/// `(workload, metric)` → the values of every untraced run in the file.
pub type Values = BTreeMap<(String, String), Vec<f64>>;

pub fn parse_results(text: &str) -> Result<Values, String> {
    let j = Json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let runs = j
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("results file has no 'runs' array")?;
    let mut values = Values::new();
    for run in runs {
        if run.get("traced").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without 'workload'")?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or("run without 'result.metrics'")?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without 'value'")?;
            values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(values)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Unresolved,
    Worse,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// Interquartile distance as a share of the median; 0 for a single value.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some([q1, _, q3]), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Judge B against A: unresolved when either side's run-to-run spread is
/// wider than the bound, otherwise by how far B's median moved.
pub fn judge(decl: &Decl, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if spread(a).max(spread(b)) > decl.bound {
        return Verdict::Unresolved;
    }
    if ma == 0.0 {
        return Verdict::Same;
    }
    let worse_by = if decl.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    if worse_by > decl.bound {
        Verdict::Worse
    } else if worse_by < -decl.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn fmt_side(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, _, q3]) => format!("{:.4} [{:.4}, {:.4}]", median(values), q1, q3),
        None => format!("{:.4}", median(values)),
    }
}

/// One row per (workload, end-to-end metric); returns the table and whether
/// any row is `worse` or `unresolved`.
pub fn compare(a: &Values, b: &Values) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<18} {:>32} {:>32} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound"
    );
    let mut flagged = false;
    for workload in WORKLOADS {
        for decl in END_TO_END {
            let key = (workload.to_string(), decl.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let verdict = judge(decl, va, vb);
            flagged |= matches!(verdict, Verdict::Worse | Verdict::Unresolved);
            out.push_str(&format!(
                "{:<14} {:<18} {:>32} {:>32} {:>5.0}%  {}\n",
                workload,
                decl.name,
                fmt_side(va),
                fmt_side(vb),
                decl.bound * 100.0,
                verdict.as_str()
            ));
        }
    }
    (out, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let decl = |higher_is_better| Decl {
            name: "m",
            unit: "u",
            higher_is_better,
            bound: 0.10,
        };
        let ops = decl(true);
        assert_eq!(judge(&ops, &[100.0], &[95.0]), Verdict::Same);
        assert_eq!(judge(&ops, &[100.0], &[85.0]), Verdict::Worse);
        assert_eq!(judge(&ops, &[100.0], &[115.0]), Verdict::Better);
        let p50 = decl(false);
        assert_eq!(judge(&p50, &[2.0], &[2.3]), Verdict::Worse);
        assert_eq!(judge(&p50, &[2.0], &[1.7]), Verdict::Better);
        // A side whose own runs disagree by more than the bound resolves
        // nothing, whatever the medians say.
        assert_eq!(
            judge(&p50, &[1.0, 2.0, 3.0, 4.0], &[9.0, 9.0, 9.0, 9.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&p50, &[2.0, 2.01, 2.02], &[2.0, 2.01, 2.6]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&p50, &[2.0, 2.01, 2.02], &[2.0, 2.01, 2.03]),
            Verdict::Same
        );
    }

    #[test]
    fn results_files_round_trip_into_the_table() {
        let file = |v: f64| {
            format!(
                r#"{{"runs": [
                    {{"workload": "kg_read", "traced": false, "result": {{"metrics": {{"ops_per_s": {{"value": {v}, "unit": "1/s"}}}}}}}},
                    {{"workload": "kg_read", "traced": true, "result": {{"metrics": {{"rdma.read_ns": {{"value": 1, "unit": "ns"}}}}}}}}
                ], "claim": null}}"#
            )
        };
        let (a, b) = (
            parse_results(&file(1000.0)).unwrap(),
            parse_results(&file(700.0)).unwrap(),
        );
        assert_eq!(a.len(), 1, "traced runs are not compared");
        let (table, flagged) = compare(&a, &b);
        assert!(flagged);
        assert!(table.contains("worse"), "{table}");
        let (table, flagged) = compare(&a, &a);
        assert!(!flagged);
        assert!(table.lines().nth(1).unwrap().ends_with("same"));
        assert!(parse_results("{}").is_err());
    }
}
