//! The smoke run: all four workloads, both modes, on a 3-machine cluster
//! with tiny graphs; and the agreement of what they emit with what
//! `BENCHMARK.json` declares.

use crate::report::{RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{run, RunArgs};
use a1_json::Json;
use std::collections::BTreeSet;

fn declared_file() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(file: &Json, key: &str) -> Vec<String> {
    file.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("'{key}' is an array"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("entry has a name")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn benchmark_json_declares_what_the_program_reports() {
    let file = declared_file();
    assert_eq!(names(&file, "workloads"), WORKLOADS);
    let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(names(&file, "end_to_end"), e2e);
    let layers: Vec<&str> = PER_LAYER.iter().map(|&(n, _, _)| n).collect();
    assert_eq!(names(&file, "per_layer"), layers);
    assert!(e2e.len() <= 16 && layers.len() <= 128);
    let all: Vec<&str> = e2e
        .iter()
        .chain(&layers)
        .chain(WORKLOADS)
        .copied()
        .collect();
    assert!(
        all.iter().all(|n| well_formed(n)),
        "names match [A-Za-z0-9][A-Za-z0-9_.-]*"
    );
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "names are used once"
    );

    // Units, directions and bounds agree too; set-up time has the widest bound.
    let entries = file.get("end_to_end").and_then(Json::as_arr).unwrap();
    for (entry, decl) in entries.iter().zip(END_TO_END) {
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(decl.unit));
        let better = if decl.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(decl.bound));
        assert!(decl.bound > 0.0 && decl.bound <= 0.25);
        assert!(decl.bound <= END_TO_END[0].bound);
    }
    assert_eq!(
        (
            END_TO_END[0].name,
            END_TO_END[0].unit,
            END_TO_END[0].higher_is_better
        ),
        ("setup_s", "s", false)
    );
    let entries = file.get("per_layer").and_then(Json::as_arr).unwrap();
    for (entry, &(_, unit, higher)) in entries.iter().zip(PER_LAYER) {
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
        let better = if higher { "higher" } else { "lower" };
        assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
    }
    assert_eq!(
        file.get("run_seconds").and_then(Json::as_f64),
        Some(crate::RUN_SECONDS),
        "the suite's default run length is the declared one"
    );
}

fn smoke(workload: &str, trace: bool) -> RunResult {
    run(&RunArgs {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.2,
        trace,
        smoke: true,
        out_dir: None,
    })
    .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"))
}

#[test]
fn smoke_runs_emit_exactly_the_declared_metrics() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let result = smoke(workload, trace);
            assert!(
                result.correct,
                "{workload} (trace {trace}): {:?}",
                result.notes
            );
            assert_eq!(
                result.failed, 0,
                "{workload} (trace {trace}): {:?}",
                result.notes
            );
            assert!(result.attempted >= 1);
            let line = result
                .to_line()
                .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"));
            let parsed = Json::parse(&line).expect("the result line is JSON");
            let emitted: Vec<&str> = parsed
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let declared: Vec<&str> = RunResult::declared(trace).iter().map(|&(n, _)| n).collect();
            assert_eq!(emitted, declared, "{workload} (trace {trace})");
            if !trace {
                // An end-to-end metric is never 0.
                for d in END_TO_END {
                    let v = result.metrics.get(d.name).unwrap();
                    assert!(v > 0.0, "{workload}: {} = {v}", d.name);
                }
            } else {
                let share = |l: &str| result.metrics.get(&format!("budget.{l}_share")).unwrap();
                let sum: f64 = ["rdma", "farm", "codec", "core"]
                    .iter()
                    .map(|l| share(l))
                    .sum();
                assert!(
                    (sum - 1.0).abs() < 0.01,
                    "{workload}: budget shares sum to {sum}"
                );
                assert!(result.metrics.get("trace.spans").unwrap() > 0.0);
            }
        }
    }
}

#[test]
fn unknown_workloads_are_refused() {
    let err = run(&RunArgs {
        workload: "nope".into(),
        seed: 1,
        seconds: 0.1,
        trace: false,
        smoke: true,
        out_dir: None,
    });
    assert!(err.is_err());
}
