//! The whole set from one command: every workload untraced, then every
//! workload traced, each as its own process; their records merged into one
//! results file and every metric printed by name and unit.

use crate::compare::{compare, parse_results};
use crate::report::WORKLOADS;
use a1_json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Sets to run; from two on, the first half is compared with the rest.
    pub repeat: usize,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

pub fn record_path(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    out_dir.join(format!(
        "{workload}{}.json",
        if traced { "-trace" } else { "" }
    ))
}

/// Launch one run as a child process and read the record it leaves behind.
fn launch(args: &SuiteArgs, workload: &str, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdout(Stdio::null());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("launch {workload}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {status}",
            traced as u8
        ));
    }
    let path = record_path(&args.out_dir, workload, traced);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_run(record: &Json) -> bool {
    let workload = record.get("workload").and_then(Json::as_str).unwrap_or("?");
    let result = record.get("result");
    let metrics = result
        .and_then(|r| r.get("metrics"))
        .and_then(Json::as_obj)
        .unwrap_or(&[]);
    for (name, m) in metrics {
        println!(
            "{workload:<14} {name:<34} {:>16.4}  {}",
            m.get("value").and_then(Json::as_f64).unwrap_or(0.0),
            m.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
    let get = |k: &str| {
        result
            .and_then(|r| r.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let correct = result
        .and_then(|r| r.get("correct"))
        .and_then(Json::as_bool)
        == Some(true);
    println!(
        "{workload:<14} {:<34} attempted {}, failed {}, correct {correct}",
        if record.get("traced").and_then(Json::as_bool) == Some(true) {
            "(traced run)"
        } else {
            "(run)"
        },
        get("attempted"),
        get("failed")
    );
    correct
}

fn results_file(records: &[Json]) -> String {
    let runs: Vec<String> = records
        .iter()
        .map(|r| format!("  {}", r.to_string()))
        .collect();
    format!(
        "{{\"runs\": [\n{}\n], \"claim\": null}}\n",
        runs.join(",\n")
    )
}

/// Run the sets; returns whether every answer in every run was correct.
pub fn suite(args: &SuiteArgs) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let mut all_correct = true;
    let mut sets: Vec<Vec<Json>> = Vec::new();
    for set in 0..args.repeat.max(1) {
        let mut records = Vec::new();
        for traced in [false, true] {
            for workload in WORKLOADS {
                eprintln!("set {}: {workload}, trace {}", set + 1, traced as u8);
                let record = launch(args, workload, traced)?;
                all_correct &= print_run(&record);
                records.push(record);
            }
        }
        let path = args.out_dir.join(format!("set-{}.json", set + 1));
        std::fs::write(&path, results_file(&records))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        sets.push(records);
    }
    let all: Vec<Json> = sets.iter().flatten().cloned().collect();
    let path = args.out_dir.join("results.json");
    std::fs::write(&path, results_file(&all))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    if sets.len() >= 2 {
        let half = sets.len() / 2;
        let side = |s: &[Vec<Json>]| {
            parse_results(&results_file(
                &s.iter().flatten().cloned().collect::<Vec<_>>(),
            ))
        };
        let (table, flagged) = compare(&side(&sets[..half])?, &side(&sets[half..])?);
        println!("\nself-comparison: sets 1..={half} (A) against the rest (B)\n{table}");
        println!(
            "self-comparison {}",
            if flagged {
                "has worse/unresolved rows"
            } else {
                "agrees within every bound"
            }
        );
    }
    println!("results: {}", path.display());
    println!("\"claim\": null");
    Ok(all_correct)
}
