//! Regenerate the paper's tables and figures, and run the perf-trajectory
//! suite.
//!
//! ```text
//! cargo run --release -p a1-bench --bin experiments -- all
//! cargo run --release -p a1-bench --bin experiments -- fig10
//! cargo run --release -p a1-bench --bin experiments -- --quick --json
//! ```
//!
//! Figure targets: table2, fig10, fig11, fig12, fig13, fig14, q4, locality,
//! baseline, ablation-mvcc, ablation-edges, fast-restart, ingest, wire,
//! serve, cache, sim, all.
//!
//! Simulation targets (deterministic fault injection, crates/sim):
//!
//! * `sim` — fixed-seed scenario block, every run twice to prove replay.
//! * `sim --scenario <name> --seed <n>` — replay one run (every failure
//!   prints this exact command).
//! * `sim --sweep <n> [--seed0 <s>]` — randomized n-seed sweep over the
//!   whole catalog; failures print repro commands.
//!
//! Flags:
//!
//! * `--json` — run the perf-trajectory suites (ingest throughput:
//!   single-op vs group-commit vs partition-parallel, the wire suite: codec
//!   micro-bench + bytes-on-wire, binary vs JSON, the serve suite: open-loop
//!   Poisson load against the admission-controlled front door, the cache
//!   suite: hot-vertex read cache vs bypass on a hub-skewed repeated-read
//!   workload under churn, and the sim suite: the deterministic
//!   fault-scenario catalog with its replayability check) and print one
//!   JSON document (schema `a1-bench-v9`) to stdout. CI uploads this as an
//!   artifact; the `BENCH_<n>.json` snapshots at the repo root are history
//!   from earlier schemas.
//! * `--validate <file>` — check a `--json` artifact against the
//!   `a1-bench-v9` schema; exits 2 with a diagnostic on violation.
//! * `--quick` — smaller workload + fewer iterations (CI-speed).
//! * `--fig14-scale N` — divisor applied to the paper's Figure 14 dataset.

use a1_bench::{cache, figures, ingest, loadgen, sim, validate, wire};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Deterministic-simulation entry points. `sim --scenario X --seed N`
    // replays one run (the repro command failures print); `sim --sweep N`
    // runs the randomized seed sweep; bare `sim` falls through to the
    // fixed-seed report below.
    if args.first().map(String::as_str) == Some("sim") {
        let flag_val = |name: &str| {
            args.iter()
                .position(|a| a == name)
                .and_then(|i| args.get(i + 1))
        };
        let seed: u64 = flag_val("--seed").and_then(|v| v.parse().ok()).unwrap_or(1);
        if let Some(name) = flag_val("--scenario") {
            std::process::exit(if sim::run_one(name, seed) { 0 } else { 1 });
        }
        if let Some(n) = flag_val("--sweep").and_then(|v| v.parse::<u64>().ok()) {
            let seed0: u64 = flag_val("--seed0")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            std::process::exit(if sim::run_sweep(seed0, n) { 0 } else { 1 });
        }
    }

    // `--validate <file>`: schema-check an existing artifact and exit.
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--validate requires a file path");
            std::process::exit(2);
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            }
        };
        match validate::validate_text(&text) {
            Ok(()) => {
                println!("{path}: valid {}", validate::SCHEMA);
                return;
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            }
        }
    }

    let json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");
    let fig14_scale: usize = args
        .iter()
        .position(|a| a == "--fig14-scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    // The target is the first non-flag argument, skipping `--fig14-scale`'s
    // value.
    let mut target = None;
    let mut skip_value = false;
    for a in &args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if a == "--fig14-scale" {
            skip_value = true;
            continue;
        }
        if !a.starts_with("--") {
            target = Some(a.clone());
            break;
        }
    }
    let target = target.unwrap_or_else(|| "all".to_string());

    if json {
        // One document carrying all suites, so the perf-trajectory CI job
        // tracks wire bytes, ingest throughput and serving headroom
        // together.
        let doc = vec![
            ("schema".to_string(), a1_core::Json::str(validate::SCHEMA)),
            ("quick".to_string(), a1_core::Json::Bool(quick)),
            (
                "ingest".to_string(),
                ingest::ingest_suite_to_json(&ingest::run_ingest_suite(quick)),
            ),
            (
                "wire".to_string(),
                wire::wire_suite_to_json(&wire::run_wire_suite(quick)),
            ),
            (
                "serve".to_string(),
                loadgen::serve_suite_to_json(&loadgen::run_serve_suite(quick)),
            ),
            (
                "cache".to_string(),
                cache::cache_suite_to_json(&cache::run_cache_suite(quick)),
            ),
            (
                "sim".to_string(),
                sim::sim_suite_to_json(&sim::run_sim_suite(quick)),
            ),
        ];
        let doc = a1_core::Json::Obj(doc);
        // The emitter must always satisfy its own `--validate` contract.
        if let Err(e) = validate::validate_doc(&doc) {
            eprintln!("generated document violates its own schema: {e}");
            std::process::exit(1);
        }
        println!("{}", doc.to_string_pretty());
        return;
    }

    let run = |name: &str| -> Option<String> {
        match name {
            "table2" => Some(figures::table2()),
            "fig10" => Some(figures::latency_vs_throughput("fig10")),
            "fig11" => Some(figures::fig11()),
            "fig12" => Some(figures::latency_vs_throughput("fig12")),
            "fig13" => Some(figures::latency_vs_throughput("fig13")),
            "fig14" => Some(figures::fig14(fig14_scale)),
            "q4" => Some(figures::q4_stress()),
            "locality" => Some(figures::locality()),
            "baseline" => Some(figures::baseline_compare()),
            "ablation-mvcc" => Some(figures::ablation_mvcc()),
            "ablation-edges" => Some(figures::ablation_edges()),
            "fast-restart" => Some(figures::fast_restart()),
            "ingest" => Some(ingest::ingest_report(quick)),
            "wire" => Some(wire::wire_report(quick)),
            "serve" => Some(loadgen::serve_report(quick)),
            "cache" => Some(cache::cache_report(quick)),
            "sim" => Some(sim::sim_report(quick)),
            _ => None,
        }
    };

    let all = [
        "table2",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "q4",
        "locality",
        "baseline",
        "ablation-mvcc",
        "ablation-edges",
        "fast-restart",
        "ingest",
        "wire",
        "serve",
        "cache",
        "sim",
    ];
    if target == "all" {
        for name in all {
            println!("{}", run(name).expect("known target"));
        }
    } else {
        match run(&target) {
            Some(text) => println!("{text}"),
            None => {
                eprintln!("unknown target '{target}'. Targets: {}", all.join(", "));
                std::process::exit(2);
            }
        }
    }
}
