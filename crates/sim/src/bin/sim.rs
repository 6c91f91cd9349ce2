//! Run the scenario catalog from the command line.
//!
//! ```text
//! cargo run --release -p a1-sim -- [--quick]
//! cargo run --release -p a1-sim -- --scenario <name> --seed <n>
//! cargo run --release -p a1-sim -- --sweep <n> [--seed0 <s>]
//! ```
//!
//! * No flag — the fixed-seed block CI runs on every push: every catalog
//!   scenario at a small set of pinned seeds (`--quick`: the first two),
//!   each run **twice** to prove byte-identical replay, the harness's core
//!   promise.
//! * `--scenario <name> --seed <n>` — replay one run; this is the command
//!   every failure prints ([`a1_sim::repro_command`]).
//! * `--sweep <n>` — every scenario over the `n` consecutive seeds from
//!   `--seed0` (default 0); failures print their repro commands.
//!
//! Exit status: 0 all green, 1 a scenario failed or a replay diverged, 2
//! the arguments did not parse (nothing has run).

use a1_sim::{by_name, catalog, run_scenario, sweep};

const USAGE: &str =
    "usage: sim [--quick] | --scenario <name> --seed <n> | --sweep <n> [--seed0 <s>]";

/// Fixed seeds for the per-push CI block: small, stable, and spread enough
/// that seeded fault choices (victim machine, jump step) vary.
const FIXED_SEEDS: [u64; 3] = [1, 42, 20_260_808];

#[derive(Debug, PartialEq, Eq)]
enum Command {
    Fixed { quick: bool },
    One { scenario: String, seed: u64 },
    Sweep { seeds: u64, seed0: u64 },
}

/// Parse the arguments after the program name. This tool's whole job is
/// exact reproduction, so nothing is defaulted past a typo: an unknown
/// flag, a missing or non-numeric value, or flags from two different forms
/// are all errors.
fn parse(args: &[String]) -> Result<Command, String> {
    let (mut quick, mut scenario) = (false, None);
    let (mut seed, mut seeds, mut seed0) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: '{v}' is not an unsigned integer"))
        };
        match flag.as_str() {
            "--quick" => quick = true,
            "--scenario" => scenario = Some(value()?.clone()),
            "--seed" => seed = Some(number(value()?)?),
            "--sweep" => seeds = Some(number(value()?)?),
            "--seed0" => seed0 = Some(number(value()?)?),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    match (quick, scenario, seed, seeds, seed0) {
        (quick, None, None, None, None) => Ok(Command::Fixed { quick }),
        (false, Some(scenario), Some(seed), None, None) => Ok(Command::One { scenario, seed }),
        (false, None, None, Some(seeds), seed0) => Ok(Command::Sweep {
            seeds,
            seed0: seed0.unwrap_or(0),
        }),
        _ => Err("these flags do not go together".to_string()),
    }
}

/// The fixed-seed scenario block plus the replayability double-run.
fn run_fixed(quick: bool) -> bool {
    let seeds: &[u64] = if quick {
        &FIXED_SEEDS[..2]
    } else {
        &FIXED_SEEDS
    };
    println!(
        "Deterministic simulation (fixed-seed block, every run twice for replay)\n\
         scenario                          seeds  failures  replay  trace hashes"
    );
    let mut green = true;
    let mut repros = Vec::new();
    for scenario in catalog() {
        let mut hashes = Vec::new();
        let mut failures = 0;
        let mut replay_identical = true;
        for &seed in seeds {
            let first = run_scenario(scenario.as_ref(), seed);
            let second = run_scenario(scenario.as_ref(), seed);
            replay_identical &=
                first.trace_hash == second.trace_hash && first.oracles == second.oracles;
            hashes.push(format!("{:016x}", first.trace_hash));
            if !first.passed {
                failures += 1;
                repros.push(first.repro_command());
            }
        }
        println!(
            "{:<33} {:>5} {:>9}  {:>6}  {}",
            scenario.name(),
            seeds.len(),
            failures,
            if replay_identical {
                "exact"
            } else {
                "DIVERGED"
            },
            hashes.join(" ")
        );
        green &= failures == 0 && replay_identical;
    }
    for repro in repros {
        println!("repro: {repro}");
    }
    println!(
        "verdict: {}",
        if green {
            "all scenarios green, replay byte-identical"
        } else {
            "FAILURES above"
        }
    );
    green
}

/// Replay one `(scenario, seed)` and print the full oracle report + trace
/// fingerprint. `None` for a name the catalog does not have.
fn run_one(name: &str, seed: u64) -> Option<bool> {
    let verdict = run_scenario(by_name(name)?.as_ref(), seed);
    println!(
        "{} seed={} {} trace_hash={:016x} events={}",
        verdict.scenario,
        verdict.seed,
        if verdict.passed { "PASS" } else { "FAIL" },
        verdict.trace_hash,
        verdict.events
    );
    for o in &verdict.oracles {
        println!(
            "  [{}] {}: {}",
            if o.ok { "ok" } else { "FAIL" },
            o.name,
            o.detail
        );
    }
    if !verdict.passed {
        println!("repro: {}", verdict.repro_command());
    }
    Some(verdict.passed)
}

/// Every scenario over `seeds` seeds starting at `seed0`. Prints progress
/// and, for every failure, the exact repro command.
fn run_sweep(seed0: u64, seeds: u64) -> bool {
    let total = catalog().len() as u64 * seeds;
    let mut done = 0u64;
    let report = sweep(seed0, seeds, |v| {
        done += 1;
        if !v.passed {
            println!("FAIL {} seed={}", v.scenario, v.seed);
            for o in v.oracles.iter().filter(|o| !o.ok) {
                println!("  {}: {}", o.name, o.detail);
            }
            println!("  repro: {}", v.repro_command());
        } else if done.is_multiple_of(500) {
            println!("... {done}/{total} runs green");
        }
    });
    println!(
        "sim sweep: {} runs over seeds {}..{} — {} failures",
        report.runs,
        seed0,
        seed0 + seeds,
        report.failures.len()
    );
    report.passed()
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let passed = match parse(&args).unwrap_or_else(|e| usage_error(&e)) {
        Command::Fixed { quick } => run_fixed(quick),
        Command::One { scenario, seed } => run_one(&scenario, seed).unwrap_or_else(|| {
            let names: Vec<String> = catalog().iter().map(|s| s.name().to_string()).collect();
            usage_error(&format!(
                "unknown scenario '{scenario}'. Catalog: {}",
                names.join(", ")
            ))
        }),
        Command::Sweep { seeds, seed0 } => run_sweep(seed0, seeds),
    };
    std::process::exit(if passed { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn the_three_forms_parse() {
        assert_eq!(parse_str(""), Ok(Command::Fixed { quick: false }));
        assert_eq!(parse_str("--quick"), Ok(Command::Fixed { quick: true }));
        assert_eq!(
            parse_str("--sweep 1000"),
            Ok(Command::Sweep {
                seeds: 1000,
                seed0: 0
            })
        );
        assert_eq!(
            parse_str("--seed0 7 --sweep 3"),
            Ok(Command::Sweep { seeds: 3, seed0: 7 })
        );
    }

    /// What a failure prints must come back as that exact run.
    #[test]
    fn the_printed_repro_command_parses_back() {
        let printed = a1_sim::repro_command("replog-replay-race", 20_260_808);
        let (cargo, args) = printed.split_once(" -- ").expect("cargo run … -- args");
        assert_eq!(cargo, "cargo run --release -p a1-sim");
        assert_eq!(
            parse_str(args),
            Ok(Command::One {
                scenario: "replog-replay-race".to_string(),
                seed: 20_260_808
            })
        );
    }

    #[test]
    fn nothing_unparsable_falls_back_to_a_default() {
        for bad in [
            "--seed 12e",
            "--scenario message-loss-storm --seed 12e",
            "--scenario message-loss-storm",
            "--sweep abc",
            "--sweep",
            "--sweep 5 --seed0 -1",
            "--sweep 5 --seed 1",
            "--quick --sweep 5",
            "--seed 3",
            "--jobs 4",
            "sim",
        ] {
            assert!(parse_str(bad).is_err(), "'{bad}' parsed");
        }
    }
}
