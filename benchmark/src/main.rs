//! The repo's canonical benchmark. See `README.md` beside this crate.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! benchmark [suite] [--seed N] [--seconds S] [--repeat N] [--smoke] [--out DIR]
//! benchmark compare A.json B.json
//! ```

mod compare;
mod driver;
mod gen;
mod layers;
mod load;
mod report;
mod rng;
mod run;
mod stats;
mod suite;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark --workload <kg_read|uniform_cold|ingest_stream|mixed_serve> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
  benchmark [suite] [--seed <n>] [--seconds <s>] [--repeat <n>] [--smoke] [--out <dir>]
  benchmark compare <A.json> <B.json>";

/// Run length `BENCHMARK.json` declares; the suite's default.
const RUN_SECONDS: f64 = 20.0;

struct Cli {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        repeat: 1,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--repeat" => {
                cli.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => cli.smoke = true,
            "suite" | "compare" if cli.command.is_none() => cli.command = Some(arg.clone()),
            other if other.starts_with("--") => return Err(format!("unknown option '{other}'")),
            other => cli.positional.push(other.to_string()),
        }
    }
    Ok(cli)
}

fn one_run(cli: &Cli, workload: &str) -> Result<(), String> {
    let args = run::RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        out_dir: cli.out.clone(),
    };
    let result = run::run(&args)?;
    for note in &result.notes {
        eprintln!("{workload}: {note}");
    }
    let line = result.to_line()?;
    if let Some(dir) = &cli.out {
        let path = suite::record_path(dir, workload, cli.trace);
        let record = result.to_record(cli.seed, cli.seconds)? + "\n";
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, record))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    // The result object is the last line of standard output.
    println!("{line}");
    Ok(())
}

fn dispatch(cli: &Cli) -> Result<bool, String> {
    match (cli.command.as_deref(), &cli.workload) {
        (Some("compare"), _) => {
            let [a, b] = cli.positional.as_slice() else {
                return Err(USAGE.into());
            };
            let read = |p: &String| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("read {p}: {e}"))
                    .and_then(|t| compare::parse_results(&t).map_err(|e| format!("{p}: {e}")))
            };
            let (table, flagged) = compare::compare(&read(a)?, &read(b)?);
            print!("{table}");
            Ok(!flagged)
        }
        (None, Some(workload)) => one_run(cli, workload).map(|()| true),
        _ => suite::suite(&suite::SuiteArgs {
            seed: cli.seed,
            seconds: cli.seconds,
            repeat: cli.repeat,
            smoke: cli.smoke,
            out_dir: cli
                .out
                .clone()
                .ok_or("the suite needs --out <dir> for its records")?,
        }),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| dispatch(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
