//! Run scenarios and fold outcomes into replayable verdicts.
//!
//! A verdict carries the trace fingerprint: two runs of the same
//! `(scenario, seed)` must produce byte-identical traces, so the hash is
//! both the replayability check and the cross-host comparison artifact.

use crate::scenario::{by_name, catalog, Scenario};
use crate::OracleReport;

/// One scenario run's verdict: everything needed to report, compare, and
/// reproduce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimVerdict {
    pub scenario: String,
    pub seed: u64,
    pub passed: bool,
    pub oracles: Vec<OracleReport>,
    /// FNV-1a over the rendered trace — byte-identical traces, equal hashes.
    pub trace_hash: u64,
    pub events: usize,
}

impl SimVerdict {
    /// The exact command that replays this run.
    pub fn repro_command(&self) -> String {
        repro_command(&self.scenario, self.seed)
    }
}

pub fn repro_command(scenario: &str, seed: u64) -> String {
    format!("cargo run --release -p a1-sim -- --scenario {scenario} --seed {seed}")
}

/// Run one scenario at one seed.
pub fn run_scenario(scenario: &dyn Scenario, seed: u64) -> SimVerdict {
    let outcome = scenario.run(seed);
    SimVerdict {
        scenario: scenario.name().to_string(),
        seed,
        passed: outcome.passed(),
        oracles: outcome.oracles,
        trace_hash: outcome.trace.hash(),
        events: outcome.trace.len(),
    }
}

/// Run a catalog scenario by name. `None` for unknown names.
pub fn run_by_name(name: &str, seed: u64) -> Option<SimVerdict> {
    by_name(name).map(|s| run_scenario(s.as_ref(), seed))
}

/// A randomized sweep's summary: per-seed failures carry their repro
/// commands, so a red sweep is immediately actionable.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    pub runs: usize,
    pub failures: Vec<SimVerdict>,
}

impl SweepReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Sweep every catalog scenario over `seeds` consecutive seeds starting at
/// `seed0`. `on_verdict` observes every run (progress lines, artifacts).
pub fn sweep(seed0: u64, seeds: u64, mut on_verdict: impl FnMut(&SimVerdict)) -> SweepReport {
    let mut report = SweepReport::default();
    for scenario in catalog() {
        for seed in seed0..seed0 + seeds {
            let verdict = run_scenario(scenario.as_ref(), seed);
            on_verdict(&verdict);
            report.runs += 1;
            if !verdict.passed {
                report.failures.push(verdict);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_command_names_scenario_and_seed() {
        let c = repro_command("partition-during-ingest", 7);
        assert!(c.contains("--scenario partition-during-ingest"));
        assert!(c.contains("--seed 7"));
    }
}
