//! The scenario catalog at fixed seeds, plus the harness's core promise:
//! same `(scenario, seed)` ⇒ byte-identical trace and identical verdict.

use a1_sim::{by_name, catalog, run_scenario, sweep, SimEnv};

fn assert_passes(name: &str, seed: u64) {
    let scenario = by_name(name).expect("catalog scenario");
    let verdict = run_scenario(scenario.as_ref(), seed);
    assert!(
        verdict.passed,
        "{name} seed {seed} failed: {:?}\nrepro: {}",
        verdict.oracles.iter().filter(|o| !o.ok).collect::<Vec<_>>(),
        verdict.repro_command()
    );
    assert!(verdict.events > 0, "trace must not be empty");
}

/// The sim certifies what production runs: the harness sets no execution
/// knob. (Scenarios that do — `ship_threshold = 1` to force every batch
/// through the RPC path under attack, a small `page_size` to page a short
/// scan — say why at the override.)
#[test]
fn harness_boots_production_exec_defaults() {
    let clock = a1_rdma::VirtualClock::new();
    let cfg = SimEnv::base_config(7, 4, &clock);
    assert_eq!(cfg.exec, a1_core::query::ExecConfig::default());
}

#[test]
fn partition_during_ingest_passes() {
    assert_passes("partition-during-ingest", 1);
    assert_passes("partition-during-ingest", 42);
}

#[test]
fn coordinator_death_mid_fanout_passes() {
    assert_passes("coordinator-death-mid-fanout", 1);
    assert_passes("coordinator-death-mid-fanout", 42);
}

#[test]
fn message_loss_storm_passes() {
    assert_passes("message-loss-storm", 1);
    assert_passes("message-loss-storm", 42);
}

#[test]
fn clock_skew_past_lease_bound_passes() {
    assert_passes("clock-skew-past-lease-bound", 1);
    assert_passes("clock-skew-past-lease-bound", 42);
}

#[test]
fn backward_clock_jump_passes() {
    assert_passes("backward-clock-jump", 1);
    assert_passes("backward-clock-jump", 42);
}

#[test]
fn replog_replay_race_passes() {
    assert_passes("replog-replay-race", 1);
    assert_passes("replog-replay-race", 42);
}

#[test]
fn cache_invalidation_vs_crash_passes() {
    assert_passes("cache-invalidation-vs-crash", 1);
    assert_passes("cache-invalidation-vs-crash", 42);
}

/// The tentpole invariant: every scenario replays byte-for-byte from its
/// seed — the rendered traces of two runs are identical, not just equal
/// hashes, and the verdicts agree oracle by oracle.
#[test]
fn same_seed_replays_byte_identical() {
    for scenario in catalog() {
        let seed = 7;
        let first = scenario.run(seed);
        let second = scenario.run(seed);
        assert_eq!(
            first.trace.render(),
            second.trace.render(),
            "{} seed {seed}: trace diverged between identical runs",
            scenario.name()
        );
        assert_eq!(first.trace.hash(), second.trace.hash());
        assert_eq!(
            first.oracles,
            second.oracles,
            "{} seed {seed}: verdict diverged",
            scenario.name()
        );
    }
}

/// Different seeds should explore different executions: at least one
/// scenario's trace must differ across seeds (faults land elsewhere).
#[test]
fn different_seeds_explore_different_traces() {
    let diverged = catalog().iter().any(|s| {
        let a = s.run(11).trace.hash();
        let b = s.run(12).trace.hash();
        a != b
    });
    assert!(diverged, "seed had no effect on any scenario");
}

/// A miniature randomized sweep (the CI job runs the big one): every
/// catalog scenario over a small seed range, zero failures, and failures
/// would carry runnable repro commands.
#[test]
fn mini_sweep_is_green() {
    let mut seen = 0usize;
    let report = sweep(100, 2, |v| {
        seen += 1;
        assert!(v.repro_command().contains(&format!("--seed {}", v.seed)));
    });
    assert_eq!(report.runs, seen);
    assert_eq!(report.runs, catalog().len() * 2);
    assert!(
        report.passed(),
        "sweep failures: {:?}",
        report
            .failures
            .iter()
            .map(|f| f.repro_command())
            .collect::<Vec<_>>()
    );
}
