//! Query-path fault scenarios: a participant dying mid-fan-out, and a
//! seeded random message-loss storm.

use std::time::Duration;

use a1_core::{A1Client, A1Result};
use a1_rdma::{MachineId, VirtualClock};

use crate::oracle::OracleReport;
use crate::scenario::{Scenario, ScenarioOutcome};
use crate::workload::{self, GRAPH, TENANT};
use crate::SimEnv;

const MACHINES: u32 = 4;
const SPOKES: usize = 20;
/// Extra spokes the fan-out scenario pins to one machine: enough that its
/// share of the hop splits into two morsels, so the scenario's oracles judge
/// the morsel merge too (`tests/mutation.rs` seeds a bug there).
const PINNED_SPOKES: usize = 2 * a1_core::query::exec::MIN_MORSEL;

/// Query with bounded retries: transient unavailability (healing partitions,
/// post-failover `SnapshotTooOld`) is retried; persistent failure surfaces.
fn query_count_with_retries(
    env: &SimEnv,
    client: &A1Client,
    a1ql: &str,
    max_retries: usize,
) -> A1Result<Option<u64>> {
    let mut last = None;
    for attempt in 0..=max_retries {
        match client.query(TENANT, GRAPH, a1ql) {
            Ok(out) => return Ok(out.count),
            Err(e) => {
                env.event("query.retry", format!("attempt {attempt}: {e}"));
                last = Some(e);
                env.advance(Duration::from_micros(100));
            }
        }
    }
    Err(last.expect("retries>0"))
}

fn hub_env(seed: u64, ship_threshold: usize) -> (SimEnv, Vec<(String, i64)>) {
    let clock = VirtualClock::starting_at(1 << 30);
    let mut cfg = SimEnv::base_config(seed, MACHINES, &clock);
    // Force the RPC work-op path even for small per-machine batches, so
    // reply loss actually lands mid-fan-out.
    cfg.exec.ship_threshold = ship_threshold;
    let env = SimEnv::with_config(seed, MACHINES, clock, cfg);
    let client = env.client();
    workload::setup_schema(&client);
    let spokes = workload::seeded_nodes(&env.rng, SPOKES);
    workload::build_hub(&client, "hub", &spokes);
    (env, spokes)
}

/// A participant machine "dies" mid-fan-out: its work-op handlers run but
/// every reply is lost (the applied-but-unacknowledged ambiguity), then the
/// machine is killed outright and backups promote.
pub struct CoordinatorDeathMidFanout;

impl Scenario for CoordinatorDeathMidFanout {
    fn name(&self) -> &'static str {
        "coordinator-death-mid-fanout"
    }

    fn description(&self) -> &'static str {
        "work-op replies lost mid-fan-out, then the machine killed; retried query must match the pre-fault answer"
    }

    fn run(&self, seed: u64) -> ScenarioOutcome {
        let (env, _spokes) = hub_env(seed, 1);
        let client = env.client();
        workload::add_pinned_spokes(&client, "hub", MachineId(0), PINNED_SPOKES);
        let q = workload::hub_count_query("hub");

        // Pre-fault reference answer from this same graph.
        let reference = query_count_with_retries(&env, &client, &q, 0).expect("pre-fault query");
        let spokes = (SPOKES + PINNED_SPOKES) as u64;
        let ref_ok = OracleReport::check_eq("pre-fault-count", &Some(spokes), &reference);

        // Phase 1: lose every reply from a victim. The query must fail
        // cleanly or return the right answer — never a wrong one.
        let victim = MachineId(1 + env.rng.gen_range((MACHINES - 1) as u64) as u32);
        env.net.lose_replies_from(victim);
        let during = query_count_with_retries(&env, &client, &q, 0);
        let clean = match &during {
            Ok(c) => OracleReport::check_eq("mid-fault-answer-if-any", &reference, c),
            Err(e) => OracleReport::pass("mid-fault-answer-if-any", format!("clean error: {e}")),
        };
        env.net.heal();
        let healed = query_count_with_retries(&env, &client, &q, 8);
        let healed_ok = match healed {
            Ok(c) => OracleReport::check_eq("healed-answer", &reference, &c),
            Err(e) => OracleReport::fail("healed-answer", format!("query still failing: {e}")),
        };

        // Phase 2: kill the victim outright; failure detection promotes
        // backups; the answer must survive the failover.
        env.kill_machine(victim);
        let after_kill = query_count_with_retries(&env, &client, &q, 16);
        let kill_ok = match after_kill {
            Ok(c) => OracleReport::check_eq("post-failover-answer", &reference, &c),
            Err(e) => OracleReport::fail("post-failover-answer", format!("{e}")),
        };

        ScenarioOutcome {
            oracles: vec![ref_ok, clean, healed_ok, kill_ok],
            trace: env.trace.clone(),
        }
    }
}

/// Seeded random loss on the messaging layer (query RPCs, work-op ships,
/// replies) while the cluster is queried — the classic replayable "storm"
/// sweep. Every drop decision comes from the run RNG, so a failing seed
/// replays exactly. One-sided RDMA verbs are exempt (RC retransmission),
/// so the data itself never corrupts: the invariant is that a query under
/// loss fails cleanly or answers right — never wrong.
pub struct MessageLossStorm;

impl Scenario for MessageLossStorm {
    fn name(&self) -> &'static str {
        "message-loss-storm"
    }

    fn description(&self) -> &'static str {
        "5% seeded RPC loss during a query storm; every answer must be clean-error or correct, and the graph must survive untouched"
    }

    fn run(&self, seed: u64) -> ScenarioOutcome {
        // ship_threshold 1 forces every fan-out through the RPC path that
        // the storm is attacking.
        let (env, spokes) = hub_env(seed, 1);
        let client = env.client();
        let q = workload::hub_count_query("hub");
        let reference = Some(SPOKES as u64);
        let before = {
            let ids: Vec<String> = spokes.iter().map(|(id, _)| id.clone()).collect();
            workload::canonical_state(&client, &ids)
        };

        env.net.set_loss_rate(0.05);
        let (mut clean_errors, mut answered, mut wrong) = (0u32, 0u32, Vec::new());
        for i in 0..30 {
            match client.query(TENANT, GRAPH, &q) {
                Ok(out) if out.count == reference => answered += 1,
                Ok(out) => wrong.push(format!("query {i}: got {:?}", out.count)),
                Err(e) => {
                    clean_errors += 1;
                    env.event("storm.error", format!("query {i}: {e}"));
                }
            }
            env.advance(Duration::from_micros(20));
        }
        env.net.set_loss_rate(0.0);

        // After the storm the same query must converge quickly...
        let after = query_count_with_retries(&env, &client, &q, 8);
        let converged = match after {
            Ok(c) => OracleReport::check_eq("post-storm-answer", &reference, &c),
            Err(e) => OracleReport::fail("post-storm-answer", format!("{e}")),
        };
        // ...and the storm must not have perturbed any data (loss only ever
        // suppressed replies; it never invented writes).
        let ids: Vec<String> = spokes.iter().map(|(id, _)| id.clone()).collect();
        let state = workload::canonical_state(&client, &ids);

        ScenarioOutcome {
            oracles: vec![
                OracleReport::check(
                    "no-wrong-answers",
                    wrong.is_empty(),
                    wrong.first().cloned().unwrap_or_else(|| {
                        format!("{answered} correct, {clean_errors} clean errors")
                    }),
                ),
                converged,
                OracleReport::check_eq("state-unperturbed", &before, &state),
            ],
            trace: env.trace.clone(),
        }
    }
}
