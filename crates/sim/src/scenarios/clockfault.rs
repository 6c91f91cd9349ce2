//! Clock-fault scenarios: drift past the lease drift bound, and backward
//! jumps against the monotonic clamp and lease fail-safe.

use std::time::Duration;

use a1_farm::{ClockSample, LeaseManager, MachineId};
use a1_rdma::VirtualClock;

use crate::oracle::{lease_safety_sample, OracleReport};
use crate::scenario::{Scenario, ScenarioOutcome};
use crate::workload::{self, GRAPH, TENANT};
use crate::SimEnv;

const MACHINES: u32 = 3;

/// Quorum samples that would pull `skew` back to zero: each peer reports
/// this clock's offset as `-skew` give or take the sampling error.
fn correcting_samples(skew: i64, error_ns: i64) -> Vec<ClockSample> {
    [MachineId(0), MachineId(2)]
        .iter()
        .map(|&peer| ClockSample {
            peer,
            offset_low_ns: -skew - error_ns,
            offset_high_ns: -skew + error_ns,
        })
        .collect()
}

/// A holder's clock drifts every step (seeded, mostly fast) and at one
/// seeded step jumps 50 µs ahead — far past the 10 µs drift bound the sync
/// protocol assumes. Periodic Marzullo syncs must flag the excursion, and
/// the lease-safety invariant must hold at every sampled instant.
pub struct ClockSkewPastLeaseBound;

impl Scenario for ClockSkewPastLeaseBound {
    fn name(&self) -> &'static str {
        "clock-skew-past-lease-bound"
    }

    fn description(&self) -> &'static str {
        "holder clock drifts past the sync drift bound; leases must never be valid at the holder while reclaimable at the grantor"
    }

    fn run(&self, seed: u64) -> ScenarioOutcome {
        let env = SimEnv::new(seed, MACHINES);
        let grantor = env.machine_clock(MachineId(0)).clone();
        let holder = env.machine_clock(MachineId(1)).clone();
        // 200 µs lease on the grantor's clock, renewed every 10 µs step.
        let mgr = LeaseManager::new(grantor.clone(), 200_000);
        let mut lease = mgr.grant(MachineId(1));

        let mut violations: Vec<String> = Vec::new();
        let mut out_of_bounds = 0u32;
        let mut syncs = 0u32;
        let jump_step = 8 + env.rng.gen_range(8) as usize;
        for step in 0..40usize {
            // Per-step drift in [-2, +8) µs; the 36 µs uncertainty floor
            // below covers the worst 4-step inter-sync window.
            let drift = -2_000 + env.rng.gen_range(10_000) as i64;
            holder.jump_ns(drift);
            if step == jump_step {
                holder.jump_ns(50_000);
                env.event("clock.jump", format!("holder +50us at step {step}"));
            }
            env.advance(Duration::from_micros(10));
            if let Some(v) = lease_safety_sample(&lease, &holder, &mgr) {
                violations.push(format!("step {step}: {v}"));
            }
            if step < 24 {
                if let Some(renewed) = mgr.renew(&lease) {
                    lease = renewed;
                }
            }
            if step % 4 == 3 {
                let samples = correcting_samples(holder.skew_ns(), 2_000);
                if let Some(sync) = holder.sync(&samples, 2, 10_000, 36_000) {
                    syncs += 1;
                    if sync.was_out_of_bounds {
                        out_of_bounds += 1;
                    }
                    env.event(
                        "clock.sync",
                        format!(
                            "step {step} correction={}ns oob={}",
                            sync.correction_ns, sync.was_out_of_bounds
                        ),
                    );
                }
                if let Some(v) = lease_safety_sample(&lease, &holder, &mgr) {
                    violations.push(format!("step {step} post-sync: {v}"));
                }
            }
        }
        // Renewals stopped at step 24; run time well past the lease.
        env.advance(Duration::from_micros(400));
        let expired = !lease.holder_valid(&holder) && mgr.reclaimable(&lease);

        ScenarioOutcome {
            oracles: vec![
                OracleReport::check(
                    "lease-safety",
                    violations.is_empty(),
                    violations
                        .first()
                        .cloned()
                        .unwrap_or_else(|| "no sampled violation".to_string()),
                ),
                OracleReport::check(
                    "excursion-detected",
                    out_of_bounds >= 1,
                    format!("{out_of_bounds}/{syncs} syncs flagged out-of-bounds"),
                ),
                OracleReport::check(
                    "lease-expires-consistently",
                    expired,
                    "after renewals stop both sides must agree the lease is over",
                ),
            ],
            trace: env.trace.clone(),
        }
    }
}

/// A machine's clock jumps half a millisecond backward mid-workload. The
/// monotonic clamp must hold reads, the suspect flag must fail-safe leases,
/// paged queries (whose continuation TTL runs on the fabric clock) must
/// keep working, and a quorum sync must restore the clock.
pub struct BackwardClockJump;

impl Scenario for BackwardClockJump {
    fn name(&self) -> &'static str {
        "backward-clock-jump"
    }

    fn description(&self) -> &'static str {
        "backward clock jump mid-paged-query: monotonic clamp, lease fail-safe, and recovery via quorum sync"
    }

    fn run(&self, seed: u64) -> ScenarioOutcome {
        let clock = VirtualClock::starting_at(1 << 30);
        let mut cfg = SimEnv::base_config(seed, MACHINES, &clock);
        // Small pages so the 10-spoke scan holds a continuation token
        // across the fault.
        cfg.exec.page_size = 4;
        let env = SimEnv::with_config(seed, MACHINES, clock, cfg);
        let client = env.client();
        workload::setup_schema(&client);
        let spokes = workload::seeded_nodes(&env.rng, 10);
        workload::build_hub(&client, "hub", &spokes);
        let ids: Vec<String> = spokes.iter().map(|(id, _)| id.clone()).collect();
        let before = workload::canonical_state(&client, &ids);

        // First page of a 3-page scan, token held across the fault.
        let q = workload::hub_rows_query("hub");
        let page1 = client.query(TENANT, GRAPH, &q).expect("page 1");
        let mut rows = page1.rows.len();
        let mut token = page1.continuation.clone();

        let victim = env.machine_clock(MachineId(1)).clone();
        let mgr = LeaseManager::new(env.machine_clock(MachineId(0)).clone(), 10_000_000);
        let lease = mgr.grant(MachineId(1));
        let valid_before = lease.holder_valid(&victim);

        let now_before = victim.now_ns();
        victim.jump_ns(-500_000);
        env.event("clock.jump", "machine 1 -500us");
        let now_after = victim.now_ns();
        let monotonic = OracleReport::check(
            "monotonic-clamp",
            now_after >= now_before,
            format!("{now_before} -> {now_after}"),
        );
        let suspect = OracleReport::check("suspect-after-jump", victim.is_suspect(), "flagged");
        let fail_safe = OracleReport::check(
            "lease-fail-safe",
            valid_before && !lease.holder_valid(&victim),
            "suspect holder must drop an otherwise-live lease",
        );

        // Continuations live on the fabric's virtual clock, not the jumped
        // machine clock: paging must continue.
        while let Some(t) = token {
            let page = client.query_next(&t).expect("page after jump");
            rows += page.rows.len();
            token = page.continuation.clone();
        }
        let paging = OracleReport::check_eq("paging-survives-jump", &spokes.len(), &rows);

        // Quorum sync pulls the skew back and clears the suspicion.
        let sync = victim
            .sync(
                &correcting_samples(victim.skew_ns(), 2_000),
                2,
                10_000,
                10_000,
            )
            .expect("quorum sync");
        env.event("clock.sync", format!("correction={}ns", sync.correction_ns));
        let restored = OracleReport::check(
            "sync-restores-clock",
            !victim.is_suspect() && victim.skew_ns().abs() <= 2_000 && lease.holder_valid(&victim),
            format!(
                "skew={}ns suspect={}",
                victim.skew_ns(),
                victim.is_suspect()
            ),
        );

        let after = workload::canonical_state(&client, &ids);
        ScenarioOutcome {
            oracles: vec![
                monotonic,
                suspect,
                fail_safe,
                paging,
                restored,
                OracleReport::check_eq("state-unchanged", &before, &after),
            ],
            trace: env.trace.clone(),
        }
    }
}
