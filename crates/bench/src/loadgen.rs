//! Open-loop serving benchmark: Poisson arrivals at a target QPS against the
//! front door, measuring tail latency and the max sustainable rate.
//!
//! Every other suite in this crate is closed-loop — one request at a time,
//! so the system can never be pushed past saturation and queueing delay is
//! invisible. A1 is judged at Bing scale under *open-loop* load (§6), where
//! arrivals don't wait for completions. This suite builds the arrival
//! schedule as a virtual clock of request deadlines: request `i` is *due* at
//! `start + Σ exp(λ)` regardless of how the system is doing, and its latency
//! is measured from that deadline, not from when a worker got around to
//! sending it. When the cluster falls behind, the backlog shows up as
//! queueing delay in the tail — the latency-collapse signal closed-loop
//! iteration structurally cannot produce.
//!
//! The request mix is Q1 (2-hop), Q4 (3-hop stress), and ingest (vertex
//! payload updates against a disjoint key range, so concurrent writes can
//! never change the query answers). Every query answer observed under load
//! is compared byte-for-byte against the closed-loop answer captured before
//! the storm; any divergence fails the suite. The cluster runs with the
//! front door enabled, so past saturation requests are shed with structured
//! `Overloaded` rejections instead of queueing without bound.

use crate::workload::{measured_latency, suite_spec, KnowledgeGraph, GRAPH, TENANT};
use a1_core::{A1Config, A1Error, AdmissionConfig, Json, QueryOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-machine in-flight admission limit used by the suite.
const MAX_INFLIGHT: usize = 64;

/// Disjoint vertices the ingest leg updates (none participate in Q1/Q4
/// traversals, so answers stay byte-identical under concurrent writes).
const INGEST_KEYS: usize = 64;

/// Loadgen worker threads. They spend their time asleep until a request is
/// due; the count only caps how many requests can be in flight at once.
const WORKERS: usize = 32;

/// A rung is "sustainable" only if p99 stays under this ceiling.
const P99_CEILING_NS: u64 = 250_000_000;

/// Committed floor for the CI gate: the quick suite must sustain at least
/// this many QPS or the load-test job fails. Deliberately conservative
/// (below the ladder's own first rung × its 0.9 keep-up ratio, so any
/// sustainable first rung clears it) — a shared CI runner is slow, but a
/// scheduling regression (e.g. ingest starving query morsels) drops
/// sustained QPS by integer factors, not percentages.
pub const SERVE_QPS_FLOOR_QUICK: f64 = 20.0;

/// One target-QPS rung of the open-loop ladder.
#[derive(Debug, Clone)]
pub struct ServeRung {
    pub target_qps: f64,
    /// Completed (non-rejected, non-error) requests per second of rung time.
    pub achieved_qps: f64,
    pub requests: usize,
    /// Requests shed by the front door with `Overloaded`.
    pub rejected: usize,
    /// Any other error (must be zero for the rung to count).
    pub errors: usize,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub sustainable: bool,
}

/// The whole suite: the ladder walked until the first unsustainable rung.
#[derive(Debug, Clone)]
pub struct ServeSuite {
    pub machines: u32,
    pub max_inflight_per_machine: usize,
    /// Seconds of open-loop fire per rung.
    pub duration_s: f64,
    /// The request mix, as `kind:weight` pairs.
    pub mix: String,
    pub rungs: Vec<ServeRung>,
    /// Achieved QPS of the highest sustainable rung (0 if none was).
    pub max_sustainable_qps: f64,
    pub answers_match_closed_loop: bool,
}

/// Canonical bytes of a query outcome, for the byte-identity assertion.
fn canonical(outcome: &QueryOutcome) -> String {
    let mut s = String::new();
    if let Some(c) = outcome.count {
        let _ = write!(s, "count={c};");
    }
    for row in &outcome.rows {
        s.push_str(&row.to_string());
        s.push(';');
    }
    if let Some(cont) = &outcome.continuation {
        // Token ids differ run to run; only the *presence* of paging is part
        // of the answer shape.
        let _ = write!(s, "cont={};", !cont.is_empty());
    }
    s
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Q1,
    Q4,
    Ingest,
}

/// Deterministic 2:1:2 mix — two Q1, one Q4, two ingest per five requests.
fn kind_of(i: usize) -> Kind {
    match i % 5 {
        0 | 2 => Kind::Q1,
        1 => Kind::Q4,
        _ => Kind::Ingest,
    }
}

const MIX: &str = "q1:2,q4:1,ingest:2";

struct RungOutcome {
    latencies_ns: Vec<u64>,
    completed: usize,
    rejected: usize,
    errors: usize,
    mismatches: usize,
    elapsed: Duration,
}

/// Fire one rung: `target_qps` for `duration` seconds of Poisson arrivals.
fn fire_rung(
    kg: &KnowledgeGraph,
    target_qps: f64,
    duration: f64,
    baseline_q1: &str,
    baseline_q4: &str,
    seed: u64,
) -> RungOutcome {
    let n = (target_qps * duration).ceil().max(1.0) as usize;
    // The virtual clock: exponential inter-arrival gaps, fixed up front so
    // the schedule never adapts to the system falling behind (open loop).
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let arrivals: Vec<Duration> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / target_qps;
            Duration::from_secs_f64(t)
        })
        .collect();
    let q1 = kg.q1();
    let q4 = kg.q4();
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let mut per_worker: Vec<(Vec<u64>, usize, usize, usize, usize)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let client = kg.cluster.client().with_client_id(&format!("lg{w}"));
                let (next, arrivals, q1, q4) = (&next, &arrivals, &q1, &q4);
                let (baseline_q1, baseline_q4) = (baseline_q1, baseline_q4);
                scope.spawn(move || {
                    let mut latencies = Vec::new();
                    let (mut completed, mut rejected, mut errors, mut mismatches) = (0, 0, 0, 0);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= arrivals.len() {
                            break;
                        }
                        let due = started + arrivals[i];
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let kind = kind_of(i);
                        let result = match kind {
                            Kind::Q1 => client.query(TENANT, GRAPH, q1).map(Some),
                            Kind::Q4 => client.query(TENANT, GRAPH, q4).map(Some),
                            Kind::Ingest => {
                                // Optimistic-conflict retries are the
                                // client's job (see `A1Error::is_retryable`);
                                // the time they cost lands in the measured
                                // latency, as it would for a real front end.
                                let attrs = format!(
                                    r#"{{"id": "load{:04}", "rank": {i}}}"#,
                                    i % INGEST_KEYS
                                );
                                let mut attempt = 0;
                                loop {
                                    match client.update_vertex(TENANT, GRAPH, "entity", &attrs) {
                                        Err(e) if e.is_retryable() && attempt < 16 => {
                                            attempt += 1;
                                            std::thread::sleep(Duration::from_micros(
                                                100 << attempt.min(6),
                                            ));
                                        }
                                        other => break other.map(|()| None),
                                    }
                                }
                            }
                        };
                        // Latency counts from the *deadline*: a request the
                        // saturated system only got to late carries its
                        // queueing delay, which is the collapse signal.
                        let latency_ns = due.elapsed().as_nanos() as u64;
                        match result {
                            Ok(outcome) => {
                                completed += 1;
                                latencies.push(latency_ns);
                                if let Some(outcome) = outcome {
                                    let baseline = match kind {
                                        Kind::Q1 => baseline_q1,
                                        _ => baseline_q4,
                                    };
                                    if canonical(&outcome) != baseline {
                                        mismatches += 1;
                                    }
                                }
                            }
                            Err(A1Error::Overloaded { .. }) => rejected += 1,
                            Err(_) => errors += 1,
                        }
                    }
                    (latencies, completed, rejected, errors, mismatches)
                })
            })
            .collect();
        for h in handles {
            per_worker.push(h.join().expect("loadgen worker"));
        }
    });
    let elapsed = started.elapsed();
    let mut latencies_ns = Vec::new();
    let (mut completed, mut rejected, mut errors, mut mismatches) = (0, 0, 0, 0);
    for (lats, c, r, e, m) in per_worker {
        latencies_ns.extend(lats);
        completed += c;
        rejected += r;
        errors += e;
        mismatches += m;
    }
    latencies_ns.sort_unstable();
    RungOutcome {
        latencies_ns,
        completed,
        rejected,
        errors,
        mismatches,
        elapsed,
    }
}

/// Nearest-rank percentile in per-mille (999 = p99.9).
fn percentile_permille(sorted_ns: &[u64], permille: usize) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = (sorted_ns.len() * permille).div_ceil(1000);
    sorted_ns[rank.saturating_sub(1).min(sorted_ns.len() - 1)]
}

/// Run the open-loop serving suite on the 8-machine latency-injected
/// cluster: walk a QPS ladder with Poisson arrivals, stop at the first
/// unsustainable rung, and report tail latency plus the max sustainable
/// rate.
///
/// Panics — deliberately, this is the CI gate — if any answer observed
/// under concurrent load differs byte-for-byte from its closed-loop
/// baseline, if any request fails with a non-`Overloaded` error, or (quick
/// mode) if the max sustainable QPS falls below the committed
/// [`SERVE_QPS_FLOOR_QUICK`] floor.
pub fn run_serve_suite(quick: bool) -> ServeSuite {
    let machines = 8u32;
    let mut cfg = A1Config::small(machines);
    cfg.farm.fabric.latency = measured_latency();
    cfg.admission = AdmissionConfig {
        max_inflight_queries: MAX_INFLIGHT,
        ..AdmissionConfig::default()
    };
    // Load fast (no injection), then measure with wall-clock injection.
    let kg = KnowledgeGraph::load(cfg, suite_spec(quick));
    for i in 0..INGEST_KEYS {
        kg.client
            .create_vertex(
                TENANT,
                GRAPH,
                "entity",
                &format!(r#"{{"id": "load{i:04}", "rank": 0}}"#),
            )
            .expect("ingest target vertex");
    }
    // Closed-loop baselines: the bytes every answer under load must match.
    let baseline_q1 = canonical(&kg.client.query(TENANT, GRAPH, &kg.q1()).expect("q1"));
    let baseline_q4 = canonical(&kg.client.query(TENANT, GRAPH, &kg.q4()).expect("q4"));

    kg.cluster.farm().fabric().set_inject_latency(true);
    let (ladder, duration): (&[f64], f64) = if quick {
        (&[25.0, 50.0, 100.0, 200.0, 400.0], 0.4)
    } else {
        (&[50.0, 100.0, 200.0, 400.0, 800.0, 1600.0], 2.0)
    };
    let mut rungs = Vec::new();
    let mut max_sustainable = 0.0f64;
    let mut total_mismatches = 0usize;
    let mut total_errors = 0usize;
    for (i, &qps) in ladder.iter().enumerate() {
        let out = fire_rung(
            &kg,
            qps,
            duration,
            &baseline_q1,
            &baseline_q4,
            0xA1_5E_11 + i as u64,
        );
        let achieved = out.completed as f64 / out.elapsed.as_secs_f64();
        let p99 = percentile_permille(&out.latencies_ns, 990);
        // Sustainable = kept up with the schedule (≥90% of target completed,
        // ≤5% shed) without the tail collapsing.
        let sustainable = achieved >= 0.9 * qps
            && p99 <= P99_CEILING_NS
            && out.rejected * 20 <= out.completed + out.rejected
            && out.errors == 0;
        total_mismatches += out.mismatches;
        total_errors += out.errors;
        rungs.push(ServeRung {
            target_qps: qps,
            achieved_qps: achieved,
            requests: out.completed + out.rejected + out.errors,
            rejected: out.rejected,
            errors: out.errors,
            p50_ns: percentile_permille(&out.latencies_ns, 500),
            p99_ns: p99,
            p999_ns: percentile_permille(&out.latencies_ns, 999),
            sustainable,
        });
        if sustainable {
            max_sustainable = max_sustainable.max(achieved);
        } else {
            break; // past the knee; higher rungs only get worse
        }
    }
    kg.cluster.farm().fabric().set_inject_latency(false);

    assert_eq!(
        total_mismatches, 0,
        "answers under open-loop load diverged from closed-loop execution"
    );
    assert_eq!(
        total_errors, 0,
        "non-Overloaded errors under load (the front door must shed, not fail)"
    );
    if quick {
        assert!(
            max_sustainable >= SERVE_QPS_FLOOR_QUICK,
            "max sustainable QPS {max_sustainable:.0} regressed below the committed floor {SERVE_QPS_FLOOR_QUICK}"
        );
    }
    ServeSuite {
        machines,
        max_inflight_per_machine: MAX_INFLIGHT,
        duration_s: duration,
        mix: MIX.to_string(),
        rungs,
        max_sustainable_qps: max_sustainable,
        answers_match_closed_loop: true, // asserted above
    }
}

/// Serialize for the `serve` section of the `--json` document.
pub fn serve_suite_to_json(suite: &ServeSuite) -> Json {
    Json::obj(vec![
        ("machines", Json::Num(suite.machines as f64)),
        (
            "max_inflight_per_machine",
            Json::Num(suite.max_inflight_per_machine as f64),
        ),
        ("duration_s", Json::Num(suite.duration_s)),
        ("mix", Json::str(&suite.mix)),
        (
            "rungs",
            Json::Arr(
                suite
                    .rungs
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("target_qps", Json::Num(r.target_qps)),
                            ("achieved_qps", Json::Num(r.achieved_qps)),
                            ("requests", Json::Num(r.requests as f64)),
                            ("rejected", Json::Num(r.rejected as f64)),
                            ("errors", Json::Num(r.errors as f64)),
                            ("p50_latency_ns", Json::Num(r.p50_ns as f64)),
                            ("p99_latency_ns", Json::Num(r.p99_ns as f64)),
                            ("p999_latency_ns", Json::Num(r.p999_ns as f64)),
                            ("sustainable", Json::Bool(r.sustainable)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("max_sustainable_qps", Json::Num(suite.max_sustainable_qps)),
        (
            "answers_match_closed_loop",
            Json::Bool(suite.answers_match_closed_loop),
        ),
    ])
}

/// Human-readable report (the `serve` experiments target).
pub fn serve_report(quick: bool) -> String {
    let suite = run_serve_suite(quick);
    let mut out = String::new();
    writeln!(
        out,
        "== open-loop serving: Poisson arrivals vs the front door ({} machines, injected latency, mix {}) ==",
        suite.machines, suite.mix
    )
    .unwrap();
    writeln!(
        out,
        "{:>10} {:>10} {:>9} {:>9} {:>10} {:>10} {:>10}  ok?",
        "target", "achieved", "requests", "rejected", "p50 ms", "p99 ms", "p99.9 ms"
    )
    .unwrap();
    for r in &suite.rungs {
        writeln!(
            out,
            "{:>10.0} {:>10.0} {:>9} {:>9} {:>10.2} {:>10.2} {:>10.2}  {}",
            r.target_qps,
            r.achieved_qps,
            r.requests,
            r.rejected,
            r.p50_ns as f64 / 1e6,
            r.p99_ns as f64 / 1e6,
            r.p999_ns as f64 / 1e6,
            if r.sustainable { "yes" } else { "COLLAPSE" },
        )
        .unwrap();
    }
    writeln!(
        out,
        "max sustainable: {:.0} QPS (answers byte-identical to closed-loop: {})",
        suite.max_sustainable_qps, suite.answers_match_closed_loop
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_serve_suite_gates() {
        // Runs the full quick ladder; the in-suite asserts (byte-identity,
        // error-freedom, QPS floor) are the real test.
        let suite = run_serve_suite(true);
        assert!(!suite.rungs.is_empty());
        assert!(suite.max_sustainable_qps >= SERVE_QPS_FLOOR_QUICK);
        assert!(suite.answers_match_closed_loop);
        // Every recorded rung saw traffic and measured a tail.
        for r in &suite.rungs {
            assert!(r.requests > 0);
            assert!(r.p99_ns >= r.p50_ns);
        }
        // JSON round-trips through the vendored parser.
        let j = serve_suite_to_json(&suite);
        let parsed = Json::parse(&j.to_string()).unwrap();
        assert_eq!(
            parsed.get("rungs").unwrap().as_arr().unwrap().len(),
            suite.rungs.len()
        );
    }
}
