//! Open-loop serving walkthrough: fire Poisson arrivals at the front door,
//! watch admission control shed past saturation, and see the byte-identity
//! guarantee — answers under concurrent load match closed-loop execution.
//!
//! ```sh
//! cargo run --release --example open_loop_load
//! ```

use a1::core::{A1Config, A1Error, AdmissionConfig, MachineId};
use a1_workload::workload::{KnowledgeGraph, KnowledgeGraphSpec, GRAPH, TENANT};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn main() {
    // A cluster with a deliberately tight front door: one query in flight
    // per machine, at most 2 per client.
    let mut cfg = A1Config::small(4).with_admission(AdmissionConfig {
        max_inflight_queries: 1,
        max_inflight_per_client: 2,
        ..AdmissionConfig::default()
    });
    // Datacenter-ish RTTs, injected as wall-clock sleeps once the storm
    // starts, so each query takes real milliseconds and requests overlap.
    cfg.farm.fabric.latency.rack_rtt_ns = 1_000_000;
    cfg.farm.fabric.latency.cross_rack_rtt_ns = 2_000_000;
    cfg.farm.fabric.latency.rpc_overhead_ns = 1_000_000;
    let kg = KnowledgeGraph::load(cfg, KnowledgeGraphSpec::tiny());
    let q1 = kg.q1();

    // The closed-loop baseline: the answer every request under load must
    // reproduce exactly.
    let baseline = kg.client.query(TENANT, GRAPH, &q1).unwrap().count.unwrap();
    println!("closed-loop Q1 answer: {baseline} collaborators");

    // Wall-clock network latency on, so requests genuinely overlap and the
    // 2 ms cadence outruns what one-in-flight machines can absorb.
    kg.cluster.farm().fabric().set_inject_latency(true);

    // Open loop: 200 requests due at a fixed 2 ms cadence, regardless of
    // how the cluster is doing. Eight workers, each an identified client.
    let n = 200;
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let (mut ok, mut shed, mut divergent) = (0, 0, 0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|w| {
                let client = kg.cluster.client().with_client_id(&format!("client{w}"));
                let (next, q1) = (&next, &q1);
                scope.spawn(move || {
                    let (mut ok, mut shed, mut divergent) = (0, 0, 0);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break (ok, shed, divergent);
                        }
                        let due = started + Duration::from_millis(2) * i as u32;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        match client.query(TENANT, GRAPH, q1) {
                            Ok(out) => {
                                ok += 1;
                                if out.count != Some(baseline) {
                                    divergent += 1;
                                }
                            }
                            // Past the limit the front door sheds with a
                            // structured retry-after hint instead of
                            // queueing without bound.
                            Err(A1Error::Overloaded { retry_after_ms }) => {
                                shed += 1;
                                std::thread::sleep(Duration::from_millis(retry_after_ms));
                            }
                            Err(e) => panic!("unexpected error under load: {e}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            let (o, s, d) = h.join().unwrap();
            ok += o;
            shed += s;
            divergent += d;
        }
    });
    println!("completed {ok}, shed {shed} (Overloaded, retried later), divergent {divergent}");
    assert_eq!(divergent, 0, "answers under load must match closed-loop");

    // The test hook used by tests/serving.rs: saturate machine 0 by hand
    // and watch the front door reject, then recover.
    let slot = kg.cluster.hold_admission_slot(MachineId(0), "hog").unwrap();
    match kg.cluster.hold_admission_slot(MachineId(0), "late") {
        Err(err) => println!("machine 0 saturated: {err}"),
        Ok(_) => panic!("front door admitted past its limit"),
    }
    drop(slot);
    kg.cluster
        .hold_admission_slot(MachineId(0), "late")
        .unwrap();
    println!("load drained: admission recovered");
}
