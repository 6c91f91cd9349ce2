//! Workspace-level integration: the full stack from workload generation
//! through distributed query execution, across all crates.

use a1::core::{A1Config, Json, WireFormat};
use a1_workload::workload::{KnowledgeGraph, KnowledgeGraphSpec, GRAPH, TENANT};

#[test]
fn knowledge_graph_queries_end_to_end() {
    let kg = KnowledgeGraph::load(A1Config::small(5), KnowledgeGraphSpec::tiny());

    // Q1: the hub director's collaborators, deduplicated.
    let q1 = kg.client.query(TENANT, GRAPH, &kg.q1()).unwrap();
    assert_eq!(q1.count, Some(kg.answers.q1));
    assert_eq!(q1.metrics.hops, 2);

    // The same query with rows instead of a count returns `count` rows.
    let rows_q = kg.q1().replace("_count(*)", "*");
    let q1_rows = kg.client.query(TENANT, GRAPH, &rows_q).unwrap();
    assert_eq!(q1_rows.rows.len() as u64, kg.answers.q1);

    // Q2 finds only Batman performers.
    let q2 = kg.client.query(TENANT, GRAPH, &kg.q2()).unwrap();
    assert_eq!(q2.count, Some(kg.answers.q2));

    // Q3's star pattern: the director's war films with the hub actor.
    let q3 = kg.client.query(TENANT, GRAPH, &kg.q3()).unwrap();
    let mut names: Vec<&str> = q3
        .rows
        .iter()
        .map(|r| r.get("name[0]").and_then(Json::as_str).expect("name[0]"))
        .collect();
    names.sort_unstable();
    assert_eq!(names, kg.answers.q3);

    // Q4 stress traversal touches the most vertices of the four.
    let q4 = kg.client.query(TENANT, GRAPH, &kg.q4()).unwrap();
    assert_eq!(q4.count, Some(kg.answers.q4));
    assert!(q4.metrics.vertices_read >= q2.metrics.vertices_read);
}

/// The wire gate: under either format Q1 and Q4 give the generator's
/// answers, and the binary wire carries each leg — requests and replies —
/// in at most 60 % of the JSON wire's bytes.
#[test]
fn binary_wire_answers_like_json_in_at_most_60_percent_of_the_bytes() {
    const MACHINES: u32 = 8;
    // Every hop spreads over all eight machines with per-machine batches
    // above the ship threshold, so work ops and their results cross the
    // wire on both queries.
    let spec = KnowledgeGraphSpec {
        hub_films: 32,
        actors_per_film: 8,
        actor_pool: 120,
        films_per_actor: 2,
        character_films: 4,
        payload_bytes: 64,
        seed: 0xA1,
    };
    // (request bytes, reply bytes) for Q1, then for Q4.
    let measure = |fmt: WireFormat| {
        let cfg = A1Config::small(MACHINES).with_wire_format(fmt);
        let kg = KnowledgeGraph::load(cfg, spec.clone());
        let metrics = kg.cluster.farm().fabric().metrics();
        [(kg.q1(), kg.answers.q1), (kg.q4(), kg.answers.q4)].map(|(q, want)| {
            // The front door picks coordinators round-robin: one round
            // warms every backend and the next is measured, so the bytes do
            // not depend on where the rotation stands.
            let round = || {
                for _ in 0..MACHINES {
                    let out = kg.client.query(TENANT, GRAPH, &q).unwrap();
                    assert_eq!(out.count, Some(want), "wrong answer under {fmt:?}");
                }
            };
            round();
            let before = metrics.snapshot();
            round();
            let delta = metrics.snapshot().delta_since(&before);
            (delta.rpc_req_bytes, delta.rpc_reply_bytes)
        })
    };
    let json = measure(WireFormat::Json);
    let binary = measure(WireFormat::Binary);
    for (query, (j, b)) in ["Q1", "Q4"].iter().zip(json.iter().zip(&binary)) {
        for (leg, j, b) in [("request", j.0, b.0), ("reply", j.1, b.1)] {
            assert!(
                b > 0 && b * 100 <= j * 60,
                "{query} {leg}s: binary {b} B is not within 60 % of JSON's {j} B"
            );
        }
    }
}

#[test]
fn snapshot_queries_are_stable_under_concurrent_writes() {
    let kg = KnowledgeGraph::load(A1Config::small(4), KnowledgeGraphSpec::tiny());
    let client = kg.client.clone();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Writers churn vertex attributes while readers run multi-hop queries.
    let writer = {
        let client = client.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = client.update_vertex(
                    TENANT,
                    GRAPH,
                    "entity",
                    &format!(r#"{{"id": "actor00001", "rank": {}}}"#, i % 100),
                );
                i += 1;
            }
        })
    };
    let expected = client
        .query(TENANT, GRAPH, &kg.q1())
        .unwrap()
        .count
        .unwrap();
    for _ in 0..30 {
        let out = client.query(TENANT, GRAPH, &kg.q1()).unwrap();
        assert_eq!(
            out.count.unwrap(),
            expected,
            "topology untouched by attribute churn"
        );
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
}

#[test]
fn concurrent_clients_counters_are_exact() {
    // The paper's Fig. 3 pattern, end-to-end through the A1 client API:
    // concurrent read-modify-write updates must not lose increments.
    let kg = KnowledgeGraph::load(A1Config::small(4), KnowledgeGraphSpec::tiny());
    kg.client
        .create_vertex(TENANT, GRAPH, "entity", r#"{"id": "counter", "rank": 0}"#)
        .unwrap();
    let mut handles = Vec::new();
    for _ in 0..4 {
        let client = kg.client.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..25 {
                loop {
                    // Read-modify-write *within one transaction* (Fig. 3):
                    // the read must be inside the txn so commit-time
                    // validation protects it.
                    let mut txn = client.transaction();
                    let cur = match txn.get_vertex(TENANT, GRAPH, "entity", &Json::str("counter")) {
                        Ok(v) => v.unwrap(),
                        Err(e) if e.is_retryable() => {
                            txn.abort();
                            continue;
                        }
                        Err(e) => panic!("{e}"),
                    };
                    let rank = cur.get("rank").and_then(Json::as_i64).unwrap_or(0);
                    // On conflict (either at the buffered write — opacity
                    // aborts stale reads eagerly — or at commit), retry the
                    // whole read-modify-write. Using commit_with_retry here
                    // would replay the *stale* rank.
                    let staged = txn.update_vertex(
                        TENANT,
                        GRAPH,
                        "entity",
                        &Json::parse(&format!(r#"{{"id": "counter", "rank": {}}}"#, rank + 1))
                            .unwrap(),
                    );
                    match staged {
                        Ok(()) => {}
                        Err(e) if e.is_retryable() => {
                            txn.abort();
                            continue;
                        }
                        Err(e) => panic!("{e}"),
                    }
                    match txn.commit() {
                        Ok(()) => break,
                        Err(e) if e.is_retryable() => continue,
                        Err(e) => panic!("{e}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let v = kg
        .client
        .get_vertex(TENANT, GRAPH, "entity", &Json::str("counter"))
        .unwrap()
        .unwrap();
    assert_eq!(v.get("rank").unwrap().as_i64(), Some(100));
}

#[test]
fn umbrella_crate_reexports() {
    // The `a1` facade exposes the stack layers.
    let _cfg = a1::farm::FarmConfig::small(1);
    let _lat = a1::rdma::LatencyModel::default();
    let parsed = a1::core::Json::parse(r#"{"id": "x"}"#).unwrap();
    assert_eq!(parsed.get("id").unwrap().as_str(), Some("x"));
}
