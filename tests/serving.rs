//! Front-door serving behavior: admission control, structured `Overloaded`
//! rejections over both wire formats, per-client quotas, and the
//! continuation-table sweep for admission-rejected page requests.
//!
//! Every scenario is deterministic: [`A1Cluster::hold_admission_slot`]
//! drives the front door to its limit without depending on query timing,
//! and single-machine clusters pin request routing.

use a1::core::{A1Config, A1Error, AdmissionConfig, MachineId, WireFormat};
use a1_workload::workload::{KnowledgeGraph, KnowledgeGraphSpec, GRAPH, TENANT};

const M0: MachineId = MachineId(0);

fn kg_with(cfg: A1Config) -> KnowledgeGraph {
    KnowledgeGraph::load(cfg, KnowledgeGraphSpec::tiny())
}

#[test]
fn overloaded_is_structured_on_both_wire_formats() {
    for fmt in [WireFormat::Binary, WireFormat::Json] {
        let cfg = A1Config::small(1)
            .with_wire_format(fmt)
            .with_admission(AdmissionConfig {
                max_inflight_queries: 1,
                ..AdmissionConfig::default()
            });
        let kg = kg_with(cfg);

        // Fill the machine's only slot, then knock on the front door.
        let permit = kg.cluster.hold_admission_slot(M0, "hog").unwrap();
        let err = kg.client.query(TENANT, GRAPH, &kg.q1()).unwrap_err();
        match err {
            A1Error::Overloaded { retry_after_ms } => {
                // The retry-after hint survives the wire round-trip in this
                // format (it rides the structured error frame, not the
                // message text).
                assert!(retry_after_ms >= 1, "{fmt:?}: empty retry-after hint");
            }
            other => panic!("{fmt:?}: expected Overloaded, got {other}"),
        }
        assert!(
            !err.is_retryable(),
            "retry is the client's job, after backoff"
        );

        // Once load drains (the permit drops), the retried request succeeds
        // and answers exactly like an unloaded cluster.
        drop(permit);
        let out = kg.client.query(TENANT, GRAPH, &kg.q1()).unwrap();
        assert!(out.count.unwrap() > 0, "{fmt:?}: retried query lost rows");
    }
}

#[test]
fn inflight_quota_is_per_client_not_global() {
    let cfg = A1Config::small(1).with_admission(AdmissionConfig {
        max_inflight_per_client: 1,
        ..AdmissionConfig::default()
    });
    let kg = kg_with(cfg);

    // Client "a" saturates only its own bucket...
    let held = kg.cluster.hold_admission_slot(M0, "a").unwrap();
    let err = kg
        .client
        .clone()
        .with_client_id("a")
        .query(TENANT, GRAPH, &kg.q1())
        .unwrap_err();
    assert!(matches!(err, A1Error::Overloaded { .. }), "got {err}");

    // ...while "b" and the anonymous bucket are untouched.
    kg.client
        .clone()
        .with_client_id("b")
        .query(TENANT, GRAPH, &kg.q1())
        .unwrap();
    kg.client.query(TENANT, GRAPH, &kg.q1()).unwrap();

    // "a" recovers as soon as its own in-flight request finishes.
    drop(held);
    kg.client
        .clone()
        .with_client_id("a")
        .query(TENANT, GRAPH, &kg.q1())
        .unwrap();
}

#[test]
fn continuation_quota_evicts_same_client_oldest() {
    let mut cfg = A1Config::small(1).with_admission(AdmissionConfig {
        max_continuations_per_client: 1,
        ..AdmissionConfig::default()
    });
    cfg.exec.page_size = 1; // every multi-row answer pages
    let kg = kg_with(cfg);
    let rows_q = kg.q1().replace("_count(*)", "*");

    let a = kg.client.clone().with_client_id("a");
    let b = kg.client.clone().with_client_id("b");

    // "a" opens two paged queries; the quota of one evicts the older.
    let first = a.query(TENANT, GRAPH, &rows_q).unwrap();
    let first_token = first.continuation.expect("page_size=1 must page");
    assert_eq!(kg.cluster.continuation_count(M0), 1);
    let second = a.query(TENANT, GRAPH, &rows_q).unwrap();
    let second_token = second.continuation.expect("page_size=1 must page");
    assert_eq!(
        kg.cluster.continuation_count(M0),
        1,
        "client 'a' may hold one continuation, not two"
    );

    // "b" pages alongside — a's quota never touches b's entry.
    let b_token = b
        .query(TENANT, GRAPH, &rows_q)
        .unwrap()
        .continuation
        .unwrap();
    assert_eq!(kg.cluster.continuation_count(M0), 2);

    // The evicted query must restart; the live ones page on.
    let err = a.query_next(&first_token).unwrap_err();
    assert!(matches!(err, A1Error::ContinuationExpired), "got {err}");
    assert!(!a.query_next(&second_token).unwrap().rows.is_empty());
    assert!(!b.query_next(&b_token).unwrap().rows.is_empty());
}

#[test]
fn rejected_page_request_sweeps_its_continuation() {
    let mut cfg = A1Config::small(1).with_admission(AdmissionConfig {
        max_inflight_queries: 1,
        ..AdmissionConfig::default()
    });
    cfg.exec.page_size = 1;
    let kg = kg_with(cfg);
    let rows_q = kg.q1().replace("_count(*)", "*");

    // A paged query parks its remainder in the continuation table.
    let out = kg.client.query(TENANT, GRAPH, &rows_q).unwrap();
    let token = out.continuation.expect("page_size=1 must page");
    assert_eq!(kg.cluster.continuation_count(M0), 1);

    // Its next-page request arrives while the machine is saturated: the
    // request is shed AND the parked rows go with it — the cached pages are
    // exactly the memory the rejection is shedding, so they must not sit
    // out the TTL.
    let permit = kg.cluster.hold_admission_slot(M0, "hog").unwrap();
    let err = kg.client.query_next(&token).unwrap_err();
    assert!(matches!(err, A1Error::Overloaded { .. }), "got {err}");
    assert_eq!(
        kg.cluster.continuation_count(M0),
        0,
        "rejected page request leaked its continuation entry"
    );

    // After load drains the token is gone for good — the client restarts
    // the query rather than resuming a swept one.
    drop(permit);
    let err = kg.client.query_next(&token).unwrap_err();
    assert!(matches!(err, A1Error::ContinuationExpired), "got {err}");
    kg.client.query(TENANT, GRAPH, &rows_q).unwrap();
}
