//! Streaming-ingestion acceptance (ISSUE 3): (a) group-commit parallel
//! ingest produces a graph query-identical to serial single-op loading,
//! and (b) replaying an at-least-once stream changes nothing (watermark
//! dedup). Ingest throughput is the benchmark's `ingest_stream` workload.

use a1_core::{A1Client, A1Cluster, A1Config, Json, Mutation};
use a1_ingest::{IngestConfig, IngestPipeline, MutationRecord};
use std::time::Duration;

const TENANT: &str = "t";
const GRAPH: &str = "g";
const N: usize = 48;

const SCHEMA: &str = r#"{
    "name": "entity",
    "fields": [
        {"id": 0, "name": "id", "type": "string", "required": true},
        {"id": 1, "name": "rank", "type": "int64"}
    ]
}"#;

fn fresh_cluster(machines: u32, dr: bool) -> (A1Cluster, A1Client) {
    let mut cfg = A1Config::small(machines);
    cfg.dr_enabled = dr;
    let cluster = A1Cluster::start(cfg).unwrap();
    let client = cluster.client();
    client.create_tenant(TENANT).unwrap();
    client.create_graph(TENANT, GRAPH).unwrap();
    client
        .create_vertex_type(TENANT, GRAPH, SCHEMA, "id", &["rank"])
        .unwrap();
    client
        .create_edge_type(TENANT, GRAPH, r#"{"name": "link", "fields": []}"#)
        .unwrap();
    (cluster, client)
}

fn vid(i: usize) -> String {
    format!("v{i:03}")
}

fn upsert_vertex(seq: u64, id: &str, rank: i64) -> MutationRecord {
    MutationRecord::keyed(
        "bus",
        seq,
        id,
        Mutation::UpsertVertex {
            tenant: TENANT.into(),
            graph: GRAPH.into(),
            ty: "entity".into(),
            attrs: Json::obj(vec![
                ("id", Json::str(id)),
                ("rank", Json::Num(rank as f64)),
            ]),
        },
    )
}

fn upsert_edge(seq: u64, src: &str, dst: &str) -> MutationRecord {
    MutationRecord::new(
        "bus",
        seq,
        Mutation::UpsertEdge {
            tenant: TENANT.into(),
            graph: GRAPH.into(),
            src_type: "entity".into(),
            src_id: Json::str(src),
            edge_type: "link".into(),
            dst_type: "entity".into(),
            dst_id: Json::str(dst),
            data: None,
        },
    )
    .unwrap()
}

/// The stream, in three phases (vertices → edges → updates/deletes) with
/// per-entity ordering inside each phase. Returns the phase boundaries.
fn stream() -> (Vec<MutationRecord>, usize, usize) {
    let mut seq = 0u64;
    let mut next = || {
        seq += 1;
        seq
    };
    let mut recs = Vec::new();
    for i in 0..N {
        recs.push(upsert_vertex(next(), &vid(i), 1));
    }
    let p1 = recs.len();
    // Chain edges plus skip links: plenty of cross-partition endpoints.
    for i in 0..N - 1 {
        recs.push(upsert_edge(next(), &vid(i), &vid(i + 1)));
    }
    for i in 0..N {
        recs.push(upsert_edge(next(), &vid(i), &vid((i + 7) % N)));
    }
    let p2 = recs.len();
    // Updates (rank flips to 2 for every third vertex), one vertex delete
    // (cleans its edges), one edge delete.
    for i in (0..N).step_by(3) {
        recs.push(upsert_vertex(next(), &vid(i), 2));
    }
    recs.push(
        MutationRecord::new(
            "bus",
            next(),
            Mutation::DeleteVertex {
                tenant: TENANT.into(),
                graph: GRAPH.into(),
                ty: "entity".into(),
                id: Json::str(&vid(5)),
            },
        )
        .unwrap(),
    );
    recs.push(
        MutationRecord::new(
            "bus",
            next(),
            Mutation::DeleteEdge {
                tenant: TENANT.into(),
                graph: GRAPH.into(),
                src_type: "entity".into(),
                src_id: Json::str(&vid(10)),
                edge_type: "link".into(),
                dst_type: "entity".into(),
                dst_id: Json::str(&vid(11)),
            },
        )
        .unwrap(),
    );
    (recs, p1, p2)
}

/// Full observable state: every vertex's attributes and out-neighbour
/// count, the secondary-index row multiset, and a count query.
fn graph_fingerprint(client: &A1Client) -> String {
    let mut out = String::new();
    for i in 0..N {
        let id = vid(i);
        let v = client
            .get_vertex(TENANT, GRAPH, "entity", &Json::str(&id))
            .unwrap();
        let degree = match &v {
            Some(_) => {
                let q = format!(
                    r#"{{ "id": "{id}", "_out_edge": {{ "_type": "link",
                         "_vertex": {{ "_select": ["_count(*)"] }}}}}}"#
                );
                client.query(TENANT, GRAPH, &q).unwrap().count.unwrap_or(0)
            }
            None => 0,
        };
        out.push_str(&format!(
            "{id} => {} deg={degree}\n",
            v.map(|j| j.to_string()).unwrap_or_else(|| "∅".into())
        ));
    }
    for rank in [1, 2] {
        let q = format!(r#"{{ "_type": "entity", "rank": {rank}, "_select": ["id"] }}"#);
        let mut rows: Vec<String> = client
            .query(TENANT, GRAPH, &q)
            .unwrap()
            .rows
            .iter()
            .map(|r| r.to_string())
            .collect();
        rows.sort(); // row order may differ by physical address; compare as sets
        out.push_str(&format!("rank{rank}: {rows:?}\n"));
    }
    out
}

fn ingest_stream(pipe: &IngestPipeline, recs: &[MutationRecord], p1: usize, p2: usize) {
    for (i, r) in recs.iter().enumerate() {
        if i == p1 || i == p2 {
            pipe.flush().unwrap(); // phase barrier: edges after vertices
        }
        pipe.submit(r.clone()).unwrap();
    }
    pipe.flush().unwrap();
}

fn parallel_cfg() -> IngestConfig {
    IngestConfig {
        partitions: 4,
        batch_size: 8,
        queue_depth: 16,
        flush_interval: Duration::from_millis(1),
        ..IngestConfig::default()
    }
}

/// (a) + (b): equivalence with serial loading, then replay idempotence.
#[test]
fn parallel_group_commit_matches_serial_and_replay_is_idempotent() {
    let (recs, p1, p2) = stream();

    // Serial single-op loading: one transaction per mutation, in order.
    let (_serial_cluster, serial_client) = fresh_cluster(4, false);
    for r in &recs {
        serial_client
            .apply_batch(std::slice::from_ref(&r.op))
            .unwrap();
    }

    // Group-commit parallel ingest of the same stream.
    let (cluster, client) = fresh_cluster(4, false);
    let pipe = IngestPipeline::start(&cluster, parallel_cfg()).unwrap();
    ingest_stream(&pipe, &recs, p1, p2);
    let stats = pipe.stats();
    assert_eq!(
        stats.failed,
        0,
        "no records dropped: {:?}",
        pipe.last_error()
    );
    assert_eq!(stats.applied, recs.len() as u64);
    assert!(stats.avg_batch() > 1.0, "group commit actually batched");

    // (a) byte-identical query results.
    let serial_fp = graph_fingerprint(&serial_client);
    let parallel_fp = graph_fingerprint(&client);
    assert_eq!(serial_fp, parallel_fp);

    // (b) at-least-once redelivery: replay the full stream and a suffix
    // through a fresh pipeline resuming the same watermarks.
    let wm = pipe.watermarks();
    pipe.shutdown().unwrap();
    let pipe2 = IngestPipeline::start(
        &cluster,
        IngestConfig {
            resume_watermarks: Some(wm),
            ..parallel_cfg()
        },
    )
    .unwrap();
    ingest_stream(&pipe2, &recs, p1, p2);
    for r in &recs[recs.len() / 2..] {
        pipe2.submit(r.clone()).unwrap(); // a redelivered suffix, too
    }
    pipe2.flush().unwrap();
    let stats2 = pipe2.shutdown().unwrap();
    assert_eq!(stats2.applied, 0, "replay must not re-apply anything");
    assert_eq!(
        stats2.deduped,
        (recs.len() + recs.len() - recs.len() / 2) as u64
    );
    assert_eq!(
        graph_fingerprint(&client),
        parallel_fp,
        "replay changed the graph"
    );
}

/// (b) with DR on: dedup also keeps the replication log quiet.
#[test]
fn replayed_records_write_no_replication_log_entries() {
    let (recs, p1, p2) = stream();
    let (cluster, _client) = fresh_cluster(4, true);
    let pipe = IngestPipeline::start(&cluster, parallel_cfg()).unwrap();
    ingest_stream(&pipe, &recs, p1, p2);
    let inner = cluster.inner();
    let log = inner.replog.as_ref().unwrap();
    let len = log.len(&inner.farm, a1_core::MachineId(0)).unwrap();
    assert!(len >= recs.len(), "every applied mutation logged");

    let wm = pipe.watermarks();
    pipe.shutdown().unwrap();
    let pipe2 = IngestPipeline::start(
        &cluster,
        IngestConfig {
            resume_watermarks: Some(wm),
            ..parallel_cfg()
        },
    )
    .unwrap();
    ingest_stream(&pipe2, &recs, p1, p2);
    pipe2.shutdown().unwrap();
    assert_eq!(
        log.len(&inner.farm, a1_core::MachineId(0)).unwrap(),
        len,
        "deduped replay must append nothing to the replication log"
    );
}

/// Wire-protocol compat (ISSUE 4): a replication log whose early entries
/// were written by a pre-binary build (JSON text bodies) and whose later
/// entries are binary frames replays byte-for-byte through the §4 DR path —
/// one log, two eras, one reader.
#[test]
fn mixed_format_replog_replays_through_dr() {
    use a1_core::replog::{entry, Replog};
    use a1_core::{MachineId, WireFormat};
    use a1_objectstore::{ObjectStore, StoreConfig};
    use a1_recovery::{recover_consistent, Replicator};

    // "JSON era": a cluster forced onto the legacy wire writes its
    // replication-log entries as JSON text (what pre-binary builds did).
    let mut cfg = A1Config::small(3);
    cfg.dr_enabled = true;
    cfg.wire_format = WireFormat::Json;
    let cluster = A1Cluster::start(cfg).unwrap();
    let client = cluster.client();
    client.create_tenant(TENANT).unwrap();
    client.create_graph(TENANT, GRAPH).unwrap();
    client
        .create_vertex_type(TENANT, GRAPH, SCHEMA, "id", &["rank"])
        .unwrap();
    client
        .create_edge_type(TENANT, GRAPH, r#"{"name": "link", "fields": []}"#)
        .unwrap();
    for (id, rank) in [("old1", 1), ("old2", 2)] {
        client
            .create_vertex(
                TENANT,
                GRAPH,
                "entity",
                &format!(r#"{{"id": "{id}", "rank": {rank}}}"#),
            )
            .unwrap();
    }
    client
        .create_edge(
            TENANT,
            GRAPH,
            "entity",
            &Json::str("old1"),
            "link",
            "entity",
            &Json::str("old2"),
            None,
        )
        .unwrap();

    // "Binary era": the post-upgrade build opens the *same* log (binary is
    // the default format for new entries) and data keeps flowing — here two
    // vertex upserts and an edge, applied through the batch path so the log
    // entries correspond to real writes.
    let inner = cluster.inner();
    let json_era_len = inner
        .replog
        .as_ref()
        .unwrap()
        .len(&inner.farm, MachineId(0))
        .unwrap();
    assert!(json_era_len >= 3);
    let binlog = Replog::open(cluster.farm(), inner.replog.as_ref().unwrap().header()).unwrap();
    for (id, rank) in [("new1", 3), ("new2", 4)] {
        let body = entry::vertex_upsert(
            TENANT,
            GRAPH,
            "entity",
            &Json::str(id),
            &Json::obj(vec![
                ("id", Json::str(id)),
                ("rank", Json::Num(rank as f64)),
            ]),
        );
        let log = binlog.clone();
        cluster
            .farm()
            .run(MachineId(0), move |tx| {
                log.append(tx, &body)
                    .map_err(|_| a1_farm::FarmError::Conflict)
            })
            .unwrap();
    }

    // The log now physically mixes the two encodings: JSON-era entries are
    // text ('{'), binary-era entries start with the frame magic 0xA1.
    let pending = binlog
        .fetch_pending(&inner.farm, MachineId(0), usize::MAX)
        .unwrap();
    assert_eq!(pending.len(), json_era_len + 2);
    let mut tx = inner.farm.begin_read_only(MachineId(0));
    let first_bytes: Vec<u8> = pending
        .iter()
        .map(|e| tx.read(e.ptr).unwrap().data()[0])
        .collect();
    drop(tx);
    assert!(first_bytes.contains(&b'{'), "JSON-era entries present");
    assert!(first_bytes.contains(&0xA1), "binary-era entries present");
    // Every body decodes to the shared mutation vocabulary.
    for e in &pending {
        Mutation::from_json(&e.body).unwrap();
    }

    // Replay the whole mixed log through the DR pipeline and recover a
    // fresh cluster from the durable copy: both eras must be there.
    let store = ObjectStore::new(StoreConfig::default());
    let repl = Replicator::new(cluster.clone(), store).unwrap();
    repl.replicate_catalog().unwrap();
    let flushed = repl.sweep_all().unwrap();
    assert_eq!(flushed, json_era_len + 2);
    repl.update_watermark().unwrap();
    let (recovered, report) =
        recover_consistent(repl.store(), A1Config::small(2), TENANT, GRAPH).unwrap();
    assert_eq!(
        report.vertices, 4,
        "old1/old2 (JSON era) + new1/new2 (binary era)"
    );
    assert_eq!(report.edges, 1);
    let rclient = recovered.client();
    for (id, rank) in [("old1", 1.0), ("old2", 2.0), ("new1", 3.0), ("new2", 4.0)] {
        let v = rclient
            .get_vertex(TENANT, GRAPH, "entity", &Json::str(id))
            .unwrap()
            .unwrap_or_else(|| panic!("{id} missing after mixed-era replay"));
        assert_eq!(v.get("rank"), Some(&Json::Num(rank)), "{id}");
    }
}
