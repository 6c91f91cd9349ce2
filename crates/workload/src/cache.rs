//! The hot-set graph of the read-cache tests: a small set of **hub**
//! vertices that every query touches (the paper's serving story, §2.2,
//! §6), homed on a machine *remote* from the coordinator and re-read by
//! repeated one-hop traversals whose predicate forces a record read.
//! Uncached, every hub costs the coordinator a remote header read plus a
//! remote payload read per query; cached, a single 32-byte HEADER probe
//! revalidates the entry and the payload never crosses the wire again.
//!
//! Tests run it against **one** cluster through two front-door clients: a
//! cached one and [`UNCACHED_CLIENT`], which they list in
//! [`CacheConfig::bypass_clients`]. Both see the same committed state at
//! every instant, so both must give [`CacheGraphSpec::reference`] even
//! while a churn thread rewrites hub payloads — a stale cache entry that
//! survived invalidation *and* revalidation would show up as a divergence.
//!
//! [`CacheConfig::bypass_clients`]: a1_core::CacheConfig::bypass_clients

use a1_core::{A1Cluster, A1Config, Json, MachineId, Mutation, QueryOutcome};

pub const TENANT: &str = "bing";
pub const GRAPH: &str = "hot";

/// The client id tests register for cache bypass (any other id reads
/// through the cache).
pub const UNCACHED_CLIENT: &str = "uncached";

const SCHEMA: &str = r#"{
    "name": "entity",
    "fields": [
        {"id": 0, "name": "id", "type": "string", "required": true},
        {"id": 1, "name": "rank", "type": "int64"},
        {"id": 2, "name": "payload", "type": "string"}
    ]
}"#;

/// Hot-set shape parameters.
#[derive(Debug, Clone)]
pub struct CacheGraphSpec {
    /// Hub vertices in the hot set (every query's hop-2 frontier). Kept
    /// small enough that the root's edge list stays inline.
    pub hubs: usize,
    /// Hub record payload bytes — what the cache saves per re-read.
    pub payload_bytes: usize,
}

impl CacheGraphSpec {
    /// The reference answers: what [`render`] must give for
    /// [`count_query`] and [`rows_query`] on this spec's graph —
    /// [`build_graph`] gives every hub rank 1 and a `fan` edge from the
    /// root, so all of them count and all their `id`s are emitted.
    pub fn reference(&self) -> [String; 2] {
        let rows: Vec<String> = (0..self.hubs)
            .map(|i| Json::obj(vec![("id", Json::str(&format!("hub{i:04}")))]).to_string())
            .collect();
        [format!("count:{}", self.hubs), rows.join("|")]
    }
}

/// Render an outcome order-independently (merge order is not part of the
/// answer): `count:N`, or the rows' JSON sorted and joined by `|`.
pub fn render(out: &QueryOutcome) -> String {
    match out.count {
        Some(c) => format!("count:{c}"),
        None => {
            let mut rows: Vec<String> = out.rows.iter().map(Json::to_string).collect();
            rows.sort();
            rows.join("|")
        }
    }
}

/// Build the hot-set workload:
///
/// ```text
/// root (machine 1, the coordinator) ──fan──▶ hub_i (machine 0, ×hubs)
/// ```
///
/// Every hub lives on machine 0 and the coordinator is machine 1, so with
/// shipping disabled each hub evaluation is a remote read pair — the cache's
/// best case and the paper's hub-entity access pattern.
pub fn build_graph(cfg: A1Config, spec: &CacheGraphSpec) -> A1Cluster {
    let cluster = A1Cluster::start(cfg).expect("cluster");
    let client = cluster.client();
    client.create_tenant(TENANT).unwrap();
    client.create_graph(TENANT, GRAPH).unwrap();
    client
        .create_vertex_type(TENANT, GRAPH, SCHEMA, "id", &[])
        .unwrap();
    client
        .create_edge_type(TENANT, GRAPH, r#"{"name": "fan", "fields": []}"#)
        .unwrap();
    client
        .apply_batch_at(
            MachineId(1),
            &[Mutation::UpsertVertex {
                tenant: TENANT.into(),
                graph: GRAPH.into(),
                ty: "entity".into(),
                attrs: Json::obj(vec![("id", Json::str("root")), ("rank", Json::Num(0.0))]),
            }],
        )
        .unwrap();
    let payload: String = (0..spec.payload_bytes)
        .map(|i| ((i % 26) as u8 + b'a') as char)
        .collect();
    for i in 0..spec.hubs {
        client
            .apply_batch_at(
                MachineId(0),
                &[Mutation::UpsertVertex {
                    tenant: TENANT.into(),
                    graph: GRAPH.into(),
                    ty: "entity".into(),
                    attrs: Json::obj(vec![
                        ("id", Json::str(&format!("hub{i:04}"))),
                        ("rank", Json::Num(1.0)),
                        ("payload", Json::str(&payload)),
                    ]),
                }],
            )
            .unwrap();
        client
            .apply_batch(&[Mutation::UpsertEdge {
                tenant: TENANT.into(),
                graph: GRAPH.into(),
                src_type: "entity".into(),
                src_id: Json::str("root"),
                edge_type: "fan".into(),
                dst_type: "entity".into(),
                dst_id: Json::str(&format!("hub{i:04}")),
                data: None,
            }])
            .unwrap();
    }
    cluster
}

/// Count the hubs passing a record predicate (the answer is always `hubs`
/// — churn rewrites payloads, never ranks).
pub fn count_query() -> String {
    r#"{ "id": "root",
        "_out_edge": { "_type": "fan",
        "_vertex": { "rank": 1, "_select": ["_count(*)"] } } }"#
        .to_string()
}

/// The byte-identity query: emit the hubs' stable `id` attribute as rows.
pub fn rows_query() -> String {
    r#"{ "id": "root",
        "_out_edge": { "_type": "fan",
        "_vertex": { "rank": 1, "_select": ["id"] } } }"#
        .to_string()
}
