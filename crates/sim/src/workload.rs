//! Shared deterministic workloads: a small social graph plus canonical-form
//! readbacks. Scenarios compare canonical state across runs (faulted vs.
//! fault-free reference), so every rendering here is sorted and free of
//! physical details like addresses or machine ids.

use a1_core::{A1Client, Json, Mutation};
use a1_rdma::{ClusterRng, MachineId};

pub const TENANT: &str = "sim";
pub const GRAPH: &str = "g";
pub const NODE_TYPE: &str = "node";
pub const EDGE_TYPE: &str = "follows";

pub const NODE_SCHEMA: &str = r#"{
    "name": "node",
    "fields": [
        {"id": 0, "name": "id", "type": "string", "required": true},
        {"id": 1, "name": "rank", "type": "int64"}
    ]
}"#;

/// Create tenant/graph/vertex/edge types.
pub fn setup_schema(client: &A1Client) {
    client.create_tenant(TENANT).expect("tenant");
    client.create_graph(TENANT, GRAPH).expect("graph");
    client
        .create_vertex_type(TENANT, GRAPH, NODE_SCHEMA, "id", &[])
        .expect("vertex type");
    client
        .create_edge_type(TENANT, GRAPH, r#"{"name": "follows", "fields": []}"#)
        .expect("edge type");
}

pub fn node_attrs(id: &str, rank: i64) -> String {
    format!(r#"{{"id": "{id}", "rank": {rank}}}"#)
}

/// Deterministic node ids `n0..n{count}` with seeded ranks.
pub fn seeded_nodes(rng: &ClusterRng, count: usize) -> Vec<(String, i64)> {
    (0..count)
        .map(|i| (format!("n{i}"), rng.gen_range(1000) as i64))
        .collect()
}

/// A hub-and-spokes graph: `hub` with `follows` edges to every node in
/// `spokes`. Spread across machines by the store's own placement.
pub fn build_hub(client: &A1Client, hub: &str, spokes: &[(String, i64)]) {
    client
        .create_vertex(TENANT, GRAPH, NODE_TYPE, &node_attrs(hub, 0))
        .expect("hub vertex");
    for (id, rank) in spokes {
        client
            .create_vertex(TENANT, GRAPH, NODE_TYPE, &node_attrs(id, *rank))
            .expect("spoke vertex");
        client
            .create_edge(
                TENANT,
                GRAPH,
                NODE_TYPE,
                &Json::str(hub),
                EDGE_TYPE,
                NODE_TYPE,
                &Json::str(id),
                None,
            )
            .expect("edge");
    }
}

/// `count` more spokes `p0..p{count}` (rank 0) for an existing `hub`, all
/// placed on machine `home` — vertices allocate where their batch is
/// applied — so that one owner's share of the hub's fan-out is as big as
/// the caller needs (past the morsel split size, say).
pub fn add_pinned_spokes(client: &A1Client, hub: &str, home: MachineId, count: usize) {
    let ids: Vec<String> = (0..count).map(|i| format!("p{i}")).collect();
    // Modest batches: each is one transaction rewriting the hub's edge list.
    for chunk in ids.chunks(16) {
        let vertices = chunk.iter().map(|id| Mutation::UpsertVertex {
            tenant: TENANT.into(),
            graph: GRAPH.into(),
            ty: NODE_TYPE.into(),
            attrs: Json::obj(vec![("id", Json::str(id)), ("rank", Json::Num(0.0))]),
        });
        let edges = chunk.iter().map(|id| Mutation::UpsertEdge {
            tenant: TENANT.into(),
            graph: GRAPH.into(),
            src_type: NODE_TYPE.into(),
            src_id: Json::str(hub),
            edge_type: EDGE_TYPE.into(),
            dst_type: NODE_TYPE.into(),
            dst_id: Json::str(id),
            data: None,
        });
        let batch: Vec<Mutation> = vertices.chain(edges).collect();
        client
            .apply_batch_at(home, &batch)
            .expect("pinned spokes batch");
    }
}

/// Canonical per-vertex state: sorted `id=<json|absent>` lines. Sorting
/// removes physical ordering, so equal graphs render equal regardless of
/// placement or retry history.
pub fn canonical_state(client: &A1Client, ids: &[String]) -> Vec<String> {
    let mut out: Vec<String> = ids
        .iter()
        .map(|id| {
            match client
                .get_vertex(TENANT, GRAPH, NODE_TYPE, &Json::str(id))
                .expect("get_vertex")
            {
                Some(j) => format!("{id}={j}"),
                None => format!("{id}=absent"),
            }
        })
        .collect();
    out.sort();
    out
}

/// One-hop scan from `root` over `follows`, selecting id and rank rows.
pub fn hub_rows_query(root: &str) -> String {
    format!(
        r#"{{ "id": "{root}",
             "_out_edge": {{ "_type": "follows",
             "_vertex": {{ "_select": ["id", "rank"] }}}}}}"#
    )
}

/// Order-independent rendering of query rows.
pub fn render_rows(rows: &[Json]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
    out.sort();
    out
}

/// One-hop fan-out count from `root` over `follows`.
pub fn hub_count_query(root: &str) -> String {
    format!(
        r#"{{ "id": "{root}",
             "_out_edge": {{ "_type": "follows",
             "_vertex": {{ "_select": ["_count(*)"] }}}}}}"#
    )
}
