//! Cluster start and graph load: the part of every workload that `setup_s`
//! times.

use crate::gen::{Graph, ENTITY_SCHEMA, GRAPH, TENANT, VTYPE};
use a1_core::{A1Cluster, A1Config, A1Result, Mutation};
use a1_json::Json;

/// Group-commit factor for the bulk load (the ingest default).
const LOAD_BATCH: usize = 64;

pub fn upsert_vertex(attrs: Json) -> Mutation {
    Mutation::UpsertVertex {
        tenant: TENANT.into(),
        graph: GRAPH.into(),
        ty: VTYPE.into(),
        attrs,
    }
}

pub fn delete_vertex(id: &str) -> Mutation {
    Mutation::DeleteVertex {
        tenant: TENANT.into(),
        graph: GRAPH.into(),
        ty: VTYPE.into(),
        id: Json::str(id),
    }
}

pub fn upsert_edge(src: &str, edge_type: &str, dst: &str) -> Mutation {
    Mutation::UpsertEdge {
        tenant: TENANT.into(),
        graph: GRAPH.into(),
        src_type: VTYPE.into(),
        src_id: Json::str(src),
        edge_type: edge_type.into(),
        dst_type: VTYPE.into(),
        dst_id: Json::str(dst),
        data: None,
    }
}

pub fn delete_edge(src: &str, edge_type: &str, dst: &str) -> Mutation {
    Mutation::DeleteEdge {
        tenant: TENANT.into(),
        graph: GRAPH.into(),
        src_type: VTYPE.into(),
        src_id: Json::str(src),
        edge_type: edge_type.into(),
        dst_type: VTYPE.into(),
        dst_id: Json::str(dst),
    }
}

/// Start a cluster and load `graph` into it, serially, through
/// `A1Client::apply_batch`: vertices first, then the edges between them.
pub fn start_and_load(cfg: A1Config, graph: &Graph, edge_types: &[&str]) -> A1Result<A1Cluster> {
    let cluster = A1Cluster::start(cfg)?;
    let client = cluster.client();
    client.create_tenant(TENANT)?;
    client.create_graph(TENANT, GRAPH)?;
    client.create_vertex_type(TENANT, GRAPH, ENTITY_SCHEMA, "id", &[])?;
    for et in edge_types {
        client.create_edge_type(TENANT, GRAPH, &format!(r#"{{"name":"{et}","fields":[]}}"#))?;
    }
    let vertices: Vec<Mutation> = graph
        .vertices
        .iter()
        .map(|v| upsert_vertex(v.attrs()))
        .collect();
    let id = |v: u32| graph.vertices[v as usize].id.as_str();
    let edges: Vec<Mutation> = graph
        .edges
        .iter()
        .map(|&(src, ty, dst)| upsert_edge(id(src), ty, id(dst)))
        .collect();
    for batch in vertices.chunks(LOAD_BATCH).chain(edges.chunks(LOAD_BATCH)) {
        client.apply_batch(batch)?;
    }
    Ok(cluster)
}
