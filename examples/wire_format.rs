//! Wire protocol v1: binary frames vs the legacy JSON text wire (§3.1).
//!
//! Shows three things:
//!
//! 1. the frame itself — the same work op encoded both ways, with sizes;
//! 2. bytes-on-wire for a real traversal on two 8-machine clusters, one on
//!    the default binary wire and one forced to `WireFormat::Json`;
//! 3. the compat rule — a JSON-era payload decodes through the same entry
//!    point as a binary frame (first-byte auto-detection).
//!
//! ```sh
//! cargo run --release --example wire_format
//! ```

use a1_core::query::exec::{CompiledStep, WorkOp};
use a1_core::query::plan::{AttrPredicate, CmpOp, Select};
use a1_core::{wire, A1Config, Json, WireFormat};
use a1_farm::{Addr, RegionId};
use a1_workload::workload::{KnowledgeGraph, KnowledgeGraphSpec, GRAPH, TENANT};

fn main() {
    // ---- 1. One message, two encodings -------------------------------
    let op = WorkOp {
        tenant: TENANT.into(),
        graph: GRAPH.into(),
        snapshot_ts: 42,
        vertices: (0..16)
            .map(|i| Addr::new(RegionId(i % 8), 64 * (i + 1)))
            .collect(),
        step: CompiledStep {
            type_filter: None,
            id_filter: None,
            preds: vec![AttrPredicate {
                attr: "str_str_map".into(),
                map_key: Some("character".into()),
                op: CmpOp::Eq,
                value: Json::str("Batman"),
            }],
            matches: vec![],
            traverse: None,
        },
        emit_rows: true,
        select: Select::All,
        cache_bypass: false,
    };
    let binary = wire::encode_work_op(&op, WireFormat::Binary);
    let json = wire::encode_work_op(&op, WireFormat::Json);
    println!("one 16-vertex work op:");
    println!(
        "  json text     {:>4} bytes: {}…",
        json.len(),
        String::from_utf8_lossy(&json[..60.min(json.len())])
    );
    println!(
        "  binary frame  {:>4} bytes: magic={:#04x} version={} tag={:#04x} + compact body",
        binary.len(),
        binary[0],
        binary[1],
        binary[2]
    );
    // Both decode to the same value through the same entry point (the first
    // byte tells them apart — no JSON document can start with 0xA1).
    let a = wire::decode_request(&binary).unwrap();
    let b = wire::decode_request(&json).unwrap();
    assert_eq!(a, b);
    println!("  auto-detected decode: identical ✓\n");

    // ---- 2. Bytes on the wire for a real traversal -------------------
    let spec = KnowledgeGraphSpec {
        hub_films: 24,
        actors_per_film: 8,
        actor_pool: 96,
        films_per_actor: 2,
        character_films: 4,
        payload_bytes: 64,
        seed: 0xA1,
    };
    let mut answers = Vec::new();
    for fmt in [WireFormat::Json, WireFormat::Binary] {
        let kg = KnowledgeGraph::load(A1Config::small(8).with_wire_format(fmt), spec.clone());
        let q = kg.q4();
        let _ = kg.client.query(TENANT, GRAPH, &q).unwrap(); // warm caches
        let fabric = kg.cluster.farm().fabric().clone();
        let before = fabric.metrics().snapshot();
        let out = kg.client.query(TENANT, GRAPH, &q).unwrap();
        let delta = fabric.metrics().snapshot().delta_since(&before);
        println!(
            "Q4 over {:?} wire: {} rpcs, {} request B + {} reply B = {} total B (ship bytes per QueryMetrics: {}+{})",
            fmt,
            delta.rpcs,
            delta.rpc_req_bytes,
            delta.rpc_reply_bytes,
            delta.rpc_bytes(),
            out.metrics.rpc_req_bytes,
            out.metrics.rpc_reply_bytes,
        );
        answers.push((
            delta.rpc_bytes(),
            out.count.unwrap_or(out.rows.len() as u64),
        ));
    }
    let (json_bytes, json_answer) = answers[0];
    let (bin_bytes, bin_answer) = answers[1];
    assert_eq!(json_answer, bin_answer, "same answer on both wires");
    println!(
        "binary wire saves {:.1}% of RPC bytes (identical answer: {bin_answer}) — and Fabric::rpc\ncharges simulated latency per byte, so the saving is wall-clock speed, not just bandwidth.\n",
        100.0 * (1.0 - bin_bytes as f64 / json_bytes as f64)
    );

    // ---- 3. Compat: JSON-era mutation bodies still decode ------------
    // This is what a replication-log entry written by a pre-binary build
    // looks like, and how today's reader replays it.
    let legacy = br#"{"op":"put_vertex","tenant":"bing","graph":"kg","type":"entity","key":"e1","data":{"id":"e1"}}"#;
    let body = wire::decode_mutation_body(legacy).unwrap();
    let modern = wire::mutation_body_to_binary(&body);
    assert_eq!(wire::decode_mutation_body(&modern).unwrap(), body);
    println!(
        "legacy JSON replog entry ({} B) and its binary re-encoding ({} B) decode identically ✓",
        legacy.len(),
        modern.len()
    );
    println!("force the text wire cluster-wide with A1Config::with_wire_format(WireFormat::Json)");
}
