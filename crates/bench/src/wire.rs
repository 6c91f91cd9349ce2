//! Wire-protocol benchmarks: the codec micro-bench (JSON text vs. binary
//! frames, encode + decode) and bytes-on-wire for Q1/Q4 on the 8-machine
//! latency-injected cluster, measured under both wire formats.
//!
//! Since `Fabric::rpc` charges simulated latency per byte of request and
//! reply, fewer bytes is directly faster — this suite is the evidence for
//! the binary wire being the default. It doubles as a correctness gate:
//! [`run_wire_suite`] panics if either format gets a query's answer wrong,
//! or if the binary wire fails to cut ≥40% of total RPC bytes.

use crate::workload::{measured_latency, suite_spec, KnowledgeGraph, GRAPH, TENANT};
use a1_core::query::exec::{
    CompiledMatch, CompiledStep, CompiledTraverse, QueryMetrics, WorkOp, WorkResult,
};
use a1_core::query::plan::{AttrPredicate, CmpOp, Select};
use a1_core::{wire, A1Config, Json, WireFormat};
use a1_farm::{Addr, RegionId};
use std::fmt::Write as _;
use std::time::Instant;

/// One codec micro-bench measurement.
#[derive(Debug, Clone)]
pub struct CodecBenchResult {
    /// Message kind (`work_op`, `work_result`).
    pub message: String,
    /// `json` or `binary`.
    pub format: String,
    /// Encoded size in bytes.
    pub bytes: usize,
    /// Average encode cost per message.
    pub encode_ns: u64,
    /// Average decode cost per message.
    pub decode_ns: u64,
}

/// Bytes-on-wire for one query under one wire format.
#[derive(Debug, Clone)]
pub struct WireQueryResult {
    pub workload: String,
    /// `json` or `binary`.
    pub format: String,
    pub rpcs: u64,
    pub req_bytes: u64,
    pub reply_bytes: u64,
    pub total_bytes: u64,
    pub avg_latency_ns: u64,
    /// The query's answer (a count), asserted equal to the reference.
    pub result: u64,
}

/// The whole wire suite.
#[derive(Debug, Clone)]
pub struct WireSuite {
    pub codec: Vec<CodecBenchResult>,
    pub queries: Vec<WireQueryResult>,
}

fn fmt_name(fmt: WireFormat) -> &'static str {
    match fmt {
        WireFormat::Binary => "binary",
        WireFormat::Json => "json",
    }
}

/// A representative mid-traversal work op: a 64-vertex frontier batch with a
/// predicate and a traversal (the shape Q1/Q4 ship every hop).
fn sample_work_op() -> WorkOp {
    WorkOp {
        tenant: TENANT.into(),
        graph: GRAPH.into(),
        snapshot_ts: 123_456,
        vertices: (0..64)
            .map(|i| Addr::new(RegionId(i % 8), 64 * (i + 1)))
            .collect(),
        step: CompiledStep {
            type_filter: Some(a1_core::TypeId(3)),
            id_filter: None,
            preds: vec![AttrPredicate {
                attr: "str_str_map".into(),
                map_key: Some("character".into()),
                op: CmpOp::Eq,
                value: Json::str("Batman"),
            }],
            matches: vec![CompiledMatch {
                dir: a1_core::edges::Dir::Out,
                edge_type: a1_core::TypeId(7),
                target: Some(Addr::new(RegionId(3), 256)),
                target_type: None,
                preds: vec![],
            }],
            traverse: Some(CompiledTraverse {
                dir: a1_core::edges::Dir::In,
                edge_type: a1_core::TypeId(9),
                edge_preds: vec![],
            }),
        },
        emit_rows: false,
        select: Select::All,
        cache_bypass: false,
    }
}

/// A representative worker reply: 64 next-hop pointers plus 16 rows.
fn sample_work_result() -> WorkResult {
    WorkResult {
        next: (0..64)
            .map(|i| Addr::new(RegionId(i % 8), 128 * (i + 1)))
            .collect(),
        rows: (0..16)
            .map(|i| {
                (
                    Addr::new(RegionId(i % 8), 64 * (i + 1)),
                    Json::obj(vec![
                        ("_type", Json::str("entity")),
                        ("id", Json::Str(format!("entity.{i:04}"))),
                        ("name", Json::Arr(vec![Json::Str(format!("Entity {i}"))])),
                        ("rank", Json::Num(i as f64)),
                    ]),
                )
            })
            .collect(),
        metrics: QueryMetrics {
            vertices_read: 64,
            edges_visited: 480,
            local_reads: 128,
            remote_reads: 2,
            ..QueryMetrics::default()
        },
        morsels: 4,
        max_concurrent_morsels: 2,
    }
}

fn bench_codec(iters: usize) -> Vec<CodecBenchResult> {
    let op = sample_work_op();
    let res = Ok(sample_work_result());
    let mut out = Vec::new();
    for fmt in [WireFormat::Json, WireFormat::Binary] {
        // Work op: encode, then decode through the server entry point.
        let encoded = wire::encode_work_op(&op, fmt);
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(wire::encode_work_op(std::hint::black_box(&op), fmt));
        }
        let encode_ns = t0.elapsed().as_nanos() as u64 / iters as u64;
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(wire::decode_request(std::hint::black_box(&encoded)).unwrap());
        }
        let decode_ns = t0.elapsed().as_nanos() as u64 / iters as u64;
        out.push(CodecBenchResult {
            message: "work_op".into(),
            format: fmt_name(fmt).into(),
            bytes: encoded.len(),
            encode_ns,
            decode_ns,
        });

        let encoded = wire::encode_work_result(&res, fmt);
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(wire::encode_work_result(std::hint::black_box(&res), fmt));
        }
        let encode_ns = t0.elapsed().as_nanos() as u64 / iters as u64;
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(wire::decode_work_result(std::hint::black_box(&encoded)).unwrap());
        }
        let decode_ns = t0.elapsed().as_nanos() as u64 / iters as u64;
        out.push(CodecBenchResult {
            message: "work_result".into(),
            format: fmt_name(fmt).into(),
            bytes: encoded.len(),
            encode_ns,
            decode_ns,
        });
    }
    out
}

/// Run the suite. Panics if either format answers a query differently from
/// the generator's reference, or if the binary wire saves less than 40% of total RPC bytes vs.
/// `WireFormat::Json` on Q1 or Q4 — so the CI perf-trajectory job doubles as
/// the wire-protocol acceptance gate.
pub fn run_wire_suite(quick: bool) -> WireSuite {
    let machines = 8u32;
    let iters = if quick { 2_000 } else { 20_000 };
    let query_iters = if quick { 3 } else { 8 };
    let codec = bench_codec(iters);

    let mut queries = Vec::new();
    for fmt in [WireFormat::Json, WireFormat::Binary] {
        let mut cfg = A1Config::small(machines).with_wire_format(fmt);
        cfg.farm.fabric.latency = measured_latency();
        // Load fast (no injection), then measure with injection on so the
        // byte counts come off the same cluster the latency suite measures.
        let kg = KnowledgeGraph::load(cfg, suite_spec(quick));
        let fabric = kg.cluster.farm().fabric().clone();
        fabric.set_inject_latency(true);
        for (name, text, expected) in [
            ("q1", kg.q1(), kg.answers.q1),
            ("q4", kg.q4(), kg.answers.q4),
        ] {
            // Warm proxy caches so the measured delta is the query only.
            let _ = kg.client.query(TENANT, GRAPH, &text).expect("warmup");
            let before = fabric.metrics().snapshot();
            let t0 = Instant::now();
            let mut result = 0;
            for _ in 0..query_iters {
                let outcome = kg.client.query(TENANT, GRAPH, &text).expect("query");
                result = outcome.count.unwrap_or(outcome.rows.len() as u64);
            }
            let elapsed = t0.elapsed().as_nanos() as u64;
            let delta = fabric.metrics().snapshot().delta_since(&before);
            // Gate 1: the answer under this format is the generator's.
            assert_eq!(result, expected, "{name} wrong under {}", fmt_name(fmt));
            queries.push(WireQueryResult {
                workload: name.into(),
                format: fmt_name(fmt).into(),
                rpcs: delta.rpcs / query_iters as u64,
                req_bytes: delta.rpc_req_bytes / query_iters as u64,
                reply_bytes: delta.rpc_reply_bytes / query_iters as u64,
                total_bytes: delta.rpc_bytes() / query_iters as u64,
                avg_latency_ns: elapsed / query_iters as u64,
                result,
            });
        }
        fabric.set_inject_latency(false);
    }

    for workload in ["q1", "q4"] {
        let by = |format: &str| {
            queries
                .iter()
                .find(|r| r.workload == workload && r.format == format)
                .expect("measured")
        };
        let (json, binary) = (by("json"), by("binary"));
        // Gate 2: the binary wire cuts ≥40% of total RPC bytes (the ISSUE 4
        // acceptance bar).
        assert!(
            (binary.total_bytes as f64) <= 0.60 * json.total_bytes as f64,
            "{workload}: binary {}B !≤ 60% of json {}B",
            binary.total_bytes,
            json.total_bytes
        );
    }
    WireSuite { codec, queries }
}

/// Serialize for the CI artifact / committed `BENCH_<n>.json` (`wire`
/// section of the `a1-bench-v3` schema).
pub fn wire_suite_to_json(suite: &WireSuite) -> Json {
    let reduction = |workload: &str| -> Json {
        let total = |format: &str| {
            suite
                .queries
                .iter()
                .filter(|r| r.workload == workload && r.format == format)
                .map(|r| r.total_bytes)
                .sum::<u64>() as f64
        };
        let json_b = total("json");
        if json_b == 0.0 {
            return Json::Null;
        }
        Json::Num(1.0 - total("binary") / json_b)
    };
    Json::obj(vec![
        (
            "codec",
            Json::Arr(
                suite
                    .codec
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("message", Json::str(&c.message)),
                            ("format", Json::str(&c.format)),
                            ("bytes", Json::Num(c.bytes as f64)),
                            ("encode_ns", Json::Num(c.encode_ns as f64)),
                            ("decode_ns", Json::Num(c.decode_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "queries",
            Json::Arr(
                suite
                    .queries
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("workload", Json::str(&r.workload)),
                            ("format", Json::str(&r.format)),
                            ("rpcs", Json::Num(r.rpcs as f64)),
                            ("req_bytes", Json::Num(r.req_bytes as f64)),
                            ("reply_bytes", Json::Num(r.reply_bytes as f64)),
                            ("total_bytes", Json::Num(r.total_bytes as f64)),
                            ("avg_latency_ns", Json::Num(r.avg_latency_ns as f64)),
                            ("result", Json::Num(r.result as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "bytes_reduction",
            Json::obj(vec![("q1", reduction("q1")), ("q4", reduction("q4"))]),
        ),
    ])
}

/// Human-readable report (the `wire` experiments target).
pub fn wire_report(quick: bool) -> String {
    let suite = run_wire_suite(quick);
    let mut out = String::new();
    writeln!(
        out,
        "== wire protocol v1: binary frames vs JSON text (§3.1 Bond messages) =="
    )
    .unwrap();
    writeln!(out, "codec micro-bench (per message):").unwrap();
    writeln!(
        out,
        "{:<12} {:<7} {:>7} {:>11} {:>11}",
        "message", "format", "bytes", "encode ns", "decode ns"
    )
    .unwrap();
    for c in &suite.codec {
        writeln!(
            out,
            "{:<12} {:<7} {:>7} {:>11} {:>11}",
            c.message, c.format, c.bytes, c.encode_ns, c.decode_ns
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nbytes on wire per query (8 machines, injected latency):"
    )
    .unwrap();
    writeln!(
        out,
        "{:<4} {:<7} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "Q", "format", "rpcs", "req B", "reply B", "total B", "avg µs"
    )
    .unwrap();
    for r in &suite.queries {
        writeln!(
            out,
            "{:<4} {:<7} {:>6} {:>10} {:>10} {:>10} {:>10.1}",
            r.workload,
            r.format,
            r.rpcs,
            r.req_bytes,
            r.reply_bytes,
            r.total_bytes,
            r.avg_latency_ns as f64 / 1000.0,
        )
        .unwrap();
    }
    for workload in ["q1", "q4"] {
        let total = |format: &str| {
            suite
                .queries
                .iter()
                .filter(|r| r.workload == workload && r.format == format)
                .map(|r| r.total_bytes)
                .sum::<u64>() as f64
        };
        writeln!(
            out,
            "{workload} bytes-on-wire reduction (binary vs json): {:.1}%",
            100.0 * (1.0 - total("binary") / total("json"))
        )
        .unwrap();
    }
    writeln!(
        out,
        "(every answer asserted against the generator's reference)"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE 4 acceptance gate: ≥40% fewer total RPC bytes on Q1/Q4 with
    /// reference-checked answers under both formats (both asserted inside
    /// `run_wire_suite`), plus a sanity check on the emitted JSON.
    #[test]
    fn wire_gate_quick() {
        let suite = run_wire_suite(true);
        assert_eq!(suite.queries.len(), 4);
        // The codec micro-bench agrees with the cluster-level gate: binary
        // messages are smaller than their JSON twins.
        for message in ["work_op", "work_result"] {
            let by = |format: &str| {
                suite
                    .codec
                    .iter()
                    .find(|c| c.message == message && c.format == format)
                    .unwrap()
                    .bytes as f64
            };
            assert!(
                by("binary") <= 0.60 * by("json"),
                "{message}: binary {} !≤ 60% of json {}",
                by("binary"),
                by("json")
            );
        }
        let j = wire_suite_to_json(&suite);
        let parsed = Json::parse(&j.to_string()).unwrap();
        assert_eq!(parsed.get("queries").unwrap().as_arr().unwrap().len(), 4);
        let q4_cut = parsed
            .get("bytes_reduction")
            .and_then(|r| r.get("q4"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(q4_cut >= 0.40, "q4 reduction {q4_cut} < 40%");
    }
}
