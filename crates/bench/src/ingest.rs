//! The ingest-throughput suite: single-op vs group-commit vs
//! partition-parallel streaming ingestion, measured wall-clock on a
//! latency-injected 8-machine cluster.
//!
//! Three modes load an identical mutation stream (vertices with a secondary
//! index + chain edges) into identically configured clusters:
//!
//! * **`single-op`** — one FaRM transaction per mutation through
//!   `A1Client::apply_batch(&[m])`, serially: today's client write path.
//! * **`group-commit`** — one `a1-ingest` pipeline partition batching many
//!   mutations per transaction.
//! * **`parallel`** — one partition (and applier) per machine, range-
//!   partitioned so each partition's inserts land in a contiguous index
//!   range.
//!
//! After the measured phase every cluster must answer the same
//! secondary-index count query identically — the suite doubles as a
//! correctness gate.

use a1_core::{A1Client, A1Cluster, A1Config, Json, Mutation};
use a1_farm::LatencyModel;
use a1_ingest::{IngestConfig, IngestPipeline, MutationRecord, Partitioner};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub const TENANT: &str = "bing";
pub const GRAPH: &str = "stream";

const SCHEMA: &str = r#"{
    "name": "entity",
    "fields": [
        {"id": 0, "name": "id", "type": "string", "required": true},
        {"id": 1, "name": "rank", "type": "int64"},
        {"id": 2, "name": "payload", "type": "string"}
    ]
}"#;

/// The measured phase's latency model: remote operations land in the
/// injector's sleep regime (≥200 µs — overlappable even on a 1-core CI
/// runner) while local reads stay near-free, preserving the local/remote
/// asymmetry that makes partition-local allocation matter.
fn ingest_latency() -> LatencyModel {
    LatencyModel {
        local_read_ns: 100,
        rack_rtt_ns: 200_000,
        cross_rack_rtt_ns: 400_000,
        per_kib_ns: 1_000,
        rpc_overhead_ns: 200_000,
    }
}

/// Stream shape parameters.
#[derive(Debug, Clone)]
pub struct IngestStreamSpec {
    /// Vertices in the stream; edges chain `v_i → v_{i+1}`.
    pub vertices: usize,
    /// Simulated upstream bus sources the records are striped over.
    pub sources: usize,
    /// Vertex payload bytes.
    pub payload_bytes: usize,
}

impl IngestStreamSpec {
    pub fn quick() -> IngestStreamSpec {
        IngestStreamSpec {
            vertices: 192,
            sources: 4,
            payload_bytes: 64,
        }
    }

    pub fn full() -> IngestStreamSpec {
        IngestStreamSpec {
            vertices: 1024,
            sources: 8,
            payload_bytes: 220,
        }
    }

    /// Total mutation records the stream carries.
    pub fn records(&self) -> usize {
        self.vertices * 2 - 1
    }
}

fn vertex_id(i: usize) -> String {
    format!("v{i:06}")
}

/// The stream: every vertex (rank 1, so the secondary index counts them
/// all), then chain edges. Phase 1 ends at `self.vertices` — callers flush
/// between phases so edges never race their endpoints.
pub fn gen_stream(spec: &IngestStreamSpec) -> Vec<MutationRecord> {
    let payload: String = (0..spec.payload_bytes)
        .map(|i| ((i % 26) as u8 + b'a') as char)
        .collect();
    let mut out = Vec::with_capacity(spec.records());
    let mut seqs = vec![0u64; spec.sources];
    let mut next = |i: usize| {
        let s = i % spec.sources;
        seqs[s] += 1;
        (format!("bus{s}"), seqs[s])
    };
    for i in 0..spec.vertices {
        let (source, seq) = next(i);
        let id = vertex_id(i);
        out.push(MutationRecord::keyed(
            &source,
            seq,
            &id,
            Mutation::UpsertVertex {
                tenant: TENANT.into(),
                graph: GRAPH.into(),
                ty: "entity".into(),
                attrs: Json::obj(vec![
                    ("id", Json::str(&id)),
                    ("rank", Json::Num(1.0)),
                    ("payload", Json::str(&payload)),
                ]),
            },
        ));
    }
    for i in 0..spec.vertices - 1 {
        let (source, seq) = next(i);
        out.push(
            MutationRecord::new(
                &source,
                seq,
                Mutation::UpsertEdge {
                    tenant: TENANT.into(),
                    graph: GRAPH.into(),
                    src_type: "entity".into(),
                    src_id: Json::str(&vertex_id(i)),
                    edge_type: "link".into(),
                    dst_type: "entity".into(),
                    dst_id: Json::str(&vertex_id(i + 1)),
                    data: None,
                },
            )
            .expect("edge records derive their key"),
        );
    }
    out
}

/// One measured ingest configuration.
#[derive(Debug, Clone)]
pub struct IngestBenchResult {
    /// `single-op`, `group-commit`, or `parallel`.
    pub mode: String,
    pub machines: u32,
    pub partitions: usize,
    pub batch_size: usize,
    pub records: usize,
    pub elapsed_ns: u64,
    pub records_per_sec: f64,
    pub batches: u64,
    pub batch_retries: u64,
    pub batch_splits: u64,
    pub dedup_hits: u64,
    /// The cross-checked secondary-index count (must equal `vertices` and
    /// agree across modes).
    pub check: u64,
}

fn fresh_cluster(machines: u32) -> (A1Cluster, A1Client) {
    let mut cfg = A1Config::small(machines);
    cfg.farm.fabric.latency = ingest_latency();
    let cluster = A1Cluster::start(cfg).expect("cluster");
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

/// Count every ingested vertex through the rank secondary index.
fn check_count(client: &A1Client) -> u64 {
    client
        .query(
            TENANT,
            GRAPH,
            r#"{ "_type": "entity", "rank": 1, "_select": ["_count(*)"] }"#,
        )
        .expect("check query")
        .count
        .unwrap_or(0)
}

/// Range split points giving each of `parts` partitions a contiguous vertex
/// id block.
fn range_splits(spec: &IngestStreamSpec, parts: usize) -> Vec<String> {
    (1..parts)
        .map(|p| vertex_id(p * spec.vertices / parts))
        .collect()
}

fn run_pipeline_mode(
    mode: &str,
    machines: u32,
    spec: &IngestStreamSpec,
    stream: &[MutationRecord],
    cfg: IngestConfig,
) -> IngestBenchResult {
    let (cluster, client) = fresh_cluster(machines);
    let partitions = if cfg.partitions == 0 {
        machines as usize
    } else {
        cfg.partitions
    };
    let batch_size = cfg.batch_size;
    cluster.farm().fabric().set_inject_latency(true);
    let t0 = Instant::now();
    let pipe = IngestPipeline::start(&cluster, cfg).expect("pipeline");
    for r in &stream[..spec.vertices] {
        pipe.submit(r.clone()).expect("submit vertex");
    }
    pipe.flush().expect("flush vertices");
    for r in &stream[spec.vertices..] {
        pipe.submit(r.clone()).expect("submit edge");
    }
    pipe.flush().expect("flush edges");
    let elapsed = t0.elapsed();
    let stats = pipe.shutdown().expect("shutdown");
    cluster.farm().fabric().set_inject_latency(false);
    assert_eq!(
        stats.failed, 0,
        "ingest dropped records in mode {mode}: {:?}",
        stats
    );
    IngestBenchResult {
        mode: mode.to_string(),
        machines,
        partitions,
        batch_size,
        records: stream.len(),
        elapsed_ns: elapsed.as_nanos() as u64,
        records_per_sec: stream.len() as f64 / elapsed.as_secs_f64(),
        batches: stats.batches,
        batch_retries: stats.batch_retries,
        batch_splits: stats.batch_splits,
        dedup_hits: stats.deduped,
        check: check_count(&client),
    }
}

/// Run the A/B/C suite on identically seeded `machines`-wide clusters.
/// Panics if any two modes disagree on the check query — the CI perf job
/// doubles as a correctness gate.
pub fn run_ingest_suite(quick: bool) -> Vec<IngestBenchResult> {
    let machines = 8u32;
    let spec = if quick {
        IngestStreamSpec::quick()
    } else {
        IngestStreamSpec::full()
    };
    let stream = gen_stream(&spec);
    let batch = 32usize;
    let mut results = Vec::new();

    // Mode A: one transaction per mutation, serial (the pre-ingest client
    // path, kept as the baseline).
    {
        let (cluster, client) = fresh_cluster(machines);
        cluster.farm().fabric().set_inject_latency(true);
        let t0 = Instant::now();
        for r in &stream {
            client
                .apply_batch(std::slice::from_ref(&r.op))
                .expect("single op");
        }
        let elapsed = t0.elapsed();
        cluster.farm().fabric().set_inject_latency(false);
        results.push(IngestBenchResult {
            mode: "single-op".into(),
            machines,
            partitions: 1,
            batch_size: 1,
            records: stream.len(),
            elapsed_ns: elapsed.as_nanos() as u64,
            records_per_sec: stream.len() as f64 / elapsed.as_secs_f64(),
            batches: stream.len() as u64,
            batch_retries: 0,
            batch_splits: 0,
            dedup_hits: 0,
            check: check_count(&client),
        });
    }

    // Mode B: group commit, one applier.
    results.push(run_pipeline_mode(
        "group-commit",
        machines,
        &spec,
        &stream,
        IngestConfig {
            partitions: 1,
            batch_size: batch,
            queue_depth: 4 * batch,
            flush_interval: Duration::from_millis(2),
            ..IngestConfig::default()
        },
    ));

    // Mode C: one applier per machine, range-partitioned.
    results.push(run_pipeline_mode(
        "parallel",
        machines,
        &spec,
        &stream,
        IngestConfig {
            partitions: machines as usize,
            batch_size: batch,
            queue_depth: 4 * batch,
            flush_interval: Duration::from_millis(2),
            partitioner: Partitioner::KeyRange(range_splits(&spec, machines as usize)),
            ..IngestConfig::default()
        },
    ));

    for r in &results {
        assert_eq!(
            r.check, spec.vertices as u64,
            "mode {} lost vertices ({} of {})",
            r.mode, r.check, spec.vertices
        );
    }
    results
}

/// Serialize for the CI artifact / committed `BENCH_<n>.json`.
pub fn ingest_suite_to_json(results: &[IngestBenchResult]) -> Json {
    Json::Arr(
        results
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("workload", Json::Str(format!("ingest-{}", r.mode))),
                    ("machines", Json::Num(r.machines as f64)),
                    ("partitions", Json::Num(r.partitions as f64)),
                    ("batch_size", Json::Num(r.batch_size as f64)),
                    ("records", Json::Num(r.records as f64)),
                    ("elapsed_ns", Json::Num(r.elapsed_ns as f64)),
                    ("records_per_sec", Json::Num(r.records_per_sec)),
                    ("batches", Json::Num(r.batches as f64)),
                    ("batch_retries", Json::Num(r.batch_retries as f64)),
                    ("batch_splits", Json::Num(r.batch_splits as f64)),
                    ("dedup_hits", Json::Num(r.dedup_hits as f64)),
                    ("check", Json::Num(r.check as f64)),
                ])
            })
            .collect(),
    )
}

/// Human-readable report (the `ingest` experiments target).
pub fn ingest_report(quick: bool) -> String {
    let results = run_ingest_suite(quick);
    let mut out = String::new();
    writeln!(
        out,
        "== streaming ingest: single-op vs group-commit vs partition-parallel (8 machines, injected latency) =="
    )
    .unwrap();
    writeln!(
        out,
        "{:<14} {:>6} {:>6} {:>8} {:>12} {:>8} {:>8}",
        "mode", "parts", "batch", "records", "rec/s", "retries", "splits"
    )
    .unwrap();
    for r in &results {
        writeln!(
            out,
            "{:<14} {:>6} {:>6} {:>8} {:>12.0} {:>8} {:>8}",
            r.mode,
            r.partitions,
            r.batch_size,
            r.records,
            r.records_per_sec,
            r.batch_retries,
            r.batch_splits
        )
        .unwrap();
    }
    let by = |mode: &str| {
        results
            .iter()
            .find(|r| r.mode == mode)
            .expect("mode measured")
            .records_per_sec
    };
    writeln!(
        out,
        "group-commit speedup over single-op:  {:.2}x",
        by("group-commit") / by("single-op")
    )
    .unwrap();
    writeln!(
        out,
        "parallel speedup over single-op:      {:.2}x",
        by("parallel") / by("single-op")
    )
    .unwrap();
    writeln!(
        out,
        "(the paper's A1 is fed from Bing's pipelines over an at-least-once pub/sub bus, §1/§6)"
    )
    .unwrap();
    out
}
