//! Per-layer unit costs, measured from outside: direct timed calls into each
//! layer's public functions on the workload's own loaded cluster (for
//! `rdma.*_ns`, on a benchmark-owned `Fabric`). Every call leaves a span.

use crate::gen::{payload, Vertex, GRAPH, TENANT, VTYPE};
use crate::load::upsert_vertex;
use crate::report::Metrics;
use crate::stats::{median, percentile};
use crate::trace::{LocalSpans, Tracer};
use a1_bond::{decode_record, encode_record, Record, Value};
use a1_core::query::parse_query;
use a1_core::wire::{decode_outcome, decode_request, encode_outcome, encode_query_request};
use a1_core::{A1Cluster, Mutation, WireFormat};
use a1_farm::{BTree, BTreeConfig, FetchReq, Hint, MachineId};
use a1_ingest::{IngestConfig, IngestPipeline, MutationRecord};
use a1_json::Json;
use a1_rdma::{Fabric, FabricConfig, ScopedJob, Segment};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many calls a probe makes, and how long it may take doing so.
#[derive(Debug, Clone, Copy)]
pub struct ProbeBudget {
    pub calls: usize,
    pub min_calls: usize,
    pub time_cap: Duration,
}

impl ProbeBudget {
    pub fn full() -> ProbeBudget {
        ProbeBudget {
            calls: 1_000,
            min_calls: 100,
            time_cap: Duration::from_millis(350),
        }
    }

    pub fn smoke() -> ProbeBudget {
        ProbeBudget {
            calls: 30,
            min_calls: 5,
            time_cap: Duration::from_millis(50),
        }
    }
}

/// Unit costs (median ns per call) plus what the budget model needs besides.
#[derive(Debug, Default, Clone, Copy)]
pub struct UnitCosts {
    pub read_ns: f64,
    pub read_many32_ns: f64,
    pub rpc_echo_ns: f64,
    pub txn_read_ns: f64,
    pub txn_read_remote_ns: f64,
    pub btree_get_ns: f64,
    pub btree_insert_ns: f64,
    /// Farm object reads one `BTree::get` made.
    pub btree_get_reads: f64,
    pub commit1_ns: f64,
    /// Fabric verbs (reads + writes + CAS) one single-object commit issued.
    pub commit1_verbs: f64,
    pub record_encode_ns: f64,
    pub record_decode_ns: f64,
    pub json_parse_ns: f64,
    pub query_parse_ns: f64,
    pub wire_roundtrip_ns: f64,
    pub outcome_encode_ns: f64,
    pub outcome_decode_ns: f64,
}

struct Prober<'a> {
    budget: ProbeBudget,
    spans: LocalSpans<'a>,
    metrics: &'a mut Metrics,
    calls: u64,
}

impl Prober<'_> {
    /// Call `f` up to the budget, one span per call; returns sorted ns.
    fn samples(&mut self, name: &str, mut f: impl FnMut(usize)) -> Vec<u64> {
        let started = Instant::now();
        let mut ns = Vec::with_capacity(self.budget.calls);
        for i in 0..self.budget.calls {
            if i >= self.budget.min_calls && started.elapsed() > self.budget.time_cap {
                break;
            }
            let t0 = self.spans.now_ns();
            f(i);
            let t1 = self.spans.now_ns();
            self.spans
                .record(&format!("layer.{name}"), 0, self.calls, t0, t1);
            self.calls += 1;
            ns.push(t1 - t0);
        }
        ns.sort_unstable();
        ns
    }

    /// Median ns per call of `f`, reported as metric `name`.
    fn probe(&mut self, name: &str, f: impl FnMut(usize)) -> f64 {
        self.probe_in(name, 1.0, f)
    }

    /// Like [`probe`](Self::probe), reported in µs.
    fn probe_us(&mut self, name: &str, f: impl FnMut(usize)) -> f64 {
        self.probe_in(name, 1e3, f)
    }

    fn probe_in(&mut self, name: &str, ns_per_unit: f64, f: impl FnMut(usize)) -> f64 {
        let ns = self.samples(name, f);
        let v = percentile(&ns, 500) as f64 / ns_per_unit;
        self.metrics.set(name, v);
        v
    }
}

fn probe_vertex(i: usize, rank: i64) -> Vertex {
    Vertex {
        id: format!("zprobe{i:05}"),
        name: format!("Probe {i}"),
        payload: payload(220, i),
        rank,
        character: None,
    }
}

fn entity_record() -> Record {
    Record::new()
        .with(0, Value::String("actor00042".into()))
        .with(1, Value::List(vec![Value::String("Actor 42".into())]))
        .with(3, Value::Int64(42))
        .with(4, Value::String(payload(220, 42)))
}

/// Time every listed layer call and fill the `*_ns` / `*_us` metrics.
pub fn probe_layers(
    cluster: &A1Cluster,
    query: &dyn Fn(usize) -> Option<String>,
    budget: ProbeBudget,
    tracer: &Tracer,
    metrics: &mut Metrics,
) -> Result<UnitCosts, String> {
    let mut p = Prober {
        budget,
        spans: tracer.local(),
        metrics,
        calls: 0,
    };
    let mut u = UnitCosts::default();
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    let machines = cluster.farm().num_machines();
    let (m0, m1) = (MachineId(0), MachineId(1 % machines));

    // ---- rdma: a benchmark-owned fabric of the same size, default config.
    let fabric = Fabric::new(FabricConfig::default().with_machines(machines));
    for m in fabric.machines() {
        m.register_segment(1, Segment::new(1 << 16));
    }
    fabric.set_rpc_handler(m1, Arc::new(|_from, payload| payload));
    u.read_ns = p.probe("rdma.read_ns", |i| {
        black_box(fabric.read(m0, m1, 1, (i % 64) * 256, 256).is_ok());
    });
    let batch: Vec<(u64, usize, usize)> = (0..32).map(|i| (1, i * 256, 256)).collect();
    u.read_many32_ns = p.probe("rdma.read_many32_ns", |_| {
        black_box(fabric.read_many(m0, m1, &batch).is_ok());
    });
    u.rpc_echo_ns = p.probe("rdma.rpc_echo_ns", |_| {
        black_box(fabric.rpc(m0, m1, vec![7u8; 128].into()).is_ok());
    });
    let pool = fabric
        .machine(m0)
        .map_err(|e| err("probe fabric", &e))?
        .pool();
    p.probe("rdma.pool_run_all8_ns", |_| {
        let jobs: Vec<ScopedJob<'_, u64>> = (0..8u64)
            .map(|j| Box::new(move || j) as ScopedJob<'_, u64>)
            .collect();
        black_box(pool.run_all(jobs));
    });
    drop(fabric);

    // ---- farm: objects, reads, commits and a B-tree on the loaded cluster.
    let farm = cluster.farm();
    let data = vec![0xA1u8; 256];
    let ptrs: Vec<_> = farm
        .run(m0, |tx| {
            (0..32).map(|_| tx.alloc(256, Hint::Local, &data)).collect()
        })
        .map_err(|e| err("probe alloc", &e))?;
    u.txn_read_ns = p.probe("farm.txn_read_ns", |i| {
        let mut tx = farm.begin_read_only(m0);
        black_box(tx.read(ptrs[i % 32]).is_ok());
    });
    u.txn_read_remote_ns = p.probe("farm.txn_read_remote_ns", |i| {
        let mut tx = farm.begin_read_only(m1);
        black_box(tx.read(ptrs[i % 32]).is_ok());
    });
    let reqs: Vec<FetchReq> = ptrs.iter().map(|&ptr| FetchReq::Read(ptr)).collect();
    p.probe("farm.fetch_many32_ns", |_| {
        let mut tx = farm.begin_read_only(m1);
        black_box(tx.fetch_many(&reqs).len());
    });
    let verbs = |m: &a1_rdma::MetricsSnapshot| {
        (m.local_reads + m.remote_reads + m.local_writes + m.remote_writes + m.cas_ops) as f64
    };
    let before = farm.fabric().metrics().snapshot();
    let commit1 = p.samples("farm.commit1_ns", |i| {
        let r = farm.run(m0, |tx| {
            let buf = tx.read(ptrs[i % 32])?;
            tx.update(&buf, data.clone())
        });
        black_box(r.is_ok());
    });
    let used = farm.fabric().metrics().snapshot().delta_since(&before);
    u.commit1_ns = percentile(&commit1, 500) as f64;
    u.commit1_verbs = verbs(&used) / commit1.len().max(1) as f64;
    p.metrics.set("farm.commit1_ns", u.commit1_ns);
    p.probe("farm.commit16_ns", |i| {
        let r = farm.run(m0, |tx| {
            for k in 0..16 {
                let buf = tx.read(ptrs[(i + k) % 32])?;
                tx.update(&buf, data.clone())?;
            }
            Ok(())
        });
        black_box(r.is_ok());
    });
    p.probe("farm.alloc_free_ns", |_| {
        let r = farm
            .run(m0, |tx| tx.alloc(256, Hint::Local, &data))
            .and_then(|ptr| {
                farm.run(m0, |tx| {
                    let buf = tx.read(ptr)?;
                    tx.free(&buf)
                })
            });
        black_box(r.is_ok());
    });

    // A tree shaped like a vertex type's primary index.
    let keys = if budget.calls >= 1_000 { 20_000 } else { 500 };
    let key = |i: usize| format!("k{i:08}").into_bytes();
    let index_cfg = BTreeConfig {
        max_keys: 32,
        max_key_len: 128,
        max_val_len: 16,
    };
    let tree = farm
        .run(m0, |tx| BTree::create(tx, index_cfg, Hint::Local))
        .map_err(|e| err("probe tree", &e))?;
    for chunk in (0..keys).collect::<Vec<_>>().chunks(64) {
        farm.run(m0, |tx| {
            for &i in chunk {
                tree.insert(tx, &key(i * 2), &[0u8; 16])?;
            }
            Ok(())
        })
        .map_err(|e| err("probe tree load", &e))?;
    }
    let before = farm.fabric().metrics().snapshot();
    let gets = p.samples("farm.btree_get_ns", |i| {
        let mut tx = farm.begin_read_only(m0);
        black_box(tree.get(&mut tx, &key((i * 7919 % keys) * 2)).is_ok());
    });
    let used = farm.fabric().metrics().snapshot().delta_since(&before);
    u.btree_get_ns = percentile(&gets, 500) as f64;
    u.btree_get_reads = used.total_reads() as f64 / gets.len().max(1) as f64;
    p.metrics.set("farm.btree_get_ns", u.btree_get_ns);
    let mut insert_ns = Vec::new();
    for i in 0..p.budget.calls.min(keys) {
        // Time the insert alone; its commit is `farm.commit*_ns`' business.
        let mut tx = farm.begin(m0);
        let k = key((i * 7919 % keys) * 2 + 1);
        let ok = p.spans.time("layer.farm.btree_insert_ns", 0, i as u64, || {
            let t0 = Instant::now();
            let ok = tree.insert(&mut tx, &k, &[1u8; 16]).is_ok();
            insert_ns.push(t0.elapsed().as_nanos() as u64);
            ok
        });
        if !ok || tx.commit().is_err() {
            return Err("probe tree insert failed".into());
        }
    }
    insert_ns.sort_unstable();
    u.btree_insert_ns = percentile(&insert_ns, 500) as f64;
    p.metrics.set("farm.btree_insert_ns", u.btree_insert_ns);

    // ---- codecs: a 220 B entity record and its attribute document.
    let rec = entity_record();
    let encoded = encode_record(&rec);
    u.record_encode_ns = p.probe("bond.record_encode_ns", |_| {
        black_box(encode_record(black_box(&rec)).len());
    });
    u.record_decode_ns = p.probe("bond.record_decode_ns", |_| {
        black_box(decode_record(black_box(&encoded)).is_ok());
    });
    let attrs_text = probe_vertex(42, 42).attrs().to_string();
    u.json_parse_ns = p.probe("json.parse_ns", |_| {
        black_box(Json::parse(black_box(&attrs_text)).is_ok());
    });

    // ---- core.query / core.server / core.wire, on the workload's query.
    if let Some(q) = query(0) {
        let q = q.as_str();
        u.query_parse_ns = p.probe("core.query.parse_ns", |_| {
            black_box(parse_query(black_box(q)).is_ok());
        });
        let inner = cluster.inner();
        let client = cluster.client();
        let mut hops: [Vec<f64>; 3] = Default::default();
        let (mut own, mut morsels, mut ships, mut front) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut outcome = None;
        let mut trees: Vec<(u64, u64, Vec<u64>)> = Vec::new();
        let p_now = || tracer.now_ns();
        // Each sample coordinates one query directly, with child spans per
        // hop synthesised from the wall times the engine returns, and then
        // sends the same query through the front door: the difference is
        // what the client↔backend hop costs.
        p.samples("core.query.pair", |i| {
            let Some(q) = query(i) else { return };
            let t0 = p_now();
            let direct = inner.coordinate_query(MachineId(i as u32 % machines), TENANT, GRAPH, &q);
            let t1 = p_now();
            black_box(client.query(TENANT, GRAPH, &q).is_ok());
            let t2 = p_now();
            let Ok(out) = direct else { return };
            let hop_ns: u64 = out.per_hop.iter().map(|h| h.wall_ns).sum();
            for (h, hop) in out.per_hop.iter().enumerate() {
                if let Some(slot) = hops.get_mut(h) {
                    slot.push(hop.wall_ns as f64 / 1e3);
                }
            }
            own.push((t1 - t0).saturating_sub(hop_ns) as f64 / 1e3);
            front.push(((t2 - t1) as f64 - (t1 - t0) as f64) / 1e3);
            morsels.push(out.per_hop.iter().map(|h| h.morsels).sum::<u64>() as f64);
            ships.push(
                out.per_hop
                    .iter()
                    .map(|h| h.max_concurrent_ships)
                    .max()
                    .unwrap_or(0) as f64,
            );
            trees.push((t0, t1, out.per_hop.iter().map(|h| h.wall_ns).collect()));
            outcome = Some(out);
        });
        for (i, (t0, t1, hop_ns)) in trees.into_iter().enumerate() {
            let root = p.spans.record("core.query.coordinate", 0, i as u64, t0, t1);
            let mut at = t0;
            for (h, ns) in hop_ns.into_iter().enumerate() {
                p.spans.record(
                    &format!("core.query.hop{}", h + 1),
                    root,
                    i as u64,
                    at,
                    at + ns,
                );
                at += ns;
            }
        }
        for (h, slot) in hops.iter().enumerate() {
            p.metrics
                .set(&format!("core.query.hop{}_us", h + 1), median(slot));
        }
        p.metrics.set("core.query.coord_self_us", median(&own));
        p.metrics
            .set("core.server.frontdoor_us", median(&front).max(0.0));
        p.metrics.set("core.query.morsels_per_op", median(&morsels));
        p.metrics
            .set("core.query.max_concurrent_ships", median(&ships));

        u.wire_roundtrip_ns = p.probe("core.wire.request_roundtrip_ns", |_| {
            let bytes = encode_query_request(TENANT, GRAPH, black_box(q), "", WireFormat::Binary);
            black_box(decode_request(&bytes).is_ok());
        });
        if let Some(out) = outcome {
            let out = Ok(out);
            let bytes = encode_outcome(&out, WireFormat::Binary);
            u.outcome_encode_ns = p.probe("core.wire.outcome_encode_ns", |_| {
                black_box(encode_outcome(black_box(&out), WireFormat::Binary).len());
            });
            u.outcome_decode_ns = p.probe("core.wire.outcome_decode_ns", |_| {
                black_box(decode_outcome(black_box(&bytes)).is_ok());
            });
        }
    }

    // ---- core.store and ingest, on vertices only the probes touch. These
    // write through the full stack last, so a failure here costs only
    // their own numbers.
    if let Err(e) = probe_writes(cluster, &mut p) {
        eprintln!("layer probes: write probes skipped: {e}");
    }
    Ok(u)
}

fn probe_writes(cluster: &A1Cluster, p: &mut Prober<'_>) -> Result<(), String> {
    let client = cluster.client();
    let batch = |round: usize| -> Vec<Mutation> {
        (0..64)
            .map(|i| upsert_vertex(probe_vertex(i, round as i64).attrs()))
            .collect()
    };
    client
        .apply_batch(&batch(0))
        .map_err(|e| format!("probe vertices: {e}"))?;
    p.probe_us("core.store.apply_batch64_us", |i| {
        black_box(client.apply_batch(&batch(i + 1)).is_ok());
    });
    p.probe_us("core.store.update_vertex_us", |i| {
        let attrs = probe_vertex(i % 64, -(i as i64)).attrs().to_string();
        black_box(client.update_vertex(TENANT, GRAPH, VTYPE, &attrs).is_ok());
    });
    let pipeline = IngestPipeline::start(cluster, IngestConfig::default())
        .map_err(|e| format!("probe pipeline: {e}"))?;
    let mut seq = 0u64;
    p.probe_us("ingest.commit64_us", |round| {
        let recs: Vec<MutationRecord> = (0..64)
            .map(|i| {
                seq += 1;
                let v = probe_vertex(i, round as i64);
                MutationRecord::keyed("probe", seq, &v.id, upsert_vertex(v.attrs()))
            })
            .collect();
        black_box(pipeline.commit_batch(MachineId(0), 0, &recs).is_ok());
    });
    let rec = MutationRecord::keyed(
        "probe",
        1,
        "zprobe00001",
        upsert_vertex(probe_vertex(1, 1).attrs()),
    );
    p.probe("ingest.record_wire_ns", |_| {
        let bytes = black_box(&rec).to_wire(WireFormat::Binary);
        black_box(MutationRecord::from_wire(&bytes).is_ok());
    });
    pipeline
        .shutdown()
        .map(|_| ())
        .map_err(|e| format!("probe pipeline shutdown: {e}"))
}
