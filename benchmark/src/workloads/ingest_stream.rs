//! `ingest_stream`: a continuous update feed through `IngestPipeline`, then
//! a read-back of last-writer-wins state against the generator's own model.
//!
//! The stream has two stages. The *update* stage streams vertex updates
//! routed by vertex id, so all partitions apply in parallel. The *structure*
//! stage then streams inserts, deletes and edge changes under one routing
//! key, so one applier makes them in order, and nothing but read-only
//! lookups follows it. The shape is forced by the seed: structural
//! mutations racing anything else drop records (`object not found`,
//! `corrupt btree`) and stall ≈ 11 s on an object left reserved but never
//! committed, and a read-write index descent on another machine after a
//! structural change can meet a freed node through its stale internal-node
//! cache (see README, findings at seed). A benchmark needs a workload on
//! which no operation fails.

use super::{OpShape, Scale, Workload};
use crate::driver::{Phase, Window};
use crate::gen::{payload, Uniform, Vertex, GRAPH, LINK, TENANT, VTYPE};
use crate::load::{delete_edge, delete_vertex, start_and_load, upsert_edge, upsert_vertex};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::{LocalSpans, Tracer};
use a1_core::{A1Cluster, A1Result};
use a1_ingest::{IngestConfig, IngestPipeline, MutationRecord};
use a1_json::Json;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const BASE_VERTICES: usize = 4_000;
const BASE_EDGES: usize = 12_000;
/// Fresh vertices alive at any time: every eight structural records insert
/// two and delete the two oldest, so the live size stays constant.
const WINDOW: usize = 2_000;
const SOURCES: u64 = 8;
/// Payload of a loaded base vertex: above the 100–220 B the updates write,
/// so every update fits the object it replaces. An update that outgrows
/// its object reallocates it, and at seed reallocations racing on several
/// partitions now and then leave a vertex pointing at a freed object
/// (about one run in thirty; see README, findings at seed).
const BASE_PAYLOAD: usize = 224;
/// Records per timed `submit` block. Updates: half of what the eight
/// partition queues hold, so a block's time is what backpressure makes a
/// producer wait, averaged over the partitions. Structure: the one queue.
const UPDATE_BLOCK: usize = 1024;
const STRUCTURE_BLOCK: usize = 256;
/// Shares of the run: update stage, structure stage; the rest reads back.
const UPDATE_SHARE: f64 = 0.5;
const STRUCTURE_SHARE: f64 = 0.4;
/// The routing key every structural record shares.
const STRUCTURE_KEY: &str = "structure";

/// Per eight structural records: 2 fresh-vertex inserts (I), 2 deletes of
/// the oldest fresh vertices (D), 3 edge upserts (E), 1 edge delete (X).
const STRUCTURE: &[u8; 8] = b"IEDEIXDE";

/// The generator's model of what the graph must hold after the stream:
/// last writer wins per vertex, and the live edge set.
pub struct Stream {
    rng: Rng,
    seq: u64,
    structural: u64,
    /// Base vertex → (rank, payload length, payload salt) last written.
    base: Vec<(i64, usize, usize)>,
    /// Fresh vertices `fresh_lo..fresh_hi` are live; below `fresh_lo`, deleted.
    fresh_lo: u64,
    fresh_hi: u64,
    edges: HashSet<(u32, u32)>,
    /// Edges the stream added and may delete again.
    added: VecDeque<(u32, u32)>,
}

fn base_id(v: usize) -> String {
    format!("v{v:07}")
}

fn fresh_id(n: u64) -> String {
    format!("n{n:09}")
}

fn fresh_vertex(n: u64) -> Vertex {
    Vertex {
        id: fresh_id(n),
        name: format!("N {n}"),
        payload: payload(100 + (n % 121) as usize, n as usize),
        rank: n as i64,
        character: None,
    }
}

impl Stream {
    /// The model of a freshly loaded cluster: the generated graph plus the
    /// first `window` fresh vertices.
    fn new(graph: &Uniform, seed: u64, window: u64) -> Stream {
        Stream {
            rng: Rng::fork(seed, 30),
            seq: 0,
            structural: 0,
            base: graph
                .graph
                .vertices
                .iter()
                .enumerate()
                .map(|(i, v)| (v.rank, v.payload.len(), i))
                .collect(),
            fresh_lo: 0,
            fresh_hi: window,
            edges: graph.graph.edges.iter().map(|&(a, _, b)| (a, b)).collect(),
            added: VecDeque::new(),
        }
    }

    fn base_vertex(&self, v: usize) -> Vertex {
        let (rank, len, salt) = self.base[v];
        Vertex {
            id: base_id(v),
            name: format!("V {v}"),
            payload: payload(len, salt),
            rank,
            character: None,
        }
    }

    fn source(&mut self) -> (String, u64) {
        self.seq += 1;
        (format!("s{}", self.seq % SOURCES), self.seq)
    }

    /// The next vertex update (payload 100–220 B), routed by vertex id; the
    /// model is updated as the record is made.
    fn next_update(&mut self) -> MutationRecord {
        let (source, seq) = self.source();
        let v = self.rng.below(self.base.len());
        self.base[v] = (seq as i64, 100 + self.rng.below(121), seq as usize);
        let vertex = self.base_vertex(v);
        MutationRecord::keyed(&source, seq, &vertex.id, upsert_vertex(vertex.attrs()))
    }

    /// The next structural record, all under one routing key.
    fn next_structural(&mut self) -> MutationRecord {
        let (source, seq) = self.source();
        let n = self.base.len();
        self.structural += 1;
        let op = match STRUCTURE[(self.structural % 8) as usize] {
            b'I' => {
                let vertex = fresh_vertex(self.fresh_hi);
                self.fresh_hi += 1;
                upsert_vertex(vertex.attrs())
            }
            b'D' => {
                let id = fresh_id(self.fresh_lo);
                self.fresh_lo += 1;
                delete_vertex(&id)
            }
            b'E' => {
                let (a, mut b) = (self.rng.below(n) as u32, self.rng.below(n) as u32);
                if a == b {
                    b = (b + 1) % n as u32;
                }
                if self.edges.insert((a, b)) {
                    self.added.push_back((a, b));
                }
                upsert_edge(&base_id(a as usize), LINK, &base_id(b as usize))
            }
            _ => {
                // Delete the oldest edge the stream added (a no-op delete of
                // an absent edge before the first upsert has happened).
                let (a, b) = self.added.pop_front().unwrap_or((0, 0));
                self.edges.remove(&(a, b));
                delete_edge(&base_id(a as usize), LINK, &base_id(b as usize))
            }
        };
        MutationRecord::keyed(&source, seq, STRUCTURE_KEY, op)
    }

    fn out_degree(&self, v: u32) -> u64 {
        self.edges.iter().filter(|&&(a, _)| a == v).count() as u64
    }
}

pub struct IngestStream {
    graph: Uniform,
    window: u64,
    seed: u64,
    scale: Scale,
    /// Survives across measured phases of one process: the second phase of
    /// a traced run continues the stream on the same cluster.
    stream: Mutex<Stream>,
}

impl IngestStream {
    pub fn new(seed: u64, scale: Scale) -> IngestStream {
        let (v, e, window) = if scale.smoke {
            (200, 600, 40)
        } else {
            (BASE_VERTICES, BASE_EDGES, WINDOW)
        };
        let graph = Uniform::generate(v, e, BASE_PAYLOAD, seed);
        let stream = Mutex::new(Stream::new(&graph, seed, window as u64));
        IngestStream {
            graph,
            window: window as u64,
            seed,
            scale,
            stream,
        }
    }

    fn fresh_stream(&self) -> Stream {
        Stream::new(&self.graph, self.seed, self.window)
    }
}

fn one_hop_count(v: usize) -> String {
    format!(
        r#"{{"id":"{}","_out_edge":{{"_type":"link","_vertex":{{"_select":["_count(*)"]}}}}}}"#,
        base_id(v)
    )
}

/// The one submitter: streams records in timed blocks.
struct Feed<'a, 'b> {
    pipeline: &'a IngestPipeline,
    spans: Option<&'a mut LocalSpans<'b>>,
    submitted: u64,
    submit_ns: u64,
    errors: u64,
}

/// What one stage of one round did.
struct StageRound {
    records: u64,
    /// Wall time, flush included.
    seconds: f64,
    /// Each block's `submit` time, ascending.
    block_ns: Vec<u64>,
}

impl Feed<'_, '_> {
    /// One round of one stage: submit blocks of `block` records from `next`
    /// for `len`, then `flush()`.
    fn round(
        &mut self,
        len: Duration,
        block: usize,
        mut next: impl FnMut() -> MutationRecord,
    ) -> StageRound {
        let started = Instant::now();
        let before = self.submitted;
        let mut block_ns = Vec::new();
        while started.elapsed() < len {
            let records: Vec<MutationRecord> = (0..block).map(|_| next()).collect();
            let span_start = self.spans.as_ref().map(|s| s.now_ns());
            let t0 = Instant::now();
            for rec in records {
                if self.pipeline.submit(rec).is_err() {
                    self.errors += 1;
                }
            }
            let ns = t0.elapsed().as_nanos() as u64;
            if let (Some(s), Some(start)) = (self.spans.as_mut(), span_start) {
                s.record("op.submit", 0, self.submitted, start, start + ns);
            }
            block_ns.push(ns);
            self.submit_ns += ns;
            self.submitted += block as u64;
        }
        let pipeline = self.pipeline;
        let flushed = match self.spans.as_mut() {
            Some(s) => s.time("op.flush", 0, self.submitted, || pipeline.flush()),
            None => pipeline.flush(),
        };
        if flushed.is_err() {
            self.errors += 1;
        }
        block_ns.sort_unstable();
        StageRound {
            records: self.submitted - before,
            seconds: started.elapsed().as_secs_f64(),
            block_ns,
        }
    }
}

impl Workload for IngestStream {
    fn setup(&self) -> A1Result<A1Cluster> {
        // The base graph plus the first window of fresh vertices, serially
        // through `apply_batch`.
        let mut graph = self.graph.graph.clone();
        graph.vertices.extend((0..self.window).map(fresh_vertex));
        let cluster = start_and_load(self.scale.config(), &graph, &[LINK])?;
        // A fresh cluster holds the generated graph again: so does the model.
        *self.stream.lock().unwrap_or_else(|e| e.into_inner()) = self.fresh_stream();
        Ok(cluster)
    }

    fn measure(&self, cluster: &A1Cluster, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        let mut stream = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        let mut phase = Phase::default();
        let pipeline = match IngestPipeline::start(cluster, IngestConfig::default()) {
            Ok(p) => p,
            Err(e) => {
                phase.attempted = 1;
                phase.failed = 1;
                phase.wrong = 1;
                phase.notes.push(format!("pipeline start: {e}"));
                return phase;
            }
        };
        let mut spans = tracer.map(Tracer::local);
        let rounds = self.scale.rounds;
        let round_len = |share: f64| Duration::from_secs_f64(seconds * share / rounds as f64);
        let window = Window::open(cluster);
        let before = pipeline.stats();
        let mut feed = Feed {
            pipeline: &pipeline,
            spans: spans.as_mut(),
            submitted: 0,
            submit_ns: 0,
            errors: 0,
        };
        let allocated = || {
            cluster
                .farm()
                .stats()
                .allocated_objects
                .load(Ordering::Relaxed)
        };
        let allocated_before = allocated();
        let updates: Vec<StageRound> = (0..rounds)
            .map(|_| {
                feed.round(round_len(UPDATE_SHARE), UPDATE_BLOCK, || {
                    stream.next_update()
                })
            })
            .collect();
        let update_allocations = allocated() - allocated_before;
        let structure: Vec<StageRound> = (0..rounds)
            .map(|_| {
                feed.round(round_len(STRUCTURE_SHARE), STRUCTURE_BLOCK, || {
                    stream.next_structural()
                })
            })
            .collect();
        // Round i of the stream is update round i plus structure round i.
        let round_walls: Vec<f64> = updates
            .iter()
            .zip(&structure)
            .map(|(u, s)| u.seconds + s.seconds)
            .collect();
        let round_rates: Vec<f64> = updates
            .iter()
            .zip(&structure)
            .map(|(u, s)| (u.records + s.records) as f64 / (u.seconds + s.seconds))
            .collect();
        let stream_s: f64 = round_walls.iter().sum();
        let (submitted, submit_ns, submit_errors) = (feed.submitted, feed.submit_ns, feed.errors);
        phase.deltas = window.close(cluster);
        let after = pipeline.stats();
        let dropped = after.failed - before.failed;
        if let Some(e) = pipeline.last_error() {
            phase.notes.push(format!("last dropped record: {e}"));
        }

        // Read back last-writer-wins state: mostly base vertices, some live
        // and some deleted fresh ones.
        let client = cluster.client();
        let mut rng = Rng::fork(self.seed, 31 + stream.seq);
        let readback = Duration::from_secs_f64(seconds * (1.0 - UPDATE_SHARE - STRUCTURE_SHARE));
        let started = Instant::now();
        let mut lookups = 0u64;
        let mut wrong_ids = HashSet::new();
        while started.elapsed() < readback {
            let want = match rng.below(10) {
                0 if stream.fresh_lo > 0 => {
                    Err(fresh_id(rng.below(stream.fresh_lo as usize) as u64))
                }
                1 => {
                    let live = (stream.fresh_hi - stream.fresh_lo) as usize;
                    Ok(fresh_vertex(stream.fresh_lo + rng.below(live) as u64))
                }
                _ => Ok(stream.base_vertex(rng.below(stream.base.len()))),
            };
            let id = match &want {
                Ok(v) => v.id.clone(),
                Err(id) => id.clone(),
            };
            let got = client.get_vertex(TENANT, GRAPH, VTYPE, &Json::str(&id));
            lookups += 1;
            let ok = match (&got, &want) {
                (Ok(Some(j)), Ok(v)) => v.matches(j, Some(v.rank)),
                (Ok(None), Err(_)) => true,
                _ => false,
            };
            if !ok {
                wrong_ids.insert(id);
            }
        }
        // The live edge set, through the query engine: out-degrees of a
        // sample of base vertices.
        let degree_checks = if self.scale.smoke { 20 } else { 200 };
        for _ in 0..degree_checks {
            let v = rng.below(stream.base.len());
            let got = client.query(TENANT, GRAPH, &one_hop_count(v));
            lookups += 1;
            if !matches!(&got, Ok(o) if o.count == Some(stream.out_degree(v as u32))) {
                wrong_ids.insert(format!("{} (out-degree)", base_id(v)));
            }
        }
        if let Err(e) = pipeline.shutdown() {
            phase.notes.push(format!("pipeline shutdown: {e}"));
        }

        // A wrong entity is explained by a dropped record or it is a wrong
        // answer; submit and flush errors are never explained.
        let mismatches = wrong_ids.len() as u64;
        for id in wrong_ids.iter().take(8) {
            phase.notes.push(format!("read-back mismatch at {id}"));
        }
        let unexplained = mismatches.saturating_sub(dropped) + submit_errors;
        phase.attempted = submitted + lookups;
        phase.failed = dropped + unexplained;
        phase.wrong = unexplained;
        phase.notes.push(format!(
            "records {submitted}, dropped {dropped}, read-backs {lookups}, wrong entities {mismatches}, unexplained {unexplained}"
        ));
        phase.notes.push(format!(
            "objects allocated by the update stage: {update_allocations}"
        ));
        phase.notes.push(format!(
            "round walls (s): {}",
            round_walls
                .iter()
                .map(|w| format!("{w:.2}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        phase.ops = submitted;
        phase.rates = round_rates;
        phase.primary_ns = updates.into_iter().map(|u| u.block_ns).collect();
        phase.secondary_ns = structure.into_iter().map(|s| s.block_ns).collect();
        phase.mean_op_ns = stream_s * 1e9 / submitted.max(1) as f64;

        let batches = (after.batches - before.batches).max(1) as f64;
        let median_wall = median(&round_walls);
        let slow = round_walls
            .iter()
            .filter(|&&w| w > 3.0 * median_wall)
            .count();
        phase.extra = vec![
            (
                "ingest.avg_batch".into(),
                (after.applied - before.applied) as f64 / batches,
            ),
            (
                "ingest.retries_per_batch".into(),
                (after.batch_retries - before.batch_retries) as f64 / batches,
            ),
            (
                "ingest.splits_per_batch".into(),
                (after.batch_splits - before.batch_splits) as f64 / batches,
            ),
            (
                "ingest.submit_wait_share".into(),
                submit_ns as f64 / (stream_s * 1e9).max(1.0),
            ),
            ("ingest.slow_rounds".into(), slow as f64),
        ];
        phase
    }

    fn probe_query(&self, _i: usize) -> Option<String> {
        None
    }

    /// No: the structure stage must be the last thing that writes.
    fn reusable_cluster(&self) -> bool {
        false
    }

    fn op_shape(&self) -> OpShape {
        // Per 20 records, 16 vertex ops descend the primary index once and
        // 4 edge ops twice (both endpoints).
        OpShape {
            query: 0.0,
            lookup: 0.0,
            write: 1.0,
            index_descents: 1.2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_model_is_last_writer_wins_and_seeded() {
        let graph = Uniform::generate(50, 100, 16, 1);
        let make = || {
            let mut s = Stream::new(&graph, 5, 10);
            let mut recs: Vec<MutationRecord> = (0..200).map(|_| s.next_update()).collect();
            recs.extend((0..160).map(|_| s.next_structural()));
            (s, recs)
        };
        let (s, recs) = make();
        // The structural mix: 2 inserts, 2 deletes, 3 edge upserts and 1
        // edge delete per 8 records, all under one routing key.
        let count = |k: u8| STRUCTURE.iter().filter(|&&p| p == k).count();
        assert_eq!(
            (count(b'I'), count(b'D'), count(b'E'), count(b'X')),
            (2, 2, 3, 1)
        );
        assert!(recs[200..].iter().all(|r| r.key == STRUCTURE_KEY));
        assert!(recs[..200].iter().all(|r| r.key.starts_with('v')));
        // Live fresh vertices stay constant; sequence numbers rise.
        assert_eq!(s.fresh_hi - s.fresh_lo, 10);
        assert_eq!(s.fresh_lo, 40);
        assert!(recs.windows(2).all(|w| w[0].seq < w[1].seq));
        // The model holds the last update written to each base vertex.
        for v in 0..50 {
            let last = recs.iter().rev().find_map(|r| match &r.op {
                a1_core::Mutation::UpsertVertex { attrs, .. } if r.key == base_id(v) => {
                    attrs.get("rank").and_then(Json::as_i64)
                }
                _ => None,
            });
            assert_eq!(s.base[v].0, last.unwrap_or(0));
        }
        // Edges: the live set is the base set plus upserts minus deletes.
        let degrees: u64 = (0..50).map(|v| s.out_degree(v)).sum();
        assert_eq!(degrees as usize, s.edges.len());
        assert!(s.edges.len() > 100, "3 upserts per delete grow the set");
        // Same seed, same stream.
        assert_eq!(make().1, recs);
    }
}
