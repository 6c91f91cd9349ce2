//! Distributed query execution (paper §3.4, Fig. 9).
//!
//! The coordinator resolves the start vertex from the primary index, then
//! per hop: maps frontier pointers to their primary hosts (a local metadata
//! operation), ships batched operators to those machines over RPC, and
//! aggregates/dedups the returned pointers for the next hop. Workers join
//! the coordinator's snapshot timestamp so the whole distributed read is one
//! consistent snapshot. Oversized working sets fast-fail; oversized results
//! page out through continuation tokens.
//!
//! A hop overlaps its network waits from the coordinator's own thread —
//! FaRM's fibers (§2.2), modelled as post-then-wait rather than as a thread
//! parked per wait. Work ops big enough to ship are *posted* to their owners
//! and run on those machines' pools; everything the coordinator does not
//! ship runs meanwhile as **one** work op on the calling thread, whose
//! one-sided reads go out to every owner at once; then the replies are
//! collected in `MachineId` order. Inside a machine a batch splits into
//! morsels on that machine's own pool, but only when each morsel gets at
//! least [`MIN_MORSEL`] vertices — the level that saves a hub-skewed
//! frontier, where one machine owns most of the hop. Both levels merge in
//! input order, so results do not depend on how anything interleaves.

use crate::cache::{CachedVertex, VertexCache};
use crate::catalog::GraphProxies;
use crate::convert::json_to_value;
use crate::edges::{self, Dir};
use crate::error::{A1Error, A1Result};
use crate::model::TypeId;
use crate::query::plan::{AttrPredicate, CmpOp, PlanDir, Query, Select, VertexStep};
use crate::store::GraphStore;
use a1_bond::{Schema, Value};
use a1_farm::{Addr, FarmCluster, FarmResult, JobClass, MachineId, ObjBuf, ScopedJob, Txn};
use a1_json::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Execution knobs (paper defaults in parentheses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecConfig {
    /// Ship a per-machine batch of at least this many vertices as an RPC
    /// work op; smaller batches are fetched with one-sided reads from the
    /// coordinator (§3.4). Either way the same operators evaluate at the
    /// same snapshot timestamp, so this only moves where the reads happen.
    /// `usize::MAX` disables shipping.
    pub ship_threshold: usize,
    /// Fast-fail bound on the frontier size (§3.4).
    pub max_working_set: usize,
    /// Rows per page before continuation tokens kick in (§3.4).
    pub page_size: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            ship_threshold: 4,
            max_working_set: 1_000_000,
            page_size: 1_000,
        }
    }
}

/// Per-query counters — these regenerate the paper's §6 locality statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryMetrics {
    pub snapshot_ts: u64,
    pub hops: u32,
    pub vertices_read: u64,
    pub edges_visited: u64,
    /// FaRM objects read at a machine that is their primary host.
    pub local_reads: u64,
    /// FaRM objects read across the (simulated) wire.
    pub remote_reads: u64,
    pub rpcs: u64,
    /// Bytes of RPC request payload this query put on the wire (work-op
    /// ships; excludes the client↔coordinator hop).
    pub rpc_req_bytes: u64,
    /// Bytes of RPC reply payload shipped back to the coordinator.
    pub rpc_reply_bytes: u64,
    /// Frontier reads served from the machine-local hot-vertex cache after
    /// version revalidation (a header-sized probe instead of a payload
    /// transfer).
    pub cache_hits: u64,
    /// Frontier reads that consulted the cache and fell through to FaRM.
    pub cache_misses: u64,
    /// One-sided fetch posts (doorbell rings) this query's work ops issued:
    /// a scalar read or probe counts 1, a doorbell-coalesced batch counts 1
    /// per target machine regardless of how many objects it carried.
    pub fetch_verbs: u64,
}

impl QueryMetrics {
    pub fn objects_read(&self) -> u64 {
        self.local_reads + self.remote_reads
    }

    /// Hit rate of the hot-vertex cache for this query; `0.0` when the
    /// cache was never consulted.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// The §6 statistic: ≥95% with query shipping.
    pub fn local_read_fraction(&self) -> f64 {
        let total = self.objects_read();
        if total == 0 {
            return 1.0;
        }
        self.local_reads as f64 / total as f64
    }

    fn absorb(&mut self, other: &QueryMetrics) {
        self.vertices_read += other.vertices_read;
        self.edges_visited += other.edges_visited;
        self.local_reads += other.local_reads;
        self.remote_reads += other.remote_reads;
        self.rpcs += other.rpcs;
        self.rpc_req_bytes += other.rpc_req_bytes;
        self.rpc_reply_bytes += other.rpc_reply_bytes;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.fetch_verbs += other.fetch_verbs;
    }
}

/// Per-hop statistics (coordination phases, Fig. 9). Not serialized over
/// the client wire; available when calling the coordinator directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopStats {
    /// Frontier size entering this hop.
    pub frontier: u64,
    /// Distinct machines the frontier mapped to.
    pub machines: u64,
    pub rpcs: u64,
    pub vertices_read: u64,
    pub edges_visited: u64,
    pub local_reads: u64,
    pub remote_reads: u64,
    /// Vertices (or rows) returned to the coordinator.
    pub returned: u64,
    /// Wall-clock nanoseconds from partitioning the frontier to merging the
    /// last reply (the hop's critical path, including queueing).
    pub wall_ns: u64,
    /// Peak number of shipped work ops simultaneously in flight — posted
    /// and not yet collected (at most `machines`).
    pub max_concurrent_ships: u64,
    /// Total morsels this hop's work ops were split into across all target
    /// machines.
    pub morsels: u64,
    /// Peak number of morsels simultaneously executing inside any single
    /// work op (at most the machine's base worker-thread count).
    pub max_concurrent_morsels: u64,
    /// RPC request bytes this hop's ships put on the wire.
    pub rpc_req_bytes: u64,
    /// RPC reply bytes shipped back to the coordinator this hop.
    pub rpc_reply_bytes: u64,
    /// Hot-vertex cache hits across this hop's work ops.
    pub cache_hits: u64,
    /// Hot-vertex cache misses across this hop's work ops.
    pub cache_misses: u64,
    /// One-sided fetch posts this hop's work ops issued (see
    /// [`QueryMetrics::fetch_verbs`]).
    pub fetch_verbs: u64,
}

impl HopStats {
    fn absorb(&mut self, result: &WorkResult) {
        let m = &result.metrics;
        self.vertices_read += m.vertices_read;
        self.edges_visited += m.edges_visited;
        self.local_reads += m.local_reads;
        self.remote_reads += m.remote_reads;
        self.rpc_req_bytes += m.rpc_req_bytes;
        self.rpc_reply_bytes += m.rpc_reply_bytes;
        self.cache_hits += m.cache_hits;
        self.cache_misses += m.cache_misses;
        self.fetch_verbs += m.fetch_verbs;
        self.morsels += result.morsels;
        self.max_concurrent_morsels = self
            .max_concurrent_morsels
            .max(result.max_concurrent_morsels);
        self.returned += (result.next.len() + result.rows.len()) as u64;
    }
}

/// A query's outcome: rows (or a count) plus metrics and an optional
/// continuation token.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub rows: Vec<Json>,
    pub count: Option<u64>,
    pub metrics: QueryMetrics,
    pub continuation: Option<String>,
    /// Per-hop breakdown (empty when the outcome crossed the client wire).
    pub per_hop: Vec<HopStats>,
}

// ------------------------------------------------------------------ compile

/// A compiled (name-resolved) step.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStep {
    pub type_filter: Option<TypeId>,
    pub id_filter: Option<Addr>,
    pub preds: Vec<AttrPredicate>,
    pub matches: Vec<CompiledMatch>,
    pub traverse: Option<CompiledTraverse>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct CompiledMatch {
    pub dir: Dir,
    pub edge_type: TypeId,
    pub target: Option<Addr>,
    pub target_type: Option<TypeId>,
    pub preds: Vec<AttrPredicate>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTraverse {
    pub dir: Dir,
    pub edge_type: TypeId,
    pub edge_preds: Vec<AttrPredicate>,
}

/// A fully compiled query.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    pub steps: Vec<CompiledStep>,
    pub select: Select,
    pub limit: Option<usize>,
}

fn dir_of(d: PlanDir) -> Dir {
    match d {
        PlanDir::Out => Dir::Out,
        PlanDir::In => Dir::In,
    }
}

/// Resolve a primary key string against the graph's vertex types (optionally
/// constrained to one type), returning the vertex address.
fn resolve_id(
    store: &GraphStore,
    tx: &mut Txn,
    proxies: &GraphProxies,
    id: &str,
    ty: Option<&str>,
) -> A1Result<Option<Addr>> {
    for vp in &proxies.vertex_types {
        if let Some(t) = ty {
            if vp.def.name != t {
                continue;
            }
        }
        let pk_field = vp
            .def
            .schema
            .field(vp.def.primary_key)
            .ok_or_else(|| A1Error::Internal("pk field missing from schema".into()))?;
        let Ok(pk_value) = json_to_value(&Json::Str(id.to_string()), &pk_field.ty) else {
            continue;
        };
        if let Some(ptr) = store.vertex_by_pk(tx, vp, &pk_value)? {
            return Ok(Some(ptr.addr));
        }
    }
    Ok(None)
}

/// Compile a parsed query: resolve type names to ids and literal `id`
/// filters/match targets to vertex addresses.
pub fn compile(
    store: &GraphStore,
    tx: &mut Txn,
    proxies: &GraphProxies,
    q: &Query,
) -> A1Result<(CompiledQuery, Vec<Addr>)> {
    let mut steps = Vec::new();
    let mut cur: &VertexStep = &q.root;

    // Start resolution (paper: "we use the id field to look up the director
    // from the primary index").
    let frontier: Vec<Addr> = if let Some(id) = &cur.id {
        match resolve_id(store, tx, proxies, id, cur.vertex_type.as_deref())? {
            Some(addr) => vec![addr],
            None => Vec::new(),
        }
    } else if let (Some(tname), [pred]) = (&cur.vertex_type, &cur.predicates[..]) {
        // Secondary-index start: `{"_type": t, "attr": value}`.
        let vp = proxies
            .vertex_type(tname)
            .ok_or_else(|| A1Error::NoSuchType(tname.clone()))?;
        let field = vp
            .def
            .schema
            .field_by_name(&pred.attr)
            .ok_or_else(|| A1Error::Query(format!("unknown attribute '{}'", pred.attr)))?;
        if pred.op != CmpOp::Eq || pred.map_key.is_some() {
            return Err(A1Error::Query(
                "index start requires an equality predicate".into(),
            ));
        }
        let value = json_to_value(&pred.value, &field.ty)?;
        // LIMIT pushdown: a single filtered step whose only predicate the
        // index lookup consumes emits exactly one row per index hit, so the
        // scan itself can stop at `_limit` instead of materializing the
        // whole posting list. Counts and traversals still need every hit.
        let fetch = match q.final_limit() {
            Some(limit)
                if cur.traverse.is_none()
                    && cur.matches.is_empty()
                    && q.final_select() != Select::Count =>
            {
                limit
            }
            _ => usize::MAX,
        };
        store
            .vertices_by_secondary(tx, vp, field.id, &value, fetch)?
            .into_iter()
            .map(|p| p.addr)
            .collect()
    } else {
        return Err(A1Error::Query(
            "query needs an 'id' or an indexed predicate".into(),
        ));
    };

    loop {
        let type_filter = match &cur.vertex_type {
            Some(name) => Some(
                proxies
                    .vertex_type(name)
                    .ok_or_else(|| A1Error::NoSuchType(name.clone()))?
                    .def
                    .id,
            ),
            None => None,
        };
        // Nested `id` filters resolve to address identity checks.
        let id_filter = match (&cur.id, steps.is_empty()) {
            (Some(id), false) => resolve_id(store, tx, proxies, id, cur.vertex_type.as_deref())?,
            _ => None,
        };
        let matches = cur
            .matches
            .iter()
            .map(|m| {
                let edge_type = proxies
                    .edge_type(&m.edge_type)
                    .ok_or_else(|| A1Error::NoSuchType(m.edge_type.clone()))?
                    .def
                    .id;
                let target = match &m.target_id {
                    Some(id) => resolve_id(store, tx, proxies, id, m.target_type.as_deref())?,
                    None => None,
                };
                let target_type = match &m.target_type {
                    Some(name) => Some(
                        proxies
                            .vertex_type(name)
                            .ok_or_else(|| A1Error::NoSuchType(name.clone()))?
                            .def
                            .id,
                    ),
                    None => None,
                };
                // A match with an unresolvable literal id can never succeed.
                if m.target_id.is_some() && target.is_none() {
                    return Ok(CompiledMatch {
                        dir: dir_of(m.dir),
                        edge_type,
                        target: Some(Addr::NULL),
                        target_type,
                        preds: m.target_predicates.clone(),
                    });
                }
                Ok(CompiledMatch {
                    dir: dir_of(m.dir),
                    edge_type,
                    target,
                    target_type,
                    preds: m.target_predicates.clone(),
                })
            })
            .collect::<A1Result<Vec<_>>>()?;
        let traverse = match &cur.traverse {
            Some(t) => Some(CompiledTraverse {
                dir: dir_of(t.dir),
                edge_type: proxies
                    .edge_type(&t.edge_type)
                    .ok_or_else(|| A1Error::NoSuchType(t.edge_type.clone()))?
                    .def
                    .id,
                edge_preds: t.edge_predicates.clone(),
            }),
            None => None,
        };
        steps.push(CompiledStep {
            type_filter,
            id_filter,
            preds: cur.predicates.clone(),
            matches,
            traverse,
        });
        match &cur.traverse {
            Some(t) => cur = &t.step,
            None => break,
        }
    }
    // Index-start predicates were consumed by the index lookup.
    if q.root.id.is_none() {
        steps[0].preds.clear();
    }

    Ok((
        CompiledQuery {
            steps,
            select: q.final_select(),
            limit: q.final_limit(),
        },
        frontier,
    ))
}

// ----------------------------------------------------------------- evaluate

/// Evaluate one predicate against a record (schema-directed coercion of the
/// literal). List attributes match if *any* element matches (knowledge-graph
/// `name` lists).
pub fn eval_predicate(schema: &Schema, rec: &a1_bond::Record, pred: &AttrPredicate) -> bool {
    let Some(field) = schema.field_by_name(&pred.attr) else {
        return false;
    };
    let Some(actual) = rec.get(field.id) else {
        return false;
    };
    let actual = match (&pred.map_key, actual) {
        (Some(k), v) => match v.map_get(k) {
            Some(inner) => inner,
            None => return false,
        },
        (None, v) => v,
    };
    eval_cmp(actual, pred.op, &pred.value)
}

fn eval_cmp(actual: &Value, op: CmpOp, literal: &Json) -> bool {
    // List containment: any element satisfying the comparison.
    if let Value::List(items) = actual {
        return items.iter().any(|item| eval_cmp(item, op, literal));
    }
    let Some(lit) = coerce_like(actual, literal) else {
        return false;
    };
    let Some(ord) = actual.compare(&lit) else {
        return false;
    };
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => !ord.is_eq(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
    }
}

/// Coerce a JSON literal to the same Bond type as `like`.
fn coerce_like(like: &Value, j: &Json) -> Option<Value> {
    let ty = match like {
        Value::Bool(_) => a1_bond::BondType::Bool,
        Value::Int32(_) => a1_bond::BondType::Int32,
        Value::Int64(_) => a1_bond::BondType::Int64,
        Value::UInt64(_) => a1_bond::BondType::UInt64,
        Value::Double(_) => a1_bond::BondType::Double,
        Value::String(_) => a1_bond::BondType::String,
        Value::Date(_) => a1_bond::BondType::Date,
        Value::Blob(_) => a1_bond::BondType::Blob,
        Value::List(_) | Value::Map(_) => return None,
    };
    json_to_value(j, &ty).ok()
}

// ------------------------------------------------------------------- worker

/// The operator bundle shipped to a worker for one (machine, hop) batch.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkOp {
    pub tenant: String,
    pub graph: String,
    pub snapshot_ts: u64,
    pub vertices: Vec<Addr>,
    pub step: CompiledStep,
    /// Emit surviving addresses (traversal result) or full rows (final hop).
    pub emit_rows: bool,
    pub select: Select,
    /// Skip the hot-vertex cache for this op (per-client bypass). Stamped by
    /// the coordinator so shipped ops bypass at the remote machine too.
    pub cache_bypass: bool,
}

/// What a worker sends back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkResult {
    pub next: Vec<Addr>,
    pub rows: Vec<(Addr, Json)>,
    pub metrics: QueryMetrics,
    /// How many morsels the batch was split into.
    pub morsels: u64,
    /// Peak number of those morsels executing simultaneously.
    pub max_concurrent_morsels: u64,
}

/// Per-work-op memo of neighbor reads for match-pattern evaluation. A hub
/// target vertex (the common case in the paper's knowledge-graph workloads)
/// is referenced by many frontier vertices in the same batch; without the
/// memo its header + record are re-read — with remote latency when the hub
/// lives elsewhere — once per *source* vertex instead of once per batch.
/// Shared across the batch's morsels; values are snapshot reads at the
/// work op's `snapshot_ts`, so concurrent fills observe identical bytes.
/// Two stages, mirroring the uncached evaluation order: headers fill on
/// first touch (`None` = the vertex was *definitively* gone — deleted under
/// us), records fill only for neighbors that pass the pattern's type filter
/// (a type-mismatched hub never pays a payload read). Records are `Arc`'d
/// so a memo hit is a pointer clone, not a deep copy of a hub's payload
/// under the shared lock. Transient read errors are never cached — one
/// conflicted read must not poison every later evaluation of that neighbor
/// in the batch.
#[derive(Default)]
struct NeighborMemo {
    headers: parking_lot::Mutex<HashMap<Addr, Option<crate::vertex::VertexHeader>>>,
    records: parking_lot::Mutex<HashMap<Addr, Arc<a1_bond::Record>>>,
}

/// Fewest vertices a morsel must get before a batch is split at all: a
/// batch of `n` runs as `min(workers, n / MIN_MORSEL)` morsels, so nothing
/// under twice this splits. Below it the hand-off to another thread (and the
/// second transaction, memo and set of posts, which make a destination
/// straddling the cut pay twice) costs more than the overlap returns. Chosen
/// from a sweep of 16 / 32 / 64 / 128 on the canonical benchmark's `kg_read`
/// and `uniform_cold` (CHANGES.md, PR 19).
pub const MIN_MORSEL: usize = 128;

/// Execute a worker operator batch: predicate evaluation and edge
/// enumeration at (ideally) the vertices' home machine (§3.4).
///
/// A batch big enough ([`MIN_MORSEL`]) is split into up to one morsel per
/// simulated core (the machine's base worker-thread count) dispatched
/// concurrently onto `pool` — the target machine's own worker pool. Each
/// morsel runs in its own read-only transaction pinned at the shared
/// `op.snapshot_ts` (snapshot reads are safe to run concurrently) and
/// results merge in input order, so the outcome does not depend on the
/// interleaving. Runs as a single morsel on the calling thread otherwise,
/// or when `pool` is absent or already saturated (a fast path — progress
/// under saturation is guaranteed structurally by `run_all`'s help-first
/// join, which drains queued jobs onto the waiting caller).
pub fn run_work_op(
    farm: &Arc<FarmCluster>,
    store: &GraphStore,
    proxies: &GraphProxies,
    machine: MachineId,
    op: &WorkOp,
    cache: Option<&VertexCache>,
    pool: Option<&a1_farm::WorkerPool>,
) -> A1Result<WorkResult> {
    let cache = cache.filter(|_| !op.cache_bypass);
    let memo = NeighborMemo::default();
    let workers = farm.config().fabric.threads_per_machine.max(1);
    let morsels = workers.min(op.vertices.len() / MIN_MORSEL).max(1);
    let pool = pool.filter(|p| morsels > 1 && !p.is_saturated());
    let Some(pool) = pool else {
        let mut result = run_morsel(
            farm,
            store,
            proxies,
            machine,
            op,
            &op.vertices,
            &memo,
            cache,
        )?;
        result.morsels = 1;
        result.max_concurrent_morsels = 1;
        return Ok(result);
    };

    let chunk = op.vertices.len().div_ceil(morsels);
    let parts: Vec<&[Addr]> = op.vertices.chunks(chunk).collect();
    let in_flight = AtomicU64::new(0);
    let peak = AtomicU64::new(0);
    let jobs: Vec<ScopedJob<'_, A1Result<WorkResult>>> = parts
        .iter()
        .map(|part| {
            let part: &[Addr] = part;
            let (memo, in_flight, peak) = (&memo, &in_flight, &peak);
            Box::new(move || {
                let cur = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(cur, Ordering::SeqCst);
                let r = run_morsel(farm, store, proxies, machine, op, part, memo, cache);
                in_flight.fetch_sub(1, Ordering::SeqCst);
                r
            }) as ScopedJob<'_, A1Result<WorkResult>>
        })
        .collect();
    let n_morsels = jobs.len() as u64;
    let results = pool.run_all_class(JobClass::Morsel, jobs);

    // Merge in input order: morsels are contiguous slices of `op.vertices`,
    // so concatenating their outputs reproduces the batch's vertex order
    // whatever order they ran in. Errors surface in input order too.
    let mut merged = WorkResult {
        morsels: n_morsels,
        max_concurrent_morsels: peak.load(Ordering::SeqCst),
        ..WorkResult::default()
    };
    for (_slot, result) in results.into_iter().enumerate() {
        let result = result?;
        #[cfg(debug_assertions)]
        let result = seeded_bug::apply(_slot, result);
        merged.next.extend(result.next);
        merged.rows.extend(result.rows);
        merged.metrics.absorb(&result.metrics);
    }
    Ok(merged)
}

/// A merge bug the simulation's mutation test (`crates/sim/tests/mutation.rs`)
/// switches on to prove the scenario oracles reach the morsel merge. Exists
/// only in builds with debug assertions: release builds carry neither the
/// flag nor the check.
#[cfg(debug_assertions)]
#[doc(hidden)]
pub mod seeded_bug {
    use super::WorkResult;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// While set, every morsel merge loses its second morsel's traversal
    /// output.
    pub static DROP_SECOND_MORSEL_NEXT: AtomicBool = AtomicBool::new(false);

    pub(super) fn apply(slot: usize, mut result: WorkResult) -> WorkResult {
        if slot == 1 && DROP_SECOND_MORSEL_NEXT.load(Ordering::SeqCst) {
            result.next.clear();
        }
        result
    }
}

/// Revalidate a cache entry against the live FaRM version word: serve it
/// only if a HEADER-only probe of the vertex's header object returns
/// *exactly* the version the entry was filled at. One probe covers the
/// whole entry because every vertex mutation — record update (in place or
/// reallocated), edge insert/remove, delete — rewrites the header object
/// and therefore moves its version ([`GraphStore::update_vertex`] rewrites
/// it even for fitting in-place data updates to keep this invariant). An
/// unchanged header version means the cached header *and* record are the
/// current committed state; since the entry's versions are ≤ the reader's
/// snapshot (`lookup` filtered), they are exactly what a snapshot read
/// would return. Any probe failure is a miss: a freed or
/// migrated-and-reused block probes as `NotFound` or a different version
/// and therefore can never fabricate a read.
///
/// [`GraphStore::update_vertex`]: crate::store::GraphStore::update_vertex
fn revalidate_hit(
    tx: &mut Txn,
    addr: Addr,
    entry: &CachedVertex,
    need_record: bool,
) -> Option<(crate::vertex::VertexHeader, Option<Arc<a1_bond::Record>>)> {
    let h = tx.probe_version(addr).ok()?;
    if h.version != entry.hdr_version {
        return None;
    }
    if !need_record || entry.hdr.data.is_null() {
        return Some((entry.hdr, None));
    }
    // Header-only entry but the record is needed: treat as a miss so the
    // normal read path refills the entry with its record.
    let rec = entry.record.clone()?;
    Some((entry.hdr, Some(rec)))
}

/// [`revalidate_hit`] against a doorbell-batched prefetch slot instead of a
/// fresh scalar probe. Both response shapes carry the header object's FaRM
/// version word — a [`FetchResp::Hdr`] directly, a [`FetchResp::Obj`] via
/// `ObjBuf::version` (the prefetch phase requests a full header read when it
/// already knows the entry cannot serve, e.g. a header-only entry when the
/// record is needed) — so the validity rule is identical to the scalar
/// probe's. Any error slot is a miss, like a failed scalar probe.
fn revalidate_prefetched(
    resp: &a1_farm::FarmResult<a1_farm::FetchResp>,
    entry: &CachedVertex,
    need_record: bool,
) -> Option<(crate::vertex::VertexHeader, Option<Arc<a1_bond::Record>>)> {
    let version = match resp {
        Ok(a1_farm::FetchResp::Hdr(h)) => h.version,
        Ok(a1_farm::FetchResp::Obj(b)) => b.version,
        Err(_) => return None,
    };
    if version != entry.hdr_version {
        return None;
    }
    if !need_record || entry.hdr.data.is_null() {
        return Some((entry.hdr, None));
    }
    let rec = entry.record.clone()?;
    Some((entry.hdr, Some(rec)))
}

/// Round one's requests for a morsel: one slot per *distinct* address that
/// passes the step's id filter — a header-sized revalidation probe where
/// `probe` says the cache can serve the vertex, a full header read
/// otherwise. Returns each address's slot and the requests in slot order.
fn head_requests(
    vertices: &[Addr],
    id_filter: Option<Addr>,
    mut probe: impl FnMut(Addr) -> bool,
) -> (HashMap<Addr, usize>, Vec<a1_farm::FetchReq>) {
    let mut slot_of = HashMap::with_capacity(vertices.len());
    let mut reqs = Vec::with_capacity(vertices.len());
    for &addr in vertices {
        if id_filter.is_some_and(|idf| addr != idf) {
            continue;
        }
        let slot = reqs.len();
        if *slot_of.entry(addr).or_insert(slot) != slot {
            continue; // rare dup in a hand-built op: the first slot serves it
        }
        reqs.push(if probe(addr) {
            a1_farm::FetchReq::Probe(addr)
        } else {
            a1_farm::FetchReq::Read(crate::vertex::vertex_ptr(addr))
        });
    }
    (slot_of, reqs)
}

/// A vertex that passed the step's id, type and attribute filters, with what
/// the rest of the step needs of it.
struct Survivor<'a> {
    addr: Addr,
    hdr: crate::vertex::VertexHeader,
    vp: Option<&'a Arc<crate::catalog::VertexProxy>>,
    rec: Option<Arc<a1_bond::Record>>,
}

/// One morsel of a work op: a contiguous slice of the batch, in its own
/// read-only transaction joined to the op's snapshot.
///
/// A morsel of more than one vertex front-loads its fetches into
/// doorbell-coalesced posts — per round, one doorbell per target machine,
/// all of them in flight together — instead of one verb per object. Round
/// one carries every vertex's header read or cache-revalidation probe,
/// round two the surviving vertices' record reads, round three the inline
/// edge-list objects of the vertices that passed every filter and go on to
/// traverse or evaluate a match pattern. The per-vertex code consumes the
/// prefetched slots, falling back to the scalar read for anything a round
/// could not serve (probe invalidated by churn, concurrent cache fill), so
/// a wrong prefetch guess costs a verb, never an answer. B-tree-backed edge
/// lists, per-edge data blocks and match-pattern neighbor reads stay
/// scalar: they are pointer-chasing whose addresses are unknown until the
/// object before them is in hand, and under query shipping they are
/// machine-local anyway.
#[allow(clippy::too_many_arguments)]
fn run_morsel(
    farm: &Arc<FarmCluster>,
    store: &GraphStore,
    proxies: &GraphProxies,
    machine: MachineId,
    op: &WorkOp,
    vertices: &[Addr],
    memo: &NeighborMemo,
    cache: Option<&VertexCache>,
) -> A1Result<WorkResult> {
    use crate::vertex::VertexHeader;
    use a1_farm::FetchResp;

    let mut tx = farm.begin_read_only_at(machine, op.snapshot_ts);
    let mut result = WorkResult::default();
    let mut evictions = 0u64;
    let count_read = |metrics: &mut QueryMetrics, addr: Addr| {
        if farm.primary_of(addr) == Some(machine) {
            metrics.local_reads += 1;
        } else {
            metrics.remote_reads += 1;
        }
    };
    let need_rec = !op.step.preds.is_empty() || op.emit_rows;
    let batched = vertices.len() > 1;

    // Prefetch round one: every vertex's header — a full read on a cache
    // miss, a header-sized revalidation probe on a hit (or a full read when
    // the entry cannot serve this shape of read, saving the probe-then-read
    // double verb the scalar path pays).
    let mut head_slot: HashMap<Addr, usize> = HashMap::new();
    let mut heads: Vec<Option<FarmResult<FetchResp>>> = Vec::new();
    if batched {
        let (slot_of, reqs) = head_requests(vertices, op.step.id_filter, |addr| {
            cache
                .and_then(|c| c.lookup(addr, op.snapshot_ts))
                .is_some_and(|e| !(need_rec && e.record.is_none() && !e.hdr.data.is_null()))
        });
        head_slot = slot_of;
        heads = tx.fetch_many(&reqs).into_iter().map(Some).collect();
    }

    // Prefetch round two: data records for vertices whose prefetched header
    // survives this op's type filter and needs a payload. Conditions mirror
    // the consuming loop exactly; a wrong guess (concurrent cache churn)
    // only costs a fallback scalar read, never a wrong answer.
    let mut pre_rec: HashMap<Addr, FarmResult<ObjBuf>> = HashMap::new();
    if batched && need_rec {
        let mut rec_ptrs: Vec<a1_farm::Ptr> = Vec::new();
        for &addr in vertices {
            let Some(res) = head_slot.get(&addr).and_then(|&s| heads[s].as_ref()) else {
                continue;
            };
            let (hdr, have_rec) = match res {
                Ok(FetchResp::Obj(buf)) => match VertexHeader::decode(buf.data()) {
                    Ok(h) => (h, false),
                    Err(_) => continue,
                },
                Ok(FetchResp::Hdr(h)) => match cache.and_then(|c| c.lookup(addr, op.snapshot_ts)) {
                    Some(e) if e.hdr_version == h.version => (e.hdr, e.record.is_some()),
                    _ => continue,
                },
                Err(_) => continue,
            };
            if have_rec || hdr.data.is_null() {
                continue;
            }
            if matches!(op.step.type_filter, Some(tf) if hdr.type_id != tf) {
                continue;
            }
            if proxies.vertex_type_by_id(hdr.type_id).is_none() {
                continue;
            }
            rec_ptrs.push(hdr.data);
        }
        if !rec_ptrs.is_empty() {
            for (p, res) in rec_ptrs.iter().zip(tx.read_many(&rec_ptrs)) {
                pre_rec.insert(p.addr, res);
            }
        }
    }

    // Filter: header, type and attribute predicates — everything that
    // decides whether a vertex survives before its edges are looked at.
    let mut survivors: Vec<Survivor<'_>> = Vec::with_capacity(vertices.len());
    'vertices: for &addr in vertices {
        if let Some(idf) = op.step.id_filter {
            if addr != idf {
                continue;
            }
        }
        let head = head_slot.get(&addr).map(|&s| &mut heads[s]);

        // Cross-query cache first: a revalidated hit replaces the header (and
        // payload) transfer with header-sized version probes.
        let mut served: Option<(VertexHeader, Option<Arc<a1_bond::Record>>)> = None;
        if let Some(c) = cache {
            if let Some(entry) = c.lookup(addr, op.snapshot_ts) {
                served = match head.as_deref() {
                    Some(Some(resp)) => revalidate_prefetched(resp, &entry, need_rec),
                    _ => revalidate_hit(&mut tx, addr, &entry, need_rec),
                };
                if served.is_none() {
                    // The entry no longer matches live memory (or can't
                    // serve this shape of read): drop it so it stops costing
                    // probes.
                    c.invalidate(addr);
                }
            }
        }

        // `hdr_version` is non-zero only on the miss path (cache fills must
        // know the version word the header was read at).
        let mut hdr_version = 0u64;
        let (hdr, served_rec) = match served {
            Some((h, r)) => {
                result.metrics.cache_hits += 1;
                result.metrics.vertices_read += 1;
                // The payload came from machine-local cache memory; only
                // header-sized probes touched the fabric.
                result.metrics.local_reads += 1;
                if let Some(c) = cache {
                    c.note_hit();
                }
                (h, r)
            }
            None => {
                if let Some(c) = cache {
                    result.metrics.cache_misses += 1;
                    c.note_miss();
                }
                // Consume the prefetched header; error mapping mirrors
                // `edges::read_header`. A `Hdr` slot (the prefetch probed a
                // cache entry that has since been invalidated) cannot serve
                // a full header, so it falls back to the scalar read — same
                // as the scalar path's probe-then-read sequence.
                let (version, hdr) = match head.and_then(Option::take) {
                    Some(Ok(FetchResp::Obj(buf))) => {
                        let hdr = VertexHeader::decode(buf.data())?;
                        (buf.version, hdr)
                    }
                    Some(Err(a1_farm::FarmError::NotFound(_))) => continue, // deleted under us
                    Some(Err(e)) => return Err(e.into()),
                    Some(Ok(FetchResp::Hdr(_))) | None => {
                        match edges::read_header(&mut tx, addr) {
                            Ok((buf, hdr)) => (buf.version, hdr),
                            Err(A1Error::NoSuchVertex(_)) => continue, // deleted under us
                            Err(e) => return Err(e),
                        }
                    }
                };
                hdr_version = version;
                result.metrics.vertices_read += 1;
                count_read(&mut result.metrics, addr);
                (hdr, None)
            }
        };
        // Fill the header before any filter can `continue` past it — a hot
        // vertex that fails this op's type filter is still hot for others.
        if let Some(c) = cache {
            if hdr_version != 0 {
                evictions += c.insert(
                    addr,
                    CachedVertex {
                        hdr,
                        hdr_version,
                        data_version: 0,
                        record: None,
                    },
                );
            }
        }
        if let Some(tf) = op.step.type_filter {
            if hdr.type_id != tf {
                continue;
            }
        }
        let vp = proxies.vertex_type_by_id(hdr.type_id);

        // Vertex attribute predicates.
        let mut rec: Option<Arc<a1_bond::Record>> = served_rec;
        if need_rec {
            let Some(vp) = vp else { continue };
            if rec.is_none() && !hdr.data.is_null() {
                // Prefetched record slot first (round two); scalar read for
                // anything the prefetch could not anticipate. Decoding and
                // error propagation mirror `read_vertex_data_versioned`.
                let fetched = match pre_rec.remove(&hdr.data.addr) {
                    Some(Ok(buf)) => {
                        let r = a1_bond::decode_record(buf.data())
                            .map_err(|e| A1Error::Internal(e.to_string()))?;
                        Some((buf.version, r))
                    }
                    Some(Err(e)) => return Err(e.into()),
                    None => store.read_vertex_data_versioned(&mut tx, &hdr)?,
                };
                if let Some((data_version, r)) = fetched {
                    count_read(&mut result.metrics, hdr.data.addr);
                    let r = Arc::new(r);
                    rec = Some(r.clone());
                    // Upgrade the entry with the record. Filling from a
                    // read the old-version store served is safe but inert:
                    // live memory has moved past the entry's version words,
                    // so it can never revalidate and simply ages out.
                    if let Some(c) = cache {
                        if hdr_version != 0 {
                            evictions += c.insert(
                                addr,
                                CachedVertex {
                                    hdr,
                                    hdr_version,
                                    data_version,
                                    record: Some(r),
                                },
                            );
                        }
                    }
                }
            }
            let empty = a1_bond::Record::new();
            let r = rec.as_deref().unwrap_or(&empty);
            for pred in &op.step.preds {
                if !eval_predicate(&vp.def.schema, r, pred) {
                    continue 'vertices;
                }
            }
        }
        survivors.push(Survivor { addr, hdr, vp, rec });
    }

    // Prefetch round three: the inline edge-list objects the survivors are
    // about to enumerate, in every direction this step's match patterns and
    // traversal look. Every list in a typical graph is inline (§3.2: 99.9 %
    // of vertices stay under the spill threshold), so this turns a scalar
    // read per vertex into a doorbell per owner.
    let mut lists: HashMap<Addr, FarmResult<ObjBuf>> = HashMap::new();
    if batched {
        let looks = |d: Dir| {
            op.step.matches.iter().any(|m| m.dir == d)
                || op.step.traverse.as_ref().is_some_and(|t| t.dir == d)
        };
        let list_ptrs: Vec<a1_farm::Ptr> = [Dir::Out, Dir::In]
            .into_iter()
            .filter(|&d| looks(d))
            .flat_map(|d| {
                survivors
                    .iter()
                    .filter_map(move |s| edges::inline_list_ptr(&s.hdr, d))
            })
            .collect();
        if !list_ptrs.is_empty() {
            for (p, res) in list_ptrs.iter().zip(tx.read_many(&list_ptrs)) {
                lists.insert(p.addr, res);
            }
        }
    }
    // `edges::enumerate`, served from round three where it can be: an empty
    // or B-tree-backed list, or a slot the prefetch could not serve, takes
    // the scalar path (which re-raises a real error).
    let enumerate =
        |tx: &mut Txn, s: &Survivor<'_>, dir: Dir, ty: TypeId| match edges::inline_list_ptr(
            &s.hdr, dir,
        )
        .and_then(|p| lists.get(&p.addr))
        {
            Some(Ok(list)) => edges::enumerate_inline(list, Some(ty), usize::MAX),
            _ => edges::enumerate(
                tx,
                &proxies.graph.edge_tree,
                s.addr,
                &s.hdr,
                dir,
                Some(ty),
                usize::MAX,
            ),
        };

    'survivors: for s in &survivors {
        // Match patterns (star queries, Q3): every pattern must have at
        // least one satisfying edge.
        for m in &op.step.matches {
            let hes = enumerate(&mut tx, s, m.dir, m.edge_type)?;
            result.metrics.edges_visited += hes.len() as u64;
            count_read(&mut result.metrics, s.addr);
            let mut ok = false;
            for he in &hes {
                if let Some(target) = m.target {
                    if he.other == target {
                        ok = true;
                        break;
                    }
                    continue;
                }
                // Predicate-based target: read the neighbor — through the
                // per-batch memo, so a hub target shared by many frontier
                // vertices costs one header+record read per batch. The lock
                // is dropped across the (possibly remote) read so morsels
                // filling different entries still overlap; a rare racing
                // double-fill reads identical snapshot bytes.
                let cached = memo.headers.lock().get(&he.other).copied();
                let ohdr = match cached {
                    Some(h) => h,
                    None => {
                        let h = match edges::read_header(&mut tx, he.other) {
                            Ok((_, ohdr)) => {
                                count_read(&mut result.metrics, he.other);
                                Some(ohdr)
                            }
                            // Deleted under us: definitively absent at this
                            // snapshot, safe to memoize for the batch.
                            Err(A1Error::NoSuchVertex(_)) => None,
                            // Transient failure (e.g. a lock-wait conflict):
                            // skip this evaluation — as the pre-memo code
                            // did — but do NOT cache it, or one flaky read
                            // would fail the pattern for every later source
                            // vertex sharing this neighbor.
                            Err(_) => continue,
                        };
                        memo.headers.lock().insert(he.other, h);
                        h
                    }
                };
                let Some(ohdr) = ohdr else { continue };
                if let Some(tt) = m.target_type {
                    if ohdr.type_id != tt {
                        continue;
                    }
                }
                let Some(ovp) = proxies.vertex_type_by_id(ohdr.type_id) else {
                    continue;
                };
                // The record, read only past the type filter (like the
                // uncached path) — its errors still abort the op.
                let cached = memo.records.lock().get(&he.other).cloned();
                let orec = match cached {
                    Some(r) => r,
                    None => {
                        let r =
                            Arc::new(store.read_vertex_data(&mut tx, &ohdr)?.unwrap_or_default());
                        memo.records.lock().insert(he.other, r.clone());
                        r
                    }
                };
                if m.preds
                    .iter()
                    .all(|p| eval_predicate(&ovp.def.schema, orec.as_ref(), p))
                {
                    ok = true;
                    break;
                }
            }
            if !ok {
                continue 'survivors;
            }
        }

        // Traversal: enumerate half-edges to the next hop.
        if let Some(t) = &op.step.traverse {
            let hes = enumerate(&mut tx, s, t.dir, t.edge_type)?;
            result.metrics.edges_visited += hes.len() as u64;
            count_read(&mut result.metrics, s.addr);
            for he in hes {
                if !t.edge_preds.is_empty() {
                    let Some(ep) = proxies.edge_type_by_id(t.edge_type) else {
                        continue;
                    };
                    let erec = if he.data.is_null() {
                        a1_bond::Record::new()
                    } else {
                        count_read(&mut result.metrics, he.data.addr);
                        let buf = tx.read(he.data)?;
                        a1_bond::decode_record(buf.data())
                            .map_err(|e| A1Error::Internal(e.to_string()))?
                    };
                    if !t
                        .edge_preds
                        .iter()
                        .all(|p| eval_predicate(&ep.def.schema, &erec, p))
                    {
                        continue;
                    }
                }
                result.next.push(he.other);
            }
        }

        // Row emission at the final hop.
        if op.emit_rows {
            let Some(vp) = s.vp else { continue };
            let row = render_row(&vp.def.schema, &vp.def.name, s.rec.as_deref(), &op.select);
            result.rows.push((s.addr, row));
        } else if op.step.traverse.is_none() {
            // Terminal filter step (e.g. a count): emit the survivors.
            result.next.push(s.addr);
        }
    }
    result.metrics.fetch_verbs = tx.fetch_verbs();
    if cache.is_some() {
        let fm = farm.fabric().metrics();
        fm.add(&fm.cache_hits, result.metrics.cache_hits);
        fm.add(&fm.cache_misses, result.metrics.cache_misses);
        fm.add(&fm.cache_evictions, evictions);
    }
    Ok(result)
}

fn render_row(
    schema: &Schema,
    type_name: &str,
    rec: Option<&a1_bond::Record>,
    select: &Select,
) -> Json {
    match select {
        Select::All | Select::Count => {
            let full = match rec {
                Some(r) => crate::convert::record_to_json(schema, r),
                None => Json::Obj(Vec::new()),
            };
            let mut obj = vec![("_type".to_string(), Json::str(type_name))];
            if let Json::Obj(fields) = full {
                obj.extend(fields);
            }
            Json::Obj(obj)
        }
        Select::Fields(fields) => {
            // Project only the selected attributes: converting the full
            // record to JSON and cloning per field would pay for every
            // attribute (hub payloads are the big ones) on every row.
            let mut obj = Vec::with_capacity(fields.len());
            for f in fields {
                let v = rec
                    .and_then(|r| schema.field_by_name(&f.attr).and_then(|fd| r.get(fd.id)))
                    .map(crate::convert::value_to_json)
                    .unwrap_or(Json::Null);
                let v = match f.index {
                    Some(i) => v.at(i).cloned().unwrap_or(Json::Null),
                    None => v,
                };
                let name = match f.index {
                    Some(i) => format!("{}[{}]", f.attr, i),
                    None => f.attr.clone(),
                };
                obj.push((name, v));
            }
            Json::Obj(obj)
        }
    }
}

// -------------------------------------------------------------- coordinator

/// A shipped [`WorkOp`] whose request is on the wire: call it to block for
/// the reply and get the [`WorkResult`].
pub type PendingShip<'a> = Box<dyn FnOnce() -> A1Result<WorkResult> + 'a>;

/// Ship callback: *post* a [`WorkOp`] to a remote machine and return at
/// once, handing back the wait half. Provided by the server layer (fabric
/// RPC + the configured wire format). The coordinator posts all of a wave's
/// ships from its own thread, works on its local op while they execute, and
/// only then collects.
pub type ShipFn<'a> = dyn Fn(MachineId, &WorkOp) -> A1Result<PendingShip<'a>> + 'a;

/// The coordinator's environment: everything about *where* a query runs, as
/// opposed to *what* runs (which stays in [`coordinate`]'s own parameters).
pub struct Coordinator<'a> {
    pub farm: &'a Arc<FarmCluster>,
    pub store: &'a GraphStore,
    pub proxies: &'a GraphProxies,
    pub machine: MachineId,
    pub cfg: &'a ExecConfig,
    /// The coordinator machine's hot-vertex cache, used by inline (unshipped)
    /// work ops; shipped ops use the target machine's own cache.
    pub cache: Option<&'a VertexCache>,
    /// Per-client cache bypass: stamped onto every [`WorkOp`] so shipped ops
    /// bypass at remote machines too.
    pub cache_bypass: bool,
}

/// Coordinate a compiled query (paper Fig. 9). Per hop the frontier is
/// partitioned by owner; every part big enough to ship is posted to its
/// owner, every other part — the coordinator's own and the sub-threshold
/// ones — is coalesced into one work op that runs on the calling thread
/// while the ships execute, and the results are merged in `MachineId` order,
/// so they do not depend on which reply lands first.
pub fn coordinate(
    coord: &Coordinator<'_>,
    tenant: &str,
    graph: &str,
    compiled: &CompiledQuery,
    initial_frontier: Vec<Addr>,
    snapshot_ts: u64,
    ship: &ShipFn<'_>,
) -> A1Result<QueryOutcome> {
    let Coordinator {
        farm,
        store,
        proxies,
        machine,
        cfg,
        cache,
        cache_bypass,
    } = *coord;
    let mut metrics = QueryMetrics {
        snapshot_ts,
        hops: compiled.steps.len().saturating_sub(1) as u32,
        ..QueryMetrics::default()
    };
    let mut frontier = dedup_addrs(initial_frontier);
    let mut rows: Vec<(Addr, Json)> = Vec::new();
    let mut per_hop: Vec<HopStats> = Vec::new();
    let pool = farm
        .fabric()
        .machine(machine)
        .map_err(|e| A1Error::Internal(format!("coordinator machine: {e}")))?
        .pool();

    for (i, step) in compiled.steps.iter().enumerate() {
        let is_last = i == compiled.steps.len() - 1;
        let emit_rows = is_last && compiled.select != Select::Count;
        if frontier.is_empty() {
            break;
        }
        if frontier.len() > cfg.max_working_set {
            return Err(A1Error::WorkingSetExceeded {
                limit: cfg.max_working_set,
            });
        }
        let hop_start = Instant::now();

        // Partition (Fig. 9): group pointers by primary host — a purely
        // local metadata operation. Batches are ordered by MachineId so both
        // dispatch and merge are deterministic.
        let mut by_machine: HashMap<MachineId, Vec<Addr>> = HashMap::new();
        for addr in frontier.drain(..) {
            let host = farm
                .primary_of(addr)
                .ok_or_else(|| A1Error::Internal("unplaced address".into()))?;
            by_machine.entry(host).or_default().push(addr);
        }
        let mut batches: Vec<(MachineId, Vec<Addr>)> = by_machine.into_iter().collect();
        batches.sort_unstable_by_key(|(host, _)| *host);

        let mut hop = HopStats {
            frontier: batches.iter().map(|(_, v)| v.len() as u64).sum(),
            machines: batches.len() as u64,
            ..HopStats::default()
        };

        // On the final row-emitting hop of a LIMIT query, slice batches to
        // the limit so the coordinator can stop dispatching as soon as
        // enough rows are in hand instead of reading the whole frontier.
        // Slicing is lazy — a cursor over the per-machine batches — so the
        // (possibly huge) tail that early termination skips is never
        // materialized.
        let row_limit = if emit_rows { compiled.limit } else { None };
        let chunk_size = row_limit.map(|l| l.max(1));
        let mut batch_idx = 0usize;
        let mut batch_off = 0usize;
        let mut next_part = || -> Option<(MachineId, Vec<Addr>, bool)> {
            while batch_idx < batches.len() {
                let (host, vertices) = &mut batches[batch_idx];
                let host = *host;
                let len = vertices.len();
                if batch_off >= len {
                    batch_idx += 1;
                    batch_off = 0;
                    continue;
                }
                let end = chunk_size.map_or(len, |c| (batch_off + c).min(len));
                // A whole-batch chunk (the common, no-LIMIT case) moves the
                // Vec instead of copying it.
                let part = if batch_off == 0 && end == len {
                    std::mem::take(vertices)
                } else {
                    vertices[batch_off..end].to_vec()
                };
                // The ship-vs-fetch decision (§3.4), taken per (possibly
                // LIMIT-sliced) part.
                let is_ship = host != machine && part.len() >= cfg.ship_threshold;
                batch_off = end;
                return Some((host, part, is_ship));
            }
            None
        };

        // Ship & merge, one wave at a time — up to one part per owner.
        // Limit-sliced batches drain wave by wave (a wave may hold several
        // slices of the same machine's batch) so early termination can cut
        // the tail.
        let window = (hop.machines as usize).max(1);
        let work_op = |vertices: Vec<Addr>| WorkOp {
            tenant: tenant.to_string(),
            graph: graph.to_string(),
            snapshot_ts,
            vertices,
            step: step.clone(),
            emit_rows,
            select: compiled.select.clone(),
            cache_bypass,
        };
        /// One part of a wave, in merge order: the index of its ship, or
        /// its span of the local op's vertices.
        enum Part {
            Shipped(usize),
            Local(std::ops::Range<usize>),
        }

        let mut next = Vec::new();
        loop {
            if let Some(l) = row_limit {
                if rows.len() >= l {
                    break; // early termination: enough rows in hand
                }
            }
            let mut parts: Vec<Part> = Vec::new();
            let mut ships: Vec<(MachineId, WorkOp)> = Vec::new();
            let mut local: Vec<Addr> = Vec::new();
            while parts.len() < window {
                let Some((host, vertices, is_ship)) = next_part() else {
                    break;
                };
                if is_ship {
                    parts.push(Part::Shipped(ships.len()));
                    ships.push((host, work_op(vertices)));
                } else {
                    // Few vertices (or the coordinator's own batch): cheaper
                    // to read remotely than to RPC (§3.4). All such parts
                    // share one op: one transaction, one neighbor memo, and
                    // prefetch rounds that ring each owner's doorbell once.
                    let start = local.len();
                    local.extend(vertices);
                    parts.push(Part::Local(start..local.len()));
                }
            }
            if parts.is_empty() {
                break;
            }
            let local_op = (!local.is_empty()).then(|| work_op(local));
            hop.max_concurrent_ships = hop.max_concurrent_ships.max(ships.len() as u64);

            // Post every ship, then run the local op while they execute:
            // the waits overlap on this one thread. (Under simulation the
            // pool hands back a seeded order instead, and each post
            // completes before it returns.)
            let mut pending: Vec<Option<A1Result<PendingShip<'_>>>> =
                ships.iter().map(|_| None).collect();
            let mut local_result = None;
            for k in pool.dispatch_order(ships.len() + usize::from(local_op.is_some())) {
                match ships.get(k) {
                    Some((host, op)) => pending[k] = Some(ship(*host, op)),
                    // Still morsel-parallel on the coordinator's pool past
                    // the split size — under hub skew the coordinator
                    // machine can own most of the frontier itself.
                    None => {
                        local_result = local_op.as_ref().map(|op| {
                            run_work_op(farm, store, proxies, machine, op, cache, Some(pool))
                        })
                    }
                }
            }

            // Collect and merge in part order. The local op's rows come
            // back in its input order, so each local part's rows are the
            // next run of them.
            let mut local_rows = Vec::new().into_iter().peekable();
            if let Some(result) = local_result {
                let result = result?;
                metrics.absorb(&result.metrics);
                hop.absorb(&result);
                next.extend(result.next);
                local_rows = result.rows.into_iter().peekable();
            }
            for part in parts {
                match part {
                    Part::Shipped(k) => {
                        let collect = pending[k].take().expect("every ship was posted")?;
                        let result = collect()?;
                        metrics.rpcs += 1;
                        hop.rpcs += 1;
                        metrics.absorb(&result.metrics);
                        hop.absorb(&result);
                        next.extend(result.next);
                        rows.extend(result.rows);
                    }
                    Part::Local(span) => {
                        let op = local_op.as_ref().expect("a local part has a local op");
                        for v in &op.vertices[span] {
                            if local_rows.peek().is_some_and(|(addr, _)| addr == v) {
                                rows.extend(local_rows.next());
                            }
                        }
                    }
                }
            }
            debug_assert!(local_rows.next().is_none(), "a row outside every part");
        }
        hop.wall_ns = hop_start.elapsed().as_nanos() as u64;
        per_hop.push(hop);
        frontier = dedup_addrs(next);
    }

    // Aggregate replies: dedup rows by vertex, apply limit/select.
    let mut outcome = QueryOutcome {
        rows: Vec::new(),
        count: None,
        metrics,
        continuation: None,
        per_hop,
    };
    match compiled.select {
        Select::Count => {
            outcome.count = Some(frontier.len() as u64);
        }
        _ => {
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::with_capacity(rows.len());
            for (addr, row) in rows {
                if seen.insert(addr) {
                    out.push(row);
                }
            }
            if let Some(limit) = compiled.limit {
                out.truncate(limit);
            }
            outcome.rows = out;
        }
    }
    Ok(outcome)
}

fn dedup_addrs(mut addrs: Vec<Addr>) -> Vec<Addr> {
    addrs.sort_unstable();
    addrs.dedup();
    addrs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_fraction() {
        let m = QueryMetrics {
            local_reads: 95,
            remote_reads: 5,
            ..QueryMetrics::default()
        };
        assert!((m.local_read_fraction() - 0.95).abs() < 1e-9);
        assert_eq!(QueryMetrics::default().local_read_fraction(), 1.0);
    }

    #[test]
    fn head_requests_give_each_distinct_address_one_slot() {
        use a1_farm::{FetchReq, RegionId};
        let addr = |i: u32| Addr::new(RegionId(1 + i % 3), 64 * (1 + i / 3));
        let (a, b, c) = (addr(0), addr(1), addr(2));
        // Repeats, in a hand-built order; `b` is the one the cache can serve.
        let (slot_of, reqs) = head_requests(&[a, b, a, c, b, a], None, |v| v == b);
        assert_eq!(reqs.len(), 3, "one request per distinct address");
        assert_eq!((slot_of[&a], slot_of[&b], slot_of[&c]), (0, 1, 2));
        assert!(matches!(reqs[0], FetchReq::Read(p) if p.addr == a));
        assert!(matches!(reqs[1], FetchReq::Probe(v) if v == b));
        assert!(matches!(reqs[2], FetchReq::Read(p) if p.addr == c));

        // The id filter drops everything else before it takes a slot.
        let (slot_of, reqs) = head_requests(&[a, b, a, c, b], Some(b), |_| false);
        assert_eq!((reqs.len(), slot_of.len(), slot_of[&b]), (1, 1, 0));

        // Linear, not quadratic: a morsel-sized run of distinct addresses
        // with every one repeated keeps exactly one slot each.
        let many: Vec<Addr> = (0..20_000).map(addr).collect();
        let doubled: Vec<Addr> = many.iter().chain(&many).copied().collect();
        let (slot_of, reqs) = head_requests(&doubled, None, |_| false);
        assert_eq!((reqs.len(), slot_of.len()), (many.len(), many.len()));
        assert!(many.iter().enumerate().all(|(i, v)| slot_of[v] == i));
    }

    #[test]
    fn eval_predicates() {
        use a1_bond::{BondType, FieldDef, Record, Schema};
        let schema = Schema::build(
            "e",
            vec![
                FieldDef::optional(0, "name", BondType::List(Box::new(BondType::String))),
                FieldDef::optional(1, "rank", BondType::Int64),
                FieldDef::optional(
                    2,
                    "m",
                    BondType::Map(Box::new(BondType::String), Box::new(BondType::String)),
                ),
            ],
        )
        .unwrap();
        let rec = Record::new()
            .with(0, Value::List(vec![Value::String("Batman".into())]))
            .with(1, Value::Int64(5))
            .with(
                2,
                Value::Map(vec![(Value::String("k".into()), Value::String("v".into()))]),
            );
        let p = |attr: &str, map_key: Option<&str>, op, value| AttrPredicate {
            attr: attr.into(),
            map_key: map_key.map(String::from),
            op,
            value,
        };
        // List containment.
        assert!(eval_predicate(
            &schema,
            &rec,
            &p("name", None, CmpOp::Eq, Json::str("Batman"))
        ));
        assert!(!eval_predicate(
            &schema,
            &rec,
            &p("name", None, CmpOp::Eq, Json::str("Robin"))
        ));
        // Numeric comparisons.
        assert!(eval_predicate(
            &schema,
            &rec,
            &p("rank", None, CmpOp::Ge, Json::Num(5.0))
        ));
        assert!(eval_predicate(
            &schema,
            &rec,
            &p("rank", None, CmpOp::Lt, Json::Num(6.0))
        ));
        assert!(!eval_predicate(
            &schema,
            &rec,
            &p("rank", None, CmpOp::Ne, Json::Num(5.0))
        ));
        // Map lookup.
        assert!(eval_predicate(
            &schema,
            &rec,
            &p("m", Some("k"), CmpOp::Eq, Json::str("v"))
        ));
        assert!(!eval_predicate(
            &schema,
            &rec,
            &p("m", Some("zz"), CmpOp::Eq, Json::str("v"))
        ));
        // Missing attribute → false.
        assert!(!eval_predicate(
            &schema,
            &rec,
            &p("nope", None, CmpOp::Eq, Json::Num(1.0))
        ));
        // Type-incompatible literal → false.
        assert!(!eval_predicate(
            &schema,
            &rec,
            &p("rank", None, CmpOp::Eq, Json::str("x"))
        ));
    }
}
