//! The A1 cluster facade: backends (FaRM coprocessors), frontends, and the
//! client API (paper §2.2, Fig. 4).
//!
//! Clients talk to frontends (stateless routing/throttling); frontends
//! forward to backend machines, where all query execution and data
//! processing happens. Here the frontend tier is folded into [`A1Client`]:
//! it picks a backend (round-robin, like the SLB + random routing of §3.4),
//! charges the client↔cluster hop, and sends the request into the backend's
//! worker pool over the fabric RPC path — so backend queueing is real.

use crate::batch::{BatchApplier, Mutation};
use crate::cache::{CacheConfig, CacheStats, VertexCache};
use crate::catalog::{Catalog, GraphProxies, ProxyCache, VertexProxy};
use crate::convert::{json_to_value, record_from_json, record_to_json};
use crate::edges::Dir;
use crate::error::{A1Error, A1Result};
use crate::model::{EdgeTypeDef, GraphMeta, LifecycleState, TypeId, VertexTypeDef};
use crate::query::exec::{self, ExecConfig, QueryMetrics, QueryOutcome, WorkOp, WorkResult};
use crate::query::plan::parse_query;
use crate::replog::{entry as log_entry, Replog};
use crate::store::{conflict_backoff, run_a1, GraphStore};
use crate::tasks::{TaskQueue, TaskSpec};
use crate::vertex::vertex_ptr;
use crate::wire::{self, Request, WireFormat};
use a1_farm::{Addr, BTree, BTreeConfig, FarmCluster, FarmConfig, Hint, JobClass, MachineId, Txn};
use a1_json::Json;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Cluster-level configuration.
#[derive(Debug, Clone)]
pub struct A1Config {
    pub farm: FarmConfig,
    pub exec: ExecConfig,
    /// Catalog proxy cache TTL (§3.1).
    pub proxy_ttl: Duration,
    /// How long coordinators keep paged query results (§3.4, 60 s).
    pub continuation_ttl: Duration,
    /// Write a replication log for disaster recovery (§4).
    pub dr_enabled: bool,
    /// Encoding for every inter-machine message (work-op ships, query/page
    /// RPCs, replication-log entry bodies). Binary is the default; set
    /// [`WireFormat::Json`] to force the legacy text wire for debugging.
    /// Decoders always auto-detect, so mixed-format clusters and logs work.
    pub wire_format: WireFormat,
    /// Front-door admission control and worker-pool sharing knobs.
    pub admission: AdmissionConfig,
    /// Per-machine cross-query hot-vertex read cache knobs (see
    /// [`crate::cache`]).
    pub cache: CacheConfig,
}

/// Per-machine front-door knobs: how many queries a backend lets in at once,
/// per-client fairness caps, and how each machine's worker pool is shared
/// between the job classes that compete for it (query fan-out, morsels,
/// ingest batch application).
///
/// The default is wide open — no admission limits — matching the pre-front-
/// door behavior. Serving deployments set limits.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Max queries/pages in flight per backend machine; `0` = unlimited.
    /// Over-limit requests are rejected with [`A1Error::Overloaded`].
    pub max_inflight_queries: usize,
    /// Max queries/pages in flight per client id per backend; `0` =
    /// unlimited. Anonymous requests (empty client id) share one bucket.
    pub max_inflight_per_client: usize,
    /// Max continuation-table entries a single client may hold per backend;
    /// `0` = unlimited. Over quota, the client's *oldest* continuation is
    /// evicted (that query must restart) — other clients are untouched.
    pub max_continuations_per_client: usize,
    /// Working-set cap applied to identified clients (empty client id is
    /// exempt); `0` = inherit [`ExecConfig::max_working_set`]. The effective
    /// cap is the smaller of the two.
    pub client_max_working_set: usize,
    /// Back-off hint stamped into `Overloaded` rejections.
    pub retry_after: Duration,
    /// In-flight quota for [`a1_farm::JobClass::Ingest`] jobs on each
    /// machine's pool. `None` = auto: `threads_per_machine - 1` (min 1), so
    /// ingest can never occupy every worker. `Some(0)` = unlimited.
    pub ingest_quota: Option<usize>,
    /// In-flight quota for [`a1_farm::JobClass::Morsel`] jobs; `0` =
    /// unlimited. Morsel batches always complete even at quota zero
    /// headroom (the submitting coordinator runs them inline), so this
    /// bounds *pool occupancy*, not progress.
    pub morsel_quota: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight_queries: 0,
            max_inflight_per_client: 0,
            max_continuations_per_client: 0,
            client_max_working_set: 0,
            retry_after: Duration::from_millis(10),
            ingest_quota: None,
            morsel_quota: 0,
        }
    }
}

impl Default for A1Config {
    fn default() -> Self {
        A1Config {
            farm: FarmConfig::default(),
            exec: ExecConfig::default(),
            proxy_ttl: Duration::from_secs(10),
            continuation_ttl: Duration::from_secs(60),
            dr_enabled: false,
            wire_format: WireFormat::Binary,
            admission: AdmissionConfig::default(),
            cache: CacheConfig::default(),
        }
    }
}

impl A1Config {
    /// A small test/example cluster with `n` backend machines.
    pub fn small(n: u32) -> A1Config {
        A1Config {
            farm: FarmConfig::small(n),
            ..A1Config::default()
        }
    }

    /// Same cluster with a specific [`WireFormat`] for inter-machine
    /// messages (`Json` = the legacy debug wire).
    pub fn with_wire_format(mut self, fmt: WireFormat) -> A1Config {
        self.wire_format = fmt;
        self
    }

    /// Same cluster with specific front-door [`AdmissionConfig`] knobs.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> A1Config {
        self.admission = admission;
        self
    }

    /// Same cluster with specific hot-vertex read-cache knobs
    /// ([`CacheConfig`]); `enabled: false` is the A/B baseline.
    pub fn with_cache(mut self, cache: CacheConfig) -> A1Config {
        self.cache = cache;
        self
    }
}

/// A paged query's cached remainder, tagged with the client that owns it
/// (for the front door's per-client continuation quota). Timestamps come
/// from the cluster clock so continuation TTLs run on virtual time under
/// the simulation harness.
struct Continuation {
    at_ns: u64,
    rows: Vec<Json>,
    client: String,
}

/// Per-backend admission counters: total and per-client in-flight requests.
struct AdmissionState {
    inflight: AtomicUsize,
    /// Per-client in-flight counts; entries are removed when they hit zero,
    /// so the map only holds currently-active clients.
    per_client: Mutex<HashMap<String, usize>>,
}

/// A held front-door admission slot. The request it admitted is in flight
/// until this is dropped; dropping releases the machine's (and client's)
/// slot. Obtainable directly via [`A1Cluster::hold_admission_slot`] to
/// drive the front door deterministically in tests.
pub struct AdmissionPermit {
    backend: Arc<Backend>,
    /// Set only when a per-client limit is active (the undo must mirror
    /// exactly what was counted).
    client: Option<String>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.backend
            .admission
            .inflight
            .fetch_sub(1, Ordering::AcqRel);
        if let Some(client) = self.client.take() {
            let mut per_client = self.backend.admission.per_client.lock();
            if let Some(n) = per_client.get_mut(&client) {
                *n -= 1;
                if *n == 0 {
                    per_client.remove(&client);
                }
            }
        }
    }
}

/// Per-backend-machine coprocessor state.
pub struct Backend {
    pub machine: MachineId,
    proxies: ProxyCache,
    continuations: Mutex<HashMap<u64, Continuation>>,
    next_cont: AtomicU64,
    admission: AdmissionState,
    /// This machine's cross-query hot-vertex read cache (always allocated;
    /// the read path only consults it when [`CacheConfig::enabled`]).
    cache: VertexCache,
}

impl Backend {
    fn new(machine: MachineId, proxy_ttl: Duration, cache_cfg: &CacheConfig) -> Arc<Backend> {
        Arc::new(Backend {
            machine,
            proxies: ProxyCache::new(proxy_ttl),
            continuations: Mutex::new(HashMap::new()),
            next_cont: AtomicU64::new(1),
            admission: AdmissionState {
                inflight: AtomicUsize::new(0),
                per_client: Mutex::new(HashMap::new()),
            },
            cache: VertexCache::new(cache_cfg),
        })
    }
}

/// The shared cluster state.
pub struct A1Inner {
    pub cfg: A1Config,
    pub farm: Arc<FarmCluster>,
    pub catalog: Catalog,
    pub store: GraphStore,
    backends: Vec<Arc<Backend>>,
    pub replog: Option<Replog>,
    pub taskq: TaskQueue,
    rr: AtomicUsize,
}

/// A running A1 cluster.
#[derive(Clone)]
pub struct A1Cluster {
    inner: Arc<A1Inner>,
}

impl A1Cluster {
    /// Boot the cluster: FaRM, catalog, task queue, optional replication
    /// log, and the per-machine RPC dispatch.
    pub fn start(cfg: A1Config) -> A1Result<A1Cluster> {
        let farm = FarmCluster::start(cfg.farm.clone());
        let catalog = Catalog::bootstrap(&farm)?;
        let taskq = TaskQueue::create(&farm)?;
        let replog = if cfg.dr_enabled {
            Some(Replog::create_with(&farm, cfg.wire_format)?)
        } else {
            None
        };
        let backends: Vec<Arc<Backend>> = (0..cfg.farm.fabric.machines)
            .map(|i| Backend::new(MachineId(i), cfg.proxy_ttl, &cfg.cache))
            .collect();
        let store = GraphStore;
        let inner = Arc::new(A1Inner {
            cfg,
            farm,
            catalog,
            store,
            backends,
            replog,
            taskq,
            rr: AtomicUsize::new(0),
        });
        // Install the coprocessor RPC dispatch on every backend machine.
        for backend in &inner.backends {
            let weak: Weak<A1Inner> = Arc::downgrade(&inner);
            let machine = backend.machine;
            inner.farm.fabric().set_rpc_handler(
                machine,
                Arc::new(move |_from, payload: Bytes| {
                    let Some(inner) = weak.upgrade() else {
                        return Bytes::from(wire::encode_error(
                            &A1Error::Internal("shutdown".into()),
                            wire::payload_format(&payload),
                        ));
                    };
                    Bytes::from(inner.dispatch_rpc(machine, &payload))
                }),
            );
        }
        // Share each machine's worker pool between job classes: cap ingest
        // batch application so applier work can never occupy every worker
        // (queries would starve behind an ingest burst), and optionally cap
        // morsels. Query-class jobs are never capped — they are what the
        // front door already admitted.
        for backend in &inner.backends {
            if let Ok(m) = inner.farm.fabric().machine(backend.machine) {
                let ingest_quota = match inner.cfg.admission.ingest_quota {
                    None => inner
                        .cfg
                        .farm
                        .fabric
                        .threads_per_machine
                        .saturating_sub(1)
                        .max(1),
                    Some(n) => n,
                };
                m.pool().set_class_quota(JobClass::Ingest, ingest_quota);
                m.pool()
                    .set_class_quota(JobClass::Morsel, inner.cfg.admission.morsel_quota);
            }
        }
        Ok(A1Cluster { inner })
    }

    pub fn inner(&self) -> &Arc<A1Inner> {
        &self.inner
    }

    pub fn farm(&self) -> &Arc<FarmCluster> {
        &self.inner.farm
    }

    /// A client handle (the paper's SLB + frontend tier).
    pub fn client(&self) -> A1Client {
        A1Client {
            inner: self.inner.clone(),
            client_id: String::new(),
        }
    }

    /// Execute up to `max` pending async tasks (deterministic alternative to
    /// background workers; §3.3).
    pub fn run_pending_tasks(&self, max: usize) -> A1Result<usize> {
        self.inner.run_pending_tasks(max)
    }

    /// Live continuation-table entries cached on `machine` (ops/test hook:
    /// the load-shed sweep and per-client quota are asserted through this).
    pub fn continuation_count(&self, machine: MachineId) -> usize {
        self.inner.backend(machine).continuations.lock().len()
    }

    /// Aggregate hot-vertex cache counters across all backend machines.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for b in &self.inner.backends {
            let s = b.cache.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.entries += s.entries;
            total.bytes += s.bytes;
        }
        total
    }

    /// Drop every machine's cached vertices (bench A/B resets; counters are
    /// kept).
    pub fn clear_caches(&self) {
        for b in &self.inner.backends {
            b.cache.clear();
        }
    }

    /// Occupy one front-door admission slot on `machine` as `client`
    /// without running a query, or fail with [`A1Error::Overloaded`] like
    /// any other request would. The slot frees when the returned permit
    /// drops. Test hook: drives the front door to its limit
    /// deterministically, without depending on query timing.
    pub fn hold_admission_slot(
        &self,
        machine: MachineId,
        client: &str,
    ) -> A1Result<AdmissionPermit> {
        self.inner.admit(machine, client)
    }
}

impl A1Inner {
    fn backend(&self, m: MachineId) -> &Arc<Backend> {
        &self.backends[m.0 as usize]
    }

    /// Round-robin backend choice (the frontends route requests "to a random
    /// backend machine", §3.4). The SLB health-checks backends: dead
    /// machines are skipped.
    pub(crate) fn pick_backend(&self) -> &Arc<Backend> {
        let fabric = self.farm.fabric();
        for _ in 0..self.backends.len() {
            let i = self.rr.fetch_add(1, Ordering::Relaxed) % self.backends.len();
            if fabric.is_alive(self.backends[i].machine) {
                return &self.backends[i];
            }
        }
        &self.backends[0] // no healthy backend; let the call surface the error
    }

    fn proxies(&self, backend: &Backend, tenant: &str, graph: &str) -> A1Result<Arc<GraphProxies>> {
        backend
            .proxies
            .graph(&self.farm, &self.catalog, backend.machine, tenant, graph)
    }

    /// Resolve a graph's catalog proxies through the given machine's proxy
    /// cache (one catalog read per TTL, §3.1). Used by the batch/ingest
    /// write path, which manages its own transactions.
    pub fn proxies_at(
        &self,
        machine: MachineId,
        tenant: &str,
        graph: &str,
    ) -> A1Result<Arc<GraphProxies>> {
        self.proxies(self.backend(machine), tenant, graph)
    }

    // ---------------------------------------------------------- RPC server

    /// Decode and execute one RPC, replying in the format the request
    /// arrived in (binary frame tag dispatch; legacy JSON auto-detected).
    ///
    /// Query and page requests pass the front door first: over the machine's
    /// (or the client's) in-flight limit they are rejected with a structured
    /// [`A1Error::Overloaded`] carrying a retry-after hint, encoded in
    /// whichever wire format the request arrived in. Work ops are internal —
    /// their query was already admitted on its coordinator — and bypass
    /// admission, as coordinator back-pressure already bounds them.
    fn dispatch_rpc(&self, machine: MachineId, payload: &[u8]) -> Vec<u8> {
        let fmt = wire::payload_format(payload);
        match wire::decode_request(payload) {
            Ok(Request::Work(op)) => wire::encode_work_result(&self.handle_work(machine, &op), fmt),
            Ok(Request::Query {
                tenant,
                graph,
                q,
                client,
            }) => {
                let outcome = self.admit(machine, &client).and_then(|_permit| {
                    self.coordinate_query_for(machine, &tenant, &graph, &q, &client)
                });
                wire::encode_outcome(&outcome, fmt)
            }
            Ok(Request::Page { cid, client }) => {
                let outcome = match self.admit(machine, &client) {
                    Ok(_permit) => self.handle_page(machine, cid),
                    Err(e) => {
                        // A rejected page still kills its continuation: the
                        // cached rows are exactly the memory this rejection
                        // is shedding, and waiting out the TTL would leak
                        // them for the worst minute possible. The client
                        // restarts the query once load drains.
                        self.backend(machine).continuations.lock().remove(&cid);
                        Err(e)
                    }
                };
                wire::encode_outcome(&outcome, fmt)
            }
            Err(e) => wire::encode_error(&e, fmt),
        }
    }

    /// Front-door admission: claim an in-flight slot on `machine` for
    /// `client`, or reject with [`A1Error::Overloaded`].
    fn admit(&self, machine: MachineId, client: &str) -> A1Result<AdmissionPermit> {
        let adm = &self.cfg.admission;
        let backend = self.backend(machine);
        let overloaded = || A1Error::Overloaded {
            retry_after_ms: (adm.retry_after.as_millis() as u64).max(1),
        };
        let total = backend.admission.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        if adm.max_inflight_queries != 0 && total > adm.max_inflight_queries {
            backend.admission.inflight.fetch_sub(1, Ordering::AcqRel);
            return Err(overloaded());
        }
        let mut permit = AdmissionPermit {
            backend: backend.clone(),
            client: None,
        };
        if adm.max_inflight_per_client != 0 {
            let mut per_client = backend.admission.per_client.lock();
            if per_client.get(client).copied().unwrap_or(0) >= adm.max_inflight_per_client {
                drop(per_client);
                return Err(overloaded()); // permit drop releases the total slot
            }
            *per_client.entry(client.to_string()).or_insert(0) += 1;
            permit.client = Some(client.to_string());
        }
        Ok(permit)
    }

    fn handle_work(&self, machine: MachineId, op: &WorkOp) -> A1Result<WorkResult> {
        let backend = self.backend(machine);
        let proxies = self.proxies(backend, &op.tenant, &op.graph)?;
        // This machine's own pool: a shipped batch past the split size
        // splits into morsels executing next to the data (intra-machine
        // parallelism, the level below the coordinator's posted ships).
        let pool = self.farm.fabric().machine(machine).ok().map(|m| m.pool());
        // The executing machine's own cache — shipped ops consult the cache
        // next to the data they read. Per-client bypass arrives stamped on
        // the op itself.
        let cache = self.cfg.cache.enabled.then(|| &backend.cache);
        exec::run_work_op(&self.farm, &self.store, &proxies, machine, op, cache, pool)
    }

    /// Evict `addrs` from every machine's hot-vertex cache — the post-commit
    /// invalidation choke point for the batch applier, interactive
    /// transactions, and background delete tasks. (Correctness never depends
    /// on this: a missed eviction is caught by version revalidation at the
    /// next lookup. This keeps dead entries from occupying capacity and
    /// paying fruitless probes.)
    pub fn invalidate_cached_vertices(&self, addrs: &[Addr]) {
        if addrs.is_empty() || !self.cfg.cache.enabled {
            return;
        }
        for b in &self.backends {
            b.cache.invalidate_many(addrs);
        }
    }

    /// Coordinator-side query execution (§3.4, Fig. 9) for an anonymous
    /// caller — the closed-loop entry point; bypasses the front door.
    pub fn coordinate_query(
        &self,
        machine: MachineId,
        tenant: &str,
        graph: &str,
        text: &str,
    ) -> A1Result<QueryOutcome> {
        self.coordinate_query_for(machine, tenant, graph, text, "")
    }

    /// Coordinator-side query execution on behalf of `client`: identified
    /// clients get the per-client working-set cap, own the continuation
    /// entries their paged results create, and honor
    /// [`CacheConfig::bypass_clients`](crate::CacheConfig::bypass_clients).
    /// Public so benches/tests can pin the coordinator machine *and* carry
    /// a client identity (the front-door `A1Client::query` picks a backend
    /// round-robin, which is the right behavior for serving but makes
    /// per-backend cache measurements non-deterministic).
    pub fn coordinate_query_for(
        &self,
        machine: MachineId,
        tenant: &str,
        graph: &str,
        text: &str,
        client: &str,
    ) -> A1Result<QueryOutcome> {
        let backend = self.backend(machine);
        let proxies = self.proxies(backend, tenant, graph)?;
        let query = parse_query(text)?;

        // One read-only transaction pins the snapshot for the whole query;
        // its guard keeps old versions alive until we finish (§2.2).
        let mut tx = self.farm.begin_read_only(machine);
        let snapshot_ts = tx.read_ts();
        let (compiled, frontier) = exec::compile(&self.store, &mut tx, &proxies, &query)?;

        let fabric = self.farm.fabric();
        let fmt = self.cfg.wire_format;
        let ship_failed = |e| A1Error::Internal(format!("ship rpc: {e}"));
        // Post half here, wait half in the returned closure: the coordinator
        // posts a whole wave before it collects anything.
        let ship = move |host: MachineId, op: &WorkOp| -> A1Result<exec::PendingShip<'_>> {
            let payload = Bytes::from(wire::encode_work_op(op, fmt));
            let req_bytes = payload.len() as u64;
            let pending = fabric
                .post_rpc(machine, host, payload)
                .map_err(ship_failed)?;
            Ok(Box::new(move || {
                let reply = pending.wait().map_err(ship_failed)?;
                let mut result = wire::decode_work_result(&reply)?;
                // Bytes-on-wire accounting: the worker cannot know its
                // payload sizes, so the coordinator stamps them on the
                // merged metrics.
                result.metrics.rpc_req_bytes = req_bytes;
                result.metrics.rpc_reply_bytes = reply.len() as u64;
                Ok(result)
            }))
        };

        // Identified clients may carry a tighter working-set budget than the
        // global fast-fail cap (per-client quota, front-door satellite of
        // the paper's multi-tenancy story).
        let mut exec_cfg = self.cfg.exec.clone();
        let client_ws = self.cfg.admission.client_max_working_set;
        if client_ws != 0 && !client.is_empty() {
            exec_cfg.max_working_set = exec_cfg.max_working_set.min(client_ws);
        }
        // Per-client cache bypass is stamped onto every work op so shipped
        // ops bypass at remote machines too; inline ops use the coordinator
        // machine's own cache.
        let cache_bypass =
            !client.is_empty() && self.cfg.cache.bypass_clients.iter().any(|c| c == client);
        let coord = exec::Coordinator {
            farm: &self.farm,
            store: &self.store,
            proxies: &proxies,
            machine,
            cfg: &exec_cfg,
            cache: (self.cfg.cache.enabled && !cache_bypass).then(|| &backend.cache),
            cache_bypass,
        };
        let mut outcome = exec::coordinate(
            &coord,
            tenant,
            graph,
            &compiled,
            frontier,
            snapshot_ts,
            &ship,
        )?;
        drop(tx);

        // Page oversized results through a continuation token (§3.4).
        if outcome.rows.len() > self.cfg.exec.page_size {
            let rest = outcome.rows.split_off(self.cfg.exec.page_size);
            outcome.continuation = Some(self.stash_continuation(machine, rest, client));
        }
        Ok(outcome)
    }

    fn stash_continuation(&self, machine: MachineId, rest: Vec<Json>, client: &str) -> String {
        let backend = self.backend(machine);
        let id = backend.next_cont.fetch_add(1, Ordering::Relaxed);
        let mut conts = backend.continuations.lock();
        // Opportunistic expiry sweep.
        let now_ns = self.farm.fabric().clock().now_ns();
        let ttl_ns = self.cfg.continuation_ttl.as_nanos() as u64;
        conts.retain(|_, c| now_ns.saturating_sub(c.at_ns) < ttl_ns);
        // Per-client continuation quota: evict the same client's oldest
        // entries (that query restarts) rather than reject the new one —
        // the newest result is the one the client is actively paging.
        let quota = self.cfg.admission.max_continuations_per_client;
        if quota != 0 {
            while conts.values().filter(|c| c.client == client).count() >= quota {
                // Tie-break equal timestamps (common under a coarse virtual
                // clock) by id so eviction order is deterministic.
                let oldest = conts
                    .iter()
                    .filter(|(_, c)| c.client == client)
                    .min_by_key(|(id, c)| (c.at_ns, **id))
                    .map(|(id, _)| *id)
                    .expect("count >= quota >= 1 entries exist");
                conts.remove(&oldest);
            }
        }
        conts.insert(
            id,
            Continuation {
                at_ns: now_ns,
                rows: rest,
                client: client.to_string(),
            },
        );
        // The token encodes the coordinator's identity so frontends can
        // route the next request to the right machine (§3.4).
        format!("c:{}:{}", machine.0, id)
    }

    fn handle_page(&self, machine: MachineId, cid: u64) -> A1Result<QueryOutcome> {
        let backend = self.backend(machine);
        let mut conts = backend.continuations.lock();
        // Sweep expired continuations here too — a backend that serves pages
        // but never stashes new ones must not retain dead pages forever
        // (stash-side sweeping alone leaks in that pattern).
        let now_ns = self.farm.fabric().clock().now_ns();
        let ttl_ns = self.cfg.continuation_ttl.as_nanos() as u64;
        conts.retain(|_, c| now_ns.saturating_sub(c.at_ns) < ttl_ns);
        let Continuation {
            at_ns,
            mut rows,
            client,
        } = conts.remove(&cid).ok_or(A1Error::ContinuationExpired)?;
        let mut outcome = QueryOutcome {
            rows: Vec::new(),
            count: None,
            metrics: QueryMetrics::default(),
            continuation: None,
            per_hop: Vec::new(),
        };
        if rows.len() > self.cfg.exec.page_size {
            let rest = rows.split_off(self.cfg.exec.page_size);
            let id = backend.next_cont.fetch_add(1, Ordering::Relaxed);
            conts.insert(
                id,
                Continuation {
                    at_ns,
                    rows: rest,
                    client,
                },
            );
            outcome.continuation = Some(format!("c:{}:{}", machine.0, id));
        }
        outcome.rows = rows;
        Ok(outcome)
    }

    // --------------------------------------------------------------- tasks

    pub fn run_pending_tasks(&self, max: usize) -> A1Result<usize> {
        let mut done = 0;
        for i in 0..max {
            let origin = MachineId((i % self.backends.len()) as u32);
            let Some(task) = self.taskq.claim(&self.farm, origin)? else {
                break;
            };
            self.execute_task(origin, &task.spec)?;
            self.taskq.complete(&self.farm, origin, &task.key)?;
            done += 1;
        }
        Ok(done)
    }

    fn enqueue_task(&self, tx: &mut Txn, priority: u8, spec: &TaskSpec) -> A1Result<()> {
        let seq = self.catalog.next_id(tx)?;
        self.taskq.enqueue(tx, priority, seq, spec)
    }

    fn execute_task(&self, origin: MachineId, spec: &TaskSpec) -> A1Result<()> {
        match spec {
            TaskSpec::DeleteGraph { tenant, graph } => {
                self.task_delete_graph(origin, tenant, graph)
            }
            TaskSpec::DeleteType { tenant, graph, ty } => {
                self.task_delete_type(origin, tenant, graph, ty)
            }
        }
    }

    /// DeleteGraph workflow (§3.3): spawn DeleteType tasks for every type,
    /// then (when none remain) tear down the graph itself.
    fn task_delete_graph(&self, origin: MachineId, tenant: &str, graph: &str) -> A1Result<()> {
        let catalog = self.catalog.clone();
        let mut tx = self.farm.begin_read_only(origin);
        let types = catalog.list_types(&mut tx, tenant, graph)?;
        let meta = catalog.get_graph(&mut tx, tenant, graph)?;
        drop(tx);
        let Some(meta) = meta else { return Ok(()) }; // already gone

        if types.is_empty() {
            // Final stage: destroy the edge tree + the graph entry.
            let edge_tree_ptr = meta.edge_tree;
            let tenant_s = tenant.to_string();
            let graph_s = graph.to_string();
            run_a1(&self.farm, origin, move |tx| {
                let tree = BTree::open(tx, edge_tree_ptr)?;
                tree.destroy(tx)?;
                catalog.remove(tx, &crate::catalog::graph_key(&tenant_s, &graph_s))?;
                Ok(())
            })?;
            for b in &self.backends {
                b.proxies.invalidate(tenant, graph);
            }
            return Ok(());
        }

        // Spawn per-type deletion and reschedule ourselves to finish later.
        let tenant_s = tenant.to_string();
        let graph_s = graph.to_string();
        let type_names: Vec<String> = types.iter().map(|(n, _, _)| n.clone()).collect();
        let this = self;
        run_a1(&self.farm, origin, move |tx| {
            for name in &type_names {
                this.enqueue_task(
                    tx,
                    2,
                    &TaskSpec::DeleteType {
                        tenant: tenant_s.clone(),
                        graph: graph_s.clone(),
                        ty: name.clone(),
                    },
                )?;
            }
            this.enqueue_task(
                tx,
                3,
                &TaskSpec::DeleteGraph {
                    tenant: tenant_s.clone(),
                    graph: graph_s.clone(),
                },
            )?;
            Ok(())
        })
    }

    /// DeleteType workflow: vertex types delete their vertices in batches
    /// (re-enqueueing between batches) and finally their index trees.
    fn task_delete_type(
        &self,
        origin: MachineId,
        tenant: &str,
        graph: &str,
        ty: &str,
    ) -> A1Result<()> {
        const BATCH: usize = 32;
        let backend = self.backend(origin);
        backend.proxies.invalidate(tenant, graph);
        let proxies = match self.proxies(backend, tenant, graph) {
            Ok(p) => p,
            Err(A1Error::NoSuchGraph(_)) => return Ok(()),
            Err(e) => return Err(e),
        };
        let Some(vp) = proxies.vertex_type(ty) else {
            // Edge type (or already gone): drop the catalog entry.
            if proxies.edge_type(ty).is_some() {
                let catalog = self.catalog.clone();
                let key = crate::catalog::type_key(tenant, graph, ty);
                run_a1(&self.farm, origin, move |tx| {
                    catalog.remove(tx, &key)?;
                    Ok(())
                })?;
            }
            return Ok(());
        };

        // One batch of vertices, each deleted in its own transaction.
        let mut tx = self.farm.begin_read_only(origin);
        let batch = vp.primary.scan(&mut tx, &[], &[], BATCH)?;
        drop(tx);
        if batch.is_empty() {
            // Destroy index trees + the type entry.
            let vp = vp.clone();
            let catalog = self.catalog.clone();
            let key = crate::catalog::type_key(tenant, graph, ty);
            run_a1(&self.farm, origin, move |tx| {
                vp.primary.destroy(tx)?;
                for (_, idx) in &vp.secondaries {
                    idx.destroy(tx)?;
                }
                catalog.remove(tx, &key)?;
                Ok(())
            })?;
            for b in &self.backends {
                b.proxies.invalidate(tenant, graph);
            }
            return Ok(());
        }
        for (_, val) in batch {
            let Some(ptr) = a1_farm::Ptr::decode(&val) else {
                continue;
            };
            let store = &self.store;
            let g = proxies.graph.clone();
            let vp = vp.clone();
            run_a1(&self.farm, origin, move |tx| {
                match store.delete_vertex(tx, &g, &vp, ptr.addr) {
                    Ok(()) | Err(A1Error::NoSuchVertex(_)) => Ok(()),
                    Err(e) => Err(e),
                }
            })?;
            self.invalidate_cached_vertices(&[ptr.addr]);
        }
        // More to do: reschedule.
        let spec = TaskSpec::DeleteType {
            tenant: tenant.to_string(),
            graph: graph.to_string(),
            ty: ty.to_string(),
        };
        run_a1(&self.farm, origin, move |tx| {
            self.enqueue_task(tx, 2, &spec)
        })
    }
}

// ------------------------------------------------------------------ client

/// The client API: control plane, data plane, transactions and queries
/// (paper §3). Cheap to clone.
#[derive(Clone)]
pub struct A1Client {
    inner: Arc<A1Inner>,
    /// Identity stamped onto query/page requests for the front door's
    /// per-client quotas. Empty = anonymous (the shared bucket).
    client_id: String,
}

impl A1Client {
    /// Same handle identifying as `id` to the front door: per-client
    /// in-flight, continuation, and working-set quotas apply to `id`
    /// instead of the shared anonymous bucket.
    pub fn with_client_id(mut self, id: &str) -> A1Client {
        self.client_id = id.to_string();
        self
    }

    // ------------------------------------------------------- control plane

    /// Create a tenant (the isolation container, §3).
    pub fn create_tenant(&self, tenant: &str) -> A1Result<()> {
        let catalog = self.inner.catalog.clone();
        let t = tenant.to_string();
        run_a1(
            &self.inner.farm,
            self.inner.pick_backend().machine,
            move |tx| catalog.put_tenant(tx, &t),
        )
    }

    /// Create a graph under a tenant.
    pub fn create_graph(&self, tenant: &str, graph: &str) -> A1Result<()> {
        let inner = self.inner.clone();
        let backend = inner.pick_backend().machine;
        let catalog = inner.catalog.clone();
        let (tenant_s, graph_s) = (tenant.to_string(), graph.to_string());
        run_a1(&inner.farm, backend, move |tx| {
            if !catalog.tenant_exists(tx, &tenant_s)? {
                return Err(A1Error::NoSuchTenant(tenant_s.clone()));
            }
            if catalog.get_graph(tx, &tenant_s, &graph_s)?.is_some() {
                return Err(A1Error::AlreadyExists(format!("graph {graph_s}")));
            }
            let id = catalog.next_id(tx)? as u32;
            // One global edge B-tree per graph for large edge lists (§3.2).
            let edge_tree = BTree::create(
                tx,
                BTreeConfig {
                    max_keys: 32,
                    max_key_len: 32,
                    max_val_len: 16,
                },
                Hint::Local,
            )?;
            let meta = GraphMeta {
                id,
                tenant: tenant_s.clone(),
                name: graph_s.clone(),
                state: LifecycleState::Active,
                edge_tree: edge_tree.header,
            };
            catalog.put_graph(tx, &meta)?;
            Ok(())
        })
    }

    /// Create a vertex type. `schema` uses the textual form (see
    /// `convert::json_to_schema`); `pk` names the primary-key field (must be
    /// required); `secondary` lists additionally indexed fields.
    pub fn create_vertex_type(
        &self,
        tenant: &str,
        graph: &str,
        schema: &str,
        pk: &str,
        secondary: &[&str],
    ) -> A1Result<()> {
        let schema_json = Json::parse(schema).map_err(|e| A1Error::Schema(e.to_string()))?;
        let schema = crate::convert::json_to_schema(&schema_json)?;
        let pk_field = schema
            .field_by_name(pk)
            .ok_or_else(|| A1Error::Schema(format!("primary key '{pk}' not in schema")))?;
        if !pk_field.required {
            return Err(A1Error::Schema(
                "primary key must be a required field".into(),
            ));
        }
        let pk_id = pk_field.id;
        let sec_ids: Vec<u16> = secondary
            .iter()
            .map(|name| {
                schema
                    .field_by_name(name)
                    .map(|f| f.id)
                    .ok_or_else(|| A1Error::Schema(format!("secondary '{name}' not in schema")))
            })
            .collect::<A1Result<_>>()?;

        let inner = self.inner.clone();
        let backend = inner.pick_backend().machine;
        let catalog = inner.catalog.clone();
        let (tenant_s, graph_s) = (tenant.to_string(), graph.to_string());
        let name = schema.name().to_string();
        run_a1(&inner.farm, backend, move |tx| {
            let meta = catalog
                .get_graph(tx, &tenant_s, &graph_s)?
                .ok_or_else(|| A1Error::NoSuchGraph(graph_s.clone()))?;
            if meta.state != LifecycleState::Active {
                return Err(A1Error::InvalidState("graph is being deleted".into()));
            }
            let key = crate::catalog::type_key(&tenant_s, &graph_s, &name);
            if catalog.get(tx, &key)?.is_some() {
                return Err(A1Error::AlreadyExists(format!("type {name}")));
            }
            let id = TypeId(catalog.next_id(tx)? as u32);
            // Every vertex type gets a sorted primary index (§3).
            let index_cfg = BTreeConfig {
                max_keys: 32,
                max_key_len: 128,
                max_val_len: 16,
            };
            let primary = BTree::create(tx, index_cfg, Hint::Local)?;
            let secondary_indexes = sec_ids
                .iter()
                .map(|f| {
                    let cfg = BTreeConfig {
                        max_keys: 32,
                        max_key_len: 144,
                        max_val_len: 16,
                    };
                    Ok((*f, BTree::create(tx, cfg, Hint::Local)?.header))
                })
                .collect::<A1Result<Vec<_>>>()?;
            let def = VertexTypeDef {
                id,
                name: name.clone(),
                schema: schema.clone(),
                primary_key: pk_id,
                secondary: sec_ids.clone(),
                primary_index: primary.header,
                secondary_indexes,
                state: LifecycleState::Active,
            };
            catalog.put_vertex_type(tx, &tenant_s, &graph_s, &def)?;
            Ok(())
        })?;
        self.invalidate(tenant, graph);
        Ok(())
    }

    /// Create an edge type (schema optional — edges are often data-free,
    /// §6).
    pub fn create_edge_type(&self, tenant: &str, graph: &str, schema: &str) -> A1Result<()> {
        let schema_json = Json::parse(schema).map_err(|e| A1Error::Schema(e.to_string()))?;
        let schema = crate::convert::json_to_schema(&schema_json)?;
        let inner = self.inner.clone();
        let backend = inner.pick_backend().machine;
        let catalog = inner.catalog.clone();
        let (tenant_s, graph_s) = (tenant.to_string(), graph.to_string());
        let name = schema.name().to_string();
        run_a1(&inner.farm, backend, move |tx| {
            let meta = catalog
                .get_graph(tx, &tenant_s, &graph_s)?
                .ok_or_else(|| A1Error::NoSuchGraph(graph_s.clone()))?;
            if meta.state != LifecycleState::Active {
                return Err(A1Error::InvalidState("graph is being deleted".into()));
            }
            let key = crate::catalog::type_key(&tenant_s, &graph_s, &name);
            if catalog.get(tx, &key)?.is_some() {
                return Err(A1Error::AlreadyExists(format!("type {name}")));
            }
            let id = TypeId(catalog.next_id(tx)? as u32);
            let def = EdgeTypeDef {
                id,
                name: name.clone(),
                schema: schema.clone(),
                state: LifecycleState::Active,
            };
            catalog.put_edge_type(tx, &tenant_s, &graph_s, &def)?;
            Ok(())
        })?;
        self.invalidate(tenant, graph);
        Ok(())
    }

    /// Asynchronously delete a graph (§3.3): flips the state to `Deleting`
    /// and enqueues the workflow; storage is reclaimed by task workers.
    pub fn delete_graph(&self, tenant: &str, graph: &str) -> A1Result<()> {
        let inner = self.inner.clone();
        let backend = inner.pick_backend().machine;
        let catalog = inner.catalog.clone();
        let (tenant_s, graph_s) = (tenant.to_string(), graph.to_string());
        let inner2 = inner.clone();
        run_a1(&inner.farm, backend, move |tx| {
            let mut meta = catalog
                .get_graph(tx, &tenant_s, &graph_s)?
                .ok_or_else(|| A1Error::NoSuchGraph(graph_s.clone()))?;
            meta.state = LifecycleState::Deleting;
            catalog.put_graph(tx, &meta)?;
            inner2.enqueue_task(
                tx,
                3,
                &TaskSpec::DeleteGraph {
                    tenant: tenant_s.clone(),
                    graph: graph_s.clone(),
                },
            )?;
            Ok(())
        })?;
        self.invalidate(tenant, graph);
        Ok(())
    }

    /// Graph metadata (state inspection).
    pub fn graph_meta(&self, tenant: &str, graph: &str) -> A1Result<Option<GraphMeta>> {
        let mut tx = self
            .inner
            .farm
            .begin_read_only(self.inner.pick_backend().machine);
        self.inner.catalog.get_graph(&mut tx, tenant, graph)
    }

    /// Names + kinds of a graph's types.
    pub fn list_types(&self, tenant: &str, graph: &str) -> A1Result<Vec<(String, String)>> {
        let mut tx = self
            .inner
            .farm
            .begin_read_only(self.inner.pick_backend().machine);
        Ok(self
            .inner
            .catalog
            .list_types(&mut tx, tenant, graph)?
            .into_iter()
            .map(|(n, k, _)| (n, k))
            .collect())
    }

    fn invalidate(&self, tenant: &str, graph: &str) {
        for b in &self.inner.backends {
            b.proxies.invalidate(tenant, graph);
        }
    }

    // ---------------------------------------------------------- data plane

    /// Create a vertex from a JSON attribute object. Runs as an implicit
    /// transaction (§3).
    pub fn create_vertex(&self, tenant: &str, graph: &str, ty: &str, attrs: &str) -> A1Result<()> {
        let attrs = Json::parse(attrs).map_err(|e| A1Error::Schema(e.to_string()))?;
        let mut txn = self.transaction();
        txn.create_vertex(tenant, graph, ty, &attrs)?;
        txn.commit_with_retry()
    }

    /// Fetch a vertex by primary key; returns its attributes as JSON.
    pub fn get_vertex(
        &self,
        tenant: &str,
        graph: &str,
        ty: &str,
        id: &Json,
    ) -> A1Result<Option<Json>> {
        let inner = &self.inner;
        let backend = inner.pick_backend();
        let proxies = inner.proxies(backend, tenant, graph)?;
        let vp = proxies
            .vertex_type(ty)
            .ok_or_else(|| A1Error::NoSuchType(ty.to_string()))?;
        let pk = pk_value(vp, id)?;
        let mut tx = inner.farm.begin_read_only(backend.machine);
        match inner.store.vertex_by_pk(&mut tx, vp, &pk)? {
            Some(ptr) => Ok(Some(inner.store.vertex_to_json(&mut tx, vp, ptr.addr)?)),
            None => Ok(None),
        }
    }

    /// Replace a vertex's attributes (primary key immutable).
    pub fn update_vertex(&self, tenant: &str, graph: &str, ty: &str, attrs: &str) -> A1Result<()> {
        let attrs = Json::parse(attrs).map_err(|e| A1Error::Schema(e.to_string()))?;
        let mut txn = self.transaction();
        txn.update_vertex(tenant, graph, ty, &attrs)?;
        txn.commit_with_retry()
    }

    /// Delete a vertex and all its edges.
    pub fn delete_vertex(&self, tenant: &str, graph: &str, ty: &str, id: &Json) -> A1Result<()> {
        let mut txn = self.transaction();
        txn.delete_vertex(tenant, graph, ty, id)?;
        txn.commit_with_retry()
    }

    /// Create an edge ⟨src → dst⟩ of the given type with optional data.
    #[allow(clippy::too_many_arguments)]
    pub fn create_edge(
        &self,
        tenant: &str,
        graph: &str,
        src_type: &str,
        src_id: &Json,
        edge_type: &str,
        dst_type: &str,
        dst_id: &Json,
        data: Option<&str>,
    ) -> A1Result<()> {
        let data = match data {
            Some(text) => Some(Json::parse(text).map_err(|e| A1Error::Schema(e.to_string()))?),
            None => None,
        };
        let mut txn = self.transaction();
        txn.create_edge(
            tenant,
            graph,
            src_type,
            src_id,
            edge_type,
            dst_type,
            dst_id,
            data.as_ref(),
        )?;
        txn.commit_with_retry()
    }

    /// Delete one edge.
    #[allow(clippy::too_many_arguments)]
    pub fn delete_edge(
        &self,
        tenant: &str,
        graph: &str,
        src_type: &str,
        src_id: &Json,
        edge_type: &str,
        dst_type: &str,
        dst_id: &Json,
    ) -> A1Result<bool> {
        let mut txn = self.transaction();
        let existed =
            txn.delete_edge(tenant, graph, src_type, src_id, edge_type, dst_type, dst_id)?;
        txn.commit_with_retry()?;
        Ok(existed)
    }

    /// Apply a batch of ingest [`Mutation`]s as **one** FaRM transaction
    /// (group commit), routed through a round-robin backend. Catalog/schema
    /// resolution happens once per type for the whole batch, every applied
    /// mutation lands in the replication log (when `dr_enabled`), and the
    /// batch is replayed whole on optimistic conflict with bounded jittered
    /// backoff. Streaming callers should prefer `a1-ingest`, which adds
    /// partition parallelism, batching and at-least-once dedup on top.
    pub fn apply_batch(&self, muts: &[Mutation]) -> A1Result<()> {
        let machine = self.inner.pick_backend().machine;
        self.apply_batch_at(machine, muts)
    }

    /// [`A1Client::apply_batch`] pinned to a specific coordinator machine
    /// (ingest appliers pin batches to the partition's machine so new
    /// vertices allocate locally, §2.2).
    pub fn apply_batch_at(&self, machine: MachineId, muts: &[Mutation]) -> A1Result<()> {
        // The closure may run several times under the retry loop; the last
        // (successful) attempt's touched set wins, and invalidation happens
        // only after the commit is durable.
        let touched = std::sync::Mutex::new(Vec::new());
        run_a1(&self.inner.farm, machine, |tx| {
            let mut applier = BatchApplier::new(&self.inner, machine);
            for m in muts {
                applier.apply(tx, m)?;
            }
            *touched.lock().unwrap() = applier.take_touched();
            Ok(())
        })?;
        self.inner
            .invalidate_cached_vertices(&touched.into_inner().unwrap());
        Ok(())
    }

    /// Begin an explicit transaction grouping data-plane operations (§3).
    pub fn transaction(&self) -> A1Txn {
        let backend = self.inner.pick_backend().clone();
        let tx = self.inner.farm.begin(backend.machine);
        A1Txn {
            inner: self.inner.clone(),
            backend,
            tx: Some(tx),
            ops: Vec::new(),
            touched: Vec::new(),
        }
    }

    // -------------------------------------------------------------- queries

    /// Run an A1QL query (§3.4). Routed through a frontend to a random
    /// backend, which coordinates distributed execution.
    pub fn query(&self, tenant: &str, graph: &str, a1ql: &str) -> A1Result<QueryOutcome> {
        let backend = self.inner.pick_backend();
        let req = wire::encode_query_request(
            tenant,
            graph,
            a1ql,
            &self.client_id,
            self.inner.cfg.wire_format,
        );
        self.rpc_outcome(backend.machine, req)
    }

    /// Fetch the next page of a paged result (§3.4): the token routes to the
    /// coordinator that cached it.
    pub fn query_next(&self, token: &str) -> A1Result<QueryOutcome> {
        let parts: Vec<&str> = token.split(':').collect();
        if parts.len() != 3 || parts[0] != "c" {
            return Err(A1Error::ContinuationExpired);
        }
        let machine = MachineId(parts[1].parse().map_err(|_| A1Error::ContinuationExpired)?);
        let cid: u64 = parts[2].parse().map_err(|_| A1Error::ContinuationExpired)?;
        let req = wire::encode_page_request(cid, &self.client_id, self.inner.cfg.wire_format);
        self.rpc_outcome(machine, req)
    }

    fn rpc_outcome(&self, machine: MachineId, req: Vec<u8>) -> A1Result<QueryOutcome> {
        let payload = Bytes::from(req);
        // Client → frontend → backend enters through the fabric RPC path so
        // the request queues on the backend's worker pool like production.
        let reply = self
            .inner
            .farm
            .fabric()
            .rpc(machine, machine, payload)
            .map_err(|e| A1Error::Internal(format!("frontend rpc: {e}")))?;
        wire::decode_outcome(&reply)
    }
}

pub(crate) fn pk_value(vp: &VertexProxy, id: &Json) -> A1Result<a1_bond::Value> {
    let field = vp
        .def
        .schema
        .field(vp.def.primary_key)
        .ok_or_else(|| A1Error::Internal("pk field missing".into()))?;
    json_to_value(id, &field.ty)
}

// -------------------------------------------------------------- transaction

/// Replayable description of one data-plane operation (so optimistic
/// conflicts can be retried whole-transaction, Fig. 3).
#[derive(Clone)]
enum TxOp {
    CreateVertex {
        tenant: String,
        graph: String,
        ty: String,
        attrs: Json,
    },
    UpdateVertex {
        tenant: String,
        graph: String,
        ty: String,
        attrs: Json,
    },
    DeleteVertex {
        tenant: String,
        graph: String,
        ty: String,
        id: Json,
    },
    CreateEdge {
        tenant: String,
        graph: String,
        src_type: String,
        src_id: Json,
        edge_type: String,
        dst_type: String,
        dst_id: Json,
        data: Option<Json>,
    },
    DeleteEdge {
        tenant: String,
        graph: String,
        src_type: String,
        src_id: Json,
        edge_type: String,
        dst_type: String,
        dst_id: Json,
    },
}

/// An explicit client transaction grouping data-plane operations (§3).
pub struct A1Txn {
    inner: Arc<A1Inner>,
    backend: Arc<Backend>,
    tx: Option<Txn>,
    ops: Vec<TxOp>,
    /// Vertex addresses mutated by buffered ops — drained into the read
    /// cache's invalidation path after a successful commit, and rebuilt from
    /// scratch on every conflict replay (addresses can change across
    /// snapshots, e.g. a delete+recreate).
    touched: Vec<Addr>,
}

impl A1Txn {
    fn tx(&mut self) -> &mut Txn {
        self.tx.as_mut().expect("transaction already finished")
    }

    pub fn create_vertex(
        &mut self,
        tenant: &str,
        graph: &str,
        ty: &str,
        attrs: &Json,
    ) -> A1Result<()> {
        let op = TxOp::CreateVertex {
            tenant: tenant.into(),
            graph: graph.into(),
            ty: ty.into(),
            attrs: attrs.clone(),
        };
        self.apply(&op)?;
        self.ops.push(op);
        Ok(())
    }

    pub fn update_vertex(
        &mut self,
        tenant: &str,
        graph: &str,
        ty: &str,
        attrs: &Json,
    ) -> A1Result<()> {
        let op = TxOp::UpdateVertex {
            tenant: tenant.into(),
            graph: graph.into(),
            ty: ty.into(),
            attrs: attrs.clone(),
        };
        self.apply(&op)?;
        self.ops.push(op);
        Ok(())
    }

    pub fn delete_vertex(
        &mut self,
        tenant: &str,
        graph: &str,
        ty: &str,
        id: &Json,
    ) -> A1Result<()> {
        let op = TxOp::DeleteVertex {
            tenant: tenant.into(),
            graph: graph.into(),
            ty: ty.into(),
            id: id.clone(),
        };
        self.apply(&op)?;
        self.ops.push(op);
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    pub fn create_edge(
        &mut self,
        tenant: &str,
        graph: &str,
        src_type: &str,
        src_id: &Json,
        edge_type: &str,
        dst_type: &str,
        dst_id: &Json,
        data: Option<&Json>,
    ) -> A1Result<()> {
        let op = TxOp::CreateEdge {
            tenant: tenant.into(),
            graph: graph.into(),
            src_type: src_type.into(),
            src_id: src_id.clone(),
            edge_type: edge_type.into(),
            dst_type: dst_type.into(),
            dst_id: dst_id.clone(),
            data: data.cloned(),
        };
        self.apply(&op)?;
        self.ops.push(op);
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    pub fn delete_edge(
        &mut self,
        tenant: &str,
        graph: &str,
        src_type: &str,
        src_id: &Json,
        edge_type: &str,
        dst_type: &str,
        dst_id: &Json,
    ) -> A1Result<bool> {
        let op = TxOp::DeleteEdge {
            tenant: tenant.into(),
            graph: graph.into(),
            src_type: src_type.into(),
            src_id: src_id.clone(),
            edge_type: edge_type.into(),
            dst_type: dst_type.into(),
            dst_id: dst_id.clone(),
        };
        let existed = self.apply(&op)?;
        self.ops.push(op);
        Ok(existed)
    }

    /// Read a vertex inside the transaction (read-your-writes).
    pub fn get_vertex(
        &mut self,
        tenant: &str,
        graph: &str,
        ty: &str,
        id: &Json,
    ) -> A1Result<Option<Json>> {
        let inner = self.inner.clone();
        let backend = self.backend.clone();
        let proxies = inner.proxies(&backend, tenant, graph)?;
        let vp = proxies
            .vertex_type(ty)
            .ok_or_else(|| A1Error::NoSuchType(ty.to_string()))?
            .clone();
        let pk = pk_value(&vp, id)?;
        let tx = self.tx();
        match inner.store.vertex_by_pk(tx, &vp, &pk)? {
            Some(ptr) => Ok(Some(inner.store.vertex_to_json(tx, &vp, ptr.addr)?)),
            None => Ok(None),
        }
    }

    fn apply(&mut self, op: &TxOp) -> A1Result<bool> {
        let inner = self.inner.clone();
        let backend = self.backend.clone();
        match op {
            TxOp::CreateVertex {
                tenant,
                graph,
                ty,
                attrs,
            } => {
                let proxies = inner.proxies(&backend, tenant, graph)?;
                check_active(&proxies)?;
                let vp = proxies
                    .vertex_type(ty)
                    .ok_or_else(|| A1Error::NoSuchType(ty.clone()))?
                    .clone();
                let rec = record_from_json(&vp.def.schema, attrs)?;
                let tx = self.tx();
                inner.store.create_vertex(tx, &vp, rec.clone())?;
                if let Some(log) = &inner.replog {
                    let pk = record_to_json(&vp.def.schema, &rec)
                        .get(&pk_name(&vp))
                        .cloned()
                        .unwrap_or(Json::Null);
                    log.append(tx, &log_entry::vertex_upsert(tenant, graph, ty, &pk, attrs))?;
                }
                Ok(true)
            }
            TxOp::UpdateVertex {
                tenant,
                graph,
                ty,
                attrs,
            } => {
                let proxies = inner.proxies(&backend, tenant, graph)?;
                check_active(&proxies)?;
                let vp = proxies
                    .vertex_type(ty)
                    .ok_or_else(|| A1Error::NoSuchType(ty.clone()))?
                    .clone();
                let rec = record_from_json(&vp.def.schema, attrs)?;
                let pk = rec
                    .get(vp.def.primary_key)
                    .cloned()
                    .ok_or_else(|| A1Error::Schema("primary key missing".into()))?;
                let tx = self.tx();
                let ptr = inner
                    .store
                    .vertex_by_pk(tx, &vp, &pk)?
                    .ok_or_else(|| A1Error::NoSuchVertex(format!("{ty}:{pk:?}")))?;
                inner.store.update_vertex(tx, &vp, ptr.addr, rec)?;
                if let Some(log) = &inner.replog {
                    let pkj = crate::convert::value_to_json(&pk);
                    log.append(
                        tx,
                        &log_entry::vertex_upsert(tenant, graph, ty, &pkj, attrs),
                    )?;
                }
                self.touched.push(ptr.addr);
                Ok(true)
            }
            TxOp::DeleteVertex {
                tenant,
                graph,
                ty,
                id,
            } => {
                let proxies = inner.proxies(&backend, tenant, graph)?;
                let vp = proxies
                    .vertex_type(ty)
                    .ok_or_else(|| A1Error::NoSuchType(ty.clone()))?
                    .clone();
                let pk = pk_value(&vp, id)?;
                let tx = self.tx();
                let ptr = inner
                    .store
                    .vertex_by_pk(tx, &vp, &pk)?
                    .ok_or_else(|| A1Error::NoSuchVertex(format!("{ty}:{id}")))?;
                // DR: log deletes for the vertex and all its edges (§4).
                if let Some(log) = &inner.replog {
                    let edge_logs =
                        collect_edge_deletes(&inner, tx, &proxies, tenant, graph, ptr.addr)?;
                    for e in edge_logs {
                        log.append(tx, &e)?;
                    }
                    log.append(tx, &log_entry::vertex_delete(tenant, graph, ty, id))?;
                }
                inner
                    .store
                    .delete_vertex(tx, &proxies.graph, &vp, ptr.addr)?;
                self.touched.push(ptr.addr);
                Ok(true)
            }
            TxOp::CreateEdge {
                tenant,
                graph,
                src_type,
                src_id,
                edge_type,
                dst_type,
                dst_id,
                data,
            } => {
                let proxies = inner.proxies(&backend, tenant, graph)?;
                check_active(&proxies)?;
                let (src, dst, et) = resolve_edge(
                    &inner,
                    self.tx.as_mut().unwrap(),
                    &proxies,
                    src_type,
                    src_id,
                    edge_type,
                    dst_type,
                    dst_id,
                )?;
                let ep = proxies.edge_type_by_id(et).expect("resolved above").clone();
                let rec = match data {
                    Some(d) => Some(record_from_json(&ep.def.schema, d)?),
                    None => None,
                };
                let tx = self.tx();
                inner
                    .store
                    .create_edge(tx, &proxies.graph, et, src, dst, rec)?;
                if let Some(log) = &inner.replog {
                    log.append(
                        tx,
                        &log_entry::edge_upsert(
                            tenant,
                            graph,
                            src_type,
                            src_id,
                            edge_type,
                            dst_type,
                            dst_id,
                            data.as_ref().unwrap_or(&Json::Null),
                        ),
                    )?;
                }
                self.touched.push(src);
                self.touched.push(dst);
                Ok(true)
            }
            TxOp::DeleteEdge {
                tenant,
                graph,
                src_type,
                src_id,
                edge_type,
                dst_type,
                dst_id,
            } => {
                let proxies = inner.proxies(&backend, tenant, graph)?;
                let (src, dst, et) = resolve_edge(
                    &inner,
                    self.tx.as_mut().unwrap(),
                    &proxies,
                    src_type,
                    src_id,
                    edge_type,
                    dst_type,
                    dst_id,
                )?;
                let tx = self.tx();
                let existed = inner.store.delete_edge(tx, &proxies.graph, et, src, dst)?;
                if existed {
                    if let Some(log) = &inner.replog {
                        log.append(
                            tx,
                            &log_entry::edge_delete(
                                tenant, graph, src_type, src_id, edge_type, dst_type, dst_id,
                            ),
                        )?;
                    }
                    self.touched.push(src);
                    self.touched.push(dst);
                }
                Ok(existed)
            }
        }
    }

    /// Commit. On optimistic conflict the error is retryable; use
    /// [`A1Txn::commit_with_retry`] for the canonical loop.
    pub fn commit(mut self) -> A1Result<()> {
        let tx = self.tx.take().expect("transaction already finished");
        tx.commit()?;
        self.inner.invalidate_cached_vertices(&self.touched);
        Ok(())
    }

    /// Commit with the Fig. 3 retry loop: on conflict, replay every buffered
    /// operation in a fresh transaction. Retries back off with bounded
    /// jittered sleeps so concurrent writers hammering a hot key (e.g.
    /// parallel ingest appliers adding edges at one hub vertex)
    /// desynchronize instead of livelocking.
    pub fn commit_with_retry(mut self) -> A1Result<()> {
        let max = self.inner.farm.config().max_txn_retries;
        let mut tx = self.tx.take().expect("transaction already finished");
        for attempt in 0..=max {
            match tx.commit() {
                Ok(_) => {
                    self.inner.invalidate_cached_vertices(&self.touched);
                    return Ok(());
                }
                Err(e) if e.is_retryable() && attempt < max => {
                    conflict_backoff(&self.inner.farm, attempt, 300);
                    // Replay the ops against a fresh snapshot; the touched
                    // set is rebuilt by the replay (addresses may differ).
                    self.tx = Some(self.inner.farm.begin(self.backend.machine));
                    self.touched.clear();
                    let ops = self.ops.clone();
                    let mut failed = false;
                    for op in &ops {
                        match self.apply(op) {
                            Ok(_) => {}
                            Err(err) if err.is_retryable() => {
                                failed = true;
                                break;
                            }
                            Err(err) => return Err(err),
                        }
                    }
                    let fresh = self.tx.take().expect("set above");
                    if failed {
                        fresh.abort();
                        self.tx = Some(self.inner.farm.begin(self.backend.machine));
                        tx = self.tx.take().unwrap();
                        // loop will retry commit of an empty txn → replay again
                        continue;
                    }
                    tx = fresh;
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(A1Error::Storage(a1_farm::FarmError::Conflict))
    }

    pub fn abort(mut self) {
        if let Some(tx) = self.tx.take() {
            tx.abort();
        }
    }
}

fn pk_name(vp: &VertexProxy) -> String {
    vp.def
        .schema
        .field(vp.def.primary_key)
        .map(|f| f.name.clone())
        .unwrap_or_default()
}

pub(crate) fn check_active(proxies: &GraphProxies) -> A1Result<()> {
    if proxies.graph.meta.state != LifecycleState::Active {
        return Err(A1Error::InvalidState("graph is being deleted".into()));
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn resolve_edge(
    inner: &A1Inner,
    tx: &mut Txn,
    proxies: &GraphProxies,
    src_type: &str,
    src_id: &Json,
    edge_type: &str,
    dst_type: &str,
    dst_id: &Json,
) -> A1Result<(Addr, Addr, TypeId)> {
    let sp = proxies
        .vertex_type(src_type)
        .ok_or_else(|| A1Error::NoSuchType(src_type.to_string()))?;
    let dp = proxies
        .vertex_type(dst_type)
        .ok_or_else(|| A1Error::NoSuchType(dst_type.to_string()))?;
    let et = proxies
        .edge_type(edge_type)
        .ok_or_else(|| A1Error::NoSuchType(edge_type.to_string()))?
        .def
        .id;
    let src = inner
        .store
        .vertex_by_pk(tx, sp, &pk_value(sp, src_id)?)?
        .ok_or_else(|| A1Error::NoSuchVertex(format!("{src_type}:{src_id}")))?;
    let dst = inner
        .store
        .vertex_by_pk(tx, dp, &pk_value(dp, dst_id)?)?
        .ok_or_else(|| A1Error::NoSuchVertex(format!("{dst_type}:{dst_id}")))?;
    Ok((src.addr, dst.addr, et))
}

/// For DR: enumerate all edges of a vertex and produce delete log entries
/// keyed by primary keys (recovery cannot use addresses).
pub(crate) fn collect_edge_deletes(
    inner: &A1Inner,
    tx: &mut Txn,
    proxies: &GraphProxies,
    tenant: &str,
    graph: &str,
    addr: Addr,
) -> A1Result<Vec<Json>> {
    let (_, hdr) = crate::edges::read_header(tx, addr)?;
    let self_pk = vertex_pk_json(inner, tx, proxies, addr)?;
    let mut out = Vec::new();
    for dir in [Dir::Out, Dir::In] {
        let hes = crate::edges::enumerate(
            tx,
            &proxies.graph.edge_tree,
            addr,
            &hdr,
            dir,
            None,
            usize::MAX,
        )?;
        for he in hes {
            let other_pk = vertex_pk_json(inner, tx, proxies, he.other)?;
            let Some((self_ty, self_pk)) = &self_pk else {
                continue;
            };
            let Some((other_ty, other_pk)) = &other_pk else {
                continue;
            };
            let Some(et) = proxies.edge_type_by_id(he.edge_type) else {
                continue;
            };
            let entry = match dir {
                Dir::Out => log_entry::edge_delete(
                    tenant,
                    graph,
                    self_ty,
                    self_pk,
                    &et.def.name,
                    other_ty,
                    other_pk,
                ),
                Dir::In => log_entry::edge_delete(
                    tenant,
                    graph,
                    other_ty,
                    other_pk,
                    &et.def.name,
                    self_ty,
                    self_pk,
                ),
            };
            out.push(entry);
        }
    }
    Ok(out)
}

fn vertex_pk_json(
    inner: &A1Inner,
    tx: &mut Txn,
    proxies: &GraphProxies,
    addr: Addr,
) -> A1Result<Option<(String, Json)>> {
    let ptr = vertex_ptr(addr);
    let Ok(buf) = tx.read(ptr) else {
        return Ok(None);
    };
    let hdr = crate::vertex::VertexHeader::decode(buf.data())?;
    let Some(vp) = proxies.vertex_type_by_id(hdr.type_id) else {
        return Ok(None);
    };
    let rec = inner.store.read_vertex_data(tx, &hdr)?.unwrap_or_default();
    let pk = rec
        .get(vp.def.primary_key)
        .map(crate::convert::value_to_json)
        .unwrap_or(Json::Null);
    Ok(Some((vp.def.name.clone(), pk)))
}
