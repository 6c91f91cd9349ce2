//! The FaRM cluster: machines + CM + clock + commit protocol execution.

use crate::addr::{Addr, Ptr, RegionId};
use crate::clock::{GlobalClock, MachineClock, TsRegistry};
use crate::cm::{ConfigManager, Placement, ReconfigAction};
use crate::error::{FarmError, FarmResult};
use crate::layout::{ObjHeader, HEADER, STATE_FREE, STATE_LIVE, STATE_TOMBSTONE};
use crate::pyco::PycoDriver;
use crate::region::{OldVersion, Region};
use crate::store::FarmMachine;
use crate::txn::{compose_object, Hint, ObjBuf, Txn, WriteOp};
use a1_rdma::{Fabric, FabricConfig, MachineId, NetError, ReadSpec};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    pub fabric: FabricConfig,
    /// Region size in bytes (2 GB in the paper; smaller here so tests can
    /// exercise multi-region behaviour).
    pub region_size: usize,
    /// Desired replica count (3 in production, §2.1).
    pub replicas: usize,
    /// Retry budget for [`FarmCluster::run`].
    pub max_txn_retries: usize,
    /// How many times a reader re-polls a locked object before giving up.
    pub lock_wait_spins: u32,
    /// Automatically run failure detection when a kill is injected.
    pub auto_detect_failures: bool,
    /// Initial per-machine clock uncertainty bound (lease margins, §5.1).
    pub clock_uncertainty_ns: u64,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            fabric: FabricConfig::default(),
            region_size: 4 << 20,
            replicas: 3,
            max_txn_retries: 256,
            lock_wait_spins: 1_000_000,
            auto_detect_failures: true,
            clock_uncertainty_ns: 10_000,
        }
    }
}

impl FarmConfig {
    /// Convenience: an `n`-machine cluster for tests and examples.
    pub fn small(n: u32) -> FarmConfig {
        FarmConfig {
            fabric: FabricConfig {
                machines: n,
                ..FabricConfig::default()
            },
            region_size: 1 << 20,
            ..FarmConfig::default()
        }
    }
}

/// Operation counters (commits, aborts, etc.).
#[derive(Debug, Default)]
pub struct ClusterStats {
    pub commits: AtomicU64,
    pub aborts: AtomicU64,
    pub allocated_objects: AtomicU64,
    pub freed_objects: AtomicU64,
    pub regions_created: AtomicU64,
}

/// A running FaRM cluster (the paper's "set of machines each running a FaRM
/// process", §2.1). All state is in-process; machines are simulated.
pub struct FarmCluster {
    cfg: FarmConfig,
    fabric: Arc<Fabric>,
    clock: GlobalClock,
    /// Per-machine physical clocks over the fabric's injectable time source
    /// (skew/uncertainty live here; lease checks read them).
    machine_clocks: Vec<Arc<MachineClock>>,
    registry: Arc<TsRegistry>,
    machines: Vec<Arc<FarmMachine>>,
    cm: ConfigManager,
    pyco: PycoDriver,
    paused: AtomicBool,
    /// Regions irrecoverably lost (disaster-recovery territory, §4).
    lost_regions: Mutex<HashSet<u32>>,
    /// Regions whose replicas are all in crashed-but-restartable processes.
    pending_restart: Mutex<HashSet<u32>>,
    root: Mutex<Ptr>,
    stats: ClusterStats,
}

impl FarmCluster {
    /// Boot a cluster: create machines, elect the CM, create the first
    /// region, and allocate the well-known root object.
    pub fn start(cfg: FarmConfig) -> Arc<FarmCluster> {
        let fabric = Fabric::new(cfg.fabric.clone());
        let machines: Vec<Arc<FarmMachine>> = (0..cfg.fabric.machines)
            .map(|i| FarmMachine::new(MachineId(i), fabric.clone()))
            .collect();
        let racks: Vec<u32> = (0..cfg.fabric.machines)
            .map(|i| fabric.rack_of(MachineId(i)))
            .collect();
        let cm = ConfigManager::new(racks, cfg.replicas);
        let machine_clocks = (0..cfg.fabric.machines)
            .map(|_| MachineClock::new(fabric.clock().clone(), cfg.clock_uncertainty_ns))
            .collect();
        let cluster = Arc::new(FarmCluster {
            fabric,
            clock: GlobalClock::new(),
            machine_clocks,
            registry: TsRegistry::new(),
            machines,
            cm,
            pyco: PycoDriver::new(),
            paused: AtomicBool::new(false),
            lost_regions: Mutex::new(HashSet::new()),
            pending_restart: Mutex::new(HashSet::new()),
            root: Mutex::new(Ptr::NULL),
            stats: ClusterStats::default(),
            cfg,
        });
        // Bootstrap: region 0 on machine 0 and the root object in it.
        cluster
            .create_region(Some(MachineId(0)))
            .expect("bootstrap region");
        let root = cluster
            .clone()
            .run(MachineId(0), |tx| {
                tx.alloc(
                    ROOT_PAYLOAD,
                    Hint::Machine(MachineId(0)),
                    &[0; ROOT_PAYLOAD],
                )
            })
            .expect("bootstrap root object");
        *cluster.root.lock() = root;
        cluster
    }

    /// The well-known root object: a fixed-size scratch block whose payload
    /// upper layers use to anchor their catalogs (A1 stores the catalog
    /// B-tree pointer here, §3.1).
    pub fn root_ptr(&self) -> Ptr {
        *self.root.lock()
    }

    pub fn config(&self) -> &FarmConfig {
        &self.cfg
    }

    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Machine `m`'s physical clock (skew injection, lease margins). Panics
    /// on an unknown machine id.
    pub fn machine_clock(&self, m: MachineId) -> &Arc<MachineClock> {
        &self.machine_clocks[m.0 as usize]
    }

    pub fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    pub fn registry(&self) -> &Arc<TsRegistry> {
        &self.registry
    }

    pub fn cm(&self) -> &ConfigManager {
        &self.cm
    }

    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    pub fn num_machines(&self) -> u32 {
        self.cfg.fabric.machines
    }

    pub fn machine(&self, id: MachineId) -> Option<&Arc<FarmMachine>> {
        self.machines.get(id.0 as usize)
    }

    /// Primary host of an address — the query engine's "map pointers to
    /// physical hosts" metadata operation (§3.4, purely local).
    pub fn primary_of(&self, addr: Addr) -> Option<MachineId> {
        self.cm.primary_of(addr.region())
    }

    // ---------------------------------------------------------------- txns

    /// Begin a read-write transaction coordinated by `origin`.
    pub fn begin(self: &Arc<Self>, origin: MachineId) -> Txn {
        let read_ts = self.clock.now();
        let guard = self.registry.register(read_ts);
        let tx_id = self.clock.tick();
        Txn::new(self.clone(), origin, read_ts, tx_id, false, Some(guard))
    }

    /// Begin a read-only snapshot transaction.
    pub fn begin_read_only(self: &Arc<Self>, origin: MachineId) -> Txn {
        let read_ts = self.clock.now();
        self.begin_read_only_at(origin, read_ts)
    }

    /// Begin a read-only transaction at a specific snapshot — used by query
    /// workers to join the coordinator's snapshot so a distributed query
    /// reads one consistent version across the whole cluster (§3.4).
    pub fn begin_read_only_at(self: &Arc<Self>, origin: MachineId, ts: u64) -> Txn {
        let guard = self.registry.register(ts);
        Txn::new(self.clone(), origin, ts, 0, true, Some(guard))
    }

    /// Run a read-write transaction with the canonical retry loop
    /// (paper Fig. 3): retry on conflicts with exponential backoff.
    pub fn run<T>(
        self: &Arc<Self>,
        origin: MachineId,
        mut f: impl FnMut(&mut Txn) -> FarmResult<T>,
    ) -> FarmResult<T> {
        // The canonical Fig. 3 loop retries until commit; the (large) retry
        // budget only bounds pathological livelock. Backoff is jittered from
        // the cluster RNG so contending retriers desynchronize — and so a
        // seeded simulation run replays the same jitter sequence.
        let mut backoff_us = 2u64;
        for attempt in 0..=self.cfg.max_txn_retries {
            self.check_paused()?;
            let mut tx = self.begin(origin);
            match f(&mut tx) {
                Ok(v) => match tx.commit() {
                    Ok(_) => return Ok(v),
                    Err(e) if e.is_retryable() && attempt < self.cfg.max_txn_retries => {}
                    Err(e) => return Err(e),
                },
                Err(e) if e.is_retryable() && attempt < self.cfg.max_txn_retries => {
                    tx.abort();
                }
                Err(e) => {
                    tx.abort();
                    return Err(e);
                }
            }
            let jitter = 1 + self.fabric.rng().gen_range(7);
            self.fabric.clock().sleep(std::time::Duration::from_micros(
                (backoff_us + jitter).min(300),
            ));
            backoff_us = backoff_us.saturating_mul(2);
        }
        Err(FarmError::Conflict)
    }

    fn check_paused(&self) -> FarmResult<()> {
        if self.paused.load(Ordering::Acquire) {
            Err(FarmError::Paused)
        } else {
            Ok(())
        }
    }

    // ------------------------------------------------------------- regions

    /// Create and host a new region (primary on `preferred` if possible).
    pub fn create_region(&self, preferred: Option<MachineId>) -> FarmResult<Arc<Region>> {
        let (id, placement) = self
            .cm
            .place_new_region(preferred)
            .ok_or(FarmError::OutOfMemory)?;
        let mut primary_region = None;
        for m in placement.replicas() {
            let machine = &self.machines[m.0 as usize];
            let is_primary = m == placement.primary;
            let region = machine.host_new_region(id, self.cfg.region_size, is_primary, &self.pyco);
            if is_primary {
                primary_region = Some(region);
            }
        }
        self.stats.regions_created.fetch_add(1, Ordering::Relaxed);
        primary_region.ok_or(FarmError::OutOfMemory)
    }

    /// Resolve a region to its primary replica, retrying once through
    /// failure detection if the primary looks dead.
    pub(crate) fn resolve(&self, rid: RegionId) -> FarmResult<(Arc<Region>, MachineId)> {
        self.check_paused()?;
        for _ in 0..2 {
            if self.lost_regions.lock().contains(&rid.0) {
                return Err(FarmError::DataLoss(rid));
            }
            let Some(primary) = self.cm.primary_of(rid) else {
                return Err(FarmError::Unavailable(format!("region {rid} unknown")));
            };
            if !self.fabric.is_alive(primary) {
                self.detect_failures();
                continue;
            }
            match self.machines[primary.0 as usize].region(rid) {
                Some(region) => return Ok((region, primary)),
                None => {
                    // Process crashed but machine "up"? Treat as failure.
                    self.detect_failures();
                }
            }
        }
        self.check_paused()?;
        Err(FarmError::Unavailable(format!(
            "region {rid} has no reachable primary"
        )))
    }

    // ---------------------------------------------------------- object ops

    /// One-sided read of header + payload; spins while the object is locked
    /// by an in-flight commit. Returns the parsed header and payload bytes
    /// (`len` bytes, re-reading if the size hint was stale).
    pub(crate) fn read_raw(&self, origin: MachineId, ptr: Ptr) -> FarmResult<(ObjHeader, Bytes)> {
        let rid = ptr.addr.region();
        let off = ptr.addr.offset() as usize;
        let mut want = ptr.size as usize;
        let mut spins = 0u32;
        // Resolve once up front: a CM lookup + pause check + liveness probe
        // per lock-wait iteration would dominate the spin (hot objects are
        // spun on by many readers at once). Re-resolve only when the fabric
        // reports the primary unreachable, or every 64th spin so a
        // reconfiguration during a long wait is still picked up.
        let (_, mut primary) = self.resolve(rid)?;
        loop {
            let raw = match self
                .fabric
                .read(origin, primary, rid.0 as u64, off, HEADER + want)
            {
                Ok(raw) => raw,
                Err(NetError::MachineUnreachable(_)) => {
                    self.detect_failures();
                    primary = self.resolve(rid)?.1;
                    self.fabric
                        .read(origin, primary, rid.0 as u64, off, HEADER + want)?
                }
                Err(e) => return Err(e.into()),
            };
            let h = ObjHeader::parse(&raw).ok_or(FarmError::Unavailable("short read".into()))?;
            if h.is_locked() || (h.capacity != 0 && h.state != STATE_FREE && !h.is_committed()) {
                // Locked by an in-flight commit, or reserved but not yet
                // committed: either an in-flight commit whose apply phase
                // hasn't stamped this object yet (a pointer to it can
                // already be visible through an earlier-applied write of the
                // same commit), or an allocation that is about to be rolled
                // back (then the state flips to FREE). Both resolve promptly
                // — spin-wait.
                spins += 1;
                if spins > self.cfg.lock_wait_spins {
                    return Err(FarmError::Conflict);
                }
                std::hint::spin_loop();
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                    primary = self.resolve(rid)?.1;
                }
                continue;
            }
            if h.capacity == 0 || h.state == STATE_FREE {
                return Err(FarmError::NotFound(ptr.addr));
            }
            let len = h.len as usize;
            if len > want {
                want = len;
                continue; // stale size hint: re-read with the real length
            }
            let payload = raw.slice(HEADER..HEADER + len);
            return Ok((h, payload));
        }
    }

    /// One-sided read of an object's **header only** — the version-probe
    /// primitive behind the a1-core read cache. Follows the same
    /// resolve/lock-spin/re-resolve protocol as [`read_raw`](Self::read_raw)
    /// but fetches `HEADER` bytes instead of header + payload, so a
    /// revalidation probe of a cached multi-KB record costs a header-sized
    /// transfer. Freed or never-allocated blocks return `NotFound` — a
    /// cached entry whose block was freed (or whose region migrated and was
    /// reused) can therefore never revalidate successfully.
    pub(crate) fn probe_header(&self, origin: MachineId, addr: Addr) -> FarmResult<ObjHeader> {
        let rid = addr.region();
        let off = addr.offset() as usize;
        let mut spins = 0u32;
        let (_, mut primary) = self.resolve(rid)?;
        loop {
            let raw = match self.fabric.read(origin, primary, rid.0 as u64, off, HEADER) {
                Ok(raw) => raw,
                Err(NetError::MachineUnreachable(_)) => {
                    self.detect_failures();
                    primary = self.resolve(rid)?.1;
                    self.fabric
                        .read(origin, primary, rid.0 as u64, off, HEADER)?
                }
                Err(e) => return Err(e.into()),
            };
            let h = ObjHeader::parse(&raw).ok_or(FarmError::Unavailable("short read".into()))?;
            if h.is_locked() || (h.capacity != 0 && h.state != STATE_FREE && !h.is_committed()) {
                // Same transient states as `read_raw`: an in-flight commit
                // holds the lock (or hasn't stamped the version yet) — wait
                // it out rather than reporting a spurious mismatch.
                spins += 1;
                if spins > self.cfg.lock_wait_spins {
                    return Err(FarmError::Conflict);
                }
                std::hint::spin_loop();
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                    primary = self.resolve(rid)?.1;
                }
                continue;
            }
            if h.capacity == 0 || h.state == STATE_FREE {
                return Err(FarmError::NotFound(addr));
            }
            return Ok(h);
        }
    }

    /// Doorbell-batched combination of [`read_raw`](Self::read_raw) and
    /// [`probe_header`](Self::probe_header): every spec `(addr, want)` with
    /// `want > 0` is a header+payload read of a `want`-byte object, and
    /// `want == 0` is a header-only version probe — so a morsel's cache
    /// revalidation probes ride in the **same** post as its header reads.
    ///
    /// Specs are grouped by resolved primary (one region resolve per
    /// distinct region, per the PR 5 resolve-once convention) and the groups
    /// go out together through [`Fabric::read_scatter`]: one doorbell per
    /// primary, posted in `MachineId` order (so the fault injector sees the
    /// same sequence every run), one wait for the slowest. Entries that
    /// come back locked, uncommitted, or with a stale size hint fall back to
    /// the scalar path, which owns the lock-wait spin protocol; a batch-level
    /// network failure falls back to the scalar path for the whole group so
    /// per-entry errors and re-resolution behave exactly as scalar reads do.
    ///
    /// Returns per-entry results in input order plus the number of one-sided
    /// read posts issued (doorbells + scalar fallback reads) for the
    /// caller's verb accounting.
    ///
    /// [`Fabric::read_scatter`]: a1_rdma::Fabric::read_scatter
    pub(crate) fn read_raw_many(
        &self,
        origin: MachineId,
        specs: &[(Addr, u32)],
    ) -> (Vec<FarmResult<(ObjHeader, Bytes)>>, u64) {
        let mut out: Vec<Option<FarmResult<(ObjHeader, Bytes)>>> = vec![None; specs.len()];
        let mut verbs = 0u64;
        // Resolve each distinct region once, then group spec indices by
        // primary so same-destination reads share a doorbell.
        let mut resolved: HashMap<RegionId, FarmResult<MachineId>> = HashMap::new();
        let mut groups: BTreeMap<MachineId, Vec<usize>> = BTreeMap::new();
        for (i, &(addr, _)) in specs.iter().enumerate() {
            let rid = addr.region();
            let primary = resolved
                .entry(rid)
                .or_insert_with(|| self.resolve(rid).map(|(_, p)| p));
            match primary {
                Ok(p) => groups.entry(*p).or_default().push(i),
                Err(e) => out[i] = Some(Err(e.clone())),
            }
        }
        let scalar = |i: usize, verbs: &mut u64| {
            let (addr, want) = specs[i];
            *verbs += 1;
            if want == 0 {
                self.probe_header(origin, addr).map(|h| (h, Bytes::new()))
            } else {
                self.read_raw(origin, Ptr::new(addr, want))
            }
        };
        let batches: Vec<(MachineId, Vec<ReadSpec>)> = groups
            .iter()
            .map(|(&primary, idxs)| {
                let batch = idxs
                    .iter()
                    .map(|&i| {
                        let (addr, want) = specs[i];
                        (
                            addr.region().0 as u64,
                            addr.offset() as usize,
                            HEADER + want as usize,
                        )
                    })
                    .collect();
                (primary, batch)
            })
            .collect();
        let posted = self.fabric.read_scatter(origin, &batches);
        for (idxs, posted) in groups.into_values().zip(posted) {
            match posted {
                Ok(results) => {
                    verbs += 1;
                    for (&i, res) in idxs.iter().zip(results) {
                        let (addr, want) = specs[i];
                        out[i] = Some(match res {
                            Ok(raw) => {
                                match ObjHeader::parse(&raw) {
                                    None => Err(FarmError::Unavailable("short read".into())),
                                    Some(h)
                                        if h.is_locked()
                                            || (h.capacity != 0
                                                && h.state != STATE_FREE
                                                && !h.is_committed()) =>
                                    {
                                        // Locked by an in-flight commit: the
                                        // scalar path owns the spin protocol.
                                        scalar(i, &mut verbs)
                                    }
                                    Some(h) if h.capacity == 0 || h.state == STATE_FREE => {
                                        Err(FarmError::NotFound(addr))
                                    }
                                    Some(h) if want > 0 && h.len > want => {
                                        // Stale size hint: re-read scalar
                                        // with the real length.
                                        scalar(i, &mut verbs)
                                    }
                                    Some(h) => {
                                        let len = if want == 0 { 0 } else { h.len as usize };
                                        Ok((h, raw.slice(HEADER..HEADER + len)))
                                    }
                                }
                            }
                            // Per-entry segment errors surface like scalar
                            // reads of a bad address.
                            Err(e) => Err(e.into()),
                        });
                    }
                }
                Err(NetError::MachineUnreachable(_)) => {
                    // The whole post failed (dead primary or partition):
                    // the scalar path re-detects and re-resolves per entry.
                    self.detect_failures();
                    for &i in &idxs {
                        out[i] = Some(scalar(i, &mut verbs));
                    }
                }
                Err(e) => {
                    for &i in &idxs {
                        out[i] = Some(Err(e.clone().into()));
                    }
                }
            }
        }
        (
            out.into_iter()
                .map(|r| r.expect("every spec slot filled"))
                .collect(),
            verbs,
        )
    }

    /// Serve a read-only snapshot read from the primary's old-version store:
    /// the one-object case of [`read_old_versions`](Self::read_old_versions).
    pub(crate) fn read_old_version(
        &self,
        origin: MachineId,
        ptr: Ptr,
        read_ts: u64,
    ) -> FarmResult<ObjBuf> {
        let (mut found, _) = self.read_old_versions(origin, &[ptr], read_ts);
        found.pop().expect("one ptr in, one result out")
    }

    /// Old-version fetches (FaRMv2 takes an extra round trip to the primary
    /// for one), grouped per destination primary: each remote group is
    /// **one** post through [`Fabric::post_reads`] — fault-gated and
    /// accounted like any other one-sided read, in `MachineId` order, all
    /// groups in flight together — so a work op that trips over several
    /// concurrently-updated objects pays a single extra doorbell per machine
    /// for its snapshot reads, not one per vertex, and a primary the reader
    /// is partitioned from does not answer. Returns per-entry results in
    /// input order plus the number of posts charged (remote groups only;
    /// local lookups are memory reads).
    ///
    /// [`Fabric::post_reads`]: a1_rdma::Fabric::post_reads
    pub(crate) fn read_old_versions(
        &self,
        origin: MachineId,
        ptrs: &[Ptr],
        read_ts: u64,
    ) -> (Vec<FarmResult<ObjBuf>>, u64) {
        let mut out: Vec<Option<FarmResult<ObjBuf>>> = vec![None; ptrs.len()];
        let mut groups: BTreeMap<MachineId, Vec<usize>> = BTreeMap::new();
        let mut regions: HashMap<RegionId, FarmResult<(Arc<Region>, MachineId)>> = HashMap::new();
        for (i, ptr) in ptrs.iter().enumerate() {
            let rid = ptr.addr.region();
            match regions
                .entry(rid)
                .or_insert_with(|| self.resolve(rid))
                .as_ref()
            {
                Ok((_, p)) => groups.entry(*p).or_default().push(i),
                Err(e) => out[i] = Some(Err(e.clone())),
            }
        }
        let posts: Vec<(MachineId, usize, usize)> = groups
            .iter()
            .filter(|(&primary, _)| primary != origin)
            .map(|(&primary, idxs)| {
                let total = idxs.iter().map(|&i| ptrs[i].size as usize).sum();
                (primary, idxs.len(), total)
            })
            .collect();
        let verbs = posts.len() as u64;
        let mut posted = self.fabric.post_reads(origin, &posts).into_iter();
        for (primary, idxs) in groups {
            let delivered = if primary == origin {
                Ok(())
            } else {
                posted.next().expect("one ruling per remote group")
            };
            for i in idxs {
                out[i] = Some(match &delivered {
                    Ok(()) => self.lookup_old_version(&regions, ptrs[i], read_ts),
                    Err(e) => Err(e.clone().into()),
                });
            }
        }
        (
            out.into_iter()
                .map(|r| r.expect("every ptr slot filled"))
                .collect(),
            verbs,
        )
    }

    /// The store-side half of an old-version read: meta lookup only, no
    /// network.
    fn lookup_old_version(
        &self,
        regions: &HashMap<RegionId, FarmResult<(Arc<Region>, MachineId)>>,
        ptr: Ptr,
        read_ts: u64,
    ) -> FarmResult<ObjBuf> {
        let region = match regions.get(&ptr.addr.region()) {
            Some(Ok((region, _))) => region,
            Some(Err(e)) => return Err(e.clone()),
            None => return Err(FarmError::Unavailable("unresolved region".into())),
        };
        let off = ptr.addr.offset();
        let found = region
            .with_meta(|meta| match meta.snapshot_lookup(off, read_ts) {
                Some(old) => Some((old.version, old.state, Bytes::copy_from_slice(&old.payload))),
                None if read_ts < meta.history_floor => None,
                None => Some((0, STATE_FREE, Bytes::new())),
            })
            .ok_or_else(|| FarmError::Unavailable("old-version read hit a backup".into()))?;
        match found {
            None => Err(FarmError::SnapshotTooOld),
            Some((0, _, _)) => Err(FarmError::NotFound(ptr.addr)),
            Some((_, STATE_TOMBSTONE, _)) => Err(FarmError::NotFound(ptr.addr)),
            Some((version, _, payload)) => Ok(ObjBuf {
                ptr,
                version,
                capacity: payload.len().max(ptr.size as usize) as u32,
                data: payload,
            }),
        }
    }

    /// Eagerly reserve a block for a new object (invisible until commit).
    pub(crate) fn alloc_object(
        &self,
        origin: MachineId,
        size: usize,
        hint: Hint,
    ) -> FarmResult<(Ptr, u32)> {
        self.check_paused()?;
        // 1. Resolve the hint to a target region or machine.
        if let Hint::Near(addr) = hint {
            if let Ok((region, primary)) = self.resolve(addr.region()) {
                if let Some(got) = self.try_alloc_in(&region, primary, origin, size) {
                    return Ok(got);
                }
                // Hint region full: fall through to its primary machine.
                return self.alloc_on_machine(origin, primary, size);
            }
        }
        let target = match hint {
            Hint::Local => origin,
            Hint::Machine(m) => m,
            Hint::Near(_) => origin, // unreachable hint region: allocate locally
        };
        self.alloc_on_machine(origin, target, size)
    }

    fn alloc_on_machine(
        &self,
        origin: MachineId,
        target: MachineId,
        size: usize,
    ) -> FarmResult<(Ptr, u32)> {
        let target = if self.fabric.is_alive(target) {
            target
        } else {
            origin
        };
        if target != origin {
            // Remote allocation request costs a message.
            self.fabric.charge_ns(self.cfg.fabric.latency.rpc_ns(
                self.fabric.rack_of(origin) == self.fabric.rack_of(target),
                64,
            ));
        }
        let machine = self
            .machines
            .get(target.0 as usize)
            .ok_or_else(|| FarmError::Unavailable(format!("no machine {target}")))?;
        for region in machine.primary_regions() {
            if let Some(got) = self.try_alloc_in(&region, target, origin, size) {
                return Ok(got);
            }
        }
        // Try reclaiming deferred frees, then retry once.
        self.gc();
        for region in machine.primary_regions() {
            if let Some(got) = self.try_alloc_in(&region, target, origin, size) {
                return Ok(got);
            }
        }
        // All local regions full: grow the cluster by one region.
        let region = self.create_region(Some(target))?;
        let primary = self.cm.primary_of(region.id).unwrap_or(target);
        self.try_alloc_in(&region, primary, origin, size)
            .map(Ok)
            .unwrap_or(Err(FarmError::OutOfMemory))
    }

    fn try_alloc_in(
        &self,
        region: &Arc<Region>,
        _primary: MachineId,
        _origin: MachineId,
        size: usize,
    ) -> Option<(Ptr, u32)> {
        let (off, capacity) = region.with_meta(|meta| meta.alloc.alloc(size))??;
        // Reserve: header with version 0 (uncommitted) so scans see the block.
        let h = ObjHeader {
            lock: 0,
            version: 0,
            capacity,
            state: STATE_LIVE,
            len: size as u32,
        };
        region.seg.write(off as usize, &h.encode())?;
        self.stats.allocated_objects.fetch_add(1, Ordering::Relaxed);
        Some((Ptr::new(Addr::new(region.id, off), size as u32), capacity))
    }

    /// Roll back an eager reservation (abort path).
    pub(crate) fn rollback_alloc(&self, ptr: Ptr, capacity: u32) {
        if let Ok((region, _)) = self.resolve(ptr.addr.region()) {
            let off = ptr.addr.offset();
            region.with_meta(|meta| meta.alloc.free(off, capacity));
            let h = ObjHeader {
                lock: 0,
                version: 0,
                capacity,
                state: STATE_FREE,
                len: 0,
            };
            region.seg.write(off as usize, &h.encode());
            self.stats.allocated_objects.fetch_sub(1, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------ commit protocol

    /// Execute the write-phase of the FaRM commit protocol (§2.1, §5.2):
    /// lock write set → commit timestamp → validate read set → apply +
    /// replicate → unlock.
    pub(crate) fn commit_writes(
        &self,
        origin: MachineId,
        tx_id: u64,
        read_set: &HashMap<Addr, u64>,
        writes: &mut BTreeMap<Addr, WriteOp>,
    ) -> FarmResult<u64> {
        self.check_paused()?;
        // Phase 1: LOCK the write set in deterministic (sorted) address order.
        let mut locked: Vec<Addr> = Vec::with_capacity(writes.len());
        for (addr, op) in writes.iter() {
            let read_version = match op {
                WriteOp::Update { read_version, .. } | WriteOp::Free { read_version, .. } => {
                    *read_version
                }
                WriteOp::Alloc { .. } => continue, // private until commit
            };
            let rid = addr.region();
            let off = addr.offset() as usize;
            let primary = match self.resolve(rid) {
                Ok((_, p)) => p,
                Err(e) => {
                    self.unlock_all(origin, tx_id, &locked);
                    return Err(e);
                }
            };
            let prev = match self
                .fabric
                .cas64(origin, primary, rid.0 as u64, off, 0, tx_id)
            {
                Ok(prev) => prev,
                Err(e) => {
                    self.unlock_all(origin, tx_id, &locked);
                    return Err(e.into());
                }
            };
            if prev != 0 {
                self.unlock_all(origin, tx_id, &locked);
                return Err(FarmError::Conflict);
            }
            locked.push(*addr);
            // Version check under lock.
            match self.read_header(origin, *addr) {
                Ok(h) if h.version == read_version && h.state != STATE_FREE => {}
                Ok(_) => {
                    self.unlock_all(origin, tx_id, &locked);
                    return Err(FarmError::Conflict);
                }
                Err(e) => {
                    self.unlock_all(origin, tx_id, &locked);
                    return Err(e);
                }
            }
        }

        // Phase 2: commit timestamp — after all locks, so it exceeds every
        // read timestamp that could have observed the old state.
        let commit_ts = self.clock.tick();

        // Phase 3: VALIDATE reads not in the write set.
        let reads: Vec<(Addr, u64)> = read_set
            .iter()
            .filter(|(a, _)| !writes.contains_key(a))
            .map(|(a, v)| (*a, *v))
            .collect();
        if let Err(e) = self.validate_reads(origin, &reads) {
            self.unlock_all(origin, tx_id, &locked);
            return Err(e);
        }

        // Phase 4: APPLY + replicate, releasing locks via the final header
        // write at each primary.
        let watermark = self.registry.watermark(self.clock.now());
        for (addr, op) in writes.iter() {
            self.apply_op(origin, *addr, op, commit_ts, watermark)?;
        }
        Ok(commit_ts)
    }

    /// Re-check that each read's version is still current and unlocked.
    fn validate_reads(&self, origin: MachineId, reads: &[(Addr, u64)]) -> FarmResult<()> {
        for (addr, seen) in reads {
            let h = self.read_header(origin, *addr)?;
            if h.is_locked() || h.version != *seen {
                return Err(FarmError::Conflict);
            }
        }
        Ok(())
    }

    fn read_header(&self, origin: MachineId, addr: Addr) -> FarmResult<ObjHeader> {
        let rid = addr.region();
        let (_, primary) = self.resolve(rid)?;
        let raw = self.fabric.read(
            origin,
            primary,
            rid.0 as u64,
            addr.offset() as usize,
            HEADER,
        )?;
        ObjHeader::parse(&raw).ok_or(FarmError::Unavailable("short header read".into()))
    }

    fn unlock_all(&self, origin: MachineId, tx_id: u64, locked: &[Addr]) {
        for addr in locked {
            let rid = addr.region();
            if let Ok((_, primary)) = self.resolve(rid) {
                let _ = self.fabric.cas64(
                    origin,
                    primary,
                    rid.0 as u64,
                    addr.offset() as usize,
                    tx_id,
                    0,
                );
            }
        }
    }

    fn apply_op(
        &self,
        origin: MachineId,
        addr: Addr,
        op: &WriteOp,
        commit_ts: u64,
        watermark: u64,
    ) -> FarmResult<()> {
        let rid = addr.region();
        let (region, primary) = self.resolve(rid)?;
        let off = addr.offset();
        let placement = self
            .cm
            .placement(rid)
            .ok_or_else(|| FarmError::Unavailable(format!("region {rid} unplaced")))?;

        let bytes = match op {
            WriteOp::Update { capacity, data, .. } => {
                self.stash_old_version(&region, off, commit_ts, watermark);
                compose_object(commit_ts, *capacity, STATE_LIVE, data)
            }
            WriteOp::Alloc { capacity, data } => {
                compose_object(commit_ts, *capacity, STATE_LIVE, data)
            }
            WriteOp::Free { capacity, .. } => {
                self.stash_old_version(&region, off, commit_ts, watermark);
                region.with_meta(|meta| meta.defer_free(commit_ts, off, *capacity));
                self.stats.freed_objects.fetch_add(1, Ordering::Relaxed);
                compose_object(commit_ts, *capacity, STATE_TOMBSTONE, &[])
            }
        };

        // Primary write last byte wins: includes version bump and lock release.
        self.fabric
            .write(origin, primary, rid.0 as u64, off as usize, &bytes)?;
        // Replicate to backups (one-sided writes, §2.1). Dead backups are
        // skipped; reconfiguration will re-replicate.
        for b in &placement.backups {
            let _ = self
                .fabric
                .write(origin, *b, rid.0 as u64, off as usize, &bytes);
        }
        Ok(())
    }

    /// Save the current committed state of an object as an old version
    /// before overwriting it.
    fn stash_old_version(&self, region: &Arc<Region>, off: u32, new_version: u64, watermark: u64) {
        let Some(raw) = region.seg.read(off as usize, HEADER) else {
            return;
        };
        let Some(h) = ObjHeader::parse(&raw) else {
            return;
        };
        if h.version == 0 {
            return; // object was never committed; nothing to preserve
        }
        let payload = region
            .seg
            .read(off as usize + HEADER, h.len as usize)
            .unwrap_or_default();
        region.with_meta(|meta| {
            meta.push_old_version(
                off,
                OldVersion {
                    version: h.version,
                    state: h.state,
                    payload: payload.to_vec().into(),
                    len: h.len,
                },
                new_version,
                watermark,
            );
        });
    }

    pub(crate) fn note_commit(&self) {
        self.stats.commits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_abort(&self) {
        self.stats.aborts.fetch_add(1, Ordering::Relaxed);
    }

    // ------------------------------------------------------------- failures

    /// Kill a machine (hardware failure: memory content is gone for good).
    pub fn kill_machine(&self, m: MachineId) {
        self.fabric.kill(m);
        self.machines[m.0 as usize].crash();
        self.pyco.clear_machine(m);
        if self.cfg.auto_detect_failures {
            self.detect_failures();
        }
    }

    /// Crash the FaRM *process* on a machine. Region memory survives in the
    /// PyCo driver (§5.3); the CM waits for the process to come back rather
    /// than re-replicating.
    pub fn crash_process(&self, m: MachineId) {
        self.fabric.kill(m);
        self.machines[m.0 as usize].crash();
        // If any region now has no reachable replica at all, pause the whole
        // system until the process restarts (§5.3).
        for (rid, placement) in self.cm.regions() {
            let any_up = placement.replicas().any(|r| self.fabric.is_alive(r));
            if !any_up {
                self.pending_restart.lock().insert(rid.0);
                self.paused.store(true, Ordering::Release);
            }
        }
    }

    /// Fast restart after a process crash: re-attach PyCo memory, rebuild
    /// allocator metadata for primaries, clear stale locks, resume.
    pub fn restart_process(&self, m: MachineId) {
        let machine = &self.machines[m.0 as usize];
        let regions = machine.reattach_from_pyco(&self.pyco);
        let floor = self.clock.now();
        for region in regions {
            if self.cm.primary_of(region.id) == Some(m) {
                region.rebuild_meta(floor);
            }
            self.pending_restart.lock().remove(&region.id.0);
        }
        self.fabric.revive(m);
        self.cm.mark_alive(m);
        if self.pending_restart.lock().is_empty() {
            self.paused.store(false, Ordering::Release);
        }
    }

    /// Reboot a machine: process *and* PyCo memory are gone. Data survives
    /// only through replicas on other machines.
    pub fn reboot_machine(&self, m: MachineId) {
        self.kill_machine(m);
    }

    /// Run failure detection: compare fabric liveness against CM membership
    /// and execute any reconfiguration actions.
    pub fn detect_failures(&self) {
        for i in 0..self.machines.len() {
            let m = MachineId(i as u32);
            if !self.fabric.is_alive(m) && self.cm.is_alive(m) {
                let actions = self.cm.handle_failure(m);
                self.apply_reconfig(actions);
            }
        }
    }

    fn apply_reconfig(&self, actions: Vec<ReconfigAction>) {
        let floor = self.clock.now();
        for action in actions {
            match action {
                ReconfigAction::Promote {
                    region,
                    new_primary,
                } => {
                    if let Some(r) = self.machines[new_primary.0 as usize].region(region) {
                        r.rebuild_meta(floor);
                    }
                }
                ReconfigAction::AddBackup {
                    region,
                    source,
                    target,
                } => {
                    let Some(src) = self.machines[source.0 as usize].region(region) else {
                        continue;
                    };
                    let bytes = src.seg.clone_bytes();
                    // Bulk copy crosses the wire: charge bandwidth.
                    self.fabric.charge_ns(
                        (bytes.len() as u64 / 1024) * self.cfg.fabric.latency.per_kib_ns,
                    );
                    self.machines[target.0 as usize]
                        .host_region_from_bytes(region, bytes, &self.pyco);
                }
                ReconfigAction::TotalLoss { region } => {
                    self.lost_regions.lock().insert(region.0);
                }
            }
        }
    }

    /// Whether any region has been irrecoverably lost (triggers DR, §4).
    pub fn has_data_loss(&self) -> bool {
        !self.lost_regions.lock().is_empty()
    }

    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::Acquire)
    }

    // ------------------------------------------------------------------ gc

    /// Reclaim deferred frees and prune version chains that no active
    /// snapshot can read.
    pub fn gc(&self) {
        let watermark = self.registry.watermark(self.clock.now());
        for machine in &self.machines {
            for region in machine.primary_regions() {
                let reclaimed = region.with_meta(|meta| meta.take_reclaimable(watermark));
                if let Some(reclaimed) = reclaimed {
                    if !reclaimed.is_empty() {
                        region.clear_reclaimed_headers(&reclaimed);
                    }
                }
            }
        }
    }

    /// Placement of a region (diagnostics / benches).
    pub fn placement(&self, rid: RegionId) -> Option<Placement> {
        self.cm.placement(rid)
    }
}

const ROOT_PAYLOAD: usize = 224; // one 256-byte block

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Arc<FarmCluster> {
        FarmCluster::start(FarmConfig::small(4))
    }

    #[test]
    fn bootstrap_creates_root() {
        let c = cluster();
        let root = c.root_ptr();
        assert!(!root.is_null());
        assert_eq!(root.addr.region(), RegionId(0));
        // Root is readable.
        let mut tx = c.begin_read_only(MachineId(1));
        let buf = tx.read(root).unwrap();
        assert_eq!(buf.len(), ROOT_PAYLOAD);
    }

    #[test]
    fn alloc_read_update_roundtrip() {
        let c = cluster();
        let ptr = c
            .run(MachineId(0), |tx| tx.alloc(64, Hint::Local, b"hello"))
            .unwrap();
        assert_eq!(ptr.size, 64);

        let mut tx = c.begin_read_only(MachineId(2));
        let buf = tx.read(ptr).unwrap();
        assert_eq!(&buf.data()[..5], b"hello");

        c.run(MachineId(1), |tx| {
            let buf = tx.read(ptr)?;
            tx.update(&buf, b"world!".to_vec())
        })
        .unwrap();

        let mut tx = c.begin_read_only(MachineId(3));
        let buf = tx.read(ptr).unwrap();
        assert_eq!(&buf.data()[..6], b"world!");
    }

    #[test]
    fn atomic_counter_increment_from_paper_fig3() {
        let c = cluster();
        let ptr = c
            .run(MachineId(0), |tx| {
                tx.alloc(8, Hint::Local, &0u64.to_le_bytes())
            })
            .unwrap();
        // 4 threads × 50 increments, exactly the Fig. 3 retry loop.
        let mut handles = Vec::new();
        for i in 0..4u32 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    c.run(MachineId(i % 4), |tx| {
                        let buf = tx.read(ptr)?;
                        let v = u64::from_le_bytes(buf.data()[..8].try_into().unwrap());
                        tx.update(&buf, (v + 1).to_le_bytes().to_vec())
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut tx = c.begin_read_only(MachineId(0));
        let buf = tx.read(ptr).unwrap();
        assert_eq!(u64::from_le_bytes(buf.data()[..8].try_into().unwrap()), 200);
    }

    #[test]
    fn snapshot_isolation_for_readers() {
        let c = cluster();
        let ptr = c
            .run(MachineId(0), |tx| {
                tx.alloc(8, Hint::Local, &1u64.to_le_bytes())
            })
            .unwrap();
        // Open a snapshot, then write twice.
        let mut ro = c.begin_read_only(MachineId(1));
        for v in [2u64, 3u64] {
            c.run(MachineId(0), |tx| {
                let buf = tx.read(ptr)?;
                tx.update(&buf, v.to_le_bytes().to_vec())
            })
            .unwrap();
        }
        // The old snapshot still sees 1 (MVCC); a fresh one sees 3.
        let buf = ro.read(ptr).unwrap();
        assert_eq!(u64::from_le_bytes(buf.data()[..8].try_into().unwrap()), 1);
        // ...and never validates, so the writes under it cannot abort it.
        assert!(ro.commit().is_ok());
        let mut fresh = c.begin_read_only(MachineId(1));
        let buf = fresh.read(ptr).unwrap();
        assert_eq!(u64::from_le_bytes(buf.data()[..8].try_into().unwrap()), 3);
    }

    #[test]
    fn write_conflict_aborts_one() {
        let c = cluster();
        let ptr = c
            .run(MachineId(0), |tx| {
                tx.alloc(8, Hint::Local, &0u64.to_le_bytes())
            })
            .unwrap();
        let mut t1 = c.begin(MachineId(0));
        let mut t2 = c.begin(MachineId(1));
        let b1 = t1.read(ptr).unwrap();
        let b2 = t2.read(ptr).unwrap();
        t1.update(&b1, 10u64.to_le_bytes().to_vec()).unwrap();
        t2.update(&b2, 20u64.to_le_bytes().to_vec()).unwrap();
        assert!(t1.commit().is_ok());
        assert_eq!(t2.commit(), Err(FarmError::Conflict));
    }

    #[test]
    fn dropped_txn_counts_as_abort_only_with_buffered_writes() {
        let c = cluster();
        let ptr = c
            .run(MachineId(0), |tx| tx.alloc(8, Hint::Local, &[1; 8]))
            .unwrap();
        let aborts = || c.stats().aborts.load(Ordering::Relaxed);
        let before = aborts();
        // Read-only snapshot reads, dropped without `commit` (the query
        // path), and a read-write transaction that only ever read.
        let mut ro = c.begin_read_only(MachineId(1));
        ro.read(ptr).unwrap();
        drop(ro);
        let mut rw = c.begin(MachineId(1));
        rw.read(ptr).unwrap();
        drop(rw);
        assert_eq!(aborts(), before, "nothing to roll back, nothing aborted");
        // Dropping buffered work is an abort: an update, or an eager
        // allocation (which must also be rolled back).
        let mut rw = c.begin(MachineId(1));
        let buf = rw.read(ptr).unwrap();
        rw.update(&buf, vec![2; 8]).unwrap();
        drop(rw);
        assert_eq!(aborts(), before + 1);
        let allocated = c.stats().allocated_objects.load(Ordering::Relaxed);
        let freed = c.stats().freed_objects.load(Ordering::Relaxed);
        let mut rw = c.begin(MachineId(1));
        rw.alloc(8, Hint::Local, &[3; 8]).unwrap();
        drop(rw);
        assert_eq!(aborts(), before + 2);
        assert_eq!(
            c.stats().allocated_objects.load(Ordering::Relaxed)
                - c.stats().freed_objects.load(Ordering::Relaxed),
            allocated - freed,
            "the dropped allocation leaked"
        );
    }

    #[test]
    fn read_validation_catches_intervening_write() {
        let c = cluster();
        let a = c
            .run(MachineId(0), |tx| tx.alloc(8, Hint::Local, &[1; 8]))
            .unwrap();
        let b = c
            .run(MachineId(0), |tx| tx.alloc(8, Hint::Local, &[2; 8]))
            .unwrap();
        let mut t1 = c.begin(MachineId(0));
        let ra = t1.read(a).unwrap(); // read-only member of read set
        let rb = t1.read(b).unwrap();
        t1.update(&rb, vec![3; 8]).unwrap();
        // Concurrent write to `a` invalidates t1's read.
        c.run(MachineId(1), |tx| {
            let buf = tx.read(a)?;
            tx.update(&buf, vec![9; 8])
        })
        .unwrap();
        let _ = ra;
        assert_eq!(t1.commit(), Err(FarmError::Conflict));
    }

    #[test]
    fn rw_txn_reading_stale_object_aborts_early_for_opacity() {
        let c = cluster();
        let ptr = c
            .run(MachineId(0), |tx| tx.alloc(8, Hint::Local, &[0; 8]))
            .unwrap();
        let mut t1 = c.begin(MachineId(0));
        // Bump the object after t1's snapshot.
        c.run(MachineId(1), |tx| {
            let buf = tx.read(ptr)?;
            tx.update(&buf, vec![1; 8])
        })
        .unwrap();
        // t1's read observes a version newer than its snapshot → Conflict at
        // the *read*, before any garbage can be consumed (§5.2).
        assert_eq!(t1.read(ptr).unwrap_err(), FarmError::Conflict);
    }

    #[test]
    fn free_and_snapshot_reads_of_freed_object() {
        let c = cluster();
        let ptr = c
            .run(MachineId(0), |tx| tx.alloc(16, Hint::Local, b"data"))
            .unwrap();
        let mut ro = c.begin_read_only(MachineId(1)); // snapshot before free
        c.run(MachineId(0), |tx| {
            let buf = tx.read(ptr)?;
            tx.free(&buf)
        })
        .unwrap();
        // New snapshot: gone.
        let mut fresh = c.begin_read_only(MachineId(2));
        assert!(matches!(fresh.read(ptr), Err(FarmError::NotFound(_))));
        // Old snapshot still reads it.
        let buf = ro.read(ptr).unwrap();
        assert_eq!(&buf.data()[..4], b"data");
        drop(ro);
        drop(fresh);
        // After snapshots retire, gc reclaims the block for reuse.
        c.gc();
        let ptr2 = c
            .run(MachineId(0), |tx| tx.alloc(16, Hint::Local, b"new!"))
            .unwrap();
        assert_eq!(ptr2.addr, ptr.addr, "freed block reused");
    }

    #[test]
    fn locality_hint_co_locates() {
        let c = cluster();
        let a = c
            .run(MachineId(2), |tx| tx.alloc(32, Hint::Local, &[1]))
            .unwrap();
        let b = c
            .run(MachineId(0), |tx| tx.alloc(32, Hint::Near(a.addr), &[2]))
            .unwrap();
        assert_eq!(
            a.addr.region(),
            b.addr.region(),
            "hint keeps objects in one region"
        );
        assert_eq!(c.primary_of(a.addr), c.primary_of(b.addr));
    }

    #[test]
    fn machine_failure_promotes_and_data_survives() {
        let c = cluster();
        let ptr = c
            .run(MachineId(0), |tx| {
                tx.alloc(32, Hint::Machine(MachineId(1)), b"persist")
            })
            .unwrap();
        let primary = c.primary_of(ptr.addr).unwrap();
        c.kill_machine(primary);
        // Reads reroute to the promoted backup.
        let mut tx = c.begin_read_only(MachineId(0));
        let buf = tx.read(ptr).unwrap();
        assert_eq!(&buf.data()[..7], b"persist");
        assert_ne!(c.primary_of(ptr.addr).unwrap(), primary);
        // And writes still work.
        c.run(MachineId(0), |tx| {
            let buf = tx.read(ptr)?;
            tx.update(&buf, b"again!!".to_vec())
        })
        .unwrap();
    }

    #[test]
    fn fast_restart_preserves_data_and_resumes() {
        // Single machine: a process crash makes the only replica unreachable,
        // pausing the cluster until restart (§5.3).
        let mut cfg = FarmConfig::small(1);
        cfg.replicas = 1;
        let c = FarmCluster::start(cfg);
        let ptr = c
            .run(MachineId(0), |tx| tx.alloc(32, Hint::Local, b"pyco"))
            .unwrap();

        c.crash_process(MachineId(0));
        assert!(c.is_paused());
        let mut tx = c.begin_read_only(MachineId(0));
        assert!(matches!(tx.read(ptr), Err(FarmError::Paused)));
        drop(tx);

        c.restart_process(MachineId(0));
        assert!(!c.is_paused());
        let mut tx = c.begin_read_only(MachineId(0));
        let buf = tx.read(ptr).unwrap();
        assert_eq!(&buf.data()[..4], b"pyco");
        // Writes work again too (allocator was rebuilt by scanning).
        c.run(MachineId(0), |tx| {
            tx.alloc(32, Hint::Local, b"more").map(|_| ())
        })
        .unwrap();
    }

    #[test]
    fn paused_cluster_rejects_new_txns() {
        let mut cfg = FarmConfig::small(1);
        cfg.replicas = 1;
        let c = FarmCluster::start(cfg);
        c.crash_process(MachineId(0));
        assert!(matches!(
            c.run(MachineId(0), |tx| tx.alloc(8, Hint::Local, &[0; 8])),
            Err(FarmError::Paused)
        ));
        c.restart_process(MachineId(0));
    }
}
