//! FaRMv2-style transactions: strictly serializable optimistic concurrency
//! with opacity via multi-versioning (paper §2.1, §5.2).
//!
//! * Every transaction takes a **read timestamp** from the global clock and
//!   reads a consistent snapshot at that time. This is the opacity property:
//!   even a transaction that will later abort never observes a torn or
//!   inconsistent state (the linked-list example of §5.2 cannot happen).
//! * **Read-only transactions** never lock, never validate, never abort:
//!   old versions at primaries serve their snapshot.
//! * **Read-write transactions** buffer writes locally (`OpenForWrite`
//!   semantics); commit locks the write set with one-sided CAS, takes a
//!   commit timestamp, validates the read set, applies + replicates to
//!   backups, and unlocks.
//!
//! These are the only semantics: without multi-versioning (FaRMv1) every
//! read returns the latest version and every transaction, read-only queries
//! included, must validate at commit — the high-abort-rate pathology §5.2
//! describes and the reason A1 moved to FaRMv2.

use crate::addr::{Addr, Ptr};
use crate::clock::TsGuard;
use crate::cluster::FarmCluster;
use crate::error::{FarmError, FarmResult};
use crate::layout::{ObjHeader, HEADER, STATE_LIVE, STATE_TOMBSTONE};
use a1_rdma::MachineId;
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Allocation placement hint (paper §2.1): `Near` co-locates an object with
/// an existing one in the same region — the mechanism behind vertex/edge-list
/// locality (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hint {
    /// Allocate on the transaction's origin machine.
    Local,
    /// Allocate in the same region as this address if space permits.
    Near(Addr),
    /// Allocate on a specific machine.
    Machine(MachineId),
}

/// An immutable local copy of an object, as returned by reads (the paper's
/// `ObjBuf`).
#[derive(Debug, Clone)]
pub struct ObjBuf {
    pub ptr: Ptr,
    /// Version (commit timestamp) of the copy. 0 for objects allocated by
    /// this transaction and not yet committed.
    pub version: u64,
    /// Payload capacity of the underlying block.
    pub capacity: u32,
    pub(crate) data: Bytes,
}

impl ObjBuf {
    /// A pointer-only placeholder for cache-served routing steps (never
    /// passed to `update`).
    pub(crate) fn routing_placeholder(ptr: Ptr) -> ObjBuf {
        ObjBuf {
            ptr,
            version: 0,
            capacity: 0,
            data: Bytes::new(),
        }
    }

    pub fn data(&self) -> &[u8] {
        &self.data
    }

    pub fn addr(&self) -> Addr {
        self.ptr.addr
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[derive(Debug)]
pub(crate) enum WriteOp {
    Update {
        read_version: u64,
        capacity: u32,
        data: Vec<u8>,
    },
    Alloc {
        capacity: u32,
        data: Vec<u8>,
    },
    Free {
        read_version: u64,
        capacity: u32,
    },
}

/// One request in a batched fetch ([`Txn::fetch_many`]): either a full
/// snapshot read of an object or a header-only version probe. Mixing both in
/// one call lets a morsel's cache revalidation probes share a doorbell with
/// its cold header reads.
#[derive(Debug, Clone, Copy)]
pub enum FetchReq {
    /// Snapshot read, same semantics as [`Txn::read`].
    Read(Ptr),
    /// Header-only version probe, same semantics as [`Txn::probe_version`].
    Probe(Addr),
}

/// The in-slot answer to one [`FetchReq`].
#[derive(Debug, Clone)]
pub enum FetchResp {
    /// Answer to a [`FetchReq::Read`].
    Obj(ObjBuf),
    /// Answer to a [`FetchReq::Probe`].
    Hdr(ObjHeader),
}

/// A FaRM transaction. Obtain via [`FarmCluster::begin`],
/// [`FarmCluster::begin_read_only`], or [`FarmCluster::run`].
pub struct Txn {
    cluster: Arc<FarmCluster>,
    origin: MachineId,
    read_ts: u64,
    tx_id: u64,
    read_only: bool,
    _guard: Option<TsGuard>,
    read_set: HashMap<Addr, u64>,
    pub(crate) writes: BTreeMap<Addr, WriteOp>,
    finished: bool,
    /// One-sided read posts this transaction has issued: +1 per scalar
    /// read/probe, +actual doorbells (including scalar fallbacks) per
    /// batched fetch. The query engine reports this per hop as
    /// `fetch_verbs`.
    fetch_verbs: u64,
}

impl Txn {
    pub(crate) fn new(
        cluster: Arc<FarmCluster>,
        origin: MachineId,
        read_ts: u64,
        tx_id: u64,
        read_only: bool,
        guard: Option<TsGuard>,
    ) -> Txn {
        Txn {
            cluster,
            origin,
            read_ts,
            tx_id,
            read_only,
            _guard: guard,
            read_set: HashMap::new(),
            writes: BTreeMap::new(),
            finished: false,
            fetch_verbs: 0,
        }
    }

    /// One-sided read posts issued so far (scalar reads/probes count one
    /// each; a batched fetch counts its actual doorbells). The coalescing
    /// win is `requests / fetch_verbs`.
    pub fn fetch_verbs(&self) -> u64 {
        self.fetch_verbs
    }

    pub fn read_ts(&self) -> u64 {
        self.read_ts
    }

    pub fn origin(&self) -> MachineId {
        self.origin
    }

    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Cluster-clock reading for cache TTLs — virtual under simulation.
    pub(crate) fn clock_ns(&self) -> u64 {
        self.cluster.fabric().clock().now_ns()
    }

    /// Read an object. The result is the object's state at this
    /// transaction's snapshot; read-write transactions whose snapshot is
    /// already stale abort immediately with `Conflict` (they could never
    /// commit).
    pub fn read(&mut self, ptr: Ptr) -> FarmResult<ObjBuf> {
        self.check_open()?;
        // Read-your-writes.
        if let Some(op) = self.writes.get(&ptr.addr) {
            return match op {
                WriteOp::Update {
                    read_version,
                    capacity,
                    data,
                } => Ok(ObjBuf {
                    ptr,
                    version: *read_version,
                    capacity: *capacity,
                    data: Bytes::from(data.clone()),
                }),
                WriteOp::Alloc { capacity, data } => Ok(ObjBuf {
                    ptr,
                    version: 0,
                    capacity: *capacity,
                    data: Bytes::from(data.clone()),
                }),
                WriteOp::Free { .. } => Err(FarmError::NotFound(ptr.addr)),
            };
        }
        let buf = self.read_versioned(ptr)?;
        if !self.read_only {
            self.read_set.insert(ptr.addr, buf.version);
        }
        Ok(buf)
    }

    /// Read by raw address and size.
    pub fn read_addr(&mut self, addr: Addr, size: u32) -> FarmResult<ObjBuf> {
        self.read(Ptr::new(addr, size))
    }

    /// Unvalidated latest-version read for *routing* data (B-tree internal
    /// nodes, §3.1): never recorded in the read set and never snapshotted.
    /// Correctness comes from fence-key checks plus validated leaf reads.
    pub fn read_for_routing(&mut self, ptr: Ptr) -> FarmResult<ObjBuf> {
        self.check_open()?;
        if self.writes.contains_key(&ptr.addr) {
            return self.read(ptr);
        }
        self.fetch_verbs += 1;
        let (h, payload) = self.cluster.read_raw(self.origin, ptr)?;
        if !h.is_committed() || h.state != STATE_LIVE {
            return Err(FarmError::NotFound(ptr.addr));
        }
        Ok(ObjBuf {
            ptr,
            version: h.version,
            capacity: h.capacity,
            data: payload,
        })
    }

    /// HEADER-only probe of an object's *current* version word, for cache
    /// revalidation: a header-sized transfer instead of header + payload.
    /// Like [`read_for_routing`](Self::read_for_routing), the probe is never
    /// recorded in the read set and never snapshotted — the caller owns the
    /// consistency argument (the a1-core read cache compares the probed
    /// version against the version its entry was filled at, and only serves
    /// the entry on an exact match). Tombstoned and freed objects return
    /// `NotFound`, so a cached entry for a deleted or reused block can never
    /// revalidate.
    pub fn probe_version(&mut self, addr: Addr) -> FarmResult<ObjHeader> {
        self.check_open()?;
        if self.writes.contains_key(&addr) {
            // A pending write in this transaction supersedes any cached
            // copy; report a conflict so the caller falls back to `read`
            // (which serves read-your-writes).
            return Err(FarmError::Conflict);
        }
        self.fetch_verbs += 1;
        let h = self.cluster.probe_header(self.origin, addr)?;
        if h.state != STATE_LIVE {
            return Err(FarmError::NotFound(addr));
        }
        Ok(h)
    }

    /// Batched fetch: every [`FetchReq::Read`] behaves exactly like
    /// [`read`](Self::read) and every [`FetchReq::Probe`] exactly like
    /// [`probe_version`](Self::probe_version), but requests against the same
    /// primary share one doorbell ([`FarmCluster`]'s `read_raw_many`), and
    /// read-only snapshot reads that need the old-version store are folded
    /// into one batched round trip per primary instead of one each. Results
    /// come back in request order; answers are byte-identical to issuing
    /// the scalar calls one at a time.
    pub fn fetch_many(&mut self, reqs: &[FetchReq]) -> Vec<FarmResult<FetchResp>> {
        if let Err(e) = self.check_open() {
            return reqs.iter().map(|_| Err(e.clone())).collect();
        }
        let mut out: Vec<Option<FarmResult<FetchResp>>> = vec![None; reqs.len()];
        // Requests answerable without the network (read-your-writes,
        // pending-write probes) are served in place; the rest form the
        // batch.
        let mut specs: Vec<(Addr, u32)> = Vec::with_capacity(reqs.len());
        let mut spec_idx: Vec<usize> = Vec::with_capacity(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            match *req {
                FetchReq::Read(ptr) => {
                    if self.writes.contains_key(&ptr.addr) {
                        out[i] = Some(self.read(ptr).map(FetchResp::Obj));
                    } else {
                        specs.push((ptr.addr, ptr.size));
                        spec_idx.push(i);
                    }
                }
                FetchReq::Probe(addr) => {
                    if self.writes.contains_key(&addr) {
                        // Pending write supersedes any cached copy — same
                        // ruling as scalar `probe_version`.
                        out[i] = Some(Err(FarmError::Conflict));
                    } else {
                        specs.push((addr, 0));
                        spec_idx.push(i);
                    }
                }
            }
        }
        let (results, verbs) = self.cluster.read_raw_many(self.origin, &specs);
        self.fetch_verbs += verbs;
        // Reads whose committed version is newer than our snapshot collect
        // into a second (old-version) batch instead of a round trip each.
        let mut old_idx: Vec<usize> = Vec::new();
        let mut old_ptrs: Vec<Ptr> = Vec::new();
        for (&i, res) in spec_idx.iter().zip(results) {
            out[i] = Some(match (&reqs[i], res) {
                (FetchReq::Probe(addr), Ok((h, _))) => {
                    if h.state != STATE_LIVE {
                        Err(FarmError::NotFound(*addr))
                    } else {
                        Ok(FetchResp::Hdr(h))
                    }
                }
                (FetchReq::Read(ptr), Ok((h, payload))) => {
                    if !h.is_committed() {
                        Err(FarmError::NotFound(ptr.addr))
                    } else if h.version <= self.read_ts {
                        if h.state == STATE_TOMBSTONE {
                            Err(FarmError::NotFound(ptr.addr))
                        } else {
                            Ok(FetchResp::Obj(ObjBuf {
                                ptr: *ptr,
                                version: h.version,
                                capacity: h.capacity,
                                data: payload,
                            }))
                        }
                    } else if !self.read_only {
                        Err(FarmError::Conflict)
                    } else {
                        old_idx.push(i);
                        old_ptrs.push(*ptr);
                        continue;
                    }
                }
                (_, Err(e)) => Err(e),
            });
        }
        if !old_ptrs.is_empty() {
            let (olds, verbs) =
                self.cluster
                    .read_old_versions(self.origin, &old_ptrs, self.read_ts);
            self.fetch_verbs += verbs;
            for (i, r) in old_idx.into_iter().zip(olds) {
                out[i] = Some(r.map(FetchResp::Obj));
            }
        }
        if !self.read_only {
            for (req, slot) in reqs.iter().zip(out.iter()) {
                if let (FetchReq::Read(ptr), Some(Ok(FetchResp::Obj(buf)))) = (req, slot) {
                    self.read_set.insert(ptr.addr, buf.version);
                }
            }
        }
        out.into_iter()
            .map(|r| r.expect("every request slot filled"))
            .collect()
    }

    /// Batched [`read`](Self::read): snapshot reads coalesced per primary.
    pub fn read_many(&mut self, ptrs: &[Ptr]) -> Vec<FarmResult<ObjBuf>> {
        let reqs: Vec<FetchReq> = ptrs.iter().map(|&p| FetchReq::Read(p)).collect();
        self.fetch_many(&reqs)
            .into_iter()
            .map(|r| {
                r.map(|resp| match resp {
                    FetchResp::Obj(buf) => buf,
                    FetchResp::Hdr(_) => unreachable!("read requests return objects"),
                })
            })
            .collect()
    }

    /// Batched [`probe_version`](Self::probe_version): version probes
    /// coalesced per primary.
    pub fn probe_version_many(&mut self, addrs: &[Addr]) -> Vec<FarmResult<ObjHeader>> {
        let reqs: Vec<FetchReq> = addrs.iter().map(|&a| FetchReq::Probe(a)).collect();
        self.fetch_many(&reqs)
            .into_iter()
            .map(|r| {
                r.map(|resp| match resp {
                    FetchResp::Hdr(h) => h,
                    FetchResp::Obj(_) => unreachable!("probe requests return headers"),
                })
            })
            .collect()
    }

    fn read_versioned(&mut self, ptr: Ptr) -> FarmResult<ObjBuf> {
        self.fetch_verbs += 1;
        let (h, payload) = self.cluster.read_raw(self.origin, ptr)?;
        if !h.is_committed() {
            return Err(FarmError::NotFound(ptr.addr));
        }
        if h.version <= self.read_ts {
            if h.state == STATE_TOMBSTONE {
                return Err(FarmError::NotFound(ptr.addr));
            }
            return Ok(ObjBuf {
                ptr,
                version: h.version,
                capacity: h.capacity,
                data: payload,
            });
        }
        // Version is newer than our snapshot.
        if !self.read_only {
            // A read-write transaction reading a stale object is doomed;
            // abort early (opacity-preserving clean failure).
            return Err(FarmError::Conflict);
        }
        // Read-only: serve from the old-version store at the primary.
        self.fetch_verbs += 1;
        self.cluster
            .read_old_version(self.origin, ptr, self.read_ts)
    }

    /// Allocate a new object of `size` payload bytes initialized to `data`
    /// (`data.len() <= size`). The object becomes visible at commit.
    pub fn alloc(&mut self, size: usize, hint: Hint, data: &[u8]) -> FarmResult<Ptr> {
        self.check_open()?;
        if self.read_only {
            return Err(FarmError::Usage("alloc in read-only transaction"));
        }
        if data.len() > size {
            return Err(FarmError::Usage("init data longer than object size"));
        }
        if size == 0 || size > crate::alloc::MAX_PAYLOAD {
            return Err(FarmError::InvalidSize(size));
        }
        let (ptr, capacity) = self.cluster.alloc_object(self.origin, size, hint)?;
        self.writes.insert(
            ptr.addr,
            WriteOp::Alloc {
                capacity,
                data: data.to_vec(),
            },
        );
        Ok(ptr)
    }

    /// Replace an object's payload. Requires a prior read of the object in
    /// this transaction (the paper's `OpenForWrite(buf)`), and the new data
    /// must fit in the block's capacity — growing requires realloc
    /// (alloc + free), which is what A1 does for vertex data (§3.2).
    pub fn update(&mut self, buf: &ObjBuf, data: Vec<u8>) -> FarmResult<()> {
        self.check_open()?;
        if self.read_only {
            return Err(FarmError::Usage("update in read-only transaction"));
        }
        if data.len() > buf.capacity as usize {
            return Err(FarmError::Usage(
                "update larger than block capacity; realloc instead",
            ));
        }
        match self.writes.get_mut(&buf.addr()) {
            Some(WriteOp::Alloc { data: d, .. }) => {
                *d = data;
                Ok(())
            }
            Some(WriteOp::Update { data: d, .. }) => {
                *d = data;
                Ok(())
            }
            Some(WriteOp::Free { .. }) => Err(FarmError::Usage("update after free")),
            None => {
                self.writes.insert(
                    buf.addr(),
                    WriteOp::Update {
                        read_version: buf.version,
                        capacity: buf.capacity,
                        data,
                    },
                );
                Ok(())
            }
        }
    }

    /// Free an object (visible at commit; the block is reused only after all
    /// snapshots that might read it have finished).
    pub fn free(&mut self, buf: &ObjBuf) -> FarmResult<()> {
        self.check_open()?;
        if self.read_only {
            return Err(FarmError::Usage("free in read-only transaction"));
        }
        match self.writes.get(&buf.addr()) {
            Some(WriteOp::Alloc { .. }) => {
                // Never visible: roll the eager reservation back right away.
                self.writes.remove(&buf.addr());
                self.cluster.rollback_alloc(buf.ptr, buf.capacity);
                Ok(())
            }
            Some(WriteOp::Free { .. }) => Err(FarmError::Usage("double free")),
            Some(WriteOp::Update { .. }) | None => {
                self.writes.insert(
                    buf.addr(),
                    WriteOp::Free {
                        read_version: buf.version,
                        capacity: buf.capacity,
                    },
                );
                Ok(())
            }
        }
    }

    /// Commit. Returns the commit timestamp (or the read timestamp for
    /// read-only/empty transactions).
    pub fn commit(mut self) -> FarmResult<u64> {
        self.check_open()?;
        self.finished = true;

        if self.writes.is_empty() {
            self.cluster.note_commit();
            return Ok(self.read_ts);
        }

        debug_assert!(!self.read_only);
        let result =
            self.cluster
                .commit_writes(self.origin, self.tx_id, &self.read_set, &mut self.writes);
        match result {
            Ok(ts) => {
                self.cluster.note_commit();
                self.writes.clear();
                Ok(ts)
            }
            Err(e) => {
                self.cluster.note_abort();
                self.rollback_allocs();
                Err(e)
            }
        }
    }

    /// Abort, rolling back eager allocations.
    pub fn abort(mut self) {
        if !self.finished {
            self.finished = true;
            self.rollback_allocs();
            self.cluster.note_abort();
        }
    }

    fn rollback_allocs(&mut self) {
        let allocs: Vec<(Addr, u32)> = self
            .writes
            .iter()
            .filter_map(|(addr, op)| match op {
                WriteOp::Alloc { capacity, .. } => Some((*addr, *capacity)),
                _ => None,
            })
            .collect();
        for (addr, cap) in allocs {
            self.writes.remove(&addr);
            self.cluster.rollback_alloc(Ptr::new(addr, cap), cap);
        }
    }

    fn check_open(&self) -> FarmResult<()> {
        if self.finished {
            Err(FarmError::TxnClosed)
        } else {
            Ok(())
        }
    }

    /// Number of buffered writes (diagnostics).
    pub fn write_set_len(&self) -> usize {
        self.writes.len()
    }

    /// Number of recorded reads (diagnostics).
    pub fn read_set_len(&self) -> usize {
        self.read_set.len()
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            self.finished = true;
            // A dropped transaction with nothing buffered (every read-only
            // query ends this way) gave up no work: not an abort.
            if !self.writes.is_empty() {
                self.rollback_allocs();
                self.cluster.note_abort();
            }
        }
    }
}

/// Compose the on-wire bytes for an object: header + payload.
pub(crate) fn compose_object(version: u64, capacity: u32, state: u32, data: &[u8]) -> Vec<u8> {
    let h = ObjHeader {
        lock: 0,
        version,
        capacity,
        state,
        len: data.len() as u32,
    };
    let mut bytes = Vec::with_capacity(HEADER + data.len());
    bytes.extend_from_slice(&h.encode());
    bytes.extend_from_slice(data);
    bytes
}
