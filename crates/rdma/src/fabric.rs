//! The fabric: one-sided verbs, RPC and datagrams between machines.
//!
//! Every operation has two halves. *Accounting* — the fault gate, the
//! counters, the modelled nanoseconds added to `sim_ns` — happens on the
//! caller's thread the moment the operation is posted, per destination, and
//! is the same whatever else is in flight. *Waiting* — letting that modelled
//! time elapse (an injected sleep under the real clock, an advance of the
//! virtual one) — is separate, so operations that a NIC would have in flight
//! together wait together: [`Fabric::read_scatter`] posts a doorbell to each
//! destination and waits for the slowest, and an RPC posted with
//! [`Fabric::post_rpc`] spends its wire time on the target's thread while
//! the poster carries on, to be collected by [`PendingRpc::wait`]. The
//! scalar verbs and [`Fabric::rpc`] are the post-then-wait-at-once cases.

use crate::clock::ClockSource;
use crate::fault::{FaultDecision, FaultInjector, NetOp};
#[cfg(test)]
use crate::machine::Segment;
use crate::machine::{Machine, RpcHandler, UdHandler};
use crate::metrics::Metrics;
use crate::pool::{Posted, WorkerPool};
use crate::rng::ClusterRng;
use crate::{FabricConfig, MachineId};
use bytes::Bytes;
use parking_lot::RwLock;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Network-level failures. These model NIC/communication errors; the storage
/// layers above translate them into retries or reconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Target machine is dead (timeout in a real deployment).
    MachineUnreachable(MachineId),
    /// No such machine id in the fabric.
    UnknownMachine(MachineId),
    /// The target machine has no segment registered under that id.
    NoSuchSegment(u64),
    /// One-sided access outside the segment bounds.
    OutOfBounds,
    /// RPC sent to a machine with no registered handler.
    NoHandler(MachineId),
    /// The RPC was accepted but the reply never arrived (machine died).
    RpcDropped,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::MachineUnreachable(m) => write!(f, "machine {m} unreachable"),
            NetError::UnknownMachine(m) => write!(f, "unknown machine {m}"),
            NetError::NoSuchSegment(s) => write!(f, "no segment {s}"),
            NetError::OutOfBounds => write!(f, "one-sided access out of bounds"),
            NetError::NoHandler(m) => write!(f, "no rpc handler on {m}"),
            NetError::RpcDropped => write!(f, "rpc reply lost"),
        }
    }
}

impl std::error::Error for NetError {}

/// One one-sided read of a batch: `(segment id, offset, length)`.
pub type ReadSpec = (u64, usize, usize);

/// [`ClusterRng::fork`] tag base for the per-machine pool-order streams.
const POOL_ORDER_FORK: u64 = 0x9001_0000;

/// The simulated RDMA network. See the crate docs for the model.
pub struct Fabric {
    cfg: FabricConfig,
    machines: Vec<Arc<Machine>>,
    metrics: Metrics,
    clock: Arc<dyn ClockSource>,
    rng: ClusterRng,
    fault: RwLock<Option<Arc<dyn FaultInjector>>>,
    inject: std::sync::atomic::AtomicBool,
}

impl Fabric {
    pub fn new(cfg: FabricConfig) -> Arc<Fabric> {
        assert!(cfg.machines >= 1);
        assert!(cfg.racks >= 1);
        let rng = ClusterRng::new(cfg.seed);
        // A virtual clock means a simulation harness owns time, and so must
        // own pool scheduling too: each machine's pool draws its batch
        // order from its own fork of the cluster stream.
        let deterministic = cfg.clock.is_virtual();
        let machines = (0..cfg.machines)
            .map(|i| {
                let pool = WorkerPool::build(
                    &format!("m{i}"),
                    cfg.threads_per_machine,
                    cfg.max_threads_per_machine,
                    deterministic.then(|| rng.fork(POOL_ORDER_FORK + i as u64)),
                );
                Arc::new(Machine::new(MachineId(i), i % cfg.racks, pool))
            })
            .collect();
        Arc::new(Fabric {
            machines,
            metrics: Metrics::default(),
            clock: cfg.clock.clone(),
            rng,
            fault: RwLock::new(None),
            inject: std::sync::atomic::AtomicBool::new(cfg.inject_latency),
            cfg,
        })
    }

    /// Toggle wall-clock latency injection at runtime. Benchmarks bulk-load
    /// with injection off, then flip it on for the measured phase. Under a
    /// virtual [`ClockSource`] the injected "sleeps" advance simulated time
    /// instead of spinning, so injection costs no wall clock.
    pub fn set_inject_latency(&self, on: bool) {
        self.inject.store(on, Ordering::Relaxed);
    }

    /// The fabric's time source (the cluster-wide injectable clock).
    pub fn clock(&self) -> &Arc<dyn ClockSource> {
        &self.clock
    }

    /// The cluster's seedable RNG handle (jitter, drop decisions).
    pub fn rng(&self) -> &ClusterRng {
        &self.rng
    }

    /// Install (or clear) the fault injector consulted on every operation.
    pub fn set_fault_injector(&self, injector: Option<Arc<dyn FaultInjector>>) {
        *self.fault.write() = injector;
    }

    /// Consult the fault injector. Returns extra delay ns, or the error a
    /// dropped op must surface (`None` in `Err` means "silently vanish",
    /// used for datagrams).
    fn fault_gate(
        &self,
        op: NetOp,
        from: MachineId,
        to: MachineId,
        len: usize,
    ) -> Result<u64, Option<NetError>> {
        let guard = self.fault.read();
        let Some(inj) = guard.as_ref() else {
            return Ok(0);
        };
        match inj.decide(op, from, to, len) {
            FaultDecision::Deliver => Ok(0),
            FaultDecision::Delay(ns) => Ok(ns),
            FaultDecision::Drop => Err(match op {
                NetOp::Ud => None,
                NetOp::RpcReply => Some(NetError::RpcDropped),
                _ => Some(NetError::MachineUnreachable(to)),
            }),
        }
    }

    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    pub fn num_machines(&self) -> u32 {
        self.cfg.machines
    }

    pub fn machine(&self, id: MachineId) -> Result<&Arc<Machine>, NetError> {
        self.machines
            .get(id.0 as usize)
            .ok_or(NetError::UnknownMachine(id))
    }

    pub fn machines(&self) -> &[Arc<Machine>] {
        &self.machines
    }

    pub fn rack_of(&self, id: MachineId) -> u32 {
        id.0 % self.cfg.racks
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mark a machine dead; subsequent operations against it fail.
    pub fn kill(&self, id: MachineId) {
        if let Ok(m) = self.machine(id) {
            m.alive.store(false, Ordering::Release);
        }
    }

    /// Bring a machine back (fast restart / redeployment).
    pub fn revive(&self, id: MachineId) {
        if let Ok(m) = self.machine(id) {
            m.alive.store(true, Ordering::Release);
        }
    }

    pub fn is_alive(&self, id: MachineId) -> bool {
        self.machine(id).map(|m| m.is_alive()).unwrap_or(false)
    }

    fn target(&self, to: MachineId) -> Result<&Arc<Machine>, NetError> {
        let m = self.machine(to)?;
        if !m.is_alive() {
            return Err(NetError::MachineUnreachable(to));
        }
        Ok(m)
    }

    /// Accounting half of a charge: add modelled time to `sim_ns`.
    fn account(&self, ns: u64) {
        self.metrics.sim_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Waiting half of a charge: let modelled time elapse when injection is
    /// on. RealClock spins/sleeps for wall-clock fidelity; VirtualClock
    /// advances simulated time instantly.
    fn wait_ns(&self, ns: u64) {
        if self.inject.load(Ordering::Relaxed) {
            self.clock.sleep(Duration::from_nanos(ns));
        }
    }

    /// Account for `ns` and wait it out at once: an operation nothing else
    /// overlaps.
    fn charge(&self, ns: u64) {
        self.account(ns);
        self.wait_ns(ns);
    }

    /// Charge simulated time for work the simulation performs in-process but
    /// that would cross the wire in a real deployment (e.g. bulk region
    /// copies during re-replication, remote allocation requests).
    pub fn charge_ns(&self, ns: u64) {
        self.charge(ns);
    }

    /// One-sided RDMA read: copy `len` bytes from a remote segment without
    /// involving the remote CPU.
    pub fn read(
        &self,
        from: MachineId,
        to: MachineId,
        seg_id: u64,
        off: usize,
        len: usize,
    ) -> Result<Bytes, NetError> {
        let delay = self
            .fault_gate(NetOp::Read, from, to, len)
            .map_err(|e| e.expect("one-sided drops carry an error"))?;
        let target = self.target(to)?;
        let seg = target
            .segment(seg_id)
            .ok_or(NetError::NoSuchSegment(seg_id))?;
        let local = from == to;
        if local {
            self.metrics.local_reads.fetch_add(1, Ordering::Relaxed);
        } else {
            self.metrics.remote_reads.fetch_add(1, Ordering::Relaxed);
        }
        self.metrics
            .bytes_read
            .fetch_add(len as u64, Ordering::Relaxed);
        self.metrics.doorbells.fetch_add(1, Ordering::Relaxed);
        self.charge(
            delay
                + self
                    .cfg
                    .latency
                    .one_sided_ns(local, self.rack_of(from) == self.rack_of(to), len),
        );
        seg.read(off, len).ok_or(NetError::OutOfBounds)
    }

    /// Doorbell-batched one-sided reads: post every `(seg_id, off, len)` in
    /// `reads` against the same destination with a **single** doorbell ring,
    /// so the batch pays one round-trip base plus per-byte costs (§3.4).
    /// The one-destination case of [`Fabric::read_scatter`], which documents
    /// the fault and error semantics.
    pub fn read_many(
        &self,
        from: MachineId,
        to: MachineId,
        reads: &[ReadSpec],
    ) -> Result<Vec<Result<Bytes, NetError>>, NetError> {
        self.read_scatter(from, &[(to, reads)])
            .pop()
            .expect("one group in, one result out")
    }

    /// Doorbell-batched one-sided reads to several machines at once: one
    /// doorbell per `(destination, reads)` group, posted in slice order, and
    /// **one** wait for the slowest of them — the posts are in flight
    /// together, so the caller pays the longest round trip, not their sum.
    /// Each destination is accounted exactly as a lone
    /// [`Fabric::read_many`] to it would be.
    ///
    /// Fault semantics match a single one-sided verb, per group: the
    /// injector rules once on each post (a partition drops that whole group
    /// and — like scalar reads — random message loss never applies to
    /// one-sided ops, so batching consumes no fault RNG and replay
    /// determinism is preserved). A dropped or unreachable group fails
    /// alone; its neighbours still deliver. Per-entry failures (bad segment,
    /// out of bounds) are returned in-slot so one bad address does not
    /// poison its batchmates. An empty group posts nothing.
    pub fn read_scatter<G: AsRef<[ReadSpec]>>(
        &self,
        from: MachineId,
        groups: &[(MachineId, G)],
    ) -> Vec<Result<Vec<Result<Bytes, NetError>>, NetError>> {
        let posts: Vec<(MachineId, usize, usize)> = groups
            .iter()
            .map(|(to, reads)| {
                let reads = reads.as_ref();
                (*to, reads.len(), reads.iter().map(|&(_, _, len)| len).sum())
            })
            .collect();
        self.post_reads(from, &posts)
            .into_iter()
            .zip(groups)
            .map(|(delivered, (to, reads))| {
                delivered?;
                let target = self.machine(*to)?;
                Ok(reads
                    .as_ref()
                    .iter()
                    .map(|&(seg_id, off, len)| {
                        let seg = target
                            .segment(seg_id)
                            .ok_or(NetError::NoSuchSegment(seg_id))?;
                        seg.read(off, len).ok_or(NetError::OutOfBounds)
                    })
                    .collect())
            })
            .collect()
    }

    /// The post under [`Fabric::read_scatter`], public for reads whose bytes
    /// live outside any registered segment (FaRM's old-version store). Posts
    /// one doorbell per `(destination, reads, total bytes)` entry — fault
    /// gate, liveness, counters, `sim_ns` — waits for the slowest, and
    /// reports per entry whether the post got through; the caller fetches
    /// the data itself for the entries that did.
    pub fn post_reads(
        &self,
        from: MachineId,
        posts: &[(MachineId, usize, usize)],
    ) -> Vec<Result<(), NetError>> {
        let mut slowest = 0;
        let posted = posts
            .iter()
            .map(|&(to, count, bytes)| {
                slowest = slowest.max(self.post_read(from, to, count, bytes)?);
                Ok(())
            })
            .collect();
        self.wait_ns(slowest);
        posted
    }

    /// The post half of one doorbell carrying `count` reads of `bytes` in
    /// total: fault gate, liveness, counters and `sim_ns`. Returns the
    /// modelled time the post takes, which the caller waits out — once, for
    /// the slowest of the posts it overlaps.
    fn post_read(
        &self,
        from: MachineId,
        to: MachineId,
        count: usize,
        bytes: usize,
    ) -> Result<u64, NetError> {
        if count == 0 {
            return Ok(0);
        }
        let delay = self
            .fault_gate(NetOp::Read, from, to, bytes)
            .map_err(|e| e.expect("one-sided drops carry an error"))?;
        self.target(to)?;
        let local = from == to;
        let reads = if local {
            &self.metrics.local_reads
        } else {
            &self.metrics.remote_reads
        };
        reads.fetch_add(count as u64, Ordering::Relaxed);
        self.metrics
            .bytes_read
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.metrics.doorbells.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .reads_batched
            .fetch_add(count as u64, Ordering::Relaxed);
        let ns = delay
            + self.cfg.latency.one_sided_batch_ns(
                local,
                self.rack_of(from) == self.rack_of(to),
                count,
                bytes,
            );
        self.account(ns);
        Ok(ns)
    }

    /// One-sided RDMA write.
    pub fn write(
        &self,
        from: MachineId,
        to: MachineId,
        seg_id: u64,
        off: usize,
        data: &[u8],
    ) -> Result<(), NetError> {
        let delay = self
            .fault_gate(NetOp::Write, from, to, data.len())
            .map_err(|e| e.expect("one-sided drops carry an error"))?;
        let target = self.target(to)?;
        let seg = target
            .segment(seg_id)
            .ok_or(NetError::NoSuchSegment(seg_id))?;
        let local = from == to;
        if local {
            self.metrics.local_writes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.metrics.remote_writes.fetch_add(1, Ordering::Relaxed);
        }
        self.metrics
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.charge(
            delay
                + self.cfg.latency.one_sided_ns(
                    local,
                    self.rack_of(from) == self.rack_of(to),
                    data.len(),
                ),
        );
        seg.write(off, data).ok_or(NetError::OutOfBounds)
    }

    /// One-sided atomic compare-and-swap on an 8-byte word (lock words in the
    /// FaRM commit protocol).
    pub fn cas64(
        &self,
        from: MachineId,
        to: MachineId,
        seg_id: u64,
        off: usize,
        expect: u64,
        new: u64,
    ) -> Result<u64, NetError> {
        let delay = self
            .fault_gate(NetOp::Cas, from, to, 8)
            .map_err(|e| e.expect("one-sided drops carry an error"))?;
        let target = self.target(to)?;
        let seg = target
            .segment(seg_id)
            .ok_or(NetError::NoSuchSegment(seg_id))?;
        self.metrics.cas_ops.fetch_add(1, Ordering::Relaxed);
        self.charge(
            delay
                + self.cfg.latency.one_sided_ns(
                    from == to,
                    self.rack_of(from) == self.rack_of(to),
                    8,
                ),
        );
        seg.cas64(off, expect, new).ok_or(NetError::OutOfBounds)
    }

    /// Install machine `on`'s RPC handler.
    pub fn set_rpc_handler(&self, on: MachineId, handler: Arc<RpcHandler>) {
        if let Ok(m) = self.machine(on) {
            m.set_rpc_handler(handler);
        }
    }

    pub fn set_ud_handler(&self, on: MachineId, handler: Arc<UdHandler>) {
        if let Ok(m) = self.machine(on) {
            m.set_ud_handler(handler);
        }
    }

    /// Synchronous RPC: [`Fabric::post_rpc`], then [`PendingRpc::wait`] at
    /// once. This is the slow path A1 uses for query shipping; latency is
    /// charged in both directions.
    pub fn rpc(&self, from: MachineId, to: MachineId, request: Bytes) -> Result<Bytes, NetError> {
        self.post_rpc(from, to, request)?.wait()
    }

    /// Post half of an RPC: rule on the request (fault gate, dead target,
    /// missing handler — all fail here), account for it (`rpcs`, request
    /// bytes, the request leg's `sim_ns`) and hand the handler to the
    /// target's worker pool ([`WorkerPool::post`]: inline on this thread
    /// when that pool is saturated, so cycles of machines whose workers are
    /// all blocked on each other's RPCs cannot deadlock; always inline under
    /// a virtual clock, so a simulated post completes before it returns).
    /// The caller is then free to post more requests or work locally, and
    /// collects the reply with [`PendingRpc::wait`].
    ///
    /// With latency injection on, the modelled wire time elapses on the
    /// thread that runs the handler — the request leg before the handler,
    /// the reply leg before the reply is delivered — never on the poster,
    /// so N posts are N requests on the wire together.
    pub fn post_rpc(
        &self,
        from: MachineId,
        to: MachineId,
        request: Bytes,
    ) -> Result<PendingRpc<'_>, NetError> {
        let delay = self
            .fault_gate(NetOp::Rpc, from, to, request.len())
            .map_err(|e| e.expect("rpc drops carry an error"))?;
        let target = self.target(to)?;
        let handler = target
            .rpc_handler
            .read()
            .clone()
            .ok_or(NetError::NoHandler(to))?;
        self.metrics.rpcs.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .rpc_req_bytes
            .fetch_add(request.len() as u64, Ordering::Relaxed);
        let same_rack = self.rack_of(from) == self.rack_of(to);
        let request_ns = delay + self.cfg.latency.rpc_ns(same_rack, request.len());
        self.account(request_ns);
        // What the handler's thread needs to sleep the two legs itself.
        let wire = self
            .inject
            .load(Ordering::Relaxed)
            .then(|| (self.clock.clone(), self.cfg.latency.clone()));
        let reply = target.pool.post(move || {
            if let Some((clock, _)) = &wire {
                clock.sleep(Duration::from_nanos(request_ns));
            }
            // A panicking handler surfaces as a lost reply, like a machine
            // dying after accepting the request.
            let reply =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(from, request)))
                    .ok()?;
            if let Some((clock, latency)) = &wire {
                clock.sleep(Duration::from_nanos(latency.rpc_ns(same_rack, reply.len())));
            }
            Some(reply)
        });
        Ok(PendingRpc {
            fabric: self,
            from,
            to,
            reply,
        })
    }

    /// Fire-and-forget unreliable datagram (leases, clock beacons §5.1).
    /// May be silently dropped per `ud_drop_rate`.
    pub fn send_ud(&self, from: MachineId, to: MachineId, payload: Bytes) {
        self.metrics.ud_sent.fetch_add(1, Ordering::Relaxed);
        let delay = match self.fault_gate(NetOp::Ud, from, to, payload.len()) {
            Ok(d) => d,
            Err(_) => {
                self.metrics.ud_dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        if self.cfg.ud_drop_rate > 0.0 && self.rng.next_f64() < self.cfg.ud_drop_rate {
            self.metrics.ud_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let Ok(target) = self.target(to) else {
            self.metrics.ud_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let Some(handler) = target.ud_handler.read().clone() else {
            self.metrics.ud_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let same_rack = self.rack_of(from) == self.rack_of(to);
        self.charge(delay + self.cfg.latency.rpc_ns(same_rack, payload.len()) / 2);
        target.pool.execute(move || handler(from, payload));
    }
}

/// An RPC whose request is posted and whose reply has not been collected:
/// made by [`Fabric::post_rpc`], redeemed by [`PendingRpc::wait`]. Dropping
/// it abandons the reply; the handler still runs.
pub struct PendingRpc<'f> {
    fabric: &'f Fabric,
    from: MachineId,
    to: MachineId,
    reply: Posted<Option<Bytes>>,
}

impl PendingRpc<'_> {
    /// Wait half of an RPC: block until the handler has run, then rule on
    /// the reply and account for it (reply bytes, the reply leg's `sim_ns`).
    /// The reply crosses the wire separately from the request: dropping it
    /// here models a request whose side effects landed but whose ack was
    /// lost. A handler that panicked also reads as a lost reply.
    pub fn wait(self) -> Result<Bytes, NetError> {
        let PendingRpc {
            fabric,
            from,
            to,
            reply,
        } = self;
        let reply = reply.wait().ok_or(NetError::RpcDropped)?;
        let reply_delay = fabric
            .fault_gate(NetOp::RpcReply, to, from, reply.len())
            .map_err(|e| e.expect("rpc-reply drops carry an error"))?;
        fabric
            .metrics
            .rpc_reply_bytes
            .fetch_add(reply.len() as u64, Ordering::Relaxed);
        let same_rack = fabric.rack_of(from) == fabric.rack_of(to);
        fabric.account(reply_delay + fabric.cfg.latency.rpc_ns(same_rack, reply.len()));
        // The modelled leg already elapsed before delivery; only what the
        // injector added on top is left to wait out.
        fabric.wait_ns(reply_delay);
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use std::time::Instant;

    fn fabric() -> Arc<Fabric> {
        Fabric::new(FabricConfig::default())
    }

    #[test]
    fn one_sided_read_write() {
        let f = fabric();
        let seg = Segment::new(128);
        f.machine(MachineId(1)).unwrap().register_segment(7, seg);
        f.write(MachineId(0), MachineId(1), 7, 16, &[9, 9]).unwrap();
        let b = f.read(MachineId(0), MachineId(1), 7, 16, 2).unwrap();
        assert_eq!(&b[..], &[9, 9]);
        let snap = f.metrics().snapshot();
        assert_eq!(snap.remote_reads, 1);
        assert_eq!(snap.remote_writes, 1);
        assert!(snap.sim_ns > 0);
    }

    #[test]
    fn local_vs_remote_accounting() {
        let f = fabric();
        let seg = Segment::new(64);
        f.machine(MachineId(0)).unwrap().register_segment(1, seg);
        f.read(MachineId(0), MachineId(0), 1, 0, 8).unwrap();
        f.read(MachineId(2), MachineId(0), 1, 0, 8).unwrap();
        let snap = f.metrics().snapshot();
        assert_eq!(snap.local_reads, 1);
        assert_eq!(snap.remote_reads, 1);
    }

    #[test]
    fn errors() {
        let f = fabric();
        assert_eq!(
            f.read(MachineId(0), MachineId(9), 1, 0, 8),
            Err(NetError::UnknownMachine(MachineId(9)))
        );
        assert_eq!(
            f.read(MachineId(0), MachineId(1), 1, 0, 8),
            Err(NetError::NoSuchSegment(1))
        );
        let seg = Segment::new(8);
        f.machine(MachineId(1)).unwrap().register_segment(1, seg);
        assert_eq!(
            f.read(MachineId(0), MachineId(1), 1, 4, 8),
            Err(NetError::OutOfBounds)
        );
        f.kill(MachineId(1));
        assert_eq!(
            f.read(MachineId(0), MachineId(1), 1, 0, 4),
            Err(NetError::MachineUnreachable(MachineId(1)))
        );
        f.revive(MachineId(1));
        assert!(f.read(MachineId(0), MachineId(1), 1, 0, 4).is_ok());
    }

    #[test]
    fn read_many_batches_one_doorbell() {
        let f = fabric();
        let seg = Segment::new(256);
        f.machine(MachineId(1)).unwrap().register_segment(7, seg);
        for i in 0..8 {
            f.write(MachineId(1), MachineId(1), 7, i * 8, &[i as u8; 8])
                .unwrap();
        }
        let before = f.metrics().snapshot();
        let specs: Vec<(u64, usize, usize)> = (0..8).map(|i| (7u64, i * 8, 8)).collect();
        let got = f.read_many(MachineId(0), MachineId(1), &specs).unwrap();
        assert_eq!(got.len(), 8);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(&r.as_ref().unwrap()[..], &[i as u8; 8]);
        }
        let d = f.metrics().snapshot().delta_since(&before);
        assert_eq!(d.remote_reads, 8, "object-level read count is preserved");
        assert_eq!(d.doorbells, 1, "one post for the whole batch");
        assert_eq!(d.reads_batched, 8);
        assert_eq!(d.bytes_read, 64);
    }

    #[test]
    fn read_many_charges_one_round_trip() {
        let clock = VirtualClock::new();
        let cfg = FabricConfig {
            inject_latency: true,
            clock: clock.clone(),
            ..Default::default()
        };
        let f = Fabric::new(cfg);
        f.machine(MachineId(1))
            .unwrap()
            .register_segment(1, Segment::new(1024));
        let t0 = clock.now_ns();
        let specs: Vec<(u64, usize, usize)> = (0..8).map(|i| (1u64, i * 64, 64)).collect();
        f.read_many(MachineId(0), MachineId(1), &specs).unwrap();
        let batched_ns = clock.now_ns() - t0;
        let t1 = clock.now_ns();
        for &(s, o, l) in &specs {
            f.read(MachineId(0), MachineId(1), s, o, l).unwrap();
        }
        let scalar_ns = clock.now_ns() - t1;
        assert!(
            batched_ns * 4 < scalar_ns,
            "batched {batched_ns}ns vs scalar {scalar_ns}ns"
        );
    }

    #[test]
    fn read_many_per_entry_errors() {
        let f = fabric();
        f.machine(MachineId(1))
            .unwrap()
            .register_segment(1, Segment::new(64));
        let got = f
            .read_many(
                MachineId(0),
                MachineId(1),
                &[(1, 0, 8), (9, 0, 8), (1, 60, 8)],
            )
            .unwrap();
        assert!(got[0].is_ok());
        assert_eq!(got[1], Err(NetError::NoSuchSegment(9)));
        assert_eq!(got[2], Err(NetError::OutOfBounds));
        // Batch-level failures: dead machine, empty batch.
        f.kill(MachineId(1));
        assert_eq!(
            f.read_many(MachineId(0), MachineId(1), &[(1, 0, 8)]),
            Err(NetError::MachineUnreachable(MachineId(1)))
        );
        assert_eq!(f.read_many(MachineId(0), MachineId(2), &[]), Ok(vec![]));
    }

    #[test]
    fn read_many_respects_fault_injector() {
        let f = fabric();
        f.machine(MachineId(1))
            .unwrap()
            .register_segment(1, Segment::new(64));
        f.machine(MachineId(0))
            .unwrap()
            .register_segment(2, Segment::new(64));
        f.set_fault_injector(Some(Arc::new(DropAll)));
        assert_eq!(
            f.read_many(MachineId(0), MachineId(1), &[(1, 0, 8)]),
            Err(NetError::MachineUnreachable(MachineId(1))),
            "the injector rules once on the whole doorbell"
        );
        assert!(f
            .read_many(MachineId(0), MachineId(0), &[(2, 0, 8)])
            .is_ok());
    }

    #[test]
    fn read_scatter_accounts_per_destination_and_waits_for_the_slowest() {
        // Machines 1 and 2 with racks = 3: m1 is cross-rack from m0, and so
        // is m2; m3 shares m0's rack. Three destinations, three latencies.
        let boot = || {
            let clock = VirtualClock::new();
            let f = Fabric::new(FabricConfig {
                inject_latency: true,
                clock: clock.clone(),
                ..Default::default()
            });
            for m in 1..4 {
                f.machine(MachineId(m))
                    .unwrap()
                    .register_segment(1, Segment::new(4096));
            }
            (f, clock)
        };
        let groups: Vec<(MachineId, Vec<ReadSpec>)> = (1..4u32)
            .map(|m| {
                let reads = (0..m as usize * 2).map(|i| (1u64, i * 64, 64)).collect();
                (MachineId(m), reads)
            })
            .collect();

        // One at a time: the reference accounting, and the sum of the waits.
        let (f, clock) = boot();
        let mut each_ns = Vec::new();
        for (to, reads) in &groups {
            let t0 = clock.now_ns();
            f.read_many(MachineId(0), *to, reads).unwrap();
            each_ns.push(clock.now_ns() - t0);
        }
        let serial = f.metrics().snapshot();
        assert_eq!(serial.sim_ns, each_ns.iter().sum::<u64>());

        // Scattered: identical counters, but the clock moved by the slowest.
        let (f, clock) = boot();
        let got = f.read_scatter(MachineId(0), &groups);
        assert_eq!(got.len(), 3);
        for (res, (_, reads)) in got.iter().zip(&groups) {
            assert_eq!(res.as_ref().unwrap().len(), reads.len());
        }
        assert_eq!(f.metrics().snapshot(), serial, "accounting cannot move");
        assert_eq!(serial.doorbells, 3);
        assert_eq!(clock.now_ns(), *each_ns.iter().max().unwrap());
    }

    #[test]
    fn read_scatter_fails_one_group_alone_and_post_reads_rules_the_same() {
        /// Partitions machine 2 away from everyone.
        struct Isolate2;
        impl FaultInjector for Isolate2 {
            fn decide(&self, _: NetOp, _: MachineId, to: MachineId, _: usize) -> FaultDecision {
                if to == MachineId(2) {
                    FaultDecision::Drop
                } else {
                    FaultDecision::Deliver
                }
            }
        }
        let f = fabric();
        for m in 1..4 {
            f.machine(MachineId(m))
                .unwrap()
                .register_segment(1, Segment::new(64));
        }
        f.set_fault_injector(Some(Arc::new(Isolate2)));
        let one = [(1u64, 0usize, 8usize)];
        let groups = [
            (MachineId(1), &one[..]),
            (MachineId(2), &one[..]),
            (MachineId(3), &one[..]),
        ];
        let got = f.read_scatter(MachineId(0), &groups);
        assert!(got[0].is_ok() && got[2].is_ok());
        assert_eq!(got[1], Err(NetError::MachineUnreachable(MachineId(2))));
        let before = f.metrics().snapshot();
        let ruled = f.post_reads(
            MachineId(0),
            &[
                (MachineId(1), 2, 100),
                (MachineId(2), 1, 50),
                (MachineId(3), 0, 0),
            ],
        );
        assert_eq!(
            ruled,
            [
                Ok(()),
                Err(NetError::MachineUnreachable(MachineId(2))),
                Ok(())
            ]
        );
        let d = f.metrics().snapshot().delta_since(&before);
        assert_eq!((d.doorbells, d.remote_reads, d.bytes_read), (1, 2, 100));
    }

    #[test]
    fn rpc_roundtrip() {
        let f = fabric();
        f.set_rpc_handler(
            MachineId(2),
            Arc::new(|from: MachineId, req: Bytes| {
                let mut v = req.to_vec();
                v.push(from.0 as u8);
                Bytes::from(v)
            }),
        );
        let reply = f
            .rpc(MachineId(1), MachineId(2), Bytes::from_static(&[5]))
            .unwrap();
        assert_eq!(&reply[..], &[5, 1]);
        let snap = f.metrics().snapshot();
        assert_eq!(snap.rpcs, 1);
        assert_eq!(snap.rpc_req_bytes, 1);
        assert_eq!(snap.rpc_reply_bytes, 2);
        assert_eq!(snap.rpc_bytes(), 3);
    }

    #[test]
    fn rpc_to_dead_machine_fails() {
        let f = fabric();
        f.kill(MachineId(3));
        assert_eq!(
            f.rpc(MachineId(0), MachineId(3), Bytes::new()),
            Err(NetError::MachineUnreachable(MachineId(3)))
        );
        assert_eq!(
            f.rpc(MachineId(0), MachineId(1), Bytes::new()),
            Err(NetError::NoHandler(MachineId(1)))
        );
    }

    fn echo_on(f: &Fabric, m: MachineId) {
        f.set_rpc_handler(m, Arc::new(|_from, req: Bytes| req));
    }

    #[test]
    fn post_then_wait_accounts_exactly_like_rpc() {
        let run = |posted: bool| {
            let f = fabric();
            echo_on(&f, MachineId(1));
            echo_on(&f, MachineId(2));
            let req = |n: usize| Bytes::from(vec![7u8; n]);
            if posted {
                let a = f.post_rpc(MachineId(0), MachineId(1), req(100)).unwrap();
                let b = f.post_rpc(MachineId(0), MachineId(2), req(300)).unwrap();
                assert_eq!(b.wait().unwrap().len(), 300);
                assert_eq!(a.wait().unwrap().len(), 100);
            } else {
                f.rpc(MachineId(0), MachineId(1), req(100)).unwrap();
                f.rpc(MachineId(0), MachineId(2), req(300)).unwrap();
            }
            f.metrics().snapshot()
        };
        let (posted, sync) = (run(true), run(false));
        assert_eq!(posted, sync);
        assert_eq!(
            (sync.rpcs, sync.rpc_req_bytes, sync.rpc_reply_bytes),
            (2, 400, 400)
        );
        assert!(sync.sim_ns > 0);
    }

    #[test]
    fn dead_target_and_missing_handler_fail_at_post() {
        let f = fabric();
        f.kill(MachineId(3));
        assert_eq!(
            f.post_rpc(MachineId(0), MachineId(3), Bytes::new()).err(),
            Some(NetError::MachineUnreachable(MachineId(3)))
        );
        assert_eq!(
            f.post_rpc(MachineId(0), MachineId(1), Bytes::new()).err(),
            Some(NetError::NoHandler(MachineId(1)))
        );
        assert_eq!(f.metrics().snapshot().rpcs, 0, "nothing was sent");
    }

    #[test]
    fn panicking_handler_reads_as_a_dropped_reply() {
        let f = fabric();
        f.set_rpc_handler(MachineId(1), Arc::new(|_, _| panic!("handler bug")));
        let pending = f
            .post_rpc(MachineId(0), MachineId(1), Bytes::new())
            .unwrap();
        assert_eq!(pending.wait(), Err(NetError::RpcDropped));
        // The worker survived: the machine still answers.
        echo_on(&f, MachineId(1));
        assert!(f.rpc(MachineId(0), MachineId(1), Bytes::new()).is_ok());
    }

    #[test]
    fn posted_rpcs_share_the_wire_under_injected_latency() {
        // Sleep-regime legs (5 ms each way) so scheduling noise is small
        // beside them: five posts must take about one round trip, not five.
        let mut cfg = FabricConfig {
            machines: 6,
            inject_latency: true,
            ..Default::default()
        };
        cfg.latency.rack_rtt_ns = 10_000_000;
        cfg.latency.cross_rack_rtt_ns = 10_000_000;
        cfg.latency.rpc_overhead_ns = 0;
        let f = Fabric::new(cfg);
        for m in 1..6 {
            echo_on(&f, MachineId(m));
        }
        let t0 = Instant::now();
        let pending: Vec<PendingRpc<'_>> = (1..6)
            .map(|m| {
                f.post_rpc(MachineId(0), MachineId(m), Bytes::new())
                    .unwrap()
            })
            .collect();
        let posted_in = t0.elapsed();
        for p in pending {
            p.wait().unwrap();
        }
        let all_in = t0.elapsed();
        assert!(
            posted_in < Duration::from_millis(5),
            "post slept: {posted_in:?}"
        );
        assert!(all_in >= Duration::from_millis(10), "a round trip elapsed");
        assert!(
            all_in < Duration::from_millis(30),
            "ships serialised: {all_in:?}"
        );
        assert_eq!(f.metrics().snapshot().sim_ns, 5 * 10_000_000);
    }

    #[test]
    fn ud_delivery_and_drops() {
        let cfg = FabricConfig {
            ud_drop_rate: 0.0,
            ..Default::default()
        };
        let f = Fabric::new(cfg);
        let (tx, rx) = crossbeam::channel::bounded(1);
        f.set_ud_handler(
            MachineId(1),
            Arc::new(move |_from, payload: Bytes| {
                let _ = tx.send(payload);
            }),
        );
        f.send_ud(MachineId(0), MachineId(1), Bytes::from_static(b"hb"));
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&got[..], b"hb");

        // With 100% drop rate nothing arrives.
        let cfg = FabricConfig {
            ud_drop_rate: 1.0,
            ..Default::default()
        };
        let f = Fabric::new(cfg);
        f.send_ud(MachineId(0), MachineId(1), Bytes::from_static(b"x"));
        assert_eq!(f.metrics().snapshot().ud_dropped, 1);
    }

    #[test]
    fn rack_assignment_spreads() {
        let f = Fabric::new(FabricConfig {
            machines: 6,
            racks: 3,
            ..Default::default()
        });
        assert_eq!(f.rack_of(MachineId(0)), 0);
        assert_eq!(f.rack_of(MachineId(1)), 1);
        assert_eq!(f.rack_of(MachineId(2)), 2);
        assert_eq!(f.rack_of(MachineId(3)), 0);
    }

    #[test]
    fn virtual_clock_selects_seeded_pool_order() {
        use crate::pool::ScopedJob;
        // The batch order each machine's pool picks under `seed`.
        let orders = |seed: u64| -> Vec<Vec<usize>> {
            let f = Fabric::new(FabricConfig {
                seed,
                clock: VirtualClock::new(),
                ..Default::default()
            });
            f.machines()
                .iter()
                .map(|m| {
                    let ran = parking_lot::Mutex::new(Vec::new());
                    let jobs: Vec<ScopedJob<()>> = (0..12)
                        .map(|i| {
                            let ran = &ran;
                            Box::new(move || ran.lock().push(i)) as ScopedJob<()>
                        })
                        .collect();
                    m.pool().run_all(jobs);
                    assert_eq!(m.pool().thread_count(), f.config().threads_per_machine);
                    ran.into_inner()
                })
                .collect()
        };
        let a = orders(5);
        assert_eq!(a, orders(5), "replayable from the fabric seed");
        assert_ne!(a, orders(6));
        assert_ne!(a[0], a[1], "each machine forks its own stream");
    }

    #[test]
    fn injected_latency_is_virtual_under_sim_clock() {
        let clock = VirtualClock::new();
        let cfg = FabricConfig {
            inject_latency: true,
            clock: clock.clone(),
            ..Default::default()
        };
        let f = Fabric::new(cfg);
        let seg = Segment::new(64);
        f.machine(MachineId(1)).unwrap().register_segment(1, seg);
        let t0 = Instant::now();
        for _ in 0..10 {
            f.read(MachineId(0), MachineId(1), 1, 0, 8).unwrap();
        }
        // The modeled ~50 µs land on the virtual clock, not the wall clock.
        assert!(clock.now_ns() >= 40_000, "virtual time advanced");
        assert!(t0.elapsed() < Duration::from_millis(50));
        assert_eq!(f.metrics().snapshot().sim_ns, clock.now_ns());
    }

    /// A drop-everything injector partitions the fabric; clearing it heals.
    struct DropAll;
    impl FaultInjector for DropAll {
        fn decide(&self, _: NetOp, from: MachineId, to: MachineId, _: usize) -> FaultDecision {
            if from == to {
                FaultDecision::Deliver
            } else {
                FaultDecision::Drop
            }
        }
    }

    #[test]
    fn fault_injector_drops_and_heals() {
        let f = fabric();
        let seg = Segment::new(64);
        f.machine(MachineId(1)).unwrap().register_segment(1, seg);
        f.machine(MachineId(0))
            .unwrap()
            .register_segment(2, Segment::new(64));
        f.set_fault_injector(Some(Arc::new(DropAll)));
        assert_eq!(
            f.read(MachineId(0), MachineId(1), 1, 0, 8),
            Err(NetError::MachineUnreachable(MachineId(1)))
        );
        assert_eq!(
            f.rpc(MachineId(0), MachineId(1), Bytes::new()),
            Err(NetError::MachineUnreachable(MachineId(1)))
        );
        // Local ops are untouched.
        assert!(f.read(MachineId(0), MachineId(0), 2, 0, 8).is_ok());
        f.set_fault_injector(None);
        assert!(f.read(MachineId(0), MachineId(1), 1, 0, 8).is_ok());
    }

    /// Reply-drop: the handler runs (side effects land) but the caller sees
    /// a lost reply — the classic commit-ambiguity fault.
    struct DropReplies;
    impl FaultInjector for DropReplies {
        fn decide(&self, op: NetOp, _: MachineId, _: MachineId, _: usize) -> FaultDecision {
            if op == NetOp::RpcReply {
                FaultDecision::Drop
            } else {
                FaultDecision::Deliver
            }
        }
    }

    #[test]
    fn fault_injector_reply_drop_after_side_effects() {
        let f = fabric();
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let hits2 = hits.clone();
        f.set_rpc_handler(
            MachineId(2),
            Arc::new(move |_, req: Bytes| {
                hits2.fetch_add(1, Ordering::SeqCst);
                req
            }),
        );
        f.set_fault_injector(Some(Arc::new(DropReplies)));
        assert_eq!(
            f.rpc(MachineId(1), MachineId(2), Bytes::from_static(&[1])),
            Err(NetError::RpcDropped)
        );
        assert_eq!(hits.load(Ordering::SeqCst), 1, "handler ran before drop");
        // Posted: the request goes through; the loss surfaces at the wait.
        let pending = f
            .post_rpc(MachineId(1), MachineId(2), Bytes::from_static(&[1]))
            .expect("the request leg is not what drops");
        assert_eq!(pending.wait(), Err(NetError::RpcDropped));
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        assert_eq!(f.metrics().snapshot().rpc_reply_bytes, 0);
    }

    #[test]
    fn injected_latency_is_wall_clock() {
        let cfg = FabricConfig {
            inject_latency: true,
            ..Default::default()
        };
        let f = Fabric::new(cfg);
        let seg = Segment::new(64);
        f.machine(MachineId(1)).unwrap().register_segment(1, seg);
        let t0 = Instant::now();
        for _ in 0..10 {
            f.read(MachineId(0), MachineId(1), 1, 0, 8).unwrap();
        }
        // 10 in-rack reads ≈ 50 µs minimum.
        assert!(t0.elapsed() >= Duration::from_micros(40));
    }
}
