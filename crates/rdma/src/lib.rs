//! Simulated RDMA fabric.
//!
//! The paper's A1/FaRM stack is gated on RDMA hardware (Mellanox NICs,
//! RoCEv2 + DCQCN, §5.1). This crate substitutes an in-process simulated
//! fabric that preserves what the layers above actually observe:
//!
//! * **One-sided verbs** ([`Fabric::read`], [`Fabric::write`],
//!   [`Fabric::cas64`]) that access a remote machine's registered memory
//!   segments without involving that machine's "CPU" (worker pool), and
//!   doorbell-batched reads ([`Fabric::read_many`] to one machine,
//!   [`Fabric::read_scatter`] to several at once).
//! * **A latency model** — local ≈100 ns vs in-rack ≈5 µs vs cross-rack
//!   ≈17 µs plus a per-byte bandwidth term — so the 20–100× local/remote gap
//!   that drives A1's data-placement decisions (§2.2) is visible. Latency is
//!   always *accounted* (simulated nanosecond counters) and can optionally be
//!   *injected* (spin-waits) so wall-clock measurements are µs-realistic.
//! * **RPC** with per-machine elastic worker pools and real queueing — the
//!   transport for A1's query shipping (§3.4). An RPC is *posted*
//!   ([`Fabric::post_rpc`]) and its reply collected later
//!   ([`PendingRpc::wait`]), so one thread keeps several in flight the way a
//!   FaRM fiber does; [`Fabric::rpc`] is the two back to back.
//! * **Unreliable datagrams** with loss injection — used for leases and clock
//!   beacons (§5.1).
//! * **Failure injection** — machines can be killed and revived; operations
//!   against dead machines fail like a NIC timeout would.
//!
//! Machines are assigned round-robin to `racks` fault domains; rack
//! membership feeds both the latency model and FaRM's replica placement.

mod clock;
mod fabric;
mod fault;
mod latency;
mod machine;
mod metrics;
mod pool;
mod rng;

pub use clock::{ClockSource, RealClock, VirtualClock};
pub use fabric::{Fabric, NetError, PendingRpc, ReadSpec};
pub use fault::{FaultDecision, FaultInjector, NetOp};
pub use latency::LatencyModel;
pub use machine::{Machine, Segment};
pub use metrics::{Metrics, MetricsSnapshot};
pub use pool::{JobClass, Posted, ScopedJob, WorkerPool};
pub use rng::ClusterRng;

/// Identifies a machine in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub u32);

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Fabric-wide configuration.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of simulated machines.
    pub machines: u32,
    /// Number of fault domains (racks). Machines are spread round-robin.
    pub racks: u32,
    /// Base worker threads per machine (the paper pins a fixed thread count
    /// per FaRM process, §2.2).
    pub threads_per_machine: usize,
    /// Elastic ceiling for worker threads; extra threads are spawned when the
    /// base set is saturated and expire when idle. This keeps the in-process
    /// simulation deadlock-free under nested RPC while preserving queueing.
    pub max_threads_per_machine: usize,
    /// The latency model used for accounting (and optional injection).
    pub latency: LatencyModel,
    /// When true, every simulated network operation spin-waits for its
    /// modeled latency so wall-clock timings are microsecond-faithful.
    pub inject_latency: bool,
    /// Probability in `[0,1]` that an unreliable datagram is dropped.
    pub ud_drop_rate: f64,
    /// Seed for the cluster's [`ClusterRng`] (datagram drops, backoff
    /// jitter). Fixing it makes every random decision replayable.
    pub seed: u64,
    /// The time source every timer in the stack reads and sleeps on.
    /// [`RealClock`] (the default) reproduces pre-existing behavior; the
    /// simulation harness injects a [`VirtualClock`] here. A virtual clock
    /// also puts every machine's pool in deterministic mode
    /// ([`WorkerPool::deterministic`], ordered by forks of `seed`): whoever
    /// owns time owns scheduling.
    pub clock: std::sync::Arc<dyn ClockSource>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            machines: 4,
            racks: 3,
            threads_per_machine: 2,
            max_threads_per_machine: 64,
            latency: LatencyModel::default(),
            inject_latency: false,
            ud_drop_rate: 0.0,
            seed: 0xA1,
            clock: RealClock::shared(),
        }
    }
}

impl FabricConfig {
    pub fn with_machines(mut self, n: u32) -> Self {
        self.machines = n;
        self
    }

    pub fn with_injected_latency(mut self, on: bool) -> Self {
        self.inject_latency = on;
        self
    }
}
