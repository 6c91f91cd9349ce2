//! FaRM-style transactional distributed in-memory storage (paper §2, §5.2–5.3).
//!
//! This crate reproduces the storage substrate A1 is built on:
//!
//! * **Regions** — each machine's memory is split into fixed-size regions
//!   ([`region`]), replicated 3-ways across fault domains with a
//!   primary–backup scheme. Objects (64 B–1 MB) are allocated inside regions
//!   by a size-class allocator ([`alloc`]) and addressed by a 64-bit
//!   [`Addr`] = ⟨region id, offset⟩. Upper layers pass ⟨addr, size⟩
//!   [`Ptr`]s so a single one-sided read fetches an object (§2.2).
//! * **Configuration manager** ([`cm`]) — membership, region placement
//!   across fault domains, failure handling with backup promotion and
//!   re-replication.
//! * **Transactions** ([`txn`]) — FaRMv2-style strictly-serializable
//!   optimistic transactions with **opacity** via a global clock and
//!   multi-version concurrency control (§5.2). Read-only transactions read a
//!   consistent snapshot and never abort or block updates.
//! * **Distributed B+-trees** ([`btree`]) — high-fanout trees over FaRM
//!   objects with internal-node caching and fence-key verification (§3.1).
//! * **Fast restart** ([`pyco`]) — region memory is owned by a simulated
//!   kernel driver so a process crash (not a reboot) preserves data (§5.3).

pub mod addr;
pub mod alloc;
pub mod btree;
pub mod clock;
pub mod cluster;
pub mod cm;
pub mod error;
pub mod layout;
pub mod pyco;
pub mod region;
pub mod store;
pub mod txn;

pub use addr::{Addr, Ptr, RegionId};
pub use btree::{BTree, BTreeConfig};
pub use clock::{
    marzullo, ClockSample, GlobalClock, Lease, LeaseManager, MachineClock, SyncOutcome, TsGuard,
    TsRegistry,
};
pub use cluster::{FarmCluster, FarmConfig};
pub use error::{FarmError, FarmResult};
pub use layout::ObjHeader;
pub use txn::{FetchReq, FetchResp, Hint, ObjBuf, Txn};

pub use a1_rdma::{
    ClockSource, ClusterRng, FabricConfig, FaultDecision, FaultInjector, JobClass, LatencyModel,
    MachineId, NetOp, RealClock, ScopedJob, VirtualClock, WorkerPool,
};
