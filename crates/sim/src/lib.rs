//! # a1-sim — deterministic simulation harness for the A1 cluster
//!
//! Every source of nondeterminism in a simulated A1 deployment — time,
//! randomness, network faults, machine crashes, clock skew — is owned by a
//! seeded scheduler here, so any run is exactly replayable from
//! `(scenario, seed)`:
//!
//! * [`SimEnv`] boots a cluster on a [`a1_rdma::VirtualClock`] and a seeded
//!   [`a1_rdma::ClusterRng`], with seeded pool scheduling so event order
//!   is a pure function of the inputs.
//! * [`SimNet`] rules on every simulated network verb (deliver, drop,
//!   delay) as a fault injector: partitions, reply loss, seeded random
//!   loss storms.
//! * [`Trace`] records the run; its FNV-1a hash is the replayability
//!   fingerprint — same `(scenario, seed)`, same bytes, same hash.
//! * The [`scenario::catalog`] holds the fault stories (partitions during
//!   ingest, machine death mid-fan-out, clock skew past the lease bound,
//!   backward jumps, replication-log replay races, cache invalidation vs.
//!   crash), each judged by invariant [`oracle`]s: answers must match a
//!   fault-free same-seed reference, committed writes must survive, leases
//!   must stay fail-safe, watermarks must be monotonic.
//! * [`runner`] folds outcomes into [`SimVerdict`]s and sweeps seed ranges,
//!   printing the exact reproduction command for every failure.

pub mod harness;
pub mod net;
pub mod oracle;
pub mod runner;
pub mod scenario;
pub mod scenarios;
pub mod trace;
pub mod workload;

pub use harness::SimEnv;
pub use net::SimNet;
pub use oracle::{lease_safety_sample, watermark_monotonic, OracleReport};
pub use runner::{repro_command, run_by_name, run_scenario, sweep, SimVerdict, SweepReport};
pub use scenario::{by_name, catalog, Scenario, ScenarioOutcome};
pub use trace::{Trace, TraceEvent};
