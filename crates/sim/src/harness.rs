//! The simulation environment: one A1 cluster wired so that **every**
//! nondeterminism source is owned by the harness.
//!
//! * Time — a [`VirtualClock`] injected as the fabric's [`ClockSource`];
//!   every timer in the stack (conflict backoff, lease expiry, continuation
//!   and cache TTLs, ingest flush deadlines) reads and sleeps on it, so
//!   time only moves when the scenario advances it.
//! * Randomness — the fabric's [`ClusterRng`] and the scenario's own RNG
//!   are both derived from the run seed.
//! * The network — a [`SimNet`] fault injector rules on every simulated
//!   verb; its decisions are a pure function of scenario state + seed.
//! * Execution — the cluster boots the production [`ExecConfig`] default;
//!   the virtual clock puts every machine's worker pool in deterministic
//!   mode ([`a1_rdma::WorkerPool::deterministic`]), so a hop's posted ships
//!   and local op, and a work op's morsels, run on the scenario's single
//!   logical thread in an order drawn from the run seed (a post completes
//!   before it returns), and the event order is a function of the inputs
//!   alone.
//!
//! [`ExecConfig`]: a1_core::query::ExecConfig

use std::sync::Arc;
use std::time::Duration;

use a1_core::{A1Client, A1Cluster, A1Config};
use a1_farm::MachineClock;
use a1_rdma::{ClockSource, ClusterRng, MachineId, VirtualClock};

use crate::net::SimNet;
use crate::trace::Trace;

/// A seeded, fully-deterministic A1 cluster plus the handles a scenario
/// needs to inject faults and advance time.
pub struct SimEnv {
    pub seed: u64,
    pub machines: u32,
    pub clock: Arc<VirtualClock>,
    pub net: Arc<SimNet>,
    pub trace: Arc<Trace>,
    /// Scenario-level decision stream, independent of the cluster's
    /// internal RNG (forked from the same seed).
    pub rng: ClusterRng,
    pub cluster: A1Cluster,
}

impl SimEnv {
    /// The deterministic base configuration: virtual clock and run seed
    /// over production defaults. Scenarios that need DR or caching enable
    /// those on the returned config before [`SimEnv::with_config`].
    pub fn base_config(seed: u64, machines: u32, clock: &Arc<VirtualClock>) -> A1Config {
        let mut cfg = A1Config::small(machines);
        cfg.farm.fabric.seed = seed;
        cfg.farm.fabric.clock = clock.clone();
        // Latency injection would only advance virtual time; keep it off so
        // time moves exactly when scenarios say so.
        cfg.farm.fabric.inject_latency = false;
        cfg
    }

    /// Boot a deterministic cluster with the base configuration.
    pub fn new(seed: u64, machines: u32) -> SimEnv {
        let clock = VirtualClock::starting_at(1 << 30);
        let cfg = Self::base_config(seed, machines, &clock);
        Self::with_config(seed, machines, clock, cfg)
    }

    /// Boot with a scenario-customized config. `cfg.farm.fabric.clock` must
    /// be `clock` and `cfg.farm.fabric.seed` must be `seed` (use
    /// [`SimEnv::base_config`] as the starting point).
    pub fn with_config(
        seed: u64,
        machines: u32,
        clock: Arc<VirtualClock>,
        cfg: A1Config,
    ) -> SimEnv {
        let trace = Trace::new();
        let cluster = A1Cluster::start(cfg).expect("sim cluster boot");
        let net = SimNet::new(
            ClusterRng::new(seed ^ 0x5157_0000_0000_0001),
            trace.clone(),
            clock.clone() as Arc<dyn a1_rdma::ClockSource>,
        );
        cluster
            .farm()
            .fabric()
            .set_fault_injector(Some(net.clone() as Arc<dyn a1_rdma::FaultInjector>));
        trace.record(
            clock.now_ns(),
            "boot",
            format!("seed={seed} machines={machines}"),
        );
        SimEnv {
            seed,
            machines,
            clock,
            net,
            trace,
            rng: ClusterRng::new(seed ^ 0x5157_0000_0000_0002),
            cluster,
        }
    }

    pub fn client(&self) -> A1Client {
        self.cluster.client()
    }

    /// Record a scenario-level event at current virtual time.
    pub fn event(&self, kind: &str, detail: impl Into<String>) {
        self.trace.record(self.clock.now_ns(), kind, detail);
    }

    /// Advance virtual time.
    pub fn advance(&self, d: Duration) {
        let now = self.clock.advance(d.as_nanos() as u64);
        self.trace
            .record(now, "tick", format!("+{}us", d.as_micros()));
    }

    /// A machine's physical clock (skew/jump injection, lease checks).
    pub fn machine_clock(&self, m: MachineId) -> &Arc<MachineClock> {
        self.cluster.farm().machine_clock(m)
    }

    /// Crash the FaRM process on `m` (memory survives in PyCo, §5.3).
    pub fn crash_process(&self, m: MachineId) {
        self.event("crash", format!("process machine {}", m.0));
        self.cluster.farm().crash_process(m);
    }

    /// Restart a crashed process (fast restart, §5.3).
    pub fn restart_process(&self, m: MachineId) {
        self.event("restart", format!("process machine {}", m.0));
        self.cluster.farm().restart_process(m);
    }

    /// Kill a machine outright (memory gone; backups promote).
    pub fn kill_machine(&self, m: MachineId) {
        self.event("kill", format!("machine {}", m.0));
        self.cluster.farm().kill_machine(m);
    }
}
