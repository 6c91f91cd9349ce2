//! The four workloads. Each is one process invocation: generate inputs from
//! the seed, set the cluster up, run one measured phase, check every answer
//! against the generator's own reference.

pub mod ingest_stream;
pub mod kg_read;
pub mod mixed_serve;
pub mod uniform_cold;

use crate::driver::Phase;
use crate::trace::Tracer;
use a1_core::{A1Cluster, A1Config, A1Result};

/// Closed loops use two clients, the open loop two senders: never more
/// generator threads than the two cores this benchmark is sized for.
pub const CLIENTS: usize = 2;

/// How big a run is. `full` is what `BENCHMARK.json` measures; `smoke` is
/// the seconds-long variant the in-crate tests run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub machines: u32,
    pub smoke: bool,
    /// Rounds the measured phase is split into.
    pub rounds: usize,
    /// Set-ups per run (`setup_s` is their median): at least the first
    /// number, and up to the second while they have taken under
    /// [`SETUP_BUDGET_S`] in all, so a sub-second set-up is sampled more.
    pub setup_reps: (usize, usize),
}

pub const SETUP_BUDGET_S: f64 = 3.0;

impl Scale {
    pub fn full() -> Scale {
        Scale {
            machines: 8,
            smoke: false,
            rounds: 10,
            setup_reps: (3, 7),
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            machines: 3,
            smoke: true,
            rounds: 1,
            setup_reps: (1, 1),
        }
    }

    /// The cluster every workload runs on: `A1Config::small`, no knob
    /// touched, latency injection off (its default).
    pub fn config(&self) -> A1Config {
        A1Config::small(self.machines)
    }
}

/// Which share of a workload's ops parses a query, decodes a vertex record
/// for a lookup, or parses and encodes one for a write; and how many
/// primary-index B-tree descents an op makes. Inputs to the budget model.
#[derive(Debug, Clone, Copy)]
pub struct OpShape {
    pub query: f64,
    pub lookup: f64,
    pub write: f64,
    pub index_descents: f64,
}

pub trait Workload {
    /// Start a cluster, load the generated graph, warm caches and pools.
    fn setup(&self) -> A1Result<A1Cluster>;

    /// Run the measured phase for `seconds`.
    fn measure(&self, cluster: &A1Cluster, seconds: f64, tracer: Option<&Tracer>) -> Phase;

    /// The `i`-th query whose hops the traced pass times through
    /// `coordinate_query`; `None` when the workload runs no query.
    fn probe_query(&self, i: usize) -> Option<String>;

    fn op_shape(&self) -> OpShape;

    /// Whether a second measured phase (the traced run makes two, then the
    /// layer probes write too) may run on the cluster the first one used.
    fn reusable_cluster(&self) -> bool {
        true
    }
}

pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "kg_read" => Box::new(kg_read::KgRead::new(seed, scale)),
        "uniform_cold" => Box::new(uniform_cold::UniformCold::new(seed, scale)),
        "ingest_stream" => Box::new(ingest_stream::IngestStream::new(seed, scale)),
        "mixed_serve" => Box::new(mixed_serve::MixedServe::new(seed, scale)),
        _ => return None,
    })
}
