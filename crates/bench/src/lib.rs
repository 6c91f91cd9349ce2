//! Benchmark harness for the A1 reproduction: workload generators, the
//! trace-driven discrete-event throughput simulator, and runners that
//! regenerate every table and figure in the paper's evaluation (§6). The
//! `experiments` binary's header lists the targets; the root README maps
//! them to the paper's sections.

pub mod cache;
pub mod costmodel;
pub mod des;
pub mod figures;
pub mod ingest;
pub mod loadgen;
pub mod sim;
pub mod validate;
pub mod wire;
pub mod workload;

pub use cache::{cache_report, cache_suite_to_json, run_cache_suite, CacheBenchResult, CacheSuite};
pub use costmodel::{CostModel, HopDemand, QueryProfile};
pub use des::{DesConfig, DesResult};
pub use ingest::{ingest_suite_to_json, run_ingest_suite, IngestBenchResult};
pub use loadgen::{
    run_serve_suite, serve_report, serve_suite_to_json, ServeRung, ServeSuite,
    SERVE_QPS_FLOOR_QUICK,
};
pub use validate::{validate_doc, validate_text};
pub use wire::{run_wire_suite, wire_suite_to_json, WireQueryResult, WireSuite};
pub use workload::{
    HubSkewGraph, HubSkewSpec, KgAnswers, KnowledgeGraph, KnowledgeGraphSpec, UniformGraphSpec,
};
