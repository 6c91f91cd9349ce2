//! A1: a distributed in-memory graph database (paper §3).
//!
//! This crate is the A1 layer proper, built as a FaRM "coprocessor" (§2.2):
//! the graph data model, catalog, vertex/edge storage, indexes, the A1QL
//! query language and its distributed query engine, the asynchronous task
//! framework, and the cluster facade (frontends + backends).
//!
//! Layering (paper Fig. 1):
//!
//! ```text
//!   Graph applications            examples/, benchmark/
//!   A1 graph API                  server::A1Client
//!   Graph query execution         query::{plan, exec}
//!   Graph store and index         store, vertex, edges, catalog
//!   Core data structures          a1_farm::BTree
//!   Distributed transactions      a1_farm::Txn
//!   Distributed memory            a1_farm regions
//!   RDMA communication fabric     a1_rdma
//! ```

pub mod batch;
pub mod cache;
pub mod catalog;
pub mod convert;
pub mod edges;
pub mod error;
pub mod model;
pub mod query;
pub mod replog;
pub mod server;
pub mod store;
pub mod tasks;
pub mod vertex;
pub mod wire;

pub use batch::{Applied, BatchApplier, Mutation};
pub use cache::{CacheConfig, CacheStats, VertexCache};
pub use error::{A1Error, A1Result};
pub use model::{EdgeTypeDef, GraphMeta, LifecycleState, TypeId, VertexTypeDef};
pub use query::{QueryMetrics, QueryOutcome};
pub use server::{A1Client, A1Cluster, A1Config, AdmissionConfig, AdmissionPermit};
pub use wire::WireFormat;

pub use a1_bond::{BondType, FieldDef, Record, Schema, Value};
pub use a1_farm::{FarmCluster, FarmConfig, MachineId};
pub use a1_json::Json;
