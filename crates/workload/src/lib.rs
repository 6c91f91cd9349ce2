//! Graph generators shared by the root tests and examples. Each one loads
//! a cluster and keeps the reference answers to its own queries, so a test
//! compares the cluster against the generator's model rather than against
//! another configuration of itself. (The benchmark is `benchmark/`, a
//! separate workspace with its own generators.)

pub mod cache;
pub mod workload;
