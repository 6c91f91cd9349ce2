//! The A1 query engine (paper §3.4).
//!
//! * [`plan`] — A1QL: JSON documents where each nesting level is a traversal
//!   step (Fig. 8, Table 2). Parsed into a logical plan without any
//!   optimizer — "most of the queries submitted to A1 are straightforward
//!   and executed without any optimization".
//! * [`exec`] — physical execution (Fig. 9): the backend that receives the
//!   query coordinates it; per hop, frontier vertices are grouped by their
//!   primary host and operator batches are *shipped* to those machines by
//!   RPC (predicate evaluation + edge enumeration run where the data is),
//!   falling back to one-sided reads for tiny groups. All reads across the
//!   cluster use one snapshot timestamp chosen by the coordinator.

pub mod exec;
pub mod plan;

pub use exec::{ExecConfig, QueryMetrics, QueryOutcome};
pub use plan::{parse_query, AttrPredicate, CmpOp, Query, Select};
