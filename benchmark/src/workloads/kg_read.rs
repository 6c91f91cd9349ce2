//! `kg_read`: the paper's Table 2 queries, closed loop, on a knowledge graph
//! that fits the read cache.

use super::{OpShape, Scale, Workload, CLIENTS};
use crate::driver::{closed_loop, ClientLoop, OpDone, Phase, QueryTotals, Window};
use crate::gen::{row_strings, Kg, KgAnswers, KgSpec, GRAPH, KG_EDGE_TYPES, TENANT};
use crate::load::start_and_load;
use crate::trace::Tracer;
use a1_core::{A1Client, A1Cluster, A1Result, QueryOutcome};
use std::time::Instant;

pub const KINDS: &[&str] = &["q1", "q2", "q3", "q4"];
const Q1: usize = 0;
const Q4: usize = 3;

/// Per 10 ops: Q1 ×4, Q2 ×3, Q3 ×2, Q4 ×1, interleaved.
const MIX: [usize; 10] = [0, 1, 0, 2, 0, 1, 3, 0, 2, 1];

pub struct KgRead {
    pub kg: Kg,
    pub queries: [String; 4],
    scale: Scale,
}

/// Is `out` the reference answer to query `kind`?
pub fn answer_ok(kind: usize, out: &QueryOutcome, want: &KgAnswers) -> bool {
    match kind {
        0 => out.count == Some(want.q1),
        1 => out.count == Some(want.q2),
        2 => row_strings(&out.rows) == want.q3,
        _ => out.count == Some(want.q4),
    }
}

impl KgRead {
    pub fn new(seed: u64, scale: Scale) -> KgRead {
        let spec = if scale.smoke {
            KgSpec::smoke()
        } else {
            KgSpec::paper()
        };
        let kg = Kg::generate(&spec, seed);
        let queries = [kg.q1(), kg.q2(), kg.q3(), kg.q4()];
        KgRead { kg, queries, scale }
    }
}

struct Client<'a> {
    w: &'a KgRead,
    client: A1Client,
    offset: usize,
    totals: QueryTotals,
}

impl ClientLoop for Client<'_> {
    fn op(&mut self, i: u64) -> OpDone {
        let kind = MIX[(i as usize + self.offset) % MIX.len()];
        let t0 = Instant::now();
        let out = self.client.query(TENANT, GRAPH, &self.w.queries[kind]);
        let latency_ns = t0.elapsed().as_nanos() as u64;
        let ok = match &out {
            Ok(o) => {
                self.totals.add(o);
                answer_ok(kind, o, &self.w.kg.answers)
            }
            Err(_) => false,
        };
        OpDone {
            kind,
            ok,
            latency_ns,
        }
    }
}

impl Workload for KgRead {
    fn setup(&self) -> A1Result<A1Cluster> {
        let cluster = start_and_load(self.scale.config(), &self.kg.graph, KG_EDGE_TYPES)?;
        // Warm-up: every machine coordinates every query a few times, which
        // fills the proxy caches, the read caches and the worker pools.
        let client = cluster.client();
        for _ in 0..4 * self.scale.machines {
            for q in &self.queries {
                client.query(TENANT, GRAPH, q)?;
            }
        }
        Ok(cluster)
    }

    fn measure(&self, cluster: &A1Cluster, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|c| Client {
                w: self,
                client: cluster.client(),
                offset: c * MIX.len() / CLIENTS,
                totals: QueryTotals::default(),
            })
            .collect();
        let window = Window::open(cluster);
        let samples = closed_loop(&mut clients, seconds, KINDS, tracer);
        let deltas = window.close(cluster);
        let mut phase = Phase::from_samples(&samples, seconds, self.scale.rounds, Q1, Q4);
        phase.deltas = deltas;
        for c in &clients {
            phase.queries.merge(&c.totals);
        }
        phase
    }

    fn probe_query(&self, _i: usize) -> Option<String> {
        Some(self.queries[Q1].clone())
    }

    fn op_shape(&self) -> OpShape {
        OpShape {
            query: 1.0,
            lookup: 0.0,
            write: 0.0,
            index_descents: 1.0,
        }
    }
}
