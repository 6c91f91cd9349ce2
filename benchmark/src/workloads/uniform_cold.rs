//! `uniform_cold`: short traversals and point lookups over a uniform random
//! graph whose working set is far larger than the read cache.

use super::{OpShape, Scale, Workload, CLIENTS};
use crate::driver::{closed_loop, ClientLoop, OpDone, Phase, QueryTotals, Window};
use crate::gen::{Uniform, GRAPH, LINK, TENANT, VTYPE};
use crate::load::start_and_load;
use crate::rng::Rng;
use crate::trace::Tracer;
use a1_core::{A1Client, A1Cluster, A1Result};
use a1_json::Json;
use std::time::Instant;

pub const KINDS: &[&str] = &["hop2", "lookup"];
const HOP2: usize = 0;
const LOOKUP: usize = 1;

const VERTICES: usize = 20_000;
const EDGES: usize = 60_000;
const PAYLOAD_BYTES: usize = 120;

/// The one stated deviation from the default config: the per-machine read
/// cache is frozen at about an eighth of what the traversals could cache
/// (20 000 header entries of ≈130 B each), so it evicts constantly.
pub const CACHE_BYTES: usize = 256 << 10;

pub struct UniformCold {
    pub graph: Uniform,
    seed: u64,
    scale: Scale,
}

impl UniformCold {
    pub fn new(seed: u64, scale: Scale) -> UniformCold {
        let (v, e) = if scale.smoke {
            (300, 900)
        } else {
            (VERTICES, EDGES)
        };
        UniformCold {
            graph: Uniform::generate(v, e, PAYLOAD_BYTES, seed),
            seed,
            scale,
        }
    }

    fn cache_bytes(&self) -> usize {
        // Keep the cache an eighth of the footprint at smoke size too.
        CACHE_BYTES * self.graph.graph.vertices.len() / VERTICES
    }
}

struct Client<'a> {
    w: &'a UniformCold,
    client: A1Client,
    rng: Rng,
    totals: QueryTotals,
}

impl ClientLoop for Client<'_> {
    fn op(&mut self, i: u64) -> OpDone {
        let g = &self.w.graph;
        let v = self.rng.below(g.graph.vertices.len());
        if i.is_multiple_of(2) {
            let q = g.two_hop_query(v);
            let t0 = Instant::now();
            let out = self.client.query(TENANT, GRAPH, &q);
            let latency_ns = t0.elapsed().as_nanos() as u64;
            let ok = match &out {
                Ok(o) => {
                    self.totals.add(o);
                    o.count == Some(g.two_hop[v])
                }
                Err(_) => false,
            };
            OpDone {
                kind: HOP2,
                ok,
                latency_ns,
            }
        } else {
            let vertex = &g.graph.vertices[v];
            let id = Json::str(&vertex.id);
            let t0 = Instant::now();
            let out = self.client.get_vertex(TENANT, GRAPH, VTYPE, &id);
            let latency_ns = t0.elapsed().as_nanos() as u64;
            let ok = matches!(&out, Ok(Some(got)) if vertex.matches(got, Some(0)));
            OpDone {
                kind: LOOKUP,
                ok,
                latency_ns,
            }
        }
    }
}

impl Workload for UniformCold {
    fn setup(&self) -> A1Result<A1Cluster> {
        let mut cfg = self.scale.config();
        cfg.cache.capacity_bytes = self.cache_bytes();
        let cluster = start_and_load(cfg, &self.graph.graph, &[LINK])?;
        // Warm-up: enough traversals that every cache is full and evicting.
        let client = cluster.client();
        let mut rng = Rng::fork(self.seed, 20);
        for _ in 0..self.graph.graph.vertices.len() / 4 {
            let v = rng.below(self.graph.graph.vertices.len());
            client.query(TENANT, GRAPH, &self.graph.two_hop_query(v))?;
        }
        Ok(cluster)
    }

    fn measure(&self, cluster: &A1Cluster, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|c| Client {
                w: self,
                client: cluster.client(),
                rng: Rng::fork(self.seed, 21 + c as u64),
                totals: QueryTotals::default(),
            })
            .collect();
        let window = Window::open(cluster);
        let samples = closed_loop(&mut clients, seconds, KINDS, tracer);
        let deltas = window.close(cluster);
        let mut phase = Phase::from_samples(&samples, seconds, self.scale.rounds, HOP2, LOOKUP);
        phase.deltas = deltas;
        for c in &clients {
            phase.queries.merge(&c.totals);
        }
        phase
    }

    fn probe_query(&self, i: usize) -> Option<String> {
        // A different start vertex each time, like the measured ops.
        let n = self.graph.graph.vertices.len();
        Some(self.graph.two_hop_query(i.wrapping_mul(7919) % n))
    }

    fn op_shape(&self) -> OpShape {
        OpShape {
            query: 0.5,
            lookup: 0.5,
            write: 0.0,
            index_descents: 1.0,
        }
    }
}
