//! `mixed_serve`: reads beside writes under arrival-driven (open-loop,
//! Poisson) load on the knowledge graph, at frozen rates.

use super::kg_read::{answer_ok, KgRead};
use super::{OpShape, Scale, Workload, CLIENTS};
use crate::driver::{round_latencies, round_rates, Phase, QueryTotals, Window};
use crate::gen::{GRAPH, TENANT, VTYPE};
use crate::rng::Rng;
use crate::stats::percentile;
use crate::trace::Tracer;
use a1_core::{A1Client, A1Cluster, A1Result};
use a1_json::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Offered rates in requests/s, frozen from the seed's measured capacity
/// `C` ≈ 2 050 req/s for this mix with two senders on the 2-core build
/// machine (see README): ≈ 0.25 C, 0.5 C, 0.75 C and 2 C. The last is an
/// overload rung on purpose: what it achieves is the open-loop capacity,
/// with headroom for a faster program to show.
pub const RATES: [f64; 4] = [500.0, 1000.0, 1500.0, 4000.0];
const R2: usize = 1;
const R4: usize = 3;

/// A rung is "ok" while the p99 of all its requests, from due time, stays
/// under this (the paper's single-digit ms, doubled for 8 machines on 2
/// cores), it achieves ≥ 95 % of the offered rate, and leaves no backlog.
const P99_LIMIT_NS: u64 = 20_000_000;

/// Client-side conflict retries, inside the measured latency.
const MAX_RETRIES: u32 = 16;

const Q1: usize = 0;
const Q4: usize = 1;
const GET: usize = 2;
const UPDATE: usize = 3;
pub const KINDS: &[&str] = &["q1", "q4", "get", "update"];

/// Per 10 requests: Q1 ×4, Q4 ×1, `get_vertex` ×2, `update_vertex` ×3.
const MIX: [usize; 10] = [Q1, UPDATE, Q1, GET, UPDATE, Q1, Q4, GET, Q1, UPDATE];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// When the request is due, ns after the rung starts.
    pub due_ns: u64,
    pub kind: usize,
    /// Target vertex index (`get`: an actor; `update`: a hub film or actor).
    pub target: u32,
}

/// The arrival schedule of one rung: exponential gaps at `rate`, fixed
/// before the rung starts, so it never adapts to how the system is doing.
pub fn schedule(
    rate: f64,
    seconds: f64,
    seed: u64,
    actors: &[u32],
    hub_films: &[u32],
) -> Vec<Request> {
    let mut arrivals = Rng::fork(seed, 40);
    let mut targets = Rng::fork(seed, 41);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += arrivals.exp(rate);
        if t >= seconds {
            return out;
        }
        let kind = MIX[out.len() % MIX.len()];
        let target = match kind {
            GET => actors[targets.below(actors.len())],
            UPDATE => {
                // Writes land on the vertices Q1 and Q4 traverse.
                let i = targets.below(actors.len() + hub_films.len());
                *hub_films
                    .get(i)
                    .unwrap_or_else(|| &actors[(i - hub_films.len()) % actors.len()])
            }
            _ => 0,
        };
        out.push(Request {
            due_ns: (t * 1e9) as u64,
            kind,
            target,
        });
    }
}

#[derive(Debug, Clone, Copy)]
struct Done {
    kind: usize,
    /// From the due time.
    latency_ns: u64,
    /// From when a sender picked the request up.
    service_ns: u64,
    /// How long after the due time a sender picked it up.
    late_ns: u64,
    end_ns: u64,
    ok: bool,
}

/// One write as the generator saw it, for the last-writer check.
#[derive(Debug, Clone, Copy)]
struct Write {
    target: u32,
    rank: i64,
    start_ns: u64,
    end_ns: u64,
}

struct RungOutcome {
    done: Vec<Done>,
    writes: Vec<Write>,
    queries: QueryTotals,
    /// Requests already due but not picked up when the rung ended.
    backlog: usize,
    seconds: f64,
}

pub struct MixedServe {
    kg: KgRead,
    seed: u64,
    scale: Scale,
}

impl MixedServe {
    pub fn new(seed: u64, scale: Scale) -> MixedServe {
        MixedServe {
            kg: KgRead::new(seed, scale),
            seed,
            scale,
        }
    }

    fn rate(&self, rung: usize) -> f64 {
        // Smoke clusters are tiny; any modest rate exercises the code.
        if self.scale.smoke {
            RATES[rung] / 4.0
        } else {
            RATES[rung]
        }
    }

    fn update_attrs(&self, target: u32, rank: i64) -> String {
        let mut v = self.kg.kg.graph.vertices[target as usize].clone();
        v.rank = rank;
        v.attrs().to_string()
    }

    fn execute(
        &self,
        client: &A1Client,
        req: &Request,
        rank: i64,
        totals: &mut QueryTotals,
    ) -> bool {
        let kg = &self.kg;
        match req.kind {
            Q1 | Q4 => {
                let kind = if req.kind == Q1 { 0 } else { 3 };
                match client.query(TENANT, GRAPH, &kg.queries[kind]) {
                    Ok(out) => {
                        totals.add(&out);
                        answer_ok(kind, &out, &kg.kg.answers)
                    }
                    Err(_) => false,
                }
            }
            GET => {
                let vertex = &kg.kg.graph.vertices[req.target as usize];
                // `rank` belongs to the concurrent writers; the rest of the
                // vertex must read exactly as generated.
                matches!(
                    client.get_vertex(TENANT, GRAPH, VTYPE, &Json::str(&vertex.id)),
                    Ok(Some(got)) if vertex.matches(&got, None)
                )
            }
            _ => {
                let attrs = self.update_attrs(req.target, rank);
                let mut attempt = 0;
                loop {
                    match client.update_vertex(TENANT, GRAPH, VTYPE, &attrs) {
                        Err(e) if e.is_retryable() && attempt < MAX_RETRIES => {
                            attempt += 1;
                            std::thread::sleep(Duration::from_micros(100 << attempt.min(6)));
                        }
                        other => break other.is_ok(),
                    }
                }
            }
        }
    }

    /// Fire one rung: `rate` for `seconds`, two senders sharing the schedule.
    fn fire(
        &self,
        cluster: &A1Cluster,
        rung: usize,
        seconds: f64,
        salt: u64,
        tracer: Option<&Tracer>,
    ) -> RungOutcome {
        let kg = &self.kg.kg;
        let reqs = schedule(
            self.rate(rung),
            seconds,
            self.seed ^ salt.wrapping_mul(0x9E37_79B9),
            &kg.actors,
            &kg.hub_films,
        );
        let next = AtomicUsize::new(0);
        let started = Instant::now();
        let rung_ns = (seconds * 1e9) as u64;
        let trace_base = tracer.map_or(0, Tracer::now_ns);
        let mut out = RungOutcome {
            done: Vec::with_capacity(reqs.len()),
            writes: Vec::new(),
            queries: QueryTotals::default(),
            backlog: 0,
            seconds,
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let client = cluster.client();
                    let (next, reqs) = (&next, &reqs);
                    scope.spawn(move || {
                        let (mut done, mut writes) = (Vec::new(), Vec::new());
                        let mut totals = QueryTotals::default();
                        let mut spans = tracer.map(Tracer::local);
                        loop {
                            let now_ns = started.elapsed().as_nanos() as u64;
                            if now_ns >= rung_ns {
                                break;
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(req) = reqs.get(i) else { break };
                            if req.due_ns > now_ns {
                                std::thread::sleep(Duration::from_nanos(req.due_ns - now_ns));
                            }
                            let start_ns = started.elapsed().as_nanos() as u64;
                            // Unique per request and rung, so the last
                            // writer of a vertex is identifiable.
                            let rank = (salt as i64) << 32 | (i as i64 + 1);
                            let ok = self.execute(&client, req, rank, &mut totals);
                            let end_ns = started.elapsed().as_nanos() as u64;
                            if req.kind == UPDATE && ok {
                                writes.push(Write {
                                    target: req.target,
                                    rank,
                                    start_ns,
                                    end_ns,
                                });
                            }
                            if let Some(s) = spans.as_mut() {
                                // The root span runs from the due time: the
                                // wait for a free sender is part of the op.
                                s.record(
                                    &format!("op.{}", KINDS[req.kind]),
                                    0,
                                    salt << 32 | i as u64,
                                    trace_base + req.due_ns.min(start_ns),
                                    trace_base + end_ns,
                                );
                            }
                            done.push(Done {
                                kind: req.kind,
                                latency_ns: end_ns.saturating_sub(req.due_ns),
                                service_ns: end_ns - start_ns,
                                late_ns: start_ns.saturating_sub(req.due_ns),
                                end_ns,
                                ok,
                            });
                        }
                        (done, writes, totals)
                    })
                })
                .collect();
            for h in handles {
                let (done, writes, totals) = h.join().expect("sender panicked");
                out.done.extend(done);
                out.writes.extend(writes);
                out.queries.merge(&totals);
            }
        });
        let picked = next.load(Ordering::Relaxed).min(reqs.len());
        out.backlog = reqs[picked..].iter().filter(|r| r.due_ns < rung_ns).count();
        out
    }

    /// Every vertex written in a rung must now hold the rank of a write that
    /// can have been last: one that no other write to it started after.
    fn check_writes(
        &self,
        cluster: &A1Cluster,
        writes: &[Write],
        notes: &mut Vec<String>,
    ) -> (u64, u64) {
        let mut by_target: HashMap<u32, Vec<&Write>> = HashMap::new();
        for w in writes {
            by_target.entry(w.target).or_default().push(w);
        }
        let client = cluster.client();
        let (mut checked, mut wrong) = (0u64, 0u64);
        for (target, ws) in by_target {
            let last_start = ws.iter().map(|w| w.start_ns).max().unwrap_or(0);
            let vertex = &self.kg.kg.graph.vertices[target as usize];
            let got = client.get_vertex(TENANT, GRAPH, VTYPE, &Json::str(&vertex.id));
            checked += 1;
            let ok = ws
                .iter()
                .filter(|w| w.end_ns >= last_start)
                .any(|w| matches!(&got, Ok(Some(j)) if vertex.matches(j, Some(w.rank))));
            if !ok {
                wrong += 1;
                if notes.len() < 8 {
                    notes.push(format!("last-writer mismatch at {}", vertex.id));
                }
            }
        }
        (checked, wrong)
    }
}

fn sorted(done: &[Done], pick: impl Fn(&Done) -> Option<u64>) -> Vec<u64> {
    let mut v: Vec<u64> = done.iter().filter_map(pick).collect();
    v.sort_unstable();
    v
}

/// Ascending from-due-time latencies of one kind of request, per round of
/// the rung, binned by when each request was due.
fn latencies_per_round(rung: &RungOutcome, kind: usize, rounds: usize) -> Vec<Vec<u64>> {
    let by_due = rung
        .done
        .iter()
        .filter(|d| d.kind == kind)
        .map(|d| (d.end_ns.saturating_sub(d.latency_ns), d.latency_ns));
    round_latencies(by_due, rung.seconds, rounds)
}

impl Workload for MixedServe {
    fn setup(&self) -> A1Result<A1Cluster> {
        self.kg.setup()
    }

    /// Untraced: the R2 rung (latencies, counters) for 75 % of the time, then
    /// the overload rung R4 (capacity). Traced: the whole four-rung ladder in
    /// equal parts, so every rung's tail and the highest ok rate are seen.
    fn measure(&self, cluster: &A1Cluster, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        let plan: Vec<(usize, f64)> = if tracer.is_some() {
            (0..RATES.len())
                .map(|r| (r, seconds / RATES.len() as f64))
                .collect()
        } else {
            vec![(R2, seconds * 0.75), (R4, seconds * 0.25)]
        };
        let mut phase = Phase::default();
        let mut max_ok_rate = 0.0;
        let mut ladder_ok = true;
        for (step, &(rung, secs)) in plan.iter().enumerate() {
            let window = Window::open(cluster);
            let out = self.fire(cluster, rung, secs, step as u64 + 1, tracer);
            let deltas = window.close(cluster);
            let (checked, wrong) = self.check_writes(cluster, &out.writes, &mut phase.notes);
            let failed = out.done.iter().filter(|d| !d.ok).count() as u64;
            phase.attempted += out.done.len() as u64 + checked;
            phase.failed += failed + wrong;
            phase.wrong += failed + wrong;

            let all = sorted(&out.done, |d| {
                Some(if d.ok { d.latency_ns } else { u64::MAX })
            });
            let q1 = sorted(&out.done, |d| (d.kind == Q1).then_some(d.latency_ns));
            let offered = self.rate(rung);
            let achieved = out.done.len() as f64 / secs;
            let n = rung + 1;
            phase
                .extra
                .push((format!("serve.achieved_share.r{n}"), achieved / offered));
            phase
                .extra
                .push((format!("serve.q1_p99_ms.r{n}"), Phase::p_ms(&q1, 990)));
            // A rung is ok only if every lower rung was: past the knee,
            // higher rates only get worse.
            let ok = percentile(&all, 990) <= P99_LIMIT_NS
                && achieved >= 0.95 * offered
                && out.backlog <= CLIENTS;
            ladder_ok &= ok;
            if ladder_ok {
                max_ok_rate = offered;
            }
            phase.notes.push(format!(
                "rung r{n}: offered {offered}/s for {secs:.1} s, {} requests, backlog {}, p99 {:.2} ms, ok {ok}",
                out.done.len(),
                out.backlog,
                Phase::p_ms(&all, 990)
            ));
            if rung == R2 {
                phase.ops = out.done.len() as u64;
                phase.primary_ns = latencies_per_round(&out, Q1, self.scale.rounds);
                phase.secondary_ns = latencies_per_round(&out, UPDATE, self.scale.rounds);
                let service: u64 = out.done.iter().map(|d| d.service_ns).sum();
                phase.mean_op_ns = service as f64 / out.done.len().max(1) as f64;
                phase.deltas = deltas;
                phase.queries = out.queries;
                let late = sorted(&out.done, |d| Some(d.late_ns));
                phase
                    .extra
                    .push(("serve.sender_late_p99_ms".into(), Phase::p_ms(&late, 990)));
            }
            if rung == R4 {
                phase.rates =
                    round_rates(out.done.iter().map(|d| d.end_ns), secs, self.scale.rounds);
            }
        }
        if tracer.is_some() {
            phase.extra.push(("serve.max_ok_rate".into(), max_ok_rate));
        }
        phase
    }

    fn probe_query(&self, i: usize) -> Option<String> {
        self.kg.probe_query(i)
    }

    fn op_shape(&self) -> OpShape {
        OpShape {
            query: 0.5,
            lookup: 0.2,
            write: 0.3,
            index_descents: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let (actors, films) = ([10, 11, 12], [1, 2]);
        let a = schedule(500.0, 2.0, 9, &actors, &films);
        assert_eq!(a, schedule(500.0, 2.0, 9, &actors, &films));
        assert_ne!(a, schedule(500.0, 2.0, 10, &actors, &films));
        // About rate × seconds arrivals, ascending, all inside the rung.
        assert!((800..1200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|r| r.due_ns < 2_000_000_000));
        // The mix repeats every 10 requests; writes hit films and actors.
        assert!(a.iter().enumerate().all(|(i, r)| r.kind == MIX[i % 10]));
        assert!(a
            .iter()
            .filter(|r| r.kind == UPDATE)
            .any(|r| films.contains(&r.target)));
        assert!(a
            .iter()
            .filter(|r| r.kind == UPDATE)
            .any(|r| actors.contains(&r.target)));
        assert!(a
            .iter()
            .filter(|r| r.kind == GET)
            .all(|r| actors.contains(&r.target)));
    }
}
