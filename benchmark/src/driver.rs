//! Shared run machinery: the closed-loop driver, counter windows around a
//! measured phase, and what a phase hands back.

use crate::stats::{better_quartile, percentile};
use crate::trace::Tracer;
use a1_core::{A1Cluster, QueryOutcome};
use a1_rdma::MetricsSnapshot;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// One completed client op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, ns since the phase started.
    pub end_ns: u64,
    pub kind: usize,
    pub latency_ns: u64,
    pub ok: bool,
}

pub struct OpDone {
    pub kind: usize,
    pub ok: bool,
    pub latency_ns: u64,
}

/// One closed-loop client: issues its next op only after the previous one
/// completed.
pub trait ClientLoop: Send {
    fn op(&mut self, i: u64) -> OpDone;
}

/// Run every client on its own thread until `seconds` have passed. With a
/// tracer, each op also leaves a root span `op.<kind name>`.
pub fn closed_loop<C: ClientLoop>(
    clients: &mut [C],
    seconds: f64,
    kind_names: &[&str],
    tracer: Option<&Tracer>,
) -> Vec<Sample> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let trace_base = tracer.map_or(0, Tracer::now_ns);
    let mut all = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut spans = tracer.map(Tracer::local);
                    let mut i = 0u64;
                    while Instant::now() < deadline {
                        let done = client.op(i);
                        let end_ns = started.elapsed().as_nanos() as u64;
                        if let Some(spans) = spans.as_mut() {
                            let end = trace_base + end_ns;
                            spans.record(
                                &format!("op.{}", kind_names[done.kind]),
                                0,
                                (c as u64) << 32 | i,
                                end.saturating_sub(done.latency_ns),
                                end,
                            );
                        }
                        samples.push(Sample {
                            end_ns,
                            kind: done.kind,
                            latency_ns: done.latency_ns,
                            ok: done.ok,
                        });
                        i += 1;
                    }
                    samples
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("closed-loop client panicked"));
        }
    });
    all
}

/// Index of the round, out of `rounds` equal windows of a `seconds`-long
/// phase, that time `at_ns` falls in; `None` past the end (an op that
/// straddles the deadline completes just after it).
fn round_of(at_ns: u64, seconds: f64, rounds: usize) -> Option<usize> {
    let r = (at_ns as f64 / (seconds * 1e9 / rounds as f64)) as usize;
    (r < rounds).then_some(r)
}

/// Ops per second in each round of the phase, from when each op completed.
pub fn round_rates(end_ns: impl Iterator<Item = u64>, seconds: f64, rounds: usize) -> Vec<f64> {
    let mut counts = vec![0u64; rounds];
    for r in end_ns.filter_map(|t| round_of(t, seconds, rounds)) {
        counts[r] += 1;
    }
    counts
        .iter()
        .map(|&c| c as f64 / (seconds / rounds as f64))
        .collect()
}

/// Ascending latencies per round, from `(time, latency)` pairs binned by
/// their time.
pub fn round_latencies(
    timed: impl Iterator<Item = (u64, u64)>,
    seconds: f64,
    rounds: usize,
) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); rounds];
    for (at_ns, latency_ns) in timed {
        if let Some(r) = round_of(at_ns, seconds, rounds) {
            out[r].push(latency_ns);
        }
    }
    out.iter_mut().for_each(|v| v.sort_unstable());
    out
}

/// Sum of the per-query counters the engine returns with each answer.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueryTotals {
    pub queries: u64,
    pub vertices: u64,
    pub edges: u64,
    pub fetch_verbs: u64,
    pub local_reads: u64,
    pub remote_reads: u64,
}

impl QueryTotals {
    pub fn add(&mut self, answer: &QueryOutcome) {
        let m = &answer.metrics;
        self.queries += 1;
        self.vertices += m.vertices_read;
        self.edges += m.edges_visited;
        self.fetch_verbs += m.fetch_verbs;
        self.local_reads += m.local_reads;
        self.remote_reads += m.remote_reads;
    }

    pub fn merge(&mut self, o: &QueryTotals) {
        self.queries += o.queries;
        self.vertices += o.vertices;
        self.edges += o.edges;
        self.fetch_verbs += o.fetch_verbs;
        self.local_reads += o.local_reads;
        self.remote_reads += o.remote_reads;
    }
}

/// The counters the layers already export, read before a phase.
pub struct Window {
    fabric: MetricsSnapshot,
    commits: u64,
    aborts: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
}

/// Counter deltas over a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deltas {
    pub fabric: MetricsSnapshot,
    pub commits: u64,
    pub aborts: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    /// Cached bytes across machines when the phase ended (a level).
    pub cache_bytes: u64,
}

impl Window {
    pub fn open(cluster: &A1Cluster) -> Window {
        let stats = cluster.farm().stats();
        let cache = cluster.cache_stats();
        Window {
            fabric: cluster.farm().fabric().metrics().snapshot(),
            commits: stats.commits.load(Ordering::Relaxed),
            aborts: stats.aborts.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
        }
    }

    pub fn close(self, cluster: &A1Cluster) -> Deltas {
        let now = Window::open(cluster);
        Deltas {
            fabric: now.fabric.delta_since(&self.fabric),
            commits: now.commits - self.commits,
            aborts: now.aborts - self.aborts,
            cache_hits: now.cache_hits - self.cache_hits,
            cache_misses: now.cache_misses - self.cache_misses,
            cache_evictions: now.cache_evictions - self.cache_evictions,
            cache_bytes: cluster.cache_stats().bytes,
        }
    }
}

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    /// Answers that contradict the reference (a dropped ingest record fails
    /// without being wrong). Any makes the run incorrect.
    pub wrong: u64,
    pub notes: Vec<String>,
    /// Ops the counters and `mean_op_ns` are divided by.
    pub ops: u64,
    /// Completed ops per second, per round.
    pub rates: Vec<f64>,
    /// Ascending latencies of the workload's primary and secondary op, per
    /// round.
    pub primary_ns: Vec<Vec<u64>>,
    pub secondary_ns: Vec<Vec<u64>>,
    /// Mean wall time of one op as its client saw it.
    pub mean_op_ns: f64,
    pub deltas: Deltas,
    pub queries: QueryTotals,
    /// Workload-specific per-layer metrics (`ingest.*`, `serve.*`).
    pub extra: Vec<(String, f64)>,
}

impl Phase {
    /// Fill the common fields from closed-loop samples.
    pub fn from_samples(
        samples: &[Sample],
        seconds: f64,
        rounds: usize,
        primary: usize,
        secondary: usize,
    ) -> Phase {
        let failed = samples.iter().filter(|s| !s.ok).count() as u64;
        let total_ns: u64 = samples.iter().map(|s| s.latency_ns).sum();
        let of_kind = |kind| {
            let timed = samples
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| (s.end_ns, s.latency_ns));
            round_latencies(timed, seconds, rounds)
        };
        Phase {
            attempted: samples.len() as u64,
            failed,
            wrong: failed,
            ops: samples.len() as u64,
            rates: round_rates(samples.iter().map(|s| s.end_ns), seconds, rounds),
            primary_ns: of_kind(primary),
            secondary_ns: of_kind(secondary),
            mean_op_ns: total_ns as f64 / samples.len().max(1) as f64,
            ..Phase::default()
        }
    }

    /// Completed ops per second: the upper quartile over rounds. Whatever
    /// else runs on the host only ever slows a round down, so the better
    /// quartile is what the program does when left alone, and it holds
    /// still from run to run where the median does not (see README).
    pub fn ops_per_s(&self) -> f64 {
        better_quartile(&self.rates, true)
    }

    /// A latency percentile in ms: the lower quartile over rounds of each
    /// round's own percentile, so neither a stall that hits one round nor a
    /// busy host sets it.
    pub fn latency_ms(per_round_ns: &[Vec<u64>], permille: usize) -> f64 {
        let each: Vec<f64> = per_round_ns
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| percentile(r, permille) as f64 / 1e6)
            .collect();
        better_quartile(&each, false)
    }

    pub fn p_ms(sorted_ns: &[u64], permille: usize) -> f64 {
        percentile(sorted_ns, permille) as f64 / 1e6
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(u64);
    impl ClientLoop for Fixed {
        fn op(&mut self, i: u64) -> OpDone {
            self.0 += 1;
            std::thread::sleep(Duration::from_micros(200));
            OpDone {
                kind: (i % 2) as usize,
                ok: i != 3,
                latency_ns: 200_000,
            }
        }
    }

    #[test]
    fn closed_loop_runs_every_client_until_the_deadline() {
        let mut clients = [Fixed(0), Fixed(0)];
        let tracer = Tracer::new();
        let samples = closed_loop(&mut clients, 0.05, &["a", "b"], Some(&tracer));
        assert!(clients.iter().all(|c| c.0 >= 10));
        assert_eq!(samples.len() as u64, clients[0].0 + clients[1].0);
        assert_eq!(tracer.len(), samples.len());
        let phase = Phase::from_samples(&samples, 0.05, 2, 0, 1);
        assert_eq!(phase.failed, 2);
        assert!(phase.ops_per_s() > 1_000.0);
        assert_eq!((phase.primary_ns.len(), phase.secondary_ns.len()), (2, 2));
        let binned: usize = phase
            .primary_ns
            .iter()
            .chain(&phase.secondary_ns)
            .map(Vec::len)
            .sum();
        // Only ops that straddle the deadline fall outside every round.
        assert!(samples.len() - binned <= clients.len());
    }

    #[test]
    fn round_rates_bin_by_completion_time() {
        let at = |end_ns| Sample {
            end_ns,
            kind: 0,
            latency_ns: 1,
            ok: true,
        };
        let samples = [at(1), at(400_000_000), at(600_000_000), at(2_000_000_000)];
        assert_eq!(
            round_rates(samples.iter().map(|s| s.end_ns), 1.0, 2),
            vec![4.0, 2.0]
        );
    }

    #[test]
    fn rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 1.0);
    }
}
