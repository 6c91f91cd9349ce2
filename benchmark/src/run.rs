//! One run of one workload: set up, measure, check, report.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! is the separate traced run: a short untraced phase and a traced phase on
//! the same cluster (their throughput difference is the tracing overhead),
//! then the direct layer calls, the per-op counters and the budget.

use crate::driver::{peak_rss_mb, Phase};
use crate::layers::{probe_layers, ProbeBudget, UnitCosts};
use crate::report::{Metrics, RunResult};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, OpShape, Scale, SETUP_BUDGET_S};
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where the span file goes; `None` keeps spans in memory only.
    pub out_dir: Option<PathBuf>,
}

/// Shares of the traced run's `--seconds` its two phases take; the direct
/// layer calls use what is left.
const UNTRACED_SHARE: f64 = 0.25;
const TRACED_SHARE: f64 = 0.35;

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn per_round(what: &str, values: &[f64], digits: usize) -> String {
    let list: Vec<String> = values.iter().map(|v| format!("{v:.digits$}")).collect();
    format!("{what} [{}]", list.join(" "))
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let workload = workloads::build(&args.workload, args.seed, scale)
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;

    // Set up several times and report the median: one set-up is too short
    // and too noisy to hold a bound. The last cluster is the one measured.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut cluster = None;
    let (min_reps, max_reps) = scale.setup_reps;
    while setup_s.len() < min_reps
        || (setup_s.len() < max_reps && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(cluster.take());
        let t0 = Instant::now();
        cluster = Some(workload.setup().map_err(|e| format!("set-up: {e}"))?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut cluster = cluster.expect("at least one set-up");
    // Between the phases of a traced run, a workload whose cluster cannot
    // be written to again gets a fresh one.
    let renew = |cluster: &mut a1_core::A1Cluster| -> Result<(), String> {
        if !workload.reusable_cluster() {
            *cluster = workload.setup().map_err(|e| format!("set-up: {e}"))?;
        }
        Ok(())
    };

    let mut metrics = Metrics::default();
    let mut notes = Vec::new();
    let (attempted, failed, wrong);
    if !args.trace {
        let phase = workload.measure(&cluster, args.seconds, None);
        metrics.set("setup_s", median(&setup_s));
        metrics.set("ops_per_s", phase.ops_per_s());
        metrics.set("primary_p50_ms", Phase::latency_ms(&phase.primary_ns, 500));
        metrics.set(
            "net_us_per_op",
            ratio(phase.deltas.fabric.sim_ns as f64 / 1e3, phase.ops as f64),
        );
        metrics.set("peak_rss_mb", peak_rss_mb());
        notes.push(format!(
            "ops {}; per round: {}",
            phase.ops,
            per_round("ops/s", &phase.rates, 0)
        ));
        for (role, rounds) in [
            ("primary", &phase.primary_ns),
            ("secondary", &phase.secondary_ns),
        ] {
            // The tail over the whole phase, with its sample count, beside
            // the per-round numbers the reported medians are taken from.
            let mut pooled: Vec<u64> = rounds.iter().flatten().copied().collect();
            pooled.sort_unstable();
            let each = |permille| -> Vec<f64> {
                rounds.iter().map(|r| Phase::p_ms(r, permille)).collect()
            };
            notes.push(format!(
                "{role}: {} samples, pooled p99 {:.4} ms; per round: {}; {}",
                pooled.len(),
                Phase::p_ms(&pooled, 990),
                per_round("p50 ms", &each(500), 4),
                per_round("p99 ms", &each(990), 4)
            ));
        }
        (attempted, failed, wrong) = (phase.attempted, phase.failed, phase.wrong);
        notes.extend(phase.notes);
    } else {
        let untraced = workload.measure(&cluster, args.seconds * UNTRACED_SHARE, None);
        let tracer = Tracer::new();
        renew(&mut cluster)?;
        let traced = workload.measure(&cluster, args.seconds * TRACED_SHARE, Some(&tracer));
        renew(&mut cluster)?;
        let budget = if args.smoke {
            ProbeBudget::smoke()
        } else {
            ProbeBudget::full()
        };
        let query = |i: usize| workload.probe_query(i);
        let unit = probe_layers(&cluster, &query, budget, &tracer, &mut metrics)?;
        counters(&traced, &mut metrics);
        budget_shares(&traced, &unit, workload.op_shape(), &mut metrics);
        metrics.set(
            "trace.overhead_share",
            ratio(
                untraced.ops_per_s() - traced.ops_per_s(),
                untraced.ops_per_s(),
            ),
        );
        metrics.set("trace.spans", tracer.len() as f64);
        for (name, rounds, permille) in [
            ("primary_p99_ms", &untraced.primary_ns, 990),
            ("secondary_p50_ms", &untraced.secondary_ns, 500),
            ("secondary_p99_ms", &untraced.secondary_ns, 990),
        ] {
            metrics.set(name, Phase::latency_ms(rounds, permille));
        }
        for (name, value) in &traced.extra {
            metrics.set(name, *value);
        }
        attempted = untraced.attempted + traced.attempted;
        failed = untraced.failed + traced.failed;
        wrong = untraced.wrong + traced.wrong;
        metrics.set("failed_share", ratio(failed as f64, attempted as f64));
        if let Some(dir) = &args.out_dir {
            let path = dir.join(format!("trace-{}.jsonl", args.workload));
            tracer
                .write_jsonl(&path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        let mut names: Vec<(String, (u64, u64))> = tracer.self_times().into_iter().collect();
        names.sort();
        for (name, (count, self_ns)) in names {
            notes.push(format!(
                "span {name}: {count} spans, self time {:.3} ms",
                self_ns as f64 / 1e6
            ));
        }
        notes.extend(untraced.notes);
        notes.extend(traced.notes);
    }
    Ok(RunResult {
        workload: args.workload.clone(),
        traced: args.trace,
        correct: wrong == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Counters the layers already export, as deltas over the traced phase per
/// op (query counters: per query).
fn counters(phase: &Phase, m: &mut Metrics) {
    let ops = phase.ops as f64;
    let f = &phase.deltas.fabric;
    let reads = f.total_reads() as f64;
    m.set("rdma.doorbells_per_op", ratio(f.doorbells as f64, ops));
    m.set("rdma.reads_per_doorbell", ratio(reads, f.doorbells as f64));
    m.set(
        "rdma.remote_read_share",
        ratio(f.remote_reads as f64, reads),
    );
    m.set("rdma.read_bytes_per_op", ratio(f.bytes_read as f64, ops));
    m.set("rdma.rpcs_per_op", ratio(f.rpcs as f64, ops));
    m.set("rdma.rpc_bytes_per_op", ratio(f.rpc_bytes() as f64, ops));
    m.set(
        "rdma.writes_per_op",
        ratio((f.local_writes + f.remote_writes) as f64, ops),
    );
    m.set("rdma.cas_per_op", ratio(f.cas_ops as f64, ops));
    m.set(
        "farm.commits_per_op",
        ratio(phase.deltas.commits as f64, ops),
    );
    m.set(
        "farm.aborts_per_commit",
        ratio(phase.deltas.aborts as f64, phase.deltas.commits as f64),
    );
    let q = &phase.queries;
    let queries = q.queries as f64;
    m.set(
        "core.query.vertices_per_op",
        ratio(q.vertices as f64, queries),
    );
    m.set("core.query.edges_per_op", ratio(q.edges as f64, queries));
    m.set(
        "core.query.fetch_verbs_per_op",
        ratio(q.fetch_verbs as f64, queries),
    );
    m.set(
        "core.query.local_read_fraction",
        ratio(
            q.local_reads as f64,
            (q.local_reads + q.remote_reads) as f64,
        ),
    );
    let d = &phase.deltas;
    m.set(
        "core.cache.hit_rate",
        ratio(d.cache_hits as f64, (d.cache_hits + d.cache_misses) as f64),
    );
    m.set(
        "core.cache.evictions_per_op",
        ratio(d.cache_evictions as f64, ops),
    );
    m.set("core.cache.bytes", d.cache_bytes as f64);
}

/// Where an op's wall time goes, estimated from outside: each layer's count
/// per op times that layer's own share of its unit cost (the unit cost minus
/// the calls into lower layers it contains). What no layer claims is `core`.
/// Fan-out runs on pool threads beside the client, so the claimed sum can
/// exceed the wall time; the shares are then scaled to 1 and `core` is 0.
pub fn budget_shares(phase: &Phase, u: &UnitCosts, shape: OpShape, m: &mut Metrics) {
    let ops = phase.ops as f64;
    let f = &phase.deltas.fabric;
    let per_op = |n: u64| ratio(n as f64, ops);
    let reads = per_op(f.total_reads());
    let doorbells = per_op(f.doorbells);
    let rpcs = per_op(f.rpcs);
    let writes = per_op(f.local_writes + f.remote_writes + f.cas_ops);
    let remote = ratio(f.remote_reads as f64, f.total_reads() as f64);

    let batched_read_ns = ((u.read_many32_ns - u.read_ns) / 31.0).max(0.0);
    let rdma = doorbells * u.read_ns
        + (reads - doorbells).max(0.0) * batched_read_ns
        + rpcs * u.rpc_echo_ns
        + writes * u.read_ns;

    let txn_read = (1.0 - remote) * u.txn_read_ns + remote * u.txn_read_remote_ns;
    let read_self = (txn_read - u.read_ns).max(0.0);
    let commit_self = (u.commit1_ns - u.commit1_verbs * u.read_ns).max(0.0);
    let descent_self = (u.btree_get_ns - u.btree_get_reads * u.txn_read_ns).max(0.0);
    let farm = reads * read_self
        + per_op(phase.deltas.commits) * commit_self
        + shape.index_descents * descent_self;

    let codec = rpcs * (u.wire_roundtrip_ns + u.outcome_encode_ns + u.outcome_decode_ns)
        + shape.query * u.query_parse_ns
        + shape.lookup * u.record_decode_ns
        + shape.write * (u.json_parse_ns + u.record_encode_ns + u.record_decode_ns);

    let wall = phase.mean_op_ns.max(rdma + farm + codec).max(1.0);
    m.set("budget.rdma_share", rdma / wall);
    m.set("budget.farm_share", farm / wall);
    m.set("budget.codec_share", codec / wall);
    m.set("budget.core_share", 1.0 - (rdma + farm + codec) / wall);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_shares_sum_to_one() {
        let unit = UnitCosts {
            read_ns: 100.0,
            read_many32_ns: 700.0,
            rpc_echo_ns: 5_000.0,
            txn_read_ns: 300.0,
            txn_read_remote_ns: 400.0,
            btree_get_ns: 2_000.0,
            btree_get_reads: 3.0,
            commit1_ns: 4_000.0,
            commit1_verbs: 6.0,
            query_parse_ns: 1_500.0,
            ..UnitCosts::default()
        };
        let shape = OpShape {
            query: 1.0,
            lookup: 0.0,
            write: 0.0,
            index_descents: 1.0,
        };
        let mut phase = Phase {
            ops: 100,
            mean_op_ns: 1_000_000.0,
            ..Phase::default()
        };
        phase.deltas.fabric.local_reads = 1_000;
        phase.deltas.fabric.doorbells = 400;
        phase.deltas.fabric.rpcs = 900;
        let sum = |m: &Metrics| {
            ["rdma", "farm", "codec", "core"]
                .iter()
                .map(|l| m.get(&format!("budget.{l}_share")).unwrap())
                .sum::<f64>()
        };
        let mut m = Metrics::default();
        budget_shares(&phase, &unit, shape, &mut m);
        assert!((sum(&m) - 1.0).abs() < 1e-9);
        assert!(m.get("budget.core_share").unwrap() > 0.9);
        // Parallel fan-out: the layers claim more than the wall time.
        phase.mean_op_ns = 10_000.0;
        let mut m = Metrics::default();
        budget_shares(&phase, &unit, shape, &mut m);
        assert!((sum(&m) - 1.0).abs() < 1e-9);
        assert!(m.get("budget.core_share").unwrap().abs() < 1e-9);
    }
}
