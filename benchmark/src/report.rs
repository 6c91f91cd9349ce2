//! What the benchmark declares and how a run reports it.
//!
//! The tables here are the program's copy of `BENCHMARK.json`; a test keeps
//! the two equal. A run fills a [`Metrics`] map and [`RunResult::to_line`]
//! prints exactly the declared set, in declared order.

use std::collections::BTreeMap;

pub const WORKLOADS: &[&str] = &["kg_read", "uniform_cold", "ingest_stream", "mixed_serve"];

pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// End-to-end metrics. Every workload reports every one of them, so the
/// latency is named by role; which op plays the role is fixed per
/// workload (see README), as is the secondary op whose latencies the traced
/// run reports per layer:
///
/// | workload | primary | secondary |
/// |---|---|---|
/// | `kg_read` | Q1 | Q4 |
/// | `uniform_cold` | 2-hop count | `get_vertex` |
/// | `ingest_stream` | `submit` of 1024 vertex updates (backpressure) | `submit` of 256 structural records |
/// | `mixed_serve` | Q1 at rate R2, from due time | `update_vertex` at R2, from due time |
pub const END_TO_END: &[Decl] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.20),
    e2e("primary_p50_ms", "ms", false, 0.20),
    e2e("net_us_per_op", "us", false, 0.04),
    e2e("peak_rss_mb", "MiB", false, 0.20),
];

/// Per-layer metrics: `(name, unit, higher_is_better)`. A workload that
/// does not exercise a layer reports 0 for its counters.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    // Tails and the secondary op's latencies, from the traced run's
    // untraced phase: none of them holds a bound on a shared host.
    ("primary_p99_ms", "ms", false),
    ("secondary_p50_ms", "ms", false),
    ("secondary_p99_ms", "ms", false),
    // rdma: counters per op over the measured phase, then unit costs.
    ("rdma.doorbells_per_op", "count", false),
    ("rdma.reads_per_doorbell", "count", true),
    ("rdma.remote_read_share", "share", false),
    ("rdma.read_bytes_per_op", "B", false),
    ("rdma.rpcs_per_op", "count", false),
    ("rdma.rpc_bytes_per_op", "B", false),
    ("rdma.writes_per_op", "count", false),
    ("rdma.cas_per_op", "count", false),
    ("rdma.read_ns", "ns", false),
    ("rdma.read_many32_ns", "ns", false),
    ("rdma.rpc_echo_ns", "ns", false),
    ("rdma.pool_run_all8_ns", "ns", false),
    // farm
    ("farm.txn_read_ns", "ns", false),
    ("farm.txn_read_remote_ns", "ns", false),
    ("farm.fetch_many32_ns", "ns", false),
    ("farm.btree_get_ns", "ns", false),
    ("farm.btree_insert_ns", "ns", false),
    ("farm.commit1_ns", "ns", false),
    ("farm.commit16_ns", "ns", false),
    ("farm.alloc_free_ns", "ns", false),
    ("farm.commits_per_op", "count", false),
    ("farm.aborts_per_commit", "share", false),
    // codecs
    ("bond.record_encode_ns", "ns", false),
    ("bond.record_decode_ns", "ns", false),
    ("json.parse_ns", "ns", false),
    // core.query / core.server
    ("core.query.parse_ns", "ns", false),
    ("core.query.hop1_us", "us", false),
    ("core.query.hop2_us", "us", false),
    ("core.query.hop3_us", "us", false),
    ("core.query.coord_self_us", "us", false),
    ("core.server.frontdoor_us", "us", false),
    ("core.query.vertices_per_op", "count", false),
    ("core.query.edges_per_op", "count", false),
    ("core.query.fetch_verbs_per_op", "count", false),
    ("core.query.morsels_per_op", "count", false),
    ("core.query.max_concurrent_ships", "count", true),
    ("core.query.local_read_fraction", "share", true),
    // core.wire
    ("core.wire.request_roundtrip_ns", "ns", false),
    ("core.wire.outcome_encode_ns", "ns", false),
    ("core.wire.outcome_decode_ns", "ns", false),
    // core.cache
    ("core.cache.hit_rate", "share", true),
    ("core.cache.evictions_per_op", "count", false),
    ("core.cache.bytes", "B", false),
    // core.store
    ("core.store.apply_batch64_us", "us", false),
    ("core.store.update_vertex_us", "us", false),
    // ingest
    ("ingest.avg_batch", "count", true),
    ("ingest.retries_per_batch", "count", false),
    ("ingest.splits_per_batch", "count", false),
    ("ingest.commit64_us", "us", false),
    ("ingest.record_wire_ns", "ns", false),
    ("ingest.submit_wait_share", "share", false),
    ("ingest.slow_rounds", "count", false),
    // serve: the open-loop ladder (mixed_serve only)
    ("serve.sender_late_p99_ms", "ms", false),
    ("serve.achieved_share.r1", "share", true),
    ("serve.achieved_share.r2", "share", true),
    ("serve.achieved_share.r3", "share", true),
    ("serve.achieved_share.r4", "share", true),
    ("serve.q1_p99_ms.r1", "ms", false),
    ("serve.q1_p99_ms.r2", "ms", false),
    ("serve.q1_p99_ms.r3", "ms", false),
    ("serve.q1_p99_ms.r4", "ms", false),
    ("serve.max_ok_rate", "1/s", true),
    // where an op's wall time goes, measured from outside
    ("budget.rdma_share", "share", false),
    ("budget.farm_share", "share", false),
    ("budget.codec_share", "share", false),
    ("budget.core_share", "share", false),
    ("trace.overhead_share", "share", false),
    ("trace.spans", "count", false),
    ("failed_share", "share", false),
];

#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}

#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable notes (mismatch details, sample counts); not part of
    /// the result line.
    pub notes: Vec<String>,
}

/// A number as JSON: whole values without a fraction, others with every
/// digit `f64` round-trips.
fn num(v: f64) -> String {
    if !v.is_finite() {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl RunResult {
    /// The declared `(name, unit)` pairs this run must report.
    pub fn declared(traced: bool) -> Vec<(&'static str, &'static str)> {
        if traced {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.iter().map(|d| (d.name, d.unit)).collect()
        }
    }

    /// The one result object, as a line: exactly the declared metrics. An
    /// undeclared name or a missing end-to-end metric is a bug in the
    /// benchmark and an error; a per-layer metric the workload does not
    /// exercise reads 0. Written by hand so the line's format does not
    /// depend on the program under test.
    pub fn to_line(&self) -> Result<String, String> {
        let declared = RunResult::declared(self.traced);
        if let Some(stray) = self
            .metrics
            .names()
            .find(|n| !declared.iter().any(|(d, _)| d == n))
        {
            return Err(format!("metric '{stray}' is not declared"));
        }
        let mut fields = Vec::new();
        for (name, unit) in declared {
            let value = match self.metrics.get(name) {
                Some(v) => v,
                None if self.traced => 0.0,
                None => return Err(format!("end-to-end metric '{name}' was not measured")),
            };
            fields.push(format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                num(value)
            ));
        }
        Ok(format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }

    /// The result line wrapped with what identifies the run, for the files
    /// a set of runs is merged from.
    pub fn to_record(&self, seed: u64, seconds: f64) -> Result<String, String> {
        let notes: Vec<String> = self.notes.iter().map(|n| json_string(n)).collect();
        Ok(format!(
            r#"{{"workload": "{}", "traced": {}, "seed": {seed}, "seconds": {}, "result": {}, "notes": [{}]}}"#,
            self.workload,
            self.traced,
            num(seconds),
            self.to_line()?,
            notes.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a1_json::Json;

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut r = RunResult {
            workload: "kg_read".into(),
            traced: false,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: Metrics::default(),
            notes: Vec::new(),
        };
        assert!(
            r.to_line().is_err(),
            "missing end-to-end metrics are an error"
        );
        for d in END_TO_END {
            r.metrics.set(d.name, 1.5);
        }
        let j = Json::parse(&r.to_line().unwrap()).unwrap();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            j.get("metrics").unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );
        r.metrics.set("not.declared", 1.0);
        assert!(r.to_line().is_err());

        // Traced: absent per-layer metrics read 0.
        let traced = RunResult {
            traced: true,
            metrics: Metrics::default(),
            ..r
        };
        let j = Json::parse(&traced.to_line().unwrap()).unwrap();
        let m = j.get("metrics").unwrap();
        assert_eq!(m.as_obj().unwrap().len(), PER_LAYER.len());
        assert_eq!(
            m.get("rdma.read_ns")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        // The wrapped record parses too, notes escaped.
        let noted = RunResult {
            notes: vec!["a \"quoted\" note\n".into()],
            ..traced
        };
        let rec = Json::parse(&noted.to_record(3, 0.5).unwrap()).unwrap();
        assert_eq!(rec.get("seed").and_then(Json::as_i64), Some(3));
        assert_eq!(
            rec.get("notes").unwrap().at(0).and_then(Json::as_str),
            Some("a \"quoted\" note\n")
        );
        assert_eq!(num(2.0), "2");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
    }
}
