//! Schema validation for the `--json` perf document (`a1-bench-v9`).
//!
//! CI used to pipe the artifact through `python3 -m json.tool`, which only
//! proved it parsed. `experiments --validate <file>` checks the actual
//! contract the perf-trajectory tooling depends on: the schema tag, every
//! required section, and the fields each section's consumers read. A
//! malformed artifact fails the job instead of silently uploading garbage.

use a1_core::Json;

/// The schema tag the current `--json` output carries.
pub const SCHEMA: &str = "a1-bench-v9";

fn require<'a>(j: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    j.get(key)
        .ok_or_else(|| format!("{ctx}: missing required field '{key}'"))
}

fn require_num(j: &Json, key: &str, ctx: &str) -> Result<(), String> {
    match require(j, key, ctx)? {
        Json::Num(_) => Ok(()),
        other => Err(format!(
            "{ctx}: field '{key}' must be a number, got {other}"
        )),
    }
}

fn require_arr<'a>(j: &'a Json, key: &str, ctx: &str) -> Result<&'a [Json], String> {
    match require(j, key, ctx)? {
        Json::Arr(items) => Ok(items),
        other => Err(format!(
            "{ctx}: field '{key}' must be an array, got {other}"
        )),
    }
}

fn each_has_nums(items: &[Json], fields: &[&str], ctx: &str) -> Result<(), String> {
    for (i, item) in items.iter().enumerate() {
        for f in fields {
            require_num(item, f, &format!("{ctx}[{i}]"))?;
        }
    }
    Ok(())
}

/// Validate one `--json` document against the `a1-bench-v9` contract.
/// Returns a human-readable error naming the first violation.
pub fn validate_doc(doc: &Json) -> Result<(), String> {
    let schema = require(doc, "schema", "document")?
        .as_str()
        .ok_or("document: 'schema' must be a string")?;
    if schema != SCHEMA {
        return Err(format!(
            "document: schema '{schema}' != expected '{SCHEMA}'"
        ));
    }
    match require(doc, "quick", "document")? {
        Json::Bool(_) => {}
        other => return Err(format!("document: 'quick' must be a bool, got {other}")),
    }

    // Ingest suite: one entry per mode (single-op / group-commit / parallel).
    let ingest = require_arr(doc, "ingest", "document")?;
    if ingest.is_empty() {
        return Err("document: 'ingest' must not be empty".into());
    }
    each_has_nums(
        ingest,
        &["records", "elapsed_ns", "records_per_sec", "check"],
        "ingest",
    )?;

    // Wire suite: codec micro-bench + per-query bytes-on-wire.
    let wire = require(doc, "wire", "document")?;
    let codec = require_arr(wire, "codec", "wire")?;
    each_has_nums(codec, &["bytes", "encode_ns", "decode_ns"], "wire.codec")?;
    let queries = require_arr(wire, "queries", "wire")?;
    each_has_nums(
        queries,
        &["rpcs", "req_bytes", "reply_bytes", "total_bytes"],
        "wire.queries",
    )?;
    require(wire, "bytes_reduction", "wire")?;

    // Open-loop serving suite.
    let serve = require(doc, "serve", "document")?;
    require_num(serve, "machines", "serve")?;
    require_num(serve, "max_sustainable_qps", "serve")?;
    match require(serve, "answers_match_closed_loop", "serve")? {
        Json::Bool(true) => {}
        Json::Bool(false) => {
            return Err("serve: answers_match_closed_loop is false".into());
        }
        other => {
            return Err(format!(
                "serve: 'answers_match_closed_loop' must be a bool, got {other}"
            ))
        }
    }
    let rungs = require_arr(serve, "rungs", "serve")?;
    if rungs.is_empty() {
        return Err("serve: 'rungs' must not be empty".into());
    }
    each_has_nums(
        rungs,
        &[
            "target_qps",
            "achieved_qps",
            "requests",
            "rejected",
            "errors",
            "p50_latency_ns",
            "p99_latency_ns",
            "p999_latency_ns",
        ],
        "serve.rungs",
    )?;

    // Hot-vertex read-cache suite: cached vs bypass A/B under churn. The
    // CI cache-effectiveness job reads `speedup`, `hit_rate` and
    // `answers_identical` to enforce its floors, so a document that lacks
    // them (or shipped with divergent answers) is rejected outright.
    let cache = require(doc, "cache", "document")?;
    require_num(cache, "speedup", "cache")?;
    require_num(cache, "hit_rate", "cache")?;
    require_num(cache, "evictions", "cache")?;
    require_num(cache, "churn_batches", "cache")?;
    match require(cache, "answers_identical", "cache")? {
        Json::Bool(true) => {}
        Json::Bool(false) => {
            return Err("cache: answers_identical is false".into());
        }
        other => {
            return Err(format!(
                "cache: 'answers_identical' must be a bool, got {other}"
            ))
        }
    }
    let modes = require_arr(cache, "results", "cache")?;
    if modes.len() != 2 {
        return Err(format!(
            "cache: 'results' must hold the cached/uncached pair, got {}",
            modes.len()
        ));
    }
    each_has_nums(
        modes,
        &[
            "machines",
            "iters",
            "p50_latency_ns",
            "p99_latency_ns",
            "avg_latency_ns",
            "throughput_qps",
            "cache_hits",
            "cache_misses",
            "local_read_fraction",
            "result",
        ],
        "cache.results",
    )?;

    // Deterministic-simulation suite: the scenario catalog at fixed seeds.
    // A document is only valid if every scenario passed AND every run
    // replayed byte-identically — a sim regression must fail the job, not
    // upload quietly.
    let sim = require(doc, "sim", "document")?;
    match require(sim, "all_passed", "sim")? {
        Json::Bool(true) => {}
        Json::Bool(false) => return Err("sim: all_passed is false".into()),
        other => return Err(format!("sim: 'all_passed' must be a bool, got {other}")),
    }
    match require(sim, "replay_identical", "sim")? {
        Json::Bool(true) => {}
        Json::Bool(false) => {
            return Err("sim: replay_identical is false — same (scenario, seed) diverged".into())
        }
        other => {
            return Err(format!(
                "sim: 'replay_identical' must be a bool, got {other}"
            ))
        }
    }
    let scenarios = require_arr(sim, "results", "sim")?;
    if scenarios.len() < 6 {
        return Err(format!(
            "sim: 'results' must cover the >=6-scenario catalog, got {}",
            scenarios.len()
        ));
    }
    each_has_nums(scenarios, &["seeds", "failures"], "sim.results")?;
    Ok(())
}

/// Validate a serialized document (the `--validate <file>` entry point).
pub fn validate_text(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    validate_doc(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal well-formed a1-bench-v9 document.
    fn sample() -> Json {
        Json::parse(
            r#"{
              "schema": "a1-bench-v9",
              "quick": true,
              "ingest": [{
                "workload": "ingest-group-commit", "machines": 4,
                "partitions": 4, "batch_size": 64, "records": 10,
                "elapsed_ns": 100, "records_per_sec": 5000.0, "batches": 2,
                "batch_retries": 0, "batch_splits": 0, "dedup_hits": 0,
                "check": 10
              }],
              "wire": {
                "codec": [{"message": "query-request", "bytes": 10,
                  "encode_ns": 5, "decode_ns": 5}],
                "queries": [{"workload": "q1", "format": "binary",
                  "rpcs": 8, "req_bytes": 100,
                  "reply_bytes": 200, "total_bytes": 300,
                  "avg_latency_ns": 10, "result": 5}],
                "bytes_reduction": {"q1": 0.5}
              },
              "serve": {
                "machines": 8, "max_sustainable_qps": 100.0,
                "answers_match_closed_loop": true,
                "rungs": [{"target_qps": 50, "achieved_qps": 49,
                  "requests": 20, "rejected": 0, "errors": 0,
                  "p50_latency_ns": 1, "p99_latency_ns": 2,
                  "p999_latency_ns": 3, "sustainable": true}]
              },
              "cache": {
                "speedup": 2.5, "hit_rate": 0.9, "evictions": 0,
                "answers_identical": true, "churn_batches": 12,
                "results": [
                  {"mode": "cached", "machines": 4, "iters": 6,
                   "p50_latency_ns": 10, "p99_latency_ns": 20,
                   "avg_latency_ns": 12, "throughput_qps": 100.0,
                   "cache_hits": 50, "cache_misses": 5,
                   "local_read_fraction": 0.8, "result": 32},
                  {"mode": "uncached", "machines": 4, "iters": 6,
                   "p50_latency_ns": 25, "p99_latency_ns": 40,
                   "avg_latency_ns": 30, "throughput_qps": 40.0,
                   "cache_hits": 0, "cache_misses": 0,
                   "local_read_fraction": 0.1, "result": 32}
                ]
              },
              "sim": {
                "all_passed": true, "replay_identical": true,
                "results": [
                  {"scenario": "partition-during-ingest", "seeds": 2,
                   "failures": 0, "trace_hashes": ["aa", "bb"]},
                  {"scenario": "coordinator-death-mid-fanout", "seeds": 2,
                   "failures": 0, "trace_hashes": ["aa", "bb"]},
                  {"scenario": "message-loss-storm", "seeds": 2,
                   "failures": 0, "trace_hashes": ["aa", "bb"]},
                  {"scenario": "clock-skew-past-lease-bound", "seeds": 2,
                   "failures": 0, "trace_hashes": ["aa", "bb"]},
                  {"scenario": "backward-clock-jump", "seeds": 2,
                   "failures": 0, "trace_hashes": ["aa", "bb"]},
                  {"scenario": "replog-replay-race", "seeds": 2,
                   "failures": 0, "trace_hashes": ["aa", "bb"]},
                  {"scenario": "cache-invalidation-vs-crash", "seeds": 2,
                   "failures": 0, "trace_hashes": ["aa", "bb"]}
                ]
              }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn accepts_well_formed() {
        validate_doc(&sample()).unwrap();
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(validate_text("not json").is_err());
        assert!(validate_text("{}").is_err());

        // Wrong schema tag.
        let mut doc = sample();
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "schema" {
                    *v = Json::str("a1-bench-v4");
                }
            }
        }
        let err = validate_doc(&doc).unwrap_err();
        assert!(err.contains("a1-bench-v4"), "{err}");

        // Missing serve section.
        let mut doc = sample();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "serve");
        }
        let err = validate_doc(&doc).unwrap_err();
        assert!(err.contains("serve"), "{err}");

        // A rung missing its tail percentile.
        let text = sample().to_string().replace("\"p999_latency_ns\"", "\"x\"");
        let err = validate_text(&text).unwrap_err();
        assert!(err.contains("p999_latency_ns"), "{err}");

        // Missing cache section.
        let mut doc = sample();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "cache");
        }
        let err = validate_doc(&doc).unwrap_err();
        assert!(err.contains("cache"), "{err}");

        // Missing sim section.
        let mut doc = sample();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "sim");
        }
        let err = validate_doc(&doc).unwrap_err();
        assert!(err.contains("sim"), "{err}");

        // A replay divergence is never a valid artifact.
        let mut doc = sample();
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k != "sim" {
                    continue;
                }
                if let Json::Obj(sim_fields) = v {
                    for (sk, sv) in sim_fields.iter_mut() {
                        if sk == "replay_identical" {
                            *sv = Json::Bool(false);
                        }
                    }
                }
            }
        }
        let err = validate_doc(&doc).unwrap_err();
        assert!(err.contains("replay_identical"), "{err}");

        // Cached and bypass answers diverged — never a valid artifact.
        let mut doc = sample();
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k != "cache" {
                    continue;
                }
                if let Json::Obj(cache_fields) = v {
                    for (ck, cv) in cache_fields.iter_mut() {
                        if ck == "answers_identical" {
                            *cv = Json::Bool(false);
                        }
                    }
                }
            }
        }
        let err = validate_doc(&doc).unwrap_err();
        assert!(err.contains("answers_identical"), "{err}");
    }
}
