//! Cross-query hot-vertex read cache: cached and cache-bypass clients must
//! both return the generator's reference answer while ingest rewrites the
//! hot set, eviction pressure must never change an answer, and a freed
//! (deleted/reallocated) address must miss rather than fabricate a read
//! from a stale entry.

use a1::core::{A1Cluster, A1Config, CacheConfig, Json, MachineId, Mutation};
use a1_workload::cache::{
    build_graph, count_query, render, rows_query, CacheGraphSpec, GRAPH, TENANT, UNCACHED_CLIENT,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn small_spec() -> CacheGraphSpec {
    CacheGraphSpec {
        hubs: 16,
        payload_bytes: 256,
    }
}

fn cache_cfg(capacity_bytes: usize) -> A1Config {
    A1Config::small(4).with_cache(CacheConfig {
        enabled: true,
        capacity_bytes,
        bypass_clients: vec![UNCACHED_CLIENT.to_string()],
    })
}

fn hub_rewrite(i: usize, salt: u64) -> Mutation {
    Mutation::UpsertVertex {
        tenant: TENANT.into(),
        graph: GRAPH.into(),
        ty: "entity".into(),
        attrs: Json::obj(vec![
            ("id", Json::str(&format!("hub{i:04}"))),
            ("rank", Json::Num(1.0)),
            ("payload", Json::str(&format!("rewrite-{salt}"))),
        ]),
    }
}

/// Spawn writers that rewrite hub payloads through the batch-apply path
/// (the invalidation choke point) for the duration of `body`.
fn with_churn(cluster: &A1Cluster, hubs: usize, body: impl FnOnce()) -> u64 {
    let stop = Arc::new(AtomicBool::new(false));
    let writes = Arc::new(AtomicU64::new(0));
    let mut writers = Vec::new();
    for w in 0..2u64 {
        let client = cluster.client();
        let stop = stop.clone();
        let writes = writes.clone();
        writers.push(std::thread::spawn(move || {
            let mut salt = w;
            while !stop.load(Ordering::Relaxed) {
                let i = (salt as usize) % hubs;
                // Hubs live on machine 0 (the builder pins them), so
                // rewrite them there; every commit invalidates the touched
                // addresses on every backend's cache.
                if client
                    .apply_batch_at(MachineId(0), &[hub_rewrite(i, salt)])
                    .is_ok()
                {
                    writes.fetch_add(1, Ordering::Relaxed);
                }
                salt += 2;
            }
        }));
    }
    body();
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    writes.load(Ordering::Relaxed)
}

/// The cache's correctness contract: a cached client and a bypass client on
/// the same cluster both see the reference answer — byte-identical rows and
/// counts — while ingest rewrites the hot set underneath them. The default
/// cluster covers every work-op read path that consults the cache: queries
/// land on every backend, so the hub batch runs inline on machine 0 and
/// shipped from the others, split into morsels either way.
#[test]
fn cached_and_bypass_answers_match_reference_under_concurrent_ingest() {
    let spec = small_spec();
    let expected = spec.reference();
    let cluster = build_graph(cache_cfg(1 << 20), &spec);
    let cached = cluster.client().with_client_id("reader");
    let uncached = cluster.client().with_client_id(UNCACHED_CLIENT);
    let queries = [count_query(), rows_query()];
    let writes = with_churn(&cluster, spec.hubs, || {
        let mut handles = Vec::new();
        for t in 0..3usize {
            let cached = cached.clone();
            let uncached = uncached.clone();
            let queries = queries.clone();
            let expected = expected.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..10 {
                    let which = (t + i) % 2;
                    let c = cached.query(TENANT, GRAPH, &queries[which]).unwrap();
                    let u = uncached.query(TENANT, GRAPH, &queries[which]).unwrap();
                    // The churn only rewrites payloads, never ranks or ids,
                    // so the answer is invariant across every committed
                    // state.
                    assert_eq!(render(&c), expected[which], "cached diverged");
                    assert_eq!(render(&u), expected[which], "bypass diverged");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
    assert!(writes > 0, "churn never committed");
    let stats = cluster.cache_stats();
    assert!(stats.hits > 0, "the cached client never hit");
}

/// A capacity so small the hot set cannot fit forces constant eviction and
/// refill; answers must stay exact and the occupancy bound must hold.
#[test]
fn eviction_under_capacity_pressure_keeps_answers_exact() {
    let spec = CacheGraphSpec {
        hubs: 16,
        payload_bytes: 2048,
    };
    // 16 shards × 1 KiB: a ~2 KiB hub record oversizes every shard budget,
    // so hubs sharing a shard evict each other on every refill.
    let capacity = 16 << 10;
    let cluster = build_graph(cache_cfg(capacity), &spec);
    let cached = cluster.client().with_client_id("reader");
    let uncached = cluster.client().with_client_id(UNCACHED_CLIENT);
    let expected = spec.hubs as u64;
    for q in [count_query(), rows_query()] {
        for _ in 0..8 {
            let c = cached.query(TENANT, GRAPH, &q).unwrap();
            let u = uncached.query(TENANT, GRAPH, &q).unwrap();
            assert_eq!(render(&c), render(&u), "eviction pressure changed rows");
            if let Some(count) = c.count {
                assert_eq!(count, expected);
            }
        }
    }
    let stats = cluster.cache_stats();
    assert!(
        stats.evictions > 0,
        "capacity pressure never evicted (bytes={}, capacity={capacity})",
        stats.bytes
    );
    // The CLOCK sweep retains at most one (possibly oversized) entry per
    // shard, so occupancy is bounded by shards × entry-cost, far below the
    // full hot set's footprint.
    assert!(
        stats.entries < spec.hubs as u64,
        "pressure never bounded occupancy: {} entries resident",
        stats.entries
    );
    assert!(
        stats.bytes <= 16 * 4096,
        "cache overran the one-entry-per-shard bound: {} bytes",
        stats.bytes
    );
}

/// Regression for the freed/reused-address interaction audited in the
/// read path: delete a hub whose header + record sit in the cache, then
/// re-create it (the allocator may hand back the same slot). No query may
/// ever fabricate the dead vertex from the stale entry — deletion
/// invalidates the address on every backend, and even a raced probe sees
/// a freed or re-versioned header and misses.
#[test]
fn deleted_then_recreated_hub_never_serves_stale_cache() {
    let spec = small_spec();
    let cluster = build_graph(cache_cfg(1 << 20), &spec);
    let cached = cluster.client().with_client_id("reader");
    let uncached = cluster.client().with_client_id(UNCACHED_CLIENT);

    // Warm: every hub's header + record is now cached.
    for _ in 0..2 {
        cached.query(TENANT, GRAPH, &rows_query()).unwrap();
    }
    assert!(cluster.cache_stats().entries > 0, "warm-up cached nothing");

    // Delete hub0007 — frees its header and data objects and rewrites the
    // root's adjacency.
    cached
        .apply_batch(&[Mutation::DeleteVertex {
            tenant: TENANT.into(),
            graph: GRAPH.into(),
            ty: "entity".into(),
            id: Json::str("hub0007"),
        }])
        .unwrap();
    let c = cached.query(TENANT, GRAPH, &rows_query()).unwrap();
    let u = uncached.query(TENANT, GRAPH, &rows_query()).unwrap();
    assert_eq!(render(&c), render(&u), "cached rows diverged after delete");
    assert_eq!(c.rows.len(), spec.hubs - 1, "deleted hub still emitted");
    assert!(
        !render(&c).contains("hub0007"),
        "stale cache fabricated the deleted hub"
    );

    // Re-create the same id (possibly reusing the freed slot) with a fresh
    // payload and a fresh edge; both clients see exactly the new vertex.
    cached
        .apply_batch(&[
            hub_rewrite(7, 9999),
            Mutation::UpsertEdge {
                tenant: TENANT.into(),
                graph: GRAPH.into(),
                src_type: "entity".into(),
                src_id: Json::str("root"),
                edge_type: "fan".into(),
                dst_type: "entity".into(),
                dst_id: Json::str("hub0007"),
                data: None,
            },
        ])
        .unwrap();
    let c = cached.query(TENANT, GRAPH, &rows_query()).unwrap();
    let u = uncached.query(TENANT, GRAPH, &rows_query()).unwrap();
    assert_eq!(
        render(&c),
        render(&u),
        "cached rows diverged after re-create"
    );
    assert_eq!(c.rows.len(), spec.hubs, "re-created hub missing");
    assert!(render(&c).contains("hub0007"));
    assert_eq!(
        c.count.or(Some(c.rows.len() as u64)),
        u.count.or(Some(u.rows.len() as u64))
    );
}

/// The per-client bypass knob and the global disable knob both force the
/// uncached path: no hits, no entries, same answers.
#[test]
fn disabled_cache_serves_identical_answers_with_no_entries() {
    let spec = small_spec();
    let mut cfg = cache_cfg(1 << 20);
    cfg.cache.enabled = false;
    let cluster = build_graph(cfg, &spec);
    let client = cluster.client().with_client_id("reader");
    let expected = spec.hubs as u64;
    for _ in 0..3 {
        let out = client.query(TENANT, GRAPH, &count_query()).unwrap();
        assert_eq!(out.count.unwrap(), expected);
    }
    let stats = cluster.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (0, 0, 0),
        "disabled cache still saw traffic"
    );
}
