//! Batched one-sided fetch path: the doorbell-coalesced prefetch must
//! return the generator's reference answers — warm, uncached, and under
//! churn — while posting a bounded number of one-sided verbs per morsel:
//! at most three rounds cold (headers, records, edge lists), two warm.

use a1::core::query::exec::HopStats;
use a1::core::{A1Cluster, A1Config, CacheConfig, Json, MachineId, Mutation, QueryOutcome};
use a1_workload::cache::{
    build_graph, count_query, render, rows_query, CacheGraphSpec, GRAPH, TENANT, UNCACHED_CLIENT,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const HUBS: usize = 16;

fn small_spec() -> CacheGraphSpec {
    CacheGraphSpec {
        hubs: HUBS,
        payload_bytes: 256,
    }
}

/// The inline-fetch configuration the batching accelerates: shipping
/// disabled, so the coordinator evaluates every remote hub with one-sided
/// reads.
fn fetch_cfg(cache: bool) -> A1Config {
    let mut cfg = A1Config::small(4).with_cache(CacheConfig {
        enabled: cache,
        capacity_bytes: 64 << 20,
        bypass_clients: vec![UNCACHED_CLIENT.to_string()],
    });
    cfg.exec.ship_threshold = usize::MAX;
    cfg
}

/// The hub hop of a query coordinated from machine 1: all 16 hubs live on
/// machine 0, so every morsel's fetches target one machine.
fn hub_hop(out: &QueryOutcome) -> &HopStats {
    let hop = out.per_hop.last().expect("hub hop recorded");
    assert_eq!((hop.frontier, hop.machines), (HUBS as u64, 1));
    hop
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

/// Two writers rewriting hub payloads through the batch-apply path for the
/// duration of `body`. The churn only touches payloads — never ranks, ids,
/// or edges — so every query answer is invariant across committed states.
fn with_churn(cluster: &A1Cluster, body: impl FnOnce()) -> u64 {
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
                let i = (salt as usize) % HUBS;
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

/// Cache revalidation probes ride the doorbell batch: warm, a morsel's
/// probes coalesce into at most one post per target machine (a scalar loop
/// would post one per hub), and cached and bypass clients both keep the
/// reference answer while churn rewrites the hot set.
#[test]
fn warm_probes_coalesce_and_answers_match_reference_under_churn() {
    let expected = small_spec().reference();
    let queries = [count_query(), rows_query()];
    let cluster = build_graph(fetch_cfg(true), &small_spec());
    let coord = |client: &str, q: &str| {
        cluster
            .inner()
            .coordinate_query_for(MachineId(1), TENANT, GRAPH, q, client)
            .expect("query")
    };

    // Warm machine 1's cache: headers + records for every hub are now
    // resident, so each subsequent query revalidates all 16 entries.
    for _ in 0..2 {
        for q in &queries {
            coord("reader", q);
        }
    }
    for (q, want) in queries.iter().zip(&expected) {
        let out = coord("reader", q);
        assert_eq!(&render(&out), want, "warm answer wrong");
        let hop = hub_hop(&out);
        assert_eq!(hop.cache_hits, HUBS as u64);
        assert!(
            (1..=hop.morsels * hop.machines).contains(&hop.fetch_verbs),
            "warm probes did not coalesce: {} posts for {} morsels",
            hop.fetch_verbs,
            hop.morsels
        );
    }

    // The bypass client never consults the cache, and a hit counts as a
    // local read: the payload did not cross the wire.
    for q in &queries {
        let cached = coord("reader", q).metrics;
        let bypass = coord(UNCACHED_CLIENT, q).metrics;
        assert_eq!(
            bypass.cache_hits + bypass.cache_misses,
            0,
            "bypass client touched the cache"
        );
        assert!(
            cached.local_read_fraction() > bypass.local_read_fraction(),
            "hits did not raise the local-read fraction ({} vs {})",
            cached.local_read_fraction(),
            bypass.local_read_fraction()
        );
    }

    // Under churn the cached client exercises batched revalidation with
    // scalar fallbacks, the bypass client batched *uncached* reads of the
    // same state.
    let writes = with_churn(&cluster, || {
        for i in 0..10 {
            let which = i % 2;
            let c = coord("reader", &queries[which]);
            let u = coord(UNCACHED_CLIENT, &queries[which]);
            assert_eq!(render(&c), expected[which], "cached diverged");
            assert_eq!(render(&u), expected[which], "bypass diverged");
        }
    });
    assert!(writes > 0, "churn never committed");
}

/// Uncached inline fetch (headers + records, no cache to probe): each morsel
/// posts at most two rounds — headers, then records — per target machine,
/// where a scalar loop would post two verbs per hub.
#[test]
fn uncached_fetch_posts_two_rounds_per_morsel() {
    let expected = small_spec().reference();
    let cluster = build_graph(fetch_cfg(false), &small_spec());
    for (q, want) in [count_query(), rows_query()].iter().zip(&expected) {
        let out = cluster
            .inner()
            .coordinate_query(MachineId(1), TENANT, GRAPH, q)
            .expect("query");
        assert_eq!(&render(&out), want, "answer wrong on {q}");
        let hop = hub_hop(&out);
        assert!(
            (1..=2 * hop.morsels * hop.machines).contains(&hop.fetch_verbs),
            "fetch not coalesced: {} posts for {} morsels",
            hop.fetch_verbs,
            hop.morsels
        );
        assert!(hop.fetch_verbs < HUBS as u64, "one verb per hub or worse");
    }
}

/// A hop that filters on attributes *and* traverses needs all three rounds
/// cold — headers, records, inline edge lists — and two warm, where one
/// probe round stands in for the first two. A scalar loop would post three
/// verbs per hub.
#[test]
fn traversing_hop_posts_three_rounds_cold_and_two_warm() {
    // root ─fan→ hubs (rank 1) ─fan, backwards→ root: the hub hop is the
    // middle one, and it enumerates every hub's in-list.
    let q = r#"{ "id": "root",
        "_out_edge": { "_type": "fan",
        "_vertex": { "rank": 1,
        "_in_edge": { "_type": "fan",
        "_vertex": { "_select": ["_count(*)"] } } } } }"#;
    let cluster = build_graph(fetch_cfg(true), &small_spec());
    let hub_hop_verbs = || {
        let out = cluster
            .inner()
            .coordinate_query(MachineId(1), TENANT, GRAPH, q)
            .expect("query");
        assert_eq!(out.count, Some(1), "every hub leads back to the root");
        let hop = out.per_hop[1];
        assert_eq!((hop.frontier, hop.machines), (HUBS as u64, 1));
        assert_eq!(hop.edges_visited, HUBS as u64);
        (hop.fetch_verbs, hop.morsels * hop.machines, hop.cache_hits)
    };
    let (cold, slots, hits) = hub_hop_verbs();
    assert_eq!(hits, 0, "first touch");
    assert!(
        (3..=3 * slots).contains(&cold),
        "cold: {cold} posts for {slots} morsel x machine"
    );
    let (warm, slots, hits) = hub_hop_verbs();
    assert_eq!(hits, HUBS as u64);
    assert!(
        (2..=2 * slots).contains(&warm),
        "warm: {warm} posts for {slots} morsel x machine"
    );
}

/// The ship-vs-fetch decision must never change an answer: the default
/// cluster — where the hub batch ships from three coordinators and runs
/// inline on the fourth — keeps the reference answer under two-writer
/// churn.
#[test]
fn default_cluster_matches_reference_under_churn() {
    let expected = small_spec().reference();
    let queries = [count_query(), rows_query()];
    let cluster = build_graph(A1Config::small(4), &small_spec());
    let client = cluster.client();
    let writes = with_churn(&cluster, || {
        for i in 0..12 {
            let out = client.query(TENANT, GRAPH, &queries[i % 2]).unwrap();
            assert_eq!(render(&out), expected[i % 2], "answer diverged");
        }
    });
    assert!(writes > 0, "churn never ran");
}
