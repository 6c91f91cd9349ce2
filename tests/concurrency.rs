//! Concurrent distributed coordination: many simultaneous multi-hop queries
//! from multiple client threads, with every result checked against the
//! workload generator's reference answers — including while a machine is
//! killed mid-stream — plus proof that a hop's network waits (its ships,
//! its one-sided posts to several owners) and a work op's morsels genuinely
//! overlap, without parking a coordinator-pool worker per ship.

use a1::core::{A1Config, Json, MachineId, QueryOutcome};
use a1_workload::workload::{KgAnswers, KnowledgeGraph, KnowledgeGraphSpec, GRAPH, TENANT};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn load(machines: u32) -> KnowledgeGraph {
    KnowledgeGraph::load(A1Config::small(machines), KnowledgeGraphSpec::tiny())
}

/// Q3's projected film names, ascending (merge order is by `MachineId`;
/// the reference is a sorted set).
fn q3_names(out: &QueryOutcome) -> Vec<String> {
    let mut names: Vec<String> = out
        .rows
        .iter()
        .map(|row| {
            let name = row.get("name[0]").and_then(Json::as_str);
            name.expect("Q3 projects name[0]").to_string()
        })
        .collect();
    names.sort();
    names
}

/// All four Table 2 answers, in the reference's shape.
fn all_answers(kg: &KnowledgeGraph) -> KgAnswers {
    let run = |text: String| kg.client.query(TENANT, GRAPH, &text).unwrap();
    KgAnswers {
        q1: run(kg.q1()).count.unwrap(),
        q2: run(kg.q2()).count.unwrap(),
        q3: q3_names(&run(kg.q3())),
        q4: run(kg.q4()).count.unwrap(),
    }
}

#[test]
fn shipped_hops_overlap_and_match_reference() {
    // ship_threshold = 1 so even the tiny graph's per-machine batches go
    // over the RPC ship path rather than inline one-sided reads. The
    // network model is scaled into the injector's sleep regime so the
    // overlap assertion below is deterministic on a single-core runner
    // (instant RPCs can finish before the next pool worker starts).
    let mut cfg = A1Config::small(6);
    cfg.exec.ship_threshold = 1;
    cfg.farm.fabric.latency.rack_rtt_ns = 500_000;
    cfg.farm.fabric.latency.cross_rack_rtt_ns = 1_000_000;
    cfg.farm.fabric.latency.rpc_overhead_ns = 500_000;
    let kg = KnowledgeGraph::load(cfg, KnowledgeGraphSpec::tiny());
    assert_eq!(all_answers(&kg), kg.answers);
    // The fan-out hops had several ships posted before collecting any.
    kg.cluster.farm().fabric().set_inject_latency(true);
    let out = kg
        .cluster
        .inner()
        .coordinate_query(MachineId(0), TENANT, GRAPH, &kg.q4())
        .unwrap();
    kg.cluster.farm().fabric().set_inject_latency(false);
    assert_eq!(out.count, Some(kg.answers.q4));
    let peak = out
        .per_hop
        .iter()
        .map(|h| h.max_concurrent_ships)
        .max()
        .unwrap();
    assert!(peak > 1, "expected overlapping ships, peak was {peak}");
    // And per-hop wall time was recorded.
    assert!(out.per_hop.iter().all(|h| h.wall_ns > 0));
}

/// The sub-threshold regime: nothing ships, so the coordinator itself reads
/// every owner's vertices with one-sided posts. Those posts must be in
/// flight together — a hop costs its rounds (headers, edge lists) times the
/// slowest destination, not times the number of destinations. (The parent
/// of this test bought the same overlap with a pool thread per owner.)
#[test]
fn sub_threshold_hop_overlaps_its_posts_across_owners() {
    const RTT_NS: u64 = 2_000_000;
    let mut cfg = A1Config::small(6);
    cfg.exec.ship_threshold = usize::MAX;
    // Every remote destination costs the same, deep in the sleep regime so
    // CPU time is small beside one round trip.
    cfg.farm.fabric.latency.rack_rtt_ns = RTT_NS;
    cfg.farm.fabric.latency.cross_rack_rtt_ns = RTT_NS;
    let kg = KnowledgeGraph::load(cfg, KnowledgeGraphSpec::tiny());
    kg.cluster.farm().fabric().set_inject_latency(true);
    let out = kg
        .cluster
        .inner()
        .coordinate_query(MachineId(0), TENANT, GRAPH, &kg.q4())
        .unwrap();
    kg.cluster.farm().fabric().set_inject_latency(false);
    assert_eq!(out.count, Some(kg.answers.q4));
    assert_eq!(out.metrics.rpcs, 0, "nothing ships in this regime");
    let hop = out
        .per_hop
        .iter()
        .filter(|h| h.frontier > 1)
        .max_by_key(|h| h.machines)
        .expect("a fan-out hop");
    assert!(hop.machines >= 5, "frontier spread over {}", hop.machines);
    // At least four of those owners are remote. One after another, two
    // rounds each, they would take 16 ms; together, a traversing hop is at
    // most three rounds.
    assert!(hop.wall_ns >= RTT_NS, "the wait was real: {}", hop.wall_ns);
    assert!(
        hop.wall_ns < 3 * RTT_NS + RTT_NS / 2,
        "hop over {} owners took {} ns: destinations serialised",
        hop.machines,
        hop.wall_ns
    );
}

/// Ships are posted from the coordinator's own thread: no worker of the
/// coordinator machine's pool runs (or parks in) a ship, so a stream of
/// shipping queries leaves that pool at its base size.
#[test]
fn shipping_queries_do_not_grow_the_coordinator_pool() {
    // Every remote batch ships, however small (the graph is tiny).
    let mut cfg = A1Config::small(6);
    cfg.exec.ship_threshold = 1;
    let kg = KnowledgeGraph::load(cfg, KnowledgeGraphSpec::tiny());
    let fabric = kg.cluster.farm().fabric();
    let pool = fabric.machine(MachineId(0)).unwrap().pool();
    let base = fabric.config().threads_per_machine;
    // Temporary workers the load phase spawned retire after 200 ms idle.
    let settle = std::time::Instant::now();
    while pool.thread_count() > base {
        assert!(settle.elapsed().as_secs() < 10, "pool never settled");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let mut ships = 0;
    for _ in 0..50 {
        let out = kg
            .cluster
            .inner()
            .coordinate_query(MachineId(0), TENANT, GRAPH, &kg.q4())
            .unwrap();
        assert_eq!(out.count, Some(kg.answers.q4));
        assert!(out.per_hop.iter().all(|h| h.morsels <= h.machines));
        ships += out.metrics.rpcs;
    }
    assert!(ships >= 50, "the queries shipped ({ships} ships)");
    assert_eq!(pool.thread_count(), base, "a ship parked a worker");
}

/// Rows merge in `MachineId` order whether a part shipped or stayed in the
/// coordinator's one local op: the same query on the same (seeded) graph
/// returns its rows in the same order with everything shipped, nothing
/// shipped, and a mix of both.
#[test]
fn row_order_does_not_depend_on_what_ships() {
    let rows_at = |ship_threshold: usize| {
        let mut cfg = A1Config::small(5);
        cfg.exec.ship_threshold = ship_threshold;
        let kg = KnowledgeGraph::load(cfg, KnowledgeGraphSpec::tiny());
        // Q1's actors as rows instead of a count: twenty vertices spread
        // unevenly over all five machines.
        let q = kg
            .q1()
            .replace(r#""_select" : ["_count(*)"]"#, r#""_select" : ["name[0]"]"#);
        let out = kg
            .cluster
            .inner()
            .coordinate_query(MachineId(0), TENANT, GRAPH, &q)
            .unwrap();
        assert_eq!(out.rows.len() as u64, kg.answers.q1);
        let last = out.per_hop.last().unwrap();
        let rows: Vec<String> = out.rows.iter().map(Json::to_string).collect();
        (rows, last.rpcs, last.machines)
    };
    let (all_local, rpcs, machines) = rows_at(usize::MAX);
    assert_eq!((rpcs, machines), (0, 5));
    let (all_shipped, rpcs, _) = rows_at(1);
    assert_eq!(rpcs, 4, "every remote owner shipped");
    let (mixed, rpcs, _) = rows_at(A1Config::small(5).exec.ship_threshold);
    assert!((1..4).contains(&rpcs), "some parts ship, some stay: {rpcs}");
    assert_eq!(all_shipped, all_local);
    assert_eq!(mixed, all_local);
}

#[test]
fn concurrent_clients_agree_with_reference() {
    let kg = load(5);
    let mut handles = Vec::new();
    for t in 0..6 {
        let queries = [kg.q1(), kg.q2(), kg.q3(), kg.q4()];
        let client = kg.client.clone();
        let expected = kg.answers.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..10 {
                let which = (t + i) % 4;
                let out = client.query(TENANT, GRAPH, &queries[which]).unwrap();
                let ok = match which {
                    0 => out.count == Some(expected.q1),
                    1 => out.count == Some(expected.q2),
                    2 => q3_names(&out) == expected.q3,
                    _ => out.count == Some(expected.q4),
                };
                assert!(ok, "thread {t} iteration {i}: q{} diverged", which + 1);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn killed_machine_mid_stream_matches_reference() {
    let kg = load(6);
    assert_eq!(all_answers(&kg), kg.answers);

    // Clients hammer queries while a machine dies mid-stream. In-flight
    // queries may fail transiently; every *successful* query must return
    // the reference answer (killing a machine, with backup promotion,
    // changes no answer).
    let stop = Arc::new(AtomicBool::new(false));
    let successes = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..4 {
        let queries = [(kg.q1(), kg.answers.q1), (kg.q4(), kg.answers.q4)];
        let client = kg.client.clone();
        let stop = stop.clone();
        let successes = successes.clone();
        handles.push(std::thread::spawn(move || {
            let mut i = 0;
            while !stop.load(Ordering::Relaxed) {
                let (text, want) = &queries[(t + i) % 2];
                i += 1;
                // An error means a ship raced the kill: acceptable, never
                // wrong.
                if let Ok(out) = client.query(TENANT, GRAPH, text) {
                    assert_eq!(out.count, Some(*want), "diverged during failure");
                    successes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    // Let the stream establish, then kill a machine under it.
    std::thread::sleep(std::time::Duration::from_millis(50));
    kg.cluster.farm().kill_machine(MachineId(4));
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    assert!(
        successes.load(Ordering::Relaxed) > 0,
        "no query succeeded around the failure"
    );
    // After promotion settles, answers are the reference again — from every
    // surviving backend.
    assert_eq!(all_answers(&kg), kg.answers);
}

// ---------------------------------------------------------------- morsels
//
// Intra-machine morsel execution: one machine's work-op batch splits onto
// its own worker pool, the level below the cross-machine fan-out exercised
// above.

use a1::core::query::exec::{self, CompiledStep, WorkOp};
use a1::core::query::plan::Select;
use a1::core::Mutation;
use a1::farm::{Addr, RegionId};
use a1_workload::workload::{HubSkewGraph, HubSkewSpec, HUB_SKEW_GRAPH};

/// A 4-machine × 4-core cluster whose hop-2 frontier is ~90% owned by
/// machine 0 (the hub-skew shape the morsel split exists for).
fn skewed_cluster(srcs: usize) -> HubSkewGraph {
    let mut cfg = A1Config::small(4);
    cfg.farm.fabric.threads_per_machine = 4;
    // Network waits land in the injector's sleep regime (like the fan-out
    // test above) so morsel-overlap assertions hold on a 1-core runner.
    cfg.farm.fabric.latency.rack_rtt_ns = 500_000;
    cfg.farm.fabric.latency.cross_rack_rtt_ns = 1_000_000;
    cfg.farm.fabric.latency.rpc_overhead_ns = 500_000;
    let spec = HubSkewSpec {
        srcs,
        skew: 0.9,
        payload_bytes: 16,
    };
    HubSkewGraph::load(cfg, &spec)
}

fn match_count(g: &HubSkewGraph) -> u64 {
    let client = g.cluster.client();
    let out = client.query(TENANT, HUB_SKEW_GRAPH, &HubSkewGraph::match_query());
    out.unwrap().count.unwrap()
}

#[test]
fn morsels_overlap_on_hub_skewed_frontier() {
    // Past the split size: machine 0's ~90 % of the frontier is worth at
    // least two morsels of `MIN_MORSEL` vertices each.
    let srcs = 3 * exec::MIN_MORSEL;
    let g = skewed_cluster(srcs);
    assert_eq!(g.expected_match, srcs as u64, "every src's target matches");
    assert_eq!(match_count(&g), g.expected_match);
    // With injected latency the morsels genuinely overlap inside the hub
    // machine's single shipped work op.
    g.cluster.cluster_inject(true);
    let out = g
        .cluster
        .inner()
        .coordinate_query(
            MachineId(1),
            TENANT,
            HUB_SKEW_GRAPH,
            &HubSkewGraph::match_query(),
        )
        .unwrap();
    g.cluster.cluster_inject(false);
    assert_eq!(out.count, Some(g.expected_match));
    let hop = out
        .per_hop
        .iter()
        .max_by_key(|h| h.frontier)
        .expect("hops recorded");
    // ~90% of the frontier mapped to one machine, yet morsels overlapped.
    assert!(hop.frontier >= srcs as u64);
    assert!(
        hop.max_concurrent_morsels > 1,
        "expected overlapping morsels, peak was {}",
        hop.max_concurrent_morsels
    );
    assert!(hop.morsels > hop.machines, "hub batch split into morsels");
}

/// Helper: toggle latency injection (keeps the test bodies readable).
trait Inject {
    fn cluster_inject(&self, on: bool);
}
impl Inject for a1::core::A1Cluster {
    fn cluster_inject(&self, on: bool) {
        self.farm().fabric().set_inject_latency(on);
    }
}

#[test]
fn error_in_morsel_propagates_without_deadlock() {
    let g = skewed_cluster(16);
    let inner = g.cluster.inner();
    let machine = MachineId(0);
    let proxies = inner.proxies_at(machine, TENANT, HUB_SKEW_GRAPH).unwrap();
    let snapshot_ts = inner.farm.begin_read_only(machine).read_ts();
    // A batch of addresses in a region that does not exist: every morsel's
    // header read fails with `Unavailable` — which, unlike the tolerated
    // NoSuchVertex, must propagate out of the morsel join.
    let op = WorkOp {
        tenant: TENANT.into(),
        graph: HUB_SKEW_GRAPH.into(),
        snapshot_ts,
        vertices: (0..32)
            .map(|i| Addr::new(RegionId(40_000 + i), 64))
            .collect(),
        step: CompiledStep {
            type_filter: None,
            id_filter: None,
            preds: vec![],
            matches: vec![],
            traverse: None,
        },
        emit_rows: false,
        select: Select::Count,
        cache_bypass: false,
    };
    let pool = inner.farm.fabric().machine(machine).unwrap().pool();
    let err = exec::run_work_op(
        &inner.farm,
        &inner.store,
        &proxies,
        machine,
        &op,
        None,
        Some(pool),
    );
    assert!(err.is_err(), "unplaced addresses must surface an error");
    // The pool joined every morsel before surfacing the error: the machine
    // still executes queries (no wedged workers, no deadlock).
    assert_eq!(match_count(&g), g.expected_match);
}

/// A hand-built op may name a vertex twice. Round one gives each distinct
/// address one slot (the repeat is served by the scalar fallback), and the
/// op answers as if each occurrence had been read on its own.
#[test]
fn duplicate_addresses_share_a_prefetch_slot_and_keep_their_answers() {
    let g = skewed_cluster(16);
    let inner = g.cluster.inner();
    let machine = MachineId(1);
    let proxies = inner.proxies_at(machine, TENANT, HUB_SKEW_GRAPH).unwrap();
    let query = a1::core::query::parse_query(&HubSkewGraph::match_query()).unwrap();
    let mut tx = inner.farm.begin_read_only(machine);
    let snapshot_ts = tx.read_ts();
    let (compiled, root) = exec::compile(&inner.store, &mut tx, &proxies, &query).unwrap();
    let exists = CompiledStep {
        type_filter: None,
        id_filter: None,
        preds: vec![],
        matches: vec![],
        traverse: None,
    };
    let run = |vertices: Vec<Addr>, step: &CompiledStep| {
        let op = WorkOp {
            tenant: TENANT.into(),
            graph: HUB_SKEW_GRAPH.into(),
            snapshot_ts,
            vertices,
            step: step.clone(),
            emit_rows: false,
            select: Select::Count,
            cache_bypass: true,
        };
        let before = inner.farm.fabric().metrics().snapshot();
        let result = exec::run_work_op(
            &inner.farm,
            &inner.store,
            &proxies,
            machine,
            &op,
            None,
            None,
        )
        .unwrap();
        let posted = inner
            .farm
            .fabric()
            .metrics()
            .snapshot()
            .delta_since(&before);
        (result, posted)
    };
    // The query's first hop, for sixteen real addresses.
    let srcs = run(root, &compiled.steps[0]).0.next;
    assert_eq!(srcs.len(), 16);
    let (once, once_posted) = run(srcs.clone(), &exists);
    assert_eq!(once.next, srcs);
    assert_eq!(once_posted.reads_batched, 16);

    let doubled: Vec<Addr> = srcs.iter().flat_map(|&a| [a, a]).collect();
    let (twice, twice_posted) = run(doubled.clone(), &exists);
    assert_eq!(twice.next, doubled, "each occurrence answers for itself");
    assert_eq!(
        twice_posted.reads_batched, 16,
        "one slot per distinct address"
    );
    assert_eq!(
        twice.metrics.fetch_verbs,
        once.metrics.fetch_verbs + 16,
        "each repeat is one scalar read"
    );
}

#[test]
fn panic_in_morsel_job_propagates_and_pool_serves_queries() {
    use a1::farm::ScopedJob;
    let g = skewed_cluster(16);
    let pool = g
        .cluster
        .farm()
        .fabric()
        .machine(MachineId(0))
        .unwrap()
        .pool();
    // A morsel-shaped scoped batch where one job panics: the panic must
    // resurface on the caller only after every sibling joined, and the
    // machine's pool — shared with real query execution — must survive.
    let jobs: Vec<ScopedJob<u64>> = (0..8)
        .map(|i| {
            Box::new(move || {
                if i == 5 {
                    panic!("morsel {i} failed");
                }
                i as u64
            }) as ScopedJob<u64>
        })
        .collect();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run_all(jobs)));
    assert!(caught.is_err(), "panic must propagate to the dispatcher");
    assert_eq!(
        match_count(&g),
        g.expected_match,
        "pool still serves queries"
    );
}

#[test]
fn morsel_snapshot_stable_under_concurrent_ingest() {
    let srcs = 16usize;
    let g = skewed_cluster(srcs);
    let cluster = &g.cluster;
    let expected = g.expected_match;

    // Ingest writers churn the *queried* vertices: every round rewrites the
    // match targets (same rank, new payload — the answer is invariant) and
    // inserts unrelated vertices, so morsel snapshot reads race live
    // version-chain updates on the very objects they evaluate.
    let stop = Arc::new(AtomicBool::new(false));
    let writes = Arc::new(AtomicU64::new(0));
    let mut writers = Vec::new();
    for w in 0..2u64 {
        let client = cluster.client();
        let stop = stop.clone();
        let writes = writes.clone();
        writers.push(std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                round += 1;
                for i in (w as usize..srcs).step_by(2) {
                    let muts = vec![
                        Mutation::UpsertVertex {
                            tenant: TENANT.into(),
                            graph: HUB_SKEW_GRAPH.into(),
                            ty: "entity".into(),
                            attrs: a1::core::Json::obj(vec![
                                ("id", a1::core::Json::Str(format!("tgt{i:05}"))),
                                ("rank", a1::core::Json::Num(1.0)),
                                ("payload", a1::core::Json::Str(format!("w{w}r{round}"))),
                            ]),
                        },
                        Mutation::UpsertVertex {
                            tenant: TENANT.into(),
                            graph: HUB_SKEW_GRAPH.into(),
                            ty: "entity".into(),
                            attrs: a1::core::Json::obj(vec![(
                                "id",
                                a1::core::Json::Str(format!("noise.w{w}.{round}.{i}")),
                            )]),
                        },
                    ];
                    if client.apply_batch(&muts).is_ok() {
                        writes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }

    // Readers: every morsel-parallel query must see a consistent snapshot —
    // the count never wavers while targets are rewritten under it.
    let mut readers = Vec::new();
    for _ in 0..4 {
        let client = cluster.client();
        readers.push(std::thread::spawn(move || {
            for _ in 0..12 {
                let out = client
                    .query(TENANT, HUB_SKEW_GRAPH, &HubSkewGraph::match_query())
                    .unwrap();
                assert_eq!(
                    out.count.unwrap(),
                    expected,
                    "snapshot read saw a torn frontier"
                );
            }
        }));
    }
    for r in readers {
        r.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    assert!(
        writes.load(Ordering::Relaxed) > 0,
        "writers never committed — the race was not exercised"
    );
    // Quiesced: the answer is still the reference.
    assert_eq!(match_count(&g), expected);
}
