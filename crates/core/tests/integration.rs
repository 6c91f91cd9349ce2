//! End-to-end tests: full A1 stack (client → frontend → coordinator →
//! workers) on a small film knowledge graph, exercising the paper's query
//! shapes (Table 2) and the async deletion workflow (§3.3).

use a1_core::{A1Client, A1Cluster, A1Config, Json};

const TENANT: &str = "bing";
const GRAPH: &str = "kg";

const ENTITY_SCHEMA: &str = r#"{
    "name": "entity",
    "fields": [
        {"id": 0, "name": "id", "type": "string", "required": true},
        {"id": 1, "name": "name", "type": "list<string>"},
        {"id": 2, "name": "str_str_map", "type": "map<string,string>"},
        {"id": 3, "name": "rank", "type": "int64"}
    ]
}"#;

fn edge_schema(name: &str) -> String {
    format!(r#"{{"name": "{name}", "fields": []}}"#)
}

/// Build the §5/§6 mini knowledge graph: directors, films, actors, genres,
/// performances.
fn film_cluster() -> (A1Cluster, A1Client) {
    let cluster = A1Cluster::start(A1Config::small(4)).unwrap();
    let client = cluster.client();
    client.create_tenant(TENANT).unwrap();
    client.create_graph(TENANT, GRAPH).unwrap();
    client
        .create_vertex_type(TENANT, GRAPH, ENTITY_SCHEMA, "id", &["rank"])
        .unwrap();
    for et in [
        "director.film",
        "film.actor",
        "actor.film",
        "film.genre",
        "character.film",
        "film.performance",
        "performance.actor",
    ] {
        client
            .create_edge_type(TENANT, GRAPH, &edge_schema(et))
            .unwrap();
    }

    let v = |id: &str, name: &str| format!(r#"{{"id": "{id}", "name": ["{name}"]}}"#);
    // Entities.
    for (id, name) in [
        ("steven.spielberg", "Steven Spielberg"),
        ("tom.hanks", "Tom Hanks"),
        ("meg.ryan", "Meg Ryan"),
        ("michael.keaton", "Michael Keaton"),
        ("christian.bale", "Christian Bale"),
        ("film.saving.private.ryan", "Saving Private Ryan"),
        ("film.the.post", "The Post"),
        ("film.batman.1989", "Batman"),
        ("film.the.dark.knight", "The Dark Knight"),
        ("character.batman", "Batman"),
        ("genre.war", "War"),
        ("genre.action", "Action"),
    ] {
        client
            .create_vertex(TENANT, GRAPH, "entity", &v(id, name))
            .unwrap();
    }
    // Performances carry the character name in str_str_map (Q2's predicate).
    client
        .create_vertex(
            TENANT,
            GRAPH,
            "entity",
            r#"{"id": "perf.keaton.batman89", "str_str_map": {"character": "Batman"}}"#,
        )
        .unwrap();
    client
        .create_vertex(
            TENANT,
            GRAPH,
            "entity",
            r#"{"id": "perf.bale.tdk", "str_str_map": {"character": "Batman"}}"#,
        )
        .unwrap();
    client
        .create_vertex(
            TENANT,
            GRAPH,
            "entity",
            r#"{"id": "perf.hanks.spr", "str_str_map": {"character": "Capt. Miller"}}"#,
        )
        .unwrap();

    let e = |src: &str, et: &str, dst: &str| {
        client
            .create_edge(
                TENANT,
                GRAPH,
                "entity",
                &Json::str(src),
                et,
                "entity",
                &Json::str(dst),
                None,
            )
            .unwrap();
    };
    // Spielberg directed two films with Tom Hanks.
    e(
        "steven.spielberg",
        "director.film",
        "film.saving.private.ryan",
    );
    e("steven.spielberg", "director.film", "film.the.post");
    e("film.saving.private.ryan", "film.actor", "tom.hanks");
    e("film.the.post", "film.actor", "tom.hanks");
    e("film.the.post", "film.actor", "meg.ryan");
    e("film.saving.private.ryan", "film.genre", "genre.war");
    e("film.the.post", "film.genre", "genre.war");
    // Batman films, characters, performances.
    e("character.batman", "character.film", "film.batman.1989");
    e("character.batman", "character.film", "film.the.dark.knight");
    e(
        "film.batman.1989",
        "film.performance",
        "perf.keaton.batman89",
    );
    e("film.the.dark.knight", "film.performance", "perf.bale.tdk");
    e(
        "film.saving.private.ryan",
        "film.performance",
        "perf.hanks.spr",
    );
    e(
        "perf.keaton.batman89",
        "performance.actor",
        "michael.keaton",
    );
    e("perf.bale.tdk", "performance.actor", "christian.bale");
    e("film.batman.1989", "film.genre", "genre.action");
    e("film.the.dark.knight", "film.genre", "genre.action");
    // actor.film back-edges (for Q4-style traversals).
    e("tom.hanks", "actor.film", "film.saving.private.ryan");
    e("tom.hanks", "actor.film", "film.the.post");
    e("meg.ryan", "actor.film", "film.the.post");

    (cluster, client)
}

#[test]
fn q1_two_hop_count() {
    let (_cluster, client) = film_cluster();
    // Table 2 Q1: actors who worked with Spielberg.
    let out = client
        .query(
            TENANT,
            GRAPH,
            r#"{ "id" : "steven.spielberg",
                "_out_edge" : { "_type" : "director.film",
                "_vertex" : {
                "_out_edge" : { "_type" : "film.actor",
                "_vertex" : {
                "_select" : ["_count(*)"] }}}}}"#,
        )
        .unwrap();
    // Tom Hanks + Meg Ryan, deduplicated (Hanks appears via two films).
    assert_eq!(out.count, Some(2));
    assert_eq!(out.metrics.hops, 2);
    assert!(out.metrics.vertices_read >= 5);
    assert!(out.metrics.edges_visited >= 4);
}

#[test]
fn q1_rows_with_select_star() {
    let (_cluster, client) = film_cluster();
    let out = client
        .query(
            TENANT,
            GRAPH,
            r#"{ "id" : "steven.spielberg",
                "_out_edge" : { "_type" : "director.film",
                "_vertex" : {
                "_out_edge" : { "_type" : "film.actor",
                "_vertex" : { "_select" : ["*"] }}}}}"#,
        )
        .unwrap();
    assert_eq!(out.rows.len(), 2);
    let ids: Vec<&str> = out
        .rows
        .iter()
        .filter_map(|r| r.get("id").and_then(Json::as_str))
        .collect();
    assert!(ids.contains(&"tom.hanks"));
    assert!(ids.contains(&"meg.ryan"));
    assert!(out.rows[0].get("_type").is_some());
}

#[test]
fn q2_three_hop_with_map_predicate() {
    let (_cluster, client) = film_cluster();
    // Table 2 Q2: actors who have played Batman.
    let out = client
        .query(
            TENANT,
            GRAPH,
            r#"{ "id" : "character.batman",
                "_out_edge" : { "_type" : "character.film",
                "_vertex" : {
                "_out_edge" : { "_type" : "film.performance",
                "_vertex" : {
                "str_str_map[character]" : "Batman",
                "_out_edge" : { "_type" : "performance.actor",
                "_vertex" : {
                "_select" : ["_count(*)"] }}}}}}}"#,
        )
        .unwrap();
    assert_eq!(out.count, Some(2), "Keaton and Bale played Batman");
}

#[test]
fn q3_star_match_pattern() {
    let (_cluster, client) = film_cluster();
    // Table 2 Q3: war films directed by Spielberg starring Tom Hanks.
    let out = client
        .query(
            TENANT,
            GRAPH,
            r#"{ "id" : "steven.spielberg",
                "_out_edge" : { "_type" : "director.film",
                "_vertex" : { "_type" : "entity",
                "_select" : ["name[0]"],
                "_match" : [{
                "_out_edge" : { "_type" : "film.actor",
                "_vertex" : { "id" : "tom.hanks" }}},
                { "_out_edge" : { "_type" : "film.genre",
                "_vertex" : { "id" : "genre.war" }}}] }}}"#,
        )
        .unwrap();
    assert_eq!(out.rows.len(), 2, "both Spielberg films are War + Hanks");
    let names: Vec<&str> = out
        .rows
        .iter()
        .filter_map(|r| r.get("name[0]").and_then(Json::as_str))
        .collect();
    assert!(names.contains(&"Saving Private Ryan"));
    assert!(names.contains(&"The Post"));

    // Narrow the match: genre.action excludes both films.
    let out = client
        .query(
            TENANT,
            GRAPH,
            r#"{ "id" : "steven.spielberg",
                "_out_edge" : { "_type" : "director.film",
                "_vertex" : {
                "_match" : [{ "_out_edge" : { "_type" : "film.genre",
                "_vertex" : { "id" : "genre.action" }}}],
                "_select" : ["_count(*)"] }}}"#,
        )
        .unwrap();
    assert_eq!(out.count, Some(0));
}

#[test]
fn q4_three_hop_fanout() {
    let (_cluster, client) = film_cluster();
    // Q4 shape: films of actors who worked with Tom Hanks.
    let out = client
        .query(
            TENANT,
            GRAPH,
            r#"{ "id" : "tom.hanks",
                "_out_edge" : { "_type" : "actor.film",
                "_vertex" : {
                "_out_edge" : { "_type" : "film.actor",
                "_vertex" : {
                "_out_edge" : { "_type" : "actor.film",
                "_vertex" : {
                "_select" : ["_count(*)"] }}}}}}}"#,
        )
        .unwrap();
    // Co-stars of Hanks: hanks + meg.ryan → their films: SPR + The Post.
    assert_eq!(out.count, Some(2));
}

#[test]
fn empty_start_and_missing_vertex() {
    let (_cluster, client) = film_cluster();
    let out = client
        .query(
            TENANT,
            GRAPH,
            r#"{ "id": "nobody", "_out_edge": { "_type": "director.film",
                 "_vertex": {"_select": ["_count(*)"]}}}"#,
        )
        .unwrap();
    assert_eq!(out.count, Some(0));
    assert!(client
        .get_vertex(TENANT, GRAPH, "entity", &Json::str("nobody"))
        .unwrap()
        .is_none());
}

#[test]
fn vertex_crud_roundtrip() {
    let (_cluster, client) = film_cluster();
    let got = client
        .get_vertex(TENANT, GRAPH, "entity", &Json::str("tom.hanks"))
        .unwrap()
        .unwrap();
    assert_eq!(got.get("id").unwrap().as_str(), Some("tom.hanks"));
    assert_eq!(
        got.get("name").unwrap().at(0).unwrap().as_str(),
        Some("Tom Hanks")
    );

    // Update.
    client
        .update_vertex(
            TENANT,
            GRAPH,
            "entity",
            r#"{"id": "tom.hanks", "name": ["Thomas Hanks"], "rank": 1}"#,
        )
        .unwrap();
    let got = client
        .get_vertex(TENANT, GRAPH, "entity", &Json::str("tom.hanks"))
        .unwrap()
        .unwrap();
    assert_eq!(
        got.get("name").unwrap().at(0).unwrap().as_str(),
        Some("Thomas Hanks")
    );
    assert_eq!(got.get("rank").unwrap().as_i64(), Some(1));

    // Duplicate create rejected.
    assert!(client
        .create_vertex(TENANT, GRAPH, "entity", r#"{"id": "tom.hanks"}"#)
        .is_err());

    // Delete removes vertex and its edges (no dangling half-edges).
    client
        .delete_vertex(TENANT, GRAPH, "entity", &Json::str("meg.ryan"))
        .unwrap();
    assert!(client
        .get_vertex(TENANT, GRAPH, "entity", &Json::str("meg.ryan"))
        .unwrap()
        .is_none());
    let out = client
        .query(
            TENANT,
            GRAPH,
            r#"{ "id" : "film.the.post",
                "_out_edge" : { "_type" : "film.actor",
                "_vertex" : { "_select" : ["_count(*)"] }}}"#,
        )
        .unwrap();
    assert_eq!(out.count, Some(1), "only Hanks remains on The Post");
}

#[test]
fn transactional_multi_op_atomicity() {
    let (_cluster, client) = film_cluster();
    // Group vertex + edge creation; paper's partial-edge anomaly is
    // impossible because both half-edges commit atomically.
    let mut txn = client.transaction();
    txn.create_vertex(
        TENANT,
        GRAPH,
        "entity",
        &Json::parse(r#"{"id": "film.bridge.of.spies", "name": ["Bridge of Spies"]}"#).unwrap(),
    )
    .unwrap();
    txn.create_edge(
        TENANT,
        GRAPH,
        "entity",
        &Json::str("steven.spielberg"),
        "director.film",
        "entity",
        &Json::str("film.bridge.of.spies"),
        None,
    )
    .unwrap();
    // Read-your-writes inside the transaction.
    assert!(txn
        .get_vertex(TENANT, GRAPH, "entity", &Json::str("film.bridge.of.spies"))
        .unwrap()
        .is_some());
    txn.commit_with_retry().unwrap();

    let out = client
        .query(
            TENANT,
            GRAPH,
            r#"{ "id" : "steven.spielberg",
                "_out_edge" : { "_type" : "director.film",
                "_vertex" : { "_select" : ["_count(*)"] }}}"#,
        )
        .unwrap();
    assert_eq!(out.count, Some(3));

    // Aborted transactions leave no trace.
    let mut txn = client.transaction();
    txn.create_vertex(
        TENANT,
        GRAPH,
        "entity",
        &Json::parse(r#"{"id": "ghost"}"#).unwrap(),
    )
    .unwrap();
    txn.abort();
    assert!(client
        .get_vertex(TENANT, GRAPH, "entity", &Json::str("ghost"))
        .unwrap()
        .is_none());
}

#[test]
fn duplicate_edge_rejected() {
    let (_cluster, client) = film_cluster();
    // §3: "given two vertexes, there can only be a single edge of a given
    // type".
    let r = client.create_edge(
        TENANT,
        GRAPH,
        "entity",
        &Json::str("steven.spielberg"),
        "director.film",
        "entity",
        &Json::str("film.the.post"),
        None,
    );
    assert!(r.is_err());
    // A different type between the same endpoints is fine.
    client
        .create_edge(
            TENANT,
            GRAPH,
            "entity",
            &Json::str("steven.spielberg"),
            "film.actor",
            "entity",
            &Json::str("film.the.post"),
            None,
        )
        .unwrap();
}

#[test]
fn secondary_index_start() {
    let (_cluster, client) = film_cluster();
    client
        .update_vertex(TENANT, GRAPH, "entity", r#"{"id": "tom.hanks", "rank": 7}"#)
        .unwrap();
    client
        .update_vertex(TENANT, GRAPH, "entity", r#"{"id": "meg.ryan", "rank": 7}"#)
        .unwrap();
    let out = client
        .query(
            TENANT,
            GRAPH,
            r#"{ "_type": "entity", "rank": 7, "_select": ["id"] }"#,
        )
        .unwrap();
    assert_eq!(out.rows.len(), 2);
}

#[test]
fn secondary_index_start_pushes_limit_into_the_scan() {
    // Many vertices share one indexed value; a single filtered step with
    // `_limit` must stop the index scan at the limit instead of
    // materializing the whole posting list.
    let cluster = A1Cluster::start(A1Config::small(3)).unwrap();
    let client = cluster.client();
    client.create_tenant(TENANT).unwrap();
    client.create_graph(TENANT, GRAPH).unwrap();
    client
        .create_vertex_type(TENANT, GRAPH, ENTITY_SCHEMA, "id", &["rank"])
        .unwrap();
    for i in 0..30 {
        client
            .create_vertex(
                TENANT,
                GRAPH,
                "entity",
                &format!(r#"{{"id": "e{i:03}", "rank": 9}}"#),
            )
            .unwrap();
    }
    let limited = client
        .query(
            TENANT,
            GRAPH,
            r#"{ "_type": "entity", "rank": 9, "_limit": 5, "_select": ["id"] }"#,
        )
        .unwrap();
    assert_eq!(limited.rows.len(), 5);
    assert!(
        limited.metrics.vertices_read <= 5,
        "LIMIT 5 index start read {} vertices; the scan should stop at the limit",
        limited.metrics.vertices_read
    );
    // Counts are not limited, so their scan must stay exhaustive.
    let counted = client
        .query(
            TENANT,
            GRAPH,
            r#"{ "_type": "entity", "rank": 9, "_limit": 5, "_select": ["_count(*)"] }"#,
        )
        .unwrap();
    assert_eq!(counted.count, Some(30));
}

#[test]
fn query_shipping_locality() {
    // §6: operator shipping turns most reads into local reads (≥95% at
    // paper scale). Build a hub with a wide fan-out so per-machine batches
    // exceed the ship threshold, then compare shipped vs unshipped execution.
    let build = |ship_threshold: usize| {
        let cluster = A1Cluster::start(A1Config {
            exec: a1_core::query::exec::ExecConfig {
                ship_threshold,
                ..Default::default()
            },
            ..A1Config::small(4)
        })
        .unwrap();
        let client = cluster.client();
        client.create_tenant(TENANT).unwrap();
        client.create_graph(TENANT, GRAPH).unwrap();
        client
            .create_vertex_type(TENANT, GRAPH, ENTITY_SCHEMA, "id", &[])
            .unwrap();
        client
            .create_edge_type(TENANT, GRAPH, &edge_schema("has"))
            .unwrap();
        client
            .create_vertex(TENANT, GRAPH, "entity", r#"{"id": "hub"}"#)
            .unwrap();
        for i in 0..64 {
            client
                .create_vertex(
                    TENANT,
                    GRAPH,
                    "entity",
                    &format!(r#"{{"id": "leaf{i:02}"}}"#),
                )
                .unwrap();
            client
                .create_edge(
                    TENANT,
                    GRAPH,
                    "entity",
                    &Json::str("hub"),
                    "has",
                    "entity",
                    &Json::str(&format!("leaf{i:02}")),
                    None,
                )
                .unwrap();
        }
        (cluster, client)
    };
    let q = r#"{ "id": "hub", "_out_edge": { "_type": "has",
                 "_vertex": { "_select": ["_count(*)"] }}}"#;

    let (_c1, shipped_client) = build(2);
    let shipped = shipped_client.query(TENANT, GRAPH, q).unwrap();
    assert_eq!(shipped.count, Some(64));
    assert!(shipped.metrics.rpcs > 0, "batches were shipped");

    let (_c2, unshipped_client) = build(usize::MAX);
    let unshipped = unshipped_client.query(TENANT, GRAPH, q).unwrap();
    assert_eq!(unshipped.count, Some(64));
    assert_eq!(unshipped.metrics.rpcs, 0);

    // Shipping must improve locality substantially.
    assert!(
        shipped.metrics.local_read_fraction() >= 0.85,
        "shipped locality {} too low",
        shipped.metrics.local_read_fraction()
    );
    assert!(
        shipped.metrics.local_read_fraction() > unshipped.metrics.local_read_fraction() + 0.3,
        "shipping should beat coordinator-only execution: {} vs {}",
        shipped.metrics.local_read_fraction(),
        unshipped.metrics.local_read_fraction()
    );
}

#[test]
fn continuation_token_paging() {
    let cluster = A1Cluster::start(A1Config {
        exec: a1_core::query::exec::ExecConfig {
            page_size: 10,
            ..Default::default()
        },
        ..A1Config::small(3)
    })
    .unwrap();
    let client = cluster.client();
    client.create_tenant(TENANT).unwrap();
    client.create_graph(TENANT, GRAPH).unwrap();
    client
        .create_vertex_type(TENANT, GRAPH, ENTITY_SCHEMA, "id", &[])
        .unwrap();
    client
        .create_edge_type(TENANT, GRAPH, &edge_schema("has"))
        .unwrap();
    client
        .create_vertex(TENANT, GRAPH, "entity", r#"{"id": "hub"}"#)
        .unwrap();
    for i in 0..25 {
        client
            .create_vertex(
                TENANT,
                GRAPH,
                "entity",
                &format!(r#"{{"id": "leaf{i:02}"}}"#),
            )
            .unwrap();
        client
            .create_edge(
                TENANT,
                GRAPH,
                "entity",
                &Json::str("hub"),
                "has",
                "entity",
                &Json::str(&format!("leaf{i:02}")),
                None,
            )
            .unwrap();
    }
    let out = client
        .query(
            TENANT,
            GRAPH,
            r#"{ "id": "hub", "_out_edge": { "_type": "has",
                 "_vertex": { "_select": ["id"] }}}"#,
        )
        .unwrap();
    assert_eq!(out.rows.len(), 10);
    let tok1 = out.continuation.clone().expect("paged");
    let page2 = client.query_next(&tok1).unwrap();
    assert_eq!(page2.rows.len(), 10);
    let tok2 = page2.continuation.clone().expect("one more page");
    let page3 = client.query_next(&tok2).unwrap();
    assert_eq!(page3.rows.len(), 5);
    assert!(page3.continuation.is_none());
    // Tokens are single-use.
    assert!(client.query_next(&tok1).is_err());
    // All 25 distinct ids across pages.
    let mut ids: Vec<String> = out
        .rows
        .iter()
        .chain(page2.rows.iter())
        .chain(page3.rows.iter())
        .filter_map(|r| r.get("id").and_then(Json::as_str).map(String::from))
        .collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 25);
}

#[test]
fn async_delete_graph_workflow() {
    let (cluster, client) = film_cluster();
    client.delete_graph(TENANT, GRAPH).unwrap();
    // The graph flips to Deleting immediately; storage is reclaimed async.
    let meta = client.graph_meta(TENANT, GRAPH).unwrap().unwrap();
    assert_eq!(meta.state, a1_core::LifecycleState::Deleting);
    // Mutations are rejected while deleting.
    assert!(client
        .create_vertex(TENANT, GRAPH, "entity", r#"{"id": "late"}"#)
        .is_err());

    // Drive the task workers to completion (§3.3).
    let mut rounds = 0;
    while cluster.run_pending_tasks(64).unwrap() > 0 {
        rounds += 1;
        assert!(rounds < 100, "delete workflow did not converge");
    }
    assert!(client.graph_meta(TENANT, GRAPH).unwrap().is_none());
    assert!(client.list_types(TENANT, GRAPH).unwrap().is_empty());
}

#[test]
fn working_set_fast_fail() {
    let cluster = A1Cluster::start(A1Config {
        exec: a1_core::query::exec::ExecConfig {
            max_working_set: 5,
            ..Default::default()
        },
        ..A1Config::small(2)
    })
    .unwrap();
    let client = cluster.client();
    client.create_tenant(TENANT).unwrap();
    client.create_graph(TENANT, GRAPH).unwrap();
    client
        .create_vertex_type(TENANT, GRAPH, ENTITY_SCHEMA, "id", &[])
        .unwrap();
    client
        .create_edge_type(TENANT, GRAPH, &edge_schema("has"))
        .unwrap();
    client
        .create_vertex(TENANT, GRAPH, "entity", r#"{"id": "hub"}"#)
        .unwrap();
    for i in 0..10 {
        client
            .create_vertex(TENANT, GRAPH, "entity", &format!(r#"{{"id": "leaf{i}"}}"#))
            .unwrap();
        client
            .create_edge(
                TENANT,
                GRAPH,
                "entity",
                &Json::str("hub"),
                "has",
                "entity",
                &Json::str(&format!("leaf{i}")),
                None,
            )
            .unwrap();
    }
    let r = client.query(
        TENANT,
        GRAPH,
        r#"{ "id": "hub", "_out_edge": { "_type": "has",
             "_vertex": { "_select": ["_count(*)"] }}}"#,
    );
    assert!(r.is_err(), "working set of 10 exceeds the limit of 5");
}

/// A LIMIT query must terminate early: once the final hop has produced
/// enough rows, the coordinator stops dispatching work ops instead of
/// reading the entire frontier and truncating afterwards.
#[test]
fn limit_terminates_early() {
    let cluster = A1Cluster::start(A1Config::small(5)).unwrap();
    let client = cluster.client();
    client.create_tenant(TENANT).unwrap();
    client.create_graph(TENANT, GRAPH).unwrap();
    client
        .create_vertex_type(TENANT, GRAPH, ENTITY_SCHEMA, "id", &[])
        .unwrap();
    client
        .create_edge_type(TENANT, GRAPH, &edge_schema("has"))
        .unwrap();
    client
        .create_vertex(TENANT, GRAPH, "entity", r#"{"id": "hub"}"#)
        .unwrap();
    for i in 0..400 {
        client
            .create_vertex(
                TENANT,
                GRAPH,
                "entity",
                &format!(r#"{{"id": "leaf{i:04}"}}"#),
            )
            .unwrap();
        client
            .create_edge(
                TENANT,
                GRAPH,
                "entity",
                &Json::str("hub"),
                "has",
                "entity",
                &Json::str(&format!("leaf{i:04}")),
                None,
            )
            .unwrap();
    }
    let q = |limit: &str| {
        format!(
            r#"{{ "id": "hub", "_out_edge": {{ "_type": "has",
                 "_vertex": {{ "_select": ["id"]{limit} }}}}}}"#
        )
    };
    let full = client.query(TENANT, GRAPH, &q("")).unwrap();
    assert_eq!(full.rows.len(), 400);

    let limited = client.query(TENANT, GRAPH, &q(r#", "_limit": 1"#)).unwrap();
    assert_eq!(limited.rows.len(), 1);
    // The limited run reads the hub plus at most one wave of single-vertex
    // batches (one per machine) — far fewer than the 401 of the full scan.
    assert!(
        limited.metrics.vertices_read <= 12,
        "LIMIT 1 read {} vertices; early termination should read ~1 per machine",
        limited.metrics.vertices_read
    );
    // Both modes agree on the first row (deterministic merge order).
    assert_eq!(limited.rows[0], full.rows[0]);
}

/// §3.2: past the inline threshold (1,024 entries) a vertex's edge list
/// moves into the graph's global edge B-tree. Every edge operation has a
/// separate arm for that representation; this drives each one on a hub
/// whose out-list has spilled.
#[test]
fn edge_list_spills_to_the_global_btree_and_keeps_every_operation() {
    const DEGREE: usize = 1_100;
    let cluster = A1Cluster::start(A1Config::small(3)).unwrap();
    let client = cluster.client();
    client.create_tenant(TENANT).unwrap();
    client.create_graph(TENANT, GRAPH).unwrap();
    client
        .create_vertex_type(TENANT, GRAPH, ENTITY_SCHEMA, "id", &[])
        .unwrap();
    client
        .create_edge_type(TENANT, GRAPH, &edge_schema("has"))
        .unwrap();
    client
        .create_vertex(TENANT, GRAPH, "entity", r#"{"id": "hub"}"#)
        .unwrap();
    let leaf = |i: usize| Json::str(&format!("leaf{i:04}"));
    let link = |i: usize| {
        client.create_edge(
            TENANT,
            GRAPH,
            "entity",
            &Json::str("hub"),
            "has",
            "entity",
            &leaf(i),
            None,
        )
    };
    for i in 0..DEGREE {
        client
            .create_vertex(
                TENANT,
                GRAPH,
                "entity",
                &format!(r#"{{"id": "leaf{i:04}"}}"#),
            )
            .unwrap();
        link(i).unwrap();
    }
    let out_degree = || {
        client
            .query(
                TENANT,
                GRAPH,
                r#"{ "id": "hub", "_out_edge": { "_type": "has",
                     "_vertex": { "_select": ["_count(*)"] }}}"#,
            )
            .unwrap()
            .count
    };
    let hubs_of = |i: usize| {
        client
            .query(
                TENANT,
                GRAPH,
                &format!(
                    r#"{{ "id": "leaf{i:04}", "_in_edge": {{ "_type": "has",
                         "_vertex": {{ "_select": ["_count(*)"] }}}}}}"#
                ),
            )
            .unwrap()
            .count
    };

    // Enumeration scans the tree; a leaf linked after the spill (the list
    // moved at the 1,025th insert) still finds its way back.
    assert_eq!(out_degree(), Some(DEGREE as u64));
    assert_eq!(hubs_of(DEGREE - 1), Some(1));
    assert_eq!(hubs_of(0), Some(1));

    // Duplicate detection is a tree lookup now.
    assert!(matches!(
        link(DEGREE - 1),
        Err(a1_core::A1Error::EdgeExists(_))
    ));
    assert_eq!(out_degree(), Some(DEGREE as u64));

    // Removing one edge, then a leaf (which removes its mirrored half-edge
    // from the hub's tree-backed list).
    assert!(client
        .delete_edge(
            TENANT,
            GRAPH,
            "entity",
            &Json::str("hub"),
            "has",
            "entity",
            &leaf(7)
        )
        .unwrap());
    assert_eq!(out_degree(), Some(DEGREE as u64 - 1));
    assert_eq!(hubs_of(7), Some(0));
    client
        .delete_vertex(TENANT, GRAPH, "entity", &leaf(DEGREE - 1))
        .unwrap();
    assert_eq!(out_degree(), Some(DEGREE as u64 - 2));

    // Deleting the hub walks the tree to unlink every remaining leaf.
    client
        .delete_vertex(TENANT, GRAPH, "entity", &Json::str("hub"))
        .unwrap();
    assert_eq!(hubs_of(0), Some(0));
    assert_eq!(hubs_of(DEGREE - 2), Some(0));
}
