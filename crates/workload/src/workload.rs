//! Workload generators.
//!
//! The paper evaluates on a film/entertainment knowledge graph (§6): 3.7 B
//! vertices, heavy-tailed degrees (hubs beyond 10 M edges), ~220-byte
//! payloads. These generators produce the same *shape* at configurable
//! scale: the default spec gives "Spielberg" exactly 49 films whose casts
//! union to ~1639 distinct actors, matching the paper's reported Q1
//! footprint. A hub-skewed frontier ([`HubSkewGraph`]) exercises
//! intra-machine morsels.
//!
//! The generators keep the adjacency they load and answer the evaluation
//! queries from it ([`KgAnswers`], [`HubSkewGraph::expected_match`]), so
//! tests compare the cluster against an independent reference instead of
//! against another configuration of itself.

use a1_core::{A1Client, A1Cluster, A1Config, Json, MachineId, Mutation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

pub const TENANT: &str = "bing";
pub const GRAPH: &str = "kg";

/// The weakly-typed `entity` vertex schema of §5: every entity is one type;
/// attributes live in lists/maps.
pub const ENTITY_SCHEMA: &str = r#"{
    "name": "entity",
    "fields": [
        {"id": 0, "name": "id", "type": "string", "required": true},
        {"id": 1, "name": "name", "type": "list<string>"},
        {"id": 2, "name": "str_str_map", "type": "map<string,string>"},
        {"id": 3, "name": "rank", "type": "int64"},
        {"id": 4, "name": "payload", "type": "string"}
    ]
}"#;

pub const EDGE_TYPES: &[&str] = &[
    "director.film",
    "film.actor",
    "actor.film",
    "film.genre",
    "character.film",
    "film.performance",
    "performance.actor",
];

/// Knowledge-graph shape parameters.
#[derive(Debug, Clone)]
pub struct KnowledgeGraphSpec {
    /// Films by the "hub" director (paper Q1: 49).
    pub hub_films: usize,
    /// Actors credited per film (paper Q1 reads 1785 edges over 49 films).
    pub actors_per_film: usize,
    /// Total actor pool (overlap between casts creates the dedup the paper
    /// reports: 1785 edges → 1639 distinct actors).
    pub actor_pool: usize,
    /// Films per non-hub actor (drives Q4 fan-out).
    pub films_per_actor: usize,
    /// Batman-style character film count (Q2).
    pub character_films: usize,
    /// Average vertex payload bytes (paper: 220).
    pub payload_bytes: usize,
    pub seed: u64,
}

impl Default for KnowledgeGraphSpec {
    fn default() -> Self {
        KnowledgeGraphSpec {
            hub_films: 49,
            actors_per_film: 37,
            actor_pool: 1800,
            films_per_actor: 2,
            character_films: 8,
            payload_bytes: 220,
            seed: 0xA1,
        }
    }
}

impl KnowledgeGraphSpec {
    /// A small variant for quick tests.
    pub fn tiny() -> KnowledgeGraphSpec {
        KnowledgeGraphSpec {
            hub_films: 6,
            actors_per_film: 5,
            actor_pool: 20,
            films_per_actor: 1,
            character_films: 3,
            payload_bytes: 64,
            seed: 0xA1,
        }
    }
}

/// Typed out-neighbour sets of a generated graph, keyed by vertex id: the
/// reference the expected answers are computed from.
#[derive(Debug, Default)]
struct Adjacency {
    out: HashMap<(String, String), BTreeSet<String>>,
}

impl Adjacency {
    fn add(&mut self, src: &str, edge_type: &str, dst: &str) {
        self.out
            .entry((edge_type.to_string(), src.to_string()))
            .or_default()
            .insert(dst.to_string());
    }

    fn has(&self, src: &str, edge_type: &str, dst: &str) -> bool {
        self.out
            .get(&(edge_type.to_string(), src.to_string()))
            .is_some_and(|dsts| dsts.contains(dst))
    }

    /// One traversal hop: the distinct out-neighbours of a frontier.
    fn hop(&self, edge_type: &str, frontier: &BTreeSet<String>) -> BTreeSet<String> {
        frontier
            .iter()
            .filter_map(|v| self.out.get(&(edge_type.to_string(), v.clone())))
            .flatten()
            .cloned()
            .collect()
    }
}

/// What Table 2's four queries must answer on a generated knowledge graph,
/// computed from the generator's own adjacency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KgAnswers {
    pub q1: u64,
    pub q2: u64,
    /// Q3's projected `name[0]` values, ascending.
    pub q3: Vec<String>,
    pub q4: u64,
}

/// A loaded knowledge graph plus the ids the evaluation queries start from.
pub struct KnowledgeGraph {
    pub cluster: A1Cluster,
    pub client: A1Client,
    pub spec: KnowledgeGraphSpec,
    pub director_id: String,
    pub character_id: String,
    pub hub_actor_id: String,
    /// Reference answers to [`KnowledgeGraph::q1`]..[`KnowledgeGraph::q4`].
    pub answers: KgAnswers,
}

impl KnowledgeGraph {
    /// Build the schema and load the synthetic knowledge graph.
    pub fn load(cfg: A1Config, spec: KnowledgeGraphSpec) -> KnowledgeGraph {
        let cluster = A1Cluster::start(cfg).expect("cluster");
        let client = cluster.client();
        client.create_tenant(TENANT).unwrap();
        client.create_graph(TENANT, GRAPH).unwrap();
        client
            .create_vertex_type(TENANT, GRAPH, ENTITY_SCHEMA, "id", &["rank"])
            .unwrap();
        for et in EDGE_TYPES {
            client
                .create_edge_type(
                    TENANT,
                    GRAPH,
                    &format!(r#"{{"name": "{et}", "fields": []}}"#),
                )
                .unwrap();
        }

        let mut rng = StdRng::seed_from_u64(spec.seed);
        let payload: String = (0..spec.payload_bytes)
            .map(|i| ((i % 26) as u8 + b'a') as char)
            .collect();
        let mut names: HashMap<String, String> = HashMap::new();
        let mut adj = Adjacency::default();
        let mut batman_roles: BTreeSet<String> = BTreeSet::new();
        let mut mk_vertex = |client: &A1Client, id: &str, name: &str, extra: &str| {
            names.insert(id.to_string(), name.to_string());
            client
                .create_vertex(
                    TENANT,
                    GRAPH,
                    "entity",
                    &format!(
                        r#"{{"id": "{id}", "name": ["{name}"], "payload": "{payload}"{extra}}}"#
                    ),
                )
                .unwrap();
        };
        let mut mk_edge = |client: &A1Client, src: &str, et: &str, dst: &str| {
            adj.add(src, et, dst);
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

        // The hub director and their films (Q1's first hop).
        let director_id = "steven.spielberg".to_string();
        mk_vertex(&client, &director_id, "Steven Spielberg", "");
        // Actor pool.
        for a in 0..spec.actor_pool {
            mk_vertex(&client, &format!("actor{a:05}"), &format!("Actor {a}"), "");
        }
        // Genres.
        for g in ["war", "action", "comedy", "drama"] {
            mk_vertex(&client, &format!("genre.{g}"), g, "");
        }
        // The hub actor (Q4 start) is actor00000.
        let hub_actor_id = "actor00000".to_string();

        for f in 0..spec.hub_films {
            let fid = format!("film{f:04}");
            mk_vertex(&client, &fid, &format!("Film {f}"), "");
            mk_edge(&client, &director_id, "director.film", &fid);
            let genre = if f % 2 == 0 {
                "genre.war"
            } else {
                "genre.drama"
            };
            mk_edge(&client, &fid, "film.genre", genre);
            // Cast: random actors from the pool; the hub actor is in every
            // other film (Q3's match pattern needs director+actor overlap).
            let mut cast = std::collections::HashSet::new();
            if f % 2 == 0 {
                cast.insert(0usize);
            }
            while cast.len() < spec.actors_per_film {
                cast.insert(rng.gen_range(0..spec.actor_pool));
            }
            for a in cast {
                let aid = format!("actor{a:05}");
                mk_edge(&client, &fid, "film.actor", &aid);
                mk_edge(&client, &aid, "actor.film", &fid);
            }
        }
        // Additional films so every actor has `films_per_actor` credits.
        let mut extra_film = 0usize;
        for a in 0..spec.actor_pool {
            for _ in 0..spec.films_per_actor.saturating_sub(1) {
                let fid = format!("xfilm{extra_film:05}");
                extra_film += 1;
                mk_vertex(&client, &fid, &format!("Extra {extra_film}"), "");
                let aid = format!("actor{a:05}");
                mk_edge(&client, &fid, "film.actor", &aid);
                mk_edge(&client, &aid, "actor.film", &fid);
            }
        }

        // The Batman-style subgraph (Q2): character → films → performances →
        // actors, with the character name in a str_str_map.
        let character_id = "character.batman".to_string();
        mk_vertex(&client, &character_id, "Batman", "");
        for f in 0..spec.character_films {
            let fid = format!("batfilm{f:02}");
            mk_vertex(&client, &fid, &format!("Batman Film {f}"), "");
            mk_edge(&client, &character_id, "character.film", &fid);
            mk_edge(&client, &fid, "film.genre", "genre.action");
            // Two performances per film; only one is the Batman role.
            for (p, character) in [("hero", "Batman"), ("villain", "Joker")] {
                let pid = format!("perf.{fid}.{p}");
                client
                    .create_vertex(
                        TENANT,
                        GRAPH,
                        "entity",
                        &format!(
                            r#"{{"id": "{pid}", "str_str_map": {{"character": "{character}"}}}}"#
                        ),
                    )
                    .unwrap();
                if character == "Batman" {
                    batman_roles.insert(pid.clone());
                }
                mk_edge(&client, &fid, "film.performance", &pid);
                let actor = format!("actor{:05}", rng.gen_range(0..spec.actor_pool));
                mk_edge(&client, &pid, "performance.actor", &actor);
            }
        }

        let start = |id: &str| BTreeSet::from([id.to_string()]);
        let films = adj.hop("director.film", &start(&director_id));
        let roles = adj.hop(
            "film.performance",
            &adj.hop("character.film", &start(&character_id)),
        );
        let mut q3: Vec<String> = films
            .iter()
            .filter(|f| {
                adj.has(f, "film.actor", &hub_actor_id) && adj.has(f, "film.genre", "genre.war")
            })
            .map(|f| names[f].clone())
            .collect();
        q3.sort();
        let co_stars = adj.hop("film.actor", &adj.hop("actor.film", &start(&hub_actor_id)));
        let answers = KgAnswers {
            q1: adj.hop("film.actor", &films).len() as u64,
            q2: adj
                .hop("performance.actor", &(&roles & &batman_roles))
                .len() as u64,
            q3,
            q4: adj.hop("actor.film", &co_stars).len() as u64,
        };

        KnowledgeGraph {
            cluster,
            client,
            spec,
            director_id,
            character_id,
            hub_actor_id,
            answers,
        }
    }

    /// Paper Table 2 Q1.
    pub fn q1(&self) -> String {
        format!(
            r#"{{ "id" : "{}",
                "_out_edge" : {{ "_type" : "director.film",
                "_vertex" : {{
                "_out_edge" : {{ "_type" : "film.actor",
                "_vertex" : {{
                "_select" : ["_count(*)"] }}}}}}}}}}"#,
            self.director_id
        )
    }

    /// Paper Table 2 Q2.
    pub fn q2(&self) -> String {
        format!(
            r#"{{ "id" : "{}",
                "_out_edge" : {{ "_type" : "character.film",
                "_vertex" : {{
                "_out_edge" : {{ "_type" : "film.performance",
                "_vertex" : {{
                "str_str_map[character]" : "Batman",
                "_out_edge" : {{ "_type" : "performance.actor",
                "_vertex" : {{
                "_select" : ["_count(*)"] }}}}}}}}}}}}}}"#,
            self.character_id
        )
    }

    /// Paper Table 2 Q3 (star match: war films with the hub actor).
    pub fn q3(&self) -> String {
        format!(
            r#"{{ "id" : "{}",
                "_out_edge" : {{ "_type" : "director.film",
                "_vertex" : {{ "_type" : "entity",
                "_select" : ["name[0]"],
                "_match" : [{{
                "_out_edge" : {{ "_type" : "film.actor",
                "_vertex" : {{ "id" : "{}" }}}}}},
                {{ "_out_edge" : {{ "_type" : "film.genre",
                "_vertex" : {{ "id" : "genre.war" }}}}}}] }}}}}}"#,
            self.director_id, self.hub_actor_id
        )
    }

    /// Paper Table 2 Q4 (stress: 3-hop fan-out).
    pub fn q4(&self) -> String {
        format!(
            r#"{{ "id" : "{}",
                "_out_edge" : {{ "_type" : "actor.film",
                "_vertex" : {{
                "_out_edge" : {{ "_type" : "film.actor",
                "_vertex" : {{
                "_out_edge" : {{ "_type" : "actor.film",
                "_vertex" : {{
                "_select" : ["_count(*)"] }}}}}}}}}}}}}}"#,
            self.hub_actor_id
        )
    }
}

/// Graph name of the hub-skew workload (tenant is [`TENANT`]).
pub const HUB_SKEW_GRAPH: &str = "hub-skew";

const HUB_SKEW_SCHEMA: &str = r#"{
    "name": "entity",
    "fields": [
        {"id": 0, "name": "id", "type": "string", "required": true},
        {"id": 1, "name": "rank", "type": "int64"},
        {"id": 2, "name": "payload", "type": "string"}
    ]
}"#;

/// Shape of the hub-skewed frontier.
#[derive(Debug, Clone)]
pub struct HubSkewSpec {
    /// Frontier vertices (hop-2 work-op batch size across the cluster).
    pub srcs: usize,
    /// Fraction of the frontier owned by machine 0.
    pub skew: f64,
    /// Match-target payload bytes (read during predicate evaluation).
    pub payload_bytes: usize,
}

/// A two-hop match workload built to defeat cross-machine fan-out:
///
/// ```text
/// root ──fan──▶ src_i ──hit──▶ tgt_i   (match: tgt.rank == 1)
/// ```
///
/// `root` lives on machine 1 (coordinate from there and hop 1 is an inline
/// run). ~`skew` of the `src` vertices are pinned to machine 0 — hop 2
/// collapses onto one big shipped work op, the common shape in the paper's
/// knowledge-graph workloads where hub entities concentrate frontiers — and
/// every `tgt_i` is a *distinct* vertex on machines 1…N−1, so each match
/// evaluation is a remote header+record read from machine 0 that only
/// morsels can overlap (the per-batch neighbor memo doesn't collapse
/// distinct targets).
pub struct HubSkewGraph {
    pub cluster: A1Cluster,
    /// What [`HubSkewGraph::match_query`] must count: the generator gives
    /// every frontier vertex exactly one `hit` target, always of rank 1.
    pub expected_match: u64,
}

impl HubSkewGraph {
    pub fn load(cfg: A1Config, spec: &HubSkewSpec) -> HubSkewGraph {
        let machines = cfg.farm.fabric.machines;
        assert!(machines >= 3, "need a hub machine plus remote targets");
        let cluster = A1Cluster::start(cfg).expect("cluster");
        let client = cluster.client();
        client.create_tenant(TENANT).unwrap();
        client.create_graph(TENANT, HUB_SKEW_GRAPH).unwrap();
        client
            .create_vertex_type(TENANT, HUB_SKEW_GRAPH, HUB_SKEW_SCHEMA, "id", &[])
            .unwrap();
        for et in ["fan", "hit"] {
            client
                .create_edge_type(
                    TENANT,
                    HUB_SKEW_GRAPH,
                    &format!(r#"{{"name": "{et}", "fields": []}}"#),
                )
                .unwrap();
        }
        let payload: String = (0..spec.payload_bytes)
            .map(|i| ((i % 26) as u8 + b'a') as char)
            .collect();
        let vertex = |id: &str, rank: i64| Mutation::UpsertVertex {
            tenant: TENANT.into(),
            graph: HUB_SKEW_GRAPH.into(),
            ty: "entity".into(),
            attrs: Json::obj(vec![
                ("id", Json::str(id)),
                ("rank", Json::Num(rank as f64)),
                ("payload", Json::str(&payload)),
            ]),
        };
        let edge = |src: &str, et: &str, dst: &str| Mutation::UpsertEdge {
            tenant: TENANT.into(),
            graph: HUB_SKEW_GRAPH.into(),
            src_type: "entity".into(),
            src_id: Json::str(src),
            edge_type: et.into(),
            dst_type: "entity".into(),
            dst_id: Json::str(dst),
            data: None,
        };

        // Vertices allocate at the batch's pinned coordinator (Hint::Local),
        // so `apply_batch_at` controls placement — that is what makes the
        // skew.
        client
            .apply_batch_at(MachineId(1), &[vertex("root", 0)])
            .unwrap();
        let hub = (spec.srcs as f64 * spec.skew).round() as usize;
        let home = |i: usize| -> MachineId {
            if i < hub {
                MachineId(0)
            } else {
                MachineId(1 + ((i - hub) as u32 % (machines - 1)))
            }
        };
        for i in 0..spec.srcs {
            let sid = format!("src{i:05}");
            let tid = format!("tgt{i:05}");
            client.apply_batch_at(home(i), &[vertex(&sid, 0)]).unwrap();
            // Targets never land on machine 0: from the hub machine every
            // match read is a (simulated) remote read.
            client
                .apply_batch_at(
                    MachineId(1 + (i as u32 % (machines - 1))),
                    &[vertex(&tid, 1)],
                )
                .unwrap();
            client
                .apply_batch(&[edge("root", "fan", &sid), edge(&sid, "hit", &tid)])
                .unwrap();
        }
        HubSkewGraph {
            cluster,
            expected_match: spec.srcs as u64,
        }
    }

    /// Count the frontier vertices whose `hit` target satisfies `rank == 1`.
    pub fn match_query() -> String {
        r#"{ "id": "root",
            "_out_edge": { "_type": "fan",
            "_vertex": {
            "_match": [{ "_out_edge": { "_type": "hit",
            "_vertex": { "rank": 1 } } }],
            "_select": ["_count(*)"] } } }"#
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_kg_loads_and_queries() {
        let kg = KnowledgeGraph::load(A1Config::small(3), KnowledgeGraphSpec::tiny());
        let out = kg.client.query(TENANT, GRAPH, &kg.q1()).unwrap();
        assert!(out.count.unwrap() > 0, "Q1 finds actors");
        let out = kg.client.query(TENANT, GRAPH, &kg.q2()).unwrap();
        assert!(out.count.unwrap() > 0, "Q2 finds Batman actors");
        let out = kg.client.query(TENANT, GRAPH, &kg.q3()).unwrap();
        assert!(
            !out.rows.is_empty(),
            "Q3 finds war films with the hub actor"
        );
        let out = kg.client.query(TENANT, GRAPH, &kg.q4()).unwrap();
        assert!(out.count.unwrap() > 0, "Q4 finds co-star films");
        // ...and the generator's own adjacency predicts every answer.
        let count = |q: &str| kg.client.query(TENANT, GRAPH, q).unwrap().count;
        assert_eq!(count(&kg.q1()), Some(kg.answers.q1));
        assert_eq!(count(&kg.q2()), Some(kg.answers.q2));
        assert_eq!(count(&kg.q4()), Some(kg.answers.q4));
        assert_eq!(
            kg.answers.q3.len(),
            3,
            "tiny: films 0, 2, 4 are war + hub actor"
        );
    }

    #[test]
    fn hub_skew_graph_answers_its_match_query() {
        let spec = HubSkewSpec {
            srcs: 12,
            skew: 0.9,
            payload_bytes: 16,
        };
        let g = HubSkewGraph::load(A1Config::small(3), &spec);
        assert_eq!(g.expected_match, 12);
        let out = g
            .cluster
            .client()
            .query(TENANT, HUB_SKEW_GRAPH, &HubSkewGraph::match_query())
            .unwrap();
        assert_eq!(out.count, Some(g.expected_match));
    }
}
