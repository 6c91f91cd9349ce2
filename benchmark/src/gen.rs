//! Input generators and the independent reference they answer from.
//!
//! Every graph is generated into plain in-memory adjacency first; the
//! cluster is loaded from that, and every expected answer is computed from
//! that — never from an earlier run of the program under test.

use crate::rng::Rng;
use a1_json::Json;
use std::collections::{BTreeSet, HashMap, HashSet};

pub const TENANT: &str = "bench";
pub const GRAPH: &str = "g";
pub const VTYPE: &str = "entity";

/// The weakly-typed `entity` vertex schema of the paper's §5.
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

pub const KG_EDGE_TYPES: &[&str] = &[
    "director.film",
    "film.actor",
    "actor.film",
    "film.genre",
    "character.film",
    "film.performance",
    "performance.actor",
];

pub const LINK: &str = "link";

/// A generated vertex: what is loaded, and what a read must return.
#[derive(Debug, Clone, PartialEq)]
pub struct Vertex {
    pub id: String,
    pub name: String,
    pub payload: String,
    pub rank: i64,
    /// `str_str_map[character]`, set on Q2's performance vertices.
    pub character: Option<&'static str>,
}

impl Vertex {
    pub fn attrs(&self) -> Json {
        let mut fields = vec![
            ("id", Json::str(&self.id)),
            ("name", Json::Arr(vec![Json::str(&self.name)])),
        ];
        if let Some(c) = self.character {
            fields.push(("str_str_map", Json::obj(vec![("character", Json::str(c))])));
        }
        fields.push(("rank", Json::Num(self.rank as f64)));
        fields.push(("payload", Json::str(&self.payload)));
        Json::obj(fields)
    }

    /// Does a `get_vertex` answer carry this vertex's attributes? `rank` is
    /// compared only when `rank` is given (concurrent writers own it).
    pub fn matches(&self, got: &Json, rank: Option<i64>) -> bool {
        got.get("id").and_then(Json::as_str) == Some(self.id.as_str())
            && got.get("payload").and_then(Json::as_str) == Some(self.payload.as_str())
            && got.get("name").and_then(|n| n.at(0)).and_then(Json::as_str)
                == Some(self.name.as_str())
            && rank.is_none_or(|r| got.get("rank").and_then(Json::as_i64) == Some(r))
    }
}

/// `len` letters of the alphabet, starting `salt` letters in.
pub fn payload(len: usize, salt: usize) -> String {
    // Cut from one long alphabet run: generating a record must cost the
    // generator far less than applying it costs the program.
    static LETTERS: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    let letters = LETTERS.get_or_init(|| {
        (0..26 + 1024)
            .map(|i| ((i % 26) as u8 + b'a') as char)
            .collect()
    });
    assert!(len <= 1024, "payloads are at most 1 KiB");
    let start = salt % 26;
    letters[start..start + len].to_string()
}

/// Vertices plus typed directed edges between their indices.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    pub vertices: Vec<Vertex>,
    pub edges: Vec<(u32, &'static str, u32)>,
}

impl Graph {
    fn add(&mut self, id: String, name: String, payload_len: usize) -> u32 {
        let salt = self.vertices.len();
        self.vertices.push(Vertex {
            id,
            name,
            payload: payload(payload_len, salt),
            rank: 0,
            character: None,
        });
        (self.vertices.len() - 1) as u32
    }

    /// Out-neighbour lists per edge type: the reference adjacency.
    pub fn adjacency(&self) -> Adjacency {
        let mut out: HashMap<&'static str, Vec<Vec<u32>>> = HashMap::new();
        for &(src, ty, dst) in &self.edges {
            out.entry(ty)
                .or_insert_with(|| vec![Vec::new(); self.vertices.len()])[src as usize]
                .push(dst);
        }
        Adjacency { out }
    }
}

pub struct Adjacency {
    out: HashMap<&'static str, Vec<Vec<u32>>>,
}

impl Adjacency {
    pub fn out(&self, ty: &str, v: u32) -> &[u32] {
        self.out
            .get(ty)
            .map_or(&[][..], |lists| lists[v as usize].as_slice())
    }

    /// One traversal hop: the distinct out-neighbours of a frontier.
    pub fn hop(&self, ty: &str, frontier: &BTreeSet<u32>) -> BTreeSet<u32> {
        frontier
            .iter()
            .flat_map(|&v| self.out(ty, v).iter().copied())
            .collect()
    }
}

// ------------------------------------------------------------ knowledge graph

/// Shape of the film knowledge graph (paper §6, Table 2).
#[derive(Debug, Clone)]
pub struct KgSpec {
    pub hub_films: usize,
    pub actors_per_film: usize,
    pub actor_pool: usize,
    pub films_per_actor: usize,
    pub character_films: usize,
    pub payload_bytes: usize,
}

impl KgSpec {
    /// The paper-shaped graph: the hub director has 49 films whose casts
    /// union to ≈1 640 distinct actors; ≈3.7 k vertices in all.
    pub fn paper() -> KgSpec {
        KgSpec {
            hub_films: 49,
            actors_per_film: 37,
            actor_pool: 1800,
            films_per_actor: 2,
            character_films: 8,
            payload_bytes: 220,
        }
    }

    pub fn smoke() -> KgSpec {
        KgSpec {
            hub_films: 6,
            actors_per_film: 5,
            actor_pool: 24,
            films_per_actor: 2,
            character_films: 3,
            payload_bytes: 64,
        }
    }
}

/// What Table 2's four queries must answer on a generated graph.
#[derive(Debug, Clone, PartialEq)]
pub struct KgAnswers {
    pub q1: u64,
    pub q2: u64,
    /// Q3's projected film names, ascending.
    pub q3: Vec<String>,
    pub q4: u64,
}

pub struct Kg {
    pub graph: Graph,
    pub director: u32,
    pub character: u32,
    pub hub_actor: u32,
    pub hub_films: Vec<u32>,
    pub actors: Vec<u32>,
    pub answers: KgAnswers,
}

impl Kg {
    pub fn generate(spec: &KgSpec, seed: u64) -> Kg {
        let mut rng = Rng::fork(seed, 1);
        let mut g = Graph::default();
        let p = spec.payload_bytes;
        let director = g.add("steven.spielberg".into(), "Steven Spielberg".into(), p);
        let actors: Vec<u32> = (0..spec.actor_pool)
            .map(|a| g.add(format!("actor{a:05}"), format!("Actor {a}"), p))
            .collect();
        let genre: HashMap<&str, u32> = ["war", "action", "comedy", "drama"]
            .into_iter()
            .map(|n| (n, g.add(format!("genre.{n}"), n.into(), p)))
            .collect();
        let hub_actor = actors[0];

        let mut hub_films = Vec::new();
        for f in 0..spec.hub_films {
            let film = g.add(format!("film{f:04}"), format!("Film {f}"), p);
            hub_films.push(film);
            g.edges.push((director, "director.film", film));
            let kind = if f % 2 == 0 { "war" } else { "drama" };
            g.edges.push((film, "film.genre", genre[kind]));
            // The hub actor is in every other film, so Q3's star pattern
            // (director + actor + genre) has matches.
            let mut cast = BTreeSet::new();
            if f % 2 == 0 {
                cast.insert(0usize);
            }
            while cast.len() < spec.actors_per_film.min(spec.actor_pool) {
                cast.insert(rng.below(spec.actor_pool));
            }
            for a in cast {
                g.edges.push((film, "film.actor", actors[a]));
                g.edges.push((actors[a], "actor.film", film));
            }
        }
        let mut extra = 0usize;
        for &actor in &actors {
            for _ in 1..spec.films_per_actor {
                let film = g.add(format!("xfilm{extra:05}"), format!("Extra {extra}"), p);
                extra += 1;
                g.edges.push((film, "film.actor", actor));
                g.edges.push((actor, "actor.film", film));
            }
        }
        // Q2's subgraph: character → films → performances → actors; only
        // one of each film's two performances is the Batman role.
        let character = g.add("character.batman".into(), "Batman".into(), p);
        for f in 0..spec.character_films {
            let film = g.add(format!("batfilm{f:02}"), format!("Batman Film {f}"), p);
            g.edges.push((character, "character.film", film));
            g.edges.push((film, "film.genre", genre["action"]));
            for (role, who) in [("hero", "Batman"), ("villain", "Joker")] {
                let perf = g.add(format!("perf.{f:02}.{role}"), format!("{who} {f}"), 0);
                g.vertices[perf as usize].character = Some(who);
                g.edges.push((film, "film.performance", perf));
                let actor = actors[rng.below(spec.actor_pool)];
                g.edges.push((perf, "performance.actor", actor));
            }
        }

        let answers = kg_answers(&g, director, character, hub_actor, genre["war"]);
        Kg {
            graph: g,
            director,
            character,
            hub_actor,
            hub_films,
            actors,
            answers,
        }
    }

    fn id(&self, v: u32) -> &str {
        &self.graph.vertices[v as usize].id
    }

    /// Table 2 Q1: actors who worked with the director.
    pub fn q1(&self) -> String {
        format!(
            r#"{{"id":"{}","_out_edge":{{"_type":"director.film","_vertex":{{"_out_edge":{{"_type":"film.actor","_vertex":{{"_select":["_count(*)"]}}}}}}}}}}"#,
            self.id(self.director)
        )
    }

    /// Table 2 Q2: actors who played the character.
    pub fn q2(&self) -> String {
        format!(
            r#"{{"id":"{}","_out_edge":{{"_type":"character.film","_vertex":{{"_out_edge":{{"_type":"film.performance","_vertex":{{"str_str_map[character]":"Batman","_out_edge":{{"_type":"performance.actor","_vertex":{{"_select":["_count(*)"]}}}}}}}}}}}}}}"#,
            self.id(self.character)
        )
    }

    /// Table 2 Q3: the director's war films with the hub actor (star match).
    pub fn q3(&self) -> String {
        format!(
            r#"{{"id":"{}","_out_edge":{{"_type":"director.film","_vertex":{{"_type":"entity","_select":["name[0]"],"_match":[{{"_out_edge":{{"_type":"film.actor","_vertex":{{"id":"{}"}}}}}},{{"_out_edge":{{"_type":"film.genre","_vertex":{{"id":"genre.war"}}}}}}]}}}}}}"#,
            self.id(self.director),
            self.id(self.hub_actor)
        )
    }

    /// Table 2 Q4: the 3-hop stress query from the hub actor.
    pub fn q4(&self) -> String {
        format!(
            r#"{{"id":"{}","_out_edge":{{"_type":"actor.film","_vertex":{{"_out_edge":{{"_type":"film.actor","_vertex":{{"_out_edge":{{"_type":"actor.film","_vertex":{{"_select":["_count(*)"]}}}}}}}}}}}}}}"#,
            self.id(self.hub_actor)
        )
    }
}

fn kg_answers(g: &Graph, director: u32, character: u32, hub_actor: u32, war: u32) -> KgAnswers {
    let adj = g.adjacency();
    let start = |v: u32| BTreeSet::from([v]);
    let films = adj.hop("director.film", &start(director));
    let q1 = adj.hop("film.actor", &films).len() as u64;

    let bat_films = adj.hop("character.film", &start(character));
    let batman_roles: BTreeSet<u32> = adj
        .hop("film.performance", &bat_films)
        .into_iter()
        .filter(|&p| g.vertices[p as usize].character == Some("Batman"))
        .collect();
    let q2 = adj.hop("performance.actor", &batman_roles).len() as u64;

    let mut q3: Vec<String> = films
        .iter()
        .filter(|&&f| {
            adj.out("film.actor", f).contains(&hub_actor) && adj.out("film.genre", f).contains(&war)
        })
        .map(|&f| g.vertices[f as usize].name.clone())
        .collect();
    q3.sort();

    let his_films = adj.hop("actor.film", &start(hub_actor));
    let costars = adj.hop("film.actor", &his_films);
    let q4 = adj.hop("actor.film", &costars).len() as u64;
    KgAnswers { q1, q2, q3, q4 }
}

/// The string leaves of Q3's rows, ascending — comparable to
/// [`KgAnswers::q3`] whatever key the engine files a projection under.
pub fn row_strings(rows: &[Json]) -> Vec<String> {
    fn leaves(j: &Json, out: &mut Vec<String>) {
        match j {
            Json::Str(s) => out.push(s.clone()),
            Json::Arr(a) => a.iter().for_each(|x| leaves(x, out)),
            Json::Obj(o) => o.iter().for_each(|(_, x)| leaves(x, out)),
            _ => {}
        }
    }
    let mut out = Vec::new();
    rows.iter().for_each(|r| leaves(r, &mut out));
    out.sort();
    out
}

// -------------------------------------------------------------- uniform graph

/// A uniform random graph (the paper's Fig. 14 dataset, scaled) with every
/// 2-hop answer precomputed.
pub struct Uniform {
    pub graph: Graph,
    /// `two_hop[v]`: distinct vertices two `link` hops from `v`.
    pub two_hop: Vec<u64>,
}

impl Uniform {
    pub fn generate(vertices: usize, edges: usize, payload_bytes: usize, seed: u64) -> Uniform {
        assert!(vertices >= 2 && edges <= vertices * (vertices - 1) / 2);
        let mut rng = Rng::fork(seed, 2);
        let mut g = Graph::default();
        for v in 0..vertices {
            g.add(format!("v{v:07}"), format!("V {v}"), payload_bytes);
        }
        let mut seen = HashSet::with_capacity(edges);
        while seen.len() < edges {
            let (a, b) = (rng.below(vertices) as u32, rng.below(vertices) as u32);
            if a != b && seen.insert((a, b)) {
                g.edges.push((a, LINK, b));
            }
        }
        let adj = g.adjacency();
        let two_hop = (0..vertices as u32)
            .map(|v| {
                let first: BTreeSet<u32> = adj.out(LINK, v).iter().copied().collect();
                adj.hop(LINK, &first).len() as u64
            })
            .collect();
        Uniform { graph: g, two_hop }
    }

    pub fn two_hop_query(&self, v: usize) -> String {
        format!(
            r#"{{"id":"{}","_out_edge":{{"_type":"link","_vertex":{{"_out_edge":{{"_type":"link","_vertex":{{"_select":["_count(*)"]}}}}}}}}}}"#,
            self.graph.vertices[v].id
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kg_reference_counts_follow_the_adjacency() {
        let kg = Kg::generate(&KgSpec::smoke(), 3);
        let spec = KgSpec::smoke();
        // Q1 is at most films × cast and at least one film's cast.
        assert!(kg.answers.q1 as usize >= spec.actors_per_film);
        assert!(kg.answers.q1 as usize <= spec.actor_pool);
        // One Batman role per character film, each played by one actor.
        assert!(kg.answers.q2 >= 1 && kg.answers.q2 as usize <= spec.character_films);
        // The hub actor is cast in exactly the even (war) films.
        assert_eq!(kg.answers.q3.len(), spec.hub_films.div_ceil(2));
        assert!(kg.answers.q3.windows(2).all(|w| w[0] <= w[1]));
        assert!(kg.answers.q4 >= kg.answers.q3.len() as u64);
        // Same seed, same graph; another seed, another cast.
        assert_eq!(Kg::generate(&spec, 3).graph.edges, kg.graph.edges);
        assert_ne!(Kg::generate(&spec, 4).graph.edges, kg.graph.edges);
    }

    #[test]
    fn two_hop_reference_on_a_known_graph() {
        // 0→1, 0→2, 1→3, 2→3, 2→0: two hops from 0 reach {3, 0}.
        let mut g = Graph::default();
        for v in 0..4 {
            g.add(format!("v{v}"), String::new(), 0);
        }
        g.edges = vec![
            (0, LINK, 1),
            (0, LINK, 2),
            (1, LINK, 3),
            (2, LINK, 3),
            (2, LINK, 0),
        ];
        let adj = g.adjacency();
        let first: BTreeSet<u32> = adj.out(LINK, 0).iter().copied().collect();
        assert_eq!(adj.hop(LINK, &first), BTreeSet::from([0, 3]));
        assert!(adj.out(LINK, 3).is_empty());
        assert!(adj.out("absent", 0).is_empty());
    }

    #[test]
    fn uniform_graph_is_simple_and_seeded() {
        let u = Uniform::generate(50, 120, 8, 9);
        assert_eq!(u.graph.edges.len(), 120);
        let distinct: HashSet<_> = u.graph.edges.iter().map(|&(a, _, b)| (a, b)).collect();
        assert_eq!(distinct.len(), 120);
        assert!(u.graph.edges.iter().all(|&(a, _, b)| a != b));
        assert_eq!(u.two_hop, Uniform::generate(50, 120, 8, 9).two_hop);
    }

    #[test]
    fn vertex_match_checks_every_attribute() {
        let v = Vertex {
            id: "a".into(),
            name: "A".into(),
            payload: "xyz".into(),
            rank: 4,
            character: None,
        };
        let got = v.attrs();
        assert!(v.matches(&got, Some(4)));
        assert!(v.matches(&got, None));
        assert!(!v.matches(&got, Some(5)));
        let other = Vertex {
            payload: "xy".into(),
            ..v.clone()
        };
        assert!(!other.matches(&got, None));
    }
}
