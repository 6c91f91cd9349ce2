//! The Bing knowledge-graph scenario (paper §5–6): load a film/entertainment
//! knowledge graph with the weakly-typed `entity` model and run the four
//! evaluation queries of Table 2, printing their measured footprints.
//!
//! ```sh
//! cargo run --release --example knowledge_graph
//! ```

use a1_core::A1Config;
use a1_workload::workload::{KnowledgeGraph, KnowledgeGraphSpec, GRAPH, TENANT};

fn main() {
    println!("loading synthetic knowledge graph (hub director: 49 films)...");
    let kg = KnowledgeGraph::load(A1Config::small(8), KnowledgeGraphSpec::default());

    let queries = [
        ("Q1  actors who worked with the hub director", kg.q1()),
        ("Q2  actors who have played Batman", kg.q2()),
        ("Q3  war films with the hub actor (star match)", kg.q3()),
        ("Q4  films of the hub actor's co-stars (stress)", kg.q4()),
    ];
    for (label, text) in queries {
        let out = kg.client.query(TENANT, GRAPH, &text).expect("query");
        let result = out
            .count
            .map(|c| format!("count={c}"))
            .unwrap_or_else(|| format!("{} rows", out.rows.len()));
        println!("\n{label}\n  result: {result}");
        println!(
            "  vertices read: {}, edges visited: {}, objects: {} ({:.1}% local), rpcs: {}",
            out.metrics.vertices_read,
            out.metrics.edges_visited,
            out.metrics.objects_read(),
            out.metrics.local_read_fraction() * 100.0,
            out.metrics.rpcs
        );
    }
    println!("\n(paper Q1: 49 + 1639 vertices, 1785 edges, 3443 objects, ≥95% local)");
}
