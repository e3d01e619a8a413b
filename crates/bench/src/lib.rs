//! # aligraph-bench
//!
//! Shared workload builders and reporting helpers for the experiment
//! binaries (`src/bin/*`) and Criterion benches (`benches/*`). The
//! DESIGN.md experiment index maps every paper table/figure to one target
//! here.
//!
//! Scale knobs (environment variables):
//! * `ALIGRAPH_SCALE` — linear multiplier on the default simulated dataset
//!   sizes (default 1.0; the defaults are already ~1000× below production);
//! * `ALIGRAPH_FAST=1` — shrink the algorithm experiments for smoke runs.

#![expect(
    clippy::expect_used,
    reason = "the experiment fixtures' configs are fixed and valid; a failure aborts the run"
)]

use aligraph_graph::generate::{amazon_sim_scaled, DynamicConfig, TaobaoConfig};
use aligraph_graph::{AttributedHeterogeneousGraph, DynamicGraph};

/// The global linear scale multiplier.
pub fn scale() -> f64 {
    std::env::var("ALIGRAPH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// True when `ALIGRAPH_FAST=1`.
pub fn fast_mode() -> bool {
    std::env::var("ALIGRAPH_FAST").map(|v| v == "1").unwrap_or(false)
}

/// Taobao-small simulator at system-bench scale (~5% of the already-scaled
/// sim: ≈7.4K users / 450 items / ≈33K edges by default).
pub fn taobao_small_bench() -> AttributedHeterogeneousGraph {
    let mut cfg = TaobaoConfig::small_sim().scaled(0.05 * scale());
    // Production behavior graphs store both u2i and i2u relation tables;
    // the reverse edges keep the importance metric (Eq. 1) non-degenerate.
    cfg.reverse_ui_prob = 0.15;
    cfg.generate().expect("valid config")
}

/// Taobao-large simulator at system-bench scale (6× the storage of small).
pub fn taobao_large_bench() -> AttributedHeterogeneousGraph {
    let mut cfg = TaobaoConfig::large_sim().scaled(0.05 * scale());
    cfg.reverse_ui_prob = 0.15;
    cfg.generate().expect("valid config")
}

/// Taobao-style graph at *algorithm* scale (walk-based training has to
/// finish in seconds, not minutes).
pub fn taobao_algo() -> AttributedHeterogeneousGraph {
    let f = if fast_mode() { 0.2 } else { 1.0 };
    TaobaoConfig {
        users: (2_000.0 * f * scale()) as usize,
        items: (300.0 * f * scale()).max(30.0) as usize,
        ui_edges: (12_000.0 * f * scale()) as usize,
        ii_edges: (3_000.0 * f * scale()) as usize,
        user_attr_fields: 27,
        item_attr_fields: 32,
        attr_profiles: 128,
        reverse_ui_prob: 0.2,
        interest_clusters: 8,
        seed: 0xa190,
    }
    .generate()
    .expect("valid config")
}

/// Amazon-style graph. Full Table 6 scale unless fast mode.
pub fn amazon_algo() -> AttributedHeterogeneousGraph {
    if fast_mode() {
        amazon_sim_scaled(1_000, 14_000, 0xa3a2).expect("valid config")
    } else {
        amazon_sim_scaled(10_166, 148_865, 0xa3a2).expect("valid config")
    }
}

/// Dynamic graph for the Table 11 experiment.
pub fn dynamic_algo() -> DynamicGraph {
    let f = if fast_mode() { 0.3 } else { 1.0 };
    DynamicConfig {
        vertices: (1_500.0 * f) as usize,
        initial_edges: (7_000.0 * f) as usize,
        timestamps: 5,
        normal_per_step: (700.0 * f) as usize,
        removed_per_step: (250.0 * f) as usize,
        burst_size: (350.0 * f) as usize,
        burst_every: 2,
        edge_types: 3,
        seed: 0xd1a,
    }
    .generate()
    .expect("valid config")
}

/// Holds out one interacted item per (eligible) user — the leave-one-out
/// protocol shared by the recommendation experiments (Table 9, Figure 1).
pub fn leave_one_out(
    graph: &AttributedHeterogeneousGraph,
    seed: u64,
) -> (AttributedHeterogeneousGraph, Vec<(aligraph_graph::VertexId, aligraph_graph::VertexId)>) {
    use aligraph_graph::ids::well_known::{ITEM, USER};
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut held: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    let mut truth = Vec::new();
    for &u in graph.vertices_of_type(USER) {
        let items: Vec<_> = graph
            .out_edge_ids(u)
            .zip(graph.out_neighbors(u))
            .filter(|(_, n)| graph.vertex_type(n.vertex) == ITEM)
            .collect();
        if items.len() >= 2 {
            let (e, pick) = items[rng.gen_range(0..items.len())];
            held.insert(u.0, e);
            truth.push((u, pick.vertex));
        }
    }
    let mut b = aligraph_graph::GraphBuilder::directed()
        .with_capacity(graph.num_vertices(), graph.num_edge_records());
    for v in graph.vertices() {
        b.add_vertex(graph.vertex_type(v), graph.vertex_attrs(v).clone());
    }
    for v in graph.vertices() {
        for (e, nb) in graph.out_edge_ids(v).zip(graph.out_neighbors(v)) {
            if held.get(&v.0) == Some(&e) {
                continue;
            }
            b.add_edge(v, nb.vertex, nb.etype, nb.weight).expect("valid edges");
        }
    }
    (b.build(), truth)
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style header + separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

/// Formats a float with fixed precision.
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_datasets_have_expected_shape() {
        let small = taobao_small_bench();
        assert_eq!(small.num_vertex_types(), 2);
        assert_eq!(small.num_edge_types(), 4);
        assert!(small.num_vertices() > 1_000);
        let algo = taobao_algo();
        assert!(algo.num_edges() > 1_000);
    }

    #[test]
    fn large_is_bigger_than_small() {
        let small = taobao_small_bench();
        let large = taobao_large_bench();
        assert!(large.num_edges() > 2 * small.num_edges());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(0.5), "50.00%");
    }
}
