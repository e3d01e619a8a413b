//! Struc2Vec-style structural embedding (Ribeiro et al., KDD'17) — the
//! "Structural2Vec" row of the paper's Tables 1 and 7.
//!
//! Vertices with similar *structural roles* (hub, bridge, leaf) should embed
//! closely even when far apart in the graph. This reproduction keeps the
//! method's core pipeline at a tractable cost:
//!
//! 1. a per-vertex **structural signature** summarizing its degree and the
//!    degree distribution of its 1-hop neighborhood (the k=1 layer of
//!    struc2vec's multilayer similarity),
//! 2. a **similarity graph** connecting each vertex to its nearest
//!    neighbors in signature space (candidate-sampled beyond
//!    `EXACT_KNN_LIMIT` vertices to stay sub-quadratic),
//! 3. random walks on the similarity graph + skip-gram with negative
//!    sampling.

use crate::common::{train_skipgram_on_corpus, BaselineEmbeddings, SkipGramParams};
use aligraph_graph::{AttributedHeterogeneousGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Brute-force kNN is used up to this many vertices; larger graphs sample
/// candidate sets instead.
const EXACT_KNN_LIMIT: usize = 4_000;
/// Signature dimensionality.
const SIG_DIM: usize = 6;
/// Similarity-graph out-degree.
const KNN: usize = 8;
/// Candidate pool size in the sampled regime.
const CANDIDATES: usize = 64;

/// The structural signature of one vertex.
fn signature(graph: &AttributedHeterogeneousGraph, v: VertexId) -> [f32; SIG_DIM] {
    let mut degs: Vec<f32> = graph
        .out_neighbors(v)
        .iter()
        .chain(graph.in_neighbors(v))
        .map(|n| ((graph.out_degree(n.vertex) + graph.in_degree(n.vertex)) as f32).ln_1p())
        .collect();
    degs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let own = ((graph.out_degree(v) + graph.in_degree(v)) as f32).ln_1p();
    let q = |p: f64| -> f32 {
        if degs.is_empty() {
            0.0
        } else {
            degs[((degs.len() - 1) as f64 * p) as usize]
        }
    };
    let mean = if degs.is_empty() { 0.0 } else { degs.iter().sum::<f32>() / degs.len() as f32 };
    [own, (degs.len() as f32).ln_1p(), q(0.0), q(0.5), q(1.0), mean]
}

fn distance(a: &[f32; SIG_DIM], b: &[f32; SIG_DIM]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Trains the structural embedding.
pub fn train_struc2vec(
    graph: &AttributedHeterogeneousGraph,
    params: &SkipGramParams,
) -> BaselineEmbeddings {
    let n = graph.num_vertices();
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x57c2);
    let signatures: Vec<[f32; SIG_DIM]> = graph.vertices().map(|v| signature(graph, v)).collect();

    // Similarity graph: k nearest signatures per vertex.
    let mut sim_adj: Vec<Vec<u32>> = Vec::with_capacity(n);
    for v in 0..n {
        let candidates: Vec<usize> = if n <= EXACT_KNN_LIMIT {
            (0..n).filter(|&u| u != v).collect()
        } else {
            (0..CANDIDATES).map(|_| rng.gen_range(0..n)).filter(|&u| u != v).collect()
        };
        let mut scored: Vec<(usize, f32)> =
            candidates.into_iter().map(|u| (u, distance(&signatures[v], &signatures[u]))).collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        sim_adj.push(scored.into_iter().take(KNN).map(|(u, _)| u as u32).collect());
    }

    // Walks on the similarity graph.
    let mut corpus: Vec<Vec<VertexId>> = Vec::with_capacity(n * params.walks_per_vertex);
    for start in 0..n as u32 {
        for _ in 0..params.walks_per_vertex {
            let mut walk = Vec::with_capacity(params.walk_length);
            walk.push(VertexId(start));
            let mut cur = start;
            for _ in 1..params.walk_length {
                let row = &sim_adj[cur as usize];
                if row.is_empty() {
                    break;
                }
                cur = row[rng.gen_range(0..row.len())];
                walk.push(VertexId(cur));
            }
            if walk.len() > 1 {
                corpus.push(walk);
            }
        }
    }
    train_skipgram_on_corpus(graph, &corpus, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::{AttrVector, EdgeType, GraphBuilder, VertexType};

    /// Two identical stars whose hubs are far apart: struc2vec must embed
    /// the two hubs closer to each other than to their own leaves.
    #[test]
    fn structural_roles_cluster() {
        let mut b = GraphBuilder::undirected();
        let mut hubs = Vec::new();
        for _ in 0..2 {
            let hub = b.add_vertex(VertexType(0), AttrVector::empty());
            for _ in 0..12 {
                let leaf = b.add_vertex(VertexType(0), AttrVector::empty());
                b.add_edge(hub, leaf, EdgeType(0), 1.0).unwrap();
            }
            hubs.push(hub);
        }
        // A thin chain joining the stars (keeps the graph connected).
        b.add_edge(hubs[0], hubs[1], EdgeType(0), 1.0).unwrap();
        let g = b.build();

        let emb = train_struc2vec(&g, &SkipGramParams::quick());
        let hub0 = emb.matrix.row(hubs[0].index());
        let hub1 = emb.matrix.row(hubs[1].index());
        let leaf = emb.matrix.row(hubs[0].index() + 1);
        let d =
            |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
        assert!(
            d(hub0, hub1) < d(hub0, leaf),
            "hubs {} apart vs hub-leaf {}",
            d(hub0, hub1),
            d(hub0, leaf)
        );
    }

    #[test]
    fn signatures_reflect_degree() {
        let mut b = GraphBuilder::directed();
        let hub = b.add_vertex(VertexType(0), AttrVector::empty());
        let mid = b.add_vertex(VertexType(0), AttrVector::empty());
        for _ in 0..10 {
            let leaf = b.add_vertex(VertexType(0), AttrVector::empty());
            b.add_edge(hub, leaf, EdgeType(0), 1.0).unwrap();
        }
        b.add_edge(mid, hub, EdgeType(0), 1.0).unwrap();
        let g = b.build();
        let s_hub = signature(&g, hub);
        let s_mid = signature(&g, mid);
        assert!(s_hub[0] > s_mid[0], "hub own-degree {} vs mid {}", s_hub[0], s_mid[0]);
    }

    #[test]
    fn trains_on_generated_graph() {
        let g = aligraph_graph::generate::erdos_renyi(150, 600, 3).unwrap();
        let emb = train_struc2vec(&g, &SkipGramParams::quick());
        assert_eq!(emb.matrix.rows, 150);
        assert!(emb.matrix.as_slice().iter().all(|x| x.is_finite()));
    }
}
