//! PMNE (Liu et al., ICDM'17): three principled ways to embed a multiplex
//! network, all compared in the paper's Table 8:
//!
//! * **PMNE-n** (network aggregation) — merge all layers into one graph,
//!   then run node2vec;
//! * **PMNE-r** (results aggregation) — embed each layer independently and
//!   concatenate;
//! * **PMNE-c** (layer co-analysis) — one shared embedding trained on walks
//!   that may switch layers, with per-layer context tables.

use crate::common::{train_skipgram_into, BaselineEmbeddings, SkipGramParams};
use crate::node2vec::train_node2vec;
use aligraph_graph::{AttributedHeterogeneousGraph, EdgeType, VertexId};
use aligraph_sampling::walks::{uniform_walk, WalkDirection};
use aligraph_tensor::EmbeddingTable;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which PMNE variant to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmneVariant {
    /// Network aggregation.
    N,
    /// Results aggregation.
    R,
    /// Layer co-analysis.
    C,
}

/// Trains a PMNE variant on a multiplex graph (layers = edge types).
pub fn train_pmne(
    graph: &AttributedHeterogeneousGraph,
    params: &SkipGramParams,
    variant: PmneVariant,
) -> BaselineEmbeddings {
    match variant {
        // The merged network *is* the AHG with types ignored, which is what
        // node2vec over all edge types walks.
        PmneVariant::N => train_node2vec(graph, params, 1.0, 1.0),
        #[expect(
            clippy::expect_used,
            reason = "the loop adds every edge type's view, and a graph has at least one"
        )]
        PmneVariant::R => {
            let mut combined: Option<BaselineEmbeddings> = None;
            let mut layer_params = params.clone();
            // Budget-split the dimension so PMNE-r's output dim matches.
            layer_params.dim = (params.dim / graph.num_edge_types() as usize).max(4);
            for t in 0..graph.num_edge_types() {
                layer_params.seed = params.seed + 31 * t as u64;
                let layer = train_layer(graph, &layer_params, EdgeType(t));
                combined = Some(match combined {
                    None => layer,
                    Some(c) => c.concat(&layer),
                });
            }
            combined.expect("graphs have at least one edge type")
        }
        PmneVariant::C => {
            let n = graph.num_vertices();
            let mut input = EmbeddingTable::new(n, params.dim, params.seed);
            let mut rng = StdRng::seed_from_u64(params.seed ^ 0xc0);
            for t in 0..graph.num_edge_types() {
                // Per-layer context table over the shared input embedding.
                let mut output = EmbeddingTable::zeros(n, params.dim);
                let corpus = layer_corpus(graph, params, EdgeType(t), &mut rng);
                let mut layer_params = params.clone();
                layer_params.seed = params.seed + 77 * t as u64;
                train_skipgram_into(graph, &corpus, &layer_params, &mut input, &mut output);
            }
            BaselineEmbeddings::from_tables(&input, &EmbeddingTable::zeros(n, params.dim))
        }
    }
}

fn layer_corpus(
    graph: &AttributedHeterogeneousGraph,
    params: &SkipGramParams,
    etype: EdgeType,
    rng: &mut StdRng,
) -> Vec<Vec<VertexId>> {
    let mut corpus = Vec::new();
    for v in graph.vertices() {
        if graph.out_neighbors_typed(v, etype).is_empty()
            && graph.in_neighbors_typed(v, etype).is_empty()
        {
            continue;
        }
        for _ in 0..params.walks_per_vertex {
            let walk =
                uniform_walk(graph, v, params.walk_length, Some(etype), WalkDirection::Both, rng);
            if walk.len() > 1 {
                corpus.push(walk);
            }
        }
    }
    corpus
}

fn train_layer(
    graph: &AttributedHeterogeneousGraph,
    params: &SkipGramParams,
    etype: EdgeType,
) -> BaselineEmbeddings {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let corpus = layer_corpus(graph, params, etype, &mut rng);
    crate::common::train_skipgram_on_corpus(graph, &corpus, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph::evaluate_split;
    use aligraph_eval::link_prediction_split;
    use aligraph_graph::generate::amazon_sim_scaled;

    #[test]
    fn all_variants_train_and_beat_chance() {
        let g = amazon_sim_scaled(300, 2_400, 23).unwrap();
        let split = link_prediction_split(&g, 0.15, 24);
        for variant in [PmneVariant::N, PmneVariant::R, PmneVariant::C] {
            let emb = train_pmne(&split.train, &SkipGramParams::quick(), variant);
            let m = evaluate_split(&emb, &split);
            assert!(m.roc_auc > 0.55, "{variant:?} AUC {}", m.roc_auc);
        }
    }

    #[test]
    fn r_variant_splits_dimension() {
        let g = amazon_sim_scaled(100, 500, 25).unwrap();
        let params = SkipGramParams::quick();
        let emb = train_pmne(&g, &params, PmneVariant::R);
        // 2 edge types, dim budget split per layer.
        assert_eq!(emb.matrix.cols, (params.dim / 2).max(4) * 2);
    }
}
