//! MVE (Qu et al., CIKM'17): multi-view network embedding with attention-
//! weighted collaboration. Each view (edge type) learns its own embedding;
//! a consensus embedding is pulled toward every view, with per-view
//! attention weights proportional to how well the view explains its edges.

use crate::common::{BaselineEmbeddings, SkipGramParams};
use aligraph_graph::{AttributedHeterogeneousGraph, EdgeType};
use aligraph_sampling::walks::{skipgram_pairs, uniform_walk, WalkDirection};
use aligraph_sampling::{NegativeSampler, UnigramNegative};
use aligraph_tensor::loss::{logistic_loss, sgns_update};
use aligraph_tensor::{EmbeddingTable, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Trains MVE: per-view SGNS + attention-weighted consensus.
pub fn train_mve(
    graph: &AttributedHeterogeneousGraph,
    params: &SkipGramParams,
    collaboration: f32,
) -> BaselineEmbeddings {
    let n = graph.num_vertices();
    let views = graph.num_edge_types() as usize;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let negative = UnigramNegative::new(graph, None, 0.75);

    let mut view_inputs: Vec<EmbeddingTable> =
        (0..views).map(|t| EmbeddingTable::new(n, params.dim, params.seed + t as u64)).collect();
    let mut view_outputs: Vec<EmbeddingTable> =
        (0..views).map(|_| EmbeddingTable::zeros(n, params.dim)).collect();
    // View quality: mean training loss (lower = better view).
    let mut view_loss = vec![0.0f64; views];
    let mut view_pairs = vec![0usize; views];

    for _ in 0..params.epochs {
        for t in 0..views {
            let etype = EdgeType(t as u8);
            for v in graph.vertices() {
                if graph.out_neighbors_typed(v, etype).is_empty()
                    && graph.in_neighbors_typed(v, etype).is_empty()
                {
                    continue;
                }
                for _ in 0..params.walks_per_vertex {
                    let walk = uniform_walk(
                        graph,
                        v,
                        params.walk_length,
                        Some(etype),
                        WalkDirection::Both,
                        &mut rng,
                    );
                    for (center, ctx) in skipgram_pairs(&walk, params.window) {
                        let negs =
                            negative.sample(graph, &[center, ctx], params.negatives, &mut rng);
                        let neg_idx: Vec<usize> = negs.iter().map(|x| x.index()).collect();
                        let loss = sgns_update(
                            &mut view_inputs[t],
                            &mut view_outputs[t],
                            center.index(),
                            ctx.index(),
                            &neg_idx,
                            params.lr,
                        );
                        view_loss[t] += loss as f64;
                        view_pairs[t] += 1;
                        let _ = logistic_loss; // quality uses the SGNS loss directly
                    }
                }
            }
        }
    }

    // Attention over views: softmax of negative mean loss (better views get
    // more weight), scaled by `collaboration` sharpness.
    let mut attn: Vec<f64> = view_loss
        .iter()
        .zip(&view_pairs)
        .map(|(&l, &p)| if p == 0 { f64::MIN } else { -(l / p as f64) * collaboration as f64 })
        .collect();
    let max = attn.iter().cloned().fold(f64::MIN, f64::max);
    let mut total = 0.0;
    for a in attn.iter_mut() {
        *a = (*a - max).exp();
        total += *a;
    }
    for a in attn.iter_mut() {
        *a /= total.max(1e-12);
    }

    // Consensus: attention-weighted sum of view embeddings.
    let mut matrix = Matrix::zeros(n, params.dim);
    for (t, (inp, outp)) in view_inputs.iter().zip(&view_outputs).enumerate() {
        let w = attn[t] as f32;
        for i in 0..n {
            for ((m, &a), &b) in matrix.row_mut(i).iter_mut().zip(inp.row(i)).zip(outp.row(i)) {
                *m += w * (a + b);
            }
        }
    }
    BaselineEmbeddings { matrix }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph::evaluate_split;
    use aligraph_eval::link_prediction_split;
    use aligraph_graph::generate::amazon_sim_scaled;

    #[test]
    fn mve_trains_and_beats_chance() {
        let g = amazon_sim_scaled(300, 2_400, 27).unwrap();
        let split = link_prediction_split(&g, 0.15, 28);
        let emb = train_mve(&split.train, &SkipGramParams::quick(), 2.0);
        let m = evaluate_split(&emb, &split);
        assert!(m.roc_auc > 0.55, "AUC {}", m.roc_auc);
    }

    #[test]
    fn collaboration_strength_matters() {
        let g = amazon_sim_scaled(100, 500, 29).unwrap();
        let flat = train_mve(&g, &SkipGramParams::quick(), 0.0);
        let sharp = train_mve(&g, &SkipGramParams::quick(), 8.0);
        assert_ne!(flat.matrix.as_slice(), sharp.matrix.as_slice());
    }
}
