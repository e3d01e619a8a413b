//! TNE-style temporal network embedding — the dynamic baseline of Table 11.
//!
//! Each snapshot is embedded with SGNS; a temporal-smoothness pull keeps
//! `e_v(t)` close to `e_v(t-1)` so the trajectory is stable. The final
//! embedding is the last snapshot's (the standard evaluation protocol for
//! snapshot models: "run the algorithm on each snapshot ... and report the
//! average performance").

use crate::common::{BaselineEmbeddings, SkipGramParams};
use aligraph_graph::DynamicGraph;
use aligraph_sampling::walks::{generate_corpus, skipgram_pairs, WalkDirection};
use aligraph_sampling::{NegativeSampler, UnigramNegative};
use aligraph_tensor::loss::sgns_update;
use aligraph_tensor::{EmbeddingTable, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Trains TNE over all snapshots; `smoothness` is the strength of the
/// temporal pull toward the previous snapshot's embeddings.
pub fn train_tne(
    dynamic: &DynamicGraph,
    params: &SkipGramParams,
    smoothness: f32,
) -> BaselineEmbeddings {
    #[expect(clippy::expect_used, reason = "a DynamicGraph always materializes snapshot 0")]
    let n = dynamic.snapshot(0).expect("non-empty").num_vertices();
    let mut prev: Option<Matrix> = None;
    let mut input = EmbeddingTable::new(n, params.dim, params.seed);
    let mut output = EmbeddingTable::zeros(n, params.dim);

    for t in 0..dynamic.num_snapshots() {
        #[expect(clippy::expect_used, reason = "t ranges over 0..num_snapshots()")]
        let graph = dynamic.snapshot(t).expect("in range");
        let mut rng = StdRng::seed_from_u64(params.seed + 1000 * t as u64);
        let corpus = generate_corpus(
            graph,
            params.walks_per_vertex,
            params.walk_length,
            WalkDirection::Both,
            &mut rng,
        );
        let negative = UnigramNegative::new(graph, None, 0.75);
        for _ in 0..params.epochs {
            for walk in &corpus {
                for (center, ctx) in skipgram_pairs(walk, params.window) {
                    let negs = negative.sample(graph, &[center, ctx], params.negatives, &mut rng);
                    let neg_idx: Vec<usize> = negs.iter().map(|x| x.index()).collect();
                    sgns_update(
                        &mut input,
                        &mut output,
                        center.index(),
                        ctx.index(),
                        &neg_idx,
                        params.lr,
                    );
                    // Temporal smoothness pull toward the previous snapshot.
                    if let Some(prev) = &prev {
                        if smoothness > 0.0 {
                            let grad: Vec<f32> = input
                                .row(center.index())
                                .iter()
                                .zip(prev.row(center.index()))
                                .map(|(&cur, &old)| smoothness * (cur - old))
                                .collect();
                            input.sgd_update(center.index(), &grad, params.lr);
                        }
                    }
                }
            }
        }
        // Remember this snapshot's embeddings for the next pull.
        let mut snap = Matrix::zeros(n, params.dim);
        for i in 0..n {
            snap.row_mut(i).copy_from_slice(input.row(i));
        }
        prev = Some(snap);
    }
    BaselineEmbeddings::from_tables(&input, &output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::generate::DynamicConfig;

    fn dynamic() -> DynamicGraph {
        DynamicConfig {
            vertices: 120,
            initial_edges: 400,
            timestamps: 3,
            normal_per_step: 60,
            removed_per_step: 20,
            burst_size: 30,
            burst_every: 2,
            edge_types: 2,
            seed: 5,
        }
        .generate()
        .unwrap()
    }

    #[test]
    fn tne_trains_on_snapshots() {
        let d = dynamic();
        let emb = train_tne(&d, &SkipGramParams::quick(), 0.1);
        assert_eq!(emb.matrix.rows, 120);
        assert!(emb.matrix.as_slice().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn smoothness_changes_trajectory() {
        let d = dynamic();
        let free = train_tne(&d, &SkipGramParams::quick(), 0.0);
        let smooth = train_tne(&d, &SkipGramParams::quick(), 1.0);
        assert_ne!(free.matrix.as_slice(), smooth.matrix.as_slice());
    }
}
