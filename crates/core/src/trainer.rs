//! Shared training loops: unsupervised edge-contrastive training for
//! [`GnnEncoder`]s, the [`EmbeddingModel`] scoring abstraction, and the
//! link-prediction evaluation glue used by every experiment binary.

use crate::framework::{EpisodeTape, GnnEncoder};
use aligraph_eval::{LinkMetrics, LinkSplit};
use aligraph_graph::{AttributedHeterogeneousGraph, EdgeId, FeatureMatrix, VertexId};
use aligraph_sampling::{
    NegativeSampler, NeighborAccess, NeighborhoodSampler, TraverseSampler, UniformNegative,
    UniformTraverse,
};
use aligraph_tensor::loss::{logistic_grad, logistic_loss};
use aligraph_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Anything that maps a vertex to an embedding and scores candidate edges.
pub trait EmbeddingModel {
    /// Embedding of a vertex.
    fn embedding(&self, v: VertexId) -> Vec<f32>;

    /// Score of a candidate edge (default: dot product).
    fn score(&self, u: VertexId, v: VertexId) -> f32 {
        aligraph_tensor::dot(&self.embedding(u), &self.embedding(v))
    }
}

/// A dense embedding table as a scoring model.
#[derive(Debug)]
pub struct MatrixEmbeddings {
    /// `n x d` embeddings, row per vertex.
    pub matrix: Matrix,
}

impl EmbeddingModel for MatrixEmbeddings {
    fn embedding(&self, v: VertexId) -> Vec<f32> {
        self.matrix.row(v.index()).to_vec()
    }

    fn score(&self, u: VertexId, v: VertexId) -> f32 {
        aligraph_tensor::dot(self.matrix.row(u.index()), self.matrix.row(v.index()))
    }
}

/// Hyper-parameters of the unsupervised trainer.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batches per epoch.
    pub batches_per_epoch: usize,
    /// Positive edges per mini-batch.
    pub batch_size: usize,
    /// Negatives per positive.
    pub negatives: usize,
    /// Early stopping (paper §7, future work item 3): stop after this many
    /// consecutive epochs without the loss improving by at least
    /// `min_delta`. `None` disables early stopping.
    pub patience: Option<usize>,
    /// Minimum per-epoch loss improvement that counts as progress.
    pub min_delta: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 3,
            batches_per_epoch: 20,
            batch_size: 32,
            negatives: 4,
            patience: None,
            min_delta: 1e-4,
            seed: 42,
        }
    }
}

/// Loss trace of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean contrastive loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Whether early stopping fired before `epochs` completed.
    pub early_stopped: bool,
}

impl TrainReport {
    /// Final epoch loss.
    pub fn final_loss(&self) -> f64 {
        self.epoch_losses.last().copied().unwrap_or(f64::NAN)
    }
}

/// Result of one contrastive gradient step ([`contrastive_step`]).
#[derive(Debug)]
pub struct BatchOutcome {
    /// Sum of per-pair logistic losses over the batch.
    pub loss_sum: f64,
    /// Number of scored pairs (positives plus negatives).
    pub pairs: usize,
    /// Input-feature gradients accumulated by the tape, keyed by vertex id —
    /// what a distributed worker pushes to the sparse parameter server. The
    /// sequential trainer discards them (input features are frozen there).
    pub feature_grads: HashMap<u32, Vec<f32>>,
}

/// One contrastive mini-batch over pre-sampled positive `edges`: forward
/// (one COMBINE per hop for the whole batch), loss, backward, and
/// dense-parameter step. Shared verbatim between
/// [`train_unsupervised`] and the distributed runtime workers, so both
/// produce bit-identical trajectories from the same RNG stream.
///
/// Neighborhoods are read through `access` (the graph itself, or a
/// shard-local `ClusterView`); edge records and negatives come from `graph`.
#[allow(clippy::too_many_arguments, reason = "the training step's inputs, each used once")]
pub fn contrastive_step<A: NeighborAccess, S: NeighborhoodSampler, R: Rng>(
    encoder: &mut GnnEncoder,
    graph: &AttributedHeterogeneousGraph,
    access: &A,
    features: &FeatureMatrix,
    sampler: &S,
    edges: &[EdgeId],
    negatives: usize,
    rng: &mut R,
) -> BatchOutcome {
    // Plan every root of the batch — the sampling draws interleave with the
    // negative draws exactly as a forward per root would — then one flush.
    let mut tape = EpisodeTape::new();
    let mut roots = Vec::with_capacity(edges.len());
    for &e in edges {
        let rec = graph.edge(e);
        let iu = encoder.plan(access, sampler, rec.src, &mut tape, rng);
        let iv = encoder.plan(access, sampler, rec.dst, &mut tape, rng);
        // Negatives share the positive destination's vertex type, so
        // training contrasts match the link-prediction protocol.
        let negative = UniformNegative { vtype: Some(graph.vertex_type(rec.dst)) };
        let negs = negative.sample(graph, &[rec.src, rec.dst], negatives, rng);
        let inegs: Vec<usize> =
            negs.into_iter().map(|n| encoder.plan(access, sampler, n, &mut tape, rng)).collect();
        roots.push((iu, iv, inegs));
    }
    encoder.flush(features, &mut tape);

    let mut loss_sum = 0.0f64;
    let mut pairs = 0usize;
    for (iu, iv, inegs) in roots {
        // Positive pair.
        let (zu, zv) = (tape.output(iu).to_vec(), tape.output(iv).to_vec());
        let s = aligraph_tensor::dot(&zu, &zv);
        loss_sum += logistic_loss(s, true) as f64;
        let g = logistic_grad(s, true);
        tape.add_grad(iu, &scaled(&zv, g));
        tape.add_grad(iv, &scaled(&zu, g));

        // Negatives.
        for ing in inegs {
            let zn = tape.output(ing).to_vec();
            let s = aligraph_tensor::dot(&zu, &zn);
            loss_sum += logistic_loss(s, false) as f64;
            let g = logistic_grad(s, false);
            tape.add_grad(iu, &scaled(&zn, g));
            tape.add_grad(ing, &scaled(&zu, g));
        }
        pairs += 1 + negatives;
    }
    encoder.backward(&mut tape, features);
    encoder.step(edges.len());
    BatchOutcome { loss_sum, pairs, feature_grads: std::mem::take(&mut tape.feature_grads) }
}

/// Unsupervised edge-contrastive training (the GraphSAGE objective): for a
/// traversed edge `(u, v)` push `z_u · z_v` up and `z_u · z_neg` down,
/// backpropagating through the whole Algorithm 1 recursion.
pub fn train_unsupervised<S: NeighborhoodSampler>(
    encoder: &mut GnnEncoder,
    graph: &AttributedHeterogeneousGraph,
    features: &FeatureMatrix,
    sampler: &S,
    config: &TrainConfig,
) -> TrainReport {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut epoch_losses: Vec<f64> = Vec::with_capacity(config.epochs);
    let mut early_stopped = false;
    let mut best_loss = f64::INFINITY;
    let mut stall = 0usize;

    for _ in 0..config.epochs {
        let mut epoch_loss = 0.0f64;
        let mut pairs = 0usize;
        for _ in 0..config.batches_per_epoch {
            // One positive edge per element, any edge type.
            let etype = aligraph_graph::EdgeType(rng.gen_range(0..graph.num_edge_types().max(1)));
            let edges = UniformTraverse.sample_edges(graph, etype, config.batch_size, &mut rng);
            if edges.is_empty() {
                continue;
            }
            let out = contrastive_step(
                encoder,
                graph,
                graph,
                features,
                sampler,
                &edges,
                config.negatives,
                &mut rng,
            );
            epoch_loss += out.loss_sum;
            pairs += out.pairs;
        }
        let mean = epoch_loss / pairs.max(1) as f64;
        epoch_losses.push(mean);
        // Early stopping: terminate training when no promising results can
        // be generated any more (paper §7).
        if let Some(patience) = config.patience {
            if mean + config.min_delta < best_loss {
                best_loss = mean;
                stall = 0;
            } else {
                stall += 1;
                if stall >= patience {
                    early_stopped = true;
                    break;
                }
            }
        }
    }
    TrainReport { epoch_losses, early_stopped }
}

/// Embeds every vertex with the (trained) encoder — inference pass.
pub fn embed_all<S: NeighborhoodSampler>(
    encoder: &GnnEncoder,
    graph: &AttributedHeterogeneousGraph,
    features: &FeatureMatrix,
    sampler: &S,
    seed: u64,
) -> MatrixEmbeddings {
    let mut rng = StdRng::seed_from_u64(seed);
    let seeds: Vec<VertexId> = graph.vertices().collect();
    let matrix = encoder.embed_batch(graph, features, sampler, &seeds, &mut rng);
    MatrixEmbeddings { matrix }
}

/// Scores a link-prediction split with a model, averaging the metric bundle
/// over edge types (the paper's protocol).
pub fn evaluate_split<M: EmbeddingModel + ?Sized>(model: &M, split: &LinkSplit) -> LinkMetrics {
    let mut per_type = Vec::new();
    for t in split.test_edge_types() {
        let (pos, neg) = split.of_type(t);
        if pos.is_empty() || neg.is_empty() {
            continue;
        }
        let mut scored = Vec::with_capacity(pos.len() + neg.len());
        for e in pos {
            scored.push((model.score(e.src, e.dst), true));
        }
        for e in neg {
            scored.push((model.score(e.src, e.dst), false));
        }
        per_type.push(LinkMetrics::from_scored(&scored));
    }
    LinkMetrics::average(&per_type)
}

/// Scales and clamps a loss gradient. The clamp breaks the positive
/// feedback loop between growing embedding norms and growing gradients
/// (`dL/dz_u = g·z_v`) that otherwise drives long runs to overflow.
fn scaled(v: &[f32], s: f32) -> Vec<f32> {
    v.iter().map(|&x| (x * s).clamp(-1.0, 1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_eval::link_prediction_split;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_graph::Featurizer;
    use aligraph_sampling::UniformNeighborhood;

    #[test]
    fn unsupervised_training_reduces_loss() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let f = Featurizer::new(16).matrix(&g);
        let mut enc = GnnEncoder::sage(16, &[16], &[5], 0.05, 1);
        let cfg = TrainConfig {
            epochs: 4,
            batches_per_epoch: 10,
            batch_size: 16,
            negatives: 3,
            seed: 2,
            ..TrainConfig::default()
        };
        let report = train_unsupervised(&mut enc, &g, &f, &UniformNeighborhood, &cfg);
        assert_eq!(report.epoch_losses.len(), 4);
        assert!(report.final_loss() < report.epoch_losses[0], "{:?}", report.epoch_losses);
    }

    #[test]
    fn trained_model_beats_random_on_link_prediction() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let split = link_prediction_split(&g, 0.15, 3);
        let f = Featurizer::new(32).with_identity().matrix(&split.train);
        let mut enc = GnnEncoder::sage(32, &[32, 16], &[6, 3], 0.02, 4);
        let cfg = TrainConfig {
            epochs: 8,
            batches_per_epoch: 20,
            batch_size: 24,
            negatives: 4,
            seed: 5,
            ..TrainConfig::default()
        };
        train_unsupervised(&mut enc, &split.train, &f, &UniformNeighborhood, &cfg);
        let model = embed_all(&enc, &split.train, &f, &UniformNeighborhood, 6);
        let metrics = evaluate_split(&model, &split);
        assert!(metrics.roc_auc > 0.55, "AUC {}", metrics.roc_auc);
    }

    #[test]
    fn matrix_embeddings_scoring() {
        let mut m = Matrix::zeros(2, 2);
        m.row_mut(0).copy_from_slice(&[1.0, 0.0]);
        m.row_mut(1).copy_from_slice(&[1.0, 1.0]);
        let model = MatrixEmbeddings { matrix: m };
        assert!((model.score(VertexId(0), VertexId(1)) - 1.0).abs() < 1e-6);
        assert_eq!(model.embedding(VertexId(1)), vec![1.0, 1.0]);
    }
}
