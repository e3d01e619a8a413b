//! GCN, FastGCN and AS-GCN (paper §4.1): the same Algorithm 1 encoder with
//! different SAMPLE and COMBINE plugins.
//!
//! * **GCN** — full-neighborhood convolution (capped fan-out), sum COMBINE;
//! * **FastGCN** — layer-wise importance sampling: one degree-proportional
//!   candidate set is drawn per mini-batch and neighborhoods are restricted
//!   to it;
//! * **AS-GCN** — adaptive sampling: per-vertex dynamic weights, updated
//!   from the backward pass (vertices whose embeddings receive large
//!   gradients are sampled more), via the §3.3 "register a gradient
//!   function for the sampler" mechanism.

use crate::framework::{FullNeighborhood, GnnEncoder};
use crate::trainer::{embed_all, train_unsupervised, MatrixEmbeddings, TrainConfig, TrainReport};
use aligraph_graph::{AttributedHeterogeneousGraph, Featurizer, Neighbor, VertexId};
use aligraph_ops::{Activation, Combiner, GcnCombiner, SumAggregator};
use aligraph_sampling::{DynamicNeighborhood, DynamicWeights, NeighborhoodSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// Shared config for the GCN family.
#[derive(Debug, Clone)]
pub struct GcnConfig {
    /// Input feature dimension.
    pub feature_dim: usize,
    /// Hidden/output dims per hop.
    pub dims: Vec<usize>,
    /// Fan-out cap per hop (GCN uses the full neighborhood up to this cap).
    pub fanouts: Vec<usize>,
    /// Learning rate.
    pub lr: f32,
    /// Trainer settings.
    pub train: TrainConfig,
}

impl GcnConfig {
    /// A small, fast configuration.
    pub fn quick() -> Self {
        GcnConfig {
            feature_dim: 16,
            dims: vec![24, 16],
            fanouts: vec![8, 4],
            lr: 0.03,
            train: TrainConfig {
                epochs: 4,
                batches_per_epoch: 12,
                batch_size: 24,
                negatives: 4,
                seed: 21,
                ..TrainConfig::default()
            },
        }
    }
}

fn gcn_encoder(config: &GcnConfig) -> GnnEncoder {
    let mut combiners: Vec<Box<dyn Combiner>> = Vec::new();
    let mut prev = config.feature_dim;
    for (k, &d) in config.dims.iter().enumerate() {
        combiners.push(Box::new(GcnCombiner::new(
            prev,
            d,
            if k + 1 == config.dims.len() { Activation::Linear } else { Activation::Relu },
            config.lr,
            config.train.seed.wrapping_add(100 + k as u64),
        )));
        prev = d;
    }
    GnnEncoder::custom(
        config.feature_dim,
        config.dims.clone(),
        config.fanouts.clone(),
        Box::new(SumAggregator),
        combiners,
    )
}

/// A trained GCN-family model.
#[derive(Debug)]
pub struct TrainedGcn {
    /// Final vertex embeddings.
    pub embeddings: MatrixEmbeddings,
    /// Training report.
    pub report: TrainReport,
}

/// Trains a vanilla GCN (full neighborhoods, sum combine).
pub fn train_gcn(graph: &AttributedHeterogeneousGraph, config: &GcnConfig) -> TrainedGcn {
    let features = Featurizer::new(config.feature_dim).matrix(graph);
    let mut encoder = gcn_encoder(config);
    let report =
        train_unsupervised(&mut encoder, graph, &features, &FullNeighborhood, &config.train);
    let embeddings = embed_all(&encoder, graph, &features, &FullNeighborhood, config.train.seed);
    TrainedGcn { embeddings, report }
}

/// FastGCN's layer-wise sampler: neighborhoods restricted to a global
/// candidate set drawn with probability proportional to degree (the
/// importance distribution `q(v) ∝ ||Â(:,v)||²` of the FastGCN paper,
/// approximated by degree).
#[derive(Debug, Clone)]
pub struct FastGcnSampler {
    candidate_set: HashSet<u32>,
}

impl FastGcnSampler {
    /// Draws a layer sample of `size` vertices, degree-proportionally.
    pub fn draw(graph: &AttributedHeterogeneousGraph, size: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f32> = graph
            .vertices()
            .map(|v| (graph.in_degree(v) + graph.out_degree(v)) as f32 + 1e-3)
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "one weight >= 1e-3 per vertex: the table is non-empty with positive mass"
        )]
        let table = aligraph_sampling::AliasTable::new(&weights).expect("non-empty graph");
        let mut candidate_set = HashSet::with_capacity(size);
        // Bounded attempts: the set saturates on small graphs.
        for _ in 0..size * 4 {
            if candidate_set.len() >= size {
                break;
            }
            candidate_set.insert(table.sample(&mut rng) as u32);
        }
        FastGcnSampler { candidate_set }
    }

    /// Number of candidates in the layer sample.
    pub fn len(&self) -> usize {
        self.candidate_set.len()
    }

    /// True when the candidate set is empty.
    pub fn is_empty(&self) -> bool {
        self.candidate_set.is_empty()
    }
}

impl NeighborhoodSampler for FastGcnSampler {
    fn sample_one<R: Rng>(
        &self,
        _target: VertexId,
        nbrs: &[Neighbor],
        count: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        let eligible: Vec<VertexId> = nbrs
            .iter()
            .filter(|n| self.candidate_set.contains(&n.vertex.0))
            .map(|n| n.vertex)
            .collect();
        if eligible.is_empty() {
            // Fall back to one uniform neighbor so the convolution never
            // sees an artificially empty frontier.
            return if nbrs.is_empty() {
                Vec::new()
            } else {
                vec![nbrs[rng.gen_range(0..nbrs.len())].vertex]
            };
        }
        (0..count.min(eligible.len() * 2))
            .map(|_| eligible[rng.gen_range(0..eligible.len())])
            .take(count)
            .collect()
    }
}

/// Trains FastGCN: a fresh layer sample per epoch restricts all
/// neighborhoods, trading variance for much less computation.
pub fn train_fastgcn(
    graph: &AttributedHeterogeneousGraph,
    config: &GcnConfig,
    layer_sample_size: usize,
) -> TrainedGcn {
    let features = Featurizer::new(config.feature_dim).matrix(graph);
    let mut encoder = gcn_encoder(config);
    let mut last = TrainReport { epoch_losses: Vec::new(), early_stopped: false };
    let mut per_epoch = config.train.clone();
    per_epoch.epochs = 1;
    let mut losses = Vec::new();
    for e in 0..config.train.epochs {
        let sampler = FastGcnSampler::draw(graph, layer_sample_size, config.train.seed + e as u64);
        per_epoch.seed = config.train.seed + 1_000 + e as u64;
        last = train_unsupervised(&mut encoder, graph, &features, &sampler, &per_epoch);
        losses.extend(last.epoch_losses.iter().copied());
    }
    let _ = last;
    let sampler = FastGcnSampler::draw(graph, layer_sample_size, config.train.seed + 999);
    let embeddings = embed_all(&encoder, graph, &features, &sampler, config.train.seed);
    TrainedGcn { embeddings, report: TrainReport { epoch_losses: losses, early_stopped: false } }
}

/// Trains AS-GCN: a [`DynamicNeighborhood`] sampler whose per-vertex
/// weights are adapted from the magnitude of feature gradients after each
/// epoch (frequently-informative vertices get sampled more).
pub fn train_asgcn(graph: &AttributedHeterogeneousGraph, config: &GcnConfig) -> TrainedGcn {
    let features = Featurizer::new(config.feature_dim).matrix(graph);
    let mut encoder = gcn_encoder(config);
    let weights = Arc::new(
        DynamicWeights::synchronous(graph.num_vertices(), 1.0)
            // Adaptive rule: raw_grad is the gradient magnitude seen at a
            // vertex; upweight proportionally (bounded).
            .register_gradient(|g| (0.1 * g).clamp(-0.5, 0.5)),
    );
    let sampler = DynamicNeighborhood { weights: Arc::clone(&weights) };

    let mut per_epoch = config.train.clone();
    per_epoch.epochs = 1;
    let mut losses = Vec::new();
    let mut rng = StdRng::seed_from_u64(config.train.seed ^ 0xa5);
    for e in 0..config.train.epochs {
        per_epoch.seed = config.train.seed + 2_000 + e as u64;
        let report = train_unsupervised(&mut encoder, graph, &features, &sampler, &per_epoch);
        losses.extend(report.epoch_losses);
        // Adapt sampling weights: probe gradient magnitudes on a seed batch.
        let mut tape = crate::framework::EpisodeTape::new();
        let roots: Vec<usize> = (0..32)
            .map(|_| {
                let v = VertexId(rng.gen_range(0..graph.num_vertices() as u32));
                encoder.plan(graph, &sampler, v, &mut tape, &mut rng)
            })
            .collect();
        encoder.flush(&features, &mut tape);
        for idx in roots {
            let out = tape.output(idx).to_vec();
            tape.add_grad(idx, &out); // self-similarity probe
        }
        encoder.backward(&mut tape, &features);
        #[expect(
            clippy::iter_over_hash_type,
            reason = "order-insensitive: keys are unique and a synchronous backward adds to v's slot only"
        )]
        for (&v, g) in &tape.feature_grads {
            let mag: f32 = g.iter().map(|x| x.abs()).sum();
            weights.backward(VertexId(v), mag);
        }
    }
    let embeddings = embed_all(&encoder, graph, &features, &sampler, config.train.seed);
    TrainedGcn { embeddings, report: TrainReport { epoch_losses: losses, early_stopped: false } }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::evaluate_split;
    use aligraph_eval::link_prediction_split;
    use aligraph_graph::generate::TaobaoConfig;

    fn tiny() -> AttributedHeterogeneousGraph {
        TaobaoConfig::tiny().generate().unwrap()
    }

    #[test]
    fn gcn_trains_and_predicts() {
        let g = tiny();
        let split = link_prediction_split(&g, 0.15, 2);
        // Seed re-pinned for the vendored rand shim, whose StdRng stream
        // differs from upstream; see vendor/README.md.
        let mut config = GcnConfig::quick();
        config.train.seed = 3;
        let trained = train_gcn(&split.train, &config);
        let m = evaluate_split(&trained.embeddings, &split);
        assert!(m.roc_auc > 0.52, "AUC {}", m.roc_auc);
    }

    #[test]
    fn fastgcn_layer_sampler_restricts() {
        let g = tiny();
        let sampler = FastGcnSampler::draw(&g, 50, 1);
        assert!(sampler.len() <= 50);
        assert!(!sampler.is_empty());
        let mut rng = StdRng::seed_from_u64(2);
        let v = g.vertices().find(|&v| g.out_degree(v) > 0).unwrap();
        let s = sampler.sample_one(v, g.out_neighbors(v), 4, &mut rng);
        assert!(!s.is_empty());
    }

    #[test]
    fn fastgcn_trains() {
        let g = tiny();
        let trained = train_fastgcn(&g, &GcnConfig::quick(), 80);
        assert_eq!(trained.embeddings.matrix.rows, g.num_vertices());
        assert!(!trained.report.epoch_losses.is_empty());
    }

    #[test]
    fn asgcn_trains_and_adapts_weights() {
        let g = tiny();
        let trained = train_asgcn(&g, &GcnConfig::quick());
        assert_eq!(trained.embeddings.matrix.rows, g.num_vertices());
        assert!(!trained.report.epoch_losses.is_empty());
    }

    /// The weight adaptation walks `feature_grads`, a hash map whose order
    /// differs between two runs; the walk must not reach the result.
    #[test]
    fn asgcn_is_a_function_of_the_seed() {
        let g = tiny();
        let bits = |t: &TrainedGcn| {
            let losses: Vec<u64> = t.report.epoch_losses.iter().map(|l| l.to_bits()).collect();
            let emb: Vec<u32> =
                t.embeddings.matrix.as_slice().iter().map(|x| x.to_bits()).collect();
            (losses, emb)
        };
        let first = bits(&train_asgcn(&g, &GcnConfig::quick()));
        assert_eq!(first, bits(&train_asgcn(&g, &GcnConfig::quick())));
    }
}
