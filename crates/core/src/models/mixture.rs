//! Mixture GNN (paper §4.2, Eq. 5–6): a multi-sense skip-gram for
//! heterogeneous graphs where each vertex owns several *sense* embeddings
//! ("each node owns multiple senses" — a user is simultaneously a parent, a
//! gamer, a commuter).
//!
//! Directly optimizing the mixture likelihood (Eq. 6) does not compose with
//! negative sampling, so the paper derives a lower bound whose terms *are*
//! negative-sampling-friendly. The standard tight relaxation of that bound
//! is hard-EM: for every (center, context) pair, credit the sense that
//! explains the pair best, and apply an ordinary SGNS update to it. The
//! sense posterior `P(s|v)` is tracked from the assignment counts and used
//! to form the expected embedding at inference time.

use crate::trainer::EmbeddingModel;
use aligraph_graph::{AttributedHeterogeneousGraph, VertexId};
use aligraph_sampling::walks::{skipgram_pairs, uniform_walk, WalkDirection};
use aligraph_sampling::{NegativeSampler, UnigramNegative};
use aligraph_tensor::loss::sgns_update;
use aligraph_tensor::EmbeddingTable;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mixture GNN hyper-parameters.
#[derive(Debug, Clone)]
pub struct MixtureConfig {
    /// Embedding dimension per sense.
    pub dim: usize,
    /// Number of senses per vertex.
    pub senses: usize,
    /// Walks per vertex.
    pub walks_per_vertex: usize,
    /// Walk length.
    pub walk_length: usize,
    /// Skip-gram window.
    pub window: usize,
    /// Negatives per positive.
    pub negatives: usize,
    /// Epochs over the corpus.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl MixtureConfig {
    /// A small, fast configuration.
    pub fn quick() -> Self {
        MixtureConfig {
            dim: 24,
            senses: 3,
            walks_per_vertex: 2,
            walk_length: 8,
            window: 2,
            negatives: 3,
            epochs: 2,
            lr: 0.05,
            seed: 51,
        }
    }
}

/// A trained Mixture GNN.
#[derive(Debug)]
pub struct TrainedMixture {
    /// One input table per sense.
    pub sense_tables: Vec<EmbeddingTable>,
    /// Shared context (output) table.
    pub context: EmbeddingTable,
    /// `posterior[v][s] = P(s | v)` from training assignments.
    pub posterior: Vec<Vec<f32>>,
    dim: usize,
}

impl TrainedMixture {
    /// The expected embedding `Σ_s P(s|v) e_{v,s}` used for scoring.
    pub fn expected_embedding(&self, v: VertexId) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        for (s, table) in self.sense_tables.iter().enumerate() {
            let p = self.posterior[v.index()][s];
            for (o, &x) in out.iter_mut().zip(table.row(v.index())) {
                *o += p * x;
            }
        }
        out
    }

    /// Best-sense score: `max_s e_{v,s} · ctx_u` — matches the hard-EM
    /// training objective and is what the recommender uses.
    pub fn score_best_sense(&self, v: VertexId, u: VertexId) -> f32 {
        self.sense_tables
            .iter()
            .map(|t| aligraph_tensor::dot(t.row(v.index()), self.context.row(u.index())))
            .fold(f32::MIN, f32::max)
    }

    /// Ranks `candidates` for `user` by best-sense score, descending.
    pub fn recommend(&self, user: VertexId, candidates: &[VertexId]) -> Vec<VertexId> {
        let mut scored: Vec<(VertexId, f32)> =
            candidates.iter().map(|&c| (c, self.score_best_sense(user, c))).collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.into_iter().map(|(c, _)| c).collect()
    }
}

impl EmbeddingModel for TrainedMixture {
    fn embedding(&self, v: VertexId) -> Vec<f32> {
        self.expected_embedding(v)
    }
}

/// Trains the mixture model with hard-EM sense assignment.
pub fn train_mixture(
    graph: &AttributedHeterogeneousGraph,
    config: &MixtureConfig,
) -> TrainedMixture {
    let n = graph.num_vertices();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut sense_tables: Vec<EmbeddingTable> = (0..config.senses)
        .map(|s| EmbeddingTable::new(n, config.dim, config.seed + 13 * s as u64))
        .collect();
    let mut context = EmbeddingTable::zeros(n, config.dim);
    let mut counts = vec![vec![1.0f32; config.senses]; n]; // Laplace prior
    let negative = UnigramNegative::new(graph, None, 0.75);

    for _ in 0..config.epochs {
        for v in graph.vertices() {
            for _ in 0..config.walks_per_vertex {
                let walk =
                    uniform_walk(graph, v, config.walk_length, None, WalkDirection::Both, &mut rng);
                for (center, ctx) in skipgram_pairs(&walk, config.window) {
                    // E-step (hard): pick the sense explaining the pair best.
                    #[expect(
                        clippy::expect_used,
                        reason = "GatneConfig validates senses >= 1, so max_by is non-empty"
                    )]
                    let best = (0..config.senses)
                        .max_by(|&a, &b| {
                            let sa =
                                sense_tables[a].dot_with(center.index(), &context, ctx.index());
                            let sb =
                                sense_tables[b].dot_with(center.index(), &context, ctx.index());
                            sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .expect("senses >= 1");
                    counts[center.index()][best] += 1.0;
                    // M-step: one SGNS update on the chosen sense.
                    let negs = negative.sample(graph, &[center, ctx], config.negatives, &mut rng);
                    let neg_idx: Vec<usize> = negs.iter().map(|n| n.index()).collect();
                    sgns_update(
                        &mut sense_tables[best],
                        &mut context,
                        center.index(),
                        ctx.index(),
                        &neg_idx,
                        config.lr,
                    );
                }
            }
        }
    }

    // Normalize assignment counts into the posterior P(s|v).
    let posterior = counts
        .into_iter()
        .map(|row| {
            let total: f32 = row.iter().sum();
            row.into_iter().map(|c| c / total).collect()
        })
        .collect();

    TrainedMixture { sense_tables, context, posterior, dim: config.dim }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_graph::ids::well_known::*;

    #[test]
    fn posterior_is_a_distribution() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let m = train_mixture(&g, &MixtureConfig::quick());
        for v in g.vertices().take(20) {
            let total: f32 = m.posterior[v.index()].iter().sum();
            assert!((total - 1.0).abs() < 1e-4);
            assert!(m.posterior[v.index()].iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn senses_diverge() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let m = train_mixture(&g, &MixtureConfig::quick());
        // After training, at least some vertex has distinct sense embeddings.
        let v = g.vertices_of_type(USER)[0];
        let e0 = m.sense_tables[0].row(v.index());
        let e1 = m.sense_tables[1].row(v.index());
        assert_ne!(e0, e1);
    }

    #[test]
    fn recommendation_prefers_interacted_items() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let m = train_mixture(&g, &MixtureConfig::quick());
        // A user's actually-clicked item should rank above a random cold one
        // on average.
        let mut better = 0;
        let mut total = 0;
        for &u in g.vertices_of_type(USER).iter().take(40) {
            let out = g.out_neighbors(u);
            if out.is_empty() {
                continue;
            }
            let liked = out[0].vertex;
            let items = g.vertices_of_type(ITEM);
            let cold = items[(u.0 as usize * 17) % items.len()];
            if cold == liked {
                continue;
            }
            if m.score_best_sense(u, liked) > m.score_best_sense(u, cold) {
                better += 1;
            }
            total += 1;
        }
        assert!(better * 2 > total, "{better}/{total}");
    }

    #[test]
    fn recommend_sorts_descending() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let m = train_mixture(&g, &MixtureConfig::quick());
        let u = g.vertices_of_type(USER)[0];
        let cands: Vec<VertexId> = g.vertices_of_type(ITEM)[..10].to_vec();
        let ranked = m.recommend(u, &cands);
        assert_eq!(ranked.len(), 10);
        for w in ranked.windows(2) {
            assert!(m.score_best_sense(u, w[0]) >= m.score_best_sense(u, w[1]));
        }
    }
}
