//! Recommendation autoencoders for the Table 9 comparison: DAE (denoising
//! autoencoder, Vincent et al.) and β-VAE-style variational autoencoder
//! (Liang et al.'s partially-regularized Mult-VAE, reduced to a Gaussian
//! VAE with a β-weighted KL term).
//!
//! Both operate on implicit-feedback user rows: `x_u[i] = 1` iff user `u`
//! interacted with item `i`. Recommendation = the reconstruction scores of
//! items the user has not interacted with.

use aligraph_graph::{AttributedHeterogeneousGraph, VertexId, VertexType};
use aligraph_ops::{Activation, DenseLayer};
use aligraph_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which autoencoder to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecommenderKind {
    /// Denoising autoencoder with input dropout.
    Dae,
    /// Variational autoencoder with β-weighted KL regularization.
    BetaVae,
}

/// Autoencoder hyper-parameters.
#[derive(Debug, Clone)]
pub struct RecommenderConfig {
    /// Which model.
    pub kind: RecommenderKind,
    /// Hidden/latent width.
    pub hidden: usize,
    /// Epochs over all users.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// DAE: input corruption probability. β-VAE: the β weight.
    pub regularization: f32,
    /// Vertex type of the users.
    pub user_type: VertexType,
    /// Vertex type of the items.
    pub item_type: VertexType,
    /// RNG seed.
    pub seed: u64,
}

impl RecommenderConfig {
    /// A quick DAE config for the u-i graphs.
    pub fn dae_quick() -> Self {
        RecommenderConfig {
            kind: RecommenderKind::Dae,
            hidden: 32,
            epochs: 6,
            lr: 0.01,
            regularization: 0.3,
            user_type: VertexType(0),
            item_type: VertexType(1),
            seed: 201,
        }
    }

    /// A quick β-VAE config.
    pub fn beta_vae_quick() -> Self {
        RecommenderConfig {
            kind: RecommenderKind::BetaVae,
            regularization: 0.2,
            seed: 202,
            ..Self::dae_quick()
        }
    }
}

/// A trained recommender.
#[derive(Debug)]
pub struct TrainedRecommender {
    encoder: DenseLayer,
    decoder: DenseLayer,
    /// Item roster: column `i` of the preference vector is `items[i]`.
    pub items: Vec<VertexId>,
    item_col: std::collections::HashMap<u32, usize>,
    kind: RecommenderKind,
}

impl TrainedRecommender {
    /// Column index of an item vertex, if it is in the roster.
    pub fn item_column(&self, item: VertexId) -> Option<usize> {
        self.item_col.get(&item.0).copied()
    }

    /// Builds a user's binary preference row over the item roster.
    pub fn preference_row(&self, graph: &AttributedHeterogeneousGraph, user: VertexId) -> Vec<f32> {
        let mut x = vec![0.0f32; self.items.len()];
        for nb in graph.out_neighbors(user) {
            if let Some(col) = self.item_column(nb.vertex) {
                x[col] = 1.0;
            }
        }
        x
    }

    /// Reconstruction scores over the whole item roster for one user row.
    pub fn scores(&self, x: &[f32]) -> Vec<f32> {
        let input = Matrix::from_vec(1, x.len(), x.to_vec());
        let h = self.encoder.forward(&input);
        // VAE inference uses the latent mean (no sampling at test time).
        let out = self.decoder.forward(&h);
        out.as_slice().to_vec()
    }

    /// Ranked item recommendations for a user, excluding already-seen items.
    pub fn recommend(
        &self,
        graph: &AttributedHeterogeneousGraph,
        user: VertexId,
        k: usize,
    ) -> Vec<VertexId> {
        let x = self.preference_row(graph, user);
        let scores = self.scores(&x);
        let mut ranked: Vec<(usize, f32)> =
            scores.into_iter().enumerate().filter(|&(col, _)| x[col] == 0.0).collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        ranked.into_iter().take(k).map(|(col, _)| self.items[col]).collect()
    }

    /// The model kind.
    pub fn kind(&self) -> RecommenderKind {
        self.kind
    }
}

/// Trains a DAE or β-VAE on the user→item interactions of `graph`.
pub fn train_recommender(
    graph: &AttributedHeterogeneousGraph,
    config: &RecommenderConfig,
) -> TrainedRecommender {
    let items: Vec<VertexId> = graph.vertices_of_type(config.item_type).to_vec();
    let item_col: std::collections::HashMap<u32, usize> =
        items.iter().enumerate().map(|(i, v)| (v.0, i)).collect();
    let users: Vec<VertexId> = graph.vertices_of_type(config.user_type).to_vec();
    let num_items = items.len();

    let mut encoder =
        DenseLayer::new(num_items, config.hidden, Activation::Tanh, config.lr, config.seed);
    let mut decoder =
        DenseLayer::new(config.hidden, num_items, Activation::Sigmoid, config.lr, config.seed + 1);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xec);

    let mut model = TrainedRecommender {
        encoder: encoder.clone(),
        decoder: decoder.clone(),
        items,
        item_col,
        kind: config.kind,
    };

    for _ in 0..config.epochs {
        for &user in &users {
            let x = model.preference_row(graph, user);
            if x.iter().all(|&v| v == 0.0) {
                continue;
            }
            // Corrupt (DAE) or keep (VAE) the input.
            let mut input = x.clone();
            if config.kind == RecommenderKind::Dae {
                for v in input.iter_mut() {
                    if *v > 0.0 && rng.gen::<f32>() < config.regularization {
                        *v = 0.0;
                    }
                }
            }
            let input_m = Matrix::from_vec(1, input.len(), input);
            let mut h = encoder.forward(&input_m);

            // β-VAE: treat h as the latent mean, add unit-variance noise
            // scaled by β at train time (the reparameterized sample) and pay
            // a KL-like shrinkage on the mean.
            if config.kind == RecommenderKind::BetaVae {
                for v in h.as_mut_slice() {
                    *v += config.regularization * (rng.gen::<f32>() - 0.5);
                }
            }
            let out = decoder.forward(&h);

            // Binary cross-entropy against the *uncorrupted* row.
            let mut grad = Matrix::zeros(1, x.len());
            for (i, &target) in x.iter().enumerate() {
                grad.set(0, i, out.get(0, i) - target); // σ-BCE gradient
            }
            let dh = decoder.backward(h.clone(), &out, &grad);
            let mut dh = dh;
            if config.kind == RecommenderKind::BetaVae {
                // KL shrinkage on the latent mean: pull toward 0.
                for (g, &m) in dh.as_mut_slice().iter_mut().zip(h.as_slice()) {
                    *g += config.regularization * m;
                }
            }
            encoder.backward(input_m, &h, &dh);
            decoder.step(1);
            encoder.step(1);
        }
    }

    model.encoder = encoder;
    model.decoder = decoder;
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_graph::ids::well_known::*;

    fn graph() -> AttributedHeterogeneousGraph {
        TaobaoConfig::tiny().generate().unwrap()
    }

    #[test]
    fn dae_recommends_unseen_items() {
        let g = graph();
        let model = train_recommender(&g, &RecommenderConfig::dae_quick());
        let user = g.vertices_of_type(USER)[0];
        let recs = model.recommend(&g, user, 5);
        assert_eq!(recs.len(), 5);
        // Recommendations exclude interacted items.
        let seen: Vec<VertexId> = g.out_neighbors(user).iter().map(|n| n.vertex).collect();
        assert!(recs.iter().all(|r| !seen.contains(r)));
        assert!(recs.iter().all(|r| g.vertex_type(*r) == ITEM));
    }

    #[test]
    fn vae_trains() {
        let g = graph();
        let model = train_recommender(&g, &RecommenderConfig::beta_vae_quick());
        assert_eq!(model.kind(), RecommenderKind::BetaVae);
        let user = g.vertices_of_type(USER)[1];
        assert!(!model.recommend(&g, user, 3).is_empty());
    }

    #[test]
    fn popular_items_score_high() {
        let g = graph();
        let model = train_recommender(&g, &RecommenderConfig::dae_quick());
        // Zipf generator: earliest item ids are the most popular; the mean
        // reconstruction score of the top-popular item should exceed that of
        // the least popular.
        let items = g.vertices_of_type(ITEM);
        let most = items[0];
        let least = items[items.len() - 1];
        let (mc, lc) = (model.item_column(most).unwrap(), model.item_column(least).unwrap());
        let mut most_sum = 0.0f32;
        let mut least_sum = 0.0f32;
        for &u in g.vertices_of_type(USER).iter().take(30) {
            let scores = model.scores(&model.preference_row(&g, u));
            most_sum += scores[mc];
            least_sum += scores[lc];
        }
        assert!(most_sum > least_sum, "popular {most_sum} vs cold {least_sum}");
    }

    #[test]
    fn preference_row_marks_interactions() {
        let g = graph();
        let model = train_recommender(&g, &RecommenderConfig::dae_quick());
        let user = g.vertices_of_type(USER)[2];
        let row = model.preference_row(&g, user);
        let interactions =
            g.out_neighbors(user).iter().filter(|n| g.vertex_type(n.vertex) == ITEM).count();
        let marked = row.iter().filter(|&&x| x > 0.0).count();
        assert!(marked <= interactions);
        assert!(marked >= 1 || interactions == 0);
    }
}
