//! Auto-ML model selection (paper §7, future work item 4): "select the
//! optimal method from a variety of GNNs".
//!
//! [`select_model`] holds out a validation split, trains every registered
//! candidate on the remaining graph, scores each on validation link
//! prediction, and returns the leaderboard. Candidates are closures, so any
//! model in the zoo — in-house or baseline — can enter the tournament.

use crate::trainer::{evaluate_split, EmbeddingModel};
use aligraph_eval::{link_prediction_split, LinkMetrics};
use aligraph_graph::AttributedHeterogeneousGraph;

/// A competitor in the selection tournament.
pub struct Candidate<'a> {
    /// Display name.
    pub name: &'a str,
    /// Trains on the given (validation-held-out) graph and returns a model.
    #[expect(clippy::type_complexity, reason = "a boxed trainer closure; an alias would hide it")]
    pub train: Box<dyn Fn(&AttributedHeterogeneousGraph) -> Box<dyn EmbeddingModel> + 'a>,
}

impl std::fmt::Debug for Candidate<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Candidate").field("name", &self.name).finish()
    }
}

impl<'a> Candidate<'a> {
    /// Wraps a training closure.
    pub fn new<M, F>(name: &'a str, f: F) -> Self
    where
        M: EmbeddingModel + 'static,
        F: Fn(&AttributedHeterogeneousGraph) -> M + 'a,
    {
        Candidate { name, train: Box::new(move |g| Box::new(f(g))) }
    }
}

/// One leaderboard row.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// Candidate name.
    pub name: String,
    /// Validation link-prediction metrics.
    pub metrics: LinkMetrics,
}

/// The outcome of a tournament: results sorted by validation ROC-AUC,
/// best first.
#[derive(Debug, Clone)]
pub struct Leaderboard {
    /// Sorted results.
    pub results: Vec<SelectionResult>,
}

impl Leaderboard {
    /// The winning candidate's name.
    pub fn winner(&self) -> &str {
        &self.results[0].name
    }
}

/// Runs the selection tournament: every candidate trains on the same
/// training graph and is scored on the same held-out validation edges.
///
/// `validation_fraction` is the share of edges held out (e.g. 0.1);
/// `seed` fixes the split.
pub fn select_model(
    graph: &AttributedHeterogeneousGraph,
    candidates: Vec<Candidate<'_>>,
    validation_fraction: f64,
    seed: u64,
) -> Leaderboard {
    assert!(!candidates.is_empty(), "at least one candidate required");
    let split = link_prediction_split(graph, validation_fraction, seed);
    let mut results: Vec<SelectionResult> = candidates
        .into_iter()
        .map(|c| {
            let model = (c.train)(&split.train);
            SelectionResult {
                name: c.name.to_string(),
                metrics: evaluate_split(model.as_ref(), &split),
            }
        })
        .collect();
    results.sort_by(|a, b| {
        b.metrics.roc_auc.partial_cmp(&a.metrics.roc_auc).unwrap_or(std::cmp::Ordering::Equal)
    });
    Leaderboard { results }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::graphsage::{train_graphsage, GraphSageConfig};
    use crate::models::hep::{train_hep, HepConfig};
    use crate::trainer::MatrixEmbeddings;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_tensor::Matrix;

    #[test]
    fn tournament_ranks_real_models_above_noise() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let candidates = vec![
            Candidate::new("graphsage", |g: &AttributedHeterogeneousGraph| {
                train_graphsage(g, &GraphSageConfig::quick()).embeddings
            }),
            Candidate::new("hep", |g: &AttributedHeterogeneousGraph| {
                train_hep(g, &HepConfig::hep_quick(16))
            }),
            Candidate::new("noise", |g: &AttributedHeterogeneousGraph| {
                // A deliberately useless model: all-equal embeddings.
                MatrixEmbeddings { matrix: Matrix::zeros(g.num_vertices(), 4) }
            }),
        ];
        let board = select_model(&g, candidates, 0.15, 3);
        assert_eq!(board.results.len(), 3);
        assert_ne!(board.winner(), "noise");
        // Sorted descending.
        for w in board.results.windows(2) {
            assert!(w[0].metrics.roc_auc >= w[1].metrics.roc_auc);
        }
    }

    #[test]
    fn early_stopping_cuts_training_short() {
        use crate::trainer::{train_unsupervised, TrainConfig};
        use crate::GnnEncoder;
        use aligraph_graph::Featurizer;
        use aligraph_sampling::UniformNeighborhood;
        let g = TaobaoConfig::tiny().generate().unwrap();
        let f = Featurizer::new(16).matrix(&g);
        let mut enc = GnnEncoder::sage(16, &[16], &[4], 0.05, 1);
        let cfg = TrainConfig {
            epochs: 50,
            batches_per_epoch: 4,
            batch_size: 8,
            negatives: 2,
            patience: Some(2),
            min_delta: 0.05, // demand large improvements => stop early
            seed: 2,
        };
        let report = train_unsupervised(&mut enc, &g, &f, &UniformNeighborhood, &cfg);
        assert!(report.early_stopped);
        assert!(report.epoch_losses.len() < 50);
    }
}
