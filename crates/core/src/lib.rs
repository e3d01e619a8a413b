//! # aligraph
//!
//! The algorithm layer of the AliGraph reproduction — the platform core that
//! sits on top of the storage (`aligraph-storage`), sampling
//! (`aligraph-sampling`) and operator (`aligraph-ops`) layers.
//!
//! * [`framework`] — the generic GNN framework of the paper's Algorithm 1
//!   (`SAMPLE → AGGREGATE → COMBINE`, `kmax` hops, normalization), realized
//!   as a tape-based encoder with full forward/backward so any
//!   sampler/aggregator/combiner plugin combination trains end-to-end. Its
//!   per-(vertex, hop) memoization *is* the §3.4 materialization strategy
//!   and can be disabled to reproduce Table 5's baseline column.
//! * [`trainer`] — unsupervised edge-contrastive training loops and
//!   embedding extraction shared by the GNN models.
//! * [`models`] — the classic GNNs of §4.1 (GraphSAGE, GCN, FastGCN,
//!   AS-GCN) and the six in-house models of §4.2: AHEP, GATNE,
//!   Mixture GNN, Hierarchical GNN, Evolving GNN, and Bayesian GNN.
//! * [`automl`] — model-selection tournaments and (with
//!   `TrainConfig::patience`) early stopping: the two §7 future-work items
//!   that fit a single-machine reproduction.

pub mod automl;
pub mod framework;
pub mod models;
pub mod trainer;

pub use automl::{select_model, Candidate, Leaderboard, SelectionResult};
pub use framework::{EpisodeTape, FullNeighborhood, GnnEncoder};
pub use trainer::{
    contrastive_step, embed_all, evaluate_split, train_unsupervised, BatchOutcome, EmbeddingModel,
    MatrixEmbeddings, TrainConfig, TrainReport,
};
