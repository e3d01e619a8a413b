//! # aligraph-baselines
//!
//! The competitor algorithms of the paper's evaluation (§5.2.1, categories
//! C1–C3 plus the recommendation and dynamic baselines):
//!
//! * **C1 homogeneous GE** — [`deepwalk`], [`node2vec`], [`mod@line`];
//! * **C2 attributed GE** — [`anrl`] (neighbor-enhancement autoencoder +
//!   skip-gram, simplified to an attribute-initialized SGNS with a feature
//!   reconstruction pull);
//! * **C3 heterogeneous GE** — [`metapath2vec`], [`pmne`] (n/r/c variants),
//!   [`mve`], [`mne`];
//! * **recommendation autoencoders** (Table 9) — [`recommender`]: DAE and
//!   β-VAE;
//! * **dynamic** (Table 11) — [`tne`]: per-snapshot embeddings with temporal
//!   smoothing;
//! * **structural** (Tables 1 & 7) — [`struc2vec`]: role-based embeddings
//!   from walks over a structural-signature similarity graph.
//!
//! All walk-based baselines share [`common::SkipGramParams`] and produce a
//! [`common::BaselineEmbeddings`] that plugs into the same evaluation
//! harness as the in-house models. Per the paper's protocol, "if a method
//! cannot process attributes and/or multiple types of vertices, we simply
//! ignore this information".

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod anrl;
pub mod common;
pub mod deepwalk;
pub mod line;
pub mod metapath2vec;
pub mod mne;
pub mod mve;
pub mod node2vec;
pub mod pmne;
pub mod recommender;
pub mod struc2vec;
pub mod tne;

pub use common::{BaselineEmbeddings, EdgeTypeHead, SkipGramParams};
pub use deepwalk::train_deepwalk;
pub use line::{train_line, LineOrder};
pub use metapath2vec::train_metapath2vec;
pub use mne::train_mne;
pub use mve::train_mve;
pub use node2vec::train_node2vec;
pub use pmne::{train_pmne, PmneVariant};
pub use recommender::{train_recommender, RecommenderConfig, RecommenderKind, TrainedRecommender};
pub use struc2vec::train_struc2vec;
pub use tne::train_tne;
