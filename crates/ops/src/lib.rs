//! # aligraph-ops
//!
//! The operator layer of the AliGraph reproduction (paper §3.4). Two GNN
//! operator families are abstracted, both with forward *and* backward
//! computation so an end-to-end network can be assembled (the paper: "both
//! samplers and GNN-like operators not only do computations forward, but
//! also take charge of parameters updating backward"):
//!
//! * [`aggregate::Aggregator`] — **AGGREGATE** collapses a set of neighbor
//!   embeddings into one vector: element-wise mean, sum, max-pooling,
//!   weighted mean, self-attention, plus the neural variants the paper
//!   names in [`recurrent`] — an LSTM aggregator and the max-pooling
//!   neural network;
//! * [`combine::Combiner`] — **COMBINE** merges a vertex's previous-hop
//!   embedding with the aggregated neighborhood (GraphSAGE concatenation,
//!   GCN-style sum) through a trainable dense layer;
//! * [`layer::DenseLayer`] — the shared trainable building block;
//! * [`cache::MaterializationCache`] — a standalone copy of the §3.4
//!   materialisation idea that nothing outside its tests constructs; what
//!   Table 5 times is `EpisodeTape`'s memo in the `aligraph` crate.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod aggregate;
pub mod cache;
pub mod combine;
pub mod layer;
pub mod recurrent;

pub use aggregate::{
    Aggregator, AttentionAggregator, MaxPoolAggregator, MeanAggregator, SumAggregator,
    WeightedMeanAggregator,
};
pub use cache::MaterializationCache;
pub use combine::{Combiner, ConcatCombiner, GcnCombiner};
pub use layer::{Activation, DenseLayer};
pub use recurrent::{LstmAggregator, PoolNnAggregator};
