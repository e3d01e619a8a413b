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
//! * [`layer::DenseLayer`] — the shared trainable building block.
//!
//! The §3.4 materialisation of intermediate `ĥ^(k)` vectors (Table 5) is
//! `EpisodeTape`'s memo in the `aligraph` crate, not an operator.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod aggregate;
pub mod combine;
pub mod layer;
pub mod recurrent;

pub use aggregate::{
    Aggregator, AttentionAggregator, MaxPoolAggregator, MeanAggregator, SumAggregator,
    WeightedMeanAggregator,
};
pub use combine::{Combiner, ConcatCombiner, GcnCombiner};
pub use layer::{Activation, DenseLayer};
pub use recurrent::{LstmAggregator, PoolNnAggregator};
