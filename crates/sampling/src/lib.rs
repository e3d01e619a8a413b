//! # aligraph-sampling
//!
//! The sampling layer of the AliGraph reproduction (paper §3.3). The paper
//! abstracts three sampler classes, all pluggable:
//!
//! * **TRAVERSE** ([`traverse`]) — draws batches of vertices or edges from
//!   the (partitioned) graph;
//! * **NEIGHBORHOOD** ([`neighborhood`]) — generates the multi-hop context
//!   of a vertex, reading local storage and the neighbor cache (falling back
//!   to accounted remote calls);
//! * **NEGATIVE** ([`negative`]) — draws negative samples to speed up
//!   convergence (uniform or unigram^0.75 via alias tables).
//!
//! Additional pieces the upper layers share:
//!
//! * [`alias::AliasTable`] — O(1) weighted sampling, one table, or every
//!   out-row's of a graph as [`alias::AliasColumns`];
//! * [`walks`] — uniform, node2vec (p,q) and metapath-constrained random
//!   walks (the corpus generators of every skip-gram model);
//! * [`dynamic`] — samplers that own **dynamic weights** with a registered
//!   backward/update function, the "gradient of the sampler" mechanism of
//!   §3.3, optionally routed through the storage layer's request-flow
//!   buckets;
//! * [`pipeline`] — the `sampling(s1, s2, s3, batch_size)` stage of Figure 5;
//! * [`plane`] — the dynamic-graph plane: one copy-on-write overlay per
//!   version over the immutable store, published as pinned, monotonic epochs
//!   through storage's publish cell ([`aligraph_storage::Published`]), with
//!   [`plane::commit`] as the one write path — the one online graph state
//!   the serving and streaming services both read;
//! * [`telemetry`] — metered sampler wrappers publishing per-kind draw
//!   counts and latencies without perturbing the wrapped RNG stream.

pub mod alias;
pub mod dynamic;
pub mod negative;
pub mod neighborhood;
pub mod pipeline;
pub mod plane;
pub mod seeding;
pub mod telemetry;
pub mod traverse;
pub mod walks;

pub use alias::{AliasColumns, AliasSlice, AliasTable, IncrementalAlias};
pub use dynamic::{DynamicNeighborhood, DynamicWeights, WeightUpdateMode};
pub use negative::{NegativeSampler, UniformNegative, UnigramNegative};
pub use neighborhood::{
    ContextTree, Layer, NeighborAccess, NeighborhoodSampler, TopKNeighborhood, UniformNeighborhood,
    WeightedNeighborhood,
};
pub use pipeline::{SampleBatch, SamplingPipeline};
pub use plane::{affected, commit, Applied, Committed, EpochView, Touched};
pub use seeding::{worker_rng, worker_seed};
pub use telemetry::MeteredNeighborhood;
pub use traverse::{ShardEdgePools, TraverseSampler, UniformTraverse, WeightedEdgeTraverse};
