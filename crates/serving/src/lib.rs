//! # aligraph-serving
//!
//! Online inference serving over the AliGraph reproduction: the layer that
//! answers "embedding of vertex v, *now*" while the graph keeps changing
//! underneath (paper §2's online requirement: GNNs on dynamic graphs must be
//! recalculated incrementally, and downstream recommenders consume the
//! embeddings at serving time).
//!
//! Pieces:
//!
//! * [`service::ServingService`] — bounded-queue admission with
//!   backpressure, workers pinned to storage shards, adaptive micro-batching
//!   ([`batcher`]) that dedups overlapping k-hop neighborhoods through a
//!   shared memoizing episode tape;
//! * the graph state is [`aligraph_sampling::plane`], shared with the
//!   streaming crate: copy-on-write [`EpochView`] versions so online deltas
//!   never block or tear in-flight batches, and the reverse k-hop
//!   reachability set a delta invalidates ([`affected_seeds`] is the
//!   delta-shaped entrance to that rule);
//! * served embeddings are cached in the shared
//!   [`aligraph_storage::VersionedCache`] under the `serving.cache` series:
//!   stale results are structurally unservable (inserts are admitted only at
//!   the current graph version, invalidation removes everything a delta
//!   could have changed);
//! * [`metrics::ServingReport`] — p50/p95/p99 latency, QPS, cache hit rate,
//!   and the batching-dedup evidence (`forwards < completed`);
//! * [`swap::ModelStore`] — the atomic versioned model hot-swap used by the
//!   closed production loop: publishes are a single pointer replacement,
//!   in-flight [`swap::ModelPin`]s finish on the version they started with,
//!   and every [`swap::ModelVersion`] is self-fingerprinted so torn reads
//!   are detectable.
//!
//! ```text
//! clients ──try_send──> [worker queues] ──micro-batch──> forward (dedup+cache)
//!                 │ full?                      ▲                │
//!                 └──> Overloaded{retry}       │ pin            ▼
//! deltas ──apply_delta──> EpochView N+1 ───────┘        VersionedCache@N
//!                          └── plane::affected ─────────── invalidate ┘
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod batcher;
pub mod error;
pub mod metrics;
pub mod service;
pub mod swap;

pub use aligraph_sampling::plane::EpochView;
pub use error::ServeError;
pub use metrics::{ServingMetrics, ServingReport};
pub use service::{affected_seeds, ServedEmbedding, ServingConfig, ServingService};
pub use swap::{ModelPin, ModelStore, ModelVersion, SwapError};
