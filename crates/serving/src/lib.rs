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
//! * [`overlay::OverlayGraph`] — copy-on-write graph versions so online
//!   deltas never block or tear in-flight batches, plus
//!   [`overlay::affected_seeds`], the reverse k-hop reachability set a delta
//!   invalidates;
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
//!                 └──> Overloaded{retry}       │ snapshot       ▼
//! deltas ──apply_delta──> OverlayGraph vN+1 ───┘        VersionedCache@vN
//!                          └── affected_seeds ──────────── invalidate ┘
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod batcher;
pub mod error;
pub mod metrics;
pub mod overlay;
pub mod router;
pub mod service;
pub mod swap;

pub use error::ServeError;
pub use metrics::{ServingMetrics, ServingReport};
pub use overlay::{affected_seeds, OverlayGraph};
pub use router::{ReplicaRouter, RouteDecision};
pub use service::{ServedEmbedding, ServingConfig, ServingFaultConfig, ServingService};
pub use swap::{ModelPin, ModelStore, ModelVersion, SwapError};
