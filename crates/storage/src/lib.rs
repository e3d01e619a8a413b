//! # aligraph-storage
//!
//! The storage layer of the AliGraph reproduction (paper §3.2), simulated as
//! an in-process cluster:
//!
//! * [`cluster::Cluster`] — a set of [`server::GraphServer`] shards built by
//!   a pluggable partitioner; every shard's ingest is timed in isolation so
//!   the build report exposes the distributed makespan, the Figure 7
//!   graph-building measurement;
//! * [`lru::LruCache`] — the LRU caches placed in front of the attribute
//!   indices `I_V` / `I_E`;
//! * [`neighbor_cache`] — **importance-based caching of k-hop out-neighbors
//!   of important vertices** (Algorithm 2 lines 5–9, Eq. 1), with `Random`
//!   and `Lru` alternatives for the Figure 9 strategy comparison;
//! * [`bucket`] — the lock-free request-flow buckets of Figure 6: vertices
//!   grouped per server, each group's read/update operations draining
//!   through a lock-free queue bound to one thread that owns the group's
//!   data outright, so no data lock is ever taken
//!   ([`bucket::LockFreeWeightService`], benchmarked against a global
//!   mutex); the queue/thread plumbing is [`executor`];
//! * [`versioned_cache`] — the one version-tagged LRU both online layers
//!   cache through (`serving` embeddings per graph version, `streaming`
//!   gathers per epoch): stale inserts rejected, targeted invalidation;
//! * [`seal`] — the one FNV-1a hasher, sealed-buffer reader/writer and
//!   atomic file writer behind checkpoints, [`segment`]s and every
//!   torn-publish fingerprint;
//! * [`cost`] — simulated local/remote access costs and atomic statistics;
//! * [`topology`] / [`migrate`] — elastic membership: a versioned
//!   [`topology::Topology`] (monotonic epochs, published like the streaming
//!   layer's `EpochManager`) owns routing — one owner per vertex per epoch —
//!   and [`migrate`] implements online shard split/merge with live subgraph
//!   migration over the chaos plane while both shards keep serving.
//!
//! The "network" is simulated: every shard can physically reach the whole
//! graph, but accesses to vertices owned by another worker are accounted (and
//! cost-modelled) as remote unless served by a neighbor cache. This keeps the
//! *relative* behaviour the paper measures — cache-policy effects, scaling
//! with workers, sampling latencies — while running on one machine.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod bucket;
pub mod cluster;
pub mod codec;
pub mod cost;
pub mod executor;
pub mod lru;
pub mod migrate;
pub mod neighbor_cache;
pub mod seal;
pub mod segment;
pub mod server;
pub mod tier;
pub mod topology;
pub mod versioned_cache;

pub use aligraph_chaos::MIGRATION_TAG;
pub use bucket::{LockFreeWeightService, MutexWeightService, WeightService};
pub use cluster::{Cluster, ClusterBuildReport, ClusterBuilder};
pub use codec::CodecError;
pub use cost::{
    AccessKind, AccessStats, AccessStatsSnapshot, CostModel, TierMeter, TierMeterSnapshot,
};
pub use executor::{BucketExecutor, ExecutorStopped};
pub use lru::LruCache;
pub use migrate::{MigrationError, MigrationReport, RebalanceOp};
pub use neighbor_cache::{CacheStrategy, NeighborCache};
pub use segment::{Segment, SegmentError, SegmentKind};
pub use server::{GraphServer, VertexRecord};
pub use tier::{EvictionMode, TierBacking, TierConfig, TierRead, TieredStore};
pub use topology::{Residency, RouteError, Topology, TopologyView};
pub use versioned_cache::{CacheStats, VersionedCache};
