//! # aligraph-partition
//!
//! The graph partition component of the AliGraph storage layer (paper §3.2,
//! Algorithm 2 lines 1–4). The whole graph is divided across `p` workers;
//! the goal is to minimize crossing edges while keeping load balanced.
//!
//! The paper ships four built-in algorithms and lets users plug in more:
//!
//! 1. **METIS-like multilevel** ([`MetisLike`]) — "specialized in processing
//!    sparse graphs": heavy-edge-matching coarsening, greedy BFS-grown
//!    initial partition, boundary Kernighan–Lin refinement.
//! 2. **Vertex cut and edge cut** ([`VertexCutGreedy`], [`EdgeCutHash`]) —
//!    "performs much better on dense graphs": PowerGraph-style greedy vertex
//!    cut and hash edge cut.
//! 3. **2-D partition** ([`Grid2D`]) — "often used when the number of
//!    workers is fixed": workers arranged on a grid, edges routed by the
//!    (source-row, destination-column) cell.
//! 4. **Streaming-style** ([`StreamingLdg`]) — "often applied on graphs with
//!    frequent edge updates": linear deterministic greedy with a capacity
//!    penalty.
//!
//! All partitioners implement the [`Partitioner`] trait, so the storage
//! layer (and user plugins) can swap them freely. [`quality::PartitionQuality`]
//! scores any produced [`Partition`].

pub mod metis_like;
pub mod partition;
pub mod quality;
pub mod streaming;

pub use metis_like::MetisLike;
pub use partition::{EdgeCutHash, Grid2D, Partition, Partitioner, VertexCutGreedy, WorkerId};
pub use quality::PartitionQuality;
pub use streaming::StreamingLdg;
