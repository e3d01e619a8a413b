//! # aligraph-runtime
//!
//! The distributed training runtime of the AliGraph reproduction: the layer
//! that turns the storage cluster + sampling + operator stack into a
//! data-parallel trainer (paper §2.3's distributed mode, simulated on one
//! machine).
//!
//! * [`runtime::DistTrainer`] — N shard-pinned trainer workers (threads,
//!   one per [`aligraph_storage::Cluster`] partition), each sampling
//!   mini-batches from its own edge shard and training a local dense model;
//! * [`ps::SparseParamServer`] — the input-feature embedding rows, sharded
//!   by the graph partition; workers push row-sparse AdaGrad deltas and
//!   pull with bounded staleness, every message metered through the storage
//!   cost model;
//! * [`ssp::Coordinator`] — deterministic lockstep scheduling plus the
//!   epoch-boundary allreduce rendezvous, so every run (including restores
//!   and fault recoveries) replays bit-for-bit from its seed;
//! * [`checkpoint::Checkpoint`] — versioned on-disk snapshots (PS shards,
//!   dense model + optimizer state, RNG states, step counters) with
//!   mid-epoch restore and corruption detection.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod error;
pub mod ps;
pub mod report;
pub mod runtime;
pub mod ssp;

pub use checkpoint::{latest_checkpoint, latest_valid_checkpoint, Checkpoint, WorkerCkpt};
pub use error::RuntimeError;
pub use ps::{PsShardState, SparseParamServer};
pub use report::{DistReport, WorkerReport};
pub use runtime::{
    CheckpointConfig, DistOutcome, DistTrainer, EncoderSpec, RebalancePlan, RuntimeConfig,
};
