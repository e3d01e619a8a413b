//! # aligraph-runtime
//!
//! The distributed training runtime of the AliGraph reproduction: the layer
//! that turns the storage cluster + sampling + operator stack into a
//! data-parallel trainer (paper §2.3's distributed mode, simulated on one
//! machine).
//!
//! * [`runtime::DistTrainer`] — one worker per [`aligraph_storage::Cluster`]
//!   partition, a value with a method per phase of its step, sampling its
//!   own edge shard into a local dense model; on threads, or in series on
//!   the caller's thread (one worker, or `train_in_series`), bit for bit;
//! * [`ps::SparseParamServer`] — the input-feature embedding rows, sharded
//!   by the graph partition; workers push row-sparse AdaGrad deltas and
//!   pull with bounded staleness, every message metered through the storage
//!   cost model;
//! * [`ssp::Coordinator`] — deterministic scheduling with no token: a wait
//!   for the cut before a drain, the rendezvous at every epoch end and
//!   checkpoint cut, and a scheduled crash's cut, so every run (restores and
//!   fault recoveries included) replays bit-for-bit from its seed;
//! * [`checkpoint::Checkpoint`] — versioned on-disk snapshots (the PS as it
//!   stands, staged pushes included; dense model + optimizer state, RNG
//!   states, partial epoch losses) with mid-epoch restore and corruption
//!   detection; writing one applies nothing, and their bytes are a function
//!   of the seed and the cut.

pub mod checkpoint;
pub mod error;
pub mod ps;
pub mod report;
pub mod runtime;
pub mod ssp;

pub use checkpoint::{latest_valid_checkpoint, Checkpoint, WorkerCkpt};
pub use error::RuntimeError;
pub use ps::{PsState, SparseParamServer, StagedPush};
pub use report::{DistReport, WorkerReport};
pub use runtime::{
    CheckpointConfig, DistOutcome, DistTrainer, EncoderSpec, RebalancePlan, RuntimeConfig,
};
