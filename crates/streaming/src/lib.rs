//! # aligraph-streaming
//!
//! The streaming dynamic-graph service (DESIGN.md §2.15): live update
//! ingest under serving load. AliGraph's platform assumes the graph keeps
//! evolving in production; this crate is the continuous plane that applies
//! edge/vertex/attribute events *while* the serving layer takes traffic,
//! the way Graph-Learn's Dynamic Graph Service does real-time sampling on
//! a streaming graph under a P99 latency guarantee.
//!
//! Pieces:
//!
//! * [`event`] — the seeded power-law update workload the bench and the
//!   tests share (the [`UpdateEvent`]/[`UpdateBatch`] vocabulary lives in
//!   [`aligraph_graph::dynamic`]);
//! * the graph state itself is [`aligraph_sampling::plane`], shared with
//!   the serving crate and re-exported here: one copy-on-write overlay per
//!   version with **incrementally repaired** alias tables, published as
//!   monotonic epochs that readers **pin** (session consistency);
//! * [`ingest`] — the coordinator: each batch gets a sequence number and
//!   crosses a chaos-wrapped channel (fault tag 4) once per shard; a
//!   per-shard [`aligraph_chaos::Sequencer`] dedups the copies that land,
//!   so drop/delay/reorder faults cost only modelled ticks, never
//!   correctness, and the batch is applied once, on the caller's thread;
//! * [`serve`] — [`serve::StreamingService`]: epoch-pinned sessions,
//!   deterministic per-vertex k-hop gathers, an epoch-tagged sample cache
//!   with targeted reverse k-hop invalidation, and the bit-exact
//!   rebuild-from-scratch oracle;
//! * [`report`] — the `streaming.*` telemetry rollup.
//!
//! ```text
//! updates ──resolve(seq)──> [chaos tag 4, one hop per shard] ──> Sequencer dedup
//!                                              │ apply + alias repair, once,
//!                                              │ on the caller's thread
//!                                              ▼
//!                        epoch N+1 ── reverse k-hop invalidate ──> VersionedCache
//!                                              │
//! clients ──session.pin(N)──> gather/score ────┘   (session sees epoch N only)
//! ```
//!
//! **Determinism contract.** A gather is a pure function of `(service
//! seed, vertex, pinned epoch's k-hop view)`: per-gather RNGs are seeded
//! from `(seed, vertex)`, ingest fault decisions are pure in `(plan,
//! channel, seq, attempt)`, and update lag is counted in virtual ticks.
//! Two runs with the same seeds produce bit-identical epochs, gathers,
//! and alias tables — including under an armed fault plane.

pub mod event;
pub mod ingest;
pub mod report;
pub mod serve;

pub use aligraph_chaos::{FaultConfig, UPDATE_INGEST_TAG};
pub use aligraph_sampling::plane::{EpochView, Touched};
pub use event::{UpdateBatch, UpdateEvent, UpdateWorkload};
pub use ingest::IngestError;
pub use report::StreamingReport;
pub use serve::{Gathered, IngestReceipt, Session, StreamingConfig, StreamingService};

/// SplitMix64-style fold of two words into one seed: how per-gather RNG
/// streams are derived from `(service seed, vertex)` so a gather is a pure
/// function of its inputs and never perturbs any other gather's stream.
pub(crate) fn mix2(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
