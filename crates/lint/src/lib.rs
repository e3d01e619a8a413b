//! # aligraph-lint
//!
//! The mini-loom concurrency checker for the AliGraph reproduction
//! (DESIGN.md §2.18). [`loom`] is a seeded virtual-thread scheduler that
//! drives six targets — serving's flat combiner, the telemetry striped
//! counter, the epoch overlay, the sparse parameter server, the model hot
//! swap and the topology publish — through thousands of interleavings per
//! seed, checking every history against a sequential shadow model (no lost
//! updates, snapshot monotonicity, bit-exact replica freshness, no torn
//! publish).
//!
//! The static rules — no unsafe, no unwrap in library code, no wall clock
//! or entropy in seeded code — are not here: they are the root
//! `Cargo.toml`'s `[workspace.lints]` table and `clippy.toml`, checked by
//! rustc and clippy.
//!
//! ```text
//! aligraph-lint concurrency --seed 42 --interleavings 1000 --target all
//! ```

#![warn(missing_docs)]

pub mod loom;
