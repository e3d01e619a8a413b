//! # aligraph-loopsim
//!
//! Closed-loop production simulation — the end-to-end loop AliGraph runs in
//! production (paper §2, Fig. 1), reproduced deterministically in one
//! process:
//!
//! ```text
//!   serve ──> log ──> graph update ──> incremental train ──> hot-swap
//!     ^                                                         │
//!     └─────────────────────────────────────────────────────────┘
//! ```
//!
//! * [`traffic::TrafficGen`] — seeded power-law traffic over the Taobao
//!   sim graph: user sessions pinned to streaming epoch views, cubed-uniform
//!   popularity on both endpoints, occasional feature drift;
//! * [`hub::DataHub`] — the bounded data-hub log served interactions land
//!   in, compacted into [`aligraph_streaming::UpdateBatch`]es (clicks
//!   coalesced into weighted edges, drifts last-write-wins);
//! * [`driver`] — the loop scheduler: each cycle serves, drains the hub
//!   through the (chaos-wrappable) ingest path, warm-starts a delta epoch
//!   from the latest valid checkpoint with only the touched feature rows
//!   re-pulled, and atomically hot-swaps the new model version into the
//!   serving store;
//! * [`report::LoopReport`] — the `loop.*` telemetry rollup, headlined by
//!   end-to-end freshness in virtual ticks.
//!
//! The whole loop is a pure function of its seeds: two runs with the same
//! `(seed, fault_seed, drop_rate)` produce bit-identical model fingerprints
//! and freshness reports, and injected ingest faults cost only freshness
//! ticks — never model divergence.

pub mod driver;
pub mod hub;
pub mod report;
pub mod traffic;

pub use driver::{run_loop, LoopConfig, LoopError, LoopOutcome};
pub use hub::{Compacted, DataHub, HubEvent};
pub use report::LoopReport;
pub use traffic::TrafficGen;

/// SplitMix64 fold — the fingerprint combiner used to seal a loop run's
/// final model identity (published version fingerprint ⊕ dense parameter
/// bits) into one u64.
pub fn mix2(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::mix2;

    #[test]
    fn mix2_is_deterministic_and_order_sensitive() {
        assert_eq!(mix2(1, 2), mix2(1, 2));
        assert_ne!(mix2(1, 2), mix2(2, 1));
        assert_ne!(mix2(0, 0), 0);
    }
}
