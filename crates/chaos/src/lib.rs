//! The deterministic fault-injection plane (DESIGN.md §2.14).
//!
//! Every inter-shard channel in the simulated cluster — parameter-server
//! pushes and pulls in the training runtime, shard fetches in the serving
//! layer, update-ingest batches in the streaming service, and
//! live-migration transfers — can be wrapped
//! by a [`FaultPlane`]; each family has its own channel tag (the
//! [`PS_PUSH_TAG`] table lists all six).
//! Driven by a [`FaultPlan`] and a SplitMix64 hash of
//! `(seed, channel, sequence, attempt)`, the plane decides per message
//! whether it is delivered intact, dropped, delayed a bounded number of
//! virtual ticks, delivered-but-unacknowledged, or corrupted in flight.
//! Crash points and checkpoint bit-flips ride on the same plan.
//!
//! **Determinism contract.** A decision is a pure function of the plan and
//! the `(channel, seq, attempt)` triple — never of wall-clock time, OS
//! entropy, or scheduling. Two runs with the same seed see the identical
//! fault sequence, so a failing chaos seed replays bit-for-bit from the
//! command line. Delays are *virtual*: they add modelled ticks to the comm
//! accounting, they never sleep.
//!
//! **Recovery machinery.** Faults are only half the plane; this crate also
//! owns what the faults force into existence: [`FaultPlane::deliver`], the
//! one sender-side protocol every faulted hop runs (retry under
//! [`RetryPolicy`]'s capped backoff until the deadline, land-and-resend on
//! a lost ack, replay late duplicates) on a [`Seq`] that only the sender's
//! [`SeqCounter`] makes, and [`Sequencer`] (receiver-side dedup: duplicates
//! and reorderings collapse to exactly-once, in-order application). With
//! both in place, the headline property holds: for any fault seed with
//! `drop_rate < 1`, a training run converges to the bit-exact same final
//! parameters as the fault-free run, because the same messages apply
//! exactly once in the same order — faults only cost modelled time.

mod plan;
mod retry;
mod seq;

pub use plan::{CrashPoint, Delivery, FaultPlan, FaultPlane, FaultSnapshot};
pub use retry::{
    FaultConfig, HopKind, RecoveryMode, RetryError, RetryPolicy, Sent, MAX_BACKOFF_TICKS, TICK_NS,
};
pub use seq::{Seq, SeqCounter, Sequencer};

/// Channel tag of parameter-server pushes (`worker → shard`). A tag is the
/// first argument of [`FaultPlane::channel_with`]: each one gives its
/// channel family a fault stream independent of the others over the same
/// directed pair. The whole inventory (2 is retired and never reused, so
/// the streams of 3–5 stay what they were):
///
/// | tag | constant | channel `(from, to)` | sender |
/// |---|---|---|---|
/// | 0 | [`PS_PUSH_TAG`] | worker, shard | `runtime` PS `push` |
/// | 1 | [`PS_PULL_TAG`] | shard, worker | `runtime` PS `drain_into` |
/// | 3 | [`SERVING_FETCH_TAG`] | worker, owner | `serving` cache-miss k-hop gather |
/// | 4 | [`UPDATE_INGEST_TAG`] | 0, shard | `streaming` batch ingest |
/// | 5 | [`MIGRATION_TAG`] | src, dst | `storage` `Cluster::rebalance` and `runtime` PS `rehome` |
pub const PS_PUSH_TAG: u64 = 0;
/// Channel tag of parameter-server pull responses (`shard → worker`).
pub const PS_PULL_TAG: u64 = 1;
/// Channel tag of serving shard fetches (`worker → owner`).
pub const SERVING_FETCH_TAG: u64 = 3;
/// Channel tag of streaming update-ingest batches (`0 → shard`).
pub const UPDATE_INGEST_TAG: u64 = 4;
/// Channel tag of live-migration transfers (`src → dst`): storage subgraph
/// records and the parameter server's row re-homing share it.
pub const MIGRATION_TAG: u64 = 5;

/// One SplitMix64 scramble round: the core mixer behind every fault
/// decision (and the same finalizer the mini-loom scheduler uses).
pub(crate) fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a word list into one 64-bit value by folding each word through a
/// SplitMix64 round. Order-sensitive, collision-scattered, allocation-free.
pub(crate) fn mix(words: &[u64]) -> u64 {
    let mut h = 0x51_7C_C1_B7_27_22_0A_95u64;
    for &w in words {
        h = splitmix(h ^ w);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_tags_are_distinct() {
        let tags = [PS_PUSH_TAG, PS_PULL_TAG, SERVING_FETCH_TAG, UPDATE_INGEST_TAG, MIGRATION_TAG];
        for (i, a) in tags.iter().enumerate() {
            assert!(tags[i + 1..].iter().all(|b| a != b), "tag {a} is used twice");
        }
    }

    #[test]
    fn mix_is_deterministic_and_order_sensitive() {
        assert_eq!(mix(&[1, 2, 3]), mix(&[1, 2, 3]));
        assert_ne!(mix(&[1, 2, 3]), mix(&[3, 2, 1]));
        assert_ne!(mix(&[0]), mix(&[0, 0]));
    }
}
