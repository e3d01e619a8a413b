//! Capped exponential backoff with a retry deadline, and the one delivery
//! driver that spends it.

use crate::{Delivery, FaultPlan, FaultPlane, Seq};

/// The hard ceiling on any single backoff wait, in virtual ticks. The
/// workspace's one retry loop ([`FaultPlane::deliver`]) takes its waits
/// from [`RetryPolicy::backoff_ticks`], which saturates here — the
/// `backoff-needs-cap` lint rule keeps any new loop to the same standard.
pub const MAX_BACKOFF_TICKS: u64 = 1 << 10;

/// Modelled duration of one virtual tick, in nanoseconds: how injected
/// delays and backoff waits enter the comm-time accounting.
pub const TICK_NS: u64 = 1_000;

/// How a faulted channel's sender/receiver pair recovers. `Full` is the
/// real system; the broken variants exist so the chaos suite can prove it
/// detects divergence when recovery is absent (tests with teeth), exactly
/// like the mini-loom's known-bad workload variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Retry with capped backoff; dedup duplicates by sequence number.
    #[default]
    Full,
    /// Deliberately broken: dropped messages are silently lost (gradients
    /// vanish, replicas go permanently stale).
    NoRetry,
    /// Deliberately broken: duplicates re-apply (a lost ack double-applies
    /// its AdaGrad delta).
    NoDedup,
}

/// The send gave up: every attempt up to the deadline faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryError {
    /// Attempts performed before giving up.
    pub attempts: u32,
    /// Total virtual ticks spent backing off.
    pub backoff_ticks: u64,
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "retry deadline exhausted after {} attempts ({} backoff ticks)",
            self.attempts, self.backoff_ticks
        )
    }
}

impl std::error::Error for RetryError {}

/// Exponential backoff schedule: attempt `k` waits `base << k` virtual
/// ticks, capped at [`MAX_BACKOFF_TICKS`], for at most `max_attempts`
/// sends. The schedule is monotone non-decreasing and capped — the
/// property suite pins both for arbitrary attempt counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First-retry wait in virtual ticks (0 is promoted to 1).
    pub base_ticks: u64,
    /// Retry deadline: total sends allowed per message (>= 1).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // 32 attempts at drop_rate 0.2 put the all-drops probability near
        // 1e-22: far below one expected occurrence over every seed the
        // chaos sweeps will ever run, while still being a real deadline.
        RetryPolicy { base_ticks: 2, max_attempts: 32 }
    }
}

impl RetryPolicy {
    /// Backoff before send attempt `attempt` (attempt 0 is the first try:
    /// no wait). Saturates at [`MAX_BACKOFF_TICKS`].
    pub fn backoff_ticks(&self, attempt: u32) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let base = self.base_ticks.max(1);
        // Saturating doubling: `checked_shl` only guards the shift amount,
        // not value overflow, so clamp the exponent before shifting.
        let shift = (attempt - 1).min(MAX_BACKOFF_TICKS.trailing_zeros());
        base.saturating_mul(1u64 << shift).min(MAX_BACKOFF_TICKS)
    }

    /// Whether `attempt` is past the deadline (no send allowed).
    pub fn exhausted(&self, attempt: u32) -> bool {
        attempt >= self.max_attempts.max(1)
    }
}

/// How a subsystem attaches to the chaos plane: the plan its plane runs and
/// the retry budget its sends spend. One type for every attachment — the
/// training runtime's PS channels, streaming's ingest channel, serving's
/// fetch channel — and its `Default` is the unarmed plane, which delivers
/// every message at zero ticks: the fault-free run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    /// The seeded fault plan (what to inject, where, how often).
    pub plan: FaultPlan,
    /// Capped-backoff retry budget for faulted sends.
    pub policy: RetryPolicy,
}

impl FaultConfig {
    /// The common CLI shape: fault seed + drop rate, defaults elsewhere.
    pub fn with_seed(seed: u64, drop_rate: f64) -> Self {
        FaultConfig { plan: FaultPlan::with_seed(seed, drop_rate), policy: RetryPolicy::default() }
    }
}

/// What the sender of a hop does about acknowledgements — the one thing the
/// faulted call sites differ in, so each passes its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopKind {
    /// A write the sender waits on (PS push, PS rehome, migration record,
    /// ingest batch): a lost ack means the message landed, so it lands and
    /// is resent, and late duplicates replay. The receiver must dedup by
    /// sequence number.
    Acked,
    /// An idempotent read whose reply *is* the payload (PS pull): a lost
    /// ack is a lost reply — retry, nothing lands, nothing replays.
    Reply,
    /// Nobody waits for an acknowledgement (bucket submission, serving
    /// k-hop gather): a lost ack is a delivery, and nothing replays.
    Unacked,
}

/// How one [`FaultPlane::deliver`] ended short of the retry deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sent {
    /// Whether the message got through. `false` only under the deliberately
    /// broken [`RecoveryMode::NoRetry`], which gives up after the first
    /// faulted send.
    pub delivered: bool,
    /// Virtual ticks the faults cost: retry backoff plus the injected
    /// delay. The caller scales them into its own clock.
    pub ticks: u64,
    /// Sends performed, the successful one included.
    pub attempts: u32,
}

impl FaultPlane {
    /// Sends message `seq` across `channel`: the whole sender-side recovery
    /// protocol, and the only way through the plane. Each send's fate is
    /// the plane's pure decision for `(channel, seq, attempt)`; a faulted
    /// send is retried under `policy`'s capped backoff until its deadline
    /// ([`RetryError`]), or abandoned at once under
    /// [`RecoveryMode::NoRetry`] (`delivered = false`). `land` is the
    /// message arriving at the receiver: it runs once on delivery, once
    /// more per lost ack and per replayed late duplicate on a
    /// [`HopKind::Acked`] hop — the copies the receiver's sequence dedup
    /// ([`RecoveryMode::NoDedup`] is its business) must discard.
    ///
    /// `seq` is a [`Seq`], so the sender numbered it; an integer is refused:
    ///
    /// ```compile_fail,E0308
    /// # use aligraph_chaos::*;
    /// let plane = FaultPlane::new(FaultPlan::default());
    /// plane.deliver(0, 7, &RetryPolicy::default(), RecoveryMode::Full, HopKind::Acked, || {});
    /// ```
    #[inline]
    pub fn deliver(
        &self,
        channel: u64,
        seq: Seq,
        policy: &RetryPolicy,
        mode: RecoveryMode,
        kind: HopKind,
        mut land: impl FnMut(),
    ) -> Result<Sent, RetryError> {
        let mut ticks = 0u64;
        let mut attempt = 0u32;
        let delivered = loop {
            if attempt > 0 {
                if mode == RecoveryMode::NoRetry {
                    break false; // deliberately broken: the message is lost
                }
                if policy.exhausted(attempt) {
                    return Err(RetryError { attempts: attempt, backoff_ticks: ticks });
                }
                self.note_retry();
                ticks += policy.backoff_ticks(attempt);
            }
            match self.decide(channel, seq.0, attempt) {
                Delivery::Deliver => break true,
                Delivery::Delay(d) => {
                    ticks += d;
                    break true;
                }
                Delivery::AckLost if kind == HopKind::Unacked => break true,
                // Applied at the receiver, but the sender never learns: the
                // resend is a duplicate the dedup discards.
                Delivery::AckLost if kind == HopKind::Acked => land(),
                Delivery::AckLost | Delivery::Drop | Delivery::Corrupt => {}
            }
            attempt += 1;
        };
        if delivered {
            land();
            // The reorder fault: a stale duplicate shows up after delivery.
            if kind == HopKind::Acked && self.replays_duplicate(channel, seq.0) {
                land();
            }
        }
        Ok(Sent { delivered, ticks, attempts: attempt + u32::from(delivered) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_monotone_and_capped() {
        let p = RetryPolicy { base_ticks: 2, max_attempts: 64 };
        let mut prev = 0;
        for attempt in 0..200 {
            let t = p.backoff_ticks(attempt);
            assert!(t >= prev, "attempt {attempt}: {t} < {prev}");
            assert!(t <= MAX_BACKOFF_TICKS);
            prev = t;
        }
        assert_eq!(p.backoff_ticks(0), 0);
        assert_eq!(p.backoff_ticks(1), 2);
        assert_eq!(p.backoff_ticks(2), 4);
        assert_eq!(p.backoff_ticks(200), MAX_BACKOFF_TICKS);
    }

    #[test]
    fn zero_base_still_backs_off() {
        let p = RetryPolicy { base_ticks: 0, max_attempts: 4 };
        assert_eq!(p.backoff_ticks(1), 1);
        assert_eq!(p.backoff_ticks(3), 4);
    }

    #[test]
    fn deadline_counts_sends() {
        let p = RetryPolicy { base_ticks: 1, max_attempts: 3 };
        assert!(!p.exhausted(0));
        assert!(!p.exhausted(2));
        assert!(p.exhausted(3));
        // max_attempts 0 still allows the first send.
        let degenerate = RetryPolicy { base_ticks: 1, max_attempts: 0 };
        assert!(!degenerate.exhausted(0));
        assert!(degenerate.exhausted(1));
    }

    const CHANNEL: u64 = 77;
    const POLICY: RetryPolicy = RetryPolicy { base_ticks: 3, max_attempts: 8 };

    fn plan() -> FaultPlan {
        FaultPlan { delay_ticks: 6, ..FaultPlan::with_seed(5, 0.5) }
    }

    /// The first sequence number whose sends meet `fates` attempt by attempt
    /// and whose late-duplicate draw is `replay` — decisions are pure, so a
    /// throwaway plane can scout for the plane under test.
    fn seq_with(fates: &[fn(Delivery) -> bool], replay: bool) -> u64 {
        let scout = FaultPlane::new(plan());
        (0..100_000)
            .find(|&seq| {
                scout.replays_duplicate(CHANNEL, seq) == replay
                    && fates
                        .iter()
                        .enumerate()
                        .all(|(a, ok)| ok(scout.decide(CHANNEL, seq, a as u32)))
            })
            .expect("a 50% fault rate produces every short fate sequence")
    }

    /// Runs the driver on a fresh plane; returns its result, how often
    /// `land` ran, and the retries it metered.
    fn drive(
        seq: u64,
        policy: &RetryPolicy,
        mode: RecoveryMode,
        kind: HopKind,
    ) -> (Result<Sent, RetryError>, u32, u64) {
        let plane = FaultPlane::new(plan());
        let mut lands = 0u32;
        let sent = plane.deliver(CHANNEL, Seq(seq), policy, mode, kind, || lands += 1);
        (sent, lands, plane.snapshot().retries)
    }

    const FATES: [fn(Delivery) -> bool; 5] = [
        |d| d == Delivery::Deliver,
        |d| matches!(d, Delivery::Delay(_)),
        |d| d == Delivery::AckLost,
        |d| d == Delivery::Drop,
        |d| d == Delivery::Corrupt,
    ];
    const DELIVER: usize = 0;
    const DELAY: usize = 1;
    const ACK_LOST: usize = 2;
    const DROP: usize = 3;
    const CORRUPT: usize = 4;

    #[test]
    fn driver_table_every_fate_by_kind_by_mode() {
        use HopKind::{Acked, Reply, Unacked};
        use RecoveryMode::{Full, NoRetry};
        for (first, first_fate) in FATES.into_iter().enumerate() {
            // The second send, if the protocol makes one, goes through.
            let seq = seq_with(&[first_fate, FATES[DELIVER]], false);
            let delay = match FaultPlane::new(plan()).decide(CHANNEL, seq, 0) {
                Delivery::Delay(d) => d,
                _ => 0,
            };
            for kind in [Acked, Reply, Unacked] {
                for mode in [Full, NoRetry] {
                    // (delivered, lands, sends) the protocol owes this row.
                    let want = match (first, kind, mode) {
                        (DELIVER | DELAY, _, _) | (ACK_LOST, Unacked, _) => (true, 1, 1),
                        (ACK_LOST, Acked, Full) => (true, 2, 2),
                        (ACK_LOST, Acked, NoRetry) => (false, 1, 1),
                        (_, _, Full) => (true, 1, 2),
                        (_, _, _) => (false, 0, 1),
                    };
                    let row = format!("first fate {first}, {kind:?}, {mode:?}");
                    let (sent, lands, retries) = drive(seq, &POLICY, mode, kind);
                    let sent = sent.expect(&row);
                    assert_eq!((sent.delivered, lands, sent.attempts), want, "{row}");
                    let backoff = if want.2 == 2 { POLICY.backoff_ticks(1) } else { 0 };
                    assert_eq!(sent.ticks, backoff + delay, "{row}: ticks = backoff + delay");
                    assert_eq!(retries, u64::from(want.2 - 1), "{row}: one retry per resend");
                }
            }
        }
    }

    #[test]
    fn driver_replays_late_duplicates_on_acked_hops_only() {
        let seq = seq_with(&[FATES[DELIVER]], true);
        for (kind, lands) in [(HopKind::Acked, 2), (HopKind::Reply, 1), (HopKind::Unacked, 1)] {
            let (sent, got, _) = drive(seq, &POLICY, RecoveryMode::Full, kind);
            assert_eq!((sent.unwrap().attempts, got), (1, lands), "{kind:?}");
        }
        // A message that never got through has no late duplicate.
        let seq = seq_with(&[FATES[DROP]], true);
        let (sent, lands, _) = drive(seq, &POLICY, RecoveryMode::NoRetry, HopKind::Acked);
        assert_eq!((sent.unwrap().delivered, lands), (false, 0));
    }

    #[test]
    fn driver_costs_backoff_plus_delay_and_gives_up_at_the_deadline() {
        // Drop, then a delayed arrival: both costs add up.
        let seq = seq_with(&[FATES[DROP], FATES[DELAY]], false);
        let Delivery::Delay(d) = FaultPlane::new(plan()).decide(CHANNEL, seq, 1) else {
            unreachable!("scouted as a delay")
        };
        let (sent, lands, _) = drive(seq, &POLICY, RecoveryMode::Full, HopKind::Acked);
        assert_eq!(sent.unwrap().ticks, POLICY.backoff_ticks(1) + d);
        assert_eq!(lands, 1);

        // Deadlines of one and two sends; a lost ack lands before the
        // deadline passes, a drop lands nothing.
        let one = RetryPolicy { base_ticks: 3, max_attempts: 1 };
        let two = RetryPolicy { base_ticks: 3, max_attempts: 2 };
        let dropped = seq_with(&[FATES[DROP], FATES[CORRUPT]], false);
        let (sent, lands, retries) = drive(dropped, &one, RecoveryMode::Full, HopKind::Acked);
        assert_eq!(sent, Err(RetryError { attempts: 1, backoff_ticks: 0 }));
        assert_eq!((lands, retries), (0, 0));
        let (sent, lands, retries) = drive(dropped, &two, RecoveryMode::Full, HopKind::Acked);
        assert_eq!(sent, Err(RetryError { attempts: 2, backoff_ticks: two.backoff_ticks(1) }));
        assert_eq!((lands, retries), (0, 1));
        let ack_lost = seq_with(&[FATES[ACK_LOST]], false);
        let (sent, lands, _) = drive(ack_lost, &one, RecoveryMode::Full, HopKind::Acked);
        assert_eq!((sent, lands), (Err(RetryError { attempts: 1, backoff_ticks: 0 }), 1));
        let (sent, lands, _) = drive(ack_lost, &one, RecoveryMode::Full, HopKind::Reply);
        assert_eq!((sent.is_err(), lands), (true, 0));
    }

    #[test]
    fn driver_result_is_a_pure_function_of_plan_channel_and_seq() {
        for seq in 0..300 {
            for kind in [HopKind::Acked, HopKind::Reply, HopKind::Unacked] {
                let a = drive(seq, &POLICY, RecoveryMode::Full, kind);
                assert_eq!(a, drive(seq, &POLICY, RecoveryMode::Full, kind), "seq {seq} {kind:?}");
            }
        }
        let other = FaultPlane::new(FaultPlan::with_seed(6, 0.5));
        let differs = (0..300).any(|seq| {
            let b = other.deliver(
                CHANNEL,
                Seq(seq),
                &POLICY,
                RecoveryMode::Full,
                HopKind::Acked,
                || {},
            );
            b != drive(seq, &POLICY, RecoveryMode::Full, HopKind::Acked).0
        });
        assert!(differs, "another seed draws another fault stream");
    }

    #[test]
    fn retry_error_renders() {
        let e = RetryError { attempts: 5, backoff_ticks: 30 };
        assert!(e.to_string().contains("5 attempts"));
    }
}
