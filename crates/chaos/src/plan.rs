//! The fault plan and the per-message decision engine.

use crate::mix;
use aligraph_telemetry::{Counter, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One scheduled worker crash: worker `worker` dies right before computing
/// global step `at_step` (each entry fires at most once per run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Worker to kill.
    pub worker: u32,
    /// Global step at which it dies.
    pub at_step: u64,
}

/// A seeded fault plan: everything the plane needs to reproduce the exact
/// same fault sequence on every run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Base seed of the fault stream (independent of the training seed).
    pub seed: u64,
    /// Per-message fault probability in `[0, 1)`. Applied independently to
    /// the loss draw (drop / lost ack / corruption) and the delay draw.
    pub drop_rate: f64,
    /// Upper bound on injected delays, in virtual ticks (0 disables
    /// delays). Delays are modelled time, never wall-clock sleeps.
    pub delay_ticks: u64,
    /// Re-deliver late duplicates of already-delivered messages, exercising
    /// the receiver's dedup (sequence numbers must discard them).
    pub reorder: bool,
    /// Scheduled worker crashes (each fires once per run).
    pub crash_schedule: Vec<CrashPoint>,
    /// Flip one byte in (a seeded subset of) written checkpoint files, so
    /// restore must fall back to an earlier valid checkpoint.
    pub corrupt_checkpoint: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_rate: 0.0,
            delay_ticks: 4,
            reorder: true,
            crash_schedule: Vec::new(),
            corrupt_checkpoint: false,
        }
    }
}

impl FaultPlan {
    /// The common CLI shape: a seed and a drop rate, defaults elsewhere.
    pub fn with_seed(seed: u64, drop_rate: f64) -> Self {
        FaultPlan { seed, drop_rate: drop_rate.clamp(0.0, 0.999), ..FaultPlan::default() }
    }
}

/// What the plane decided for one `(channel, seq, attempt)` message send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Arrives intact, on time.
    Deliver,
    /// Never arrives; the sender must retry or lose the message.
    Drop,
    /// Arrives after this many extra virtual ticks.
    Delay(u64),
    /// Arrives and is applied, but the acknowledgement is lost — the sender
    /// retries and the receiver sees a duplicate.
    AckLost,
    /// Arrives with a payload the receiver's checksum rejects — equivalent
    /// to a drop from the sender's point of view.
    Corrupt,
}

/// Counter totals of one plane, for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// All injected faults (drops + delays + lost acks + corruptions +
    /// replayed duplicates + crashes + checkpoint flips).
    pub faults_injected: u64,
    /// Send retries the recovery machinery performed.
    pub retries: u64,
}

/// The fault plane: a [`FaultPlan`] plus an arm switch and telemetry.
///
/// A message's fate is a pure function of `(plan, channel, seq, attempt)`
/// while the plane is armed; a disarmed plane delivers everything (so a
/// service can be warmed fault-free, then attacked). Senders cross it
/// through [`deliver`](FaultPlane::deliver), the only entrance. Counters
/// are published as `chaos.faults_injected{kind=...}` and `chaos.retries`
/// when built with [`registered`](FaultPlane::registered); they record,
/// they never branch.
#[derive(Debug)]
pub struct FaultPlane {
    plan: FaultPlan,
    armed: AtomicBool,
    /// Once-only latches, one per `crash_schedule` entry.
    crash_fired: Vec<AtomicBool>,
    drops: Arc<Counter>,
    delays: Arc<Counter>,
    ack_lost: Arc<Counter>,
    corrupt: Arc<Counter>,
    reorders: Arc<Counter>,
    crashes: Arc<Counter>,
    ckpt_flips: Arc<Counter>,
    retries: Arc<Counter>,
}

impl FaultPlane {
    /// A plane with detached counters (tests, fault-free baselines).
    pub fn new(plan: FaultPlan) -> Self {
        Self::registered(plan, &Registry::disabled())
    }

    /// A plane whose counters live in `registry` under
    /// `chaos.faults_injected{kind=...}` / `chaos.retries`.
    pub fn registered(plan: FaultPlan, registry: &Registry) -> Self {
        let kind = |k: &str| registry.counter("chaos.faults_injected", &[("kind", k)]);
        FaultPlane {
            crash_fired: plan.crash_schedule.iter().map(|_| AtomicBool::new(false)).collect(),
            plan,
            armed: AtomicBool::new(true),
            drops: kind("drop"),
            delays: kind("delay"),
            ack_lost: kind("ack_lost"),
            corrupt: kind("corrupt"),
            reorders: kind("reorder"),
            crashes: kind("crash"),
            ckpt_flips: kind("ckpt_flip"),
            retries: registry.counter("chaos.retries", &[]),
        }
    }

    /// The plan this plane executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Starts injecting faults (planes start armed).
    pub fn arm(&self) {
        // ordering: the arm switch is test/operator control, not a
        // synchronization edge; any visible value is correct.
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Stops injecting: every subsequent decision is `Deliver`.
    pub fn disarm(&self) {
        // ordering: see arm() — control flag only, no data published.
        self.armed.store(false, Ordering::Relaxed);
    }

    /// Whether the plane is currently injecting.
    pub fn is_armed(&self) -> bool {
        // ordering: control flag only; see arm().
        self.armed.load(Ordering::Relaxed)
    }

    /// Stable channel id for a directed `from → to` shard edge. `tag` (one
    /// of the crate's `*_TAG` constants) separates parallel streams over the
    /// same directed pair (e.g. pushes vs pull responses): each tag gets an
    /// independent fault stream.
    pub fn channel_with(tag: u64, from: u64, to: u64) -> u64 {
        mix(&[0xC4A2, tag, from, to])
    }

    /// Uniform draw in `[0, 1)` from the top 53 bits of a hash.
    fn unit(h: u64) -> f64 {
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The fate of send `attempt` of message `seq` on `channel`. Pure in
    /// `(plan, channel, seq, attempt)`; counts what it injects.
    pub(crate) fn decide(&self, channel: u64, seq: u64, attempt: u32) -> Delivery {
        if !self.is_armed() || self.plan.drop_rate <= 0.0 {
            return Delivery::Deliver;
        }
        let loss = mix(&[self.plan.seed, 1, channel, seq, attempt as u64]);
        if Self::unit(loss) < self.plan.drop_rate {
            // Split the loss modes on independent hash bits.
            return match loss & 3 {
                0 | 1 => {
                    self.drops.inc();
                    Delivery::Drop
                }
                2 => {
                    self.ack_lost.inc();
                    Delivery::AckLost
                }
                _ => {
                    self.corrupt.inc();
                    Delivery::Corrupt
                }
            };
        }
        let lag = mix(&[self.plan.seed, 2, channel, seq, attempt as u64]);
        if self.plan.delay_ticks > 0 && Self::unit(lag) < self.plan.drop_rate {
            self.delays.inc();
            return Delivery::Delay(1 + lag % self.plan.delay_ticks);
        }
        Delivery::Deliver
    }

    /// Whether a late duplicate of already-delivered message `seq` should
    /// be re-delivered (the reorder fault: dedup must discard it).
    pub(crate) fn replays_duplicate(&self, channel: u64, seq: u64) -> bool {
        if !self.is_armed() || !self.plan.reorder || self.plan.drop_rate <= 0.0 {
            return false;
        }
        let h = mix(&[self.plan.seed, 3, channel, seq]);
        let hit = Self::unit(h) < self.plan.drop_rate;
        if hit {
            self.reorders.inc();
        }
        hit
    }

    /// Whether `worker` dies right before `step`: true once per matching
    /// `crash_schedule` entry over the plane's life (a run's plane outlives
    /// its recovery attempts), and metered when it is.
    pub fn crash_fires(&self, worker: u32, step: u64) -> bool {
        if !self.is_armed() {
            return false;
        }
        let scheduled =
            self.plan.crash_schedule.iter().position(|c| c.worker == worker && c.at_step == step);
        // ordering: SeqCst swap is the once-only latch of the schedule
        // entry; every worker must agree on which one crashed, and fault
        // setup is cold-path, so the strongest ordering is the cheapest
        // correct choice.
        let fires = scheduled.is_some_and(|i| !self.crash_fired[i].swap(true, Ordering::SeqCst));
        if fires {
            self.crashes.inc();
        }
        fires
    }

    /// The first scheduled crash not fired yet that a run of `workers`
    /// workers resuming at `from_step` can meet, in the order a one-token
    /// schedule meets them (step, then worker); `None` while disarmed.
    pub fn next_crash(&self, workers: usize, from_step: u64) -> Option<CrashPoint> {
        let pending = |(c, fired): &(&CrashPoint, &AtomicBool)| {
            // ordering: SeqCst, the same as the latch's swap in crash_fires.
            (c.worker as usize) < workers && c.at_step >= from_step && !fired.load(Ordering::SeqCst)
        };
        let schedule = self.plan.crash_schedule.iter().zip(&self.crash_fired);
        let next = schedule.filter(pending).map(|(c, _)| *c).min_by_key(|c| (c.at_step, c.worker));
        next.filter(|_| self.is_armed())
    }

    /// Whether the checkpoint written at `step` gets a byte flipped, and at
    /// which byte offset (mod file length). Seeded per step so some
    /// checkpoints in a run survive and restore can fall back to them.
    pub fn corrupts_checkpoint(&self, step: u64) -> Option<u64> {
        if !self.is_armed() || !self.plan.corrupt_checkpoint {
            return None;
        }
        let h = mix(&[self.plan.seed, 4, step]);
        if Self::unit(h) < 0.5 {
            self.ckpt_flips.inc();
            Some(mix(&[self.plan.seed, 5, step]))
        } else {
            None
        }
    }

    /// Meters one send retry performed by the recovery machinery.
    pub(crate) fn note_retry(&self) {
        self.retries.inc();
    }

    /// Counter totals for reports.
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            faults_injected: self.drops.get()
                + self.delays.get()
                + self.ack_lost.get()
                + self.corrupt.get()
                + self.reorders.get()
                + self.crashes.get()
                + self.ckpt_flips.get(),
            retries: self.retries.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_the_triple() {
        let a = FaultPlane::new(FaultPlan::with_seed(7, 0.3));
        let b = FaultPlane::new(FaultPlan::with_seed(7, 0.3));
        for seq in 0..200 {
            for attempt in 0..4 {
                assert_eq!(a.decide(9, seq, attempt), b.decide(9, seq, attempt));
            }
        }
        assert_ne!(
            (0..200).map(|s| a.decide(1, s, 0)).collect::<Vec<_>>(),
            (0..200)
                .map(|s| FaultPlane::new(FaultPlan::with_seed(8, 0.3)).decide(1, s, 0))
                .collect::<Vec<_>>(),
            "different seeds give different fault streams"
        );
    }

    #[test]
    fn rate_zero_and_disarmed_always_deliver() {
        let p = FaultPlane::new(FaultPlan::with_seed(3, 0.0));
        assert!((0..500).all(|s| p.decide(0, s, 0) == Delivery::Deliver));
        let p = FaultPlane::new(FaultPlan::with_seed(3, 0.9));
        p.disarm();
        assert!(!p.is_armed());
        assert!((0..500).all(|s| p.decide(0, s, 0) == Delivery::Deliver));
        assert!(!p.replays_duplicate(0, 1));
        assert!(p.corrupts_checkpoint(4).is_none());
        p.arm();
        assert!(p.is_armed());
    }

    #[test]
    fn fault_rate_roughly_tracks_drop_rate() {
        let p = FaultPlane::new(FaultPlan::with_seed(11, 0.2));
        let n = 4000;
        let faulted = (0..n)
            .filter(|&s| !matches!(p.decide(5, s, 0), Delivery::Deliver | Delivery::Delay(_)))
            .count();
        let rate = faulted as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.05, "observed loss rate {rate}");
        let snap = p.snapshot();
        assert!(snap.faults_injected >= faulted as u64);
    }

    #[test]
    fn delays_are_bounded_by_the_plan() {
        let plan = FaultPlan { delay_ticks: 6, ..FaultPlan::with_seed(13, 0.5) };
        let p = FaultPlane::new(plan);
        let mut saw_delay = false;
        for s in 0..2000 {
            if let Delivery::Delay(d) = p.decide(2, s, 0) {
                assert!((1..=6).contains(&d), "delay {d} out of bounds");
                saw_delay = true;
            }
        }
        assert!(saw_delay, "a 50% rate must inject some delays");
    }

    #[test]
    fn crash_schedule_fires_exact_points_once() {
        let plan = FaultPlan {
            crash_schedule: vec![CrashPoint { worker: 1, at_step: 10 }],
            ..FaultPlan::with_seed(1, 0.1)
        };
        let p = FaultPlane::new(plan);
        assert!(!p.crash_fires(0, 10));
        assert!(!p.crash_fires(1, 11));
        let point = Some(CrashPoint { worker: 1, at_step: 10 });
        assert_eq!(p.next_crash(2, 0), point);
        assert_eq!((p.next_crash(1, 0), p.next_crash(2, 11)), (None, None), "out of reach");
        assert!(p.crash_fires(1, 10));
        assert!(!p.crash_fires(1, 10), "each entry fires once");
        assert_eq!(p.next_crash(2, 0), None, "a fired entry is not pending");
        assert_eq!(p.snapshot().faults_injected, 1);
    }

    #[test]
    fn registered_plane_publishes_chaos_series() {
        let registry = Registry::new();
        let p = FaultPlane::registered(FaultPlan::with_seed(5, 0.4), &registry);
        for s in 0..300 {
            p.decide(0, s, 0);
            p.replays_duplicate(0, s);
        }
        p.note_retry();
        let snap = registry.snapshot();
        assert!(snap.counter_total("chaos.faults_injected") > 0);
        assert_eq!(snap.counter("chaos.retries", &[]), 1);
        assert_eq!(p.snapshot().retries, 1);
    }
}
