//! The mini-loom: a seeded virtual-thread scheduler that drives the
//! workspace's lock-free structures through thousands of interleavings and
//! checks every history against a sequential shadow model.
//!
//! Unlike real loom, which reorders at the individual-atomic-access level,
//! this checker interleaves at *operation* granularity: each virtual thread
//! is a deterministic state machine whose `step` performs one linearizable
//! unit of work (one stripe write, one PS push, one cache probe). The
//! scheduler — seeded xorshift or strict round-robin — picks which thread
//! steps next, so the explored space is every interleaving of those units.
//! Structures whose reads are *not* one unit (the striped counter's
//! 16-stripe snapshot sum) are driven through per-stripe hooks so the read
//! really does tear across concurrent writes. A thread may also be
//! *blocked* (parked on a lock or a condition); when every unfinished
//! thread is blocked the run is a deadlock — how a lost wake-up shows.
//!
//! A run is a pure function of its seed: schedules come from [`SplitMix`],
//! never from the OS, and every divergence report carries the seed,
//! interleaving index, and the exact schedule so it replays bit-identically
//! (see [`Explorer::replay`]).

pub mod combiner;
pub mod counter;
pub mod overlay;
pub mod ps;
pub mod swap;
pub mod topology;

/// SplitMix64 — tiny, seedable, and good enough to scatter schedules.
#[derive(Debug, Clone)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// Seeds the stream.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One virtual thread: a deterministic state machine over the shared state
/// `S`. `step` runs one linearizable unit; `done` reports completion (it
/// may depend on shared state).
pub trait VThread<S> {
    /// True when the thread has nothing left to run.
    fn done(&self, state: &S) -> bool;
    /// True while the thread is parked and may not be scheduled; it runs
    /// again once shared state wakes it.
    fn blocked(&self, _state: &S) -> bool {
        false
    }
    /// Executes the thread's next unit of work.
    fn step(&mut self, state: &mut S);
}

/// How the scheduler picks the next runnable thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Seeded uniform choice among runnable threads.
    Random,
    /// Cycle through runnable threads in index order.
    RoundRobin,
}

/// A shadow-model divergence: the real structure disagreed with the
/// sequential model under a specific schedule.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which check failed, with the observed-vs-expected detail.
    pub message: String,
    /// The schedule (thread index per step) that produced it.
    pub schedule: Vec<usize>,
    /// Interleaving index within the exploration, if explored.
    pub interleaving: Option<u64>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "divergence{}: {} (schedule: {} steps)",
            self.interleaving.map(|i| format!(" at interleaving {i}")).unwrap_or_default(),
            self.message,
            self.schedule.len()
        )
    }
}

/// The thread set a workload schedules: boxed virtual threads over a shared
/// state `S`.
pub type Threads<S> = Vec<Box<dyn VThread<S>>>;

/// One concurrency workload: how to build a fresh state + thread set, and
/// what must hold at the end.
pub trait Workload {
    /// The shared state the virtual threads operate on.
    type State;

    /// Short name for reports (`"striped-counter"`, …).
    fn name(&self) -> &'static str;

    /// Builds a fresh state and thread set for one interleaving.
    fn setup(&self) -> (Self::State, Threads<Self::State>);

    /// In-flight invariant errors recorded by threads during the run.
    fn errors(state: &Self::State) -> &[String];

    /// Final shadow-model comparison once every thread is done.
    fn check_final(&self, state: &Self::State) -> Result<(), String>;
}

/// Runs one schedule to completion. `pick` chooses among runnable thread
/// indices; the executed schedule is returned for replay, with a deadlock
/// report if the run stopped with every unfinished thread blocked.
fn run_one<S>(
    state: &mut S,
    threads: &mut [Box<dyn VThread<S>>],
    mut pick: impl FnMut(&[usize]) -> usize,
) -> (Vec<usize>, Option<String>) {
    let mut schedule = Vec::new();
    let mut runnable = Vec::with_capacity(threads.len());
    loop {
        runnable.clear();
        runnable.extend(
            threads
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.done(state) && !t.blocked(state))
                .map(|(i, _)| i),
        );
        if runnable.is_empty() {
            let stuck: Vec<usize> =
                (0..threads.len()).filter(|&i| !threads[i].done(state)).collect();
            let deadlock = (!stuck.is_empty()).then(|| {
                format!("deadlock: threads {stuck:?} are parked and nothing can wake them")
            });
            return (schedule, deadlock);
        }
        let idx = runnable[pick(&runnable).min(runnable.len() - 1)];
        threads[idx].step(state);
        schedule.push(idx);
    }
}

/// The first failure of a finished run: an in-flight error, a deadlock, or
/// the final shadow-model check.
fn verdict<W: Workload>(w: &W, state: &W::State, deadlock: Option<String>) -> Result<(), String> {
    match W::errors(state).first().cloned().or(deadlock) {
        Some(message) => Err(message),
        None => w.check_final(state),
    }
}

/// Drives a [`Workload`] through seeded interleavings.
#[derive(Debug)]
pub struct Explorer {
    /// Base seed; interleaving `i` uses the sub-stream `mix(seed, i)`.
    pub seed: u64,
}

impl Explorer {
    /// Explores `n` interleavings (the first one strict round-robin, the
    /// rest seeded-random — round-robin catches "fair" schedules that
    /// uniform choice visits rarely). Returns the first divergence, if any.
    pub fn explore<W: Workload>(&self, w: &W, n: u64) -> Result<(), Divergence> {
        for i in 0..n {
            let (mut state, mut threads) = w.setup();
            let mut rng = SplitMix::new(self.seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F));
            let mut rr = 0usize;
            let policy = if i == 0 { Policy::RoundRobin } else { Policy::Random };
            let (schedule, deadlock) = run_one(&mut state, &mut threads, |runnable| match policy {
                Policy::Random => rng.below(runnable.len()),
                Policy::RoundRobin => {
                    rr += 1;
                    (rr - 1) % runnable.len()
                }
            });
            if let Err(message) = verdict(w, &state, deadlock) {
                return Err(Divergence { message, schedule, interleaving: Some(i) });
            }
        }
        Ok(())
    }

    /// Replays one recorded schedule exactly. Deterministic: the same
    /// schedule over a fresh setup yields the same history bit-for-bit.
    pub fn replay<W: Workload>(w: &W, schedule: &[usize]) -> Result<(), Divergence> {
        let (mut state, mut threads) = w.setup();
        let mut cursor = 0usize;
        let (executed, deadlock) = run_one(&mut state, &mut threads, |runnable| {
            // Follow the recorded schedule while it lasts (skipping entries
            // whose thread already finished), then fall back to index 0.
            while cursor < schedule.len() {
                let want = schedule[cursor];
                cursor += 1;
                if let Some(pos) = runnable.iter().position(|&r| r == want) {
                    return pos;
                }
            }
            0
        });
        verdict(w, &state, deadlock).map_err(|message| Divergence {
            message,
            schedule: executed,
            interleaving: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix::new(42);
        let mut b = SplitMix::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = SplitMix::new(43);
        assert_ne!(xs[0], c.next_u64());
        // below() stays in range.
        for _ in 0..1000 {
            assert!(a.below(7) < 7);
        }
    }

    struct TwoAdders;
    #[derive(Default)]
    struct AddState {
        total: u64,
        errors: Vec<String>,
    }
    struct Adder {
        left: u32,
    }
    impl VThread<AddState> for Adder {
        fn done(&self, _: &AddState) -> bool {
            self.left == 0
        }
        fn step(&mut self, s: &mut AddState) {
            s.total += 1;
            self.left -= 1;
        }
    }
    impl Workload for TwoAdders {
        type State = AddState;
        fn name(&self) -> &'static str {
            "two-adders"
        }
        fn setup(&self) -> (AddState, Vec<Box<dyn VThread<AddState>>>) {
            (AddState::default(), vec![Box::new(Adder { left: 5 }), Box::new(Adder { left: 3 })])
        }
        fn errors(state: &AddState) -> &[String] {
            &state.errors
        }
        fn check_final(&self, state: &AddState) -> Result<(), String> {
            if state.total == 8 {
                Ok(())
            } else {
                Err(format!("total {} != 8", state.total))
            }
        }
    }

    #[test]
    fn explorer_runs_every_thread_to_completion() {
        Explorer { seed: 7 }.explore(&TwoAdders, 50).unwrap();
    }

    #[test]
    fn replay_follows_recorded_schedule() {
        // Record a schedule, then replay it; both must pass and the replay
        // must execute the same number of steps.
        let (mut state, mut threads) = TwoAdders.setup();
        let mut rng = SplitMix::new(9);
        let (schedule, deadlock) = run_one(&mut state, &mut threads, |r| rng.below(r.len()));
        assert_eq!((schedule.len(), deadlock), (8, None));
        Explorer::replay(&TwoAdders, &schedule).unwrap();
    }
}
