//! Deterministic worker scheduling without a token: a coordinator that
//! counts each worker's completed steps, lets a worker wait for a **cut**
//! (every worker has completed `t` steps) before it drains the parameter
//! server, runs the rendezvous at every epoch end and checkpoint cut, and
//! stops every worker at a scheduled crash's cut. Workers run in series (in
//! worker order) meet each wait before making it, and lead cuts themselves.
//!
//! No read a worker makes depends on how the workers interleave: it samples
//! through its own shard (edge pool, neighbor cache, tier state, each
//! driven by its own RNG stream), and the parameter server applies pushes
//! only at a cut (see [`crate::ps`]). So the workers run their steps at
//! once and every run is still a function of its seed. A drain at step `t`
//! (every `t > 0` with `t % (s + 1) == 0`) waits for cut `t`, so bounded
//! staleness `s` governs *data visibility*, and a worker runs at most
//! `s + 1` steps ahead of the slowest.
//!
//! The **crash cut** of a scheduled crash `(w, t)`: workers below `w`
//! complete step `t`, `w` and the workers above it complete `t − 1`, and
//! nobody starts a step past that — where a one-token schedule crashes.
//!
//! All waits return `Result`: a crashed worker (fault injection) or a
//! failed leader computation wakes every waiter with an error instead of
//! deadlocking or panicking.

use crate::checkpoint::WorkerCkpt;
use crate::error::RuntimeError;
use aligraph_chaos::CrashPoint;
use std::sync::{Arc, Condvar, Mutex};

/// What one worker contributes at a rendezvous: its resumable state at the
/// cut, and at an epoch end the dense parameters to average.
#[derive(Debug, Clone, Default)]
pub struct Deposit {
    /// The worker's record, as a checkpoint at this cut stores it.
    pub state: WorkerCkpt,
    /// Dense parameters (pre-average), flattened; empty at a mid-epoch cut.
    pub params: Vec<f32>,
}

/// How many steps worker `w` completes before `crash` fires: the workers
/// below the crashing one complete its step, the others the one before.
fn stop(crash: &CrashPoint, w: usize) -> u64 {
    crash.at_step + u64::from(w < crash.worker as usize)
}

struct CoState {
    /// Steps each worker has completed: pushed, so the PS holds them.
    steps: Vec<u64>,
    /// Why the run was torn down, if it was: a [`RuntimeError::Fault`]
    /// the attempt loop recovers from, or a leader's error.
    crashed: Option<RuntimeError>,
    /// Rendezvous state.
    arrived: usize,
    deposits: Vec<Option<Deposit>>,
    generation: u64,
    outcome: Arc<Option<Vec<f32>>>,
}

/// The cuts + rendezvous shared by one attempt's workers.
pub struct Coordinator {
    state: Mutex<CoState>,
    cv: Condvar,
    /// The attempt's first scheduled crash, if any.
    crash: Option<CrashPoint>,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator").finish_non_exhaustive()
    }
}

impl Coordinator {
    /// A coordinator for `workers` workers that have each already completed
    /// `start_step` steps (0 for a fresh run, the checkpoint step after a
    /// restore), stopping them at `crash`'s cut when one is scheduled.
    pub fn new(workers: usize, start_step: u64, crash: Option<CrashPoint>) -> Self {
        Coordinator {
            crash,
            state: Mutex::new(CoState {
                steps: vec![start_step; workers],
                crashed: None,
                arrived: 0,
                deposits: (0..workers).map(|_| None).collect(),
                generation: 0,
                outcome: Arc::default(),
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> Result<std::sync::MutexGuard<'_, CoState>, RuntimeError> {
        self.state.lock().map_err(|_| RuntimeError::Poisoned("coordinator"))
    }

    /// Blocks until `ready` holds or the run is torn down (an error).
    fn wait_until(
        &self,
        ready: impl Fn(&CoState) -> bool,
    ) -> Result<std::sync::MutexGuard<'_, CoState>, RuntimeError> {
        let mut st = self.lock()?;
        loop {
            if let Some(e) = &st.crashed {
                return Err(e.clone());
            }
            if ready(&st) {
                return Ok(st);
            }
            st = self.cv.wait(st).map_err(|_| RuntimeError::Poisoned("coordinator"))?;
        }
    }

    /// Counts worker `me`'s step complete: its push is on the PS.
    pub fn finish_step(&self, me: usize) -> Result<(), RuntimeError> {
        let mut st = self.lock()?;
        st.steps[me] += 1;
        self.cv.notify_all();
        Ok(())
    }

    /// Blocks until cut `t`: every worker has completed `t` steps, so a
    /// drain reads every push below `t`.
    pub fn await_cut(&self, t: u64) -> Result<(), RuntimeError> {
        self.wait_until(|st| st.steps.iter().all(|&c| c >= t)).map(drop)
    }

    /// Rendezvous: deposits `me`'s contribution and blocks until all workers
    /// arrive. The last arriver runs `leader` over the deposits (in worker
    /// order) while holding the coordinator lock — rendezvous are serialized
    /// anyway, so no extra concurrency is lost — and its result, the
    /// averaged dense parameters at an epoch end, is handed to every worker.
    /// A leader error tears the run down for everyone.
    pub fn rendezvous<F>(
        &self,
        me: usize,
        deposit: Deposit,
        leader: F,
    ) -> Result<Arc<Option<Vec<f32>>>, RuntimeError>
    where
        F: FnOnce(Vec<Deposit>) -> Result<Option<Vec<f32>>, RuntimeError>,
    {
        let mut st = self.lock()?;
        if let Some(e) = &st.crashed {
            return Err(e.clone());
        }
        st.deposits[me] = Some(deposit);
        st.arrived += 1;
        if st.arrived == st.steps.len() {
            #[expect(
                clippy::expect_used,
                reason = "arrived == steps.len() means every deposit slot was filled this round"
            )]
            let deposits: Vec<Deposit> =
                st.deposits.iter_mut().map(|d| d.take().expect("every worker deposited")).collect();
            st.arrived = 0;
            match leader(deposits) {
                Ok(out) => {
                    let out = Arc::new(out);
                    st.outcome = out.clone();
                    st.generation += 1;
                    self.cv.notify_all();
                    Ok(out)
                }
                Err(e) => {
                    st.crashed = Some(RuntimeError::Unrecoverable(e.to_string()));
                    self.cv.notify_all();
                    Err(e)
                }
            }
        } else {
            let gen = st.generation;
            drop(st);
            Ok(self.wait_until(|st| st.generation != gen)?.outcome.clone())
        }
    }

    /// Tears the run down: every current and future wait returns `why`.
    pub fn crash(&self, why: RuntimeError) -> Result<(), RuntimeError> {
        let mut st = self.lock()?;
        if st.crashed.is_none() {
            st.crashed = Some(why);
        }
        self.cv.notify_all();
        Ok(())
    }

    /// Stops worker `me` before step `t` when `t` is its place on the crash
    /// cut, and returns at once otherwise. There the crashing worker calls
    /// `fire` (the chaos plane's once-only latch), waits until every other
    /// worker has completed its steps up to the cut, and tears the run down;
    /// the others wait for that. Either way the crash's
    /// [`RuntimeError::Fault`] comes back as the error.
    pub fn stop_at_crash_cut<R>(
        &self,
        me: usize,
        t: u64,
        fire: impl FnOnce() -> R,
    ) -> Result<(), RuntimeError> {
        let Some(crash) = self.crash.filter(|crash| t >= stop(crash, me)) else { return Ok(()) };
        if me == crash.worker as usize {
            fire();
            let stopped = |st: &CoState| {
                st.steps.iter().enumerate().all(|(w, &c)| w == me || c >= stop(&crash, w))
            };
            drop(self.wait_until(stopped)?);
            self.crash(RuntimeError::Fault { worker: crash.worker })?;
        }
        self.wait_until(|_| false).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc, Barrier};
    use std::time::Duration;

    #[test]
    fn a_worker_finishes_a_step_while_another_is_inside_it() {
        // Worker 0 stays inside step 0 until worker 1 has finished step 0.
        // Were the steps taken in turns, worker 1 could not finish before
        // worker 0: the handshake would time out.
        let co = Coordinator::new(2, 0, None);
        let (finished, wait_finished) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                co.await_cut(0).unwrap();
                co.finish_step(1).unwrap();
                finished.send(()).unwrap();
            });
            co.await_cut(0).unwrap();
            let overlap = wait_finished.recv_timeout(Duration::from_secs(30));
            co.finish_step(0).unwrap();
            assert!(overlap.is_ok(), "worker 1 never finished step 0 inside worker 0's");
            // Cut 1 is reached once both have finished step 0.
            co.await_cut(1).unwrap();
        });
    }

    /// Runs `workers` workers for up to 4 steps each into `crash`'s cut and
    /// returns their log. Every worker must end on the crash's abort, fired
    /// once. Unless it is the crashing worker, `slow` is held inside its
    /// last step until the crash has fired, so a crash that did not wait
    /// for it would land early.
    fn run_to_crash(
        workers: usize,
        crash: CrashPoint,
        slow: usize,
    ) -> Vec<(&'static str, usize, u64)> {
        let (co, log) = (Coordinator::new(workers, 0, Some(crash)), Mutex::new(Vec::new()));
        let (fired, inside) = (AtomicU64::new(0), Barrier::new(2));
        let held = slow != crash.worker as usize;
        let run = |me: usize| -> Result<(), RuntimeError> {
            for t in 0..4 {
                co.stop_at_crash_cut(me, t, || {
                    fired.fetch_add(1, Ordering::SeqCst);
                    if held {
                        inside.wait();
                    }
                })?;
                log.lock().unwrap().push(("sample", me, t));
                if held && me == slow && t + 1 == stop(&crash, me) {
                    inside.wait();
                }
                co.await_cut(t)?;
                log.lock().unwrap().push(("step", me, t));
                co.finish_step(me)?;
            }
            Ok(())
        };
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|me| s.spawn(move || run(me))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let fault = RuntimeError::Fault { worker: crash.worker };
        assert!(results.iter().all(|r| r.as_ref().err() == Some(&fault)), "{results:?}");
        assert_eq!(fired.load(Ordering::SeqCst), 1, "the crash fires once");
        log.into_inner().unwrap()
    }

    #[test]
    fn a_crash_at_a_sample_turn_keeps_the_lock_step_cut() {
        // Worker 1's crash is scheduled before its step 2. The one-token
        // schedule crashed with worker 0's step 2 complete and its step 3
        // not started; the crash cut must stop at the same place, even with
        // worker 0 still inside step 2 when worker 1 reaches the crash.
        let log = run_to_crash(2, CrashPoint { worker: 1, at_step: 2 }, 0);
        assert!(log.contains(&("step", 0, 2)), "worker 0's step 2 completes: {log:?}");
        assert!(!log.contains(&("sample", 0, 3)), "step 3 is never sampled: {log:?}");
        assert_eq!(log.len(), 2 * 2 * 2 + 2, "steps 0-1 of both, step 2 of worker 0");
    }

    #[test]
    fn the_crash_cut_stops_each_worker_at_its_count() {
        // A crash at (1, 2) among three workers: worker 0 completes step 2,
        // workers 1 and 2 complete step 1, and nobody samples further,
        // whichever of them is slow.
        for slow in 0..3 {
            let log = run_to_crash(3, CrashPoint { worker: 1, at_step: 2 }, slow);
            for (me, done) in [(0, 3), (1, 2), (2, 2)] {
                let count = |what: &str| log.iter().filter(|e| e.0 == what && e.1 == me).count();
                assert_eq!((count("sample"), count("step")), (done, done), "{me}, {slow}: {log:?}");
            }
        }
    }

    #[test]
    fn rendezvous_runs_leader_once_with_all_deposits() {
        let co = Arc::new(Coordinator::new(4, 0, None));
        let leader_runs = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for me in 0..4usize {
                let co = co.clone();
                let leader_runs = leader_runs.clone();
                s.spawn(move || {
                    let state = WorkerCkpt { loss_sum: me as f64, ..WorkerCkpt::default() };
                    let dep = Deposit { state, ..Deposit::default() };
                    let out = co
                        .rendezvous(me, dep, |deps| {
                            leader_runs.fetch_add(1, Ordering::SeqCst);
                            // Deposits arrive in worker order, not arrival order.
                            let sums: Vec<f64> = deps.iter().map(|d| d.state.loss_sum).collect();
                            assert_eq!(sums, vec![0.0, 1.0, 2.0, 3.0]);
                            Ok(Some(vec![1.5]))
                        })
                        .unwrap();
                    assert_eq!(out.as_deref(), Some(&[1.5][..]));
                });
            }
        });
        assert_eq!(leader_runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn crash_wakes_scheduler_and_rendezvous_waiters() {
        let co = Arc::new(Coordinator::new(3, 0, None));
        std::thread::scope(|s| {
            // Worker 2 never finishes step 0, so worker 0 waits for cut 1
            // and worker 1 at the rendezvous until the crash.
            let (waiting, wait_waiting) = mpsc::channel();
            let (co0, waiting0) = (co.clone(), waiting.clone());
            let at_cut = s.spawn(move || {
                co0.finish_step(0).unwrap();
                waiting0.send(()).unwrap();
                co0.await_cut(1)
            });
            let co1 = co.clone();
            let at_rendezvous = s.spawn(move || {
                co1.finish_step(1).unwrap();
                waiting.send(()).unwrap();
                co1.rendezvous(1, Deposit::default(), |_| Ok(None))
            });
            wait_waiting.iter().take(2).for_each(drop);
            co.crash(RuntimeError::Fault { worker: 2 }).unwrap();
            assert!(matches!(at_cut.join().unwrap(), Err(RuntimeError::Fault { worker: 2 })));
            assert!(matches!(
                at_rendezvous.join().unwrap(),
                Err(RuntimeError::Fault { worker: 2 })
            ));
        });
        // Post-crash waits fail immediately instead of hanging.
        assert!(co.await_cut(0).is_err());
    }

    #[test]
    fn leader_error_tears_down_every_worker() {
        let co = Arc::new(Coordinator::new(2, 0, None));
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2usize)
                .map(|me| {
                    let co = co.clone();
                    s.spawn(move || {
                        co.rendezvous(me, Deposit::default(), |_| {
                            Err(RuntimeError::Checkpoint("disk full".into()))
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|r| r.is_err()));
    }
}
