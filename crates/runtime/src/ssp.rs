//! Deterministic worker scheduling: a coordinator that passes one token
//! ring around the simulated workers for the half of a step that reads the
//! shared cluster, lets each worker wait for a **cut** before it drains the
//! parameter server, and runs the rendezvous at every epoch end and
//! checkpoint cut.
//!
//! Real distributed trainers interleave workers arbitrarily; on this
//! simulator the coordinator pins every order-sensitive interleaving so
//! each run is reproducible from its seed. The sample ring serializes the
//! sampling half of every step in strict `(count, worker_id)` order, so
//! every cluster read happens in the same global order as a one-token
//! schedule would give. The rest of a step is the worker's own: the
//! parameter server stages pushes and applies them only at a cut (see
//! [`crate::ps`]), so two workers compute and push at the same time and
//! still read the same rows. The ring keeps its workers in lockstep (nobody
//! samples step `t + 1` before everyone has sampled step `t`), which has
//! two consequences the rest of the runtime relies on:
//!
//! * every step boundary where all workers have completed `t` steps and
//!   none has sampled further is a **consistent cut** — the rendezvous
//!   points, which a worker reaches before it samples again;
//! * bounded staleness `s` governs *data visibility* (how long a worker may
//!   train on an un-drained replica), not run-ahead, so staleness effects
//!   are isolated from scheduling noise.
//!
//! All waits return `Result`: a crashed worker (fault injection) or a
//! failed leader computation wakes every waiter with an error instead of
//! deadlocking or panicking.

use crate::checkpoint::WorkerCkpt;
use crate::error::RuntimeError;
use std::sync::{Condvar, Mutex};

/// Why a run was torn down early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Abort {
    /// Fault injection killed a worker; the attempt loop restores/retries.
    Fault {
        /// The killed worker.
        worker: u32,
    },
    /// A worker or barrier leader hit a real error.
    Failed(String),
}

impl Abort {
    fn to_error(&self) -> RuntimeError {
        match self {
            Abort::Fault { worker } => RuntimeError::Fault { worker: *worker },
            Abort::Failed(m) => RuntimeError::Unrecoverable(m.clone()),
        }
    }
}

/// What one worker contributes at a rendezvous: its resumable state at the
/// cut, and at an epoch end the dense parameters to average.
#[derive(Debug, Clone, Default)]
pub struct Deposit {
    /// The worker's record, as a checkpoint at this cut stores it.
    pub state: WorkerCkpt,
    /// Dense parameters (pre-average), flattened; empty at a mid-epoch cut.
    pub params: Vec<f32>,
}

/// What the rendezvous leader hands back to every worker.
#[derive(Debug, Default)]
pub struct Rendezvous {
    /// Averaged dense parameters (epoch barriers only).
    pub avg_params: Option<Vec<f32>>,
    /// Replica refresh (checkpoint cuts only): the materialized
    /// server state at the cut. Every worker adopts it as its replica —
    /// without touching its drain schedule — so the checkpoint is a
    /// self-contained restore point at any staleness bound (a restore
    /// rebuilds replicas from the same materialized state).
    pub drain: Option<aligraph_graph::FeatureMatrix>,
}

struct CoState {
    /// Steps each worker has sampled (the sample ring's counts).
    sampled: Vec<u64>,
    /// Steps each worker has completed: pushed, so the PS holds them.
    steps: Vec<u64>,
    /// Torn down?
    crashed: Option<Abort>,
    /// Rendezvous state.
    arrived: usize,
    deposits: Vec<Option<Deposit>>,
    generation: u64,
    outcome: Option<std::sync::Arc<Rendezvous>>,
}

/// The scheduler + rendezvous shared by one attempt's workers.
pub struct Coordinator {
    state: Mutex<CoState>,
    cv: Condvar,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator").finish_non_exhaustive()
    }
}

impl Coordinator {
    /// A coordinator for `workers` workers that have each already sampled
    /// and completed `start_step` steps (0 for a fresh run, the checkpoint
    /// step after a restore).
    pub fn new(workers: usize, start_step: u64) -> Self {
        Coordinator {
            state: Mutex::new(CoState {
                sampled: vec![start_step; workers],
                steps: vec![start_step; workers],
                crashed: None,
                arrived: 0,
                deposits: (0..workers).map(|_| None).collect(),
                generation: 0,
                outcome: None,
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
            if let Some(a) = &st.crashed {
                return Err(a.to_error());
            }
            if ready(&st) {
                return Ok(st);
            }
            st = self.cv.wait(st).map_err(|_| RuntimeError::Poisoned("coordinator"))?;
        }
    }

    /// Blocks until worker `me` holds the sample ring's token: it is the
    /// strict `(count, id)` minimum of the sampled counts.
    pub fn acquire(&self, me: usize) -> Result<(), RuntimeError> {
        self.wait_until(|st| {
            let mine = (st.sampled[me], me);
            st.sampled.iter().enumerate().all(|(w, &c)| w == me || mine < (c, w))
        })
        .map(drop)
    }

    /// Counts worker `me`'s sample turn done and passes the token on.
    pub fn release(&self, me: usize) -> Result<(), RuntimeError> {
        let mut st = self.lock()?;
        st.sampled[me] += 1;
        self.cv.notify_all();
        Ok(())
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
    /// anyway, so no extra concurrency is lost — and its result is handed to
    /// every worker. A leader error tears the run down for everyone.
    pub fn rendezvous<F>(
        &self,
        me: usize,
        deposit: Deposit,
        leader: F,
    ) -> Result<std::sync::Arc<Rendezvous>, RuntimeError>
    where
        F: FnOnce(Vec<Deposit>) -> Result<Rendezvous, RuntimeError>,
    {
        let mut st = self.lock()?;
        if let Some(a) = &st.crashed {
            return Err(a.to_error());
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
                    let out = std::sync::Arc::new(out);
                    st.outcome = Some(out.clone());
                    st.generation += 1;
                    self.cv.notify_all();
                    Ok(out)
                }
                Err(e) => {
                    st.crashed = Some(Abort::Failed(e.to_string()));
                    self.cv.notify_all();
                    Err(e)
                }
            }
        } else {
            let gen = st.generation;
            drop(st);
            let st = self.wait_until(|st| st.generation != gen)?;
            st.outcome.clone().ok_or(RuntimeError::Poisoned("rendezvous outcome"))
        }
    }

    /// Tears the run down: every current and future wait returns the abort.
    pub fn crash(&self, abort: Abort) -> Result<(), RuntimeError> {
        let mut st = self.lock()?;
        if st.crashed.is_none() {
            st.crashed = Some(abort);
        }
        self.cv.notify_all();
        Ok(())
    }

    /// Tears the run down from worker `me`'s sample turn at the cut a
    /// one-token schedule would crash at. `me` keeps the sample token, so no
    /// later step is sampled, and waits until no other worker has a sampled
    /// step in flight, so every earlier step has completed.
    pub fn crash_at_cut(&self, me: usize, abort: Abort) -> Result<(), RuntimeError> {
        self.wait_until(|st| {
            st.sampled.iter().zip(&st.steps).enumerate().all(|(w, (s, c))| w == me || s == c)
        })
        .map(drop)?;
        self.crash(abort)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// One worker's step `t`, logged: its sample turn, then, at cut `t`,
    /// its completion.
    fn step(co: &Coordinator, log: &Mutex<Vec<(&str, usize, u64)>>, me: usize, t: u64) {
        co.acquire(me).unwrap();
        log.lock().unwrap().push(("sample", me, t));
        co.release(me).unwrap();
        co.await_cut(t).unwrap();
        log.lock().unwrap().push(("step", me, t));
        co.finish_step(me).unwrap();
    }

    #[test]
    fn schedule_is_strict_round_robin() {
        // 3 workers, 4 steps each: the sample turns must go 0,1,2,0,1,2,...
        // regardless of thread scheduling.
        let co = Coordinator::new(3, 0);
        let log = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for me in 0..3usize {
                let (co, log) = (&co, &log);
                s.spawn(move || (0..4).for_each(|t| step(co, log, me, t)));
            }
        });
        let log = log.into_inner().unwrap();
        let order: Vec<usize> =
            log.iter().filter(|e| e.0 == "sample").map(|&(_, me, _)| me).collect();
        assert_eq!(order, [0, 1, 2].repeat(4));
    }

    #[test]
    fn a_worker_finishes_a_step_while_another_is_inside_it() {
        // Worker 0 stays inside step 0 until worker 1 has finished step 0.
        // Were the steps' compute taken in turns, worker 1 could not finish
        // before worker 0: the handshake would time out.
        let co = Coordinator::new(2, 0);
        let (finished, wait_finished) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                co.acquire(1).unwrap();
                co.release(1).unwrap();
                co.await_cut(0).unwrap();
                co.finish_step(1).unwrap();
                finished.send(()).unwrap();
            });
            co.acquire(0).unwrap();
            co.release(0).unwrap();
            co.await_cut(0).unwrap();
            let overlap = wait_finished.recv_timeout(Duration::from_secs(30));
            co.finish_step(0).unwrap();
            assert!(overlap.is_ok(), "worker 1 never finished step 0 inside worker 0's");
            // Cut 1 is reached once both have finished step 0.
            co.await_cut(1).unwrap();
        });
    }

    #[test]
    fn a_crash_at_a_sample_turn_keeps_the_lock_step_cut() {
        // Worker 1's crash fires at its sample turn for step 2, just after
        // worker 0 sampled step 2 and before worker 0 finishes it. The
        // one-token schedule crashed with worker 0's step 2 complete and its
        // step 3 not started; the cut schedule must crash at the same cut.
        let (co, log) = (&Coordinator::new(2, 0), &Mutex::new(Vec::new()));
        let (crashing, wait_crashing) = mpsc::channel();
        let worker0 = std::thread::scope(|s| {
            let worker1 = s.spawn(move || {
                (0..2).for_each(|t| step(co, log, 1, t));
                co.acquire(1).unwrap();
                crashing.send(()).unwrap();
                co.crash_at_cut(1, Abort::Fault { worker: 1 }).unwrap();
            });
            (|| -> Result<(), RuntimeError> {
                for t in 0..4 {
                    co.acquire(0)?;
                    log.lock().unwrap().push(("sample", 0, t));
                    co.release(0)?;
                    if t == 2 {
                        // A crash that did not wait for worker 0's step in
                        // flight would land now; give it the time to.
                        wait_crashing.recv().unwrap();
                        for _ in 0..1_000 {
                            if worker1.is_finished() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                    co.await_cut(t)?;
                    log.lock().unwrap().push(("step", 0, t));
                    co.finish_step(0)?;
                }
                Ok(())
            })()
        });
        assert!(matches!(worker0, Err(RuntimeError::Fault { worker: 1 })));
        let log = log.lock().unwrap();
        assert!(log.contains(&("step", 0, 2)), "worker 0's step 2 completes: {log:?}");
        assert!(!log.contains(&("sample", 0, 3)), "step 3 is never sampled: {log:?}");
        assert_eq!(log.len(), 2 * 2 * 2 + 2, "steps 0-1 of both, step 2 of worker 0");
    }

    #[test]
    fn rendezvous_runs_leader_once_with_all_deposits() {
        let co = Arc::new(Coordinator::new(4, 0));
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
                            Ok(Rendezvous { avg_params: Some(vec![1.5]), ..Rendezvous::default() })
                        })
                        .unwrap();
                    assert_eq!(out.avg_params.as_deref(), Some(&[1.5][..]));
                });
            }
        });
        assert_eq!(leader_runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn crash_wakes_scheduler_and_rendezvous_waiters() {
        let co = Arc::new(Coordinator::new(3, 0));
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
                co1.rendezvous(1, Deposit::default(), |_| Ok(Rendezvous::default()))
            });
            wait_waiting.iter().take(2).for_each(drop);
            co.crash(Abort::Fault { worker: 2 }).unwrap();
            assert!(matches!(at_cut.join().unwrap(), Err(RuntimeError::Fault { worker: 2 })));
            assert!(matches!(
                at_rendezvous.join().unwrap(),
                Err(RuntimeError::Fault { worker: 2 })
            ));
        });
        // Post-crash waits fail immediately instead of hanging.
        assert!(co.acquire(0).is_err());
        assert!(co.await_cut(0).is_err());
    }

    #[test]
    fn leader_error_tears_down_every_worker() {
        let co = Arc::new(Coordinator::new(2, 0));
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
