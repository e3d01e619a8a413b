//! Deterministic worker scheduling: a coordinator that serializes simulated
//! workers in strict `(completed_steps, worker_id)` order and runs the
//! epoch/checkpoint rendezvous.
//!
//! Real distributed trainers interleave workers arbitrarily; on this
//! simulator the coordinator pins the interleaving so every run is
//! reproducible from its seed. The schedule keeps workers in lockstep
//! (nobody starts step `t + 1` before everyone finished step `t`), which
//! has two consequences the rest of the runtime relies on:
//!
//! * every step boundary where all workers have completed `t` steps is a
//!   **consistent cut** — the mid-epoch checkpoint points;
//! * bounded staleness `s` governs *data visibility* (how long a worker may
//!   train on an un-drained replica), not run-ahead, so staleness effects
//!   are isolated from scheduling noise.
//!
//! All waits return `Result`: a crashed worker (fault injection) or a
//! failed leader computation wakes every waiter with an error instead of
//! deadlocking or panicking.

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

/// What one worker contributes at a rendezvous.
#[derive(Debug, Clone, Default)]
pub struct Deposit {
    /// Dense parameters (pre-average), flattened.
    pub params: Vec<f32>,
    /// Dense parameters + optimizer state, flattened.
    pub state: Vec<f32>,
    /// The worker's RNG state after its last completed step.
    pub rng: [u64; 4],
    /// Running loss sum of the current epoch.
    pub loss_sum: f64,
    /// Running pair count of the current epoch.
    pub pairs: u64,
    /// Step of the worker's last replica drain.
    pub last_drain: u64,
    /// Positive edges consumed so far (throughput numerator).
    pub edges: u64,
    /// Measured compute time so far, nanoseconds.
    pub busy_ns: u64,
    /// Modelled comm time so far, nanoseconds.
    pub comm_ns: u64,
    /// Staleness histogram: `hist[a]` = steps run at replica age `a`.
    pub hist: Vec<u64>,
}

/// What the rendezvous leader hands back to every worker.
#[derive(Debug, Default)]
pub struct Rendezvous {
    /// Averaged dense parameters (epoch barriers only).
    pub avg_params: Option<Vec<f32>>,
    /// Replica refresh (checkpoint rendezvous only): the materialized
    /// server state at the cut. Every worker adopts it as its replica —
    /// without touching its drain schedule — so the checkpoint is a
    /// self-contained restore point at any staleness bound (a restore
    /// rebuilds replicas from the same materialized state).
    pub drain: Option<aligraph_graph::FeatureMatrix>,
    /// Early-stop signal: workers leave their epoch loop.
    pub stop: bool,
}

struct CoState {
    /// Completed steps per worker.
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
    /// A coordinator for `workers` workers that have each already completed
    /// `start_step` steps (0 for a fresh run, the checkpoint step after a
    /// restore).
    pub fn new(workers: usize, start_step: u64) -> Self {
        Coordinator {
            state: Mutex::new(CoState {
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

    /// Blocks until worker `me` is the strict `(steps, id)` minimum — its
    /// turn to run one step. Errors out if the run was torn down.
    pub fn acquire(&self, me: usize) -> Result<(), RuntimeError> {
        let mut st = self.lock()?;
        loop {
            if let Some(a) = &st.crashed {
                return Err(a.to_error());
            }
            #[expect(
                clippy::expect_used,
                reason = "SspCoordinator::new requires at least one worker"
            )]
            let min =
                (0..st.steps.len()).min_by_key(|&w| (st.steps[w], w)).expect("at least one worker");
            if min == me {
                return Ok(());
            }
            st = self.cv.wait(st).map_err(|_| RuntimeError::Poisoned("coordinator"))?;
        }
    }

    /// Marks worker `me`'s current step complete and wakes the next worker.
    pub fn complete(&self, me: usize) -> Result<(), RuntimeError> {
        let mut st = self.lock()?;
        st.steps[me] += 1;
        self.cv.notify_all();
        Ok(())
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
            loop {
                if let Some(a) = &st.crashed {
                    return Err(a.to_error());
                }
                if st.generation != gen {
                    return st.outcome.clone().ok_or(RuntimeError::Poisoned("rendezvous outcome"));
                }
                st = self.cv.wait(st).map_err(|_| RuntimeError::Poisoned("coordinator"))?;
            }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn schedule_is_strict_round_robin() {
        // 3 workers, 4 steps each: the acquire order must be
        // 0,1,2,0,1,2,... regardless of thread scheduling.
        let co = Arc::new(Coordinator::new(3, 0));
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for me in 0..3usize {
                let co = co.clone();
                let order = order.clone();
                s.spawn(move || {
                    for _ in 0..4 {
                        co.acquire(me).unwrap();
                        order.lock().unwrap().push(me);
                        co.complete(me).unwrap();
                    }
                });
            }
        });
        let order = order.lock().unwrap();
        assert_eq!(*order, vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]);
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
                    let dep = Deposit { loss_sum: me as f64, ..Deposit::default() };
                    let out = co
                        .rendezvous(me, dep, |deps| {
                            leader_runs.fetch_add(1, Ordering::SeqCst);
                            // Deposits arrive in worker order, not arrival order.
                            let sums: Vec<f64> = deps.iter().map(|d| d.loss_sum).collect();
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
        let co = Arc::new(Coordinator::new(2, 0));
        std::thread::scope(|s| {
            let co0 = co.clone();
            let h = s.spawn(move || {
                // Worker 1 never runs step 0, so worker 0 finishes its step
                // and then blocks at the rendezvous until the crash.
                co0.acquire(0).unwrap();
                co0.complete(0).unwrap();
                co0.rendezvous(0, Deposit::default(), |_| Ok(Rendezvous::default()))
            });
            let co1 = co.clone();
            s.spawn(move || {
                co1.acquire(1).unwrap();
                co1.crash(Abort::Fault { worker: 1 }).unwrap();
            });
            assert!(matches!(h.join().unwrap(), Err(RuntimeError::Fault { worker: 1 })));
        });
        // Post-crash waits fail immediately instead of hanging.
        assert!(co.acquire(0).is_err());
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
