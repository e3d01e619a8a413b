//! The distributed training runtime: shard-pinned trainer workers against
//! the sparse parameter server, with bounded-staleness replica pulls,
//! synchronous epoch-boundary allreduce of dense parameters, periodic
//! checkpoints, and fault injection with checkpoint recovery.
//!
//! A worker per [`Cluster`] partition runs each step `t` in three
//! phases. It *samples* its own edge shard ([`plan_contrastive`]): the only
//! reads of the cluster, through its own pool, cache and tier shard. It
//! *finishes*: at a drain step it waits for cut `t` and pins the PS rows as
//! its replica (a clone of a copy-on-write buffer, not a copy), runs
//! [`finish_contrastive`] on the replica, drops the pin after the last
//! compute before its next drain, and pushes the row-sparse feature
//! gradients, which the PS applies in place at the cut after the step. It
//! *updates*: the dense step ([`GnnEncoder::step`]) and the PS read
//! meters. At a cut (an epoch end with its dense allreduce, or a checkpoint
//! step) every worker deposits its record, one leader closes the cut, and
//! every worker adopts the outcome. The drain schedule is a function of the
//! step: with staleness `s`, every worker, restored ones included, drains
//! at step `t` iff `t > 0 && t % (s + 1) == 0`, and computes at age
//! `t % (s + 1)`. A checkpoint records the server as it stands, staged
//! pushes included, and applies nothing, so a run's bits do not depend on
//! how often it checkpoints.
//!
//! More than one worker run on threads and meet at the [`Coordinator`]; one,
//! or any number through [`DistTrainer::train_in_series`], run on the
//! caller's thread, step `t` of each in worker order, the leader inline.
//! Both give the same bits, a function of the seed (see [`crate::ssp`]).
//! With one worker, staleness 0 and a frozen sparse learning rate, a run is
//! exactly [`aligraph::train_unsupervised`] (a parity test pins it).

use crate::checkpoint::{latest_valid_checkpoint, Checkpoint, WorkerCkpt};
use crate::error::RuntimeError;
use crate::ps::SparseParamServer;
use crate::report::{DistReport, WorkerReport};
use crate::ssp::{Coordinator, Deposit};
use aligraph::{finish_contrastive, plan_contrastive, BatchOutcome, GnnEncoder, PlannedBatch};
use aligraph_chaos::{FaultConfig, FaultPlane, RetryPolicy};
use aligraph_graph::{EdgeType, FeatureMatrix};
use aligraph_partition::WorkerId;
use aligraph_sampling::neighborhood::ClusterView;
use aligraph_sampling::{worker_rng, MeteredNeighborhood, ShardEdgePools, UniformNeighborhood};
use aligraph_storage::seal::Fnv1a;
use aligraph_storage::{Cluster, RebalanceOp};
use aligraph_telemetry::{Histogram, Registry, Span, Stopwatch};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Where and how often to checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory for `ckpt-<step>.bin` files (created on first write).
    pub dir: PathBuf,
    /// Also checkpoint mid-epoch every this many global steps (0 = epoch
    /// boundaries only). Epoch boundaries always checkpoint.
    pub every_steps: u64,
}

/// One scheduled elastic topology change: after training epoch
/// `after_epoch` completes (1-based), apply `op` to the cluster and re-home
/// the parameter-server rows to match, all inside the epoch-boundary
/// allreduce rendezvous where every worker is parked. Excluded from the
/// config fingerprint: a rebalance moves only physical residency, never the
/// math, so checkpoints interchange with static-topology runs — which is
/// what lets the migration chaos suite pin bit-exact convergence across a
/// mid-training split.
#[derive(Debug, Clone, Copy)]
pub struct RebalancePlan {
    /// Apply after this many epochs have finished (1-based; `1` = after the
    /// first epoch's allreduce).
    pub after_epoch: usize,
    /// The topology change.
    pub op: RebalanceOp,
}

/// Configuration of a distributed training run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Trainer workers; must equal the cluster's partition count.
    pub workers: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batches **per worker** per epoch (weak scaling: more workers
    /// process proportionally more data per epoch).
    pub batches_per_epoch: usize,
    /// Positive edges per mini-batch.
    pub batch_size: usize,
    /// Negatives per positive.
    pub negatives: usize,
    /// Bounded staleness `s`: every worker drains the parameter server at
    /// each step `t > 0` with `t % (s + 1) == 0`, so it computes step `t`
    /// on a replica `t % (s + 1)` steps behind.
    pub staleness: u64,
    /// Base seed; worker `w` derives its stream via
    /// [`aligraph_sampling::worker_seed`]`(seed, w)`.
    pub seed: u64,
    /// AdaGrad learning rate for sparse feature-row updates (0 freezes the
    /// input features, matching the sequential trainer).
    pub sparse_lr: f32,
    /// Checkpointing (`None` disables; fault recovery then restarts from
    /// scratch).
    pub checkpoint: Option<CheckpointConfig>,
    /// Chaos plane over every PS push/pull channel, the migration channel,
    /// and — through the plan's `crash_schedule`, the one way to kill a
    /// worker mid-run — the workers themselves (`None` = unarmed, and no
    /// `chaos.*` series published). Excluded from the config fingerprint,
    /// so a chaos run's checkpoints interchange with fault-free ones —
    /// which is what lets the chaos suite assert bit-exact convergence
    /// against the fault-free baseline.
    pub chaos: Option<FaultConfig>,
    /// Elastic topology changes to apply at epoch boundaries, in order.
    pub rebalance: Vec<RebalancePlan>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 1,
            epochs: 3,
            batches_per_epoch: 20,
            batch_size: 32,
            negatives: 4,
            staleness: 0,
            seed: 42,
            sparse_lr: 0.0,
            checkpoint: None,
            chaos: None,
            rebalance: Vec::new(),
        }
    }
}

/// How each worker builds its (identical) local encoder. Workers construct
/// their own instance from this spec — encoders hold tapes and are not
/// shared across threads.
#[derive(Debug, Clone)]
pub struct EncoderSpec {
    /// Input feature dimension.
    pub dim_in: usize,
    /// Hidden dimension per hop.
    pub dims: Vec<usize>,
    /// Sampling fanout per hop.
    pub fanouts: Vec<usize>,
    /// Dense-layer learning rate.
    pub lr: f32,
    /// Parameter-init seed (same for all workers: replicas start equal).
    pub seed: u64,
}

impl EncoderSpec {
    fn build(&self) -> GnnEncoder {
        GnnEncoder::sage(self.dim_in, &self.dims, &self.fanouts, self.lr, self.seed)
    }
}

/// What a finished run hands back.
#[derive(Debug)]
pub struct DistOutcome {
    /// Metrics.
    pub report: DistReport,
    /// The trained encoder (post final allreduce).
    pub encoder: GnnEncoder,
    /// The final input features (trained if `sparse_lr > 0`).
    pub features: FeatureMatrix,
}

impl DistOutcome {
    /// What "the same trained model" means: an order-sensitive FNV over
    /// every bit the run produced — epoch losses, dense encoder parameters,
    /// trained feature rows. Two runs agree on this iff they agree on all
    /// three bit-for-bit.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for x in &self.report.epoch_losses {
            h.word(x.to_bits());
        }
        for x in self.encoder.dense_param_vec() {
            h.word(u64::from(x.to_bits()));
        }
        for x in self.features.as_slice() {
            h.word(u64::from(x.to_bits()));
        }
        h.finish()
    }
}

/// The distributed trainer: borrows a built [`Cluster`] and initial
/// features, owns its run configuration.
pub struct DistTrainer<'a> {
    cluster: &'a Cluster,
    features: &'a FeatureMatrix,
    spec: EncoderSpec,
    cfg: RuntimeConfig,
    registry: Arc<Registry>,
}

impl std::fmt::Debug for DistTrainer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistTrainer").field("spec", &self.spec).field("cfg", &self.cfg).finish()
    }
}

impl<'a> DistTrainer<'a> {
    /// Validates shapes up front so every failure is a [`RuntimeError::Config`]
    /// before any thread spawns.
    pub fn new(
        cluster: &'a Cluster,
        features: &'a FeatureMatrix,
        spec: EncoderSpec,
        cfg: RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        let fail = |m: String| Err(RuntimeError::Config(m));
        if cfg.workers == 0 || cfg.workers != cluster.num_workers() {
            return fail(format!(
                "cfg.workers = {} but the cluster has {} partitions",
                cfg.workers,
                cluster.num_workers()
            ));
        }
        if cfg.epochs == 0 || cfg.batches_per_epoch == 0 || cfg.batch_size == 0 {
            return fail("epochs, batches_per_epoch and batch_size must all be >= 1".into());
        }
        if spec.dims.is_empty() || spec.dims.len() != spec.fanouts.len() {
            return fail(format!(
                "encoder needs one fanout per hop (got {} dims, {} fanouts)",
                spec.dims.len(),
                spec.fanouts.len()
            ));
        }
        if features.dim != spec.dim_in {
            return fail(format!("feature dim {} != encoder dim_in {}", features.dim, spec.dim_in));
        }
        if features.len() != cluster.graph().num_vertices() {
            return fail(format!(
                "feature matrix has {} rows, graph has {} vertices",
                features.len(),
                cluster.graph().num_vertices()
            ));
        }
        for plan in &cfg.rebalance {
            if plan.after_epoch == 0 || plan.after_epoch > cfg.epochs {
                return fail(format!(
                    "rebalance after_epoch {} out of range (1..={} epochs)",
                    plan.after_epoch, cfg.epochs
                ));
            }
        }
        Ok(DistTrainer { cluster, features, spec, cfg, registry: Arc::new(Registry::disabled()) })
    }

    /// Publishes the run's metrics into `registry`: the parameter server's
    /// `runtime.ps.*` meters, the `runtime.staleness` and
    /// `runtime.allreduce_ns` histograms, and the samplers'
    /// `sampling.draws{kind=...}` / `sampling.latency_ns{kind=...}` series.
    /// Telemetry only observes — the training trajectory is bit-identical
    /// with or without a live registry (the determinism regression pins
    /// this).
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = registry;
        self
    }

    /// Hashes the structural configuration: everything a checkpoint must
    /// agree on to be loadable (graph shape, partition count, batch shape,
    /// seeds, model dims) — but *not* epoch count or the checkpoint/fault
    /// plumbing, so a run can be extended or re-run with different fault
    /// plans. The checkpoint cadence stays out because a checkpoint is an
    /// observation: it applies nothing, so the model is the same however
    /// often one is written.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut push = |v: u64| {
            h.bytes(&v.to_le_bytes());
        };
        push(self.cfg.workers as u64);
        push(self.cfg.batches_per_epoch as u64);
        push(self.cfg.batch_size as u64);
        push(self.cfg.negatives as u64);
        push(self.cfg.staleness);
        push(self.cfg.seed);
        push(self.cfg.sparse_lr.to_bits() as u64);
        push(self.spec.dim_in as u64);
        for &d in &self.spec.dims {
            push(d as u64);
        }
        for &f in &self.spec.fanouts {
            push(f as u64);
        }
        push(self.spec.lr.to_bits() as u64);
        push(self.spec.seed);
        push(self.cluster.graph().num_vertices() as u64);
        push(self.cluster.graph().num_edge_records() as u64);
        h.finish()
    }

    /// Trains from scratch (restarting from the latest checkpoint only if
    /// the fault injector fires); one worker runs on the caller's thread.
    pub fn train(&self) -> Result<DistOutcome, RuntimeError> {
        self.run(None, false)
    }

    /// Trains like [`train`](Self::train) with every worker on the caller's
    /// thread: step `t` of each in worker order, then the cut's leader
    /// inline. Bit for bit the threaded run, which is tested against it.
    pub fn train_in_series(&self) -> Result<DistOutcome, RuntimeError> {
        self.run(None, true)
    }

    /// Resumes from an already-loaded checkpoint and continues to
    /// `cfg.epochs`. This is the closed loop's warm-start entry point: the
    /// caller may patch re-pulled feature rows into the shard state
    /// ([`Checkpoint::patch_feature_rows`]) before resuming. With
    /// `ckpt.global_step` already at `cfg.epochs * cfg.batches_per_epoch`,
    /// the run is a zero-step no-op that hands back exactly the
    /// checkpointed model.
    pub fn train_from_checkpoint(&self, ckpt: Checkpoint) -> Result<DistOutcome, RuntimeError> {
        self.validate_checkpoint(&ckpt)?;
        self.run(Some(ckpt), false)
    }

    fn validate_checkpoint(&self, ckpt: &Checkpoint) -> Result<(), RuntimeError> {
        let refuse = |m: String| Err(RuntimeError::Checkpoint(m));
        if ckpt.fingerprint != self.fingerprint() {
            return refuse(
                "config fingerprint mismatch: checkpoint was written by a structurally \
                 different run (workers/batch/seed/model/graph changed)"
                    .into(),
            );
        }
        let (workers, p) = (ckpt.workers.len(), self.cfg.workers);
        if workers != p {
            return refuse(format!("checkpoint has {workers} workers, config has {p}"));
        }
        let (step, n) = (ckpt.global_step, self.cfg.batches_per_epoch * self.cfg.epochs);
        if step > n as u64 {
            return refuse(format!("checkpoint is at step {step} but this run only has {n} steps"));
        }
        Ok(())
    }

    /// The attempt loop: run, and on an injected fault restore from the
    /// latest checkpoint (or from scratch) and retry.
    fn run(&self, resume: Option<Checkpoint>, serial: bool) -> Result<DistOutcome, RuntimeError> {
        let started = Stopwatch::start();
        self.cluster.stats().reset();
        let checkpoints = AtomicU64::new(0);
        // The plane (and the crash latches in it) outlives the attempt
        // loop: fault counters accumulate across recoveries, and each
        // scheduled crash fires exactly once per run (not once per attempt).
        // A run without a chaos config crosses an unarmed plane kept off the
        // registry, which delivers everything at zero ticks, fires nothing
        // and publishes no `chaos.*` series.
        let detached = Registry::disabled();
        let (fault, registry) = match &self.cfg.chaos {
            Some(fault) => (fault.clone(), &*self.registry),
            None => (FaultConfig::default(), &detached),
        };
        let max_recoveries = 8 + fault.plan.crash_schedule.len() as u64;
        let plane = Arc::new(FaultPlane::registered(fault.plan, registry));
        let (mut resume, mut recoveries) = (resume, 0u64);
        loop {
            match self.run_attempt(resume.take(), serial, &checkpoints, &plane, fault.policy) {
                Ok(mut outcome) => {
                    outcome.report.wall_ns = started.elapsed_ns();
                    outcome.report.recoveries = recoveries;
                    // ordering: read after run_attempt's workers finished,
                    // joined or on this thread; Relaxed suffices.
                    outcome.report.checkpoints_written = checkpoints.load(Ordering::Relaxed);
                    let snap = plane.snapshot();
                    outcome.report.faults_injected = snap.faults_injected;
                    outcome.report.retries = snap.retries;
                    return Ok(outcome);
                }
                Err(RuntimeError::Fault { .. }) => {
                    recoveries += 1;
                    if recoveries > max_recoveries {
                        return Err(RuntimeError::Unrecoverable(format!(
                            "fault recovery looped more than {max_recoveries} times"
                        )));
                    }
                    // Newest-first scan past corrupted/truncated files: a
                    // chaos-flipped checkpoint falls back to the previous
                    // valid one (or a scratch restart).
                    let dir = self.cfg.checkpoint.as_ref().map(|ck| ck.dir.as_path());
                    resume = dir.map(latest_valid_checkpoint).transpose()?.flatten().map(|f| f.1);
                    if let Some(ckpt) = &resume {
                        self.validate_checkpoint(ckpt)?;
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn run_attempt(
        &self,
        resume: Option<Checkpoint>,
        serial: bool,
        checkpoints: &AtomicU64,
        plane: &Arc<FaultPlane>,
        policy: RetryPolicy,
    ) -> Result<DistOutcome, RuntimeError> {
        let cfg = &self.cfg;
        let p = cfg.workers;

        // Pre-allocate one PS slot per scheduled split so slot indices and
        // sequence tables stay stable across every rebalance of the run.
        let splits =
            cfg.rebalance.iter().filter(|p| matches!(p.op, RebalanceOp::Split { .. })).count();
        let ps = SparseParamServer::new_elastic(
            self.cluster.partition(),
            self.features,
            cfg.sparse_lr,
            *self.cluster.cost_model(),
            &self.registry,
            cfg.workers.max(self.cluster.num_shards()) + splits,
        )
        .attach(Arc::clone(plane), policy);
        // Registered counters are shared registry-wide, so a fault-recovery
        // retry must zero them to report only its own traffic (matching the
        // fresh-per-attempt counters the PS had before telemetry).
        ps.reset_stats();
        if let Some(ck) = &resume {
            ps.load(&ck.ps, ck.global_step)?;
        }
        let start = resume.as_ref().map_or(0, |ck| ck.global_step);
        let cx = Attempt {
            trainer: self,
            ps,
            co: Coordinator::new(p, start, plane.next_crash(p, start)),
            steps: start..cfg.batches_per_epoch as u64 * cfg.epochs as u64,
            losses: Mutex::new(resume.as_ref().map_or_else(Vec::new, |ck| ck.epoch_losses.clone())),
            resume,
            plane,
            policy,
            checkpoints,
            rebalances: AtomicU64::new(0),
            allreduce_ns: self.registry.histogram("runtime.allreduce_ns", &[]),
        };
        let workers = if serial || p == 1 { cx.run_in_series() } else { cx.run_on_threads() }?;

        let mut encoder = self.spec.build();
        encoder
            .load_dense_state_vec(&workers[0].encoder.dense_state_vec())
            .map_err(RuntimeError::Unrecoverable)?;
        let staleness_hist =
            (0..=cfg.staleness as usize).map(|a| workers.iter().map(|w| w.hist[a]).sum()).collect();
        // Consuming the workers drops their pins, so the final apply writes
        // in place.
        let per_worker: Vec<WorkerReport> = workers.into_iter().map(|w| w.report).collect();
        let features = cx.ps.materialize()?;
        let epoch_losses =
            cx.losses.into_inner().map_err(|_| RuntimeError::Poisoned("shared train state"))?;
        let report = DistReport {
            workers: p,
            staleness: cfg.staleness,
            epoch_losses,
            edges_total: per_worker.iter().map(|w| w.edges).sum(),
            makespan_ns: per_worker.iter().map(|w| w.busy_ns + w.comm_ns).max().unwrap_or(0),
            per_worker,
            staleness_hist,
            ps: cx.ps.stats().snapshot(),
            adjacency: self.cluster.stats().snapshot(),
            rebalances: cx.rebalances.into_inner(),
            ..DistReport::default()
        };
        Ok(DistOutcome { report, encoder, features })
    }
}

/// What one attempt's workers share. `steps` run from the restore point to
/// the end; `checkpoints` counts the whole run's, recoveries included; the
/// leader appends each completed epoch's mean loss to `losses`.
struct Attempt<'a> {
    trainer: &'a DistTrainer<'a>,
    ps: SparseParamServer,
    co: Coordinator,
    steps: Range<u64>,
    resume: Option<Checkpoint>,
    plane: &'a FaultPlane,
    policy: RetryPolicy,
    checkpoints: &'a AtomicU64,
    losses: Mutex<Vec<f64>>,
    rebalances: AtomicU64,
    allreduce_ns: Arc<Histogram>,
}

/// A cut at which the workers meet, each having completed `step` steps,
/// and the directory of the checkpoint written there, if one is.
#[derive(Debug, Clone, Copy)]
struct Cut<'a> {
    step: u64,
    epoch_end: bool,
    checkpoint: Option<&'a Path>,
}

impl<'a> Attempt<'a> {
    /// The cut after `t` steps, if the workers meet there: every epoch end
    /// and every checkpoint step (`is_multiple_of(0)` is false for t > 0,
    /// so `every_steps = 0` means epoch ends only).
    fn cut(&self, t: u64) -> Option<Cut<'a>> {
        let cfg = &self.trainer.cfg;
        let epoch_end = t.is_multiple_of(cfg.batches_per_epoch as u64);
        let checkpoint =
            cfg.checkpoint.as_ref().filter(|ck| epoch_end || t.is_multiple_of(ck.every_steps));
        let checkpoint = checkpoint.map(|ck| ck.dir.as_path());
        (epoch_end || checkpoint.is_some()).then_some(Cut { step: t, epoch_end, checkpoint })
    }

    /// Every worker on its own thread, meeting the others at the coordinator.
    fn run_on_threads(&self) -> Result<Vec<Worker<'a>>, RuntimeError> {
        let steps = |me: usize| -> Result<Worker<'a>, RuntimeError> {
            let mut w = Worker::new(me, self)?;
            for t in self.steps.clone() {
                w.step(t, self)?;
                if let Some(cut) = self.cut(t + 1) {
                    let deposit = w.deposit(cut);
                    let waiting = Stopwatch::start();
                    let out = self.co.rendezvous(me, deposit, |deps| self.lead(cut, deps))?;
                    w.report.wait_ns += waiting.elapsed_ns();
                    w.adopt(out.as_deref())?;
                }
            }
            Ok(w)
        };
        // A worker that stops on any error tears the coordinator down, or
        // the others would wait at their next cut for ever.
        let run = |me: usize| {
            steps(me).inspect_err(|e| {
                // `crash` fails only on a poisoned lock; the worker's own
                // error is still the one to return.
                let _ = self.co.crash(e.clone());
            })
        };
        let results: Vec<_> = std::thread::scope(|scope| {
            let workers = 0..self.trainer.cfg.workers;
            let handles: Vec<_> = workers.map(|me| scope.spawn(move || run(me))).collect();
            let panicked = || Err(RuntimeError::Unrecoverable("worker panicked".into()));
            handles.into_iter().map(|h| h.join().unwrap_or_else(|_| panicked())).collect()
        });
        // A non-fault error wins (it is the root cause); otherwise any fault
        // sends the attempt loop to recovery.
        let errors = results.iter().filter_map(|r| r.as_ref().err());
        match errors.min_by_key(|e| matches!(e, RuntimeError::Fault { .. })) {
            Some(e) => Err(e.clone()),
            None => results.into_iter().collect(),
        }
    }

    /// Every worker on the caller's thread: step `t` of each in worker
    /// order, then the cut's leader inline. No wait a step makes blocks.
    fn run_in_series(&self) -> Result<Vec<Worker<'a>>, RuntimeError> {
        let workers = (0..self.trainer.cfg.workers).map(|me| Worker::new(me, self));
        let mut workers = workers.collect::<Result<Vec<_>, _>>()?;
        for t in self.steps.clone() {
            for w in &mut workers {
                w.step(t, self)?;
            }
            if let Some(cut) = self.cut(t + 1) {
                let out = self.lead(cut, workers.iter_mut().map(|w| w.deposit(cut)).collect())?;
                for w in &mut workers {
                    w.adopt(out.as_deref())?;
                }
            }
        }
        Ok(workers)
    }

    /// Closes `cut` over the deposits, in worker order. At an epoch end:
    /// the scheduled rebalances, the epoch's mean loss and the dense
    /// allreduce. At a checkpoint cut: the file.
    fn lead(&self, cut: Cut<'_>, mut deps: Vec<Deposit>) -> Result<Option<Vec<f32>>, RuntimeError> {
        // Times the epoch bookkeeping, allreduce and checkpoint into
        // `runtime.allreduce_ns` (recorded when the guard drops), on epoch
        // ends only.
        let _allreduce = cut.epoch_end.then(|| Span::enter(&self.allreduce_ns));
        let mut losses =
            self.losses.lock().map_err(|_| RuntimeError::Poisoned("shared train state"))?;
        let mut avg = None;
        if cut.epoch_end {
            // Elastic boundary: no push, pull, sample, or drain is in flight,
            // so scheduled topology changes migrate residency (graph shards
            // + PS rows) here, before the checkpoint below, so the cut
            // captures the post-move shard layout.
            let epoch = (cut.step / self.trainer.cfg.batches_per_epoch as u64) as usize;
            let plans = self.trainer.cfg.rebalance.iter().enumerate();
            for (i, plan) in plans.filter(|(_, plan)| plan.after_epoch == epoch) {
                self.rebalance(i, plan)?;
            }
            let loss: f64 = deps.iter().map(|d| d.state.loss_sum).sum();
            let n: u64 = deps.iter().map(|d| d.state.pairs).sum();
            losses.push(loss / n.max(1) as f64);
            avg = Some(allreduce(&mut deps));
            // The epoch just closed: a checkpoint at its end stores zeroed
            // loss accumulators beside the averaged params.
            deps.iter_mut().for_each(|d| (d.state.loss_sum, d.state.pairs) = (0.0, 0));
        }
        if let Some(dir) = cut.checkpoint {
            let ckpt = Checkpoint {
                fingerprint: self.trainer.fingerprint(),
                global_step: cut.step,
                epoch_losses: losses.clone(),
                avg_params: avg.clone(),
                workers: deps.into_iter().map(|d| d.state).collect(),
                ps: self.ps.export()?,
            };
            write_checkpoint(&ckpt, dir, self.plane)?;
            // ordering: report-only tally read after the attempt loop.
            self.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        Ok(avg)
    }

    /// Applies scheduled rebalance `index` (leader-only). The topology
    /// outlives fault-recovery attempts, so plan `i` moves the graph only
    /// from membership epoch `i` (a recovery re-run skips it). The PS is
    /// fresh per attempt, so its rows always re-home, finding nothing to
    /// move when the restored checkpoint has the post-move layout.
    fn rebalance(&self, index: usize, plan: &RebalancePlan) -> Result<(), RuntimeError> {
        let cluster = self.trainer.cluster;
        if cluster.topology().current_epoch() <= index as u64 {
            cluster
                .rebalance(plan.op, self.plane, &self.policy)
                .map_err(|e| RuntimeError::Unrecoverable(format!("rebalance failed: {e}")))?;
        }
        self.ps.rehome(&cluster.residency_snapshot())?;
        // ordering: report-only tally read after the workers finish.
        self.rebalances.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// One trainer worker: everything it keeps from step to step. `rec` is its
/// resumable state (the RNG and dense state are copied in at each cut);
/// `replica` pins the PS rows as of its last drain, from then to the last
/// compute of its drain window, and is empty after;
/// `report` and `hist` (`hist[a]`: steps computed at replica age `a`) count
/// this attempt's steps. Its meters are its own handles: under a disabled
/// registry each worker's are distinct, so no two threads share a counter.
struct Worker<'a> {
    me: usize,
    rec: WorkerCkpt,
    rng: StdRng,
    encoder: GnnEncoder,
    replica: FeatureMatrix,
    pools: ShardEdgePools,
    view: ClusterView<'a>,
    sampler: MeteredNeighborhood<UniformNeighborhood>,
    staleness: Arc<Histogram>,
    report: WorkerReport,
    hist: Vec<u64>,
}

impl<'a> Worker<'a> {
    /// Worker `me` at the attempt's first step. It pins the rows as they
    /// stand, the rows at its last drain (a restored server's are the
    /// checkpoint's), unless that step is itself a drain.
    fn new(me: usize, cx: &Attempt<'a>) -> Result<Self, RuntimeError> {
        let (trainer, id) = (cx.trainer, WorkerId(me as u32));
        let mut encoder = trainer.spec.build();
        let mut rec =
            WorkerCkpt { rng: worker_rng(trainer.cfg.seed, id.0).state(), ..Default::default() };
        if let Some(ck) = &cx.resume {
            rec = ck.workers[me].clone();
            encoder.load_dense_state_vec(&rec.dense_state).map_err(RuntimeError::Checkpoint)?;
            if let Some(avg) = &ck.avg_params {
                encoder.load_dense_param_vec(avg).map_err(RuntimeError::Checkpoint)?;
            }
        }
        let first = cx.steps.start;
        let replica = if drains(first, trainer.cfg.staleness) {
            FeatureMatrix::default()
        } else {
            cx.ps.pin()?
        };
        Ok(Worker {
            me,
            rng: StdRng::from_state(rec.rng),
            rec,
            encoder,
            replica,
            pools: ShardEdgePools::of(trainer.cluster, id),
            view: ClusterView { cluster: trainer.cluster, from: id },
            sampler: MeteredNeighborhood::new(UniformNeighborhood, &trainer.registry, "uniform"),
            staleness: trainer.registry.histogram("runtime.staleness", &[]),
            report: WorkerReport::default(),
            hist: vec![0; trainer.cfg.staleness as usize + 1],
        })
    }

    /// Step `t`, unless the attempt's crash stops this worker before it.
    fn step(&mut self, t: u64, cx: &Attempt) -> Result<(), RuntimeError> {
        cx.co.stop_at_crash_cut(self.me, t, || cx.plane.crash_fires(self.me as u32, t))?;
        let (edges, planned) = self.sample(cx);
        if let Some(out) = self.finish(t, cx, planned)? {
            self.update(cx, edges, out)?;
        }
        Ok(())
    }

    /// Every read of the shared cluster the step makes, in the sequential
    /// trainer's draw order: edge type, then the batch, then the step's own
    /// sampling. Returns the batch's edge count and its plan.
    fn sample(&mut self, cx: &Attempt) -> (usize, Option<PlannedBatch>) {
        let (cfg, graph) = (&cx.trainer.cfg, cx.trainer.cluster.graph());
        let sampling = Stopwatch::start();
        let etype = EdgeType(self.rng.gen_range(0..graph.num_edge_types().max(1)));
        let batch = self.pools.sample(etype, cfg.batch_size, &mut self.rng);
        let planned = (!batch.is_empty()).then(|| {
            let (n, sampler) = (cfg.negatives, &self.sampler);
            plan_contrastive(&self.encoder, graph, &self.view, sampler, &batch, n, &mut self.rng)
        });
        self.report.busy_ns += sampling.elapsed_ns();
        (batch.len(), planned)
    }

    /// At a drain step, waits for cut `t` and pins the PS rows as the
    /// replica. Then finishes the batch on the replica, drops the pin after
    /// the last compute before the next drain (so the next apply writes in
    /// place), and pushes its gradients, held until the cut after this step.
    fn finish(
        &mut self,
        t: u64,
        cx: &Attempt,
        planned: Option<PlannedBatch>,
    ) -> Result<Option<BatchOutcome>, RuntimeError> {
        let age = t % (cx.trainer.cfg.staleness + 1);
        if drains(t, cx.trainer.cfg.staleness) {
            let waiting = Stopwatch::start();
            cx.co.await_cut(t)?;
            self.report.wait_ns += waiting.elapsed_ns();
            self.report.comm_ns += cx.ps.drain_into(self.me, &mut self.replica)?;
        }
        self.hist[age as usize] += 1;
        self.staleness.record(age);
        let out = planned.map(|planned| {
            let computing = Stopwatch::start();
            let out = finish_contrastive(&mut self.encoder, &self.replica, planned);
            self.report.busy_ns += computing.elapsed_ns();
            out
        });
        if age == cx.trainer.cfg.staleness {
            self.replica = FeatureMatrix::default();
        }
        // An empty batch pushes an empty map: the step still counts.
        let grads = out.as_ref().map(|o| &o.feature_grads);
        self.report.comm_ns += cx.ps.push(self.me, grads.unwrap_or(&HashMap::new()))?;
        cx.co.finish_step(self.me)?;
        Ok(out)
    }

    /// The dense step over the batch's `n` edges, with the weight gradients
    /// the backward kept; the epoch's loss sums; the PS read meters.
    fn update(&mut self, cx: &Attempt, n: usize, out: BatchOutcome) -> Result<(), RuntimeError> {
        let stepping = Stopwatch::start();
        self.encoder.step(n);
        self.report.busy_ns += stepping.elapsed_ns();
        self.rec.loss_sum += out.loss_sum;
        self.rec.pairs += out.pairs as u64;
        self.report.edges += n as u64;
        self.report.comm_ns += cx.ps.record_reads(self.me, out.feature_grads.keys())?;
        Ok(())
    }

    /// This worker's part of `cut`: its record as of the cut, and at an
    /// epoch end its dense parameters to average.
    fn deposit(&mut self, cut: Cut<'_>) -> Deposit {
        self.rec.rng = self.rng.state();
        self.rec.dense_state = self.encoder.dense_state_vec();
        let params = if cut.epoch_end { self.encoder.dense_param_vec() } else { Vec::new() };
        Deposit { state: self.rec.clone(), params }
    }

    /// Takes the averaged parameters at an epoch end; the epoch's loss sums
    /// restart.
    fn adopt(&mut self, avg: Option<&[f32]>) -> Result<(), RuntimeError> {
        if let Some(avg) = avg {
            self.encoder.load_dense_param_vec(avg).map_err(RuntimeError::Unrecoverable)?;
            (self.rec.loss_sum, self.rec.pairs) = (0.0, 0);
        }
        Ok(())
    }
}

/// Whether a worker drains before step `t` at staleness `s`.
fn drains(t: u64, s: u64) -> bool {
    t > 0 && t.is_multiple_of(s + 1)
}

/// Synchronous allreduce: the elementwise mean of every worker's dense
/// parameters, summed in worker order. With one worker this is the bitwise
/// identity (sum of one, divided by 1).
fn allreduce(deps: &mut [Deposit]) -> Vec<f32> {
    let mut avg = std::mem::take(&mut deps[0].params);
    for d in &deps[1..] {
        avg.iter_mut().zip(&d.params).for_each(|(a, b)| *a += *b);
    }
    let inv = 1.0 / deps.len() as f32;
    avg.iter_mut().for_each(|a| *a *= inv);
    avg
}

/// Atomically writes one checkpoint (leader-only). When the chaos plan
/// corrupts checkpoints, the plane picks a seeded subset of steps and flips
/// one byte in the written file — recovery must detect the bad checksum and
/// fall back to the previous valid checkpoint.
fn write_checkpoint(ckpt: &Checkpoint, dir: &Path, plane: &FaultPlane) -> Result<(), RuntimeError> {
    let path = ckpt.write_to_dir(dir)?;
    if let Some(offset) = plane.corrupts_checkpoint(ckpt.global_step) {
        let mut bytes = std::fs::read(&path)?;
        let i = (offset % bytes.len() as u64) as usize;
        bytes[i] ^= 0xff;
        std::fs::write(&path, &bytes)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::{generate::TaobaoConfig, Featurizer};

    #[test]
    fn workers_drop_their_pins_so_only_the_first_apply_copies() {
        let graph = Arc::new(TaobaoConfig::tiny().generate().unwrap());
        let features = Featurizer::new(8).matrix(&graph);
        let (cluster, _) = Cluster::builder(graph).shards(2).build();
        let spec =
            EncoderSpec { dim_in: 8, dims: vec![8, 8], fanouts: vec![3, 2], lr: 0.05, seed: 7 };
        let dir = std::env::temp_dir().join(format!("algr-rt-pins-{}", std::process::id()));
        // A kill at step 5 restores from the cut at step 4: a drain step at
        // staleness 1, mid-window at staleness 2.
        for (staleness, killed) in [(0, false), (1, true), (2, true)] {
            let _ = std::fs::remove_dir_all(&dir);
            let mut chaos = FaultConfig::default();
            chaos.plan.crash_schedule.push(aligraph_chaos::CrashPoint { worker: 1, at_step: 5 });
            let cfg = RuntimeConfig {
                workers: 2,
                batches_per_epoch: 6,
                staleness,
                sparse_lr: 0.05,
                checkpoint: Some(CheckpointConfig { dir: dir.clone(), every_steps: 4 }),
                chaos: killed.then_some(chaos),
                ..RuntimeConfig::default()
            };
            for serial in [false, true] {
                let _ = std::fs::remove_dir_all(&dir);
                let registry = Arc::new(Registry::new());
                let trainer = DistTrainer::new(&cluster, &features, spec.clone(), cfg.clone());
                let trainer = trainer.unwrap().with_registry(Arc::clone(&registry));
                let outcome = if serial { trainer.train_in_series() } else { trainer.train() };
                let report = outcome.unwrap().report;
                assert_eq!(report.checkpoints_written, 6);
                assert_eq!(report.recoveries, u64::from(killed));
                // The server starts as a pin of `features`, so its first
                // apply copies; no later one does, as each worker drops its
                // pin before its push, and a restored worker pins the loaded
                // rows only when its first step is no drain.
                let copies = registry.snapshot().counter("runtime.ps.shared_applies", &[]);
                assert_eq!(copies, 1, "staleness {staleness}, serial: {serial}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
