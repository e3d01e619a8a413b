//! The distributed training runtime: shard-pinned trainer workers against
//! the sparse parameter server, with bounded-staleness replica pulls,
//! synchronous epoch-boundary allreduce of dense parameters, periodic
//! checkpoints, and fault injection with checkpoint recovery.
//!
//! Workers are simulated as threads, one per [`Cluster`] partition. Each
//! worker samples mini-batches **from its own edge shard**, computes
//! gradients with the shared tape machinery ([`aligraph::contrastive_step`]
//! in its two halves), pushes row-sparse feature gradients to the PS shard
//! owning each vertex, and averages dense layer parameters with the other
//! workers at every epoch boundary.
//!
//! Every worker runs its steps at once with the others; the
//! [`Coordinator`] only counts them. A step first *samples*
//! ([`plan_contrastive`]), the only part that reads the cluster: the
//! worker's own edge pool, neighbor cache and tier shard, and the access
//! meters, whose counts add up the same in any order. Then the worker waits
//! for the cut if its replica is due a drain, drains the PS, runs
//! [`finish_contrastive`] (flush, loss, backward) on the replica and
//! pushes; last comes the *update*, the dense step ([`GnnEncoder::step`],
//! with the weight gradients the backward kept) and the PS read meters.
//! None of that is shared: the PS stages a push until the cut after its
//! step and applies it there in `(step, worker)` order, so every worker's
//! drain at step `t` reads the same state (every step before `t`, no step
//! `t` push), however the workers' steps overlap. Every run is therefore a
//! deterministic function of its seed — including runs resumed from a
//! checkpoint and runs interrupted by the fault injector, whose crash stops
//! every worker at the cut computed from the schedule when the attempt
//! starts (see [`crate::ssp`]).
//!
//! With one worker, staleness 0 and a frozen sparse learning rate, the loop
//! degenerates to exactly [`aligraph::train_unsupervised`] — the
//! convergence-parity test pins the loss trajectories bit-for-bit.

use crate::checkpoint::{latest_valid_checkpoint, Checkpoint, WorkerCkpt};
use crate::error::RuntimeError;
use crate::ps::SparseParamServer;
use crate::report::{DistReport, WorkerReport};
use crate::ssp::{Coordinator, Deposit, Rendezvous};
use aligraph::{finish_contrastive, plan_contrastive, GnnEncoder};
use aligraph_chaos::{FaultConfig, FaultPlane, RetryPolicy};
use aligraph_graph::{AttributedHeterogeneousGraph, EdgeType, FeatureMatrix};
use aligraph_partition::WorkerId;
use aligraph_sampling::neighborhood::ClusterView;
use aligraph_sampling::{worker_rng, MeteredNeighborhood, ShardEdgePools, UniformNeighborhood};
use aligraph_storage::seal::Fnv1a;
use aligraph_storage::{Cluster, RebalanceOp};
use aligraph_telemetry::{Registry, Span, Stopwatch};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
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

/// The run's chaos plane and retry budget. Always present: a run without
/// a [`RuntimeConfig::chaos`] gets an unarmed plane, which delivers
/// everything at zero ticks and fires nothing.
struct ChaosRt {
    plane: Arc<FaultPlane>,
    policy: RetryPolicy,
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
    /// Bounded staleness `s`: a worker may compute on a replica that is up
    /// to `s` steps behind before it must drain the parameter server.
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
    /// plans.
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
    /// the fault injector fires).
    pub fn train(&self) -> Result<DistOutcome, RuntimeError> {
        self.run(None)
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
        self.run(Some(ckpt))
    }

    fn validate_checkpoint(&self, ckpt: &Checkpoint) -> Result<(), RuntimeError> {
        if ckpt.fingerprint != self.fingerprint() {
            return Err(RuntimeError::Checkpoint(
                "config fingerprint mismatch: checkpoint was written by a structurally \
                 different run (workers/batch/seed/model/graph changed)"
                    .into(),
            ));
        }
        if ckpt.workers.len() != self.cfg.workers {
            return Err(RuntimeError::Checkpoint(format!(
                "checkpoint has {} workers, config has {}",
                ckpt.workers.len(),
                self.cfg.workers
            )));
        }
        let total = self.cfg.batches_per_epoch as u64 * self.cfg.epochs as u64;
        if ckpt.global_step > total {
            return Err(RuntimeError::Checkpoint(format!(
                "checkpoint is at step {} but this run only has {} steps",
                ckpt.global_step, total
            )));
        }
        Ok(())
    }

    /// The attempt loop: run, and on an injected fault restore from the
    /// latest checkpoint (or from scratch) and retry.
    fn run(&self, resume: Option<Checkpoint>) -> Result<DistOutcome, RuntimeError> {
        let started = Stopwatch::start();
        self.cluster.stats().reset();
        let checkpoints = AtomicU64::new(0);
        // The plane (and the crash latches in it) outlives the attempt
        // loop: fault counters accumulate across recoveries, and each
        // scheduled crash fires exactly once per run (not once per attempt).
        // A run without a chaos config crosses an unarmed plane kept off the
        // registry, so it publishes no `chaos.*` series.
        let detached = Registry::disabled();
        let (fault, registry) = match &self.cfg.chaos {
            Some(fault) => (fault.clone(), &*self.registry),
            None => (FaultConfig::default(), &detached),
        };
        let max_recoveries = 8 + fault.plan.crash_schedule.len() as u64;
        let chaos = ChaosRt {
            plane: Arc::new(FaultPlane::registered(fault.plan, registry)),
            policy: fault.policy,
        };
        let mut resume = resume;
        let mut recoveries = 0u64;
        loop {
            match self.run_attempt(resume.take(), &checkpoints, &chaos) {
                Ok(mut outcome) => {
                    outcome.report.wall_ns = started.elapsed_ns();
                    outcome.report.recoveries = recoveries;
                    // ordering: read after all worker threads joined inside
                    // run_attempt; the join synchronizes, Relaxed suffices.
                    outcome.report.checkpoints_written = checkpoints.load(Ordering::Relaxed);
                    let snap = chaos.plane.snapshot();
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
                    resume = match &self.cfg.checkpoint {
                        // Newest-first scan past corrupted/truncated files:
                        // a chaos-flipped checkpoint falls back to the
                        // previous valid one (or a scratch restart).
                        Some(ck) => match latest_valid_checkpoint(&ck.dir)? {
                            Some((_, ckpt)) => {
                                self.validate_checkpoint(&ckpt)?;
                                Some(ckpt)
                            }
                            None => None,
                        },
                        None => None,
                    };
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn run_attempt(
        &self,
        resume: Option<Checkpoint>,
        checkpoints: &AtomicU64,
        chaos: &ChaosRt,
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
        .attach(Arc::clone(&chaos.plane), chaos.policy);
        // Registered counters are shared registry-wide, so a fault-recovery
        // retry must zero them to report only its own traffic (matching the
        // fresh-per-attempt counters the PS had before telemetry).
        ps.reset_stats();
        if let Some(ck) = &resume {
            ps.load(&ck.shards)?;
        }

        // Completed-epoch mean losses; the rendezvous leader appends.
        let shared =
            Mutex::new(resume.as_ref().map_or_else(Vec::new, |ck| ck.epoch_losses.clone()));
        let start_step = resume.as_ref().map_or(0, |ck| ck.global_step);
        let co = Coordinator::new(p, start_step, chaos.plane.next_crash(p, start_step));
        let rebalances = AtomicU64::new(0);
        // Materialized once, before any worker can push: each worker's
        // starting replica must be the time-t0 server state, not whatever
        // the server holds when that worker's thread happens to start.
        let initial_replica = ps.materialize()?;
        let initial_replica = &initial_replica;
        let resume = resume.as_ref();

        // Report totals cover this attempt's steps: each worker writes its
        // own, and none of them travels through a rendezvous or a file.
        let mut per_worker = vec![WorkerReport::default(); p];
        let mut hists = vec![vec![0u64; cfg.staleness as usize + 1]; p];
        let results: Vec<Result<Vec<f32>, RuntimeError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = per_worker
                .iter_mut()
                .zip(&mut hists)
                .enumerate()
                .map(|(me, (report, hist))| {
                    let (ps, co, shared, rebalances) = (&ps, &co, &shared, &rebalances);
                    scope.spawn(move || {
                        self.worker_loop(
                            me,
                            resume,
                            initial_replica.clone(),
                            ps,
                            co,
                            shared,
                            checkpoints,
                            rebalances,
                            chaos,
                            report,
                            hist,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(RuntimeError::Unrecoverable("worker panicked".into()))
                    })
                })
                .collect()
        });

        // A non-fault error wins (it is the root cause); otherwise any fault
        // sends the attempt loop to recovery.
        let mut fault = None;
        let mut states = Vec::with_capacity(p);
        for r in results {
            match r {
                Ok(state) => states.push(state),
                Err(e @ RuntimeError::Fault { .. }) => fault = Some(e),
                Err(e) => return Err(e),
            }
        }
        if let Some(e) = fault {
            return Err(e);
        }

        let epoch_losses =
            shared.into_inner().map_err(|_| RuntimeError::Poisoned("shared train state"))?;
        let mut encoder = self.spec.build();
        encoder.load_dense_state_vec(&states[0]).map_err(RuntimeError::Unrecoverable)?;
        let features = ps.materialize()?;

        let mut staleness_hist = vec![0u64; cfg.staleness as usize + 1];
        for hist in &hists {
            for (sum, n) in staleness_hist.iter_mut().zip(hist) {
                *sum += n;
            }
        }
        let report = DistReport {
            workers: p,
            staleness: cfg.staleness,
            epoch_losses,
            edges_total: per_worker.iter().map(|w| w.edges).sum(),
            makespan_ns: per_worker.iter().map(|w| w.busy_ns + w.comm_ns).max().unwrap_or(0),
            per_worker,
            staleness_hist,
            wall_ns: 0,
            ps: ps.stats().snapshot(),
            adjacency: self.cluster.stats().snapshot(),
            checkpoints_written: 0,
            recoveries: 0,
            faults_injected: 0,
            retries: 0,
            // ordering: read after all worker threads joined above; the
            // join synchronizes, Relaxed suffices.
            rebalances: rebalances.load(Ordering::Relaxed),
        };
        Ok(DistOutcome { report, encoder, features })
    }

    /// One worker's whole life: step loop, rendezvous, checkpoints, fault.
    /// Its resumable state is one [`WorkerCkpt`] record (fresh, or the
    /// restored checkpoint's); its report totals go straight to `report`
    /// and `hist`. Returns the final dense state.
    #[allow(clippy::too_many_arguments, reason = "one worker's whole state, threaded once")]
    fn worker_loop(
        &self,
        me: usize,
        resume: Option<&Checkpoint>,
        mut replica: FeatureMatrix,
        ps: &SparseParamServer,
        co: &Coordinator,
        shared: &Mutex<Vec<f64>>,
        checkpoints: &AtomicU64,
        rebalances: &AtomicU64,
        chaos: &ChaosRt,
        report: &mut WorkerReport,
        hist: &mut [u64],
    ) -> Result<Vec<f32>, RuntimeError> {
        let cfg = &self.cfg;
        let graph: &AttributedHeterogeneousGraph = self.cluster.graph();
        let batches = cfg.batches_per_epoch as u64;
        let total_steps = batches * cfg.epochs as u64;

        let mut encoder = self.spec.build();
        let mut rec =
            WorkerCkpt { rng: worker_rng(cfg.seed, me as u32).state(), ..WorkerCkpt::default() };
        let mut t = 0;
        if let Some(ck) = resume {
            rec = ck.workers[me].clone();
            encoder.load_dense_state_vec(&rec.dense_state).map_err(RuntimeError::Checkpoint)?;
            if let Some(avg) = &ck.avg_params {
                encoder.load_dense_param_vec(avg).map_err(RuntimeError::Checkpoint)?;
            }
            t = ck.global_step;
        }
        let mut rng = StdRng::from_state(rec.rng);
        let pools = ShardEdgePools::of(self.cluster, WorkerId(me as u32));
        let view = ClusterView { cluster: self.cluster, from: WorkerId(me as u32) };
        let sampler = MeteredNeighborhood::new(UniformNeighborhood, &self.registry, "uniform");
        let staleness_hist = self.registry.histogram("runtime.staleness", &[]);
        let allreduce_ns = self.registry.histogram("runtime.allreduce_ns", &[]);

        while t < total_steps {
            co.stop_at_crash_cut(me, t, || chaos.plane.crash_fires(me as u32, t))?;
            // Sample: every read of the shared cluster this step makes.
            let sampling = Stopwatch::start();
            // Same draw sequence as the sequential trainer: edge type, then
            // the batch, then the step's internal sampling.
            let etype = EdgeType(rng.gen_range(0..graph.num_edge_types().max(1)));
            let batch = pools.sample(etype, cfg.batch_size, &mut rng);
            let planned = (!batch.is_empty()).then(|| {
                plan_contrastive(&encoder, graph, &view, &sampler, &batch, cfg.negatives, &mut rng)
            });
            report.busy_ns += sampling.elapsed_ns();

            // The rest is this worker's own: the replica, the encoder, and
            // pushes the PS holds until the cut after this step.
            // Bounded staleness: drain the PS at cut `t` once the replica is
            // more than `s` steps old, then record the age this step
            // computed at.
            let mut age = t - rec.last_drain;
            if age > cfg.staleness {
                let waiting = Stopwatch::start();
                co.await_cut(t)?;
                report.wait_ns += waiting.elapsed_ns();
                report.comm_ns += ps.drain_into(me, &mut replica)?;
                rec.last_drain = t;
                age = 0;
            }
            hist[age as usize] += 1;
            staleness_hist.record(age);
            let out = planned.map(|planned| {
                let computing = Stopwatch::start();
                let out = finish_contrastive(&mut encoder, &replica, planned);
                report.busy_ns += computing.elapsed_ns();
                out
            });
            // An empty batch pushes an empty map: the step still counts.
            let grads = out.as_ref().map(|o| &o.feature_grads);
            report.comm_ns += ps.push(me, grads.unwrap_or(&HashMap::new()))?;
            co.finish_step(me)?;

            if let Some(out) = out {
                let stepping = Stopwatch::start();
                encoder.step(batch.len());
                report.busy_ns += stepping.elapsed_ns();
                rec.loss_sum += out.loss_sum;
                rec.pairs += out.pairs as u64;
                report.edges += batch.len() as u64;
                report.comm_ns += ps.record_reads(me, out.feature_grads.keys());
            }
            t += 1;

            // A cut: everyone has completed exactly t steps. An epoch end
            // always is one; so is a checkpoint step (`is_multiple_of(0)`
            // is false for t > 0, so `every_steps = 0` means epoch ends
            // only).
            let epoch_end = t.is_multiple_of(batches);
            let ckpt =
                cfg.checkpoint.as_ref().filter(|ck| epoch_end || t.is_multiple_of(ck.every_steps));
            if !epoch_end && ckpt.is_none() {
                continue;
            }
            rec.rng = rng.state();
            rec.dense_state = encoder.dense_state_vec();
            let params = if epoch_end { encoder.dense_param_vec() } else { Vec::new() };
            let deposit = Deposit { state: rec.clone(), params };
            let waiting = Stopwatch::start();
            let out = co.rendezvous(me, deposit, |mut deps| {
                // Times the leader's epoch bookkeeping, allreduce and
                // checkpoint into `runtime.allreduce_ns` (recorded when the
                // guard drops), on epoch ends only.
                let _allreduce = epoch_end.then(|| Span::enter(&allreduce_ns));
                let mut losses =
                    shared.lock().map_err(|_| RuntimeError::Poisoned("shared train state"))?;
                let mut avg = None;
                if epoch_end {
                    // Elastic boundary: every worker is parked at this
                    // rendezvous — no push, pull, sample, or drain is in
                    // flight — so scheduled topology changes migrate
                    // residency (graph shards + PS rows) here, before the
                    // checkpoint below, so the cut captures the post-move
                    // shard layout.
                    let epoch = (t / batches) as usize;
                    for (i, plan) in cfg.rebalance.iter().enumerate() {
                        if plan.after_epoch == epoch {
                            self.apply_rebalance(i, plan, ps, chaos)?;
                            // ordering: report-only tally read after worker
                            // joins; the join synchronizes, Relaxed
                            // suffices.
                            rebalances.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let loss: f64 = deps.iter().map(|d| d.state.loss_sum).sum();
                    let n: u64 = deps.iter().map(|d| d.state.pairs).sum();
                    losses.push(loss / n.max(1) as f64);
                    avg = Some(allreduce(&mut deps));
                    // The epoch just closed: a checkpoint at its end stores
                    // zeroed loss accumulators beside the averaged params.
                    for d in &mut deps {
                        d.state.loss_sum = 0.0;
                        d.state.pairs = 0;
                    }
                }
                let mut drain = None;
                if let Some(ck) = ckpt {
                    let ckpt = Checkpoint {
                        fingerprint: self.fingerprint(),
                        global_step: t,
                        epoch_losses: losses.clone(),
                        avg_params: avg.clone(),
                        workers: deps.into_iter().map(|d| d.state).collect(),
                        shards: ps.export()?,
                    };
                    write_checkpoint(&ckpt, &ck.dir, chaos)?;
                    // ordering: report-only tally read after worker joins;
                    // the join synchronizes, Relaxed suffices.
                    checkpoints.fetch_add(1, Ordering::Relaxed);
                    // Checkpoint cuts refresh every replica to the
                    // materialized server state — exactly the state a
                    // restore rebuilds (`initial_replica`) — so resumes are
                    // bit-exact at any staleness bound. The drain
                    // *schedule* (`last_drain`) is deliberately left
                    // untouched: pending drains still fire at the same
                    // steps, and the refresh itself cannot change what a
                    // later drain would deliver (undrained dirty rows are
                    // re-read from the server either way).
                    drain = Some(ps.materialize()?);
                }
                Ok(Rendezvous { avg_params: avg, drain })
            })?;
            report.wait_ns += waiting.elapsed_ns();
            if let Some(avg) = &out.avg_params {
                encoder.load_dense_param_vec(avg).map_err(RuntimeError::Unrecoverable)?;
                rec.loss_sum = 0.0;
                rec.pairs = 0;
            }
            if let Some(m) = &out.drain {
                replica = m.clone();
            }
        }
        Ok(encoder.dense_state_vec())
    }

    /// Applies one scheduled rebalance (leader-only, all workers parked).
    ///
    /// The cluster's topology outlives fault-recovery attempts, so the
    /// graph-side migration is guarded by the membership epoch — plan `i`
    /// takes the topology from epoch `i` to `i + 1`, and a recovery re-run
    /// that reaches this boundary again skips it. The PS is fresh per
    /// attempt, so its rows always re-home here; when the restored
    /// checkpoint already captured the post-move layout that re-home finds
    /// nothing to move.
    fn apply_rebalance(
        &self,
        index: usize,
        plan: &RebalancePlan,
        ps: &SparseParamServer,
        chaos: &ChaosRt,
    ) -> Result<(), RuntimeError> {
        if self.cluster.topology().current_epoch() <= index as u64 {
            self.cluster
                .rebalance(plan.op, &chaos.plane, &chaos.policy)
                .map_err(|e| RuntimeError::Unrecoverable(format!("rebalance failed: {e}")))?;
        }
        ps.rehome(&self.cluster.residency_snapshot())?;
        Ok(())
    }
}

/// Synchronous allreduce: the elementwise mean of every worker's dense
/// parameters, summed in worker order. With one worker this is the bitwise
/// identity (sum of one, divided by 1).
fn allreduce(deps: &mut [Deposit]) -> Vec<f32> {
    let mut avg = std::mem::take(&mut deps[0].params);
    for d in &deps[1..] {
        for (a, b) in avg.iter_mut().zip(&d.params) {
            *a += *b;
        }
    }
    let inv = 1.0 / deps.len() as f32;
    for a in &mut avg {
        *a *= inv;
    }
    avg
}

/// Atomically writes one checkpoint (leader-only; runs under the
/// coordinator lock). When the chaos plan corrupts checkpoints, the plane
/// picks a seeded subset of steps and flips one byte in the written file —
/// recovery must detect the bad checksum and fall back to the previous
/// valid checkpoint.
fn write_checkpoint(ckpt: &Checkpoint, dir: &Path, chaos: &ChaosRt) -> Result<(), RuntimeError> {
    let path = ckpt.write_to_dir(dir)?;
    if let Some(offset) = chaos.plane.corrupts_checkpoint(ckpt.global_step) {
        let mut bytes = std::fs::read(&path)?;
        let i = (offset % bytes.len() as u64) as usize;
        bytes[i] ^= 0xff;
        std::fs::write(&path, &bytes)?;
    }
    Ok(())
}
