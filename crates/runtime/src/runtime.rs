//! The distributed training runtime: shard-pinned trainer workers against
//! the sparse parameter server, with bounded-staleness replica pulls,
//! synchronous epoch-boundary allreduce of dense parameters, periodic
//! checkpoints, and fault injection with checkpoint recovery.
//!
//! Workers are simulated as threads, one per [`Cluster`] partition. Each
//! worker samples mini-batches **from its own edge shard**, computes
//! gradients with the shared tape machinery ([`contrastive_step`]), pushes
//! row-sparse feature gradients to the PS shard owning each vertex, and
//! averages dense layer parameters with the other workers at every epoch
//! boundary. The [`Coordinator`] serializes workers in strict round-robin
//! order, so every run is a deterministic function of its seed — including
//! runs resumed from a checkpoint and runs interrupted by the fault
//! injector.
//!
//! With one worker, staleness 0 and a frozen sparse learning rate, the loop
//! degenerates to exactly [`aligraph::train_unsupervised`] — the
//! convergence-parity test pins the loss trajectories bit-for-bit.

use crate::checkpoint::{latest_valid_checkpoint, Checkpoint, WorkerCkpt};
use crate::error::RuntimeError;
use crate::ps::SparseParamServer;
use crate::report::{DistReport, WorkerReport};
use crate::ssp::{Abort, Coordinator, Deposit, Rendezvous};
use aligraph::{contrastive_step, GnnEncoder};
use aligraph_chaos::{FaultConfig, FaultPlane, RecoveryMode, RetryPolicy};
use aligraph_graph::{AttributedHeterogeneousGraph, EdgeType, FeatureMatrix};
use aligraph_partition::WorkerId;
use aligraph_sampling::neighborhood::ClusterView;
use aligraph_sampling::{worker_rng, MeteredNeighborhood, ShardEdgePools, UniformNeighborhood};
use aligraph_storage::seal::Fnv1a;
use aligraph_storage::{Cluster, RebalanceOp};
use aligraph_telemetry::{Registry, Span, Stopwatch};
use rand::rngs::StdRng;
use rand::Rng;
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
    /// Recovery machinery for the migration stream. [`RecoveryMode::Full`]
    /// is the real system; the broken variants deliberately lose moved
    /// subgraphs/rows so divergence tests have teeth.
    pub mode: RecoveryMode,
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
    /// Early stopping patience over epoch losses (`None` disables).
    pub patience: Option<usize>,
    /// Minimum epoch-loss improvement that counts as progress.
    pub min_delta: f64,
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
    /// Recovery machinery of the PS channels. [`RecoveryMode::Full`] is the
    /// real system; the broken variants exist for divergence-detection
    /// tests.
    pub recovery: RecoveryMode,
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
            patience: None,
            min_delta: 1e-4,
            checkpoint: None,
            chaos: None,
            recovery: RecoveryMode::Full,
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

/// Cross-worker training bookkeeping guarded by one mutex; leaders mutate
/// it at rendezvous points.
#[derive(Default)]
struct SharedTrain {
    epoch_losses: Vec<f64>,
    best_loss: f64,
    stall: u64,
    early_stopped: bool,
}

/// Plain data a worker thread returns on success.
struct WorkerDone {
    state: Vec<f32>,
    edges: u64,
    busy_ns: u64,
    comm_ns: u64,
    hist: Vec<u64>,
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
        push(match self.cfg.patience {
            None => u64::MAX,
            Some(p) => p as u64,
        });
        push(self.cfg.min_delta.to_bits());
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

    /// Resumes from a checkpoint file and continues to `cfg.epochs`.
    pub fn train_from(&self, path: &Path) -> Result<DistOutcome, RuntimeError> {
        self.train_from_checkpoint(Checkpoint::read_from(path)?)
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
        for (w, wk) in ckpt.workers.iter().enumerate() {
            if wk.hist.len() != self.cfg.staleness as usize + 1 {
                return Err(RuntimeError::Checkpoint(format!(
                    "worker {w} histogram has {} bins, staleness {} needs {}",
                    wk.hist.len(),
                    self.cfg.staleness,
                    self.cfg.staleness + 1
                )));
            }
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
        let batches = cfg.batches_per_epoch as u64;
        let total_steps = batches * cfg.epochs as u64;
        let t0 = resume.as_ref().map_or(0, |c| c.global_step);
        let fingerprint = self.fingerprint();

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
        .attach(Arc::clone(&chaos.plane), chaos.policy, cfg.recovery);
        // Registered counters are shared registry-wide, so a fault-recovery
        // retry must zero them to report only its own traffic (matching the
        // fresh-per-attempt counters the PS had before telemetry).
        ps.reset_stats();
        if let Some(ck) = &resume {
            ps.load(&ck.shards)?;
        }

        let shared = Mutex::new(match &resume {
            Some(ck) => SharedTrain {
                epoch_losses: ck.epoch_losses.clone(),
                best_loss: ck.best_loss,
                stall: ck.stall,
                early_stopped: false,
            },
            None => SharedTrain { best_loss: f64::INFINITY, ..SharedTrain::default() },
        });
        let co = Coordinator::new(p, t0);
        let rebalances = AtomicU64::new(0);
        // Materialized once, before any worker can push: each worker's
        // starting replica must be the time-t0 server state, not whatever
        // the server holds when that worker's thread happens to start.
        let initial_replica = ps.materialize()?;
        let initial_replica = &initial_replica;
        let resume = resume.as_ref();

        let results: Vec<Result<WorkerDone, RuntimeError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..p)
                .map(|me| {
                    let ps = &ps;
                    let co = &co;
                    let shared = &shared;
                    let rebalances = &rebalances;
                    scope.spawn(move || {
                        self.worker_loop(
                            me,
                            t0,
                            total_steps,
                            fingerprint,
                            resume,
                            initial_replica.clone(),
                            ps,
                            co,
                            shared,
                            checkpoints,
                            rebalances,
                            chaos,
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
        let mut done = Vec::with_capacity(p);
        for r in results {
            match r {
                Ok(d) => done.push(d),
                Err(e @ RuntimeError::Fault { .. }) => fault = Some(e),
                Err(e) => return Err(e),
            }
        }
        if let Some(e) = fault {
            return Err(e);
        }

        let shared =
            shared.into_inner().map_err(|_| RuntimeError::Poisoned("shared train state"))?;
        let mut encoder = self.spec.build();
        encoder.load_dense_state_vec(&done[0].state).map_err(RuntimeError::Unrecoverable)?;
        let features = ps.materialize()?;

        let per_worker: Vec<WorkerReport> = done
            .iter()
            .map(|d| WorkerReport { edges: d.edges, busy_ns: d.busy_ns, comm_ns: d.comm_ns })
            .collect();
        let mut staleness_hist = vec![0u64; cfg.staleness as usize + 1];
        for d in &done {
            for (bin, &n) in d.hist.iter().enumerate() {
                staleness_hist[bin] += n;
            }
        }
        let report = DistReport {
            workers: p,
            staleness: cfg.staleness,
            epoch_losses: shared.epoch_losses,
            early_stopped: shared.early_stopped,
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
    #[allow(clippy::too_many_arguments, reason = "one worker's whole state, threaded once")]
    fn worker_loop(
        &self,
        me: usize,
        t0: u64,
        total_steps: u64,
        fingerprint: u64,
        resume: Option<&Checkpoint>,
        mut replica: FeatureMatrix,
        ps: &SparseParamServer,
        co: &Coordinator,
        shared: &Mutex<SharedTrain>,
        checkpoints: &AtomicU64,
        rebalances: &AtomicU64,
        chaos: &ChaosRt,
    ) -> Result<WorkerDone, RuntimeError> {
        let cfg = &self.cfg;
        let graph: &AttributedHeterogeneousGraph = self.cluster.graph();
        let batches = cfg.batches_per_epoch as u64;

        let mut encoder = self.spec.build();
        let mut rng = worker_rng(cfg.seed, me as u32);
        let mut last_drain = t0;
        let mut loss_sum = 0.0f64;
        let mut pairs = 0u64;
        let mut edges = 0u64;
        let mut busy_ns = 0u64;
        let mut comm_ns = 0u64;
        let mut hist = vec![0u64; cfg.staleness as usize + 1];
        if let Some(ck) = resume {
            let wk = &ck.workers[me];
            encoder.load_dense_state_vec(&wk.dense_state).map_err(RuntimeError::Checkpoint)?;
            if let Some(avg) = &ck.avg_params {
                encoder.load_dense_param_vec(avg).map_err(RuntimeError::Checkpoint)?;
            }
            rng = StdRng::from_state(wk.rng);
            last_drain = wk.last_drain;
            loss_sum = wk.loss_sum;
            pairs = wk.pairs;
            edges = wk.edges;
            busy_ns = wk.busy_ns;
            comm_ns = wk.comm_ns;
            hist.copy_from_slice(&wk.hist);
        }
        let pools = ShardEdgePools::build(graph, self.cluster.partition(), WorkerId(me as u32));
        let view = ClusterView { cluster: self.cluster, from: WorkerId(me as u32) };
        let sampler = MeteredNeighborhood::new(UniformNeighborhood, &self.registry, "uniform");
        let staleness_hist = self.registry.histogram("runtime.staleness", &[]);
        let allreduce_ns = self.registry.histogram("runtime.allreduce_ns", &[]);

        let mut t = t0;
        while t < total_steps {
            co.acquire(me)?;
            if chaos.plane.crash_fires(me as u32, t) {
                co.crash(Abort::Fault { worker: me as u32 })?;
                return Err(RuntimeError::Fault { worker: me as u32 });
            }

            // Bounded staleness: drain the PS once the replica is more than
            // `s` steps old, then record the age this step computed at.
            let mut age = t - last_drain;
            if age > cfg.staleness {
                comm_ns += ps.drain_into(me, &mut replica)?;
                last_drain = t;
                age = 0;
            }
            hist[age as usize] += 1;
            staleness_hist.record(age);

            let start = Stopwatch::start();
            // Same draw sequence as the sequential trainer: edge type, then
            // the batch, then the step's internal sampling.
            let etype = EdgeType(rng.gen_range(0..graph.num_edge_types().max(1)));
            let batch = pools.sample(etype, cfg.batch_size, &mut rng);
            if !batch.is_empty() {
                let out = contrastive_step(
                    &mut encoder,
                    graph,
                    &view,
                    &replica,
                    &sampler,
                    &batch,
                    cfg.negatives,
                    &mut rng,
                );
                busy_ns += start.elapsed_ns();
                loss_sum += out.loss_sum;
                pairs += out.pairs as u64;
                edges += batch.len() as u64;
                comm_ns += ps.record_reads(me, out.feature_grads.keys());
                comm_ns += ps.push(me, &out.feature_grads)?;
            } else {
                busy_ns += start.elapsed_ns();
            }
            co.complete(me)?;
            t += 1;

            let deposit = |state: bool| Deposit {
                params: if state { encoder.dense_param_vec() } else { Vec::new() },
                state: encoder.dense_state_vec(),
                rng: rng.state(),
                loss_sum,
                pairs,
                last_drain,
                edges,
                busy_ns,
                comm_ns,
                hist: hist.clone(),
            };

            // Mid-epoch checkpoint rendezvous (consistent cut: everyone has
            // completed exactly t steps).
            if let Some(ck) = &cfg.checkpoint {
                if ck.every_steps > 0
                    && t.is_multiple_of(ck.every_steps)
                    && !t.is_multiple_of(batches)
                    && t < total_steps
                {
                    let out = co.rendezvous(me, deposit(false), |deps| {
                        let sh = shared
                            .lock()
                            .map_err(|_| RuntimeError::Poisoned("shared train state"))?;
                        write_checkpoint(fingerprint, t, &sh, None, &deps, ps, &ck.dir, chaos)?;
                        // ordering: report-only tally read after worker
                        // joins; the join synchronizes, Relaxed suffices.
                        checkpoints.fetch_add(1, Ordering::Relaxed);
                        // Checkpoint cuts refresh every replica to the
                        // materialized server state — exactly the state a
                        // restore rebuilds (`initial_replica`) — so resumes
                        // are bit-exact at any staleness bound. The drain
                        // *schedule* (`last_drain`) is deliberately left
                        // untouched: pending drains still fire at the same
                        // steps, and the refresh itself cannot change what
                        // a later drain would deliver (undrained dirty rows
                        // are re-read from the server either way).
                        Ok(Rendezvous { drain: Some(ps.materialize()?), ..Rendezvous::default() })
                    })?;
                    if let Some(m) = &out.drain {
                        replica = m.clone();
                    }
                }
            }

            // Epoch boundary: average dense parameters, account the epoch
            // loss, decide early stop, checkpoint the averaged state.
            if t.is_multiple_of(batches) {
                let out = co.rendezvous(me, deposit(true), |mut deps| {
                    // Times the leader's allreduce + epoch bookkeeping into
                    // `runtime.allreduce_ns` (recorded when the guard drops).
                    let _allreduce = Span::enter(&allreduce_ns);
                    // Elastic boundary: every worker is parked at this
                    // rendezvous — no push, pull, sample, or drain is in
                    // flight — so scheduled topology changes migrate
                    // residency (graph shards + PS rows) here. Runs before
                    // the checkpoint below so the cut captures the
                    // post-move shard layout.
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
                    let mut sh =
                        shared.lock().map_err(|_| RuntimeError::Poisoned("shared train state"))?;
                    let loss: f64 = deps.iter().map(|d| d.loss_sum).sum();
                    let n: u64 = deps.iter().map(|d| d.pairs).sum();
                    let mean = loss / n.max(1) as f64;
                    sh.epoch_losses.push(mean);
                    let mut stop = false;
                    if let Some(patience) = cfg.patience {
                        if mean + cfg.min_delta < sh.best_loss {
                            sh.best_loss = mean;
                            sh.stall = 0;
                        } else {
                            sh.stall += 1;
                            if sh.stall >= patience as u64 {
                                sh.early_stopped = true;
                                stop = true;
                            }
                        }
                    }
                    // Synchronous allreduce: elementwise mean of every
                    // worker's dense parameters. With one worker this is the
                    // bitwise identity (sum of one, divided by 1).
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
                    let mut drain = None;
                    if let Some(ck) = &cfg.checkpoint {
                        // Epoch checkpoints store zeroed loss accumulators
                        // (the epoch just closed) plus the averaged params,
                        // and refresh replicas like the mid-epoch cut above.
                        for d in &mut deps {
                            d.loss_sum = 0.0;
                            d.pairs = 0;
                        }
                        write_checkpoint(
                            fingerprint,
                            t,
                            &sh,
                            Some(&avg),
                            &deps,
                            ps,
                            &ck.dir,
                            chaos,
                        )?;
                        // ordering: report-only tally read after worker
                        // joins; the join synchronizes, Relaxed suffices.
                        checkpoints.fetch_add(1, Ordering::Relaxed);
                        drain = Some(ps.materialize()?);
                    }
                    Ok(Rendezvous { avg_params: Some(avg), drain, stop })
                })?;
                let avg = out.avg_params.as_ref().ok_or(RuntimeError::Poisoned("allreduce"))?;
                encoder.load_dense_param_vec(avg).map_err(RuntimeError::Unrecoverable)?;
                if let Some(m) = &out.drain {
                    replica = m.clone();
                }
                loss_sum = 0.0;
                pairs = 0;
                if out.stop {
                    break;
                }
            }
        }
        Ok(WorkerDone { state: encoder.dense_state_vec(), edges, busy_ns, comm_ns, hist })
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
                .rebalance(plan.op, &chaos.plane, &chaos.policy, plan.mode)
                .map_err(|e| RuntimeError::Unrecoverable(format!("rebalance failed: {e}")))?;
        }
        ps.rehome(&self.cluster.residency_snapshot(), plan.mode)?;
        Ok(())
    }
}

/// Assembles and atomically writes one checkpoint from the rendezvous
/// deposits (leader-only; runs under the coordinator lock). When the chaos
/// plan corrupts checkpoints, the plane picks a seeded subset of steps and
/// flips one byte in the written file — recovery must detect the bad
/// checksum and fall back to the previous valid checkpoint.
#[allow(clippy::too_many_arguments, reason = "a checkpoint is the sum of these parts")]
fn write_checkpoint(
    fingerprint: u64,
    global_step: u64,
    sh: &SharedTrain,
    avg_params: Option<&[f32]>,
    deps: &[Deposit],
    ps: &SparseParamServer,
    dir: &Path,
    chaos: &ChaosRt,
) -> Result<(), RuntimeError> {
    let ckpt = Checkpoint {
        fingerprint,
        global_step,
        epoch_losses: sh.epoch_losses.clone(),
        best_loss: sh.best_loss,
        stall: sh.stall,
        avg_params: avg_params.map(<[f32]>::to_vec),
        workers: deps
            .iter()
            .map(|d| WorkerCkpt {
                rng: d.rng,
                last_drain: d.last_drain,
                loss_sum: d.loss_sum,
                pairs: d.pairs,
                edges: d.edges,
                busy_ns: d.busy_ns,
                comm_ns: d.comm_ns,
                hist: d.hist.clone(),
                dense_state: d.state.clone(),
            })
            .collect(),
        shards: ps.export()?,
    };
    let path = ckpt.write_to_dir(dir)?;
    if let Some(offset) = chaos.plane.corrupts_checkpoint(global_step) {
        let mut bytes = std::fs::read(&path)?;
        let i = (offset % bytes.len() as u64) as usize;
        bytes[i] ^= 0xff;
        std::fs::write(&path, &bytes)?;
    }
    Ok(())
}
