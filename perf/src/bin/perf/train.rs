//! `train_dense` and `train_tiered`: distributed training rounds through
//! `runtime::DistTrainer` plus a harness-issued read phase.
//!
//! Both run the same graph, trainer, fan-outs and batch. `train_dense`
//! uses a wide encoder over an all-hot cluster, so `tensor`/`ops`/`core`
//! own the step; `train_tiered` uses a narrow encoder over a tier holding a
//! tenth of the decoded rows, so `storage` and `sampling` own it.

use crate::bench::{LayerCtx, Round, Workload};
use crate::cal::{median, Calibrator};
use crate::report::Outcome;
use crate::trace::{self, layer_self_ns, self_times, span, total_s};
use aligraph::{EpisodeTape, GnnEncoder};
use aligraph_graph::{
    AttributedHeterogeneousGraph, EdgeId, EdgeType, FeatureMatrix, Featurizer, Neighbor,
    TaobaoConfig, VertexId,
};
use aligraph_ops::{Activation, Aggregator, Combiner, ConcatCombiner, MeanAggregator};
use aligraph_partition::{EdgeCutHash, Partitioner, WorkerId};
use aligraph_runtime::{DistTrainer, EncoderSpec, RuntimeConfig, SparseParamServer};
use aligraph_sampling::neighborhood::ClusterView;
use aligraph_sampling::{
    worker_rng, NegativeSampler, NeighborAccess, NeighborhoodSampler, ShardEdgePools,
    UniformNegative, UniformNeighborhood,
};
use aligraph_storage::codec::{
    decode_adjacency, decode_feature_row, encode_adjacency, encode_feature_row,
};
use aligraph_storage::{
    AccessKind, CacheStrategy, Cluster, CostModel, Segment, SegmentKind, TierConfig, TierRead,
};
use aligraph_telemetry::Registry;
use aligraph_tensor::embedding::EmbeddingTable;
use aligraph_tensor::loss::{logistic_grad, logistic_loss};
use aligraph_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

/// The graph both workloads train on: `TaobaoConfig::small_sim()` with a
/// third of the vertices and three times the edges. `train()` pays a fixed
/// cost per call that grows with vertices x feature width (parameter-server
/// build, replica copies), set-up grows with edges; this shape keeps the
/// first small next to the steps and the second above a second.
fn graph_config(seed: u64) -> TaobaoConfig {
    TaobaoConfig {
        users: 12_000,
        items: 3_000,
        ui_edges: 2_400_000,
        ii_edges: 1_200_000,
        seed,
        ..TaobaoConfig::small_sim()
    }
}
const WORKERS: usize = 2;
const BATCH: usize = 64;
const NEGATIVES: usize = 4;
const FANOUTS: [usize; 2] = [10, 5];
const SPARSE_LR: f32 = 0.05;
const DENSE_LR: f32 = 0.05;
/// Seeds of one read: a 2-hop context over them, then their feature rows.
const READ_SEEDS: usize = 64;

/// The two shapes of the training workload.
pub trait Shape {
    /// Encoder input width.
    const DIM_IN: usize;
    /// Encoder hidden widths, one per hop.
    const DIMS: [usize; 2];
    /// Whether the cluster sits on the memory-backed cold tier.
    const TIERED: bool;
    /// Mini-batches per worker per round.
    const BATCHES: usize;
    /// Reads the harness issues after each round's `train()`.
    const READS: usize;
    /// See [`Workload::ROUNDS_PER_SECOND`].
    const ROUNDS_PER_SECOND: f64;
}

/// Wide encoder, all-hot cluster.
#[derive(Debug)]
pub struct Dense;
impl Shape for Dense {
    const DIM_IN: usize = 64;
    const DIMS: [usize; 2] = [64, 32];
    const TIERED: bool = false;
    const BATCHES: usize = 6;
    const READS: usize = 8;
    const ROUNDS_PER_SECOND: f64 = 2.6;
}

/// Narrow encoder, tier with a tenth of the decoded rows resident.
#[derive(Debug)]
pub struct Tiered;
impl Shape for Tiered {
    const DIM_IN: usize = 16;
    const DIMS: [usize; 2] = [16, 8];
    const TIERED: bool = true;
    const BATCHES: usize = 8;
    const READS: usize = 8;
    const ROUNDS_PER_SECOND: f64 = 2.1;
}

/// The tier charges a decoded adjacency row 32 B + 24 B per neighbor + 4 B
/// per CDF entry and a feature row 32 B + 4 B per lane; the budget is a
/// tenth of that over the whole graph.
fn resident_budget(graph: &AttributedHeterogeneousGraph, dim: usize) -> u64 {
    let decoded =
        graph.num_edge_records() as u64 * 28 + graph.num_vertices() as u64 * (64 + 4 * dim as u64);
    decoded / 10
}

/// One training workload, built.
pub struct Train<S: Shape> {
    seed: u64,
    registry: Arc<Registry>,
    graph: Arc<AttributedHeterogeneousGraph>,
    features: FeatureMatrix,
    cluster: Cluster,
    /// Epoch loss bits of the first round; every later round must match.
    loss_bits: Option<u64>,
    /// Dense parameters of the latest `train()`.
    last_params: Vec<f32>,
    /// Last plain round's report-derived counts (traced run).
    last: LastRound,
    /// Loss bits of the re-enacted epoch.
    reenacted_loss_bits: Option<u64>,
    /// Tape memo hits and computations over the re-enacted steps.
    tape_stats: (u64, u64),
    /// Parameter-server bytes and messages over the re-enacted steps.
    ps_push_bytes: u64,
    ps_msgs: u64,
    reenacted_steps: u64,
    context_vertices: Vec<f64>,
    _shape: PhantomData<S>,
}

#[derive(Debug, Default, Clone, Copy)]
struct LastRound {
    cold_reads: u64,
    remote_reads: u64,
    total_reads: u64,
    busy_ns: u64,
    comm_ns: u64,
    wall_ns: u64,
    demotions: u64,
}

impl<S: Shape> std::fmt::Debug for Train<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Train").field("seed", &self.seed).finish_non_exhaustive()
    }
}

impl<S: Shape> Train<S> {
    fn spec(&self) -> EncoderSpec {
        EncoderSpec {
            dim_in: S::DIM_IN,
            dims: S::DIMS.to_vec(),
            fanouts: FANOUTS.to_vec(),
            lr: DENSE_LR,
            seed: self.seed ^ 0x5eed,
        }
    }

    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            workers: WORKERS,
            epochs: 1,
            batches_per_epoch: S::BATCHES,
            batch_size: BATCH,
            negatives: NEGATIVES,
            staleness: 0,
            seed: self.seed,
            sparse_lr: SPARSE_LR,
            ..RuntimeConfig::default()
        }
    }

    fn build_cluster(
        graph: &Arc<AttributedHeterogeneousGraph>,
        features: &FeatureMatrix,
        budget: Option<Option<u64>>,
        registry: &Registry,
    ) -> Cluster {
        let mut builder = Cluster::builder(Arc::clone(graph))
            .partitioner(&EdgeCutHash)
            .shards(WORKERS)
            .cache(CacheStrategy::None)
            .max_hop(FANOUTS.len())
            .cost_model(CostModel::default())
            .registry(registry);
        if let Some(budget) = budget {
            builder = builder.tier_config(TierConfig::with_budget(budget));
        }
        let (cluster, _) = builder.build();
        if let Some(tier) = cluster.tier() {
            tier.attach_features(features).expect("memory-backed tier does no I/O");
        }
        cluster
    }

    /// Rows the tier has demoted so far; only the live registry of the traced
    /// run knows.
    fn demotions(&self) -> u64 {
        if self.registry.is_enabled() {
            self.registry.snapshot().counter_total("tier.demotions")
        } else {
            0
        }
    }

    fn steps_per_round() -> u64 {
        (WORKERS * S::BATCHES) as u64
    }

    /// One epoch of both workers, re-enacted on the harness thread from the
    /// public calls `DistTrainer`'s worker loop makes, in its round-robin
    /// order, with a span around each call into a layer.
    fn reenact_epoch(&mut self) -> (f64, u64, Vec<f64>) {
        let graph = Arc::clone(&self.graph);
        let cfg = self.runtime_config();
        let spec = self.spec();
        let partition = self.cluster.partition();
        // What one `train()` call pays before its first step.
        let call_setup = span("runtime.train_call_fixed");
        let ps = SparseParamServer::new_registered(
            partition,
            &self.features,
            cfg.sparse_lr,
            *self.cluster.cost_model(),
            &self.registry,
        );
        let initial = ps.materialize().expect("fresh parameter server");
        let mut workers: Vec<ReenactedWorker> = (0..WORKERS)
            .map(|w| ReenactedWorker {
                encoder: traced_encoder(&spec),
                rng: worker_rng(cfg.seed, w as u32),
                replica: initial.clone(),
                pools: ShardEdgePools::build(&graph, partition, WorkerId(w as u32)),
                loss_sum: 0.0,
                pairs: 0,
            })
            .collect();
        drop(call_setup);
        let sampler = TracedSampler(UniformNeighborhood);
        let mut edges = 0u64;
        let mut step_s = Vec::new();
        for t in 0..cfg.batches_per_epoch {
            for (w, me) in workers.iter_mut().enumerate() {
                trace::set_id(self.reenacted_steps);
                self.reenacted_steps += 1;
                let start = Instant::now();
                let step_span = span("runtime.step");
                let before = ps.stats().snapshot();
                // Staleness 0: every step after the first drains first.
                if t > 0 {
                    let _s = span("runtime.ps_drain");
                    ps.drain_into(w, &mut me.replica).expect("drain");
                }
                let view =
                    TracedAccess(ClusterView { cluster: &self.cluster, from: WorkerId(w as u32) });
                let batch = {
                    let _s = span("sampling.edge_pool_sample");
                    let etype = EdgeType(me.rng.gen_range(0..graph.num_edge_types().max(1)));
                    me.pools.sample(etype, cfg.batch_size, &mut me.rng)
                };
                if !batch.is_empty() {
                    let (hits, misses, grads) =
                        me.contrastive_step(&graph, &view, &sampler, &batch, cfg.negatives);
                    self.tape_stats.0 += hits;
                    self.tape_stats.1 += misses;
                    edges += batch.len() as u64;
                    // The meter counts the drain's and the push's messages;
                    // `record_reads` in between meters row reads, not messages.
                    let drained = ps.stats().snapshot();
                    {
                        let _s = span("runtime.ps_reads");
                        ps.record_reads(w, grads.keys());
                    }
                    let before_push = ps.stats().snapshot();
                    {
                        let _s = span("runtime.ps_push");
                        ps.push(w, &grads).expect("push");
                    }
                    let pushed = ps.stats().snapshot();
                    let bytes = |s: &aligraph_storage::TierMeterSnapshot| {
                        s.local_bytes + s.cached_bytes + s.remote_bytes
                    };
                    self.ps_push_bytes += bytes(&pushed) - bytes(&before_push);
                    self.ps_msgs += (pushed.total_ops() - before_push.total_ops())
                        + (drained.total_ops() - before.total_ops());
                }
                drop(step_span);
                step_s.push(start.elapsed().as_secs_f64());
            }
        }
        // Epoch boundary: synchronous allreduce of the dense parameters, then
        // the trained features leave the parameter server.
        let _call_teardown = span("runtime.train_call_fixed");
        let mut avg = workers[0].encoder.dense_param_vec();
        for other in &workers[1..] {
            for (a, b) in avg.iter_mut().zip(other.encoder.dense_param_vec()) {
                *a += b;
            }
        }
        let inv = 1.0 / workers.len() as f32;
        avg.iter_mut().for_each(|a| *a *= inv);
        let loss: f64 = workers.iter().map(|w| w.loss_sum).sum();
        let pairs: u64 = workers.iter().map(|w| w.pairs).sum();
        black_box((avg, ps.materialize().expect("materialize")));
        (loss / pairs.max(1) as f64, edges, step_s)
    }
}

struct ReenactedWorker {
    encoder: GnnEncoder,
    rng: StdRng,
    replica: FeatureMatrix,
    pools: ShardEdgePools,
    loss_sum: f64,
    pairs: u64,
}

impl ReenactedWorker {
    /// `aligraph::contrastive_step`, call for call, with spans. Returns the
    /// tape's memo hits and computations and the feature gradients.
    fn contrastive_step<A: NeighborAccess, N: NeighborhoodSampler>(
        &mut self,
        graph: &AttributedHeterogeneousGraph,
        access: &A,
        sampler: &N,
        edges: &[EdgeId],
        negatives: usize,
    ) -> (u64, u64, std::collections::HashMap<u32, Vec<f32>>) {
        let scaled = |v: &[f32], s: f32| -> Vec<f32> {
            v.iter().map(|&x| (x * s).clamp(-1.0, 1.0)).collect()
        };
        let (encoder, rng, features) = (&mut self.encoder, &mut self.rng, &self.replica);
        let mut tape = EpisodeTape::new();
        // Summed per step and added to the epoch's sum afterwards, as the
        // runtime does: one running sum rounds differently on some seeds.
        let mut loss_sum = 0.0f64;
        let forward = |tape: &mut EpisodeTape, rng: &mut StdRng, v: VertexId| {
            let _s = span("core.forward");
            encoder.forward(access, features, sampler, v, tape, rng)
        };
        for &e in edges {
            let rec = graph.edge(e);
            let iu = forward(&mut tape, rng, rec.src);
            let iv = forward(&mut tape, rng, rec.dst);
            let negs = {
                let _s = span("sampling.negative");
                UniformNegative { vtype: Some(graph.vertex_type(rec.dst)) }.sample(
                    graph,
                    &[rec.src, rec.dst],
                    negatives,
                    rng,
                )
            };
            let loss_span = span("core.loss");
            let (zu, zv) = (tape.output(iu).to_vec(), tape.output(iv).to_vec());
            let s = aligraph_tensor::dot(&zu, &zv);
            loss_sum += logistic_loss(s, true) as f64;
            let g = logistic_grad(s, true);
            tape.add_grad(iu, &scaled(&zv, g));
            tape.add_grad(iv, &scaled(&zu, g));
            drop(loss_span);
            for n in negs {
                let ing = forward(&mut tape, rng, n);
                let _loss_span = span("core.loss");
                let zn = tape.output(ing).to_vec();
                let s = aligraph_tensor::dot(&zu, &zn);
                loss_sum += logistic_loss(s, false) as f64;
                let g = logistic_grad(s, false);
                tape.add_grad(iu, &scaled(&zn, g));
                tape.add_grad(ing, &scaled(&zu, g));
            }
            self.pairs += 1 + negatives as u64;
        }
        self.loss_sum += loss_sum;
        {
            let _s = span("core.backward");
            self.encoder.backward(&mut tape, features);
        }
        {
            let _s = span("core.step");
            self.encoder.step(edges.len());
        }
        let (hits, misses) = tape.stats();
        (hits, misses, std::mem::take(&mut tape.feature_grads))
    }
}

/// `GnnEncoder::sage` rebuilt from its public parts with span-recording
/// operators: same seeds, activations and arithmetic.
fn traced_encoder(spec: &EncoderSpec) -> GnnEncoder {
    let mut combiners: Vec<Box<dyn Combiner>> = Vec::new();
    let mut prev = spec.dim_in;
    for (k, &d) in spec.dims.iter().enumerate() {
        let act = if k + 1 == spec.dims.len() { Activation::Linear } else { Activation::Relu };
        combiners.push(Box::new(TracedCombiner(ConcatCombiner::new(
            prev,
            d,
            act,
            spec.lr,
            spec.seed.wrapping_add(k as u64),
        ))));
        prev = d;
    }
    GnnEncoder::custom(
        spec.dim_in,
        spec.dims.clone(),
        spec.fanouts.clone(),
        Box::new(TracedAggregator(MeanAggregator)),
        combiners,
    )
}

struct TracedAggregator(MeanAggregator);

impl Aggregator for TracedAggregator {
    fn forward(&self, target: &[f32], neighbors: &[&[f32]], out: &mut [f32]) {
        let _s = span("ops.aggregate");
        self.0.forward(target, neighbors, out);
    }

    fn backward(
        &self,
        target: &[f32],
        neighbors: &[&[f32]],
        grad_out: &[f32],
        grad_neighbors: &mut [Vec<f32>],
    ) {
        let _s = span("ops.aggregate_backward");
        self.0.backward(target, neighbors, grad_out, grad_neighbors);
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

struct TracedCombiner(ConcatCombiner);

impl Combiner for TracedCombiner {
    fn out_dim(&self) -> usize {
        self.0.out_dim()
    }

    fn forward(&self, h_self: &Matrix, h_nbr: &Matrix) -> Matrix {
        let _s = span("ops.dense_forward");
        self.0.forward(h_self, h_nbr)
    }

    fn backward(
        &mut self,
        h_self: &Matrix,
        h_nbr: &Matrix,
        output: &Matrix,
        grad_out: &Matrix,
    ) -> (Matrix, Matrix) {
        let _s = span("ops.dense_backward");
        self.0.backward(h_self, h_nbr, output, grad_out)
    }

    fn step(&mut self, batch: usize) {
        let _s = span("ops.dense_step");
        self.0.step(batch);
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn param_vec(&self) -> Vec<f32> {
        self.0.param_vec()
    }

    fn load_param_vec(&mut self, params: &[f32]) -> Result<(), String> {
        self.0.load_param_vec(params)
    }

    fn state_vec(&self) -> Vec<f32> {
        self.0.state_vec()
    }

    fn load_state_vec(&mut self, state: &[f32]) -> Result<(), String> {
        self.0.load_state_vec(state)
    }
}

struct TracedAccess<'a>(ClusterView<'a>);

impl NeighborAccess for TracedAccess<'_> {
    fn neighbors(&self, v: VertexId, hop: usize) -> &[Neighbor] {
        let _s = span("storage.neighbors");
        self.0.neighbors(v, hop)
    }

    fn prefetch_hint(&self, frontier: &[VertexId], hop: usize) {
        let _s = span("storage.prefetch");
        self.0.prefetch_hint(frontier, hop);
    }
}

struct TracedSampler(UniformNeighborhood);

impl NeighborhoodSampler for TracedSampler {
    fn sample_one<R: Rng>(
        &self,
        target: VertexId,
        nbrs: &[Neighbor],
        count: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        let _s = span("sampling.sample_one");
        self.0.sample_one(target, nbrs, count, rng)
    }
}

impl<S: Shape> Workload for Train<S> {
    const TRACED_ROUNDS: usize = 4;
    const ROUNDS_PER_SECOND: f64 = S::ROUNDS_PER_SECOND;

    fn setup(seed: u64, registry: &Arc<Registry>) -> Self {
        let graph = {
            let _s = span("graph.generate");
            Arc::new(graph_config(seed).generate().expect("valid generator config"))
        };
        let features = {
            let _s = span("graph.featurize");
            Featurizer::new(S::DIM_IN).matrix(&graph)
        };
        let cluster = {
            let _s = span(if S::TIERED { "storage.tier_build" } else { "storage.cluster_build" });
            let budget = S::TIERED.then(|| Some(resident_budget(&graph, S::DIM_IN)));
            Self::build_cluster(&graph, &features, budget, registry)
        };
        Train {
            seed,
            registry: Arc::clone(registry),
            graph,
            features,
            cluster,
            loss_bits: None,
            last_params: Vec::new(),
            last: LastRound::default(),
            reenacted_loss_bits: None,
            tape_stats: (0, 0),
            ps_push_bytes: 0,
            ps_msgs: 0,
            reenacted_steps: 0,
            context_vertices: Vec::new(),
            _shape: PhantomData,
        }
    }

    fn round(&mut self, out: &mut Outcome) -> Round {
        let demotions_before = self.demotions();
        let start = Instant::now();
        let trained =
            DistTrainer::new(&self.cluster, &self.features, self.spec(), self.runtime_config())
                .expect("shapes agree by construction")
                .with_registry(Arc::clone(&self.registry))
                .train();
        let train_s = start.elapsed().as_secs_f64();
        let trained = match trained {
            Ok(t) => t,
            Err(e) => {
                out.check(false, || format!("train() failed: {e}"));
                return Round {
                    failed: Self::steps_per_round() * BATCH as u64,
                    ..Round::default()
                };
            }
        };
        let loss = trained.report.epoch_losses.first().copied().unwrap_or(f64::NAN);
        out.check(loss.is_finite(), || format!("epoch loss {loss} is not finite"));
        let first = *self.loss_bits.get_or_insert(loss.to_bits());
        out.check(first == loss.to_bits(), || {
            format!(
                "epoch loss bits {:016x} differ from the first round's {first:016x}",
                loss.to_bits()
            )
        });
        let r = &trained.report;
        self.last = LastRound {
            cold_reads: r.adjacency.cold,
            remote_reads: r.adjacency.remote,
            total_reads: r.adjacency.total(),
            busy_ns: r.per_worker.iter().map(|w| w.busy_ns).sum(),
            comm_ns: r.per_worker.iter().map(|w| w.comm_ns).sum(),
            wall_ns: r.wall_ns,
            demotions: self.demotions() - demotions_before,
        };
        if S::TIERED {
            out.check(r.adjacency.cold > 0, || "tiered training never read cold".into());
        }
        let ops = r.edges_total;
        self.last_params = trained.encoder.dense_param_vec();

        let views = [0, 1].map(|w| ClusterView { cluster: &self.cluster, from: WorkerId(w) });
        let reads_s = read_phase::<S, _, _>(
            &self.graph,
            &self.features,
            &self.cluster,
            self.seed,
            &mut self.context_vertices,
            &views,
            &UniformNeighborhood,
        );
        Round {
            ops,
            failed: 0,
            ops_s: train_s,
            reads_s,
            updates_s: vec![train_s / Self::steps_per_round() as f64],
        }
    }

    fn traced_round(&mut self, out: &mut Outcome) -> Round {
        let start = Instant::now();
        let (loss, edges, step_s) = self.reenact_epoch();
        let epoch_s = start.elapsed().as_secs_f64();
        let first = *self.reenacted_loss_bits.get_or_insert(loss.to_bits());
        out.check(first == loss.to_bits(), || {
            "re-enacted epoch losses differ between rounds".into()
        });
        // The re-enactment is the runtime's own arithmetic in the runtime's
        // own order: it must land on `train()`'s loss, bit for bit.
        out.check(self.loss_bits == Some(loss.to_bits()), || {
            format!(
                "re-enacted epoch loss {loss} differs from train()'s {:?}",
                self.loss_bits.map(f64::from_bits)
            )
        });
        let views =
            [0, 1].map(|w| TracedAccess(ClusterView { cluster: &self.cluster, from: WorkerId(w) }));
        let reads_s = read_phase::<S, _, _>(
            &self.graph,
            &self.features,
            &self.cluster,
            self.seed,
            &mut self.context_vertices,
            &views,
            &TracedSampler(UniformNeighborhood),
        );
        Round { ops: edges, failed: 0, ops_s: epoch_s, reads_s, updates_s: step_s }
    }

    fn layers(&mut self, ctx: &LayerCtx<'_>, out: &mut Outcome) {
        let m = &mut out.metrics;
        let setup = self_times(ctx.setup_spans);
        m.put("graph.generate_s", total_s(&setup, "graph.generate"));
        m.put("graph.featurize_s", total_s(&setup, "graph.featurize"));
        m.put("storage.cluster_build_s", total_s(&setup, "storage.cluster_build"));
        m.put("storage.tier_build_s", total_s(&setup, "storage.tier_build"));

        let mut cal = Calibrator::new(ctx.cal_ref_ns);
        let (_, t) = cal.time(|| black_box(EdgeCutHash.partition(&self.graph, WORKERS)));
        m.put("partition.edge_cut_s", t.cal_s());

        // Spans of the traced rounds: inclusive per-step totals per name,
        // self time per layer.
        let totals = self_times(ctx.spans);
        let steps = totals.get("runtime.step").map_or(1, |t| t.count.max(1)) as f64;
        let per_step_ms = |names: &[&str]| -> f64 {
            names.iter().filter_map(|n| totals.get(n)).map(|t| t.total_ns as f64).sum::<f64>()
                / steps
                / 1e6
        };
        m.put("ops.aggregate_ms", per_step_ms(&["ops.aggregate", "ops.aggregate_backward"]));
        m.put("ops.dense_forward_ms", per_step_ms(&["ops.dense_forward"]));
        m.put("ops.dense_backward_ms", per_step_ms(&["ops.dense_backward"]));
        m.put("core.forward_ms", per_step_ms(&["core.forward"]));
        m.put("core.backward_ms", per_step_ms(&["core.backward"]));
        m.put("core.step_ms", per_step_ms(&["core.step"]));
        m.put("runtime.ps_push_ms", per_step_ms(&["runtime.ps_push"]));
        m.put("runtime.ps_drain_ms", per_step_ms(&["runtime.ps_drain"]));
        m.put(
            "sampling.edge_pool_sample_us",
            totals.get("sampling.edge_pool_sample").map_or(0.0, |t| t.mean_ms() * 1e3),
        );
        m.put(
            "sampling.context_ms",
            totals.get("sampling.sample_context").map_or(0.0, |t| t.mean_ms()),
        );
        m.put("sampling.context_vertices", median(&self.context_vertices));
        let step_total = totals.get("runtime.step").map_or(1, |t| t.total_ns.max(1)) as f64;
        let step_self = totals.get("runtime.step").map_or(0, |t| t.self_ns) as f64;
        m.put("core.step_unattributed_share", step_self / step_total);
        // Self time inside steps only: the read phase has its own root.
        let in_steps: Vec<_> = spans_under(ctx.spans, "runtime.step");
        let step_totals = self_times(&in_steps);
        let model =
            ["tensor", "ops", "core"].map(|l| layer_self_ns(&step_totals, l)).iter().sum::<u64>();
        let data =
            ["storage", "sampling"].map(|l| layer_self_ns(&step_totals, l)).iter().sum::<u64>();
        m.put("runtime.model_self_share", model as f64 / step_total);
        m.put("runtime.data_self_share", data as f64 / step_total);
        let (hits, misses) = self.tape_stats;
        m.put("core.tape_hit_share", hits as f64 / (hits + misses).max(1) as f64);
        let reenacted = self.reenacted_steps.max(1) as f64;
        m.put("runtime.ps_push_bytes_per_step", self.ps_push_bytes as f64 / reenacted);
        m.put("runtime.ps_msgs_per_step", self.ps_msgs as f64 / reenacted);

        // The untraced rounds through `DistTrainer::train()`.
        let last = self.last;
        let per_round_steps = Self::steps_per_round() as f64;
        m.put(
            "runtime.remote_read_share",
            last.remote_reads as f64 / last.total_reads.max(1) as f64,
        );
        m.put(
            "runtime.comm_share",
            last.comm_ns as f64 / (last.busy_ns + last.comm_ns).max(1) as f64,
        );
        m.put("runtime.worker_busy_share", last.busy_ns as f64 / last.wall_ns.max(1) as f64);
        let epochs =
            totals.get("runtime.train_call_fixed").map_or(1, |t| t.count.max(2) / 2) as f64;
        m.put(
            "runtime.train_call_fixed_ms",
            per_step_ms(&["runtime.train_call_fixed"]) * steps / epochs,
        );
        // How much of a `train()` call the re-enacted epoch (call set-up plus
        // steps, recorder off) accounts for.
        m.put("runtime.step_attributed_share", ctx.off.median_ops_s() / ctx.plain.median_ops_s());
        m.put("storage.tier_cold_reads_per_step", last.cold_reads as f64 / per_round_steps);
        m.put("storage.tier_demotions_per_step", last.demotions as f64 / per_round_steps);
        let reads = |src: &str| ctx.registry.counter("tier.reads", &[("src", src)]) as f64;
        let all_reads: f64 =
            ["hot", "prefetch", "cold", "materialized"].iter().map(|s| reads(s)).sum();
        m.put(
            "storage.tier_hot_share",
            if all_reads > 0.0 { reads("hot") / all_reads } else { 0.0 },
        );
        let issued = ctx.registry.counter("tier.prefetch.issued", &[]) as f64;
        let wasted = ctx.registry.counter("tier.prefetch.wasted", &[]) as f64;
        m.put(
            "storage.tier_prefetch_wasted_share",
            if issued > 0.0 { wasted / issued } else { 0.0 },
        );

        self.storage_probes(&mut cal, out);
        self.tensor_probes(&mut cal, out);
    }

    fn finish(self, out: &mut Outcome) {
        let Some(tier) = self.cluster.tier() else { return };
        let budget = tier.budget().expect("the tiered shape sets a budget");
        let peak = tier.peak_resident_bytes();
        out.check(peak <= budget, || {
            format!("peak resident {peak} B exceeds the budget {budget} B")
        });
        if !self.registry.is_enabled() {
            return;
        }
        // Traced run only: an all-hot run of the same configuration must end
        // on the same dense parameters, bit for bit.
        let detached = Registry::disabled();
        let oracle = Self::build_cluster(&self.graph, &self.features, Some(None), &detached);
        let oracle_tier = oracle.tier().expect("tiered build");
        for v in self.graph.vertices() {
            oracle_tier.read_adjacency(v);
            oracle_tier.feature_row(v);
        }
        let all_hot = oracle_tier.resident_bytes();
        let share = budget as f64 / all_hot as f64;
        out.check((0.08..=0.12).contains(&share), || {
            format!(
                "budget {budget} B is {share:.3} of the all-hot footprint {all_hot} B, not a tenth"
            )
        });
        match DistTrainer::new(&oracle, &self.features, self.spec(), self.runtime_config())
            .and_then(|t| t.train())
        {
            Ok(hot) => {
                let same = hot
                    .encoder
                    .dense_param_vec()
                    .iter()
                    .map(|x| x.to_bits())
                    .eq(self.last_params.iter().map(|x| x.to_bits()));
                out.check(same, || "tiered dense parameters differ from the all-hot run".into());
                out.check(hot.report.adjacency.cold == 0, || "the all-hot run read cold".into());
            }
            Err(e) => out.check(false, || format!("all-hot train() failed: {e}")),
        }
    }
}

/// The spans inside (and including) every span named `root`.
fn spans_under(spans: &[trace::SpanRec], root: &'static str) -> Vec<trace::SpanRec> {
    let mut keep = vec![None::<u32>; spans.len()];
    let mut out = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let inside = s.name == root || s.parent.is_some_and(|p| keep[p as usize].is_some());
        if inside {
            keep[i] = Some(out.len() as u32);
            let mut copy = s.clone();
            copy.parent = s.parent.and_then(|p| keep[p as usize]);
            out.push(copy);
        }
    }
    out
}

/// The read phase: `S::READS` reads, the same ones every round. One read is
/// a 64-seed 2-hop context through the cluster view plus the feature row of
/// every sampled vertex (through the tier when there is one).
fn read_phase<S: Shape, A: NeighborAccess, N: NeighborhoodSampler>(
    graph: &AttributedHeterogeneousGraph,
    features: &FeatureMatrix,
    cluster: &Cluster,
    seed: u64,
    context_vertices: &mut Vec<f64>,
    access: &[A; WORKERS],
    sampler: &N,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0ead);
    let n = graph.num_vertices() as u32;
    let mut times = Vec::with_capacity(S::READS);
    for i in 0..S::READS {
        let seeds: Vec<VertexId> = (0..READ_SEEDS).map(|_| VertexId(rng.gen_range(0..n))).collect();
        let start = Instant::now();
        let read = span("bench.read");
        let tree = {
            let _s = span("sampling.sample_context");
            sampler.sample_context(&access[i % WORKERS], &seeds, None, &FANOUTS, &mut rng)
        };
        let vertices = tree.all_vertices();
        let gathered = {
            let _s = span("storage.feature_gather");
            let mut gathered = Matrix::zeros(vertices.len(), S::DIM_IN);
            for (r, &v) in vertices.iter().enumerate() {
                match cluster.tier() {
                    Some(tier) => {
                        let (row, _) = tier.feature_row(v).expect("features are attached");
                        gathered.row_mut(r).copy_from_slice(&row);
                    }
                    None => gathered.row_mut(r).copy_from_slice(features.row(v)),
                }
            }
            gathered
        };
        drop(read);
        times.push(start.elapsed().as_secs_f64());
        black_box(&gathered);
        context_vertices.push(vertices.len() as f64);
    }
    times
}

impl<S: Shape> Train<S> {
    fn storage_probes(&mut self, cal: &mut Calibrator, out: &mut Outcome) {
        const SAMPLES: usize = 4_000;
        let graph = Arc::clone(&self.graph);
        let n = graph.num_vertices() as u32;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9a0be);
        let owned: Vec<VertexId> = (0..SAMPLES * 4)
            .map(|_| VertexId(rng.gen_range(0..n)))
            .filter(|&v| self.cluster.partition().owner_of(v) == WorkerId(0))
            .take(SAMPLES)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();

        // Neighbor reads through the cluster, each timed and sorted by how
        // it was served. A second read of the same vertex is hot.
        let (mut hot, mut cold) = (Vec::new(), Vec::new());
        let ((), timed) = cal.time(|| {
            for &v in &owned {
                for _ in 0..2 {
                    let start = Instant::now();
                    let kind = self.cluster.neighbors_from_kind(WorkerId(0), v, 1).map(|(_, k)| k);
                    let ns = start.elapsed().as_nanos() as f64;
                    match kind {
                        Ok(AccessKind::Local) => hot.push(ns),
                        Ok(AccessKind::Cold) => cold.push(ns),
                        _ => {}
                    }
                }
            }
        });
        out.metrics.put("storage.neighbors_hot_ns", median(&hot) * timed.factor);
        out.metrics.put("storage.neighbors_cold_ns", median(&cold) * timed.factor);

        let Some(tier) = self.cluster.tier().cloned() else { return };
        let mut feat_cold = Vec::new();
        let ((), timed) = cal.time(|| {
            for &v in &owned {
                let start = Instant::now();
                let read = tier.feature_row(v);
                let ns = start.elapsed().as_nanos() as f64;
                if matches!(read, Some((_, TierRead::Cold))) {
                    feat_cold.push(ns);
                }
            }
        });
        out.metrics.put("storage.feature_row_cold_ns", median(&feat_cold) * timed.factor);

        // Codec and segment throughput over the same rows, in encoded MB/s.
        let adj: Vec<Vec<u8>> = owned
            .iter()
            .map(|&v| {
                let mut buf = Vec::new();
                encode_adjacency(graph.out_neighbors(v), &mut buf);
                buf
            })
            .collect();
        let feat: Vec<Vec<u8>> = owned
            .iter()
            .map(|&v| {
                let mut buf = Vec::new();
                encode_feature_row(self.features.row(v), &mut buf);
                buf
            })
            .collect();
        let mb = |rows: &[Vec<u8>]| rows.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
        let ((), t) = cal.time(|| {
            for row in &adj {
                black_box(decode_adjacency(row).expect("own encoding"));
            }
        });
        out.metrics.put("storage.adj_decode_mb_per_s", mb(&adj) / t.cal_s());
        let ((), t) = cal.time(|| {
            for row in &feat {
                black_box(decode_feature_row(row).expect("own encoding"));
            }
        });
        out.metrics.put("storage.feat_decode_mb_per_s", mb(&feat) / t.cal_s());
        let rows: Vec<(u32, Vec<u8>)> = owned.iter().map(|v| v.0).zip(adj).collect();
        let bytes = Segment::build(SegmentKind::Adjacency, 0, rows).to_bytes();
        let (_, t) = cal.time(|| black_box(Segment::from_bytes(&bytes).expect("own segment")));
        out.metrics
            .put("storage.segment_from_bytes_mb_per_s", bytes.len() as f64 / 1e6 / t.cal_s());

        // Dirty-row writes (same values, so nothing the checks read moves)
        // and the staged writeback they leave behind.
        let ((), t) = cal.time(|| {
            for &v in &owned {
                tier.write_row(v, self.features.row(v));
            }
        });
        out.metrics.put("storage.tier_write_row_us", t.cal_s() * 1e6 / owned.len().max(1) as f64);
        let (flushed, t) = cal.time(|| tier.flush_writeback());
        out.check(flushed.is_ok(), || "memory-backed writeback flush failed".into());
        out.metrics.put("storage.tier_flush_writeback_ms", t.cal_s() * 1e3);
    }

    /// GEMM throughput at the shapes the encoder's dense layers use: per
    /// tape node a `1 x 2·in` row against the `2·in x out` weights.
    fn tensor_probes(&mut self, cal: &mut Calibrator, out: &mut Outcome) {
        const REPS: usize = 20_000;
        let mut rng = aligraph_tensor::init::seeded_rng(self.seed);
        let mut flops = 0.0;
        let (mut mm, mut mt, mut tm) = (0.0, 0.0, 0.0);
        let mut prev = S::DIM_IN;
        for &d in &S::DIMS {
            let x = Matrix::uniform(1, 2 * prev, 1.0, &mut rng);
            let w = Matrix::uniform(2 * prev, d, 1.0, &mut rng);
            let g = Matrix::uniform(1, d, 1.0, &mut rng);
            flops += (2 * 2 * prev * d * REPS) as f64;
            let time = |cal: &mut Calibrator, f: &dyn Fn() -> Matrix| {
                cal.time(|| {
                    for _ in 0..REPS {
                        black_box(f());
                    }
                })
                .1
                .cal_s()
            };
            mm += time(cal, &|| black_box(&x).matmul(black_box(&w)));
            mt += time(cal, &|| black_box(&g).matmul_transpose(black_box(&w)));
            tm += time(cal, &|| black_box(&x).transpose_matmul(black_box(&g)));
            prev = d;
        }
        out.metrics.put("tensor.matmul_gflops", flops / mm / 1e9);
        out.metrics.put("tensor.matmul_transpose_gflops", flops / mt / 1e9);
        out.metrics.put("tensor.transpose_matmul_gflops", flops / tm / 1e9);

        let rows = 50_000usize;
        let mut table = EmbeddingTable::zeros(rows, S::DIM_IN);
        let grad = vec![0.01f32; S::DIM_IN];
        let ((), t) = cal.time(|| {
            for i in 0..rows {
                table.adagrad_update(i, &grad, SPARSE_LR);
            }
            black_box(table.row(0));
        });
        out.metrics.put("tensor.adagrad_rows_per_s", rows as f64 / t.cal_s());
    }
}
