//! The subcommand implementations. Each returns its report as a `String`
//! (printed by `main`, asserted on by the tests).

use crate::args::{Args, CliError, CommonArgs, CommonDefaults};
use aligraph::models::gatne::{train_gatne, GatneConfig};
use aligraph::models::graphsage::{train_graphsage, GraphSageConfig};
use aligraph::models::hep::{train_hep, HepConfig};
use aligraph::{evaluate_split, select_model, Candidate, EmbeddingModel};
use aligraph_baselines::{train_deepwalk, train_line, train_node2vec, LineOrder, SkipGramParams};
use aligraph_eval::link_prediction_split;
use aligraph_graph::generate::{amazon_sim_scaled, barabasi_albert, TaobaoConfig};
use aligraph_graph::powerlaw::{fit_exponent, head_mass};
use aligraph_graph::{
    read_graph, write_graph, AttributedHeterogeneousGraph, FeatureMatrix, Featurizer, VertexId,
};
use aligraph_partition::{
    EdgeCutHash, Grid2D, MetisLike, PartitionQuality, Partitioner, StreamingLdg, VertexCutGreedy,
};
use aligraph_runtime::{DistOutcome, DistTrainer, EncoderSpec, RuntimeConfig};
use aligraph_storage::{CacheStrategy, Cluster, CostModel, TierConfig};
use aligraph_telemetry::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::fs::File;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The synthetic graph a bench runs on: `cfg` generated under `seed`.
fn synth_graph(
    mut cfg: TaobaoConfig,
    seed: u64,
) -> Result<Arc<AttributedHeterogeneousGraph>, CliError> {
    cfg.seed = seed;
    Ok(Arc::new(cfg.generate()?))
}

fn load(args: &Args) -> Result<AttributedHeterogeneousGraph, CliError> {
    let path = args.required("graph")?;
    let file =
        File::open(path).map_err(|e| CliError::Runtime(format!("cannot open {path}: {e}")))?;
    Ok(read_graph(file)?)
}

/// `aligraph generate` (flags: the command's `HELP` line, here and below).
pub fn generate(args: &Args) -> Result<String, CliError> {
    let kind = args.get_or("kind", "taobao");
    let scale: f64 = args.num_or("scale", 0.001)?;
    let seed: u64 = args.num_or("seed", 42)?;
    let graph = match kind {
        "taobao" => {
            let mut cfg = TaobaoConfig::small_sim().scaled(scale);
            cfg.seed = seed;
            cfg.reverse_ui_prob = args.num_or("reverse", 0.15)?;
            cfg.generate()?
        }
        "amazon" => {
            let n = ((10_166.0 * scale.max(0.01)) as usize).max(10);
            let m = ((148_865.0 * scale.max(0.01)) as usize).max(20);
            amazon_sim_scaled(n, m, seed)?
        }
        "ba" => {
            let n = ((20_000.0 * scale.max(0.001)) as usize).max(10);
            barabasi_albert(n, args.num_or("attach", 4usize)?, seed)?
        }
        other => return Err(CliError::Usage(format!("unknown --kind `{other}`"))),
    };
    let out = args.required("out")?;
    let mut file = File::create(out)?;
    write_graph(&graph, &mut file)?;
    Ok(format!(
        "wrote {} vertices / {} edges ({} vertex types, {} edge types) to {out}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.num_vertex_types(),
        graph.num_edge_types(),
    ))
}

/// `aligraph stats`
pub fn stats(args: &Args) -> Result<String, CliError> {
    let g = load(args)?;
    let degs: Vec<f64> = g.vertices().map(|v| (g.in_degree(v) + g.out_degree(v)) as f64).collect();
    let mut out = String::new();
    writeln!(out, "vertices:        {}", g.num_vertices()).ok();
    writeln!(out, "edges:           {}", g.num_edges()).ok();
    writeln!(out, "vertex types:    {}", g.num_vertex_types()).ok();
    writeln!(out, "edge types:      {}", g.num_edge_types()).ok();
    writeln!(out, "adjacency bytes: {}", g.adjacency_bytes()).ok();
    writeln!(
        out,
        "attr bytes:      {} (naive co-located: {})",
        g.attribute_bytes(),
        g.naive_attribute_bytes()
    )
    .ok();
    writeln!(out, "mean degree:     {:.2}", degs.iter().sum::<f64>() / degs.len().max(1) as f64)
        .ok();
    writeln!(out, "top-20%% degree mass: {:.1}%", head_mass(&degs, 0.2) * 100.0).ok();
    if let Some(fit) = fit_exponent(&degs, 2.0, 30) {
        writeln!(out, "power-law fit:   alpha = {:.2} (tail {})", fit.alpha, fit.tail_len).ok();
    }
    Ok(out)
}

/// `aligraph partition`
pub fn partition(args: &Args) -> Result<String, CliError> {
    let g = load(args)?;
    let workers: usize = args.num_or("workers", 8)?;
    let algo = args.get_or("algo", "hash");
    let partitioner: Box<dyn Partitioner> = match algo {
        "hash" => Box::new(EdgeCutHash),
        "metis" => Box::new(MetisLike::default()),
        "vertex-cut" => Box::new(VertexCutGreedy::default()),
        "2d" => Box::new(Grid2D),
        "ldg" => Box::new(StreamingLdg::default()),
        other => return Err(CliError::Usage(format!("unknown --algo `{other}`"))),
    };
    let part = partitioner.partition(&g, workers);
    let q = PartitionQuality::evaluate(&g, &part);
    Ok(format!(
        "{} over {} workers: edge-cut {:.1}%, replication {:.2}, vertex imbalance {:.2}, edge imbalance {:.2}",
        partitioner.name(),
        part.num_workers,
        q.edge_cut_ratio * 100.0,
        q.replication_factor,
        q.vertex_imbalance,
        q.edge_imbalance,
    ))
}

fn train_model(
    g: &AttributedHeterogeneousGraph,
    model: &str,
    dim: usize,
    seed: u64,
) -> Result<Box<dyn EmbeddingModel>, CliError> {
    let params = SkipGramParams { dim, seed, ..SkipGramParams::quick() };
    Ok(match model {
        "graphsage" => {
            let mut cfg = GraphSageConfig::quick();
            cfg.dims = vec![dim.max(8), dim];
            cfg.train.seed = seed;
            Box::new(train_graphsage(g, &cfg).embeddings)
        }
        "deepwalk" => Box::new(train_deepwalk(g, &params)),
        "node2vec" => Box::new(train_node2vec(g, &params, 1.0, 0.5)),
        "line" => Box::new(train_line(g, &params, LineOrder::Both)),
        "gatne" => Box::new(train_gatne(g, &GatneConfig { dim, ..GatneConfig::quick() })),
        "hep" => Box::new(train_hep(g, &HepConfig::hep_quick(dim))),
        other => return Err(CliError::Usage(format!("unknown --model `{other}`"))),
    })
}

/// `aligraph train`
pub fn train(args: &Args) -> Result<String, CliError> {
    let g = load(args)?;
    let model_name = args.get_or("model", "graphsage");
    let dim: usize = args.num_or("dim", 32)?;
    let seed: u64 = args.num_or("seed", 42)?;
    let model = train_model(&g, model_name, dim, seed)?;

    let out = args.required("out")?;
    let mut file = std::io::BufWriter::new(File::create(out)?);
    use std::io::Write;
    for v in g.vertices() {
        let e = model.embedding(v);
        let cells: Vec<String> = e.iter().map(|x| format!("{x:.6}")).collect();
        writeln!(file, "{}\t{}", v.0, cells.join("\t"))?;
    }
    Ok(format!(
        "trained {model_name} (dim {dim}) on {} vertices; embeddings written to {out}",
        g.num_vertices()
    ))
}

/// `aligraph eval`
pub fn eval(args: &Args) -> Result<String, CliError> {
    let g = load(args)?;
    let model_name = args.get_or("model", "graphsage");
    let dim: usize = args.num_or("dim", 32)?;
    let seed: u64 = args.num_or("seed", 42)?;
    let fraction: f64 = args.num_or("test-fraction", 0.15)?;
    let split = link_prediction_split(&g, fraction, seed);
    let model = train_model(&split.train, model_name, dim, seed)?;
    let metrics = evaluate_split(model.as_ref(), &split);
    Ok(format!("{model_name} link prediction: {metrics}"))
}

/// `aligraph automl` — the §7 model-selection tournament.
pub fn automl(args: &Args) -> Result<String, CliError> {
    let g = load(args)?;
    let dim: usize = args.num_or("dim", 24)?;
    let seed: u64 = args.num_or("seed", 42)?;
    let params = SkipGramParams { dim, seed, ..SkipGramParams::quick() };
    let p2 = params.clone();
    let board = select_model(
        &g,
        vec![
            Candidate::new("graphsage", move |g: &AttributedHeterogeneousGraph| {
                let mut cfg = GraphSageConfig::quick();
                cfg.train.seed = seed;
                train_graphsage(g, &cfg).embeddings
            }),
            Candidate::new("deepwalk", move |g: &AttributedHeterogeneousGraph| {
                train_deepwalk(g, &params)
            }),
            Candidate::new("line", move |g: &AttributedHeterogeneousGraph| {
                train_line(g, &p2, LineOrder::Both)
            }),
            Candidate::new("hep", move |g: &AttributedHeterogeneousGraph| {
                train_hep(g, &HepConfig::hep_quick(dim))
            }),
        ],
        0.15,
        seed,
    );
    let mut out = String::new();
    writeln!(out, "model selection (validation ROC-AUC):").ok();
    for r in &board.results {
        writeln!(out, "  {:<12} {}", r.name, r.metrics).ok();
    }
    writeln!(out, "winner: {}", board.winner()).ok();
    Ok(out)
}

/// Zipf-ish popularity: cubing the uniform draw skews traffic heavily toward
/// low vertex ids.
fn skewed_vertex(rng: &mut StdRng, n: u32) -> VertexId {
    let r: f64 = rng.gen();
    VertexId(((n as f64 * r * r * r) as u32).min(n - 1))
}

/// The closed-loop load shape both serving benches drive: `clients` threads
/// split `requests` between them (client 0 takes the remainder), each with
/// its own RNG seeded from `(seed, client)`, while `background` (the
/// graph-update writer) runs on a thread of its own until the last client
/// is done. Returns every client's result and the background's.
fn drive_clients<C: Send, B: Send>(
    requests: u64,
    clients: usize,
    seed: u64,
    client: impl Fn(u64, &mut StdRng) -> C + Sync,
    background: impl FnOnce(&AtomicBool) -> B + Send,
) -> (Vec<C>, B) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let background = scope.spawn(|| background(&done));
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let todo =
                    requests / clients as u64 + if c == 0 { requests % clients as u64 } else { 0 };
                let client = &client;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(7919) ^ 1);
                    client(todo, &mut rng)
                })
            })
            .collect();
        let results = handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        // ordering: a lone shutdown flag with no payload published through
        // it (the background polls it with a matching Relaxed load and only
        // needs to observe the store eventually); the join below is the
        // real synchronization point.
        done.store(true, Ordering::Relaxed);
        (results, background.join().expect("background thread"))
    })
}

/// `aligraph serve-bench` — replays a synthetic Taobao-small request stream
/// against the online serving layer while a writer thread interleaves
/// dynamic graph updates, then prints the latency/throughput report.
/// Serving metrics publish into `registry` as `serving.*` series.
pub fn serve_bench(args: &Args, registry: &Arc<Registry>) -> Result<String, CliError> {
    use aligraph_graph::dynamic::{EdgeEvent, EvolutionKind, SnapshotDelta};
    use aligraph_graph::ids::well_known::CLICK;
    use aligraph_sampling::WeightedNeighborhood;
    use aligraph_serving::{ServeError, ServingConfig, ServingService};

    let common = CommonArgs::from_args(args, CommonDefaults { seed: 42, workers: 2, scale: 0.1 })?;
    let requests: u64 = args.num_or("requests", 10_000u64)?;
    let clients: usize = args.num_or("clients", 4usize)?.max(1);
    let workers = common.workers;
    let seed = common.seed;
    let delta_every_ms: u64 = args.num_or("delta-every-ms", 2u64)?.max(1);
    let config = ServingConfig {
        workers,
        max_batch: args.num_or("batch", 32usize)?,
        queue_capacity: args.num_or("queue", 512usize)?,
        cache_capacity: args.num_or("cache", 4_096usize)?,
        seed,
        fault: common.fault.clone(),
        max_stale_versions: args.num_or("max-stale", 8u64)?,
        ..Default::default()
    };

    let graph = synth_graph(TaobaoConfig::small_sim().scaled(common.scale), seed)?;
    let n = graph.num_vertices() as u32;
    let service = ServingService::start_with_registry(
        Arc::clone(&graph),
        WeightedNeighborhood,
        config,
        registry,
    );

    let start = Instant::now();
    let (per_client, (applied, invalidated)) = drive_clients(
        requests,
        clients,
        seed,
        |todo, rng| {
            let (mut ok, mut retries, mut failures) = (0u64, 0u64, 0u64);
            while ok < todo {
                let u = skewed_vertex(rng, n);
                let outcome = if rng.gen_bool(0.2) {
                    service.score(u, skewed_vertex(rng, n)).map(|_| ())
                } else {
                    service.embedding(u).map(|_| ())
                };
                match outcome {
                    Ok(()) => ok += 1,
                    Err(ServeError::Overloaded { retry_after_ms, .. }) => {
                        retries += 1;
                        std::thread::sleep(Duration::from_millis(retry_after_ms.min(5)));
                    }
                    Err(ServeError::Unavailable { .. }) => {
                        // Degraded-mode refusal under the chaos plane
                        // (fallback stale beyond bound): the request
                        // correctly failed closed; count it as served work,
                        // not a service failure.
                        ok += 1;
                    }
                    Err(_) => {
                        failures += 1;
                        break;
                    }
                }
            }
            (ok, retries, failures)
        },
        |done| {
            // Each update adds a handful of random CLICK edges and retracts
            // the previous update's additions, so the graph churns without
            // growing — the paper's "dynamically changed subgraphs".
            let mut rng = StdRng::seed_from_u64(seed ^ 0xd17a);
            let mut prev: Vec<EdgeEvent> = Vec::new();
            let (mut applied, mut invalidated) = (0u64, 0u64);
            // ordering: see `drive_clients`.
            while !done.load(Ordering::Relaxed) {
                let added: Vec<EdgeEvent> = (0..8)
                    .map(|_| EdgeEvent {
                        src: VertexId(rng.gen_range(0..n)),
                        dst: VertexId(rng.gen_range(0..n)),
                        etype: CLICK,
                        kind: EvolutionKind::Normal,
                    })
                    .collect();
                let delta =
                    SnapshotDelta { added: added.clone(), removed: std::mem::take(&mut prev) };
                invalidated += service.apply_delta(&delta) as u64;
                prev = added;
                applied += 1;
                std::thread::sleep(Duration::from_millis(delta_every_ms));
            }
            (applied, invalidated)
        },
    );
    let (served, retries, failures) =
        per_client.iter().fold((0, 0, 0), |a, c| (a.0 + c.0, a.1 + c.1, a.2 + c.2));

    let elapsed = start.elapsed();
    let report = service.report(elapsed);
    service.shutdown();

    let mut out = String::new();
    writeln!(
        out,
        "serve-bench: {served} requests served by {workers} workers ({clients} clients) over \
         {} vertices / {} edges in {elapsed:.2?}",
        graph.num_vertices(),
        graph.num_edges(),
    )
    .ok();
    writeln!(
        out,
        "dynamic updates: {applied} deltas applied concurrently, {invalidated} cache entries \
         invalidated, {retries} overload retries, {failures} failures",
    )
    .ok();
    writeln!(out, "{report}").ok();
    if failures > 0 {
        return Err(CliError::Runtime(format!("{failures} requests failed\n\n{out}")));
    }
    Ok(out)
}

/// `aligraph serve-under-update` — drives the streaming dynamic-graph
/// service with seeded mixed read/update traffic: an updater thread feeds
/// power-law-skewed edge/feature batches through the ingest pipeline while
/// client threads gather through epoch-pinned sessions. Verifies session
/// consistency (every gather of a session reports its pinned epoch), runs
/// the bit-exact incremental-vs-rebuild oracle at the end, and fails the
/// run when serve p99 exceeds the `--slo-p99-ms` SLO.
pub fn serve_under_update(args: &Args, registry: &Arc<Registry>) -> Result<String, CliError> {
    use aligraph_streaming::{StreamingConfig, StreamingReport, StreamingService, UpdateWorkload};

    let common = CommonArgs::from_args(args, CommonDefaults { seed: 42, workers: 2, scale: 0.05 })?;
    let requests: u64 = args.num_or("requests", 6_000u64)?;
    let clients: usize = args.num_or("clients", 4usize)?.max(1);
    let seed = common.seed;
    let update_every_ms: u64 = args.num_or("update-every-ms", 2u64)?.max(1);
    let adds: usize = args.num_or("update-adds", 8usize)?;
    let attrs: usize = args.num_or("update-attrs", 2usize)?;
    let dim: usize = args.num_or("dim", 16usize)?.max(1);
    let slo_p99_ms: f64 = args.num_or("slo-p99-ms", 20.0f64)?;
    let config = StreamingConfig {
        shards: common.workers.max(1),
        cache_capacity: args.num_or("cache", 4_096usize)?,
        seed,
        fault: common.fault.clone(),
        ..Default::default()
    };

    let graph = synth_graph(TaobaoConfig::small_sim().scaled(common.scale), seed)?;
    let feats = Arc::new(Featurizer::new(dim).matrix(&graph));
    let n = graph.num_vertices() as u32;
    let service =
        StreamingService::start_with_registry(Arc::clone(&graph), feats, config, registry);

    let start = Instant::now();
    let (per_client, update_failures) = drive_clients(
        requests,
        clients,
        seed,
        |todo, rng| {
            // Gathers whose reported epoch differed from the session's pin.
            let mut violations = 0u64;
            for _ in 0..todo {
                let u = skewed_vertex(rng, n);
                let session = service.session();
                let pinned = session.epoch();
                if session.gather(u).epoch != pinned {
                    violations += 1;
                }
                if rng.gen_bool(0.3) {
                    let v = skewed_vertex(rng, n);
                    if session.gather(v).epoch != pinned {
                        violations += 1;
                    }
                    let _ = session.score(u, v);
                }
            }
            (todo, violations)
        },
        |done| {
            // The same churn shape the serving bench drives deltas with:
            // each round retracts the previous round's additions, plus a
            // few feature rewrites, all skewed toward the hot vertices.
            let mut workload = UpdateWorkload::new(seed ^ 0xd17a, n, dim);
            // ordering: see `drive_clients`.
            while !done.load(Ordering::Relaxed) {
                if service.ingest(&workload.next_batch(adds, attrs)).is_err() {
                    return 1u64;
                }
                std::thread::sleep(Duration::from_millis(update_every_ms));
            }
            0
        },
    );
    let (served, violations) = per_client.iter().fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));

    let elapsed = start.elapsed();
    let report = StreamingReport::from_snapshot(&registry.snapshot(), elapsed);
    let oracle = service.oracle_check();

    let mut out = String::new();
    writeln!(
        out,
        "serve-under-update: {served} requests over {} vertices / {} edges in {elapsed:.2?} \
         ({clients} clients, {} ingest shards)",
        graph.num_vertices(),
        graph.num_edges(),
        common.workers.max(1),
    )
    .ok();
    writeln!(out, "{report}").ok();
    match &oracle {
        Ok(()) => {
            writeln!(out, "oracle: incremental alias/cache state bit-exact vs full rebuild").ok()
        }
        Err(e) => writeln!(out, "oracle: FAILED — {e}").ok(),
    };
    if update_failures > 0 {
        return Err(CliError::Runtime(format!("{update_failures} ingest batches failed\n\n{out}")));
    }
    if violations > 0 {
        return Err(CliError::Runtime(format!(
            "{violations} gathers broke session consistency (epoch != pinned)\n\n{out}"
        )));
    }
    if let Err(e) = oracle {
        return Err(CliError::Runtime(format!("equivalence oracle failed: {e}\n\n{out}")));
    }
    if report.p99_ms > slo_p99_ms {
        return Err(CliError::Runtime(format!(
            "SLO breach: serve p99 {:.3} ms > {slo_p99_ms:.3} ms\n\n{out}",
            report.p99_ms
        )));
    }
    writeln!(out, "SLO: serve p99 {:.3} ms within {slo_p99_ms:.3} ms", report.p99_ms).ok();
    Ok(out)
}

/// The shape of a training scenario: model width, epoch geometry, sampling
/// fanouts, and the neighbor-cache strategy of the clusters it trains on.
/// A command's constant is its defaults; [`with_flags`](Self::with_flags)
/// reads the flags over them.
#[derive(Debug, Clone)]
struct TrainShape {
    dim: usize,
    epochs: usize,
    batches: usize,
    batch: usize,
    negatives: usize,
    staleness: u64,
    sparse_lr: f32,
    fanouts: [usize; 2],
    cache: CacheStrategy,
}

const TRAIN_BENCH_SHAPE: TrainShape = TrainShape {
    dim: 32,
    epochs: 2,
    batches: 12,
    batch: 32,
    negatives: 4,
    staleness: 2,
    sparse_lr: 0.05,
    fanouts: [5, 3],
    cache: CacheStrategy::None,
};

impl TrainShape {
    /// `self` with `--dim`, `--epochs`, `--batches`, `--batch`,
    /// `--negatives`, `--staleness` and `--sparse-lr` read over it.
    fn with_flags(self, args: &Args) -> Result<Self, CliError> {
        Ok(TrainShape {
            dim: args.num_or("dim", self.dim)?.max(1),
            epochs: args.num_or("epochs", self.epochs)?.max(1),
            batches: args.num_or("batches", self.batches)?.max(1),
            batch: args.num_or("batch", self.batch)?.max(1),
            negatives: args.num_or("negatives", self.negatives)?,
            staleness: args.num_or("staleness", self.staleness)?,
            sparse_lr: args.num_or("sparse-lr", self.sparse_lr)?,
            ..self
        })
    }
}

/// The set-up every distributed-training command shares: a synthetic graph,
/// its input features, the bench encoder, and the base runtime config.
/// Commands layer their own plumbing (checkpoints, fault plans, rebalance
/// plans) on a clone of `cfg`.
struct TrainScenario {
    graph: Arc<AttributedHeterogeneousGraph>,
    features: FeatureMatrix,
    spec: EncoderSpec,
    cfg: RuntimeConfig,
    cache: CacheStrategy,
}

impl TrainScenario {
    /// Generates `graph_cfg` under `common.seed` and shapes the bench model
    /// for it: `dims [d, ⌈d/2⌉]`, lr `0.05`, parameter seed `seed ^ 0x5eed`.
    fn new(
        common: &CommonArgs,
        shape: TrainShape,
        graph_cfg: TaobaoConfig,
    ) -> Result<Self, CliError> {
        let dim = shape.dim;
        let cfg = RuntimeConfig {
            workers: common.workers,
            epochs: shape.epochs,
            batches_per_epoch: shape.batches,
            batch_size: shape.batch,
            negatives: shape.negatives,
            staleness: shape.staleness,
            seed: common.seed,
            sparse_lr: shape.sparse_lr,
            ..RuntimeConfig::default()
        };
        let graph = synth_graph(graph_cfg, common.seed)?;
        let features = Featurizer::new(dim).matrix(&graph);
        let spec = EncoderSpec {
            dim_in: dim,
            dims: vec![dim, dim / 2 + dim % 2],
            fanouts: shape.fanouts.to_vec(),
            lr: 0.05,
            seed: common.seed ^ 0x5eed,
        };
        Ok(TrainScenario { graph, features, spec, cfg, cache: shape.cache })
    }

    /// Builds a fresh `cfg.workers`-shard hash-partitioned cluster (tiered
    /// iff `tier` is given) and trains the scenario model on it; cluster and
    /// trainer both publish into `registry`.
    fn run(
        &self,
        cfg: RuntimeConfig,
        registry: &Arc<Registry>,
        tier: Option<TierConfig>,
    ) -> Result<(Cluster, DistOutcome), CliError> {
        let mut builder = Cluster::builder(Arc::clone(&self.graph))
            .partitioner(&EdgeCutHash)
            .shards(cfg.workers)
            .cache(self.cache.clone())
            .max_hop(2)
            .cost_model(CostModel::default())
            .registry(registry);
        if let Some(tier) = tier {
            builder = builder.tier_config(tier);
        }
        let (cluster, _) = builder.build();
        let rt = |e: aligraph_runtime::RuntimeError| CliError::Runtime(e.to_string());
        let outcome = DistTrainer::new(&cluster, &self.features, self.spec.clone(), cfg)
            .map_err(rt)?
            .with_registry(Arc::clone(registry))
            .train()
            .map_err(rt)?;
        Ok((cluster, outcome))
    }
}

/// `aligraph train-bench` — runs the distributed training
/// runtime on a synthetic Taobao graph with N shard-pinned workers, then
/// repeats with 1 worker on the same graph and reports the modelled speedup,
/// staleness histogram and parameter-server traffic by tier. The multi-worker
/// run publishes into `registry` (`storage.*`, `sampling.*`, `runtime.*`);
/// the baseline uses a detached registry so it cannot pollute the snapshot.
pub fn train_bench(args: &Args, registry: &Arc<Registry>) -> Result<String, CliError> {
    use aligraph_chaos::{CrashPoint, FaultConfig};
    use aligraph_runtime::CheckpointConfig;
    use std::path::PathBuf;

    let common = CommonArgs::from_args(args, CommonDefaults { seed: 42, workers: 4, scale: 0.02 })?;
    let workers = common.workers;
    let scale = common.scale;
    let seed = common.seed;
    let shape = TRAIN_BENCH_SHAPE.with_flags(args)?;
    let scenario = TrainScenario::new(&common, shape, TaobaoConfig::small_sim().scaled(scale))?;
    let graph = &scenario.graph;

    let mut run_cfg = scenario.cfg.clone();
    let ckpt_dir = args.get_or("checkpoint-dir", "");
    if !ckpt_dir.is_empty() {
        run_cfg.checkpoint = Some(CheckpointConfig {
            dir: PathBuf::from(ckpt_dir),
            every_steps: args.num_or("checkpoint-every", 0u64)?,
        });
    }
    run_cfg.chaos = common.fault.clone();
    if !args.get_or("kill-worker", "").is_empty() {
        // A kill is one more entry of the chaos plan's crash schedule; with
        // no `--fault-seed` the plan drops nothing and only crashes.
        let chaos = run_cfg.chaos.get_or_insert_with(FaultConfig::default);
        chaos.plan.crash_schedule.push(CrashPoint {
            worker: args.num_or("kill-worker", 0u32)?,
            at_step: args.num_or("kill-at-step", 1u64)?.max(1),
        });
    }

    let resident_budget: u64 = args.num_or("resident-budget", 0u64)?;
    let tier = || (resident_budget > 0).then(|| TierConfig::with_budget(Some(resident_budget)));
    let (_, multi) = scenario.run(run_cfg.clone(), registry, tier())?;
    let baseline_cfg = RuntimeConfig { workers: 1, checkpoint: None, chaos: None, ..run_cfg };
    let (_, baseline) = scenario.run(baseline_cfg, &Arc::new(Registry::disabled()), tier())?;

    let mut out = String::new();
    writeln!(
        out,
        "train-bench: {workers} workers over {} vertices / {} edges (scale {scale}, seed {seed})",
        graph.num_vertices(),
        graph.num_edges(),
    )
    .ok();
    writeln!(out, "{}", multi.report).ok();
    writeln!(
        out,
        "baseline (1 worker): {:.0} edges/s modeled over {} edges",
        baseline.report.modeled_edges_per_sec(),
        baseline.report.edges_total,
    )
    .ok();
    writeln!(
        out,
        "modeled speedup vs 1 worker: {:.2}x",
        multi.report.modeled_edges_per_sec() / baseline.report.modeled_edges_per_sec(),
    )
    .ok();
    Ok(out)
}

/// `aligraph rebalance-bench` — the elastic-membership headline: a
/// distributed training run with a mid-training shard split (and a
/// follow-up merge when `--merge` is set) must converge **bit-exactly** to
/// the same run on a static topology, with or without an armed chaos plane
/// on the migration channel. Prints both trajectories' agreement, the
/// migration traffic, and the modeled throughput; exits with an error if a
/// single mantissa bit diverged.
pub fn rebalance_bench(args: &Args, registry: &Arc<Registry>) -> Result<String, CliError> {
    use aligraph_runtime::RebalancePlan;
    use aligraph_storage::RebalanceOp;

    let common = CommonArgs::from_args(args, CommonDefaults { seed: 42, workers: 4, scale: 0.02 })?;
    let workers = common.workers;
    let scale = common.scale;
    let seed = common.seed;
    let shape = TrainShape { epochs: 3, ..TRAIN_BENCH_SHAPE }.with_flags(args)?;
    let scenario = TrainScenario::new(&common, shape, TaobaoConfig::small_sim().scaled(scale))?;
    let graph = &scenario.graph;
    // A split needs an epoch on either side of it.
    let epochs = scenario.cfg.epochs.max(2);
    let split_after = args.num_or("split-after", 1usize)?.clamp(1, epochs - 1);
    let merge = args.num_or("merge", 0u64)? != 0;

    let run_cfg = RuntimeConfig { epochs, chaos: common.fault.clone(), ..scenario.cfg.clone() };
    let mut plans = vec![RebalancePlan {
        after_epoch: split_after,
        op: RebalanceOp::Split { shard: 0 },
        mode: Default::default(),
    }];
    if merge && split_after + 1 < epochs {
        plans.push(RebalancePlan {
            after_epoch: split_after + 1,
            op: RebalanceOp::Merge { from: workers as u32, into: 0 },
            mode: Default::default(),
        });
    }

    let elastic_cfg = RuntimeConfig { rebalance: plans.clone(), ..run_cfg.clone() };
    let (cluster, elastic) = scenario.run(elastic_cfg, registry, None)?;
    let m = cluster.migration_meter().snapshot();
    let migrated = m.local_bytes + m.cached_bytes + m.remote_bytes;
    let (_, static_run) = scenario.run(run_cfg, &Arc::new(Registry::disabled()), None)?;

    let losses_match = elastic.report.epoch_losses.iter().map(|x| x.to_bits()).eq(static_run
        .report
        .epoch_losses
        .iter()
        .map(|x| x.to_bits()));
    let params_match = elastic.encoder.dense_param_vec().iter().map(|x| x.to_bits()).eq(static_run
        .encoder
        .dense_param_vec()
        .iter()
        .map(|x| x.to_bits()));

    let mut out = String::new();
    writeln!(
        out,
        "rebalance-bench: {workers} workers over {} vertices / {} edges (scale {scale}, seed \
         {seed})",
        graph.num_vertices(),
        graph.num_edges(),
    )
    .ok();
    writeln!(
        out,
        "topology plan: split shard 0 after epoch {split_after}{}",
        if plans.len() > 1 {
            format!(", merge it back after epoch {}", split_after + 1)
        } else {
            String::new()
        }
    )
    .ok();
    writeln!(out, "{}", elastic.report).ok();
    writeln!(out, "rebalances applied {}  migration bytes {migrated}", elastic.report.rebalances)
        .ok();
    writeln!(
        out,
        "vs static topology: losses {}  dense params {}",
        if losses_match { "bit-exact" } else { "DIVERGED" },
        if params_match { "bit-exact" } else { "DIVERGED" },
    )
    .ok();
    if !(losses_match && params_match) {
        return Err(CliError::Runtime(format!(
            "elastic run diverged from the static-topology run\n{out}"
        )));
    }
    Ok(out)
}

/// `aligraph tiered-bench` — the out-of-core scale curve. At graph sizes S/4, S/2 and S
/// (S in hundredths of `TaobaoConfig::large_sim()`, so `--scale 100` is the
/// full taobao-large graph) it builds the tiered cluster twice per point:
/// once all-hot (infinite budget, detached registry) as the oracle, once
/// under the resident byte cap. Hard gates, each of which fails the run:
/// the tight run's peak resident bytes must stay within the budget, its
/// model fingerprint (epoch losses + dense parameters + trained features)
/// must be bit-identical to the all-hot oracle's, the oracle must never
/// read cold, and a tight run whose budget is genuinely below the all-hot
/// footprint must actually serve training reads from the cold tier. Each
/// point's line reports the tight run's cold reads and, per training step,
/// cold reads and cold (encoded) bytes decoded. The largest point's tight
/// run publishes into `registry` (`tier.*`, `storage.*`, `sampling.*`,
/// `runtime.*`).
///
/// `--resident-budget` caps the top point and scales linearly down the
/// curve; when omitted every point gets 10% of its own all-hot footprint.
pub fn tiered_bench(args: &Args, registry: &Arc<Registry>) -> Result<String, CliError> {
    let common = CommonArgs::from_args(args, CommonDefaults { seed: 42, workers: 4, scale: 10.0 })?;
    let workers = common.workers;
    let seed = common.seed;
    let budget_arg: u64 = args.num_or("resident-budget", 0u64)?;
    let mut shape = TrainShape {
        dim: 16,
        batches: 6,
        batch: 16,
        negatives: 2,
        staleness: 0,
        ..TRAIN_BENCH_SHAPE
    }
    .with_flags(args)?;
    shape.dim = shape.dim.max(2);

    let top = common.scale.max(0.04);
    let points = [top / 4.0, top / 2.0, top];

    let mut out = String::new();
    writeln!(
        out,
        "tiered-bench: scale curve [{:.2}, {:.2}, {:.2}] (hundredths of taobao-large), \
         {workers} workers, seed {seed}",
        points[0], points[1], points[2],
    )
    .ok();

    for (i, &point) in points.iter().enumerate() {
        let scenario = TrainScenario::new(
            &common,
            shape.clone(),
            TaobaoConfig::large_sim().scaled(point / 100.0),
        )?;
        let graph = &scenario.graph;

        // All-hot oracle: an unbounded budget keeps every row hot from build
        // on, so its resident footprint is what the byte cap is a fraction of.
        let (oracle_cluster, oracle) = scenario.run(
            scenario.cfg.clone(),
            &Arc::new(Registry::disabled()),
            Some(TierConfig::with_budget(None)),
        )?;
        let all_hot =
            oracle_cluster.tier().expect("tiered build always has a tier").resident_bytes();

        let budget = if budget_arg > 0 {
            ((budget_arg as f64 * point / top) as u64).max(1)
        } else {
            (all_hot / 10).max(1)
        };
        // Only the largest point publishes; the others count into a
        // registry of their own, read below for the cold bytes.
        let reg =
            if i == points.len() - 1 { Arc::clone(registry) } else { Arc::new(Registry::new()) };
        let (cluster, tight) = scenario.run(
            scenario.cfg.clone(),
            &reg,
            Some(TierConfig::with_budget(Some(budget))),
        )?;
        let tier = cluster.tier().expect("tiered build always has a tier");

        let peak = tier.peak_resident_bytes();
        let fp_oracle = oracle.fingerprint();
        let fp_tight = tight.fingerprint();
        // What a cold read costs is the bytes it decodes, not that it
        // happened: report both, per training step.
        let steps = (scenario.cfg.workers * scenario.cfg.epochs * scenario.cfg.batches_per_epoch)
            .max(1) as u64;
        let cold_bytes = reg.snapshot().counter("tier.io.bytes", &[("tier", "cold")]);
        writeln!(
            out,
            "  point {point:>6.2}: {} vertices / {} edges  all-hot {all_hot} B  budget \
             {budget} B  peak {peak} B  cold training reads {} ({}/step, {} B/step)  \
             fingerprint {fp_tight:016x} ({})",
            graph.num_vertices(),
            graph.num_edges(),
            tight.report.adjacency.cold,
            tight.report.adjacency.cold / steps,
            cold_bytes / steps,
            if fp_tight == fp_oracle { "bit-exact vs all-hot" } else { "DIVERGED" },
        )
        .ok();

        if peak > budget {
            return Err(CliError::Runtime(format!(
                "budget burst at point {point:.2}: peak resident {peak} B > budget {budget} B\n{out}"
            )));
        }
        if fp_tight != fp_oracle {
            return Err(CliError::Runtime(format!(
                "tight-budget model diverged from the all-hot oracle at point {point:.2}\n{out}"
            )));
        }
        if oracle.report.adjacency.cold != 0 {
            return Err(CliError::Runtime(format!(
                "all-hot oracle read the cold tier at point {point:.2}\n{out}"
            )));
        }
        if budget < all_hot && tight.report.adjacency.cold == 0 {
            return Err(CliError::Runtime(format!(
                "vacuous point {point:.2}: budget {budget} B is below the all-hot footprint \
                 {all_hot} B yet training never read cold\n{out}"
            )));
        }
    }
    writeln!(
        out,
        "scale curve complete: every tight-budget run stayed within its byte cap and matched \
         the all-hot oracle bit-for-bit"
    )
    .ok();
    Ok(out)
}

/// `aligraph metrics-demo` — exercises every instrumented layer against
/// one registry (a short distributed training run for `storage.*` /
/// `sampling.*` / `runtime.*`, then a burst of serving requests for
/// `serving.*`) and prints the unified telemetry table. Combine with
/// `--metrics-json PATH` for the machine-readable form.
pub fn metrics_demo(args: &Args, registry: &Arc<Registry>) -> Result<String, CliError> {
    use aligraph_sampling::WeightedNeighborhood;
    use aligraph_serving::{ServingConfig, ServingService};

    let common =
        CommonArgs::from_args(args, CommonDefaults { seed: 42, workers: 2, scale: 0.004 })?;

    // Storage + sampling + runtime: a short distributed-training run with an
    // LRU neighbor cache so cache events show up too. The shape is fixed: the
    // demo reads no training flag.
    let shape = TrainShape {
        dim: 8,
        epochs: 1,
        batches: 4,
        batch: 8,
        negatives: 2,
        staleness: 1,
        fanouts: [4, 2],
        cache: CacheStrategy::Lru { fraction: 0.1 },
        ..TRAIN_BENCH_SHAPE
    };
    let scenario =
        TrainScenario::new(&common, shape, TaobaoConfig::small_sim().scaled(common.scale))?;
    scenario.run(scenario.cfg.clone(), registry, None)?;
    let graph = &scenario.graph;

    // Serving: a burst of embedding requests against the same graph.
    let service = ServingService::start_with_registry(
        Arc::clone(graph),
        WeightedNeighborhood,
        ServingConfig { workers: common.workers, seed: common.seed, ..Default::default() },
        registry,
    );
    let n = graph.num_vertices() as u32;
    for i in 0..32u32 {
        service.embedding(VertexId(i % n)).map_err(|e| CliError::Runtime(e.to_string()))?;
    }
    service.shutdown();

    let snapshot = registry.snapshot();
    let mut out = String::new();
    writeln!(
        out,
        "metrics-demo: one registry across storage, sampling, runtime, and serving \
         ({} series; workers {}, scale {}, seed {})",
        snapshot.series.len(),
        common.workers,
        common.scale,
        common.seed,
    )
    .ok();
    writeln!(out, "{}", snapshot.render_text()).ok();
    Ok(out)
}

/// `aligraph closed-loop` — the end-to-end production loop: seeded traffic
/// served from streaming epoch views, logged to the bounded data hub,
/// compacted into graph updates, incrementally trained from checkpoint
/// warm-starts, and atomically hot-swapped into the serving model store.
/// Fails on a hot-swap atomicity violation or (with
/// `--slo-freshness-ticks N`) a freshness p99 beyond the SLO.
pub fn closed_loop(args: &Args, registry: &Arc<Registry>) -> Result<String, CliError> {
    use aligraph_loopsim::{run_loop, LoopConfig, LoopError};
    use std::path::PathBuf;

    let common = CommonArgs::from_args(args, CommonDefaults { seed: 42, workers: 2, scale: 0.02 })?;
    let cycles: usize = args.num_or("cycles", 4usize)?.max(1);
    let users: usize = args.num_or("users", 8usize)?.max(1);
    let interactions: usize = args.num_or("interactions", 6usize)?.max(1);
    let dim: usize = args.num_or("dim", 16usize)?.max(2);
    let hub_capacity: usize = args.num_or("hub-capacity", 256usize)?.max(1);
    let drift_rate: f64 = args.num_or("drift-rate", 0.15f64)?;
    let batches: usize = args.num_or("batches", 6usize)?.max(1);
    let batch: usize = args.num_or("batch", 16usize)?.max(1);
    let staleness: u64 = args.num_or("staleness", 1u64)?;
    // 0 disables the gate.
    let slo_freshness: u64 = args.num_or("slo-freshness-ticks", 0u64)?;
    let checkpoint_dir = match args.get_or("checkpoint-dir", "") {
        "" => std::env::temp_dir().join(format!("aligraph-closed-loop-{}", std::process::id())),
        p => PathBuf::from(p),
    };

    let cfg = LoopConfig {
        cycles,
        users,
        interactions_per_user: interactions,
        seed: common.seed,
        scale: common.scale,
        dim,
        workers: common.workers.max(1),
        hub_capacity,
        drift_rate,
        batches_per_epoch: batches,
        batch_size: batch,
        staleness,
        checkpoint_dir,
        fault: common.fault.clone(),
    };

    let outcome = run_loop(&cfg, registry).map_err(|e| match e {
        LoopError::Atomicity { version } => CliError::Runtime(format!(
            "hot-swap atomicity violated: pinned model version {version} failed verify"
        )),
        other => CliError::Runtime(other.to_string()),
    })?;

    let mut out = String::new();
    writeln!(
        out,
        "closed-loop: {cycles} cycles x {users} sessions x {interactions} interactions \
         (seed {}, {} workers, scale {})",
        common.seed,
        common.workers.max(1),
        common.scale,
    )
    .ok();
    writeln!(
        out,
        "final model: version {}  fingerprint {:016x}",
        outcome.final_version, outcome.fingerprint
    )
    .ok();
    writeln!(out, "{}", outcome.report).ok();
    if slo_freshness > 0 {
        let p99 = outcome.report.freshness_p99_ticks;
        if p99 > slo_freshness {
            return Err(CliError::Runtime(format!(
                "freshness SLO violated: p99 {p99} ticks > {slo_freshness} ticks\n{out}"
            )));
        }
        writeln!(out, "SLO: freshness p99 {p99} ticks <= {slo_freshness} ticks — OK").ok();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("aligraph-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_stats_partition_roundtrip() {
        let path = tmp("toy.tsv");
        let msg =
            generate(&args(&["generate", "--kind", "taobao", "--scale", "0.002", "--out", &path]))
                .unwrap();
        assert!(msg.contains("wrote"));

        let s = stats(&args(&["stats", "--graph", &path])).unwrap();
        assert!(s.contains("vertices:"));
        assert!(s.contains("edge types:      4"));

        let p =
            partition(&args(&["partition", "--graph", &path, "--workers", "4", "--algo", "ldg"]))
                .unwrap();
        assert!(p.contains("streaming-ldg"), "{p}");
        assert!(p.contains("edge-cut"));
    }

    #[test]
    fn train_writes_embeddings_and_eval_reports() {
        let path = tmp("toy2.tsv");
        generate(&args(&["generate", "--kind", "amazon", "--scale", "0.02", "--out", &path]))
            .unwrap();
        let emb = tmp("emb.tsv");
        let msg = train(&args(&[
            "train", "--graph", &path, "--model", "deepwalk", "--dim", "16", "--out", &emb,
        ]))
        .unwrap();
        assert!(msg.contains("deepwalk"));
        let content = std::fs::read_to_string(&emb).unwrap();
        let first = content.lines().next().unwrap();
        assert_eq!(first.split('\t').count(), 17); // id + 16 dims

        let e =
            eval(&args(&["eval", "--graph", &path, "--model", "deepwalk", "--dim", "16"])).unwrap();
        assert!(e.contains("ROC-AUC"), "{e}");
    }

    fn registry() -> std::sync::Arc<aligraph_telemetry::Registry> {
        std::sync::Arc::new(aligraph_telemetry::Registry::new())
    }

    #[test]
    fn serve_bench_reports_latency_and_cache_evidence() {
        let out = serve_bench(
            &args(&[
                "serve-bench",
                "--requests",
                "400",
                "--clients",
                "2",
                "--workers",
                "2",
                "--scale",
                "0.003",
                "--delta-every-ms",
                "1",
            ]),
            &registry(),
        )
        .unwrap();
        assert!(out.contains("400 requests served"), "{out}");
        assert!(out.contains("p50"), "{out}");
        assert!(out.contains("req/s"), "{out}");
        assert!(out.contains("embedding cache: hit rate"), "{out}");
        assert!(out.contains("deltas applied"), "{out}");
        assert!(out.contains("0 failures"), "{out}");
    }

    #[test]
    fn serve_under_update_holds_the_slo_and_oracle() {
        let out = serve_under_update(
            &args(&[
                "serve-under-update",
                "--requests",
                "300",
                "--clients",
                "2",
                "--workers",
                "2",
                "--scale",
                "0.003",
                "--update-every-ms",
                "1",
                "--slo-p99-ms",
                "2000",
            ]),
            &registry(),
        )
        .unwrap();
        assert!(out.contains("serve-under-update: 300 requests"), "{out}");
        assert!(out.contains("epoch"), "{out}");
        assert!(out.contains("bit-exact vs full rebuild"), "{out}");
        assert!(out.contains("SLO: serve p99"), "{out}");
    }

    #[test]
    fn train_bench_reports_speedup_and_comm_tiers() {
        let reg = registry();
        let out = train_bench(
            &args(&[
                "train-bench",
                "--workers",
                "2",
                "--scale",
                "0.005",
                "--epochs",
                "1",
                "--batches",
                "4",
                "--batch",
                "8",
                "--staleness",
                "1",
                "--dim",
                "8",
            ]),
            &reg,
        )
        .unwrap();
        assert!(out.contains("train-bench: 2 workers"), "{out}");
        assert!(out.contains("staleness hist ["), "{out}");
        assert!(out.contains("ps comm: local"), "{out}");
        assert!(out.contains("modeled speedup vs 1 worker:"), "{out}");
        // One registry carries storage, sampling, and runtime series at once.
        let snap = reg.snapshot();
        assert!(snap.has_prefix("storage."), "storage series missing");
        assert!(snap.has_prefix("sampling."), "sampling series missing");
        assert!(snap.has_prefix("runtime.ps."), "runtime series missing");
        assert!(snap.histogram("runtime.staleness", &[]).count > 0);
    }

    #[test]
    fn train_bench_kill_is_one_metered_chaos_crash() {
        // The `train-bench-kill` smoke row: 8 global steps, so step 5 is
        // inside epoch 2 and the restore comes from the epoch-1 checkpoint.
        let dir = tmp("train-bench-kill-ckpts");
        let _ = std::fs::remove_dir_all(&dir);
        let line = format!(
            "train-bench --workers 2 --epochs 2 --scale 0.005 --batches 4 --batch 8 --dim 8 \
             --checkpoint-dir {dir} --kill-worker 1 --kill-at-step 5"
        );
        let reg = registry();
        let out = train_bench(&args(&line.split(' ').collect::<Vec<_>>()), &reg).unwrap();
        assert!(out.contains("recoveries 1  faults 1"), "{out}");
        assert_eq!(reg.snapshot().counter("chaos.faults_injected", &[("kind", "crash")]), 1);
    }

    #[test]
    fn rebalance_bench_merge_flag_is_a_number() {
        // The `rebalance-bench` smoke row's topology over short epochs;
        // `--merge 0` is off.
        let run = |merge: &str| {
            let line = format!(
                "rebalance-bench --workers 4 --epochs 3 --scale 0.01 --batches 2 --batch 8 \
                 --dim 8 --merge {merge}"
            );
            rebalance_bench(&args(&line.split(' ').collect::<Vec<_>>()), &registry())
        };
        assert!(!run("0").unwrap().contains("merge it back"));
        let merged = run("1").unwrap();
        assert!(merged.contains("merge it back after epoch 2"), "{merged}");
        assert!(merged.contains("rebalances applied 2"), "{merged}");
        assert!(matches!(run("yes"), Err(CliError::Usage(_))));
    }

    #[test]
    fn tiered_bench_holds_budget_and_matches_oracle() {
        let reg = registry();
        let out = tiered_bench(
            &args(&[
                "tiered-bench",
                "--scale",
                "1",
                "--workers",
                "2",
                "--epochs",
                "1",
                "--batches",
                "3",
                "--batch",
                "8",
                "--dim",
                "8",
            ]),
            &reg,
        )
        .unwrap();
        assert!(out.contains("tiered-bench: scale curve"), "{out}");
        assert_eq!(out.matches("bit-exact vs all-hot").count(), 3, "{out}");
        assert!(out.contains("scale curve complete"), "{out}");
        // The largest point's tight run published cold-tier series.
        let snap = reg.snapshot();
        assert!(snap.has_prefix("tier."), "tier series missing");
        assert!(snap.gauge("tier.resident_bytes", &[]) > 0);
        assert!(
            snap.counter("tier.reads", &[("src", "cold")])
                + snap.counter("tier.reads", &[("src", "prefetch")])
                > 0,
            "no cold-tier reads recorded"
        );
    }

    #[test]
    fn metrics_demo_prints_all_four_layers() {
        let reg = registry();
        let out = metrics_demo(&args(&["metrics-demo", "--workers", "2"]), &reg).unwrap();
        for prefix in ["storage.access", "sampling.draws", "runtime.ps.ops", "serving.requests"] {
            assert!(out.contains(prefix), "table missing {prefix}:\n{out}");
        }
        assert!(reg.snapshot().counter("serving.completed", &[]) >= 32);
    }

    #[test]
    fn unknown_options_error_cleanly() {
        let path = tmp("toy3.tsv");
        generate(&args(&["generate", "--kind", "ba", "--scale", "0.002", "--out", &path])).unwrap();
        assert!(matches!(
            partition(&args(&["partition", "--graph", &path, "--algo", "nope"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            train(&args(&["train", "--graph", &path, "--model", "nope", "--out", "x"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            load(&args(&["stats", "--graph", "/definitely/missing"])),
            Err(CliError::Runtime(_))
        ));
    }
}
