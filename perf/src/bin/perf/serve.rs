//! `serve_busy`: the online serving service under two closed-loop clients,
//! one of which also applies graph deltas.
//!
//! Reads cross admission -> queue -> worker -> cache or k-hop forward;
//! writes cross the copy-on-write overlay and the reverse-BFS invalidation
//! of the same cache, so a read gain bought with a slower invalidation
//! shows. `max_batch` is 1: batches above one need more requests in flight
//! than the box has cores, and a deadline wait (README.md, "Unmeasured").

use crate::bench::{LayerCtx, Round, Workload};
use crate::cal::{median, percentile, Calibrator};
use crate::report::Outcome;
use crate::trace::{self, self_times, span, total_s, SpanRec};
use aligraph::{EpisodeTape, GnnEncoder};
use aligraph_graph::dynamic::{EdgeEvent, EvolutionKind, SnapshotDelta};
use aligraph_graph::ids::well_known::CLICK;
use aligraph_graph::{AttributedHeterogeneousGraph, Featurizer, TaobaoConfig, VertexId};
use aligraph_partition::{EdgeCutHash, Partitioner};
use aligraph_sampling::WeightedNeighborhood;
use aligraph_serving::{affected_seeds, ServeError, ServingConfig, ServingService};
use aligraph_telemetry::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Requests each client issues per round.
const REQUESTS: usize = 2_000;
/// Client 0 applies one delta after every this many of its own reads.
const DELTA_EVERY: usize = 200;
/// Consecutive requests of one client timed as one slice (3-4 ms). A
/// round's throughput is that of its median slice: on this box a thread
/// that blocks is now and then woken milliseconds late, for whole runs at a
/// time, which halves requests over wall time and moves no other metric
/// (README.md, "Why slices").
const SLICE: usize = 50;
/// Edges added per delta; the previous delta's additions are retracted.
const DELTA_EDGES: usize = 8;
/// Share of requests that are `score` (two embeddings) instead of
/// `embedding`.
const SCORE_SHARE: f64 = 0.2;
/// About half the vertices: under cubed-uniform popularity and the delta
/// rate above, an LRU this size answers about 0.6 of the lookups.
const CACHE_CAPACITY: usize = 24_000;

/// Fewer vertices and more edges than `small_sim()`, like the training
/// graph: the cache reaches its steady hit share within the warm-up round
/// and set-up still takes about a second.
fn graph_config(seed: u64) -> TaobaoConfig {
    TaobaoConfig {
        users: 40_000,
        items: 9_000,
        ui_edges: 1_800_000,
        ii_edges: 900_000,
        seed,
        ..TaobaoConfig::small_sim()
    }
}

fn serving_config(seed: u64) -> ServingConfig {
    ServingConfig {
        workers: WORKERS,
        max_batch: 1,
        queue_capacity: 64,
        cache_capacity: CACHE_CAPACITY,
        seed,
        ..ServingConfig::default()
    }
}

/// Cubed-uniform popularity: traffic skews toward low vertex ids.
fn popular(rng: &mut StdRng, n: u32) -> VertexId {
    let r: f64 = rng.gen();
    VertexId(((n as f64 * r * r * r) as u32).min(n - 1))
}

fn random_delta(rng: &mut StdRng, n: u32, previous: &mut Vec<EdgeEvent>) -> SnapshotDelta {
    let added: Vec<EdgeEvent> = (0..DELTA_EDGES)
        .map(|_| EdgeEvent {
            src: VertexId(rng.gen_range(0..n)),
            dst: VertexId(rng.gen_range(0..n)),
            etype: CLICK,
            kind: EvolutionKind::Normal,
        })
        .collect();
    SnapshotDelta { added: added.clone(), removed: std::mem::replace(previous, added) }
}

struct Client {
    rng: StdRng,
    /// The additions of the last delta this client applied.
    previous_delta: Vec<EdgeEvent>,
    next_request_id: u64,
}

#[derive(Default)]
struct ClientRound {
    reads_s: Vec<f64>,
    /// Wall seconds of every [`SLICE`] requests, deltas among them included.
    slices_s: Vec<f64>,
    updates_s: Vec<f64>,
    completed: u64,
    refused: u64,
    deltas: u64,
    invalidated: u64,
    failures: Vec<String>,
    spans: Vec<SpanRec>,
}

/// Cache and forward counters of one round.
#[derive(Debug, Clone, Copy, Default)]
struct RoundCounts {
    hits: u64,
    misses: u64,
    forwards: u64,
    requests: u64,
    deltas: u64,
    invalidated: u64,
}

/// The serving workload, built.
pub struct Serve {
    seed: u64,
    graph: Arc<AttributedHeterogeneousGraph>,
    service: ServingService<WeightedNeighborhood>,
    clients: Vec<Client>,
    deltas_applied: u64,
    /// One entry per round, the warm-up round first.
    counts: Vec<RoundCounts>,
    thread_spans: Vec<SpanRec>,
}

impl std::fmt::Debug for Serve {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Serve").field("seed", &self.seed).finish_non_exhaustive()
    }
}

fn run_client(
    index: usize,
    client: &mut Client,
    service: &ServingService<WeightedNeighborhood>,
    n: u32,
    trace_epoch: Option<Instant>,
) -> ClientRound {
    if let Some(epoch) = trace_epoch {
        trace::start(epoch);
    }
    let width = service.config().dims.last().copied().unwrap_or(0);
    let mut out = ClientRound::default();
    let mut slice_start = Instant::now();
    for i in 0..REQUESTS {
        trace::set_id(client.next_request_id);
        client.next_request_id += 1;
        let u = popular(&mut client.rng, n);
        let score_with = client.rng.gen_bool(SCORE_SHARE).then(|| popular(&mut client.rng, n));
        let start = Instant::now();
        let request = span("serving.request");
        let reply = match score_with {
            Some(v) => service.score(u, v).map(|_| None),
            None => service.embedding(u).map(Some),
        };
        drop(request);
        out.reads_s.push(start.elapsed().as_secs_f64());
        match reply {
            Ok(Some(e)) => {
                out.completed += 1;
                let norm = e.iter().map(|x| x * x).sum::<f32>().sqrt();
                if e.len() != width || (norm - 1.0).abs() > 1e-3 {
                    out.failures.push(format!(
                        "embedding of {u:?} has width {} and norm {norm}, want {width} and 1",
                        e.len()
                    ));
                }
            }
            Ok(None) => out.completed += 1,
            Err(ServeError::Overloaded { .. }) => out.refused += 1,
            Err(e) => {
                out.refused += 1;
                out.failures.push(format!("request for {u:?} failed: {e}"));
            }
        }
        if index == 0 && (i + 1) % DELTA_EVERY == 0 {
            let delta = random_delta(&mut client.rng, n, &mut client.previous_delta);
            let start = Instant::now();
            let apply = span("serving.apply_delta");
            out.invalidated += service.apply_delta(&delta) as u64;
            drop(apply);
            out.updates_s.push(start.elapsed().as_secs_f64());
            out.deltas += 1;
        }
        if (i + 1) % SLICE == 0 {
            let now = Instant::now();
            out.slices_s.push((now - slice_start).as_secs_f64());
            slice_start = now;
        }
    }
    out.spans = trace::finish();
    out
}

impl Workload for Serve {
    const TRACED_ROUNDS: usize = 4;
    const ROUNDS_PER_SECOND: f64 = 3.3;

    fn setup(seed: u64, registry: &Arc<Registry>) -> Self {
        let graph = {
            let _s = span("graph.generate");
            Arc::new(graph_config(seed).generate().expect("valid generator config"))
        };
        let service = {
            let _s = span("serving.start");
            ServingService::start_with_registry(
                Arc::clone(&graph),
                WeightedNeighborhood,
                serving_config(seed),
                registry,
            )
        };
        let clients = (0..CLIENTS)
            .map(|c| Client {
                rng: StdRng::seed_from_u64(seed ^ (c as u64 + 1).wrapping_mul(7919)),
                previous_delta: Vec::new(),
                next_request_id: (c as u64) << 40,
            })
            .collect();
        Serve {
            seed,
            graph,
            service,
            clients,
            deltas_applied: 0,
            counts: Vec::new(),
            thread_spans: Vec::new(),
        }
    }

    fn round(&mut self, out: &mut Outcome) -> Round {
        let n = self.graph.num_vertices() as u32;
        let trace_epoch = trace::epoch();
        let cache_before = self.service.cache_stats();
        let forwards_before = self.service.forwards_so_far();
        let service = &self.service;
        let results: Vec<ClientRound> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || run_client(c, client, service, n, trace_epoch))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });

        let cache = self.service.cache_stats();
        let mut round = Round::default();
        let mut slices_s = Vec::new();
        let mut counts = RoundCounts {
            hits: cache.hits - cache_before.hits,
            misses: cache.misses - cache_before.misses,
            forwards: self.service.forwards_so_far() - forwards_before,
            ..RoundCounts::default()
        };
        for mut r in results {
            round.ops += r.completed;
            round.failed += r.refused;
            round.reads_s.append(&mut r.reads_s);
            round.updates_s.append(&mut r.updates_s);
            slices_s.append(&mut r.slices_s);
            counts.requests += r.completed + r.refused;
            counts.deltas += r.deltas;
            counts.invalidated += r.invalidated;
            out.check_failures.append(&mut r.failures);
            trace::merge(&mut self.thread_spans, r.spans);
        }
        // The clients run side by side, each at `SLICE` requests per slice.
        round.ops_s =
            (round.ops + round.failed) as f64 * median(&slices_s) / (SLICE * CLIENTS) as f64;
        self.deltas_applied += counts.deltas;
        self.counts.push(counts);
        let version = self.service.graph_version();
        out.check(version == self.deltas_applied, || {
            format!("graph_version {version} after {} deltas", self.deltas_applied)
        });
        round
    }

    fn warm_up(&mut self, out: &mut Outcome) {
        // Popularity falls with the vertex id, so the cache's steady state is
        // close to "the first CACHE_CAPACITY ids". Filling it through traffic
        // alone takes a dozen rounds, during which every round is faster than
        // the one before.
        for v in (0..CACHE_CAPACITY as u32).rev() {
            if let Err(e) = self.service.embedding(VertexId(v)) {
                out.check(false, || format!("warm-up request for vertex {v} failed: {e}"));
            }
        }
        self.round(out);
    }

    fn take_thread_spans(&mut self) -> Vec<SpanRec> {
        std::mem::take(&mut self.thread_spans)
    }

    fn layers(&mut self, ctx: &LayerCtx<'_>, out: &mut Outcome) {
        let cfg = self.service.config().clone();
        let setup = self_times(ctx.setup_spans);
        out.metrics.put("graph.generate_s", total_s(&setup, "graph.generate"));
        let mut cal = Calibrator::new(ctx.cal_ref_ns);
        // The service featurises and partitions inside `start`; the same two
        // calls, timed on their own.
        let (features, t) = cal.time(|| Featurizer::new(cfg.feature_dim).matrix(&self.graph));
        out.metrics.put("graph.featurize_s", t.cal_s());
        let (_, t) = cal.time(|| black_box(EdgeCutHash.partition(&self.graph, cfg.workers)));
        out.metrics.put("partition.edge_cut_s", t.cal_s());

        // Counts over the measured rounds (the first entry is the warm-up).
        let measured = &self.counts[1.min(self.counts.len())..];
        let sum = |f: fn(&RoundCounts) -> u64| measured.iter().map(f).sum::<u64>() as f64;
        let lookups = (sum(|c| c.hits) + sum(|c| c.misses)).max(1.0);
        out.metrics.put("serving.cache_hit_share", sum(|c| c.hits) / lookups);
        out.metrics.put(
            "serving.forwards_per_request",
            sum(|c| c.forwards) / sum(|c| c.requests).max(1.0),
        );
        out.metrics.put(
            "serving.invalidated_per_delta",
            sum(|c| c.invalidated) / sum(|c| c.deltas).max(1.0),
        );
        out.metrics.put("serving.rejected_share", out.failed as f64 / out.attempted.max(1) as f64);
        out.metrics.put("serving.request_p99_ms", percentile(&ctx.plain.reads_cal, 0.99) * 1e3);
        out.metrics.put("serving.request_samples", ctx.plain.reads_cal.len() as f64);

        // Probes on a quiet service: one harness thread, no deltas.
        const PROBES: usize = 2_000;
        let n = self.graph.num_vertices() as u32;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9a0be);
        let seeds: Vec<VertexId> = (0..PROBES).map(|_| popular(&mut rng, n)).collect();

        // A request repeated at once is a cache hit: its client-side latency
        // is queue, channels and wake-ups, nothing else.
        let mut handoff = Vec::with_capacity(PROBES);
        let ((), t) = cal.time(|| {
            for &v in &seeds {
                let _ = self.service.embedding(v);
                let start = Instant::now();
                let _ = black_box(self.service.embedding(v));
                handoff.push(start.elapsed().as_secs_f64());
            }
        });
        out.metrics.put("serving.handoff_us", median(&handoff) * t.factor * 1e6);

        // The same seeds through the encoder the workers run, on the
        // current overlay, without the service around it.
        let encoder = GnnEncoder::sage(cfg.feature_dim, &cfg.dims, &cfg.fanouts, 0.01, cfg.seed);
        let overlay = self.service.overlay_snapshot();
        let mut tape = EpisodeTape::new();
        let mut forward = Vec::with_capacity(PROBES);
        let ((), t) = cal.time(|| {
            for &v in &seeds {
                tape.clear();
                let start = Instant::now();
                black_box(encoder.forward(
                    &*overlay,
                    &features,
                    &WeightedNeighborhood,
                    v,
                    &mut tape,
                    &mut rng,
                ));
                forward.push(start.elapsed().as_secs_f64());
            }
        });
        out.metrics.put("serving.forward_us", median(&forward) * t.factor * 1e6);

        // The two halves of `apply_delta` on a snapshot, cache untouched.
        let mut previous = Vec::new();
        let deltas: Vec<SnapshotDelta> =
            (0..200).map(|_| random_delta(&mut rng, n, &mut previous)).collect();
        let (mut apply, mut affected) = (Vec::new(), Vec::new());
        let ((), t) = cal.time(|| {
            let mut pre = Arc::clone(&overlay);
            for delta in &deltas {
                let start = Instant::now();
                let post = Arc::new(pre.apply(delta));
                apply.push(start.elapsed().as_secs_f64());
                let start = Instant::now();
                black_box(affected_seeds(&pre, &post, delta, cfg.fanouts.len()));
                affected.push(start.elapsed().as_secs_f64());
                pre = post;
            }
        });
        out.metrics.put("serving.overlay_apply_us", median(&apply) * t.factor * 1e6);
        out.metrics.put("serving.affected_seeds_us", median(&affected) * t.factor * 1e6);
    }

    fn finish(self, out: &mut Outcome) {
        let version = self.service.graph_version();
        out.check(version == self.deltas_applied, || {
            format!("graph_version {version} at exit after {} deltas", self.deltas_applied)
        });
        self.teardown();
    }

    fn teardown(self) {
        self.service.shutdown();
    }
}
