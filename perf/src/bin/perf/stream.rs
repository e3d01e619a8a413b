//! `stream_mixed`: the streaming dynamic-graph service under one harness
//! thread that alternates one update batch with sixteen epoch-pinned read
//! sessions: about one update event per 25 gathers, the write-heavy
//! counterpart of `serve_busy`. One client makes every count (cache hits,
//! invalidations, alias repairs, epochs) a pure function of the seed and
//! the number of rounds.

use crate::bench::{LayerCtx, Round, Workload};
use crate::cal::{percentile, Calibrator};
use crate::report::Outcome;
use crate::trace::{self, self_times, span, total_s};
use aligraph_graph::{AttributedHeterogeneousGraph, Featurizer, TaobaoConfig, VertexId};
use aligraph_partition::{EdgeCutHash, Partitioner};
use aligraph_sampling::IncrementalAlias;
use aligraph_streaming::{StreamingConfig, StreamingService, UpdateWorkload};
use aligraph_telemetry::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Share of `TaobaoConfig::small_sim()` the service runs on.
const GRAPH_SCALE: f64 = 3.0;
const SHARDS: usize = 2;
const FEATURE_DIM: usize = 16;
/// Under cubed-uniform popularity an LRU of a sixth of the vertices holds
/// about half the traffic.
const CACHE_CAPACITY: usize = 75_000;
/// One cycle is one ingest followed by the read sessions.
const CYCLES: usize = 40;
const UPDATE_ADDS: usize = 32;
const UPDATE_ATTRS: usize = 8;
const SESSIONS: usize = 16;
const GATHERS: usize = 64;

/// Counts of one round.
#[derive(Debug, Clone, Copy, Default)]
struct RoundCounts {
    hits: u64,
    misses: u64,
    batches: u64,
    invalidated: u64,
    repairs: u64,
}

/// The streaming workload, built.
pub struct Stream {
    seed: u64,
    graph: Arc<AttributedHeterogeneousGraph>,
    service: StreamingService,
    updates: UpdateWorkload,
    rng: StdRng,
    next_session_id: u64,
    /// One entry per round, the warm-up round first.
    counts: Vec<RoundCounts>,
}

impl std::fmt::Debug for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stream").field("seed", &self.seed).finish_non_exhaustive()
    }
}

impl Workload for Stream {
    const TRACED_ROUNDS: usize = 4;
    const ROUNDS_PER_SECOND: f64 = 2.4;

    fn setup(seed: u64, registry: &Arc<Registry>) -> Self {
        let graph = {
            let _s = span("graph.generate");
            let mut cfg = TaobaoConfig::small_sim().scaled(GRAPH_SCALE);
            cfg.seed = seed;
            Arc::new(cfg.generate().expect("valid generator config"))
        };
        let features = {
            let _s = span("graph.featurize");
            Arc::new(Featurizer::new(FEATURE_DIM).matrix(&graph))
        };
        let service = {
            let _s = span("streaming.start");
            StreamingService::start_with_registry(
                Arc::clone(&graph),
                features,
                StreamingConfig {
                    shards: SHARDS,
                    cache_capacity: CACHE_CAPACITY,
                    seed,
                    ..StreamingConfig::default()
                },
                registry,
            )
        };
        let n = graph.num_vertices() as u32;
        Stream {
            seed,
            graph,
            service,
            updates: UpdateWorkload::new(seed ^ 0xd17a, n, FEATURE_DIM),
            rng: StdRng::seed_from_u64(seed ^ 0x0ead),
            next_session_id: 0,
            counts: Vec::new(),
        }
    }

    fn round(&mut self, out: &mut Outcome) -> Round {
        let n = self.graph.num_vertices() as u32;
        // Hit or miss is known only from the cache counters; reading them
        // around every gather is paid by the traced pass alone.
        let classify = trace::epoch().is_some();
        let cache_before = self.service.cache_stats();
        let mut counts = RoundCounts::default();
        let mut round = Round::default();
        let start = Instant::now();
        for _ in 0..CYCLES {
            let batch = self.updates.next_batch(UPDATE_ADDS, UPDATE_ATTRS);
            let events = batch.len() as u64;
            let t = Instant::now();
            let ingest = span("streaming.ingest");
            let receipt = self.service.ingest(&batch);
            drop(ingest);
            round.updates_s.push(t.elapsed().as_secs_f64());
            match receipt {
                Ok(r) => {
                    round.ops += events;
                    counts.batches += 1;
                    counts.invalidated += r.invalidated as u64;
                    counts.repairs += r.repairs;
                }
                Err(e) => {
                    round.failed += events;
                    out.check(false, || format!("ingest failed: {e}"));
                }
            }
            for _ in 0..SESSIONS {
                trace::set_id(self.next_session_id);
                self.next_session_id += 1;
                let t = Instant::now();
                let session_span = span("streaming.session");
                let session = self.service.session();
                let pinned = session.epoch();
                for _ in 0..GATHERS {
                    let r: f64 = self.rng.gen();
                    let v = VertexId(((n as f64 * r * r * r) as u32).min(n - 1));
                    let gathered = if classify {
                        let hits = self.service.cache_stats().hits;
                        let gather = span("streaming.gather_miss");
                        let g = session.gather(v);
                        let gather = gather.end();
                        if self.service.cache_stats().hits > hits {
                            trace::rename(gather, "streaming.gather_hit");
                        }
                        g
                    } else {
                        session.gather(v)
                    };
                    if gathered.epoch == pinned {
                        round.ops += 1;
                    } else {
                        round.failed += 1;
                        out.check(false, || {
                            format!(
                                "gather of {v:?} at epoch {} in a session pinned to {pinned}",
                                gathered.epoch
                            )
                        });
                    }
                }
                drop(session_span);
                round.reads_s.push(t.elapsed().as_secs_f64());
            }
        }
        round.ops_s = start.elapsed().as_secs_f64();
        let cache = self.service.cache_stats();
        counts.hits = cache.hits - cache_before.hits;
        counts.misses = cache.misses - cache_before.misses;
        self.counts.push(counts);
        round
    }

    fn layers(&mut self, ctx: &LayerCtx<'_>, out: &mut Outcome) {
        let m = &mut out.metrics;
        let setup = self_times(ctx.setup_spans);
        m.put("graph.generate_s", total_s(&setup, "graph.generate"));
        m.put("graph.featurize_s", total_s(&setup, "graph.featurize"));
        let mut cal = Calibrator::new(ctx.cal_ref_ns);
        let (_, t) = cal.time(|| black_box(EdgeCutHash.partition(&self.graph, SHARDS)));
        m.put("partition.edge_cut_s", t.cal_s());

        let totals = self_times(ctx.spans);
        let mean_us = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ms() * 1e3);
        m.put("streaming.gather_hit_us", mean_us("streaming.gather_hit"));
        m.put("streaming.gather_miss_us", mean_us("streaming.gather_miss"));
        m.put("streaming.ingest_ms", mean_us("streaming.ingest") / 1e3);

        // Counts over the measured rounds (the first entry is the warm-up).
        let measured = &self.counts[1.min(self.counts.len())..];
        let sum = |f: fn(&RoundCounts) -> u64| measured.iter().map(f).sum::<u64>() as f64;
        let batches = sum(|c| c.batches).max(1.0);
        m.put(
            "streaming.cache_hit_share",
            sum(|c| c.hits) / (sum(|c| c.hits) + sum(|c| c.misses)).max(1.0),
        );
        m.put("streaming.invalidated_per_batch", sum(|c| c.invalidated) / batches);
        m.put("streaming.alias_repairs_per_batch", sum(|c| c.repairs) / batches);
        m.put("streaming.epochs_published", self.service.current_epoch() as f64);
        m.put("streaming.session_p99_ms", percentile(&ctx.plain.reads_cal, 0.99) * 1e3);
        m.put("streaming.session_samples", ctx.plain.reads_cal.len() as f64);

        // One in-place alias repair after one weight change, on a row as
        // long as a busy vertex's.
        const REPAIRS: usize = 20_000;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9a0be);
        let mut alias = IncrementalAlias::new((0..64).map(|i| 0.5 + i as f32 * 0.01).collect());
        alias.repair();
        let ((), t) = cal.time(|| {
            for _ in 0..REPAIRS {
                alias.set(rng.gen_range(0..64), rng.gen_range(0.5f32..2.0));
                black_box(alias.repair());
            }
        });
        m.put("sampling.alias_repair_us", t.cal_s() * 1e6 / REPAIRS as f64);
    }

    fn finish(self, out: &mut Outcome) {
        let oracle = self.service.oracle_check();
        out.check(oracle.is_ok(), || format!("oracle_check failed: {}", oracle.unwrap_err()));
        self.teardown();
    }

    fn teardown(self) {
        self.service.shutdown();
    }
}
