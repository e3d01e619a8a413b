//! Tiered storage: a compressed in-memory cold tier under a byte-budgeted
//! hot set of decoded rows, with the paper's own importance analysis
//! deciding *what* stays hot.
//!
//! A [`TieredStore`] sits beneath the sharded store. At build time every
//! vertex's adjacency row is delta-varint encoded ([`crate::codec`]) into
//! per-shard segments ([`crate::segment`]); feature rows join
//! via [`TieredStore::attach_features`]. A **hot set** of decoded rows is
//! bounded by a resident-byte budget ([`TierConfig::resident_budget`]).
//!
//! The cold tier is **memory**, as the paper's storage is (§3.1): the
//! segments stay in process memory, and a cold read costs a decode, not a
//! device read. The tier is decode-bound by design; it models compression
//! and decode cost, not storage offloading. The budget therefore bounds
//! the decoded hot rows only: it does not count the encoded segments
//! (the `tier.segment_bytes` gauge), the shared graph every shard reads,
//! or the parameter-server and replica copies of the model.
//!
//! **Which adjacency rows it holds** is the paper's threshold rule (§3.2,
//! Algorithm 2), not recency, keyed by what a miss costs here: decoded
//! bytes. A row is read about once per in-edge, each cold read decodes its
//! `enc(v)` encoded bytes (its length in its shard's adjacency segment —
//! what `tier.io.bytes` meters), and it occupies
//! `adjacency_bytes(D_out)` when hot, so the key is decoded bytes saved
//! per resident byte: `D_in(v) × enc(v) / adjacency_bytes(D_out(v))`. (The
//! paper's `Imp = D_in / D_out` counts misses, right when every miss costs
//! the same.) The build ranks the rows by it, seeds the ranked prefix that
//! fits the budget, and records the threshold `τ` as the key of the first
//! ranked row that no longer fits (`plan_hot_set`). From then on an
//! adjacency row is admitted hot iff `key(v) ≥ τ` and it fits the budget
//! alone; any other row is **pass-through**: decoded into
//! one reused row buffer, served, admitted nowhere and demoting nothing.
//! With no budget `τ` is 0 and every row is admitted. Among the admitted
//! rows, and for feature rows — always admitted, because dirty-row
//! writeback rides on demotion — an LRU demotes the coldest row when a
//! promotion would burst the budget ([`crate::lru::LruCache::iter_lru`] is
//! the eviction oracle). Every read not served hot decodes from the
//! segment holding the row (for a feature row, the newest generation) and
//! is metered as
//! [`AccessKind::Cold`] by the caller; decode results are **bit-exact**
//! against the all-hot oracle — that is the tier's headline invariant,
//! pinned by `tests/storage_integration.rs`.
//!
//! The **prefetch pipeline** ([`TieredStore::prefetch`]) batches the cold
//! decodes of an upcoming sampling frontier into a double buffer: the
//! sampler announces the next frontier (deterministic issue order — sorted,
//! deduplicated, only rows resident on the issuing shard: the rest are
//! read through the neighbor cache or remotely, never from here), decodes
//! land in the standby buffer, and the buffers swap so gather/aggregate
//! overlaps the decode. A staged row serves the reads its frontier
//! announced — named twice, it is decoded once — and follows the admission
//! rule like any other: an admitted row moves to the hot set with its first
//! read, a pass-through row leaves with its last. A read served from the
//! buffer still counts as a cold op, but only `prefetch_hit_ns` lands on
//! the blocking clock ([`crate::cost::AccessStats::record_overlapped_cold`]);
//! the full `cold_ns` is charged to the overlapped storage clock
//! (`tier.io.virtual_ns`). Everything is virtual-tick metered — no wall
//! clock anywhere near a seeded path.
//!
//! Dirty feature rows ([`TieredStore::write_row`]) are written back on
//! demotion into fresh segment generations (sorted, deterministic bytes).

use crate::codec::{
    decode_adjacency_into, decode_feature_row, encode_adjacency, encode_feature_row,
};
use crate::cost::{AccessKind, CostModel, TierMeter};
use crate::lru::LruCache;
use crate::segment::{Segment, SegmentError, SegmentKind};
use crate::server::{build_cdf, fill_cdf, VertexRecord};
use aligraph_graph::{AttributedHeterogeneousGraph, FeatureMatrix, Neighbor, VertexId};
use aligraph_telemetry::{Counter, Gauge, Registry};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Cold-tier configuration.
#[derive(Debug, Clone, Default)]
pub struct TierConfig {
    /// Byte cap on decoded hot rows. `None` = unbounded (every row hot —
    /// the oracle configuration). The encoded segments are not counted.
    pub resident_budget: Option<u64>,
}

impl TierConfig {
    /// A config with the given budget.
    pub fn with_budget(budget: Option<u64>) -> Self {
        TierConfig { resident_budget: budget }
    }
}

/// How one tier read was served (the caller maps this onto
/// [`AccessKind`] accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierRead {
    /// Decoded row was already hot.
    Hot,
    /// Served from the prefetch double-buffer (decode overlapped).
    Prefetched,
    /// Blocking cold decode from a segment.
    Cold,
    /// Row absent from (or undecodable in) its owner shard's segment —
    /// re-materialized from the shared graph.
    Materialized,
}

impl TierRead {
    /// Telemetry label (`src=<label>`).
    pub fn as_label(self) -> &'static str {
        match self {
            TierRead::Hot => "hot",
            TierRead::Prefetched => "prefetch",
            TierRead::Cold => "cold",
            TierRead::Materialized => "materialized",
        }
    }
}

/// Flush the writeback staging area once this many dirty rows accumulate
/// (bounds the staging footprint to a constant number of rows).
const WRITEBACK_FLUSH_ROWS: usize = 64;

const KIND_ADJ: u8 = 0;
const KIND_FEAT: u8 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RowKey {
    kind: u8,
    vertex: u32,
}

#[derive(Debug, Clone)]
enum HotRow {
    Adjacency { nbrs: Arc<[Neighbor]>, cdf: Arc<[f32]> },
    Feature { row: Arc<[f32]>, dirty: bool },
}

impl HotRow {
    /// Decoded in-memory footprint charged against the resident budget.
    fn bytes(&self) -> u64 {
        match self {
            HotRow::Adjacency { nbrs, cdf } => 32 + nbrs.len() as u64 * 24 + cdf.len() as u64 * 4,
            HotRow::Feature { row, .. } => 32 + row.len() as u64 * 4,
        }
    }
}

/// [`HotRow::bytes`] of a graph-built adjacency row of `degree` neighbors
/// (one CDF entry per neighbor).
fn adjacency_bytes(degree: usize) -> u64 {
    32 + degree as u64 * 28
}

#[derive(Debug)]
struct TierMetrics {
    resident_bytes: Arc<Gauge>,
    peak_resident_bytes: Arc<Gauge>,
    segment_bytes: Arc<Gauge>,
    hot_rows: Arc<Gauge>,
    reads_hot: Arc<Counter>,
    reads_prefetch: Arc<Counter>,
    reads_cold: Arc<Counter>,
    reads_materialized: Arc<Counter>,
    demote_clean: Arc<Counter>,
    demote_writeback: Arc<Counter>,
    admit_admitted: Arc<Counter>,
    admit_bypassed: Arc<Counter>,
    prefetch_issued: Arc<Counter>,
    prefetch_wasted: Arc<Counter>,
    prefetch_virtual_ns: Arc<Counter>,
    writeback_segments: Arc<Counter>,
    writeback_rows: Arc<Counter>,
}

impl TierMetrics {
    fn registered(r: &Registry) -> Self {
        TierMetrics {
            resident_bytes: r.gauge("tier.resident_bytes", &[]),
            peak_resident_bytes: r.gauge("tier.peak_resident_bytes", &[]),
            segment_bytes: r.gauge("tier.segment_bytes", &[]),
            hot_rows: r.gauge("tier.hot_rows", &[]),
            reads_hot: r.counter("tier.reads", &[("src", "hot")]),
            reads_prefetch: r.counter("tier.reads", &[("src", "prefetch")]),
            reads_cold: r.counter("tier.reads", &[("src", "cold")]),
            reads_materialized: r.counter("tier.reads", &[("src", "materialized")]),
            demote_clean: r.counter("tier.demotions", &[("outcome", "clean")]),
            demote_writeback: r.counter("tier.demotions", &[("outcome", "writeback")]),
            admit_admitted: r.counter("tier.admit", &[("outcome", "admitted")]),
            admit_bypassed: r.counter("tier.admit", &[("outcome", "bypassed")]),
            prefetch_issued: r.counter("tier.prefetch.issued", &[]),
            prefetch_wasted: r.counter("tier.prefetch.wasted", &[]),
            prefetch_virtual_ns: r.counter("tier.prefetch.virtual_ns", &[]),
            writeback_segments: r.counter("tier.writeback.segments", &[]),
            writeback_rows: r.counter("tier.writeback.rows", &[]),
        }
    }

    fn read(&self, how: TierRead) {
        match how {
            TierRead::Hot => self.reads_hot.inc(),
            TierRead::Prefetched => self.reads_prefetch.inc(),
            TierRead::Cold => self.reads_cold.inc(),
            TierRead::Materialized => self.reads_materialized.inc(),
        }
    }
}

/// A decoded adjacency row in shareable form — what the hot set and the
/// prefetch stage hold and what a caller gets back: the neighbor list plus
/// its weight CDF.
type SharedRow = (Arc<[Neighbor]>, Arc<[f32]>);

/// One row of the prefetch stage. It serves exactly the reads its frontier
/// announced — a frontier naming a row twice decodes it once — and then
/// leaves, so the stage never turns into an uncharged cache.
#[derive(Debug)]
struct Staged {
    row: SharedRow,
    /// How many times the announced frontier names the row.
    announced: u32,
    /// Reads served from it since; a row still at 0 when the next frontier
    /// replaces it was wasted.
    served: u32,
}

#[derive(Debug)]
struct TierState {
    /// Decoded hot rows, recency-ordered. Count capacity equals the maximum
    /// possible live entries (one adjacency + one feature row per vertex),
    /// so count-eviction never fires; the byte budget is enforced here.
    hot: LruCache<RowKey, HotRow>,
    hot_bytes: u64,
    peak_hot_bytes: u64,
    /// Per-shard residency bitmaps (bit v = vertex v serves as Local from
    /// that shard).
    resident: Vec<Vec<u64>>,
    resident_counts: Vec<usize>,
    /// One adjacency segment per build shard: adjacency is immutable, so
    /// it has one generation.
    adj_segments: Vec<Segment>,
    /// Per-shard feature segment generations, oldest first.
    feat_segments: Vec<Vec<Segment>>,
    /// Dirty rows demoted but not yet flushed into a segment. A `BTreeMap`
    /// so the flush drains in sorted vertex order — one canonical byte
    /// stream per logical content.
    writeback_pending: BTreeMap<u32, Arc<[f32]>>,
    /// The prefetch double-buffer's active side: decoded adjacency rows the
    /// announced frontier is about to read.
    prefetch_active: HashMap<u32, Staged>,
    /// The row buffer every cold adjacency decode lands in (neighbors and
    /// weight CDF), reused across reads: one row at a time, bounded by the
    /// largest row, and — like the prefetch stage — not charged to the
    /// budget. A pass-through read never leaves it.
    row_nbrs: Vec<Neighbor>,
    row_cdf: Vec<f32>,
    /// Whether feature segments exist.
    has_features: bool,
}

impl TierState {
    fn set_resident(&mut self, shard: usize, v: u32, on: bool) {
        let map = &mut self.resident[shard];
        let (word, bit) = (v as usize / 64, v as usize % 64);
        if word >= map.len() {
            map.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        let was = map[word] & mask != 0;
        if on && !was {
            map[word] |= mask;
            self.resident_counts[shard] += 1;
        } else if !on && was {
            map[word] &= !mask;
            self.resident_counts[shard] -= 1;
        }
    }

    fn is_resident(&self, shard: usize, v: u32) -> bool {
        self.resident
            .get(shard)
            .and_then(|map| map.get(v as usize / 64))
            .is_some_and(|w| w & (1u64 << (v as usize % 64)) != 0)
    }

    /// The row buffer's content in shareable form.
    fn shared_row(&self) -> SharedRow {
        (self.row_nbrs.as_slice().into(), self.row_cdf.as_slice().into())
    }

    fn segment_bytes(&self) -> u64 {
        self.adj_segments
            .iter()
            .chain(self.feat_segments.iter().flatten())
            .map(Segment::encoded_bytes)
            .sum()
    }
}

/// The out-of-core tier beneath a cluster's shards. One instance is shared
/// by every [`crate::server::GraphServer`] of a tiered cluster.
#[derive(Debug)]
pub struct TieredStore {
    graph: Arc<AttributedHeterogeneousGraph>,
    /// Build-time owner of each vertex — the shard whose segments hold its
    /// rows (stable across migrations; adjacency is immutable).
    owner: Vec<u32>,
    /// The admission key per vertex — decoded bytes saved per resident
    /// byte, `D_in(v) × enc(v) / adjacency_bytes(D_out(v))`, 0 for a row no
    /// edge points at — computed once per build from the segment bytes.
    importance: Vec<f64>,
    /// Vertex ids by descending key, vertex id as the deterministic
    /// tie-break.
    ranking: Vec<u32>,
    /// The admission threshold: the key of the first ranked row the budget
    /// could not seed (0 when every row fits or there is no budget) — see
    /// [`plan_hot_set`].
    tau: f64,
    cfg: TierConfig,
    cost: CostModel,
    state: Mutex<TierState>,
    metrics: TierMetrics,
    /// Cold-tier I/O metering: every segment decode records a `Cold` op
    /// with its encoded bytes on the overlapped storage clock
    /// (`tier.io.virtual_ns`).
    io_meter: TierMeter,
}

impl TieredStore {
    /// Builds the tier: encodes every vertex's adjacency into its owner
    /// shard's generation-0 segment, seeds residency from `owners`, computes
    /// the admission key and ranking (one pass over the segments' index,
    /// one sort per build), and admits the highest-ranked rows hot until the
    /// budget is reached, which fixes the threshold `τ`.
    pub fn build(
        graph: Arc<AttributedHeterogeneousGraph>,
        owners: &[u32],
        shards: usize,
        cfg: TierConfig,
        cost: CostModel,
        registry: &Registry,
    ) -> Arc<TieredStore> {
        let mut rows: Vec<Vec<(u32, Vec<u8>)>> = vec![Vec::new(); shards];
        for v in graph.vertices() {
            let mut buf = Vec::new();
            encode_adjacency(graph.out_neighbors(v), &mut buf);
            rows[owners[v.index()] as usize].push((v.0, buf));
        }
        let adj_segments = rows
            .into_iter()
            .enumerate()
            .map(|(shard, shard_rows)| {
                Segment::build(SegmentKind::Adjacency, shard as u16, shard_rows)
            })
            .collect();
        let n = graph.num_vertices();
        let words = n.div_ceil(64);
        let mut state = TierState {
            // One adjacency plus one feature row per vertex is the hard cap
            // on live hot entries.
            hot: LruCache::new(2 * n + 2),
            hot_bytes: 0,
            peak_hot_bytes: 0,
            resident: vec![vec![0u64; words]; shards],
            resident_counts: vec![0; shards],
            adj_segments,
            feat_segments: vec![Vec::new(); shards],
            writeback_pending: BTreeMap::new(),
            prefetch_active: HashMap::new(),
            row_nbrs: Vec::new(),
            row_cdf: Vec::new(),
            has_features: false,
        };
        for v in graph.vertices() {
            state.set_resident(owners[v.index()] as usize, v.0, true);
        }
        // Decoded bytes saved per resident byte: reads × the encoded bytes a
        // cold read decodes, over the bytes the row occupies hot.
        let importance: Vec<f64> = graph
            .vertices()
            .map(|v| {
                let enc = state.adj_segments[owners[v.index()] as usize]
                    .lookup(v.0)
                    .map_or(0, <[u8]>::len);
                let saved = graph.in_degree(v) as f64 * enc as f64;
                saved / adjacency_bytes(graph.out_degree(v)) as f64
            })
            .collect();
        let mut ranking: Vec<u32> = graph.vertices().map(|v| v.0).collect();
        ranking.sort_by(|&a, &b| {
            importance[b as usize].total_cmp(&importance[a as usize]).then(a.cmp(&b))
        });
        let (seeds, tau) = plan_hot_set(&graph, &importance, &ranking, cfg.resident_budget);
        let metrics = TierMetrics::registered(registry);
        metrics.segment_bytes.set(state.segment_bytes() as i64);
        let store = TieredStore {
            graph,
            owner: owners.to_vec(),
            importance,
            ranking,
            tau,
            cfg,
            cost,
            state: Mutex::new(state),
            metrics,
            io_meter: TierMeter::registered(registry, "tier.io"),
        };
        {
            // Least important first, so the least important hot row is also
            // the least recently used — the first demotion victim.
            let mut state = store.state.lock();
            for &v in seeds.iter().rev() {
                let nbrs: Arc<[Neighbor]> = store.graph.out_neighbors(VertexId(v)).into();
                let cdf = build_cdf(&nbrs);
                store.admit(
                    &mut state,
                    RowKey { kind: KIND_ADJ, vertex: v },
                    HotRow::Adjacency { nbrs, cdf },
                );
            }
            store.publish_gauges(&state);
        }
        Arc::new(store)
    }

    /// Encodes every vertex's feature row into its owner shard's feature
    /// segment and admits the highest-ranked rows hot under the remaining
    /// budget.
    pub fn attach_features(&self, features: &FeatureMatrix) -> Result<(), SegmentError> {
        let shards = self.num_shards();
        let mut rows: Vec<Vec<(u32, Vec<u8>)>> = vec![Vec::new(); shards];
        for v in self.graph.vertices() {
            let mut buf = Vec::new();
            encode_feature_row(features.row(v), &mut buf);
            rows[self.owner[v.index()] as usize].push((v.0, buf));
        }
        {
            let mut state = self.state.lock();
            for (shard, shard_rows) in rows.into_iter().enumerate() {
                let seg = Segment::build(SegmentKind::Feature, shard as u16, shard_rows);
                state.feat_segments[shard] = vec![seg];
            }
            state.has_features = true;
            self.metrics.segment_bytes.set(state.segment_bytes() as i64);
        }
        // Admit hot feature rows for the ranked prefix that still fits.
        let row_sz = 32 + features.dim as u64 * 4;
        let mut state = self.state.lock();
        let mut chosen = Vec::new();
        let mut bytes = state.hot_bytes;
        for &v in &self.ranking {
            if let Some(budget) = self.cfg.resident_budget {
                if bytes + row_sz > budget {
                    break;
                }
            }
            bytes += row_sz;
            chosen.push(v);
        }
        for &v in chosen.iter().rev() {
            let row: Arc<[f32]> = features.row(VertexId(v)).into();
            self.admit(
                &mut state,
                RowKey { kind: KIND_FEAT, vertex: v },
                HotRow::Feature { row, dirty: false },
            );
        }
        self.publish_gauges(&state);
        Ok(())
    }

    /// The configured budget.
    pub fn budget(&self) -> Option<u64> {
        self.cfg.resident_budget
    }

    /// Number of shards with segment storage.
    pub fn num_shards(&self) -> usize {
        self.state.lock().adj_segments.len()
    }

    /// Current decoded hot bytes (the `tier.resident_bytes` gauge).
    pub fn resident_bytes(&self) -> u64 {
        self.state.lock().hot_bytes
    }

    /// High-water mark of decoded hot bytes.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.state.lock().peak_hot_bytes
    }

    /// Whether `v` serves as `Local` from `shard`.
    pub fn is_resident(&self, shard: usize, v: u32) -> bool {
        self.state.lock().is_resident(shard, v)
    }

    /// Number of vertices resident on `shard`.
    pub fn num_resident(&self, shard: usize) -> usize {
        self.state.lock().resident_counts.get(shard).copied().unwrap_or(0)
    }

    /// Grows per-shard tables to cover `slot` (a split's new shard).
    pub fn ensure_shard(&self, slot: usize) {
        let mut state = self.state.lock();
        let words = self.graph.num_vertices().div_ceil(64);
        while state.resident.len() <= slot {
            state.resident.push(vec![0u64; words]);
            state.resident_counts.push(0);
            state.feat_segments.push(Vec::new());
        }
    }

    /// Reads one adjacency row (with its weight CDF) through the tier.
    /// Always bit-exact against `graph.out_neighbors(v)`; the third tuple
    /// element says how the read was served.
    pub fn read_adjacency(&self, v: VertexId) -> (Arc<[Neighbor]>, Arc<[f32]>, TierRead) {
        let mut state = self.state.lock();
        let (how, row) = self.read_row(&mut state, v, true);
        #[expect(clippy::expect_used, reason = "read_row returns the row whenever it is asked to")]
        let (nbrs, cdf) = row.expect("row was requested");
        (nbrs, cdf, how)
    }

    /// Meters one adjacency read of `v` from `shard` without handing out the
    /// data — what [`crate::server::GraphServer::classify`] needs: residency
    /// check, hot lookup and cold decode under one lock, no `Arc` cloned.
    /// `None` when `v` is not resident on `shard`.
    pub(crate) fn classify(&self, shard: usize, v: VertexId) -> Option<TierRead> {
        let mut state = self.state.lock();
        state.is_resident(shard, v.0).then(|| self.read_row(&mut state, v, false).0)
    }

    /// The weight CDF of `v`'s adjacency (`None` for isolated vertices).
    pub fn weight_cdf(&self, v: VertexId) -> Option<Arc<[f32]>> {
        let (_, cdf, _) = self.read_adjacency(v);
        if cdf.is_empty() {
            None
        } else {
            Some(cdf)
        }
    }

    /// The one adjacency read every entry point goes through: the hot set,
    /// then the prefetch stage, then a cold decode into the reused row
    /// buffer. Counts the read by source, applies the admission rule to a
    /// row that was not hot, and materialises `Arc`s only for a row that is
    /// admitted or that the caller asked for (`want_row`) — a pass-through
    /// row nobody asked for stays in the buffer.
    fn read_row(
        &self,
        state: &mut TierState,
        v: VertexId,
        want_row: bool,
    ) -> (TierRead, Option<SharedRow>) {
        let key = RowKey { kind: KIND_ADJ, vertex: v.0 };
        if let Some(HotRow::Adjacency { nbrs, cdf }) = state.hot.get(&key) {
            self.metrics.read(TierRead::Hot);
            return (TierRead::Hot, want_row.then(|| (Arc::clone(nbrs), Arc::clone(cdf))));
        }
        // A staged row serves the reads its frontier announced.
        let staged = state.prefetch_active.get_mut(&v.0).map(|staged| {
            staged.served += 1;
            (staged.row.clone(), staged.served >= staged.announced)
        });
        let how = match staged {
            Some(_) => TierRead::Prefetched,
            None => self.decode_cold(state, v),
        };
        self.metrics.read(how);
        let degree = staged.as_ref().map_or(state.row_nbrs.len(), |((nbrs, _), _)| nbrs.len());
        let admitted = self.admits(v.0, degree);
        if staged.as_ref().is_some_and(|&(_, spent)| admitted || spent) {
            // An admitted row moves from the stage to the hot set; a
            // pass-through row leaves with its last announced read.
            state.prefetch_active.remove(&v.0);
        }
        if !(admitted || want_row) {
            return (how, None);
        }
        let (nbrs, cdf) = staged.map_or_else(|| state.shared_row(), |(row, _)| row);
        if admitted {
            let row = HotRow::Adjacency { nbrs: Arc::clone(&nbrs), cdf: Arc::clone(&cdf) };
            self.admit(state, key, row);
            self.publish_gauges(state);
        }
        (how, want_row.then_some((nbrs, cdf)))
    }

    /// The admission rule for an adjacency row that is not hot: `key(v) ≥ τ`
    /// and the row fits the budget alone. Counted where it is decided
    /// (`tier.admit{outcome}`).
    fn admits(&self, v: u32, degree: usize) -> bool {
        let oversized = self.cfg.resident_budget.is_some_and(|b| adjacency_bytes(degree) > b);
        let admitted = self.is_important(v) && !oversized;
        if admitted {
            self.metrics.admit_admitted.inc();
        } else {
            self.metrics.admit_bypassed.inc();
        }
        admitted
    }

    /// The key half of the admission rule: `key(v) ≥ τ`.
    fn is_important(&self, v: u32) -> bool {
        self.importance.get(v as usize).is_some_and(|&imp| imp >= self.tau)
    }

    /// Decodes `v`'s adjacency row and its weight CDF, in one pass, into the
    /// reused row buffer from its owner shard's segment, metering the cold
    /// I/O.
    fn decode_cold(&self, state: &mut TierState, v: VertexId) -> TierRead {
        let TierState { adj_segments, row_nbrs, row_cdf, .. } = state;
        let shard = self.owner.get(v.index()).copied().unwrap_or(0) as usize;
        if let Some(bytes) = adj_segments.get(shard).and_then(|seg| seg.lookup(v.0)) {
            if decode_adjacency_into(bytes, row_nbrs, Some(row_cdf)).is_ok() {
                self.io_meter.record(AccessKind::Cold, bytes.len() as u64, &self.cost);
                return TierRead::Cold;
            }
        }
        // Not in the segment (or undecodable): serve from the shared graph
        // — correctness never depends on the cold copy.
        row_nbrs.clear();
        row_nbrs.extend_from_slice(self.graph.out_neighbors(v));
        fill_cdf(row_nbrs, row_cdf);
        TierRead::Materialized
    }

    /// Reads one feature row through the tier. `None` when no features are
    /// attached or `v` is out of range.
    pub fn feature_row(&self, v: VertexId) -> Option<(Arc<[f32]>, TierRead)> {
        if v.index() >= self.graph.num_vertices() {
            return None;
        }
        let key = RowKey { kind: KIND_FEAT, vertex: v.0 };
        let mut state = self.state.lock();
        if !state.has_features
            && state.hot.peek(&key).is_none()
            && state.writeback_pending.is_empty()
        {
            return None;
        }
        if let Some(HotRow::Feature { row, .. }) = state.hot.get(&key) {
            let out = (Arc::clone(row), TierRead::Hot);
            self.metrics.read(TierRead::Hot);
            return Some(out);
        }
        if let Some(row) = state.writeback_pending.remove(&v.0) {
            // A demoted-dirty row read back before its flush: promote it hot
            // again, still dirty.
            self.admit(&mut state, key, HotRow::Feature { row: Arc::clone(&row), dirty: true });
            self.publish_gauges(&state);
            self.metrics.read(TierRead::Hot);
            return Some((row, TierRead::Hot));
        }
        let shard = self.owner.get(v.index()).copied().unwrap_or(0) as usize;
        let mut found: Option<Arc<[f32]>> = None;
        if let Some(gens) = state.feat_segments.get(shard) {
            for seg in gens.iter().rev() {
                if let Some(bytes) = seg.lookup(v.0) {
                    if let Ok(row) = decode_feature_row(bytes) {
                        self.io_meter.record(AccessKind::Cold, bytes.len() as u64, &self.cost);
                        found = Some(row.into());
                        break;
                    }
                }
            }
        }
        let row = found?;
        self.admit(&mut state, key, HotRow::Feature { row: Arc::clone(&row), dirty: false });
        self.publish_gauges(&state);
        self.metrics.read(TierRead::Cold);
        Some((row, TierRead::Cold))
    }

    /// Overwrites one feature row (marked dirty; written back to a fresh
    /// segment generation when demoted).
    pub fn write_row(&self, v: VertexId, row: &[f32]) {
        let key = RowKey { kind: KIND_FEAT, vertex: v.0 };
        let mut state = self.state.lock();
        state.writeback_pending.remove(&v.0);
        if let Some(old) = state.hot.remove(&key) {
            state.hot_bytes -= old.bytes();
        }
        self.admit(&mut state, key, HotRow::Feature { row: row.into(), dirty: true });
        self.publish_gauges(&state);
    }

    /// Announces the next sampling frontier of the worker on `shard`:
    /// decodes each adjacency row that is resident there and not hot into
    /// the standby buffer (deterministic issue order — sorted,
    /// deduplicated) and swaps buffers. Rows resident elsewhere are left
    /// alone — that worker reads them through its neighbor cache or
    /// remotely, never from the tier. Rows left unread in the old buffer
    /// count as wasted prefetch. Decode cost lands on the overlapped
    /// storage clock, not the blocking one. Returns how many rows were
    /// issued.
    pub fn prefetch(&self, shard: usize, frontier: &[VertexId]) -> usize {
        let mut ids: Vec<u32> = frontier.iter().map(|v| v.0).collect();
        ids.sort_unstable();
        // Each distinct id with how often the frontier names it.
        let mut runs: Vec<(u32, u32)> = Vec::with_capacity(ids.len());
        for v in ids {
            match runs.last_mut() {
                Some((last, announced)) if *last == v => *announced += 1,
                _ => runs.push((v, 1)),
            }
        }
        let mut state = self.state.lock();
        let mut standby = HashMap::with_capacity(runs.len());
        let mut issued = 0usize;
        for (v, announced) in runs {
            let key = RowKey { kind: KIND_ADJ, vertex: v };
            if !state.is_resident(shard, v) || state.hot.peek(&key).is_some() {
                continue;
            }
            if let Some(staged) = state.prefetch_active.remove(&v) {
                // Still staged from the previous frontier: carry it over
                // without re-decoding.
                standby.insert(v, Staged { row: staged.row, announced, served: 0 });
                continue;
            }
            self.decode_cold(&mut state, VertexId(v));
            self.metrics.prefetch_virtual_ns.add(self.cost.cold_ns);
            standby.insert(v, Staged { row: state.shared_row(), announced, served: 0 });
            issued += 1;
        }
        self.metrics.prefetch_issued.add(issued as u64);
        let wasted = state.prefetch_active.values().filter(|staged| staged.served == 0).count();
        self.metrics.prefetch_wasted.add(wasted as u64);
        state.prefetch_active = standby;
        issued
    }

    /// Whether `v` currently sits in the prefetch buffer (test hook).
    pub fn is_prefetched(&self, v: VertexId) -> bool {
        self.state.lock().prefetch_active.contains_key(&v.0)
    }

    /// Forces the writeback staging area into a segment generation (called
    /// at epoch boundaries and before reads that must see every write
    /// durable).
    pub fn flush_writeback(&self) -> Result<(), SegmentError> {
        let mut state = self.state.lock();
        self.flush_writeback_locked(&mut state);
        Ok(())
    }

    fn flush_writeback_locked(&self, state: &mut TierState) {
        if state.writeback_pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut state.writeback_pending);
        let mut per_shard: Vec<Vec<(u32, Vec<u8>)>> = vec![Vec::new(); state.feat_segments.len()];
        // BTreeMap drains in vertex order — deterministic segment bytes.
        for (v, row) in pending {
            let mut buf = Vec::new();
            encode_feature_row(&row, &mut buf);
            let shard = self.owner.get(v as usize).copied().unwrap_or(0) as usize;
            per_shard[shard].push((v, buf));
        }
        for (shard, rows) in per_shard.into_iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            self.metrics.writeback_rows.add(rows.len() as u64);
            let seg = Segment::build(SegmentKind::Feature, shard as u16, rows);
            state.feat_segments[shard].push(seg);
            self.metrics.writeback_segments.inc();
        }
        self.metrics.segment_bytes.set(state.segment_bytes() as i64);
    }

    /// A movable copy of one resident vertex's state (`None` if not
    /// resident on `shard`) — the tiered form of
    /// [`crate::server::GraphServer::extract`].
    pub fn extract(&self, shard: usize, v: VertexId) -> Option<VertexRecord> {
        let mut state = self.state.lock();
        if !state.is_resident(shard, v.0) {
            return None;
        }
        let (nbrs, cdf) = self.read_row(&mut state, v, true).1?;
        Some(VertexRecord { vertex: v, neighbors: nbrs.iter().copied().collect(), weight_cdf: cdf })
    }

    /// Installs one migrated vertex record as resident on `shard` — and hot
    /// (a freshly migrated row is about to be read) when the admission rule
    /// takes it.
    pub fn absorb(&self, shard: usize, rec: VertexRecord) {
        self.ensure_shard(shard);
        let mut state = self.state.lock();
        state.set_resident(shard, rec.vertex.0, true);
        if !self.admits(rec.vertex.0, rec.neighbors.len()) {
            return;
        }
        let nbrs: Arc<[Neighbor]> = rec.neighbors.into();
        self.admit(
            &mut state,
            RowKey { kind: KIND_ADJ, vertex: rec.vertex.0 },
            HotRow::Adjacency { nbrs, cdf: rec.weight_cdf },
        );
        self.publish_gauges(&state);
    }

    /// Drops residency of the given vertices from `shard`.
    pub fn retire(&self, shard: usize, vertices: &[u32]) {
        let mut state = self.state.lock();
        for &v in vertices {
            state.set_resident(shard, v, false);
        }
    }

    /// Inserts a hot row and demotes LRU victims until the budget holds.
    fn admit(&self, state: &mut TierState, key: RowKey, row: HotRow) {
        let sz = row.bytes();
        if let Some(old) = state.hot.remove(&key) {
            state.hot_bytes -= old.bytes();
        }
        state.hot.put(key, row);
        state.hot_bytes += sz;
        if let Some(budget) = self.cfg.resident_budget {
            while state.hot_bytes > budget && !state.hot.is_empty() {
                #[expect(
                    clippy::expect_used,
                    reason = "the loop condition holds the cache non-empty"
                )]
                let victim = *state.hot.iter_lru().next().expect("non-empty cache").0;
                self.demote(state, victim);
            }
        }
        state.peak_hot_bytes = state.peak_hot_bytes.max(state.hot_bytes);
    }

    fn demote(&self, state: &mut TierState, key: RowKey) {
        let Some(row) = state.hot.remove(&key) else { return };
        state.hot_bytes -= row.bytes();
        match row {
            // A dirty row's hot copy is its only copy: it is written back
            // into a fresh segment generation before it leaves.
            HotRow::Feature { row, dirty: true } => {
                self.metrics.demote_writeback.inc();
                state.writeback_pending.insert(key.vertex, row);
                if state.writeback_pending.len() >= WRITEBACK_FLUSH_ROWS {
                    self.flush_writeback_locked(state);
                }
            }
            _ => self.metrics.demote_clean.inc(),
        }
    }

    fn publish_gauges(&self, state: &TierState) {
        self.metrics.resident_bytes.set(state.hot_bytes as i64);
        self.metrics.peak_resident_bytes.set(state.peak_hot_bytes as i64);
        self.metrics.hot_rows.set(state.hot.len() as i64);
    }
}

/// Walks the key ranking and returns the adjacency rows to seed hot — the
/// ranked prefix that fits `budget` — with the admission threshold `τ`: the
/// key of the first ranked row that did not fit. A row that alone exceeds
/// the whole budget is skipped (it is never admitted), and the walk stops
/// at the cut rather than packing smaller rows from further down into the
/// remainder: one of those would seed a row the threshold then keeps out,
/// and taking `τ` from it would collapse the threshold to the tail's key.
/// `τ` is 0 — every row qualifies, plain LRU — with no budget, when
/// everything fits, and when every row of positive key fits and the cut
/// falls among the key-0 rows (no in-edges), where the key no longer ranks
/// anything and recency is the only signal left for the remainder.
fn plan_hot_set(
    graph: &AttributedHeterogeneousGraph,
    importance: &[f64],
    ranking: &[u32],
    budget: Option<u64>,
) -> (Vec<u32>, f64) {
    let Some(budget) = budget else { return (ranking.to_vec(), 0.0) };
    let mut seeds = Vec::new();
    let mut bytes = 0u64;
    for &v in ranking {
        let sz = adjacency_bytes(graph.out_degree(VertexId(v)));
        if sz > budget {
            continue;
        }
        if bytes + sz > budget {
            return (seeds, importance[v as usize]);
        }
        bytes += sz;
        seeds.push(v);
    }
    (seeds, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_graph::Featurizer;
    use aligraph_partition::{EdgeCutHash, Partitioner};

    fn setup(budget: Option<u64>) -> (Arc<AttributedHeterogeneousGraph>, Arc<TieredStore>) {
        setup_registered(budget, &Registry::disabled())
    }

    fn setup_registered(
        budget: Option<u64>,
        registry: &Registry,
    ) -> (Arc<AttributedHeterogeneousGraph>, Arc<TieredStore>) {
        let g = Arc::new(TaobaoConfig::tiny().generate().unwrap());
        let part = EdgeCutHash.partition(&g, 4);
        let owners: Vec<u32> = g.vertices().map(|v| part.owner_of(v).0).collect();
        let store = TieredStore::build(
            Arc::clone(&g),
            &owners,
            4,
            TierConfig::with_budget(budget),
            CostModel::default(),
            registry,
        );
        (g, store)
    }

    impl TieredStore {
        fn is_hot(&self, v: VertexId) -> bool {
            self.state.lock().hot.peek(&RowKey { kind: KIND_ADJ, vertex: v.0 }).is_some()
        }
    }

    #[test]
    fn every_adjacency_read_bit_exact_vs_graph() {
        let (g, store) = setup(Some(4_000));
        for v in g.vertices() {
            let (nbrs, cdf, _) = store.read_adjacency(v);
            let oracle = g.out_neighbors(v);
            assert_eq!(nbrs.len(), oracle.len());
            for (a, b) in nbrs.iter().zip(oracle) {
                assert_eq!(a.vertex, b.vertex);
                assert_eq!(a.weight.to_bits(), b.weight.to_bits());
                assert_eq!(a.edge, b.edge);
            }
            // CDF matches the one the all-hot server would build.
            if !oracle.is_empty() {
                let want = build_cdf(oracle);
                assert_eq!(cdf.len(), want.len());
                for (a, b) in cdf.iter().zip(want.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn budget_is_enforced_with_lru_demotion() {
        let registry = Registry::new();
        let (g, store) = setup_registered(Some(2_000), &registry);
        assert!(store.resident_bytes() <= 2_000);
        for v in g.vertices() {
            store.read_adjacency(v);
            assert!(store.resident_bytes() <= 2_000, "budget burst at {v:?}");
        }
        assert!(store.peak_resident_bytes() <= 2_000);
        // The sweep did press on the budget: the rows at the threshold do
        // not all fit, so admitting one demoted another, while the rows
        // below it passed through.
        let snap = registry.snapshot();
        assert!(snap.counter_total("tier.demotions") > 0, "no demotion: vacuous");
        assert!(snap.counter("tier.admit", &[("outcome", "admitted")]) > 0);
        assert!(snap.counter("tier.admit", &[("outcome", "bypassed")]) > 0);
        // Infinite budget: everything stays hot after a full sweep.
        let (g2, store2) = setup(None);
        for v in g2.vertices() {
            store2.read_adjacency(v);
        }
        let mut hot = 0;
        for v in g2.vertices() {
            if matches!(store2.read_adjacency(v).2, TierRead::Hot) {
                hot += 1;
            }
        }
        assert_eq!(hot, g2.num_vertices());
    }

    #[test]
    fn importance_seeding_puts_hubs_hot() {
        let (g, store) = setup(Some(6_000));
        // The key weighs a row's reads by the bytes each one decodes, so the
        // hubs — the most in-edges, the largest rows — rank first, and the
        // seeded prefix serves them hot from the start.
        let mut hubs: Vec<VertexId> = g.vertices().collect();
        hubs.sort_by_key(|&v| std::cmp::Reverse(g.in_degree(v)));
        assert_eq!(store.ranking[0], hubs[0].0);
        for &hub in &hubs[..8] {
            assert_eq!(store.read_adjacency(hub).2, TierRead::Hot, "{hub:?}");
        }
    }

    #[test]
    fn equal_in_out_ratio_ranks_the_row_that_decodes_more_bytes_first() {
        use aligraph_graph::{EdgeType, GraphBuilder, VertexType};
        // Row 0: 1 out-edge, 3 in-edges. Row 1: 10 out-edges, 30 in-edges.
        // Both have D_in / D_out = 3, so the paper's key ties them and the
        // vertex id would put row 0 first; row 1 is read ten times as often
        // and decodes about nine times the bytes a read.
        let mut b = GraphBuilder::directed();
        b.add_vertices(VertexType(0), 42);
        let mut edge = |s: u32, d: u32| {
            b.add_edge(VertexId(s), VertexId(d), EdgeType(0), 1.0).unwrap();
        };
        edge(0, 2);
        for d in 2..12 {
            edge(1, d);
        }
        for feeder in 12..42 {
            edge(feeder, 1);
            if feeder < 15 {
                edge(feeder, 0);
            }
        }
        let g = Arc::new(b.build());
        let (small, large) = (VertexId(0), VertexId(1));
        assert_eq!(
            g.in_degree(small) * g.out_degree(large),
            g.in_degree(large) * g.out_degree(small)
        );
        let store = TieredStore::build(
            Arc::clone(&g),
            &vec![0; g.num_vertices()],
            1,
            TierConfig::with_budget(None),
            CostModel::default(),
            &Registry::disabled(),
        );
        let enc = |v: VertexId| store.state.lock().adj_segments[0].lookup(v.0).unwrap().len();
        assert!(enc(large) > enc(small));
        assert_eq!(store.ranking[..2], [large.0, small.0]);
    }

    #[test]
    fn feature_rows_roundtrip_and_write_back() {
        let (g, store) = setup(Some(3_000));
        let features = Featurizer::new(8).matrix(&g);
        store.attach_features(&features).unwrap();
        for v in g.vertices().take(200) {
            let (row, _) = store.feature_row(v).unwrap();
            let oracle = features.row(v);
            assert_eq!(row.len(), oracle.len());
            for (a, b) in row.iter().zip(oracle) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Overwrite a row, force demotion pressure, then read it back. The
        // pressure is a feature-row sweep: feature rows are always admitted,
        // where most adjacency rows of this graph pass through.
        let v0 = g.vertices().next().unwrap();
        let new_row: Vec<f32> = (0..8).map(|i| i as f32 * 0.25).collect();
        store.write_row(v0, &new_row);
        for v in g.vertices().skip(1).take(400) {
            store.feature_row(v).unwrap();
        }
        store.flush_writeback().unwrap();
        let (row, how) = store.feature_row(v0).unwrap();
        assert_eq!(&row[..], &new_row[..], "dirty row survived demotion via writeback");
        assert_eq!(how, TierRead::Cold, "the row was demoted and came back from its segment");
    }

    #[test]
    fn drop_dirty_eviction_loses_writes() {
        // The bug the writeback exists to prevent: a dirty row's hot copy is
        // its only copy, so a demotion that dropped it without writing it
        // back would serve the old segment bytes again.
        let (g, store) = setup(Some(2_000));
        let features = Featurizer::new(8).matrix(&g);
        store.attach_features(&features).unwrap();
        let v0 = g.vertices().next().unwrap();
        store.write_row(v0, &[9.0; 8]);
        {
            let mut state = store.state.lock();
            let row = state.hot.remove(&RowKey { kind: KIND_FEAT, vertex: v0.0 });
            state.hot_bytes -= row.expect("a written row is hot").bytes();
        }
        let (row, how) = store.feature_row(v0).unwrap();
        assert_eq!(how, TierRead::Cold);
        assert_eq!(&row[..], features.row(v0), "dropping the hot copy loses the write");
    }

    #[test]
    fn prefetch_overlaps_and_double_buffers() {
        let registry = Registry::new();
        let (g, store) = setup_registered(Some(2_000), &registry);
        // A row the admission rule takes but the seeded prefix did not
        // reach, a pass-through row of the same shard, and a stretch of
        // vertices of every shard.
        let qualifying =
            g.vertices().find(|&v| store.is_important(v.0) && !store.is_hot(v)).unwrap();
        let shard = store.owner[qualifying.index()] as usize;
        let bypassed = g
            .vertices()
            .find(|&v| !store.is_important(v.0) && store.is_resident(shard, v.0))
            .unwrap();
        let frontier: Vec<VertexId> =
            g.vertices().skip(50).take(16).chain([qualifying, bypassed, bypassed]).collect();
        let expected: Vec<bool> =
            frontier.iter().map(|&v| store.is_resident(shard, v.0) && !store.is_hot(v)).collect();
        let issued = store.prefetch(shard, &frontier);
        // Staged: exactly the rows resident on the issuing shard and not hot.
        assert_eq!(issued + 1, expected.iter().filter(|&&e| e).count(), "one row is named twice");
        assert!(expected.contains(&false), "the frontier must also hold rows that are skipped");
        for (&v, &want) in frontier.iter().zip(&expected) {
            assert_eq!(store.is_prefetched(v), want, "{v:?}");
        }
        let (_, _, how) = store.read_adjacency(qualifying);
        assert_eq!(how, TierRead::Prefetched);
        // Second read of the same row is hot now.
        assert_eq!(store.read_adjacency(qualifying).2, TierRead::Hot);
        assert!(!store.is_prefetched(qualifying), "an admitted row leaves the stage");
        // A staged pass-through row is admitted nowhere and serves exactly
        // the reads its frontier announced: named twice, it is decoded once,
        // served twice, and gone.
        let resident = store.resident_bytes();
        assert_eq!(store.read_adjacency(bypassed).2, TierRead::Prefetched);
        assert_eq!(store.read_adjacency(bypassed).2, TierRead::Prefetched);
        assert_eq!(store.read_adjacency(bypassed).2, TierRead::Cold);
        assert_eq!(store.resident_bytes(), resident);
        // A new frontier swaps the double buffer: a row it names again is
        // carried over, the rest are gone — the ones never read as wasted.
        let unread: Vec<VertexId> =
            frontier.iter().copied().filter(|&v| store.is_prefetched(v)).collect();
        assert!(unread.len() > 1);
        assert_eq!(store.prefetch(shard, &unread[..1]), 0, "carried over, not decoded again");
        assert!(store.is_prefetched(unread[0]));
        assert!(!unread[1..].iter().any(|&v| store.is_prefetched(v)));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("tier.prefetch.issued", &[]), issued as u64);
        assert_eq!(snap.counter("tier.prefetch.wasted", &[]), unread.len() as u64 - 1);
    }

    #[test]
    fn cluster_prefetch_stages_only_rows_local_to_the_issuing_worker() {
        use crate::cluster::Cluster;
        use aligraph_partition::WorkerId;
        let g = Arc::new(TaobaoConfig::tiny().generate().unwrap());
        let registry = Registry::new();
        let (cluster, _) = Cluster::builder(Arc::clone(&g))
            .shards(2)
            .registry(&registry)
            .tier_config(TierConfig::with_budget(Some(2_000)))
            .build();
        let tier = cluster.tier().unwrap();
        // A mixed frontier: both shards' vertices, hot and cold rows.
        let frontier: Vec<VertexId> = g.vertices().collect();
        let local_cold: Vec<VertexId> = frontier
            .iter()
            .copied()
            .filter(|&v| tier.is_resident(0, v.0) && !tier.is_hot(v))
            .collect();
        assert!(!local_cold.is_empty() && local_cold.len() < frontier.len());
        assert!(frontier.iter().any(|&v| tier.is_resident(0, v.0) && tier.is_hot(v)));
        let issued = cluster.prefetch(WorkerId(0), &frontier);
        assert_eq!(issued, local_cold.len(), "issued = the local rows that were not hot");
        for &v in &frontier {
            assert_eq!(tier.is_prefetched(v), local_cold.contains(&v), "{v:?}");
        }
        // Everything staged is something worker 0 reads from the tier:
        // nothing is wasted when the frontier is then read.
        for &v in &frontier {
            cluster.neighbors_from(WorkerId(0), v, 1).unwrap();
        }
        cluster.prefetch(WorkerId(0), &[]);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("tier.prefetch.issued", &[]), issued as u64);
        assert_eq!(snap.counter("tier.prefetch.wasted", &[]), 0);
        // An out-of-range worker and an untiered cluster issue nothing.
        assert_eq!(cluster.prefetch(WorkerId(7), &frontier), 0);
        let (untiered, _) = Cluster::builder(g).shards(2).build();
        assert_eq!(untiered.prefetch(WorkerId(0), &frontier), 0);
    }

    /// One hub larger than the whole budget, ten mid rows of equal degrees
    /// that overflow the budget between them, and a tail of key-0
    /// singletons (no in-edges) small enough to fit any remainder.
    fn hub_and_singletons() -> Arc<AttributedHeterogeneousGraph> {
        use aligraph_graph::{EdgeType, GraphBuilder, VertexType};
        let mut b = GraphBuilder::directed();
        b.add_vertices(VertexType(0), 111);
        let mut edge = |s: u32, d: u32| {
            b.add_edge(VertexId(s), VertexId(d), EdgeType(0), 1.0).unwrap();
        };
        for item in 1..=10u32 {
            // Hub 0: 40 out-edges (1 152 B decoded), in-edges from every
            // singleton: the top of the ranking.
            for _ in 0..4 {
                edge(0, item);
            }
            // Items 1..=10: 5 out-edges (172 B), 9 in-edges.
            for k in 1..=5 {
                edge(item, (item - 1 + k) % 10 + 1);
            }
        }
        // Singletons 11..=110: one out-edge (60 B), no in-edge: key 0.
        for single in 11..=110u32 {
            edge(single, 0);
        }
        Arc::new(b.build())
    }

    #[test]
    fn threshold_sits_at_the_cut_and_gates_admission() {
        let g = hub_and_singletons();
        let registry = Registry::new();
        let store = TieredStore::build(
            Arc::clone(&g),
            &vec![0; g.num_vertices()],
            1,
            TierConfig::with_budget(Some(1_000)),
            CostModel::default(),
            &registry,
        );
        let (hub, single) = (VertexId(0), VertexId(11));
        let key = |v: VertexId| store.importance[v.index()];
        // The hub ranks above every item and alone exceeds the budget: it is
        // skipped, not taken for the threshold.
        assert_eq!(store.ranking[0], hub.0);
        assert!(adjacency_bytes(g.out_degree(hub)) > 1_000 && !store.is_hot(hub));
        assert_ne!(store.tau, key(hub));
        // The items rank next. Five 172 B items fit 1 000 B: the seeded rows
        // are that ranked prefix, and `τ` is the key of the sixth, the first
        // ranked row that does not fit.
        let items: Vec<VertexId> = store.ranking[1..11].iter().map(|&v| VertexId(v)).collect();
        assert!(items.iter().all(|v| (1..=10).contains(&v.0)));
        assert!(items[..5].iter().all(|&v| store.is_hot(v)));
        assert!(!items[5..].iter().any(|&v| store.is_hot(v)));
        let (seeded, at_cut) = (items[4], items[5]);
        assert_eq!(store.tau, key(at_cut));
        assert_eq!(store.resident_bytes(), 5 * 172);
        // The 60 B singletons that would fit the remainder are not seeded,
        // and their key is not the threshold.
        assert!(!store.is_hot(single) && key(single) < store.tau);
        let demotions = || registry.snapshot().counter_total("tier.demotions");
        let admit = |outcome| registry.snapshot().counter("tier.admit", &[("outcome", outcome)]);
        // The hub is important enough but never fits: cold every time,
        // evicting nothing. A singleton is below the threshold: the same.
        for v in [hub, hub, single, single] {
            let (nbrs, cdf, how) = store.read_adjacency(v);
            assert_eq!(how, TierRead::Cold);
            assert_eq!(&nbrs[..], g.out_neighbors(v));
            assert_eq!(cdf.len(), nbrs.len());
            assert!(!store.is_hot(v));
        }
        assert_eq!((demotions(), store.resident_bytes()), (0, 5 * 172));
        assert_eq!((admit("admitted"), admit("bypassed")), (0, 4));
        // A row at the threshold qualifies: cold once, then hot, at the
        // price of the least recently used seeded row.
        assert_eq!(store.read_adjacency(at_cut).2, TierRead::Cold);
        assert_eq!(store.read_adjacency(at_cut).2, TierRead::Hot);
        assert_eq!((demotions(), store.resident_bytes()), (1, 5 * 172));
        assert_eq!((admit("admitted"), admit("bypassed")), (1, 4));
        assert!(!store.is_hot(seeded), "the lowest-ranked seeded row went first");
        assert!(store.peak_resident_bytes() <= 1_000);

        // A budget that holds the hub and every item puts the cut inside the
        // key-0 tail, where the key ranks nothing: the threshold is 0 and
        // the remainder is plain LRU over the singletons.
        let roomy = TieredStore::build(
            Arc::clone(&g),
            &vec![0; g.num_vertices()],
            1,
            TierConfig::with_budget(Some(3_000)),
            CostModel::default(),
            &Registry::disabled(),
        );
        assert_eq!(roomy.tau, 0.0);
        assert_eq!(roomy.resident_bytes(), 1_152 + 10 * 172 + 2 * 60);
        assert!(roomy.is_hot(hub) && roomy.is_hot(at_cut) && roomy.is_hot(single));
        let unseeded = VertexId(20);
        assert_eq!(roomy.read_adjacency(unseeded).2, TierRead::Cold);
        assert_eq!(roomy.read_adjacency(unseeded).2, TierRead::Hot);
        assert!(!roomy.is_hot(VertexId(12)), "the last seeded singleton made room");
        assert!(roomy.peak_resident_bytes() <= 3_000);
    }

    #[test]
    fn residency_moves_with_extract_absorb_retire() {
        let (g, store) = setup(Some(4_000));
        let v = g.vertices().next().unwrap();
        let home = (0..4).find(|&s| store.is_resident(s, v.0)).unwrap();
        let rec = store.extract(home, v).unwrap();
        assert_eq!(&rec.neighbors[..], g.out_neighbors(v));
        store.ensure_shard(5);
        store.absorb(5, rec);
        assert!(store.is_resident(5, v.0));
        assert!(store.is_resident(home, v.0), "both-sides-serve window");
        store.retire(home, &[v.0]);
        assert!(!store.is_resident(home, v.0));
        assert_eq!(store.extract(home, v), None);
    }

    #[test]
    fn gauges_and_read_counters_publish() {
        let g = Arc::new(TaobaoConfig::tiny().generate().unwrap());
        let part = EdgeCutHash.partition(&g, 2);
        let owners: Vec<u32> = g.vertices().map(|v| part.owner_of(v).0).collect();
        let registry = Registry::new();
        let store = TieredStore::build(
            Arc::clone(&g),
            &owners,
            2,
            TierConfig::with_budget(Some(2_000)),
            CostModel::default(),
            &registry,
        );
        for v in g.vertices().take(50) {
            store.read_adjacency(v);
        }
        let snap = registry.snapshot();
        assert!(snap.gauge("tier.resident_bytes", &[]) > 0);
        assert!(snap.gauge("tier.resident_bytes", &[]) <= 2_000);
        assert!(snap.gauge("tier.segment_bytes", &[]) > 0);
        let reads = snap.counter("tier.reads", &[("src", "hot")])
            + snap.counter("tier.reads", &[("src", "cold")])
            + snap.counter("tier.reads", &[("src", "materialized")]);
        assert_eq!(reads, 50);
        assert!(snap.counter("tier.io.ops", &[("tier", "cold")]) > 0);
        // Every read that was not hot took exactly one admission decision.
        assert_eq!(
            snap.counter_total("tier.admit"),
            reads - snap.counter("tier.reads", &[("src", "hot")])
        );
    }
}
