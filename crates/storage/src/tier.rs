//! Tiered storage: a compressed in-memory cold tier under a byte-budgeted
//! hot set, with the paper's own importance analysis deciding *what* stays
//! hot.
//!
//! A [`TieredStore`] sits beneath the sharded store. At build time every
//! vertex's adjacency row is block-columnar encoded ([`crate::codec`]) into
//! per-shard segments ([`crate::segment`]); feature rows join
//! via [`TieredStore::attach_features`]. The tier is a **cost model over
//! the one shared graph**, as the neighbor cache is: every reader is served
//! the graph's row, so a cold read decodes its row and meters the work but
//! keeps nothing, and the **hot set** holds charges (an adjacency row's id
//! and degree), not copies, under a resident-byte budget
//! ([`TierConfig::resident_budget`]). A hot feature row keeps its data: a
//! written row's hot copy is its only copy.
//!
//! The cold tier is **memory**, as the paper's storage is (§3.1): the
//! segments stay in process memory, and a cold read costs a decode, not a
//! device read. The tier is decode-bound by design; it models compression
//! and decode cost, not storage offloading. The budget therefore bounds
//! the hot set's charges only: it does not count the encoded segments
//! (the `tier.segment_bytes` gauge), the shared graph every shard reads,
//! or the parameter-server and replica copies of the model.
//!
//! **Which adjacency rows it holds** is the paper's threshold rule (§3.2,
//! Algorithm 2), not recency, keyed by what a miss costs here: decoded
//! bytes. A row is read about once per in-edge, each cold read is priced
//! at `dec(v)` bytes (`priced_decode_bytes`: the row's length in a fixed
//! record layout, computed from the graph, so a codec change does not
//! re-rank rows), and it is charged `adjacency_bytes(D_out)` when hot, so
//! the key is decoded bytes saved per resident byte:
//! `D_in(v) × dec(v) / adjacency_bytes(D_out(v))`. (The
//! paper's `Imp = D_in / D_out` counts misses, right when every miss costs
//! the same.) The build ranks the rows by it, seeds the ranked prefix that
//! fits the budget, and records the threshold `τ` as the key of the first
//! ranked row that no longer fits (`plan_hot_set`). From then on an
//! adjacency row is admitted hot iff `key(v) ≥ τ` and it fits the budget
//! alone; any other row is **pass-through**: decoded into
//! one reused row buffer, metered, admitted nowhere and demoting nothing.
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
//! The **prefetch pipeline** ([`TieredStore::prefetch`]) issues the cold
//! decodes of an upcoming sampling frontier ahead of its reads: the
//! sampler announces the next frontier (deterministic issue order — sorted,
//! deduplicated; its server passes only the rows resident on its shard:
//! the rest are read through the neighbor cache or remotely, never from
//! here), and a stage replacing the last counts each row's announced reads.
//! A staged row serves the reads its frontier
//! announced — named twice, it is decoded once — and follows the admission
//! rule like any other: an admitted row moves to the hot set with its first
//! read, a pass-through row leaves with its last. A read served from the
//! stage still counts as a cold op, but only `prefetch_hit_ns` lands on
//! the blocking clock ([`crate::cost::AccessStats::record_overlapped_cold`]);
//! the full `cold_ns` is charged to the overlapped storage clock
//! (`tier.io.virtual_ns`). Everything is virtual-tick metered — no wall
//! clock anywhere near a seeded path.
//!
//! Dirty feature rows ([`TieredStore::write_row`]) are written back on
//! demotion into fresh segment generations (sorted, deterministic bytes).
//!
//! **Each shard owns its tier state**: its hot-row LRU, feature
//! generations, writeback staging, prefetch stage and row buffer sit
//! behind that shard's own lock, under its share of the budget (the bytes
//! of the seeded rows it owns plus an equal split of the slack, so the
//! shares sum to the budget; `τ` is global). Residency is not tier state:
//! each [`crate::server::GraphServer`] keeps its own bits and reaches its
//! tier slot only for a row resident on it, so each shard's hot set is a
//! function of its own reader's sequence, and training workers sample at
//! once. The immutable adjacency segments, the key and the ranking are
//! read outside every lock; the entry points that name no shard route to
//! the owner.

use crate::codec::{
    decode_adjacency_into, decode_feature_row, encode_adjacency, encode_feature_row, zigzag,
};
use crate::cost::{AccessKind, CostModel, TierMeter};
use crate::lru::LruCache;
use crate::segment::{Segment, SegmentError, SegmentKind};
use crate::server::VertexRecord;
use aligraph_graph::{AttributedHeterogeneousGraph, FeatureMatrix, Neighbor, VertexId};
use aligraph_telemetry::{Counter, Gauge, Registry};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Cold-tier configuration.
#[derive(Debug, Clone, Default)]
pub struct TierConfig {
    /// Byte cap on the hot set's charges. `None` = unbounded (every row hot
    /// — the oracle configuration). Segments and the graph are not counted.
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
    /// Served from the prefetch stage (decode overlapped).
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

/// One hot row: an adjacency row is its charge (the row is the shared
/// graph's), a feature row its data.
#[derive(Debug, Clone)]
enum HotRow {
    Adjacency { degree: usize },
    Feature { row: Arc<[f32]>, dirty: bool },
}

/// What the resident budget charges for one neighbor of a hot adjacency
/// row: the pinned budget unit (28 B), which over-bounds the 16-byte
/// [`Neighbor`] a decoded row would take. `τ`, the hot set and `perf/`'s
/// budget-share check (its `train_tiered` budget is sized at 28 B a
/// degree) are all calibrated to it; re-fitting it to 16 B moves them
/// together: ROADMAP item 2 (d).
const CHARGED_NEIGHBOR_BYTES: u64 = 28;

impl HotRow {
    /// What the row is charged against the resident budget.
    fn bytes(&self) -> u64 {
        match self {
            HotRow::Adjacency { degree } => adjacency_bytes(*degree),
            HotRow::Feature { row, .. } => 32 + row.len() as u64 * 4,
        }
    }
}

/// [`HotRow::bytes`] of an adjacency row of `degree` neighbors.
fn adjacency_bytes(degree: usize) -> u64 {
    32 + degree as u64 * CHARGED_NEIGHBOR_BYTES
}

/// What the admission key prices one cold read of `v`'s adjacency row at:
/// the row's length in the record layout the key was fitted on, segment
/// version 1 — a count varint, then per record a zigzag vertex delta, the
/// etype byte, the 4-byte weight, the attr varint and a zigzag delta of the
/// edge id (its out-record position). The price is a unit of the graph's
/// rows, computed from the graph, not read from a segment, so a change to
/// the codec's byte layout moves the encoded bytes (`tier.segment_bytes`,
/// `tier.io.bytes`) and leaves the ranking, `τ` and the hot set where they
/// are. It counts what a decode produces, a record for a record, not the
/// bytes of any one encoding: the version-3 segment row is shorter.
fn priced_decode_bytes(graph: &AttributedHeterogeneousGraph, v: VertexId) -> u64 {
    let varint_len = |x: u64| u64::from((64 - x.leading_zeros()).max(1).div_ceil(7));
    let nbrs = graph.out_neighbors(v);
    let mut bytes = varint_len(nbrs.len() as u64);
    let (mut prev_vertex, mut prev_edge) = (0i64, 0i64);
    for (e, n) in graph.out_edge_ids(v).zip(nbrs) {
        let (vertex, edge) = (i64::from(n.vertex.0), e as i64);
        bytes += varint_len(zigzag(vertex - prev_vertex))
            + 5
            + varint_len(u64::from(n.attr.0))
            + varint_len(zigzag(edge - prev_edge));
        (prev_vertex, prev_edge) = (vertex, edge);
    }
    bytes
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

/// One row of the prefetch stage, decoded when its frontier was issued. It
/// serves exactly the reads its frontier announced (named twice, decoded
/// once) and leaves, so the stage never turns into an uncharged cache.
#[derive(Debug)]
struct Staged {
    /// How many times the announced frontier names the row.
    announced: u32,
    /// Reads served from it since; a row still at 0 when the next frontier
    /// replaces it was wasted.
    served: u32,
}

/// One shard's mutable tier state, behind that shard's own lock. A worker's
/// tier reads touch only its own shard, so each shard's hot set is a
/// function of that worker's read sequence alone, whatever the other
/// workers do meanwhile.
#[derive(Debug)]
struct ShardTier {
    /// This shard's slot in the store's tables.
    slot: usize,
    /// This shard's share of the resident budget (`None` = unbounded); see
    /// [`budget_shares`].
    budget: Option<u64>,
    /// Hot rows, recency-ordered. Count capacity equals the maximum
    /// possible live entries (one adjacency + one feature row per vertex),
    /// so count-eviction never fires; the byte budget is enforced here.
    hot: LruCache<RowKey, HotRow>,
    hot_bytes: u64,
    peak_hot_bytes: u64,
    /// What this shard has added to the `tier.resident_bytes`,
    /// `tier.peak_resident_bytes` and `tier.hot_rows` gauges: each gauge
    /// is the sum of the shards' parts.
    published: [i64; 3],
    /// Feature segment generations of the rows this shard owns, oldest
    /// first; empty until features are attached.
    feat_segments: Vec<Segment>,
    /// Dirty rows demoted but not yet flushed into a segment. A `BTreeMap`
    /// so the flush drains in sorted vertex order — one canonical byte
    /// stream per logical content.
    writeback_pending: BTreeMap<u32, Arc<[f32]>>,
    /// The prefetch stage: the adjacency rows the announced frontier is
    /// about to read, their decodes already issued.
    prefetch_active: HashMap<u32, Staged>,
    /// The row buffer every cold adjacency decode lands in, reused across
    /// reads: one row at a time, bounded by the largest row, and not
    /// charged to the budget. Only [`TieredStore::read_adjacency`] hands
    /// out what it holds.
    row_nbrs: Vec<Neighbor>,
}

impl ShardTier {
    fn new(slot: usize, budget: Option<u64>, vertices: usize) -> Self {
        ShardTier {
            slot,
            budget,
            // One adjacency plus one feature row per vertex is the hard cap
            // on live hot entries.
            hot: LruCache::new(2 * vertices + 2),
            hot_bytes: 0,
            peak_hot_bytes: 0,
            published: [0; 3],
            feat_segments: Vec::new(),
            writeback_pending: BTreeMap::new(),
            prefetch_active: HashMap::new(),
            row_nbrs: Vec::new(),
        }
    }
}

/// One shard's tier state behind its lock.
type ShardHandle = Arc<Mutex<ShardTier>>;

/// The out-of-core tier beneath a cluster's shards. One instance is shared
/// by every [`crate::server::GraphServer`] of a tiered cluster; each shard's
/// hot set, prefetch stage and feature generations sit behind that shard's
/// own lock.
#[derive(Debug)]
pub struct TieredStore {
    graph: Arc<AttributedHeterogeneousGraph>,
    /// Build-time owner of each vertex — the shard whose segments hold its
    /// rows (stable across migrations; adjacency is immutable).
    owner: Vec<u32>,
    /// The admission key per vertex — decoded bytes saved per resident
    /// byte, `D_in(v) × dec(v) / adjacency_bytes(D_out(v))`, 0 for a row no
    /// edge points at — computed once per build from the graph.
    importance: Vec<f64>,
    /// Vertex ids by descending key, vertex id as the deterministic
    /// tie-break.
    ranking: Vec<u32>,
    /// The admission threshold, one for every shard: the key of the first
    /// ranked row the budget could not seed (0 when every row fits or there
    /// is no budget) — see [`plan_hot_set`].
    tau: f64,
    cfg: TierConfig,
    cost: CostModel,
    /// One adjacency segment per build shard. Adjacency is immutable, so it
    /// has one generation and is read outside every lock.
    adj_segments: Vec<Segment>,
    /// Per-shard state of the build's shards, indexed by slot. Fixed for
    /// the store's life, so a read reaches its shard without a table lock.
    built: Box<[ShardHandle]>,
    /// The slots splits add after the build ([`TieredStore::ensure_shard`]),
    /// from `built.len()` on.
    added: RwLock<Vec<ShardHandle>>,
    metrics: TierMetrics,
    /// Cold-tier I/O metering: every segment decode records a `Cold` op
    /// with its encoded bytes on the overlapped storage clock
    /// (`tier.io.virtual_ns`).
    io_meter: TierMeter,
}

impl TieredStore {
    /// Builds the tier: encodes every vertex's adjacency into its owner
    /// shard's generation-0 segment (`owners`), computes the admission key
    /// and ranking (one pass over the segments' index, one sort per build),
    /// and admits the highest-ranked rows hot until the budget is reached,
    /// which fixes the threshold `τ` and each shard's budget share.
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
        let adj_segments: Vec<Segment> = rows
            .into_iter()
            .enumerate()
            .map(|(shard, shard_rows)| {
                Segment::build(SegmentKind::Adjacency, shard as u16, shard_rows)
            })
            .collect();
        // Decoded bytes saved per resident byte: reads × the bytes a cold
        // read is priced at, over the bytes the row is charged hot.
        let importance: Vec<f64> = graph
            .vertices()
            .map(|v| {
                let saved = graph.in_degree(v) as f64 * priced_decode_bytes(&graph, v) as f64;
                saved / adjacency_bytes(graph.out_degree(v)) as f64
            })
            .collect();
        let mut ranking: Vec<u32> = graph.vertices().map(|v| v.0).collect();
        ranking.sort_by(|&a, &b| {
            importance[b as usize].total_cmp(&importance[a as usize]).then(a.cmp(&b))
        });
        let (seeds, tau) = plan_hot_set(&graph, &importance, &ranking, cfg.resident_budget);
        let n = graph.num_vertices();
        let mut states: Vec<ShardTier> =
            budget_shares(&graph, owners, shards, &seeds, cfg.resident_budget)
                .into_iter()
                .enumerate()
                .map(|(slot, share)| ShardTier::new(slot, share, n))
                .collect();
        let metrics = TierMetrics::registered(registry);
        metrics
            .segment_bytes
            .add(adj_segments.iter().map(Segment::encoded_bytes).sum::<u64>() as i64);
        let mut store = TieredStore {
            graph,
            owner: owners.to_vec(),
            importance,
            ranking,
            tau,
            cfg,
            cost,
            adj_segments,
            built: Box::default(),
            added: RwLock::new(Vec::new()),
            metrics,
            io_meter: TierMeter::registered(registry, "tier.io"),
        };
        // Least important first, so the least important hot row is also the
        // least recently used — the first demotion victim.
        for &v in seeds.iter().rev() {
            let degree = store.graph.out_degree(VertexId(v));
            store.admit(
                &mut states[owners[v as usize] as usize],
                RowKey { kind: KIND_ADJ, vertex: v },
                HotRow::Adjacency { degree },
            );
        }
        for st in &mut states {
            store.publish_gauges(st);
        }
        store.built = states.into_iter().map(|st| Arc::new(Mutex::new(st))).collect();
        Arc::new(store)
    }

    /// Runs `f` on shard `slot`'s state under its lock (`None` past the
    /// last slot).
    fn on_shard<R>(&self, slot: usize, f: impl FnOnce(&mut ShardTier) -> R) -> Option<R> {
        if let Some(shard) = self.built.get(slot) {
            return Some(f(&mut shard.lock()));
        }
        let added = self.added.read();
        let shard = added.get(slot - self.built.len())?;
        let out = f(&mut shard.lock());
        Some(out)
    }

    /// Every shard's state, build slots first.
    fn all_shards(&self) -> Vec<ShardHandle> {
        self.built.iter().chain(self.added.read().iter()).cloned().collect()
    }

    /// Runs `f` on the state of the shard whose segments hold `v`'s rows:
    /// the entry points that name no shard read through the owner. `None`
    /// past the graph.
    fn on_owner<R>(&self, v: VertexId, f: impl FnOnce(&mut ShardTier) -> R) -> Option<R> {
        let slot = *self.owner.get(v.index())? as usize;
        Some(f(&mut self.built[slot].lock()))
    }

    /// Encodes every vertex's feature row into its owner shard's feature
    /// segment and admits each shard's highest-ranked rows hot under what
    /// remains of its budget share.
    pub fn attach_features(&self, features: &FeatureMatrix) -> Result<(), SegmentError> {
        let mut rows: Vec<Vec<(u32, Vec<u8>)>> = vec![Vec::new(); self.num_shards()];
        for v in self.graph.vertices() {
            let mut buf = Vec::new();
            encode_feature_row(features.row(v), &mut buf);
            rows[self.owner[v.index()] as usize].push((v.0, buf));
        }
        let row_sz = 32 + features.dim as u64 * 4;
        for (slot, shard_rows) in rows.into_iter().enumerate() {
            self.on_shard(slot, |st| {
                let seg = Segment::build(SegmentKind::Feature, slot as u16, shard_rows);
                let old: u64 = st.feat_segments.iter().map(Segment::encoded_bytes).sum();
                self.metrics.segment_bytes.add(seg.encoded_bytes() as i64 - old as i64);
                st.feat_segments = vec![seg];
                // Admit hot feature rows for the shard's ranked prefix that
                // still fits its share.
                let mut chosen = Vec::new();
                let mut bytes = st.hot_bytes;
                for &v in self.ranking.iter().filter(|&&v| self.owner[v as usize] as usize == slot)
                {
                    if st.budget.is_some_and(|budget| bytes + row_sz > budget) {
                        break;
                    }
                    bytes += row_sz;
                    chosen.push(v);
                }
                for &v in chosen.iter().rev() {
                    let row: Arc<[f32]> = features.row(VertexId(v)).into();
                    self.admit(
                        st,
                        RowKey { kind: KIND_FEAT, vertex: v },
                        HotRow::Feature { row, dirty: false },
                    );
                }
                self.publish_gauges(st);
            });
        }
        Ok(())
    }

    /// The configured budget: the sum of the shards' shares.
    pub fn budget(&self) -> Option<u64> {
        self.cfg.resident_budget
    }

    /// Number of shards with segment storage.
    pub fn num_shards(&self) -> usize {
        self.adj_segments.len()
    }

    /// Current decoded hot bytes, summed over the shards (the
    /// `tier.resident_bytes` gauge).
    pub fn resident_bytes(&self) -> u64 {
        self.all_shards().iter().map(|s| s.lock().hot_bytes).sum()
    }

    /// The sum of the shards' high-water marks of decoded hot bytes: at
    /// most the budget, since no shard exceeds its share.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.all_shards().iter().map(|s| s.lock().peak_hot_bytes).sum()
    }

    /// Grows the per-shard tables to cover `slot` (a split's new shard). A
    /// new slot's budget share is 0: its rows pass through.
    pub(crate) fn ensure_shard(&self, slot: usize) {
        let mut added = self.added.write();
        while self.built.len() + added.len() <= slot {
            let share = self.cfg.resident_budget.map(|_| 0);
            let st =
                ShardTier::new(self.built.len() + added.len(), share, self.graph.num_vertices());
            added.push(Arc::new(Mutex::new(st)));
        }
    }

    /// Reads one adjacency row through its owner shard: a `Cold` read hands
    /// out the row it decoded, any other the shared graph's (a hot row is a
    /// charge, not a copy). Always bit-exact against
    /// `graph.out_neighbors(v)`; the second tuple element says how the read
    /// was served. `None` past the graph.
    pub fn read_adjacency(&self, v: VertexId) -> Option<(Arc<[Neighbor]>, TierRead)> {
        self.on_owner(v, |st| {
            let how = self.read_row(st, v);
            let nbrs = match how {
                TierRead::Cold => st.row_nbrs.as_slice().into(),
                _ => self.graph.out_neighbors(v).into(),
            };
            (nbrs, how)
        })
    }

    /// Meters one adjacency read of `v` from `shard` without handing out the
    /// data — what [`crate::server::GraphServer::classify`] needs for a
    /// vertex resident on it: hot lookup and cold decode under that shard's
    /// lock. `None` past the last slot.
    pub(crate) fn classify(&self, shard: usize, v: VertexId) -> Option<TierRead> {
        self.on_shard(shard, |st| self.read_row(st, v))
    }

    /// The one adjacency read every entry point goes through: the shard's
    /// hot set, then its prefetch stage, then a cold decode into its reused
    /// row buffer. Counts the read by source and applies the admission rule
    /// to a row that was not hot, charging an admitted row by its degree.
    fn read_row(&self, st: &mut ShardTier, v: VertexId) -> TierRead {
        let key = RowKey { kind: KIND_ADJ, vertex: v.0 };
        if st.hot.get(&key).is_some() {
            self.metrics.read(TierRead::Hot);
            return TierRead::Hot;
        }
        // A staged row serves the reads its frontier announced.
        let spent = st.prefetch_active.get_mut(&v.0).map(|staged| {
            staged.served += 1;
            staged.served >= staged.announced
        });
        let how = match spent {
            Some(_) => TierRead::Prefetched,
            None => self.decode_cold(st, v),
        };
        self.metrics.read(how);
        // The decoded length, without reading the decode.
        let degree = self.graph.out_degree(v);
        let admitted = self.admits(st.budget, v.0, degree);
        if spent.is_some_and(|spent| admitted || spent) {
            // An admitted row moves from the stage to the hot set; a
            // pass-through row leaves with its last announced read.
            st.prefetch_active.remove(&v.0);
        }
        if admitted {
            self.admit(st, key, HotRow::Adjacency { degree });
            self.publish_gauges(st);
        }
        how
    }

    /// The admission rule for an adjacency row that is not hot: `key(v) ≥ τ`
    /// and the row fits the shard's `budget` share alone. Counted where it
    /// is decided (`tier.admit{outcome}`).
    fn admits(&self, budget: Option<u64>, v: u32, degree: usize) -> bool {
        let oversized = budget.is_some_and(|b| adjacency_bytes(degree) > b);
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

    /// Decodes `v`'s adjacency row into the shard's reused row buffer from
    /// its owner shard's segment, metering the cold I/O.
    fn decode_cold(&self, st: &mut ShardTier, v: VertexId) -> TierRead {
        let owner = self.owner.get(v.index()).copied().unwrap_or(0) as usize;
        if let Some(bytes) = self.adj_segments.get(owner).and_then(|seg| seg.lookup(v.0)) {
            if decode_adjacency_into(bytes, &mut st.row_nbrs).is_ok() {
                self.io_meter.record(AccessKind::Cold, bytes.len() as u64, &self.cost);
                return TierRead::Cold;
            }
        }
        // Not in the segment (or undecodable): the shared graph serves the
        // row — correctness never depends on the cold copy.
        TierRead::Materialized
    }

    /// Reads one feature row through its owner shard. `None` when no
    /// features are attached or `v` is out of range.
    pub fn feature_row(&self, v: VertexId) -> Option<(Arc<[f32]>, TierRead)> {
        let key = RowKey { kind: KIND_FEAT, vertex: v.0 };
        self.on_owner(v, |st| {
            if let Some(HotRow::Feature { row, .. }) = st.hot.get(&key) {
                let out = (Arc::clone(row), TierRead::Hot);
                self.metrics.read(TierRead::Hot);
                return Some(out);
            }
            if let Some(row) = st.writeback_pending.remove(&v.0) {
                // A demoted-dirty row read back before its flush: promote it
                // hot again, still dirty.
                self.admit(st, key, HotRow::Feature { row: Arc::clone(&row), dirty: true });
                self.publish_gauges(st);
                self.metrics.read(TierRead::Hot);
                return Some((row, TierRead::Hot));
            }
            let (row, bytes) = st.feat_segments.iter().rev().find_map(|seg| {
                let bytes = seg.lookup(v.0)?;
                decode_feature_row(bytes).ok().map(|row| (Arc::<[f32]>::from(row), bytes.len()))
            })?;
            self.io_meter.record(AccessKind::Cold, bytes as u64, &self.cost);
            self.admit(st, key, HotRow::Feature { row: Arc::clone(&row), dirty: false });
            self.publish_gauges(st);
            self.metrics.read(TierRead::Cold);
            Some((row, TierRead::Cold))
        })
        .flatten()
    }

    /// Overwrites one feature row on its owner shard (marked dirty; written
    /// back to a fresh segment generation when demoted). `false`, with
    /// nothing written, past the graph.
    pub fn write_row(&self, v: VertexId, row: &[f32]) -> bool {
        let key = RowKey { kind: KIND_FEAT, vertex: v.0 };
        self.on_owner(v, |st| {
            st.writeback_pending.remove(&v.0);
            if let Some(old) = st.hot.remove(&key) {
                st.hot_bytes -= old.bytes();
            }
            self.admit(st, key, HotRow::Feature { row: row.into(), dirty: true });
            self.publish_gauges(st);
        })
        .is_some()
    }

    /// Announces the next sampling frontier of the worker on `shard`:
    /// decodes each adjacency row that is neither hot nor already staged
    /// (deterministic issue order — sorted, deduplicated), stages every row
    /// that is not hot, and replaces the old stage. The frontier is the
    /// rows resident on `shard`
    /// ([`crate::server::GraphServer::prefetch`] filters it): that worker
    /// reads every other row through its neighbor cache or remotely, never
    /// from the tier. Rows left unread in the old stage count as wasted
    /// prefetch. Decode cost lands on the overlapped storage clock, not the
    /// blocking one. Returns how many rows were issued.
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
        self.on_shard(shard, |st| {
            let mut stage = HashMap::with_capacity(runs.len());
            let mut issued = 0usize;
            for (v, announced) in runs {
                let key = RowKey { kind: KIND_ADJ, vertex: v };
                if st.hot.peek(&key).is_some() {
                    continue;
                }
                // A row still staged from the previous frontier is carried
                // over without re-decoding.
                if st.prefetch_active.remove(&v).is_none() {
                    self.decode_cold(st, VertexId(v));
                    self.metrics.prefetch_virtual_ns.add(self.cost.cold_ns);
                    issued += 1;
                }
                stage.insert(v, Staged { announced, served: 0 });
            }
            self.metrics.prefetch_issued.add(issued as u64);
            let wasted = st.prefetch_active.values().filter(|staged| staged.served == 0).count();
            self.metrics.prefetch_wasted.add(wasted as u64);
            st.prefetch_active = stage;
            issued
        })
        .unwrap_or(0)
    }

    /// Whether `v`'s adjacency row is hot on `shard` (an observer: recency
    /// is not touched).
    pub fn is_hot_on(&self, shard: usize, v: VertexId) -> bool {
        let key = RowKey { kind: KIND_ADJ, vertex: v.0 };
        self.on_shard(shard, |st| st.hot.peek(&key).is_some()).unwrap_or(false)
    }

    /// Whether `v` currently sits in a shard's prefetch buffer (test hook).
    pub fn is_prefetched(&self, v: VertexId) -> bool {
        self.all_shards().iter().any(|s| s.lock().prefetch_active.contains_key(&v.0))
    }

    /// Forces every shard's writeback staging area into a segment
    /// generation (called at epoch boundaries and before reads that must
    /// see every write durable).
    pub fn flush_writeback(&self) -> Result<(), SegmentError> {
        for shard in self.all_shards() {
            self.flush_writeback_locked(&mut shard.lock());
        }
        Ok(())
    }

    fn flush_writeback_locked(&self, st: &mut ShardTier) {
        if st.writeback_pending.is_empty() {
            return;
        }
        // BTreeMap drains in vertex order — deterministic segment bytes.
        let rows: Vec<(u32, Vec<u8>)> = std::mem::take(&mut st.writeback_pending)
            .into_iter()
            .map(|(v, row)| {
                let mut buf = Vec::new();
                encode_feature_row(&row, &mut buf);
                (v, buf)
            })
            .collect();
        self.metrics.writeback_rows.add(rows.len() as u64);
        let seg = Segment::build(SegmentKind::Feature, st.slot as u16, rows);
        self.metrics.segment_bytes.add(seg.encoded_bytes() as i64);
        st.feat_segments.push(seg);
        self.metrics.writeback_segments.inc();
    }

    /// Offers one migrated vertex record to `shard`'s hot set — a freshly
    /// migrated row is about to be read — which charges the row by the
    /// record's degree when the admission rule takes it under that shard's
    /// share.
    pub(crate) fn absorb(&self, shard: usize, rec: VertexRecord) {
        self.on_shard(shard, |st| {
            let degree = rec.degree as usize;
            if !self.admits(st.budget, rec.vertex.0, degree) {
                return;
            }
            self.admit(
                st,
                RowKey { kind: KIND_ADJ, vertex: rec.vertex.0 },
                HotRow::Adjacency { degree },
            );
            self.publish_gauges(st);
        });
    }

    /// Inserts a hot row and demotes the shard's LRU victims until its
    /// budget share holds.
    fn admit(&self, st: &mut ShardTier, key: RowKey, row: HotRow) {
        let sz = row.bytes();
        if let Some(old) = st.hot.remove(&key) {
            st.hot_bytes -= old.bytes();
        }
        st.hot.put(key, row);
        st.hot_bytes += sz;
        if let Some(budget) = st.budget {
            while st.hot_bytes > budget {
                let Some((&victim, _)) = st.hot.iter_lru().next() else { break };
                self.demote(st, victim);
            }
        }
        st.peak_hot_bytes = st.peak_hot_bytes.max(st.hot_bytes);
    }

    fn demote(&self, st: &mut ShardTier, key: RowKey) {
        let Some(row) = st.hot.remove(&key) else { return };
        st.hot_bytes -= row.bytes();
        match row {
            // A dirty row's hot copy is its only copy: it is written back
            // into a fresh segment generation before it leaves.
            HotRow::Feature { row, dirty: true } => {
                self.metrics.demote_writeback.inc();
                st.writeback_pending.insert(key.vertex, row);
                if st.writeback_pending.len() >= WRITEBACK_FLUSH_ROWS {
                    self.flush_writeback_locked(st);
                }
            }
            _ => self.metrics.demote_clean.inc(),
        }
    }

    /// Adds what changed in the shard's hot bytes, peak and row count since
    /// its last publish to the store-wide gauges, so each gauge ends on the
    /// sum over the shards whatever order they published in.
    fn publish_gauges(&self, st: &mut ShardTier) {
        let now = [st.hot_bytes as i64, st.peak_hot_bytes as i64, st.hot.len() as i64];
        let gauges = [
            &self.metrics.resident_bytes,
            &self.metrics.peak_resident_bytes,
            &self.metrics.hot_rows,
        ];
        for ((gauge, was), now) in gauges.into_iter().zip(&mut st.published).zip(now) {
            gauge.add(now - *was);
            *was = now;
        }
    }
}

/// Splits the budget into one share per build shard: the bytes of the
/// seeded rows the shard owns, plus an equal part of what the seeds left
/// unspent (its odd bytes to the lowest slots), so the shares sum to the
/// budget exactly and every shard's seeds fit its share. `None` for every
/// shard when there is no budget.
fn budget_shares(
    graph: &AttributedHeterogeneousGraph,
    owners: &[u32],
    shards: usize,
    seeds: &[u32],
    budget: Option<u64>,
) -> Vec<Option<u64>> {
    let Some(budget) = budget else { return vec![None; shards] };
    let mut shares = vec![0u64; shards];
    for &v in seeds {
        shares[owners[v as usize] as usize] += adjacency_bytes(graph.out_degree(VertexId(v)));
    }
    let slack = budget - shares.iter().sum::<u64>();
    let (each, odd) = (slack / shards as u64, slack % shards as u64);
    for (slot, share) in shares.iter_mut().enumerate() {
        *share += each + u64::from((slot as u64) < odd);
    }
    shares.into_iter().map(Some).collect()
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
            (0..self.all_shards().len()).any(|shard| self.is_hot_on(shard, v))
        }
    }

    #[test]
    fn every_adjacency_read_bit_exact_vs_graph() {
        let (g, store) = setup(Some(4_000));
        for v in g.vertices() {
            let (nbrs, _) = store.read_adjacency(v).unwrap();
            let oracle = g.out_neighbors(v);
            assert_eq!(nbrs.len(), oracle.len());
            for (a, b) in nbrs.iter().zip(oracle) {
                assert_eq!(a.vertex, b.vertex);
                assert_eq!(a.weight.to_bits(), b.weight.to_bits());
                assert_eq!((a.etype, a.attr), (b.etype, b.attr));
            }
        }
        // Past the graph there is no row, as there is no feature row.
        for v in [VertexId(g.num_vertices() as u32), VertexId(u32::MAX)] {
            assert!(store.read_adjacency(v).is_none(), "{v:?}");
        }
    }

    #[test]
    fn a_cold_read_hands_out_its_own_decode_and_the_hot_set_holds_charges() {
        let (g, mut store) = setup(Some(6_000));
        store.attach_features(&Featurizer::new(8).matrix(&g)).unwrap();
        let want = |v: VertexId| g.out_neighbors(v).to_vec();
        // What the hot set is charged, computed from the graph: an
        // adjacency row by its out-degree, a feature row by its data.
        let charges = |store: &TieredStore| -> u64 {
            let key_bytes = |key: &RowKey| match key.kind {
                KIND_ADJ => adjacency_bytes(g.out_degree(VertexId(key.vertex))),
                _ => 32 + 8 * 4,
            };
            hot_sets(store).iter().flatten().map(key_bytes).sum()
        };
        // Rows of one shard that are not hot: three seeded rows demoted,
        // which the admission rule takes back, and pass-through rows. Each
        // read below follows another row's decode through the same row
        // buffer, and no two of these rows are equal, so a row left over
        // from the previous decode shows.
        let shard = store.owner[store.ranking[0] as usize] as usize;
        let of_shard =
            |v: VertexId| store.owner[v.index()] as usize == shard && g.out_degree(v) > 0;
        let kept: Vec<VertexId> =
            g.vertices().filter(|&v| of_shard(v) && store.is_hot(v)).take(3).collect();
        for &v in &kept {
            store.on_owner(v, |st| store.demote(st, RowKey { kind: KIND_ADJ, vertex: v.0 }));
        }
        let passed: Vec<VertexId> =
            g.vertices().filter(|&v| of_shard(v) && !store.is_important(v.0)).collect();
        assert!(kept.len() == 3 && passed.len() >= 6, "too few rows: vacuous");
        let used: Vec<VertexId> = kept.iter().chain(&passed[..6]).copied().collect();
        for (i, &a) in used.iter().enumerate() {
            for &b in &used[i + 1..] {
                assert_ne!(want(a), want(b), "{a:?} and {b:?} have equal rows");
            }
        }
        // Cold: a pass-through decode nobody asks for, then an admitted
        // row, then a pass-through row a caller asks for.
        assert_eq!(store.classify(shard, passed[0]), Some(TierRead::Cold));
        let (nbrs, how) = store.read_adjacency(kept[0]).unwrap();
        assert_eq!((how, nbrs.to_vec()), (TierRead::Cold, want(kept[0])));
        assert!(store.is_hot_on(shard, kept[0]));
        let (nbrs, how) = store.read_adjacency(passed[1]).unwrap();
        assert_eq!((how, nbrs.to_vec()), (TierRead::Cold, want(passed[1])));
        // Prefetched: the stage's decodes ran ahead of these reads, which
        // the graph serves; a cold read after them is its own decode.
        store.prefetch(shard, &[kept[1], passed[2], passed[3]]);
        for v in [kept[1], passed[2], passed[3]] {
            let (nbrs, how) = store.read_adjacency(v).unwrap();
            assert_eq!((how, nbrs.to_vec()), (TierRead::Prefetched, want(v)), "{v:?}");
        }
        assert!(store.is_hot_on(shard, kept[1]));
        let (nbrs, how) = store.read_adjacency(passed[4]).unwrap();
        assert_eq!((how, nbrs.to_vec()), (TierRead::Cold, want(passed[4])));
        assert_eq!(store.resident_bytes(), charges(&store));
        // Materialized: with the shard's segment gone, the graph serves the
        // row, and an admitted row is charged its own degree, not the
        // length of the decode the buffer still holds.
        assert_ne!(g.out_degree(kept[2]), g.out_degree(passed[4]), "equal degrees: vacuous");
        Arc::get_mut(&mut store).unwrap().adj_segments[shard] =
            Segment::build(SegmentKind::Adjacency, shard as u16, Vec::new());
        assert_eq!(store.classify(shard, passed[5]), Some(TierRead::Materialized));
        let (nbrs, how) = store.read_adjacency(kept[2]).unwrap();
        assert_eq!((how, nbrs.to_vec()), (TierRead::Materialized, want(kept[2])));
        assert!(store.is_hot_on(shard, kept[2]));
        assert_eq!(store.resident_bytes(), charges(&store));
    }

    #[test]
    fn budget_is_enforced_with_lru_demotion() {
        let registry = Registry::new();
        let (g, store) = setup_registered(Some(3_000), &registry);
        assert!(store.resident_bytes() <= 3_000);
        for v in g.vertices() {
            store.read_adjacency(v);
            assert!(store.resident_bytes() <= 3_000, "budget burst at {v:?}");
        }
        assert!(store.peak_resident_bytes() <= 3_000);
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
            if matches!(store2.read_adjacency(v).unwrap().1, TierRead::Hot) {
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
            assert_eq!(store.read_adjacency(hub).unwrap().1, TierRead::Hot, "{hub:?}");
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
        assert!(priced_decode_bytes(&g, large) > priced_decode_bytes(&g, small));
        assert_eq!(store.ranking[..2], [large.0, small.0]);
    }

    #[test]
    fn a_cold_read_is_priced_at_the_version_1_row_length() {
        use crate::codec::put_varint;
        // The version-1 writer: a record at a time, each a zigzag vertex
        // delta, the etype, the weight, the attr varint and a zigzag delta
        // of the edge id. The price stays this unit whatever the segments
        // hold.
        let (g, _) = setup(None);
        for v in g.vertices() {
            let mut row = Vec::new();
            put_varint(&mut row, g.out_degree(v) as u64);
            let (mut prev_vertex, mut prev_edge) = (0i64, 0i64);
            for (e, n) in g.out_edge_ids(v).zip(g.out_neighbors(v)) {
                put_varint(&mut row, zigzag(i64::from(n.vertex.0) - prev_vertex));
                row.push(n.etype.0);
                row.extend_from_slice(&n.weight.to_le_bytes());
                put_varint(&mut row, u64::from(n.attr.0));
                put_varint(&mut row, zigzag(e as i64 - prev_edge));
                (prev_vertex, prev_edge) = (i64::from(n.vertex.0), e as i64);
            }
            assert_eq!(priced_decode_bytes(&g, v), row.len() as u64, "{v:?}");
        }
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
        assert!(store.write_row(v0, &new_row));
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
        let (g, store) = setup(Some(3_000));
        let features = Featurizer::new(8).matrix(&g);
        store.attach_features(&features).unwrap();
        let v0 = g.vertices().next().unwrap();
        store.write_row(v0, &[9.0; 8]);
        store.on_owner(v0, |st| {
            let row = st.hot.remove(&RowKey { kind: KIND_FEAT, vertex: v0.0 });
            st.hot_bytes -= row.expect("a written row is hot").bytes();
        });
        let (row, how) = store.feature_row(v0).unwrap();
        assert_eq!(how, TierRead::Cold);
        assert_eq!(&row[..], features.row(v0), "dropping the hot copy loses the write");
    }

    /// Every slot's hot keys in recency order, its charged bytes and its
    /// writeback stage.
    fn slot_states(store: &TieredStore) -> Vec<(Vec<RowKey>, u64, Vec<u32>)> {
        let state = |st: &ShardTier| {
            let hot = st.hot.iter_lru().map(|(k, _)| *k).collect();
            (hot, st.hot_bytes, st.writeback_pending.keys().copied().collect())
        };
        store.all_shards().iter().map(|s| state(&s.lock())).collect()
    }

    #[test]
    fn a_write_past_the_graph_writes_nothing() {
        let (g, store) = setup(Some(3_000));
        let features = Featurizer::new(8).matrix(&g);
        store.attach_features(&features).unwrap();
        // A written row demoted by a feature-row sweep sits in its slot's
        // writeback stage.
        let v0 = g.vertices().next().unwrap();
        assert!(store.write_row(v0, &[9.0; 8]));
        for v in g.vertices().skip(1).take(400) {
            store.feature_row(v).unwrap();
        }
        let before = slot_states(&store);
        assert!(before.iter().any(|(_, _, staged)| !staged.is_empty()), "nothing staged");
        let resident = store.resident_bytes();
        let past = VertexId(g.num_vertices() as u32 + 5);
        assert!(!store.write_row(past, &[1.0; 8]));
        assert!(store.feature_row(past).is_none());
        assert_eq!(store.resident_bytes(), resident);
        assert_eq!(slot_states(&store), before);
    }

    #[test]
    fn prefetch_overlaps_and_double_buffers() {
        let registry = Registry::new();
        let (g, store) = setup_registered(Some(3_000), &registry);
        // A row the admission rule takes but the seeded prefix did not
        // reach, a pass-through row and a hot row of the same shard, and a
        // stretch of its vertices: the shard's server passes the tier only
        // rows resident on it, which at build time are the rows it owns.
        let qualifying =
            g.vertices().find(|&v| store.is_important(v.0) && !store.is_hot(v)).unwrap();
        let shard = store.owner[qualifying.index()] as usize;
        let resident = |v: &VertexId| store.owner[v.index()] as usize == shard;
        let bypassed = g.vertices().find(|v| !store.is_important(v.0) && resident(v)).unwrap();
        let hot = g.vertices().find(|v| resident(v) && store.is_hot(*v)).unwrap();
        let frontier: Vec<VertexId> = g
            .vertices()
            .skip(50)
            .filter(resident)
            .take(16)
            .chain([qualifying, bypassed, bypassed, hot])
            .collect();
        let expected: Vec<bool> = frontier.iter().map(|&v| !store.is_hot(v)).collect();
        let issued = store.prefetch(shard, &frontier);
        // Staged: exactly the rows that are not hot.
        assert_eq!(issued + 1, expected.iter().filter(|&&e| e).count(), "one row is named twice");
        assert!(expected.contains(&false), "the frontier must also hold rows that are skipped");
        for (&v, &want) in frontier.iter().zip(&expected) {
            assert_eq!(store.is_prefetched(v), want, "{v:?}");
        }
        let (_, how) = store.read_adjacency(qualifying).unwrap();
        assert_eq!(how, TierRead::Prefetched);
        // Second read of the same row is hot now.
        assert_eq!(store.read_adjacency(qualifying).unwrap().1, TierRead::Hot);
        assert!(!store.is_prefetched(qualifying), "an admitted row leaves the stage");
        // A staged pass-through row is admitted nowhere and serves exactly
        // the reads its frontier announced: named twice, it is decoded once,
        // served twice, and gone.
        let resident = store.resident_bytes();
        assert_eq!(store.read_adjacency(bypassed).unwrap().1, TierRead::Prefetched);
        assert_eq!(store.read_adjacency(bypassed).unwrap().1, TierRead::Prefetched);
        assert_eq!(store.read_adjacency(bypassed).unwrap().1, TierRead::Cold);
        assert_eq!(store.resident_bytes(), resident);
        // A new frontier replaces the stage: a row it names again is
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
        let server = cluster.server(WorkerId(0));
        // A mixed frontier: both shards' vertices, hot and cold rows.
        let frontier: Vec<VertexId> = g.vertices().collect();
        let local_cold: Vec<VertexId> =
            frontier.iter().copied().filter(|&v| server.is_local(v) && !tier.is_hot(v)).collect();
        assert!(!local_cold.is_empty() && local_cold.len() < frontier.len());
        assert!(frontier.iter().any(|&v| server.is_local(v) && tier.is_hot(v)));
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
            let (nbrs, how) = store.read_adjacency(v).unwrap();
            assert_eq!(how, TierRead::Cold);
            assert_eq!(&nbrs[..], g.out_neighbors(v));
            assert!(!store.is_hot(v));
        }
        assert_eq!((demotions(), store.resident_bytes()), (0, 5 * 172));
        assert_eq!((admit("admitted"), admit("bypassed")), (0, 4));
        // A row at the threshold qualifies: cold once, then hot, at the
        // price of the least recently used seeded row.
        assert_eq!(store.read_adjacency(at_cut).unwrap().1, TierRead::Cold);
        assert_eq!(store.read_adjacency(at_cut).unwrap().1, TierRead::Hot);
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
        assert_eq!(roomy.read_adjacency(unseeded).unwrap().1, TierRead::Cold);
        assert_eq!(roomy.read_adjacency(unseeded).unwrap().1, TierRead::Hot);
        assert!(!roomy.is_hot(VertexId(12)), "the last seeded singleton made room");
        assert!(roomy.peak_resident_bytes() <= 3_000);
    }

    /// Each shard's hot-set keys, least recently used first.
    fn hot_sets(store: &TieredStore) -> Vec<Vec<RowKey>> {
        let shards = store.all_shards();
        shards.iter().map(|s| s.lock().hot.iter_lru().map(|(k, _)| *k).collect()).collect()
    }

    #[test]
    fn budget_shares_sum_to_the_budget_and_hold_each_shards_seeds() {
        for budget in [2_000, 3_000, 6_000] {
            let (g, store) = setup(Some(budget));
            let shares: Vec<(u64, u64)> = store
                .all_shards()
                .iter()
                .map(|s| {
                    let st = s.lock();
                    (st.budget.unwrap(), st.hot_bytes)
                })
                .collect();
            assert_eq!(shares.iter().map(|s| s.0).sum::<u64>(), budget);
            assert!(shares.iter().all(|&(share, seeded)| seeded <= share), "{shares:?}");
            assert_eq!(store.peak_resident_bytes(), shares.iter().map(|s| s.1).sum::<u64>());
            // The row at the cut qualifies (`τ` is still global) and fits the
            // whole budget; it is admitted only if it fits its own shard's
            // share, which at 2 000 B it does not.
            let at_cut =
                store.ranking.iter().copied().find(|&v| store.importance[v as usize] == store.tau);
            let at_cut = VertexId(at_cut.unwrap());
            let owner = store.owner[at_cut.index()] as usize;
            let fits = adjacency_bytes(g.out_degree(at_cut)) <= shares[owner].0;
            assert_eq!(fits, budget != 2_000, "budget {budget}: {shares:?}");
            store.read_adjacency(at_cut);
            assert_eq!(store.read_adjacency(at_cut).unwrap().1 == TierRead::Hot, fits);
            assert!(store.peak_resident_bytes() <= budget);
        }
        // No budget: every shard is unbounded and every row is seeded hot.
        let (g, store) = setup(None);
        assert!(store.all_shards().iter().all(|s| s.lock().budget.is_none()));
        assert_eq!(hot_sets(&store).iter().map(Vec::len).sum::<usize>(), g.num_vertices());
    }

    #[test]
    fn a_shards_reads_never_move_another_shards_hot_set() {
        let registry = Registry::new();
        let (g, store) = setup_registered(Some(3_000), &registry);
        let features = Featurizer::new(8).matrix(&g);
        store.attach_features(&features).unwrap();
        let before = hot_sets(&store);
        // Shard 1 reads every row resident on it (at build time, the rows
        // it owns) twice, and every feature row it owns: its hot set churns
        // under its share, the others' do not.
        for v in g.vertices().filter(|v| store.owner[v.index()] == 1) {
            store.classify(1, v);
            store.classify(1, v);
            store.feature_row(v).unwrap();
        }
        let after = hot_sets(&store);
        assert_ne!(after[1], before[1], "shard 1's reads must move its own hot set");
        for s in [0, 2, 3] {
            assert_eq!(after[s], before[s], "shard {s}'s hot set moved");
        }
        assert!(registry.snapshot().counter_total("tier.demotions") > 0, "no pressure: vacuous");
        // The gauges are the shards' sums.
        let snap = registry.snapshot();
        let hot_rows: usize = after.iter().map(Vec::len).sum();
        assert_eq!(snap.gauge("tier.hot_rows", &[]), hot_rows as i64);
        assert_eq!(snap.gauge("tier.resident_bytes", &[]), store.resident_bytes() as i64);
        assert_eq!(snap.gauge("tier.peak_resident_bytes", &[]), store.peak_resident_bytes() as i64);
        assert!(store.peak_resident_bytes() <= 3_000);
    }

    #[test]
    fn residency_moves_with_extract_absorb_retire() {
        use crate::neighbor_cache::NeighborCache;
        use crate::server::GraphServer;
        // Residency is the servers' bits; a source extracts from the graph,
        // and the tier offers a destination's slot the row it absorbs.
        let (g, store) = setup(Some(4_000));
        let shard = |roster: &[VertexId], slot: usize| {
            let cache = NeighborCache::empty(g.num_vertices());
            GraphServer::ingest(Arc::clone(&g), roster, cache, Some((Arc::clone(&store), slot)))
        };
        let v = store.ranking.iter().map(|&v| VertexId(v)).find(|&v| store.is_hot(v)).unwrap();
        let home = store.owner[v.index()] as usize;
        let roster: Vec<VertexId> =
            g.vertices().filter(|u| store.owner[u.index()] as usize == home).collect();
        let (src, dst) = (shard(&roster, home), shard(&[], 5));
        let rec = src.extract(v).unwrap();
        assert_eq!(rec.degree as usize, g.out_degree(v));
        assert!(store.is_hot_on(home, v), "extract leaves the row hot");
        dst.absorb(rec);
        assert!(dst.is_local(v) && src.is_local(v), "both-sides-serve window");
        assert!(!store.is_hot_on(5, v), "a split slot's share is 0: the row passes through");
        src.retire(&[v.0]);
        assert!(!src.is_local(v));
        assert_eq!(src.extract(v), None);
        assert_eq!(dst.num_owned(), 1);
    }

    #[test]
    fn a_tiered_extract_never_reaches_the_tier() {
        use crate::neighbor_cache::NeighborCache;
        use crate::server::GraphServer;
        // A record is the vertex and its degree, read from the graph: a
        // source's extract reads no row through its tier slot, so it
        // neither counts a read nor admits a row the source is about to
        // retire.
        let registry = Registry::new();
        let (g, store) = setup_registered(Some(3_000), &registry);
        let tier_state = || {
            let snap = registry.snapshot();
            (snap.counter_total("tier.reads"), snap.counter_total("tier.admit"), hot_sets(&store))
        };
        let before = tier_state();
        let mut extracted = 0;
        for slot in 0..store.num_shards() {
            let roster: Vec<VertexId> =
                g.vertices().filter(|v| store.owner[v.index()] as usize == slot).collect();
            let cache = NeighborCache::empty(g.num_vertices());
            let server = GraphServer::ingest(
                Arc::clone(&g),
                &roster,
                cache,
                Some((Arc::clone(&store), slot)),
            );
            for &v in &roster {
                let rec = server.extract(v).unwrap();
                assert_eq!((rec.vertex, rec.degree as usize), (v, g.out_degree(v)));
                extracted += 1;
            }
        }
        assert_eq!(extracted, g.num_vertices());
        assert_eq!(tier_state(), before, "an extract moved the tier");
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
