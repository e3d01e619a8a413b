//! The dynamic-graph plane: the one online graph state under both the
//! serving and the streaming service (DESIGN.md §2.5).
//!
//! The offline store ([`AttributedHeterogeneousGraph`]) is immutable; a
//! dynamic graph is a series of versions over it (paper §2). Each version
//! is an [`EpochView`]: the base snapshot plus one persistent
//! [`ShardOverlay`] per shard holding only the *touched* adjacency rows,
//! alias tables and feature vectors. The rules this module owns:
//!
//! * **copy on first touch, never write a published version** — a row is
//!   copied from the base the first time an update edits it; rows live in a
//!   persistent trie over the vertex ids (`Index`) whose nodes and rows
//!   sit behind `Arc`s edited through `Arc::make_mut`, so a pinned version
//!   never changes;
//! * **an update costs what it touches, not what came before it** — a
//!   batch's first edit of a row copies the `depth` nodes above its slot and
//!   the row (later edits find them unshared), and the row's alias table is
//!   repaired once; a read is `depth` dependent loads; publishing drops
//!   exactly what the batch copied. What still grows with history is
//!   memory: feature overrides and first-touch copies — a row retracted
//!   back to its base row included — stay until ROADMAP item 3's compaction;
//! * **session consistency** — readers [`pin`](EpochManager::pin) one epoch
//!   and read exactly that version, however many batches land meanwhile;
//!   published epochs are strictly increasing;
//! * **targeted invalidation** — [`affected`] is the set of cached keys a
//!   change can reach, and [`EpochManager::commit`] sweeps it from the
//!   cache under the publish lock, so no reader sees the new epoch with the
//!   old cache or the reverse.

use crate::alias::{AliasTable, IncrementalAlias};
use crate::neighborhood::NeighborAccess;
use aligraph_graph::dynamic::{SnapshotDelta, UpdateBatch, UpdateEvent};
use aligraph_graph::{
    AttrId, AttributedHeterogeneousGraph, EdgeId, EdgeType, FeatureMatrix, Neighbor, VertexId,
};
use aligraph_storage::VersionedCache;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Attribute record id for overlay-added edges, which carry no attributes
/// (nothing on the online read path dereferences edge attributes).
const SYNTH_ATTR: AttrId = AttrId(u32::MAX);
/// Edge id for overlay-added edges (the base snapshot's id space is dense
/// from 0, so the sentinel cannot collide).
const SYNTH_EDGE: EdgeId = EdgeId(u64::MAX);

/// The vertices a batch touched, split by what changed: `rows` are sources
/// whose out-row (and alias table) changed, `feats` are vertices whose
/// feature vector changed. Sorted for determinism.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Touched {
    /// Sources whose out-adjacency row / alias table changed.
    pub rows: Vec<u32>,
    /// Vertices whose dense features changed.
    pub feats: Vec<u32>,
}

/// What applying one batch did: the touched set and the
/// incremental-maintenance accounting.
#[derive(Debug, Clone, Default)]
pub struct Applied {
    /// What the batch touched.
    pub touched: Touched,
    /// In-place alias repairs performed (one per touched row).
    pub repairs: u64,
    /// Total alias slots rewritten by those repairs (Σ row degrees) — the
    /// actual hot-path work, versus a full rebuild's Σ over *all* rows.
    pub repaired_slots: u64,
}

impl Applied {
    /// The union of per-shard results (a vertex has one owner, so the parts
    /// are disjoint; sorting restores the global order).
    pub fn merge(parts: impl IntoIterator<Item = Applied>) -> Applied {
        let mut all = Applied::default();
        for part in parts {
            all.touched.rows.extend(part.touched.rows);
            all.touched.feats.extend(part.touched.feats);
            all.repairs += part.repairs;
            all.repaired_slots += part.repaired_slots;
        }
        all.touched.rows.sort_unstable();
        all.touched.feats.sort_unstable();
        all
    }
}

/// A touched out-row and the alias table over its weights, kept in one
/// entry so an edit copies them together (one index path, not two) and
/// `alias.weights == row weights` holds by construction. On an unweighted
/// overlay the alias stays empty.
#[derive(Debug, Clone)]
struct OutRow {
    row: Vec<Neighbor>,
    alias: IncrementalAlias,
}

impl OutRow {
    /// A vertex entering the incremental plane: the one-time per-vertex
    /// copy of its base row and, when `weighted`, its weights. The alias is
    /// left unrepaired — the edit that caused the copy follows, and the
    /// batch repairs it once.
    fn from_base(base: &AttributedHeterogeneousGraph, v: VertexId, weighted: bool) -> Self {
        let row = base.out_neighbors(v).to_vec();
        let alias = if weighted {
            IncrementalAlias::unrepaired(row.iter().map(|n| n.weight).collect())
        } else {
            IncrementalAlias::default()
        };
        OutRow { row, alias }
    }
}

/// Slots per [`Index`] node, as a power of two — chosen by measurement
/// (`results/pr20_perf_pairs.md`): wider nodes cost more per copied path,
/// narrower ones add a level to every read.
const NODE_BITS: u32 = 4;
const NODE_SLOTS: usize = 1 << NODE_BITS;

#[derive(Debug, Clone)]
enum Node<T> {
    Inner([Option<Arc<Node<T>>>; NODE_SLOTS]),
    Leaf([Option<Arc<T>>; NODE_SLOTS]),
}

/// A persistent map over the dense vertex-id space: a radix trie of fixed
/// depth (sized from the vertex count), every node behind an `Arc`. `clone`
/// is one `Arc` bump; an edit of a clone copies only the nodes above the
/// slot it writes, and later edits find them unshared — so whoever holds
/// the original keeps reading the version it had.
#[derive(Debug, Clone)]
struct Index<T> {
    root: Option<Arc<Node<T>>>,
    /// Key bits below the root node's slot index: `NODE_BITS · (depth − 1)`.
    top_shift: u32,
    len: usize,
}

impl<T: Clone> Index<T> {
    /// An empty index over keys `0..n`.
    fn new(n: usize) -> Self {
        let mut top_shift = 0;
        while (n.saturating_sub(1) >> top_shift) >= NODE_SLOTS {
            top_shift += NODE_BITS;
        }
        Index { root: None, top_shift, len: 0 }
    }

    fn get(&self, k: u32) -> Option<&Arc<T>> {
        let in_range = ((k >> self.top_shift) as usize) < NODE_SLOTS;
        let (mut node, mut shift) = (self.root.as_ref().filter(|_| in_range)?, self.top_shift);
        loop {
            let i = (k >> shift) as usize % NODE_SLOTS;
            match &**node {
                Node::Inner(kids) => node = kids[i].as_ref()?,
                Node::Leaf(items) => return items[i].as_ref(),
            }
            shift -= NODE_BITS;
        }
    }

    /// `k`'s slot, with every node above it made this index's own (created
    /// when absent, copied when a clone still shares it).
    fn slot_mut(&mut self, k: u32) -> &mut Option<Arc<T>> {
        // invariant: every write is behind `ShardOverlay::owns`, whose
        // table has one entry per vertex of the base this index was sized
        // from; only reads can be out of range, and `get` answers `None`.
        assert!(((k >> self.top_shift) as usize) < NODE_SLOTS, "vertex {k} beyond the index");
        let (mut slot, mut shift) = (&mut self.root, self.top_shift);
        loop {
            let node = slot.get_or_insert_with(|| {
                Arc::new(match shift {
                    0 => Node::Leaf(std::array::from_fn(|_| None)),
                    _ => Node::Inner(std::array::from_fn(|_| None)),
                })
            });
            let i = (k >> shift) as usize % NODE_SLOTS;
            match Arc::make_mut(node) {
                Node::Inner(kids) => slot = &mut kids[i],
                Node::Leaf(items) => return &mut items[i],
            }
            shift -= NODE_BITS;
        }
    }

    /// Edits `k`'s entry in place, built by `first_touch` when the index has
    /// none yet. Copies only what a clone still shares.
    fn edit(&mut self, k: u32, first_touch: impl FnOnce() -> T, edit: impl FnOnce(&mut T)) {
        let slot = self.slot_mut(k);
        let fresh = slot.is_none();
        edit(Arc::make_mut(slot.get_or_insert_with(|| Arc::new(first_touch()))));
        self.len += fresh as usize;
    }

    fn insert(&mut self, k: u32, value: Arc<T>) {
        let fresh = self.slot_mut(k).replace(value).is_none();
        self.len += fresh as usize;
    }

    /// Takes `k`'s entry out. Emptied nodes stay: only a change of owner
    /// removes, and the key range bounds the trie anyway.
    fn remove(&mut self, k: u32) -> Option<Arc<T>> {
        self.get(k)?;
        self.len -= 1;
        self.slot_mut(k).take()
    }

    /// The keys present, ascending.
    fn keys(&self) -> Vec<u32> {
        fn walk<T>(node: &Node<T>, prefix: u32, out: &mut Vec<u32>) {
            let key = |i: usize| (prefix << NODE_BITS) | i as u32;
            match node {
                Node::Inner(kids) => {
                    for (i, kid) in kids.iter().enumerate() {
                        if let Some(kid) = kid {
                            walk(kid, key(i), out);
                        }
                    }
                }
                Node::Leaf(items) => {
                    out.extend((0..NODE_SLOTS).filter(|&i| items[i].is_some()).map(key))
                }
            }
        }
        let mut out = Vec::with_capacity(self.len);
        if let Some(root) = &self.root {
            walk(root, 0, &mut out);
        }
        out
    }
}

/// One vertex's extracted overlay state, handed from its previous owner to
/// its new owner when an ownership table is adopted mid-stream. `None`
/// fields mean the previous owner never touched that aspect (the base
/// snapshot still serves it correctly on any shard).
#[derive(Debug, Clone, Default)]
struct VertexOverlay {
    out: Option<Arc<OutRow>>,
    in_row: Option<Arc<Vec<Neighbor>>>,
    feats: Option<Arc<Vec<f32>>>,
}

/// One shard's persistent overlay: the adjacency rows, alias tables and
/// feature overrides of the vertices it owns that differ from the base
/// snapshot. Cloning is O(1) (`Arc` bumps); a clone that is then edited
/// copies only the index paths and rows the edit writes, so whoever holds
/// the original keeps reading the version it had.
#[derive(Debug, Clone)]
pub struct ShardOverlay {
    base: Arc<AttributedHeterogeneousGraph>,
    /// Vertex → owning shard, shared with every other shard.
    owners: Arc<Vec<u32>>,
    /// This shard's id in `owners`.
    me: u32,
    /// Whether touched rows keep an alias table. An [`EpochView`] built
    /// without a base alias index answers `alias() == None` for untouched
    /// rows, so it must for touched ones too — and then nobody would read
    /// the tables that cost about a third of applying a batch.
    weighted: bool,
    out_rows: Index<OutRow>,
    in_rows: Index<Vec<Neighbor>>,
    feats: Index<Vec<f32>>,
}

impl ShardOverlay {
    /// An empty overlay for shard `me` over the base snapshot.
    pub fn new(base: Arc<AttributedHeterogeneousGraph>, owners: Arc<Vec<u32>>, me: u32) -> Self {
        let n = base.num_vertices();
        ShardOverlay {
            base,
            owners,
            me,
            weighted: true,
            out_rows: Index::new(n),
            in_rows: Index::new(n),
            feats: Index::new(n),
        }
    }

    /// The overlaid out-row of `v`, when this shard has touched it.
    pub fn out_row(&self, v: VertexId) -> Option<&[Neighbor]> {
        self.out_rows.get(v.0).map(|e| e.row.as_slice())
    }

    /// The overlaid in-row of `v`, when this shard has touched it.
    pub fn in_row(&self, v: VertexId) -> Option<&[Neighbor]> {
        self.in_rows.get(v.0).map(|r| r.as_slice())
    }

    /// The incrementally maintained alias table of `v`, when touched.
    pub fn alias(&self, v: VertexId) -> Option<&IncrementalAlias> {
        self.out_rows.get(v.0).map(|e| &e.alias)
    }

    /// The overlaid feature vector of `v`, when touched.
    pub fn features(&self, v: VertexId) -> Option<&[f32]> {
        self.feats.get(v.0).map(|f| f.as_slice())
    }

    /// All incrementally maintained alias tables, ascending by vertex (for
    /// the rebuild oracle).
    pub fn alias_entries(&self) -> impl Iterator<Item = (u32, &IncrementalAlias)> {
        self.out_rows.keys().into_iter().filter_map(|v| Some((v, self.alias(VertexId(v))?)))
    }

    /// Number of adjacency rows this shard has overlaid.
    pub fn overlay_rows(&self) -> usize {
        self.out_rows.len
    }

    fn owns(&self, v: VertexId) -> bool {
        self.owners.get(v.0 as usize).copied() == Some(self.me)
    }

    /// Applies one batch of events (ownership-filtered: this shard edits
    /// only the rows/features of vertices it owns) and repairs every touched
    /// alias table in place. A removal that matches no record touches
    /// nothing.
    pub fn apply(&mut self, events: &[UpdateEvent]) -> Applied {
        let weighted = self.weighted;
        let mut rows: BTreeSet<u32> = BTreeSet::new();
        let mut feats: BTreeSet<u32> = BTreeSet::new();
        for ev in events {
            match *ev {
                UpdateEvent::AddEdge { src, dst, etype, weight } => {
                    let rec = |vertex| Neighbor {
                        vertex,
                        etype,
                        weight,
                        attr: SYNTH_ATTR,
                        edge: SYNTH_EDGE,
                    };
                    if self.owns(src) {
                        let first = || OutRow::from_base(&self.base, src, weighted);
                        self.out_rows.edit(src.0, first, |e| {
                            e.row.push(rec(dst));
                            if weighted {
                                e.alias.push(weight);
                            }
                        });
                        rows.insert(src.0);
                    }
                    if self.owns(dst) {
                        let first = || self.base.in_neighbors(dst).to_vec();
                        self.in_rows.edit(dst.0, first, |row| row.push(rec(src)));
                    }
                }
                UpdateEvent::RemoveEdge { src, dst, etype } => {
                    if self.owns(src) {
                        let row = self.out_row(src).unwrap_or(self.base.out_neighbors(src));
                        if let Some(i) = position(row, dst, etype) {
                            let first = || OutRow::from_base(&self.base, src, weighted);
                            self.out_rows.edit(src.0, first, |e| {
                                e.row.remove(i);
                                // Order-preserving removal keeps alias
                                // indices aligned with row indices.
                                if weighted {
                                    e.alias.remove(i);
                                }
                            });
                            rows.insert(src.0);
                        }
                    }
                    if self.owns(dst) {
                        let row = self.in_row(dst).unwrap_or(self.base.in_neighbors(dst));
                        if let Some(i) = position(row, src, etype) {
                            let first = || self.base.in_neighbors(dst).to_vec();
                            self.in_rows.edit(dst.0, first, |row| {
                                row.remove(i);
                            });
                        }
                    }
                }
                UpdateEvent::SetFeatures { vertex, ref features } => {
                    if self.owns(vertex) {
                        self.feats.insert(vertex.0, Arc::new(features.clone()));
                        feats.insert(vertex.0);
                    }
                }
            }
        }
        // The incremental-maintenance hot path: one in-place repair per
        // touched row, buffer-reusing, O(Σ touched degrees) — never a
        // rebuild of untouched tables; the edits above left each touched row
        // and its index path unshared, so nothing is copied here.
        let (mut repairs, mut repaired_slots) = (0u64, 0u64);
        if weighted {
            for &v in &rows {
                let Some(e) = self.out_rows.slot_mut(v).as_mut().map(Arc::make_mut) else {
                    continue;
                };
                if e.alias.is_dirty() {
                    e.alias.repair();
                    repairs += 1;
                    repaired_slots += e.alias.len() as u64;
                }
            }
        }
        Applied {
            touched: Touched {
                rows: rows.into_iter().collect(),
                feats: feats.into_iter().collect(),
            },
            repairs,
            repaired_slots,
        }
    }

    /// Adopts a new ownership table (typically the owner table of a storage
    /// topology epoch after a shard split/merge) and extracts the overlay
    /// state of every vertex that no longer belongs here. The returned
    /// emigrants — `(vertex, new owner, state)`, ascending by vertex — must
    /// be [`absorb`](Self::absorb)ed by their new owners before the next
    /// epoch publishes, or their streamed edits would be lost to base-row
    /// fallbacks.
    fn adopt_owners(&mut self, owners: Arc<Vec<u32>>) -> Vec<(u32, u32, VertexOverlay)> {
        self.owners = owners;
        let leaving: BTreeSet<u32> = [self.out_rows.keys(), self.in_rows.keys(), self.feats.keys()]
            .into_iter()
            .flatten()
            .filter(|&v| !self.owns(VertexId(v)))
            .collect();
        leaving
            .into_iter()
            .map(|v| {
                let state = VertexOverlay {
                    out: self.out_rows.remove(v),
                    in_row: self.in_rows.remove(v),
                    feats: self.feats.remove(v),
                };
                (v, self.owners.get(v as usize).copied().unwrap_or(0), state)
            })
            .collect()
    }

    /// Installs overlay state extracted from a vertex's previous owner.
    /// Present fields overwrite (the emigrant state is newer by
    /// construction); absent fields leave any local state alone, so a
    /// duplicate absorb is harmless.
    fn absorb(&mut self, v: u32, state: VertexOverlay) {
        if let Some(e) = state.out {
            self.out_rows.insert(v, e);
        }
        if let Some(r) = state.in_row {
            self.in_rows.insert(v, r);
        }
        if let Some(f) = state.feats {
            self.feats.insert(v, f);
        }
    }
}

/// Index of the first record of `row` pointing at `far` with type `etype`.
fn position(row: &[Neighbor], far: VertexId, etype: EdgeType) -> Option<usize> {
    row.iter().position(|n| n.vertex == far && n.etype == etype)
}

/// One immutable graph version: base snapshot + per-shard overlays.
#[derive(Debug, Clone)]
pub struct EpochView {
    epoch: u64,
    base: Arc<AttributedHeterogeneousGraph>,
    base_feats: Arc<FeatureMatrix>,
    /// Alias tables of the base rows, built once at startup by a service
    /// that samples by weight (empty for one that does not); vertices enter
    /// the per-shard incremental plane on first touch.
    base_alias: Arc<Vec<Option<Arc<AliasTable>>>>,
    owners: Arc<Vec<u32>>,
    shards: Vec<ShardOverlay>,
}

impl EpochView {
    /// Epoch 0: the bare base snapshot with empty shard overlays.
    pub fn initial(
        base: Arc<AttributedHeterogeneousGraph>,
        base_feats: Arc<FeatureMatrix>,
        base_alias: Arc<Vec<Option<Arc<AliasTable>>>>,
        owners: Arc<Vec<u32>>,
        shards: usize,
    ) -> Self {
        let weighted = !base_alias.is_empty();
        let shards = (0..shards.max(1) as u32)
            .map(|me| ShardOverlay {
                weighted,
                ..ShardOverlay::new(Arc::clone(&base), Arc::clone(&owners), me)
            })
            .collect();
        EpochView { epoch: 0, base, base_feats, base_alias, owners, shards }
    }

    /// The next version: same base and routing, new shard overlays.
    pub fn with_shards(&self, shards: Vec<ShardOverlay>) -> EpochView {
        debug_assert_eq!(shards.len(), self.shards.len());
        EpochView {
            epoch: self.epoch + 1,
            base: Arc::clone(&self.base),
            base_feats: Arc::clone(&self.base_feats),
            base_alias: Arc::clone(&self.base_alias),
            owners: Arc::clone(&self.owners),
            shards,
        }
    }

    /// The next version with ownership re-pointed at `owners` — how online
    /// routing follows an elastic rebalance. Every shard adopts the table
    /// and gives up the overlay state of the vertices that left it, and the
    /// new owners absorb it, so readers at the new epoch resolve every
    /// vertex through the new table and read the bits they read before;
    /// `self` is untouched. `Err` says why the table does not fit.
    pub fn adopt_owners(&self, owners: Arc<Vec<u32>>) -> Result<EpochView, String> {
        let (n, count) = (self.num_vertices(), self.shards.len());
        if owners.len() != n {
            return Err(format!("owner table covers {} vertices, graph has {n}", owners.len()));
        }
        if let Some(bad) = owners.iter().find(|&&o| o as usize >= count) {
            return Err(format!("owner {bad} out of range for {count} shards"));
        }
        let mut shards = self.shards.clone();
        let mut moved: Vec<_> =
            shards.iter_mut().flat_map(|s| s.adopt_owners(Arc::clone(&owners))).collect();
        moved.sort_by_key(|&(v, ..)| v);
        for (v, dst, state) in moved {
            shards[dst as usize].absorb(v, state);
        }
        Ok(EpochView { owners, ..self.with_shards(shards) })
    }

    /// Applies a batch to every shard on the caller's thread and returns
    /// the next version with what it touched. `self` is untouched — readers
    /// pinned to it finish against it. The batch must have passed
    /// [`check`](Self::check).
    pub fn apply_batch(&self, batch: &UpdateBatch) -> (EpochView, Applied) {
        let mut shards = self.shards.clone();
        let applied = Applied::merge(shards.iter_mut().map(|s| s.apply(&batch.events)));
        (self.with_shards(shards), applied)
    }

    /// [`apply_batch`](Self::apply_batch) of a lowered snapshot delta.
    pub fn apply(&self, delta: &SnapshotDelta) -> EpochView {
        self.apply_batch(&UpdateBatch::from(delta)).0
    }

    /// The one admission check of the plane, run before anything is
    /// applied or sent: every vertex id in range, every weight finite,
    /// every feature row as wide as the base matrix. `Err` is the index of
    /// the first bad event and why — an out-of-range id would otherwise
    /// panic a later *reader* routing through the owner table.
    pub fn check(&self, batch: &UpdateBatch) -> Result<(), (usize, String)> {
        let (n, dim) = (self.num_vertices(), self.base_feats.dim);
        let fault = |ev: &UpdateEvent| -> Option<String> {
            let (ends, other) = match ev {
                UpdateEvent::AddEdge { src, dst, weight, .. } => {
                    ([*src, *dst], (!weight.is_finite()).then(|| format!("weight {weight}")))
                }
                UpdateEvent::RemoveEdge { src, dst, .. } => ([*src, *dst], None),
                UpdateEvent::SetFeatures { vertex, features } => {
                    let width = features.len();
                    let short = || format!("feature row of {width}, base matrix has {dim}");
                    ([*vertex; 2], (width != dim).then(short))
                }
            };
            let unknown = ends.iter().find(|v| v.0 as usize >= n);
            unknown.map(|v| format!("vertex {} out of range (graph has {n})", v.0)).or(other)
        };
        match batch.events.iter().enumerate().find_map(|(i, ev)| Some((i, fault(ev)?))) {
            Some(bad) => Err(bad),
            None => Ok(()),
        }
    }

    /// The ownership table reads route by at this epoch.
    pub fn owners(&self) -> &Arc<Vec<u32>> {
        &self.owners
    }

    /// This view's epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of vertices (fixed: updates only rewire edges and features).
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// The per-shard overlays (for the rebuild oracle).
    pub fn shards(&self) -> &[ShardOverlay] {
        &self.shards
    }

    fn shard_of(&self, v: VertexId) -> &ShardOverlay {
        &self.shards[self.owners[v.0 as usize] as usize]
    }

    /// Out-neighbors of `v` at this epoch.
    pub fn out_neighbors(&self, v: VertexId) -> &[Neighbor] {
        self.out_row_and_alias(v).0
    }

    /// In-neighbors of `v` at this epoch.
    pub fn in_neighbors(&self, v: VertexId) -> &[Neighbor] {
        self.shard_of(v).in_row(v).unwrap_or(self.base.in_neighbors(v))
    }

    /// Dense features of `v` at this epoch.
    pub fn features(&self, v: VertexId) -> &[f32] {
        self.shard_of(v).features(v).unwrap_or(self.base_feats.row(v))
    }

    /// The weighted-sampling alias table of `v`'s out-row at this epoch
    /// (`None` when the row is empty or degenerate).
    pub fn alias(&self, v: VertexId) -> Option<&AliasTable> {
        self.out_row_and_alias(v).1
    }

    /// [`out_neighbors`](Self::out_neighbors) and [`alias`](Self::alias) of
    /// `v` from one owner-table load and one overlay lookup — what a
    /// sampler expanding `v` reads.
    pub fn out_row_and_alias(&self, v: VertexId) -> (&[Neighbor], Option<&AliasTable>) {
        let base_alias = || self.base_alias.get(v.0 as usize)?.as_deref();
        match self.shard_of(v).out_rows.get(v.0) {
            Some(e) => (&e.row, e.alias.table()),
            None => (self.base.out_neighbors(v), base_alias()),
        }
    }

    /// Overlay entries at this epoch, summed over the shards: `[out-rows,
    /// in-rows, feature rows]` — the state that grows with the stream's
    /// history until it is compacted.
    pub fn overlay_rows(&self) -> [usize; 3] {
        let sum = |len: fn(&ShardOverlay) -> usize| self.shards.iter().map(len).sum();
        [sum(|s| s.out_rows.len), sum(|s| s.in_rows.len), sum(|s| s.feats.len)]
    }
}

impl NeighborAccess for EpochView {
    #[inline]
    fn neighbors(&self, v: VertexId, _hop: usize) -> &[Neighbor] {
        self.out_neighbors(v)
    }
}

/// The cached keys a change can reach: every vertex whose `kmax`-hop
/// gather reads a touched row or feature vector, ascending and
/// duplicate-free. `touched` must name vertices of the views (it comes from
/// applying a batch that passed [`EpochView::check`]).
///
/// A `kmax`-hop reader samples the out-row of every vertex it expands at
/// depths `0..kmax-1` from the seed and reads features at every hop
/// including the last frontier — hence rows reach back `kmax - 1` in-hops
/// and features `kmax`. Each source set is walked over both views, one
/// reverse BFS per view (not one over their union graph): an added edge
/// creates reach-paths that only exist *after* the change, a removed edge's
/// paths only existed *before*. The result is the union of the four walks.
pub fn affected(
    pre: &EpochView,
    post: &EpochView,
    touched: &Touched,
    kmax: usize,
) -> Vec<VertexId> {
    // Sets bit `v`; true when it was clear.
    fn mark(bits: &mut [u64], v: u32) -> bool {
        let (word, bit) = (&mut bits[v as usize / 64], 1u64 << (v % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
    let words = pre.num_vertices().div_ceil(64);
    let (mut reached, mut seen) = (vec![0u64; words], vec![0u64; words]);
    // The vertices of the walk in progress, in discovery order: its BFS
    // levels are consecutive ranges, and it is the list `seen` is cleared by.
    let mut walk: Vec<u32> = Vec::new();
    for (sources, depth) in [(&touched.feats, Some(kmax)), (&touched.rows, kmax.checked_sub(1))] {
        let Some(depth) = depth else { continue };
        for view in [pre, post] {
            walk.extend(sources.iter().copied().filter(|&v| mark(&mut seen, v)));
            let mut level = 0..walk.len();
            for _ in 0..depth {
                for i in level.clone() {
                    let row = view.in_neighbors(VertexId(walk[i]));
                    walk.extend(row.iter().map(|n| n.vertex.0).filter(|&v| mark(&mut seen, v)));
                }
                level = level.end..walk.len();
            }
            for v in walk.drain(..) {
                reached[v as usize / 64] |= std::mem::take(&mut seen[v as usize / 64]);
            }
        }
    }
    let mut out = Vec::with_capacity(reached.iter().map(|w| w.count_ones() as usize).sum());
    for (i, mut word) in reached.into_iter().enumerate() {
        while word != 0 {
            out.push(VertexId(i as u32 * 64 + word.trailing_zeros()));
            word &= word - 1;
        }
    }
    out
}

/// What one [`EpochManager::commit`] published.
#[derive(Debug, Clone)]
pub struct Committed {
    /// The epoch the change published under.
    pub epoch: u64,
    /// What the change touched.
    pub applied: Applied,
    /// Vertices whose cached value the sweep considered affected.
    pub affected: usize,
    /// Cache entries the sweep actually removed.
    pub invalidated: usize,
}

/// Publishes monotonic epochs and hands out pins.
#[derive(Debug)]
pub struct EpochManager {
    current: RwLock<Arc<EpochView>>,
    epoch: AtomicU64,
    /// Serializes writers from "pin the head" to "publish its successor".
    writer: Mutex<()>,
}

impl EpochManager {
    /// A manager starting at `view`'s epoch.
    pub fn new(view: EpochView) -> Self {
        let epoch = AtomicU64::new(view.epoch());
        EpochManager { current: RwLock::new(Arc::new(view)), epoch, writer: Mutex::new(()) }
    }

    /// The latest published epoch, read without the lock (every gather asks
    /// it for its pin's age). Monotonic: two reads by one thread never go
    /// backwards.
    pub fn current_epoch(&self) -> u64 {
        // ordering: Acquire pairs with publish_with()'s Release store, so a
        // reader that sees epoch E also sees every write that built E's
        // view (the shard overlays travel through the lock as well).
        self.epoch.load(Ordering::Acquire)
    }

    /// Pins the current epoch for a session: the `Arc` keeps the whole
    /// view alive, so every read through it is against one graph version.
    pub fn pin(&self) -> Arc<EpochView> {
        Arc::clone(&self.current.read())
    }

    /// Publishes `next` as the new current epoch. `sweep` runs under the
    /// write lock *after* the version number moves, so no reader can race
    /// between the epoch advancing and the cache invalidation sweep: a pin
    /// taken before the lock sees the old epoch and the old cache version;
    /// a pin taken after sees both new.
    pub fn publish_with<F: FnOnce(&Arc<EpochView>)>(&self, next: Arc<EpochView>, sweep: F) {
        let mut cur = self.current.write();
        debug_assert!(next.epoch() > cur.epoch(), "epochs must be strictly increasing");
        // ordering: Release pairs with current_epoch()'s Acquire; pins
        // additionally synchronize through the RwLock.
        self.epoch.store(next.epoch(), Ordering::Release);
        *cur = Arc::clone(&next);
        sweep(&next);
    }

    /// The one write path of the plane: builds the head's successor with
    /// `build`, computes the [`affected`] set of what it touched for a
    /// `kmax`-hop reader over both versions, publishes, and sweeps exactly
    /// that set out of `cache` under the publish lock. Writers are
    /// serialized, so epochs advance in call order; in-flight readers of
    /// the old version finish on their pin and their late cache inserts are
    /// version-checked away.
    pub fn commit<V: Clone>(
        &self,
        kmax: usize,
        cache: &VersionedCache<u32, V>,
        build: impl FnOnce(&EpochView) -> (EpochView, Applied),
    ) -> Committed {
        let writer = self.writer.lock();
        let pre = self.pin();
        let (next, applied) = build(&pre);
        let affected = affected(&pre, &next, &applied.touched, kmax);
        let epoch = next.epoch();
        let mut invalidated = 0;
        self.publish_with(Arc::new(next), |_| {
            invalidated = cache.advance(epoch, affected.iter().map(|v| v.0));
        });
        drop(writer);
        Committed { epoch, applied, affected: affected.len(), invalidated }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighborhood::reverse_reach;
    use aligraph_graph::ids::well_known::*;
    use aligraph_graph::{AttrVector, Featurizer, GraphBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, HashSet};

    fn chain() -> (Arc<AttributedHeterogeneousGraph>, Vec<VertexId>) {
        // a -> b -> c -> d
        let mut b = GraphBuilder::directed();
        let vs: Vec<VertexId> = (0..4).map(|_| b.add_vertex(USER, AttrVector::empty())).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], CLICK, 1.0).unwrap();
        }
        (Arc::new(b.build()), vs)
    }

    fn one_shard(base: &Arc<AttributedHeterogeneousGraph>) -> ShardOverlay {
        let owners = Arc::new(vec![0u32; base.num_vertices()]);
        ShardOverlay::new(Arc::clone(base), owners, 0)
    }

    /// A one-shard view with `dim`-wide features and a full base alias index.
    fn view_of(base: &Arc<AttributedHeterogeneousGraph>, dim: usize) -> EpochView {
        let feats = Arc::new(Featurizer::new(dim).matrix(base));
        let alias = (0..base.num_vertices() as u32)
            .map(|v| {
                let w: Vec<f32> =
                    base.out_neighbors(VertexId(v)).iter().map(|n| n.weight).collect();
                AliasTable::new(&w).map(Arc::new)
            })
            .collect();
        let owners = Arc::new(vec![0; base.num_vertices()]);
        EpochView::initial(Arc::clone(base), feats, Arc::new(alias), owners, 1)
    }

    fn add(src: VertexId, dst: VertexId, weight: f32) -> UpdateEvent {
        UpdateEvent::AddEdge { src, dst, etype: CLICK, weight }
    }

    fn ids(row: &[Neighbor]) -> Vec<VertexId> {
        row.iter().map(|n| n.vertex).collect()
    }

    #[test]
    fn apply_edits_rows_and_repairs_alias_in_place() {
        let (g, vs) = chain();
        let v0 = one_shard(&g);
        let mut v1 = v0.clone();
        let applied = v1.apply(&[
            add(vs[0], vs[2], 2.0),
            UpdateEvent::RemoveEdge { src: vs[1], dst: vs[2], etype: CLICK },
            UpdateEvent::SetFeatures { vertex: vs[3], features: vec![1.0, 2.0] },
        ]);
        assert_eq!(applied.touched.rows, vec![vs[0].0, vs[1].0]);
        assert_eq!(applied.touched.feats, vec![vs[3].0]);
        assert_eq!(applied.repairs, 2);
        let row0 = v1.out_row(vs[0]).unwrap();
        assert_eq!(ids(row0), vec![vs[1], vs[2]]);
        assert!(v1.out_row(vs[1]).unwrap().is_empty());
        assert_eq!(ids(v1.in_row(vs[2]).unwrap()), vec![vs[0]]);
        // Each touched alias is bit-exact against a from-scratch rebuild of
        // its current row weights.
        for (v, inc) in v1.alias_entries() {
            assert!(inc.bit_eq_rebuild(), "vertex {v} alias diverged from rebuild");
        }
        let a0 = v1.alias(vs[0]).unwrap();
        let fresh = AliasTable::new(&row0.iter().map(|n| n.weight).collect::<Vec<_>>()).unwrap();
        assert_eq!(a0.table().unwrap().probs(), fresh.probs());
        // Empty row => degenerate table, exactly like a rebuild would say.
        assert!(v1.alias(vs[1]).unwrap().table().is_none());
        // The version it was cloned from and the base snapshot are
        // untouched, and untouched rows still fall through to the base (no
        // copies made).
        assert_eq!(v0.overlay_rows(), 0);
        assert!(v0.features(vs[3]).is_none());
        assert_eq!(g.out_neighbors(vs[0]).len(), 1);
        assert_eq!(v1.overlay_rows(), 2);
        // A second edit of an already-overlaid row leaves the first
        // published copy as it was.
        let mut v2 = v1.clone();
        v2.apply(&[add(vs[0], vs[3], 1.0)]);
        assert_eq!(v2.out_row(vs[0]).unwrap().len(), 3);
        assert_eq!(v1.out_row(vs[0]).unwrap().len(), 2);
    }

    #[test]
    fn ownership_filters_edits() {
        let (g, vs) = chain();
        let owners = Arc::new(vec![0u32, 1, 0, 1]);
        let mut s0 = ShardOverlay::new(Arc::clone(&g), Arc::clone(&owners), 0);
        let mut s1 = ShardOverlay::new(Arc::clone(&g), owners, 1);
        let events = [add(vs[0], vs[1], 1.0)];
        let a0 = s0.apply(&events);
        let a1 = s1.apply(&events);
        // Shard 0 owns the source: out-row + alias. Shard 1 owns the
        // destination: in-row only.
        assert_eq!(a0.touched.rows, vec![vs[0].0]);
        assert!(s0.in_row(vs[1]).is_none());
        assert!(a1.touched.rows.is_empty());
        assert_eq!(s1.in_row(vs[1]).unwrap().len(), 2);
        assert_eq!(a1.repairs, 0);
    }

    #[test]
    fn adopt_extracts_emigrants_and_absorb_restores_them() {
        let (g, vs) = chain();
        let mut s0 = one_shard(&g); // owns everything
        s0.apply(&[
            add(vs[0], vs[2], 2.0),
            UpdateEvent::SetFeatures { vertex: vs[0], features: vec![5.0, 6.0] },
        ]);
        // Move vertex 0 to shard 1; everything else stays.
        let next = Arc::new(vec![1u32, 0, 0, 0]);
        let emigrants = s0.adopt_owners(Arc::clone(&next));
        assert_eq!(emigrants.len(), 1);
        let (v, dst, state) = emigrants.into_iter().next().unwrap();
        assert_eq!((v, dst), (0, 1));
        assert!(state.out.is_some() && state.feats.is_some());
        // The old owner no longer holds (or serves) the moved overlay.
        assert!(s0.out_row(vs[0]).is_none());
        assert!(s0.features(vs[0]).is_none());
        // The new owner absorbs it bit-for-bit, alias included.
        let mut s1 = ShardOverlay::new(Arc::clone(&g), next, 1);
        s1.absorb(v, state);
        assert_eq!(s1.out_row(vs[0]).unwrap().len(), 2);
        assert_eq!(s1.alias(vs[0]).unwrap().weights(), &[1.0, 2.0]);
        assert_eq!(s1.features(vs[0]).unwrap(), &[5.0, 6.0]);
        // Post-adoption edits to the moved vertex apply on the new owner
        // only: routing followed the table.
        let events = [add(vs[0], vs[3], 1.0)];
        assert!(s0.apply(&events).touched.rows.is_empty());
        assert_eq!(s1.apply(&events).touched.rows, vec![0]);
        assert_eq!(s1.out_row(vs[0]).unwrap().len(), 3);
    }

    #[test]
    fn removal_matches_the_edge_type_and_a_miss_is_a_clean_noop() {
        let mut b = GraphBuilder::directed();
        let u = b.add_vertex(USER, AttrVector::empty());
        let i = b.add_vertex(ITEM, AttrVector::empty());
        b.add_edge(u, i, CLICK, 1.0).unwrap();
        b.add_edge(u, i, BUY, 1.0).unwrap();
        let g = Arc::new(b.build());
        let mut store = one_shard(&g);
        let miss = store.apply(&[UpdateEvent::RemoveEdge { src: u, dst: i, etype: EdgeType(9) }]);
        assert!(miss.touched.rows.is_empty());
        assert_eq!(miss.repairs, 0);
        assert_eq!(store.overlay_rows(), 0);
        assert!(store.in_row(i).is_none());
        let hit = store.apply(&[UpdateEvent::RemoveEdge { src: u, dst: i, etype: CLICK }]);
        assert_eq!(hit.touched.rows, vec![u.0]);
        let left = |row: &[Neighbor]| row.iter().map(|n| n.etype).collect::<Vec<_>>();
        assert_eq!(left(store.out_row(u).unwrap()), vec![BUY]);
        assert_eq!(left(store.in_row(i).unwrap()), vec![BUY]);
    }

    #[test]
    fn initial_view_falls_through_to_base() {
        let (g, vs) = chain();
        let view = view_of(&g, 4);
        assert_eq!(view.epoch(), 0);
        assert_eq!(view.out_neighbors(vs[0]).len(), 1);
        assert_eq!(view.features(vs[0]).len(), 4);
        assert!(view.alias(vs[0]).is_some());
        assert!(view.alias(vs[3]).is_none(), "empty row has no table");
    }

    #[test]
    fn pins_keep_their_epoch_across_publishes() {
        let (g, vs) = chain();
        let mgr = EpochManager::new(view_of(&g, 4));
        let pin0 = mgr.pin();
        let (next, _) = pin0.apply_batch(&UpdateBatch { events: vec![add(vs[0], vs[2], 1.0)] });
        let mut swept_at = None;
        mgr.publish_with(Arc::new(next), |v| swept_at = Some(v.epoch()));
        assert_eq!(swept_at, Some(1));
        assert_eq!(mgr.current_epoch(), 1);
        // The old pin still reads version 0; a new pin sees version 1.
        assert_eq!((pin0.epoch(), pin0.out_neighbors(vs[0]).len()), (0, 1));
        assert_eq!((mgr.pin().epoch(), mgr.pin().out_neighbors(vs[0]).len()), (1, 2));
    }

    fn reach(pre: &EpochView, post: &EpochView, applied: &Applied, kmax: usize) -> Vec<VertexId> {
        affected(pre, post, &applied.touched, kmax)
    }

    #[test]
    fn affected_walks_in_edges_to_reader_depth() {
        let (g, vs) = chain();
        let pre = view_of(&g, 2);
        // Modify the out-row of c (= vs[2]).
        let (post, rows) = pre.apply_batch(&UpdateBatch { events: vec![add(vs[2], vs[0], 1.0)] });
        // kmax = 0: a reader with no hops never reads adjacency.
        assert!(reach(&pre, &post, &rows, 0).is_empty());
        // kmax = 1: only c itself samples its own out-row at depth 0.
        assert_eq!(reach(&pre, &post, &rows, 1), vec![vs[2]]);
        // kmax = 2: b reaches c in one out-hop; a does not (two hops).
        assert_eq!(reach(&pre, &post, &rows, 2), vec![vs[1], vs[2]]);
        // kmax = 3: a is now within reach.
        assert_eq!(reach(&pre, &post, &rows, 3), vec![vs[0], vs[1], vs[2]]);

        // A feature-only touch of c reaches one hop further than a row
        // touch: features are read on the last frontier too.
        let set = UpdateEvent::SetFeatures { vertex: vs[2], features: vec![9.0, 9.0] };
        let (post, feats) = pre.apply_batch(&UpdateBatch { events: vec![set] });
        assert!(feats.touched.rows.is_empty());
        assert_eq!(reach(&pre, &post, &feats, 0), vec![vs[2]]);
        assert_eq!(reach(&pre, &post, &feats, 1), vec![vs[1], vs[2]]);
        assert_eq!(reach(&pre, &post, &feats, 2), vec![vs[0], vs[1], vs[2]]);
    }

    #[test]
    fn affected_sees_paths_the_change_itself_created_or_destroyed() {
        // d -> c exists only after the batch; with kmax=2, d must still be
        // invalidated when c's row changes in the same batch, because the
        // post-view path d -> c makes d's gather read c's new row.
        let (g, vs) = chain();
        let pre = view_of(&g, 2);
        let batch = UpdateBatch { events: vec![add(vs[3], vs[2], 1.0), add(vs[2], vs[0], 1.0)] };
        let (post, applied) = pre.apply_batch(&batch);
        let k2 = reach(&pre, &post, &applied, 2);
        assert!(k2.contains(&vs[3]), "post-change in-edge d->c missed: {k2:?}");
        // And removed-edge paths are found through the pre view.
        let rm = UpdateEvent::RemoveEdge { src: vs[1], dst: vs[2], etype: CLICK };
        let (post_rm, applied_rm) = post.apply_batch(&UpdateBatch { events: vec![rm] });
        let k2_rm = reach(&post, &post_rm, &applied_rm, 2);
        assert!(k2_rm.contains(&vs[0]), "pre-change in-edge a->b missed: {k2_rm:?}");
    }

    // ------------------------------------------------------ the index

    impl<T> Index<T> {
        /// Levels between the root and an entry.
        fn depth(&self) -> usize {
            (self.top_shift / NODE_BITS) as usize + 1
        }

        /// Nodes of `self` that `prev` does not hold at the same position:
        /// what the edits between the two versions copied or created. The
        /// count needs no instrumentation of the write path — a node either
        /// is the same allocation in both versions or it is not.
        fn nodes_not_in(&self, prev: &Self) -> usize {
            fn walk<T>(node: &Arc<Node<T>>, prev: Option<&Arc<Node<T>>>) -> usize {
                if prev.is_some_and(|p| Arc::ptr_eq(node, p)) {
                    return 0;
                }
                let Node::Inner(kids) = &**node else { return 1 };
                let below = kids.iter().enumerate().filter_map(|(i, kid)| {
                    let was = match prev.map(|p| &**p) {
                        Some(Node::Inner(prev_kids)) => prev_kids[i].as_ref(),
                        _ => None,
                    };
                    Some(walk(kid.as_ref()?, was))
                });
                1 + below.sum::<usize>()
            }
            self.root.as_ref().map_or(0, |root| walk(root, prev.root.as_ref()))
        }
    }

    impl ShardOverlay {
        fn nodes_not_in(&self, prev: &Self) -> usize {
            self.out_rows.nodes_not_in(&prev.out_rows)
                + self.in_rows.nodes_not_in(&prev.in_rows)
                + self.feats.nodes_not_in(&prev.feats)
        }
    }

    fn model_entries(model: &BTreeMap<u32, u64>) -> Vec<(u32, u64)> {
        model.iter().map(|(&k, &v)| (k, v)).collect()
    }

    fn index_entries(index: &Index<u64>) -> Vec<(u32, u64)> {
        index.keys().into_iter().map(|k| (k, **index.get(k).expect("a listed key reads"))).collect()
    }

    /// The index against a `BTreeMap`, over seeded random interleavings of
    /// insert / edit-in-place / remove / clone. Every retained clone is
    /// re-checked after every later edit: a snapshot never changes.
    #[test]
    fn index_matches_a_btreemap_and_snapshots_never_change() {
        // Key-space sizes on both sides of each level boundary of the
        // 16-way trie, and 31 / 32 / 33 for the other fan-outs measured.
        for n in [1usize, 15, 16, 17, 31, 32, 33, 255, 256, 257, 1025, 4097] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut index: Index<u64> = Index::new(n);
            let mut model: BTreeMap<u32, u64> = BTreeMap::new();
            let mut snapshots = Vec::new();
            // The ends of the range and both sides of every node boundary
            // get most of the traffic; the rest is uniform.
            let mut edges: Vec<u32> = vec![0, n as u32 - 1];
            edges
                .extend((1..4).flat_map(|l| [(1u32 << (NODE_BITS * l)) - 1, 1 << (NODE_BITS * l)]));
            edges.retain(|&k| (k as usize) < n);
            for step in 0..600u64 {
                let k = match rng.gen_range(0..3) {
                    0 => rng.gen_range(0..n as u32),
                    _ => edges[rng.gen_range(0..edges.len())],
                };
                match rng.gen_range(0..10) {
                    0..=3 => {
                        index.insert(k, Arc::new(step));
                        model.insert(k, step);
                    }
                    4..=6 => {
                        index.edit(k, || 1_000_000, |v| *v += step);
                        *model.entry(k).or_insert(1_000_000) += step;
                    }
                    7..=8 => assert_eq!(index.remove(k).map(|v| *v), model.remove(&k)),
                    _ => {
                        if snapshots.len() == 8 {
                            snapshots.remove(0);
                        }
                        snapshots.push((index.clone(), model_entries(&model)));
                    }
                }
                assert_eq!(index.len, model.len(), "n {n} step {step}");
                assert_eq!(index.get(k).map(|v| **v), model.get(&k).copied());
                assert_eq!(index_entries(&index), model_entries(&model), "n {n} step {step}");
                for (snapshot, was) in &snapshots {
                    assert_eq!(&index_entries(snapshot), was, "n {n} step {step}: snapshot moved");
                    assert_eq!(snapshot.len, was.len());
                }
            }
            // Reads beyond the key space answer `None`, on an index of any
            // depth, and so does a removal.
            for k in [n as u32, (n as u32).next_power_of_two() * NODE_SLOTS as u32, u32::MAX] {
                assert!(index.get(k).is_none(), "n {n} key {k}");
                assert!(index.remove(k).is_none());
            }
        }
    }

    /// `n` isolated vertices: every row starts empty, so a batch's cost is
    /// the index's alone.
    fn isolated(n: usize) -> Arc<AttributedHeterogeneousGraph> {
        let mut b = GraphBuilder::directed();
        for _ in 0..n {
            b.add_vertex(USER, AttrVector::empty());
        }
        Arc::new(b.build())
    }

    /// History independence, pinned by a count (CI gates no wall clock): the
    /// ingest path's situation — a published clone of the overlay is still
    /// alive whenever the next batch is applied — over 2 000 batches of 32
    /// adds + the previous 32 retracted + 8 feature rewrites. The index nodes
    /// a batch copies must depend on what the batch touches, not on how many
    /// batches came before. With the shared hash maps this index replaced
    /// the same quantity — entries re-cloned because a published version
    /// shares the map — is the maps' whole length: some 1 400 entries at
    /// batch 20 and ~96 000 at batch 2 000 here, 70 × larger, and growing for
    /// as long as the stream keeps touching new vertices.
    #[test]
    fn a_batch_copies_what_it_touches_however_long_the_stream_has_run() {
        let n = 1usize << 16;
        // Unweighted: alias repairs are not what is counted, and an
        // unoptimized build spends a tenth of this test on them.
        let mut store = ShardOverlay { weighted: false, ..one_shard(&isolated(n)) };
        let mut rng = StdRng::seed_from_u64(20);
        let mut vertex = move || VertexId(rng.gen_range(0..n as u32));
        let mut prev_adds: Vec<(VertexId, VertexId)> = Vec::new();
        // Nodes copied by batches 20, 40, … 2 000.
        let mut copied = Vec::new();
        for batch in 1..=2_000 {
            let published = store.clone();
            let mut events: Vec<UpdateEvent> = prev_adds
                .drain(..)
                .map(|(src, dst)| UpdateEvent::RemoveEdge { src, dst, etype: CLICK })
                .collect();
            for _ in 0..32 {
                let (src, dst) = (vertex(), vertex());
                prev_adds.push((src, dst));
                events.push(add(src, dst, 1.0));
            }
            for _ in 0..8 {
                events.push(UpdateEvent::SetFeatures { vertex: vertex(), features: vec![0.5; 4] });
            }
            store.apply(&events);
            if batch % 20 == 0 {
                // An edge event writes two slots (out-row, in-row), a
                // feature event one; each slot's path is `depth` nodes.
                let slots = 2 * (events.len() - 8) + 8;
                let nodes = store.nodes_not_in(&published);
                assert!(
                    nodes > 0 && nodes <= slots * store.out_rows.depth(),
                    "batch {batch}: {nodes}"
                );
                copied.push(nodes);
            }
        }
        let entries = store.out_rows.len + store.in_rows.len + store.feats.len;
        assert!(entries > 90_000, "the stream must leave a long history behind");
        let (early, late) = (copied[0], copied[99]);
        assert!(late <= 2 * early, "batch 2000 copied {late} nodes, batch 20 copied {early}");
    }

    // ------------------------------------------- affected vs the oracle

    /// The rule as the parent stated it: hash-set BFS per view per source
    /// set, united.
    fn affected_oracle(
        pre: &EpochView,
        post: &EpochView,
        touched: &Touched,
        kmax: usize,
    ) -> Vec<VertexId> {
        let sources = |ids: &[u32]| ids.iter().map(|&v| VertexId(v)).collect::<HashSet<_>>();
        let views = [pre, post];
        let mut reached = reverse_reach(&views, &sources(&touched.feats), kmax);
        if kmax > 0 {
            reached.extend(reverse_reach(&views, &sources(&touched.rows), kmax - 1));
        }
        let mut out: Vec<VertexId> = reached.into_iter().collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn affected_equals_the_hash_set_oracle_on_random_graphs_with_a_hub() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // 70 vertices so the bitmap's last word is partial; vertex 0 is
            // a hub most vertices point at, vertex 1 its own in-neighbor.
            let n = 70u32;
            let mut b = GraphBuilder::directed();
            let vs: Vec<VertexId> =
                (0..n).map(|_| b.add_vertex(USER, AttrVector::empty())).collect();
            for &v in &vs[2..] {
                if rng.gen_range(0..4) != 0 {
                    b.add_edge(v, vs[0], CLICK, 1.0).unwrap();
                }
            }
            b.add_edge(vs[1], vs[1], CLICK, 1.0).unwrap();
            for _ in 0..90 {
                let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
                b.add_edge(VertexId(src), VertexId(dst), CLICK, 1.0).unwrap();
            }
            let g = Arc::new(b.build());
            let mut pre = view_of(&g, 2);
            for round in 0..12 {
                // Removals of edges that exist (their paths are only in the
                // pre view), additions (only in the post view), feature
                // rewrites, and the hub and the self-loop among the sources.
                let mut events = Vec::new();
                for _ in 0..rng.gen_range(0..4) {
                    let src = VertexId(rng.gen_range(0..n));
                    if let Some(rec) = pre.out_neighbors(src).first() {
                        events.push(UpdateEvent::RemoveEdge { src, dst: rec.vertex, etype: CLICK });
                    }
                }
                for _ in 0..rng.gen_range(0..4) {
                    let (src, dst) = (rng.gen_range(0..3 + round), rng.gen_range(0..n));
                    events.push(add(VertexId(src), VertexId(dst), 1.0));
                }
                for _ in 0..rng.gen_range(0..3) {
                    let vertex = VertexId(rng.gen_range(0..n));
                    events.push(UpdateEvent::SetFeatures { vertex, features: vec![1.0, 2.0] });
                }
                let (post, applied) = pre.apply_batch(&UpdateBatch { events });
                for kmax in 0..=3 {
                    let got = affected(&pre, &post, &applied.touched, kmax);
                    let want = affected_oracle(&pre, &post, &applied.touched, kmax);
                    assert_eq!(got, want, "seed {seed} round {round} kmax {kmax}");
                    assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");
                }
                pre = post;
            }
        }
    }
}
