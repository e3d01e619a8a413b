//! The dynamic-graph plane: the one online graph state under both the
//! serving and the streaming service (DESIGN.md §2.5).
//!
//! The offline store ([`AttributedHeterogeneousGraph`]) is immutable; a
//! dynamic graph is a series of versions over it (paper §2). Each version
//! is an [`EpochView`]: the base snapshot plus one persistent overlay
//! holding only the *touched* adjacency rows, alias tables and feature
//! vectors. The overlay holds no placement: which shard serves or ingests
//! a vertex is the service's business, not the graph state's. The rules
//! this module owns:
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
//! * **session consistency** — views publish through a
//!   [`Published`](aligraph_storage::Published) cell (DESIGN.md §2.15): readers pin one epoch and read
//!   exactly that version, however many batches land meanwhile; published
//!   epochs are strictly increasing;
//! * **targeted invalidation** — [`affected`] is the set of cached keys a
//!   change can reach, and [`commit`] sweeps it from the cache under the
//!   publish lock, so no reader sees the new epoch with the old cache or
//!   the reverse.

use crate::alias::{AliasColumns, AliasSlice, AliasTable, BuildScratch, IncrementalAlias};
use crate::neighborhood::NeighborAccess;
use aligraph_graph::dynamic::{SnapshotDelta, UpdateBatch, UpdateEvent};
use aligraph_graph::{
    AttrId, AttributedHeterogeneousGraph, EdgeType, FeatureMatrix, Neighbor, VertexId,
};
use aligraph_storage::{StaleEpoch, Versioned, VersionedCache, Writer};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Attribute record id for overlay-added edges, which carry no attributes
/// (nothing on the online read path dereferences edge attributes).
const SYNTH_ATTR: AttrId = AttrId(u32::MAX);

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
        // invariant: every write is behind `Overlay::apply`'s range guard,
        // which skips an event naming a vertex beyond the base this index
        // was sized from; only reads can be out of range, and `get`
        // answers `None`.
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

/// The persistent overlay of one graph version: the adjacency rows, alias
/// tables and feature overrides that differ from the base snapshot, each
/// keyed by its vertex. Cloning is O(1) (`Arc` bumps); a clone that is then
/// edited copies only the index paths and rows the edit writes, so whoever
/// holds the original keeps reading the version it had.
#[derive(Debug, Clone)]
struct Overlay {
    /// Whether touched rows keep an alias table. An [`EpochView`] built
    /// without base alias columns answers `alias() == None` for untouched
    /// rows, so it must for touched ones too — and then nobody would read
    /// the tables that cost about a third of applying a batch.
    weighted: bool,
    out_rows: Index<OutRow>,
    in_rows: Index<Vec<Neighbor>>,
    feats: Index<Vec<f32>>,
}

impl Overlay {
    /// Applies one batch of events over `base` in one pass — an out-row
    /// edit keyed by its source, an in-row edit by its destination, a
    /// feature override by its vertex — and repairs every touched alias
    /// table in place. A removal that matches no record touches nothing,
    /// and so does an event naming a vertex beyond `base` (one that skipped
    /// [`EpochView::check`]).
    fn apply(&mut self, base: &AttributedHeterogeneousGraph, events: &[UpdateEvent]) -> Applied {
        let (weighted, n) = (self.weighted, base.num_vertices());
        let mut rows: BTreeSet<u32> = BTreeSet::new();
        let mut feats: BTreeSet<u32> = BTreeSet::new();
        for ev in events {
            if ends(ev).iter().any(|v| v.0 as usize >= n) {
                continue;
            }
            match *ev {
                UpdateEvent::AddEdge { src, dst, etype, weight } => {
                    let rec = |vertex| Neighbor { vertex, weight, attr: SYNTH_ATTR, etype };
                    let first = || OutRow::from_base(base, src, weighted);
                    self.out_rows.edit(src.0, first, |e| {
                        e.row.push(rec(dst));
                        if weighted {
                            e.alias.push(weight);
                        }
                    });
                    rows.insert(src.0);
                    let first = || base.in_neighbors(dst).to_vec();
                    self.in_rows.edit(dst.0, first, |row| row.push(rec(src)));
                }
                UpdateEvent::RemoveEdge { src, dst, etype } => {
                    let row = self
                        .out_rows
                        .get(src.0)
                        .map_or(base.out_neighbors(src), |e| e.row.as_slice());
                    if let Some(i) = position(row, dst, etype) {
                        let first = || OutRow::from_base(base, src, weighted);
                        self.out_rows.edit(src.0, first, |e| {
                            e.row.remove(i);
                            // Order-preserving removal keeps alias indices
                            // aligned with row indices.
                            if weighted {
                                e.alias.remove(i);
                            }
                        });
                        rows.insert(src.0);
                    }
                    let row =
                        self.in_rows.get(dst.0).map_or(base.in_neighbors(dst), |r| r.as_slice());
                    if let Some(i) = position(row, src, etype) {
                        let first = || base.in_neighbors(dst).to_vec();
                        self.in_rows.edit(dst.0, first, |row| {
                            row.remove(i);
                        });
                    }
                }
                UpdateEvent::SetFeatures { vertex, ref features } => {
                    self.feats.insert(vertex.0, Arc::new(features.clone()));
                    feats.insert(vertex.0);
                }
            }
        }
        // The incremental-maintenance hot path: one in-place repair per
        // touched row, buffer-reusing, O(Σ touched degrees) — never a
        // rebuild of untouched tables; the edits above left each touched row
        // and its index path unshared, so nothing is copied here.
        let (mut repairs, mut repaired_slots) = (0u64, 0u64);
        if weighted {
            let mut scratch = BuildScratch::default();
            for &v in &rows {
                let Some(e) = self.out_rows.slot_mut(v).as_mut().map(Arc::make_mut) else {
                    continue;
                };
                if e.alias.is_dirty() {
                    e.alias.repair_with(&mut scratch);
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
}

/// The vertices an event names (a feature rewrite's twice).
fn ends(ev: &UpdateEvent) -> [VertexId; 2] {
    match *ev {
        UpdateEvent::AddEdge { src, dst, .. } | UpdateEvent::RemoveEdge { src, dst, .. } => {
            [src, dst]
        }
        UpdateEvent::SetFeatures { vertex, .. } => [vertex; 2],
    }
}

/// Index of the first record of `row` pointing at `far` with type `etype`.
fn position(row: &[Neighbor], far: VertexId, etype: EdgeType) -> Option<usize> {
    row.iter().position(|n| n.vertex == far && n.etype == etype)
}

/// One immutable graph version: the base snapshot and one overlay.
#[derive(Debug, Clone)]
pub struct EpochView {
    epoch: u64,
    base: Arc<AttributedHeterogeneousGraph>,
    base_feats: Arc<FeatureMatrix>,
    /// Alias tables of the base rows as columns over the base's out-edge
    /// ids, built once at startup by a service that samples by weight
    /// (`None` for one that does not); vertices enter the incremental
    /// plane on first touch.
    base_alias: Option<Arc<AliasColumns>>,
    overlay: Overlay,
}

impl EpochView {
    /// Epoch 0: the bare base snapshot under an empty overlay. Panics when
    /// `base_alias` was built from another graph than `base`.
    pub fn initial(
        base: Arc<AttributedHeterogeneousGraph>,
        base_feats: Arc<FeatureMatrix>,
        base_alias: Option<Arc<AliasColumns>>,
    ) -> Self {
        if let Some(columns) = &base_alias {
            assert!(columns.fits(&base), "alias columns built from another graph");
        }
        let n = base.num_vertices();
        let overlay = Overlay {
            weighted: base_alias.is_some(),
            out_rows: Index::new(n),
            in_rows: Index::new(n),
            feats: Index::new(n),
        };
        EpochView { epoch: 0, base, base_feats, base_alias, overlay }
    }

    /// Applies a batch on the caller's thread and returns the next version
    /// with what it touched. `self` is untouched — readers pinned to it
    /// finish against it. The batch must have passed
    /// [`check`](Self::check).
    pub fn apply_batch(&self, batch: &UpdateBatch) -> (EpochView, Applied) {
        let mut next = self.clone();
        next.epoch += 1;
        let applied = next.overlay.apply(&self.base, &batch.events);
        (next, applied)
    }

    /// [`apply_batch`](Self::apply_batch) of a lowered snapshot delta.
    pub fn apply(&self, delta: &SnapshotDelta) -> EpochView {
        self.apply_batch(&UpdateBatch::from(delta)).0
    }

    /// The one admission check of the plane, run before anything is
    /// applied or sent: every vertex id in range, every weight finite,
    /// every feature row as wide as the base matrix. `Err` is the index of
    /// the first bad event and why — an edge to an out-of-range id would
    /// otherwise panic a later *reader* following it.
    pub fn check(&self, batch: &UpdateBatch) -> Result<(), (usize, String)> {
        let (n, dim) = (self.num_vertices(), self.base_feats.dim);
        let fault = |ev: &UpdateEvent| -> Option<String> {
            let other = match ev {
                UpdateEvent::AddEdge { weight, .. } => {
                    (!weight.is_finite()).then(|| format!("weight {weight}"))
                }
                UpdateEvent::RemoveEdge { .. } => None,
                UpdateEvent::SetFeatures { features, .. } => {
                    let width = features.len();
                    (width != dim).then(|| format!("feature row of {width}, base matrix has {dim}"))
                }
            };
            let unknown = ends(ev).into_iter().find(|v| v.0 as usize >= n);
            unknown.map(|v| format!("vertex {} out of range (graph has {n})", v.0)).or(other)
        };
        match batch.events.iter().enumerate().find_map(|(i, ev)| Some((i, fault(ev)?))) {
            Some(bad) => Err(bad),
            None => Ok(()),
        }
    }

    /// This view's epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of vertices (fixed: updates only rewire edges and features).
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Out-neighbors of `v` at this epoch (reads no alias column).
    pub fn out_neighbors(&self, v: VertexId) -> &[Neighbor] {
        self.overlay.out_rows.get(v.0).map_or(self.base.out_neighbors(v), |e| e.row.as_slice())
    }

    /// In-neighbors of `v` at this epoch.
    pub fn in_neighbors(&self, v: VertexId) -> &[Neighbor] {
        self.overlay.in_rows.get(v.0).map_or(self.base.in_neighbors(v), |r| r.as_slice())
    }

    /// Dense features of `v` at this epoch.
    pub fn features(&self, v: VertexId) -> &[f32] {
        self.overlay.feats.get(v.0).map_or(self.base_feats.row(v), |f| f.as_slice())
    }

    /// The weighted-sampling alias table of `v`'s out-row at this epoch
    /// (`None` when the row is empty or degenerate).
    pub fn alias(&self, v: VertexId) -> Option<AliasSlice<'_>> {
        self.out_row_and_alias(v).1
    }

    /// [`out_neighbors`](Self::out_neighbors) and [`alias`](Self::alias) of
    /// `v` from one overlay lookup — what a sampler expanding `v` reads. A
    /// touched row answers with its repaired table, an untouched one with
    /// its slice of the base columns.
    pub fn out_row_and_alias(&self, v: VertexId) -> (&[Neighbor], Option<AliasSlice<'_>>) {
        match self.overlay.out_rows.get(v.0) {
            Some(e) => (&e.row, e.alias.table().map(AliasTable::as_slice)),
            None => {
                let columns = self.base_alias.as_deref();
                let alias = columns.and_then(|c| c.row(self.base.out_edge_ids(v)));
                (self.base.out_neighbors(v), alias)
            }
        }
    }

    /// Every incrementally maintained alias table at this epoch, ascending
    /// by vertex (for the rebuild oracle).
    pub fn alias_entries(&self) -> impl Iterator<Item = (u32, &IncrementalAlias)> {
        let rows = &self.overlay.out_rows;
        rows.keys().into_iter().filter_map(|v| Some((v, &rows.get(v)?.alias)))
    }

    /// Overlay entries at this epoch: `[out-rows, in-rows, feature rows]` —
    /// the state that grows with the stream's history until it is
    /// compacted.
    pub fn overlay_rows(&self) -> [usize; 3] {
        let o = &self.overlay;
        [o.out_rows.len, o.in_rows.len, o.feats.len]
    }
}

impl NeighborAccess for EpochView {
    #[inline]
    fn neighbors(&self, v: VertexId, _hop: usize) -> &[Neighbor] {
        self.out_neighbors(v)
    }

    #[inline]
    fn row(&self, v: VertexId, _hop: usize) -> (&[Neighbor], Option<AliasSlice<'_>>) {
        self.out_row_and_alias(v)
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

impl Versioned for EpochView {
    fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// What one [`commit`] published.
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

/// The one write path of the plane: publishes `next`, built from `writer`'s
/// head with `applied`, computes the [`affected`] set of what it touched for
/// a `kmax`-hop reader over both versions, and sweeps exactly that set out
/// of `cache` under the publish lock. Writers are serialized, so epochs
/// advance in the order writers take the cell; in-flight readers of the old
/// version finish on their pin and their late cache inserts are
/// version-checked away.
pub fn commit<V: Clone>(
    writer: Writer<'_, EpochView>,
    next: EpochView,
    applied: Applied,
    kmax: usize,
    cache: &VersionedCache<u32, V>,
) -> Result<Committed, StaleEpoch> {
    let affected = affected(writer.head(), &next, &applied.touched, kmax);
    let epoch = next.epoch();
    let mut invalidated = 0;
    writer.publish(next, || invalidated = cache.advance(epoch, affected.iter().map(|v| v.0)))?;
    Ok(Committed { epoch, applied, affected: affected.len(), invalidated })
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

    /// A view with `dim`-wide features and the base alias columns.
    fn view_of(base: &Arc<AttributedHeterogeneousGraph>, dim: usize) -> EpochView {
        let feats = Arc::new(Featurizer::new(dim).matrix(base));
        let alias = Arc::new(AliasColumns::build(base));
        EpochView::initial(Arc::clone(base), feats, Some(alias))
    }

    fn add(src: VertexId, dst: VertexId, weight: f32) -> UpdateEvent {
        UpdateEvent::AddEdge { src, dst, etype: CLICK, weight }
    }

    fn ids(row: &[Neighbor]) -> Vec<VertexId> {
        row.iter().map(|n| n.vertex).collect()
    }

    fn batch(events: Vec<UpdateEvent>) -> UpdateBatch {
        UpdateBatch { events }
    }

    #[test]
    fn apply_edits_rows_and_repairs_alias_in_place() {
        let (g, vs) = chain();
        let v0 = view_of(&g, 2);
        let (v1, applied) = v0.apply_batch(&batch(vec![
            add(vs[0], vs[2], 2.0),
            UpdateEvent::RemoveEdge { src: vs[1], dst: vs[2], etype: CLICK },
            UpdateEvent::SetFeatures { vertex: vs[3], features: vec![1.0, 2.0] },
        ]));
        assert_eq!(applied.touched.rows, vec![vs[0].0, vs[1].0]);
        assert_eq!(applied.touched.feats, vec![vs[3].0]);
        assert_eq!(applied.repairs, 2);
        let row0 = v1.out_neighbors(vs[0]);
        assert_eq!(ids(row0), vec![vs[1], vs[2]]);
        assert!(v1.out_neighbors(vs[1]).is_empty());
        assert_eq!(ids(v1.in_neighbors(vs[2])), vec![vs[0]]);
        assert_eq!(v1.features(vs[3]), &[1.0, 2.0]);
        // Each touched alias is bit-exact against a from-scratch rebuild of
        // its current row weights.
        for (v, inc) in v1.alias_entries() {
            assert!(inc.bit_eq_rebuild(), "vertex {v} alias diverged from rebuild");
        }
        let a0 = v1.alias(vs[0]).unwrap();
        let fresh = AliasTable::new(&row0.iter().map(|n| n.weight).collect::<Vec<_>>()).unwrap();
        assert!(a0.bit_eq(&fresh.as_slice()));
        // Empty row => degenerate table, exactly like a rebuild would say.
        assert!(v1.alias(vs[1]).is_none());
        // The version it was built from and the base snapshot are
        // untouched, and untouched rows still fall through to the base (no
        // copies made): two out-rows, one in-row, one feature override.
        assert_eq!(v0.overlay_rows(), [0, 0, 0]);
        assert_ne!(v0.features(vs[3]), &[1.0, 2.0]);
        assert_eq!(g.out_neighbors(vs[0]).len(), 1);
        assert_eq!(v1.overlay_rows(), [2, 1, 1]);
        // A second edit of an already-overlaid row leaves the first
        // published copy as it was.
        let (v2, _) = v1.apply_batch(&batch(vec![add(vs[0], vs[3], 1.0)]));
        assert_eq!(v2.out_neighbors(vs[0]).len(), 3);
        assert_eq!(v1.out_neighbors(vs[0]).len(), 2);
    }

    #[test]
    fn removal_matches_the_edge_type_and_a_miss_is_a_clean_noop() {
        let mut b = GraphBuilder::directed();
        let u = b.add_vertex(USER, AttrVector::empty());
        let i = b.add_vertex(ITEM, AttrVector::empty());
        b.add_edge(u, i, CLICK, 1.0).unwrap();
        b.add_edge(u, i, BUY, 1.0).unwrap();
        let g = Arc::new(b.build());
        let view = view_of(&g, 2);
        let remove = |etype| batch(vec![UpdateEvent::RemoveEdge { src: u, dst: i, etype }]);
        let (after_miss, miss) = view.apply_batch(&remove(EdgeType(9)));
        assert!(miss.touched.rows.is_empty());
        assert_eq!(miss.repairs, 0);
        assert_eq!(after_miss.overlay_rows(), [0, 0, 0]);
        let (after_hit, hit) = view.apply_batch(&remove(CLICK));
        assert_eq!(hit.touched.rows, vec![u.0]);
        let left = |row: &[Neighbor]| row.iter().map(|n| n.etype).collect::<Vec<_>>();
        assert_eq!(left(after_hit.out_neighbors(u)), vec![BUY]);
        assert_eq!(left(after_hit.in_neighbors(i)), vec![BUY]);
    }

    /// `check` refuses an event naming a vertex beyond the graph; one that
    /// skipped it still touches nothing — no row, no trie slot, no base
    /// lookup — whichever end is out of range.
    #[test]
    fn an_unchecked_event_naming_an_unknown_vertex_touches_nothing() {
        let (g, vs) = chain();
        let view = view_of(&g, 2);
        for far in [VertexId(g.num_vertices() as u32), VertexId(u32::MAX)] {
            let remove = |src, dst| UpdateEvent::RemoveEdge { src, dst, etype: CLICK };
            for ev in [
                add(vs[0], far, 1.0),
                add(far, vs[0], 1.0),
                remove(vs[0], far),
                remove(far, vs[1]),
                UpdateEvent::SetFeatures { vertex: far, features: vec![1.0, 2.0] },
            ] {
                let unchecked = batch(vec![ev]);
                assert!(view.check(&unchecked).is_err());
                let (next, applied) = view.apply_batch(&unchecked);
                assert_eq!((applied.touched, applied.repairs), (Touched::default(), 0));
                assert_eq!(next.overlay_rows(), [0, 0, 0]);
            }
        }
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

    /// An untouched row answers with its slice of the base columns, bit
    /// equal to a rebuild of the row (`None` included); a touched one with
    /// its repaired table, and the rows after it keep their slices.
    #[test]
    fn a_base_row_answers_its_columns_slice_and_a_touched_row_its_repair() {
        let g = Arc::new(crate::alias::tests::awkward_graph());
        let same =
            |view: &EpochView, v: VertexId, want: Option<AliasTable>| match (view.alias(v), want) {
                (Some(got), Some(want)) => assert!(got.bit_eq(&want.as_slice()), "vertex {}", v.0),
                (got, want) => assert!(got.is_none() && want.is_none(), "vertex {}", v.0),
            };
        let view = view_of(&g, 2);
        for v in g.vertices() {
            same(&view, v, crate::alias::tests::rebuilt(&g, v));
        }
        // The empty row gains a table; the `f32::MAX` row keeps one.
        let touched = [VertexId(1), VertexId(2)];
        let (next, _) = view.apply_batch(&batch(touched.map(|v| add(v, VertexId(9), 1.0)).into()));
        for v in touched {
            let weights: Vec<f32> = next.out_neighbors(v).iter().map(|n| n.weight).collect();
            same(&next, v, AliasTable::new(&weights));
        }
        assert!(touched.iter().all(|&v| next.alias(v).is_some()));
        for v in g.vertices().filter(|v| !touched.contains(v)) {
            same(&next, v, crate::alias::tests::rebuilt(&g, v));
        }
    }

    #[test]
    fn pins_keep_their_epoch_across_publishes() {
        let (g, vs) = chain();
        let plane = aligraph_storage::Published::new(view_of(&g, 4));
        let cache = VersionedCache::registered(8, &aligraph_telemetry::Registry::disabled(), "t");
        cache.insert(vs[0].0, 0, 7);
        let pin0 = plane.pin();
        let w = plane.write();
        let (next, applied) = w.head().apply_batch(&batch(vec![add(vs[0], vs[2], 1.0)]));
        let done = commit(w, next, applied, 1, &cache).unwrap();
        assert_eq!((done.epoch, done.affected, done.invalidated), (1, 1, 1));
        assert_eq!((plane.current_epoch(), cache.version()), (1, 1));
        // The old pin still reads version 0; a new pin sees version 1.
        assert_eq!((pin0.epoch(), pin0.out_neighbors(vs[0]).len()), (0, 1));
        assert_eq!((plane.pin().epoch(), plane.pin().out_neighbors(vs[0]).len()), (1, 2));
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

    impl Overlay {
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
    /// insert / edit-in-place / clone. Every retained clone is
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
                match rng.gen_range(0..8) {
                    0..=3 => {
                        index.insert(k, Arc::new(step));
                        model.insert(k, step);
                    }
                    4..=6 => {
                        index.edit(k, || 1_000_000, |v| *v += step);
                        *model.entry(k).or_insert(1_000_000) += step;
                    }
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
            // depth.
            for k in [n as u32, (n as u32).next_power_of_two() * NODE_SLOTS as u32, u32::MAX] {
                assert!(index.get(k).is_none(), "n {n} key {k}");
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
        // Unweighted (no base alias columns): alias repairs are not what is
        // counted, and an unoptimized build spends a tenth of this test on
        // them.
        let g = isolated(n);
        let feats = Arc::new(Featurizer::new(4).matrix(&g));
        let mut view = EpochView::initial(g, feats, None);
        let mut rng = StdRng::seed_from_u64(20);
        let mut vertex = move || VertexId(rng.gen_range(0..n as u32));
        let mut prev_adds: Vec<(VertexId, VertexId)> = Vec::new();
        // Nodes copied by batches 20, 40, … 2 000.
        let mut copied = Vec::new();
        for round in 1..=2_000 {
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
            // An edge event writes two slots (out-row, in-row), a feature
            // event one; each slot's path is `depth` nodes.
            let slots = 2 * (events.len() - 8) + 8;
            // `view`, the published version, stays alive while its
            // successor is built.
            let (next, _) = view.apply_batch(&batch(events));
            if round % 20 == 0 {
                let nodes = next.overlay.nodes_not_in(&view.overlay);
                assert!(
                    nodes > 0 && nodes <= slots * view.overlay.out_rows.depth(),
                    "batch {round}: {nodes}"
                );
                copied.push(nodes);
            }
            view = next;
        }
        let entries: usize = view.overlay_rows().iter().sum();
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
