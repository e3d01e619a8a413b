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
//!   copied from the base the first time an update edits it, every map and
//!   row sits behind an `Arc` edited through `Arc::make_mut`, so applying a
//!   batch costs O(touched rows) and a pinned version never changes;
//! * **session consistency** — readers [`pin`](EpochManager::pin) one epoch
//!   and read exactly that version, however many batches land meanwhile;
//!   published epochs are strictly increasing;
//! * **targeted invalidation** — [`affected`] is the set of cached keys a
//!   change can reach, and [`EpochManager::commit`] sweeps it from the
//!   cache under the publish lock, so no reader sees the new epoch with the
//!   old cache or the reverse.

use crate::alias::{AliasTable, IncrementalAlias};
use crate::neighborhood::{reverse_reach, InNeighborAccess, NeighborAccess};
use aligraph_graph::dynamic::{SnapshotDelta, UpdateBatch, UpdateEvent};
use aligraph_graph::{
    AttrId, AttributedHeterogeneousGraph, EdgeId, EdgeType, FeatureMatrix, Neighbor, VertexId,
};
use aligraph_storage::VersionedCache;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeSet, HashMap, HashSet};
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
/// entry so an edit copies them together (two copied maps per edge-only
/// batch, not three) and `alias.weights == row weights` holds by
/// construction. On an unweighted overlay the alias stays empty.
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

/// One vertex's extracted overlay state, handed from its previous owner to
/// its new owner when an ownership table is adopted mid-stream. `None`
/// fields mean the previous owner never touched that aspect (the base
/// snapshot still serves it correctly on any shard).
#[derive(Debug, Clone, Default)]
pub struct VertexOverlay {
    out: Option<Arc<OutRow>>,
    in_row: Option<Arc<Vec<Neighbor>>>,
    feats: Option<Arc<Vec<f32>>>,
}

/// One shard's persistent overlay: the adjacency rows, alias tables and
/// feature overrides of the vertices it owns that differ from the base
/// snapshot. Cloning is O(1) (`Arc` bumps); a clone that is then edited
/// copies only the maps and rows the edit writes, so whoever holds the
/// original keeps reading the version it had.
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
    out_rows: Arc<HashMap<u32, Arc<OutRow>>>,
    in_rows: Arc<HashMap<u32, Arc<Vec<Neighbor>>>>,
    feats: Arc<HashMap<u32, Arc<Vec<f32>>>>,
}

impl ShardOverlay {
    /// An empty overlay for shard `me` over the base snapshot.
    pub fn new(base: Arc<AttributedHeterogeneousGraph>, owners: Arc<Vec<u32>>, me: u32) -> Self {
        ShardOverlay {
            base,
            owners,
            me,
            weighted: true,
            out_rows: Arc::default(),
            in_rows: Arc::default(),
            feats: Arc::default(),
        }
    }

    /// The overlaid out-row of `v`, when this shard has touched it.
    pub fn out_row(&self, v: VertexId) -> Option<&[Neighbor]> {
        self.out_rows.get(&v.0).map(|e| e.row.as_slice())
    }

    /// The overlaid in-row of `v`, when this shard has touched it.
    pub fn in_row(&self, v: VertexId) -> Option<&[Neighbor]> {
        self.in_rows.get(&v.0).map(|r| r.as_slice())
    }

    /// The incrementally maintained alias table of `v`, when touched.
    pub fn alias(&self, v: VertexId) -> Option<&IncrementalAlias> {
        self.out_rows.get(&v.0).map(|e| &e.alias)
    }

    /// The overlaid feature vector of `v`, when touched.
    pub fn features(&self, v: VertexId) -> Option<&[f32]> {
        self.feats.get(&v.0).map(|f| f.as_slice())
    }

    /// All incrementally maintained alias tables (for the rebuild oracle).
    pub fn alias_entries(&self) -> impl Iterator<Item = (u32, &IncrementalAlias)> {
        self.out_rows.iter().map(|(&v, e)| (v, &e.alias))
    }

    /// Number of adjacency rows this shard has overlaid.
    pub fn overlay_rows(&self) -> usize {
        self.out_rows.len()
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
                        edit_row(&mut self.out_rows, src, first, |e| {
                            e.row.push(rec(dst));
                            if weighted {
                                e.alias.push(weight);
                            }
                        });
                        rows.insert(src.0);
                    }
                    if self.owns(dst) {
                        let first = || self.base.in_neighbors(dst).to_vec();
                        edit_row(&mut self.in_rows, dst, first, |row| row.push(rec(src)));
                    }
                }
                UpdateEvent::RemoveEdge { src, dst, etype } => {
                    if self.owns(src) {
                        let row = self.out_row(src).unwrap_or(self.base.out_neighbors(src));
                        if let Some(i) = position(row, dst, etype) {
                            let first = || OutRow::from_base(&self.base, src, weighted);
                            edit_row(&mut self.out_rows, src, first, |e| {
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
                            edit_row(&mut self.in_rows, dst, first, |row| {
                                row.remove(i);
                            });
                        }
                    }
                }
                UpdateEvent::SetFeatures { vertex, ref features } => {
                    if self.owns(vertex) {
                        Arc::make_mut(&mut self.feats).insert(vertex.0, Arc::new(features.clone()));
                        feats.insert(vertex.0);
                    }
                }
            }
        }
        // The incremental-maintenance hot path: one in-place repair per
        // touched row, buffer-reusing, O(Σ touched degrees) — never a
        // rebuild of untouched tables.
        let (mut repairs, mut repaired_slots) = (0u64, 0u64);
        if weighted && !rows.is_empty() {
            let out_rows = Arc::make_mut(&mut self.out_rows);
            for v in &rows {
                let Some(e) = out_rows.get_mut(v).map(Arc::make_mut) else { continue };
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
    pub fn adopt_owners(&mut self, owners: Arc<Vec<u32>>) -> Vec<(u32, u32, VertexOverlay)> {
        self.owners = owners;
        let leaving: BTreeSet<u32> = self
            .out_rows
            .keys()
            .chain(self.in_rows.keys())
            .chain(self.feats.keys())
            .copied()
            .filter(|&v| !self.owns(VertexId(v)))
            .collect();
        if leaving.is_empty() {
            return Vec::new();
        }
        let out_rows = Arc::make_mut(&mut self.out_rows);
        let in_rows = Arc::make_mut(&mut self.in_rows);
        let feats = Arc::make_mut(&mut self.feats);
        leaving
            .into_iter()
            .map(|v| {
                let state = VertexOverlay {
                    out: out_rows.remove(&v),
                    in_row: in_rows.remove(&v),
                    feats: feats.remove(&v),
                };
                (v, self.owners.get(v as usize).copied().unwrap_or(0), state)
            })
            .collect()
    }

    /// Installs overlay state extracted from a vertex's previous owner.
    /// Present fields overwrite (the emigrant state is newer by
    /// construction); absent fields leave any local state alone, so a
    /// duplicate absorb is harmless.
    pub fn absorb(&mut self, v: u32, state: VertexOverlay) {
        if let Some(e) = state.out {
            Arc::make_mut(&mut self.out_rows).insert(v, e);
        }
        if let Some(r) = state.in_row {
            Arc::make_mut(&mut self.in_rows).insert(v, r);
        }
        if let Some(f) = state.feats {
            Arc::make_mut(&mut self.feats).insert(v, f);
        }
    }
}

/// Index of the first record of `row` pointing at `far` with type `etype`.
fn position(row: &[Neighbor], far: VertexId, etype: EdgeType) -> Option<usize> {
    row.iter().position(|n| n.vertex == far && n.etype == etype)
}

/// Materializes `v`'s entry in an overlay map (built by `first_touch` from
/// the base snapshot when the overlay has none yet) and edits it in place.
/// Both `make_mut`s copy only what a published version still shares.
fn edit_row<T: Clone>(
    rows: &mut Arc<HashMap<u32, Arc<T>>>,
    v: VertexId,
    first_touch: impl FnOnce() -> T,
    edit: impl FnOnce(&mut T),
) {
    let row = Arc::make_mut(rows).entry(v.0).or_insert_with(|| Arc::new(first_touch()));
    edit(Arc::make_mut(row));
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
        self.with_routing(Arc::clone(&self.owners), shards)
    }

    /// The next version with re-pointed ownership: a new owner table plus
    /// the post-handoff shard overlays, same base. This is how streaming
    /// routing follows an elastic rebalance — readers at this epoch resolve
    /// every vertex through the new table, and the overlays already hold
    /// the migrated state, so the graph bits are unchanged.
    pub fn with_routing(&self, owners: Arc<Vec<u32>>, shards: Vec<ShardOverlay>) -> EpochView {
        debug_assert_eq!(owners.len(), self.num_vertices());
        debug_assert_eq!(shards.len(), self.shards.len());
        EpochView {
            epoch: self.epoch + 1,
            base: Arc::clone(&self.base),
            base_feats: Arc::clone(&self.base_feats),
            base_alias: Arc::clone(&self.base_alias),
            owners,
            shards,
        }
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
        self.shard_of(v).out_row(v).unwrap_or(self.base.out_neighbors(v))
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
        match self.shard_of(v).alias(v) {
            Some(inc) => inc.table(),
            None => self.base_alias.get(v.0 as usize)?.as_deref(),
        }
    }
}

impl NeighborAccess for EpochView {
    #[inline]
    fn neighbors(&self, v: VertexId, _hop: usize) -> &[Neighbor] {
        self.out_neighbors(v)
    }
}

impl InNeighborAccess for EpochView {
    #[inline]
    fn in_neighbors_of(&self, v: VertexId) -> &[Neighbor] {
        self.in_neighbors(v)
    }
}

/// The cached keys a change can reach: every vertex whose `kmax`-hop
/// gather reads a touched row or feature vector.
///
/// A `kmax`-hop reader samples the out-row of every vertex it expands at
/// depths `0..kmax-1` from the seed and reads features at every hop
/// including the last frontier — hence rows reach back `kmax - 1` in-hops
/// and features `kmax`. The reverse BFS runs over both views: an added edge
/// creates reach-paths that only exist *after* the change, a removed edge's
/// paths only existed *before*.
pub fn affected(
    pre: &EpochView,
    post: &EpochView,
    touched: &Touched,
    kmax: usize,
) -> HashSet<VertexId> {
    let sources = |ids: &[u32]| ids.iter().map(|&v| VertexId(v)).collect::<HashSet<_>>();
    let views = [pre, post];
    let mut reached = reverse_reach(&views, &sources(&touched.feats), kmax);
    if kmax > 0 {
        reached.extend(reverse_reach(&views, &sources(&touched.rows), kmax - 1));
    }
    reached
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
    use aligraph_graph::ids::well_known::*;
    use aligraph_graph::{AttrVector, Featurizer, GraphBuilder};

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
        let mut out: Vec<VertexId> =
            affected(pre, post, &applied.touched, kmax).into_iter().collect();
        out.sort_unstable();
        out
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
}
