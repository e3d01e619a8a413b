//! The Attributed Heterogeneous Graph and its builder.
//!
//! Layout is a sorted CSR: for each vertex the out-neighbors (and separately
//! the in-neighbors) live in one contiguous slice, internally sorted by edge
//! type. A per-edge-type neighborhood is therefore a contiguous sub-slice
//! located with two binary searches — the access pattern the NEIGHBORHOOD
//! samplers (paper §3.3) rely on. The in-records are derived from the
//! out-CSR on the first in-row read; the in-degrees are held from the build.
//!
//! Attribute payloads are **not** stored in the adjacency records; both the
//! vertex table and the neighbor records carry only an [`AttrId`] into the
//! interning indices `I_V` / `I_E` (paper §3.2, Figure 4).

use crate::attr::{AttrId, AttrIndex, AttrVector};
use crate::error::GraphError;
use crate::ids::{EdgeId, EdgeType, VertexId, VertexType};
use crate::roster::EdgeRoster;
use crate::Result;
use std::sync::OnceLock;

/// One adjacency record: the far endpoint of an edge plus the edge's
/// weight, interned attribute id and type — 16 bytes. It carries no edge
/// id: an out-record's id is its position
/// ([`AttributedHeterogeneousGraph::out_edge_ids`]), and no reader asks an
/// in-record for one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The far endpoint (destination for out-records, source for in-records).
    pub vertex: VertexId,
    /// Edge weight `W(u, v) > 0`.
    pub weight: f32,
    /// Interned edge attribute record in `I_E`.
    pub attr: AttrId,
    /// Edge type.
    pub etype: EdgeType,
}

// An adjacency record is a vertex, a weight, an attribute id and a type
// byte; an edge id names at most `u32::MAX` records.
const _: () = assert!(size_of::<Neighbor>() == 16 && size_of::<EdgeId>() == 4);

/// A full edge record as returned by [`AttributedHeterogeneousGraph::edge`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRecord {
    /// Source endpoint.
    pub src: VertexId,
    /// Destination endpoint.
    pub dst: VertexId,
    /// Edge type.
    pub etype: EdgeType,
    /// Edge weight.
    pub weight: f32,
    /// Interned edge attributes.
    pub attr: AttrId,
}

/// A borrowed per-edge-type view over a vertex's adjacency.
pub type AdjacencySlice<'a> = &'a [Neighbor];

/// The AHG `G = (V, E, W, T_V, T_E, A_V, A_E)` of paper Section 2.
///
/// Immutable once built (the dynamic-graph layer composes snapshots instead
/// of mutating, matching the paper's snapshot formulation `G(1..T)`).
#[derive(Debug, Clone)]
pub struct AttributedHeterogeneousGraph {
    // Vertex tables (dense, indexed by VertexId).
    vtypes: Vec<VertexType>,
    vattrs: Vec<AttrId>,
    // Out-adjacency CSR, records sorted by (src, etype, dst).
    out_offsets: Vec<usize>,
    out_nbrs: Vec<Neighbor>,
    // In-adjacency CSR, records sorted by (dst, etype, src): the offsets
    // from the build, the records derived by the first in-row read.
    in_offsets: Vec<usize>,
    in_nbrs: OnceLock<Vec<Neighbor>>,
    // Attribute interning indices.
    vertex_attr_index: AttrIndex,
    edge_attr_index: AttrIndex,
    // Type universes and per-type rosters.
    num_vertex_types: u8,
    num_edge_types: u8,
    vertices_by_type: Vec<Vec<VertexId>>,
    // Each edge type's ids, as runs over the type-sorted out-rows.
    edge_rosters: Vec<EdgeRoster>,
    directed: bool,
    logical_edges: usize,
}

impl AttributedHeterogeneousGraph {
    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vtypes.len()
    }

    /// Number of *logical* edges `m` (an undirected edge counts once even
    /// though it is stored as two directed records).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.logical_edges
    }

    /// Number of stored directed edge records.
    #[inline]
    pub fn num_edge_records(&self) -> usize {
        self.out_nbrs.len()
    }

    /// Whether edges were added as directed records.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Size of the vertex type universe `|F_V|`.
    #[inline]
    pub fn num_vertex_types(&self) -> u8 {
        self.num_vertex_types
    }

    /// Size of the edge type universe `|F_E|`.
    #[inline]
    pub fn num_edge_types(&self) -> u8 {
        self.num_edge_types
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vtypes.len() as u32).map(VertexId)
    }

    /// Type of a vertex (`T_V`).
    #[inline]
    pub fn vertex_type(&self, v: VertexId) -> VertexType {
        self.vtypes[v.index()]
    }

    /// Interned vertex attribute id.
    #[inline]
    pub fn vertex_attr_id(&self, v: VertexId) -> AttrId {
        self.vattrs[v.index()]
    }

    /// The vertex attribute record `A_V(v)`, resolved through `I_V`.
    #[inline]
    #[expect(clippy::expect_used, reason = "every vattrs entry was interned during build")]
    pub fn vertex_attrs(&self, v: VertexId) -> &AttrVector {
        self.vertex_attr_index
            .get(self.vattrs[v.index()])
            .expect("vertex attr ids are always interned at build time")
    }

    /// The vertex attribute interning index `I_V`.
    #[inline]
    pub fn vertex_attr_index(&self) -> &AttrIndex {
        &self.vertex_attr_index
    }

    /// The edge attribute interning index `I_E`.
    #[inline]
    pub fn edge_attr_index(&self) -> &AttrIndex {
        &self.edge_attr_index
    }

    /// All vertices of a given type, in id order.
    pub fn vertices_of_type(&self, t: VertexType) -> &[VertexId] {
        static EMPTY: Vec<VertexId> = Vec::new();
        self.vertices_by_type.get(t.index()).unwrap_or(&EMPTY)
    }

    /// All edges of a given type, ascending: each out-row's typed
    /// sub-range in vertex order, held as runs ([`EdgeRoster`]).
    pub fn edges_of_type(&self, t: EdgeType) -> &EdgeRoster {
        static EMPTY: EdgeRoster = EdgeRoster::new();
        self.edge_rosters.get(t.index()).unwrap_or(&EMPTY)
    }

    /// Out-neighbor records of `v` (all edge types), sorted by edge type.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> AdjacencySlice<'_> {
        &self.out_nbrs[self.out_edge_ids(v)]
    }

    /// The ids of `v`'s out-records as indices ([`EdgeId::index`]), in
    /// [`out_neighbors`](Self::out_neighbors) order: an edge's id is the
    /// position of its out-record.
    #[inline]
    pub fn out_edge_ids(&self, v: VertexId) -> std::ops::Range<usize> {
        let i = v.index();
        self.out_offsets[i]..self.out_offsets[i + 1]
    }

    /// In-neighbor records of `v` (all edge types), sorted by edge type.
    /// The first call on a graph derives every in-record
    /// ([`Self::adjacency_bytes`] grows by 16 B a record); a concurrent
    /// first call waits for it.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> AdjacencySlice<'_> {
        let i = v.index();
        &self.in_records()[self.in_offsets[i]..self.in_offsets[i + 1]]
    }

    /// Every in-record, derived on the first call.
    #[inline]
    fn in_records(&self) -> &Vec<Neighbor> {
        self.in_nbrs.get_or_init(|| self.derive_in_records())
    }

    /// The in-records, derived from the out-CSR: each edge's key in edge-id
    /// order, sorted by `(dst, etype, src)` in the allocation that becomes
    /// the records (exactly 16 B a record). Parallel edges tie as the
    /// unstable sort orders this input, so every derivation of a graph —
    /// a clone's included — lays out the same rows.
    fn derive_in_records(&self) -> Vec<Neighbor> {
        let mut keys: Vec<InKey> = Vec::with_capacity(self.out_nbrs.len());
        for src in self.vertices() {
            keys.extend(self.out_edge_ids(src).map(|e| {
                let n = &self.out_nbrs[e];
                InKey { dst: n.vertex, etype: n.etype, src, edge: EdgeId(e as u32) }
            }));
        }
        keys.sort_unstable_by_key(|k| (k.dst, k.etype, k.src));
        keys.into_iter()
            .map(|k| {
                let e = &self.out_nbrs[k.edge.index()];
                Neighbor { vertex: k.src, weight: e.weight, attr: e.attr, etype: k.etype }
            })
            .collect()
    }

    /// Out-neighbors of `v` restricted to one edge type — a contiguous
    /// sub-slice found by binary search, O(log d + k).
    pub fn out_neighbors_typed(&self, v: VertexId, etype: EdgeType) -> AdjacencySlice<'_> {
        typed_subslice(self.out_neighbors(v), etype)
    }

    /// In-neighbors of `v` restricted to one edge type.
    pub fn in_neighbors_typed(&self, v: VertexId, etype: EdgeType) -> AdjacencySlice<'_> {
        typed_subslice(self.in_neighbors(v), etype)
    }

    /// Direct out-degree `D_o^(1)(v)`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        let i = v.index();
        self.out_offsets[i + 1] - self.out_offsets[i]
    }

    /// Direct in-degree `D_i^(1)(v)`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        let i = v.index();
        self.in_offsets[i + 1] - self.in_offsets[i]
    }

    /// Full edge record for an [`EdgeId`]. An edge's id is the position of
    /// its out-record, so its source is the vertex whose
    /// [`out_edge_ids`](Self::out_edge_ids) hold it: a binary search over
    /// the out-offsets, O(log n). A reader that needs no source reads
    /// [`out_record`](Self::out_record).
    pub fn edge(&self, e: EdgeId) -> EdgeRecord {
        let n = &self.out_nbrs[e.index()];
        let src = self.out_offsets.partition_point(|&o| o <= e.index()) - 1;
        EdgeRecord {
            src: VertexId(src as u32),
            dst: n.vertex,
            etype: n.etype,
            weight: n.weight,
            attr: n.attr,
        }
    }

    /// The out-record of edge `e` (its destination, type, weight and
    /// attribute), read in O(1): [`edge`](Self::edge) without the source.
    #[inline]
    pub fn out_record(&self, e: EdgeId) -> &Neighbor {
        &self.out_nbrs[e.index()]
    }

    /// Bytes allocated for the adjacency structure (the `O(n·N_D)` term) as
    /// held, by capacity: the out-records (16 B a record), the in-records
    /// once an in-row read derived them (16 B a record more), both offset
    /// arrays and the per-type edge rosters (8 B a run of consecutive ids,
    /// at most one run a vertex a type).
    pub fn adjacency_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        bytes(&self.out_nbrs)
            + self.in_nbrs.get().map_or(0, bytes)
            + bytes(&self.out_offsets)
            + bytes(&self.in_offsets)
            + self.edge_rosters.iter().map(EdgeRoster::heap_bytes).sum::<usize>()
    }

    /// Approximate bytes held by attribute payloads (the `N_A·N_L` term).
    pub fn attribute_bytes(&self) -> usize {
        self.vertex_attr_index.approx_bytes() + self.edge_attr_index.approx_bytes()
    }

    /// What the *naive* co-located layout would cost: every adjacency record
    /// carrying its full attribute payload inline. Used in tests and docs to
    /// demonstrate the §3.2 storage saving.
    pub fn naive_attribute_bytes(&self) -> usize {
        let vertex: usize = self
            .vattrs
            .iter()
            .map(|&a| self.vertex_attr_index.get(a).map_or(0, AttrVector::approx_bytes))
            .sum();
        let edge: usize = self
            .out_nbrs
            .iter()
            .map(|n| self.edge_attr_index.get(n.attr).map_or(0, AttrVector::approx_bytes))
            .sum();
        vertex + edge
    }
}

/// Locates the contiguous `etype` run inside a type-sorted adjacency slice.
fn typed_subslice(slice: &[Neighbor], etype: EdgeType) -> &[Neighbor] {
    let start = slice.partition_point(|n| n.etype < etype);
    let end = slice.partition_point(|n| n.etype <= etype);
    &slice[start..end]
}

/// Incremental builder for [`AttributedHeterogeneousGraph`].
///
/// Vertices must be added before edges referencing them; `build` sorts the
/// edge set once and assembles the out-CSR and the in-degrees.
#[derive(Debug)]
pub struct GraphBuilder {
    directed: bool,
    vtypes: Vec<VertexType>,
    vattrs: Vec<AttrId>,
    edges: Vec<PendingEdge>,
    /// Directed records the edges will make: two for an undirected edge
    /// that is not a self-loop.
    records: u64,
    vertex_attr_index: AttrIndex,
    edge_attr_index: AttrIndex,
    max_vertex_type: u8,
    max_edge_type: u8,
}

/// One directed edge record: 20 bytes with [`Neighbor`]'s alignment, so
/// `build` collects the sorted records into the 16-byte `out_nbrs` in their
/// own allocation.
#[derive(Debug, Clone, Copy)]
struct PendingEdge {
    src: VertexId,
    dst: VertexId,
    etype: EdgeType,
    weight: f32,
    attr: AttrId,
}

/// An edge's in-adjacency sort key and id. It has [`Neighbor`]'s size and
/// alignment, so the in-records are sorted in the allocation that becomes
/// `in_nbrs`.
#[derive(Debug, Clone, Copy)]
struct InKey {
    dst: VertexId,
    etype: EdgeType,
    src: VertexId,
    edge: EdgeId,
}

// `Vec::into_iter().map(..).collect()` reuses the source allocation only
// when the two element types agree in alignment and the target is no
// larger; otherwise each conversion silently becomes a second record-sized
// array. `InKey` is exactly a `Neighbor`, so `in_nbrs` keeps the keys'
// capacity.
const _: () = assert!(
    size_of::<PendingEdge>() == 20
        && align_of::<PendingEdge>() == align_of::<Neighbor>()
        && size_of::<InKey>() == size_of::<Neighbor>()
        && align_of::<InKey>() == align_of::<Neighbor>()
);

/// The record count after `added` more records join `pending`, or
/// [`GraphError::TooManyEdgeRecords`] once it would pass `u32::MAX`: an
/// [`EdgeId`] is a record's position.
fn grown_records(pending: u64, added: u64) -> Result<u64> {
    let records = pending + added;
    if records > u64::from(u32::MAX) {
        return Err(GraphError::TooManyEdgeRecords { records });
    }
    Ok(records)
}

impl GraphBuilder {
    /// Builder for a directed graph (edge `(u,v)` ≠ `(v,u)`).
    pub fn directed() -> Self {
        Self::new(true)
    }

    /// Builder for an undirected graph: each added edge is materialized as
    /// two directed records sharing weight and attributes.
    pub fn undirected() -> Self {
        Self::new(false)
    }

    fn new(directed: bool) -> Self {
        GraphBuilder {
            directed,
            vtypes: Vec::new(),
            vattrs: Vec::new(),
            edges: Vec::new(),
            records: 0,
            vertex_attr_index: AttrIndex::new(),
            edge_attr_index: AttrIndex::new(),
            max_vertex_type: 0,
            max_edge_type: 0,
        }
    }

    /// Pre-sizes internal buffers.
    pub fn with_capacity(mut self, vertices: usize, edges: usize) -> Self {
        self.vtypes.reserve(vertices);
        self.vattrs.reserve(vertices);
        self.edges.reserve(edges);
        self
    }

    /// Adds a vertex, returning its dense id.
    pub fn add_vertex(&mut self, vtype: VertexType, attrs: AttrVector) -> VertexId {
        let id = VertexId(self.vtypes.len() as u32);
        self.max_vertex_type = self.max_vertex_type.max(vtype.0);
        self.vtypes.push(vtype);
        let attr = self.vertex_attr_index.intern(attrs);
        self.vattrs.push(attr);
        id
    }

    /// Adds `count` vertices of one type with no attributes; returns the
    /// first id of the contiguous block.
    pub fn add_vertices(&mut self, vtype: VertexType, count: usize) -> VertexId {
        let first = VertexId(self.vtypes.len() as u32);
        self.max_vertex_type = self.max_vertex_type.max(vtype.0);
        self.vtypes.resize(self.vtypes.len() + count, vtype);
        self.vattrs.resize(self.vattrs.len() + count, AttrId::EMPTY);
        first
    }

    /// Adds an edge with attributes. Both endpoints must already exist, the
    /// weight must be positive and finite (`W: E -> R+`, paper §2), and the
    /// graph's edge records must stay within `u32::MAX`.
    pub fn add_edge_with_attrs(
        &mut self,
        src: VertexId,
        dst: VertexId,
        etype: EdgeType,
        weight: f32,
        attrs: AttrVector,
    ) -> Result<()> {
        if src.index() >= self.vtypes.len() || dst.index() >= self.vtypes.len() {
            return Err(GraphError::DanglingEdge { src, dst });
        }
        if weight <= 0.0 || !weight.is_finite() {
            return Err(GraphError::InvalidWeight { weight });
        }
        let added = if self.directed || src == dst { 1 } else { 2 };
        self.records = grown_records(self.records, added)?;
        self.max_edge_type = self.max_edge_type.max(etype.0);
        let attr = self.edge_attr_index.intern(attrs);
        self.edges.push(PendingEdge { src, dst, etype, weight, attr });
        Ok(())
    }

    /// Adds an attribute-free edge.
    pub fn add_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        etype: EdgeType,
        weight: f32,
    ) -> Result<()> {
        self.add_edge_with_attrs(src, dst, etype, weight, AttrVector::empty())
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.vtypes.len()
    }

    /// Number of logical edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Assembles the immutable graph: sorts edge records by `(src, etype,
    /// dst)`, lays out the out-CSR and the in-offsets, and builds per-type
    /// rosters (runs of ids, 8 B a run). The in-records wait for the first
    /// in-row read ([`AttributedHeterogeneousGraph::in_neighbors`]).
    ///
    /// Memory: the peak is one 20-byte record array. The undirected mirror
    /// records are written into the edges' own buffer, and the sorted
    /// records become the 16-byte `out_nbrs` in place (the freed tail is
    /// handed back).
    pub fn build(self) -> AttributedHeterogeneousGraph {
        let n = self.vtypes.len();
        let logical_edges = self.edges.len();
        let mut records = if self.directed { self.edges } else { mirrored(self.edges) };
        records.sort_unstable_by_key(|e| (e.src, e.etype, e.dst));

        // An edge's id is its position in the sorted records.
        let out_offsets = offsets(n, records.iter().map(|e| e.src));
        let mut edge_rosters = vec![EdgeRoster::new(); self.max_edge_type as usize + 1];
        for (i, e) in records.iter().enumerate() {
            edge_rosters[e.etype.index()].push(EdgeId(i as u32));
        }
        edge_rosters.iter_mut().for_each(EdgeRoster::shrink_to_fit);
        let in_offsets = offsets(n, records.iter().map(|e| e.dst));

        // Out-CSR, in the records' own allocation: the collect leaves a
        // fifth of it spare, which `shrink_to_fit` returns.
        let mut out_nbrs: Vec<Neighbor> = records
            .into_iter()
            .map(|e| Neighbor { vertex: e.dst, weight: e.weight, attr: e.attr, etype: e.etype })
            .collect();
        out_nbrs.shrink_to_fit();

        // Per-type vertex rosters.
        let mut vertices_by_type: Vec<Vec<VertexId>> =
            vec![Vec::new(); self.max_vertex_type as usize + 1];
        for (i, t) in self.vtypes.iter().enumerate() {
            vertices_by_type[t.index()].push(VertexId(i as u32));
        }

        AttributedHeterogeneousGraph {
            vtypes: self.vtypes,
            vattrs: self.vattrs,
            out_offsets,
            out_nbrs,
            in_offsets,
            in_nbrs: OnceLock::new(),
            vertex_attr_index: self.vertex_attr_index,
            edge_attr_index: self.edge_attr_index,
            num_vertex_types: self.max_vertex_type + 1,
            num_edge_types: self.max_edge_type + 1,
            vertices_by_type,
            edge_rosters,
            directed: self.directed,
            logical_edges,
        }
    }
}

/// Each undirected edge as its directed records, `(u, v)` then `(v, u)` (a
/// self-loop once), in the edges' own buffer. The grown buffer is filled
/// from the back: edge `i`'s records land at or after slot `i`, so each
/// edge is read before its slot is overwritten.
fn mirrored(mut edges: Vec<PendingEdge>) -> Vec<PendingEdge> {
    let Some(&fill) = edges.first() else { return edges };
    let m = edges.len();
    let mut end = 2 * m - edges.iter().filter(|e| e.src == e.dst).count();
    edges.reserve_exact(end - m);
    edges.resize(end, fill);
    for i in (0..m).rev() {
        let e = edges[i];
        if e.src != e.dst {
            end -= 1;
            edges[end] = PendingEdge { src: e.dst, dst: e.src, ..e };
        }
        end -= 1;
        edges[end] = e;
    }
    edges
}

/// CSR offsets over records whose owning vertices are `owners`, in order:
/// vertex `v`'s records are `offsets[v]..offsets[v + 1]`.
fn offsets(n: usize, owners: impl Iterator<Item = VertexId>) -> Vec<usize> {
    let mut offsets = vec![0usize; n + 1];
    for v in owners {
        offsets[v.index() + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrValue;
    use crate::ids::well_known::*;

    fn toy() -> AttributedHeterogeneousGraph {
        // u0 --click--> i2, u0 --buy--> i3, u1 --click--> i2
        let mut b = GraphBuilder::directed();
        let u0 = b.add_vertex(USER, AttrVector(vec![AttrValue::Int(30)]));
        let u1 = b.add_vertex(USER, AttrVector(vec![AttrValue::Int(25)]));
        let i2 = b.add_vertex(ITEM, AttrVector(vec![AttrValue::Float(9.5)]));
        let i3 = b.add_vertex(ITEM, AttrVector::empty());
        b.add_edge(u0, i2, CLICK, 1.0).unwrap();
        b.add_edge(u0, i3, BUY, 2.0).unwrap();
        b.add_edge(u1, i2, CLICK, 1.0).unwrap();
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = toy();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_edge_records(), 3);
        assert_eq!(g.num_vertex_types(), 2);
        assert_eq!(g.num_edge_types(), 4); // BUY = type 3 => universe size 4
    }

    #[test]
    fn adjacency_and_types() {
        let g = toy();
        let u0 = VertexId(0);
        assert_eq!(g.out_degree(u0), 2);
        assert_eq!(g.in_degree(VertexId(2)), 2);
        let clicks = g.out_neighbors_typed(u0, CLICK);
        assert_eq!(clicks.len(), 1);
        assert_eq!(clicks[0].vertex, VertexId(2));
        let buys = g.out_neighbors_typed(u0, BUY);
        assert_eq!(buys.len(), 1);
        assert_eq!(buys[0].vertex, VertexId(3));
        assert!(g.out_neighbors_typed(u0, CART).is_empty());
    }

    #[test]
    fn per_type_rosters() {
        let g = toy();
        assert_eq!(g.vertices_of_type(USER), &[VertexId(0), VertexId(1)]);
        assert_eq!(g.vertices_of_type(ITEM), &[VertexId(2), VertexId(3)]);
        assert_eq!(g.edges_of_type(CLICK).len(), 2);
        assert_eq!(g.edges_of_type(BUY).len(), 1);
        assert!(g.edges_of_type(CART).is_empty());
    }

    /// An edge as `(src, dst, etype, weight bits, attr)`.
    type EdgeKey = (VertexId, VertexId, EdgeType, u32, u32);

    #[test]
    fn edge_lookup_consistent_both_directions() {
        let graphs = [
            toy(),
            crate::generate::TaobaoConfig::tiny().builder().unwrap().build(),
            crate::generate::amazon_builder(300, 2_000, 5).unwrap().build(),
        ];
        for g in graphs {
            // Out-record ids tile `0..num_edge_records()` vertex by vertex,
            // and an id names the record at its position.
            let mut next = 0;
            let mut out: Vec<EdgeKey> = Vec::new();
            for v in g.vertices() {
                let ids = g.out_edge_ids(v);
                assert_eq!(ids.start, next);
                assert_eq!(ids.len(), g.out_degree(v));
                next = ids.end;
                for e in ids.clone() {
                    let n = g.out_neighbors(v)[e - ids.start];
                    let rec = g.edge(EdgeId(e as u32));
                    assert_eq!(g.out_record(EdgeId(e as u32)), &n);
                    assert_eq!(
                        rec,
                        EdgeRecord {
                            src: v,
                            dst: n.vertex,
                            etype: n.etype,
                            weight: n.weight,
                            attr: n.attr
                        }
                    );
                    out.push((v, n.vertex, n.etype, n.weight.to_bits(), n.attr.0));
                }
            }
            assert_eq!(next, g.num_edge_records());
            // Each in-record matches exactly one out-record.
            let mut inn: Vec<EdgeKey> = g
                .vertices()
                .flat_map(|v| {
                    g.in_neighbors(v)
                        .iter()
                        .map(move |n| (n.vertex, v, n.etype, n.weight.to_bits(), n.attr.0))
                })
                .collect();
            out.sort_unstable();
            inn.sort_unstable();
            assert_eq!(out, inn);
        }
    }

    #[test]
    fn undirected_mirrors_edges() {
        let mut b = GraphBuilder::undirected();
        let a = b.add_vertex(USER, AttrVector::empty());
        let c = b.add_vertex(USER, AttrVector::empty());
        b.add_edge(a, c, CLICK, 1.0).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_edge_records(), 2);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.out_degree(c), 1);
        assert_eq!(g.in_degree(a), 1);
    }

    #[test]
    fn undirected_self_loop_stored_once() {
        let mut b = GraphBuilder::undirected();
        let a = b.add_vertex(USER, AttrVector::empty());
        b.add_edge(a, a, CLICK, 1.0).unwrap();
        let g = b.build();
        assert_eq!(g.num_edge_records(), 1);
        assert_eq!(g.out_degree(a), 1);
    }

    #[test]
    fn rejects_dangling_and_bad_weight() {
        let mut b = GraphBuilder::directed();
        let a = b.add_vertex(USER, AttrVector::empty());
        assert!(matches!(
            b.add_edge(a, VertexId(5), CLICK, 1.0),
            Err(GraphError::DanglingEdge { .. })
        ));
        for w in [0.0, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let refused = b.add_edge(a, a, CLICK, w);
            assert!(matches!(refused, Err(GraphError::InvalidWeight { .. })), "weight {w}");
        }
        assert_eq!(b.num_edges(), 0);
    }

    #[test]
    fn separate_storage_beats_naive_when_attrs_repeat() {
        let mut b = GraphBuilder::directed();
        let shared = AttrVector(vec![AttrValue::Text("brand=acme category=shoes".into())]);
        let hub = b.add_vertex(ITEM, shared.clone());
        for _ in 0..200 {
            let v = b.add_vertex(USER, shared.clone());
            b.add_edge_with_attrs(v, hub, CLICK, 1.0, shared.clone()).unwrap();
        }
        let g = b.build();
        // One distinct record in each index (plus the empty sentinel).
        assert_eq!(g.vertex_attr_index().len(), 2);
        assert_eq!(g.edge_attr_index().len(), 2);
        assert!(g.attribute_bytes() * 10 < g.naive_attribute_bytes());
    }

    /// A directed edge record, 20 bytes and 4-aligned, kept apart from
    /// `PendingEdge` so the oracle does not share `build`'s layout.
    #[derive(Clone, Copy)]
    struct OracleRecord {
        src: VertexId,
        dst: VertexId,
        etype: EdgeType,
        weight: f32,
        attr: AttrId,
    }

    /// `build` without in-place conversion, over separate arrays: the
    /// oracle `build` must equal array for array.
    fn build_oracle(b: GraphBuilder) -> AttributedHeterogeneousGraph {
        let n = b.vtypes.len();
        let logical_edges = b.edges.len();
        let old = |e: &PendingEdge| OracleRecord {
            src: e.src,
            dst: e.dst,
            etype: e.etype,
            weight: e.weight,
            attr: e.attr,
        };
        let mut records: Vec<OracleRecord> = if b.directed {
            b.edges.iter().map(old).collect()
        } else {
            let mut r = Vec::with_capacity(b.edges.len() * 2);
            for e in b.edges.iter().map(old) {
                r.push(e);
                if e.src != e.dst {
                    r.push(OracleRecord { src: e.dst, dst: e.src, ..e });
                }
            }
            r
        };
        records.sort_unstable_by_key(|e| (e.src, e.etype, e.dst));

        let mut out_offsets = vec![0usize; n + 1];
        for e in &records {
            out_offsets[e.src.index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let out_nbrs: Vec<Neighbor> = records
            .iter()
            .map(|e| Neighbor { vertex: e.dst, weight: e.weight, attr: e.attr, etype: e.etype })
            .collect();

        let mut in_records: Vec<(usize, &OracleRecord)> = records.iter().enumerate().collect();
        in_records.sort_unstable_by_key(|(_, e)| (e.dst, e.etype, e.src));
        let mut in_offsets = vec![0usize; n + 1];
        for (_, e) in &in_records {
            in_offsets[e.dst.index() + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let in_nbrs: Vec<Neighbor> = in_records
            .iter()
            .map(|&(_, e)| Neighbor {
                vertex: e.src,
                weight: e.weight,
                attr: e.attr,
                etype: e.etype,
            })
            .collect();

        let mut vertices_by_type: Vec<Vec<VertexId>> =
            vec![Vec::new(); b.max_vertex_type as usize + 1];
        for (i, t) in b.vtypes.iter().enumerate() {
            vertices_by_type[t.index()].push(VertexId(i as u32));
        }

        AttributedHeterogeneousGraph {
            vtypes: b.vtypes,
            vattrs: b.vattrs,
            out_offsets,
            out_nbrs,
            in_offsets,
            in_nbrs: OnceLock::from(in_nbrs),
            vertex_attr_index: b.vertex_attr_index,
            edge_attr_index: b.edge_attr_index,
            num_vertex_types: b.max_vertex_type + 1,
            num_edge_types: b.max_edge_type + 1,
            vertices_by_type,
            edge_rosters: Vec::new(),
            directed: b.directed,
            logical_edges,
        }
    }

    /// Asserts `a == b` element by element, naming the first difference.
    fn same<T: PartialEq + std::fmt::Debug>(what: &str, a: &[T], b: &[T]) {
        assert_eq!(a.len(), b.len(), "{what}: lengths differ");
        if let Some(i) = (0..a.len()).find(|&i| a[i] != b[i]) {
            panic!("{what}[{i}]: {:?} != {:?}", a[i], b[i]);
        }
    }

    /// Every field of a neighbor record, the weight as its bits.
    fn record_bits(nbrs: &[Neighbor]) -> Vec<(VertexId, EdgeType, u32, AttrId)> {
        nbrs.iter().map(|n| (n.vertex, n.etype, n.weight.to_bits(), n.attr)).collect()
    }

    /// Builds `make()` with `build` and with the oracle, and asserts every
    /// array equal, the in-records as the first in-read derives them.
    /// Returns the built graph.
    fn matches_oracle(make: impl Fn() -> GraphBuilder) -> AttributedHeterogeneousGraph {
        let (g, o) = (make().build(), build_oracle(make()));
        same("out_offsets", &g.out_offsets, &o.out_offsets);
        same("out_nbrs", &record_bits(&g.out_nbrs), &record_bits(&o.out_nbrs));
        same("in_offsets", &g.in_offsets, &o.in_offsets);
        assert!(g.in_nbrs.get().is_none(), "build derived the in-records");
        same("in_nbrs", &record_bits(g.in_records()), &record_bits(o.in_records()));
        // Each type's roster is the filter scan of the oracle's records,
        // position for position, and holds no spare capacity.
        assert_eq!(g.edge_rosters.len(), usize::from(g.num_edge_types));
        for t in 0..g.num_edge_types {
            let scan: Vec<EdgeId> = (0..o.out_nbrs.len() as u32)
                .map(EdgeId)
                .filter(|&e| o.out_nbrs[e.index()].etype == EdgeType(t))
                .collect();
            let roster = g.edges_of_type(EdgeType(t));
            same("edges_of_type", &roster.iter().collect::<Vec<_>>(), &scan);
            same(
                "edges_of_type.get",
                &(0..roster.len()).map(|r| roster.get(r)).collect::<Vec<_>>(),
                &scan,
            );
            // A clone allocates exactly its length.
            assert_eq!(roster.heap_bytes(), roster.clone().heap_bytes());
        }
        // The record arrays hold no spare capacity.
        assert_eq!(g.out_nbrs.capacity(), g.out_nbrs.len());
        assert_eq!(g.in_records().capacity(), g.in_records().len());
        same("vertices_by_type", &g.vertices_by_type, &o.vertices_by_type);
        assert_eq!(g.logical_edges, o.logical_edges);
        g
    }

    /// Records that repeat their predecessor's `(src, etype, dst)`: parallel
    /// edges, whose order both unstable sorts' ties decide.
    fn parallel_edges(g: &AttributedHeterogeneousGraph) -> usize {
        g.vertices()
            .map(|v| {
                g.out_neighbors(v)
                    .windows(2)
                    .filter(|w| (w[0].vertex, w[0].etype) == (w[1].vertex, w[1].etype))
                    .count()
            })
            .sum()
    }

    #[test]
    fn build_matches_the_oracle_on_a_directed_taobao_graph() {
        let cfg = crate::generate::TaobaoConfig {
            reverse_ui_prob: 0.2,
            ..crate::generate::TaobaoConfig::small_sim().scaled(0.03)
        };
        let g = matches_oracle(|| cfg.builder().unwrap());
        assert!(g.is_directed());
        assert!(parallel_edges(&g) > 100, "{} parallel edges", parallel_edges(&g));
    }

    #[test]
    fn build_matches_the_oracle_on_an_undirected_amazon_graph() {
        let g = matches_oracle(|| crate::generate::amazon_builder(2_000, 20_000, 5).unwrap());
        assert!(!g.is_directed());
        assert_eq!(g.num_edge_records(), 2 * g.num_edges());
        assert!(parallel_edges(&g) > 0);
    }

    #[test]
    fn build_matches_the_oracle_on_a_graph_with_self_loops() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let make = || {
            let mut rng = StdRng::seed_from_u64(3);
            let mut b = GraphBuilder::undirected();
            b.add_vertices(USER, 300);
            for _ in 0..6_000 {
                let src = VertexId(rng.gen_range(0..300));
                let dst = if rng.gen_bool(0.1) { src } else { VertexId(rng.gen_range(0..300)) };
                let etype = if rng.gen_bool(0.5) { CLICK } else { BUY };
                b.add_edge(src, dst, etype, 1.0 + rng.gen::<f32>()).unwrap();
            }
            b
        };
        let g = matches_oracle(make);
        let loops = g
            .vertices()
            .flat_map(|v| g.out_neighbors(v).iter().filter(move |n| n.vertex == v))
            .count();
        assert!(loops > 300, "{loops} self-loops");
        assert_eq!(g.num_edge_records(), 2 * g.num_edges() - loops);
    }

    #[test]
    fn out_nbrs_is_built_in_the_records_allocation() {
        let b = crate::generate::TaobaoConfig::tiny().builder().unwrap();
        let records = b.edges.as_ptr() as usize;
        let g = b.build();
        assert_eq!(g.out_nbrs.as_ptr() as usize, records);
    }

    #[test]
    fn adjacency_bytes_counts_capacities() {
        let g = crate::generate::TaobaoConfig::tiny().builder().unwrap().build();
        // Before an in-read: the out-records at 16 B each, both offset
        // arrays, and the rosters' runs: 8 B a run, at most one a vertex a
        // type, so a count per vertex, not per edge.
        let held = g.adjacency_bytes();
        let offsets = 2 * (g.num_vertices() + 1) * size_of::<usize>();
        let rosters = held - 16 * g.num_edge_records() - offsets;
        let types = usize::from(g.num_edge_types());
        assert_eq!(
            rosters,
            (0..g.num_edge_types()).map(|t| g.edges_of_type(EdgeType(t)).heap_bytes()).sum()
        );
        assert!(rosters <= 8 * g.num_vertices() * types, "{rosters} roster bytes");
        assert!(rosters > 0);
        // An in-degree reads the offsets; an in-row derives 16 B a record.
        assert!(g.vertices().any(|v| g.in_degree(v) > 0));
        assert_eq!(g.adjacency_bytes(), held);
        assert!(g.vertices().any(|v| !g.in_neighbors(v).is_empty()));
        assert_eq!(g.adjacency_bytes(), held + 16 * g.num_edge_records());
    }

    #[test]
    fn a_clone_taken_before_the_first_in_read_derives_its_own() {
        let g = crate::generate::TaobaoConfig::tiny().builder().unwrap().build();
        let early = g.clone();
        let held = early.adjacency_bytes();
        let derived = g.in_records().as_ptr();
        assert!(early.in_nbrs.get().is_none());
        assert_eq!(early.adjacency_bytes(), held);
        assert_ne!(early.in_records().as_ptr(), derived);
        same("clone in_nbrs", &record_bits(early.in_records()), &record_bits(g.in_records()));
        assert_eq!(early.adjacency_bytes(), g.adjacency_bytes());
        // A clone taken after the read copies the records, derives nothing.
        let late = g.clone();
        assert!(late.in_nbrs.get().is_some());
        same("late in_nbrs", &record_bits(late.in_records()), &record_bits(g.in_records()));
    }

    #[test]
    fn racing_first_in_reads_see_one_derivation() {
        let make = || crate::generate::amazon_builder(2_000, 20_000, 5).unwrap().build();
        let (g, oracle) = (make(), make());
        let barrier = std::sync::Barrier::new(2);
        let read = || {
            barrier.wait();
            let rows: Vec<&[Neighbor]> = g.vertices().map(|v| g.in_neighbors(v)).collect();
            rows.iter().map(|r| (r.as_ptr() as usize, record_bits(r))).collect::<Vec<_>>()
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(read);
            let b = s.spawn(read);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b);
        let expected: Vec<_> =
            oracle.vertices().map(|v| record_bits(oracle.in_neighbors(v))).collect();
        same("raced rows", &a.into_iter().map(|(_, bits)| bits).collect::<Vec<_>>(), &expected);
    }

    #[test]
    fn edge_records_stop_at_the_u32_id_space() {
        let max = u64::from(u32::MAX);
        let past = GraphError::TooManyEdgeRecords { records: max + 1 };
        assert_eq!(grown_records(max - 2, 1), Ok(max - 1));
        assert_eq!(grown_records(max - 1, 1), Ok(max));
        assert_eq!(grown_records(max - 1, 2), Err(past.clone()));
        assert_eq!(grown_records(max, 1), Err(past.clone()));
        // The builder counts records, not edges: an undirected edge makes
        // two unless it is a self-loop. No record is allocated here.
        let mut b = GraphBuilder::undirected();
        let (u, v) = (b.add_vertices(USER, 2), VertexId(1));
        b.records = max - 1;
        assert_eq!(b.add_edge(u, v, CLICK, 1.0), Err(past.clone()));
        assert_eq!((b.num_edges(), b.records), (0, max - 1));
        assert_eq!(b.add_edge(u, u, CLICK, 1.0), Ok(()));
        assert_eq!(b.records, max);
        assert_eq!(b.add_edge(u, u, CLICK, 1.0), Err(past));
    }

    #[test]
    fn add_vertices_block() {
        let mut b = GraphBuilder::directed();
        let first = b.add_vertices(USER, 10);
        assert_eq!(first, VertexId(0));
        let next = b.add_vertices(ITEM, 5);
        assert_eq!(next, VertexId(10));
        let g = b.build();
        assert_eq!(g.num_vertices(), 15);
        assert_eq!(g.vertex_type(VertexId(12)), ITEM);
    }
}
