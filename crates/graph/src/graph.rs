//! The Attributed Heterogeneous Graph and its builder.
//!
//! Layout is a sorted CSR: for each vertex the out-neighbors (and separately
//! the in-neighbors) live in one contiguous slice, internally sorted by edge
//! type. A per-edge-type neighborhood is therefore a contiguous sub-slice
//! located with two binary searches — the access pattern the NEIGHBORHOOD
//! samplers (paper §3.3) rely on.
//!
//! Attribute payloads are **not** stored in the adjacency records; both the
//! vertex table and the neighbor records carry only an [`AttrId`] into the
//! interning indices `I_V` / `I_E` (paper §3.2, Figure 4).

use crate::attr::{AttrId, AttrIndex, AttrVector};
use crate::error::GraphError;
use crate::ids::{EdgeId, EdgeType, VertexId, VertexType};
use crate::Result;

/// One adjacency record: the far endpoint of an edge plus the edge's type,
/// weight and interned attribute id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The far endpoint (destination for out-records, source for in-records).
    pub vertex: VertexId,
    /// Edge type.
    pub etype: EdgeType,
    /// Edge weight `W(u, v) > 0`.
    pub weight: f32,
    /// Interned edge attribute record in `I_E`.
    pub attr: AttrId,
    /// Stable id of the underlying edge (shared by the out- and in-record).
    pub edge: EdgeId,
}

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
    // In-adjacency CSR, records sorted by (dst, etype, src).
    in_offsets: Vec<usize>,
    in_nbrs: Vec<Neighbor>,
    // Edge lookup: EdgeId -> position in `out_nbrs`, plus the source vertex.
    edge_src: Vec<VertexId>,
    // Attribute interning indices.
    vertex_attr_index: AttrIndex,
    edge_attr_index: AttrIndex,
    // Type universes and per-type rosters.
    num_vertex_types: u8,
    num_edge_types: u8,
    vertices_by_type: Vec<Vec<VertexId>>,
    edges_by_type: Vec<Vec<EdgeId>>,
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

    /// All edges of a given type.
    pub fn edges_of_type(&self, t: EdgeType) -> &[EdgeId] {
        static EMPTY: Vec<EdgeId> = Vec::new();
        self.edges_by_type.get(t.index()).unwrap_or(&EMPTY)
    }

    /// Out-neighbor records of `v` (all edge types), sorted by edge type.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> AdjacencySlice<'_> {
        let i = v.index();
        &self.out_nbrs[self.out_offsets[i]..self.out_offsets[i + 1]]
    }

    /// In-neighbor records of `v` (all edge types), sorted by edge type.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> AdjacencySlice<'_> {
        let i = v.index();
        &self.in_nbrs[self.in_offsets[i]..self.in_offsets[i + 1]]
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

    /// Full edge record for an [`EdgeId`].
    pub fn edge(&self, e: EdgeId) -> EdgeRecord {
        let n = &self.out_nbrs[e.index()];
        EdgeRecord {
            src: self.edge_src[e.index()],
            dst: n.vertex,
            etype: n.etype,
            weight: n.weight,
            attr: n.attr,
        }
    }

    /// Approximate bytes held by adjacency structure (the `O(n·N_D)` term).
    pub fn adjacency_bytes(&self) -> usize {
        (self.out_nbrs.len() + self.in_nbrs.len()) * std::mem::size_of::<Neighbor>()
            + (self.out_offsets.len() + self.in_offsets.len()) * std::mem::size_of::<usize>()
            + self.edge_src.len() * std::mem::size_of::<VertexId>()
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
/// edge set once and assembles both CSR directions.
#[derive(Debug)]
pub struct GraphBuilder {
    directed: bool,
    vtypes: Vec<VertexType>,
    vattrs: Vec<AttrId>,
    edges: Vec<PendingEdge>,
    vertex_attr_index: AttrIndex,
    edge_attr_index: AttrIndex,
    max_vertex_type: u8,
    max_edge_type: u8,
}

#[derive(Debug, Clone, Copy)]
struct PendingEdge {
    src: VertexId,
    dst: VertexId,
    etype: EdgeType,
    weight: f32,
    attr: AttrId,
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

    /// Adds an edge with attributes. Both endpoints must already exist and
    /// the weight must be strictly positive (`W: E -> R+`, paper §2).
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
        if weight.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(GraphError::NonPositiveWeight { weight });
        }
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
    /// dst)`, lays out both CSR directions, and builds per-type rosters.
    pub fn build(self) -> AttributedHeterogeneousGraph {
        let n = self.vtypes.len();
        let logical_edges = self.edges.len();

        // Materialize directed records (undirected edges become two records).
        let mut records: Vec<PendingEdge> = if self.directed {
            self.edges
        } else {
            let mut r = Vec::with_capacity(self.edges.len() * 2);
            for e in &self.edges {
                r.push(*e);
                if e.src != e.dst {
                    r.push(PendingEdge { src: e.dst, dst: e.src, ..*e });
                }
            }
            r
        };
        records.sort_unstable_by_key(|e| (e.src, e.etype, e.dst));

        // Out-CSR + edge lookup.
        let mut out_offsets = vec![0usize; n + 1];
        for e in &records {
            out_offsets[e.src.index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_nbrs = Vec::with_capacity(records.len());
        let mut edge_src = Vec::with_capacity(records.len());
        let mut edges_by_type: Vec<Vec<EdgeId>> = vec![Vec::new(); self.max_edge_type as usize + 1];
        for (i, e) in records.iter().enumerate() {
            let id = EdgeId(i as u64);
            out_nbrs.push(Neighbor {
                vertex: e.dst,
                etype: e.etype,
                weight: e.weight,
                attr: e.attr,
                edge: id,
            });
            edge_src.push(e.src);
            edges_by_type[e.etype.index()].push(id);
        }

        // In-CSR: same records re-sorted by (dst, etype, src), keeping EdgeId.
        let mut in_records: Vec<(usize, &PendingEdge)> = records.iter().enumerate().collect();
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
            .map(|&(i, e)| Neighbor {
                vertex: e.src,
                etype: e.etype,
                weight: e.weight,
                attr: e.attr,
                edge: EdgeId(i as u64),
            })
            .collect();

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
            in_nbrs,
            edge_src,
            vertex_attr_index: self.vertex_attr_index,
            edge_attr_index: self.edge_attr_index,
            num_vertex_types: self.max_vertex_type + 1,
            num_edge_types: self.max_edge_type + 1,
            vertices_by_type,
            edges_by_type,
            directed: self.directed,
            logical_edges,
        }
    }
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

    #[test]
    fn edge_lookup_consistent_both_directions() {
        let g = toy();
        for v in g.vertices() {
            for nbr in g.out_neighbors(v) {
                let rec = g.edge(nbr.edge);
                assert_eq!(rec.src, v);
                assert_eq!(rec.dst, nbr.vertex);
            }
            for nbr in g.in_neighbors(v) {
                let rec = g.edge(nbr.edge);
                assert_eq!(rec.dst, v);
                assert_eq!(rec.src, nbr.vertex);
            }
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
        assert!(matches!(b.add_edge(a, a, CLICK, 0.0), Err(GraphError::NonPositiveWeight { .. })));
        assert!(matches!(
            b.add_edge(a, a, CLICK, f32::NAN),
            Err(GraphError::NonPositiveWeight { .. })
        ));
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
