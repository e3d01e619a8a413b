//! The [`Partitioner`] abstraction and the hash edge-cut / greedy vertex-cut
//! / 2-D built-ins.

use aligraph_graph::{splitmix64, AttributedHeterogeneousGraph, EdgeId, EdgeRoster, VertexId};

/// Identifier of a worker (graph server) in the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub u32);

impl WorkerId {
    /// Index form.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The output of a partitioner: an owner worker for every vertex and every
/// edge record.
///
/// An edge cut owns each edge at its source's worker (so a vertex's
/// out-neighborhood is always local, which is what the NEIGHBORHOOD sampler
/// requires — the paper partitions "by source vertices"), and keeps vertex
/// owners only. A vertex cut assigns edges directly and replicates
/// vertices: it keeps a per-edge owner table, and its vertex owners are
/// each vertex's *primary* replica. The two constructors are the only
/// ways to build one, so an edge cut cannot disagree with its vertex owners.
#[derive(Debug, Clone)]
pub struct Partition {
    num_workers: usize,
    /// Primary owner of each vertex (indexed by `VertexId`).
    vertex_owner: Vec<WorkerId>,
    /// A vertex cut's owner of each edge record (indexed by `EdgeId`);
    /// `None` for an edge cut.
    edge_owner: Option<Vec<WorkerId>>,
}

impl Partition {
    /// An edge cut: each edge lives with its source — the `ASSIGN(u)`
    /// convention of Algorithm 2.
    pub fn from_vertex_owners(
        graph: &AttributedHeterogeneousGraph,
        num_workers: usize,
        vertex_owner: Vec<WorkerId>,
    ) -> Self {
        assert_eq!(vertex_owner.len(), graph.num_vertices());
        Partition { num_workers, vertex_owner, edge_owner: None }
    }

    /// A vertex cut: every edge record's owner given, and each vertex's
    /// primary replica.
    pub fn vertex_cut(
        graph: &AttributedHeterogeneousGraph,
        num_workers: usize,
        vertex_owner: Vec<WorkerId>,
        edge_owner: Vec<WorkerId>,
    ) -> Self {
        assert_eq!(vertex_owner.len(), graph.num_vertices());
        assert_eq!(edge_owner.len(), graph.num_edge_records());
        Partition { num_workers, vertex_owner, edge_owner: Some(edge_owner) }
    }

    /// Number of workers `p`.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Every vertex's (primary) owner, indexed by `VertexId`.
    pub fn vertex_owners(&self) -> &[WorkerId] {
        &self.vertex_owner
    }

    /// Owner of a vertex.
    #[inline]
    pub fn owner_of(&self, v: VertexId) -> WorkerId {
        self.vertex_owner[v.index()]
    }

    /// Owner of an edge record: in an edge cut its source's owner, found by
    /// the graph's O(log n) source search.
    pub fn owner_of_edge(&self, graph: &AttributedHeterogeneousGraph, e: EdgeId) -> WorkerId {
        match &self.edge_owner {
            Some(owner) => owner[e.index()],
            None => self.owner_of(graph.edge(e).src),
        }
    }

    /// Owner of edge record `e` whose source is `src`, in O(1).
    #[inline]
    pub(crate) fn owner_of_out_edge(&self, src: VertexId, e: usize) -> WorkerId {
        match &self.edge_owner {
            Some(owner) => owner[e],
            None => self.owner_of(src),
        }
    }

    /// Worker `w`'s edge ids of each type, ascending, as runs
    /// ([`EdgeRoster`]): the "local subgraph" a shard-pinned trainer draws
    /// positive edges from. An edge cut's roster of a type is its owned
    /// rows' typed sub-ranges, a run or fewer a row.
    pub fn edge_rosters(
        &self,
        graph: &AttributedHeterogeneousGraph,
        w: WorkerId,
    ) -> Vec<EdgeRoster> {
        let mut rosters = vec![EdgeRoster::new(); graph.num_edge_types().into()];
        for v in graph.vertices() {
            if self.edge_owner.is_none() && self.owner_of(v) != w {
                continue;
            }
            for (e, nbr) in graph.out_edge_ids(v).zip(graph.out_neighbors(v)) {
                if self.owner_of_out_edge(v, e) == w {
                    rosters[nbr.etype.index()].push(EdgeId(e as u32));
                }
            }
        }
        rosters.iter_mut().for_each(EdgeRoster::shrink_to_fit);
        rosters
    }

    /// Number of vertices owned by each worker.
    pub fn vertex_loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.num_workers];
        for w in &self.vertex_owner {
            loads[w.index()] += 1;
        }
        loads
    }

    /// Number of edge records owned by each worker.
    pub fn edge_loads(&self, graph: &AttributedHeterogeneousGraph) -> Vec<usize> {
        let mut loads = vec![0usize; self.num_workers];
        match &self.edge_owner {
            Some(owner) => owner.iter().for_each(|w| loads[w.index()] += 1),
            None => graph
                .vertices()
                .for_each(|v| loads[self.owner_of(v).index()] += graph.out_degree(v)),
        }
        loads
    }
}

/// A pluggable graph partitioner (`ASSIGN` in Algorithm 2). Implementations
/// are deterministic for a fixed input and seed.
pub trait Partitioner {
    /// Splits `graph` across `num_workers` workers.
    fn partition(&self, graph: &AttributedHeterogeneousGraph, num_workers: usize) -> Partition;

    /// Human-readable name, used in experiment reports.
    fn name(&self) -> &'static str;
}

/// Edge-cut by vertex hashing: `owner(v) = hash(v) mod p`. The cheapest
/// baseline; perfectly balanced in expectation, oblivious to locality.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeCutHash;

impl EdgeCutHash {
    /// `v`'s owner among `num_workers` workers (at least one): the rule
    /// [`EdgeCutHash::partition`] applies to every vertex, for a caller that
    /// routes by vertex and needs no per-edge owner table.
    #[inline]
    pub fn owner(v: VertexId, num_workers: usize) -> WorkerId {
        WorkerId((splitmix64(v.0 as u64) % num_workers.max(1) as u64) as u32)
    }
}

impl Partitioner for EdgeCutHash {
    fn partition(&self, graph: &AttributedHeterogeneousGraph, num_workers: usize) -> Partition {
        let owners = graph.vertices().map(|v| Self::owner(v, num_workers)).collect();
        Partition::from_vertex_owners(graph, num_workers.max(1), owners)
    }

    fn name(&self) -> &'static str {
        "edge-cut-hash"
    }
}

/// PowerGraph-style greedy vertex cut: edges are streamed and each edge is
/// placed on the worker that already hosts replicas of its endpoints,
/// breaking ties by load, under a hard capacity bound so hub locality cannot
/// collapse everything onto one worker. Suited to dense/skewed graphs where
/// edge-cut explodes on hubs.
#[derive(Debug, Clone, Copy)]
pub struct VertexCutGreedy {
    /// Capacity slack: each worker may hold at most `slack * m / p` edges.
    pub slack: f64,
}

impl Default for VertexCutGreedy {
    fn default() -> Self {
        VertexCutGreedy { slack: 1.15 }
    }
}

impl Partitioner for VertexCutGreedy {
    fn partition(&self, graph: &AttributedHeterogeneousGraph, num_workers: usize) -> Partition {
        let p = num_workers.max(1);
        let n = graph.num_vertices();
        let capacity =
            ((graph.num_edge_records() as f64 / p as f64) * self.slack).ceil().max(1.0) as usize;
        // replicas[v] = bitset of workers holding v (p <= 64 fast path,
        // falls back to a Vec<bool> matrix above that).
        let mut replicas = ReplicaSet::new(n, p);
        let mut loads = vec![0usize; p];
        let mut edge_owner = vec![WorkerId(0); graph.num_edge_records()];

        for v in graph.vertices() {
            for (e, nbr) in graph.out_edge_ids(v).zip(graph.out_neighbors(v)) {
                let (src, dst) = (v, nbr.vertex);
                #[expect(
                    clippy::expect_used,
                    reason = "the partitioner validates p >= 1 at construction"
                )]
                let best = (0..p)
                    .filter(|&w| loads[w] < capacity)
                    .min_by_key(|&w| {
                        // Greedy rule: prefer workers already holding both
                        // endpoints, then either endpoint, then least loaded.
                        let has_src = replicas.contains(src, w);
                        let has_dst = replicas.contains(dst, w);
                        let class = match (has_src, has_dst) {
                            (true, true) => 0usize,
                            (true, false) | (false, true) => 1,
                            (false, false) => 2,
                        };
                        (class, loads[w])
                    })
                    // All workers at capacity can only happen through slack
                    // rounding; fall back to the least loaded.
                    .unwrap_or_else(|| (0..p).min_by_key(|&w| loads[w]).expect("p >= 1"));
                edge_owner[e] = WorkerId(best as u32);
                loads[best] += 1;
                replicas.insert(src, best);
                replicas.insert(dst, best);
            }
        }

        // Primary replica: first worker holding the vertex (or hash for
        // isolated vertices that appear on no edge).
        let vertex_owner = graph
            .vertices()
            .map(|v| {
                replicas
                    .first(v)
                    .map(|w| WorkerId(w as u32))
                    .unwrap_or(WorkerId((splitmix64(v.0 as u64) % p as u64) as u32))
            })
            .collect();
        Partition::vertex_cut(graph, p, vertex_owner, edge_owner)
    }

    fn name(&self) -> &'static str {
        "vertex-cut-greedy"
    }
}

/// 2-D partition: workers form an `r x c` grid (`r*c >= p` is rounded down
/// to the closest usable rectangle); edge `(u,v)` goes to the cell at
/// (row of u, column of v). Bounds each vertex's replicas by `r + c`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Grid2D;

impl Grid2D {
    /// The `r x c` grid used for `p` workers: the most square factorization.
    pub fn grid_shape(p: usize) -> (usize, usize) {
        let p = p.max(1);
        let mut r = (p as f64).sqrt() as usize;
        while r > 1 && !p.is_multiple_of(r) {
            r -= 1;
        }
        (r.max(1), p / r.max(1))
    }
}

impl Partitioner for Grid2D {
    fn partition(&self, graph: &AttributedHeterogeneousGraph, num_workers: usize) -> Partition {
        let p = num_workers.max(1);
        let (rows, cols) = Self::grid_shape(p);
        let mut edge_owner = vec![WorkerId(0); graph.num_edge_records()];
        for v in graph.vertices() {
            let row = (splitmix64(v.0 as u64) % rows as u64) as usize;
            for (e, nbr) in graph.out_edge_ids(v).zip(graph.out_neighbors(v)) {
                let col = (splitmix64(nbr.vertex.0 as u64 ^ 0xc01) % cols as u64) as usize;
                edge_owner[e] = WorkerId((row * cols + col) as u32);
            }
        }
        let vertex_owner = graph
            .vertices()
            .map(|v| {
                let row = (splitmix64(v.0 as u64) % rows as u64) as usize;
                WorkerId((row * cols) as u32)
            })
            .collect();
        Partition::vertex_cut(graph, rows * cols, vertex_owner, edge_owner)
    }

    fn name(&self) -> &'static str {
        "2d-grid"
    }
}

/// Replica membership: bitset rows for `p <= 64`, boolean matrix otherwise.
enum ReplicaSet {
    Bits(Vec<u64>),
    Wide { p: usize, bits: Vec<bool> },
}

impl ReplicaSet {
    fn new(n: usize, p: usize) -> Self {
        if p <= 64 {
            ReplicaSet::Bits(vec![0u64; n])
        } else {
            ReplicaSet::Wide { p, bits: vec![false; n * p] }
        }
    }

    #[inline]
    fn contains(&self, v: VertexId, w: usize) -> bool {
        match self {
            ReplicaSet::Bits(rows) => rows[v.index()] & (1u64 << w) != 0,
            ReplicaSet::Wide { p, bits } => bits[v.index() * p + w],
        }
    }

    #[inline]
    fn insert(&mut self, v: VertexId, w: usize) {
        match self {
            ReplicaSet::Bits(rows) => rows[v.index()] |= 1u64 << w,
            ReplicaSet::Wide { p, bits } => bits[v.index() * *p + w] = true,
        }
    }

    fn first(&self, v: VertexId) -> Option<usize> {
        match self {
            ReplicaSet::Bits(rows) => {
                let r = rows[v.index()];
                (r != 0).then(|| r.trailing_zeros() as usize)
            }
            ReplicaSet::Wide { p, bits } => (0..*p).find(|&w| bits[v.index() * p + w]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::generate::{barabasi_albert, erdos_renyi};

    #[test]
    fn hash_partition_covers_all_workers() {
        let g = erdos_renyi(1_000, 4_000, 1).unwrap();
        let part = EdgeCutHash.partition(&g, 8);
        assert_eq!(part.num_workers(), 8);
        let loads = part.vertex_loads();
        assert!(loads.iter().all(|&l| l > 0), "loads {loads:?}");
        // Edges live with their source vertex.
        for v in g.vertices() {
            for e in g.out_edge_ids(v) {
                assert_eq!(part.owner_of_edge(&g, EdgeId(e as u32)), part.owner_of(v));
            }
        }
    }

    #[test]
    fn hash_partition_roughly_balanced() {
        let g = erdos_renyi(10_000, 1_000, 2).unwrap();
        let part = EdgeCutHash.partition(&g, 4);
        let loads = part.vertex_loads();
        let mean = 10_000.0 / 4.0;
        for &l in &loads {
            assert!((l as f64 - mean).abs() / mean < 0.1, "loads {loads:?}");
        }
    }

    #[test]
    fn vertex_cut_balances_edges_on_skewed_graph() {
        let g = barabasi_albert(2_000, 4, 7).unwrap();
        let part = VertexCutGreedy::default().partition(&g, 4);
        let loads = part.edge_loads(&g);
        let total: usize = loads.iter().sum();
        assert_eq!(total, g.num_edge_records());
        let max = *loads.iter().max().unwrap() as f64;
        let mean = total as f64 / 4.0;
        assert!(max / mean < 1.5, "edge loads too skewed: {loads:?}");
    }

    #[test]
    fn vertex_cut_replication_below_hash_replication() {
        // On a hub-heavy graph, greedy vertex cut should replicate less
        // than random edge placement would.
        let g = barabasi_albert(1_000, 5, 3).unwrap();
        let greedy = VertexCutGreedy::default().partition(&g, 8);
        let q = crate::quality::PartitionQuality::evaluate(&g, &greedy);
        assert!(q.replication_factor < 4.0, "rep {}", q.replication_factor);
    }

    #[test]
    fn grid_shape_factors() {
        assert_eq!(Grid2D::grid_shape(1), (1, 1));
        assert_eq!(Grid2D::grid_shape(4), (2, 2));
        assert_eq!(Grid2D::grid_shape(6), (2, 3));
        assert_eq!(Grid2D::grid_shape(7), (1, 7));
        assert_eq!(Grid2D::grid_shape(16), (4, 4));
    }

    #[test]
    fn grid2d_assigns_within_grid() {
        let g = erdos_renyi(500, 2_000, 4).unwrap();
        let part = Grid2D.partition(&g, 6);
        assert_eq!(part.num_workers(), 6);
        let edges = (0..g.num_edge_records() as u32).map(EdgeId);
        assert!(edges.clone().all(|e| part.owner_of_edge(&g, e).index() < 6));
        // An edge goes to a cell in its source's row.
        let (_, cols) = Grid2D::grid_shape(6);
        for e in edges {
            let src_row = part.owner_of(g.edge(e).src).index() / cols;
            assert_eq!(part.owner_of_edge(&g, e).index() / cols, src_row);
        }
    }

    #[test]
    fn partition_deterministic() {
        let g = erdos_renyi(300, 900, 5).unwrap();
        let a = VertexCutGreedy::default().partition(&g, 5);
        let b = VertexCutGreedy::default().partition(&g, 5);
        assert_eq!(a.vertex_owner, b.vertex_owner);
        assert_eq!(a.edge_owner, b.edge_owner);
    }

    #[test]
    fn single_worker_degenerate() {
        let g = erdos_renyi(50, 100, 6).unwrap();
        for part in [
            EdgeCutHash.partition(&g, 1),
            VertexCutGreedy::default().partition(&g, 1),
            Grid2D.partition(&g, 1),
        ] {
            assert_eq!(part.num_workers(), 1);
            assert!(part.vertex_owner.iter().all(|w| w.0 == 0));
        }
    }

    use aligraph_graph::EdgeId;
}
