//! TRAVERSE samplers: batches of vertices or edges from the (partitioned)
//! graph — the seed generator of every training pipeline (paper §3.3:
//! "TRAVERSE samplers get data from the local subgraphs").

use crate::alias::AliasTable;
use aligraph_graph::{
    AttributedHeterogeneousGraph, EdgeId, EdgeRoster, EdgeType, VertexId, VertexType,
};
use aligraph_partition::{Partition, WorkerId};
use aligraph_storage::Cluster;
use aligraph_telemetry::Registry;
use rand::Rng;
use std::sync::Arc;

/// A pluggable TRAVERSE sampler.
pub trait TraverseSampler {
    /// Draws `batch` vertices (optionally restricted to one vertex type).
    fn sample_vertices<R: Rng>(
        &self,
        graph: &AttributedHeterogeneousGraph,
        vtype: Option<VertexType>,
        batch: usize,
        rng: &mut R,
    ) -> Vec<VertexId>;

    /// Draws `batch` edges of one type.
    fn sample_edges<R: Rng>(
        &self,
        graph: &AttributedHeterogeneousGraph,
        etype: EdgeType,
        batch: usize,
        rng: &mut R,
    ) -> Vec<EdgeId>;
}

/// Uniform traversal over the vertex/edge rosters.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformTraverse;

impl UniformTraverse {
    /// Uniform batch from an explicit roster (e.g. one worker's owned
    /// vertices — the "local subgraph" form).
    pub fn sample_from_roster<R: Rng>(
        roster: &[VertexId],
        batch: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        if roster.is_empty() {
            return Vec::new();
        }
        (0..batch).map(|_| roster[rng.gen_range(0..roster.len())]).collect()
    }
}

impl TraverseSampler for UniformTraverse {
    fn sample_vertices<R: Rng>(
        &self,
        graph: &AttributedHeterogeneousGraph,
        vtype: Option<VertexType>,
        batch: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        match vtype {
            Some(t) => Self::sample_from_roster(graph.vertices_of_type(t), batch, rng),
            None => {
                let n = graph.num_vertices();
                if n == 0 {
                    return Vec::new();
                }
                (0..batch).map(|_| VertexId(rng.gen_range(0..n as u32))).collect()
            }
        }
    }

    fn sample_edges<R: Rng>(
        &self,
        graph: &AttributedHeterogeneousGraph,
        etype: EdgeType,
        batch: usize,
        rng: &mut R,
    ) -> Vec<EdgeId> {
        let roster = graph.edges_of_type(etype);
        if roster.is_empty() {
            return Vec::new();
        }
        (0..batch).map(|_| roster.get(rng.gen_range(0..roster.len()))).collect()
    }
}

/// Weight-proportional edge traversal: edges of a type are drawn with
/// probability proportional to their weight, via a prebuilt alias table
/// indexed by position in the type's roster.
#[derive(Debug, Clone)]
pub struct WeightedEdgeTraverse {
    tables: Vec<Option<AliasTable>>,
}

impl WeightedEdgeTraverse {
    /// Precomputes one alias table per edge type.
    pub fn new(graph: &AttributedHeterogeneousGraph) -> Self {
        Self::new_registered(graph, &Registry::disabled())
    }

    /// Like [`new`](Self::new), counting each alias-table (re)build as
    /// `sampling.alias.rebuilds` in `registry` — the O(n) cost a dynamic
    /// graph pays per delta when edge weights change.
    pub fn new_registered(graph: &AttributedHeterogeneousGraph, registry: &Registry) -> Self {
        let rebuilds = registry.counter("sampling.alias.rebuilds", &[]);
        let tables = (0..graph.num_edge_types())
            .map(|t| {
                let roster = graph.edges_of_type(EdgeType(t));
                if roster.is_empty() {
                    return None;
                }
                let weights: Vec<f32> = roster.iter().map(|e| graph.out_record(e).weight).collect();
                rebuilds.inc();
                AliasTable::new(&weights)
            })
            .collect();
        WeightedEdgeTraverse { tables }
    }
}

impl TraverseSampler for WeightedEdgeTraverse {
    fn sample_vertices<R: Rng>(
        &self,
        graph: &AttributedHeterogeneousGraph,
        vtype: Option<VertexType>,
        batch: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        // Vertex traversal falls back to uniform; the weighting is on edges.
        UniformTraverse.sample_vertices(graph, vtype, batch, rng)
    }

    fn sample_edges<R: Rng>(
        &self,
        graph: &AttributedHeterogeneousGraph,
        etype: EdgeType,
        batch: usize,
        rng: &mut R,
    ) -> Vec<EdgeId> {
        let roster = graph.edges_of_type(etype);
        match self.tables.get(etype.index()).and_then(|t| t.as_ref()) {
            Some(table) => (0..batch).map(|_| roster.get(table.sample(rng))).collect(),
            None => Vec::new(),
        }
    }
}

/// Per-shard TRAVERSE rosters: for one worker, the edges of each type the
/// partition places on it — the "local subgraph" a shard-pinned trainer
/// samples from. Rosters hold ids in the global `edges_of_type` order, so
/// with a single worker `sample` is draw-for-draw identical to
/// [`UniformTraverse::sample_edges`] on the full graph.
#[derive(Debug, Clone)]
pub struct ShardEdgePools {
    pools: Arc<[EdgeRoster]>,
}

impl ShardEdgePools {
    /// `worker`'s per-type rosters under `partition`
    /// ([`Partition::edge_rosters`]).
    pub fn build(
        graph: &AttributedHeterogeneousGraph,
        partition: &Partition,
        worker: WorkerId,
    ) -> Self {
        ShardEdgePools { pools: partition.edge_rosters(graph, worker).into() }
    }

    /// [`build`](Self::build) over `cluster`'s graph and partition, from the
    /// rosters the cluster built once ([`Cluster::edge_rosters`]).
    pub fn of(cluster: &Cluster, worker: WorkerId) -> Self {
        ShardEdgePools { pools: cluster.edge_rosters(worker) }
    }

    /// Uniform batch of shard-local edges of one type. An empty pool yields
    /// an empty batch without consuming any randomness (mirroring
    /// [`UniformTraverse::sample_edges`], which parity tests rely on).
    pub fn sample<R: Rng>(&self, etype: EdgeType, batch: usize, rng: &mut R) -> Vec<EdgeId> {
        let pool = match self.pools.get(etype.index()) {
            Some(p) if !p.is_empty() => p,
            _ => return Vec::new(),
        };
        (0..batch).map(|_| pool.get(rng.gen_range(0..pool.len()))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_graph::ids::well_known::*;
    use aligraph_graph::{AttrVector, GraphBuilder};
    use aligraph_partition::{EdgeCutHash, Partitioner, VertexCutGreedy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_vertices_respect_type() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let batch = UniformTraverse.sample_vertices(&g, Some(ITEM), 64, &mut rng);
        assert_eq!(batch.len(), 64);
        assert!(batch.iter().all(|&v| g.vertex_type(v) == ITEM));
        let any = UniformTraverse.sample_vertices(&g, None, 10, &mut rng);
        assert_eq!(any.len(), 10);
    }

    #[test]
    fn uniform_edges_respect_type() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let batch = UniformTraverse.sample_edges(&g, BUY, 32, &mut rng);
        assert_eq!(batch.len(), 32);
        assert!(batch.iter().all(|&e| g.edge(e).etype == BUY));
    }

    #[test]
    fn missing_type_yields_empty() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(UniformTraverse.sample_edges(&g, EdgeType(7), 8, &mut rng).is_empty());
        assert!(UniformTraverse.sample_vertices(&g, Some(VertexType(9)), 8, &mut rng).is_empty());
    }

    #[test]
    fn weighted_edges_prefer_heavy() {
        // Two edges of the same type, one 100x heavier.
        let mut b = GraphBuilder::directed();
        let u = b.add_vertex(USER, AttrVector::empty());
        let i1 = b.add_vertex(ITEM, AttrVector::empty());
        let i2 = b.add_vertex(ITEM, AttrVector::empty());
        b.add_edge(u, i1, CLICK, 100.0).unwrap();
        b.add_edge(u, i2, CLICK, 1.0).unwrap();
        let g = b.build();
        let sampler = WeightedEdgeTraverse::new(&g);
        let mut rng = StdRng::seed_from_u64(4);
        let draws = sampler.sample_edges(&g, CLICK, 5_000, &mut rng);
        let heavy = draws.iter().filter(|&&e| g.edge(e).dst == i1).count();
        assert!(heavy > 4_700, "heavy drawn {heavy}/5000");
    }

    #[test]
    fn registered_build_counts_alias_rebuilds() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let registry = Registry::new();
        let s = WeightedEdgeTraverse::new_registered(&g, &registry);
        let built = registry.snapshot().counter("sampling.alias.rebuilds", &[]);
        let nonempty =
            (0..g.num_edge_types()).filter(|&t| !g.edges_of_type(EdgeType(t)).is_empty()).count();
        assert_eq!(built, nonempty as u64);
        // The registered build draws identically to the plain one.
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let plain = WeightedEdgeTraverse::new(&g);
        assert_eq!(s.sample_edges(&g, BUY, 32, &mut a), plain.sample_edges(&g, BUY, 32, &mut b));
    }

    fn num_edges(pools: &ShardEdgePools) -> usize {
        pools.pools.iter().map(|p| p.len()).sum()
    }

    fn cluster(g: &Arc<AttributedHeterogeneousGraph>, p: &dyn Partitioner, n: usize) -> Cluster {
        Cluster::builder(Arc::clone(g)).partitioner(p).shards(n).build().0
    }

    #[test]
    fn shard_pools_partition_edges_and_replay_global_order() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        // One worker: pools must equal the global rosters, and sampling must
        // replay UniformTraverse::sample_edges draw for draw.
        let p1 = EdgeCutHash.partition(&g, 1);
        let pool = ShardEdgePools::build(&g, &p1, WorkerId(0));
        for t in 0..g.num_edge_types() {
            assert_eq!(&pool.pools[usize::from(t)], g.edges_of_type(EdgeType(t)));
        }
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        assert_eq!(pool.sample(BUY, 64, &mut a), UniformTraverse.sample_edges(&g, BUY, 64, &mut b));
        // Absent type: empty result, no randomness consumed.
        assert!(pool.sample(EdgeType(7), 8, &mut a).is_empty());
        assert_eq!(a.gen_range(0..1_000u32), b.gen_range(0..1_000u32));

        // Four workers: pools are disjoint, cover every edge, and each edge
        // sits with its source's owner.
        let p4 = EdgeCutHash.partition(&g, 4);
        let pools: Vec<ShardEdgePools> =
            (0..4).map(|w| ShardEdgePools::build(&g, &p4, WorkerId(w))).collect();
        assert_eq!(pools.iter().map(num_edges).sum::<usize>(), g.num_edge_records());
        for (w, pool) in pools.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(w as u64);
            for e in pool.sample(BUY, 32, &mut rng) {
                assert_eq!(p4.owner_of(g.edge(e).src).index(), w);
            }
        }
    }

    #[test]
    fn cluster_rosters_equal_the_filtered_build_for_every_worker() {
        let g = Arc::new(TaobaoConfig::tiny().generate().unwrap());
        let vertex_cut = VertexCutGreedy::default();
        for (name, partitioner) in
            [("edge-cut", &EdgeCutHash as &dyn Partitioner), ("vertex-cut", &vertex_cut)]
        {
            let c = cluster(&g, partitioner, 4);
            let p = c.partition();
            for w in 0..4 {
                let shared = ShardEdgePools::of(&c, WorkerId(w));
                let built = ShardEdgePools::build(&g, p, WorkerId(w));
                assert_eq!(shared.pools, built.pools, "{name}: worker {w}");
            }
            assert!(ShardEdgePools::of(&c, WorkerId(4)).pools.is_empty(), "{name}");
        }
        // The vertex cut has teeth here: some edge does not live with its
        // source's owner, so rosters keyed by source would differ.
        let p = vertex_cut.partition(&g, 4);
        let moved = (0..g.num_edge_records() as u32)
            .map(EdgeId)
            .any(|e| p.owner_of_edge(&g, e) != p.owner_of(g.edge(e).src));
        assert!(moved, "every vertex-cut edge sits with its source");
    }

    #[test]
    fn one_worker_cluster_pools_replay_uniform_traverse() {
        let g = Arc::new(TaobaoConfig::tiny().generate().unwrap());
        let c = cluster(&g, &EdgeCutHash, 1);
        let pool = ShardEdgePools::of(&c, WorkerId(0));
        assert_eq!(num_edges(&pool), g.num_edge_records());
        let mut a = StdRng::seed_from_u64(12);
        let mut b = StdRng::seed_from_u64(12);
        for t in [BUY, CLICK, EdgeType(7), BUY] {
            assert_eq!(pool.sample(t, 64, &mut a), UniformTraverse.sample_edges(&g, t, 64, &mut b));
        }
        assert_eq!(a.gen_range(0..1_000u32), b.gen_range(0..1_000u32));
    }

    /// Every batch the edge TRAVERSE samplers draw on the tiny Taobao graph
    /// feeds one digest: each shard's pools on 1-, 2- and 4-worker hash
    /// edge-cut clusters and a 4-worker vertex cut (through the cluster and
    /// through `build`), then the whole-graph uniform and weighted samplers,
    /// every type plus an absent one. A roster that reorders, drops or
    /// shifts an edge moves it.
    #[test]
    fn traverse_draws_end_at_their_pinned_digest() {
        let g = Arc::new(TaobaoConfig::tiny().generate().unwrap());
        let types = g.num_edge_types() + 1;
        let mut rng = StdRng::seed_from_u64(53);
        let mut bytes = Vec::new();
        let mut put =
            |batch: Vec<EdgeId>| bytes.extend(batch.iter().flat_map(|e| e.0.to_le_bytes()));
        let vertex_cut = VertexCutGreedy::default();
        for (partitioner, workers) in [
            (&EdgeCutHash as &dyn Partitioner, 1),
            (&EdgeCutHash, 2),
            (&EdgeCutHash, 4),
            (&vertex_cut, 4),
        ] {
            let c = cluster(&g, partitioner, workers);
            for w in 0..workers as u32 {
                let shared = ShardEdgePools::of(&c, WorkerId(w));
                let built = ShardEdgePools::build(&g, c.partition(), WorkerId(w));
                for t in 0..types {
                    put(shared.sample(EdgeType(t), 64, &mut rng));
                    put(built.sample(EdgeType(t), 64, &mut rng));
                }
            }
        }
        let weighted = WeightedEdgeTraverse::new(&g);
        for t in 0..types {
            put(UniformTraverse.sample_edges(&g, EdgeType(t), 64, &mut rng));
            put(weighted.sample_edges(&g, EdgeType(t), 64, &mut rng));
        }
        let digest = aligraph_storage::seal::fnv1a(&bytes);
        assert_eq!(digest, 0x0abf_b88b_0d93_2540, "traverse digest {digest:#018x}");
    }

    #[test]
    fn roster_sampling() {
        let roster = vec![VertexId(3), VertexId(9)];
        let mut rng = StdRng::seed_from_u64(5);
        let s = UniformTraverse::sample_from_roster(&roster, 100, &mut rng);
        assert_eq!(s.len(), 100);
        assert!(s.iter().all(|v| roster.contains(v)));
        assert!(UniformTraverse::sample_from_roster(&[], 4, &mut rng).is_empty());
    }
}
