//! NEIGHBORHOOD samplers: the multi-hop context generator (paper §3.3).
//!
//! The sampler reads adjacency through the [`NeighborAccess`] abstraction:
//! a bare graph (unit tests, single-machine training) or a
//! [`aligraph_storage::Cluster`] shard view, where 1-hop reads come from
//! local storage, multi-hop reads from the local cache, and misses become
//! accounted remote server calls — exactly the cost structure §3.3
//! describes.

use crate::alias::{AliasSlice, AliasTable};
use aligraph_graph::{AttributedHeterogeneousGraph, EdgeType, Neighbor, VertexId};
use aligraph_partition::WorkerId;
use aligraph_storage::Cluster;
use rand::Rng;

/// Read access to out-neighborhoods, abstracting local vs. distributed
/// storage. `hop` is the depth the caller is expanding at (1-based), which
/// the storage layer uses to decide whether its cache can serve the read.
pub trait NeighborAccess {
    /// Out-neighbor records of `v`.
    fn neighbors(&self, v: VertexId, hop: usize) -> &[Neighbor];

    /// `v`'s out-row with the alias table over its weights, where the
    /// access keeps one ([`EpochView`](crate::EpochView) built with alias
    /// columns: one overlay lookup answers both). Default: the row and no
    /// table, so a weighted sampler builds the row's table itself.
    #[inline]
    fn row(&self, v: VertexId, hop: usize) -> (&[Neighbor], Option<AliasSlice<'_>>) {
        (self.neighbors(v, hop), None)
    }

    /// Announces the frontier the sampler is about to expand, so tiered
    /// storage can batch its cold decodes and overlap them with the current
    /// layer's gather/aggregate. Purely an accounting/performance hint —
    /// results never depend on it. Default: no-op.
    fn prefetch_hint(&self, _frontier: &[VertexId], _hop: usize) {}
}

impl NeighborAccess for AttributedHeterogeneousGraph {
    #[inline]
    fn neighbors(&self, v: VertexId, _hop: usize) -> &[Neighbor] {
        self.out_neighbors(v)
    }
}

/// The vertices within `depth` in-hops of `sources` in any one of the given
/// `views` (one BFS per view, results united), including the sources
/// themselves.
///
/// This is the invalidation rule of the dynamic-graph plane, in its plain
/// hash-set form: a k-hop encoder's output for seed `s` can only change
/// when `s` reaches a modified vertex within its sampling horizon, i.e.
/// when `s` is in the reverse reach of the touched set. Passing both the
/// pre- and post-delta views catches paths that only exist on one side (an
/// added edge creates reach-paths that exist only *after* the delta, a
/// removed edge's paths existed only *before*). `plane::affected` walks the
/// same rule over a bitmap; this is the oracle its tests compare it with.
#[cfg(test)]
pub(crate) fn reverse_reach(
    views: &[&crate::plane::EpochView],
    sources: &std::collections::HashSet<VertexId>,
    depth: usize,
) -> std::collections::HashSet<VertexId> {
    let mut reached = sources.clone();
    for view in views {
        // The reached *set* is order-independent, but a sorted frontier
        // makes the traversal itself deterministic (and lint-provably so).
        let mut frontier: Vec<VertexId> = sources.iter().copied().collect();
        frontier.sort_unstable();
        let mut seen = sources.clone();
        for _ in 0..depth {
            let mut next = Vec::new();
            for &v in &frontier {
                for n in view.in_neighbors(v) {
                    if seen.insert(n.vertex) {
                        reached.insert(n.vertex);
                        next.push(n.vertex);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
    }
    reached
}

/// A cluster shard's view: reads are accounted as local / cached / remote.
#[derive(Debug)]
pub struct ClusterView<'a> {
    /// The cluster being read.
    pub cluster: &'a Cluster,
    /// The worker issuing the reads.
    pub from: WorkerId,
}

impl NeighborAccess for ClusterView<'_> {
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "the view's worker and every sampled vertex come from the cluster itself"
    )]
    fn neighbors(&self, v: VertexId, hop: usize) -> &[Neighbor] {
        self.cluster.neighbors_from(self.from, v, hop).expect("view routes within the cluster")
    }

    fn prefetch_hint(&self, frontier: &[VertexId], _hop: usize) {
        self.cluster.prefetch(self.from, frontier);
    }
}

/// One hop of a sampled context: `neighbors[i]` are the sampled neighbors of
/// `targets[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// The vertices whose neighborhoods were sampled at this hop.
    pub targets: Vec<VertexId>,
    /// Per-target sampled neighbors (empty for isolated vertices).
    pub neighbors: Vec<Vec<VertexId>>,
}

impl Layer {
    /// All sampled neighbors of this layer, flattened in target order —
    /// these become the next hop's targets.
    pub fn flattened(&self) -> Vec<VertexId> {
        self.neighbors.iter().flatten().copied().collect()
    }
}

/// The multi-hop context of a seed batch: `layers[k]` expands hop `k+1`.
/// Matches the `hop_nums` interface of the paper's Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextTree {
    /// Hop layers, outermost last.
    pub layers: Vec<Layer>,
}

impl ContextTree {
    /// Every distinct vertex mentioned anywhere in the tree (seeds included).
    pub fn all_vertices(&self) -> Vec<VertexId> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for layer in &self.layers {
            for &v in layer.targets.iter().chain(layer.neighbors.iter().flatten()) {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Total sampled context size (sum of all neighbor lists).
    pub fn context_size(&self) -> usize {
        self.layers.iter().map(|l| l.neighbors.iter().map(Vec::len).sum::<usize>()).sum()
    }
}

/// A pluggable NEIGHBORHOOD sampler: given one target and its adjacency,
/// choose `count` context vertices.
pub trait NeighborhoodSampler {
    /// Whether the sampler draws by edge weight, and so reads the alias
    /// table [`sample_row`](Self::sample_row) is given: a property of the
    /// type, which tells a service whether keeping tables pays.
    const DRAWS_BY_WEIGHT: bool = false;

    /// Samples up to `count` neighbors of `target` from `nbrs` (already
    /// filtered to the requested edge type).
    fn sample_one<R: Rng>(
        &self,
        target: VertexId,
        nbrs: &[Neighbor],
        count: usize,
        rng: &mut R,
    ) -> Vec<VertexId>;

    /// [`sample_one`](Self::sample_one) over `target`'s whole out-row
    /// `nbrs`, with `alias`, the table over its weights where the access
    /// keeps one ([`NeighborAccess::row`]). Default: the table is not read.
    #[inline]
    fn sample_row<R: Rng>(
        &self,
        target: VertexId,
        nbrs: &[Neighbor],
        _alias: Option<AliasSlice<'_>>,
        count: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        self.sample_one(target, nbrs, count, rng)
    }

    /// Expands a seed batch into a multi-hop [`ContextTree`].
    /// `hop_nums[k]` is the fan-out at hop `k+1`; `etype` restricts edges.
    fn sample_context<A: NeighborAccess, R: Rng>(
        &self,
        access: &A,
        seeds: &[VertexId],
        etype: Option<EdgeType>,
        hop_nums: &[usize],
        rng: &mut R,
    ) -> ContextTree {
        let mut layers = Vec::with_capacity(hop_nums.len());
        let mut targets: Vec<VertexId> = seeds.to_vec();
        let total_hops = hop_nums.len();
        for (k, &count) in hop_nums.iter().enumerate() {
            // Depth needed from the *cache's* perspective: a read at hop k
            // still has (total_hops - k) expansions below it.
            let depth = total_hops - k;
            // Hand the storage layer the whole frontier before touching it:
            // a cold tier batches these rows into its prefetch pipeline so
            // the decode overlaps this layer's sampling work.
            access.prefetch_hint(&targets, depth);
            let mut neighbors = Vec::with_capacity(targets.len());
            for &t in &targets {
                // A typed request has no table over its records: an
                // overlay row appends its added edges, so a touched row is
                // not sorted by type and its typed records are no sub-range.
                let sampled = match etype {
                    Some(et) => {
                        let all = access.neighbors(t, depth);
                        let typed: Vec<Neighbor> =
                            all.iter().filter(|n| n.etype == et).copied().collect();
                        self.sample_one(t, &typed, count, rng)
                    }
                    None => {
                        let (nbrs, alias) = access.row(t, depth);
                        self.sample_row(t, nbrs, alias, count, rng)
                    }
                };
                neighbors.push(sampled);
            }
            let layer = Layer { targets, neighbors };
            targets = layer.flattened();
            layers.push(layer);
            if targets.is_empty() {
                break;
            }
        }
        ContextTree { layers }
    }
}

/// GraphSAGE-style uniform sampling with replacement.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformNeighborhood;

impl NeighborhoodSampler for UniformNeighborhood {
    fn sample_one<R: Rng>(
        &self,
        _target: VertexId,
        nbrs: &[Neighbor],
        count: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        if nbrs.is_empty() {
            return Vec::new();
        }
        (0..count).map(|_| nbrs[rng.gen_range(0..nbrs.len())].vertex).collect()
    }
}

/// Edge-weight-proportional sampling with replacement, O(1) a draw through
/// the row's alias table: the access's (its alias columns, or an overlay
/// row's repaired table) when it keeps one, else one built for the call.
/// Both are the one Walker build over the same weights and draw through
/// [`AliasSlice::sample`], so a draw is bit-identical with or without
/// stored tables. A row with no table (empty, or an overlay row whose
/// updated weights sum to nothing positive) is drawn uniformly.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightedNeighborhood;

impl NeighborhoodSampler for WeightedNeighborhood {
    const DRAWS_BY_WEIGHT: bool = true;

    fn sample_one<R: Rng>(
        &self,
        target: VertexId,
        nbrs: &[Neighbor],
        count: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        let weights: Vec<f32> = nbrs.iter().map(|n| n.weight).collect();
        match AliasTable::new(&weights) {
            Some(table) => self.sample_row(target, nbrs, Some(table.as_slice()), count, rng),
            None => UniformNeighborhood.sample_one(target, nbrs, count, rng),
        }
    }

    #[inline]
    fn sample_row<R: Rng>(
        &self,
        target: VertexId,
        nbrs: &[Neighbor],
        alias: Option<AliasSlice<'_>>,
        count: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        let Some(table) = alias else {
            return self.sample_one(target, nbrs, count, rng);
        };
        debug_assert_eq!(table.probs().len(), nbrs.len(), "a table over another row");
        (0..count).map(|_| nbrs[table.sample(rng)].vertex).collect()
    }
}

/// Deterministic top-k by edge weight (the "important neighbors" variant
/// AHEP uses when variance must be zero).
#[derive(Debug, Clone, Copy, Default)]
pub struct TopKNeighborhood;

impl NeighborhoodSampler for TopKNeighborhood {
    fn sample_one<R: Rng>(
        &self,
        _target: VertexId,
        nbrs: &[Neighbor],
        count: usize,
        _rng: &mut R,
    ) -> Vec<VertexId> {
        let mut sorted: Vec<&Neighbor> = nbrs.iter().collect();
        sorted.sort_by(|a, b| {
            b.weight
                .partial_cmp(&a.weight)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.vertex.cmp(&b.vertex))
        });
        sorted.into_iter().take(count).map(|n| n.vertex).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_graph::ids::well_known::*;
    use aligraph_graph::{AttrVector, GraphBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn star() -> (AttributedHeterogeneousGraph, VertexId) {
        let mut b = GraphBuilder::directed();
        let hub = b.add_vertex(USER, AttrVector::empty());
        for i in 0..10 {
            let leaf = b.add_vertex(ITEM, AttrVector::empty());
            b.add_edge(hub, leaf, CLICK, 1.0 + i as f32).unwrap();
        }
        (b.build(), hub)
    }

    #[test]
    fn uniform_samples_fixed_fanout() {
        let (g, hub) = star();
        let mut rng = StdRng::seed_from_u64(1);
        let ctx = UniformNeighborhood.sample_context(&g, &[hub], None, &[5, 3], &mut rng);
        assert_eq!(ctx.layers.len(), 2);
        assert_eq!(ctx.layers[0].neighbors[0].len(), 5);
        // Hop 2 expands each of the 5 sampled leaves (leaves have no
        // out-edges, so their samples are empty).
        assert_eq!(ctx.layers[1].targets.len(), 5);
        assert!(ctx.layers[1].neighbors.iter().all(Vec::is_empty));
        assert_eq!(ctx.context_size(), 5);
    }

    #[test]
    fn isolated_vertex_empty_context() {
        let mut b = GraphBuilder::directed();
        let v = b.add_vertex(USER, AttrVector::empty());
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(2);
        let ctx = UniformNeighborhood.sample_context(&g, &[v], None, &[4, 4], &mut rng);
        assert_eq!(ctx.context_size(), 0);
        // Expansion stops early once the frontier is empty.
        assert_eq!(ctx.layers.len(), 1);
    }

    #[test]
    fn edge_type_filter() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let seeds: Vec<VertexId> = g.vertices_of_type(USER)[..8].to_vec();
        let ctx = UniformNeighborhood.sample_context(&g, &seeds, Some(BUY), &[4], &mut rng);
        for (i, t) in ctx.layers[0].targets.iter().enumerate() {
            let allowed: Vec<VertexId> =
                g.out_neighbors_typed(*t, BUY).iter().map(|n| n.vertex).collect();
            for v in &ctx.layers[0].neighbors[i] {
                assert!(allowed.contains(v));
            }
        }
    }

    #[test]
    fn weighted_prefers_heavy_edges() {
        let (g, hub) = star();
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..2_000 {
            for v in WeightedNeighborhood.sample_one(hub, g.out_neighbors(hub), 1, &mut rng) {
                *counts.entry(v).or_insert(0usize) += 1;
            }
        }
        // Heaviest edge (weight 10) drawn ~10x the lightest (weight 1).
        let heavy = counts.get(&VertexId(10)).copied().unwrap_or(0);
        let light = counts.get(&VertexId(1)).copied().unwrap_or(0);
        assert!(heavy > 4 * light.max(1), "heavy {heavy} light {light}");
    }

    /// The per-call `f32` inverse-CDF scan the alias draw replaced: the
    /// oracle whose distribution the alias draws are checked against.
    fn scan_draw(nbrs: &[Neighbor], rng: &mut StdRng) -> usize {
        let total: f32 = nbrs.iter().map(|n| n.weight).sum();
        let mut x = rng.gen::<f32>() * total;
        for (i, n) in nbrs.iter().enumerate() {
            if x < n.weight {
                return i;
            }
            x -= n.weight;
        }
        nbrs.len() - 1
    }

    /// Pearson's statistic of `counts` against `weights`' proportions.
    fn chi_square(counts: &[u64], weights: &[f32]) -> f64 {
        let draws = counts.iter().sum::<u64>() as f64;
        let total: f64 = weights.iter().map(|&w| f64::from(w)).sum();
        let cell = |(&c, &w): (&u64, &f32)| {
            let expected = draws * f64::from(w) / total;
            (c as f64 - expected).powi(2) / expected
        };
        counts.iter().zip(weights).map(cell).sum()
    }

    /// The upper 0.1 % point of chi-square with `df` degrees of freedom
    /// (Wilson–Hilferty).
    fn chi_square_bound(df: usize) -> f64 {
        let d = df as f64;
        d * (1.0 - 2.0 / (9.0 * d) + 3.09 * (2.0 / (9.0 * d)).sqrt()).powi(3)
    }

    /// A hub whose 256 out-edges weigh 1 to 10 and a vertex with one edge.
    fn hub_and_single() -> (AttributedHeterogeneousGraph, VertexId, VertexId) {
        let mut b = GraphBuilder::directed();
        let hub = b.add_vertex(USER, AttrVector::empty());
        let single = b.add_vertex(USER, AttrVector::empty());
        for i in 0..256 {
            let leaf = b.add_vertex(ITEM, AttrVector::empty());
            b.add_edge(hub, leaf, CLICK, 1.0 + (i * 7 % 10) as f32).unwrap();
        }
        b.add_edge(single, hub, CLICK, 2.5).unwrap();
        (b.build(), hub, single)
    }

    #[test]
    fn alias_draws_match_the_weights_on_a_hub_and_a_one_edge_row() {
        let (g, hub, single) = hub_and_single();
        let columns = crate::AliasColumns::build(&g);
        for (v, seed) in [(hub, 11), (single, 12)] {
            let row = g.out_neighbors(v);
            let weights: Vec<f32> = row.iter().map(|n| n.weight).collect();
            let table = columns.row(g.out_edge_ids(v));
            let draws = 200_000;
            let (mut a, mut s, mut u) = (
                StdRng::seed_from_u64(seed),
                StdRng::seed_from_u64(seed),
                StdRng::seed_from_u64(seed),
            );
            let drawn = WeightedNeighborhood.sample_row(v, row, table, draws, &mut a);
            let (mut alias, mut scan, mut uniform) =
                (vec![0u64; row.len()], vec![0u64; row.len()], vec![0u64; row.len()]);
            for u in &drawn {
                alias[row.iter().position(|n| n.vertex == *u).unwrap()] += 1;
            }
            for _ in 0..draws {
                scan[scan_draw(row, &mut s)] += 1;
                uniform[u.gen_range(0..row.len())] += 1;
            }
            if row.len() == 1 {
                assert_eq!((alias[0], scan[0]), (draws as u64, draws as u64));
                continue;
            }
            let bound = chi_square_bound(row.len() - 1);
            let (x_alias, x_scan) = (chi_square(&alias, &weights), chi_square(&scan, &weights));
            assert!(x_alias < bound, "alias chi-square {x_alias:.1} past {bound:.1}");
            assert!(x_scan < bound, "scan oracle chi-square {x_scan:.1} past {bound:.1}");
            // The gate can tell: uniform draws over the same hub fail it.
            let x_uniform = chi_square(&uniform, &weights);
            assert!(x_uniform > 10.0 * bound, "uniform chi-square {x_uniform:.1}");
        }
    }

    #[test]
    fn a_draw_through_the_columns_is_the_draw_through_a_per_call_table() {
        for g in [crate::alias::tests::awkward_graph(), TaobaoConfig::tiny().generate().unwrap()] {
            let columns = crate::AliasColumns::build(&g);
            let (mut a, mut b) = (StdRng::seed_from_u64(21), StdRng::seed_from_u64(21));
            for v in g.vertices() {
                let row = g.out_neighbors(v);
                let stored = WeightedNeighborhood.sample_row(
                    v,
                    row,
                    columns.row(g.out_edge_ids(v)),
                    7,
                    &mut a,
                );
                let per_call = WeightedNeighborhood.sample_one(v, row, 7, &mut b);
                assert_eq!(stored, per_call, "vertex {}", v.0);
            }
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "the streams are still in step");
        }
    }

    #[test]
    fn topk_is_deterministic_by_weight() {
        let (g, hub) = star();
        let mut rng = StdRng::seed_from_u64(5);
        let a = TopKNeighborhood.sample_one(hub, g.out_neighbors(hub), 3, &mut rng);
        let b = TopKNeighborhood.sample_one(hub, g.out_neighbors(hub), 3, &mut rng);
        assert_eq!(a, b);
        // Highest weights are the last-added leaves (weights 10, 9, 8).
        assert_eq!(a, vec![VertexId(10), VertexId(9), VertexId(8)]);
    }

    #[test]
    fn all_vertices_dedups() {
        let (g, hub) = star();
        let mut rng = StdRng::seed_from_u64(6);
        let ctx = UniformNeighborhood.sample_context(&g, &[hub, hub], None, &[8], &mut rng);
        let all = ctx.all_vertices();
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(all.len(), set.len());
        assert!(all.contains(&hub));
    }

    #[test]
    fn cluster_view_accounts_accesses() {
        use aligraph_partition::EdgeCutHash;
        use aligraph_storage::{CacheStrategy, CostModel};
        use std::sync::Arc;
        let g = Arc::new(TaobaoConfig::tiny().generate().unwrap());
        let (cluster, _) = Cluster::builder(g)
            .partitioner(&EdgeCutHash)
            .shards(4)
            .cache(CacheStrategy::None)
            .max_hop(2)
            .cost_model(CostModel::default())
            .build();
        let view = ClusterView { cluster: &cluster, from: WorkerId(0) };
        let seeds: Vec<VertexId> = cluster.graph().vertices().take(16).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let _ctx = UniformNeighborhood.sample_context(&view, &seeds, None, &[4, 2], &mut rng);
        let snap = cluster.stats().snapshot();
        assert!(snap.total() >= 16, "all seed reads accounted: {snap:?}");
        assert!(snap.remote > 0, "4 workers: some seeds are remote");
    }
}
