//! Seeded synthetic graph generators.
//!
//! These stand in for the proprietary datasets of the paper's evaluation
//! (Tables 3 and 6): the Taobao user–item AHGs and the Amazon electronics
//! product graph. The generators preserve the properties the experiments
//! depend on — power-law degree distributions (Theorems 1–2), the exact
//! vertex/edge/attribute *type* structure, and attribute redundancy — while
//! scale is a parameter. See `DESIGN.md` §1 for the substitution table.

use crate::attr::{AttrValue, AttrVector};
use crate::dynamic::{DynamicGraph, EdgeEvent, EvolutionKind, SnapshotDelta};
use crate::error::GraphError;
use crate::graph::{AttributedHeterogeneousGraph, GraphBuilder};
use crate::ids::{well_known, EdgeType, VertexId, VertexType};
use crate::Result;
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Directed Barabási–Albert-style preferential-attachment graph.
///
/// Each new vertex draws `m_attach` out-edges whose targets are chosen
/// proportionally to current in-degree (+1 smoothing), which yields the
/// power-law in-degree distribution the paper's caching analysis assumes.
pub fn barabasi_albert(
    n: usize,
    m_attach: usize,
    seed: u64,
) -> Result<AttributedHeterogeneousGraph> {
    if n < 2 || m_attach == 0 {
        return Err(GraphError::InvalidConfig(format!(
            "barabasi_albert needs n >= 2 and m_attach >= 1 (got n={n}, m_attach={m_attach})"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::directed().with_capacity(n, n * m_attach);
    b.add_vertices(VertexType(0), n);
    // `targets` is the repeated-endpoint pool: choosing uniformly from it is
    // choosing proportionally to (in-degree + 1).
    let mut targets: Vec<VertexId> = vec![VertexId(0)];
    for v in 1..n as u32 {
        let v = VertexId(v);
        let picks = m_attach.min(v.index());
        let mut chosen = Vec::with_capacity(picks);
        while chosen.len() < picks {
            let t = targets[rng.gen_range(0..targets.len())];
            if t != v && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for t in &chosen {
            b.add_edge(v, *t, EdgeType(0), 1.0)?;
            targets.push(*t);
        }
        targets.push(v);
    }
    Ok(b.build())
}

/// Directed Erdős–Rényi graph with exactly `m` edges (self-loops excluded).
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Result<AttributedHeterogeneousGraph> {
    if n < 2 {
        return Err(GraphError::InvalidConfig(format!("erdos_renyi needs n >= 2 (got {n})")));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::directed().with_capacity(n, m);
    b.add_vertices(VertexType(0), n);
    for _ in 0..m {
        let src = VertexId(rng.gen_range(0..n as u32));
        let mut dst = VertexId(rng.gen_range(0..n as u32));
        while dst == src {
            dst = VertexId(rng.gen_range(0..n as u32));
        }
        b.add_edge(src, dst, EdgeType(0), 1.0)?;
    }
    Ok(b.build())
}

/// Configuration of the synthetic Taobao-style e-commerce AHG.
///
/// Two vertex types (user, item), four user→item edge types (click, collect,
/// cart, buy) plus item–item co-click edges, 27 user / 32 item attribute
/// fields — the shape of Table 3 — with a linear scale knob.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaobaoConfig {
    /// Number of user vertices.
    pub users: usize,
    /// Number of item vertices.
    pub items: usize,
    /// Number of user→item behavior edges.
    pub ui_edges: usize,
    /// Number of item–item co-occurrence edges.
    pub ii_edges: usize,
    /// Attribute fields per user (paper: 27).
    pub user_attr_fields: usize,
    /// Attribute fields per item (paper: 32).
    pub item_attr_fields: usize,
    /// Number of distinct attribute profiles per vertex type. Small vocab =>
    /// heavy interning dedup, matching production redundancy.
    pub attr_profiles: usize,
    /// Probability that a user→item behavior edge also gets a reverse
    /// item→user edge (exposure / click-through relations — production
    /// graphs store both directions as separate relation tables). 0 keeps
    /// the graph purely user→item.
    pub reverse_ui_prob: f64,
    /// Number of latent interest clusters: each user prefers items of one
    /// cluster (with probability [`INTEREST_AFFINITY`]) — the co-preference
    /// structure that makes held-out behavior edges predictable beyond raw
    /// popularity, as in real behavior graphs. 0 disables clustering.
    pub interest_clusters: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Probability that a clustered user's behavior edge lands in their own
/// interest cluster.
pub const INTEREST_AFFINITY: f64 = 0.7;

impl TaobaoConfig {
    /// Taobao-small at a ~1000× linear downscale of Table 3
    /// (147.97M users / 9.02M items / 442M u-i / 224M i-i edges).
    pub fn small_sim() -> Self {
        TaobaoConfig {
            users: 147_970,
            items: 9_018,
            ui_edges: 442_068,
            ii_edges: 224_129,
            user_attr_fields: 27,
            item_attr_fields: 32,
            attr_profiles: 512,
            reverse_ui_prob: 0.0,
            interest_clusters: 12,
            seed: 0x5eed_a11b_aba1,
        }
    }

    /// Taobao-large: six times the storage footprint of small, as in the paper.
    pub fn large_sim() -> Self {
        TaobaoConfig {
            users: 483_215,
            items: 9_683,
            ui_edges: 2_400_000,
            ii_edges: 231_085,
            ..Self::small_sim()
        }
    }

    /// A miniature instance for unit tests and doc examples.
    pub fn tiny() -> Self {
        TaobaoConfig {
            users: 200,
            items: 50,
            ui_edges: 1_000,
            ii_edges: 200,
            user_attr_fields: 4,
            item_attr_fields: 5,
            attr_profiles: 16,
            reverse_ui_prob: 0.0,
            interest_clusters: 4,
            seed: 7,
        }
    }

    /// Scales vertex and edge counts by `f` (attribute shape unchanged).
    pub fn scaled(mut self, f: f64) -> Self {
        self.users = ((self.users as f64 * f) as usize).max(2);
        self.items = ((self.items as f64 * f) as usize).max(2);
        self.ui_edges = ((self.ui_edges as f64 * f) as usize).max(1);
        self.ii_edges = (self.ii_edges as f64 * f) as usize;
        self
    }

    /// Generates the AHG. Item popularity is power-law (Zipf-like rank
    /// weights) so the importance distribution matches Theorem 2's regime;
    /// user activity is mildly skewed.
    pub fn generate(&self) -> Result<AttributedHeterogeneousGraph> {
        self.builder().map(GraphBuilder::build)
    }

    /// The generated vertices and edges, not yet built.
    pub(crate) fn builder(&self) -> Result<GraphBuilder> {
        if self.users == 0 || self.items == 0 {
            return Err(GraphError::InvalidConfig("users and items must be > 0".into()));
        }
        if self.attr_profiles == 0 {
            return Err(GraphError::InvalidConfig("attr_profiles must be > 0".into()));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = GraphBuilder::directed()
            .with_capacity(self.users + self.items, self.ui_edges + self.ii_edges);

        // Pre-build a small vocabulary of attribute profiles per vertex type.
        let user_profiles: Vec<AttrVector> = (0..self.attr_profiles)
            .map(|p| user_profile(p as u32, self.user_attr_fields))
            .collect();
        let item_profiles: Vec<AttrVector> = (0..self.attr_profiles)
            .map(|p| item_profile(p as u32, self.item_attr_fields))
            .collect();

        for _ in 0..self.users {
            let profile = &user_profiles[rng.gen_range(0..user_profiles.len())];
            b.add_vertex(well_known::USER, profile.clone());
        }
        let item_base = self.users as u32;
        for _ in 0..self.items {
            let profile = &item_profiles[rng.gen_range(0..item_profiles.len())];
            b.add_vertex(well_known::ITEM, profile.clone());
        }

        // Zipf-like item popularity: item at rank r has weight 1/(r+1)^0.8.
        let item_sampler = ZipfSampler::new(self.items, 0.8);
        // Interest clusters: user u prefers items with i % k == u % k.
        let k = self.interest_clusters;
        // User activity: mild skew via squared uniform.
        let behavior = [
            (well_known::CLICK, 0.60f64),
            (well_known::COLLECT, 0.15),
            (well_known::CART, 0.15),
            (well_known::BUY, 0.10),
        ];
        for _ in 0..self.ui_edges {
            let u = skewed_index(&mut rng, self.users);
            let mut i = item_sampler.sample(&mut rng);
            if k > 1 && rng.gen::<f64>() < INTEREST_AFFINITY {
                // Redraw (bounded) until the item falls in u's cluster —
                // preserves the Zipf popularity profile within the cluster.
                for _ in 0..8 {
                    if i % k == u % k {
                        break;
                    }
                    i = item_sampler.sample(&mut rng);
                }
            }
            let etype = pick_weighted(&mut rng, &behavior);
            let weight = 1.0 + rng.gen::<f32>();
            let (user, item) = (VertexId(u as u32), VertexId(item_base + i as u32));
            b.add_edge(user, item, etype, weight)?;
            // Guarded so prob = 0 draws nothing and leaves the RNG stream
            // (and therefore every seeded graph) unchanged.
            if self.reverse_ui_prob > 0.0 && rng.gen::<f64>() < self.reverse_ui_prob {
                b.add_edge(item, user, etype, weight)?;
            }
        }
        // Item–item co-click edges between popular items, biased toward the
        // same interest cluster (co-occurrence is cluster-driven).
        for _ in 0..self.ii_edges {
            let a = item_sampler.sample(&mut rng);
            let mut c = item_sampler.sample(&mut rng);
            if self.items > 1 {
                let want_same = k > 1 && rng.gen::<f64>() < INTEREST_AFFINITY;
                for _ in 0..8 {
                    if c != a && (!want_same || c % k == a % k) {
                        break;
                    }
                    c = item_sampler.sample(&mut rng);
                }
                while c == a {
                    c = item_sampler.sample(&mut rng);
                }
            }
            b.add_edge(
                VertexId(item_base + a as u32),
                VertexId(item_base + c as u32),
                well_known::CLICK,
                1.0,
            )?;
        }
        Ok(b)
    }
}

/// Synthetic Amazon electronics product graph at the exact scale of Table 6:
/// 10,166 vertices, 148,865 edges, one vertex type, two edge types
/// (co-view / co-buy). Topology is preferential-attachment (product
/// co-occurrence graphs are heavy-tailed); ~70% of edges are co-view.
pub fn amazon_sim(seed: u64) -> Result<AttributedHeterogeneousGraph> {
    amazon_sim_scaled(10_166, 148_865, seed)
}

/// The Amazon-style generator with explicit scale (used by quick tests).
pub fn amazon_sim_scaled(n: usize, m: usize, seed: u64) -> Result<AttributedHeterogeneousGraph> {
    amazon_builder(n, m, seed).map(GraphBuilder::build)
}

/// [`amazon_sim_scaled`]'s vertices and edges, not yet built.
pub(crate) fn amazon_builder(n: usize, m: usize, seed: u64) -> Result<GraphBuilder> {
    if n < 2 {
        return Err(GraphError::InvalidConfig("amazon_sim needs n >= 2".into()));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::undirected().with_capacity(n, m);
    for p in 0..n {
        b.add_vertex(
            VertexType(0),
            AttrVector(vec![
                AttrValue::Float(5.0 + (p % 97) as f32 * 10.0), // price band
                AttrValue::Categorical((p % 53) as u32),        // brand
                AttrValue::Categorical((p % 17) as u32),        // sub-category
            ]),
        );
    }
    let sampler = ZipfSampler::new(n, 0.9);
    for _ in 0..m {
        let a = sampler.sample(&mut rng);
        let mut c = sampler.sample(&mut rng);
        // Co-occurrence is category-driven: 70% of pairs share the product's
        // sub-category (id % 17, mirroring the generated attribute), which
        // is what makes co-view/co-buy links predictable beyond popularity.
        let want_same = rng.gen::<f64>() < 0.7;
        for _ in 0..8 {
            if c != a && (!want_same || c % 17 == a % 17) {
                break;
            }
            c = sampler.sample(&mut rng);
        }
        while c == a {
            c = sampler.sample(&mut rng);
        }
        let etype = if rng.gen::<f64>() < 0.7 { well_known::CO_VIEW } else { well_known::CO_BUY };
        b.add_edge(VertexId(a as u32), VertexId(c as u32), etype, 1.0)?;
    }
    Ok(b)
}

/// Configuration for dynamic graph sequences `G(1..T)` with normal evolution
/// and rare burst links (paper §4.2, Evolving GNN).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicConfig {
    /// Vertices in every snapshot (the vertex set is fixed; edges evolve).
    pub vertices: usize,
    /// Edges in the initial snapshot.
    pub initial_edges: usize,
    /// Number of snapshots `T`.
    pub timestamps: usize,
    /// Normal-evolution edges added per step (preferential attachment).
    pub normal_per_step: usize,
    /// Edges removed per step.
    pub removed_per_step: usize,
    /// Burst edges added on burst steps (all incident to one random vertex —
    /// the "rare and abnormal" pattern).
    pub burst_size: usize,
    /// A burst happens every `burst_every` steps (0 = never).
    pub burst_every: usize,
    /// Number of edge types cycled through.
    pub edge_types: u8,
    /// RNG seed.
    pub seed: u64,
}

impl DynamicConfig {
    /// Small default suitable for tests and the Table 11 experiment.
    pub fn small(seed: u64) -> Self {
        DynamicConfig {
            vertices: 2_000,
            initial_edges: 8_000,
            timestamps: 6,
            normal_per_step: 800,
            removed_per_step: 300,
            burst_size: 400,
            burst_every: 2,
            edge_types: 3,
            seed,
        }
    }

    /// Generates the snapshot series plus per-step deltas with evolution
    /// labels (normal vs. burst).
    pub fn generate(&self) -> Result<DynamicGraph> {
        if self.vertices < 2 || self.timestamps == 0 {
            return Err(GraphError::InvalidConfig(
                "dynamic graph needs >= 2 vertices and >= 1 timestamp".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = self.vertices;
        let k = self.edge_types.max(1) as u32;
        // Live edge list: (src, dst, etype, weight).
        let mut edges: Vec<(VertexId, VertexId, EdgeType, f32)> = Vec::new();
        let mut degree_pool: Vec<u32> = (0..n as u32).collect(); // uniform warm start

        // Latent communities drive both topology and edge semantics: the
        // edge type is the destination's community (what "kind" of vertex
        // is being linked to), and normal evolution prefers same-community
        // targets — so edge types are *learnable* from structure, as in
        // real behavior streams, rather than random labels.
        let community = |v: VertexId| v.0 % k;
        let add_pref_edge = |edges: &mut Vec<(VertexId, VertexId, EdgeType, f32)>,
                             degree_pool: &mut Vec<u32>,
                             rng: &mut StdRng| {
            let src = VertexId(rng.gen_range(0..n as u32));
            let mut dst = VertexId(degree_pool[rng.gen_range(0..degree_pool.len())]);
            // Homophily: retry toward the source's community.
            for _ in 0..4 {
                if dst != src && (community(dst) == community(src) || rng.gen::<f64>() < 0.3) {
                    break;
                }
                dst = VertexId(degree_pool[rng.gen_range(0..degree_pool.len())]);
            }
            while dst == src {
                dst = VertexId(rng.gen_range(0..n as u32));
            }
            let etype = EdgeType(community(dst) as u8);
            edges.push((src, dst, etype, 1.0));
            degree_pool.push(dst.0);
            (src, dst, etype)
        };

        for _ in 0..self.initial_edges {
            add_pref_edge(&mut edges, &mut degree_pool, &mut rng);
        }

        let mut snapshots = Vec::with_capacity(self.timestamps);
        let mut deltas: Vec<SnapshotDelta> = Vec::with_capacity(self.timestamps);
        snapshots.push(build_snapshot(n, &edges));
        deltas.push(SnapshotDelta::default()); // t=0 has no delta

        for t in 1..self.timestamps {
            let mut delta = SnapshotDelta::default();
            // Removals.
            for _ in 0..self.removed_per_step.min(edges.len().saturating_sub(1)) {
                let idx = rng.gen_range(0..edges.len());
                let (src, dst, etype, _) = edges.swap_remove(idx);
                delta.removed.push(EdgeEvent { src, dst, etype, kind: EvolutionKind::Normal });
            }
            // Normal additions.
            for _ in 0..self.normal_per_step {
                let (src, dst, etype) = add_pref_edge(&mut edges, &mut degree_pool, &mut rng);
                delta.added.push(EdgeEvent { src, dst, etype, kind: EvolutionKind::Normal });
            }
            // Burst: one vertex suddenly gains many edges.
            if self.burst_every > 0 && t % self.burst_every == 0 && self.burst_size > 0 {
                let hot = VertexId(rng.gen_range(0..n as u32));
                for _ in 0..self.burst_size {
                    let mut other = VertexId(rng.gen_range(0..n as u32));
                    while other == hot {
                        other = VertexId(rng.gen_range(0..n as u32));
                    }
                    // Burst edges ignore homophily (abnormal structure) but
                    // keep the community-typed semantics.
                    let etype = EdgeType(community(other) as u8);
                    edges.push((hot, other, etype, 1.0));
                    delta.added.push(EdgeEvent {
                        src: hot,
                        dst: other,
                        etype,
                        kind: EvolutionKind::Burst,
                    });
                }
            }
            snapshots.push(build_snapshot(n, &edges));
            deltas.push(delta);
        }
        DynamicGraph::new(snapshots, deltas)
    }
}

fn build_snapshot(
    n: usize,
    edges: &[(VertexId, VertexId, EdgeType, f32)],
) -> AttributedHeterogeneousGraph {
    let mut b = GraphBuilder::directed().with_capacity(n, edges.len());
    b.add_vertices(VertexType(0), n);
    for &(src, dst, etype, w) in edges {
        #[expect(
            clippy::expect_used,
            reason = "the generator emits src/dst below n and etype below the declared count"
        )]
        b.add_edge(src, dst, etype, w).expect("generator edges are always in range");
    }
    b.build()
}

/// Samples indices `0..n` with probability proportional to `1/(rank+1)^s`
/// via inverse-CDF over precomputed cumulative weights.
struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cumulative.push(acc);
        }
        ZipfSampler { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "cumulative has one entry per vertex and the generator asserts n > 0"
        )]
        let total = *self.cumulative.last().expect("n > 0");
        let x = rng.gen::<f64>() * total;
        self.cumulative.partition_point(|&c| c < x).min(self.cumulative.len() - 1)
    }
}

/// Mildly skewed index in `0..n` (quadratic transform of a uniform draw).
fn skewed_index(rng: &mut StdRng, n: usize) -> usize {
    let u: f64 = rng.gen();
    ((u * u) * n as f64) as usize % n
}

#[expect(clippy::expect_used, reason = "callers pass a table built from at least one weight")]
fn pick_weighted(rng: &mut StdRng, table: &[(EdgeType, f64)]) -> EdgeType {
    let total: f64 = table.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen::<f64>() * total;
    for &(t, w) in table {
        if x < w {
            return t;
        }
        x -= w;
    }
    table.last().expect("non-empty table").0
}

fn user_profile(p: u32, fields: usize) -> AttrVector {
    let mut vals = Vec::with_capacity(fields);
    for f in 0..fields as u32 {
        vals.push(match f % 3 {
            0 => AttrValue::Categorical((p * 31 + f) % 8), // gender/location-style codes
            1 => AttrValue::Int(((p * 7 + f) % 60) as i64 + 18), // age-style
            _ => AttrValue::Float(((p * 13 + f) % 100) as f32 / 10.0),
        });
    }
    AttrVector(vals)
}

fn item_profile(p: u32, fields: usize) -> AttrVector {
    let mut vals = Vec::with_capacity(fields);
    for f in 0..fields as u32 {
        vals.push(match f % 3 {
            0 => AttrValue::Float(((p * 17 + f) % 1000) as f32 + 1.0), // price-style
            1 => AttrValue::Categorical((p * 5 + f) % 64),             // brand-style
            _ => AttrValue::Int(((p * 3 + f) % 50) as i64),
        });
    }
    AttrVector(vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::well_known::*;

    #[test]
    fn ba_shape_and_determinism() {
        let g1 = barabasi_albert(500, 3, 42).unwrap();
        let g2 = barabasi_albert(500, 3, 42).unwrap();
        assert_eq!(g1.num_vertices(), 500);
        assert_eq!(g1.num_edges(), g2.num_edges());
        // Same seed => identical adjacency.
        for v in g1.vertices() {
            assert_eq!(g1.out_neighbors(v), g2.out_neighbors(v));
        }
        // Heavy tail: max in-degree far above the mean.
        let max_in = g1.vertices().map(|v| g1.in_degree(v)).max().unwrap();
        let mean_in = g1.num_edge_records() as f64 / g1.num_vertices() as f64;
        assert!(max_in as f64 > 5.0 * mean_in, "max {max_in} mean {mean_in}");
    }

    #[test]
    fn ba_rejects_bad_config() {
        assert!(barabasi_albert(1, 2, 0).is_err());
        assert!(barabasi_albert(10, 0, 0).is_err());
    }

    #[test]
    fn erdos_renyi_edge_count() {
        let g = erdos_renyi(100, 300, 1).unwrap();
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 300);
    }

    #[test]
    fn taobao_tiny_structure() {
        let cfg = TaobaoConfig::tiny();
        let g = cfg.generate().unwrap();
        assert_eq!(g.num_vertices(), cfg.users + cfg.items);
        assert_eq!(g.num_edges(), cfg.ui_edges + cfg.ii_edges);
        assert_eq!(g.num_vertex_types(), 2);
        assert_eq!(g.vertices_of_type(USER).len(), cfg.users);
        assert_eq!(g.vertices_of_type(ITEM).len(), cfg.items);
        // All four behavior types appear at this edge count.
        for t in [CLICK, COLLECT, CART, BUY] {
            assert!(!g.edges_of_type(t).is_empty(), "missing edge type {}", t.0);
        }
        // u->i edges go user to item.
        for e in g.edges_of_type(BUY).iter() {
            let rec = g.edge(e);
            assert_eq!(g.vertex_type(rec.src), USER);
            assert_eq!(g.vertex_type(rec.dst), ITEM);
        }
    }

    #[test]
    fn taobao_attrs_are_interned() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        // 250 vertices share at most `attr_profiles`-many distinct profiles
        // per type (plus the empty sentinel).
        assert!(g.vertex_attr_index().len() <= 2 * TaobaoConfig::tiny().attr_profiles + 1);
        assert_eq!(g.vertex_attrs(VertexId(0)).len(), TaobaoConfig::tiny().user_attr_fields);
    }

    #[test]
    fn taobao_scaled() {
        let cfg = TaobaoConfig::tiny().scaled(2.0);
        assert_eq!(cfg.users, 400);
        let g = cfg.generate().unwrap();
        assert_eq!(g.num_vertices(), 500);
    }

    #[test]
    fn taobao_determinism() {
        let a = TaobaoConfig::tiny().generate().unwrap();
        let b = TaobaoConfig::tiny().generate().unwrap();
        assert_eq!(a.num_edge_records(), b.num_edge_records());
        for v in a.vertices() {
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
        }
    }

    #[test]
    fn amazon_scaled_shape() {
        let g = amazon_sim_scaled(500, 3_000, 9).unwrap();
        assert_eq!(g.num_vertices(), 500);
        assert_eq!(g.num_edges(), 3_000);
        assert_eq!(g.num_vertex_types(), 1);
        assert_eq!(g.num_edge_types(), 2);
        assert!(!g.edges_of_type(CO_VIEW).is_empty());
        assert!(!g.edges_of_type(CO_BUY).is_empty());
    }

    #[test]
    fn dynamic_generation() {
        let cfg = DynamicConfig {
            vertices: 100,
            initial_edges: 300,
            timestamps: 4,
            normal_per_step: 50,
            removed_per_step: 20,
            burst_size: 30,
            burst_every: 2,
            edge_types: 2,
            seed: 5,
        };
        let d = cfg.generate().unwrap();
        assert_eq!(d.num_snapshots(), 4);
        // Burst steps carry burst-labelled events.
        let burst_events: usize = d
            .deltas()
            .iter()
            .map(|dl| dl.added.iter().filter(|e| e.kind == EvolutionKind::Burst).count())
            .sum();
        assert_eq!(burst_events, 30); // only t=2 bursts within 4 steps (t=1..3)
                                      // Edge counts evolve: +50 -20 per step, +30 on burst.
        assert_eq!(d.snapshot(0).unwrap().num_edges(), 300);
        assert_eq!(d.snapshot(1).unwrap().num_edges(), 330);
        assert_eq!(d.snapshot(2).unwrap().num_edges(), 390);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let s = ZipfSampler::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut head = 0;
        let draws = 10_000;
        for _ in 0..draws {
            if s.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Top 10% of ranks should receive well over half the mass at s=1.
        assert!(head as f64 / draws as f64 > 0.5);
    }
}
