//! Hierarchical GNN (paper §4.2): layer-to-layer coarsening in the DiffPool
//! family.
//!
//! At every level `l` the model (i) learns vertex embeddings `Z^(l)` with a
//! link-contrastive (SGNS) objective over that level's edges followed by one
//! propagation pass `Â Z` (the single-layer GNN of the level), (ii) computes
//! a soft assignment `S^(l) = softmax(Z^(l) W_s^(l))` onto `c_l` clusters
//! (the pooling GNN's softmax head), and (iii) coarsens:
//! `A^(l+1) = S^(l)ᵀ A^(l) S^(l)`. The final vertex representation concatenates
//! the scales: `[Z^(0)_v ; (S^(0) Z^(1))_v ; (S^(0) S^(1) Z^(2))_v ; ...]` —
//! the "hierarchical representations" a flat GNN cannot express.

use crate::trainer::EmbeddingModel;
use aligraph_graph::{AttributedHeterogeneousGraph, VertexId};
use aligraph_tensor::activations::softmax_rows;
use aligraph_tensor::init::{seeded_rng, xavier_uniform};
use aligraph_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hierarchical GNN hyper-parameters.
#[derive(Debug, Clone)]
pub struct HierarchicalConfig {
    /// Hashed input feature dimension.
    pub feature_dim: usize,
    /// Embedding dimension per level.
    pub dim: usize,
    /// Number of coarsening levels (1 = flat GNN).
    pub levels: usize,
    /// Cluster count at the first coarse level (halved per further level).
    pub clusters: usize,
    /// Contrastive pairs per training epoch at each level.
    pub pairs_per_epoch: usize,
    /// Epochs per level.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl HierarchicalConfig {
    /// A small, fast configuration.
    pub fn quick() -> Self {
        HierarchicalConfig {
            feature_dim: 16,
            dim: 16,
            levels: 2,
            clusters: 16,
            pairs_per_epoch: 400,
            epochs: 4,
            lr: 0.05,
            seed: 61,
        }
    }
}

/// A sparse symmetric-normalized adjacency at one level.
struct LevelGraph {
    /// `adj[i]` = (neighbor, normalized weight).
    adj: Vec<Vec<(usize, f32)>>,
}

impl LevelGraph {
    fn from_graph(graph: &AttributedHeterogeneousGraph) -> Self {
        let n = graph.num_vertices();
        let mut adj: Vec<Vec<(usize, f32)>> = vec![Vec::new(); n];
        for v in graph.vertices() {
            for nb in graph.out_neighbors(v) {
                adj[v.index()].push((nb.vertex.index(), nb.weight));
                adj[nb.vertex.index()].push((v.index(), nb.weight));
            }
        }
        Self::normalize(adj)
    }

    fn from_dense(a: &Matrix) -> Self {
        let mut adj: Vec<Vec<(usize, f32)>> = vec![Vec::new(); a.rows];
        for (i, row) in adj.iter_mut().enumerate() {
            for j in 0..a.cols {
                let w = a.get(i, j);
                if w > 1e-6 && i != j {
                    row.push((j, w));
                }
            }
        }
        Self::normalize(adj)
    }

    fn normalize(mut adj: Vec<Vec<(usize, f32)>>) -> Self {
        for row in &mut adj {
            // Merge duplicates, add self loop, row-normalize.
            row.sort_unstable_by_key(|&(j, _)| j);
            row.dedup_by(|a, b| {
                if a.0 == b.0 {
                    b.1 += a.1;
                    true
                } else {
                    false
                }
            });
        }
        for (i, row) in adj.iter_mut().enumerate() {
            row.push((i, 1.0)); // self loop
            let total: f32 = row.iter().map(|&(_, w)| w).sum();
            for e in row.iter_mut() {
                e.1 /= total;
            }
        }
        LevelGraph { adj }
    }

    fn n(&self) -> usize {
        self.adj.len()
    }

    /// `Â X` — sparse-dense product.
    fn propagate(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.n(), x.cols);
        for (i, row) in self.adj.iter().enumerate() {
            for &(j, w) in row {
                let src = x.row(j).to_vec();
                for (o, &v) in out.row_mut(i).iter_mut().zip(&src) {
                    *o += w * v;
                }
            }
        }
        out
    }

    /// Samples a random positive edge (excluding self loops): the
    /// edge-sampled alternative to the walk corpus, which only the tests
    /// use (the pipeline uses walks).
    #[cfg(test)]
    fn sample_edge(&self, rng: &mut StdRng) -> Option<(usize, usize)> {
        for _ in 0..64 {
            let i = rng.gen_range(0..self.n());
            let row = &self.adj[i];
            if row.len() <= 1 {
                continue;
            }
            let (j, _) = row[rng.gen_range(0..row.len())];
            if j != i {
                return Some((i, j));
            }
        }
        None
    }
}

/// A trained Hierarchical GNN: per-level cluster embeddings projected back
/// to the base vertices.
#[derive(Debug)]
pub struct TrainedHierarchical {
    /// Multi-scale vertex embeddings, `n x (dim * levels)`.
    pub embeddings: Matrix,
}

impl EmbeddingModel for TrainedHierarchical {
    fn embedding(&self, v: VertexId) -> Vec<f32> {
        self.embeddings.row(v.index()).to_vec()
    }

    fn score(&self, u: VertexId, v: VertexId) -> f32 {
        aligraph_tensor::dot(self.embeddings.row(u.index()), self.embeddings.row(v.index()))
    }
}

/// Trains the hierarchical model.
pub fn train_hierarchical(
    graph: &AttributedHeterogeneousGraph,
    config: &HierarchicalConfig,
) -> TrainedHierarchical {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut init_rng = seeded_rng(config.seed ^ 0x417);

    let mut level = LevelGraph::from_graph(graph);
    // `projection` maps base vertices onto the current level's rows
    // (identity at level 0, then S^(0), S^(0)S^(1), ...).
    let mut projection: Option<Matrix> = None;
    let mut scales: Vec<Matrix> = Vec::with_capacity(config.levels);
    let mut clusters = config.clusters;

    for l in 0..config.levels {
        // ---- (i) level embedding: SGNS on the level's edges, smoothed by
        // one propagation pass (Z = Â E) — the single-layer GNN of the
        // level. ----
        let e = sgns_on_level(
            &level,
            config.dim,
            config.epochs,
            config.pairs_per_epoch,
            config.lr,
            config.seed + l as u64,
            &mut rng,
        );
        // One propagation pass (Â E): the level's single-layer GNN;
        // smoothing the SGNS embedding over the neighborhood is what lifts
        // it above the flat baseline.
        let z = level.propagate(&e);

        // Project this level's embeddings back to base vertices.
        let back = match &projection {
            None => z.clone(),
            Some(p) => p.matmul(&z),
        };
        scales.push(back);

        if l + 1 == config.levels {
            break;
        }

        // ---- (ii) soft assignment S = softmax(sharpen · Z W_s): the
        // pooling GNN's softmax head over the level embeddings. ----
        let c = clusters.max(2).min(level.n().max(2));
        let ws = xavier_uniform(z.cols, c, &mut init_rng);
        let mut s = z.matmul(&ws);
        s.scale(4.0); // sharpen
        softmax_rows(&mut s);

        // ---- (iii) coarsen: A' = SᵀAS, X' = SᵀZ. ----
        let a_s = level.propagate(&s); // Â S  (n x c)
        let a_coarse = s.transpose_matmul(&a_s); // c x c
        projection = Some(match projection {
            None => s.clone(),
            Some(p) => p.matmul(&s),
        });
        level = LevelGraph::from_dense(&a_coarse);
        clusters /= 2;
    }

    // Concatenate scales into the final embedding.
    let mut embeddings = scales[0].clone();
    for scale in &scales[1..] {
        embeddings = embeddings.hcat(scale);
    }
    embeddings.l2_normalize_rows();
    TrainedHierarchical { embeddings }
}

/// SGNS embeddings over one level: truncated random walks on the
/// (row-normalized) level graph feed a skip-gram with uniform negatives —
/// the same corpus DeepWalk would build on this level. `pairs_per_epoch`
/// bounds the number of (center, context) pairs consumed per epoch.
fn sgns_on_level(
    level: &LevelGraph,
    dim: usize,
    epochs: usize,
    pairs_per_epoch: usize,
    lr: f32,
    seed: u64,
    rng: &mut StdRng,
) -> Matrix {
    const WALK_LEN: usize = 8;
    const WINDOW: usize = 2;
    let n = level.n();
    let mut input = aligraph_tensor::EmbeddingTable::new(n, dim, seed);
    let mut output = aligraph_tensor::EmbeddingTable::zeros(n, dim);
    for _ in 0..epochs {
        let mut pairs = 0usize;
        'epoch: for start in 0..n {
            // One walk per vertex per epoch.
            let mut walk = Vec::with_capacity(WALK_LEN);
            walk.push(start);
            let mut cur = start;
            for _ in 1..WALK_LEN {
                let row = &level.adj[cur];
                if row.len() <= 1 {
                    break;
                }
                let (next, _) = row[rng.gen_range(0..row.len())];
                cur = next;
                walk.push(cur);
            }
            for (ii, &c) in walk.iter().enumerate() {
                let lo = ii.saturating_sub(WINDOW);
                let hi = (ii + WINDOW + 1).min(walk.len());
                for &ctx in walk.iter().take(hi).skip(lo) {
                    if ctx == c {
                        continue;
                    }
                    let negs: Vec<usize> = (0..3)
                        .map(|_| rng.gen_range(0..n))
                        .filter(|&x| x != c && x != ctx)
                        .collect();
                    aligraph_tensor::loss::sgns_update(&mut input, &mut output, c, ctx, &negs, lr);
                    pairs += 1;
                    if pairs >= pairs_per_epoch {
                        break 'epoch;
                    }
                }
            }
        }
    }
    // Symmetrize input/output roles so dot products are meaningful.
    let mut m = Matrix::zeros(n, dim);
    for i in 0..n {
        for (o, (&a, &b)) in m.row_mut(i).iter_mut().zip(input.row(i).iter().zip(output.row(i))) {
            *o = a + b;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::evaluate_split;
    use aligraph_eval::link_prediction_split;
    use aligraph_graph::generate::TaobaoConfig;

    #[test]
    fn embedding_dim_is_levels_times_dim() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let cfg = HierarchicalConfig::quick();
        let m = train_hierarchical(&g, &cfg);
        assert_eq!(m.embeddings.rows, g.num_vertices());
        assert_eq!(m.embeddings.cols, cfg.dim * cfg.levels);
    }

    #[test]
    fn hierarchical_learns_links() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let split = link_prediction_split(&g, 0.15, 7);
        let m = train_hierarchical(&split.train, &HierarchicalConfig::quick());
        let metrics = evaluate_split(&m, &split);
        assert!(metrics.roc_auc > 0.55, "AUC {}", metrics.roc_auc);
    }

    #[test]
    fn single_level_is_flat() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let cfg = HierarchicalConfig { levels: 1, ..HierarchicalConfig::quick() };
        let m = train_hierarchical(&g, &cfg);
        assert_eq!(m.embeddings.cols, cfg.dim);
    }

    #[test]
    fn level_graph_edge_sampling_draws_real_edges() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let level = LevelGraph::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let (i, j) = level.sample_edge(&mut rng).expect("graph has edges");
            assert_ne!(i, j);
            assert!(level.adj[i].iter().any(|&(u, _)| u == j));
        }
    }

    #[test]
    fn level_graph_propagation_row_stochastic() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let level = LevelGraph::from_graph(&g);
        // Propagating a constant vector returns the same constant.
        let ones = Matrix::from_vec(g.num_vertices(), 1, vec![1.0; g.num_vertices()]);
        let p = level.propagate(&ones);
        for r in 0..p.rows {
            assert!((p.get(r, 0) - 1.0).abs() < 1e-4);
        }
    }
}
