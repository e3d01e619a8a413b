//! A from-scratch multilevel partitioner in the METIS family.
//!
//! Pipeline (the classic three phases):
//! 1. **Coarsening** — repeated heavy-edge matching collapses matched vertex
//!    pairs, summing vertex and edge weights, until the graph is small.
//! 2. **Initial partition** — `p` BFS regions grown greedily from spread
//!    seeds, balanced by vertex weight.
//! 3. **Uncoarsening + refinement** — the partition is projected back level
//!    by level, with boundary Kernighan–Lin/FM-style moves applied at each
//!    level (positive-gain moves that keep balance within tolerance).
//!
//! This is the "sparse graphs" option the paper recommends (§3.2).

use crate::partition::{Partition, Partitioner, WorkerId};
use aligraph_graph::{splitmix64, AttributedHeterogeneousGraph};

/// Multilevel METIS-like partitioner.
#[derive(Debug, Clone, Copy)]
pub struct MetisLike {
    /// Stop coarsening when at most `coarsen_target * p` vertices remain.
    pub coarsen_target: usize,
    /// Maximum coarsening levels (safety bound for graphs that stop matching).
    pub max_levels: usize,
    /// Refinement passes per level.
    pub refine_passes: usize,
    /// Allowed load imbalance (1.05 = 5% above the mean).
    pub balance_tolerance: f64,
    /// RNG seed for matching order.
    pub seed: u64,
}

impl Default for MetisLike {
    fn default() -> Self {
        MetisLike {
            coarsen_target: 30,
            max_levels: 20,
            refine_passes: 4,
            balance_tolerance: 1.10,
            seed: 0xa119_4a90,
        }
    }
}

/// A coarse working graph: symmetric weighted adjacency + vertex weights.
struct Level {
    adj: Vec<Vec<(u32, f32)>>,
    vweight: Vec<u32>,
    /// Map from the *finer* level's vertices to this level's vertices.
    fine_to_coarse: Vec<u32>,
}

impl MetisLike {
    fn build_base(graph: &AttributedHeterogeneousGraph) -> (Vec<Vec<(u32, f32)>>, Vec<u32>) {
        let n = graph.num_vertices();
        let mut adj: Vec<Vec<(u32, f32)>> = vec![Vec::new(); n];
        for v in graph.vertices() {
            for nb in graph.out_neighbors(v) {
                if nb.vertex != v {
                    adj[v.index()].push((nb.vertex.0, nb.weight));
                    adj[nb.vertex.index()].push((v.0, nb.weight));
                }
            }
        }
        // Merge parallel edges.
        for row in &mut adj {
            row.sort_unstable_by_key(|&(u, _)| u);
            row.dedup_by(|a, b| {
                if a.0 == b.0 {
                    b.1 += a.1;
                    true
                } else {
                    false
                }
            });
        }
        (adj, vec![1u32; n])
    }

    fn coarsen(adj: &[Vec<(u32, f32)>], vweight: &[u32], seed: u64) -> Option<Level> {
        let n = adj.len();
        let mut matched = vec![u32::MAX; n];
        // Deterministic pseudo-random visit order.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&v| splitmix64(seed ^ v as u64));

        let mut num_coarse = 0u32;
        let mut fine_to_coarse = vec![u32::MAX; n];
        for &v in &order {
            if fine_to_coarse[v as usize] != u32::MAX {
                continue;
            }
            // Heaviest unmatched neighbor.
            let mate = adj[v as usize]
                .iter()
                .filter(|&&(u, _)| u != v && fine_to_coarse[u as usize] == u32::MAX)
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|&(u, _)| u);
            let c = num_coarse;
            num_coarse += 1;
            fine_to_coarse[v as usize] = c;
            if let Some(u) = mate {
                fine_to_coarse[u as usize] = c;
                matched[v as usize] = u;
            }
        }
        if num_coarse as usize >= n {
            return None; // no progress: every vertex isolated
        }
        let _ = matched;

        let mut cadj: Vec<Vec<(u32, f32)>> = vec![Vec::new(); num_coarse as usize];
        let mut cweight = vec![0u32; num_coarse as usize];
        for v in 0..n {
            cweight[fine_to_coarse[v] as usize] += vweight[v];
            let cv = fine_to_coarse[v];
            for &(u, w) in &adj[v] {
                let cu = fine_to_coarse[u as usize];
                if cu != cv {
                    cadj[cv as usize].push((cu, w));
                }
            }
        }
        for row in &mut cadj {
            row.sort_unstable_by_key(|&(u, _)| u);
            row.dedup_by(|a, b| {
                if a.0 == b.0 {
                    b.1 += a.1;
                    true
                } else {
                    false
                }
            });
        }
        Some(Level { adj: cadj, vweight: cweight, fine_to_coarse })
    }

    /// Greedy BFS region growing over the coarsest graph.
    fn initial_partition(
        adj: &[Vec<(u32, f32)>],
        vweight: &[u32],
        p: usize,
        seed: u64,
    ) -> Vec<u32> {
        let n = adj.len();
        let total: u64 = vweight.iter().map(|&w| w as u64).sum();
        let target = (total as f64 / p as f64).ceil() as u64;
        let mut part = vec![u32::MAX; n];
        let mut loads = vec![0u64; p];
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&v| splitmix64(seed ^ 0xbeef ^ v as u64));

        let mut queue = std::collections::VecDeque::new();
        let mut seed_iter = order.iter().copied();
        for k in 0..p as u32 {
            // Pick an unassigned seed; regions may exhaust the graph early.
            let Some(s) = seed_iter.find(|&s| part[s as usize] == u32::MAX) else { break };
            part[s as usize] = k;
            loads[k as usize] += vweight[s as usize] as u64;
            queue.push_back((s, k));
            // Grow this region up to the target before seeding the next one,
            // so early regions don't swallow the whole graph.
            while let Some(&(v, kk)) = queue.front() {
                if kk != k || loads[k as usize] >= target {
                    break;
                }
                queue.pop_front();
                for &(u, _) in &adj[v as usize] {
                    if part[u as usize] == u32::MAX && loads[k as usize] < target {
                        part[u as usize] = k;
                        loads[k as usize] += vweight[u as usize] as u64;
                        queue.push_back((u, k));
                    }
                }
            }
            queue.clear();
        }
        // Leftovers (disconnected bits): least-loaded worker.
        for v in 0..n {
            if part[v] == u32::MAX {
                #[expect(
                    clippy::expect_used,
                    reason = "the partitioner validates p >= 1 at construction"
                )]
                let k = (0..p).min_by_key(|&k| loads[k]).expect("p >= 1") as u32;
                part[v] = k;
                loads[k as usize] += vweight[v] as u64;
            }
        }
        part
    }

    /// Boundary FM-style refinement: move a vertex to the neighboring part
    /// with maximal positive gain while balance stays within tolerance.
    fn refine(
        adj: &[Vec<(u32, f32)>],
        vweight: &[u32],
        part: &mut [u32],
        p: usize,
        passes: usize,
        tolerance: f64,
    ) {
        let total: u64 = vweight.iter().map(|&w| w as u64).sum();
        let cap = ((total as f64 / p as f64) * tolerance).ceil() as u64;
        let mut loads = vec![0u64; p];
        for (v, &k) in part.iter().enumerate() {
            loads[k as usize] += vweight[v] as u64;
        }
        let mut conn = vec![0f32; p];
        for _ in 0..passes {
            let mut moved = 0usize;
            for v in 0..adj.len() {
                if adj[v].is_empty() {
                    continue;
                }
                let from = part[v] as usize;
                conn.iter_mut().for_each(|c| *c = 0.0);
                for &(u, w) in &adj[v] {
                    conn[part[u as usize] as usize] += w;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "the partitioner validates p >= 1 at construction"
                )]
                let (best, best_conn) = conn
                    .iter()
                    .copied()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .expect("p >= 1");
                if best != from && best_conn > conn[from] && loads[best] + vweight[v] as u64 <= cap
                {
                    loads[from] -= vweight[v] as u64;
                    loads[best] += vweight[v] as u64;
                    part[v] = best as u32;
                    moved += 1;
                }
            }
            if moved == 0 {
                break;
            }
        }
    }
}

impl Partitioner for MetisLike {
    fn partition(&self, graph: &AttributedHeterogeneousGraph, num_workers: usize) -> Partition {
        let p = num_workers.max(1);
        let n = graph.num_vertices();
        if n == 0 {
            return Partition::from_vertex_owners(graph, p, Vec::new());
        }
        let (mut adjs, mut weights) = (Vec::new(), Vec::new());
        let (base_adj, base_w) = Self::build_base(graph);
        adjs.push(base_adj);
        weights.push(base_w);
        let mut maps: Vec<Vec<u32>> = Vec::new();

        // Coarsen.
        for level in 0..self.max_levels {
            let cur_n = adjs[level].len();
            if cur_n <= self.coarsen_target * p {
                break;
            }
            match Self::coarsen(&adjs[level], &weights[level], self.seed ^ level as u64) {
                Some(l) if l.adj.len() < cur_n => {
                    maps.push(l.fine_to_coarse);
                    adjs.push(l.adj);
                    weights.push(l.vweight);
                }
                _ => break,
            }
        }

        // Initial partition on the coarsest level.
        let last = adjs.len() - 1;
        let mut part = Self::initial_partition(&adjs[last], &weights[last], p, self.seed);
        Self::refine(
            &adjs[last],
            &weights[last],
            &mut part,
            p,
            self.refine_passes,
            self.balance_tolerance,
        );

        // Project back with refinement at every level.
        for level in (0..last).rev() {
            let map = &maps[level];
            let mut fine = vec![0u32; adjs[level].len()];
            for (v, &c) in map.iter().enumerate() {
                fine[v] = part[c as usize];
            }
            part = fine;
            Self::refine(
                &adjs[level],
                &weights[level],
                &mut part,
                p,
                self.refine_passes,
                self.balance_tolerance,
            );
        }

        let vertex_owner = part.into_iter().map(WorkerId).collect();
        Partition::from_vertex_owners(graph, p, vertex_owner)
    }

    fn name(&self) -> &'static str {
        "metis-like"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{EdgeCutHash, Partitioner};
    use crate::quality::PartitionQuality;
    use aligraph_graph::generate::{barabasi_albert, erdos_renyi, TaobaoConfig};

    #[test]
    fn beats_hash_on_clustered_graph() {
        // Two dense communities joined by a thin bridge: a locality-aware
        // partitioner must cut far fewer edges than hashing.
        let mut b = aligraph_graph::GraphBuilder::undirected();
        use aligraph_graph::{AttrVector, VertexType};
        let n = 120;
        for _ in 0..2 * n {
            b.add_vertex(VertexType(0), AttrVector::empty());
        }
        let mut rng_state = 1u64;
        let mut next = |m: usize| {
            rng_state = splitmix64(rng_state);
            (rng_state % m as u64) as u32
        };
        for c in 0..2u32 {
            let base = c * n as u32;
            for _ in 0..n * 6 {
                let (a, bb) = (base + next(n), base + next(n));
                if a != bb {
                    b.add_edge(a.into(), bb.into(), aligraph_graph::EdgeType(0), 1.0).unwrap();
                }
            }
        }
        // 3 bridge edges.
        for i in 0..3u32 {
            b.add_edge(i.into(), (n as u32 + i).into(), aligraph_graph::EdgeType(0), 1.0).unwrap();
        }
        let g = b.build();

        let metis = MetisLike::default().partition(&g, 2);
        let hash = EdgeCutHash.partition(&g, 2);
        let qm = PartitionQuality::evaluate(&g, &metis);
        let qh = PartitionQuality::evaluate(&g, &hash);
        assert!(
            qm.edge_cut_ratio < qh.edge_cut_ratio / 2.0,
            "metis {} vs hash {}",
            qm.edge_cut_ratio,
            qh.edge_cut_ratio
        );
        // Balance within tolerance.
        assert!(qm.vertex_imbalance < 1.3, "imbalance {}", qm.vertex_imbalance);
    }

    #[test]
    fn handles_sparse_random_graph() {
        let g = erdos_renyi(2_000, 4_000, 9).unwrap();
        let part = MetisLike::default().partition(&g, 4);
        assert_eq!(part.vertex_owners().len(), 2_000);
        let q = PartitionQuality::evaluate(&g, &part);
        assert!(q.vertex_imbalance < 1.6, "imbalance {}", q.vertex_imbalance);
        let loads = part.vertex_loads();
        assert!(loads.iter().all(|&l| l > 0), "{loads:?}");
    }

    #[test]
    fn deterministic() {
        let g = barabasi_albert(800, 3, 4).unwrap();
        let a = MetisLike::default().partition(&g, 4);
        let b = MetisLike::default().partition(&g, 4);
        assert_eq!(a.vertex_owners(), b.vertex_owners());
    }

    #[test]
    fn works_on_heterogeneous_graph() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let part = MetisLike::default().partition(&g, 3);
        assert_eq!(part.vertex_owners().len(), g.num_vertices());
        assert!(part.vertex_owners().iter().all(|w| w.index() < 3));
    }

    #[test]
    fn tiny_graph_fewer_vertices_than_workers() {
        let g = erdos_renyi(3, 3, 0).unwrap();
        let part = MetisLike::default().partition(&g, 8);
        assert_eq!(part.vertex_owners().len(), 3);
        assert!(part.vertex_owners().iter().all(|w| w.index() < 8));
    }
}
