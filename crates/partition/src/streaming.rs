//! Streaming-style partitioning (Stanton–Kliot linear deterministic greedy).
//!
//! Vertices arrive one at a time (here: in id order, matching an ingest
//! stream) and are placed immediately — the mode the paper recommends for
//! graphs with frequent edge updates. The LDG rule places vertex `v` in the
//! partition maximizing `|N(v) ∩ P_i| · (1 - |P_i| / C)` where `C` is the
//! per-partition capacity.

use crate::partition::{Partition, Partitioner, WorkerId};
use aligraph_graph::AttributedHeterogeneousGraph;

/// Linear deterministic greedy streaming partitioner.
#[derive(Debug, Clone, Copy)]
pub struct StreamingLdg {
    /// Capacity slack: per-partition capacity is `slack * n / p`.
    pub slack: f64,
}

impl Default for StreamingLdg {
    fn default() -> Self {
        StreamingLdg { slack: 1.1 }
    }
}

impl Partitioner for StreamingLdg {
    fn partition(&self, graph: &AttributedHeterogeneousGraph, num_workers: usize) -> Partition {
        let p = num_workers.max(1);
        let n = graph.num_vertices();
        let capacity = ((n as f64 / p as f64) * self.slack).ceil().max(1.0);
        let mut owner: Vec<Option<WorkerId>> = vec![None; n];
        let mut sizes = vec![0usize; p];
        let mut neighbor_counts = vec![0u32; p];

        for v in graph.vertices() {
            neighbor_counts.iter_mut().for_each(|c| *c = 0);
            // Count already-placed neighbors per partition (both directions —
            // the stream has seen some in-neighbors and some out-neighbors).
            for nb in graph.out_neighbors(v).iter().chain(graph.in_neighbors(v)) {
                if let Some(w) = owner[nb.vertex.index()] {
                    neighbor_counts[w.index()] += 1;
                }
            }
            let mut best = 0usize;
            let mut best_score = f64::MIN;
            for k in 0..p {
                let penalty = 1.0 - sizes[k] as f64 / capacity;
                // +1 smoothing keeps empty-neighborhood vertices spreading
                // by load rather than all landing on partition 0.
                let score = (neighbor_counts[k] as f64 + 1.0) * penalty;
                if score > best_score {
                    best_score = score;
                    best = k;
                }
            }
            owner[v.index()] = Some(WorkerId(best as u32));
            sizes[best] += 1;
        }

        #[expect(clippy::expect_used, reason = "the loop above assigns every vertex an owner")]
        let vertex_owner = owner.into_iter().map(|o| o.expect("all assigned")).collect();
        Partition::from_vertex_owners(graph, p, vertex_owner)
    }

    fn name(&self) -> &'static str {
        "streaming-ldg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{EdgeCutHash, Partitioner};
    use crate::quality::PartitionQuality;
    use aligraph_graph::generate::{barabasi_albert, erdos_renyi};

    #[test]
    fn respects_capacity() {
        let g = erdos_renyi(1_000, 3_000, 8).unwrap();
        let part = StreamingLdg::default().partition(&g, 4);
        let cap = (1_000.0_f64 / 4.0 * 1.1).ceil() as usize;
        for &l in &part.vertex_loads() {
            assert!(l <= cap, "load {l} exceeds capacity {cap}");
        }
    }

    #[test]
    fn cuts_fewer_edges_than_hash_on_preferential_graph() {
        let g = barabasi_albert(2_000, 4, 12).unwrap();
        let ldg = StreamingLdg::default().partition(&g, 4);
        let hash = EdgeCutHash.partition(&g, 4);
        let ql = PartitionQuality::evaluate(&g, &ldg);
        let qh = PartitionQuality::evaluate(&g, &hash);
        assert!(
            ql.edge_cut_ratio < qh.edge_cut_ratio,
            "ldg {} vs hash {}",
            ql.edge_cut_ratio,
            qh.edge_cut_ratio
        );
    }

    #[test]
    fn deterministic_and_total() {
        let g = erdos_renyi(500, 1_500, 2).unwrap();
        let a = StreamingLdg::default().partition(&g, 3);
        let b = StreamingLdg::default().partition(&g, 3);
        assert_eq!(a.vertex_owners(), b.vertex_owners());
        assert_eq!(a.vertex_owners().len(), 500);
    }

    #[test]
    fn single_partition() {
        let g = erdos_renyi(100, 200, 2).unwrap();
        let part = StreamingLdg::default().partition(&g, 1);
        assert!(part.vertex_owners().iter().all(|w| w.0 == 0));
    }
}
