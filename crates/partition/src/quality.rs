//! Partition quality metrics: crossing-edge ratio (the objective the paper
//! names), vertex replication factor (vertex-cut cost), and load imbalance.

use crate::partition::Partition;
use aligraph_graph::AttributedHeterogeneousGraph;

/// Quality summary of a [`Partition`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionQuality {
    /// Fraction of edge records whose endpoints' owning workers differ from
    /// the edge's worker — i.e. accesses that cross the network.
    pub edge_cut_ratio: f64,
    /// Average number of workers each non-isolated vertex appears on
    /// (1.0 = pure edge cut with no replication pressure measured).
    pub replication_factor: f64,
    /// Max/mean vertex load across workers (1.0 = perfectly balanced).
    pub vertex_imbalance: f64,
    /// Max/mean edge load across workers.
    pub edge_imbalance: f64,
}

impl PartitionQuality {
    /// Evaluates a partition against its graph.
    pub fn evaluate(graph: &AttributedHeterogeneousGraph, part: &Partition) -> Self {
        let mut crossing = 0usize;
        // Replication: the set of workers on which each vertex is *needed*
        // (owner of any incident edge record, plus its primary owner).
        let mut replica_sets: Vec<std::collections::BTreeSet<u32>> =
            vec![Default::default(); graph.num_vertices()];
        for v in graph.vertices() {
            replica_sets[v.index()].insert(part.owner_of(v).0);
            for (e, nb) in graph.out_edge_ids(v).zip(graph.out_neighbors(v)) {
                let w = part.edge_owner[e];
                replica_sets[v.index()].insert(w.0);
                replica_sets[nb.vertex.index()].insert(w.0);
                if part.owner_of(nb.vertex) != w {
                    crossing += 1;
                }
            }
        }
        let m = graph.num_edge_records().max(1);
        let touched: Vec<usize> = replica_sets
            .iter()
            .enumerate()
            .filter(|(v, _)| {
                graph.out_degree(aligraph_graph::VertexId(*v as u32)) > 0
                    || graph.in_degree(aligraph_graph::VertexId(*v as u32)) > 0
            })
            .map(|(_, s)| s.len())
            .collect();
        let replication_factor = if touched.is_empty() {
            1.0
        } else {
            touched.iter().sum::<usize>() as f64 / touched.len() as f64
        };

        PartitionQuality {
            edge_cut_ratio: crossing as f64 / m as f64,
            replication_factor,
            vertex_imbalance: imbalance(&part.vertex_loads()),
            edge_imbalance: imbalance(&part.edge_loads()),
        }
    }
}

#[expect(clippy::expect_used, reason = "the early return above leaves loads non-empty")]
fn imbalance(loads: &[usize]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let total: usize = loads.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / loads.len() as f64;
    *loads.iter().max().expect("non-empty") as f64 / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{EdgeCutHash, Partitioner, VertexCutGreedy, WorkerId};
    use aligraph_graph::generate::erdos_renyi;

    #[test]
    fn single_worker_has_no_cut() {
        let g = erdos_renyi(100, 400, 3).unwrap();
        let part = EdgeCutHash.partition(&g, 1);
        let q = PartitionQuality::evaluate(&g, &part);
        assert_eq!(q.edge_cut_ratio, 0.0);
        assert!((q.replication_factor - 1.0).abs() < 1e-9);
        assert!((q.vertex_imbalance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn manual_partition_cut_counted() {
        // 0 -> 1 with owners on different workers: one crossing edge.
        let mut b = aligraph_graph::GraphBuilder::directed();
        use aligraph_graph::{AttrVector, EdgeType, VertexType};
        let a = b.add_vertex(VertexType(0), AttrVector::empty());
        let c = b.add_vertex(VertexType(0), AttrVector::empty());
        b.add_edge(a, c, EdgeType(0), 1.0).unwrap();
        let g = b.build();
        let part = Partition::from_vertex_owners(&g, 2, vec![WorkerId(0), WorkerId(1)]);
        let q = PartitionQuality::evaluate(&g, &part);
        assert_eq!(q.edge_cut_ratio, 1.0);
        // Both vertices are needed on worker 0 (the edge) and their owners.
        assert!(q.replication_factor > 1.0);
    }

    #[test]
    fn vertex_cut_replication_at_least_one() {
        let g = erdos_renyi(200, 800, 4).unwrap();
        let part = VertexCutGreedy::default().partition(&g, 4);
        let q = PartitionQuality::evaluate(&g, &part);
        assert!(q.replication_factor >= 1.0);
        assert!(q.replication_factor <= 4.0);
    }

    #[test]
    fn imbalance_math() {
        assert_eq!(imbalance(&[5, 5, 5]), 1.0);
        assert_eq!(imbalance(&[9, 3]), 1.5);
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
    }
}
