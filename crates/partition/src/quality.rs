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
                let w = part.owner_of_out_edge(v, e);
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
            edge_imbalance: imbalance(&part.edge_loads(graph)),
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

    /// The four scores of every built-in partitioner on one fixed skewed
    /// graph, compared as bits: a change in how a partition stores or reads
    /// its edge owners must leave every score where it is.
    #[test]
    fn every_partitioner_scores_its_pinned_bits() {
        use crate::{Grid2D, MetisLike, StreamingLdg};
        let g = aligraph_graph::generate::barabasi_albert(600, 3, 11).unwrap();
        let partitioners: [&dyn Partitioner; 5] = [
            &EdgeCutHash,
            &VertexCutGreedy::default(),
            &Grid2D,
            &MetisLike::default(),
            &StreamingLdg::default(),
        ];
        let pinned: [[u64; 4]; 5] = [
            [
                0x3fea_aaaa_aaaa_aaab,
                0x3ffd_851e_b851_eb85,
                0x3ff2_8f5c_28f5_c28f,
                0x3ff2_9f40_36cb_c5c7,
            ],
            [
                0x3fe7_0291_8d45_59e6,
                0x3ffe_4444_4444_4444,
                0x3ff7_ae14_7ae1_47ae,
                0x3ff2_6874_7104_47eb,
            ],
            [
                0x3fec_e0e4_510d_69e2,
                0x4007_28f5_c28f_5c29,
                0x4008_0000_0000_0000,
                0x3ff4_559e_6507_b4a8,
            ],
            [
                0x3fe0_d69e_1bf8_0248,
                0x3ff6_aaaa_aaaa_aaab,
                0x3ff1_c28f_5c28_f5c3,
                0x3ff1_d1c4_111f_adce,
            ],
            [
                0x3fe5_7e6e_29aa_f3ba,
                0x3ff8_f5c2_8f5c_28f6,
                0x3ff1_47ae_147a_e148,
                0x3ff1_0447_eb73_95d5,
            ],
        ];
        for (p, want) in partitioners.into_iter().zip(pinned) {
            let q = PartitionQuality::evaluate(&g, &p.partition(&g, 6));
            let got =
                [q.edge_cut_ratio, q.replication_factor, q.vertex_imbalance, q.edge_imbalance]
                    .map(f64::to_bits);
            assert_eq!(got, want, "{}: {got:#018x?}", p.name());
        }
    }

    #[test]
    fn imbalance_math() {
        assert_eq!(imbalance(&[5, 5, 5]), 1.0);
        assert_eq!(imbalance(&[9, 3]), 1.5);
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
    }
}
