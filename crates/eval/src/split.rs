//! Link-prediction train/test splits (paper §5.2.1: "we randomly extract a
//! portion of the data as the training data and reserve the remaining part
//! as test data").

use aligraph_graph::{AttrVector, AttributedHeterogeneousGraph, EdgeType, GraphBuilder, VertexId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// One held-out (test) edge, positive or sampled-negative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeldOutEdge {
    /// Source endpoint.
    pub src: VertexId,
    /// Destination endpoint.
    pub dst: VertexId,
    /// Edge type.
    pub etype: EdgeType,
}

/// A link-prediction split: a training graph with the held-out edges
/// removed, plus balanced positive/negative test sets per edge type.
#[derive(Debug)]
pub struct LinkSplit {
    /// The training graph (test positives removed).
    pub train: AttributedHeterogeneousGraph,
    /// Held-out true edges.
    pub test_pos: Vec<HeldOutEdge>,
    /// Sampled non-edges matched by source vertex and edge type.
    pub test_neg: Vec<HeldOutEdge>,
}

impl LinkSplit {
    /// Edge types present in the test set, ascending.
    pub fn test_edge_types(&self) -> Vec<EdgeType> {
        let mut types: Vec<EdgeType> = self.test_pos.iter().map(|e| e.etype).collect();
        types.sort_unstable();
        types.dedup();
        types
    }

    /// Test positives/negatives of one edge type.
    pub fn of_type(&self, t: EdgeType) -> (Vec<HeldOutEdge>, Vec<HeldOutEdge>) {
        (
            self.test_pos.iter().filter(|e| e.etype == t).copied().collect(),
            self.test_neg.iter().filter(|e| e.etype == t).copied().collect(),
        )
    }
}

/// Splits `graph` for link prediction: `test_fraction` of the edges are held
/// out as positives, and for each one a negative is sampled with the same
/// source and edge type but a destination that is not a true neighbor.
pub fn link_prediction_split(
    graph: &AttributedHeterogeneousGraph,
    test_fraction: f64,
    seed: u64,
) -> LinkSplit {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = graph.num_edge_records();
    let test_count = ((m as f64) * test_fraction.clamp(0.0, 1.0)) as usize;

    // Choose held-out record indices.
    let mut idx: Vec<usize> = (0..m).collect();
    idx.shuffle(&mut rng);
    let held: std::collections::HashSet<usize> = idx.into_iter().take(test_count).collect();

    // Rebuild the training graph without the held-out records, preserving
    // vertex ids, types, and attributes.
    let mut b = GraphBuilder::directed().with_capacity(graph.num_vertices(), m - held.len());
    for v in graph.vertices() {
        b.add_vertex(graph.vertex_type(v), graph.vertex_attrs(v).clone());
    }
    let mut test_pos = Vec::with_capacity(held.len());
    for v in graph.vertices() {
        for nbr in graph.out_neighbors(v) {
            if held.contains(&nbr.edge.index()) {
                test_pos.push(HeldOutEdge { src: v, dst: nbr.vertex, etype: nbr.etype });
            } else {
                #[expect(
                    clippy::expect_used,
                    reason = "edges copied from an existing graph have in-range endpoints and types"
                )]
                b.add_edge_with_attrs(
                    v,
                    nbr.vertex,
                    nbr.etype,
                    nbr.weight,
                    graph
                        .edge_attr_index()
                        .get(nbr.attr)
                        .cloned()
                        .unwrap_or_else(AttrVector::empty),
                )
                .expect("edges of an existing graph are valid");
            }
        }
    }
    let train = b.build();

    // Negatives: same src + etype, destination of the same vertex type as
    // the true destination, not a true neighbor in the *full* graph.
    let mut test_neg = Vec::with_capacity(test_pos.len());
    for pos in &test_pos {
        let dst_type = graph.vertex_type(pos.dst);
        let roster = graph.vertices_of_type(dst_type);
        let mut chosen = None;
        for _ in 0..32 {
            let cand = roster[rng.gen_range(0..roster.len())];
            if cand == pos.src {
                continue;
            }
            let is_edge =
                graph.out_neighbors_typed(pos.src, pos.etype).iter().any(|n| n.vertex == cand);
            if !is_edge {
                chosen = Some(cand);
                break;
            }
        }
        if let Some(dst) = chosen {
            test_neg.push(HeldOutEdge { src: pos.src, dst, etype: pos.etype });
        }
    }

    LinkSplit { train, test_pos, test_neg }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::generate::TaobaoConfig;

    #[test]
    fn split_sizes_and_graph_integrity() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let split = link_prediction_split(&g, 0.2, 1);
        let expected = (g.num_edge_records() as f64 * 0.2) as usize;
        assert_eq!(split.test_pos.len(), expected);
        assert_eq!(split.train.num_edge_records() + split.test_pos.len(), g.num_edge_records());
        assert_eq!(split.train.num_vertices(), g.num_vertices());
        // Vertex metadata preserved.
        for v in g.vertices() {
            assert_eq!(g.vertex_type(v), split.train.vertex_type(v));
        }
    }

    #[test]
    fn negatives_are_not_true_edges() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let split = link_prediction_split(&g, 0.1, 2);
        assert!(!split.test_neg.is_empty());
        for neg in &split.test_neg {
            let is_edge =
                g.out_neighbors_typed(neg.src, neg.etype).iter().any(|n| n.vertex == neg.dst);
            assert!(!is_edge, "{neg:?} is a true edge");
            // Negative preserves destination vertex type semantics.
            assert_eq!(
                g.vertex_type(neg.dst),
                g.vertex_type(
                    split
                        .test_pos
                        .iter()
                        .find(|p| p.src == neg.src && p.etype == neg.etype)
                        .expect("negative pairs with a positive")
                        .dst
                )
            );
        }
    }

    #[test]
    fn held_out_edges_absent_from_train() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let split = link_prediction_split(&g, 0.3, 3);
        // Count multiplicity: a (src,dst,etype) may appear multiple times in
        // the multigraph, so compare counts rather than membership.
        let count = |g: &AttributedHeterogeneousGraph, e: &HeldOutEdge| {
            g.out_neighbors_typed(e.src, e.etype).iter().filter(|n| n.vertex == e.dst).count()
        };
        for pos in split.test_pos.iter().take(50) {
            assert!(count(&split.train, pos) < count(&g, pos));
        }
    }

    #[test]
    fn deterministic() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let a = link_prediction_split(&g, 0.2, 7);
        let b = link_prediction_split(&g, 0.2, 7);
        assert_eq!(a.test_pos, b.test_pos);
        assert_eq!(a.test_neg, b.test_neg);
    }

    #[test]
    fn per_type_views() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let split = link_prediction_split(&g, 0.2, 4);
        let types = split.test_edge_types();
        assert!(!types.is_empty());
        let mut total = 0;
        for t in types {
            let (pos, neg) = split.of_type(t);
            assert!(pos.iter().all(|e| e.etype == t));
            assert!(neg.iter().all(|e| e.etype == t));
            total += pos.len();
        }
        assert_eq!(total, split.test_pos.len());
    }
}
