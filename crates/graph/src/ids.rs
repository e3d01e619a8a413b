//! Compact identifier newtypes for vertices, edges, and their types.
//!
//! Identifiers are `u32`-backed: the simulated workloads top out in the tens
//! of millions of vertices, and halving the id width keeps adjacency arrays
//! and caches dense (the paper's production ids are 8 bytes; nothing in the
//! algorithms depends on the width).

use serde::{Deserialize, Serialize};

/// Identifier of a vertex within one [`AttributedHeterogeneousGraph`].
///
/// Vertex ids are dense: a graph with `n` vertices uses ids `0..n`, which is
/// what lets the storage and sampling layers use plain arrays as vertex maps.
///
/// [`AttributedHeterogeneousGraph`]: crate::graph::AttributedHeterogeneousGraph
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for VertexId {
    #[inline]
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

impl std::fmt::Display for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of an edge record: its position in the graph's out-adjacency
/// array. A graph holds at most `u32::MAX` records
/// ([`GraphError::TooManyEdgeRecords`]).
///
/// [`GraphError::TooManyEdgeRecords`]: crate::error::GraphError::TooManyEdgeRecords
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A vertex type drawn from `F_V` (e.g. *user*, *item*).
///
/// The paper requires `|F_V| >= 2` and/or `|F_E| >= 2` for an AHG; a simple
/// homogeneous graph uses a single type `VertexType(0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VertexType(pub u8);

impl VertexType {
    /// Index form for dense per-type tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An edge type drawn from `F_E` (e.g. *click*, *collect*, *cart*, *buy*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeType(pub u8);

impl EdgeType {
    /// Index form for dense per-type tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Well-known vertex/edge types for the synthetic e-commerce graphs, matching
/// Figure 2 of the paper (users, items; click / collect / cart / buy).
pub mod well_known {
    use super::{EdgeType, VertexType};

    /// A user vertex.
    pub const USER: VertexType = VertexType(0);
    /// An item (product) vertex.
    pub const ITEM: VertexType = VertexType(1);

    /// User clicked an item. Also used for item–item co-click edges.
    pub const CLICK: EdgeType = EdgeType(0);
    /// User added an item to a preference/collection list.
    pub const COLLECT: EdgeType = EdgeType(1);
    /// User put an item in the cart.
    pub const CART: EdgeType = EdgeType(2);
    /// User bought an item.
    pub const BUY: EdgeType = EdgeType(3);

    /// Co-view relation in the Amazon-style product graph.
    pub const CO_VIEW: EdgeType = EdgeType(0);
    /// Co-buy relation in the Amazon-style product graph.
    pub const CO_BUY: EdgeType = EdgeType(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId::from(42u32);
        assert_eq!(v.index(), 42);
        assert_eq!(v.to_string(), "v42");
    }

    #[test]
    fn ids_order_and_hash() {
        assert!(VertexId(1) < VertexId(2));
        assert!(EdgeId(7) < EdgeId(9));
        let mut set = std::collections::HashSet::new();
        set.insert(VertexId(3));
        assert!(set.contains(&VertexId(3)));
    }

    #[test]
    fn type_indices() {
        assert_eq!(well_known::USER.index(), 0);
        assert_eq!(well_known::ITEM.index(), 1);
        assert_eq!(well_known::BUY.index(), 3);
    }
}
