//! Error type for graph construction and access.

use crate::ids::{EdgeType, VertexId, VertexType};

/// Errors produced by the graph crate.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge referenced a vertex that does not exist yet.
    DanglingEdge {
        /// Source endpoint.
        src: VertexId,
        /// Destination endpoint.
        dst: VertexId,
    },
    /// An edge weight was not positive and finite (`W: E -> R+`).
    InvalidWeight {
        /// The offending weight.
        weight: f32,
    },
    /// A vertex type is outside the declared type universe.
    UnknownVertexType(VertexType),
    /// An edge type is outside the declared type universe.
    UnknownEdgeType(EdgeType),
    /// A generator was configured inconsistently.
    InvalidConfig(String),
    /// An edge would take the builder past `u32::MAX` edge records, the
    /// most an [`EdgeId`] can name.
    ///
    /// [`EdgeId`]: crate::ids::EdgeId
    TooManyEdgeRecords {
        /// The record count the edge would have made.
        records: u64,
    },
    /// A dynamic graph operation referenced a missing snapshot.
    SnapshotOutOfRange {
        /// Requested timestamp.
        t: usize,
        /// Number of snapshots available.
        len: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::DanglingEdge { src, dst } => {
                write!(f, "edge ({src}, {dst}) references a vertex that was never added")
            }
            GraphError::InvalidWeight { weight } => {
                write!(f, "edge weight {weight} must be positive and finite")
            }
            GraphError::UnknownVertexType(t) => write!(f, "unknown vertex type {}", t.0),
            GraphError::UnknownEdgeType(t) => write!(f, "unknown edge type {}", t.0),
            GraphError::InvalidConfig(msg) => write!(f, "invalid generator config: {msg}"),
            GraphError::TooManyEdgeRecords { records } => {
                write!(f, "{records} edge records exceed the u32 edge-id space")
            }
            GraphError::SnapshotOutOfRange { t, len } => {
                write!(f, "snapshot {t} out of range (dynamic graph has {len} snapshots)")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GraphError::DanglingEdge { src: VertexId(9), dst: VertexId(3) };
        assert!(e.to_string().contains("v9"));
        let e = GraphError::InvalidWeight { weight: -1.0 };
        assert!(e.to_string().contains("-1"));
        let e = GraphError::InvalidConfig("users must be > 0".into());
        assert!(e.to_string().contains("users"));
        let e = GraphError::TooManyEdgeRecords { records: 1 << 32 };
        assert!(e.to_string().contains("4294967296"));
    }
}
