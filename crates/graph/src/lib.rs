//! # aligraph-graph
//!
//! The graph substrate of the AliGraph reproduction: an **Attributed
//! Heterogeneous Graph** (AHG) data model matching Section 2 of the paper,
//! plus everything the upper layers need from it:
//!
//! * typed vertices and edges with weights (`G = (V, E, W, T_V, T_E, A_V, A_E)`),
//! * **separate attribute storage** through interning indices `I_V` / `I_E`
//!   (paper §3.2 — adjacency rows store a compact attribute index instead of
//!   the attribute payload),
//! * k-hop in/out degree counting and the vertex importance metric
//!   `Imp^(k)(v) = D_i^(k)(v) / D_o^(k)(v)` (paper Eq. 1),
//! * seeded synthetic generators standing in for the proprietary Taobao and
//!   Amazon datasets (see `DESIGN.md` §1 for the substitution argument),
//! * dynamic graph snapshot series with normal/burst evolution for the
//!   Evolving GNN experiments,
//! * power-law exponent estimation used to validate Theorems 1 and 2.
//!
//! The in-memory layout is CSR-like: per-vertex contiguous out/in neighbor
//! slices sorted by edge type, so per-edge-type neighborhoods are contiguous
//! sub-slices found by binary search.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod attr;
pub mod degrees;
pub mod dynamic;
pub mod error;
pub mod features;
pub mod generate;
pub mod graph;
pub mod ids;
pub mod io;
pub mod powerlaw;

pub use attr::{AttrId, AttrIndex, AttrValue, AttrVector};
pub use degrees::{DegreeTable, ImportanceTable, KhopCounter};
pub use dynamic::{
    DynamicGraph, EdgeEvent, EvolutionKind, SnapshotDelta, UpdateBatch, UpdateEvent,
};
pub use error::GraphError;
pub use features::{FeatureMatrix, Featurizer};
pub use generate::{amazon_sim, barabasi_albert, erdos_renyi, DynamicConfig, TaobaoConfig};
pub use graph::{AdjacencySlice, AttributedHeterogeneousGraph, EdgeRecord, GraphBuilder, Neighbor};
pub use ids::{EdgeId, EdgeType, VertexId, VertexType};
pub use io::{read_graph, read_graph_parts, write_graph};

/// Result alias used throughout the graph crate.
pub type Result<T> = std::result::Result<T, GraphError>;
