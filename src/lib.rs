//! Workspace umbrella crate: re-exports every AliGraph reproduction crate so
//! the root examples and integration tests can use one import root.
//!
//! The actual implementation lives in the `crates/` members; see `DESIGN.md`
//! for the full inventory.

pub use aligraph as core;
pub use aligraph_baselines as baselines;
pub use aligraph_chaos as chaos;
pub use aligraph_eval as eval;
pub use aligraph_graph as graph;
pub use aligraph_loopsim as loopsim;
pub use aligraph_ops as ops;
pub use aligraph_partition as partition;
pub use aligraph_runtime as runtime;
pub use aligraph_sampling as sampling;
pub use aligraph_serving as serving;
pub use aligraph_storage as storage;
pub use aligraph_streaming as streaming;
pub use aligraph_tensor as tensor;
