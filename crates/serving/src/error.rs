//! Serving-layer errors. Admission control surfaces overload as a typed
//! error with a retry hint instead of blocking the caller (bounded-queue
//! backpressure, not unbounded buffering).

use aligraph_graph::VertexId;
use std::fmt;

/// Why a serving request could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The owning shard's pending list is full. The caller should back
    /// off for roughly `retry_after_ms` before retrying.
    Overloaded {
        /// Capacity of the queue that rejected the request.
        queue_capacity: usize,
        /// Suggested client back-off in milliseconds.
        retry_after_ms: u64,
    },
    /// The micro-batch holding this request panicked on the thread of the
    /// caller that was combining it; the request was not served.
    BatchPanicked,
    /// The vertex id is outside the served graph.
    UnknownVertex(VertexId),
    /// The shard fetch for the vertex exhausted its retry deadline and the
    /// fallback embedding is stale beyond the configured version bound, so
    /// degraded mode refuses to serve it.
    Unavailable {
        /// The vertex that could not be resolved.
        vertex: VertexId,
        /// How many graph versions old the fallback entry was (`u64::MAX`
        /// when no fallback entry existed at all).
        stale_by: u64,
        /// The configured staleness bound the entry exceeded.
        bound: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { queue_capacity, retry_after_ms } => write!(
                f,
                "serving queue full (capacity {queue_capacity}); retry after ~{retry_after_ms} ms"
            ),
            ServeError::BatchPanicked => write!(f, "the micro-batch serving this request panicked"),
            ServeError::UnknownVertex(v) => write!(f, "vertex {} is not in the served graph", v.0),
            ServeError::Unavailable { vertex, stale_by, bound } => write!(
                f,
                "vertex {} unavailable: shard fetch exhausted retries and the \
                 fallback is {stale_by} versions stale (bound {bound})",
                vertex.0
            ),
        }
    }
}

impl std::error::Error for ServeError {}
