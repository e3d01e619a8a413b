//! Dynamic graphs: snapshot series `G(1), G(2), ..., G(T)` (paper §2) with
//! per-step deltas labelled *normal evolution* vs *burst links* — the split
//! the Evolving GNN (paper §4.2) learns from.

use crate::error::GraphError;
use crate::graph::AttributedHeterogeneousGraph;
use crate::ids::{EdgeType, VertexId};
use crate::Result;

/// Whether an edge change belongs to the normal drift of the graph or to a
/// rare, abnormal burst (paper §4.2: "burst links representing rare and
/// abnormal evolving edges").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvolutionKind {
    /// Ordinary churn (the majority of reasonable changes).
    Normal,
    /// Abnormal burst change.
    Burst,
}

/// One edge addition or removal in a snapshot delta.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeEvent {
    /// Source endpoint.
    pub src: VertexId,
    /// Destination endpoint.
    pub dst: VertexId,
    /// Edge type.
    pub etype: EdgeType,
    /// Normal or burst evolution.
    pub kind: EvolutionKind,
}

/// The changes between snapshot `t-1` and snapshot `t`.
#[derive(Debug, Clone, Default)]
pub struct SnapshotDelta {
    /// Edges present in `G(t)` but not `G(t-1)`.
    pub added: Vec<EdgeEvent>,
    /// Edges present in `G(t-1)` but not `G(t)`.
    pub removed: Vec<EdgeEvent>,
}

impl SnapshotDelta {
    /// Added events of one evolution kind.
    pub fn added_of(&self, kind: EvolutionKind) -> impl Iterator<Item = &EdgeEvent> {
        self.added.iter().filter(move |e| e.kind == kind)
    }
}

/// One live mutation of an online graph: the update vocabulary of the
/// dynamic-graph plane both online services publish through.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateEvent {
    /// A new directed edge `src -> dst` with the given weight.
    AddEdge {
        /// Source endpoint (its out-row and alias table change).
        src: VertexId,
        /// Destination endpoint (its in-row changes).
        dst: VertexId,
        /// Edge type of the new record.
        etype: EdgeType,
        /// Sampling weight of the new record (must be finite).
        weight: f32,
    },
    /// Retraction of the first matching `src -> dst` record of `etype`.
    RemoveEdge {
        /// Source endpoint.
        src: VertexId,
        /// Destination endpoint.
        dst: VertexId,
        /// Edge type to match.
        etype: EdgeType,
    },
    /// Replacement of a vertex's dense feature vector.
    SetFeatures {
        /// The vertex whose features change.
        vertex: VertexId,
        /// The new feature vector (same dimension as the base matrix).
        features: Vec<f32>,
    },
}

impl UpdateEvent {
    /// Short kind label for telemetry (`streaming.ingest.events{kind=...}`).
    pub fn kind(&self) -> &'static str {
        match self {
            UpdateEvent::AddEdge { .. } => "add",
            UpdateEvent::RemoveEdge { .. } => "remove",
            UpdateEvent::SetFeatures { .. } => "attr",
        }
    }
}

/// One entry of the update log: the events a single ingest round applies.
/// Each applied batch advances the graph by exactly one epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateBatch {
    /// The events, applied in order within the batch.
    pub events: Vec<UpdateEvent>,
}

impl UpdateBatch {
    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the batch carries no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Lowers a snapshot delta to the plane's vocabulary: removals first, then
/// additions at weight 1.0 (a delta carries no weights) — the order serving
/// has always applied deltas in, so served embeddings do not move.
impl From<&SnapshotDelta> for UpdateBatch {
    fn from(delta: &SnapshotDelta) -> Self {
        let removed = delta.removed.iter().map(|e| UpdateEvent::RemoveEdge {
            src: e.src,
            dst: e.dst,
            etype: e.etype,
        });
        let added = delta.added.iter().map(|e| UpdateEvent::AddEdge {
            src: e.src,
            dst: e.dst,
            etype: e.etype,
            weight: 1.0,
        });
        UpdateBatch { events: removed.chain(added).collect() }
    }
}

/// A series of graph snapshots with aligned deltas.
///
/// Invariant: `deltas.len() == snapshots.len()`, and `deltas[0]` is empty
/// (there is nothing before the first snapshot).
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    snapshots: Vec<AttributedHeterogeneousGraph>,
    deltas: Vec<SnapshotDelta>,
}

impl DynamicGraph {
    /// Builds a dynamic graph, validating the snapshot/delta alignment.
    pub fn new(
        snapshots: Vec<AttributedHeterogeneousGraph>,
        deltas: Vec<SnapshotDelta>,
    ) -> Result<Self> {
        if snapshots.is_empty() {
            return Err(GraphError::InvalidConfig("dynamic graph needs >= 1 snapshot".into()));
        }
        if snapshots.len() != deltas.len() {
            return Err(GraphError::InvalidConfig(format!(
                "snapshot/delta mismatch: {} snapshots vs {} deltas",
                snapshots.len(),
                deltas.len()
            )));
        }
        Ok(DynamicGraph { snapshots, deltas })
    }

    /// Number of timestamps `T`.
    pub fn num_snapshots(&self) -> usize {
        self.snapshots.len()
    }

    /// The graph at timestamp `t` (0-based).
    pub fn snapshot(&self, t: usize) -> Result<&AttributedHeterogeneousGraph> {
        self.snapshots.get(t).ok_or(GraphError::SnapshotOutOfRange { t, len: self.snapshots.len() })
    }

    /// All snapshots in order.
    pub fn snapshots(&self) -> &[AttributedHeterogeneousGraph] {
        &self.snapshots
    }

    /// All deltas in order (`deltas()[t]` transforms `t-1` into `t`).
    pub fn deltas(&self) -> &[SnapshotDelta] {
        &self.deltas
    }

    /// The delta leading into snapshot `t`.
    pub fn delta(&self, t: usize) -> Result<&SnapshotDelta> {
        self.deltas.get(t).ok_or(GraphError::SnapshotOutOfRange { t, len: self.deltas.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::erdos_renyi;

    #[test]
    fn validates_alignment() {
        let g = erdos_renyi(10, 20, 0).unwrap();
        assert!(DynamicGraph::new(vec![], vec![]).is_err());
        assert!(DynamicGraph::new(vec![g.clone()], vec![]).is_err());
        let d = DynamicGraph::new(vec![g], vec![SnapshotDelta::default()]).unwrap();
        assert_eq!(d.num_snapshots(), 1);
    }

    #[test]
    fn snapshot_access_and_errors() {
        let g = erdos_renyi(10, 20, 0).unwrap();
        let d = DynamicGraph::new(
            vec![g.clone(), g],
            vec![SnapshotDelta::default(), SnapshotDelta::default()],
        )
        .unwrap();
        assert!(d.snapshot(1).is_ok());
        assert!(matches!(d.snapshot(2), Err(GraphError::SnapshotOutOfRange { .. })));
        assert!(d.delta(1).is_ok());
    }

    #[test]
    fn burst_filter() {
        let ev = |kind| EdgeEvent { src: VertexId(0), dst: VertexId(1), etype: EdgeType(0), kind };
        let delta = SnapshotDelta {
            added: vec![ev(EvolutionKind::Normal), ev(EvolutionKind::Burst)],
            removed: vec![],
        };
        assert_eq!(delta.added_of(EvolutionKind::Burst).count(), 1);
        assert_eq!(delta.added_of(EvolutionKind::Normal).count(), 1);
    }
}
