//! The bounded data hub: served interactions land here as an append-only
//! log and leave as compacted [`UpdateBatch`]es — the loop's stand-in for
//! the production log-collection hop between the serving tier and the
//! streaming graph-update pipeline.
//!
//! Compaction rules:
//! * clicks coalesce per `(user, item)` pair in first-seen order into one
//!   `AddEdge` whose weight is the click count — repeat engagement raises
//!   sampling weight instead of duplicating records;
//! * feature drifts are last-write-wins per vertex, emitted in first-seen
//!   order — only the newest observation of a row matters downstream;
//! * the log is bounded: appends past capacity are dropped (and counted),
//!   exactly like a production hub shedding load.

use aligraph_graph::ids::well_known;
use aligraph_graph::VertexId;
use aligraph_streaming::{UpdateBatch, UpdateEvent};
use std::collections::HashMap;

/// One logged observation, stamped with the virtual tick it was born at
/// (the serve-side moment freshness is measured from).
#[derive(Debug, Clone, PartialEq)]
pub enum HubEvent {
    /// A served user→item interaction.
    Click {
        /// The session's user.
        user: VertexId,
        /// The clicked item.
        item: VertexId,
        /// Virtual tick the interaction was served at.
        tick: u64,
    },
    /// An upstream feature refresh observed for a vertex.
    Drift {
        /// The vertex whose features drifted.
        vertex: VertexId,
        /// The new feature row.
        features: Vec<f32>,
        /// Virtual tick the drift was observed at.
        tick: u64,
    },
}

impl HubEvent {
    /// The virtual tick this event was born at.
    pub fn tick(&self) -> u64 {
        match self {
            HubEvent::Click { tick, .. } | HubEvent::Drift { tick, .. } => *tick,
        }
    }
}

/// What one drain hands the ingest path.
#[derive(Debug, Clone)]
pub struct Compacted {
    /// The compacted update batch, ready for `StreamingService::ingest`.
    pub batch: UpdateBatch,
    /// Born ticks of every drained event (pre-compaction): the freshness
    /// clock starts here for each observation.
    pub born_ticks: Vec<u64>,
    /// Click events drained (pre-compaction).
    pub clicks: u64,
    /// Drift events drained (pre-compaction).
    pub drifts: u64,
}

/// Bounded append-only interaction log with drop-on-overflow.
#[derive(Debug)]
pub struct DataHub {
    capacity: usize,
    log: Vec<HubEvent>,
    appended: u64,
    dropped: u64,
}

impl DataHub {
    /// An empty hub holding at most `capacity` events between drains.
    pub fn new(capacity: usize) -> DataHub {
        DataHub { capacity: capacity.max(1), log: Vec::new(), appended: 0, dropped: 0 }
    }

    /// Appends one event; returns `false` (and counts a drop) when the
    /// hub is at capacity.
    pub fn append(&mut self, event: HubEvent) -> bool {
        if self.log.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.appended += 1;
        self.log.push(event);
        true
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Total events accepted over the hub's lifetime.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Total events shed at capacity over the hub's lifetime.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains and compacts the buffered log into one update batch.
    pub fn drain_compacted(&mut self) -> Compacted {
        let events = std::mem::take(&mut self.log);
        let born_ticks: Vec<u64> = events.iter().map(HubEvent::tick).collect();

        // First-seen order for both maps keeps compaction deterministic
        // under HashMap iteration: the output order is the log order.
        let mut click_order: Vec<(VertexId, VertexId)> = Vec::new();
        let mut click_count: HashMap<(u32, u32), u32> = HashMap::new();
        let mut drift_order: Vec<VertexId> = Vec::new();
        let mut drift_latest: HashMap<u32, Vec<f32>> = HashMap::new();
        let (mut clicks, mut drifts) = (0u64, 0u64);

        for event in events {
            match event {
                HubEvent::Click { user, item, .. } => {
                    clicks += 1;
                    let key = (user.0, item.0);
                    if let Some(n) = click_count.get_mut(&key) {
                        *n += 1;
                    } else {
                        click_count.insert(key, 1);
                        click_order.push((user, item));
                    }
                }
                HubEvent::Drift { vertex, features, .. } => {
                    drifts += 1;
                    if drift_latest.insert(vertex.0, features).is_none() {
                        drift_order.push(vertex);
                    }
                }
            }
        }

        let mut batch = UpdateBatch::default();
        for (user, item) in click_order {
            #[expect(
                clippy::expect_used,
                reason = "every key in click_order was counted in click_count above"
            )]
            let count = *click_count.get(&(user.0, item.0)).expect("counted click pair");
            batch.events.push(UpdateEvent::AddEdge {
                src: user,
                dst: item,
                etype: well_known::CLICK,
                weight: count as f32,
            });
        }
        for vertex in drift_order {
            #[expect(
                clippy::expect_used,
                reason = "every vertex in drift_order was inserted into drift_latest above"
            )]
            let features = drift_latest.remove(&vertex.0).expect("latest drift row");
            batch.events.push(UpdateEvent::SetFeatures { vertex, features });
        }

        Compacted { batch, born_ticks, clicks, drifts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn click(u: u32, i: u32, tick: u64) -> HubEvent {
        HubEvent::Click { user: VertexId(u), item: VertexId(i), tick }
    }

    #[test]
    fn clicks_coalesce_into_weighted_edges_in_first_seen_order() {
        let mut hub = DataHub::new(16);
        assert!(hub.append(click(0, 10, 1)));
        assert!(hub.append(click(1, 11, 2)));
        assert!(hub.append(click(0, 10, 3)));
        assert!(hub.append(click(0, 10, 4)));
        let out = hub.drain_compacted();
        assert_eq!(out.clicks, 4);
        assert_eq!(out.born_ticks, vec![1, 2, 3, 4]);
        assert_eq!(out.batch.events.len(), 2);
        match &out.batch.events[0] {
            UpdateEvent::AddEdge { src, dst, etype, weight } => {
                assert_eq!((*src, *dst), (VertexId(0), VertexId(10)));
                assert_eq!(*etype, well_known::CLICK);
                assert_eq!(*weight, 3.0);
            }
            other => panic!("expected coalesced AddEdge first, got {other:?}"),
        }
        assert!(hub.is_empty(), "drain empties the log");
    }

    #[test]
    fn drifts_are_last_write_wins_per_vertex() {
        let mut hub = DataHub::new(16);
        hub.append(HubEvent::Drift { vertex: VertexId(5), features: vec![1.0], tick: 1 });
        hub.append(HubEvent::Drift { vertex: VertexId(5), features: vec![2.0], tick: 2 });
        let out = hub.drain_compacted();
        assert_eq!(out.drifts, 2);
        assert_eq!(out.batch.events.len(), 1);
        match &out.batch.events[0] {
            UpdateEvent::SetFeatures { vertex, features } => {
                assert_eq!(*vertex, VertexId(5));
                assert_eq!(features, &vec![2.0]);
            }
            other => panic!("expected SetFeatures, got {other:?}"),
        }
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut hub = DataHub::new(2);
        assert!(hub.append(click(0, 1, 1)));
        assert!(hub.append(click(0, 2, 2)));
        assert!(!hub.append(click(0, 3, 3)));
        assert_eq!(hub.dropped(), 1);
        assert_eq!(hub.appended(), 2);
        let out = hub.drain_compacted();
        assert_eq!(out.born_ticks, vec![1, 2], "the shed event never entered the log");
    }
}
