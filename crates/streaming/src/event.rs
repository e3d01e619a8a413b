//! The seeded update workload the bench and the tests share. The update
//! vocabulary itself ([`UpdateEvent`], [`UpdateBatch`]) lives next to
//! `SnapshotDelta` in [`aligraph_graph::dynamic`] and is re-exported here.

pub use aligraph_graph::dynamic::{UpdateBatch, UpdateEvent};
use aligraph_graph::{EdgeType, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded mixed-update workload with power-law key skew: the same
/// cubed-uniform popularity the serving bench drives reads with, so hot
/// vertices take both the read and the write pressure. Each round retracts
/// the previous round's added edges (the graph churns without growing) and
/// rewrites a few feature vectors.
#[derive(Debug, Clone)]
pub struct UpdateWorkload {
    rng: StdRng,
    n: u32,
    dim: usize,
    etype: EdgeType,
    prev_added: Vec<(VertexId, VertexId, EdgeType)>,
}

impl UpdateWorkload {
    /// A workload over vertices `0..n` with `dim`-dimensional feature
    /// rewrites, deterministic in `seed`.
    pub fn new(seed: u64, n: u32, dim: usize) -> Self {
        UpdateWorkload {
            rng: StdRng::seed_from_u64(seed ^ 0x5712_ea7e),
            n: n.max(1),
            dim: dim.max(1),
            etype: EdgeType(0),
            prev_added: Vec::new(),
        }
    }

    /// Cubed-uniform draw: heavily skewed toward low vertex ids, matching
    /// the read side's Zipf-ish popularity model.
    fn skewed(&mut self) -> VertexId {
        let r: f64 = self.rng.gen();
        VertexId(((self.n as f64 * r * r * r) as u32).min(self.n - 1))
    }

    /// The next batch: retract last round's `adds`, add `adds` fresh edges,
    /// rewrite `attrs` feature vectors.
    pub fn next_batch(&mut self, adds: usize, attrs: usize) -> UpdateBatch {
        let mut events: Vec<UpdateEvent> = self
            .prev_added
            .drain(..)
            .map(|(src, dst, etype)| UpdateEvent::RemoveEdge { src, dst, etype })
            .collect();
        for _ in 0..adds {
            let (src, dst) = (self.skewed(), self.skewed());
            let weight = self.rng.gen_range(0.5f32..2.0);
            self.prev_added.push((src, dst, self.etype));
            events.push(UpdateEvent::AddEdge { src, dst, etype: self.etype, weight });
        }
        for _ in 0..attrs {
            let vertex = self.skewed();
            let features = (0..self.dim).map(|_| self.rng.gen_range(-1.0f32..1.0)).collect();
            events.push(UpdateEvent::SetFeatures { vertex, features });
        }
        UpdateBatch { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_churns() {
        let mut a = UpdateWorkload::new(7, 100, 4);
        let mut b = UpdateWorkload::new(7, 100, 4);
        let (b1, b2) = (a.next_batch(8, 2), b.next_batch(8, 2));
        assert_eq!(b1, b2);
        assert_eq!(b1.len(), 10, "first round has no retractions");
        let b3 = a.next_batch(8, 2);
        assert_eq!(b3.len(), 18, "second round retracts the first's adds");
        assert!(b3.events.iter().take(8).all(|e| e.kind() == "remove"));
        assert_ne!(a.next_batch(8, 2), b.next_batch(4, 1));
    }

    #[test]
    fn skew_prefers_low_ids() {
        let mut w = UpdateWorkload::new(3, 1000, 2);
        let lows = (0..500).filter(|_| w.skewed().0 < 200).count();
        // P(id < 200) = 0.2^(1/3) ~ 58.5%: well above a uniform draw's 20%.
        assert!(lows > 250, "cubed-uniform draw landed low only {lows}/500 times");
    }
}
