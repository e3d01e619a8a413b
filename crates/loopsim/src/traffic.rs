//! Seeded power-law traffic over the Taobao sim graph: the request stream
//! that drives the closed loop's serve phase.
//!
//! The popularity shape matches the serving and streaming benches — cubing
//! a uniform draw skews traffic heavily toward low vertex ids, which is
//! where the generators put the hot users and items — so the loop stresses
//! the same vertices the standalone benches do.

use aligraph_graph::ids::well_known;
use aligraph_graph::{AttributedHeterogeneousGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic traffic generator: every draw comes from one seeded RNG,
/// so a cycle's request stream is a pure function of `(seed, draw order)`.
#[derive(Debug)]
pub struct TrafficGen {
    rng: StdRng,
    users: Vec<VertexId>,
    items: Vec<VertexId>,
    drift_rate: f64,
}

impl TrafficGen {
    /// Builds a generator over the graph's `USER` and `ITEM` rosters.
    /// Returns `None` when either side is empty (nothing to serve).
    pub fn new(graph: &AttributedHeterogeneousGraph, seed: u64) -> Option<TrafficGen> {
        let users = graph.vertices_of_type(well_known::USER).to_vec();
        let items = graph.vertices_of_type(well_known::ITEM).to_vec();
        if users.is_empty() || items.is_empty() {
            return None;
        }
        Some(TrafficGen { rng: StdRng::seed_from_u64(seed), users, items, drift_rate: 0.0 })
    }

    /// Sets the per-interaction probability of a feature-drift event
    /// riding along with the click.
    pub fn with_drift_rate(mut self, rate: f64) -> TrafficGen {
        self.drift_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Power-law draw of the next active user.
    pub fn draw_user(&mut self) -> VertexId {
        let idx = Self::powerlaw_index(&mut self.rng, self.users.len());
        self.users[idx]
    }

    /// Power-law draw of the next clicked item.
    pub fn draw_item(&mut self) -> VertexId {
        let idx = Self::powerlaw_index(&mut self.rng, self.items.len());
        self.items[idx]
    }

    /// With probability `drift_rate`, produces a drifted copy of `current`:
    /// a small seeded perturbation of the item's live feature row, the
    /// loop's stand-in for upstream attribute refreshes. Always consumes
    /// the same number of RNG draws on the drift path, so the decision
    /// never perturbs later draws differently across runs.
    pub fn maybe_drift(&mut self, current: &[f32]) -> Option<Vec<f32>> {
        if !self.rng.gen_bool(self.drift_rate) {
            return None;
        }
        Some(
            current
                .iter()
                .map(|&x| {
                    let delta: f64 = self.rng.gen();
                    x + (delta as f32 - 0.5) * 0.1
                })
                .collect(),
        )
    }

    /// Zipf-ish popularity: cubing the uniform draw concentrates mass on
    /// low indices (same shape as the serving/streaming benches).
    fn powerlaw_index(rng: &mut StdRng, len: usize) -> usize {
        let r: f64 = rng.gen();
        (((len as f64) * r * r * r) as usize).min(len - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::generate::TaobaoConfig;

    fn graph() -> AttributedHeterogeneousGraph {
        TaobaoConfig::tiny().generate().expect("tiny taobao sim")
    }

    #[test]
    fn draws_are_deterministic_and_typed() {
        let g = graph();
        let mut a = TrafficGen::new(&g, 7).expect("rosters");
        let mut b = TrafficGen::new(&g, 7).expect("rosters");
        for _ in 0..64 {
            let (ua, ia) = (a.draw_user(), a.draw_item());
            let (ub, ib) = (b.draw_user(), b.draw_item());
            assert_eq!(ua, ub);
            assert_eq!(ia, ib);
            assert!(g.vertices_of_type(well_known::USER).contains(&ua));
            assert!(g.vertices_of_type(well_known::ITEM).contains(&ia));
        }
    }

    #[test]
    fn traffic_is_skewed_toward_hot_users() {
        let g = graph();
        let mut t = TrafficGen::new(&g, 11).expect("rosters");
        let roster = g.vertices_of_type(well_known::USER);
        let cutoff = roster[roster.len() / 4];
        let hot = (0..400).filter(|_| t.draw_user().0 <= cutoff.0).count();
        assert!(hot > 200, "cubed-uniform puts most mass on the first quartile, got {hot}/400");
    }

    #[test]
    fn drift_fires_at_the_configured_rate_and_perturbs() {
        let g = graph();
        let mut t = TrafficGen::new(&g, 3).expect("rosters").with_drift_rate(0.5);
        let base = vec![1.0f32; 8];
        let fired = (0..200).filter_map(|_| t.maybe_drift(&base)).count();
        assert!((60..140).contains(&fired), "~100 of 200 at rate 0.5, got {fired}");
        let mut t = TrafficGen::new(&g, 3).expect("rosters").with_drift_rate(1.0);
        let drifted = t.maybe_drift(&base).expect("rate 1.0 always drifts");
        assert_eq!(drifted.len(), base.len());
        assert!(drifted.iter().zip(&base).any(|(d, b)| d != b));
        assert!(drifted.iter().zip(&base).all(|(d, b)| (d - b).abs() <= 0.05 + 1e-6));
    }
}
