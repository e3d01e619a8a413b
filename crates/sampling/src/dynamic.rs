//! Dynamic sampler weights with registered backward updates (paper §3.3).
//!
//! "We implement the update operation in a sampler's backward computation,
//! just like gradient back propagation of an operator. So when updating \[is\]
//! needed, what we should do is to register a gradient function for the
//! sampler. The updating mode, synchronous or asynchronous, is due to the
//! training algorithm."
//!
//! [`DynamicWeights`] holds one weight per vertex plus a registered gradient
//! function. In **synchronous** mode updates are applied inline under a
//! read-write lock; in **asynchronous** mode they are pushed through the
//! lock-free request-flow buckets of the storage layer (Figure 6) and take
//! effect when the owning bucket thread drains them.

use crate::neighborhood::NeighborhoodSampler;
use aligraph_graph::{Neighbor, VertexId};
use aligraph_storage::{ExecutorStopped, WeightService};
use parking_lot::RwLock;
use rand::Rng;
use std::sync::Arc;

/// How backward updates are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightUpdateMode {
    /// Applied inline before `backward` returns.
    Synchronous,
    /// Enqueued to the owning request-flow bucket; visible after the bucket
    /// drains (or after [`DynamicWeights::flush`]).
    Asynchronous,
}

type GradientFn = dyn Fn(f32) -> f32 + Send + Sync;

/// A per-vertex dynamic weight table with a registered gradient function.
pub struct DynamicWeights {
    local: Option<RwLock<Vec<f32>>>,
    service: Option<Arc<dyn WeightService>>,
    gradient: Box<GradientFn>,
    mode: WeightUpdateMode,
}

impl std::fmt::Debug for DynamicWeights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicWeights")
            .field("mode", &self.mode)
            .field("backend", if self.local.is_some() { &"local" } else { &"service" })
            .finish()
    }
}

impl DynamicWeights {
    /// Synchronous table over `n` vertices initialized to `initial`.
    pub fn synchronous(n: usize, initial: f32) -> Self {
        DynamicWeights {
            local: Some(RwLock::new(vec![initial; n])),
            service: None,
            gradient: Box::new(|g| -g), // default: descend the gradient
            mode: WeightUpdateMode::Synchronous,
        }
    }

    /// Asynchronous table backed by a (lock-free bucket) weight service.
    pub fn asynchronous(service: Arc<dyn WeightService>) -> Self {
        DynamicWeights {
            local: None,
            service: Some(service),
            gradient: Box::new(|g| -g),
            mode: WeightUpdateMode::Asynchronous,
        }
    }

    /// Registers the sampler's gradient function: the delta applied to a
    /// weight is `gradient(raw_grad)`.
    pub fn register_gradient(mut self, f: impl Fn(f32) -> f32 + Send + Sync + 'static) -> Self {
        self.gradient = Box::new(f);
        self
    }

    /// The update mode in effect.
    pub fn mode(&self) -> WeightUpdateMode {
        self.mode
    }

    /// Current weight of `v`. In asynchronous mode this can fail with
    /// [`ExecutorStopped`] if the backing service has shut down.
    pub fn get(&self, v: VertexId) -> Result<f32, ExecutorStopped> {
        if let Some(local) = &self.local {
            return Ok(local.read()[v.index()]);
        }
        // invariant: the constructor sets exactly one of local/service; local
        // returned above
        self.service.as_ref().expect("one backend is set").get(v)
    }

    /// Backward pass: applies `gradient(raw_grad)` to the weight of `v`.
    pub fn backward(&self, v: VertexId, raw_grad: f32) {
        let delta = (self.gradient)(raw_grad);
        if let Some(local) = &self.local {
            local.write()[v.index()] += delta;
            return;
        }
        // invariant: the constructor sets exactly one of local/service; local
        // returned above
        self.service.as_ref().expect("one backend is set").update(v, delta);
    }

    /// Blocks until asynchronous updates are visible (no-op in sync mode).
    pub fn flush(&self) -> Result<(), ExecutorStopped> {
        if let Some(service) = &self.service {
            service.flush()?;
        }
        Ok(())
    }
}

/// A NEIGHBORHOOD sampler whose per-vertex probabilities follow the dynamic
/// weights: `P(u) ∝ edge_weight(u) * max(dyn_weight(u), ε)`. This is the
/// adaptive machinery behind AHEP's importance sampling.
#[derive(Debug)]
pub struct DynamicNeighborhood {
    /// The shared dynamic weight table.
    pub weights: Arc<DynamicWeights>,
}

impl NeighborhoodSampler for DynamicNeighborhood {
    fn sample_one<R: Rng>(
        &self,
        _target: VertexId,
        nbrs: &[Neighbor],
        count: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        if nbrs.is_empty() {
            return Vec::new();
        }
        // A stopped weight service (service shutting down mid-draw)
        // degrades to the static edge weights rather than panicking.
        let probs: Vec<f32> = nbrs
            .iter()
            .map(|n| n.weight * self.weights.get(n.vertex).unwrap_or(1.0).max(1e-3))
            .collect();
        let total: f32 = probs.iter().sum();
        (0..count)
            .map(|_| {
                let mut x = rng.gen::<f32>() * total;
                for (i, &p) in probs.iter().enumerate() {
                    if x < p {
                        return nbrs[i].vertex;
                    }
                    x -= p;
                }
                nbrs[nbrs.len() - 1].vertex
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::ids::well_known::*;
    use aligraph_graph::{AttrVector, GraphBuilder};
    use aligraph_storage::LockFreeWeightService;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn synchronous_backward_applies_immediately() {
        let w = DynamicWeights::synchronous(10, 1.0);
        w.backward(VertexId(3), 0.25);
        assert!((w.get(VertexId(3)).unwrap() - 0.75).abs() < 1e-6); // default f = -g
        assert_eq!(w.mode(), WeightUpdateMode::Synchronous);
    }

    #[test]
    fn registered_gradient_function_is_used() {
        let lr = 0.1f32;
        let w = DynamicWeights::synchronous(4, 1.0).register_gradient(move |g| -lr * g);
        w.backward(VertexId(0), 1.0);
        assert!((w.get(VertexId(0)).unwrap() - 0.9).abs() < 1e-6);
    }

    #[test]
    fn asynchronous_through_lock_free_buckets() {
        let service = Arc::new(LockFreeWeightService::new(16, 2, 1.0));
        let w = DynamicWeights::asynchronous(service);
        assert_eq!(w.mode(), WeightUpdateMode::Asynchronous);
        w.backward(VertexId(5), 0.5);
        w.flush().unwrap();
        assert!((w.get(VertexId(5)).unwrap() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn dynamic_sampler_shifts_toward_upweighted_neighbors() {
        let mut b = GraphBuilder::directed();
        let hub = b.add_vertex(USER, AttrVector::empty());
        let a = b.add_vertex(ITEM, AttrVector::empty());
        let c = b.add_vertex(ITEM, AttrVector::empty());
        b.add_edge(hub, a, CLICK, 1.0).unwrap();
        b.add_edge(hub, c, CLICK, 1.0).unwrap();
        let g = b.build();

        let weights = Arc::new(DynamicWeights::synchronous(3, 1.0));
        // Massively upweight vertex `a`.
        weights.backward(a, -20.0); // default gradient f=-g => +20
        let sampler = DynamicNeighborhood { weights };
        let mut rng = StdRng::seed_from_u64(9);
        let mut a_count = 0;
        for _ in 0..1_000 {
            let s = sampler.sample_one(hub, g.out_neighbors(hub), 1, &mut rng);
            if s[0] == a {
                a_count += 1;
            }
        }
        assert!(a_count > 900, "a drawn {a_count}/1000");
    }

    #[test]
    fn dynamic_sampler_floor_keeps_support() {
        // Even a weight driven to zero keeps epsilon probability.
        let mut b = GraphBuilder::directed();
        let hub = b.add_vertex(USER, AttrVector::empty());
        let a = b.add_vertex(ITEM, AttrVector::empty());
        b.add_edge(hub, a, CLICK, 1.0).unwrap();
        let g = b.build();
        let weights = Arc::new(DynamicWeights::synchronous(2, 0.0));
        let sampler = DynamicNeighborhood { weights };
        let mut rng = StdRng::seed_from_u64(10);
        let s = sampler.sample_one(hub, g.out_neighbors(hub), 3, &mut rng);
        assert_eq!(s, vec![a, a, a]);
    }
}
