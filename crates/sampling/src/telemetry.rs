//! Sampler instrumentation: wrappers that publish per-sampler-kind draw
//! counts and latencies into a telemetry [`Registry`] without perturbing the
//! wrapped sampler's randomness.
//!
//! [`MeteredNeighborhood`] forwards every call to its inner sampler with the
//! same RNG, so the draw stream — and therefore every trained parameter — is
//! bit-identical whether or not the wrapper (or the registry) is present.
//! Telemetry observes; it never branches on a metric value.

use crate::alias::AliasSlice;
use crate::neighborhood::NeighborhoodSampler;
use aligraph_graph::{Neighbor, VertexId};
use aligraph_telemetry::{Counter, Histogram, Registry, Stopwatch};
use rand::Rng;
use std::sync::Arc;

/// A NEIGHBORHOOD sampler wrapper that counts draws and records per-call
/// latency as `sampling.draws{kind=<kind>}` and
/// `sampling.latency_ns{kind=<kind>}`.
#[derive(Debug)]
pub struct MeteredNeighborhood<S> {
    inner: S,
    draws: Arc<Counter>,
    latency_ns: Arc<Histogram>,
}

impl<S> MeteredNeighborhood<S> {
    /// Wraps `inner`, publishing its series under the `kind` label (e.g.
    /// `"uniform"`, `"weighted"`, `"topk"`).
    pub fn new(inner: S, registry: &Registry, kind: &str) -> Self {
        MeteredNeighborhood {
            inner,
            draws: registry.counter("sampling.draws", &[("kind", kind)]),
            latency_ns: registry.histogram("sampling.latency_ns", &[("kind", kind)]),
        }
    }

    /// The wrapped sampler.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S> MeteredNeighborhood<S> {
    /// Runs one inner call, counting it and recording its latency.
    fn metered(&self, call: impl FnOnce() -> Vec<VertexId>) -> Vec<VertexId> {
        let start = Stopwatch::start();
        let out = call();
        self.draws.inc();
        self.latency_ns.record(start.elapsed_ns());
        out
    }
}

impl<S: NeighborhoodSampler> NeighborhoodSampler for MeteredNeighborhood<S> {
    const DRAWS_BY_WEIGHT: bool = S::DRAWS_BY_WEIGHT;

    fn sample_one<R: Rng>(
        &self,
        target: VertexId,
        nbrs: &[Neighbor],
        count: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        self.metered(|| self.inner.sample_one(target, nbrs, count, rng))
    }

    fn sample_row<R: Rng>(
        &self,
        target: VertexId,
        nbrs: &[Neighbor],
        alias: Option<AliasSlice<'_>>,
        count: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        self.metered(|| self.inner.sample_row(target, nbrs, alias, count, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alias::AliasTable;
    use crate::neighborhood::{UniformNeighborhood, WeightedNeighborhood};
    use aligraph_graph::{AttrId, EdgeType};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn nbrs(n: u32) -> Vec<Neighbor> {
        (0..n)
            .map(|v| Neighbor {
                vertex: VertexId(v),
                weight: 1.0,
                attr: AttrId(0),
                etype: EdgeType(0),
            })
            .collect()
    }

    #[test]
    fn metered_sampler_draws_identically_to_inner() {
        let registry = Registry::new();
        let metered = MeteredNeighborhood::new(UniformNeighborhood, &registry, "uniform");
        let adj = nbrs(16);
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let x = metered.sample_one(VertexId(0), &adj, 4, &mut a);
            let y = UniformNeighborhood.sample_one(VertexId(0), &adj, 4, &mut b);
            assert_eq!(x, y, "wrapper must not perturb the draw stream");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sampling.draws", &[("kind", "uniform")]), 10);
        assert_eq!(snap.histogram("sampling.latency_ns", &[("kind", "uniform")]).count, 10);

        // A weighted sampler draws through the table it is handed. This one
        // is skewed over a row of equal weights, so a wrapper that dropped
        // the table (drawing through the row's own) would draw otherwise.
        let metered = MeteredNeighborhood::new(WeightedNeighborhood, &registry, "weighted");
        let weights: Vec<f32> = (0..16).map(|i| 1.0 + (i * i) as f32).collect();
        let table = AliasTable::new(&weights).unwrap();
        for _ in 0..10 {
            let x = metered.sample_row(VertexId(0), &adj, Some(table.as_slice()), 4, &mut a);
            let y = WeightedNeighborhood.sample_row(
                VertexId(0),
                &adj,
                Some(table.as_slice()),
                4,
                &mut b,
            );
            assert_eq!(x, y, "wrapper must draw through the table it is given");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sampling.draws", &[("kind", "weighted")]), 10);
        let draws_by_weight = [
            MeteredNeighborhood::<WeightedNeighborhood>::DRAWS_BY_WEIGHT,
            MeteredNeighborhood::<UniformNeighborhood>::DRAWS_BY_WEIGHT,
        ];
        assert_eq!(draws_by_weight, [true, false], "the wrapper is its inner sampler's kind");
    }

    #[test]
    fn detached_registry_keeps_wrapper_inert() {
        let metered = MeteredNeighborhood::new(UniformNeighborhood, &Registry::disabled(), "u");
        let adj = nbrs(4);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(metered.sample_one(VertexId(0), &adj, 2, &mut rng).len(), 2);
        assert_eq!(metered.inner().sample_one(VertexId(0), &adj, 2, &mut rng).len(), 2);
    }
}
