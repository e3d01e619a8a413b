//! Mini-loom target: the cold tier's per-shard state under two samplers.
//!
//! Two virtual workers classify neighbor reads through shards 0 and 1 of
//! one real tiered [`Cluster`] (one [`TieredStore`] beneath both servers)
//! under a budget tight enough that both shards demote. Each step is one
//! read, `Cluster::neighbors_from_kind`: the server's residency bit, then
//! hot lookup, cold decode and admission under the reading shard's tier
//! lock. The serial run — worker 0's reads, then worker 1's — is the
//! shadow. In every interleaving each worker's sequence of access kinds,
//! each shard's hot set, the `tier.demotions` and `tier.reads{src}`
//! counters and `peak_resident_bytes` must equal it.
//!
//! That is what lets the training workers sample at once: a tier whose
//! shards shared one LRU and one budget fails here, because a read through
//! one shard demotes the other shard's rows at a point that depends on the
//! interleaving.
//!
//! [`TieredStore`]: aligraph_storage::TieredStore

use super::{SplitMix, VThread, Workload};
use aligraph_graph::generate::TaobaoConfig;
use aligraph_graph::{AttributedHeterogeneousGraph, VertexId};
use aligraph_partition::{EdgeCutHash, WorkerId};
use aligraph_storage::{AccessKind, CacheStrategy, Cluster, TierConfig};
use aligraph_telemetry::Registry;
use std::sync::Arc;

const WORKERS: usize = 2;
/// Reads per worker: one interleaving is `2 × READS` steps.
const READS: usize = 48;

/// What a run leaves behind, compared against the serial run's.
#[derive(Debug, Clone, Default, PartialEq)]
struct Outcome {
    /// Each worker's access kinds, in its own read order.
    kinds: Vec<Vec<AccessKind>>,
    /// Each shard's hot adjacency rows, by vertex id.
    hot: Vec<Vec<u32>>,
    demotions: u64,
    /// `tier.reads{src}` for `hot`, `prefetch`, `cold`, `materialized`.
    reads: [u64; 4],
    peak: u64,
}

/// Shared state: the cluster, its registry, and what each worker read.
pub struct TierState {
    cluster: Cluster,
    registry: Registry,
    kinds: Vec<Vec<AccessKind>>,
    errors: Vec<String>,
}

impl std::fmt::Debug for TierState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierState").field("kinds", &self.kinds).finish_non_exhaustive()
    }
}

impl TierState {
    fn outcome(&self) -> Result<Outcome, String> {
        let tier = self.cluster.tier().ok_or("the cluster was built without a tier")?;
        let n = self.cluster.graph().num_vertices() as u32;
        let hot = (0..WORKERS)
            .map(|shard| (0..n).filter(|&v| tier.is_hot_on(shard, VertexId(v))).collect())
            .collect();
        let snap = self.registry.snapshot();
        let reads = ["hot", "prefetch", "cold", "materialized"]
            .map(|src| snap.counter("tier.reads", &[("src", src)]));
        Ok(Outcome {
            kinds: self.kinds.clone(),
            hot,
            demotions: snap.counter_total("tier.demotions"),
            reads,
            peak: tier.peak_resident_bytes(),
        })
    }
}

/// One sampler: its reads through its own shard, one per step.
struct Sampler {
    me: usize,
    reads: Vec<VertexId>,
    next: usize,
}

impl VThread<TierState> for Sampler {
    fn done(&self, _: &TierState) -> bool {
        self.next >= self.reads.len()
    }
    fn step(&mut self, s: &mut TierState) {
        let v = self.reads[self.next];
        self.next += 1;
        match s.cluster.neighbors_from_kind(WorkerId(self.me as u32), v, 1) {
            Ok((_, kind)) => s.kinds[self.me].push(kind),
            Err(e) => s.errors.push(format!("worker {} read of {v:?} failed: {e}", self.me)),
        }
    }
}

/// The per-shard tier workload. Builds its graph, budget and read lists
/// once, and the serial run's outcome from them.
#[derive(Debug)]
pub struct TierWorkload {
    graph: Arc<AttributedHeterogeneousGraph>,
    budget: u64,
    reads: Vec<Vec<VertexId>>,
    serial: Outcome,
}

impl TierWorkload {
    /// The tiny Taobao graph, hashed across two shards, under a quarter of
    /// its all-hot footprint: there every row with in-edges fits, `τ` is 0
    /// and each shard's hot set is plain LRU, so reads demote often. Each
    /// worker reads `READS` rows resident on its own shard, drawn by `seed`
    /// with a skew towards the hubs so rows are read again after they were
    /// demoted, plus a few rows of the other shard (neighbor-cache reads,
    /// which never touch the tier).
    pub fn new(seed: u64) -> Result<TierWorkload, String> {
        let graph = Arc::new(
            TaobaoConfig::tiny()
                .generate()
                .map_err(|e| format!("fixture graph generation failed: {e}"))?,
        );
        let all_hot = build(&graph, None, &Registry::disabled())
            .tier()
            .map(|tier| tier.resident_bytes())
            .ok_or("the cluster was built without a tier")?;
        let budget = all_hot / 4;
        let cluster = build(&graph, Some(budget), &Registry::disabled());
        let mut rng = SplitMix::new(seed);
        let mut reads = Vec::with_capacity(WORKERS);
        for me in 0..WORKERS {
            let server = cluster.server(WorkerId(me as u32));
            let mut local: Vec<VertexId> =
                graph.vertices().filter(|&v| server.is_local(v)).collect();
            let mut remote: Vec<VertexId> =
                graph.vertices().filter(|&v| !server.is_local(v)).collect();
            local.sort_by_key(|&v| (std::cmp::Reverse(graph.in_degree(v)), v));
            remote.truncate(8);
            let mut mine = Vec::with_capacity(READS);
            for i in 0..READS {
                if i % 8 == 7 && !remote.is_empty() {
                    mine.push(remote[rng.below(remote.len())]);
                    continue;
                }
                // The smaller of two draws: the hubs come up most often.
                let pick = rng.below(local.len()).min(rng.below(local.len()));
                mine.push(local[pick]);
            }
            reads.push(mine);
        }
        let mut w = TierWorkload { graph, budget, reads, serial: Outcome::default() };
        let (mut state, mut threads) = w.setup();
        for thread in &mut threads {
            while !thread.done(&state) {
                thread.step(&mut state);
            }
        }
        if let Some(e) = state.errors.first() {
            return Err(format!("serial run failed: {e}"));
        }
        w.serial = state.outcome()?;
        let churned = |kinds: &Vec<AccessKind>| {
            kinds.contains(&AccessKind::Local) && kinds.contains(&AccessKind::Cold)
        };
        if w.serial.demotions == 0 || !w.serial.kinds.iter().all(churned) {
            return Err(format!("the budget does not bind: serial run {:?}", w.serial));
        }
        Ok(w)
    }
}

fn build(
    graph: &Arc<AttributedHeterogeneousGraph>,
    budget: Option<u64>,
    registry: &Registry,
) -> Cluster {
    Cluster::builder(Arc::clone(graph))
        .partitioner(&EdgeCutHash)
        .shards(WORKERS)
        .cache(CacheStrategy::None)
        .registry(registry)
        .tier_config(TierConfig::with_budget(budget))
        .build()
        .0
}

impl Workload for TierWorkload {
    type State = TierState;

    fn name(&self) -> &'static str {
        "tier-shards"
    }

    fn setup(&self) -> (TierState, Vec<Box<dyn VThread<TierState>>>) {
        let registry = Registry::new();
        let cluster = build(&self.graph, Some(self.budget), &registry);
        let state =
            TierState { cluster, registry, kinds: vec![Vec::new(); WORKERS], errors: Vec::new() };
        let threads = self
            .reads
            .iter()
            .enumerate()
            .map(|(me, reads)| {
                Box::new(Sampler { me, reads: reads.clone(), next: 0 })
                    as Box<dyn VThread<TierState>>
            })
            .collect();
        (state, threads)
    }

    fn errors(state: &TierState) -> &[String] {
        &state.errors
    }

    fn check_final(&self, state: &TierState) -> Result<(), String> {
        let got = state.outcome()?;
        if got.kinds != self.serial.kinds {
            let w = (0..WORKERS).find(|&w| got.kinds[w] != self.serial.kinds[w]).unwrap_or(0);
            let at = got.kinds[w].iter().zip(&self.serial.kinds[w]).position(|(a, b)| a != b);
            return Err(format!("worker {w}'s reads diverge from the serial run at read {at:?}"));
        }
        if got.hot != self.serial.hot {
            return Err("a shard's hot set differs from the serial run's".into());
        }
        let counts = |o: &Outcome| (o.demotions, o.reads, o.peak);
        if counts(&got) != counts(&self.serial) {
            return Err(format!(
                "(demotions, reads by source, peak) {:?} != serial {:?}",
                counts(&got),
                counts(&self.serial)
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loom::Explorer;

    #[test]
    fn per_shard_tier_state_survives_exploration() {
        let w = TierWorkload::new(42).unwrap();
        Explorer { seed: 42 }.explore(&w, 100).unwrap();
    }
}
