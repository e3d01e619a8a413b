//! Mini-loom target: [`SparseParamServer`] push/pull.
//!
//! Virtual workers interleave row-sparse AdaGrad pushes with replica
//! drains against the *real* parameter server, while a sequential shadow —
//! an independent reimplementation of the row update and the dirty-set
//! protocol, not a second `SparseParamServer` — applies the identical
//! operation in the same step. Because every push touches disjoint
//! per-element state and f32 arithmetic is deterministic, the shadow must
//! stay **bit-exact**, not approximately equal.
//!
//! Checked per history:
//!
//! * **replica freshness** — after `drain_into(w, …)`, every row the
//!   shadow's dirty protocol says worker `w` owed is bit-identical to the
//!   shadow server row (catches lost dirty marks / stale replicas);
//! * **no lost updates** — the final `materialize()` equals the shadow
//!   weights exactly, whatever order pushes and drains interleaved in.

use super::{VThread, Workload};
use aligraph_graph::generate::TaobaoConfig;
use aligraph_graph::{FeatureMatrix, Featurizer, VertexId};
use aligraph_partition::{EdgeCutHash, Partition, Partitioner};
use aligraph_runtime::SparseParamServer;
use aligraph_storage::CostModel;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const DIM: usize = 8;
const LR: f32 = 0.1;

/// Sequential shadow of the server: row weights, AdaGrad accumulators, and
/// the per-worker dirty protocol.
#[derive(Debug, Clone)]
struct Shadow {
    weights: Vec<f32>,
    accum: Vec<f32>,
    dirty: Vec<HashSet<u32>>,
}

impl Shadow {
    /// The same per-element update as `EmbeddingTable::adagrad_update`,
    /// expression-for-expression, so results match bitwise.
    fn push(&mut self, rows: &HashMap<u32, Vec<f32>>) {
        #[expect(
            clippy::iter_over_hash_type,
            reason = "order-insensitive: each key updates its own row slots, and the dirty sets are sets"
        )]
        for (&v, g) in rows {
            let base = v as usize * DIM;
            for (j, &gj) in g.iter().enumerate() {
                let a = &mut self.accum[base + j];
                *a += gj * gj;
                self.weights[base + j] -= LR * gj / (a.sqrt() + 1e-8);
            }
            for set in &mut self.dirty {
                set.insert(v);
            }
        }
    }

    fn drain(&mut self, who: usize) -> Vec<u32> {
        let mut rows: Vec<u32> = self.dirty[who].drain().collect();
        rows.sort_unstable();
        rows
    }
}

/// Shared state: the real server, per-worker replicas, and the shadow.
pub struct PsState {
    ps: SparseParamServer,
    replicas: Vec<FeatureMatrix>,
    shadow: Shadow,
    errors: Vec<String>,
}

impl std::fmt::Debug for PsState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PsState").field("workers", &self.replicas.len()).finish()
    }
}

/// One worker: alternates push and drain steps for `rounds` rounds.
struct PsWorker {
    id: usize,
    round: u32,
    rounds: u32,
    num_vertices: usize,
    /// false → next step pushes; true → next step drains.
    drain_next: bool,
}

impl PsWorker {
    /// Deterministic per-(worker, round) gradient batch spanning several
    /// shards. The value depends only on the row so duplicate row picks
    /// collapse consistently.
    fn grads(&self) -> HashMap<u32, Vec<f32>> {
        let n = self.num_vertices as u32;
        let w = self.id as u32;
        let r = self.round;
        let mut out = HashMap::new();
        for k in 0..3u32 {
            let v = (w * 7 + r * 13 + k * 29) % n;
            out.insert(v, vec![(v % 5) as f32 * 0.03 + 0.01; DIM]);
        }
        out
    }
}

impl VThread<PsState> for PsWorker {
    fn done(&self, _: &PsState) -> bool {
        self.round >= self.rounds
    }
    fn step(&mut self, s: &mut PsState) {
        if !self.drain_next {
            let grads = self.grads();
            if let Err(e) = s.ps.push(self.id, &grads) {
                s.errors.push(format!("push failed: {e}"));
            }
            s.shadow.push(&grads);
            self.drain_next = true;
            return;
        }
        // Drain: the replica must come back bit-identical to the shadow
        // server for every row the dirty protocol owed this worker.
        let owed = s.shadow.drain(self.id);
        if let Err(e) = s.ps.drain_into(self.id, &mut s.replicas[self.id]) {
            s.errors.push(format!("drain failed: {e}"));
        }
        for v in owed {
            let base = v as usize * DIM;
            let got = s.replicas[self.id].row(VertexId(v));
            let want = &s.shadow.weights[base..base + DIM];
            if got != want {
                s.errors.push(format!(
                    "stale replica: worker {} row {v} = {:?} != shadow {:?}",
                    self.id,
                    &got[..2.min(got.len())],
                    &want[..2]
                ));
            }
        }
        self.drain_next = false;
        self.round += 1;
    }
}

/// The PS push/pull workload. Builds its tiny graph + partition once;
/// every interleaving gets a fresh server sharded from them.
#[derive(Debug)]
pub struct PsWorkload {
    partition: Arc<Partition>,
    features: Arc<FeatureMatrix>,
    /// Worker count (= PS shards).
    pub workers: usize,
    /// Push+drain rounds per worker.
    pub rounds: u32,
}

impl PsWorkload {
    /// Builds the shared fixture: the tiny Taobao graph, hashed across
    /// `workers` shards, 8-dim features.
    pub fn new(workers: usize, rounds: u32) -> Result<PsWorkload, String> {
        let graph = TaobaoConfig::tiny()
            .generate()
            .map_err(|e| format!("fixture graph generation failed: {e}"))?;
        let features = Featurizer::new(DIM).matrix(&graph);
        let partition = EdgeCutHash.partition(&graph, workers);
        Ok(PsWorkload {
            partition: Arc::new(partition),
            features: Arc::new(features),
            workers,
            rounds,
        })
    }
}

impl Workload for PsWorkload {
    type State = PsState;

    fn name(&self) -> &'static str {
        "sparse-param-server"
    }

    fn setup(&self) -> (PsState, Vec<Box<dyn VThread<PsState>>>) {
        let ps = SparseParamServer::new(&self.partition, &self.features, LR, CostModel::default());
        let n = self.features.len();
        let state = PsState {
            ps,
            replicas: (0..self.workers).map(|_| (*self.features).clone()).collect(),
            shadow: Shadow {
                weights: self.features.as_slice().to_vec(),
                accum: vec![0.0; self.features.as_slice().len()],
                dirty: (0..self.workers).map(|_| HashSet::new()).collect(),
            },
            errors: Vec::new(),
        };
        let threads = (0..self.workers)
            .map(|id| {
                Box::new(PsWorker {
                    id,
                    round: 0,
                    rounds: self.rounds,
                    num_vertices: n,
                    drain_next: false,
                }) as Box<dyn VThread<PsState>>
            })
            .collect();
        (state, threads)
    }

    fn errors(state: &PsState) -> &[String] {
        &state.errors
    }

    fn check_final(&self, state: &PsState) -> Result<(), String> {
        let real = state.ps.materialize().map_err(|e| format!("materialize failed: {e}"))?;
        if real.as_slice() != state.shadow.weights.as_slice() {
            let idx = real.as_slice().iter().zip(&state.shadow.weights).position(|(a, b)| a != b);
            return Err(format!(
                "lost update: server diverges from sequential shadow at flat index {idx:?}"
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
    fn ps_push_pull_survives_exploration() {
        let w = PsWorkload::new(3, 3).unwrap();
        Explorer { seed: 42 }.explore(&w, 100).unwrap();
    }

    #[test]
    fn shadow_matches_bitwise_on_round_robin() {
        // The first interleaving is strict round-robin — the lockstep
        // schedule the runtime's coordinator actually produces.
        let w = PsWorkload::new(2, 4).unwrap();
        Explorer { seed: 7 }.explore(&w, 1).unwrap();
    }
}
