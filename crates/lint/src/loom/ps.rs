//! Mini-loom target: [`SparseParamServer`] push/pull at cuts.
//!
//! Virtual workers run rounds of drain-then-push against the *real*
//! parameter server, while a sequential shadow — an independent
//! reimplementation of the row update and of the cut protocol, not a
//! second `SparseParamServer` — stages the identical pushes and applies
//! them at the cut after their round in `(round, sender)` order. A worker's
//! drain of round `r` is *blocked* until every worker has pushed `r`
//! rounds, as the runtime's coordinator makes it wait for cut `r`. Because
//! every push touches disjoint per-element state and f32 arithmetic is
//! deterministic, the shadow must stay **bit-exact**, not approximately
//! equal.
//!
//! Checked per history:
//!
//! * **replica freshness** — after `drain_into(w, …)` in round `r`, worker
//!   `w`'s whole replica is bit-identical to the shadow at cut `r` (catches
//!   a pin taken before its cut's apply);
//! * **held pins** — that replica, a pin kept while others apply later
//!   cuts, is still the shadow at cut `r` when `w` next drains (catches an
//!   apply that writes through a pin instead of copying);
//! * **cut visibility** — no drain shows a push from its own round, however
//!   many workers pushed that round before it drained (catches a push that
//!   applies on arrival);
//! * **no lost updates** — the final `materialize()` equals the shadow
//!   weights exactly, whatever order pushes and drains interleaved in.

use super::{VThread, Workload};
use aligraph_graph::generate::TaobaoConfig;
use aligraph_graph::{FeatureMatrix, Featurizer, VertexId};
use aligraph_partition::{EdgeCutHash, Partition, Partitioner};
use aligraph_runtime::SparseParamServer;
use aligraph_storage::CostModel;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

const DIM: usize = 8;
const LR: f32 = 0.1;

/// One staged push: its round, its sender, and its rows in ascending order.
type Push = (u32, usize, BTreeMap<u32, Vec<f32>>);

/// Sequential shadow of the server: row weights, AdaGrad accumulators, and
/// the pushes staged for a later cut.
#[derive(Debug, Clone)]
struct Shadow {
    weights: Vec<f32>,
    accum: Vec<f32>,
    staged: Vec<Push>,
}

impl Shadow {
    /// Applies every staged push of a round below `cut`, in `(round,
    /// sender)` order, with the same per-element update as
    /// `aligraph_tensor::adagrad_row`, expression for expression, so
    /// results match bitwise.
    fn apply_cut(&mut self, cut: u32) {
        let (mut due, later): (Vec<Push>, Vec<Push>) =
            std::mem::take(&mut self.staged).into_iter().partition(|p| p.0 < cut);
        self.staged = later;
        due.sort_by_key(|p| (p.0, p.1));
        for (_, _, rows) in due {
            for (v, g) in rows {
                let base = v as usize * DIM;
                for (j, &gj) in g.iter().enumerate() {
                    let a = &mut self.accum[base + j];
                    *a += gj * gj;
                    self.weights[base + j] -= LR * gj / (a.sqrt() + 1e-8);
                }
            }
        }
    }

    /// True if a push staged in `round` touches row `v`.
    fn staged_in(&self, round: u32, v: u32) -> bool {
        self.staged.iter().any(|(r, _, rows)| *r == round && rows.contains_key(&v))
    }
}

/// Shared state: the real server, per-worker replicas (held from drain to
/// drain) and the shadow weights at their cut, push counts, and the shadow.
pub struct PsState {
    ps: SparseParamServer,
    replicas: Vec<FeatureMatrix>,
    held: Vec<Vec<f32>>,
    pushed: Vec<u32>,
    shadow: Shadow,
    errors: Vec<String>,
}

impl std::fmt::Debug for PsState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PsState").field("workers", &self.replicas.len()).finish()
    }
}

/// One worker: `rounds` rounds of a drain at the round's cut, then a push.
struct PsWorker {
    id: usize,
    round: u32,
    rounds: u32,
    num_vertices: usize,
    /// false → next step drains; true → next step pushes.
    drained: bool,
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
    fn blocked(&self, s: &PsState) -> bool {
        !self.drained && s.pushed.iter().any(|&p| p < self.round)
    }
    fn step(&mut self, s: &mut PsState) {
        if self.drained {
            let grads = self.grads();
            if let Err(e) = s.ps.push(self.id, &grads) {
                s.errors.push(format!("push failed: {e}"));
            }
            s.shadow.staged.push((self.round, self.id, grads.into_iter().collect()));
            s.pushed[self.id] += 1;
            self.drained = false;
            self.round += 1;
            return;
        }
        // The replica held since the last drain must still be that cut's.
        if s.replicas[self.id].as_slice() != s.held[self.id].as_slice() {
            s.errors.push(format!("held pin moved: worker {}, round {}", self.id, self.round));
        }
        // Drain at cut `round`: the replica must come back bit-identical to
        // the shadow server at that cut, row for row.
        s.shadow.apply_cut(self.round);
        if let Err(e) = s.ps.drain_into(self.id, &mut s.replicas[self.id]) {
            s.errors.push(format!("drain failed: {e}"));
        }
        for v in 0..self.num_vertices as u32 {
            let base = v as usize * DIM;
            let got = s.replicas[self.id].row(VertexId(v));
            let want = &s.shadow.weights[base..base + DIM];
            if got == want {
                continue;
            }
            let (id, r) = (self.id, self.round);
            s.errors.push(if s.shadow.staged_in(r, v) {
                format!("own-round push visible: worker {id}'s round-{r} drain shows row {v}")
            } else {
                format!(
                    "stale replica: worker {id} row {v} = {:?} != shadow {:?}",
                    &got[..2],
                    &want[..2]
                )
            });
            break;
        }
        s.held[self.id] = s.shadow.weights.clone();
        self.drained = true;
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
    /// Drain+push rounds per worker.
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
            held: vec![self.features.as_slice().to_vec(); self.workers],
            pushed: vec![0; self.workers],
            shadow: Shadow {
                weights: self.features.as_slice().to_vec(),
                accum: vec![0.0; self.features.as_slice().len()],
                staged: Vec::new(),
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
                    drained: false,
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
        let mut shadow = state.shadow.clone();
        shadow.apply_cut(self.rounds);
        if real.as_slice() != shadow.weights.as_slice() {
            let idx = real.as_slice().iter().zip(&shadow.weights).position(|(a, b)| a != b);
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
        // schedule of workers that run their steps at the same pace.
        let w = PsWorkload::new(2, 4).unwrap();
        Explorer { seed: 7 }.explore(&w, 1).unwrap();
    }
}
