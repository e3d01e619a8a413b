//! The sparse parameter server: input-feature embedding rows sharded by the
//! graph partition, so each row lives next to the worker that owns its
//! vertex (the paper's storage-aware placement).
//!
//! Workers *push* row-sparse AdaGrad deltas to the owning shard after every
//! step, and *pull* by draining at most `staleness` steps later: a drain
//! pins the server's rows as the worker's replica.
//!
//! The rows live once, in one vertex-indexed [`FeatureMatrix`] with one
//! vertex-indexed AdaGrad accumulator beside it; a shard's roster is the
//! owner table's. The matrix is copy-on-write: a drain or a
//! [`materialize`] clones the buffer, and an apply writes in place unless a
//! pin of an older cut is alive, which keeps its cut as the apply copies
//! the buffer once. The runtime's workers drop their pins before they push.
//!
//! A push is tagged with its sender's step (the sender's push count so far)
//! and staged in the server's one inbox, kept in `(step, sender)` order.
//! Nothing it carries is visible before the **cut** after that step, the
//! point where every worker has pushed it. The first drain or
//! [`materialize`] of a later cut applies the staged messages below the
//! cut in that order, whichever shards they were sent to. So whichever
//! thread gets there first, every reader of cut `t` sees the same rows: all
//! of steps `< t`, none of step `t` (SSP's visibility, Ho et al., NIPS
//! 2013), and no worker's compute waits on another's. Nothing else
//! applies: [`export`] copies the server as it stands, staged pushes
//! included, and [`rehome`] only re-points owners.
//!
//! Every push, pull, and read is metered through the storage [`CostModel`]
//! so the comm accounting in the benches stays honest: reads of replica
//! rows count as `Local` (own shard) or `CachedRemote` (remote-owned row
//! served from the replica), while pushes and pulls that cross shards
//! count as `Remote`. Pushes and pulls are
//! batched into one message per shard per step — the request batching the
//! paper's platform applies to all cross-worker traffic — so a message
//! costs one model latency regardless of row count, while payload bytes
//! accumulate per row. Every one of those messages crosses the server's
//! [`FaultPlane`] through its delivery driver; a fresh server holds an
//! unarmed plane, which delivers everything at zero ticks — that *is* the
//! fault-free run, there is no second send path.
//!
//! [`materialize`]: SparseParamServer::materialize
//! [`export`]: SparseParamServer::export
//! [`rehome`]: SparseParamServer::rehome

use crate::error::RuntimeError;
use aligraph_chaos::{
    FaultPlan, FaultPlane, HopKind, RetryPolicy, Seq, SeqCounter, Sequencer, MIGRATION_TAG,
    PS_PULL_TAG, PS_PUSH_TAG, TICK_NS,
};
use aligraph_graph::{FeatureMatrix, VertexId};
use aligraph_partition::Partition;
use aligraph_storage::{AccessKind, CostModel, TierMeter};
use aligraph_telemetry::{Counter, Registry};
use aligraph_tensor::adagrad_row;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One delivered push message, staged until the cut after its step.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedPush {
    /// The sender's push count when it sent this message.
    pub step: u64,
    /// The sending worker.
    pub sender: u32,
    /// The rows, strictly ascending.
    pub rows: Vec<u32>,
    /// `rows.len()` gradient rows, flat, in `rows` order.
    pub grads: Vec<f32>,
}

impl StagedPush {
    fn key(&self) -> (u64, u32) {
        (self.step, self.sender)
    }
}

/// Every shard's rows, once, indexed by vertex: the weights a drain pins,
/// and their AdaGrad accumulators.
#[derive(Debug)]
struct Rows {
    weights: FeatureMatrix,
    accum: Vec<f32>,
}

/// Clears a dirty bitmap, returning the rows it marked in ascending order.
fn take_marks(marks: &mut [u64]) -> Vec<u32> {
    let mut rows = Vec::new();
    for (i, word) in marks.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            rows.push(i as u32 * 64 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    rows
}

/// The server as it stands (checkpoint payload): nothing in it is applied
/// on the way out or in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PsState {
    /// Vertex id → owning shard slot.
    pub owners: Vec<u32>,
    /// Row-major weights, one row per vertex.
    pub weights: Vec<f32>,
    /// AdaGrad accumulators, one row per vertex.
    pub accum: Vec<f32>,
    /// The pushes not yet applied, stably sorted by `(step, sender)`.
    pub staged: Vec<StagedPush>,
}

/// Sender-held [`SeqCounter`]s for one worker's fault-plane channels, the
/// only source of the [`Seq`]s its messages cross the plane with: one push
/// stream and one pull-response stream per destination shard. They live
/// and die with the server, so a recovery attempt's fresh server pairs
/// fresh counters with its shards' fresh sequencers and replays cleanly.
#[derive(Debug)]
struct ChannelSeqs {
    push: Vec<SeqCounter>,
    pull: Vec<SeqCounter>,
}

impl ChannelSeqs {
    fn new(shards: usize) -> Self {
        let counters = vec![SeqCounter::default(); shards];
        ChannelSeqs { push: counters.clone(), pull: counters }
    }
}

/// The sharded sparse parameter server.
#[derive(Debug)]
pub struct SparseParamServer {
    dim: usize,
    lr: f32,
    cost: CostModel,
    /// Vertex id → owning shard slot: the shards' rosters. Atomic because
    /// an elastic rebalance ([`rehome`](Self::rehome)) re-points rows at an
    /// epoch boundary while the struct is shared across worker threads.
    owner: Vec<AtomicU32>,
    /// Shard slots, every owner below it.
    slots: usize,
    /// Lock order: `rows`, then `inbox`, then a dirty bitmap.
    rows: Mutex<Rows>,
    /// Delivered pushes not yet applied, in `(step, sender)` order.
    inbox: Mutex<Vec<StagedPush>>,
    /// Per-worker dirty bitmaps: rows applied since that worker last
    /// drained, the rows its next drain meters.
    dirty: Vec<Mutex<Vec<u64>>>,
    /// `pushed[shard][sender]`: the receiving end of the `sender → shard`
    /// push channel. It releases each delta once; the copies a lost ack or a
    /// late replay land are discarded — the idempotence that makes lost acks
    /// invisible to the math.
    pushed: Vec<Mutex<Vec<Sequencer<()>>>>,
    stats: TierMeter,
    /// Payload bytes landed on each destination shard (pushes + pulls),
    /// published as `runtime.ps.bytes{shard=<w>}`.
    shard_bytes: Vec<Arc<Counter>>,
    /// Sender-held counter per `(src, dst)` rehome channel.
    rehome_seq: Mutex<BTreeMap<(u32, u32), SeqCounter>>,
    /// The receiving end of each `(src, dst)` rehome channel: duplicates of
    /// an applied move are discarded, which is what makes it idempotent
    /// under lost acks.
    rehomed: Mutex<BTreeMap<(u32, u32), Sequencer<()>>>,
    /// The plane every push, pull and rehome message crosses. Unarmed and
    /// off the registry until [`attach`](Self::attach)ed to a run's.
    plane: Arc<FaultPlane>,
    policy: RetryPolicy,
    /// `seqs[worker]`: that worker's sender-side counters, locked for the
    /// whole push or drain so its messages leave in sequence order.
    seqs: Vec<Mutex<ChannelSeqs>>,
    /// `steps[worker]`: the pushes that worker has made, each staged whole
    /// before the count goes up. A push's tag is this count.
    steps: Vec<AtomicU64>,
    /// `runtime.ps.shared_applies`: applies that found the weights pinned.
    #[cfg(test)]
    shared_applies: Arc<Counter>,
}

impl SparseParamServer {
    /// Shards `features` by `partition` across `workers` shards. `lr` is the
    /// AdaGrad learning rate for pushed deltas (0 freezes the features,
    /// which is what the sequential-parity mode uses). Counters stay
    /// detached; see [`new_registered`](Self::new_registered).
    pub fn new(partition: &Partition, features: &FeatureMatrix, lr: f32, cost: CostModel) -> Self {
        Self::new_registered(partition, features, lr, cost, &Registry::disabled())
    }

    /// Like [`new`](Self::new), publishing the comm meters in `registry`:
    /// `runtime.ps.ops{tier=...}`, `runtime.ps.bytes{tier=...}`,
    /// `runtime.ps.virtual_ns`, and per-destination-shard payload counters
    /// `runtime.ps.bytes{shard=<w>}`.
    pub fn new_registered(
        partition: &Partition,
        features: &FeatureMatrix,
        lr: f32,
        cost: CostModel,
        registry: &Registry,
    ) -> Self {
        Self::new_elastic(partition, features, lr, cost, registry, partition.num_workers())
    }

    /// Like [`new_registered`](Self::new_registered) but pre-allocating
    /// `slots >= workers` shard slots. The extra slots start empty and
    /// receive rows when an elastic shard split
    /// ([`rehome`](Self::rehome)s) lands — pre-allocation keeps slot
    /// indices, sequence tables, and telemetry labels stable for the whole
    /// run. The server pins `features`: its first apply copies them.
    pub fn new_elastic(
        partition: &Partition,
        features: &FeatureMatrix,
        lr: f32,
        cost: CostModel,
        registry: &Registry,
        slots: usize,
    ) -> Self {
        let n = features.len();
        let workers = partition.num_workers();
        let slots = slots.max(workers);
        let owner =
            (0..n as u32).map(|v| AtomicU32::new(partition.owner_of(VertexId(v)).0)).collect();
        let accum = vec![0.0; features.as_slice().len()];
        let dirty = (0..workers).map(|_| Mutex::new(vec![0u64; n.div_ceil(64)])).collect();
        let pushed = (0..slots)
            .map(|_| Mutex::new((0..workers).map(|_| Sequencer::new()).collect()))
            .collect();
        let shard_bytes = (0..slots)
            .map(|w| registry.counter("runtime.ps.bytes", &[("shard", &w.to_string())]))
            .collect();
        SparseParamServer {
            dim: features.dim,
            lr,
            cost,
            owner,
            slots,
            rows: Mutex::new(Rows { weights: features.clone(), accum }),
            inbox: Mutex::default(),
            dirty,
            pushed,
            stats: TierMeter::registered(registry, "runtime.ps"),
            shard_bytes,
            rehome_seq: Mutex::new(BTreeMap::new()),
            rehomed: Mutex::new(BTreeMap::new()),
            plane: Arc::new(FaultPlane::new(FaultPlan::default())),
            policy: RetryPolicy::default(),
            seqs: (0..workers).map(|_| Mutex::new(ChannelSeqs::new(slots))).collect(),
            steps: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            #[cfg(test)]
            shared_applies: registry.counter("runtime.ps.shared_applies", &[]),
        }
    }

    /// Routes the server's messages through a run's `plane` under `policy`.
    /// The surviving update stream is byte-identical to the fault-free one;
    /// only the modelled time differs.
    pub fn attach(mut self, plane: Arc<FaultPlane>, policy: RetryPolicy) -> Self {
        self.plane = plane;
        self.policy = policy;
        self
    }

    /// The shard slot currently owning a vertex's row.
    #[inline]
    fn owner_slot(&self, v: u32) -> usize {
        // ordering: Acquire pairs with the Release stores of `load` and
        // `apply_rehome`, which run while no worker steps.
        self.owner[v as usize].load(Ordering::Acquire) as usize
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.slots
    }

    /// Comm counters.
    pub fn stats(&self) -> &TierMeter {
        &self.stats
    }

    /// Zeroes the comm meters (tier counters and per-shard bytes) — the
    /// attempt loop calls this so a fault-recovery retry reports only its
    /// own traffic, exactly like the pre-registry per-attempt counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
        for c in &self.shard_bytes {
            c.reset();
        }
    }

    /// Pushes one step's row-sparse feature gradients from worker `from` to
    /// the owning shards, where they wait for the cut after this step (see
    /// the module docs), and counts the step. An empty map sends nothing but
    /// still counts. Rows are batched into **one message per destination
    /// shard** (the paper's request batching): each is sequence-numbered on
    /// its `from → shard` channel and crosses the plane as one
    /// [`HopKind::Acked`] hop; the copies a lost ack or the reorder fault
    /// land are discarded by the shard's sequence dedup. A delivered message
    /// costs one [`CostModel`] latency plus its rows' payload bytes on that
    /// message's tier, and each tick the hop cost adds [`TICK_NS`]. Returns
    /// the modelled comm time in nanoseconds.
    ///
    /// Each message carries its rows ascending, so `HashMap` iteration
    /// order cannot reach the parameters. An unknown row, or one of the
    /// wrong width, is an error before any message leaves, and the step
    /// does not count.
    pub fn push(&self, from: usize, grads: &HashMap<u32, Vec<f32>>) -> Result<u64, RuntimeError> {
        let row_bytes = self.dim as u64 * 4;
        let mut by_shard: Vec<Vec<(u32, &[f32])>> = vec![Vec::new(); self.slots];
        let mut ordered: Vec<(&u32, &Vec<f32>)> = grads.iter().collect();
        ordered.sort_unstable_by_key(|(v, _)| **v);
        for (&v, g) in ordered {
            if v as usize >= self.owner.len() || g.len() != self.dim {
                return Err(RuntimeError::Unrecoverable(format!("ps push: bad row {v}")));
            }
            by_shard[self.owner_slot(v)].push((v, g.as_slice()));
        }
        let mut seqs = self.seqs[from].lock().map_err(|_| RuntimeError::Poisoned("ps seqs"))?;
        // ordering: only `from`'s own pushes store this count, and they
        // hold `seqs[from]`.
        let step = self.steps[from].load(Ordering::Relaxed);
        let mut ns = 0u64;
        for (w, rows) in by_shard.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let seq = seqs.push[w].next_seq();
            let channel = FaultPlane::channel_with(PS_PUSH_TAG, from as u64, w as u64);
            // The driver's `land` cannot fail; a poisoned lock stops
            // further stages and surfaces after the hop.
            let mut applied = Ok(());
            let ticks = self
                .plane
                .deliver(channel, seq, &self.policy, HopKind::Acked, || {
                    if applied.is_ok() {
                        applied = self.stage_push_message(w, from, seq, step, rows);
                    }
                })
                .map_err(|e| {
                    RuntimeError::Unrecoverable(format!(
                        "ps push {from}->{w} seq {}: {e}",
                        seq.get()
                    ))
                })?;
            applied?;
            ns += ticks * TICK_NS;
            let kind = if w == from { AccessKind::Local } else { AccessKind::Remote };
            ns += self.stats.record(kind, rows.len() as u64 * row_bytes, &self.cost);
            self.shard_bytes[w].add(rows.len() as u64 * row_bytes);
        }
        // ordering: Release pairs with the Acquire loads in `min_cut` and
        // `drain_into`, so a reader that counts this step finds its
        // messages in the inboxes.
        self.steps[from].store(step + 1, Ordering::Release);
        Ok(ns)
    }

    /// Stages (or dedup-discards) one sequenced push message to shard `w`,
    /// after the staged messages of its `(step, sender)` and every lower one.
    fn stage_push_message(
        &self,
        w: usize,
        from: usize,
        seq: Seq,
        step: u64,
        rows: &[(u32, &[f32])],
    ) -> Result<(), RuntimeError> {
        let mut pushed =
            self.pushed[w].lock().map_err(|_| RuntimeError::Poisoned("ps push sequencers"))?;
        // The sender drives one message at a time to delivery, so a copy
        // releases its own delta or, as a duplicate, nothing.
        if pushed[from].offer(seq.get(), ()).is_empty() {
            return Ok(());
        }
        drop(pushed);
        let grads = rows.iter().flat_map(|&(_, g)| g.iter().copied()).collect();
        let rows = rows.iter().map(|&(v, _)| v).collect();
        let staged = StagedPush { step, sender: from as u32, rows, grads };
        let mut inbox = self.inbox.lock().map_err(|_| RuntimeError::Poisoned("ps inbox"))?;
        let at = inbox.partition_point(|m| m.key() <= staged.key());
        inbox.insert(at, staged);
        Ok(())
    }

    /// The cut every worker has reached: the smallest push count.
    fn min_cut(&self) -> u64 {
        // ordering: Acquire pairs with `push`'s Release store.
        self.steps.iter().map(|s| s.load(Ordering::Acquire)).min().unwrap_or(0)
    }

    /// The rows at `cut`, locked: applies every staged message with a step
    /// below `cut`, in the inbox's `(step, sender)` order, and marks the rows
    /// dirty for every worker. The inbox is taken and applied under the one
    /// rows lock, so a caller that finds nothing due has every due message
    /// applied. The weights are made unique once, when something is due: in
    /// place unless an older pin is alive.
    fn rows_at(&self, cut: u64) -> Result<MutexGuard<'_, Rows>, RuntimeError> {
        let mut rows = self.rows.lock().map_err(|_| RuntimeError::Poisoned("ps rows"))?;
        let due: Vec<StagedPush> = {
            let mut inbox = self.inbox.lock().map_err(|_| RuntimeError::Poisoned("ps inbox"))?;
            let n = inbox.partition_point(|m| m.step < cut);
            inbox.drain(..n).collect()
        };
        if due.is_empty() {
            return Ok(rows);
        }
        let Rows { weights, accum } = &mut *rows;
        #[cfg(test)]
        let pinned = weights.as_slice().as_ptr();
        let weights = weights.as_mut_slice();
        #[cfg(test)]
        if weights.as_ptr() != pinned {
            self.shared_applies.add(1);
        }
        let d = self.dim;
        for m in &due {
            for (&v, g) in m.rows.iter().zip(m.grads.chunks_exact(d)) {
                let row = v as usize * d..(v as usize + 1) * d;
                adagrad_row(&mut weights[row.clone()], &mut accum[row], g, self.lr);
            }
        }
        for marks in &self.dirty {
            let mut marks = marks.lock().map_err(|_| RuntimeError::Poisoned("ps dirty set"))?;
            for &v in due.iter().flat_map(|m| &m.rows) {
                marks[v as usize / 64] |= 1 << (v % 64);
            }
        }
        Ok(rows)
    }

    /// Pull barrier for worker `who` at the cut of its own push count `t`:
    /// applies the staged pushes of every step below `t`, then pins the
    /// server's rows at cut `t` as `replica`. The rows stay at that cut
    /// while `who` holds the pin: a later apply copies them first. A worker
    /// that has not yet pushed step `t - 1` makes it a
    /// [`RuntimeError::DrainBeforeCut`], with nothing applied or pinned:
    /// waiting for the cut is the caller's job.
    ///
    /// The drain meters what a pull of a real cluster moves: every row
    /// applied since `who`'s last drain, batched like pushes into one
    /// metered response per owner shard, sequence-numbered on its
    /// `shard → who` channel and crossing the plane as one
    /// [`HopKind::Reply`] hop. Responses are idempotent reads, so no dedup
    /// is needed; a dropped response is re-sent, since its rows already
    /// left the dirty set. Returns modelled comm nanoseconds.
    pub fn drain_into(&self, who: usize, replica: &mut FeatureMatrix) -> Result<u64, RuntimeError> {
        // ordering: only `who` stores its own count.
        let cut = self.steps[who].load(Ordering::Relaxed);
        if let Some(behind) = self.steps.iter().position(|s| s.load(Ordering::Acquire) < cut) {
            return Err(RuntimeError::DrainBeforeCut { worker: who, cut, behind });
        }
        let pin = self.rows_at(cut)?.weights.clone();
        let mut seqs = self.seqs[who].lock().map_err(|_| RuntimeError::Poisoned("ps seqs"))?;
        let rows = take_marks(
            &mut self.dirty[who].lock().map_err(|_| RuntimeError::Poisoned("ps dirty set"))?,
        );
        let mut by_shard = vec![0u64; self.slots];
        for v in rows {
            by_shard[self.owner_slot(v)] += 1;
        }
        let row_bytes = self.dim as u64 * 4;
        let mut ns = 0u64;
        for (w, &rows) in by_shard.iter().enumerate() {
            if rows == 0 {
                continue;
            }
            let seq = seqs.pull[w].next_seq();
            let channel = FaultPlane::channel_with(PS_PULL_TAG, w as u64, who as u64);
            // The rows are pinned, not carried: nothing lands with the hop.
            let ticks = self
                .plane
                .deliver(channel, seq, &self.policy, HopKind::Reply, || {})
                .map_err(|e| {
                    RuntimeError::Unrecoverable(format!(
                        "ps pull {w}->{who} seq {}: {e}",
                        seq.get()
                    ))
                })?;
            ns += ticks * TICK_NS;
            let kind = if w == who { AccessKind::Local } else { AccessKind::Remote };
            ns += self.stats.record(kind, rows * row_bytes, &self.cost);
            self.shard_bytes[w].add(rows * row_bytes);
        }
        *replica = pin;
        Ok(ns)
    }

    /// Meters the embedding-row reads of one training step (the rows the
    /// tape touched): own-shard rows are `Local`, remote-owned rows are
    /// `CachedRemote` because the replica serves them without a round trip.
    /// An unknown row is an error before any meter moves.
    pub fn record_reads<'a, I>(&self, who: usize, rows: I) -> Result<u64, RuntimeError>
    where
        I: IntoIterator<Item = &'a u32>,
        I::IntoIter: Clone,
    {
        let rows = rows.into_iter();
        let bad = rows.clone().find(|&&v| v as usize >= self.owner.len());
        bad.map_or(Ok(()), |v| Err(RuntimeError::Unrecoverable(format!("ps read: bad row {v}"))))?;
        let row_bytes = self.dim as u64 * 4;
        let mut ns = 0u64;
        for &v in rows {
            let kind = if self.owner_slot(v) == who {
                AccessKind::Local
            } else {
                AccessKind::CachedRemote
            };
            ns += self.stats.record(kind, row_bytes, &self.cost);
        }
        Ok(ns)
    }

    /// A pin of the server's rows at the cut every worker has reached: the
    /// final feature matrix of a run. It is a clone of the buffer, not a
    /// copy; a later apply copies the rows before it writes.
    pub fn materialize(&self) -> Result<FeatureMatrix, RuntimeError> {
        Ok(self.rows_at(self.min_cut())?.weights.clone())
    }

    /// A pin of the server's rows as they stand, nothing applied: a worker's
    /// replica at the start of an attempt, the rows at its last drain.
    pub(crate) fn pin(&self) -> Result<FeatureMatrix, RuntimeError> {
        Ok(self.rows.lock().map_err(|_| RuntimeError::Poisoned("ps rows"))?.weights.clone())
    }

    /// The server as it stands, for a checkpoint: the owner table, the rows
    /// and their accumulators, and the staged pushes. Nothing is applied.
    pub fn export(&self) -> Result<PsState, RuntimeError> {
        let rows = self.rows.lock().map_err(|_| RuntimeError::Poisoned("ps rows"))?;
        let staged = self.inbox.lock().map_err(|_| RuntimeError::Poisoned("ps inbox"))?.clone();
        Ok(PsState {
            owners: (0..self.owner.len() as u32).map(|v| self.owner_slot(v) as u32).collect(),
            weights: rows.weights.as_slice().to_vec(),
            accum: rows.accum.clone(),
            staged,
        })
    }

    /// Restores an [`export`](Self::export) taken at cut `step`: the owner
    /// table (so a checkpoint written after an elastic rebalance restores
    /// onto a fresh, partition-rostered server without a replay of the
    /// rebalance), the rows, the staged pushes, and every worker's push
    /// count at `step`. The state is outside input, so the whole of it is
    /// checked before anything changes: every owner is a slot, and every
    /// staged message, in `(step, sender)` order, has a sender below the
    /// worker count, a step below `step`, strictly ascending rows of the
    /// server and `rows × dim` gradients.
    pub fn load(&self, state: &PsState, step: u64) -> Result<(), RuntimeError> {
        let (n, d) = (self.owner.len(), self.dim);
        let refuse = |m: String| Err(RuntimeError::Checkpoint(format!("PS state: {m}")));
        if state.owners.len() != n {
            return refuse(format!("{} owners for {n} vertices", state.owners.len()));
        }
        if let Some(v) = state.owners.iter().position(|&o| o as usize >= self.slots) {
            return refuse(format!(
                "vertex {v} owned by slot {}, of {}",
                state.owners[v], self.slots
            ));
        }
        if state.weights.len() != n * d || state.accum.len() != n * d {
            let (w, a) = (state.weights.len(), state.accum.len());
            return refuse(format!("{w} weights and {a} accumulators for {n} rows of {d}"));
        }
        for (i, m) in state.staged.iter().enumerate() {
            let refuse = |why: &str| refuse(format!("staged push {i}: {why}"));
            if m.sender as usize >= self.steps.len() {
                return refuse("sender beyond the workers");
            }
            if m.step >= step {
                return refuse("step at or past the cut");
            }
            if i > 0 && state.staged[i - 1].key() > m.key() {
                return refuse("out of (step, sender) order");
            }
            let beyond = m.rows.last().is_some_and(|&v| v as usize >= n);
            if beyond || !m.rows.windows(2).all(|p| p[0] < p[1]) {
                return refuse("rows not strictly ascending server rows");
            }
            if m.grads.len() != m.rows.len() * d {
                return refuse("gradients not one row per row");
            }
        }
        let mut rows = self.rows.lock().map_err(|_| RuntimeError::Poisoned("ps rows"))?;
        rows.weights.as_mut_slice().copy_from_slice(&state.weights);
        rows.accum.copy_from_slice(&state.accum);
        *self.inbox.lock().map_err(|_| RuntimeError::Poisoned("ps inbox"))? = state.staged.clone();
        // ordering: Release pairs with the Acquire loads of owner_slot(),
        // min_cut() and drain_into(); load runs before any worker thread
        // starts, so this is belt and braces.
        for (owner, &slot) in self.owner.iter().zip(&state.owners) {
            owner.store(slot, Ordering::Release);
        }
        for count in &self.steps {
            count.store(step, Ordering::Release);
        }
        Ok(())
    }

    /// Re-homes embedding rows to follow a new physical residency (the
    /// storage layer's post-rebalance `Residency` snapshot): every row
    /// whose owner table disagrees with `residency` moves to its new shard
    /// slot over the server's plane (tag [`MIGRATION_TAG`], one batched
    /// message per `(src, dst)` shard pair, sequence-deduplicated).
    ///
    /// Called where no push or drain is in flight: the epoch-boundary
    /// allreduce barrier, where every worker is parked. A move re-points
    /// ownership and applies nothing: the rows, their AdaGrad accumulators
    /// and the staged pushes stay where they are, and the inbox's `(step,
    /// sender)` order does not depend on owners, so the math after the move
    /// is bit-identical to not having moved; only the comm *accounting*
    /// changes (rows now local to a different slot), and each message is
    /// metered as the rows it would carry. Returns modelled comm
    /// nanoseconds.
    pub fn rehome(&self, residency: &[u32]) -> Result<u64, RuntimeError> {
        if residency.len() != self.owner.len() {
            return Err(RuntimeError::Unrecoverable(format!(
                "rehome residency covers {} vertices, PS has {}",
                residency.len(),
                self.owner.len()
            )));
        }
        // Group the moves: (src, dst) -> ascending vertex ids. BTreeMap so
        // message order (and thus fault-plane decisions) is deterministic.
        let mut moves: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
        for (v, &dst) in residency.iter().enumerate() {
            let src = self.owner_slot(v as u32) as u32;
            if src == dst {
                continue;
            }
            if dst as usize >= self.slots {
                return Err(RuntimeError::Unrecoverable(format!(
                    "rehome of vertex {v} to slot {dst}, but PS has {} slots \
                     (pre-allocate with new_elastic)",
                    self.slots
                )));
            }
            moves.entry((src, dst)).or_default().push(v as u32);
        }
        let row_bytes = self.dim as u64 * 4;
        let mut ns = 0u64;
        for (&(src, dst), rows) in &moves {
            let seq = self
                .rehome_seq
                .lock()
                .map_err(|_| RuntimeError::Poisoned("rehome seq"))?
                .entry((src, dst))
                .or_default()
                .next_seq();
            let channel = FaultPlane::channel_with(MIGRATION_TAG, u64::from(src), u64::from(dst));
            let mut applied = Ok(());
            let ticks = self
                .plane
                .deliver(channel, seq, &self.policy, HopKind::Acked, || {
                    if applied.is_ok() {
                        applied = self.apply_rehome(src, dst, seq, rows);
                    }
                })
                .map_err(|e| {
                    RuntimeError::Unrecoverable(format!(
                        "ps rehome {src}->{dst} seq {}: {e}",
                        seq.get()
                    ))
                })?;
            applied?;
            ns += ticks * TICK_NS;
            ns += self.stats.record(AccessKind::Remote, rows.len() as u64 * row_bytes, &self.cost);
            self.shard_bytes[dst as usize].add(rows.len() as u64 * row_bytes);
        }
        Ok(ns)
    }

    /// Applies (or dedup-discards) one sequenced rehome message: re-points
    /// the rows from `src` to `dst`.
    fn apply_rehome(&self, src: u32, dst: u32, seq: Seq, rows: &[u32]) -> Result<(), RuntimeError> {
        let mut rehomed =
            self.rehomed.lock().map_err(|_| RuntimeError::Poisoned("rehome sequencers"))?;
        // One move in flight per channel: a copy releases its own move or,
        // as a duplicate, nothing.
        if rehomed.entry((src, dst)).or_default().offer(seq.get(), ()).is_empty() {
            return Ok(());
        }
        for &v in rows {
            // ordering: Release pairs with owner_slot()'s Acquire.
            self.owner[v as usize].store(dst, Ordering::Release);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_graph::Featurizer;
    use aligraph_partition::{EdgeCutHash, Partitioner};
    use aligraph_storage::TierMeterSnapshot;

    fn setup(workers: usize) -> (SparseParamServer, FeatureMatrix, Partition) {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let f = Featurizer::new(8).matrix(&g);
        let p = EdgeCutHash.partition(&g, workers);
        (SparseParamServer::new(&p, &f, 0.1, CostModel::default()), f, p)
    }

    #[test]
    fn materialize_roundtrips_initial_features() {
        let (ps, f, _) = setup(4);
        assert_eq!(ps.materialize().unwrap().as_slice(), f.as_slice());
        assert_eq!(ps.num_shards(), 4);
    }

    /// Worker `who`'s pending dirty marks, read without clearing them.
    fn pending(ps: &SparseParamServer, who: usize) -> Vec<u32> {
        take_marks(&mut ps.dirty[who].lock().unwrap().clone())
    }

    #[test]
    fn overlapping_pushes_drain_as_one_ascending_union_per_worker() {
        let (ps, f, p) = setup(2);
        let p = &p;
        let owned_by =
            |w: usize| (0..f.len() as u32).filter(move |&v| p.owner_of(VertexId(v)).index() == w);
        let (a, b): (Vec<u32>, Vec<u32>) =
            (owned_by(0).take(3).collect(), owned_by(1).take(2).collect());
        let first: HashMap<u32, Vec<f32>> =
            [a[2], a[0], b[1]].iter().map(|&v| (v, vec![0.5; 8])).collect();
        let second: HashMap<u32, Vec<f32>> =
            [a[1], a[0], b[0]].iter().map(|&v| (v, vec![-0.25; 8])).collect();
        ps.push(0, &first).unwrap();
        ps.push(1, &second).unwrap();
        // Staged pushes mark nothing until a read of the cut applies them.
        assert_eq!((pending(&ps, 0), pending(&ps, 1)), (vec![], vec![]));
        let server = ps.materialize().unwrap();
        let mut union = vec![a[0], a[1], a[2], b[0], b[1]];
        union.sort_unstable();
        assert_eq!((pending(&ps, 0), pending(&ps, 1)), (union.clone(), union.clone()));

        let mut replicas = [f.clone(), f.clone()];
        for (w, replica) in replicas.iter_mut().enumerate() {
            let before = ps.stats().snapshot();
            ps.drain_into(w, replica).unwrap();
            let after = ps.stats().snapshot();
            // One metered response from each of the two contributing shards.
            assert_eq!(after.total_ops() - before.total_ops(), 2);
            assert_eq!(after.local_ops - before.local_ops, 1);
            assert_eq!(
                (after.local_bytes + after.remote_bytes)
                    - (before.local_bytes + before.remote_bytes),
                union.len() as u64 * 8 * 4
            );
            assert_eq!(replica.as_slice(), server.as_slice());
            assert!(pending(&ps, w).is_empty());
            if w == 0 {
                assert_eq!(pending(&ps, 1), union, "worker 1's marks stay until it drains");
            }
            // A second drain moves nothing.
            ps.drain_into(w, replica).unwrap();
            assert_eq!(ps.stats().snapshot(), after);
        }
    }

    #[test]
    fn a_row_the_server_does_not_hold_is_an_error() {
        let (ps, f, _) = setup(2);
        let n = f.len() as u32;
        let before = ps.materialize().unwrap();
        // Vertex `n` is unknown; the valid row beside it must not apply.
        let bad: HashMap<u32, Vec<f32>> = [(0, vec![1.0; 8]), (n, vec![1.0; 8])].into();
        assert!(matches!(ps.push(0, &bad), Err(RuntimeError::Unrecoverable(_))));
        // So is a row of the wrong width.
        let narrow: HashMap<u32, Vec<f32>> = [(0, vec![1.0; 7])].into();
        assert!(matches!(ps.push(0, &narrow), Err(RuntimeError::Unrecoverable(_))));
        assert_eq!(ps.materialize().unwrap().as_slice(), before.as_slice());
        assert!(pending(&ps, 0).is_empty());
        // A following valid push still applies: the failed ones were no step.
        ps.push(0, &[(0, vec![1.0; 8])].into()).unwrap();
        ps.push(1, &HashMap::new()).unwrap();
        assert_ne!(ps.materialize().unwrap().as_slice(), before.as_slice());
        assert_eq!(pending(&ps, 1), vec![0]);
    }

    #[test]
    fn read_metering_splits_local_and_cached() {
        let (ps, f, p) = setup(2);
        let local = (0..f.len() as u32).find(|&v| p.owner_of(VertexId(v)).index() == 0).unwrap();
        let remote = (0..f.len() as u32).find(|&v| p.owner_of(VertexId(v)).index() == 1).unwrap();
        ps.record_reads(0, [local, remote].iter()).unwrap();
        let snap = ps.stats().snapshot();
        assert_eq!((snap.local_ops, snap.cached_ops, snap.remote_ops), (1, 1, 0));
    }

    #[test]
    fn an_unknown_read_row_is_an_error_and_meters_nothing() {
        let (ps, f, _) = setup(2);
        let before = ps.stats().snapshot();
        let err = ps.record_reads(0, [0, f.len() as u32].iter()).unwrap_err();
        assert!(matches!(&err, RuntimeError::Unrecoverable(m) if m.contains("bad row")), "{err}");
        assert_eq!(ps.stats().snapshot(), before);
    }

    #[test]
    fn export_load_roundtrip_and_mismatch_errors() {
        let (ps, f, p) = setup(3);
        ps.push(0, &[(0, vec![0.5; 8])].into()).unwrap();
        for w in 1..3 {
            ps.push(w, &[(w as u32 * 7, vec![-0.25; 8])].into()).unwrap();
        }
        ps.push(2, &[(5, vec![1.0; 8])].into()).unwrap();
        ps.push(0, &HashMap::new()).unwrap();
        ps.push(1, &HashMap::new()).unwrap();
        // The export at cut 2 copies the server as it stands: nothing is
        // applied.
        let state = ps.export().unwrap();
        assert_eq!(state.weights, f.as_slice());
        assert!(state.accum.iter().all(|&a| a == 0.0));
        let keys: Vec<(u64, u32)> = state.staged.iter().map(StagedPush::key).collect();
        assert_eq!(keys, [(0, 0), (0, 1), (0, 2), (1, 2)]);
        // A load restores it with every push count at the cut, so the next
        // read applies what the original's would.
        let fresh = SparseParamServer::new(&p, &f, 0.1, CostModel::default());
        fresh.load(&state, 2).unwrap();
        assert_eq!(fresh.export().unwrap(), state);
        assert!(fresh.steps.iter().all(|s| s.load(Ordering::Relaxed) == 2));
        assert_ne!(fresh.materialize().unwrap().as_slice(), f.as_slice());
        ps.materialize().unwrap();
        assert_eq!(fresh.export().unwrap(), ps.export().unwrap());
        // A short owner table is a checkpoint error, not a panic, and
        // changes nothing.
        let mut short = state.clone();
        short.owners.pop();
        let before = fresh.export().unwrap();
        assert!(matches!(fresh.load(&short, 2), Err(RuntimeError::Checkpoint(_))));
        assert_eq!(fresh.export().unwrap(), before);
    }

    /// A row that moves between two of its pushes takes them in step
    /// order, whatever shards they were sent to: bit for bit the server
    /// that never moved it. AdaGrad's accumulator makes the order show.
    #[test]
    fn a_row_moved_between_its_pushes_applies_them_in_step_order() {
        let (_, f, p) = setup(2);
        let disabled = Registry::disabled();
        let elastic =
            || SparseParamServer::new_elastic(&p, &f, 0.1, CostModel::default(), &disabled, 3);
        let v = (0..f.len() as u32).find(|&v| p.owner_of(VertexId(v)).index() == 1).unwrap();
        let mut home: Vec<u32> = (0..f.len() as u32).map(|v| p.owner_of(VertexId(v)).0).collect();
        home[v as usize] = 0;
        let bits = |ps: &SparseParamServer| -> Vec<u32> {
            ps.materialize().unwrap().as_slice().iter().map(|x| x.to_bits()).collect()
        };
        let run = |moved: bool| {
            let ps = elastic();
            ps.push(0, &[(v, vec![0.9; 8])].into()).unwrap();
            if moved {
                // Slot 1 to slot 0: the later push lands on a lower slot.
                ps.rehome(&home).unwrap();
            }
            ps.push(0, &[(v, vec![-0.3; 8])].into()).unwrap();
            ps.push(1, &HashMap::new()).unwrap();
            ps.push(1, &HashMap::new()).unwrap();
            ps
        };
        let (moved, stayed) = (run(true), run(false));
        assert_eq!(moved.owner_slot(v), 0);
        assert!(bits(&moved) == bits(&stayed), "row {v}'s pushes applied out of step order");
        // The oracle: the two pushes applied at two cuts, in step order.
        let serial = elastic();
        serial.push(0, &[(v, vec![0.9; 8])].into()).unwrap();
        serial.push(1, &HashMap::new()).unwrap();
        serial.materialize().unwrap();
        serial.push(0, &[(v, vec![-0.3; 8])].into()).unwrap();
        serial.push(1, &HashMap::new()).unwrap();
        assert!(bits(&moved) == bits(&serial), "row {v}'s pushes applied out of step order");
    }

    #[test]
    fn registered_ps_publishes_tier_and_shard_series() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let f = Featurizer::new(8).matrix(&g);
        let p = EdgeCutHash.partition(&g, 2);
        let registry = Registry::new();
        let ps = SparseParamServer::new_registered(&p, &f, 0.1, CostModel::default(), &registry);
        let local = (0..f.len() as u32).find(|&v| p.owner_of(VertexId(v)).index() == 0).unwrap();
        let remote = (0..f.len() as u32).find(|&v| p.owner_of(VertexId(v)).index() == 1).unwrap();
        let mut grads = HashMap::new();
        grads.insert(local, vec![1.0; 8]);
        grads.insert(remote, vec![-1.0; 8]);
        ps.push(0, &grads).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("runtime.ps.ops", &[("tier", "local")]), 1);
        assert_eq!(snap.counter("runtime.ps.ops", &[("tier", "remote")]), 1);
        // One 8-dim f32 row landed on each shard: 32 payload bytes apiece.
        assert_eq!(snap.counter("runtime.ps.bytes", &[("shard", "0")]), 32);
        assert_eq!(snap.counter("runtime.ps.bytes", &[("shard", "1")]), 32);
        ps.reset_stats();
        assert_eq!(ps.stats().snapshot(), TierMeterSnapshot::default());
        assert_eq!(registry.snapshot().counter("runtime.ps.bytes", &[("shard", "0")]), 0);
    }

    fn seeded_plane(seed: u64, drop: f64) -> Arc<FaultPlane> {
        Arc::new(FaultPlane::new(FaultPlan::with_seed(seed, drop)))
    }

    /// Runs a fixed 12-step push/drain workload on 2 workers of `ps`,
    /// returning final server params ++ both replicas and the modelled
    /// nanoseconds the pushes and drains reported.
    fn drive_workload(ps: &SparseParamServer, f: &FeatureMatrix) -> (Vec<f32>, u64) {
        let mut replicas = [f.clone(), f.clone()];
        let mut ns = 0u64;
        for step in 0..12u32 {
            for w in 0..2 {
                let mut grads = HashMap::new();
                for k in 0..4u32 {
                    let v = (step * 7 + k * 3 + w as u32) % f.len() as u32;
                    grads.insert(v, vec![0.1 * (k as f32 + 1.0); 8]);
                }
                ns += ps.push(w, &grads).unwrap();
            }
            for (w, replica) in replicas.iter_mut().enumerate() {
                ns += ps.drain_into(w, replica).unwrap();
            }
        }
        let mut out = ps.materialize().unwrap().as_slice().to_vec();
        for replica in &replicas {
            out.extend_from_slice(replica.as_slice());
        }
        (out, ns)
    }

    /// [`drive_workload`] on a server attached to a seeded plane, returning
    /// the state and the plane's fault counters. `drop = 0` is the clean
    /// baseline (the plane delivers everything).
    fn run_workload(drop: f64, seed: u64) -> (Vec<f32>, aligraph_chaos::FaultSnapshot) {
        let (ps, f, _) = setup(2);
        let plane = seeded_plane(seed, drop);
        let ps = ps.attach(Arc::clone(&plane), RetryPolicy::default());
        (drive_workload(&ps, &f).0, plane.snapshot())
    }

    #[test]
    fn unarmed_is_clean() {
        let (fresh, f, _) = setup(2);
        let (attached, _, _) = setup(2);
        let plane = seeded_plane(9, 0.0);
        let attached = attached.attach(Arc::clone(&plane), RetryPolicy::default());
        let (a, a_ns) = drive_workload(&fresh, &f);
        let (b, b_ns) = drive_workload(&attached, &f);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "a fresh server and one on a zero-drop plane must agree bit for bit"
        );
        assert!(a_ns > 0, "the workload must move rows");
        assert_eq!(a_ns, b_ns, "an unarmed hop costs zero ticks");
        assert_eq!(fresh.stats().snapshot(), attached.stats().snapshot());
        assert_eq!(plane.snapshot(), aligraph_chaos::FaultSnapshot::default());
        assert_eq!(fresh.plane.snapshot(), aligraph_chaos::FaultSnapshot::default());
    }

    #[test]
    fn faulted_push_pull_is_bit_exact_with_full_recovery() {
        let (clean, quiet) = run_workload(0.0, 0);
        assert_eq!(quiet.faults_injected, 0);
        for seed in [1u64, 7, 42] {
            let (faulted, snap) = run_workload(0.3, seed);
            assert!(snap.faults_injected > 0, "seed {seed}: no faults fired");
            assert!(snap.retries > 0, "seed {seed}: no retries performed");
            assert_eq!(
                clean.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                faulted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "seed {seed}: faulted run diverged from clean run"
            );
        }
    }

    /// An elastic PS (one spare slot) after a few training pushes, plus the
    /// residency that moves every even-id worker-0 vertex to the spare slot.
    fn elastic_setup() -> (SparseParamServer, Partition, Vec<u32>) {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let f = Featurizer::new(8).matrix(&g);
        let p = EdgeCutHash.partition(&g, 2);
        let ps = SparseParamServer::new_elastic(
            &p,
            &f,
            0.1,
            CostModel::default(),
            &Registry::disabled(),
            3,
        );
        // A few pushes so AdaGrad accumulators exist and must survive the
        // move bit-for-bit.
        for step in 0..4u32 {
            let mut grads = HashMap::new();
            for k in 0..4u32 {
                grads.insert((step * 5 + k) % f.len() as u32, vec![0.2; 8]);
            }
            ps.push(0, &grads).unwrap();
            ps.push(1, &HashMap::new()).unwrap();
        }
        let residency: Vec<u32> = (0..f.len() as u32)
            .map(|v| {
                let owner = p.owner_of(VertexId(v)).index() as u32;
                if owner == 0 && v % 2 == 0 {
                    2
                } else {
                    owner
                }
            })
            .collect();
        (ps, p, residency)
    }

    #[test]
    fn rehome_moves_rows_losslessly() {
        let (ps, _, residency) = elastic_setup();
        let before = ps.materialize().unwrap();
        let before_state = ps.export().unwrap();
        let ns = ps.rehome(&residency).unwrap();
        assert!(ns > 0, "a real move must cost modelled time");
        // The math is location-independent: materialized rows identical.
        assert_eq!(ps.materialize().unwrap().as_slice(), before.as_slice());
        // Only the owner table changed: the spare slot owns the moved rows,
        // and their rows and AdaGrad state are where they were.
        let after_state = ps.export().unwrap();
        assert_eq!(after_state.owners, residency);
        assert_eq!(after_state.weights, before_state.weights);
        assert_eq!(after_state.accum, before_state.accum);
        let moved = residency.iter().position(|&slot| slot == 2).unwrap() as u32;
        // A second identical rehome is a no-op (nothing left to move).
        let ns2 = ps.rehome(&residency).unwrap();
        assert_eq!(ns2, 0);
        // Pushes to moved rows now land on the new shard and still train.
        let mut grads = HashMap::new();
        grads.insert(moved, vec![1.0; 8]);
        ps.push(1, &grads).unwrap();
        ps.push(0, &HashMap::new()).unwrap();
        assert_ne!(ps.materialize().unwrap().as_slice(), before.as_slice());
    }

    #[test]
    fn faulted_rehome_matches_clean_rehome_exactly() {
        let (clean_ps, _, residency) = elastic_setup();
        clean_ps.rehome(&residency).unwrap();
        let clean = clean_ps.export().unwrap();
        for seed in [1u64, 7, 42] {
            let (ps, _, residency) = elastic_setup();
            let ps = ps.attach(seeded_plane(seed, 0.4), RetryPolicy::default());
            ps.rehome(&residency).unwrap();
            assert_eq!(ps.export().unwrap(), clean, "seed {seed}: faulted rehome diverged");
        }
    }

    #[test]
    fn rehome_rejects_bad_shapes() {
        let (ps, _, residency) = elastic_setup();
        // Wrong vertex count.
        assert!(ps.rehome(&residency[..3]).is_err());
        // Destination slot beyond the pre-allocated range.
        let bad: Vec<u32> = residency.iter().map(|&d| if d == 2 { 9 } else { d }).collect();
        assert!(ps.rehome(&bad).is_err());
    }

    #[test]
    fn zero_lr_push_freezes_weights() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let f = Featurizer::new(8).matrix(&g);
        let p = EdgeCutHash.partition(&g, 2);
        let ps = SparseParamServer::new(&p, &f, 0.0, CostModel::default());
        let mut grads = HashMap::new();
        grads.insert(0u32, vec![3.0; 8]);
        ps.push(1, &grads).unwrap();
        ps.push(0, &HashMap::new()).unwrap();
        assert_eq!(ps.materialize().unwrap().as_slice(), f.as_slice());
    }

    #[test]
    fn a_drain_before_its_cut_is_an_error_and_applies_nothing() {
        let (ps, f, _) = setup(2);
        ps.push(0, &[(0, vec![1.0; 8])].into()).unwrap();
        let mut replica = f.clone();
        let err = ps.drain_into(0, &mut replica).unwrap_err();
        assert_eq!(err, RuntimeError::DrainBeforeCut { worker: 0, cut: 1, behind: 1 });
        assert_eq!(replica.as_slice(), f.as_slice());
        assert!(!ps.inbox.lock().unwrap().is_empty(), "still staged");
        assert!(pending(&ps, 0).is_empty() && pending(&ps, 1).is_empty());
        // Worker 1 may drain cut 0 meanwhile; it sees none of step 0.
        let mut replica1 = f.clone();
        ps.drain_into(1, &mut replica1).unwrap();
        assert_eq!(replica1.as_slice(), f.as_slice());
        ps.push(1, &HashMap::new()).unwrap();
        ps.drain_into(0, &mut replica).unwrap();
        assert_ne!(replica.as_slice(), f.as_slice());
        assert_eq!(replica.as_slice(), ps.materialize().unwrap().as_slice());
    }

    #[test]
    fn an_empty_push_advances_the_senders_step() {
        let (ps, f, _) = setup(2);
        let mut replica = f.clone();
        for step in 1..=3u64 {
            ps.push(0, &HashMap::new()).unwrap();
            ps.push(1, &HashMap::new()).unwrap();
            assert_eq!(ps.steps[0].load(Ordering::Relaxed), step);
            ps.drain_into(0, &mut replica).unwrap();
        }
        assert_eq!(ps.stats().snapshot().total_ops(), 0, "an empty push sends no message");
        assert_eq!(replica.as_slice(), f.as_slice());
    }

    #[test]
    fn same_step_pushes_to_one_row_apply_in_sender_order_whatever_arrives_first() {
        // AdaGrad is order-sensitive through its accumulator, so the two
        // gradients give different bits in different orders.
        let (a, b): (HashMap<u32, Vec<f32>>, HashMap<u32, Vec<f32>>) =
            ([(0, vec![0.9; 8])].into(), [(0, vec![-0.3; 8])].into());
        let bits = |ps: &SparseParamServer| -> Vec<u32> {
            ps.materialize().unwrap().as_slice().iter().map(|x| x.to_bits()).collect()
        };
        let (zero_first, _, _) = setup(2);
        zero_first.push(0, &a).unwrap();
        zero_first.push(1, &b).unwrap();
        let (one_first, _, _) = setup(2);
        one_first.push(1, &b).unwrap();
        one_first.push(0, &a).unwrap();
        // The oracle: worker 0's gradient in one cut, worker 1's in the next.
        let (serial, _, _) = setup(2);
        serial.push(0, &a).unwrap();
        serial.push(1, &HashMap::new()).unwrap();
        serial.materialize().unwrap();
        serial.push(0, &HashMap::new()).unwrap();
        serial.push(1, &b).unwrap();
        let (reversed, _, _) = setup(2);
        reversed.push(1, &b).unwrap();
        reversed.push(0, &HashMap::new()).unwrap();
        reversed.materialize().unwrap();
        reversed.push(1, &HashMap::new()).unwrap();
        reversed.push(0, &a).unwrap();
        assert_eq!(bits(&zero_first), bits(&serial));
        assert_eq!(bits(&one_first), bits(&serial));
        assert_ne!(bits(&reversed), bits(&serial), "the orders must differ in bits");
    }

    #[test]
    fn a_pin_held_across_later_cuts_keeps_its_cut() {
        let (ps, f, _) = setup(2);
        let step = |k: u32| {
            for w in 0..2 {
                let v = (k * 11 + w as u32 * 5) % f.len() as u32;
                ps.push(w, &[(v, vec![0.3 + k as f32; 8])].into()).unwrap();
            }
        };
        step(0);
        let (mut pin, mut later) = (FeatureMatrix::default(), FeatureMatrix::default());
        ps.drain_into(0, &mut pin).unwrap();
        let at_cut_1 = pin.as_slice().to_vec();
        for k in 1..4 {
            step(k);
            ps.drain_into(1, &mut later).unwrap();
        }
        assert_eq!(pin.as_slice(), at_cut_1, "the pin keeps cut 1");
        assert_ne!(later.as_slice(), at_cut_1, "cuts 2-4 applied rows");
    }

    #[test]
    fn an_apply_takes_its_inboxes_under_the_rows_lock() {
        let (ps, f, _) = setup(2);
        ps.push(0, &[(0, vec![1.0; 8])].into()).unwrap();
        ps.push(1, &[(f.len() as u32 - 1, vec![-1.0; 8])].into()).unwrap();
        let staged = || ps.inbox.lock().unwrap().len();
        let (rows, mut pin) = (ps.rows.lock().unwrap(), FeatureMatrix::default());
        std::thread::scope(|s| {
            let drainer = s.spawn(|| ps.drain_into(0, &mut pin));
            // The drainer takes no message before it holds the rows lock, so
            // a reader that finds the inbox empty finds its rows applied.
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert_eq!(staged(), 2);
            drop(rows);
            drainer.join().unwrap().unwrap();
        });
        assert_eq!(staged(), 0);
        assert_ne!(pin.as_slice(), f.as_slice());
        assert_eq!(ps.materialize().unwrap().as_slice(), pin.as_slice());
    }
}
