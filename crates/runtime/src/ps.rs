//! The sparse parameter server: input-feature embedding rows sharded by the
//! graph partition, so each row lives next to the worker that owns its
//! vertex (the paper's storage-aware placement).
//!
//! Workers *push* row-sparse AdaGrad deltas to the owning shard after every
//! step, and *pull* by draining dirty rows into a local replica at most
//! `staleness` steps later. Every push, pull, and read is metered through
//! the storage [`CostModel`] so the comm accounting in the benches stays
//! honest: reads of replica rows count as `Local` (own shard) or
//! `CachedRemote` (remote-owned row served from the replica), while pushes
//! and pulls that cross shards count as `Remote`. Pushes and pulls are
//! batched into one message per shard per step — the request batching the
//! paper's platform applies to all cross-worker traffic — so a message
//! costs one model latency regardless of row count, while payload bytes
//! accumulate per row. Every one of those messages crosses the server's
//! [`FaultPlane`] through its delivery driver; a fresh server holds an
//! unarmed plane, which delivers everything at zero ticks — that *is* the
//! fault-free run, there is no second send path.

use crate::error::RuntimeError;
use aligraph_chaos::{
    FaultPlan, FaultPlane, HopKind, RecoveryMode, RetryPolicy, MIGRATION_TAG, PS_PULL_TAG,
    PS_PUSH_TAG, TICK_NS,
};
use aligraph_graph::{FeatureMatrix, VertexId};
use aligraph_partition::Partition;
use aligraph_storage::{AccessKind, CostModel, TierMeter};
use aligraph_telemetry::{Counter, Registry};
use aligraph_tensor::EmbeddingTable;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

/// One shard: the embedding rows of the vertices one worker owns.
#[derive(Debug)]
struct PsShard {
    /// Owned vertex ids in ascending order.
    ids: Vec<u32>,
    /// Vertex id → row slot in `table`.
    slot_of: HashMap<u32, u32>,
    /// The shard's rows (AdaGrad accumulators live inside).
    table: EmbeddingTable,
}

/// Serializable state of one PS shard (checkpoint payload).
#[derive(Debug, Clone, PartialEq)]
pub struct PsShardState {
    /// Owned vertex ids, ascending.
    pub ids: Vec<u32>,
    /// Row-major weights, one row per id.
    pub weights: Vec<f32>,
    /// AdaGrad accumulators, if any updates happened yet.
    pub accum: Option<Vec<f32>>,
}

/// Sender-held sequence counters for one worker's fault-plane channels:
/// one push stream and one pull-response stream per destination shard.
/// They live and die with the server, so a recovery attempt's fresh server
/// pairs fresh counters with its fresh `applied_seq` table and replays
/// cleanly.
#[derive(Debug)]
struct ChannelSeqs {
    push: Vec<u64>,
    pull: Vec<u64>,
}

impl ChannelSeqs {
    fn new(shards: usize) -> Self {
        ChannelSeqs { push: vec![0; shards], pull: vec![0; shards] }
    }

    fn next_push(&mut self, shard: usize) -> u64 {
        let s = self.push[shard];
        self.push[shard] += 1;
        s
    }

    fn next_pull(&mut self, shard: usize) -> u64 {
        let s = self.pull[shard];
        self.pull[shard] += 1;
        s
    }
}

/// The sharded sparse parameter server.
#[derive(Debug)]
pub struct SparseParamServer {
    dim: usize,
    lr: f32,
    cost: CostModel,
    num_vertices: usize,
    /// Vertex id → owning shard slot. Atomic because an elastic rebalance
    /// ([`rehome`](Self::rehome)) re-points rows at an epoch boundary while
    /// the struct is shared across worker threads.
    owner: Vec<AtomicU32>,
    shards: Vec<Mutex<PsShard>>,
    /// Per-worker dirty sets: rows updated since that worker last drained.
    dirty: Vec<Mutex<HashSet<u32>>>,
    /// `applied_seq[shard][sender]`: next delta sequence number expected on
    /// the `sender → shard` push channel. Retried deltas whose sequence
    /// number is below this were already applied and are discarded — the
    /// idempotence that makes lost acks invisible to the math.
    applied_seq: Vec<Mutex<Vec<u64>>>,
    stats: TierMeter,
    /// Payload bytes landed on each destination shard (pushes + pulls),
    /// published as `runtime.ps.bytes{shard=<w>}`.
    shard_bytes: Vec<Arc<Counter>>,
    /// Sender-held next sequence number per `(src, dst)` rehome channel.
    rehome_seq: Mutex<BTreeMap<(u32, u32), u64>>,
    /// Receiver-side expected sequence per `(src, dst)` rehome channel:
    /// duplicates of an applied row move are discarded, which is what makes
    /// the destructive move idempotent under lost acks.
    rehome_applied: Mutex<BTreeMap<(u32, u32), u64>>,
    /// The plane every push, pull and rehome message crosses. Unarmed and
    /// off the registry until [`attach`](Self::attach)ed to a run's.
    plane: Arc<FaultPlane>,
    policy: RetryPolicy,
    /// Recovery machinery of the push and pull channels.
    mode: RecoveryMode,
    /// `seqs[worker]`: that worker's sender-side counters, locked for the
    /// whole push or drain so its messages leave in sequence order.
    seqs: Vec<Mutex<ChannelSeqs>>,
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
        Self::new_elastic(partition, features, lr, cost, registry, partition.num_workers)
    }

    /// Like [`new_registered`](Self::new_registered) but pre-allocating
    /// `slots >= workers` shard slots. The extra slots start empty and
    /// receive rows when an elastic shard split
    /// ([`rehome`](Self::rehome)s) lands — pre-allocation keeps slot
    /// indices, sequence tables, and telemetry labels stable for the whole
    /// run.
    pub fn new_elastic(
        partition: &Partition,
        features: &FeatureMatrix,
        lr: f32,
        cost: CostModel,
        registry: &Registry,
        slots: usize,
    ) -> Self {
        let n = features.len();
        let dim = features.dim;
        let workers = partition.num_workers;
        let slots = slots.max(workers);
        let mut owner = Vec::with_capacity(n);
        let mut ids: Vec<Vec<u32>> = vec![Vec::new(); slots];
        for v in 0..n as u32 {
            let w = partition.owner_of(VertexId(v)).index();
            owner.push(AtomicU32::new(w as u32));
            ids[w].push(v);
        }
        let shards = ids
            .into_iter()
            .map(|ids| {
                let mut weights = Vec::with_capacity(ids.len() * dim);
                for &v in &ids {
                    weights.extend_from_slice(features.row(VertexId(v)));
                }
                let table = EmbeddingTable::from_flat(ids.len(), dim, weights)
                    // invariant: weights was built as ids.len() * dim entries
                    // in the loop above
                    .expect("weights sized from ids");
                let slot_of = ids.iter().enumerate().map(|(s, &v)| (v, s as u32)).collect();
                Mutex::new(PsShard { ids, slot_of, table })
            })
            .collect();
        let dirty = (0..workers).map(|_| Mutex::new(HashSet::new())).collect();
        let applied_seq = (0..slots).map(|_| Mutex::new(vec![0u64; workers])).collect();
        let shard_bytes = (0..slots)
            .map(|w| registry.counter("runtime.ps.bytes", &[("shard", &w.to_string())]))
            .collect();
        SparseParamServer {
            dim,
            lr,
            cost,
            num_vertices: n,
            owner,
            shards,
            dirty,
            applied_seq,
            stats: TierMeter::registered(registry, "runtime.ps"),
            shard_bytes,
            rehome_seq: Mutex::new(BTreeMap::new()),
            rehome_applied: Mutex::new(BTreeMap::new()),
            plane: Arc::new(FaultPlane::new(FaultPlan::default())),
            policy: RetryPolicy::default(),
            mode: RecoveryMode::Full,
            seqs: (0..workers).map(|_| Mutex::new(ChannelSeqs::new(slots))).collect(),
        }
    }

    /// Routes the server's messages through a run's `plane` under `policy`,
    /// with `mode` as the push and pull channels' recovery machinery. With
    /// [`RecoveryMode::Full`] the surviving update stream is byte-identical
    /// to the fault-free one — only the modelled time differs; the broken
    /// modes exist for the chaos suite's divergence-detection tests.
    pub fn attach(
        mut self,
        plane: Arc<FaultPlane>,
        policy: RetryPolicy,
        mode: RecoveryMode,
    ) -> Self {
        self.plane = plane;
        self.policy = policy;
        self.mode = mode;
        self
    }

    /// The shard slot currently owning a vertex's row.
    #[inline]
    fn owner_slot(&self, v: u32) -> usize {
        // ordering: Acquire pairs with rehome()'s Release store, so a
        // worker that sees the new owner also sees the moved row behind the
        // destination shard's lock.
        self.owner[v as usize].load(Ordering::Acquire) as usize
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
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
    /// the owning shards and marks the rows dirty for every worker's next
    /// drain. Rows are batched into **one message per destination shard**
    /// (the paper's request batching): each is sequence-numbered on its
    /// `from → shard` channel and crosses the plane as one
    /// [`HopKind::Acked`] hop; the copies a lost ack or the reorder fault
    /// land are discarded by the shard's sequence dedup. A delivered message
    /// costs one [`CostModel`] latency plus its rows' payload bytes on that
    /// message's tier, and each tick the hop cost adds [`TICK_NS`]. Returns
    /// the modelled comm time in nanoseconds.
    ///
    /// Row updates commute (each touches one row under the shard lock), so
    /// the non-deterministic `HashMap` iteration order cannot change the
    /// resulting parameters.
    pub fn push(&self, from: usize, grads: &HashMap<u32, Vec<f32>>) -> Result<u64, RuntimeError> {
        let row_bytes = self.dim as u64 * 4;
        let mut by_shard: Vec<Vec<(u32, &[f32])>> = vec![Vec::new(); self.shards.len()];
        let mut ordered: Vec<(&u32, &Vec<f32>)> = grads.iter().collect();
        ordered.sort_unstable_by_key(|(v, _)| **v);
        for (&v, g) in ordered {
            by_shard[self.owner_slot(v)].push((v, g.as_slice()));
        }
        let mut seqs = self.seqs[from].lock().map_err(|_| RuntimeError::Poisoned("ps seqs"))?;
        let mut ns = 0u64;
        for (w, rows) in by_shard.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let seq = seqs.next_push(w);
            let channel = FaultPlane::channel_with(PS_PUSH_TAG, from as u64, w as u64);
            // The driver's `land` cannot fail; a poisoned lock stops
            // further applies and surfaces after the hop.
            let mut applied = Ok(());
            let sent = self
                .plane
                .deliver(channel, seq, &self.policy, self.mode, HopKind::Acked, || {
                    if applied.is_ok() {
                        applied = self.apply_push_message(w, from, seq, rows);
                    }
                })
                .map_err(|e| {
                    RuntimeError::Unrecoverable(format!("ps push {from}->{w} seq {seq}: {e}"))
                })?;
            applied?;
            ns += sent.ticks * TICK_NS;
            if sent.delivered {
                let kind = if w == from { AccessKind::Local } else { AccessKind::Remote };
                ns += self.stats.record(kind, rows.len() as u64 * row_bytes, &self.cost);
                self.shard_bytes[w].add(rows.len() as u64 * row_bytes);
            }
        }
        Ok(ns)
    }

    /// Applies (or dedup-discards) one sequenced push message on shard `w`.
    fn apply_push_message(
        &self,
        w: usize,
        from: usize,
        seq: u64,
        rows: &[(u32, &[f32])],
    ) -> Result<(), RuntimeError> {
        if self.mode != RecoveryMode::NoDedup {
            let mut expected =
                self.applied_seq[w].lock().map_err(|_| RuntimeError::Poisoned("ps seq table"))?;
            if seq < expected[from] {
                return Ok(()); // duplicate of an already-applied delta
            }
            expected[from] = seq + 1;
        }
        for &(v, g) in rows {
            {
                let mut shard =
                    self.shards[w].lock().map_err(|_| RuntimeError::Poisoned("ps shard"))?;
                let slot = shard.slot_of[&v] as usize;
                shard.table.adagrad_update(slot, g, self.lr);
            }
            for set in &self.dirty {
                set.lock().map_err(|_| RuntimeError::Poisoned("ps dirty set"))?.insert(v);
            }
        }
        Ok(())
    }

    /// Pull barrier for worker `who`: copies every row updated since its
    /// last drain from the owning shard into `replica`. After this call the
    /// replica is element-identical to the server (rows not drained were
    /// never pushed to, by induction). Pulls batch like pushes: one metered
    /// response per shard that contributed rows, sequence-numbered on its
    /// `shard → who` channel and crossing the plane as one
    /// [`HopKind::Reply`] hop. Responses are idempotent reads, so no dedup
    /// is needed — but under [`RecoveryMode::NoRetry`] a dropped response
    /// permanently loses its rows (they were already drained from the dirty
    /// set), leaving the replica stale forever: exactly the silent
    /// divergence the chaos suite must catch. Returns modelled comm
    /// nanoseconds.
    pub fn drain_into(&self, who: usize, replica: &mut FeatureMatrix) -> Result<u64, RuntimeError> {
        let mut seqs = self.seqs[who].lock().map_err(|_| RuntimeError::Poisoned("ps seqs"))?;
        let mut rows: Vec<u32> = {
            let mut set =
                self.dirty[who].lock().map_err(|_| RuntimeError::Poisoned("ps dirty set"))?;
            set.drain().collect()
        };
        rows.sort_unstable();
        let row_bytes = self.dim as u64 * 4;
        let mut by_shard: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        for v in rows {
            by_shard[self.owner_slot(v)].push(v);
        }
        let mut ns = 0u64;
        for (w, rows) in by_shard.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let seq = seqs.next_pull(w);
            let channel = FaultPlane::channel_with(PS_PULL_TAG, w as u64, who as u64);
            // Re-reading is idempotent, so the rows are copied once, after
            // the hop: nothing lands while it is in flight.
            let sent = self
                .plane
                .deliver(channel, seq, &self.policy, self.mode, HopKind::Reply, || {})
                .map_err(|e| {
                    RuntimeError::Unrecoverable(format!("ps pull {w}->{who} seq {seq}: {e}"))
                })?;
            ns += sent.ticks * TICK_NS;
            if !sent.delivered {
                continue; // deliberately broken: rows stay stale
            }
            for &v in rows {
                let shard =
                    self.shards[w].lock().map_err(|_| RuntimeError::Poisoned("ps shard"))?;
                let slot = shard.slot_of[&v] as usize;
                replica.row_mut(VertexId(v)).copy_from_slice(shard.table.row(slot));
            }
            let kind = if w == who { AccessKind::Local } else { AccessKind::Remote };
            ns += self.stats.record(kind, rows.len() as u64 * row_bytes, &self.cost);
            self.shard_bytes[w].add(rows.len() as u64 * row_bytes);
        }
        Ok(ns)
    }

    /// Meters the embedding-row reads of one training step (the rows the
    /// tape touched): own-shard rows are `Local`, remote-owned rows are
    /// `CachedRemote` because the replica serves them without a round trip.
    pub fn record_reads<'a, I: IntoIterator<Item = &'a u32>>(&self, who: usize, rows: I) -> u64 {
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
        ns
    }

    /// A full dense copy of the server's current rows — the initial replica
    /// of a (re)starting worker, and the final feature matrix of a run.
    pub fn materialize(&self) -> Result<FeatureMatrix, RuntimeError> {
        let mut out = FeatureMatrix::zeros(self.num_vertices, self.dim);
        for shard in &self.shards {
            let shard = shard.lock().map_err(|_| RuntimeError::Poisoned("ps shard"))?;
            for (slot, &v) in shard.ids.iter().enumerate() {
                out.row_mut(VertexId(v)).copy_from_slice(shard.table.row(slot));
            }
        }
        Ok(out)
    }

    /// Serializable shard states for checkpointing.
    pub fn export(&self) -> Result<Vec<PsShardState>, RuntimeError> {
        self.shards
            .iter()
            .map(|shard| {
                let shard = shard.lock().map_err(|_| RuntimeError::Poisoned("ps shard"))?;
                Ok(PsShardState {
                    ids: shard.ids.clone(),
                    weights: shard.table.as_slice().to_vec(),
                    accum: shard.table.accum_slice().map(<[f32]>::to_vec),
                })
            })
            .collect()
    }

    /// Restores shard contents from a checkpoint, *adopting* its rosters:
    /// each shard rebuilds from the checkpointed id list, and the owner
    /// table re-points accordingly. A checkpoint written after an elastic
    /// rebalance therefore restores onto a fresh (partition-rostered)
    /// server without a separate replay of the rebalance.
    pub fn load(&self, states: &[PsShardState]) -> Result<(), RuntimeError> {
        if states.len() != self.shards.len() {
            return Err(RuntimeError::Checkpoint(format!(
                "checkpoint has {} PS shards, runtime has {}",
                states.len(),
                self.shards.len()
            )));
        }
        for (i, (shard, state)) in self.shards.iter().zip(states).enumerate() {
            if state.weights.len() != state.ids.len() * self.dim {
                return Err(RuntimeError::Checkpoint(format!(
                    "PS shard {i}: {} weights for {} ids at dim {}",
                    state.weights.len(),
                    state.ids.len(),
                    self.dim
                )));
            }
            let mut shard = shard.lock().map_err(|_| RuntimeError::Poisoned("ps shard"))?;
            if shard.ids != state.ids {
                let table =
                    EmbeddingTable::from_flat(state.ids.len(), self.dim, state.weights.clone())
                        .map_err(|e| RuntimeError::Checkpoint(format!("PS shard {i}: {e}")))?;
                shard.ids = state.ids.clone();
                shard.slot_of = state.ids.iter().enumerate().map(|(s, &v)| (v, s as u32)).collect();
                shard.table = table;
            }
            shard
                .table
                .load_state(&state.weights, state.accum.as_deref())
                .map_err(|e| RuntimeError::Checkpoint(format!("PS shard {i}: {e}")))?;
            for &v in &state.ids {
                if v as usize >= self.owner.len() {
                    return Err(RuntimeError::Checkpoint(format!(
                        "PS shard {i}: checkpoint id {v} beyond {} vertices",
                        self.owner.len()
                    )));
                }
                // ordering: Release pairs with owner_slot()'s Acquire; load
                // runs before any worker thread starts, so this is belt and
                // braces.
                self.owner[v as usize].store(i as u32, Ordering::Release);
            }
        }
        Ok(())
    }

    /// Re-homes embedding rows to follow a new physical residency (the
    /// storage layer's post-rebalance `Residency` snapshot): every row whose
    /// owner table disagrees with `residency` moves to its new shard slot
    /// over the server's plane (tag [`MIGRATION_TAG`], one batched message
    /// per `(src, dst)` shard pair, sequence-deduplicated) under `mode`, the
    /// migration stream's own recovery machinery.
    ///
    /// Must be called at a quiescent point — the epoch-boundary allreduce
    /// barrier, where every worker is parked and no push or drain is in
    /// flight. Row values and AdaGrad accumulators move losslessly, so the
    /// math after the move is bit-identical to not having moved; only the
    /// comm *accounting* changes (rows now local to a different slot).
    /// Under [`RecoveryMode::NoRetry`] a lost move message still flips
    /// ownership but lands zero rows at the destination — the deliberate
    /// data loss the migration chaos test must catch. Returns modelled comm
    /// nanoseconds.
    pub fn rehome(&self, residency: &[u32], mode: RecoveryMode) -> Result<u64, RuntimeError> {
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
            if dst as usize >= self.shards.len() {
                return Err(RuntimeError::Unrecoverable(format!(
                    "rehome of vertex {v} to slot {dst}, but PS has {} slots \
                     (pre-allocate with new_elastic)",
                    self.shards.len()
                )));
            }
            moves.entry((src, dst)).or_default().push(v as u32);
        }
        let row_bytes = self.dim as u64 * 4;
        let mut ns = 0u64;
        for (&(src, dst), rows) in &moves {
            let seq = {
                let mut seqs =
                    self.rehome_seq.lock().map_err(|_| RuntimeError::Poisoned("rehome seq"))?;
                let next_seq = seqs.entry((src, dst)).or_insert(0);
                let s = *next_seq;
                *next_seq += 1;
                s
            };
            let channel = FaultPlane::channel_with(MIGRATION_TAG, u64::from(src), u64::from(dst));
            let mut applied = Ok(());
            let sent = self
                .plane
                .deliver(channel, seq, &self.policy, mode, HopKind::Acked, || {
                    if applied.is_ok() {
                        applied = self.apply_rehome(src, dst, seq, rows, mode, true);
                    }
                })
                .map_err(|e| {
                    RuntimeError::Unrecoverable(format!("ps rehome {src}->{dst} seq {seq}: {e}"))
                })?;
            applied?;
            ns += sent.ticks * TICK_NS;
            if sent.delivered {
                ns += self.stats.record(
                    AccessKind::Remote,
                    rows.len() as u64 * row_bytes,
                    &self.cost,
                );
                self.shard_bytes[dst as usize].add(rows.len() as u64 * row_bytes);
            } else {
                // The broken variant: ownership flips anyway, the payload
                // never arrives, the destination re-homes the rows
                // zero-filled. Training over them genuinely diverges — the
                // teeth of the migration chaos test.
                self.apply_rehome(src, dst, seq, rows, mode, false)?;
            }
            for &v in rows {
                // ordering: Release pairs with owner_slot()'s Acquire — a
                // reader that sees the new owner also sees the moved row
                // behind the destination shard's lock.
                self.owner[v as usize].store(dst, Ordering::Release);
            }
        }
        Ok(ns)
    }

    /// Applies (or dedup-discards) one sequenced rehome message: removes
    /// the rows from `src`'s shard and inserts them into `dst`'s, carrying
    /// weights and AdaGrad accumulators when `with_payload` (zero-filled
    /// rows otherwise — the lost-message path of a broken recovery mode).
    fn apply_rehome(
        &self,
        src: u32,
        dst: u32,
        seq: u64,
        rows: &[u32],
        mode: RecoveryMode,
        with_payload: bool,
    ) -> Result<(), RuntimeError> {
        if mode != RecoveryMode::NoDedup {
            let mut applied =
                self.rehome_applied.lock().map_err(|_| RuntimeError::Poisoned("rehome applied"))?;
            let cursor = applied.entry((src, dst)).or_insert(0);
            if seq < *cursor {
                return Ok(()); // duplicate of an already-applied move
            }
            *cursor = seq + 1;
        }
        // Extract the moving rows from the source shard and rebuild it
        // around the hole. A NoDedup double-apply finds the rows already
        // gone and skips them — the PS mirror of the storage layer's
        // idempotent absorb.
        let mut moving: BTreeMap<u32, (Vec<f32>, Option<Vec<f32>>)> = BTreeMap::new();
        {
            let mut shard =
                self.shards[src as usize].lock().map_err(|_| RuntimeError::Poisoned("ps shard"))?;
            let mut remaining = Self::snapshot_rows(&shard, self.dim);
            for &v in rows {
                if let Some(row) = remaining.remove(&v) {
                    moving.insert(v, row);
                }
            }
            if !moving.is_empty() {
                Self::install_rows(&mut shard, self.dim, remaining)?;
            }
        }
        // Land them at the destination: carried payload normally,
        // zero-filled rows when the move message was lost (the broken
        // recovery mode's data loss — extraction already destroyed the
        // source copy).
        let mut shard =
            self.shards[dst as usize].lock().map_err(|_| RuntimeError::Poisoned("ps shard"))?;
        let mut combined = Self::snapshot_rows(&shard, self.dim);
        let mut landed = false;
        for &v in rows {
            let row = if with_payload {
                match moving.remove(&v) {
                    Some(row) => row,
                    None => continue,
                }
            } else if combined.contains_key(&v) {
                continue;
            } else {
                (vec![0.0; self.dim], None)
            };
            combined.insert(v, row);
            landed = true;
        }
        if landed {
            Self::install_rows(&mut shard, self.dim, combined)?;
        }
        Ok(())
    }

    /// Snapshots a shard as id → (weights row, AdaGrad accumulator row).
    fn snapshot_rows(shard: &PsShard, dim: usize) -> BTreeMap<u32, (Vec<f32>, Option<Vec<f32>>)> {
        let accum = shard.table.accum_slice();
        shard
            .ids
            .iter()
            .enumerate()
            .map(|(slot, &v)| {
                let w = shard.table.row(slot).to_vec();
                let a = accum.map(|acc| acc[slot * dim..(slot + 1) * dim].to_vec());
                (v, (w, a))
            })
            .collect()
    }

    /// Rebuilds a shard to hold exactly `rows` (ascending by vertex id),
    /// restoring AdaGrad accumulators when any row carries them.
    fn install_rows(
        shard: &mut PsShard,
        dim: usize,
        rows: BTreeMap<u32, (Vec<f32>, Option<Vec<f32>>)>,
    ) -> Result<(), RuntimeError> {
        let ids: Vec<u32> = rows.keys().copied().collect();
        let mut weights = Vec::with_capacity(ids.len() * dim);
        let mut accum = vec![0.0f32; ids.len() * dim];
        let mut any_accum = false;
        for (slot, (w, a)) in rows.values().enumerate() {
            weights.extend_from_slice(w);
            if let Some(a) = a {
                accum[slot * dim..(slot + 1) * dim].copy_from_slice(a);
                any_accum = true;
            }
        }
        let table = EmbeddingTable::from_flat(ids.len(), dim, weights.clone())
            .map_err(|e| RuntimeError::Unrecoverable(format!("rehome rebuild: {e}")))?;
        shard.slot_of = ids.iter().enumerate().map(|(s, &v)| (v, s as u32)).collect();
        shard.ids = ids;
        shard.table = table;
        if any_accum {
            shard
                .table
                .load_state(&weights, Some(&accum))
                .map_err(|e| RuntimeError::Unrecoverable(format!("rehome rebuild: {e}")))?;
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

    #[test]
    fn push_then_drain_syncs_replica_with_tier_accounting() {
        let (ps, f, p) = setup(2);
        let mut replica = f.clone();
        // Find one vertex owned by worker 0 and one by worker 1.
        let local = (0..f.len() as u32).find(|&v| p.owner_of(VertexId(v)).index() == 0).unwrap();
        let remote = (0..f.len() as u32).find(|&v| p.owner_of(VertexId(v)).index() == 1).unwrap();
        let mut grads = HashMap::new();
        grads.insert(local, vec![1.0; 8]);
        grads.insert(remote, vec![-1.0; 8]);
        let ns = ps.push(0, &grads).unwrap();
        assert!(ns > 0);
        let snap = ps.stats().snapshot();
        assert_eq!((snap.local_ops, snap.remote_ops), (1, 1));
        assert_eq!(snap.remote_bytes, 8 * 4);

        // Replica still stale, drain fixes it for both workers.
        assert_ne!(replica.as_slice(), ps.materialize().unwrap().as_slice());
        ps.drain_into(0, &mut replica).unwrap();
        assert_eq!(replica.as_slice(), ps.materialize().unwrap().as_slice());
        let mut replica1 = f.clone();
        ps.drain_into(1, &mut replica1).unwrap();
        assert_eq!(replica1.as_slice(), replica.as_slice());
        // A second drain moves nothing (dirty set consumed).
        let before = ps.stats().snapshot().total_ops();
        ps.drain_into(0, &mut replica).unwrap();
        assert_eq!(ps.stats().snapshot().total_ops(), before);
    }

    #[test]
    fn read_metering_splits_local_and_cached() {
        let (ps, f, p) = setup(2);
        let local = (0..f.len() as u32).find(|&v| p.owner_of(VertexId(v)).index() == 0).unwrap();
        let remote = (0..f.len() as u32).find(|&v| p.owner_of(VertexId(v)).index() == 1).unwrap();
        ps.record_reads(0, [local, remote].iter());
        let snap = ps.stats().snapshot();
        assert_eq!((snap.local_ops, snap.cached_ops, snap.remote_ops), (1, 1, 0));
    }

    #[test]
    fn export_load_roundtrip_and_mismatch_errors() {
        let (ps, f, p) = setup(3);
        let mut grads = HashMap::new();
        grads.insert(0u32, vec![0.5; 8]);
        ps.push(0, &grads).unwrap();
        let state = ps.export().unwrap();
        let fresh = SparseParamServer::new(&p, &f, 0.1, CostModel::default());
        fresh.load(&state).unwrap();
        assert_eq!(fresh.materialize().unwrap().as_slice(), ps.materialize().unwrap().as_slice());
        // Wrong shard count is a checkpoint error, not a panic.
        assert!(matches!(fresh.load(&state[..2]), Err(RuntimeError::Checkpoint(_))));
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
    /// the state and the plane's fault counters. `drop = 0` with `Full` is
    /// the clean baseline (the plane delivers everything).
    fn run_workload(
        mode: RecoveryMode,
        drop: f64,
        seed: u64,
    ) -> (Vec<f32>, aligraph_chaos::FaultSnapshot) {
        let (ps, f, _) = setup(2);
        let plane = seeded_plane(seed, drop);
        let ps = ps.attach(Arc::clone(&plane), RetryPolicy::default(), mode);
        (drive_workload(&ps, &f).0, plane.snapshot())
    }

    #[test]
    fn unarmed_is_clean() {
        let (fresh, f, _) = setup(2);
        let (attached, _, _) = setup(2);
        let plane = seeded_plane(9, 0.0);
        let attached =
            attached.attach(Arc::clone(&plane), RetryPolicy::default(), RecoveryMode::Full);
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
        let (clean, quiet) = run_workload(RecoveryMode::Full, 0.0, 0);
        assert_eq!(quiet.faults_injected, 0);
        for seed in [1u64, 7, 42] {
            let (faulted, snap) = run_workload(RecoveryMode::Full, 0.3, seed);
            assert!(snap.faults_injected > 0, "seed {seed}: no faults fired");
            assert!(snap.retries > 0, "seed {seed}: no retries performed");
            assert_eq!(
                clean.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                faulted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "seed {seed}: faulted run diverged from clean run"
            );
        }
    }

    #[test]
    fn broken_recovery_modes_are_caught_by_divergence() {
        let (clean, _) = run_workload(RecoveryMode::Full, 0.0, 0);
        // Teeth check: with recovery deliberately broken, some fault seed
        // must produce bit-different parameters — otherwise the parity
        // assertion above proves nothing.
        let diverges =
            |mode: RecoveryMode| (0..8u64).any(|seed| run_workload(mode, 0.3, seed).0 != clean);
        assert!(diverges(RecoveryMode::NoRetry), "silent message loss went undetected");
        assert!(diverges(RecoveryMode::NoDedup), "double-applied deltas went undetected");
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
        let ns = ps.rehome(&residency, RecoveryMode::Full).unwrap();
        assert!(ns > 0, "a real move must cost modelled time");
        // The math is location-independent: materialized rows identical.
        assert_eq!(ps.materialize().unwrap().as_slice(), before.as_slice());
        // Rows physically landed in the spare slot, with accumulators.
        let after_state = ps.export().unwrap();
        let moved: Vec<u32> =
            (0..residency.len() as u32).filter(|&v| residency[v as usize] == 2).collect();
        assert!(!moved.is_empty());
        assert_eq!(after_state[2].ids, moved);
        assert!(after_state[2].accum.is_some(), "AdaGrad state must move with the rows");
        for &v in &moved {
            assert!(!before_state[0].ids.contains(&v) || !after_state[0].ids.contains(&v));
        }
        // A second identical rehome is a no-op (nothing left to move).
        let ns2 = ps.rehome(&residency, RecoveryMode::Full).unwrap();
        assert_eq!(ns2, 0);
        // Pushes to moved rows now land on the new shard and still train.
        let mut grads = HashMap::new();
        grads.insert(moved[0], vec![1.0; 8]);
        ps.push(1, &grads).unwrap();
        assert_ne!(ps.materialize().unwrap().as_slice(), before.as_slice());
    }

    #[test]
    fn faulted_rehome_matches_clean_rehome_exactly() {
        let (clean_ps, _, residency) = elastic_setup();
        clean_ps.rehome(&residency, RecoveryMode::Full).unwrap();
        let clean = clean_ps.export().unwrap();
        for seed in [1u64, 7, 42] {
            let (ps, _, residency) = elastic_setup();
            let ps = ps.attach(seeded_plane(seed, 0.4), RetryPolicy::default(), RecoveryMode::Full);
            ps.rehome(&residency, RecoveryMode::Full).unwrap();
            assert_eq!(ps.export().unwrap(), clean, "seed {seed}: faulted rehome diverged");
        }
    }

    #[test]
    fn broken_rehome_zero_fills_lost_rows() {
        let (clean_ps, _, residency) = elastic_setup();
        clean_ps.rehome(&residency, RecoveryMode::Full).unwrap();
        let clean = clean_ps.materialize().unwrap();
        let diverged = (0..8u64).any(|seed| {
            let (ps, _, residency) = elastic_setup();
            let ps = ps.attach(seeded_plane(seed, 0.9), RetryPolicy::default(), RecoveryMode::Full);
            ps.rehome(&residency, RecoveryMode::NoRetry).unwrap();
            ps.materialize().unwrap().as_slice() != clean.as_slice()
        });
        assert!(diverged, "lost migration payloads went undetected");
    }

    #[test]
    fn rehome_rejects_bad_shapes() {
        let (ps, _, residency) = elastic_setup();
        // Wrong vertex count.
        assert!(ps.rehome(&residency[..3], RecoveryMode::Full).is_err());
        // Destination slot beyond the pre-allocated range.
        let bad: Vec<u32> = residency.iter().map(|&d| if d == 2 { 9 } else { d }).collect();
        assert!(ps.rehome(&bad, RecoveryMode::Full).is_err());
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
        assert_eq!(ps.materialize().unwrap().as_slice(), f.as_slice());
    }
}
