//! Mini-loom target: the serving shard's flat combiner.
//!
//! A serving request runs on no thread but its caller's
//! (`ServingService::submit`): under its owner shard's pending lock the
//! caller is rejected if the list is full, else probes the cache and, on a
//! miss, publishes a slot carrying what the probe found. It then
//! `try_lock`s the shard's owner state. The holder takes up to `max_batch`
//! pending slots oldest first, pins the graph epoch, computes what the
//! batch's probes missed, fills every slot it took, and repeats until its
//! own slot is answered; only then does it unlock. A caller that does not
//! get the lock looks for its answer a few times, then parks on the lock.
//!
//! The virtual callers replicate that protocol step for step. Every request
//! needs one shared vertex, whose cache entry a probe may hit, and one of
//! its own that always misses, so every request publishes a slot. The owner
//! lock, the cache entry and the writer that moves the graph epoch and
//! invalidates the entry (`apply_delta`) are modelled. Checked on every
//! schedule:
//!
//! * **every published slot is answered exactly once** and collected by its
//!   caller, and a full pending list rejects without publishing;
//! * **no wake-up is lost**: a run whose unfinished callers are all parked
//!   is a deadlock, which the explorer reports;
//! * **no slot is answered with a value older than its request**, so a
//!   client that applied a delta and then asks sees that delta;
//! * **one batch at a time** runs on the owner state, and a caller holding
//!   the lock finds its slot answered or still pending.
//!
//! Each property has a buggy twin ([`Bug`]) the explorer must catch.

use super::{Threads, VThread, Workload};
use std::collections::VecDeque;

/// Looks a waiting caller takes before it parks.
const SPINS: u32 = 2;
/// Callers, and requests each one issues.
const CALLERS: usize = 3;
const REQUESTS: u32 = 3;
/// Pending-list capacity and batch cap: a list can hold more slots than
/// one combine takes, so a holder's own slot may wait a batch.
const CAPACITY: usize = 3;
const MAX_BATCH: usize = 2;

/// A deliberately broken combiner, one per checked property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// Releases the owner lock after pinning a batch and fills the slots it
    /// took afterwards: another caller can lock while its slot is taken but
    /// unanswered, and two batches can run on one owner state.
    UnlockBeforeFill,
    /// Keeps one pin in the owner state and answers every later batch from
    /// it, so a slot published after a delta gets the view from before it.
    StalePin,
    /// Answers a slot whose probe missed with another slot's probe hit, which
    /// may predate a delta the first slot was issued after.
    PoolProbes,
    /// Parks a waiting caller until its slot is answered, even when no
    /// combiner has taken the slot, instead of parking on the owner lock.
    ParkOnSlot,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Pending,
    Taken,
    Answered,
    Collected,
}

#[derive(Debug)]
struct SlotModel {
    caller: usize,
    /// The graph epoch when the request probed the cache.
    issued: u64,
    /// The epoch of the shared vertex's cached value, if the probe hit.
    probed: Option<u64>,
    state: SlotState,
    fills: u32,
}

/// Shared state: one owner shard, the graph epoch, the shared vertex's
/// cache entry, and the error log.
#[derive(Debug)]
pub struct CombinerState {
    /// Published slot ids no combiner has taken, oldest first.
    pending: VecDeque<usize>,
    slots: Vec<SlotModel>,
    /// The caller holding the owner lock.
    owner: Option<usize>,
    /// A batch has been taken and not yet fully filled.
    in_flight: bool,
    /// The epoch a pin returns; the writer moves it.
    epoch: u64,
    /// The epoch the cached value of the shared vertex was computed at.
    cache: Option<u64>,
    bug: Option<Bug>,
    /// The pin kept across batches under [`Bug::StalePin`].
    kept_pin: Option<u64>,
    rejected: u32,
    errors: Vec<String>,
}

impl CombinerState {
    fn answered(&self, slot: usize) -> bool {
        self.slots[slot].state == SlotState::Answered
    }

    /// A combiner answers one slot it took: from the slot's own probe, else
    /// with `computed`, the batch's value of the shared vertex.
    fn fill(&mut self, slot: usize, computed: u64) {
        let s = &mut self.slots[slot];
        s.fills += 1;
        let value = s.probed.unwrap_or(computed);
        if s.state != SlotState::Taken {
            self.errors.push(format!("slot {slot} answered in state {:?}", s.state));
        } else if value < s.issued {
            self.errors.push(format!(
                "slot {slot} issued at epoch {} answered with a value from epoch {value}",
                s.issued
            ));
        }
        s.state = SlotState::Answered;
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    /// Between requests: be rejected, or probe and publish.
    Publish,
    /// `try_lock`, else look for the answer, else yield.
    Look(u32),
    /// Parked on the owner lock (or, under [`Bug::ParkOnSlot`], the slot).
    Parked,
    /// Holding the owner lock: take the next batch.
    Take,
    /// Pin the epoch, compute and insert, for the batch just taken.
    Pin(Vec<usize>),
    /// Fill the batch's slots, `next` first.
    Fill { batch: Vec<usize>, computed: u64, next: usize },
    /// Stopped after recording an error.
    Aborted,
}

/// A client issuing requests one after another.
struct Caller {
    id: usize,
    requests: u32,
    slot: usize,
    phase: Phase,
}

impl Caller {
    fn holds_lock(&self, s: &CombinerState) -> bool {
        s.owner == Some(self.id)
    }

    /// Collects the answer (unlocking first if held), ending the request.
    fn finish(&mut self, s: &mut CombinerState) {
        if self.holds_lock(s) {
            s.owner = None;
        }
        s.slots[self.slot].state = SlotState::Collected;
        self.requests -= 1;
        self.phase = Phase::Publish;
    }

    /// The lock was just acquired: the answer may already be in.
    fn locked(&mut self, s: &mut CombinerState) {
        s.owner = Some(self.id);
        if s.answered(self.slot) {
            self.finish(s);
        } else {
            self.phase = Phase::Take;
        }
    }
}

impl VThread<CombinerState> for Caller {
    fn done(&self, _: &CombinerState) -> bool {
        self.phase == Phase::Aborted || (self.requests == 0 && self.phase == Phase::Publish)
    }

    fn blocked(&self, s: &CombinerState) -> bool {
        self.phase == Phase::Parked
            && match s.bug {
                Some(Bug::ParkOnSlot) => !s.answered(self.slot),
                _ => s.owner.is_some(),
            }
    }

    fn step(&mut self, s: &mut CombinerState) {
        match std::mem::replace(&mut self.phase, Phase::Aborted) {
            Phase::Publish if s.pending.len() >= CAPACITY => {
                s.rejected += 1;
                self.requests -= 1;
                self.phase = Phase::Publish;
            }
            Phase::Publish => {
                self.slot = s.slots.len();
                s.slots.push(SlotModel {
                    caller: self.id,
                    issued: s.epoch,
                    probed: s.cache,
                    state: SlotState::Pending,
                    fills: 0,
                });
                s.pending.push_back(self.slot);
                self.phase = Phase::Look(SPINS);
            }
            Phase::Look(_) if s.owner.is_none() => self.locked(s),
            Phase::Look(_) if s.answered(self.slot) => self.finish(s),
            Phase::Look(0) => self.phase = Phase::Parked,
            Phase::Look(left) => self.phase = Phase::Look(left - 1),
            Phase::Parked if s.bug == Some(Bug::ParkOnSlot) => self.finish(s),
            Phase::Parked => self.locked(s),
            Phase::Take if !s.pending.contains(&self.slot) => {
                s.errors.push(format!(
                    "caller {} holds the owner lock but its slot {} is {:?}",
                    self.id, self.slot, s.slots[self.slot].state
                ));
            }
            Phase::Take if s.in_flight => {
                s.errors.push("two batches ran at once on one owner state".into());
            }
            Phase::Take => {
                let n = s.pending.len().min(MAX_BATCH);
                let batch: Vec<usize> = s.pending.drain(..n).collect();
                for &slot in &batch {
                    s.slots[slot].state = SlotState::Taken;
                }
                s.in_flight = true;
                self.phase = Phase::Pin(batch);
            }
            Phase::Pin(batch) => {
                let pinned = match s.bug {
                    Some(Bug::StalePin) => *s.kept_pin.get_or_insert(s.epoch),
                    _ => s.epoch,
                };
                let probes: Vec<Option<u64>> =
                    batch.iter().map(|&slot| s.slots[slot].probed).collect();
                let computed = match probes.iter().flatten().next() {
                    Some(&hit) if s.bug == Some(Bug::PoolProbes) => hit,
                    _ => pinned,
                };
                // A miss is computed and inserted, version-checked: the
                // insert is dropped once the epoch has moved.
                if probes.contains(&None) && pinned == s.epoch {
                    s.cache = Some(computed);
                }
                if s.bug == Some(Bug::UnlockBeforeFill) {
                    s.owner = None;
                }
                self.phase = Phase::Fill { batch, computed, next: 0 };
            }
            Phase::Fill { batch, computed, next } => {
                s.fill(batch[next], computed);
                if next + 1 < batch.len() {
                    self.phase = Phase::Fill { batch, computed, next: next + 1 };
                } else {
                    s.in_flight = false;
                    if s.answered(self.slot) {
                        self.finish(s);
                    } else if self.holds_lock(s) {
                        self.phase = Phase::Take;
                    } else {
                        self.phase = Phase::Look(SPINS);
                    }
                }
            }
            Phase::Aborted => {}
        }
    }
}

/// `apply_delta`: each step commits one delta, moving the epoch a pin
/// returns and invalidating the shared vertex's cache entry.
struct Writer {
    deltas: u32,
}

impl VThread<CombinerState> for Writer {
    fn done(&self, _: &CombinerState) -> bool {
        self.deltas == 0
    }

    fn step(&mut self, s: &mut CombinerState) {
        s.epoch += 1;
        s.cache = None;
        self.deltas -= 1;
    }
}

/// The combiner workload: three callers of three requests each on one
/// shard (a pending list of three, batches of up to two) and a writer
/// committing two deltas.
#[derive(Debug, Default)]
pub struct CombinerWorkload {
    /// The combiner bug to plant, if any (must be caught).
    pub bug: Option<Bug>,
}

impl Workload for CombinerWorkload {
    type State = CombinerState;

    fn name(&self) -> &'static str {
        match self.bug {
            None => "serving-combiner",
            Some(Bug::UnlockBeforeFill) => "serving-combiner-unlock-before-fill",
            Some(Bug::StalePin) => "serving-combiner-stale-pin",
            Some(Bug::PoolProbes) => "serving-combiner-pool-probes",
            Some(Bug::ParkOnSlot) => "serving-combiner-park-on-slot",
        }
    }

    fn setup(&self) -> (CombinerState, Threads<CombinerState>) {
        let state = CombinerState {
            pending: VecDeque::new(),
            slots: Vec::new(),
            owner: None,
            in_flight: false,
            epoch: 0,
            cache: None,
            bug: self.bug,
            kept_pin: None,
            rejected: 0,
            errors: Vec::new(),
        };
        let mut threads: Threads<CombinerState> = (0..CALLERS)
            .map(|id| {
                Box::new(Caller { id, requests: REQUESTS, slot: 0, phase: Phase::Publish })
                    as Box<dyn VThread<CombinerState>>
            })
            .collect();
        threads.push(Box::new(Writer { deltas: 2 }));
        (state, threads)
    }

    fn errors(state: &CombinerState) -> &[String] {
        &state.errors
    }

    fn check_final(&self, state: &CombinerState) -> Result<(), String> {
        if let Some((i, slot)) = state
            .slots
            .iter()
            .enumerate()
            .find(|(_, slot)| slot.state != SlotState::Collected || slot.fills != 1)
        {
            return Err(format!(
                "slot {i} of caller {} ends {:?} after {} fills",
                slot.caller, slot.state, slot.fills
            ));
        }
        let issued = state.slots.len() as u32 + state.rejected;
        if issued != CALLERS as u32 * REQUESTS || state.owner.is_some() {
            return Err(format!("{issued} requests issued, lock held by {:?}", state.owner));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loom::Explorer;

    #[test]
    fn combiner_answers_every_slot_once_under_any_schedule() {
        Explorer { seed: 42 }.explore(&CombinerWorkload::default(), 400).unwrap();
    }

    #[test]
    fn every_planted_combiner_bug_is_caught_and_replays() {
        for (bug, symptom) in [
            (Bug::UnlockBeforeFill, "owner"),
            (Bug::StalePin, "answered with a value from epoch"),
            (Bug::PoolProbes, "answered with a value from epoch"),
            (Bug::ParkOnSlot, "deadlock"),
        ] {
            let w = CombinerWorkload { bug: Some(bug) };
            let d = Explorer { seed: 42 }.explore(&w, 400).expect_err(w.name());
            assert!(d.message.contains(symptom), "{bug:?}: {d}");
            let replayed = Explorer::replay(&w, &d.schedule).expect_err("replay must diverge");
            assert_eq!(replayed.message, d.message);
            // The same schedule on the correct combiner is clean.
            Explorer::replay(&CombinerWorkload::default(), &d.schedule).unwrap();
        }
    }
}
