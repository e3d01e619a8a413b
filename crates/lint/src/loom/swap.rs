//! Mini-loom target: the serving model hot-swap under concurrent gathers.
//!
//! The closed loop's deployment contract (DESIGN.md §2.16): a gather must
//! never observe a half-swapped model — either version N in full or
//! version N+1 in full, and an in-flight pin keeps its version however many
//! publishes land meanwhile. The real [`ModelStore`] makes the published
//! unit one immutable [`ModelVersion`] behind a single pointer swap, so
//! there is no intermediate state to observe.
//!
//! The buggy twin ([`SplitModel`]) is the design this replaced: an
//! in-place store whose publisher writes the version number, the rows, and
//! the fingerprint as *separate* steps. Any schedule that lets a gatherer
//! run between those steps exposes a torn model — new version number over
//! old rows, or new rows under the old seal — and the explorer catches it
//! through exactly the check production gathers run:
//! fingerprint-verification plus rows-match-version.
//!
//! Rows are self-describing: version `v` publishes every row as
//! `[v as f32, v as f32]`, so "do these rows belong to this version" is an
//! exact integer comparison, not an approximate one.

use super::{Threads, VThread, Workload};
use aligraph_serving::{ModelPin, ModelStore, ModelVersion};
use aligraph_storage::seal::Fnv1a;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Embedding rows every published version carries.
const ROWS: u32 = 3;

/// The rows version `v` publishes: self-describing payloads.
fn rows_for(v: u64) -> BTreeMap<u32, Vec<f32>> {
    (0..ROWS).map(|k| (k, vec![v as f32, v as f32])).collect()
}

/// FNV-1a seal over `(version, tick, rows)` — the twin's local stand-in
/// for [`ModelVersion`]'s sealed fingerprint (same construction, local so
/// the torn states are observable field-by-field).
fn seal(version: u64, tick: u64, rows: &BTreeMap<u32, Arc<Vec<f32>>>) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(&version.to_le_bytes()).bytes(&tick.to_le_bytes());
    for (k, row) in rows {
        h.bytes(&k.to_le_bytes());
        for x in row.iter() {
            h.bytes(&x.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

/// The buggy twin: a mutable in-place model whose fields a publisher
/// rewrites across separate scheduler steps.
#[derive(Debug)]
pub struct SplitModel {
    version: u64,
    tick: u64,
    rows: BTreeMap<u32, Arc<Vec<f32>>>,
    fingerprint: u64,
}

impl SplitModel {
    fn initial() -> SplitModel {
        let rows: BTreeMap<u32, Arc<Vec<f32>>> =
            rows_for(0).into_iter().map(|(k, v)| (k, Arc::new(v))).collect();
        let fingerprint = seal(0, 0, &rows);
        SplitModel { version: 0, tick: 0, rows, fingerprint }
    }

    /// The gather-side consistency check: the seal must match the fields
    /// and every row must carry the version it claims.
    fn verify(&self) -> Result<(), String> {
        if seal(self.version, self.tick, &self.rows) != self.fingerprint {
            return Err(format!(
                "torn model: version {} fields do not match their seal",
                self.version
            ));
        }
        for (k, row) in &self.rows {
            if row.first().copied() != Some(self.version as f32) {
                return Err(format!(
                    "torn model: version {} served row {k} from version {}",
                    self.version,
                    row.first().copied().unwrap_or(-1.0)
                ));
            }
        }
        Ok(())
    }
}

/// Shared state: the real atomic store and the split twin side by side;
/// `buggy` picks which one the threads exercise.
#[derive(Debug)]
pub struct SwapState {
    store: ModelStore,
    split: SplitModel,
    buggy: bool,
    errors: Vec<String>,
}

/// Where a field-by-field publish is within its three-step window.
enum PublishPhase {
    /// Write the version number and tick.
    Header,
    /// Replace the rows.
    Rows,
    /// Recompute and write the seal.
    Seal,
}

/// The deployer: publishes versions `1..=versions`. Against the real store
/// each publish is one step (one sealed value, one pointer swap); against
/// the split twin it is three steps, and the race window between them is
/// the whole point.
struct Publisher {
    next: u64,
    versions: u64,
    phase: PublishPhase,
}

impl VThread<SwapState> for Publisher {
    fn done(&self, _: &SwapState) -> bool {
        self.next > self.versions
    }
    fn step(&mut self, s: &mut SwapState) {
        let v = self.next;
        if !s.buggy {
            #[expect(
                clippy::expect_used,
                reason = "versions strictly increase, so publish never fails"
            )]
            s.store.publish(ModelVersion::new(v, v * 10, rows_for(v))).expect("monotonic publish");
            self.next += 1;
            return;
        }
        match self.phase {
            PublishPhase::Header => {
                s.split.version = v;
                s.split.tick = v * 10;
                self.phase = PublishPhase::Rows;
            }
            PublishPhase::Rows => {
                s.split.rows = rows_for(v).into_iter().map(|(k, r)| (k, Arc::new(r))).collect();
                self.phase = PublishPhase::Seal;
            }
            PublishPhase::Seal => {
                s.split.fingerprint = seal(s.split.version, s.split.tick, &s.split.rows);
                self.phase = PublishPhase::Header;
                self.next += 1;
            }
        }
    }
}

/// A gatherer: each step pins the current model and runs the production
/// consistency check. Against the real store it additionally holds one pin
/// across steps to assert in-flight pins never move.
struct Gatherer {
    rounds_left: u32,
    held: Option<ModelPin>,
}

impl VThread<SwapState> for Gatherer {
    fn done(&self, _: &SwapState) -> bool {
        self.rounds_left == 0
    }
    fn step(&mut self, s: &mut SwapState) {
        self.rounds_left -= 1;
        if s.buggy {
            if let Err(m) = s.split.verify() {
                s.errors.push(m);
            }
            return;
        }
        let pin = s.store.pin();
        let model = pin.model();
        if !model.verify() {
            s.errors.push(format!("pinned version {} failed verify", model.version()));
        }
        // Version 0 is the store's empty pre-deployment state; every
        // published version carries its self-describing rows.
        if model.version() > 0 {
            for k in 0..ROWS {
                let row = model.embedding(k);
                let want = model.version() as f32;
                if row.as_ref().and_then(|r| r.first().copied()) != Some(want) {
                    s.errors.push(format!(
                        "pinned version {} served row {k} from another version",
                        model.version()
                    ));
                }
            }
        }
        match &self.held {
            None => self.held = Some(pin),
            Some(held) => {
                // The pin taken on an earlier step must still read its
                // original version in full, however many swaps landed.
                let m = held.model();
                if !m.verify() || m.version() > model.version() {
                    s.errors.push(format!(
                        "held pin moved: version {} after a later pin saw {}",
                        m.version(),
                        model.version()
                    ));
                }
            }
        }
    }
}

/// The model-swap workload: one publisher racing two gatherers.
#[derive(Debug)]
pub struct SwapWorkload {
    /// Versions the publisher deploys per interleaving.
    pub versions: u64,
    /// Pin-and-verify rounds per gatherer.
    pub rounds: u32,
    /// Use the field-by-field split twin (must be caught).
    pub buggy: bool,
}

impl Default for SwapWorkload {
    fn default() -> Self {
        SwapWorkload { versions: 3, rounds: 6, buggy: false }
    }
}

impl SwapWorkload {
    /// The buggy twin: version, rows and seal published as separate steps.
    pub fn buggy() -> Self {
        SwapWorkload { buggy: true, ..Self::default() }
    }
}

impl Workload for SwapWorkload {
    type State = SwapState;

    fn name(&self) -> &'static str {
        if self.buggy {
            "model-swap-buggy"
        } else {
            "model-swap"
        }
    }

    fn setup(&self) -> (SwapState, Threads<SwapState>) {
        let state = SwapState {
            store: ModelStore::new(),
            split: SplitModel::initial(),
            buggy: self.buggy,
            errors: Vec::new(),
        };
        let threads: Threads<SwapState> = vec![
            Box::new(Publisher { next: 1, versions: self.versions, phase: PublishPhase::Header }),
            Box::new(Gatherer { rounds_left: self.rounds, held: None }),
            Box::new(Gatherer { rounds_left: self.rounds, held: None }),
        ];
        (state, threads)
    }

    fn errors(state: &SwapState) -> &[String] {
        &state.errors
    }

    fn check_final(&self, state: &SwapState) -> Result<(), String> {
        if state.buggy {
            // With every thread drained the split twin is quiescent and
            // self-consistent — the bug is only visible mid-flight.
            return state.split.verify();
        }
        let current = state.store.current_version();
        if current != self.versions {
            return Err(format!(
                "store ends at version {current}, publisher deployed {}",
                self.versions
            ));
        }
        if state.store.swap_count() != self.versions {
            return Err(format!(
                "swap count {} != versions published {}",
                state.store.swap_count(),
                self.versions
            ));
        }
        state
            .store
            .pin()
            .model()
            .verify()
            .then_some(())
            .ok_or_else(|| format!("final deployed version {current} failed verify"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loom::Explorer;

    #[test]
    fn atomic_swap_never_tears_under_any_schedule() {
        Explorer { seed: 42 }.explore(&SwapWorkload::default(), 400).unwrap();
    }

    #[test]
    fn field_by_field_publish_is_caught_and_replays() {
        let d = Explorer { seed: 42 }
            .explore(&SwapWorkload::buggy(), 400)
            .expect_err("a split publish must expose a torn model to some schedule");
        assert!(d.message.contains("torn model"), "{d}");
        let replayed = Explorer::replay(&SwapWorkload::buggy(), &d.schedule)
            .expect_err("replay must reproduce the divergence");
        assert_eq!(replayed.message, d.message);
    }

    #[test]
    fn split_twin_is_consistent_when_quiescent() {
        let m = SplitModel::initial();
        assert!(m.verify().is_ok());
    }
}
