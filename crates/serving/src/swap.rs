//! Atomic versioned model hot-swap (DESIGN.md §2.16).
//!
//! The closed production loop ends by *deploying* freshly trained
//! embeddings into the serving layer. The deployment contract is the whole
//! point: a gather must never observe a half-swapped model — either it sees
//! version N in full or version N+1 in full. [`ModelStore`] enforces that by
//! making the published unit a single immutable [`ModelVersion`] behind one
//! pointer swap, and making staleness explicit through [`ModelPin`]s:
//! in-flight sessions that pinned version N keep reading N untouched while
//! new sessions pick up N+1.
//!
//! Every [`ModelVersion`] carries a self-fingerprint over its contents so
//! torn reads are *detectable*, not just forbidden: [`ModelVersion::verify`]
//! recomputes the fingerprint and fails on any version/row/fingerprint
//! mismatch. The mini-loom `model-swap` target drives concurrent gatherers
//! against a publisher on exactly this API (and catches a deliberately
//! broken field-by-field twin).

use aligraph_storage::seal::Fnv1a;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One immutable deployed model: a version number, the virtual tick its
/// training data runs through, the embedding rows, and a fingerprint over
/// all of it.
#[derive(Debug, Clone)]
pub struct ModelVersion {
    version: u64,
    trained_through_tick: u64,
    rows: BTreeMap<u32, Arc<Vec<f32>>>,
    fingerprint: u64,
}

impl ModelVersion {
    /// Seals a trained model into a deployable version. The fingerprint is
    /// computed here, once, over `(version, trained_through_tick, rows)` in
    /// sorted row order — bit-stable across runs.
    pub fn new(version: u64, trained_through_tick: u64, rows: BTreeMap<u32, Vec<f32>>) -> Self {
        let rows: BTreeMap<u32, Arc<Vec<f32>>> =
            rows.into_iter().map(|(k, v)| (k, Arc::new(v))).collect();
        let fingerprint = Self::compute_fingerprint(version, trained_through_tick, &rows);
        ModelVersion { version, trained_through_tick, rows, fingerprint }
    }

    fn compute_fingerprint(
        version: u64,
        trained_through_tick: u64,
        rows: &BTreeMap<u32, Arc<Vec<f32>>>,
    ) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(&version.to_le_bytes()).bytes(&trained_through_tick.to_le_bytes());
        for (k, row) in rows {
            h.bytes(&k.to_le_bytes());
            for x in row.iter() {
                h.bytes(&x.to_bits().to_le_bytes());
            }
        }
        h.finish()
    }

    /// The version number (monotonically increasing across publishes).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The virtual tick the training data for this version runs through —
    /// the freshness anchor: an interaction at tick t is reflected by the
    /// first version with `trained_through_tick >= t`.
    pub fn trained_through_tick(&self) -> u64 {
        self.trained_through_tick
    }

    /// The sealed fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of embedding rows in this version.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the version carries no rows (a valid pre-training state).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Embedding row for `vertex`, if this version carries one.
    pub fn embedding(&self, vertex: u32) -> Option<Arc<Vec<f32>>> {
        self.rows.get(&vertex).cloned()
    }

    /// Recomputes the fingerprint from the contents and checks it against
    /// the sealed one. A consistent (atomically published) version always
    /// verifies; a torn assembly of fields from two versions does not.
    pub fn verify(&self) -> bool {
        Self::compute_fingerprint(self.version, self.trained_through_tick, &self.rows)
            == self.fingerprint
    }
}

/// Error returned when a publish would move the store backwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapError {
    /// Version currently deployed.
    pub current: u64,
    /// Version the publish attempted.
    pub attempted: u64,
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "model swap must be monotonic: attempted version {} over deployed {}",
            self.attempted, self.current
        )
    }
}

impl std::error::Error for SwapError {}

/// The version-tagged deployed-model store. Readers pin, publishers swap;
/// the swap is a single `Arc` pointer replacement under the write lock, so
/// there is no observable intermediate state.
#[derive(Debug)]
pub struct ModelStore {
    current: RwLock<Arc<ModelVersion>>,
    swaps: std::sync::atomic::AtomicU64,
}

impl ModelStore {
    /// A store holding version 0: empty, trained through tick 0.
    pub fn new() -> Self {
        ModelStore {
            current: RwLock::new(Arc::new(ModelVersion::new(0, 0, BTreeMap::new()))),
            swaps: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Atomically deploys `next`. Fails (leaving the store untouched) if
    /// `next.version()` does not strictly increase — republishng an old
    /// model is always a bug in the loop scheduler.
    pub fn publish(&self, next: ModelVersion) -> Result<(), SwapError> {
        let mut guard = self.current.write();
        if next.version <= guard.version {
            return Err(SwapError { current: guard.version, attempted: next.version });
        }
        *guard = Arc::new(next);
        // ordering: Relaxed suffices — the counter is telemetry only, never
        // read to establish happens-before with the swapped contents.
        self.swaps.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Pins the currently deployed version. The pin keeps that version
    /// alive and immutable for its whole lifetime, however many publishes
    /// happen in the meantime — in-flight sessions finish on the model they
    /// started with.
    pub fn pin(&self) -> ModelPin {
        ModelPin { version: Arc::clone(&self.current.read()) }
    }

    /// Version number currently deployed (for telemetry; racy by nature —
    /// use [`ModelStore::pin`] to read contents).
    pub fn current_version(&self) -> u64 {
        self.current.read().version
    }

    /// Number of successful publishes so far.
    pub fn swap_count(&self) -> u64 {
        // ordering: Relaxed — see `publish`.
        self.swaps.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Default for ModelStore {
    fn default() -> Self {
        Self::new()
    }
}

/// A read pin on one deployed [`ModelVersion`].
#[derive(Debug, Clone)]
pub struct ModelPin {
    version: Arc<ModelVersion>,
}

impl ModelPin {
    /// The pinned version's contents.
    pub fn model(&self) -> &ModelVersion {
        &self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(pairs: &[(u32, &[f32])]) -> BTreeMap<u32, Vec<f32>> {
        pairs.iter().map(|(k, v)| (*k, v.to_vec())).collect()
    }

    #[test]
    fn sealed_version_verifies_and_serves_rows() {
        let v = ModelVersion::new(1, 7, rows(&[(3, &[1.0, 2.0]), (5, &[0.5, -0.5])]));
        assert!(v.verify());
        assert_eq!(v.version(), 1);
        assert_eq!(v.trained_through_tick(), 7);
        assert_eq!(v.len(), 2);
        assert_eq!(v.embedding(3).unwrap().as_slice(), &[1.0, 2.0]);
        assert!(v.embedding(4).is_none());
    }

    #[test]
    fn fingerprint_is_content_addressed_and_deterministic() {
        let a = ModelVersion::new(1, 7, rows(&[(3, &[1.0, 2.0])]));
        let b = ModelVersion::new(1, 7, rows(&[(3, &[1.0, 2.0])]));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = ModelVersion::new(1, 7, rows(&[(3, &[1.0, 2.5])]));
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = ModelVersion::new(2, 7, rows(&[(3, &[1.0, 2.0])]));
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn torn_assembly_fails_verify() {
        // Splice version-2 metadata onto version-1 rows — exactly what a
        // field-by-field publisher can expose mid-swap.
        let v1 = ModelVersion::new(1, 7, rows(&[(3, &[1.0, 2.0])]));
        let v2 = ModelVersion::new(2, 9, rows(&[(3, &[9.0, 9.0])]));
        let torn = ModelVersion {
            version: v2.version,
            trained_through_tick: v2.trained_through_tick,
            rows: v1.rows.clone(),
            fingerprint: v2.fingerprint,
        };
        assert!(!torn.verify());
    }

    #[test]
    fn publish_is_monotonic() {
        let store = ModelStore::new();
        assert_eq!(store.current_version(), 0);
        store.publish(ModelVersion::new(1, 5, rows(&[(0, &[1.0])]))).unwrap();
        assert_eq!(store.current_version(), 1);
        let err = store.publish(ModelVersion::new(1, 6, rows(&[]))).unwrap_err();
        assert_eq!(err, SwapError { current: 1, attempted: 1 });
        assert_eq!(store.swap_count(), 1);
    }

    #[test]
    fn old_pin_survives_a_swap() {
        let store = ModelStore::new();
        store.publish(ModelVersion::new(1, 5, rows(&[(0, &[1.0])]))).unwrap();
        let pin = store.pin();
        store.publish(ModelVersion::new(2, 9, rows(&[(0, &[2.0])]))).unwrap();
        // The in-flight pin still reads version 1 in full...
        assert_eq!(pin.model().version(), 1);
        assert_eq!(pin.model().embedding(0).unwrap().as_slice(), &[1.0]);
        assert!(pin.model().verify());
        // ...while a fresh pin sees version 2.
        let fresh = store.pin();
        assert_eq!(fresh.model().version(), 2);
        assert_eq!(fresh.model().embedding(0).unwrap().as_slice(), &[2.0]);
    }
}
