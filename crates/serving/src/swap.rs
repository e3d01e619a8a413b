//! Atomic versioned model hot-swap (DESIGN.md §2.16).
//!
//! The closed production loop ends by *deploying* freshly trained
//! embeddings into the serving layer. The deployment contract is the whole
//! point: a gather must never observe a half-swapped model — either it sees
//! version N in full or version N+1 in full. The published unit is one
//! immutable [`ModelVersion`], deployed through storage's publish cell
//! ([`Published`](aligraph_storage::Published), DESIGN.md §2.15) under its
//! version number: in-flight sessions that pinned version N keep reading N
//! untouched while new sessions pick up N+1, and a publish that does not
//! move the version forward is refused.
//!
//! Every [`ModelVersion`] carries a self-fingerprint over its contents so
//! torn reads are *detectable*, not just forbidden: [`ModelVersion::verify`]
//! recomputes the fingerprint and fails on any version/row/fingerprint
//! mismatch.

use aligraph_storage::seal::Fnv1a;
use aligraph_storage::Versioned;
use std::collections::BTreeMap;
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

impl Versioned for ModelVersion {
    fn epoch(&self) -> u64 {
        self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_storage::Published;

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
    fn old_pin_survives_a_swap() {
        let store = Published::new(ModelVersion::new(1, 5, rows(&[(0, &[1.0])])));
        let pin = store.pin();
        store.write().publish(ModelVersion::new(2, 9, rows(&[(0, &[2.0])])), || {}).unwrap();
        // The in-flight pin still reads version 1 in full...
        assert_eq!(pin.version(), 1);
        assert_eq!(pin.embedding(0).unwrap().as_slice(), &[1.0]);
        assert!(pin.verify());
        // ...while a fresh pin sees version 2.
        let fresh = store.pin();
        assert_eq!(fresh.version(), 2);
        assert_eq!(fresh.embedding(0).unwrap().as_slice(), &[2.0]);
        assert!(fresh.verify());
    }
}
