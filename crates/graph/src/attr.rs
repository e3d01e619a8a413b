//! Separate attribute storage (paper §3.2, Figure 4).
//!
//! Attributes are expensive (0.1 KB–1 KB per record in production, vs. 8
//! bytes per neighbor id) and highly redundant (many vertices share the tag
//! `"gender=male"`). The paper therefore stores attributes **outside** the
//! adjacency table, in two interning indices `I_V` (vertex attributes) and
//! `I_E` (edge attributes); the adjacency table stores only a compact index.
//! This reduces the space cost from `O(n · N_D · N_L)` to
//! `O(n · N_D + N_A · N_L)`.
//!
//! [`AttrIndex`] is that interning index: it deduplicates [`AttrVector`]
//! records and hands out dense [`AttrId`]s.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A single attribute value. Mirrors the mix of structured and unstructured
/// vertex/edge content the paper describes (gender/age/location on users,
/// price/brand on items, ...).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    /// Integral attribute (e.g. age).
    Int(i64),
    /// Floating-point attribute (e.g. price). Compared bit-exactly when interning.
    Float(f32),
    /// Categorical attribute encoded as a dictionary code (e.g. brand id).
    Categorical(u32),
    /// Free text attribute (e.g. title). Kept short in the simulators.
    Text(String),
    /// Opaque payload (e.g. a serialized image feature).
    Blob(Bytes),
}

impl Eq for AttrValue {}

impl std::hash::Hash for AttrValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            AttrValue::Int(v) => {
                state.write_u8(0);
                v.hash(state);
            }
            AttrValue::Float(v) => {
                state.write_u8(1);
                v.to_bits().hash(state);
            }
            AttrValue::Categorical(v) => {
                state.write_u8(2);
                v.hash(state);
            }
            AttrValue::Text(v) => {
                state.write_u8(3);
                v.hash(state);
            }
            AttrValue::Blob(v) => {
                state.write_u8(4);
                v.hash(state);
            }
        }
    }
}

impl AttrValue {
    /// Approximate in-memory footprint in bytes, used by the storage layer's
    /// cost accounting and by the Fig 10 memory report.
    pub fn approx_bytes(&self) -> usize {
        match self {
            AttrValue::Int(_) => 8,
            AttrValue::Float(_) => 4,
            AttrValue::Categorical(_) => 4,
            AttrValue::Text(s) => s.len() + 8,
            AttrValue::Blob(b) => b.len() + 8,
        }
    }
}

/// An attribute record: the full feature vector `A_V(v)` or `A_E(e)` attached
/// to one vertex or edge.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct AttrVector(pub Vec<AttrValue>);

impl AttrVector {
    /// An empty attribute record (plain graphs).
    pub fn empty() -> Self {
        AttrVector(Vec::new())
    }

    /// Number of attribute fields.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the record carries no attributes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Approximate in-memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        8 + self.0.iter().map(AttrValue::approx_bytes).sum::<usize>()
    }
}

impl From<Vec<AttrValue>> for AttrVector {
    fn from(v: Vec<AttrValue>) -> Self {
        AttrVector(v)
    }
}

/// Dense id of an interned attribute record inside one [`AttrIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AttrId(pub u32);

impl AttrId {
    /// The id of the shared empty attribute record. [`AttrIndex::new`] always
    /// interns the empty record first, so this id is valid on every index.
    pub const EMPTY: AttrId = AttrId(0);

    /// Index form.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The interning index `I_V` / `I_E` of paper Figure 4: stores each distinct
/// attribute record once and maps it to a dense [`AttrId`].
#[derive(Debug, Clone, Default)]
pub struct AttrIndex {
    records: Vec<AttrVector>,
    lookup: HashMap<AttrVector, AttrId>,
    total_bytes: usize,
}

impl AttrIndex {
    /// Creates an index pre-seeded with the empty record at [`AttrId::EMPTY`].
    pub fn new() -> Self {
        let mut idx = AttrIndex { records: Vec::new(), lookup: HashMap::new(), total_bytes: 0 };
        idx.intern(AttrVector::empty());
        idx
    }

    /// Interns a record, returning the id of the canonical copy.
    pub fn intern(&mut self, record: AttrVector) -> AttrId {
        if let Some(&id) = self.lookup.get(&record) {
            return id;
        }
        let id = AttrId(self.records.len() as u32);
        self.total_bytes += record.approx_bytes();
        self.lookup.insert(record.clone(), id);
        self.records.push(record);
        id
    }

    /// Fetches the record for an id. Ids are only produced by `intern`, so a
    /// miss indicates index mix-up and returns `None` rather than panicking.
    #[inline]
    pub fn get(&self, id: AttrId) -> Option<&AttrVector> {
        self.records.get(id.index())
    }

    /// Number of distinct records stored (`N_A` in the paper's space analysis).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when only the empty record is present.
    pub fn is_empty(&self) -> bool {
        self.records.len() <= 1
    }

    /// Approximate payload bytes held by the index (the `N_A · N_L` term).
    pub fn approx_bytes(&self) -> usize {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(vals: &[i64]) -> AttrVector {
        AttrVector(vals.iter().map(|&v| AttrValue::Int(v)).collect())
    }

    #[test]
    fn empty_record_is_id_zero() {
        let idx = AttrIndex::new();
        assert_eq!(idx.get(AttrId::EMPTY), Some(&AttrVector::empty()));
    }

    #[test]
    fn interning_deduplicates() {
        let mut idx = AttrIndex::new();
        let a = idx.intern(rec(&[1, 2]));
        let b = idx.intern(rec(&[1, 2]));
        let c = idx.intern(rec(&[3]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(idx.len(), 3); // empty + two distinct
    }

    #[test]
    fn dedup_saves_space() {
        // The motivating example from §3.2: many vertices share the same tag.
        let mut idx = AttrIndex::new();
        let shared = AttrVector(vec![AttrValue::Text("gender=male".into())]);
        for _ in 0..1000 {
            idx.intern(shared.clone());
        }
        assert_eq!(idx.len(), 2);
        // Stored once, not a thousand times.
        assert!(idx.approx_bytes() < 2 * shared.approx_bytes());
    }

    #[test]
    fn float_attrs_intern_bit_exact() {
        let mut idx = AttrIndex::new();
        let a = idx.intern(AttrVector(vec![AttrValue::Float(1.5)]));
        let b = idx.intern(AttrVector(vec![AttrValue::Float(1.5)]));
        let c = idx.intern(AttrVector(vec![AttrValue::Float(-1.5)]));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let small = rec(&[1]);
        let large = AttrVector(vec![AttrValue::Text("a long attribute value".into())]);
        assert!(large.approx_bytes() > small.approx_bytes());
    }
}
