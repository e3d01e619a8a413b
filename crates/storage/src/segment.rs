//! Sealed cold-tier segments: the durable form of compressed rows.
//!
//! One [`Segment`] holds many encoded rows ([`crate::codec`]) for one shard
//! and one row kind, behind a sorted vertex index for O(log n) lookup. The
//! byte layout is fully self-describing and **FNV-sealed**: the final eight
//! bytes are an FNV-1a hash over everything before them, verified on every
//! deserialization — a chaos-flipped byte anywhere in the file is rejected
//! as [`SegmentError::SealMismatch`] instead of decoding into garbage,
//! mirroring how `latest_valid_checkpoint` skips CRC-corrupt checkpoint
//! files. The seal rule and the atomic disk write are [`crate::seal`]'s.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    8B  "ALGRSEG1"
//! version  4B  u32 = 1
//! kind     1B  0 = adjacency, 1 = feature
//! reserved 1B  0
//! shard    2B  u16
//! count    4B  u32
//! index    count × { vertex u32, offset u32, len u32 }   (sorted by vertex)
//! payload  Σ len bytes of codec-encoded rows
//! seal     8B  u64 FNV-1a over every preceding byte
//! ```

use crate::seal::{self, SealError, Truncated};
use std::path::Path;

/// Magic bytes opening every segment.
pub const SEGMENT_MAGIC: [u8; 8] = *b"ALGRSEG1";
/// Current format version.
pub const SEGMENT_VERSION: u32 = 1;

/// What a segment's rows encode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Delta-varint adjacency rows.
    Adjacency,
    /// XOR-varint feature rows.
    Feature,
}

impl SegmentKind {
    fn as_byte(self) -> u8 {
        match self {
            SegmentKind::Adjacency => 0,
            SegmentKind::Feature => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(SegmentKind::Adjacency),
            1 => Some(SegmentKind::Feature),
            _ => None,
        }
    }
}

/// Why a segment failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The magic bytes did not match.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// Unknown kind byte.
    BadKind(u8),
    /// The buffer ended before the declared structure did.
    Truncated,
    /// The FNV seal over the body did not match the trailer — the bytes
    /// were corrupted somewhere between write and read.
    SealMismatch {
        /// The seal stored in the trailer.
        stored: u64,
        /// The seal recomputed over the body.
        computed: u64,
    },
    /// The vertex index was not strictly sorted (corrupt index).
    IndexUnsorted,
    /// A row's (offset, len) range fell outside the payload.
    RowOutOfBounds,
    /// Filesystem failure (message carried as text; `std::io::Error` is
    /// neither `Clone` nor `PartialEq`).
    Io(String),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::BadMagic => write!(f, "bad segment magic"),
            SegmentError::BadVersion(v) => write!(f, "unsupported segment version {v}"),
            SegmentError::BadKind(k) => write!(f, "unknown segment kind {k}"),
            SegmentError::Truncated => write!(f, "segment truncated"),
            SegmentError::SealMismatch { stored, computed } => {
                write!(f, "seal mismatch: stored {stored:#x}, computed {computed:#x}")
            }
            SegmentError::IndexUnsorted => write!(f, "segment index not sorted"),
            SegmentError::RowOutOfBounds => write!(f, "row range outside payload"),
            SegmentError::Io(msg) => write!(f, "segment io: {msg}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<Truncated> for SegmentError {
    fn from(_: Truncated) -> Self {
        SegmentError::Truncated
    }
}

/// One sealed batch of encoded rows for `(shard, kind)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    kind: SegmentKind,
    shard: u16,
    /// `(vertex, offset, len)` sorted by vertex; offsets into `payload`.
    index: Vec<(u32, u32, u32)>,
    payload: Vec<u8>,
}

impl Segment {
    /// Builds a segment from already-encoded rows. `rows` must be sorted by
    /// vertex id (the builder sorts defensively — determinism requires one
    /// canonical byte stream per logical content).
    pub fn build(kind: SegmentKind, shard: u16, mut rows: Vec<(u32, Vec<u8>)>) -> Segment {
        rows.sort_by_key(|(v, _)| *v);
        let mut index = Vec::with_capacity(rows.len());
        let mut payload = Vec::new();
        for (v, bytes) in rows {
            index.push((v, payload.len() as u32, bytes.len() as u32));
            payload.extend_from_slice(&bytes);
        }
        Segment { kind, shard, index, payload }
    }

    /// The row kind.
    pub fn kind(&self) -> SegmentKind {
        self.kind
    }

    /// The owning shard at build time.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Compressed footprint: index plus payload bytes (what the cold tier
    /// "stores" per row set).
    pub fn encoded_bytes(&self) -> u64 {
        (self.index.len() * 12 + self.payload.len()) as u64
    }

    /// The encoded row of vertex `v`, if present.
    pub fn lookup(&self, v: u32) -> Option<&[u8]> {
        let i = self.index.binary_search_by_key(&v, |&(vv, _, _)| vv).ok()?;
        let (_, off, len) = self.index[i];
        self.payload.get(off as usize..(off as usize + len as usize))
    }

    /// Vertex ids present, in sorted order.
    pub fn vertices(&self) -> impl Iterator<Item = u32> + '_ {
        self.index.iter().map(|&(v, _, _)| v)
    }

    /// Serializes header, index, payload and FNV seal.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(28 + self.index.len() * 12 + self.payload.len());
        out.extend_from_slice(&SEGMENT_MAGIC);
        out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        out.push(self.kind.as_byte());
        out.push(0);
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for &(v, off, len) in &self.index {
            out.extend_from_slice(&v.to_le_bytes());
            out.extend_from_slice(&off.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        out.extend_from_slice(&self.payload);
        seal::close(&mut out);
        out
    }

    /// Deserializes and verifies: magic, version, kind, index order, row
    /// bounds and — first of all — the FNV seal over the whole body.
    pub fn from_bytes(buf: &[u8]) -> Result<Segment, SegmentError> {
        // Shorter than the 20-byte header plus trailer is truncation, whatever
        // the seal says.
        if buf.len() < 28 {
            return Err(SegmentError::Truncated);
        }
        let mut r = seal::open(buf, &SEGMENT_MAGIC).map_err(|e| match e {
            SealError::TooShort => SegmentError::Truncated,
            SealError::Mismatch { stored, computed } => {
                SegmentError::SealMismatch { stored, computed }
            }
            SealError::BadMagic => SegmentError::BadMagic,
        })?;
        let version = r.u32()?;
        if version != SEGMENT_VERSION {
            return Err(SegmentError::BadVersion(version));
        }
        let kind = r.u8()?;
        let kind = SegmentKind::from_byte(kind).ok_or(SegmentError::BadKind(kind))?;
        let _reserved = r.u8()?;
        let shard = r.u16()?;
        let count = r.u32()? as usize;
        // Bounds the allocation below: a corrupt count cannot reserve more
        // index entries than the buffer could hold.
        if r.rest().len() / 12 < count {
            return Err(SegmentError::Truncated);
        }
        let mut index = Vec::with_capacity(count);
        let mut prev: Option<u32> = None;
        for _ in 0..count {
            let (v, off, len) = (r.u32()?, r.u32()?, r.u32()?);
            if prev.is_some_and(|p| p >= v) {
                return Err(SegmentError::IndexUnsorted);
            }
            prev = Some(v);
            index.push((v, off, len));
        }
        let payload = r.rest().to_vec();
        for &(_, off, len) in &index {
            let end = (off as u64) + (len as u64);
            if end > payload.len() as u64 {
                return Err(SegmentError::RowOutOfBounds);
            }
        }
        Ok(Segment { kind, shard, index, payload })
    }

    /// Writes the sealed bytes atomically ([`seal::write_atomic`]).
    pub fn write_to(&self, path: &Path) -> Result<(), SegmentError> {
        seal::write_atomic(path, &self.to_bytes()).map_err(|e| SegmentError::Io(e.to_string()))
    }

    /// Reads and verifies a segment file.
    pub fn read_from(path: &Path) -> Result<Segment, SegmentError> {
        Segment::from_bytes(&std::fs::read(path).map_err(|e| SegmentError::Io(e.to_string()))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_feature_row, encode_feature_row};

    fn sample_segment() -> Segment {
        let rows: Vec<(u32, Vec<u8>)> = (0..50u32)
            .map(|v| {
                let mut buf = Vec::new();
                encode_feature_row(&[v as f32, v as f32 * 0.5], &mut buf);
                (v * 3, buf)
            })
            .collect();
        Segment::build(SegmentKind::Feature, 2, rows)
    }

    #[test]
    fn roundtrip_bytes() {
        let seg = sample_segment();
        let bytes = seg.to_bytes();
        // The `ALGRSEG1` byte stream is pinned: the trailer seals every byte
        // before it, so this one constant fixes the whole on-disk format.
        assert_eq!(bytes.len(), 1123);
        assert_eq!(bytes[bytes.len() - 8..], 0x268c_1ca5_3452_799d_u64.to_le_bytes());
        let back = Segment::from_bytes(&bytes).unwrap();
        assert_eq!(back, seg);
        assert_eq!(back.kind(), SegmentKind::Feature);
        assert_eq!(back.shard(), 2);
        assert_eq!(back.len(), 50);
        let row = decode_feature_row(back.lookup(9).unwrap()).unwrap();
        assert_eq!(row, vec![3.0, 1.5]);
        assert!(back.lookup(1).is_none());
    }

    #[test]
    fn deterministic_bytes_regardless_of_input_order() {
        let mut a_rows = Vec::new();
        let mut b_rows = Vec::new();
        for v in 0..20u32 {
            let mut buf = Vec::new();
            encode_feature_row(&[v as f32], &mut buf);
            a_rows.push((v, buf.clone()));
            b_rows.push((v, buf));
        }
        b_rows.reverse();
        let a = Segment::build(SegmentKind::Feature, 0, a_rows);
        let b = Segment::build(SegmentKind::Feature, 0, b_rows);
        assert_eq!(a.to_bytes(), b.to_bytes(), "one canonical byte stream");
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let seg = sample_segment();
        let bytes = seg.to_bytes();
        // Flipping any single bit anywhere (body or trailer) must fail the
        // seal — that is the whole point of sealing the body.
        for byte_at in (0..bytes.len()).step_by(97) {
            let mut corrupt = bytes.clone();
            corrupt[byte_at] ^= 0x10;
            let err = Segment::from_bytes(&corrupt).unwrap_err();
            assert!(
                matches!(err, SegmentError::SealMismatch { .. }),
                "flip at {byte_at} gave {err:?}"
            );
        }
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample_segment().to_bytes();
        for cut in [0, 10, 27, bytes.len() - 1] {
            assert!(Segment::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn empty_segment_roundtrips() {
        let seg = Segment::build(SegmentKind::Adjacency, 0, Vec::new());
        let back = Segment::from_bytes(&seg.to_bytes()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.encoded_bytes(), 0);
    }

    #[test]
    fn disk_roundtrip_is_atomic_and_sealed() {
        let dir =
            std::env::temp_dir().join(format!("aligraph-segment-test-{}", std::process::id()));
        let path = dir.join("shard-2-feat-gen0.seg");
        let seg = sample_segment();
        seg.write_to(&path).unwrap();
        // No temp file left behind.
        assert!(!path.with_extension("seg.tmp").exists());
        let back = Segment::read_from(&path).unwrap();
        assert_eq!(back, seg);
        // Corrupt one byte on disk: the read must reject it.
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(Segment::read_from(&path), Err(SegmentError::SealMismatch { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
