//! Compressed row codecs for the cold tier ([`crate::tier`]).
//!
//! Two row formats, both **bit-exact** under encode→decode (the tiered
//! store's headline invariant is that a cold read equals the all-hot read
//! bit for bit):
//!
//! * **Adjacency rows** — delta-varint CSR: neighbor vertex ids are stored
//!   as zigzag-encoded deltas (adjacency is built in insertion order, which
//!   for generated and migrated graphs is near-sorted, so deltas are
//!   small), edge ids likewise (they are allocated sequentially), edge
//!   types as raw bytes, attribute ids as plain varints, and weights as raw
//!   little-endian `f32` bits (floats must survive exactly — no lossy
//!   transform).
//! * **Feature rows** — XOR-previous varints: each `f32`'s bit pattern is
//!   XORed with the previous value's bits (Gorilla-style); embedding-like
//!   rows have correlated magnitudes, so the XOR clears the high exponent
//!   bits and the varint stays short.
//!
//! Decoding **never panics**: every read is bounds-checked and every count
//! is validated against the bytes that actually remain, so truncated or
//! bit-flipped buffers surface as [`CodecError`], not as a crash or an
//! absurd allocation. The segment layer adds an FNV seal on top
//! ([`crate::segment`]); this layer's own checks are what keep a *corrupt*
//! buffer from doing damage before the seal is consulted.

use aligraph_graph::{AttrId, EdgeId, EdgeType, Neighbor, VertexId};

/// Why a buffer failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended inside a value.
    Truncated {
        /// Byte offset at which more input was needed.
        offset: usize,
    },
    /// A varint ran past its maximum width (corrupt continuation bits).
    VarintOverflow {
        /// Byte offset of the overlong varint.
        offset: usize,
    },
    /// A declared element count exceeds what the remaining bytes could
    /// possibly hold (corrupt length prefix).
    CountTooLarge {
        /// The declared count.
        declared: u64,
        /// Bytes remaining after the count.
        remaining: usize,
    },
    /// Trailing bytes were left after the last declared element.
    TrailingBytes {
        /// Number of undecoded bytes.
        extra: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { offset } => write!(f, "buffer truncated at byte {offset}"),
            CodecError::VarintOverflow { offset } => write!(f, "varint overflow at byte {offset}"),
            CodecError::CountTooLarge { declared, remaining } => {
                write!(f, "declared count {declared} exceeds {remaining} remaining bytes")
            }
            CodecError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends `v` as an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint from `buf` at `*pos`, advancing it.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    let start = *pos;
    loop {
        let byte = *buf.get(*pos).ok_or(CodecError::Truncated { offset: *pos })?;
        *pos += 1;
        // 10 bytes max for u64; the 10th may only carry the top bit.
        if shift >= 63 && byte > 1 {
            return Err(CodecError::VarintOverflow { offset: start });
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::VarintOverflow { offset: start });
        }
    }
}

/// Signed→unsigned zigzag mapping (small magnitudes stay small).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn get_f32(buf: &[u8], pos: &mut usize) -> Result<f32, CodecError> {
    let end = pos.checked_add(4).ok_or(CodecError::Truncated { offset: *pos })?;
    let bytes = buf.get(*pos..end).ok_or(CodecError::Truncated { offset: *pos })?;
    *pos = end;
    // invariant: the slice above is exactly 4 bytes.
    Ok(f32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
}

/// Minimum encoded footprint of one adjacency record: 1-byte vertex delta,
/// 1-byte etype, 4-byte weight, 1-byte attr, 1-byte edge delta.
const MIN_NEIGHBOR_BYTES: u64 = 8;

/// Encodes one vertex's out-adjacency row.
pub fn encode_adjacency(nbrs: &[Neighbor], out: &mut Vec<u8>) {
    put_varint(out, nbrs.len() as u64);
    let mut prev_vertex: i64 = 0;
    let mut prev_edge: u64 = 0;
    for n in nbrs {
        let v = i64::from(n.vertex.0);
        put_varint(out, zigzag(v - prev_vertex));
        prev_vertex = v;
        out.push(n.etype.0);
        out.extend_from_slice(&n.weight.to_le_bytes());
        put_varint(out, u64::from(n.attr.0));
        put_varint(out, zigzag(n.edge.0.wrapping_sub(prev_edge) as i64));
        prev_edge = n.edge.0;
    }
}

/// Largest encoded footprint of one adjacency record: three 10-byte varints,
/// the etype byte and the 4-byte weight.
const MAX_NEIGHBOR_BYTES: usize = 35;

/// One adjacency record as stored: deltas not yet applied.
struct RawNeighbor {
    dv: u64,
    etype: u8,
    weight: f32,
    attr: u64,
    de: u64,
}

/// Reads one record through the checked readers — the tail of a row, where
/// a worst-case record no longer fits the bytes that remain.
fn get_neighbor(buf: &[u8], pos: &mut usize) -> Result<RawNeighbor, CodecError> {
    let dv = get_varint(buf, pos)?;
    let etype = *buf.get(*pos).ok_or(CodecError::Truncated { offset: *pos })?;
    *pos += 1;
    let weight = get_f32(buf, pos)?;
    let attr = get_varint(buf, pos)?;
    let de = get_varint(buf, pos)?;
    Ok(RawNeighbor { dv, etype, weight, attr, de })
}

/// Reads the varint at `w[*o..]`, where `w` is the window `buf[base..]` that
/// holds a whole worst-case record: 1- and 2-byte values (nearly all of a
/// near-sorted row) inline, anything longer through [`get_varint`] on the
/// buffer itself, so an overlong varint reports the same error at the same
/// offset as the checked path.
#[inline(always)]
fn window_varint(
    buf: &[u8],
    base: usize,
    w: &[u8; MAX_NEIGHBOR_BYTES],
    o: &mut usize,
) -> Result<u64, CodecError> {
    let b0 = w[*o];
    if b0 < 0x80 {
        *o += 1;
        return Ok(u64::from(b0));
    }
    let b1 = w[*o + 1];
    if b1 < 0x80 {
        *o += 2;
        return Ok(u64::from(b0 & 0x7f) | u64::from(b1) << 7);
    }
    let mut pos = base + *o;
    let v = get_varint(buf, &mut pos)?;
    *o = pos - base;
    Ok(v)
}

/// Decodes an adjacency row encoded by [`encode_adjacency`] into `nbrs`
/// (cleared first) and, when asked, its cumulative weight table into `cdf`
/// in the same pass — `acc += weight` in row order, the summation
/// [`crate::server`]'s `build_cdf` does, so the two agree bit for bit. The
/// whole buffer must be consumed; on error the outputs hold a prefix of the
/// row and must not be used.
///
/// While a worst-case 35-byte record still fits the remaining bytes, a
/// record is decoded per loop trip behind that one bounds check; the last
/// few records of a row go through the checked readers.
pub fn decode_adjacency_into(
    buf: &[u8],
    nbrs: &mut Vec<Neighbor>,
    mut cdf: Option<&mut Vec<f32>>,
) -> Result<(), CodecError> {
    nbrs.clear();
    if let Some(cdf) = cdf.as_deref_mut() {
        cdf.clear();
    }
    let mut pos = 0usize;
    let count = get_varint(buf, &mut pos)?;
    let remaining = buf.len() - pos;
    if count > remaining as u64 / MIN_NEIGHBOR_BYTES {
        return Err(CodecError::CountTooLarge { declared: count, remaining });
    }
    let count = count as usize;
    nbrs.reserve(count);
    if let Some(cdf) = cdf.as_deref_mut() {
        cdf.reserve(count);
    }
    let mut prev_vertex: i64 = 0;
    let mut prev_edge: u64 = 0;
    let mut acc = 0.0f32;
    let mut emit = |raw: RawNeighbor| {
        let vertex = prev_vertex.wrapping_add(unzigzag(raw.dv));
        prev_vertex = vertex;
        let edge = prev_edge.wrapping_add(unzigzag(raw.de) as u64);
        prev_edge = edge;
        nbrs.push(Neighbor {
            vertex: VertexId(vertex as u32),
            etype: EdgeType(raw.etype),
            weight: raw.weight,
            attr: AttrId(raw.attr as u32),
            edge: EdgeId(edge),
        });
        if let Some(cdf) = cdf.as_deref_mut() {
            acc += raw.weight;
            cdf.push(acc);
        }
    };
    let mut left = count;
    while left > 0 {
        let window = buf.get(pos..pos + MAX_NEIGHBOR_BYTES);
        let Some(w) = window.and_then(|w| <&[u8; MAX_NEIGHBOR_BYTES]>::try_from(w).ok()) else {
            break;
        };
        let mut o = 0usize;
        let dv = window_varint(buf, pos, w, &mut o)?;
        let etype = w[o];
        let weight = f32::from_le_bytes([w[o + 1], w[o + 2], w[o + 3], w[o + 4]]);
        o += 5;
        let attr = window_varint(buf, pos, w, &mut o)?;
        let de = window_varint(buf, pos, w, &mut o)?;
        pos += o;
        emit(RawNeighbor { dv, etype, weight, attr, de });
        left -= 1;
    }
    for _ in 0..left {
        emit(get_neighbor(buf, &mut pos)?);
    }
    if pos != buf.len() {
        return Err(CodecError::TrailingBytes { extra: buf.len() - pos });
    }
    Ok(())
}

/// Decodes an adjacency row encoded by [`encode_adjacency`]. The whole
/// buffer must be consumed.
pub fn decode_adjacency(buf: &[u8]) -> Result<Vec<Neighbor>, CodecError> {
    let mut nbrs = Vec::new();
    decode_adjacency_into(buf, &mut nbrs, None)?;
    Ok(nbrs)
}

/// Encodes one feature row as XOR-previous varints of the `f32` bits.
pub fn encode_feature_row(row: &[f32], out: &mut Vec<u8>) {
    put_varint(out, row.len() as u64);
    let mut prev: u32 = 0;
    for &x in row {
        let bits = x.to_bits();
        put_varint(out, u64::from(bits ^ prev));
        prev = bits;
    }
}

/// Decodes a feature row encoded by [`encode_feature_row`].
pub fn decode_feature_row(buf: &[u8]) -> Result<Vec<f32>, CodecError> {
    let mut pos = 0usize;
    let count = get_varint(buf, &mut pos)?;
    let remaining = buf.len() - pos;
    // Each value costs at least one byte.
    if count > remaining as u64 {
        return Err(CodecError::CountTooLarge { declared: count, remaining });
    }
    let mut row = Vec::with_capacity(count as usize);
    let mut prev: u32 = 0;
    for _ in 0..count {
        let x = get_varint(buf, &mut pos)?;
        if x > u64::from(u32::MAX) {
            return Err(CodecError::VarintOverflow { offset: pos });
        }
        let bits = (x as u32) ^ prev;
        prev = bits;
        row.push(f32::from_bits(bits));
    }
    if pos != buf.len() {
        return Err(CodecError::TrailingBytes { extra: buf.len() - pos });
    }
    Ok(row)
}

/// The byte-at-a-time decoder [`decode_adjacency_into`] replaced, kept as
/// the oracle its differential tests compare against: same rows bit for
/// bit, same error at the same offset.
#[cfg(test)]
fn decode_adjacency_scalar(buf: &[u8]) -> Result<Vec<Neighbor>, CodecError> {
    let mut pos = 0usize;
    let count = get_varint(buf, &mut pos)?;
    let remaining = buf.len() - pos;
    if count > remaining as u64 / MIN_NEIGHBOR_BYTES {
        return Err(CodecError::CountTooLarge { declared: count, remaining });
    }
    let mut nbrs = Vec::with_capacity(count as usize);
    let mut prev_vertex: i64 = 0;
    let mut prev_edge: u64 = 0;
    for _ in 0..count {
        let dv = unzigzag(get_varint(buf, &mut pos)?);
        let vertex = prev_vertex.wrapping_add(dv);
        prev_vertex = vertex;
        let etype = *buf.get(pos).ok_or(CodecError::Truncated { offset: pos })?;
        pos += 1;
        let weight = get_f32(buf, &mut pos)?;
        let attr = get_varint(buf, &mut pos)?;
        let de = unzigzag(get_varint(buf, &mut pos)?);
        let edge = prev_edge.wrapping_add(de as u64);
        prev_edge = edge;
        nbrs.push(Neighbor {
            vertex: VertexId(vertex as u32),
            etype: EdgeType(etype),
            weight,
            attr: AttrId(attr as u32),
            edge: EdgeId(edge),
        });
    }
    if pos != buf.len() {
        return Err(CodecError::TrailingBytes { extra: buf.len() - pos });
    }
    Ok(nbrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every field of every record as raw bits, so NaN payloads and signed
    /// zeros compare exactly.
    fn bits(nbrs: &[Neighbor]) -> Vec<(u32, u8, u32, u32, u64)> {
        nbrs.iter()
            .map(|n| (n.vertex.0, n.etype.0, n.weight.to_bits(), n.attr.0, n.edge.0))
            .collect()
    }

    /// Decodes `buf` through the fused fast path and through the scalar
    /// oracle and demands the same outcome: the same rows bit for bit with
    /// a CDF bit-equal to `build_cdf`'s separate pass, or the same error.
    fn assert_matches_oracle(buf: &[u8]) -> Result<(), TestCaseError> {
        // Dirty reused buffers: the decoder must clear them.
        let mut nbrs = vec![nb(9, 9, 9.0, 9, 9); 3];
        let mut cdf = vec![9.0f32; 5];
        let fast = decode_adjacency_into(buf, &mut nbrs, Some(&mut cdf));
        match (fast, decode_adjacency_scalar(buf)) {
            (Ok(()), Ok(want)) => {
                prop_assert_eq!(bits(&nbrs), bits(&want));
                let want_cdf = crate::server::build_cdf(&want);
                prop_assert_eq!(
                    cdf.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                    want_cdf.iter().map(|c| c.to_bits()).collect::<Vec<_>>()
                );
                // Without a CDF, and through the allocating wrapper.
                prop_assert_eq!(decode_adjacency_into(buf, &mut nbrs, None), Ok(()));
                prop_assert_eq!(bits(&nbrs), bits(&want));
                prop_assert_eq!(decode_adjacency(buf).map(|n| bits(&n)), Ok(bits(&want)));
            }
            (fast, want) => prop_assert_eq!(fast, want.map(|_| ())),
        }
        Ok(())
    }

    /// A value of a width class: 1-, 2- and 3-byte varints, `u32::MAX`,
    /// and the 10-byte ones.
    fn shaped(class: u64, entropy: u64) -> u64 {
        match class % 6 {
            0 => entropy % 128,
            1 => 128 + entropy % 16_256,
            2 => 16_384 + entropy % 2_000_000,
            3 => u64::from(u32::MAX),
            4 => u64::MAX,
            _ => entropy,
        }
    }

    /// A row written field by field from raw wire values — any varint width
    /// in any position, any weight bits — rather than from `Neighbor`s,
    /// which would never produce a 10-byte attr.
    fn wire_row(records: &[(u64, u64, u32, u8)]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, records.len() as u64);
        for &(classes, entropy, weight_bits, etype) in records {
            put_varint(&mut buf, shaped(classes, entropy));
            buf.push(etype);
            // One class forces a NaN with the entropy as its payload.
            let nan = if classes % 7 == 0 { 0x7fc0_0000 } else { 0 };
            buf.extend_from_slice(&(weight_bits | nan).to_le_bytes());
            put_varint(&mut buf, shaped(classes / 6, entropy.rotate_left(21)));
            put_varint(&mut buf, shaped(classes / 36, entropy.rotate_left(42)));
        }
        buf
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Valid rows of 0..40 records (so also rows shorter than one
        /// 35-byte window, where only the checked tail runs), and every
        /// truncation of them.
        #[test]
        fn fused_decode_matches_scalar_oracle_on_rows_and_truncations(
            records in prop::collection::vec(
                (0u64..216, 0u64..=u64::MAX, 0u32..=u32::MAX, 0u8..=255), 0..40),
        ) {
            let buf = wire_row(&records);
            prop_assert!(decode_adjacency_scalar(&buf).is_ok());
            assert_matches_oracle(&buf)?;
            for cut in 0..buf.len() {
                prop_assert!(decode_adjacency_scalar(&buf[..cut]).is_err());
                assert_matches_oracle(&buf[..cut])?;
            }
        }

        /// Single-byte flips, and an overlong varint spliced in at a random
        /// offset: whatever the scalar decoder makes of the damage — another
        /// row, or an error at some offset — the fused one makes the same.
        #[test]
        fn fused_decode_matches_scalar_oracle_on_corrupt_rows(
            records in prop::collection::vec(
                (0u64..216, 0u64..=u64::MAX, 0u32..=u32::MAX, 0u8..=255), 1..40),
            flips in prop::collection::vec((0usize..=usize::MAX, 1u8..=255), 1..24),
        ) {
            let buf = wire_row(&records);
            for &(at, mask) in &flips {
                let mut bad = buf.clone();
                bad[at % buf.len()] ^= mask;
                assert_matches_oracle(&bad)?;
                let mut overlong = buf.clone();
                let at = at % buf.len();
                overlong.splice(at..at, [0xff; 11]);
                assert_matches_oracle(&overlong)?;
            }
        }
    }

    fn nb(v: u32, etype: u8, weight: f32, attr: u32, edge: u64) -> Neighbor {
        Neighbor {
            vertex: VertexId(v),
            etype: EdgeType(etype),
            weight,
            attr: AttrId(attr),
            edge: EdgeId(edge),
        }
    }

    fn roundtrip_adj(nbrs: &[Neighbor]) {
        let mut buf = Vec::new();
        encode_adjacency(nbrs, &mut buf);
        let back = decode_adjacency(&buf).unwrap();
        assert_eq!(back.len(), nbrs.len());
        for (a, b) in nbrs.iter().zip(&back) {
            assert_eq!(a.vertex, b.vertex);
            assert_eq!(a.etype, b.etype);
            assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "weights bit-exact");
            assert_eq!(a.attr, b.attr);
            assert_eq!(a.edge, b.edge);
        }
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn adjacency_roundtrips() {
        roundtrip_adj(&[]);
        roundtrip_adj(&[nb(0, 0, 1.0, 0, 0)]);
        roundtrip_adj(&[
            nb(5, 1, 0.5, 7, 100),
            nb(3, 2, -1.5, 7, 90), // deltas go negative
            nb(u32::MAX, 0, f32::MIN_POSITIVE, u32::MAX, u64::MAX),
            nb(0, 255, 0.0, 0, 0),
        ]);
    }

    #[test]
    fn adjacency_preserves_weird_floats() {
        // NaN payloads and signed zeros must survive bit-for-bit.
        let nan = f32::from_bits(0x7fc0_1234);
        roundtrip_adj(&[nb(1, 0, nan, 0, 1), nb(2, 0, -0.0, 0, 2)]);
        let mut buf = Vec::new();
        encode_adjacency(&[nb(1, 0, nan, 0, 1)], &mut buf);
        let back = decode_adjacency(&buf).unwrap();
        assert_eq!(back[0].weight.to_bits(), 0x7fc0_1234);
    }

    #[test]
    fn sorted_adjacency_compresses() {
        let nbrs: Vec<Neighbor> =
            (0..1000).map(|i| nb(1000 + i, 1, 1.0, 42, 5000 + u64::from(i))).collect();
        let mut buf = Vec::new();
        encode_adjacency(&nbrs, &mut buf);
        let raw = nbrs.len() * std::mem::size_of::<Neighbor>();
        assert!(buf.len() * 2 < raw, "encoded {} vs raw {raw}", buf.len());
    }

    #[test]
    fn feature_row_roundtrips() {
        for row in [
            vec![],
            vec![0.0f32],
            vec![1.0, 1.5, -2.0, 0.25],
            vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0],
            (0..256).map(|i| (i as f32) * 0.01 - 1.0).collect::<Vec<_>>(),
        ] {
            let mut buf = Vec::new();
            encode_feature_row(&row, &mut buf);
            let back = decode_feature_row(&buf).unwrap();
            assert_eq!(back.len(), row.len());
            for (a, b) in row.iter().zip(&back) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn similar_feature_values_compress() {
        let row: Vec<f32> = (0..128).map(|i| 0.5 + (i as f32) * 1e-4).collect();
        let mut buf = Vec::new();
        encode_feature_row(&row, &mut buf);
        assert!(buf.len() < 128 * 4, "encoded {} vs raw {}", buf.len(), 128 * 4);
    }

    #[test]
    fn truncated_buffers_error_not_panic() {
        let mut buf = Vec::new();
        encode_adjacency(&[nb(1, 0, 1.0, 2, 3), nb(5, 1, 2.0, 2, 4)], &mut buf);
        for cut in 0..buf.len() {
            assert!(decode_adjacency(&buf[..cut]).is_err(), "cut at {cut} must fail");
        }
        let mut fbuf = Vec::new();
        encode_feature_row(&[1.0, 2.0, 3.0], &mut fbuf);
        for cut in 0..fbuf.len() {
            assert!(decode_feature_row(&fbuf[..cut]).is_err());
        }
    }

    #[test]
    fn absurd_count_rejected_without_allocation() {
        // A length prefix claiming u64::MAX elements on a 3-byte buffer.
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        buf.push(0);
        assert!(matches!(decode_adjacency(&buf), Err(CodecError::CountTooLarge { .. })));
        assert!(matches!(decode_feature_row(&buf), Err(CodecError::CountTooLarge { .. })));
    }

    #[test]
    fn overlong_varint_rejected() {
        let buf = [0xffu8; 11];
        let mut pos = 0;
        assert!(matches!(get_varint(&buf, &mut pos), Err(CodecError::VarintOverflow { .. })));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        encode_feature_row(&[1.0], &mut buf);
        buf.push(0x00);
        assert!(matches!(decode_feature_row(&buf), Err(CodecError::TrailingBytes { extra: 1 })));
    }
}
