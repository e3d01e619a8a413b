//! Compressed row codecs for the cold tier ([`crate::tier`]).
//!
//! Two row formats, both **bit-exact** under encode→decode (the tiered
//! store's headline invariant is that a cold read equals the all-hot read
//! bit for bit):
//!
//! * **Adjacency rows** — block-columnar: a row's records go in blocks of
//!   [`BLOCK_RECORDS`], and each block stores its fields as columns of one
//!   fixed byte width apiece, the widths in a header byte. Neighbor ids are
//!   zigzag deltas (adjacency is built in insertion order, which for
//!   generated and migrated graphs is near-sorted, so deltas are small),
//!   edge types a byte each or one byte for a block of one type, weights
//!   raw little-endian `f32` bits (floats must survive exactly — no lossy
//!   transform), and attribute ids at the width of the block's largest.
//!   Fixed-width columns unpack without the serial chain of a varint's
//!   continuation bits. A record carries no edge id: an out-record's id is
//!   its position in the graph, not part of the row.
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

use aligraph_graph::{AttrId, EdgeType, Neighbor, VertexId};

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
    /// An adjacency block's header byte names a column width past its
    /// maximum or sets the reserved bit.
    BadBlockHeader {
        /// Byte offset of the header.
        offset: usize,
        /// The header byte.
        header: u8,
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
            CodecError::BadBlockHeader { offset, header } => {
                write!(f, "bad block header {header:#04x} at byte {offset}")
            }
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

/// Records per block of an adjacency row; a row's last block holds the rest.
pub const BLOCK_RECORDS: usize = 128;

/// Widest vertex-delta column: the zigzag delta of two `u32` ids takes up
/// to 33 bits.
const MAX_DELTA_WIDTH: u8 = 5;

/// Widest attr column: a `u32`.
const MAX_ATTR_WIDTH: u8 = 4;

/// Block header flag: the block's records share one etype, stored once.
const CONSTANT_ETYPE: u8 = 0x40;

/// Minimum encoded footprint of one adjacency record: its 4-byte weight.
const MIN_NEIGHBOR_BYTES: u64 = 4;

/// Bytes needed to hold `max` (0 for 0).
fn byte_width(max: u64) -> u8 {
    (64 - max.leading_zeros()).div_ceil(8) as u8
}

/// The zigzag delta from vertex `a` to vertex `b`.
fn vertex_delta(a: VertexId, b: VertexId) -> u64 {
    zigzag(i64::from(b.0) - i64::from(a.0))
}

/// Encodes one vertex's out-adjacency row: the record count as a varint,
/// then blocks of up to [`BLOCK_RECORDS`] records, each stored as columns
/// of fixed-width fields —
///
/// ```text
/// header    1B  bits 0-2 delta width (0-5), bits 3-5 attr width (0-4),
///               bit 6 constant etype, bit 7 zero
/// first     varint  zigzag delta of the block's first vertex from the
///               previous block's last (from 0 in the first block)
/// deltas    (n-1) × delta width  zigzag delta from the previous record, LE
/// etypes    n bytes, or 1 when the constant-etype bit is set
/// weights   n × 4B  raw little-endian f32 bits
/// attrs     n × attr width  LE
/// ```
///
/// Each width is the fewest bytes that hold the block's largest value, so a
/// near-sorted row stores one byte a delta and a graph with one attr id
/// stores no attr column at all.
pub fn encode_adjacency(nbrs: &[Neighbor], out: &mut Vec<u8>) {
    put_varint(out, nbrs.len() as u64);
    let mut prev = VertexId(0);
    for block in nbrs.chunks(BLOCK_RECORDS) {
        let deltas = || block.windows(2).map(|pair| vertex_delta(pair[0].vertex, pair[1].vertex));
        let delta_width = byte_width(deltas().max().unwrap_or(0));
        let attr_width = byte_width(block.iter().map(|n| u64::from(n.attr.0)).max().unwrap_or(0));
        let etype = block[0].etype;
        let constant = block.iter().all(|n| n.etype == etype);
        out.push(delta_width | (attr_width << 3) | if constant { CONSTANT_ETYPE } else { 0 });
        put_varint(out, vertex_delta(prev, block[0].vertex));
        for d in deltas() {
            out.extend_from_slice(&d.to_le_bytes()[..usize::from(delta_width)]);
        }
        if constant {
            out.push(etype.0);
        } else {
            out.extend(block.iter().map(|n| n.etype.0));
        }
        for n in block {
            out.extend_from_slice(&n.weight.to_le_bytes());
        }
        for n in block {
            out.extend_from_slice(&n.attr.0.to_le_bytes()[..usize::from(attr_width)]);
        }
        prev = block[block.len() - 1].vertex;
    }
}

/// One block's header, checked: the column widths in bytes and whether the
/// etype is stored once.
#[derive(Clone, Copy)]
struct BlockHeader {
    delta_width: usize,
    attr_width: usize,
    constant_etype: bool,
}

impl BlockHeader {
    /// Reads the header byte at `*pos`, advancing it. A width past its
    /// column's maximum or a set reserved bit is [`CodecError::BadBlockHeader`].
    fn read(buf: &[u8], pos: &mut usize) -> Result<BlockHeader, CodecError> {
        let offset = *pos;
        let header = *buf.get(offset).ok_or(CodecError::Truncated { offset })?;
        let (delta_width, attr_width) = (header & 0x07, (header >> 3) & 0x07);
        if header & 0x80 != 0 || delta_width > MAX_DELTA_WIDTH || attr_width > MAX_ATTR_WIDTH {
            return Err(CodecError::BadBlockHeader { offset, header });
        }
        *pos += 1;
        Ok(BlockHeader {
            delta_width: usize::from(delta_width),
            attr_width: usize::from(attr_width),
            constant_etype: header & CONSTANT_ETYPE != 0,
        })
    }

    /// Bytes of an `n`-record block's columns after its first-vertex varint.
    fn columns_len(self, n: usize) -> usize {
        (n - 1) * self.delta_width
            + if self.constant_etype { 1 } else { n }
            + 4 * n
            + n * self.attr_width
    }
}

/// Unpacks a column of `W`-byte little-endian values into `out`, one per
/// element. A fixed `W` makes this a straight-line load per value, with
/// no branch and no shift that depends on the data.
#[inline(always)]
fn unpack<const W: usize>(column: &[u8], out: &mut [u64]) {
    for (o, bytes) in out.iter_mut().zip(column.chunks_exact(W)) {
        let mut le = [0u8; 8];
        le[..W].copy_from_slice(bytes);
        *o = u64::from_le_bytes(le);
    }
}

/// [`unpack`] at a checked header width (0 = every value is 0).
fn unpack_column(column: &[u8], width: usize, out: &mut [u64]) {
    match width {
        1 => unpack::<1>(column, out),
        2 => unpack::<2>(column, out),
        3 => unpack::<3>(column, out),
        4 => unpack::<4>(column, out),
        5 => unpack::<5>(column, out),
        _ => out.fill(0),
    }
}

/// Decodes an adjacency row encoded by [`encode_adjacency`] into `nbrs`
/// (cleared first). The whole buffer must be consumed; on error `nbrs`
/// holds a prefix of the row and must not be used.
///
/// A block is one bounds check: its header and first vertex are read, the
/// length of its columns follows from the header, and each column is
/// unpacked at its fixed width before the records are assembled, the
/// vertex ids by one running sum that carries across blocks.
pub fn decode_adjacency_into(buf: &[u8], nbrs: &mut Vec<Neighbor>) -> Result<(), CodecError> {
    nbrs.clear();
    let mut pos = 0usize;
    let count = get_varint(buf, &mut pos)?;
    let remaining = buf.len() - pos;
    if count > remaining as u64 / MIN_NEIGHBOR_BYTES {
        return Err(CodecError::CountTooLarge { declared: count, remaining });
    }
    let count = count as usize;
    nbrs.reserve(count);
    let mut deltas = [0u64; BLOCK_RECORDS];
    let mut attrs = [0u64; BLOCK_RECORDS];
    let mut etypes = [0u8; BLOCK_RECORDS];
    let mut vertex = 0u32;
    let mut left = count;
    while left > 0 {
        let n = left.min(BLOCK_RECORDS);
        let header = BlockHeader::read(buf, &mut pos)?;
        deltas[0] = get_varint(buf, &mut pos)?;
        let end = pos + header.columns_len(n);
        let columns = buf.get(pos..end).ok_or(CodecError::Truncated { offset: buf.len() })?;
        pos = end;
        let (delta_col, rest) = columns.split_at((n - 1) * header.delta_width);
        let (etype_col, rest) = rest.split_at(if header.constant_etype { 1 } else { n });
        let (weight_col, attr_col) = rest.split_at(4 * n);
        unpack_column(delta_col, header.delta_width, &mut deltas[1..n]);
        unpack_column(attr_col, header.attr_width, &mut attrs[..n]);
        if header.constant_etype {
            etypes[..n].fill(etype_col[0]);
        } else {
            etypes[..n].copy_from_slice(etype_col);
        }
        let records = deltas[..n].iter().zip(weight_col.chunks_exact(4)).zip(&attrs[..n]);
        nbrs.extend(records.zip(&etypes[..n]).map(|(((&d, w), &attr), &etype)| {
            vertex = vertex.wrapping_add(unzigzag(d) as u32);
            Neighbor {
                vertex: VertexId(vertex),
                weight: f32::from_le_bytes([w[0], w[1], w[2], w[3]]),
                attr: AttrId(attr as u32),
                etype: EdgeType(etype),
            }
        }));
        left -= n;
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
    decode_adjacency_into(buf, &mut nbrs)?;
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

/// A record-at-a-time reader of the block layout, the oracle the columnar
/// decoder's differential tests compare against: it reads each record's
/// fields where the block header puts them, one checked read a field, and
/// carries the vertex as an `i64` sum. Same rows bit for bit, same error
/// at the same offset.
#[cfg(test)]
fn decode_adjacency_per_record(buf: &[u8]) -> Result<Vec<Neighbor>, CodecError> {
    let field = |at: usize, width: usize| -> Result<u64, CodecError> {
        let bytes = buf.get(at..at + width).ok_or(CodecError::Truncated { offset: buf.len() })?;
        Ok(bytes.iter().rev().fold(0, |v, &b| (v << 8) | u64::from(b)))
    };
    let mut pos = 0usize;
    let count = get_varint(buf, &mut pos)?;
    let remaining = buf.len() - pos;
    if count > remaining as u64 / 4 {
        return Err(CodecError::CountTooLarge { declared: count, remaining });
    }
    let count = count as usize;
    let mut nbrs = Vec::new();
    let mut vertex = 0i64;
    for start in (0..count).step_by(BLOCK_RECORDS) {
        let n = (count - start).min(BLOCK_RECORDS);
        let header = field(pos, 1)? as u8;
        let (delta_width, attr_width) = (usize::from(header & 7), usize::from((header >> 3) & 7));
        if header >= 0x80 || delta_width > 5 || attr_width > 4 {
            return Err(CodecError::BadBlockHeader { offset: pos, header });
        }
        let constant_etype = header & 0x40 != 0;
        pos += 1;
        let first = get_varint(buf, &mut pos)?;
        let etypes = pos + (n - 1) * delta_width;
        let weights = etypes + if constant_etype { 1 } else { n };
        let attrs = weights + 4 * n;
        for i in 0..n {
            let delta =
                if i == 0 { first } else { field(pos + (i - 1) * delta_width, delta_width)? };
            vertex = vertex.wrapping_add(unzigzag(delta));
            let etype = field(etypes + if constant_etype { 0 } else { i }, 1)?;
            let weight = field(weights + 4 * i, 4)?;
            let attr = field(attrs + attr_width * i, attr_width)?;
            nbrs.push(Neighbor {
                vertex: VertexId(vertex as u32),
                weight: f32::from_bits(weight as u32),
                attr: AttrId(attr as u32),
                etype: EdgeType(etype as u8),
            });
        }
        pos = attrs + attr_width * n;
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
    fn bits(nbrs: &[Neighbor]) -> Vec<(u32, u8, u32, u32)> {
        nbrs.iter().map(|n| (n.vertex.0, n.etype.0, n.weight.to_bits(), n.attr.0)).collect()
    }

    /// Decodes `buf` through the columnar decoder and through the
    /// per-record oracle and demands the same outcome: the same rows bit
    /// for bit, or the same error.
    fn assert_matches_oracle(buf: &[u8]) -> Result<(), TestCaseError> {
        // A dirty reused buffer: the decoder must clear it.
        let mut nbrs = vec![nb(9, 9, 9.0, 9); 3];
        let fast = decode_adjacency_into(buf, &mut nbrs);
        match (fast, decode_adjacency_per_record(buf)) {
            (Ok(()), Ok(want)) => {
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

    /// A row written column by column from raw wire values — each block at
    /// any widths its header allows (`shapes`, cycled: delta width
    /// `shape % 6`, attr width `shape / 6 % 5`, constant etype when
    /// `shape >= 30`), its first vertex at any varint width, any weight
    /// bits — rather than through `encode_adjacency`, which writes only the
    /// narrowest widths.
    fn wire_row(records: &[(u64, u64, u32, u8)], shapes: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, records.len() as u64);
        for (block, shape) in records.chunks(BLOCK_RECORDS).zip(shapes.iter().cycle()) {
            let (delta_width, attr_width) = (usize::from(shape % 6), usize::from(shape / 6 % 5));
            let constant = *shape >= 30;
            let widths = (delta_width | (attr_width << 3)) as u8;
            buf.push(widths | if constant { CONSTANT_ETYPE } else { 0 });
            put_varint(&mut buf, shaped(block[0].0, block[0].1));
            for &(_, entropy, _, _) in &block[1..] {
                buf.extend_from_slice(&entropy.to_le_bytes()[..delta_width]);
            }
            if constant {
                buf.push(block[0].3);
            } else {
                buf.extend(block.iter().map(|r| r.3));
            }
            for &(class, _, weight_bits, _) in block {
                // One class forces a NaN with the entropy as its payload.
                let nan = if class % 7 == 0 { 0x7fc0_0000 } else { 0 };
                buf.extend_from_slice(&(weight_bits | nan).to_le_bytes());
            }
            for &(_, entropy, _, _) in block {
                buf.extend_from_slice(&entropy.rotate_left(21).to_le_bytes()[..attr_width]);
            }
        }
        buf
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Valid rows of 0..300 records — one, two and three blocks, at
        /// every width — and every truncation of them.
        #[test]
        fn columnar_decode_matches_per_record_oracle_on_rows_and_truncations(
            records in prop::collection::vec(
                (0u64..36, 0u64..=u64::MAX, 0u32..=u32::MAX, 0u8..=255), 0..300),
            shapes in prop::collection::vec(0u8..60, 1..4),
        ) {
            let buf = wire_row(&records, &shapes);
            prop_assert!(decode_adjacency_per_record(&buf).is_ok());
            assert_matches_oracle(&buf)?;
            for cut in 0..buf.len() {
                prop_assert!(decode_adjacency_per_record(&buf[..cut]).is_err());
                assert_matches_oracle(&buf[..cut])?;
            }
        }

        /// Single-byte flips anywhere, headers and first-vertex varints
        /// included: whatever the oracle makes of the damage — another row,
        /// or an error at some offset — the columnar decoder makes the same.
        #[test]
        fn columnar_decode_matches_per_record_oracle_on_corrupt_rows(
            records in prop::collection::vec(
                (0u64..36, 0u64..=u64::MAX, 0u32..=u32::MAX, 0u8..=255), 1..300),
            shapes in prop::collection::vec(0u8..60, 1..4),
            flips in prop::collection::vec((0usize..=usize::MAX, 1u8..=255), 1..24),
        ) {
            let buf = wire_row(&records, &shapes);
            for &(at, mask) in &flips {
                let mut bad = buf.clone();
                bad[at % buf.len()] ^= mask;
                assert_matches_oracle(&bad)?;
            }
        }

        /// Bytes spliced in at a random offset — an overlong varint, or a
        /// run of arbitrary bytes — shift every column after them: same
        /// outcome as the oracle, same error variant at the same offset.
        #[test]
        fn columnar_decode_matches_per_record_oracle_on_spliced_bytes(
            records in prop::collection::vec(
                (0u64..36, 0u64..=u64::MAX, 0u32..=u32::MAX, 0u8..=255), 1..300),
            shapes in prop::collection::vec(0u8..60, 1..4),
            splices in prop::collection::vec(
                (0usize..=usize::MAX, prop::collection::vec(0u8..=255, 1..12)), 1..12),
        ) {
            let buf = wire_row(&records, &shapes);
            for (at, bytes) in &splices {
                let at = at % buf.len();
                let mut overlong = buf.clone();
                overlong.splice(at..at, [0xff; 11]);
                assert_matches_oracle(&overlong)?;
                let mut spliced = buf.clone();
                spliced.splice(at..at, bytes.iter().copied());
                assert_matches_oracle(&spliced)?;
            }
        }
    }

    fn nb(v: u32, etype: u8, weight: f32, attr: u32) -> Neighbor {
        Neighbor { vertex: VertexId(v), weight, attr: AttrId(attr), etype: EdgeType(etype) }
    }

    fn roundtrip_adj(nbrs: &[Neighbor]) {
        let mut buf = Vec::new();
        encode_adjacency(nbrs, &mut buf);
        let back = decode_adjacency(&buf).unwrap();
        assert_eq!(bits(&decode_adjacency_per_record(&buf).unwrap()), bits(&back));
        assert_eq!(back.len(), nbrs.len());
        for (a, b) in nbrs.iter().zip(&back) {
            assert_eq!(a.vertex, b.vertex);
            assert_eq!(a.etype, b.etype);
            assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "weights bit-exact");
            assert_eq!(a.attr, b.attr);
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
        roundtrip_adj(&[nb(0, 0, 1.0, 0)]);
        roundtrip_adj(&[
            nb(5, 1, 0.5, 7),
            nb(3, 2, -1.5, 7), // deltas go negative
            nb(u32::MAX, 0, f32::MIN_POSITIVE, u32::MAX),
            nb(0, 255, 0.0, 0),
        ]);
    }

    #[test]
    fn adjacency_preserves_weird_floats() {
        // NaN payloads and signed zeros must survive bit-for-bit.
        let nan = f32::from_bits(0x7fc0_1234);
        roundtrip_adj(&[nb(1, 0, nan, 0), nb(2, 0, -0.0, 0)]);
        let mut buf = Vec::new();
        encode_adjacency(&[nb(1, 0, nan, 0)], &mut buf);
        let back = decode_adjacency(&buf).unwrap();
        assert_eq!(back[0].weight.to_bits(), 0x7fc0_1234);
    }

    #[test]
    fn sorted_adjacency_compresses() {
        let nbrs: Vec<Neighbor> = (0..1000).map(|i| nb(1000 + i, 1, 1.0, 42)).collect();
        let mut buf = Vec::new();
        encode_adjacency(&nbrs, &mut buf);
        let raw = nbrs.len() * std::mem::size_of::<Neighbor>();
        assert!(buf.len() * 2 < raw, "encoded {} vs raw {raw}", buf.len());
    }

    #[test]
    fn rows_on_each_side_of_a_block_boundary_roundtrip() {
        for n in [0u32, 1, 127, 128, 129, 257] {
            // Near-sorted ids with a far jump every 37th record, so some
            // blocks start after a wide delta, and three etypes.
            let row: Vec<Neighbor> = (0..n)
                .map(|i| {
                    let v = if i % 37 == 36 { 5_000_000 + i } else { 1_000 + 3 * i };
                    nb(v, (i % 3) as u8, i as f32 * 0.5, 0)
                })
                .collect();
            roundtrip_adj(&row);
        }
    }

    #[test]
    fn a_block_of_one_etype_stores_it_once() {
        let encoded = |etype: fn(u32) -> u8| {
            let row: Vec<Neighbor> = (0..128).map(|i| nb(i, etype(i), 1.0, 0)).collect();
            roundtrip_adj(&row);
            let mut buf = Vec::new();
            encode_adjacency(&row, &mut buf);
            buf
        };
        let (mixed, constant) = (encoded(|i| (i % 2) as u8), encoded(|_| 5));
        // The count takes two bytes; the header follows.
        assert_eq!(mixed[2] & CONSTANT_ETYPE, 0);
        assert_eq!(constant[2] & CONSTANT_ETYPE, CONSTANT_ETYPE);
        assert_eq!(mixed.len() - constant.len(), 127);
    }

    #[test]
    fn attr_columns_take_the_width_of_the_largest_attr() {
        for (width, attr) in [(0u8, 0u32), (1, 0xff), (2, 0x100), (3, 0xff_ffff), (4, u32::MAX)] {
            let row = [nb(1, 0, 1.0, 0), nb(2, 0, 1.0, attr)];
            let mut buf = Vec::new();
            encode_adjacency(&row, &mut buf);
            assert_eq!((buf[1] >> 3) & 7, width, "attr {attr:#x}");
            roundtrip_adj(&row);
        }
    }

    #[test]
    fn a_jump_across_the_id_space_takes_a_five_byte_delta() {
        for row in [
            [nb(u32::MAX, 0, 1.0, 0), nb(0, 0, 1.0, 0)],
            [nb(0, 0, 1.0, 0), nb(u32::MAX, 0, 1.0, 0)],
        ] {
            let mut buf = Vec::new();
            encode_adjacency(&row, &mut buf);
            assert_eq!(buf[1] & 7, 5);
            roundtrip_adj(&row);
        }
    }

    #[test]
    fn a_header_width_out_of_range_is_a_typed_error() {
        let row: Vec<Neighbor> = (0..129).map(|i| nb(i, 0, 1.0, 0)).collect();
        let mut first_block = Vec::new();
        encode_adjacency(&row[..128], &mut first_block);
        let mut buf = Vec::new();
        encode_adjacency(&row, &mut buf);
        // Both counts take two bytes, so the second block's header sits
        // where the one-block row ends.
        for offset in [2, first_block.len()] {
            for header in [6u8, 7, 5 << 3, 7 << 3, 0x80, 0xff] {
                let mut bad = buf.clone();
                bad[offset] = header;
                let want = Err(CodecError::BadBlockHeader { offset, header });
                assert_eq!(decode_adjacency(&bad), want);
                assert_eq!(decode_adjacency_per_record(&bad), want);
            }
        }
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
        encode_adjacency(&[nb(1, 0, 1.0, 2), nb(5, 1, 2.0, 2)], &mut buf);
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
