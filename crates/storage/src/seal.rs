//! Sealed files: one FNV-1a hasher, one trailer rule, one atomic writer.
//!
//! Every durable artifact in the workspace (training checkpoints, cold-tier
//! segments) and every torn-publish fingerprint (topology views, model
//! versions, trained-model outcomes) goes through this module, so the two
//! rules below are written — and tested — exactly once:
//!
//! * **Format.** A sealed buffer is `magic ‖ fields ‖ trailer`, where the
//!   trailer is the little-endian FNV-1a 64 of every byte before it.
//!   [`close`] appends it; [`open`] verifies length, trailer and magic —
//!   in that order, before any field is trusted — and hands back a
//!   bounds-checked [`Cursor`], so a truncated, bit-flipped or foreign
//!   buffer is a typed error and never a panic or a garbage decode.
//! * **Durability.** [`write_atomic`] writes a temp file beside the
//!   target, `sync_all`s it, only then `rename`s it into place and syncs
//!   the directory, so a crash leaves the old file or the new one — never
//!   a torn or zero-length file under the final name — and a returned
//!   write stays written. A stale
//!   `*.tmp` from a crashed writer is inert: readers never match it and
//!   the next write truncates it.

use std::fs;
use std::io::Write;
use std::path::Path;

/// Incremental FNV-1a 64. [`bytes`](Self::bytes) is the standard
/// byte-at-a-time hash (seals, torn-publish fingerprints);
/// [`word`](Self::word) folds a whole `u64` per step (cheap
/// order-sensitive fingerprints over float bit patterns). The two must not
/// be mixed for one digest that another build has to reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `bytes` in, one byte per step.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds one whole word in a single step.
    pub fn word(&mut self, x: u64) -> &mut Self {
        self.0 = (self.0 ^ x).wrapping_mul(Self::PRIME);
        self
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().bytes(bytes).finish()
}

/// Bytes in the trailer.
const TRAILER: usize = 8;

/// Seals `buf`: appends the FNV-1a of everything already in it.
pub fn close(buf: &mut Vec<u8>) {
    let seal = fnv1a(buf);
    buf.extend_from_slice(&seal.to_le_bytes());
}

/// Why [`open`] refused a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// Shorter than magic plus trailer.
    TooShort,
    /// The trailer does not match the bytes before it.
    Mismatch {
        /// The seal stored in the trailer.
        stored: u64,
        /// The seal recomputed over the body.
        computed: u64,
    },
    /// Intact seal, but some other kind of file.
    BadMagic,
}

/// Verifies a buffer produced by [`close`] — length, then trailer, then
/// magic — and returns a cursor over the sealed body positioned just past
/// the magic.
pub fn open<'a>(buf: &'a [u8], magic: &[u8]) -> Result<Cursor<'a>, SealError> {
    if buf.len() < magic.len() + TRAILER {
        return Err(SealError::TooShort);
    }
    let (body, trailer) = buf.split_at(buf.len() - TRAILER);
    let mut stored = [0u8; TRAILER];
    stored.copy_from_slice(trailer);
    let stored = u64::from_le_bytes(stored);
    let computed = fnv1a(body);
    if stored != computed {
        return Err(SealError::Mismatch { stored, computed });
    }
    if !body.starts_with(magic) {
        return Err(SealError::BadMagic);
    }
    Ok(Cursor { buf: body, pos: magic.len() })
}

/// A read ran past the end of the buffer (`at` = offset of the read).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    /// Byte offset at which the failed read started.
    pub at: usize,
}

/// Bounds-checked little-endian reader: every accessor returns
/// [`Truncated`] instead of indexing past the end.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// The unread tail.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let out = self.rest().get(..n).ok_or(Truncated { at: self.pos })?;
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.array::<1>()?[0])
    }

    /// Little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        self.array().map(u16::from_le_bytes)
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    /// Little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        self.array().map(f64::from_le_bytes)
    }

    /// A `u32` count followed by that many `N`-byte little-endian values.
    /// The byte range is bounds-checked before anything is allocated, so a
    /// corrupt count cannot ask for more memory than the buffer holds.
    pub fn counted<T, const N: usize>(
        &mut self,
        from_le: fn([u8; N]) -> T,
    ) -> Result<Vec<T>, Truncated> {
        let n = self.u32()? as usize;
        let raw = self.take(n.checked_mul(N).ok_or(Truncated { at: self.pos })?)?;
        Ok(raw
            .chunks_exact(N)
            .map(|c| {
                let mut a = [0u8; N];
                a.copy_from_slice(c);
                from_le(a)
            })
            .collect())
    }
}

/// Writes `bytes` to `path` atomically and durably: parent directory
/// created, temp file `<name>.tmp` beside the target, `write_all`,
/// `sync_all`, `rename`, then (on Unix) `sync_all` of the parent directory.
///
/// The contract: after a crash at any point `path` holds either its old
/// content (or nothing, if it did not exist) or all of `bytes`, never a
/// mix; and once the call has returned `Ok` the new name itself is on disk.
/// A leftover `<name>.tmp` is the only trace an interrupted call leaves.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    fs::create_dir_all(dir)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    {
        let mut f = fs::File::create(tmp)?;
        f.write_all(bytes)?;
        // Without this the rename can reach the disk before the data does,
        // and a crash leaves a zero-length file under the final name.
        f.sync_all()?;
    }
    fs::rename(tmp, path)?;
    // The rename is an edit of the directory: until that is synced too, a
    // crash can bring back the old entry. Other platforms cannot open a
    // directory for this and order the rename themselves.
    #[cfg(unix)]
    fs::File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_matches_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // Incremental feeding is the same hash as one slice.
        assert_eq!(Fnv1a::new().bytes(b"foo").bytes(b"bar").finish(), fnv1a(b"foobar"));
        // A word step is one xor-multiply over the whole u64.
        let one = Fnv1a::new().word(7).finish();
        assert_eq!(one, (0xcbf2_9ce4_8422_2325u64 ^ 7).wrapping_mul(0x0000_0100_0000_01b3));
        assert_ne!(Fnv1a::new().word(1).word(2).finish(), Fnv1a::new().word(2).word(1).finish());
    }

    fn sealed(magic: &[u8], fields: &[u8]) -> Vec<u8> {
        let mut buf = magic.to_vec();
        buf.extend_from_slice(fields);
        close(&mut buf);
        buf
    }

    #[test]
    fn open_checks_length_then_trailer_then_magic() {
        let buf = sealed(b"MAGIC123", &[1, 0, 0, 0, 9]);
        let mut c = open(&buf, b"MAGIC123").unwrap();
        assert_eq!((c.u32(), c.u8()), (Ok(1), Ok(9)));
        assert_eq!(c.u8(), Err(Truncated { at: 13 }), "the trailer is not part of the body");

        assert_eq!(open(&buf[..15], b"MAGIC123").unwrap_err(), SealError::TooShort);
        assert_eq!(open(&buf, b"OTHERMAG").unwrap_err(), SealError::BadMagic);
        // A damaged magic is reported as damage, not as a foreign file.
        let mut bad = buf.clone();
        bad[0] ^= 1;
        assert!(matches!(open(&bad, b"MAGIC123"), Err(SealError::Mismatch { .. })));
        for cut in 0..buf.len() {
            assert!(open(&buf[..cut], b"MAGIC123").is_err(), "cut {cut}");
        }
    }

    #[test]
    fn cursor_reads_are_bounds_checked() {
        let buf = sealed(b"M", &[2, 0, 0, 0, 0x34, 0x12, 0x78, 0x56, 0xff, 0xff, 0xff, 0xff]);
        let mut c = open(&buf, b"M").unwrap();
        assert_eq!(c.counted(u16::from_le_bytes), Ok(vec![0x1234, 0x5678]));
        // A count of u32::MAX must fail on the bounds check, not allocate.
        assert_eq!(c.counted(u64::from_le_bytes), Err(Truncated { at: 13 }));
        assert_eq!(c.rest().len(), 0);
        assert_eq!(c.u64(), Err(Truncated { at: 13 }));
    }
}
