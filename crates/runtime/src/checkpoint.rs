//! Versioned on-disk checkpoints: everything needed to resume a distributed
//! run mid-epoch — the parameter server as it stands (owners, rows,
//! accumulators and the pushes staged for a later cut), per-worker dense
//! model + optimizer state, RNG states and partial epoch losses — and
//! nothing else: the drain schedule is a function of the step, and what a
//! run only reports (edges, busy and comm time, the staleness histogram)
//! stays out. Writing one applies nothing, so a run's model does not depend
//! on how often it checkpoints, and its bytes are a function of the seed and
//! the cut: a killed-and-restored run writes the same file as an unkilled
//! one.
//!
//! Binary layout (little-endian), version 4:
//!
//! ```text
//! magic "ALGRCKP1" | u32 version | u64 config fingerprint | u64 global_step
//! epoch_losses: u32 len, f64 × len
//! avg_params:   u8 present, [u32 len, f32 × len]
//! workers:      u32 count, per worker:
//!               rng u64 × 4 | f64 loss_sum | u64 pairs
//!               dense state u32 len, f32 × len
//! ps:           owners u32 len, u32 × len (shard slot per vertex)
//!               weights u32 len, f32 × len | accum u32 len, f32 × len
//!               staged u32 count, per push in (step, sender) order:
//!               u64 step | u32 sender | rows u32 len, u32 × len
//!               grads u32 len, f32 × len
//! trailer:      u64 FNV-1a of all preceding bytes
//! ```
//!
//! A version-1, -2 or -3 file is refused by its version word.
//!
//! The fingerprint hashes the *structural* configuration (workers, batch
//! shape, seeds, model dims — not epoch count or fault/checkpoint plumbing)
//! so a checkpoint can extend a run with more epochs but never silently
//! load into a differently shaped one. Corrupt or truncated files fail with
//! a [`RuntimeError::Checkpoint`] naming the failing section — never a
//! panic.

use crate::error::RuntimeError;
use crate::ps::{PsState, StagedPush};
use aligraph_storage::seal::{self, Cursor, Truncated};
use std::fs;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"ALGRCKP1";
const VERSION: u32 = 4;

/// One worker's resumable state: the record a worker starts from (fresh
/// or restored), keeps up to date as it steps, and deposits at every cut.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerCkpt {
    /// Raw RNG state after the worker's last completed step.
    pub rng: [u64; 4],
    /// Partial epoch loss sum (zero at epoch-boundary checkpoints).
    pub loss_sum: f64,
    /// Partial epoch pair count.
    pub pairs: u64,
    /// Dense parameters + optimizer state (pre-allreduce at boundaries).
    pub dense_state: Vec<f32>,
}

/// A complete training checkpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Structural-config fingerprint; must match on restore.
    pub fingerprint: u64,
    /// Per-worker completed steps at the cut (identical across workers).
    pub global_step: u64,
    /// Completed-epoch mean losses.
    pub epoch_losses: Vec<f64>,
    /// Allreduced dense parameters — present only at epoch boundaries,
    /// applied after per-worker state so restored workers start the next
    /// epoch from the averaged model, exactly like uninterrupted ones.
    pub avg_params: Option<Vec<f32>>,
    /// Per-worker state.
    pub workers: Vec<WorkerCkpt>,
    /// The parameter server at the cut.
    pub ps: PsState,
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32s(&mut self, vs: &[f32]) {
        self.u32(vs.len() as u32);
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn u32s(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u32(v);
        }
    }
}

/// A short read, named by the section it happened in (the cursor knows
/// the byte).
fn corrupt(section: &str, e: Truncated) -> RuntimeError {
    RuntimeError::Checkpoint(format!(
        "truncated or corrupt {section} (unexpected end of data at byte {})",
        e.at
    ))
}

/// Everything after the version field; `section` tracks what is being read
/// so a short read can be reported by name.
fn read_body(r: &mut Cursor<'_>, section: &mut &'static str) -> Result<Checkpoint, Truncated> {
    let fingerprint = r.u64()?;
    let global_step = r.u64()?;
    let epoch_losses = r.counted(f64::from_le_bytes)?;
    let avg_params = match r.u8()? {
        0 => None,
        _ => Some(r.counted(f32::from_le_bytes)?),
    };
    *section = "worker state";
    let n_workers = r.u32()? as usize;
    let mut workers = Vec::with_capacity(n_workers.min(1 << 16));
    for _ in 0..n_workers {
        workers.push(WorkerCkpt {
            rng: [r.u64()?, r.u64()?, r.u64()?, r.u64()?],
            loss_sum: r.f64()?,
            pairs: r.u64()?,
            dense_state: r.counted(f32::from_le_bytes)?,
        });
    }
    *section = "ps state";
    let owners = r.counted(u32::from_le_bytes)?;
    let weights = r.counted(f32::from_le_bytes)?;
    let accum = r.counted(f32::from_le_bytes)?;
    let n_staged = r.u32()? as usize;
    let mut staged = Vec::with_capacity(n_staged.min(1 << 16));
    for _ in 0..n_staged {
        let (step, sender) = (r.u64()?, r.u32()?);
        let rows = r.counted(u32::from_le_bytes)?;
        staged.push(StagedPush { step, sender, rows, grads: r.counted(f32::from_le_bytes)? });
    }
    let ps = PsState { owners, weights, accum, staged };
    Ok(Checkpoint { fingerprint, global_step, epoch_losses, avg_params, workers, ps })
}

impl Checkpoint {
    /// Serializes to bytes (with integrity trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(MAGIC);
        w.u32(VERSION);
        w.u64(self.fingerprint);
        w.u64(self.global_step);
        w.u32(self.epoch_losses.len() as u32);
        for &l in &self.epoch_losses {
            w.f64(l);
        }
        match &self.avg_params {
            None => w.buf.push(0),
            Some(p) => {
                w.buf.push(1);
                w.f32s(p);
            }
        }
        w.u32(self.workers.len() as u32);
        for wk in &self.workers {
            for &s in &wk.rng {
                w.u64(s);
            }
            w.f64(wk.loss_sum);
            w.u64(wk.pairs);
            w.f32s(&wk.dense_state);
        }
        w.u32s(&self.ps.owners);
        w.f32s(&self.ps.weights);
        w.f32s(&self.ps.accum);
        w.u32(self.ps.staged.len() as u32);
        for m in &self.ps.staged {
            w.u64(m.step);
            w.u32(m.sender);
            w.u32s(&m.rows);
            w.f32s(&m.grads);
        }
        seal::close(&mut w.buf);
        w.buf
    }

    /// Parses bytes written by [`to_bytes`](Self::to_bytes), verifying
    /// magic, version, and checksum before touching any section.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, RuntimeError> {
        // Checkpoints report a short file, then a foreign one, then damage:
        // the length and magic checks run ahead of the seal's own.
        let refuse = |why: String| Err(RuntimeError::Checkpoint(why));
        if buf.len() < MAGIC.len() + 4 + 8 {
            return refuse(format!("file too short to be a checkpoint ({} bytes)", buf.len()));
        }
        if !buf.starts_with(MAGIC) {
            return refuse("bad magic (not a checkpoint file)".into());
        }
        let Ok(mut r) = seal::open(buf, MAGIC) else {
            return refuse("checksum mismatch (corrupted or truncated file)".into());
        };
        let mut section = "header";
        let version = r.u32().map_err(|e| corrupt(section, e))?;
        if version != VERSION {
            return Err(RuntimeError::Checkpoint(format!(
                "unsupported checkpoint version {version} (this build reads {VERSION})"
            )));
        }
        let ckpt = read_body(&mut r, &mut section).map_err(|e| corrupt(section, e))?;
        if !r.rest().is_empty() {
            return Err(RuntimeError::Checkpoint(format!(
                "{} trailing bytes after the ps state",
                r.rest().len()
            )));
        }
        Ok(ckpt)
    }

    /// Writes atomically and durably ([`seal::write_atomic`]) to
    /// `dir/ckpt-<step>.bin`.
    pub fn write_to_dir(&self, dir: &Path) -> Result<PathBuf, RuntimeError> {
        let target = dir.join(format!("ckpt-{:010}.bin", self.global_step));
        seal::write_atomic(&target, &self.to_bytes())?;
        Ok(target)
    }

    /// Reads a checkpoint file.
    pub fn read_from(path: &Path) -> Result<Self, RuntimeError> {
        let bytes = fs::read(path)
            .map_err(|e| RuntimeError::Checkpoint(format!("read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }

    /// Overwrites the PS rows for the given vertices with fresh feature
    /// values, clears their AdaGrad accumulators and drops their staged
    /// gradients — the incremental trainer's "re-pull touched rows" step:
    /// when an upstream update changes a vertex's features, the next delta
    /// epoch must train from the new values, not the stale learned ones.
    /// Returns how many rows were patched; vertices beyond the server, rows
    /// whose length is not `dim`, and every row of a state whose rows are
    /// not `dim` wide are skipped.
    pub fn patch_feature_rows<'a, I>(&mut self, dim: usize, rows: I) -> usize
    where
        I: IntoIterator<Item = (u32, &'a [f32])>,
    {
        let ps = &mut self.ps;
        let n = ps.owners.len();
        if dim == 0 || ps.weights.len() != n * dim || ps.accum.len() != n * dim {
            return 0;
        }
        let mut patched = vec![false; n];
        let mut count = 0;
        for (v, feat) in rows {
            if feat.len() != dim || v as usize >= n {
                continue;
            }
            let row = v as usize * dim..(v as usize + 1) * dim;
            ps.weights[row.clone()].copy_from_slice(feat);
            ps.accum[row].fill(0.0);
            patched[v as usize] = true;
            count += 1;
        }
        let is_patched = |v: &u32| patched.get(*v as usize).copied().unwrap_or(false);
        for m in &mut ps.staged {
            // A malformed message is left for `load` to refuse.
            if m.grads.len() != m.rows.len() * dim || !m.rows.iter().any(is_patched) {
                continue;
            }
            let (mut rows, mut grads) = (Vec::new(), Vec::new());
            for (&v, g) in m.rows.iter().zip(m.grads.chunks_exact(dim)) {
                if !is_patched(&v) {
                    rows.push(v);
                    grads.extend_from_slice(g);
                }
            }
            (m.rows, m.grads) = (rows, grads);
        }
        ps.staged.retain(|m| !m.rows.is_empty());
        count
    }
}

/// Every `ckpt-*.bin` in `dir`, oldest first (step numbers are zero-padded,
/// so name order is step order). A writer's `*.tmp` never matches.
fn checkpoint_files(dir: &Path) -> Result<Vec<PathBuf>, RuntimeError> {
    let mut files = Vec::new();
    if dir.exists() {
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("ckpt-") && name.ends_with(".bin") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// The newest checkpoint in `dir` that parses and passes its checksum,
/// scanning newest-first so a corrupted or truncated latest file falls back
/// to the previous valid one instead of aborting recovery. Returns `None`
/// when no file survives (recovery then restarts from scratch).
pub fn latest_valid_checkpoint(dir: &Path) -> Result<Option<(PathBuf, Checkpoint)>, RuntimeError> {
    for path in checkpoint_files(dir)?.into_iter().rev() {
        if let Ok(ckpt) = Checkpoint::read_from(&path) {
            return Ok(Some((path, ckpt)));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            fingerprint: 0xdead_beef,
            global_step: 17,
            epoch_losses: vec![0.9, 0.7],
            avg_params: Some(vec![1.0, -2.5, 3.25]),
            workers: vec![WorkerCkpt {
                rng: [1, 2, 3, 4],
                loss_sum: 2.5,
                pairs: 10,
                dense_state: vec![0.5; 7],
            }],
            ps: PsState {
                owners: vec![0, 1, 0],
                weights: vec![0.1; 6],
                accum: vec![0.01; 6],
                staged: vec![StagedPush {
                    step: 16,
                    sender: 0,
                    rows: vec![0, 2],
                    grads: vec![0.5, -0.5, 0.25, -0.25],
                }],
            },
        }
    }

    #[test]
    fn byte_roundtrip_is_exact() {
        let c = sample();
        let bytes = c.to_bytes();
        // Checkpoint v4 is pinned: the trailer seals every byte before it,
        // so this one constant fixes the whole on-disk format.
        assert_eq!(bytes.len(), 277);
        assert_eq!(bytes[bytes.len() - 8..], 0xeb76_5bbd_e4ea_22a1_u64.to_le_bytes());
        assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), c);
    }

    #[test]
    fn corruption_and_truncation_fail_cleanly() {
        let bytes = sample().to_bytes();
        // Every prefix truncation is an error, never a panic.
        for cut in [0, 5, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Anything below magic + version + trailer is "too short", whatever it holds.
        let err = Checkpoint::from_bytes(&bytes[..19]).unwrap_err().to_string();
        assert!(err.contains("too short"), "{err}");
        // A flipped byte anywhere trips the checksum.
        for i in [9, 30, bytes.len() - 4] {
            let mut bad = bytes.clone();
            bad[i] ^= 0xff;
            let err = Checkpoint::from_bytes(&bad).unwrap_err();
            assert!(matches!(err, RuntimeError::Checkpoint(_)), "byte {i}: {err}");
        }
        // Wrong magic gets its own message.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Checkpoint::from_bytes(&bad).unwrap_err().to_string().contains("magic"));
        // A resealed file whose version word says 1, a v3 file (per-shard
        // rosters after the worker's 80 bytes: one shard holding every
        // vertex, its accumulators present) and a v2 file (a v3 body with a
        // `last_drain` word after the worker's RNG: header 28 + losses 20 +
        // avg_params 17 + worker count 4 + rng 32 bytes in) are refused by
        // version, not misparsed as a short or damaged v4 body.
        let mut v3 = Writer { buf: bytes[..149].to_vec() };
        v3.u32(1);
        v3.u32s(&[0, 1, 2]);
        v3.f32s(&[0.1; 6]);
        v3.buf.push(1);
        v3.f32s(&[0.01; 6]);
        let mut v2 = v3.buf.clone();
        v2.splice(101..101, 16u64.to_le_bytes());
        for (version, mut old) in [(1u32, bytes[..bytes.len() - 8].to_vec()), (2, v2), (3, v3.buf)]
        {
            old[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&version.to_le_bytes());
            seal::close(&mut old);
            if version == 3 {
                // The v3 writer's bytes for this fixture's rows on one shard.
                assert_eq!(old.len(), 234);
                assert_eq!(old[old.len() - 8..], 0x7dca_6a27_6807_283d_u64.to_le_bytes());
            }
            let err = Checkpoint::from_bytes(&old).unwrap_err();
            let named = format!("version {version}");
            assert!(matches!(&err, RuntimeError::Checkpoint(m) if m.contains(&named)), "{err}");
        }
    }

    #[test]
    fn dir_write_and_latest_selection() {
        let dir = std::env::temp_dir().join(format!("algr-ckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(latest_valid_checkpoint(&dir).unwrap(), None);
        let mut a = sample();
        a.global_step = 5;
        let mut b = sample();
        b.global_step = 40;
        a.write_to_dir(&dir).unwrap();
        let path_b = b.write_to_dir(&dir).unwrap();
        let (path, ckpt) = latest_valid_checkpoint(&dir).unwrap().unwrap();
        assert_eq!((path, ckpt.global_step), (path_b, 40));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_trailer_falls_back_to_previous_checkpoint() {
        let dir = std::env::temp_dir().join(format!("algr-ckpt-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut old = sample();
        old.global_step = 10;
        let old_path = old.write_to_dir(&dir).unwrap();
        let mut newest = sample();
        newest.global_step = 20;
        let newest_path = newest.write_to_dir(&dir).unwrap();

        // Healthy dir: the newest wins.
        let (path, ckpt) = latest_valid_checkpoint(&dir).unwrap().unwrap();
        assert_eq!((path, ckpt.global_step), (newest_path.clone(), 20));

        // Flip one byte in the newest file's trailer: restore must fall
        // back to the older valid checkpoint, not error out.
        let mut bytes = fs::read(&newest_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&newest_path, &bytes).unwrap();
        assert!(Checkpoint::read_from(&newest_path).is_err());
        let (path, ckpt) = latest_valid_checkpoint(&dir).unwrap().unwrap();
        assert_eq!((path, ckpt.global_step), (old_path.clone(), 10));

        // Corrupt the older one too: nothing valid remains.
        let mut bytes = fs::read(&old_path).unwrap();
        bytes[12] ^= 0xff;
        fs::write(&old_path, &bytes).unwrap();
        assert_eq!(latest_valid_checkpoint(&dir).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_file_falls_back_to_previous_checkpoint() {
        let dir = std::env::temp_dir().join(format!("algr-ckpt-trunc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut old = sample();
        old.global_step = 3;
        old.write_to_dir(&dir).unwrap();
        let mut newest = sample();
        newest.global_step = 9;
        let newest_path = newest.write_to_dir(&dir).unwrap();

        // Chop the newest file mid-body (a crash during a non-atomic copy).
        let bytes = fs::read(&newest_path).unwrap();
        fs::write(&newest_path, &bytes[..bytes.len() / 2]).unwrap();
        let (_, ckpt) = latest_valid_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(ckpt.global_step, 3);

        // An empty stray file is skipped the same way.
        fs::write(dir.join("ckpt-9999999999.bin"), []).unwrap();
        let (_, ckpt) = latest_valid_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(ckpt.global_step, 3);
        fs::remove_dir_all(&dir).unwrap();
    }
}
