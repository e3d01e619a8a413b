//! Versioned on-disk checkpoints: everything needed to resume a distributed
//! run mid-epoch — PS shards, per-worker dense model + optimizer state, RNG
//! states, step counters, and the loss/early-stop bookkeeping.
//!
//! Binary layout (little-endian), version 1:
//!
//! ```text
//! magic "ALGRCKP1" | u32 version | u64 config fingerprint | u64 global_step
//! epoch_losses: u32 len, f64 × len | f64 best_loss | u64 stall
//! avg_params:   u8 present, [u32 len, f32 × len]
//! workers:      u32 count, per worker:
//!               rng u64 × 4 | u64 last_drain | f64 loss_sum | u64 pairs
//!               u64 edges | u64 busy_ns | u64 comm_ns
//!               hist u32 len, u64 × len | dense state u32 len, f32 × len
//! ps shards:    u32 count, per shard:
//!               ids u32 len, u32 × len | weights u32 len, f32 × len
//!               accum u8 present, [f32 × weights len]
//! trailer:      u64 FNV-1a of all preceding bytes
//! ```
//!
//! The fingerprint hashes the *structural* configuration (workers, batch
//! shape, seeds, model dims — not epoch count or fault/checkpoint plumbing)
//! so a checkpoint can extend a run with more epochs but never silently
//! load into a differently shaped one. Corrupt or truncated files fail with
//! a [`RuntimeError::Checkpoint`] naming the failing section — never a
//! panic.

use crate::error::RuntimeError;
use crate::ps::PsShardState;
use aligraph_storage::seal::{self, Cursor, Truncated};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"ALGRCKP1";
const VERSION: u32 = 1;

/// One worker's resumable state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerCkpt {
    /// Raw RNG state after the worker's last completed step.
    pub rng: [u64; 4],
    /// Step of the worker's last replica drain.
    pub last_drain: u64,
    /// Partial epoch loss sum (zero at epoch-boundary checkpoints).
    pub loss_sum: f64,
    /// Partial epoch pair count.
    pub pairs: u64,
    /// Lifetime positive edges consumed.
    pub edges: u64,
    /// Lifetime measured compute nanoseconds.
    pub busy_ns: u64,
    /// Lifetime modelled comm nanoseconds.
    pub comm_ns: u64,
    /// Staleness histogram.
    pub hist: Vec<u64>,
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
    /// Best epoch loss so far (early stopping).
    pub best_loss: f64,
    /// Consecutive non-improving epochs so far.
    pub stall: u64,
    /// Allreduced dense parameters — present only at epoch boundaries,
    /// applied after per-worker state so restored workers start the next
    /// epoch from the averaged model, exactly like uninterrupted ones.
    pub avg_params: Option<Vec<f32>>,
    /// Per-worker state.
    pub workers: Vec<WorkerCkpt>,
    /// Parameter-server shard contents.
    pub shards: Vec<PsShardState>,
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
    fn u64s(&mut self, vs: &[u64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u64(v);
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
    let best_loss = r.f64()?;
    let stall = r.u64()?;
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
            last_drain: r.u64()?,
            loss_sum: r.f64()?,
            pairs: r.u64()?,
            edges: r.u64()?,
            busy_ns: r.u64()?,
            comm_ns: r.u64()?,
            hist: r.counted(u64::from_le_bytes)?,
            dense_state: r.counted(f32::from_le_bytes)?,
        });
    }
    *section = "ps shards";
    let n_shards = r.u32()? as usize;
    let mut shards = Vec::with_capacity(n_shards.min(1 << 16));
    for _ in 0..n_shards {
        let ids = r.counted(u32::from_le_bytes)?;
        let weights = r.counted(f32::from_le_bytes)?;
        let accum = match r.u8()? {
            0 => None,
            _ => Some(r.counted(f32::from_le_bytes)?),
        };
        shards.push(PsShardState { ids, weights, accum });
    }
    Ok(Checkpoint {
        fingerprint,
        global_step,
        epoch_losses,
        best_loss,
        stall,
        avg_params,
        workers,
        shards,
    })
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
        w.f64(self.best_loss);
        w.u64(self.stall);
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
            w.u64(wk.last_drain);
            w.f64(wk.loss_sum);
            w.u64(wk.pairs);
            w.u64(wk.edges);
            w.u64(wk.busy_ns);
            w.u64(wk.comm_ns);
            w.u64s(&wk.hist);
            w.f32s(&wk.dense_state);
        }
        w.u32(self.shards.len() as u32);
        for s in &self.shards {
            w.u32(s.ids.len() as u32);
            for &id in &s.ids {
                w.u32(id);
            }
            w.f32s(&s.weights);
            match &s.accum {
                None => w.buf.push(0),
                Some(a) => {
                    w.buf.push(1);
                    w.f32s(a);
                }
            }
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
                "{} trailing bytes after ps shards",
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
    /// values and clears their AdaGrad accumulators — the incremental
    /// trainer's "re-pull touched rows" step: when an upstream update
    /// changes a vertex's features, the next delta epoch must train from
    /// the new values, not the stale learned ones. Returns how many rows
    /// were patched; vertices not owned by any shard and rows whose length
    /// is not `dim` are skipped.
    pub fn patch_feature_rows<'a, I>(&mut self, dim: usize, rows: I) -> usize
    where
        I: IntoIterator<Item = (u32, &'a [f32])>,
    {
        let mut slot: HashMap<u32, (usize, usize)> = HashMap::new();
        for (s, shard) in self.shards.iter().enumerate() {
            if shard.weights.len() != shard.ids.len() * dim {
                continue;
            }
            for (i, &v) in shard.ids.iter().enumerate() {
                slot.insert(v, (s, i));
            }
        }
        let mut patched = 0;
        for (v, feat) in rows {
            if feat.len() != dim {
                continue;
            }
            if let Some(&(s, i)) = slot.get(&v) {
                let shard = &mut self.shards[s];
                shard.weights[i * dim..(i + 1) * dim].copy_from_slice(feat);
                if let Some(acc) = &mut shard.accum {
                    for a in &mut acc[i * dim..(i + 1) * dim] {
                        *a = 0.0;
                    }
                }
                patched += 1;
            }
        }
        patched
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

/// The newest checkpoint in `dir` (by step number in the file name), if any.
/// Used by fault recovery to pick its restore point.
pub fn latest_checkpoint(dir: &Path) -> Result<Option<PathBuf>, RuntimeError> {
    Ok(checkpoint_files(dir)?.pop())
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
            best_loss: 0.7,
            stall: 1,
            avg_params: Some(vec![1.0, -2.5, 3.25]),
            workers: vec![WorkerCkpt {
                rng: [1, 2, 3, 4],
                last_drain: 16,
                loss_sum: 2.5,
                pairs: 10,
                edges: 320,
                busy_ns: 1_000,
                comm_ns: 2_000,
                hist: vec![5, 2],
                dense_state: vec![0.5; 7],
            }],
            shards: vec![PsShardState {
                ids: vec![0, 2, 5],
                weights: vec![0.1; 9],
                accum: Some(vec![0.01; 9]),
            }],
        }
    }

    #[test]
    fn byte_roundtrip_is_exact() {
        let c = sample();
        let bytes = c.to_bytes();
        // Checkpoint v1 is pinned: the trailer seals every byte before it,
        // so this one constant fixes the whole on-disk format.
        assert_eq!(bytes.len(), 326);
        assert_eq!(bytes[bytes.len() - 8..], 0x43ae_b3f2_500e_9bcb_u64.to_le_bytes());
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
    }

    #[test]
    fn dir_write_and_latest_selection() {
        let dir = std::env::temp_dir().join(format!("algr-ckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(latest_checkpoint(&dir).unwrap(), None);
        let mut a = sample();
        a.global_step = 5;
        let mut b = sample();
        b.global_step = 40;
        a.write_to_dir(&dir).unwrap();
        let path_b = b.write_to_dir(&dir).unwrap();
        assert_eq!(latest_checkpoint(&dir).unwrap(), Some(path_b.clone()));
        assert_eq!(Checkpoint::read_from(&path_b).unwrap().global_step, 40);
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
