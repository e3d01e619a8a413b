//! Integration tests for the closed-loop production simulation: the whole
//! serve → log → update → incremental-train → hot-swap loop is a pure
//! function of its seeds, and ingest chaos costs only freshness ticks —
//! never model divergence.

use aligraph_chaos::FaultConfig;
use aligraph_loopsim::{run_loop, LoopConfig};
use aligraph_suite::runtime::{latest_valid_checkpoint, Checkpoint};
use aligraph_telemetry::Registry;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("algr-loop-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(name: &str) -> LoopConfig {
    let mut cfg = LoopConfig::small(42, tmp_dir(name));
    cfg.cycles = 3;
    cfg
}

/// Tentpole headline — determinism: two runs with identical seeds produce
/// bit-identical model fingerprints, freshness trails, tick counts, and
/// telemetry rollups.
#[test]
fn closed_loop_is_a_pure_function_of_the_seed() {
    let a = run_loop(&cfg("det-a"), &Arc::new(Registry::new())).expect("clean loop");
    let b = run_loop(&cfg("det-b"), &Arc::new(Registry::new())).expect("clean loop");

    assert_eq!(a.fingerprint, b.fingerprint, "final model fingerprints must be bit-identical");
    assert_eq!(a.final_version, b.final_version);
    assert_eq!(a.ticks, b.ticks);
    assert_eq!(a.freshness, b.freshness, "freshness trails must be bit-identical");
    assert_eq!(a.report, b.report, "telemetry rollups must be bit-identical");

    assert_eq!(a.final_version, 4, "bootstrap + 3 cycles publish versions 1..=4");
    assert!(!a.freshness.is_empty(), "every cycle contributes freshness samples");
    assert!(a.report.rows_repulled > 0, "delta training re-pulls touched rows");
    assert_eq!(a.report.cycles, 3);
    assert_eq!(a.report.swaps, 4);
}

/// Tentpole headline — fault isolation: a 20%-drop chaos plane on the
/// ingest channel converges to the *identical* final model; the damage is
/// confined to freshness (retry backoff surfaces as extra virtual ticks).
#[test]
fn ingest_chaos_costs_freshness_ticks_never_divergence() {
    let clean = run_loop(&cfg("chaos-base"), &Arc::new(Registry::new())).expect("clean loop");

    let mut faulted_cfg = cfg("chaos-drop");
    faulted_cfg.fault = Some(FaultConfig::with_seed(7, 0.2));
    let faulted = run_loop(&faulted_cfg, &Arc::new(Registry::new())).expect("faulted loop");

    assert_eq!(
        faulted.fingerprint, clean.fingerprint,
        "chaos on the ingest channel must never change what the loop converges to"
    );
    assert_eq!(faulted.final_version, clean.final_version);
    assert!(
        faulted.ticks >= clean.ticks,
        "retries only ever add virtual time: {} < {}",
        faulted.ticks,
        clean.ticks
    );
    let clean_total: u64 = clean.freshness.iter().sum();
    let faulted_total: u64 = faulted.freshness.iter().sum();
    assert!(
        faulted_total >= clean_total,
        "chaos may only degrade freshness: {faulted_total} < {clean_total}"
    );
    // Same interactions were served either way — the fault plane sits
    // strictly between the hub and the shard stores.
    assert_eq!(faulted.freshness.len(), clean.freshness.len());
    assert_eq!(faulted.report.interactions, clean.report.interactions);

    // And the chaos run is itself deterministic.
    let mut again_cfg = cfg("chaos-again");
    again_cfg.fault = faulted_cfg.fault.clone();
    let again = run_loop(&again_cfg, &Arc::new(Registry::new())).expect("faulted loop");
    assert_eq!(again.fingerprint, faulted.fingerprint);
    assert_eq!(again.freshness, faulted.freshness);
}

/// Hot-swap accounting: versions are strictly monotonic, the live version
/// matches the cycle count, and freshness is bounded below by the
/// theoretical minimum (an interaction can never be fresher than the
/// publish that covered it).
#[test]
fn swap_and_freshness_accounting_hold() {
    let out = run_loop(&cfg("acct"), &Arc::new(Registry::new())).expect("clean loop");
    assert_eq!(out.report.swap_epoch, out.final_version);
    assert_eq!(out.ticks, out.report.ticks);
    for &age in &out.freshness {
        // Minimum: the deploy tick (1) right after an interaction born on
        // the last pre-drain tick. Everything else only adds age.
        assert!(age >= 1, "freshness below the publish barrier: {age}");
        assert!(age <= out.ticks, "freshness beyond the run span: {age}");
    }
}

/// The delta epoch re-pulls touched rows from a checkpoint that holds the
/// pushes staged for its next drain (six steps an epoch at staleness 1 stage
/// the last two at the epoch-end cut). A patched row keeps no staged
/// gradient, so the drain leaves its new features as they are; every other
/// row keeps its own, bit for bit.
#[test]
fn a_patched_row_keeps_no_staged_gradient() {
    let mut cfg = cfg("patch");
    cfg.cycles = 1;
    run_loop(&cfg, &Arc::new(Registry::new())).expect("clean loop");
    let (_, ckpt) = latest_valid_checkpoint(&cfg.checkpoint_dir).unwrap().expect("a cut");
    let dim = cfg.dim;
    let staged: BTreeSet<u32> = ckpt.ps.staged.iter().flat_map(|m| m.rows.clone()).collect();
    assert!(staged.len() >= 2, "the cut stages pushes: {staged:?}");
    let patch: Vec<u32> = staged.iter().copied().step_by(2).collect();
    let fresh = vec![0.5f32; dim];
    let mut patched = ckpt.clone();
    let rows = patch.iter().map(|&v| (v, fresh.as_slice()));
    assert_eq!(patched.patch_feature_rows(dim, rows), patch.len());
    // Each staged gradient of a row, as (step, sender, row, bits).
    let grads = |ckpt: &Checkpoint, keep: &dyn Fn(u32) -> bool| -> Vec<(u64, u32, u32, Vec<u32>)> {
        let mut out = Vec::new();
        for m in &ckpt.ps.staged {
            for (&v, g) in m.rows.iter().zip(m.grads.chunks_exact(dim)) {
                if keep(v) {
                    out.push((m.step, m.sender, v, g.iter().map(|x| x.to_bits()).collect()));
                }
            }
        }
        out
    };
    let left = grads(&patched, &|v| patch.contains(&v)).len();
    assert_eq!(left, 0, "staged gradients of patched rows");
    let others = |v| !patch.contains(&v);
    assert!(grads(&patched, &others) == grads(&ckpt, &others), "other rows' gradients moved");
    assert!(!grads(&patched, &others).is_empty());
    assert!(patched.ps.staged.iter().all(|m| !m.rows.is_empty()), "no empty push is kept");
    for &v in &patch {
        let row = v as usize * dim..(v as usize + 1) * dim;
        assert_eq!(patched.ps.weights[row.clone()], fresh[..]);
        assert!(patched.ps.accum[row].iter().all(|&a| a == 0.0));
    }
    let _ = std::fs::remove_dir_all(&cfg.checkpoint_dir);
}
