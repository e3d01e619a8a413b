//! Workspace-level gates for `aligraph-lint` and the lint configuration
//! (DESIGN.md §2.18).
//!
//! These contracts are pinned here rather than inside the lint crate's unit
//! tests, because they are statements about the *whole repository*:
//!
//! 1. Every first-party manifest inherits the root `[lints]` table and
//!    `rust-version`. Cargo cannot require inheritance, and a crate that
//!    forgets it silently drops every rule rustc and clippy enforce.
//! 2. Every atomic `Ordering::` use in a crate's non-test sources has an
//!    `// ordering:` justification on its line or in the five above (a
//!    note's comment block counts to its last line).
//! 3. The mini-loom targets hold over seeds of their own: the striped
//!    telemetry counter, the sparse parameter server and the topology
//!    publish — the publish cell every versioned snapshot goes through —
//!    each survive hundreds of adversarial interleavings against their
//!    sequential shadow models, and the known-bad field-by-field publish is
//!    still caught and replays.

#![expect(
    clippy::expect_used,
    reason = "a failed fixture setup in a test helper aborts the test, as in the #[test] itself"
)]

use aligraph_lint::loom::counter::CounterWorkload;
use aligraph_lint::loom::ps::PsWorkload;
use aligraph_lint::loom::topology::TopologyWorkload;
use aligraph_lint::loom::Explorer;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The crate directories under `crates/`, sorted.
fn crate_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(repo_root().join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_first_party_manifest_inherits_lints_and_rust_version() {
    let mut manifests = vec![repo_root().join("Cargo.toml")];
    manifests.extend(crate_dirs().iter().map(|d| d.join("Cargo.toml")));
    assert!(manifests.len() > 15, "expected every crate, found {manifests:?}");
    for path in &manifests {
        let text = fs::read_to_string(path).expect("read manifest");
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        let inherits_lints = lines.windows(2).any(|w| w == ["[lints]", "workspace = true"]);
        assert!(inherits_lints, "{} lacks `[lints] workspace = true`", path.display());
        assert!(
            lines.contains(&"rust-version.workspace = true"),
            "{} lacks `rust-version.workspace = true`",
            path.display()
        );
    }
}

#[test]
fn every_atomic_ordering_use_is_justified_nearby() {
    let mut files = Vec::new();
    for dir in crate_dirs() {
        rust_files(&dir.join("src"), &mut files);
    }
    // The variant names tell `atomic::Ordering` from `cmp::Ordering`.
    let atomic =
        ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"].map(|o| format!("Ordering::{o}"));
    let mut sites = 0;
    let mut bare = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).expect("read source file");
        let lines: Vec<&str> = text.lines().collect();
        // A file's `#[cfg(test)]` module comes last; tests need no notes.
        let end = lines
            .windows(2)
            .position(|w| w[0] == "#[cfg(test)]" && w[1].starts_with("mod "))
            .unwrap_or(lines.len());
        // A note covers the comment lines that continue it.
        let mut noted = vec![false; end];
        for i in 0..end {
            let continues = i > 0 && noted[i - 1] && lines[i].trim_start().starts_with("//");
            noted[i] = lines[i].contains("// ordering:") || continues;
        }
        for (i, line) in lines[..end].iter().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            if !atomic.iter().any(|o| code.contains(o.as_str())) {
                continue;
            }
            sites += 1;
            if !noted[i.saturating_sub(5)..=i].contains(&true) {
                bare.push(format!("{}:{}", path.display(), i + 1));
            }
        }
    }
    assert!(sites > 40, "found only {sites} atomic orderings: is the walk still reaching crates/?");
    assert!(
        bare.is_empty(),
        "atomic orderings without an `// ordering:` note:\n{}",
        bare.join("\n")
    );
}

#[test]
fn striped_counter_survives_interleavings() {
    let w = CounterWorkload::default();
    Explorer { seed: 11 }.explore(&w, 300).expect("no divergence");
}

#[test]
fn sparse_param_server_matches_shadow() {
    let w = PsWorkload::new(3, 2).expect("workload setup");
    Explorer { seed: 13 }.explore(&w, 150).expect("no divergence");
}

#[test]
fn topology_publish_survives_interleavings() {
    let w = TopologyWorkload::default();
    Explorer { seed: 17 }.explore(&w, 300).expect("no divergence");
}

#[test]
fn field_by_field_topology_publish_is_caught_and_replays_from_suite() {
    // The split twin publishes epoch, owners and seal as separate steps;
    // some schedule must expose a torn view, and the recorded schedule
    // must reproduce it bit-for-bit.
    let w = TopologyWorkload::torn_publish();
    let div = Explorer { seed: 17 }.explore(&w, 300).expect_err("divergence expected");
    assert!(div.message.contains("torn topology"), "unexpected divergence: {}", div.message);
    let replayed = Explorer::replay(&w, &div.schedule).expect_err("replay reproduces");
    assert_eq!(replayed.message, div.message);
}
