//! The `determinism-taint` interprocedural pass.
//!
//! The repo's headline properties (bit-exact convergence under drop,
//! loop-as-pure-function-of-seed, bit-exact rebalance) all reduce to one
//! invariant: **nothing nondeterministic flows into a seeded path**. The
//! old token rules (`no-wallclock-in-seeded-paths`, `no-entropy`) checked
//! single lines in known crates; this pass checks *flow* across the whole
//! workspace call graph.
//!
//! Lattice: a function is **tainted** when its body contains a
//! determinism source ([`crate::parse::SourceKind`]) or it calls a tainted
//! function — the join is set union up the caller closure, computed here
//! as a callers-BFS from each source-bearing function. A function is
//! **seeded** when it is a seed root (`worker_seed`/`worker_rng`,
//! `FaultPlane::decide`, any `UpdateWorkload`/`TrafficGen` method, or a
//! `// aligraph::seeded` mark) or transitively calls one. A violation is
//! any overlap: a seeded function that can reach a source. The diagnostic
//! pins the source *line* (so line-level waivers keep working) and renders
//! the full seeded-frame → … → source-frame call path.
//!
//! Exemptions: test code and binaries never traverse; the telemetry crate
//! may read wall-clock (it observes the system, it never steers it).

use crate::graph::{Diagnostic, Workspace};
use std::collections::{HashMap, HashSet, VecDeque};

/// Rule name (stable; used in waivers, JSON, and the baseline).
pub const RULE: &str = "determinism-taint";

/// Free functions that root the seeded region.
const SEED_ROOT_FNS: &[&str] = &["worker_seed", "worker_rng"];
/// `Type::method` seed roots.
const SEED_ROOT_METHODS: &[(&str, &str)] = &[("FaultPlane", "decide")];
/// Types whose every method is a seed root (their behavior is contractually
/// a pure function of the seed).
const SEED_ROOT_TYPES: &[&str] = &["UpdateWorkload", "TrafficGen"];

/// Runs the pass over a built workspace, appending diagnostics (including
/// waived ones, marked as such, for the audit trail).
pub fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let seeded = seeded_region(ws);
    for g in 0..ws.fns.len() {
        if ws.fns[g].item.sources.is_empty() || !ws.is_traversal_node(g) {
            continue;
        }
        let file = &ws.files[ws.fns[g].file];
        if file.class.crate_name == "telemetry" {
            continue;
        }
        // BFS up the callers of the source-bearing fn; the nearest seeded
        // frame (if any) proves the flow and names the chain.
        let parents = ws.callers_bfs(g);
        let Some(&sink) = nearest_seeded(&parents, &seeded, g) else {
            continue;
        };
        let chain = ws.render_chain(&parents, sink, g);
        for site in &ws.fns[g].item.sources {
            if file.is_test_line(site.line) {
                continue;
            }
            out.push(Diagnostic {
                rule: RULE,
                path: file.path.clone(),
                line: site.line,
                message: format!(
                    "{} (`{}`) flows into the seeded path rooted at `{}` — seeded code \
                     must be a pure function of the seed",
                    site.kind.label(),
                    site.what,
                    ws.qualified_name(sink),
                ),
                chain: chain.clone(),
                waived: file.waiver_reason(RULE, site.line).map(str::to_string),
            });
        }
    }
}

/// The seeded region: seed roots plus every traversal function that
/// transitively calls one.
fn seeded_region(ws: &Workspace) -> HashSet<usize> {
    let mut seeded: HashSet<usize> = HashSet::new();
    let mut q: VecDeque<usize> = VecDeque::new();
    for i in 0..ws.fns.len() {
        let f = &ws.fns[i].item;
        let is_root = f.seeded_mark
            || (f.qual.is_none() && SEED_ROOT_FNS.contains(&f.name.as_str()))
            || f.qual.as_deref().is_some_and(|q| {
                SEED_ROOT_TYPES.contains(&q) || SEED_ROOT_METHODS.contains(&(q, f.name.as_str()))
            });
        if is_root && seeded.insert(i) {
            q.push_back(i);
        }
    }
    // Callers of seeded functions are themselves seeded: they decide what
    // the seeded machinery is fed.
    while let Some(n) = q.pop_front() {
        for &c in &ws.callers[n] {
            if ws.is_traversal_node(c) && seeded.insert(c) {
                q.push_back(c);
            }
        }
    }
    seeded
}

/// The seeded node closest to the BFS origin (fewest hops up the caller
/// chain), breaking ties deterministically by node index.
fn nearest_seeded<'a>(
    parents: &'a HashMap<usize, usize>,
    seeded: &HashSet<usize>,
    origin: usize,
) -> Option<&'a usize> {
    parents.keys().filter(|n| seeded.contains(n)).min_by_key(|&&n| (hops(parents, n, origin), n))
}

fn hops(parents: &HashMap<usize, usize>, mut n: usize, origin: usize) -> usize {
    let mut d = 0usize;
    while n != origin {
        match parents.get(&n) {
            Some(&p) if p != n => {
                n = p;
                d += 1;
            }
            _ => break,
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileCtx;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(files.iter().map(|(p, s)| FileCtx::new(p, s)).collect())
    }

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check(&ws(files), &mut out);
        out
    }

    #[test]
    fn wallclock_reaching_a_seeded_mark_is_flagged_with_chain() {
        let out = run(&[(
            "crates/runtime/src/f.rs",
            "pub fn now_ms() -> u64 { let t = Instant::now(); 0 }\n\
             pub fn jitter() -> u64 { now_ms() }\n\
             // aligraph::seeded\n\
             pub fn plan(seed: u64) -> u64 { seed ^ jitter() }\n",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        let d = &out[0];
        assert_eq!(d.rule, RULE);
        assert_eq!(d.line, 1, "reported at the source line");
        assert!(d.message.contains("plan"), "{}", d.message);
        assert_eq!(d.chain.len(), 3, "plan → jitter → now_ms: {:?}", d.chain);
        assert!(d.chain[0].contains("plan"));
        assert!(d.chain[2].contains("now_ms"));
        assert!(d.waived.is_none());
    }

    #[test]
    fn wallclock_outside_the_seeded_region_is_clean() {
        let out = run(&[(
            "crates/serving/src/g.rs",
            "pub fn latency_probe() -> u64 { let t = Instant::now(); 0 }\n\
             pub fn unrelated(seed: u64) -> u64 { seed }\n",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn seed_root_callers_are_seeded() {
        // entropy → helper ← seeded caller of worker_seed: flagged.
        let out = run(&[
            (
                "crates/sampling/src/seeding.rs",
                "pub fn worker_seed(base: u64, id: u32) -> u64 { base ^ id as u64 }\n",
            ),
            (
                "crates/runtime/src/h.rs",
                "pub fn spawn_worker(base: u64) { let s = worker_seed(base, 0); mix(s); }\n\
                 pub fn mix(s: u64) -> u64 { let r = thread_rng(); s }\n",
            ),
        ]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("OS entropy"), "{}", out[0].message);
    }

    #[test]
    fn waived_sites_are_reported_as_waived() {
        let out = run(&[(
            "crates/runtime/src/i.rs",
            "// aligraph::seeded\n\
             pub fn seeded_probe() -> u64 {\n\
                 // aligraph::allow(determinism-taint): measured, never steers\n\
                 let t = Instant::now();\n\
                 0\n\
             }\n",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].waived.as_deref(), Some("measured, never steers"));
    }

    #[test]
    fn telemetry_and_tests_are_exempt() {
        let out = run(&[
            (
                "crates/telemetry/src/j.rs",
                "// aligraph::seeded\npub fn stamp() -> u64 { let t = Instant::now(); 0 }\n",
            ),
            (
                "tests/k.rs",
                "// aligraph::seeded\npub fn probe() -> u64 { let t = Instant::now(); 0 }\n",
            ),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }
}
