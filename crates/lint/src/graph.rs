//! The workspace symbol table and call graph.
//!
//! [`Workspace::build`] parses every swept file, indexes each `fn` item as
//! a node, and resolves call sites to edges by name:
//!
//! * `Type::assoc(…)` resolves exactly against the `(impl type, name)`
//!   index (`Self::` maps to the enclosing impl);
//! * `module::free_fn(…)` resolves against the name index, filtered to
//!   definitions whose module path / file stem / crate matches;
//! * `recv.method(…)` resolves by name alone — a deliberate
//!   over-approximation, trimmed by [`COMMON_METHODS`]: ubiquitous names
//!   (`new`, `len`, `iter`, …) would connect everything to everything, so
//!   unqualified uses of them are dropped instead of guessed.
//!
//! The result over-approximates real calls on distinctive names and
//! under-approximates on generic ones — the right trade for taint
//! analysis, where a spurious edge costs a review and a missed edge costs
//! a reproducibility bug hunt.

use crate::parse::{parse_fns, FnItem};
use crate::rules::FileCtx;
use std::collections::{HashMap, HashSet, VecDeque};

/// Method names too common to resolve by name alone. An unqualified call
/// to one of these is dropped from the graph; a qualified
/// `Type::name(…)` still resolves exactly.
#[rustfmt::skip] // a packed table; one name per line would be 150 lines
pub const COMMON_METHODS: &[&str] = &[
    "new", "default", "clone", "len", "is_empty", "iter", "iter_mut", "into_iter", "get",
    "get_mut", "insert", "remove", "push", "pop", "next", "contains", "contains_key", "extend",
    "clear", "drain", "take", "get_or_insert", "set", "unwrap", "expect", "unwrap_or",
    "unwrap_or_else", "unwrap_or_default", "map", "map_err", "and_then", "ok", "ok_or", "err",
    "fmt", "eq", "ne", "cmp", "partial_cmp", "hash", "drop", "send", "recv", "try_recv",
    "recv_timeout", "lock", "read", "write", "to_string", "to_vec", "as_str", "as_ref", "as_mut",
    "as_slice", "as_bytes", "into", "from", "try_from", "try_into", "abs", "min", "max", "clamp",
    "id", "name", "keys", "values", "sort", "sort_by", "sort_by_key", "sort_unstable",
    "sort_unstable_by_key", "position", "find", "filter", "filter_map", "collect", "sum", "count",
    "join", "split", "trim", "parse", "with_capacity", "rev", "enumerate", "zip", "chain", "any",
    "all", "fold", "retain", "entry", "or_insert", "or_insert_with", "or_default",
    "saturating_sub", "saturating_add", "wrapping_add", "wrapping_mul", "checked_sub",
    "checked_add", "resize", "swap", "last", "first", "copied", "cloned", "flat_map", "flatten",
    "windows", "chunks", "starts_with", "ends_with", "replace", "push_str", "is_some", "is_none",
    "is_ok", "is_err", "get_or_default", "to_owned", "borrow", "borrow_mut", "iter_rows", "apply",
    "reset", "run", "tick", "step", "init", "build", "start", "stop", "close", "flush", "emit",
    "record", "observe", "snapshot", "merge", "split", "encode", "decode", "write_all",
];

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee node index.
    pub to: usize,
    /// 1-based call-site line in the caller's file.
    pub line: u32,
}

/// One `fn` node: the parsed item plus its file index.
#[derive(Debug)]
pub struct FnNode {
    /// Parsed item.
    pub item: FnItem,
    /// Index into [`Workspace::files`].
    pub file: usize,
}

/// One diagnostic from an interprocedural pass — a [`crate::rules::Violation`]
/// plus the call chain and waiver audit trail the JSON output carries.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule name.
    pub rule: &'static str,
    /// Repo-relative path of the primary site.
    pub path: String,
    /// 1-based line of the primary site.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Source→sink call chain, outermost (seeded / caller) frame first,
    /// rendered `path:line name`. Empty for single-site diagnostics.
    pub chain: Vec<String>,
    /// `Some(reason)` when an `aligraph::allow` waiver covers the site —
    /// kept in the output so grandfathered waivers stay auditable.
    pub waived: Option<String>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)?;
        for frame in &self.chain {
            write!(f, "\n    via {frame}")?;
        }
        Ok(())
    }
}

/// The parsed workspace: files, fn nodes, and the resolved call graph.
#[derive(Debug)]
pub struct Workspace {
    /// Per-file lexed context, in walk order.
    pub files: Vec<FileCtx>,
    /// All parsed `fn` items.
    pub fns: Vec<FnNode>,
    /// Resolved callee edges per fn.
    pub calls: Vec<Vec<Edge>>,
    /// Reverse adjacency (deduplicated caller indices per fn).
    pub callers: Vec<Vec<usize>>,
    by_name: HashMap<String, Vec<usize>>,
}

impl Workspace {
    /// Parses and links every file into a call graph.
    pub fn build(files: Vec<FileCtx>) -> Workspace {
        let mut fns: Vec<FnNode> = Vec::new();
        for (fi, ctx) in files.iter().enumerate() {
            for item in parse_fns(ctx) {
                fns.push(FnNode { item, file: fi });
            }
        }
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_qual: HashMap<(String, String), Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.item.name.clone()).or_default().push(i);
            if let Some(q) = &f.item.qual {
                by_qual.entry((q.clone(), f.item.name.clone())).or_default().push(i);
            }
        }
        let mut calls: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
        for i in 0..fns.len() {
            let mut seen: HashSet<usize> = HashSet::new();
            for c in &fns[i].item.calls {
                let targets: Vec<usize> = match (&c.qual, c.method) {
                    (Some(q), _) => {
                        let q = if q == "Self" {
                            fns[i].item.qual.clone().unwrap_or_else(|| q.clone())
                        } else {
                            q.clone()
                        };
                        let exact = by_qual.get(&(q.clone(), c.callee.clone()));
                        match exact {
                            Some(v) => v.clone(),
                            // Lowercase qualifier: a module/crate path segment.
                            None if q.chars().next().is_some_and(|ch| ch.is_lowercase()) => by_name
                                .get(&c.callee)
                                .map(|v| {
                                    v.iter()
                                        .copied()
                                        .filter(|&t| {
                                            let n = &fns[t];
                                            n.item.module.contains(&q)
                                                || file_matches(&files[n.file].path, &q)
                                        })
                                        .collect()
                                })
                                .unwrap_or_default(),
                            None => Vec::new(),
                        }
                    }
                    (None, true) => {
                        if COMMON_METHODS.contains(&c.callee.as_str()) {
                            Vec::new()
                        } else {
                            by_name
                                .get(&c.callee)
                                .map(|v| {
                                    v.iter()
                                        .copied()
                                        .filter(|&t| fns[t].item.qual.is_some())
                                        .collect()
                                })
                                .unwrap_or_default()
                        }
                    }
                    (None, false) => {
                        if COMMON_METHODS.contains(&c.callee.as_str()) {
                            Vec::new()
                        } else {
                            by_name
                                .get(&c.callee)
                                .map(|v| {
                                    v.iter()
                                        .copied()
                                        .filter(|&t| fns[t].item.qual.is_none() || t == i)
                                        .collect()
                                })
                                .unwrap_or_default()
                        }
                    }
                };
                for t in targets {
                    if t != i && seen.insert(t) {
                        calls[i].push(Edge { to: t, line: c.line });
                    }
                }
            }
        }
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (i, edges) in calls.iter().enumerate() {
            for e in edges {
                callers[e.to].push(i);
            }
        }
        for c in &mut callers {
            c.sort_unstable();
            c.dedup();
        }
        Workspace { files, fns, calls, callers, by_name }
    }

    /// Node indices of every fn named `name`.
    pub fn find(&self, name: &str) -> Vec<usize> {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Node indices of `Qual::name` definitions.
    pub fn find_qualified(&self, qual: &str, name: &str) -> Vec<usize> {
        self.find(name)
            .into_iter()
            .filter(|&i| self.fns[i].item.qual.as_deref() == Some(qual))
            .collect()
    }

    /// `Type::name` or `name` — the display form of a node.
    pub fn qualified_name(&self, i: usize) -> String {
        match &self.fns[i].item.qual {
            Some(q) => format!("{}::{}", q, self.fns[i].item.name),
            None => self.fns[i].item.name.clone(),
        }
    }

    /// Repo-relative path of a node's file.
    pub fn node_path(&self, i: usize) -> &str {
        &self.files[self.fns[i].file].path
    }

    /// True when node `i` participates in interprocedural traversal:
    /// library code, not tests, not binaries/benches — the only code whose
    /// determinism the seeded contracts govern.
    pub fn is_traversal_node(&self, i: usize) -> bool {
        let f = &self.files[self.fns[i].file];
        !f.class.is_test_tree && !f.class.is_bin_like && !f.is_test_line(self.fns[i].item.line)
    }

    /// Breadth-first search from `start` over **caller** edges through
    /// traversal nodes, returning the parent map (`node → caller-of-node`
    /// toward `start`). `start` maps to itself.
    pub fn callers_bfs(&self, start: usize) -> HashMap<usize, usize> {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        parent.insert(start, start);
        let mut q = VecDeque::from([start]);
        while let Some(n) = q.pop_front() {
            for &c in &self.callers[n] {
                if self.is_traversal_node(c) && !parent.contains_key(&c) {
                    parent.insert(c, n);
                    q.push_back(c);
                }
            }
        }
        parent
    }

    /// Renders the call chain `top → … → bottom` (both inclusive) as
    /// `path:line name` frames, using `parents` from a [`Self::callers_bfs`]
    /// rooted at `bottom`.
    pub fn render_chain(
        &self,
        parents: &HashMap<usize, usize>,
        top: usize,
        bottom: usize,
    ) -> Vec<String> {
        let mut path = vec![top];
        let mut cur = top;
        while cur != bottom {
            // parents maps each caller to its callee one step closer to
            // `bottom`; a missing entry means the chain was not from this
            // BFS, so stop rather than loop.
            let Some(&next) = parents.get(&cur) else { break };
            if next == cur {
                break;
            }
            path.push(next);
            cur = next;
        }
        let mut frames = Vec::with_capacity(path.len());
        for (k, &n) in path.iter().enumerate() {
            let line = if k == 0 {
                self.fns[n].item.line
            } else {
                // The call-site line in the previous frame's body.
                let caller = path[k - 1];
                self.calls[caller]
                    .iter()
                    .find(|e| e.to == n)
                    .map_or(self.fns[n].item.line, |e| e.line)
            };
            let at = if k == 0 { self.node_path(n) } else { self.node_path(path[k - 1]) };
            frames.push(format!("{}:{} {}", at, line, self.qualified_name(n)));
        }
        frames
    }
}

/// True when `path`'s file stem or crate directory matches qualifier `q`
/// (`aligraph_sampling::worker_seed` / `seeding::worker_seed`).
fn file_matches(path: &str, q: &str) -> bool {
    let stem = path.rsplit('/').next().and_then(|f| f.strip_suffix(".rs")).unwrap_or("");
    if stem == q {
        return true;
    }
    let parts: Vec<&str> = path.split('/').collect();
    if parts.first() == Some(&"crates") && parts.len() > 1 {
        let krate = parts[1];
        let q_tail = q.strip_prefix("aligraph_").unwrap_or(q);
        return krate == q_tail || krate.replace('-', "_") == q_tail;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(files.iter().map(|(p, s)| FileCtx::new(p, s)).collect())
    }

    #[test]
    fn links_free_qualified_and_method_calls() {
        let w = ws(&[
            (
                "crates/storage/src/a.rs",
                "pub fn leaf() {}\npub struct T;\nimpl T { pub fn work(&self) { leaf(); } }\n",
            ),
            (
                "crates/runtime/src/b.rs",
                "pub fn driver(t: &T) { t.work(); T::work(&t); a::leaf(); }\n",
            ),
        ]);
        let driver = w.find("driver")[0];
        let callees: Vec<String> = w.calls[driver].iter().map(|e| w.qualified_name(e.to)).collect();
        assert!(callees.contains(&"T::work".to_string()), "{callees:?}");
        assert!(callees.contains(&"leaf".to_string()), "{callees:?}");
        let work = w.find_qualified("T", "work")[0];
        assert!(w.callers[work].contains(&driver));
    }

    #[test]
    fn common_method_names_do_not_link() {
        let w = ws(&[
            ("crates/a/src/x.rs", "pub struct S;\nimpl S { pub fn new() -> S { S } }\n"),
            ("crates/b/src/y.rs", "pub fn f() { let v = Vec::new(); other.new(); }\n"),
        ]);
        let f = w.find("f")[0];
        assert!(w.calls[f].is_empty(), "`new` is too common to resolve by name alone");
    }

    #[test]
    fn qualified_common_names_still_link() {
        let w = ws(&[
            ("crates/a/src/x.rs", "pub struct Gen;\nimpl Gen { pub fn new() -> Gen { Gen } }\n"),
            ("crates/b/src/y.rs", "pub fn f() { let g = Gen::new(); }\n"),
        ]);
        let f = w.find("f")[0];
        assert_eq!(w.calls[f].len(), 1);
        assert_eq!(w.qualified_name(w.calls[f][0].to), "Gen::new");
    }

    #[test]
    fn test_code_is_not_a_traversal_node() {
        let w = ws(&[(
            "crates/storage/src/d.rs",
            "pub fn lib_fn() {}\n#[cfg(test)]\nmod tests {\n    fn t() { lib_fn(); }\n}\n",
        )]);
        let t = w.find("t")[0];
        let lib = w.find("lib_fn")[0];
        assert!(!w.is_traversal_node(t));
        assert!(w.is_traversal_node(lib));
        // BFS up from lib_fn must not walk into the test fn.
        let parents = w.callers_bfs(lib);
        assert!(!parents.contains_key(&t));
    }
}
