//! A lightweight item/signature/body parser on top of the [`crate::lexer`].
//!
//! This is *not* a Rust parser — it recovers exactly the structure the
//! interprocedural passes need, from the token stream `rustc` already
//! accepted:
//!
//! * `fn` items with their name, enclosing `impl` type, in-file module
//!   path, visibility, and body span;
//! * call sites inside each body (`free_fn(…)`, `Type::assoc(…)`,
//!   `recv.method(…)`), the raw material of the workspace call graph;
//! * determinism **source events** — wall-clock reads, OS entropy, thread
//!   ids, and iteration over unordered maps (a `HashMap`/`HashSet`-typed
//!   local or parameter walked without an adjacent sort);
//! * channel **protocol events** — `.send(…)` sites with their receiver
//!   and whether the message carries a `seq`, and `.deliver(…)` calls of
//!   the fault plane's delivery driver — the raw material of the
//!   channel-protocol pass.
//!
//! Brace/paren matching is structural; unknown constructs are skipped, so
//! the parser degrades to "fewer facts", never to a crash.

use crate::lexer::{Token, TokenKind};
use crate::rules::FileCtx;
use std::collections::HashSet;

/// What flavor of nondeterminism a source event injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// `Instant::now`, `SystemTime`, `UNIX_EPOCH`.
    WallClock,
    /// `thread_rng`, `from_entropy`, `OsRng`, `RandomState`, …
    Entropy,
    /// `thread::current().id()`.
    ThreadId,
    /// Iteration over a `HashMap`/`HashSet` without an adjacent sort.
    UnorderedIter,
}

impl SourceKind {
    /// Short human label for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            SourceKind::WallClock => "wall-clock read",
            SourceKind::Entropy => "OS entropy",
            SourceKind::ThreadId => "thread-id read",
            SourceKind::UnorderedIter => "unordered-map iteration",
        }
    }
}

/// One determinism source event inside a function body.
#[derive(Debug, Clone)]
pub struct SourceSite {
    /// Source flavor.
    pub kind: SourceKind,
    /// 1-based line of the offending token.
    pub line: u32,
    /// The token text that triggered it (`Instant`, `thread_rng`, the
    /// iterated variable, …).
    pub what: String,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment / method name).
    pub callee: String,
    /// `Type` of a `Type::callee(…)` qualified call.
    pub qual: Option<String>,
    /// True for `recv.callee(…)` method syntax.
    pub method: bool,
    /// 1-based line.
    pub line: u32,
}

/// One `.send(…)` site inside a function body.
#[derive(Debug, Clone)]
pub struct SendSite {
    /// 1-based line.
    pub line: u32,
    /// Nearest identifier left of `.send` — the channel endpoint name.
    pub receiver: String,
    /// True when the send's argument list mentions a `seq`-carrying
    /// identifier (the message is sequence-numbered).
    pub carries_seq: bool,
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` self type, when the fn is an associated item.
    pub qual: Option<String>,
    /// In-file `mod` path (outermost first).
    pub module: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the body's closing brace (or the `;`).
    pub end_line: u32,
    /// Declared `pub` (any visibility scope).
    pub is_pub: bool,
    /// Annotated `// aligraph::seeded` at the signature.
    pub seeded_mark: bool,
    /// Parameter names, in order (patterns collapse to their first ident).
    pub params: Vec<String>,
    /// Call sites in the body.
    pub calls: Vec<CallSite>,
    /// Determinism source events in the body.
    pub sources: Vec<SourceSite>,
    /// `.send(…)` sites in the body.
    pub sends: Vec<SendSite>,
    /// Lines of `.deliver(…)` fault-plane driver calls in the body.
    pub delivers: Vec<u32>,
    /// Every identifier mentioned in the signature + body (protocol-token
    /// membership checks).
    pub idents: HashSet<String>,
}

/// Keywords that look like calls when followed by `(`.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "break", "continue", "let", "else", "move",
    "ref", "in", "as", "where", "unsafe", "fn", "impl", "pub", "use", "mod", "struct", "enum",
    "trait", "type", "const", "static", "mut", "dyn", "box", "self", "Self", "super", "crate",
    "await", "async", "yield", "Some", "Ok", "Err", "None",
];

/// Identifiers that read OS entropy (the former `no-entropy` token list).
pub const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "getrandom",
    "RandomState",
];

/// Methods that walk a collection; on a `HashMap`/`HashSet` receiver these
/// surface nondeterministic order.
const ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "keys", "values", "values_mut", "drain", "into_iter"];

/// Identifiers that impose an order downstream of an unordered walk — a
/// sort, or an order-insensitive reduction. Seeing one within the lookahead
/// window clears the candidate source.
const ORDERING_FIXES: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by_key",
    "sort_by_cached_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "max",
    "min",
    "max_by_key",
    "min_by_key",
    "sum",
    "count",
    "fold",
    "all",
    "any",
];

/// How many tokens past an unordered-iteration site an ordering fix may
/// trail it (covers `let v: Vec<_> = m.iter().collect(); v.sort…();`).
const ORDER_FIX_WINDOW: usize = 48;

/// Parses every `fn` item in `ctx`'s token stream.
pub fn parse_fns(ctx: &FileCtx) -> Vec<FnItem> {
    Parser { code: &ctx.code, ctx, out: Vec::new() }.run()
}

/// Open lexical context during the scan.
enum Scope {
    /// `mod name {` — opened at brace `depth`.
    Mod { name: String, depth: u32 },
    /// `impl [Trait for] Type {`.
    Impl { ty: String, depth: u32 },
    /// `fn` body; `idx` into `out`.
    Fn { idx: usize, depth: u32, unordered: HashSet<String> },
}

struct Parser<'a> {
    code: &'a [Token],
    ctx: &'a FileCtx,
    out: Vec<FnItem>,
}

impl<'a> Parser<'a> {
    fn run(mut self) -> Vec<FnItem> {
        let code = self.code;
        let mut scopes: Vec<Scope> = Vec::new();
        let mut depth = 0u32;
        let mut pending_pub = false;
        let mut i = 0usize;
        while i < code.len() {
            let t = &code[i];
            match t.kind {
                TokenKind::Pound => {
                    // `#[attr]` / `#![attr]`: bracket-match and skip.
                    let mut j = i + 1;
                    if code.get(j).is_some_and(|t| t.kind == TokenKind::Bang) {
                        j += 1;
                    }
                    if code.get(j).is_some_and(|t| t.kind == TokenKind::Punct('[')) {
                        i = match_delims(code, j, '[', ']') + 1;
                        continue;
                    }
                    i += 1;
                }
                TokenKind::Punct('{') => {
                    depth += 1;
                    i += 1;
                }
                TokenKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    while let Some(top) = scopes.last() {
                        let open = match top {
                            Scope::Mod { depth, .. }
                            | Scope::Impl { depth, .. }
                            | Scope::Fn { depth, .. } => *depth,
                        };
                        if open > depth {
                            if let Some(Scope::Fn { idx, .. }) = scopes.last() {
                                self.out[*idx].end_line = t.line;
                            }
                            scopes.pop();
                        } else {
                            break;
                        }
                    }
                    i += 1;
                }
                TokenKind::Ident if t.text == "pub" => {
                    pending_pub = true;
                    // Skip a `pub(crate)`-style scope.
                    if code.get(i + 1).is_some_and(|t| t.kind == TokenKind::Punct('(')) {
                        i = match_delims(code, i + 1, '(', ')') + 1;
                    } else {
                        i += 1;
                    }
                }
                TokenKind::Ident if t.text == "mod" => {
                    let name =
                        code.get(i + 1).filter(|t| t.kind == TokenKind::Ident).map(|t| &t.text);
                    if let (Some(name), Some(open)) = (name, find_block_open(code, i + 1)) {
                        scopes.push(Scope::Mod { name: name.clone(), depth: depth + 1 });
                        depth += 1;
                        i = open + 1;
                    } else {
                        i += 1; // `mod name;`
                    }
                    pending_pub = false;
                }
                TokenKind::Ident if t.text == "impl" => {
                    if let Some(open) = find_block_open(code, i) {
                        let ty = impl_self_type(&code[i + 1..open]);
                        scopes.push(Scope::Impl { ty, depth: depth + 1 });
                        depth += 1;
                        i = open + 1;
                    } else {
                        i += 1;
                    }
                    pending_pub = false;
                }
                TokenKind::Ident if t.text == "fn" => {
                    i = self.parse_fn(i, &mut scopes, &mut depth, pending_pub);
                    pending_pub = false;
                }
                TokenKind::Ident if t.text == "use" || t.text == "macro_rules" => {
                    // Skip to `;` (use) or past the matched body (macros) so
                    // macro bodies don't contribute phantom call sites.
                    if t.text == "macro_rules" {
                        if let Some(open) = find_block_open(code, i) {
                            i = match_delims(code, open, '{', '}') + 1;
                            continue;
                        }
                    }
                    while i < code.len() && code[i].kind != TokenKind::Punct(';') {
                        i += 1;
                    }
                    pending_pub = false;
                }
                _ => {
                    self.body_token(i, &mut scopes);
                    if t.kind == TokenKind::Punct(';') {
                        pending_pub = false;
                    }
                    i += 1;
                }
            }
        }
        self.out
    }

    /// Parses one `fn` header starting at the `fn` keyword index; returns
    /// the index to resume from (start of the body, or past the `;`).
    fn parse_fn(
        &mut self,
        at: usize,
        scopes: &mut Vec<Scope>,
        depth: &mut u32,
        is_pub: bool,
    ) -> usize {
        let code = self.code;
        let Some(name_tok) = code.get(at + 1).filter(|t| t.kind == TokenKind::Ident) else {
            return at + 1;
        };
        let mut j = at + 2;
        // Generic parameters: `<` … `>` (between name and the param list, so
        // `->` never interferes).
        if code.get(j).is_some_and(|t| t.kind == TokenKind::Punct('<')) {
            let mut angle = 0i32;
            while j < code.len() {
                match code[j].kind {
                    TokenKind::Punct('<') => angle += 1,
                    TokenKind::Punct('>') if !arrow_close(code, j) => {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if !code.get(j).is_some_and(|t| t.kind == TokenKind::Punct('(')) {
            return at + 1;
        }
        let params_close = match_delims(code, j, '(', ')');
        let (params, unordered) = parse_params(&code[j + 1..params_close]);
        // Walk to the body `{` or a `;` (trait method without a body),
        // bracket-depth aware so `-> impl Fn(…)` in the return type or a
        // `where` clause never opens the body early.
        let mut k = params_close + 1;
        let mut nest = 0i32;
        let open = loop {
            let Some(t) = code.get(k) else { break None };
            match t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => nest += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => nest -= 1,
                TokenKind::Punct('{') if nest == 0 => break Some(k),
                TokenKind::Punct(';') if nest == 0 => break None,
                _ => {}
            }
            k += 1;
        };
        let qual = scopes.iter().rev().find_map(|s| match s {
            Scope::Impl { ty, .. } => Some(ty.clone()),
            _ => None,
        });
        let module = scopes
            .iter()
            .filter_map(|s| match s {
                Scope::Mod { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        let mut idents = HashSet::new();
        for t in &code[at..open.unwrap_or(k).min(code.len())] {
            if t.kind == TokenKind::Ident {
                idents.insert(t.text.clone());
            }
        }
        let item = FnItem {
            name: name_tok.text.clone(),
            qual,
            module,
            line: code[at].line,
            end_line: code.get(open.unwrap_or(k)).map_or(code[at].line, |t| t.line),
            is_pub,
            seeded_mark: self.ctx.has_seeded_mark(code[at].line),
            params,
            calls: Vec::new(),
            sources: Vec::new(),
            sends: Vec::new(),
            delivers: Vec::new(),
            idents,
        };
        let idx = self.out.len();
        self.out.push(item);
        match open {
            Some(open) => {
                scopes.push(Scope::Fn { idx, depth: *depth + 1, unordered });
                *depth += 1;
                open + 1
            }
            None => k + 1, // bodiless: trait signature / extern decl
        }
    }

    /// Attributes one body token to the innermost open `fn`, extracting
    /// call sites, sources, sends, and driver calls.
    fn body_token(&mut self, i: usize, scopes: &mut [Scope]) {
        let Some(Scope::Fn { idx, unordered, .. }) =
            scopes.iter_mut().rev().find(|s| matches!(s, Scope::Fn { .. }))
        else {
            return;
        };
        let idx = *idx;
        let code = self.code;
        let t = &code[i];
        if t.kind != TokenKind::Ident {
            return;
        }
        self.out[idx].idents.insert(t.text.clone());
        let next = code.get(i + 1);
        let called = next.is_some_and(|n| n.kind == TokenKind::Punct('('));
        let is_macro = next.is_some_and(|n| n.kind == TokenKind::Bang);
        let dot_before = i > 0 && code[i - 1].kind == TokenKind::Punct('.');
        let path_before =
            i > 1 && code[i - 1].kind == TokenKind::PathSep && code[i - 2].kind == TokenKind::Ident;

        // `let [mut] name … HashMap/HashSet … ;` → unordered local binding.
        if t.text == "let" {
            let mut j = i + 1;
            if code.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name) = code.get(j).filter(|t| t.kind == TokenKind::Ident) {
                let stmt_end = code[j..]
                    .iter()
                    .position(|t| t.kind == TokenKind::Punct(';'))
                    .map_or(code.len(), |p| j + p);
                if code[j..stmt_end].iter().any(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
                {
                    unordered.insert(name.text.clone());
                } else {
                    // A shadowing rebind to a non-map type (the idiomatic
                    // `let v: Vec<_> = set.into_iter().collect();`) clears
                    // the unordered tag for the rest of the body.
                    unordered.remove(&name.text);
                }
            }
        }

        // Unordered walks: `m.iter()` / `for x in [&[mut]] m {` on an
        // unordered binding, unless an ordering fix trails in the window.
        let unordered_hit = if called && dot_before && ITER_METHODS.contains(&t.text.as_str()) {
            code.get(i.wrapping_sub(2))
                .filter(|r| r.kind == TokenKind::Ident && unordered.contains(&r.text))
                .map(|r| r.text.clone())
        } else if t.text == "in" {
            let mut j = i + 1;
            while code
                .get(j)
                .is_some_and(|t| matches!(t.kind, TokenKind::Punct('&')) || t.is_ident("mut"))
            {
                j += 1;
            }
            // Direct iteration only (`for x in m {`); `m.iter()`-style walks
            // are the method branch's job, counting each site once.
            code.get(j)
                .filter(|r| {
                    r.kind == TokenKind::Ident
                        && unordered.contains(&r.text)
                        && code.get(j + 1).is_some_and(|n| n.kind == TokenKind::Punct('{'))
                })
                .map(|r| r.text.clone())
        } else {
            None
        };
        if let Some(var) = unordered_hit {
            let window_end = (i + ORDER_FIX_WINDOW).min(code.len());
            let fixed = code[i..window_end]
                .iter()
                .any(|t| t.kind == TokenKind::Ident && ORDERING_FIXES.contains(&t.text.as_str()));
            if !fixed {
                self.out[idx].sources.push(SourceSite {
                    kind: SourceKind::UnorderedIter,
                    line: t.line,
                    what: var,
                });
            }
        }

        // Wall clock.
        if t.text == "Instant"
            && next.is_some_and(|n| n.kind == TokenKind::PathSep)
            && code.get(i + 2).is_some_and(|n| n.is_ident("now"))
        {
            self.out[idx].sources.push(SourceSite {
                kind: SourceKind::WallClock,
                line: t.line,
                what: "Instant::now".into(),
            });
        }
        if t.text == "SystemTime" || t.text == "UNIX_EPOCH" {
            self.out[idx].sources.push(SourceSite {
                kind: SourceKind::WallClock,
                line: t.line,
                what: t.text.clone(),
            });
        }
        // OS entropy.
        if ENTROPY_IDENTS.contains(&t.text.as_str()) {
            self.out[idx].sources.push(SourceSite {
                kind: SourceKind::Entropy,
                line: t.line,
                what: t.text.clone(),
            });
        }
        // `thread::current().id()`.
        if t.text == "current"
            && path_before
            && code[i - 2].is_ident("thread")
            && slice_starts(code, i + 1, &["(", ")", ".", "id", "("])
        {
            self.out[idx].sources.push(SourceSite {
                kind: SourceKind::ThreadId,
                line: t.line,
                what: "thread::current().id".into(),
            });
        }

        if !called || is_macro {
            return;
        }
        // `.send(…)` / `.deliver(…)` protocol events.
        if t.text == "send" && dot_before {
            let close = match_delims(code, i + 1, '(', ')');
            let carries_seq = code[i + 2..close].iter().any(|a| {
                a.kind == TokenKind::Ident && (a.text == "seq" || a.text.ends_with("_seq"))
            });
            let receiver = code[..i.saturating_sub(1)]
                .iter()
                .rev()
                .take(8)
                .find(|t| t.kind == TokenKind::Ident)
                .map_or_else(String::new, |t| t.text.clone());
            self.out[idx].sends.push(SendSite { line: t.line, receiver, carries_seq });
        }
        if t.text == "deliver" && (dot_before || path_before) {
            self.out[idx].delivers.push(t.line);
        }
        // Call site.
        if KEYWORDS.contains(&t.text.as_str()) {
            return;
        }
        let qual = if path_before { Some(code[i - 2].text.clone()) } else { None };
        self.out[idx].calls.push(CallSite {
            callee: t.text.clone(),
            qual,
            method: dot_before,
            line: t.line,
        });
    }
}

/// True when the `>` at index `j` is the tail of a `->` / `=>` arrow, not a
/// closing angle bracket.
fn arrow_close(code: &[Token], j: usize) -> bool {
    j > 0 && matches!(code[j - 1].kind, TokenKind::Punct('-') | TokenKind::Punct('='))
}

/// True when the token texts at `code[at..]` match `pat` exactly.
fn slice_starts(code: &[Token], at: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, p)| code.get(at + k).is_some_and(|t| t.text == *p))
}

/// Index of the matching close delimiter for the open at `open` (which must
/// point at `open_c`); saturates at the last token on imbalance.
fn match_delims(code: &[Token], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < code.len() {
        match &code[j].kind {
            TokenKind::Punct(c) if *c == open_c => depth += 1,
            TokenKind::Punct(c) if *c == close_c => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    code.len().saturating_sub(1)
}

/// Finds the `{` opening the block of the item starting at `at`, stopping
/// at a top-level `;` (bodiless item).
fn find_block_open(code: &[Token], at: usize) -> Option<usize> {
    let mut nest = 0i32;
    let mut j = at;
    while j < code.len() {
        match code[j].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => nest += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => nest -= 1,
            TokenKind::Punct('{') if nest == 0 => return Some(j),
            TokenKind::Punct(';') if nest == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// `impl [<…>] [Trait for] Type [<…>] [where …]` → the self type name.
fn impl_self_type(seg: &[Token]) -> String {
    let mut angle = 0i32;
    let mut after_for = None;
    for (k, t) in seg.iter().enumerate() {
        match t.kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            TokenKind::Ident if angle == 0 && t.text == "for" => after_for = Some(k + 1),
            _ => {}
        }
    }
    let seg = &seg[after_for.unwrap_or(0)..];
    let mut angle = 0i32;
    let mut last = String::new();
    for t in seg {
        match t.kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            TokenKind::Ident if angle == 0 && t.text == "where" => break,
            TokenKind::Ident if angle == 0 && t.text != "mut" => {
                last = t.text.clone();
            }
            _ => {}
        }
    }
    last
}

/// Splits a parameter list into names + the subset typed `HashMap`/`HashSet`.
fn parse_params(seg: &[Token]) -> (Vec<String>, HashSet<String>) {
    let mut params = Vec::new();
    let mut unordered = HashSet::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut cuts = Vec::new();
    for (k, t) in seg.iter().enumerate() {
        match t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') if arrow_close(seg, k) => {}
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('>') => depth -= 1,
            TokenKind::Punct(',') if depth == 0 => {
                cuts.push((start, k));
                start = k + 1;
            }
            _ => {}
        }
    }
    cuts.push((start, seg.len()));
    for (a, b) in cuts {
        let part = &seg[a..b];
        let Some(name) =
            part.iter().find(|t| t.kind == TokenKind::Ident && t.text != "mut" && t.text != "self")
        else {
            continue;
        };
        params.push(name.text.clone());
        if part.iter().any(|t| t.is_ident("HashMap") || t.is_ident("HashSet")) {
            unordered.insert(name.text.clone());
        }
    }
    (params, unordered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Vec<FnItem> {
        parse_fns(&FileCtx::new("crates/storage/src/x.rs", src))
    }

    #[test]
    fn finds_free_and_assoc_fns_with_modules() {
        let src = "
pub fn free() {}
struct S;
impl S { pub fn method(&self) {} }
impl Clone for S { fn clone(&self) -> S { S } }
mod inner { pub fn nested() {} }
";
        let fns = parse(src);
        let names: Vec<(String, Option<String>)> =
            fns.iter().map(|f| (f.name.clone(), f.qual.clone())).collect();
        assert!(names.contains(&("free".into(), None)));
        assert!(names.contains(&("method".into(), Some("S".into()))));
        assert!(names.contains(&("clone".into(), Some("S".into()))));
        let nested = fns.iter().find(|f| f.name == "nested").unwrap();
        assert_eq!(nested.module, vec!["inner".to_string()]);
        assert!(nested.is_pub);
    }

    #[test]
    fn captures_calls_with_qualifiers() {
        let src = "
fn f(x: &T) {
    helper(1);
    Foo::assoc(2);
    x.method(3);
    let v = vec![1];
}
";
        let fns = parse(src);
        let calls = &fns[0].calls;
        assert!(calls.iter().any(|c| c.callee == "helper" && c.qual.is_none() && !c.method));
        assert!(calls.iter().any(|c| c.callee == "assoc" && c.qual.as_deref() == Some("Foo")));
        assert!(calls.iter().any(|c| c.callee == "method" && c.method));
        assert!(!calls.iter().any(|c| c.callee == "vec"), "macros are not calls");
    }

    #[test]
    fn detects_wallclock_entropy_and_thread_id_sources() {
        let src = "
fn f() {
    let t = Instant::now();
    let s = SystemTime::now();
    let r = thread_rng();
    let id = thread::current().id();
}
";
        let kinds: Vec<SourceKind> = parse(src)[0].sources.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SourceKind::WallClock));
        assert!(kinds.contains(&SourceKind::Entropy));
        assert!(kinds.contains(&SourceKind::ThreadId));
    }

    #[test]
    fn unordered_iteration_flags_unless_sorted() {
        let bad = "
fn f(m: &HashMap<u32, f32>) {
    for (k, v) in m.iter() { use_it(k, v); }
}
";
        let fns = parse(bad);
        assert_eq!(fns[0].sources.len(), 1, "{:?}", fns[0].sources);
        assert_eq!(fns[0].sources[0].kind, SourceKind::UnorderedIter);

        let sorted = "
fn f(m: &HashMap<u32, f32>) {
    let mut rows: Vec<_> = m.iter().collect();
    rows.sort_unstable_by_key(|(k, _)| **k);
}
";
        assert!(parse(sorted)[0].sources.is_empty());

        let local = "
fn g() {
    let mut m = HashMap::new();
    m.insert(1, 2);
    for k in m.keys() { touch(k); }
}
";
        let fns = parse(local);
        assert_eq!(fns[0].sources.len(), 1, "{:?}", fns[0].sources);

        // Shadowing rebind to a sorted Vec clears the unordered tag for the
        // rest of the body, even when the later walk is outside the fix window.
        let shadowed = "
fn h() {
    let mut affected = HashSet::new();
    affected.insert(3u32);
    let mut affected: Vec<u32> = affected.into_iter().collect();
    affected.sort_unstable();
    publish(|_| {
        for v in affected.iter() { bump(v); }
    });
}
";
        assert!(parse(shadowed)[0].sources.is_empty(), "{:?}", parse(shadowed)[0].sources);
    }

    #[test]
    fn send_and_deliver_events() {
        let src = "
fn f(tx: &Sender<Msg>, plane: &FaultPlane) {
    tx.send(Msg::Update { seq, rows }).unwrap();
    reply.send(out).ok();
    plane.deliver(channel, seq, &policy, mode, HopKind::Acked, || {}).ok();
}
";
        let fns = parse(src);
        assert_eq!(fns[0].sends.len(), 2);
        assert!(fns[0].sends[0].carries_seq);
        assert_eq!(fns[0].sends[0].receiver, "tx");
        assert!(!fns[0].sends[1].carries_seq);
        assert_eq!(fns[0].sends[1].receiver, "reply");
        assert_eq!(fns[0].delivers.len(), 1);
    }

    #[test]
    fn deprecated_attr_and_seeded_mark() {
        let src = r#"
#[deprecated(since = "0.8.0", note = "use builder")]
pub fn old() {}

// aligraph::seeded — epoch plan is a pure function of the seed
pub fn plan(seed: u64) {}
"#;
        let fns = parse(src);
        assert!(fns.iter().find(|f| f.name == "old").unwrap().is_pub);
        assert!(fns.iter().find(|f| f.name == "plan").unwrap().seeded_mark);
        assert!(!fns.iter().find(|f| f.name == "old").unwrap().seeded_mark);
    }

    #[test]
    fn generics_where_clauses_and_return_fns_do_not_confuse_bodies() {
        let src = "
fn complex<T: Fn(u32) -> u32>(f: T) -> impl Fn(u32) -> u32
where
    T: Clone,
{
    inner_call();
    move |x| f(x)
}
fn after() { tail_call(); }
";
        let fns = parse(src);
        assert_eq!(fns.len(), 2);
        assert!(fns[0].calls.iter().any(|c| c.callee == "inner_call"));
        assert!(fns[1].calls.iter().any(|c| c.callee == "tail_call"));
    }
}
