//! The one front end: every source file is lexed once, its `fn` items are
//! lifted into a lightweight HIR — signatures and per-function body
//! *events* (calls, `let` bindings, returns) in source order — and its test
//! code is located, so no pass re-lexes a file or re-derives test-ness.
//!
//! This is deliberately not a full Rust parser. It recovers exactly the
//! structure the analyses need:
//!
//! * every non-test `fn` item with its name, enclosing `impl` type and
//!   parameter names (`#[test]` / `#[cfg(test)]` items are dropped here,
//!   once, and their token ranges recorded);
//! * the linear sequence of call expressions inside each body, with
//!   receiver hints, path qualifiers, and argument token ranges;
//! * `let` bindings and `return` expressions as token ranges, for the
//!   taint analysis;
//! * `// pmlint:` annotations attached to items and statements, through the
//!   one lookup [`Lexed::annotation`].
//!
//! Macro invocations are treated as opaque (their interior produces no
//! events), and nested `fn` items are excluded from the enclosing body.

use crate::lexer::{lex, Lexed, Tok, TokKind};

/// Token range `[start, end)` into a token slice.
pub type Span = (usize, usize);

/// One call expression, in body order.
#[derive(Debug, Clone)]
pub struct CallEvent {
    /// Method or function name (last path segment).
    pub name: String,
    /// Path qualifier segments before the name (e.g. `["ptr"]` for
    /// `ptr::write`, `["NvTable"]` for `NvTable::open`).
    pub qualifiers: Vec<String>,
    /// Immediate receiver identifier for simple method calls
    /// (`region.flush(..)` → `Some("region")`); `None` for free calls or
    /// complex receivers.
    pub recv: Option<String>,
    /// Argument token ranges (top-level comma split).
    pub args: Vec<Span>,
    /// 1-based source position of the callee name.
    pub line: u32,
    /// 1-based column of the callee name.
    pub col: u32,
    /// `// pmlint: publish(<label>)` annotation on this call's line (or
    /// the comment block directly above it).
    pub publish_label: Option<String>,
    /// `// pmlint: observe(<label>)` annotation — this call reads a
    /// publish word on the observation side (acquire load expected).
    pub observe_label: Option<String>,
    /// Token index of the callee name (for taint bookkeeping).
    pub tok_idx: usize,
}

/// One `let` binding.
#[derive(Debug, Clone)]
pub struct LetEvent {
    /// Lower-case binding names found in the pattern.
    pub names: Vec<String>,
    /// Initializer token range (empty for `let x;`).
    pub expr: Span,
}

/// A body event, ordered by source position.
#[derive(Debug, Clone)]
pub enum Event {
    /// Call expression.
    Call(CallEvent),
    /// `let` binding (anchored at the end of its initializer, so calls
    /// inside the initializer are processed first).
    Let(LetEvent),
    /// `return` / tail expression: the returned token range.
    Return(Span),
}

/// One (non-test) function item.
#[derive(Debug, Clone)]
pub struct HirFn {
    /// Index into [`HirProgram::fns`].
    pub id: usize,
    /// Crate directory name (`nvm`, `storage`, …) or `""` outside
    /// `crates/`.
    pub krate: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type, when any (`impl NvTable { fn open … }` →
    /// `Some("NvTable")`).
    pub impl_type: Option<String>,
    /// Parameter binding names, excluding `self` (`""` for pattern
    /// parameters we don't resolve).
    pub params: Vec<String>,
    /// Whether the signature has a `self` receiver.
    pub has_self: bool,
    /// The body's token range in its file.
    pub body: Span,
    /// Annotated `// pmlint: flush-helper`.
    pub flush_helper: bool,
    /// Annotated `// pmlint: caller-flushes` — the fn's contract is to
    /// leave stores unflushed for the caller to batch.
    pub caller_flushes: bool,
    /// Annotated `// pmlint: lock-held-persist(<reason>)` — the fn
    /// deliberately persists while holding a lock (an atomic multi-step
    /// protocol), exempting it from the `lock-held-persist` rule.
    pub lock_held_persist: bool,
    /// Annotated `// pmlint: read-path` — a root of the read-path purity
    /// gate: everything reachable from it must issue no persistence
    /// primitive and acquire no lock (rule `read-path-purity`).
    pub read_path: bool,
    /// Annotated `// pmlint: read-pure` — a leaf the purity gate trusts:
    /// the fn models a plain load on real hardware (simulated-region read
    /// accessors whose internal bookkeeping locks are simulator artefacts),
    /// so the walk does not descend into it.
    pub read_pure: bool,
    /// Body tokens (a copy of the file's tokens in `body`).
    pub tokens: Vec<Tok>,
    /// Body events, in execution-ish order.
    pub events: Vec<Event>,
}

/// One source file through the front end.
pub struct SourceFile {
    /// Workspace-relative path.
    pub path: String,
    /// Tokens, comments and the annotation lookup.
    pub lexed: Lexed,
    /// Its non-test fn items with bodies.
    pub fns: Vec<HirFn>,
    /// Token ranges of test code (`#[test]` / `#[cfg(test)]` items).
    pub test_spans: Vec<Span>,
}

/// All functions recovered from a set of source files.
#[derive(Debug, Default)]
pub struct HirProgram {
    /// Every parsed function.
    pub fns: Vec<HirFn>,
}

impl HirProgram {
    /// The program over `fns`, assigning fn ids in order.
    pub fn new(fns: impl IntoIterator<Item = HirFn>) -> HirProgram {
        let mut fns: Vec<HirFn> = fns.into_iter().collect();
        for (id, f) in fns.iter_mut().enumerate() {
            f.id = id;
        }
        HirProgram { fns }
    }
}

/// Build a program from `(path, source)` pairs.
pub fn build_program(files: &[(String, String)]) -> HirProgram {
    HirProgram::new(
        files
            .iter()
            .flat_map(|(path, source)| SourceFile::parse(path, source).fns),
    )
}

/// Crate directory name from a workspace-relative path
/// (`crates/nvm/src/pvec.rs` → `nvm`).
pub fn crate_of(path: &str) -> String {
    let mut it = path.split('/');
    if it.next() == Some("crates") {
        if let Some(c) = it.next() {
            return c.to_owned();
        }
    }
    String::new()
}

const KEYWORDS_NOT_CALLS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "let", "fn", "move", "in", "as", "else",
    "unsafe", "ref", "mut", "pub", "where", "impl", "dyn",
];

impl SourceFile {
    /// Lex `source` and parse its items.
    pub fn parse(path: &str, source: &str) -> SourceFile {
        let lexed = lex(source);
        let toks = &lexed.tokens;

        // --- phase 1: item discovery with a scope walker ----------------
        struct RawFn {
            name: String,
            impl_type: Option<String>,
            line: u32,
            test: bool,
            sig_start: usize,
            body: Option<Span>,
        }

        #[derive(Clone)]
        struct Scope {
            test: bool,
            impl_type: Option<String>,
        }

        let mut raw: Vec<RawFn> = Vec::new();
        let mut test_spans: Vec<Span> = Vec::new();
        let mut scopes: Vec<Scope> = vec![Scope {
            test: false,
            impl_type: None,
        }];
        // Pending scope opened by the *next* `{`.
        let mut pending: Option<Scope> = None;
        let mut pending_fn: Option<usize> = None; // raw index awaiting its body
        let mut attr_test = false;

        let mut i = 0usize;
        while i < toks.len() {
            let t = &toks[i];
            // Attributes `#[...]` / `#![...]`.
            if t.is_punct('#') {
                let j = i + 1 + usize::from(toks.get(i + 1).is_some_and(|n| n.is_punct('!')));
                if toks.get(j).is_some_and(|n| n.is_punct('[')) {
                    let end = skip_balanced(toks, j);
                    attr_test |= toks[j..end].iter().any(|t| t.is_ident("test"));
                    i = end;
                    continue;
                }
            }
            // The root scope is never popped.
            let cur = &scopes[scopes.len() - 1];
            match t.kind {
                TokKind::Punct('{') => {
                    let next = pending.take().unwrap_or_else(|| cur.clone());
                    let body = (i + 1, skip_balanced(toks, i) - 1);
                    if let Some(fi) = pending_fn.take() {
                        raw[fi].body = Some(body);
                    }
                    if next.test && !cur.test {
                        test_spans.push(body);
                    }
                    scopes.push(next);
                }
                TokKind::Punct('}') if scopes.len() > 1 => {
                    scopes.pop();
                }
                TokKind::Punct(';') => {
                    pending = None;
                    pending_fn = None;
                    attr_test = false;
                }
                TokKind::Ident => {
                    let test = cur.test || attr_test;
                    match t.text.as_str() {
                        "fn" => {
                            let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident)
                            else {
                                i += 1;
                                continue;
                            };
                            raw.push(RawFn {
                                name: name.text.clone(),
                                impl_type: cur.impl_type.clone(),
                                line: t.line,
                                test,
                                sig_start: i,
                                body: None,
                            });
                            pending_fn = Some(raw.len() - 1);
                            let impl_type = cur.impl_type.clone();
                            pending = Some(Scope { test, impl_type });
                            attr_test = false;
                        }
                        "impl" => {
                            let impl_type = parse_impl_type(toks, i);
                            pending = Some(Scope { test, impl_type });
                            attr_test = false;
                        }
                        "mod" | "trait" | "struct" | "enum" | "union" => {
                            pending = Some(Scope {
                                test,
                                impl_type: None,
                            });
                            attr_test = false;
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
            i += 1;
        }

        // --- phase 2: signatures + body events of the non-test fns ------
        let bodies: Vec<Span> = raw.iter().filter_map(|r| r.body).collect();
        let krate = crate_of(path);
        let mut fns = Vec::new();
        for r in raw.into_iter().filter(|r| !r.test) {
            let Some(body) = r.body else {
                continue; // trait method declaration without a body
            };
            let (params, has_self) = parse_params(toks, r.sig_start);
            // Nested fn bodies strictly inside this one are skipped.
            let nested: Vec<Span> = bodies
                .iter()
                .filter(|&&(s, e)| s > body.0 && e <= body.1)
                .map(|&(s, e)| (s - body.0, e - body.0))
                .collect();
            let tokens: Vec<Tok> = toks[body.0..body.1].to_vec();
            let events = extract_events(&tokens, &nested, &lexed);
            let has = |needle: &str| lexed.annotation(r.line, |c| c.contains(needle)).is_some();
            fns.push(HirFn {
                id: 0, // assigned by the program builder
                krate: krate.clone(),
                file: path.to_owned(),
                name: r.name,
                impl_type: r.impl_type,
                params,
                has_self,
                body,
                flush_helper: has("pmlint: flush-helper"),
                caller_flushes: has("pmlint: caller-flushes"),
                lock_held_persist: has("pmlint: lock-held-persist("),
                read_path: has("pmlint: read-path"),
                read_pure: has("pmlint: read-pure"),
                tokens,
                events,
            });
        }
        SourceFile {
            path: path.to_owned(),
            lexed,
            fns,
            test_spans,
        }
    }

    /// Is token `i` inside test code?
    pub fn in_test(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| i >= s && i < e)
    }
}

/// For `impl [<…>] Path [for Path] {`, return the implementing type (the
/// last segment of the `for` path, or of the first path for inherent
/// impls).
fn parse_impl_type(toks: &[Tok], impl_idx: usize) -> Option<String> {
    let mut j = impl_idx + 1;
    j = skip_generics(toks, j);
    let (first, mut j2) = read_path_last_segment(toks, j)?;
    let mut ty = first;
    if toks.get(j2).is_some_and(|t| t.is_ident("for")) {
        j2 += 1;
        // `impl Trait for Type` — skip leading `&`/`mut`.
        while toks
            .get(j2)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
        {
            j2 += 1;
        }
        let (second, _) = read_path_last_segment(toks, j2)?;
        ty = second;
    }
    Some(ty)
}

/// Skip a balanced `<...>` group at `j` (token-level; `>` preceded by `-`
/// is an arrow, not a close).
pub(crate) fn skip_generics(toks: &[Tok], j: usize) -> usize {
    if !toks.get(j).is_some_and(|t| t.is_punct('<')) {
        return j;
    }
    let mut depth = 0usize;
    let mut k = j;
    while k < toks.len() {
        if toks[k].is_punct('<') {
            depth += 1;
        } else if toks[k].is_punct('>') && !(k >= 1 && toks[k - 1].is_punct('-')) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    k
}

/// Read `Seg [::Seg]* [<…>]` starting at `j`; returns the last segment and
/// the index just past the path (generics skipped).
pub(crate) fn read_path_last_segment(toks: &[Tok], j: usize) -> Option<(String, usize)> {
    let first = toks.get(j)?;
    if first.kind != TokKind::Ident {
        return None;
    }
    let mut name = first.text.clone();
    let mut k = j + 1;
    k = skip_generics(toks, k);
    while toks.get(k).is_some_and(|t| t.is_punct(':'))
        && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
    {
        let seg = toks.get(k + 2)?;
        if seg.kind != TokKind::Ident {
            break;
        }
        name = seg.text.clone();
        k += 3;
        k = skip_generics(toks, k);
    }
    Some((name, k))
}

/// Parse the parameter list of the `fn` at `sig_start`: binding names
/// (excluding `self`) and whether there is a `self` receiver.
fn parse_params(toks: &[Tok], sig_start: usize) -> (Vec<String>, bool) {
    let open = skip_generics(toks, sig_start + 2); // skip `fn name <…>`
    let mut params = Vec::new();
    let mut has_self = false;
    if !toks.get(open).is_some_and(|t| t.is_punct('(')) {
        return (params, has_self);
    }
    let close = skip_balanced(toks, open) - 1;
    // Split top-level commas inside (open+1 .. close).
    let mut start = open + 1;
    let mut d_par = 0i32;
    let mut d_ang = 0i32;
    let mut d_brk = 0i32;
    let mut pieces: Vec<(usize, usize)> = Vec::new();
    for k in open + 1..close {
        match toks[k].kind {
            TokKind::Punct('(') | TokKind::Punct('{') => d_par += 1,
            TokKind::Punct(')') | TokKind::Punct('}') => d_par -= 1,
            TokKind::Punct('[') => d_brk += 1,
            TokKind::Punct(']') => d_brk -= 1,
            TokKind::Punct('<') => d_ang += 1,
            TokKind::Punct('>') if !(k >= 1 && toks[k - 1].is_punct('-')) => {
                d_ang -= 1;
            }
            TokKind::Punct(',') if d_par == 0 && d_ang == 0 && d_brk == 0 => {
                pieces.push((start, k));
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < close {
        pieces.push((start, close));
    }
    for (s, e) in pieces {
        let slice = &toks[s..e];
        if slice.iter().any(|t| t.is_ident("self")) && slice.len() <= 3 {
            has_self = true;
            continue;
        }
        // `name : Type` (skip `mut`; pattern parameters are unresolved).
        let mut name = String::new();
        for t in slice {
            if t.is_punct(':') {
                break;
            } else if t.is_punct('(') || t.is_punct('[') {
                name.clear();
                break;
            } else if t.kind == TokKind::Ident && t.text != "mut" && name.is_empty() {
                name = t.text.clone();
            }
        }
        params.push(name);
    }
    (params, has_self)
}

/// Extract body events from `tokens` (a fn body), skipping `nested` fn
/// body ranges and macro interiors.
fn extract_events(tokens: &[Tok], nested: &[Span], lexed: &Lexed) -> Vec<Event> {
    // (anchor, order, event) — anchored events sorted at the end.
    let mut out: Vec<(usize, usize, Event)> = Vec::new();
    let mut used_annotations: std::collections::HashSet<u32> = std::collections::HashSet::new();
    let mut used_observe_annotations: std::collections::HashSet<u32> =
        std::collections::HashSet::new();
    let mut order = 0usize;
    let n = tokens.len();
    let mut j = 0usize;
    while j < n {
        if let Some(&(_, e)) = nested.iter().find(|&&(s, e)| j >= s && j < e) {
            j = e;
            continue;
        }
        let t = &tokens[j];
        match t.kind {
            TokKind::Ident => {
                // Macro invocation: opaque.
                if tokens.get(j + 1).is_some_and(|t| t.is_punct('!'))
                    && tokens
                        .get(j + 2)
                        .is_some_and(|t| t.is_punct('(') || t.is_punct('[') || t.is_punct('{'))
                {
                    j = skip_balanced(tokens, j + 2);
                    continue;
                }
                if t.text == "let" {
                    let (ev, anchor) = parse_let(tokens, j);
                    if let Some(ev) = ev {
                        out.push((anchor, order, Event::Let(ev)));
                        order += 1;
                    }
                    j += 1;
                    continue;
                }
                if t.text == "return" {
                    let end = expr_end(tokens, j + 1);
                    out.push((end, order, Event::Return((j + 1, end))));
                    order += 1;
                    j += 1;
                    continue;
                }
                // Statement-position assignment `name = expr;` — reuse
                // the Let event (a re-binding, for the taint analysis).
                if tokens.get(j + 1).is_some_and(|t| t.is_punct('='))
                    && !tokens.get(j + 2).is_some_and(|t| t.is_punct('='))
                    && !KEYWORDS_NOT_CALLS.contains(&t.text.as_str())
                    && (j == 0
                        || tokens[j - 1].is_punct(';')
                        || tokens[j - 1].is_punct('{')
                        || tokens[j - 1].is_punct('}'))
                {
                    let start = j + 2;
                    let end = let_expr_end(tokens, start);
                    out.push((
                        end,
                        order,
                        Event::Let(LetEvent {
                            names: vec![t.text.clone()],
                            expr: (start, end),
                        }),
                    ));
                    order += 1;
                    j += 2;
                    continue;
                }
                // Call expression: `name (` or turbofish `name ::< … > (`.
                let mut paren = None;
                if tokens.get(j + 1).is_some_and(|t| t.is_punct('(')) {
                    paren = Some(j + 1);
                } else if tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(j + 2).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(j + 3).is_some_and(|t| t.is_punct('<'))
                {
                    let g = skip_generics(tokens, j + 3);
                    if tokens.get(g).is_some_and(|t| t.is_punct('(')) {
                        paren = Some(g);
                    }
                }
                if let Some(paren) = paren.filter(|_| {
                    !(KEYWORDS_NOT_CALLS.contains(&t.text.as_str())
                        || (j >= 1 && tokens[j - 1].is_ident("fn")))
                }) {
                    let args = split_args(tokens, paren);
                    let (qualifiers, recv) = call_context(tokens, j);
                    // Each publish annotation binds to the first call
                    // after it only — not to every call within reach.
                    let publish_label = label_annotation(lexed, t.line, "pmlint: publish(")
                        .filter(|(al, _)| used_annotations.insert(*al))
                        .map(|(_, label)| label);
                    let observe_label = label_annotation(lexed, t.line, "pmlint: observe(")
                        .filter(|(al, _)| used_observe_annotations.insert(*al))
                        .map(|(_, label)| label);
                    // Anchor at the closing paren: argument sub-calls
                    // execute before the call itself.
                    let anchor = skip_balanced(tokens, paren) - 1;
                    out.push((
                        anchor,
                        order,
                        Event::Call(CallEvent {
                            name: t.text.clone(),
                            qualifiers,
                            recv,
                            args,
                            line: t.line,
                            col: t.col,
                            publish_label,
                            observe_label,
                            tok_idx: j,
                        }),
                    ));
                    order += 1;
                }
            }
            TokKind::Punct('#') => {
                // Statement-level attribute: skip its group.
                let mut k = j + 1;
                if tokens.get(k).is_some_and(|t| t.is_punct('!')) {
                    k += 1;
                }
                if tokens.get(k).is_some_and(|t| t.is_punct('[')) {
                    j = skip_balanced(tokens, k);
                    continue;
                }
            }
            _ => {}
        }
        j += 1;
    }
    // Tail expression: tokens after the last top-level `;` / `}` are the
    // body's return value.
    let mut depth = 0i32;
    let mut tail_start = 0usize;
    for (k, t) in tokens.iter().enumerate() {
        match t.kind {
            TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    tail_start = k + 1;
                }
            }
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct(';') if depth == 0 => tail_start = k + 1,
            _ => {}
        }
    }
    if tail_start < n
        && !nested
            .iter()
            .any(|&(s, e)| tail_start >= s && tail_start < e)
    {
        out.push((n, order, Event::Return((tail_start, n))));
    }
    out.sort_by_key(|&(anchor, ord, _)| (anchor, ord));
    out.into_iter().map(|(_, _, e)| e).collect()
}

/// Skip a balanced (), [], {} group starting at `open`; returns the index
/// just past the closer.
pub(crate) fn skip_balanced(tokens: &[Tok], open: usize) -> usize {
    let (o, c) = match tokens.get(open).map(|t| t.kind) {
        Some(TokKind::Punct('(')) => ('(', ')'),
        Some(TokKind::Punct('[')) => ('[', ']'),
        Some(TokKind::Punct('{')) => ('{', '}'),
        _ => return open + 1,
    };
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct(o) {
            depth += 1;
        } else if tokens[j].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// End of an expression starting at `start`: the first `;` at balanced
/// depth, or a `{`/`}` at depth 0 (block starts a tail/if body).
fn expr_end(tokens: &[Tok], start: usize) -> usize {
    let mut d_par = 0i32;
    let mut d_brk = 0i32;
    let mut d_brace = 0i32;
    let mut j = start;
    while j < tokens.len() {
        match tokens[j].kind {
            TokKind::Punct('(') => d_par += 1,
            TokKind::Punct(')') => {
                if d_par == 0 {
                    return j;
                }
                d_par -= 1;
            }
            TokKind::Punct('[') => d_brk += 1,
            TokKind::Punct(']') => {
                if d_brk == 0 {
                    return j;
                }
                d_brk -= 1;
            }
            TokKind::Punct('{') => d_brace += 1,
            TokKind::Punct('}') => {
                if d_brace == 0 {
                    return j;
                }
                d_brace -= 1;
            }
            TokKind::Punct(';') if d_par == 0 && d_brk == 0 && d_brace == 0 => return j,
            TokKind::Punct(',') if d_par == 0 && d_brk == 0 && d_brace == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Parse `let <pat> = <expr>` at `let_idx`; returns the event and its
/// anchor (end of the initializer).
fn parse_let(tokens: &[Tok], let_idx: usize) -> (Option<LetEvent>, usize) {
    // Condition-lets (`if let` / `while let`) still bind names; their
    // initializer ends at the block `{`.
    let mut names = Vec::new();
    let mut j = let_idx + 1;
    // Pattern: up to `=` at depth 0 (or `;`/`{`).
    let mut d = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        match t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('<') => d += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => d -= 1,
            TokKind::Punct('>') if !(j >= 1 && tokens[j - 1].is_punct('-')) => {
                d -= 1;
            }
            TokKind::Punct('=') if d <= 0 => break,
            TokKind::Punct(';') | TokKind::Punct('{') if d <= 0 => {
                // `let x;` — no initializer.
                return (
                    Some(LetEvent {
                        names,
                        expr: (j, j),
                    }),
                    j,
                );
            }
            TokKind::Ident => {
                let txt = t.text.as_str();
                let lower = txt
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_lowercase() || c == '_');
                if lower && txt != "mut" && txt != "ref" {
                    names.push(t.text.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    if j >= tokens.len() {
        return (None, j);
    }
    // `==` is not an initializer.
    if tokens.get(j + 1).is_some_and(|t| t.is_punct('=')) {
        return (None, j);
    }
    let start = j + 1;
    // Condition-lets (`if let` / `while let`) end at the block `{`
    // (struct literals are not allowed in condition position); statement
    // lets end at `;` with braces treated as balanced groups.
    let cond = let_idx >= 1
        && (tokens[let_idx - 1].is_ident("if") || tokens[let_idx - 1].is_ident("while"));
    let end = if cond {
        cond_expr_end(tokens, start)
    } else {
        let_expr_end(tokens, start)
    };
    (
        Some(LetEvent {
            names,
            expr: (start, end),
        }),
        end,
    )
}

/// End of a condition-let scrutinee: the first `{` at balanced depth.
fn cond_expr_end(tokens: &[Tok], start: usize) -> usize {
    let mut d = 0i32;
    let mut j = start;
    while j < tokens.len() {
        match tokens[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => d += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => {
                if d == 0 {
                    return j;
                }
                d -= 1;
            }
            TokKind::Punct('{') | TokKind::Punct(';') if d == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

/// End of a `let` initializer: `;` at balanced depth (struct-literal and
/// block braces are balanced, so `let x = Foo { .. };` spans the braces).
fn let_expr_end(tokens: &[Tok], start: usize) -> usize {
    let mut d = 0i32;
    let mut j = start;
    while j < tokens.len() {
        match tokens[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => d += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                if d == 0 {
                    return j;
                }
                d -= 1;
            }
            TokKind::Punct(';') if d == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Split the arguments of a call whose `(` is at `open` into top-level
/// comma-separated token ranges.
fn split_args(tokens: &[Tok], open: usize) -> Vec<Span> {
    let close = skip_balanced(tokens, open) - 1;
    let mut args = Vec::new();
    let mut start = open + 1;
    let mut d = 0i32;
    for (k, tok) in tokens.iter().enumerate().take(close).skip(open + 1) {
        match tok.kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => d += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => d -= 1,
            TokKind::Punct(',') if d == 0 => {
                args.push((start, k));
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < close {
        args.push((start, close));
    }
    args
}

/// Receiver / path context for a call whose name token is at `idx`:
/// returns `(qualifiers, recv)`.
fn call_context(tokens: &[Tok], idx: usize) -> (Vec<String>, Option<String>) {
    // Path call: `A :: B :: name (`.
    if idx >= 3 && tokens[idx - 1].is_punct(':') && tokens[idx - 2].is_punct(':') {
        let mut quals = Vec::new();
        let mut k = idx;
        while k >= 3
            && tokens[k - 1].is_punct(':')
            && tokens[k - 2].is_punct(':')
            && tokens[k - 3].kind == TokKind::Ident
        {
            quals.insert(0, tokens[k - 3].text.clone());
            k -= 3;
        }
        return (quals, None);
    }
    // Method call: `recv . name (` — recv may be a chain; report the
    // immediate ident when simple.
    if idx >= 2 && tokens[idx - 1].is_punct('.') {
        if tokens[idx - 2].kind == TokKind::Ident {
            // Chain? `a.b.name(` → recv is the field `b`, still useful.
            return (Vec::new(), Some(tokens[idx - 2].text.clone()));
        }
        return (Vec::new(), None);
    }
    (Vec::new(), None)
}

/// `// pmlint: <needle><label>)` attached to `line` (`needle` is e.g.
/// `"pmlint: publish("`). Returns the annotation's own line so the caller
/// can bind each annotation to the *first* call after it only.
fn label_annotation(lexed: &Lexed, line: u32, needle: &str) -> Option<(u32, String)> {
    let label = |c: &str| {
        let rest = &c[c.find(needle)? + needle.len()..];
        Some(rest[..rest.find(')')?].trim().to_owned())
    };
    let (at, c) = lexed.annotation(line, |c| label(c).is_some())?;
    Some((at, label(c)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Vec<HirFn> {
        SourceFile::parse("crates/x/src/lib.rs", src).fns
    }

    #[test]
    fn fn_signature_with_nested_generics() {
        let fns = parse(
            "fn f<T: Into<Vec<u8>>>(map: HashMap<u64, Vec<(u64, u64)>>, n: u64) -> Result<Vec<u64>, Error> { n }",
        );
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "f");
        assert_eq!(fns[0].params.len(), 2);
        assert_eq!(fns[0].params, ["map", "n"]);
    }

    #[test]
    fn impl_type_is_attached() {
        let fns = parse("impl<T: Pod> PVec<T> { fn push(&self, n: u64) -> u64 { n } }");
        assert_eq!(fns[0].impl_type.as_deref(), Some("PVec"));
        assert!(fns[0].has_self);
    }

    #[test]
    fn trait_impl_uses_the_for_type() {
        let fns = parse("impl Publisher for NvPublisher { fn publish(&mut self) {} }");
        assert_eq!(fns[0].impl_type.as_deref(), Some("NvPublisher"));
    }

    #[test]
    fn calls_are_extracted_in_order_with_receivers() {
        let fns = parse(
            "fn g(region: &R) { region.write_pod(8, &1u64); region.flush(8, 8); region.fence(); }",
        );
        let calls: Vec<&CallEvent> = fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) => Some(c),
                _ => None,
            })
            .collect();
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["write_pod", "flush", "fence"]);
        assert_eq!(calls[0].recv.as_deref(), Some("region"));
        assert_eq!(calls[0].args.len(), 2);
        assert_eq!(calls[2].args.len(), 0);
    }

    #[test]
    fn macro_interiors_are_opaque() {
        let fns = parse("fn h() { assert_eq!(a.write_pod(0, &1), b); println!(\"{}\", x); }");
        let calls = fns[0]
            .events
            .iter()
            .filter(|e| matches!(e, Event::Call(_)))
            .count();
        assert_eq!(calls, 0, "macro interiors must produce no call events");
    }

    #[test]
    fn lifetimes_in_call_expressions_do_not_confuse_parsing() {
        let fns = parse("fn k<'a>(x: &'a str) -> &'a str { trim::<'a>(x); x }");
        assert_eq!(fns[0].params.len(), 1);
        assert!(fns[0]
            .events
            .iter()
            .any(|e| matches!(e, Event::Call(c) if c.name == "trim")));
    }

    #[test]
    fn nested_fns_are_split_out() {
        let fns = parse("fn outer() { fn inner(r: &R) { r.fence(); } inner(&R); }");
        assert_eq!(fns.len(), 2);
        let outer = fns.iter().find(|f| f.name == "outer").unwrap();
        // outer sees the call to inner but not inner's fence.
        assert!(outer
            .events
            .iter()
            .any(|e| matches!(e, Event::Call(c) if c.name == "inner")));
        assert!(!outer
            .events
            .iter()
            .any(|e| matches!(e, Event::Call(c) if c.name == "fence")));
    }

    #[test]
    fn test_code_is_marked() {
        let src = "#[cfg(test)] mod tests { fn helper() {} #[test] fn t() {} } fn real() {}";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        let names: Vec<&str> = file.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["real"], "test fns are dropped at parse time");
        let helper = file.lexed.tokens.iter().position(|t| t.is_ident("helper"));
        assert!(file.in_test(helper.unwrap()));
        let real = file.lexed.tokens.iter().position(|t| t.is_ident("real"));
        assert!(!file.in_test(real.unwrap()));
    }

    #[test]
    fn publish_annotation_binds_to_the_call() {
        let fns = parse(
            "fn p(r: &R) {\n    // pmlint: publish(delta-rows)\n    r.write_pod(0, &1u64);\n    r.persist(0, 8);\n}",
        );
        let call = fns[0]
            .events
            .iter()
            .find_map(|e| match e {
                Event::Call(c) if c.name == "write_pod" => Some(c),
                _ => None,
            })
            .unwrap();
        assert_eq!(call.publish_label.as_deref(), Some("delta-rows"));
    }

    #[test]
    fn observe_annotation_binds_to_the_call() {
        let fns = parse(
            "fn q(r: &R) -> u64 {\n    // pmlint: observe(delta-rows)\n    r.load_u64_acquire(0)\n}",
        );
        let call = fns[0]
            .events
            .iter()
            .find_map(|e| match e {
                Event::Call(c) if c.name == "load_u64_acquire" => Some(c),
                _ => None,
            })
            .unwrap();
        assert_eq!(call.observe_label.as_deref(), Some("delta-rows"));
        assert_eq!(call.publish_label, None);
    }

    #[test]
    fn publish_and_observe_annotations_bind_independently() {
        // Each annotation kind has its own once-per-line accounting: a
        // publish and an observe on adjacent lines must not steal each
        // other's binding.
        let fns = parse(
            "fn pq(r: &R) {\n    // pmlint: publish(a)\n    r.store_u64_release(0, 1);\n    // pmlint: observe(b)\n    r.load_u64_acquire(0);\n}",
        );
        let label = |name: &str, pick: fn(&CallEvent) -> Option<&str>| {
            fns[0].events.iter().find_map(|e| match e {
                Event::Call(c) if c.name == name => pick(c),
                _ => None,
            })
        };
        assert_eq!(
            label("store_u64_release", |c| c.publish_label.as_deref()),
            Some("a")
        );
        assert_eq!(
            label("load_u64_acquire", |c| c.observe_label.as_deref()),
            Some("b")
        );
    }

    #[test]
    fn lock_held_persist_annotation_marks_the_fn() {
        let fns = parse(
            "fn b(&self) {}\n// pmlint: lock-held-persist(one protocol instance)\nfn a(&self) {}",
        );
        let by_name = |n: &str| fns.iter().find(|f| f.name == n).unwrap();
        assert!(by_name("a").lock_held_persist);
        assert!(!by_name("b").lock_held_persist);
    }

    #[test]
    fn generic_atomic_calls_keep_receiver_and_args() {
        // Atomic ops on generic/pointer atomics must parse like any
        // other method call: receiver, name, arg spans (the ordering
        // classification downstream depends on all three).
        let fns = parse(
            "fn g(p: &AtomicPtr<Node>, v: &AtomicUsize) {\n    p.store(core::ptr::null_mut(), Ordering::Release);\n    v.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);\n}",
        );
        let call = |name: &str| {
            fns[0]
                .events
                .iter()
                .find_map(|e| match e {
                    Event::Call(c) if c.name == name => Some(c),
                    _ => None,
                })
                .unwrap()
        };
        let st = call("store");
        assert_eq!(st.recv.as_deref(), Some("p"));
        assert_eq!(st.args.len(), 2);
        let cx = call("compare_exchange");
        assert_eq!(cx.recv.as_deref(), Some("v"));
        assert_eq!(cx.args.len(), 4);
    }

    #[test]
    fn raw_identifiers_parse_as_fns() {
        let fns = parse("fn r#async(r#type: u64) -> u64 { r#type }");
        assert_eq!(fns[0].name, "async");
        assert_eq!(fns[0].params, ["type"]);
    }

    #[test]
    fn raw_strings_do_not_fabricate_events() {
        // Call-looking and store-looking text inside raw strings (with
        // embedded quotes and braces) must not become HIR events.
        let fns = parse(
            r###"fn f(region: &NvmRegion) { let s = r#"write_pod(0, &1) } fn g() {"#; region.fence(); }"###,
        );
        assert_eq!(fns.len(), 1);
        let calls: Vec<&str> = fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call(c) => Some(c.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(calls, vec!["fence"]);
    }

    #[test]
    fn let_bindings_capture_initializer_ranges() {
        let fns = parse("fn m(v: &[u8]) { let p = v.as_ptr() as u64; let q = p + 8; }");
        let lets: Vec<&LetEvent> = fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Let(l) => Some(l),
                _ => None,
            })
            .collect();
        assert_eq!(lets.len(), 2);
        assert_eq!(lets[0].names, vec!["p"]);
        assert_eq!(lets[1].names, vec!["q"]);
    }
}
