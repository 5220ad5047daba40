//! The token-level rules, and the one panic scan.
//!
//! Token rules run over each file's token stream, using the front end's
//! test spans and `flush-helper` fn bodies for context:
//!
//! * `raw-nvm-write` — raw pointer writes (`ptr::write`, `ptr::copy`,
//!   `copy_nonoverlapping`, `write_volatile`, `write_unaligned`,
//!   `from_raw_parts_mut`, `transmute`) outside fns annotated with a
//!   `// pmlint: flush-helper` comment. All NVM stores must go through the
//!   region API so the flush/fence discipline and the persist-trace
//!   recorder see them.
//! * `pod-repr-c` — `unsafe impl Pod for T` where `T`'s definition in the
//!   same file lacks `#[repr(C)]` / `#[repr(transparent)]`.
//! * `pod-padding-assert` — such impls without a `size_of::<T>` layout
//!   assertion in the file (padding-freedom must be pinned by a const
//!   assert, not assumed).
//! * `unsafe-safety-comment` — any `unsafe` token without a `// SAFETY:`
//!   comment (or `# Safety` doc section) directly above or on the line.
//! * `no-get-unchecked` — `get_unchecked(_mut)` in non-test code.
//! * `send-sync-justification` — `unsafe impl Send/Sync for T` whose
//!   `// SAFETY:` block does not argue thread safety (mention of
//!   threads, locks, atomics, or synchronization). Asserting `Send`/
//!   `Sync` is a concurrency claim; a crash-consistency SAFETY comment
//!   does not cover it.
//! * `pod-interior-mutability` — `unsafe impl Pod for T` where `T`'s
//!   definition in the same file contains an interior-mutable field
//!   (`Cell`, `RefCell`, `UnsafeCell`, `Mutex`, `RwLock`, `Atomic*`).
//!   Pod types are raw bytes on the medium; interior-mutability state
//!   (lock words, atomic flags) must not be persisted.
//! * `ffi-safety-comment` — a foreign `extern` block without a
//!   `// SAFETY:` comment above it, or a foreign fn whose signature
//!   carries raw pointers without its own `// SAFETY:` comment. Foreign
//!   declarations are unchecked trust boundaries (the compiler verifies
//!   nothing against the C side); the prototype-match and pointer
//!   contracts must be written down. `extern crate` and `extern "C" fn`
//!   definitions are not foreign blocks and are exempt.
//!
//! The panic scan ([`panic_scan`]) reads a fn body's tokens for
//! `.unwrap()` / `.expect(..)` and the panic macros. The fn set picks the
//! rule: on the configured recovery/replay-critical fns it reports
//! `recovery-unwrap` / `recovery-panic` — plus `recovery-indexing` for
//! panicking `container[index]` expressions — and on the reverse
//! call-graph closure of the allocation primitives `alloc-unwrap`.
//!
//! A tree-level rule (`publish-once-media`) lives in
//! [`media_findings`](crate::media_findings): every checksummed store
//! label declared in the nvm protocol registry must be registered in a
//! `media_extents` targeting map.

use std::collections::{BTreeSet, HashMap};

use crate::config::Config;
use crate::hir::{read_path_last_segment, skip_balanced, skip_generics, HirFn, SourceFile};
use crate::lexer::{Lexed, Tok, TokKind};

/// One lint finding, anchored to a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (kebab-case).
    pub rule: &'static str,
    /// Path of the offending file (as given to the linter).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub msg: String,
}

impl Finding {
    /// A finding of `rule`, which must be one of [`RULES`](crate::RULES).
    pub(crate) fn new(rule: &'static str, file: &str, line: u32, col: u32, msg: String) -> Finding {
        debug_assert!(crate::RULES.contains(&rule), "unregistered rule {rule}");
        let file = file.to_owned();
        Finding {
            rule,
            file,
            line,
            col,
            msg,
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.msg
        )
    }
}

/// Per-file facts needed by tree-level rules.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// `Some(labels)` when the file defines a `fn media_extents`; the set
    /// holds every string literal inside that fn's body.
    pub media_labels: Option<BTreeSet<String>>,
}

const RAW_WRITE_BARE: &[&str] = &[
    "copy_nonoverlapping",
    "write_volatile",
    "write_unaligned",
    "from_raw_parts_mut",
    "transmute",
];
const RAW_WRITE_PTR_QUALIFIED: &[&str] = &["write", "write_bytes", "copy"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const GET_UNCHECKED: &[&str] = &["get_unchecked", "get_unchecked_mut"];
/// Keywords that legitimately precede `[` (array/slice type or literal
/// position rather than a panicking index expression).
const INDEX_OK_KEYWORDS: &[&str] = &[
    "if", "else", "match", "return", "in", "as", "mut", "ref", "break", "continue", "move", "loop",
    "while", "for", "where", "unsafe", "let", "dyn", "impl", "pub", "use", "box", "await", "yield",
    "const", "static",
];
const POD_PRIMITIVES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128", "f32", "f64", "usize",
    "isize",
];

struct TypeDef {
    has_repr: bool,
    /// First interior-mutable field type mentioned in the definition.
    interior_mut: Option<String>,
}

/// Lint one file; returns findings plus tree-level facts.
pub fn lint_source(path: &str, source: &str, cfg: &Config) -> (Vec<Finding>, FileFacts) {
    lint_file(&SourceFile::parse(path, source), cfg)
}

/// Lint one parsed file: the token rules, the critical-path panic scan and
/// the file's media labels.
pub(crate) fn lint_file(file: &SourceFile, cfg: &Config) -> (Vec<Finding>, FileFacts) {
    let toks = &file.lexed.tokens;
    let path = file.path.as_str();
    let mut findings = Vec::new();
    let mut attrs: Vec<Vec<String>> = Vec::new();
    let mut pod_impls: Vec<&Tok> = Vec::new();
    let mut type_defs: HashMap<String, TypeDef> = HashMap::new();
    let mut size_asserted: BTreeSet<String> = BTreeSet::new();
    let flush_helper = |i: usize| {
        let mut helpers = file.fns.iter().filter(|f| f.flush_helper);
        helpers.any(|f| i >= f.body.0 && i < f.body.1)
    };
    let mut emit = |rule: &'static str, t: &Tok, msg: String| {
        findings.push(Finding::new(rule, path, t.line, t.col, msg));
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // Attributes: consume `#[...]` / `#![...]` wholesale.
        if t.is_punct('#') {
            let j = i + 1 + usize::from(toks.get(i + 1).is_some_and(|n| n.is_punct('!')));
            if toks.get(j).is_some_and(|n| n.is_punct('[')) {
                let end = skip_balanced(toks, j);
                let words = toks[j..end].iter().filter(|t| t.kind == TokKind::Ident);
                attrs.push(words.map(|t| t.text.clone()).collect());
                i = end;
                continue;
            }
        }
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        let next = toks.get(i + 1);
        let after_fn = prev.is_some_and(|p| p.is_ident("fn"));
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct(';'), _) | (TokKind::Ident, "mod" | "impl" | "trait") => attrs.clear(),
            (TokKind::Ident, "fn") if next.is_some_and(|n| n.kind == TokKind::Ident) => {
                attrs.clear()
            }
            (TokKind::Ident, "struct" | "enum" | "union") => {
                if let Some(name) = next.filter(|n| n.kind == TokKind::Ident) {
                    let has_repr = attrs.iter().any(|a| {
                        a.iter().any(|w| w == "repr")
                            && a.iter().any(|w| w == "C" || w == "transparent")
                    });
                    let interior_mut = body_interior_mut(toks, i);
                    let def = TypeDef {
                        has_repr,
                        interior_mut,
                    };
                    type_defs.insert(name.text.clone(), def);
                }
                attrs.clear();
            }
            (TokKind::Ident, "extern") => check_extern_block(toks, i, &file.lexed, &mut emit),
            (TokKind::Ident, "unsafe") => {
                if !has_safety_comment(&file.lexed, t) {
                    let msg = "`unsafe` without a `// SAFETY:` comment justifying it";
                    emit("unsafe-safety-comment", t, msg.to_owned());
                }
                match parse_unsafe_impl(toks, i) {
                    Some((tr, ty))
                        if tr == "Pod" && !POD_PRIMITIVES.contains(&ty.text.as_str()) =>
                    {
                        pod_impls.push(ty)
                    }
                    Some((tr, ty))
                        if matches!(tr.as_str(), "Send" | "Sync")
                            && !safety_argues_threads(&file.lexed, t) =>
                    {
                        let msg = format!(
                            "`unsafe impl {tr} for {}` without a thread-safety argument in its `// SAFETY:` comment — asserting `{tr}` claims the type is safe across threads; the comment must say why (what lock, atomic, or ownership rule makes it so)",
                            ty.text
                        );
                        emit("send-sync-justification", ty, msg);
                    }
                    _ => {}
                }
            }
            // `size_of::<T>` — whitelist T for the padding rule.
            (TokKind::Ident, "size_of" | "align_of") => {
                if let Some(name) = generic_arg_ident(toks, i) {
                    size_asserted.insert(name);
                }
            }
            (TokKind::Ident, name)
                if GET_UNCHECKED.contains(&name) && !file.in_test(i) && !after_fn =>
            {
                let msg = format!("`{name}` bypasses bounds checks — banned outside tests");
                emit("no-get-unchecked", t, msg);
            }
            (TokKind::Ident, name)
                if RAW_WRITE_BARE.contains(&name) || RAW_WRITE_PTR_QUALIFIED.contains(&name) =>
            {
                let qualified = i >= 3
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && toks[i - 3].is_ident("ptr");
                let raw = match RAW_WRITE_BARE.contains(&name) {
                    true if !after_fn => format!("`{name}`"),
                    false if qualified => format!("`ptr::{name}`"),
                    _ => String::new(),
                };
                if !raw.is_empty() && !file.in_test(i) && !flush_helper(i) {
                    let msg = format!(
                        "raw memory write {raw} outside a `// pmlint: flush-helper` fn — all NVM stores must go through the region API"
                    );
                    emit("raw-nvm-write", t, msg);
                }
            }
            _ => {}
        }
        i += 1;
    }

    // Pod layout rules, resolved against the file-wide defs (a type
    // defined in another file is out of scope for a lexer).
    for ty in pod_impls {
        let Some(def) = type_defs.get(&ty.text) else {
            continue;
        };
        let name = &ty.text;
        if !def.has_repr {
            let msg = format!(
                "`unsafe impl Pod for {name}` but `{name}` lacks #[repr(C)]/#[repr(transparent)] — field order is unstable"
            );
            emit("pod-repr-c", ty, msg);
        }
        if let Some(field_ty) = &def.interior_mut {
            let msg = format!(
                "`unsafe impl Pod for {name}` but `{name}` contains interior-mutable field type `{field_ty}` — Pod values are raw bytes on the medium; lock/atomic state must not be persisted"
            );
            emit("pod-interior-mutability", ty, msg);
        }
        if !size_asserted.contains(name) {
            let msg = format!(
                "`unsafe impl Pod for {name}` without a `size_of::<{name}>` const assertion pinning padding-freedom"
            );
            emit("pod-padding-assert", ty, msg);
        }
    }

    // Recovery/replay-critical fns: the panic scan.
    if let Some(names) = cfg.critical_fns(path) {
        let mut critical = Vec::new();
        for f in file
            .fns
            .iter()
            .filter(|f| names.is_none_or(|n| n.contains(&f.name)))
        {
            panic_scan(f, NoPanic::Critical, &mut critical);
        }
        // A nested fn is also scanned as part of its critical parent.
        critical.sort_by_key(|f| (f.line, f.col));
        critical.dedup_by_key(|f| (f.line, f.col));
        findings.append(&mut critical);
    }

    let mut facts = FileFacts::default();
    for f in file.fns.iter().filter(|f| f.name == "media_extents") {
        let labels = facts.media_labels.get_or_insert_with(BTreeSet::new);
        let strings = f.tokens.iter().filter(|t| t.kind == TokKind::Str);
        labels.extend(strings.map(|t| t.text.clone()));
    }
    (findings, facts)
}

/// Why a fn body must not panic — and so which rule the scan reports.
pub(crate) enum NoPanic<'a> {
    /// A configured recovery/replay-critical fn: it faces arbitrary
    /// post-crash bytes and must return typed errors.
    Critical,
    /// The fn can observe an allocation failure; the witness says how.
    Alloc(&'a str),
}

/// The one panic scan over `f`'s body tokens (macro bodies included):
/// `.unwrap()` / `.expect(..)`, the panic macros and — on critical paths —
/// panicking index expressions.
pub(crate) fn panic_scan(f: &HirFn, why: NoPanic, out: &mut Vec<Finding>) {
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        let next = toks.get(i + 1);
        let name = t.text.as_str();
        let unwrap = matches!(name, "unwrap" | "expect")
            && t.kind == TokKind::Ident
            && prev.is_some_and(|p| p.is_punct('.'))
            && next.is_some_and(|n| n.is_punct('('));
        let panic = t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&name)
            && next.is_some_and(|n| n.is_punct('!'));
        let index = t.is_punct('[')
            && prev.is_some_and(|p| match p.kind {
                TokKind::Ident => !INDEX_OK_KEYWORDS.contains(&p.text.as_str()),
                TokKind::Punct(')') | TokKind::Punct(']') => true,
                _ => false,
            });
        let fname = &f.name;
        let (rule, msg) = match why {
            NoPanic::Critical if unwrap => (
                "recovery-unwrap",
                format!("`.{name}()` in recovery/replay-critical fn `{fname}` — return a typed error instead"),
            ),
            NoPanic::Critical if panic => (
                "recovery-panic",
                format!("`{name}!` in recovery/replay-critical fn `{fname}` — recovery must not abort on bad bytes"),
            ),
            NoPanic::Critical if index => (
                "recovery-indexing",
                format!("panicking index expression in recovery/replay-critical fn `{fname}` — use `.get()` with a typed error"),
            ),
            NoPanic::Alloc(witness) if unwrap || panic => {
                let what = if unwrap {
                    format!("`.{name}(..)`")
                } else {
                    format!("`{name}!`")
                };
                let msg = format!(
                    "{what} in `{fname}`, which can observe an allocation failure \
                     ({witness}) — capacity exhaustion must unwind as a typed \
                     error, not abort"
                );
                (crate::allocpath::RULE_ALLOC_UNWRAP, msg)
            }
            _ => continue,
        };
        out.push(Finding::new(rule, &f.file, t.line, t.col, msg));
    }
}

/// Is there a `// SAFETY:` comment (or `# Safety` doc section) attached to
/// `t`'s line?
fn has_safety_comment(lexed: &Lexed, t: &Tok) -> bool {
    let ok = |c: &str| c.contains("SAFETY:") || c.contains("# Safety");
    lexed.annotation(t.line, ok).is_some()
}

/// Does the `// SAFETY:` comment attached to `t`'s line argue thread safety?
fn safety_argues_threads(lexed: &Lexed, t: &Tok) -> bool {
    const THREAD_WORDS: &[&str] = &[
        "sync",
        "send",
        "thread",
        "lock",
        "atomic",
        "synchroniz",
        "mutex",
        "rwlock",
        "concurren",
        "race",
    ];
    let argues = |c: &str| {
        let c = c.to_lowercase();
        THREAD_WORDS.iter().any(|w| c.contains(w))
    };
    lexed.annotation(t.line, argues).is_some()
}

/// At an `unsafe` token, parse `unsafe impl [<…>] Trait for Type` into the
/// trait's last path segment and the token naming the type (the last
/// segment of its path). Array impls and macro metavariables yield `None`.
fn parse_unsafe_impl(toks: &[Tok], i: usize) -> Option<(String, &Tok)> {
    if !toks.get(i + 1)?.is_ident("impl") {
        return None;
    }
    let (trait_name, j) = read_path_last_segment(toks, skip_generics(toks, i + 2))?;
    if !toks.get(j)?.is_ident("for") {
        return None;
    }
    let mut name = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident)?;
    let mut k = j + 2;
    while toks.get(k).is_some_and(|t| t.is_punct(':'))
        && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
    {
        name = toks.get(k + 2)?;
        k += 3;
    }
    Some((trait_name, name))
}

/// At the index of an `extern` token, detect a foreign block (`extern
/// "C" { … }` or bare `extern { … }`) and enforce the FFI SAFETY
/// discipline: a `// SAFETY:` comment above the block arguing that the
/// declarations match the C prototypes, plus one above every foreign fn
/// whose signature carries raw pointers (the pointer contract call sites
/// rely on). `extern crate`, `extern "C" fn` definitions, and
/// `extern "C" fn(..)` pointer types open no foreign block and are
/// skipped.
fn check_extern_block(
    toks: &[Tok],
    i: usize,
    lexed: &Lexed,
    emit: &mut impl FnMut(&'static str, &Tok, String),
) {
    let t = &toks[i];
    let mut j = i + 1;
    if toks.get(j).is_some_and(|n| n.kind == TokKind::Str) {
        j += 1; // the optional ABI string, `extern "C"`
    }
    if !toks.get(j).is_some_and(|n| n.is_punct('{')) {
        return; // not a foreign block
    }
    if !has_safety_comment(lexed, t) {
        emit(
            "ffi-safety-comment",
            t,
            "foreign `extern` block without a `// SAFETY:` comment — the compiler checks \
             nothing against the C side; state where each prototype was verified"
                .to_owned(),
        );
    }
    let mut depth = 0usize;
    while j < toks.len() {
        let tk = &toks[j];
        match tk.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Ident if tk.text == "fn" && depth == 1 => {
                let Some(name) = toks.get(j + 1).filter(|n| n.kind == TokKind::Ident) else {
                    j += 1;
                    continue;
                };
                // Foreign fns have no body: the signature runs to `;`.
                let mut k = j + 2;
                let mut raw_ptr = false;
                while k < toks.len() && !toks[k].is_punct(';') {
                    if toks[k].is_punct('*') {
                        raw_ptr = true;
                    }
                    k += 1;
                }
                if raw_ptr && !has_safety_comment(lexed, tk) {
                    emit(
                        "ffi-safety-comment",
                        name,
                        format!(
                            "foreign fn `{}` passes raw pointers without a `// SAFETY:` comment \
                             above it — state the pointer contract call sites rely on (validity, \
                             length, ownership)",
                            name.text
                        ),
                    );
                }
                j = k;
                continue;
            }
            _ => {}
        }
        j += 1;
    }
}

const INTERIOR_MUT_TYPES: &[&str] = &["Cell", "RefCell", "UnsafeCell", "Mutex", "RwLock"];

/// Scan the body of the type definition whose `struct`/`enum`/`union`
/// keyword is at `i` for interior-mutable field types. Returns the first
/// one found.
fn body_interior_mut(toks: &[Tok], i: usize) -> Option<String> {
    // Find the body opener: first `{` or `(` before a terminating `;`.
    let mut j = i + 1;
    let mut angle = 0i32;
    let open = loop {
        let t = toks.get(j)?;
        match t.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if !(j >= 1 && toks[j - 1].is_punct('-')) => angle -= 1,
            TokKind::Punct('{') | TokKind::Punct('(') if angle <= 0 => break j,
            TokKind::Punct(';') if angle <= 0 => return None, // unit struct
            _ => {}
        }
        j += 1;
    };
    let close_ch = if toks[open].is_punct('{') { '}' } else { ')' };
    let open_ch = if close_ch == '}' { '{' } else { '(' };
    let mut depth = 0i32;
    let mut k = open;
    while let Some(t) = toks.get(k) {
        if t.is_punct(open_ch) {
            depth += 1;
        } else if t.is_punct(close_ch) {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident
            && (INTERIOR_MUT_TYPES.contains(&t.text.as_str())
                || (t.text.starts_with("Atomic") && t.text.len() > 6))
        {
            return Some(t.text.clone());
        }
        k += 1;
    }
    None
}

/// For `size_of :: < T >` at index `i`, return `T`.
fn generic_arg_ident(toks: &[Tok], i: usize) -> Option<String> {
    let mut j = i + 1;
    if toks.get(j)?.is_punct(':') && toks.get(j + 1)?.is_punct(':') {
        j += 2;
    }
    if !toks.get(j)?.is_punct('<') {
        return None;
    }
    let t = toks.get(j + 1)?;
    (t.kind == TokKind::Ident).then(|| t.text.clone())
}
