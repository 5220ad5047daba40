//! Whole-program concurrency-safety analysis.
//!
//! Two interprocedural passes over the HIR + call graph, run from
//! [`crate::dataflow::analyze`]:
//!
//! * **atomics-ordering dataflow** (rule `atomic-ordering`) — every
//!   atomic operation is classified by kind (store / load / RMW) and
//!   `Ordering`. A store that reaches a `// pmlint: publish(<label>)`
//!   site must be release-capable (`Release`/`AcqRel`/`SeqCst`), and the
//!   matching `// pmlint: observe(<label>)` loads must be
//!   acquire-capable: `Relaxed` publication compiles and passes
//!   single-thread tests but lets a concurrent reader observe the
//!   publish word before the payload stores. Labels whose
//!   [`ProtocolSpec`](../../nvm) declares a release ordering on the
//!   publish step (`AnalysisCtx::released_labels`) additionally reject
//!   *plain* stores/loads (`write_pod`/`read_pod`) at annotated sites —
//!   the spec demands genuine atomic publication. The analysis follows
//!   calls interprocedurally but stops at the `nvm` substrate crate
//!   boundary: the region publication primitives
//!   (`store_u64_release`/`load_u64_acquire`) carry their ordering in
//!   the name, and the simulator's internal `Relaxed` stat counters are
//!   not publication.
//! * **lock discipline** (rules `lock-held-persist`, `guard-escape`,
//!   `lock-cycle`) — `let`-bound guards from zero-arg
//!   `.lock()`/`.read()`/`.write()` acquisitions are tracked through
//!   their lexical scope (brace depth, explicit `drop`, rebinding).
//!   Persist fences executed (or reached transitively) while a guard is
//!   live are flagged unless the fn is annotated
//!   `// pmlint: lock-held-persist(<reason>)`; guards returned from the
//!   owning fn are flagged (`guard-escape`); inconsistent pairwise
//!   acquisition order across the program and same-lock re-acquisition
//!   are flagged (`lock-cycle`).
//!
//! Approximations, documented in DESIGN.md: lock identity is the field
//! name before the acquisition call (`self.images.write()` → `images`);
//! chained momentary guards (`self.alloc.lock().free(..)`) are treated
//! as point acquisitions, not held scopes; read-read reentrance on an
//! `RwLock` is legal and excluded from the self-cycle check.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{
    fixpoint, fn_disp, intrinsic, lock_kind, CallGraph, Chain, Effect, LockKind, Site, Summary,
};
use crate::dataflow::AnalysisCtx;
use crate::hir::{CallEvent, Event, HirFn, HirProgram};
use crate::lexer::TokKind;
use crate::rules::Finding;

/// Rule: publication/observation with insufficient atomic ordering.
pub const RULE_ATOMIC_ORDERING: &str = "atomic-ordering";
/// Rule: persist fence while holding a lock, without a contract.
pub const RULE_LOCK_HELD_PERSIST: &str = "lock-held-persist";
/// Rule: lock guard escapes the function that acquired it.
pub const RULE_GUARD_ESCAPE: &str = "guard-escape";
/// Rule: inconsistent lock acquisition order / self re-acquisition.
pub const RULE_LOCK_CYCLE: &str = "lock-cycle";

const MAX_OPS: usize = 64;

// ---------------------------------------------------------------------
// Atomics-ordering dataflow
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtomKind {
    Store,
    Load,
    Rmw,
}

/// A call site classified as an atomic operation.
#[derive(Debug, Clone)]
struct AtomicOp {
    kind: AtomKind,
    /// Release-capable ordering (`Release`/`AcqRel`/`SeqCst`) visible.
    release: bool,
    /// Acquire-capable ordering (`Acquire`/`AcqRel`/`SeqCst`) visible.
    acquire: bool,
    /// An `Ordering` variant was syntactically visible (or the primitive
    /// carries its ordering in the name). When false the ordering flows
    /// through a variable and the analysis stays quiet.
    known: bool,
    /// Ordering text for messages.
    disp: String,
}

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Collect `Ordering` variant idents appearing in the call's argument
/// spans. Matching the variant ident (not the full path) makes
/// use-imported (`Relaxed`), fully-qualified
/// (`std::sync::atomic::Ordering::Relaxed`) and type-aliased
/// (`O::Relaxed`) spellings all classify identically.
fn ordering_tokens(f: &HirFn, call: &CallEvent) -> Vec<String> {
    let mut out = Vec::new();
    for &(s, e) in &call.args {
        for t in &f.tokens[s..e] {
            if t.kind == TokKind::Ident && ORDERINGS.contains(&t.text.as_str()) {
                out.push(t.text.clone());
            }
        }
    }
    out
}

/// Classify a call as an atomic operation, or `None`. `effect` is the
/// call's intrinsic effect, if it has one.
fn classify_atomic(f: &HirFn, call: &CallEvent, effect: Option<Effect>) -> Option<AtomicOp> {
    // Region publication primitives: the ordering is in the name.
    let named = |kind, release: bool, disp: &str| {
        let (acquire, known, disp) = (!release, true, disp.to_owned());
        Some(AtomicOp {
            kind,
            release,
            acquire,
            known,
            disp,
        })
    };
    match effect {
        Some(Effect::ReleaseStore) => return named(AtomKind::Store, true, "Release"),
        Some(Effect::AcquireLoad) => return named(AtomKind::Load, false, "Acquire"),
        _ => {}
    }
    // Qualified calls are only atomic when the path names an atomic type
    // (`AtomicU64::store(..)`); `ptr::write` etc. never are.
    if let Some(q) = call.qualifiers.last() {
        if !q.starts_with("Atomic") {
            return None;
        }
    }
    let ords = ordering_tokens(f, call);
    let has_ord = !ords.is_empty();
    let release = ords
        .iter()
        .any(|o| o == "Release" || o == "AcqRel" || o == "SeqCst");
    let acquire = ords
        .iter()
        .any(|o| o == "Acquire" || o == "AcqRel" || o == "SeqCst");
    let disp = if has_ord {
        ords.join("+")
    } else {
        "unknown".to_owned()
    };
    let n = call.args.len();
    let op = |kind, known| {
        Some(AtomicOp {
            kind,
            release,
            acquire,
            known,
            disp: disp.clone(),
        })
    };
    match call.name.as_str() {
        // `store`/`load`/`swap` collide with non-atomic APIs
        // (`PVar::store`, `Vec::swap`): classify only when an `Ordering`
        // variant is syntactically present.
        "store" if n >= 2 && has_ord => op(AtomKind::Store, true),
        "load" if n >= 1 && has_ord => op(AtomKind::Load, true),
        "swap" if n >= 2 && has_ord => op(AtomKind::Rmw, true),
        "compare_exchange" | "compare_exchange_weak" if n >= 4 && has_ord => {
            op(AtomKind::Rmw, true)
        }
        name if name.starts_with("fetch_") && n == 2 => op(AtomKind::Rmw, has_ord),
        _ => None,
    }
}

/// One atomic / plain memory op visible from a fn, with the call chain
/// that reaches it.
#[derive(Debug, Clone)]
struct OpSite {
    site: Site,
    release: bool,
    acquire: bool,
    known: bool,
    disp: String,
    chain: Chain,
}

#[derive(Debug, Clone, Default)]
struct AtomSummary {
    /// Atomic stores and RMWs reachable from the fn.
    stores: Vec<OpSite>,
    /// Atomic loads and RMWs reachable from the fn.
    loads: Vec<OpSite>,
    /// Plain NVM data stores (`write_pod` family) reachable.
    plain_stores: Vec<OpSite>,
    /// Plain NVM reads (`read_pod` family) reachable.
    plain_loads: Vec<OpSite>,
}

type OpFact = (String, u32, u32, bool, bool, bool);

impl Summary for AtomSummary {
    type Facts = [Vec<OpFact>; 4];
    fn facts(&self) -> Self::Facts {
        let facts = |ops: &[OpSite]| {
            let mut v: Vec<OpFact> = ops
                .iter()
                .map(|o| {
                    let s = &o.site;
                    (s.file.clone(), s.line, s.col, o.release, o.acquire, o.known)
                })
                .collect();
            v.sort();
            v
        };
        [
            facts(&self.stores),
            facts(&self.plain_stores),
            facts(&self.loads),
            facts(&self.plain_loads),
        ]
    }
}

/// One pass of the atomics summary for `f`.
fn walk_atomics(
    prog: &HirProgram,
    graph: &CallGraph,
    f: &HirFn,
    summaries: &[AtomSummary],
) -> AtomSummary {
    let mut out = AtomSummary::default();
    for ev in &f.events {
        let Event::Call(call) = ev else { continue };
        let effect = intrinsic(f, call).map(|i| i.effect);
        if let Some(Effect::Lock(_)) = effect {
            continue; // lock acquisition: opaque to the atomics pass
        }
        let mk = |what: &str, op: Option<&AtomicOp>| OpSite {
            site: Site::of(
                f,
                call.line,
                call.col,
                format!("`{what}` in `{}`", fn_disp(f)),
            ),
            release: op.map(|o| o.release).unwrap_or(false),
            acquire: op.map(|o| o.acquire).unwrap_or(false),
            known: op.map(|o| o.known).unwrap_or(true),
            disp: op.map(|o| o.disp.clone()).unwrap_or_default(),
            chain: Chain::default(),
        };
        if let Some(op) = classify_atomic(f, call, effect) {
            let site = mk(&call.name, Some(&op));
            match op.kind {
                AtomKind::Store => out.stores.push(site),
                AtomKind::Load => out.loads.push(site),
                AtomKind::Rmw => {
                    out.stores.push(site.clone());
                    out.loads.push(site);
                }
            }
            continue;
        }
        match effect {
            Some(Effect::Store | Effect::DurableStore) => {
                out.plain_stores.push(mk(&call.name, None));
                continue;
            }
            Some(Effect::PlainLoad) => {
                out.plain_loads.push(mk(&call.name, None));
                continue;
            }
            // flush/fence/persist: no data word written
            Some(Effect::Flush | Effect::Fence | Effect::Persist) => continue,
            _ => {}
        }
        let frame = Site::frame(f, call);
        for &id in &graph.resolve(prog, f, call) {
            // Substrate boundary: the nvm crate's internals (simulator
            // bookkeeping, Relaxed stat counters) are not publication.
            if prog.fns[id].krate == "nvm" && f.krate != "nvm" {
                continue;
            }
            let s = &summaries[id];
            let lists = [
                (&mut out.stores, &s.stores),
                (&mut out.loads, &s.loads),
                (&mut out.plain_stores, &s.plain_stores),
                (&mut out.plain_loads, &s.plain_loads),
            ];
            for (into, from) in lists {
                let had = into.len();
                for op in from {
                    if into.len() >= MAX_OPS || into[..had].iter().any(|o| o.site.at(&op.site)) {
                        continue;
                    }
                    if let Some(chain) = op.chain.via(&frame) {
                        into.push(OpSite {
                            chain,
                            ..op.clone()
                        });
                    }
                }
            }
        }
    }
    out
}

/// Check one annotated publish/observe site — `(call, label, is_publish,
/// released)` — against the converged atomic summaries.
fn check_annotated_site(
    prog: &HirProgram,
    graph: &CallGraph,
    f: &HirFn,
    summaries: &[AtomSummary],
    (call, label, is_publish, released): (&CallEvent, &str, bool, bool),
    findings: &mut Vec<Finding>,
) {
    let side = if is_publish { "publish" } else { "observe" };
    let need = if is_publish {
        "release (Release/AcqRel/SeqCst)"
    } else {
        "acquire (Acquire/AcqRel/SeqCst)"
    };
    let why = if is_publish {
        "a concurrent reader's acquire load may otherwise see the publish word before the payload stores"
    } else {
        "without acquire the payload stores published before the word may not be visible to this thread"
    };
    let anchor = Site::of(
        f,
        call.line,
        call.col,
        format!("{side} `{label}` in `{}`", fn_disp(f)),
    );
    let push = |findings: &mut Vec<Finding>, msg: String| {
        findings.push(Finding::new(
            RULE_ATOMIC_ORDERING,
            &f.file,
            call.line,
            call.col,
            msg,
        ));
    };
    let effect = intrinsic(f, call).map(|i| i.effect);
    if let Some(op) = classify_atomic(f, call, effect) {
        let ok = match (is_publish, op.kind) {
            (true, AtomKind::Load) | (false, AtomKind::Store) => false, // side mismatch
            (true, _) => !op.known || op.release,
            (false, _) => !op.known || op.acquire,
        };
        if !ok {
            push(
                findings,
                format!(
                    "{side} `{label}` uses atomic `{}` with ordering {}; {side} requires {need} — {why}",
                    call.name, op.disp,
                ),
            );
        }
        return;
    }
    let plain = if is_publish {
        matches!(effect, Some(Effect::Store | Effect::DurableStore))
    } else {
        effect == Some(Effect::PlainLoad)
    };
    if plain {
        if released {
            let (prim, alt) = if is_publish {
                ("store_u64_release", "plain store")
            } else {
                ("load_u64_acquire", "plain read")
            };
            push(
                findings,
                format!(
                    "{side} `{label}` uses a {alt} (`{}`), but its ProtocolSpec declares release publication; use `NvmRegion::{prim}` — {why}",
                    call.name,
                ),
            );
        }
        return;
    }
    // Helper call: judge the ops the callee makes reachable.
    let mut hit: Vec<String> = Vec::new();
    for &id in &graph.resolve(prog, f, call) {
        if prog.fns[id].krate == "nvm" && f.krate != "nvm" {
            continue; // opaque substrate call (e.g. heap.activate)
        }
        let s = &summaries[id];
        let (atomics, plains) = if is_publish {
            (&s.stores, &s.plain_stores)
        } else {
            (&s.loads, &s.plain_loads)
        };
        for op in atomics {
            let ok = if is_publish { op.release } else { op.acquire };
            if op.known && !ok {
                let path = op.chain.path(op.site.brief(), &anchor);
                hit.push(format!("atomic op with ordering {}; path: {path}", op.disp));
            }
        }
        if released {
            for op in plains {
                let path = op.chain.path(op.site.brief(), &anchor);
                hit.push(format!("plain NVM access; path: {path}"));
            }
        }
    }
    hit.sort();
    hit.dedup();
    for h in hit {
        push(
            findings,
            format!("{side} `{label}` reaches {h}; {side} requires {need} — {why}"),
        );
    }
}

// ---------------------------------------------------------------------
// Lock discipline
// ---------------------------------------------------------------------

/// Parse a `let` initializer span as a guard acquisition: the expression
/// must *end* in a zero-arg `.lock()`/`.read()`/`.write()` (with optional
/// trailing `?` / `.unwrap()`), so `self.images.write()` binds a guard
/// but `self.alloc.lock().free(..)` (momentary) does not.
fn guard_init(f: &HirFn, span: (usize, usize)) -> Option<(String, LockKind)> {
    let toks = &f.tokens[span.0..span.1];
    let mut e = toks.len();
    while e > 0 && toks[e - 1].is_punct('?') {
        e -= 1;
    }
    if e >= 4
        && toks[e - 1].is_punct(')')
        && toks[e - 2].is_punct('(')
        && toks[e - 3].is_ident("unwrap")
        && toks[e - 4].is_punct('.')
    {
        e -= 4;
    }
    let shape = e >= 5
        && toks[e - 1].is_punct(')')
        && toks[e - 2].is_punct('(')
        && toks[e - 3].kind == TokKind::Ident
        && toks[e - 4].is_punct('.')
        && toks[e - 5].kind == TokKind::Ident;
    let kind = lock_kind(&toks[e.checked_sub(3)?].text).filter(|_| shape)?;
    Some((toks[e - 5].text.clone(), kind))
}

/// A live lock guard within one fn body.
#[derive(Debug, Clone)]
struct Guard {
    vars: Vec<String>,
    lock: String,
    kind: LockKind,
    born_tok: usize,
    born_depth: i32,
    born_line: u32,
    killed_tok: Option<usize>,
}

/// Brace depth before each token (parens/brackets ignored: guards live
/// in statement scopes).
fn depths(f: &HirFn) -> Vec<i32> {
    let mut out = Vec::with_capacity(f.tokens.len() + 1);
    let mut d = 0i32;
    for t in &f.tokens {
        out.push(d);
        match t.kind {
            TokKind::Punct('{') => d += 1,
            TokKind::Punct('}') => d -= 1,
            _ => {}
        }
    }
    out.push(d);
    out
}

impl Guard {
    /// Live at token `idx`: born earlier, not dropped/rebound, and the
    /// brace depth never fell below the birth depth in between (the
    /// guard's block is still open).
    fn live_at(&self, depth: &[i32], idx: usize) -> bool {
        if idx <= self.born_tok || self.killed_tok.is_some_and(|k| k <= idx) {
            return false;
        }
        let hi = idx.min(depth.len() - 1);
        depth[self.born_tok..=hi]
            .iter()
            .all(|&d| d >= self.born_depth)
    }
}

/// Can a fence be attributed *through* this call? Direct intrinsics
/// (`persist`/`flush`/`fence`) count on any receiver, but transitive
/// attribution via the name-based call graph is restricted to free
/// calls and `self.` methods: `map.is_empty()` resolving to some
/// engine type's fencing `is_empty` is a phantom edge.
fn fence_resolvable(call: &CallEvent) -> bool {
    match call.recv.as_deref() {
        None => true,
        Some("self") => true,
        Some(_) => false,
    }
}

/// Transitive "executes a persist flush/fence" per fn, for the
/// fence-under-lock check. Atomic ops and lock acquisitions are opaque
/// (an atomic `store(.., Release)` must not resolve to `PVar::store`).
fn compute_does_fence(prog: &HirProgram, graph: &CallGraph) -> Vec<bool> {
    fixpoint(prog, |f, df: &[bool]| {
        df[f.id]
            || f.events.iter().any(|ev| {
                let Event::Call(call) = ev else { return false };
                let effect = intrinsic(f, call).map(|i| i.effect);
                if matches!(effect, Some(Effect::Lock(_)))
                    || classify_atomic(f, call, effect).is_some()
                {
                    return false;
                }
                match effect {
                    Some(
                        Effect::Flush | Effect::Fence | Effect::Persist | Effect::DurableStore,
                    ) => true,
                    Some(Effect::Store) => false,
                    _ => {
                        fence_resolvable(call)
                            && graph.resolve(prog, f, call).iter().any(|&id| df[id])
                    }
                }
            })
    })
}

/// Lock-discipline walk of one fn: fence-under-lock, guard escape,
/// double acquisition, and the fn's contribution to the global
/// acquisition-order pairs.
fn walk_locks(
    prog: &HirProgram,
    graph: &CallGraph,
    f: &HirFn,
    does_fence: &[bool],
    pairs: &mut BTreeMap<(String, String), Site>,
    findings: &mut Vec<Finding>,
) {
    let depth = depths(f);
    let mut guards: Vec<Guard> = Vec::new();
    for ev in &f.events {
        match ev {
            Event::Let(l) => {
                // Rebinding a guard variable drops the old guard.
                for g in guards.iter_mut() {
                    if g.killed_tok.is_none() && g.vars.iter().any(|v| l.names.contains(v)) {
                        g.killed_tok = Some(l.expr.1);
                    }
                }
                if let Some((lock, kind)) = guard_init(f, l.expr) {
                    let born_tok = l.expr.1.min(f.tokens.len().saturating_sub(1));
                    guards.push(Guard {
                        vars: l.names.clone(),
                        lock,
                        kind,
                        born_tok,
                        born_depth: depth[born_tok],
                        born_line: f
                            .tokens
                            .get(born_tok)
                            .map(|t| t.line)
                            .unwrap_or(l.expr.1 as u32),
                        killed_tok: None,
                    });
                }
            }
            Event::Call(call) => {
                let idx = call.tok_idx;
                let effect = intrinsic(f, call).map(|i| i.effect);
                let live: Vec<usize> = guards
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.live_at(&depth, idx))
                    .map(|(i, _)| i)
                    .collect();
                // Explicit drop kills the guard.
                if call.name == "drop" && call.qualifiers.is_empty() && call.args.len() == 1 {
                    let (s, e) = call.args[0];
                    for g in guards.iter_mut() {
                        if g.killed_tok.is_none()
                            && f.tokens[s..e]
                                .iter()
                                .any(|t| t.kind == TokKind::Ident && g.vars.contains(&t.text))
                        {
                            g.killed_tok = Some(idx);
                        }
                    }
                    continue;
                }
                // Acquisition-order facts come from *direct* acquisition
                // sites only: the name-based call graph is too coarse to
                // propagate lock sets through callees without phantom
                // pairs (a documented approximation — see DESIGN.md).
                if let (Some(Effect::Lock(kind)), Some(lock)) = (effect, &call.recv) {
                    for &gi in &live {
                        let g = &guards[gi];
                        if g.lock == *lock {
                            // Read-read reentrance on an RwLock is legal.
                            if kind == LockKind::Read && g.kind == LockKind::Read {
                                continue;
                            }
                            let msg = format!(
                                "lock `{lock}` acquired in `{}` while already held since line {}; std locks are not reentrant — this self-deadlocks",
                                fn_disp(f),
                                g.born_line,
                            );
                            findings.push(Finding::new(
                                RULE_LOCK_CYCLE,
                                &f.file,
                                call.line,
                                call.col,
                                msg,
                            ));
                        } else {
                            pairs
                                .entry((g.lock.clone(), lock.clone()))
                                .or_insert_with(|| {
                                    Site::of(
                                        f,
                                        call.line,
                                        call.col,
                                        format!(
                                            "`{}` (held since line {}) then `{lock}` in `{}`",
                                            g.lock,
                                            g.born_line,
                                            fn_disp(f)
                                        ),
                                    )
                                });
                        }
                    }
                    continue;
                }
                // Persist fences while a guard is live.
                if live.is_empty() || f.lock_held_persist {
                    continue;
                }
                let fence_what: Option<String> = match effect {
                    Some(
                        Effect::Flush | Effect::Fence | Effect::Persist | Effect::DurableStore,
                    ) => Some(format!("`{}`", call.name)),
                    Some(Effect::Store) => None,
                    _ if classify_atomic(f, call, effect).is_some() || !fence_resolvable(call) => {
                        None
                    }
                    _ => graph
                        .resolve(prog, f, call)
                        .iter()
                        .find(|&&id| does_fence[id])
                        .map(|&id| {
                            format!(
                                "call to `{}` (fences inside `{}`)",
                                call.name,
                                fn_disp(&prog.fns[id])
                            )
                        }),
                };
                if let Some(what) = fence_what {
                    let g = &guards[live[0]];
                    let msg = format!(
                        "persist fence {what} in `{}` while holding lock `{}` (acquired line {}); persist latency under a lock stalls every contending thread — drop the guard first, or annotate the fn `// pmlint: lock-held-persist(<reason>)` if the protocol requires it",
                        fn_disp(f),
                        g.lock,
                        g.born_line,
                    );
                    findings.push(Finding::new(
                        RULE_LOCK_HELD_PERSIST,
                        &f.file,
                        call.line,
                        call.col,
                        msg,
                    ));
                }
            }
            Event::Return((s, e)) => {
                let (s, e) = (*s, *e);
                for g in guards.iter().filter(|g| g.live_at(&depth, s.max(1))) {
                    for (k, t) in f.tokens[s..e].iter().enumerate() {
                        let gi = s + k;
                        if t.kind != TokKind::Ident || !g.vars.contains(&t.text) {
                            continue;
                        }
                        // `g.field` / `g[i]` uses a value *through* the
                        // guard; a bare `g` moves the guard out.
                        let next_use = f
                            .tokens
                            .get(gi + 1)
                            .is_some_and(|n| n.is_punct('.') || n.is_punct('['));
                        let field = gi > 0 && f.tokens[gi - 1].is_punct('.');
                        if next_use || field {
                            continue;
                        }
                        let msg = format!(
                            "guard `{}` for lock `{}` escapes `{}` by return; the lock stays held for as long as the caller keeps the value — extract the data and drop the guard instead",
                            t.text,
                            g.lock,
                            fn_disp(f),
                        );
                        findings.push(Finding::new(RULE_GUARD_ESCAPE, &f.file, t.line, t.col, msg));
                        break;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// Run the concurrency passes, appending to `findings` (the caller
/// sorts + dedupes).
pub(crate) fn analyze(
    prog: &HirProgram,
    graph: &CallGraph,
    ctx: &AnalysisCtx,
    findings: &mut Vec<Finding>,
) {
    let asums = fixpoint(prog, |f, sums| walk_atomics(prog, graph, f, sums));
    let released: BTreeSet<&str> = ctx.released_labels.iter().map(|s| s.as_str()).collect();
    for f in &prog.fns {
        for ev in &f.events {
            let Event::Call(call) = ev else { continue };
            let sides = [(true, &call.publish_label), (false, &call.observe_label)];
            for (is_publish, label) in sides {
                if let Some(label) = label {
                    let released = released.contains(label.as_str());
                    let site = (call, label.as_str(), is_publish, released);
                    check_annotated_site(prog, graph, f, &asums, site, findings);
                }
            }
        }
    }

    // Lock discipline.
    let does_fence = compute_does_fence(prog, graph);
    let mut pairs: BTreeMap<(String, String), Site> = BTreeMap::new();
    for f in &prog.fns {
        walk_locks(prog, graph, f, &does_fence, &mut pairs, findings);
    }
    // Inconsistent pairwise order across the program: A→B here, B→A
    // elsewhere. Reported once per pair, anchored at the lexically
    // smaller direction.
    for ((a, b), site) in &pairs {
        if a < b {
            if let Some(rev) = pairs.get(&(b.clone(), a.clone())) {
                let msg = format!(
                    "inconsistent lock order: {} but {} — a concurrent interleaving deadlocks; pick one order",
                    site.brief(),
                    rev.brief(),
                );
                findings.push(Finding::new(
                    RULE_LOCK_CYCLE,
                    &site.file,
                    site.line,
                    site.col,
                    msg,
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::analyze as run_analyze;
    use crate::hir::build_program;

    fn run(src: &str, labels: &[&str], released: &[&str]) -> Vec<Finding> {
        let prog = build_program(&[("crates/x/src/lib.rs".to_owned(), src.to_owned())]);
        run_analyze(&prog, &AnalysisCtx::bare_with_released(labels, released))
    }

    fn rules(f: &[Finding]) -> Vec<&str> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn relaxed_publish_is_flagged() {
        let f = run(
            "fn publish(a: &AtomicU64) {\n\
             // pmlint: publish(seq)\n\
             a.store(1, Ordering::Relaxed);\n\
             }",
            &["seq"],
            &["seq"],
        );
        assert!(rules(&f).contains(&RULE_ATOMIC_ORDERING), "{f:?}");
        assert!(f[0].msg.contains("Relaxed"), "{}", f[0].msg);
    }

    #[test]
    fn release_publish_and_acquire_observe_are_clean() {
        let f = run(
            "fn publish(a: &AtomicU64) {\n\
             // pmlint: publish(seq)\n\
             a.store(1, Ordering::Release);\n\
             }\n\
             fn observe(a: &AtomicU64) -> u64 {\n\
             // pmlint: observe(seq)\n\
             a.load(Ordering::Acquire)\n\
             }",
            &["seq"],
            &["seq"],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn fully_qualified_and_aliased_orderings_classify() {
        // `std::sync::atomic::Ordering::Relaxed` and a type-aliased
        // `O::Relaxed` both carry the variant ident.
        let f = run(
            "fn p1(a: &AtomicU64) {\n\
             // pmlint: publish(seq)\n\
             a.store(1, std::sync::atomic::Ordering::Relaxed);\n\
             }\n\
             fn p2(a: &AtomicU64) {\n\
             // pmlint: publish(seq)\n\
             a.store(1, O::Relaxed);\n\
             }",
            &["seq"],
            &["seq"],
        );
        assert_eq!(
            rules(&f),
            vec![RULE_ATOMIC_ORDERING, RULE_ATOMIC_ORDERING],
            "{f:?}"
        );
    }

    #[test]
    fn relaxed_rmw_publish_is_flagged() {
        let f = run(
            "fn publish(a: &AtomicU64) {\n\
             // pmlint: publish(seq)\n\
             a.fetch_add(1, Ordering::Relaxed);\n\
             }",
            &["seq"],
            &["seq"],
        );
        assert!(rules(&f).contains(&RULE_ATOMIC_ORDERING), "{f:?}");
    }

    #[test]
    fn plain_store_publish_of_released_label_is_flagged() {
        let f = run(
            "fn publish(region: &R) {\n\
             // pmlint: publish(seq)\n\
             region.write_pod(0, &1u64);\n\
             region.persist(0, 8);\n\
             }",
            &["seq"],
            &["seq"],
        );
        assert!(rules(&f).contains(&RULE_ATOMIC_ORDERING), "{f:?}");
        assert!(f[0].msg.contains("store_u64_release"), "{}", f[0].msg);
    }

    #[test]
    fn plain_store_publish_of_unordered_label_is_clean() {
        // Label without a release annotation in its spec: plain durable
        // publication is the crash-consistency-only contract.
        let f = run(
            "fn publish(region: &R) {\n\
             // pmlint: publish(root)\n\
             region.write_pod(0, &1u64);\n\
             region.persist(0, 8);\n\
             }",
            &["root"],
            &[],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn relaxed_store_through_helper_is_flagged_with_path() {
        let f = run(
            "fn bump(a: &AtomicU64) { a.store(1, Ordering::Relaxed); }\n\
             fn publish(a: &AtomicU64, region: &R) {\n\
             // pmlint: publish(seq)\n\
             bump(a);\n\
             }",
            &["seq"],
            &["seq"],
        );
        let hit = f
            .iter()
            .find(|x| x.rule == RULE_ATOMIC_ORDERING)
            .expect("interprocedural relaxed publish");
        assert!(hit.msg.contains("bump"), "path names helper: {}", hit.msg);
    }

    #[test]
    fn relaxed_observe_is_flagged() {
        let f = run(
            "fn observe(a: &AtomicU64) -> u64 {\n\
             // pmlint: observe(seq)\n\
             a.load(Ordering::Relaxed)\n\
             }",
            &["seq"],
            &["seq"],
        );
        assert!(rules(&f).contains(&RULE_ATOMIC_ORDERING), "{f:?}");
    }

    #[test]
    fn unknown_observe_label_is_publish_binding() {
        let f = run(
            "fn observe(a: &AtomicU64) -> u64 {\n\
             // pmlint: observe(nope)\n\
             a.load(Ordering::Acquire)\n\
             }",
            &["seq"],
            &["seq"],
        );
        assert!(
            rules(&f).contains(&crate::dataflow::RULE_PUBLISH_BINDING),
            "{f:?}"
        );
    }

    #[test]
    fn fence_under_lock_is_flagged() {
        let f = run(
            "fn commit(&self, region: &R) {\n\
             let g = self.state.lock();\n\
             region.write_pod(0, &1u64);\n\
             region.persist(0, 8);\n\
             }",
            &[],
            &[],
        );
        assert!(rules(&f).contains(&RULE_LOCK_HELD_PERSIST), "{f:?}");
    }

    #[test]
    fn drop_before_persist_is_clean() {
        let f = run(
            "fn commit(&self, region: &R) {\n\
             let g = self.state.lock();\n\
             region.write_pod(0, &1u64);\n\
             drop(g);\n\
             region.persist(0, 8);\n\
             }",
            &[],
            &[],
        );
        assert!(
            !rules(&f).contains(&RULE_LOCK_HELD_PERSIST),
            "guard dropped before the fence: {f:?}"
        );
    }

    #[test]
    fn scope_exit_ends_guard() {
        let f = run(
            "fn commit(&self, region: &R) {\n\
             { let g = self.state.lock(); region.write_pod(0, &1u64); }\n\
             region.persist(0, 8);\n\
             }",
            &[],
            &[],
        );
        assert!(!rules(&f).contains(&RULE_LOCK_HELD_PERSIST), "{f:?}");
    }

    #[test]
    fn annotated_lock_held_persist_is_exempt() {
        let f = run(
            "// pmlint: lock-held-persist(allocation protocol)\n\
             fn commit(&self, region: &R) {\n\
             let g = self.state.lock();\n\
             region.persist(0, 8);\n\
             }",
            &[],
            &[],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn interprocedural_fence_under_lock() {
        let f = run(
            "fn persist_dirty(region: &R) { region.persist(0, 8); }\n\
             fn commit(&self, region: &R) {\n\
             let g = self.state.lock();\n\
             persist_dirty(region);\n\
             }",
            &[],
            &[],
        );
        let hit = f
            .iter()
            .find(|x| x.rule == RULE_LOCK_HELD_PERSIST)
            .expect("transitive fence under lock");
        assert!(hit.msg.contains("persist_dirty"), "{}", hit.msg);
    }

    #[test]
    fn guard_escape_by_return() {
        let f = run(
            "fn take(&self) -> Guard {\n\
             let g = self.state.lock();\n\
             g\n\
             }",
            &[],
            &[],
        );
        assert!(rules(&f).contains(&RULE_GUARD_ESCAPE), "{f:?}");
    }

    #[test]
    fn value_extracted_through_guard_is_clean() {
        let f = run(
            "fn peek(&self) -> u64 {\n\
             let g = self.state.lock();\n\
             g.value\n\
             }",
            &[],
            &[],
        );
        assert!(!rules(&f).contains(&RULE_GUARD_ESCAPE), "{f:?}");
    }

    #[test]
    fn double_lock_is_flagged() {
        let f = run(
            "fn oops(&self) {\n\
             let a = self.state.lock();\n\
             let b = self.state.lock();\n\
             }",
            &[],
            &[],
        );
        assert!(rules(&f).contains(&RULE_LOCK_CYCLE), "{f:?}");
    }

    #[test]
    fn read_read_reentrance_is_legal() {
        let f = run(
            "fn fine(&self) {\n\
             let a = self.state.read();\n\
             let b = self.state.read();\n\
             }",
            &[],
            &[],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cross_fn_lock_order_cycle() {
        let f = run(
            "fn ab(&self) { let a = self.left.lock(); let b = self.right.lock(); }\n\
             fn ba(&self) { let b = self.right.lock(); let a = self.left.lock(); }",
            &[],
            &[],
        );
        let hits: Vec<_> = f.iter().filter(|x| x.rule == RULE_LOCK_CYCLE).collect();
        assert_eq!(hits.len(), 1, "one finding per cycle pair: {f:?}");
        assert!(hits[0].msg.contains("inconsistent lock order"));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let f = run(
            "fn ab(&self) { let a = self.left.lock(); let b = self.right.lock(); }\n\
             fn ab2(&self) { let a = self.left.lock(); let b = self.right.lock(); }",
            &[],
            &[],
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
