//! What a call site reaches, shared by every interprocedural pass: an NVM
//! intrinsic from the one [`INTRINSICS`] table, or workspace fns by
//! name-based resolution over the [`CallGraph`] — plus the one [`fixpoint`]
//! driver the passes run their per-fn summaries through, and the call-chain
//! [`Site`]s their diagnostics print.
//!
//! Resolution is name-based with two precision hints: a path qualifier
//! (`NvTable::open` only matches fns inside `impl NvTable`) and, for
//! `self.method(..)` calls, a preference for candidates in the caller's
//! own impl block / file. Where several candidates survive, the analyses
//! take the union of their summaries (sound for our purposes: a store
//! that *might* escape unflushed is reported).

use std::collections::HashMap;

use crate::hir::{CallEvent, Event, HirFn, HirProgram};
use crate::lexer::TokKind;

// ---------------------------------------------------------------------
// The intrinsic table
// ---------------------------------------------------------------------

/// What an intrinsic call does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Effect {
    /// Writes without persisting (the caller must flush + fence).
    Store,
    /// Writes and persists internally (implies a fence).
    DurableStore,
    /// A cache-line write-back: pending stores go in flight.
    Flush,
    /// A store fence: in-flight stores become durable.
    Fence,
    /// Flush + fence.
    Persist,
    /// The atomic release store of a publish word. The cost model counts it
    /// as a store; the persist lattice leaves it to the call graph.
    ReleaseStore,
    /// The atomic acquire load of a publish word.
    AcquireLoad,
    /// A plain (non-atomic) NVM read.
    PlainLoad,
    /// A zero-arg lock acquisition, opaque to every pass.
    Lock(LockKind),
}

impl Effect {
    /// A persistence primitive: the call writes, writes back or fences.
    pub(crate) fn persists(self) -> bool {
        matches!(
            self,
            Store | DurableStore | Flush | Fence | Persist | ReleaseStore
        )
    }
}

/// What a lock acquisition takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LockKind {
    Mutex,
    Read,
    Write,
}

/// The call shape an intrinsic needs besides its name and arity.
#[derive(Clone, Copy)]
enum Shape {
    /// Any call.
    Any,
    /// A method call (`recv.name(..)`).
    Method,
    /// Argument 0 names a region or heap handle (`set(region, i, v)`).
    RegionArg,
}

use Effect::*;
use Shape::*;

/// One intrinsic: name, arity range, shape, effect, and the argument naming
/// the target line (receiver + that argument is the line's textual
/// identity). A store's value is always its last argument.
type Row = (&'static str, (usize, usize), Shape, Effect, usize);

/// Every NVM intrinsic. Path-qualified calls (`ptr::write`,
/// `AtomicU64::store`) are never intrinsics.
const INTRINSICS: &[Row] = &[
    ("write_pod", (2, 2), Any, Store, 0),
    ("write_bytes", (2, 2), Any, Store, 0),
    ("set", (2, 3), RegionArg, Store, 1),
    ("flush", (2, 2), Any, Flush, 0),
    ("fence", (0, 0), Method, Fence, 0),
    ("persist", (2, 2), Method, Persist, 0),
    ("store", (2, 3), RegionArg, DurableStore, 1),
    ("push", (2, 3), RegionArg, DurableStore, 1),
    ("publish_len", (2, 3), RegionArg, DurableStore, 1),
    ("set_root", (1, 2), Method, DurableStore, 0),
    ("store_u64_release", (2, 2), Method, ReleaseStore, 0),
    ("load_u64_acquire", (1, 1), Method, AcquireLoad, 0),
    ("read_pod", (0, usize::MAX), Method, PlainLoad, 0),
    ("read_bytes", (0, usize::MAX), Method, PlainLoad, 0),
    ("lock", (0, 0), Method, Lock(LockKind::Mutex), 0),
    ("read", (0, 0), Method, Lock(LockKind::Read), 0),
    ("write", (0, 0), Method, Lock(LockKind::Write), 0),
];

/// A matched intrinsic call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Intrinsic {
    pub(crate) effect: Effect,
    /// Index of the argument naming the target line.
    pub(crate) target: usize,
}

/// The table row `call` matches, if any.
pub(crate) fn intrinsic(f: &HirFn, call: &CallEvent) -> Option<Intrinsic> {
    if !call.qualifiers.is_empty() {
        return None;
    }
    let n = call.args.len();
    let &(_, _, _, effect, target) = INTRINSICS.iter().find(|(name, (lo, hi), shape, ..)| {
        *name == call.name
            && (*lo..=*hi).contains(&n)
            && match shape {
                Any => true,
                Method => call.recv.is_some(),
                RegionArg => call.args.first().is_some_and(|&(s, e)| {
                    f.tokens[s..e]
                        .iter()
                        .any(|t| t.kind == TokKind::Ident && is_regionish(&t.text))
                }),
            }
    })?;
    Some(Intrinsic { effect, target })
}

/// The lock kind a zero-arg acquisition method named `name` takes.
pub(crate) fn lock_kind(name: &str) -> Option<LockKind> {
    INTRINSICS
        .iter()
        .find_map(|&(n, _, _, effect, _)| match effect {
            Lock(kind) if n == name => Some(kind),
            _ => None,
        })
}

/// Does identifier `name` look like a region or heap handle?
pub(crate) fn is_regionish(name: &str) -> bool {
    ["region", "heap", "reg", "r", "h", "nvm"].contains(&name)
        || name.ends_with("region")
        || name.ends_with("heap")
}

// ---------------------------------------------------------------------
// Sites and call chains
// ---------------------------------------------------------------------

/// A source position plus a human-readable description.
#[derive(Debug, Clone)]
pub(crate) struct Site {
    pub(crate) file: String,
    pub(crate) line: u32,
    pub(crate) col: u32,
    pub(crate) what: String,
}

impl Site {
    pub(crate) fn of(f: &HirFn, line: u32, col: u32, what: String) -> Self {
        Site {
            file: f.file.clone(),
            line,
            col,
            what,
        }
    }

    /// The call-site frame of `call` in `f`.
    pub(crate) fn frame(f: &HirFn, call: &CallEvent) -> Self {
        let what = format!("via call to `{}` in `{}`", call.name, fn_disp(f));
        Site::of(f, call.line, call.col, what)
    }

    pub(crate) fn brief(&self) -> String {
        format!("{} ({}:{})", self.what, self.file, self.line)
    }

    /// Same position (the identity summaries deduplicate on).
    pub(crate) fn at(&self, other: &Site) -> bool {
        (&self.file, self.line, self.col) == (&other.file, other.line, other.col)
    }
}

/// The longest call chain a summary or diagnostic keeps.
pub(crate) const MAX_CHAIN: usize = 8;

/// Call-site frames from an origin outward (most recent last).
#[derive(Debug, Clone, Default)]
pub(crate) struct Chain(Vec<Site>);

impl Chain {
    /// The chain one frame further out, or `None` once it holds the
    /// longest chain a summary keeps.
    pub(crate) fn via(&self, frame: &Site) -> Option<Chain> {
        (self.0.len() < MAX_CHAIN).then(|| {
            let mut c = self.clone();
            c.0.push(frame.clone());
            c
        })
    }

    /// Issued by the fn itself (no inlined frame).
    pub(crate) fn is_local(&self) -> bool {
        self.0.is_empty()
    }

    /// `first -> frames… -> last`: the path every chain diagnostic prints.
    pub(crate) fn path(&self, first: String, last: &Site) -> String {
        let frames = self.0.iter().map(Site::brief);
        let parts: Vec<String> = std::iter::once(first)
            .chain(frames)
            .chain([last.brief()])
            .collect();
        parts.join(" -> ")
    }
}

/// `Type::name` or `name`, for messages.
pub(crate) fn fn_disp(f: &HirFn) -> String {
    match &f.impl_type {
        Some(t) => format!("{}::{}", t, f.name),
        None => f.name.clone(),
    }
}

// ---------------------------------------------------------------------
// The fixpoint driver
// ---------------------------------------------------------------------

/// A per-fn summary the [`fixpoint`] driver iterates.
pub(crate) trait Summary: Clone + Default {
    /// What convergence is judged on: the summary's facts, not the sites
    /// and chains that only explain them in diagnostics.
    type Facts: PartialEq;
    fn facts(&self) -> Self::Facts;
}

impl Summary for bool {
    type Facts = bool;
    fn facts(&self) -> bool {
        *self
    }
}

/// The one fixpoint driver: run `step` over every fn, each seeing the
/// summaries already updated this round, until no summary's facts change
/// or the round bound is hit. The bound is load-bearing: on the tree the
/// persist, atomics and cost summaries never settle. A fn that name-based
/// resolution lets reach itself re-inherits its own summary each round —
/// chains grow until the cap drops them, traces until they collapse to
/// opaque — and starts over, so their findings are those of the last round.
pub(crate) fn fixpoint<S: Summary>(
    prog: &HirProgram,
    mut step: impl FnMut(&HirFn, &[S]) -> S,
) -> Vec<S> {
    const MAX_ROUNDS: usize = 12;
    let mut sums = vec![S::default(); prog.fns.len()];
    for _ in 0..MAX_ROUNDS {
        let mut changed = false;
        for f in &prog.fns {
            let next = step(f, &sums);
            changed |= next.facts() != sums[f.id].facts();
            sums[f.id] = next;
        }
        if !changed {
            break;
        }
    }
    sums
}

// ---------------------------------------------------------------------
// Name-based resolution
// ---------------------------------------------------------------------

/// std / core module qualifiers that can never name a workspace fn.
const STD_MODULES: &[&str] = &[
    "ptr", "mem", "std", "core", "alloc", "slice", "str", "io", "fs", "env", "process", "thread",
    "cmp", "fmt", "hash", "iter", "time", "sync", "atomic", "ops", "convert", "array", "char",
    "f32", "f64", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
    "isize",
];

/// std container / string types: a local initialized from one of these
/// constructors can never be a workspace type, so method calls on it
/// (`hits.push(..)`, `seen.len()`) must not union with same-named
/// workspace methods (`PVec::push`, `NvOrderedIndex::len`).
const STD_CONTAINERS: &[&str] = &[
    "Vec",
    "VecDeque",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "String",
];

/// Does every `let` binding of `recv` in `caller` initialize it from a
/// std container constructor (`Vec::new()`, `vec![..]`, `String::new()`)?
/// Conservative: any binding with a different (or absent) initializer
/// keeps name-based resolution in play.
fn local_is_std_container(caller: &HirFn, recv: &str) -> bool {
    let mut bound = false;
    for ev in &caller.events {
        let Event::Let(l) = ev else { continue };
        if !l.names.iter().any(|n| n == recv) {
            continue;
        }
        let (a, b) = l.expr;
        let toks = &caller.tokens[a.min(caller.tokens.len())..b.min(caller.tokens.len())];
        let std_init = match toks.first() {
            Some(t) if STD_CONTAINERS.contains(&t.text.as_str()) => {
                toks.get(1).is_some_and(|t| t.is_punct(':'))
            }
            Some(t) if t.is_ident("vec") => toks.get(1).is_some_and(|t| t.is_punct('!')),
            _ => false,
        };
        if !std_init {
            return false;
        }
        bound = true;
    }
    bound
}

/// Call graph: callee candidates per fn name.
pub(crate) struct CallGraph {
    by_name: HashMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Build the graph over every fn in `prog`.
    pub(crate) fn build(prog: &HirProgram) -> Self {
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for f in &prog.fns {
            by_name.entry(f.name.clone()).or_default().push(f.id);
        }
        CallGraph { by_name }
    }

    /// Resolve a call event in `caller` to candidate fn ids.
    ///
    /// Returns an empty vec for unknown names (std / external calls) and
    /// for explicitly foreign paths (`ptr::write`, `std::mem::swap`, …).
    pub(crate) fn resolve(
        &self,
        prog: &HirProgram,
        caller: &HirFn,
        call: &CallEvent,
    ) -> Vec<usize> {
        let Some(cands) = self.by_name.get(&call.name) else {
            return Vec::new();
        };
        // Foreign qualifier (`ptr::`, `std::`, `mem::`…) — never ours
        // unless the qualifier names one of our impl types. `Self::` is
        // the caller's own impl type.
        if let Some(q) = call.qualifiers.last() {
            let q: &str = if q == "Self" {
                match caller.impl_type.as_deref() {
                    Some(t) => t,
                    None => return Vec::new(),
                }
            } else {
                q.as_str()
            };
            let filtered: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| prog.fns[id].impl_type.as_deref() == Some(q))
                .collect();
            if !filtered.is_empty() {
                return filtered;
            }
            if STD_MODULES.contains(&q) {
                return Vec::new();
            }
            // Module-qualified free fn (`protocol::registry()`): match
            // candidates without an impl type.
            let free: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| prog.fns[id].impl_type.is_none())
                .collect();
            if q.chars().next().is_some_and(|c| c.is_lowercase()) && !free.is_empty() {
                return free;
            }
            return Vec::new();
        }
        // `self.method(..)`: prefer same impl type, then same file.
        if call.recv.as_deref() == Some("self") {
            let same_impl: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| {
                    prog.fns[id].impl_type.is_some() && prog.fns[id].impl_type == caller.impl_type
                })
                .collect();
            if !same_impl.is_empty() {
                return same_impl;
            }
            let same_file: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| prog.fns[id].file == caller.file)
                .collect();
            if !same_file.is_empty() {
                return same_file;
            }
        }
        // Method call on a non-self receiver: a receiver known to be a
        // std container resolves to nothing; otherwise require the
        // candidate to be a method (has self). Free call: prefer free fns
        // in the same file, else all free fns, else everything.
        if let Some(recv) = call.recv.as_deref() {
            if recv != "self" && local_is_std_container(caller, recv) {
                return Vec::new();
            }
        }
        if call.recv.is_some() {
            let methods: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| prog.fns[id].has_self)
                .collect();
            return methods;
        }
        let same_file_free: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&id| prog.fns[id].file == caller.file && !prog.fns[id].has_self)
            .collect();
        if !same_file_free.is_empty() {
            return same_file_free;
        }
        let free: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&id| !prog.fns[id].has_self)
            .collect();
        if !free.is_empty() {
            return free;
        }
        cands.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hir::build_program;

    fn prog(files: &[(&str, &str)]) -> HirProgram {
        build_program(
            &files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn qualifier_selects_the_impl() {
        let p = prog(&[(
            "crates/a/src/lib.rs",
            "impl Foo { fn open() {} } impl Bar { fn open() {} } fn use_it() { Foo::open(); }",
        )]);
        let g = CallGraph::build(&p);
        let caller = p.fns.iter().find(|f| f.name == "use_it").unwrap();
        let call = caller
            .events
            .iter()
            .find_map(|e| match e {
                crate::hir::Event::Call(c) if c.name == "open" => Some(c),
                _ => None,
            })
            .unwrap();
        let r = g.resolve(&p, caller, call);
        assert_eq!(r.len(), 1);
        assert_eq!(p.fns[r[0]].impl_type.as_deref(), Some("Foo"));
    }

    #[test]
    fn self_calls_prefer_the_same_impl() {
        let p = prog(&[
            (
                "crates/a/src/lib.rs",
                "impl Foo { fn go(&self) { self.step(); } fn step(&self) {} }",
            ),
            ("crates/b/src/lib.rs", "impl Bar { fn step(&self) {} }"),
        ]);
        let g = CallGraph::build(&p);
        let caller = p.fns.iter().find(|f| f.name == "go").unwrap();
        let call = caller
            .events
            .iter()
            .find_map(|e| match e {
                crate::hir::Event::Call(c) if c.name == "step" => Some(c),
                _ => None,
            })
            .unwrap();
        let r = g.resolve(&p, caller, call);
        assert_eq!(r.len(), 1);
        assert_eq!(p.fns[r[0]].impl_type.as_deref(), Some("Foo"));
    }

    #[test]
    fn std_container_locals_resolve_to_nothing() {
        let p = prog(&[(
            "crates/a/src/lib.rs",
            "impl PVec { fn push(&self, v: u64) {} } \
             fn f() { let hits = Vec::new(); hits.push(1u64); } \
             fn g(pv: PVec) { pv.push(2u64); }",
        )]);
        let g = CallGraph::build(&p);
        let f = p.fns.iter().find(|f| f.name == "f").unwrap();
        let call = f
            .events
            .iter()
            .find_map(|e| match e {
                crate::hir::Event::Call(c) if c.name == "push" && c.recv.is_some() => Some(c),
                _ => None,
            })
            .unwrap();
        assert!(
            g.resolve(&p, f, call).is_empty(),
            "Vec local must not union with PVec::push"
        );
        let gfn = p.fns.iter().find(|f| f.name == "g").unwrap();
        let call = gfn
            .events
            .iter()
            .find_map(|e| match e {
                crate::hir::Event::Call(c) if c.name == "push" && c.recv.is_some() => Some(c),
                _ => None,
            })
            .unwrap();
        assert_eq!(
            g.resolve(&p, gfn, call).len(),
            1,
            "unknown receiver keeps name-based resolution"
        );
    }

    #[test]
    fn std_paths_resolve_to_nothing() {
        let p = prog(&[(
            "crates/a/src/lib.rs",
            "fn f(a: *mut u8, b: u8) { unsafe { ptr::write(a, b) } } fn write(x: u8) {}",
        )]);
        let g = CallGraph::build(&p);
        let caller = p.fns.iter().find(|f| f.name == "f").unwrap();
        let call = caller
            .events
            .iter()
            .find_map(|e| match e {
                crate::hir::Event::Call(c) if c.name == "write" => Some(c),
                _ => None,
            })
            .unwrap();
        assert!(g.resolve(&p, caller, call).is_empty());
    }
}
