//! Interprocedural crash-consistency dataflow, and the driver that runs
//! every interprocedural pass over one program and one call graph.
//!
//! Two analyses over the HIR + call graph:
//!
//! * **persist-order reachability** — every NVM store must be flushed
//!   *and* fenced before any publish site it can reach on a call path.
//!   Publish sites are bound to the `nvm::protocol` registry's publish
//!   labels via `// pmlint: publish(<label>)` annotations. Violations
//!   are reported as call-chain diagnostics (rule `persist-order`);
//!   functions that leave their own stores unflushed on return without a
//!   `// pmlint: caller-flushes` contract are rule `unflushed-escape`.
//! * **volatile-pointer escape** — a taint analysis flagging DRAM-owned
//!   addresses (`as_ptr`/`into_raw`/`&x as *const _` cast to an integer)
//!   that flow into persistent sinks (`write_pod` values, `pvec`/`pvar`/
//!   `pslab`/`parray` writes), directly or through helper calls (rule
//!   `volatile-escape`). A durable virtual address is meaningless after
//!   restart, so persisting one silently breaks recovery.
//!
//! The persist lattice per pending store is `Dirty → InFlight →
//! (durable)`: a `flush` moves Dirty stores to InFlight, a `fence`
//! retires InFlight ones, `persist` does both. The walk is linear and
//! path-insensitive (both branch arms appear to execute), a flush is
//! assumed to cover every pending store (the tree flushes whole extents),
//! and a fence anywhere in a callee counts — deliberate approximations
//! that keep the clean tree clean while catching every ordering class in
//! the seeded corpus. They are documented in DESIGN.md.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::callgraph::{
    fixpoint, fn_disp, intrinsic, is_regionish, CallGraph, Chain, Effect, Site, Summary,
};
use crate::hir::{CallEvent, Event, HirFn, HirProgram, Span};
use crate::lexer::TokKind;
use crate::rules::Finding;

/// Analysis configuration.
pub struct AnalysisCtx {
    /// Publish labels declared by the protocol registry.
    pub known_labels: Vec<String>,
    /// Labels published with a release store (on the tree, all of them):
    /// their annotated sites must use genuine atomic release stores (and
    /// observe sites acquire loads), not plain `write_pod`.
    pub released_labels: Vec<String>,
    /// Require every known label to have an annotated site in tree.
    pub check_publish_binding: bool,
}

impl AnalysisCtx {
    /// Context for ad-hoc source sets (corpus, unit tests): the given
    /// labels are known, and unannotated labels are not required.
    pub fn bare(labels: &[&str]) -> Self {
        AnalysisCtx {
            known_labels: labels.iter().map(|s| s.to_string()).collect(),
            released_labels: Vec::new(),
            check_publish_binding: false,
        }
    }

    /// Like [`AnalysisCtx::bare`], but the given subset of labels is
    /// ordering-annotated (release publication required).
    pub fn bare_with_released(labels: &[&str], released: &[&str]) -> Self {
        let mut ctx = Self::bare(labels);
        ctx.released_labels = released.iter().map(|s| s.to_string()).collect();
        ctx
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum StoreState {
    /// Written, not flushed.
    Dirty,
    /// Flushed, not fenced.
    InFlight,
}

#[derive(Debug, Clone)]
struct PendingStore {
    origin: Site,
    origin_fn: usize,
    state: StoreState,
    chain: Chain,
}

/// A publish point visible from a fn (its own or reached transitively).
#[derive(Debug, Clone)]
struct PubPoint {
    label: String,
    site: Site,
    /// A flush covering pending stores happens between fn entry and this
    /// publish.
    flush_before: bool,
    /// A fence happens between fn entry and this publish.
    fence_before: bool,
}

#[derive(Debug, Clone, Default)]
struct PersistSummary {
    /// Fn executes a fence somewhere.
    fences: bool,
    /// Fn executes a flush (or persist) somewhere.
    flushes: bool,
    /// Publish points reachable from this fn (transitive).
    publishes: Vec<PubPoint>,
    /// Stores still pending when the fn returns.
    escaping: Vec<PendingStore>,
}

type PubFact = (String, String, u32, bool, bool);
type StoreFact = (String, u32, u32, StoreState);

impl Summary for PersistSummary {
    type Facts = (bool, bool, Vec<PubFact>, Vec<StoreFact>);
    fn facts(&self) -> Self::Facts {
        let mut pubs: Vec<PubFact> = self
            .publishes
            .iter()
            .map(|p| {
                let s = &p.site;
                (
                    p.label.clone(),
                    s.file.clone(),
                    s.line,
                    p.flush_before,
                    p.fence_before,
                )
            })
            .collect();
        pubs.sort();
        let mut esc: Vec<StoreFact> = self
            .escaping
            .iter()
            .map(|e| (e.origin.file.clone(), e.origin.line, e.origin.col, e.state))
            .collect();
        esc.sort();
        (self.fences, self.flushes, pubs, esc)
    }
}

/// Rule: unflushed store reaches a publish site.
pub const RULE_PERSIST_ORDER: &str = "persist-order";
/// Rule: fn returns with its own dirty stores and no contract.
pub const RULE_UNFLUSHED_ESCAPE: &str = "unflushed-escape";
/// Rule: DRAM-derived address flows into a persistent sink.
pub const RULE_VOLATILE_ESCAPE: &str = "volatile-escape";
/// Rule: publish annotations must match the protocol registry.
pub const RULE_PUBLISH_BINDING: &str = "publish-binding";

fn state_text(s: StoreState) -> &'static str {
    match s {
        StoreState::Dirty => "unflushed (dirty)",
        StoreState::InFlight => "flushed but not fenced",
    }
}

const MAX_ESCAPING: usize = 64;

/// Linear persist walk of one fn. When `report` is set, emit findings
/// against the converged `summaries`.
fn walk_persist(
    prog: &HirProgram,
    graph: &CallGraph,
    f: &HirFn,
    summaries: &[PersistSummary],
    report: Option<&mut Vec<Finding>>,
) -> PersistSummary {
    let mut pending: Vec<PendingStore> = Vec::new();
    let mut fenced = false;
    let mut flushed = false;
    let mut findings: Vec<Finding> = Vec::new();
    let mut reported: BTreeSet<(String, u32, u32, String, u32)> = BTreeSet::new();
    // (label,file,line) → (flush_before, fence_before); AND-merged so the
    // weakest path wins.
    let mut pubs: BTreeMap<(String, String, u32), (bool, bool, Site)> = BTreeMap::new();

    let check_publish =
        |pending: &[PendingStore],
         label: &str,
         site: &Site,
         (flush_before, fence_before): (bool, bool),
         call: &CallEvent,
         findings: &mut Vec<Finding>,
         reported: &mut BTreeSet<(String, u32, u32, String, u32)>| {
            for p in pending {
                let violated = match p.state {
                    StoreState::Dirty => !(flush_before && fence_before),
                    StoreState::InFlight => !fence_before,
                };
                let (o, s) = (&p.origin, site);
                let key = (o.file.clone(), o.line, o.col, s.file.clone(), s.line);
                if !violated || !reported.insert(key) {
                    continue;
                }
                let msg = format!(
                    "NVM store {} reaches publish `{}` at {}:{} while {}; path: {}",
                    p.origin.brief(),
                    label,
                    site.file,
                    site.line,
                    state_text(p.state),
                    p.chain.path(format!("store {}", p.origin.brief()), site),
                );
                findings.push(Finding::new(
                    RULE_PERSIST_ORDER,
                    &f.file,
                    call.line,
                    call.col,
                    msg,
                ));
            }
        };

    for ev in &f.events {
        let Event::Call(call) = ev else { continue };
        // A publish annotation marks this statement as a publish point;
        // pending stores are checked *before* the call's own effect.
        if let Some(label) = &call.publish_label {
            let what = format!("publish `{label}` in `{}`", fn_disp(f));
            let site = Site::of(f, call.line, call.col, what);
            if report.is_some() {
                let before = (flushed, fenced);
                check_publish(
                    &pending,
                    label,
                    &site,
                    before,
                    call,
                    &mut findings,
                    &mut reported,
                );
            }
            let e = pubs
                .entry((label.clone(), site.file.clone(), site.line))
                .or_insert((flushed, fenced, site));
            e.0 &= flushed;
            e.1 &= fenced;
        }
        match intrinsic(f, call).map(|i| i.effect) {
            Some(Effect::Store) => {
                let what = format!("`{}` in `{}`", call.name, fn_disp(f));
                pending.push(PendingStore {
                    origin: Site::of(f, call.line, call.col, what),
                    origin_fn: f.id,
                    state: StoreState::Dirty,
                    chain: Chain::default(),
                });
            }
            // Internally persisted: acts as a fence for in-flight lines,
            // leaves dirty ones dirty.
            Some(Effect::DurableStore | Effect::Fence) => {
                fenced = true;
                pending.retain(|p| p.state == StoreState::Dirty);
            }
            Some(Effect::Flush) => {
                flushed = true;
                for p in &mut pending {
                    p.state = StoreState::InFlight;
                }
            }
            Some(Effect::Persist) => {
                flushed = true;
                fenced = true;
                pending.clear();
            }
            _ => {
                let callees = graph.resolve(prog, f, call);
                if callees.is_empty() {
                    continue; // std / external: no NVM effect
                }
                let mut callee_fences = false;
                let mut callee_flushes = false;
                for &id in &callees {
                    let s = &summaries[id];
                    callee_fences |= s.fences;
                    callee_flushes |= s.flushes;
                    // Caller's pending stores vs the callee's publishes.
                    for pp in &s.publishes {
                        let before = (pp.flush_before, pp.fence_before);
                        if report.is_some() {
                            let (label, site) = (&pp.label, &pp.site);
                            check_publish(
                                &pending,
                                label,
                                site,
                                before,
                                call,
                                &mut findings,
                                &mut reported,
                            );
                        }
                        let fb = flushed || pp.flush_before;
                        let nb = fenced || pp.fence_before;
                        let e = pubs
                            .entry((pp.label.clone(), pp.site.file.clone(), pp.site.line))
                            .or_insert((fb, nb, pp.site.clone()));
                        e.0 &= fb;
                        e.1 &= nb;
                    }
                }
                // Inherit the callee's escaping stores with an extended
                // chain; they are now the caller's responsibility.
                let frame = Site::frame(f, call);
                let had = pending.len();
                for &id in &callees {
                    for esc in &summaries[id].escaping {
                        if pending[..had].iter().any(|p| p.origin.at(&esc.origin)) {
                            continue;
                        }
                        let Some(chain) = esc.chain.via(&frame) else {
                            continue;
                        };
                        if pending.len() >= MAX_ESCAPING {
                            break;
                        }
                        pending.push(PendingStore {
                            chain,
                            ..esc.clone()
                        });
                    }
                }
                // The callee's own flush/fence effects apply after its
                // publishes were checked against our pending state.
                if callee_flushes {
                    flushed = true;
                    for p in &mut pending {
                        p.state = StoreState::InFlight;
                    }
                }
                if callee_fences {
                    fenced = true;
                    pending.retain(|p| p.state == StoreState::Dirty);
                }
            }
        }
    }

    if let Some(sink) = report {
        // Dirty stores born here that outlive the fn need an explicit
        // caller-flushes contract.
        if !f.caller_flushes && !f.flush_helper {
            for p in pending
                .iter()
                .filter(|p| p.state == StoreState::Dirty && p.origin_fn == f.id)
            {
                let msg = format!(
                    "`{}` returns with NVM store {} unflushed; flush before returning or annotate the fn `// pmlint: caller-flushes`",
                    fn_disp(f),
                    p.origin.brief(),
                );
                let (line, col) = (p.origin.line, p.origin.col);
                findings.push(Finding::new(RULE_UNFLUSHED_ESCAPE, &f.file, line, col, msg));
            }
        }
        sink.append(&mut findings);
    }

    pending.truncate(MAX_ESCAPING);
    PersistSummary {
        fences: fenced,
        flushes: flushed,
        publishes: pubs
            .into_iter()
            .map(
                |((label, _, _), (flush_before, fence_before, site))| PubPoint {
                    label,
                    site,
                    flush_before,
                    fence_before,
                },
            )
            .collect(),
        escaping: pending,
    }
}

// ---------------------------------------------------------------------
// Taint analysis
// ---------------------------------------------------------------------

/// Where a tainted value came from.
#[derive(Debug, Clone, Default)]
struct Origins {
    /// Derived from a DRAM pointer in this fn.
    local: bool,
    /// Bitset of parameters whose taint this value carries.
    params: u64,
    /// Source site (for messages), when local.
    src: Option<Site>,
}

impl Origins {
    fn is_empty(&self) -> bool {
        !self.local && self.params == 0
    }
    fn merge(&mut self, other: &Origins) {
        self.local |= other.local;
        self.params |= other.params;
        if self.src.is_none() {
            self.src = other.src.clone();
        }
    }
}

#[derive(Debug, Clone, Default)]
struct TaintSummary {
    /// Returns a DRAM-derived integer made inside the fn.
    returns_local: bool,
    /// Returns taint when these params are tainted.
    ret_from_params: u64,
    /// Params that flow into a persistent sink inside the fn.
    param_sinks: u64,
    /// Sink site per param (for messages).
    sink_sites: BTreeMap<u32, Site>,
    /// Source site when `returns_local`.
    ret_src: Option<Site>,
}

impl Summary for TaintSummary {
    type Facts = (bool, u64, u64);
    fn facts(&self) -> Self::Facts {
        (self.returns_local, self.ret_from_params, self.param_sinks)
    }
}

const INT_CASTS: &[&str] = &["usize", "u64", "u32", "i64", "i32", "u128", "isize"];
const PTR_FNS: &[&str] = &["as_ptr", "as_mut_ptr", "into_raw"];

/// Scan a token span for the DRAM-pointer-to-integer source pattern:
/// an `as_ptr`/`as_mut_ptr`/`into_raw` call or an `as *const/mut` cast,
/// combined with an `as <int>` cast. `as_ptr` on a region/heap handle is
/// NVM-derived and excluded.
fn span_source(f: &HirFn, span: Span) -> Option<Site> {
    let toks = &f.tokens[span.0..span.1];
    let mut int_cast = false;
    let mut ptr_origin: Option<(u32, u32, String)> = None;
    for (k, t) in toks.iter().enumerate() {
        if t.is_ident("as") {
            if let Some(next) = toks.get(k + 1) {
                if next.kind == TokKind::Ident && INT_CASTS.contains(&next.text.as_str()) {
                    int_cast = true;
                }
                if next.is_punct('*') && ptr_origin.is_none() {
                    ptr_origin = Some((t.line, t.col, "`as *const _` cast".to_owned()));
                }
            }
        }
        if t.kind == TokKind::Ident && PTR_FNS.contains(&t.text.as_str()) {
            // `recv . as_ptr` — skip NVM-derived receivers.
            let recv_ok = !(k >= 2
                && toks[k - 1].is_punct('.')
                && toks[k - 2].kind == TokKind::Ident
                && is_regionish(&toks[k - 2].text));
            if recv_ok && ptr_origin.is_none() {
                ptr_origin = Some((t.line, t.col, format!("`{}` result", t.text)));
            }
        }
    }
    match (int_cast, ptr_origin) {
        (true, Some((line, col, what))) => Some(Site::of(f, line, col, what)),
        _ => None,
    }
}

/// Evaluate the taint origins of an expression span.
fn eval_span(
    f: &HirFn,
    span: Span,
    tainted: &HashMap<String, Origins>,
    params: &HashMap<&str, u32>,
    call_taints: &HashMap<usize, Origins>,
) -> Origins {
    let mut o = Origins::default();
    for k in span.0..span.1 {
        let t = &f.tokens[k];
        if t.kind == TokKind::Ident {
            if let Some(prev) = tainted.get(&t.text) {
                o.merge(prev);
                continue;
            }
            if let Some(&i) = params.get(t.text.as_str()) {
                o.params |= 1u64 << i.min(63);
            }
        }
        if let Some(ct) = call_taints.get(&k) {
            o.merge(ct);
        }
    }
    if let Some(src) = span_source(f, span) {
        o.local = true;
        if o.src.is_none() {
            o.src = Some(src);
        }
    }
    o
}

/// Indices of the set bits of `bits`.
fn bit_indices(mut bits: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let i = bits.trailing_zeros();
            bits &= bits - 1;
            i
        })
    })
}

fn walk_taint(
    prog: &HirProgram,
    graph: &CallGraph,
    f: &HirFn,
    summaries: &[TaintSummary],
    report: Option<&mut Vec<Finding>>,
) -> TaintSummary {
    let mut out = TaintSummary::default();
    let mut tainted: HashMap<String, Origins> = HashMap::new();
    let mut call_taints: HashMap<usize, Origins> = HashMap::new();
    let params: HashMap<&str, u32> = f
        .params
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.is_empty())
        .map(|(i, p)| (p.as_str(), i as u32))
        .collect();
    let mut findings: Vec<Finding> = Vec::new();

    let reporting = report.is_some();
    let mut sink_hit = |origins: &Origins,
                        sink: Site,
                        via: Option<&Site>,
                        out: &mut TaintSummary| {
        if origins.local && reporting {
            let src = origins
                .src
                .as_ref()
                .map(|s| s.brief())
                .unwrap_or_else(|| "DRAM pointer cast".to_owned());
            let via_txt = via
                .map(|v| format!("; via {}", v.brief()))
                .unwrap_or_default();
            let msg = format!(
                "DRAM-derived address from {} flows into persistent sink {}{}; \
                 persisted virtual addresses are dangling after restart — store an NvmRegion offset instead",
                src,
                sink.brief(),
                via_txt,
            );
            findings.push(Finding::new(
                RULE_VOLATILE_ESCAPE,
                &f.file,
                sink.line,
                sink.col,
                msg,
            ));
        }
        for i in bit_indices(origins.params) {
            out.param_sinks |= 1u64 << i;
            out.sink_sites.entry(i).or_insert_with(|| sink.clone());
        }
    };

    for ev in &f.events {
        match ev {
            Event::Call(call) => {
                let sink_site = |what: String| Site::of(f, call.line, call.col, what);
                let eval = |span| eval_span(f, span, &tainted, &params, &call_taints);
                match intrinsic(f, call).map(|i| i.effect) {
                    Some(Effect::Store | Effect::DurableStore) => {
                        // The stored value is the last argument.
                        let o = call.args.last().map(|&span| eval(span)).unwrap_or_default();
                        if !o.is_empty() {
                            let what = format!("`{}` in `{}`", call.name, fn_disp(f));
                            sink_hit(&o, sink_site(what), None, &mut out);
                        }
                    }
                    Some(Effect::Flush | Effect::Fence | Effect::Persist) => {}
                    _ => {
                        let mut ret = Origins::default();
                        for id in graph.resolve(prog, f, call) {
                            let s = &summaries[id];
                            // Args flowing into the callee's sinks.
                            for i in bit_indices(s.param_sinks) {
                                let Some(&span) = call.args.get(i as usize) else {
                                    continue;
                                };
                                let o = eval(span);
                                if o.is_empty() {
                                    continue;
                                }
                                let deep = s.sink_sites.get(&i).cloned().unwrap_or_else(|| {
                                    sink_site(format!("sink inside `{}`", fn_disp(&prog.fns[id])))
                                });
                                let via = sink_site(format!(
                                    "call to `{}` in `{}`",
                                    call.name,
                                    fn_disp(f)
                                ));
                                sink_hit(&o, deep, Some(&via), &mut out);
                            }
                            // Taint returned by the callee.
                            if s.returns_local {
                                ret.local = true;
                                if ret.src.is_none() {
                                    ret.src = s.ret_src.clone().or_else(|| {
                                        Some(sink_site(format!("`{}` return value", call.name)))
                                    });
                                }
                            }
                            for i in bit_indices(s.ret_from_params) {
                                if let Some(&span) = call.args.get(i as usize) {
                                    ret.merge(&eval(span));
                                }
                            }
                        }
                        if !ret.is_empty() {
                            call_taints.insert(call.tok_idx, ret);
                        }
                    }
                }
            }
            Event::Let(l) => {
                let o = eval_span(f, l.expr, &tainted, &params, &call_taints);
                for name in &l.names {
                    if o.is_empty() {
                        tainted.remove(name);
                    } else {
                        tainted.insert(name.clone(), o.clone());
                    }
                }
            }
            Event::Return(span) => {
                let o = eval_span(f, *span, &tainted, &params, &call_taints);
                out.returns_local |= o.local;
                out.ret_from_params |= o.params;
                if out.ret_src.is_none() {
                    out.ret_src = o.src;
                }
            }
        }
    }
    if let Some(sink) = report {
        sink.append(&mut findings);
    }
    out
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// Run every interprocedural pass over `prog` with one call graph:
/// persist order, taint, publish binding, the concurrency passes, the
/// persistence-cost pass and `alloc-unwrap`.
pub fn analyze(prog: &HirProgram, ctx: &AnalysisCtx) -> Vec<Finding> {
    let graph = CallGraph::build(prog);
    let mut findings = Vec::new();

    let psums = fixpoint(prog, |f, sums| walk_persist(prog, &graph, f, sums, None));
    let tsums = fixpoint(prog, |f, sums| walk_taint(prog, &graph, f, sums, None));
    for f in &prog.fns {
        walk_persist(prog, &graph, f, &psums, Some(&mut findings));
        walk_taint(prog, &graph, f, &tsums, Some(&mut findings));
    }

    // Publish-label binding.
    let known: BTreeSet<&str> = ctx.known_labels.iter().map(|s| s.as_str()).collect();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for f in &prog.fns {
        for ev in &f.events {
            let Event::Call(c) = ev else { continue };
            let sides = [("publish", &c.publish_label), ("observe", &c.observe_label)];
            for (side, label) in sides {
                let Some(label) = label else { continue };
                if side == "publish" {
                    seen.insert(label);
                }
                if !known.contains(label.as_str()) {
                    let msg = format!(
                        "{side} label `{label}` is not declared by any ProtocolSpec in nvm::protocol_registry()"
                    );
                    findings.push(Finding::new(
                        RULE_PUBLISH_BINDING,
                        &f.file,
                        c.line,
                        c.col,
                        msg,
                    ));
                }
            }
        }
    }
    if ctx.check_publish_binding {
        for label in ctx
            .known_labels
            .iter()
            .filter(|l| !seen.contains(l.as_str()))
        {
            let msg = format!(
                "publish label `{label}` has no `// pmlint: publish({label})` annotated site in the tree"
            );
            findings.push(Finding::new(
                RULE_PUBLISH_BINDING,
                crate::PROTOCOL_FILE,
                1,
                1,
                msg,
            ));
        }
    }

    crate::concurrency::analyze(prog, &graph, ctx, &mut findings);
    crate::cost::analyze(prog, &graph, &mut findings);
    crate::allocpath::analyze(prog, &graph, crate::allocpath::ALLOC_SEEDS, &mut findings);

    // Stable order + dedupe.
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule, &a.msg).cmp(&(&b.file, b.line, b.col, b.rule, &b.msg))
    });
    findings.dedup();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hir::build_program;

    fn run(src: &str, labels: &[&str]) -> Vec<Finding> {
        let prog = build_program(&[("crates/x/src/lib.rs".to_owned(), src.to_owned())]);
        analyze(&prog, &AnalysisCtx::bare(labels))
    }

    #[test]
    fn clean_store_flush_fence_publish() {
        let f = run(
            "fn commit(region: &R) {\n\
             region.write_pod(8, &1u64);\n\
             region.flush(8, 8);\n\
             region.fence();\n\
             // pmlint: publish(delta-rows)\n\
             region.write_pod(0, &2u64);\n\
             region.persist(0, 8);\n\
             }",
            &["delta-rows"],
        );
        assert!(f.is_empty(), "clean pattern must have no findings: {f:?}");
    }

    #[test]
    fn missing_flush_before_publish_is_reported() {
        let f = run(
            "fn commit(region: &R) {\n\
             region.write_pod(8, &1u64);\n\
             region.fence();\n\
             // pmlint: publish(delta-rows)\n\
             region.write_pod(0, &2u64);\n\
             region.persist(0, 8);\n\
             }",
            &["delta-rows"],
        );
        assert!(
            f.iter().any(|x| x.rule == RULE_PERSIST_ORDER),
            "expected persist-order: {f:?}"
        );
    }

    #[test]
    fn missing_fence_before_publish_is_reported() {
        let f = run(
            "fn commit(region: &R) {\n\
             region.write_pod(8, &1u64);\n\
             region.flush(8, 8);\n\
             // pmlint: publish(delta-rows)\n\
             region.write_pod(0, &2u64);\n\
             region.persist(0, 8);\n\
             }",
            &["delta-rows"],
        );
        let hit = f
            .iter()
            .find(|x| x.rule == RULE_PERSIST_ORDER)
            .expect("expected persist-order");
        assert!(hit.msg.contains("not fenced"), "{}", hit.msg);
    }

    #[test]
    fn helper_store_caller_publish_chain() {
        let f = run(
            "// pmlint: caller-flushes\n\
             fn stage(region: &R) { region.write_pod(8, &1u64); }\n\
             fn commit(region: &R) {\n\
             stage(region);\n\
             // pmlint: publish(delta-rows)\n\
             region.write_pod(0, &2u64);\n\
             region.persist(0, 8);\n\
             }",
            &["delta-rows"],
        );
        let hit = f
            .iter()
            .find(|x| x.rule == RULE_PERSIST_ORDER)
            .expect("expected interprocedural persist-order");
        assert!(
            hit.msg.contains("stage"),
            "chain names the helper: {}",
            hit.msg
        );
        assert!(!f.iter().any(|x| x.rule == RULE_UNFLUSHED_ESCAPE));
    }

    #[test]
    fn unannotated_escape_is_reported() {
        let f = run("fn stage(region: &R) { region.write_pod(8, &1u64); }", &[]);
        assert!(f.iter().any(|x| x.rule == RULE_UNFLUSHED_ESCAPE), "{f:?}");
    }

    #[test]
    fn volatile_pointer_direct() {
        let f = run(
            "fn leak(region: &R, v: &Vec<u8>) {\n\
             let p = v.as_ptr() as u64;\n\
             region.write_pod(8, &p);\n\
             region.persist(8, 8);\n\
             }",
            &[],
        );
        assert!(f.iter().any(|x| x.rule == RULE_VOLATILE_ESCAPE), "{f:?}");
    }

    #[test]
    fn offsets_are_not_tainted() {
        let f = run(
            "fn ok(region: &R, off: u64) {\n\
             let n = off + 8;\n\
             region.write_pod(8, &n);\n\
             region.persist(8, 8);\n\
             }",
            &[],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn taint_through_returning_helper() {
        let f = run(
            "fn addr(v: &Vec<u8>) -> u64 { v.as_ptr() as u64 }\n\
             fn leak(region: &R, v: &Vec<u8>) {\n\
             let p = addr(v);\n\
             region.write_pod(8, &p);\n\
             region.persist(8, 8);\n\
             }",
            &[],
        );
        assert!(f.iter().any(|x| x.rule == RULE_VOLATILE_ESCAPE), "{f:?}");
    }

    #[test]
    fn taint_into_param_sink_helper() {
        let f = run(
            "fn stash(region: &R, a: u64) { region.write_pod(8, &a); region.persist(8, 8); }\n\
             fn leak(region: &R, b: Box<u32>) {\n\
             let a = Box::into_raw(b) as u64;\n\
             stash(region, a);\n\
             }",
            &[],
        );
        assert!(f.iter().any(|x| x.rule == RULE_VOLATILE_ESCAPE), "{f:?}");
    }

    #[test]
    fn unknown_publish_label_is_reported() {
        let f = run(
            "fn commit(region: &R) {\n\
             // pmlint: publish(no-such-label)\n\
             region.write_pod(0, &2u64);\n\
             region.persist(0, 8);\n\
             }",
            &["delta-rows"],
        );
        assert!(f.iter().any(|x| x.rule == RULE_PUBLISH_BINDING), "{f:?}");
    }
}
