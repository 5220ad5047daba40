//! Static persistence-cost analysis.
//!
//! Builds a per-function *abstract persistence trace* — the ordered
//! store / flush / fence events a call to the fn performs, with callee
//! traces inlined to fixpoint — and reports three cost defects over it:
//!
//! * **redundant-flush** — the same line (receiver + offset expression)
//!   is flushed twice with no intervening store. The second write-back
//!   is a no-op that still pays the flush latency.
//! * **dead-flush** — a flush with no reaching store since the last
//!   fence: every line it could cover is already durable, so the call
//!   persists nothing.
//! * **fence-coalesce** — two fences with no intervening store or flush:
//!   the second drains an empty write-back queue and can be merged into
//!   the first.
//!
//! The trace model is linear and path-insensitive like the persist
//! lattice in [`crate::dataflow`], with one extra guard: a control-flow
//! token (`else`, match arm `=>`, loop keywords) between two events
//! inserts a *barrier* that resets the pairing state, so alternative
//! branch arms are never paired as if both executed. Calls that resolve
//! ambiguously (or whose trace overflows the bound) degrade to an
//! *opaque* event that conservatively disables every rule downstream.
//! The result: findings only fire on straight-line, fully-resolved
//! persistence code — precise where it matters, silent where it is not.
//!
//! The module also hosts the **read-path purity gate** (rule
//! `read-path-purity`): from every fn annotated `// pmlint: read-path`
//! the analyzer walks the transitive call closure and reports any
//! persistence primitive (store/flush/fence/persist) or lock
//! acquisition (`.lock()` / `.read()` / `.write()` with no arguments)
//! it can reach. A clean gate is a machine-checked proof that the
//! public read API issues zero persistence traffic and takes no lock.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::{
    fixpoint, fn_disp, intrinsic, CallGraph, Chain, Effect, Site, Summary, MAX_CHAIN,
};
use crate::hir::{CallEvent, Event, HirFn, HirProgram};
use crate::lexer::TokKind;
use crate::rules::Finding;

/// Rule: same line flushed twice with no intervening store.
pub const RULE_REDUNDANT_FLUSH: &str = "redundant-flush";
/// Rule: flush with no reaching store since the last fence.
pub const RULE_DEAD_FLUSH: &str = "dead-flush";
/// Rule: adjacent fences with no intervening flushed store.
pub const RULE_FENCE_COALESCE: &str = "fence-coalesce";
/// Rule: persistence primitive or lock reachable from a read-path root.
pub const RULE_READ_PATH_PURITY: &str = "read-path-purity";

/// One abstract persistence event. `chain` is empty for events issued
/// directly by the fn under analysis and holds the call-site frames
/// (outermost last) for events inlined from callees.
#[derive(Debug, Clone)]
enum AbsEvent {
    /// NVM write targeting `key` (receiver + offset expression text).
    Store { key: String },
    /// Cache-line write-back of `key`.
    Flush {
        key: String,
        site: Site,
        chain: Chain,
    },
    /// Store fence.
    Fence { site: Site, chain: Chain },
    /// Control-flow merge point between events (branch arm, loop head):
    /// pairing across it would assume both arms execute.
    Barrier,
    /// A call with unknowable effects (ambiguous resolution or trace
    /// overflow). Disables every rule for the rest of the walk.
    Opaque,
}

/// Per-fn summary: the abstract trace a single call performs.
#[derive(Debug, Clone, Default)]
struct CostSummary {
    trace: Vec<AbsEvent>,
}

impl Summary for CostSummary {
    /// The trace's event kinds with their line keys.
    type Facts = Vec<(char, String)>;
    fn facts(&self) -> Self::Facts {
        let fact = |ev: &AbsEvent| match ev {
            AbsEvent::Store { key } => ('S', key.clone()),
            AbsEvent::Flush { key, .. } => ('F', key.clone()),
            AbsEvent::Fence { .. } => ('N', String::new()),
            AbsEvent::Barrier => ('B', String::new()),
            AbsEvent::Opaque => ('O', String::new()),
        };
        self.trace.iter().map(fact).collect()
    }
}

/// Longest trace a summary may carry before degrading to opaque. Keeps
/// inlining (and the fixpoint) bounded on deep call chains.
const MAX_TRACE: usize = 32;

/// The textual identity of an intrinsic's target line: receiver plus the
/// target argument's source text (`region.flush(self.desc + 8, 8)` →
/// `region[self.desc+8]`). Two events with equal keys touch the same
/// line as far as a linear, alias-free reading of the source can tell.
fn target_key(f: &HirFn, call: &CallEvent, target: usize) -> String {
    let mut s = String::new();
    let span = call.args.get(target).copied().unwrap_or((0, 0));
    for t in &f.tokens[span.0..span.1] {
        match t.kind {
            TokKind::Punct(c) => s.push(c),
            _ => {
                if !s.is_empty()
                    && s.ends_with(|c: char| c.is_alphanumeric() || c == '_')
                    && t.text
                        .starts_with(|c: char| c.is_alphanumeric() || c == '_')
                {
                    s.push(' ');
                }
                s.push_str(&t.text);
            }
        }
    }
    format!("{}[{s}]", call.recv.as_deref().unwrap_or_default())
}

/// Tokens that mark a control-flow merge: events on either side may
/// belong to different executions.
fn has_flow_break(f: &HirFn, from_tok: usize, to_tok: usize) -> bool {
    if from_tok >= to_tok {
        return false;
    }
    let mut k = from_tok;
    while k < to_tok.min(f.tokens.len()) {
        let t = &f.tokens[k];
        match t.kind {
            TokKind::Ident
                if matches!(t.text.as_str(), "else" | "loop" | "while" | "for" | "match") =>
            {
                return true;
            }
            TokKind::Punct('=')
                if f.tokens.get(k + 1).is_some_and(|n| n.is_punct('>'))
                    && f.tokens[k + 1].line == t.line
                    && f.tokens[k + 1].col == t.col + 1 =>
            {
                return true; // match arm `=>`
            }
            _ => {}
        }
        k += 1;
    }
    false
}

/// Build the abstract trace of one fn against the current summaries.
fn walk_cost(
    prog: &HirProgram,
    graph: &CallGraph,
    f: &HirFn,
    summaries: &[CostSummary],
) -> CostSummary {
    let mut trace: Vec<AbsEvent> = Vec::new();
    let mut last_tok: Option<usize> = None;
    for ev in &f.events {
        let Event::Call(call) = ev else { continue };
        if let Some(prev) = last_tok {
            if has_flow_break(f, prev, call.tok_idx) {
                trace.push(AbsEvent::Barrier);
            }
        }
        last_tok = Some(call.tok_idx);
        let local = |what: &str| {
            let what = format!("`{what}` in `{}`", fn_disp(f));
            (Site::of(f, call.line, call.col, what), Chain::default())
        };
        let (site, chain) = local(&call.name);
        match intrinsic(f, call).filter(|i| i.effect.persists()) {
            Some(i) => {
                let key = target_key(f, call, i.target);
                use Effect::*;
                let stores = matches!(i.effect, Store | ReleaseStore | DurableStore);
                let flushes = matches!(i.effect, DurableStore | Flush | Persist);
                let fences = matches!(i.effect, DurableStore | Fence | Persist);
                if stores {
                    trace.push(AbsEvent::Store { key: key.clone() });
                }
                if flushes {
                    let (site, chain) = (site.clone(), chain.clone());
                    trace.push(AbsEvent::Flush { key, site, chain });
                }
                if fences {
                    trace.push(AbsEvent::Fence { site, chain });
                }
            }
            None => {
                let callees = graph.resolve(prog, f, call);
                let interesting: Vec<usize> = callees
                    .into_iter()
                    .filter(|&id| !summaries[id].trace.is_empty())
                    .collect();
                match interesting.as_slice() {
                    [] => {}
                    &[id] => {
                        let frame = Site::frame(f, call);
                        trace.extend(summaries[id].trace.iter().map(|ev| ev.via(&frame)));
                    }
                    // Ambiguous resolution: the union of candidate
                    // traces is not a sequence any execution performs.
                    _ => trace.push(AbsEvent::Opaque),
                }
            }
        }
        if trace.len() > MAX_TRACE {
            return CostSummary {
                trace: vec![AbsEvent::Opaque],
            };
        }
    }
    CostSummary { trace }
}

impl AbsEvent {
    /// This event of a callee's trace, seen through the call frame `frame`
    /// (a full chain stays as it is).
    fn via(&self, frame: &Site) -> AbsEvent {
        let via = |chain: &Chain| chain.via(frame).unwrap_or_else(|| chain.clone());
        match self {
            AbsEvent::Flush { key, site, chain } => AbsEvent::Flush {
                key: key.clone(),
                site: site.clone(),
                chain: via(chain),
            },
            AbsEvent::Fence { site, chain } => AbsEvent::Fence {
                site: site.clone(),
                chain: via(chain),
            },
            other => other.clone(),
        }
    }
}

/// Scan one converged trace for the three cost rules, reporting only
/// events the fn issues itself (`chain` empty) so a defect inside a
/// helper is charged to the helper, not to every caller.
fn report_trace(trace: &[AbsEvent], findings: &mut Vec<Finding>) {
    // Key → site of the covering flush with no store since.
    let mut flushed: BTreeMap<String, (Site, Chain)> = BTreeMap::new();
    // Store keys written but not yet matched by a flush of the same key.
    let mut dirty: BTreeSet<String> = BTreeSet::new();
    let mut prev_fence: Option<(Site, Chain)> = None;
    let mut fence_seen = false;
    let mut store_since_fence = false;
    let mut work_since_fence = false;

    for ev in trace {
        match ev {
            AbsEvent::Store { key } => {
                dirty.insert(key.clone());
                flushed.clear();
                store_since_fence = true;
                work_since_fence = true;
            }
            AbsEvent::Flush { key, site, chain } => {
                let covered = dirty.remove(key);
                let local = chain.is_local();
                if let Some((first, first_chain)) = flushed.get(key) {
                    if local {
                        let msg = format!(
                            "line `{key}` is flushed again by {} with no intervening store; \
                             the write-back is a no-op — drop it; path: flush {}",
                            site.brief(),
                            first_chain.path(first.brief(), site),
                        );
                        let (line, col) = (site.line, site.col);
                        findings.push(Finding::new(
                            RULE_REDUNDANT_FLUSH,
                            &site.file,
                            line,
                            col,
                            msg,
                        ));
                    }
                } else if !covered && dirty.is_empty() && fence_seen && !store_since_fence && local
                {
                    let msg = format!(
                        "flush {} has no reaching store since the last fence; \
                         every line it could cover is already durable — delete it; path: fence {}",
                        site.brief(),
                        match &prev_fence {
                            Some((fs, fc)) => fc.path(fs.brief(), site),
                            None => site.brief(),
                        },
                    );
                    let (line, col) = (site.line, site.col);
                    findings.push(Finding::new(RULE_DEAD_FLUSH, &site.file, line, col, msg));
                }
                flushed.insert(key.clone(), (site.clone(), chain.clone()));
                work_since_fence = true;
            }
            AbsEvent::Fence { site, chain } => {
                if fence_seen && !work_since_fence && chain.is_local() {
                    if let Some((prev, prev_chain)) = &prev_fence {
                        let msg = format!(
                            "fence {} follows fence {} with no intervening flushed store; \
                             the write-back queue is empty — coalesce into one fence; path: fence {}",
                            site.brief(),
                            prev.brief(),
                            prev_chain.path(prev.brief(), site),
                        );
                        let (line, col) = (site.line, site.col);
                        findings.push(Finding::new(
                            RULE_FENCE_COALESCE,
                            &site.file,
                            line,
                            col,
                            msg,
                        ));
                    }
                }
                prev_fence = Some((site.clone(), chain.clone()));
                fence_seen = true;
                store_since_fence = false;
                work_since_fence = false;
            }
            AbsEvent::Barrier => {
                flushed.clear();
                prev_fence = None;
                store_since_fence = true;
                work_since_fence = true;
            }
            AbsEvent::Opaque => {
                flushed.clear();
                prev_fence = None;
                fence_seen = false;
                store_since_fence = true;
                work_since_fence = true;
                // An unknowable callee may have left stores dirty; a
                // wildcard key nothing flushes keeps dead-flush off for
                // the rest of the walk.
                dirty.insert("?".to_owned());
            }
        }
    }
}

/// The read-path purity gate: from every `// pmlint: read-path` root,
/// prove the transitive call closure free of persistence primitives and
/// lock acquisitions.
fn purity_gate(prog: &HirProgram, graph: &CallGraph, findings: &mut Vec<Finding>) {
    let mut reported: BTreeSet<(String, u32, u32)> = BTreeSet::new();
    for root in prog.fns.iter().filter(|f| f.read_path) {
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        let mut queue: VecDeque<(usize, Vec<String>)> = VecDeque::new();
        visited.insert(root.id);
        queue.push_back((root.id, vec![format!("`{}`", fn_disp(root))]));
        while let Some((id, path)) = queue.pop_front() {
            let f = &prog.fns[id];
            for ev in &f.events {
                let Event::Call(call) = ev else { continue };
                let impure = match intrinsic(f, call).map(|i| i.effect) {
                    Some(e) if e.persists() => Some("persistence primitive"),
                    Some(Effect::Lock(_)) => Some("lock acquisition"),
                    _ => None,
                };
                if let Some(what) = impure {
                    if reported.insert((f.file.clone(), call.line, call.col)) {
                        let msg = format!(
                            "read-path root {} reaches {} `{}` at {}:{}; \
                             the read path must issue zero persistence primitives and take no lock; path: {}",
                            path.first().map(String::as_str).unwrap_or("?"),
                            what,
                            call.name,
                            f.file,
                            call.line,
                            path.join(" -> "),
                        );
                        findings.push(Finding::new(
                            RULE_READ_PATH_PURITY,
                            &f.file,
                            call.line,
                            call.col,
                            msg,
                        ));
                    }
                    continue;
                }
                for callee in graph.resolve(prog, f, call) {
                    // `// pmlint: read-pure` leaves model plain loads on
                    // real hardware (the simulated region's read accessors
                    // and their internal bookkeeping): trusted, not walked.
                    if prog.fns[callee].read_pure {
                        continue;
                    }
                    if visited.insert(callee) {
                        let mut next = path.clone();
                        if next.len() < MAX_CHAIN {
                            next.push(format!("`{}`", fn_disp(&prog.fns[callee])));
                        }
                        queue.push_back((callee, next));
                    }
                }
            }
        }
    }
}

/// Run the persistence-cost pass and the read-path purity gate.
pub(crate) fn analyze(prog: &HirProgram, graph: &CallGraph, findings: &mut Vec<Finding>) {
    for sum in fixpoint(prog, |f, sums| walk_cost(prog, graph, f, sums)) {
        report_trace(&sum.trace, findings);
    }
    purity_gate(prog, graph, findings);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::{analyze as df_analyze, AnalysisCtx};
    use crate::hir::build_program;

    fn run(src: &str) -> Vec<Finding> {
        let prog = build_program(&[("crates/x/src/lib.rs".to_owned(), src.to_owned())]);
        df_analyze(&prog, &AnalysisCtx::bare(&["delta-rows"]))
    }

    #[test]
    fn redundant_flush_same_line_twice() {
        let f = run("fn twice(region: &R) {\n\
             region.write_pod(8, &1u64);\n\
             region.flush(8, 8);\n\
             region.flush(8, 8);\n\
             region.fence();\n\
             }");
        let hit = f
            .iter()
            .find(|x| x.rule == RULE_REDUNDANT_FLUSH)
            .unwrap_or_else(|| panic!("expected redundant-flush: {f:?}"));
        assert!(hit.msg.contains("no intervening store"), "{}", hit.msg);
        assert!(hit.msg.contains("path: flush"), "{}", hit.msg);
        assert_eq!(hit.line, 4);
    }

    #[test]
    fn store_between_flushes_is_clean() {
        let f = run("fn ok(region: &R) {\n\
             region.write_pod(8, &1u64);\n\
             region.flush(8, 8);\n\
             region.write_pod(8, &2u64);\n\
             region.flush(8, 8);\n\
             region.fence();\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn different_lines_are_clean() {
        let f = run("fn ok(region: &R) {\n\
             region.write_pod(8, &1u64);\n\
             region.write_pod(64, &2u64);\n\
             region.flush(8, 8);\n\
             region.flush(64, 8);\n\
             region.fence();\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dead_flush_after_fence() {
        let f = run("fn dead(region: &R) {\n\
             region.write_pod(8, &1u64);\n\
             region.flush(8, 8);\n\
             region.fence();\n\
             region.flush(64, 8);\n\
             region.fence();\n\
             }");
        let hit = f
            .iter()
            .find(|x| x.rule == RULE_DEAD_FLUSH)
            .unwrap_or_else(|| panic!("expected dead-flush: {f:?}"));
        assert!(hit.msg.contains("no reaching store"), "{}", hit.msg);
        assert_eq!(hit.line, 5);
    }

    #[test]
    fn unflushed_store_before_fence_keeps_later_flush_alive() {
        // store(8) and store(64); only 8 flushed before the fence — the
        // later flush(64) covers the pre-fence store and is not dead.
        let f = run("fn ok(region: &R) {\n\
             region.write_pod(8, &1u64);\n\
             region.write_pod(64, &2u64);\n\
             region.flush(8, 8);\n\
             region.fence();\n\
             region.flush(64, 8);\n\
             region.fence();\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn fence_coalesce_adjacent_fences() {
        let f = run("fn twice(region: &R) {\n\
             region.write_pod(8, &1u64);\n\
             region.persist(8, 8);\n\
             region.fence();\n\
             }");
        let hit = f
            .iter()
            .find(|x| x.rule == RULE_FENCE_COALESCE)
            .unwrap_or_else(|| panic!("expected fence-coalesce: {f:?}"));
        assert!(
            hit.msg.contains("no intervening flushed store"),
            "{}",
            hit.msg
        );
        assert_eq!(hit.line, 4);
    }

    #[test]
    fn fence_after_flushed_store_is_clean() {
        let f = run("fn ok(region: &R) {\n\
             region.write_pod(8, &1u64);\n\
             region.persist(8, 8);\n\
             region.write_pod(64, &2u64);\n\
             region.persist(64, 8);\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn branch_arms_are_not_paired() {
        // Both arms persist the same line; the linear reading must not
        // pair them across the `else`.
        let f = run("fn arms(region: &R, a: bool) {\n\
             region.write_pod(8, &1u64);\n\
             if a {\n\
             region.persist(8, 8);\n\
             } else {\n\
             region.persist(8, 8);\n\
             }\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn redundant_flush_through_helper_chain() {
        let f = run("fn seal(region: &R) { region.flush(8, 8); }\n\
             fn caller(region: &R) {\n\
             region.write_pod(8, &1u64);\n\
             seal(region);\n\
             region.flush(8, 8);\n\
             region.fence();\n\
             }");
        let hit = f
            .iter()
            .find(|x| x.rule == RULE_REDUNDANT_FLUSH)
            .unwrap_or_else(|| panic!("expected interprocedural redundant-flush: {f:?}"));
        assert!(hit.msg.contains("via call to `seal`"), "{}", hit.msg);
        assert_eq!(hit.file, "crates/x/src/lib.rs");
        assert_eq!(hit.line, 5, "anchored at the caller's second flush");
    }

    #[test]
    fn helper_internal_pattern_charged_once() {
        // The defect lives inside the helper; the two callers must not
        // duplicate the report.
        let f = run("fn twice(region: &R) {\n\
             region.write_pod(8, &1u64);\n\
             region.flush(8, 8);\n\
             region.flush(8, 8);\n\
             region.fence();\n\
             }\n\
             fn a(region: &R) { twice(region); }\n\
             fn b(region: &R) { twice(region); }");
        let hits: Vec<_> = f
            .iter()
            .filter(|x| x.rule == RULE_REDUNDANT_FLUSH)
            .collect();
        assert_eq!(hits.len(), 1, "{f:?}");
    }

    #[test]
    fn store_u64_release_counts_as_store() {
        // The release publish store keeps the following persist alive.
        let f = run("fn publish(region: &R) {\n\
             region.write_pod(64, &1u64);\n\
             region.persist(64, 8);\n\
             region.store_u64_release(8, 2u64);\n\
             region.persist(8, 8);\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn pure_read_path_is_clean() {
        let f = run("// pmlint: read-path\n\
             fn scan(region: &R) -> u64 { region.read_pod(8) }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn read_path_reaching_persist_is_reported() {
        let f = run(
            "fn refresh(region: &R) { region.write_pod(8, &1u64); region.persist(8, 8); }\n\
             // pmlint: read-path\n\
             fn scan(region: &R) -> u64 { refresh(region); region.read_pod(8) }\n",
        );
        let hit = f
            .iter()
            .find(|x| x.rule == RULE_READ_PATH_PURITY)
            .unwrap_or_else(|| panic!("expected read-path-purity: {f:?}"));
        assert!(hit.msg.contains("`scan`"), "{}", hit.msg);
        assert!(hit.msg.contains("path:"), "{}", hit.msg);
    }

    #[test]
    fn read_path_taking_lock_is_reported() {
        let f = run("// pmlint: read-path\n\
             fn lookup(&self) -> u64 { let g = self.state.lock(); 0 }\n");
        let hit = f
            .iter()
            .find(|x| x.rule == RULE_READ_PATH_PURITY)
            .unwrap_or_else(|| panic!("expected read-path-purity: {f:?}"));
        assert!(hit.msg.contains("lock acquisition"), "{}", hit.msg);
    }
}
