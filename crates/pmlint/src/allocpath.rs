//! The `alloc-unwrap` rule: no panicking construct in any fn that can
//! observe an allocation failure.
//!
//! Capacity exhaustion is a *normal* runtime condition for an engine
//! steering by watermarks: every allocation primitive — heap reserve /
//! activate, bump allocation, log append / sync — returns a typed
//! out-of-space error, and every caller up the chain must unwind with it,
//! never abort. The rule computes the reverse call-graph closure of the
//! allocation primitives and runs the panic scan (`.unwrap()` /
//! `.expect(..)` and panic macros) over every fn inside it.
//!
//! Reachability is name-based over [`CallGraph`] — deliberately
//! over-approximate (a fn that *might* call an allocation primitive is
//! held to the no-panic bar), matching the soundness posture of the other
//! interprocedural rules.

use crate::callgraph::{fixpoint, CallGraph, Summary};
use crate::hir::{Event, HirProgram};
use crate::rules::{panic_scan, Finding, NoPanic};

/// Rule identifier.
pub const RULE_ALLOC_UNWRAP: &str = "alloc-unwrap";

/// The workspace's allocation primitives, as `(crate, fn-name)` seeds.
/// An empty crate component matches any crate (used by tests).
pub const ALLOC_SEEDS: &[(&str, &str)] = &[
    ("nvm", "reserve"),
    ("nvm", "activate"),
    ("nvm", "alloc"),
    ("nvm", "alloc_attempt"),
    ("wal", "append"),
    ("wal", "sync"),
];

/// `Some(witness)` once the fn can observe an allocation error; the
/// witness names the call that carries the error in.
impl Summary for Option<String> {
    type Facts = bool;
    fn facts(&self) -> bool {
        self.is_some()
    }
}

/// Append the `alloc-unwrap` findings of `prog` for the given seeds.
pub(crate) fn analyze(
    prog: &HirProgram,
    graph: &CallGraph,
    seeds: &[(&str, &str)],
    findings: &mut Vec<Finding>,
) {
    let observes = fixpoint(prog, |f, observes: &[Option<String>]| {
        let seed = |&(krate, name): &(&str, &str)| {
            (krate.is_empty() || f.krate == krate) && f.name == name
        };
        if observes[f.id].is_some() {
            return observes[f.id].clone();
        }
        if seeds.iter().any(seed) {
            return Some("is an allocation primitive".to_owned());
        }
        f.events.iter().find_map(|e| {
            let Event::Call(c) = e else { return None };
            let hit = graph
                .resolve(prog, f, c)
                .into_iter()
                .any(|id| observes[id].is_some());
            hit.then(|| format!("calls `{}`", c.name))
        })
    });
    for (f, witness) in prog.fns.iter().zip(&observes) {
        // Whole integration-test / bench / example files may unwrap freely.
        let test_file = ["/tests/", "/benches/", "/examples/"]
            .iter()
            .any(|d| f.file.contains(d));
        if let (Some(witness), false) = (witness, test_file) {
            panic_scan(f, NoPanic::Alloc(witness), findings);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hir::build_program;

    const SEEDS: &[(&str, &str)] = &[("", "reserve")];

    fn run_with(src: &str, seeds: &[(&str, &str)]) -> Vec<Finding> {
        let prog = build_program(&[("crates/x/src/lib.rs".to_owned(), src.to_owned())]);
        let mut findings = Vec::new();
        analyze(&prog, &CallGraph::build(&prog), seeds, &mut findings);
        findings
    }

    fn run(src: &str) -> Vec<Finding> {
        run_with(src, SEEDS)
    }

    #[test]
    fn flags_unwrap_in_direct_caller() {
        let f = run("fn reserve(n: u64) -> Result<u64, E> { Ok(n) }\n\
                     fn commit() { let r = reserve(8).unwrap(); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE_ALLOC_UNWRAP);
        assert_eq!(f[0].line, 2);
        assert!(f[0].msg.contains("`commit`"));
    }

    #[test]
    fn flags_panic_macro_two_frames_up() {
        let f = run("fn reserve(n: u64) -> Result<u64, E> { Ok(n) }\n\
                     fn grow() -> Result<u64, E> { reserve(8) }\n\
                     fn insert() { if grow().is_err() { panic!(\"full\"); } }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        assert!(f[0].msg.contains("`insert`"));
    }

    #[test]
    fn ignores_fns_outside_the_closure() {
        let f = run("fn reserve(n: u64) -> Result<u64, E> { Ok(n) }\n\
                     fn lookup() -> u64 { maybe().unwrap() }\n\
                     fn maybe() -> Option<u64> { Some(1) }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn ignores_test_fns() {
        let f = run("fn reserve(n: u64) -> Result<u64, E> { Ok(n) }\n\
                     #[cfg(test)] mod t { fn check() { super::reserve(8).unwrap(); } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn crate_scoped_seeds_do_not_match_other_crates() {
        let f = run_with(
            "fn reserve(n: u64) -> u64 { n }\nfn go() { let v = reserve(8); other().unwrap(); }\nfn other() -> Option<u64> { None }",
            &[("nvm", "reserve")],
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
