#![warn(missing_docs)]

//! `pmlint` — static crash-consistency analysis for the workspace.
//!
//! Hand-rolled, zero registry dependencies, in the spirit of rustc's
//! `tidy`. One front end ([`hir`](crate)) lexes every file once, lifts
//! its non-test fn items into a small HIR and locates its test code; the
//! checks then read that:
//!
//! 1. **Protocol labels** — the checksummed labels the persist-order
//!    protocols in [`nvm::protocol_registry`] declare are cross-checked
//!    against the `media_extents` targeting maps in the source tree
//!    ([`media_findings`], rule `publish-once-media`). A registry row has
//!    the write path's fixed shape, so it needs no validation of its own.
//! 2. **Token rules** ([`lint_source`]) over every crate: no raw NVM
//!    writes outside flush-annotated helpers, `Pod` layout discipline,
//!    `// SAFETY:` comments on every `unsafe` and foreign block, no
//!    `get_unchecked`, and — through the one panic scan — no panicking
//!    construct on recovery/replay-critical fns.
//! 3. **Interprocedural passes** ([`analyze`]) over the engine crates'
//!    one program and one call graph, each a summary fixpoint through
//!    one driver: persist order and unflushed escapes, volatile-pointer
//!    taint, publish-label binding, atomics ordering and lock
//!    discipline, persistence cost and read-path purity, and
//!    `alloc-unwrap` (the panic scan over the reverse call-graph closure
//!    of the allocation primitives).
//!
//! The CLI (`cargo run -p pmlint -- --deny`) runs all of it over the
//! workspace and exits non-zero on any finding.

mod allocpath;
mod callgraph;
mod concurrency;
mod config;
mod cost;
mod dataflow;
mod explain;
mod hir;
mod lexer;
mod rules;
pub mod sarif;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

pub use allocpath::{ALLOC_SEEDS, RULE_ALLOC_UNWRAP};
pub use concurrency::{
    RULE_ATOMIC_ORDERING, RULE_GUARD_ESCAPE, RULE_LOCK_CYCLE, RULE_LOCK_HELD_PERSIST,
};
pub use config::{Config, CriticalScope};
pub use cost::{RULE_DEAD_FLUSH, RULE_FENCE_COALESCE, RULE_READ_PATH_PURITY, RULE_REDUNDANT_FLUSH};
pub use dataflow::{
    analyze, AnalysisCtx, RULE_PERSIST_ORDER, RULE_PUBLISH_BINDING, RULE_UNFLUSHED_ESCAPE,
    RULE_VOLATILE_ESCAPE,
};
pub use explain::{explain, explained_rules};
pub use hir::{build_program, HirFn, HirProgram};
pub use rules::{lint_source, FileFacts, Finding};

/// Every rule id pmlint emits (debug builds refuse a finding of any other).
pub const RULES: [&str; 25] = [
    "publish-once-media",
    "raw-nvm-write",
    "recovery-unwrap",
    "recovery-panic",
    "recovery-indexing",
    "pod-repr-c",
    "pod-padding-assert",
    "pod-interior-mutability",
    "unsafe-safety-comment",
    "send-sync-justification",
    "ffi-safety-comment",
    "no-get-unchecked",
    RULE_ALLOC_UNWRAP,
    RULE_PERSIST_ORDER,
    RULE_UNFLUSHED_ESCAPE,
    RULE_VOLATILE_ESCAPE,
    RULE_PUBLISH_BINDING,
    RULE_ATOMIC_ORDERING,
    RULE_LOCK_HELD_PERSIST,
    RULE_GUARD_ESCAPE,
    RULE_LOCK_CYCLE,
    RULE_REDUNDANT_FLUSH,
    RULE_DEAD_FLUSH,
    RULE_FENCE_COALESCE,
    RULE_READ_PATH_PURITY,
];

/// Where protocol-level findings (unbound labels) anchor.
const PROTOCOL_FILE: &str = "crates/nvm/src/protocol.rs";

/// Crates covered by the interprocedural analyses (the engine's
/// persistence-relevant call graph).
pub const ANALYZED_CRATES: &[&str] = &["nvm", "storage", "core", "txn", "wal", "index"];

/// Run the interprocedural analyses over an explicit set of
/// `(path, source)` pairs — the corpus-test entry point.
pub fn analyze_sources(files: &[(String, String)], ctx: &AnalysisCtx) -> Vec<Finding> {
    dataflow::analyze(&hir::build_program(files), ctx)
}

/// The analysis context for the real tree: publish labels from the nvm
/// protocol registry, with binding required. Every registry protocol
/// publishes with a release store, so every label is released.
pub fn tree_analysis_ctx() -> AnalysisCtx {
    let labels: Vec<String> = nvm::publish_labels()
        .into_iter()
        .map(str::to_owned)
        .collect();
    AnalysisCtx {
        known_labels: labels.clone(),
        released_labels: labels,
        check_publish_binding: true,
    }
}

/// Tree-level `publish-once-media` rule: every checksummed store label
/// declared by a protocol spec must be registered (as a string literal)
/// in some `media_extents` fn — otherwise the media verifier and the
/// fault-injection suites silently skip the structure.
pub fn media_findings(files: &[(String, FileFacts)]) -> Vec<Finding> {
    let mut registered: BTreeSet<String> = BTreeSet::new();
    let mut media_files: Vec<&str> = Vec::new();
    for (path, facts) in files {
        if let Some(labels) = &facts.media_labels {
            registered.extend(labels.iter().cloned());
            media_files.push(path);
        }
    }
    let mut findings = Vec::new();
    let anchor = media_files.first().copied().unwrap_or("<tree>");
    let mut checked: BTreeSet<&'static str> = BTreeSet::new();
    for spec in nvm::protocol_registry() {
        for (label, checksummed) in spec.store_labels() {
            if checksummed && checked.insert(label) && !registered.contains(label) {
                let msg = format!(
                    "checksummed protocol label {label:?} (spec {:?}) is not registered in any media_extents map",
                    spec.name
                );
                findings.push(Finding::new("publish-once-media", anchor, 1, 1, msg));
            }
        }
    }
    findings
}

/// Recursively collect `.rs` files under `dir`, skipping build output and
/// the linter's own seeded-violation fixtures.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<std::io::Result<Vec<_>>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name == "corpus" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint the whole workspace under `root`: every `.rs` file in `crates/`,
/// `tests/`, and `examples/` through the token rules, the media-registry
/// check, and the interprocedural passes over the engine crates — each
/// file lexed and parsed once.
pub fn lint_tree(root: &Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    let mut paths = Vec::new();
    for sub in ["crates", "tests", "examples"] {
        collect_rs_files(&root.join(sub), &mut paths)?;
    }
    let mut findings = Vec::new();
    let mut facts = Vec::new();
    let mut engine = Vec::new();
    for path in paths {
        let source = std::fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel = rel.to_string_lossy().replace('\\', "/");
        let file = hir::SourceFile::parse(&rel, &source);
        let (mut f, file_facts) = rules::lint_file(&file, cfg);
        findings.append(&mut f);
        facts.push((rel, file_facts));
        if ANALYZED_CRATES.contains(&hir::crate_of(&file.path).as_str()) {
            engine.extend(file.fns);
        }
    }
    findings.append(&mut media_findings(&facts));
    let prog = HirProgram::new(engine);
    findings.append(&mut dataflow::analyze(&prog, &tree_analysis_ctx()));
    findings.retain(|f| !cfg.is_suppressed(f.rule, &f.file));
    Ok(findings)
}

/// Load suppressions from `<root>/pmlint.suppress` into `cfg` (missing
/// file = no suppressions).
pub fn load_suppressions(root: &Path, cfg: &mut Config) {
    if let Ok(text) = std::fs::read_to_string(root.join("pmlint.suppress")) {
        cfg.suppressions.extend(Config::parse_suppressions(&text));
    }
}
