//! Lint-engine coverage: every rule is exercised by a fixture with one
//! seeded violation, asserted with its exact source span, plus a
//! zero-findings run over the real workspace tree.

use std::path::Path;

use pmlint::{lint_source, media_findings, Config, CriticalScope, Finding};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// Config marking fn `recover` in the given fixture as recovery-critical.
fn critical_cfg(file: &str) -> Config {
    Config {
        critical: vec![CriticalScope::fns(file, &["recover"])],
        ..Config::empty()
    }
}

fn lint_fixture(name: &str, cfg: &Config) -> Vec<Finding> {
    lint_source(name, &fixture(name), cfg).0
}

#[track_caller]
fn assert_single(findings: &[Finding], rule: &str, line: u32, col: u32) {
    assert_eq!(
        findings.len(),
        1,
        "expected exactly one finding, got: {findings:?}"
    );
    let f = &findings[0];
    assert_eq!(f.rule, rule, "wrong rule: {f:?}");
    assert_eq!((f.line, f.col), (line, col), "wrong span: {f:?}");
}

#[test]
fn detects_raw_nvm_write_and_honours_flush_helper() {
    // The annotated twin of the violating fn must NOT be flagged.
    let findings = lint_fixture("raw_write.rs", &Config::empty());
    assert_single(&findings, "raw-nvm-write", 6, 19);
}

#[test]
fn detects_unwrap_on_critical_path() {
    let findings = lint_fixture("recovery_unwrap.rs", &critical_cfg("recovery_unwrap.rs"));
    assert_single(&findings, "recovery-unwrap", 4, 7);
}

#[test]
fn unwrap_is_allowed_outside_critical_scope() {
    let findings = lint_fixture("recovery_unwrap.rs", &Config::empty());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn detects_panic_on_critical_path() {
    let findings = lint_fixture("recovery_panic.rs", &critical_cfg("recovery_panic.rs"));
    assert_single(&findings, "recovery-panic", 6, 14);
}

#[test]
fn detects_indexing_on_critical_path() {
    let findings = lint_fixture(
        "recovery_indexing.rs",
        &critical_cfg("recovery_indexing.rs"),
    );
    assert_single(&findings, "recovery-indexing", 4, 6);
}

#[test]
fn detects_pod_impl_without_repr_c() {
    let findings = lint_fixture("pod_repr.rs", &Config::empty());
    assert_single(&findings, "pod-repr-c", 13, 21);
}

#[test]
fn detects_pod_impl_without_padding_assert() {
    let findings = lint_fixture("pod_padding.rs", &Config::empty());
    assert_single(&findings, "pod-padding-assert", 11, 21);
}

#[test]
fn detects_unsafe_without_safety_comment() {
    let findings = lint_fixture("unsafe_no_safety.rs", &Config::empty());
    assert_single(&findings, "unsafe-safety-comment", 4, 5);
}

/// Both firing modes of the FFI rule, span-asserted: the block-level
/// finding anchors on `extern`, the per-fn finding on the raw-pointer
/// foreign fn's name. The SAFETY-annotated twin block and the
/// `extern "C" fn` definition in the same fixture must stay clean.
#[test]
fn detects_ffi_without_safety_comments() {
    let findings = lint_fixture("ffi_no_safety.rs", &Config::empty());
    assert_eq!(
        findings.len(),
        2,
        "expected exactly two findings: {findings:?}"
    );
    assert_eq!(findings[0].rule, "ffi-safety-comment");
    assert_eq!(
        (findings[0].line, findings[0].col),
        (5, 1),
        "wrong block span: {:?}",
        findings[0]
    );
    assert!(findings[0].msg.contains("foreign `extern` block"));
    assert_eq!(findings[1].rule, "ffi-safety-comment");
    assert_eq!(
        (findings[1].line, findings[1].col),
        (6, 8),
        "wrong fn span: {:?}",
        findings[1]
    );
    assert!(findings[1].msg.contains("`memmove`"));
}

#[test]
fn detects_get_unchecked() {
    let findings = lint_fixture("get_unchecked.rs", &Config::empty());
    assert_single(&findings, "no-get-unchecked", 5, 17);
}

#[test]
fn detects_unregistered_checksummed_labels() {
    let (findings, facts) = lint_source(
        "media_extents.rs",
        &fixture("media_extents.rs"),
        &Config::empty(),
    );
    assert!(findings.is_empty(), "{findings:?}");
    let media = media_findings(&[("media_extents.rs".to_owned(), facts)]);
    let missing: Vec<&str> = media
        .iter()
        .map(|f| {
            assert_eq!(f.rule, "publish-once-media");
            f.msg.as_str()
        })
        .collect();
    assert_eq!(media.len(), 2, "{missing:?}");
    assert!(media.iter().any(|f| f.msg.contains("\"main-dict\"")));
    assert!(media.iter().any(|f| f.msg.contains("\"main-blob\"")));
}

/// The recovery-progress helpers added for re-entrant recovery are
/// recovery-critical: an `.unwrap()` inside them is flagged exactly like
/// one in `recover` (combinators like `.unwrap_or` stay allowed).
#[test]
fn detects_unwrap_in_recovery_progress_helpers() {
    let cfg = Config {
        critical: vec![CriticalScope::fns(
            "recovery_progress.rs",
            &["begin_recovery_attempt", "finish_recovery_attempt"],
        )],
        ..Config::empty()
    };
    let findings = lint_fixture("recovery_progress.rs", &cfg);
    assert_single(&findings, "recovery-unwrap", 6, 11);
}

/// An item annotation covers the item directly below its comment block and
/// nothing further: `b` sits on the line after the annotated `a`, so its
/// escaping store is still a finding.
#[test]
fn caller_flushes_covers_only_the_next_fn() {
    let src = "// pmlint: caller-flushes\n\
               fn a(region: &R) { region.write_pod(8, &1u64); }\n\
               fn b(region: &R) { region.write_pod(16, &1u64); }\n";
    let findings = pmlint::analyze_sources(
        &[("crates/x/src/lib.rs".to_owned(), src.to_owned())],
        &pmlint::AnalysisCtx::bare(&[]),
    );
    assert_single(&findings, "unflushed-escape", 3, 27);
}

/// Attribute lines between an annotation and its item are skipped by every
/// rule, `raw-nvm-write` included.
#[test]
fn flush_helper_above_an_attribute_is_honoured() {
    let src = "// pmlint: flush-helper\n\
               #[inline]\n\
               fn put(p: *mut u8) {\n\
               \x20   // SAFETY: test fixture.\n\
               \x20   unsafe { core::ptr::write(p, 1) }\n\
               }\n";
    let (findings, _) = lint_source("crates/x/src/lib.rs", src, &Config::empty());
    assert!(findings.is_empty(), "{findings:?}");
}

/// The recovery-phase protocols (attempt accounting, undo-pass slot
/// release) are registered — a registry row is valid by construction — and
/// contribute their publish labels to the annotation binding set.
#[test]
fn recovery_phase_specs_registered_and_validate() {
    let specs = nvm::protocol_registry();
    for name in ["recovery-progress", "recovery-undo-release"] {
        assert!(
            specs.iter().any(|s| s.name == name),
            "spec {name} missing from registry"
        );
    }
    let labels = nvm::publish_labels();
    assert!(labels.contains(&"recovery-progress"));
    assert!(labels.contains(&"registry-slot-clear"));
}

/// Every `(file, fn)` the critical map names is a fn item of that file: a
/// rename or a move that forgets the map would otherwise silently drop the
/// fn's `recovery-*` coverage.
#[test]
fn critical_map_resolves_to_fn_items() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for scope in Config::tree_default().critical {
        let source = std::fs::read_to_string(root.join(&scope.file_suffix))
            .unwrap_or_else(|e| panic!("critical file {}: {e}", scope.file_suffix));
        let prog = pmlint::build_program(&[(scope.file_suffix.clone(), source)]);
        for name in scope.fns.iter().flatten() {
            assert!(
                prog.fns.iter().any(|f| f.name == *name),
                "critical fn `{name}` is not an item of {}",
                scope.file_suffix
            );
        }
    }
}

#[test]
fn clean_tree_has_zero_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = pmlint::lint_tree(&root, &Config::tree_default()).unwrap();
    assert!(
        findings.is_empty(),
        "tree is expected to be lint-clean, found:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
