//! Lint configuration: which files/fns are recovery- or replay-critical,
//! and which findings are suppressed.

/// One recovery/replay-critical scope: a file, optionally narrowed to a
/// set of fns within it.
#[derive(Debug, Clone)]
pub struct CriticalScope {
    /// Path suffix that selects the file (forward slashes).
    pub file_suffix: String,
    /// `None` = the whole file is critical; `Some(fns)` = only these fns.
    pub fns: Option<Vec<String>>,
}

impl CriticalScope {
    /// Whole-file critical scope.
    pub fn whole_file(suffix: &str) -> CriticalScope {
        CriticalScope {
            file_suffix: suffix.to_owned(),
            fns: None,
        }
    }

    /// Critical scope narrowed to named fns.
    pub fn fns(suffix: &str, fns: &[&str]) -> CriticalScope {
        CriticalScope {
            file_suffix: suffix.to_owned(),
            fns: Some(fns.iter().map(|s| (*s).to_owned()).collect()),
        }
    }
}

/// Linter configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Recovery/replay-critical scopes (drives `recovery-unwrap`,
    /// `recovery-panic`, `recovery-indexing`).
    pub critical: Vec<CriticalScope>,
    /// Suppressions: `(rule, path-suffix)` pairs dropped from the final
    /// finding list (loaded from `pmlint.suppress`).
    pub suppressions: Vec<(String, String)>,
}

impl Config {
    /// An empty config: no critical scopes, no suppressions.
    pub fn empty() -> Config {
        Config {
            critical: Vec::new(),
            suppressions: Vec::new(),
        }
    }

    /// The workspace's critical-path map: the recovery ladder, catalogue
    /// attach, WAL replay + checkpoint decode, the DRAM engine's restart,
    /// and the redo log — every fn that runs against arbitrary post-crash
    /// bytes.
    pub fn tree_default() -> Config {
        Config {
            critical: vec![
                CriticalScope::whole_file("crates/wal/src/recovery.rs"),
                CriticalScope::whole_file("crates/core/src/redo_log.rs"),
                CriticalScope::fns(
                    "crates/core/src/db.rs",
                    &[
                        "restart",
                        "finish_restart",
                        "materialize_scheduled_crash",
                        "restart_scheduled",
                        "restart_scheduled_traced",
                        "recover_nv",
                        "attach_with_ladder",
                        "attach_index",
                        "retry_poisoned",
                        "is_transient_poison",
                    ],
                ),
                CriticalScope::fns("crates/core/src/backend_dram.rs", &["restarted"]),
                CriticalScope::fns(
                    "crates/core/src/backend_nv.rs",
                    &[
                        "attach",
                        "attach_parts",
                        "checkpoint",
                        "copy_versions",
                        "index_entries",
                        "swap_table_root",
                        "swap_index_desc",
                        "into_backend",
                        "begin_recovery_attempt",
                        "finish_recovery_attempt",
                    ],
                ),
                CriticalScope::fns("crates/core/src/txn_registry.rs", &["open", "recover"]),
                CriticalScope::fns(
                    "crates/wal/src/checkpoint.rs",
                    &[
                        "load_checkpoint",
                        "take_bytes",
                        "decode_main",
                        "decode_delta",
                    ],
                ),
            ],
            suppressions: Vec::new(),
        }
    }

    /// Parse a `pmlint.suppress` file: one `rule path-suffix` pair per
    /// line, `#` comments and blank lines ignored.
    pub fn parse_suppressions(text: &str) -> Vec<(String, String)> {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let mut it = l.split_whitespace();
                Some((it.next()?.to_owned(), it.next()?.to_owned()))
            })
            .collect()
    }

    /// Is `(rule, file)` suppressed?
    pub fn is_suppressed(&self, rule: &str, file: &str) -> bool {
        let norm = file.replace('\\', "/");
        self.suppressions
            .iter()
            .any(|(r, suffix)| r == rule && norm.ends_with(suffix.as_str()))
    }

    /// Critical-fn lookup: `None` = file not critical, `Some(None)` =
    /// whole file, `Some(Some(fns))` = only the named fns.
    pub fn critical_fns(&self, path: &str) -> Option<Option<&Vec<String>>> {
        let norm = path.replace('\\', "/");
        self.critical
            .iter()
            .find(|c| norm.ends_with(&c.file_suffix))
            .map(|c| c.fns.as_ref())
    }
}
