//! The experiments, one module each, and the table that names them.

use crate::harness::Experiment;

mod a1_commit_protocol;
mod a2_alloc_recovery;
mod a3_registry_undo;
mod a4_crash_matrix;
mod a5_fault_ladder;
mod a6_exhaustion;
mod a7_recovery_torture;
mod e2_restart_timeline;
mod e4_latency_sensitivity;
mod e7_merge;
mod p0_pmlint_runtime;
mod p2_persist_cost;
mod restart;

/// Every experiment, in the order `all` runs them. A name is the
/// subcommand and the stem of `results/<name>.jsonl`.
#[rustfmt::skip]
pub const REGISTRY: &[Experiment] = &[
    Experiment { name: "restart", run: restart::run },
    Experiment { name: "e2_restart_timeline", run: e2_restart_timeline::run },
    Experiment { name: "e4_latency_sensitivity", run: e4_latency_sensitivity::run },
    Experiment { name: "e7_merge", run: e7_merge::run },
    Experiment { name: "a1_commit_protocol", run: a1_commit_protocol::run },
    Experiment { name: "a2_alloc_recovery", run: a2_alloc_recovery::run },
    Experiment { name: "a3_registry_undo", run: a3_registry_undo::run },
    Experiment { name: "a4_crash_matrix", run: a4_crash_matrix::run },
    Experiment { name: "a5_fault_ladder", run: a5_fault_ladder::run },
    Experiment { name: "a6_exhaustion", run: a6_exhaustion::run },
    Experiment { name: "a7_recovery_torture", run: a7_recovery_torture::run },
    Experiment { name: "p0_pmlint_runtime", run: p0_pmlint_runtime::run },
    Experiment { name: "p2_persist_cost", run: p2_persist_cost::run },
];

/// The experiments `name` selects: every one for `all`, else the one of
/// that full name or short id (`a4` of `a4_crash_matrix`).
pub fn select(name: &str) -> Vec<&'static Experiment> {
    let id = |e: &Experiment| e.name.split('_').next();
    let selects = |e: &&Experiment| name == "all" || e.name == name || id(e) == Some(name);
    REGISTRY.iter().filter(selects).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_ids_are_unique_and_resolve() {
        assert_eq!(select("all").len(), REGISTRY.len());
        for e in REGISTRY {
            let id = e.name.split('_').next().unwrap();
            for name in [e.name, id] {
                let selected: Vec<&str> = select(name).iter().map(|s| s.name).collect();
                assert_eq!(selected, [e.name], "{name} must select exactly {}", e.name);
            }
        }
        assert!(select("e3_runtime_overhead").is_empty() && select("e1").is_empty());
    }

    /// EXPERIMENTS.md names an experiment of this binary in a section
    /// heading as `` (`name`) ``; the set of those names is the registry's.
    #[test]
    fn experiments_md_headings_match_the_registry() {
        let doc = include_str!("../../../../EXPERIMENTS.md");
        let documented: BTreeSet<&str> = doc
            .lines()
            .filter(|l| l.starts_with("## "))
            .filter_map(|l| l.split_once("(`")?.1.split_once("`)"))
            .map(|(name, _)| name)
            .collect();
        let registered: BTreeSet<&str> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(documented, registered);
    }
}
