//! P0 — pmlint whole-tree analysis must stay interactive.
//!
//! The analyzer runs on every CI push and is meant to be part of the inner
//! development loop, so its full-tree runtime (`lint_tree`: each file
//! lexed and parsed once, the token rules and the panic scan, the protocol
//! checks, then every interprocedural pass over one program and one call
//! graph) is a budgeted quantity: the median of the harness's repetitions
//! must stay under 10 seconds or the experiment fails.

use std::path::Path;
use std::time::Instant;

use crate::harness::{Row, Run};

const BUDGET_SECS: f64 = 10.0;

pub fn run(h: &mut Run) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut cfg = pmlint::Config::tree_default();
    pmlint::load_suppressions(&root, &mut cfg);

    let rows = h.measure(|| {
        let t0 = Instant::now();
        let findings = pmlint::lint_tree(&root, &cfg).map_err(|e| format!("lint_tree: {e}"))?;
        Ok(vec![Row::new()
            .with("bench", "pmlint_full_tree")
            .with("budget_s", format!("{BUDGET_SECS:.1}"))
            .with("findings", findings.len())
            .wall("lint_s", t0.elapsed().as_secs_f64(), 3)])
    });
    let median = rows.first().and_then(|r| r.get("lint_s")?.parse().ok());
    let median: f64 = median.unwrap_or(f64::INFINITY);
    h.table("p0_pmlint_runtime", rows);

    if median > BUDGET_SECS {
        h.fail(format_args!(
            "median {median:.3}s exceeds the {BUDGET_SECS:.1}s budget"
        ));
    }
}
