//! A7 (ablation) — crash-during-recovery torture: nested crash chains
//! scheduled inside recovery itself (depth 1–3), against plain NVM, NVM +
//! shadow WAL, and a media-fault composition. Per class the harness
//! records convergence (every chain must land in the single-crash
//! oracle's logical state), the deepest recovery-attempt number the
//! progress word reached, the worst and mean time-to-recovered of the
//! terminal power cycle, and the recovery-time persist traffic
//! (stores/flushes/fences) reported per phase by `RecoveryReport`.
//!
//! Every chain is [`hyrise_nv::torture::crash_scenario`], the scenario of
//! the recovery-torture suite. Enforced (non-zero exit on violation): the
//! four invariants after the terminal recovery, and convergence of every
//! chain to its oracle.

use crate::harness::{Row, Run};
use hyrise_nv::torture::{crash_scenario, gen_workload, sim_config, traced_run, Adversity};
use nvm::CrashSchedule;

/// One sweep class: a recovery-torture scenario class (`wal`, `adversity`)
/// at nesting depths 1–3.
fn run_class(
    h: &Run,
    name: &str,
    wal: bool,
    adversity: Adversity,
    chains: usize,
    seed_base: u64,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for depth in 1usize..=3 {
        let mut converged = 0usize;
        let mut max_attempt = 0u64;
        let mut worst_s = 0f64;
        let mut sum_s = 0f64;
        let mut fences = 0u64;
        let mut flushes = 0u64;
        let mut lints = 0usize;
        for c in 0..chains {
            let seed = seed_base.wrapping_add((depth as u64) << 32 | c as u64);
            let txns = gen_workload(seed);
            // Fence budget from a reference run of this seed.
            let (_db, _t, region, _snaps) =
                traced_run(sim_config(wal), seed, &txns, adversity, None).unwrap();
            let f_work = region.trace_stop().unwrap().fences.max(1);
            let p0 = CrashSchedule::sample(f_work, 1, seed ^ 0xA4)[0];
            let nested = if depth > 1 {
                // Recovery fence budgets are small; sample low fences so
                // most nested points land inside the re-entered recovery.
                CrashSchedule::sample(8, depth - 1, seed ^ 0xB7)
            } else {
                Vec::new()
            };

            let run = |nested| crash_scenario(sim_config(wal), seed, &txns, p0, nested, adversity);
            let chain = match (run(&[]), run(&nested)) {
                (Ok(oracle), Ok(chain))
                    if chain.state == oracle.state
                        && chain.report.last_cts == oracle.report.last_cts =>
                {
                    converged += 1;
                    chain
                }
                (oracle, chain) => {
                    h.fail(format_args!(
                        "divergence: class {name} depth {depth} seed {seed:#x} {p0:?} + {nested:?}"
                    ));
                    for v in [oracle.err(), chain.err()].into_iter().flatten() {
                        eprintln!("  `{}`: {}", v.invariant, v.detail);
                    }
                    continue;
                }
            };
            for phase in &chain.report.phases {
                flushes += phase.persist.flushes;
                fences += phase.persist.fences;
            }
            let wall_s = chain.wall.as_secs_f64();
            max_attempt = max_attempt.max(chain.report.attempt);
            worst_s = worst_s.max(wall_s);
            sum_s += wall_s;
            lints += chain.report.lint_findings.len();
        }
        rows.push(
            Row::new()
                .with("class", name)
                .with("depth", depth)
                .with("chains", chains)
                .with("converged", converged)
                .with("max_attempt", max_attempt)
                .with("recovery_fences_per_chain", fences / chains as u64)
                .with("recovery_flushes_per_chain", flushes / chains as u64)
                .with("lint_reads", lints)
                .wall("worst_recover_ms", worst_s * 1e3, 3)
                .wall("mean_recover_ms", sum_s * 1e3 / chains as f64, 3),
        );
    }
    rows
}

pub fn run(h: &mut Run) {
    let chains = h.pick(25, 4);

    let mut all = Vec::new();
    for (name, wal, adversity, base) in [
        ("nvm-plain", false, Adversity::None, 0xA7_1001u64),
        ("nvm+shadow-wal", true, Adversity::None, 0xA7_1002u64),
        ("media-fault", true, Adversity::MediaFault, 0xA7_1003u64),
    ] {
        // Convergence and persist traffic repeat exactly per seed; only
        // the time-to-recovered varies.
        all.extend(h.measure(|| Ok(run_class(h, name, wal, adversity, chains, base))));
    }
    h.table(
        "A7: nested-crash recovery torture (convergence, re-entrant attempts, time-to-recovered)",
        all,
    );
}
