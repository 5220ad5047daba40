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
//!
//! Run: `cargo run --release -p hyrise-nv-bench --bin a7_recovery_torture`
//! (`--quick` shrinks the sweep for CI).

use benchkit::{print_table, write_json, Row};
use hyrise_nv::torture::{crash_scenario, gen_workload, sim_config, traced_run, Adversity};
use nvm::CrashSchedule;

/// One sweep class: a recovery-torture scenario class (`wal`, `adversity`)
/// at nesting depths 1–3.
fn run_class(
    name: &str,
    wal: bool,
    adversity: Adversity,
    chains: usize,
    seed_base: u64,
) -> (Vec<Row>, u64) {
    let mut rows = Vec::new();
    let mut failures = 0u64;
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
                    failures += 1;
                    eprintln!(
                        "DIVERGENCE: class {name} depth {depth} seed {seed:#x} {p0:?} + {nested:?}"
                    );
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
                .with("worst_recover_ms", format!("{:.3}", worst_s * 1e3))
                .with(
                    "mean_recover_ms",
                    format!("{:.3}", sum_s * 1e3 / chains as f64),
                )
                .with("recovery_fences_per_chain", fences / chains as u64)
                .with("recovery_flushes_per_chain", flushes / chains as u64)
                .with("lint_reads", lints),
        );
    }
    (rows, failures)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let chains = if quick { 4 } else { 25 };

    let mut all = Vec::new();
    let mut failures = 0u64;
    for (name, wal, adversity, base) in [
        ("nvm-plain", false, Adversity::None, 0xA7_1001u64),
        ("nvm+shadow-wal", true, Adversity::None, 0xA7_1002u64),
        ("media-fault", true, Adversity::MediaFault, 0xA7_1003u64),
    ] {
        let (rows, f) = run_class(name, wal, adversity, chains, base);
        all.extend(rows);
        failures += f;
    }
    print_table(
        "A7: nested-crash recovery torture (convergence, re-entrant attempts, time-to-recovered)",
        &all,
    );
    write_json("a7_recovery_torture", &all);

    if failures > 0 {
        eprintln!("{failures} chains diverged from their single-crash oracle");
        std::process::exit(1);
    }
    println!("\nall chains converged to their single-crash oracles; recovery is re-entrant");
}
