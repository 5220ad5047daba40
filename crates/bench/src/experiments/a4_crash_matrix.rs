//! A4 (ablation) — crash matrix: sweep deterministic crash points across a
//! transactional workload and report, per crash class, how recovery held
//! up: invariant verdicts, recovered-commit watermarks, lost cache lines,
//! and restart cost.
//!
//! Crash classes:
//! * `at-fence`    — power fails exactly at a fence boundary.
//! * `mid-none`    — mid-epoch, no in-flight write-back completed.
//! * `mid-all`     — mid-epoch, every in-flight write-back completed.
//! * `mid-random`  — mid-epoch, adversarial random surviving-line subsets.
//!
//! Every point runs [`hyrise_nv::torture::crash_scenario`] — the scenario
//! and four-invariant check of the crash-torture suite — so this table and
//! the test reach the same verdict on the same seed and point.

use crate::harness::{Row, Run};
use hyrise_nv::torture::{
    crash_scenario, gen_workload, sim_config, traced_run, Adversity, TortureTxn,
};
use nvm::{CrashPoint, CrashSchedule, MidEpochSurvival};
use util::rng::{Rng, SmallRng};

#[derive(Default)]
struct ClassStats {
    points: u64,
    violations: u64,
    lost_lines_total: u64,
    lint_reads: u64,
    recovery_wall_ns: u128,
    min_cts: u64,
    max_cts: u64,
}

/// One point of the matrix: the crash-torture suite's scenario, tabulated.
fn crash_once(h: &Run, seed: u64, txns: &[TortureTxn], point: CrashPoint, stats: &mut ClassStats) {
    stats.points += 1;
    match crash_scenario(sim_config(false), seed, txns, point, &[], Adversity::None) {
        Ok(rec) => {
            let outcome = rec
                .report
                .scheduled
                .expect("scheduled restart records outcome");
            stats.recovery_wall_ns += rec.wall.as_nanos();
            stats.lost_lines_total += outcome.lost_lines;
            stats.lint_reads += rec.report.lint_findings.len() as u64;
            stats.min_cts = stats.min_cts.min(rec.report.last_cts);
            stats.max_cts = stats.max_cts.max(rec.report.last_cts);
        }
        Err(v) => {
            stats.violations += 1;
            h.fail(format_args!(
                "violation at {point:?}: `{}`: {}",
                v.invariant, v.detail
            ));
        }
    }
}

pub fn run(h: &mut Run) {
    let (ntxns, per_class) = h.pick((24, 40), (10, 8));
    let seed = 0xA4_C0DE;
    let txns: Vec<TortureTxn> = gen_workload(seed).into_iter().take(ntxns).collect();

    // Reference run: fence count of the workload.
    let (_db, _t, region, _snaps) =
        traced_run(sim_config(false), seed, &txns, Adversity::None, None).unwrap();
    let total_fences = region.trace_stop().unwrap().fences;
    println!(
        "workload: {} txns, {total_fences} fences; {per_class} points/class",
        txns.len()
    );

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFACE);
    let mut fence_at = |i: usize| {
        // Spread points evenly, jittered, across the whole run.
        let stride = total_fences.max(1) / per_class as u64;
        (i as u64 * stride + rng.gen_range_u64(0, stride.max(1)) + 1).min(total_fences)
    };
    let at_fence: Vec<CrashPoint> = (0..per_class)
        .map(|i| CrashPoint::AtFence { fence: fence_at(i) })
        .collect();
    let mut mid = |survival| -> Vec<CrashPoint> {
        let epoch = |i| fence_at(i) - 1;
        let point = |epoch| CrashPoint::MidEpoch { epoch, survival };
        (0..per_class).map(epoch).map(point).collect()
    };
    let classes: Vec<(&str, Vec<CrashPoint>)> = vec![
        ("at-fence", at_fence),
        ("mid-none", mid(MidEpochSurvival::None)),
        ("mid-all", mid(MidEpochSurvival::All)),
        (
            "mid-random",
            CrashSchedule::sample(total_fences, per_class, seed ^ 0xD1CE)
                .into_iter()
                .map(|p| match p {
                    CrashPoint::AtFence { fence } => CrashPoint::MidEpoch {
                        epoch: fence - 1,
                        survival: MidEpochSurvival::Random {
                            p: 0.5,
                            seed: fence,
                        },
                    },
                    mid => mid,
                })
                .collect(),
        ),
    ];

    // Verdicts and counts repeat exactly; only the recovery time varies.
    let rows = h.measure(|| {
        let mut rows = Vec::new();
        for (name, points) in &classes {
            let mut stats = ClassStats {
                min_cts: u64::MAX,
                ..Default::default()
            };
            for point in points {
                crash_once(h, seed, &txns, *point, &mut stats);
            }
            rows.push(
                Row::new()
                    .with("class", name)
                    .with("points", stats.points)
                    .with("violations", stats.violations)
                    .with(
                        "avg_lost_lines",
                        format!("{:.1}", stats.lost_lines_total as f64 / stats.points as f64),
                    )
                    .with("lint_reads", stats.lint_reads)
                    .with("cts_min", stats.min_cts)
                    .with("cts_max", stats.max_cts)
                    .wall(
                        "avg_recovery_us",
                        stats.recovery_wall_ns as f64 / stats.points as f64 / 1e3,
                        1,
                    ),
            );
        }
        Ok(rows)
    });

    h.table("A4: crash matrix (scheduled crash points per class)", rows);
}
