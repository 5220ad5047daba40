//! Crash-torture harness: hammer a seeded workload with ≥100 sampled crash
//! points (exact fence boundaries plus adversarial mid-epoch survival
//! subsets) and verify four invariants after every recovery:
//!
//! 1. **Committed-prefix durability** — every commit published at or before
//!    the recovered `last_cts` is fully visible.
//! 2. **No uncommitted effects** — nothing beyond that prefix is visible,
//!    and no pending MVCC markers survive.
//! 3. **Allocator leak-freedom** — no heap block is left mid-protocol
//!    (`Reserved`/`Activating`/`Deactivating`).
//! 4. **Index↔table agreement** — persistent indexes and base tables agree
//!    on every reachable row.
//!
//! Workload, oracle, scenario and checker are `hyrise_nv::torture`'s; this
//! suite owns the sampling and the shrinking. Failures shrink to the
//! smallest crash fence that reproduces them and are written as a replay
//! artifact (`seed` + crash point) under `results/`. Point count and case
//! count scale with the `CRASH_TORTURE_POINTS` / `CRASH_TORTURE_CASES`
//! environment variables so CI can run a quick smoke while local runs go
//! deeper.

use hyrise_nv::torture::{
    crash_scenario, env_usize, gen_workload, protocol_run, protocol_scenario, sim_config,
    traced_run, write_repro, Adversity, ProtocolOp, Recovered, TortureTxn, TortureViolation,
};
use nvm::{CrashPoint, CrashSchedule, MidEpochSurvival};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Replay the seeded workload with `point` armed, recover, and check all
/// four invariants.
fn replay(
    seed: u64,
    txns: &[TortureTxn],
    point: CrashPoint,
) -> Result<Recovered, TortureViolation> {
    crash_scenario(sim_config(false), seed, txns, point, &[], Adversity::None)
}

/// Reference run: how many fences the workload issues.
fn total_fences(seed: u64, txns: &[TortureTxn]) -> u64 {
    let (_db, _t, region, _snaps) =
        traced_run(sim_config(false), seed, txns, Adversity::None, None).unwrap();
    let fences = region.trace_stop().unwrap().fences;
    assert!(fences > 0);
    fences
}

/// Shrink a failing point to the smallest fence boundary that still
/// violates an invariant (bounded scan; falls back to the original point
/// when only the adversarial survival subset reproduces it).
fn shrink(seed: u64, txns: &[TortureTxn], original: CrashPoint) -> (CrashPoint, TortureViolation) {
    let limit = original.trip_fence().min(128);
    for fence in 1..=limit {
        let p = CrashPoint::AtFence { fence };
        if let Err(v) = replay(seed, txns, p) {
            return (p, v);
        }
    }
    let v = replay(seed, txns, original)
        .err()
        .expect("failure must reproduce");
    (original, v)
}

#[test]
fn torture_sampled_crash_points_uphold_invariants() {
    let cases = env_usize("CRASH_TORTURE_CASES", 2) as u64;
    let points_per_case = env_usize("CRASH_TORTURE_POINTS", 100);

    for case in 0..cases {
        let seed = 0x7011_7012u64 ^ (case << 8);
        let txns = gen_workload(seed);
        let points = CrashSchedule::sample(total_fences(seed, &txns), points_per_case, seed ^ 0xA4);
        let mut lints = 0usize;
        for (i, point) in points.iter().enumerate() {
            match replay(seed, &txns, *point) {
                Ok(r) => lints += r.report.lint_findings.len(),
                Err(_) => {
                    let (shrunk, v) = shrink(seed, &txns, *point);
                    write_repro(
                        "crash_torture_repro.jsonl",
                        "crash_torture",
                        seed,
                        &[
                            ("original_point", &format!("{point:?}")),
                            ("shrunk_point", &format!("{shrunk:?}")),
                            ("shrunk_fence", &shrunk.trip_fence().to_string()),
                            ("invariant", v.invariant),
                            ("detail", &v.detail),
                        ],
                    );
                    panic!(
                        "case {case} seed {seed:#x} point {i}/{} {point:?}: invariant \
                         `{}` violated (shrunk to {shrunk:?}, repro written to \
                         results/crash_torture_repro.jsonl): {}",
                        points.len(),
                        v.invariant,
                        v.detail
                    );
                }
            }
        }
        // Lint findings during recovery are informational here, not
        // failures: the MVCC undo pass deliberately reads stamp words whose
        // last store was torn away (line atomicity guarantees it sees valid
        // old-or-new data, and the registry repairs the row either way).
        // The linter's bug-catching contract is covered by the dedicated
        // missing-flush regression test in the nvm crate.
        eprintln!(
            "case {case}: {} crash points survived, {lints} recovery-time lint reads",
            points.len()
        );
    }
}

/// Same seed + same crash point ⇒ byte-identical surviving image and
/// identical recovered watermark.
#[test]
fn scheduled_crashes_replay_deterministically() {
    let seed = 0xD37377u64;
    let txns = gen_workload(seed);
    for point in CrashSchedule::sample(total_fences(seed, &txns), 6, seed) {
        let a = replay(seed, &txns, point).unwrap().report;
        let b = replay(seed, &txns, point).unwrap().report;
        assert_eq!(
            a.scheduled.unwrap().image_hash,
            b.scheduled.unwrap().image_hash,
            "{point:?}: surviving image differs"
        );
        assert_eq!(
            a.last_cts, b.last_cts,
            "{point:?}: recovered watermark differs"
        );
    }
}

/// Exhaustive sweep over *every* fence boundary of a short workload — the
/// committed-prefix property must hold at each one.
#[test]
fn every_fence_boundary_of_short_workload_is_safe() {
    let seed = 0xFE7CEu64;
    let txns: Vec<TortureTxn> = gen_workload(seed).into_iter().take(4).collect();
    for point in CrashSchedule::enumerate_fences(total_fences(seed, &txns)) {
        replay(seed, &txns, point).unwrap_or_else(|v| {
            panic!(
                "{point:?}: invariant `{}` violated: {}",
                v.invariant, v.detail
            )
        });
    }
}

/// The write-side protocols are short — a handful of fences per transaction,
/// one drain and one publish plus the allocator's own per merge — so their
/// crash points are enumerated, not sampled: every fence boundary, and every
/// epoch with none, all, and eight seeded random subsets of its in-flight
/// lines surviving. Wide epochs (a whole index build, every row of a
/// transaction) are exactly what the subsets probe. On both the plain NVM
/// engine and the one with the recovery ladder.
#[test]
fn every_crash_point_of_the_write_protocols_is_safe() {
    let seed = 0x5747_4147u64;
    for wal in [false, true] {
        for op in [ProtocolOp::Merge, ProtocolOp::Update, ProtocolOp::Insert256] {
            let (_db, _t, region, _snaps) = protocol_run(sim_config(wal), seed, op, None).unwrap();
            let fences = region.trace_stop().unwrap().fences;
            let survivals = [MidEpochSurvival::None, MidEpochSurvival::All]
                .into_iter()
                .chain((0..8).map(|s| MidEpochSurvival::Random {
                    p: 0.5,
                    seed: seed ^ s,
                }));
            let points: Vec<CrashPoint> = CrashSchedule::enumerate_fences(fences)
                .chain(
                    survivals
                        .flat_map(|survival| CrashSchedule::enumerate_epochs(fences, survival)),
                )
                .collect();
            // Workers take points in index order and stop taking once one has
            // failed: every lower index is then already in some worker's
            // hands, so the lowest recorded index is the first violation.
            let next = AtomicUsize::new(0);
            let failed = Mutex::new(None);
            let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= points.len() || failed.lock().unwrap().is_some() {
                            break;
                        }
                        if let Err(v) = protocol_scenario(sim_config(wal), seed, op, points[i]) {
                            let mut first = failed.lock().unwrap();
                            if first.as_ref().is_none_or(|(j, _)| i < *j) {
                                *first = Some((i, v));
                            }
                        }
                    });
                }
            });
            if let Some((i, v)) = failed.into_inner().unwrap() {
                let point = points[i];
                write_repro(
                    "crash_torture_repro.jsonl",
                    "protocol_enumeration",
                    seed,
                    &[
                        ("op", &format!("{op:?}")),
                        ("wal", &wal.to_string()),
                        ("point", &format!("{point:?}")),
                        ("invariant", v.invariant),
                        ("detail", &v.detail),
                    ],
                );
                panic!(
                    "{op:?} wal={wal} {point:?} of {fences} fences: invariant `{}` \
                     violated (repro written to results/crash_torture_repro.jsonl): {}",
                    v.invariant, v.detail
                );
            }
            let n = points.len();
            eprintln!("{op:?} wal={wal}: {fences} fences, {n} crash points survived");
        }
    }
}
