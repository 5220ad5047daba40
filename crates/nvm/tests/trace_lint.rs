//! Persist-trace recording, crash scheduling, and the missing-flush linter.
//!
//! These tests exercise the raw region-level machinery; the engine-level
//! crash matrix lives in `tests/integration_crash_torture.rs` at the
//! workspace root.

use nvm::{
    CrashPoint, CrashPolicy, CrashSchedule, LatencyModel, MidEpochSurvival, NvmError, NvmRegion,
    TraceConfig, TraceEvent, CACHE_LINE,
};

fn region() -> NvmRegion {
    NvmRegion::new(1 << 16, LatencyModel::zero())
}

/// Offset of the n-th cache line.
fn line_off(n: u64) -> u64 {
    n * CACHE_LINE
}

#[test]
fn trace_records_store_flush_fence_events() {
    let r = region();
    r.trace_start(TraceConfig::default());
    r.write_pod(line_off(1), &11u64).unwrap();
    r.write_pod(line_off(2), &22u64).unwrap();
    r.flush(line_off(1), 8).unwrap();
    r.flush(line_off(2), 8).unwrap();
    r.fence();
    r.write_pod(line_off(3), &33u64).unwrap();
    r.persist(line_off(3), 8).unwrap();
    let trace = r.trace_stop().expect("trace was active");
    assert_eq!(trace.stores, 3);
    assert_eq!(trace.fences, 2);
    assert_eq!(trace.flushed_lines, 3);
    // Events appear in program order with the right epochs.
    let fences: Vec<_> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Fence { fence, drained } => Some((*fence, *drained)),
            _ => None,
        })
        .collect();
    assert_eq!(fences, vec![(1, 2), (2, 1)]);
    let store_epochs: Vec<_> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Store { epoch, .. } => Some(*epoch),
            _ => None,
        })
        .collect();
    assert_eq!(store_epochs, vec![0, 0, 1]);
    // trace_stop drains in-flight lines: everything written is durable.
    assert!(!r.trace_active());
    r.crash(CrashPolicy::DropUnflushed);
    assert_eq!(r.read_pod::<u64>(line_off(3)).unwrap(), 33);
}

#[test]
fn fenced_lines_survive_at_fence_crash() {
    let r = region();
    r.trace_start(TraceConfig::default());
    r.arm_crash(CrashPoint::AtFence { fence: 1 }).unwrap();
    r.write_pod(line_off(1), &111u64).unwrap();
    r.persist(line_off(1), 8).unwrap(); // fence #1: trips, but drains first
    assert_eq!(r.crash_tripped(), Some(1));
    // Doomed continuation: stored, flushed, fenced — but power is gone.
    r.write_pod(line_off(2), &222u64).unwrap();
    r.persist(line_off(2), 8).unwrap();
    let outcome = r.finalize_scheduled_crash().unwrap();
    assert_eq!(outcome.tripped_at_fence, Some(1));
    assert_eq!(outcome.fences_seen, 2);
    assert_eq!(
        r.read_pod::<u64>(line_off(1)).unwrap(),
        111,
        "fenced line durable"
    );
    assert_eq!(
        r.read_pod::<u64>(line_off(2)).unwrap(),
        0,
        "post-crash line gone"
    );
}

#[test]
fn flushed_but_unfenced_lines_lost_mid_epoch() {
    // survival=None: the in-flight (flushed, no fence yet) line is lost.
    let r = region();
    r.trace_start(TraceConfig::default());
    r.arm_crash(CrashPoint::MidEpoch {
        epoch: 0,
        survival: MidEpochSurvival::None,
    })
    .unwrap();
    r.write_pod(line_off(1), &7u64).unwrap();
    r.flush(line_off(1), 8).unwrap();
    r.fence(); // trips mid-epoch-0: pending dropped instead of drained
    let outcome = r.finalize_scheduled_crash().unwrap();
    assert_eq!(outcome.tripped_at_fence, Some(1));
    assert_eq!(outcome.lost_lines, 1);
    assert_eq!(r.read_pod::<u64>(line_off(1)).unwrap(), 0);
}

#[test]
fn mid_epoch_survival_all_keeps_inflight_lines() {
    let r = region();
    r.trace_start(TraceConfig::default());
    r.arm_crash(CrashPoint::MidEpoch {
        epoch: 0,
        survival: MidEpochSurvival::All,
    })
    .unwrap();
    r.write_pod(line_off(1), &7u64).unwrap();
    r.write_pod(line_off(2), &8u64).unwrap();
    r.flush(line_off(1), 8).unwrap();
    r.flush(line_off(2), 8).unwrap();
    // Line 3 is stored but never flushed: always lost mid-epoch.
    r.write_pod(line_off(3), &9u64).unwrap();
    r.fence();
    let outcome = r.finalize_scheduled_crash().unwrap();
    assert_eq!(r.read_pod::<u64>(line_off(1)).unwrap(), 7);
    assert_eq!(r.read_pod::<u64>(line_off(2)).unwrap(), 8);
    assert_eq!(r.read_pod::<u64>(line_off(3)).unwrap(), 0);
    assert_eq!(outcome.lost_lines, 1);
}

/// The same workload against the same crash point must leave a
/// byte-identical surviving image — including random mid-epoch survival.
#[test]
fn scheduled_crashes_are_deterministic() {
    fn run(point: CrashPoint) -> (u64, u64) {
        let r = region();
        r.trace_start(TraceConfig { keep_events: false });
        r.arm_crash(point).unwrap();
        // A workload with many epochs and multi-line flushes.
        for epoch in 0u64..12 {
            for k in 0u64..8 {
                let off = line_off(1 + (epoch * 8 + k) % 60);
                r.write_pod(off, &(epoch * 1000 + k)).unwrap();
                r.flush(off, 8).unwrap();
            }
            r.fence();
        }
        let outcome = r.finalize_scheduled_crash().unwrap();
        (outcome.image_hash, outcome.lost_lines)
    }
    for point in [
        CrashPoint::AtFence { fence: 5 },
        CrashPoint::MidEpoch {
            epoch: 7,
            survival: MidEpochSurvival::Random { p: 0.5, seed: 99 },
        },
    ] {
        let a = run(point);
        let b = run(point);
        assert_eq!(a, b, "same point {point:?} must replay identically");
    }
    // And the sampled schedule covers deterministic, replayable points.
    let pts = CrashSchedule::sample(12, 20, 4242);
    assert_eq!(pts, CrashSchedule::sample(12, 20, 4242));
    for p in pts.into_iter().take(6) {
        assert_eq!(run(p), run(p));
    }
}

#[test]
fn crash_falls_back_to_end_of_run_when_never_tripped() {
    let r = region();
    r.trace_start(TraceConfig::default());
    r.arm_crash(CrashPoint::AtFence { fence: 100 }).unwrap();
    r.write_pod(line_off(1), &1u64).unwrap();
    r.persist(line_off(1), 8).unwrap();
    // Flushed but the closing fence never happens: in-flight at end.
    r.write_pod(line_off(2), &2u64).unwrap();
    r.flush(line_off(2), 8).unwrap();
    let outcome = r.finalize_scheduled_crash().unwrap();
    assert_eq!(outcome.tripped_at_fence, None);
    assert_eq!(outcome.fences_seen, 1);
    assert_eq!(r.read_pod::<u64>(line_off(1)).unwrap(), 1);
    assert_eq!(
        r.read_pod::<u64>(line_off(2)).unwrap(),
        0,
        "unfenced line lost"
    );
}

#[test]
fn arm_crash_requires_active_recording() {
    let r = region();
    assert!(matches!(
        r.arm_crash(CrashPoint::AtFence { fence: 1 }),
        Err(NvmError::TraceState { .. })
    ));
    assert!(matches!(
        r.finalize_scheduled_crash(),
        Err(NvmError::TraceState { .. })
    ));
}

#[test]
fn direct_crash_discards_trace_with_synchronous_semantics() {
    let r = region();
    r.trace_start(TraceConfig::default());
    r.write_pod(line_off(1), &5u64).unwrap();
    r.flush(line_off(1), 8).unwrap(); // in flight, no fence
    r.write_pod(line_off(2), &6u64).unwrap(); // dirty, never flushed
    r.crash(CrashPolicy::DropUnflushed);
    assert!(!r.trace_active());
    // Synchronous semantics: the flushed line reached the medium.
    assert_eq!(r.read_pod::<u64>(line_off(1)).unwrap(), 5);
    assert_eq!(r.read_pod::<u64>(line_off(2)).unwrap(), 0);
}

/// The acceptance-criterion regression: a deliberately missing flush is
/// flagged by the linter when recovery reads the affected bytes.
#[test]
fn linter_flags_deliberately_missing_flush() {
    let r = region();
    r.trace_start(TraceConfig::default());
    r.arm_crash(CrashPoint::AtFence { fence: 2 }).unwrap();
    // Epoch 0: a correctly persisted value.
    r.write_pod(line_off(1), &0xC0FFEEu64).unwrap();
    r.persist(line_off(1), 8).unwrap(); // fence #1
                                        // Epoch 1: the bug — stored, fenced, but the flush was forgotten.
    r.write_pod(line_off(2), &0xBAD_F00Du64).unwrap();
    r.fence(); // fence #2: trips; line 2 was never flushed
    let outcome = r.finalize_scheduled_crash().unwrap();
    assert_eq!(outcome.lost_lines, 1);

    // "Recovery": reading the properly persisted line is clean...
    assert_eq!(r.read_pod::<u64>(line_off(1)).unwrap(), 0xC0FFEE);
    assert!(r.take_lint_findings().is_empty());
    // ...but reading the never-flushed line is a missing-flush bug.
    let _ = r.read_pod::<u64>(line_off(2)).unwrap();
    let findings = r.take_lint_findings();
    assert_eq!(findings.len(), 1, "exactly one finding per lost line");
    let f = findings[0];
    assert_eq!(f.line, 2);
    assert_eq!(f.store_epoch, 1, "the buggy store happened in epoch 1");
    assert_eq!(f.read_off, line_off(2));
    // Each lost line is reported once: a second read stays quiet.
    let _ = r.read_pod::<u64>(line_off(2)).unwrap();
    assert!(r.take_lint_findings().is_empty());
    assert_eq!(r.lint_lost_lines(), 0);
}

#[test]
fn rewriting_a_lost_line_clears_the_lint() {
    let r = region();
    r.trace_start(TraceConfig::default());
    r.arm_crash(CrashPoint::AtFence { fence: 1 }).unwrap();
    r.write_pod(line_off(4), &1u64).unwrap(); // never flushed
    r.fence();
    let outcome = r.finalize_scheduled_crash().unwrap();
    assert_eq!(outcome.lost_lines, 1);
    // Recovery re-initializes the bytes before reading them back: fine.
    r.write_pod(line_off(4), &0u64).unwrap();
    let _ = r.read_pod::<u64>(line_off(4)).unwrap();
    assert!(r.take_lint_findings().is_empty());
}

// ---- Nested crashes: re-arming the trace across a materialized crash ----

#[test]
fn rearm_schedules_nested_crash_inside_recovery() {
    let r = region();
    r.trace_start(TraceConfig::default());
    r.arm_crash(CrashPoint::AtFence { fence: 1 }).unwrap();
    r.write_pod(line_off(1), &11u64).unwrap();
    r.persist(line_off(1), 8).unwrap(); // fence #1: trips
    let first = r.finalize_scheduled_crash().unwrap();
    assert_eq!(first.tripped_at_fence, Some(1));

    // Recovery itself now runs traced, with its own crash point at its
    // own fence #2 — fence numbering restarted at the re-arm.
    r.rearm_recovery_crash(Some(CrashPoint::AtFence { fence: 2 }))
        .unwrap();
    r.write_pod(line_off(2), &22u64).unwrap();
    r.persist(line_off(2), 8).unwrap(); // recovery fence #1: durable
    r.write_pod(line_off(3), &33u64).unwrap();
    r.persist(line_off(3), 8).unwrap(); // recovery fence #2: trips, drains first
    assert_eq!(r.crash_tripped(), Some(2));
    // Doomed continuation of the recovery: lost.
    r.write_pod(line_off(4), &44u64).unwrap();
    r.persist(line_off(4), 8).unwrap();
    let second = r.finalize_scheduled_crash().unwrap();
    assert_eq!(second.tripped_at_fence, Some(2));
    assert_eq!(second.fences_seen, 3);
    assert_eq!(r.read_pod::<u64>(line_off(1)).unwrap(), 11);
    assert_eq!(r.read_pod::<u64>(line_off(2)).unwrap(), 22);
    assert_eq!(r.read_pod::<u64>(line_off(3)).unwrap(), 33);
    assert_eq!(r.read_pod::<u64>(line_off(4)).unwrap(), 0, "post-trip lost");
    let _ = r.take_lint_findings();
    assert!(r.trace_stop().is_some());
}

#[test]
fn rearm_requires_materialized_crash() {
    let r = region();
    // No trace at all.
    assert!(matches!(
        r.rearm_recovery_crash(None),
        Err(NvmError::TraceState { .. })
    ));
    // Recording, but no crash materialized yet.
    r.trace_start(TraceConfig::default());
    assert!(matches!(
        r.rearm_recovery_crash(Some(CrashPoint::AtFence { fence: 1 })),
        Err(NvmError::TraceState { .. })
    ));
    r.trace_stop();
}

/// A line lost by the first crash keeps linting reads across the re-arm
/// until some recovery segment rewrites it; recovery stores that fail to
/// persist before the nested trip join the lost set (union semantics).
#[test]
fn lost_set_and_findings_carry_across_rearm() {
    let r = region();
    r.trace_start(TraceConfig::default());
    r.arm_crash(CrashPoint::AtFence { fence: 1 }).unwrap();
    r.write_pod(line_off(1), &1u64).unwrap();
    r.write_pod(line_off(2), &2u64).unwrap(); // stored, never flushed
    r.persist(line_off(1), 8).unwrap(); // fence #1: trips; line 2 lost
    let first = r.finalize_scheduled_crash().unwrap();
    assert_eq!(first.lost_lines, 1);

    r.rearm_recovery_crash(Some(CrashPoint::AtFence { fence: 1 }))
        .unwrap();
    // Reading the carried lost line during the re-armed recording is the
    // same missing-flush bug as in plain lint mode.
    let _ = r.read_pod::<u64>(line_off(2)).unwrap();
    let findings = r.take_lint_findings();
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].line, 2);
    // Recovery rewrites line 2 and persists it (durable), but also stores
    // to line 5 without ever flushing it before its own crash: the nested
    // loss joins the (now empty) carried set — union semantics.
    r.write_pod(line_off(2), &22u64).unwrap();
    r.write_pod(line_off(5), &55u64).unwrap(); // stored, never flushed
    r.persist(line_off(2), 8).unwrap(); // recovery fence #1: trips, drains line 2
    let second = r.finalize_scheduled_crash().unwrap();
    assert_eq!(second.lost_lines, 1, "line 5 lost; line 2 persisted");
    assert_eq!(r.read_pod::<u64>(line_off(2)).unwrap(), 22);
    let findings = r.take_lint_findings();
    assert!(findings.iter().all(|f| f.line != 2), "rewritten line clean");
    let _ = r.read_pod::<u64>(line_off(5)).unwrap();
    assert_eq!(r.take_lint_findings().len(), 1, "nested loss still lints");
}

/// Rewriting a carried lost line *without* persisting it before the
/// nested crash re-derives it as lost — the rewrite alone is not durable.
#[test]
fn unpersisted_rewrite_of_lost_line_stays_lost() {
    let r = region();
    r.trace_start(TraceConfig::default());
    r.arm_crash(CrashPoint::AtFence { fence: 1 }).unwrap();
    r.write_pod(line_off(1), &1u64).unwrap();
    r.write_pod(line_off(3), &3u64).unwrap(); // stored, never flushed
    r.persist(line_off(1), 8).unwrap(); // trips; line 3 lost
    assert_eq!(r.finalize_scheduled_crash().unwrap().lost_lines, 1);

    r.rearm_recovery_crash(None).unwrap();
    r.write_pod(line_off(3), &33u64).unwrap(); // rewrite, never flushed
    r.write_pod(line_off(4), &44u64).unwrap();
    r.persist(line_off(4), 8).unwrap();
    // Crash at end of recovery: the unpersisted rewrite is lost again.
    let second = r.finalize_scheduled_crash().unwrap();
    assert_eq!(second.lost_lines, 1);
    let _ = r.read_pod::<u64>(line_off(3)).unwrap();
    assert_eq!(r.take_lint_findings().len(), 1);
}

/// The same chain (workload point + nested recovery point) must leave a
/// byte-identical surviving image across runs.
#[test]
fn nested_chains_are_deterministic() {
    fn run() -> (u64, u64, u64) {
        let r = region();
        r.trace_start(TraceConfig { keep_events: false });
        r.arm_crash(CrashPoint::AtFence { fence: 3 }).unwrap();
        for i in 0u64..8 {
            r.write_pod(line_off(1 + i), &(i + 100)).unwrap();
            r.persist(line_off(1 + i), 8).unwrap();
        }
        let first = r.finalize_scheduled_crash().unwrap();
        r.rearm_recovery_crash(Some(CrashPoint::MidEpoch {
            epoch: 2,
            survival: MidEpochSurvival::Random { p: 0.5, seed: 7 },
        }))
        .unwrap();
        for i in 0u64..8 {
            r.write_pod(line_off(20 + i), &(i + 200)).unwrap();
            r.flush(line_off(20 + i), 8).unwrap();
            if i % 2 == 1 {
                r.fence();
            }
        }
        let second = r.finalize_scheduled_crash().unwrap();
        (first.image_hash, second.image_hash, second.lost_lines)
    }
    assert_eq!(run(), run());
}

#[test]
fn enumerate_fences_covers_whole_run() {
    // Reference run to learn the fence count, then crash at every fence.
    let workload = |r: &NvmRegion| {
        for i in 0u64..6 {
            r.write_pod(line_off(1 + i), &(i + 1)).unwrap();
            r.persist(line_off(1 + i), 8).unwrap();
        }
    };
    let reference = region();
    reference.trace_start(TraceConfig { keep_events: false });
    workload(&reference);
    let total = reference.trace_stop().unwrap().fences;
    assert_eq!(total, 6);

    for point in CrashSchedule::enumerate_fences(total) {
        let r = region();
        r.trace_start(TraceConfig { keep_events: false });
        r.arm_crash(point).unwrap();
        workload(&r);
        let outcome = r.finalize_scheduled_crash().unwrap();
        let tripped = outcome.tripped_at_fence.unwrap();
        // Exactly the first `tripped` values are durable — the committed
        // prefix property at every fence boundary.
        for i in 0u64..6 {
            let expect = if i < tripped { i + 1 } else { 0 };
            assert_eq!(
                r.read_pod::<u64>(line_off(1 + i)).unwrap(),
                expect,
                "crash at fence {tripped}, slot {i}"
            );
        }
    }
}

/// Restarting a trace over a recording one drains the old recorder's
/// flushed-but-unfenced lines to the medium, as `trace_stop` does: they
/// are no longer dirty, so nothing else would ever write them back.
#[test]
fn restarting_a_trace_keeps_flushed_lines() {
    let r = region();
    r.trace_start(TraceConfig::default());
    r.write_pod(128, &0xABCDu64).unwrap();
    r.flush(128, 8).unwrap();
    r.trace_start(TraceConfig::default());
    r.fence();
    r.trace_stop().unwrap();
    r.crash(CrashPolicy::DropUnflushed);
    assert_eq!(r.read_pod::<u64>(128).unwrap(), 0xABCD);
}
