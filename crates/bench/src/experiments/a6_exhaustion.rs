//! A6 (ablation) — capacity exhaustion: drive a clamped NVM device through
//! the full degradation ladder and record the throughput timeline, window
//! by window: organic fill until the heap runs dry, watermark backpressure,
//! read-only mode (writes refused, reads still flowing), emergency
//! reclamation, and the recovered steady state. A second sweep measures
//! retry goodput under probabilistic allocation faults.
//!
//! Invariants enforced (non-zero exit on violation): no panic anywhere on
//! the path, every refusal is a typed capacity/admission error, reads are
//! served in ReadOnly, reclamation returns the engine to `Normal`, and the
//! four-invariant integrity checker stays clean throughout.

use std::time::Instant;

use crate::harness::{ms_since, Row, Run};
use hyrise_nv::torture::{schema, sim_config};
use hyrise_nv::{retry_write, Database, EngineError, HealthState, TableId};
use nvm::{AllocFaultClass, AllocFaultSpec};
use storage::Value;

/// The torture table without `torture::setup`'s indexes: the timeline
/// measures heap occupancy of the table alone.
fn fresh_db() -> (Database, TableId) {
    let mut db = Database::create(sim_config(true)).unwrap();
    let t = db.create_table("t", schema()).unwrap();
    (db, t)
}

// The fill / brim / reclaim loops below are this sweep's own: they shape a
// throughput timeline window by window, which no seeded workload does.

/// Outcome of one write window: `txns` attempted transactions of
/// `rows_per_txn` inserts each, counting committed rows and typed
/// refusals. Panics (via the harness) on any untyped failure.
struct WriteWindow {
    committed_rows: u64,
    rejected_txns: u64,
    wall_s: f64,
}

fn write_window(
    db: &mut Database,
    t: TableId,
    next_key: &mut i64,
    txns: u64,
    rows_per_txn: u64,
) -> WriteWindow {
    let t0 = Instant::now();
    let mut committed_rows = 0u64;
    let mut rejected_txns = 0u64;
    for _ in 0..txns {
        let mut tx = db.begin();
        let mut failed = false;
        for _ in 0..rows_per_txn {
            match db.insert(&mut tx, t, &[Value::Int(*next_key), Value::Int(1)]) {
                Ok(_) => *next_key += 1,
                Err(e) => {
                    assert_typed_refusal(&e);
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            db.abort(&mut tx).unwrap();
            rejected_txns += 1;
            continue;
        }
        match db.commit(&mut tx) {
            Ok(_) => committed_rows += rows_per_txn,
            Err(e) => {
                assert_typed_refusal(&e);
                rejected_txns += 1;
            }
        }
    }
    WriteWindow {
        committed_rows,
        rejected_txns,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Every refusal on the exhaustion path must be a typed capacity or
/// admission error — anything else is a harness failure.
fn assert_typed_refusal(e: &EngineError) {
    assert!(
        e.is_capacity()
            || matches!(
                e,
                EngineError::Backpressure { .. } | EngineError::ReadOnly { .. }
            ),
        "untyped failure on the exhaustion path: {e}"
    );
}

/// One read window: `scans` full scans, returning rows read per second.
fn read_window(db: &mut Database, t: TableId, scans: u64) -> (u64, f64) {
    let t0 = Instant::now();
    let mut rows = 0u64;
    for _ in 0..scans {
        let tx = db.begin();
        rows += db.scan_all(&tx, t).unwrap().len() as u64;
    }
    (rows, t0.elapsed().as_secs_f64())
}

fn timeline_row(window: u64, phase: &str, db: &mut Database, w: &WriteWindow) -> Row {
    let h = db.health();
    Row::new()
        .with("window", window)
        .with("phase", phase)
        .with("state", format!("{:?}", h.state))
        .with("util_pct", format!("{:.1}", h.utilization * 100.0))
        .with("committed_rows", w.committed_rows)
        .with("rejected_txns", w.rejected_txns)
        .wall(
            "write_rows_per_s",
            w.committed_rows as f64 / w.wall_s.max(1e-9),
            0,
        )
}

/// The degradation/recovery timeline on one clamped device.
fn run_timeline(h: &Run, txns_per_window: u64, scans_per_window: u64) -> Vec<Row> {
    let rows_per_txn: u64 = 8;
    let mut rows = Vec::new();
    let mut window = 0u64;

    let (mut db, t) = fresh_db();
    let mut next_key = 0i64;

    // Seed, then clamp the device so the footprint sits at ~55%.
    let w = write_window(&mut db, t, &mut next_key, txns_per_window, rows_per_txn);
    assert_eq!(w.rejected_txns, 0);
    let s = db.heap_stats().unwrap();
    db.set_capacity_clamp(Some((s.high_water - s.free_bytes) * 100 / 55))
        .unwrap();
    rows.push(timeline_row(window, "seed", &mut db, &w));

    // Fill until the first window with refusals: organic exhaustion.
    for _ in 0..64 {
        window += 1;
        let w = write_window(&mut db, t, &mut next_key, txns_per_window, rows_per_txn);
        let rejected = w.rejected_txns;
        rows.push(timeline_row(window, "fill", &mut db, &w));
        if rejected > 0 {
            break;
        }
    }

    // Pin the footprint over the backpressure watermark: admission control
    // refuses whole windows with retryable errors.
    let s = db.heap_stats().unwrap();
    let live = s.high_water - s.free_bytes;
    db.set_capacity_clamp(Some(live * 100 / 88)).unwrap();
    if db.health().state != HealthState::Backpressure {
        h.fail("expected Backpressure under the 88% clamp");
    }
    window += 1;
    let w = write_window(&mut db, t, &mut next_key, txns_per_window, rows_per_txn);
    if w.committed_rows != 0 {
        h.fail("writes admitted under Backpressure");
    }
    rows.push(timeline_row(window, "backpressure", &mut db, &w));

    // Past the read-only watermark: writes refused, reads still flowing.
    db.set_capacity_clamp(Some(live + live / 50)).unwrap();
    if db.health().state != HealthState::ReadOnly {
        h.fail("expected ReadOnly under the tightened clamp");
    }
    window += 1;
    let w = write_window(&mut db, t, &mut next_key, txns_per_window, rows_per_txn);
    let (rd_rows, rd_s) = read_window(&mut db, t, scans_per_window);
    if w.committed_rows != 0 || rd_rows == 0 {
        h.fail("ReadOnly must refuse writes yet serve reads");
    }
    let reads_per_s = rd_rows as f64 / rd_s.max(1e-9);
    rows.push(timeline_row(window, "read-only", &mut db, &w).wall(
        "read_rows_per_s",
        reads_per_s,
        0,
    ));

    // Operator response: drop the clamp, retire 3/4 of the rows in small
    // transactions, re-shrink, and run the emergency reclamation.
    db.set_capacity_clamp(None).unwrap();
    let mut doomed = (0..next_key).filter(|k| k % 4 != 0).peekable();
    while doomed.peek().is_some() {
        let mut tx = db.begin();
        for key in doomed.by_ref().take(8) {
            let hits = db.scan_eq(&tx, t, 0, &Value::Int(key)).unwrap();
            if let Some(hit) = hits.first() {
                db.delete(&mut tx, t, hit.row).unwrap();
            }
        }
        db.commit(&mut tx).unwrap();
    }
    let s = db.heap_stats().unwrap();
    let live = s.high_water - s.free_bytes;
    db.set_capacity_clamp(Some(live * 100 / 88)).unwrap();
    let t0 = Instant::now();
    let rep = db.reclaim().unwrap();
    let reclaim_ms = ms_since(t0);
    if rep.tables_merged < 1 || rep.state_after != HealthState::Normal {
        h.fail(format_args!(
            "reclamation failed to restore Normal: {rep:?}"
        ));
    }
    window += 1;
    rows.push(
        Row::new()
            .with("window", window)
            .with("phase", "reclaim")
            .with("state", format!("{:?}", rep.state_after))
            .with("util_pct", format!("{:.1}", rep.utilization_after * 100.0))
            .with("committed_rows", 0u64)
            .with("rejected_txns", 0u64)
            .with("tables_merged", rep.tables_merged)
            .with(
                "util_before_pct",
                format!("{:.1}", rep.utilization_before * 100.0),
            )
            .wall("reclaim_ms", reclaim_ms, 2),
    );

    // Recovered steady state on the still-shrunken device.
    window += 1;
    let w = write_window(&mut db, t, &mut next_key, txns_per_window, rows_per_txn);
    if w.committed_rows == 0 {
        h.fail("no writes landed after reclamation");
    }
    rows.push(timeline_row(window, "recovered", &mut db, &w));

    if !db.verify_integrity().unwrap().is_clean() {
        h.fail("integrity violated at the end of the timeline");
    }
    rows
}

/// Retry goodput under probabilistic allocation faults: each insert rides
/// `retry_write` (bounded retry + reclamation between attempts).
fn run_fault_sweep(h: &Run, txns: u64, probabilities: &[f64]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in probabilities {
        let (mut db, t) = fresh_db();
        if p > 0.0 {
            db.arm_alloc_fault(AllocFaultSpec {
                class: AllocFaultClass::FailProbabilistic { p },
                seed: 0xA6_0000 ^ (p * 1e4) as u64,
            })
            .unwrap();
        }
        let t0 = Instant::now();
        let mut committed = 0u64;
        let mut failed = 0u64;
        let mut next_key = 0i64;
        for _ in 0..txns {
            let mut tx = db.begin();
            let r = retry_write(&mut db, |db| {
                db.insert(&mut tx, t, &[Value::Int(next_key), Value::Int(1)])
            });
            match r {
                Ok(_) => match db.commit(&mut tx) {
                    Ok(_) => {
                        committed += 1;
                        next_key += 1;
                    }
                    Err(e) => {
                        assert_typed_refusal(&e);
                        failed += 1;
                    }
                },
                Err(e) => {
                    assert_typed_refusal(&e);
                    db.abort(&mut tx).unwrap();
                    failed += 1;
                }
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        if let Some(b) = db.nv_backend() {
            b.region().clear_alloc_fault();
        }
        let clean = db.verify_integrity().unwrap().is_clean();
        if !clean {
            h.fail(format_args!("integrity violated after fault sweep p={p}"));
        }
        if p == 0.0 && failed != 0 {
            h.fail(format_args!("fault-free run lost {failed} transactions"));
        }
        let health = db.health();
        rows.push(
            Row::new()
                .with("fault_p", format!("{p:.2}"))
                .with("txns", txns)
                .with("committed", committed)
                .with("failed", failed)
                .with(
                    "goodput_pct",
                    format!("{:.1}", 100.0 * committed as f64 / txns as f64),
                )
                .with("capacity_aborts", health.capacity_aborts)
                .with("reclaims", health.reclaims)
                .with("integrity", if clean { "clean" } else { "VIOLATED" })
                .wall("txns_per_s", txns as f64 / wall_s.max(1e-9), 0),
        );
    }
    rows
}

pub fn run(h: &mut Run) {
    // Both sweeps are seeded and capacity-driven: states, counts and
    // verdicts repeat exactly, only the rates vary.
    let (txns_per_window, scans_per_window) = h.pick((25, 16), (10, 4));
    let timeline = h.measure(|| Ok(run_timeline(h, txns_per_window, scans_per_window)));
    h.table(
        "A6: exhaustion timeline (per-window throughput across the degradation ladder)",
        timeline,
    );

    let txns = h.pick(120, 30);
    let probabilities: &[f64] = h.pick(&[0.0, 0.01, 0.05, 0.10], &[0.0, 0.05]);
    let sweep = h.measure(|| Ok(run_fault_sweep(h, txns, probabilities)));
    h.table(
        "A6: retry goodput under probabilistic allocation faults",
        sweep,
    );
}
