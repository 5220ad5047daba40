//! A3 (ablation) — registry-driven undo vs full-scan undo.
//!
//! After a crash, effects of unpublished transactions must be rolled back.
//! Two ways to find them:
//!
//! * **full scan** — walk every MVCC timestamp word (what a design without
//!   persistent transaction write-sets must do): O(rows);
//! * **registry** — walk the persistent in-flight transaction registry's
//!   write sets: O(in-flight writes), independent of table size.
//!
//! The registry is what keeps the `restart` experiment's file-kill line
//! flat on an all-main image; this ablation quantifies it directly.

use std::sync::Arc;
use std::time::Instant;

use crate::driver::load_ycsb;
use crate::harness::{Row, Run};
use hyrise_nv::{Database, DurabilityConfig};
use nvm::{LatencyModel, NvmHeap, NvmRegion};
use storage::nv::NvTable;
use storage::{ColumnDef, DataType, Schema, TableStore, Value};

/// Registry path: engine restart with one in-flight transaction; returns
/// the undo-phase wall time in µs.
fn registry_undo_us(n: u64) -> f64 {
    let mut db = Database::create(DurabilityConfig::nvm(
        (n * 600).max(256 << 20),
        LatencyModel::zero(),
    ))
    .expect("create");
    let table = load_ycsb(&mut db, n, false).expect("load");
    db.merge(table).expect("merge");
    let mut tx = db.begin();
    for k in 0..8i64 {
        db.insert(
            &mut tx,
            table,
            &[Value::Int(n as i64 + k), Value::Text("inflight".into())],
        )
        .expect("insert");
    }
    let report = db.restart_after_crash().expect("restart");
    report
        .phases
        .iter()
        .find(|p| p.name == "mvcc undo pass")
        .map(|p| p.wall.as_secs_f64() * 1e6)
        .unwrap_or(0.0)
}

/// Ablated path: full MVCC scan over a same-size table (the exact
/// `recover_mvcc` code the engine would otherwise run).
fn full_scan_undo_us(n: u64) -> f64 {
    let heap = NvmHeap::format(Arc::new(NvmRegion::new(
        (n * 600).max(256 << 20),
        LatencyModel::zero(),
    )))
    .expect("format");
    let mut t = NvTable::create(&heap, Schema::new(vec![ColumnDef::new("k", DataType::Int)]))
        .expect("create");
    for i in 0..n {
        let r = t
            .insert_version(&[Value::Int(i as i64)], storage::mvcc::pending(1))
            .expect("ins");
        t.commit_insert(r, 1).expect("commit");
    }
    t.merge(1).expect("merge");
    let t0 = Instant::now();
    t.recover_mvcc(1).expect("recover");
    t0.elapsed().as_secs_f64() * 1e6
}

pub fn run(h: &mut Run) {
    let sizes: &[u64] = h.pick(&[10_000, 40_000, 160_000, 640_000], &[10_000, 40_000]);

    let mut rows_out = Vec::new();
    for &n in sizes {
        rows_out.extend(h.measure(|| {
            let registry = registry_undo_us(n);
            let scan = full_scan_undo_us(n);
            Ok(vec![Row::new()
                .with("rows", n)
                .wall("registry_undo_us", registry, 1)
                .wall("full_scan_undo_us", scan, 1)
                .wall("speedup", scan / registry.max(0.1), 0)])
        }));
    }

    h.table(
        "A3: undo-pass cost — persistent txn registry vs full MVCC scan",
        rows_out,
    );
}
