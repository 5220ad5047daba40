//! A8 (ablation) — real restart latency: wall-clock reopen+recover time of
//! the *file-backed* NVM engine versus database size, against the
//! simulated-NVM in-process restart and the log-based baseline.
//!
//! Configs per size:
//! * `file-clean` — file-backed mmap image, clean shutdown, `Database::open`
//!   (the clean marker skips the undo pass): the paper's instant restart on
//!   a real medium.
//! * `file-kill`  — same image, but the writer "dies" without the marker
//!   (mapping dropped, no shutdown): open runs the full recovery ladder
//!   incl. the undo pass.
//! * `sim`        — simulated-NVM backend, in-process `restart_after_crash`.
//! * `wal`        — DRAM + WAL + checkpoint baseline: restart replays the
//!   log, so its cost scales with data size.
//!
//! The headline claim this reproduces: file-backed reopen time is driven by
//! transient-structure rebuild (delta indexes), not by table size — while
//! the WAL baseline's restart grows with every row written.
//!
//! Run: `cargo run --release -p hyrise-nv-bench --bin a8_real_restart`
//! (`--quick` shrinks the sweep for CI).

use std::path::PathBuf;
use std::time::Instant;

use benchkit::{print_table, write_json, Row};
use hyrise_nv::{Database, DurabilityConfig, IndexKind, TableId};
use nvm::LatencyModel;
use storage::{ColumnDef, DataType, Schema, Value};

// Large enough for the biggest sweep size with headroom. The simulated
// backend's restart copies the whole capacity (its persistent image), so
// the `sim` row cost is capacity-proportional, not row-proportional — one
// more reason the file-backed mmap reopen is the honest number.
const CAPACITY: u64 = 64 << 20;

/// Not the torture table: restart cost is measured on rows with a text
/// payload, so the image grows with the data the way the paper's does.
fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("payload", DataType::Text),
    ])
}

/// Populate `rows` committed rows with a merge at the halfway point, so the
/// image holds both a read-optimized main and a live delta — the paper's
/// operating point.
fn populate(db: &mut Database, rows: i64) -> TableId {
    let t = db.create_table("events", schema()).unwrap();
    db.create_index(t, 0, IndexKind::Hash).unwrap();
    let mut tx = db.begin();
    let mut merged = false;
    for k in 0..rows {
        db.insert(
            &mut tx,
            t,
            &[Value::Int(k), Value::Text(format!("payload-{k:08}"))],
        )
        .unwrap();
        if k % 512 == 511 {
            db.commit(&mut tx).unwrap();
            // Merge needs a quiesced table: do it between transactions.
            if !merged && k >= rows / 2 {
                db.merge(t).unwrap();
                merged = true;
            }
            tx = db.begin();
        }
    }
    db.commit(&mut tx).unwrap();
    t
}

fn img_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("a8-restart-{}-{tag}.img", std::process::id()))
}

fn row(config: &str, rows: i64, reopen_us: f64, report: &hyrise_nv::RecoveryReport) -> Row {
    Row::new()
        .with("config", config)
        .with("rows", rows)
        .with("reopen_us", format!("{reopen_us:.1}"))
        .with("rows_recovered", report.rows_recovered)
        .with("rung", report.rung)
        .with("clean", report.clean_shutdown as u8)
        .with(
            "undo_pass",
            report.phases.iter().any(|p| p.name.contains("undo")) as u8,
        )
}

/// File-backed: build the image, close it (cleanly or not), reopen with
/// timing. Returns the reopen wall time and the recovery report.
fn file_restart(rows: i64, clean: bool) -> (f64, hyrise_nv::RecoveryReport) {
    let img = img_path(if clean { "clean" } else { "kill" });
    let _ = std::fs::remove_file(&img);
    let config = || DurabilityConfig::nvm_file(&img, CAPACITY, LatencyModel::zero());
    let mut db = Database::create(config()).unwrap();
    populate(&mut db, rows);
    if clean {
        db.shutdown().unwrap();
    } else {
        // Writer dies without the marker: the mapping goes away, the page
        // cache keeps every store — exactly what a SIGKILL leaves behind.
        drop(db);
    }
    let t0 = Instant::now();
    let (db, report) = Database::open(config()).unwrap();
    let us = t0.elapsed().as_nanos() as f64 / 1e3;
    drop(db);
    let _ = std::fs::remove_file(&img);
    (us, report)
}

/// In-process restart of a non-file backend.
fn sim_restart(rows: i64, config: DurabilityConfig) -> (f64, hyrise_nv::RecoveryReport) {
    let mut db = Database::create(config).unwrap();
    populate(&mut db, rows);
    let t0 = Instant::now();
    let report = db.restart_after_crash().unwrap();
    (t0.elapsed().as_nanos() as f64 / 1e3, report)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[i64] = if quick {
        &[500, 2_000]
    } else {
        &[1_000, 5_000, 20_000, 50_000]
    };

    let mut out = Vec::new();
    for &rows in sizes {
        let (us, report) = file_restart(rows, true);
        out.push(row("file-clean", rows, us, &report));
        let (us, report) = file_restart(rows, false);
        out.push(row("file-kill", rows, us, &report));
        let (us, report) = sim_restart(
            rows,
            DurabilityConfig::Nvm {
                capacity: CAPACITY,
                latency: LatencyModel::zero(),
            },
        );
        out.push(row("sim", rows, us, &report));
        let (us, report) = sim_restart(rows, DurabilityConfig::wal_temp());
        out.push(row("wal", rows, us, &report));
        eprintln!("size {rows}: done");
    }

    print_table("A8: real restart latency vs database size", &out);
    write_json("a8_real_restart", &out);

    // Sanity: every restart recovered the full committed row count.
    for r in &out {
        assert_eq!(
            r.cells["rows"], r.cells["rows_recovered"],
            "restart lost rows: {r:?}"
        );
    }
    println!("all restarts recovered the full committed state");
}
