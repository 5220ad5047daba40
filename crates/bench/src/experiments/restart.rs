//! Restart — time from a dead process to the first answered query, against
//! data size: the paper's headline figure (92.2 GB recover in ~53 s
//! log-based vs < 1 s on Hyrise-NV, "independent of size").
//!
//! One engine and one clock; data size, data state and medium are the only
//! variables:
//!
//! * data state — `all-main`: every row merged into the read-optimized
//!   main (and, on the baseline, covered by the checkpoint). `live-delta`:
//!   10 % more rows committed since, plus one transaction caught in flight
//!   (eight inserts and an update of a main row).
//! * medium — `file-clean`: `MAP_SHARED` image, quiesced, graceful
//!   `shutdown`, `Database::open` (clean marker: no undo pass).
//!   `file-kill`: same image, the writer dies without the marker (mapping
//!   dropped — what SIGKILL leaves), `open` runs the undo pass. `wal`: the
//!   DRAM + log + checkpoint baseline, `restart_after_crash`.
//! * the clock — wall time from just before `Database::open` /
//!   `restart_after_crash` until the first `index_lookup` has answered; the
//!   `RecoveryReport` phases inside it are tabulated beside it.
//!
//! Every repetition checks that recovery brought back exactly the rows
//! published before the restart, that the first query returns the one right
//! row, and that the in-flight update left no trace; a miss fails the
//! experiment.

use std::time::Instant;

use crate::driver::load_ycsb;
use crate::harness::{ms_since, Row, Run};
use hyrise_nv::{Database, DurabilityConfig};
use nvm::LatencyModel;
use storage::{ScanResult, Value};
use workload::{ycsb::payload, YcsbConfig};

const MEDIA: [&str; 3] = ["file-clean", "file-kill", "wal"];

/// The row the loader stores under `key`.
fn row_of(key: u64) -> [Value; 2] {
    let value_len = YcsbConfig::default().value_len;
    [Value::Int(key as i64), Value::Text(payload(key, value_len))]
}

/// `Err` unless `hits` is exactly the committed row of `key`.
fn check_row(what: &str, key: u64, hits: &[ScanResult]) -> Result<(), String> {
    match hits {
        [hit] if hit.values == row_of(key) => Ok(()),
        _ => Err(format!("{what}: key {key} returned {hits:?}")),
    }
}

/// One restart on fresh state: the headline row, then one row per recovery
/// phase.
fn restart_once(
    rows: u64,
    live_delta: bool,
    medium: &str,
) -> Result<Vec<Row>, Box<dyn std::error::Error>> {
    let image = std::env::temp_dir().join(format!("restart-{}.img", std::process::id()));
    let file = || {
        let capacity = (rows * 1024).max(64 << 20);
        DurabilityConfig::nvm_file(&image, capacity, LatencyModel::zero())
    };

    let mut db = Database::create(match medium {
        "wal" => DurabilityConfig::wal_temp(),
        _ => file(),
    })?;
    let t = load_ycsb(&mut db, rows, false)?;
    db.merge(t)?;
    // The baseline's counterpart of a merged image; a no-op on NVM.
    db.checkpoint()?;
    let mut committed = rows;
    let mut in_flight = None;
    if live_delta {
        committed += rows / 10;
        let keys: Vec<u64> = (rows..committed).collect();
        for chunk in keys.chunks(256) {
            let mut tx = db.begin();
            for &key in chunk {
                db.insert(&mut tx, t, &row_of(key))?;
            }
            db.commit(&mut tx)?;
        }
        let mut tx = db.begin();
        for key in committed..committed + 8 {
            db.insert(&mut tx, t, &row_of(key))?;
        }
        let hit = db.index_lookup(&tx, t, 0, &Value::Int(0))?;
        check_row("before restart", 0, &hit)?;
        db.update(&mut tx, t, hit[0].row, &row_of(u64::MAX))?;
        in_flight = Some(tx);
    }

    // Physical rows recovery must bring back: what was published. The
    // in-flight transaction's staged rows never were.
    let mut expected = committed;
    let t0;
    let (mut db, report) = match medium {
        "wal" => {
            t0 = Instant::now();
            let report = db.restart_after_crash()?;
            (db, report)
        }
        _ => {
            if medium == "file-clean" {
                // Quiesce first; the aborted versions stay as tombstones.
                if let Some(mut tx) = in_flight {
                    db.abort(&mut tx)?;
                }
                expected = db.row_count(t)?;
                db.shutdown()?;
            } else {
                drop(db);
            }
            t0 = Instant::now();
            Database::open(file())?
        }
    };
    let recovered_ms = ms_since(t0);
    let t = db.table_id("usertable").ok_or("table lost")?;
    let tx = db.begin();
    let first = db.index_lookup(&tx, t, 0, &Value::Int(committed as i64 - 1));
    let restart_ms = ms_since(t0);

    check_row("first query", committed - 1, &first?)?;
    let undone = db.index_lookup(&tx, t, 0, &Value::Int(0))?;
    check_row("in-flight update", 0, &undone)?;
    drop(db);
    let _ = std::fs::remove_file(&image);
    if report.rows_recovered != expected {
        let recovered = report.rows_recovered;
        return Err(format!("recovered {recovered} rows, expected {expected}").into());
    }

    let state = if live_delta { "live-delta" } else { "all-main" };
    let cell = Row::new()
        .with("rows", rows)
        .with("state", state)
        .with("medium", medium);
    let mut out = vec![cell
        .clone()
        .with("rows_recovered", report.rows_recovered)
        .with("clean", report.clean_shutdown as u8)
        .with("replayed", report.log_records_replayed)
        .wall("restart_ms", restart_ms, 3)];
    let phase = |name: &str, ms: f64| cell.clone().with("phase", name).wall("wall_ms", ms, 3);
    // Before the report's first phase starts: mapping the file, or — on
    // the in-process baseline restart — dropping the dead engine's DRAM
    // tables, which a real process exit would not wait for.
    let reported = report.total_wall().as_secs_f64() * 1e3;
    out.push(phase("outside the report", recovered_ms - reported));
    for p in &report.phases {
        out.push(phase(p.name, p.wall.as_secs_f64() * 1e3));
    }
    out.push(phase("first query", restart_ms - recovered_ms));
    Ok(out)
}

pub fn run(h: &mut Run) {
    let sizes: &[u64] = h.pick(&[1_000, 5_000, 20_000, 50_000, 200_000], &[500, 2_000]);
    let mut all = Vec::new();
    for &rows in sizes {
        for live_delta in [false, true] {
            for medium in MEDIA {
                let what = |e| format!("{medium} @ {rows} rows: {e}");
                all.extend(h.measure(|| restart_once(rows, live_delta, medium).map_err(what)));
            }
        }
        eprintln!("restart: {rows} rows done");
    }
    let (phases, headline) = all.into_iter().partition(|r| r.get("phase").is_some());
    h.table(
        "Restart: open → first answered query vs data size (paper: 53 s log vs < 1 s NVM)",
        headline,
    );
    h.table("Restart: recovery phases inside that time", phases);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_first_row_is_an_error() {
        let hit = |key: u64, payload_of: u64| ScanResult {
            row: 0,
            values: vec![Value::Int(key as i64), row_of(payload_of)[1].clone()],
        };
        assert!(check_row("q", 7, &[hit(7, 7)]).is_ok());
        assert!(check_row("q", 7, &[]).is_err());
        assert!(check_row("q", 7, &[hit(8, 8)]).is_err());
        assert!(check_row("q", 7, &[hit(7, u64::MAX)]).is_err());
        assert!(check_row("q", 7, &[hit(7, 7), hit(7, 7)]).is_err());
    }
}
