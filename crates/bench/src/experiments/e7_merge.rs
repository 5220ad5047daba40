//! E7 — Delta→main merge cost and post-merge scan speedup.
//!
//! Paper family (Hyrise architecture): the write-optimized delta degrades
//! scan performance as it grows; the merge folds it into the read-optimized
//! main (sorted dictionary + bit-packed vectors). Measured: merge duration
//! versus delta size, and range-scan latency before/after the merge, on
//! both the NVM and volatile engines — for a delta alone (an empty main),
//! and in steady state: a merged main of N rows under a delta of 2 000
//! updates.

use std::time::Instant;

use crate::driver::{load_ycsb, run_ycsb_op};
use crate::harness::{ms_since, Row, Run};
use hyrise_nv::{Database, DurabilityConfig};
use nvm::LatencyModel;
use storage::Value;
use workload::Op;

/// Updates in a steady-state row's delta.
const STEADY_UPDATES: u64 = 2_000;

fn scan_ms(db: &mut Database, t: hyrise_nv::TableId, reps: usize) -> f64 {
    let tx = db.begin();
    let t0 = Instant::now();
    let mut total = 0usize;
    for i in 0..reps {
        let lo = Value::Int((i * 37 % 1000) as i64);
        let hi = Value::Int((i * 37 % 1000 + 200) as i64);
        total += db
            .scan_range(&tx, t, 0, Some(&lo), Some(&hi))
            .expect("scan")
            .len();
    }
    assert!(total > 0);
    ms_since(t0) / reps as f64
}

pub fn run(h: &mut Run) {
    let sizes: &[u64] = h.pick(&[2_000, 8_000, 32_000, 128_000], &[2_000, 8_000]);

    let mut rows_out = Vec::new();
    for &n in sizes {
        for steady in [false, true] {
            for config in [
                DurabilityConfig::nvm(1 << 30, LatencyModel::pcm()),
                DurabilityConfig::Volatile,
            ] {
                rows_out.extend(h.measure(|| {
                    let backend = config.mode_name();
                    let mut db = Database::create(config.clone()).expect("create");
                    let t = load_ycsb(&mut db, n, true).expect("load");
                    let (main_rows, delta_rows) = if steady {
                        db.merge(t).expect("merge the load");
                        for i in 0..STEADY_UPDATES {
                            let key = (i * 7_919 % n) as i64;
                            let value = format!("{i:032}");
                            run_ycsb_op(&mut db, t, &Op::Update { key, value }).expect("update");
                        }
                        (n, STEADY_UPDATES)
                    } else {
                        (0, n)
                    };

                    let scan_before = scan_ms(&mut db, t, 20);
                    let sim0 = db.simulated_ns();
                    let t0 = Instant::now();
                    let stats = db.merge(t).expect("merge");
                    let merge_ms = ms_since(t0);
                    let sim_ms = (db.simulated_ns() - sim0) as f64 / 1e6;
                    let scan_after = scan_ms(&mut db, t, 20);

                    Ok(vec![Row::new()
                        .with("main_rows", main_rows)
                        .with("delta_rows", delta_rows)
                        .with("backend", backend)
                        .with("merge_sim_ms", format!("{sim_ms:.2}"))
                        .with("rows_merged", stats.rows_merged)
                        .wall("merge_ms", merge_ms, 2)
                        .wall("scan_before_ms", scan_before, 3)
                        .wall("scan_after_ms", scan_after, 3)
                        .wall("scan_speedup", scan_before / scan_after, 2)])
                }));
            }
        }
    }

    h.table("E7: merge cost and post-merge scan speedup", rows_out);
}
