//! A1 (ablation) — the commit ordering protocol matters.
//!
//! Hyrise-NV's commit is: (1) stamp + flush every row timestamp, then
//! (2) durably publish the global commit timestamp — the publish is the
//! linearization point and nothing observable follows it. This ablation
//! runs the protocol and a *buggy* variant that publishes first and stamps
//! afterwards, crashing at a uniformly random step; a transaction is
//! "reported committed" the moment its publish persists. The buggy variant
//! loses reported transactions; the correct one never does.

use std::sync::Arc;

use crate::harness::{Row, Run};
use nvm::{CrashPolicy, LatencyModel, NvmHeap, NvmRegion};
use storage::nv::NvTable;
use storage::{mvcc, ColumnDef, DataType, Schema, TableStore, Value};
use util::rng::{Rng, SmallRng};

const TXNS: u64 = 40;

#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Correct,
    PublishFirst,
}

/// Runs up to `stop_after` protocol steps, then crashes. Returns the list
/// of (txn index, cts) reported committed before the crash, the table root
/// and the CTS cell offset.
fn run_until_crash(
    region: &Arc<NvmRegion>,
    variant: Variant,
    stop_after: u64,
) -> (Vec<(u64, u64)>, u64, u64) {
    let heap = NvmHeap::format(region.clone()).unwrap();
    let mut table =
        NvTable::create(&heap, Schema::new(vec![ColumnDef::new("k", DataType::Int)])).unwrap();
    let cts_cell = heap.alloc(8).unwrap();
    heap.set_root(cts_cell).unwrap(); // root → cts cell for rediscovery
    let r = heap.region().clone();

    let mut reported = Vec::new();
    let mut steps = 0u64;
    let step = |budget: &mut u64| {
        *budget += 1;
        *budget > stop_after
    };

    for i in 0..TXNS {
        let cts = i + 1;
        let row = table
            .insert_version(&[Value::Int(i as i64)], mvcc::pending(cts))
            .unwrap();
        match variant {
            Variant::Correct => {
                // Step A: stamp + flush the row timestamp.
                if step(&mut steps) {
                    break;
                }
                table.commit_insert(row, cts).unwrap();
                // Step B: durable publish; report.
                if step(&mut steps) {
                    break;
                }
                r.write_pod(cts_cell, &cts).unwrap();
                r.persist(cts_cell, 8).unwrap();
                reported.push((i, cts));
            }
            Variant::PublishFirst => {
                // Step A: durable publish; report (BUG: rows not stamped).
                if step(&mut steps) {
                    break;
                }
                r.write_pod(cts_cell, &cts).unwrap();
                r.persist(cts_cell, 8).unwrap();
                reported.push((i, cts));
                // Step B: stamp the row timestamp.
                if step(&mut steps) {
                    break;
                }
                table.commit_insert(row, cts).unwrap();
            }
        }
    }
    let root = table.root_offset();
    region.crash(CrashPolicy::DropUnflushed);
    (reported, root, cts_cell)
}

fn violations(region: &Arc<NvmRegion>, reported: &[(u64, u64)], root: u64, cts_cell: u64) -> u64 {
    let (heap, _) = NvmHeap::open(region.clone()).unwrap();
    let last_cts: u64 = heap.region().read_pod(cts_cell).unwrap();
    let mut table = NvTable::open(&heap, root).unwrap();
    table.recover_mvcc(last_cts).unwrap();
    let visible: std::collections::HashSet<i64> = table
        .scan_visible(last_cts, 0)
        .unwrap()
        .into_iter()
        .map(|row| table.value(row, 0).unwrap().as_int().unwrap())
        .collect();
    reported
        .iter()
        .filter(|(i, _)| !visible.contains(&(*i as i64)))
        .count() as u64
}

pub fn run(h: &mut Run) {
    let seeds = 40u64;
    let mut rows_out = Vec::new();
    for (name, variant) in [
        ("correct (stamp→publish)", Variant::Correct),
        ("buggy (publish→stamp)", Variant::PublishFirst),
    ] {
        let mut total_violations = 0u64;
        let mut crashes_with_loss = 0u64;
        for seed in 0..seeds {
            let mut rng = SmallRng::seed_from_u64(seed);
            let stop_after = rng.gen_range_u64(1, TXNS * 2);
            let region = Arc::new(NvmRegion::new(64 << 20, LatencyModel::zero()));
            let (reported, root, cts_cell) = run_until_crash(&region, variant, stop_after);
            let v = violations(&region, &reported, root, cts_cell);
            total_violations += v;
            if v > 0 {
                crashes_with_loss += 1;
            }
        }
        rows_out.push(
            Row::new()
                .with("protocol", name)
                .with("crash_points", seeds)
                .with("lost_reported_txns", total_violations)
                .with("crashes_with_loss", crashes_with_loss),
        );
    }

    if rows_out[0].get("lost_reported_txns") != Some("0") {
        h.fail("the correct protocol must never lose a reported transaction");
    }
    h.table(
        "A1: commit ordering ablation (reported-committed transactions lost after crash)",
        rows_out,
    );
}
