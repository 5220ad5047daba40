//! Cross-crate integration tests: the `Database` façade over all three
//! durability backends (the NVM one with and without its shadow log).

use hyrise_nv::{Database, DurabilityConfig, IndexKind, TableId};
use storage::{ColumnDef, DataType, Schema, Value};

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("name", DataType::Text),
        ColumnDef::new("balance", DataType::Double),
    ])
}

fn row(id: i64, name: &str, balance: f64) -> Vec<Value> {
    vec![Value::Int(id), name.into(), Value::Double(balance)]
}

fn all_configs() -> Vec<DurabilityConfig> {
    vec![
        DurabilityConfig::nvm_default(),
        DurabilityConfig::nvm_with_wal(256 << 20, nvm::LatencyModel::pcm()),
        DurabilityConfig::wal_temp(),
        DurabilityConfig::Volatile,
    ]
}

fn setup(config: DurabilityConfig) -> (Database, TableId) {
    let mut db = Database::create(config).unwrap();
    let t = db.create_table("accounts", schema()).unwrap();
    (db, t)
}

#[test]
fn crud_roundtrip_on_every_backend() {
    for config in all_configs() {
        let mode = config.mode_name();
        let (mut db, t) = setup(config);

        // Insert + commit.
        let mut tx = db.begin();
        let r1 = db.insert(&mut tx, t, &row(1, "alice", 100.0)).unwrap();
        db.insert(&mut tx, t, &row(2, "bob", 50.0)).unwrap();
        db.commit(&mut tx).unwrap();

        let tx = db.begin();
        let all = db.scan_all(&tx, t).unwrap();
        assert_eq!(all.len(), 2, "{mode}");

        // Update.
        let mut tx = db.begin();
        db.update(&mut tx, t, r1, &row(1, "alice", 175.0)).unwrap();
        db.commit(&mut tx).unwrap();
        let tx = db.begin();
        let alice = db.scan_eq(&tx, t, 0, &Value::Int(1)).unwrap();
        assert_eq!(alice.len(), 1, "{mode}");
        assert_eq!(alice[0].values[2], Value::Double(175.0), "{mode}");

        // Delete.
        let mut tx = db.begin();
        let bob_row = db.scan_eq(&tx, t, 0, &Value::Int(2)).unwrap()[0].row;
        db.delete(&mut tx, t, bob_row).unwrap();
        db.commit(&mut tx).unwrap();
        let tx = db.begin();
        assert_eq!(db.scan_all(&tx, t).unwrap().len(), 1, "{mode}");
    }
}

#[test]
fn snapshot_isolation_on_every_backend() {
    for config in all_configs() {
        let mode = config.mode_name();
        let (mut db, t) = setup(config);
        let mut tx1 = db.begin();
        db.insert(&mut tx1, t, &row(1, "x", 0.0)).unwrap();
        // Reader with an older snapshot.
        let reader = db.begin();
        assert!(db.scan_all(&reader, t).unwrap().is_empty(), "{mode}");
        db.commit(&mut tx1).unwrap();
        // Old snapshot still empty; new snapshot sees the row.
        assert!(db.scan_all(&reader, t).unwrap().is_empty(), "{mode}");
        let fresh = db.begin();
        assert_eq!(db.scan_all(&fresh, t).unwrap().len(), 1, "{mode}");
    }
}

#[test]
fn abort_rolls_back_on_every_backend() {
    for config in all_configs() {
        let mode = config.mode_name();
        let (mut db, t) = setup(config);
        let mut tx = db.begin();
        let r = db.insert(&mut tx, t, &row(1, "seed", 10.0)).unwrap();
        db.commit(&mut tx).unwrap();

        let mut tx = db.begin();
        db.update(&mut tx, t, r, &row(1, "mutated", 99.0)).unwrap();
        db.insert(&mut tx, t, &row(2, "extra", 0.0)).unwrap();
        db.abort(&mut tx).unwrap();

        let tx = db.begin();
        let all = db.scan_all(&tx, t).unwrap();
        assert_eq!(all.len(), 1, "{mode}");
        assert_eq!(all[0].values[1], Value::Text("seed".into()), "{mode}");
    }
}

#[test]
fn write_conflicts_surface_on_every_backend() {
    for config in all_configs() {
        let mode = config.mode_name();
        let (mut db, t) = setup(config);
        let mut tx = db.begin();
        let r = db.insert(&mut tx, t, &row(1, "c", 0.0)).unwrap();
        db.commit(&mut tx).unwrap();

        let mut a = db.begin();
        let mut b = db.begin();
        db.delete(&mut a, t, r).unwrap();
        let err = db.delete(&mut b, t, r).unwrap_err();
        assert!(hyrise_nv::is_conflict(&err), "{mode}: {err}");
        db.abort(&mut b).unwrap();
        db.commit(&mut a).unwrap();
    }
}

#[test]
fn merge_compacts_and_preserves_scans() {
    for config in all_configs() {
        let mode = config.mode_name();
        let (mut db, t) = setup(config);
        for i in 0..30i64 {
            let mut tx = db.begin();
            db.insert(&mut tx, t, &row(i, &format!("n{}", i % 4), i as f64))
                .unwrap();
            db.commit(&mut tx).unwrap();
        }
        // Delete a third.
        let mut tx = db.begin();
        let victims: Vec<u64> = db
            .scan_range(&tx, t, 0, Some(&Value::Int(0)), Some(&Value::Int(10)))
            .unwrap()
            .iter()
            .map(|s| s.row)
            .collect();
        for v in victims {
            db.delete(&mut tx, t, v).unwrap();
        }
        db.commit(&mut tx).unwrap();

        let stats = db.merge(t).unwrap();
        assert_eq!(stats.rows_merged, 20, "{mode}");
        let tx = db.begin();
        assert_eq!(db.scan_all(&tx, t).unwrap().len(), 20, "{mode}");
        let hits = db
            .scan_range(&tx, t, 0, Some(&Value::Int(15)), Some(&Value::Int(20)))
            .unwrap();
        assert_eq!(hits.len(), 5, "{mode}");

        // Post-merge writes still work.
        let mut tx = db.begin();
        db.insert(&mut tx, t, &row(99, "post", 1.0)).unwrap();
        db.commit(&mut tx).unwrap();
        let tx = db.begin();
        assert_eq!(db.scan_all(&tx, t).unwrap().len(), 21, "{mode}");
    }
}

/// Index layouts over the `accounts` table: the usual one index per column,
/// and both kinds on column 0 in either creation order (`scan_large`'s
/// shape) — a point probe must pick the hash index, a range the ordered one.
const INDEX_LAYOUTS: [[(usize, IndexKind); 2]; 3] = [
    [(0, IndexKind::Hash), (2, IndexKind::Ordered)],
    [(0, IndexKind::Hash), (0, IndexKind::Ordered)],
    [(0, IndexKind::Ordered), (0, IndexKind::Hash)],
];

/// `index_lookup` / `index_range_lookup` return exactly the rows of
/// `scan_eq` / `scan_range`, on both indexed columns.
fn assert_indexes_agree_with_scans(db: &mut Database, t: TableId, what: &str) {
    let by_row = |mut hits: Vec<storage::ScanResult>| {
        hits.sort_by_key(|h| h.row);
        hits
    };
    let tx = db.begin();
    for k in 0..11i64 {
        let key = Value::Int(k);
        assert_eq!(
            by_row(db.index_lookup(&tx, t, 0, &key).unwrap()),
            by_row(db.scan_eq(&tx, t, 0, &key).unwrap()),
            "{what} key {k}"
        );
    }
    for (column, lo, hi) in [
        (0, Value::Int(2), Value::Int(5)),
        (2, Value::Double(2.0), Value::Double(5.0)),
    ] {
        let via_idx = db
            .index_range_lookup(&tx, t, column, Some(&lo), Some(&hi))
            .unwrap();
        let via_scan = db.scan_range(&tx, t, column, Some(&lo), Some(&hi)).unwrap();
        assert!(!via_scan.is_empty(), "{what} range on column {column}");
        assert_eq!(
            by_row(via_idx),
            by_row(via_scan),
            "{what} range on column {column}"
        );
    }
}

#[test]
fn index_lookup_agrees_with_scan() {
    for layout in INDEX_LAYOUTS {
        for config in all_configs() {
            let what = format!("{} {layout:?}", config.mode_name());
            let (mut db, t) = setup(config);
            for (column, kind) in layout {
                db.create_index(t, column, kind).unwrap();
            }
            for i in 0..50i64 {
                let mut tx = db.begin();
                db.insert(&mut tx, t, &row(i % 10, &format!("u{i}"), (i % 7) as f64))
                    .unwrap();
                db.commit(&mut tx).unwrap();
            }
            assert_indexes_agree_with_scans(&mut db, t, &what);
        }
    }
}

#[test]
fn index_survives_merge() {
    for layout in INDEX_LAYOUTS {
        for config in all_configs() {
            let durable = !matches!(config, DurabilityConfig::Volatile);
            let what = format!("{} {layout:?}", config.mode_name());
            let (mut db, t) = setup(config);
            for (column, kind) in layout {
                db.create_index(t, column, kind).unwrap();
            }
            for i in 0..20i64 {
                let mut tx = db.begin();
                db.insert(&mut tx, t, &row(i % 5, "m", (i % 7) as f64))
                    .unwrap();
                db.commit(&mut tx).unwrap();
            }
            db.merge(t).unwrap();
            let tx = db.begin();
            let hits = db.index_lookup(&tx, t, 0, &Value::Int(3)).unwrap();
            assert_eq!(hits.len(), 4, "{what}");
            assert_indexes_agree_with_scans(&mut db, t, &format!("{what} after merge"));
            if durable {
                db.restart_after_crash().unwrap();
                assert_indexes_agree_with_scans(&mut db, t, &format!("{what} after restart"));
            }
        }
    }
}

/// A redo-log append that fails after the version (or the end marker) is in
/// the table but before the transaction recorded the write must be unwound
/// on the spot: `abort` never sees it. Left in place, the pending begin
/// marker fails every later merge and the end marker write-locks the row.
#[test]
fn failed_log_append_unwinds_the_write() {
    let enospc = wal::WalFaultSpec {
        class: wal::WalFaultClass::AppendEnospc,
        nth: 0,
    };
    for config in [
        DurabilityConfig::wal_temp(),
        DurabilityConfig::nvm_with_wal(256 << 20, nvm::LatencyModel::pcm()),
    ] {
        let mode = config.mode_name();
        let (mut db, t) = setup(config);
        let mut tx = db.begin();
        db.insert(&mut tx, t, &row(1, "seed", 1.0)).unwrap();
        db.commit(&mut tx).unwrap();

        for failing_delete in [false, true] {
            db.arm_wal_fault(enospc).unwrap();
            let mut tx = db.begin();
            let err = if failing_delete {
                let seeded = db.scan_all(&tx, t).unwrap()[0].row;
                db.delete(&mut tx, t, seeded).unwrap_err()
            } else {
                db.insert(&mut tx, t, &row(2, "lost", 2.0)).unwrap_err()
            };
            assert!(err.is_capacity(), "{mode}: {err}");
            db.abort(&mut tx).unwrap();
            // The injected failure wedges the writer; reclamation replaces
            // the log and merges every table — over a clean image.
            let reclaimed = db.reclaim().unwrap();
            assert!(reclaimed.wal_recreated, "{mode}");
            assert_eq!(reclaimed.tables_merged, 1, "{mode}");
            assert!(db.verify_integrity().unwrap().mvcc.is_clean(), "{mode}");
            db.merge(t).unwrap();
        }

        let mut tx = db.begin();
        let survivors = db.scan_all(&tx, t).unwrap();
        assert_eq!(survivors.len(), 1, "{mode}");
        db.delete(&mut tx, t, survivors[0].row).unwrap();
        db.commit(&mut tx).unwrap();
        // The recreated log and its checkpoint carry the state across a crash.
        db.restart_after_crash().unwrap();
        let tx = db.begin();
        assert!(db.scan_all(&tx, t).unwrap().is_empty(), "{mode}");
    }
}

#[test]
fn catalog_duplicate_and_unknown_errors() {
    let (mut db, t) = setup(DurabilityConfig::nvm_default());
    assert!(db.create_table("accounts", schema()).is_err());
    assert_eq!(db.table_id("accounts"), Some(t));
    assert_eq!(db.table_id("nope"), None);
    let tx = db.begin();
    assert!(db.scan_all(&tx, TableId(9)).is_err());
}

#[test]
fn multi_table_transactions() {
    for config in all_configs() {
        let mode = config.mode_name();
        let mut db = Database::create(config).unwrap();
        let a = db.create_table("a", schema()).unwrap();
        let b = db.create_table("b", schema()).unwrap();
        let mut tx = db.begin();
        db.insert(&mut tx, a, &row(1, "in-a", 0.0)).unwrap();
        db.insert(&mut tx, b, &row(2, "in-b", 0.0)).unwrap();
        db.commit(&mut tx).unwrap();
        let tx = db.begin();
        assert_eq!(db.scan_all(&tx, a).unwrap().len(), 1, "{mode}");
        assert_eq!(db.scan_all(&tx, b).unwrap().len(), 1, "{mode}");

        // A multi-table abort rolls back both.
        let mut tx = db.begin();
        db.insert(&mut tx, a, &row(3, "x", 0.0)).unwrap();
        db.insert(&mut tx, b, &row(4, "y", 0.0)).unwrap();
        db.abort(&mut tx).unwrap();
        let tx = db.begin();
        assert_eq!(db.scan_all(&tx, a).unwrap().len(), 1, "{mode}");
        assert_eq!(db.scan_all(&tx, b).unwrap().len(), 1, "{mode}");
    }
}

#[test]
fn nvm_flush_accounting_visible() {
    let (mut db, t) = setup(DurabilityConfig::nvm_default());
    let before = db.nvm_stats();
    let mut tx = db.begin();
    db.insert(&mut tx, t, &row(1, "f", 0.0)).unwrap();
    db.commit(&mut tx).unwrap();
    let after = db.nvm_stats();
    let delta = after.since(&before);
    assert!(delta.flush_calls > 0, "inserts must flush");
    assert!(delta.fences > 0, "commits must fence");
    assert!(db.simulated_ns() > 0, "latency ledger charged");
}

/// The fence budget of the write path, measured by counter deltas on the
/// simulated and the file-backed medium alike: a transaction pays for its
/// ordering points, not for its rows, and a merge for its blocks.
#[test]
fn write_path_stays_within_its_fence_budget() {
    let image = std::env::temp_dir().join(format!("fence-budget-{}.img", std::process::id()));
    let _ = std::fs::remove_file(&image);
    let zero = nvm::LatencyModel::zero();
    for config in [
        DurabilityConfig::nvm(256 << 20, zero),
        DurabilityConfig::nvm_file(&image, 256 << 20, zero),
    ] {
        let (mut db, t) = setup(config);
        db.create_index(t, 0, IndexKind::Hash).unwrap();
        let live_blocks = |db: &Database| {
            let heap = db.nv_backend().unwrap().heap();
            let blocks = heap.walk().unwrap();
            let live = |b: &&nvm::BlockInfo| b.state == nvm::AllocState::Allocated;
            blocks.iter().filter(live).count() as u64
        };
        // What a merge may cost given the blocks it allocated and freed: one
        // drain, one publish, and the allocator's protocol per block.
        let merge_bound = |allocs: u64, frees: u64| {
            4 + nvm::ALLOC_MAX_FENCES * allocs + nvm::FREE_MAX_FENCES * frees
        };
        let mut merge_allocs = Vec::new();
        let mut next_id = 0i64;
        for rows in [1_024, 8_192] {
            // 256-row insert transactions: at most two fences per row, plus
            // a constant (measured: five, plus the arrays' growth).
            while next_id < rows {
                let f0 = db.nvm_stats().fences;
                let mut tx = db.begin();
                for _ in 0..256 {
                    let name = format!("name-{next_id}");
                    db.insert(&mut tx, t, &row(next_id, &name, 1.0)).unwrap();
                    next_id += 1;
                }
                db.commit(&mut tx).unwrap();
                let fences = db.nvm_stats().fences - f0;
                assert!(fences <= 2 * 256 + 16, "256-row insert: {fences} fences");
            }

            // A merge of N rows: no term in N.
            let (f0, a0, live0) = (db.nvm_stats().fences, db.alloc_attempts(), live_blocks(&db));
            db.merge(t).unwrap();
            let fences = db.nvm_stats().fences - f0;
            let allocs = db.alloc_attempts() - a0;
            let frees = live0 + allocs - live_blocks(&db);
            assert!(
                fences <= merge_bound(allocs, frees),
                "merge of {rows} rows: {fences} fences for {allocs} allocations, {frees} frees"
            );
            merge_allocs.push(allocs);

            // Single-row updates on the hash-indexed table, at steady state
            // (an update that has to allocate — an index pool, a grown
            // array — pays the allocator's protocol on top).
            for k in 0..64i64 {
                let tx = db.begin();
                let hit = db.index_lookup(&tx, t, 0, &Value::Int(k * 7)).unwrap();
                let (f0, a0) = (db.nvm_stats().fences, db.alloc_attempts());
                let mut tx = db.begin();
                db.update(
                    &mut tx,
                    t,
                    hit[0].row,
                    &row(k * 7, &format!("upd-{rows}-{k}"), 2.0),
                )
                .unwrap();
                db.commit(&mut tx).unwrap();
                let fences = db.nvm_stats().fences - f0;
                let allocs = db.alloc_attempts() - a0;
                assert!(
                    fences <= 8 + (nvm::ALLOC_MAX_FENCES + 1) * allocs,
                    "update {k} after {rows} rows: {fences} fences, {allocs} allocations"
                );
            }
        }
        assert_eq!(
            merge_allocs[0], merge_allocs[1],
            "a merge allocates per column and index, not per row"
        );
        // The reads the loop above issued fenced nothing: every fence is
        // accounted for by a write.
        let f0 = db.nvm_stats().fences;
        let tx = db.begin();
        assert_eq!(db.index_lookup(&tx, t, 0, &Value::Int(7)).unwrap().len(), 1);
        assert_eq!(db.nvm_stats().fences, f0);
    }
    let _ = std::fs::remove_file(&image);
}

#[test]
fn wal_group_commit_batches_syncs() {
    let mut cfg = hyrise_nv::WalConfig::temp();
    cfg.sync_every_n_commits = 8;
    let mut db = Database::create(DurabilityConfig::Wal(cfg)).unwrap();
    let t = db.create_table("t", schema()).unwrap();
    let s0 = db.wal_stats().syncs;
    for i in 0..16i64 {
        let mut tx = db.begin();
        db.insert(&mut tx, t, &row(i, "g", 0.0)).unwrap();
        db.commit(&mut tx).unwrap();
    }
    let s1 = db.wal_stats().syncs;
    assert_eq!(s1 - s0, 2, "16 commits / window 8 = 2 syncs");
}
