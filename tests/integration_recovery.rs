//! Restart and recovery integration tests — the paper's headline behaviour.

use hyrise_nv::{Database, DurabilityConfig, IndexKind, TableId};
use storage::{ColumnDef, DataType, Schema, Value};

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("payload", DataType::Text),
    ])
}

fn row(k: i64) -> Vec<Value> {
    vec![Value::Int(k), format!("payload-{k}").into()]
}

fn populate(db: &mut Database, t: TableId, n: i64) {
    populate_from(db, t, 0..n);
}

fn populate_from(db: &mut Database, t: TableId, keys: std::ops::Range<i64>) {
    for k in keys {
        let mut tx = db.begin();
        db.insert(&mut tx, t, &row(k)).unwrap();
        db.commit(&mut tx).unwrap();
    }
}

#[test]
fn nvm_restart_recovers_all_committed_data() {
    let mut db = Database::create(DurabilityConfig::nvm_default()).unwrap();
    let t = db.create_table("t", schema()).unwrap();
    populate(&mut db, t, 200);
    let report = db.restart_after_crash().unwrap();
    assert_eq!(report.mode, "nvm");
    assert_eq!(report.rows_recovered, 200);
    assert_eq!(report.last_cts, 200);
    let tx = db.begin();
    let all = db.scan_all(&tx, t).unwrap();
    assert_eq!(all.len(), 200);
    for s in &all {
        let k = s.values[0].as_int().unwrap();
        assert_eq!(s.values[1], Value::Text(format!("payload-{k}")));
    }
}

#[test]
fn wal_restart_recovers_all_committed_data() {
    let mut db = Database::create(DurabilityConfig::wal_temp()).unwrap();
    let t = db.create_table("t", schema()).unwrap();
    populate(&mut db, t, 200);
    let report = db.restart_after_crash().unwrap();
    assert_eq!(report.mode, "wal");
    assert_eq!(report.rows_recovered, 200);
    assert_eq!(report.last_cts, 200);
    assert!(report.log_records_replayed > 0);
    let tx = db.begin();
    assert_eq!(db.scan_all(&tx, t).unwrap().len(), 200);
}

#[test]
fn failed_restart_keeps_the_log_attached_wal() {
    let config = DurabilityConfig::wal_temp();
    let DurabilityConfig::Wal(wal_cfg) = &config else {
        unreachable!("wal_temp is the WAL baseline")
    };
    let paths = wal::WalPaths::new(&wal_cfg.dir).unwrap();
    let mut db = Database::create(config).unwrap();
    let t = db.create_table("t", schema()).unwrap();
    populate(&mut db, t, 5);

    // An unreadable checkpoint fails the restart half way through.
    let good = std::fs::read(paths.checkpoint()).unwrap();
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0xff;
    std::fs::write(paths.checkpoint(), &bad).unwrap();
    assert!(db.restart_after_crash().is_err());

    // The engine is still logged: work committed after the failure
    // reaches the file, and the retry recovers from checkpoint + log
    // instead of taking the volatile engine's "data loss" branch.
    populate_from(&mut db, t, 5..6);
    std::fs::write(paths.checkpoint(), &good).unwrap();
    let report = db.restart_after_crash().unwrap();
    assert!(report.phases.iter().all(|p| p.name != "data loss"));
    assert_eq!(report.rows_recovered, 6);
    let tx = db.begin();
    assert_eq!(db.scan_all(&tx, t).unwrap().len(), 6);
}

#[test]
fn volatile_restart_loses_everything() {
    let mut db = Database::create(DurabilityConfig::Volatile).unwrap();
    let t = db.create_table("t", schema()).unwrap();
    populate(&mut db, t, 10);
    let report = db.restart_after_crash().unwrap();
    assert_eq!(report.rows_recovered, 0);
    assert_eq!(db.table_count(), 0);
    let _ = t;
}

#[test]
fn uncommitted_transaction_invisible_after_restart_nvm() {
    let mut db = Database::create(DurabilityConfig::nvm_default()).unwrap();
    let t = db.create_table("t", schema()).unwrap();
    populate(&mut db, t, 5);
    // In-flight transaction at crash time.
    let mut tx = db.begin();
    db.insert(&mut tx, t, &row(100)).unwrap();
    db.insert(&mut tx, t, &row(101)).unwrap();
    // No commit — crash.
    let report = db.restart_after_crash().unwrap();
    assert!(report.mvcc_words_repaired >= 1 || report.rows_recovered == 5);
    let tx = db.begin();
    let all = db.scan_all(&tx, t).unwrap();
    assert_eq!(all.len(), 5, "uncommitted rows must not reappear");
    assert!(all.iter().all(|s| s.values[0].as_int().unwrap() < 100));
}

#[test]
fn uncommitted_transaction_invisible_after_restart_wal() {
    let config = DurabilityConfig::wal_temp();
    let DurabilityConfig::Wal(wal_cfg) = &config else {
        unreachable!("wal_temp is the WAL baseline")
    };
    let paths = wal::WalPaths::new(&wal_cfg.dir).unwrap();
    let mut db = Database::create(config).unwrap();
    let t = db.create_table("t", schema()).unwrap();
    populate(&mut db, t, 5);
    let mut tx = db.begin();
    db.insert(&mut tx, t, &row(100)).unwrap();
    // No commit — the crash loses the unsynced insert record with the
    // writer's buffer.
    let first = db.restart_after_crash().unwrap();
    let tx = db.begin();
    assert_eq!(db.scan_all(&tx, t).unwrap().len(), 5);

    // The dead transaction's record must not surface later: new commits
    // reuse its row id, and a stale record flushed behind the new writer
    // would make the next replay disagree with the log about that id.
    populate_from(&mut db, t, 5..8);
    let second = db.restart_after_crash().unwrap();
    assert_eq!(
        second.log_records_replayed,
        first.log_records_replayed + 6,
        "second replay = first replay + 3 × (insert, commit), nothing of the dead txn"
    );
    let tx = db.begin();
    let keys: Vec<i64> = db
        .scan_all(&tx, t)
        .unwrap()
        .iter()
        .map(|r| r.values[0].as_int().unwrap())
        .collect();
    assert_eq!(keys, (0..8).collect::<Vec<_>>());
    // The writer's logical position (what a checkpoint records as covered)
    // is the real end of the file.
    db.checkpoint().unwrap();
    let (meta, _) = wal::load_checkpoint(&paths.checkpoint()).unwrap();
    assert_eq!(
        meta.covered_log_pos,
        std::fs::metadata(paths.log()).unwrap().len()
    );
}

#[test]
fn updates_and_deletes_survive_restart() {
    for config in [
        DurabilityConfig::nvm_default(),
        DurabilityConfig::wal_temp(),
    ] {
        let mode = config.mode_name();
        let mut db = Database::create(config).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        populate(&mut db, t, 10);
        // Update k=3, delete k=7.
        let mut tx = db.begin();
        let r3 = db.scan_eq(&tx, t, 0, &Value::Int(3)).unwrap()[0].row;
        db.update(&mut tx, t, r3, &[Value::Int(3), "updated".into()])
            .unwrap();
        let r7 = db.scan_eq(&tx, t, 0, &Value::Int(7)).unwrap()[0].row;
        db.delete(&mut tx, t, r7).unwrap();
        db.commit(&mut tx).unwrap();

        db.restart_after_crash().unwrap();
        let tx = db.begin();
        let all = db.scan_all(&tx, t).unwrap();
        assert_eq!(all.len(), 9, "{mode}");
        let three = db.scan_eq(&tx, t, 0, &Value::Int(3)).unwrap();
        assert_eq!(three[0].values[1], Value::Text("updated".into()), "{mode}");
        assert!(
            db.scan_eq(&tx, t, 0, &Value::Int(7)).unwrap().is_empty(),
            "{mode}"
        );
    }
}

#[test]
fn restart_after_merge_preserves_data() {
    for config in [
        DurabilityConfig::nvm_default(),
        DurabilityConfig::wal_temp(),
    ] {
        let mode = config.mode_name();
        let mut db = Database::create(config).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        populate(&mut db, t, 50);
        db.merge(t).unwrap();
        populate(&mut db, t, 10); // post-merge delta rows (k 0..10 again)
        db.restart_after_crash().unwrap();
        let tx = db.begin();
        assert_eq!(db.scan_all(&tx, t).unwrap().len(), 60, "{mode}");
    }
}

#[test]
fn indexes_usable_after_restart() {
    for config in [
        DurabilityConfig::nvm_default(),
        DurabilityConfig::wal_temp(),
    ] {
        let mode = config.mode_name();
        let mut db = Database::create(config).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        db.create_index(t, 0, IndexKind::Hash).unwrap();
        db.create_index(t, 0, IndexKind::Ordered).unwrap();
        populate(&mut db, t, 30);
        let report = db.restart_after_crash().unwrap();
        if mode == "nvm" {
            assert_eq!(report.indexes_attached, 2, "{mode}: both indexes attached");
            assert_eq!(report.indexes_rebuilt, 0, "{mode}: nothing rebuilt");
        } else {
            assert_eq!(report.indexes_rebuilt, 2, "{mode}: both rebuilt");
        }
        let tx = db.begin();
        let hits = db.index_lookup(&tx, t, 0, &Value::Int(17)).unwrap();
        assert_eq!(hits.len(), 1, "{mode}");
        let range = db
            .index_range_lookup(&tx, t, 0, Some(&Value::Int(5)), Some(&Value::Int(8)))
            .unwrap();
        assert_eq!(range.len(), 3, "{mode}");
    }
}

/// An index created while a transaction has rows staged indexes those rows
/// too, so its registration must not outlive them: after a crash the index
/// may name only rows the table still has.
#[test]
fn index_created_over_staged_rows_survives_a_crash() {
    for kind in [IndexKind::Hash, IndexKind::Ordered] {
        let mut db = Database::create(DurabilityConfig::nvm_default()).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        populate(&mut db, t, 5);
        let mut tx = db.begin();
        db.insert(&mut tx, t, &row(100)).unwrap();
        db.insert(&mut tx, t, &row(101)).unwrap();
        db.create_index(t, 0, kind).unwrap();
        assert_eq!(
            db.index_lookup(&tx, t, 0, &Value::Int(100)).unwrap().len(),
            1
        );
        // No commit — crash.
        db.restart_after_crash().unwrap();
        let integrity = db.verify_integrity().unwrap();
        assert!(integrity.index.is_clean(), "{kind:?}: {integrity:?}");
        let tx = db.begin();
        assert!(db
            .index_lookup(&tx, t, 0, &Value::Int(100))
            .unwrap()
            .is_empty());
        assert_eq!(db.index_lookup(&tx, t, 0, &Value::Int(3)).unwrap().len(), 1);
    }
}

#[test]
fn repeated_crash_restart_cycles() {
    for config in [
        DurabilityConfig::nvm_default(),
        DurabilityConfig::wal_temp(),
    ] {
        let mode = config.mode_name();
        let mut db = Database::create(config).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        let mut expected = 0;
        for round in 0..5 {
            for k in 0..10i64 {
                let mut tx = db.begin();
                db.insert(&mut tx, t, &row(round * 10 + k)).unwrap();
                db.commit(&mut tx).unwrap();
                expected += 1;
            }
            let report = db.restart_after_crash().unwrap();
            assert_eq!(report.rows_recovered, expected, "{mode} round {round}");
            let tx = db.begin();
            assert_eq!(
                db.scan_all(&tx, t).unwrap().len(),
                expected as usize,
                "{mode}"
            );
        }
    }
}

#[test]
fn nvm_restart_time_independent_of_data_size() {
    // The paper's headline claim, scaled down: recovery work for the NVM
    // backend must not grow with the main partition's size. We merge so
    // data sits in main (delta probe rebuild is the only size-dependent
    // transient work) and compare heap scans, not wall time (too noisy for
    // a unit test — the benches measure time).
    let sizes = [100i64, 800];
    let mut undo_scans = Vec::new();
    for &n in &sizes {
        let mut db = Database::create(DurabilityConfig::nvm_default()).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        populate(&mut db, t, n);
        db.merge(t).unwrap();
        let report = db.restart_after_crash().unwrap();
        assert_eq!(report.rows_recovered, n as u64);
        // The undo pass scans only delta MVCC words — zero after a merge.
        undo_scans.push(report.mvcc_words_repaired);
    }
    assert_eq!(undo_scans, vec![0, 0]);
}

#[test]
fn wal_replay_grows_with_data_size() {
    let sizes = [50u64, 200];
    let mut replayed = Vec::new();
    for &n in &sizes {
        let mut db = Database::create(DurabilityConfig::wal_temp()).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        populate(&mut db, t, n as i64);
        let report = db.restart_after_crash().unwrap();
        replayed.push(report.log_records_replayed);
    }
    assert!(
        replayed[1] > replayed[0] * 3,
        "replay work scales with data: {replayed:?}"
    );
}

#[test]
fn checkpoint_bounds_replay_work() {
    let mut db = Database::create(DurabilityConfig::wal_temp()).unwrap();
    let t = db.create_table("t", schema()).unwrap();
    populate(&mut db, t, 100);
    db.checkpoint().unwrap();
    populate(&mut db, t, 10); // rows 100..110 use keys 0..10 again
    let report = db.restart_after_crash().unwrap();
    assert_eq!(report.rows_recovered, 110);
    // Only the 10 post-checkpoint transactions replay (2 records each).
    assert!(
        report.log_records_replayed <= 25,
        "replayed {} records, checkpoint should cover the first 100 txns",
        report.log_records_replayed
    );
}

#[test]
fn random_eviction_crash_recovers_consistently() {
    for seed in 0..5u64 {
        let mut db = Database::create(DurabilityConfig::nvm_default()).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        populate(&mut db, t, 20);
        let mut tx = db.begin();
        db.insert(&mut tx, t, &row(999)).unwrap(); // in-flight at crash
        db.restart(nvm::CrashPolicy::RandomEviction { p: 0.5, seed })
            .unwrap();
        let tx = db.begin();
        let all = db.scan_all(&tx, t).unwrap();
        assert_eq!(all.len(), 20, "seed {seed}");
        assert!(all.iter().all(|s| s.values[0].as_int().unwrap() != 999));
    }
}

/// A `Transaction` is not borrowed from the `Database`, so a graceful
/// shutdown can find one in flight. Its pending markers must be undone by
/// the next open — the clean marker may not vouch for them.
#[test]
fn shutdown_with_a_transaction_in_flight_is_undone_on_open() {
    let image = std::env::temp_dir().join(format!("inflight-shutdown-{}.img", std::process::id()));
    let config = || DurabilityConfig::nvm_file(&image, 16 << 20, nvm::LatencyModel::zero());
    let mut db = Database::create(config()).unwrap();
    let t = db.create_table("t", schema()).unwrap();
    db.create_index(t, 0, IndexKind::Hash).unwrap();
    populate(&mut db, t, 4);
    let mut tx = db.begin();
    let hit = db
        .index_lookup(&tx, t, 0, &Value::Int(1))
        .unwrap()
        .remove(0);
    db.update(&mut tx, t, hit.row, &row(1)).unwrap();
    db.shutdown().unwrap();

    let (mut db, report) = Database::open(config()).unwrap();
    assert!(
        !report.clean_shutdown,
        "an in-flight transaction is not clean"
    );
    assert!(report.phases.iter().any(|p| p.name == "mvcc undo pass"));
    assert_eq!(db.verify_integrity().unwrap().mvcc.pending_markers, 0);
    let mut tx = db.begin();
    db.update(&mut tx, t, hit.row, &row(1)).unwrap();
    db.commit(&mut tx).unwrap();
    db.merge(t).unwrap();
    let tx = db.begin();
    assert_eq!(db.scan_all(&tx, t).unwrap().len(), 4);

    // Quiesced, the same shutdown still takes the clean fast path.
    db.shutdown().unwrap();
    let (_, report) = Database::open(config()).unwrap();
    assert!(report.clean_shutdown);
    assert!(!report.phases.iter().any(|p| p.name == "mvcc undo pass"));
    let _ = std::fs::remove_file(&image);
}

/// A `WalConfig::temp()` directory lives exactly as long as the `Database`
/// created over it — across restarts inside it, not past its drop — and a
/// caller-supplied directory is never removed.
#[test]
fn temp_wal_directory_goes_with_its_database() {
    for config in [
        DurabilityConfig::wal_temp(),
        DurabilityConfig::nvm_with_wal(16 << 20, nvm::LatencyModel::zero()),
    ] {
        let (DurabilityConfig::Wal(wal) | DurabilityConfig::NvmWithWal { wal, .. }) = &config
        else {
            unreachable!()
        };
        let dir = wal.dir.clone();
        let mut db = Database::create(config).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        populate(&mut db, t, 3);
        db.restart_after_crash().unwrap();
        assert!(dir.join("wal.log").exists(), "restart keeps the directory");
        if let Some(region) = db.nv_backend().map(|b| b.region().clone()) {
            region.trace_start(nvm::TraceConfig::default());
            region
                .arm_crash(nvm::CrashPoint::AtFence { fence: 2 })
                .unwrap();
            populate_from(&mut db, t, 3..5);
            db.restart_scheduled().unwrap();
            assert!(dir.join("wal.log").exists(), "restart keeps the directory");
        }
        populate_from(&mut db, t, 5..7);
        drop(db);
        assert!(!dir.exists(), "{} left behind", dir.display());
    }

    let dir = std::env::temp_dir().join(format!("explicit-wal-{}", std::process::id()));
    let wal = hyrise_nv::WalConfig {
        dir: dir.clone(),
        sync_latency_ns: 0,
        sync_every_n_commits: 1,
    };
    let mut db = Database::create(DurabilityConfig::Wal(wal)).unwrap();
    let t = db.create_table("t", schema()).unwrap();
    populate(&mut db, t, 3);
    drop(db);
    assert!(dir.join("wal.log").exists(), "a caller's directory is kept");
    std::fs::remove_dir_all(&dir).unwrap();
}
