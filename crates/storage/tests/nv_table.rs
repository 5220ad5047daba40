//! Integration tests for the NVM-resident table: functional parity with the
//! volatile table plus crash/recovery behaviour.

use std::sync::Arc;

use nvm::{CrashPolicy, LatencyModel, NvmHeap, NvmRegion};
use storage::mvcc::{self, TS_INF};
use storage::nv::NvTable;
use storage::{ColumnDef, DataType, Schema, StorageError, TableStore, Value};

fn heap(bytes: u64) -> NvmHeap {
    NvmHeap::format(Arc::new(NvmRegion::new(bytes, LatencyModel::zero()))).unwrap()
}

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("s", DataType::Text),
        ColumnDef::new("x", DataType::Double),
    ])
}

fn row(k: i64, s: &str, x: f64) -> Vec<Value> {
    vec![Value::Int(k), s.into(), Value::Double(x)]
}

fn reopen(h: &NvmHeap, root: u64) -> NvTable {
    let (h2, _) = NvmHeap::open(h.region().clone()).unwrap();
    NvTable::open(&h2, root).unwrap()
}

#[test]
fn create_insert_read() {
    let h = heap(1 << 22);
    let mut t = NvTable::create(&h, schema()).unwrap();
    let r = t.insert_version(&row(7, "hello", 1.25), 3).unwrap();
    assert_eq!(t.row_count(), 1);
    assert_eq!(t.row_values(r).unwrap(), row(7, "hello", 1.25));
    assert_eq!(t.begin_ts(r).unwrap(), 3);
    assert_eq!(t.end_ts(r).unwrap(), TS_INF);
}

#[test]
fn committed_rows_survive_crash_and_reopen() {
    let h = heap(1 << 22);
    let mut t = NvTable::create(&h, schema()).unwrap();
    let root = t.root_offset();
    for i in 0..50 {
        let r = t
            .insert_version(&row(i, &format!("s{i}"), i as f64), mvcc::pending(1))
            .unwrap();
        t.commit_insert(r, (i + 1) as u64).unwrap();
    }
    h.region().crash(CrashPolicy::DropUnflushed);
    let t2 = reopen(&h, root);
    assert_eq!(t2.row_count(), 50);
    for i in 0..50u64 {
        assert_eq!(
            t2.row_values(i).unwrap(),
            row(i as i64, &format!("s{i}"), i as f64)
        );
        assert_eq!(t2.begin_ts(i).unwrap(), i + 1);
    }
}

#[test]
fn pending_rows_rolled_back_by_recover_mvcc() {
    let h = heap(1 << 22);
    let mut t = NvTable::create(&h, schema()).unwrap();
    let root = t.root_offset();
    let r1 = t
        .insert_version(&row(1, "committed", 0.0), mvcc::pending(1))
        .unwrap();
    t.commit_insert(r1, 5).unwrap();
    // Pending insert (txn never committed), published by some other
    // transaction's commit before the crash.
    t.insert_version(&row(2, "pending", 0.0), mvcc::pending(2))
        .unwrap();
    t.publish().unwrap();
    // Pending invalidation of the committed row.
    t.try_invalidate(r1, mvcc::pending(2)).unwrap();

    h.region().crash(CrashPolicy::DropUnflushed);
    let mut t2 = reopen(&h, root);
    let repaired = t2.recover_mvcc(5).unwrap();
    assert_eq!(repaired, 2);
    let vis = t2.scan_visible(5, 99).unwrap();
    assert_eq!(vis, vec![r1], "only the committed row is visible");
    assert_eq!(
        t2.end_ts(r1).unwrap(),
        TS_INF,
        "pending invalidation undone"
    );
}

#[test]
fn unpublished_commit_timestamps_rolled_back() {
    // A commit whose timestamps were flushed but whose global CTS publish
    // never happened must be treated as aborted.
    let h = heap(1 << 22);
    let mut t = NvTable::create(&h, schema()).unwrap();
    let root = t.root_offset();
    let r = t
        .insert_version(&row(1, "x", 0.0), mvcc::pending(1))
        .unwrap();
    t.commit_insert(r, 9).unwrap(); // cts 9, but suppose last durable cts is 3
    h.region().crash(CrashPolicy::DropUnflushed);
    let mut t2 = reopen(&h, root);
    t2.recover_mvcc(3).unwrap();
    assert!(t2.scan_visible(100, 99).unwrap().is_empty());
}

#[test]
fn insert_without_publish_invisible_after_crash() {
    let h = heap(1 << 22);
    let mut t = NvTable::create(&h, schema()).unwrap();
    let root = t.root_offset();
    let r = t.insert_version(&row(1, "keep", 0.0), 1).unwrap();
    assert_eq!(r, 0);
    t.publish().unwrap();
    // A staged row is the writer's alone: it reads it back, but the row
    // counter does not cover it, so after a crash only row 0 exists.
    let staged = t.insert_version(&row(2, "lose", 0.0), 1).unwrap();
    assert_eq!(t.row_count(), 2);
    assert_eq!(t.value(staged, 1).unwrap(), Value::Text("lose".into()));
    h.region().crash(CrashPolicy::DropUnflushed);
    let t2 = reopen(&h, root);
    assert_eq!(t2.row_count(), 1);
    assert_eq!(t2.value(0, 1).unwrap(), Value::Text("keep".into()));
}

/// The length words of a column's dictionary and blob are published under
/// one fence, so a crash may keep any subset of them. Whatever it keeps, a
/// reopened table must neither lose a published dictionary entry's string
/// nor let a later append overwrite it.
#[test]
fn any_subset_of_length_publishes_reopens_consistently() {
    use nvm::{CrashPoint, MidEpochSurvival, TraceConfig};
    for seed in 0..24u64 {
        let h = heap(1 << 22);
        let mut t = NvTable::create(&h, schema()).unwrap();
        let root = t.root_offset();
        let r0 = t.insert_version(&row(1, "first", 0.0), 1).unwrap();
        t.publish().unwrap();

        let region = h.region().clone();
        region.trace_start(TraceConfig { keep_events: false });
        t.insert_version(&row(2, "second string", 0.0), 1).unwrap();
        region.fence();
        assert!(t.publish_lens().unwrap());
        // Power fails inside the epoch that holds the length publishes.
        let survival = MidEpochSurvival::Random { p: 0.5, seed };
        region
            .arm_crash(CrashPoint::MidEpoch { epoch: 1, survival })
            .unwrap();
        region.fence();
        region.finalize_scheduled_crash().unwrap();
        region.trace_stop();

        let mut t2 = reopen(&h, root);
        assert_eq!(t2.row_count(), 1, "seed {seed}: row counter never moved");
        let again = t2.insert_version(&row(2, "second string", 0.0), 1).unwrap();
        let third = t2.insert_version(&row(3, "third", 0.0), 1).unwrap();
        t2.publish().unwrap();
        let t3 = reopen(&h, root);
        for (r, want) in [(r0, "first"), (again, "second string"), (third, "third")] {
            assert_eq!(
                t3.value(r, 1).unwrap(),
                Value::Text(want.into()),
                "seed {seed}"
            );
        }
        t3.verify_media(u64::MAX).unwrap();
    }
}

#[test]
fn scan_eq_and_range_parity_with_vtable() {
    let h = heap(1 << 24);
    let mut nv = NvTable::create(&h, schema()).unwrap();
    let mut v = storage::VTable::new(schema());
    for i in 0..40i64 {
        let vals = row(i % 7, &format!("g{}", i % 3), (i % 5) as f64);
        nv.insert_version(&vals, 1).unwrap();
        v.insert_version(&vals, 1).unwrap();
    }
    // Exercise main + delta on both: merge, then add more.
    nv.merge(1).unwrap();
    v.merge(1).unwrap();
    for i in 0..20i64 {
        let vals = row(i % 7, &format!("g{}", i % 3), (i % 5) as f64);
        nv.insert_version(&vals, 2).unwrap();
        v.insert_version(&vals, 2).unwrap();
    }
    for key in 0..8i64 {
        let a = nv.scan_eq(0, &Value::Int(key), 5, 99).unwrap();
        let b = v.scan_eq(0, &Value::Int(key), 5, 99).unwrap();
        assert_eq!(a, b, "eq scan parity for key {key}");
    }
    for s in ["g0", "g1", "g2", "missing"] {
        let a = nv.scan_eq(1, &s.into(), 5, 99).unwrap();
        let b = v.scan_eq(1, &s.into(), 5, 99).unwrap();
        assert_eq!(a, b, "text eq scan parity for {s}");
    }
    let a = nv
        .scan_range(0, Some(&Value::Int(2)), Some(&Value::Int(5)), 5, 99)
        .unwrap();
    let b = v
        .scan_range(0, Some(&Value::Int(2)), Some(&Value::Int(5)), 5, 99)
        .unwrap();
    assert_eq!(a, b, "range scan parity");
    let a = nv
        .scan_range(2, None, Some(&Value::Double(3.0)), 5, 99)
        .unwrap();
    let b = v
        .scan_range(2, None, Some(&Value::Double(3.0)), 5, 99)
        .unwrap();
    assert_eq!(a, b, "double range parity");
}

#[test]
fn merge_survives_crash_after_swap() {
    let h = heap(1 << 24);
    let mut t = NvTable::create(&h, schema()).unwrap();
    let root = t.root_offset();
    for i in 0..30i64 {
        let r = t
            .insert_version(&row(i, "m", 0.5), mvcc::pending(1))
            .unwrap();
        t.commit_insert(r, 2).unwrap();
    }
    // Invalidate ten rows before merging.
    for rid in 0..10u64 {
        t.try_invalidate(rid, mvcc::pending(3)).unwrap();
        t.commit_invalidate(rid, 4).unwrap();
    }
    let stats = t.merge(10).unwrap();
    assert_eq!(stats.rows_merged, 20);
    assert_eq!(t.main_rows(), 20);
    h.region().crash(CrashPolicy::DropUnflushed);
    let t2 = reopen(&h, root);
    assert_eq!(t2.main_rows(), 20);
    assert_eq!(t2.row_count(), 20);
    let vis = t2.scan_visible(10, 99).unwrap();
    assert_eq!(vis.len(), 20);
    // Values preserved (ks 10..30).
    let mut ks: Vec<i64> = vis
        .iter()
        .map(|&r| t2.value(r, 0).unwrap().as_int().unwrap())
        .collect();
    ks.sort();
    assert_eq!(ks, (10..30).collect::<Vec<_>>());
}

#[test]
fn merge_reclaims_old_tree() {
    let h = heap(1 << 24);
    let mut t = NvTable::create(&h, schema()).unwrap();
    for i in 0..20i64 {
        let r = t
            .insert_version(&row(i, &format!("v{i}"), 0.0), mvcc::pending(1))
            .unwrap();
        t.commit_insert(r, 2).unwrap();
    }
    t.merge(5).unwrap();
    let live_after_first: u64 = h
        .walk()
        .unwrap()
        .iter()
        .filter(|b| b.state == nvm::AllocState::Allocated)
        .count() as u64;
    // Merging again without new data should not monotonically grow the set
    // of live blocks (old trees are freed).
    t.merge(5).unwrap();
    t.merge(5).unwrap();
    let live_after_third: u64 = h
        .walk()
        .unwrap()
        .iter()
        .filter(|b| b.state == nvm::AllocState::Allocated)
        .count() as u64;
    assert!(
        live_after_third <= live_after_first + 2,
        "live blocks grew {live_after_first} -> {live_after_third}"
    );
}

#[test]
fn update_chain_across_restart() {
    let h = heap(1 << 22);
    let mut t = NvTable::create(&h, schema()).unwrap();
    let root = t.root_offset();
    let r1 = t
        .insert_version(&row(1, "v1", 0.0), mvcc::pending(1))
        .unwrap();
    t.commit_insert(r1, 2).unwrap();
    t.try_invalidate(r1, mvcc::pending(2)).unwrap();
    let r2 = t
        .insert_version(&row(1, "v2", 0.0), mvcc::pending(2))
        .unwrap();
    t.commit_invalidate(r1, 5).unwrap();
    t.commit_insert(r2, 5).unwrap();
    h.region().crash(CrashPolicy::DropUnflushed);
    let mut t2 = reopen(&h, root);
    t2.recover_mvcc(5).unwrap();
    assert_eq!(t2.scan_visible(4, 99).unwrap(), vec![r1]);
    assert_eq!(t2.scan_visible(5, 99).unwrap(), vec![r2]);
    assert_eq!(t2.value(r2, 1).unwrap(), Value::Text("v2".into()));
}

#[test]
fn write_conflict_detected_on_nvm() {
    let h = heap(1 << 22);
    let mut t = NvTable::create(&h, schema()).unwrap();
    let r = t.insert_version(&row(1, "a", 0.0), 1).unwrap();
    t.try_invalidate(r, mvcc::pending(7)).unwrap();
    assert!(matches!(
        t.try_invalidate(r, mvcc::pending(8)),
        Err(StorageError::WriteConflict { .. })
    ));
}

#[test]
fn dictionary_probe_rebuilt_after_reopen() {
    let h = heap(1 << 22);
    let mut t = NvTable::create(&h, schema()).unwrap();
    let root = t.root_offset();
    for i in 0..10i64 {
        let r = t
            .insert_version(&row(i % 3, "dup", 0.0), mvcc::pending(1))
            .unwrap();
        t.commit_insert(r, 1).unwrap();
    }
    h.region().crash(CrashPolicy::DropUnflushed);
    let mut t2 = reopen(&h, root);
    // Probe maps must dedupe against recovered dictionaries: inserting an
    // existing value must not grow the dictionary.
    let hits_before = t2.scan_eq(0, &Value::Int(0), 10, 99).unwrap().len();
    let r = t2
        .insert_version(&row(0, "dup", 0.0), mvcc::pending(2))
        .unwrap();
    t2.commit_insert(r, 2).unwrap();
    let hits_after = t2.scan_eq(0, &Value::Int(0), 10, 99).unwrap().len();
    assert_eq!(hits_after, hits_before + 1);
}

#[test]
fn random_eviction_crashes_still_recover() {
    // Under RandomEviction, arbitrary subsets of unflushed lines survive;
    // the publish protocol must still yield a consistent image.
    for seed in 0..8u64 {
        let h = heap(1 << 22);
        let mut t = NvTable::create(&h, schema()).unwrap();
        let root = t.root_offset();
        let mut committed = Vec::new();
        for i in 0..20i64 {
            let r = t
                .insert_version(&row(i, &format!("r{i}"), 0.0), mvcc::pending(1))
                .unwrap();
            if i % 2 == 0 {
                t.commit_insert(r, (i + 1) as u64).unwrap();
                committed.push((r, i));
            }
        }
        let last_cts = 19;
        h.region()
            .crash(CrashPolicy::RandomEviction { p: 0.5, seed });
        let mut t2 = reopen(&h, root);
        t2.recover_mvcc(last_cts).unwrap();
        let vis = t2.scan_visible(last_cts, 99).unwrap();
        assert_eq!(vis.len(), committed.len(), "seed {seed}");
        for (r, i) in &committed {
            assert_eq!(
                t2.value(*r, 0).unwrap(),
                Value::Int(*i),
                "seed {seed} row {r}"
            );
        }
    }
}

#[test]
fn verify_media_clean_table_passes() {
    let h = heap(1 << 22);
    let mut t = NvTable::create(&h, schema()).unwrap();
    for i in 0..30i64 {
        let r = t
            .insert_version(&row(i, &format!("v{i}"), i as f64), mvcc::pending(1))
            .unwrap();
        t.commit_insert(r, (i + 1) as u64).unwrap();
    }
    t.merge(30).unwrap();
    for i in 30..40i64 {
        let r = t
            .insert_version(&row(i, &format!("v{i}"), i as f64), mvcc::pending(1))
            .unwrap();
        t.commit_insert(r, (i + 1) as u64).unwrap();
    }
    let checked = t.verify_media(40).unwrap();
    assert!(checked > 5, "verified {checked} structures");
}

#[test]
fn verify_media_detects_scribbled_main_column() {
    let h = heap(1 << 22);
    let mut t = NvTable::create(&h, schema()).unwrap();
    for i in 0..20i64 {
        let r = t
            .insert_version(&row(i, &format!("v{i}"), i as f64), mvcc::pending(1))
            .unwrap();
        t.commit_insert(r, (i + 1) as u64).unwrap();
    }
    t.merge(20).unwrap();
    let dict = t
        .media_extents()
        .unwrap()
        .into_iter()
        .find(|e| e.what == "main-dict")
        .expect("main dictionary extent");
    assert!(dict.checksummed);
    h.region()
        .inject_fault(&nvm::FaultSpec {
            class: nvm::FaultClass::ScribbledBlock { len: 16 },
            offset: dict.offset,
            seed: 0xD1C7,
        })
        .unwrap();
    match t.verify_media(20) {
        Err(StorageError::Nvm(nvm::NvmError::ChecksumMismatch { what, .. })) => {
            assert_eq!(what, "main column");
        }
        other => panic!("expected main-column checksum mismatch, got {other:?}"),
    }
}

#[test]
fn verify_media_detects_delta_dict_fault() {
    let h = heap(1 << 22);
    let mut t = NvTable::create(&h, schema()).unwrap();
    for i in 0..10i64 {
        let r = t
            .insert_version(&row(i, &format!("v{i}"), i as f64), mvcc::pending(1))
            .unwrap();
        t.commit_insert(r, (i + 1) as u64).unwrap();
    }
    let dict = t
        .media_extents()
        .unwrap()
        .into_iter()
        .find(|e| e.what == "delta-dict")
        .expect("delta dictionary extent");
    h.region()
        .inject_fault(&nvm::FaultSpec {
            class: nvm::FaultClass::BitFlip { bits: 1 },
            offset: dict.offset,
            seed: 3,
        })
        .unwrap();
    match t.verify_media(10) {
        Err(StorageError::Nvm(nvm::NvmError::ChecksumMismatch { what, .. })) => {
            assert_eq!(what, "delta dictionary");
        }
        other => panic!("expected delta-dict checksum mismatch, got {other:?}"),
    }
}

#[test]
fn verify_media_flags_implausible_timestamp() {
    let h = heap(1 << 22);
    let mut t = NvTable::create(&h, schema()).unwrap();
    let r = t
        .insert_version(&row(1, "a", 0.0), mvcc::pending(1))
        .unwrap();
    t.commit_insert(r, 2).unwrap();
    assert!(t.verify_media(2).is_ok());
    // Forge a commit timestamp far beyond the published last_cts — the
    // plausibility check must flag it even though no checksum covers it.
    let begin = t
        .media_extents()
        .unwrap()
        .into_iter()
        .find(|e| e.what == "delta-begin")
        .expect("delta begin extent");
    assert!(!begin.checksummed);
    h.region().write_pod(begin.offset, &999_999u64).unwrap();
    h.region().persist(begin.offset, 8).unwrap();
    match t.verify_media(2) {
        Err(StorageError::Corrupt { reason }) => {
            assert!(reason.contains("begin timestamp"), "{reason}");
        }
        other => panic!("expected implausible-timestamp error, got {other:?}"),
    }
}

/// A delta attribute-vector cell is un-checksummed: an out-of-range value id
/// must come back as a typed error on every read path that decodes it.
#[test]
fn delta_av_fault_surfaces_typed_errors() {
    let h = heap(1 << 22);
    let mut t = NvTable::create(&h, schema()).unwrap();
    for i in 0..4i64 {
        let r = t
            .insert_version(&row(i, &format!("v{i}"), i as f64), mvcc::pending(1))
            .unwrap();
        t.commit_insert(r, (i + 1) as u64).unwrap();
    }
    let av = t
        .media_extents()
        .unwrap()
        .into_iter()
        .find(|e| e.what == "delta-av")
        .expect("delta attribute-vector extent");
    assert!(!av.checksummed);
    // Row 2's value id in column 0 now points far outside the dictionary.
    h.region()
        .write_pod(av.offset + 2 * 4, &0x00FF_FFFFu32)
        .unwrap();
    h.region().persist(av.offset + 2 * 4, 4).unwrap();

    assert!(matches!(
        t.scan_range(0, Some(&Value::Int(0)), None, 10, 99),
        Err(StorageError::Corrupt { .. })
    ));
    assert!(t.value(2, 0).is_err());
    assert!(matches!(
        t.verify_media(4),
        Err(StorageError::Corrupt { .. })
    ));
    // Equality scans compare ids without indexing by them.
    assert_eq!(t.scan_eq(0, &Value::Int(1), 10, 99).unwrap(), [1]);
}
