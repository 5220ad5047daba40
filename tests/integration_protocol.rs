//! Spec-vs-trace conformance: run real engine workloads under the persist
//! tracer and check the recorded store/flush/fence stream against the
//! declared persist-order protocols in `nvm::protocol_registry()`.
//!
//! Each test binds the abstract store/publish labels of one protocol spec
//! to concrete byte ranges probed from the live backend (media extents
//! plus the publish-word accessors on `NvBackend`), then asserts the
//! trace conforms: every bound durable store is flushed and fenced before
//! the publish store of its protocol instance, and nothing bound is left
//! unpersisted at the end.

use hyrise_nv::{Database, DurabilityConfig, IndexKind, TableId, REGISTRY_SLOTS};
use nvm::{check_trace, protocol_registry, ProtocolSpec, RangeBinding, TraceConfig};
use storage::nv::MediaExtent;
use storage::{ColumnDef, DataType, Schema, Value};

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("v", DataType::Int),
    ])
}

fn spec(name: &str) -> &'static ProtocolSpec {
    protocol_registry()
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("protocol {name:?} not in registry"))
}

/// Bind a spec label to every media extent carrying that label.
fn bind(extents: &[MediaExtent], label: &'static str) -> RangeBinding {
    RangeBinding::new(
        label,
        extents
            .iter()
            .filter(|e| e.what == label)
            .map(|e| (e.offset, e.len))
            .collect(),
    )
}

fn nvm_db_with_table() -> (Database, TableId) {
    let mut db = Database::create(DurabilityConfig::nvm_default()).unwrap();
    let t = db.create_table("conformance", schema()).unwrap();
    (db, t)
}

fn insert_rows(db: &mut Database, t: TableId, keys: std::ops::Range<i64>) {
    let mut tx = db.begin();
    for k in keys {
        db.insert(&mut tx, t, &[Value::Int(k), Value::Int(k * 10)])
            .unwrap();
    }
    db.commit(&mut tx).unwrap();
}

/// Commit protocol: per-row MVCC begin stamps are durable before the
/// commit timestamp publishes in the catalogue. Four commits traced
/// end-to-end (inserts included) must yield four clean instances.
#[test]
fn txn_commit_publish_conforms_to_spec() {
    let (mut db, t) = nvm_db_with_table();
    let region = db.nv_backend().unwrap().region().clone();

    region.trace_start(TraceConfig::default());
    for c in 0..4i64 {
        insert_rows(&mut db, t, c * 2..c * 2 + 2);
    }
    let trace = region.trace_stop().unwrap();

    let backend = db.nv_backend().unwrap();
    let extents = db.media_extents(t).unwrap();
    let bindings = vec![
        bind(&extents, "delta-begin"),
        bind(&extents, "delta-end"),
        RangeBinding::new("catalog-cts", vec![backend.cts_extent()]),
    ];
    let report = check_trace(spec("txn-commit-publish"), &bindings, &trace);
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.publish_instances, 4, "one cts publish per commit");
    assert!(report.bound_stores_checked > 0);
}

/// Delta-append protocol: cell, dictionary, and MVCC stores of every row a
/// transaction staged are durable before its commit lets the row counter
/// cover them — one publish per commit, however many rows.
#[test]
fn delta_append_conforms_to_spec() {
    let (mut db, t) = nvm_db_with_table();
    let region = db.nv_backend().unwrap().region().clone();

    region.trace_start(TraceConfig::default());
    insert_rows(&mut db, t, 0..5);
    insert_rows(&mut db, t, 5..6);
    let trace = region.trace_stop().unwrap();

    let backend = db.nv_backend().unwrap();
    let rows_pub = backend.table_rows_publish_extent(t.0).unwrap();
    let extents = db.media_extents(t).unwrap();
    let bindings = vec![
        bind(&extents, "delta-dict"),
        bind(&extents, "delta-blob"),
        bind(&extents, "delta-av"),
        bind(&extents, "delta-begin"),
        bind(&extents, "delta-end"),
        RangeBinding::new("delta-rows", vec![rows_pub]),
    ];
    let report = check_trace(spec("delta-append"), &bindings, &trace);
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(
        report.publish_instances, 2,
        "one row-counter publish per commit"
    );
    assert!(report.bound_stores_checked >= 6);
}

/// DDL protocol: the catalogue entry (name pointer, table root, index
/// block) is durable before the table count publishes it.
#[test]
fn ddl_create_table_conforms_to_spec() {
    let mut db = Database::create(DurabilityConfig::nvm_default()).unwrap();
    let region = db.nv_backend().unwrap().region().clone();

    region.trace_start(TraceConfig::default());
    for name in ["alpha", "beta", "gamma"] {
        db.create_table(name, schema()).unwrap();
    }
    let trace = region.trace_stop().unwrap();

    let backend = db.nv_backend().unwrap();
    let entries = (0..3).map(|t| backend.entry_extent(t)).collect();
    let bindings = vec![
        RangeBinding::new("catalog-entry", entries),
        RangeBinding::new("catalog-ntables", vec![backend.ntables_extent()]),
    ];
    let report = check_trace(spec("ddl-create-table"), &bindings, &trace);
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(
        report.publish_instances, 3,
        "one count publish per CREATE TABLE"
    );
    assert!(report.bound_stores_checked >= 3);
}

/// Merge protocol: the freshly built main tree (checksummed payloads and
/// end timestamps) is fully durable before the root pair pointer swaps.
#[test]
fn merge_publish_conforms_to_spec() {
    let (mut db, t) = nvm_db_with_table();
    insert_rows(&mut db, t, 0..8);
    let region = db.nv_backend().unwrap().region().clone();

    region.trace_start(TraceConfig::default());
    db.merge(t).unwrap();
    let trace = region.trace_stop().unwrap();

    let backend = db.nv_backend().unwrap();
    let pair_pub = backend.table_pair_publish_extent(t.0).unwrap();
    let extents = db.media_extents(t).unwrap();
    let bindings = vec![
        bind(&extents, "main-dict"),
        bind(&extents, "main-av"),
        bind(&extents, "main-blob"),
        bind(&extents, "main-end"),
        RangeBinding::new("table-pair", vec![pair_pub]),
    ];
    let report = check_trace(spec("merge-publish"), &bindings, &trace);
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.publish_instances, 1, "one pair swap per merge");
    assert!(report.bound_stores_checked > 0);
}

/// Recovery-phase protocols, checked against a *live recovery trace*: a
/// scheduled crash is materialized with a transaction in flight, the
/// recorder stays armed across the restart, and the recovery's own
/// persist stream (progress-word accounting, undo-pass repairs, registry
/// slot release) is conformance-checked against the recovery-phase specs.
#[test]
fn recovery_phases_conform_to_specs() {
    let (mut db, t) = nvm_db_with_table();
    let region = db.nv_backend().unwrap().region().clone();

    region.trace_start(TraceConfig::default());
    insert_rows(&mut db, t, 0..4);
    // Leave a transaction in flight so the undo pass has a registry slot
    // to walk and release during the traced recovery. Its markers are only
    // staged; the commit of another transaction drains them — and covers
    // the new version with the row counter — before the power fails.
    let mut tx = db.begin();
    let victim = db.scan_eq(&tx, t, 0, &Value::Int(2)).unwrap()[0].row;
    db.update(&mut tx, t, victim, &[Value::Int(2), Value::Int(1000)])
        .unwrap();
    insert_rows(&mut db, t, 50..51);
    let report = db.restart_scheduled_traced(None).unwrap();
    assert_eq!(report.attempt, 1, "clean first recovery attempt");
    assert_eq!(
        report.mvcc_words_repaired, 2,
        "undo pass rolled back the end marker and the new version"
    );
    let trace = region.trace_stop().unwrap();

    let backend = db.nv_backend().unwrap();
    let extents = db.media_extents(t).unwrap();

    // Attempt accounting: the bump at recovery start and the zero at
    // recovery end are both publishes of the progress word, each flushed
    // and fenced immediately.
    let bindings = vec![RangeBinding::new(
        "recovery-progress",
        vec![backend.recovery_progress_extent()],
    )];
    let rep = check_trace(spec("recovery-progress"), &bindings, &trace);
    assert!(rep.is_clean(), "violations: {:?}", rep.violations);
    assert_eq!(rep.publish_instances, 2, "attempt bump + completion zero");

    // Undo pass: the in-flight transaction's MVCC repairs are durable
    // strictly before its registry slot is released.
    let slots: Vec<(u64, u64)> = (0..REGISTRY_SLOTS as usize)
        .map(|s| backend.registry_slot_tid_extent(s))
        .collect();
    let bindings = vec![
        bind(&extents, "delta-begin"),
        bind(&extents, "delta-end"),
        RangeBinding::new("registry-slot-clear", slots),
    ];
    // The repair stores land in the table's MVCC extents; rebind them
    // under the spec's repair label.
    let bindings: Vec<RangeBinding> = bindings
        .into_iter()
        .map(|b| {
            if b.label == "registry-slot-clear" {
                b
            } else {
                RangeBinding::new("mvcc-repair", b.ranges)
            }
        })
        .collect();
    let rep = check_trace(spec("recovery-undo-release"), &bindings, &trace);
    assert!(rep.is_clean(), "violations: {:?}", rep.violations);
    assert_eq!(
        rep.publish_instances, 2,
        "one slot release for the in-flight txn, one for the last commit — \
         its own slot clear was written back but never fenced, which \
         recovery must tolerate (the walk finds nothing to repair)"
    );
}

/// Index registration protocol: the entry slot (kind, column, descriptor
/// pointer) is durable before the per-table index count publishes it.
#[test]
fn index_register_conforms_to_spec() {
    let (mut db, t) = nvm_db_with_table();
    insert_rows(&mut db, t, 0..6);
    let region = db.nv_backend().unwrap().region().clone();

    region.trace_start(TraceConfig::default());
    db.create_index(t, 0, IndexKind::Hash).unwrap();
    db.create_index(t, 1, IndexKind::Ordered).unwrap();
    let trace = region.trace_stop().unwrap();

    // A registration is the catalogue entry plus the descriptor word in the
    // table's pair block.
    let backend = db.nv_backend().unwrap();
    let entries = vec![
        backend.idx_entry_extent(t.0, 0).unwrap(),
        backend.idx_entry_extent(t.0, 1).unwrap(),
        backend.idx_desc_extent(t.0, 0).unwrap(),
        backend.idx_desc_extent(t.0, 1).unwrap(),
    ];
    let bindings = vec![
        RangeBinding::new("index-entry", entries),
        RangeBinding::new("index-count", vec![backend.idx_count_extent(t.0).unwrap()]),
    ];
    let report = check_trace(spec("index-register"), &bindings, &trace);
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.publish_instances, 2, "one count publish per index");
    assert!(report.bound_stores_checked >= 4);
}
