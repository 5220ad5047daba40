//! P2 — Static persistence-cost bounds vs. live traces.
//!
//! Every ordering protocol in the registry is one row of staged phases
//! and a publish word, so its per-instance persistence cost has a static
//! interval: [`nvm::ProtocolSpec::static_cost`] counts the row into
//! `[min, max]` flush and fence counts. The first table prints those
//! bounds for all registered protocols — the numbers pmlint's cost pass
//! and the benchmark's `fences_per_write.nvm` are both anchored to.
//!
//! The second table holds the engine to them: traced windows of the write
//! path (a write transaction, a merge with its index rebuilds, a bulk
//! index registration) are divided by the publish-instance count recovered
//! by the conformance checker and compared with the static maximum of the
//! specs the window instantiates. Fences have no per-row term — that is
//! the contract: a transaction pays for its ordering points, a merge for
//! its blocks. What a window nests inside its rows is added explicitly:
//! the allocator's protocols at [`nvm::ALLOC_MAX_FENCES`] /
//! [`nvm::FREE_MAX_FENCES`] per block (counted from the heap), and for
//! *flushes* one realization of the staged steps per row plus the
//! registry's two write-backs per write. A window over its bound, or a
//! conformance violation, fails the run (exit 1). See DESIGN.md
//! ("Persistence-cost model"). Every cell is a count: nothing is repeated.

use crate::harness::{Row, Run};
use hyrise_nv::{Database, DurabilityConfig};
use nvm::{check_trace, protocol_registry, RangeBinding, TraceConfig};
use storage::{ColumnDef, DataType, Schema, Value};

fn spec(name: &str) -> &'static nvm::ProtocolSpec {
    protocol_registry()
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("protocol {name:?} not in registry"))
}

fn bind(extents: &[storage::nv::MediaExtent], label: &'static str) -> RangeBinding {
    RangeBinding::new(
        label,
        extents
            .iter()
            .filter(|e| e.what == label)
            .map(|e| (e.offset, e.len))
            .collect(),
    )
}

/// Static bounds for every registered spec.
fn static_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for s in protocol_registry() {
        let c = s.static_cost();
        rows.push(
            Row::new()
                .with("protocol", s.name)
                .with("stores", format!("{}..{}", c.min_stores, c.max_stores))
                .with("flushes", format!("{}..{}", c.min_flushes, c.max_flushes))
                .with("fences", format!("{}..{}", c.min_fences, c.max_fences)),
        );
    }
    rows
}

struct Window {
    protocol: String,
    instances: u64,
    flushes: u64,
    fences: u64,
    violations: usize,
    /// Static maximum per instance: the window's specs plus what it nests.
    max_flushes: u64,
    max_fences: u64,
}

/// `(allocations, frees)` of the closure, from the allocator's attempt
/// counter and the live-block count before and after.
fn blocks_moved(db: &mut Database, f: impl FnOnce(&mut Database)) -> (u64, u64) {
    let live = |db: &Database| {
        let blocks = db.nv_backend().unwrap().heap().walk().expect("heap walk");
        let live = |b: &&nvm::BlockInfo| b.state == nvm::AllocState::Allocated;
        blocks.iter().filter(live).count() as u64
    };
    let (a0, live0) = (db.alloc_attempts(), live(db));
    f(db);
    let allocs = db.alloc_attempts() - a0;
    (allocs, live0 + allocs - live(db))
}

/// The traced windows, each yielding observed totals, the instance count
/// and the static maximum it is held to.
fn traced_windows() -> Vec<Window> {
    let schema = Schema::new(vec![
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("v", DataType::Int),
    ]);
    let mut db = Database::create(DurabilityConfig::nvm_default()).expect("create");
    let t = db.create_table("p2", schema).expect("table");
    let region = db.nv_backend().unwrap().region().clone();
    let mut out = Vec::new();
    // Grow the delta's arrays past what the traced window appends, so the
    // window measures the protocol and not a reallocation.
    let mut tx = db.begin();
    for key in 0..300i64 {
        db.insert(&mut tx, t, &[Value::Int(-key - 1), Value::Int(key)])
            .expect("insert");
    }
    db.commit(&mut tx).expect("commit");

    // Write transactions: W inserts and a commit each. One instance of
    // delta-append (the commit's row-counter publish covers all W rows)
    // and one of txn-commit-publish per transaction.
    let commits = 8i64;
    let writes_per_commit = 8i64;
    region.trace_start(TraceConfig::default());
    let before = db.nvm_stats();
    for c in 0..commits {
        let mut tx = db.begin();
        for k in 0..writes_per_commit {
            let key = c * writes_per_commit + k;
            db.insert(&mut tx, t, &[Value::Int(key), Value::Int(key * 10)])
                .expect("insert");
        }
        db.commit(&mut tx).expect("commit");
    }
    let d = db.nvm_stats().since(&before);
    let trace = region.trace_stop().unwrap();
    let backend = db.nv_backend().unwrap();
    let rows_pub = backend.table_rows_publish_extent(t.0).unwrap();
    let extents = db.media_extents(t).unwrap();
    let mvcc = [bind(&extents, "delta-begin"), bind(&extents, "delta-end")];
    let mut bindings = vec![
        bind(&extents, "delta-dict"),
        bind(&extents, "delta-blob"),
        bind(&extents, "delta-av"),
        RangeBinding::new("delta-rows", vec![rows_pub]),
    ];
    bindings.extend(mvcc.iter().cloned());
    let append = check_trace(spec("delta-append"), &bindings, &trace);
    let mut bindings = vec![RangeBinding::new("catalog-cts", vec![backend.cts_extent()])];
    bindings.extend(mvcc.iter().cloned());
    let commit = check_trace(spec("txn-commit-publish"), &bindings, &trace);
    assert_eq!(append.publish_instances, commit.publish_instances);
    let (da, tc) = (
        spec("delta-append").static_cost(),
        spec("txn-commit-publish").static_cost(),
    );
    let w = writes_per_commit as u64;
    out.push(Window {
        protocol: format!("delta-append + txn-commit-publish (W={writes_per_commit})"),
        instances: commit.publish_instances,
        flushes: d.flush_calls,
        fences: d.fences,
        violations: append.violations.len() + commit.violations.len(),
        // Per row: the staged stores of both protocols once, and the registry's
        // entry and slot write-backs; per commit: the slot clear.
        max_flushes: w * (da.max_flushes + tc.max_flushes + 2) as u64 + 1,
        max_fences: (da.max_fences + tc.max_fences) as u64,
    });

    // merge-publish: one delta→main merge that takes a hash and an ordered
    // index with it.
    db.create_index(t, 0, hyrise_nv::IndexKind::Hash)
        .expect("index");
    db.create_index(t, 1, hyrise_nv::IndexKind::Ordered)
        .expect("index");
    region.trace_start(TraceConfig::default());
    let before = db.nvm_stats();
    let (allocs, frees) = blocks_moved(&mut db, |db| {
        db.merge(t).expect("merge");
    });
    let d = db.nvm_stats().since(&before);
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
    let c = spec("merge-publish").static_cost();
    let nested = nvm::ALLOC_MAX_FENCES * allocs + nvm::FREE_MAX_FENCES * frees;
    out.push(Window {
        protocol: format!("merge-publish ({allocs} allocations, {frees} frees)"),
        instances: report.publish_instances,
        flushes: d.flush_calls,
        fences: d.fences,
        violations: report.violations.len(),
        // Every allocator fence follows one write-back, and every block is
        // staged with at most two more (content, header).
        max_flushes: c.max_flushes as u64 + nested + 2 * allocs,
        max_fences: c.max_fences as u64 + nested,
    });

    // index-register: a bulk-built index over the merged rows.
    region.trace_start(TraceConfig::default());
    let before = db.nvm_stats();
    let (allocs, frees) = blocks_moved(&mut db, |db| {
        db.create_index(t, 1, hyrise_nv::IndexKind::Hash)
            .expect("index");
    });
    let d = db.nvm_stats().since(&before);
    let trace = region.trace_stop().unwrap();
    let backend = db.nv_backend().unwrap();
    let bindings = vec![
        RangeBinding::new(
            "index-entry",
            vec![
                backend.idx_entry_extent(t.0, 2).unwrap(),
                backend.idx_desc_extent(t.0, 2).unwrap(),
            ],
        ),
        RangeBinding::new("index-count", vec![backend.idx_count_extent(t.0).unwrap()]),
    ];
    let report = check_trace(spec("index-register"), &bindings, &trace);
    let c = spec("index-register").static_cost();
    let nested = nvm::ALLOC_MAX_FENCES * allocs + nvm::FREE_MAX_FENCES * frees;
    out.push(Window {
        protocol: format!("index-register ({allocs} allocations)"),
        instances: report.publish_instances,
        flushes: d.flush_calls,
        fences: d.fences,
        violations: report.violations.len(),
        max_flushes: c.max_flushes as u64 + nested + 2 * allocs,
        max_fences: c.max_fences as u64 + nested,
    });

    out
}

pub fn run(h: &mut Run) {
    h.table(
        "P2: static persistence-cost bounds (per instance)",
        static_rows(),
    );

    let mut rows = Vec::new();
    for w in traced_windows() {
        let inst = w.instances.max(1) as f64;
        let fl = w.flushes as f64 / inst;
        let fe = w.fences as f64 / inst;
        let exceeds = fl > w.max_flushes as f64 || fe > w.max_fences as f64;
        if exceeds || w.violations > 0 || w.instances == 0 {
            let what = "exceeds its static maximum or violates its spec";
            h.fail(format_args!("window {:?} {what}", w.protocol));
        }
        rows.push(
            Row::new()
                .with("protocol", &w.protocol)
                .with("instances", w.instances)
                .with("flushes/instance", format!("{fl:.2}"))
                .with("max flushes", w.max_flushes)
                .with("fences/instance", format!("{fe:.2}"))
                .with("max fences", w.max_fences)
                .with("exceeds", if exceeds { "YES" } else { "no" })
                .with("violations", w.violations),
        );
    }
    h.table(
        "P2: observed traffic vs static maximum (traced windows)",
        rows,
    );
}
