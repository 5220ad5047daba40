//! E5 — Persistence-primitive cost per operation type.
//!
//! Paper family: the ordering protocol's cost is measured in cache-line
//! flushes and fences per transaction; inserts pay one flush per column
//! slot plus the MVCC words and the row publish, commits pay one flush per
//! touched timestamp plus the CTS publish. This table prints measured
//! averages from the region's instrumentation counters.
//!
//! A second table breaks the traffic down *per protocol instance*: each
//! micro-op window is recorded with the persist tracer, the publish-word
//! bindings count how many protocol instances ran (one row-counter bump
//! and one CTS store per committing write transaction, one pair swap per
//! merge), and the counter deltas are divided by that count. These are the
//! live numbers `p2_persist_cost` holds to the static bounds of
//! `ProtocolSpec::static_cost()`.
//!
//! Run: `cargo run --release -p hyrise-nv-bench --bin e5_flush_accounting
//! [--config <name>]` — rows are keyed by the config name (default
//! `current`) so a pre-optimization baseline can be preserved next to the
//! current numbers in `results/e5_flush_accounting.jsonl`.

use benchkit::{load_ycsb, print_table, run_ycsb_op, write_json, Row};
use hyrise_nv::{Database, DurabilityConfig};
use nvm::{check_trace, protocol_registry, LatencyModel, RangeBinding, TraceConfig};
use storage::{ColumnDef, DataType, Schema, Value};
use workload::{Op, YcsbConfig, YcsbGenerator, YcsbMix};

fn config_arg() -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--config")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "current".to_owned())
}

fn spec(name: &str) -> nvm::ProtocolSpec {
    protocol_registry()
        .into_iter()
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

/// Per-op-kind averages over a YCSB stream (the original E5 table).
fn per_op_rows(config: &str) -> Vec<Row> {
    let n_ops = 2_000usize;
    let mut db =
        Database::create(DurabilityConfig::nvm(512 << 20, LatencyModel::pcm())).expect("create");
    let cfg = YcsbConfig {
        record_count: 10_000,
        mix: YcsbMix::C,
        ..Default::default()
    };
    let handle = load_ycsb(&mut db, &cfg).expect("load");
    let mut generator = YcsbGenerator::new(YcsbConfig {
        mix: YcsbMix::A,
        ..cfg.clone()
    });

    let mut rows_out = Vec::new();
    for kind in ["read", "update", "insert", "scan"] {
        // Collect n_ops operations of this kind from suitable generators.
        let ops: Vec<Op> = match kind {
            "insert" => {
                let mut g = YcsbGenerator::new(YcsbConfig {
                    mix: YcsbMix {
                        insert: 1.0,
                        update: 0.0,
                        scan: 0.0,
                    },
                    ..cfg.clone()
                });
                g.ops(n_ops)
            }
            "scan" => {
                let mut g = YcsbGenerator::new(YcsbConfig {
                    mix: YcsbMix {
                        insert: 0.0,
                        update: 0.0,
                        scan: 1.0,
                    },
                    ..cfg.clone()
                });
                g.ops(n_ops)
            }
            "update" => {
                let mut ops = Vec::new();
                while ops.len() < n_ops {
                    let op = generator.next_op();
                    if op.kind() == "update" {
                        ops.push(op);
                    }
                }
                ops
            }
            _ => {
                let mut ops = Vec::new();
                while ops.len() < n_ops {
                    let op = generator.next_op();
                    if op.kind() == "read" {
                        ops.push(op);
                    }
                }
                ops
            }
        };

        let before = db.nvm_stats();
        for op in &ops {
            run_ycsb_op(&mut db, handle, op).expect("op");
        }
        let d = db.nvm_stats().since(&before);
        let per = |x: u64| format!("{:.2}", x as f64 / n_ops as f64);
        rows_out.push(
            Row::new()
                .with("config", config)
                .with("op", kind)
                .with("flushes/op", per(d.flush_calls))
                .with("lines/op", per(d.lines_flushed))
                .with("fences/op", per(d.fences))
                .with("nvm_bytes_written/op", per(d.bytes_written)),
        );
    }
    rows_out
}

/// Per-protocol-instance traffic: counter deltas over a traced micro-op
/// window, divided by the publish-instance count the conformance checker
/// recovers from the trace.
fn per_protocol_rows(config: &str) -> Vec<Row> {
    let schema = Schema::new(vec![
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("v", DataType::Int),
    ]);
    let mut db = Database::create(DurabilityConfig::nvm_default()).expect("create");
    let t = db.create_table("e5", schema).expect("table");
    let region = db.nv_backend().unwrap().region().clone();
    let mut rows_out = Vec::new();
    let mut push = |protocol: &str, instances: u64, d: nvm::StatsSnapshot, violations: usize| {
        let per = |x: u64| format!("{:.2}", x as f64 / instances.max(1) as f64);
        rows_out.push(
            Row::new()
                .with("config", config)
                .with("protocol", protocol)
                .with("instances", instances)
                .with("flushes/instance", per(d.flush_calls))
                .with("fences/instance", per(d.fences))
                .with("bytes/instance", per(d.bytes_written))
                .with("violations", violations),
        );
    };

    // Grow the delta's arrays past what the traced window appends, so the
    // window measures the protocol and not a reallocation (as P2 does).
    let mut tx = db.begin();
    for key in 0..300i64 {
        db.insert(&mut tx, t, &[Value::Int(-key - 1), Value::Int(key)])
            .expect("insert");
    }
    db.commit(&mut tx).expect("commit");

    // Write transactions: 8 inserts and a commit each. The inserts only
    // stage; the commit drains them, publishes the row counter once for all
    // 8 rows (one delta-append instance) and then the CTS (one
    // txn-commit-publish instance).
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
    let d_txn = db.nvm_stats().since(&before);
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
    let append = check_trace(&spec("delta-append"), &bindings, &trace);
    let bindings = vec![
        bind(&extents, "delta-begin"),
        bind(&extents, "delta-end"),
        RangeBinding::new("catalog-cts", vec![backend.cts_extent()]),
    ];
    let commit = check_trace(&spec("txn-commit-publish"), &bindings, &trace);
    assert_eq!(append.publish_instances, commit.publish_instances);
    push(
        &format!("delta-append + txn-commit-publish (W={writes_per_commit})"),
        commit.publish_instances,
        d_txn,
        append.violations.len() + commit.violations.len(),
    );

    // merge-publish: one delta→main merge, published by the pair swap.
    region.trace_start(TraceConfig::default());
    let before = db.nvm_stats();
    db.merge(t).expect("merge");
    let d_merge = db.nvm_stats().since(&before);
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
    let report = check_trace(&spec("merge-publish"), &bindings, &trace);
    push(
        "merge-publish",
        report.publish_instances,
        d_merge,
        report.violations.len(),
    );

    rows_out
}

fn main() {
    let config = config_arg();
    let op_rows = per_op_rows(&config);
    let proto_rows = per_protocol_rows(&config);

    print_table(
        "E5: persistence primitives per operation (Hyrise-NV, 2-column table)",
        &op_rows,
    );
    print_table(
        "E5: persistence primitives per protocol instance (traced micro-ops)",
        &proto_rows,
    );
    let mut all = op_rows;
    all.extend(proto_rows);
    write_json("e5_flush_accounting", &all);
}
