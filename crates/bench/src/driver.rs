//! Apply generated workloads to a [`Database`].

use hyrise_nv::{Database, IndexKind, Result, TableId};
use storage::Value;
use workload::{Op, YcsbConfig, YcsbGenerator};

/// Create, index, and load the YCSB table with keys `0..records` in batches
/// of 256 rows per transaction. The key gets a hash index and, with
/// `ordered_index`, an ordered one (restart experiments measuring point
/// lookups pass `false`).
pub fn load_ycsb(db: &mut Database, records: u64, ordered_index: bool) -> Result<TableId> {
    let table = db.create_table("usertable", YcsbGenerator::schema())?;
    db.create_index(table, 0, IndexKind::Hash)?;
    if ordered_index {
        db.create_index(table, 0, IndexKind::Ordered)?;
    }
    let generator = YcsbGenerator::new(YcsbConfig {
        record_count: records,
        ..Default::default()
    });
    let rows: Vec<_> = generator.load_rows().collect();
    for chunk in rows.chunks(256) {
        let mut tx = db.begin();
        for row in chunk {
            db.insert(&mut tx, table, row)?;
        }
        db.commit(&mut tx)?;
    }
    Ok(table)
}

/// Execute one YCSB operation as its own transaction. Returns the number of
/// rows touched/returned.
pub fn run_ycsb_op(db: &mut Database, table: TableId, op: &Op) -> Result<usize> {
    match op {
        Op::Read { key } => {
            let tx = db.begin();
            let hits = db.index_lookup(&tx, table, 0, &Value::Int(*key))?;
            Ok(hits.len())
        }
        Op::Update { key, value } => {
            let mut tx = db.begin();
            let hits = db.index_lookup(&tx, table, 0, &Value::Int(*key))?;
            let Some(hit) = hits.first() else {
                db.abort(&mut tx)?;
                return Ok(0);
            };
            let row = hit.row;
            db.update(
                &mut tx,
                table,
                row,
                &[Value::Int(*key), Value::Text(value.clone())],
            )?;
            db.commit(&mut tx)?;
            Ok(1)
        }
        Op::Insert { key, value } => {
            let mut tx = db.begin();
            db.insert(
                &mut tx,
                table,
                &[Value::Int(*key), Value::Text(value.clone())],
            )?;
            db.commit(&mut tx)?;
            Ok(1)
        }
        Op::Scan { key, len } => {
            let tx = db.begin();
            let hi = Value::Int(key + *len as i64);
            let hits = db.index_range_lookup(&tx, table, 0, Some(&Value::Int(*key)), Some(&hi))?;
            Ok(hits.len())
        }
    }
}
