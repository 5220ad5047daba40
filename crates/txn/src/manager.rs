//! The transaction manager: timestamps, commit, abort.

use storage::{TableStore, Value};

use crate::transaction::{Transaction, TxnState, WriteOp};
use crate::{Result, TxnError};

/// Engine-supplied durable publish of a commit timestamp. See the crate
/// docs for the two implementations (NVM 8-byte persist vs. WAL commit
/// record).
pub trait CommitPublish {
    /// Make commit timestamp `cts` durable. Called after every row
    /// timestamp of the transaction has been stamped; an NVM publisher
    /// drains those stamps' write-backs with one fence — all tables share
    /// one region — before it stores the timestamp. Once this returns, the
    /// transaction is committed.
    fn publish(&mut self, cts: u64, txn: &Transaction) -> Result<()>;
}

/// Publish that does nothing — for purely volatile operation (no
/// durability) and for unit tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopPublish;

impl CommitPublish for NoopPublish {
    fn publish(&mut self, _cts: u64, _txn: &Transaction) -> Result<()> {
        Ok(())
    }
}

/// Allocates transaction ids and commit timestamps and drives the
/// transaction lifecycle over a set of tables.
///
/// Volatile by design: after a restart the engine reconstructs it with
/// [`TxnManager::recovered`], passing the durably published last commit
/// timestamp.
#[derive(Debug)]
pub struct TxnManager {
    next_tid: u64,
    last_committed: u64,
    commits: u64,
    aborts: u64,
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager::new()
    }
}

impl TxnManager {
    /// A fresh manager for an empty database.
    pub fn new() -> TxnManager {
        TxnManager {
            next_tid: 1,
            last_committed: 0,
            commits: 0,
            aborts: 0,
        }
    }

    /// Reconstruct after restart from the durably published CTS.
    pub fn recovered(last_committed: u64) -> TxnManager {
        TxnManager {
            next_tid: 1,
            last_committed,
            commits: 0,
            aborts: 0,
        }
    }

    /// Last committed (and published) timestamp — the snapshot new
    /// transactions receive.
    pub fn last_committed(&self) -> u64 {
        self.last_committed
    }

    /// Number of commits since construction.
    pub fn commit_count(&self) -> u64 {
        self.commits
    }

    /// Number of aborts since construction.
    pub fn abort_count(&self) -> u64 {
        self.aborts
    }

    /// Start a transaction with a snapshot of the current committed state.
    pub fn begin(&mut self) -> Transaction {
        let tid = self.next_tid;
        self.next_tid += 1;
        Transaction::new(tid, self.last_committed)
    }

    /// Insert a row into `tables[table]` on behalf of `txn`.
    pub fn insert(
        &self,
        txn: &mut Transaction,
        tables: &mut [&mut dyn TableStore],
        table: usize,
        values: &[Value],
    ) -> Result<storage::RowId> {
        Self::require_active(txn, "insert")?;
        let row = tables[table].insert_version(values, txn.marker())?;
        txn.record_insert(table, row);
        Ok(row)
    }

    /// Delete (invalidate) a visible row version on behalf of `txn`.
    /// Fails with a write conflict if another transaction holds the row.
    pub fn delete(
        &self,
        txn: &mut Transaction,
        tables: &mut [&mut dyn TableStore],
        table: usize,
        row: storage::RowId,
    ) -> Result<()> {
        Self::require_active(txn, "delete")?;
        tables[table].try_invalidate(row, txn.marker())?;
        txn.record_invalidate(table, row);
        Ok(())
    }

    /// Update a visible row version: invalidate it and insert the new
    /// values as a fresh version. Returns the new version's row id.
    pub fn update(
        &self,
        txn: &mut Transaction,
        tables: &mut [&mut dyn TableStore],
        table: usize,
        row: storage::RowId,
        new_values: &[Value],
    ) -> Result<storage::RowId> {
        Self::require_active(txn, "update")?;
        tables[table].try_invalidate(row, txn.marker())?;
        txn.record_invalidate(table, row);
        let new_row = tables[table].insert_version(new_values, txn.marker())?;
        txn.record_insert(table, new_row);
        Ok(new_row)
    }

    /// Commit: stamp every write with the next CTS, durably publish it,
    /// then advance the visible committed state.
    pub fn commit(
        &mut self,
        txn: &mut Transaction,
        tables: &mut [&mut dyn TableStore],
        publish: &mut dyn CommitPublish,
    ) -> Result<u64> {
        Self::require_active(txn, "commit")?;
        let cts = self
            .last_committed
            .checked_add(1)
            .filter(|c| *c <= storage::mvcc::MAX_CTS)
            .ok_or(TxnError::TimestampOverflow)?;
        // Stamp every write without draining; the publish drains once for
        // all of them before the CTS store, so the ordering contract (all
        // stamps durable before the CTS is) costs one fence per commit.
        for w in &txn.writes {
            match *w {
                WriteOp::Insert { table, row } => tables[table].stamp_insert(row, cts)?,
                WriteOp::Invalidate { table, row } => tables[table].stamp_invalidate(row, cts)?,
            }
        }
        publish.publish(cts, txn)?;
        self.last_committed = cts;
        self.commits += 1;
        txn.state = TxnState::Committed;
        Ok(cts)
    }

    /// Abort: undo every pending marker the transaction left behind.
    pub fn abort(
        &mut self,
        txn: &mut Transaction,
        tables: &mut [&mut dyn TableStore],
    ) -> Result<()> {
        Self::require_active(txn, "abort")?;
        // Undo in reverse order (newest first), mirroring classic undo.
        for w in txn.writes.iter().rev() {
            match *w {
                WriteOp::Insert { table, row } => tables[table].abort_insert(row)?,
                WriteOp::Invalidate { table, row } => tables[table].restore_end(row)?,
            }
        }
        self.aborts += 1;
        txn.state = TxnState::Aborted;
        Ok(())
    }

    fn require_active(txn: &Transaction, op: &'static str) -> Result<()> {
        if txn.is_active() {
            Ok(())
        } else {
            Err(TxnError::BadState {
                state: txn.state,
                op,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{ColumnDef, DataType, Schema, VTable};

    fn table() -> VTable {
        VTable::new(Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Int),
        ]))
    }

    fn row(k: i64, v: i64) -> Vec<Value> {
        vec![Value::Int(k), Value::Int(v)]
    }

    #[test]
    fn commit_makes_rows_visible_to_later_snapshots_only() {
        let mut t = table();
        let mut mgr = TxnManager::new();
        let mut tx1 = mgr.begin();
        {
            let mut tabs: Vec<&mut dyn TableStore> = vec![&mut t];
            mgr.insert(&mut tx1, &mut tabs, 0, &row(1, 10)).unwrap();
        }
        // A concurrent reader does not see the uncommitted row.
        let tx2 = mgr.begin();
        assert!(t.scan_visible(tx2.snapshot, tx2.tid).unwrap().is_empty());
        // But tx1 sees its own write.
        assert_eq!(t.scan_visible(tx1.snapshot, tx1.tid).unwrap().len(), 1);
        {
            let mut tabs: Vec<&mut dyn TableStore> = vec![&mut t];
            mgr.commit(&mut tx1, &mut tabs, &mut NoopPublish).unwrap();
        }
        // tx2's old snapshot still excludes it; a new one includes it.
        assert!(t.scan_visible(tx2.snapshot, tx2.tid).unwrap().is_empty());
        let tx3 = mgr.begin();
        assert_eq!(t.scan_visible(tx3.snapshot, tx3.tid).unwrap().len(), 1);
    }

    #[test]
    fn abort_undoes_inserts_and_invalidations() {
        let mut t = table();
        let mut mgr = TxnManager::new();
        // Seed one committed row.
        let mut tx = mgr.begin();
        let seeded = {
            let mut tabs: Vec<&mut dyn TableStore> = vec![&mut t];
            let r = mgr.insert(&mut tx, &mut tabs, 0, &row(1, 10)).unwrap();
            mgr.commit(&mut tx, &mut tabs, &mut NoopPublish).unwrap();
            r
        };
        // A transaction that updates then aborts.
        let mut tx = mgr.begin();
        {
            let mut tabs: Vec<&mut dyn TableStore> = vec![&mut t];
            mgr.update(&mut tx, &mut tabs, 0, seeded, &row(1, 20))
                .unwrap();
            mgr.abort(&mut tx, &mut tabs).unwrap();
        }
        let tx = mgr.begin();
        let vis = t.scan_visible(tx.snapshot, tx.tid).unwrap();
        assert_eq!(vis, vec![seeded]);
        assert_eq!(t.value(seeded, 1).unwrap(), Value::Int(10));
    }

    #[test]
    fn first_claimant_wins_conflict() {
        let mut t = table();
        let mut mgr = TxnManager::new();
        let mut tx = mgr.begin();
        let r = {
            let mut tabs: Vec<&mut dyn TableStore> = vec![&mut t];
            let r = mgr.insert(&mut tx, &mut tabs, 0, &row(1, 10)).unwrap();
            mgr.commit(&mut tx, &mut tabs, &mut NoopPublish).unwrap();
            r
        };
        let mut tx_a = mgr.begin();
        let mut tx_b = mgr.begin();
        let mut tabs: Vec<&mut dyn TableStore> = vec![&mut t];
        mgr.delete(&mut tx_a, &mut tabs, 0, r).unwrap();
        let err = mgr.delete(&mut tx_b, &mut tabs, 0, r).unwrap_err();
        assert!(crate::is_conflict(&err));
        // Loser aborts; winner commits.
        mgr.abort(&mut tx_b, &mut tabs).unwrap();
        mgr.commit(&mut tx_a, &mut tabs, &mut NoopPublish).unwrap();
        drop(tabs);
        let tx = mgr.begin();
        assert!(t.scan_visible(tx.snapshot, tx.tid).unwrap().is_empty());
    }

    #[test]
    fn lost_update_prevented() {
        // Classic SI lost-update: two txns read the same row, both try to
        // update; the second claimant must fail.
        let mut t = table();
        let mut mgr = TxnManager::new();
        let mut tx = mgr.begin();
        let r = {
            let mut tabs: Vec<&mut dyn TableStore> = vec![&mut t];
            let r = mgr.insert(&mut tx, &mut tabs, 0, &row(1, 100)).unwrap();
            mgr.commit(&mut tx, &mut tabs, &mut NoopPublish).unwrap();
            r
        };
        let mut tx_a = mgr.begin();
        let mut tx_b = mgr.begin();
        let mut tabs: Vec<&mut dyn TableStore> = vec![&mut t];
        mgr.update(&mut tx_a, &mut tabs, 0, r, &row(1, 101))
            .unwrap();
        assert!(crate::is_conflict(
            &mgr.update(&mut tx_b, &mut tabs, 0, r, &row(1, 102))
                .unwrap_err()
        ));
        mgr.commit(&mut tx_a, &mut tabs, &mut NoopPublish).unwrap();
        mgr.abort(&mut tx_b, &mut tabs).unwrap();
        drop(tabs);
        let tx = mgr.begin();
        let vis = t.scan_visible(tx.snapshot, tx.tid).unwrap();
        assert_eq!(vis.len(), 1);
        assert_eq!(t.value(vis[0], 1).unwrap(), Value::Int(101));
    }

    #[test]
    fn operations_rejected_after_commit() {
        let mut t = table();
        let mut mgr = TxnManager::new();
        let mut tx = mgr.begin();
        let mut tabs: Vec<&mut dyn TableStore> = vec![&mut t];
        mgr.commit(&mut tx, &mut tabs, &mut NoopPublish).unwrap();
        assert!(matches!(
            mgr.insert(&mut tx, &mut tabs, 0, &row(1, 1)),
            Err(TxnError::BadState { .. })
        ));
        assert!(matches!(
            mgr.commit(&mut tx, &mut tabs, &mut NoopPublish),
            Err(TxnError::BadState { .. })
        ));
    }

    #[test]
    fn counters_track_outcomes() {
        let mut t = table();
        let mut mgr = TxnManager::new();
        let mut tabs: Vec<&mut dyn TableStore> = vec![&mut t];
        for i in 0..4 {
            let mut tx = mgr.begin();
            mgr.insert(&mut tx, &mut tabs, 0, &row(i, i)).unwrap();
            if i % 2 == 0 {
                mgr.commit(&mut tx, &mut tabs, &mut NoopPublish).unwrap();
            } else {
                mgr.abort(&mut tx, &mut tabs).unwrap();
            }
        }
        assert_eq!(mgr.commit_count(), 2);
        assert_eq!(mgr.abort_count(), 2);
        assert_eq!(mgr.last_committed(), 2);
    }

    #[test]
    fn read_your_own_writes_within_txn() {
        let mut t = table();
        let mut mgr = TxnManager::new();
        let mut tx = mgr.begin();
        let mut tabs: Vec<&mut dyn TableStore> = vec![&mut t];
        let r = mgr.insert(&mut tx, &mut tabs, 0, &row(5, 50)).unwrap();
        drop(tabs);
        let vis = t.scan_eq(0, &Value::Int(5), tx.snapshot, tx.tid).unwrap();
        assert_eq!(vis, vec![r]);
    }
}
