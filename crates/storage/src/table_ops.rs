//! The table interface shared by the volatile and NVM storage variants.

use crate::{mvcc, ColumnId, Result, RowId, Schema, Value};

/// Outcome of a delta→main merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Physical rows (main + delta) before the merge.
    pub rows_before: u64,
    /// Rows surviving into the new main.
    pub rows_merged: u64,
    /// Invalidated/aborted versions dropped by the merge.
    pub rows_dropped: u64,
}

/// A materialized scan hit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanResult {
    /// Physical row id of the visible version.
    pub row: RowId,
    /// The row's values in schema order.
    pub values: Vec<Value>,
}

/// Operations every table substrate provides.
///
/// The transaction manager drives the MVCC lifecycle through this trait:
/// `insert_version` / `try_invalidate` during execution (with pending
/// markers), `commit_*` / `abort_*` at transaction end, and the `scan_*`
/// family for reads. Implementations persist what their durability story
/// requires: the NVM table flushes at each step per the paper's protocol,
/// the volatile table does nothing extra (its durability is the WAL).
pub trait TableStore: Send {
    /// The table schema.
    fn schema(&self) -> &Schema;

    /// Total physical rows (main + delta), including invisible versions.
    fn row_count(&self) -> u64;

    /// Number of rows in the main partition (row ids `0..main_rows`).
    fn main_rows(&self) -> u64;

    /// Append a new row version to the delta with `begin = begin_marker`
    /// (normally a pending marker) and `end = TS_INF`. Returns its row id.
    fn insert_version(&mut self, values: &[Value], begin_marker: u64) -> Result<RowId>;

    /// Claim the right to invalidate `row` by setting its end timestamp to
    /// `marker` (a pending marker). Fails with
    /// [`crate::StorageError::WriteConflict`] if another transaction already
    /// claimed or committed an invalidation — first committer wins.
    fn try_invalidate(&mut self, row: RowId, marker: u64) -> Result<()>;

    /// Roll back a pending invalidation (abort path): end goes back to
    /// `TS_INF`.
    fn restore_end(&mut self, row: RowId) -> Result<()>;

    /// Mark a pending insert as aborted: begin becomes
    /// [`crate::mvcc::TS_ABORTED`].
    fn abort_insert(&mut self, row: RowId) -> Result<()>;

    /// Commit a pending insert: begin becomes `cts`.
    fn commit_insert(&mut self, row: RowId, cts: u64) -> Result<()>;

    /// Commit a pending invalidation: end becomes `cts`.
    fn commit_invalidate(&mut self, row: RowId, cts: u64) -> Result<()>;

    /// Stamp a pending insert's begin word with `cts` without draining the
    /// write-back queue. A batching committer stamps every write of a
    /// transaction through `stamp_*` and its commit publish drains once
    /// before the timestamp becomes durable — W stamps cost one fence
    /// instead of W. The default falls back to the fully-persisting
    /// [`Self::commit_insert`], so stores without a cheaper staged write
    /// remain correct.
    fn stamp_insert(&mut self, row: RowId, cts: u64) -> Result<()> {
        self.commit_insert(row, cts)
    }

    /// Stamp a pending invalidation's end word with `cts` without draining
    /// the write-back queue. See [`Self::stamp_insert`] for the contract.
    fn stamp_invalidate(&mut self, row: RowId, cts: u64) -> Result<()> {
        self.commit_invalidate(row, cts)
    }

    /// Begin timestamp word of `row`.
    fn begin_ts(&self, row: RowId) -> Result<u64>;

    /// End timestamp word of `row`.
    fn end_ts(&self, row: RowId) -> Result<u64>;

    /// Decode the value of one cell.
    fn value(&self, row: RowId, col: ColumnId) -> Result<Value>;

    /// Decode a full row.
    fn row_values(&self, row: RowId) -> Result<Vec<Value>> {
        (0..self.schema().len())
            .map(|c| self.value(row, c))
            .collect()
    }

    /// Row ids of all versions visible to `(snapshot, tid)`.
    fn scan_visible(&self, snapshot: u64, tid: u64) -> Result<Vec<RowId>>;

    /// Row ids of visible versions whose column `col` equals `value`.
    fn scan_eq(&self, col: ColumnId, value: &Value, snapshot: u64, tid: u64) -> Result<Vec<RowId>>;

    /// Row ids of visible versions with `lo <= col_value < hi` (either bound
    /// optional).
    fn scan_range(
        &self,
        col: ColumnId,
        lo: Option<&Value>,
        hi: Option<&Value>,
        snapshot: u64,
        tid: u64,
    ) -> Result<Vec<RowId>>;

    /// Fold the delta into a fresh main, keeping exactly the versions
    /// visible at `snapshot` (which must see no pending markers — merges run
    /// on a quiesced table). Row ids are re-assigned.
    fn merge(&mut self, snapshot: u64) -> Result<MergeStats>;

    /// Walk every MVCC timestamp word and check it against the quiesced,
    /// recovered-state invariants at `last_cts`: no pending markers may
    /// remain, and no committed timestamp may exceed the durably published
    /// watermark (an effect "from the future" is an uncommitted leak).
    /// The crash-torture harness runs this after every recovery.
    fn verify_mvcc(&self, last_cts: u64) -> Result<MvccCheck> {
        let mut check = MvccCheck::default();
        for row in 0..self.row_count() {
            check.rows += 1;
            let begin = self.begin_ts(row)?;
            let end = self.end_ts(row)?;
            if mvcc::is_pending(begin) || mvcc::is_pending(end) {
                check.pending_markers += 1;
                continue;
            }
            if mvcc::is_committed(begin) && begin > last_cts {
                check.future_timestamps += 1;
            }
            if mvcc::is_committed(end) && end > last_cts {
                check.future_timestamps += 1;
            }
        }
        Ok(check)
    }
}

/// Result of [`TableStore::verify_mvcc`]: a clean table has zeroes in both
/// violation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MvccCheck {
    /// Physical rows walked.
    pub rows: u64,
    /// Rows still carrying a pending transaction marker — the recovery
    /// undo pass should have repaired every one of these.
    pub pending_markers: u64,
    /// Committed begin/end timestamps greater than the published
    /// `last_cts` — effects of transactions that never durably committed.
    pub future_timestamps: u64,
}

impl MvccCheck {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.pending_markers == 0 && self.future_timestamps == 0
    }

    /// Fold another table's check into this one.
    pub fn absorb(&mut self, other: &MvccCheck) {
        self.rows += other.rows;
        self.pending_markers += other.pending_markers;
        self.future_timestamps += other.future_timestamps;
    }
}
