//! Log replay: rebuild table state from the redo log.
//!
//! Replay is two-pass:
//!
//! 1. scan the log suffix collecting the commit timestamp of every
//!    committed transaction;
//! 2. re-scan, applying records in order: inserts of committed transactions
//!    materialize with their final CTS, inserts of uncommitted/aborted ones
//!    materialize as `TS_ABORTED` tombstones (they must still occupy their
//!    physical row id, because later records reference rows by id),
//!    invalidations apply only for committed transactions, and merge records
//!    re-run the deterministic merge at the logged snapshot.
//!
//! Reader-level corruption (a CRC mismatch or garbled frame before the tail)
//! does **not** abort replay: both passes stop at the same last-valid-prefix
//! offset and the report records the early stop, so the caller can salvage
//! every transaction the intact prefix covers. Semantic corruption — a record
//! referencing an unknown table or replaying to a different physical row id —
//! stays a hard error, because it means the log and the checkpoint disagree.

use std::collections::HashMap;
use std::path::Path;

use storage::mvcc::TS_ABORTED;
use storage::{TableStore, VTable};

use crate::record::LogRecord;
use crate::writer::LogReader;
use crate::{Result, WalError};

/// Counters describing a replay run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records scanned (both passes count once).
    pub records: u64,
    /// Committed transactions applied.
    pub committed_txns: u64,
    /// Transactions whose effects were discarded (no commit record).
    pub discarded_txns: u64,
    /// Row versions inserted (including tombstones).
    pub rows_inserted: u64,
    /// Invalidations applied.
    pub invalidations: u64,
    /// Merges re-run.
    pub merges: u64,
    /// Highest commit timestamp seen.
    pub last_cts: u64,
    /// True when replay hit reader-level corruption and stopped before the
    /// physical end of the log.
    pub stopped_early: bool,
    /// Byte offset just past the last record that was replayed — the end of
    /// the valid prefix. Equals the log length when `stopped_early` is false.
    pub valid_prefix: u64,
}

/// Replay the log at `path` from byte offset `start` into `tables`.
pub fn replay_log(path: &Path, start: u64, tables: &mut [VTable]) -> Result<ReplayReport> {
    replay_log_bounded(path, start, tables, u64::MAX)
}

/// Replay like [`replay_log`], but treat any commit record with
/// `cts > max_cts` as if the transaction never committed.
///
/// This is the rung-2 fallback's guard: when the primary NVM image fails
/// media verification, the engine replays the shadow log capped at the
/// image's *published* last commit timestamp, so a commit record whose
/// publish store never reached the catalogue is discarded exactly as the
/// crash recovery contract requires.
pub fn replay_log_bounded(
    path: &Path,
    start: u64,
    tables: &mut [VTable],
    max_cts: u64,
) -> Result<ReplayReport> {
    let mut report = ReplayReport::default();

    // Pass 1: commit outcomes.
    let mut committed: HashMap<u64, u64> = HashMap::new();
    let mut seen_tids: HashMap<u64, bool> = HashMap::new();
    {
        let mut reader = LogReader::open(path, start)?;
        while let Some(rec) = next_or_stop(&mut reader, &mut report)? {
            match rec {
                LogRecord::Commit { tid, cts } => {
                    if cts <= max_cts {
                        committed.insert(tid, cts);
                        seen_tids.insert(tid, true);
                        report.last_cts = report.last_cts.max(cts);
                    } else {
                        seen_tids.entry(tid).or_insert(false);
                    }
                }
                LogRecord::Abort { tid } => {
                    seen_tids.entry(tid).or_insert(false);
                }
                LogRecord::Insert { tid, .. } | LogRecord::Invalidate { tid, .. } => {
                    seen_tids.entry(tid).or_insert(false);
                }
                LogRecord::Merge { .. } => {}
            }
        }
    }
    report.committed_txns = committed.len() as u64;
    report.discarded_txns = seen_tids.values().filter(|c| !**c).count() as u64;

    // Pass 2: apply. Both passes decode the same bytes, so a corrupt record
    // stops pass 2 at exactly the offset pass 1 stopped at — no committed
    // transaction can straddle the cut.
    let mut reader = LogReader::open(path, start)?;
    while let Some(rec) = next_or_stop(&mut reader, &mut report)? {
        report.records += 1;
        match rec {
            LogRecord::Insert {
                tid,
                table,
                row,
                values,
            } => {
                let t = table_mut(tables, table)?;
                let begin = committed.get(&tid).copied().unwrap_or(TS_ABORTED);
                let got = t.insert_version(&values, begin)?;
                if got != row {
                    return Err(WalError::Corrupt {
                        reason: format!("replayed row id {got} != logged {row}"),
                        offset: None,
                    });
                }
                report.rows_inserted += 1;
            }
            LogRecord::Invalidate { tid, table, row } => {
                if let Some(&cts) = committed.get(&tid) {
                    let t = table_mut(tables, table)?;
                    t.commit_invalidate(row, cts)?;
                    report.invalidations += 1;
                }
            }
            LogRecord::Commit { .. } | LogRecord::Abort { .. } => {}
            LogRecord::Merge { table, cts } => {
                let t = table_mut(tables, table)?;
                t.merge(cts)?;
                report.merges += 1;
            }
        }
        report.valid_prefix = reader.offset();
    }
    report.valid_prefix = report.valid_prefix.max(start);
    Ok(report)
}

/// Read the next record, converting reader-level corruption into a clean
/// end-of-log with `stopped_early` set. I/O errors stay hard.
fn next_or_stop(reader: &mut LogReader, report: &mut ReplayReport) -> Result<Option<LogRecord>> {
    match reader.next_record() {
        Ok(rec) => Ok(rec),
        Err(WalError::Corrupt { .. }) => {
            report.stopped_early = true;
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

fn table_mut(tables: &mut [VTable], idx: u32) -> Result<&mut VTable> {
    tables
        .get_mut(idx as usize)
        .ok_or_else(|| WalError::Corrupt {
            reason: format!("log references unknown table {idx}"),
            offset: None,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::LogWriter;
    use nvm::SimClock;
    use std::sync::Arc;
    use storage::{ColumnDef, DataType, Schema, Value};

    fn tmplog(name: &str) -> crate::TestPath {
        crate::TestPath::new(&format!("replay-{name}"), Some("wal.log"))
    }

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("v", DataType::Text),
        ])
    }

    fn ins(tid: u64, row: u64, k: i64) -> LogRecord {
        LogRecord::Insert {
            tid,
            table: 0,
            row,
            values: vec![Value::Int(k), format!("v{k}").into()],
        }
    }

    #[test]
    fn committed_effects_replayed_uncommitted_discarded() {
        let path = tmplog("basic");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock, 0).unwrap();
        // txn 1 commits; txn 2 never commits (crash); txn 3 aborts.
        w.append(&ins(1, 0, 10)).unwrap();
        w.append(&ins(2, 1, 20)).unwrap();
        w.append(&LogRecord::Commit { tid: 1, cts: 1 }).unwrap();
        w.append(&ins(3, 2, 30)).unwrap();
        w.append(&LogRecord::Abort { tid: 3 }).unwrap();
        w.sync().unwrap();
        drop(w);

        let mut tables = vec![VTable::new(schema())];
        let report = replay_log(&path, 0, &mut tables).unwrap();
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.discarded_txns, 2);
        assert_eq!(report.rows_inserted, 3, "tombstones keep row ids aligned");
        assert_eq!(report.last_cts, 1);
        let vis = tables[0].scan_visible(1, 999).unwrap();
        assert_eq!(vis, vec![0]);
        assert_eq!(tables[0].value(0, 0).unwrap(), Value::Int(10));
    }

    #[test]
    fn invalidations_and_updates_replayed() {
        let path = tmplog("updates");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock, 0).unwrap();
        w.append(&ins(1, 0, 1)).unwrap();
        w.append(&LogRecord::Commit { tid: 1, cts: 1 }).unwrap();
        // txn 2 updates row 0 -> row 1.
        w.append(&LogRecord::Invalidate {
            tid: 2,
            table: 0,
            row: 0,
        })
        .unwrap();
        w.append(&ins(2, 1, 2)).unwrap();
        w.append(&LogRecord::Commit { tid: 2, cts: 2 }).unwrap();
        // txn 3 deletes row 1 but never commits.
        w.append(&LogRecord::Invalidate {
            tid: 3,
            table: 0,
            row: 1,
        })
        .unwrap();
        w.sync().unwrap();
        drop(w);

        let mut tables = vec![VTable::new(schema())];
        let report = replay_log(&path, 0, &mut tables).unwrap();
        assert_eq!(report.invalidations, 1);
        assert_eq!(tables[0].scan_visible(1, 999).unwrap(), vec![0]);
        assert_eq!(tables[0].scan_visible(2, 999).unwrap(), vec![1]);
    }

    #[test]
    fn merge_record_reruns_merge() {
        let path = tmplog("merge");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock, 0).unwrap();
        w.append(&ins(1, 0, 1)).unwrap();
        w.append(&ins(1, 1, 2)).unwrap();
        w.append(&LogRecord::Commit { tid: 1, cts: 1 }).unwrap();
        w.append(&LogRecord::Merge { table: 0, cts: 1 }).unwrap();
        // Post-merge insert references the re-assigned id space.
        w.append(&ins(2, 2, 3)).unwrap();
        w.append(&LogRecord::Commit { tid: 2, cts: 2 }).unwrap();
        w.sync().unwrap();
        drop(w);

        let mut tables = vec![VTable::new(schema())];
        let report = replay_log(&path, 0, &mut tables).unwrap();
        assert_eq!(report.merges, 1);
        assert_eq!(tables[0].main_rows(), 2);
        assert_eq!(tables[0].scan_visible(2, 999).unwrap().len(), 3);
    }

    #[test]
    fn replay_from_offset_skips_covered_prefix() {
        let path = tmplog("offset");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock, 0).unwrap();
        w.append(&ins(1, 0, 1)).unwrap();
        w.append(&LogRecord::Commit { tid: 1, cts: 1 }).unwrap();
        w.sync().unwrap();
        let covered = w.position();
        w.append(&ins(2, 1, 2)).unwrap();
        w.append(&LogRecord::Commit { tid: 2, cts: 2 }).unwrap();
        w.sync().unwrap();
        drop(w);

        // The "checkpointed" table already contains txn 1's row.
        let mut t = VTable::new(schema());
        t.insert_version(&[Value::Int(1), "v1".into()], 1).unwrap();
        let mut tables = vec![t];
        let report = replay_log(&path, covered, &mut tables).unwrap();
        assert_eq!(report.rows_inserted, 1);
        assert_eq!(tables[0].row_count(), 2);
        assert_eq!(report.last_cts, 2);
    }

    #[test]
    fn bad_table_reference_rejected() {
        let path = tmplog("badtable");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock, 0).unwrap();
        w.append(&LogRecord::Insert {
            tid: 1,
            table: 5,
            row: 0,
            values: vec![Value::Int(1), "x".into()],
        })
        .unwrap();
        w.append(&LogRecord::Commit { tid: 1, cts: 1 }).unwrap();
        w.sync().unwrap();
        drop(w);
        let mut tables = vec![VTable::new(schema())];
        assert!(replay_log(&path, 0, &mut tables).is_err());
    }

    #[test]
    fn truncated_tail_record_stops_at_valid_prefix() {
        let path = tmplog("torntail");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock, 0).unwrap();
        w.append(&ins(1, 0, 10)).unwrap();
        w.append(&LogRecord::Commit { tid: 1, cts: 1 }).unwrap();
        w.append(&ins(2, 1, 20)).unwrap();
        let commit2_at = w.append(&LogRecord::Commit { tid: 2, cts: 2 }).unwrap();
        w.sync().unwrap();
        drop(w);
        // Chop into the final commit record, as a crash mid-append would.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        let mut tables = vec![VTable::new(schema())];
        let report = replay_log(&path, 0, &mut tables).unwrap();
        // txn 2's commit never became durable: its insert replays as a
        // tombstone and the transaction counts as discarded.
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.discarded_txns, 1);
        assert_eq!(report.rows_inserted, 2);
        assert_eq!(report.last_cts, 1);
        assert!(!report.stopped_early, "a torn tail is a normal end-of-log");
        assert_eq!(report.valid_prefix, commit2_at);
        assert_eq!(tables[0].scan_visible(1, 999).unwrap(), vec![0]);
        assert_eq!(tables[0].value(0, 0).unwrap(), Value::Int(10));
    }

    #[test]
    fn short_write_tail_ignored_like_torn_tail() {
        use crate::writer::{WalFaultClass, WalFaultSpec};
        let path = tmplog("shortwrite");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock, 0).unwrap();
        w.append(&ins(1, 0, 10)).unwrap();
        w.append(&LogRecord::Commit { tid: 1, cts: 1 }).unwrap();
        w.sync().unwrap();
        let good_prefix = w.position();
        // The device fills up mid-append: a prefix of txn 2's insert frame
        // reaches the file, then the writer wedges.
        w.arm_fault(WalFaultSpec {
            class: WalFaultClass::AppendShortWrite,
            nth: 0,
        });
        assert!(w.append(&ins(2, 1, 20)).unwrap_err().is_full());
        drop(w);
        assert!(
            std::fs::metadata(&path).unwrap().len() > good_prefix,
            "partial frame is on disk"
        );

        // Replay must treat the half-written frame exactly like the
        // truncated-tail case: end-of-log at the last complete record.
        let mut tables = vec![VTable::new(schema())];
        let report = replay_log_bounded(&path, 0, &mut tables, u64::MAX).unwrap();
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.rows_inserted, 1);
        assert_eq!(report.last_cts, 1);
        assert!(
            !report.stopped_early,
            "a short write is a normal end-of-log"
        );
        assert_eq!(report.valid_prefix, good_prefix);
        assert_eq!(tables[0].scan_visible(1, 999).unwrap(), vec![0]);
    }

    #[test]
    fn crc_corrupted_mid_log_record_stops_cleanly() {
        let path = tmplog("midcrc");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock, 0).unwrap();
        w.append(&ins(1, 0, 10)).unwrap();
        w.append(&LogRecord::Commit { tid: 1, cts: 1 }).unwrap();
        w.sync().unwrap();
        let prefix_end = w.position();
        let bad_at = w.append(&ins(2, 1, 20)).unwrap();
        w.append(&LogRecord::Commit { tid: 2, cts: 2 }).unwrap();
        w.sync().unwrap();
        drop(w);
        // Flip a byte inside txn 2's insert body; the commit record after it
        // makes this mid-log corruption, not a torn tail.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[bad_at as usize + 9] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let mut tables = vec![VTable::new(schema())];
        let report = replay_log(&path, 0, &mut tables).unwrap();
        assert!(report.stopped_early);
        assert_eq!(report.valid_prefix, prefix_end);
        // Only the prefix's transaction survives; txn 2's commit record lies
        // beyond the corrupt record and must not be applied.
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.rows_inserted, 1);
        assert_eq!(report.last_cts, 1);
        assert_eq!(tables[0].scan_visible(1, 999).unwrap(), vec![0]);
    }

    #[test]
    fn bounded_replay_discards_commits_past_cap() {
        let path = tmplog("bounded");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock, 0).unwrap();
        w.append(&ins(1, 0, 10)).unwrap();
        w.append(&LogRecord::Commit { tid: 1, cts: 1 }).unwrap();
        w.append(&ins(2, 1, 20)).unwrap();
        w.append(&LogRecord::Commit { tid: 2, cts: 2 }).unwrap();
        w.sync().unwrap();
        drop(w);

        let mut tables = vec![VTable::new(schema())];
        let report = replay_log_bounded(&path, 0, &mut tables, 1).unwrap();
        // txn 2 committed in the log but past the cap: treated as if the
        // commit never happened (its publish never reached the NVM image).
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.discarded_txns, 1);
        assert_eq!(report.last_cts, 1);
        assert_eq!(tables[0].scan_visible(1, 999).unwrap(), vec![0]);
        assert_eq!(tables[0].scan_visible(2, 999).unwrap(), vec![0]);
    }
}
