//! The engines' file-backed redo log: the log-based baseline's only
//! durability, and the NVM engine's shadow log — recovery rung 2.
//!
//! The NVM backend's primary data never needs a log: restart is a remap.
//! But a *media* fault (scribbled block, stuck line) can destroy primary
//! data that checksums will detect and nothing on the NVM side can repair.
//! The shadow log closes that gap: every write is also appended to a
//! file-backed redo log, and every commit syncs the log **before** the
//! commit timestamp is published to NVM. That ordering makes the log a
//! superset of the published NVM state, so a table whose NVM image fails
//! verification can be rebuilt by replaying the log bounded at the
//! published commit timestamp (see `wal::replay_log_bounded`).
//!
//! The checkpoint file holds a full serialized copy of every table taken at
//! a quiesced point (DDL, end of recovery), covering the log position at
//! that moment; rung 2 loads it and replays only the log suffix. The
//! post-recovery re-baseline is a correctness requirement, not an
//! optimization: a crash can leave the log holding insert records for rows
//! that never became durable on NVM, and row ids handed out after the
//! restart would collide with that stale suffix on a later replay.
//! Re-baselining from the recovered state retires the old prefix. Sync
//! latency is charged to the same simulated clock as the NVM persistence
//! primitives, keeping one cost model across both durability mechanisms.
//!
//! The baseline uses the same type without a region: sync latency lands on
//! the log's own clock, and commits sync once per group-commit window
//! instead of every time.

use std::sync::Arc;

use nvm::{NvmRegion, SimClock};
use storage::{VTable, Value};
use wal::{LogRecord, LogWriter, WalPaths};

use crate::config::WalConfig;
use crate::error::Result;

/// A redo log plus its checkpoint file.
pub(crate) struct RedoLog {
    cfg: WalConfig,
    /// Log and checkpoint file locations.
    pub(crate) paths: WalPaths,
    writer: LogWriter,
    /// The writer's clock: the baseline's simulated timeline.
    pub(crate) clock: Arc<SimClock>,
    /// Shadow logs only: sync latency is charged to this region's clock so
    /// both durability mechanisms share one simulated timeline.
    region: Option<Arc<NvmRegion>>,
    /// Commits since the last commit-driven sync (group commit window).
    commits_since_sync: u32,
}

impl RedoLog {
    /// Open the log in `cfg.dir`; `fresh` truncates existing files first.
    /// With a `region` this is a shadow log: every commit syncs, and the
    /// sync cost lands on the region's clock instead of `clock`.
    pub fn open(
        cfg: WalConfig,
        clock: Arc<SimClock>,
        region: Option<Arc<NvmRegion>>,
        fresh: bool,
    ) -> Result<RedoLog> {
        let paths = WalPaths::new(&cfg.dir).map_err(wal::WalError::Io)?;
        if fresh {
            let _ = std::fs::remove_file(paths.log());
            let _ = std::fs::remove_file(paths.checkpoint());
        }
        let writer_latency = if region.is_some() {
            0
        } else {
            cfg.sync_latency_ns
        };
        let writer = LogWriter::open(&paths.log(), clock.clone(), writer_latency)?;
        Ok(RedoLog {
            cfg,
            paths,
            writer,
            clock,
            region,
            commits_since_sync: 0,
        })
    }

    /// Open the same log (same directory, clock and region) with its
    /// files truncated, to replace this one when it is wedged.
    pub fn reopen_fresh(&self) -> Result<RedoLog> {
        Self::open(
            self.cfg.clone(),
            self.clock.clone(),
            self.region.clone(),
            true,
        )
    }

    /// What a power failure does to the log, in place: the writer's
    /// unsynced buffer is lost and a new writer stands at the end of the
    /// file, so no stale record can land behind its position. On an error
    /// the log is unchanged.
    pub fn crash(&mut self) -> Result<()> {
        let reopened = Self::open(
            self.cfg.clone(),
            self.clock.clone(),
            self.region.clone(),
            false,
        )?;
        std::mem::replace(self, reopened).writer.discard();
        Ok(())
    }

    /// Log activity counters.
    pub fn stats(&self) -> wal::WalStats {
        self.writer.stats()
    }

    /// Arm a one-shot out-of-space fault on the underlying writer.
    pub fn arm_fault(&mut self, spec: wal::WalFaultSpec) {
        self.writer.arm_fault(spec);
    }

    /// True while the writer is wedged by an out-of-space failure: every
    /// append/sync fails fast until the log is recreated.
    pub fn is_wedged(&self) -> bool {
        self.writer.is_wedged()
    }

    /// Append a redo record for an insert (durable at the next sync).
    pub fn log_insert(&mut self, tid: u64, table: usize, row: u64, values: &[Value]) -> Result<()> {
        self.writer.append(&LogRecord::Insert {
            tid,
            table: table as u32,
            row,
            values: values.to_vec(),
        })?;
        Ok(())
    }

    /// Append a redo record for an invalidation.
    pub fn log_invalidate(&mut self, tid: u64, table: usize, row: u64) -> Result<()> {
        self.writer.append(&LogRecord::Invalidate {
            tid,
            table: table as u32,
            row,
        })?;
        Ok(())
    }

    /// Append an abort record (no sync required; an unsynced abort replays
    /// identically to a missing commit).
    pub fn log_abort(&mut self, tid: u64) -> Result<()> {
        self.writer.append(&LogRecord::Abort { tid })?;
        Ok(())
    }

    /// Append a commit record and sync when the group-commit window fills.
    /// A shadow log's window is one commit: it must be synced **before**
    /// the NVM commit-timestamp publish, because the invariant
    /// `log ⊇ published state` is what makes bounded replay a faithful
    /// rung-2 fallback.
    pub fn log_commit(&mut self, tid: u64, cts: u64) -> Result<()> {
        self.writer.append(&LogRecord::Commit { tid, cts })?;
        self.commits_since_sync += 1;
        let window = match self.region {
            Some(_) => 1,
            None => self.cfg.sync_every_n_commits.max(1),
        };
        if self.commits_since_sync >= window {
            self.sync()?;
            self.commits_since_sync = 0;
        }
        Ok(())
    }

    /// Append a merge record and sync, **before** the merge executes: a
    /// crash after the sync but before the merge completes replays the
    /// merge, reproducing the post-merge row-id space that any later log
    /// records reference.
    pub fn log_merge(&mut self, table: usize, cts: u64) -> Result<()> {
        self.writer.append(&LogRecord::Merge {
            table: table as u32,
            cts,
        })?;
        self.sync()
    }

    fn sync(&mut self) -> Result<()> {
        self.writer.sync()?;
        if let Some(region) = &self.region {
            region.clock().charge(self.cfg.sync_latency_ns);
        }
        Ok(())
    }

    /// Rewrite the checkpoint with the full current contents of every
    /// table, covering the current (synced) log position. Only valid at
    /// quiesced points — no pending MVCC markers. Returns bytes written.
    pub fn checkpoint(
        &mut self,
        names: &[String],
        tables: &[&VTable],
        last_cts: u64,
    ) -> Result<u64> {
        // A checkpoint may only cover durable log bytes.
        self.sync()?;
        let named: Vec<(String, &VTable)> =
            names.iter().cloned().zip(tables.iter().copied()).collect();
        Ok(wal::write_checkpoint(
            &self.paths.checkpoint(),
            &named,
            last_cts,
            self.writer.position(),
        )?)
    }
}

/// Durable commit publish through the log: the baseline's whole commit,
/// and the step a shadowed NVM commit takes before its NVM publish.
impl txn::CommitPublish for RedoLog {
    fn publish(&mut self, cts: u64, txn: &txn::Transaction) -> txn::Result<()> {
        self.log_commit(txn.tid, cts)
            .map_err(|e| txn::TxnError::Publish(e.to_string()))
    }
}
