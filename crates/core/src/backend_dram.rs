//! The DRAM engine: DRAM tables and DRAM indexes, durable through a redo
//! log plus checkpoints (the paper's log-based baseline) or — without a
//! log — not at all (the benchmark's `ops_per_s.volatile` upper bound,
//! whose restart loses everything).

use index::{IndexKind, TableIndex, VolatileIndex};
use storage::{MergeStats, RowId, Schema, TableStore, VTable, Value};
use txn::{Transaction, TxnManager};

use crate::engine::{as_stores, Engine};
use crate::error::{EngineError, Result};
use crate::redo_log::RedoLog;
use crate::report::{timed_phase, PersistStats, RecoveryReport};

/// DRAM tables with an optional redo log.
#[derive(Default)]
pub(crate) struct DramEngine {
    pub(crate) tables: Vec<VTable>,
    names: Vec<String>,
    /// Per table, its indexes in creation order — rebuilt after every merge
    /// and restart. The list doubles as the index DDL a restart re-runs
    /// (conceptually part of the durable catalogue).
    pub(crate) indexes: Vec<Vec<VolatileIndex>>,
    /// `None` is [`DurabilityConfig::Volatile`](crate::DurabilityConfig):
    /// nothing is logged, a restart starts empty.
    log: Option<RedoLog>,
}

impl DramEngine {
    /// The engine a process would find after a power failure: the DRAM
    /// tables and any unsynced log buffer are gone (the log crashes first,
    /// as the NV arm retires its shadow log before the crash); state is
    /// reloaded from the newest checkpoint plus the log suffix, and every
    /// index is rebuilt by a table scan. Returns the recovered engine —
    /// which takes over this engine's log — and its committed watermark;
    /// on an error this engine keeps its log.
    pub fn restarted(&mut self, report: &mut RecoveryReport) -> Result<(DramEngine, u64)> {
        let Some(log) = self.log.as_mut() else {
            // Everything is lost; the report records the data loss.
            timed_phase(
                &mut report.phases,
                "data loss",
                || (0, PersistStats::default()),
                || Ok::<(), EngineError>(()),
            )?;
            return Ok((DramEngine::default(), 0));
        };
        log.crash()?;
        let log = &*log;
        let paths = &log.paths;
        // File-backed recovery generates no NVM persist traffic.
        let clock = || (log.clock.now_ns(), PersistStats::default());

        // Phase 1: load the newest checkpoint.
        let ckpt = timed_phase(&mut report.phases, "checkpoint load", clock, || {
            if paths.checkpoint().exists() {
                wal::load_checkpoint(&paths.checkpoint())
                    .map(Some)
                    .map_err(EngineError::Wal)
            } else {
                Ok(None)
            }
        })?;
        let (mut tables, names, mut last_cts, covered) = match ckpt {
            Some((meta, tables)) => (
                tables,
                meta.table_names,
                meta.last_cts,
                meta.covered_log_pos,
            ),
            None => (Vec::new(), Vec::new(), 0, 0),
        };

        // Phase 2: replay the log suffix.
        let replay = timed_phase(&mut report.phases, "log replay", clock, || {
            if paths.log().exists() {
                wal::replay_log(&paths.log(), covered, &mut tables).map_err(EngineError::Wal)
            } else {
                Ok(wal::ReplayReport::default())
            }
        })?;
        last_cts = last_cts.max(replay.last_cts);
        report.log_records_replayed = replay.records;

        // Phase 3: rebuild the DRAM indexes.
        let mut indexes = Vec::with_capacity(tables.len());
        timed_phase(&mut report.phases, "index rebuild", clock, || {
            for (t, table) in tables.iter().enumerate() {
                let old = self.indexes.get(t).into_iter().flatten();
                let rebuilt: storage::Result<Vec<VolatileIndex>> = old
                    .map(|idx| {
                        let (kind, column) = idx.key();
                        VolatileIndex::build(kind, column, table)
                    })
                    .collect();
                indexes.push(rebuilt?);
            }
            Ok::<(), EngineError>(())
        })?;
        report.indexes_rebuilt = indexes.iter().map(|l| l.len() as u64).sum();
        report.last_cts = last_cts;
        report.rows_recovered = tables.iter().map(|t| t.row_count()).sum();
        let recovered = DramEngine {
            tables,
            names,
            indexes,
            // Moved last: a failed phase above leaves this engine logged.
            log: self.log.take(),
        };
        Ok((recovered, last_cts))
    }
}

impl Engine for DramEngine {
    fn names(&self) -> &[String] {
        &self.names
    }

    fn table_mut(&mut self, t: usize) -> &mut dyn TableStore {
        &mut self.tables[t]
    }

    fn tables_mut(&mut self) -> Vec<&mut dyn TableStore> {
        as_stores(&mut self.tables)
    }

    fn log_mut(&mut self) -> &mut Option<RedoLog> {
        &mut self.log
    }

    fn log(&self) -> Option<&RedoLog> {
        self.log.as_ref()
    }

    fn create_table(&mut self, name: &str, schema: Schema) -> Result<usize> {
        self.tables.push(VTable::new(schema));
        self.names.push(name.to_owned());
        self.indexes.push(Vec::new());
        Ok(self.tables.len() - 1)
    }

    fn create_index(&mut self, t: usize, column: usize, kind: IndexKind) -> Result<()> {
        let idx = VolatileIndex::build(kind, column, &self.tables[t])?;
        self.indexes[t].push(idx);
        Ok(())
    }

    fn index_insert(&mut self, t: usize, values: &[Value], row: RowId) -> Result<()> {
        Ok(index::insert_all(&mut self.indexes[t], values, row)?)
    }

    fn commit(&mut self, mgr: &mut TxnManager, tx: &mut Transaction) -> Result<u64> {
        let mut refs = as_stores(&mut self.tables);
        Ok(match &mut self.log {
            Some(log) => mgr.commit(tx, &mut refs, log)?,
            None => mgr.commit(tx, &mut refs, &mut txn::NoopPublish)?,
        })
    }

    /// Logged first (so replay reproduces row ids), then executed, then the
    /// DRAM indexes rebuilt.
    fn merge_table(&mut self, t: usize, snapshot: u64) -> Result<MergeStats> {
        if let Some(log) = &mut self.log {
            log.log_merge(t, snapshot)?;
        }
        let stats = self.tables[t].merge(snapshot)?;
        for idx in &mut self.indexes[t] {
            idx.rebuild(&self.tables[t])?;
        }
        Ok(stats)
    }

    fn checkpoint(&mut self, last_cts: u64) -> Result<u64> {
        match &mut self.log {
            Some(log) => log.checkpoint(
                &self.names,
                &self.tables.iter().collect::<Vec<_>>(),
                last_cts,
            ),
            None => Ok(0),
        }
    }
}
