//! The seam between the [`Database`](crate::Database) façade and its two
//! engines: everything the façade does on every durability backend goes
//! through [`Engine`] — or, on the read path, through [`Backend`]'s two
//! statically dispatched accessors — so each operation is written once.

use index::{IndexKind, Probe};
use storage::{MergeStats, RowId, Schema, TableStore, Value};
use txn::{Transaction, TxnManager};

use crate::backend_dram::DramEngine;
use crate::backend_nv::NvBackend;
use crate::error::Result;
use crate::redo_log::RedoLog;

/// What the façade needs from an engine. The shared protocols (the write
/// path with its unwind, abort, index probes, integrity checks, log
/// reclamation) live in the façade over these primitives.
pub(crate) trait Engine {
    /// Table names, in catalogue order.
    fn names(&self) -> &[String];

    /// Table `t`'s store, for the write path; the façade has
    /// bounds-checked `t`. (Reads go through [`Backend::table`].)
    fn table_mut(&mut self, t: usize) -> &mut dyn TableStore;

    /// Every table, for the transaction manager's commit and abort walks.
    fn tables_mut(&mut self) -> Vec<&mut dyn TableStore>;

    /// The redo log slot: the baseline's log, the NVM engine's shadow log,
    /// `None` without one.
    fn log_mut(&mut self) -> &mut Option<RedoLog>;

    /// Shared view of [`Engine::log_mut`].
    fn log(&self) -> Option<&RedoLog>;

    /// Register a table under a name the façade has checked to be new. The
    /// façade follows up with [`Engine::checkpoint`].
    fn create_table(&mut self, name: &str, schema: Schema) -> Result<usize>;

    /// Create an index over `(t, column)`, populated from the current rows.
    fn create_index(&mut self, t: usize, column: usize, kind: IndexKind) -> Result<()>;

    /// Notify table `t`'s indexes of a new row version.
    fn index_insert(&mut self, t: usize, values: &[Value], row: RowId) -> Result<()>;

    /// Write-ahead note that transaction `tid` is about to insert
    /// (`invalidate == false`) or invalidate `row` of table `t` — what the
    /// NVM engine's restart undoes. The default is for an engine whose
    /// restart loses or replays the row anyway: nothing to note.
    fn note_write(&mut self, _tid: u64, _t: usize, _row: RowId, _invalidate: bool) -> Result<()> {
        Ok(())
    }

    /// Retire `tid`'s write-ahead notes once its outcome is decided.
    fn release(&mut self, _tid: u64) -> Result<()> {
        Ok(())
    }

    /// Stamp `tx`'s writes and durably publish its commit timestamp.
    fn commit(&mut self, mgr: &mut TxnManager, tx: &mut Transaction) -> Result<u64>;

    /// Merge table `t`'s delta into its main and bring its indexes along.
    fn merge_table(&mut self, t: usize, snapshot: u64) -> Result<MergeStats>;

    /// Write a full-state checkpoint covering the redo log (a no-op
    /// without one). Returns bytes written.
    fn checkpoint(&mut self, last_cts: u64) -> Result<u64>;
}

/// `tables` as the trait objects the transaction manager walks.
pub(crate) fn as_stores<T: TableStore>(tables: &mut [T]) -> Vec<&mut dyn TableStore> {
    tables
        .iter_mut()
        .map(|t| t as &mut dyn TableStore)
        .collect()
}

/// The two engines behind the façade.
pub(crate) enum Backend {
    /// Primary data on NVM (simulated or file-backed), optional shadow log.
    Nv(NvBackend),
    /// Primary data in DRAM; durable through a redo log, or not at all.
    Dram(DramEngine),
}

impl Backend {
    pub fn engine(&self) -> &dyn Engine {
        match self {
            Backend::Nv(b) => b,
            Backend::Dram(e) => e,
        }
    }

    pub fn engine_mut(&mut self) -> &mut dyn Engine {
        match self {
            Backend::Nv(b) => b,
            Backend::Dram(e) => e,
        }
    }

    /// Table `t`'s store, `None` past the catalogue's end. The read path
    /// dispatches with a match, not through the vtable, so table access and
    /// the index probe below inline into the façade's read operators.
    pub fn table(&self, t: usize) -> Option<&dyn TableStore> {
        match self {
            Backend::Nv(b) => b.tables.get(t).map(|t| t as &dyn TableStore),
            Backend::Dram(e) => e.tables.get(t).map(|t| t as &dyn TableStore),
        }
    }

    /// Candidate rows for `probe` through an index on `(t, column)`;
    /// `None` when no index serves it (see [`index::candidates`]).
    pub fn candidates(
        &self,
        t: usize,
        column: usize,
        probe: Probe<'_>,
    ) -> storage::Result<Option<Vec<RowId>>> {
        match self {
            Backend::Nv(b) => index::candidates(&b.indexes[t], column, probe),
            Backend::Dram(e) => index::candidates(&e.indexes[t], column, probe),
        }
    }

    /// The NVM engine, for the instrumentation only it has.
    pub fn nv(&self) -> Option<&NvBackend> {
        match self {
            Backend::Nv(b) => Some(b),
            Backend::Dram(_) => None,
        }
    }
}
