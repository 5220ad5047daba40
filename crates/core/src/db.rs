//! The `Database` façade.

use std::sync::Arc;

use index::{IndexKind, NvIndex, Probe};
use nvm::{CrashPoint, CrashPolicy, NvmHeap, NvmRegion};
use storage::mvcc;
use storage::nv::MediaExtent;
use storage::{RowId, ScanResult, Schema, TableStore, Value};
use txn::{Transaction, TxnManager};

use crate::backend_dram::DramEngine;
use crate::backend_nv::{AttachParts, NvBackend};
use crate::config::{DurabilityConfig, TempWalDir, WalConfig};
use crate::engine::{Backend, Engine};
use crate::error::{EngineError, Result};
use crate::health::{HealthReport, HealthState, HealthTracker, ReclaimReport, Watermarks};
use crate::redo_log::RedoLog;
use crate::report::{timed_phase, IntegrityReport, PersistStats, RecoveryReport};

/// Handle to a table in the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub usize);

/// An embedded database instance over one durability backend.
///
/// The façade is single-threaded by design (one writer, as in the paper's
/// per-table delta append model); benchmark drivers issue transactions
/// back-to-back.
pub struct Database {
    backend: Backend,
    mgr: TxnManager,
    config: DurabilityConfig,
    health: HealthTracker,
    /// Declared last: the log files inside are closed before it goes.
    _temp_wal_dir: TempWalDir,
}

impl Database {
    /// Create a fresh database with the given durability configuration and
    /// the default degradation watermarks.
    pub fn create(config: DurabilityConfig) -> Result<Database> {
        Self::create_with_watermarks(config, Watermarks::default())
    }

    /// Create a fresh database with explicit degradation watermarks (see
    /// [`Watermarks`] for the state machine they steer).
    pub fn create_with_watermarks(config: DurabilityConfig, marks: Watermarks) -> Result<Database> {
        let temp_wal_dir = TempWalDir::claim(&config);
        let region = match &config {
            DurabilityConfig::Nvm { capacity, latency }
            | DurabilityConfig::NvmWithWal {
                capacity, latency, ..
            } => Some(NvmRegion::new(*capacity, *latency)),
            // Format a fresh image on the file (truncating any previous
            // database there); use [`Database::open`] to attach one.
            DurabilityConfig::NvmFile {
                path,
                capacity,
                latency,
                ..
            } => Some(NvmRegion::open_file(path, *capacity, *latency)?),
            DurabilityConfig::Wal(_) | DurabilityConfig::Volatile => None,
        };
        let backend = match region.map(Arc::new) {
            Some(region) => {
                let mut b = NvBackend::create_on_region(region.clone())?;
                if let Some(cfg) = config.shadow_wal() {
                    let log = RedoLog::open(cfg.clone(), Arc::default(), Some(region), true)?;
                    b.shadow = Some(log);
                    b.checkpoint(0)?;
                }
                Backend::Nv(b)
            }
            None => {
                let mut e = DramEngine::default();
                if let DurabilityConfig::Wal(cfg) = &config {
                    *e.log_mut() = Some(RedoLog::open(cfg.clone(), Arc::default(), None, true)?);
                }
                Backend::Dram(e)
            }
        };
        Ok(Database {
            backend,
            mgr: TxnManager::new(),
            config,
            health: HealthTracker::new(marks),
            _temp_wal_dir: temp_wal_dir,
        })
    }

    /// Open an existing database from its durable medium and run the
    /// recovery ladder — the real-restart entry point: where
    /// [`Database::restart`] simulates a crash on a live instance, `open`
    /// starts from nothing but the bytes a previous process left behind.
    /// Currently meaningful for [`DurabilityConfig::NvmFile`], whose image
    /// survives actual process death.
    pub fn open(config: DurabilityConfig) -> Result<(Database, RecoveryReport)> {
        let DurabilityConfig::NvmFile {
            path,
            capacity,
            latency,
            ..
        } = &config
        else {
            return Err(EngineError::Catalog(
                "Database::open requires a file-backed durability config \
                 (DurabilityConfig::NvmFile)"
                    .into(),
            ));
        };
        let region = Arc::new(NvmRegion::open_file(path, *capacity, *latency)?);
        Self::open_region(region, config)
    }

    /// Open a database over a caller-built region (file-backed or
    /// simulated) holding an existing image. The out-of-process torture
    /// harness uses this to pre-arm kill points on the region before
    /// recovery runs over it.
    pub fn open_region(
        region: Arc<NvmRegion>,
        config: DurabilityConfig,
    ) -> Result<(Database, RecoveryReport)> {
        let mut report = RecoveryReport {
            mode: config.mode_name(),
            ..Default::default()
        };
        let mut db = Database {
            backend: Backend::Dram(DramEngine::default()),
            mgr: TxnManager::new(),
            _temp_wal_dir: TempWalDir::claim(&config),
            config,
            health: HealthTracker::new(Watermarks::default()),
        };
        db.recover_nv(region, &mut report)?;
        Ok((db, report))
    }

    /// Gracefully shut down: flush the shadow log, durably set the
    /// clean-shutdown marker, and sync the whole mapping. The next
    /// [`Database::open`] of the image reports `clean_shutdown` and skips
    /// the mvcc undo pass — unless a transaction is still in flight: then
    /// the marker is withheld and the next open undoes it as after a crash.
    /// A no-op for non-NVM backends.
    pub fn shutdown(self) -> Result<()> {
        let Backend::Nv(mut b) = self.backend else {
            return Ok(());
        };
        // Drop the shadow writer first: its buffered records reach the log
        // file on drop, keeping the log a superset of the published NVM
        // state even across the shutdown.
        b.shadow = None;
        // The marker vouches for an empty registry; a `Transaction` is not
        // borrowed from the `Database`, so nothing else enforces that.
        if !b.registry.has_active() {
            b.mark_clean_shutdown()?;
        }
        let region = b.region().clone();
        drop(b);
        region.sync_all().map_err(EngineError::Nvm)?;
        if let Some(e) = region.take_sync_error() {
            return Err(EngineError::Nvm(e));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Health + admission control
    // ------------------------------------------------------------------

    /// The NVM engine, or the typed error of an NVM-only operation.
    fn require_nv(&self, what: &'static str) -> Result<&NvBackend> {
        self.backend.nv().ok_or(EngineError::Unsupported(what))
    }

    /// Heap utilization — 0.0 off the NVM backend.
    fn utilization(&self) -> f64 {
        self.heap_stats().map_or(0.0, |s| s.utilization())
    }

    /// Feed the state machine a fresh heap observation (utilization plus
    /// redo-log wedge state) and return the resulting state.
    fn refresh_health(&mut self) -> HealthState {
        self.health.set_wal_wedged(self.wal_wedged());
        self.health.observe(self.utilization())
    }

    fn admit_write(&mut self) -> Result<()> {
        self.refresh_health();
        self.health.admit_write()
    }

    fn admit_ddl(&mut self) -> Result<()> {
        self.refresh_health();
        self.health.admit_ddl()
    }

    /// Error-path epilogue for every mutating operation: normalize
    /// out-of-space failures into the typed capacity error, sweep the
    /// reservations the failed protocol orphaned (restoring the
    /// four-invariant clean heap), and re-derive the health state.
    fn after_write<T>(&mut self, res: Result<T>) -> Result<T> {
        res.map_err(|e| {
            let e = e.normalize_capacity();
            if e.is_capacity() {
                self.health.note_capacity_abort();
                if let Some(b) = self.backend.nv() {
                    let _ = b.heap().reclaim_reserved();
                }
                self.refresh_health();
            }
            e
        })
    }

    /// Current degradation snapshot. Refreshes the state machine from the
    /// heap first, so the report never lags the allocator.
    pub fn health(&mut self) -> HealthReport {
        self.refresh_health();
        // Zeroes off the NVM backend.
        let (high_water, capacity, free_bytes) = self
            .heap_stats()
            .map_or((0, 0, 0), |s| (s.high_water, s.capacity, s.free_bytes));
        self.health.report(high_water, capacity, free_bytes)
    }

    /// Emergency reclamation: recreate a wedged redo log (and re-baseline
    /// its checkpoint), merge every table to retire dead versions, and
    /// sweep orphaned reservations. Requires quiesced tables — abort any
    /// in-flight transaction first. Allowed in every health state; this is
    /// the path *out* of `ReadOnly`.
    pub fn reclaim(&mut self) -> Result<ReclaimReport> {
        let mut rep = ReclaimReport {
            utilization_before: self.utilization(),
            ..Default::default()
        };
        let snapshot = self.mgr.last_committed();
        let e = self.backend.engine_mut();
        // A wedged log blocks merges (they append merge records), so it
        // is recreated first. The fresh log starts empty; the immediate
        // full-state checkpoint restores the `log ⊇ published state`
        // invariant rung 2 (and a baseline restart) depends on.
        if let Some(wedged) = e.log().filter(|log| log.is_wedged()) {
            let fresh = wedged.reopen_fresh()?;
            *e.log_mut() = Some(fresh);
            e.checkpoint(snapshot)?;
            rep.wal_recreated = true;
        }
        for t in 0..e.names().len() {
            match e.merge_table(t, snapshot) {
                Ok(_) => rep.tables_merged += 1,
                Err(e) => {
                    // A merge needs headroom for the new main; at the
                    // brim it can itself exhaust capacity. Skip the
                    // table (its old image is untouched) and keep
                    // reclaiming elsewhere.
                    let e = e.normalize_capacity();
                    if e.is_capacity() {
                        rep.merges_failed += 1;
                    } else {
                        return Err(e);
                    }
                }
            }
        }
        if let Some(b) = self.backend.nv() {
            let (blocks, bytes) = b.heap().reclaim_reserved()?;
            rep.reserved_blocks_freed = blocks;
            rep.reserved_bytes_freed = bytes;
        }
        self.health.note_reclaim();
        rep.state_after = self.refresh_health();
        rep.utilization_after = self.utilization();
        Ok(rep)
    }

    // ------------------------------------------------------------------
    // Exhaustion-fault instrumentation
    // ------------------------------------------------------------------

    /// Arm an out-of-space fault on the redo log: the baseline's log, or
    /// the NVM backend's shadow log.
    pub fn arm_wal_fault(&mut self, spec: wal::WalFaultSpec) -> Result<()> {
        match self.backend.engine_mut().log_mut() {
            Some(log) => {
                log.arm_fault(spec);
                Ok(())
            }
            None => Err(EngineError::Unsupported(
                "wal fault injection requires a redo log",
            )),
        }
    }

    /// True while the redo-log writer is wedged by an out-of-space
    /// failure (forces read-only mode until [`Database::reclaim`]).
    pub fn wal_wedged(&self) -> bool {
        self.backend
            .engine()
            .log()
            .is_some_and(|log| log.is_wedged())
    }

    /// Arm an allocation fault on the NVM region (deterministic nth-attempt
    /// or probabilistic).
    pub fn arm_alloc_fault(&self, spec: nvm::AllocFaultSpec) -> Result<()> {
        let b = self.require_nv("allocation faults require the NVM backend")?;
        b.region().arm_alloc_fault(&spec);
        Ok(())
    }

    /// Clamp the heap's effective capacity to model a smaller device
    /// (`None` lifts the clamp).
    pub fn set_capacity_clamp(&self, clamp: Option<u64>) -> Result<()> {
        let b = self.require_nv("capacity clamps require the NVM backend")?;
        b.region().set_capacity_clamp(clamp);
        Ok(())
    }

    /// Allocation attempts the region has observed — the sweep space of the
    /// nth-allocation fault harness. Zero off the NVM backend.
    pub fn alloc_attempts(&self) -> u64 {
        self.backend.nv().map_or(0, |b| b.region().alloc_attempts())
    }

    /// Volatile heap statistics (NVM backend only).
    pub fn heap_stats(&self) -> Option<nvm::HeapStats> {
        self.backend.nv().map(|b| b.heap().stats())
    }

    /// The active durability mode ("nvm" / "wal" / "volatile").
    pub fn mode(&self) -> &'static str {
        self.config.mode_name()
    }

    /// Simulated nanoseconds charged so far (NVM flush/fence or WAL sync).
    pub fn simulated_ns(&self) -> u64 {
        match self.backend.nv() {
            Some(b) => b.region().clock().now_ns(),
            None => self
                .backend
                .engine()
                .log()
                .map_or(0, |log| log.clock.now_ns()),
        }
    }

    /// NVM primitive counters (zeroes for other backends).
    pub fn nvm_stats(&self) -> nvm::StatsSnapshot {
        self.backend
            .nv()
            .map(|b| b.region().stats())
            .unwrap_or_default()
    }

    /// WAL activity counters: the baseline's log on the WAL backend, the
    /// shadow log on the NVM backend when one is configured, zeroes
    /// otherwise.
    pub fn wal_stats(&self) -> wal::WalStats {
        self.backend
            .engine()
            .log()
            .map(|log| log.stats())
            .unwrap_or_default()
    }

    /// The NVM backend, if active (advanced instrumentation).
    pub fn nv_backend(&self) -> Option<&NvBackend> {
        self.backend.nv()
    }

    /// The transaction manager's committed-state watermark.
    pub fn last_committed(&self) -> u64 {
        self.mgr.last_committed()
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Create a table. Rejected while the engine is read-only.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        self.admit_ddl()?;
        if self.table_id(name).is_some() {
            return Err(EngineError::Catalog(format!(
                "duplicate table name {name:?}"
            )));
        }
        let cts = self.mgr.last_committed();
        let e = self.backend.engine_mut();
        // DDL is a quiesced point, so a full-state checkpoint is valid: it
        // is what makes the schema durable on the log-based baseline, and
        // what tells rung 2 about the new table even when its NVM root is
        // unreadable (a crash between the NVM publish and this write loses
        // only an empty table from the fallback path).
        let res = e.create_table(name, schema).and_then(|t| {
            e.checkpoint(cts)?;
            Ok(t)
        });
        self.after_write(res).map(TableId)
    }

    /// Look up a table by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        let names = self.backend.engine().names();
        names.iter().position(|n| n == name).map(TableId)
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.backend.engine().names().len()
    }

    /// Create an index over `(table, column)`. Rejected while the engine
    /// is read-only.
    pub fn create_index(&mut self, table: TableId, column: usize, kind: IndexKind) -> Result<()> {
        self.check_table(table)?;
        self.admit_ddl()?;
        let res = self
            .backend
            .engine_mut()
            .create_index(table.0, column, kind);
        self.after_write(res)
    }

    fn check_table(&self, table: TableId) -> Result<()> {
        self.table(table).map(|_| ())
    }

    /// A table's store (also used by the query operators).
    pub(crate) fn table(&self, table: TableId) -> Result<&dyn TableStore> {
        self.backend
            .table(table.0)
            .ok_or_else(|| EngineError::Catalog(format!("unknown table id {}", table.0)))
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction with a snapshot of the current committed state.
    pub fn begin(&mut self) -> Transaction {
        self.mgr.begin()
    }

    /// Insert a row. Rejected with a retryable typed error while the
    /// engine is degraded (see [`Database::health`]); an allocation failure
    /// mid-insert unwinds to a clean abort before the typed
    /// [`EngineError::CapacityExhausted`] surfaces.
    pub fn insert(
        &mut self,
        tx: &mut Transaction,
        table: TableId,
        values: &[Value],
    ) -> Result<RowId> {
        self.check_table(table)?;
        self.admit_write()?;
        let res = self.insert_unguarded(tx, table.0, values);
        self.after_write(res)
    }

    fn insert_unguarded(
        &mut self,
        tx: &mut Transaction,
        t: usize,
        values: &[Value],
    ) -> Result<RowId> {
        let e = self.backend.engine_mut();
        let row = e.table_mut(t).row_count();
        e.note_write(tx.tid, t, row, false)?;
        let got = e.table_mut(t).insert_version(values, tx.marker())?;
        debug_assert_eq!(got, row);
        // The version exists but the transaction has not recorded it yet: a
        // failure in the index or log step must tombstone it here, or
        // nothing ever would.
        let tail = e.index_insert(t, values, got).and_then(|()| {
            if let Some(log) = e.log_mut() {
                log.log_insert(tx.tid, t, got, values)?;
            }
            Ok(())
        });
        if let Err(err) = tail {
            let _ = e.table_mut(t).abort_insert(got);
            return Err(err);
        }
        tx.record_insert(t, got);
        Ok(got)
    }

    /// Delete (invalidate) a visible row version. Fails with a write
    /// conflict if another transaction holds the row, and with a retryable
    /// typed error while the engine is degraded.
    pub fn delete(&mut self, tx: &mut Transaction, table: TableId, row: RowId) -> Result<()> {
        self.check_table(table)?;
        self.admit_write()?;
        let res = self.delete_unguarded(tx, table.0, row);
        self.after_write(res)
    }

    fn delete_unguarded(&mut self, tx: &mut Transaction, t: usize, row: RowId) -> Result<()> {
        let e = self.backend.engine_mut();
        e.note_write(tx.tid, t, row, true)?;
        e.table_mut(t).try_invalidate(row, tx.marker())?;
        if let Some(log) = e.log_mut() {
            // The end marker is already placed but the transaction has not
            // recorded it: restore it on a failed append.
            if let Err(err) = log.log_invalidate(tx.tid, t, row) {
                let _ = e.table_mut(t).restore_end(row);
                return Err(err);
            }
        }
        tx.record_invalidate(t, row);
        Ok(())
    }

    /// Update a visible row version: invalidate + insert the new values.
    /// Returns the new version's row id.
    pub fn update(
        &mut self,
        tx: &mut Transaction,
        table: TableId,
        row: RowId,
        new_values: &[Value],
    ) -> Result<RowId> {
        self.delete(tx, table, row)?;
        self.insert(tx, table, new_values)
    }

    /// Commit: stamp every write with the next commit timestamp, durably
    /// publish it, advance the committed state.
    ///
    /// Commits are admitted in every health state — an in-flight
    /// transaction may always try to finish. A publish that hits the
    /// capacity wall surfaces as the typed
    /// [`EngineError::CapacityExhausted`] and leaves the transaction
    /// active: [`Database::abort`] then rolls the stamped markers back to a
    /// clean image.
    pub fn commit(&mut self, tx: &mut Transaction) -> Result<u64> {
        let res = self.backend.engine_mut().commit(&mut self.mgr, tx);
        self.after_write(res)
    }

    /// Abort: roll back every pending marker. Also the unwind path after a
    /// failed commit publish — the stamps `commit` already applied are
    /// rolled back the same way as pending markers. Succeeds even while
    /// the redo log is wedged: an absent abort record replays exactly
    /// like a missing commit, so nothing is lost by skipping the append.
    pub fn abort(&mut self, tx: &mut Transaction) -> Result<()> {
        let e = self.backend.engine_mut();
        self.mgr.abort(tx, &mut e.tables_mut())?;
        e.release(tx.tid)?;
        if let Some(log) = e.log_mut() {
            match log.log_abort(tx.tid) {
                Err(EngineError::Wal(e)) if e.is_full() => {}
                other => other?,
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    fn materialize(store: &dyn TableStore, rows: Vec<RowId>) -> Result<Vec<ScanResult>> {
        rows.into_iter()
            .map(|row| {
                Ok(ScanResult {
                    row,
                    values: store.row_values(row)?,
                })
            })
            .collect()
    }

    /// All rows visible to `tx`.
    // pmlint: read-path
    pub fn scan_all(&self, tx: &Transaction, table: TableId) -> Result<Vec<ScanResult>> {
        let store = self.table(table)?;
        Self::materialize(store, store.scan_visible(tx.snapshot, tx.tid)?)
    }

    /// Visible rows with `column == value` (full column scan through the
    /// dictionary; use [`Database::index_lookup`] when an index exists).
    // pmlint: read-path
    pub fn scan_eq(
        &self,
        tx: &Transaction,
        table: TableId,
        column: usize,
        value: &Value,
    ) -> Result<Vec<ScanResult>> {
        let store = self.table(table)?;
        Self::materialize(store, store.scan_eq(column, value, tx.snapshot, tx.tid)?)
    }

    /// Visible rows with `lo <= column < hi`.
    // pmlint: read-path
    pub fn scan_range(
        &self,
        tx: &Transaction,
        table: TableId,
        column: usize,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Result<Vec<ScanResult>> {
        let store = self.table(table)?;
        let rows = store.scan_range(column, lo, hi, tx.snapshot, tx.tid)?;
        Self::materialize(store, rows)
    }

    /// The index candidates for `probe` that `tx` can see, `None` when no
    /// index on `(table, column)` serves the probe. Hash candidates may
    /// collide, so a point probe's key is verified against the base table.
    fn index_probe(
        &self,
        tx: &Transaction,
        table: TableId,
        column: usize,
        probe: Probe<'_>,
    ) -> Result<Option<Vec<ScanResult>>> {
        let store = self.table(table)?;
        let Some(candidates) = self.backend.candidates(table.0, column, probe)? else {
            return Ok(None);
        };
        let mut out = Vec::new();
        for row in candidates {
            if let Probe::Eq(value) = probe {
                if store.value(row, column)? != *value {
                    continue;
                }
            }
            let (b, e) = (store.begin_ts(row)?, store.end_ts(row)?);
            if mvcc::visible(b, e, tx.snapshot, tx.tid) {
                out.push(ScanResult {
                    row,
                    values: store.row_values(row)?,
                });
            }
        }
        Ok(Some(out))
    }

    /// Point lookup through an index on `(table, column)`; falls back to a
    /// dictionary scan when no index exists. Results are verified against
    /// the base table and MVCC-filtered.
    // pmlint: read-path
    pub fn index_lookup(
        &self,
        tx: &Transaction,
        table: TableId,
        column: usize,
        value: &Value,
    ) -> Result<Vec<ScanResult>> {
        match self.index_probe(tx, table, column, Probe::Eq(value))? {
            Some(rows) => Ok(rows),
            None => self.scan_eq(tx, table, column, value),
        }
    }

    /// Range lookup through an ordered index; falls back to a scan.
    // pmlint: read-path
    pub fn index_range_lookup(
        &self,
        tx: &Transaction,
        table: TableId,
        column: usize,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Result<Vec<ScanResult>> {
        match self.index_probe(tx, table, column, Probe::Range(lo, hi))? {
            Some(rows) => Ok(rows),
            None => self.scan_range(tx, table, column, lo, hi),
        }
    }

    /// Total physical rows (all versions) in a table.
    // pmlint: read-path
    pub fn row_count(&self, table: TableId) -> Result<u64> {
        Ok(self.table(table)?.row_count())
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Merge a table's delta into its main. Requires a quiesced table (no
    /// in-flight transactions touching it).
    pub fn merge(&mut self, table: TableId) -> Result<storage::MergeStats> {
        self.check_table(table)?;
        let snapshot = self.mgr.last_committed();
        let res = self.backend.engine_mut().merge_table(table.0, snapshot);
        // Merges are admitted in every health state — they are the cure,
        // not the disease — but can themselves exhaust capacity.
        self.after_write(res)
    }

    /// Write a checkpoint (WAL backend only; no-ops elsewhere — NVM *is*
    /// its own checkpoint, and its shadow log re-baselines itself at DDL
    /// and recovery). Returns bytes written.
    pub fn checkpoint(&mut self) -> Result<u64> {
        if self.backend.nv().is_some() {
            return Ok(0);
        }
        let cts = self.mgr.last_committed();
        self.backend.engine_mut().checkpoint(cts)
    }

    // ------------------------------------------------------------------
    // Crash + restart
    // ------------------------------------------------------------------

    /// Simulate a power failure with all unflushed cache lines lost, then
    /// restart and recover. Returns the phase-timed report.
    pub fn restart_after_crash(&mut self) -> Result<RecoveryReport> {
        self.restart(CrashPolicy::DropUnflushed)
    }

    /// Simulate a power failure with the given crash policy, then restart.
    pub fn restart(&mut self, policy: CrashPolicy) -> Result<RecoveryReport> {
        let mut report = RecoveryReport {
            mode: self.mode(),
            ..Default::default()
        };
        match &mut self.backend {
            Backend::Nv(b) => {
                // Drop the shadow writer first: its buffered records reach
                // the log file on drop, and the file — unlike NVM cache
                // lines — survives the simulated power loss.
                b.shadow = None;
                let region = b.region().clone();
                region.crash(policy);
                self.recover_nv(region, &mut report)?;
            }
            Backend::Dram(e) => {
                let (recovered, last_cts) = e.restarted(&mut report)?;
                *e = recovered;
                self.mgr = TxnManager::recovered(last_cts);
                self.finish_restart(&mut report);
            }
        }
        Ok(report)
    }

    /// Restart epilogue: the health machine is volatile, so it is
    /// re-derived from the recovered heap exactly as a fresh process would.
    fn finish_restart(&mut self, report: &mut RecoveryReport) {
        self.health.reset();
        report.health = self.refresh_health();
        report.utilization = self.utilization();
    }

    /// The shared NVM recovery path: map the region, re-attach the
    /// catalogue, run the registry undo pass. The crash itself (policy or
    /// scheduled) must already have been materialized on `region`.
    ///
    /// On the plain NVM backend this is the fast rung-0 restart: remap and
    /// re-attach in O(metadata), no data is touched, any failure is fatal.
    /// When a shadow WAL is configured ([`DurabilityConfig::NvmWithWal`]),
    /// the full recovery ladder runs instead (see [`attach_with_ladder`]).
    fn recover_nv(&mut self, region: Arc<NvmRegion>, report: &mut RecoveryReport) -> Result<()> {
        let clock = nv_probe(&region);
        let shadow_cfg = self.config.shadow_wal().cloned();
        let mut retries = 0u64;

        // Phase 1: map the region + allocator recovery scan.
        let (heap, alloc_report) = timed_phase(
            &mut report.phases,
            "heap map + allocator scan",
            clock,
            || {
                retry_poisoned(&mut retries, || {
                    nvm::NvmHeap::open(region.clone()).map_err(EngineError::Nvm)
                })
            },
        )?;
        report.heap_blocks_scanned = alloc_report.blocks_scanned;

        // Graceful-shutdown marker: read and durably clear it first, so it
        // can never leak into this run and vouch for a later hard crash.
        report.clean_shutdown = retry_poisoned(&mut retries, || {
            crate::backend_nv::take_clean_shutdown(&heap)
        })?;

        // Attempt accounting: durably bump the progress word before any
        // other recovery mutation. `attempt > 1` means this recovery is
        // itself re-entrant — an earlier attempt was cut short by a
        // nested crash (or a recoverable failure) before it could zero
        // the word.
        report.attempt = retry_poisoned(&mut retries, || {
            crate::backend_nv::begin_recovery_attempt(&heap)
        })?;

        // Phase 2: catalogue + tables + indexes — fast path or ladder.
        let mut nb = match &shadow_cfg {
            None => {
                let nb = timed_phase(
                    &mut report.phases,
                    "catalogue + transient rebuild",
                    clock,
                    || NvBackend::attach(heap),
                )?;
                // Every index is persistent: attached, never rebuilt.
                report.indexes_attached = nb.indexes.iter().map(|l| l.len() as u64).sum();
                nb
            }
            Some(cfg) => attach_with_ladder(heap, cfg, report, &mut retries, clock)?,
        };

        // Phase 3: registry-driven undo pass — repairs exactly the rows of
        // transactions in flight at the crash, O(in-flight writes), never
        // O(rows). Idempotent over rung-2 rebuilt tables: replay already
        // materialized their uncommitted rows as aborted tombstones.
        let last_cts = nb.last_cts()?;
        let repaired = if report.clean_shutdown {
            // The marker is only written over an empty registry: the undo
            // pass would find nothing. Skipping it (no "mvcc undo
            // pass" phase in the report) is the clean-restart fast path the
            // SIGTERM half of the torture harness asserts on.
            0
        } else {
            timed_phase(&mut report.phases, "mvcc undo pass", clock, || {
                let NvBackend {
                    registry, tables, ..
                } = &mut nb;
                let rec = registry.recover(tables, last_cts)?;
                Ok::<u64, EngineError>(rec.repaired)
            })?
        };
        report.mvcc_words_repaired = repaired;
        report.last_cts = last_cts;
        report.rows_recovered = nb.tables.iter().map(|t| t.row_count()).sum();

        // Re-attach the shadow log and re-baseline its checkpoint from the
        // recovered state. The re-baseline is what keeps *future* rung-2
        // replays row-id-aligned: the old log can hold insert records for
        // rows that never became durable on NVM, and new row ids handed out
        // after this restart would collide with that stale suffix.
        if let Some(cfg) = shadow_cfg {
            nb.shadow = Some(RedoLog::open(
                cfg,
                Arc::default(),
                Some(region.clone()),
                false,
            )?);
            timed_phase(&mut report.phases, "shadow re-baseline", clock, || {
                nb.checkpoint(last_cts)
            })?;
        }

        // Close the attempt: the progress word returns to 0 only once the
        // ladder, undo pass, and shadow re-baseline have all completed —
        // a nested crash anywhere above leaves it non-zero, and the next
        // attempt reports itself as re-entrant.
        retry_poisoned(&mut retries, || nb.finish_recovery_attempt())?;
        report.poison_retries = retries;
        if retries > 0 {
            report.rung = report.rung.max(1);
        }

        self.mgr = TxnManager::recovered(last_cts);
        self.backend = Backend::Nv(nb);
        self.finish_restart(report);
        Ok(())
    }

    /// First half of a scheduled restart: drop the shadow writer (its
    /// buffer reaches the log file, which survives power loss) and
    /// materialize the crash point armed on the NVM region.
    fn materialize_scheduled_crash(&mut self) -> Result<(Arc<NvmRegion>, RecoveryReport)> {
        let Backend::Nv(b) = &mut self.backend else {
            return Err(EngineError::Catalog(
                "scheduled crashes require the NVM backend".into(),
            ));
        };
        b.shadow = None;
        let region = b.region().clone();
        let outcome = region
            .finalize_scheduled_crash()
            .map_err(EngineError::Nvm)?;
        let report = RecoveryReport {
            mode: self.mode(),
            scheduled: Some(outcome),
            ..Default::default()
        };
        Ok((region, report))
    }

    /// Materialize a crash point armed on the NVM region (see
    /// [`nvm::NvmRegion::arm_crash`]) and recover from the surviving
    /// image. The whole recovery runs under the persist-trace linter:
    /// any byte it reads whose last store never reached the medium is a
    /// missing-flush bug, reported in the returned report's
    /// `lint_findings`. The trace is closed afterwards, restoring the
    /// default synchronous persistence semantics.
    pub fn restart_scheduled(&mut self) -> Result<RecoveryReport> {
        let (region, mut report) = self.materialize_scheduled_crash()?;
        let recovered = self.recover_nv(region.clone(), &mut report);
        report.lint_findings = region.take_lint_findings();
        let _ = region.trace_stop();
        recovered?;
        Ok(report)
    }

    /// Like [`Database::restart_scheduled`], but keeps the persist trace
    /// armed *across* the recovery: the pending crash is materialized,
    /// the recorder is re-armed with `next` — a crash point inside the
    /// upcoming recovery, its fence numbers relative to the recovery's
    /// own persistence stream — and recovery runs. The trace stays
    /// active afterwards, so nested-crash chains compose: each call
    /// models one power-cycle, the next call materializes `next`
    /// (crash-at-end of recovery if it never tripped), and a final
    /// [`Database::restart_scheduled`] terminates the chain, linting the
    /// last recovery and closing the trace.
    ///
    /// Pass `None` to record the recovery without scheduling a trip
    /// (useful as a reference run: `region.trace_fences()` afterwards is
    /// the recovery's own fence count, the sampling domain for nested
    /// points).
    ///
    /// If the recovery attempt fails (e.g. a composed allocation fault),
    /// the error is returned with the trace still active and the stale
    /// backend still in place — calling the method again models the next
    /// power-cycle retrying recovery.
    pub fn restart_scheduled_traced(&mut self, next: Option<CrashPoint>) -> Result<RecoveryReport> {
        let (region, mut report) = self.materialize_scheduled_crash()?;
        region
            .rearm_recovery_crash(next)
            .map_err(EngineError::Nvm)?;
        self.recover_nv(region.clone(), &mut report)?;
        report.lint_findings = region.take_lint_findings();
        Ok(report)
    }

    /// Post-recovery integrity check composing the crash-torture
    /// invariants: the heap walk (no block stuck mid-protocol), per-table
    /// MVCC cleanliness at the durable watermark, and index↔table
    /// agreement. Cheap enough to run after every scheduled crash; on the
    /// WAL and volatile backends only the MVCC check applies.
    pub fn verify_integrity(&self) -> Result<IntegrityReport> {
        let last_cts = self.mgr.last_committed();
        let mut rep = IntegrityReport {
            last_cts,
            ..Default::default()
        };
        if let Some(b) = self.backend.nv() {
            for blk in b.heap().walk().map_err(EngineError::Nvm)? {
                rep.heap_blocks += 1;
                match blk.state {
                    nvm::AllocState::Allocated | nvm::AllocState::Free => {}
                    _ => rep.heap_limbo_blocks += 1,
                }
            }
            rep.index = b.verify_indexes()?.0;
        }
        for t in 0..self.table_count() {
            let check = self.table(TableId(t))?.verify_mvcc(last_cts)?;
            rep.mvcc.absorb(&check);
        }
        rep.health = self.health.state();
        rep.utilization = self.utilization();
        Ok(rep)
    }

    // ------------------------------------------------------------------
    // Media-fault instrumentation
    // ------------------------------------------------------------------

    /// The labelled persistent extents of a table — fault-injection targets
    /// for the media-torture harness (NVM backend only).
    pub fn media_extents(&self, table: TableId) -> Result<Vec<MediaExtent>> {
        self.check_table(table)?;
        let b = self.require_nv("media extents require the NVM backend")?;
        Ok(b.tables[table.0].media_extents()?)
    }

    /// The labelled persistent extents of a table's indexes — checksummed
    /// node/entry runs usable as corruption targets by the real-file
    /// media-fault harness (NVM backend only).
    pub fn index_media_extents(&self, table: TableId) -> Result<Vec<MediaExtent>> {
        self.check_table(table)?;
        let b = self.require_nv("media extents require the NVM backend")?;
        let mut out = Vec::new();
        for idx in &b.indexes[table.0] {
            out.extend(idx.media_extents()?);
        }
        Ok(out)
    }

    /// On-demand media verification of every persistent structure: table
    /// checksums plus MVCC timestamp plausibility, then index↔table
    /// agreement. Returns the number of structures verified; any media
    /// fault surfaces as a typed error (NVM backend only).
    pub fn verify_media(&self) -> Result<u64> {
        let b = self.require_nv("media verification requires the NVM backend")?;
        let last_cts = b.last_cts()?;
        let mut n = 0u64;
        for t in &b.tables {
            n += t.verify_media(last_cts)?;
        }
        let (check, indexes) = b.verify_indexes()?;
        if !check.is_clean() {
            return Err(EngineError::Catalog(
                "an index disagrees with its table".into(),
            ));
        }
        Ok(n + indexes)
    }
}

/// [`timed_phase`] probe over an NVM region: the simulated clock plus the
/// region's persist counters, so each recovery phase's report row carries
/// the traffic it generated.
fn nv_probe(
    region: &std::sync::Arc<nvm::NvmRegion>,
) -> impl Fn() -> (u64, PersistStats) + Copy + '_ {
    move || {
        let s = region.stats();
        (
            region.clock().now_ns(),
            PersistStats {
                bytes_written: s.bytes_written,
                flushes: s.flush_calls,
                lines_flushed: s.lines_flushed,
                fences: s.fences,
            },
        )
    }
}

/// Recovery rungs 0–2 for the NVM-with-shadow backend: catalogue decode
/// with per-table failure isolation, bounded retry of transiently poisoned
/// reads (rung 1), media verification of every checksummed structure, WAL
/// fallback replay for tables whose NVM image cannot be trusted (rung 2),
/// and per-index verify-or-rebuild (rung 1).
fn attach_with_ladder(
    heap: NvmHeap,
    wal_cfg: &WalConfig,
    report: &mut RecoveryReport,
    retries: &mut u64,
    clock: impl Fn() -> (u64, PersistStats) + Copy,
) -> Result<NvBackend> {
    use storage::nv::NvTable;

    // Catalogue decode. Catalogue-level damage stays fatal: without the
    // table registry nothing can be salvaged, not even from the log.
    let mut parts = timed_phase(
        &mut report.phases,
        "catalogue + transient rebuild",
        clock,
        || retry_poisoned(retries, || NvBackend::attach_parts(heap.clone())),
    )?;
    let last_cts = parts.last_cts;

    // Rung 1: transiently poisoned table opens get a bounded retry.
    let retry_heap = parts.heap.clone();
    for (slot, &root) in parts.tables.iter_mut().zip(parts.roots.iter()) {
        if matches!(slot, Err(e) if is_transient_poison(e)) {
            *slot = retry_poisoned(retries, || {
                NvTable::open(&retry_heap, root).map_err(EngineError::Storage)
            });
        }
    }

    // Rung-0 detection: media-verify every table — block headers and
    // checksummed payloads plus MVCC timestamp plausibility. A table whose
    // image cannot be trusted goes on the rebuild list.
    let mut unhealthy: Vec<usize> = Vec::new();
    let mut verified = 0u64;
    timed_phase(&mut report.phases, "media verification", clock, || {
        for (t, slot) in parts.tables.iter().enumerate() {
            match slot {
                Err(_) => unhealthy.push(t),
                Ok(tab) => match retry_poisoned(retries, || {
                    tab.verify_media(last_cts).map_err(EngineError::Storage)
                }) {
                    Ok(n) => verified += n,
                    Err(_) => unhealthy.push(t),
                },
            }
        }
        Ok::<(), EngineError>(())
    })?;
    report.media_structures_verified = verified;

    // Rung 2: rebuild broken tables from the shadow log, bounded at the
    // published commit timestamp (the `log ⊇ published state` invariant).
    // The old trees stay allocated but unreachable — quarantined, since
    // their block metadata cannot be trusted after a media fault.
    if !unhealthy.is_empty() {
        let mut replayed = 0u64;
        timed_phase(&mut report.phases, "wal fallback replay", clock, || {
            let paths = wal::WalPaths::new(&wal_cfg.dir).map_err(wal::WalError::Io)?;
            let (meta, mut skel) = wal::load_checkpoint(&paths.checkpoint())?;
            let rep =
                wal::replay_log_bounded(&paths.log(), meta.covered_log_pos, &mut skel, last_cts)?;
            replayed = rep.records;
            for &t in &unhealthy {
                let src = skel.get(t).ok_or_else(|| {
                    EngineError::Catalog(
                        "shadow checkpoint is missing a table the catalogue lists".into(),
                    )
                })?;
                let mut nt = NvTable::create(&parts.heap, src.schema().clone())?;
                crate::backend_nv::copy_versions(src, &mut nt)?;
                nt.publish()?;
                parts.swap_table_root(t, nt.root_offset())?;
                let slot = parts.tables.get_mut(t).ok_or_else(|| {
                    EngineError::Catalog("rebuilt table slot vanished from catalogue".into())
                })?;
                *slot = Ok(nt);
            }
            Ok::<(), EngineError>(())
        })?;
        report.rung = 2;
        report.log_records_replayed = replayed;
        report.structures_rebuilt += unhealthy.len() as u64;
        report.blocks_quarantined += unhealthy.len() as u64;
    }

    // Index verify-or-rebuild. Indexes of rebuilt tables are rebuilt
    // unconditionally — their old entries point into the quarantined tree.
    // Healthy tables keep their indexes unless attach or verification
    // against the table fails.
    let mut indexes: Vec<Vec<NvIndex>> = Vec::new();
    let mut attached = 0u64;
    let mut rebuilt = 0u64;
    timed_phase(&mut report.phases, "index verify + attach", clock, || {
        for (t, slot) in parts.tables.iter().enumerate() {
            let Ok(table) = slot else {
                return Err(EngineError::Catalog(
                    "table slot left unhealthy after ladder".into(),
                ));
            };
            let force = unhealthy.contains(&t);
            let mut list = Vec::new();
            for e in parts.index_entries(t)? {
                let ok = if force {
                    None
                } else {
                    attach_index(&parts.heap, table, &e, retries)
                };
                list.push(match ok {
                    Some(idx) => {
                        attached += 1;
                        idx
                    }
                    None => {
                        let idx = NvIndex::build(&parts.heap, e.kind, table, e.column)?;
                        AttachParts::swap_index_desc(table, &e, idx.desc_offset())?;
                        rebuilt += 1;
                        idx
                    }
                });
            }
            indexes.push(list);
        }
        Ok(())
    })?;
    if rebuilt > 0 {
        report.rung = report.rung.max(1);
        report.structures_rebuilt += rebuilt;
        report.blocks_quarantined += rebuilt;
    }
    report.indexes_attached = attached;
    report.indexes_rebuilt = rebuilt;

    parts.into_backend(indexes)
}

/// Attach + verify one persistent index; `None` means "rebuild it".
fn attach_index(
    heap: &NvmHeap,
    table: &storage::nv::NvTable,
    e: &crate::backend_nv::IndexEntrySpec,
    retries: &mut u64,
) -> Option<NvIndex> {
    retry_poisoned(retries, || {
        let idx = NvIndex::open(heap, e.kind, e.desc)?;
        let check = idx.verify_against(table)?;
        Ok((idx, check))
    })
    .ok()
    .and_then(|(idx, check)| check.is_clean().then_some(idx))
}

/// Shared retry budget for transient failures: recovery's rung-1 poison
/// retries and [`retry_write`]'s capacity retries draw on the same bound,
/// so "how long the engine struggles before giving up" is one knob.
pub(crate) const MAX_TRANSIENT_RETRIES: u64 = 8;

/// Bounded retry for transiently poisoned NVM reads (recovery rung 1): the
/// fault model clears a transient poison after a bounded number of failing
/// reads, so a handful of retries repairs it in place. Permanent poison,
/// checksum mismatches, and every other error pass straight through.
fn retry_poisoned<T>(retries: &mut u64, mut f: impl FnMut() -> Result<T>) -> Result<T> {
    let mut attempt = 0;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient_poison(&e) && attempt < MAX_TRANSIENT_RETRIES => {
                attempt += 1;
                *retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Bounded retry-with-backoff for writes under capacity pressure — the
/// write-path twin of recovery's rung-1 poison retry (same
/// [`MAX_TRANSIENT_RETRIES`] budget). A retryable rejection (backpressure
/// or typed capacity exhaustion) triggers an exponential backoff charged
/// to the simulated clock, then an emergency [`Database::reclaim`] pass,
/// then the operation runs again. Non-retryable errors (conflicts,
/// read-only mode, corruption) pass straight through.
///
/// ```
/// use hyrise_nv::{retry_write, Database, DurabilityConfig};
/// use storage::{ColumnDef, DataType, Schema, Value};
///
/// let mut db = Database::create(DurabilityConfig::nvm_default()).unwrap();
/// let t = db
///     .create_table("t", Schema::new(vec![ColumnDef::new("k", DataType::Int)]))
///     .unwrap();
/// let mut tx = db.begin();
/// let row = retry_write(&mut db, |db| db.insert(&mut tx, t, &[Value::Int(7)])).unwrap();
/// db.commit(&mut tx).unwrap();
/// assert_eq!(row, 0);
/// ```
pub fn retry_write<T>(
    db: &mut Database,
    mut op: impl FnMut(&mut Database) -> Result<T>,
) -> Result<T> {
    let mut attempt = 0u64;
    loop {
        match op(db) {
            Err(e) if e.is_retryable() && attempt < MAX_TRANSIENT_RETRIES => {
                attempt += 1;
                if let Some(b) = db.backend.nv() {
                    b.region().clock().charge(1_000u64 << attempt.min(10));
                }
                db.reclaim()?;
            }
            other => return other,
        }
    }
}

/// True when the error is a transiently poisoned read that a bounded retry
/// can clear.
fn is_transient_poison(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::Nvm(nvm::NvmError::PoisonedRead {
            permanent: false,
            ..
        }) | EngineError::Storage(storage::StorageError::Nvm(nvm::NvmError::PoisonedRead {
            permanent: false,
            ..
        }))
    )
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("mode", &self.mode())
            .field("tables", &self.table_count())
            .field("last_committed", &self.mgr.last_committed())
            .finish()
    }
}
