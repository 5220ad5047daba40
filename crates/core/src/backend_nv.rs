//! The Hyrise-NV backend: persistent catalogue + NVM tables + persistent
//! hash indexes.
//!
//! Persistent catalogue layout (the heap's root object):
//!
//! ```text
//! 0:  last_cts u64                 — the durable commit-timestamp publish
//! 8:  ntables  u64                 — publish point for CREATE TABLE
//! 16: registry u64                 — txn-registry base pointer
//! 24: progress u64                 — recovery attempt counter (0 = clean)
//! 32: clean    u64                 — clean-shutdown marker
//! 40: per table (stride 24): name_ptr | table_root | idx_block
//! idx_block: count u64 | per index (stride 24): kind | column | unused
//! ```
//!
//! `kind` is [`IndexKind`] as `u64`: 0 = persistent hash, 1 = persistent
//! ordered skip list. The *descriptor* of a table's index `i` is not in the
//! catalogue but in aux word `i` of the table's pair block (see
//! `storage::nv`): the pointer swap that publishes a merge replaces main,
//! delta and every index descriptor at once, so no crash can pair a table
//! in its post-merge row-id space with an index built for the pre-merge
//! one. Both kinds are re-attached on restart in O(1) — no index is ever
//! rebuilt on this backend, matching the paper's "table *and index*
//! structures on NVM".

use std::sync::Arc;

use index::{IndexCheck, IndexKind, NvIndex, TableIndex};
use nvm::{NvmHeap, NvmRegion};
use storage::mvcc::TS_INF;
use storage::nv::{read_string, store_string, NvTable};
use storage::{MergeStats, RowId, Schema, TableStore, VTable, Value};
use txn::{CommitPublish, Transaction, TxnManager};

use crate::engine::{as_stores, Engine};
use crate::error::{EngineError, Result};
use crate::redo_log::RedoLog;
use crate::txn_registry::TxnRegistry;
use crate::{MAX_INDEXES_PER_TABLE, MAX_TABLES};

const CAT_LAST_CTS: u64 = 0;
const CAT_NTABLES: u64 = 8;
const CAT_REGISTRY: u64 = 16;
const CAT_PROGRESS: u64 = 24;
/// Clean-shutdown marker: non-zero only between a graceful shutdown's
/// final sync and the next open, which durably clears it before any other
/// mutation. A restart that finds it set may skip the mvcc undo pass — no
/// transaction can have been in flight.
const CAT_CLEAN: u64 = 32;
const CAT_ENTRIES: u64 = 40;
const CAT_ENTRY_STRIDE: u64 = 24;
const CAT_SIZE: u64 = CAT_ENTRIES + MAX_TABLES as u64 * CAT_ENTRY_STRIDE;

const IDX_COUNT: u64 = 0;
const IDX_ENTRIES: u64 = 8;
const IDX_ENTRY_STRIDE: u64 = 24;
const IDX_BLOCK_SIZE: u64 = IDX_ENTRIES + MAX_INDEXES_PER_TABLE as u64 * IDX_ENTRY_STRIDE;

/// The NVM durability backend.
pub struct NvBackend {
    pub(crate) heap: NvmHeap,
    catalog: u64,
    pub(crate) tables: Vec<NvTable>,
    pub(crate) names: Vec<String>,
    /// Per table, its persistent indexes in catalogue-entry order: entry
    /// `i` of a table's index block describes `indexes[t][i]`.
    pub(crate) indexes: Vec<Vec<NvIndex>>,
    pub(crate) registry: TxnRegistry,
    /// Shadow redo log (recovery rung 2); None on the plain NVM backend.
    pub(crate) shadow: Option<RedoLog>,
}

/// Catalogue decode with per-table failure isolation — the raw material of
/// the recovery ladder. Catalogue-level damage (unreadable root, implausible
/// counts, corrupt name strings, registry) stays a hard error; a table whose
/// tree fails to open is recorded per slot so rung 2 can rebuild exactly the
/// broken tables.
pub(crate) struct AttachParts {
    pub heap: NvmHeap,
    pub catalog: u64,
    pub names: Vec<String>,
    pub roots: Vec<u64>,
    pub idx_blocks: Vec<u64>,
    pub tables: Vec<std::result::Result<NvTable, EngineError>>,
    pub registry: TxnRegistry,
    pub last_cts: u64,
}

/// One persistent index registration: kind and column from the catalogue,
/// the descriptor from the table's pair block.
pub(crate) struct IndexEntrySpec {
    pub kind: IndexKind,
    pub column: usize,
    /// Descriptor offset; 0 when the table itself could not be opened (its
    /// indexes are then rebuilt with it).
    pub desc: u64,
    /// Position in the table's index list = aux slot of the descriptor.
    pub slot: usize,
}

const _: () = assert!(MAX_INDEXES_PER_TABLE <= storage::nv::PAIR_AUX_SLOTS);

impl AttachParts {
    /// Decode the index registrations of table `t` (descriptors are not
    /// opened — the ladder decides per entry whether to attach or rebuild).
    pub fn index_entries(&self, t: usize) -> Result<Vec<IndexEntrySpec>> {
        let r = self.heap.region();
        let idx_block = *self
            .idx_blocks
            .get(t)
            .ok_or_else(|| EngineError::Catalog(format!("table slot {t} out of range")))?;
        // pmlint: observe(index-count)
        let icount: u64 = r.load_u64_acquire(idx_block + IDX_COUNT)?;
        if icount as usize > MAX_INDEXES_PER_TABLE {
            return Err(EngineError::Catalog("implausible index count".into()));
        }
        let table = self.tables.get(t).and_then(|slot| slot.as_ref().ok());
        let mut out = Vec::with_capacity(icount as usize);
        for slot in 0..icount as usize {
            let ib = idx_block + IDX_ENTRIES + slot as u64 * IDX_ENTRY_STRIDE;
            out.push(IndexEntrySpec {
                kind: IndexKind::from_tag(r.read_pod(ib)?)
                    .ok_or_else(|| EngineError::Catalog("unknown index kind".into()))?,
                column: r.read_pod::<u64>(ib + 8)? as usize,
                // pmlint: observe(index-desc)
                desc: table.map_or(Ok(0), |tab| tab.aux(slot))?,
                slot,
            });
        }
        Ok(out)
    }

    /// Durably swap table `t`'s root to a rebuilt tree. The old tree stays
    /// allocated but unreachable — quarantined rather than freed, since its
    /// block metadata cannot be trusted after a media fault.
    pub fn swap_table_root(&mut self, t: usize, new_root: u64) -> Result<()> {
        let slot = self
            .roots
            .get_mut(t)
            .ok_or_else(|| EngineError::Catalog(format!("table slot {t} out of range")))?;
        let base = self.catalog + CAT_ENTRIES + t as u64 * CAT_ENTRY_STRIDE;
        let r = self.heap.region();
        // pmlint: publish(catalog-table-root)
        r.store_u64_release(base + 8, new_root)?;
        r.persist(base + 8, 8)?;
        *slot = new_root;
        Ok(())
    }

    /// Durably swap an index descriptor of `table` to a rebuilt index: one
    /// drain for the staged structure, then the aux-word publish. The old
    /// structure is quarantined, not destroyed.
    pub fn swap_index_desc(table: &NvTable, e: &IndexEntrySpec, new_desc: u64) -> Result<()> {
        let r = table.heap().region();
        r.fence();
        // pmlint: publish(index-desc)
        table.stage_aux(e.slot, new_desc)?;
        r.fence();
        Ok(())
    }

    /// Assemble the backend once every table slot is healthy and the index
    /// sets are attached.
    pub fn into_backend(self, indexes: Vec<Vec<NvIndex>>) -> Result<NvBackend> {
        let mut tables = Vec::with_capacity(self.tables.len());
        for t in self.tables {
            tables.push(t?);
        }
        Ok(NvBackend {
            heap: self.heap,
            catalog: self.catalog,
            tables,
            names: self.names,
            indexes,
            registry: self.registry,
            shadow: None,
        })
    }
}

impl NvBackend {
    /// Format a caller-built region (simulated or file-backed) and create
    /// an empty catalogue on it.
    pub fn create_on_region(region: Arc<NvmRegion>) -> Result<NvBackend> {
        let heap = NvmHeap::format(region)?;
        let catalog = heap.alloc(CAT_SIZE)?;
        let registry = TxnRegistry::create(&heap)?;
        let r = heap.region();
        r.write_pod(catalog + CAT_LAST_CTS, &0u64)?;
        r.write_pod(catalog + CAT_NTABLES, &0u64)?;
        r.write_pod(catalog + CAT_REGISTRY, &registry.base_offset())?;
        r.write_pod(catalog + CAT_PROGRESS, &0u64)?;
        r.write_pod(catalog + CAT_CLEAN, &0u64)?;
        r.persist(catalog, CAT_ENTRIES)?;
        heap.set_root(catalog)?;
        Ok(NvBackend {
            heap,
            catalog,
            tables: Vec::new(),
            names: Vec::new(),
            indexes: Vec::new(),
            registry,
            shadow: None,
        })
    }

    /// Re-attach catalogue, tables, and indexes over an already-recovered
    /// heap (the restart path times this separately from the allocator
    /// scan). The first per-table failure is a hard error — this is the
    /// fast rung-0 path; the ladder uses [`NvBackend::attach_parts`].
    pub fn attach(heap: NvmHeap) -> Result<NvBackend> {
        let parts = Self::attach_parts(heap)?;
        let mut indexes = Vec::with_capacity(parts.tables.len());
        for t in 0..parts.tables.len() {
            let mut list = Vec::new();
            for e in parts.index_entries(t)? {
                list.push(NvIndex::open(&parts.heap, e.kind, e.desc)?);
            }
            indexes.push(list);
        }
        parts.into_backend(indexes)
    }

    /// Decode the catalogue with per-table failure isolation (see
    /// [`AttachParts`]). Indexes are left unopened.
    pub(crate) fn attach_parts(heap: NvmHeap) -> Result<AttachParts> {
        let catalog = heap.root()?;
        if catalog == 0 {
            return Err(EngineError::Catalog("no catalogue root in region".into()));
        }
        let r = heap.region().clone();
        // pmlint: observe(catalog-cts)
        let last_cts: u64 = r.load_u64_acquire(catalog + CAT_LAST_CTS)?;
        // pmlint: observe(catalog-ntables)
        let ntables: u64 = r.load_u64_acquire(catalog + CAT_NTABLES)?;
        if ntables as usize > MAX_TABLES {
            return Err(EngineError::Catalog("implausible table count".into()));
        }
        let mut tables = Vec::with_capacity(ntables as usize);
        let mut names = Vec::with_capacity(ntables as usize);
        let mut roots = Vec::with_capacity(ntables as usize);
        let mut idx_blocks = Vec::with_capacity(ntables as usize);
        for t in 0..ntables {
            let base = catalog + CAT_ENTRIES + t * CAT_ENTRY_STRIDE;
            let name_ptr: u64 = r.read_pod(base)?;
            let table_root: u64 = r.read_pod(base + 8)?;
            let idx_block: u64 = r.read_pod(base + 16)?;
            names.push(read_string(&heap, name_ptr).map_err(EngineError::Storage)?);
            roots.push(table_root);
            idx_blocks.push(idx_block);
            tables.push(NvTable::open(&heap, table_root).map_err(EngineError::Storage));
        }
        let registry_ptr: u64 = r.read_pod(catalog + CAT_REGISTRY)?;
        let registry = TxnRegistry::open(&heap, registry_ptr)?;
        Ok(AttachParts {
            heap,
            catalog,
            names,
            roots,
            idx_blocks,
            tables,
            registry,
            last_cts,
        })
    }

    /// The shared region (crash injection, stats, clock).
    pub fn region(&self) -> &Arc<NvmRegion> {
        self.heap.region()
    }

    /// The persistent heap.
    pub fn heap(&self) -> &NvmHeap {
        &self.heap
    }

    /// `(offset, len)` of the catalogue's commit-timestamp word — the
    /// publish word of the commit protocols (label `catalog-cts`).
    pub fn cts_extent(&self) -> (u64, u64) {
        (self.catalog + CAT_LAST_CTS, 8)
    }

    /// `(offset, len)` of the catalogue's table count — the publish word
    /// of the `ddl-create-table` protocol (label `catalog-ntables`).
    pub fn ntables_extent(&self) -> (u64, u64) {
        (self.catalog + CAT_NTABLES, 8)
    }

    /// `(offset, len)` of catalogue entry `t` (name ptr, table root, index
    /// block) — label `catalog-entry` of the `ddl-create-table` protocol.
    pub fn entry_extent(&self, t: usize) -> (u64, u64) {
        (
            self.catalog + CAT_ENTRIES + t as u64 * CAT_ENTRY_STRIDE,
            CAT_ENTRY_STRIDE,
        )
    }

    /// `(offset, len)` of table `t`'s delta row counter — the publish word
    /// of the `delta-append` protocol (label `delta-rows`).
    pub fn table_rows_publish_extent(&self, t: usize) -> Option<(u64, u64)> {
        self.tables.get(t).map(|tab| tab.rows_publish_extent())
    }

    /// `(offset, len)` of table `t`'s root pair pointer — the publish word
    /// of the `merge-publish` protocol (label `table-pair`).
    pub fn table_pair_publish_extent(&self, t: usize) -> Option<(u64, u64)> {
        self.tables.get(t).map(|tab| tab.pair_publish_extent())
    }

    /// `(offset, len)` of table `table`'s persistent index count — the
    /// publish word of the `index-register` protocol (label `index-count`).
    pub fn idx_count_extent(&self, table: usize) -> Result<(u64, u64)> {
        Ok((self.idx_block(table)? + IDX_COUNT, 8))
    }

    /// `(offset, len)` of index entry `i` of table `table` — label
    /// `index-entry` of the `index-register` protocol.
    pub fn idx_entry_extent(&self, table: usize, i: u64) -> Result<(u64, u64)> {
        Ok((
            self.idx_block(table)? + IDX_ENTRIES + i * IDX_ENTRY_STRIDE,
            IDX_ENTRY_STRIDE,
        ))
    }

    /// `(offset, len)` of the descriptor word of index `i` of table `table`
    /// (an aux word of the table's pair block) — the other half of label
    /// `index-entry`, and the publish word `index-desc` of a rebuild.
    pub fn idx_desc_extent(&self, table: usize, i: usize) -> Option<(u64, u64)> {
        self.tables.get(table).map(|tab| tab.aux_extent(i))
    }

    /// `(offset, len)` of the catalogue's recovery-progress word — the
    /// publish word of the `recovery-progress` protocol.
    pub fn recovery_progress_extent(&self) -> (u64, u64) {
        (self.catalog + CAT_PROGRESS, 8)
    }

    /// `(offset, len)` of registry slot `slot`'s transaction-id word —
    /// the publish word of the `recovery-undo-release` protocol (label
    /// `registry-slot-clear`).
    pub fn registry_slot_tid_extent(&self, slot: usize) -> (u64, u64) {
        self.registry.slot_tid_extent(slot)
    }

    /// Durably set the clean-shutdown marker. Called by
    /// [`Database::shutdown`](crate::Database::shutdown) after the last
    /// transaction; the next open clears it and skips the undo pass.
    pub(crate) fn mark_clean_shutdown(&self) -> Result<()> {
        let r = self.heap.region();
        r.write_pod(self.catalog + CAT_CLEAN, &1u64)?;
        r.persist(self.catalog + CAT_CLEAN, 8)?;
        Ok(())
    }

    /// Zero the recovery-progress word: recovery completed. The single
    /// publish-last store closing the attempt opened by
    /// [`begin_recovery_attempt`].
    pub(crate) fn finish_recovery_attempt(&self) -> Result<()> {
        let r = self.heap.region();
        // pmlint: publish(recovery-progress)
        r.store_u64_release(self.catalog + CAT_PROGRESS, 0)?;
        r.persist(self.catalog + CAT_PROGRESS, 8)?;
        Ok(())
    }

    /// Durably published last commit timestamp.
    pub fn last_cts(&self) -> Result<u64> {
        // pmlint: observe(catalog-cts)
        Ok(self
            .heap
            .region()
            .load_u64_acquire(self.catalog + CAT_LAST_CTS)?)
    }

    fn idx_block(&self, table: usize) -> Result<u64> {
        let base = self.catalog + CAT_ENTRIES + table as u64 * CAT_ENTRY_STRIDE;
        Ok(self.heap.region().read_pod(base + 16)?)
    }

    /// Publish everything staged on any table or index, in phases under
    /// shared fences: drain (staged rows, entries, registry records) →
    /// length words → fence → row counters → fence → index entry points,
    /// written back for the caller's next fence (the commit's own drain).
    /// Each phase may only become durable after what it covers: a row
    /// counter never covers a cell whose dictionary entry is unpublished,
    /// an index never names a row the counter does not cover.
    fn publish_staged(&mut self) -> Result<()> {
        let staged = |list: &Vec<NvIndex>| list.iter().any(|i| i.has_staged());
        if !self.tables.iter().any(|t| t.has_staged()) && !self.indexes.iter().any(staged) {
            return Ok(());
        }
        let r = self.heap.region().clone();
        r.fence();
        let mut lens = false;
        for t in &mut self.tables {
            lens |= t.publish_lens()?;
        }
        for idx in self.indexes.iter_mut().flatten() {
            lens |= idx.publish_lens()?;
        }
        if lens {
            r.fence();
        }
        let mut rows = false;
        for t in &mut self.tables {
            rows |= t.publish_rows()?;
        }
        if rows {
            r.fence();
        }
        for idx in self.indexes.iter_mut().flatten() {
            idx.publish()?;
        }
        Ok(())
    }

    /// After the fence that made the published index entry points durable:
    /// the indexes' best-effort acceleration stores.
    fn publish_upper(&mut self) -> Result<()> {
        for idx in self.indexes.iter_mut().flatten() {
            idx.publish_upper()?;
        }
        Ok(())
    }

    /// Index↔table agreement over every persistent index, folded into one
    /// check, plus the number of indexes walked.
    pub(crate) fn verify_indexes(&self) -> Result<(IndexCheck, u64)> {
        let (mut check, mut n) = (IndexCheck::default(), 0);
        for (table, list) in self.tables.iter().zip(&self.indexes) {
            for idx in list {
                check.absorb(&idx.verify_against(table)?);
                n += 1;
            }
        }
        Ok((check, n))
    }
}

impl Engine for NvBackend {
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
        &mut self.shadow
    }

    fn log(&self) -> Option<&RedoLog> {
        self.shadow.as_ref()
    }

    /// The row id an insert will get is deterministic (next physical
    /// slot), so recovery can be told about it before the row materializes.
    fn note_write(&mut self, tid: u64, t: usize, row: RowId, invalidate: bool) -> Result<()> {
        if invalidate {
            self.registry.record_invalidate(tid, t, row)
        } else {
            self.registry.record_insert(tid, t, row)
        }
    }

    /// The abort epilogue. The undo published (and fenced) the rolled-back
    /// rows; they stay physically, so their staged index entries are
    /// published too before the registry forgets the transaction.
    fn release(&mut self, tid: u64) -> Result<()> {
        let staged = self.indexes.iter().flatten().any(|i| i.has_staged());
        if staged {
            self.publish_staged()?;
            self.heap.region().fence();
        }
        self.registry.release(tid)?;
        self.publish_upper()
    }

    /// Run the commit protocol: publish what the transaction (or anyone
    /// else) staged, stamp the transaction's writes, sync the shadow log
    /// (when configured), drain once, and only then durably publish the
    /// commit timestamp to NVM — the shadow sync before it keeps the log a
    /// superset of the published state. Returns after that publish's fence;
    /// the index acceleration stores and the registry slot clear that
    /// follow are written back and ride the next fence.
    fn commit(&mut self, mgr: &mut TxnManager, tx: &mut Transaction) -> Result<u64> {
        if !tx.is_read_only() {
            self.publish_staged()?;
        }
        let mut publisher = ShadowedNvPublisher {
            heap: self.heap.clone(),
            catalog: self.catalog,
            shadow: self.shadow.as_mut(),
        };
        let cts = mgr.commit(tx, &mut as_stores(&mut self.tables), &mut publisher)?;
        self.registry.release(tx.tid)?;
        self.publish_upper()?;
        Ok(cts)
    }

    /// Create a table and durably register it.
    fn create_table(&mut self, name: &str, schema: Schema) -> Result<usize> {
        if self.tables.len() >= MAX_TABLES {
            return Err(EngineError::Catalog(format!(
                "table limit {MAX_TABLES} reached"
            )));
        }
        let table = NvTable::create(&self.heap, schema)?;
        let name_ptr = store_string(&self.heap, name).map_err(EngineError::Storage)?;
        let idx_block = self.heap.alloc(IDX_BLOCK_SIZE)?;
        let r = self.heap.region();
        r.write_pod(idx_block + IDX_COUNT, &0u64)?;
        r.persist(idx_block + IDX_COUNT, 8)?;

        let t = self.tables.len() as u64;
        let base = self.catalog + CAT_ENTRIES + t * CAT_ENTRY_STRIDE;
        r.write_pod(base, &name_ptr)?;
        r.write_pod(base + 8, &table.root_offset())?;
        r.write_pod(base + 16, &idx_block)?;
        r.persist(base, CAT_ENTRY_STRIDE)?;
        // Publish.
        // pmlint: publish(catalog-ntables)
        r.store_u64_release(self.catalog + CAT_NTABLES, t + 1)?;
        r.persist(self.catalog + CAT_NTABLES, 8)?;

        self.tables.push(table);
        self.names.push(name.to_owned());
        self.indexes.push(Vec::new());
        Ok(t as usize)
    }

    /// Create and durably register a persistent index over `column`,
    /// populated from the table's current rows.
    fn create_index(&mut self, table: usize, column: usize, kind: IndexKind) -> Result<()> {
        if self.indexes[table].len() >= MAX_INDEXES_PER_TABLE {
            return Err(EngineError::Catalog("index limit reached".into()));
        }
        // Rows an open transaction has staged are indexed too: let the row
        // counter cover them first, so the registration below never
        // outlives a row it names. The fence before the count drains the
        // entry points this leaves written back.
        self.publish_staged()?;
        let idx = NvIndex::build(&self.heap, kind, &self.tables[table], column)?;
        let idx_block = self.idx_block(table)?;
        let r = self.heap.region();
        // pmlint: observe(index-count)
        let count: u64 = r.load_u64_acquire(idx_block + IDX_COUNT)?;
        // The registration — catalogue entry plus the descriptor word in
        // the table's pair block, which nothing reads beyond the count — is
        // staged like the index itself; one fence drains all three.
        let ib = idx_block + IDX_ENTRIES + count * IDX_ENTRY_STRIDE;
        r.write_bytes(ib, nvm::slice_bytes(&[kind as u64, column as u64, 0]))?;
        r.flush(ib, IDX_ENTRY_STRIDE)?;
        self.tables[table].stage_aux(count as usize, idx.desc_offset())?;
        r.fence();
        // pmlint: publish(index-count)
        r.store_u64_release(idx_block + IDX_COUNT, count + 1)?;
        r.persist(idx_block + IDX_COUNT, 8)?;
        self.indexes[table].push(idx);
        self.publish_upper()
    }

    fn index_insert(&mut self, t: usize, values: &[Value], row: RowId) -> Result<()> {
        Ok(index::insert_all(&mut self.indexes[t], values, row)?)
    }

    /// Re-baseline the shadow checkpoint from a deep copy of every table
    /// (only valid at quiesced points: DDL, the end of recovery).
    fn checkpoint(&mut self, last_cts: u64) -> Result<u64> {
        let Some(shadow) = &mut self.shadow else {
            return Ok(0);
        };
        let mut exported = Vec::with_capacity(self.tables.len());
        for t in &self.tables {
            let mut copy = VTable::new(t.schema().clone());
            copy_versions(t, &mut copy)?;
            exported.push(copy);
        }
        shadow.checkpoint(&self.names, &exported.iter().collect::<Vec<_>>(), last_cts)
    }

    /// Merge a table and rebuild its indexes (row ids shift), in the
    /// exhaustion-safe order: plan the merge read-only, build every
    /// replacement index against the planned post-merge row space, and
    /// only then execute the merge, whose single pair publish carries the
    /// new index descriptors with it. Every fallible allocation happens
    /// before anything is published, so a capacity failure at any point
    /// unwinds to a clean abort — old table and old indexes fully intact.
    /// (A crash or a failed free after the publish leaks whatever of the old
    /// tree and the old indexes was not yet freed; the merge still stands.)
    fn merge_table(&mut self, table: usize, snapshot: u64) -> Result<MergeStats> {
        // Phase 1: plan (read-only) and build replacement indexes against
        // the plan's key columns. Post-merge row ids are positions in them.
        let plan = self.tables[table].merge_plan(snapshot)?;
        let mut built: Vec<NvIndex> = Vec::with_capacity(self.indexes[table].len());
        let destroy = |built: Vec<NvIndex>| {
            for idx in built {
                let _ = idx.destroy();
            }
        };
        for old in &self.indexes[table] {
            let (kind, column) = old.key();
            let new = plan
                .column(column)
                .and_then(|col| NvIndex::build_from_column(&self.heap, kind, column, col));
            match new {
                Ok(idx) => built.push(idx),
                Err(e) => {
                    destroy(built);
                    return Err(e.into());
                }
            }
        }

        // Phase 2: log and execute. The merge record is synced *before*
        // execution, so a rung-2 replay reproduces the post-merge row-id
        // space that later records use.
        if let Some(sw) = &mut self.shadow {
            if let Err(e) = sw.log_merge(table, snapshot) {
                destroy(built);
                return Err(e);
            }
        }
        // Catalogue entry `i` describes list slot `i`, whose descriptor is
        // aux word `i` of the pair block: the merge's drain covers the
        // staged replacement indexes, its publish swaps them in.
        let descs: Vec<u64> = built.iter().map(|idx| idx.desc_offset()).collect();
        let stats = match self.tables[table].merge_from_plan(plan, &descs) {
            Ok(stats) => stats,
            Err(e) => {
                destroy(built);
                // The log now carries a merge record for a merge that never
                // executed; re-baseline the checkpoint so bounded replay
                // starts past it (best-effort — a wedged log already forces
                // read-only until reclamation recreates it).
                let _ = self.checkpoint(snapshot);
                return Err(e.into());
            }
        };

        // Phase 3: the old indexes are unreachable — frees only, and
        // best-effort: the merge has happened, and a failed free leaks what
        // it did not reach, as a crash here would.
        for old in std::mem::replace(&mut self.indexes[table], built) {
            let _ = old.destroy();
        }
        Ok(stats)
    }
}

/// Copy every physical version of quiesced `src` into empty `dst`,
/// preserving row ids, begin/end timestamps and tombstones — so registry
/// entries, log records and indexes that name a row stay aligned.
pub(crate) fn copy_versions(src: &dyn TableStore, dst: &mut dyn TableStore) -> Result<()> {
    for row in 0..src.row_count() {
        let got = dst.insert_version(&src.row_values(row)?, src.begin_ts(row)?)?;
        if got != row {
            return Err(EngineError::Catalog(
                "row id drift during table copy".into(),
            ));
        }
        let end = src.end_ts(row)?;
        if end != TS_INF {
            dst.commit_invalidate(row, end)?;
        }
    }
    Ok(())
}

/// Durably bump the catalogue's recovery-progress word and return the new
/// attempt number (1 = first attempt since the last clean shutdown or
/// completed recovery; >1 = this recovery is itself re-entrant, an earlier
/// attempt was cut short).
///
/// This is the one deliberately *non-idempotent* recovery-time store: a
/// monotone counter, bumped before recovery mutates anything else and
/// zeroed by [`NvBackend::finish_recovery_attempt`] only after the ladder,
/// undo pass, and shadow re-baseline have all completed. Every other
/// recovery mutation is idempotent by re-derivation, so replaying a
/// partial attempt is safe — the counter exists to make interrupted
/// attempts *observable* (and bounded) rather than to gate replay.
///
/// Runs before the backend is attached, straight off the heap root; if no
/// catalogue root is published yet the attach will fail anyway, so the
/// attempt is reported as 0 and nothing is written.
/// Read the clean-shutdown marker and, if set, durably clear it before
/// returning — the marker must never survive into the run it admits, or a
/// later hard crash would masquerade as clean. Returns whether the previous
/// process shut down gracefully. A region with no catalogue root reports
/// `false`.
pub(crate) fn take_clean_shutdown(heap: &NvmHeap) -> Result<bool> {
    let catalog = heap.root()?;
    if catalog == 0 {
        return Ok(false);
    }
    let r = heap.region();
    let clean: u64 = r.read_pod(catalog + CAT_CLEAN)?;
    if clean != 0 {
        r.write_pod(catalog + CAT_CLEAN, &0u64)?;
        r.persist(catalog + CAT_CLEAN, 8)?;
    }
    Ok(clean != 0)
}

pub(crate) fn begin_recovery_attempt(heap: &NvmHeap) -> Result<u64> {
    let catalog = heap.root()?;
    if catalog == 0 {
        return Ok(0);
    }
    let r = heap.region();
    // pmlint: observe(recovery-progress)
    let prior: u64 = r.load_u64_acquire(catalog + CAT_PROGRESS)?;
    let attempt = prior.saturating_add(1);
    // pmlint: publish(recovery-progress)
    r.store_u64_release(catalog + CAT_PROGRESS, attempt)?;
    r.persist(catalog + CAT_PROGRESS, 8)?;
    Ok(attempt)
}

/// Commit publish of the NVM engine: shadow-log sync first (when
/// configured), one drain for every stamp of the transaction (and the index
/// entry points its commit published), then the one-persist NVM publish.
/// The sync-before-publish order is the rung-2 invariant — a commit the NVM
/// image claims must be in the log.
struct ShadowedNvPublisher<'a> {
    heap: NvmHeap,
    catalog: u64,
    shadow: Option<&'a mut RedoLog>,
}

impl CommitPublish for ShadowedNvPublisher<'_> {
    fn publish(&mut self, cts: u64, txn: &txn::Transaction) -> txn::Result<()> {
        if let Some(sw) = self.shadow.as_deref_mut() {
            sw.publish(cts, txn)?;
        }
        let r = self.heap.region();
        if !txn.is_read_only() {
            r.fence();
        }
        // pmlint: publish(catalog-cts)
        r.store_u64_release(self.catalog + CAT_LAST_CTS, cts)
            .map_err(|e| txn::TxnError::Publish(e.to_string()))?;
        r.persist(self.catalog + CAT_LAST_CTS, 8)
            .map_err(|e| txn::TxnError::Publish(e.to_string()))?;
        Ok(())
    }
}
