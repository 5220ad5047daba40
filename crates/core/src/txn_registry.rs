//! Persistent in-flight transaction registry.
//!
//! The naive post-crash undo pass scans *every* MVCC timestamp word to find
//! effects of unpublished transactions — work linear in table size, which
//! would undermine the paper's size-independent restart. Hyrise-NV instead
//! keeps per-transaction write sets on NVM; recovery then repairs only the
//! rows touched by transactions in flight at the crash.
//!
//! Layout:
//!
//! ```text
//! Registry block: SLOTS × (tid u64 | nwrites u64 | writes_ptr u64)
//! Writes block:   capacity-managed array of 16-byte entries:
//!                 word0 = table << 8 | kind   (kind 0 = insert, 1 = invalidate)
//!                 word1 = row
//! ```
//!
//! Protocol (write-ahead with respect to the table operation). The one
//! invariant: **a record is durable before any in-place marker of its row
//! can be.**
//!
//! 1. before *each* table write, stage the (table, row, kind) entry, the
//!    bumped `nwrites` and — on a transaction's first write — its tid: plain
//!    stores plus write-backs under one fence at most. The record of an
//!    *invalidation* is fenced on the spot, since the end marker that
//!    follows lands on a row recovery can already reach. The record of an
//!    *insert* is only written back: the row it names cannot be reached
//!    before the commit's row-counter publish, which follows the commit's
//!    drain — and that drain covers the record. Either way the entry may
//!    reference a row the crash prevented from materializing, which
//!    recovery skips;
//! 2. after the commit publish (or after abort undo, whose stores are
//!    fenced), clear the slot with a write-back and no fence: it is durable
//!    with whatever fence comes next.
//!
//! Recovery walks the (bounded) slot array; for each occupied slot it
//! repairs the referenced rows, idempotently: pending markers and
//! timestamps beyond the published CTS roll back, everything else is left
//! alone. That makes every partial outcome of the steps above safe — a tid
//! durable over the entries or the count of the slot's previous owner, a
//! slot whose clear was lost after a successful commit: the walk then
//! visits rows that need no repair and changes nothing.

use std::collections::HashMap;

use nvm::NvmHeap;
use storage::nv::NvTable;
use storage::TableStore;

use crate::error::{EngineError, Result};

/// Number of concurrently writing transactions the registry supports.
pub const REGISTRY_SLOTS: u64 = 64;

const SLOT_SIZE: u64 = 24;
const S_TID: u64 = 0;
const S_NWRITES: u64 = 8;
const S_WRITES: u64 = 16;

const ENTRY_SIZE: u64 = 16;
const INITIAL_ENTRIES: u64 = 16;

const KIND_INSERT: u64 = 0;
const KIND_INVALIDATE: u64 = 1;

/// The registry handle (volatile part: tid → slot map and cached
/// capacities).
pub struct TxnRegistry {
    heap: NvmHeap,
    base: u64,
    /// tid → (slot index, entries recorded) for active transactions.
    active: HashMap<u64, (u64, u64)>,
    /// Cached per-slot writes-block capacity (entries).
    caps: Vec<u64>,
}

/// What the registry's recovery pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryRecovery {
    /// Occupied slots found (transactions in flight at the crash).
    pub inflight_txns: u64,
    /// Write entries walked.
    pub entries_walked: u64,
    /// MVCC words actually repaired.
    pub repaired: u64,
}

impl TxnRegistry {
    /// Allocate and zero a fresh registry; returns the handle. The block
    /// offset is stored by the caller (catalogue).
    pub fn create(heap: &NvmHeap) -> Result<TxnRegistry> {
        let base = heap.alloc(REGISTRY_SLOTS * SLOT_SIZE)?;
        let region = heap.region();
        for s in 0..REGISTRY_SLOTS {
            region.write_pod(base + s * SLOT_SIZE + S_TID, &0u64)?;
            region.write_pod(base + s * SLOT_SIZE + S_NWRITES, &0u64)?;
            region.write_pod(base + s * SLOT_SIZE + S_WRITES, &0u64)?;
        }
        region.persist(base, REGISTRY_SLOTS * SLOT_SIZE)?;
        Ok(TxnRegistry {
            heap: heap.clone(),
            base,
            active: HashMap::new(),
            caps: vec![0; REGISTRY_SLOTS as usize],
        })
    }

    /// Re-attach after restart (after [`TxnRegistry::recover`] has run the
    /// slots are all clear).
    pub fn open(heap: &NvmHeap, base: u64) -> Result<TxnRegistry> {
        let region = heap.region();
        let mut caps = vec![0u64; REGISTRY_SLOTS as usize];
        for (s, cap) in caps.iter_mut().enumerate() {
            let writes: u64 = region.read_pod(base + s as u64 * SLOT_SIZE + S_WRITES)?;
            *cap = if writes == 0 {
                0
            } else {
                heap.payload_capacity(writes)? / ENTRY_SIZE
            };
        }
        Ok(TxnRegistry {
            heap: heap.clone(),
            base,
            active: HashMap::new(),
            caps,
        })
    }

    /// True while a writing transaction holds a slot, i.e. has neither
    /// committed nor aborted.
    pub fn has_active(&self) -> bool {
        !self.active.is_empty()
    }

    /// Block offset (for the catalogue).
    pub fn base_offset(&self) -> u64 {
        self.base
    }

    fn slot_off(&self, slot: u64) -> u64 {
        self.base + slot * SLOT_SIZE
    }

    /// The slot of `tid` and the entries it holds, claiming a free slot —
    /// volatile only; the tid is stored with the first entry — on the
    /// transaction's first write.
    fn claim(&mut self, tid: u64) -> Result<(u64, u64)> {
        if let Some(&claimed) = self.active.get(&tid) {
            return Ok(claimed);
        }
        let used: std::collections::HashSet<u64> = self.active.values().map(|c| c.0).collect();
        let slot = (0..REGISTRY_SLOTS)
            .find(|s| !used.contains(s))
            .ok_or_else(|| {
                EngineError::Catalog(format!(
                    "more than {REGISTRY_SLOTS} concurrently writing transactions"
                ))
            })?;
        // Writes block allocated lazily, then kept across slot reuses.
        if self.caps[slot as usize] == 0 {
            let writes = self.heap.reserve(INITIAL_ENTRIES * ENTRY_SIZE)?;
            self.heap
                .activate(writes, Some((self.slot_off(slot) + S_WRITES, writes)), None)?;
            self.caps[slot as usize] = INITIAL_ENTRIES;
        }
        self.active.insert(tid, (slot, 0));
        Ok((slot, 0))
    }

    /// Stage one record: entry, count and (first entry) tid, written back.
    fn append(&mut self, tid: u64, table: usize, row: u64, kind: u64) -> Result<()> {
        let (slot, n) = self.claim(tid)?;
        let region = self.heap.region().clone();
        let off = self.slot_off(slot);
        let cap = self.caps[slot as usize];
        if n >= cap {
            // Grow the writes block (crash-safe pointer swap; the copy is
            // durable before the activation record can be).
            let old: u64 = region.read_pod(off + S_WRITES)?;
            let new_cap = cap * 2;
            let new = self.heap.reserve(new_cap * ENTRY_SIZE)?;
            let bytes = region.with_slice(old, n * ENTRY_SIZE, |b| b.to_vec())?;
            region.write_bytes(new, &bytes)?;
            region.persist(new, n * ENTRY_SIZE)?;
            self.heap
                .activate(new, Some((off + S_WRITES, new)), Some(old))?;
            self.caps[slot as usize] = new_cap;
        }
        let writes: u64 = region.read_pod(off + S_WRITES)?;
        let e = writes + n * ENTRY_SIZE;
        region.write_bytes(e, nvm::slice_bytes(&[(table as u64) << 8 | kind, row]))?;
        region.flush(e, ENTRY_SIZE)?;
        region.write_pod(off + S_NWRITES, &(n + 1))?;
        if n == 0 {
            region.write_pod(off + S_TID, &tid)?;
        }
        region.flush(off, SLOT_SIZE)?;
        self.active.insert(tid, (slot, n + 1));
        Ok(())
    }

    /// Record an upcoming insert of `row` (call *before* the table write).
    /// Written back, not fenced: the commit's drain precedes the publish
    /// that lets recovery reach the row.
    // pmlint: caller-flushes
    pub fn record_insert(&mut self, tid: u64, table: usize, row: u64) -> Result<()> {
        self.append(tid, table, row, KIND_INSERT)
    }

    /// Record an upcoming invalidation of `row`, durably: the marker that
    /// follows lands on a row recovery can already reach.
    pub fn record_invalidate(&mut self, tid: u64, table: usize, row: u64) -> Result<()> {
        self.append(tid, table, row, KIND_INVALIDATE)?;
        self.heap.region().fence();
        Ok(())
    }

    /// Release a transaction's slot (after its commit publish, or after the
    /// fenced stores of its abort undo): cleared and written back, durable
    /// with the next fence — recovery tolerates finding it occupied. No-op
    /// for read-only transactions that never claimed one.
    // pmlint: caller-flushes
    pub fn release(&mut self, tid: u64) -> Result<()> {
        if let Some((slot, _)) = self.active.remove(&tid) {
            let region = self.heap.region();
            let off = self.slot_off(slot);
            // pmlint: publish(registry-slot-clear)
            region.store_u64_release(off + S_TID, 0)?;
            region.flush(off + S_TID, 8)?;
        }
        Ok(())
    }

    /// Post-crash repair: for every occupied slot, repair exactly the
    /// referenced rows against the published `last_cts`, then clear the
    /// slot. Idempotent.
    pub fn recover(&mut self, tables: &mut [NvTable], last_cts: u64) -> Result<RegistryRecovery> {
        let region = self.heap.region().clone();
        let mut report = RegistryRecovery::default();
        for s in 0..REGISTRY_SLOTS {
            let off = self.slot_off(s);
            // pmlint: observe(registry-slot-clear)
            let tid: u64 = region.load_u64_acquire(off + S_TID)?;
            if tid == 0 {
                continue;
            }
            report.inflight_txns += 1;
            let n: u64 = region.read_pod(off + S_NWRITES)?;
            let writes: u64 = region.read_pod(off + S_WRITES)?;
            for i in 0..n {
                let e = writes + i * ENTRY_SIZE;
                let word0: u64 = region.read_pod(e)?;
                let row: u64 = region.read_pod(e + 8)?;
                let table = (word0 >> 8) as usize;
                report.entries_walked += 1;
                let Some(t) = tables.get_mut(table) else {
                    continue; // entry from a table the crash never published
                };
                if row >= t.row_count() {
                    continue; // row never materialized
                }
                report.repaired += t.repair_row(row, last_cts)?;
            }
            // Release the slot only after the row repairs above are
            // durable — publish-last, per the `recovery-undo-release`
            // protocol. (`repair_row` persists each repaired word; a
            // crash landing between a repair and this clear replays the
            // slot, and the repairs are idempotent at a fixed last_cts.)
            // pmlint: publish(registry-slot-clear)
            region.store_u64_release(off + S_TID, 0)?;
            region.persist(off + S_TID, 8)?;
        }
        Ok(report)
    }

    /// `(offset, len)` of slot `slot`'s transaction-id word — the publish
    /// word of the `recovery-undo-release` protocol (label
    /// `registry-slot-clear`).
    pub fn slot_tid_extent(&self, slot: usize) -> (u64, u64) {
        (self.slot_off(slot as u64) + S_TID, 8)
    }
}

impl std::fmt::Debug for TxnRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnRegistry")
            .field("base", &self.base)
            .field("active", &self.active.len())
            .finish()
    }
}
