//! Persistent multi-version hash index on NVM.
//!
//! Layout:
//!
//! ```text
//! Desc block (40 B): nbuckets | buckets_ptr | column | pool_head | pool_used
//! Buckets: array of u64 — head entry offset per bucket (0 = empty)
//! Pool block: next_pool u64, then POOL_ENTRIES × entry
//! Entry (32 B): next u64 | key_hash u64 | row u64 | checksum u64
//! ```
//!
//! Entries are sub-allocated from **pool blocks** of [`POOL_ENTRIES`]
//! entries each, so the heap's block count — and therefore the allocator's
//! restart recovery scan — grows with `rows / 1024`, not `rows` (small-
//! object pooling, as nvm_malloc-backed engines do).
//!
//! Insertion publish protocol: write the entry (its `next` already pointing
//! at the old chain head) and flush it, fence, then durably store the
//! bucket slot — an 8-byte line-atomic publish. A crash before the publish
//! wastes at most one pooled entry slot (bytes, not blocks); the index is
//! never rebuilt on restart. This is the paper's "multi-version data
//! structure" pattern: one entry per physical row *version*, stale versions
//! filtered by MVCC visibility at read time and dropped wholesale when a
//! merge rebuilds the index.

use nvm::NvmHeap;
use storage::{Result, RowId, StorageError, Value};

use crate::key_hash;

/// Byte size of the persistent descriptor block.
pub const NVHASH_DESC_SIZE: u64 = 40;

/// Entries per pool block.
pub const POOL_ENTRIES: u64 = 1024;

const D_NBUCKETS: u64 = 0;
const D_BUCKETS: u64 = 8;
const D_COLUMN: u64 = 16;
const D_POOL_HEAD: u64 = 24;
const D_POOL_USED: u64 = 32;

const E_NEXT: u64 = 0;
const E_HASH: u64 = 8;
const E_ROW: u64 = 16;
/// FNV-1a checksum over the three preceding words. Every word of an entry —
/// including `next`, since chains only ever grow at the bucket head — is
/// write-once before the bucket publish, so the seal never goes stale.
const E_SUM: u64 = 24;
const ENTRY_SIZE: u64 = 32;

fn entry_sum(next: u64, hash: u64, row: u64) -> u64 {
    util::hash::fnv1a_words(&[next, hash, row])
}
/// Pool block: one next-pointer word, then the entries.
const POOL_HDR: u64 = 8;
const POOL_BYTES: u64 = POOL_HDR + POOL_ENTRIES * ENTRY_SIZE;

/// Handle to a persistent hash index. Plain data; re-attach after restart
/// with [`NvHashIndex::open`] — O(1), no scan.
#[derive(Debug, Clone)]
pub struct NvHashIndex {
    heap: NvmHeap,
    desc: u64,
    nbuckets: u64,
    buckets: u64,
    column: usize,
}

impl NvHashIndex {
    /// Create a fresh index with `nbuckets` buckets over `column`.
    pub fn create(heap: &NvmHeap, column: usize, nbuckets: u64) -> Result<NvHashIndex> {
        let nbuckets = nbuckets.next_power_of_two().max(16);
        let region = heap.region();
        let buckets = heap.alloc(nbuckets * 8)?;
        for i in 0..nbuckets {
            region.write_pod(buckets + i * 8, &0u64)?;
        }
        region.persist(buckets, nbuckets * 8)?;
        let desc = heap.alloc(NVHASH_DESC_SIZE)?;
        region.write_pod(desc + D_NBUCKETS, &nbuckets)?;
        region.write_pod(desc + D_BUCKETS, &buckets)?;
        region.write_pod(desc + D_COLUMN, &(column as u64))?;
        region.write_pod(desc + D_POOL_HEAD, &0u64)?;
        region.write_pod(desc + D_POOL_USED, &POOL_ENTRIES)?; // forces a pool on first insert
        region.persist(desc, NVHASH_DESC_SIZE)?;
        Ok(NvHashIndex {
            heap: heap.clone(),
            desc,
            nbuckets,
            buckets,
            column,
        })
    }

    /// Re-attach to an existing index by descriptor offset.
    pub fn open(heap: &NvmHeap, desc: u64) -> Result<NvHashIndex> {
        let region = heap.region();
        let nbuckets: u64 = region.read_pod(desc + D_NBUCKETS)?;
        let buckets: u64 = region.read_pod(desc + D_BUCKETS)?;
        let column: u64 = region.read_pod(desc + D_COLUMN)?;
        if !nbuckets.is_power_of_two() || nbuckets == 0 || nbuckets > 1 << 32 {
            return Err(StorageError::Corrupt {
                reason: "implausible bucket count in index descriptor",
            });
        }
        Ok(NvHashIndex {
            heap: heap.clone(),
            desc,
            nbuckets,
            buckets,
            column: column as usize,
        })
    }

    /// Descriptor offset (for cataloguing).
    pub fn desc_offset(&self) -> u64 {
        self.desc
    }

    /// The indexed column.
    pub fn column(&self) -> usize {
        self.column
    }

    fn bucket_slot(&self, hash: u64) -> u64 {
        self.buckets + (hash & (self.nbuckets - 1)) * 8
    }

    /// Sub-allocate one entry slot from the pool (growing it if needed).
    fn alloc_entry(&self) -> Result<u64> {
        let region = self.heap.region();
        let used: u64 = region.read_pod(self.desc + D_POOL_USED)?;
        let head: u64 = region.read_pod(self.desc + D_POOL_HEAD)?;
        let (pool, slot) = if used >= POOL_ENTRIES || head == 0 {
            // New pool block, linked at the head of the pool chain.
            let pool = self.heap.reserve(POOL_BYTES)?;
            region.write_pod(pool, &head)?;
            region.persist(pool, 8)?;
            self.heap
                .activate(pool, Some((self.desc + D_POOL_HEAD, pool)), None)?;
            (pool, 0u64)
        } else {
            (head, used)
        };
        // Claim the slot durably; a crash after this wastes the slot only.
        region.write_pod(self.desc + D_POOL_USED, &(slot + 1))?;
        region.persist(self.desc + D_POOL_USED, 8)?;
        Ok(pool + POOL_HDR + slot * ENTRY_SIZE)
    }

    /// Register a new row version carrying `value`. Crash-atomic.
    pub fn insert(&self, value: &Value, row: RowId) -> Result<()> {
        let region = self.heap.region();
        let hash = key_hash(value);
        let slot = self.bucket_slot(hash);
        let old_head: u64 = region.read_pod(slot)?;
        let entry = self.alloc_entry()?;
        region.write_pod(entry + E_NEXT, &old_head)?;
        region.write_pod(entry + E_HASH, &hash)?;
        region.write_pod(entry + E_ROW, &row)?;
        region.write_pod(entry + E_SUM, &entry_sum(old_head, hash, row))?;
        region.persist(entry, ENTRY_SIZE)?;
        // Publish: line-atomic 8-byte store of the bucket head.
        region.write_pod(slot, &entry)?;
        region.persist(slot, 8)?;
        Ok(())
    }

    /// Candidate physical rows whose key hash matches `value`'s. The caller
    /// must verify equality against the base table (hash collisions) and
    /// apply MVCC visibility.
    pub fn lookup(&self, value: &Value) -> Result<Vec<RowId>> {
        let region = self.heap.region();
        let hash = key_hash(value);
        // A chain longer than the entries the region can hold is a cycle
        // (a scribbled next pointer), not a long chain.
        let max_hops = region.capacity() / ENTRY_SIZE;
        let mut cur: u64 = region.read_pod(self.bucket_slot(hash))?;
        let mut out = Vec::new();
        let mut hops = 0u64;
        while cur != 0 {
            if hops > max_hops {
                return Err(StorageError::Corrupt {
                    reason: "index chain cycle",
                });
            }
            hops += 1;
            let h: u64 = region.read_pod(cur + E_HASH)?;
            if h == hash {
                out.push(region.read_pod(cur + E_ROW)?);
            }
            cur = region.read_pod(cur + E_NEXT)?;
        }
        // Entries were pushed at the head; restore insertion order.
        out.reverse();
        Ok(out)
    }

    /// Total entries across all buckets (diagnostics; O(entries)).
    pub fn entry_count(&self) -> Result<u64> {
        let region = self.heap.region();
        let mut n = 0u64;
        for b in 0..self.nbuckets {
            let mut cur: u64 = region.read_pod(self.buckets + b * 8)?;
            while cur != 0 {
                n += 1;
                cur = region.read_pod(cur + E_NEXT)?;
            }
        }
        Ok(n)
    }

    /// Number of pool blocks backing the entries (diagnostics; shows the
    /// metadata-bound block count).
    pub fn pool_blocks(&self) -> Result<u64> {
        let region = self.heap.region();
        let mut n = 0u64;
        let mut pool: u64 = region.read_pod(self.desc + D_POOL_HEAD)?;
        while pool != 0 {
            n += 1;
            pool = region.read_pod(pool)?;
        }
        Ok(n)
    }

    /// Free the pool chain and the bucket/descriptor blocks. Used when a
    /// merge replaces the index with a freshly built one.
    pub fn destroy(self) -> Result<()> {
        let region = self.heap.region().clone();
        let mut pool: u64 = region.read_pod(self.desc + D_POOL_HEAD)?;
        while pool != 0 {
            let next: u64 = region.read_pod(pool)?;
            self.heap.free(pool, None)?;
            pool = next;
        }
        self.heap.free(self.buckets, None)?;
        self.heap.free(self.desc, None)?;
        Ok(())
    }

    /// The labelled persistent extents of this index — one checksummed run
    /// per chain entry, for media-fault harnesses that target real bytes
    /// (the file-backed backend corrupts these offsets in the closed image
    /// file to force a rung-1 rebuild).
    pub fn media_extents(&self) -> Result<Vec<storage::nv::MediaExtent>> {
        let region = self.heap.region();
        let max_hops = region.capacity() / ENTRY_SIZE;
        let mut out = Vec::new();
        for b in 0..self.nbuckets {
            let mut cur: u64 = region.read_pod(self.buckets + b * 8)?;
            let mut hops = 0u64;
            while cur != 0 {
                if hops > max_hops {
                    return Err(StorageError::Corrupt {
                        reason: "hash index chain cycle",
                    });
                }
                hops += 1;
                out.push(storage::nv::MediaExtent {
                    what: "hash-index-entry",
                    offset: cur,
                    len: ENTRY_SIZE,
                    checksummed: true,
                });
                cur = region.read_pod(cur + E_NEXT)?;
            }
        }
        Ok(out)
    }

    /// Check index↔table agreement: every entry must point at an in-bounds
    /// row whose current key hashes to the entry's stored hash, and every
    /// physical table row must be reachable through a lookup of its key.
    /// Used by the crash-torture harness after each recovery.
    pub fn verify_against(&self, table: &dyn storage::TableStore) -> Result<crate::IndexCheck> {
        let region = self.heap.region();
        let nrows = table.row_count();
        let max_hops = region.capacity() / ENTRY_SIZE;
        let mut check = crate::IndexCheck::default();
        for b in 0..self.nbuckets {
            let mut cur: u64 = region.read_pod(self.buckets + b * 8)?;
            let mut hops = 0u64;
            while cur != 0 {
                if hops > max_hops {
                    return Err(StorageError::Corrupt {
                        reason: "index chain cycle",
                    });
                }
                hops += 1;
                check.entries += 1;
                let h: u64 = region.read_pod(cur + E_HASH)?;
                let row: u64 = region.read_pod(cur + E_ROW)?;
                let next: u64 = region.read_pod(cur + E_NEXT)?;
                let stored: u64 = region.read_pod(cur + E_SUM)?;
                let computed = entry_sum(next, h, row);
                if stored != computed {
                    return Err(StorageError::Nvm(nvm::NvmError::ChecksumMismatch {
                        what: "hash index entry",
                        offset: cur,
                        stored,
                        computed,
                    }));
                }
                if row >= nrows {
                    check.dangling += 1;
                } else if key_hash(&table.value(row, self.column)?) != h {
                    check.stale_keys += 1;
                }
                cur = region.read_pod(cur + E_NEXT)?;
            }
        }
        for row in 0..nrows {
            // Aborted inserts stay physically present but invisible; the
            // crash recovery that aborted them may legitimately predate the
            // index-entry publish, so they are exempt from the agreement
            // check.
            if table.begin_ts(row)? == storage::mvcc::TS_ABORTED {
                continue;
            }
            let v = table.value(row, self.column)?;
            if !self.lookup(&v)?.contains(&row) {
                check.missing_rows += 1;
            }
        }
        Ok(check)
    }

    /// Bulk-build a fresh index over every physical row of `table`'s
    /// indexed column (used at merge time; the result replaces the old
    /// index).
    pub fn build_from(
        heap: &NvmHeap,
        table: &dyn storage::TableStore,
        column: usize,
        nbuckets: u64,
    ) -> Result<NvHashIndex> {
        let nrows = table.row_count();
        Self::build_with(heap, column, nbuckets, nrows, |row| {
            table.value(row, column)
        })
    }

    /// Bulk-build over in-memory rows whose index id is their position —
    /// the shape of a planned merge's survivor list, letting the
    /// replacement index be built *before* the merge publishes.
    pub fn build_from_rows(
        heap: &NvmHeap,
        column: usize,
        nbuckets: u64,
        rows: &[Vec<Value>],
    ) -> Result<NvHashIndex> {
        Self::build_with(heap, column, nbuckets, rows.len() as u64, |row| {
            rows[row as usize]
                .get(column)
                .cloned()
                .ok_or(StorageError::Corrupt {
                    reason: "planned row narrower than the indexed column",
                })
        })
    }

    /// Shared bulk-build loop. On any failure the partially built index is
    /// destroyed before the error propagates — a capacity-failed build
    /// must not leak its allocations.
    fn build_with(
        heap: &NvmHeap,
        column: usize,
        nbuckets: u64,
        nrows: u64,
        mut value_of: impl FnMut(u64) -> storage::Result<Value>,
    ) -> Result<NvHashIndex> {
        let idx = NvHashIndex::create(heap, column, nbuckets)?;
        let filled: Result<()> = (|| {
            for row in 0..nrows {
                let v = value_of(row)?;
                idx.insert(&v, row)?;
            }
            Ok(())
        })();
        if let Err(e) = filled {
            let _ = idx.destroy();
            return Err(e);
        }
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::{CrashPolicy, LatencyModel, NvmRegion};
    use std::sync::Arc;

    fn heap() -> NvmHeap {
        NvmHeap::format(Arc::new(NvmRegion::new(1 << 24, LatencyModel::zero()))).unwrap()
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let h = heap();
        let idx = NvHashIndex::create(&h, 0, 64).unwrap();
        for i in 0..100u64 {
            idx.insert(&Value::Int((i % 10) as i64), i).unwrap();
        }
        for k in 0..10i64 {
            let rows = idx.lookup(&Value::Int(k)).unwrap();
            assert_eq!(rows.len(), 10, "key {k}");
            assert!(rows.iter().all(|r| (r % 10) as i64 == k));
        }
        assert!(idx.lookup(&Value::Int(99)).unwrap().is_empty());
        assert_eq!(idx.entry_count().unwrap(), 100);
    }

    #[test]
    fn survives_crash_without_rebuild() {
        let h = heap();
        let idx = NvHashIndex::create(&h, 2, 32).unwrap();
        let desc = idx.desc_offset();
        for i in 0..50u64 {
            idx.insert(&Value::Text(format!("k{}", i % 5)), i).unwrap();
        }
        h.region().crash(CrashPolicy::DropUnflushed);
        let (h2, _) = NvmHeap::open(h.region().clone()).unwrap();
        let idx2 = NvHashIndex::open(&h2, desc).unwrap();
        assert_eq!(idx2.column(), 2);
        let rows = idx2.lookup(&Value::Text("k3".into())).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(idx2.entry_count().unwrap(), 50);
    }

    #[test]
    fn crash_mid_insert_leaves_consistent_chain() {
        // An entry slot claimed but never published must disappear from
        // view; the chain stays intact.
        let h = heap();
        let idx = NvHashIndex::create(&h, 0, 16).unwrap();
        let desc = idx.desc_offset();
        idx.insert(&Value::Int(1), 10).unwrap();
        // Claim a slot and write the entry, but never publish the bucket.
        let e = idx.alloc_entry().unwrap();
        h.region()
            .write_pod(e + E_HASH, &key_hash(&Value::Int(1)))
            .unwrap();
        h.region().persist(e, ENTRY_SIZE).unwrap();
        h.region().crash(CrashPolicy::DropUnflushed);
        let (h2, _) = NvmHeap::open(h.region().clone()).unwrap();
        let idx2 = NvHashIndex::open(&h2, desc).unwrap();
        assert_eq!(idx2.lookup(&Value::Int(1)).unwrap(), vec![10]);
        assert_eq!(idx2.entry_count().unwrap(), 1);
    }

    #[test]
    fn insertion_order_preserved_per_key() {
        let h = heap();
        let idx = NvHashIndex::create(&h, 0, 16).unwrap();
        for r in [5u64, 2, 9] {
            idx.insert(&Value::Int(7), r).unwrap();
        }
        assert_eq!(idx.lookup(&Value::Int(7)).unwrap(), vec![5, 2, 9]);
    }

    #[test]
    fn entries_are_pooled() {
        let h = heap();
        let idx = NvHashIndex::create(&h, 0, 64).unwrap();
        for i in 0..(POOL_ENTRIES * 3 + 10) {
            idx.insert(&Value::Int(i as i64), i).unwrap();
        }
        assert_eq!(idx.pool_blocks().unwrap(), 4, "3 full pools + 1 partial");
        // Block count in the heap stays tiny relative to entries.
        let blocks = h.walk().unwrap().len() as u64;
        assert!(blocks < 32, "heap has {blocks} blocks for 3082 entries");
    }

    #[test]
    fn destroy_releases_blocks() {
        let h = heap();
        let live = |h: &NvmHeap| {
            h.walk()
                .unwrap()
                .iter()
                .filter(|b| b.state == nvm::AllocState::Allocated)
                .count()
        };
        let before = live(&h);
        let idx = NvHashIndex::create(&h, 0, 16).unwrap();
        for i in 0..2000u64 {
            idx.insert(&Value::Int(i as i64), i).unwrap();
        }
        assert!(live(&h) > before);
        idx.destroy().unwrap();
        assert_eq!(live(&h), before);
    }

    #[test]
    fn build_from_table() {
        use storage::{ColumnDef, DataType, Schema, TableStore, VTable};
        let h = heap();
        let mut t = VTable::new(Schema::new(vec![ColumnDef::new("k", DataType::Int)]));
        for i in 0..30i64 {
            t.insert_version(&[Value::Int(i % 6)], 1).unwrap();
        }
        let idx = NvHashIndex::build_from(&h, &t, 0, 64).unwrap();
        assert_eq!(idx.lookup(&Value::Int(3)).unwrap().len(), 5);
    }

    #[test]
    fn entry_checksum_detects_scribbled_row() {
        use storage::{ColumnDef, DataType, Schema, TableStore, VTable};
        let h = heap();
        let mut t = VTable::new(Schema::new(vec![ColumnDef::new("k", DataType::Int)]));
        for i in 0..20i64 {
            t.insert_version(&[Value::Int(i)], 1).unwrap();
        }
        let idx = NvHashIndex::build_from(&h, &t, 0, 64).unwrap();
        let clean = idx.verify_against(&t).unwrap();
        assert_eq!(clean.dangling + clean.stale_keys + clean.missing_rows, 0);
        // Corrupt a published entry's row word without resealing.
        let region = h.region();
        let entry = (0..idx.nbuckets)
            .find_map(|b| {
                let head: u64 = region.read_pod(idx.buckets + b * 8).unwrap();
                (head != 0).then_some(head)
            })
            .expect("nonempty bucket");
        let row: u64 = region.read_pod(entry + E_ROW).unwrap();
        region.write_pod(entry + E_ROW, &(row ^ 1)).unwrap();
        region.persist(entry + E_ROW, 8).unwrap();
        match idx.verify_against(&t) {
            Err(StorageError::Nvm(nvm::NvmError::ChecksumMismatch { what, offset, .. })) => {
                assert_eq!(what, "hash index entry");
                assert_eq!(offset, entry);
            }
            other => panic!("expected entry checksum mismatch, got {other:?}"),
        }
    }

    /// A next pointer scribbled into a cycle must end in the typed error the
    /// recovery ladder rebuilds from — bounded by what the region can hold,
    /// not by minutes of spinning.
    #[test]
    fn self_referencing_next_pointer_is_corrupt() {
        let h = heap();
        let idx = NvHashIndex::create(&h, 0, 16).unwrap();
        idx.insert(&Value::Int(7), 1).unwrap();
        let region = h.region();
        let entry: u64 = region
            .read_pod(idx.bucket_slot(key_hash(&Value::Int(7))))
            .unwrap();
        region.write_pod(entry + E_NEXT, &entry).unwrap();
        region.persist(entry + E_NEXT, 8).unwrap();
        assert!(matches!(
            idx.lookup(&Value::Int(7)),
            Err(StorageError::Corrupt { .. })
        ));
        assert!(idx.media_extents().is_err());
    }
}
