//! Persistent multi-version hash index on NVM.
//!
//! Layout:
//!
//! ```text
//! Desc block (40 B): nbuckets | buckets_ptr | column | pool_head | pool_used
//! Buckets: array of u64 — head entry offset per bucket (0 = empty)
//! Pool block: next_pool u64, then the entries
//! Entry (32 B): next u64 | key_hash u64 | row u64 | checksum u64
//! ```
//!
//! Entries are sub-allocated from **pool blocks** — [`POOL_ENTRIES`] entries
//! each when the index grows by inserts, one block for all of them when it
//! is bulk-built — so the heap's block count, and therefore the allocator's
//! restart recovery scan, grows with `rows / 1024` at most, not `rows`
//! (small-object pooling, as nvm_malloc-backed engines do).
//!
//! Insertion is staged and published in two steps the caller orders:
//! [`NvHashIndex::stage`] claims a pool slot and writes the entry (its
//! `next` already pointing at the chain head) with a write-back and no
//! fence; [`NvHashIndex::publish`], called once the entries *and the rows
//! they name* are durable, stores the bucket slots — one 8-byte line-atomic
//! publish each — and issues their write-backs for the caller's next fence.
//! Between the two, the new heads live in the handle, so the writer's own
//! lookups see its entries. A crash before the publish wastes at most the
//! claimed slots (bytes, not blocks); the index is never rebuilt on restart.
//! This is the paper's "multi-version data structure" pattern: one entry per
//! physical row *version*, stale versions filtered by MVCC visibility at read
//! time and dropped wholesale when a merge rebuilds the index.

use std::collections::BTreeMap;

use nvm::NvmHeap;
use storage::{DataType, DictColumn, Result, RowId, StorageError, Value};

use crate::key_hash;

/// Byte size of the persistent descriptor block.
pub const NVHASH_DESC_SIZE: u64 = 40;

/// Entries per pool block of an index growing by inserts.
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

/// The four words of a sealed entry.
fn entry_words(next: u64, hash: u64, row: u64) -> [u64; 4] {
    [next, hash, row, entry_sum(next, hash, row)]
}

/// Pool block: one next-pointer word, then the entries.
const POOL_HDR: u64 = 8;
const POOL_BYTES: u64 = POOL_HDR + POOL_ENTRIES * ENTRY_SIZE;

/// Handle to a persistent hash index. Re-attach after restart with
/// [`NvHashIndex::open`] — O(1), no scan.
#[derive(Debug, Clone)]
pub struct NvHashIndex {
    heap: NvmHeap,
    desc: u64,
    nbuckets: u64,
    buckets: u64,
    column: usize,
    /// Bucket slot → chain head, for the buckets with entries staged but
    /// not yet published. Ordered, so the publish stores replay
    /// identically from run to run.
    staged: BTreeMap<u64, u64>,
}

impl NvHashIndex {
    /// Create a fresh, empty index with `nbuckets` buckets over `column`.
    /// Staged only — nothing can reach the index until its creator
    /// publishes the descriptor offset, after one drain.
    pub fn create(heap: &NvmHeap, column: usize, nbuckets: u64) -> Result<NvHashIndex> {
        Self::bulk(heap, column, nbuckets, &[])
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
            staged: BTreeMap::new(),
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

    /// The chain head of a bucket as the writer sees it: staged, else
    /// published.
    fn head(&self, slot: u64) -> Result<u64> {
        match self.staged.get(&slot) {
            Some(head) => Ok(*head),
            None => Ok(self.heap.region().read_pod(slot)?),
        }
    }

    /// Sub-allocate one entry slot from the pool (growing it if needed).
    fn alloc_entry(&self) -> Result<u64> {
        let region = self.heap.region();
        let used: u64 = region.read_pod(self.desc + D_POOL_USED)?;
        let head: u64 = region.read_pod(self.desc + D_POOL_HEAD)?;
        let (pool, slot) = if used >= POOL_ENTRIES || head == 0 {
            // New pool block, linked at the head of the pool chain; its
            // next pointer is durable before the activation record can be.
            let pool = self.heap.reserve(POOL_BYTES)?;
            region.write_pod(pool, &head)?;
            region.persist(pool, 8)?;
            self.heap
                .activate(pool, Some((self.desc + D_POOL_HEAD, pool)), None)?;
            (pool, 0u64)
        } else {
            (head, used)
        };
        // Claim the slot. The claim may become durable at any time — early
        // only wastes the slot — and must be before the entry is published:
        // it rides the same drain as the entry.
        region.write_pod(self.desc + D_POOL_USED, &(slot + 1))?;
        region.flush(self.desc + D_POOL_USED, 8)?;
        Ok(pool + POOL_HDR + slot * ENTRY_SIZE)
    }

    /// Stage a new row version carrying `value`: claim a slot, write the
    /// sealed entry in front of its bucket's chain, issue the write-backs.
    /// No fence, and the bucket slot is untouched until
    /// [`NvHashIndex::publish`].
    // pmlint: caller-flushes
    pub fn stage(&mut self, value: &Value, row: RowId) -> Result<()> {
        let region = self.heap.region();
        let hash = key_hash(value);
        let slot = self.bucket_slot(hash);
        let next = self.head(slot)?;
        let entry = self.alloc_entry()?;
        region.write_bytes(entry, nvm::slice_bytes(&entry_words(next, hash, row)))?;
        region.flush(entry, ENTRY_SIZE)?;
        self.staged.insert(slot, entry);
        Ok(())
    }

    /// True while entries are staged and unpublished.
    pub fn has_staged(&self) -> bool {
        !self.staged.is_empty()
    }

    /// Publish every staged entry: store the bucket slots and issue their
    /// write-backs; the caller's next fence makes them durable. The entries
    /// and the rows they name must have been drained before. Returns
    /// whether anything was stored.
    // pmlint: caller-flushes
    pub fn publish(&mut self) -> Result<bool> {
        let region = self.heap.region();
        let any = !self.staged.is_empty();
        for (slot, head) in std::mem::take(&mut self.staged) {
            region.write_pod(slot, &head)?;
            region.flush(slot, 8)?;
        }
        Ok(any)
    }

    /// Register one row version through the whole protocol, on a handle
    /// with nothing staged: stage, drain, publish. The bucket store's
    /// write-back rides the caller's next fence.
    pub fn insert(&self, value: &Value, row: RowId) -> Result<()> {
        debug_assert!(
            self.staged.is_empty(),
            "insert on a handle with staged entries"
        );
        let mut one = self.clone();
        one.stage(value, row)?;
        self.heap.region().fence();
        one.publish()?;
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
        let mut cur = self.head(self.bucket_slot(hash))?;
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
    /// indexed column.
    pub fn build_from(
        heap: &NvmHeap,
        table: &dyn storage::TableStore,
        column: usize,
        nbuckets: u64,
    ) -> Result<NvHashIndex> {
        let hashes = (0..table.row_count())
            .map(|row| Ok(key_hash(&table.value(row, column)?)))
            .collect::<Result<Vec<u64>>>()?;
        Self::bulk(heap, column, nbuckets, &hashes)
    }

    /// Bulk-build over rows `0..` of `col`, whose index id is their
    /// position — a planned merge's column, letting the replacement index
    /// be built *before* the merge publishes. Hashes each dictionary entry
    /// once.
    pub fn build_from_column(
        heap: &NvmHeap,
        column: usize,
        nbuckets: u64,
        col: &DictColumn,
    ) -> Result<NvHashIndex> {
        let entry_hashes = (0..col.words().len() as u32)
            .map(|id| Ok(key_hash(&col.value(id)?)))
            .collect::<Result<Vec<u64>>>()?;
        let hashes: Vec<u64> = col
            .ids()
            .iter()
            .map(|&id| entry_hashes[id as usize])
            .collect();
        Self::bulk(heap, column, nbuckets, &hashes)
    }

    /// [`NvHashIndex::build_from_column`] over in-memory rows whose index
    /// id is their position, encoded as a column of the first row's type.
    pub fn build_from_rows(
        heap: &NvmHeap,
        column: usize,
        nbuckets: u64,
        rows: &[Vec<Value>],
    ) -> Result<NvHashIndex> {
        let keys = rows
            .iter()
            .map(|r| {
                r.get(column).ok_or(StorageError::Corrupt {
                    reason: "planned row narrower than the indexed column",
                })
            })
            .collect::<Result<Vec<&Value>>>()?;
        let dtype = keys.first().map_or(DataType::Int, |v| v.data_type());
        let col = DictColumn::from_values(column, dtype, keys)?;
        Self::build_from_column(heap, column, nbuckets, &col)
    }

    /// The one build path: an index over rows `0..hashes.len()` with the
    /// given key hashes, assembled in DRAM and staged with one bulk store
    /// and one range write-back per block (all entries in a single pool
    /// block). Nothing is fenced beyond the allocator's own protocols: the
    /// index is unreachable until its creator publishes the descriptor
    /// offset, after one drain. On failure every block allocated so far is
    /// freed before the error propagates.
    fn bulk(heap: &NvmHeap, column: usize, nbuckets: u64, hashes: &[u64]) -> Result<NvHashIndex> {
        let nbuckets = nbuckets.next_power_of_two().max(16);
        let region = heap.region();
        let mut blocks: Vec<u64> = Vec::new();
        let built = (|| -> Result<(u64, u64)> {
            let mut stage = |ptr: u64, words: &[u64]| -> Result<u64> {
                blocks.push(ptr);
                region.write_bytes(ptr, nvm::slice_bytes(words))?;
                region.flush(ptr, size_of_val(words) as u64)?;
                Ok(ptr)
            };
            // Entries chain in front of their bucket in row order, exactly
            // as one insert per row would have left them.
            let mut heads = vec![0u64; nbuckets as usize];
            let mut pool = 0u64;
            if !hashes.is_empty() {
                pool = heap.alloc(POOL_HDR + hashes.len() as u64 * ENTRY_SIZE)?;
                let mut image = Vec::with_capacity(1 + 4 * hashes.len());
                image.push(0u64); // no next pool
                for (row, hash) in hashes.iter().enumerate() {
                    let head = &mut heads[(hash & (nbuckets - 1)) as usize];
                    image.extend_from_slice(&entry_words(*head, *hash, row as u64));
                    *head = pool + POOL_HDR + row as u64 * ENTRY_SIZE;
                }
                stage(pool, &image)?;
            }
            let buckets = stage(heap.alloc(nbuckets * 8)?, &heads)?;
            // A full `pool_used` forces a regular pool on the first insert.
            let desc = [nbuckets, buckets, column as u64, pool, POOL_ENTRIES];
            Ok((stage(heap.alloc(NVHASH_DESC_SIZE)?, &desc)?, buckets))
        })();
        match built {
            Ok((desc, buckets)) => Ok(NvHashIndex {
                heap: heap.clone(),
                desc,
                nbuckets,
                buckets,
                column,
                staged: BTreeMap::new(),
            }),
            Err(e) => {
                for p in blocks.iter().rev() {
                    let _ = heap.free(*p, None);
                }
                Err(e)
            }
        }
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
        // Stage an entry — slot claimed, entry written back — but never
        // publish the bucket. The writer's own lookups see it…
        let mut idx = idx;
        idx.stage(&Value::Int(1), 11).unwrap();
        assert_eq!(idx.lookup(&Value::Int(1)).unwrap(), vec![10, 11]);
        h.region().fence();
        // …a crash does not.
        h.region().crash(CrashPolicy::DropUnflushed);
        let (h2, _) = NvmHeap::open(h.region().clone()).unwrap();
        let idx2 = NvHashIndex::open(&h2, desc).unwrap();
        assert_eq!(idx2.lookup(&Value::Int(1)).unwrap(), vec![10]);
        assert_eq!(idx2.entry_count().unwrap(), 1);
    }

    #[test]
    fn staged_entries_publish_together() {
        let h = heap();
        let mut idx = NvHashIndex::create(&h, 0, 16).unwrap();
        let desc = idx.desc_offset();
        // Two entries of one bucket and one of another, one publish.
        for (k, r) in [(7i64, 1u64), (7, 2), (8, 3)] {
            idx.stage(&Value::Int(k), r).unwrap();
        }
        h.region().fence();
        assert!(idx.publish().unwrap());
        assert!(!idx.publish().unwrap(), "nothing left to publish");
        h.region().fence();
        h.region().crash(CrashPolicy::DropUnflushed);
        let (h2, _) = NvmHeap::open(h.region().clone()).unwrap();
        let idx2 = NvHashIndex::open(&h2, desc).unwrap();
        assert_eq!(idx2.lookup(&Value::Int(7)).unwrap(), vec![1, 2]);
        assert_eq!(idx2.lookup(&Value::Int(8)).unwrap(), vec![3]);
    }

    /// The bulk build lays out what one insert per row would have: same
    /// lookups in the same order, one pool block, and inserts carry on
    /// from it with regular pools.
    #[test]
    fn bulk_build_matches_row_by_row_inserts() {
        let h = heap();
        let rows: Vec<Vec<Value>> = (0..3000i64).map(|i| vec![Value::Int(i % 700)]).collect();
        let bulk = NvHashIndex::build_from_rows(&h, 0, 64, &rows).unwrap();
        let one_by_one = NvHashIndex::create(&h, 0, 64).unwrap();
        for (row, r) in rows.iter().enumerate() {
            one_by_one.insert(&r[0], row as u64).unwrap();
        }
        for k in 0..701i64 {
            let key = Value::Int(k);
            assert_eq!(bulk.lookup(&key).unwrap(), one_by_one.lookup(&key).unwrap());
        }
        assert_eq!(bulk.entry_count().unwrap(), 3000);
        assert_eq!(bulk.pool_blocks().unwrap(), 1);
        bulk.insert(&Value::Int(5), 3000).unwrap();
        assert_eq!(bulk.pool_blocks().unwrap(), 2);
        assert_eq!(bulk.lookup(&Value::Int(5)).unwrap().last(), Some(&3000));
        let narrow = NvHashIndex::build_from_rows(&h, 1, 64, &rows);
        assert!(matches!(narrow, Err(StorageError::Corrupt { .. })));
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
