//! Persistent multi-version *ordered* index on NVM: a crash-safe skip
//! list.
//!
//! Layout:
//!
//! ```text
//! Desc block: head[MAX_HEIGHT] | column | count | pool_head | pool_used
//!             | key blob PVec<u8> header
//! Node (fixed 96 B, pooled): key u64 | row u64 | height u64
//!                            | next[MAX_HEIGHT] u64 | checksum u64
//! ```
//!
//! Keys are stored order-preservingly: `Int` via sign-flip encoding,
//! `Double` via the standard monotone float encoding, `Text` as local
//! offsets into a per-index byte blob (compared by content).
//!
//! ## Crash safety without a recovery pass
//!
//! The **level-0 linked list is the sole source of truth**; levels ≥ 1 are
//! an acceleration structure. An insert writes and flushes the whole node
//! (with its `next` pointers already aimed at the successors), then
//! publishes it with one 8-byte durable store into the level-0 predecessor.
//! The upper-level links follow best-effort: a crash between them leaves a
//! node that is merely *under-indexed* — still found by every search, since
//! searches always finish on level 0. Nothing to repair on restart; the
//! index is re-attached O(1), exactly like the hash index.
//!
//! Like all indexes here it is multi-version: one entry per physical row
//! version; readers filter through MVCC and merges rebuild it wholesale.

use nvm::{NvmHeap, PVec, PVEC_HEADER};
use storage::{DataType, Result, RowId, StorageError, Value};

/// Maximum tower height (fixed node size keeps nodes poolable).
pub const MAX_HEIGHT: u64 = 8;

/// Nodes per pool block.
pub const ORD_POOL_ENTRIES: u64 = 512;

const NODE_KEY: u64 = 0;
const NODE_ROW: u64 = 8;
const NODE_HEIGHT: u64 = 16;
const NODE_NEXT: u64 = 24;
/// FNV-1a checksum over the node's *immutable* words (key, row, height).
/// The `next` tower is excluded: later inserts rewrite those slots in place,
/// and resealing on every neighbour splice would break the single-store
/// publish protocol.
const NODE_SUM: u64 = NODE_NEXT + MAX_HEIGHT * 8;
const NODE_SIZE: u64 = NODE_SUM + 8;

fn node_sum(key: u64, row: u64, height: u64) -> u64 {
    util::hash::fnv1a_words(&[key, row, height])
}

const D_HEAD: u64 = 0; // MAX_HEIGHT words
const D_COLUMN: u64 = D_HEAD + MAX_HEIGHT * 8;
const D_COUNT: u64 = D_COLUMN + 8;
const D_POOL_HEAD: u64 = D_COUNT + 8;
const D_POOL_USED: u64 = D_POOL_HEAD + 8;
const D_BLOB: u64 = D_POOL_USED + 8;
/// Byte size of the persistent descriptor block.
pub const NVORDERED_DESC_SIZE: u64 = D_BLOB + PVEC_HEADER;

const POOL_HDR: u64 = 8;
const POOL_BYTES: u64 = POOL_HDR + ORD_POOL_ENTRIES * NODE_SIZE;

/// Order-preserving 64-bit encoding of a fixed-width key.
fn encode_fixed(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) => Some((*i as u64) ^ (1 << 63)),
        Value::Double(d) => {
            let bits = d.to_bits();
            // Standard monotone transform: flip all bits for negatives,
            // flip the sign bit for positives.
            Some(if bits >> 63 == 1 {
                !bits
            } else {
                bits ^ (1 << 63)
            })
        }
        Value::Text(_) => None,
    }
}

/// Handle to a persistent ordered index. Re-attach after restart with
/// [`NvOrderedIndex::open`] — O(1), no scan, no rebuild.
#[derive(Debug, Clone)]
pub struct NvOrderedIndex {
    heap: NvmHeap,
    desc: u64,
    column: usize,
    dtype: DataType,
    blob: PVec<u8>,
}

impl NvOrderedIndex {
    /// Create a fresh index over `column` of declared type `dtype`.
    pub fn create(heap: &NvmHeap, column: usize, dtype: DataType) -> Result<NvOrderedIndex> {
        let region = heap.region();
        let desc = heap.alloc(NVORDERED_DESC_SIZE)?;
        for l in 0..MAX_HEIGHT {
            region.write_pod(desc + D_HEAD + l * 8, &0u64)?;
        }
        // Column word also carries the type tag in its high byte so `open`
        // is self-contained.
        region.write_pod(
            desc + D_COLUMN,
            &((dtype.tag() as u64) << 56 | column as u64),
        )?;
        region.write_pod(desc + D_COUNT, &0u64)?;
        region.write_pod(desc + D_POOL_HEAD, &0u64)?;
        region.write_pod(desc + D_POOL_USED, &ORD_POOL_ENTRIES)?;
        region.persist(desc, NVORDERED_DESC_SIZE)?;
        let blob = PVec::<u8>::create(heap, desc + D_BLOB, 64)?;
        Ok(NvOrderedIndex {
            heap: heap.clone(),
            desc,
            column,
            dtype,
            blob,
        })
    }

    /// Re-attach to an existing index by descriptor offset.
    pub fn open(heap: &NvmHeap, desc: u64) -> Result<NvOrderedIndex> {
        let region = heap.region();
        let colword: u64 = region.read_pod(desc + D_COLUMN)?;
        let dtype = DataType::from_tag((colword >> 56) as u8).ok_or(StorageError::Corrupt {
            reason: "unknown type tag in ordered index descriptor",
        })?;
        Ok(NvOrderedIndex {
            heap: heap.clone(),
            desc,
            column: (colword & 0x00FF_FFFF_FFFF_FFFF) as usize,
            dtype,
            blob: PVec::open(desc + D_BLOB),
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

    /// Number of entries.
    pub fn len(&self) -> Result<u64> {
        Ok(self.heap.region().read_pod(self.desc + D_COUNT)?)
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Encode a key for storage; text keys are appended to the blob.
    fn encode_key(&self, v: &Value) -> Result<u64> {
        if let Some(w) = encode_fixed(v) {
            return Ok(w);
        }
        let s = v.as_text().ok_or(StorageError::TypeMismatch {
            column: self.column,
            expected: self.dtype,
        })?;
        let mut run = Vec::with_capacity(4 + s.len());
        run.extend_from_slice(&(s.len() as u32).to_le_bytes());
        run.extend_from_slice(s.as_bytes());
        Ok(self.blob.append_bytes(&self.heap, &run)?)
    }

    /// Compare a stored key word against a probe value.
    fn cmp_key(&self, stored: u64, probe: &Value) -> Result<std::cmp::Ordering> {
        match self.dtype {
            DataType::Int | DataType::Double => {
                let pw = encode_fixed(probe).ok_or(StorageError::TypeMismatch {
                    column: self.column,
                    expected: self.dtype,
                })?;
                Ok(stored.cmp(&pw))
            }
            DataType::Text => {
                let region = self.heap.region();
                let len_bytes = self.blob.read_bytes_at(region, stored, 4)?;
                let n =
                    u32::from_le_bytes(len_bytes.try_into().map_err(|_| StorageError::Corrupt {
                        reason: "truncated index blob length prefix",
                    })?) as u64;
                let bytes = self.blob.read_bytes_at(region, stored + 4, n)?;
                let probe_s = probe.as_text().ok_or(StorageError::TypeMismatch {
                    column: self.column,
                    expected: self.dtype,
                })?;
                Ok(bytes.as_slice().cmp(probe_s.as_bytes()))
            }
        }
    }

    /// Deterministic pseudo-random tower height from the entry count.
    fn height_for(&self, count: u64) -> u64 {
        let mut x = count
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xA24B_1741);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        ((x.trailing_ones() as u64 / 2) + 1).min(MAX_HEIGHT)
    }

    /// Sub-allocate one node slot from the pool.
    fn alloc_node(&self) -> Result<u64> {
        let region = self.heap.region();
        let used: u64 = region.read_pod(self.desc + D_POOL_USED)?;
        let head: u64 = region.read_pod(self.desc + D_POOL_HEAD)?;
        let (pool, slot) = if used >= ORD_POOL_ENTRIES || head == 0 {
            let pool = self.heap.reserve(POOL_BYTES)?;
            region.write_pod(pool, &head)?;
            region.persist(pool, 8)?;
            self.heap
                .activate(pool, Some((self.desc + D_POOL_HEAD, pool)), None)?;
            (pool, 0u64)
        } else {
            (head, used)
        };
        region.write_pod(self.desc + D_POOL_USED, &(slot + 1))?;
        region.persist(self.desc + D_POOL_USED, 8)?;
        Ok(pool + POOL_HDR + slot * NODE_SIZE)
    }

    /// Pointer slot holding `next` at `level` for a node (or the head).
    fn next_slot(&self, node: u64, level: u64) -> u64 {
        if node == 0 {
            self.desc + D_HEAD + level * 8
        } else {
            node + NODE_NEXT + level * 8
        }
    }

    /// Find, per level, the last node (0 = head) whose key is `< probe`
    /// (strictly, so inserts go after equal keys and range scans start at
    /// the first equal entry).
    fn predecessors(&self, probe: &Value) -> Result<[u64; MAX_HEIGHT as usize]> {
        let region = self.heap.region();
        let mut preds = [0u64; MAX_HEIGHT as usize];
        let mut cur = 0u64; // head
        for level in (0..MAX_HEIGHT).rev() {
            loop {
                let next: u64 = region.read_pod(self.next_slot(cur, level))?;
                if next == 0 {
                    break;
                }
                let key: u64 = region.read_pod(next + NODE_KEY)?;
                if self.cmp_key(key, probe)? == std::cmp::Ordering::Less {
                    cur = next;
                } else {
                    break;
                }
            }
            preds[level as usize] = cur;
        }
        Ok(preds)
    }

    /// Register a new row version carrying `value`. Crash-atomic: the
    /// level-0 publish is one 8-byte durable store; upper links are
    /// best-effort acceleration.
    pub fn insert(&self, value: &Value, row: RowId) -> Result<()> {
        let region = self.heap.region();
        let key = self.encode_key(value)?;
        let count: u64 = region.read_pod(self.desc + D_COUNT)?;
        let height = self.height_for(count);
        let preds = self.predecessors(value)?;

        let node = self.alloc_node()?;
        region.write_pod(node + NODE_KEY, &key)?;
        region.write_pod(node + NODE_ROW, &row)?;
        region.write_pod(node + NODE_HEIGHT, &height)?;
        region.write_pod(node + NODE_SUM, &node_sum(key, row, height))?;
        for l in 0..MAX_HEIGHT {
            let succ: u64 = if l < height {
                region.read_pod(self.next_slot(preds[l as usize], l))?
            } else {
                0
            };
            region.write_pod(node + NODE_NEXT + l * 8, &succ)?;
        }
        region.persist(node, NODE_SIZE)?;

        // Publish at level 0 (the durable truth).
        let slot0 = self.next_slot(preds[0], 0);
        region.write_pod(slot0, &node)?;
        region.persist(slot0, 8)?;
        // Best-effort upper links + count.
        for l in 1..height {
            let slot = self.next_slot(preds[l as usize], l);
            region.write_pod(slot, &node)?;
            region.persist(slot, 8)?;
        }
        region.write_pod(self.desc + D_COUNT, &(count + 1))?;
        region.persist(self.desc + D_COUNT, 8)?;
        Ok(())
    }

    /// Candidate rows with key exactly `value`, in insertion order among
    /// equals is *not* guaranteed (callers treat results as a set and apply
    /// MVCC + verification).
    pub fn lookup(&self, value: &Value) -> Result<Vec<RowId>> {
        let region = self.heap.region();
        let preds = self.predecessors(value)?;
        let mut cur: u64 = region.read_pod(self.next_slot(preds[0], 0))?;
        let mut out = Vec::new();
        while cur != 0 {
            let key: u64 = region.read_pod(cur + NODE_KEY)?;
            match self.cmp_key(key, value)? {
                std::cmp::Ordering::Equal => out.push(region.read_pod(cur + NODE_ROW)?),
                std::cmp::Ordering::Greater => break,
                // A key below the probe after a predecessor search means a
                // broken list order — corruption, not a programming error.
                std::cmp::Ordering::Less => {
                    return Err(StorageError::Corrupt {
                        reason: "skiplist order violated after predecessor search",
                    })
                }
            }
            cur = region.read_pod(cur + NODE_NEXT)?;
        }
        Ok(out)
    }

    /// Candidate rows with `lo <= key < hi` (either bound optional).
    pub fn lookup_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Result<Vec<RowId>> {
        let region = self.heap.region();
        let mut cur: u64 = match lo {
            Some(v) => {
                let preds = self.predecessors(v)?;
                region.read_pod(self.next_slot(preds[0], 0))?
            }
            None => region.read_pod(self.desc + D_HEAD)?,
        };
        let mut out = Vec::new();
        while cur != 0 {
            if let Some(h) = hi {
                let key: u64 = region.read_pod(cur + NODE_KEY)?;
                if self.cmp_key(key, h)? != std::cmp::Ordering::Less {
                    break;
                }
            }
            out.push(region.read_pod(cur + NODE_ROW)?);
            cur = region.read_pod(cur + NODE_NEXT)?;
        }
        Ok(out)
    }

    /// Free pool chain, blob, and descriptor (merge-time replacement).
    pub fn destroy(self) -> Result<()> {
        let region = self.heap.region().clone();
        let mut pool: u64 = region.read_pod(self.desc + D_POOL_HEAD)?;
        while pool != 0 {
            let next: u64 = region.read_pod(pool)?;
            self.heap.free(pool, None)?;
            pool = next;
        }
        let blob_data = self.blob.data_offset(&region)?;
        if blob_data != 0 {
            self.heap.free(blob_data, None)?;
        }
        self.heap.free(self.desc, None)?;
        Ok(())
    }

    /// The labelled persistent extents of this index — one checksummed run
    /// per skip-list node, for media-fault harnesses that target real bytes
    /// (the file-backed backend corrupts these offsets in the closed image
    /// file to force a rung-1 rebuild).
    pub fn media_extents(&self) -> Result<Vec<storage::nv::MediaExtent>> {
        let region = self.heap.region();
        let mut out = Vec::new();
        let mut cur: u64 = region.read_pod(self.desc + D_HEAD)?;
        // More nodes than the region can hold means the level-0 list loops.
        let max_hops = region.capacity() / NODE_SIZE;
        let mut hops = 0u64;
        while cur != 0 {
            if hops > max_hops {
                return Err(StorageError::Corrupt {
                    reason: "ordered index level-0 cycle",
                });
            }
            hops += 1;
            out.push(storage::nv::MediaExtent {
                what: "ordered-index-node",
                offset: cur,
                len: NODE_SIZE,
                checksummed: true,
            });
            cur = region.read_pod(cur + NODE_NEXT)?;
        }
        Ok(out)
    }

    /// Check index↔table agreement: walk the level-0 list (the durable
    /// truth) verifying order, bounds, and that each entry's key equals its
    /// row's current column value; then confirm every physical table row is
    /// reachable through a lookup of its key. Used by the crash-torture
    /// harness after each recovery.
    pub fn verify_against(&self, table: &dyn storage::TableStore) -> Result<crate::IndexCheck> {
        let region = self.heap.region();
        let nrows = table.row_count();
        let mut check = crate::IndexCheck::default();
        let mut cur: u64 = region.read_pod(self.desc + D_HEAD)?;
        let mut prev_key: Option<u64> = None;
        let max_hops = region.capacity() / NODE_SIZE;
        let mut hops = 0u64;
        while cur != 0 {
            if hops > max_hops {
                return Err(StorageError::Corrupt {
                    reason: "ordered index level-0 cycle",
                });
            }
            hops += 1;
            check.entries += 1;
            let key: u64 = region.read_pod(cur + NODE_KEY)?;
            let row: u64 = region.read_pod(cur + NODE_ROW)?;
            let height: u64 = region.read_pod(cur + NODE_HEIGHT)?;
            let stored: u64 = region.read_pod(cur + NODE_SUM)?;
            let computed = node_sum(key, row, height);
            if stored != computed {
                return Err(StorageError::Nvm(nvm::NvmError::ChecksumMismatch {
                    what: "ordered index node",
                    offset: cur,
                    stored,
                    computed,
                }));
            }
            if row >= nrows {
                check.dangling += 1;
            } else {
                let v = table.value(row, self.column)?;
                if self.cmp_key(key, &v)? != std::cmp::Ordering::Equal {
                    check.stale_keys += 1;
                }
            }
            if let Some(p) = prev_key {
                // Fixed-width keys are order-preserving words; text keys
                // are blob offsets and are skipped here (order is enforced
                // by the insert path's predecessor search).
                if self.dtype != DataType::Text && key < p {
                    return Err(StorageError::Corrupt {
                        reason: "ordered index level-0 out of order",
                    });
                }
            }
            prev_key = Some(key);
            cur = region.read_pod(cur + NODE_NEXT)?;
        }
        for row in 0..nrows {
            // Aborted inserts never published an index entry; see the same
            // exemption in the hash index's check.
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

    /// Bulk-build over every physical row of `table`'s indexed column.
    pub fn build_from(
        heap: &NvmHeap,
        table: &dyn storage::TableStore,
        column: usize,
    ) -> Result<NvOrderedIndex> {
        let dtype = table.schema().column(column)?.dtype;
        let nrows = table.row_count();
        Self::build_with(heap, column, dtype, nrows, |row| table.value(row, column))
    }

    /// Bulk-build over in-memory rows whose index id is their position —
    /// the shape of a planned merge's survivor list, letting the
    /// replacement index be built *before* the merge publishes.
    pub fn build_from_rows(
        heap: &NvmHeap,
        column: usize,
        dtype: DataType,
        rows: &[Vec<Value>],
    ) -> Result<NvOrderedIndex> {
        Self::build_with(heap, column, dtype, rows.len() as u64, |row| {
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
        dtype: DataType,
        nrows: u64,
        mut value_of: impl FnMut(u64) -> storage::Result<Value>,
    ) -> Result<NvOrderedIndex> {
        let idx = NvOrderedIndex::create(heap, column, dtype)?;
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
    fn ordered_iteration_over_ints_including_negatives() {
        let h = heap();
        let idx = NvOrderedIndex::create(&h, 0, DataType::Int).unwrap();
        let keys = [5i64, -3, 99, 0, -88, 42, 7];
        for (r, k) in keys.iter().enumerate() {
            idx.insert(&Value::Int(*k), r as u64).unwrap();
        }
        let rows = idx.lookup_range(None, None).unwrap();
        let got: Vec<i64> = rows.iter().map(|r| keys[*r as usize]).collect();
        let mut want = keys.to_vec();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn range_semantics_inclusive_exclusive() {
        let h = heap();
        let idx = NvOrderedIndex::create(&h, 0, DataType::Int).unwrap();
        for k in 0..20i64 {
            idx.insert(&Value::Int(k), k as u64).unwrap();
        }
        let rows = idx
            .lookup_range(Some(&Value::Int(5)), Some(&Value::Int(9)))
            .unwrap();
        assert_eq!(rows, vec![5, 6, 7, 8]);
        let rows = idx.lookup_range(Some(&Value::Int(18)), None).unwrap();
        assert_eq!(rows, vec![18, 19]);
        let rows = idx.lookup_range(None, Some(&Value::Int(2))).unwrap();
        assert_eq!(rows, vec![0, 1]);
    }

    #[test]
    fn doubles_order_preserved() {
        let h = heap();
        let idx = NvOrderedIndex::create(&h, 0, DataType::Double).unwrap();
        let keys = [1.5f64, -2.25, 0.0, -0.5, 1e9, -1e9];
        for (r, k) in keys.iter().enumerate() {
            idx.insert(&Value::Double(*k), r as u64).unwrap();
        }
        let rows = idx.lookup_range(None, None).unwrap();
        let got: Vec<f64> = rows.iter().map(|r| keys[*r as usize]).collect();
        let mut want = keys.to_vec();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, want);
    }

    #[test]
    fn text_keys_compare_by_content() {
        let h = heap();
        let idx = NvOrderedIndex::create(&h, 1, DataType::Text).unwrap();
        for (r, s) in ["mango", "apple", "zebra", "banana"].iter().enumerate() {
            idx.insert(&Value::Text(s.to_string()), r as u64).unwrap();
        }
        let rows = idx
            .lookup_range(Some(&"b".into()), Some(&"n".into()))
            .unwrap();
        assert_eq!(rows, vec![3, 0]); // banana, mango
        assert_eq!(idx.lookup(&"apple".into()).unwrap(), vec![1]);
        assert!(idx.lookup(&"missing".into()).unwrap().is_empty());
    }

    #[test]
    fn duplicates_all_returned() {
        let h = heap();
        let idx = NvOrderedIndex::create(&h, 0, DataType::Int).unwrap();
        for r in 0..10u64 {
            idx.insert(&Value::Int((r % 3) as i64), r).unwrap();
        }
        let mut rows = idx.lookup(&Value::Int(1)).unwrap();
        rows.sort();
        assert_eq!(rows, vec![1, 4, 7]);
    }

    #[test]
    fn survives_crash_and_reattaches() {
        let h = heap();
        let idx = NvOrderedIndex::create(&h, 0, DataType::Int).unwrap();
        let desc = idx.desc_offset();
        for k in 0..200i64 {
            idx.insert(&Value::Int(k * 3 % 101), k as u64).unwrap();
        }
        h.region().crash(CrashPolicy::DropUnflushed);
        let (h2, _) = NvmHeap::open(h.region().clone()).unwrap();
        let idx2 = NvOrderedIndex::open(&h2, desc).unwrap();
        assert_eq!(idx2.len().unwrap(), 200);
        let rows = idx2.lookup_range(None, None).unwrap();
        assert_eq!(rows.len(), 200);
        // Ordered after recovery.
        let region = h2.region();
        let keys: Vec<u64> = {
            let mut out = Vec::new();
            let mut cur: u64 = region.read_pod(desc + D_HEAD).unwrap();
            while cur != 0 {
                out.push(region.read_pod(cur + NODE_KEY).unwrap());
                cur = region.read_pod(cur + NODE_NEXT).unwrap();
            }
            out
        };
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn crash_mid_insert_under_indexed_node_still_found() {
        // Simulate the worst crash: node published at level 0 but upper
        // links lost (never flushed). Searches must still find it.
        let h = heap();
        let idx = NvOrderedIndex::create(&h, 0, DataType::Int).unwrap();
        let desc = idx.desc_offset();
        for k in 0..50i64 {
            idx.insert(&Value::Int(k), k as u64).unwrap();
        }
        // Manually clobber all upper-level head pointers (volatile + then
        // persist, modelling lost acceleration links).
        let region = h.region();
        for l in 1..MAX_HEIGHT {
            region.write_pod(desc + D_HEAD + l * 8, &0u64).unwrap();
            region.persist(desc + D_HEAD + l * 8, 8).unwrap();
        }
        h.region().crash(CrashPolicy::DropUnflushed);
        let (h2, _) = NvmHeap::open(h.region().clone()).unwrap();
        let idx2 = NvOrderedIndex::open(&h2, desc).unwrap();
        for k in 0..50i64 {
            assert_eq!(idx2.lookup(&Value::Int(k)).unwrap(), vec![k as u64]);
        }
    }

    #[test]
    fn pooled_nodes_keep_block_count_low() {
        let h = heap();
        let idx = NvOrderedIndex::create(&h, 0, DataType::Int).unwrap();
        for k in 0..2000i64 {
            idx.insert(&Value::Int(k), k as u64).unwrap();
        }
        let blocks = h.walk().unwrap().len();
        assert!(blocks < 24, "heap has {blocks} blocks for 2000 nodes");
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
        let idx = NvOrderedIndex::create(&h, 1, DataType::Text).unwrap();
        for k in 0..800u64 {
            idx.insert(&Value::Text(format!("key-{k:04}")), k).unwrap();
        }
        idx.destroy().unwrap();
        assert_eq!(live(&h), before);
    }

    #[test]
    fn build_from_table() {
        use storage::{ColumnDef, Schema, TableStore, VTable};
        let h = heap();
        let mut t = VTable::new(Schema::new(vec![ColumnDef::new("k", DataType::Int)]));
        for i in 0..40i64 {
            t.insert_version(&[Value::Int(40 - i)], 1).unwrap();
        }
        let idx = NvOrderedIndex::build_from(&h, &t, 0).unwrap();
        let rows = idx
            .lookup_range(Some(&Value::Int(10)), Some(&Value::Int(15)))
            .unwrap();
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn node_checksum_detects_scribbled_row() {
        use storage::{ColumnDef, Schema, TableStore, VTable};
        let h = heap();
        let mut t = VTable::new(Schema::new(vec![ColumnDef::new("k", DataType::Int)]));
        for i in 0..20i64 {
            t.insert_version(&[Value::Int(i)], 1).unwrap();
        }
        let idx = NvOrderedIndex::build_from(&h, &t, 0).unwrap();
        let clean = idx.verify_against(&t).unwrap();
        assert_eq!(clean.dangling + clean.stale_keys + clean.missing_rows, 0);
        // Corrupt the first level-0 node's row word without resealing.
        let region = h.region();
        let node: u64 = region.read_pod(idx.desc + D_HEAD).unwrap();
        assert_ne!(node, 0);
        let row: u64 = region.read_pod(node + NODE_ROW).unwrap();
        region.write_pod(node + NODE_ROW, &(row ^ 1)).unwrap();
        region.persist(node + NODE_ROW, 8).unwrap();
        match idx.verify_against(&t) {
            Err(StorageError::Nvm(nvm::NvmError::ChecksumMismatch { what, offset, .. })) => {
                assert_eq!(what, "ordered index node");
                assert_eq!(offset, node);
            }
            other => panic!("expected node checksum mismatch, got {other:?}"),
        }
    }
}
