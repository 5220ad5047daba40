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
//! an acceleration structure. An insert is staged and published in steps
//! the caller orders. [`NvOrderedIndex::stage`] writes the whole node (with
//! its `next` pointers already aimed at the successors) and, for a text key,
//! its blob run, with write-backs and no fence; the pointer stores that
//! would link it are kept in the handle, where the writer's own searches
//! see them. After the drain, [`NvOrderedIndex::publish_lens`] publishes the
//! key blob's length; once the nodes *and the rows they name* are durable,
//! [`NvOrderedIndex::publish`] stores the level-0 links — one 8-byte store
//! per node — for the caller's next fence; and only after that fence
//! [`NvOrderedIndex::publish_upper`] stores the upper-level links and the count,
//! best-effort: a crash that loses them leaves a node that is merely
//! *under-indexed* — still found by every search, since searches always
//! finish on level 0 — while an upper link durable *before* its node's
//! level-0 link would let a search skip entries. Nothing to repair on
//! restart; the index is re-attached O(1), exactly like the hash index.
//!
//! Like all indexes here it is multi-version: one entry per physical row
//! version; readers filter through MVCC and merges rebuild it wholesale.

use std::collections::BTreeMap;

use nvm::{NvmHeap, PVec, PVEC_HEADER};
use storage::{DataType, DictColumn, Result, RowId, StorageError, Value};

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
    /// Key-blob length including the runs staged beyond the published
    /// length; `None` when none are.
    staged_blob_len: Option<u64>,
    /// Entry count including the staged entries, until `publish_upper`
    /// stores it.
    staged_count: Option<u64>,
    /// Pointer slot → node, for the level-0 links staged but not yet
    /// stored. Ordered, so the publish stores replay identically.
    staged: BTreeMap<u64, u64>,
    /// The same for levels ≥ 1 (kept until `publish_upper`, past the
    /// publish of their level-0 siblings).
    staged_upper: BTreeMap<u64, u64>,
}

/// The words of a sealed node.
fn node_words(key: u64, row: u64, height: u64, next: [u64; MAX_HEIGHT as usize]) -> [u64; 12] {
    let mut w = [0u64; (NODE_SIZE / 8) as usize];
    w[(NODE_KEY / 8) as usize] = key;
    w[(NODE_ROW / 8) as usize] = row;
    w[(NODE_HEIGHT / 8) as usize] = height;
    w[(NODE_NEXT / 8) as usize..(NODE_SUM / 8) as usize].copy_from_slice(&next);
    w[(NODE_SUM / 8) as usize] = node_sum(key, row, height);
    w
}

/// Deterministic pseudo-random tower height of the `count`-th entry.
fn height_for(count: u64) -> u64 {
    let mut x = count
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xA24B_1741);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    ((x.trailing_ones() as u64 / 2) + 1).min(MAX_HEIGHT)
}

/// The length-prefixed blob run of a text key.
fn text_run(s: &str) -> Vec<u8> {
    let mut run = Vec::with_capacity(4 + s.len());
    run.extend_from_slice(&(s.len() as u32).to_le_bytes());
    run.extend_from_slice(s.as_bytes());
    run
}

impl NvOrderedIndex {
    /// Create a fresh, empty index over `column` of declared type `dtype`.
    /// Staged only — nothing can reach the index until its creator
    /// publishes the descriptor offset, after one drain.
    pub fn create(heap: &NvmHeap, column: usize, dtype: DataType) -> Result<NvOrderedIndex> {
        Self::build_from_column(heap, column, &DictColumn::from_values(column, dtype, [])?)
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
            staged_blob_len: None,
            staged_count: None,
            staged: BTreeMap::new(),
            staged_upper: BTreeMap::new(),
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

    /// Number of entries, staged ones included.
    pub fn len(&self) -> Result<u64> {
        match self.staged_count {
            Some(n) => Ok(n),
            None => Ok(self.heap.region().read_pod(self.desc + D_COUNT)?),
        }
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Encode a key for storage; a text key's run is staged at the end of
    /// the blob.
    fn stage_key(&mut self, v: &Value) -> Result<u64> {
        if let Some(w) = encode_fixed(v) {
            return Ok(w);
        }
        let s = v.as_text().ok_or(StorageError::TypeMismatch {
            column: self.column,
            expected: self.dtype,
        })?;
        let run = text_run(s);
        let at = match self.staged_blob_len {
            Some(len) => len,
            None => self.blob.len(self.heap.region())?,
        };
        self.blob.stage_bytes(&self.heap, at, &run)?;
        self.staged_blob_len = Some(at + run.len() as u64);
        Ok(at)
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

    /// Sub-allocate one node slot from the pool.
    fn alloc_node(&self) -> Result<u64> {
        let region = self.heap.region();
        let used: u64 = region.read_pod(self.desc + D_POOL_USED)?;
        let head: u64 = region.read_pod(self.desc + D_POOL_HEAD)?;
        let (pool, slot) = if used >= ORD_POOL_ENTRIES || head == 0 {
            // The next pointer is durable before the activation record can be.
            let pool = self.heap.reserve(POOL_BYTES)?;
            region.write_pod(pool, &head)?;
            region.persist(pool, 8)?;
            self.heap
                .activate(pool, Some((self.desc + D_POOL_HEAD, pool)), None)?;
            (pool, 0u64)
        } else {
            (head, used)
        };
        // Claim the slot: durable early only wastes it, and it rides the
        // same drain as the node, before any link to the node.
        region.write_pod(self.desc + D_POOL_USED, &(slot + 1))?;
        region.flush(self.desc + D_POOL_USED, 8)?;
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

    /// `next` of `node` (0 = head) at `level` as the writer sees it: a
    /// staged link, else the stored pointer.
    #[inline]
    fn next(&self, node: u64, level: u64) -> Result<u64> {
        let slot = self.next_slot(node, level);
        let staged = if level == 0 {
            &self.staged
        } else {
            &self.staged_upper
        };
        match staged.get(&slot) {
            Some(n) => Ok(*n),
            None => Ok(self.heap.region().read_pod(slot)?),
        }
    }

    /// Find, per level, the last node (0 = head) whose key is `< probe`
    /// (strictly, so an insert lands in front of its equals and range scans
    /// start at the first equal entry).
    fn predecessors(&self, probe: &Value) -> Result<[u64; MAX_HEIGHT as usize]> {
        let region = self.heap.region();
        let mut preds = [0u64; MAX_HEIGHT as usize];
        let mut cur = 0u64; // head
        for level in (0..MAX_HEIGHT).rev() {
            loop {
                let next = self.next(cur, level)?;
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

    /// Stage a new row version carrying `value`: claim a slot, write the
    /// sealed node (and a text key's blob run) aimed at its successors,
    /// issue the write-backs, and remember the pointer stores that will link
    /// it. No fence, and no stored pointer changes until
    /// [`NvOrderedIndex::publish`].
    // pmlint: caller-flushes
    pub fn stage(&mut self, value: &Value, row: RowId) -> Result<()> {
        let key = self.stage_key(value)?;
        let count = self.len()?;
        let height = height_for(count);
        let preds = self.predecessors(value)?;
        let node = self.alloc_node()?;
        let mut next = [0u64; MAX_HEIGHT as usize];
        for l in 0..height {
            next[l as usize] = self.next(preds[l as usize], l)?;
        }
        let region = self.heap.region();
        region.write_bytes(node, nvm::slice_bytes(&node_words(key, row, height, next)))?;
        region.flush(node, NODE_SIZE)?;
        self.staged.insert(self.next_slot(preds[0], 0), node);
        for l in 1..height {
            self.staged_upper
                .insert(self.next_slot(preds[l as usize], l), node);
        }
        self.staged_count = Some(count + 1);
        Ok(())
    }

    /// True while nodes are staged whose level-0 links are unpublished.
    pub fn has_staged(&self) -> bool {
        !self.staged.is_empty()
    }

    /// First publish phase: the key blob's length word, if text keys were
    /// staged — stored and written back after the drain of their runs.
    /// Returns whether it was stored; the caller fences before
    /// [`NvOrderedIndex::publish`].
    // pmlint: caller-flushes
    pub fn publish_lens(&mut self) -> Result<bool> {
        let Some(len) = self.staged_blob_len.take() else {
            return Ok(false);
        };
        self.blob.publish_len(self.heap.region(), len)?;
        Ok(true)
    }

    /// Second publish phase: store the level-0 links of every staged node
    /// and issue their write-backs; the caller's next fence makes them
    /// durable. The nodes, the blob length and the rows the nodes name must
    /// have been drained before. Returns whether anything was stored.
    // pmlint: caller-flushes
    pub fn publish(&mut self) -> Result<bool> {
        let region = self.heap.region();
        let any = !self.staged.is_empty();
        for (slot, node) in std::mem::take(&mut self.staged) {
            region.write_pod(slot, &node)?;
            region.flush(slot, 8)?;
        }
        Ok(any)
    }

    /// After the fence that made the level-0 links durable: store the
    /// upper-level links and the entry count, best-effort — written back,
    /// durable with whatever fence comes next, harmless if lost.
    // pmlint: caller-flushes
    pub fn publish_upper(&mut self) -> Result<()> {
        let region = self.heap.region();
        for (slot, node) in std::mem::take(&mut self.staged_upper) {
            region.write_pod(slot, &node)?;
            region.flush(slot, 8)?;
        }
        if let Some(count) = self.staged_count.take() {
            region.write_pod(self.desc + D_COUNT, &count)?;
            region.flush(self.desc + D_COUNT, 8)?;
        }
        Ok(())
    }

    /// Register one row version through the whole protocol, on a handle
    /// with nothing staged: stage, drain, blob length, level-0 link, drain,
    /// upper links.
    pub fn insert(&self, value: &Value, row: RowId) -> Result<()> {
        debug_assert!(
            self.staged.is_empty(),
            "insert on a handle with staged nodes"
        );
        let region = self.heap.region();
        let mut one = self.clone();
        one.stage(value, row)?;
        region.fence();
        if one.publish_lens()? {
            region.fence();
        }
        one.publish()?;
        region.fence();
        one.publish_upper()
    }

    /// Candidate rows with key exactly `value`, in insertion order among
    /// equals is *not* guaranteed (callers treat results as a set and apply
    /// MVCC + verification).
    pub fn lookup(&self, value: &Value) -> Result<Vec<RowId>> {
        let region = self.heap.region();
        let preds = self.predecessors(value)?;
        let mut cur = self.next(preds[0], 0)?;
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
            cur = self.next(cur, 0)?;
        }
        Ok(out)
    }

    /// Candidate rows with `lo <= key < hi` (either bound optional).
    pub fn lookup_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Result<Vec<RowId>> {
        let region = self.heap.region();
        let mut cur = match lo {
            Some(v) => self.next(self.predecessors(v)?[0], 0)?,
            None => self.next(0, 0)?,
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
            cur = self.next(cur, 0)?;
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
        let keys = (0..table.row_count())
            .map(|row| table.value(row, column))
            .collect::<Result<Vec<Value>>>()?;
        Self::build_from_column(
            heap,
            column,
            &DictColumn::from_values(column, dtype, &keys)?,
        )
    }

    /// The one build path: an index over rows `0..` of `col`, whose index
    /// id is their position — a planned merge's column, letting the
    /// replacement index be built *before* the merge publishes. Rows are
    /// ordered by value id, equal ids newest first (where one insert per
    /// row would have left them), by one counting pass; the skip list is
    /// assembled in DRAM — all nodes in a single pool block — and staged
    /// with one bulk store and one range write-back per block. Nothing is
    /// fenced beyond the allocator's own protocols: the index is
    /// unreachable until its creator publishes the descriptor offset, after
    /// one drain. On failure every block allocated so far is freed before
    /// the error propagates.
    pub fn build_from_column(
        heap: &NvmHeap,
        column: usize,
        col: &DictColumn,
    ) -> Result<NvOrderedIndex> {
        let region = heap.region();
        let dtype = col.dtype();
        let ids = col.ids();
        let n = ids.len();
        let mut next = vec![0usize; col.words().len() + 1];
        for &id in ids {
            next[id as usize + 1] += 1;
        }
        for id in 1..next.len() {
            next[id] += next[id - 1];
        }
        let mut order = vec![0u32; n];
        for (row, &id) in ids.iter().enumerate().rev() {
            order[next[id as usize]] = row as u32;
            next[id as usize] += 1;
        }

        let mut blob_bytes: Vec<u8> = Vec::new();
        let words = if dtype == DataType::Text {
            order
                .iter()
                .map(|&row| {
                    let at = blob_bytes.len() as u64;
                    blob_bytes.extend_from_slice(col.text_run(ids[row as usize])?);
                    Ok(at)
                })
                .collect::<Result<Vec<u64>>>()?
        } else {
            let keys = (0..col.words().len() as u32)
                .map(|id| {
                    encode_fixed(&col.value(id)?).ok_or(StorageError::TypeMismatch {
                        column,
                        expected: dtype,
                    })
                })
                .collect::<Result<Vec<u64>>>()?;
            order
                .iter()
                .map(|&row| keys[ids[row as usize] as usize])
                .collect()
        };

        let mut blocks: Vec<u64> = Vec::new();
        let built =
            (|| -> Result<u64> {
                let desc = heap.alloc(NVORDERED_DESC_SIZE)?;
                blocks.push(desc);
                let mut head = [0u64; MAX_HEIGHT as usize];
                let mut pool = 0u64;
                if n > 0 {
                    pool = heap.alloc(POOL_HDR + n as u64 * NODE_SIZE)?;
                    blocks.push(pool);
                    // Back to front, so each node finds its successor per level
                    // in `head`, which ends up holding the list heads.
                    let mut image = vec![0u64; ((POOL_HDR + n as u64 * NODE_SIZE) / 8) as usize];
                    for pos in (0..n).rev() {
                        let height = height_for(pos as u64);
                        let mut next = [0u64; MAX_HEIGHT as usize];
                        next[..height as usize].copy_from_slice(&head[..height as usize]);
                        let at = (POOL_HDR + pos as u64 * NODE_SIZE) / 8;
                        image[at as usize..(at + NODE_SIZE / 8) as usize].copy_from_slice(
                            &node_words(words[pos], order[pos] as u64, height, next),
                        );
                        head[..height as usize].fill(pool + at * 8);
                    }
                    region.write_bytes(pool, nvm::slice_bytes(&image))?;
                    region.flush(pool, image.len() as u64 * 8)?;
                }
                // Column word also carries the type tag in its high byte so
                // `open` is self-contained. A full `pool_used` forces a regular
                // pool on the first insert.
                let mut image = [0u64; (D_BLOB / 8) as usize];
                image[..MAX_HEIGHT as usize].copy_from_slice(&head);
                image[(D_COLUMN / 8) as usize] = (dtype.tag() as u64) << 56 | column as u64;
                image[(D_COUNT / 8) as usize] = n as u64;
                image[(D_POOL_HEAD / 8) as usize] = pool;
                image[(D_POOL_USED / 8) as usize] = ORD_POOL_ENTRIES;
                region.write_bytes(desc, nvm::slice_bytes(&image))?;
                region.flush(desc, D_BLOB)?;
                PVec::<u8>::create_from(heap, desc + D_BLOB, &blob_bytes, 64)?;
                Ok(desc)
            })();
        match built {
            Ok(desc) => Self::open(heap, desc),
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

    /// Staged nodes are the writer's own — found by its lookups, chained to
    /// each other — until the publish phases; a crash in between drops them
    /// all, and one after the level-0 publish keeps them even though the
    /// upper links were never stored.
    #[test]
    fn staged_nodes_publish_in_phases() {
        let h = heap();
        let mut idx = NvOrderedIndex::create(&h, 0, DataType::Text).unwrap();
        let desc = idx.desc_offset();
        idx.insert(&"m".into(), 0).unwrap();
        h.region().fence();
        let keys = ["d", "x", "e", "a", "dd", "z", "b", "c", "y"];
        for (i, k) in keys.iter().enumerate() {
            idx.stage(&Value::Text(k.to_string()), i as u64 + 1)
                .unwrap();
        }
        let all = idx.lookup_range(None, None).unwrap();
        assert_eq!(
            all,
            vec![4, 7, 8, 1, 5, 3, 0, 2, 9, 6],
            "a b c d dd e m x y z"
        );
        assert_eq!(idx.lookup(&"dd".into()).unwrap(), vec![5]);
        assert_eq!(idx.len().unwrap(), 10);

        let reopened = |h: &NvmHeap| {
            let (h2, _) = NvmHeap::open(h.region().clone()).unwrap();
            NvOrderedIndex::open(&h2, desc).unwrap()
        };
        h.region().fence();
        assert!(idx.publish_lens().unwrap());
        h.region().fence();
        assert!(idx.publish().unwrap());
        h.region().fence();
        // Crash before `publish_upper`: every node is on level 0.
        h.region().crash(CrashPolicy::DropUnflushed);
        let idx2 = reopened(&h);
        assert_eq!(idx2.lookup_range(None, None).unwrap(), all);
        for (i, k) in keys.iter().enumerate() {
            let hits = idx2.lookup(&Value::Text(k.to_string())).unwrap();
            assert_eq!(hits, vec![i as u64 + 1], "key {k}");
        }
    }

    #[test]
    fn unpublished_staged_nodes_vanish_in_a_crash() {
        let h = heap();
        let mut idx = NvOrderedIndex::create(&h, 0, DataType::Int).unwrap();
        let desc = idx.desc_offset();
        for k in [5i64, 1, 9] {
            idx.insert(&Value::Int(k), k as u64).unwrap();
        }
        h.region().fence();
        for k in [3i64, 7, 4] {
            idx.stage(&Value::Int(k), k as u64).unwrap();
        }
        assert_eq!(
            idx.lookup_range(None, None).unwrap(),
            vec![1, 3, 4, 5, 7, 9]
        );
        h.region().fence();
        h.region().crash(CrashPolicy::DropUnflushed);
        let (h2, _) = NvmHeap::open(h.region().clone()).unwrap();
        let idx2 = NvOrderedIndex::open(&h2, desc).unwrap();
        assert_eq!(idx2.lookup_range(None, None).unwrap(), vec![1, 5, 9]);
        // The claimed slots are wasted, nothing else: inserts carry on.
        idx2.insert(&Value::Int(3), 3).unwrap();
        assert_eq!(idx2.lookup_range(None, None).unwrap(), vec![1, 3, 5, 9]);
    }

    /// The bulk build lays out what one insert per row would have, equal
    /// keys included, in one pool block; inserts carry on from it.
    #[test]
    fn bulk_build_matches_row_by_row_inserts() {
        for dtype in [DataType::Int, DataType::Text] {
            let h = heap();
            let key = |i: i64| match dtype {
                DataType::Text => Value::Text(format!("k{:03}", (i * 37) % 211)),
                _ => Value::Int((i * 37) % 211 - 100),
            };
            let rows: Vec<Vec<Value>> = (0..1500).map(|i| vec![Value::Int(0), key(i)]).collect();
            let blocks_before = h.walk().unwrap().len();
            let col = DictColumn::from_values(1, dtype, rows.iter().map(|r| &r[1])).unwrap();
            let bulk = NvOrderedIndex::build_from_column(&h, 1, &col).unwrap();
            assert_eq!(
                h.walk().unwrap().len() - blocks_before,
                3,
                "desc, pool, blob"
            );
            let one_by_one = NvOrderedIndex::create(&h, 1, dtype).unwrap();
            for (row, r) in rows.iter().enumerate() {
                one_by_one.insert(&r[1], row as u64).unwrap();
            }
            assert_eq!(
                bulk.lookup_range(None, None).unwrap(),
                one_by_one.lookup_range(None, None).unwrap(),
                "{dtype:?}"
            );
            assert_eq!(bulk.len().unwrap(), 1500);
            let (lo, hi) = (key(3), key(4));
            let (lo, hi) = if lo < hi { (lo, hi) } else { (hi, lo) };
            assert_eq!(
                bulk.lookup_range(Some(&lo), Some(&hi)).unwrap(),
                one_by_one.lookup_range(Some(&lo), Some(&hi)).unwrap()
            );
            bulk.insert(&key(7), 1500).unwrap();
            assert!(bulk.lookup(&key(7)).unwrap().contains(&1500));
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
