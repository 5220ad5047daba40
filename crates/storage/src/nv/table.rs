//! The NVM-resident main/delta table.
//!
//! ## Persistent layout
//!
//! ```text
//! TableRoot   (24 B)  : schema_ptr | pair_ptr | reserved
//! PairBlock   (80 B)  : delta_ptr | main_ptr (0 = no main) | aux[8]
//! DeltaDesc           : row_count                          (publish point)
//!                       begin  PSlab<u64> header
//!                       end    PSlab<u64> header
//!                       per column: dict PVec<u64> header + av PSlab<u32> header
//! MainDesc            : row_count | end_ptr
//!                       per column: dict_ptr | dict_len | av_ptr | av_words |
//!                                   width | blob_ptr | blob_len | checksum
//! ```
//!
//! The per-column checksum is a [`util::hash::seal`] over the column's
//! immutable media — the descriptor words themselves, the sorted dictionary,
//! the string blob, and the packed attribute vector — sealed once at merge
//! time and verified by [`NvTable::verify_media`]. The *mutable* words (MVCC
//! begin/end timestamps, the delta row counter) cannot carry content
//! checksums without destroying single-word commit atomicity; they get
//! plausibility checks instead (a timestamp must be pending, aborted,
//! infinity, or ≤ the published last commit timestamp). A media fault that
//! forges a plausible timestamp in a mutable word is therefore detected only
//! indirectly — the documented residual gap of this fault model.
//!
//! Dictionary entry words hold the value directly for `Int`/`Double` and a
//! string-block offset for `Text`.
//!
//! The pair block's `aux` words are opaque to this crate: whatever their
//! owner keeps there (the engine: one index descriptor per slot) is swapped
//! by the same single pointer store that swaps main and delta at a merge.
//!
//! ## Ordering protocols
//!
//! Every write is *staged* — plain stores plus write-backs, no fence —
//! then *drained* by one fence, then *published* by a publish word that is
//! stored only after that drain.
//!
//! * **Insert** ([`TableStore::insert_version`]) stages only: dictionary
//!   and blob entries for values the delta has not seen, the row's
//!   attribute-vector cells and its MVCC words. The handle's row count
//!   advances, so the writer reads its own row, but nothing durable
//!   reaches it. Publishing is [`NvTable::publish_lens`] (dictionary and
//!   blob length words — they carry a checksum of the content they cover,
//!   so they follow its drain) and then, one fence later,
//!   [`NvTable::publish_rows`] (the row counter, which must not cover a
//!   cell whose dictionary entry is not yet published). The engine runs
//!   both phases once per commit for every staged row of every table;
//!   [`NvTable::publish`] is the same sequence for a table on its own. A
//!   crash before the row-counter publish leaves the rows nonexistent;
//!   after it, they exist but are gated by their begin timestamps.
//! * **Invalidate / commit stamps**: in-place stores of MVCC words with a
//!   write-back and no fence; the committer's one drain before the global
//!   commit-timestamp publish orders them. The self-persisting variants
//!   (`commit_insert`, `commit_invalidate`, `abort_insert`, `restore_end`)
//!   publish whatever is staged first and fence their own store.
//! * **Merge**: builds a complete new main + empty delta + pair block in
//!   fresh allocations with bulk stores and range write-backs, drains
//!   once, then swaps one pointer (the pair block) via the allocator's
//!   crash-safe replace step, then frees the old tree. A crash mid-free
//!   leaks blocks (documented; compaction reclaims them in real engines).

use std::collections::HashMap;

use nvm::{NvmHeap, NvmRegion, PArray, PSlab, PVec, PSLAB_HEADER, PVEC_HEADER};

use crate::bitpack;
use crate::dict::{self, text_key, TotalF64};
use crate::mvcc::{self, TS_INF};
use crate::nv::text::read_string;
use crate::table_ops::{MergeStats, TableStore};
use crate::{ColumnId, DataType, DictColumn, Result, RowId, Schema, StorageError, Value};

/// Byte size of the table root block.
pub const TABLE_ROOT_SIZE: u64 = 24;

const ROOT_SCHEMA: u64 = 0;
const ROOT_PAIR: u64 = 8;

/// Opaque owner words carried in the pair block, so that one pair swap
/// replaces them together with main and delta.
pub const PAIR_AUX_SLOTS: usize = 8;

const PAIR_DELTA: u64 = 0;
const PAIR_MAIN: u64 = 8;
const PAIR_AUX: u64 = 16;
const PAIR_SIZE: u64 = PAIR_AUX + 8 * PAIR_AUX_SLOTS as u64;

const DD_ROWS: u64 = 0;
const DD_BEGIN: u64 = 8;
const DD_END: u64 = DD_BEGIN + PSLAB_HEADER;
const DD_COLS: u64 = DD_END + PSLAB_HEADER;
const DD_COL_STRIDE: u64 = PVEC_HEADER + PSLAB_HEADER + PVEC_HEADER + 8; // dict + av + text blob + pad

const MD_ROWS: u64 = 0;
const MD_END: u64 = 8;
const MD_COLS: u64 = 16;
const MD_COL_STRIDE: u64 = 64;
/// Offset of the per-column checksum within a main column descriptor; the
/// checksum covers the `MC_SUM_COVERS` descriptor bytes before it plus the
/// dictionary, blob, and attribute-vector payloads.
const MC_SUM: u64 = 56;
const MC_SUM_COVERS: u64 = 56;

fn delta_desc_size(ncols: usize) -> u64 {
    DD_COLS + ncols as u64 * DD_COL_STRIDE
}

fn main_desc_size(ncols: usize) -> u64 {
    MD_COLS + ncols as u64 * MD_COL_STRIDE
}

struct DeltaCol {
    dict: PVec<u64>,
    /// Dictionary entries staged so far; the vector's own length word
    /// publishes them at [`NvTable::publish_lens`].
    dict_len: u64,
    av: PSlab<u32>,
    /// Per-column string blob: text dictionary entries are local offsets
    /// into this byte run (one block per column, not one per string — the
    /// contiguous layout Hyrise uses, and what keeps the allocator's
    /// recovery scan metadata-bound).
    blob: PVec<u8>,
    /// Blob bytes staged so far.
    blob_len: u64,
    /// Entries or bytes are staged beyond the published lengths.
    unpublished: bool,
}

struct DeltaHandle {
    desc: u64,
    /// Rows staged so far: what the writer sees. The durable row counter
    /// covers the first `published` of them.
    rows: u64,
    published: u64,
    begin: PSlab<u64>,
    end: PSlab<u64>,
    cols: Vec<DeltaCol>,
    /// Transient probe maps (value → value-id), rebuilt on open.
    probes: Vec<HashMap<Value, u32>>,
}

struct MainCol {
    dict_ptr: u64,
    dict_len: u64,
    /// Packed attribute vector as raw words.
    av: PArray<u64>,
    width: u32,
    /// Text blob payload offset (0 for non-text columns); dictionary
    /// entries are local offsets into it.
    blob_ptr: u64,
    /// Byte length of the text blob (0 for non-text columns).
    blob_len: u64,
}

struct MainHandle {
    rows: u64,
    end: PArray<u64>,
    cols: Vec<MainCol>,
}

/// Decode a main descriptor's words (see the layout above).
fn main_handle(desc: &[u64], ncols: usize) -> MainHandle {
    let rows = desc[(MD_ROWS / 8) as usize];
    let cols = (0..ncols)
        .map(|c| {
            let w = &desc[(MD_COLS / 8) as usize + c * (MD_COL_STRIDE / 8) as usize..];
            MainCol {
                dict_ptr: w[0],
                dict_len: w[1],
                av: PArray::at(w[2], w[3]),
                width: w[4] as u32,
                blob_ptr: w[5],
                blob_len: w[6],
            }
        })
        .collect();
    MainHandle {
        rows,
        end: PArray::at(desc[(MD_END / 8) as usize], rows),
        cols,
    }
}

impl DeltaHandle {
    /// The handle of a freshly created, empty delta descriptor.
    fn empty(desc: u64, ncols: usize) -> DeltaHandle {
        DeltaHandle {
            desc,
            rows: 0,
            published: 0,
            begin: PSlab::open(desc + DD_BEGIN),
            end: PSlab::open(desc + DD_END),
            cols: (0..ncols as u64)
                .map(|c| {
                    let base = desc + DD_COLS + c * DD_COL_STRIDE;
                    DeltaCol {
                        dict: PVec::open(base),
                        dict_len: 0,
                        av: PSlab::open(base + PVEC_HEADER),
                        blob: PVec::open(base + PVEC_HEADER + PSLAB_HEADER),
                        blob_len: 0,
                        unpublished: false,
                    }
                })
                .collect(),
            probes: vec![HashMap::new(); ncols],
        }
    }
}

/// An NVM-resident table. The struct itself is the *volatile handle*: cheap
/// to rebuild, holding cached offsets, row counters, and the transient probe
/// maps. All data it points at lives on the heap.
pub struct NvTable {
    heap: NvmHeap,
    root: u64,
    /// The current pair block.
    pair: u64,
    schema: Schema,
    delta: DeltaHandle,
    main: Option<MainHandle>,
}

impl NvTable {
    /// Create a fresh table on `heap`. Returns the handle; the root block
    /// offset is available via [`NvTable::root_offset`] for cataloguing.
    ///
    /// Creation is not crash-atomic as a whole (a crash mid-create of a
    /// fresh database is resolved by re-creating it); individual blocks use
    /// the normal allocation protocol.
    pub fn create(heap: &NvmHeap, schema: Schema) -> Result<NvTable> {
        let region = heap.region().clone();
        let ncols = schema.len();

        // Schema block: [len: u64][bytes].
        let schema_bytes = schema.to_bytes();
        let schema_ptr = heap.alloc(8 + schema_bytes.len() as u64)?;
        region.write_pod(schema_ptr, &(schema_bytes.len() as u64))?;
        region.write_bytes(schema_ptr + 8, &schema_bytes)?;
        region.persist(schema_ptr, 8 + schema_bytes.len() as u64)?;

        let delta_desc = Self::create_delta_desc(heap, ncols)?;

        let pair = heap.alloc(PAIR_SIZE)?;
        region.write_bytes(pair, &pair_image(delta_desc, 0, &[]))?;
        region.persist(pair, PAIR_SIZE)?;

        let root = heap.alloc(TABLE_ROOT_SIZE)?;
        region.write_pod(root + ROOT_SCHEMA, &schema_ptr)?;
        region.write_pod(root + ROOT_PAIR, &pair)?;
        region.write_pod(root + 16, &0u64)?;
        region.persist(root, TABLE_ROOT_SIZE)?;

        Self::open(heap, root)
    }

    fn create_delta_desc(heap: &NvmHeap, ncols: usize) -> Result<u64> {
        let region = heap.region();
        let desc = heap.alloc(delta_desc_size(ncols))?;
        // Zero the descriptor before initialising it: a recycled block may
        // hold stale pointers, and the exhaustion unwind below walks the
        // descriptor to free whatever a partial init managed to allocate.
        // Nothing can reach the descriptor until the pair (or table) that
        // names it is published, so it is only staged here: the zeroed row
        // counter and every header ride its publisher's drain.
        region.write_bytes(desc, &vec![0u8; delta_desc_size(ncols) as usize])?;
        region.flush(desc, delta_desc_size(ncols))?;
        let init = (|| -> Result<()> {
            PSlab::<u64>::create(heap, desc + DD_BEGIN, 16)?;
            PSlab::<u64>::create(heap, desc + DD_END, 16)?;
            for c in 0..ncols as u64 {
                let base = desc + DD_COLS + c * DD_COL_STRIDE;
                PVec::<u64>::create(heap, base, 8)?;
                PSlab::<u32>::create(heap, base + PVEC_HEADER, 16)?;
                PVec::<u8>::create(heap, base + PVEC_HEADER + PSLAB_HEADER, 64)?;
            }
            Ok(())
        })();
        match init {
            Ok(()) => Ok(desc),
            Err(e) => {
                let _ = Self::free_delta_tree_in(heap, desc, ncols);
                Err(e)
            }
        }
    }

    /// Re-attach to an existing table given its root block offset. Runs the
    /// transient-rebuild step (probe maps, cached counters) — the only
    /// data-dependent work on the Hyrise-NV restart path.
    pub fn open(heap: &NvmHeap, root: u64) -> Result<NvTable> {
        let region = heap.region().clone();
        let schema_ptr: u64 = region.read_pod(root + ROOT_SCHEMA)?;
        let schema_len: u64 = region.read_pod(schema_ptr)?;
        if schema_len > 1 << 20 {
            return Err(StorageError::Corrupt {
                reason: "implausible schema length",
            });
        }
        let schema_bytes = region.with_slice(schema_ptr + 8, schema_len, |b| b.to_vec())?;
        let schema = Schema::from_bytes(&schema_bytes)?;
        let ncols = schema.len();

        let pair: u64 = region.read_pod(root + ROOT_PAIR)?;
        let delta_desc: u64 = region.read_pod(pair + PAIR_DELTA)?;
        let main_desc: u64 = region.read_pod(pair + PAIR_MAIN)?;

        // pmlint: observe(delta-rows)
        let rows: u64 = region.load_u64_acquire(delta_desc + DD_ROWS)?;
        let mut cols = Vec::with_capacity(ncols);
        for c in 0..ncols as u64 {
            let base = delta_desc + DD_COLS + c * DD_COL_STRIDE;
            let dict = PVec::<u64>::open(base);
            let blob = PVec::<u8>::open(base + PVEC_HEADER + PSLAB_HEADER);
            cols.push(DeltaCol {
                dict_len: dict.len(&region)?,
                dict,
                av: PSlab::open(base + PVEC_HEADER),
                blob_len: blob.len(&region)?,
                blob,
                unpublished: false,
            });
        }
        let mut delta = DeltaHandle {
            desc: delta_desc,
            rows,
            published: rows,
            begin: PSlab::open(delta_desc + DD_BEGIN),
            end: PSlab::open(delta_desc + DD_END),
            cols,
            probes: vec![HashMap::new(); ncols],
        };
        // Transient rebuild: probe maps from the persistent dictionaries.
        // Bulk-reads the dictionary words and the whole string blob once,
        // then decodes locally — one lock acquisition per column instead of
        // two per entry. A text entry's run is read wherever it lies in the
        // blob's block: the dictionary, not the blob's own length word,
        // says which bytes are live (the two length words are published
        // under one fence, and a crash may have kept only the
        // dictionary's).
        for c in 0..ncols {
            let dtype = schema.column(c)?.dtype;
            let col = &mut delta.cols[c];
            let words = col.dict.to_vec(&region)?;
            let blob_bytes = if dtype == DataType::Text {
                col.blob.prefix(&region, col.blob.capacity(&region)?)?
            } else {
                Vec::new()
            };
            let mut probe = HashMap::with_capacity(words.len());
            for (id, w) in words.iter().enumerate() {
                let v = match dtype {
                    DataType::Int => Value::Int(*w as i64),
                    DataType::Double => Value::Double(f64::from_bits(*w)),
                    DataType::Text => {
                        let s = text_key(&blob_bytes, *w)?;
                        col.blob_len = col.blob_len.max(*w + 4 + s.len() as u64);
                        Value::Text(s.to_owned())
                    }
                };
                probe.insert(v, id as u32);
            }
            delta.probes[c] = probe;
        }

        let main = if main_desc != 0 {
            Some(Self::open_main(&region, main_desc, ncols)?)
        } else {
            None
        };

        Ok(NvTable {
            heap: heap.clone(),
            root,
            pair,
            schema,
            delta,
            main,
        })
    }

    fn open_main(region: &NvmRegion, desc: u64, ncols: usize) -> Result<MainHandle> {
        let words = PArray::<u64>::at(desc, main_desc_size(ncols) / 8).to_vec(region)?;
        Ok(main_handle(&words, ncols))
    }

    /// Offset of the table's root block (for catalogues and re-opening).
    pub fn root_offset(&self) -> u64 {
        self.root
    }

    /// The heap this table lives on.
    pub fn heap(&self) -> &NvmHeap {
        &self.heap
    }

    /// `(offset, len)` of the delta row counter — the publish word of the
    /// `delta-append` persist-order protocol (label `delta-rows`).
    pub fn rows_publish_extent(&self) -> (u64, u64) {
        (self.delta.desc + DD_ROWS, 8)
    }

    /// `(offset, len)` of the root's descriptor-pair pointer — the publish
    /// word of the `merge-publish` protocol (label `table-pair`).
    pub fn pair_publish_extent(&self) -> (u64, u64) {
        (self.root + ROOT_PAIR, 8)
    }

    /// `(offset, len)` of pair-block aux word `slot`.
    pub fn aux_extent(&self, slot: usize) -> (u64, u64) {
        debug_assert!(slot < PAIR_AUX_SLOTS);
        (self.pair + PAIR_AUX + 8 * slot as u64, 8)
    }

    /// Read pair-block aux word `slot` (0 = never set).
    pub fn aux(&self, slot: usize) -> Result<u64> {
        Ok(self.region().load_u64_acquire(self.aux_extent(slot).0)?)
    }

    /// Store aux word `slot` of the *current* pair block and issue its
    /// write-back; the caller fences (and has drained whatever the word
    /// makes reachable). A merge writes the aux words of the *new* pair
    /// instead — see [`NvTable::merge_from_plan`].
    // pmlint: caller-flushes
    pub fn stage_aux(&self, slot: usize, value: u64) -> Result<()> {
        let (off, len) = self.aux_extent(slot);
        self.region().store_u64_release(off, value)?;
        Ok(self.region().flush(off, len)?)
    }

    fn region(&self) -> &NvmRegion {
        self.heap.region()
    }

    fn main_rows_(&self) -> u64 {
        self.main.as_ref().map_or(0, |m| m.rows)
    }

    /// The main handle when a row split resolved to the main partition; a
    /// missing handle then means the descriptors contradict each other
    /// (damaged media), not a caller bug — so it is a typed error.
    fn main_ref(&self) -> Result<&MainHandle> {
        self.main.as_ref().ok_or(StorageError::Corrupt {
            reason: "row maps to the main partition but no main descriptor exists",
        })
    }

    fn split(&self, row: RowId) -> Result<(bool, u64)> {
        let main_rows = self.main_rows_();
        let total = main_rows + self.delta.rows;
        if row < main_rows {
            Ok((true, row))
        } else if row < total {
            Ok((false, row - main_rows))
        } else {
            Err(StorageError::RowOutOfRange { row, rows: total })
        }
    }

    fn check_col(&self, col: ColumnId) -> Result<()> {
        if col < self.schema.len() {
            Ok(())
        } else {
            Err(StorageError::ColumnOutOfRange {
                column: col,
                columns: self.schema.len(),
            })
        }
    }

    /// Intern `v` into the delta dictionary of column `c`: a value the
    /// delta has not seen is staged (blob run, then dictionary word) and
    /// published with the column's next [`NvTable::publish_lens`].
    fn intern(&mut self, c: ColumnId, v: &Value) -> Result<u32> {
        if let Some(&id) = self.delta.probes[c].get(v) {
            return Ok(id);
        }
        let col = &mut self.delta.cols[c];
        let word = match v {
            Value::Text(s) => {
                let mut run = Vec::with_capacity(4 + s.len());
                run.extend_from_slice(&(s.len() as u32).to_le_bytes());
                run.extend_from_slice(s.as_bytes());
                let at = col.blob_len;
                col.blob.stage_bytes(&self.heap, at, &run)?;
                col.blob_len += run.len() as u64;
                col.unpublished = true;
                at
            }
            other => other.as_word().ok_or(StorageError::Corrupt {
                reason: "non-text value has no word encoding",
            })?,
        };
        let id = col.dict_len;
        col.dict.stage(&self.heap, id, &word)?;
        col.dict_len += 1;
        col.unpublished = true;
        self.delta.probes[c].insert(v.clone(), id as u32);
        Ok(id as u32)
    }

    fn delta_dict_value(&self, c: ColumnId, id: u32) -> Result<Value> {
        if id as u64 >= self.delta.cols[c].dict_len {
            return Err(StorageError::Corrupt {
                reason: "delta value id outside the delta dictionary",
            });
        }
        let word = self.delta.cols[c].dict.staged(self.region(), id as u64)?;
        decode_delta_entry(
            self.region(),
            self.schema.column(c)?.dtype,
            &self.delta.cols[c].blob,
            word,
        )
    }

    fn main_dict_value(&self, m: &MainHandle, c: ColumnId, id: u64) -> Result<Value> {
        let word: u64 = self.region().read_pod(m.cols[c].dict_ptr + id * 8)?;
        match self.schema.column(c)?.dtype {
            DataType::Text => Ok(Value::Text(
                read_string(&self.heap, m.cols[c].blob_ptr + word)?.to_string(),
            )),
            DataType::Int => Ok(Value::Int(word as i64)),
            DataType::Double => Ok(Value::Double(f64::from_bits(word))),
        }
    }

    /// Binary search the sorted main dictionary of column `c`; returns
    /// `Ok(id)` on a hit, `Err(insertion_point)` otherwise.
    fn main_dict_search(
        &self,
        m: &MainHandle,
        c: ColumnId,
        v: &Value,
    ) -> Result<std::result::Result<u64, u64>> {
        let mut lo = 0u64;
        let mut hi = m.cols[c].dict_len;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let dv = self.main_dict_value(m, c, mid)?;
            match dv.cmp(v) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Equal => return Ok(Ok(mid)),
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Ok(Err(lo))
    }

    /// Lower bound (first id whose value is >= v) in the sorted main dict.
    fn main_dict_lower_bound(&self, m: &MainHandle, c: ColumnId, v: &Value) -> Result<u64> {
        Ok(match self.main_dict_search(m, c, v)? {
            Ok(id) => id,
            Err(ip) => ip,
        })
    }

    fn main_av_ids(&self, m: &MainHandle, c: ColumnId) -> Result<Vec<u64>> {
        let words = m.cols[c].av.to_vec(self.region())?;
        let width = m.cols[c].width;
        self.region().charge_read(m.cols[c].av.byte_len());
        Ok((0..m.rows)
            .map(|i| bitpack::unpack_at(&words, width, i))
            .collect())
    }

    fn delta_av_ids(&self, c: ColumnId) -> Result<Vec<u32>> {
        Ok(self.delta.cols[c]
            .av
            .prefix(self.region(), self.delta.rows)?)
    }

    fn main_end_vec(&self) -> Result<Vec<u64>> {
        match &self.main {
            Some(m) => Ok(m.end.to_vec(self.region())?),
            None => Ok(Vec::new()),
        }
    }

    fn delta_begin_vec(&self) -> Result<Vec<u64>> {
        Ok(self.delta.begin.prefix(self.region(), self.delta.rows)?)
    }

    fn delta_end_vec(&self) -> Result<Vec<u64>> {
        Ok(self.delta.end.prefix(self.region(), self.delta.rows)?)
    }

    fn visible_filter(
        &self,
        candidates: impl Iterator<Item = RowId>,
        snapshot: u64,
        tid: u64,
    ) -> Result<Vec<RowId>> {
        let main_rows = self.main_rows_();
        let m_end = self.main_end_vec()?;
        let d_begin = self.delta_begin_vec()?;
        let d_end = self.delta_end_vec()?;
        Ok(candidates
            .filter(|&r| {
                if r < main_rows {
                    mvcc::visible(0, m_end[r as usize], snapshot, tid)
                } else {
                    let i = (r - main_rows) as usize;
                    mvcc::visible(d_begin[i], d_end[i], snapshot, tid)
                }
            })
            .collect())
    }

    /// Idempotently repair one row's MVCC words against the durably
    /// published `last_cts`: pending markers and timestamps beyond it roll
    /// back. Returns the number of words changed. Used by the engine's
    /// registry-driven recovery (O(in-flight writes) instead of O(rows)).
    pub fn repair_row(&mut self, row: RowId, last_cts: u64) -> Result<u64> {
        let (in_main, i) = self.split(row)?;
        let region = self.heap.region().clone();
        let mut repaired = 0u64;
        if in_main {
            let m = self.main_ref()?;
            let e = m.end.get(&region, i)?;
            if mvcc::is_pending(e) || (mvcc::is_committed(e) && e > last_cts) {
                m.end.store(&region, i, &TS_INF)?;
                repaired += 1;
            }
        } else {
            let b = self.delta.begin.get(&region, i)?;
            if mvcc::is_pending(b) || (mvcc::is_committed(b) && b > last_cts) {
                self.delta.begin.store(&region, i, &mvcc::TS_ABORTED)?;
                repaired += 1;
            }
            let e = self.delta.end.get(&region, i)?;
            if mvcc::is_pending(e) || (mvcc::is_committed(e) && e != TS_INF && e > last_cts) {
                self.delta.end.store(&region, i, &TS_INF)?;
                repaired += 1;
            }
        }
        Ok(repaired)
    }

    /// Post-crash MVCC repair by full scan: roll back every effect of
    /// transactions that did not durably commit (pending markers, and
    /// commit timestamps beyond the published `last_cts`). Scans only the
    /// timestamp arrays — never column data — but is still O(rows); the
    /// engine prefers the registry-driven [`NvTable::repair_row`] path and
    /// keeps this as the fallback undo pass (and for tests/ablations).
    pub fn recover_mvcc(&mut self, last_cts: u64) -> Result<u64> {
        let region = self.heap.region().clone();
        let mut repaired = 0u64;
        let rows = self.delta.rows;
        let begins = self.delta_begin_vec()?;
        let ends = self.delta_end_vec()?;
        for i in 0..rows {
            let b = begins[i as usize];
            if mvcc::is_pending(b) || (mvcc::is_committed(b) && b > last_cts) {
                self.delta.begin.store(&region, i, &mvcc::TS_ABORTED)?;
                repaired += 1;
            }
            let e = ends[i as usize];
            if mvcc::is_pending(e) || (mvcc::is_committed(e) && e != TS_INF && e > last_cts) {
                self.delta.end.store(&region, i, &TS_INF)?;
                repaired += 1;
            }
        }
        if let Some(m) = &self.main {
            let ends = m.end.to_vec(&region)?;
            for (i, e) in ends.iter().enumerate() {
                if mvcc::is_pending(*e) || (mvcc::is_committed(*e) && *e > last_cts) {
                    m.end.store(&region, i as u64, &TS_INF)?;
                    repaired += 1;
                }
            }
        }
        Ok(repaired)
    }

    /// True while rows, dictionary entries or blob bytes are staged beyond
    /// what the durable publish words cover.
    pub fn has_staged(&self) -> bool {
        self.delta.rows != self.delta.published || self.delta.cols.iter().any(|c| c.unpublished)
    }

    /// First publish phase: the dictionary and blob length words of every
    /// column with staged entries, each stored and written back. The staged
    /// data must have been drained before; returns whether anything was
    /// stored, in which case the caller fences before
    /// [`NvTable::publish_rows`].
    // pmlint: caller-flushes
    pub fn publish_lens(&mut self) -> Result<bool> {
        let region = self.heap.region();
        let mut any = false;
        for col in self.delta.cols.iter_mut().filter(|c| c.unpublished) {
            col.blob.publish_len(region, col.blob_len)?;
            col.dict.publish_len(region, col.dict_len)?;
            col.unpublished = false;
            any = true;
        }
        Ok(any)
    }

    /// Second publish phase: the row counter covers every staged row. Their
    /// cells, MVCC words and dictionary lengths must be durable; returns
    /// whether the counter moved, in which case the caller fences before
    /// anything that relies on the rows existing (an index entry naming
    /// one, the commit timestamp).
    // pmlint: caller-flushes
    pub fn publish_rows(&mut self) -> Result<bool> {
        if self.delta.rows == self.delta.published {
            return Ok(false);
        }
        let region = self.heap.region();
        // pmlint: publish(delta-rows)
        region.store_u64_release(self.delta.desc + DD_ROWS, self.delta.rows)?;
        region.flush(self.delta.desc + DD_ROWS, 8)?;
        self.delta.published = self.delta.rows;
        Ok(true)
    }

    /// Publish everything staged on this table, on its own: drain, length
    /// words, fence, row counter, fence. The engine's commit runs the same
    /// phases across all tables and indexes under shared fences.
    pub fn publish(&mut self) -> Result<()> {
        if !self.has_staged() {
            return Ok(());
        }
        self.region().fence();
        if self.publish_lens()? {
            self.region().fence();
        }
        if self.publish_rows()? {
            self.region().fence();
        }
        Ok(())
    }
}

/// The bytes of a pair block naming `delta` and `main`, its leading aux
/// words set from `aux` and the rest zero.
fn pair_image(delta: u64, main: u64, aux: &[u64]) -> Vec<u8> {
    let mut words = [0u64; (PAIR_SIZE / 8) as usize];
    words[(PAIR_DELTA / 8) as usize] = delta;
    words[(PAIR_MAIN / 8) as usize] = main;
    for (w, a) in words[(PAIR_AUX / 8) as usize..].iter_mut().zip(aux) {
        *w = *a;
    }
    nvm::slice_bytes(&words).to_vec()
}

/// Fingerprint one main column's immutable media: the descriptor words
/// before the checksum slot, then dictionary, blob, and attribute vector.
fn main_col_sum(region: &NvmRegion, base: u64) -> Result<u64> {
    let dict_ptr: u64 = region.read_pod(base)?;
    let dict_len: u64 = region.read_pod(base + 8)?;
    let av_ptr: u64 = region.read_pod(base + 16)?;
    let av_words: u64 = region.read_pod(base + 24)?;
    let blob_ptr: u64 = region.read_pod(base + 40)?;
    let blob_len: u64 = region.read_pod(base + 48)?;
    let mut sum = region.with_slice(base, MC_SUM_COVERS, util::hash::seal)?;
    for (ptr, len) in [
        (dict_ptr, dict_len * 8),
        (blob_ptr, blob_len),
        (av_ptr, av_words * 8),
    ] {
        if len > 0 {
            sum = region.with_slice(ptr, len, |b| util::hash::seal_continue(sum, b))?;
        }
    }
    Ok(sum)
}

/// A timestamp word is *plausible* iff it is one of the states the MVCC
/// protocol can legitimately leave behind: a pending marker, the aborted
/// sentinel, infinity, or a commit timestamp no later than the published
/// `last_cts`. Media faults that forge exactly one of these states evade the
/// check (see the module docs); everything else is caught.
fn plausible_ts(ts: u64, last_cts: u64) -> bool {
    mvcc::is_pending(ts) || ts == mvcc::TS_ABORTED || ts == TS_INF || ts <= last_cts
}

/// One contiguous run of table media, as reported by
/// [`NvTable::media_extents`] — the targeting map for fault-injection
/// harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaExtent {
    /// What the bytes hold (stable label, usable in artifacts).
    pub what: &'static str,
    /// Start offset in the region.
    pub offset: u64,
    /// Byte length.
    pub len: u64,
    /// Whether a content checksum covers the run (mutable runs are only
    /// plausibility-checked).
    pub checksummed: bool,
}

/// Decode a delta dictionary entry word into a value (text entries are
/// local offsets into the column's blob).
fn decode_delta_entry(
    region: &NvmRegion,
    dtype: DataType,
    blob: &PVec<u8>,
    word: u64,
) -> Result<Value> {
    Ok(match dtype {
        DataType::Int => Value::Int(word as i64),
        DataType::Double => Value::Double(f64::from_bits(word)),
        DataType::Text => {
            let len_bytes = blob.read_bytes_at(region, word, 4)?;
            let n = u32::from_le_bytes(len_bytes.try_into().map_err(|_| StorageError::Corrupt {
                reason: "truncated blob length prefix",
            })?) as u64;
            let bytes = blob.read_bytes_at(region, word + 4, n)?;
            Value::Text(String::from_utf8(bytes).map_err(|_| StorageError::Corrupt {
                reason: "delta blob string not utf-8",
            })?)
        }
    })
}

/// Free the data block behind a `PSlab` header.
fn free_slab_data(heap: &NvmHeap, region: &NvmRegion, hdr: u64) -> Result<()> {
    let data: u64 = region.read_pod(hdr + 8)?;
    if data != 0 {
        heap.free(data, None)?;
    }
    Ok(())
}

impl TableStore for NvTable {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn row_count(&self) -> u64 {
        self.main_rows_() + self.delta.rows
    }

    fn main_rows(&self) -> u64 {
        self.main_rows_()
    }

    fn insert_version(&mut self, values: &[Value], begin_marker: u64) -> Result<RowId> {
        self.schema.check_row(values)?;
        let region = self.heap.region().clone();
        let idx = self.delta.rows;

        // 1. Stage dictionary (and blob) entries for unseen values.
        let mut ids = Vec::with_capacity(values.len());
        for (c, v) in values.iter().enumerate() {
            ids.push(self.intern(c, v)?);
        }

        // 2. Grow arrays as needed (crash-safe pointer swaps inside); the
        // live prefix includes every staged row.
        self.delta.begin.ensure(&self.heap, idx, idx)?;
        self.delta.end.ensure(&self.heap, idx, idx)?;
        for c in 0..values.len() {
            self.delta.cols[c].av.ensure(&self.heap, idx, idx)?;
        }

        // 3. Stage the row's cells and MVCC words. No fence and no publish:
        // the row counter covers the row at `publish_rows`, after the
        // committer's drain.
        for (c, id) in ids.iter().enumerate() {
            self.delta.cols[c].av.store_unfenced(&region, idx, id)?;
        }
        self.delta
            .begin
            .store_unfenced(&region, idx, &begin_marker)?;
        self.delta.end.store_unfenced(&region, idx, &TS_INF)?;
        self.delta.rows = idx + 1;
        Ok(self.main_rows_() + idx)
    }

    fn try_invalidate(&mut self, row: RowId, marker: u64) -> Result<()> {
        let (in_main, i) = self.split(row)?;
        let region = self.region();
        let current = if in_main {
            self.main_ref()?.end.get(region, i)?
        } else {
            self.delta.end.get(region, i)?
        };
        if current != TS_INF {
            return Err(StorageError::WriteConflict { row });
        }
        // Staged: the marker need not be durable before the commit (or the
        // abort) replaces it — but the caller's registry record of this
        // row must be, before this store.
        if in_main {
            self.main_ref()?.end.store_unfenced(region, i, &marker)?;
        } else {
            self.delta.end.store_unfenced(region, i, &marker)?;
        }
        Ok(())
    }

    fn restore_end(&mut self, row: RowId) -> Result<()> {
        self.publish()?;
        let (in_main, i) = self.split(row)?;
        let region = self.region();
        if in_main {
            self.main_ref()?.end.store(region, i, &TS_INF)?;
        } else {
            self.delta.end.store(region, i, &TS_INF)?;
        }
        Ok(())
    }

    fn abort_insert(&mut self, row: RowId) -> Result<()> {
        self.publish()?;
        let (in_main, i) = self.split(row)?;
        if in_main {
            return Err(StorageError::MainRowImmutable { row });
        }
        let region = self.region();
        self.delta.begin.store(region, i, &mvcc::TS_ABORTED)?;
        Ok(())
    }

    fn commit_insert(&mut self, row: RowId, cts: u64) -> Result<()> {
        self.publish()?;
        let (in_main, i) = self.split(row)?;
        if in_main {
            return Err(StorageError::MainRowImmutable { row });
        }
        let region = self.region();
        self.delta.begin.store(region, i, &cts)?;
        Ok(())
    }

    fn commit_invalidate(&mut self, row: RowId, cts: u64) -> Result<()> {
        self.publish()?;
        let (in_main, i) = self.split(row)?;
        let region = self.region();
        if in_main {
            self.main_ref()?.end.store(region, i, &cts)?;
        } else {
            self.delta.end.store(region, i, &cts)?;
        }
        Ok(())
    }

    fn stamp_insert(&mut self, row: RowId, cts: u64) -> Result<()> {
        let (in_main, i) = self.split(row)?;
        if in_main {
            return Err(StorageError::MainRowImmutable { row });
        }
        let region = self.region();
        self.delta.begin.store_unfenced(region, i, &cts)?;
        Ok(())
    }

    fn stamp_invalidate(&mut self, row: RowId, cts: u64) -> Result<()> {
        let (in_main, i) = self.split(row)?;
        let region = self.region();
        if in_main {
            self.main_ref()?.end.store_unfenced(region, i, &cts)?;
        } else {
            self.delta.end.store_unfenced(region, i, &cts)?;
        }
        Ok(())
    }

    fn begin_ts(&self, row: RowId) -> Result<u64> {
        let (in_main, i) = self.split(row)?;
        if in_main {
            Ok(0)
        } else {
            Ok(self.delta.begin.get(self.region(), i)?)
        }
    }

    fn end_ts(&self, row: RowId) -> Result<u64> {
        let (in_main, i) = self.split(row)?;
        if in_main {
            Ok(self.main_ref()?.end.get(self.region(), i)?)
        } else {
            Ok(self.delta.end.get(self.region(), i)?)
        }
    }

    fn value(&self, row: RowId, col: ColumnId) -> Result<Value> {
        self.check_col(col)?;
        let (in_main, i) = self.split(row)?;
        if in_main {
            let m = self.main_ref()?;
            let mcol = &m.cols[col];
            // Read the (up to two) words covering the packed slot.
            let bit = i * mcol.width as u64;
            let w0 = bit / 64;
            let need_two = (bit % 64) + mcol.width as u64 > 64;
            let words = if need_two {
                [
                    m.cols[col].av.get(self.region(), w0)?,
                    m.cols[col].av.get(self.region(), w0 + 1)?,
                ]
            } else {
                [m.cols[col].av.get(self.region(), w0)?, 0]
            };
            let shift = (bit % 64) as u32;
            let mask = if mcol.width == 64 {
                u64::MAX
            } else {
                (1u64 << mcol.width) - 1
            };
            let mut id = (words[0] >> shift) & mask;
            if need_two {
                let hi_bits = (shift as u64 + mcol.width as u64) - 64;
                let lo_taken = mcol.width as u64 - hi_bits;
                id |= (words[1] & ((1u64 << hi_bits) - 1)) << lo_taken;
            }
            self.main_dict_value(m, col, id)
        } else {
            let id = self.delta.cols[col].av.get(self.region(), i)?;
            self.delta_dict_value(col, id)
        }
    }

    fn scan_visible(&self, snapshot: u64, tid: u64) -> Result<Vec<RowId>> {
        self.visible_filter(0..self.row_count(), snapshot, tid)
    }

    fn scan_eq(&self, col: ColumnId, value: &Value, snapshot: u64, tid: u64) -> Result<Vec<RowId>> {
        self.check_col(col)?;
        let mut hits = Vec::new();
        if let Some(m) = &self.main {
            if let Ok(target) = self.main_dict_search(m, col, value)? {
                let ids = self.main_av_ids(m, col)?;
                for (i, id) in ids.iter().enumerate() {
                    if *id == target {
                        hits.push(i as u64);
                    }
                }
            }
        }
        if let Some(&target) = self.delta.probes[col].get(value) {
            let base = self.main_rows_();
            let ids = self.delta_av_ids(col)?;
            for (i, id) in ids.iter().enumerate() {
                if *id == target {
                    hits.push(base + i as u64);
                }
            }
        }
        self.visible_filter(hits.into_iter(), snapshot, tid)
    }

    fn scan_range(
        &self,
        col: ColumnId,
        lo: Option<&Value>,
        hi: Option<&Value>,
        snapshot: u64,
        tid: u64,
    ) -> Result<Vec<RowId>> {
        self.check_col(col)?;
        let mut hits = Vec::new();
        if let Some(m) = &self.main {
            let lo_id = match lo {
                Some(v) => self.main_dict_lower_bound(m, col, v)?,
                None => 0,
            };
            let hi_id = match hi {
                Some(v) => self.main_dict_lower_bound(m, col, v)?,
                None => m.cols[col].dict_len,
            };
            if lo_id < hi_id {
                let ids = self.main_av_ids(m, col)?;
                for (i, id) in ids.iter().enumerate() {
                    if *id >= lo_id && *id < hi_id {
                        hits.push(i as u64);
                    }
                }
            }
        }
        // Delta: unsorted dictionary — evaluate the predicate per entry.
        let dcol = &self.delta.cols[col];
        let dict_words = dcol.dict.prefix(self.region(), dcol.dict_len)?;
        let dtype = self.schema.column(col)?.dtype;
        let mut matches = Vec::with_capacity(dict_words.len());
        for w in &dict_words {
            let v = decode_delta_entry(self.region(), dtype, &self.delta.cols[col].blob, *w)?;
            matches.push(lo.is_none_or(|l| &v >= l) && hi.is_none_or(|h| &v < h));
        }
        let base = self.main_rows_();
        let ids = self.delta_av_ids(col)?;
        for (i, id) in ids.iter().enumerate() {
            // Delta attribute-vector cells carry no checksum: an id outside
            // the dictionary is media damage, not a broken invariant.
            let hit = *matches.get(*id as usize).ok_or(StorageError::Corrupt {
                reason: "delta value id outside the delta dictionary",
            })?;
            if hit {
                hits.push(base + i as u64);
            }
        }
        self.visible_filter(hits.into_iter(), snapshot, tid)
    }

    fn merge(&mut self, snapshot: u64) -> Result<MergeStats> {
        let plan = self.merge_plan(snapshot)?;
        let aux = (0..PAIR_AUX_SLOTS)
            .map(|slot| self.aux(slot))
            .collect::<Result<Vec<u64>>>()?;
        self.merge_from_plan(plan, &aux)
    }
}

/// A planned merge: the new main's columns, computed read-only. The
/// post-merge row id of each survivor is its position in every
/// [`MergePlan::column`]'s ids, so replacement structures (indexes) can be
/// built against the plan *before* [`NvTable::merge_from_plan`] publishes
/// anything — the exhaustion-safe ordering where every fallible allocation
/// precedes the atomic pair swap and a capacity failure leaves the old
/// table untouched.
#[derive(Debug)]
pub struct MergePlan {
    snapshot: u64,
    rows_before: u64,
    rows: u64,
    columns: Vec<DictColumn>,
}

impl MergePlan {
    /// Rows surviving into the new main.
    pub fn row_count(&self) -> u64 {
        self.rows
    }

    /// Column `c` of the new main: its sorted dictionary and each
    /// survivor's value id, in post-merge row order.
    pub fn column(&self, c: ColumnId) -> Result<&DictColumn> {
        self.columns.get(c).ok_or(StorageError::ColumnOutOfRange {
            column: c,
            columns: self.columns.len(),
        })
    }

    /// The snapshot the plan was taken at.
    pub fn snapshot(&self) -> u64 {
        self.snapshot
    }
}

impl NvTable {
    /// Plan a merge at `snapshot`: pick the surviving rows, then build each
    /// column of the new main on value ids (see [`crate::DictColumn`]).
    /// Read-only: no heap allocation, no mutation, fails only on a
    /// non-quiesced table or a media error.
    pub fn merge_plan(&self, snapshot: u64) -> Result<MergePlan> {
        let quiesced = |ts: u64| {
            if mvcc::is_pending(ts) {
                Err(StorageError::Corrupt {
                    reason: "merge requires a quiesced table (pending markers found)",
                })
            } else {
                Ok(())
            }
        };
        // Surviving positions within each partition, in row order.
        let mut keep_main = Vec::new();
        for (i, &e) in self.main_end_vec()?.iter().enumerate() {
            quiesced(e)?;
            if mvcc::visible(0, e, snapshot, 0) {
                keep_main.push(i as u64);
            }
        }
        let mut keep_delta = Vec::new();
        for (i, (&b, &e)) in self
            .delta_begin_vec()?
            .iter()
            .zip(&self.delta_end_vec()?)
            .enumerate()
        {
            quiesced(b)?;
            quiesced(e)?;
            if mvcc::visible(b, e, snapshot, 0) {
                keep_delta.push(i);
            }
        }
        let columns = (0..self.schema.len())
            .map(|c| self.merge_column(c, &keep_main, &keep_delta))
            .collect::<Result<Vec<_>>>()?;
        Ok(MergePlan {
            snapshot,
            rows_before: self.row_count(),
            rows: (keep_main.len() + keep_delta.len()) as u64,
            columns,
        })
    }

    /// Column `c` of the new main: the main attribute vector is unpacked
    /// once, the surviving rows' main and delta dictionary entries are
    /// merged (see [`dict::fold_column`]), and the ids remapped.
    fn merge_column(
        &self,
        c: ColumnId,
        keep_main: &[u64],
        keep_delta: &[usize],
    ) -> Result<DictColumn> {
        let region = self.region();
        let dtype = self.schema.column(c)?.dtype;
        let (main_dict, main_ids, main_blob) = match &self.main {
            Some(m) => {
                let mc = &m.cols[c];
                let av = mc.av.to_vec(region)?;
                let ids: Vec<u64> = keep_main
                    .iter()
                    .map(|&r| bitpack::unpack_at(&av, mc.width, r))
                    .collect();
                let blob = if mc.blob_len == 0 {
                    Vec::new()
                } else {
                    region.with_slice(mc.blob_ptr, mc.blob_len, |b| b.to_vec())?
                };
                (
                    PArray::<u64>::at(mc.dict_ptr, mc.dict_len).to_vec(region)?,
                    ids,
                    blob,
                )
            }
            None => Default::default(),
        };
        let dcol = &self.delta.cols[c];
        let delta_dict = dcol.dict.prefix(region, dcol.dict_len)?;
        let delta_av = self.delta_av_ids(c)?;
        let delta_ids: Vec<u32> = keep_delta.iter().map(|&i| delta_av[i]).collect();
        let delta_blob = if dtype == DataType::Text {
            dcol.blob.prefix(region, dcol.blob_len)?
        } else {
            Vec::new()
        };
        let (main, delta) = (
            (&main_dict[..], &main_ids[..]),
            (&delta_dict[..], &delta_ids[..]),
        );
        match dtype {
            DataType::Int => {
                dict::fold_column(dtype, main, delta, |w| Ok(w as i64), |w| Ok(w as i64))
            }
            DataType::Double => {
                let key = |w: u64| Ok(TotalF64(f64::from_bits(w)));
                dict::fold_column(dtype, main, delta, key, key)
            }
            DataType::Text => dict::fold_column(
                dtype,
                main,
                delta,
                |w| text_key(&main_blob, w),
                |w| text_key(&delta_blob, w),
            ),
        }
    }

    /// Execute a planned merge: write the planned main tree, an empty delta
    /// and a pair block naming them — and carrying `aux`, the owner's words
    /// for the merged row space — in fresh allocations, then swap them in
    /// with one atomic pair publish. Nothing can reach the new blocks before
    /// that publish, so they are written with bulk stores and range
    /// write-backs and drained by one fence; only the allocator's own
    /// protocols fence in between. Every allocation precedes the swap, so a
    /// capacity failure unwinds with the old table fully intact (freshly
    /// allocated blocks leak until reclamation; nothing is published).
    ///
    /// The swap *is* the merge: once it is durable nothing fails it.
    /// Reclaiming the old tree after it is best-effort — a failed free
    /// leaks the blocks it did not reach, as a crash at that point does —
    /// and the handle is refreshed from what was just written, without
    /// reading the medium.
    pub fn merge_from_plan(&mut self, plan: MergePlan, aux: &[u64]) -> Result<MergeStats> {
        let region = self.heap.region().clone();
        let heap = self.heap.clone();
        let MergePlan {
            rows_before: total,
            rows: nrows,
            columns,
            ..
        } = plan;
        let ncols = self.schema.len();
        if aux.len() > PAIR_AUX_SLOTS {
            return Err(StorageError::Corrupt {
                reason: "more aux words than the pair block has slots",
            });
        }
        if columns.len() != ncols {
            return Err(StorageError::Corrupt {
                reason: "merge plan does not match the table's schema",
            });
        }

        // Build the replacement trees. Every allocation is tracked so a
        // capacity failure anywhere below unwinds completely: an exhausted
        // merge must leave the heap exactly as it found it.
        let mut allocated: Vec<u64> = Vec::new();
        let mut delta_built = 0u64;
        let mut pair_reserved = 0u64;
        let root = self.root;
        // The main descriptor is assembled in DRAM and staged last.
        let mut desc = vec![0u64; (main_desc_size(ncols) / 8) as usize];
        let built = (|| -> Result<(u64, u64, u64)> {
            let mut stage = |bytes: &[u8]| -> Result<u64> {
                let ptr = heap.alloc((bytes.len() as u64).max(8))?;
                allocated.push(ptr);
                region.write_bytes(ptr, bytes)?;
                region.flush(ptr, bytes.len() as u64)?;
                Ok(ptr)
            };
            desc[(MD_ROWS / 8) as usize] = nrows;
            desc[(MD_END / 8) as usize] = stage(nvm::slice_bytes(&vec![TS_INF; nrows as usize]))?;

            for (c, col) in columns.iter().enumerate() {
                let (dict, blob, av) = (col.words(), col.blob(), col.packed_ids());
                let base = (MD_COLS + c as u64 * MD_COL_STRIDE) as usize / 8;
                desc[base] = stage(nvm::slice_bytes(dict))?;
                desc[base + 1] = dict.len() as u64;
                desc[base + 2] = stage(nvm::slice_bytes(&av))?;
                desc[base + 3] = av.len() as u64;
                desc[base + 4] = col.width() as u64;
                desc[base + 5] = if blob.is_empty() { 0 } else { stage(blob)? };
                desc[base + 6] = blob.len() as u64;
                // Seal the column: fingerprint the descriptor words plus the
                // payloads, as `main_col_sum` reads them back.
                let covered = nvm::slice_bytes(&desc[base..base + (MC_SUM_COVERS / 8) as usize]);
                let mut sum = util::hash::seal(covered);
                for payload in [nvm::slice_bytes(dict), blob, nvm::slice_bytes(&av)] {
                    if !payload.is_empty() {
                        sum = util::hash::seal_continue(sum, payload);
                    }
                }
                desc[base + (MC_SUM / 8) as usize] = sum;
            }
            let new_main = stage(nvm::slice_bytes(&desc))?;

            // Fresh empty delta.
            let new_delta = Self::create_delta_desc(&heap, ncols)?;
            delta_built = new_delta;

            // Reserve and stage the new pair block.
            let old_pair: u64 = region.read_pod(root + ROOT_PAIR)?;
            let pair = heap.reserve(PAIR_SIZE)?;
            pair_reserved = pair;
            region.write_bytes(pair, &pair_image(new_delta, new_main, aux))?;
            region.flush(pair, PAIR_SIZE)?;
            Ok((pair, old_pair, new_delta))
        })();
        let unwind = |heap: &NvmHeap| {
            if pair_reserved != 0 {
                let _ = heap.free(pair_reserved, None);
            }
            if delta_built != 0 {
                let _ = Self::free_delta_tree_in(heap, delta_built, ncols);
            }
            for p in allocated.iter().rev() {
                let _ = heap.free(*p, None);
            }
        };
        let (pair, old_pair, new_delta) = match built {
            Ok(v) => v,
            Err(e) => {
                unwind(&heap);
                return Err(e);
            }
        };

        // Drain everything staged above — and whatever the caller staged for
        // the aux words to name — then swap atomically: the new pair block
        // replaces the old one.
        region.fence();
        // pmlint: publish(table-pair)
        if let Err(e) = heap.activate(pair, Some((self.root + ROOT_PAIR, pair)), Some(old_pair)) {
            unwind(&heap);
            return Err(e.into());
        }

        // Reclaim the old tree, best-effort. The old pair block was already
        // freed by the activate(replaces); its bytes are intact, so the walk
        // still reads the pointers from it.
        if let Ok(old_delta) = region.read_pod::<u64>(old_pair + PAIR_DELTA) {
            let _ = Self::free_delta_tree_in(&heap, old_delta, ncols);
        }
        if let Ok(old_main @ 1..) = region.read_pod::<u64>(old_pair + PAIR_MAIN) {
            let _ = self.free_main_tree(old_main, ncols);
        }

        self.pair = pair;
        self.delta = DeltaHandle::empty(new_delta, ncols);
        self.main = Some(main_handle(&desc, ncols));
        Ok(MergeStats {
            rows_before: total,
            rows_merged: nrows,
            rows_dropped: total - nrows,
        })
    }
}

impl NvTable {
    /// Scan-time media verification, separate from the fast restart path so
    /// instant-restart latency is unaffected when callers skip it.
    ///
    /// Checks, in order: delta row counter against structure capacities;
    /// per-column delta dictionary and string-blob content checksums; delta
    /// attribute-vector value-ids against dictionary lengths; MVCC timestamp
    /// plausibility against `last_cts`; per-column main checksums (the
    /// descriptor, dictionary, blob, and attribute vector); main
    /// end-timestamp plausibility. Returns the number of structures
    /// verified; the first failure surfaces as a typed error naming the
    /// structure.
    pub fn verify_media(&self, last_cts: u64) -> Result<u64> {
        let region = self.region();
        let mut checked = 0u64;

        // Delta row counter vs what the structures can actually hold.
        let rows = self.delta.rows;
        if rows > self.delta.begin.capacity(region)? || rows > self.delta.end.capacity(region)? {
            return Err(StorageError::Corrupt {
                reason: "delta row counter exceeds timestamp-array capacity",
            });
        }
        checked += 1;

        for col in &self.delta.cols {
            col.dict.verify(region, "delta dictionary")?;
            col.blob.verify(region, "delta string blob")?;
            checked += 2;
            if rows > col.av.capacity(region)? {
                return Err(StorageError::Corrupt {
                    reason: "delta row counter exceeds attribute-vector capacity",
                });
            }
            for id in col.av.prefix(region, rows)? {
                if (id as u64) >= col.dict_len {
                    return Err(StorageError::Corrupt {
                        reason: "delta attribute vector references a missing dictionary entry",
                    });
                }
            }
            checked += 1;
        }

        for b in self.delta_begin_vec()? {
            if !plausible_ts(b, last_cts) {
                return Err(StorageError::Corrupt {
                    reason: "implausible delta begin timestamp",
                });
            }
        }
        for e in self.delta_end_vec()? {
            if !plausible_ts(e, last_cts) {
                return Err(StorageError::Corrupt {
                    reason: "implausible delta end timestamp",
                });
            }
        }
        checked += 2;

        if let Some(m) = &self.main {
            let pair: u64 = region.read_pod(self.root + ROOT_PAIR)?;
            let main_desc: u64 = region.read_pod(pair + PAIR_MAIN)?;
            for c in 0..self.schema.len() as u64 {
                let base = main_desc + MD_COLS + c * MD_COL_STRIDE;
                let stored: u64 = region.read_pod(base + MC_SUM)?;
                let computed = main_col_sum(region, base)?;
                if stored != computed {
                    return Err(StorageError::Nvm(nvm::NvmError::ChecksumMismatch {
                        what: "main column",
                        offset: base,
                        stored,
                        computed,
                    }));
                }
                checked += 1;
            }
            for e in m.end.to_vec(region)? {
                if !plausible_ts(e, last_cts) {
                    return Err(StorageError::Corrupt {
                        reason: "implausible main end timestamp",
                    });
                }
            }
            checked += 1;
        }
        Ok(checked)
    }

    /// Enumerate the table's media runs — offsets and lengths of every
    /// persistent structure, labelled and flagged by whether a content
    /// checksum covers it. Fault-injection harnesses use this to aim faults
    /// at live data and to know which hits *must* be detected.
    pub fn media_extents(&self) -> Result<Vec<MediaExtent>> {
        let region = self.region();
        let mut out = Vec::new();
        let rows = self.delta.rows;

        let b_data: u64 = region.read_pod(self.delta.begin.header_offset() + 8)?;
        let e_data: u64 = region.read_pod(self.delta.end.header_offset() + 8)?;
        out.push(MediaExtent {
            what: "delta-begin",
            offset: b_data,
            len: rows * 8,
            checksummed: false,
        });
        out.push(MediaExtent {
            what: "delta-end",
            offset: e_data,
            len: rows * 8,
            checksummed: false,
        });

        for col in &self.delta.cols {
            out.push(MediaExtent {
                what: "delta-dict",
                offset: col.dict.data_offset(region)?,
                len: col.dict.len(region)? * 8,
                checksummed: true,
            });
            out.push(MediaExtent {
                what: "delta-blob",
                offset: col.blob.data_offset(region)?,
                len: col.blob.len(region)?,
                checksummed: true,
            });
            let av_data: u64 = region.read_pod(col.av.header_offset() + 8)?;
            out.push(MediaExtent {
                what: "delta-av",
                offset: av_data,
                len: rows * 4,
                checksummed: false,
            });
        }

        if let Some(m) = &self.main {
            for col in &m.cols {
                out.push(MediaExtent {
                    what: "main-dict",
                    offset: col.dict_ptr,
                    len: col.dict_len * 8,
                    checksummed: true,
                });
                out.push(MediaExtent {
                    what: "main-av",
                    offset: col.av.offset(),
                    len: col.av.byte_len(),
                    checksummed: true,
                });
                out.push(MediaExtent {
                    what: "main-blob",
                    offset: col.blob_ptr,
                    len: col.blob_len,
                    checksummed: true,
                });
            }
            out.push(MediaExtent {
                what: "main-end",
                offset: m.end.offset(),
                len: m.end.byte_len(),
                checksummed: false,
            });
        }
        out.retain(|e| e.len > 0);
        Ok(out)
    }

    /// Free a delta tree through a bare heap handle. Tolerates partially
    /// initialised descriptors whose untouched fields read as null — the
    /// exhaustion unwind in `create_delta_desc` relies on this.
    fn free_delta_tree_in(heap: &NvmHeap, old_delta: u64, ncols: usize) -> Result<()> {
        let region = heap.region();
        free_slab_data(heap, region, old_delta + DD_BEGIN)?;
        free_slab_data(heap, region, old_delta + DD_END)?;
        for c in 0..ncols {
            let base = old_delta + DD_COLS + c as u64 * DD_COL_STRIDE;
            let dict = PVec::<u64>::open(base);
            let data = dict.data_offset(region)?;
            if data != 0 {
                heap.free(data, None)?;
            }
            free_slab_data(heap, region, base + PVEC_HEADER)?;
            let blob = PVec::<u8>::open(base + PVEC_HEADER + PSLAB_HEADER);
            let blob_data = blob.data_offset(region)?;
            if blob_data != 0 {
                heap.free(blob_data, None)?;
            }
        }
        Ok(heap.free(old_delta, None)?)
    }

    fn free_main_tree(&self, old_main: u64, ncols: usize) -> Result<()> {
        let region = self.region();
        let heap = &self.heap;
        let end_ptr: u64 = region.read_pod(old_main + MD_END)?;
        heap.free(end_ptr, None)?;
        for c in 0..ncols {
            let base = old_main + MD_COLS + c as u64 * MD_COL_STRIDE;
            let dict_ptr: u64 = region.read_pod(base)?;
            let av_ptr: u64 = region.read_pod(base + 16)?;
            let blob_ptr: u64 = region.read_pod(base + 40)?;
            heap.free(dict_ptr, None)?;
            heap.free(av_ptr, None)?;
            if blob_ptr != 0 {
                heap.free(blob_ptr, None)?;
            }
        }
        Ok(heap.free(old_main, None)?)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use nvm::{CrashPolicy, LatencyModel};
    use util::rng::{Rng, SmallRng};

    use super::*;
    use crate::{ColumnDef, VTable};

    /// An `NvTable` and a `VTable` under one commit sequence, so their
    /// merges can be compared column by column.
    struct Twins {
        nv: NvTable,
        v: VTable,
        cts: u64,
    }

    impl Twins {
        fn new() -> Twins {
            let region = Arc::new(nvm::NvmRegion::new(1 << 18, LatencyModel::zero()));
            let heap = NvmHeap::format(region).unwrap();
            let schema = Schema::new(vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("s", DataType::Text),
                ColumnDef::new("x", DataType::Double),
            ]);
            Twins {
                nv: NvTable::create(&heap, schema.clone()).unwrap(),
                v: VTable::new(schema),
                cts: 0,
            }
        }

        fn tables(&mut self) -> [&mut dyn TableStore; 2] {
            [&mut self.nv, &mut self.v]
        }

        fn insert(&mut self, row: &[Value]) {
            self.cts += 1;
            let cts = self.cts;
            for t in self.tables() {
                let r = t.insert_version(row, mvcc::pending(1)).unwrap();
                t.commit_insert(r, cts).unwrap();
            }
        }

        fn insert_aborted(&mut self, row: &[Value]) {
            for t in self.tables() {
                let r = t.insert_version(row, mvcc::pending(1)).unwrap();
                t.abort_insert(r).unwrap();
            }
        }

        fn delete(&mut self, row: RowId) {
            self.cts += 1;
            let cts = self.cts;
            for t in self.tables() {
                t.try_invalidate(row, mvcc::pending(1)).unwrap();
                t.commit_invalidate(row, cts).unwrap();
            }
        }

        fn visible(&self) -> Vec<RowId> {
            self.v.scan_visible(self.cts, 0).unwrap()
        }

        /// Crash and reopen the NVM side: its delta dictionaries and blobs
        /// are read back from the medium.
        fn reopen(&mut self) {
            let region = self.nv.heap().region().clone();
            region.crash(CrashPolicy::DropUnflushed);
            let (heap, _) = NvmHeap::open(region).unwrap();
            self.nv = NvTable::open(&heap, self.nv.root_offset()).unwrap();
        }

        /// Merge both at the current snapshot; the new mains must agree
        /// entry for entry: dictionary values (bit for bit), ids, width.
        fn merge(&mut self) {
            let cts = self.cts;
            let [nv, v] = self.tables();
            assert_eq!(nv.merge(cts).unwrap(), v.merge(cts).unwrap());
            let m = self.nv.main.as_ref().unwrap();
            let vm = self.v.main();
            assert_eq!(m.rows, vm.rows());
            for c in 0..3 {
                let dict: Vec<Value> = (0..m.cols[c].dict_len)
                    .map(|id| self.nv.main_dict_value(m, c, id).unwrap())
                    .collect();
                let bits = |d: &[Value]| -> Vec<Option<u64>> {
                    d.iter().map(|v| v.as_double().map(f64::to_bits)).collect()
                };
                assert_eq!(dict, vm.dicts[c], "column {c} dictionary");
                assert_eq!(bits(&dict), bits(&vm.dicts[c]), "column {c} double bits");
                let ids = self.nv.main_av_ids(m, c).unwrap();
                assert_eq!(ids, vm.avs[c].iter().collect::<Vec<_>>(), "column {c} ids");
                assert_eq!(m.cols[c].width, vm.avs[c].width(), "column {c} width");
            }
            self.nv.verify_media(self.cts).unwrap();
        }

        fn main_texts(&self) -> Vec<Value> {
            self.v.main().dicts[1].clone()
        }
    }

    fn row(k: i64, s: &str, x: f64) -> Vec<Value> {
        vec![Value::Int(k), s.into(), Value::Double(x)]
    }

    const NEG_NAN: f64 = f64::from_bits(f64::NAN.to_bits() | 1 << 63);

    #[test]
    fn merge_matches_a_full_resort_in_every_case() {
        let mut t = Twins::new();
        // The first merge: an empty main. NaN of both signs, both zeros.
        for r in [
            row(1, "a", f64::NAN),
            row(-2, "b", -0.0),
            row(i64::MIN, "c", 0.0),
            row(4, "gone", NEG_NAN),
            row(i64::MAX, "a", f64::NAN),
        ] {
            t.insert(&r);
        }
        t.merge();

        // The last reference to a main value is deleted; a value in both
        // main and delta; a delta-only value; an aborted insert. The merge
        // runs after a reopen.
        t.delete(3);
        t.insert(&row(-2, "a", 0.0));
        t.insert(&row(7, "delta-only", -0.0));
        t.insert_aborted(&row(8, "aborted", 9.5));
        t.reopen();
        t.merge();
        let texts = t.main_texts();
        assert!(!texts.contains(&"gone".into()) && !texts.contains(&"aborted".into()));
        assert!(texts.contains(&"delta-only".into()));

        // Every row dropped, then a main of zero rows under a delta.
        for r in t.visible() {
            t.delete(r);
        }
        t.merge();
        assert_eq!(t.nv.main_rows(), 0);
        t.insert(&row(0, "", 1.0));
        t.merge();
    }

    #[test]
    fn merge_matches_a_full_resort_on_seeded_ops() {
        let (seeds, rounds, ops) = if cfg!(miri) { (1, 2, 8) } else { (12, 6, 120) };
        let texts = ["", "a", "ab", "b", "é", "zz", "a\u{0}"];
        let doubles = [f64::NAN, NEG_NAN, -0.0, 0.0, 1.5, -1.5, f64::INFINITY];
        for seed in 0..seeds {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut t = Twins::new();
            for _ in 0..rounds {
                for _ in 0..ops {
                    let k = match rng.gen_range_u64(0, 10) {
                        0 => i64::MIN,
                        1 => i64::MAX,
                        _ => rng.gen_range_i64(-4, 4),
                    };
                    let s = texts[rng.gen_range_usize(0, texts.len())];
                    let x = doubles[rng.gen_range_usize(0, doubles.len())];
                    match rng.gen_range_u64(0, 10) {
                        0..=5 => t.insert(&row(k, s, x)),
                        6..=8 => {
                            let live = t.visible();
                            if !live.is_empty() {
                                t.delete(live[rng.gen_range_usize(0, live.len())]);
                            }
                        }
                        _ => t.insert_aborted(&row(k, s, x)),
                    }
                }
                if rng.gen_bool(0.5) {
                    t.reopen();
                }
                t.merge();
            }
        }
    }
}
