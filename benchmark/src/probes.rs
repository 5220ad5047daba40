//! Standalone timings of each layer's public functions, on the row shape of
//! the workloads and on the same kind of mapped medium. One client, nothing
//! contends, so a faster layer saves an op at most calls-per-op × the time
//! printed here; `layers.rs` uses that for `core.unattributed_frac`.
//!
//! Loops read no clock per call. Where a call cannot run without another
//! (a flush needs a store before it), the probe times both loops and
//! reports the difference. A call that fails here is a bug in the engine
//! or the harness, so the loops unwrap.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use index::{NvHashIndex, NvOrderedIndex, VolatileHashIndex, VolatileOrderedIndex};
use nvm::{LatencyModel, NvmHeap, NvmRegion, SimClock};
use storage::bitpack::BitPacked;
use storage::nv::NvTable;
use storage::{mvcc, ColumnDef, DataType, Schema, TableStore, VTable, Value};
use txn::{NoopPublish, Transaction, TxnManager};
use wal::{LogRecord, LogWriter};

use crate::gen::{payload, Rng, RANGE_LEN};
use crate::metrics::Values;
use crate::sys::Memfd;
use crate::trace::Tracer;
use crate::Res;

const REGION_BYTES: u64 = 512 << 20;
/// Rows of the probe tables and index entries.
const ROWS: usize = 20_000;
/// Rows added after the merge, so that delta paths have something to read.
const DELTA_ROWS: usize = 5_000;

/// Fences per call that the probed write calls issue themselves. Their
/// cost is inside the probe time, so `core.unattributed_frac` must not
/// charge them a second time.
#[derive(Default)]
pub struct ProbeFences {
    pub insert_version: f64,
    pub invalidate: f64,
    pub nvhash_insert: f64,
    pub nvordered_insert: f64,
}

/// What every probe shares.
struct Probe<'a, T> {
    tr: &'a mut T,
    v: &'a mut Values,
    heap: NvmHeap,
    rng: Rng,
    /// Size divisor of `--quick`.
    div: usize,
    fences: ProbeFences,
}

impl<T: Tracer> Probe<'_, T> {
    /// The full-size count `full`, shrunk under `--quick`.
    fn n(&self, full: usize) -> usize {
        (full / self.div).max(100)
    }

    /// `n` calls of `f` under a span: nanoseconds and fences per call.
    fn per_call(&mut self, name: &'static str, n: usize, mut f: impl FnMut(usize)) -> (f64, f64) {
        let fences0 = self.heap.region().stats().fences;
        self.tr.open(name);
        let t0 = Instant::now();
        for i in 0..n {
            f(i);
        }
        let ns = t0.elapsed().as_nanos() as f64 / n as f64;
        self.tr.close();
        let fences = self.heap.region().stats().fences - fences0;
        (ns, fences as f64 / n as f64)
    }

    /// Nanoseconds per call only.
    fn ns(&mut self, name: &'static str, n: usize, f: impl FnMut(usize)) -> f64 {
        self.per_call(name, n, f).0
    }

    /// One call of `f` under a span, in milliseconds.
    fn once<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let r = self.tr.call(name, f);
        (r, t0.elapsed().as_secs_f64() * 1e3)
    }

    /// Insert and commit `keys` one by one: ns and fences per
    /// `insert_version`.
    fn fill(
        &mut self,
        name: &'static str,
        table: &mut dyn TableStore,
        keys: std::ops::Range<i64>,
        cts: u64,
    ) -> Res<(f64, f64)> {
        let rows: Vec<Vec<Value>> = keys.map(row).collect();
        let mut ids = Vec::with_capacity(rows.len());
        let timing = self.per_call(name, rows.len(), |i| {
            ids.push(table.insert_version(&rows[i], mvcc::pending(1)).unwrap());
        });
        for id in ids {
            table.commit_insert(id, cts)?;
        }
        Ok(timing)
    }
}

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("key", DataType::Int),
        ColumnDef::new("payload", DataType::Text),
    ])
}

fn row(key: i64) -> Vec<Value> {
    vec![Value::Int(key), Value::Text(payload(0, key, 1))]
}

pub fn run<T: Tracer>(v: &mut Values, out_dir: &Path, div: usize, tr: &mut T) -> Res<ProbeFences> {
    tr.open("probes");
    let image = Memfd::new()?;
    let region = NvmRegion::open_file(&image.path(), REGION_BYTES, LatencyModel::zero())?;
    let mut p = Probe {
        tr,
        v,
        heap: NvmHeap::format(Arc::new(region))?,
        rng: Rng::new(0x5EED),
        div,
        fences: ProbeFences::default(),
    };
    p.nvm()?;
    p.storage()?;
    p.index()?;
    p.txn()?;
    p.wal(out_dir)?;
    let clock = p.ns("harness.clock", p.n(1_000_000), |_| {
        black_box(Instant::now());
    });
    p.v.set("harness.clock_ns", clock);
    p.tr.close();
    Ok(p.fences)
}

impl<T: Tracer> Probe<'_, T> {
    fn nvm(&mut self) -> Res<()> {
        let heap = self.heap.clone();
        let region = heap.region();
        // A 1 MiB scratch block, walked a cache line at a time.
        let base = heap.alloc(1 << 20)?;
        let at = |i: usize| base + ((i * 64) & ((1 << 20) - 1)) as u64;
        let reads = self.n(1_000_000);
        let ns = self.ns("nvm.read_pod", reads, |i| {
            black_box(region.read_pod::<u64>(at(i)).unwrap());
        });
        self.v.set("nvm.read_pod_ns", ns);
        let ns = self.ns("nvm.with_slice64", reads, |i| {
            black_box(region.with_slice(at(i), 64, |s| s[0]).unwrap());
        });
        self.v.set("nvm.with_slice64_ns", ns);
        let ns = self.ns("nvm.load_acquire", reads, |i| {
            black_box(region.load_u64_acquire(at(i)).unwrap());
        });
        self.v.set("nvm.load_acquire_ns", ns);
        let store = self.ns("nvm.write_pod", reads, |i| {
            region.write_pod(at(i), &(i as u64)).unwrap();
        });
        self.v.set("nvm.write_pod_ns", store);

        let syncs = self.n(200_000);
        let store_flush = self.ns("nvm.store+flush", syncs, |i| {
            region.write_pod(at(i), &(i as u64)).unwrap();
            region.flush(at(i), 8).unwrap();
        });
        region.fence();
        let store_flush_fence = self.ns("nvm.store+flush+fence", syncs, |i| {
            region.write_pod(at(i), &(i as u64)).unwrap();
            region.flush(at(i), 8).unwrap();
            region.fence();
        });
        let store_persist = self.ns("nvm.store+persist", syncs, |i| {
            region.write_pod(at(i), &(i as u64)).unwrap();
            region.persist(at(i), 8).unwrap();
        });
        self.v
            .set("nvm.flush_line_ns", (store_flush - store).max(0.0));
        self.v
            .set("nvm.fence_ns", (store_flush_fence - store_flush).max(0.0));
        self.v
            .set("nvm.persist64_ns", (store_persist - store).max(0.0));

        let allocs = self.n(50_000);
        let mut blocks = Vec::with_capacity(allocs);
        let ns = self.ns("nvm.alloc64", allocs, |_| {
            blocks.push(heap.alloc(64).unwrap());
        });
        self.v.set("nvm.alloc64_ns", ns);
        let ns = self.ns("nvm.free64", allocs, |i| {
            heap.free(blocks[i], None).unwrap();
        });
        self.v.set("nvm.free64_ns", ns);
        Ok(())
    }

    fn storage(&mut self) -> Res<()> {
        let heap = self.heap.clone();
        let rows = self.n(ROWS);
        let delta_rows = self.n(DELTA_ROWS);
        let mut nv = NvTable::create(&heap, schema())?;
        self.fill("storage.fill_main", &mut nv, 0..rows as i64, 1)?;
        let (merged, merge_ms) = self.once("storage.merge", || nv.merge(1));
        merged?;
        self.v.set("storage.merge_ms", merge_ms);
        self.v
            .set("storage.merge_rows_per_s", rows as f64 / (merge_ms / 1e3));
        // Appends to a delta over a merged main, as the workloads' writes are.
        let delta = rows as i64..(rows + delta_rows) as i64;
        let (ns, fences) = self.fill("storage.insert_version", &mut nv, delta, 2)?;
        self.v.set("storage.insert_version_ns", ns);
        self.fences.insert_version = fences;

        let reads = self.n(200_000);
        let main_ids: Vec<u64> = (0..reads).map(|_| self.rng.below(rows as u64)).collect();
        let delta_ids: Vec<u64> = (0..reads)
            .map(|_| rows as u64 + self.rng.below(delta_rows as u64))
            .collect();
        let ns = self.ns("storage.row_values_main", reads, |i| {
            black_box(nv.row_values(main_ids[i]).unwrap());
        });
        self.v.set("storage.row_values_main_ns", ns);
        let ns = self.ns("storage.row_values_delta", reads, |i| {
            black_box(nv.row_values(delta_ids[i]).unwrap());
        });
        self.v.set("storage.row_values_delta_ns", ns);
        let all = (rows + delta_rows) as f64;
        let needle = Value::Text(payload(0, rows as i64 / 2, 1));
        let ns = self.ns("storage.scan_eq", 10, |_| {
            black_box(nv.scan_eq(1, &needle, 2, 0).unwrap());
        });
        self.v.set("storage.scan_eq_ns_per_row", ns / all);
        let ns = self.ns("storage.scan_visible", 10, |_| {
            black_box(nv.scan_visible(2, 0).unwrap());
        });
        self.v.set("storage.scan_visible_ns_per_row", ns / all);
        let (reopened, open_ms) =
            self.once("storage.open", || NvTable::open(&heap, nv.root_offset()));
        reopened?;
        self.v.set("storage.open_ms", open_ms);
        // Distinct main rows, each invalidated once.
        let victims = self.n(5_000).min(rows);
        let (ns, fences) = self.per_call("storage.invalidate", victims, |i| {
            nv.try_invalidate(i as u64, mvcc::pending(2)).unwrap();
        });
        self.v.set("storage.invalidate_ns", ns);
        self.fences.invalidate = fences;

        let ids: Vec<u64> = (0..rows as u64).collect();
        let packed = BitPacked::from_ids(&ids, rows as u64);
        let ns = self.ns("storage.bitpack_get", self.n(1_000_000), |i| {
            black_box(packed.get(main_ids[i % reads]));
        });
        self.v.set("storage.bitpack_get_ns", ns);

        let mut vt = VTable::new(schema());
        self.fill("storage.v_fill", &mut vt, 0..rows as i64, 1)?;
        vt.merge(1)?;
        let ns = self.ns("storage.v_row_values_main", reads, |i| {
            black_box(vt.row_values(main_ids[i]).unwrap());
        });
        self.v.set("storage.v_row_values_main_ns", ns);
        Ok(())
    }

    fn index(&mut self) -> Res<()> {
        let heap = self.heap.clone();
        let rows = self.n(ROWS);
        // Keys in a fixed shuffled order: updates insert keys in no order.
        let mut keys: Vec<Value> = (0..rows as i64).map(Value::Int).collect();
        for i in (1..rows).rev() {
            keys.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        let lookups = self.n(200_000);
        let probe: Vec<usize> = (0..lookups)
            .map(|_| self.rng.below(rows as u64) as usize)
            .collect();

        let hash = NvHashIndex::create(&heap, 0, rows as u64 * 2)?;
        let (ns, fences) = self.per_call("index.nvhash_insert", rows, |i| {
            hash.insert(&keys[i], i as u64).unwrap();
        });
        self.v.set("index.nvhash_insert_ns", ns);
        self.fences.nvhash_insert = fences;
        let ns = self.ns("index.nvhash_lookup", lookups, |i| {
            black_box(hash.lookup(&keys[probe[i]]).unwrap());
        });
        self.v.set("index.nvhash_lookup_ns", ns);
        // One key with a thousand versions, as a hot key has before a merge.
        let hot = Value::Int(-1);
        for version in 0..1_000 {
            hash.insert(&hot, rows as u64 + version)?;
        }
        let ns = self.ns("index.nvhash_lookup_chain1000", self.n(2_000), |_| {
            black_box(hash.lookup(&hot).unwrap());
        });
        self.v.set("index.nvhash_lookup_chain1000_ns", ns);

        let ordered = NvOrderedIndex::create(&heap, 0, DataType::Int)?;
        let (ns, fences) = self.per_call("index.nvordered_insert", rows, |i| {
            ordered.insert(&keys[i], i as u64).unwrap();
        });
        self.v.set("index.nvordered_insert_ns", ns);
        self.fences.nvordered_insert = fences;
        let ranges = self.n(20_000);
        let span = (rows as i64 - RANGE_LEN).max(1) as u64;
        let los: Vec<i64> = (0..ranges).map(|_| self.rng.below(span) as i64).collect();
        let ns = self.ns("index.nvordered_range100", ranges, |i| {
            let (lo, hi) = (Value::Int(los[i]), Value::Int(los[i] + RANGE_LEN));
            black_box(ordered.lookup_range(Some(&lo), Some(&hi)).unwrap());
        });
        self.v.set("index.nvordered_range100_ns", ns);

        let plan: Vec<Vec<Value>> = (0..rows as i64).map(row).collect();
        let (built, build_ms) = self.once("index.build_from_rows", || {
            NvHashIndex::build_from_rows(&heap, 0, rows as u64 * 2, &plan)
        });
        built?.destroy()?;
        self.v.set("index.build_from_rows_ms", build_ms);

        let mut vhash = VolatileHashIndex::new(0);
        let mut vordered = VolatileOrderedIndex::new(0);
        for (i, k) in keys.iter().enumerate() {
            vhash.insert(k, i as u64);
            vordered.insert(k, i as u64);
        }
        let ns = self.ns("index.vhash_lookup", lookups, |i| {
            black_box(vhash.lookup(&keys[probe[i]]));
        });
        self.v.set("index.vhash_lookup_ns", ns);
        let ns = self.ns("index.vordered_range100", ranges, |i| {
            let (lo, hi) = (Value::Int(los[i]), Value::Int(los[i] + RANGE_LEN));
            black_box(vordered.lookup_range(Some(&lo), Some(&hi)));
        });
        self.v.set("index.vordered_range100_ns", ns);
        Ok(())
    }

    fn txn(&mut self) -> Res<()> {
        let mut mgr = TxnManager::new();
        let mut table = VTable::new(schema());
        let mut next_key = 0;
        let ns = self.ns("txn.begin", self.n(1_000_000), |_| {
            black_box(mgr.begin());
        });
        self.v.set("txn.begin_ns", ns);
        // Transactions are opened and filled outside the timed loop, so
        // that it holds nothing but the call under test.
        let singles = self.n(50_000);
        let mut txns = open_txns(&mut mgr, &mut table, singles, 1, &mut next_key)?;
        let ns = self.ns("txn.commit_1w", singles, |i| {
            mgr.commit(&mut txns[i], &mut [&mut table], &mut NoopPublish)
                .unwrap();
        });
        self.v.set("txn.commit_1w_ns", ns);
        let mut txns = open_txns(&mut mgr, &mut table, singles, 1, &mut next_key)?;
        let ns = self.ns("txn.abort_1w", singles, |i| {
            mgr.abort(&mut txns[i], &mut [&mut table]).unwrap();
        });
        self.v.set("txn.abort_1w_ns", ns);
        let batches = self.n(400);
        let mut txns = open_txns(&mut mgr, &mut table, batches, 256, &mut next_key)?;
        let ns = self.ns("txn.commit_256w", batches, |i| {
            mgr.commit(&mut txns[i], &mut [&mut table], &mut NoopPublish)
                .unwrap();
        });
        self.v.set("txn.commit_256w_ns", ns);
        Ok(())
    }

    fn wal(&mut self, out_dir: &Path) -> Res<()> {
        let path = out_dir.join(format!("probe-wal-{}.log", std::process::id()));
        let mut log = LogWriter::open(&path, Arc::new(SimClock::new()), 0)?;
        let record = LogRecord::Insert {
            tid: 1,
            table: 0,
            row: 0,
            values: row(0),
        };
        let append = self.ns("wal.append", self.n(200_000), |_| {
            log.append(&record).unwrap();
        });
        log.sync()?;
        let append_sync = self.ns("wal.append+sync", self.n(2_000), |_| {
            log.append(&record).unwrap();
            log.sync().unwrap();
        });
        drop(log);
        std::fs::remove_file(&path)?;
        self.v.set("wal.append_ns", append);
        self.v.set("wal.sync_ns", (append_sync - append).max(0.0));
        Ok(())
    }
}

/// `count` open transactions holding `writes` inserts each.
fn open_txns(
    mgr: &mut TxnManager,
    table: &mut VTable,
    count: usize,
    writes: usize,
    next_key: &mut i64,
) -> Res<Vec<Transaction>> {
    let mut txns = Vec::with_capacity(count);
    for _ in 0..count {
        let mut tx = mgr.begin();
        for _ in 0..writes {
            mgr.insert(&mut tx, &mut [&mut *table], 0, &row(*next_key))?;
            *next_key += 1;
        }
        txns.push(tx);
    }
    Ok(txns)
}
