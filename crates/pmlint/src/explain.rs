//! `pmlint --explain <rule>`: rationale, an example finding, and the fix
//! pattern for every rule the linter ships.

struct RuleDoc {
    name: &'static str,
    text: &'static str,
}

const DOCS: &[RuleDoc] = &[
    RuleDoc {
        name: "persist-order",
        text: r#"persist-order — unflushed store reaches a publish site

WHY
  Instant restart only works if every NVM store is durable (flushed with
  clwb AND fenced with sfence) before the 8-byte publish store that makes
  it reachable. A store that is dirty or merely in-flight at publish time
  can be reordered past the publish by the memory system; a crash in that
  window recovers a published structure with garbage inside it. This is
  tracked interprocedurally: a helper's store escaping into a caller that
  publishes is the same bug split across two fns.

EXAMPLE FINDING
  crates/storage/src/nv/table.rs:703:9: [persist-order] NVM store `set`
  in `PVar::set` (crates/nvm/src/pvar.rs:57) reaches publish `delta-rows`
  at crates/storage/src/nv/table.rs:703 while unflushed (dirty); path:
  store `set` in `PVar::set` (pvar.rs:57) -> via call to `set` in
  `NvTable::insert_version` (table.rs:685) -> publish `delta-rows` in
  `NvTable::insert_version` (table.rs:703)

FIX PATTERN
  Before the publish store, flush every dirty extent and fence:
      region.flush(off, len)?;   // one per touched extent
      region.fence();
      // pmlint: publish(<label>)
      region.write_pod(publish_off, &value)?;
      region.persist(publish_off, 8)?;
  Publish sites are declared with `// pmlint: publish(<label>)` where
  <label> is a publish label from nvm::protocol_registry()."#,
    },
    RuleDoc {
        name: "unflushed-escape",
        text: r#"unflushed-escape — fn returns with its own dirty NVM stores

WHY
  A fn that writes NVM and returns without flushing hands an invisible
  obligation to every caller. That is sometimes intentional (batching
  flushes across fields), but it must be an explicit contract or a caller
  will eventually publish over a dirty line.

EXAMPLE FINDING
  crates/nvm/src/pvar.rs:57:9: [unflushed-escape] `PVar::set` returns
  with NVM store `write_pod` in `PVar::set` (crates/nvm/src/pvar.rs:57)
  unflushed; flush before returning or annotate the fn
  `// pmlint: caller-flushes`

FIX PATTERN
  Either persist locally:
      region.write_pod(off, &v)?;
      region.persist(off, len)?;
  or declare the batching contract on the fn:
      /// Write without flushing; the caller batches flushes.
      // pmlint: caller-flushes
      pub fn set(&self, region: &NvmRegion, value: &T) -> Result<()> { … }
  Annotated stores are still tracked: they must be flushed+fenced by the
  caller before any publish site (rule persist-order)."#,
    },
    RuleDoc {
        name: "volatile-escape",
        text: r#"volatile-escape — DRAM-derived address flows into a persistent sink

WHY
  A persisted virtual address (Box/Vec pointer, &T cast to usize, raw
  pointer cast to an integer) is meaningless after restart: the heap is
  gone and the mapping address changes. Anything durable must reference
  NVM data by NvmRegion *offset*, never by pointer. The taint analysis
  tracks pointer-to-integer casts through locals, helper returns, and
  helper parameters into `write_pod`/`pvec`/`pvar`/`pslab` sinks.

EXAMPLE FINDING
  crates/storage/src/nv/table.rs:512:9: [volatile-escape] DRAM-derived
  address from `as_ptr` result (table.rs:508) flows into persistent sink
  `write_pod` in `NvTable::stash` (table.rs:512); persisted virtual
  addresses are dangling after restart — store an NvmRegion offset instead

FIX PATTERN
  Allocate in the region and store the offset:
      let off = heap.alloc(len)?;          // NVM offset, stable
      region.write_bytes(off, bytes)?;
      region.write_pod(slot, &off)?;       // persist the offset
  Never:
      region.write_pod(slot, &(v.as_ptr() as u64))?;  // dangling"#,
    },
    RuleDoc {
        name: "publish-binding",
        text: r#"publish-binding — publish annotations must match the protocol registry

WHY
  The persist-order analysis is anchored at publish sites, bound to the
  publish labels declared by nvm::protocol_registry() via
  `// pmlint: publish(<label>)` annotations. An unknown label means the
  annotation is stale or typo'd; a declared label with no annotated site
  means a protocol's publish point is invisible to the analyzer — its
  whole ordering check silently disappears.

EXAMPLE FINDING
  crates/core/src/backend_nv.rs:365:9: [publish-binding] publish label
  `catalog-ctz` is not declared by any ProtocolSpec in
  nvm::protocol_registry()

FIX PATTERN
  Use the exact label from the spec's Publish step:
      // pmlint: publish(catalog-cts)
      self.cts.store(r, &v)?;
  and keep one annotated site in tree for every label returned by
  nvm::publish_labels()."#,
    },
    RuleDoc {
        name: "raw-nvm-write",
        text: r#"raw-nvm-write — raw pointer store into mapped NVM outside a flush helper

WHY
  `ptr::write`/`copy_nonoverlapping`/volatile stores into the mapped
  region bypass the flush/fence bookkeeping (and the persist-trace
  recorder). All NVM mutation must go through the region's write helpers
  so the crash scheduler sees every store.

EXAMPLE FINDING
  crates/nvm/src/region.rs:301:13: [raw-nvm-write] raw pointer write into
  mapped NVM outside a `// pmlint: flush-helper` fn

FIX PATTERN
  Route the store through `NvmRegion::write_pod`/`write_bytes`, or — for
  the primitive implementing those helpers — annotate the fn
  `// pmlint: flush-helper` and keep flush+fence handling inside it."#,
    },
    RuleDoc {
        name: "recovery-unwrap",
        text: r#"recovery-unwrap — unwrap/expect on a recovery or replay path

WHY
  Recovery code runs against arbitrary post-crash bytes. An `unwrap()` on
  that path turns torn data into a process abort — the database fails to
  restart at all, which is strictly worse than detecting and healing.

EXAMPLE FINDING
  crates/wal/src/recovery.rs:88:30: [recovery-unwrap] `unwrap()` on
  recovery-critical path

FIX PATTERN
  Propagate a typed error and let the recovery ladder fall back:
      let hdr = decode_header(bytes).map_err(|_| RecoveryError::TornHeader)?;"#,
    },
    RuleDoc {
        name: "recovery-panic",
        text: r#"recovery-panic — panic!/assert!/unreachable! on a recovery path

WHY
  Same contract as recovery-unwrap: post-crash bytes are untrusted input.
  Asserting on their shape aborts the restart instead of degrading to the
  next rung of the recovery ladder (media-verify → WAL replay).

EXAMPLE FINDING
  crates/core/src/db.rs:412:9: [recovery-panic] `assert!` on
  recovery-critical path

FIX PATTERN
  Convert the invariant to a checked error:
      if off + len > region.len() { return Err(RecoveryError::Extent); }"#,
    },
    RuleDoc {
        name: "recovery-indexing",
        text: r#"recovery-indexing — unchecked slice indexing on a recovery path

WHY
  `bytes[a..b]` panics on out-of-range — and ranges read from post-crash
  NVM can be torn to arbitrary values. Recovery must bounds-check every
  extent it reads.

EXAMPLE FINDING
  crates/wal/src/checkpoint.rs:141:18: [recovery-indexing] unchecked
  slice indexing on recovery-critical path

FIX PATTERN
      let chunk = bytes.get(a..b).ok_or(RecoveryError::Extent)?;"#,
    },
    RuleDoc {
        name: "pod-repr-c",
        text: r#"pod-repr-c — Pod type without #[repr(C)]

WHY
  Pod structs are persisted byte-for-byte. The default Rust repr may
  reorder fields between compiler versions, silently corrupting every
  existing NVM image on upgrade. `#[repr(C)]` pins the layout.

EXAMPLE FINDING
  crates/storage/src/nv/table.rs:60:1: [pod-repr-c] Pod impl for
  `RowMeta` but struct is not #[repr(C)]

FIX PATTERN
      #[repr(C)]
      #[derive(Clone, Copy)]
      struct RowMeta { … }
      unsafe impl Pod for RowMeta {}"#,
    },
    RuleDoc {
        name: "pod-padding-assert",
        text: r#"pod-padding-assert — Pod type without a size assertion

WHY
  Padding bytes in a persisted struct are undefined memory: they leak
  heap contents into the image and break checksums. A const size
  assertion (sum of field sizes == size_of::<T>()) proves there is none.

EXAMPLE FINDING
  crates/core/src/txn_registry.rs:33:1: [pod-padding-assert] Pod impl for
  `TxnSlot` without a `size_of` padding assertion

FIX PATTERN
      const _: () = assert!(core::mem::size_of::<TxnSlot>() == 8 + 8 + 4 + 4);"#,
    },
    RuleDoc {
        name: "unsafe-safety-comment",
        text: r#"unsafe-safety-comment — unsafe block without a // SAFETY: comment

WHY
  Every unsafe block in a persistence engine encodes a memory-model
  argument (aliasing, validity of mapped bytes, fence ordering). The
  argument must be written down where the block is, or review and
  maintenance degrade to guessing.

EXAMPLE FINDING
  crates/nvm/src/region.rs:240:9: [unsafe-safety-comment] `unsafe` block
  without `// SAFETY:` comment

FIX PATTERN
      // SAFETY: `off + len` bounds-checked above; the mapping lives for
      // the lifetime of `self`.
      unsafe { … }"#,
    },
    RuleDoc {
        name: "ffi-safety-comment",
        text: r#"ffi-safety-comment — foreign declarations without a SAFETY argument

WHY
  A foreign `extern` block is an unchecked trust boundary: the compiler
  verifies nothing against the C side, so a wrong parameter type or a
  missed out-parameter is silent undefined behaviour at every call. The
  zero-dependency mmap backend hand-declares mmap/msync/munmap — exactly
  the calls that hand the kernel a pointer into the persistent image. The
  block must carry a `// SAFETY:` comment saying where each prototype was
  verified, and every foreign fn whose signature carries raw pointers
  must state the pointer contract (validity, length, ownership) its call
  sites rely on. `extern crate` and `extern "C" fn` definitions declare
  nothing foreign and are exempt.

EXAMPLE FINDING
  crates/nvm/src/mmap.rs:34:1: [ffi-safety-comment] foreign `extern`
  block without a `// SAFETY:` comment — the compiler checks nothing
  against the C side; state where each prototype was verified

FIX PATTERN
  // SAFETY: each declaration matches the POSIX C prototype exactly
  // (checked against `man 2 mmap` on Linux glibc and musl).
  extern "C" {
      // SAFETY: callers pass a null hint, a length > 0, and an owned fd;
      // the returned mapping (or MAP_FAILED) is checked before use.
      fn mmap(addr: *mut c_void, length: usize, prot: i32, flags: i32,
              fd: i32, offset: i64) -> *mut c_void;
      fn ftruncate(fd: i32, length: i64) -> i32;  // no pointers: block
                                                  // comment suffices
  }"#,
    },
    RuleDoc {
        name: "no-get-unchecked",
        text: r#"no-get-unchecked — get_unchecked in engine code

WHY
  `get_unchecked` on data that can be influenced by post-crash bytes is
  undefined behaviour waiting for a torn length field. The engine's hot
  paths have bounds checks hoisted already; the unchecked variant buys
  nothing measurable and costs memory safety.

EXAMPLE FINDING
  crates/index/src/nvhash.rs:210:24: [no-get-unchecked] `get_unchecked`
  — use checked indexing

FIX PATTERN
      let e = self.slots.get(i).ok_or(IndexError::Slot)?;"#,
    },
    RuleDoc {
        name: "publish-once-media",
        text: r#"publish-once-media — checksummed protocol label missing from media map

WHY
  Every checksummed store label declared by a ProtocolSpec must be
  registered in a `media_extents` map, or the media verifier and the
  fault-injection suites silently skip that structure — its corruption
  becomes undetectable.

EXAMPLE FINDING
  crates/storage/src/nv/table.rs:1:1: [publish-once-media] checksummed
  protocol label "delta-rows" (spec "delta-append") is not registered in
  any media_extents map

FIX PATTERN
  Add the label with its extent to the owning structure's media map:
      fn media_extents(&self) -> Vec<(&'static str, Extent)> {
          vec![("delta-rows", self.rows_publish_extent()), …]
      }"#,
    },
    RuleDoc {
        name: "protocol-spec",
        text: r#"protocol-spec — a declared ProtocolSpec fails happens-before validation

WHY
  The persist-order protocols in nvm::protocol_registry() are validated
  statically: acyclic, exactly one publish step, every store dominated by
  a covering flush and a fence before the publish. A spec that fails is a
  design bug — the code implementing it cannot be crash-consistent.

EXAMPLE FINDING
  crates/nvm/src/protocol.rs:1:1: [protocol-spec] protocol "delta-append"
  fails happens-before validation: store "delta-rows" not covered by a
  flush before publish

FIX PATTERN
  Fix the spec's step graph (add the missing Flush/Fence step or the
  missing `after` edge) so it reflects the intended — correct — order,
  then make the code match it."#,
    },
    RuleDoc {
        name: "atomic-ordering",
        text: r#"atomic-ordering — publication without release/acquire ordering

WHY
  The engine publishes structures twice: to the medium (flush + fence,
  rule persist-order) and to *other threads* (a release store that an
  acquire load pairs with). A `Relaxed` store at a publish site — or a
  plain, non-atomic store where the ProtocolSpec declares release
  publication — lets a concurrent reader observe the publish word before
  the row bytes it guards. The analysis is interprocedural: a helper's
  relaxed store reached from an annotated publish site is the same bug
  one frame away. Sites are anchored by the same annotations the persist
  analysis uses: `// pmlint: publish(<label>)` for the writer side and
  `// pmlint: observe(<label>)` for the reader side.

EXAMPLE FINDING
  crates/core/src/backend_nv.rs:365:9: [atomic-ordering] publish `seq`
  uses atomic `store` with ordering Relaxed; publish requires Release
  (or SeqCst) — a reader that acquires the publish word must also see
  every prior store

FIX PATTERN
  Writer side, through the region primitive (release + persist-tracked):
      // pmlint: publish(catalog-cts)
      region.store_u64_release(off, cts)?;
      region.persist(off, 8)?;
  Reader side:
      // pmlint: observe(catalog-cts)
      let cts = region.load_u64_acquire(off)?;
  For raw atomics, use `Ordering::Release` / `Ordering::Acquire`
  (RMWs: `AcqRel`)."#,
    },
    RuleDoc {
        name: "lock-held-persist",
        text: r#"lock-held-persist — persist fence while holding a lock

WHY
  A persist (clwb + sfence) costs media-write latency — hundreds of
  nanoseconds to microseconds under the NVM latency model. Executing one
  while holding a mutex or write guard stalls every contending thread
  for the duration of the flush; under load this serializes the engine
  on the medium. The check is transitive: a helper that fences, called
  under a guard, is the same stall. Protocols that *require* the fence
  inside the critical section (e.g. allocator reserve→activate) declare
  it with `// pmlint: lock-held-persist(<reason>)` on the fn.

EXAMPLE FINDING
  crates/storage/src/nv/table.rs:512:9: [lock-held-persist] persist
  fence `persist` in `NvTable::commit` while holding lock `meta`
  (acquired line 508); persist latency under a lock stalls every
  contending thread — drop the guard first, or annotate the fn
  `// pmlint: lock-held-persist(<reason>)` if the protocol requires it

FIX PATTERN
  Stage under the lock, persist outside it:
      let guard = self.meta.lock();
      region.write_pod(off, &v)?;
      drop(guard);
      region.persist(off, 8)?;
  or document the protocol that needs the fence inside:
      // pmlint: lock-held-persist(reserve+activate is one atomic
      // allocator protocol)
      pub fn alloc(&self, len: u64) -> Result<u64> { … }"#,
    },
    RuleDoc {
        name: "guard-escape",
        text: r#"guard-escape — lock guard returned from the fn that acquired it

WHY
  Returning a `MutexGuard`/`RwLock*Guard` hands the critical section to
  the caller: the lock stays held for as long as the caller keeps the
  value, invisible at every call site. In an engine where persist
  latency already rides on lock hold times, an escaped guard turns one
  careless caller into a global stall (or a deadlock, combined with
  rule lock-cycle).

EXAMPLE FINDING
  crates/core/src/catalog.rs:88:9: [guard-escape] guard `guard` for lock
  `meta` escapes `Catalog::lock_meta` by return; the lock stays held for
  as long as the caller keeps the value — extract the data and drop the
  guard instead

FIX PATTERN
  Return the data, not the guard:
      pub fn epoch(&self) -> u64 {
          let guard = self.meta.lock();
          guard.epoch
      }"#,
    },
    RuleDoc {
        name: "lock-cycle",
        text: r#"lock-cycle — inconsistent lock order or self re-acquisition

WHY
  Two code paths that take the same pair of locks in opposite order
  deadlock under a concurrent interleaving; a fn that re-acquires a lock
  it already holds self-deadlocks unconditionally (std locks are not
  reentrant). Both are order bugs that no test reliably reproduces —
  the static pairwise check catches them before the lock-free era makes
  the interleavings denser. Read-read re-acquisition on an RwLock is
  legal and not flagged.

EXAMPLE FINDING
  crates/core/src/engine.rs:204:30: [lock-cycle] inconsistent lock
  order: `catalog` (held since line 202) then `index` in
  `Engine::checkpoint` but `index` (held since line 311) then `catalog`
  in `Engine::compact` — a concurrent interleaving deadlocks; pick one
  order

FIX PATTERN
  Pick one global order (document it where the locks are declared) and
  make every path follow it; for self-deadlocks, thread the existing
  guard through instead of re-locking."#,
    },
    RuleDoc {
        name: "send-sync-justification",
        text: r#"send-sync-justification — unsafe Send/Sync impl without a thread-safety argument

WHY
  `unsafe impl Send/Sync` is a concurrency claim: the type is safe to
  move to or share between threads. The engine's SAFETY-comment
  convention (rule unsafe-safety-comment) requires *an* argument, but a
  crash-consistency argument ("bounds checked", "mapping outlives self")
  does not cover the claim being made here. The comment must say what
  lock, atomic, or ownership rule makes cross-thread use sound.

EXAMPLE FINDING
  crates/nvm/src/region.rs:61:22: [send-sync-justification] `unsafe impl
  Sync for NvmRegion` without a thread-safety argument in its
  `// SAFETY:` comment — asserting `Sync` claims the type is safe across
  threads; the comment must say why (what lock, atomic, or ownership
  rule makes it so)

FIX PATTERN
      // SAFETY: all mutation of the mapped bytes goes through the
      // per-extent locks; the raw pointer itself is never exposed, so
      // concurrent `&self` access cannot race.
      unsafe impl Sync for NvmRegion {}"#,
    },
    RuleDoc {
        name: "pod-interior-mutability",
        text: r#"pod-interior-mutability — Pod type with an interior-mutable field

WHY
  Pod values are raw bytes on the medium: they are written with
  `write_pod`, checksummed, and resurrected verbatim after a crash. An
  interior-mutable field (`Atomic*`, `Cell`, `Mutex`, …) inside a Pod
  type persists transient runtime state — a lock word or in-flight flag
  — and recovery would revive it in whatever state the crash left it.
  Runtime synchronization state belongs next to the image, never in it.

EXAMPLE FINDING
  crates/storage/src/nv/table.rs:60:25: [pod-interior-mutability]
  `unsafe impl Pod for SlotHeader` but `SlotHeader` contains
  interior-mutable field type `AtomicU64` — Pod values are raw bytes on
  the medium; lock/atomic state must not be persisted

FIX PATTERN
  Persist the plain value and keep the atomic outside the Pod image:
      #[repr(C)]
      struct SlotHeader { seq: u64, len: u64 }   // persisted
      struct Slot { hdr_off: u64, seq: AtomicU64 } // runtime view"#,
    },
    RuleDoc {
        name: "alloc-unwrap",
        text: r#"alloc-unwrap — panicking construct where an allocation failure can surface

WHY
  Capacity exhaustion is a normal runtime condition, not a bug: the heap
  is finite, the shadow log can hit ENOSPC, and the engine degrades
  through backpressure and read-only modes instead of dying. That only
  works if every fn on the reverse call-graph closure of the allocation
  primitives (heap reserve/activate/alloc, log append/sync) unwinds
  allocation errors as typed values. An `.unwrap()` or `panic!` anywhere
  in that closure turns a full disk or a full heap into an abort — the
  exact failure the degradation machinery exists to prevent.

EXAMPLE FINDING
  crates/storage/src/nv/table.rs:947:44: [alloc-unwrap] `.expect(..)` in
  `merge`, which can observe an allocation failure (calls `alloc`) —
  capacity exhaustion must unwind as a typed error, not abort

FIX PATTERN
  Replace the panic with a typed error the caller can act on:
      let id = dict
          .binary_search(&value)
          .map_err(|_| StorageError::Corrupt { reason: "..." })?;
  For genuinely infallible conversions, restructure so no panicking call
  remains (e.g. `u32::from_le_bytes([b[0], b[1], b[2], b[3]])` instead of
  `.try_into().unwrap()`)."#,
    },
    RuleDoc {
        name: "redundant-flush",
        text: r#"redundant-flush — same line flushed twice with no intervening store

WHY
  A cache-line write-back (clwb) costs on the order of a hundred
  nanoseconds on NVM; it dominates the persistence cost of small
  transactions. Flushing a line that was already flushed — and not
  re-dirtied by a store in between — pays that cost for nothing. The
  pattern usually appears when a helper seals its own stores and a caller
  defensively flushes the same extent again. The analysis inlines callee
  persistence traces, so the diagnostic names the first flush even when it
  lives in a helper.

EXAMPLE FINDING
  crates/storage/src/nv/table.rs:712:14: [redundant-flush] line
  `region[off]` is flushed again by `flush` in `NvTable::seal_row`
  (table.rs:712) with no intervening store; the write-back is a no-op —
  drop it; path: flush `flush` in `seal` (table.rs:640) -> via call to
  `seal` in `NvTable::seal_row` (table.rs:710) -> flush `flush` in
  `NvTable::seal_row` (table.rs:712)

FIX PATTERN
  Delete the second flush and rely on the first:
      region.write_pod(off, &v)?;
      seal(region, off)?;   // already flushes `off`
      region.fence();
  If the helper's flush is conditional, hoist the condition instead of
  flushing unconditionally in both places."#,
    },
    RuleDoc {
        name: "dead-flush",
        text: r#"dead-flush — flush with no reaching store since the last fence

WHY
  After a fence, every earlier flushed store is durable. A flush issued
  with no store since that fence has no dirty line it could possibly
  write back — it is dead code that still occupies a write-back slot and
  serializes against real flushes in the same epoch. These survive
  refactors: the store the flush once covered moved or was deleted, and
  the flush stayed.

EXAMPLE FINDING
  crates/wal/src/lib.rs:204:14: [dead-flush] flush `flush` in
  `Wal::sync` (lib.rs:204) has no reaching store since the last fence;
  every line it could cover is already durable — delete it; path: fence
  `fence` in `Wal::sync` (lib.rs:201) -> flush `flush` in `Wal::sync`
  (lib.rs:204)

FIX PATTERN
  Delete the flush, or move it after the store it is meant to cover:
      region.write_pod(off, &v)?;
      region.flush(off, 8)?;    // covers the store above
      region.fence();"#,
    },
    RuleDoc {
        name: "fence-coalesce",
        text: r#"fence-coalesce — adjacent fences with no intervening flushed store

WHY
  sfence drains the store buffer; its cost is paid per instruction, not
  per line. Two fences with no flushed store between them drain an empty
  queue the second time. The common shape is `persist` (flush + fence)
  followed by an explicit `fence`, or two helpers that each fence
  back-to-back. One fence at the end of the batch gives the identical
  durability guarantee — this is the transformation behind batched
  commit stamping (fence once per table, not once per row).

EXAMPLE FINDING
  crates/txn/src/manager.rs:188:16: [fence-coalesce] fence `fence` in
  `TxnManager::commit` (manager.rs:188) follows fence `persist` in
  `TxnManager::commit` (manager.rs:186) with no intervening flushed
  store; the write-back queue is empty — coalesce into one fence; path:
  fence `persist` in `TxnManager::commit` (manager.rs:186) -> fence
  `fence` in `TxnManager::commit` (manager.rs:188)

FIX PATTERN
  Keep one fence per durability epoch:
      region.write_pod(a, &x)?;
      region.flush(a, 8)?;
      region.write_pod(b, &y)?;
      region.flush(b, 8)?;
      region.fence();            // one fence covers both lines
  When a helper already ends in `persist`, do not fence again in the
  caller."#,
    },
    RuleDoc {
        name: "read-path-purity",
        text: r#"read-path-purity — persistence primitive or lock reachable from a read-path root

WHY
  The instant-restart design keeps reads at DRAM speed: a scan or point
  lookup must never flush, fence, persist, or take a lock, or read
  latency inherits NVM write-back and writer-contention costs. A fn
  annotated `// pmlint: read-path` declares that contract; the gate walks
  its transitive callees and reports any persistence intrinsic or lock
  acquisition it can reach. Unresolved calls are assumed pure, so the
  gate never blocks on code outside the analyzed tree.

EXAMPLE FINDING
  crates/core/src/db.rs:641:18: [read-path-purity] read-path root
  `Db::scan_eq` reaches persistence primitive `persist` at
  crates/core/src/db.rs:641; the read path must issue zero persistence
  primitives and take no lock; path: `Db::scan_eq` -> `warm_cache`

FIX PATTERN
  Move the write work off the read path (defer cache warming to the
  writer or a maintenance task), and replace locks with seqlock-style
  optimistic reads:
      // pmlint: read-path
      pub fn scan_eq(&self, ...) -> Vec<Row> {
          loop {
              let s1 = self.seq.load(Ordering::Acquire);
              if s1 & 1 == 1 { continue; }
              let out = self.read_rows(...);
              if self.seq.load(Ordering::Acquire) == s1 { return out; }
          }
      }"#,
    },
];

/// Names of every rule with an `--explain` entry.
pub fn explained_rules() -> Vec<&'static str> {
    DOCS.iter().map(|d| d.name).collect()
}

/// The explanation text for `rule`, if it exists.
pub fn explain(rule: &str) -> Option<&'static str> {
    DOCS.iter().find(|d| d.name == rule).map(|d| d.text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_why_example_and_fix() {
        let mut explained = explained_rules();
        let mut emitted = crate::RULES.to_vec();
        explained.sort_unstable();
        emitted.sort_unstable();
        assert_eq!(
            explained, emitted,
            "every emitted rule is explained, and only those"
        );
        for rule in explained_rules() {
            let text = explain(rule).unwrap();
            assert!(text.contains("WHY"), "{rule} missing WHY");
            assert!(text.contains("EXAMPLE FINDING"), "{rule} missing example");
            assert!(text.contains("FIX PATTERN"), "{rule} missing fix");
        }
    }

    #[test]
    fn unknown_rule_is_none() {
        assert!(explain("no-such-rule").is_none());
    }
}
