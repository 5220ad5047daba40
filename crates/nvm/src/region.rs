//! The NVM region: dirty-line tracking, crash injection, and (optionally)
//! persist-trace recording with scheduled, deterministic crashes — over one
//! of two backings: the simulated two-image medium, or a file-backed
//! `MAP_SHARED` mapping whose fences become `msync(MS_SYNC)` calls
//! ([`RegionBacking::File`]).
//!
//! A read is a bounds check, one relaxed load of the armed-instrument word
//! and, while nothing is armed, a plain load from the CPU-visible image: no
//! lock and no locked read-modify-write. The region lock guards line
//! bookkeeping, never the bytes loads see.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use util::rng::{Rng, SmallRng};
use util::sync::Mutex;

use crate::fault::{AllocFaultClass, AllocFaultSpec, FaultClass, FaultSpec};
use crate::latency::{LatencyModel, SimClock};
use crate::layout::{line_span, CACHE_LINE};
use crate::mmap::MmapFile;
use crate::pod::Pod;
use crate::schedule::{CrashOutcome, CrashPoint};
use crate::stats::{NvmStats, StatsSnapshot};
use crate::trace::{LintFinding, Mode, PendingLine, PersistTrace, Recorder, TraceConfig};
use crate::{NvmError, Result};

/// What happens to dirty-but-unflushed cache lines when power is lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashPolicy {
    /// Every unflushed line is lost. The most conservative model: only data
    /// covered by an explicit `flush` survives.
    DropUnflushed,
    /// Each dirty line independently survives with probability `p`,
    /// modelling cache lines that happened to be evicted (written back) by
    /// the hardware before the failure. Crash-consistent software must
    /// tolerate *any* subset surviving; the seed makes failures replayable.
    RandomEviction {
        /// Per-line survival probability in `[0, 1]`.
        p: f64,
        /// RNG seed for replayable adversarial runs.
        seed: u64,
    },
}

/// The CPU-visible image: the bytes loads see and stores write.
///
/// Both backings are interior-mutable memory — `AtomicU64` words, or a
/// shared mapping only ever reached through a raw pointer — so stores go
/// through `&self`. Every access derives its pointer from [`Image::base`],
/// and after construction nothing takes `&mut` to the image: a load
/// borrows exactly the bytes it reads and a store copies into exactly the
/// bytes it writes, so no access invalidates a pointer another holds.
///
/// The concurrency contract: two threads may use one region at once when
/// the bytes one stores are not bytes the other loads, and publication is
/// ordered by [`NvmRegion::store_u64_release`] /
/// [`NvmRegion::load_u64_acquire`] — word-granular atomics on the same
/// memory the byte view reads, so a reader that acquires a publish word
/// sees every byte stored before its release. A load of bytes being stored
/// is a data race, as on plain memory — from another thread, or from a
/// [`NvmRegion::with_slice`] closure that stores to the bytes it borrows.
/// `crash`, `finalize_scheduled_crash` and fault injection rewrite
/// published bytes, so their callers quiesce readers first.
enum Image {
    /// The simulated medium's volatile image (CPU caches and store
    /// buffers), 8-aligned.
    Sim(Box<[AtomicU64]>),
    /// The file mapping, shared with the page cache; page-aligned.
    File(MmapFile),
}

impl Image {
    /// The first byte of the image: the one pointer every access derives
    /// from.
    #[inline]
    fn base(&self) -> *mut u8 {
        match self {
            Image::Sim(words) => words.as_ptr() as *mut u8,
            Image::File(map) => map.base(),
        }
    }

    /// The bytes `[off, off + len)`, which the caller has bounds-checked.
    #[inline]
    fn bytes(&self, off: usize, len: usize) -> &[u8] {
        // SAFETY: the caller checked `off + len <= capacity`, and the
        // image holds `capacity` initialized bytes behind `base`. By the
        // concurrency contract no thread stores to these bytes while the
        // borrow lives.
        unsafe { std::slice::from_raw_parts(self.base().add(off), len) }
    }

    /// The aligned `AtomicU64` word at byte offset `off`, which the caller
    /// has bounds- and alignment-checked.
    #[inline]
    fn word(&self, off: usize) -> &AtomicU64 {
        // SAFETY: `base` is 8-aligned (an `AtomicU64` array or a page) and
        // so is the checked `off`; the word lies inside the image, and
        // `AtomicU64` has `u64`'s layout. Concurrent access to the word
        // itself is synchronized by the atomic operations.
        unsafe { &*(self.base().add(off) as *const AtomicU64) }
    }

    /// Copy `src` into `[off, off + src.len())`, which the caller has
    /// bounds-checked: the one store primitive of the image.
    // pmlint: flush-helper
    #[inline]
    fn store_bytes(&self, off: usize, src: &[u8]) {
        // SAFETY: the range lies inside the image, whose memory is
        // interior-mutable, so writing through a pointer derived from
        // `&self` is allowed. By the concurrency contract nothing loads
        // these bytes meanwhile — `src` included, so it cannot overlap them.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.base().add(off), src.len()) }
    }
}

/// Which medium backs an [`NvmRegion`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionBacking {
    /// In-process simulated medium: two images, deterministic power-loss
    /// crash injection, and scheduled (persist-trace) crashes.
    Sim,
    /// A `MAP_SHARED` read-write mapping of the given file. Stores survive
    /// real process death via the page cache; [`NvmRegion::fence`] becomes
    /// `msync(MS_SYNC)` over the lines flushed since the previous fence, so
    /// only synced data is promised to survive power loss. Scheduled
    /// simulator crashes ([`NvmRegion::arm_crash`]) are rejected on this
    /// backing — real kills are delivered by the out-of-process harness
    /// (see [`arm_kill_at_fence`](crate::arm_kill_at_fence)).
    File(PathBuf),
}

/// Construction-time configuration for [`NvmRegion::with_config`].
#[derive(Debug, Clone)]
pub struct NvmConfig {
    /// Region capacity in bytes (rounded up to whole cache lines).
    pub capacity: u64,
    /// Latency model charged against the simulated-time ledger.
    pub latency: LatencyModel,
    /// Backing medium.
    pub backing: RegionBacking,
}

impl NvmConfig {
    /// Config for a simulated region (equivalent to [`NvmRegion::new`]).
    pub fn sim(capacity: u64, latency: LatencyModel) -> NvmConfig {
        NvmConfig {
            capacity,
            latency,
            backing: RegionBacking::Sim,
        }
    }

    /// Config for a file-backed region at `path`.
    pub fn file(path: impl Into<PathBuf>, capacity: u64, latency: LatencyModel) -> NvmConfig {
        NvmConfig {
            capacity,
            latency,
            backing: RegionBacking::File(path.into()),
        }
    }
}

/// What the region lock guards: line bookkeeping and the simulated medium,
/// never the CPU-visible bytes.
struct Books {
    /// Sim backing: the bytes a post-crash recovery would see. `None` on
    /// the file backing, whose mapping is its own medium — the process
    /// cannot observe the synced-vs-unsynced split of its own stores.
    medium: Option<Box<[u8]>>,
    /// One bit per cache line: line holds stores not yet flushed.
    dirty: Vec<u64>,
    /// File backing only: the span (first and last cache line) of the
    /// lines flushed since the last fence, awaiting `msync` at the fence —
    /// the durability analogue of the simulator's
    /// flush-buffers-until-fence trace semantics.
    pending_sync: Option<(u64, u64)>,
    /// The touched span: one past the highest cache line ever stored or
    /// damaged. Every byte past it is zero in both sim images, so the
    /// whole-image passes (power loss, eviction, trace start, the
    /// fingerprint) walk only `[0, touched)`.
    touched: u64,
}

impl Books {
    #[inline]
    fn mark_dirty(&mut self, first_line: u64, last_line: u64) {
        for line in first_line..=last_line {
            self.dirty[(line / 64) as usize] |= 1u64 << (line % 64);
        }
        self.touched = self.touched.max(last_line + 1);
    }

    #[inline]
    fn is_dirty(&self, line: u64) -> bool {
        self.dirty[(line / 64) as usize] & (1u64 << (line % 64)) != 0
    }

    #[inline]
    fn clear_dirty(&mut self, line: u64) {
        self.dirty[(line / 64) as usize] &= !(1u64 << (line % 64));
    }

    /// Copy one snapshotted line onto the simulated medium. No-op for the
    /// file backing: the mapping already holds every store.
    fn persist_snapshot(&mut self, line: u64, data: &[u8]) {
        if let Some(medium) = &mut self.medium {
            let start = (line * CACHE_LINE) as usize;
            medium[start..start + CACHE_LINE as usize].copy_from_slice(data);
        }
    }

    /// Write one dirty cache line back to the medium and mark it clean:
    /// copy image → medium (sim); on the file backing the store is already
    /// in the mapping and the caller queues the flushed range for the next
    /// fence's `msync`. Returns true if the line was actually dirty.
    fn write_back(&mut self, image: &Image, line: u64) -> bool {
        if !self.is_dirty(line) {
            return false;
        }
        let start = (line * CACHE_LINE) as usize;
        self.persist_snapshot(line, image.bytes(start, CACHE_LINE as usize));
        self.clear_dirty(line);
        true
    }

    /// Widen the span the next fence's `msync` covers to include lines
    /// `[first, last]` (file backing; the simulated medium already holds
    /// them).
    fn queue_sync(&mut self, first: u64, last: u64) {
        if self.medium.is_none() {
            let (a, b) = self.pending_sync.unwrap_or((first, last));
            self.pending_sync = Some((a.min(first), b.max(last)));
        }
    }
}

/// [`NvmRegion::armed`] bit: a persist trace (recording, blackout or lint)
/// is active.
const TRACE: u32 = 1;
/// [`NvmRegion::armed`] bit: at least one cache line is poisoned.
const POISON: u32 = 1 << 1;
/// [`NvmRegion::armed`] bit: a capacity-pressure fault is armed.
const ALLOC_FAULT: u32 = 1 << 2;

/// A simulated NVM device of fixed capacity.
///
/// All methods take `&self`, and the region is `Sync`: see [`Image`] for
/// what two threads may do with one region at once. Reads take no lock;
/// stores, flushes and fences serialize on the bookkeeping lock.
pub struct NvmRegion {
    /// The CPU-visible image, outside every lock.
    image: Image,
    /// Dirty lines, the touched span, the pending `msync` span and the
    /// sim's medium.
    books: Mutex<Books>,
    stats: NvmStats,
    clock: SimClock,
    latency: LatencyModel,
    capacity: u64,
    /// Which instruments are armed (`TRACE`, `POISON`, `ALLOC_FAULT`).
    /// Arming and disarming maintain it; a read tests `TRACE | POISON` with
    /// one relaxed load and takes no instrument lock while both are clear.
    armed: AtomicU32,
    /// Persist-trace recorder; `None` outside recording/lint sessions.
    recorder: Mutex<Option<Recorder>>,
    /// Poisoned cache lines (media-fault injection); empty outside fault
    /// sessions.
    poison: Mutex<HashMap<u64, PoisonState>>,
    /// Capacity-pressure fault state; `None` outside exhaustion sessions.
    alloc_fault: Mutex<Option<AllocFaultState>>,
    /// Effective-capacity clamp for the allocator (`u64::MAX` = none).
    /// Only the allocation limit shrinks; bounds checks and the on-medium
    /// capacity header still use the true capacity.
    alloc_clamp: AtomicU64,
    /// Allocation attempts observed via [`NvmRegion::alloc_attempt`].
    alloc_attempts: AtomicU64,
    /// First `msync` failure latched by a fence (the fence API is
    /// infallible); drained by [`NvmRegion::take_sync_error`].
    sync_error: Mutex<Option<NvmError>>,
}

/// State of an armed capacity-pressure fault.
struct AllocFaultState {
    class: AllocFaultClass,
    rng: SmallRng,
    /// Attempts seen since arming (drives `FailNth`).
    seen: u64,
}

/// State of one poisoned line.
#[derive(Debug, Clone, Copy)]
struct PoisonState {
    /// Permanent poison never clears on retry.
    permanent: bool,
    /// Failed reads remaining before a transient poison clears.
    remaining: u32,
}

impl NvmRegion {
    /// Create a zero-filled simulated region of `capacity` bytes (rounded
    /// up to a whole number of cache lines) with the given latency model.
    pub fn new(capacity: u64, latency: LatencyModel) -> Self {
        let capacity = crate::layout::align_up(capacity.max(CACHE_LINE), CACHE_LINE);
        let words = (0..capacity / 8).map(|_| AtomicU64::new(0)).collect();
        let medium = vec![0u8; capacity as usize].into_boxed_slice();
        Self::from_parts(Image::Sim(words), Some(medium), capacity, latency)
    }

    /// Open (creating and growing as needed) the file at `path` as a
    /// `MAP_SHARED` region of `capacity` bytes. The existing file contents
    /// are the region's initial image — reopening after a process death
    /// (or a clean shutdown) resumes from whatever reached the page cache.
    pub fn open_file(path: &Path, capacity: u64, latency: LatencyModel) -> Result<Self> {
        let capacity = crate::layout::align_up(capacity.max(CACHE_LINE), CACHE_LINE);
        let map = MmapFile::open(path, capacity)?;
        Ok(Self::from_parts(Image::File(map), None, capacity, latency))
    }

    /// Build a region from an [`NvmConfig`] — the backend-selection entry
    /// point used by the engine's durability configuration.
    pub fn with_config(config: NvmConfig) -> Result<Self> {
        match config.backing {
            RegionBacking::Sim => Ok(Self::new(config.capacity, config.latency)),
            RegionBacking::File(path) => Self::open_file(&path, config.capacity, config.latency),
        }
    }

    fn from_parts(
        image: Image,
        medium: Option<Box<[u8]>>,
        capacity: u64,
        latency: LatencyModel,
    ) -> Self {
        let lines = capacity / CACHE_LINE;
        NvmRegion {
            image,
            books: Mutex::new(Books {
                medium,
                dirty: vec![0u64; lines.div_ceil(64) as usize],
                pending_sync: None,
                touched: 0,
            }),
            stats: NvmStats::default(),
            clock: SimClock::new(),
            latency,
            capacity,
            armed: AtomicU32::new(0),
            recorder: Mutex::new(None),
            poison: Mutex::new(HashMap::new()),
            alloc_fault: Mutex::new(None),
            alloc_clamp: AtomicU64::new(u64::MAX),
            alloc_attempts: AtomicU64::new(0),
            sync_error: Mutex::new(None),
        }
    }

    /// True if this region is backed by a `MAP_SHARED` file mapping.
    #[inline]
    pub fn is_file_backed(&self) -> bool {
        matches!(self.image, Image::File(_))
    }

    /// `msync(MS_SYNC)` the entire mapping (file backing; no-op for the
    /// simulated backing, whose flushes are synchronous). Clears the
    /// pending per-fence sync set — everything is durable after this.
    pub fn sync_all(&self) -> Result<()> {
        self.books.lock().pending_sync = None;
        if let Image::File(map) = &self.image {
            map.sync_all()?;
        }
        Ok(())
    }

    /// Take the first `msync` failure a fence latched, if any. Fences are
    /// infallible by signature; durability-critical callers (shutdown,
    /// the torture harness) poll this after their last fence.
    pub fn take_sync_error(&self) -> Option<NvmError> {
        self.sync_error.lock().take()
    }

    /// Region capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The latency model this region charges against.
    #[inline]
    pub fn latency_model(&self) -> LatencyModel {
        self.latency
    }

    /// The simulated-time ledger shared by all users of this region.
    #[inline]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Primitive-call counters.
    #[inline]
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Reset counters (the simulated clock is reset separately via
    /// [`SimClock::reset`]).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Fail unless `[off, off+len)` lies inside the region.
    #[inline]
    fn check(&self, off: u64, len: u64) -> Result<()> {
        if off.checked_add(len).is_some_and(|end| end <= self.capacity) {
            Ok(())
        } else {
            Err(NvmError::OutOfBounds {
                offset: off,
                len,
                capacity: self.capacity,
            })
        }
    }

    /// True if any instrument of `bits` is armed.
    #[inline]
    fn is_armed(&self, bits: u32) -> bool {
        self.armed.load(Ordering::Relaxed) & bits != 0
    }

    fn arm(&self, bits: u32) {
        self.armed.fetch_or(bits, Ordering::Relaxed);
    }

    /// Disarm `bits`; true if any of them was armed.
    fn disarm(&self, bits: u32) -> bool {
        self.armed.fetch_and(!bits, Ordering::Relaxed) & bits != 0
    }

    /// Fail the access if any cache line it covers is poisoned. A transient
    /// poison burns one retry per failing read and clears when exhausted.
    fn check_poison(&self, off: u64, len: u64) -> Result<()> {
        if !self.is_armed(POISON) {
            return Ok(());
        }
        let (a, b) = line_span(off, len);
        let mut map = self.poison.lock();
        for line in a..=b {
            if let Some(state) = map.get_mut(&line) {
                if state.permanent {
                    return Err(NvmError::PoisonedRead {
                        offset: off,
                        line,
                        permanent: true,
                    });
                }
                state.remaining = state.remaining.saturating_sub(1);
                if state.remaining == 0 {
                    map.remove(&line);
                    if map.is_empty() {
                        self.disarm(POISON);
                    }
                }
                return Err(NvmError::PoisonedRead {
                    offset: off,
                    line,
                    permanent: false,
                });
            }
        }
        Ok(())
    }

    /// Clear poison from every line fully overwritten by `[off, off+len)`:
    /// a full-line store re-arms the ECC, as on real hardware.
    fn scrub_poison(&self, off: u64, len: u64) {
        if !self.is_armed(POISON) {
            return;
        }
        let first_full = off.div_ceil(CACHE_LINE);
        let end_full = (off + len) / CACHE_LINE; // exclusive
        if first_full >= end_full {
            return;
        }
        let mut map = self.poison.lock();
        for line in first_full..end_full {
            map.remove(&line);
        }
        if map.is_empty() {
            self.disarm(POISON);
        }
    }

    /// The read accessors' instrument gate: one relaxed load of the armed
    /// word, and nothing more while neither poison nor a trace is armed.
    #[inline(always)]
    fn read_instruments(&self, off: u64, len: u64) -> Result<()> {
        if self.is_armed(TRACE | POISON) {
            return self.read_armed(off, len);
        }
        Ok(())
    }

    /// The read accessors' slow path, taken only while poison or a trace is
    /// armed: fail on a poisoned line, else report the read to the lint.
    /// Neither instrument exists on real hardware, so the read-path purity
    /// gate trusts this fn instead of walking its locks.
    // pmlint: read-pure
    #[cold]
    #[inline(never)]
    fn read_armed(&self, off: u64, len: u64) -> Result<()> {
        self.check_poison(off, len)?;
        if self.is_armed(TRACE) {
            if let Some(rec) = self.recorder.lock().as_mut() {
                rec.on_read(off, len);
            }
        }
        Ok(())
    }

    /// Run `put` into the checked range `[off, off+len)` under the
    /// bookkeeping lock, with a store's bookkeeping around it: poison
    /// scrub, dirty lines, the byte counter and the trace.
    fn store_with(&self, off: u64, len: u64, put: impl FnOnce()) {
        self.scrub_poison(off, len);
        let mut books = self.books.lock();
        put();
        let (a, b) = line_span(off, len);
        books.mark_dirty(a, b);
        drop(books);
        self.stats.bytes_written.fetch_add(len, Ordering::Relaxed);
        if self.is_armed(TRACE) {
            if let Some(rec) = self.recorder.lock().as_mut() {
                rec.on_store(off, len);
            }
        }
    }

    /// Store `bytes` at `off` in the volatile image.
    pub fn write_bytes(&self, off: u64, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        self.check(off, bytes.len() as u64)?;
        let put = || self.image.store_bytes(off as usize, bytes);
        self.store_with(off, bytes.len() as u64, put);
        Ok(())
    }

    /// Load `buf.len()` bytes starting at `off` from the volatile image.
    #[inline]
    pub fn read_bytes(&self, off: u64, buf: &mut [u8]) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        let len = buf.len() as u64;
        self.check(off, len)?;
        self.read_instruments(off, len)?;
        self.stats.count_read(len);
        buf.copy_from_slice(self.image.bytes(off as usize, buf.len()));
        Ok(())
    }

    /// Store a [`Pod`] value at `off`.
    // pmlint: caller-flushes
    #[inline]
    pub fn write_pod<T: Pod>(&self, off: u64, value: &T) -> Result<()> {
        self.write_bytes(off, value.as_bytes())
    }

    /// Load a [`Pod`] value from `off`: a plain load while no instrument
    /// is armed.
    #[inline]
    pub fn read_pod<T: Pod>(&self, off: u64) -> Result<T> {
        let len = T::SIZE as u64;
        self.check(off, len)?;
        self.read_instruments(off, len)?;
        self.stats.count_read(len);
        Ok(T::from_bytes(self.image.bytes(off as usize, T::SIZE)))
    }

    /// Run `f` over a borrowed slice of the volatile image — the bulk read
    /// path: one bounds check and one instrument test for the whole scan.
    pub fn with_slice<R>(&self, off: u64, len: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.check(off, len)?;
        self.read_instruments(off, len)?;
        self.stats.count_read(len);
        Ok(f(self.image.bytes(off as usize, len as usize)))
    }

    /// Flush (write back) every dirty cache line covering `[off, off+len)`.
    /// Charges `flush_line_ns` per line actually written back.
    ///
    /// While a persist trace is recording, the write-back is *deferred*:
    /// the dirty lines are snapshotted into a pending buffer that the next
    /// [`NvmRegion::fence`] drains to the medium, giving fences real
    /// durability semantics for the crash scheduler.
    pub fn flush(&self, off: u64, len: u64) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        self.check(off, len)?;
        let mode = if self.is_armed(TRACE) {
            self.recorder.lock().as_ref().map(|r| r.mode())
        } else {
            None
        };
        let (a, b) = line_span(off, len);
        let written = match mode {
            Some(Mode::Recording) => {
                // Snapshot + defer: lines leave the dirty set (they are "in
                // flight" to the medium) but only persist at the fence. On
                // the file backing the stores are already in the mapping,
                // so the line is queued for the fence's msync instead.
                let mut books = self.books.lock();
                let mut snaps: Vec<(u64, Box<[u8]>)> = Vec::new();
                for line in a..=b {
                    if books.is_dirty(line) {
                        let start = (line * CACHE_LINE) as usize;
                        snaps.push((line, self.image.bytes(start, CACHE_LINE as usize).into()));
                        books.clear_dirty(line);
                    }
                }
                if let (Some(first), Some(last)) = (snaps.first(), snaps.last()) {
                    books.queue_sync(first.0, last.0);
                }
                drop(books);
                let n = snaps.len() as u64;
                if let Some(rec) = self.recorder.lock().as_mut() {
                    rec.on_flush(snaps);
                }
                n
            }
            Some(Mode::Blackout) => {
                // Power is already gone: the doomed execution still pays
                // the latency, but nothing reaches the medium and the
                // dirty set is left alone.
                let books = self.books.lock();
                (a..=b).filter(|l| books.is_dirty(*l)).count() as u64
            }
            _ => {
                let mut books = self.books.lock();
                let mut written = 0u64;
                let mut span: Option<(u64, u64)> = None;
                for line in a..=b {
                    if books.write_back(&self.image, line) {
                        written += 1;
                        span = Some((span.map_or(line, |s| s.0), line));
                    }
                }
                if let Some((first, last)) = span {
                    books.queue_sync(first, last);
                }
                written
            }
        };
        self.stats.flush_calls.fetch_add(1, Ordering::Relaxed);
        self.stats
            .lines_flushed
            .fetch_add(written, Ordering::Relaxed);
        self.clock.charge(written * self.latency.flush_line_ns);
        Ok(())
    }

    /// Issue a store fence. In the default synchronous simulator the flush
    /// itself already reached the medium, so the fence only charges latency
    /// and counts — but protocols must still call it where hardware would
    /// need it, and the benchmark's `fences_per_write.nvm` counts it. While a
    /// persist trace is recording, the fence is what drains buffered
    /// flushes to the medium (and where an armed crash point trips).
    pub fn fence(&self) {
        let file_backed = self.is_file_backed();
        if file_backed {
            // Deterministic real-kill point for the out-of-process torture
            // harness: dies *before* this fence syncs anything.
            crate::mmap::fence_kill_tick();
        }
        self.stats.fences.fetch_add(1, Ordering::Relaxed);
        self.clock.charge(self.latency.fence_ns);
        if self.is_armed(TRACE) {
            let survivors = match self.recorder.lock().as_mut() {
                Some(rec) => rec.on_fence(),
                None => Vec::new(),
            };
            self.persist_snapshots(&survivors);
        }
        if file_backed {
            self.sync_pending();
        }
    }

    /// Drain the flushed lines: one `msync(MS_SYNC)` over the page-rounded
    /// span from the first to the last of them (file backing). A drain is
    /// one system call however many structures it covers; pages in the
    /// gaps are synced along — more than a fence promises, never less, and
    /// on a file only the dirty ones cost anything. An msync failure is
    /// latched into [`NvmRegion::take_sync_error`].
    fn sync_pending(&self) {
        let Some((first, last)) = self.books.lock().pending_sync.take() else {
            return;
        };
        let Image::File(map) = &self.image else {
            return;
        };
        let off = (first * CACHE_LINE) as usize;
        let len = ((last - first + 1) * CACHE_LINE) as usize;
        if let Err(e) = map.msync_range(off, len) {
            let mut slot = self.sync_error.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        }
    }

    /// `flush` + `fence` — the common "persist this range" idiom.
    pub fn persist(&self, off: u64, len: u64) -> Result<()> {
        self.flush(off, len)?;
        self.fence();
        Ok(())
    }

    #[inline]
    fn check_word(&self, off: u64) -> Result<()> {
        self.check(off, 8)?;
        if !off.is_multiple_of(8) {
            return Err(NvmError::UnalignedAccess {
                offset: off,
                align: 8,
            });
        }
        Ok(())
    }

    /// Release-store `value` into the naturally aligned 8-byte word at
    /// `off`. This is the store half of the engine's publication contract:
    /// a writer makes a protocol instance *visible to concurrent readers*
    /// by release-storing its publish word after the payload stores, and
    /// the matching readers observe it with
    /// [`NvmRegion::load_u64_acquire`]. Visibility order (release/acquire)
    /// and durability order (flush + fence) are separate halves of the
    /// contract — the store dirties the word's cache line like any other
    /// store, so the caller must still persist it.
    // pmlint: caller-flushes
    pub fn store_u64_release(&self, off: u64, value: u64) -> Result<()> {
        self.check_word(off)?;
        let word = self.image.word(off as usize);
        self.store_with(off, 8, || word.store(value, Ordering::Release));
        Ok(())
    }

    /// Acquire-load the naturally aligned 8-byte word at `off` — the read
    /// half of the publication contract. Everything the publishing thread
    /// stored before its [`NvmRegion::store_u64_release`] of this word is
    /// visible after this load returns the published value.
    #[inline]
    pub fn load_u64_acquire(&self, off: u64) -> Result<u64> {
        self.check_word(off)?;
        self.read_instruments(off, 8)?;
        self.stats.count_read(8);
        Ok(self.image.word(off as usize).load(Ordering::Acquire))
    }

    /// Charge read latency for a bulk scan of `len` bytes that is assumed to
    /// miss into the medium.
    pub fn charge_read(&self, len: u64) {
        let lines = len.div_ceil(CACHE_LINE);
        self.clock.charge(lines * self.latency.read_line_ns);
    }

    /// Power loss on the sim: the CPU-visible image becomes the medium and
    /// no line is dirty. On the file backing only the dirt is forgotten.
    fn lose_power(&self, books: &mut Books) {
        let touched = (books.touched * CACHE_LINE) as usize;
        if let Some(medium) = &books.medium {
            self.image.store_bytes(0, &medium[..touched]);
        }
        books.dirty[..books.touched.div_ceil(64) as usize].fill(0);
    }

    /// Simulate a power failure: the volatile image is replaced by the
    /// persistent image. Under [`CrashPolicy::RandomEviction`], each dirty
    /// line first survives (is written back) with probability `p`.
    ///
    /// If a persist trace is active it is discarded: a direct crash keeps
    /// the synchronous flush-reaches-medium semantics, so any flushed-but-
    /// unfenced lines are drained to the medium first. Use
    /// [`NvmRegion::arm_crash`] + [`NvmRegion::finalize_scheduled_crash`]
    /// for fence-accurate scheduled crashes.
    /// On the file backing, `crash` models *process death*, not power
    /// loss: the page cache keeps every store, so the image is unchanged
    /// and only the trace/dirty bookkeeping is reset — the in-process
    /// analogue of kill(-9) + reopen. Power-loss subsets on real files are
    /// outside what a live process can simulate on its own mapping.
    ///
    /// The sim's crash rewrites published bytes: the caller quiesces
    /// readers first (see [`Image`]).
    pub fn crash(&self, policy: CrashPolicy) {
        self.end_trace();
        let mut books = self.books.lock();
        if books.medium.is_none() {
            books.pending_sync = None;
        } else if let CrashPolicy::RandomEviction { p, seed } = policy {
            let mut rng = SmallRng::seed_from_u64(seed);
            for line in 0..books.touched {
                if books.is_dirty(line) && rng.gen_bool(p.clamp(0.0, 1.0)) {
                    books.write_back(&self.image, line);
                }
            }
        }
        self.lose_power(&mut books);
        self.stats.crashes.fetch_add(1, Ordering::Relaxed);
    }

    // ---- Media-fault injection ----

    /// Overwrite byte `idx` of the medium with `damage` of its old value —
    /// in both images on the sim backing, so the damage survives
    /// [`NvmRegion::crash`] — without dirtying its line.
    fn corrupt(&self, books: &mut Books, idx: usize, damage: impl Fn(u8) -> u8) {
        let byte = damage(self.image.bytes(idx, 1)[0]);
        self.image.store_bytes(idx, &[byte]);
        books.touched = books.touched.max(idx as u64 / CACHE_LINE + 1);
        if let Some(medium) = &mut books.medium {
            medium[idx] = damage(medium[idx]);
        }
    }

    /// Apply a deterministic media fault (see [`FaultSpec`]). Corrupting
    /// classes mutate **both** images — the damage lives on the medium, so
    /// it survives [`NvmRegion::crash`] — without touching the dirty set
    /// (the fault is not a store; flush/fence behave as before). Poison
    /// classes register the target line in the poison map instead; reads
    /// overlapping it fail with [`NvmError::PoisonedRead`] until the
    /// poison clears (retry exhaustion or a full-line rewrite).
    ///
    /// The same spec against the same image always produces the same
    /// damage. Corruption rewrites published bytes: the caller quiesces
    /// readers first (see [`Image`]).
    pub fn inject_fault(&self, spec: &FaultSpec) -> Result<()> {
        self.check(spec.offset, 1)?;
        let line_start = (spec.offset / CACHE_LINE) * CACHE_LINE;
        let mut rng = SmallRng::seed_from_u64(spec.seed ^ spec.offset.rotate_left(17));
        match spec.class {
            FaultClass::BitFlip { bits } => {
                let mut books = self.books.lock();
                for _ in 0..bits.max(1) {
                    let bit = rng.gen_range_u64(0, CACHE_LINE * 8);
                    let byte = (line_start + bit / 8) as usize;
                    let mask = 1u8 << (bit % 8);
                    self.corrupt(&mut books, byte, |b| b ^ mask);
                }
            }
            FaultClass::TornLine => {
                // A contiguous 8..=32-byte span of the line holds garbage.
                let span = 8 + rng.gen_range_u64(0, 4) * 8;
                let start =
                    (line_start + rng.gen_range_u64(0, (CACHE_LINE - span) / 8 + 1) * 8) as usize;
                let mut books = self.books.lock();
                for i in start..start + span as usize {
                    let g = rng.next_u64() as u8;
                    self.corrupt(&mut books, i, |_| g);
                }
            }
            FaultClass::ScribbledBlock { len } => {
                let len = len.max(1).min(self.capacity - spec.offset);
                let mut books = self.books.lock();
                for i in spec.offset as usize..(spec.offset + len) as usize {
                    let g = rng.next_u64() as u8;
                    self.corrupt(&mut books, i, |_| g);
                }
            }
            FaultClass::PoisonTransient { .. } | FaultClass::PoisonPermanent => {
                let state = match spec.class {
                    FaultClass::PoisonTransient { failures } => PoisonState {
                        permanent: false,
                        remaining: failures.max(1),
                    },
                    _ => PoisonState {
                        permanent: true,
                        remaining: 0,
                    },
                };
                self.poison.lock().insert(spec.offset / CACHE_LINE, state);
                self.arm(POISON);
            }
        }
        self.stats.faults_injected.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Drop all outstanding poison and any armed allocation fault
    /// (bit-level damage is not reversible). The capacity clamp is left in
    /// place — it models a smaller device, not a transient fault.
    pub fn clear_faults(&self) {
        self.poison.lock().clear();
        self.disarm(POISON);
        self.clear_alloc_fault();
    }

    // ---- Capacity-pressure (allocation) fault injection ----

    /// Arm a capacity-pressure fault: subsequent allocation attempts fail
    /// per `spec` (see [`AllocFaultSpec`]). Replaces any armed spec and
    /// restarts the attempt count the spec observes.
    pub fn arm_alloc_fault(&self, spec: &AllocFaultSpec) {
        *self.alloc_fault.lock() = Some(AllocFaultState {
            class: spec.class,
            rng: SmallRng::seed_from_u64(spec.seed ^ 0xA110_CFA1),
            seen: 0,
        });
        self.arm(ALLOC_FAULT);
    }

    /// Disarm any armed allocation fault.
    pub fn clear_alloc_fault(&self) {
        *self.alloc_fault.lock() = None;
        self.disarm(ALLOC_FAULT);
    }

    /// Clamp the allocator's effective capacity to `limit` bytes (`None`
    /// removes the clamp). Shrinks only what new allocations may use;
    /// bounds checks and already-allocated data are untouched, so the
    /// clamp is a pure pressure dial.
    pub fn set_capacity_clamp(&self, limit: Option<u64>) {
        self.alloc_clamp
            .store(limit.unwrap_or(u64::MAX), Ordering::Relaxed);
    }

    /// The armed capacity clamp, if any.
    pub fn capacity_clamp(&self) -> Option<u64> {
        match self.alloc_clamp.load(Ordering::Relaxed) {
            u64::MAX => None,
            v => Some(v),
        }
    }

    /// Capacity the allocator may actually use: the true capacity, shrunk
    /// by any armed clamp.
    #[inline]
    pub fn effective_capacity(&self) -> u64 {
        self.capacity.min(self.alloc_clamp.load(Ordering::Relaxed))
    }

    /// Allocation attempts observed so far (lifetime of the region).
    /// Sweeping `FailNth` over `0..alloc_attempts()` of a reference run
    /// samples every allocation site of a workload.
    pub fn alloc_attempts(&self) -> u64 {
        self.alloc_attempts.load(Ordering::Relaxed)
    }

    /// Observe one allocation attempt of `requested` payload bytes. Called
    /// by the allocator before reserving space; fails with
    /// [`NvmError::OutOfMemory`] when an armed [`AllocFaultSpec`] says this
    /// attempt is the one that hits the wall. Injected failures count into
    /// `faults_injected`.
    pub fn alloc_attempt(&self, requested: u64) -> Result<()> {
        self.alloc_attempts.fetch_add(1, Ordering::Relaxed);
        if !self.is_armed(ALLOC_FAULT) {
            return Ok(());
        }
        let mut guard = self.alloc_fault.lock();
        let fire = match guard.as_mut() {
            None => false,
            Some(state) => {
                let n = state.seen;
                state.seen += 1;
                match state.class {
                    AllocFaultClass::FailNth { nth } => {
                        if n == nth {
                            // One-shot: disarm so retries after the abort
                            // see a healthy allocator again.
                            *guard = None;
                            self.disarm(ALLOC_FAULT);
                            true
                        } else {
                            false
                        }
                    }
                    AllocFaultClass::FailProbabilistic { p } => {
                        state.rng.gen_bool(p.clamp(0.0, 1.0))
                    }
                }
            }
        };
        drop(guard);
        if fire {
            self.stats.faults_injected.fetch_add(1, Ordering::Relaxed);
            return Err(NvmError::OutOfMemory { requested });
        }
        Ok(())
    }

    /// Number of currently poisoned cache lines.
    pub fn poisoned_lines(&self) -> u64 {
        if !self.is_armed(POISON) {
            return 0;
        }
        self.poison.lock().len() as u64
    }

    /// Number of currently dirty (unflushed) cache lines. Test/diagnostic
    /// helper.
    pub fn dirty_lines(&self) -> u64 {
        let books = self.books.lock();
        books.dirty.iter().map(|w| w.count_ones() as u64).sum()
    }

    // ---- Persist-trace recording and scheduled crashes ----

    /// Start recording a persist trace. Any lines already dirty are
    /// stamped as epoch-0 stores so their loss stays attributable.
    /// Replaces a previous trace, if one was active, draining its
    /// flushed-but-unfenced lines to the medium as [`NvmRegion::trace_stop`]
    /// does.
    pub fn trace_start(&self, config: TraceConfig) {
        self.end_trace();
        let books = self.books.lock();
        let pre_dirty: Vec<u64> = (0..books.touched).filter(|l| books.is_dirty(*l)).collect();
        drop(books);
        *self.recorder.lock() = Some(Recorder::new(config, pre_dirty.into_iter()));
        self.arm(TRACE);
    }

    /// True while a trace (recording, blackout, or lint phase) is active.
    pub fn trace_active(&self) -> bool {
        self.is_armed(TRACE)
    }

    /// Stop the trace and return it. Flushed-but-unfenced lines are
    /// drained to the medium (synchronous semantics are restored).
    /// Returns `None` if no trace was active.
    pub fn trace_stop(&self) -> Option<PersistTrace> {
        self.end_trace().map(Recorder::into_trace)
    }

    /// Disarm the trace and take its recorder, draining its
    /// flushed-but-unfenced lines to the medium.
    fn end_trace(&self) -> Option<Recorder> {
        if !self.disarm(TRACE) {
            return None;
        }
        let mut rec = self.recorder.lock().take()?;
        self.persist_snapshots(&rec.drain_pending());
        Some(rec)
    }

    /// Land a trace's buffered line snapshots on the medium.
    fn persist_snapshots(&self, lines: &[PendingLine]) {
        let mut books = self.books.lock();
        for p in lines {
            books.persist_snapshot(p.line, &p.data);
        }
    }

    /// Arm a deterministic crash point. Requires an active recording; the
    /// point trips at its fence, after which the medium silently stops
    /// accepting write-backs while the (doomed) execution continues.
    pub fn arm_crash(&self, point: CrashPoint) -> Result<()> {
        if self.is_file_backed() {
            return Err(NvmError::TraceState {
                reason: "scheduled crashes require the simulated backing; \
                         real kills come from the out-of-process harness",
            });
        }
        match self.recorder.lock().as_mut() {
            Some(rec) if rec.mode() == Mode::Recording => {
                rec.arm(point);
                Ok(())
            }
            _ => Err(NvmError::TraceState {
                reason: "arm_crash requires an active persist-trace recording",
            }),
        }
    }

    /// Fence number at which the armed crash point tripped, if it has.
    pub fn crash_tripped(&self) -> Option<u64> {
        if !self.is_armed(TRACE) {
            return None;
        }
        self.recorder.lock().as_ref().and_then(|r| r.tripped_at())
    }

    /// Fences recorded so far in the active trace.
    pub fn trace_fences(&self) -> u64 {
        self.recorder.lock().as_ref().map_or(0, |r| r.fences())
    }

    /// Materialize the scheduled crash: the volatile image is replaced by
    /// the surviving persistent image and the trace switches into lint
    /// mode, where recovery reads that touch never-persisted lines are
    /// reported (see [`NvmRegion::take_lint_findings`]).
    ///
    /// If the armed point never tripped (the workload issued fewer fences
    /// than scheduled) the crash happens here, at end of run, losing every
    /// unfenced line. Like [`NvmRegion::crash`], this rewrites published
    /// bytes: the caller quiesces readers first.
    pub fn finalize_scheduled_crash(&self) -> Result<CrashOutcome> {
        if self.is_file_backed() {
            return Err(NvmError::TraceState {
                reason: "scheduled crashes require the simulated backing; \
                         real kills come from the out-of-process harness",
            });
        }
        if !self.is_armed(TRACE) {
            return Err(NvmError::TraceState {
                reason: "finalize_scheduled_crash requires an active persist trace",
            });
        }
        // Replace the volatile image with the survivors and clear dirt,
        // exactly like a power failure.
        self.lose_power(&mut self.books.lock());
        let hash = self.persistent_hash();
        let mut guard = self.recorder.lock();
        let rec = guard.as_mut().ok_or(NvmError::TraceState {
            reason: "persist trace vanished during finalize",
        })?;
        let outcome = rec.finalize(hash);
        self.stats.scheduled_crashes.fetch_add(1, Ordering::Relaxed);
        self.stats.crashes.fetch_add(1, Ordering::Relaxed);
        Ok(outcome)
    }

    /// Re-arm the trace for a *nested* crash inside the upcoming
    /// recovery. Valid only right after
    /// [`NvmRegion::finalize_scheduled_crash`] (lint mode): recording
    /// restarts with fence numbering relative to the recovery attempt's
    /// own persistence stream, so `point` trips at the Nth recovery
    /// fence (or mid-epoch within recovery). Pass `None` to record the
    /// recovery without scheduling a trip — a later
    /// `finalize_scheduled_crash` then materializes a crash at end of
    /// recovery, and `trace_fences` exposes the recovery's fence count
    /// for sampling nested points.
    ///
    /// Lost lines and lint findings from earlier crashes in the chain
    /// carry across the re-arm.
    pub fn rearm_recovery_crash(&self, point: Option<CrashPoint>) -> Result<()> {
        if !self.is_armed(TRACE) {
            return Err(NvmError::TraceState {
                reason: "rearm_recovery_crash requires an active persist trace",
            });
        }
        match self.recorder.lock().as_mut() {
            Some(rec) if rec.mode() == Mode::Lint => {
                rec.rearm(point);
                Ok(())
            }
            _ => Err(NvmError::TraceState {
                reason: "rearm_recovery_crash requires a materialized crash (lint mode)",
            }),
        }
    }

    /// Drain the missing-flush findings collected since the scheduled
    /// crash was materialized.
    pub fn take_lint_findings(&self) -> Vec<LintFinding> {
        self.recorder
            .lock()
            .as_mut()
            .map(|r| r.take_findings())
            .unwrap_or_default()
    }

    /// Lost lines not yet read (reported) or rewritten during recovery.
    pub fn lint_lost_lines(&self) -> u64 {
        self.recorder.lock().as_ref().map_or(0, |r| r.lost_lines())
    }

    /// Fingerprint of the simulated medium: its touched span folded with
    /// the capacity. Two runs with the same workload, crash point, and
    /// seeds must produce the same hash — the determinism check of the
    /// crash-torture harness. Panics on the file backing, which has no
    /// medium apart from its mapping (scheduled crashes reject it).
    pub fn persistent_hash(&self) -> u64 {
        let books = self.books.lock();
        let medium = books.medium.as_deref().expect("simulated backing");
        let touched = &medium[..(books.touched * CACHE_LINE) as usize];
        util::hash::seal_words(&[util::hash::seal(touched), self.capacity])
    }
}

impl std::fmt::Debug for NvmRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmRegion")
            .field("capacity", &self.capacity)
            .field("latency", &self.latency)
            .field("file_backed", &self.is_file_backed())
            .field("dirty_lines", &self.dirty_lines())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::MidEpochSurvival;

    fn region() -> NvmRegion {
        NvmRegion::new(4096, LatencyModel::pcm())
    }

    #[test]
    fn write_read_roundtrip() {
        let r = region();
        r.write_pod(128, &0xABCD_u64).unwrap();
        assert_eq!(r.read_pod::<u64>(128).unwrap(), 0xABCD);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let r = region();
        assert!(matches!(
            r.write_pod(4095, &0u64),
            Err(NvmError::OutOfBounds { .. })
        ));
        assert!(r.read_pod::<u64>(4090).is_err());
        // Zero-length accesses at the boundary are fine.
        r.write_bytes(4096, &[]).unwrap();
    }

    #[test]
    fn unflushed_writes_lost_on_crash() {
        let r = region();
        r.write_pod(0, &1u64).unwrap();
        r.write_pod(64, &2u64).unwrap();
        r.persist(0, 8).unwrap();
        r.crash(CrashPolicy::DropUnflushed);
        assert_eq!(r.read_pod::<u64>(0).unwrap(), 1);
        assert_eq!(r.read_pod::<u64>(64).unwrap(), 0, "unflushed line lost");
    }

    #[test]
    fn flush_is_line_granular() {
        let r = region();
        // Two values on the same cache line: flushing one persists both.
        r.write_pod(0, &7u64).unwrap();
        r.write_pod(8, &9u64).unwrap();
        r.persist(0, 8).unwrap();
        r.crash(CrashPolicy::DropUnflushed);
        assert_eq!(r.read_pod::<u64>(0).unwrap(), 7);
        assert_eq!(r.read_pod::<u64>(8).unwrap(), 9);
    }

    #[test]
    fn random_eviction_persists_subset() {
        let r = NvmRegion::new(64 * 1024, LatencyModel::zero());
        for i in 0..512u64 {
            r.write_pod(i * 64, &(i + 1)).unwrap();
        }
        r.crash(CrashPolicy::RandomEviction { p: 0.5, seed: 42 });
        let survived = (0..512u64)
            .filter(|i| r.read_pod::<u64>(i * 64).unwrap() != 0)
            .count();
        assert!(survived > 100 && survived < 400, "survived {survived}");
        // Replayability: same seed, same outcome.
        let r2 = NvmRegion::new(64 * 1024, LatencyModel::zero());
        for i in 0..512u64 {
            r2.write_pod(i * 64, &(i + 1)).unwrap();
        }
        r2.crash(CrashPolicy::RandomEviction { p: 0.5, seed: 42 });
        for i in 0..512u64 {
            assert_eq!(
                r.read_pod::<u64>(i * 64).unwrap(),
                r2.read_pod::<u64>(i * 64).unwrap()
            );
        }
    }

    #[test]
    fn latency_ledger_charges_per_dirty_line() {
        let r = region();
        r.write_bytes(0, &[1u8; 200]).unwrap(); // 4 lines dirty
        r.flush(0, 200).unwrap();
        assert_eq!(r.clock().now_ns(), 4 * 250);
        // Flushing clean lines is free.
        r.flush(0, 200).unwrap();
        assert_eq!(r.clock().now_ns(), 4 * 250);
        r.fence();
        assert_eq!(r.clock().now_ns(), 4 * 250 + 20);
    }

    #[test]
    fn stats_count_primitives() {
        let r = region();
        r.write_pod(0, &1u64).unwrap();
        r.persist(0, 8).unwrap();
        let s = r.stats();
        assert_eq!(s.flush_calls, 1);
        assert_eq!(s.lines_flushed, 1);
        assert_eq!(s.fences, 1);
        assert_eq!(s.bytes_written, 8);
    }

    #[test]
    fn with_slice_bulk_read() {
        let r = region();
        r.write_bytes(100, b"hello world").unwrap();
        let v = r
            .with_slice(100, 11, |s| String::from_utf8(s.to_vec()).unwrap())
            .unwrap();
        assert_eq!(v, "hello world");
    }

    #[test]
    fn dirty_line_count_tracks_state() {
        let r = region();
        assert_eq!(r.dirty_lines(), 0);
        r.write_pod(0, &1u64).unwrap();
        r.write_pod(1000, &1u64).unwrap();
        assert_eq!(r.dirty_lines(), 2);
        r.flush(0, 8).unwrap();
        assert_eq!(r.dirty_lines(), 1);
        r.crash(CrashPolicy::DropUnflushed);
        assert_eq!(r.dirty_lines(), 0);
    }

    #[test]
    fn bitflip_corrupts_medium_and_survives_crash() {
        let r = region();
        r.write_pod(128, &0u64).unwrap();
        r.persist(128, 8).unwrap();
        r.inject_fault(&FaultSpec {
            class: FaultClass::BitFlip { bits: 1 },
            offset: 128,
            seed: 7,
        })
        .unwrap();
        r.crash(CrashPolicy::DropUnflushed);
        let mut line = [0u8; 64];
        r.read_bytes(128, &mut line).unwrap();
        let ones: u32 = line.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one flipped bit survives the crash");
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let image = |seed| {
            let r = region();
            r.write_bytes(256, &[0xAAu8; 128]).unwrap();
            r.persist(256, 128).unwrap();
            r.inject_fault(&FaultSpec {
                class: FaultClass::ScribbledBlock { len: 96 },
                offset: 256,
                seed,
            })
            .unwrap();
            r.persistent_hash()
        };
        assert_eq!(image(1), image(1));
        assert_ne!(image(1), image(2));
    }

    /// The stores of [`touched_span_does_not_depend_on_capacity`]: lines
    /// spread over a 64 KiB region, every third one flushed, a fence every
    /// 16 stores.
    fn touch_lines(r: &NvmRegion) {
        for i in 0..300u64 {
            let off = (i * 37 % 1024) * CACHE_LINE + i % 7 * 8;
            r.write_pod(off, &(i + 1)).unwrap();
            if i % 3 == 0 {
                r.flush(off, 8).unwrap();
            }
            if i % 16 == 15 {
                r.fence();
            }
        }
    }

    #[test]
    fn touched_span_does_not_depend_on_capacity() {
        const SMALL: u64 = 64 << 10;
        let large = if cfg!(miri) { 256 << 10 } else { 64 << 20 };
        // (surviving bytes of the first 64 KiB, dirty lines before the
        // crash, lost lines of a scheduled crash).
        let run = |capacity: u64, crash: &dyn Fn(&NvmRegion) -> u64| {
            let r = NvmRegion::new(capacity, LatencyModel::zero());
            let lost = crash(&r);
            let rest = r.with_slice(SMALL, capacity - SMALL, |s| s.iter().all(|b| *b == 0));
            assert!(rest.unwrap(), "bytes past the touched span stay zero");
            let mut bytes = vec![0u8; SMALL as usize];
            r.read_bytes(0, &mut bytes).unwrap();
            assert_eq!(r.dirty_lines(), 0);
            (bytes, lost)
        };
        let direct = |policy: CrashPolicy| {
            move |r: &NvmRegion| {
                touch_lines(r);
                let dirty = r.dirty_lines();
                r.crash(policy);
                dirty
            }
        };
        let scheduled = |r: &NvmRegion| {
            r.trace_start(TraceConfig { keep_events: false });
            let survival = MidEpochSurvival::Random { p: 0.5, seed: 11 };
            let point = CrashPoint::MidEpoch { epoch: 9, survival };
            r.arm_crash(point).unwrap();
            touch_lines(r);
            r.finalize_scheduled_crash().unwrap().lost_lines
        };
        let crashes: [&dyn Fn(&NvmRegion) -> u64; 3] = [
            &direct(CrashPolicy::DropUnflushed),
            &direct(CrashPolicy::RandomEviction { p: 0.5, seed: 5 }),
            &scheduled,
        ];
        for (i, crash) in crashes.into_iter().enumerate() {
            let (bytes, lost) = run(SMALL, crash);
            assert!(lost > 0 && bytes.iter().any(|b| *b != 0), "crash {i}");
            assert!((bytes, lost) == run(large, crash), "crash {i}");
        }
    }

    #[test]
    fn damage_past_every_store_extends_the_touched_span() {
        let r = region();
        let before = r.persistent_hash();
        r.inject_fault(&FaultSpec {
            class: FaultClass::ScribbledBlock { len: 64 },
            offset: r.capacity() - CACHE_LINE,
            seed: 3,
        })
        .unwrap();
        assert_ne!(r.persistent_hash(), before);
        r.crash(CrashPolicy::DropUnflushed);
        let last = r.with_slice(r.capacity() - CACHE_LINE, CACHE_LINE, |s| {
            s.iter().any(|b| *b != 0)
        });
        assert!(last.unwrap(), "damage survives the crash");
    }

    #[test]
    fn transient_poison_clears_after_retries() {
        let r = region();
        r.write_pod(192, &5u64).unwrap();
        r.persist(192, 8).unwrap();
        r.inject_fault(&FaultSpec {
            class: FaultClass::PoisonTransient { failures: 2 },
            offset: 192,
            seed: 0,
        })
        .unwrap();
        assert!(matches!(
            r.read_pod::<u64>(192),
            Err(NvmError::PoisonedRead {
                permanent: false,
                ..
            })
        ));
        assert!(r.read_pod::<u64>(192).is_err());
        assert_eq!(r.read_pod::<u64>(192).unwrap(), 5, "poison cleared");
        assert_eq!(r.poisoned_lines(), 0);
    }

    #[test]
    fn permanent_poison_cleared_only_by_full_line_rewrite() {
        let r = region();
        r.inject_fault(&FaultSpec {
            class: FaultClass::PoisonPermanent,
            offset: 320,
            seed: 0,
        })
        .unwrap();
        for _ in 0..10 {
            assert!(matches!(
                r.read_pod::<u64>(320),
                Err(NvmError::PoisonedRead {
                    permanent: true,
                    ..
                })
            ));
        }
        // Partial-line store does not scrub…
        r.write_pod(320, &1u64).unwrap();
        assert!(r.read_pod::<u64>(320).is_err());
        // …a full-line store does.
        r.write_bytes(320, &[9u8; 64]).unwrap();
        assert_eq!(r.read_pod::<u64>(320).unwrap(), u64::from_le_bytes([9; 8]));
    }

    #[test]
    fn alloc_fault_fail_nth_is_one_shot() {
        let r = region();
        r.arm_alloc_fault(&AllocFaultSpec {
            class: AllocFaultClass::FailNth { nth: 2 },
            seed: 0,
        });
        assert!(r.alloc_attempt(64).is_ok());
        assert!(r.alloc_attempt(64).is_ok());
        assert!(matches!(
            r.alloc_attempt(64),
            Err(NvmError::OutOfMemory { requested: 64 })
        ));
        // Disarmed after firing: retries succeed.
        assert!(r.alloc_attempt(64).is_ok());
        assert_eq!(r.stats().faults_injected, 1);
        assert_eq!(r.alloc_attempts(), 4);
    }

    #[test]
    fn alloc_fault_probabilistic_is_deterministic() {
        let outcomes = |seed| {
            let r = region();
            r.arm_alloc_fault(&AllocFaultSpec {
                class: AllocFaultClass::FailProbabilistic { p: 0.5 },
                seed,
            });
            (0..64)
                .map(|_| r.alloc_attempt(8).is_err())
                .collect::<Vec<_>>()
        };
        let a = outcomes(7);
        assert_eq!(a, outcomes(7));
        assert_ne!(a, outcomes(8));
        assert!(a.iter().any(|x| *x) && a.iter().any(|x| !*x));
    }

    #[test]
    fn capacity_clamp_shrinks_effective_capacity_only() {
        let r = region();
        assert_eq!(r.effective_capacity(), r.capacity());
        r.set_capacity_clamp(Some(1024));
        assert_eq!(r.capacity_clamp(), Some(1024));
        assert_eq!(r.effective_capacity(), 1024);
        // Bounds checks still honour the true capacity.
        r.write_pod(2048, &1u64).unwrap();
        r.set_capacity_clamp(None);
        assert_eq!(r.effective_capacity(), r.capacity());
    }

    #[test]
    fn clear_faults_disarms_alloc_fault_but_keeps_clamp() {
        let r = region();
        r.arm_alloc_fault(&AllocFaultSpec {
            class: AllocFaultClass::FailNth { nth: 0 },
            seed: 0,
        });
        r.set_capacity_clamp(Some(2048));
        r.clear_faults();
        assert!(r.alloc_attempt(8).is_ok());
        assert_eq!(r.capacity_clamp(), Some(2048));
    }

    #[test]
    fn atomic_word_roundtrips_with_byte_access() {
        let r = region();
        r.store_u64_release(64, 0xDEAD_BEEF).unwrap();
        assert_eq!(r.load_u64_acquire(64).unwrap(), 0xDEAD_BEEF);
        // The atomic word and the byte view are the same memory.
        assert_eq!(r.read_pod::<u64>(64).unwrap(), 0xDEAD_BEEF);
        r.write_pod(72, &77u64).unwrap();
        assert_eq!(r.load_u64_acquire(72).unwrap(), 77);
    }

    #[test]
    fn atomic_store_is_dirty_until_persisted() {
        let r = region();
        r.store_u64_release(0, 1).unwrap();
        assert_eq!(r.dirty_lines(), 1, "release store dirties its line");
        r.crash(CrashPolicy::DropUnflushed);
        assert_eq!(r.load_u64_acquire(0).unwrap(), 0, "unpersisted word lost");
        r.store_u64_release(0, 9).unwrap();
        r.persist(0, 8).unwrap();
        r.crash(CrashPolicy::DropUnflushed);
        assert_eq!(r.load_u64_acquire(0).unwrap(), 9, "persisted word survives");
    }

    #[test]
    fn atomic_word_access_requires_alignment() {
        let r = region();
        assert!(matches!(
            r.store_u64_release(4, 1),
            Err(NvmError::UnalignedAccess {
                offset: 4,
                align: 8
            })
        ));
        assert!(matches!(
            r.load_u64_acquire(12),
            Err(NvmError::UnalignedAccess { .. })
        ));
        assert!(r.store_u64_release(4096 - 8, 1).is_ok());
        assert!(matches!(
            r.store_u64_release(4096, 1),
            Err(NvmError::OutOfBounds { .. })
        ));
    }

    fn temp_file(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("nvm-region-{tag}-{}", std::process::id()))
    }

    #[test]
    fn file_backed_roundtrip_and_reopen() {
        let path = temp_file("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let r = NvmRegion::open_file(&path, 8192, LatencyModel::zero()).unwrap();
            assert!(r.is_file_backed());
            r.write_pod(128, &0xC0FFEE_u64).unwrap();
            r.persist(128, 8).unwrap();
            r.store_u64_release(256, 41).unwrap();
            r.persist(256, 8).unwrap();
            assert!(r.take_sync_error().is_none());
        }
        // A second mapping of the same file sees the persisted bytes.
        let r = NvmRegion::with_config(NvmConfig::file(&path, 8192, LatencyModel::zero())).unwrap();
        assert_eq!(r.read_pod::<u64>(128).unwrap(), 0xC0FFEE);
        assert_eq!(r.load_u64_acquire(256).unwrap(), 41);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_backed_crash_keeps_unflushed_stores() {
        // Process-death semantics: the page cache keeps even unflushed
        // stores, unlike the sim's power-loss model.
        let path = temp_file("crashkeep");
        let _ = std::fs::remove_file(&path);
        let r = NvmRegion::open_file(&path, 4096, LatencyModel::zero()).unwrap();
        r.write_pod(0, &7u64).unwrap();
        assert_eq!(r.dirty_lines(), 1);
        r.crash(CrashPolicy::DropUnflushed);
        assert_eq!(r.dirty_lines(), 0);
        assert_eq!(r.read_pod::<u64>(0).unwrap(), 7, "page cache survives");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_backed_rejects_scheduled_crashes() {
        let path = temp_file("nosched");
        let _ = std::fs::remove_file(&path);
        let r = NvmRegion::open_file(&path, 4096, LatencyModel::zero()).unwrap();
        r.trace_start(TraceConfig::default());
        assert!(matches!(
            r.arm_crash(CrashPoint::AtFence { fence: 1 }),
            Err(NvmError::TraceState { .. })
        ));
        assert!(matches!(
            r.finalize_scheduled_crash(),
            Err(NvmError::TraceState { .. })
        ));
        // Plain trace recording still works for conformance checking.
        r.write_pod(0, &1u64).unwrap();
        r.persist(0, 8).unwrap();
        let trace = r.trace_stop().unwrap();
        assert!(trace.events.len() >= 3, "store+flush+fence recorded");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_backed_fault_injection_hits_the_medium() {
        let path = temp_file("fault");
        let _ = std::fs::remove_file(&path);
        let r = NvmRegion::open_file(&path, 4096, LatencyModel::zero()).unwrap();
        r.write_pod(128, &0u64).unwrap();
        r.persist(128, 8).unwrap();
        r.inject_fault(&FaultSpec {
            class: FaultClass::BitFlip { bits: 1 },
            offset: 128,
            seed: 7,
        })
        .unwrap();
        let mut line = [0u8; 64];
        r.read_bytes(128, &mut line).unwrap();
        let ones: u32 = line.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_line_damages_only_target_line() {
        let r = region();
        r.write_bytes(0, &[0x55u8; 192]).unwrap();
        r.persist(0, 192).unwrap();
        r.inject_fault(&FaultSpec {
            class: FaultClass::TornLine,
            offset: 64,
            seed: 3,
        })
        .unwrap();
        let mut buf = [0u8; 192];
        r.read_bytes(0, &mut buf).unwrap();
        assert!(buf[..64].iter().all(|b| *b == 0x55), "line 0 untouched");
        assert!(buf[128..].iter().all(|b| *b == 0x55), "line 2 untouched");
        assert!(buf[64..128].iter().any(|b| *b != 0x55), "line 1 damaged");
    }

    /// A read accessor, reduced to "load the bytes at `off`".
    type Accessor = fn(&NvmRegion, u64) -> Result<Vec<u8>>;

    /// Every read accessor, with how many bytes it loads.
    const ACCESSORS: [(&str, u64, Accessor); 4] = [
        ("read_bytes", 16, |r, off| {
            let mut buf = vec![0u8; 16];
            r.read_bytes(off, &mut buf).map(|()| buf)
        }),
        ("read_pod", 8, |r, off| {
            r.read_pod::<u64>(off).map(|v| v.to_le_bytes().to_vec())
        }),
        ("with_slice", 16, |r, off| {
            r.with_slice(off, 16, <[u8]>::to_vec)
        }),
        ("load_u64_acquire", 8, |r, off| {
            r.load_u64_acquire(off).map(|v| v.to_le_bytes().to_vec())
        }),
    ];

    #[test]
    fn every_read_accessor_honours_every_instrument() {
        const OFF: u64 = 128; // cache line 2
        let old = [0x11u8; 64];
        for (name, len, read) in ACCESSORS {
            // A region whose line 2 durably holds `old`, nothing armed.
            let fresh = || {
                let r = region();
                r.write_bytes(OFF, &old).unwrap();
                r.persist(OFF, 64).unwrap();
                r
            };
            // The fast path: nothing armed, the plain value, and
            // `bytes_read` advanced by exactly the bytes loaded.
            let fast = |r: &NvmRegion, when: &str| {
                assert_eq!(r.armed.load(Ordering::Relaxed), 0, "{name} {when}: armed");
                let before = r.stats().bytes_read;
                assert_eq!(read(r, OFF).unwrap(), &old[..len as usize], "{name} {when}");
                assert_eq!(r.stats().bytes_read - before, len, "{name} {when}");
            };
            let poisoned = |r: &NvmRegion, permanent: bool| {
                let before = r.stats().bytes_read;
                let err = read(r, OFF).unwrap_err();
                assert!(
                    matches!(err, NvmError::PoisonedRead { line: 2, permanent: p, .. } if p == permanent),
                    "{name}: {err:?}"
                );
                assert_eq!(
                    r.stats().bytes_read,
                    before,
                    "{name}: a failed read counts nothing"
                );
            };
            let poison = |r: &NvmRegion, class| {
                let spec = FaultSpec {
                    class,
                    offset: OFF,
                    seed: 0,
                };
                r.inject_fault(&spec).unwrap();
            };

            fast(&fresh(), "with nothing armed");

            let r = fresh();
            poison(&r, FaultClass::PoisonTransient { failures: 2 });
            poisoned(&r, false);
            poisoned(&r, false);
            fast(&r, "once transient poison cleared by retries");

            let r = fresh();
            poison(&r, FaultClass::PoisonPermanent);
            poisoned(&r, true);
            poisoned(&r, true);
            r.clear_faults();
            fast(&r, "after clear_faults");

            // Lint mode: the crash loses an unpersisted store, the read
            // returns the durable bytes and is reported once.
            for disarm in ["trace_stop", "crash"] {
                let r = fresh();
                r.trace_start(TraceConfig::default());
                r.write_bytes(OFF, &[0x22u8; 64]).unwrap();
                r.finalize_scheduled_crash().unwrap();
                let before = r.stats().bytes_read;
                assert_eq!(read(&r, OFF).unwrap(), &old[..len as usize], "{name}: lint");
                assert_eq!(r.stats().bytes_read - before, len, "{name}: lint");
                let findings = r.take_lint_findings();
                let found = findings.iter().map(|f| (f.read_off, f.read_len, f.line));
                assert_eq!(found.collect::<Vec<_>>(), [(OFF, len, 2)], "{name}");
                match disarm {
                    "trace_stop" => assert!(r.trace_stop().is_some()),
                    _ => r.crash(CrashPolicy::DropUnflushed),
                }
                fast(&r, disarm);
            }
        }
    }

    #[test]
    fn readers_race_a_disjoint_writer() {
        // The concurrency contract: two readers acquire-load the publish
        // word in line 0, then read the line it names, while a writer
        // stages each version in a fresh line, flushes, fences and
        // release-publishes. The writer never stores bytes a published
        // word covers, so no load races a store. Counts shrink under Miri.
        use std::sync::Arc;
        let (versions, reads) = if cfg!(miri) {
            (4u64, 16usize)
        } else {
            (200, 4000)
        };
        let line = |v: u64| v * CACHE_LINE;
        let r = Arc::new(NvmRegion::new(line(versions + 1), LatencyModel::zero()));
        let writer = {
            let r = r.clone();
            std::thread::spawn(move || {
                for v in 1..=versions {
                    r.write_bytes(line(v), &[v as u8; 56]).unwrap();
                    r.write_pod(line(v) + 56, &v).unwrap();
                    r.flush(line(v), CACHE_LINE).unwrap();
                    r.fence();
                    r.store_u64_release(0, v).unwrap();
                    r.persist(0, 8).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    let mut seen = 0;
                    for _ in 0..reads {
                        let v = r.load_u64_acquire(0).unwrap();
                        assert!(v >= seen, "publish word went back from {seen} to {v}");
                        seen = v;
                        if v == 0 {
                            continue;
                        }
                        assert_eq!(r.read_pod::<u64>(line(v) + 56).unwrap(), v);
                        let whole = r.with_slice(line(v), 56, |s| s.iter().all(|b| *b == v as u8));
                        assert!(whole.unwrap(), "torn line for version {v}");
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for reader in readers {
            reader.join().unwrap();
        }
        assert_eq!(r.load_u64_acquire(0).unwrap(), versions);
    }
}
