//! The NVM region: dirty-line tracking, crash injection, and (optionally)
//! persist-trace recording with scheduled, deterministic crashes — over one
//! of two backings: the simulated two-image medium, or a file-backed
//! `MAP_SHARED` mapping whose fences become `msync(MS_SYNC)` calls
//! ([`RegionBacking::File`]).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use util::rng::{Rng, SmallRng};
use util::sync::{Mutex, RwLock};

use crate::fault::{AllocFaultClass, AllocFaultSpec, FaultClass, FaultSpec};
use crate::latency::{LatencyModel, SimClock};
use crate::layout::{line_span, CACHE_LINE};
use crate::mmap::MmapFile;
use crate::pod::Pod;
use crate::schedule::{CrashOutcome, CrashPoint};
use crate::stats::{NvmStats, StatsSnapshot};
use crate::trace::{LintFinding, Mode, PersistTrace, Recorder, TraceConfig};
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

/// An 8-aligned byte buffer backed by `AtomicU64` words.
///
/// Individual words can be published with genuine release/acquire atomics
/// (the hardware contract the seqlock/epoch read paths depend on) while
/// everything else keeps treating the image as plain bytes through
/// `Deref`/`DerefMut`. Mixed atomic and non-atomic access to the same word
/// is sound here because every byte-level access happens under the
/// enclosing `RwLock<Images>`, which orders it against the atomic word
/// operations.
struct AlignedBuf {
    words: Box<[AtomicU64]>,
    len: usize,
}

impl AlignedBuf {
    fn zeroed(len: usize) -> AlignedBuf {
        let words: Box<[AtomicU64]> = (0..len.div_ceil(8)).map(|_| AtomicU64::new(0)).collect();
        AlignedBuf { words, len }
    }

    /// The aligned `AtomicU64` word covering byte offset `off`. Callers
    /// must have bounds- and alignment-checked `off` already.
    #[inline]
    fn word(&self, off: usize) -> &AtomicU64 {
        &self.words[off / 8]
    }
}

impl std::ops::Deref for AlignedBuf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: `AtomicU64` has the same in-memory representation as
        // `u64`; the buffer owns `len <= words.len() * 8` initialized
        // bytes, and mixed atomic/non-atomic access is ordered by the
        // enclosing images lock.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }
}

impl std::ops::DerefMut for AlignedBuf {
    #[inline]
    // pmlint: flush-helper
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `deref`, with exclusivity guaranteed by `&mut`.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut u8, self.len) }
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

/// The bytes behind a region.
enum Backing {
    /// Simulated medium: what the CPU sees vs what survives power loss.
    Sim {
        volatile: AlignedBuf,
        persistent: AlignedBuf,
    },
    /// File-backed mapping: one image shared with the page cache. The
    /// process cannot observe the synced-vs-unsynced split of its own
    /// stores, so "volatile" and "persistent" views are the same bytes.
    File { map: MmapFile },
}

struct Images {
    backing: Backing,
    /// One bit per cache line: line holds stores not yet flushed.
    dirty: Vec<u64>,
    /// File backing only: the span (first and last cache line) of the
    /// lines flushed since the last fence, awaiting `msync` at the fence —
    /// the durability analogue of the simulator's
    /// flush-buffers-until-fence trace semantics.
    pending_sync: Option<(u64, u64)>,
}

impl Images {
    #[inline]
    fn is_file(&self) -> bool {
        matches!(self.backing, Backing::File { .. })
    }

    /// The CPU-visible bytes.
    #[inline]
    fn vol(&self) -> &[u8] {
        match &self.backing {
            Backing::Sim { volatile, .. } => volatile,
            Backing::File { map } => map.bytes(),
        }
    }

    /// The CPU-visible bytes, mutably.
    #[inline]
    // pmlint: flush-helper
    fn vol_mut(&mut self) -> &mut [u8] {
        match &mut self.backing {
            Backing::Sim { volatile, .. } => volatile,
            Backing::File { map } => map.bytes_mut(),
        }
    }

    /// The bytes a post-crash recovery would see.
    #[inline]
    fn medium(&self) -> &[u8] {
        match &self.backing {
            Backing::Sim { persistent, .. } => persistent,
            Backing::File { map } => map.bytes(),
        }
    }

    /// The aligned `AtomicU64` word covering byte offset `off`. Callers
    /// must have bounds- and alignment-checked `off` already.
    #[inline]
    fn word(&self, off: usize) -> &AtomicU64 {
        match &self.backing {
            Backing::Sim { volatile, .. } => volatile.word(off),
            Backing::File { map } => map.word(off),
        }
    }

    /// Copy one snapshotted line onto the simulated medium. No-op for the
    /// file backing: the mapping already holds every store.
    fn persist_snapshot(&mut self, line: u64, data: &[u8]) {
        if let Backing::Sim { persistent, .. } = &mut self.backing {
            let start = (line * CACHE_LINE) as usize;
            persistent[start..start + CACHE_LINE as usize].copy_from_slice(data);
        }
    }

    /// XOR one byte on the medium (both images for the sim backing — the
    /// damage survives [`NvmRegion::crash`] without dirtying the line).
    fn corrupt_xor(&mut self, idx: usize, mask: u8) {
        match &mut self.backing {
            Backing::Sim {
                volatile,
                persistent,
            } => {
                volatile[idx] ^= mask;
                persistent[idx] ^= mask;
            }
            Backing::File { map } => map.bytes_mut()[idx] ^= mask,
        }
    }

    /// Overwrite one byte on the medium (see [`Images::corrupt_xor`]).
    fn corrupt_set(&mut self, idx: usize, val: u8) {
        match &mut self.backing {
            Backing::Sim {
                volatile,
                persistent,
            } => {
                volatile[idx] = val;
                persistent[idx] = val;
            }
            Backing::File { map } => map.bytes_mut()[idx] = val,
        }
    }

    #[inline]
    fn mark_dirty(&mut self, first_line: u64, last_line: u64) {
        for line in first_line..=last_line {
            self.dirty[(line / 64) as usize] |= 1u64 << (line % 64);
        }
    }

    #[inline]
    fn is_dirty(&self, line: u64) -> bool {
        self.dirty[(line / 64) as usize] & (1u64 << (line % 64)) != 0
    }

    #[inline]
    fn clear_dirty(&mut self, line: u64) {
        self.dirty[(line / 64) as usize] &= !(1u64 << (line % 64));
    }

    /// Write one dirty cache line back to the medium and mark it clean:
    /// copy volatile → persistent (sim); on the file backing the store is
    /// already in the mapping and the caller queues the flushed range for
    /// the next fence's `msync`. Returns true if the line was actually
    /// dirty.
    fn write_back(&mut self, line: u64) -> bool {
        if !self.is_dirty(line) {
            return false;
        }
        if let Backing::Sim {
            volatile,
            persistent,
        } = &mut self.backing
        {
            let start = (line * CACHE_LINE) as usize;
            let end = start + CACHE_LINE as usize;
            persistent[start..end].copy_from_slice(&volatile[start..end]);
        }
        self.clear_dirty(line);
        true
    }

    /// Widen the span the next fence's `msync` covers to include lines
    /// `[first, last]` (file backing; the simulated medium already holds
    /// them).
    fn queue_sync(&mut self, first: u64, last: u64) {
        if self.is_file() {
            let (a, b) = self.pending_sync.unwrap_or((first, last));
            self.pending_sync = Some((a.min(first), b.max(last)));
        }
    }
}

/// A simulated NVM device of fixed capacity.
///
/// All methods take `&self`; the two images live behind an internal
/// reader-writer lock so the region can be shared across threads (group
/// commit, concurrent readers). Bulk scans should prefer
/// [`NvmRegion::with_slice`] to amortize locking.
pub struct NvmRegion {
    images: RwLock<Images>,
    stats: NvmStats,
    clock: SimClock,
    latency: LatencyModel,
    capacity: u64,
    /// Persist-trace recorder; `None` outside recording/lint sessions.
    recorder: Mutex<Option<Recorder>>,
    /// Fast-path flag mirroring `recorder.is_some()` so untraced regions
    /// never take the recorder lock.
    traced: AtomicBool,
    /// Poisoned cache lines (media-fault injection); empty outside fault
    /// sessions.
    poison: Mutex<HashMap<u64, PoisonState>>,
    /// Fast-path flag mirroring `!poison.is_empty()` so unfaulted regions
    /// never take the poison lock on reads.
    poisoned: AtomicBool,
    /// Capacity-pressure fault state; `None` outside exhaustion sessions.
    alloc_fault: Mutex<Option<AllocFaultState>>,
    /// Fast-path flag mirroring `alloc_fault.is_some()`.
    alloc_faulted: AtomicBool,
    /// Effective-capacity clamp for the allocator (`u64::MAX` = none).
    /// Only the allocation limit shrinks; bounds checks and the on-medium
    /// capacity header still use the true capacity.
    alloc_clamp: AtomicU64,
    /// Allocation attempts observed via [`NvmRegion::alloc_attempt`].
    alloc_attempts: AtomicU64,
    /// True for [`RegionBacking::File`] regions (fast path: checked on
    /// every fence without taking the images lock).
    file_backed: bool,
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
        Self::from_parts(
            Backing::Sim {
                volatile: AlignedBuf::zeroed(capacity as usize),
                persistent: AlignedBuf::zeroed(capacity as usize),
            },
            capacity,
            latency,
        )
    }

    /// Open (creating and growing as needed) the file at `path` as a
    /// `MAP_SHARED` region of `capacity` bytes. The existing file contents
    /// are the region's initial image — reopening after a process death
    /// (or a clean shutdown) resumes from whatever reached the page cache.
    pub fn open_file(path: &Path, capacity: u64, latency: LatencyModel) -> Result<Self> {
        let capacity = crate::layout::align_up(capacity.max(CACHE_LINE), CACHE_LINE);
        let map = MmapFile::open(path, capacity)?;
        Ok(Self::from_parts(Backing::File { map }, capacity, latency))
    }

    /// Build a region from an [`NvmConfig`] — the backend-selection entry
    /// point used by the engine's durability configuration.
    pub fn with_config(config: NvmConfig) -> Result<Self> {
        match config.backing {
            RegionBacking::Sim => Ok(Self::new(config.capacity, config.latency)),
            RegionBacking::File(path) => Self::open_file(&path, config.capacity, config.latency),
        }
    }

    fn from_parts(backing: Backing, capacity: u64, latency: LatencyModel) -> Self {
        let lines = capacity / CACHE_LINE;
        let file_backed = matches!(backing, Backing::File { .. });
        NvmRegion {
            images: RwLock::new(Images {
                backing,
                dirty: vec![0u64; lines.div_ceil(64) as usize],
                pending_sync: None,
            }),
            stats: NvmStats::default(),
            clock: SimClock::new(),
            latency,
            capacity,
            recorder: Mutex::new(None),
            traced: AtomicBool::new(false),
            poison: Mutex::new(HashMap::new()),
            poisoned: AtomicBool::new(false),
            alloc_fault: Mutex::new(None),
            alloc_faulted: AtomicBool::new(false),
            alloc_clamp: AtomicU64::new(u64::MAX),
            alloc_attempts: AtomicU64::new(0),
            file_backed,
            sync_error: Mutex::new(None),
        }
    }

    /// True if this region is backed by a `MAP_SHARED` file mapping.
    #[inline]
    pub fn is_file_backed(&self) -> bool {
        self.file_backed
    }

    /// `msync(MS_SYNC)` the entire mapping (file backing; no-op for the
    /// simulated backing, whose flushes are synchronous). Clears the
    /// pending per-fence sync set — everything is durable after this.
    pub fn sync_all(&self) -> Result<()> {
        let mut img = self.images.write();
        img.pending_sync = None;
        if let Backing::File { map } = &img.backing {
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

    #[inline]
    fn check(&self, off: u64, len: u64) -> Result<()> {
        if len == 0 || off.checked_add(len).is_some_and(|end| end <= self.capacity) {
            Ok(())
        } else {
            Err(NvmError::OutOfBounds {
                offset: off,
                len,
                capacity: self.capacity,
            })
        }
    }

    /// Fail the access if any cache line it covers is poisoned. A transient
    /// poison burns one retry per failing read and clears when exhausted.
    fn check_poison(&self, off: u64, len: u64) -> Result<()> {
        if !self.poisoned.load(Ordering::Relaxed) {
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
                        self.poisoned.store(false, Ordering::Relaxed);
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
        if !self.poisoned.load(Ordering::Relaxed) {
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
            self.poisoned.store(false, Ordering::Relaxed);
        }
    }

    /// Store `bytes` at `off` in the volatile image.
    pub fn write_bytes(&self, off: u64, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        self.check(off, bytes.len() as u64)?;
        self.scrub_poison(off, bytes.len() as u64);
        let mut img = self.images.write();
        img.vol_mut()[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        let (a, b) = line_span(off, bytes.len() as u64);
        img.mark_dirty(a, b);
        drop(img);
        self.stats
            .bytes_written
            .fetch_add(bytes.len() as u64, std::sync::atomic::Ordering::Relaxed);
        if self.traced.load(Ordering::Relaxed) {
            if let Some(rec) = self.recorder.lock().as_mut() {
                rec.on_store(off, bytes.len() as u64);
            }
        }
        Ok(())
    }

    /// Load `buf.len()` bytes starting at `off` from the volatile image.
    // pmlint: read-pure
    pub fn read_bytes(&self, off: u64, buf: &mut [u8]) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        self.check(off, buf.len() as u64)?;
        self.check_poison(off, buf.len() as u64)?;
        let img = self.images.read();
        buf.copy_from_slice(&img.vol()[off as usize..off as usize + buf.len()]);
        drop(img);
        self.stats
            .bytes_read
            .fetch_add(buf.len() as u64, std::sync::atomic::Ordering::Relaxed);
        self.lint_read(off, buf.len() as u64);
        Ok(())
    }

    /// Store a [`Pod`] value at `off`.
    // pmlint: caller-flushes
    #[inline]
    pub fn write_pod<T: Pod>(&self, off: u64, value: &T) -> Result<()> {
        self.write_bytes(off, value.as_bytes())
    }

    /// Load a [`Pod`] value from `off`. On real hardware this is a plain
    /// load; the simulator's internal image lock and poison/lint
    /// bookkeeping are measurement artefacts, so the read-path purity gate
    /// treats this accessor as a trusted leaf.
    // pmlint: read-pure
    #[inline]
    pub fn read_pod<T: Pod>(&self, off: u64) -> Result<T> {
        self.check(off, T::SIZE as u64)?;
        self.check_poison(off, T::SIZE as u64)?;
        let img = self.images.read();
        self.stats
            .bytes_read
            .fetch_add(T::SIZE as u64, std::sync::atomic::Ordering::Relaxed);
        let v = T::from_bytes(&img.vol()[off as usize..off as usize + T::SIZE]);
        drop(img);
        self.lint_read(off, T::SIZE as u64);
        Ok(v)
    }

    /// Run `f` over a borrowed slice of the volatile image. This is the bulk
    /// read path: one lock acquisition for the whole scan (of the
    /// simulator's image lock — a plain borrow on real hardware).
    // pmlint: read-pure
    pub fn with_slice<R>(&self, off: u64, len: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.check(off, len)?;
        self.check_poison(off, len)?;
        let img = self.images.read();
        self.stats
            .bytes_read
            .fetch_add(len, std::sync::atomic::Ordering::Relaxed);
        let r = f(&img.vol()[off as usize..(off + len) as usize]);
        drop(img);
        self.lint_read(off, len);
        Ok(r)
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
        let mode = if self.traced.load(Ordering::Relaxed) {
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
                let mut img = self.images.write();
                let mut snaps: Vec<(u64, Box<[u8]>)> = Vec::new();
                for line in a..=b {
                    if img.is_dirty(line) {
                        let start = (line * CACHE_LINE) as usize;
                        let end = start + CACHE_LINE as usize;
                        snaps.push((line, img.vol()[start..end].into()));
                        img.clear_dirty(line);
                    }
                }
                if let (Some(first), Some(last)) = (snaps.first(), snaps.last()) {
                    img.queue_sync(first.0, last.0);
                }
                drop(img);
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
                let img = self.images.read();
                (a..=b).filter(|l| img.is_dirty(*l)).count() as u64
            }
            _ => {
                let mut img = self.images.write();
                let mut written = 0u64;
                let mut span: Option<(u64, u64)> = None;
                for line in a..=b {
                    if img.write_back(line) {
                        written += 1;
                        span = Some((span.map_or(line, |s| s.0), line));
                    }
                }
                if let Some((first, last)) = span {
                    img.queue_sync(first, last);
                }
                written
            }
        };
        self.stats
            .flush_calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.stats
            .lines_flushed
            .fetch_add(written, std::sync::atomic::Ordering::Relaxed);
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
        if self.file_backed {
            // Deterministic real-kill point for the out-of-process torture
            // harness: dies *before* this fence syncs anything.
            crate::mmap::fence_kill_tick();
        }
        self.stats
            .fences
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.clock.charge(self.latency.fence_ns);
        if self.traced.load(Ordering::Relaxed) {
            let survivors = match self.recorder.lock().as_mut() {
                Some(rec) => rec.on_fence(),
                None => Vec::new(),
            };
            if !survivors.is_empty() {
                let mut img = self.images.write();
                for p in &survivors {
                    img.persist_snapshot(p.line, &p.data);
                }
            }
        }
        if self.file_backed {
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
        let mut img = self.images.write();
        let Some((first, last)) = img.pending_sync.take() else {
            return;
        };
        let mut err = None;
        if let Backing::File { map } = &img.backing {
            let off = (first * CACHE_LINE) as usize;
            let len = ((last - first + 1) * CACHE_LINE) as usize;
            err = map.msync_range(off, len).err();
        }
        drop(img);
        if let Some(e) = err {
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
        self.scrub_poison(off, 8);
        let mut img = self.images.write();
        img.word(off as usize).store(value, Ordering::Release);
        let (a, b) = line_span(off, 8);
        img.mark_dirty(a, b);
        drop(img);
        self.stats
            .bytes_written
            .fetch_add(8, std::sync::atomic::Ordering::Relaxed);
        if self.traced.load(Ordering::Relaxed) {
            if let Some(rec) = self.recorder.lock().as_mut() {
                rec.on_store(off, 8);
            }
        }
        Ok(())
    }

    /// Acquire-load the naturally aligned 8-byte word at `off` — the read
    /// half of the publication contract. Everything the publishing thread
    /// stored before its [`NvmRegion::store_u64_release`] of this word is
    /// visible after this load returns the published value.
    // pmlint: read-pure
    pub fn load_u64_acquire(&self, off: u64) -> Result<u64> {
        self.check_word(off)?;
        self.check_poison(off, 8)?;
        let img = self.images.read();
        let v = img.word(off as usize).load(Ordering::Acquire);
        drop(img);
        self.stats
            .bytes_read
            .fetch_add(8, std::sync::atomic::Ordering::Relaxed);
        self.lint_read(off, 8);
        Ok(v)
    }

    /// Charge read latency for a bulk scan of `len` bytes that is assumed to
    /// miss into the medium.
    pub fn charge_read(&self, len: u64) {
        let lines = len.div_ceil(CACHE_LINE);
        self.clock.charge(lines * self.latency.read_line_ns);
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
    pub fn crash(&self, policy: CrashPolicy) {
        if self.traced.swap(false, Ordering::Relaxed) {
            let pending = self
                .recorder
                .lock()
                .take()
                .map(|mut r| r.drain_pending())
                .unwrap_or_default();
            if !pending.is_empty() {
                let mut img = self.images.write();
                for p in &pending {
                    img.persist_snapshot(p.line, &p.data);
                }
            }
        }
        let mut img = self.images.write();
        if img.is_file() {
            img.pending_sync = None;
        } else {
            if let CrashPolicy::RandomEviction { p, seed } = policy {
                let mut rng = SmallRng::seed_from_u64(seed);
                let lines = self.capacity / CACHE_LINE;
                for line in 0..lines {
                    if img.is_dirty(line) && rng.gen_bool(p.clamp(0.0, 1.0)) {
                        img.write_back(line);
                    }
                }
            }
            let cap = self.capacity as usize;
            if let Backing::Sim {
                volatile,
                persistent,
            } = &mut img.backing
            {
                volatile[..cap].copy_from_slice(&persistent[..cap]);
            }
        }
        for w in img.dirty.iter_mut() {
            *w = 0;
        }
        self.stats
            .crashes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    // ---- Media-fault injection ----

    /// Apply a deterministic media fault (see [`FaultSpec`]). Corrupting
    /// classes mutate **both** images — the damage lives on the medium, so
    /// it survives [`NvmRegion::crash`] — without touching the dirty set
    /// (the fault is not a store; flush/fence behave as before). Poison
    /// classes register the target line in the poison map instead; reads
    /// overlapping it fail with [`NvmError::PoisonedRead`] until the
    /// poison clears (retry exhaustion or a full-line rewrite).
    ///
    /// The same spec against the same image always produces the same
    /// damage.
    pub fn inject_fault(&self, spec: &FaultSpec) -> Result<()> {
        self.check(spec.offset, 1)?;
        let line_start = (spec.offset / CACHE_LINE) * CACHE_LINE;
        let mut rng = SmallRng::seed_from_u64(spec.seed ^ spec.offset.rotate_left(17));
        match spec.class {
            FaultClass::BitFlip { bits } => {
                let mut img = self.images.write();
                for _ in 0..bits.max(1) {
                    let bit = rng.gen_range_u64(0, CACHE_LINE * 8);
                    let byte = (line_start + bit / 8) as usize;
                    let mask = 1u8 << (bit % 8);
                    img.corrupt_xor(byte, mask);
                }
            }
            FaultClass::TornLine => {
                // A contiguous 8..=32-byte span of the line holds garbage.
                let span = 8 + rng.gen_range_u64(0, 4) * 8;
                let start =
                    (line_start + rng.gen_range_u64(0, (CACHE_LINE - span) / 8 + 1) * 8) as usize;
                let mut img = self.images.write();
                for i in start..start + span as usize {
                    let g = rng.next_u64() as u8;
                    img.corrupt_set(i, g);
                }
            }
            FaultClass::ScribbledBlock { len } => {
                let len = len.max(1).min(self.capacity - spec.offset);
                let mut img = self.images.write();
                for i in spec.offset as usize..(spec.offset + len) as usize {
                    let g = rng.next_u64() as u8;
                    img.corrupt_set(i, g);
                }
            }
            FaultClass::PoisonTransient { failures } => {
                self.poison.lock().insert(
                    spec.offset / CACHE_LINE,
                    PoisonState {
                        permanent: false,
                        remaining: failures.max(1),
                    },
                );
                self.poisoned.store(true, Ordering::Relaxed);
            }
            FaultClass::PoisonPermanent => {
                self.poison.lock().insert(
                    spec.offset / CACHE_LINE,
                    PoisonState {
                        permanent: true,
                        remaining: 0,
                    },
                );
                self.poisoned.store(true, Ordering::Relaxed);
            }
        }
        self.stats
            .faults_injected
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Drop all outstanding poison and any armed allocation fault
    /// (bit-level damage is not reversible). The capacity clamp is left in
    /// place — it models a smaller device, not a transient fault.
    pub fn clear_faults(&self) {
        self.poison.lock().clear();
        self.poisoned.store(false, Ordering::Relaxed);
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
        self.alloc_faulted.store(true, Ordering::Relaxed);
    }

    /// Disarm any armed allocation fault.
    pub fn clear_alloc_fault(&self) {
        *self.alloc_fault.lock() = None;
        self.alloc_faulted.store(false, Ordering::Relaxed);
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
        if !self.alloc_faulted.load(Ordering::Relaxed) {
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
                            self.alloc_faulted.store(false, Ordering::Relaxed);
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
            self.stats
                .faults_injected
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Err(NvmError::OutOfMemory { requested });
        }
        Ok(())
    }

    /// Number of currently poisoned cache lines.
    pub fn poisoned_lines(&self) -> u64 {
        if !self.poisoned.load(Ordering::Relaxed) {
            return 0;
        }
        self.poison.lock().len() as u64
    }

    /// Number of currently dirty (unflushed) cache lines. Test/diagnostic
    /// helper.
    pub fn dirty_lines(&self) -> u64 {
        let img = self.images.read();
        img.dirty.iter().map(|w| w.count_ones() as u64).sum()
    }

    // ---- Persist-trace recording and scheduled crashes ----

    /// Start recording a persist trace. Any lines already dirty are
    /// stamped as epoch-0 stores so their loss stays attributable.
    /// Replaces a previous trace, if one was active.
    pub fn trace_start(&self, config: TraceConfig) {
        let img = self.images.read();
        let lines = self.capacity / CACHE_LINE;
        let pre_dirty: Vec<u64> = (0..lines).filter(|l| img.is_dirty(*l)).collect();
        drop(img);
        *self.recorder.lock() = Some(Recorder::new(config, pre_dirty.into_iter()));
        self.traced.store(true, Ordering::Relaxed);
    }

    /// True while a trace (recording, blackout, or lint phase) is active.
    pub fn trace_active(&self) -> bool {
        self.traced.load(Ordering::Relaxed)
    }

    /// Stop the trace and return it. Flushed-but-unfenced lines are
    /// drained to the medium (synchronous semantics are restored).
    /// Returns `None` if no trace was active.
    pub fn trace_stop(&self) -> Option<PersistTrace> {
        if !self.traced.swap(false, Ordering::Relaxed) {
            return None;
        }
        let mut rec = self.recorder.lock().take()?;
        let pending = rec.drain_pending();
        if !pending.is_empty() {
            let mut img = self.images.write();
            for p in &pending {
                img.persist_snapshot(p.line, &p.data);
            }
        }
        Some(rec.into_trace())
    }

    /// Arm a deterministic crash point. Requires an active recording; the
    /// point trips at its fence, after which the medium silently stops
    /// accepting write-backs while the (doomed) execution continues.
    pub fn arm_crash(&self, point: CrashPoint) -> Result<()> {
        if self.file_backed {
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
        if !self.traced.load(Ordering::Relaxed) {
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
    /// unfenced line.
    pub fn finalize_scheduled_crash(&self) -> Result<CrashOutcome> {
        if self.file_backed {
            return Err(NvmError::TraceState {
                reason: "scheduled crashes require the simulated backing; \
                         real kills come from the out-of-process harness",
            });
        }
        if !self.traced.load(Ordering::Relaxed) {
            return Err(NvmError::TraceState {
                reason: "finalize_scheduled_crash requires an active persist trace",
            });
        }
        // Replace the volatile image with the survivors and clear dirt,
        // exactly like a power failure.
        {
            let mut img = self.images.write();
            let cap = self.capacity as usize;
            if let Backing::Sim {
                volatile,
                persistent,
            } = &mut img.backing
            {
                volatile[..cap].copy_from_slice(&persistent[..cap]);
            }
            for w in img.dirty.iter_mut() {
                *w = 0;
            }
        }
        let hash = self.persistent_hash();
        let mut guard = self.recorder.lock();
        let rec = guard.as_mut().ok_or(NvmError::TraceState {
            reason: "persist trace vanished during finalize",
        })?;
        let outcome = rec.finalize(hash);
        self.stats
            .scheduled_crashes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.stats
            .crashes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
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
        if !self.traced.load(Ordering::Relaxed) {
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

    /// Fingerprint of the persistent image. Two runs with the same
    /// workload, crash point, and seeds must produce the same hash — the
    /// determinism check of the crash-torture harness.
    pub fn persistent_hash(&self) -> u64 {
        let img = self.images.read();
        util::hash::fingerprint_words(&img.medium()[..self.capacity as usize])
    }

    fn lint_read(&self, off: u64, len: u64) {
        if self.traced.load(Ordering::Relaxed) {
            if let Some(rec) = self.recorder.lock().as_mut() {
                rec.on_read(off, len);
            }
        }
    }
}

impl std::fmt::Debug for NvmRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmRegion")
            .field("capacity", &self.capacity)
            .field("latency", &self.latency)
            .field("file_backed", &self.file_backed)
            .field("dirty_lines", &self.dirty_lines())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
