//! nvm_malloc-style persistent allocator.
//!
//! The paper's engine places all primary data on NVM through a persistent
//! allocator whose metadata survives crashes. The tricky part is the window
//! between *allocating* a block and *linking* it into a durable structure:
//! naively, a crash in that window either leaks the block (allocated but
//! unreachable) or dangles it (linked but not allocated). Following
//! nvm_malloc, allocation is split into **reserve** and **activate**, and the
//! activation record stores the link target inside the block header so the
//! recovery scan can *complete* a half-done activation instead of guessing:
//!
//! 1. `reserve(len)` — the block header is written durably in state
//!    `Reserved`. A crash now reclaims the block.
//! 2. The caller initializes the payload and flushes it.
//! 3. `activate(payload, link, replaces)` — the header durably records the
//!    link address/value (and optionally a block this one replaces), moves to
//!    state `Activating`, then performs the link store, frees the replaced
//!    block, and finally moves to `Allocated`. A crash anywhere in between is
//!    redone idempotently by [`recovery`](NvmHeap::open).
//! 4. `free(payload, unlink)` mirrors this with a `Deactivating` state.
//!
//! Block headers are one cache line (64 bytes) and blocks are line-aligned,
//! so each header update is a single-line (atomic) persist.
//!
//! The free lists are **volatile** — exactly as in nvm_malloc — and are
//! rebuilt by the recovery scan; the cost of that scan versus heap population
//! is the A2 ablation experiment.

use std::collections::HashMap;

use crate::layout::{align_up, CACHE_LINE};
use crate::region::NvmRegion;
use crate::{NvmError, Result};

/// Size of the per-block header (one cache line).
pub const ALLOC_BLOCK_HEADER: u64 = CACHE_LINE;

/// Most fences one allocation costs: a fresh block's header, the bump
/// frontier and the reservation (3), then the activation record, its link
/// store, the release of a replaced block and the final state (4). The
/// cost bounds of the protocols that allocate — a merge is a constant plus
/// this per block — are stated in these.
pub const ALLOC_MAX_FENCES: u64 = 7;

/// Most fences one free costs: the deactivation record, its unlink store,
/// the final state.
pub const FREE_MAX_FENCES: u64 = 3;

/// Magic value identifying a formatted region ("HYRISNVM" in ASCII-ish).
pub(crate) const REGION_MAGIC: u64 = 0x4859_5249_534E_564D;
/// On-media layout version.
pub(crate) const REGION_VERSION: u64 = 1;

/// Region header field offsets (all u64 fields, header occupies the first
/// cache line of the region).
pub(crate) mod hdr {
    pub const MAGIC: u64 = 0;
    pub const VERSION: u64 = 8;
    pub const CAPACITY: u64 = 16;
    pub const HEAP_START: u64 = 24;
    pub const BUMP: u64 = 32;
    pub const ROOT: u64 = 40;
    /// FNV-1a checksum over the six preceding header words.
    pub const CHECKSUM: u64 = 48;
    /// Byte length of the header prefix the checksum covers.
    pub const CHECKSUM_COVERS: usize = 48;
}

/// Block lifecycle states stored in the low bits of the header size word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum AllocState {
    /// Block is unused and reusable.
    Free = 0,
    /// Block handed out by `reserve` but not yet activated; reclaimed by
    /// recovery.
    Reserved = 1,
    /// Activation in progress; recovery completes it.
    Activating = 2,
    /// Block is live.
    Allocated = 3,
    /// Deallocation in progress; recovery completes it.
    Deactivating = 4,
}

impl AllocState {
    fn from_tag(tag: u64) -> Option<AllocState> {
        match tag {
            0 => Some(AllocState::Free),
            1 => Some(AllocState::Reserved),
            2 => Some(AllocState::Activating),
            3 => Some(AllocState::Allocated),
            4 => Some(AllocState::Deactivating),
            _ => None,
        }
    }
}

const STATE_BITS: u64 = 3;
const STATE_MASK: u64 = (1 << STATE_BITS) - 1;

/// Block header word offsets relative to the block start.
mod bh {
    /// `size << 3 | state`.
    pub const SIZE_STATE: u64 = 0;
    /// Durable link target address (0 = none).
    pub const LINK_ADDR: u64 = 8;
    /// Value to store at the link target.
    pub const LINK_VAL: u64 = 16;
    /// Block offset of a block this activation replaces (0 = none).
    pub const REPLACES: u64 = 24;
    /// FNV-1a checksum over the four preceding header words. Shares the
    /// header cache line, so every reseal is still a single atomic persist.
    pub const CHECKSUM: u64 = 32;
    /// Byte length of the header prefix the checksum covers.
    pub const CHECKSUM_COVERS: usize = 32;
}

/// Description of one heap block, as returned by [`crate::NvmHeap::walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Offset of the block header.
    pub block_off: u64,
    /// Offset of the payload (header + one line).
    pub payload_off: u64,
    /// Total block size including the header.
    pub total_size: u64,
    /// Lifecycle state.
    pub state: AllocState,
}

/// Outcome of the allocator recovery scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocatorRecovery {
    /// Total block headers visited.
    pub blocks_scanned: u64,
    /// Blocks found in `Allocated` state.
    pub live_blocks: u64,
    /// `Reserved` blocks reclaimed (crash before activation).
    pub reclaimed_reserved: u64,
    /// `Activating` blocks whose activation was completed (redo).
    pub completed_activations: u64,
    /// `Deactivating` blocks whose free was completed (redo).
    pub completed_deactivations: u64,
    /// Free blocks re-inserted into the volatile bins.
    pub free_blocks: u64,
}

/// The volatile face of the persistent heap: exact-size free bins plus the
/// durable bump frontier, all rebuilt from the region on `open`.
pub(crate) struct Allocator {
    heap_start: u64,
    /// Cached copy of the durable bump pointer.
    bump: u64,
    /// Exact-total-size free bins (volatile; rebuilt on recovery).
    bins: HashMap<u64, Vec<u64>>,
    /// Total bytes sitting in the free bins. The bump frontier never
    /// retreats, so `bump - free_bytes` is the live footprint the
    /// watermark machinery steers by.
    free_bytes: u64,
}

impl Allocator {
    /// Park a block in its exact-size bin.
    fn bin_push(&mut self, size: u64, block_off: u64) {
        self.bins.entry(size).or_default().push(block_off);
        self.free_bytes += size;
    }
    /// Checksum of the current (volatile) header field values.
    fn header_checksum(region: &NvmRegion) -> Result<u64> {
        let mut buf = [0u8; hdr::CHECKSUM_COVERS];
        region.read_bytes(0, &mut buf)?;
        Ok(util::hash::fnv1a(&buf))
    }

    /// Recompute the header checksum and persist the whole header line.
    /// The checksum shares the first cache line with the fields it covers,
    /// so the update reaches the medium atomically: recovery sees either
    /// the old consistent header or the new one, never a torn mix.
    fn seal_header(region: &NvmRegion) -> Result<()> {
        let sum = Self::header_checksum(region)?;
        region.write_pod(hdr::CHECKSUM, &sum)?;
        region.persist(0, CACHE_LINE)
    }

    /// Format a virgin region: write the region header durably and return an
    /// empty allocator.
    pub fn format(region: &NvmRegion) -> Result<Allocator> {
        let heap_start = CACHE_LINE;
        region.write_pod(hdr::MAGIC, &REGION_MAGIC)?;
        region.write_pod(hdr::VERSION, &REGION_VERSION)?;
        region.write_pod(hdr::CAPACITY, &region.capacity())?;
        region.write_pod(hdr::HEAP_START, &heap_start)?;
        region.write_pod(hdr::BUMP, &heap_start)?;
        region.write_pod(hdr::ROOT, &0u64)?;
        Self::seal_header(region)?;
        Ok(Allocator {
            heap_start,
            bump: heap_start,
            bins: HashMap::new(),
            free_bytes: 0,
        })
    }

    /// Open a formatted region: validate the header, then scan the heap,
    /// completing interrupted operations and rebuilding the free bins.
    pub fn open(region: &NvmRegion) -> Result<(Allocator, AllocatorRecovery)> {
        if region.read_pod::<u64>(hdr::MAGIC)? != REGION_MAGIC {
            return Err(NvmError::BadHeader {
                reason: "magic mismatch (region not formatted?)",
            });
        }
        let stored = region.read_pod::<u64>(hdr::CHECKSUM)?;
        let computed = Self::header_checksum(region)?;
        if stored != computed {
            return Err(NvmError::HeaderChecksum { stored, computed });
        }
        if region.read_pod::<u64>(hdr::VERSION)? != REGION_VERSION {
            return Err(NvmError::BadHeader {
                reason: "layout version mismatch",
            });
        }
        if region.read_pod::<u64>(hdr::CAPACITY)? != region.capacity() {
            return Err(NvmError::BadHeader {
                reason: "capacity mismatch",
            });
        }
        let heap_start = region.read_pod::<u64>(hdr::HEAP_START)?;
        let bump = region.read_pod::<u64>(hdr::BUMP)?;
        let mut alloc = Allocator {
            heap_start,
            bump,
            bins: HashMap::new(),
            free_bytes: 0,
        };
        let report = alloc.recover(region)?;
        Ok((alloc, report))
    }

    /// Block offset for a payload offset, rejecting offsets that would
    /// underflow into the region header (a symptom of a corrupt pointer).
    fn block_of(payload_off: u64) -> Result<u64> {
        payload_off
            .checked_sub(ALLOC_BLOCK_HEADER)
            .filter(|_| payload_off >= ALLOC_BLOCK_HEADER + CACHE_LINE)
            .ok_or(NvmError::CorruptHeap {
                offset: payload_off,
                reason: "payload offset points inside the region header",
            })
    }

    /// Recompute the block-header checksum and persist the header line.
    /// Called at every header transition; the checksum shares the line with
    /// the words it covers, so the update is atomic on the medium.
    fn seal_block(region: &NvmRegion, block_off: u64) -> Result<()> {
        let mut buf = [0u8; bh::CHECKSUM_COVERS];
        region.read_bytes(block_off, &mut buf)?;
        region.write_pod(block_off + bh::CHECKSUM, &util::hash::fnv1a(&buf))?;
        region.persist(block_off, CACHE_LINE)
    }

    fn read_header(&self, region: &NvmRegion, block_off: u64) -> Result<(u64, AllocState)> {
        let mut buf = [0u8; bh::CHECKSUM_COVERS];
        region.read_bytes(block_off, &mut buf)?;
        let stored = region.read_pod::<u64>(block_off + bh::CHECKSUM)?;
        let computed = util::hash::fnv1a(&buf);
        if stored != computed {
            return Err(NvmError::ChecksumMismatch {
                what: "alloc block header",
                offset: block_off,
                stored,
                computed,
            });
        }
        let word = region.read_pod::<u64>(block_off + bh::SIZE_STATE)?;
        let size = word >> STATE_BITS;
        let state = AllocState::from_tag(word & STATE_MASK).ok_or(NvmError::CorruptHeap {
            offset: block_off,
            reason: "unknown block state tag",
        })?;
        Ok((size, state))
    }

    fn write_state(
        &self,
        region: &NvmRegion,
        block_off: u64,
        size: u64,
        state: AllocState,
    ) -> Result<()> {
        region.write_pod(
            block_off + bh::SIZE_STATE,
            &(size << STATE_BITS | state as u64),
        )?;
        Self::seal_block(region, block_off)
    }

    /// Recovery scan: walk `[heap_start, bump)`, redo interrupted
    /// activations/deactivations, reclaim reservations, rebuild bins.
    fn recover(&mut self, region: &NvmRegion) -> Result<AllocatorRecovery> {
        let mut report = AllocatorRecovery::default();
        let mut off = self.heap_start;
        while off < self.bump {
            let (size, state) = self.read_header(region, off)?;
            if size < ALLOC_BLOCK_HEADER + CACHE_LINE
                || off + size > self.bump
                || size % CACHE_LINE != 0
            {
                return Err(NvmError::CorruptHeap {
                    offset: off,
                    reason: "implausible block size",
                });
            }
            report.blocks_scanned += 1;
            match state {
                AllocState::Allocated => report.live_blocks += 1,
                AllocState::Free => {
                    report.free_blocks += 1;
                    self.bin_push(size, off);
                }
                AllocState::Reserved => {
                    // Never activated: reclaim.
                    self.write_state(region, off, size, AllocState::Free)?;
                    report.reclaimed_reserved += 1;
                    self.bin_push(size, off);
                }
                AllocState::Activating => {
                    // Redo: link store, free of the replaced block, publish.
                    let link_addr = region.read_pod::<u64>(off + bh::LINK_ADDR)?;
                    let link_val = region.read_pod::<u64>(off + bh::LINK_VAL)?;
                    let replaces = region.read_pod::<u64>(off + bh::REPLACES)?;
                    if link_addr != 0 {
                        region.write_pod(link_addr, &link_val)?;
                        region.persist(link_addr, 8)?;
                    }
                    if replaces != 0 {
                        // The redo must be idempotent: a crash landing
                        // after the original step 3 (or after a previous
                        // recovery attempt's redo) leaves the replaced
                        // block already Free, and the linear scan bins
                        // every Free block it visits. Freeing it again
                        // here would enter it into the bins twice, and a
                        // later `reserve` would hand the same block to
                        // two owners.
                        let (rsize, rstate) = self.read_header(region, replaces)?;
                        if rstate != AllocState::Free {
                            self.write_state(region, replaces, rsize, AllocState::Free)?;
                            if replaces < off {
                                // Already scanned (as non-free): bin it
                                // now. Blocks ahead of the cursor are
                                // binned when the scan reaches them.
                                self.bin_push(rsize, replaces);
                                report.free_blocks += 1;
                            }
                        }
                    }
                    self.write_state(region, off, size, AllocState::Allocated)?;
                    report.completed_activations += 1;
                    report.live_blocks += 1;
                }
                AllocState::Deactivating => {
                    // Redo: unlink store, then free.
                    let link_addr = region.read_pod::<u64>(off + bh::LINK_ADDR)?;
                    let link_val = region.read_pod::<u64>(off + bh::LINK_VAL)?;
                    if link_addr != 0 {
                        region.write_pod(link_addr, &link_val)?;
                        region.persist(link_addr, 8)?;
                    }
                    self.write_state(region, off, size, AllocState::Free)?;
                    report.completed_deactivations += 1;
                    report.free_blocks += 1;
                    self.bin_push(size, off);
                }
            }
            off += size;
        }
        if off != self.bump {
            return Err(NvmError::CorruptHeap {
                offset: off,
                reason: "heap scan overran the bump frontier",
            });
        }
        Ok(report)
    }

    /// Total block size for a payload of `len` bytes.
    fn total_for(len: u64) -> u64 {
        ALLOC_BLOCK_HEADER + align_up(len.max(8), CACHE_LINE)
    }

    /// Reserve a block able to hold `len` payload bytes. Returns the payload
    /// offset. Durable in state `Reserved`.
    pub fn reserve(&mut self, region: &NvmRegion, len: u64) -> Result<u64> {
        let total = Self::total_for(len);
        // Every reservation — bin reuse or fresh bump — counts as one
        // allocation attempt the fault injector may fail.
        region.alloc_attempt(total)?;
        let (block_total, block_off) = match self.bins.get_mut(&total).and_then(|list| list.pop()) {
            Some(off) => {
                self.free_bytes -= total;
                (total, off)
            }
            None => match self.bump_alloc(region, total) {
                Ok(off) => (total, off),
                // Exhaustion fallback: the bump frontier is at capacity
                // and the exact bin is empty. Serve the request from the
                // smallest binned block that fits, kept at its true class
                // so heap walks and a later free stay consistent. Without
                // this, degraded-mode work (emergency merges, reclaim)
                // can starve while freed memory sits in mismatched bins.
                Err(oom @ NvmError::OutOfMemory { .. }) => {
                    match self.best_fit_pop(region, total)? {
                        Some(hit) => hit,
                        None => return Err(oom),
                    }
                }
                Err(e) => return Err(e),
            },
        };
        // Clear the activation words from any previous life, then mark
        // reserved; one header line, one persist.
        region.write_pod(block_off + bh::LINK_ADDR, &0u64)?;
        region.write_pod(block_off + bh::LINK_VAL, &0u64)?;
        region.write_pod(block_off + bh::REPLACES, &0u64)?;
        region.write_pod(
            block_off + bh::SIZE_STATE,
            &(block_total << STATE_BITS | AllocState::Reserved as u64),
        )?;
        Self::seal_block(region, block_off)?;
        Ok(block_off + ALLOC_BLOCK_HEADER)
    }

    /// Pop the smallest binned block whose class is at least `total` bytes,
    /// returning `(handed_out_size, block_off)`. Used only when the bump
    /// frontier is exhausted. When the surplus can stand alone as a block,
    /// the tail is split off and re-binned so repeated small requests don't
    /// swallow the few large blocks whole; otherwise the block is handed
    /// out at its full class size.
    fn best_fit_pop(&mut self, region: &NvmRegion, total: u64) -> Result<Option<(u64, u64)>> {
        let Some(cls) = self
            .bins
            .iter()
            .filter(|(size, list)| **size > total && !list.is_empty())
            .map(|(size, _)| *size)
            .min()
        else {
            return Ok(None);
        };
        let Some(off) = self.bins.get_mut(&cls).and_then(|list| list.pop()) else {
            return Ok(None);
        };
        self.free_bytes -= cls;
        let remainder = cls - total;
        if remainder >= ALLOC_BLOCK_HEADER + CACHE_LINE {
            // Write the remainder's header first: while the head block still
            // reads as size `cls`, the tail header is invisible to the
            // recovery walk, so a crash at any point leaves a coherent heap
            // (the whole block simply reverts to one free block).
            let rem_off = off + total;
            region.write_pod(rem_off + bh::LINK_ADDR, &0u64)?;
            region.write_pod(rem_off + bh::LINK_VAL, &0u64)?;
            region.write_pod(rem_off + bh::REPLACES, &0u64)?;
            region.write_pod(
                rem_off + bh::SIZE_STATE,
                &(remainder << STATE_BITS | AllocState::Free as u64),
            )?;
            Self::seal_block(region, rem_off)?;
            self.bin_push(remainder, rem_off);
            return Ok(Some((total, off)));
        }
        Ok(Some((cls, off)))
    }

    fn bump_alloc(&mut self, region: &NvmRegion, total: u64) -> Result<u64> {
        let block_off = self.bump;
        let new_bump = block_off
            .checked_add(total)
            .ok_or(NvmError::OutOfMemory { requested: total })?;
        if new_bump > region.effective_capacity() {
            return Err(NvmError::OutOfMemory { requested: total });
        }
        // Header first (so the scan below the new bump always sees a valid
        // header), then advance the durable bump.
        region.write_pod(
            block_off + bh::SIZE_STATE,
            &(total << STATE_BITS | AllocState::Reserved as u64),
        )?;
        Self::seal_block(region, block_off)?;
        region.write_pod(hdr::BUMP, &new_bump)?;
        Self::seal_header(region)?;
        self.bump = new_bump;
        Ok(block_off)
    }

    /// Activate a reserved block: durably record the intended link (and the
    /// block being replaced, if any), then perform link store → free of the
    /// replaced block → publish. Crash-safe at every step.
    pub fn activate(
        &mut self,
        region: &NvmRegion,
        payload_off: u64,
        link: Option<(u64, u64)>,
        replaces: Option<u64>,
    ) -> Result<()> {
        let block_off = Self::block_of(payload_off)?;
        let (size, state) = self.read_header(region, block_off)?;
        if state != AllocState::Reserved {
            return Err(NvmError::BadBlockState {
                offset: payload_off,
                found: state as u64,
                op: "activate",
            });
        }
        let (link_addr, link_val) = link.unwrap_or((0, 0));
        let replaces_block = match replaces {
            Some(p) => {
                let rb = Self::block_of(p)?;
                let (_, rstate) = self.read_header(region, rb)?;
                if rstate != AllocState::Allocated {
                    return Err(NvmError::BadBlockState {
                        offset: p,
                        found: rstate as u64,
                        op: "activate(replaces)",
                    });
                }
                rb
            }
            None => 0,
        };
        // Step 1: durable activation record (single header line).
        region.write_pod(block_off + bh::LINK_ADDR, &link_addr)?;
        region.write_pod(block_off + bh::LINK_VAL, &link_val)?;
        region.write_pod(block_off + bh::REPLACES, &replaces_block)?;
        region.write_pod(
            block_off + bh::SIZE_STATE,
            &(size << STATE_BITS | AllocState::Activating as u64),
        )?;
        Self::seal_block(region, block_off)?;
        // Step 2: the link store.
        if link_addr != 0 {
            region.write_pod(link_addr, &link_val)?;
            region.persist(link_addr, 8)?;
        }
        // Step 3: free the replaced block.
        if replaces_block != 0 {
            let (rsize, _) = self.read_header(region, replaces_block)?;
            self.write_state(region, replaces_block, rsize, AllocState::Free)?;
            self.bin_push(rsize, replaces_block);
        }
        // Step 4: publish.
        self.write_state(region, block_off, size, AllocState::Allocated)?;
        Ok(())
    }

    /// Free a live block, optionally storing `unlink = (addr, val)` durably
    /// first (e.g. nulling the pointer that referenced it). Crash-safe.
    pub fn free(
        &mut self,
        region: &NvmRegion,
        payload_off: u64,
        unlink: Option<(u64, u64)>,
    ) -> Result<()> {
        let block_off = Self::block_of(payload_off)?;
        let (size, state) = self.read_header(region, block_off)?;
        if state != AllocState::Allocated && state != AllocState::Reserved {
            return Err(NvmError::BadBlockState {
                offset: payload_off,
                found: state as u64,
                op: "free",
            });
        }
        if let Some((addr, val)) = unlink {
            region.write_pod(block_off + bh::LINK_ADDR, &addr)?;
            region.write_pod(block_off + bh::LINK_VAL, &val)?;
            region.write_pod(
                block_off + bh::SIZE_STATE,
                &(size << STATE_BITS | AllocState::Deactivating as u64),
            )?;
            Self::seal_block(region, block_off)?;
            region.write_pod(addr, &val)?;
            region.persist(addr, 8)?;
        }
        self.write_state(region, block_off, size, AllocState::Free)?;
        self.bin_push(size, block_off);
        Ok(())
    }

    /// Usable payload capacity of the block at `payload_off`.
    pub fn payload_capacity(&self, region: &NvmRegion, payload_off: u64) -> Result<u64> {
        let block_off = Self::block_of(payload_off)?;
        let (size, _) = self.read_header(region, block_off)?;
        size.checked_sub(ALLOC_BLOCK_HEADER)
            .ok_or(NvmError::CorruptHeap {
                offset: block_off,
                reason: "block size smaller than its header",
            })
    }

    /// Set the durable root pointer (payload offset of the application's
    /// root object; 0 clears it).
    pub fn set_root(&self, region: &NvmRegion, payload_off: u64) -> Result<()> {
        region.write_pod(hdr::ROOT, &payload_off)?;
        Self::seal_header(region)
    }

    /// Read the durable root pointer.
    pub fn root(&self, region: &NvmRegion) -> Result<u64> {
        region.read_pod::<u64>(hdr::ROOT)
    }

    /// Enumerate every block in the heap (diagnostics / invariant checks).
    pub fn walk(&self, region: &NvmRegion) -> Result<Vec<BlockInfo>> {
        let mut out = Vec::new();
        let mut off = self.heap_start;
        while off < self.bump {
            let (size, state) = self.read_header(region, off)?;
            out.push(BlockInfo {
                block_off: off,
                payload_off: off + ALLOC_BLOCK_HEADER,
                total_size: size,
                state,
            });
            off += size;
        }
        Ok(out)
    }

    /// Current bump frontier (bytes of heap consumed).
    pub fn high_water(&self) -> u64 {
        self.bump
    }

    /// Bytes parked in the volatile free bins (reusable without bumping).
    pub fn free_bytes(&self) -> u64 {
        self.free_bytes
    }

    /// Free every `Reserved` block in the heap — the in-session twin of the
    /// recovery scan's reservation reclaim. Sound only when no allocation
    /// protocol is mid-flight (i.e. after an operation unwound with an
    /// error): a reservation whose holder has unwound is unreachable by
    /// construction, exactly like one orphaned by a crash. Returns
    /// `(blocks, bytes)` reclaimed.
    pub fn reclaim_reserved(&mut self, region: &NvmRegion) -> Result<(u64, u64)> {
        let mut blocks = 0u64;
        let mut bytes = 0u64;
        let mut off = self.heap_start;
        while off < self.bump {
            let (size, state) = self.read_header(region, off)?;
            if state == AllocState::Reserved {
                self.write_state(region, off, size, AllocState::Free)?;
                self.bin_push(size, off);
                blocks += 1;
                bytes += size;
            }
            off += size;
        }
        Ok((blocks, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::region::CrashPolicy;

    fn setup() -> (NvmRegion, Allocator) {
        let region = NvmRegion::new(1 << 20, LatencyModel::zero());
        let alloc = Allocator::format(&region).unwrap();
        (region, alloc)
    }

    #[test]
    fn format_then_open() {
        let (region, _) = setup();
        let (alloc, report) = Allocator::open(&region).unwrap();
        assert_eq!(report.blocks_scanned, 0);
        assert_eq!(alloc.high_water(), CACHE_LINE);
    }

    #[test]
    fn open_unformatted_fails() {
        let region = NvmRegion::new(1 << 16, LatencyModel::zero());
        assert!(matches!(
            Allocator::open(&region),
            Err(NvmError::BadHeader { .. })
        ));
    }

    #[test]
    fn reserve_activate_survives_crash() {
        let (region, mut alloc) = setup();
        let p = alloc.reserve(&region, 16).unwrap();
        region.write_pod(p, &77u64).unwrap();
        region.persist(p, 8).unwrap();
        alloc.activate(&region, p, None, None).unwrap();
        region.crash(CrashPolicy::DropUnflushed);
        let (alloc2, report) = Allocator::open(&region).unwrap();
        assert_eq!(report.live_blocks, 1);
        assert_eq!(region.read_pod::<u64>(p).unwrap(), 77);
        drop(alloc2);
    }

    #[test]
    fn unactivated_reservation_reclaimed() {
        let (region, mut alloc) = setup();
        let p = alloc.reserve(&region, 16).unwrap();
        region.write_pod(p, &1u64).unwrap();
        // No activate; crash.
        region.crash(CrashPolicy::DropUnflushed);
        let (mut alloc2, report) = Allocator::open(&region).unwrap();
        assert_eq!(report.reclaimed_reserved, 1);
        assert_eq!(report.live_blocks, 0);
        // The reclaimed block is reusable.
        let p2 = alloc2.reserve(&region, 16).unwrap();
        assert_eq!(p2, p);
    }

    #[test]
    fn activation_link_redone_by_recovery() {
        let (region, mut alloc) = setup();
        // A durable "slot" to link into.
        let slot = alloc.reserve(&region, 8).unwrap();
        alloc.activate(&region, slot, None, None).unwrap();
        let p = alloc.reserve(&region, 32).unwrap();
        region.write_pod(p, &42u64).unwrap();
        region.persist(p, 8).unwrap();
        alloc.activate(&region, p, Some((slot, p)), None).unwrap();
        // Simulate crash where the link store itself never hit the medium:
        // overwrite the slot volatile-only, then crash. Recovery must redo
        // nothing (activation completed), and the durable link persists.
        region.crash(CrashPolicy::DropUnflushed);
        let (_a, report) = Allocator::open(&region).unwrap();
        assert_eq!(report.live_blocks, 2);
        assert_eq!(region.read_pod::<u64>(slot).unwrap(), p);
        assert_eq!(report.completed_activations, 0);
    }

    #[test]
    fn interrupted_activation_completed() {
        // Drive the protocol manually up to the Activating record, crash,
        // and check recovery completes link + publish.
        let (region, mut alloc) = setup();
        let slot = alloc.reserve(&region, 8).unwrap();
        alloc.activate(&region, slot, None, None).unwrap();
        region.write_pod(slot, &0u64).unwrap();
        region.persist(slot, 8).unwrap();

        let p = alloc.reserve(&region, 32).unwrap();
        region.write_pod(p, &99u64).unwrap();
        region.persist(p, 8).unwrap();
        // Manually write the activation record (step 1 only).
        let block = p - ALLOC_BLOCK_HEADER;
        region.write_pod(block + bh::LINK_ADDR, &slot).unwrap();
        region.write_pod(block + bh::LINK_VAL, &p).unwrap();
        region.write_pod(block + bh::REPLACES, &0u64).unwrap();
        let size = Allocator::total_for(32);
        region
            .write_pod(
                block + bh::SIZE_STATE,
                &(size << STATE_BITS | AllocState::Activating as u64),
            )
            .unwrap();
        Allocator::seal_block(&region, block).unwrap();
        region.crash(CrashPolicy::DropUnflushed);

        let (_a, report) = Allocator::open(&region).unwrap();
        assert_eq!(report.completed_activations, 1);
        assert_eq!(region.read_pod::<u64>(slot).unwrap(), p, "link redone");
        assert_eq!(region.read_pod::<u64>(p).unwrap(), 99, "payload durable");
    }

    #[test]
    fn interrupted_activation_redo_does_not_double_free_the_replaced_block() {
        // Crash *inside* the activate redo: the replaced block is already
        // durably Free (original step 3 completed) but the activating
        // block never reached Allocated. The next recovery scan must not
        // bin the replaced block twice — otherwise two later reserves
        // alias the same block.
        let (region, mut alloc) = setup();
        let slot = alloc.reserve(&region, 8).unwrap();
        alloc.activate(&region, slot, None, None).unwrap();
        let old = alloc.reserve(&region, 32).unwrap();
        alloc
            .activate(&region, old, Some((slot, old)), None)
            .unwrap();

        let newp = alloc.reserve(&region, 32).unwrap();
        let old_block = old - ALLOC_BLOCK_HEADER;
        let new_block = newp - ALLOC_BLOCK_HEADER;
        let size = Allocator::total_for(32);
        // Step 1: activation record naming the replaced block.
        region.write_pod(new_block + bh::LINK_ADDR, &slot).unwrap();
        region.write_pod(new_block + bh::LINK_VAL, &newp).unwrap();
        region
            .write_pod(new_block + bh::REPLACES, &old_block)
            .unwrap();
        region
            .write_pod(
                new_block + bh::SIZE_STATE,
                &(size << STATE_BITS | AllocState::Activating as u64),
            )
            .unwrap();
        Allocator::seal_block(&region, new_block).unwrap();
        // Step 2 + 3 completed: link stored, replaced block durably Free.
        region.write_pod(slot, &newp).unwrap();
        region.persist(slot, 8).unwrap();
        region
            .write_pod(
                old_block + bh::SIZE_STATE,
                &(size << STATE_BITS | AllocState::Free as u64),
            )
            .unwrap();
        Allocator::seal_block(&region, old_block).unwrap();
        // Crash before step 4 (publish Allocated).
        region.crash(CrashPolicy::DropUnflushed);

        let (mut a, report) = Allocator::open(&region).unwrap();
        assert_eq!(report.completed_activations, 1);
        assert_eq!(report.free_blocks, 1, "replaced block binned exactly once");
        // Two same-class reserves must come back distinct: the first pops
        // the freed block, the second must NOT alias it.
        let r1 = a.reserve(&region, 32).unwrap();
        let r2 = a.reserve(&region, 32).unwrap();
        assert_ne!(r1, r2, "free bin handed the same block out twice");
    }

    #[test]
    fn interrupted_deactivation_completed() {
        let (region, mut alloc) = setup();
        let slot = alloc.reserve(&region, 8).unwrap();
        alloc.activate(&region, slot, None, None).unwrap();
        let p = alloc.reserve(&region, 32).unwrap();
        alloc.activate(&region, p, Some((slot, p)), None).unwrap();
        // Manually write the deactivation record, then crash before the
        // unlink store.
        let block = p - ALLOC_BLOCK_HEADER;
        let size = Allocator::total_for(32);
        region.write_pod(block + bh::LINK_ADDR, &slot).unwrap();
        region.write_pod(block + bh::LINK_VAL, &0u64).unwrap();
        region
            .write_pod(
                block + bh::SIZE_STATE,
                &(size << STATE_BITS | AllocState::Deactivating as u64),
            )
            .unwrap();
        Allocator::seal_block(&region, block).unwrap();
        region.crash(CrashPolicy::DropUnflushed);

        let (_a, report) = Allocator::open(&region).unwrap();
        assert_eq!(report.completed_deactivations, 1);
        assert_eq!(region.read_pod::<u64>(slot).unwrap(), 0, "unlink redone");
    }

    #[test]
    fn replace_frees_old_block() {
        let (region, mut alloc) = setup();
        let slot = alloc.reserve(&region, 8).unwrap();
        alloc.activate(&region, slot, None, None).unwrap();
        let old = alloc.reserve(&region, 64).unwrap();
        alloc
            .activate(&region, old, Some((slot, old)), None)
            .unwrap();
        let newp = alloc.reserve(&region, 64).unwrap();
        alloc
            .activate(&region, newp, Some((slot, newp)), Some(old))
            .unwrap();
        assert_eq!(region.read_pod::<u64>(slot).unwrap(), newp);
        let blocks = alloc.walk(&region).unwrap();
        let old_block = blocks
            .iter()
            .find(|b| b.payload_off == old)
            .expect("old block present");
        assert_eq!(old_block.state, AllocState::Free);
        // And the freed block is reusable at the same size.
        let again = alloc.reserve(&region, 64).unwrap();
        assert_eq!(again, old);
    }

    #[test]
    fn free_with_unlink() {
        let (region, mut alloc) = setup();
        let slot = alloc.reserve(&region, 8).unwrap();
        alloc.activate(&region, slot, None, None).unwrap();
        let p = alloc.reserve(&region, 16).unwrap();
        alloc.activate(&region, p, Some((slot, p)), None).unwrap();
        alloc.free(&region, p, Some((slot, 0))).unwrap();
        assert_eq!(region.read_pod::<u64>(slot).unwrap(), 0);
        region.crash(CrashPolicy::DropUnflushed);
        let (_a, report) = Allocator::open(&region).unwrap();
        assert_eq!(report.live_blocks, 1); // only the slot
        assert_eq!(report.free_blocks, 1);
    }

    #[test]
    fn out_of_memory() {
        let region = NvmRegion::new(4096, LatencyModel::zero());
        let mut alloc = Allocator::format(&region).unwrap();
        let mut n = 0;
        let err = loop {
            match alloc.reserve(&region, 256) {
                Ok(p) => {
                    alloc.activate(&region, p, None, None).unwrap();
                    n += 1;
                }
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err, NvmError::OutOfMemory { .. }),
            "expected OutOfMemory, got {err}"
        );
        assert!(
            (1..16).contains(&n),
            "allocated {n} blocks from a 4 KiB region"
        );
    }

    #[test]
    fn injected_oom_fires_through_reserve() {
        use crate::fault::{AllocFaultClass, AllocFaultSpec};
        let (region, mut alloc) = setup();
        region.arm_alloc_fault(&AllocFaultSpec {
            class: AllocFaultClass::FailNth { nth: 1 },
            seed: 0,
        });
        let p = alloc.reserve(&region, 32).unwrap();
        alloc.activate(&region, p, None, None).unwrap();
        assert!(matches!(
            alloc.reserve(&region, 32),
            Err(NvmError::OutOfMemory { .. })
        ));
        // One-shot fault: the retry succeeds and the heap stayed sound.
        let p2 = alloc.reserve(&region, 32).unwrap();
        alloc.activate(&region, p2, None, None).unwrap();
        let (_, report) = Allocator::open(&region).unwrap();
        assert_eq!(report.live_blocks, 2);
    }

    #[test]
    fn capacity_clamp_limits_bump() {
        let (region, mut alloc) = setup();
        region.set_capacity_clamp(Some(CACHE_LINE + 2 * Allocator::total_for(256)));
        let a = alloc.reserve(&region, 256).unwrap();
        alloc.activate(&region, a, None, None).unwrap();
        let b = alloc.reserve(&region, 256).unwrap();
        alloc.activate(&region, b, None, None).unwrap();
        assert!(matches!(
            alloc.reserve(&region, 256),
            Err(NvmError::OutOfMemory { .. })
        ));
        // Freed space is reusable under the clamp (bins, not bump)…
        alloc.free(&region, b, None).unwrap();
        let c = alloc.reserve(&region, 256).unwrap();
        assert_eq!(c, b);
        // …and lifting the clamp restores the full region.
        region.set_capacity_clamp(None);
        alloc.activate(&region, c, None, None).unwrap();
        let d = alloc.reserve(&region, 256).unwrap();
        assert_ne!(d, c);
    }

    #[test]
    fn best_fit_fallback_splits_larger_bins_under_exhaustion() {
        let (region, mut alloc) = setup();
        // Fill the (clamped) region with one 1024-byte block, then free it:
        // the bump frontier sits at the clamp, all free memory is one big
        // binned block.
        region.set_capacity_clamp(Some(CACHE_LINE + Allocator::total_for(1024)));
        let big = alloc.reserve(&region, 1024).unwrap();
        alloc.activate(&region, big, None, None).unwrap();
        alloc.free(&region, big, None).unwrap();
        let binned = alloc.free_bytes();
        // A 64-byte request has no exact bin and no bump room: it is carved
        // out of the big block, and the tail returns to the bins.
        let a = alloc.reserve(&region, 64).unwrap();
        assert_eq!(a, big);
        assert_eq!(alloc.payload_capacity(&region, a).unwrap(), 64);
        assert_eq!(alloc.free_bytes(), binned - Allocator::total_for(64));
        alloc.activate(&region, a, None, None).unwrap();
        // The split-off tail keeps serving requests under the clamp…
        let b = alloc.reserve(&region, 64).unwrap();
        assert_ne!(b, a);
        alloc.activate(&region, b, None, None).unwrap();
        // …while a request bigger than any remaining block fails cleanly.
        assert!(matches!(
            alloc.reserve(&region, 1024),
            Err(NvmError::OutOfMemory { .. })
        ));
        // Freeing both hands back every byte, and recovery sees the same
        // (now three-way split) heap.
        alloc.free(&region, a, None).unwrap();
        alloc.free(&region, b, None).unwrap();
        assert_eq!(alloc.free_bytes(), binned);
        let (alloc2, _) = Allocator::open(&region).unwrap();
        assert_eq!(alloc2.free_bytes(), binned);
    }

    #[test]
    fn free_bytes_tracks_bins() {
        let (region, mut alloc) = setup();
        assert_eq!(alloc.free_bytes(), 0);
        let total = Allocator::total_for(128);
        let p = alloc.reserve(&region, 128).unwrap();
        alloc.activate(&region, p, None, None).unwrap();
        assert_eq!(alloc.free_bytes(), 0);
        alloc.free(&region, p, None).unwrap();
        assert_eq!(alloc.free_bytes(), total);
        let p2 = alloc.reserve(&region, 128).unwrap();
        assert_eq!(p2, p);
        assert_eq!(alloc.free_bytes(), 0);
        // Recovery rebuilds the ledger from the heap image.
        alloc.activate(&region, p2, None, None).unwrap();
        alloc.free(&region, p2, None).unwrap();
        let (alloc2, _) = Allocator::open(&region).unwrap();
        assert_eq!(alloc2.free_bytes(), total);
    }

    #[test]
    fn reclaim_reserved_frees_orphans_in_session() {
        let (region, mut alloc) = setup();
        let live = alloc.reserve(&region, 64).unwrap();
        alloc.activate(&region, live, None, None).unwrap();
        // Two reservations whose holders "unwound" without activating.
        let o1 = alloc.reserve(&region, 64).unwrap();
        let o2 = alloc.reserve(&region, 256).unwrap();
        let (blocks, bytes) = alloc.reclaim_reserved(&region).unwrap();
        assert_eq!(blocks, 2);
        assert_eq!(bytes, Allocator::total_for(64) + Allocator::total_for(256));
        assert_eq!(alloc.free_bytes(), bytes);
        // The orphans are reusable and the heap image stays consistent.
        assert_eq!(alloc.reserve(&region, 64).unwrap(), o1);
        assert_eq!(alloc.reserve(&region, 256).unwrap(), o2);
        let (_, report) = Allocator::open(&region).unwrap();
        assert_eq!(report.live_blocks, 1);
    }

    #[test]
    fn double_activate_rejected() {
        let (region, mut alloc) = setup();
        let p = alloc.reserve(&region, 8).unwrap();
        alloc.activate(&region, p, None, None).unwrap();
        assert!(matches!(
            alloc.activate(&region, p, None, None),
            Err(NvmError::BadBlockState { .. })
        ));
    }

    #[test]
    fn root_pointer_durable() {
        let (region, mut alloc) = setup();
        let p = alloc.reserve(&region, 8).unwrap();
        alloc.activate(&region, p, None, None).unwrap();
        alloc.set_root(&region, p).unwrap();
        region.crash(CrashPolicy::DropUnflushed);
        let (alloc2, _) = Allocator::open(&region).unwrap();
        assert_eq!(alloc2.root(&region).unwrap(), p);
    }

    #[test]
    fn torn_root_detected_by_checksum() {
        let (region, mut alloc) = setup();
        let p = alloc.reserve(&region, 8).unwrap();
        alloc.activate(&region, p, None, None).unwrap();
        alloc.set_root(&region, p).unwrap();
        // A buggy writer scribbles the root word without resealing the
        // header, and the torn line reaches the medium.
        region.write_pod(hdr::ROOT, &0xDEAD_BEEFu64).unwrap();
        region.persist(0, CACHE_LINE).unwrap();
        region.crash(CrashPolicy::DropUnflushed);
        match Allocator::open(&region) {
            Err(NvmError::HeaderChecksum { stored, computed }) => {
                assert_ne!(stored, computed);
            }
            Err(other) => panic!("expected HeaderChecksum error, got {other:?}"),
            Ok(_) => panic!("expected HeaderChecksum error, got Ok"),
        }
        // Repairing through the sealed path makes the region openable again.
        region.write_pod(hdr::ROOT, &p).unwrap();
        Allocator::seal_header(&region).unwrap();
        let (alloc2, _) = Allocator::open(&region).unwrap();
        assert_eq!(alloc2.root(&region).unwrap(), p);
    }

    #[test]
    fn scribbled_block_header_detected() {
        let (region, mut alloc) = setup();
        let p = alloc.reserve(&region, 16).unwrap();
        alloc.activate(&region, p, None, None).unwrap();
        // A media fault flips the size word without resealing.
        let block = p - ALLOC_BLOCK_HEADER;
        let word = region.read_pod::<u64>(block + bh::SIZE_STATE).unwrap();
        region
            .write_pod(block + bh::SIZE_STATE, &(word ^ 0x40))
            .unwrap();
        region.persist(block, CACHE_LINE).unwrap();
        region.crash(CrashPolicy::DropUnflushed);
        match Allocator::open(&region) {
            Err(NvmError::ChecksumMismatch { what, offset, .. }) => {
                assert_eq!(what, "alloc block header");
                assert_eq!(offset, block);
            }
            Err(other) => panic!("expected ChecksumMismatch, got {other:?}"),
            Ok(_) => panic!("expected ChecksumMismatch, got Ok"),
        }
    }

    #[test]
    fn bitflip_fault_in_header_detected() {
        use crate::fault::{FaultClass, FaultSpec};
        let (region, mut alloc) = setup();
        let p = alloc.reserve(&region, 16).unwrap();
        alloc.activate(&region, p, None, None).unwrap();
        let block = p - ALLOC_BLOCK_HEADER;
        region
            .inject_fault(&FaultSpec {
                class: FaultClass::BitFlip { bits: 16 },
                offset: block,
                seed: 7,
            })
            .unwrap();
        // The flips land in the header line; some hit the checksum word or a
        // covered word (deterministic for this seed), so detection fires.
        match Allocator::open(&region) {
            Err(NvmError::ChecksumMismatch { what, .. }) => {
                assert_eq!(what, "alloc block header");
            }
            Err(other) => panic!("expected ChecksumMismatch, got {other:?}"),
            Ok(_) => panic!("expected ChecksumMismatch, got Ok"),
        }
    }

    #[test]
    fn bogus_payload_offset_rejected() {
        let (region, mut alloc) = setup();
        assert!(matches!(
            alloc.free(&region, 8, None),
            Err(NvmError::CorruptHeap { .. })
        ));
        assert!(matches!(
            alloc.payload_capacity(&region, 0),
            Err(NvmError::CorruptHeap { .. })
        ));
    }

    #[test]
    fn walk_matches_allocations() {
        let (region, mut alloc) = setup();
        let mut live = Vec::new();
        for i in 0..10u64 {
            let p = alloc.reserve(&region, 8 * (i + 1)).unwrap();
            alloc.activate(&region, p, None, None).unwrap();
            live.push(p);
        }
        alloc.free(&region, live[3], None).unwrap();
        let blocks = alloc.walk(&region).unwrap();
        assert_eq!(blocks.len(), 10);
        assert_eq!(
            blocks
                .iter()
                .filter(|b| b.state == AllocState::Allocated)
                .count(),
            9
        );
        assert_eq!(
            blocks
                .iter()
                .filter(|b| b.state == AllocState::Free)
                .count(),
            1
        );
    }
}
