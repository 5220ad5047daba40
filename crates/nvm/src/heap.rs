//! The public face of the persistent heap: an [`NvmRegion`] plus the
//! allocator, shareable across threads.

use std::sync::Arc;

use util::sync::Mutex;

use crate::alloc::{Allocator, AllocatorRecovery, BlockInfo};
use crate::region::NvmRegion;
use crate::Result;

/// Volatile statistics about the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes of the region consumed by the bump frontier.
    pub high_water: u64,
    /// Effective region capacity (the configured capacity, or the active
    /// capacity clamp when one models a smaller device).
    pub capacity: u64,
    /// Bytes parked in the volatile free bins — reusable without advancing
    /// the bump frontier.
    pub free_bytes: u64,
}

impl HeapStats {
    /// Live footprint as a fraction of capacity: the bump frontier minus
    /// the binned free space. This is the utilization the watermark-driven
    /// admission control steers by.
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            return 0.0;
        }
        self.high_water.saturating_sub(self.free_bytes) as f64 / self.capacity as f64
    }
}

/// A persistent heap over a shared NVM region.
///
/// Cloning the handle is cheap; all clones address the same heap. The
/// allocator's volatile state (free bins, cached bump) sits behind a mutex;
/// raw region reads/writes go straight to the region and do not take it.
#[derive(Clone)]
pub struct NvmHeap {
    region: Arc<NvmRegion>,
    alloc: Arc<Mutex<Allocator>>,
}

impl NvmHeap {
    /// Format `region` as a fresh heap (destroys any previous content).
    pub fn format(region: Arc<NvmRegion>) -> Result<NvmHeap> {
        let alloc = Allocator::format(&region)?;
        Ok(NvmHeap {
            region,
            alloc: Arc::new(Mutex::new(alloc)),
        })
    }

    /// Open an already-formatted heap, running the recovery scan. This is
    /// the restart path: the returned report is what the `restart` experiment
    /// itemizes as "heap map + allocator scan".
    pub fn open(region: Arc<NvmRegion>) -> Result<(NvmHeap, AllocatorRecovery)> {
        let (alloc, report) = Allocator::open(&region)?;
        Ok((
            NvmHeap {
                region,
                alloc: Arc::new(Mutex::new(alloc)),
            },
            report,
        ))
    }

    /// The underlying region (for direct reads/writes/persists and for crash
    /// injection in tests).
    #[inline]
    pub fn region(&self) -> &Arc<NvmRegion> {
        &self.region
    }

    /// Reserve a block for `len` payload bytes; durable in `Reserved` state.
    pub fn reserve(&self, len: u64) -> Result<u64> {
        self.alloc.lock().reserve(&self.region, len)
    }

    /// Activate a reserved block. `link = (addr, val)` durably stores `val`
    /// at `addr` as part of activation; `replaces` frees the given live
    /// payload in the same crash-safe step. See the crate docs for the
    /// protocol.
    pub fn activate(
        &self,
        payload_off: u64,
        link: Option<(u64, u64)>,
        replaces: Option<u64>,
    ) -> Result<()> {
        self.alloc
            .lock()
            .activate(&self.region, payload_off, link, replaces)
    }

    /// Reserve + activate in one call, for blocks whose reachability is
    /// established later by higher-level protocols (e.g. table metadata
    /// linked before first use).
    ///
    /// Holds the allocator mutex across the reserve→activate persists on
    /// purpose: the two steps form one allocation protocol instance, and a
    /// concurrent allocator mutation between them could hand the same lines
    /// to another block.
    // pmlint: lock-held-persist(reserve+activate is one atomic allocator protocol)
    pub fn alloc(&self, len: u64) -> Result<u64> {
        let mut guard = self.alloc.lock();
        let p = guard.reserve(&self.region, len)?;
        guard.activate(&self.region, p, None, None)?;
        Ok(p)
    }

    /// Free a live block, optionally performing a durable unlink store
    /// first.
    pub fn free(&self, payload_off: u64, unlink: Option<(u64, u64)>) -> Result<()> {
        self.alloc.lock().free(&self.region, payload_off, unlink)
    }

    /// Usable payload capacity of a block.
    pub fn payload_capacity(&self, payload_off: u64) -> Result<u64> {
        self.alloc
            .lock()
            .payload_capacity(&self.region, payload_off)
    }

    /// Set the durable root pointer.
    pub fn set_root(&self, payload_off: u64) -> Result<()> {
        self.alloc.lock().set_root(&self.region, payload_off)
    }

    /// Read the durable root pointer (0 = unset).
    pub fn root(&self) -> Result<u64> {
        self.alloc.lock().root(&self.region)
    }

    /// Enumerate all heap blocks (diagnostics / invariant checks).
    pub fn walk(&self) -> Result<Vec<BlockInfo>> {
        self.alloc.lock().walk(&self.region)
    }

    /// Volatile heap statistics.
    pub fn stats(&self) -> HeapStats {
        let guard = self.alloc.lock();
        HeapStats {
            high_water: guard.high_water(),
            capacity: self.region.effective_capacity(),
            free_bytes: guard.free_bytes(),
        }
    }

    /// Free every orphaned `Reserved` block — the in-session twin of the
    /// recovery scan's reservation reclaim, for unwinding after a failed
    /// operation. Sound only while no allocation protocol is mid-flight.
    /// Returns `(blocks, bytes)` reclaimed.
    pub fn reclaim_reserved(&self) -> Result<(u64, u64)> {
        self.alloc.lock().reclaim_reserved(&self.region)
    }
}

impl std::fmt::Debug for NvmHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("NvmHeap")
            .field("high_water", &s.high_water)
            .field("capacity", &s.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::region::CrashPolicy;

    fn heap() -> NvmHeap {
        let region = Arc::new(NvmRegion::new(1 << 20, LatencyModel::zero()));
        NvmHeap::format(region).unwrap()
    }

    #[test]
    fn alloc_write_reopen() {
        let h = heap();
        let p = h.alloc(128).unwrap();
        h.region().write_pod(p, &123u64).unwrap();
        h.region().persist(p, 8).unwrap();
        h.set_root(p).unwrap();
        h.region().crash(CrashPolicy::DropUnflushed);
        let (h2, report) = NvmHeap::open(h.region().clone()).unwrap();
        assert_eq!(report.live_blocks, 1);
        let root = h2.root().unwrap();
        assert_eq!(root, p);
        assert_eq!(h2.region().read_pod::<u64>(root).unwrap(), 123);
    }

    #[test]
    fn clones_share_state() {
        let h = heap();
        let h2 = h.clone();
        let p = h.alloc(64).unwrap();
        let q = h2.alloc(64).unwrap();
        assert_ne!(p, q);
        assert_eq!(h.stats(), h2.stats());
    }

    #[test]
    fn payload_capacity_rounded_to_lines() {
        let h = heap();
        let p = h.alloc(100).unwrap();
        assert_eq!(h.payload_capacity(p).unwrap(), 128);
    }
}
