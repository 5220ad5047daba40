//! Capacity-managed persistent array without an own length.
//!
//! Several engine structures (delta attribute vectors, MVCC timestamp
//! arrays) share a *single* durable length — the table's row counter — so
//! that one 8-byte publish makes a whole row visible atomically. Their
//! backing arrays therefore must not carry their own durable length;
//! `PSlab` is that: a growable block of `T` whose live prefix is defined by
//! the caller.

use std::marker::PhantomData;

use crate::heap::NvmHeap;
use crate::pod::Pod;
use crate::region::NvmRegion;
use crate::Result;

/// Byte size of the persistent header of a `PSlab` (`cap`, `data`).
pub const PSLAB_HEADER: u64 = 16;

const F_CAP: u64 = 0;
const F_DATA: u64 = 8;

/// Typed handle to a persistent capacity-managed array whose 16-byte header
/// lives at a fixed NVM offset.
pub struct PSlab<T: Pod> {
    hdr: u64,
    _t: PhantomData<T>,
}

impl<T: Pod> Clone for PSlab<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for PSlab<T> {}

impl<T: Pod> PSlab<T> {
    /// Initialize a new slab whose header lives at `hdr_off` (caller owns
    /// those 16 bytes inside an activated block).
    pub fn create(heap: &NvmHeap, hdr_off: u64, initial_cap: u64) -> Result<PSlab<T>> {
        let region = heap.region();
        let cap = initial_cap.max(4);
        region.write_pod(hdr_off + F_CAP, &cap)?;
        region.write_pod(hdr_off + F_DATA, &0u64)?;
        // Drained by the reservation's fence, before the link store.
        region.flush(hdr_off, PSLAB_HEADER)?;
        let data = heap.reserve(cap * T::SIZE as u64)?;
        heap.activate(data, Some((hdr_off + F_DATA, data)), None)?;
        Ok(PSlab {
            hdr: hdr_off,
            _t: PhantomData,
        })
    }

    /// Re-attach after restart.
    pub fn open(hdr_off: u64) -> PSlab<T> {
        PSlab {
            hdr: hdr_off,
            _t: PhantomData,
        }
    }

    /// Offset of the persistent header.
    #[inline]
    pub fn header_offset(&self) -> u64 {
        self.hdr
    }

    /// Current capacity in elements.
    #[inline]
    pub fn capacity(&self, region: &NvmRegion) -> Result<u64> {
        region.read_pod(self.hdr + F_CAP)
    }

    fn elem_off(&self, region: &NvmRegion, i: u64) -> Result<u64> {
        let data: u64 = region.read_pod(self.hdr + F_DATA)?;
        Ok(data + i * T::SIZE as u64)
    }

    /// Read element `i`. The caller is responsible for `i` being within the
    /// externally-managed live prefix; the slab only bounds-checks against
    /// capacity (via the region's bounds).
    #[inline]
    pub fn get(&self, region: &NvmRegion, i: u64) -> Result<T> {
        region.read_pod(self.elem_off(region, i)?)
    }

    /// Write element `i` and persist it.
    pub fn store(&self, region: &NvmRegion, i: u64, value: &T) -> Result<()> {
        let off = self.elem_off(region, i)?;
        region.write_pod(off, value)?;
        region.persist(off, T::SIZE as u64)
    }

    /// Write element `i` and issue its write-back without draining: the
    /// caller batches several stamps and pays one fence for all of them.
    // pmlint: caller-flushes
    pub fn store_unfenced(&self, region: &NvmRegion, i: u64, value: &T) -> Result<()> {
        let off = self.elem_off(region, i)?;
        region.write_pod(off, value)?;
        region.flush(off, T::SIZE as u64)
    }

    /// Grow (if needed) so that index `i` is addressable, copying the first
    /// `live` elements into the new block. Crash-safe pointer swap.
    pub fn ensure(&self, heap: &NvmHeap, i: u64, live: u64) -> Result<()> {
        let region = heap.region();
        let cap = self.capacity(region)?;
        if i < cap {
            return Ok(());
        }
        let new_cap = (cap * 2).max(i + 1).max(4);
        let old_data: u64 = region.read_pod(self.hdr + F_DATA)?;
        let new_data = heap.reserve(new_cap * T::SIZE as u64)?;
        if live > 0 {
            let bytes = live.min(cap) * T::SIZE as u64;
            let copied = region.with_slice(old_data, bytes, |src| src.to_vec())?;
            region.write_bytes(new_data, &copied)?;
            // Durable before the activation record can be: the record's own
            // fence does not order the copy ahead of it.
            region.persist(new_data, bytes)?;
        }
        heap.activate(
            new_data,
            Some((self.hdr + F_DATA, new_data)),
            (old_data != 0).then_some(old_data),
        )?;
        // A stale (smaller) capacity is safe — it only grows again — and
        // the caller's length cannot pass it before the next fence.
        region.write_pod(self.hdr + F_CAP, &new_cap)?;
        region.flush(self.hdr + F_CAP, 8)
    }

    /// Bulk-read the first `live` elements.
    pub fn prefix(&self, region: &NvmRegion, live: u64) -> Result<Vec<T>> {
        if live == 0 {
            return Ok(Vec::new());
        }
        let data: u64 = region.read_pod(self.hdr + F_DATA)?;
        region.with_slice(data, live * T::SIZE as u64, |bytes| {
            bytes.chunks_exact(T::SIZE).map(T::from_bytes).collect()
        })
    }

    /// Run `f` over the raw bytes of the first `live` elements.
    pub fn with_bytes<R>(
        &self,
        region: &NvmRegion,
        live: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let data: u64 = region.read_pod(self.hdr + F_DATA)?;
        region.with_slice(data, live * T::SIZE as u64, f)
    }
}

impl<T: Pod> std::fmt::Debug for PSlab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PSlab<{}>@{}", std::any::type_name::<T>(), self.hdr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::region::{CrashPolicy, NvmRegion};
    use std::sync::Arc;

    fn heap() -> NvmHeap {
        let region = Arc::new(NvmRegion::new(1 << 22, LatencyModel::zero()));
        NvmHeap::format(region).unwrap()
    }

    #[test]
    fn grow_preserves_live_prefix() {
        let h = heap();
        let hdr = h.alloc(PSLAB_HEADER).unwrap();
        let s = PSlab::<u64>::create(&h, hdr, 4).unwrap();
        for i in 0..200u64 {
            s.ensure(&h, i, i).unwrap();
            s.store(h.region(), i, &(i + 1)).unwrap();
        }
        h.region().crash(CrashPolicy::DropUnflushed);
        let s2 = PSlab::<u64>::open(hdr);
        assert_eq!(
            s2.prefix(h.region(), 200).unwrap(),
            (1..=200).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn unflushed_set_lost() {
        let h = heap();
        let hdr = h.alloc(PSLAB_HEADER).unwrap();
        let s = PSlab::<u64>::create(&h, hdr, 8).unwrap();
        let data: u64 = h.region().read_pod(hdr + F_DATA).unwrap();
        h.region().write_pod(data, &7u64).unwrap();
        h.region().crash(CrashPolicy::DropUnflushed);
        assert_eq!(s.get(h.region(), 0).unwrap(), 0);
    }

    #[test]
    fn capacity_reported() {
        let h = heap();
        let hdr = h.alloc(PSLAB_HEADER).unwrap();
        let s = PSlab::<u32>::create(&h, hdr, 10).unwrap();
        assert_eq!(s.capacity(h.region()).unwrap(), 10);
        s.ensure(&h, 10, 10).unwrap();
        assert_eq!(s.capacity(h.region()).unwrap(), 20);
    }
}
