//! Growable persistent vector with staged, crash-atomic appends.
//!
//! The paper's delta storage is append-only: dictionaries and string blobs
//! grow at the tail. `PVec` provides that in the engine's stage → drain →
//! publish shape:
//!
//! * [`PVec::stage`] writes an element beyond the durable length and issues
//!   its write-back — no fence. Any number of elements, across any number
//!   of vectors, share the caller's one drain.
//! * [`PVec::publish_len`] stores the new length word (packed with the
//!   running content checksum) and issues its write-back; the caller's next
//!   fence makes it durable. It must follow the drain of the elements it
//!   covers, so a crash can never expose an element that was not fully
//!   persisted ("persist, then publish").
//! * Growth allocates a new block, copies, and swaps the data pointer via
//!   the allocator's crash-safe `activate(..., replaces=old)` step, so the
//!   old block is freed and the new one linked atomically with respect to
//!   recovery.

use std::marker::PhantomData;

use crate::heap::NvmHeap;
use crate::pod::Pod;
use crate::region::NvmRegion;
use crate::{NvmError, Result};

/// Byte size of the persistent header of a `PVec` (`len`, `cap`, `data`).
pub const PVEC_HEADER: u64 = 24;

/// Packed publish word: `(fnv1a32(element bytes 0..len) << 32) | len`.
/// Packing the running checksum into the high half of the length word keeps
/// the publish a single 8-byte (line-atomic) store — no window in which a
/// crash could tear length and checksum apart — while letting media faults
/// in the elements, the length, or the checksum itself be detected at scan
/// time.
const F_LEN: u64 = 0;
const F_CAP: u64 = 8;
const F_DATA: u64 = 16;

#[inline]
fn pack(len: u64, sum: u32) -> u64 {
    ((sum as u64) << 32) | (len & 0xFFFF_FFFF)
}

#[inline]
fn unpack(word: u64) -> (u64, u32) {
    (word & 0xFFFF_FFFF, (word >> 32) as u32)
}

/// Typed handle to a persistent growable vector whose 24-byte header lives
/// at a fixed NVM offset. Rebuild after restart with [`PVec::open`].
pub struct PVec<T: Pod> {
    hdr: u64,
    _t: PhantomData<T>,
}

impl<T: Pod> Clone for PVec<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for PVec<T> {}

impl<T: Pod> PVec<T> {
    /// Initialize a new, empty vector whose header lives at `hdr_off` (the
    /// caller owns those 24 bytes inside an activated block). Allocates an
    /// initial data block of `initial_cap` elements (minimum 4).
    pub fn create(heap: &NvmHeap, hdr_off: u64, initial_cap: u64) -> Result<PVec<T>> {
        Self::create_from(heap, hdr_off, &[], initial_cap)
    }

    /// Initialize a new vector already holding `values`, in a data block of
    /// at least `min_cap` elements — for a structure nothing can reach yet:
    /// the header (its length word covering the content from the start) and
    /// the content are staged with bulk stores and write-backs, and the
    /// builder's one drain before its publish makes them durable.
    pub fn create_from(
        heap: &NvmHeap,
        hdr_off: u64,
        values: &[T],
        min_cap: u64,
    ) -> Result<PVec<T>> {
        let region = heap.region();
        let bytes = crate::pod::slice_bytes(values);
        let cap = (values.len() as u64).max(min_cap).max(4);
        let sum = util::hash::fnv1a32(bytes);
        region.write_pod(hdr_off + F_LEN, &pack(values.len() as u64, sum))?;
        region.write_pod(hdr_off + F_CAP, &cap)?;
        region.write_pod(hdr_off + F_DATA, &0u64)?;
        // Drained by the reservation's fence, before the link store.
        region.flush(hdr_off, PVEC_HEADER)?;
        let data = heap.reserve(cap * T::SIZE as u64)?;
        if !bytes.is_empty() {
            // Durable before the activation record can be.
            region.write_bytes(data, bytes)?;
            region.persist(data, bytes.len() as u64)?;
        }
        heap.activate(data, Some((hdr_off + F_DATA, data)), None)?;
        Ok(PVec {
            hdr: hdr_off,
            _t: PhantomData,
        })
    }

    /// Re-attach to an existing vector after restart.
    pub fn open(hdr_off: u64) -> PVec<T> {
        PVec {
            hdr: hdr_off,
            _t: PhantomData,
        }
    }

    /// Offset of the persistent header.
    #[inline]
    pub fn header_offset(&self) -> u64 {
        self.hdr
    }

    /// Durable element count plus the running content checksum.
    #[inline]
    fn len_sum(&self, region: &NvmRegion) -> Result<(u64, u32)> {
        Ok(unpack(region.read_pod(self.hdr + F_LEN)?))
    }

    /// Durable element count.
    #[inline]
    pub fn len(&self, region: &NvmRegion) -> Result<u64> {
        Ok(self.len_sum(region)?.0)
    }

    /// True when the vector holds no elements.
    pub fn is_empty(&self, region: &NvmRegion) -> Result<bool> {
        Ok(self.len(region)? == 0)
    }

    /// Current capacity in elements.
    #[inline]
    pub fn capacity(&self, region: &NvmRegion) -> Result<u64> {
        region.read_pod(self.hdr + F_CAP)
    }

    /// Payload offset of the data block.
    #[inline]
    pub fn data_offset(&self, region: &NvmRegion) -> Result<u64> {
        region.read_pod(self.hdr + F_DATA)
    }

    fn elem_off(&self, region: &NvmRegion, i: u64) -> Result<u64> {
        let data = self.data_offset(region)?;
        Ok(data + i * T::SIZE as u64)
    }

    /// Read element `i` (must be `< len`, the published length).
    pub fn get(&self, region: &NvmRegion, i: u64) -> Result<T> {
        let len = self.len(region)?;
        if i >= len {
            return Err(NvmError::OutOfBounds {
                offset: i,
                len: 1,
                capacity: len,
            });
        }
        region.read_pod(self.elem_off(region, i)?)
    }

    /// Read element `i` of the *staged* prefix: bounds-checked against the
    /// capacity only — the caller that staged beyond the published length
    /// owns the live prefix, as with [`crate::PSlab::get`].
    pub fn staged(&self, region: &NvmRegion, i: u64) -> Result<T> {
        let cap = self.capacity(region)?;
        if i >= cap {
            return Err(NvmError::OutOfBounds {
                offset: i,
                len: 1,
                capacity: cap,
            });
        }
        region.read_pod(self.elem_off(region, i)?)
    }

    /// Recompute the content checksum over elements `[0, len)`.
    fn recompute_sum(&self, region: &NvmRegion, len: u64) -> Result<u32> {
        if len == 0 {
            return Ok(util::hash::FNV32_OFFSET);
        }
        let data = self.data_offset(region)?;
        region.with_slice(data, len * T::SIZE as u64, |bytes| {
            util::hash::fnv1a32(bytes)
        })
    }

    /// Stage element `at` (every element below `at` is published or
    /// staged): writes it and issues its write-back, but neither drains
    /// the queue nor updates the length — both are left to a later fence
    /// plus [`PVec::publish_len`]. Lets a transaction batch several appends
    /// (across several vectors) under one fence and one publish point
    /// instead of paying a fence per element.
    // pmlint: caller-flushes
    pub fn stage(&self, heap: &NvmHeap, at: u64, value: &T) -> Result<()> {
        let region = heap.region();
        let cap = self.capacity(region)?;
        if at >= cap {
            self.grow(heap, (cap * 2).max(at + 1), at)?;
        }
        let off = self.elem_off(region, at)?;
        region.write_pod(off, value)?;
        region.flush(off, T::SIZE as u64)
    }

    /// Publish a new length after a batch of [`PVec::stage`] writes, folding
    /// the newly published elements into the running content checksum. The
    /// length word is stored and its write-back issued; the caller's next
    /// fence makes it durable (one fence for every publish word of a
    /// batch).
    ///
    /// Ordering contract: the staged elements' write-backs must have been
    /// drained (`region.fence()`) before this is called — the length word
    /// may otherwise reach the medium ahead of the elements it publishes.
    // pmlint: caller-flushes
    pub fn publish_len(&self, region: &NvmRegion, new_len: u64) -> Result<()> {
        let (len, sum) = self.len_sum(region)?;
        if new_len == len {
            return Ok(());
        }
        let sum = if new_len > len {
            let data = self.data_offset(region)?;
            region.with_slice(
                data + len * T::SIZE as u64,
                (new_len - len) * T::SIZE as u64,
                |bytes| util::hash::fnv1a32_continue(sum, bytes),
            )?
        } else {
            self.recompute_sum(region, new_len)?
        };
        region.write_pod(self.hdr + F_LEN, &pack(new_len, sum))?;
        region.flush(self.hdr + F_LEN, 8)
    }

    /// Verify the published elements against the packed content checksum.
    /// `what` names the structure in the error.
    pub fn verify(&self, region: &NvmRegion, what: &'static str) -> Result<()> {
        let (len, stored) = self.len_sum(region)?;
        let cap = self.capacity(region)?;
        if len > cap {
            return Err(NvmError::CorruptHeap {
                offset: self.hdr,
                reason: "published length exceeds capacity",
            });
        }
        let computed = self.recompute_sum(region, len)?;
        if computed != stored {
            return Err(NvmError::ChecksumMismatch {
                what,
                offset: self.hdr,
                stored: stored as u64,
                computed: computed as u64,
            });
        }
        Ok(())
    }

    /// Grow the data block to at least `new_cap` elements, carrying the
    /// first `live` (published and staged) elements over.
    fn grow(&self, heap: &NvmHeap, new_cap: u64, live: u64) -> Result<()> {
        let region = heap.region();
        let old_cap = self.capacity(region)?;
        if new_cap <= old_cap {
            return Ok(());
        }
        let old_data = self.data_offset(region)?;
        let new_data = heap.reserve(new_cap * T::SIZE as u64)?;
        if live > 0 {
            let bytes = live.min(old_cap) * T::SIZE as u64;
            let copied = region.with_slice(old_data, bytes, |src| src.to_vec())?;
            region.write_bytes(new_data, &copied)?;
            // Durable before the activation record can be: the record's own
            // fence does not order the copy ahead of it.
            region.persist(new_data, bytes)?;
        }
        // Crash-safe pointer swap + free of the old block.
        heap.activate(
            new_data,
            Some((self.hdr + F_DATA, new_data)),
            (old_data != 0).then_some(old_data),
        )?;
        // A stale (smaller) capacity is safe — it only grows again — and
        // no length beyond it can be published before the next fence.
        region.write_pod(self.hdr + F_CAP, &new_cap)?;
        region.flush(self.hdr + F_CAP, 8)
    }

    /// Bulk-read the published elements.
    pub fn to_vec(&self, region: &NvmRegion) -> Result<Vec<T>> {
        self.prefix(region, self.len(region)?)
    }

    /// Bulk-read the first `live` elements (published and staged; the
    /// caller owns the staged length).
    pub fn prefix(&self, region: &NvmRegion, live: u64) -> Result<Vec<T>> {
        if live == 0 {
            return Ok(Vec::new());
        }
        let data = self.data_offset(region)?;
        region.with_slice(data, live * T::SIZE as u64, |bytes| {
            bytes.chunks_exact(T::SIZE).map(T::from_bytes).collect()
        })
    }

    /// Run `f` over the raw bytes of the live elements (bulk scan path).
    pub fn with_bytes<R>(&self, region: &NvmRegion, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let len = self.len(region)?;
        let data = self.data_offset(region)?;
        region.with_slice(data, len * T::SIZE as u64, f)
    }
}

impl<T: Pod> std::fmt::Debug for PVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PVec<{}>@{}", std::any::type_name::<T>(), self.hdr)
    }
}

impl PVec<u8> {
    /// Stage a raw byte run at local index `at` (the staged length so far)
    /// with one range write-back; [`PVec::publish_len`] publishes it after
    /// the caller's drain. Used for string blobs: entries reference runs by
    /// their (stable) local index, so the blob may relocate on growth
    /// without invalidating references.
    // pmlint: caller-flushes
    pub fn stage_bytes(&self, heap: &NvmHeap, at: u64, bytes: &[u8]) -> Result<()> {
        let region = heap.region();
        let cap = self.capacity(region)?;
        let need = at + bytes.len() as u64;
        if need > cap {
            self.grow(heap, need.max(cap * 2), at)?;
        }
        let data = self.data_offset(region)?;
        region.write_bytes(data + at, bytes)?;
        region.flush(data + at, bytes.len() as u64)
    }

    /// Read `n` bytes starting at local index `at`, bounds-checked against
    /// the capacity: the run may be staged beyond the published length.
    pub fn read_bytes_at(&self, region: &NvmRegion, at: u64, n: u64) -> Result<Vec<u8>> {
        let cap = self.capacity(region)?;
        if at.checked_add(n).is_none_or(|end| end > cap) {
            return Err(NvmError::OutOfBounds {
                offset: at,
                len: n,
                capacity: cap,
            });
        }
        let data = self.data_offset(region)?;
        region.with_slice(data + at, n, |b| b.to_vec())
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

    fn vec_block(heap: &NvmHeap) -> u64 {
        heap.alloc(PVEC_HEADER).unwrap()
    }

    /// One element through the whole protocol: stage, drain, publish, drain.
    fn push<T: Pod>(v: &PVec<T>, h: &NvmHeap, value: &T) -> u64 {
        let at = v.len(h.region()).unwrap();
        v.stage(h, at, value).unwrap();
        h.region().fence();
        v.publish_len(h.region(), at + 1).unwrap();
        h.region().fence();
        at
    }

    #[test]
    fn push_get_roundtrip() {
        let h = heap();
        let hdr = vec_block(&h);
        let v = PVec::<u64>::create(&h, hdr, 4).unwrap();
        for i in 0..1000u64 {
            assert_eq!(push(&v, &h, &(i * 7)), i);
        }
        assert_eq!(v.len(h.region()).unwrap(), 1000);
        for i in 0..1000u64 {
            assert_eq!(v.get(h.region(), i).unwrap(), i * 7);
        }
        assert_eq!(v.to_vec(h.region()).unwrap().len(), 1000);
    }

    #[test]
    fn appends_survive_crash() {
        let h = heap();
        let hdr = vec_block(&h);
        let v = PVec::<u64>::create(&h, hdr, 4).unwrap();
        for i in 0..100u64 {
            push(&v, &h, &i);
        }
        h.region().crash(CrashPolicy::DropUnflushed);
        let (h2, _) = NvmHeap::open(h.region().clone()).unwrap();
        let v2 = PVec::<u64>::open(hdr);
        assert_eq!(
            v2.to_vec(h2.region()).unwrap(),
            (0..100).collect::<Vec<_>>()
        );
        v2.verify(h2.region(), "test vector").unwrap();
    }

    #[test]
    fn growth_preserves_contents_across_crash() {
        let h = heap();
        let hdr = vec_block(&h);
        let v = PVec::<u32>::create(&h, hdr, 4).unwrap();
        // Force many growths, each carrying staged elements over: one
        // publish covers every 100 staged elements.
        for i in 0..5000u32 {
            v.stage(&h, i as u64, &i).unwrap();
            if i % 100 == 99 {
                h.region().fence();
                v.publish_len(h.region(), i as u64 + 1).unwrap();
            }
        }
        h.region().fence();
        h.region().crash(CrashPolicy::DropUnflushed);
        let (_h2, report) = NvmHeap::open(h.region().clone()).unwrap();
        // Old data blocks were freed by the replace step; no leaked
        // Allocated-but-unreachable growth garbage.
        assert!(report.reclaimed_reserved == 0);
        let v2 = PVec::<u32>::open(hdr);
        let all = v2.to_vec(h.region()).unwrap();
        assert_eq!(all.len(), 5000);
        assert!(all.iter().enumerate().all(|(i, x)| *x == i as u32));
        v2.verify(h.region(), "test vector").unwrap();
    }

    #[test]
    fn unpublished_appends_invisible_after_crash() {
        let h = heap();
        let hdr = vec_block(&h);
        let v = PVec::<u64>::create(&h, hdr, 8).unwrap();
        push(&v, &h, &1);
        v.stage(&h, 1, &2).unwrap();
        v.stage(&h, 2, &3).unwrap();
        // Staged elements are readable by whoever staged them…
        assert_eq!(v.staged(h.region(), 2).unwrap(), 3);
        assert_eq!(v.prefix(h.region(), 3).unwrap(), vec![1, 2, 3]);
        assert!(v.get(h.region(), 1).is_err(), "not published");
        // …and gone after a crash before publish_len.
        h.region().crash(CrashPolicy::DropUnflushed);
        let v2 = PVec::<u64>::open(hdr);
        assert_eq!(v2.to_vec(h.region()).unwrap(), vec![1]);
    }

    #[test]
    fn batch_publish_makes_all_visible() {
        let h = heap();
        let hdr = vec_block(&h);
        let v = PVec::<u64>::create(&h, hdr, 8).unwrap();
        v.stage(&h, 0, &10).unwrap();
        v.stage(&h, 1, &20).unwrap();
        // One drain covers both staged write-backs, then the length word
        // publishes them and one more drain makes it durable.
        h.region().fence();
        v.publish_len(h.region(), 2).unwrap();
        h.region().fence();
        h.region().crash(CrashPolicy::DropUnflushed);
        let v2 = PVec::<u64>::open(hdr);
        assert_eq!(v2.to_vec(h.region()).unwrap(), vec![10, 20]);
    }

    #[test]
    fn create_from_holds_its_values_from_the_start() {
        let h = heap();
        let hdr = vec_block(&h);
        let v = PVec::<u64>::create_from(&h, hdr, &[3, 1, 4, 1, 5, 9, 2, 6], 4).unwrap();
        assert_eq!(v.capacity(h.region()).unwrap(), 8);
        h.region().fence();
        h.region().crash(CrashPolicy::DropUnflushed);
        let v2 = PVec::<u64>::open(hdr);
        assert_eq!(v2.to_vec(h.region()).unwrap(), vec![3, 1, 4, 1, 5, 9, 2, 6]);
        v2.verify(h.region(), "test vector").unwrap();
        push(&v2, &h, &7); // grows from the exact-size block
        assert_eq!(v2.get(h.region(), 8).unwrap(), 7);
    }

    #[test]
    fn staged_byte_runs_read_back_and_publish() {
        let h = heap();
        let hdr = vec_block(&h);
        let blob = PVec::<u8>::create(&h, hdr, 8).unwrap();
        blob.stage_bytes(&h, 0, b"hello").unwrap();
        blob.stage_bytes(&h, 5, b", staged world").unwrap(); // grows
        assert_eq!(blob.read_bytes_at(h.region(), 7, 6).unwrap(), b"staged");
        h.region().fence();
        blob.publish_len(h.region(), 19).unwrap();
        h.region().fence();
        h.region().crash(CrashPolicy::DropUnflushed);
        let blob = PVec::<u8>::open(hdr);
        assert_eq!(blob.to_vec(h.region()).unwrap(), b"hello, staged world");
        blob.verify(h.region(), "test blob").unwrap();
    }

    /// A staged slot is not claimed until its publish: staging it again —
    /// what happens to the slots a crash left unpublished — overwrites it.
    #[test]
    fn store_updates_in_place() {
        let h = heap();
        let hdr = vec_block(&h);
        let v = PVec::<u64>::create(&h, hdr, 4).unwrap();
        v.stage(&h, 0, &5).unwrap();
        v.stage(&h, 0, &9).unwrap();
        h.region().fence();
        v.publish_len(h.region(), 1).unwrap();
        h.region().fence();
        h.region().crash(CrashPolicy::DropUnflushed);
        assert_eq!(PVec::<u64>::open(hdr).get(h.region(), 0).unwrap(), 9);
    }

    #[test]
    fn out_of_bounds_get_rejected() {
        let h = heap();
        let hdr = vec_block(&h);
        let v = PVec::<u64>::create(&h, hdr, 4).unwrap();
        push(&v, &h, &1);
        assert!(v.get(h.region(), 1).is_err());
        assert!(v.staged(h.region(), 4).is_err(), "beyond the capacity");
    }
}
