//! Fixed-length typed array on NVM.

use std::marker::PhantomData;

use crate::pod::Pod;
use crate::region::NvmRegion;
use crate::Result;

/// Typed handle to a fixed-length array of [`Pod`] elements at an NVM
/// offset. Like [`crate::PVar`], the handle is plain data; it can be rebuilt
/// after restart from `(offset, len)`.
pub struct PArray<T: Pod> {
    off: u64,
    len: u64,
    _t: PhantomData<T>,
}

impl<T: Pod> Clone for PArray<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for PArray<T> {}

impl<T: Pod> PArray<T> {
    /// Create a handle to `len` elements stored contiguously at `off`.
    #[inline]
    pub fn at(off: u64, len: u64) -> Self {
        PArray {
            off,
            len,
            _t: PhantomData,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the array has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base NVM offset.
    #[inline]
    pub fn offset(&self) -> u64 {
        self.off
    }

    /// Total byte length.
    #[inline]
    pub fn byte_len(&self) -> u64 {
        self.len * T::SIZE as u64
    }

    /// Offset of element `i`.
    #[inline]
    pub fn elem_off(&self, i: u64) -> u64 {
        debug_assert!(i < self.len, "PArray index {i} out of {}", self.len);
        self.off + i * T::SIZE as u64
    }

    /// Read element `i`.
    #[inline]
    pub fn get(&self, region: &NvmRegion, i: u64) -> Result<T> {
        region.read_pod(self.elem_off(i))
    }

    /// Write element `i` and persist it.
    #[inline]
    pub fn store(&self, region: &NvmRegion, i: u64, value: &T) -> Result<()> {
        let off = self.elem_off(i);
        region.write_pod(off, value)?;
        region.persist(off, T::SIZE as u64)
    }

    /// Write element `i` and issue its write-back without draining: the
    /// caller batches several stamps and pays one fence for all of them.
    // pmlint: caller-flushes
    #[inline]
    pub fn store_unfenced(&self, region: &NvmRegion, i: u64, value: &T) -> Result<()> {
        let off = self.elem_off(i);
        region.write_pod(off, value)?;
        region.flush(off, T::SIZE as u64)
    }

    /// Bulk-read all elements into a `Vec` with a single lock acquisition.
    pub fn to_vec(&self, region: &NvmRegion) -> Result<Vec<T>> {
        if self.len == 0 {
            return Ok(Vec::new());
        }
        region.with_slice(self.off, self.byte_len(), |bytes| {
            bytes
                .chunks_exact(T::SIZE)
                .map(T::from_bytes)
                .collect::<Vec<T>>()
        })
    }

    /// Stage the whole array from a slice: one bulk store and one range
    /// flush, no fence — the shape for structures nothing can reach yet,
    /// whose builder drains once before the publish.
    // pmlint: caller-flushes
    pub fn stage_from_slice(&self, region: &NvmRegion, values: &[T]) -> Result<()> {
        assert_eq!(values.len() as u64, self.len, "length mismatch");
        region.write_bytes(self.off, crate::pod::slice_bytes(values))?;
        region.flush(self.off, self.byte_len())
    }

    /// Run `f` over the raw bytes of the array (bulk scan path).
    pub fn with_bytes<R>(&self, region: &NvmRegion, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        region.with_slice(self.off, self.byte_len(), f)
    }
}

impl<T: Pod> std::fmt::Debug for PArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PArray<{}>@{}[{}]",
            std::any::type_name::<T>(),
            self.off,
            self.len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::region::CrashPolicy;

    #[test]
    fn roundtrip_and_persist() {
        let r = NvmRegion::new(1 << 16, LatencyModel::zero());
        let a = PArray::<u32>::at(1024, 100);
        let src: Vec<u32> = (0..100).map(|i| i * 3).collect();
        a.stage_from_slice(&r, &src).unwrap();
        r.fence();
        r.crash(CrashPolicy::DropUnflushed);
        let v = a.to_vec(&r).unwrap();
        assert_eq!(v.len(), 100);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u32 * 3);
        }
    }

    #[test]
    fn copy_from_slice_matches() {
        let r = NvmRegion::new(1 << 16, LatencyModel::zero());
        let a = PArray::<u64>::at(0, 8);
        let src: Vec<u64> = (10..18).collect();
        a.stage_from_slice(&r, &src).unwrap();
        assert_eq!(a.to_vec(&r).unwrap(), src);
        assert_eq!(a.get(&r, 7).unwrap(), 17);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn index_out_of_bounds_debug_panics() {
        let r = NvmRegion::new(4096, LatencyModel::zero());
        let a = PArray::<u64>::at(0, 2);
        let _ = a.get(&r, 2);
    }
}
