//! Plain-old-data marker for values stored directly on NVM.

/// Marker for types that can be stored on NVM byte-for-byte.
///
/// # Safety
///
/// Implementors must guarantee all of the following:
///
/// * the type has no padding bytes (every byte of its representation is
///   initialized), so taking its raw bytes is defined behaviour;
/// * every bit pattern of `size_of::<Self>()` bytes is a valid value (no
///   `bool`, no niche-carrying enums, no references) — after a crash, stale
///   or zeroed bytes may be reinterpreted as `Self`;
/// * the representation is stable across runs of the same build
///   (`#[repr(C)]` or a primitive).
pub unsafe trait Pod: Copy + 'static {
    /// Size of the serialized value (always `size_of::<Self>()`).
    const SIZE: usize = std::mem::size_of::<Self>();

    /// View the value as raw bytes.
    fn as_bytes(&self) -> &[u8] {
        // SAFETY: `Pod` guarantees no padding, so all bytes are initialized.
        unsafe { std::slice::from_raw_parts(self as *const Self as *const u8, Self::SIZE) }
    }

    /// Reconstruct a value from raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != Self::SIZE`.
    fn from_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), Self::SIZE, "Pod::from_bytes length mismatch");
        // SAFETY: `Pod` guarantees every bit pattern is valid, and
        // `read_unaligned` handles arbitrary alignment of the source.
        unsafe { std::ptr::read_unaligned(bytes.as_ptr() as *const Self) }
    }
}

/// View a slice of pods as its raw bytes — what one bulk store of the whole
/// slice writes.
pub fn slice_bytes<T: Pod>(values: &[T]) -> &[u8] {
    // SAFETY: `Pod` guarantees no padding inside an element and a slice has
    // none between elements, so all `size_of_val(values)` bytes are
    // initialized and live as long as the borrow.
    unsafe { std::slice::from_raw_parts(values.as_ptr() as *const u8, size_of_val(values)) }
}

macro_rules! impl_pod_prim {
    ($($t:ty),* $(,)?) => {
        $(
            // SAFETY: primitive integers/floats have no padding and accept
            // every bit pattern.
            unsafe impl Pod for $t {}
        )*
    };
}

impl_pod_prim!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

// SAFETY: arrays of pods are pods (no padding between elements).
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let x: u64 = 0xDEAD_BEEF_CAFE_F00D;
        assert_eq!(u64::from_bytes(x.as_bytes()), x);
        let y: i32 = -12345;
        assert_eq!(i32::from_bytes(y.as_bytes()), y);
        let z: f64 = -0.5;
        assert_eq!(f64::from_bytes(z.as_bytes()), z);
    }

    #[test]
    fn slice_bytes_concatenates_elements() {
        let v: [u32; 3] = [1, 2, 3];
        let bytes = slice_bytes(&v);
        assert_eq!(bytes.len(), 12);
        assert_eq!(u32::from_bytes(&bytes[4..8]), 2);
        assert!(slice_bytes::<u64>(&[]).is_empty());
    }

    #[test]
    fn roundtrip_array() {
        let a: [u32; 4] = [1, 2, 3, 4];
        assert_eq!(<[u32; 4]>::from_bytes(a.as_bytes()), a);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_bytes_wrong_len_panics() {
        let _ = u64::from_bytes(&[0u8; 4]);
    }
}
