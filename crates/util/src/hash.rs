//! FNV-1a hashing: cheap, deterministic fingerprints.
//!
//! Used for the NVM region header checksum (torn-root detection) and for
//! whole-image fingerprints in the crash scheduler's determinism checks.

/// 64-bit FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// 64-bit FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte slice.
pub fn fnv1a(data: &[u8]) -> u64 {
    fnv1a_continue(FNV_OFFSET, data)
}

/// Continue an FNV-1a hash from a prior state (for chunked input).
pub fn fnv1a_continue(mut state: u64, data: &[u8]) -> u64 {
    for &b in data {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// FNV-1a over a sequence of `u64` words (little-endian byte order).
pub fn fnv1a_words(words: &[u64]) -> u64 {
    let mut state = FNV_OFFSET;
    for w in words {
        state = fnv1a_continue(state, &w.to_le_bytes());
    }
    state
}

/// Fingerprint of a large buffer, folded a `u64` word at a time (FNV-1a's
/// xor-multiply step per word, plus a rotate so high bits feed back; the
/// tail is zero-padded). Eight times fewer steps than [`fnv1a`] — for
/// whole-image fingerprints, where only "same bytes, same value" matters.
pub fn fingerprint_words(data: &[u8]) -> u64 {
    let mut state = FNV_OFFSET;
    let mut fold = |w: u64| state = (state ^ w).wrapping_mul(FNV_PRIME).rotate_left(29);
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        fold(u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        fold(u64::from_le_bytes(last));
    }
    state ^ data.len() as u64
}

/// 32-bit FNV-1a offset basis.
pub const FNV32_OFFSET: u32 = 0x811C_9DC5;
/// 32-bit FNV-1a prime.
pub const FNV32_PRIME: u32 = 0x0100_0193;

/// Continue a 32-bit FNV-1a hash from a prior state. The 32-bit variant is
/// used where a checksum must share a single 64-bit word with the value it
/// protects (packed `(checksum << 32) | payload` publish words that stay
/// 8-byte-store atomic).
pub fn fnv1a32_continue(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state ^= b as u32;
        state = state.wrapping_mul(FNV32_PRIME);
    }
    state
}

/// 32-bit FNV-1a over a byte slice.
pub fn fnv1a32(data: &[u8]) -> u32 {
    fnv1a32_continue(FNV32_OFFSET, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_fingerprint_sees_every_byte_and_the_length() {
        let base = fingerprint_words(&[7u8; 37]);
        assert_eq!(base, fingerprint_words(&[7u8; 37]));
        for i in 0..37 {
            let mut flipped = [7u8; 37];
            flipped[i] ^= 0x80;
            assert_ne!(base, fingerprint_words(&flipped), "byte {i}");
        }
        assert_ne!(fingerprint_words(&[0u8; 8]), fingerprint_words(&[0u8; 16]));
        assert_ne!(fingerprint_words(&[0u8; 3]), fingerprint_words(&[0u8; 4]));
    }

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn word_hash_sensitive_to_every_word() {
        let a = fnv1a_words(&[1, 2, 3]);
        assert_ne!(a, fnv1a_words(&[1, 2, 4]));
        assert_ne!(a, fnv1a_words(&[0, 2, 3]));
        assert_eq!(a, fnv1a_words(&[1, 2, 3]));
    }
}
