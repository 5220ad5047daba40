//! Deterministic fingerprints: the word-parallel media seal and FNV-1a.
//!
//! [`seal`] / [`seal_continue`] / [`seal_words`] checksum everything a merge
//! writes to NVM (main columns, index entries and nodes) and fingerprint the
//! simulated medium in the crash scheduler's determinism checks. Each step
//! folds a whole `u64` word, on four independent lanes, so a seal costs a
//! fraction of a byte-serial hash over the same bytes.
//!
//! [`fnv1a`] remains for the allocator's superblock and block headers (their
//! layout-version word must stay readable under the header seal it was
//! written with) and for pinned test fingerprints; [`fnv1a32`] for
//! checksums packed into one 64-bit publish word.

/// 64-bit FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// 64-bit FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte slice.
pub fn fnv1a(data: &[u8]) -> u64 {
    data.iter()
        .fold(FNV_OFFSET, |s, &b| (s ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// One seal step: xor the word in, multiply by the (odd) FNV prime, rotate
/// so high bits feed back. For a fixed word it is a bijection of the
/// state, and for a fixed state a bijection of the word — so a changed word
/// changes the state, and no later step can change it back.
#[inline(always)]
fn step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(FNV_PRIME).rotate_left(29)
}

/// Bytes folded per round: one word on each of the four lanes.
const BLOCK: usize = 32;

/// Distinct lane starting offsets, so equal words on different lanes do
/// not fold to equal lane states.
const LANE_SALT: [u64; 4] = [
    0,
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
];

#[inline(always)]
fn fold_block(lanes: &mut [u64; 4], block: &[u8]) {
    for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        *lane = step(
            *lane,
            u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")),
        );
    }
}

/// Continue a seal from a prior state over `data` (for input that is read
/// in several pieces; writer and reader must split it the same way).
///
/// `data` is read as little-endian words, its last partial block
/// zero-padded to a whole one; word `i` folds into lane `i % 4`. The lanes
/// then fold into one state in order, and the length last. Every fold is a
/// [`step`], so a change confined to one word changes exactly one lane and
/// therefore the seal.
pub fn seal_continue(state: u64, data: &[u8]) -> u64 {
    let mut lanes = LANE_SALT.map(|salt| state ^ salt);
    let mut blocks = data.chunks_exact(BLOCK);
    for block in &mut blocks {
        fold_block(&mut lanes, block);
    }
    let rest = blocks.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; BLOCK];
        last[..rest.len()].copy_from_slice(rest);
        fold_block(&mut lanes, &last);
    }
    let folded = lanes.into_iter().fold(state, step);
    step(folded, data.len() as u64)
}

/// Seal of a byte slice: [`seal_continue`] from the FNV offset basis.
pub fn seal(data: &[u8]) -> u64 {
    seal_continue(FNV_OFFSET, data)
}

/// Seal of a fixed-length run of words, one [`step`] each — for entries
/// whose word count is part of their layout.
pub fn seal_words(words: &[u64]) -> u64 {
    words.iter().fold(FNV_OFFSET, |s, &w| step(s, w))
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

    /// Longest input the bit-flip sweep seals: two full lane blocks plus
    /// a zero-padded last block, so every partial-block length is swept.
    /// Miri runs a shorter sweep that still covers a full and a partial
    /// block.
    #[cfg(not(miri))]
    const MAX_LEN: usize = 70;
    #[cfg(miri)]
    const MAX_LEN: usize = 41;

    #[test]
    fn word_fingerprint_sees_every_byte_and_the_length() {
        for len in 0..=MAX_LEN {
            let data: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37) ^ 0x5A).collect();
            let base = seal(&data);
            assert_eq!(base, seal(&data), "len {len}");
            let bits: &[u8] = if cfg!(miri) {
                &[0, 7]
            } else {
                &[0, 1, 2, 3, 4, 5, 6, 7]
            };
            for i in 0..len {
                for &bit in bits {
                    let mut flipped = data.clone();
                    flipped[i] ^= 1 << bit;
                    assert_ne!(base, seal(&flipped), "len {len} byte {i} bit {bit}");
                }
            }
        }
        assert_ne!(seal(&[0u8; 8]), seal(&[0u8; 16]));
        assert_ne!(seal(&[0u8; 3]), seal(&[0u8; 4]));
        assert_ne!(seal(&[]), seal(&[0u8]));
        let data = [9u8; 45];
        assert_ne!(seal_continue(1, &data), seal_continue(2, &data));
        assert_ne!(seal_continue(FNV_OFFSET, &data), seal_continue(0, &data));
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
        let a = seal_words(&[1, 2, 3]);
        assert_eq!(a, seal_words(&[1, 2, 3]));
        for i in 0..3 {
            for bit in 0..64 {
                let mut words = [1u64, 2, 3];
                words[i] ^= 1 << bit;
                assert_ne!(a, seal_words(&words), "word {i} bit {bit}");
            }
        }
        assert_ne!(a, seal_words(&[1, 2, 3, 0]));
    }
}
