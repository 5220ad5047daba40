#![warn(missing_docs)]

//! Index structures for the two engine variants.
//!
//! * [`VolatileHashIndex`] / [`VolatileOrderedIndex`] — DRAM group-key
//!   indexes used by the log-based baseline. They are *not* durable: after a
//!   restart the baseline must rebuild them by scanning the recovered table,
//!   which is part of its size-dependent recovery cost (the `restart`
//!   experiment's `wal` rows).
//! * [`NvHashIndex`] — the Hyrise-NV multi-version hash index. Buckets and
//!   entry chains live on NVM; entries are staged and then published with
//!   one 8-byte store per bucket, so after a restart the index is simply
//!   *mapped*, never rebuilt. Entries are versioned implicitly: the index
//!   stores one entry per physical row version; readers filter through the
//!   table's MVCC metadata and verify the key against the base table (the
//!   index stores 64-bit key hashes, not keys).
//!
//! * [`NvIndex`] / [`VolatileIndex`] — one hash-or-ordered enum per medium,
//!   so an engine keeps a single index list per table in catalogue order;
//!   [`candidates`] holds the rule for which index of a list serves a probe.
//!
//! Indexes return *candidate* physical rows; callers apply MVCC visibility
//! and (for the hash indexes) equality verification.

mod hash;
mod list;
mod nvhash;
mod nvordered;
mod ordered;

pub use hash::VolatileHashIndex;
pub use list::{candidates, insert_all, IndexKind, NvIndex, Probe, TableIndex, VolatileIndex};
pub use nvhash::{NvHashIndex, NVHASH_DESC_SIZE};
pub use nvordered::{NvOrderedIndex, MAX_HEIGHT, NVORDERED_DESC_SIZE, ORD_POOL_ENTRIES};
pub use ordered::VolatileOrderedIndex;

use std::hash::{Hash, Hasher};

use storage::Value;

/// Result of checking a persistent index against its base table (the
/// index↔table agreement invariant of the crash-torture harness). A clean
/// index has zeroes in every counter except `entries`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCheck {
    /// Entries walked in the index.
    pub entries: u64,
    /// Entries pointing at row ids beyond the table's row count.
    pub dangling: u64,
    /// Entries whose stored key (hash) disagrees with the row's current
    /// column value.
    pub stale_keys: u64,
    /// Physical table rows the index cannot find by their key.
    pub missing_rows: u64,
}

impl IndexCheck {
    /// True when the index and table agree.
    pub fn is_clean(&self) -> bool {
        self.dangling == 0 && self.stale_keys == 0 && self.missing_rows == 0
    }

    /// Fold another index's check into this one.
    pub fn absorb(&mut self, other: &IndexCheck) {
        self.entries += other.entries;
        self.dangling += other.dangling;
        self.stale_keys += other.stale_keys;
        self.missing_rows += other.missing_rows;
    }
}

/// The 64-bit key hash shared by the volatile and persistent hash indexes
/// (stable across runs of the same build; FNV-1a over the value's tagged
/// bytes).
pub fn key_hash(v: &Value) -> u64 {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100_0000_01B3);
            }
        }
    }
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    v.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_check_absorb_and_clean() {
        let mut a = IndexCheck {
            entries: 3,
            ..Default::default()
        };
        assert!(a.is_clean());
        a.absorb(&IndexCheck {
            entries: 2,
            dangling: 1,
            stale_keys: 0,
            missing_rows: 0,
        });
        assert_eq!(a.entries, 5);
        assert!(!a.is_clean());
    }

    #[test]
    fn key_hash_stable_and_discriminating() {
        assert_eq!(key_hash(&Value::Int(5)), key_hash(&Value::Int(5)));
        assert_ne!(key_hash(&Value::Int(5)), key_hash(&Value::Int(6)));
        assert_ne!(key_hash(&Value::Int(5)), key_hash(&Value::Double(5.0)));
        assert_eq!(
            key_hash(&Value::Text("ab".into())),
            key_hash(&Value::Text("ab".into()))
        );
    }
}
