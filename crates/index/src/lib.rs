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

use storage::{DataType, DictColumn, Result, StorageError, Value};

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

/// FNV-1a as a [`Hasher`], so a [`Value`] hashes through its `Hash` impl.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(util::hash::FNV_PRIME);
        }
    }
}

/// The 64-bit key hash [`NvHashIndex`] stores and probes by: FNV-1a over
/// the value's tagged bytes (its `Hash` impl), stable across runs of the
/// same build. The volatile indexes key a `HashMap` by the [`Value`]
/// itself and do not use it.
pub fn key_hash(v: &Value) -> u64 {
    let mut h = Fnv(util::hash::FNV_OFFSET);
    v.hash(&mut h);
    h.finish()
}

/// [`key_hash`] of dictionary entry `id` of `col`, hashed straight from the
/// entry's word or text bytes instead of a decoded [`Value`]. Must stay
/// bit-identical to `key_hash(&col.value(id)?)`: the bulk build hashes
/// with it and every probe with [`key_hash`].
pub(crate) fn entry_key_hash(col: &DictColumn, id: u32) -> Result<u64> {
    let mut h = Fnv(util::hash::FNV_OFFSET);
    // The tags and byte order of `Value`'s `Hash` impl: a tag byte, then
    // the native-endian word, or the text bytes closed by `str`'s 0xff.
    match col.dtype() {
        DataType::Int | DataType::Double => {
            let word = col.words().get(id as usize).ok_or(StorageError::Corrupt {
                reason: "value id outside the dictionary",
            })?;
            h.write_u8(if col.dtype() == DataType::Int { 0 } else { 1 });
            h.write_u64(*word);
        }
        DataType::Text => {
            h.write_u8(2);
            h.write(&col.text_run(id)?[4..]);
            h.write_u8(0xff);
        }
    }
    Ok(h.finish())
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
    fn entry_key_hash_matches_key_hash() {
        let columns = [
            (
                DataType::Int,
                [i64::MIN, -1, 0, i64::MAX].map(Value::Int).to_vec(),
            ),
            (
                DataType::Double,
                [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5]
                    .map(Value::Double)
                    .to_vec(),
            ),
            (
                DataType::Text,
                [
                    "",
                    "a",
                    "grüße, 世界 🚀",
                    "0123456789abcdef0123456789abcdef",
                ]
                .map(|s| Value::Text(s.into()))
                .to_vec(),
            ),
        ];
        for (dtype, values) in columns {
            let col = DictColumn::from_values(0, dtype, &values).unwrap();
            assert_eq!(
                col.words().len(),
                values.len(),
                "{dtype:?}: every value distinct"
            );
            for id in 0..col.words().len() as u32 {
                let value = col.value(id).unwrap();
                assert_eq!(
                    entry_key_hash(&col, id).unwrap(),
                    key_hash(&value),
                    "{value:?}"
                );
            }
            assert!(entry_key_hash(&col, values.len() as u32).is_err());
        }
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
