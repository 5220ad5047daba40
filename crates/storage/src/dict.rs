//! A column in main-partition form — a sorted, distinct dictionary and one
//! value id per row — built by merging sorted runs of dictionary entries
//! rather than by sorting rows.
//!
//! A merge keeps the main dictionary's entries that surviving main rows
//! still use (already in order), sorts only the distinct delta entries that
//! surviving delta rows use, and folds the two in one linear walk
//! ([`merge_dicts`]). The walk deduplicates against the last entry it
//! emitted, so a value in both partitions — or twice in a damaged input —
//! gets one id. Keys compare exactly as [`Value::cmp`] does: `Int` as
//! `i64` (not as its raw dictionary word), `Double` by `total_cmp`, `Text`
//! byte-wise. The output therefore equals a full sort of the surviving
//! values: the same entries, in the same order, with the same ids.

use std::cmp::Ordering;

use crate::bitpack;
use crate::{ColumnId, DataType, Result, StorageError, Value};

/// A dictionary-encoded column: the distinct values in [`Value::cmp`]
/// order, and the value id of every row. This is what a merge writes as a
/// new main column, and the one input the bulk index builds take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictColumn {
    dtype: DataType,
    /// One word per entry, in value order: the value itself for `Int` and
    /// `Double`, an offset into `blob` for `Text`.
    words: Vec<u64>,
    /// The text entries' length-prefixed runs (`u32` LE length, then the
    /// bytes), in dictionary order; empty for fixed-width columns.
    blob: Vec<u8>,
    /// Each row's value id, in row order.
    ids: Vec<u32>,
}

impl DictColumn {
    /// Encode `values` (row order) of `column`, declared `dtype`: the
    /// same [`merge_dicts`] walk a merge runs, with every value a delta
    /// entry of its own. Fails on a value of another type.
    pub fn from_values<'a>(
        column: ColumnId,
        dtype: DataType,
        values: impl IntoIterator<Item = &'a Value>,
    ) -> Result<DictColumn> {
        let values = values.into_iter();
        let mismatch = StorageError::TypeMismatch {
            column,
            expected: dtype,
        };
        match dtype {
            DataType::Int => {
                let keys = values.map(|v| v.as_int().ok_or(mismatch.clone()));
                Self::from_keys(dtype, keys)
            }
            DataType::Double => {
                let keys = values.map(|v| v.as_double().map(TotalF64).ok_or(mismatch.clone()));
                Self::from_keys(dtype, keys)
            }
            DataType::Text => {
                let keys = values.map(|v| v.as_text().ok_or(mismatch.clone()));
                Self::from_keys(dtype, keys)
            }
        }
    }

    fn from_keys<K: DictKey>(
        dtype: DataType,
        keys: impl Iterator<Item = Result<K>>,
    ) -> Result<DictColumn> {
        let delta = keys
            .zip(0..)
            .map(|(k, row)| Ok((k?, row)))
            .collect::<Result<Vec<(K, u32)>>>()?;
        let mut ids = vec![0u32; delta.len()];
        let none = std::iter::empty::<Result<(u32, K)>>();
        let dict = merge_dicts(none, delta, &mut [], &mut ids)?;
        Ok(DictColumn::encode(dtype, dict, ids))
    }

    /// Assemble a column from its merged dictionary keys and row ids.
    fn encode<K: DictKey>(dtype: DataType, dict: Vec<K>, ids: Vec<u32>) -> DictColumn {
        let mut blob = Vec::new();
        let words = dict.into_iter().map(|k| k.encode(&mut blob)).collect();
        DictColumn {
            dtype,
            words,
            blob,
            ids,
        }
    }

    /// The column's declared type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Dictionary entry words (see the field docs).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Text entries' runs; empty for fixed-width columns.
    pub(crate) fn blob(&self) -> &[u8] {
        &self.blob
    }

    /// Each row's value id, in row order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Bit width of a packed attribute vector over this dictionary.
    pub(crate) fn width(&self) -> u32 {
        bitpack::width_for(self.words.len() as u64)
    }

    /// The row ids packed at [`DictColumn::width`].
    pub(crate) fn packed_ids(&self) -> Vec<u64> {
        let width = self.width();
        let mut words = vec![0u64; bitpack::words_for(self.ids.len() as u64, width) as usize];
        for (i, &id) in self.ids.iter().enumerate() {
            bitpack::pack_at(&mut words, width, i as u64, id as u64);
        }
        words
    }

    /// The length-prefixed blob run of text entry `id`.
    pub fn text_run(&self, id: u32) -> Result<&[u8]> {
        let at = self.words.get(id as usize).ok_or(OUT_OF_DICT)?;
        let s = text_key(&self.blob, *at)?;
        Ok(&self.blob[*at as usize..*at as usize + 4 + s.len()])
    }

    /// Decode dictionary entry `id`.
    pub fn value(&self, id: u32) -> Result<Value> {
        let word = *self.words.get(id as usize).ok_or(OUT_OF_DICT)?;
        Ok(match self.dtype {
            DataType::Int => Value::Int(word as i64),
            DataType::Double => Value::Double(f64::from_bits(word)),
            DataType::Text => Value::Text(text_key(&self.blob, word)?.to_owned()),
        })
    }
}

const OUT_OF_DICT: StorageError = StorageError::Corrupt {
    reason: "value id outside the dictionary",
};

/// A dictionary sort key whose `Ord` is [`Value::cmp`] on one type.
pub(crate) trait DictKey: Ord + Copy {
    /// The entry word for this key, appending text to `blob`.
    fn encode(self, blob: &mut Vec<u8>) -> u64;
}

impl DictKey for i64 {
    fn encode(self, _: &mut Vec<u8>) -> u64 {
        self as u64
    }
}

/// A double ordered by `total_cmp`, as [`Value::cmp`] orders them: NaN
/// equals itself, `-0.0 < +0.0`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TotalF64(pub(crate) f64);

impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for TotalF64 {}
impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl DictKey for TotalF64 {
    fn encode(self, _: &mut Vec<u8>) -> u64 {
        self.0.to_bits()
    }
}

impl DictKey for &str {
    fn encode(self, blob: &mut Vec<u8>) -> u64 {
        let at = blob.len() as u64;
        blob.extend_from_slice(&(self.len() as u32).to_le_bytes());
        blob.extend_from_slice(self.as_bytes());
        at
    }
}

/// The string of the length-prefixed run at offset `word` of `blob`.
pub(crate) fn text_key(blob: &[u8], word: u64) -> Result<&str> {
    let beyond = StorageError::Corrupt {
        reason: "dict entry beyond blob",
    };
    let at = usize::try_from(word).map_err(|_| beyond.clone())?;
    let run = at.checked_add(4).ok_or(beyond.clone())?;
    let n = blob
        .get(at..run)
        .and_then(|b| b.try_into().ok())
        .map(u32::from_le_bytes)
        .ok_or(beyond)? as usize;
    let bytes = run
        .checked_add(n)
        .and_then(|end| blob.get(run..end))
        .ok_or(StorageError::Corrupt {
            reason: "string run beyond blob",
        })?;
    std::str::from_utf8(bytes).map_err(|_| StorageError::Corrupt {
        reason: "dictionary string not utf-8",
    })
}

/// Merge two runs of dictionary entries into one sorted, distinct
/// dictionary. `main` yields `(old id, key)` in ascending key order — the
/// entries of a sorted dictionary that are still used; `delta` holds
/// `(key, old id)` in any order. Fills `main_map[old id]` and
/// `delta_map[old id]` with each entry's new id and returns the merged
/// keys. O(main + d log d) for `d` delta entries.
fn merge_dicts<K: DictKey>(
    main: impl Iterator<Item = Result<(u32, K)>>,
    mut delta: Vec<(K, u32)>,
    main_map: &mut [u32],
    delta_map: &mut [u32],
) -> Result<Vec<K>> {
    delta.sort_unstable();
    let mut out: Vec<K> = Vec::with_capacity(delta.len());
    // The new id of `k`, emitting it unless it equals the last entry.
    let mut emit = |k: K| {
        if out.last() != Some(&k) {
            out.push(k);
        }
        out.len() as u32 - 1
    };
    let mut delta = delta.into_iter().peekable();
    let mut prev: Option<K> = None;
    for entry in main {
        let (id, k) = entry?;
        if prev.is_some_and(|p| p >= k) {
            return Err(StorageError::Corrupt {
                reason: "main dictionary out of order",
            });
        }
        prev = Some(k);
        while let Some((dk, did)) = delta.next_if(|(dk, _)| *dk <= k) {
            delta_map[did as usize] = emit(dk);
        }
        main_map[id as usize] = emit(k);
    }
    for (dk, did) in delta {
        delta_map[did as usize] = emit(dk);
    }
    Ok(out)
}

/// One partition's side of a column merge: its dictionary's entry words
/// and the value ids of its surviving rows, in row order.
pub(crate) type Side<'a, Id> = (&'a [u64], &'a [Id]);

/// Fold a delta column into a main column on value ids. `main` is the
/// sorted main dictionary with its survivors' ids, `delta` the unsorted
/// delta dictionary with its survivors' ids; `main_key` and `delta_key`
/// decode an entry word of each. Only entries a survivor uses make it into
/// the result, whose ids are the main survivors' followed by the delta
/// survivors'. O(main + delta + d log d), `d` the distinct delta entries
/// used.
pub(crate) fn fold_column<K: DictKey>(
    dtype: DataType,
    (main_dict, main_ids): Side<'_, u64>,
    (delta_dict, delta_ids): Side<'_, u32>,
    main_key: impl Fn(u64) -> Result<K>,
    delta_key: impl Fn(u64) -> Result<K>,
) -> Result<DictColumn> {
    let mut main_used = vec![false; main_dict.len()];
    for &id in main_ids {
        *main_used.get_mut(id as usize).ok_or(OUT_OF_DICT)? = true;
    }
    let mut delta_used = vec![false; delta_dict.len()];
    for &id in delta_ids {
        *delta_used.get_mut(id as usize).ok_or(OUT_OF_DICT)? = true;
    }
    let main = (0..main_dict.len())
        .filter(|&id| main_used[id])
        .map(|id| Ok((id as u32, main_key(main_dict[id])?)));
    let delta = (0..delta_dict.len())
        .filter(|&id| delta_used[id])
        .map(|id| Ok((delta_key(delta_dict[id])?, id as u32)))
        .collect::<Result<Vec<_>>>()?;
    let mut main_map = vec![0u32; main_dict.len()];
    let mut delta_map = vec![0u32; delta_dict.len()];
    let dict = merge_dicts(main, delta, &mut main_map, &mut delta_map)?;
    let ids = main_ids
        .iter()
        .map(|&id| main_map[id as usize])
        .chain(delta_ids.iter().map(|&id| delta_map[id as usize]))
        .collect();
    Ok(DictColumn::encode(dtype, dict, ids))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: sort every value, deduplicate, binary-search ids.
    fn resorted(values: &[Value]) -> (Vec<Value>, Vec<u32>) {
        let mut dict = values.to_vec();
        dict.sort();
        dict.dedup();
        let ids = values
            .iter()
            .map(|v| dict.binary_search(v).unwrap() as u32)
            .collect();
        (dict, ids)
    }

    fn check(dtype: DataType, values: &[Value]) {
        let col = DictColumn::from_values(0, dtype, values).unwrap();
        let (dict, ids) = resorted(values);
        let got: Vec<Value> = (0..col.words().len() as u32)
            .map(|i| col.value(i).unwrap())
            .collect();
        assert_eq!(got.len(), dict.len());
        for (g, d) in got.iter().zip(&dict) {
            assert_eq!(g.cmp(d), Ordering::Equal, "{g:?} vs {d:?}");
            assert_eq!(
                g.as_double().map(f64::to_bits),
                d.as_double().map(f64::to_bits)
            );
        }
        assert_eq!(col.ids(), ids);
    }

    #[test]
    fn keys_order_as_value_cmp() {
        let ints = [i64::MIN, -1, 0, 1, i64::MAX, -7, 7, 0].map(Value::Int);
        check(DataType::Int, &ints);
        let doubles = [
            f64::NAN,
            -f64::NAN,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.5,
            1.5,
            f64::NAN,
            0.0,
        ]
        .map(Value::Double);
        check(DataType::Double, &doubles);
        let texts = ["b", "", "a", "ab", "é", "b", "Z"].map(Value::from);
        check(DataType::Text, &texts);
    }

    #[test]
    fn main_and_delta_fold_with_shared_values() {
        // Main keeps 10, 30, 50 (ids 0, 2, 4 of a five-entry dictionary);
        // the delta brings 30 again, 5 and 60.
        let main = [(0u32, 10i64), (2, 30), (4, 50)].into_iter().map(Ok);
        let delta = vec![(60i64, 0u32), (30, 1), (5, 2)];
        let (mut main_map, mut delta_map) = (vec![u32::MAX; 5], vec![u32::MAX; 3]);
        let dict = merge_dicts(main, delta, &mut main_map, &mut delta_map).unwrap();
        assert_eq!(dict, [5, 10, 30, 50, 60]);
        assert_eq!(main_map, [1, u32::MAX, 2, u32::MAX, 3]);
        assert_eq!(delta_map, [4, 2, 0]);
    }

    #[test]
    fn unsorted_main_is_corrupt() {
        let main = [(0u32, 3i64), (1, 2)].into_iter().map(Ok);
        let got = merge_dicts(main, Vec::new(), &mut [0; 2], &mut []);
        assert!(matches!(got, Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn type_mismatch_names_the_column() {
        let got = DictColumn::from_values(3, DataType::Int, &[Value::Int(1), Value::from("x")]);
        assert_eq!(
            got,
            Err(StorageError::TypeMismatch {
                column: 3,
                expected: DataType::Int
            })
        );
    }

    #[test]
    fn packed_ids_roundtrip_and_text_runs() {
        let values: Vec<Value> = (0..100)
            .map(|i| Value::Text(format!("v{}", i % 7)))
            .collect();
        let col = DictColumn::from_values(0, DataType::Text, &values).unwrap();
        assert_eq!(col.width(), bitpack::width_for(7));
        let packed = col.packed_ids();
        for (i, id) in col.ids().iter().enumerate() {
            assert_eq!(
                bitpack::unpack_at(&packed, col.width(), i as u64),
                *id as u64
            );
        }
        assert_eq!(col.text_run(0).unwrap(), b"\x02\0\0\0v0");
    }
}
