//! A table's index list: one hash-or-ordered enum per medium, and the
//! operations the engines run over a list of them — written once here so
//! the NVM and DRAM engines cannot drift apart.

use nvm::NvmHeap;
use storage::nv::MediaExtent;
use storage::{DictColumn, Result, RowId, TableStore, Value};

use crate::{IndexCheck, NvHashIndex, NvOrderedIndex, VolatileHashIndex, VolatileOrderedIndex};

/// Which index structure to create. The discriminant is the kind word of a
/// persistent catalogue index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum IndexKind {
    /// Hash group-key index (point lookups). On the NVM backend this is a
    /// persistent multi-version index; on the others it is a rebuilt DRAM
    /// index.
    Hash = 0,
    /// Ordered group-key index (range lookups). On the NVM backend this is
    /// a persistent crash-safe skip list (re-attached on restart); on the
    /// others a DRAM B-tree map rebuilt after recovery.
    Ordered = 1,
}

impl IndexKind {
    /// Decode a catalogue kind word (`None` = unknown kind).
    pub fn from_tag(tag: u64) -> Option<IndexKind> {
        [IndexKind::Hash, IndexKind::Ordered]
            .into_iter()
            .find(|k| *k as u64 == tag)
    }
}

/// An index probe: one key, or `lo <= key < hi` with either bound optional.
#[derive(Debug, Clone, Copy)]
pub enum Probe<'a> {
    /// Rows whose key equals the value.
    Eq(&'a Value),
    /// Rows whose key lies in the half-open range.
    Range(Option<&'a Value>, Option<&'a Value>),
}

/// One entry of a table's index list, on either medium.
pub trait TableIndex {
    /// What the catalogue knows the index by: its kind and indexed column.
    fn key(&self) -> (IndexKind, usize);
    /// Register a new row version carrying `value`.
    fn insert(&mut self, value: &Value, row: RowId) -> Result<()>;
    /// Candidate physical rows for `probe` (all versions; the caller
    /// filters visibility), or `None` when this kind cannot serve it — a
    /// hash index has no order to walk for a range.
    fn probe(&self, probe: Probe<'_>) -> Result<Option<Vec<RowId>>>;
}

/// Candidate rows for a probe of `column` through a table's index list,
/// `None` when no index serves it. A hash index on the column wins a point
/// probe, else an ordered one answers it; ranges are served by ordered
/// indexes only.
pub fn candidates<I: TableIndex>(
    list: &[I],
    column: usize,
    probe: Probe<'_>,
) -> Result<Option<Vec<RowId>>> {
    for kind in [IndexKind::Hash, IndexKind::Ordered] {
        let on_column = list.iter().find(|i| i.key() == (kind, column));
        if let Some(rows) = on_column.map(|i| i.probe(probe)).transpose()?.flatten() {
            return Ok(Some(rows));
        }
    }
    Ok(None)
}

/// Notify every index of the list of a new row version.
pub fn insert_all<I: TableIndex>(list: &mut [I], values: &[Value], row: RowId) -> Result<()> {
    for idx in list {
        let (_, column) = idx.key();
        idx.insert(&values[column], row)?;
    }
    Ok(())
}

/// A persistent index of either kind — attached after a restart, never
/// rebuilt. Inserts through [`TableIndex::insert`] are staged; the engine
/// publishes them in phases shared with its tables' (see
/// [`NvIndex::publish`]).
#[derive(Debug, Clone)]
pub enum NvIndex {
    /// Persistent multi-version hash index.
    Hash(NvHashIndex),
    /// Persistent ordered skip list.
    Ordered(NvOrderedIndex),
}

impl NvIndex {
    /// Re-attach to an existing index by descriptor offset.
    pub fn open(heap: &NvmHeap, kind: IndexKind, desc: u64) -> Result<NvIndex> {
        Ok(match kind {
            IndexKind::Hash => NvIndex::Hash(NvHashIndex::open(heap, desc)?),
            IndexKind::Ordered => NvIndex::Ordered(NvOrderedIndex::open(heap, desc)?),
        })
    }

    /// Bulk-build over every physical row of `table`'s `column`.
    pub fn build(
        heap: &NvmHeap,
        kind: IndexKind,
        table: &dyn TableStore,
        column: usize,
    ) -> Result<NvIndex> {
        Ok(match kind {
            IndexKind::Hash => {
                let nbuckets = hash_buckets(table.row_count());
                NvIndex::Hash(NvHashIndex::build_from(heap, table, column, nbuckets)?)
            }
            IndexKind::Ordered => {
                NvIndex::Ordered(NvOrderedIndex::build_from(heap, table, column)?)
            }
        })
    }

    /// Bulk-build over rows `0..` of `col`, whose index id is their
    /// position — a planned merge's column.
    pub fn build_from_column(
        heap: &NvmHeap,
        kind: IndexKind,
        column: usize,
        col: &DictColumn,
    ) -> Result<NvIndex> {
        Ok(match kind {
            IndexKind::Hash => {
                let nbuckets = hash_buckets(col.ids().len() as u64);
                NvIndex::Hash(NvHashIndex::build_from_column(heap, column, nbuckets, col)?)
            }
            IndexKind::Ordered => {
                NvIndex::Ordered(NvOrderedIndex::build_from_column(heap, column, col)?)
            }
        })
    }

    /// Descriptor offset (for cataloguing).
    pub fn desc_offset(&self) -> u64 {
        match self {
            NvIndex::Hash(i) => i.desc_offset(),
            NvIndex::Ordered(i) => i.desc_offset(),
        }
    }

    /// True while entries are staged beyond what [`NvIndex::publish`] has
    /// made reachable.
    pub fn has_staged(&self) -> bool {
        match self {
            NvIndex::Hash(i) => i.has_staged(),
            NvIndex::Ordered(i) => i.has_staged(),
        }
    }

    /// First publish phase, after the drain of everything staged: length
    /// words that cover staged content (an ordered index's text-key blob).
    /// Returns whether anything was stored; the caller then fences.
    // pmlint: caller-flushes
    pub fn publish_lens(&mut self) -> Result<bool> {
        match self {
            NvIndex::Hash(_) => Ok(false),
            NvIndex::Ordered(i) => i.publish_lens(),
        }
    }

    /// Second publish phase, once the staged entries *and the rows they
    /// name* are durable: the stores that make the entries reachable
    /// (bucket heads, level-0 links), written back for the caller's next
    /// fence. Returns whether anything was stored.
    // pmlint: caller-flushes
    pub fn publish(&mut self) -> Result<bool> {
        match self {
            NvIndex::Hash(i) => i.publish(),
            NvIndex::Ordered(i) => i.publish(),
        }
    }

    /// After the fence that followed [`NvIndex::publish`]: best-effort
    /// acceleration stores (an ordered index's upper links and count),
    /// written back for whatever fence comes next.
    // pmlint: caller-flushes
    pub fn publish_upper(&mut self) -> Result<()> {
        match self {
            NvIndex::Hash(_) => Ok(()),
            NvIndex::Ordered(i) => i.publish_upper(),
        }
    }

    /// Free every block of the index.
    pub fn destroy(self) -> Result<()> {
        match self {
            NvIndex::Hash(i) => i.destroy(),
            NvIndex::Ordered(i) => i.destroy(),
        }
    }

    /// Check the index against its base table.
    pub fn verify_against(&self, table: &dyn TableStore) -> Result<IndexCheck> {
        match self {
            NvIndex::Hash(i) => i.verify_against(table),
            NvIndex::Ordered(i) => i.verify_against(table),
        }
    }

    /// The labelled persistent extents of the index.
    pub fn media_extents(&self) -> Result<Vec<MediaExtent>> {
        match self {
            NvIndex::Hash(i) => i.media_extents(),
            NvIndex::Ordered(i) => i.media_extents(),
        }
    }
}

/// Bucket count of a bulk-built hash index over `rows` rows.
fn hash_buckets(rows: u64) -> u64 {
    (rows * 2).max(1024)
}

impl TableIndex for NvIndex {
    #[inline]
    fn key(&self) -> (IndexKind, usize) {
        match self {
            NvIndex::Hash(i) => (IndexKind::Hash, i.column()),
            NvIndex::Ordered(i) => (IndexKind::Ordered, i.column()),
        }
    }

    /// Staged: the entry is the writer's own until the engine's commit
    /// runs the publish phases.
    fn insert(&mut self, value: &Value, row: RowId) -> Result<()> {
        match self {
            NvIndex::Hash(i) => i.stage(value, row),
            NvIndex::Ordered(i) => i.stage(value, row),
        }
    }

    #[inline]
    fn probe(&self, probe: Probe<'_>) -> Result<Option<Vec<RowId>>> {
        Ok(match (self, probe) {
            (NvIndex::Hash(i), Probe::Eq(v)) => Some(i.lookup(v)?),
            (NvIndex::Hash(_), Probe::Range(..)) => None,
            (NvIndex::Ordered(i), Probe::Eq(v)) => Some(i.lookup(v)?),
            (NvIndex::Ordered(i), Probe::Range(lo, hi)) => Some(i.lookup_range(lo, hi)?),
        })
    }
}

/// A DRAM index of either kind — rebuilt from a table scan after every
/// restart and merge.
#[derive(Debug, Clone)]
pub enum VolatileIndex {
    /// DRAM hash group-key index.
    Hash(VolatileHashIndex),
    /// DRAM ordered group-key index.
    Ordered(VolatileOrderedIndex),
}

impl VolatileIndex {
    /// Build over every physical row of `table`'s `column`.
    pub fn build(kind: IndexKind, column: usize, table: &dyn TableStore) -> Result<VolatileIndex> {
        let mut idx = match kind {
            IndexKind::Hash => VolatileIndex::Hash(VolatileHashIndex::new(column)),
            IndexKind::Ordered => VolatileIndex::Ordered(VolatileOrderedIndex::new(column)),
        };
        idx.rebuild(table)?;
        Ok(idx)
    }

    /// Rebuild from a table scan (row ids shift at every merge).
    pub fn rebuild(&mut self, table: &dyn TableStore) -> Result<()> {
        match self {
            VolatileIndex::Hash(i) => i.rebuild(table),
            VolatileIndex::Ordered(i) => i.rebuild(table),
        }
    }
}

impl TableIndex for VolatileIndex {
    #[inline]
    fn key(&self) -> (IndexKind, usize) {
        match self {
            VolatileIndex::Hash(i) => (IndexKind::Hash, i.column()),
            VolatileIndex::Ordered(i) => (IndexKind::Ordered, i.column()),
        }
    }

    fn insert(&mut self, value: &Value, row: RowId) -> Result<()> {
        match self {
            VolatileIndex::Hash(i) => i.insert(value, row),
            VolatileIndex::Ordered(i) => i.insert(value, row),
        }
        Ok(())
    }

    #[inline]
    fn probe(&self, probe: Probe<'_>) -> Result<Option<Vec<RowId>>> {
        Ok(match (self, probe) {
            (VolatileIndex::Hash(i), Probe::Eq(v)) => Some(i.lookup(v).to_vec()),
            (VolatileIndex::Hash(_), Probe::Range(..)) => None,
            (VolatileIndex::Ordered(i), Probe::Eq(v)) => Some(i.lookup(v).to_vec()),
            (VolatileIndex::Ordered(i), Probe::Range(lo, hi)) => Some(i.lookup_range(lo, hi)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(kinds: &[IndexKind]) -> Vec<VolatileIndex> {
        let mut list: Vec<VolatileIndex> = kinds
            .iter()
            .map(|&k| match k {
                IndexKind::Hash => VolatileIndex::Hash(VolatileHashIndex::new(0)),
                IndexKind::Ordered => VolatileIndex::Ordered(VolatileOrderedIndex::new(0)),
            })
            .collect();
        for k in 0..4i64 {
            insert_all(&mut list, &[Value::Int(k)], k as u64).unwrap();
        }
        list
    }

    #[test]
    fn point_probe_prefers_hash_and_range_needs_ordered() {
        let (lo, hi) = (Value::Int(1), Value::Int(3));
        for kinds in [
            [IndexKind::Hash, IndexKind::Ordered],
            [IndexKind::Ordered, IndexKind::Hash],
        ] {
            let l = list(&kinds);
            assert_eq!(candidates(&l, 0, Probe::Eq(&lo)).unwrap(), Some(vec![1]));
            assert_eq!(
                candidates(&l, 0, Probe::Range(Some(&lo), Some(&hi))).unwrap(),
                Some(vec![1, 2])
            );
            assert_eq!(candidates(&l, 1, Probe::Eq(&lo)).unwrap(), None);
        }
        let hash_only = list(&[IndexKind::Hash]);
        assert_eq!(
            candidates(&hash_only, 0, Probe::Range(None, Some(&hi))).unwrap(),
            None
        );
        let ordered_only = list(&[IndexKind::Ordered]);
        assert_eq!(
            candidates(&ordered_only, 0, Probe::Eq(&hi)).unwrap(),
            Some(vec![3])
        );
    }

    /// Indexes built from a merge plan's columns equal, entry for entry,
    /// what [`NvIndex::build`] makes over the merged table, and what one
    /// insert per row makes: every kind on every column type, duplicate
    /// keys included, on a first merge and on one that folds a delta into
    /// a main.
    #[test]
    fn plan_built_indexes_equal_a_build_over_the_merged_table() {
        use nvm::{LatencyModel, NvmRegion};
        use storage::mvcc;
        use storage::nv::NvTable;
        use storage::{ColumnDef, DataType, Schema};

        let region = NvmRegion::new(1 << 23, LatencyModel::zero());
        let heap = NvmHeap::format(std::sync::Arc::new(region)).unwrap();
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("s", DataType::Text),
            ColumnDef::new("x", DataType::Double),
        ]);
        let mut t = NvTable::create(&heap, schema).unwrap();
        let mut cts = 0;
        for round in 0..2i64 {
            for i in 0..300i64 {
                let row = [
                    Value::Int(i % 37 - 18),
                    Value::Text(format!("s{}", (i + round) % 23)),
                    Value::Double((i % 11) as f64 - 5.0),
                ];
                cts += 1;
                let r = t.insert_version(&row, mvcc::pending(1)).unwrap();
                t.commit_insert(r, cts).unwrap();
            }
            for r in (0..t.row_count()).step_by(7) {
                if t.end_ts(r).unwrap() == mvcc::TS_INF {
                    cts += 1;
                    t.try_invalidate(r, mvcc::pending(1)).unwrap();
                    t.commit_invalidate(r, cts).unwrap();
                }
            }
            let plan = t.merge_plan(cts).unwrap();
            let mut built = Vec::new();
            for column in 0..3 {
                for kind in [IndexKind::Hash, IndexKind::Ordered] {
                    let col = plan.column(column).unwrap();
                    built.push(NvIndex::build_from_column(&heap, kind, column, col).unwrap());
                }
            }
            t.merge_from_plan(plan, &[]).unwrap();
            for from_plan in built {
                let (kind, column) = from_plan.key();
                let fresh = NvIndex::build(&heap, kind, &t, column).unwrap();
                assert_eq!(
                    from_plan.media_extents().unwrap().len(),
                    fresh.media_extents().unwrap().len()
                );
                // Both builds share the bulk path; one insert per row is
                // the independent reference for the order of equal keys.
                let dtype = t.schema().column(column).unwrap().dtype;
                let mut one_by_one = match kind {
                    IndexKind::Hash => {
                        NvIndex::Hash(NvHashIndex::create(&heap, column, 64).unwrap())
                    }
                    IndexKind::Ordered => {
                        NvIndex::Ordered(NvOrderedIndex::create(&heap, column, dtype).unwrap())
                    }
                };
                for row in 0..t.row_count() {
                    one_by_one
                        .insert(&t.value(row, column).unwrap(), row)
                        .unwrap();
                }
                let keys: Vec<Value> = (0..t.row_count())
                    .map(|row| t.value(row, column).unwrap())
                    .collect();
                let probes = keys.iter().map(Probe::Eq).chain([Probe::Range(None, None)]);
                for probe in probes {
                    let want = one_by_one.probe(probe).unwrap();
                    assert_eq!(from_plan.probe(probe).unwrap(), want);
                    assert_eq!(fresh.probe(probe).unwrap(), want);
                }
            }
        }
    }

    #[test]
    fn kind_tags_round_trip() {
        for k in [IndexKind::Hash, IndexKind::Ordered] {
            assert_eq!(IndexKind::from_tag(k as u64), Some(k));
        }
        assert_eq!(IndexKind::from_tag(2), None);
    }
}
