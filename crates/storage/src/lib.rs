#![warn(missing_docs)]

//! Columnar main/delta storage engine with dictionary encoding and MVCC,
//! in two variants sharing one semantics:
//!
//! * [`VTable`] — a DRAM-resident table, the substrate of the log-based
//!   baseline (durability comes from the `wal` crate).
//! * [`nv::NvTable`] — the Hyrise-NV table: all primary data (dictionaries,
//!   attribute vectors, MVCC timestamp arrays) lives on simulated NVM and is
//!   updated with explicit flush/fence ordering, so a restart only re-opens
//!   the region.
//!
//! Both implement [`TableStore`], which is what the transaction manager and
//! the engine program against.
//!
//! ## Architecture (after Hyrise)
//!
//! A table has a read-optimized **main** partition — per-column *sorted*
//! dictionary plus a bit-packed attribute vector of value-ids — and a
//! write-optimized **delta** partition — per-column *unsorted* append-only
//! dictionary with a transient hash probe map, plus a plain `u32` value-id
//! vector. Inserts/updates/deletes go to the delta; a **merge** folds the
//! delta into a fresh main. Row versioning is MVCC: each row carries a
//! begin and an end commit timestamp; see [`mvcc`].

pub mod bitpack;
mod dict;
mod error;
pub mod mvcc;
pub mod nv;
mod schema;
pub mod table_ops;
mod value;
mod vtable;

pub use dict::DictColumn;
pub use error::{Result, StorageError};
pub use schema::{ColumnDef, Schema};
pub use table_ops::{MergeStats, MvccCheck, ScanResult, TableStore};
pub use value::{DataType, Value};
pub use vtable::{VDelta, VMain, VTable};

/// Row identifier: global row index within one table — main rows first
/// (`0..main_rows`), then delta rows. Row ids are re-assigned by a merge.
pub type RowId = u64;

/// Column index within a table schema.
pub type ColumnId = usize;
