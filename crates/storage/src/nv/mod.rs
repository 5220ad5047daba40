//! NVM-resident storage structures — the Hyrise-NV table.
//!
//! All primary data lives on the persistent heap: per-column dictionaries
//! and attribute vectors, MVCC begin/end timestamp arrays, and the
//! descriptor blocks tying them together. Updates follow explicit
//! persist-then-publish ordering so that a crash at any point leaves a
//! recoverable image; the only DRAM-resident ("transient") state is the
//! delta dictionaries' probe hash maps and cached row counters, which
//! [`NvTable::open`] rebuilds — that rebuild is the *entire* data-dependent
//! part of a restart, which is why recovery time is independent of the main
//! partition's size.

mod table;
mod text;

pub use table::{MediaExtent, MergePlan, NvTable, PAIR_AUX_SLOTS, TABLE_ROOT_SIZE};
pub use text::{read_string, store_string, string_block_size};
