#![warn(missing_docs)]

//! Log-based durability baseline (the paper's comparison system).
//!
//! The conventional in-memory engine keeps all table structures in DRAM and
//! makes transactions durable through a **logical write-ahead log** plus
//! periodic **checkpoints**:
//!
//! * every insert/invalidate appends a redo record carrying the transaction
//!   id; a commit appends a commit record and syncs the log (group commit
//!   batches several transactions per sync);
//! * a checkpoint serializes the complete table contents (dictionaries,
//!   attribute vectors, MVCC arrays) and remembers the log position it
//!   covers;
//! * restart = load the newest checkpoint, then **replay** the log suffix —
//!   work linear in data size, which is precisely what Hyrise-NV eliminates
//!   (92.2 GB ≈ 53 s in the paper, versus < 1 s on NVM).
//!
//! Log syncs charge a configurable latency to the same simulated-time clock
//! the NVM region uses, so the two durability mechanisms are compared in
//! one cost model.

mod checkpoint;
mod record;
mod recovery;
mod writer;

pub use checkpoint::{load_checkpoint, write_checkpoint, CheckpointMeta};
pub use record::{crc32, LogRecord};
pub use recovery::{replay_log, replay_log_bounded, ReplayReport};
pub use writer::{LogReader, LogWriter, WalFaultClass, WalFaultSpec, WalStats};

use std::fmt;
use std::path::PathBuf;

/// Errors raised by the WAL subsystem.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A log record or checkpoint failed validation.
    Corrupt {
        /// What failed.
        reason: String,
        /// Where (byte offset in the log, when known).
        offset: Option<u64>,
    },
    /// Replaying a record against the table failed.
    Storage(storage::StorageError),
    /// The log device is out of space (ENOSPC / short write). After the
    /// first `Full` the writer wedges: every later append/sync fails fast
    /// until the log is truncated or reopened, because a partially written
    /// frame makes further appends unrecoverable.
    Full {
        /// Operation that hit the wall (`append`, `sync`, …).
        op: &'static str,
        /// True when the writer was already wedged by an earlier failure.
        wedged: bool,
    },
}

impl WalError {
    /// True for out-of-space failures — the class the engine's capacity
    /// machinery normalizes into its typed `CapacityExhausted` error.
    pub fn is_full(&self) -> bool {
        matches!(self, WalError::Full { .. })
    }
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "io: {e}"),
            WalError::Corrupt { reason, offset } => match offset {
                Some(o) => write!(f, "corrupt log at byte {o}: {reason}"),
                None => write!(f, "corrupt image: {reason}"),
            },
            WalError::Storage(e) => write!(f, "storage during replay: {e}"),
            WalError::Full { op, wedged } => {
                if *wedged {
                    write!(f, "log device full: {op} rejected (writer wedged)")
                } else {
                    write!(f, "log device full during {op}")
                }
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<storage::StorageError> for WalError {
    fn from(e: storage::StorageError) -> Self {
        WalError::Storage(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, WalError>;

/// File layout of a WAL directory.
#[derive(Debug, Clone)]
pub struct WalPaths {
    /// Directory holding `wal.log` and `checkpoint.bin`.
    pub dir: PathBuf,
}

impl WalPaths {
    /// Paths rooted at `dir` (created if missing).
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<WalPaths> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(WalPaths { dir })
    }

    /// Path of the log file.
    pub fn log(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    /// Path of the checkpoint file.
    pub fn checkpoint(&self) -> PathBuf {
        self.dir.join("checkpoint.bin")
    }
}

/// A unique directory under the system temp dir for one unit test, removed
/// when the value drops. Dereferences to `dir/file` (or to the directory
/// itself when made without a file name).
#[cfg(test)]
pub(crate) struct TestPath {
    dir: PathBuf,
    path: PathBuf,
}

#[cfg(test)]
impl TestPath {
    pub(crate) fn new(prefix: &str, file: Option<&str>) -> TestPath {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = file.map_or_else(|| dir.clone(), |f| dir.join(f));
        TestPath { dir, path }
    }
}

#[cfg(test)]
impl std::ops::Deref for TestPath {
    type Target = std::path::Path;
    fn deref(&self) -> &std::path::Path {
        &self.path
    }
}

#[cfg(test)]
impl AsRef<std::path::Path> for TestPath {
    fn as_ref(&self) -> &std::path::Path {
        &self.path
    }
}

#[cfg(test)]
impl Drop for TestPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
