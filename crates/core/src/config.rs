//! Engine configuration.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use nvm::LatencyModel;

/// Configuration of the log-based baseline.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory for `wal.log` / `checkpoint.bin`.
    pub dir: PathBuf,
    /// Simulated latency charged per log sync (group commit boundary).
    pub sync_latency_ns: u64,
    /// Sync the log every N commits (1 = every commit durable immediately;
    /// larger values model group commit).
    pub sync_every_n_commits: u32,
}

/// Directories [`WalConfig::temp`] handed out that no `Database` has claimed
/// yet. Ownership lives here and not in `WalConfig` because callers build
/// that struct by literal.
static UNCLAIMED_TEMP_DIRS: Mutex<BTreeSet<PathBuf>> = Mutex::new(BTreeSet::new());

/// The set, also after a panic elsewhere poisoned the lock: an insert or a
/// removal leaves it valid at every step.
fn unclaimed_temp_dirs() -> MutexGuard<'static, BTreeSet<PathBuf>> {
    UNCLAIMED_TEMP_DIRS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

impl WalConfig {
    /// A config rooted at a fresh unique directory under the system temp
    /// dir, syncing every commit with a 10 µs simulated sync. The directory
    /// is removed with the `Database` created over it.
    pub fn temp() -> WalConfig {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("hyrise-nv-wal-{}-{n}", std::process::id()));
        unclaimed_temp_dirs().insert(dir.clone());
        WalConfig {
            dir,
            sync_latency_ns: 10_000,
            sync_every_n_commits: 1,
        }
    }
}

/// Removes a [`WalConfig::temp`] directory when the `Database` it was made
/// for is dropped or shut down. A field of `Database`, not of the redo log:
/// the log is dropped and re-opened over the same directory across every
/// simulated crash. A caller-supplied directory is never claimed.
pub(crate) struct TempWalDir(Option<PathBuf>);

impl TempWalDir {
    /// Take ownership of `config`'s log directory if `temp()` made it.
    pub(crate) fn claim(config: &DurabilityConfig) -> TempWalDir {
        let wal = match config {
            DurabilityConfig::Wal(wal) => Some(wal),
            other => other.shadow_wal(),
        };
        TempWalDir(wal.and_then(|wal| unclaimed_temp_dirs().take(&wal.dir)))
    }
}

impl Drop for TempWalDir {
    fn drop(&mut self) {
        if let Some(dir) = &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Durability backend selection.
#[derive(Debug, Clone)]
pub enum DurabilityConfig {
    /// Hyrise-NV: all primary data on simulated NVM.
    Nvm {
        /// NVM region capacity in bytes.
        capacity: u64,
        /// Latency model charged by persistence primitives.
        latency: LatencyModel,
    },
    /// Hyrise-NV plus a shadow write-ahead log: primary data on simulated
    /// NVM exactly as [`DurabilityConfig::Nvm`], with every transaction also
    /// logged to a file-backed WAL that is synced *before* the NVM commit
    /// publish. The shadow log is never read on the fast restart path; it
    /// exists solely as recovery rung 2 — when a table's NVM image fails
    /// media verification, the engine rebuilds that table by bounded log
    /// replay instead of losing it.
    NvmWithWal {
        /// NVM region capacity in bytes.
        capacity: u64,
        /// Latency model charged by persistence primitives.
        latency: LatencyModel,
        /// Shadow-log location and sync cost (charged to the same simulated
        /// clock as the NVM primitives).
        wal: WalConfig,
    },
    /// Hyrise-NV on a real file: all primary data in a `MAP_SHARED` mmap
    /// of `path`, the engine's first durability backend whose bytes
    /// survive actual process death. Fences become `msync(MS_SYNC)` over
    /// the flushed lines. With `wal: Some(..)`, a shadow write-ahead log
    /// rides along exactly as in [`DurabilityConfig::NvmWithWal`],
    /// providing recovery rung 2 for media damage in the file.
    NvmFile {
        /// Path of the backing file (created and grown on first open).
        path: PathBuf,
        /// Region capacity in bytes.
        capacity: u64,
        /// Latency model charged by persistence primitives.
        latency: LatencyModel,
        /// Optional shadow log (rung-2 media recovery).
        wal: Option<WalConfig>,
    },
    /// Log-based baseline: DRAM tables + WAL + checkpoints.
    Wal(WalConfig),
    /// No durability (upper-bound throughput reference).
    Volatile,
}

impl DurabilityConfig {
    /// 256 MiB NVM region with PCM-flavoured latencies.
    pub fn nvm_default() -> DurabilityConfig {
        DurabilityConfig::Nvm {
            capacity: 256 << 20,
            latency: LatencyModel::pcm(),
        }
    }

    /// NVM region with explicit capacity and latency.
    pub fn nvm(capacity: u64, latency: LatencyModel) -> DurabilityConfig {
        DurabilityConfig::Nvm { capacity, latency }
    }

    /// WAL baseline in a fresh temp directory.
    pub fn wal_temp() -> DurabilityConfig {
        DurabilityConfig::Wal(WalConfig::temp())
    }

    /// NVM region plus a shadow WAL in a fresh temp directory.
    pub fn nvm_with_wal(capacity: u64, latency: LatencyModel) -> DurabilityConfig {
        DurabilityConfig::NvmWithWal {
            capacity,
            latency,
            wal: WalConfig::temp(),
        }
    }

    /// File-backed NVM region at `path` (no shadow WAL).
    pub fn nvm_file(
        path: impl Into<PathBuf>,
        capacity: u64,
        latency: LatencyModel,
    ) -> DurabilityConfig {
        DurabilityConfig::NvmFile {
            path: path.into(),
            capacity,
            latency,
            wal: None,
        }
    }

    /// File-backed NVM region at `path` plus a shadow WAL in a fresh temp
    /// directory.
    pub fn nvm_file_with_wal(
        path: impl Into<PathBuf>,
        capacity: u64,
        latency: LatencyModel,
    ) -> DurabilityConfig {
        DurabilityConfig::NvmFile {
            path: path.into(),
            capacity,
            latency,
            wal: Some(WalConfig::temp()),
        }
    }

    /// The shadow-log configuration, on the NVM modes that have one.
    pub(crate) fn shadow_wal(&self) -> Option<&WalConfig> {
        match self {
            DurabilityConfig::NvmWithWal { wal, .. } => Some(wal),
            DurabilityConfig::NvmFile { wal, .. } => wal.as_ref(),
            _ => None,
        }
    }

    /// Short name used in reports.
    pub fn mode_name(&self) -> &'static str {
        match self {
            DurabilityConfig::Nvm { .. } => "nvm",
            DurabilityConfig::NvmWithWal { .. } => "nvm+wal",
            DurabilityConfig::NvmFile { wal: None, .. } => "nvm-file",
            DurabilityConfig::NvmFile { wal: Some(_), .. } => "nvm-file+wal",
            DurabilityConfig::Wal(_) => "wal",
            DurabilityConfig::Volatile => "volatile",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names() {
        assert_eq!(DurabilityConfig::nvm_default().mode_name(), "nvm");
        assert_eq!(DurabilityConfig::wal_temp().mode_name(), "wal");
        assert_eq!(DurabilityConfig::Volatile.mode_name(), "volatile");
    }

    #[test]
    fn temp_dirs_unique() {
        assert_ne!(WalConfig::temp().dir, WalConfig::temp().dir);
    }
}
