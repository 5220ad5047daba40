//! Counters for persistence primitives.
//!
//! The benchmark's `fences_per_write.nvm` and `nvm.flushes_per_write`
//! metrics report flushes and fences per operation; these counters are the
//! instrumentation behind them.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic counters shared by all users of one [`crate::NvmRegion`].
#[derive(Debug, Default)]
pub struct NvmStats {
    /// Number of `flush` calls.
    pub flush_calls: AtomicU64,
    /// Number of cache lines actually copied to the medium (dirty lines
    /// covered by flush calls; clean lines are skipped and not counted).
    pub lines_flushed: AtomicU64,
    /// Number of `fence` calls.
    pub fences: AtomicU64,
    /// Bytes written into the volatile image.
    pub bytes_written: AtomicU64,
    /// Bytes read out of the region.
    pub bytes_read: AtomicU64,
    /// Number of crash events injected.
    pub crashes: AtomicU64,
    /// Crashes materialized by the persist-trace scheduler (a subset of
    /// `crashes`).
    pub scheduled_crashes: AtomicU64,
    /// Media faults injected.
    pub faults_injected: AtomicU64,
}

impl NvmStats {
    /// Take a plain-value snapshot of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            flush_calls: self.flush_calls.load(Ordering::Relaxed),
            lines_flushed: self.lines_flushed.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            scheduled_crashes: self.scheduled_crashes.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
        }
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        self.flush_calls.store(0, Ordering::Relaxed);
        self.lines_flushed.store(0, Ordering::Relaxed);
        self.fences.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.crashes.store(0, Ordering::Relaxed);
        self.scheduled_crashes.store(0, Ordering::Relaxed);
        self.faults_injected.store(0, Ordering::Relaxed);
    }
}

/// Plain-value copy of [`NvmStats`] at one point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// See [`NvmStats::flush_calls`].
    pub flush_calls: u64,
    /// See [`NvmStats::lines_flushed`].
    pub lines_flushed: u64,
    /// See [`NvmStats::fences`].
    pub fences: u64,
    /// See [`NvmStats::bytes_written`].
    pub bytes_written: u64,
    /// See [`NvmStats::bytes_read`].
    pub bytes_read: u64,
    /// See [`NvmStats::crashes`].
    pub crashes: u64,
    /// See [`NvmStats::scheduled_crashes`].
    pub scheduled_crashes: u64,
    /// See [`NvmStats::faults_injected`].
    pub faults_injected: u64,
}

impl StatsSnapshot {
    /// Component-wise difference `self - earlier`, for measuring an interval.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            flush_calls: self.flush_calls - earlier.flush_calls,
            lines_flushed: self.lines_flushed - earlier.lines_flushed,
            fences: self.fences - earlier.fences,
            bytes_written: self.bytes_written - earlier.bytes_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
            crashes: self.crashes - earlier.crashes,
            scheduled_crashes: self.scheduled_crashes - earlier.scheduled_crashes,
            faults_injected: self.faults_injected - earlier.faults_injected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_diff() {
        let s = NvmStats::default();
        s.flush_calls.fetch_add(3, Ordering::Relaxed);
        s.fences.fetch_add(2, Ordering::Relaxed);
        let a = s.snapshot();
        s.flush_calls.fetch_add(4, Ordering::Relaxed);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.flush_calls, 4);
        assert_eq!(d.fences, 0);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }
}
