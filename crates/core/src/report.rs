//! Recovery reporting: per-phase wall-clock and simulated-time breakdown,
//! plus the post-recovery integrity verdict used by the crash-torture
//! harness.

use std::time::Duration;

use nvm::{CrashOutcome, LintFinding};

use crate::health::HealthState;

/// Persist traffic charged to one restart phase: how much the phase wrote
/// to NVM and how many flush/fence round trips it needed. Attributes
/// restart cost to recovery phases (all zero on the file-backed paths).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Bytes stored into the region during the phase.
    pub bytes_written: u64,
    /// Flush calls issued.
    pub flushes: u64,
    /// Dirty cache lines actually written back.
    pub lines_flushed: u64,
    /// Store fences issued.
    pub fences: u64,
}

impl PersistStats {
    /// Componentwise difference against an earlier probe.
    pub fn since(&self, earlier: &PersistStats) -> PersistStats {
        PersistStats {
            bytes_written: self.bytes_written - earlier.bytes_written,
            flushes: self.flushes - earlier.flushes,
            lines_flushed: self.lines_flushed - earlier.lines_flushed,
            fences: self.fences - earlier.fences,
        }
    }

    /// True when the phase produced no persist traffic at all.
    pub fn is_zero(&self) -> bool {
        *self == PersistStats::default()
    }
}

/// One timed restart phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Phase name (e.g. "allocator scan", "log replay").
    pub name: &'static str,
    /// Real elapsed time.
    pub wall: Duration,
    /// Simulated NVM/IO nanoseconds charged during the phase.
    pub simulated_ns: u64,
    /// Persist traffic the phase generated.
    pub persist: PersistStats,
}

/// What a restart did and how long each phase took. The `restart`
/// experiment prints the phases beside its open-to-first-query wall time.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Backend that performed the restart ("nvm" / "wal" / "volatile").
    pub mode: &'static str,
    /// Timed phases in execution order.
    pub phases: Vec<PhaseTiming>,
    /// Rows present (visible or not) after recovery, across tables.
    pub rows_recovered: u64,
    /// Log records replayed (WAL) — 0 for NVM.
    pub log_records_replayed: u64,
    /// MVCC words repaired by the undo pass (NVM) — 0 for WAL.
    pub mvcc_words_repaired: u64,
    /// Heap blocks scanned by allocator recovery (NVM).
    pub heap_blocks_scanned: u64,
    /// Indexes rebuilt (WAL/ordered) vs re-attached (NVM hash).
    pub indexes_rebuilt: u64,
    /// Indexes re-attached without rebuild.
    pub indexes_attached: u64,
    /// Last durable commit timestamp restored.
    pub last_cts: u64,
    /// Highest recovery-ladder rung climbed: 0 = plain remap, 1 = retries
    /// and/or index rebuilds repaired everything, 2 = at least one table
    /// came back through shadow-WAL replay.
    pub rung: u8,
    /// Bounded retries spent re-reading transiently poisoned lines.
    pub poison_retries: u64,
    /// Corrupt NVM structures left allocated but unreachable (old table
    /// trees and index structures replaced by rebuilds).
    pub blocks_quarantined: u64,
    /// Structures rebuilt by the ladder (tables via WAL replay, indexes via
    /// `build_from`).
    pub structures_rebuilt: u64,
    /// Persistent structures that passed media verification (checksummed
    /// extents plus timestamp-plausibility checks).
    pub media_structures_verified: u64,
    /// The scheduled-crash outcome, when the restart came through
    /// [`crate::Database::restart_scheduled`] (None for policy crashes).
    pub scheduled: Option<CrashOutcome>,
    /// Missing-flush bugs the persist-trace linter caught during this
    /// recovery: reads of bytes whose last store never reached the medium.
    /// Only populated on scheduled-crash restarts.
    pub lint_findings: Vec<LintFinding>,
    /// Health state derived from the recovered heap (a restart near the
    /// brim comes back degraded, not pretending to be healthy).
    pub health: HealthState,
    /// Heap utilization after recovery (0.0 off the NVM backend).
    pub utilization: f64,
    /// True if the previous process set the clean-shutdown marker (graceful
    /// SIGTERM path): no transaction was in flight, so the mvcc undo pass
    /// was skipped. Always false after a hard crash.
    pub clean_shutdown: bool,
    /// Recovery attempt number read from the persistent progress word as
    /// this recovery began: 1 = clean first attempt, >1 = re-entrant (an
    /// earlier attempt was itself cut short by a crash), 0 = not
    /// applicable (non-NVM backends, or no catalogue to account against).
    pub attempt: u64,
}

impl RecoveryReport {
    /// Total wall-clock restart time.
    pub fn total_wall(&self) -> Duration {
        self.phases.iter().map(|p| p.wall).sum()
    }

    /// Total simulated nanoseconds charged during the restart.
    pub fn total_simulated_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.simulated_ns).sum()
    }

    /// Render the phase table as human-readable lines.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "restart [{}]: {:?} wall, {} rows, last_cts={}, rung {}, health {} ({:.1}%)",
            self.mode,
            self.total_wall(),
            self.rows_recovered,
            self.last_cts,
            self.rung,
            self.health,
            self.utilization * 100.0
        );
        if self.poison_retries + self.blocks_quarantined + self.structures_rebuilt > 0 {
            let _ = writeln!(
                s,
                "  ladder: {} poison retries, {} structures rebuilt, {} blocks quarantined",
                self.poison_retries, self.structures_rebuilt, self.blocks_quarantined
            );
        }
        if self.attempt > 1 {
            let _ = writeln!(s, "  re-entrant: recovery attempt #{}", self.attempt);
        }
        for p in &self.phases {
            if p.persist.is_zero() {
                let _ = writeln!(
                    s,
                    "  {:<28} {:>12?}  (+{} sim-ns)",
                    p.name, p.wall, p.simulated_ns
                );
            } else {
                let _ = writeln!(
                    s,
                    "  {:<28} {:>12?}  (+{} sim-ns, {}B stored, {} flushes/{} lines, {} fences)",
                    p.name,
                    p.wall,
                    p.simulated_ns,
                    p.persist.bytes_written,
                    p.persist.flushes,
                    p.persist.lines_flushed,
                    p.persist.fences
                );
            }
        }
        for f in &self.lint_findings {
            let _ = writeln!(s, "  LINT: {f}");
        }
        s
    }
}

/// Post-recovery integrity verdict composing the torture harness's
/// structural invariants: allocator state, MVCC cleanliness at the durable
/// watermark, and index↔table agreement. Built by
/// [`crate::Database::verify_integrity`].
#[derive(Debug, Clone, Default)]
pub struct IntegrityReport {
    /// Heap blocks walked (NVM backend only).
    pub heap_blocks: u64,
    /// Blocks still stuck mid-protocol (`Reserved`/`Activating`/
    /// `Deactivating`) — allocator recovery must leave none.
    pub heap_limbo_blocks: u64,
    /// MVCC timestamp check folded across all tables.
    pub mvcc: storage::MvccCheck,
    /// Index↔table agreement folded across all persistent indexes.
    pub index: index::IndexCheck,
    /// The durable commit watermark the checks ran against.
    pub last_cts: u64,
    /// Health state at verification time (informational — does not affect
    /// [`IntegrityReport::is_clean`]; a degraded engine can be perfectly
    /// consistent).
    pub health: HealthState,
    /// Heap utilization at verification time (0.0 off the NVM backend).
    pub utilization: f64,
}

impl IntegrityReport {
    /// True when every invariant holds.
    pub fn is_clean(&self) -> bool {
        self.heap_limbo_blocks == 0 && self.mvcc.is_clean() && self.index.is_clean()
    }

    /// One-line human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "integrity@cts={} [{} {:.1}%]: {} heap blocks ({} limbo), \
             {} rows ({} pending, {} future), \
             {} index entries ({} dangling, {} stale, {} missing) => {}",
            self.last_cts,
            self.health,
            self.utilization * 100.0,
            self.heap_blocks,
            self.heap_limbo_blocks,
            self.mvcc.rows,
            self.mvcc.pending_markers,
            self.mvcc.future_timestamps,
            self.index.entries,
            self.index.dangling,
            self.index.stale_keys,
            self.index.missing_rows,
            if self.is_clean() { "CLEAN" } else { "VIOLATED" }
        )
    }
}

/// Helper to time a phase: runs `f`, records wall time plus the
/// simulated-ns and persist-traffic deltas observed through `probe`
/// around the call.
pub(crate) fn timed_phase<T, E>(
    phases: &mut Vec<PhaseTiming>,
    name: &'static str,
    probe: impl Fn() -> (u64, PersistStats),
    f: impl FnOnce() -> std::result::Result<T, E>,
) -> std::result::Result<T, E> {
    let (sim0, persist0) = probe();
    let t0 = std::time::Instant::now();
    let out = f()?;
    let (sim1, persist1) = probe();
    phases.push(PhaseTiming {
        name,
        wall: t0.elapsed(),
        simulated_ns: sim1 - sim0,
        persist: persist1.since(&persist0),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_phases() {
        let mut r = RecoveryReport {
            mode: "nvm",
            ..Default::default()
        };
        r.phases.push(PhaseTiming {
            name: "a",
            wall: Duration::from_millis(2),
            simulated_ns: 10,
            persist: PersistStats::default(),
        });
        r.phases.push(PhaseTiming {
            name: "b",
            wall: Duration::from_millis(3),
            simulated_ns: 5,
            persist: PersistStats {
                bytes_written: 64,
                flushes: 2,
                lines_flushed: 1,
                fences: 2,
            },
        });
        assert_eq!(r.total_wall(), Duration::from_millis(5));
        assert_eq!(r.total_simulated_ns(), 15);
        assert!(r.render().contains("restart [nvm]"));
    }

    #[test]
    fn timed_phase_records() {
        let mut phases = Vec::new();
        let out: Result<u32, ()> = timed_phase(
            &mut phases,
            "work",
            || (7, PersistStats::default()),
            || Ok(42),
        );
        assert_eq!(out.unwrap(), 42);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].name, "work");
        assert_eq!(phases[0].simulated_ns, 0);
        assert!(phases[0].persist.is_zero());
    }
}
