//! Deterministic crash scheduling over a persist trace.
//!
//! A [`CrashPoint`] names *where* in a workload's persistence stream the
//! power fails; [`CrashSchedule`] enumerates or samples points across a
//! run. Points are interpreted by the recording region (see
//! [`crate::NvmRegion::arm_crash`]): the workload executes normally until
//! the point trips, after which the medium silently stops accepting
//! write-backs ("blackout") while the doomed execution runs to
//! completion; `finalize_scheduled_crash` then materializes exactly the
//! image a power failure at that point would have left.
//!
//! Determinism: the same workload, crash point, and survival seed always
//! produce a byte-identical surviving image (verifiable through
//! [`crate::NvmRegion::persistent_hash`]), so every failure shrinks to a
//! `(seed, fence)` pair that replays exactly.

/// Which flushed-but-unfenced lines survive a mid-epoch crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MidEpochSurvival {
    /// No in-flight line reaches the medium (power cut before any
    /// write-back completed).
    None,
    /// Every in-flight line reaches the medium (equivalent to crashing
    /// just after the closing fence, minus the fence's ordering effect).
    All,
    /// Each in-flight line independently survives with probability `p`;
    /// the seed makes the subset reproducible.
    Random {
        /// Per-line survival probability in `[0, 1]`.
        p: f64,
        /// RNG seed.
        seed: u64,
    },
}

/// A deterministic crash location in a traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashPoint {
    /// Crash immediately after the `fence`-th fence (1-based) completes:
    /// everything fenced so far is durable, nothing after is.
    AtFence {
        /// 1-based fence number.
        fence: u64,
    },
    /// Crash in the middle of `epoch` (the window after the `epoch`-th
    /// fence): all earlier epochs are durable, and the lines flushed
    /// within the epoch survive per `survival`. Stores never flushed in
    /// the epoch are always lost.
    MidEpoch {
        /// 0-based epoch index.
        epoch: u64,
        /// Policy for the epoch's in-flight lines.
        survival: MidEpochSurvival,
    },
}

impl CrashPoint {
    /// The fence number at which this point trips.
    pub fn trip_fence(&self) -> u64 {
        match self {
            CrashPoint::AtFence { fence } => *fence,
            CrashPoint::MidEpoch { epoch, .. } => epoch + 1,
        }
    }
}

/// Everything known about a materialized scheduled crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashOutcome {
    /// The armed crash point (None if the run was finalized without one).
    pub point: Option<CrashPoint>,
    /// Fence number at which the point tripped; `None` means the workload
    /// finished before reaching it, and the crash happened at run end.
    pub tripped_at_fence: Option<u64>,
    /// Total fences the (doomed) execution issued.
    pub fences_seen: u64,
    /// Total stores recorded before the trip.
    pub stores_seen: u64,
    /// Cache lines whose latest store never reached the medium.
    pub lost_lines: u64,
    /// Fingerprint of the surviving persistent image.
    pub image_hash: u64,
}

/// Enumerate / sample crash points across a traced workload run.
///
/// Use a reference run (trace without arming) to learn the total fence
/// count, then schedule against it.
#[derive(Debug, Clone, Copy)]
pub struct CrashSchedule;

impl CrashSchedule {
    /// Every fence boundary: `AtFence(1) ..= AtFence(total_fences)`.
    pub fn enumerate_fences(total_fences: u64) -> impl Iterator<Item = CrashPoint> {
        (1..=total_fences).map(|fence| CrashPoint::AtFence { fence })
    }

    /// Every epoch with the given survival policy.
    pub fn enumerate_epochs(
        total_fences: u64,
        survival: MidEpochSurvival,
    ) -> impl Iterator<Item = CrashPoint> {
        (0..total_fences).map(move |epoch| CrashPoint::MidEpoch { epoch, survival })
    }

    /// Sample `count` deterministic crash points across a run with
    /// `total_fences` fences: a mix of exact fence boundaries and
    /// mid-epoch crashes with none/random survival. The same
    /// `(total_fences, count, seed)` always yields the same schedule.
    pub fn sample(total_fences: u64, count: usize, seed: u64) -> Vec<CrashPoint> {
        use util::rng::{Rng, SmallRng};
        let total = total_fences.max(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let fence = rng.gen_range_u64(1, total + 1);
                match rng.gen_range_u64(0, 4) {
                    0 => CrashPoint::AtFence { fence },
                    1 => CrashPoint::MidEpoch {
                        epoch: fence - 1,
                        survival: MidEpochSurvival::None,
                    },
                    2 => CrashPoint::MidEpoch {
                        epoch: fence - 1,
                        survival: MidEpochSurvival::All,
                    },
                    _ => CrashPoint::MidEpoch {
                        epoch: fence - 1,
                        survival: MidEpochSurvival::Random {
                            p: 0.1 + 0.8 * rng.gen_f64(),
                            seed: rng.next_u64(),
                        },
                    },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerate_covers_every_fence() {
        let points: Vec<_> = CrashSchedule::enumerate_fences(5).collect();
        assert_eq!(points.len(), 5);
        assert_eq!(points[0], CrashPoint::AtFence { fence: 1 });
        assert_eq!(points[4], CrashPoint::AtFence { fence: 5 });
        assert_eq!(CrashSchedule::enumerate_fences(0).count(), 0);
    }

    #[test]
    fn sample_is_deterministic_and_in_range() {
        let a = CrashSchedule::sample(37, 100, 7);
        let b = CrashSchedule::sample(37, 100, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        for p in &a {
            let f = p.trip_fence();
            assert!((1..=37).contains(&f), "trip fence {f} out of range");
        }
        let c = CrashSchedule::sample(37, 100, 8);
        assert_ne!(a, c, "different seed should change the schedule");
    }

    #[test]
    fn trip_fence_mapping() {
        assert_eq!(CrashPoint::AtFence { fence: 9 }.trip_fence(), 9);
        let p = CrashPoint::MidEpoch {
            epoch: 3,
            survival: MidEpochSurvival::None,
        };
        assert_eq!(p.trip_fence(), 4);
    }
}
