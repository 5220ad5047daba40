#![warn(missing_docs)]

//! Simulated byte-addressable non-volatile memory (NVM).
//!
//! This crate is the hardware substrate for the Hyrise-NV reproduction. The
//! paper (Schwalb et al., ICDE 2016) runs on NVDIMM-emulated hardware; here
//! the medium is simulated in a way that is *stricter* than real hardware for
//! crash-consistency work:
//!
//! * An [`NvmRegion`] holds two images of the same address space. Stores land
//!   in the **volatile image** (modelling CPU caches and store buffers).
//!   [`NvmRegion::flush`] + [`NvmRegion::fence`] copy the covered cache lines
//!   into the **persistent image** (the medium) and charge configurable
//!   latencies to a simulated-time ledger.
//! * [`NvmRegion::crash`] discards the volatile image — optionally persisting
//!   a random subset of dirty lines first, modelling uncontrolled cache
//!   eviction — so a recovery path sees exactly what a power failure would
//!   leave behind.
//! * [`NvmHeap`] layers an nvm_malloc-style persistent allocator on top, with
//!   a crash-safe reserve → activate protocol and a recovery scan, plus
//!   persistent containers ([`PVar`], [`PArray`], [`PVec`]) used by the
//!   storage engine.
//!
//! Everything observable by recovery code goes through the persistent image,
//! so property tests can crash at adversarial points and verify invariants —
//! something real NVM hardware cannot do deterministically.
//!
//! For systematic crash testing, a region can record a **persist trace**
//! ([`NvmRegion::trace_start`]): every store/flush/fence becomes a numbered
//! event, flushes buffer until the next fence, and a [`CrashPoint`] armed
//! via [`NvmRegion::arm_crash`] crashes the run deterministically at any
//! fence boundary — or mid-epoch with an adversarial surviving subset
//! ([`MidEpochSurvival`]). After the crash is materialized, a
//! missing-flush **linter** reports any recovery read that touches a line
//! whose last store never reached the medium ([`LintFinding`]).
//!
//! The persist-order protocols the engine relies on are declared as data in
//! [`protocol_registry`]: each [`ProtocolSpec`] is one row of the write
//! path's stage → drain → publish shape — staged phases and a publish
//! label — conformance-checked against recorded persist traces with
//! [`check_trace`].

mod alloc;
mod error;
mod fault;
mod heap;
mod latency;
mod layout;
mod mmap;
mod parray;
mod pod;
mod protocol;
mod pslab;
mod pvar;
mod pvec;
mod region;
mod schedule;
mod stats;
mod trace;

pub use alloc::{
    AllocState, AllocatorRecovery, BlockInfo, ALLOC_BLOCK_HEADER, ALLOC_MAX_FENCES, FREE_MAX_FENCES,
};
pub use error::{NvmError, Result};
pub use fault::{AllocFaultClass, AllocFaultSpec, FaultClass, FaultSpec};
pub use heap::{HeapStats, NvmHeap};
pub use latency::{LatencyModel, SimClock};
pub use layout::{align_up, line_index, CACHE_LINE};
pub use mmap::{
    arm_kill_at_fence, install_sigterm_hook, raise_sigkill, send_sigterm, sigterm_seen,
};
pub use parray::PArray;
pub use pod::{slice_bytes, Pod};
pub use protocol::{
    check_trace, publish_labels, registry as protocol_registry, ConformanceReport,
    ConformanceViolation, ProtocolSpec, RangeBinding, StaticCost,
};
pub use pslab::{PSlab, PSLAB_HEADER};
pub use pvar::PVar;
pub use pvec::{PVec, PVEC_HEADER};
pub use region::{CrashPolicy, NvmConfig, NvmRegion, RegionBacking};
pub use schedule::{CrashOutcome, CrashPoint, CrashSchedule, MidEpochSurvival};
pub use stats::{NvmStats, StatsSnapshot};
pub use trace::{LintFinding, PersistTrace, StoreStamp, TraceConfig, TraceEvent};
