#![warn(missing_docs)]

//! Dependency-free support code shared across the workspace.
//!
//! The build must work with no network access and no vendored registry, so
//! the handful of external crates the engine used to lean on (`rand`,
//! `parking_lot`, `bytes`, `serde_json`) are replaced by the small, exact
//! subsets implemented here:
//!
//! * [`rng`] — a seeded xoshiro256++ PRNG with the uniform-sampling helpers
//!   the workloads and crash fuzzers need. Deterministic under seed, which
//!   the crash-replay artifacts rely on.
//! * [`sync`] — `Mutex`/`RwLock` wrappers over `std::sync` that ignore
//!   poisoning (a panicking test must not cascade into every later lock).
//! * [`buf`] — little-endian byte writer/reader for the WAL record and
//!   checkpoint codecs.
//! * [`json`] — just enough JSON emission for the benchmark result rows.
//! * [`hash`] — the word-parallel media seal (main columns, index entries,
//!   image fingerprints) and FNV-1a (allocator header checksums).
//! * [`repro`] — bounded, deduplicating JSONL replay-artifact writer shared
//!   by the torture suites (keeps `results/` from growing without limit).

pub mod buf;
pub mod hash;
pub mod json;
pub mod repro;
pub mod rng;
pub mod sync;

pub use rng::{Rng, SmallRng};
