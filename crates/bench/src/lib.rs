#![warn(missing_docs)]

//! The experiment stack beside the repo benchmark: the paper shapes and
//! ablations `benchmark/` does not measure, as plain functions in one
//! registry ([`experiments::REGISTRY`]) over one repetition harness
//! ([`harness`]). `src/main.rs` is the only binary:
//! `cargo run --release -p hyrise-nv-bench -- <experiment>|all [--quick]`.

pub mod driver;
pub mod experiments;
pub mod harness;
pub mod results;
