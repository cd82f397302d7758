//! The trienum repository benchmark.
//!
//! One command runs one seeded workload for a fixed wall time and prints
//! every metric by name with its unit; the last line of its output is one
//! JSON object. See `NOTES.md` beside `Cargo.toml` for the workloads, the
//! metrics and what each per-layer metric should move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod jobs;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod spec;
pub mod speed;
pub mod trace;
pub mod workload;
