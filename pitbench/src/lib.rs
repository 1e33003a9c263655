//! # pitbench
//!
//! The PIT workspace's benchmark: one command runs a workload, prints every
//! end-to-end metric with its unit, checks that the program's outputs are
//! correct, and ends with one JSON result line. See `METRICS.md` for the
//! metric table and `run` in `main.rs` for the command line.

pub mod calib;
pub mod churn;
pub mod daemon;
pub mod drive;
pub mod fleet;
pub mod models;
pub mod probes;
pub mod report;
pub mod search;
pub mod serving;
pub mod trace;
pub mod util;
