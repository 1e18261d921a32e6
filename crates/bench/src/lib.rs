#![warn(missing_docs)]
//! Benchmark harness regenerating every table and figure of the DACPara
//! paper's evaluation (§5).
//!
//! The `tables` binary drives the [`experiments`] module:
//!
//! ```text
//! cargo run --release -p dacpara-bench --bin tables -- all --scale small --threads 4
//! ```
//!
//! Results are printed as markdown and persisted (markdown + JSON) under
//! `results/`.

pub mod experiments;
pub mod report;
pub mod runner;

pub use experiments::{ablations, engines, fig2, fig3, speedup, table1, table2, table3, Exhibit};
pub use report::{geomean, write_json, write_markdown, Table};
pub use runner::{BenchRun, Harness};
