//! # ptsim-bench
//!
//! Evaluation harness for the SOCC 2012 PT-sensor reproduction: one module
//! per reconstructed figure/table (see `DESIGN.md` for the experiment index
//! and `EXPERIMENTS.md` for paper-vs-measured records). Each experiment is a
//! library function returning its rendered report; the `run_all` binary
//! prints one by ID or all of them in sequence:
//!
//! ```text
//! cargo run --release -p ptsim-bench --bin run_all T1   # one experiment (T1)
//! cargo run --release -p ptsim-bench --bin run_all      # everything
//! ```
//!
//! Micro-benchmarks live in `benches/` and run on the in-tree
//! [`harness`] (warmup + median-of-N, one JSON line per benchmark on
//! stdout) — `cargo bench -p ptsim-bench` needs no external crates.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod knobs;
pub mod table;
