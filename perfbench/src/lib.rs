//! The repository benchmark: three workloads (`population`, `fleet`,
//! `dtm`) that print end-to-end metrics untraced and a per-layer ledger
//! when traced. See `perfbench/README.md` for how to run it and what each
//! number means.

pub mod dtm;
pub mod fleet;
pub mod population;
pub mod replay;
pub mod report;
pub mod stats;
