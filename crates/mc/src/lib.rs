//! # ptsim-mc
//!
//! Process-variation Monte-Carlo engine for the SOCC 2012 PT-sensor
//! reproduction.
//!
//! The silicon paper characterized its sensor across fabricated dies; this
//! crate replaces the wafer: it draws [`die::DieSample`]s — die-to-die
//! (global corner) threshold/mobility shifts plus within-die
//! spatially-correlated Pelgrom mismatch — from a [`model::VariationModel`],
//! and runs per-die experiments deterministically in parallel via
//! [`driver::run_parallel`].
//!
//! ## Example
//!
//! ```
//! use ptsim_device::process::Technology;
//! use ptsim_mc::die::DieSite;
//! use ptsim_mc::driver::{run_parallel, McConfig};
//! use ptsim_mc::model::VariationModel;
//! use ptsim_mc::stats::OnlineStats;
//!
//! let model = VariationModel::new(&Technology::n65());
//! let shifts = run_parallel(&McConfig::new(200, 1), |i, rng| {
//!     model.sample_die_with_id(rng, i).d_vtn_at(DieSite::CENTER).0
//! });
//! let stats: OnlineStats = shifts.into_iter().collect();
//! assert!(stats.std_dev() > 0.005, "population has real spread");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod die;
pub mod driver;
pub mod model;
pub mod spatial;
pub mod stats;

pub use die::{DieSample, DieSite};
pub use driver::{die_rng, run_parallel, run_parallel_with, McConfig};
pub use model::VariationModel;
pub use stats::{Histogram, OnlineStats};
