//! # ptsim-thermal
//!
//! 3D stacked-die thermal simulator for the SOCC 2012 PT-sensor
//! reproduction.
//!
//! The silicon paper graded its sensor against thermal-chamber ground truth;
//! this crate replaces the chamber (and the 3D stack the sensor motivates):
//! each tier of a [`stack::ThermalStack`] is an RC grid of silicon cells,
//! tiers couple through bond layers and TSV thermal vias, and the stack is
//! terminated by a heat sink on top and the package/board underneath.
//! [`solve::solve_steady_state`] (Gauss–Seidel with SOR) and
//! [`solve::step_transient`] (stability-substepped explicit Euler) produce
//! the ground-truth temperature fields the sensor is evaluated against.
//!
//! There is one solver per job (see DESIGN.md, "Thermal solver
//! hierarchy"): the lexicographic Gauss–Seidel/SOR sweep for steady state
//! and the fused explicit-Euler substep for transients. Both are per-cell
//! updates over one grid walk of the stack's own RC network, and each is
//! bit-exact against a test-only reference loop.
//!
//! ## Example
//!
//! ```
//! use ptsim_thermal::power::PowerMap;
//! use ptsim_thermal::solve::{solve_steady_state, SolveOptions};
//! use ptsim_thermal::stack::{StackConfig, ThermalStack};
//! use ptsim_device::units::Watt;
//!
//! # fn main() -> Result<(), ptsim_thermal::error::ThermalError> {
//! let mut stack = ThermalStack::new(StackConfig::four_tier_5mm())?;
//! let mut power = PowerMap::zero(16, 16)?;
//! power.add_hotspot(0.3, 0.7, 0.1, Watt(1.5))?;
//! stack.set_power(0, power)?;
//! solve_steady_state(&mut stack, &SolveOptions::default())?;
//! assert!(stack.max_temperature(0)?.0 > 25.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod error;
pub mod material;
pub mod power;
pub mod solve;
pub mod stack;

pub use error::ThermalError;
pub use material::Material;
pub use power::PowerMap;
pub use solve::{
    solve_steady_state, step_transient, step_transient_with, SolveOptions, SolveStats,
    TransientScratch,
};
pub use stack::{StackConfig, ThermalStack};
