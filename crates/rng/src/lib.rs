//! # ptsim-rng
//!
//! In-tree deterministic random-number generation for the whole workspace.
//!
//! The crate exists so the simulator builds **offline with zero external
//! dependencies**: it provides the small slice of a `rand`-style API the
//! rest of the workspace actually uses, nothing more.
//!
//! - [`Pcg64`] — a seedable PCG XSL RR 128/64 generator (the same algorithm
//!   family as `rand`'s `Pcg64`), with `seed_from_u64` SplitMix64 expansion.
//! - [`RngCore`] — the object-safe core trait (`next_u64` / `next_u32`), so
//!   `&mut dyn RngCore` works across trait objects.
//! - [`Rng`] — the ergonomic extension trait (`gen`, `gen_range`,
//!   `gen_bool`), blanket-implemented for every [`RngCore`].
//! - [`gaussian`] — Box–Muller (polar/Marsaglia) normal sampling.
//! - [`check`] — a seeded, shrink-free property-test harness with the
//!   [`forall!`] macro, replacing `proptest` for the workspace's invariant
//!   tests.
//!
//! ```
//! use ptsim_rng::{Pcg64, Rng, RngCore};
//!
//! let mut rng = Pcg64::seed_from_u64(42);
//! let u: f64 = rng.gen_range(0.0..1.0);
//! assert!((0.0..1.0).contains(&u));
//! // Same seed, same stream — always.
//! assert_eq!(
//!     Pcg64::seed_from_u64(7).next_u64(),
//!     Pcg64::seed_from_u64(7).next_u64(),
//! );
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod check;
pub mod gaussian;
pub mod pcg;
pub mod traits;

pub use pcg::{Pcg64, SplitMix64};
pub use traits::{FromRng, Rng, RngCore, SampleUniform};
