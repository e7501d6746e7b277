//! Numeric substrate for the BQSim-RS workspace.
//!
//! This crate provides the two numeric building blocks every other crate in
//! the workspace leans on:
//!
//! * [`Complex`] — a minimal, dependency-free double-precision complex number
//!   with the full arithmetic-operator surface and the handful of analytic
//!   helpers quantum simulation needs (conjugation, polar form, magnitude).
//! * [`ComplexTable`] — a *canonical value table* that maps complex values
//!   that are equal within a tolerance onto a single stable index
//!   ([`CIdx`]). Decision-diagram packages hash nodes by their edge weights;
//!   hashing raw floating-point pairs would make two numerically-identical
//!   diagrams compare unequal after different operation orders. Interning
//!   weights through the table makes weight equality *exact* (index
//!   equality), which is the same trick used by the QMDD packages the BQSim
//!   paper builds on.
//!
//! # Examples
//!
//! ```
//! use bqsim_num::{Complex, ComplexTable};
//!
//! let h = Complex::new(1.0, 0.0) / Complex::new(2.0f64.sqrt(), 0.0);
//! assert!((h.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
//!
//! let mut table = ComplexTable::new();
//! let a = table.intern(h);
//! let b = table.intern(Complex::new(std::f64::consts::FRAC_1_SQRT_2, 0.0));
//! assert_eq!(a, b); // same canonical index despite separate computations
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
mod table;

pub mod approx;
pub mod hash;
pub mod narrow;

pub use complex::Complex;
pub use hash::FxHashMap;
pub use table::{CIdx, ComplexTable};

/// Default absolute tolerance used for complex-value canonicalisation and
/// approximate comparisons across the workspace.
///
/// The value mirrors the tolerances used by mainstream decision-diagram
/// packages (DDSIM uses `1e-10` by default as well): tight enough that
/// physically distinct amplitudes never merge, loose enough to absorb the
/// rounding drift of long gate-fusion chains.
pub const DEFAULT_TOLERANCE: f64 = 1e-10;
