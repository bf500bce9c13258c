//! Numerical kernel for the `dram-stress-opt` workspace.
//!
//! This crate provides the numerical machinery that the SPICE-class circuit
//! simulator (`dso-spice`) and the fault-analysis layer (`dso-core`) are
//! built on:
//!
//! * [`matrix::DMatrix`] — a dense, row-major matrix with the usual algebra.
//! * [`lu::LuFactor`] — LU factorization with partial pivoting, in a
//!   minimum-degree order of a declared sparsity pattern.
//! * [`newton`] — a damped Newton–Raphson driver used by the nonlinear DC and
//!   transient solvers.
//! * [`integrate`] — integration-method coefficients (backward Euler,
//!   trapezoidal) for companion models, plus a reference ODE integrator used
//!   in validation tests.
//! * [`roots`] — bisection over monotone pass/fail predicates (used for
//!   border-resistance searches) and Brent's method for continuous roots.
//! * [`interp`] — sampled-curve interpolation and curve intersection (used to
//!   intersect write settlement curves with the sense-amplifier threshold
//!   curve).
//! * [`trend`] — monotonicity classification of sampled responses (used to
//!   decide whether a stress acts monotonically).
//! * [`chaos`] — deterministic fault injection for Newton solves (singular
//!   Jacobians, NaN residuals, forced divergence), used to exercise the
//!   simulator's recovery ladder from tests.
//! * [`testing`] — a seedable, dependency-free PRNG for property-style
//!   tests across the workspace.
//!
//! # Example
//!
//! Solve a small linear system:
//!
//! ```
//! use dso_num::{matrix::DMatrix, lu::LuFactor};
//!
//! # fn main() -> Result<(), dso_num::NumError> {
//! let a = DMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = LuFactor::new(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod chaos;
pub mod error;
pub mod fingerprint;
pub mod integrate;
pub mod interp;
pub mod lu;
pub mod matrix;
pub mod newton;
pub mod roots;
pub mod testing;
pub mod trend;

pub use error::NumError;
