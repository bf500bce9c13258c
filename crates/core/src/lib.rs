//! Fault analysis and stress optimization for DRAM cell defects — the
//! primary contribution of *Optimizing Stresses for Testing DRAM Cell
//! Defects Using Electrical Simulation* (Al-Ars et al., DATE 2003).
//!
//! The crate has two halves:
//!
//! * [`analysis`] — the fault-analysis machinery of Section 3: result
//!   planes for the `w0`/`w1`/`r` operations across a defect-resistance
//!   sweep, the sense-amplifier threshold curve `Vsa(R)`, border-resistance
//!   extraction (both by curve intersection and by pass/fail bisection),
//!   detection-condition derivation, and electrically calibrated fault
//!   dictionaries for the behavioral memory model.
//! * [`stress`] — the optimization methodology of Section 4: directional
//!   stress probes (a handful of simulations per stress), non-monotonic
//!   fallback via border-resistance comparison, stress-combination
//!   evaluation and the Table-1 pipeline over all defects.
//!
//! Sweeps are fault-tolerant: [`Session::planes`] records every
//! attempted point in a [`analysis::SweepReport`] (converged / recovered /
//! failed), interpolates bracketed gaps instead of aborting, and refuses
//! to interpolate across a border crossing. Failures carry campaign
//! context ([`CoreError`]'s `AtPoint`) pinpointing the exact simulation
//! that died, and partial results carry an explicit
//! [`analysis::Confidence`] downgrade.
//!
//! # Example
//!
//! Optimize the stresses for the paper's running-example cell open:
//!
//! ```no_run
//! use dso_core::stress::{OperatingPoint, StressOptimizer};
//! use dso_defects::{BitLineSide, Defect};
//! use dso_dram::design::ColumnDesign;
//!
//! # fn main() -> Result<(), dso_core::CoreError> {
//! let optimizer = StressOptimizer::new(ColumnDesign::default());
//! let report = optimizer.optimize(
//!     &Defect::cell_open(BitLineSide::True),
//!     &OperatingPoint::nominal(),
//! )?;
//! println!("{report}");
//! assert!(report.stressed.border() <= report.nominal.border());
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(clippy::redundant_clone)]
#![warn(clippy::large_enum_variant)]

pub mod analysis;
pub mod env;
pub mod error;
pub mod eval;
pub mod exec;
pub mod service;
pub mod session;
pub mod store;
pub mod stress;

pub use error::CoreError;
pub use eval::{CacheStats, EvalService, SimRequest, SimTask, SimValue};
pub use exec::{CampaignConfig, CampaignPerfStats};
pub use session::{Session, SessionBuilder};
pub use store::{ResultStore, StoreStats, StoredResult};
