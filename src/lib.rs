//! # dram-stress-opt
//!
//! A reproduction of *Optimizing Stresses for Testing DRAM Cell Defects
//! Using Electrical Simulation* (Z. Al-Ars, A.J. van de Goor, J. Braun,
//! D. Richter — DATE 2003) as a Rust workspace.
//!
//! This umbrella crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! * [`num`] — numerical kernel (LU, Newton, roots, curves).
//! * [`spice`] — SPICE-class electrical circuit simulator.
//! * [`dram`] — folded-bit-line DRAM column model and operation engine.
//! * [`defects`] — resistive defect taxonomy and injection.
//! * [`analysis`]/[`stress`] (from `dso-core`) — fault analysis (result
//!   planes, border resistance, detection conditions) and the stress
//!   optimizer that is the paper's contribution.
//! * [`march`] — march-test notation, engine, and fault coverage.
//! * [`shmoo`] — two-dimensional pass/fail stress sweeps.
//!
//! See the repository `README.md` for a quickstart, `DESIGN.md` for the
//! system inventory, and `EXPERIMENTS.md` for the paper-versus-measured
//! record of every figure and table.
//!
//! # Example
//!
//! Find the border resistance of a cell open and optimize the stress
//! combination against it:
//!
//! ```no_run
//! use dram_stress_opt::defects::{Defect, BitLineSide};
//! use dram_stress_opt::dram::ColumnDesign;
//! use dram_stress_opt::stress::{OperatingPoint, StressOptimizer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = ColumnDesign::default();
//! let defect = Defect::cell_open(BitLineSide::True);
//! let optimizer = StressOptimizer::new(design);
//! let report = optimizer.optimize(&defect, &OperatingPoint::nominal())?;
//! // The stressed border resistance never exceeds the nominal one.
//! assert!(report.stressed.border() <= report.nominal.border());
//! # Ok(())
//! # }
//! ```

pub use dso_core::analysis;
pub use dso_core::eval;
pub use dso_core::exec;
pub use dso_core::service;
pub use dso_core::session;
pub use dso_core::session::{Session, SessionBuilder};
pub use dso_core::store;
pub use dso_core::stress;
pub use dso_defects as defects;
pub use dso_dram as dram;
pub use dso_march as march;
pub use dso_num as num;
pub use dso_obs as obs;
pub use dso_shmoo as shmoo;
pub use dso_spice as spice;
