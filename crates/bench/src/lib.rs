//! Shared helpers for the figure/table regeneration binaries.
//!
//! Each binary in this crate regenerates one artifact of the paper's
//! evaluation (see `DESIGN.md` for the experiment index) on the library's
//! default column design, which matches the parameters documented in
//! `DESIGN.md`. Every analysis runs through one `dso_core::Session` per
//! binary:
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `fig1_model` | Figure 1 — electrical model of the defective cell |
//! | `fig2_result_planes` | Figure 2 — result planes at the nominal SC |
//! | `fig3_timing` | Figure 3 — cycle-time stress transients |
//! | `fig4_temperature` | Figure 4 — temperature stress transients |
//! | `fig5_voltage` | Figure 5 — supply-voltage stress transients |
//! | `fig6_sc_planes` | Figure 6 — result planes under the stressed SC |
//! | `fig7_defects` | Figure 7 — the simulated cell defects |
//! | `table1` | Table 1 — stress optimization over all defects |

pub mod figures;
pub mod plot;
