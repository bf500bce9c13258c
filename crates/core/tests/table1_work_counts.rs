//! The work two Table-1 rows do, pinned as exact counts.
//!
//! The stress optimizer runs border searches, detection-condition
//! derivations and stress probes, not plane campaigns, so it reports no
//! `CampaignPerfStats`; its work is read from the deterministic counters
//! of the metrics registry instead. The test optimizes the cell open O1
//! and the short Sv (both on the true bit line) at the nominal stress
//! combination on the coarse 1/250 time base, one thread everywhere (so no
//! border search prefetches), and asserts that the counts equal the
//! committed values below.
//!
//! The registry and its enable flag are process-global, so this file
//! holds exactly one `#[test]`: its own test binary is its isolation.
//!
//! A change that is meant to keep the solver's work leaves this file
//! alone. A change that moves the work on purpose edits these values in
//! the same commit and says why.

use dso_core::analysis::Analyzer;
use dso_core::stress::{OptimizerConfig, StressOptimizer};
use dso_core::{CampaignConfig, EvalService, Session};
use dso_defects::{BitLineSide, Defect};
use dso_dram::column::DefectSite;
use dso_dram::design::{ColumnDesign, OperatingPoint};

/// The counters pinned, in the order of [`COUNTS`].
const COUNTERS: [&str; 9] = [
    "spice.transients",
    "spice.solve_attempts",
    "newton.iterations",
    "newton.lu_refactors",
    "newton.lu_reuses",
    "spice.bypass_hits",
    "spice.bypass_misses",
    "eval.cache_misses",
    "eval.cache_hits",
];

/// The pinned counts. Source: these two rows optimized on the tree at
/// commit 1ffd869.
const COUNTS: [u64; 9] = [
    210, 89_316, 205_022, 16_404, 188_618, 4_087_867, 2_722_010, 90, 34,
];

#[test]
fn table1_rows_do_the_committed_work() {
    dso_obs::set_metrics_enabled(true);
    dso_obs::metrics::reset();
    let design = ColumnDesign {
        dt_fraction: 1.0 / 250.0,
        ..ColumnDesign::default()
    };
    let serial = CampaignConfig::with_threads(1).with_warm_start(true);
    let session = Session::from_parts(EvalService::new(Analyzer::new(design)), serial.clone());
    let optimizer = StressOptimizer::with_session(session).with_config(OptimizerConfig {
        exec: serial,
        ..OptimizerConfig::default()
    });
    for site in [DefectSite::O1, DefectSite::Sv] {
        optimizer
            .optimize(
                &Defect::new(site, BitLineSide::True),
                &OperatingPoint::nominal(),
            )
            .expect("row optimizes");
    }
    let snap = dso_obs::metrics::snapshot();
    let counts = COUNTERS.map(|name| snap.counter(name));
    assert_eq!(counts, COUNTS, "{COUNTERS:?}");
}
