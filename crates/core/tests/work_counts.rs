//! The work the Fig. 2 and Fig. 6 plane campaigns do, pinned as exact
//! counts.
//!
//! Wall-time gates cannot resolve small changes on a shared host, but the
//! solver's work counts repeat exactly: they are a pure function of the
//! inputs. Each test runs one cold plane campaign on the cell open O3 (true
//! bit line), 13 resistances from 1 kΩ to 10 MΩ, on the coarse 1/250 time
//! base, one thread and warm start on, and asserts that its solve attempts,
//! Newton iterations, LU refactors and reuses, and device-bypass hits and
//! misses equal the committed values below.
//!
//! A change that is meant to keep the solver's work leaves this file
//! alone. A change that moves the work on purpose edits these values in
//! the same commit and says why.

use dso_core::analysis::Analyzer;
use dso_core::{CampaignConfig, CampaignPerfStats, EvalService, Session};
use dso_defects::{BitLineSide, Defect};
use dso_dram::design::{ColumnDesign, OperatingPoint};
use dso_num::interp::logspace;

/// (solve attempts, Newton iterations, LU refactors, LU reuses, bypass
/// hits, bypass misses).
type Work = (usize, usize, usize, usize, usize, usize);

/// The Fig. 2 campaign (nominal stress combination, two operations per
/// trajectory). Source: this campaign run on the tree at commit 1ffd869
/// read (47 368, 78 351, 5 800, 72 551, 2 196 429, 1 543 673), the same as
/// at 27930be. The `w1` plane is now read off the `w0` settle runs instead
/// of simulated, which removes 13 `w1` settle transients of 500 steps
/// each: exactly 13 × 500 solve attempts fewer, and the Newton, LU and
/// bypass work of those steps.
const FIG2: Work = (40_868, 68_134, 5_086, 63_048, 1_890_923, 1_356_893);

/// The Fig. 6 campaign (2.1 V, 55 ns, 87 °C, three operations per
/// trajectory). Its `w1` plane is not a prefix of the `w0` settle run
/// (three reported `w1`s against two setup writes), so every `w1` still
/// simulates. Source: this campaign run on the tree at commit 1ffd869,
/// before the `w1` plane was read off the `w0` settle run; the change left
/// it unmoved.
const FIG6: Work = (59_597, 101_750, 6_234, 95_516, 2_694_060, 2_021_043);

/// Runs the campaign at `op` with `n_ops` operations per trajectory and
/// returns its work counts.
fn campaign_work(op: &OperatingPoint, n_ops: usize) -> Work {
    let design = ColumnDesign {
        dt_fraction: 1.0 / 250.0,
        ..ColumnDesign::default()
    };
    let config = CampaignConfig::with_threads(1).with_warm_start(true);
    let session = Session::from_parts(EvalService::new(Analyzer::new(design)), config);
    let r_values = logspace(1e3, 1e7, 13).expect("valid sweep");
    let campaign = session
        .planes(&Defect::cell_open(BitLineSide::True), op, &r_values, n_ops)
        .expect("campaign runs");
    assert_eq!(campaign.report.failed(), 0);
    let CampaignPerfStats {
        solve_attempts,
        newton_iters,
        lu_refactors,
        lu_reuses,
        bypass_hits,
        bypass_misses,
        ..
    } = campaign.perf;
    (
        solve_attempts,
        newton_iters,
        lu_refactors,
        lu_reuses,
        bypass_hits,
        bypass_misses,
    )
}

const LABEL: &str = "(solve attempts, Newton iterations, LU refactors, LU reuses, bypass hits, \
                     bypass misses)";

#[test]
fn fig2_plane_campaign_does_the_committed_work() {
    assert_eq!(
        campaign_work(&OperatingPoint::nominal(), 2),
        FIG2,
        "{LABEL}"
    );
}

#[test]
fn fig6_plane_campaign_does_the_committed_work() {
    let stressed = OperatingPoint {
        vdd: 2.1,
        tcyc: 55e-9,
        temp_c: 87.0,
        ..OperatingPoint::nominal()
    };
    assert_eq!(campaign_work(&stressed, 3), FIG6, "{LABEL}");
}
