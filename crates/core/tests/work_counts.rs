//! The work a Fig.-2-sized plane campaign does, pinned as exact counts.
//!
//! Wall-time gates cannot resolve small changes on a shared host, but the
//! solver's work counts repeat exactly: they are a pure function of the
//! inputs. This test runs the cold Fig. 2 campaign (cell open O3 on the
//! true bit line, nominal stress combination, 13 resistances from 1 kΩ to
//! 10 MΩ, two operations per trajectory) on the coarse 1/250 time base,
//! one thread and warm start on, and asserts that its solve attempts,
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

/// The pinned counts. Source: this campaign run on the tree at commit
/// 27930be (before the transient step reused its per-step-size linear
/// base, its anchored device evaluations and one pass for both warm-start
/// probes, none of which changes the work).
const SOLVE_ATTEMPTS: usize = 47_368;
const NEWTON_ITERS: usize = 78_351;
const LU_REFACTORS: usize = 5_800;
const LU_REUSES: usize = 72_551;
const BYPASS_HITS: usize = 2_196_429;
const BYPASS_MISSES: usize = 1_543_673;

#[test]
fn fig2_plane_campaign_does_the_committed_work() {
    let design = ColumnDesign {
        dt_fraction: 1.0 / 250.0,
        ..ColumnDesign::default()
    };
    let config = CampaignConfig::with_threads(1).with_warm_start(true);
    let session = Session::from_parts(EvalService::new(Analyzer::new(design)), config);
    let r_values = logspace(1e3, 1e7, 13).expect("valid sweep");
    let campaign = session
        .planes(
            &Defect::cell_open(BitLineSide::True),
            &OperatingPoint::nominal(),
            &r_values,
            2,
        )
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
    assert_eq!(
        (
            solve_attempts,
            newton_iters,
            lu_refactors,
            lu_reuses,
            bypass_hits,
            bypass_misses
        ),
        (
            SOLVE_ATTEMPTS,
            NEWTON_ITERS,
            LU_REFACTORS,
            LU_REUSES,
            BYPASS_HITS,
            BYPASS_MISSES
        ),
        "(solve attempts, Newton iterations, LU refactors, LU reuses, bypass hits, \
         bypass misses)"
    );
}
