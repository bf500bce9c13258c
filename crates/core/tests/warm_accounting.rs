//! A plane campaign's warm-start counts cover exactly the seedable
//! transients it ran.
//!
//! `CampaignPerfStats::warm_hits` and `warm_misses` count the `w0`, `w1`
//! and read-trajectory transients that ran from a seed or cold. A cache
//! hit runs nothing and counts as neither, and neither does a `w1` plane
//! read off the `w0` settle run. The test checks the counts against the
//! `spice.transients` counter of the metrics registry, with every `Vsa`
//! request of the campaign cached beforehand so that the campaign's only
//! transients are the seedable ones.
//!
//! The registry and its enable flag are process-global, so this file
//! holds exactly one `#[test]`: its own test binary is its isolation.

use dso_core::analysis::Analyzer;
use dso_core::{CampaignConfig, CampaignPerfStats, EvalService, Session};
use dso_defects::{BitLineSide, Defect};
use dso_dram::design::{ColumnDesign, OperatingPoint};
use dso_num::interp::logspace;

/// Runs the campaign on `session` and returns its perf stats and the
/// transients it simulated.
fn counted_campaign(session: &Session, r_values: &[f64]) -> (CampaignPerfStats, u64) {
    dso_obs::metrics::reset();
    let campaign = session
        .planes(
            &Defect::cell_open(BitLineSide::True),
            &OperatingPoint::nominal(),
            r_values,
            2,
        )
        .expect("campaign runs");
    assert_eq!(campaign.report.failed(), 0);
    let transients = dso_obs::metrics::snapshot().counter("spice.transients");
    (campaign.perf, transients)
}

#[test]
fn warm_counts_cover_the_transients_that_ran() {
    dso_obs::set_metrics_enabled(true);
    let defect = Defect::cell_open(BitLineSide::True);
    let op = OperatingPoint::nominal();
    let r_values = logspace(1e4, 1e7, 4).expect("valid sweep");
    let n = r_values.len();
    // One chunk: the head runs cold, every later point warm.
    let config = CampaignConfig::serial().with_chunk(n);
    // 1/250 reaches the end of the `w0` run's two setup writes, so `w1` is
    // read off it (three transients per point); 1/600 does not (four).
    for (fraction, per_point) in [(250.0, 3), (600.0, 4)] {
        let design = ColumnDesign {
            dt_fraction: 1.0 / fraction,
            ..ColumnDesign::default()
        };
        let session = Session::from_parts(EvalService::new(Analyzer::new(design)), config.clone());
        let service = session.service();
        for &r in &r_values {
            service.vsa(&defect, r, &op).expect("vsa");
        }
        service.vmp(&defect, &op).expect("vmp");

        let (cold, transients) = counted_campaign(&session, &r_values);
        let label = format!("1/{fraction}");
        assert_eq!(transients, (per_point * n) as u64, "{label}");
        assert_eq!(cold.warm_hits + cold.warm_misses, per_point * n, "{label}");
        assert_eq!(cold.warm_misses, per_point, "{label}: the chunk head");

        let (cached, transients) = counted_campaign(&session, &r_values);
        assert_eq!(transients, 0, "{label}: cached rerun");
        assert_eq!(
            (cached.warm_hits, cached.warm_misses),
            (0, 0),
            "{label}: cached rerun"
        );
        assert_eq!(cached.cache_hits, 5 * n, "{label}: cached rerun");
    }
}
