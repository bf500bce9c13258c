//! A column transient stamps each linear base once per step size.
//!
//! The transient's step set-up keeps the conductance half of its MNA
//! linear base for every configuration it has stamped (gmin, integration
//! method, step size), so a fixed-grid run stamps at most one base per
//! distinct step `t_k − t_{k−1}`, plus one for the backward-Euler first
//! step. The `spice.base_builds` counter records every stamp.
//!
//! The metrics registry is process-global, so this file holds exactly one
//! `#[test]` — its own test binary is its isolation.

use dso_dram::design::{BitLineSide, ColumnDesign, OperatingPoint};
use dso_dram::ops::{Operation, OperationEngine};
use std::collections::BTreeSet;

#[test]
fn column_transient_stamps_one_base_per_step_size() {
    dso_obs::set_metrics_enabled(true);
    dso_obs::metrics::reset();
    let design = ColumnDesign {
        dt_fraction: 1.0 / 250.0,
        ..ColumnDesign::default()
    };
    let trace = OperationEngine::new(design, OperatingPoint::nominal())
        .unwrap()
        .with_victim(BitLineSide::True)
        .run(&[Operation::W0, Operation::W1, Operation::R], 2.4)
        .unwrap();
    let snap = dso_obs::metrics::snapshot();
    let tran = trace.tran();
    assert!(tran.recovery().is_clean());
    assert_eq!(tran.len(), 751);
    let steps: BTreeSet<u64> = tran
        .times()
        .windows(2)
        .map(|t| (t[1] - t[0]).to_bits())
        .collect();
    assert_eq!(snap.counter("spice.transients"), 1);
    let builds = snap.counter("spice.base_builds");
    assert!(
        builds <= steps.len() as u64 + 1,
        "{builds} base builds over {} distinct step sizes",
        steps.len()
    );
    // Without the kept bases nearly every step would stamp one.
    assert!(builds >= 2 && builds * 20 < tran.len() as u64, "{builds}");
}
