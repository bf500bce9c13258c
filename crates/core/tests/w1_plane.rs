//! The `w1` plane read off the `w0` settle runs.
//!
//! A `w0` settle run starts with two unreported `w1` writes from GND, so
//! on a time grid that reaches the end of those writes its first `n ≤ 2`
//! cycles are the `w1` settle run of `n` operations, and a plane campaign
//! reads the `w1` plane off it instead of simulating it. These tests pin
//! that the values read are the standalone `w1` run's, bit for bit, at
//! the operating points of Figs. 2 and 6, and that a warm chain whose `w1`
//! seed is not the `w0` seed's prefix simulates `w1` from its own seed.

use dso_core::analysis::Analyzer;
use dso_core::{CampaignConfig, EvalService, Session};
use dso_defects::{BitLineSide, Defect};
use dso_dram::design::{ColumnDesign, OperatingPoint};
use dso_dram::ops::{physical_write, OpTrace, OperationEngine};
use dso_num::interp::logspace;

fn fast_design() -> ColumnDesign {
    ColumnDesign {
        dt_fraction: 1.0 / 250.0,
        ..ColumnDesign::default()
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn w1_read_off_the_w0_run_is_the_standalone_w1_run() {
    let design = fast_design();
    let defect = Defect::cell_open(BitLineSide::True);
    let r_values = logspace(1e3, 1e7, 13).expect("valid sweep");
    let fig6 = OperatingPoint {
        vdd: 2.1,
        tcyc: 55e-9,
        temp_c: 87.0,
        ..OperatingPoint::nominal()
    };
    // Warm start off: every point is unseeded, like a chunk head.
    let config = CampaignConfig::serial().with_warm_start(false);
    for op in [OperatingPoint::nominal(), fig6] {
        for n in [1, 2] {
            let session = Session::from_parts(
                EvalService::new(Analyzer::new(design.clone())),
                config.clone(),
            );
            let campaign = session
                .planes(&defect, &op, &r_values, n)
                .expect("campaign runs");
            // Three seedable transients ran per point: `w0` and the two
            // read trajectories, not `w1`.
            assert_eq!(campaign.perf.warm_misses, 3 * r_values.len());
            // A fresh service, so the standalone run simulates.
            let standalone = EvalService::new(Analyzer::new(design.clone()));
            for (i, &r) in r_values.iter().enumerate() {
                let want = standalone
                    .settle_sequence(&defect, r, &op, true, n)
                    .expect("w1 run");
                let got: Vec<f64> = campaign
                    .planes
                    .w1
                    .curves
                    .iter()
                    .map(|c| c.ys()[i])
                    .collect();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "tcyc {:e}, n = {n}, R = {r:e}",
                    op.tcyc
                );
            }
        }
    }
}

#[test]
fn a_w1_seed_off_the_w0_chain_keeps_its_run() {
    let design = fast_design();
    let defect = Defect::cell_open(BitLineSide::True);
    let op = OperatingPoint::nominal();
    let r_values = logspace(1e4, 1e7, 3).expect("valid sweep");
    let n = 2;
    let config = CampaignConfig::serial().with_chunk(r_values.len());
    let session = Session::from_parts(EvalService::new(Analyzer::new(design.clone())), config);
    // The middle point's `w0` is cached, so the campaign reads no `w0` trace
    // there and simulates that point's `w1`, seeded from the first point's
    // `w0` run. The last point's seeds then disagree (no `w0` seed, a `w1`
    // seed), so its `w1` is simulated from its own seed too.
    session
        .service()
        .settle_sequence(&defect, r_values[1], &op, false, n)
        .expect("w0 run");
    let campaign = session
        .planes(&defect, &op, &r_values, n)
        .expect("campaign runs");
    let w1_at = |i: usize| -> Vec<f64> {
        campaign
            .planes
            .w1
            .curves
            .iter()
            .map(|c| c.ys()[i])
            .collect()
    };

    // The same chain of `w1` runs, each seeded from the one before.
    let seq = vec![physical_write(true, defect.side()); n];
    let run = |r: f64, seed: Option<&OpTrace>| {
        let mut engine = OperationEngine::new(design.clone(), op)
            .expect("engine")
            .with_victim(defect.side());
        defect.inject(engine.column_mut(), r).expect("inject");
        engine.run_seeded(&seq, 0.0, seed).expect("w1 run")
    };
    let first = run(r_values[0], None);
    let middle = run(r_values[1], Some(&first));
    let last = run(r_values[2], Some(&middle));
    assert_eq!(bits(&w1_at(0)), bits(&first.vc_ends()), "first point");
    assert_eq!(bits(&w1_at(1)), bits(&middle.vc_ends()), "middle point");
    assert_eq!(bits(&w1_at(2)), bits(&last.vc_ends()), "last point");
    // The seed moves the last bits, so reading the last point's `w1` off
    // its cold `w0` run would not have matched.
    assert_ne!(
        bits(&last.vc_ends()),
        bits(&run(r_values[2], None).vc_ends()),
        "the seed changes nothing here; the chain checks nothing"
    );
}
