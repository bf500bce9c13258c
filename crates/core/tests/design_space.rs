//! Acceptance tests of the design-space engine: a config-generated
//! column must drive campaigns bit-identically to the directly
//! constructed legacy [`ColumnDesign`] at every thread count, and a
//! multi-design sweep must reuse the shared healthy-reference grid
//! across equal-fingerprint designs (the `cross_design_dedup` counter).

use dso_core::analysis::Analyzer;
use dso_core::analysis::{DesignParam, DesignSpace, DesignSweepRequest};
use dso_core::eval::EvalService;
use dso_core::exec::CampaignConfig;
use dso_core::Session;
use dso_defects::{BitLineSide, Defect};
use dso_dram::design::{ColumnDesign, DesignConfig, ReferenceScheme};
use dso_num::interp::logspace;

/// Coarse time step so debug-mode simulations stay affordable.
const FAST_DT: f64 = 1.0 / 250.0;

fn fast_config(name: &str) -> DesignConfig {
    DesignConfig {
        name: name.to_string(),
        dt_fraction: FAST_DT,
        ..DesignConfig::paper_default()
    }
}

fn session_for(design: ColumnDesign, threads: usize) -> Session {
    Session::from_parts(
        EvalService::new(Analyzer::new(design)),
        CampaignConfig::with_threads(threads).with_chunk(1),
    )
}

#[test]
fn config_generated_column_campaigns_bit_identically_to_the_legacy_design() {
    // The same electricals, reached two ways: through the declarative
    // config pipeline and by constructing the legacy struct directly.
    let generated = fast_config("paper-fast").expand().expect("config expands");
    let legacy = ColumnDesign {
        dt_fraction: FAST_DT,
        ..ColumnDesign::default()
    };
    assert_eq!(generated, legacy, "expansion must reproduce the struct");

    let defect = Defect::cell_open(BitLineSide::True);
    let op = dso_dram::design::OperatingPoint::nominal();
    let r_values = logspace(1e4, 1e7, 3).expect("valid sweep");

    let reference = session_for(legacy.clone(), 1)
        .planes(&defect, &op, &r_values, 1)
        .expect("legacy campaign runs");
    for threads in [1, 2, 4, 8] {
        let campaign = session_for(generated.clone(), threads)
            .planes(&defect, &op, &r_values, 1)
            .expect("generated campaign runs");
        assert_eq!(
            campaign.planes, reference.planes,
            "thread count {threads}: config-generated planes diverged"
        );
    }
}

#[test]
fn three_design_sweep_reuses_the_shared_healthy_reference() {
    // "skewed" spells out the exact skew the "dummy" scheme resolves to,
    // so the two configs expand to one column design; "tall" is a
    // genuinely different design (two cells per bit line doubles Cbl).
    let base = fast_config("skewed");
    let dummy_skew = ReferenceScheme::DummyCell.resolve_skew(
        base.cell_cap,
        base.cells_per_bitline as f64 * base.bl_cap_per_cell,
    );
    let skewed = DesignConfig {
        reference: ReferenceScheme::SkewedRef { skew: dummy_skew },
        ..base
    };
    let dummy = DesignConfig {
        name: "dummy".to_string(),
        reference: ReferenceScheme::DummyCell,
        ..skewed.clone()
    };
    let tall = DesignConfig {
        name: "tall".to_string(),
        cells_per_bitline: 2,
        ..skewed.clone()
    };
    let space = DesignSpace::new(vec![skewed, dummy, tall]).expect("valid space");
    assert_eq!(space.len(), 3);
    assert_eq!(space.distinct_plans(), 2);

    let session = session_for(ColumnDesign::default(), 1);
    let request = DesignSweepRequest::new(vec![Defect::cell_open(BitLineSide::True)])
        .with_r_points(2)
        .with_n_ops(1);
    let result = session
        .design_sweep(&space, &request)
        .expect("sweep completes");

    assert_eq!(result.designs.len(), 3);
    assert_eq!(result.distinct_plans, 2);
    assert!(
        result.cross_design_dedup() >= 1,
        "equal-fingerprint designs must share the healthy-reference grid: {:?}",
        result.perf
    );
    // The shared designs report identical coverage; the tall design
    // is electrically different.
    assert_eq!(result.designs[0].cells, result.designs[1].cells);
    assert_ne!(result.designs[0].fingerprint, result.designs[2].fingerprint);
    // The dedup count surfaces in the perf display and the trend table
    // orders all three designs.
    assert!(
        format!("{}", result.perf).contains("cross-design reuse"),
        "{}",
        result.perf
    );
    let trend = result.trend_table(DesignParam::TransferRatio);
    assert!(trend.contains("transfer ratio"), "{trend}");
    for report in &result.designs {
        let matrix = report.coverage_matrix();
        assert!(matrix.contains("O3 (true)"), "{matrix}");
    }
}
