//! Design-space sweep: three declarative column designs, two defects,
//! one pass.
//!
//! The paper (Table 1) fixes a single folded-bit-line column; this
//! example treats the *design* as a swept axis. Three [`DesignConfig`]s —
//! the paper column, the same electricals under a dummy-cell reference
//! scheme, and a taller two-cells-per-bit-line array — expand to column
//! designs and run one cross-design campaign. Designs whose configs
//! expand to the same column design share one evaluation service, so the
//! dummy-cell design's grids are answered from the paper column's results
//! (the `cross_design_dedup` counter printed at the end).
//!
//! Outputs, under `results/`:
//!
//! * `design_sweep_coverage.csv` — one row per `(design, defect)` cell of
//!   the coverage matrices.
//! * `design_sweep_trend.csv` — border resistance vs transfer ratio, one
//!   row per `(defect, design)`.
//! * `design_sweep.jsonl` — one JSON document per design (the same
//!   payload the `design_sweep` service job returns).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example design_sweep
//! ```

use dram_stress_opt::analysis::{DesignParam, DesignSpace, DesignSweepRequest};
use dram_stress_opt::service::design_sweep_result;
use dram_stress_opt::Session;
use dso_defects::{BitLineSide, Defect};
use dso_dram::design::{ColumnDesign, DesignConfig, ReferenceScheme};
use dso_obs::json::Json;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Three declarative designs. The coarser-than-production time base
    //    keeps the example affordable; drop `dt_fraction` to run the
    //    production step. "dummy" resolves its reference skew from the
    //    cell/bit-line divider at expansion time — to the same column
    //    design as "paper", which spells the skew out.
    let paper = DesignConfig {
        name: "paper".into(),
        dt_fraction: 1.0 / 250.0,
        ..DesignConfig::paper_default()
    };
    let dummy_skew = ReferenceScheme::DummyCell.resolve_skew(
        paper.cell_cap,
        paper.cells_per_bitline as f64 * paper.bl_cap_per_cell,
    );
    let paper = DesignConfig {
        reference: ReferenceScheme::SkewedRef { skew: dummy_skew },
        ..paper
    };
    let dummy = DesignConfig {
        name: "dummy".into(),
        reference: ReferenceScheme::DummyCell,
        ..paper.clone()
    };
    let tall = DesignConfig {
        name: "tall".into(),
        cells_per_bitline: 2,
        ..paper.clone()
    };
    let space = DesignSpace::new(vec![paper, dummy, tall])?;
    println!(
        "design space: {} designs, {} distinct electrical plans",
        space.len(),
        space.distinct_plans()
    );

    // 2. One pass over designs x defects x R. The session's own column
    //    only serves as the analyzer template (recovery/tuning); each
    //    design expands to its own column.
    let defects = vec![
        Defect::cell_open(BitLineSide::True),
        Defect::cell_open(BitLineSide::Comp),
    ];
    let request = DesignSweepRequest::new(defects)
        .with_r_points(10)
        .with_n_ops(2);
    let session = Session::with_design(ColumnDesign::default());
    let result = session.design_sweep(&space, &request)?;

    // 3. Per-design Table-1-style coverage matrices and the trend of the
    //    border resistance over the charge-transfer ratio.
    for report in &result.designs {
        println!();
        println!("{}", report.coverage_matrix());
    }
    println!();
    println!("{}", result.trend_table(DesignParam::TransferRatio));
    println!();
    println!(
        "{} distinct plan(s) simulated for {} designs; {}",
        result.distinct_plans,
        result.designs.len(),
        result.perf
    );

    // 4. Machine-readable copies under results/.
    std::fs::create_dir_all("results")?;
    let mut coverage =
        String::from("design,defect,vdd,tcyc_s,border_ohm,fails_above,vmp_v,confidence\n");
    for report in &result.designs {
        for cell in &report.cells {
            coverage.push_str(&format!(
                "{},{},{},{:e},{},{},{},{}\n",
                report.name,
                cell.defect,
                cell.op_point.vdd,
                cell.op_point.tcyc,
                cell.border.map_or("-".to_string(), |b| format!("{b:e}")),
                cell.fails_above,
                cell.vmp,
                cell.confidence
            ));
        }
    }
    std::fs::write("results/design_sweep_coverage.csv", &coverage)?;

    let mut trend = String::from("defect,vdd,tcyc_s,transfer_ratio,border_ohm,trend\n");
    for row in result.trend_rows(DesignParam::TransferRatio) {
        let label = row
            .trend
            .map(|t| t.to_string())
            .unwrap_or_else(|| "n/a".to_string());
        for (ratio, border) in &row.borders {
            trend.push_str(&format!(
                "{},{},{:e},{ratio},{},{label}\n",
                row.defect,
                row.op_point.vdd,
                row.op_point.tcyc,
                border.map_or("-".to_string(), |b| format!("{b:e}")),
            ));
        }
    }
    std::fs::write("results/design_sweep_trend.csv", &trend)?;

    // One JSON document per design — the same per-design payload the
    // `design_sweep` service job puts on the wire.
    let payload = design_sweep_result(&result);
    let mut jsonl = String::new();
    if let Some(Json::Arr(designs)) = payload.get("designs").cloned() {
        for design in designs {
            jsonl.push_str(&design.to_string());
            jsonl.push('\n');
        }
    }
    std::fs::write("results/design_sweep.jsonl", &jsonl)?;
    println!(
        "wrote results/design_sweep_coverage.csv, results/design_sweep_trend.csv, \
         and results/design_sweep.jsonl"
    );
    Ok(())
}
