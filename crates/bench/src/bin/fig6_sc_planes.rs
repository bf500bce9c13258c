//! Figure 6 — result planes under the combined stress combination
//! (`Vdd = 2.1 V`, `tcyc = 55 ns`, `T = +87 °C`).
//!
//! Checks the paper's four observations: (1) the border resistance drops,
//! (2) a longer detection condition with extra settling writes is needed,
//! (3) the stressed `w1` develops its own fail band, and (4) even a
//! defect-free cell no longer settles rail-to-rail in one operation.

use dso_bench::plot::{zip_points, AsciiChart};
use dso_core::analysis::DetectionCondition;
use dso_core::Session;
use dso_defects::{BitLineSide, Defect};
use dso_dram::design::{ColumnDesign, OperatingPoint};
use dso_num::interp::logspace;
use dso_spice::units::format_eng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Session::with_design(ColumnDesign::default());
    let defect = Defect::cell_open(BitLineSide::True);
    let nominal = OperatingPoint::nominal();
    let stressed = OperatingPoint {
        vdd: 2.1,
        tcyc: 55e-9,
        temp_c: 87.0,
        ..nominal
    };

    println!("Figure 6: result planes at the stressed SC");
    println!("===========================================");
    println!(
        "SC: Vdd = {} V, tcyc = {} ns, T = {} °C",
        stressed.vdd,
        stressed.tcyc * 1e9,
        stressed.temp_c
    );
    println!();

    let r_values = logspace(1e3, 1e7, 13)?;
    eprintln!(
        "generating stressed planes over {} resistance points…",
        r_values.len()
    );
    let campaign = session.planes(&defect, &stressed, &r_values, 3)?;
    // A published plane holds simulated points only, never interpolated gaps.
    if !campaign.confidence.is_full() {
        return Err(format!("plane campaign incomplete: {}", campaign.confidence).into());
    }
    let planes = campaign.planes;

    for (title, plane) in [
        ("(a) plane of w0", &planes.w0),
        ("(b) plane of w1", &planes.w1),
    ] {
        let mut chart =
            AsciiChart::new(&format!("{title} under the SC"), "R (Ohm)", "Vc (V)").with_log_x();
        for (i, curve) in plane.curves.iter().enumerate() {
            chart.add_series(
                &format!("({}) {}", i + 1, if plane.write_high { "w1" } else { "w0" }),
                zip_points(&r_values, curve.ys()),
            );
        }
        chart.add_series("Vsa(R)", zip_points(&r_values, planes.r.vsa.ys()));
        println!("{}", chart.render());
    }

    // (1) Border drop.
    let detection_nom = DetectionCondition::default_for(&defect, 2);
    let br_nominal = session.border(&defect, &detection_nom, &nominal, 0.03)?;
    let detection_sc = session.detect(&defect, br_nominal.resistance, &stressed, 6)?;
    let br_stressed = session.border(&defect, &detection_sc, &stressed, 0.03)?;
    println!(
        "(1) border resistance: nominal {} -> stressed {}   (paper: 200 kΩ -> ~50 kΩ)",
        format_eng(br_nominal.resistance, "Ω"),
        format_eng(br_stressed.resistance, "Ω"),
    );

    // (2) Longer detection condition.
    println!(
        "(2) detection condition: nominal {} -> stressed {}",
        detection_nom.display_for(defect.side()),
        detection_sc.display_for(defect.side()),
    );
    if detection_sc.len() > detection_nom.len() {
        println!("    the stressed SC needs extra settling writes, as in the paper");
    }

    // (3) w1 fail band: does the first w1 stay below Vsa anywhere?
    let w1_first = planes.w1.after_ops(1)?;
    let fail_band: Vec<f64> = r_values
        .iter()
        .copied()
        .filter(|&r| w1_first.eval_clamped(r) < planes.r.vsa.eval_clamped(r))
        .collect();
    match (fail_band.first(), fail_band.last()) {
        (Some(lo), Some(hi)) => println!(
            "(3) single-w1 fail band: {} .. {}",
            format_eng(*lo, "Ω"),
            format_eng(*hi, "Ω")
        ),
        _ => println!("(3) no single-w1 fail band inside the sweep"),
    }

    // (4) Even R = site-default no longer settles rail-to-rail in one op.
    let absent = defect.absent_resistance();
    let healthy = session
        .service()
        .settle_sequence(&defect, absent, &stressed, false, 1)?;
    println!(
        "(4) defect-free single w0 under the SC ends at {:.3} V (from {} V)",
        healthy[0], stressed.vdd
    );
    println!();
    println!("paper: the SC is very stressful — even with Rop = 0 a single write");
    println!("cannot swing the cell rail-to-rail, so detection conditions grow.");
    println!();
    println!("CSV (all plane series, for external plotting):");
    print!("{}", planes.to_csv());
    Ok(())
}
