//! Figure 2 — result planes for `w0`, `w1` and `r` at the nominal stress
//! combination (`Vdd = 2.4 V`, `tcyc = 60 ns`, `T = +27 °C`).
//!
//! Regenerates the three planes for the cell open of Figure 1, prints the
//! settlement curves, the sense-threshold curve `Vsa(R)`, the mid-point
//! voltage `Vmp`, and the border resistance from both extraction methods.

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

    println!("Figure 2: result planes at the nominal stress combination");
    println!("==========================================================");
    println!(
        "defect {defect}, Vdd = {} V, tcyc = {} ns, T = {} C",
        nominal.vdd,
        nominal.tcyc * 1e9,
        nominal.temp_c
    );
    println!();

    let r_values = logspace(1e3, 1e7, 13)?;
    eprintln!(
        "generating planes over {} resistance points…",
        r_values.len()
    );
    let campaign = session.planes(&defect, &nominal, &r_values, 2)?;
    // A published plane holds simulated points only, never interpolated gaps.
    if !campaign.confidence.is_full() {
        return Err(format!("plane campaign incomplete: {}", campaign.confidence).into());
    }
    let planes = campaign.planes;

    // (a) and (b): the write planes.
    for (title, plane) in [("(a)", &planes.w0), ("(b)", &planes.w1)] {
        let op = if plane.write_high { "w1" } else { "w0" };
        let title = format!("{title} plane of {op} — Vc after successive {op} ops");
        let mut chart = AsciiChart::new(&title, "R (Ohm)", "Vc (V)").with_log_x();
        for (i, curve) in plane.curves.iter().enumerate() {
            chart.add_series(
                &format!("({}) {op}", i + 1),
                zip_points(&r_values, curve.ys()),
            );
        }
        chart.add_series("Vsa(R)", zip_points(&r_values, planes.r.vsa.ys()));
        println!("{}", chart.render());
    }

    // (c) r plane.
    let mut chart = AsciiChart::new(
        "(c) plane of r — Vc after reads started 0.2 V around Vsa",
        "R (Ohm)",
        "Vc (V)",
    )
    .with_log_x();
    chart.add_series("Vsa(R)", zip_points(&r_values, planes.r.vsa.ys()));
    chart.add_series(
        "(1) r from below",
        zip_points(&r_values, planes.r.from_below[0].ys()),
    );
    chart.add_series(
        "(1) r from above",
        zip_points(&r_values, planes.r.from_above[0].ys()),
    );
    println!("{}", chart.render());

    println!(
        "Vmp (mid-point voltage of the healthy cell): {:.3} V",
        planes.vmp
    );
    match planes.border_from_intersection()? {
        Some(br) => println!(
            "border resistance from the w0 x Vsa curve intersection: {}",
            format_eng(br, "Ω")
        ),
        None => println!("no w0 x Vsa intersection inside the sweep"),
    }

    let detection = DetectionCondition::default_for(&defect, 2);
    let border = session.border(&defect, &detection, &nominal, 0.03)?;
    println!(
        "border resistance from pass/fail bisection of {}: {} ({} evaluations)",
        detection.display_for(defect.side()),
        format_eng(border.resistance, "Ω"),
        border.evaluations,
    );
    println!();
    println!("paper (Fig. 2 / Sec. 4): BR ≈ 200 kΩ at the nominal SC; Vsa moves");
    println!("toward GND as R grows, so large opens read 1 instead of 0.");
    println!();
    println!("CSV (all plane series, for external plotting):");
    print!("{}", planes.to_csv());
    Ok(())
}
