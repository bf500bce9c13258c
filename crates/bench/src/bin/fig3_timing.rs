//! Figure 3 — optimizing the timing stress: `tcyc` 60 ns versus 55 ns
//! with `Rop = 200 kΩ`, `Vdd = 2.4 V`, `T = +27 °C`.
//!
//! Top panel: the cell voltage during a `w0` operation — the shorter cycle
//! leaves a higher residual (weaker write). Bottom panel: a read from just
//! below `Vsa` — the sensed value does not change with timing. Conclusion
//! (paper Section 4.1): reducing `tcyc` is the more stressful condition.

use dso_bench::figures::{read_panel, w0_panel};
use dso_bench::plot::{zip_points, AsciiChart};
use dso_core::analysis::DetectionCondition;
use dso_core::stress::StressKind;
use dso_core::Session;
use dso_defects::{BitLineSide, Defect};
use dso_dram::design::{ColumnDesign, OperatingPoint};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Session::with_design(ColumnDesign::default());
    let defect = Defect::cell_open(BitLineSide::True);
    let nominal = OperatingPoint::nominal();
    // Probe at the measured nominal border resistance — the paper probes at
    // its border (200 kOhm for its memory model); ours differs in absolute
    // value because the column parameters are documented substitutions.
    let detection_probe = DetectionCondition::default_for(&defect, 2);
    let rop = session
        .border(&defect, &detection_probe, &nominal, 0.05)?
        .resistance;
    eprintln!("probing at the measured nominal border Rop = {rop:.3e} Ohm (paper: 200 kOhm)");

    println!("Figure 3: simulation of reducing tcyc from 60 ns to 55 ns");
    println!("==========================================================");
    println!("Rop = nominal border (paper: 200 kΩ), Vdd = 2.4 V, T = +27 °C");
    println!();

    let tcycs = [60e-9, 55e-9];
    // --- Top panel: w0 ------------------------------------------------
    let mut chart = AsciiChart::new("Vc after a w0 operation", "t (s)", "Vc (V)");
    let mut endpoints = Vec::new();
    for &tcyc in &tcycs {
        let op = StressKind::CycleTime.apply_to(&nominal, tcyc)?;
        let label = format!("tcyc = {:.0} ns", tcyc * 1e9);
        let panel = w0_panel(session.service(), &defect, rop, &op, &label)?;
        endpoints.push((label.clone(), panel.vc_end));
        chart.add_series(&label, zip_points(&panel.times, &panel.vc));
    }
    println!("{}", chart.render());
    for (label, vc) in &endpoints {
        println!("  end-of-cycle Vc ({label}): {vc:.3} V");
    }
    let weaker = endpoints[1].1 > endpoints[0].1;
    println!(
        "  => reducing tcyc {} the ability of w0 to write a 0 into the cell",
        if weaker { "reduces" } else { "does not reduce" },
    );
    println!();

    // --- Bottom panel: read just below Vsa -----------------------------
    let vsa = session.service().vsa(&defect, rop, &nominal)?;
    let vc_init = (vsa - 0.1).max(0.0);
    println!("Vsa at the border (nominal SC): {vsa:.3} V; reads start at {vc_init:.3} V");
    let mut chart = AsciiChart::new("Vc after a read operation", "t (s)", "Vc (V)");
    let mut sensed = Vec::new();
    for &tcyc in &tcycs {
        let op = StressKind::CycleTime.apply_to(&nominal, tcyc)?;
        let label = format!("tcyc = {:.0} ns", tcyc * 1e9);
        let panel = read_panel(session.service(), &defect, rop, &op, vc_init, &label)?;
        sensed.push((label.clone(), panel.sensed_high));
        chart.add_series(&label, zip_points(&panel.times, &panel.vc));
    }
    println!("{}", chart.render());
    for (label, s) in &sensed {
        println!(
            "  sensed value ({label}): {}",
            if s.unwrap_or(false) { "1" } else { "0" }
        );
    }
    let unchanged = sensed[0].1 == sensed[1].1;
    println!(
        "  => timing has {} impact on the detected value (Vsa)",
        if unchanged { "no" } else { "an" }
    );
    println!();
    println!("conclusion (paper Sec. 4.1): decreasing tcyc is more stressful for");
    println!("the w0 operation and has no impact on Vsa — reduce the cycle time.");
    Ok(())
}
