//! Figure 4 — optimizing the temperature stress: `T ∈ {−33, +27, +87} °C`
//! with `Rop = 200 kΩ`, `Vdd = 2.4 V`, `tcyc = 60 ns`.
//!
//! Top panel: higher temperature leaves a higher `w0` residual (mobility
//! falls with T). Bottom panel: a read from just above the nominal `Vsa`
//! probes the threshold's *non-monotonic* temperature behaviour the paper
//! highlights. The ambiguity is resolved by comparing border resistances
//! at +27 °C and +87 °C (paper Section 4.2).

use dso_bench::figures::{read_panel, w0_panel};
use dso_bench::plot::{zip_points, AsciiChart};
use dso_core::analysis::DetectionCondition;
use dso_core::stress::StressKind;
use dso_core::Session;
use dso_defects::{BitLineSide, Defect};
use dso_dram::design::{ColumnDesign, OperatingPoint};
use dso_spice::units::format_eng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Session::with_design(ColumnDesign::default());
    let defect = Defect::cell_open(BitLineSide::True);
    let nominal = OperatingPoint::nominal();
    // Probe at the measured nominal border resistance — the paper probes at
    // its border (200 kOhm for its memory model); ours differs in absolute
    // value because the column parameters are documented substitutions.
    let detection = DetectionCondition::default_for(&defect, 2);
    let rop = session
        .border(&defect, &detection, &nominal, 0.05)?
        .resistance;
    eprintln!("probing at the measured nominal border Rop = {rop:.3e} Ohm (paper: 200 kOhm)");
    let temps = [-33.0, 27.0, 87.0];

    println!("Figure 4: simulation with T = -33 °C, +27 °C and +87 °C");
    println!("========================================================");
    println!("Rop = nominal border (paper: 200 kΩ), Vdd = 2.4 V, tcyc = 60 ns");
    println!();

    // --- Top panel: w0 -------------------------------------------------
    let mut chart = AsciiChart::new("Vc after a w0 operation", "t (s)", "Vc (V)");
    let mut endpoints = Vec::new();
    for &t in &temps {
        let op = StressKind::Temperature.apply_to(&nominal, t)?;
        let label = format!("T = {t:+.0} °C");
        let panel = w0_panel(session.service(), &defect, rop, &op, &label)?;
        endpoints.push((label.clone(), panel.vc_end));
        chart.add_series(&label, zip_points(&panel.times, &panel.vc));
    }
    println!("{}", chart.render());
    for (label, vc) in &endpoints {
        println!("  end-of-cycle Vc ({label}): {vc:.3} V");
    }
    let hot_weaker = endpoints[2].1 > endpoints[1].1;
    if hot_weaker {
        println!("  => increasing T reduces the ability of w0 to write a 0 (drain");
        println!("     current falls as carrier mobility drops with temperature)");
    } else {
        println!("  => at this border the ohmic open dominates the write path, so");
        println!("     the drive-strength (mobility) effect on w0 is small here; the");
        println!("     temperature decision falls to the read threshold and the");
        println!("     border comparison below (the paper's fallback, Sec. 4.2)");
    }
    println!();

    // --- Bottom panel: read around the threshold ------------------------
    let vsa_nom = session.service().vsa(&defect, rop, &nominal)?;
    let vc_init = (vsa_nom + 0.05).min(nominal.vdd);
    println!("nominal Vsa at the border: {vsa_nom:.3} V; reads start at {vc_init:.3} V");
    let mut chart = AsciiChart::new("Vc after a read operation", "t (s)", "Vc (V)");
    let mut vsas = Vec::new();
    for &t in &temps {
        let op = StressKind::Temperature.apply_to(&nominal, t)?;
        let label = format!("T = {t:+.0} °C");
        let panel = read_panel(session.service(), &defect, rop, &op, vc_init, &label)?;
        let vsa_t = session.service().vsa(&defect, rop, &op)?;
        vsas.push((t, vsa_t, panel.sensed_high));
        chart.add_series(&label, zip_points(&panel.times, &panel.vc));
    }
    println!("{}", chart.render());
    for (t, vsa, sensed) in &vsas {
        println!(
            "  T = {t:+.0} °C: Vsa = {vsa:.3} V, sensed {}",
            if sensed.unwrap_or(false) { "1" } else { "0" }
        );
    }
    let shifts: Vec<f64> = vsas.iter().map(|(_, v, _)| *v).collect();
    let monotone = shifts.windows(2).all(|w| w[1] <= w[0] + 1e-3)
        || shifts.windows(2).all(|w| w[1] >= w[0] - 1e-3);
    println!(
        "  => Vsa versus T is {} (paper: multiple opposing temperature",
        if monotone {
            "monotone here"
        } else {
            "NON-MONOTONIC"
        }
    );
    println!("     mechanisms: threshold voltage, drain current, leakage)");
    println!();

    // --- Resolve by border comparison -----------------------------------
    let mut borders = Vec::new();
    for &t in &[27.0, 87.0] {
        let op = StressKind::Temperature.apply_to(&nominal, t)?;
        let border = session.border(&defect, &detection, &op, 0.03)?;
        println!(
            "  BR at T = {t:+.0} °C: {}",
            format_eng(border.resistance, "Ω")
        );
        borders.push((t, border.resistance));
    }
    let (t_best, br_best) = borders
        .iter()
        .copied()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite borders"))
        .expect("two candidates");
    let br_other = borders.iter().map(|&(_, b)| b).fold(0.0_f64, f64::max);
    println!();
    if (br_other - br_best) / br_best < 0.04 {
        println!("conclusion: the BR difference is below the bisection resolution —");
        println!("temperature barely moves this defect's border. That is consistent");
        println!("with the paper, which reports only a 5 kΩ (≈2.5%) BR reduction at");
        println!("high T for its 200 kΩ cell open.");
    } else {
        println!("conclusion (paper Sec. 4.2): the lower BR wins — T = {t_best:+.0} °C is the");
        println!("more effective temperature (the paper reports high T reducing BR).");
    }
    Ok(())
}
