//! Shmoo plot: the pass/fail behaviour of a defective device over a
//! `(Vdd × tcyc)` stress grid — the traditional optimization method of
//! Section 2 of the paper, driven here by electrical simulation instead of
//! a production tester.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example shmoo_plot
//! ```

use dram_stress_opt::analysis::DetectionCondition;
use dram_stress_opt::defects::{BitLineSide, Defect};
use dram_stress_opt::dram::design::ColumnDesign;
use dram_stress_opt::stress::{OperatingPoint, StressKind};
use dram_stress_opt::Session;
use dso_num::interp::linspace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Session::with_design(ColumnDesign::default());
    let nominal = OperatingPoint::nominal();
    let defect = Defect::cell_open(BitLineSide::True);
    let detection = DetectionCondition::default_for(&defect, 2);

    // Pick a defect resistance slightly *below* the nominal border: the
    // device passes at nominal conditions, and the shmoo shows which
    // corner of the stress plane exposes it.
    let border = session.border(&defect, &detection, &nominal, 0.05)?;
    let r_marginal = border.resistance * 0.9;
    println!(
        "device under test: {defect} at R = {r_marginal:.3e} Ω (border {:.3e} Ω)",
        border.resistance
    );
    println!(
        "test applied at every grid point: {}",
        detection.display_for(defect.side())
    );
    println!();

    let (vdd_lo, vdd_hi) = StressKind::SupplyVoltage.spec_range();
    let (tcyc_lo, tcyc_hi) = StressKind::CycleTime.spec_range();
    let vdds = linspace(vdd_lo, vdd_hi, 7)?;
    let tcycs = linspace(tcyc_lo, tcyc_hi, 5)?;

    let plot = session.shmoo_detection(
        &defect,
        &detection,
        r_marginal,
        "Vdd (V)",
        &vdds,
        "tcyc (s)",
        &tcycs,
        |vdd, tcyc| {
            Ok(OperatingPoint {
                vdd,
                tcyc,
                ..nominal
            })
        },
    )?;

    println!("{}", plot.render_ascii());
    println!("pass rate over the grid: {:.0}%", plot.pass_rate() * 100.0);
    println!(
        "border search: {} evaluation(s); shmoo grid: {} point(s)",
        border.evaluations,
        vdds.len() * tcycs.len()
    );
    println!();
    println!("the failing corner (low Vdd, short tcyc) is exactly the stress");
    println!("combination the simulation-based optimizer picks — without needing");
    println!("a {}-point tester sweep.", vdds.len() * tcycs.len());
    println!();
    println!("CSV for external plotting:");
    print!("{}", plot.render_csv());
    Ok(())
}
