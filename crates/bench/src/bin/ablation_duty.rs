//! Ablation: the duty-cycle stress the paper names but never evaluates.
//!
//! Section 2 lists two timing stresses — the cycle time and the duty
//! cycle. The evaluation only exercises `tcyc`; this binary completes the
//! picture by measuring the cell-open border across the duty-cycle
//! specification range at fixed `tcyc`, and by running the optimizer with
//! the duty cycle included.

use dso_core::analysis::DetectionCondition;
use dso_core::stress::{OperatingPoint, OptimizerConfig, StressKind, StressOptimizer};
use dso_core::Session;
use dso_defects::{BitLineSide, Defect};
use dso_dram::design::ColumnDesign;
use dso_spice::units::format_eng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Session::with_design(ColumnDesign::default());
    let defect = Defect::cell_open(BitLineSide::True);
    let nominal = OperatingPoint::nominal();
    let detection = DetectionCondition::default_for(&defect, 2);

    println!("Ablation: duty cycle as a test stress (paper Sec. 2, unevaluated)");
    println!("==================================================================");
    println!();

    // Border versus duty cycle at otherwise nominal conditions.
    let (lo, hi) = StressKind::DutyCycle.spec_range();
    println!("border resistance of {defect} vs duty cycle (tcyc = 60 ns):");
    for duty in [lo, 0.45, 0.5, 0.55, hi] {
        let op = StressKind::DutyCycle.apply_to(&nominal, duty)?;
        let border = session.border(&defect, &detection, &op, 0.03)?;
        println!(
            "  duty = {duty:.2}: BR = {}",
            format_eng(border.resistance, "Ω")
        );
    }
    println!();
    println!("note the direction: with this FIXED two-write detection condition a");
    println!("wider duty lowers the border (more stressful) because the longer");
    println!("word-line window charges the setup w1s higher, giving the w0 under");
    println!("test more charge to remove. The write-isolated probe (below) sees");
    println!("the opposite — a narrower window weakens the w0 itself — which is");
    println!("why the methodology re-derives the detection condition after");
    println!("composing the stress combination (paper Sec. 4.4).");
    println!();

    // Optimizer run with all four stresses.
    println!("optimizer with all four stresses (Vdd, tcyc, duty, T):");
    let optimizer = StressOptimizer::with_session(session).with_config(OptimizerConfig {
        border_tol: 0.03,
        max_settling_writes: 6,
        stresses: StressKind::ALL.to_vec(),
        ..OptimizerConfig::default()
    });
    let report = optimizer.optimize(&defect, &nominal)?;
    println!("{report}");
    Ok(())
}
