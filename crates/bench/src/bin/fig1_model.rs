//! Figure 1 — the electrical model of the defective memory cell.
//!
//! Prints the defective-cell topology (bit line, access transistor, the
//! `Rop` open, the storage capacitor) and the full column netlist it is
//! embedded in, matching the paper's Figure 1 plus the surrounding
//! "simplified design-validation model" of Section 5.1.

use dso_defects::{BitLineSide, Defect};
use dso_dram::column::{Column, DefectSite};
use dso_dram::design::ColumnDesign;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = ColumnDesign::default();
    let mut column = Column::build(&design)?;
    let defect = Defect::cell_open(BitLineSide::True);
    defect.inject(&mut column, 200e3)?;

    println!("Figure 1: electrical model of the defective memory cell");
    println!("=======================================================");
    println!();
    println!("          BL (bt)");
    println!("           |");
    println!("     WL --|[ access NMOS (Macc_true)");
    println!("           |");
    println!("           xs_true");
    println!("           |");
    println!("          [Rop]   <- injected open, R = 200 kOhm (site O2/O3 chain)");
    println!("           |");
    println!("           st_true / ct_true");
    println!("           |");
    println!("          ===  Cs = {} F", design.cs);
    println!("           |");
    println!("          GND");
    println!();
    println!("analysis range: Rop in [1 kOhm, 1 MOhm+], cell voltage Vc in [GND, Vdd]");
    println!();
    println!("Defect sites pre-placed in each victim cell:");
    for site in DefectSite::ALL {
        println!(
            "  {:3} {:7} default {:.0e} Ohm  ({})",
            site.label(),
            if site.is_series() { "series" } else { "shunt" },
            site.default_resistance(),
            site.device_name(BitLineSide::True),
        );
    }
    println!();
    println!("Full column netlist (paper Section 5.1: 2x2 cells + 2 reference");
    println!("cells + precharge + sense amplifier + write driver + output buffer):");
    println!();
    print!("{}", column.circuit());
    Ok(())
}
