//! Figure 7 — the simulated cell defects: 3 opens, 2 shorts, 2 bridges,
//! each on the true and the complementary bit line.

use dso_defects::Defect;
use dso_dram::column::DefectSite;

fn main() {
    println!("Figure 7: simulated cell defects");
    println!("================================");
    println!();
    println!("        BL                 BL                 BL");
    println!("         |                  |                  |");
    println!("  WL --|[ M          WL --|[ M          WL --|[ M");
    println!("         |-[O1..O3]-+       |--+---[Sg]-GND    |--+--[B1]-WL");
    println!("         |          |       |  +---[Sv]-Vdd    |  +--[B2]-BL");
    println!("        === Cs     ===     === Cs             === Cs");
    println!("         |          |       |                  |");
    println!("        GND        GND     GND                GND");
    println!("      (a) opens           (b) shorts         (c) bridges");
    println!();
    println!(
        "{:<12} {:<8} {:<10} {:<22} site meaning",
        "defect", "class", "fails for", "sweep range (Ω)"
    );
    println!("{}", "-".repeat(86));
    for defect in Defect::all() {
        let (lo, hi) = defect.sweep_range();
        let meaning = match defect.site() {
            DefectSite::O1 => "open in the bit-line contact",
            DefectSite::O2 => "open between transistor and storage node",
            DefectSite::O3 => "open between storage node and capacitor",
            DefectSite::Sg => "short from storage node to ground",
            DefectSite::Sv => "short from storage node to Vdd",
            DefectSite::B1 => "bridge from storage node to word line",
            DefectSite::B2 => "bridge from storage node to bit line",
        };
        println!(
            "{:<12} {:<8} {:<10} [{:>8.1e}, {:>8.1e}]  {}",
            defect.to_string(),
            defect.class().to_string(),
            if defect.fails_above() {
                "R > BR"
            } else {
                "R < BR"
            },
            lo,
            hi,
            meaning,
        );
    }
    println!();
    println!("victim cells carry all 7 pre-placed sites; injection sets one site's");
    println!("resistance (see `dso_dram::column` and `dso_defects`).");
}
