//! Table 1 does not depend on the simulation time step.
//!
//! `results/table1.txt` is computed at the column's default time step,
//! `tcyc/600`. Halving the step to `tcyc/1200` must print the same 14-row
//! table, byte for byte: every border, stress direction and stressed
//! detection condition of the reproduction is a property of the circuit,
//! not of the integration grid.
//!
//! The run takes about 8 s in release (two threads), so the test is
//! ignored by default; `ci.sh` runs it in release with `--ignored`.

use dram_stress_opt::dram::design::ColumnDesign;
use dram_stress_opt::stress::table::{format_table, optimize_all};
use dram_stress_opt::stress::{OperatingPoint, StressKind, StressOptimizer};

/// The lines of a text that belong to its Markdown table.
fn table_lines(text: &str) -> Vec<&str> {
    text.lines().filter(|l| l.starts_with('|')).collect()
}

#[test]
#[ignore = "about 8 s in release; ci.sh runs it"]
fn table1_at_half_the_time_step_prints_the_committed_table() {
    let design = ColumnDesign {
        dt_fraction: 1.0 / 1200.0,
        ..ColumnDesign::default()
    };
    let optimizer = StressOptimizer::new(design);
    let reports =
        optimize_all(&optimizer, &OperatingPoint::nominal(), |_| {}).expect("Table 1 optimizes");
    let table = format_table(&reports, &StressKind::TABLE1);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/table1.txt");
    let committed = std::fs::read_to_string(path).expect("results/table1.txt");
    let committed = table_lines(&committed);
    assert_eq!(committed.len(), 16, "header, rule and 14 rows");
    assert_eq!(table_lines(&table), committed);
}
