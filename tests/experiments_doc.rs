//! EXPERIMENTS.md quotes the Table-1 block that the `table1` binary
//! prints. `ci.sh` gates `results/table1.txt` against the binary; this
//! test gates the document against that file. The shape tests below
//! check the paper's claims on the committed artifacts themselves, so a
//! regenerated artifact that breaks a claim fails a named test. None of
//! them runs a simulation.

use std::path::Path;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The lines of the first fenced block under the `## Table 1` heading.
fn documented_table(doc: &str) -> Vec<&str> {
    let block: Vec<&str> = doc
        .lines()
        .skip_while(|l| !l.starts_with("## Table 1"))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .skip_while(|l| !l.starts_with("```"))
        .skip(1)
        .take_while(|l| !l.starts_with("```"))
        .collect();
    assert!(!block.is_empty(), "no fenced table under `## Table 1`");
    block
}

#[test]
fn experiments_table1_block_matches_the_committed_output() {
    let doc = read("EXPERIMENTS.md");
    let output = read("results/table1.txt");
    let committed: Vec<&str> = output.lines().filter(|l| l.starts_with('|')).collect();
    assert!(!committed.is_empty(), "results/table1.txt has no table");
    assert_eq!(documented_table(&doc), committed);
}

/// A resistance printed as `<value> <prefix>Ω` (`kΩ`, `MΩ` or plain `Ω`),
/// in ohms.
fn ohms(text: &str) -> f64 {
    let text = text.trim();
    let (value, unit) = text
        .split_once(' ')
        .unwrap_or_else(|| panic!("no unit in {text:?}"));
    let scale = match unit {
        "Ω" => 1.0,
        "kΩ" => 1e3,
        "MΩ" => 1e6,
        _ => panic!("unknown unit in {text:?}"),
    };
    value
        .parse::<f64>()
        .unwrap_or_else(|e| panic!("{text:?}: {e}"))
        * scale
}

#[test]
fn fig5_border_rises_with_the_supply_voltage() {
    let output = read("results/fig5_voltage.txt");
    let borders: Vec<(f64, f64)> = output
        .lines()
        .filter_map(|l| l.trim().strip_prefix("BR at Vdd = "))
        .map(|rest| {
            let (vdd, br) = rest.split_once(" V: ").expect("`<vdd> V: <BR>`");
            (vdd.parse().expect("supply voltage"), ohms(br))
        })
        .collect();
    let supplies: Vec<f64> = borders.iter().map(|&(vdd, _)| vdd).collect();
    assert_eq!(supplies, [2.1, 2.4, 2.7]);
    // Fig. 5 / Sec. 4.3: the lowest supply gives the lowest border, so
    // 2.1 V is the most stressful supply for the cell open.
    assert!(
        borders.windows(2).all(|w| w[0].1 < w[1].1),
        "BR is not ordered 2.1 < 2.4 < 2.7 V: {borders:?}"
    );
}

#[test]
fn fig6_stressed_border_lies_below_the_nominal_one() {
    let output = read("results/fig6_sc_planes.txt");
    let line = output
        .lines()
        .find_map(|l| l.trim().strip_prefix("(1) border resistance: nominal "))
        .expect("a `(1) border resistance` line");
    let (nominal, rest) = line.split_once(" -> stressed ").expect("`-> stressed`");
    let stressed = rest.split("   ").next().expect("stressed border");
    let (nominal, stressed) = (ohms(nominal), ohms(stressed));
    // Fig. 6 (1): the stressed SC detects the open from a smaller
    // resistance on (paper: 200 kΩ -> ~50 kΩ).
    assert!(
        stressed < nominal,
        "stressed border {stressed} Ω is not below the nominal {nominal} Ω"
    );
}

/// One row of the committed Table 1.
#[derive(Debug)]
struct Table1Row {
    defect: String,
    side: String,
    /// `true` for `R > border` (opens), `false` for `R < border`.
    fails_above: bool,
    nominal: f64,
    arrows: [String; 3],
    stressed: f64,
}

fn table1_rows(output: &str) -> Vec<Table1Row> {
    let border = |cell: &str| {
        let cell = cell.trim();
        match (cell.strip_prefix("R > "), cell.strip_prefix("R < ")) {
            (Some(r), _) => (true, ohms(r)),
            (_, Some(r)) => (false, ohms(r)),
            _ => panic!("not a border: {cell:?}"),
        }
    };
    output
        .lines()
        .filter(|l| l.starts_with('|') && !l.starts_with("| Defect") && !l.starts_with("|--"))
        .map(|l| {
            let cells: Vec<&str> = l.trim_matches('|').split('|').map(str::trim).collect();
            assert_eq!(cells.len(), 7, "row {l:?}");
            let (defect, side) = cells[0].split_once(' ').expect("`<defect> (<side>)`");
            let (fails_above, nominal) = border(cells[1]);
            let (stressed_above, stressed) = border(cells[5]);
            assert_eq!(fails_above, stressed_above, "row {l:?}");
            Table1Row {
                defect: defect.to_string(),
                side: side.to_string(),
                fails_above,
                nominal,
                arrows: [cells[2], cells[3], cells[4]].map(str::to_string),
                stressed,
            }
        })
        .collect()
}

#[test]
fn table1_rows_keep_the_papers_shape() {
    let rows = table1_rows(&read("results/table1.txt"));
    assert_eq!(rows.len(), 14, "{rows:#?}");
    for row in &rows {
        let what = format!("{} {}", row.defect, row.side);
        assert!(
            row.arrows.iter().all(|a| a == "↑" || a == "↓"),
            "{what}: arrows {:?}",
            row.arrows
        );
        // Opens are write-time limited: a shorter cycle is more stressful.
        if row.defect.starts_with('O') {
            assert!(row.fails_above, "{what}: an open fails above its border");
            assert_eq!(row.arrows[1], "↓", "{what}: tcyc");
        }
        // The stressed SC never shrinks the failing range.
        if row.fails_above {
            assert!(row.stressed <= row.nominal, "{what}: {row:?}");
        } else {
            assert!(row.stressed >= row.nominal, "{what}: {row:?}");
        }
    }
    // The true and complementary sides of a defect agree on every arrow.
    for pair in rows.chunks(2) {
        let [t, c] = pair else {
            panic!("unpaired row {pair:?}")
        };
        assert_eq!((t.side.as_str(), c.side.as_str()), ("(true)", "(comp)"));
        assert_eq!(t.defect, c.defect);
        assert_eq!(t.arrows, c.arrows, "{}: true/comp arrows", t.defect);
    }
}
