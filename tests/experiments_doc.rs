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

/// The CSV block at the end of a plane figure: its header and rows.
fn plane_csv(output: &str) -> (Vec<&str>, Vec<Vec<f64>>) {
    let mut lines = output.lines().skip_while(|l| !l.starts_with("R_ohm,"));
    let header: Vec<&str> = lines.next().expect("a CSV header").split(',').collect();
    let rows = lines
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            l.split(',')
                .map(|v| v.parse().unwrap_or_else(|e| panic!("{v:?}: {e}")))
                .collect()
        })
        .collect();
    (header, rows)
}

#[test]
fn fig2_planes_keep_the_papers_shape() {
    let output = read("results/fig2_result_planes.txt");
    let (header, rows) = plane_csv(&output);
    assert_eq!(rows.len(), 13, "13 resistance points");
    let column = |name: &str| -> Vec<f64> {
        let k = header
            .iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("no {name} column in {header:?}"));
        rows.iter().map(|r| r[k]).collect()
    };
    let value = |prefix: &str| {
        output
            .lines()
            .find_map(|l| l.trim().strip_prefix(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line"))
    };
    let crossing = ohms(value(
        "border resistance from the w0 x Vsa curve intersection: ",
    ));
    let bisection = ohms(
        value("border resistance from pass/fail bisection of {... w1 w1 w0 r0 ...}: ")
            .split(" (")
            .next()
            .expect("a border"),
    );
    let r = column("R_ohm");
    // Fig. 2(a): an open keeps a 0 from being written, more so the larger
    // it is, so both w0 curves rise with R, from a clean 0 at 1 kΩ up to
    // their peak, which lies within a decade below the border.
    for name in ["w0_1", "w0_2"] {
        let w0 = column(name);
        let peak = (0..w0.len()).fold(0, |best, i| if w0[i] > w0[best] { i } else { best });
        assert!(w0[0].abs() < 0.05, "{name} at 1 kΩ is {} V", w0[0]);
        assert!(
            w0[..=peak].windows(2).all(|w| w[0] <= w[1]),
            "{name} does not rise up to its peak: {w0:?}"
        );
        assert!(
            (bisection / 10.0..=bisection).contains(&r[peak]),
            "{name} peaks at {} Ω, not within a decade below the border {bisection} Ω",
            r[peak]
        );
    }
    // Vsa falls with R, to GND by 10 MΩ: large opens read 1 instead of 0.
    let vsa = column("vsa");
    assert!(
        vsa.windows(2).all(|w| w[0] >= w[1]),
        "Vsa does not fall with R: {vsa:?}"
    );
    assert_eq!(r.last().map(|r| r.round()), Some(1e7));
    assert!(vsa[vsa.len() - 1].abs() < 1e-6, "Vsa at 10 MΩ is {vsa:?}");

    // The healthy cell's mid-point voltage sits near Vdd/2.
    let vdd: f64 = value("defect O3 (true), Vdd = ")
        .split(' ')
        .next()
        .and_then(|v| v.parse().ok())
        .expect("the supply voltage");
    let vmp: f64 = value("Vmp (mid-point voltage of the healthy cell): ")
        .trim_end_matches(" V")
        .parse()
        .expect("Vmp");
    assert!(
        (vmp - vdd / 2.0).abs() <= 0.1 * vdd / 2.0,
        "Vmp {vmp} V is not within 10 % of Vdd/2 = {} V",
        vdd / 2.0
    );
    // The two border extractions agree within 10 %.
    assert!(
        (crossing - bisection).abs() <= 0.1 * bisection,
        "intersection border {crossing} Ω and bisection border {bisection} Ω differ by more than 10 %"
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
