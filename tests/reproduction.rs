//! End-to-end reproduction checks of the paper's central claims, at
//! test-friendly (coarse) simulation settings.

use dram_stress_opt::analysis::{Confidence, DetectionCondition};
use dram_stress_opt::defects::{BitLineSide, Defect};
use dram_stress_opt::dram::design::ColumnDesign;
use dram_stress_opt::stress::OperatingPoint;
use dram_stress_opt::Session;

fn fast_design() -> ColumnDesign {
    ColumnDesign {
        dt_fraction: 1.0 / 200.0,
        ..ColumnDesign::default()
    }
}

#[test]
fn border_extraction_methods_agree() {
    // The paper's border (Fig. 2a) is the intersection of the (2)w0 curve
    // with Vsa(R); we also implement direct pass/fail bisection. The two
    // independent methods must agree to well within a factor of two.
    let session = Session::with_design(fast_design());
    let defect = Defect::cell_open(BitLineSide::True);
    let nominal = OperatingPoint::nominal();
    let detection = DetectionCondition::default_for(&defect, 2);
    let bisect = session
        .border(&defect, &detection, &nominal, 0.08)
        .expect("cell open has a border");

    let r_values: Vec<f64> = [0.25, 0.5, 1.0, 2.0, 4.0]
        .iter()
        .map(|f| f * bisect.resistance)
        .collect();
    let campaign = session
        .planes(&defect, &nominal, &r_values, 2)
        .expect("planes generate");
    // Every point simulated: no gap, no interpolated value.
    assert_eq!(campaign.confidence, Confidence::Full);
    assert_eq!(campaign.report.failed(), 0);
    let intersection = campaign
        .planes
        .border_from_intersection()
        .expect("intersection computable")
        .expect("curves cross within the sweep");
    let ratio = intersection / bisect.resistance;
    assert!(
        (0.5..2.0).contains(&ratio),
        "intersection {intersection:.3e} vs bisection {:.3e}",
        bisect.resistance
    );
}

#[test]
fn true_comp_symmetry() {
    // Table 1: the border value and optimization direction are the same
    // for true and complementary defects; detection conditions have 1s and
    // 0s interchanged.
    let session = Session::with_design(fast_design());
    let nominal = OperatingPoint::nominal();
    let mut borders = Vec::new();
    for side in [BitLineSide::True, BitLineSide::Comp] {
        let defect = Defect::cell_open(side);
        let detection = DetectionCondition::default_for(&defect, 2);
        // Rendering is side-dependent with interchange.
        let rendered = detection.display_for(side);
        match side {
            BitLineSide::True => assert_eq!(rendered, "{... w1 w1 w0 r0 ...}"),
            BitLineSide::Comp => assert_eq!(rendered, "{... w0 w0 w1 r1 ...}"),
        }
        let border = session
            .border(&defect, &detection, &nominal, 0.08)
            .expect("border exists");
        borders.push(border.resistance);
    }
    let ratio = borders[0] / borders[1];
    assert!(
        (0.6..1.6).contains(&ratio),
        "true {:.3e} vs comp {:.3e}",
        borders[0],
        borders[1]
    );
}

#[test]
fn stressed_combination_widens_failing_range() {
    // Figure 6 / Table 1: the stress combination Vdd=2.1 V, tcyc=55 ns,
    // T=+87 °C lowers the border of the cell open.
    let session = Session::with_design(fast_design());
    let defect = Defect::cell_open(BitLineSide::True);
    let nominal = OperatingPoint::nominal();
    let stressed = OperatingPoint {
        vdd: 2.1,
        tcyc: 55e-9,
        temp_c: 87.0,
        ..nominal
    };
    let detection = DetectionCondition::default_for(&defect, 2);
    let br_nom = session.border(&defect, &detection, &nominal, 0.08).unwrap();
    let br_str = session
        .border(&defect, &detection, &stressed, 0.08)
        .unwrap();
    assert!(
        br_str.resistance < br_nom.resistance,
        "stressed border {:.3e} should undercut nominal {:.3e}",
        br_str.resistance,
        br_nom.resistance
    );
}

#[test]
fn vsa_collapses_to_gnd_for_large_opens() {
    // Paper footnote (Sec. 3): as Rop grows, a stored 0 fails to pull the
    // bit line down and the sense amplifier reads 1 — i.e. Vsa -> GND.
    let session = Session::with_design(fast_design());
    let defect = Defect::cell_open(BitLineSide::True);
    let nominal = OperatingPoint::nominal();
    let vsa_healthy = session.service().vsa(&defect, 1e3, &nominal).unwrap();
    let vsa_open = session.service().vsa(&defect, 1e9, &nominal).unwrap();
    assert!(vsa_healthy > 0.4, "healthy threshold near mid-rail");
    assert_eq!(vsa_open, 0.0, "fully open cell always reads 1");
}

#[test]
fn stressed_detection_needs_more_settling_writes() {
    // Figure 6, observation 2: under the stressed SC the detection
    // condition needs more operations to charge the cell high enough.
    let session = Session::with_design(fast_design());
    let defect = Defect::cell_open(BitLineSide::True);
    let nominal = OperatingPoint::nominal();
    let stressed = OperatingPoint {
        vdd: 2.1,
        tcyc: 55e-9,
        temp_c: 87.0,
        ..nominal
    };
    let detection = DetectionCondition::default_for(&defect, 2);
    let border = session.border(&defect, &detection, &nominal, 0.1).unwrap();
    let nominal_cond = session
        .detect(&defect, border.resistance, &nominal, 6)
        .unwrap();
    let stressed_cond = session
        .detect(&defect, border.resistance, &stressed, 6)
        .unwrap();
    assert!(
        stressed_cond.len() >= nominal_cond.len(),
        "stressed {stressed_cond} should not be shorter than nominal {nominal_cond}"
    );
}
