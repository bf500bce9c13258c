//! The paper column's MNA Jacobian under the solver's LU factorization.
//!
//! Every one of the column's voltage sources runs from a node to ground,
//! so each pins its node out of the Newton system, and every Newton solve
//! of a column declares the Jacobian's structural pattern, over which its
//! LU eliminates in a minimum-degree order. This pins the Newton dimension
//! and the fill and elimination work of that order on the column itself,
//! as counts, so a change that re-adds branch unknowns or loses the order
//! fails here on any host, whatever the timings say.

use dram_stress_opt::dram::column::Column;
use dram_stress_opt::dram::design::ColumnDesign;
use dram_stress_opt::num::lu::LuFactor;
use dram_stress_opt::num::matrix::norm_inf;
use dram_stress_opt::spice::engine::Simulator;

#[test]
fn column_jacobian_factors_with_little_fill() {
    let column = Column::build(&ColumnDesign::default()).unwrap();
    let sim = Simulator::new(column.circuit());
    let op = sim.dc_operating_point().unwrap();
    let jacobian = sim.jacobian(op.as_slice()).unwrap();
    let (a, pattern) = (jacobian.matrix(), jacobian.pattern());
    assert_eq!(pattern.dim(), a.rows());

    // Results keep every node voltage and every source current: 29 nodes
    // and 13 sources. Newton solves for the 29 − 13 nodes the sources do
    // not pin.
    let nodes = column.circuit().node_count() - 1;
    let sources = op.as_slice().len() - nodes;
    assert_eq!((nodes, sources), (29, 13));
    assert_eq!(a.rows(), nodes - sources, "Newton unknowns");

    let mut ordered = LuFactor::empty();
    ordered.set_pattern(Some(pattern)).unwrap();
    ordered.refactor_into(a).unwrap();
    let natural = LuFactor::new(a).unwrap();

    // L and U together hold at most a tenth more than the pattern, and a
    // refactor's elimination is at most 100 multiply-subtracts; today the
    // pattern holds 50 entries, L and U 54, and a refactor performs 27
    // updates. The natural order fills the same matrix about threefold
    // (150 stored entries, 403 updates on the operating point's Jacobian).
    let (fill, updates) = (ordered.nonzeros(), ordered.updates());
    assert!(
        fill as f64 <= 1.1 * pattern.nonzeros() as f64,
        "L+U holds {fill} entries, the pattern {}",
        pattern.nonzeros()
    );
    assert!(updates <= 100, "{updates} updates per refactor");
    assert!(
        natural.nonzeros() > 2 * fill && natural.updates() > 10 * updates,
        "natural order: {} entries, {} updates",
        natural.nonzeros(),
        natural.updates()
    );

    // The ordered factors solve the system as backward-stably as the
    // natural ones. (The DC Jacobian is ill-conditioned, with nodes held
    // only by gmin, so the two solutions agree only to about 1e-7.)
    let b: Vec<f64> = (0..a.rows()).map(|i| (i as f64).sin()).collect();
    for (name, lu) in [("ordered", &ordered), ("natural", &natural)] {
        let x = lu.solve(&b).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        let r: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        let error = norm_inf(&r) / (a.norm_inf() * norm_inf(&x) + norm_inf(&b));
        assert!(error <= 1e-12, "{name} order: backward error {error:e}");
    }
}
