//! The paper column's MNA Jacobian under the solver's LU factorization.
//!
//! Every Newton solve of a column declares the Jacobian's structural
//! pattern, and its LU eliminates in a minimum-degree order of that
//! pattern. This pins the fill and the elimination work of that order on
//! the column itself, as counts, so a change that loses the order fails
//! here on any host, whatever the timings say.

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

    let mut ordered = LuFactor::empty();
    ordered.set_pattern(Some(pattern)).unwrap();
    ordered.refactor_into(a).unwrap();
    let natural = LuFactor::new(a).unwrap();

    // L and U together hold at most a tenth more than the pattern, and a
    // refactor's elimination is at most 100 multiply-subtracts. The
    // natural order fills the same matrix about threefold (446 stored
    // entries, 1105 updates on the operating point's Jacobian).
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
