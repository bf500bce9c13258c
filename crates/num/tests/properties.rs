//! Property-style tests of the numerical kernel.
//!
//! Driven by the in-tree deterministic [`TestRng`] rather than an external
//! property-testing crate so the suite builds with no registry access.
//! Every case derives from a fixed seed and replays bit-for-bit.

use dso_num::interp::{linspace, logspace, Curve};
use dso_num::lu::{LuFactor, Pattern};
use dso_num::matrix::{norm_inf, DMatrix};
use dso_num::newton::{NewtonOptions, NewtonSolver, NonlinearSystem};
use dso_num::roots::{
    bisect_transition, bisect_transition_hinted, bisect_transition_prefetching, brent, Hint, Scale,
    Transition,
};
use dso_num::testing::TestRng;
use dso_num::trend::{classify, Trend};
use dso_num::NumError;

const CASES: usize = 64;

/// A random diagonally dominant matrix: always nonsingular, well enough
/// conditioned that residual checks are meaningful.
fn diag_dominant(rng: &mut TestRng, n: usize) -> DMatrix {
    let mut a = DMatrix::zeros(n, n);
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..n {
            if i != j {
                let v = rng.range(-1.0, 1.0);
                a[(i, j)] = v;
                row_sum += v.abs();
            }
        }
        a[(i, i)] = row_sum + 1.0 + rng.next_f64();
    }
    a
}

#[test]
fn lu_solves_diag_dominant() {
    let mut rng = TestRng::new(0x1001);
    for _ in 0..CASES {
        let a = diag_dominant(&mut rng, 8);
        let b = rng.vec(8, -10.0, 10.0);
        let lu = LuFactor::new(&a).expect("diagonally dominant is nonsingular");
        let x = lu.solve(&b).expect("solve succeeds");
        let ax = a.mul_vec(&x).expect("dimensions match");
        let resid: Vec<f64> = ax.iter().zip(&b).map(|(l, r)| l - r).collect();
        assert!(norm_inf(&resid) < 1e-9, "residual {}", norm_inf(&resid));
    }
}

#[test]
fn determinant_sign_consistent_with_permutation() {
    // det(A) of a diagonally dominant matrix with positive diagonal must at
    // minimum be finite and nonzero.
    let mut rng = TestRng::new(0x1003);
    for _ in 0..CASES {
        let a = diag_dominant(&mut rng, 6);
        let lu = LuFactor::new(&a).expect("nonsingular");
        let det = lu.determinant();
        assert!(det.is_finite() && det != 0.0);
    }
}

#[test]
fn curve_eval_bounded_by_neighbors() {
    let mut rng = TestRng::new(0x1004);
    for _ in 0..CASES {
        let n = rng.index_range(4, 12);
        let ys = rng.vec(n, -5.0, 5.0);
        let t = rng.next_f64();
        let xs = linspace(0.0, 1.0, n).expect("valid spacing");
        let curve = Curve::new(xs, ys.clone()).expect("valid curve");
        let v = curve.eval(t).expect("in domain");
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }
}

#[test]
fn line_intersection_exact() {
    // Two straight lines over [0, 1] cross at most once; when the endpoint
    // differences change sign, the intersection satisfies both line
    // equations.
    let mut rng = TestRng::new(0x1005);
    for _ in 0..CASES {
        let (a0, a1) = (rng.range(-5.0, 5.0), rng.range(-5.0, 5.0));
        let (b0, b1) = (rng.range(-5.0, 5.0), rng.range(-5.0, 5.0));
        let la = Curve::new(vec![0.0, 1.0], vec![a0, a1]).expect("valid");
        let lb = Curve::new(vec![0.0, 1.0], vec![b0, b1]).expect("valid");
        let roots = la.intersections(&lb).expect("domains overlap");
        assert!(roots.len() <= 1 || (a0 == b0 && a1 == b1));
        for r in roots {
            let va = la.eval(r).expect("in domain");
            let vb = lb.eval(r).expect("in domain");
            assert!((va - vb).abs() < 1e-9, "at {r}: {va} vs {vb}");
        }
    }
}

#[test]
fn bisection_brackets_planted_threshold() {
    let mut rng = TestRng::new(0x1006);
    for _ in 0..CASES {
        let threshold = rng.range(1.0, 9.0);
        let scale = if rng.next_bool() {
            Scale::Logarithmic
        } else {
            Scale::Linear
        };
        let t = bisect_transition(0.5, 10.0, 1e-6, scale, |x| Ok(x > threshold))
            .expect("valid bracket");
        assert!(t.last_false <= threshold);
        assert!(t.first_true >= threshold);
        assert!(t.width() < 1e-3);
    }
}

/// The plain boolean bisection as it stood before hinted searches, kept
/// verbatim as the reference [`bisect_transition_hinted`] must reproduce.
fn reference_bisect<F>(
    lo: f64,
    hi: f64,
    rel_tol: f64,
    scale: Scale,
    mut predicate: F,
) -> Result<Transition, NumError>
where
    F: FnMut(f64) -> Result<bool, NumError>,
{
    if lo >= hi || lo.is_nan() || hi.is_nan() {
        return Err(NumError::InvalidBracket { lo, hi });
    }
    if rel_tol <= 0.0 {
        return Err(NumError::InvalidArgument(
            "bisect_transition: rel_tol must be positive".into(),
        ));
    }
    if scale == Scale::Logarithmic && lo <= 0.0 {
        return Err(NumError::InvalidArgument(format!(
            "bisect_transition: logarithmic scale requires positive bracket, got lo={lo}"
        )));
    }
    let mut evaluations = 0;
    let mut probe = |x: f64, evals: &mut usize| -> Result<bool, NumError> {
        *evals += 1;
        predicate(x)
    };
    if probe(lo, &mut evaluations)? {
        return Err(NumError::InvalidBracket { lo, hi });
    }
    if !probe(hi, &mut evaluations)? {
        return Err(NumError::InvalidBracket { lo, hi });
    }
    let mut last_false = lo;
    let mut first_true = hi;
    for _ in 0..200 {
        let span = match scale {
            Scale::Linear => (first_true - last_false) / first_true.abs().max(1e-300),
            Scale::Logarithmic => (first_true / last_false).ln(),
            Scale::LinearAbsolute => {
                unreachable!("the lattice references draw Linear or Logarithmic only")
            }
        };
        if span.abs() < rel_tol {
            break;
        }
        let mid = match scale {
            Scale::Linear | Scale::LinearAbsolute => 0.5 * (last_false + first_true),
            Scale::Logarithmic => (last_false * first_true).sqrt(),
        };
        if mid <= last_false || mid >= first_true {
            break;
        }
        if probe(mid, &mut evaluations)? {
            first_true = mid;
        } else {
            last_false = mid;
        }
    }
    Ok(Transition {
        last_false,
        first_true,
        evaluations,
    })
}

/// The hint cell as specified: descend the reference lattice toward `at`
/// (cells half-open, `[a, b)`) while the reference search would still split
/// and the child spans at least `min_span`. Returns `(a, b, depth)`.
fn spec_hint_cell(
    (lo, hi): (f64, f64),
    rel_tol: f64,
    scale: Scale,
    at: f64,
    min_span: f64,
) -> (f64, f64, usize) {
    let span = |a: f64, b: f64| match scale {
        Scale::Linear => (b - a) / b.abs().max(1e-300),
        Scale::Logarithmic => (b / a).ln(),
        Scale::LinearAbsolute => {
            unreachable!("the lattice references draw Linear or Logarithmic only")
        }
    };
    let (mut a, mut b, mut depth) = (lo, hi, 0);
    while depth < 200 && span(a, b).abs() >= rel_tol {
        let mid = match scale {
            Scale::Linear | Scale::LinearAbsolute => 0.5 * (a + b),
            Scale::Logarithmic => (a * b).sqrt(),
        };
        if mid <= a || mid >= b {
            break;
        }
        let (ca, cb) = if at < mid { (a, mid) } else { (mid, b) };
        if span(ca, cb).abs() < min_span {
            break;
        }
        (a, b, depth) = (ca, cb, depth + 1);
    }
    (a, b, depth)
}

/// The hinted search as [`bisect_transition_hinted`]'s documentation
/// specifies it, for valid arguments, written from [`spec_hint_cell`] and
/// [`reference_bisect`] rather than the library's lattice: test the ends
/// of the hint cell, then those of the one neighbouring cell a miss points
/// to, then fall back to `lo` and `hi`; bisect from the first cell whose
/// ends bracket the transition. A point at or below the largest point
/// answered `false`, or at or above the smallest answered `true`, is
/// settled without a call.
fn reference_hinted_bisect<F>(
    (lo, hi): (f64, f64),
    rel_tol: f64,
    scale: Scale,
    hint: Option<Hint>,
    mut predicate: F,
) -> Result<Transition, NumError>
where
    F: FnMut(f64) -> Result<bool, NumError>,
{
    let Some(hint) = hint else {
        return reference_bisect(lo, hi, rel_tol, scale, predicate);
    };
    let (mut known_false, mut known_true) = (f64::NEG_INFINITY, f64::INFINITY);
    let mut evaluations = 0;
    let mut probe = |x: f64| -> Result<bool, NumError> {
        if x <= known_false || x >= known_true {
            return Ok(x >= known_true);
        }
        evaluations += 1;
        let outcome = predicate(x)?;
        if outcome {
            known_true = known_true.min(x);
        } else {
            known_false = known_false.max(x);
        }
        Ok(outcome)
    };
    let cell_of = |at: f64| spec_hint_cell((lo, hi), rel_tol, scale, at, hint.min_cell_span);
    let (a, b, depth) = cell_of(hint.at);
    let lo_true = probe(a)?;
    let hi_true = probe(b)?;
    let mut start = (!lo_true && hi_true).then_some((a, b, depth));
    if start.is_none() {
        // Just below `a` (cells are half-open), or the cell holding `b`.
        let neighbour = if lo_true {
            (a > lo).then(|| cell_of(a.next_down()))
        } else {
            (b < hi).then(|| cell_of(b))
        };
        if let Some((na, nb, nd)) = neighbour {
            if !probe(na)? && probe(nb)? {
                start = Some((na, nb, nd));
            }
        }
    }
    let (mut a, mut b, mut depth) = match start {
        Some(cell) => cell,
        None => {
            if probe(lo)? || !probe(hi)? {
                return Err(NumError::InvalidBracket { lo, hi });
            }
            (lo, hi, 0)
        }
    };
    while depth < 200 {
        let span = match scale {
            Scale::Linear => (b - a) / b.abs().max(1e-300),
            Scale::Logarithmic => (b / a).ln(),
            Scale::LinearAbsolute => {
                unreachable!("the lattice references draw Linear or Logarithmic only")
            }
        };
        let mid = match scale {
            Scale::Linear | Scale::LinearAbsolute => 0.5 * (a + b),
            Scale::Logarithmic => (a * b).sqrt(),
        };
        if span.abs() < rel_tol || mid <= a || mid >= b {
            break;
        }
        if probe(mid)? {
            b = mid;
        } else {
            a = mid;
        }
        depth += 1;
    }
    Ok(Transition {
        last_false: a,
        first_true: b,
        evaluations,
    })
}

#[test]
fn hinted_bisection_ends_on_the_plain_bracket() {
    let mut rng = TestRng::new(0x100a);
    let mut in_cell_cases = 0;
    let mut saved = 0;
    for case in 0..CASES * 8 {
        let scale = if case % 2 == 0 {
            Scale::Logarithmic
        } else {
            Scale::Linear
        };
        let (lo, hi) = match scale {
            Scale::Logarithmic => {
                let lo = rng.log_range(1e-2, 1e4);
                (lo, lo * 10f64.powf(rng.range(1.0, 9.0)))
            }
            Scale::Linear | Scale::LinearAbsolute => {
                let lo = rng.range(-5.0, 5.0);
                (lo, lo + rng.range(0.5, 20.0))
            }
        };
        let inside = |rng: &mut TestRng| match scale {
            Scale::Logarithmic => rng.log_range(lo, hi),
            Scale::Linear | Scale::LinearAbsolute => rng.range(lo, hi),
        };
        let rel_tol = *rng.choose(&[1e-6, 0.03, 0.2]);
        let min_span = *rng.choose(&[0.05, 0.3, 1.0]);
        // Mostly a threshold inside the bracket; some on a lattice point;
        // a few outside it, where both searches must refuse the bracket.
        let threshold = match rng.index(10) {
            0..=6 => inside(&mut rng),
            7 | 8 => {
                let at = inside(&mut rng);
                let (a, b, _) = spec_hint_cell((lo, hi), rel_tol, scale, at, min_span);
                if rng.next_bool() {
                    a
                } else {
                    b
                }
            }
            _ => *rng.choose(&[lo, hi.next_up(), lo - (hi - lo), hi + (hi - lo)]),
        };
        let strict = rng.next_bool();
        let fails = |x: f64| {
            if strict {
                x > threshold
            } else {
                x >= threshold
            }
        };

        let mut reference_calls = Vec::new();
        let reference = reference_bisect(lo, hi, rel_tol, scale, |x| {
            reference_calls.push(x.to_bits());
            Ok(fails(x))
        });
        let mut plain_calls = Vec::new();
        let plain = bisect_transition_hinted(lo, hi, rel_tol, scale, None, |x| {
            plain_calls.push(x.to_bits());
            Ok(fails(x))
        });
        assert_eq!(plain_calls, reference_calls, "case {case}: call sequence");
        assert_eq!(plain, reference, "case {case}: unhinted result");

        let (cell_lo, cell_hi, _) = spec_hint_cell((lo, hi), rel_tol, scale, threshold, min_span);
        let lattice_point = match reference_calls.get(2 + rng.index(8)) {
            Some(&bits) => f64::from_bits(bits),
            None => cell_lo,
        };
        let hints = [
            // Inside the threshold's cell.
            threshold,
            match scale {
                Scale::Logarithmic => cell_lo * (cell_hi / cell_lo).powf(rng.next_f64()),
                Scale::Linear | Scale::LinearAbsolute => rng.range(cell_lo, cell_hi),
            },
            // Next to it, on either side.
            cell_lo.next_down(),
            cell_hi,
            // Far off.
            inside(&mut rng),
            // On lattice points.
            cell_lo,
            lattice_point,
            // At or beyond the bracket ends.
            lo,
            hi,
            match scale {
                Scale::Logarithmic => lo / 10.0,
                Scale::Linear | Scale::LinearAbsolute => lo - 1.0,
            },
            match scale {
                Scale::Logarithmic => hi * 10.0,
                Scale::Linear | Scale::LinearAbsolute => hi + 1.0,
            },
        ];
        for at in hints {
            let hint = Hint {
                at,
                min_cell_span: min_span,
            };
            let hinted =
                bisect_transition_hinted(lo, hi, rel_tol, scale, Some(hint), |x| Ok(fails(x)));
            let label =
                format!("case {case}: {scale:?} [{lo}, {hi}] threshold {threshold} hint {at}");
            let (r, h) = match (&reference, &hinted) {
                (Ok(r), Ok(h)) => (r, h),
                (Err(r), Err(h)) => {
                    assert_eq!(r, h, "{label}");
                    continue;
                }
                _ => panic!("{label}: {reference:?} vs {hinted:?}"),
            };
            assert_eq!(h.last_false.to_bits(), r.last_false.to_bits(), "{label}");
            assert_eq!(h.first_true.to_bits(), r.first_true.to_bits(), "{label}");
            assert!(
                h.evaluations <= r.evaluations + 3,
                "{label}: {} vs {} evaluations",
                h.evaluations,
                r.evaluations
            );
            let (a, b, d) = spec_hint_cell((lo, hi), rel_tol, scale, at, min_span);
            if !fails(a) && fails(b) {
                let full_depth = r.evaluations - 2;
                assert_eq!(h.evaluations, 2 + (full_depth - d), "{label}");
                in_cell_cases += 1;
                saved += r.evaluations - h.evaluations;
            }
        }
    }
    // The sample really exercises the saving, not just the fallbacks.
    assert!(in_cell_cases > CASES * 8, "{in_cell_cases} in-cell cases");
    assert!(saved > in_cell_cases, "{saved} evaluations saved");
}

/// The sense-threshold search as `dso-core` ran it before it moved onto
/// the shared lattice, kept as the reference the absolute-width lattice
/// must reproduce: read at 0 V (high there: the threshold collapses to
/// 0 V) and at `vdd` (low there: it sits at `vdd`), then halve `[0, vdd]`
/// while it is wider than 2 mV. Returns the threshold, the final cell and
/// the number of reads.
fn reference_vsa(vdd: f64, reads_high: impl Fn(f64) -> bool) -> (f64, Option<(f64, f64)>, usize) {
    if reads_high(0.0) {
        return (0.0, None, 1);
    }
    if !reads_high(vdd) {
        return (vdd, None, 2);
    }
    let (mut lo, mut hi, mut reads) = (0.0, vdd, 2);
    while hi - lo > 2e-3 {
        let mid = 0.5 * (lo + hi);
        reads += 1;
        if reads_high(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    (0.5 * (lo + hi), Some((lo, hi)), reads)
}

#[test]
fn absolute_lattice_reproduces_the_reference_threshold_search() {
    let mut rng = TestRng::new(0x100c);
    let (mut in_cell, mut saved) = (0usize, 0usize);
    for case in 0..CASES * 8 {
        let vdd = *rng.choose(&[2.1, 2.4, 2.7]);
        // Mostly a threshold inside the rails; some below 0 V (every read
        // high) or at or above `vdd` (every read low): the early returns.
        let threshold = match rng.index(10) {
            0 => -rng.range(0.0, 1.0),
            1 if rng.next_bool() => vdd,
            1 => vdd + rng.range(0.0, 1.0),
            _ => rng.range(0.0, vdd),
        };
        let strict = rng.next_bool();
        let reads_high = |vc: f64| {
            if strict {
                vc > threshold
            } else {
                vc >= threshold
            }
        };
        let (want, cell, reads) = reference_vsa(vdd, reads_high);
        // The threshold a search reports: the bracket's midpoint, or an
        // early return told apart by the read at 0 V.
        let run = |hint: Option<f64>| {
            let mut zero_high = false;
            let hint = hint.map(|at| Hint {
                at,
                min_cell_span: 0.02,
            });
            let t = bisect_transition_hinted(0.0, vdd, 2e-3, Scale::LinearAbsolute, hint, |vc| {
                let high = reads_high(vc);
                zero_high |= vc == 0.0 && high;
                Ok(high)
            });
            match t {
                Ok(t) => (
                    t.midpoint(),
                    Some((t.last_false, t.first_true)),
                    t.evaluations,
                ),
                Err(NumError::InvalidBracket { .. }) => {
                    (if zero_high { 0.0 } else { vdd }, None, 0)
                }
                Err(e) => panic!("case {case}: {e}"),
            }
        };
        let (plain, plain_cell, plain_reads) = run(None);
        assert_eq!(plain.to_bits(), want.to_bits(), "case {case}: plain search");
        if cell.is_some() {
            assert_eq!(plain_cell, cell, "case {case}: plain cell");
            assert_eq!(plain_reads, reads, "case {case}: plain reads");
        }
        let (a, b) = cell.unwrap_or((0.0, vdd));
        // Depth of the hint cell: the deepest halving of `vdd` that is
        // still 20 mV wide.
        let hint_depth = (1..).find(|&d| vdd / f64::from(1 << d) < 0.02).unwrap() - 1;
        let hints = [
            // Inside the final cell.
            threshold,
            rng.range(a, b),
            // Next to it, and one hint cell away on either side.
            a.next_down(),
            b,
            a - 0.02,
            b + 0.02,
            // Far off, at 0 V and above `vdd`.
            rng.range(0.0, vdd),
            0.0,
            vdd + rng.range(0.0, 1.0),
        ];
        for at in hints {
            let label = format!("case {case}: vdd {vdd}, threshold {threshold}, hint {at}");
            let (got, got_cell, got_reads) = run(Some(at));
            assert_eq!(got.to_bits(), want.to_bits(), "{label}");
            assert_eq!(got_cell, cell, "{label}: final cell");
            if cell.is_some() {
                assert!(
                    got_reads <= reads + 3,
                    "{label}: {got_reads} vs {reads} reads"
                );
                if (a..b).contains(&at) {
                    assert_eq!(got_reads, reads - hint_depth, "{label}: in-cell reads");
                    in_cell += 1;
                    saved += reads - got_reads;
                }
            }
        }
    }
    // Hints inside the final cell read the 2 mV lattice from a 20 mV cell.
    assert!(in_cell > CASES * 8, "{in_cell} in-cell hints");
    assert!(
        saved >= 4 * in_cell,
        "{saved} reads saved over {in_cell} hints"
    );
}

/// `true` when `x` is a point of the reference lattice over `[lo, hi]`:
/// an end, or the split point of a cell the reference search can visit.
fn on_lattice((lo, hi): (f64, f64), rel_tol: f64, scale: Scale, x: f64) -> bool {
    if x == lo || x == hi {
        return true;
    }
    let (mut a, mut b) = (lo, hi);
    for _ in 0..200 {
        let span = match scale {
            Scale::Linear => (b - a) / b.abs().max(1e-300),
            Scale::Logarithmic => (b / a).ln(),
            Scale::LinearAbsolute => {
                unreachable!("the lattice references draw Linear or Logarithmic only")
            }
        };
        if span.abs() < rel_tol {
            return false;
        }
        let mid = match scale {
            Scale::Linear | Scale::LinearAbsolute => 0.5 * (a + b),
            Scale::Logarithmic => (a * b).sqrt(),
        };
        if mid <= a || mid >= b || x == mid {
            return x == mid;
        }
        if x < mid {
            b = mid;
        } else {
            a = mid;
        }
    }
    false
}

#[test]
fn prefetching_bisection_asks_what_the_specified_search_asks() {
    let mut rng = TestRng::new(0x100b);
    let (mut asks, mut prefetches, mut used) = (0usize, 0usize, 0usize);
    for case in 0..CASES * 4 {
        let scale = if case % 2 == 0 {
            Scale::Logarithmic
        } else {
            Scale::Linear
        };
        let (lo, hi) = match scale {
            Scale::Logarithmic => {
                let lo = rng.log_range(1e-2, 1e4);
                (lo, lo * 10f64.powf(rng.range(1.0, 9.0)))
            }
            Scale::Linear | Scale::LinearAbsolute => {
                let lo = rng.range(-5.0, 5.0);
                (lo, lo + rng.range(0.5, 20.0))
            }
        };
        let inside = |rng: &mut TestRng| match scale {
            Scale::Logarithmic => rng.log_range(lo, hi),
            Scale::Linear | Scale::LinearAbsolute => rng.range(lo, hi),
        };
        let rel_tol = *rng.choose(&[1e-6, 0.03, 0.2]);
        let min_span = *rng.choose(&[0.05, 0.3, 1.0]);
        // Half the cases a monotone threshold; the other half a fixed
        // random outcome per point, false at `lo` and true at `hi` in most
        // cases so the searches get past their bracket checks.
        let monotone = case % 4 < 2;
        let threshold = inside(&mut rng);
        let salt = rng.next_u64();
        let fails = |x: f64| {
            if monotone {
                x > threshold
            } else if x == lo || x == hi {
                (x == hi) != salt.is_multiple_of(8)
            } else {
                TestRng::new(x.to_bits() ^ salt).next_bool()
            }
        };
        let (cell_lo, cell_hi, _) = spec_hint_cell((lo, hi), rel_tol, scale, threshold, min_span);
        let hints = [
            None,
            // Inside the threshold's cell, next to it on either side, far off.
            Some(threshold),
            Some(cell_lo.next_down()),
            Some(cell_hi),
            Some(inside(&mut rng)),
        ];
        for at in hints {
            let hint = at.map(|at| Hint {
                at,
                min_cell_span: min_span,
            });
            let label = format!(
                "case {case}: {scale:?} [{lo}, {hi}] monotone {monotone} threshold {threshold} hint {at:?}"
            );
            let mut reference_calls = Vec::new();
            let reference = reference_hinted_bisect((lo, hi), rel_tol, scale, hint, |x| {
                reference_calls.push(x.to_bits());
                Ok(fails(x))
            });
            // The bracket the answers so far leave open: above every point
            // answered `false`, below every point answered `true`.
            let (mut known_false, mut known_true) = (f64::NEG_INFINITY, f64::INFINITY);
            let mut calls = Vec::new();
            let mut handed = Vec::new();
            let mut upward = 0;
            let got = bisect_transition_prefetching(lo, hi, rel_tol, scale, hint, |x, next| {
                // One `Option` per ask: at most one prefetch goes with it.
                if let Some(p) = next {
                    assert!(
                        known_false < p && p < known_true && p != x,
                        "{label}: prefetch {p} outside ({known_false}, {known_true}) or at {x}"
                    );
                    assert!(
                        on_lattice((lo, hi), rel_tol, scale, p),
                        "{label}: prefetch {p} off the lattice"
                    );
                    // Toward the hint, or down without one: only the end
                    // probes prefetch above without a hint.
                    assert!(
                        p > x || at.is_none_or(|at| at < x),
                        "{label}: prefetch {p} below {x}, away from the hint"
                    );
                    upward += usize::from(p > x);
                    handed.push((calls.len(), p.to_bits()));
                }
                calls.push(x.to_bits());
                let outcome = fails(x);
                if outcome {
                    known_true = known_true.min(x);
                } else {
                    known_false = known_false.max(x);
                }
                Ok(outcome)
            });
            assert_eq!(calls, reference_calls, "{label}: call sequence");
            if at.is_none() {
                assert!(upward <= 1, "{label}: {upward} prefetches above the ask");
            }
            match (&reference, &got) {
                (Ok(r), Ok(g)) => {
                    assert_eq!(g.last_false.to_bits(), r.last_false.to_bits(), "{label}");
                    assert_eq!(g.first_true.to_bits(), r.first_true.to_bits(), "{label}");
                    assert_eq!(g.evaluations, r.evaluations, "{label}");
                    assert_eq!(g.evaluations, calls.len(), "{label}");
                }
                (Err(r), Err(g)) => assert_eq!(r, g, "{label}"),
                _ => panic!("{label}: {reference:?} vs {got:?}"),
            }
            asks += calls.len();
            prefetches += handed.len();
            used += handed
                .iter()
                .filter(|&&(after, p)| calls[after + 1..].contains(&p))
                .count();
        }
    }
    // The sample exercises the prefetch, and it mostly guesses right.
    assert!(
        prefetches > asks / 2,
        "{prefetches} prefetches for {asks} asks"
    );
    assert!(
        used * 2 > prefetches,
        "{used} of {prefetches} prefetches asked"
    );
}

#[test]
fn brent_finds_root_of_cubic() {
    // x^3 - shift has a real root at shift^(1/3) within [-2, 2].
    let mut rng = TestRng::new(0x1007);
    for _ in 0..CASES {
        let shift = rng.range(-0.9, 0.9);
        let root = brent(-2.0, 2.0, 1e-12, 200, |x| x * x * x - shift).expect("bracketed");
        assert!((root * root * root - shift).abs() < 1e-9);
    }
}

#[test]
fn sorted_data_classifies_monotone() {
    let mut rng = TestRng::new(0x1008);
    for _ in 0..CASES {
        let n = rng.index_range(3, 20);
        let mut ys = rng.vec(n, -100.0, 100.0);
        ys.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let trend = classify(&ys, 0.0).expect("valid input");
        assert!(
            trend == Trend::Increasing || trend == Trend::Flat,
            "sorted data classified {trend}"
        );
        ys.reverse();
        let trend = classify(&ys, 0.0).expect("valid input");
        assert!(trend == Trend::Decreasing || trend == Trend::Flat);
    }
}

#[test]
fn logspace_is_geometric() {
    let mut rng = TestRng::new(0x1009);
    for _ in 0..CASES {
        let lo = rng.range(1e-3, 1.0);
        let ratio = rng.log_range(1.5, 1e4);
        let n = rng.index_range(3, 20);
        let hi = lo * ratio;
        let pts = logspace(lo, hi, n).expect("valid range");
        assert_eq!(pts.len(), n);
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
        let r0 = pts[1] / pts[0];
        for w in pts.windows(2) {
            assert!((w[1] / w[0] - r0).abs() < 1e-6 * r0);
        }
    }
}

/// A mildly nonlinear system with a diagonally dominant linear part:
/// `F(x) = A·x + 0.1·tanh(x) − b`. Always solvable from `x = 0`, nonlinear
/// enough that the Newton iteration takes several steps.
struct TanhSystem {
    a: DMatrix,
    b: Vec<f64>,
}

impl NonlinearSystem for TanhSystem {
    fn unknowns(&self) -> usize {
        self.b.len()
    }

    fn residual(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
        let n = self.b.len();
        for i in 0..n {
            let mut acc = -self.b[i] + 0.1 * x[i].tanh();
            for (j, xj) in x.iter().enumerate().take(n) {
                acc += self.a[(i, j)] * xj;
            }
            out[i] = acc;
        }
        Ok(())
    }

    fn jacobian(&mut self, x: &[f64], jac: &mut DMatrix) -> Result<(), NumError> {
        let n = self.b.len();
        for i in 0..n {
            for j in 0..n {
                jac[(i, j)] = self.a[(i, j)];
            }
            let sech = 1.0 / x[i].cosh();
            jac[(i, i)] += 0.1 * sech * sech;
        }
        Ok(())
    }
}

/// An in-test copy of the solver loop as it stood before modified-Newton
/// reuse landed: assemble the Jacobian and refactor the LU on **every**
/// iteration, same voltage limiting, same damped line search, same
/// convergence tests. Returns the iterate and `(iterations, residual)`.
fn reference_full_newton(
    system: &mut TanhSystem,
    x: &mut [f64],
    opts: &NewtonOptions,
) -> (usize, f64) {
    let n = system.unknowns();
    let mut residual = vec![0.0; n];
    let mut trial_residual = vec![0.0; n];
    let mut trial_x = vec![0.0; n];
    let mut jac = DMatrix::zeros(n, n);
    system.residual(x, &mut residual).expect("residual");
    let mut res_norm = norm_inf(&residual);
    for iter in 0..opts.max_iterations {
        if res_norm < opts.residual_tol {
            return (iter, res_norm);
        }
        jac.clear();
        system.jacobian(x, &mut jac).expect("jacobian");
        let lu = LuFactor::new(&jac).expect("nonsingular");
        let neg_f: Vec<f64> = residual.iter().map(|r| -r).collect();
        let mut dx = vec![0.0; n];
        lu.solve_in_place(&neg_f, &mut dx);
        system.limit_step(x, &mut dx, opts.max_step);
        let mut alpha = 1.0;
        let mut accepted = false;
        for _ in 0..12 {
            for i in 0..n {
                trial_x[i] = x[i] + alpha * dx[i];
            }
            system
                .residual(&trial_x, &mut trial_residual)
                .expect("residual");
            let trial_norm = norm_inf(&trial_residual);
            if trial_norm.is_finite() && (trial_norm < res_norm || alpha <= 1e-3) {
                x.copy_from_slice(&trial_x);
                residual.copy_from_slice(&trial_residual);
                res_norm = trial_norm;
                accepted = true;
                break;
            }
            alpha *= opts.damping;
        }
        if !accepted {
            x.copy_from_slice(&trial_x);
            residual.copy_from_slice(&trial_residual);
            res_norm = norm_inf(&residual);
        }
        let step_norm = norm_inf(&dx) * alpha;
        if step_norm < opts.step_tol && res_norm < opts.residual_tol * 1e3 {
            return (iter + 1, res_norm);
        }
    }
    panic!("reference Newton did not converge: residual {res_norm}");
}

fn tanh_case(rng: &mut TestRng, n: usize) -> TanhSystem {
    TanhSystem {
        a: diag_dominant(rng, n),
        b: rng.vec(n, -3.0, 3.0),
    }
}

#[test]
fn reuse_off_is_bit_identical_to_pre_reuse_solver() {
    // The compatibility contract of the modified-Newton change:
    // `lu_reuse: false` must reproduce the pre-change solver exactly —
    // same iterates to the bit, same iteration count, same final residual,
    // and zero reuse accounting.
    let mut rng = TestRng::new(0x100b);
    let opts = NewtonOptions {
        lu_reuse: false,
        ..NewtonOptions::default()
    };
    let mut solver = NewtonSolver::new(opts.clone());
    for _ in 0..CASES {
        let n = rng.index_range(2, 8);
        let mut system = tanh_case(&mut rng, n);
        let mut x = vec![0.0; n];
        let stats = solver.solve(&mut system, &mut x).expect("converges");
        let mut x_ref = vec![0.0; n];
        let (iters_ref, res_ref) = reference_full_newton(&mut system, &mut x_ref, &opts);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&x_ref), "iterate bits diverged");
        assert_eq!(stats.iterations, iters_ref, "iteration count diverged");
        assert_eq!(
            stats.residual.to_bits(),
            res_ref.to_bits(),
            "final residual bits diverged"
        );
        assert_eq!(stats.lu_reuses, 0, "reuse-off solve reported reuses");
        assert!(stats.lu_refactors >= stats.iterations.min(1));
    }
}

#[test]
fn reuse_on_matches_root_and_saves_refactors() {
    // Reuse changes the iteration trajectory (that is the point), but it
    // must land on the same root to solver tolerance and, in aggregate,
    // trade refactors for cheap back-substitution iterations.
    let mut rng = TestRng::new(0x100c);
    let mut fast = NewtonSolver::new(NewtonOptions::default());
    let mut slow = NewtonSolver::new(NewtonOptions {
        lu_reuse: false,
        ..NewtonOptions::default()
    });
    let (mut reuses, mut refactors) = (0usize, 0usize);
    for _ in 0..CASES {
        let n = rng.index_range(2, 8);
        let mut system = tanh_case(&mut rng, n);
        let mut x_fast = vec![0.0; n];
        let stats = fast.solve(&mut system, &mut x_fast).expect("converges");
        reuses += stats.lu_reuses;
        refactors += stats.lu_refactors;
        let mut x_slow = vec![0.0; n];
        slow.solve(&mut system, &mut x_slow).expect("converges");
        for (f, s) in x_fast.iter().zip(&x_slow) {
            assert!((f - s).abs() < 1e-6, "roots diverged: {f} vs {s}");
        }
    }
    assert!(
        reuses > refactors,
        "modified-Newton saved nothing: {reuses} reuses vs {refactors} refactors"
    );
}

#[test]
fn norm_inf_propagates_nan() {
    // A poisoned residual must never report a finite (spuriously small)
    // norm — the Newton driver's non-finite guard depends on this.
    assert!(norm_inf(&[1.0, f64::NAN, 3.0]).is_nan());
    assert!(!norm_inf(&[1.0, -4.0, 3.0]).is_nan());
    let mut m = DMatrix::zeros(2, 2);
    m[(0, 1)] = f64::NAN;
    assert!(m.norm_inf().is_nan());
}

// ---------------------------------------------------------------------------
// Zero-skipping kernels against the plain dense loops.
//
// `LuFactor` and the MNA residual skip entries that are exactly zero. The
// references below are in-test copies of the dense `refactor_into`,
// `solve_in_place` and `DMatrix::mul_vec_into` loops the skipping kernels
// replaced. The contract: the same pivots, every nonzero output equal to
// the bit, and every zero output equal as a value (only the sign of an
// exact zero may differ).

/// The dense partial-pivoting factorization: `(combined L\U, permutation)`.
fn reference_factor(a: &DMatrix) -> Result<(Vec<f64>, Vec<usize>), NumError> {
    if !a.is_finite() {
        return Err(NumError::NonFinite {
            context: "LU input matrix".into(),
        });
    }
    let n = a.rows();
    let mut lu = a.as_slice().to_vec();
    let mut perm: Vec<usize> = (0..n).collect();
    let threshold = dso_num::lu::SINGULARITY_THRESHOLD * a.max_abs().max(1.0);
    for k in 0..n {
        let mut pivot_row = k;
        let mut pivot_val = lu[k * n + k].abs();
        for i in (k + 1)..n {
            let v = lu[i * n + k].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = i;
            }
        }
        if pivot_val < threshold {
            return Err(NumError::SingularMatrix {
                column: k,
                pivot: pivot_val,
            });
        }
        if pivot_row != k {
            for j in 0..n {
                lu.swap(k * n + j, pivot_row * n + j);
            }
            perm.swap(k, pivot_row);
        }
        let pivot = lu[k * n + k];
        for i in (k + 1)..n {
            let factor = lu[i * n + k] / pivot;
            lu[i * n + k] = factor;
            if factor != 0.0 {
                for j in (k + 1)..n {
                    lu[i * n + j] -= factor * lu[k * n + j];
                }
            }
        }
    }
    Ok((lu, perm))
}

/// The dense forward and back substitution over `reference_factor`'s output.
fn reference_solve(lu: &[f64], perm: &[usize], b: &[f64]) -> Vec<f64> {
    let n = perm.len();
    let mut x = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[perm[i]];
        for (j, xj) in x.iter().enumerate().take(i) {
            sum -= lu[i * n + j] * xj;
        }
        x[i] = sum;
    }
    for i in (0..n).rev() {
        let mut sum = x[i];
        for (j, xj) in x.iter().enumerate().take(n).skip(i + 1) {
            sum -= lu[i * n + j] * xj;
        }
        x[i] = sum / lu[i * n + i];
    }
    x
}

/// The dense matrix–vector product of `DMatrix::mul_vec_into`.
fn reference_mul_vec(a: &DMatrix, x: &[f64]) -> Vec<f64> {
    (0..a.rows())
        .map(|i| a.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
        .collect()
}

/// Asserts `got` matches `want` under the zero-skipping contract.
fn assert_same_up_to_zero_sign(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if *w == 0.0 {
            assert_eq!(*g, 0.0, "{what}[{i}]: want a zero, got {g:e}");
        } else {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g:e} vs {w:e}");
        }
    }
}

/// A random matrix shaped like a stamped MNA system: `nodes` node rows
/// with a gmin diagonal, two-terminal conductance stamps, one-way
/// transconductances of either sign and some explicit `±0` entries, then
/// `branches` voltage-source rows whose zero diagonals force pivoting.
fn mna_shaped(rng: &mut TestRng, nodes: usize, branches: usize) -> DMatrix {
    let n = nodes + branches;
    let mut a = DMatrix::zeros(n, n);
    for i in 0..nodes {
        a[(i, i)] = rng.log_range(1e-12, 1e-3);
    }
    for _ in 0..(3 * nodes / 2) {
        let p = rng.index(nodes);
        let q = rng.index(nodes);
        let g = rng.log_range(1e-6, 1e-1);
        a[(p, p)] += g;
        a[(q, q)] += g;
        if p != q {
            a[(p, q)] -= g;
            a[(q, p)] -= g;
        }
    }
    for _ in 0..(nodes / 3) {
        let (p, q) = (rng.index(nodes), rng.index(nodes));
        a[(p, q)] += rng.range(-1e-3, 1e-3);
    }
    for _ in 0..(nodes / 4) {
        let (p, q) = (rng.index(nodes), rng.index(nodes));
        if p != q {
            a[(p, q)] = if rng.next_bool() { 0.0 } else { -0.0 };
        }
    }
    for b in 0..branches {
        let br = nodes + b;
        let p = rng.index(nodes);
        a[(p, br)] += 1.0;
        a[(br, p)] += 1.0;
        if rng.next_bool() {
            let q = rng.index(nodes);
            if q != p {
                a[(q, br)] -= 1.0;
                a[(br, q)] -= 1.0;
            }
        }
    }
    a
}

/// A right-hand side with negative entries, exact zeros and negative zeros.
fn sparse_rhs(rng: &mut TestRng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| match rng.index(4) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.range(-5.0, 5.0),
        })
        .collect()
}

#[test]
fn zero_skipping_lu_is_bit_identical_to_dense_lu() {
    let mut rng = TestRng::new(0x100e);
    // One factorization reused across cases, as the Newton solver does:
    // its pattern lists must follow every change of the zero pattern.
    let mut lu = LuFactor::empty();
    let (mut factored, mut singular, mut pivoted) = (0, 0, 0);
    for _ in 0..(4 * CASES) {
        let nodes = rng.index_range(2, 36);
        let branches = rng.index_range(0, 7);
        let a = mna_shaped(&mut rng, nodes, branches);
        match (reference_factor(&a), lu.refactor_into(&a)) {
            (Ok((want_lu, want_perm)), Ok(())) => {
                factored += 1;
                if want_perm.iter().enumerate().any(|(i, &p)| i != p) {
                    pivoted += 1;
                }
                assert_eq!(lu.permutation(), want_perm.as_slice(), "pivots differ");
                assert_same_up_to_zero_sign(lu.factors(), &want_lu, "factors");
                for _ in 0..3 {
                    let b = sparse_rhs(&mut rng, a.rows());
                    let mut x = vec![f64::NAN; a.rows()];
                    lu.solve_in_place(&b, &mut x);
                    let want = reference_solve(&want_lu, &want_perm, &b);
                    assert_same_up_to_zero_sign(&x, &want, "solution");
                }
            }
            (Err(want), Err(got)) => {
                singular += 1;
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "failures differ");
                assert_eq!(lu.dim(), 0, "a failed refactor must leave no factorization");
            }
            (want, got) => panic!("outcomes differ: reference {want:?}, skipping {got:?}"),
        }
    }
    // The generator must exercise both outcomes and real pivoting.
    assert!(factored > CASES, "only {factored} cases factored");
    assert!(pivoted > CASES / 2, "only {pivoted} cases pivoted");
    assert!(singular > 0, "no singular case generated");
}

#[test]
fn zero_skipping_lu_matches_dense_lu_on_dense_matrices() {
    // No zeros to skip: the contiguous elimination sweep must still give
    // the dense loop's bits exactly.
    let mut rng = TestRng::new(0x100f);
    let mut lu = LuFactor::empty();
    for _ in 0..CASES {
        let n = rng.index_range(1, 24);
        let mut a = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = rng.range(-1.0, 1.0);
            }
        }
        let (want_lu, want_perm) = reference_factor(&a).expect("random dense is nonsingular");
        lu.refactor_into(&a).expect("random dense is nonsingular");
        assert_eq!(lu.permutation(), want_perm.as_slice());
        assert_same_up_to_zero_sign(lu.factors(), &want_lu, "factors");
        let b = sparse_rhs(&mut rng, n);
        let mut x = vec![0.0; n];
        lu.solve_in_place(&b, &mut x);
        assert_same_up_to_zero_sign(&x, &reference_solve(&want_lu, &want_perm, &b), "solution");
    }
}

#[test]
fn zero_skipping_matvec_is_bit_identical_to_dense_matvec() {
    // The MNA residual's base product sums each row over its nonzero
    // columns only, in ascending order, with the same `.sum()` fold.
    let mut rng = TestRng::new(0x1010);
    for _ in 0..CASES {
        let nodes = rng.index_range(2, 36);
        let branches = rng.index_range(0, 7);
        let a = mna_shaped(&mut rng, nodes, branches);
        let x = sparse_rhs(&mut rng, a.rows());
        let mut dense = vec![0.0; a.rows()];
        a.mul_vec_into(&x, &mut dense);
        let want = reference_mul_vec(&a, &x);
        assert_eq!(
            dense.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "DMatrix::mul_vec_into drifted from its reference"
        );
        let skipping: Vec<f64> = (0..a.rows())
            .map(|i| {
                let row = a.row(i);
                (0..row.len())
                    .filter(|&j| row[j] != 0.0)
                    .map(|j| row[j] * x[j])
                    .sum()
            })
            .collect();
        assert_same_up_to_zero_sign(&skipping, &want, "product");
    }
}

// ---------------------------------------------------------------------------
// The ordered LU under a declared pattern.
//
// With a pattern, `LuFactor` eliminates in a minimum-degree order and
// replays a recorded schedule, so its rounding order is not the dense
// reference's. It is checked against `reference_factor`/`reference_solve`
// by backward error and verdict, and its replay against a fresh
// factorization: the same pivots and bits (up to the sign of a zero), and
// after a fallback to the pivot search, the same bits exactly.

/// The positions of `a`'s nonzeros plus `extra` random positions (held by
/// the pattern, exactly zero in `a`), as `(row starts, columns)`.
fn pattern_of(rng: &mut TestRng, a: &DMatrix, extra: usize) -> (Vec<usize>, Vec<usize>) {
    let n = a.rows();
    let mut held: Vec<bool> = a.as_slice().iter().map(|v| *v != 0.0).collect();
    for _ in 0..extra {
        held[rng.index(n) * n + rng.index(n)] = true;
    }
    let mut starts = vec![0];
    let mut cols = Vec::new();
    for row in held.chunks_exact(n) {
        cols.extend((0..n).filter(|&j| row[j]));
        starts.push(cols.len());
    }
    (starts, cols)
}

/// The normwise backward error `‖A·x − b‖ / (‖A‖·‖x‖ + ‖b‖)`, infinity
/// norms.
fn backward_error(a: &DMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.mul_vec(x).expect("dimensions match");
    let r: Vec<f64> = ax.iter().zip(b).map(|(l, r)| l - r).collect();
    let scale = a.norm_inf() * norm_inf(x) + norm_inf(b);
    if scale == 0.0 {
        // b = 0 and x = 0: solved exactly.
        return norm_inf(&r);
    }
    norm_inf(&r) / scale
}

/// The verdict kind of a failed factorization.
fn verdict(e: &NumError) -> &'static str {
    match e {
        NumError::SingularMatrix { .. } => "singular",
        NumError::NonFinite { .. } => "non-finite",
        _ => "other",
    }
}

#[test]
fn ordered_lu_solves_what_the_dense_reference_solves() {
    let mut rng = TestRng::new(0x1011);
    let mut lu = LuFactor::empty();
    let (mut factored, mut singular, mut non_finite) = (0, 0, 0);
    for case in 0..(4 * CASES) {
        let nodes = rng.index_range(2, 36);
        let branches = rng.index_range(0, 7);
        let mut a = mna_shaped(&mut rng, nodes, branches);
        let extra = rng.index(nodes);
        let (starts, cols) = pattern_of(&mut rng, &a, extra);
        if rng.index(16) == 0 {
            // A non-finite entry inside the pattern.
            let e = rng.index(cols.len());
            let row = starts.partition_point(|&s| s <= e) - 1;
            a[(row, cols[e])] = if rng.next_bool() {
                f64::NAN
            } else {
                f64::INFINITY
            };
        }
        lu.set_pattern(Some(Pattern {
            starts: &starts,
            cols: &cols,
        }))
        .unwrap();
        match (reference_factor(&a), lu.refactor_into(&a)) {
            (Ok((want_lu, want_perm)), Ok(())) => {
                factored += 1;
                assert!(
                    lu.nonzeros() <= a.rows() * a.rows(),
                    "case {case}: more entries than the matrix"
                );
                for _ in 0..3 {
                    let b = sparse_rhs(&mut rng, a.rows());
                    let mut x = vec![f64::NAN; a.rows()];
                    lu.solve_in_place(&b, &mut x);
                    let want = reference_solve(&want_lu, &want_perm, &b);
                    let (got_err, want_err) =
                        (backward_error(&a, &x, &b), backward_error(&a, &want, &b));
                    assert!(
                        got_err <= 1e-12,
                        "case {case}: backward error {got_err:e} (reference {want_err:e})"
                    );
                }
            }
            (Err(want), Err(got)) => {
                assert_eq!(
                    verdict(&got),
                    verdict(&want),
                    "case {case}: {got} vs {want}"
                );
                match verdict(&got) {
                    "singular" => singular += 1,
                    _ => non_finite += 1,
                }
                assert_eq!(lu.dim(), 0, "a failed refactor must leave no factorization");
            }
            (want, got) => panic!("case {case}: reference {want:?}, ordered {got:?}"),
        }
    }
    assert!(factored > CASES, "only {factored} cases factored");
    assert!(singular > 0, "no singular case generated");
    assert!(non_finite > 0, "no non-finite case generated");
}

/// `a` with every entry rescaled by a random factor in `[1/spread,
/// spread]`, with its sign flipped at probability `flip`: the same
/// structure, with the column maxima, and so the pivots, free to move.
fn rescaled(rng: &mut TestRng, a: &DMatrix, spread: f64, flip: f64) -> DMatrix {
    let mut b = a.clone();
    for i in 0..b.rows() {
        for j in 0..b.cols() {
            let sign = if rng.next_f64() < flip { -1.0 } else { 1.0 };
            b[(i, j)] *= sign * rng.log_range(1.0 / spread, spread);
        }
    }
    b
}

#[test]
fn replay_falls_back_on_pivot_changes_and_matches_a_fresh_factor() {
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    let mut rng = TestRng::new(0x1012);
    let (mut replayed, mut fell_back) = (0, 0);
    for case in 0..CASES {
        let nodes = rng.index_range(2, 36);
        let branches = rng.index_range(0, 7);
        let a = mna_shaped(&mut rng, nodes, branches);
        let extra = rng.index(nodes);
        let (starts, cols) = pattern_of(&mut rng, &a, extra);
        let pattern = Pattern {
            starts: &starts,
            cols: &cols,
        };
        let mut lu = LuFactor::empty();
        lu.set_pattern(Some(pattern)).unwrap();
        let _ = lu.refactor_into(&a);
        let mut b = a;
        for step in 0..6 {
            // Two drifts of the kind a Newton iteration sees, then a
            // shake-up that moves pivots.
            b = if step % 3 == 2 {
                rescaled(&mut rng, &b, 8.0, 0.25)
            } else {
                rescaled(&mut rng, &b, 1.01, 0.0)
            };
            let before = lu.permutation().to_vec();
            let mut fresh = LuFactor::empty();
            fresh.set_pattern(Some(pattern)).unwrap();
            let what = format!("case {case}, step {step}");
            match (lu.refactor_into(&b), fresh.refactor_into(&b)) {
                (Ok(()), Ok(())) => {
                    assert_eq!(lu.order(), fresh.order(), "{what}: order");
                    assert_eq!(lu.permutation(), fresh.permutation(), "{what}: pivots");
                    let rhs = sparse_rhs(&mut rng, b.rows());
                    let (mut x, mut y) = (vec![0.0; b.rows()], vec![0.0; b.rows()]);
                    lu.solve_in_place(&rhs, &mut x);
                    fresh.solve_in_place(&rhs, &mut y);
                    if lu.permutation() == before.as_slice() {
                        // The replay kept the pivots: the pivot search's
                        // bits, up to the sign of a zero.
                        replayed += 1;
                        assert_same_up_to_zero_sign(lu.factors(), fresh.factors(), &what);
                        assert_same_up_to_zero_sign(&x, &y, &what);
                    } else {
                        // A replay cannot change a pivot: the check fell
                        // back to the pivot search, which is a fresh
                        // factorization.
                        fell_back += 1;
                        assert_eq!(bits(lu.factors()), bits(fresh.factors()), "{what}: factors");
                        assert_eq!(bits(&x), bits(&y), "{what}: solution");
                    }
                    assert_eq!(lu.nonzeros(), fresh.nonzeros(), "{what}: fill");
                    assert_eq!(lu.determinant().to_bits(), fresh.determinant().to_bits());
                }
                (Err(got), Err(want)) => {
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
                    assert_eq!(lu.dim(), 0);
                }
                (got, want) => panic!("{what}: replayed {got:?}, fresh {want:?}"),
            }
        }
    }
    assert!(
        replayed > CASES,
        "only {replayed} replays kept their pivots"
    );
    assert!(fell_back > CASES / 2, "only {fell_back} pivot changes");
}

#[test]
fn ordered_lu_without_a_pattern_is_the_natural_order() {
    // Declaring a pattern and then none returns to the dense arithmetic.
    let mut rng = TestRng::new(0x1013);
    let a = mna_shaped(&mut rng, 20, 4);
    let (starts, cols) = pattern_of(&mut rng, &a, 0);
    let mut lu = LuFactor::empty();
    lu.set_pattern(Some(Pattern {
        starts: &starts,
        cols: &cols,
    }))
    .unwrap();
    lu.refactor_into(&a).unwrap();
    assert_ne!(
        lu.order(),
        (0..a.rows()).collect::<Vec<_>>(),
        "no reordering"
    );
    lu.set_pattern(None).unwrap();
    assert_eq!(lu.dim(), 0, "a new declaration drops the factorization");
    lu.refactor_into(&a).unwrap();
    let (want_lu, want_perm) = reference_factor(&a).unwrap();
    assert_eq!(lu.order(), (0..a.rows()).collect::<Vec<_>>());
    assert_eq!(lu.permutation(), want_perm.as_slice());
    assert_same_up_to_zero_sign(lu.factors(), &want_lu, "factors");
}
