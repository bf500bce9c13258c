//! Sampled curves: interpolation and intersection.
//!
//! The fault-analysis layer works with curves sampled at discrete defect
//! resistances — e.g. the sense-amplifier threshold `Vsa(R)` and the write
//! settlement voltage `Vw0(R)`. The border resistance is the abscissa where
//! two such curves intersect, so this module provides a strictly-increasing
//! sampled curve type with linear interpolation and pairwise intersection.

use crate::NumError;

/// A piecewise-linear curve over strictly increasing abscissae.
///
/// # Example
///
/// ```
/// use dso_num::interp::Curve;
///
/// # fn main() -> Result<(), dso_num::NumError> {
/// let c = Curve::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 0.0])?;
/// assert_eq!(c.eval(0.5)?, 5.0);
/// assert_eq!(c.eval(1.5)?, 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Curve {
    /// Builds a curve from matching abscissa/ordinate vectors.
    ///
    /// # Errors
    ///
    /// * [`NumError::ShapeMismatch`] if lengths differ.
    /// * [`NumError::InvalidArgument`] if fewer than two points are given or
    ///   the abscissae are not strictly increasing.
    /// * [`NumError::NonFinite`] if any coordinate is NaN/inf.
    pub fn new(x: Vec<f64>, y: Vec<f64>) -> Result<Self, NumError> {
        if x.len() != y.len() {
            return Err(NumError::ShapeMismatch {
                expected: format!("{} ordinates", x.len()),
                found: format!("{}", y.len()),
            });
        }
        if x.len() < 2 {
            return Err(NumError::InvalidArgument(
                "curve needs at least two points".into(),
            ));
        }
        if x.iter().chain(y.iter()).any(|v| !v.is_finite()) {
            return Err(NumError::NonFinite {
                context: "curve coordinates".into(),
            });
        }
        if x.windows(2).any(|w| w[0] >= w[1]) {
            return Err(NumError::InvalidArgument(
                "curve abscissae must be strictly increasing".into(),
            ));
        }
        Ok(Curve { x, y })
    }

    /// The sampled abscissae.
    pub fn xs(&self) -> &[f64] {
        &self.x
    }

    /// The sampled ordinates.
    pub fn ys(&self) -> &[f64] {
        &self.y
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Always `false`: a valid curve has at least two points.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Domain of the curve as `(min_x, max_x)`.
    pub fn domain(&self) -> (f64, f64) {
        (self.x[0], *self.x.last().expect("curve is non-empty"))
    }

    /// Linear interpolation at `x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidArgument`] if `x` is outside the domain.
    pub fn eval(&self, x: f64) -> Result<f64, NumError> {
        let (lo, hi) = self.domain();
        if x < lo || x > hi {
            return Err(NumError::InvalidArgument(format!(
                "eval at {x} outside curve domain [{lo}, {hi}]"
            )));
        }
        let idx = match self
            .x
            .binary_search_by(|v| v.partial_cmp(&x).expect("finite coordinates"))
        {
            Ok(i) => return Ok(self.y[i]),
            Err(i) => i,
        };
        let (x0, x1) = (self.x[idx - 1], self.x[idx]);
        let (y0, y1) = (self.y[idx - 1], self.y[idx]);
        Ok(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    }

    /// Clamped evaluation: `x` outside the domain evaluates to the nearest
    /// endpoint's ordinate.
    pub fn eval_clamped(&self, x: f64) -> f64 {
        let (lo, hi) = self.domain();
        let xc = x.clamp(lo, hi);
        self.eval(xc).expect("clamped abscissa is in domain")
    }

    /// All intersection abscissae between `self` and `other`, restricted to
    /// the overlap of their domains, in increasing order.
    ///
    /// Tangential touching at a shared sample point is reported once.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidArgument`] if the domains do not overlap.
    pub fn intersections(&self, other: &Curve) -> Result<Vec<f64>, NumError> {
        let (a_lo, a_hi) = self.domain();
        let (b_lo, b_hi) = other.domain();
        let lo = a_lo.max(b_lo);
        let hi = a_hi.min(b_hi);
        if lo >= hi {
            return Err(NumError::InvalidArgument(format!(
                "curve domains [{a_lo},{a_hi}] and [{b_lo},{b_hi}] do not overlap"
            )));
        }
        // Merge breakpoints of both curves within the overlap.
        let mut grid: Vec<f64> = self
            .x
            .iter()
            .chain(other.x.iter())
            .copied()
            .filter(|&v| v >= lo && v <= hi)
            .collect();
        grid.push(lo);
        grid.push(hi);
        grid.sort_by(|a, b| a.partial_cmp(b).expect("finite coordinates"));
        grid.dedup_by(|a, b| (*a - *b).abs() < f64::EPSILON * a.abs().max(1.0));

        let mut roots = Vec::new();
        let diff = |x: f64| -> f64 { self.eval_clamped(x) - other.eval_clamped(x) };
        for w in grid.windows(2) {
            let (x0, x1) = (w[0], w[1]);
            let (d0, d1) = (diff(x0), diff(x1));
            if d0 == 0.0 {
                push_unique(&mut roots, x0);
            }
            if d0 * d1 < 0.0 {
                // Both curves are linear on this sub-interval, so the
                // difference is linear: closed-form root.
                let x = x0 + (x1 - x0) * d0 / (d0 - d1);
                push_unique(&mut roots, x);
            }
        }
        let last = *grid.last().expect("grid is non-empty");
        if diff(last) == 0.0 {
            push_unique(&mut roots, last);
        }
        Ok(roots)
    }

    /// The first intersection with `other`, if any.
    ///
    /// # Errors
    ///
    /// Same as [`Curve::intersections`].
    pub fn first_intersection(&self, other: &Curve) -> Result<Option<f64>, NumError> {
        Ok(self.intersections(other)?.first().copied())
    }
}

fn push_unique(roots: &mut Vec<f64>, x: f64) {
    let tol = 1e-12 * x.abs().max(1.0);
    if roots.last().is_none_or(|&last| (x - last).abs() > tol) {
        roots.push(x);
    }
}

/// Linear interpolation between two points.
///
/// # Example
///
/// ```
/// assert_eq!(dso_num::interp::lerp(0.0, 10.0, 0.25), 2.5);
/// ```
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// Generates `n` logarithmically spaced values in `[lo, hi]`.
///
/// # Errors
///
/// Returns [`NumError::InvalidArgument`] if `n < 2`, `lo <= 0` or
/// `hi <= lo`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), dso_num::NumError> {
/// let pts = dso_num::interp::logspace(1.0, 100.0, 3)?;
/// assert_eq!(pts.len(), 3);
/// assert!((pts[1] - 10.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn logspace(lo: f64, hi: f64, n: usize) -> Result<Vec<f64>, NumError> {
    if n < 2 {
        return Err(NumError::InvalidArgument("logspace: n must be >= 2".into()));
    }
    if lo <= 0.0 || hi <= lo {
        return Err(NumError::InvalidArgument(format!(
            "logspace: need 0 < lo < hi, got [{lo}, {hi}]"
        )));
    }
    let (l0, l1) = (lo.ln(), hi.ln());
    Ok((0..n)
        .map(|i| (l0 + (l1 - l0) * i as f64 / (n - 1) as f64).exp())
        .collect())
}

/// Generates `n` linearly spaced values in `[lo, hi]`.
///
/// # Errors
///
/// Returns [`NumError::InvalidArgument`] if `n < 2` or `hi <= lo`.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Result<Vec<f64>, NumError> {
    if n < 2 {
        return Err(NumError::InvalidArgument("linspace: n must be >= 2".into()));
    }
    if hi <= lo {
        return Err(NumError::InvalidArgument(format!(
            "linspace: need lo < hi, got [{lo}, {hi}]"
        )));
    }
    Ok((0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_interpolates() {
        let c = Curve::new(vec![0.0, 2.0], vec![0.0, 4.0]).unwrap();
        assert_eq!(c.eval(1.0).unwrap(), 2.0);
        assert_eq!(c.eval(0.0).unwrap(), 0.0);
        assert_eq!(c.eval(2.0).unwrap(), 4.0);
    }

    #[test]
    fn eval_rejects_out_of_domain() {
        let c = Curve::new(vec![0.0, 1.0], vec![0.0, 1.0]).unwrap();
        assert!(c.eval(-0.1).is_err());
        assert!(c.eval(1.1).is_err());
        assert_eq!(c.eval_clamped(5.0), 1.0);
        assert_eq!(c.eval_clamped(-5.0), 0.0);
    }

    #[test]
    fn constructor_validation() {
        assert!(Curve::new(vec![0.0], vec![1.0]).is_err());
        assert!(Curve::new(vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(Curve::new(vec![1.0, 0.5], vec![1.0, 2.0]).is_err());
        assert!(Curve::new(vec![0.0, 1.0], vec![1.0]).is_err());
        assert!(Curve::new(vec![0.0, f64::NAN], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn single_crossing() {
        let rising = Curve::new(vec![0.0, 10.0], vec![0.0, 10.0]).unwrap();
        let falling = Curve::new(vec![0.0, 10.0], vec![8.0, -2.0]).unwrap();
        let roots = rising.intersections(&falling).unwrap();
        assert_eq!(roots.len(), 1);
        assert!((roots[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn multiple_crossings() {
        // Zig-zag across a flat line at y = 0.5.
        let zig = Curve::new(vec![0.0, 1.0, 2.0, 3.0], vec![0.0, 1.0, 0.0, 1.0]).unwrap();
        let flat = Curve::new(vec![0.0, 3.0], vec![0.5, 0.5]).unwrap();
        let roots = zig.intersections(&flat).unwrap();
        assert_eq!(roots.len(), 3, "{roots:?}");
        assert!((roots[0] - 0.5).abs() < 1e-12);
        assert!((roots[1] - 1.5).abs() < 1e-12);
        assert!((roots[2] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn touching_at_sample_point_counted_once() {
        let a = Curve::new(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 0.0]).unwrap();
        let b = Curve::new(vec![0.0, 2.0], vec![1.0, 1.0]).unwrap();
        let roots = a.intersections(&b).unwrap();
        assert_eq!(roots.len(), 1);
        assert!((roots[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_domains_error() {
        let a = Curve::new(vec![0.0, 1.0], vec![0.0, 1.0]).unwrap();
        let b = Curve::new(vec![2.0, 3.0], vec![0.0, 1.0]).unwrap();
        assert!(a.intersections(&b).is_err());
    }

    #[test]
    fn no_intersection_returns_empty() {
        let a = Curve::new(vec![0.0, 1.0], vec![0.0, 0.5]).unwrap();
        let b = Curve::new(vec![0.0, 1.0], vec![1.0, 2.0]).unwrap();
        assert!(a.intersections(&b).unwrap().is_empty());
        assert_eq!(a.first_intersection(&b).unwrap(), None);
    }

    #[test]
    fn partial_domain_overlap() {
        let a = Curve::new(vec![0.0, 4.0], vec![0.0, 4.0]).unwrap();
        let b = Curve::new(vec![2.0, 6.0], vec![4.0, 0.0]).unwrap();
        let roots = a.intersections(&b).unwrap();
        assert_eq!(roots.len(), 1);
        assert!((roots[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn logspace_spacing() {
        let pts = logspace(1e3, 1e6, 4).unwrap();
        assert!((pts[0] - 1e3).abs() < 1e-6);
        assert!((pts[3] - 1e6).abs() < 1e-3);
        let r1 = pts[1] / pts[0];
        let r2 = pts[2] / pts[1];
        assert!((r1 - r2).abs() < 1e-9, "geometric spacing");
    }

    #[test]
    fn linspace_endpoints() {
        let pts = linspace(-1.0, 1.0, 5).unwrap();
        assert_eq!(pts, vec![-1.0, -0.5, 0.0, 0.5, 1.0]);
    }

    #[test]
    fn spacing_validation() {
        assert!(logspace(0.0, 1.0, 3).is_err());
        assert!(logspace(1.0, 1.0, 3).is_err());
        assert!(logspace(1.0, 2.0, 1).is_err());
        assert!(linspace(1.0, 0.0, 3).is_err());
    }
}
