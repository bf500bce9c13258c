//! Root and transition finding.
//!
//! Two search problems recur in the fault-analysis layer:
//!
//! * **Pass/fail boundaries** — the border resistance of a defect is the
//!   resistance at which a memory test flips from *pass* to *fail*. The
//!   oracle is expensive (a full transient simulation per probe) and only
//!   gives a boolean, so [`bisect_transition`] does a guarded boolean
//!   bisection, optionally on a logarithmic axis (resistances span decades).
//!   [`bisect_transition_hinted`] starts the same bisection near a guess
//!   and ends on the same bracket with fewer evaluations, and
//!   [`bisect_transition_prefetching`] also names, with each probe, the
//!   point it is likely to probe next, so a caller can simulate it ahead.
//! * **Continuous roots** — intersections of interpolated curves. For these
//!   [`brent`] offers superlinear convergence with bisection's robustness.

use crate::NumError;
use std::cmp::Ordering;

/// Axis scaling for [`bisect_transition`], and the measure its tolerance
/// is given in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Bisect the arithmetic midpoint; a cell splits while its width
    /// relative to its upper end is at least `rel_tol`.
    #[default]
    Linear,
    /// Bisect the geometric midpoint (both bracket ends must be positive);
    /// a cell splits while its ln-width is at least `rel_tol`.
    Logarithmic,
    /// Bisect the arithmetic midpoint `0.5·(lo + hi)`; `rel_tol` is an
    /// absolute width, and a cell splits while `hi − lo > rel_tol`.
    LinearAbsolute,
}

/// Result of a boolean-transition bisection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Largest probed value on the `false` side of the transition.
    pub last_false: f64,
    /// Smallest probed value on the `true` side of the transition.
    pub first_true: f64,
    /// Number of predicate calls spent (probes a hinted search settles by
    /// monotonicity make none). Prefetch points handed to the predicate
    /// ([`bisect_transition_prefetching`]) are not counted: they are not
    /// calls, and a caller that simulates them does so beside this count.
    pub evaluations: usize,
}

impl Transition {
    /// Midpoint estimate of the transition (geometric mean on log scale
    /// brackets is approximated well enough by the arithmetic mean once the
    /// bracket is tight).
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.last_false + self.first_true)
    }

    /// Width of the final bracket.
    pub fn width(&self) -> f64 {
        (self.first_true - self.last_false).abs()
    }
}

/// Locates the boundary where a monotone boolean `predicate` switches from
/// `false` (at `lo`) to `true` (at `hi`), to within tolerance `rel_tol`
/// (relative, or absolute on [`Scale::LinearAbsolute`]).
///
/// The predicate is assumed monotone on `[lo, hi]`: `false` at `lo`, `true`
/// at `hi`. Both endpoints are probed first and the bracket verified.
///
/// # Errors
///
/// * [`NumError::InvalidBracket`] if `lo >= hi` or the endpoint evaluations
///   do not form a `false → true` bracket.
/// * [`NumError::InvalidArgument`] for a non-positive `rel_tol` or a
///   non-positive endpoint with [`Scale::Logarithmic`].
/// * Errors from the predicate are propagated.
///
/// # Example
///
/// ```
/// use dso_num::roots::{bisect_transition, Scale};
///
/// # fn main() -> Result<(), dso_num::NumError> {
/// // Find where x > 40_000 starts holding, on a log axis.
/// let t = bisect_transition(1e3, 1e6, 1e-3, Scale::Logarithmic, |x| Ok(x > 4e4))?;
/// assert!(t.last_false <= 4e4 && 4e4 <= t.first_true);
/// assert!(t.width() / t.midpoint() < 2e-3);
/// # Ok(())
/// # }
/// ```
pub fn bisect_transition<F>(
    lo: f64,
    hi: f64,
    rel_tol: f64,
    scale: Scale,
    predicate: F,
) -> Result<Transition, NumError>
where
    F: FnMut(f64) -> Result<bool, NumError>,
{
    bisect_transition_hinted(lo, hi, rel_tol, scale, None, predicate)
}

/// Where a [`bisect_transition_hinted`] search expects the transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hint {
    /// The expected transition point.
    pub at: f64,
    /// Smallest span of the lattice cell the search starts from, in the
    /// measure `rel_tol` is given in: ln-width on [`Scale::Logarithmic`],
    /// width relative to the upper end on [`Scale::Linear`], width on
    /// [`Scale::LinearAbsolute`]. It should exceed the distance the
    /// transition may lie from [`Hint::at`].
    pub min_cell_span: f64,
}

/// As [`bisect_transition`], but starting from the bisection-lattice cell
/// that holds `hint`, and returning the same bracket with fewer
/// evaluations when the hint is good.
///
/// The *lattice* is every cell `[a, b]` the plain search can visit: the
/// root `[lo, hi]` and, recursively, the halves of each cell at its
/// midpoint, down to the cells it stops at. The search descends it,
/// evaluating nothing, to the deepest cell that holds `hint.at` and spans
/// at least `hint.min_cell_span`. It probes that cell's two ends; on a
/// miss it probes the one neighbouring cell the miss points to, and if
/// that misses too it falls back to the plain search from `lo` and `hi`.
/// A probe that monotonicity already settles (at or below a known `false`
/// point, at or above a known `true` one) is answered without calling
/// `predicate`. Every point it evaluates is a lattice point, so for a
/// monotone predicate the final bracket is bit-identical to the plain
/// search's and only [`Transition::evaluations`] differs: `2 + (D − d)`
/// when the transition lies in the hint cell (depth `d`, final depth
/// `D`), and never more than three above the plain search.
///
/// With `hint` `None` this *is* the plain search: the same predicate
/// calls in the same order.
///
/// # Errors
///
/// As [`bisect_transition`]. With a hint, the bracket is verified by the
/// cell ends instead of `lo` and `hi`; a fallback verifies `lo` and `hi`
/// and reports the same [`NumError::InvalidBracket`].
///
/// # Example
///
/// ```
/// use dso_num::roots::{bisect_transition, bisect_transition_hinted, Hint, Scale};
///
/// # fn main() -> Result<(), dso_num::NumError> {
/// let fails = |x: f64| Ok(x > 4e4);
/// let plain = bisect_transition(1e3, 1e8, 0.03, Scale::Logarithmic, fails)?;
/// let hint = Hint { at: 3.8e4, min_cell_span: 0.3 };
/// let near = bisect_transition_hinted(1e3, 1e8, 0.03, Scale::Logarithmic, Some(hint), fails)?;
/// assert_eq!(near.last_false.to_bits(), plain.last_false.to_bits());
/// assert_eq!(near.first_true.to_bits(), plain.first_true.to_bits());
/// assert_eq!((plain.evaluations, near.evaluations), (11, 6));
/// # Ok(())
/// # }
/// ```
pub fn bisect_transition_hinted<F>(
    lo: f64,
    hi: f64,
    rel_tol: f64,
    scale: Scale,
    hint: Option<Hint>,
    mut predicate: F,
) -> Result<Transition, NumError>
where
    F: FnMut(f64) -> Result<bool, NumError>,
{
    bisect_transition_prefetching(lo, hi, rel_tol, scale, hint, |x, _| predicate(x))
}

/// As [`bisect_transition_hinted`], but the predicate is called as
/// `predicate(x, next)`: with each point `x` it must decide, the search
/// hands it at most one lattice point `next` that it is likely to ask for
/// next, so a caller with an idle core can start on it.
///
/// The prefetch point is
///
/// * for a bisection midpoint, the split point of the half toward
///   `hint.at` (the lower half when there is no hint);
/// * for the lower end of the hint cell, its upper end;
/// * for `lo` in the plain search (or a fallback to it), `hi`;
///
/// and `None` for every other probe, where that half no longer splits,
/// or where monotonicity already settles the point. The search's own
/// decisions never look at `next`, so for *any* predicate, monotone or
/// not, the points it asks, the bracket and [`Transition::evaluations`]
/// are exactly those of [`bisect_transition_hinted`]. Every prefetch point
/// is a lattice point strictly between the largest point answered `false`
/// and the smallest answered `true` so far.
///
/// # Errors
///
/// As [`bisect_transition_hinted`].
///
/// # Example
///
/// ```
/// use dso_num::roots::{bisect_transition_prefetching, Scale};
///
/// # fn main() -> Result<(), dso_num::NumError> {
/// let mut asked = Vec::new();
/// let mut prefetched = Vec::new();
/// let t = bisect_transition_prefetching(1e3, 1e8, 0.03, Scale::Logarithmic, None, |x, next| {
///     asked.push(x);
///     prefetched.extend(next);
///     Ok(x > 4e4)
/// })?;
/// assert_eq!(t.evaluations, asked.len());
/// // The first prefetch is `hi`, asked right after `lo`.
/// assert_eq!((asked[1], prefetched[0]), (1e8, 1e8));
/// assert!(prefetched.iter().all(|p| (1e3..=1e8).contains(p)));
/// # Ok(())
/// # }
/// ```
pub fn bisect_transition_prefetching<F>(
    lo: f64,
    hi: f64,
    rel_tol: f64,
    scale: Scale,
    hint: Option<Hint>,
    predicate: F,
) -> Result<Transition, NumError>
where
    F: FnMut(f64, Option<f64>) -> Result<bool, NumError>,
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
    let lattice = Lattice { rel_tol, scale };
    let root = Cell { lo, hi, depth: 0 };
    let mut oracle = Oracle {
        predicate,
        evaluations: 0,
        known_false: None,
        known_true: None,
    };
    let hinted = match hint {
        Some(hint) => lattice.hinted_cell(root, hint, &mut oracle)?,
        None => None,
    };
    let mut cell = match hinted {
        Some(cell) => cell,
        None => {
            if oracle.probe(lo, Some(hi))? || !oracle.probe(hi, None)? {
                return Err(NumError::InvalidBracket { lo, hi });
            }
            root
        }
    };
    while let Some(mid) = lattice.split(cell) {
        // Prefetch the split of the half toward the hint (half-open cells:
        // a hint on `mid` lies right of it), or of the lower half.
        let (a, b) = if hint.is_some_and(|h| h.at >= mid) {
            (mid, cell.hi)
        } else {
            (cell.lo, mid)
        };
        let next = lattice.split(Cell {
            lo: a,
            hi: b,
            depth: cell.depth + 1,
        });
        if oracle.probe(mid, next)? {
            cell.hi = mid;
        } else {
            cell.lo = mid;
        }
        cell.depth += 1;
    }
    Ok(Transition {
        last_false: cell.lo,
        first_true: cell.hi,
        evaluations: oracle.evaluations,
    })
}

/// 200 bisection steps is far beyond what any tolerance needs; the cap
/// guards against pathological floating-point cycling.
const MAX_DEPTH: usize = 200;

/// A cell of the bisection lattice and the number of splits that made it.
#[derive(Debug, Clone, Copy)]
struct Cell {
    lo: f64,
    hi: f64,
    depth: usize,
}

/// The split rule shared by the plain and the hinted search.
struct Lattice {
    rel_tol: f64,
    scale: Scale,
}

impl Lattice {
    fn span(&self, cell: Cell) -> f64 {
        match self.scale {
            Scale::Linear => (cell.hi - cell.lo) / cell.hi.abs().max(1e-300),
            Scale::Logarithmic => (cell.hi / cell.lo).ln(),
            Scale::LinearAbsolute => cell.hi - cell.lo,
        }
    }

    /// The point the search splits `cell` at, or `None` where it stops:
    /// tolerance reached, depth cap, or floating-point exhaustion.
    fn split(&self, cell: Cell) -> Option<f64> {
        let span = self.span(cell);
        let done = match self.scale {
            // `!(span > tol)`: split while `hi - lo > tol`; a NaN stops.
            Scale::LinearAbsolute => span.partial_cmp(&self.rel_tol) != Some(Ordering::Greater),
            Scale::Linear | Scale::Logarithmic => span.abs() < self.rel_tol,
        };
        if cell.depth >= MAX_DEPTH || done {
            return None;
        }
        let mid = match self.scale {
            Scale::Linear | Scale::LinearAbsolute => 0.5 * (cell.lo + cell.hi),
            Scale::Logarithmic => (cell.lo * cell.hi).sqrt(),
        };
        (mid > cell.lo && mid < cell.hi).then_some(mid)
    }

    /// Descends from `root`, evaluating nothing, into the left half of a
    /// cell wherever `left(mid)` and the right half otherwise; stops at the
    /// deepest cell spanning at least `min_span`.
    fn descend(&self, root: Cell, min_span: f64, left: impl Fn(f64) -> bool) -> Cell {
        let mut cell = root;
        while let Some(mid) = self.split(cell) {
            let (lo, hi) = if left(mid) {
                (cell.lo, mid)
            } else {
                (mid, cell.hi)
            };
            let child = Cell {
                lo,
                hi,
                depth: cell.depth + 1,
            };
            if self.span(child).abs() < min_span {
                break;
            }
            cell = child;
        }
        cell
    }

    /// The cell around `hint` if its ends bracket the transition, else the
    /// neighbour the miss points to if that does, else `None`.
    fn hinted_cell<F>(
        &self,
        root: Cell,
        hint: Hint,
        oracle: &mut Oracle<F>,
    ) -> Result<Option<Cell>, NumError>
    where
        F: FnMut(f64, Option<f64>) -> Result<bool, NumError>,
    {
        // Cells are half-open, [lo, hi): a hint on a split point goes right.
        let cell = self.descend(root, hint.min_cell_span, |mid| hint.at < mid);
        let lo_true = oracle.probe(cell.lo, Some(cell.hi))?;
        // Settled without a call when `lo_true`.
        let hi_true = oracle.probe(cell.hi, None)?;
        if !lo_true && hi_true {
            return Ok(Some(cell));
        }
        let neighbour = if lo_true {
            // The transition lies below: the cell just left of `cell.lo`.
            (cell.lo > root.lo)
                .then(|| self.descend(root, hint.min_cell_span, |mid| cell.lo <= mid))
        } else {
            // It lies above: the cell holding `cell.hi`.
            (cell.hi < root.hi).then(|| self.descend(root, hint.min_cell_span, |mid| cell.hi < mid))
        };
        if let Some(n) = neighbour {
            // The end shared with `cell` is settled; one call at most.
            if !oracle.probe(n.lo, None)? && oracle.probe(n.hi, None)? {
                return Ok(Some(n));
            }
        }
        Ok(None)
    }
}

/// The predicate behind a memo of monotonicity: a probe at or below the
/// largest known `false` point is `false`, at or above the smallest known
/// `true` point is `true`, and only the rest call the predicate, together
/// with the prefetch point if that is not settled either.
struct Oracle<F> {
    predicate: F,
    evaluations: usize,
    known_false: Option<f64>,
    known_true: Option<f64>,
}

impl<F> Oracle<F>
where
    F: FnMut(f64, Option<f64>) -> Result<bool, NumError>,
{
    fn settled(&self, x: f64) -> Option<bool> {
        if self.known_false.is_some_and(|f| x <= f) {
            Some(false)
        } else if self.known_true.is_some_and(|t| x >= t) {
            Some(true)
        } else {
            None
        }
    }

    fn probe(&mut self, x: f64, next: Option<f64>) -> Result<bool, NumError> {
        if let Some(outcome) = self.settled(x) {
            return Ok(outcome);
        }
        self.evaluations += 1;
        let next = next.filter(|&p| self.settled(p).is_none());
        let outcome = (self.predicate)(x, next)?;
        // `x` lies strictly between the known points, so it tightens one.
        if outcome {
            self.known_true = Some(x);
        } else {
            self.known_false = Some(x);
        }
        Ok(outcome)
    }
}

/// Brent's method: finds `x` in `[a, b]` with `f(x) = 0`, assuming
/// `f(a)·f(b) < 0`.
///
/// # Errors
///
/// * [`NumError::InvalidBracket`] if the endpoints do not bracket a sign
///   change.
/// * [`NumError::NoConvergence`] if `max_iter` is exhausted.
///
/// # Example
///
/// ```
/// use dso_num::roots::brent;
///
/// # fn main() -> Result<(), dso_num::NumError> {
/// let root = brent(0.0, 2.0, 1e-12, 100, |x| x * x - 2.0)?;
/// assert!((root - 2.0_f64.sqrt()).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn brent<F>(a: f64, b: f64, tol: f64, max_iter: usize, mut f: F) -> Result<f64, NumError>
where
    F: FnMut(f64) -> f64,
{
    let (mut a, mut b) = (a, b);
    let (mut fa, mut fb) = (f(a), f(b));
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa * fb > 0.0 {
        return Err(NumError::InvalidBracket { lo: a, hi: b });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut mflag = true;
    let mut d = 0.0;
    for _ in 0..max_iter {
        if fb == 0.0 || (b - a).abs() < tol {
            return Ok(b);
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            b - fb * (b - a) / (fb - fa)
        };
        let lo = (3.0 * a + b) / 4.0;
        let cond1 = !((lo.min(b) < s) && (s < lo.max(b)));
        let cond2 = mflag && (s - b).abs() >= (b - c).abs() / 2.0;
        let cond3 = !mflag && (s - b).abs() >= (c - d).abs() / 2.0;
        let cond4 = mflag && (b - c).abs() < tol;
        let cond5 = !mflag && (c - d).abs() < tol;
        if cond1 || cond2 || cond3 || cond4 || cond5 {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = f(s);
        d = c;
        c = b;
        fc = fb;
        if fa * fs < 0.0 {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(NumError::NoConvergence {
        iterations: max_iter,
        residual: fb.abs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_transition() {
        let t = bisect_transition(0.0, 10.0, 1e-6, Scale::Linear, |x| Ok(x > 3.7)).unwrap();
        assert!((t.midpoint() - 3.7).abs() < 1e-4);
    }

    #[test]
    fn log_transition_over_decades() {
        let t =
            bisect_transition(1.0, 1e9, 1e-4, Scale::Logarithmic, |x| Ok(x > 123_456.0)).unwrap();
        assert!(t.last_false <= 123_456.0 && 123_456.0 <= t.first_true);
        assert!((t.midpoint() - 123_456.0).abs() / 123_456.0 < 1e-3);
        // Log bisection over 9 decades should take ~log2(ln ratio/tol) ≈ 25
        // evaluations, not hundreds.
        assert!(t.evaluations < 40, "{}", t.evaluations);
    }

    #[test]
    fn rejects_non_bracketing_predicate() {
        let err = bisect_transition(0.0, 1.0, 1e-3, Scale::Linear, |_| Ok(true)).unwrap_err();
        assert!(matches!(err, NumError::InvalidBracket { .. }));
        let err = bisect_transition(0.0, 1.0, 1e-3, Scale::Linear, |_| Ok(false)).unwrap_err();
        assert!(matches!(err, NumError::InvalidBracket { .. }));
    }

    #[test]
    fn rejects_reversed_bracket() {
        let err = bisect_transition(2.0, 1.0, 1e-3, Scale::Linear, |x| Ok(x > 1.5)).unwrap_err();
        assert!(matches!(err, NumError::InvalidBracket { .. }));
    }

    #[test]
    fn rejects_log_scale_with_nonpositive_lo() {
        let err =
            bisect_transition(-1.0, 1.0, 1e-3, Scale::Logarithmic, |x| Ok(x > 0.5)).unwrap_err();
        assert!(matches!(err, NumError::InvalidArgument(_)));
    }

    #[test]
    fn propagates_oracle_errors() {
        let err = bisect_transition(0.0, 1.0, 1e-3, Scale::Linear, |_| {
            Err(NumError::InvalidArgument("oracle broke".into()))
        })
        .unwrap_err();
        assert!(matches!(err, NumError::InvalidArgument(_)));
    }

    #[test]
    fn brent_sqrt2() {
        let root = brent(0.0, 2.0, 1e-13, 100, |x| x * x - 2.0).unwrap();
        assert!((root - 2.0_f64.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn brent_transcendental() {
        let root = brent(0.0, 1.0, 1e-12, 100, |x| x.cos() - x).unwrap();
        assert!((root.cos() - root).abs() < 1e-10);
    }

    #[test]
    fn brent_endpoint_root() {
        assert_eq!(brent(0.0, 1.0, 1e-12, 100, |x| x).unwrap(), 0.0);
    }

    #[test]
    fn brent_rejects_bad_bracket() {
        let err = brent(1.0, 2.0, 1e-12, 100, |x| x * x + 1.0).unwrap_err();
        assert!(matches!(err, NumError::InvalidBracket { .. }));
    }
}
