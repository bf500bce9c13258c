//! Dense LU factorization with partial pivoting.
//!
//! Circuit matrices produced by modified nodal analysis are small (tens of
//! unknowns for one DRAM column) but must be factored thousands of times per
//! transient run, so the factorization is written for predictable, in-place
//! performance rather than generality.

use crate::matrix::DMatrix;
use crate::NumError;

/// Pivot magnitudes below this are treated as singular.
pub const SINGULARITY_THRESHOLD: f64 = 1e-13;

/// An LU factorization `P·A = L·U` of a square matrix, with partial
/// pivoting.
///
/// The factors are stored densely, but the kernels skip exact zeros: the
/// elimination updates a row only over the pivot row's nonzero columns,
/// and the substitutions sum only over each row's recorded nonzeros, in
/// ascending column order. Every nonzero result and every pivot choice is
/// therefore bit-identical to the plain dense loops (DESIGN §10).
///
/// # Example
///
/// ```
/// use dso_num::{matrix::DMatrix, lu::LuFactor};
///
/// # fn main() -> Result<(), dso_num::NumError> {
/// let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let lu = LuFactor::new(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// // Verify A x = b.
/// let b = a.mul_vec(&x)?;
/// assert!((b[0] - 3.0).abs() < 1e-12 && (b[1] - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor {
    /// Combined L (below diagonal, unit diagonal implied) and U (on and
    /// above the diagonal), row-major.
    lu: Vec<f64>,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Dimension of the stored factorization; 0 when there is none (never
    /// factored, or the last refactor failed).
    n: usize,
    /// Sign of the permutation, for the determinant.
    perm_sign: f64,
    /// Nonzero columns of each row of L (strictly lower), ascending; row
    /// `i` is `l_cols[l_start[i]..l_start[i + 1]]`.
    l_cols: Vec<usize>,
    l_start: Vec<usize>,
    /// Nonzero columns of each row of U (strictly upper), same layout.
    u_cols: Vec<usize>,
    u_start: Vec<usize>,
}

impl LuFactor {
    /// Factorizes `a` with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`NumError::ShapeMismatch`] if `a` is not square.
    /// * [`NumError::SingularMatrix`] if a pivot smaller than
    ///   [`SINGULARITY_THRESHOLD`] (relative to the matrix scale) is hit.
    /// * [`NumError::NonFinite`] if `a` contains NaN or infinity.
    pub fn new(a: &DMatrix) -> Result<Self, NumError> {
        let mut f = LuFactor::empty();
        f.refactor_into(a)?;
        Ok(f)
    }

    /// An empty (0×0) factorization, used as reusable storage for
    /// [`LuFactor::refactor_into`].
    pub fn empty() -> Self {
        LuFactor {
            lu: Vec::new(),
            perm: Vec::new(),
            n: 0,
            perm_sign: 1.0,
            l_cols: Vec::new(),
            l_start: Vec::new(),
            u_cols: Vec::new(),
            u_start: Vec::new(),
        }
    }

    /// Refactorizes `a`, reusing this factorization's buffers. Once the
    /// stored buffers match `a`'s dimension (e.g. after a first
    /// [`LuFactor::new`] or `refactor_into` of the same size), this performs
    /// no heap allocation — the per-timestep path of a transient simulation
    /// depends on that.
    ///
    /// # Errors
    ///
    /// Same contract as [`LuFactor::new`]. On error the factorization is
    /// left empty ([`LuFactor::dim`] is 0), so no caller can mistake a
    /// half-written factor for a usable one.
    pub fn refactor_into(&mut self, a: &DMatrix) -> Result<(), NumError> {
        self.n = 0;
        if !a.is_square() {
            return Err(NumError::ShapeMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let Some(max_abs) = finite_max_abs(a.as_slice()) else {
            return Err(NumError::NonFinite {
                context: "LU input matrix".into(),
            });
        };
        let n = a.rows();
        // Sized once, when a larger dimension first arrives: each strict
        // triangle holds at most n(n-1)/2 entries, so both lists together
        // stay within n².
        let half = n * n.saturating_sub(1) / 2;
        if self.u_cols.len() < half || self.u_start.len() <= n {
            self.l_cols = vec![0; half];
            self.u_cols = vec![0; half];
            self.l_start = vec![0; n + 1];
            self.u_start = vec![0; n + 1];
        }
        self.lu.clear();
        self.lu.extend_from_slice(a.as_slice());
        self.perm.clear();
        self.perm.extend(0..n);
        self.perm_sign = 1.0;
        let lu = &mut self.lu;
        let perm = &mut self.perm;
        let threshold = SINGULARITY_THRESHOLD * max_abs.max(1.0);

        let mut u_len = 0;
        for k in 0..n {
            // Partial pivoting: pick the largest magnitude in column k.
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
                self.perm_sign = -self.perm_sign;
            }
            let (head, tail) = lu.split_at_mut((k + 1) * n);
            let row_k = &head[k * n..];
            // Row k is final from here on: its nonzeros right of the
            // diagonal are U's row pattern, and the only columns the
            // elimination below can change.
            let row_start = u_len;
            u_len = compact_nonzeros(&row_k[k + 1..], k + 1, &mut self.u_cols, u_len);
            self.u_start[k + 1] = u_len;
            let u_row = &self.u_cols[row_start..u_len];
            // A pivot row more than a quarter full is cheaper to sweep
            // contiguously (the loop vectorizes) than through its index
            // list; the extra terms are exact zeros, so both give the
            // same bits.
            let contiguous = 4 * u_row.len() > n - k - 1;
            let pivot = row_k[k];
            for row in tail.chunks_exact_mut(n) {
                let lik = row[k];
                if lik == 0.0 {
                    continue;
                }
                let factor = lik / pivot;
                row[k] = factor;
                if factor == 0.0 {
                    continue;
                }
                if contiguous {
                    for (a, p) in row[k + 1..].iter_mut().zip(&row_k[k + 1..]) {
                        *a -= factor * p;
                    }
                } else {
                    for &j in u_row {
                        row[j] -= factor * row_k[j];
                    }
                }
            }
        }
        // L's row pattern is only final once every swap has happened.
        let mut l_len = 0;
        for i in 0..n {
            l_len = compact_nonzeros(&lu[i * n..i * n + i], 0, &mut self.l_cols, l_len);
            self.l_start[i + 1] = l_len;
        }
        self.n = n;
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The row permutation: entry `i` is the original row now in position
    /// `i`. Empty when there is no factorization.
    pub fn permutation(&self) -> &[usize] {
        &self.perm[..self.n]
    }

    /// The combined factors, row-major: L strictly below the diagonal (its
    /// unit diagonal implied), U on and above it. Empty when there is no
    /// factorization.
    pub fn factors(&self) -> &[f64] {
        &self.lu[..self.n * self.n]
    }

    /// Solves `A·x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumError> {
        if b.len() != self.n {
            return Err(NumError::ShapeMismatch {
                expected: format!("vector of length {}", self.n),
                found: format!("vector of length {}", b.len()),
            });
        }
        let mut x = vec![0.0; self.n];
        self.solve_in_place(b, &mut x);
        Ok(x)
    }

    /// Solves `A·x = b`, writing the solution into `x` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()` or `x.len() != self.dim()`.
    pub fn solve_in_place(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length mismatch");
        assert_eq!(x.len(), n, "solution length mismatch");
        // Forward substitution with permuted rhs: L·y = P·b.
        for i in 0..n {
            let row = &self.lu[i * n..(i + 1) * n];
            let mut sum = b[self.perm[i]];
            for &j in &self.l_cols[self.l_start[i]..self.l_start[i + 1]] {
                sum -= row[j] * x[j];
            }
            x[i] = sum;
        }
        // Back substitution: U·x = y.
        for i in (0..n).rev() {
            let row = &self.lu[i * n..(i + 1) * n];
            let mut sum = x[i];
            for &j in &self.u_cols[self.u_start[i]..self.u_start[i + 1]] {
                sum -= row[j] * x[j];
            }
            x[i] = sum / row[i];
        }
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.n {
            det *= self.lu[i * self.n + i];
        }
        det
    }

    /// A cheap condition estimate: ratio of largest to smallest absolute
    /// pivot. Large values indicate an ill-conditioned system.
    pub fn pivot_ratio(&self) -> f64 {
        let mut max = 0.0_f64;
        let mut min = f64::INFINITY;
        for i in 0..self.n {
            let p = self.lu[i * self.n + i].abs();
            max = max.max(p);
            min = min.min(p);
        }
        if min == 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }
}

/// The largest magnitude in `values`, or `None` if any value is NaN or
/// infinite: the finiteness check and the pivot scale in one pass. Four
/// independent running maxima keep the loop off a single dependency
/// chain; `max` is exact and order-free on finite magnitudes, so the
/// result equals a sequential fold.
fn finite_max_abs(values: &[f64]) -> Option<f64> {
    let mut lanes = [0.0_f64; 4];
    let mut finite = true;
    let chunks = values.chunks_exact(4);
    let rest = chunks.remainder();
    for c in chunks {
        for (m, v) in lanes.iter_mut().zip(c) {
            finite &= v.is_finite();
            *m = m.max(v.abs());
        }
    }
    for v in rest {
        finite &= v.is_finite();
        lanes[0] = lanes[0].max(v.abs());
    }
    finite.then(|| lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3])))
}

/// Appends the column index (`first` + offset) of every nonzero of
/// `values` to `cols` from position `len` on, returning the new length.
/// Branch-free: every index is written, but the cursor only advances past
/// nonzeros, so a scattered pattern costs no mispredictions.
fn compact_nonzeros(values: &[f64], first: usize, cols: &mut [usize], mut len: usize) -> usize {
    for (off, v) in values.iter().enumerate() {
        cols[len] = first + off;
        len += usize::from(*v != 0.0);
    }
    len
}

/// Convenience: factor `a` and solve `a·x = b` in one call.
///
/// # Errors
///
/// Propagates the errors of [`LuFactor::new`] and [`LuFactor::solve`].
pub fn solve(a: &DMatrix, b: &[f64]) -> Result<Vec<f64>, NumError> {
    LuFactor::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::norm_inf;

    fn residual(a: &DMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.mul_vec(x).unwrap();
        norm_inf(&ax.iter().zip(b).map(|(l, r)| l - r).collect::<Vec<f64>>())
    }

    #[test]
    fn solve_2x2() {
        let a = DMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = [1.0, 2.0];
        let x = solve(&a, &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal: succeeds only with pivoting.
        let a = DMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn singular_reported() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let err = LuFactor::new(&a).unwrap_err();
        assert!(matches!(err, NumError::SingularMatrix { .. }));
    }

    #[test]
    fn non_square_rejected() {
        let a = DMatrix::zeros(2, 3);
        assert!(matches!(
            LuFactor::new(&a),
            Err(NumError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn nan_rejected() {
        let mut a = DMatrix::identity(2);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(LuFactor::new(&a), Err(NumError::NonFinite { .. })));
    }

    #[test]
    fn determinant_of_known_matrix() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        assert!((lu.determinant() - (-2.0)).abs() < 1e-12);
    }

    #[test]
    fn determinant_of_identity_is_one() {
        let lu = LuFactor::new(&DMatrix::identity(5)).unwrap();
        assert!((lu.determinant() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let a =
            DMatrix::from_rows(&[&[3.0, -1.0, 2.0], &[1.0, 4.0, 0.5], &[-2.0, 1.0, 5.0]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        let b = [1.0, -2.0, 0.25];
        let x1 = lu.solve(&b).unwrap();
        let mut x2 = vec![0.0; 3];
        lu.solve_in_place(&b, &mut x2);
        assert_eq!(x1, x2);
        assert!(residual(&a, &x1, &b) < 1e-12);
    }

    #[test]
    fn refactor_into_matches_new_and_reuses_buffers() {
        let a = DMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = DMatrix::from_rows(&[&[0.0, 2.0], &[5.0, -1.0]]).unwrap();
        let mut f = LuFactor::new(&a).unwrap();
        f.refactor_into(&b).unwrap();
        let fresh = LuFactor::new(&b).unwrap();
        assert_eq!(f.lu, fresh.lu);
        assert_eq!(f.perm, fresh.perm);
        assert_eq!(f.determinant(), fresh.determinant());
        // Refactoring back to `a` restores the original solution.
        f.refactor_into(&a).unwrap();
        let rhs = [1.0, 2.0];
        let x = f.solve(&rhs).unwrap();
        assert!(residual(&a, &x, &rhs) < 1e-12);
    }

    #[test]
    fn refactor_into_grows_from_empty() {
        let mut f = LuFactor::empty();
        assert_eq!(f.dim(), 0);
        let a =
            DMatrix::from_rows(&[&[3.0, -1.0, 2.0], &[1.0, 4.0, 0.5], &[-2.0, 1.0, 5.0]]).unwrap();
        f.refactor_into(&a).unwrap();
        assert_eq!(f.dim(), 3);
        let rhs = [1.0, -2.0, 0.25];
        let x = f.solve(&rhs).unwrap();
        assert!(residual(&a, &x, &rhs) < 1e-12);
    }

    #[test]
    fn rhs_length_checked() {
        let lu = LuFactor::new(&DMatrix::identity(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn pivot_ratio_of_identity() {
        let lu = LuFactor::new(&DMatrix::identity(4)).unwrap();
        assert_eq!(lu.pivot_ratio(), 1.0);
    }

    #[test]
    fn larger_random_like_system() {
        // Deterministic pseudo-random diagonally dominant system.
        let n = 25;
        let mut a = DMatrix::zeros(n, n);
        let mut seed = 42u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (u32::MAX as f64)) - 0.5
        };
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = next();
                    a[(i, j)] = v;
                    row_sum += v.abs();
                }
            }
            a[(i, i)] = row_sum + 1.0;
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = solve(&a, &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-10);
    }
}
