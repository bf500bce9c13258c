//! Dense, row-major matrices.
//!
//! [`DMatrix`] is deliberately small and allocation-transparent: circuit
//! matrices in this workspace are tens of rows, rebuilt (restamped) every
//! Newton iteration, so the container favours cheap clearing and in-place
//! accumulation (`add_at`) over rich linear-algebra features.

use crate::NumError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
///
/// # Example
///
/// ```
/// use dso_num::matrix::DMatrix;
///
/// # fn main() -> Result<(), dso_num::NumError> {
/// let mut m = DMatrix::zeros(2, 2);
/// m.add_at(0, 0, 1.5);
/// m.add_at(0, 0, 0.5); // accumulates, MNA-stamp style
/// assert_eq!(m[(0, 0)], 2.0);
/// let i = DMatrix::identity(3);
/// assert_eq!(i.mul_vec(&[1.0, 2.0, 3.0])?, vec![1.0, 2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::ShapeMismatch`] if the rows have differing
    /// lengths, and [`NumError::InvalidArgument`] if `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, NumError> {
        let first = rows
            .first()
            .ok_or_else(|| NumError::InvalidArgument("from_rows: no rows given".into()))?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(NumError::ShapeMismatch {
                    expected: format!("row of length {cols}"),
                    found: format!("row {i} of length {}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(DMatrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Resets every entry to zero while keeping the allocation.
    ///
    /// This is the hot path for MNA restamping: the matrix is cleared and
    /// re-accumulated on every Newton iteration.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Adds `value` to the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn add_at(&mut self, row: usize, col: usize, value: f64) {
        self[(row, col)] += value;
    }

    /// Copies another matrix's contents into this one, reshaping (but
    /// reusing the allocation when the sizes already match). This is the
    /// memcpy behind linear-base MNA stamping: the constant R/C/topology
    /// stamps are built once and copied here on every Newton iteration.
    pub fn copy_from(&mut self, other: &DMatrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.resize(other.data.len(), 0.0);
        self.data.copy_from_slice(&other.data);
    }

    /// Writes the matrix–vector product `A · x` into `y` without
    /// allocating (the hot-loop counterpart of [`DMatrix::mul_vec`]).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "mul_vec_into: x length mismatch");
        assert_eq!(y.len(), self.rows, "mul_vec_into: y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// Returns the matrix–vector product `A · x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::ShapeMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, NumError> {
        if x.len() != self.cols {
            return Err(NumError::ShapeMismatch {
                expected: format!("vector of length {}", self.cols),
                found: format!("vector of length {}", x.len()),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        Ok(y)
    }

    /// Maximum absolute entry (the max norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Infinity norm (maximum absolute row sum). NaN entries propagate: a
    /// matrix containing NaN has a NaN norm, never a spuriously small one.
    pub fn norm_inf(&self) -> f64 {
        let mut m = 0.0_f64;
        for i in 0..self.rows {
            let row_sum: f64 = self.data[i * self.cols..(i + 1) * self.cols]
                .iter()
                .map(|v| v.abs())
                .sum();
            if row_sum.is_nan() {
                return f64::NAN;
            }
            m = m.max(row_sum);
        }
        m
    }

    /// Borrowed view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrowed view of a single row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Index<(usize, usize)> for DMatrix {
    type Output = f64;

    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for DMatrix {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        &mut self.data[row * self.cols + col]
    }
}

impl fmt::Display for DMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.5e}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Infinity norm of a vector.
///
/// NaN entries propagate: the norm of a vector containing NaN is NaN.
/// (`f64::max` would silently discard NaN, letting a poisoned residual
/// masquerade as converged.)
pub fn norm_inf(x: &[f64]) -> f64 {
    let mut m = 0.0_f64;
    for v in x {
        if v.is_nan() {
            return f64::NAN;
        }
        m = m.max(v.abs());
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = DMatrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(!z.is_square());
        assert_eq!(z.max_abs(), 0.0);

        let i = DMatrix::identity(3);
        assert!(i.is_square());
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, NumError::ShapeMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        let err = DMatrix::from_rows(&[]).unwrap_err();
        assert!(matches!(err, NumError::InvalidArgument(_)));
    }

    #[test]
    fn mul_vec_works() {
        let m = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let y = m.mul_vec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn mul_vec_shape_checked() {
        let m = DMatrix::zeros(2, 2);
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn clear_keeps_shape() {
        let mut m = DMatrix::identity(4);
        m.clear();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.max_abs(), 0.0);
    }

    #[test]
    fn norms() {
        let m = DMatrix::from_rows(&[&[1.0, -2.0], &[-3.0, 0.5]]).unwrap();
        assert_eq!(m.max_abs(), 3.0);
        assert_eq!(m.norm_inf(), 3.5);
        assert_eq!(norm_inf(&[1.0, -7.0, 2.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = DMatrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn display_contains_entries() {
        let m = DMatrix::identity(2);
        let s = m.to_string();
        assert!(s.contains("1.0"));
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = DMatrix::zeros(2, 2);
        assert!(m.is_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.is_finite());
    }
}
