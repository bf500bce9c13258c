//! LU factorization with partial pivoting, in a fill-reducing order.
//!
//! Circuit matrices produced by modified nodal analysis are small (tens of
//! unknowns for one DRAM column) and sparse, and they must be factored
//! thousands of times per transient run with the same structure every
//! time. A caller that declares that structure ([`LuFactor::set_pattern`])
//! gets a factorization built for it:
//!
//! * **Order.** A symmetric minimum-degree order of the pattern's graph
//!   (`A + Aᵀ`, ties to the lowest index), computed once per pattern. Rows
//!   and columns are both permuted by it, so the pivot rule still sees
//!   every row.
//! * **Record.** The pivot search: partial pivoting in that order, over a
//!   dense working copy, skipping exact zeros. From the pivot sequence it
//!   records a schedule: the structural L and U of that sequence, which
//!   matrix entries gather where, and for every L entry whether its row
//!   stood before or after the pivot row when the pivot was chosen.
//! * **Replay.** Every later refactor gathers the pattern's entries and
//!   eliminates over the recorded L rows and U columns only. Before each
//!   L entry is divided by its pivot, it checks that the recorded pivot is
//!   still the one partial pivoting would choose (larger in magnitude than
//!   every row before it, no smaller than every row after it); if not, or
//!   if a pivot falls below the singularity threshold, it runs the pivot
//!   search again, which records a new schedule.
//!
//! Without a declared pattern the order is the identity and every refactor
//! runs the pivot search: the plain dense partial-pivoting arithmetic,
//! skipping only exact zeros.
//!
//! The replay performs the pivot search's operations on every structural
//! entry, in the same order per entry, so every nonzero it computes equals
//! the pivot search's bit for bit; an entry that is structurally present
//! but exactly zero only adds `±0` terms, which can change the sign of a
//! zero result and nothing else (DESIGN §10).

use crate::matrix::DMatrix;
use crate::NumError;

/// Pivot magnitudes below this are treated as singular.
pub const SINGULARITY_THRESHOLD: f64 = 1e-13;

/// The structural pattern of a square matrix: every position that may hold
/// a nonzero. Row `i`'s columns are `cols[starts[i]..starts[i + 1]]`; the
/// dimension is `starts.len() - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pattern<'a> {
    /// Row starts into `cols`, `dim + 1` of them, from 0 to `cols.len()`.
    pub starts: &'a [usize],
    /// Column indices, row by row.
    pub cols: &'a [usize],
}

impl Pattern<'_> {
    /// The matrix dimension.
    pub fn dim(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Positions in the pattern.
    pub fn nonzeros(&self) -> usize {
        self.cols.len()
    }
}

/// An LU factorization `P·A = L·U` of a square matrix, with partial
/// pivoting, in the elimination order of a declared [`Pattern`] (the
/// identity without one).
///
/// The factors are stored densely, in elimination coordinates, with the
/// nonzero structure of each row of L and U listed beside them; the
/// substitutions sum only over those lists, in ascending column order.
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
///
/// With a declared pattern, refactors replay the recorded elimination:
///
/// ```
/// use dso_num::{matrix::DMatrix, lu::{LuFactor, Pattern}};
///
/// # fn main() -> Result<(), dso_num::NumError> {
/// // An arrow matrix: eliminating the hub first would fill everything.
/// let starts = [0, 4, 6, 8, 10];
/// let cols = [0, 1, 2, 3, 0, 1, 0, 2, 0, 3];
/// let mut lu = LuFactor::empty();
/// lu.set_pattern(Some(Pattern { starts: &starts, cols: &cols }))?;
/// for hub in [4.0, 5.0] {
///     let a = DMatrix::from_rows(&[
///         &[hub, 1.0, 1.0, 1.0],
///         &[1.0, 2.0, 0.0, 0.0],
///         &[1.0, 0.0, 2.0, 0.0],
///         &[1.0, 0.0, 0.0, 2.0],
///     ])?;
///     lu.refactor_into(&a)?;
///     // The leaves go first: no fill at all.
///     assert_eq!(lu.nonzeros(), cols.len());
///     let x = lu.solve(&[1.0, 2.0, 3.0, 4.0])?;
///     let b = a.mul_vec(&x)?;
///     assert!((b[3] - 4.0).abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor {
    /// The declared pattern's row starts and columns; both empty when none
    /// is declared.
    pattern_starts: Vec<usize>,
    pattern_cols: Vec<usize>,
    /// Elimination order: `order[k]` is the unknown (row and column of the
    /// original matrix) eliminated `k`-th. The identity without a pattern.
    order: Vec<usize>,
    /// Inverse of `order` (pattern only).
    position: Vec<usize>,
    /// Combined L (below the diagonal, unit diagonal implied) and U (on
    /// and above it), row-major, in elimination coordinates: row `r` is
    /// the `r`-th pivot row, column `c` is unknown `order[c]`.
    lu: Vec<f64>,
    /// `perm[r]` is the original row pivoted at position `r`.
    perm: Vec<usize>,
    /// Pivot search state: `rows[r]` is the row of the ordered matrix at
    /// position `r`, and `swaps[k]` the position the pivot of step `k` was
    /// swapped in from.
    rows: Vec<usize>,
    swaps: Vec<usize>,
    /// Dimension of the stored factorization; 0 when there is none (never
    /// factored, or the last refactor failed).
    n: usize,
    /// Sign of the permutation, for the determinant.
    perm_sign: f64,
    /// Columns of each row of L (strictly lower), ascending, in
    /// elimination coordinates; row `r` is `l_cols[l_start[r]..l_start[r + 1]]`.
    /// `l_vars` holds the same columns as unknowns (`order[c]`).
    l_cols: Vec<usize>,
    l_vars: Vec<usize>,
    l_start: Vec<usize>,
    /// Columns of each row of U (strictly upper), same layout.
    u_cols: Vec<usize>,
    u_vars: Vec<usize>,
    u_start: Vec<usize>,
    /// Per L entry (pattern only): its row stood before the pivot row when
    /// the pivot was chosen, so it must stay strictly smaller in magnitude.
    l_before: Vec<bool>,
    /// Per matrix entry of the pattern: its index in the matrix and its
    /// place in `lu`.
    gather: Vec<(usize, usize)>,
    /// Places in `lu` of the structural entries the pattern does not hold
    /// (fill), zeroed before each gather.
    fill: Vec<usize>,
    /// Scratch for recording a schedule, one slot per column.
    marks: Vec<usize>,
    /// The schedule matches the stored factorization and may be replayed.
    scheduled: bool,
}

impl LuFactor {
    /// Factorizes `a` with partial pivoting, in natural order.
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

    /// An empty (0×0) factorization with no declared pattern, used as
    /// reusable storage for [`LuFactor::refactor_into`].
    pub fn empty() -> Self {
        LuFactor {
            pattern_starts: Vec::new(),
            pattern_cols: Vec::new(),
            order: Vec::new(),
            position: Vec::new(),
            lu: Vec::new(),
            perm: Vec::new(),
            rows: Vec::new(),
            swaps: Vec::new(),
            n: 0,
            perm_sign: 1.0,
            l_cols: Vec::new(),
            l_vars: Vec::new(),
            l_start: Vec::new(),
            u_cols: Vec::new(),
            u_vars: Vec::new(),
            u_start: Vec::new(),
            l_before: Vec::new(),
            gather: Vec::new(),
            fill: Vec::new(),
            marks: Vec::new(),
            scheduled: false,
        }
    }

    /// Declares the structural pattern of every matrix later refactors will
    /// see, or none. Declaring the pattern already declared keeps the
    /// factorization and its schedule; any other declaration drops both,
    /// and a new pattern gets its minimum-degree order here.
    ///
    /// Every nonzero of a refactored matrix must lie inside the pattern:
    /// the replay reads the pattern's entries only (debug builds assert
    /// it).
    ///
    /// # Errors
    ///
    /// [`NumError::ShapeMismatch`] if the pattern is malformed (row starts
    /// not ascending from 0 to `cols.len()`, or a column out of range); no
    /// pattern is declared then.
    pub fn set_pattern(&mut self, pattern: Option<Pattern<'_>>) -> Result<(), NumError> {
        let (starts, cols) = pattern.map_or((&[][..], &[][..]), |p| (p.starts, p.cols));
        let declared = !self.pattern_starts.is_empty();
        if pattern.is_some() == declared
            && starts == self.pattern_starts.as_slice()
            && cols == self.pattern_cols.as_slice()
        {
            return Ok(());
        }
        self.n = 0;
        self.scheduled = false;
        self.pattern_starts.clear();
        self.pattern_cols.clear();
        self.order.clear();
        let Some(p) = pattern else {
            return Ok(());
        };
        let n = p.dim();
        let well_formed = starts.first() == Some(&0)
            && starts.last() == Some(&cols.len())
            && starts.windows(2).all(|w| w[0] <= w[1])
            && cols.iter().all(|&c| c < n);
        if !well_formed {
            return Err(NumError::ShapeMismatch {
                expected: "row starts ascending from 0 to the column count, columns in range"
                    .into(),
                found: format!("{} row starts over {} columns", starts.len(), cols.len()),
            });
        }
        self.pattern_starts.extend_from_slice(starts);
        self.pattern_cols.extend_from_slice(cols);
        minimum_degree(starts, cols, &mut self.order);
        self.position.clear();
        self.position.resize(n, 0);
        for (k, &v) in self.order.iter().enumerate() {
            self.position[v] = k;
        }
        // The schedule's lists are sized by the pattern, with room for a
        // pivot sequence that fills as much again, and only grow if one
        // fills more.
        let room = 2 * cols.len() + n;
        for list in [
            &mut self.l_cols,
            &mut self.l_vars,
            &mut self.u_cols,
            &mut self.u_vars,
            &mut self.fill,
        ] {
            list.clear();
            list.reserve(room);
        }
        self.l_before.clear();
        self.l_before.reserve(room);
        self.gather.clear();
        self.gather.reserve(cols.len());
        Ok(())
    }

    /// Refactorizes `a`, reusing this factorization's buffers. Once the
    /// stored buffers match `a`'s dimension (e.g. after a first
    /// [`LuFactor::new`] or `refactor_into` of the same size), this performs
    /// no heap allocation — the per-timestep path of a transient simulation
    /// depends on that. Under a declared pattern it replays the recorded
    /// schedule, and runs the pivot search again only when a recorded
    /// pivot is no longer partial pivoting's choice.
    ///
    /// # Errors
    ///
    /// Same contract as [`LuFactor::new`], plus
    /// [`NumError::ShapeMismatch`] if a declared pattern has another
    /// dimension. On error the factorization is left empty
    /// ([`LuFactor::dim`] is 0), so no caller can mistake a half-written
    /// factor for a usable one.
    pub fn refactor_into(&mut self, a: &DMatrix) -> Result<(), NumError> {
        self.n = 0;
        if !a.is_square() {
            return Err(NumError::ShapeMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let patterned = !self.pattern_starts.is_empty();
        if patterned {
            if n != self.pattern_starts.len() - 1 {
                return Err(NumError::ShapeMismatch {
                    expected: format!(
                        "{0}x{0} matrix of the declared pattern",
                        self.pattern_starts.len() - 1
                    ),
                    found: format!("{n}x{n}"),
                });
            }
            debug_assert!(
                self.pattern_holds(a.as_slice()),
                "a matrix entry outside the declared pattern is nonzero"
            );
            if self.scheduled {
                if self.replay(a.as_slice())? {
                    self.n = n;
                    return Ok(());
                }
                dso_obs::counter!("lu.rerecords").incr();
            }
        } else if self.order.len() != n {
            self.order.clear();
            self.order.extend(0..n);
            // Sized once per dimension: each strict triangle holds at most
            // n(n-1)/2 entries.
            let half = n * n.saturating_sub(1) / 2;
            for list in [
                &mut self.l_cols,
                &mut self.l_vars,
                &mut self.u_cols,
                &mut self.u_vars,
            ] {
                list.clear();
                list.reserve(half);
            }
        }
        self.scheduled = false;
        let Some(max_abs) = finite_max_abs(a.as_slice()) else {
            return Err(NumError::NonFinite {
                context: "LU input matrix".into(),
            });
        };
        let threshold = SINGULARITY_THRESHOLD * max_abs.max(1.0);
        self.lu.clear();
        if patterned {
            let (a, order) = (a.as_slice(), &self.order);
            self.lu.extend(
                order
                    .iter()
                    .flat_map(|&i| order.iter().map(move |&j| a[i * n + j])),
            );
        } else {
            self.lu.extend_from_slice(a.as_slice());
        }
        self.pivot_search(n, threshold)?;
        if patterned {
            self.record(n);
            self.scheduled = true;
        } else {
            // L's row pattern is only final once every swap has happened.
            self.l_cols.clear();
            self.l_start.clear();
            self.l_start.push(0);
            for i in 0..n {
                push_nonzeros(&self.lu[i * n..i * n + i], 0, &mut self.l_cols);
                self.l_start.push(self.l_cols.len());
            }
        }
        let order = &self.order;
        self.perm.clear();
        self.perm.extend(self.rows.iter().map(|&r| order[r]));
        for (cols, vars) in [
            (&self.l_cols, &mut self.l_vars),
            (&self.u_cols, &mut self.u_vars),
        ] {
            vars.clear();
            vars.extend(cols.iter().map(|&c| order[c]));
        }
        self.n = n;
        Ok(())
    }

    /// Partial pivoting over `lu` (the ordered matrix), skipping exact
    /// zeros: the elimination updates a row only over the pivot row's
    /// nonzero columns, which it lists as U's row pattern. Records the row
    /// swaps and the permutation's sign.
    fn pivot_search(&mut self, n: usize, threshold: f64) -> Result<(), NumError> {
        self.rows.clear();
        self.rows.extend(0..n);
        self.swaps.clear();
        self.u_cols.clear();
        self.u_start.clear();
        self.u_start.push(0);
        self.perm_sign = 1.0;
        let lu = &mut self.lu;
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
            self.swaps.push(pivot_row);
            if pivot_row != k {
                for j in 0..n {
                    lu.swap(k * n + j, pivot_row * n + j);
                }
                self.rows.swap(k, pivot_row);
                self.perm_sign = -self.perm_sign;
            }
            let (head, tail) = lu.split_at_mut((k + 1) * n);
            let row_k = &head[k * n..];
            // Row k is final from here on: its nonzeros right of the
            // diagonal are the only columns the elimination below can
            // change.
            let row_start = self.u_cols.len();
            push_nonzeros(&row_k[k + 1..], k + 1, &mut self.u_cols);
            self.u_start.push(self.u_cols.len());
            let u_row = &self.u_cols[row_start..];
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
        Ok(())
    }

    /// Records the schedule of the pivot sequence just found: the
    /// structural L and U rows (the pattern's rows in pivot order, each
    /// joined by the U rows of its L entries), the gather and fill lists,
    /// and for every L entry whether its row stood before the pivot row in
    /// that step's search.
    fn record(&mut self, n: usize) {
        let starts = &self.pattern_starts;
        let cols = &self.pattern_cols;
        // While row r is built, `marks[c]` is 2r + 2 if the pattern holds
        // column c, 2r + 1 if c joined the row's structure as fill, and
        // anything lower (left from earlier rows) if neither.
        self.marks.clear();
        self.marks.resize(n, 0);
        let marks = &mut self.marks;
        self.l_cols.clear();
        self.l_before.clear();
        self.l_start.clear();
        self.l_start.push(0);
        self.u_cols.clear();
        self.u_start.clear();
        self.u_start.push(0);
        self.gather.clear();
        self.fill.clear();
        for r in 0..n {
            let (fill_mark, pattern_mark) = (2 * r + 1, 2 * r + 2);
            let i = self.order[self.rows[r]];
            for &j in &cols[starts[i]..starts[i + 1]] {
                let c = self.position[j];
                marks[c] = pattern_mark;
                self.gather.push((i * n + j, r * n + c));
            }
            // Walk the L columns in ascending order, following the row's
            // position through the pivot search's swaps: at step k it
            // stood at `pos`, and the pivot at `swaps[k]`.
            let mut pos = self.rows[r];
            for k in 0..r {
                if marks[k] >= fill_mark {
                    self.l_cols.push(k);
                    self.l_before.push(pos < self.swaps[k]);
                    for &j in &self.u_cols[self.u_start[k]..self.u_start[k + 1]] {
                        if marks[j] < fill_mark {
                            marks[j] = fill_mark;
                        }
                    }
                }
                if pos == k {
                    pos = self.swaps[k];
                }
            }
            self.l_start.push(self.l_cols.len());
            self.u_cols
                .extend((r + 1..n).filter(|&c| marks[c] >= fill_mark));
            self.u_start.push(self.u_cols.len());
            // Every structural entry the pattern does not hold is fill;
            // the diagonal is always stored.
            let row = self.l_cols[self.l_start[r]..]
                .iter()
                .chain(std::iter::once(&r))
                .chain(&self.u_cols[self.u_start[r]..]);
            self.fill.extend(
                row.filter(|&&c| marks[c] != pattern_mark)
                    .map(|&c| r * n + c),
            );
        }
    }

    /// Replays the schedule on `a`: gathers the pattern's entries, then
    /// eliminates row by row over the recorded L entries and U rows,
    /// checking each recorded pivot before dividing by it. `Ok(false)`
    /// when a pivot is no longer partial pivoting's choice, or falls below
    /// the singularity threshold, and the pivot search must decide.
    fn replay(&mut self, a: &[f64]) -> Result<bool, NumError> {
        let n = self.pattern_starts.len() - 1;
        let lu = &mut self.lu;
        for &d in &self.fill {
            lu[d] = 0.0;
        }
        let (mut max_abs, mut finite) = (0.0_f64, true);
        for &(s, d) in &self.gather {
            let v = a[s];
            finite &= v.is_finite();
            max_abs = max_abs.max(v.abs());
            lu[d] = v;
        }
        if !finite {
            return Err(NumError::NonFinite {
                context: "LU input matrix".into(),
            });
        }
        let threshold = SINGULARITY_THRESHOLD * max_abs.max(1.0);
        for r in 0..n {
            let (done, rest) = lu.split_at_mut(r * n);
            let row = &mut rest[..n];
            let entries = self.l_start[r]..self.l_start[r + 1];
            for (&k, &before) in self.l_cols[entries.clone()]
                .iter()
                .zip(&self.l_before[entries])
            {
                let pivot_row = &done[k * n..(k + 1) * n];
                let (v, pivot) = (row[k], pivot_row[k]);
                if v.abs() > pivot.abs() || (before && v.abs() == pivot.abs()) {
                    return Ok(false);
                }
                let factor = v / pivot;
                row[k] = factor;
                for &j in &self.u_cols[self.u_start[k]..self.u_start[k + 1]] {
                    row[j] -= factor * pivot_row[j];
                }
            }
            if row[r].abs() < threshold {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Whether every nonzero of `a` lies inside the declared pattern.
    fn pattern_holds(&self, a: &[f64]) -> bool {
        let n = self.pattern_starts.len() - 1;
        let inside = (0..n)
            .flat_map(|i| {
                self.pattern_cols[self.pattern_starts[i]..self.pattern_starts[i + 1]]
                    .iter()
                    .map(move |&j| a[i * n + j])
            })
            .filter(|v| *v != 0.0)
            .count();
        inside == a.iter().filter(|v| **v != 0.0).count()
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The row permutation: entry `r` is the original row pivoted at
    /// position `r`. Empty when there is no factorization.
    pub fn permutation(&self) -> &[usize] {
        &self.perm[..self.n]
    }

    /// The elimination order: entry `k` is the unknown eliminated `k`-th
    /// (the identity without a declared pattern). Empty when there is no
    /// factorization.
    pub fn order(&self) -> &[usize] {
        &self.order[..self.n]
    }

    /// The combined factors, row-major in elimination coordinates (row `r`
    /// is the `r`-th pivot row, column `c` the unknown `order()[c]`): L
    /// strictly below the diagonal (its unit diagonal implied), U on and
    /// above it. Empty when there is no factorization.
    pub fn factors(&self) -> &[f64] {
        &self.lu[..self.n * self.n]
    }

    /// Entries of L and U that the factorization stores and the
    /// substitutions visit, the diagonal included: the structure of the
    /// recorded pivot sequence under a declared pattern, the nonzeros
    /// otherwise. 0 when there is no factorization.
    pub fn nonzeros(&self) -> usize {
        if self.n == 0 {
            return 0;
        }
        self.l_cols.len() + self.n + self.u_cols.len()
    }

    /// Multiply–subtract updates one elimination performs: for every L
    /// entry, the length of its pivot row's U part. 0 when there is no
    /// factorization.
    pub fn updates(&self) -> usize {
        if self.n == 0 {
            return 0;
        }
        self.l_cols
            .iter()
            .map(|&k| self.u_start[k + 1] - self.u_start[k])
            .sum()
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
        // Position r's intermediate and final values live in x at the
        // unknown order[r], which no earlier row has written.
        // Forward substitution with permuted rhs: L·y = P·b.
        for r in 0..n {
            let row = &self.lu[r * n..(r + 1) * n];
            let entries = self.l_start[r]..self.l_start[r + 1];
            let mut sum = b[self.perm[r]];
            for (&c, &v) in self.l_cols[entries.clone()]
                .iter()
                .zip(&self.l_vars[entries])
            {
                sum -= row[c] * x[v];
            }
            x[self.order[r]] = sum;
        }
        // Back substitution: U·x = y.
        for r in (0..n).rev() {
            let row = &self.lu[r * n..(r + 1) * n];
            let entries = self.u_start[r]..self.u_start[r + 1];
            let mut sum = x[self.order[r]];
            for (&c, &v) in self.u_cols[entries.clone()]
                .iter()
                .zip(&self.u_vars[entries])
            {
                sum -= row[c] * x[v];
            }
            x[self.order[r]] = sum / row[r];
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
}

/// A symmetric minimum-degree elimination order of the pattern's graph
/// (`A + Aᵀ`, the diagonal ignored), into `order`: repeatedly eliminate
/// the vertex of least degree, the lowest index among equals, and join its
/// neighbours into a clique. Degrees are exact, over bitset adjacency rows.
fn minimum_degree(starts: &[usize], cols: &[usize], order: &mut Vec<usize>) {
    let n = starts.len() - 1;
    let words = n.div_ceil(64);
    let mut adj = vec![0_u64; n * words];
    let link = |adj: &mut [u64], a: usize, b: usize| adj[a * words + b / 64] |= 1 << (b % 64);
    for i in 0..n {
        for &j in &cols[starts[i]..starts[i + 1]] {
            if i != j {
                link(&mut adj, i, j);
                link(&mut adj, j, i);
            }
        }
    }
    let mut live = vec![true; n];
    let mut clique = vec![0_u64; words];
    order.clear();
    for _ in 0..n {
        let mut best = (u32::MAX, 0);
        for (v, row) in adj.chunks_exact(words).enumerate() {
            let degree = row.iter().map(|w| w.count_ones()).sum();
            if live[v] && degree < best.0 {
                best = (degree, v);
            }
        }
        let v = best.1;
        order.push(v);
        live[v] = false;
        clique.copy_from_slice(&adj[v * words..(v + 1) * words]);
        for (w, &bits) in clique.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let u = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let row = &mut adj[u * words..(u + 1) * words];
                for (r, c) in row.iter_mut().zip(&clique) {
                    *r |= c;
                }
                row[u / 64] &= !(1 << (u % 64));
                row[v / 64] &= !(1 << (v % 64));
            }
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
/// `values` to `cols`. Branch-free: every index is written, but the
/// cursor only advances past nonzeros, so a scattered pattern costs no
/// mispredictions.
fn push_nonzeros(values: &[f64], first: usize, cols: &mut Vec<usize>) {
    let mut len = cols.len();
    cols.resize(len + values.len(), 0);
    for (off, v) in values.iter().enumerate() {
        cols[len] = first + off;
        len += usize::from(*v != 0.0);
    }
    cols.truncate(len);
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
        let x = LuFactor::new(&a).unwrap().solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal: succeeds only with pivoting.
        let a = DMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = LuFactor::new(&a).unwrap().solve(&[2.0, 3.0]).unwrap();
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
    fn replay_breaks_ties_as_the_pivot_search_does() {
        // A full 2×2 pattern: both degrees are 1, so the order is natural
        // and every verdict can be compared with a plain factorization.
        let (starts, cols) = ([0, 2, 4], [0, 1, 0, 1]);
        let mut f = LuFactor::empty();
        f.set_pattern(Some(Pattern {
            starts: &starts,
            cols: &cols,
        }))
        .unwrap();
        let m = |rows: [[f64; 2]; 2]| DMatrix::from_rows(&[&rows[0], &rows[1]]).unwrap();
        for (a, pivots) in [
            // Row 1 wins column 0 and is swapped up past row 0.
            (m([[1.0, 2.0], [3.0, 1.0]]), [1, 0]),
            // A tie goes to the row that stands first: row 0.
            (m([[-3.0, 2.0], [3.0, 1.0]]), [0, 1]),
            // Row 0 keeps it through a tie with the row after it.
            (m([[3.0, 2.0], [-3.0, 1.0]]), [0, 1]),
            (m([[2.0, 2.0], [3.0, 1.0]]), [1, 0]),
        ] {
            f.refactor_into(&a).unwrap();
            assert_eq!(f.permutation(), pivots, "{a:?}");
            let fresh = LuFactor::new(&a).unwrap();
            assert_eq!(f.permutation(), fresh.permutation());
            assert_eq!(f.factors(), fresh.factors());
        }
    }

    /// A full `n × n` pattern, `(row starts, columns)`.
    fn full_pattern(n: usize) -> (Vec<usize>, Vec<usize>) {
        let starts = (0..=n).map(|i| i * n).collect();
        let cols = (0..n).flat_map(|_| 0..n).collect();
        (starts, cols)
    }

    #[test]
    fn replay_follows_rows_through_the_swaps() {
        // Full 3×3: the order stays natural. Step 0 swaps row 2 up and row
        // 0 down to position 2; at step 1 rows 1 and 0 tie at 3, and row 1
        // wins by standing first. Row 0 started out before row 1, but the
        // replay must see that it stood after it at step 1 and accept the
        // tie, not fall back.
        let (starts, cols) = full_pattern(3);
        let mut f = LuFactor::empty();
        f.set_pattern(Some(Pattern {
            starts: &starts,
            cols: &cols,
        }))
        .unwrap();
        let a =
            DMatrix::from_rows(&[&[1.0, 3.0, 0.0], &[0.0, 3.0, 1.0], &[2.0, 0.0, 1.0]]).unwrap();
        f.refactor_into(&a).unwrap();
        assert_eq!(f.permutation(), [2, 1, 0]);
        assert!(
            f.replay(a.as_slice()).unwrap(),
            "the replay fell back on the matrix it recorded"
        );
    }

    #[test]
    fn replay_reports_a_vanishing_pivot_as_the_search_does() {
        let (starts, cols) = full_pattern(2);
        let mut f = LuFactor::empty();
        f.set_pattern(Some(Pattern {
            starts: &starts,
            cols: &cols,
        }))
        .unwrap();
        f.refactor_into(&DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap())
            .unwrap();
        // The same pivots, but the second one cancels to zero.
        let singular = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 0.5]]).unwrap();
        let err = f.refactor_into(&singular).unwrap_err();
        assert_eq!(err, LuFactor::new(&singular).unwrap_err());
        assert_eq!(f.dim(), 0);
    }

    #[test]
    fn minimum_degree_eliminates_the_leaves_of_a_star_first() {
        // Unknown 0 couples to every other one; each leaf only to it.
        let n = 6;
        let mut starts = vec![0];
        let mut cols = Vec::new();
        for i in 0..n {
            if i == 0 {
                cols.extend(0..n);
            } else {
                cols.extend([0, i]);
            }
            starts.push(cols.len());
        }
        let mut order = Vec::new();
        minimum_degree(&starts, &cols, &mut order);
        // The leaves go first; with one leaf left, it and the hub both
        // have degree 1, and the tie goes to the lower index.
        assert_eq!(order, [1, 2, 3, 4, 0, 5]);
    }

    #[test]
    fn malformed_pattern_is_rejected() {
        let mut f = LuFactor::empty();
        for (starts, cols) in [
            (&[][..], &[][..]),
            (&[0, 1, 3][..], &[0, 2, 1][..]),
            (&[0, 2, 1][..], &[0, 1][..]),
            (&[1, 2][..], &[0][..]),
        ] {
            let err = f.set_pattern(Some(Pattern { starts, cols })).unwrap_err();
            assert!(matches!(err, NumError::ShapeMismatch { .. }), "{err}");
        }
        // A matrix of another dimension than the pattern's is refused.
        f.set_pattern(Some(Pattern {
            starts: &[0, 1],
            cols: &[0],
        }))
        .unwrap();
        assert!(matches!(
            f.refactor_into(&DMatrix::identity(2)),
            Err(NumError::ShapeMismatch { .. })
        ));
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
        let x = LuFactor::new(&a).unwrap().solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-10);
    }
}
