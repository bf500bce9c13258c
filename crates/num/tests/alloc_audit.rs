//! Allocation audit for the solver hot path.
//!
//! A transient simulation factors and solves the MNA system thousands of
//! times; the per-timestep loop must not touch the heap once its scratch
//! buffers are warm. This test wraps the global allocator with a
//! thread-local counter and asserts that a warmed [`NewtonSolver`] solve
//! and a warmed [`LuFactor::refactor_into`] perform zero allocations, with
//! or without a declared pattern.

use dso_num::lu::{LuFactor, Pattern};
use dso_num::matrix::DMatrix;
use dso_num::newton::{NewtonOptions, NewtonSolver, NonlinearSystem};
use dso_num::NumError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        COUNTING.with(|c| {
            if c.get() {
                ALLOCS.with(|a| a.set(a.get() + 1));
            }
        });
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CountingAlloc::count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CountingAlloc::count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CountingAlloc::count();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts heap allocations made by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(|a| a.get())
}

/// A small nonlinear system shaped like a stamped MNA step: a dominant
/// linear part plus a diode-style exponential coupling.
struct MnaLike {
    n: usize,
}

impl NonlinearSystem for MnaLike {
    fn unknowns(&self) -> usize {
        self.n
    }
    fn residual(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
        for i in 0..self.n {
            let prev = if i == 0 { 0.0 } else { x[i - 1] };
            out[i] = 3.0 * x[i] - prev + 0.05 * (x[i].clamp(-2.0, 2.0)).exp() - 1.0;
        }
        Ok(())
    }
    fn jacobian(&mut self, x: &[f64], jac: &mut DMatrix) -> Result<(), NumError> {
        for i in 0..self.n {
            if i > 0 {
                jac[(i, i - 1)] = -1.0;
            }
            let xi = x[i].clamp(-2.0, 2.0);
            let dclamp = if (-2.0..=2.0).contains(&x[i]) {
                1.0
            } else {
                0.0
            };
            jac[(i, i)] = 3.0 + 0.05 * xi.exp() * dclamp;
        }
        Ok(())
    }
}

#[test]
fn warmed_newton_solve_does_not_allocate() {
    let mut solver = NewtonSolver::new(NewtonOptions::default());
    let mut system = MnaLike { n: 24 };

    // Warm the scratch buffers (residual, Jacobian, LU storage, …).
    let mut x = vec![0.0; 24];
    solver.solve(&mut system, &mut x).unwrap();

    // A steady-state re-solve — same system size, converged starting point
    // perturbed as a transient step would — must be allocation-free.
    for v in x.iter_mut() {
        *v += 1e-3;
    }
    let allocs = allocations_in(|| {
        solver.solve(&mut system, &mut x).unwrap();
    });
    assert_eq!(allocs, 0, "warmed Newton solve allocated {allocs} times");
}

#[test]
fn warmed_refactor_and_solve_in_place_do_not_allocate() {
    let a = DMatrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 5.0, 2.0], &[0.0, 2.0, 6.0]]).unwrap();
    let mut lu = LuFactor::new(&a).unwrap();
    let b = [1.0, -2.0, 0.5];
    let mut x = vec![0.0; 3];

    let allocs = allocations_in(|| {
        lu.refactor_into(&a).unwrap();
        lu.solve_in_place(&b, &mut x);
    });
    assert_eq!(allocs, 0, "warmed refactor+solve allocated {allocs} times");

    let ax = a.mul_vec(&x).unwrap();
    for (l, r) in ax.iter().zip(&b) {
        assert!((l - r).abs() < 1e-12);
    }
}

#[test]
fn warmed_refactor_with_changing_zero_pattern_does_not_allocate() {
    // An MNA-shaped system: a node chain whose couplings switch on and
    // off between refactors (a transistor leaving cutoff), plus
    // zero-diagonal branch rows whose unit entries outweigh some node
    // diagonals, forcing row swaps. The factorization's pattern lists
    // must absorb every pattern change in place.
    let (nodes, branches) = (30, 6);
    let n = nodes + branches;
    let matrix = |step: usize| {
        let mut a = DMatrix::zeros(n, n);
        for i in 0..nodes {
            a[(i, i)] = 0.5 + (i % 3) as f64;
            if i + 1 < nodes && !(i + step).is_multiple_of(4) {
                a[(i, i + 1)] = -1.0;
                a[(i + 1, i)] = -1.0;
            }
            if i + 5 < nodes && (i * step) % 3 == 1 {
                a[(i, i + 5)] = -0.25;
            }
        }
        for b in 0..branches {
            a[(5 * b, nodes + b)] = 1.0;
            a[(nodes + b, 5 * b)] = 1.0;
        }
        a
    };
    let matrices: Vec<DMatrix> = (0..8).map(matrix).collect();
    let b: Vec<f64> = (0..n).map(|i| i as f64 - 10.0).collect();
    let mut x = vec![0.0; n];
    let mut lu = LuFactor::new(&matrices[0]).unwrap();

    let allocs = allocations_in(|| {
        for a in matrices.iter().cycle().take(40) {
            lu.refactor_into(a).unwrap();
            lu.solve_in_place(&b, &mut x);
        }
    });
    assert_eq!(allocs, 0, "warmed refactor+solve allocated {allocs} times");

    let ax = matrices[7].mul_vec(&x).unwrap();
    for (l, r) in ax.iter().zip(&b) {
        assert!((l - r).abs() < 1e-9, "{l} vs {r}");
    }
}

#[test]
fn warmed_structured_refactor_with_pivot_changes_does_not_allocate() {
    // An MNA-shaped system under a declared pattern: a node chain with
    // couplings that switch off and on, and zero-diagonal branch rows whose
    // unit entries outweigh their node's diagonal in some matrices and not
    // in others, so the pivots move and the replay falls back to the pivot
    // search, which records a new schedule.
    let (nodes, branches) = (30, 6);
    let n = nodes + branches;
    let matrix = |step: usize| {
        let mut a = DMatrix::zeros(n, n);
        for i in 0..nodes {
            a[(i, i)] = 0.5 + (i % 3) as f64;
            if i + 1 < nodes && !(i + step).is_multiple_of(4) {
                a[(i, i + 1)] = -1.0;
                a[(i + 1, i)] = -1.0;
            }
            if i + 5 < nodes && (i * step) % 3 == 1 {
                a[(i, i + 5)] = -0.25;
            }
        }
        for b in 0..branches {
            a[(5 * b, nodes + b)] = 1.0;
            a[(nodes + b, 5 * b)] = if (b + step).is_multiple_of(3) {
                3.0
            } else {
                1.0
            };
        }
        a
    };
    let matrices: Vec<DMatrix> = (0..8).map(matrix).collect();
    // The pattern holds every position any of the matrices fills.
    let mut starts = vec![0];
    let mut cols = Vec::new();
    for i in 0..n {
        cols.extend((0..n).filter(|&j| matrices.iter().any(|a| a[(i, j)] != 0.0)));
        starts.push(cols.len());
    }
    let b: Vec<f64> = (0..n).map(|i| i as f64 - 10.0).collect();
    let mut x = vec![0.0; n];
    let mut lu = LuFactor::empty();
    lu.set_pattern(Some(Pattern {
        starts: &starts,
        cols: &cols,
    }))
    .unwrap();
    // Warm: one pass records every pivot sequence once.
    let mut sequences = Vec::new();
    for a in &matrices {
        lu.refactor_into(a).unwrap();
        if !sequences.contains(&lu.permutation().to_vec()) {
            sequences.push(lu.permutation().to_vec());
        }
    }
    assert!(sequences.len() > 1, "the pivots never moved");

    let allocs = allocations_in(|| {
        for a in matrices.iter().cycle().take(40) {
            lu.refactor_into(a).unwrap();
            lu.solve_in_place(&b, &mut x);
        }
    });
    assert_eq!(
        allocs, 0,
        "warmed structured refactor+solve allocated {allocs} times"
    );

    let ax = matrices[7].mul_vec(&x).unwrap();
    for (l, r) in ax.iter().zip(&b) {
        assert!((l - r).abs() < 1e-9, "{l} vs {r}");
    }
}
