//! Deterministic fault injection for nonlinear solves.
//!
//! Large simulation campaigns (hundreds of transients per result plane)
//! must survive individual solver failures, and the recovery paths that
//! make that possible are exactly the code that ordinary tests never
//! reach: a healthy circuit simply converges. This module makes solver
//! failures *reproducible on demand*:
//!
//! * [`FaultKind`] — the failure modes a Newton solve can hit in the wild
//!   (singular Jacobian, NaN residual, plain divergence).
//! * [`FaultPlan`] — a schedule mapping *solve ordinals* (the how-many-th
//!   Newton solve attempted through the plan) to faults. Injection by
//!   ordinal keeps chaos runs deterministic: the n-th solve fails, every
//!   retry is a fresh ordinal, and recovery succeeds exactly when the
//!   retry escapes the scheduled window.
//! * [`ChaosSystem`] — a [`NonlinearSystem`] wrapper that corrupts the
//!   residual/Jacobian of the solve it was armed for and passes everything
//!   else through untouched.
//!
//! The simulator layers above (`dso-spice`, `dso-dram`, `dso-core`) thread
//! a plan down to every Newton solve, so tests can assert that each rung
//! of a recovery ladder triggers, recovers, and reports correctly.

use crate::matrix::DMatrix;
use crate::newton::NonlinearSystem;
use crate::NumError;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A failure mode to inject into a Newton solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The Jacobian evaluates to all zeros: LU factorization fails with a
    /// singular-matrix error on the first iteration.
    SingularJacobian,
    /// The residual evaluates to NaN: the solve aborts with a non-finite
    /// error immediately.
    NanResidual,
    /// The residual is pinned at a huge constant that no step reduces: the
    /// solver exhausts its iteration budget and reports no convergence.
    ForcedDivergence,
}

impl FaultKind {
    /// All fault kinds, for exhaustive test sweeps.
    pub const ALL: [FaultKind; 3] = [
        FaultKind::SingularJacobian,
        FaultKind::NanResidual,
        FaultKind::ForcedDivergence,
    ];
}

/// When a scheduled fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Window {
    /// Exactly one solve ordinal.
    At(usize),
    /// A half-open ordinal range `[from, to)`.
    Span(usize, usize),
    /// Every solve.
    Always,
}

impl Window {
    fn contains(&self, ordinal: usize) -> bool {
        match *self {
            Window::At(k) => ordinal == k,
            Window::Span(from, to) => (from..to).contains(&ordinal),
            Window::Always => true,
        }
    }
}

/// A failure mode to inject into persistent-store I/O.
///
/// Durability code is exactly like recovery code: the paths that matter —
/// a process killed mid-append, a disk that lies about flushing, a bit
/// rotting in a cold file — never run in a healthy test environment.
/// These faults make them reproducible on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// An append persists only a prefix of the record before the write
    /// "fails" — the on-disk image a process killed mid-write leaves
    /// behind (a torn tail).
    ShortWrite,
    /// The post-write flush reports an error; the data may or may not be
    /// durable.
    FlushFail,
    /// One bit of the bytes read back from disk is flipped, as silent
    /// media corruption would.
    BitFlipRead,
}

impl IoFaultKind {
    /// All I/O fault kinds, for exhaustive test sweeps.
    pub const ALL: [IoFaultKind; 3] = [
        IoFaultKind::ShortWrite,
        IoFaultKind::FlushFail,
        IoFaultKind::BitFlipRead,
    ];
}

/// A deterministic schedule of solver faults, keyed by solve ordinal.
///
/// The plan counts every solve that is armed through it (via
/// [`FaultPlan::begin_solve`]); ordinals start at 0. Cloning a plan clones
/// the current counter value — a cloned plan replays independently. The
/// counter is atomic so a plan can be shared across campaign worker
/// threads; each sweep point clones its own plan, so ordinals never
/// interleave between points.
///
/// I/O faults ([`IoFaultKind`]) are scheduled on an *independent* ordinal
/// axis counted by [`FaultPlan::begin_io`]: the n-th store operation armed
/// through the plan, unrelated to how many Newton solves ran before it.
///
/// # Example
///
/// ```
/// use dso_num::chaos::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new().inject_at(2, FaultKind::NanResidual);
/// assert_eq!(plan.begin_solve(), None); // ordinal 0
/// assert_eq!(plan.begin_solve(), None); // ordinal 1
/// assert_eq!(plan.begin_solve(), Some(FaultKind::NanResidual));
/// assert_eq!(plan.begin_solve(), None); // recovered
/// assert_eq!(plan.solves_started(), 4);
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    entries: Vec<(Window, FaultKind)>,
    io_entries: Vec<(Window, IoFaultKind)>,
    counter: AtomicUsize,
    io_counter: AtomicUsize,
}

impl Clone for FaultPlan {
    fn clone(&self) -> Self {
        FaultPlan {
            entries: self.entries.clone(),
            io_entries: self.io_entries.clone(),
            counter: AtomicUsize::new(self.counter.load(Ordering::Relaxed)),
            io_counter: AtomicUsize::new(self.io_counter.load(Ordering::Relaxed)),
        }
    }
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// A plan that fails *every* solve with `kind` — used to kill whole
    /// simulation points so that campaign-level degradation paths can be
    /// exercised.
    pub fn always(kind: FaultKind) -> Self {
        FaultPlan {
            entries: vec![(Window::Always, kind)],
            ..FaultPlan::default()
        }
    }

    /// A plan that fails *every* store operation with `kind`.
    pub fn io_always(kind: IoFaultKind) -> Self {
        FaultPlan {
            io_entries: vec![(Window::Always, kind)],
            ..FaultPlan::default()
        }
    }

    /// Schedules `kind` at one store-operation ordinal.
    pub fn inject_io_at(mut self, ordinal: usize, kind: IoFaultKind) -> Self {
        self.io_entries.push((Window::At(ordinal), kind));
        self
    }

    /// Schedules `kind` for every store-operation ordinal in `[from, to)`.
    pub fn inject_io_span(mut self, from: usize, to: usize, kind: IoFaultKind) -> Self {
        self.io_entries.push((Window::Span(from, to), kind));
        self
    }

    /// Schedules `kind` at one solve ordinal.
    pub fn inject_at(mut self, ordinal: usize, kind: FaultKind) -> Self {
        self.entries.push((Window::At(ordinal), kind));
        self
    }

    /// Schedules `kind` for every ordinal in `[from, to)`. Wide windows
    /// defeat shallow retries and force later recovery rungs.
    pub fn inject_span(mut self, from: usize, to: usize, kind: FaultKind) -> Self {
        self.entries.push((Window::Span(from, to), kind));
        self
    }

    /// Arms the next solve: advances the ordinal counter and returns the
    /// fault scheduled for it, if any.
    pub fn begin_solve(&self) -> Option<FaultKind> {
        let ordinal = self.counter.fetch_add(1, Ordering::Relaxed);
        self.fault_at(ordinal)
    }

    /// The fault scheduled at `ordinal`, if any (does not advance the
    /// counter).
    pub fn fault_at(&self, ordinal: usize) -> Option<FaultKind> {
        self.entries
            .iter()
            .find(|(w, _)| w.contains(ordinal))
            .map(|&(_, k)| k)
    }

    /// Arms the next store operation: advances the I/O ordinal counter and
    /// returns the fault scheduled for it, if any.
    pub fn begin_io(&self) -> Option<IoFaultKind> {
        let ordinal = self.io_counter.fetch_add(1, Ordering::Relaxed);
        self.io_fault_at(ordinal)
    }

    /// The I/O fault scheduled at `ordinal`, if any (does not advance the
    /// counter).
    pub fn io_fault_at(&self, ordinal: usize) -> Option<IoFaultKind> {
        self.io_entries
            .iter()
            .find(|(w, _)| w.contains(ordinal))
            .map(|&(_, k)| k)
    }

    /// Number of solves armed through this plan so far.
    pub fn solves_started(&self) -> usize {
        self.counter.load(Ordering::Relaxed)
    }

    /// Number of store operations armed through this plan so far.
    pub fn io_started(&self) -> usize {
        self.io_counter.load(Ordering::Relaxed)
    }

    /// Resets the ordinal counters (solve and I/O) to zero.
    pub fn reset(&self) {
        self.counter.store(0, Ordering::Relaxed);
        self.io_counter.store(0, Ordering::Relaxed);
    }

    /// `true` if the plan schedules no solver faults. I/O-only plans are
    /// "empty" to the solver layers, which lets a store-fault plan ride
    /// through campaign plumbing without arming any Newton solve.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` if the plan schedules no I/O faults.
    pub fn io_is_empty(&self) -> bool {
        self.io_entries.is_empty()
    }
}

/// A [`NonlinearSystem`] wrapper carrying the fault (if any) armed for one
/// Newton solve.
///
/// Create one per solve with [`ChaosSystem::arm`]; the wrapper consumes
/// one ordinal from the plan at construction. With no fault scheduled it
/// is a transparent pass-through, except that it declares no Jacobian
/// pattern: an injected Jacobian (the forced-divergence identity) need
/// not fit the wrapped system's, so fault-armed solves factor in natural
/// order over the whole matrix.
pub struct ChaosSystem<'a, S: NonlinearSystem> {
    inner: &'a mut S,
    fault: Option<FaultKind>,
}

impl<'a, S: NonlinearSystem> ChaosSystem<'a, S> {
    /// Wraps `inner` for the next solve scheduled by `plan`.
    pub fn arm(inner: &'a mut S, plan: &FaultPlan) -> Self {
        ChaosSystem {
            inner,
            fault: plan.begin_solve(),
        }
    }

    /// Wraps `inner` with an explicit fault (testing the wrapper itself).
    pub fn with_fault(inner: &'a mut S, fault: Option<FaultKind>) -> Self {
        ChaosSystem { inner, fault }
    }

    /// The fault armed for this solve, if any.
    pub fn fault(&self) -> Option<FaultKind> {
        self.fault
    }
}

impl<S: NonlinearSystem> NonlinearSystem for ChaosSystem<'_, S> {
    fn unknowns(&self) -> usize {
        self.inner.unknowns()
    }

    fn residual(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
        match self.fault {
            Some(FaultKind::NanResidual) => {
                out.fill(f64::NAN);
                Ok(())
            }
            Some(FaultKind::ForcedDivergence) => {
                // Finite but enormous and x-independent: every line-search
                // trial sees the same norm, so the iteration budget drains.
                out.fill(1e12);
                Ok(())
            }
            _ => self.inner.residual(x, out),
        }
    }

    fn jacobian(&mut self, x: &[f64], jac: &mut DMatrix) -> Result<(), NumError> {
        match self.fault {
            Some(FaultKind::SingularJacobian) => {
                // Leave the (pre-cleared) matrix at zero: the LU pivot
                // search finds nothing and reports singularity.
                Ok(())
            }
            Some(FaultKind::ForcedDivergence) => {
                // A well-conditioned identity keeps the factorization cheap
                // while the pinned residual prevents convergence.
                for i in 0..jac.rows() {
                    jac[(i, i)] += 1.0;
                }
                Ok(())
            }
            _ => self.inner.jacobian(x, jac),
        }
    }

    fn limit_step(&self, x: &[f64], dx: &mut [f64], max_step: f64) {
        self.inner.limit_step(x, dx, max_step);
    }

    fn residual_is_approximate(&self) -> bool {
        // Injected residual faults are exact by construction (they replace
        // the model entirely); otherwise defer to the wrapped system so
        // bypass-approximated residuals still get their exact recheck.
        self.fault.is_none() && self.inner.residual_is_approximate()
    }

    fn residual_exact(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
        match self.fault {
            Some(_) => self.residual(x, out),
            None => self.inner.residual_exact(x, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::newton::{NewtonOptions, NewtonSolver};

    /// x^2 = 4, converges in a handful of iterations.
    struct Square;
    impl NonlinearSystem for Square {
        fn unknowns(&self) -> usize {
            1
        }
        fn residual(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
            out[0] = x[0] * x[0] - 4.0;
            Ok(())
        }
        fn jacobian(&mut self, x: &[f64], jac: &mut DMatrix) -> Result<(), NumError> {
            jac[(0, 0)] = 2.0 * x[0];
            Ok(())
        }
    }

    fn solve_armed(plan: &FaultPlan) -> Result<f64, NumError> {
        let mut solver = NewtonSolver::new(NewtonOptions {
            max_iterations: 50,
            ..NewtonOptions::default()
        });
        let mut sys = Square;
        let mut chaos = ChaosSystem::arm(&mut sys, plan);
        let mut x = vec![1.0];
        solver.solve(&mut chaos, &mut x)?;
        Ok(x[0])
    }

    #[test]
    fn pass_through_when_no_fault() {
        let plan = FaultPlan::new();
        let x = solve_armed(&plan).unwrap();
        assert!((x - 2.0).abs() < 1e-8);
        assert_eq!(plan.solves_started(), 1);
    }

    #[test]
    fn nan_residual_aborts_with_nonfinite() {
        let plan = FaultPlan::always(FaultKind::NanResidual);
        let err = solve_armed(&plan).unwrap_err();
        assert!(matches!(err, NumError::NonFinite { .. }), "{err}");
    }

    #[test]
    fn singular_jacobian_fails_factorization() {
        let plan = FaultPlan::always(FaultKind::SingularJacobian);
        let err = solve_armed(&plan).unwrap_err();
        assert!(matches!(err, NumError::SingularMatrix { .. }), "{err}");
    }

    #[test]
    fn forced_divergence_exhausts_budget() {
        let plan = FaultPlan::always(FaultKind::ForcedDivergence);
        let err = solve_armed(&plan).unwrap_err();
        assert!(matches!(err, NumError::NoConvergence { .. }), "{err}");
    }

    #[test]
    fn ordinal_scheduling_hits_only_the_target_solve() {
        let plan = FaultPlan::new().inject_at(1, FaultKind::NanResidual);
        assert!(solve_armed(&plan).is_ok()); // ordinal 0
        assert!(solve_armed(&plan).is_err()); // ordinal 1: fault
        assert!(solve_armed(&plan).is_ok()); // ordinal 2: recovered
        assert_eq!(plan.solves_started(), 3);
    }

    #[test]
    fn span_scheduling_covers_window() {
        let plan = FaultPlan::new().inject_span(1, 3, FaultKind::SingularJacobian);
        assert!(solve_armed(&plan).is_ok());
        assert!(solve_armed(&plan).is_err());
        assert!(solve_armed(&plan).is_err());
        assert!(solve_armed(&plan).is_ok());
    }

    #[test]
    fn reset_replays_the_schedule() {
        let plan = FaultPlan::new().inject_at(0, FaultKind::NanResidual);
        assert!(solve_armed(&plan).is_err());
        assert!(solve_armed(&plan).is_ok());
        plan.reset();
        assert!(solve_armed(&plan).is_err());
    }

    #[test]
    fn io_ordinals_are_independent_of_solve_ordinals() {
        let plan = FaultPlan::new()
            .inject_at(0, FaultKind::NanResidual)
            .inject_io_at(1, IoFaultKind::ShortWrite)
            .inject_io_span(3, 5, IoFaultKind::BitFlipRead);
        // Solves advance only the solve counter.
        assert!(solve_armed(&plan).is_err());
        assert!(solve_armed(&plan).is_ok());
        // The I/O axis still starts at ordinal 0.
        assert_eq!(plan.begin_io(), None);
        assert_eq!(plan.begin_io(), Some(IoFaultKind::ShortWrite));
        assert_eq!(plan.begin_io(), None);
        assert_eq!(plan.begin_io(), Some(IoFaultKind::BitFlipRead));
        assert_eq!(plan.begin_io(), Some(IoFaultKind::BitFlipRead));
        assert_eq!(plan.begin_io(), None);
        assert_eq!(plan.io_started(), 6);
        assert!(!plan.io_is_empty());
        assert!(!plan.is_empty());
    }

    #[test]
    fn io_only_plans_are_empty_to_the_solver() {
        let plan = FaultPlan::io_always(IoFaultKind::FlushFail);
        assert!(plan.is_empty());
        assert!(!plan.io_is_empty());
        assert!(solve_armed(&plan).is_ok());
        assert_eq!(plan.begin_io(), Some(IoFaultKind::FlushFail));
        plan.reset();
        assert_eq!(plan.io_started(), 0);
        assert_eq!(plan.begin_io(), Some(IoFaultKind::FlushFail));
    }

    #[test]
    fn clone_replays_independently() {
        let plan = FaultPlan::new().inject_at(0, FaultKind::NanResidual);
        assert!(solve_armed(&plan).is_err());
        let replay = plan.clone();
        // The clone carries the advanced counter; resetting it replays.
        replay.reset();
        assert!(solve_armed(&replay).is_err());
        // The original is past its fault window.
        assert!(solve_armed(&plan).is_ok());
    }
}
