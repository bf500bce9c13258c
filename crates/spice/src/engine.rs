//! Modified nodal analysis: DC operating point and transient simulation.
//!
//! The unknown vector is `[v(node 1) … v(node N), i(V-source 1) …]` — every
//! non-ground node voltage followed by one branch current per voltage
//! source. Each Newton iteration stamps all devices into the residual
//! (Kirchhoff current sums plus source branch equations) and the Jacobian
//! (conductances).

use crate::circuit::{Circuit, NodeId};
use crate::device::{prepare_switch, Device, SwitchPrepared};
use crate::diode::DiodePrepared;
use crate::mos;
use crate::recovery::{RecoveryPolicy, RecoveryStats};
use crate::waveform::Waveform;
use crate::SpiceError;
use dso_num::chaos::{ChaosSystem, FaultPlan};
use dso_num::integrate::{Companion, Method};
use dso_num::lu::Pattern;
use dso_num::matrix::DMatrix;
use dso_num::newton::{NewtonOptions, NewtonSolver, NewtonStats, NonlinearSystem};
use dso_num::NumError;

/// The starting state of a transient (see [`Simulator::transient_init`]):
/// the assembled MNA system, the initial unknown vector, and the
/// per-capacitor integration states.
type TransientInit<'a> = (MnaSystem<'a>, Vec<f64>, Vec<CapState>);

/// How a transient analysis obtains its initial state.
#[derive(Debug, Clone, PartialEq)]
pub enum StartMode {
    /// Solve the DC operating point at `t = 0` first (sources at their
    /// initial values, capacitors open).
    DcOperatingPoint,
    /// Skip the DC solve (`UIC` in SPICE): nodes start at 0 V except those
    /// listed here, and capacitors with explicit initial voltages seed
    /// their terminals.
    UseIc(Vec<(String, f64)>),
}

/// Configuration of a transient analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TranOptions {
    /// Stop time in seconds.
    pub t_stop: f64,
    /// Fixed time step in seconds; every sample sits on its grid.
    pub dt: f64,
    /// Integration method (default trapezoidal; the first step and retry
    /// sub-steps always use backward Euler).
    pub method: Method,
    /// Initial-state policy.
    pub start: StartMode,
}

impl TranOptions {
    /// Creates options with the default method and a DC start.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadAnalysis`] unless `0 < dt <= t_stop`.
    pub fn new(t_stop: f64, dt: f64) -> Result<Self, SpiceError> {
        check_grid(t_stop, dt)?;
        Ok(TranOptions {
            t_stop,
            dt,
            method: Method::default(),
            start: StartMode::DcOperatingPoint,
        })
    }

    /// Sets the integration method.
    pub fn with_method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Starts from the given node initial conditions instead of a DC solve.
    pub fn with_ic<I>(mut self, ics: I) -> Self
    where
        I: IntoIterator<Item = (String, f64)>,
    {
        self.start = StartMode::UseIc(ics.into_iter().collect());
        self
    }
}

/// Checks the time grid of a transient: `0 < dt <= t_stop`, both finite.
/// The fields of [`TranOptions`] are public, so [`Simulator::transient`]
/// repeats the check [`TranOptions::new`] makes.
fn check_grid(t_stop: f64, dt: f64) -> Result<(), SpiceError> {
    if !(dt > 0.0 && dt.is_finite() && t_stop >= dt && t_stop.is_finite()) {
        return Err(SpiceError::BadAnalysis(format!(
            "need 0 < dt <= t_stop, got dt={dt}, t_stop={t_stop}"
        )));
    }
    Ok(())
}

/// A DC solution: node voltages and source branch currents.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    node_names: Vec<String>,
    vsource_names: Vec<String>,
    x: Vec<f64>,
}

impl Solution {
    /// Voltage of a named node (ground returns 0).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] if the node does not exist.
    pub fn voltage(&self, node: &str) -> Result<f64, SpiceError> {
        if node == "0" || node == "gnd" {
            return Ok(0.0);
        }
        let idx = self
            .node_names
            .iter()
            .position(|n| n == node)
            .ok_or_else(|| SpiceError::UnknownNode(node.to_string()))?;
        // node_names includes ground at index 0; unknowns start at node 1.
        Ok(self.x[idx - 1])
    }

    /// Branch current of a named voltage source.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownDevice`] if the source does not exist.
    pub fn current(&self, vsource: &str) -> Result<f64, SpiceError> {
        let idx = self
            .vsource_names
            .iter()
            .position(|n| n == vsource)
            .ok_or_else(|| SpiceError::UnknownDevice(vsource.to_string()))?;
        Ok(self.x[self.node_names.len() - 1 + idx])
    }

    /// The raw unknown vector (node voltages then branch currents).
    pub fn as_slice(&self) -> &[f64] {
        &self.x
    }
}

/// Result of a transient analysis: the full unknown vector at every output
/// time point.
#[derive(Debug, Clone, PartialEq)]
pub struct TranResult {
    node_names: Vec<String>,
    vsource_names: Vec<String>,
    times: Vec<f64>,
    /// One unknown vector per time point.
    samples: Samples,
    /// Recovery actions the run needed (empty for a clean run).
    recovery: RecoveryStats,
}

/// Values per [`Samples`] block (64 KiB).
const BLOCK_LEN: usize = 8192;

/// The unknown vectors of a transient, back to back in fixed-size blocks.
/// A fixed-step run reserves every block before its first step, so
/// committing a sample is a copy into memory it already owns, never an
/// allocation. Blocks, not one buffer per run: a Table-1 transient's
/// samples span hundreds of KiB, and glibc's malloc, once it has freed
/// one such buffer, keeps later ones in its arenas and holds on to their
/// freed space; one buffer per run raised the pipeline's peak RSS by
/// about 1 MB (15–20 %), blocks of this size do not.
#[derive(Debug, Clone)]
struct Samples {
    blocks: Vec<Vec<f64>>,
    /// Unknowns per sample.
    stride: usize,
    /// Samples per block.
    per_block: usize,
    /// Samples stored.
    len: usize,
}

impl Samples {
    /// Storage for `samples` samples of `stride` unknowns, all reserved.
    fn with_capacity(stride: usize, samples: usize) -> Self {
        let per_block = (BLOCK_LEN / stride.max(1)).max(1);
        let blocks = (0..samples.div_ceil(per_block))
            .map(|_| Vec::with_capacity(per_block * stride))
            .collect();
        Samples {
            blocks,
            stride,
            per_block,
            len: 0,
        }
    }

    /// Appends one sample, opening a block only past the reservation.
    fn push(&mut self, x: &[f64]) {
        let block = self.len / self.per_block;
        if block == self.blocks.len() {
            self.blocks
                .push(Vec::with_capacity(self.per_block * self.stride));
        }
        self.blocks[block].extend_from_slice(x);
        self.len += 1;
    }

    /// Sample `idx`.
    fn get(&self, idx: usize) -> &[f64] {
        let start = (idx % self.per_block) * self.stride;
        &self.blocks[idx / self.per_block][start..start + self.stride]
    }
}

/// Equal samples, whatever the reservation behind them.
impl PartialEq for Samples {
    fn eq(&self, other: &Self) -> bool {
        self.stride == other.stride
            && self.len == other.len
            && (0..self.len).all(|k| self.get(k) == other.get(k))
    }
}

impl TranResult {
    /// The sampled time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Recovery actions taken during the run. A clean run reports
    /// [`RecoveryStats::is_clean`].
    pub fn recovery(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Number of recorded time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// One unknown's value at every time point.
    fn trace(&self, var: usize) -> Vec<f64> {
        (0..self.times.len())
            .map(|k| self.samples.get(k)[var])
            .collect()
    }

    fn node_var(&self, node: &str) -> Result<Option<usize>, SpiceError> {
        if node == "0" || node == "gnd" {
            return Ok(None);
        }
        let idx = self
            .node_names
            .iter()
            .position(|n| n == node)
            .ok_or_else(|| SpiceError::UnknownNode(node.to_string()))?;
        Ok(Some(idx - 1))
    }

    /// The voltage waveform of a named node.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] if the node does not exist.
    pub fn voltage(&self, node: &str) -> Result<Vec<f64>, SpiceError> {
        match self.node_var(node)? {
            None => Ok(vec![0.0; self.times.len()]),
            Some(var) => Ok(self.trace(var)),
        }
    }

    /// The node voltage at time `t`, linearly interpolated between samples.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::UnknownNode`] if the node does not exist.
    /// * [`SpiceError::SampleOutOfRange`] if `t` lies outside the simulated
    ///   window (the error carries the valid `[t_start, t_end]` range).
    /// * [`SpiceError::BadAnalysis`] if the result holds no samples at all.
    pub fn voltage_at(&self, node: &str, t: f64) -> Result<f64, SpiceError> {
        let var = self.node_var(node)?;
        let (t0, t1) = match (self.times.first(), self.times.last()) {
            (Some(&t0), Some(&t1)) => (t0, t1),
            _ => {
                return Err(SpiceError::BadAnalysis(
                    "transient produced no samples".into(),
                ))
            }
        };
        if t < t0 || t > t1 {
            return Err(SpiceError::SampleOutOfRange {
                t,
                t_start: t0,
                t_end: t1,
            });
        }
        let var = match var {
            None => return Ok(0.0),
            Some(v) => v,
        };
        let idx = self.times.partition_point(|&tv| tv <= t);
        if idx == 0 {
            return Ok(self.samples.get(0)[var]);
        }
        if idx >= self.times.len() {
            return Ok(self.samples.get(self.times.len() - 1)[var]);
        }
        let (ta, tb) = (self.times[idx - 1], self.times[idx]);
        let (va, vb) = (self.samples.get(idx - 1)[var], self.samples.get(idx)[var]);
        Ok(va + (vb - va) * (t - ta) / (tb - ta))
    }

    /// The node voltage at the final time point.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] if the node does not exist.
    pub fn final_voltage(&self, node: &str) -> Result<f64, SpiceError> {
        match self.node_var(node)? {
            None => Ok(0.0),
            Some(var) => Ok(self
                .times
                .len()
                .checked_sub(1)
                .map(|last| self.samples.get(last)[var])
                .ok_or_else(|| SpiceError::BadAnalysis("no samples".into()))?),
        }
    }

    /// The full unknown vector recorded at time `t`, if this result holds a
    /// sample of dimension `n` at (bitwise) that exact time point.
    ///
    /// Used by [`crate::Simulator::transient_seeded`] to warm-start Newton
    /// iterations from a neighboring run on the same time base; a run with
    /// a different time grid simply never matches and the caller falls back
    /// to its cold guess.
    pub fn guess_at(&self, t: f64, n: usize) -> Option<&[f64]> {
        let idx = self
            .times
            .binary_search_by(|tv| tv.partial_cmp(&t).unwrap_or(std::cmp::Ordering::Less))
            .ok()?;
        (self.samples.stride == n).then(|| self.samples.get(idx))
    }

    /// The branch-current waveform of a named voltage source.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownDevice`] if the source does not exist.
    pub fn current(&self, vsource: &str) -> Result<Vec<f64>, SpiceError> {
        let idx = self
            .vsource_names
            .iter()
            .position(|n| n == vsource)
            .ok_or_else(|| SpiceError::UnknownDevice(vsource.to_string()))?;
        let var = self.node_names.len() - 1 + idx;
        Ok(self.trace(var))
    }
}

/// Per-capacitor transient state, indexed like the capacitors of the
/// system's [`StampPlan`].
#[derive(Debug, Clone, Copy)]
struct CapState {
    /// Voltage across the capacitor at the last accepted time point.
    v_prev: f64,
    /// Capacitor current at the last accepted time point.
    i_prev: f64,
}

/// A circuit's MNA Jacobian at one point, with the structural pattern its
/// Newton solves declare (see [`Simulator::jacobian`]).
#[derive(Debug, Clone)]
pub struct Jacobian {
    matrix: DMatrix,
    starts: Vec<usize>,
    cols: Vec<usize>,
}

impl Jacobian {
    /// The Jacobian's values, row-major over the unknowns.
    pub fn matrix(&self) -> &DMatrix {
        &self.matrix
    }

    /// Every position any Jacobian of the circuit can hold: the pattern
    /// handed to the solver's [`LuFactor`](dso_num::lu::LuFactor).
    pub fn pattern(&self) -> Pattern<'_> {
        Pattern {
            starts: &self.starts,
            cols: &self.cols,
        }
    }
}

/// The simulator: binds a circuit to an ambient temperature and solver
/// policy.
#[derive(Debug, Clone)]
pub struct Simulator<'c> {
    circuit: &'c Circuit,
    temp: f64,
    gmin: f64,
    recovery: RecoveryPolicy,
    fault_plan: Option<FaultPlan>,
}

/// The Newton iteration policy every [`Simulator`] solves with.
pub fn default_newton_options() -> NewtonOptions {
    NewtonOptions {
        max_iterations: 200,
        residual_tol: 1e-9,
        step_tol: 1e-12,
        max_step: 1.0,
        damping: 0.5,
        lu_reuse: true,
    }
}

/// Device bypass window in volts: a MOSFET or diode whose terminal
/// voltages all moved less than this since its last model evaluation
/// reuses the cached, linearized stamp. 100 µV is an order of magnitude
/// tighter than the classic SPICE3 window (reltol·|v| + vntol ≈ 1 mV at
/// DRAM rail voltages), and every acceptance is still re-checked against
/// the exact residual.
const BYPASS_TOL: f64 = 1e-4;

impl<'c> Simulator<'c> {
    /// Creates a simulator at the nominal temperature (+27 °C).
    pub fn new(circuit: &'c Circuit) -> Self {
        Simulator {
            circuit,
            temp: 27.0,
            gmin: 1e-12,
            recovery: RecoveryPolicy::default(),
            fault_plan: None,
        }
    }

    /// Sets the ambient temperature in °C (a test *stress*).
    pub fn with_temperature(mut self, temp_celsius: f64) -> Self {
        self.temp = temp_celsius;
        self
    }

    /// Sets the minimum node-to-ground conductance (default 1 pS).
    pub fn with_gmin(mut self, gmin: f64) -> Self {
        self.gmin = gmin;
        self
    }

    /// Sets the convergence-recovery policy (default: all rungs enabled).
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Arms a deterministic fault-injection plan: every Newton solve this
    /// simulator performs consumes one ordinal from the plan and is
    /// corrupted when the plan schedules a fault there. Test-only in
    /// spirit, but available unconditionally so campaign layers can thread
    /// plans through without feature gymnastics.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Ambient temperature in °C.
    pub fn temperature(&self) -> f64 {
        self.temp
    }

    /// The recovery policy in force.
    pub fn recovery_policy(&self) -> &RecoveryPolicy {
        &self.recovery
    }

    /// Builds an MNA system for `circuit` with this simulator's
    /// temperature and gmin. Fault-armed simulators turn device bypass off:
    /// an injected fault must never be masked by a device cache.
    fn make_system<'x>(&self, circuit: &'x Circuit) -> MnaSystem<'x> {
        let mut system = MnaSystem::new(circuit, self.temp, self.gmin);
        system.bypass = self.fault_plan.is_none();
        system
    }

    /// Runs one Newton solve, routing it through the armed fault plan (if
    /// any) and counting the attempt. `reuse` lets the solve start from
    /// the solver's previous LU factorization instead of refactoring at
    /// iteration zero (see [`NewtonSolver::solve_reusing`]) — only pass it
    /// when the previous solve factored the *same* system a short step
    /// away in state. `probed` starts the solve from the residual the
    /// solver's last [`NewtonSolver::residual_norm`] left behind, which
    /// must have been taken at `x` (see [`NewtonSolver::solve_probed`]);
    /// it is ignored while a fault plan is armed, because the plan numbers
    /// residual evaluations.
    fn run_solve(
        &self,
        solver: &mut NewtonSolver,
        system: &mut MnaSystem<'_>,
        x: &mut [f64],
        stats: &mut RecoveryStats,
        reuse: bool,
        probed: bool,
    ) -> Result<NewtonStats, NumError> {
        stats.solve_attempts += 1;
        dso_obs::counter!("spice.solve_attempts").incr();
        let out = match &self.fault_plan {
            Some(plan) => {
                let mut chaos = ChaosSystem::arm(system, plan);
                if reuse {
                    solver.solve_reusing(&mut chaos, x)
                } else {
                    solver.solve(&mut chaos, x)
                }
            }
            None if probed => solver.solve_probed(system, x, reuse),
            None if reuse => solver.solve_reusing(system, x),
            None => solver.solve(system, x),
        };
        if let Ok(s) = &out {
            stats.newton_iters += s.iterations;
            stats.lu_refactors += s.lu_refactors;
            stats.lu_reuses += s.lu_reuses;
        }
        out
    }

    fn vsource_names(&self) -> Vec<String> {
        self.circuit
            .devices()
            .iter()
            .zip(self.circuit.device_names())
            .filter(|(d, _)| d.has_branch_current())
            .map(|(_, n)| n.clone())
            .collect()
    }

    /// Solves the DC operating point with sources at their `t = 0` values.
    ///
    /// Uses gmin stepping as a homotopy when the direct solve fails.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::BadTopology`] if the circuit fails validation.
    /// * [`SpiceError::Convergence`] if no operating point is found.
    pub fn dc_operating_point(&self) -> Result<Solution, SpiceError> {
        let _span = dso_obs::span("spice.dc_op");
        self.circuit.validate()?;
        let mut system = self.make_system(self.circuit);
        system.time = 0.0;
        let mut solver = NewtonSolver::new(default_newton_options());
        let mut x = vec![0.0; system.unknowns()];
        let mut stats = RecoveryStats::default();
        // Direct attempt, then gmin homotopy.
        match self.run_solve(&mut solver, &mut system, &mut x, &mut stats, false, false) {
            Ok(_) => {}
            Err(first_err) => {
                if !self.recovery.gmin_stepping {
                    return Err(SpiceError::Convergence {
                        time: None,
                        attempts: stats.solve_attempts,
                        source: first_err,
                    });
                }
                x.iter_mut().for_each(|v| *v = 0.0);
                let gmin_ladder = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, self.gmin];
                for &g in &gmin_ladder {
                    dso_obs::counter!("spice.dc_gmin_steps").incr();
                    system.set_gmin(g.max(self.gmin));
                    self.run_solve(&mut solver, &mut system, &mut x, &mut stats, false, false)
                        .map_err(|e| SpiceError::Convergence {
                            time: None,
                            attempts: stats.solve_attempts,
                            source: e,
                        })?;
                }
            }
        }
        Ok(Solution {
            node_names: self.circuit.node_names().to_vec(),
            vsource_names: self.vsource_names(),
            x,
        })
    }

    /// The circuit's MNA Jacobian at the unknown vector `x` (node
    /// voltages, then source branch currents, as in
    /// [`Solution::as_slice`]): the DC system's, with no capacitor
    /// companions and every device evaluated. It comes with the
    /// structural pattern that every Newton solve of this circuit declares
    /// to its LU factorization, so a caller can inspect what the solver
    /// factors: the Jacobian's sparsity, and the fill of the solver's
    /// elimination order on it.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::BadTopology`] if the circuit fails validation.
    /// * [`SpiceError::BadAnalysis`] if `x` has the wrong length.
    pub fn jacobian(&self, x: &[f64]) -> Result<Jacobian, SpiceError> {
        self.circuit.validate()?;
        let mut system = MnaSystem::new(self.circuit, self.temp, self.gmin);
        system.bypass = false;
        let n = system.unknowns();
        if x.len() != n {
            return Err(SpiceError::BadAnalysis(format!(
                "Jacobian point has {} unknowns, the circuit {n}",
                x.len()
            )));
        }
        let mut matrix = DMatrix::zeros(n, n);
        system.assemble_jacobian(x, &mut matrix);
        Ok(Jacobian {
            matrix,
            starts: system.jac_start,
            cols: system.jac_cols,
        })
    }

    /// Sweeps the DC value of a voltage source and solves the operating
    /// point at each step, warm-starting each solve from the previous one
    /// (the classic `.dc` analysis, used for device I–V characterization
    /// and transfer curves).
    ///
    /// The source's waveform is temporarily replaced; the circuit is not
    /// modified (the sweep works on an internal copy).
    ///
    /// # Errors
    ///
    /// * [`SpiceError::UnknownDevice`]/[`SpiceError::BadParameter`] if
    ///   `source` is not a voltage source.
    /// * [`SpiceError::BadAnalysis`] for an empty sweep.
    /// * [`SpiceError::Convergence`] if any point fails to solve.
    pub fn dc_sweep(&self, source: &str, values: &[f64]) -> Result<Vec<Solution>, SpiceError> {
        if values.is_empty() {
            return Err(SpiceError::BadAnalysis("dc sweep needs values".into()));
        }
        self.circuit.validate()?;
        let mut ckt = self.circuit.clone();
        // Verify the device is a vsource up front for a clean error.
        ckt.set_waveform(source, Waveform::Dc(values[0]))?;

        let mut out = Vec::with_capacity(values.len());
        let mut guess: Option<Vec<f64>> = None;
        let node_names = ckt.node_names().to_vec();
        let vsource_names = self.vsource_names();
        // One solver for the whole sweep: its factorization and scratch
        // buffers are sized once and reused at every point.
        let mut solver = NewtonSolver::new(default_newton_options());
        for &v in values {
            ckt.set_waveform(source, Waveform::Dc(v))?;
            let mut system = self.make_system(&ckt);
            system.time = 0.0;
            let mut stats = RecoveryStats::default();
            let mut x = guess
                .clone()
                .unwrap_or_else(|| vec![0.0; system.unknowns()]);
            self.run_solve(&mut solver, &mut system, &mut x, &mut stats, false, false)
                .map_err(|e| SpiceError::Convergence {
                    time: None,
                    attempts: stats.solve_attempts,
                    source: e,
                })?;
            guess = Some(x.clone());
            out.push(Solution {
                node_names: node_names.clone(),
                vsource_names: vsource_names.clone(),
                x,
            });
        }
        Ok(out)
    }

    /// Runs a fixed-step transient analysis.
    ///
    /// The first step (and any convergence-retry sub-step) uses backward
    /// Euler; subsequent steps use the configured method. When a time step
    /// fails to converge, the configured [`RecoveryPolicy`] ladder is
    /// climbed (method fallback → timestep subdivision → gmin stepping)
    /// before the error is surfaced; actions taken are reported in the
    /// result's [`TranResult::recovery`] stats.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::BadAnalysis`] unless `0 < dt <= t_stop`, both
    ///   finite.
    /// * [`SpiceError::BadTopology`] if the circuit fails validation.
    /// * [`SpiceError::UnknownNode`] if an initial condition names a
    ///   missing node.
    /// * [`SpiceError::Convergence`] if a time step cannot be solved even
    ///   after recovery.
    pub fn transient(&self, options: &TranOptions) -> Result<TranResult, SpiceError> {
        self.transient_seeded(options, None)
    }

    /// Runs a transient analysis like [`Simulator::transient`], but seeds
    /// each time step's Newton iteration from `seed` — the result of a
    /// neighboring run on the same time grid (e.g. the adjacent defect
    /// resistance of a sweep) — when a sample at the step's exact time
    /// point is available.
    ///
    /// Seeding only changes the *initial guess* of the first solve attempt
    /// of each step; recovery-ladder retries always restart from the
    /// previous committed state, so [`RecoveryPolicy`] semantics are
    /// unchanged and a misleading seed degrades to the cold-start path. A
    /// seed with a different time grid or unknown count is ignored
    /// entirely.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulator::transient`].
    pub fn transient_seeded(
        &self,
        options: &TranOptions,
        seed: Option<&TranResult>,
    ) -> Result<TranResult, SpiceError> {
        check_grid(options.t_stop, options.dt)?;
        let _span = dso_obs::span("spice.transient");
        dso_obs::counter!("spice.transients").incr();
        let (mut system, mut x, mut cap_states) = self.transient_init(options)?;
        let n = system.unknowns();
        let n_node_vars = self.circuit.node_count() - 1;
        let mut solver = NewtonSolver::new(default_newton_options());

        let steps = (options.t_stop / options.dt).round() as usize;
        let mut times = Vec::with_capacity(steps + 1);
        let mut samples = Samples::with_capacity(n, steps + 1);
        times.push(0.0);
        samples.push(&x);
        let mut stats = RecoveryStats::default();
        // One trial vector reused by every step attempt of the run.
        let mut trial = vec![0.0; n];
        let vsource_names = self.vsource_names();

        // Predictor buffer for warm-started steps (reused across the run).
        let mut warm_buf = vec![0.0; n];
        for step in 1..=steps {
            let t_target = if step == steps {
                options.t_stop
            } else {
                step as f64 * options.dt
            };
            let t_prev = times[times.len() - 1];
            // Warm-start predictor: add the seed trajectory's step
            // increment to our own committed state. On smooth stretches
            // the increment is ~0 and the guess degenerates to plain
            // continuation; across switching edges it injects the edge
            // jump the seed has already resolved. Both samples must sit on
            // the same (bitwise) time grid or the seed is ignored.
            let mut have_warm = false;
            if let Some(s) = seed {
                if let (Some(cur), Some(prev)) = (s.guess_at(t_target, n), s.guess_at(t_prev, n)) {
                    for (b, ((xi, c), p)) in warm_buf.iter_mut().zip(x.iter().zip(cur).zip(prev)) {
                        *b = xi + (c - p);
                    }
                    have_warm = true;
                }
            }
            let warm = if have_warm {
                Some(warm_buf.as_slice())
            } else {
                None
            };
            // The first attempt of every step starts from the solver's
            // retained LU (modified-Newton across time steps: the
            // Jacobian drifts slowly along a fixed-step transient). Step
            // one has nothing retained and degenerates to a full solve;
            // recovery rungs always refactor. Like device bypass, the
            // reuse is off while a fault plan is armed: injected faults
            // hook residual/Jacobian evaluations, and a solve that never
            // stamps would silently consume its fault ordinal.
            self.advance(
                &mut system,
                &mut solver,
                &mut x,
                &mut cap_states,
                &mut trial,
                warm,
                self.fault_plan.is_none(),
                t_prev,
                t_target,
                if step == 1 {
                    Method::BackwardEuler
                } else {
                    options.method
                },
                0,
                &mut stats,
            )?;
            times.push(t_target);
            samples.push(&x);
        }
        debug_assert_eq!(n_node_vars + vsource_names.len(), n);
        system.fold_bypass_counters(&mut stats);
        Ok(TranResult {
            node_names: self.circuit.node_names().to_vec(),
            vsource_names,
            times,
            samples,
            recovery: stats,
        })
    }

    /// Builds the pieces every transient starts from: the MNA system, the
    /// initial unknown vector (DC solve or `UIC` initial conditions), and
    /// the per-capacitor states.
    fn transient_init(&self, options: &TranOptions) -> Result<TransientInit<'_>, SpiceError> {
        self.circuit.validate()?;
        let system = self.make_system(self.circuit);
        let n = system.unknowns();

        // --- Initial state ---------------------------------------------
        let mut x = vec![0.0; n];
        match &options.start {
            StartMode::DcOperatingPoint => {
                let op = self.dc_operating_point()?;
                x.copy_from_slice(op.as_slice());
            }
            StartMode::UseIc(ics) => {
                // Capacitor initial voltages seed their positive terminal
                // relative to the negative one (two passes so chains of
                // caps referenced to ground settle).
                for _ in 0..2 {
                    for cap in &system.plan.capacitors {
                        if let (Some(p), Some(v0)) = (cap.p, cap.initial_voltage) {
                            x[p] = volt(&x, cap.n) + v0;
                        }
                    }
                }
                for (name, v) in ics {
                    let node = self.circuit.find_node(name)?;
                    if !node.is_ground() {
                        x[node.0 - 1] = *v;
                    }
                }
            }
        }

        // Capacitor states from the initial node voltages.
        let cap_states = system
            .plan
            .capacitors
            .iter()
            .map(|cap| CapState {
                v_prev: volt(&x, cap.p) - volt(&x, cap.n),
                i_prev: 0.0,
            })
            .collect();
        Ok((system, x, cap_states))
    }

    /// Installs the capacitor companion models for one step into `system`
    /// and stamps the step's target time.
    fn install_companions(
        &self,
        system: &mut MnaSystem<'_>,
        cap_states: &[CapState],
        t_prev: f64,
        t_target: f64,
        method: Method,
    ) -> Result<(), SpiceError> {
        let dt = t_target - t_prev;
        system.time = t_target;
        // Source values and companion currents move every step; the
        // conductances only when the method, dt or gmin does.
        system.rhs_dirty = true;
        for ((cap, state), installed) in system
            .plan
            .capacitors
            .iter()
            .zip(cap_states)
            .zip(&mut system.companions)
        {
            let comp = if cap.capacitance > 0.0 {
                // A companion-model failure is a configuration error
                // (non-positive dt), not a convergence failure — it is
                // surfaced immediately and never retried.
                Some(
                    method
                        .companion(cap.capacitance, dt, state.v_prev, state.i_prev)
                        .map_err(SpiceError::Numerical)?,
                )
            } else {
                None
            };
            let geq_bits = |c: Option<Companion>| c.map(|c| c.geq.to_bits());
            if geq_bits(comp) != geq_bits(*installed) {
                system.jac_dirty = true;
            }
            *installed = comp;
        }
        Ok(())
    }

    /// Prepares the companion models for one step and solves it from
    /// `guess`, leaving the trial solution in `trial` (reused across steps
    /// so the steady-state path stays allocation-free). Does **not**
    /// commit: `x` and capacitor states are untouched, so a failed attempt
    /// can be retried with a different method, step, or gmin.
    ///
    /// `alt`, when present, is a competing initial guess (a warm-start
    /// seed): after the step's companions are installed, both candidates'
    /// residual norms are probed and the iteration starts from the better
    /// one. Continuation from the previous state usually wins on smooth
    /// stretches; the neighbor's sample wins across switching edges, where
    /// the continuation guess is far from the post-edge solution.
    #[allow(clippy::too_many_arguments)]
    fn try_step(
        &self,
        system: &mut MnaSystem<'_>,
        solver: &mut NewtonSolver,
        guess: &[f64],
        alt: Option<&[f64]>,
        cap_states: &[CapState],
        trial: &mut Vec<f64>,
        t_prev: f64,
        t_target: f64,
        method: Method,
        stats: &mut RecoveryStats,
        reuse: bool,
    ) -> Result<(), SpiceError> {
        self.install_companions(system, cap_states, t_prev, t_target, method)?;
        let mut start = guess;
        // Whether the solver's residual scratch holds `R(start)`.
        let mut probed = false;
        if let Some(alt) = alt {
            // A failed probe (non-finite residual) disqualifies only that
            // candidate; the solve itself decides whether the step fails.
            let g = solver.residual_norm(system, guess).unwrap_or(f64::INFINITY);
            let a = solver.residual_norm(system, alt).unwrap_or(f64::INFINITY);
            if a.is_finite() && a < g {
                // The alternative was probed last, so the solve starts
                // from its residual. Evaluating it again would find every
                // device the probe evaluated exactly on its anchor
                // (Δv = 0) and return the same values, up to the sign of
                // a zero (DESIGN §10).
                start = alt;
                probed = true;
            }
        }
        trial.clear();
        trial.extend_from_slice(start);
        self.run_solve(solver, system, trial, stats, reuse, probed)
            .map_err(|e| SpiceError::Convergence {
                time: Some(t_target),
                attempts: stats.solve_attempts,
                source: e,
            })?;
        Ok(())
    }

    /// Commits an accepted trial solution: updates capacitor states from
    /// the companions currently installed in `system` and copies the
    /// solution into `x`.
    fn commit_step(
        &self,
        system: &MnaSystem<'_>,
        x: &mut [f64],
        cap_states: &mut [CapState],
        trial: &[f64],
        method: Method,
    ) {
        for ((cap, state), comp) in system
            .plan
            .capacitors
            .iter()
            .zip(cap_states.iter_mut())
            .zip(&system.companions)
        {
            let v_new = volt(trial, cap.p) - volt(trial, cap.n);
            state.i_prev = match comp {
                Some(comp) => method.current(*comp, v_new),
                None => 0.0,
            };
            state.v_prev = v_new;
        }
        x.copy_from_slice(trial);
    }

    /// gmin-stepping homotopy for one stubborn time step: solves the step
    /// repeatedly while relaxing the minimum conductance from 10 mS back
    /// down to the configured gmin, warm-starting each rung from the
    /// previous solution. All rungs use backward Euler. Restores
    /// `system.gmin` on every exit path.
    #[allow(clippy::too_many_arguments)]
    fn gmin_step(
        &self,
        system: &mut MnaSystem<'_>,
        solver: &mut NewtonSolver,
        x: &[f64],
        cap_states: &[CapState],
        trial: &mut Vec<f64>,
        t_prev: f64,
        t_target: f64,
        stats: &mut RecoveryStats,
    ) -> Result<(), SpiceError> {
        stats.gmin_retries += 1;
        dso_obs::counter!("recovery.gmin_retries").incr();
        let base = self.gmin;
        let ladder = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, base];
        // This is the rarely-taken deepest recovery rung; one scratch guess
        // per homotopy is fine.
        let mut guess = x.to_vec();
        for &g in &ladder {
            system.set_gmin(g.max(base));
            match self.try_step(
                system,
                solver,
                &guess,
                None,
                cap_states,
                trial,
                t_prev,
                t_target,
                Method::BackwardEuler,
                stats,
                false,
            ) {
                Ok(()) => guess.copy_from_slice(trial),
                Err(e) => {
                    system.set_gmin(base);
                    return Err(e);
                }
            }
        }
        system.set_gmin(base);
        Ok(())
    }

    /// Advances the state from `t_prev` to `t_target`, climbing the
    /// recovery ladder on convergence failure:
    ///
    /// 1. the requested integration method;
    /// 2. backward Euler on the same step (`method_fallback`);
    /// 3. recursive midpoint subdivision, backward Euler, down to
    ///    `max_subdivisions` levels;
    /// 4. at the deepest level, gmin stepping (`gmin_stepping`).
    ///
    /// `warm`, when present, competes with the previous committed state
    /// for the *initial guess* of the first solve attempt only (the lower
    /// residual norm wins — a warm-start seed from a neighboring run);
    /// every retry rung restarts from `x`, so a bad seed degrades to
    /// exactly the cold-start recovery behaviour. `reuse_first` likewise
    /// applies only to the first attempt: it lets that solve start from
    /// the solver's previous LU factorization; every recovery rung
    /// refactors from scratch.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &self,
        system: &mut MnaSystem<'_>,
        solver: &mut NewtonSolver,
        x: &mut [f64],
        cap_states: &mut [CapState],
        trial: &mut Vec<f64>,
        warm: Option<&[f64]>,
        reuse_first: bool,
        t_prev: f64,
        t_target: f64,
        method: Method,
        depth: usize,
        stats: &mut RecoveryStats,
    ) -> Result<(), SpiceError> {
        let first_err = match self.try_step(
            system,
            solver,
            x,
            warm,
            cap_states,
            trial,
            t_prev,
            t_target,
            method,
            stats,
            reuse_first,
        ) {
            Ok(()) => {
                self.commit_step(system, x, cap_states, trial, method);
                return Ok(());
            }
            Err(e @ SpiceError::Convergence { .. }) => e,
            // Anything other than a convergence failure (bad companion,
            // inconsistent state) is not recoverable by retrying.
            Err(e) => return Err(e),
        };

        // Rung 1: same step, backward Euler.
        if self.recovery.method_fallback && method != Method::BackwardEuler {
            stats.method_fallbacks += 1;
            dso_obs::counter!("recovery.method_fallbacks").incr();
            if self
                .try_step(
                    system,
                    solver,
                    x,
                    None,
                    cap_states,
                    trial,
                    t_prev,
                    t_target,
                    Method::BackwardEuler,
                    stats,
                    false,
                )
                .is_ok()
            {
                self.commit_step(system, x, cap_states, trial, Method::BackwardEuler);
                stats.recovered_steps += 1;
                dso_obs::counter!("recovery.recovered_steps").incr();
                return Ok(());
            }
        }

        // Rung 2: subdivide at the midpoint, both halves backward Euler.
        // Deeper failures climb their own ladder; the deepest level falls
        // through to gmin stepping below.
        if depth < self.recovery.max_subdivisions {
            stats.subdivisions += 1;
            stats.deepest_subdivision = stats.deepest_subdivision.max(depth + 1);
            dso_obs::counter!("recovery.subdivisions").incr();
            dso_obs::histogram!("recovery.subdivision_depth", &[1.0, 2.0, 3.0, 4.0, 6.0])
                .observe((depth + 1) as f64);
            let t_mid = 0.5 * (t_prev + t_target);
            self.advance(
                system,
                solver,
                x,
                cap_states,
                trial,
                None,
                false,
                t_prev,
                t_mid,
                Method::BackwardEuler,
                depth + 1,
                stats,
            )?;
            self.advance(
                system,
                solver,
                x,
                cap_states,
                trial,
                None,
                false,
                t_mid,
                t_target,
                Method::BackwardEuler,
                depth + 1,
                stats,
            )?;
            stats.recovered_steps += 1;
            dso_obs::counter!("recovery.recovered_steps").incr();
            return Ok(());
        }

        // Rung 3 (deepest subdivision only): gmin stepping.
        if self.recovery.gmin_stepping
            && self
                .gmin_step(
                    system, solver, x, cap_states, trial, t_prev, t_target, stats,
                )
                .is_ok()
        {
            self.commit_step(system, x, cap_states, trial, Method::BackwardEuler);
            stats.recovered_steps += 1;
            dso_obs::counter!("recovery.recovered_steps").incr();
            return Ok(());
        }

        // Ladder exhausted: surface the original failure, with the total
        // attempt count spent on this run.
        match first_err {
            SpiceError::Convergence { time, source, .. } => Err(SpiceError::Convergence {
                time,
                attempts: stats.solve_attempts,
                source,
            }),
            e => Err(e),
        }
    }
}

/// Bypass anchor for one MOSFET: the terminal voltages of its last model
/// evaluation and the evaluation itself.
#[derive(Debug, Clone, Copy)]
struct MosBypass {
    vgs: f64,
    vds: f64,
    vbs: f64,
    eval: mos::MosEval,
}

/// Bypass anchor for one diode: junction voltage, current, conductance.
#[derive(Debug, Clone, Copy)]
struct DiodeBypass {
    vd: f64,
    i: f64,
    g: f64,
}

/// The MNA unknown of a node's voltage; `None` for ground.
fn var(node: NodeId) -> Option<usize> {
    (!node.is_ground()).then(|| node.0 - 1)
}

/// The voltage of unknown `v` in `x` (ground is 0 V).
#[inline]
fn volt(x: &[f64], v: Option<usize>) -> f64 {
    match v {
        Some(i) => x[i],
        None => 0.0,
    }
}

/// Adds `value` to residual row `row` (nothing for ground).
#[inline]
fn add_res(out: &mut [f64], row: Option<usize>, value: f64) {
    if let Some(i) = row {
        out[i] += value;
    }
}

/// Adds `value` to Jacobian entry `(row, col)` (nothing for ground).
#[inline]
fn add_jac(jac: &mut DMatrix, row: Option<usize>, col: Option<usize>, value: f64) {
    if let (Some(r), Some(c)) = (row, col) {
        jac[(r, c)] += value;
    }
}

/// Bypass hit and miss tallies of one stamping pass.
#[derive(Debug, Default)]
struct BypassTally {
    hits: usize,
    misses: usize,
}

/// A MOSFET of a [`StampPlan`]: terminals as unknowns, constants folded
/// at the system's temperature, and its bypass anchor.
#[derive(Debug)]
struct MosStamp {
    d: Option<usize>,
    g: Option<usize>,
    s: Option<usize>,
    b: Option<usize>,
    model: mos::MosPrepared,
    anchor: Option<MosBypass>,
}

impl MosStamp {
    /// The device's linearization at `x` and its drain current there.
    /// Within [`BYPASS_TOL`] of the anchor (and unless `force_eval`), the
    /// anchor's evaluation is reused and its current corrected to first
    /// order along the anchored conductances, so a hit is exact to O(Δv²);
    /// otherwise the model is evaluated and becomes the new anchor.
    #[inline]
    fn linearize(
        &mut self,
        x: &[f64],
        force_eval: bool,
        tally: &mut BypassTally,
    ) -> (mos::MosEval, f64) {
        let vs = volt(x, self.s);
        let vgs = volt(x, self.g) - vs;
        let vds = volt(x, self.d) - vs;
        let vbs = volt(x, self.b) - vs;
        if !force_eval {
            if let Some(c) = self.anchor {
                if (vgs - c.vgs).abs() <= BYPASS_TOL
                    && (vds - c.vds).abs() <= BYPASS_TOL
                    && (vbs - c.vbs).abs() <= BYPASS_TOL
                {
                    tally.hits += 1;
                    let ids = c.eval.ids
                        + c.eval.gm * (vgs - c.vgs)
                        + c.eval.gds * (vds - c.vds)
                        + c.eval.gmbs * (vbs - c.vbs);
                    return (c.eval, ids);
                }
            }
        }
        tally.misses += 1;
        let e = mos::evaluate_prepared(&self.model, vgs, vds, vbs);
        self.anchor = Some(MosBypass {
            vgs,
            vds,
            vbs,
            eval: e,
        });
        (e, e.ids)
    }
}

/// A diode of a [`StampPlan`] (see [`MosStamp`]).
#[derive(Debug)]
struct DiodeStamp {
    p: Option<usize>,
    n: Option<usize>,
    model: DiodePrepared,
    anchor: Option<DiodeBypass>,
}

impl DiodeStamp {
    /// The device's `(current, conductance)` at `x`, bypassed as in
    /// [`MosStamp::linearize`].
    #[inline]
    fn linearize(&mut self, x: &[f64], force_eval: bool, tally: &mut BypassTally) -> (f64, f64) {
        let vd = volt(x, self.p) - volt(x, self.n);
        if !force_eval {
            if let Some(c) = self.anchor {
                if (vd - c.vd).abs() <= BYPASS_TOL {
                    tally.hits += 1;
                    return (c.i + c.g * (vd - c.vd), c.g);
                }
            }
        }
        tally.misses += 1;
        let (i, g) = self.model.evaluate(vd);
        self.anchor = Some(DiodeBypass { vd, i, g });
        (i, g)
    }
}

/// A voltage-controlled switch of a [`StampPlan`]. Switches transition
/// over tens of millivolts and sit on the circuits' critical timing
/// paths, so they are never bypassed.
#[derive(Debug)]
struct SwitchStamp {
    p: Option<usize>,
    n: Option<usize>,
    cp: Option<usize>,
    cn: Option<usize>,
    model: SwitchPrepared,
}

impl SwitchStamp {
    /// `(g, ∂g/∂vc, v)`: conductance, its control derivative and the
    /// switched voltage at `x`.
    #[inline]
    fn linearize(&self, x: &[f64]) -> (f64, f64, f64) {
        let vc = volt(x, self.cp) - volt(x, self.cn);
        let (g, dg_dvc) = self.model.evaluate(vc);
        (g, dg_dvc, volt(x, self.p) - volt(x, self.n))
    }
}

/// One nonlinear device of a [`StampPlan`].
#[derive(Debug)]
enum NonlinearStamp {
    Mos(MosStamp),
    Diode(DiodeStamp),
    Switch(SwitchStamp),
}

/// One linear device of a [`StampPlan`], terminals as unknowns.
#[derive(Debug)]
enum LinearStamp<'a> {
    /// A resistor's conductance `1/R`.
    Conductance {
        p: Option<usize>,
        n: Option<usize>,
        g: f64,
    },
    /// Capacitor `k` of [`StampPlan::capacitors`]: its companion model
    /// during a transient, nothing at DC.
    Capacitor {
        p: Option<usize>,
        n: Option<usize>,
        k: usize,
    },
    /// A voltage source and its branch-current unknown `br`.
    VSource {
        p: Option<usize>,
        n: Option<usize>,
        br: usize,
        waveform: &'a Waveform,
    },
    /// A current source.
    ISource {
        p: Option<usize>,
        n: Option<usize>,
        waveform: &'a Waveform,
    },
}

/// A capacitor of a [`StampPlan`].
#[derive(Debug)]
struct CapStamp {
    p: Option<usize>,
    n: Option<usize>,
    capacitance: f64,
    initial_voltage: Option<f64>,
}

/// A circuit's devices compiled once for one [`MnaSystem`]: terminals
/// resolved to unknowns, every temperature and geometry constant folded
/// ([`mos::prepare`], [`DiodeModel::prepare`](crate::diode::DiodeModel::prepare),
/// [`prepare_switch`], `1/R`), in device order within each list. Every
/// per-step and per-evaluation loop walks these lists instead of matching
/// on the circuit's devices. Device order is kept so that every residual
/// row and every Jacobian entry sums its terms in the order the device
/// list gives, which keeps every value bit-identical to stamping from the
/// devices themselves.
#[derive(Debug)]
struct StampPlan<'a> {
    /// MOSFETs, diodes and switches.
    nonlinear: Vec<NonlinearStamp>,
    /// Resistors, capacitors, voltage and current sources.
    linear: Vec<LinearStamp<'a>>,
    /// Capacitors; their companions and transient states are indexed
    /// alike.
    capacitors: Vec<CapStamp>,
    /// Voltage-source branch currents, numbered after the node voltages.
    branches: usize,
}

impl<'a> StampPlan<'a> {
    fn compile(circuit: &'a Circuit, temp: f64) -> Self {
        let n_nodes = circuit.node_count() - 1;
        let mut plan = StampPlan {
            nonlinear: Vec::new(),
            linear: Vec::new(),
            capacitors: Vec::new(),
            branches: 0,
        };
        for device in circuit.devices() {
            match device {
                Device::Resistor { p, n, resistance } => {
                    plan.linear.push(LinearStamp::Conductance {
                        p: var(*p),
                        n: var(*n),
                        g: 1.0 / resistance,
                    })
                }
                Device::Capacitor {
                    p,
                    n,
                    capacitance,
                    initial_voltage,
                } => {
                    plan.linear.push(LinearStamp::Capacitor {
                        p: var(*p),
                        n: var(*n),
                        k: plan.capacitors.len(),
                    });
                    plan.capacitors.push(CapStamp {
                        p: var(*p),
                        n: var(*n),
                        capacitance: *capacitance,
                        initial_voltage: *initial_voltage,
                    });
                }
                Device::VSource { p, n, waveform } => {
                    plan.linear.push(LinearStamp::VSource {
                        p: var(*p),
                        n: var(*n),
                        br: n_nodes + plan.branches,
                        waveform,
                    });
                    plan.branches += 1;
                }
                Device::ISource { p, n, waveform } => plan.linear.push(LinearStamp::ISource {
                    p: var(*p),
                    n: var(*n),
                    waveform,
                }),
                Device::Mosfet {
                    d,
                    g,
                    s,
                    b,
                    model,
                    geometry,
                } => plan.nonlinear.push(NonlinearStamp::Mos(MosStamp {
                    d: var(*d),
                    g: var(*g),
                    s: var(*s),
                    b: var(*b),
                    model: mos::prepare(model, *geometry, temp),
                    anchor: None,
                })),
                Device::Diode { p, n, model } => {
                    plan.nonlinear.push(NonlinearStamp::Diode(DiodeStamp {
                        p: var(*p),
                        n: var(*n),
                        model: model.prepare(temp),
                        anchor: None,
                    }))
                }
                Device::VSwitch {
                    p,
                    n,
                    cp,
                    cn,
                    ron,
                    roff,
                    threshold,
                    transition,
                } => plan.nonlinear.push(NonlinearStamp::Switch(SwitchStamp {
                    p: var(*p),
                    n: var(*n),
                    cp: var(*cp),
                    cn: var(*cn),
                    model: prepare_switch(*ron, *roff, *threshold, *transition),
                })),
            }
        }
        plan
    }
}

/// The MNA nonlinear system for one time point (or the DC operating point
/// when no companion models are installed), at one temperature and over
/// one device list for its whole life: both are compiled into its
/// [`StampPlan`] when it is built.
///
/// The system assembles incrementally: everything linear in `x` (gmin
/// leak, resistors, capacitor companions, source patterns) is stamped into
/// `lin_jac`/`lin_rhs` — the Jacobian half once per `(gmin, companion
/// conductances)` configuration, the right-hand side once per step — and
/// each residual/Jacobian evaluation is a sparse matrix-vector product (or
/// memcpy) plus the nonlinear device stamps, with MOSFETs and diodes
/// bypassed when their terminal voltages have not moved (unless `bypass`
/// is off).
struct MnaSystem<'a> {
    plan: StampPlan<'a>,
    /// Node-voltage unknowns (the first `n_nodes` of the vector).
    n_nodes: usize,
    gmin: f64,
    time: f64,
    /// Companion model per capacitor of the plan (transient only).
    companions: Vec<Option<Companion>>,
    n_unknowns: usize,
    /// Whether MOSFET and diode stamps may be bypassed within
    /// [`BYPASS_TOL`]; off, every device is evaluated on every stamp and
    /// every residual is exact.
    bypass: bool,
    /// `true` when `lin_jac` no longer matches `gmin` and the companion
    /// conductances.
    jac_dirty: bool,
    /// `true` when `lin_rhs` no longer matches the step's time and
    /// companion currents.
    rhs_dirty: bool,
    /// Constant (in `x`) part of the Jacobian.
    lin_jac: DMatrix,
    /// Stamp pattern of `lin_jac` (see [`MnaSystem::base_pattern`]),
    /// ascending per row; row `i` is `lin_cols[lin_start[i]..lin_start[i + 1]]`.
    lin_cols: Vec<usize>,
    lin_start: Vec<usize>,
    /// Structural pattern of the whole Jacobian (see
    /// [`MnaSystem::stamp_pattern`]), in the same layout; declared to the
    /// Newton solver's LU factorization.
    jac_cols: Vec<usize>,
    jac_start: Vec<usize>,
    /// Constant (in `x`) part of the residual.
    lin_rhs: Vec<f64>,
    bypass_hits: usize,
    bypass_misses: usize,
}

impl<'a> MnaSystem<'a> {
    fn new(circuit: &'a Circuit, temp: f64, gmin: f64) -> Self {
        let plan = StampPlan::compile(circuit, temp);
        let n_nodes = circuit.node_count() - 1;
        let n = n_nodes + plan.branches;
        let (lin_cols, lin_start) = Self::base_pattern(&plan, n_nodes, n);
        let (jac_cols, jac_start) = Self::stamp_pattern(&plan, n_nodes, n);
        MnaSystem {
            companions: vec![None; plan.capacitors.len()],
            plan,
            n_nodes,
            gmin,
            time: 0.0,
            n_unknowns: n,
            bypass: true,
            jac_dirty: true,
            rhs_dirty: true,
            lin_jac: DMatrix::zeros(n, n),
            lin_cols,
            lin_start,
            jac_cols,
            jac_start,
            lin_rhs: vec![0.0; n],
            bypass_hits: 0,
            bypass_misses: 0,
        }
    }

    /// Every position of the `n × n` linear base a stamp can reach — the
    /// gmin diagonal, two-terminal conductances (resistors, capacitor
    /// companions) and voltage-source incidences — as ascending column
    /// lists per row, `(cols, row starts)`. A fixed superset of the base's
    /// nonzeros, so it is computed once per system, never rescanned.
    fn base_pattern(plan: &StampPlan<'_>, n_nodes: usize, n: usize) -> (Vec<usize>, Vec<usize>) {
        let mut stamped = vec![false; n * n];
        Self::mark_base(plan, n_nodes, n, &mut stamped);
        Self::rows_of(&stamped, n)
    }

    /// Every position [`MnaSystem::assemble_jacobian`] can write: the
    /// [`MnaSystem::base_pattern`] and each nonlinear device's stamp block
    /// (a MOSFET's drain and source rows over its four terminals, a
    /// diode's two terminals, a switch's two rows over its four
    /// terminals). Fixed for the system's life, like the plan. The branch
    /// rows' diagonals stay out: they are always zero, and as structural
    /// entries they would fill every neighbour of a source's node (DESIGN
    /// §10).
    fn stamp_pattern(plan: &StampPlan<'_>, n_nodes: usize, n: usize) -> (Vec<usize>, Vec<usize>) {
        let mut stamped = vec![false; n * n];
        Self::mark_base(plan, n_nodes, n, &mut stamped);
        let mut block = |rows: &[Option<usize>], cols: &[Option<usize>]| {
            for &r in rows.iter().flatten() {
                for &c in cols.iter().flatten() {
                    stamped[r * n + c] = true;
                }
            }
        };
        for stamp in &plan.nonlinear {
            match stamp {
                NonlinearStamp::Mos(m) => block(&[m.d, m.s], &[m.d, m.g, m.s, m.b]),
                NonlinearStamp::Diode(d) => block(&[d.p, d.n], &[d.p, d.n]),
                NonlinearStamp::Switch(sw) => block(&[sw.p, sw.n], &[sw.p, sw.n, sw.cp, sw.cn]),
            }
        }
        Self::rows_of(&stamped, n)
    }

    /// Marks the base's reachable positions in a row-major `n × n` grid.
    fn mark_base(plan: &StampPlan<'_>, n_nodes: usize, n: usize, stamped: &mut [bool]) {
        let mut mark = |row: usize, col: usize| stamped[row * n + col] = true;
        for i in 0..n_nodes {
            mark(i, i);
        }
        for stamp in &plan.linear {
            match *stamp {
                LinearStamp::Conductance { p, n, .. } | LinearStamp::Capacitor { p, n, .. } => {
                    for a in [p, n].into_iter().flatten() {
                        for b in [p, n].into_iter().flatten() {
                            mark(a, b);
                        }
                    }
                }
                LinearStamp::VSource { p, n, br, .. } => {
                    for a in [p, n].into_iter().flatten() {
                        mark(a, br);
                        mark(br, a);
                    }
                }
                LinearStamp::ISource { .. } => {}
            }
        }
    }

    /// A marked `n × n` grid as ascending column lists per row,
    /// `(cols, row starts)`.
    fn rows_of(stamped: &[bool], n: usize) -> (Vec<usize>, Vec<usize>) {
        let mut cols = Vec::new();
        let mut starts = vec![0];
        for row in stamped.chunks_exact(n.max(1)).take(n) {
            cols.extend((0..n).filter(|&j| row[j]));
            starts.push(cols.len());
        }
        (cols, starts)
    }

    /// Changes the minimum conductance, invalidating the linear base (the
    /// gmin leak lives on its diagonal). Homotopy ladders must use this
    /// instead of writing the field.
    fn set_gmin(&mut self, gmin: f64) {
        if self.gmin != gmin {
            self.gmin = gmin;
            self.jac_dirty = true;
        }
    }

    /// Drains the bypass counters into a stats tally (and the process-wide
    /// metrics), leaving them zeroed so a system shared across phases
    /// never double-counts.
    fn fold_bypass_counters(&mut self, stats: &mut RecoveryStats) {
        if self.bypass_hits > 0 {
            dso_obs::counter!("spice.bypass_hits").add(self.bypass_hits as u64);
        }
        if self.bypass_misses > 0 {
            dso_obs::counter!("spice.bypass_misses").add(self.bypass_misses as u64);
        }
        stats.bypass_hits += self.bypass_hits;
        stats.bypass_misses += self.bypass_misses;
        self.bypass_hits = 0;
        self.bypass_misses = 0;
    }

    /// Rebuilds whichever half of the linear base the step configuration
    /// invalidated. Everything whose contribution is affine in `x` — gmin
    /// leak, resistors, capacitor companions, source values, voltage
    /// source patterns — lands here; per-iteration evaluations then start
    /// from a matvec/memcpy of it instead of re-stamping.
    fn ensure_base(&mut self) {
        if self.jac_dirty {
            self.build_base_jac();
        }
        if self.rhs_dirty {
            self.build_base_rhs();
        }
    }

    /// Stamps the conductance half of the base: gmin leak, resistors,
    /// companion conductances, voltage-source patterns.
    fn build_base_jac(&mut self) {
        self.lin_jac.clear();
        for i in 0..self.n_nodes {
            self.lin_jac[(i, i)] += self.gmin;
        }
        for stamp in &self.plan.linear {
            match *stamp {
                LinearStamp::Conductance { p, n, g } => {
                    Self::base_conductance(&mut self.lin_jac, p, n, g);
                }
                LinearStamp::Capacitor { p, n, k } => {
                    if let Some(comp) = self.companions[k] {
                        Self::base_conductance(&mut self.lin_jac, p, n, comp.geq);
                    }
                }
                LinearStamp::VSource { p, n, br, .. } => {
                    if let Some(p) = p {
                        self.lin_jac[(p, br)] += 1.0;
                        self.lin_jac[(br, p)] += 1.0;
                    }
                    if let Some(n) = n {
                        self.lin_jac[(n, br)] -= 1.0;
                        self.lin_jac[(br, n)] -= 1.0;
                    }
                }
                // Current sources add no conductance.
                LinearStamp::ISource { .. } => {}
            }
        }
        self.jac_dirty = false;
    }

    /// Stamps the source half of the base: companion currents and the
    /// source values at the step's time.
    fn build_base_rhs(&mut self) {
        self.lin_rhs.iter_mut().for_each(|r| *r = 0.0);
        for stamp in &self.plan.linear {
            match *stamp {
                LinearStamp::Capacitor { p, n, k } => {
                    if let Some(comp) = self.companions[k] {
                        add_res(&mut self.lin_rhs, p, -comp.ieq);
                        add_res(&mut self.lin_rhs, n, comp.ieq);
                    }
                }
                LinearStamp::VSource { br, waveform, .. } => {
                    self.lin_rhs[br] -= waveform.eval(self.time);
                }
                LinearStamp::ISource { p, n, waveform } => {
                    let i = waveform.eval(self.time);
                    add_res(&mut self.lin_rhs, p, i);
                    add_res(&mut self.lin_rhs, n, -i);
                }
                // Resistors add no source.
                LinearStamp::Conductance { .. } => {}
            }
        }
        self.rhs_dirty = false;
    }

    /// Stamps a two-terminal conductance pattern into a matrix.
    fn base_conductance(jac: &mut DMatrix, p: Option<usize>, n: Option<usize>, g: f64) {
        if let Some(p) = p {
            jac[(p, p)] += g;
        }
        if let Some(n) = n {
            jac[(n, n)] += g;
        }
        if let (Some(p), Some(n)) = (p, n) {
            jac[(p, n)] -= g;
            jac[(n, p)] -= g;
        }
    }

    /// The linear part of the residual: the base's matvec plus its
    /// right-hand side. The matvec runs over the base's stamp pattern
    /// only, with the same ascending `.sum()` as [`DMatrix::mul_vec_into`]:
    /// a skipped term is an exact zero, so every nonzero row sum is
    /// bit-identical.
    fn linear_residual(&mut self, x: &[f64], out: &mut [f64]) {
        self.ensure_base();
        for (i, o) in out.iter_mut().enumerate() {
            let row = self.lin_jac.row(i);
            *o = self.lin_cols[self.lin_start[i]..self.lin_start[i + 1]]
                .iter()
                .map(|&j| row[j] * x[j])
                .sum();
        }
        for (o, r) in out.iter_mut().zip(&self.lin_rhs) {
            *o += *r;
        }
    }

    /// The residual: [`MnaSystem::linear_residual`] plus every nonlinear
    /// device's current, in device order. `force_eval` (the exact
    /// residual), or bypass being off, evaluates every device and
    /// refreshes the anchors.
    fn assemble_residual(&mut self, x: &[f64], out: &mut [f64], force_eval: bool) {
        self.linear_residual(x, out);
        let force_eval = force_eval || !self.bypass;
        let mut tally = BypassTally::default();
        for stamp in &mut self.plan.nonlinear {
            match stamp {
                NonlinearStamp::Mos(m) => {
                    let (_, ids) = m.linearize(x, force_eval, &mut tally);
                    add_res(out, m.d, ids);
                    add_res(out, m.s, -ids);
                }
                NonlinearStamp::Diode(dio) => {
                    let (i, _) = dio.linearize(x, force_eval, &mut tally);
                    add_res(out, dio.p, i);
                    add_res(out, dio.n, -i);
                }
                NonlinearStamp::Switch(sw) => {
                    let (g, _, v) = sw.linearize(x);
                    let i = g * v;
                    add_res(out, sw.p, i);
                    add_res(out, sw.n, -i);
                }
            }
        }
        self.bypass_hits += tally.hits;
        self.bypass_misses += tally.misses;
    }

    /// The Jacobian: the linear base plus every nonlinear device's
    /// conductances, in device order, bypassed as in the residual.
    fn assemble_jacobian(&mut self, x: &[f64], jac: &mut DMatrix) {
        self.ensure_base();
        jac.copy_from(&self.lin_jac);
        let force_eval = !self.bypass;
        let mut tally = BypassTally::default();
        for stamp in &mut self.plan.nonlinear {
            match stamp {
                NonlinearStamp::Mos(m) => {
                    let (e, _) = m.linearize(x, force_eval, &mut tally);
                    let (d, g, s, b) = (m.d, m.g, m.s, m.b);
                    let gsum = e.gm + e.gds + e.gmbs;
                    add_jac(jac, d, d, e.gds);
                    add_jac(jac, d, g, e.gm);
                    add_jac(jac, d, b, e.gmbs);
                    add_jac(jac, d, s, -gsum);
                    add_jac(jac, s, d, -e.gds);
                    add_jac(jac, s, g, -e.gm);
                    add_jac(jac, s, b, -e.gmbs);
                    add_jac(jac, s, s, gsum);
                }
                NonlinearStamp::Diode(dio) => {
                    let (_, g) = dio.linearize(x, force_eval, &mut tally);
                    let (p, n) = (dio.p, dio.n);
                    add_jac(jac, p, p, g);
                    add_jac(jac, p, n, -g);
                    add_jac(jac, n, p, -g);
                    add_jac(jac, n, n, g);
                }
                NonlinearStamp::Switch(sw) => {
                    let (g, dg_dvc, v) = sw.linearize(x);
                    let (p, n, cp, cn) = (sw.p, sw.n, sw.cp, sw.cn);
                    add_jac(jac, p, p, g);
                    add_jac(jac, p, n, -g);
                    add_jac(jac, n, p, -g);
                    add_jac(jac, n, n, g);
                    let gc = dg_dvc * v;
                    add_jac(jac, p, cp, gc);
                    add_jac(jac, p, cn, -gc);
                    add_jac(jac, n, cp, -gc);
                    add_jac(jac, n, cn, gc);
                }
            }
        }
        self.bypass_hits += tally.hits;
        self.bypass_misses += tally.misses;
    }
}

impl NonlinearSystem for MnaSystem<'_> {
    fn unknowns(&self) -> usize {
        self.n_unknowns
    }

    fn residual(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
        self.assemble_residual(x, out, false);
        Ok(())
    }

    fn jacobian(&mut self, x: &[f64], jac: &mut DMatrix) -> Result<(), NumError> {
        self.assemble_jacobian(x, jac);
        Ok(())
    }

    fn residual_is_approximate(&self) -> bool {
        self.bypass
    }

    fn residual_exact(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
        // Evaluate every device and refresh the anchors: acceptance is
        // always judged on the true residual, and the refreshed caches
        // make the verdict the next iteration's starting point.
        self.assemble_residual(x, out, true);
        Ok(())
    }

    fn jacobian_pattern(&self) -> Option<Pattern<'_>> {
        Some(Pattern {
            starts: &self.jac_start,
            cols: &self.jac_cols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mos::{MosGeometry, MosModel};
    use crate::waveform::{step, Pulse, Waveform};

    fn divider() -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.add_vsource("V1", vin, Circuit::GROUND, Waveform::Dc(2.0))
            .unwrap();
        ckt.add_resistor("R1", vin, mid, 1e3).unwrap();
        ckt.add_resistor("R2", mid, Circuit::GROUND, 1e3).unwrap();
        ckt
    }

    #[test]
    fn dc_divider() {
        let ckt = divider();
        let op = Simulator::new(&ckt).dc_operating_point().unwrap();
        assert!((op.voltage("mid").unwrap() - 1.0).abs() < 1e-6);
        assert!((op.voltage("in").unwrap() - 2.0).abs() < 1e-9);
        assert!((op.voltage("0").unwrap()).abs() < 1e-12);
        // Current through the source: 2 V across 2 kΩ = 1 mA into the
        // divider, so the branch current (p → source → n) is −1 mA... the
        // sign follows the stamping convention: i flows out of `p` into
        // the external circuit means negative branch current here.
        let i = op.current("V1").unwrap();
        assert!((i.abs() - 1e-3).abs() < 1e-9, "i = {i}");
    }

    #[test]
    fn dc_diode_drop() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let k = ckt.node("k");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::Dc(5.0))
            .unwrap();
        ckt.add_resistor("R1", a, k, 1e3).unwrap();
        ckt.add_diode(
            "D1",
            k,
            Circuit::GROUND,
            crate::diode::DiodeModel::default(),
        )
        .unwrap();
        let op = Simulator::new(&ckt).dc_operating_point().unwrap();
        let vd = op.voltage("k").unwrap();
        assert!((0.5..0.8).contains(&vd), "diode drop {vd}");
    }

    #[test]
    fn rc_charge_matches_analytic() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("V1", vin, Circuit::GROUND, Waveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", vin, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        let tau = 1e3 * 1e-9;
        let opts = TranOptions::new(5.0 * tau, tau / 100.0)
            .unwrap()
            .with_ic(vec![("out".to_string(), 0.0)]);
        let result = Simulator::new(&ckt).transient(&opts).unwrap();
        for &frac in &[0.5, 1.0, 2.0, 4.0] {
            let t = frac * tau;
            let v = result.voltage_at("out", t).unwrap();
            let exact = 1.0 - (-frac).exp();
            assert!((v - exact).abs() < 2e-3, "t={frac} tau: {v} vs {exact}");
        }
    }

    #[test]
    fn rc_discharge_with_cap_ic() {
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.add_resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
        ckt.add_capacitor_ic("C1", out, Circuit::GROUND, 1e-9, Some(2.4))
            .unwrap();
        let tau = 1e-6;
        let opts = TranOptions::new(3.0 * tau, tau / 200.0)
            .unwrap()
            .with_ic(Vec::new());
        let result = Simulator::new(&ckt).transient(&opts).unwrap();
        assert!((result.voltage_at("out", 0.0).unwrap() - 2.4).abs() < 1e-9);
        let v = result.final_voltage("out").unwrap();
        let exact = 2.4 * (-3.0_f64).exp();
        assert!((v - exact).abs() < 2e-3, "{v} vs {exact}");
    }

    #[test]
    fn trapezoidal_beats_backward_euler() {
        let run = |method: Method| {
            let mut ckt = Circuit::new();
            let out = ckt.node("out");
            ckt.add_resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
            ckt.add_capacitor_ic("C1", out, Circuit::GROUND, 1e-9, Some(1.0))
                .unwrap();
            let opts = TranOptions::new(2e-6, 5e-8)
                .unwrap()
                .with_method(method)
                .with_ic(Vec::new());
            Simulator::new(&ckt)
                .transient(&opts)
                .unwrap()
                .final_voltage("out")
                .unwrap()
        };
        let exact = (-2.0_f64).exp();
        let be_err = (run(Method::BackwardEuler) - exact).abs();
        let tr_err = (run(Method::Trapezoidal) - exact).abs();
        assert!(tr_err < be_err, "tr {tr_err} vs be {be_err}");
    }

    #[test]
    fn pulse_through_rc() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::Pulse(Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 1e-6,
                rise: 1e-8,
                fall: 1e-8,
                width: 4e-6,
                period: f64::INFINITY,
            }),
        )
        .unwrap();
        ckt.add_resistor("R1", vin, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, Circuit::GROUND, 1e-10)
            .unwrap();
        let opts = TranOptions::new(8e-6, 2e-8).unwrap();
        let result = Simulator::new(&ckt).transient(&opts).unwrap();
        // Before the pulse: 0. During the plateau: ~1. After: decaying.
        assert!(result.voltage_at("out", 0.5e-6).unwrap().abs() < 1e-3);
        assert!((result.voltage_at("out", 4.5e-6).unwrap() - 1.0).abs() < 1e-2);
        assert!(result.voltage_at("out", 7.9e-6).unwrap() < 0.1);
    }

    #[test]
    fn nmos_inverter_transfer() {
        // NMOS with resistive pull-up: out high when gate low, low when
        // gate high.
        let build = |vg: f64| {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let gate = ckt.node("g");
            let out = ckt.node("out");
            ckt.add_vsource("Vdd", vdd, Circuit::GROUND, Waveform::Dc(2.4))
                .unwrap();
            ckt.add_vsource("Vg", gate, Circuit::GROUND, Waveform::Dc(vg))
                .unwrap();
            ckt.add_resistor("Rl", vdd, out, 20e3).unwrap();
            ckt.add_mosfet(
                "M1",
                out,
                gate,
                Circuit::GROUND,
                Circuit::GROUND,
                MosModel::default(),
                MosGeometry::new(2e-6, 0.25e-6).unwrap(),
            )
            .unwrap();
            ckt
        };
        let low_in = build(0.0);
        let op = Simulator::new(&low_in).dc_operating_point().unwrap();
        assert!(op.voltage("out").unwrap() > 2.3);

        let high_in = build(2.4);
        let op = Simulator::new(&high_in).dc_operating_point().unwrap();
        assert!(op.voltage("out").unwrap() < 0.3);
    }

    #[test]
    fn vswitch_transient() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let ctl = ckt.node("ctl");
        let out = ckt.node("out");
        ckt.add_vsource("V1", vin, Circuit::GROUND, Waveform::Dc(1.0))
            .unwrap();
        ckt.add_vsource("Vc", ctl, Circuit::GROUND, step(0.0, 1.0, 5e-7, 1e-8))
            .unwrap();
        ckt.add_vswitch("S1", vin, out, ctl, Circuit::GROUND, 10.0, 1e9, 0.5)
            .unwrap();
        ckt.add_resistor("Rl", out, Circuit::GROUND, 1e4).unwrap();
        let opts = TranOptions::new(1e-6, 1e-8).unwrap();
        let result = Simulator::new(&ckt).transient(&opts).unwrap();
        assert!(result.voltage_at("out", 4e-7).unwrap() < 0.01);
        assert!(result.voltage_at("out", 9e-7).unwrap() > 0.95);
    }

    #[test]
    fn temperature_changes_mosfet_current() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        ckt.add_vsource("Vdd", vdd, Circuit::GROUND, Waveform::Dc(2.4))
            .unwrap();
        ckt.add_resistor("Rl", vdd, out, 10e3).unwrap();
        ckt.add_mosfet(
            "M1",
            out,
            vdd, // gate tied high
            Circuit::GROUND,
            Circuit::GROUND,
            MosModel::default(),
            MosGeometry::new(1e-6, 0.25e-6).unwrap(),
        )
        .unwrap();
        let v_cold = Simulator::new(&ckt)
            .with_temperature(-33.0)
            .dc_operating_point()
            .unwrap()
            .voltage("out")
            .unwrap();
        let v_hot = Simulator::new(&ckt)
            .with_temperature(87.0)
            .dc_operating_point()
            .unwrap()
            .voltage("out")
            .unwrap();
        // Hot device conducts less (mobility), so out sits higher.
        assert!(v_hot > v_cold, "hot {v_hot} vs cold {v_cold}");
    }

    #[test]
    fn dc_sweep_nmos_output_characteristic() {
        // Ids versus Vds at fixed Vgs: monotone rising, flattening in
        // saturation.
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let g = ckt.node("g");
        ckt.add_vsource("Vd", d, Circuit::GROUND, Waveform::Dc(0.0))
            .unwrap();
        ckt.add_vsource("Vg", g, Circuit::GROUND, Waveform::Dc(1.5))
            .unwrap();
        ckt.add_mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            MosModel::default(),
            MosGeometry::new(1e-6, 0.25e-6).unwrap(),
        )
        .unwrap();
        let vds: Vec<f64> = (0..=12).map(|i| i as f64 * 0.2).collect();
        let sweep = Simulator::new(&ckt).dc_sweep("Vd", &vds).unwrap();
        let ids: Vec<f64> = sweep.iter().map(|s| -s.current("Vd").unwrap()).collect();
        // Monotone non-decreasing drain current.
        assert!(
            ids.windows(2).all(|w| w[1] >= w[0] - 1e-12),
            "non-monotone: {ids:?}"
        );
        // Saturation: the last increment is much smaller than the first.
        let first_step = ids[1] - ids[0];
        let last_step = ids[12] - ids[11];
        assert!(
            last_step < 0.2 * first_step,
            "no saturation: first {first_step:e}, last {last_step:e}"
        );
    }

    #[test]
    fn dc_sweep_validates_inputs() {
        let ckt = divider();
        let sim = Simulator::new(&ckt);
        assert!(sim.dc_sweep("V1", &[]).is_err());
        assert!(sim.dc_sweep("R1", &[1.0]).is_err());
        assert!(sim.dc_sweep("Vx", &[1.0]).is_err());
        // A valid sweep returns one solution per value.
        let sweep = sim.dc_sweep("V1", &[0.0, 1.0, 2.0]).unwrap();
        assert_eq!(sweep.len(), 3);
        assert!((sweep[2].voltage("mid").unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bad_tran_options() {
        assert!(TranOptions::new(0.0, 1e-9).is_err());
        assert!(TranOptions::new(1e-6, -1.0).is_err());
        assert!(TranOptions::new(1e-9, 1e-6).is_err());
    }

    #[test]
    fn unknown_node_in_results() {
        let ckt = divider();
        let op = Simulator::new(&ckt).dc_operating_point().unwrap();
        assert!(matches!(
            op.voltage("nope"),
            Err(SpiceError::UnknownNode(_))
        ));
        let result = Simulator::new(&ckt)
            .transient(&TranOptions::new(1e-6, 1e-8).unwrap())
            .unwrap();
        assert!(result.voltage("nope").is_err());
        assert!(result.voltage_at("mid", 2e-6).is_err()); // out of range
        assert!(result.current("Vx").is_err());
    }

    #[test]
    fn conflicting_parallel_sources_fail_cleanly() {
        // Two ideal voltage sources fighting over the same node: the MNA
        // matrix is singular. The error must be typed, never a panic.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, Waveform::Dc(1.0))
            .unwrap();
        ckt.add_vsource("V2", a, Circuit::GROUND, Waveform::Dc(2.0))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let err = Simulator::new(&ckt).dc_operating_point().unwrap_err();
        assert!(
            matches!(
                err,
                SpiceError::Convergence { .. } | SpiceError::Numerical(_)
            ),
            "got {err}"
        );
        let err = Simulator::new(&ckt)
            .transient(&TranOptions::new(1e-8, 1e-9).unwrap().with_ic(Vec::new()))
            .unwrap_err();
        assert!(
            matches!(
                err,
                SpiceError::Convergence { .. } | SpiceError::Numerical(_)
            ),
            "got {err}"
        );
    }

    #[test]
    fn invalid_topology_surfaces() {
        let mut ckt = Circuit::new();
        ckt.node("only");
        let err = Simulator::new(&ckt).dc_operating_point().unwrap_err();
        assert!(matches!(err, SpiceError::BadTopology(_)));
    }

    #[test]
    fn tran_result_accessors() {
        let ckt = divider();
        let result = Simulator::new(&ckt)
            .transient(&TranOptions::new(1e-6, 1e-7).unwrap())
            .unwrap();
        assert_eq!(result.len(), 11);
        assert!(!result.is_empty());
        assert_eq!(result.times()[0], 0.0);
        let wave = result.voltage("mid").unwrap();
        assert_eq!(wave.len(), 11);
        assert!(wave.iter().all(|v| (v - 1.0).abs() < 1e-6));
        let i = result.current("V1").unwrap();
        assert_eq!(i.len(), 11);
        // Ground waveform is all zeros.
        assert!(result.voltage("0").unwrap().iter().all(|&v| v == 0.0));
        // Every accessor reads the same sample of the flat storage.
        let n = result.samples.stride;
        let t5 = result.times()[5];
        let sample = result.guess_at(t5, n).unwrap();
        assert_eq!(sample.len(), n);
        assert_eq!(sample[0], result.voltage("in").unwrap()[5]);
        assert_eq!(sample[n - 1], i[5]);
        assert_eq!(result.voltage_at("mid", t5).unwrap(), wave[5]);
        assert_eq!(result.final_voltage("mid").unwrap(), wave[10]);
        assert!(result.guess_at(t5, n + 1).is_none());
        assert!(result.guess_at(0.5 * (t5 + result.times()[6]), n).is_none());
    }

    #[test]
    fn samples_cross_block_boundaries() {
        // 3000 unknowns leave room for two samples per block.
        let stride = 3000;
        let sample = |k: usize| {
            (0..stride)
                .map(|i| (k * stride + i) as f64)
                .collect::<Vec<_>>()
        };
        let mut reserved = Samples::with_capacity(stride, 5);
        let mut grown = Samples::with_capacity(stride, 1);
        for k in 0..5 {
            reserved.push(&sample(k));
            grown.push(&sample(k));
        }
        assert_eq!(reserved.per_block, 2);
        assert_eq!(reserved.blocks.len(), 3);
        for k in 0..5 {
            assert_eq!(reserved.get(k), sample(k).as_slice());
            assert_eq!(grown.get(k), sample(k).as_slice());
        }
        assert_eq!(reserved, grown);
        grown.push(&sample(5));
        assert_ne!(reserved, grown);
    }

    /// The linear base of `system` as bits: `lin_jac`, `lin_rhs` and the
    /// nonzero pattern.
    fn base_bits(system: &MnaSystem<'_>) -> (Vec<u64>, Vec<u64>, Vec<usize>, Vec<usize>) {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        (
            bits(system.lin_jac.as_slice()),
            bits(&system.lin_rhs),
            system.lin_cols.clone(),
            system.lin_start.clone(),
        )
    }

    #[test]
    fn reused_linear_base_matches_a_fresh_build() {
        // Two capacitors, time-varying voltage and current sources: both
        // halves of the base move with the step configuration.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        let out = ckt.node("out");
        let sine = Waveform::Sine {
            offset: 0.5,
            amplitude: 1.0,
            frequency: 1e7,
            delay: 0.0,
        };
        ckt.add_vsource("V1", vin, Circuit::GROUND, sine).unwrap();
        ckt.add_resistor("R1", vin, mid, 1e3).unwrap();
        ckt.add_capacitor("C1", mid, Circuit::GROUND, 1e-12)
            .unwrap();
        ckt.add_capacitor("C2", mid, out, 3e-13).unwrap();
        ckt.add_resistor("R2", out, Circuit::GROUND, 5e3).unwrap();
        ckt.add_isource("I1", Circuit::GROUND, out, step(0.0, 1e-4, 1e-9, 1e-9))
            .unwrap();
        let sim = Simulator::new(&ckt);
        let mut system = sim.make_system(&ckt);
        let state = CapState {
            v_prev: 0.3,
            i_prev: 2e-6,
        };
        let mut cap_states = vec![state; system.plan.capacitors.len()];

        // A power-of-two step keeps every `t_target - t_prev` exact, so
        // equal steps give bitwise-equal companion conductances.
        let dt = 2.0_f64.powi(-30);
        let (be, trap, g0) = (Method::BackwardEuler, Method::Trapezoidal, sim.gmin);
        // (event, t_prev, t_target in steps, method, gmin, Jacobian rebuilt)
        let events = [
            ("BE start", 0.0, 1.0, be, g0, true),
            ("BE to TRAP", 1.0, 2.0, trap, g0, true),
            ("steady TRAP step", 2.0, 3.0, trap, g0, false),
            ("TRAP to BE fallback", 2.0, 3.0, be, g0, true),
            ("back to TRAP", 3.0, 4.0, trap, g0, true),
            ("final partial step", 4.0, 4.75, trap, g0, true),
            ("BE on the partial step", 4.0, 4.75, be, g0, true),
            ("gmin ladder rung", 4.0, 4.75, be, 1e-2, true),
            ("next gmin rung", 4.0, 4.75, be, 1e-4, true),
            ("gmin restored", 4.0, 4.75, be, g0, true),
            ("repeat at restored gmin", 4.0, 4.75, be, g0, false),
        ];
        for (event, t_prev, t_target, method, gmin, rebuilt) in events {
            for state in cap_states.iter_mut() {
                state.v_prev += 0.01;
                state.i_prev *= -0.5;
            }
            sim.install_companions(&mut system, &cap_states, t_prev * dt, t_target * dt, method)
                .unwrap();
            system.set_gmin(gmin);
            assert_eq!(system.jac_dirty, rebuilt, "{event}: Jacobian rebuild");
            system.ensure_base();

            let mut fresh = sim.make_system(&ckt);
            fresh.time = system.time;
            fresh.companions = system.companions.clone();
            fresh.set_gmin(gmin);
            fresh.ensure_base();
            assert_eq!(base_bits(&system), base_bits(&fresh), "{event}: base");
            let n = system.n_unknowns;
            for i in 0..n {
                let pattern = &system.lin_cols[system.lin_start[i]..system.lin_start[i + 1]];
                for j in 0..n {
                    assert!(
                        system.lin_jac[(i, j)] == 0.0 || pattern.contains(&j),
                        "{event}: nonzero ({i}, {j}) outside the stamp pattern"
                    );
                }
            }

            // With no nonlinear device the residual is the base alone: the
            // zero-skipping product must match the dense one, summation
            // order included (mixed magnitudes expose any reordering).
            for k in 0..16 {
                let x: Vec<f64> = (0..n)
                    .map(|i| match (i + k) % 5 {
                        0 => -0.0,
                        m => ((k * n + i) as f64).sin() * 10f64.powi(3 * m as i32 - 6),
                    })
                    .collect();
                let mut fast = vec![f64::NAN; n];
                system.assemble_residual(&x, &mut fast, true);
                let mut dense = vec![0.0; n];
                system.lin_jac.mul_vec_into(&x, &mut dense);
                for ((f, d), r) in fast.iter().zip(&dense).zip(&system.lin_rhs) {
                    assert_eq!(f.to_bits(), (d + r).to_bits(), "{event}: residual");
                }
            }
        }
    }

    /// A circuit with every device kind the MNA system stamps: MOSFET
    /// (body on a biased node, so every `gmbs` entry is live), diode,
    /// voltage-controlled switch, resistors, a capacitor, voltage and
    /// current sources.
    fn every_device_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        let s = ckt.node("s");
        let vb = ckt.node("vb");
        let ctl = ckt.node("ctl");
        let gnd = Circuit::GROUND;
        ckt.add_vsource("V1", a, gnd, Waveform::Dc(2.0)).unwrap();
        ckt.add_vsource("V2", vb, gnd, Waveform::Dc(-0.4)).unwrap();
        ckt.add_isource("I1", gnd, c, step(0.0, 1e-5, 1e-9, 1e-9))
            .unwrap();
        ckt.add_resistor("R1", a, b, 1e4).unwrap();
        ckt.add_resistor("R2", c, gnd, 2e4).unwrap();
        ckt.add_resistor("R3", ctl, gnd, 1e5).unwrap();
        ckt.add_capacitor("C1", b, c, 1e-13).unwrap();
        ckt.add_mosfet(
            "M1",
            b,
            c,
            s,
            vb,
            MosModel::default(),
            MosGeometry::new(2e-6, 0.25e-6).unwrap(),
        )
        .unwrap();
        ckt.add_diode("D1", s, gnd, crate::diode::DiodeModel::default())
            .unwrap();
        ckt.add_vswitch("S1", c, s, ctl, gnd, 1e3, 1e9, 1.0)
            .unwrap();
        ckt
    }

    /// The nonlinear stamping loop the [`StampPlan`] replaced: a walk over
    /// the circuit's devices that matches on every one and evaluates the
    /// unprepared models, with bypass anchors indexed by device. Kept as
    /// the reference the plan must match bit for bit.
    struct EnumWalk {
        temp: f64,
        bypass: bool,
        mos_cache: Vec<Option<MosBypass>>,
        diode_cache: Vec<Option<DiodeBypass>>,
        hits: usize,
        misses: usize,
    }

    impl EnumWalk {
        fn new(circuit: &Circuit, temp: f64, bypass: bool) -> Self {
            EnumWalk {
                temp,
                bypass,
                mos_cache: vec![None; circuit.device_count()],
                diode_cache: vec![None; circuit.device_count()],
                hits: 0,
                misses: 0,
            }
        }

        fn stamp(
            &mut self,
            circuit: &Circuit,
            x: &[f64],
            mut res: Option<&mut [f64]>,
            mut jac: Option<&mut DMatrix>,
            force_eval: bool,
        ) {
            let force_eval = force_eval || !self.bypass;
            let temp = self.temp;
            let volt = |node: NodeId| if node.is_ground() { 0.0 } else { x[node.0 - 1] };
            let add_res = |res: &mut Option<&mut [f64]>, node: NodeId, current: f64| {
                if let Some(res) = res.as_deref_mut() {
                    if !node.is_ground() {
                        res[node.0 - 1] += current;
                    }
                }
            };
            let add_jac = |jac: &mut Option<&mut DMatrix>, row: NodeId, col: NodeId, g: f64| {
                if let Some(jac) = jac.as_deref_mut() {
                    if !row.is_ground() && !col.is_ground() {
                        jac[(row.0 - 1, col.0 - 1)] += g;
                    }
                }
            };
            for (idx, device) in circuit.devices().iter().enumerate() {
                match device {
                    Device::Mosfet {
                        d,
                        g,
                        s,
                        b,
                        model,
                        geometry,
                    } => {
                        let vgs = volt(*g) - volt(*s);
                        let vds = volt(*d) - volt(*s);
                        let vbs = volt(*b) - volt(*s);
                        let hit = if force_eval {
                            None
                        } else {
                            self.mos_cache[idx].filter(|c| {
                                (vgs - c.vgs).abs() <= BYPASS_TOL
                                    && (vds - c.vds).abs() <= BYPASS_TOL
                                    && (vbs - c.vbs).abs() <= BYPASS_TOL
                            })
                        };
                        let (e, ids) = match hit {
                            Some(c) => {
                                self.hits += 1;
                                let ids = c.eval.ids
                                    + c.eval.gm * (vgs - c.vgs)
                                    + c.eval.gds * (vds - c.vds)
                                    + c.eval.gmbs * (vbs - c.vbs);
                                (c.eval, ids)
                            }
                            None => {
                                self.misses += 1;
                                let e = mos::evaluate(model, *geometry, vgs, vds, vbs, temp);
                                self.mos_cache[idx] = Some(MosBypass {
                                    vgs,
                                    vds,
                                    vbs,
                                    eval: e,
                                });
                                (e, e.ids)
                            }
                        };
                        add_res(&mut res, *d, ids);
                        add_res(&mut res, *s, -ids);
                        let gsum = e.gm + e.gds + e.gmbs;
                        add_jac(&mut jac, *d, *d, e.gds);
                        add_jac(&mut jac, *d, *g, e.gm);
                        add_jac(&mut jac, *d, *b, e.gmbs);
                        add_jac(&mut jac, *d, *s, -gsum);
                        add_jac(&mut jac, *s, *d, -e.gds);
                        add_jac(&mut jac, *s, *g, -e.gm);
                        add_jac(&mut jac, *s, *b, -e.gmbs);
                        add_jac(&mut jac, *s, *s, gsum);
                    }
                    Device::Diode { p, n, model } => {
                        let vd = volt(*p) - volt(*n);
                        let hit = if force_eval {
                            None
                        } else {
                            self.diode_cache[idx].filter(|c| (vd - c.vd).abs() <= BYPASS_TOL)
                        };
                        let (i, g) = match hit {
                            Some(c) => {
                                self.hits += 1;
                                (c.i + c.g * (vd - c.vd), c.g)
                            }
                            None => {
                                self.misses += 1;
                                let (i, g) = model.evaluate(vd, temp);
                                self.diode_cache[idx] = Some(DiodeBypass { vd, i, g });
                                (i, g)
                            }
                        };
                        add_res(&mut res, *p, i);
                        add_res(&mut res, *n, -i);
                        add_jac(&mut jac, *p, *p, g);
                        add_jac(&mut jac, *p, *n, -g);
                        add_jac(&mut jac, *n, *p, -g);
                        add_jac(&mut jac, *n, *n, g);
                    }
                    Device::VSwitch {
                        p,
                        n,
                        cp,
                        cn,
                        ron,
                        roff,
                        threshold,
                        transition,
                    } => {
                        let vc = volt(*cp) - volt(*cn);
                        let (g, dg_dvc) = crate::device::switch_conductance(
                            vc,
                            *ron,
                            *roff,
                            *threshold,
                            *transition,
                        );
                        let v = volt(*p) - volt(*n);
                        let i = g * v;
                        add_res(&mut res, *p, i);
                        add_res(&mut res, *n, -i);
                        add_jac(&mut jac, *p, *p, g);
                        add_jac(&mut jac, *p, *n, -g);
                        add_jac(&mut jac, *n, *p, -g);
                        add_jac(&mut jac, *n, *n, g);
                        let gc = dg_dvc * v;
                        add_jac(&mut jac, *p, *cp, gc);
                        add_jac(&mut jac, *p, *cn, -gc);
                        add_jac(&mut jac, *n, *cp, -gc);
                        add_jac(&mut jac, *n, *cn, gc);
                    }
                    _ => {}
                }
            }
        }

        /// The anchors of the nonlinear devices in device order, as bits
        /// (`None` for a switch or a device not yet evaluated).
        fn anchors(&self, circuit: &Circuit) -> Vec<Option<Vec<u64>>> {
            circuit
                .devices()
                .iter()
                .enumerate()
                .filter(|(_, d)| d.is_nonlinear())
                .map(|(idx, _)| {
                    self.mos_cache[idx]
                        .map(mos_anchor_bits)
                        .or(self.diode_cache[idx].map(diode_anchor_bits))
                })
                .collect()
        }
    }

    fn mos_anchor_bits(c: MosBypass) -> Vec<u64> {
        [
            c.vgs,
            c.vds,
            c.vbs,
            c.eval.ids,
            c.eval.gm,
            c.eval.gds,
            c.eval.gmbs,
        ]
        .map(f64::to_bits)
        .to_vec()
    }

    fn diode_anchor_bits(c: DiodeBypass) -> Vec<u64> {
        [c.vd, c.i, c.g].map(f64::to_bits).to_vec()
    }

    /// The anchors of a plan's nonlinear devices, as [`EnumWalk::anchors`].
    fn plan_anchors(system: &MnaSystem<'_>) -> Vec<Option<Vec<u64>>> {
        system
            .plan
            .nonlinear
            .iter()
            .map(|stamp| match stamp {
                NonlinearStamp::Mos(m) => m.anchor.map(mos_anchor_bits),
                NonlinearStamp::Diode(d) => d.anchor.map(diode_anchor_bits),
                NonlinearStamp::Switch(_) => None,
            })
            .collect()
    }

    #[test]
    fn stamp_plan_matches_the_enum_walk_bit_for_bit() {
        let ckt = every_device_circuit();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let state = CapState {
            v_prev: 0.2,
            i_prev: 1e-6,
        };
        // Sampling ranges per unknown, as in the finite-difference test
        // below, with the switch control spanning both sides of its
        // transition.
        let ranges = [
            (1.5, 2.5),
            (0.0, 2.5),
            (0.0, 2.5),
            (0.0, 0.8),
            (-1.0, 0.4),
            (0.8, 1.2),
            (-1e-3, 1e-3),
            (-1e-3, 1e-3),
        ];
        let mut rng = dso_num::testing::TestRng::new(23);
        let (mut total_hits, mut total_misses) = (0, 0);
        for (case, temp) in [-40.0, 27.0, 87.0, 125.0].into_iter().enumerate() {
            for bypass in [true, false] {
                let sim = Simulator::new(&ckt).with_temperature(temp);
                let mut system = sim.make_system(&ckt);
                system.bypass = bypass;
                sim.install_companions(&mut system, &[state], 0.0, 1e-10, Method::Trapezoidal)
                    .unwrap();
                let mut walk = EnumWalk::new(&ckt, temp, bypass);
                let n = system.unknowns();
                let mut x: Vec<f64> = ranges.iter().map(|&(lo, hi)| rng.range(lo, hi)).collect();
                for step in 0..200 {
                    // Mostly moves below the bypass window (hits), some
                    // far beyond it (misses), some a mix per device.
                    let scale = match rng.index(4) {
                        0 => 0.3 * BYPASS_TOL,
                        1 => 3.0 * BYPASS_TOL,
                        2 => 0.0,
                        _ => 0.05,
                    };
                    for (v, &(lo, hi)) in x.iter_mut().zip(&ranges) {
                        if rng.next_bool() {
                            *v = (*v + rng.range(-scale, scale)).clamp(lo, hi);
                        }
                    }
                    let what = format!("case {case}, bypass {bypass}, step {step}");
                    match rng.index(3) {
                        0 | 1 => {
                            let exact = rng.index(4) == 0;
                            let mut plan = vec![f64::NAN; n];
                            system.assemble_residual(&x, &mut plan, exact);
                            let mut reference = vec![f64::NAN; n];
                            system.linear_residual(&x, &mut reference);
                            walk.stamp(&ckt, &x, Some(&mut reference), None, exact);
                            assert_eq!(bits(&plan), bits(&reference), "{what}: residual");
                        }
                        _ => {
                            let mut plan = DMatrix::zeros(n, n);
                            system.jacobian(&x, &mut plan).unwrap();
                            let mut reference = DMatrix::zeros(n, n);
                            reference.copy_from(&system.lin_jac);
                            walk.stamp(&ckt, &x, None, Some(&mut reference), false);
                            assert_eq!(
                                bits(plan.as_slice()),
                                bits(reference.as_slice()),
                                "{what}: Jacobian"
                            );
                        }
                    }
                    assert_eq!(plan_anchors(&system), walk.anchors(&ckt), "{what}: anchors");
                    assert_eq!(
                        (system.bypass_hits, system.bypass_misses),
                        (walk.hits, walk.misses),
                        "{what}: bypass counts"
                    );
                }
                if !bypass {
                    assert_eq!(system.bypass_hits, 0);
                }
                total_hits += system.bypass_hits;
                total_misses += system.bypass_misses;
            }
        }
        // The sequences mixed hits and misses.
        assert!(
            total_hits > 500 && total_misses > 500,
            "{total_hits} hits, {total_misses} misses"
        );
    }

    /// A random netlist over 3–8 nodes and ground, with every device
    /// kind and a quarter of all terminals grounded. Devices the builder
    /// refuses are left out.
    fn random_circuit(rng: &mut dso_num::testing::TestRng) -> Circuit {
        let mut ckt = Circuit::new();
        let nodes: Vec<NodeId> = (0..rng.index_range(3, 9))
            .map(|i| ckt.node(&format!("n{i}")))
            .collect();
        let pick = |rng: &mut dso_num::testing::TestRng| {
            if rng.index(4) == 0 {
                Circuit::GROUND
            } else {
                *rng.choose(&nodes)
            }
        };
        for d in 0..rng.index_range(4, 16) {
            let name = format!("X{d}");
            let (a, b) = (pick(rng), pick(rng));
            let _ = match rng.index(7) {
                0 => ckt.add_resistor(&name, a, b, rng.log_range(1e2, 1e6)),
                1 => ckt.add_capacitor(&name, a, b, rng.log_range(1e-15, 1e-12)),
                2 => ckt.add_vsource(&name, a, b, Waveform::Dc(rng.range(-1.0, 2.5))),
                3 => ckt.add_isource(&name, a, b, Waveform::Dc(rng.range(-1e-5, 1e-5))),
                4 => {
                    let model = if rng.next_bool() {
                        MosModel::default()
                    } else {
                        MosModel::default_pmos()
                    };
                    let (g, body) = (pick(rng), pick(rng));
                    let geometry = MosGeometry::new(1e-6, 0.25e-6).unwrap();
                    ckt.add_mosfet(&name, a, g, b, body, model, geometry)
                }
                5 => ckt.add_diode(&name, a, b, crate::diode::DiodeModel::default()),
                _ => {
                    let (cp, cn) = (pick(rng), pick(rng));
                    ckt.add_vswitch(&name, a, b, cp, cn, 1e3, 1e9, 1.0)
                }
            };
        }
        ckt
    }

    #[test]
    fn declared_pattern_covers_every_jacobian_entry() {
        // The LU factorization reads the declared pattern only, so a stamp
        // outside it would be dropped silently. Every phase a solve can
        // assemble in: DC, backward Euler and trapezoidal companions, and
        // each gmin-ladder rung.
        let mut rng = dso_num::testing::TestRng::new(31);
        let mut stamped = 0;
        for case in 0..150 {
            let ckt = random_circuit(&mut rng);
            let sim = Simulator::new(&ckt);
            let mut system = sim.make_system(&ckt);
            let n = system.unknowns();
            let pattern = system
                .jacobian_pattern()
                .expect("an MNA system declares one");
            let mut held = vec![false; n * n];
            for i in 0..n {
                for &j in &pattern.cols[pattern.starts[i]..pattern.starts[i + 1]] {
                    held[i * n + j] = true;
                }
            }
            let states = vec![
                CapState {
                    v_prev: 0.3,
                    i_prev: 1e-7,
                };
                system.plan.capacitors.len()
            ];
            let phases = [
                (None, 1e-12),
                (Some(Method::BackwardEuler), 1e-12),
                (Some(Method::Trapezoidal), 1e-12),
                (Some(Method::BackwardEuler), 1e-2),
                (Some(Method::BackwardEuler), 1e-6),
                (Some(Method::BackwardEuler), 1e-10),
            ];
            for (method, gmin) in phases {
                if let Some(method) = method {
                    sim.install_companions(&mut system, &states, 0.0, 1e-10, method)
                        .unwrap();
                }
                system.set_gmin(gmin);
                for _ in 0..4 {
                    let x: Vec<f64> = (0..n).map(|_| rng.range(-1.0, 2.5)).collect();
                    let mut jac = DMatrix::zeros(n, n);
                    system.jacobian(&x, &mut jac).unwrap();
                    for (at, v) in jac.as_slice().iter().enumerate() {
                        if *v != 0.0 {
                            stamped += 1;
                            assert!(
                                held[at],
                                "case {case}, {method:?}, gmin {gmin}: J[{}][{}] = {v:e} \
                                 lies outside the declared pattern",
                                at / n,
                                at % n
                            );
                        }
                    }
                }
            }
        }
        assert!(stamped > 10_000, "only {stamped} nonzero entries checked");
    }

    #[test]
    fn jacobian_matches_finite_differences_of_the_exact_residual() {
        let ckt = every_device_circuit();
        let sim = Simulator::new(&ckt);
        let state = CapState {
            v_prev: 0.2,
            i_prev: 1e-6,
        };
        let cap_states = vec![state; 1];
        let nonlinear = ckt
            .devices()
            .iter()
            .filter(|d| matches!(d, Device::Mosfet { .. } | Device::Diode { .. }))
            .count();
        // Per-unknown sampling ranges: a, b, c, s (diode anode, kept below
        // 0.6 V so its exponential stays moderate), vb (reverse body
        // bias), ctl (inside the switch's 0.1 V transition around 1 V),
        // then the two branch currents.
        let ranges = [
            (1.5, 2.5),
            (0.0, 2.5),
            (0.0, 2.5),
            (0.0, 0.6),
            (-1.0, -0.2),
            (0.95, 1.05),
            (-1e-3, 1e-3),
            (-1e-3, 1e-3),
        ];
        let mut rng = dso_num::testing::TestRng::new(17);
        // Central differences with h = 1 µ(V|A) carry a truncation error
        // of h²/6·|F'''| and a rounding error of about ε·|F_i|/h; at these
        // states the worst entry lands at 1.1e-9 of its row's largest
        // Jacobian entry. A tolerance of 1e-6 of that entry leaves about
        // three decades of margin, while dropping the smallest device
        // stamp, the body transconductance `gmbs`, already errs by 1e-4.
        let h = 1e-6;
        let tol = 1e-6;
        for state in 0..6 {
            let mut system = sim.make_system(&ckt);
            sim.install_companions(&mut system, &cap_states, 0.0, 1e-10, Method::BackwardEuler)
                .unwrap();
            let n = system.unknowns();
            assert_eq!(n, ranges.len());
            let x: Vec<f64> = ranges.iter().map(|&(lo, hi)| rng.range(lo, hi)).collect();

            // A fresh system has no bypass anchors, so every device misses
            // and the (bypass-enabled) residual is the exact one, bits and
            // all.
            let mut approx = vec![f64::NAN; n];
            system.residual(&x, &mut approx).unwrap();
            assert_eq!(
                system.bypass_hits, 0,
                "state {state}: a device hit the bypass"
            );
            assert_eq!(system.bypass_misses, nonlinear, "state {state}");
            let mut exact = vec![f64::NAN; n];
            system.residual_exact(&x, &mut exact).unwrap();
            for (i, (r, e)) in approx.iter().zip(&exact).enumerate() {
                assert_eq!(r.to_bits(), e.to_bits(), "state {state}: residual row {i}");
            }

            let mut jac = DMatrix::zeros(n, n);
            system.jacobian(&x, &mut jac).unwrap();
            let mut fd = DMatrix::zeros(n, n);
            let (mut plus, mut minus) = (vec![0.0; n], vec![0.0; n]);
            for j in 0..n {
                let mut xp = x.clone();
                xp[j] += h;
                system.residual_exact(&xp, &mut plus).unwrap();
                let mut xm = x.clone();
                xm[j] -= h;
                system.residual_exact(&xm, &mut minus).unwrap();
                for i in 0..n {
                    fd[(i, j)] = (plus[i] - minus[i]) / (xp[j] - xm[j]);
                }
            }
            for i in 0..n {
                let scale = jac.row(i).iter().fold(0.0_f64, |m, v| m.max(v.abs()));
                for j in 0..n {
                    let (analytic, numeric) = (jac[(i, j)], fd[(i, j)]);
                    assert!(
                        (analytic - numeric).abs() <= tol * scale,
                        "state {state}: J[{i}][{j}] = {analytic:e}, finite difference \
                         {numeric:e} (row scale {scale:e}, x = {x:?})"
                    );
                }
            }
        }
    }
}
