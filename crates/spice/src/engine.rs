//! Modified nodal analysis: DC operating point and transient simulation.
//!
//! Results carry the full unknown vector `[v(node 1) … v(node N),
//! i(V-source 1) …]`: every non-ground node voltage followed by one branch
//! current per voltage source. The Newton system is smaller. A voltage
//! source from a node to ground that no other voltage source touches
//! *pins* that node: the node's voltage is the source's value, so neither
//! it nor the source's current is a Newton unknown. The Newton unknowns
//! are the free node voltages and the branch currents of the sources that
//! pin nothing. Each iteration stamps all devices into the residual
//! (Kirchhoff current sums of the free nodes plus those sources' branch
//! equations) and the Jacobian (conductances); a pinned source's current
//! is recovered from its node's current sum at the accepted point.

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

/// The committed state of a transient: the Newton unknowns, the full
/// unknown vector they expand to (see [`MnaSystem::expand`]), and the
/// per-capacitor integration states, which read the full vector.
struct Committed {
    y: Vec<f64>,
    x: Vec<f64>,
    caps: Vec<CapState>,
}

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

/// The time of step `step` of a fixed-step run of `steps` steps: `step·dt`,
/// except that the last step lands on `t_stop`.
fn grid_time(options: &TranOptions, step: usize, steps: usize) -> f64 {
    if step == steps {
        options.t_stop
    } else {
        step as f64 * options.dt
    }
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

    /// [`TranResult::guess_at`], read at index `idx` when the sample there
    /// sits at `t` bitwise (as a run on the same fixed grid has it at the
    /// same step), without a search.
    fn sample_at(&self, idx: usize, t: f64, n: usize) -> Option<&[f64]> {
        match self.times.get(idx) {
            Some(tv) if tv.to_bits() == t.to_bits() => {
                (self.samples.stride == n).then(|| self.samples.get(idx))
            }
            _ => self.guess_at(t, n),
        }
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

/// The revision of the solver's numerics: what decides the bits of the
/// solutions a [`Simulator`] returns. Any change that moves solution bits
/// (another elimination order, another assembly of the Newton system,
/// another iteration policy) bumps it, so that caches keyed by it stop
/// serving another solver's bits: the evaluation service folds it into
/// the context key of every store.
///
/// 1: grounded voltage sources pinned out of the Newton system (stores
/// written before carry no revision in their context).
pub const NUMERICS: u64 = 1;

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
    /// solver's last [`NewtonSolver::probe_pair`] left behind, which
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
        let mut y = vec![0.0; system.unknowns()];
        let mut stats = RecoveryStats::default();
        // Direct attempt, then gmin homotopy.
        match self.run_solve(&mut solver, &mut system, &mut y, &mut stats, false, false) {
            Ok(_) => {}
            Err(first_err) => {
                if !self.recovery.gmin_stepping {
                    return Err(SpiceError::Convergence {
                        time: None,
                        attempts: stats.solve_attempts,
                        source: first_err,
                    });
                }
                y.iter_mut().for_each(|v| *v = 0.0);
                let gmin_ladder = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, self.gmin];
                for &g in &gmin_ladder {
                    dso_obs::counter!("spice.dc_gmin_steps").incr();
                    system.set_gmin(g.max(self.gmin));
                    self.run_solve(&mut solver, &mut system, &mut y, &mut stats, false, false)
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
            x: system.full(&y),
        })
    }

    /// The Jacobian of the circuit's Newton system at the unknown vector
    /// `x` (node voltages, then source branch currents, as in
    /// [`Solution::as_slice`]): the DC system's, with no capacitor
    /// companions and every device evaluated. Its unknowns are the
    /// Newton solve's: the voltages of the nodes no grounded source pins,
    /// then the branch currents of the sources that pin nothing (see the
    /// module docs); a pinned node sits at its source's `t = 0` value,
    /// whatever `x` holds there. It comes with the structural pattern that
    /// every Newton solve of this circuit declares to its LU
    /// factorization, so a caller can inspect what the solver factors: the
    /// Jacobian's dimension and sparsity, and the fill of the solver's
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
        let full = system.plan.full_len;
        if x.len() != full {
            return Err(SpiceError::BadAnalysis(format!(
                "Jacobian point has {} unknowns, the circuit {full}",
                x.len()
            )));
        }
        let n = system.unknowns();
        let mut matrix = DMatrix::zeros(n, n);
        system.assemble_jacobian(&system.plan.restrict(x), &mut matrix);
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
            // Every point's system has the same unknowns: only a value
            // changed.
            let mut y = guess.take().unwrap_or_else(|| vec![0.0; system.unknowns()]);
            self.run_solve(&mut solver, &mut system, &mut y, &mut stats, false, false)
                .map_err(|e| SpiceError::Convergence {
                    time: None,
                    attempts: stats.solve_attempts,
                    source: e,
                })?;
            out.push(Solution {
                node_names: node_names.clone(),
                vsource_names: vsource_names.clone(),
                x: system.full(&y),
            });
            guess = Some(y);
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
        let (mut system, mut state) = self.transient_init(options)?;
        let n = system.unknowns();
        let full = state.x.len();
        let mut solver = NewtonSolver::new(default_newton_options());

        let steps = (options.t_stop / options.dt).round() as usize;
        let mut times = Vec::with_capacity(steps + 1);
        let mut samples = Samples::with_capacity(full, steps + 1);
        times.push(0.0);
        samples.push(&state.x);
        let mut stats = RecoveryStats::default();
        // One trial vector reused by every step attempt of the run.
        let mut trial = vec![0.0; n];
        let vsource_names = self.vsource_names();

        // Predictor buffer for warm-started steps (reused across the run).
        let mut warm_buf = vec![0.0; n];
        for step in 1..=steps {
            let t_target = grid_time(options, step, steps);
            let t_prev = times[times.len() - 1];
            // Warm-start predictor: add the seed trajectory's step
            // increment to our own committed state. On smooth stretches
            // the increment is ~0 and the guess degenerates to plain
            // continuation; across switching edges it injects the edge
            // jump the seed has already resolved. Both samples must sit on
            // the same (bitwise) time grid or the seed is ignored.
            let mut have_warm = false;
            if let Some(s) = seed {
                if let (Some(cur), Some(prev)) = (
                    s.sample_at(step, t_target, full),
                    s.sample_at(step - 1, t_prev, full),
                ) {
                    for ((b, yi), &at) in warm_buf.iter_mut().zip(&state.y).zip(&system.plan.free) {
                        *b = yi + (cur[at] - prev[at]);
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
                &mut state,
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
            samples.push(&state.x);
        }
        debug_assert_eq!(self.circuit.node_count() - 1 + vsource_names.len(), full);
        system.fold_bypass_counters(&mut stats);
        Ok(TranResult {
            node_names: self.circuit.node_names().to_vec(),
            vsource_names,
            times,
            samples,
            recovery: stats,
        })
    }

    /// Builds the pieces every transient starts from: the MNA system and
    /// the initial committed state (DC solve or `UIC` initial conditions,
    /// and the capacitor states they give).
    fn transient_init(
        &self,
        options: &TranOptions,
    ) -> Result<(MnaSystem<'_>, Committed), SpiceError> {
        self.circuit.validate()?;
        let system = self.make_system(self.circuit);

        // --- Initial state ---------------------------------------------
        let x = match &options.start {
            StartMode::DcOperatingPoint => self.dc_operating_point()?.x,
            StartMode::UseIc(ics) => {
                // Every unknown starts at zero, pinned nodes too: the
                // first step moves them to their sources' values.
                let mut x = vec![0.0; system.plan.full_len];
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
                x
            }
        };

        // Capacitor states from the initial node voltages.
        let caps = system
            .plan
            .capacitors
            .iter()
            .map(|cap| CapState {
                v_prev: volt(&x, cap.p) - volt(&x, cap.n),
                i_prev: 0.0,
            })
            .collect();
        let y = system.plan.restrict(&x);
        Ok((system, Committed { y, x, caps }))
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
        // conductances only when the method, dt or gmin does, and each
        // configuration's are stamped once (see `MnaSystem::ensure_base`).
        system.rhs_dirty = true;
        system.key.step = Some((method, dt.to_bits()));
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
            *installed = comp;
        }
        Ok(())
    }

    /// Prepares the companion models for one step and solves it from
    /// `guess` (Newton unknowns), leaving the trial solution in `trial`
    /// (reused across steps so the steady-state path stays
    /// allocation-free). Does **not** commit: the committed state is
    /// untouched, so a failed attempt can be retried with a different
    /// method, step, or gmin.
    ///
    /// `alt`, when present, is a competing initial guess (a warm-start
    /// seed): after the step's companions are installed, both candidates'
    /// residual norms are probed in one pass
    /// ([`NewtonSolver::probe_pair`]) and the iteration starts from the
    /// better one. Continuation from the previous state usually wins on
    /// smooth stretches; the neighbor's sample wins across switching edges,
    /// where the continuation guess is far from the post-edge solution.
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
            // A non-finite probe of the alternative disqualifies it; the
            // solve itself decides whether the step fails.
            let (g, a) = solver
                .probe_pair(system, guess, alt)
                .unwrap_or((f64::INFINITY, f64::INFINITY));
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

    /// Commits an accepted trial solution: expands it to the full unknown
    /// vector (pinned voltages and their sources' currents included),
    /// updates the capacitor states from the companions currently
    /// installed in `system`, and keeps the trial as the next guess.
    fn commit_step(
        &self,
        system: &mut MnaSystem<'_>,
        state: &mut Committed,
        trial: &[f64],
        method: Method,
    ) {
        system.expand(trial, &mut state.x);
        for ((cap, cap_state), comp) in system
            .plan
            .capacitors
            .iter()
            .zip(state.caps.iter_mut())
            .zip(&system.companions)
        {
            let v_new = volt(&state.x, cap.p) - volt(&state.x, cap.n);
            cap_state.i_prev = match comp {
                Some(comp) => method.current(*comp, v_new),
                None => 0.0,
            };
            cap_state.v_prev = v_new;
        }
        state.y.copy_from_slice(trial);
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
        state: &Committed,
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
        let mut guess = state.y.clone();
        for &g in &ladder {
            system.set_gmin(g.max(base));
            match self.try_step(
                system,
                solver,
                &guess,
                None,
                &state.caps,
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

    /// Advances the committed state from `t_prev` to `t_target`, climbing
    /// the recovery ladder on convergence failure:
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
    /// every retry rung restarts from the committed state, so a bad seed
    /// degrades to exactly the cold-start recovery behaviour.
    /// `reuse_first` likewise applies only to the first attempt: it lets
    /// that solve start from the solver's previous LU factorization; every
    /// recovery rung refactors from scratch.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &self,
        system: &mut MnaSystem<'_>,
        solver: &mut NewtonSolver,
        state: &mut Committed,
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
            &state.y,
            warm,
            &state.caps,
            trial,
            t_prev,
            t_target,
            method,
            stats,
            reuse_first,
        ) {
            Ok(()) => {
                self.commit_step(system, state, trial, method);
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
                    &state.y,
                    None,
                    &state.caps,
                    trial,
                    t_prev,
                    t_target,
                    Method::BackwardEuler,
                    stats,
                    false,
                )
                .is_ok()
            {
                self.commit_step(system, state, trial, Method::BackwardEuler);
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
                state,
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
                state,
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
                .gmin_step(system, solver, state, trial, t_prev, t_target, stats)
                .is_ok()
        {
            self.commit_step(system, state, trial, Method::BackwardEuler);
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

/// A node voltage's position in the full unknown vector; `None` for
/// ground.
fn var(node: NodeId) -> Option<usize> {
    (!node.is_ground()).then(|| node.0 - 1)
}

/// The voltage at position `v` of the full unknown vector `x` (ground is
/// 0 V).
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

/// Adds `value` to Jacobian entry `(row, col)` (nothing for ground or a
/// pinned node).
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

/// A device terminal of a [`StampPlan`]. `at` is its node's position in
/// the system's extended point and residual (see [`MnaSystem`]), where a
/// stamp reads the terminal's voltage and sums its current; on ground it
/// is the ground slot after every node, which reads 0 V and sinks what is
/// summed into it. `var` is the node's Newton unknown, `None` on ground
/// and on a pinned node.
#[derive(Debug, Clone, Copy)]
struct Terminal {
    at: usize,
    var: Option<usize>,
}

/// A MOSFET of a [`StampPlan`]: terminals resolved, constants folded at
/// the system's temperature, and its bypass anchor.
#[derive(Debug)]
struct MosStamp {
    d: Terminal,
    g: Terminal,
    s: Terminal,
    b: Terminal,
    model: mos::MosPrepared,
    anchor: Option<MosBypass>,
}

impl MosStamp {
    /// The device's linearization at the extended point `x` and its drain
    /// current there. Within [`BYPASS_TOL`] of the anchor (and unless
    /// `force_eval`), the anchor's evaluation is reused and its current
    /// corrected to first order along the anchored conductances, so a hit
    /// is exact to O(Δv²); otherwise the model is evaluated and becomes
    /// the new anchor. A forced evaluation at the anchor's own voltages
    /// (bitwise) returns the anchor's evaluation, which is what
    /// [`mos::evaluate_prepared`], a pure function, would return; it is
    /// still counted as a miss.
    #[inline]
    fn linearize(
        &mut self,
        x: &[f64],
        force_eval: bool,
        tally: &mut BypassTally,
    ) -> (mos::MosEval, f64) {
        let vs = x[self.s.at];
        let vgs = x[self.g.at] - vs;
        let vds = x[self.d.at] - vs;
        let vbs = x[self.b.at] - vs;
        if let Some(c) = self.anchor {
            if force_eval {
                let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
                if same(vgs, c.vgs) && same(vds, c.vds) && same(vbs, c.vbs) {
                    tally.misses += 1;
                    return (c.eval, c.eval.ids);
                }
            } else if (vgs - c.vgs).abs() <= BYPASS_TOL
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
    p: Terminal,
    n: Terminal,
    model: DiodePrepared,
    anchor: Option<DiodeBypass>,
}

impl DiodeStamp {
    /// The device's `(current, conductance)` at the extended point `x`,
    /// bypassed and anchored as in [`MosStamp::linearize`].
    #[inline]
    fn linearize(&mut self, x: &[f64], force_eval: bool, tally: &mut BypassTally) -> (f64, f64) {
        let vd = x[self.p.at] - x[self.n.at];
        if let Some(c) = self.anchor {
            if force_eval {
                if vd.to_bits() == c.vd.to_bits() {
                    tally.misses += 1;
                    return (c.i, c.g);
                }
            } else if (vd - c.vd).abs() <= BYPASS_TOL {
                tally.hits += 1;
                return (c.i + c.g * (vd - c.vd), c.g);
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
    p: Terminal,
    n: Terminal,
    cp: Terminal,
    cn: Terminal,
    model: SwitchPrepared,
}

impl SwitchStamp {
    /// `(g, ∂g/∂vc, v)`: conductance, its control derivative and the
    /// switched voltage at the extended point `x`.
    #[inline]
    fn linearize(&self, x: &[f64]) -> (f64, f64, f64) {
        let vc = x[self.cp.at] - x[self.cn.at];
        let (g, dg_dvc) = self.model.evaluate(vc);
        (g, dg_dvc, x[self.p.at] - x[self.n.at])
    }
}

/// One nonlinear device of a [`StampPlan`].
#[derive(Debug)]
enum NonlinearStamp {
    Mos(MosStamp),
    Diode(DiodeStamp),
    Switch(SwitchStamp),
}

impl NonlinearStamp {
    /// Adds the device's terminal currents at the extended point `x` into
    /// the extended residual `r`, linearized as in
    /// [`MosStamp::linearize`] (`exact` forces the evaluation).
    #[inline]
    fn stamp_current(&mut self, x: &[f64], r: &mut [f64], exact: bool, tally: &mut BypassTally) {
        match self {
            NonlinearStamp::Mos(m) => {
                let (_, ids) = m.linearize(x, exact, tally);
                r[m.d.at] += ids;
                r[m.s.at] += -ids;
            }
            NonlinearStamp::Diode(dio) => {
                let (i, _) = dio.linearize(x, exact, tally);
                r[dio.p.at] += i;
                r[dio.n.at] += -i;
            }
            NonlinearStamp::Switch(sw) => {
                let (g, _, v) = sw.linearize(x);
                let i = g * v;
                r[sw.p.at] += i;
                r[sw.n.at] += -i;
            }
        }
    }
}

/// One linear device of a [`StampPlan`], terminals as positions in the
/// extended point.
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
    /// A voltage source that pins no node, and its branch-current unknown
    /// `br`.
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

/// A capacitor of a [`StampPlan`], terminals as positions in the full
/// unknown vector (transient states are kept over that vector).
#[derive(Debug)]
struct CapStamp {
    p: Option<usize>,
    n: Option<usize>,
    capacitance: f64,
    initial_voltage: Option<f64>,
}

/// A voltage source that pins its node (see the module docs).
#[derive(Debug)]
struct PinStamp<'a> {
    /// Positions of the node's voltage and of the source's branch current
    /// in the full unknown vector.
    node: usize,
    branch: usize,
    /// `1.0` when the node is the source's positive terminal, `-1.0` when
    /// it is the negative one: the node sits at `sign·V(t)`, and the
    /// source carries `-sign` times the node's other currents.
    sign: f64,
    waveform: &'a Waveform,
}

/// A circuit's devices compiled once for one [`MnaSystem`]: terminals
/// resolved to positions, every temperature and geometry constant folded
/// ([`mos::prepare`], [`DiodeModel::prepare`](crate::diode::DiodeModel::prepare),
/// [`prepare_switch`], `1/R`), in device order within each list. Every
/// per-step and per-evaluation loop walks these lists instead of matching
/// on the circuit's devices. Device order is kept so that every residual
/// row and every Jacobian entry sums its terms in the order the device
/// list gives.
///
/// The plan also fixes the system's unknowns. A voltage source with one
/// terminal on ground pins the node at its other terminal unless another
/// voltage source touches that node too (a source in a chain, or one of
/// two in parallel); a floating source pins nothing. Sources that pin
/// nothing keep a branch-current unknown, as in textbook MNA.
#[derive(Debug)]
struct StampPlan<'a> {
    /// MOSFETs, diodes and switches.
    nonlinear: Vec<NonlinearStamp>,
    /// Resistors, capacitors, current sources and the voltage sources
    /// that pin nothing.
    linear: Vec<LinearStamp<'a>>,
    /// Capacitors; their companions and transient states are indexed
    /// alike.
    capacitors: Vec<CapStamp>,
    /// The voltage sources that pin a node; the `k`-th pinned node sits
    /// at position `unknowns + k` of the extended point.
    pins: Vec<PinStamp<'a>>,
    /// Newton unknowns: the free node voltages (the first `free_nodes`),
    /// then the branch currents of the sources that pin nothing.
    unknowns: usize,
    free_nodes: usize,
    /// Each Newton unknown's position in the full unknown vector.
    free: Vec<usize>,
    /// Length of the full unknown vector: every node voltage and every
    /// branch current.
    full_len: usize,
}

impl<'a> StampPlan<'a> {
    fn compile(circuit: &'a Circuit, temp: f64) -> Self {
        let n_nodes = circuit.node_count() - 1;
        // Voltage sources touching each node (index 0 is ground).
        let mut sources_at = vec![0_usize; circuit.node_count()];
        for device in circuit.devices() {
            if let Device::VSource { p, n, .. } = device {
                sources_at[p.0] += 1;
                sources_at[n.0] += 1;
            }
        }
        // The node a source pins, and the sign it pins it at.
        let pinned = |p: NodeId, n: NodeId| match (p.is_ground(), n.is_ground()) {
            (false, true) if sources_at[p.0] == 1 => Some((p, 1.0)),
            (true, false) if sources_at[n.0] == 1 => Some((n, -1.0)),
            _ => None,
        };
        let mut pins = Vec::new();
        let mut is_pinned = vec![false; circuit.node_count()];
        let mut sources = 0;
        for device in circuit.devices() {
            if let Device::VSource { p, n, waveform } = device {
                if let Some((node, sign)) = pinned(*p, *n) {
                    is_pinned[node.0] = true;
                    pins.push(PinStamp {
                        node: node.0 - 1,
                        branch: n_nodes + sources,
                        sign,
                        waveform,
                    });
                }
                sources += 1;
            }
        }
        // Positions in the extended point, by node: the free nodes in node
        // order, the pinned ones after every Newton unknown.
        let mut position = vec![None; circuit.node_count()];
        let mut free = Vec::new();
        for node in 1..=n_nodes {
            if !is_pinned[node] {
                position[node] = Some(free.len());
                free.push(node - 1);
            }
        }
        let free_nodes = free.len();
        let unknowns = free_nodes + sources - pins.len();
        for (k, pin) in pins.iter().enumerate() {
            position[pin.node + 1] = Some(unknowns + k);
        }
        let at = |node: NodeId| position[node.0];
        let ground = unknowns + pins.len();
        let term = |node: NodeId| Terminal {
            at: at(node).unwrap_or(ground),
            var: at(node).filter(|&i| i < unknowns),
        };

        let mut plan = StampPlan {
            nonlinear: Vec::new(),
            linear: Vec::new(),
            capacitors: Vec::new(),
            pins,
            unknowns,
            free_nodes,
            free,
            full_len: n_nodes + sources,
        };
        let mut source = 0;
        for device in circuit.devices() {
            match device {
                Device::Resistor { p, n, resistance } => {
                    plan.linear.push(LinearStamp::Conductance {
                        p: at(*p),
                        n: at(*n),
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
                        p: at(*p),
                        n: at(*n),
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
                    if pinned(*p, *n).is_none() {
                        plan.linear.push(LinearStamp::VSource {
                            p: at(*p),
                            n: at(*n),
                            br: plan.free.len(),
                            waveform,
                        });
                        plan.free.push(n_nodes + source);
                    }
                    source += 1;
                }
                Device::ISource { p, n, waveform } => plan.linear.push(LinearStamp::ISource {
                    p: at(*p),
                    n: at(*n),
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
                    d: term(*d),
                    g: term(*g),
                    s: term(*s),
                    b: term(*b),
                    model: mos::prepare(model, *geometry, temp),
                    anchor: None,
                })),
                Device::Diode { p, n, model } => {
                    plan.nonlinear.push(NonlinearStamp::Diode(DiodeStamp {
                        p: term(*p),
                        n: term(*n),
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
                    p: term(*p),
                    n: term(*n),
                    cp: term(*cp),
                    cn: term(*cn),
                    model: prepare_switch(*ron, *roff, *threshold, *transition),
                })),
            }
        }
        debug_assert_eq!(plan.free.len(), unknowns);
        plan
    }

    /// Length of the extended point: the Newton unknowns, then the pinned
    /// nodes. The ground slot follows at this position.
    fn extended(&self) -> usize {
        self.unknowns + self.pins.len()
    }

    /// The extended positions of the node voltages, free and pinned: the
    /// rows that carry a gmin leak.
    fn node_rows(&self) -> impl Iterator<Item = usize> {
        (0..self.free_nodes).chain(self.unknowns..self.extended())
    }

    /// The Newton unknowns of a full unknown vector.
    fn restrict(&self, x: &[f64]) -> Vec<f64> {
        self.free.iter().map(|&at| x[at]).collect()
    }
}

/// Linear bases a system keeps: enough for every step size of a
/// fixed-grid transient (its `t_k − t_{k−1}` take a few ulp-distinct
/// values) under both integration methods, and a recovery ladder's rungs.
const KEPT_BASES: usize = 32;

/// What the conductances of a linear base depend on besides the circuit:
/// gmin and, once companions are installed, the integration method and
/// the step size, which fix every companion conductance (`geq` is a
/// function of the method, the capacitance and the step). Compared
/// bitwise, so equal keys stamp equal bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BaseKey {
    gmin: u64,
    step: Option<(Method, u64)>,
}

/// The MNA nonlinear system for one time point (or the DC operating point
/// when no companion models are installed), at one temperature and over
/// one device list for its whole life: both are compiled into its
/// [`StampPlan`] when it is built.
///
/// Its unknowns are the plan's Newton unknowns. Every evaluation loads
/// them into the *extended point* `xe`, which holds the pinned node
/// voltages after them and then a ground slot at 0 V, so every stamp
/// reads its terminals from one vector with no test for ground; the
/// *extended residual* `re` has the same layout, its pinned rows summing
/// each pinned node's currents other than its source's and its ground
/// slot a sink that nothing reads.
///
/// The system assembles incrementally: everything linear in `x` (gmin
/// leak, resistors, capacitor companions, source values and patterns) is
/// stamped into a linear base — the conductances once per [`BaseKey`],
/// kept for the system's life so that a transient stamps each step size
/// once, the right-hand side once per step, with the Newton rows' terms in
/// the pinned voltages folded in — and each residual/Jacobian evaluation
/// is a sparse matrix-vector product (or scatter) over the Newton unknowns
/// plus the nonlinear device stamps, with MOSFETs and diodes bypassed when
/// their terminal voltages have not moved (unless `bypass` is off).
struct MnaSystem<'a> {
    plan: StampPlan<'a>,
    gmin: f64,
    time: f64,
    /// Companion model per capacitor of the plan (transient only).
    companions: Vec<Option<Companion>>,
    /// Whether MOSFET and diode stamps may be bypassed within
    /// [`BYPASS_TOL`]; off, every device is evaluated on every stamp and
    /// every residual is exact.
    bypass: bool,
    /// The configuration the base must match: `gmin` and the installed
    /// companions' method and step.
    key: BaseKey,
    /// The configuration `lin_vals` was stamped for, if any.
    lin_key: Option<BaseKey>,
    /// Bases stamped so far, at most [`KEPT_BASES`]: their keys, and their
    /// `lin_vals` back to back in the same order. Both are reserved when
    /// the system is built; past the bound a base is stamped and not kept.
    kept_keys: Vec<BaseKey>,
    kept_vals: Vec<f64>,
    /// Conductance halves stamped (not loaded from `kept_vals`).
    base_builds: usize,
    /// `true` when `lin_rhs` and the pinned voltages no longer match the
    /// step's time, companion currents and conductances.
    rhs_dirty: bool,
    /// The extended point: the Newton iterate, then the pinned node
    /// voltages at `time`, then the ground slot.
    xe: Vec<f64>,
    /// The extended residual of the last evaluation; its pinned rows are
    /// summed by exact evaluations only.
    re: Vec<f64>,
    /// A second extended point and residual, for the first point of a
    /// [`MnaSystem::stamp_residual_pair`]; `xp` shares `xe`'s pinned
    /// voltages whenever it is read.
    xp: Vec<f64>,
    rp: Vec<f64>,
    /// The Newton point of the last evaluation, when it was exact (so
    /// `re`'s pinned rows hold that point's sums) and the base has not
    /// been rebuilt since.
    pinned_at: Vec<f64>,
    pinned_valid: bool,
    /// Scratch for stamping the base's conductances over the extended
    /// point, densely, before they are gathered into `lin_vals`.
    lin_jac: DMatrix,
    /// Stamp pattern of the base (see [`MnaSystem::mark_base`]), ascending
    /// per row; row `i` is `lin_cols[lin_start[i]..lin_start[i + 1]]`,
    /// with its values at the same positions of `lin_vals`.
    lin_cols: Vec<usize>,
    lin_start: Vec<usize>,
    lin_vals: Vec<f64>,
    /// Where each row's matvec ends in `lin_cols`: a Newton row stops at
    /// its first pinned column (those terms are in `lin_rhs`), a pinned
    /// row runs to its end.
    lin_end: Vec<usize>,
    /// Structural pattern of the Newton Jacobian (see
    /// [`MnaSystem::stamp_pattern`]), in the same layout; declared to the
    /// Newton solver's LU factorization.
    jac_cols: Vec<usize>,
    jac_start: Vec<usize>,
    /// Constant (in `x`) part of the extended residual.
    lin_rhs: Vec<f64>,
    bypass_hits: usize,
    bypass_misses: usize,
}

impl<'a> MnaSystem<'a> {
    fn new(circuit: &'a Circuit, temp: f64, gmin: f64) -> Self {
        let plan = StampPlan::compile(circuit, temp);
        let (n, ne) = (plan.unknowns, plan.extended());
        let base = Self::mark_base(&plan);
        let (lin_cols, lin_start) = Self::rows_of(&base, ne);
        let lin_end = (0..ne)
            .map(|i| {
                let row = &lin_cols[lin_start[i]..lin_start[i + 1]];
                let own = if i < n {
                    row.partition_point(|&j| j < n)
                } else {
                    row.len()
                };
                lin_start[i] + own
            })
            .collect();
        let (jac_cols, jac_start) = Self::stamp_pattern(&plan, &base);
        MnaSystem {
            companions: vec![None; plan.capacitors.len()],
            plan,
            gmin,
            time: 0.0,
            bypass: true,
            key: BaseKey {
                gmin: gmin.to_bits(),
                step: None,
            },
            lin_key: None,
            kept_keys: Vec::with_capacity(KEPT_BASES),
            kept_vals: Vec::with_capacity(KEPT_BASES * lin_cols.len()),
            base_builds: 0,
            rhs_dirty: true,
            xe: vec![0.0; ne + 1],
            re: vec![0.0; ne + 1],
            xp: vec![0.0; ne + 1],
            rp: vec![0.0; ne + 1],
            pinned_at: vec![0.0; n],
            pinned_valid: false,
            lin_jac: DMatrix::zeros(ne, ne),
            lin_vals: vec![0.0; lin_cols.len()],
            lin_cols,
            lin_start,
            lin_end,
            jac_cols,
            jac_start,
            lin_rhs: vec![0.0; ne],
            bypass_hits: 0,
            bypass_misses: 0,
        }
    }

    /// Every position of the extended linear base a stamp can reach — the
    /// gmin diagonal of every node, two-terminal conductances (resistors,
    /// capacitor companions) and the incidences of the sources that pin
    /// nothing — marked in a row-major grid over the extended point. A
    /// fixed superset of the base's nonzeros, so it is computed once per
    /// system, never rescanned.
    fn mark_base(plan: &StampPlan<'_>) -> Vec<bool> {
        let ne = plan.extended();
        let mut stamped = vec![false; ne * ne];
        let mut mark = |row: usize, col: usize| stamped[row * ne + col] = true;
        for i in plan.node_rows() {
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
        stamped
    }

    /// Every position [`MnaSystem::assemble_jacobian`] can write: the
    /// base's Newton block and each nonlinear device's stamp block over
    /// its Newton unknowns (a MOSFET's drain and source rows over its four
    /// terminals, a diode's two terminals, a switch's two rows over its
    /// four terminals). Fixed for the system's life, like the plan. The
    /// branch rows' diagonals stay out: they are always zero, and as
    /// structural entries they would fill every neighbour of a source's
    /// node (DESIGN §10).
    fn stamp_pattern(plan: &StampPlan<'_>, base: &[bool]) -> (Vec<usize>, Vec<usize>) {
        let (n, ne) = (plan.unknowns, plan.extended());
        let mut stamped: Vec<bool> = (0..n * n).map(|at| base[at / n * ne + at % n]).collect();
        let mut block = |rows: &[Terminal], cols: &[Terminal]| {
            for r in rows.iter().filter_map(|t| t.var) {
                for c in cols.iter().filter_map(|t| t.var) {
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

    /// Changes the minimum conductance, and with it the base the system
    /// needs (the gmin leak lives on its diagonal). Homotopy ladders must
    /// use this instead of writing the field.
    fn set_gmin(&mut self, gmin: f64) {
        self.gmin = gmin;
        self.key.gmin = gmin.to_bits();
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

    /// Brings whichever half of the linear base the step configuration
    /// moved up to date. Everything whose contribution is affine in `x` —
    /// gmin leak, resistors, capacitor companions, source values, voltage
    /// source patterns — lands here; per-iteration evaluations then start
    /// from a matvec/scatter of it instead of re-stamping. The conductance
    /// half is loaded from the kept bases when one matches the key, and
    /// stamped (and kept, while there is room) otherwise; equal keys stamp
    /// equal bits, so a loaded base is the one a stamp would give. The
    /// right-hand side's pinned-voltage terms follow the conductances, so a
    /// new conductance half rebuilds it too.
    fn ensure_base(&mut self) {
        if self.lin_key != Some(self.key) {
            let len = self.lin_vals.len();
            match self.kept_keys.iter().position(|k| *k == self.key) {
                Some(slot) => self
                    .lin_vals
                    .copy_from_slice(&self.kept_vals[slot * len..(slot + 1) * len]),
                None => {
                    self.build_base_jac();
                    if self.kept_keys.len() < KEPT_BASES {
                        self.kept_keys.push(self.key);
                        self.kept_vals.extend_from_slice(&self.lin_vals);
                    }
                }
            }
            self.lin_key = Some(self.key);
            self.rhs_dirty = true;
        }
        if self.rhs_dirty {
            self.build_base_rhs();
        }
    }

    /// Stamps the conductance half of the base into `lin_vals`: gmin
    /// leak, resistors, companion conductances, voltage-source patterns.
    fn build_base_jac(&mut self) {
        self.base_builds += 1;
        dso_obs::counter!("spice.base_builds").incr();
        self.lin_jac.clear();
        for i in self.plan.node_rows() {
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
        for (i, row) in self.lin_start.windows(2).enumerate() {
            for k in row[0]..row[1] {
                self.lin_vals[k] = self.lin_jac[(i, self.lin_cols[k])];
            }
        }
    }

    /// Stamps the source half of the base at the step's time: the pinned
    /// node voltages, companion currents and source values, then each
    /// Newton row's conductances to the pinned nodes times their voltages,
    /// once per step instead of once per evaluation.
    fn build_base_rhs(&mut self) {
        let n = self.plan.unknowns;
        for (v, pin) in self.xe[n..].iter_mut().zip(&self.plan.pins) {
            *v = pin.sign * pin.waveform.eval(self.time);
        }
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
        for (i, r) in self.lin_rhs[..n].iter_mut().enumerate() {
            for k in self.lin_end[i]..self.lin_start[i + 1] {
                *r += self.lin_vals[k] * self.xe[self.lin_cols[k]];
            }
        }
        self.rhs_dirty = false;
        self.pinned_valid = false;
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

    /// The linear part of the extended residual at the extended point
    /// `xe`, into `re`: the base's matvec plus its right-hand side, over
    /// the Newton rows, and over the pinned rows too when `exact` (they
    /// and the ground slot are zeroed otherwise; the ground slot always
    /// is). The matvec runs over each row's stamp pattern only, ascending:
    /// a skipped term is an exact zero, so every nonzero row sum is the
    /// dense product's, bit for bit. The base must be up to date
    /// ([`MnaSystem::ensure_base`]).
    fn linear_rows(&self, xe: &[f64], re: &mut [f64], exact: bool) {
        let rows = if exact {
            self.plan.extended()
        } else {
            self.plan.unknowns
        };
        for (i, out) in re[..rows].iter_mut().enumerate() {
            let row = self.lin_start[i]..self.lin_end[i];
            let sum: f64 = self.lin_vals[row.clone()]
                .iter()
                .zip(&self.lin_cols[row])
                .map(|(v, &j)| v * xe[j])
                .sum();
            *out = sum + self.lin_rhs[i];
        }
        re[rows..].iter_mut().for_each(|r| *r = 0.0);
    }

    /// [`MnaSystem::linear_rows`] at the loaded point, into `re`.
    fn linear_residual(&mut self, exact: bool) {
        self.ensure_base();
        let mut re = std::mem::take(&mut self.re);
        self.linear_rows(&self.xe, &mut re, exact);
        self.re = re;
    }

    /// The extended residual at the Newton point `x`, into `re`:
    /// [`MnaSystem::linear_residual`] plus every nonlinear device's
    /// current, in device order. `exact` evaluates every device, which
    /// refreshes the anchors, and sums the pinned rows; so does every
    /// evaluation while bypass is off.
    fn stamp_residual(&mut self, x: &[f64], exact: bool) {
        let exact = exact || !self.bypass;
        self.xe[..self.plan.unknowns].copy_from_slice(x);
        self.linear_residual(exact);
        let (xe, re) = (&self.xe, &mut self.re);
        let mut tally = BypassTally::default();
        for stamp in &mut self.plan.nonlinear {
            stamp.stamp_current(xe, re, exact, &mut tally);
        }
        self.bypass_hits += tally.hits;
        self.bypass_misses += tally.misses;
        self.pinned_valid = exact;
        if exact {
            self.pinned_at.copy_from_slice(x);
        }
    }

    /// [`MnaSystem::stamp_residual`] (not forced) at `a`, into `rp`, then
    /// at `b`, into `re`, in one walk: the linear rows of both points,
    /// then each device at `a` and at `b` in turn. A device's
    /// linearization reads and moves its own anchor only, so taking the
    /// devices in this order leaves every anchor, tally and residual bit
    /// as the two calls in sequence would, and the system ends as after
    /// the call at `b`.
    fn stamp_residual_pair(&mut self, a: &[f64], b: &[f64]) {
        let exact = !self.bypass;
        let n = self.plan.unknowns;
        self.ensure_base();
        self.xe[..n].copy_from_slice(b);
        let (xe, mut re) = (std::mem::take(&mut self.xe), std::mem::take(&mut self.re));
        let (mut xp, mut rp) = (std::mem::take(&mut self.xp), std::mem::take(&mut self.rp));
        xp.copy_from_slice(&xe);
        xp[..n].copy_from_slice(a);
        self.linear_rows(&xp, &mut rp, exact);
        self.linear_rows(&xe, &mut re, exact);
        let mut tally = BypassTally::default();
        for stamp in &mut self.plan.nonlinear {
            stamp.stamp_current(&xp, &mut rp, exact, &mut tally);
            stamp.stamp_current(&xe, &mut re, exact, &mut tally);
        }
        (self.xe, self.re, self.xp, self.rp) = (xe, re, xp, rp);
        self.bypass_hits += tally.hits;
        self.bypass_misses += tally.misses;
        self.pinned_valid = exact;
        if exact {
            self.pinned_at.copy_from_slice(b);
        }
    }

    /// The residual at the Newton point `x`: the Newton rows of
    /// [`MnaSystem::stamp_residual`].
    fn assemble_residual(&mut self, x: &[f64], out: &mut [f64], force_eval: bool) {
        self.stamp_residual(x, force_eval);
        out.copy_from_slice(&self.re[..self.plan.unknowns]);
    }

    /// The Jacobian: the base's Newton block plus every nonlinear device's
    /// conductances, in device order, bypassed as in the residual. The
    /// base is written over its pattern only: `jac` arrives cleared, so
    /// every other position already holds its zero.
    fn assemble_jacobian(&mut self, x: &[f64], jac: &mut DMatrix) {
        self.ensure_base();
        self.xe[..self.plan.unknowns].copy_from_slice(x);
        for i in 0..self.plan.unknowns {
            for k in self.lin_start[i]..self.lin_end[i] {
                jac[(i, self.lin_cols[k])] = self.lin_vals[k];
            }
        }
        let xe = &self.xe;
        let force_eval = !self.bypass;
        let mut tally = BypassTally::default();
        for stamp in &mut self.plan.nonlinear {
            match stamp {
                NonlinearStamp::Mos(m) => {
                    let (e, _) = m.linearize(xe, force_eval, &mut tally);
                    let (d, g, s, b) = (m.d.var, m.g.var, m.s.var, m.b.var);
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
                    let (_, g) = dio.linearize(xe, force_eval, &mut tally);
                    let (p, n) = (dio.p.var, dio.n.var);
                    add_jac(jac, p, p, g);
                    add_jac(jac, p, n, -g);
                    add_jac(jac, n, p, -g);
                    add_jac(jac, n, n, g);
                }
                NonlinearStamp::Switch(sw) => {
                    let (g, dg_dvc, v) = sw.linearize(xe);
                    let (p, n, cp, cn) = (sw.p.var, sw.n.var, sw.cp.var, sw.cn.var);
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

    /// Writes the full unknown vector of the Newton point `x` into `full`:
    /// its unknowns, each pinned node at its source's value, and each
    /// pinned source's current from its node's other currents. A solve
    /// that ends on an exact evaluation at `x`, as every accepted solve
    /// does, has left those sums in `re`; otherwise they are evaluated
    /// here.
    fn expand(&mut self, x: &[f64], full: &mut [f64]) {
        for (&at, v) in self.plan.free.iter().zip(x) {
            full[at] = *v;
        }
        if self.plan.pins.is_empty() {
            return;
        }
        self.ensure_base();
        let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits());
        if !(self.pinned_valid && same(&self.pinned_at, x)) {
            self.stamp_residual(x, true);
        }
        let n = self.plan.unknowns;
        for ((pin, v), sum) in self.plan.pins.iter().zip(&self.xe[n..]).zip(&self.re[n..]) {
            full[pin.node] = *v;
            full[pin.branch] = -pin.sign * sum;
        }
    }

    /// [`MnaSystem::expand`] into a new vector.
    fn full(&mut self, x: &[f64]) -> Vec<f64> {
        let mut full = vec![0.0; self.plan.full_len];
        self.expand(x, &mut full);
        full
    }
}

impl NonlinearSystem for MnaSystem<'_> {
    fn unknowns(&self) -> usize {
        self.plan.unknowns
    }

    fn residual(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
        self.assemble_residual(x, out, false);
        Ok(())
    }

    fn residual_pair(
        &mut self,
        a: &[f64],
        b: &[f64],
        ra: &mut [f64],
        rb: &mut [f64],
    ) -> Result<(), NumError> {
        self.stamp_residual_pair(a, b);
        let n = self.plan.unknowns;
        ra.copy_from_slice(&self.rp[..n]);
        rb.copy_from_slice(&self.re[..n]);
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
        // make the verdict the next iteration's starting point. The same
        // pass sums the pinned rows that the accepted point's source
        // currents are read from.
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
        // The indexed read finds the same sample, and falls back to the
        // search when the index does not hold `t`.
        for idx in [5, 4, 11] {
            assert_eq!(result.sample_at(idx, t5, n), Some(sample), "index {idx}");
        }
        assert!(result.sample_at(5, t5, n + 1).is_none());
        assert!(result
            .sample_at(5, 0.5 * (t5 + result.times()[6]), n)
            .is_none());
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

    /// The linear base of `system` as bits: the gathered conductances, the
    /// right-hand side, the pinned voltages (and the ground slot) and the
    /// pattern.
    fn base_bits(system: &MnaSystem<'_>) -> Vec<Vec<u64>> {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let index = |v: &[usize]| v.iter().map(|&i| i as u64).collect::<Vec<_>>();
        vec![
            bits(&system.lin_vals),
            bits(&system.lin_rhs),
            bits(&system.xe[system.plan.unknowns..]),
            index(&system.lin_cols),
            index(&system.lin_start),
        ]
    }

    /// Builds a fresh system for `system`'s configuration (time,
    /// companions, gmin), asserts that `system`'s base, kept or stamped, is
    /// the fresh one bit for bit and that its conductances scattered over
    /// the extended point are the fresh dense stamp, every other entry of
    /// which is zero. Returns the fresh system.
    fn assert_base_is_fresh<'c>(
        sim: &Simulator<'_>,
        circuit: &'c Circuit,
        system: &MnaSystem<'_>,
        what: &str,
    ) -> MnaSystem<'c> {
        let mut fresh = sim.make_system(circuit);
        fresh.time = system.time;
        fresh.companions = system.companions.clone();
        fresh.key = system.key;
        fresh.set_gmin(system.gmin);
        fresh.ensure_base();
        assert_eq!(fresh.base_builds, 1, "{what}: fresh build");
        assert_eq!(system.lin_key, Some(system.key), "{what}: base is current");
        assert!(!system.rhs_dirty, "{what}: right-hand side is current");
        assert_eq!(base_bits(system), base_bits(&fresh), "{what}: base");
        let bits = |m: &DMatrix| m.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&base_dense(system)),
            bits(&fresh.lin_jac),
            "{what}: dense conductances"
        );
        fresh
    }

    /// The base's conductances scattered over the extended point.
    fn base_dense(system: &MnaSystem<'_>) -> DMatrix {
        let ne = system.plan.extended();
        let mut dense = DMatrix::zeros(ne, ne);
        for (i, row) in system.lin_start.windows(2).enumerate() {
            for k in row[0]..row[1] {
                dense[(i, system.lin_cols[k])] = system.lin_vals[k];
            }
        }
        dense
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
        // (event, t_prev, t_target in steps, method, gmin, conductances
        // stamped rather than kept or current)
        let events = [
            ("BE start", 0.0, 1.0, be, g0, true),
            ("BE to TRAP", 1.0, 2.0, trap, g0, true),
            ("steady TRAP step", 2.0, 3.0, trap, g0, false),
            (
                "TRAP to BE fallback, as at the start",
                2.0,
                3.0,
                be,
                g0,
                false,
            ),
            ("back to TRAP", 3.0, 4.0, trap, g0, false),
            ("final partial step", 4.0, 4.75, trap, g0, true),
            ("BE on the partial step", 4.0, 4.75, be, g0, true),
            ("gmin ladder rung", 4.0, 4.75, be, 1e-2, true),
            ("next gmin rung", 4.0, 4.75, be, 1e-4, true),
            ("gmin restored", 4.0, 4.75, be, g0, false),
            ("repeat at restored gmin", 4.0, 4.75, be, g0, false),
            ("the rung again", 4.0, 4.75, be, 1e-2, false),
        ];
        for (event, t_prev, t_target, method, gmin, stamped) in events {
            for state in cap_states.iter_mut() {
                state.v_prev += 0.01;
                state.i_prev *= -0.5;
            }
            sim.install_companions(&mut system, &cap_states, t_prev * dt, t_target * dt, method)
                .unwrap();
            system.set_gmin(gmin);
            let builds = system.base_builds;
            system.ensure_base();
            assert_eq!(system.base_builds - builds, usize::from(stamped), "{event}");

            let fresh = assert_base_is_fresh(&sim, &ckt, &system, event);
            let (n, ne) = (system.plan.unknowns, system.plan.extended());
            assert_eq!((n, ne), (2, 3), "{event}: V1 pins `in`");

            // With no nonlinear device the residual is the base alone: the
            // zero-skipping product must match the dense one over the
            // Newton columns, summation order included (mixed magnitudes
            // expose any reordering), and an exact residual's pinned row
            // the dense one over every column.
            for k in 0..16 {
                let x: Vec<f64> = (0..n)
                    .map(|i| match (i + k) % 5 {
                        0 => -0.0,
                        m => ((k * n + i) as f64).sin() * 10f64.powi(3 * m as i32 - 6),
                    })
                    .collect();
                let mut fast = vec![f64::NAN; n];
                system.assemble_residual(&x, &mut fast, true);
                let rows = fast.iter().chain(&system.re[n..ne]);
                for (i, got) in rows.enumerate() {
                    let cols = if i < n { n } else { ne };
                    let dense: f64 = (0..cols)
                        .map(|j| fresh.lin_jac[(i, j)] * system.xe[j])
                        .sum();
                    assert_eq!(
                        got.to_bits(),
                        (dense + system.lin_rhs[i]).to_bits(),
                        "{event}: residual row {i}"
                    );
                }
            }
        }
        assert_eq!((system.kept_keys.len(), system.base_builds), (6, 6));

        // Every step of the paper column's transients on both time bases
        // the repository uses, each from its first backward-Euler step to
        // the final one on `t_stop`, with a gmin change and its
        // restoration midway: the base in use is always a fresh build's,
        // and each configuration is stamped once. The deck is the column
        // exported by `to_deck` with the cell open O3 (true) at 200 kΩ and
        // the waveforms of a `W0 R` sequence at the nominal stress
        // combination (tcyc = 60 ns).
        let deck = crate::netlist::parse(include_str!("../tests/data/column_w0r.cir")).unwrap();
        let column = deck.circuit;
        let sim = Simulator::new(&column);
        let tcyc = 60e-9;
        for fraction in [250.0, 600.0] {
            let ics = [("bt", 1.2), ("bc", 1.2), ("senn", 1.2), ("senp", 1.2)];
            let options = TranOptions::new(2.0 * tcyc, tcyc / fraction)
                .unwrap()
                .with_ic(ics.map(|(node, v)| (node.to_string(), v)));
            let (mut system, mut state) = sim.transient_init(&options).unwrap();
            assert_eq!(system.unknowns(), 16);
            let mut solver = NewtonSolver::new(default_newton_options());
            let mut trial = vec![0.0; system.unknowns()];
            let mut stats = RecoveryStats::default();
            let mut keys = Vec::new();
            let steps = (options.t_stop / options.dt).round() as usize;
            let mut t_prev = 0.0;
            for step in 1..=steps {
                let t_target = grid_time(&options, step, steps);
                let method = if step == 1 { be } else { trap };
                if step == steps / 2 {
                    for gmin in [1e-6, sim.gmin] {
                        system.set_gmin(gmin);
                        sim.try_step(
                            &mut system,
                            &mut solver,
                            &state.y,
                            None,
                            &state.caps,
                            &mut trial,
                            t_prev,
                            t_target,
                            be,
                            &mut stats,
                            false,
                        )
                        .unwrap();
                        let what = format!("1/{fraction}, step {step} at gmin {gmin:e}");
                        assert_base_is_fresh(&sim, &column, &system, &what);
                        if !keys.contains(&system.key) {
                            keys.push(system.key);
                        }
                    }
                }
                sim.advance(
                    &mut system,
                    &mut solver,
                    &mut state,
                    &mut trial,
                    None,
                    true,
                    t_prev,
                    t_target,
                    method,
                    0,
                    &mut stats,
                )
                .unwrap();
                assert_base_is_fresh(
                    &sim,
                    &column,
                    &system,
                    &format!("1/{fraction}, step {step}"),
                );
                if !keys.contains(&system.key) {
                    keys.push(system.key);
                }
                t_prev = t_target;
            }
            assert!(stats.is_clean(), "1/{fraction}: {stats:?}");
            assert!(
                keys.len() <= KEPT_BASES,
                "1/{fraction}: {} keys",
                keys.len()
            );
            assert_eq!(system.base_builds, keys.len(), "1/{fraction}");
        }
    }

    /// A circuit with every device kind the MNA system stamps: MOSFET
    /// (body on a biased node, so every `gmbs` entry is live), diode,
    /// voltage-controlled switch, resistors, a capacitor, current sources
    /// and both kinds of voltage source: `V1` pins `a`, while `V2` and the
    /// floating `V3` share `vb`, so both keep their branch unknowns.
    fn every_device_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        let s = ckt.node("s");
        let vb = ckt.node("vb");
        let ctl = ckt.node("ctl");
        let f = ckt.node("f");
        let gnd = Circuit::GROUND;
        ckt.add_vsource("V1", a, gnd, Waveform::Dc(2.0)).unwrap();
        ckt.add_vsource("V2", vb, gnd, Waveform::Dc(-0.4)).unwrap();
        ckt.add_vsource("V3", f, vb, Waveform::Dc(0.3)).unwrap();
        ckt.add_resistor("R4", f, gnd, 5e4).unwrap();
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
        /// Each node's position in the point the walk reads and the
        /// residual it sums into, by node index (`None` for ground);
        /// positions below `vars` are the Jacobian's unknowns.
        at: Vec<Option<usize>>,
        vars: usize,
        mos_cache: Vec<Option<MosBypass>>,
        diode_cache: Vec<Option<DiodeBypass>>,
        hits: usize,
        misses: usize,
    }

    impl EnumWalk {
        fn new(
            circuit: &Circuit,
            temp: f64,
            bypass: bool,
            at: Vec<Option<usize>>,
            vars: usize,
        ) -> Self {
            EnumWalk {
                temp,
                bypass,
                at,
                vars,
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
            let (temp, at, vars) = (self.temp, &self.at, self.vars);
            let volt = |node: NodeId| at[node.0].map_or(0.0, |i| x[i]);
            let add_res = |res: &mut Option<&mut [f64]>, node: NodeId, current: f64| {
                if let (Some(res), Some(i)) = (res.as_deref_mut(), at[node.0]) {
                    res[i] += current;
                }
            };
            let add_jac = |jac: &mut Option<&mut DMatrix>, row: NodeId, col: NodeId, g: f64| {
                if let (Some(jac), Some(r), Some(c)) = (jac.as_deref_mut(), at[row.0], at[col.0]) {
                    if r < vars && c < vars {
                        jac[(r, c)] += g;
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

    /// Each node's position in `system`'s extended point, by node index.
    fn plan_positions(circuit: &Circuit, system: &MnaSystem<'_>) -> Vec<Option<usize>> {
        let plan = &system.plan;
        let mut at = vec![None; circuit.node_count()];
        for (i, &node) in plan.free[..plan.free_nodes].iter().enumerate() {
            at[node + 1] = Some(i);
        }
        for (k, pin) in plan.pins.iter().enumerate() {
            at[pin.node + 1] = Some(plan.unknowns + k);
        }
        at
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
    fn forced_linearize_at_the_anchor_returns_the_evaluation() {
        let ckt = every_device_circuit();
        let sim = Simulator::new(&ckt);
        let mut system = sim.make_system(&ckt);
        let ne = system.plan.extended();
        let mut x: Vec<f64> = (0..=ne).map(|i| 0.1 + 0.37 * i as f64).collect();
        x[ne] = 0.0;
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let (mut mos, mut diodes) = (0, 0);
        for stamp in &mut system.plan.nonlinear {
            let mut tally = BypassTally::default();
            match stamp {
                NonlinearStamp::Mos(m) => {
                    mos += 1;
                    let first = m.linearize(&x, true, &mut tally);
                    let again = m.linearize(&x, true, &mut tally);
                    let c = m.anchor.unwrap();
                    let e = mos::evaluate_prepared(&m.model, c.vgs, c.vds, c.vbs);
                    let parts =
                        |(e, i): (mos::MosEval, f64)| bits(&[e.ids, e.gm, e.gds, e.gmbs, i]);
                    assert_eq!(parts(again), parts((e, e.ids)));
                    assert_eq!(parts(first), parts(again));
                    // Both passes count as evaluations.
                    assert_eq!((tally.hits, tally.misses), (0, 2));
                    // The second pass read the anchor: a marked anchor
                    // comes back at its own voltages, and with any one
                    // terminal moved far inside the bypass window the
                    // model is evaluated again.
                    let marked = MosBypass {
                        eval: mos::MosEval { ids: 7.0, ..c.eval },
                        ..c
                    };
                    m.anchor = Some(marked);
                    assert_eq!(m.linearize(&x, true, &mut tally).1, 7.0);
                    for at in [m.d.at, m.g.at, m.s.at, m.b.at] {
                        m.anchor = Some(marked);
                        let held = x[at];
                        x[at] += 1e-3 * BYPASS_TOL;
                        let moved = m.linearize(&x, true, &mut tally);
                        x[at] = held;
                        let c = m.anchor.unwrap();
                        let e = mos::evaluate_prepared(&m.model, c.vgs, c.vds, c.vbs);
                        assert_eq!(parts(moved), parts((e, e.ids)), "terminal at {at}");
                        assert_ne!(moved.1, 7.0, "terminal at {at}");
                    }
                    assert_eq!((tally.hits, tally.misses), (0, 7));
                }
                NonlinearStamp::Diode(d) => {
                    diodes += 1;
                    let first = d.linearize(&x, true, &mut tally);
                    let again = d.linearize(&x, true, &mut tally);
                    let vd = d.anchor.unwrap().vd;
                    assert_eq!(bits(&[again.0, again.1]), bits(&[first.0, first.1]));
                    let (i, g) = d.model.evaluate(vd);
                    assert_eq!(bits(&[again.0, again.1]), bits(&[i, g]));
                    assert_eq!((tally.hits, tally.misses), (0, 2));
                    let marked = DiodeBypass { vd, i: 7.0, g };
                    d.anchor = Some(marked);
                    assert_eq!(d.linearize(&x, true, &mut tally).0, 7.0);
                    d.anchor = Some(marked);
                    x[d.p.at] += 1e-3 * BYPASS_TOL;
                    let moved = d.linearize(&x, true, &mut tally);
                    let (i, g) = d.model.evaluate(d.anchor.unwrap().vd);
                    assert_eq!(bits(&[moved.0, moved.1]), bits(&[i, g]));
                    assert_ne!(moved.0, 7.0);
                    assert_eq!((tally.hits, tally.misses), (0, 4));
                }
                NonlinearStamp::Switch(_) => {}
            }
        }
        assert_eq!((mos, diodes), (1, 1));
    }

    #[test]
    fn paired_residuals_match_two_calls_in_order() {
        let ckt = every_device_circuit();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let sim = Simulator::new(&ckt);
        let state = CapState {
            v_prev: 0.2,
            i_prev: 1e-6,
        };
        let mut rng = dso_num::testing::TestRng::new(29);
        for bypass in [true, false] {
            let [mut seq, mut pair] = [(); 2].map(|_| {
                let mut system = sim.make_system(&ckt);
                system.bypass = bypass;
                sim.install_companions(&mut system, &[state], 0.0, 1e-10, Method::Trapezoidal)
                    .unwrap();
                system
            });
            let n = seq.unknowns();
            let mut x: Vec<f64> = (0..n).map(|_| rng.range(-0.5, 1.5)).collect();
            for step in 0..200 {
                // Candidates within the bypass window of each other, beyond
                // it, equal, or far apart, as a warm step's two guesses are.
                let mut near = |x: &[f64]| -> Vec<f64> {
                    let scale = [0.0, 0.3 * BYPASS_TOL, 3.0 * BYPASS_TOL, 0.05][rng.index(4)];
                    x.iter().map(|v| v + rng.range(-scale, scale)).collect()
                };
                let a = near(&x);
                let b = near(&a);
                let what = format!("bypass {bypass}, step {step}");
                let [mut ra, mut rb, mut pa, mut pb] = [(); 4].map(|_| vec![f64::NAN; n]);
                seq.residual(&a, &mut ra).unwrap();
                seq.residual(&b, &mut rb).unwrap();
                pair.residual_pair(&a, &b, &mut pa, &mut pb).unwrap();
                assert_eq!(bits(&pa), bits(&ra), "{what}: first residual");
                assert_eq!(bits(&pb), bits(&rb), "{what}: second residual");
                assert_eq!(bits(&pair.xe), bits(&seq.xe), "{what}: point");
                assert_eq!(bits(&pair.re), bits(&seq.re), "{what}: extended residual");
                assert_eq!(plan_anchors(&pair), plan_anchors(&seq), "{what}: anchors");
                assert_eq!(
                    (pair.bypass_hits, pair.bypass_misses, pair.pinned_valid),
                    (seq.bypass_hits, seq.bypass_misses, seq.pinned_valid),
                    "{what}: tallies"
                );
                // Sometimes accept a candidate exactly, which moves every
                // anchor onto it, as a converged step does.
                if rng.index(3) == 0 {
                    x = if rng.next_bool() { a } else { b };
                    for system in [&mut seq, &mut pair] {
                        system.assemble_residual(&x, &mut ra, true);
                    }
                }
            }
            assert!(seq.bypass_misses > 0);
            assert_eq!(seq.bypass_hits > 0, bypass);
        }
    }

    #[test]
    fn stamp_plan_matches_the_enum_walk_bit_for_bit() {
        let ckt = every_device_circuit();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let state = CapState {
            v_prev: 0.2,
            i_prev: 1e-6,
        };
        // Sampling ranges per Newton unknown, as in the finite-difference
        // test below, with the switch control spanning both sides of its
        // transition.
        let ranges = [
            (0.0, 2.5),
            (0.0, 2.5),
            (0.0, 0.8),
            (-1.0, 0.4),
            (0.8, 1.2),
            (-1.0, 0.7),
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
                let at = plan_positions(&ckt, &system);
                let mut walk = EnumWalk::new(&ckt, temp, bypass, at, system.plan.unknowns);
                let n = system.unknowns();
                assert_eq!(n, ranges.len());
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
                            // The ground slot is a sink; the walk has none.
                            let ne = system.plan.extended();
                            let plan_rows = system.re[..ne].to_vec();
                            // The linear part again, then the walk's
                            // devices over the extended point.
                            let summed = exact || !bypass;
                            system.linear_residual(summed);
                            let mut reference = system.re[..ne].to_vec();
                            walk.stamp(&ckt, &system.xe, Some(&mut reference), None, exact);
                            assert_eq!(bits(&plan), bits(&reference[..n]), "{what}: residual");
                            if summed {
                                assert_eq!(
                                    bits(&plan_rows),
                                    bits(&reference),
                                    "{what}: pinned rows"
                                );
                            }
                        }
                        _ => {
                            let mut plan = DMatrix::zeros(n, n);
                            system.jacobian(&x, &mut plan).unwrap();
                            let mut reference = DMatrix::zeros(n, n);
                            let base = base_dense(&system);
                            for i in 0..n {
                                for j in 0..n {
                                    reference[(i, j)] = base[(i, j)];
                                }
                            }
                            walk.stamp(&ckt, &system.xe, None, Some(&mut reference), false);
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
        // each gmin-ladder rung; netlists with sources that pin a node and
        // sources that keep their branch unknown.
        let mut rng = dso_num::testing::TestRng::new(31);
        let (mut stamped, mut pinned, mut kept) = (0, 0, 0);
        for case in 0..150 {
            let ckt = random_circuit(&mut rng);
            let sim = Simulator::new(&ckt);
            let mut system = sim.make_system(&ckt);
            let n = system.unknowns();
            let pins = expected_pins(&ckt).len();
            let sources = sources(&ckt).len();
            assert_eq!(
                n,
                ckt.node_count() - 1 - pins + sources - pins,
                "case {case}"
            );
            pinned += pins;
            kept += sources - pins;
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
        assert!(
            pinned >= 30 && kept >= 30,
            "{pinned} pinned and {kept} kept sources"
        );
    }

    /// Textbook MNA over the full unknown vector — every node voltage,
    /// then a branch current for every voltage source, pinned or not —
    /// stamped densely from the circuit's devices, with every nonlinear
    /// device evaluated by [`EnumWalk`]: the reference the pinned system
    /// must agree with.
    struct FullMna<'c> {
        circuit: &'c Circuit,
        walk: EnumWalk,
        gmin: f64,
        time: f64,
        /// Companion per capacitor, in device order (transient only).
        companions: Vec<Option<Companion>>,
    }

    impl<'c> FullMna<'c> {
        fn new(circuit: &'c Circuit, gmin: f64) -> Self {
            let at = (0..circuit.node_count())
                .map(|i| i.checked_sub(1))
                .collect();
            FullMna {
                circuit,
                walk: EnumWalk::new(circuit, 27.0, false, at, usize::MAX),
                gmin,
                time: 0.0,
                companions: vec![None; capacitors(circuit).len()],
            }
        }

        /// The linear devices: conductance matrix and constant vector.
        fn linear(&self) -> (DMatrix, Vec<f64>) {
            let n = self.unknowns();
            let (mut a, mut b) = (DMatrix::zeros(n, n), vec![0.0; n]);
            let nodes = self.circuit.node_count() - 1;
            for i in 0..nodes {
                a[(i, i)] += self.gmin;
            }
            let (mut branch, mut cap) = (nodes, 0);
            for device in self.circuit.devices() {
                match device {
                    Device::Resistor { p, n, resistance } => {
                        MnaSystem::base_conductance(&mut a, var(*p), var(*n), 1.0 / resistance)
                    }
                    Device::Capacitor { p, n, .. } => {
                        if let Some(c) = self.companions[cap] {
                            MnaSystem::base_conductance(&mut a, var(*p), var(*n), c.geq);
                            add_res(&mut b, var(*p), -c.ieq);
                            add_res(&mut b, var(*n), c.ieq);
                        }
                        cap += 1;
                    }
                    Device::VSource { p, n, waveform } => {
                        for (t, sign) in [(var(*p), 1.0), (var(*n), -1.0)] {
                            if let Some(t) = t {
                                a[(t, branch)] += sign;
                                a[(branch, t)] += sign;
                            }
                        }
                        b[branch] -= waveform.eval(self.time);
                        branch += 1;
                    }
                    Device::ISource { p, n, waveform } => {
                        let i = waveform.eval(self.time);
                        add_res(&mut b, var(*p), i);
                        add_res(&mut b, var(*n), -i);
                    }
                    _ => {}
                }
            }
            (a, b)
        }
    }

    impl NonlinearSystem for FullMna<'_> {
        fn unknowns(&self) -> usize {
            self.circuit.node_count() - 1 + sources(self.circuit).len()
        }

        fn residual(&mut self, x: &[f64], out: &mut [f64]) -> Result<(), NumError> {
            let (a, b) = self.linear();
            a.mul_vec_into(x, out);
            for (o, b) in out.iter_mut().zip(&b) {
                *o += b;
            }
            self.walk.stamp(self.circuit, x, Some(out), None, true);
            Ok(())
        }

        fn jacobian(&mut self, x: &[f64], jac: &mut DMatrix) -> Result<(), NumError> {
            jac.copy_from(&self.linear().0);
            self.walk.stamp(self.circuit, x, None, Some(jac), true);
            Ok(())
        }
    }

    /// The circuit's capacitors: terminals (full-vector positions) and
    /// capacitance.
    fn capacitors(circuit: &Circuit) -> Vec<(Option<usize>, Option<usize>, f64)> {
        circuit
            .devices()
            .iter()
            .filter_map(|d| match d {
                Device::Capacitor {
                    p, n, capacitance, ..
                } => Some((var(*p), var(*n), *capacitance)),
                _ => None,
            })
            .collect()
    }

    /// The circuit's voltage sources: terminals and waveform.
    fn sources(circuit: &Circuit) -> Vec<(NodeId, NodeId, &Waveform)> {
        circuit
            .devices()
            .iter()
            .filter_map(|d| match d {
                Device::VSource { p, n, waveform } => Some((*p, *n, waveform)),
                _ => None,
            })
            .collect()
    }

    /// The sources that pin a node, by the rule stated once more: one
    /// terminal on ground and no other source at the other. Each as
    /// `(source index, node position, sign)`.
    fn expected_pins(circuit: &Circuit) -> Vec<(usize, usize, f64)> {
        let sources = sources(circuit);
        let touching = |node: NodeId| {
            sources
                .iter()
                .filter(|(p, n, _)| *p == node || *n == node)
                .count()
        };
        sources
            .iter()
            .enumerate()
            .filter_map(|(k, &(p, n, _))| match (p.is_ground(), n.is_ground()) {
                (false, true) if touching(p) == 1 => Some((k, p.0 - 1, 1.0)),
                (true, false) if touching(n) == 1 => Some((k, n.0 - 1, -1.0)),
                _ => None,
            })
            .collect()
    }

    /// Newton options far tighter than the simulator's, so that two
    /// solves of the same equations land on the same point up to rounding.
    fn tight_options() -> NewtonOptions {
        NewtonOptions {
            residual_tol: 1e-15,
            step_tol: 1e-15,
            ..default_newton_options()
        }
    }

    /// Solves `system` from `x` with [`tight_options`].
    fn solve_tight<S: NonlinearSystem>(system: &mut S, x: &mut [f64]) -> bool {
        NewtonSolver::new(tight_options()).solve(system, x).is_ok()
    }

    /// The largest difference between two full unknown vectors, over the
    /// node voltages and over the branch currents.
    fn gap(circuit: &Circuit, a: &[f64], b: &[f64]) -> (f64, f64) {
        let nodes = circuit.node_count() - 1;
        let diff =
            |r: std::ops::Range<usize>| r.map(|i| (a[i] - b[i]).abs()).fold(0.0_f64, f64::max);
        (diff(0..nodes), diff(nodes..a.len()))
    }

    /// The largest row of the reference residual at `x`.
    fn full_residual(full: &mut FullMna<'_>, x: &[f64]) -> f64 {
        let mut res = vec![0.0; x.len()];
        full.residual(x, &mut res).unwrap();
        norm_inf_of(&res)
    }

    fn norm_inf_of(v: &[f64]) -> f64 {
        v.iter().fold(0.0_f64, |m, r| m.max(r.abs()))
    }

    #[test]
    fn expand_reads_the_accepted_point_or_evaluates_it() {
        let ckt = every_device_circuit();
        let sim = Simulator::new(&ckt);
        let mut system = sim.make_system(&ckt);
        let mut y = vec![0.0; system.unknowns()];
        NewtonSolver::new(default_newton_options())
            .solve(&mut system, &mut y)
            .unwrap();
        // The solve ended on an exact evaluation at `y`.
        assert!(system.pinned_valid);
        let accepted = system.full(&y);
        assert_eq!(accepted, sim.dc_operating_point().unwrap().x);
        // `V1` pins `a` at 2 V and feeds `R1` (10 kΩ) and the gmin leak.
        let (a, b) = (accepted[0], accepted[1]);
        let i_v1 = accepted[ckt.node_count() - 1];
        assert_eq!(a, 2.0);
        assert!((i_v1 + (a - b) / 1e4 + 1e-12 * a).abs() < 1e-15, "{i_v1:e}");

        // An approximate evaluation elsewhere leaves the pinned rows
        // stale, so expanding `y` evaluates them again, to the same bits.
        let elsewhere: Vec<f64> = y.iter().map(|v| v + 1e-3).collect();
        let mut out = vec![0.0; y.len()];
        system.residual(&elsewhere, &mut out).unwrap();
        assert!(!system.pinned_valid);
        assert_eq!(system.full(&y), accepted);
    }

    #[test]
    fn pinned_sources_solve_the_full_mna_system() {
        // On random netlists mixing grounded, chained and floating
        // sources: every pinned voltage the simulator reports is its
        // source's value bit for bit; every solution it reports, at DC
        // and at every step of BE and TRAP transients, solves the
        // textbook system to its Newton tolerance (plus 1e-15 A for
        // another summation order); and the pinned system and the
        // textbook one, both solved tightly from the same point, agree to
        // 1e-8 V and 1e-12 A. Measured worst: 9.8e-10, 8.7e-10 V and
        // 6.0e-14 A.
        let residual_tol = default_newton_options().residual_tol + 1e-15;
        let mut rng = dso_num::testing::TestRng::new(43);
        let (mut pinned, mut kept, mut compared) = (0, 0, 0);
        let check = |what: &str, res: f64, (dv, di): (f64, f64)| {
            assert!(res <= residual_tol, "{what}: textbook residual {res:e}");
            assert!(
                dv <= 1e-8 && di <= 1e-12,
                "{what}: off by {dv:e} V, {di:e} A"
            );
        };
        for case in 0..150 {
            let ckt = random_circuit(&mut rng);
            let sim = Simulator::new(&ckt);
            let pins = expected_pins(&ckt);
            // Both systems are compared at a gmin of 1 µS, which bounds
            // every node's conductance to ground and so the distance
            // between two points that both solve to rounding.
            let mut system = sim.make_system(&ckt);
            system.set_gmin(1e-6);
            let mut reference = FullMna::new(&ckt, 1e-6);
            let plan: Vec<(usize, usize, f64)> = system
                .plan
                .pins
                .iter()
                .map(|pin| (pin.branch - (ckt.node_count() - 1), pin.node, pin.sign))
                .collect();
            assert_eq!(plan, pins, "case {case}: pinned sources");
            pinned += pins.len();
            kept += sources(&ckt).len() - pins.len();
            let waveforms = sources(&ckt);
            let mut full = FullMna::new(&ckt, sim.gmin);
            let n = system.plan.full_len;

            // DC: the simulator's operating point, and both systems
            // solved tightly from zero.
            let Ok(op) = sim.dc_operating_point() else {
                continue;
            };
            let x = op.as_slice();
            for &(k, node, sign) in &pins {
                assert_eq!(
                    x[node].to_bits(),
                    (sign * waveforms[k].2.eval(0.0)).to_bits()
                );
            }
            let res = full_residual(&mut full, x);
            check(&format!("case {case}, DC"), res, (0.0, 0.0));
            let mut y = vec![0.0; system.unknowns()];
            let mut x_ref = vec![0.0; n];
            if solve_tight(&mut system, &mut y) && solve_tight(&mut reference, &mut x_ref) {
                compared += 1;
                check(
                    &format!("case {case}, DC"),
                    res,
                    gap(&ckt, &system.full(&y), &x_ref),
                );
            }

            // Transients from zero under each method: every step's sample
            // against the reference, both systems solved tightly from the
            // previous sample.
            for method in [Method::BackwardEuler, Method::Trapezoidal] {
                let dt = 1e-11;
                let opts = TranOptions::new(12.0 * dt, dt)
                    .unwrap()
                    .with_method(method)
                    .with_ic(Vec::new());
                let Ok(run) = sim.transient(&opts) else {
                    continue;
                };
                if !run.recovery().is_clean() {
                    continue;
                }
                let caps = capacitors(&ckt);
                let sample = |k: usize| run.guess_at(run.times()[k], n).unwrap();
                let mut states: Vec<CapState> = caps
                    .iter()
                    .map(|&(p, q, _)| CapState {
                        v_prev: volt(sample(0), p) - volt(sample(0), q),
                        i_prev: 0.0,
                    })
                    .collect();
                for k in 1..run.len() {
                    let (t_prev, t) = (run.times()[k - 1], run.times()[k]);
                    let m = if k == 1 {
                        Method::BackwardEuler
                    } else {
                        method
                    };
                    sim.install_companions(&mut system, &states, t_prev, t, m)
                        .unwrap();
                    full.time = t;
                    full.companions = system.companions.clone();
                    reference.time = t;
                    reference.companions = system.companions.clone();
                    let x = sample(k);
                    for &(s, node, sign) in &pins {
                        assert_eq!(x[node].to_bits(), (sign * waveforms[s].2.eval(t)).to_bits());
                    }
                    let res = full_residual(&mut full, x);
                    check(
                        &format!("case {case}, {method:?} step {k}"),
                        res,
                        (0.0, 0.0),
                    );
                    let mut y = system.plan.restrict(sample(k - 1));
                    let mut x_ref = sample(k - 1).to_vec();
                    if solve_tight(&mut system, &mut y) && solve_tight(&mut reference, &mut x_ref) {
                        compared += 1;
                        let what = format!("case {case}, {method:?} step {k}");
                        check(&what, res, gap(&ckt, &system.full(&y), &x_ref));
                    }
                    for ((&(p, q, _), state), comp) in
                        caps.iter().zip(&mut states).zip(&full.companions)
                    {
                        let v = volt(x, p) - volt(x, q);
                        *state = CapState {
                            v_prev: v,
                            i_prev: comp.map_or(0.0, |c| m.current(c, v)),
                        };
                    }
                }
            }
        }
        assert!(
            pinned >= 30 && kept >= 30 && compared >= 500,
            "{pinned} pinned and {kept} kept sources, {compared} points compared"
        );
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
        // Per-unknown sampling ranges (`a` is pinned): b, c, s (diode
        // anode, kept below 0.6 V so its exponential stays moderate), vb
        // (reverse body bias), ctl (inside the switch's 0.1 V transition
        // around 1 V), f, then the branch currents of `V2` and `V3`.
        let ranges = [
            (0.0, 2.5),
            (0.0, 2.5),
            (0.0, 0.6),
            (-1.0, -0.2),
            (0.95, 1.05),
            (-0.7, 0.1),
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
