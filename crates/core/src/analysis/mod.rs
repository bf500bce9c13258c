//! Fault analysis (Section 3 of the paper).
//!
//! The central object is the [`Analyzer`], which owns the column design and
//! spins up defect-injected operation engines on demand. All transient
//! measurements flow through the [`crate::eval::EvalService`] built around
//! an analyzer — the analyzer itself only exposes the crate-internal
//! primitives the service executes. On top of it:
//!
//! * [`planes`] — result planes for `w0`/`w1`/`r` (Figures 2 and 6) and the
//!   sense-amplifier threshold curve `Vsa(R)`.
//! * [`border`] — border-resistance extraction.
//! * [`detection`] — detection conditions and their evaluation.
//! * [`dictionary`] — electrically calibrated behavioral cell models.
//! * [`shmoo`] — service-backed shmoo adapters that reuse campaign points.

pub mod border;
pub mod design_space;
pub mod detection;
pub mod dictionary;
pub mod planes;
pub mod shmoo;
pub mod sweep;

pub use border::BorderResistance;
pub use design_space::{
    CoverageCell, DesignParam, DesignReport, DesignSpace, DesignSweepRequest, DesignSweepResult,
    TrendRow,
};
pub use detection::{DetectionCondition, PhysOp};
pub use dictionary::{DefectiveCell, FaultDictionary};
pub use planes::{PlaneCampaign, ReadPlane, ResultPlanes, WritePlane};
pub use sweep::{CampaignFaults, Confidence, PointStatus, SweepPoint, SweepReport};

use crate::CoreError;
use dso_defects::Defect;
use dso_dram::design::{ColumnDesign, OperatingPoint};
use dso_dram::ops::{physical_write, Observation, OpTrace, Operation, OperationEngine};
use dso_num::chaos::FaultPlan;
use dso_num::roots::{bisect_transition_hinted, Hint, Scale};
use dso_num::NumError;
use dso_spice::recovery::{RecoveryPolicy, RecoveryStats};

/// The unreported `w1` writes a `w0` settle run starts with
/// ([`Analyzer::settle_trace`]).
const SETUP_WRITES: usize = 2;

/// Analysis front end: owns the column design and recovery policy, builds
/// defect-injected engines, and implements the elementary measurements the
/// [`crate::eval::EvalService`] executes. Analysis layers never call the
/// measurement primitives directly — they submit requests to the service,
/// which memoizes and batches them.
#[derive(Debug, Clone)]
pub struct Analyzer {
    design: ColumnDesign,
    recovery: RecoveryPolicy,
}

impl Analyzer {
    /// Creates an analyzer for a column design, with the default
    /// convergence-recovery policy (every ladder rung enabled).
    pub fn new(design: ColumnDesign) -> Self {
        Analyzer {
            design,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Replaces the convergence-recovery policy applied to every engine
    /// this analyzer builds.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Former solver-tuning setter; the solver has one configuration, so
    /// this has no effect.
    #[deprecated(note = "the solver has one configuration; this has no effect")]
    #[allow(deprecated)]
    pub fn with_tuning(self, _tuning: dso_spice::SolverTuning) -> Self {
        self
    }

    /// The column design under analysis.
    pub fn design(&self) -> &ColumnDesign {
        &self.design
    }

    /// The convergence-recovery policy in use.
    pub fn recovery(&self) -> &RecoveryPolicy {
        &self.recovery
    }

    /// Builds an operation engine with `defect` injected at `resistance`,
    /// targeting the defect's bit-line side, at the given operating point,
    /// with an optional fault plan armed on the engine (each run clones
    /// the plan, so solve ordinals restart per run).
    pub(crate) fn engine_with(
        &self,
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        faults: Option<&FaultPlan>,
    ) -> Result<OperationEngine, CoreError> {
        let mut engine = OperationEngine::new(self.design.clone(), *op_point)?
            .with_victim(defect.side())
            .with_recovery(self.recovery);
        if let Some(plan) = faults {
            engine = engine.with_fault_plan(plan.clone());
        }
        defect.inject(engine.column_mut(), resistance)?;
        Ok(engine)
    }

    /// Runs `n_ops` consecutive physical writes of `high` and returns the
    /// cell voltage after each — the settlement curves of the write planes
    /// — together with the run's full [`OpTrace`] so campaign layers can
    /// chain warm-start seeds across a sweep.
    ///
    /// The trajectories mirror the detection-condition flow
    /// `{... w1 w1 w0 r0 ...}` (which starts from a discharged cell):
    ///
    /// * `w1` trajectories start from physical GND directly,
    /// * `w0` trajectories start from the *`w1`-settled* level — two `w1`
    ///   operations from GND are applied first and not reported.
    ///
    /// So a `w0` trace begins with the `w1` run of up to two operations:
    /// where its time grid allows, [`Analyzer::w1_settle_in`] reads that
    /// run's values off it instead of simulating them again.
    ///
    /// This makes the `(1) w0 × Vsa` curve intersection directly
    /// comparable with the pass/fail border bisection; starting the `w0`
    /// plane from the ideal `vdd` rail instead (as an idealized reading of
    /// the paper's Figure 2 would) overstates the charge the write has to
    /// remove whenever the settled 1-level sits below the rail.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures, wrapped with campaign context
    /// ([`CoreError::AtPoint`]).
    #[allow(clippy::too_many_arguments)] // campaign plumbing: faults + seed + stats
    pub(crate) fn settle_trace(
        &self,
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        high: bool,
        n_ops: usize,
        faults: Option<&FaultPlan>,
        seed: Option<&OpTrace>,
        stats: &mut RecoveryStats,
    ) -> Result<(Vec<f64>, OpTrace), CoreError> {
        if n_ops == 0 {
            return Err(CoreError::BadRequest("n_ops must be positive".into()));
        }
        let engine = self.engine_with(defect, resistance, op_point, faults)?;
        let target = physical_write(high, defect.side());
        let mut seq = Vec::with_capacity(n_ops + 2);
        let skip = if high {
            0
        } else {
            let setup = physical_write(true, defect.side());
            seq.extend(std::iter::repeat_n(setup, SETUP_WRITES));
            SETUP_WRITES
        };
        seq.extend(std::iter::repeat_n(target, n_ops));
        let operation = if high { "w1 settle" } else { "w0 settle" };
        let trace = engine
            .run_seeded(&seq, 0.0, seed)
            .map_err(|e| CoreError::at_point(operation, resistance, Some(0.0), e.into()))?;
        stats.merge(trace.recovery());
        Ok((trace.vc_ends()[skip..].to_vec(), trace))
    }

    /// The values of the `w1` settle run of `n_ops` operations read off
    /// `w0_trace`, the `w0` settle run at the same point, whose setup
    /// writes are that run: `None` unless `n_ops` is at most the setup
    /// writes and the trace's time grid reaches their end
    /// ([`OpTrace::prefix_vc_ends`]). The values are the `w1` run's bit for
    /// bit only when the two runs' seeds agree over the `w1` run's steps;
    /// the caller checks that.
    pub(crate) fn w1_settle_in(w0_trace: &OpTrace, n_ops: usize) -> Option<Vec<f64>> {
        if n_ops > SETUP_WRITES {
            return None;
        }
        w0_trace.prefix_vc_ends(n_ops)
    }

    /// The cell voltage at the *end of the write pulse* (word-line
    /// closing) of a single physical write of `high`, starting from the
    /// opposite rail.
    ///
    /// This isolates the write's strength from whatever the defect does to
    /// the stored charge during the rest of the cycle — the quantity the
    /// paper's stress probes reason about ("reducing `tcyc` reduces the
    /// time the memory has to charge or discharge the cell, which affects
    /// the write operation and not the read"). The transient stops at
    /// word-line closing ([`OperationEngine::observe`]); its value is
    /// bit-identical to the same instant of a full-cycle run.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub(crate) fn write_end_voltage(
        &self,
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        high: bool,
        faults: Option<&FaultPlan>,
        stats: &mut RecoveryStats,
    ) -> Result<f64, CoreError> {
        let engine = self.engine_with(defect, resistance, op_point, faults)?;
        let op = physical_write(high, defect.side());
        let vc_init = if high { 0.0 } else { op_point.vdd };
        let operation = if high { "w1 probe" } else { "w0 probe" };
        let observed = engine
            .observe(&[op], vc_init, None)
            .map_err(|e| CoreError::at_point(operation, resistance, Some(vc_init), e.into()))?;
        stats.merge(observed.recovery());
        Ok(observed.vc_obs())
    }

    /// The sense-amplifier threshold voltage `Vsa`: the initial cell
    /// voltage above which a read senses the accessed bit line high. Found
    /// by bisection of `[0, vdd]` on single-read outcomes, down to cells of
    /// at most [`VSA_RESOLUTION`] (the absolute-width lattice of
    /// [`Scale::LinearAbsolute`]), each read's transient stopped at its
    /// observation instant ([`OperationEngine::observe`]: the outcome is
    /// bit-identical to a full-cycle read's). With `warm_probes` each
    /// probe's transient is seeded from the previous probe's prefix (same
    /// resistance, same time grid, only the initial cell voltage differs —
    /// the chain is local to this one bisection, so it never couples sweep
    /// points).
    ///
    /// With a `hint` (a nearby `Vsa`, e.g. the previous sweep point's) the
    /// search starts from the lattice cell of [`VSA_HINT_CELL_WIDTH`]
    /// around it ([`bisect_transition_hinted`]) and reads only that cell's
    /// ends and its sub-levels when the threshold lies inside. The read
    /// outcome being monotone in the cell voltage, the result is the
    /// unhinted one, bit for bit; only the reads spent (and the
    /// `RecoveryStats` they accrue) differ.
    ///
    /// Returns `0.0` when even a fully discharged cell reads high (the
    /// paper's `Vsa → GND` limit for large opens) and `vdd` when even a
    /// full cell reads low.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures, wrapped with campaign context
    /// ([`CoreError::AtPoint`]).
    #[allow(clippy::too_many_arguments)] // campaign plumbing: faults + warm start + stats
    pub(crate) fn vsa_probed(
        &self,
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        faults: Option<&FaultPlan>,
        warm_probes: bool,
        hint: Option<f64>,
        stats: &mut RecoveryStats,
    ) -> Result<f64, CoreError> {
        let engine = self.engine_with(defect, resistance, op_point, faults)?;
        let mut last: Option<Observation> = None;
        let mut failure = None;
        let mut zero_reads_high = false;
        let hint = hint.map(|at| Hint {
            at,
            min_cell_span: VSA_HINT_CELL_WIDTH,
        });
        let search = bisect_transition_hinted(
            0.0,
            op_point.vdd,
            VSA_RESOLUTION,
            Scale::LinearAbsolute,
            hint,
            |vc| {
                let seed = if warm_probes { last.as_ref() } else { None };
                let read = engine
                    .observe(&[Operation::R], vc, seed.map(Observation::tran))
                    .map_err(|e| {
                        CoreError::at_point("read threshold", resistance, Some(vc), e.into())
                    })
                    .map(|observed| {
                        stats.merge(observed.recovery());
                        // A single read observes exactly one outcome.
                        let high = observed.reads()[0].accessed_high(defect.side());
                        last = Some(observed);
                        high
                    });
                match read {
                    Ok(high) => {
                        zero_reads_high |= vc == 0.0 && high;
                        Ok(high)
                    }
                    Err(e) => {
                        failure = Some(e);
                        Err(NumError::InvalidArgument("threshold read failed".into()))
                    }
                }
            },
        );
        if let Some(e) = failure {
            return Err(e);
        }
        match search {
            Ok(transition) => Ok(transition.midpoint()),
            // The bracket fails only at its ends: a read high at 0 V, or
            // one low at `vdd`.
            Err(NumError::InvalidBracket { .. }) if zero_reads_high => Ok(0.0),
            Err(NumError::InvalidBracket { .. }) => Ok(op_point.vdd),
            Err(e) => Err(e.into()),
        }
    }
}

/// Width (volts) the `Vsa` bisection stops at: cells of at most 2 mV.
pub(crate) const VSA_RESOLUTION: f64 = 2e-3;

/// Smallest width (volts) of the lattice cell a hinted `Vsa` search starts
/// from ([`Analyzer::vsa_probed`]): 37.5 mV cells on `[0, 2.4 V]`. In
/// perfbench's traced `planes` and `table1` passes, 5, 10 and 20 mV cost
/// solve attempts within 1 % of each other and 40 mV 1 % more; the widest
/// of the flat range lets the hint cell hold the most of the larger `Vsa`
/// moves (stress probes, the steep part of a sweep).
pub(crate) const VSA_HINT_CELL_WIDTH: f64 = 0.02;

#[cfg(test)]
pub(crate) mod test_support {
    use dso_dram::design::ColumnDesign;

    /// Coarse time step for debug-mode tests.
    pub fn fast_design() -> ColumnDesign {
        ColumnDesign {
            dt_fraction: 1.0 / 250.0,
            ..ColumnDesign::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::fast_design;
    use super::*;
    use crate::eval::EvalService;
    use dso_defects::BitLineSide;

    fn service() -> EvalService {
        EvalService::new(Analyzer::new(fast_design()))
    }

    #[test]
    fn settlement_moves_toward_rail() {
        let svc = service();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        // Mild defect: writes settle essentially immediately.
        let vcs = svc.settle_sequence(&defect, 1e3, &op, false, 2).unwrap();
        assert!(vcs[0] < 0.3, "w0 with small Rop should succeed: {vcs:?}");
        let w1 = svc.settle_sequence(&defect, 1e3, &op, true, 2).unwrap();
        assert!(w1[0] > 1.5, "w1 with small Rop should charge: {w1:?}");
        // Severe defect: the w1 pre-charge is blocked, so the whole
        // detection flow freezes near GND.
        let w1_blocked = svc.settle_sequence(&defect, 5e7, &op, true, 2).unwrap();
        assert!(
            w1_blocked[1] < 0.3,
            "w1 with 50 MΩ open should be blocked: {w1_blocked:?}"
        );
        // Moderate defect: the w0 after the settled 1 leaves a higher
        // residual than the healthy case — the failure mechanism of the
        // cell open.
        let healthy_w0 = vcs[0];
        let marginal_w0 = svc.settle_sequence(&defect, 2.5e6, &op, false, 1).unwrap()[0];
        assert!(
            marginal_w0 > healthy_w0 + 0.2,
            "2.5 MΩ open should block the w0: {marginal_w0} vs {healthy_w0}"
        );
    }

    #[test]
    fn vsa_limits() {
        let svc = service();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        // Healthy-ish cell: threshold strictly inside (0, vdd), near vdd/2.
        let vsa = svc.vsa(&defect, 1e3, &op).unwrap();
        assert!(
            (0.5..1.9).contains(&vsa),
            "nominal Vsa should be near mid-rail, got {vsa}"
        );
        // Severed cell: everything reads 1 -> threshold collapses to GND.
        let vsa_open = svc.vsa(&defect, 1e9, &op).unwrap();
        assert_eq!(vsa_open, 0.0);
        // Vmp uses the defect-free site.
        let vmp = svc.vmp(&defect, &op).unwrap();
        assert!((vmp - vsa).abs() < 0.3);
    }

    #[test]
    fn comp_side_symmetric_vsa() {
        let svc = service();
        let op = OperatingPoint::nominal();
        let vsa_t = svc
            .vsa(&Defect::cell_open(BitLineSide::True), 1e3, &op)
            .unwrap();
        let vsa_c = svc
            .vsa(&Defect::cell_open(BitLineSide::Comp), 1e3, &op)
            .unwrap();
        assert!(
            (vsa_t - vsa_c).abs() < 0.15,
            "true/comp thresholds should match: {vsa_t} vs {vsa_c}"
        );
    }

    #[test]
    fn read_sequence_reports_outcomes() {
        let svc = service();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let (vcs, highs) = svc.read_sequence(&defect, 1e3, &op, 2.4, 2).unwrap();
        assert_eq!(vcs.len(), 2);
        assert_eq!(highs, vec![true, true]);
        let (_, lows) = svc.read_sequence(&defect, 1e3, &op, 0.0, 1).unwrap();
        assert_eq!(lows, vec![false]);
    }

    /// Full-cycle reference for [`Analyzer::vsa_probed`]: the same plain
    /// bisection over whole-cycle `run_seeded` reads, each seeded (when
    /// `warm`) from the previous read's full trace.
    fn reference_vsa(
        analyzer: &Analyzer,
        defect: &Defect,
        resistance: f64,
        op: &OperatingPoint,
        warm: bool,
    ) -> f64 {
        let engine = analyzer.engine_with(defect, resistance, op, None).unwrap();
        let mut last: Option<OpTrace> = None;
        let mut reads_high = |vc: f64| {
            let seed = if warm { last.as_ref() } else { None };
            let trace = engine.run_seeded(&[Operation::R], vc, seed).unwrap();
            let high = trace.cycles()[0].read.unwrap().accessed_high(defect.side());
            last = Some(trace);
            high
        };
        if reads_high(0.0) {
            return 0.0;
        }
        if !reads_high(op.vdd) {
            return op.vdd;
        }
        let (mut lo, mut hi) = (0.0, op.vdd);
        while hi - lo > 2e-3 {
            let mid = 0.5 * (lo + hi);
            if reads_high(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Full-cycle reference for [`Analyzer::write_end_voltage`]: the
    /// cap-top voltage of a whole-cycle write run at word-line closing.
    fn reference_write_end(
        analyzer: &Analyzer,
        defect: &Defect,
        resistance: f64,
        op: &OperatingPoint,
        high: bool,
    ) -> f64 {
        let engine = analyzer.engine_with(defect, resistance, op, None).unwrap();
        let vc_init = if high { 0.0 } else { op.vdd };
        let trace = engine
            .run(&[physical_write(high, defect.side())], vc_init)
            .unwrap();
        let t_wl_off = dso_dram::timing::CycleSchedule::new(op.duty)
            .unwrap()
            .wl_off
            * op.tcyc;
        let storage = dso_dram::column::nodes::cap_top(defect.side());
        trace.tran().voltage_at(&storage, t_wl_off).unwrap()
    }

    #[test]
    fn observed_probes_equal_full_cycle_reference() {
        let analyzer = Analyzer::new(fast_design());
        let nominal = OperatingPoint::nominal();
        let wide = OperatingPoint {
            duty: 0.8,
            ..nominal
        };
        let true_open = Defect::cell_open(BitLineSide::True);
        let comp_open = Defect::cell_open(BitLineSide::Comp);
        // (defect, resistance, operating point, warm probes); the 1 GΩ
        // open takes the early `Vsa → GND` return after one read.
        let vsa_cases = [
            (true_open, 1e6, nominal, true),
            (true_open, 1e6, nominal, false),
            (comp_open, 1e6, wide, true),
            (comp_open, 1e6, nominal, false),
            (true_open, 1e9, nominal, true),
        ];
        for (defect, r, op, warm) in vsa_cases {
            let mut stats = RecoveryStats::default();
            let got = analyzer
                .vsa_probed(&defect, r, &op, None, warm, None, &mut stats)
                .unwrap();
            let want = reference_vsa(&analyzer, &defect, r, &op, warm);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "Vsa of {defect} at {r:e} Ω, duty {}, warm {warm}: {got} vs {want}",
                op.duty
            );
        }
        assert_eq!(
            analyzer
                .vsa_probed(
                    &true_open,
                    1e9,
                    &nominal,
                    None,
                    true,
                    None,
                    &mut RecoveryStats::default()
                )
                .unwrap(),
            0.0
        );
        for defect in [true_open, comp_open] {
            for op in [nominal, wide] {
                for high in [false, true] {
                    let got = analyzer
                        .write_end_voltage(
                            &defect,
                            1e6,
                            &op,
                            high,
                            None,
                            &mut RecoveryStats::default(),
                        )
                        .unwrap();
                    let want = reference_write_end(&analyzer, &defect, 1e6, &op, high);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "write end of {defect}, duty {}, high {high}: {got} vs {want}",
                        op.duty
                    );
                }
            }
        }
    }

    #[test]
    fn hinted_vsa_equals_unhinted() {
        let analyzer = Analyzer::new(fast_design());
        let nominal = OperatingPoint::nominal();
        let wide = OperatingPoint {
            duty: 0.8,
            ..nominal
        };
        let vsa = |defect: &Defect, r: f64, op: &OperatingPoint, warm: bool, hint| {
            let mut stats = RecoveryStats::default();
            let v = analyzer
                .vsa_probed(defect, r, op, None, warm, hint, &mut stats)
                .unwrap();
            (v, stats.solve_attempts)
        };
        for side in [BitLineSide::True, BitLineSide::Comp] {
            let defect = Defect::cell_open(side);
            for op in [nominal, wide] {
                for warm in [false, true] {
                    let (plain, plain_cost) = vsa(&defect, 1e6, &op, warm, None);
                    let label = format!("{defect}, duty {}, warm {warm}", op.duty);
                    // In the final cell, next to it, far off, at 0 V and
                    // above `vdd`.
                    for hint in [plain, plain + 0.015, plain - 0.3, 0.0, op.vdd + 1.0] {
                        let (got, cost) = vsa(&defect, 1e6, &op, warm, Some(hint));
                        assert_eq!(got.to_bits(), plain.to_bits(), "{label}, hint {hint}");
                        if hint == plain {
                            assert!(cost < plain_cost, "{label}: {cost} vs {plain_cost}");
                        }
                    }
                }
            }
        }
        // The `Vsa → GND` return, with hints that read high at both ends
        // of their cell.
        let open = Defect::cell_open(BitLineSide::True);
        for hint in [None, Some(0.0), Some(1.2), Some(9.0)] {
            assert_eq!(
                vsa(&open, 1e9, &nominal, true, hint).0,
                0.0,
                "hint {hint:?}"
            );
        }
    }

    #[test]
    fn zero_ops_rejected() {
        let svc = service();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        assert!(svc.settle_sequence(&defect, 1e3, &op, true, 0).is_err());
        assert!(svc.read_sequence(&defect, 1e3, &op, 0.0, 0).is_err());
    }
}
