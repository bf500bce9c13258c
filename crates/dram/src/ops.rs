//! The operation engine: runs `w0`/`w1`/`r` sequences through the
//! electrical simulator.
//!
//! Operations are *logic-level*: `W1` writes logic 1, which the write
//! driver encodes as `bt = vdd, bc = 0`. A victim cell on the
//! complementary bit line therefore stores the *inverted* physical level —
//! exactly the true/complementary symmetry the paper's Table 1 reports.
//! Use [`physical_write`] when the analysis needs to set a physical cell
//! level regardless of side.

use crate::column::{nodes, sources, Column};
use crate::design::{BitLineSide, ColumnDesign, OperatingPoint};
use crate::timing::{ControlWaveforms, CycleSchedule};
use crate::DramError;
use dso_num::chaos::FaultPlan;
use dso_spice::circuit::Circuit;
use dso_spice::engine::{Simulator, TranOptions, TranResult};
use dso_spice::recovery::{RecoveryPolicy, RecoveryStats};
use dso_spice::waveform::Waveform;

/// A memory operation on the victim cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Write logic 0.
    W0,
    /// Write logic 1.
    W1,
    /// Read.
    R,
    /// Idle cycle: the row is not activated, the cell floats. Used for
    /// retention (pause) analysis of leak-type defects.
    Nop,
}

impl Operation {
    /// The logic value written, or `None` for reads and idle cycles.
    pub fn write_value(&self) -> Option<bool> {
        match self {
            Operation::W0 => Some(false),
            Operation::W1 => Some(true),
            Operation::R | Operation::Nop => None,
        }
    }

    /// `true` if the cycle activates the row (everything except `Nop`).
    pub fn accesses_row(&self) -> bool {
        !matches!(self, Operation::Nop)
    }

    /// The paper's notation: `w0`, `w1`, `r` (plus `nop` for idle
    /// cycles).
    pub fn label(&self) -> &'static str {
        match self {
            Operation::W0 => "w0",
            Operation::W1 => "w1",
            Operation::R => "r",
            Operation::Nop => "nop",
        }
    }

    /// Folds the operation's discriminant into a content fingerprint.
    pub fn fingerprint_into(&self, fp: &mut dso_num::fingerprint::Fingerprint) {
        fp.write_u8(match self {
            Operation::W0 => 0,
            Operation::W1 => 1,
            Operation::R => 2,
            Operation::Nop => 3,
        });
    }
}

/// Folds an operation sequence (length, then each op) into a content
/// fingerprint. The explicit length prefix keeps `[W1]` + `[W0]` from
/// colliding with `[W1, W0]` across request boundaries.
pub fn fingerprint_ops(ops: &[Operation], fp: &mut dso_num::fingerprint::Fingerprint) {
    fp.write_usize(ops.len());
    for op in ops {
        op.fingerprint_into(fp);
    }
}

impl std::fmt::Display for Operation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The logic write operation that stores the given *physical* level into a
/// victim cell on `side`.
///
/// # Example
///
/// ```
/// use dso_dram::design::BitLineSide;
/// use dso_dram::ops::{physical_write, Operation};
///
/// // Storing a physical high on the complementary bit line requires a
/// // logic 0 write (the data rails are inverted on that side).
/// assert_eq!(physical_write(true, BitLineSide::True), Operation::W1);
/// assert_eq!(physical_write(true, BitLineSide::Comp), Operation::W0);
/// ```
pub fn physical_write(high: bool, side: BitLineSide) -> Operation {
    let logic = match side {
        BitLineSide::True => high,
        BitLineSide::Comp => !high,
    };
    if logic {
        Operation::W1
    } else {
        Operation::W0
    }
}

/// Outcome of one read operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadOutcome {
    /// Logic value delivered at the data output.
    pub logic: bool,
    /// Bit-line differential `v(bt) − v(bc)` at the observation instant.
    pub differential: f64,
}

impl ReadOutcome {
    /// `true` if the *accessed* bit line was sensed high — the physical
    /// cell level the sense amplifier decided on, independent of the
    /// logic-inversion convention of the complementary side.
    pub fn accessed_high(&self, side: BitLineSide) -> bool {
        match side {
            BitLineSide::True => self.logic,
            BitLineSide::Comp => !self.logic,
        }
    }
}

/// Result of one operation cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleResult {
    /// The operation performed.
    pub op: Operation,
    /// Physical cell (capacitor) voltage at the end of the cycle.
    pub vc_end: f64,
    /// Read outcome, for read cycles.
    pub read: Option<ReadOutcome>,
}

/// Full trace of an operation sequence.
#[derive(Debug, Clone)]
pub struct OpTrace {
    cycles: Vec<CycleResult>,
    tran: TranResult,
    storage_node: String,
    tcyc: f64,
    dt: f64,
}

impl OpTrace {
    /// Per-cycle results, in order.
    pub fn cycles(&self) -> &[CycleResult] {
        &self.cycles
    }

    /// Logic values of the read operations, in order (`None` entries are
    /// filtered out — writes produce no read value).
    pub fn read_values(&self) -> Vec<Option<bool>> {
        self.cycles
            .iter()
            .filter(|c| c.op == Operation::R)
            .map(|c| c.read.map(|r| r.logic))
            .collect()
    }

    /// Physical cell voltage at the end of each cycle.
    pub fn vc_ends(&self) -> Vec<f64> {
        self.cycles.iter().map(|c| c.vc_end).collect()
    }

    /// The [`OpTrace::vc_ends`] of the first `k` cycles, bit for bit as a
    /// run of the first `k` operations alone reports them (same engine,
    /// initial voltage and seed), or `None` when this run cannot vouch for
    /// that.
    ///
    /// Up to `k·tcyc` the first `k` operations drive the same control
    /// waveforms as the whole sequence, and a fixed-step transient's steps
    /// do not depend on its stop time, except the last: the `k`-op run's
    /// last step lands on its stop time `k·tcyc`, where this run's step of
    /// the same index lands on `steps·dt`, with `steps = round(k·tcyc /
    /// dt)`. So the prefix is returned only when those two floats are
    /// equal. Its last value is then this run's sample at that step,
    /// interpolated with weight 0 (`va + (vb − va)·0`), which is the sample
    /// bit for bit unless the sample is `−0.0`; a `+0.0` value is declined
    /// for that reason.
    pub fn prefix_vc_ends(&self, k: usize) -> Option<Vec<f64>> {
        let cycles = self.cycles.get(..k).filter(|c| !c.is_empty())?;
        let last = cycles[k - 1].vc_end;
        (on_grid(k, self.tcyc, self.dt) && last.to_bits() != 0)
            .then(|| cycles.iter().map(|c| c.vc_end).collect())
    }

    /// The full storage-node waveform `(t, Vc)` for plotting.
    ///
    /// # Errors
    ///
    /// Propagates signal lookup failures (should not happen for a trace
    /// produced by [`OperationEngine::run`]).
    pub fn storage_waveform(&self) -> Result<(Vec<f64>, Vec<f64>), DramError> {
        let vc = self.tran.voltage(&self.storage_node)?;
        Ok((self.tran.times().to_vec(), vc))
    }

    /// The underlying transient result (all node waveforms).
    pub fn tran(&self) -> &TranResult {
        &self.tran
    }

    /// Convergence-recovery actions the underlying transient needed.
    pub fn recovery(&self) -> &RecoveryStats {
        self.tran.recovery()
    }

    /// The cycle time used for the trace.
    pub fn tcyc(&self) -> f64 {
        self.tcyc
    }
}

/// Whether a fixed-step run with step `dt` reaches `k·tcyc` exactly: the
/// step count a `k`-op run takes, `round(k·tcyc / dt)`, times `dt` is
/// bitwise `k·tcyc`, the stop time that run's last step lands on.
fn on_grid(k: usize, tcyc: f64, dt: f64) -> bool {
    let t_stop = k as f64 * tcyc;
    let steps = (t_stop / dt).round() as usize;
    (steps as f64 * dt).to_bits() == t_stop.to_bits()
}

/// What an operation sequence shows at its last observation instant, from
/// a transient stopped there ([`OperationEngine::observe`]).
#[derive(Debug, Clone)]
pub struct Observation {
    tran: TranResult,
    reads: Vec<ReadOutcome>,
    vc_obs: f64,
}

impl Observation {
    /// The transient prefix: every sample up to the first step past the
    /// last observation instant. It seeds the next observation of the
    /// same sequence.
    pub fn tran(&self) -> &TranResult {
        &self.tran
    }

    /// The outcome of each read, in order.
    pub fn reads(&self) -> &[ReadOutcome] {
        &self.reads
    }

    /// Logic values of the reads, in order.
    pub fn read_values(&self) -> Vec<bool> {
        self.reads.iter().map(|r| r.logic).collect()
    }

    /// Physical cell (cap-top) voltage at the last observation instant.
    pub fn vc_obs(&self) -> f64 {
        self.vc_obs
    }

    /// Convergence-recovery actions the transient prefix needed.
    pub fn recovery(&self) -> &RecoveryStats {
        self.tran.recovery()
    }
}

/// Runs operation sequences on a (possibly defective) column.
#[derive(Debug, Clone)]
pub struct OperationEngine {
    column: Column,
    op_point: OperatingPoint,
    victim: BitLineSide,
    recovery: RecoveryPolicy,
    fault_plan: Option<FaultPlan>,
}

impl OperationEngine {
    /// Builds a fresh column for `design` and binds it to an operating
    /// point. The victim defaults to the true bit line.
    ///
    /// # Errors
    ///
    /// Propagates design validation and netlist construction failures.
    pub fn new(design: ColumnDesign, op_point: OperatingPoint) -> Result<Self, DramError> {
        op_point.validate()?;
        Ok(OperationEngine {
            column: Column::build(&design)?,
            op_point,
            victim: BitLineSide::True,
            recovery: RecoveryPolicy::default(),
            fault_plan: None,
        })
    }

    /// Wraps an existing (e.g. defect-injected) column.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BadOperatingPoint`] if `op_point` is invalid.
    pub fn from_column(column: Column, op_point: OperatingPoint) -> Result<Self, DramError> {
        op_point.validate()?;
        Ok(OperationEngine {
            column,
            op_point,
            victim: BitLineSide::True,
            recovery: RecoveryPolicy::default(),
            fault_plan: None,
        })
    }

    /// Selects which bit line's victim cell the operations target.
    pub fn with_victim(mut self, side: BitLineSide) -> Self {
        self.victim = side;
        self
    }

    /// Sets the convergence-recovery policy handed to the simulator.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Arms a deterministic fault-injection plan. Each [`Self::run`] clones
    /// the plan, so solve ordinals restart from the plan's current counter
    /// on every run (normally zero).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The targeted victim side.
    pub fn victim(&self) -> BitLineSide {
        self.victim
    }

    /// The operating point (stress combination) in force.
    pub fn operating_point(&self) -> &OperatingPoint {
        &self.op_point
    }

    /// Replaces the operating point.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BadOperatingPoint`] if it fails validation.
    pub fn set_operating_point(&mut self, op_point: OperatingPoint) -> Result<(), DramError> {
        op_point.validate()?;
        self.op_point = op_point;
        Ok(())
    }

    /// The column under test.
    pub fn column(&self) -> &Column {
        &self.column
    }

    /// Mutable column access (defect injection).
    pub fn column_mut(&mut self) -> &mut Column {
        &mut self.column
    }

    /// Runs an operation sequence with the victim's physical capacitor
    /// voltage initialized to `vc_init` (volts).
    ///
    /// # Errors
    ///
    /// * [`DramError::BadSequence`] for an empty sequence.
    /// * Electrical convergence failures as [`DramError::Spice`].
    pub fn run(&self, ops_seq: &[Operation], vc_init: f64) -> Result<OpTrace, DramError> {
        self.run_seeded(ops_seq, vc_init, None)
    }

    /// Runs an operation sequence like [`OperationEngine::run`], seeding
    /// each time step's Newton iteration from `seed` — the trace of the
    /// same sequence run under neighboring conditions (e.g. the adjacent
    /// defect resistance of a sweep). See
    /// [`dso_spice::Simulator::transient_seeded`] for the warm-start
    /// contract; a seed from a different sequence or time grid is ignored.
    ///
    /// # Errors
    ///
    /// Same contract as [`OperationEngine::run`].
    pub fn run_seeded(
        &self,
        ops_seq: &[Operation],
        vc_init: f64,
        seed: Option<&OpTrace>,
    ) -> Result<OpTrace, DramError> {
        let _span = op_span(ops_seq);
        let prepared = self.prepare_run(ops_seq, vc_init)?;
        let sim = self.simulator_for(&prepared.ckt);
        let tran = sim.transient_seeded(&prepared.tran_opts, seed.map(|s| s.tran()))?;
        self.extract_trace(ops_seq, tran, &prepared)
    }

    /// Runs `ops_seq` from `vc_init` only up to its last observation
    /// instant (word-line closing) and reports what it shows there: every
    /// read's outcome and the victim's cap-top voltage. The last
    /// observation instant is the last read's, or the last operation's in
    /// a sequence without a read. `seed` warm-starts the transient like
    /// [`Self::run_seeded`]; the prefix of a previous observation of the
    /// same sequence is a valid seed.
    ///
    /// The transient stops at step `k = floor(t_obs / dt) + 2` (capped at
    /// the full run), at time `k as f64 * dt`: the same float the full run
    /// reaches at step `k`. A fixed-step transient's first `k` steps do
    /// not depend on its stop time, so the samples are a bitwise prefix of
    /// the full run's, and every read outcome and the voltage at `t_obs`
    /// equal what [`Self::run_seeded`] reports there.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::run`].
    pub fn observe(
        &self,
        ops_seq: &[Operation],
        vc_init: f64,
        seed: Option<&TranResult>,
    ) -> Result<Observation, DramError> {
        let _span = op_span(ops_seq);
        let mut prepared = self.prepare_run(ops_seq, vc_init)?;
        let (observe_at, tcyc) = (prepared.observe_at, self.op_point.tcyc);
        let t_obs = |k: usize| (k as f64 + observe_at) * tcyc;
        let t_reads: Vec<f64> = (0..ops_seq.len())
            .filter(|&k| ops_seq[k] == Operation::R)
            .map(t_obs)
            .collect();
        let t_last = t_reads
            .last()
            .copied()
            .unwrap_or_else(|| t_obs(ops_seq.len() - 1));
        prepared.stop_after(t_last);
        let tran = self
            .simulator_for(&prepared.ckt)
            .transient_seeded(&prepared.tran_opts, seed)?;
        let reads = t_reads
            .iter()
            .map(|&t| read_outcome(&tran, t))
            .collect::<Result<_, _>>()?;
        let vc_obs = tran.voltage_at(&nodes::cap_top(self.victim), t_last)?;
        Ok(Observation {
            tran,
            reads,
            vc_obs,
        })
    }

    /// Builds the waveform-installed scratch circuit and transient options
    /// for one run of `ops_seq`. Pure netlist/waveform work — no simulator
    /// is involved, so a failure here is deterministic.
    fn prepare_run(&self, ops_seq: &[Operation], vc_init: f64) -> Result<PreparedRun, DramError> {
        let design: &ColumnDesign = self.column.design();
        let op = &self.op_point;
        let waves = ControlWaveforms::build(ops_seq, self.victim, design, op)?;
        let schedule = CycleSchedule::new(op.duty)?;
        let vh = 0.5 * op.vdd;
        let vref_level = vh - design.ref_skew;

        // Install the run's waveforms on a scratch copy of the circuit.
        let mut ckt = self.column.circuit().clone();
        ckt.set_waveform(sources::VDD, Waveform::Dc(op.vdd))?;
        ckt.set_waveform(sources::VBLEQ, Waveform::Dc(vh))?;
        ckt.set_waveform(sources::VREF, Waveform::Dc(vref_level))?;
        ckt.set_waveform(sources::SENN, waves.senn)?;
        ckt.set_waveform(sources::SENP, waves.senp)?;
        ckt.set_waveform(sources::DATAT, waves.data_true)?;
        ckt.set_waveform(sources::DATAC, waves.data_comp)?;
        ckt.set_waveform(sources::PEQ, waves.peq)?;
        ckt.set_waveform(sources::WLT, waves.wl_true)?;
        ckt.set_waveform(sources::WLC, waves.wl_comp)?;
        ckt.set_waveform(sources::WLRT, waves.wlr_true)?;
        ckt.set_waveform(sources::WLRC, waves.wlr_comp)?;
        ckt.set_waveform(sources::CSL, waves.csl)?;

        // Initial conditions: bit lines precharged, victim at vc_init, the
        // twin victim and plain cells storing full 1, references restored.
        let twin = self.victim.other();
        let vpp = op.vdd + design.wl_boost;
        let mut ics: Vec<(String, f64)> = vec![
            (nodes::BT.into(), vh),
            (nodes::BC.into(), vh),
            (nodes::SENN.into(), vh),
            (nodes::SENP.into(), vh),
            (nodes::VDD.into(), op.vdd),
            (nodes::VBLEQ.into(), vh),
            (nodes::VREF.into(), vref_level),
            (nodes::PEQ.into(), vpp),
            (nodes::access_drain(self.victim), vh),
            (nodes::access_drain(twin), vh),
            (nodes::access_source(self.victim), vc_init),
            (nodes::storage(self.victim), vc_init),
            (nodes::cap_top(self.victim), vc_init),
            (nodes::access_source(twin), op.vdd),
            (nodes::storage(twin), op.vdd),
            (nodes::cap_top(twin), op.vdd),
            (nodes::ref_storage(BitLineSide::True), vref_level),
            (nodes::ref_storage(BitLineSide::Comp), vref_level),
        ];
        for side in [BitLineSide::True, BitLineSide::Comp] {
            for i in 0..design.plain_cells_per_bitline {
                ics.push((nodes::plain_storage(side, i), op.vdd));
            }
        }
        // The output buffer input sits at vh initially; bias its output
        // near the corresponding level to help the first solve.
        ics.push((nodes::DOUT.into(), vh));
        ics.push((nodes::DOUTC.into(), vh));

        let dt = design.dt_fraction * op.tcyc;
        let tran_opts = TranOptions::new(waves.t_stop, dt)
            .map_err(DramError::Spice)?
            .with_ic(ics);
        Ok(PreparedRun {
            ckt,
            tran_opts,
            t_stop: waves.t_stop,
            observe_at: schedule.observe_at(),
        })
    }

    /// Builds the simulator for a prepared run's circuit, carrying the
    /// engine's temperature, recovery policy, and armed fault plan.
    fn simulator_for<'a>(&self, ckt: &'a Circuit) -> Simulator<'a> {
        let mut sim = Simulator::new(ckt)
            .with_temperature(self.op_point.temp_c)
            .with_recovery(self.recovery);
        if let Some(plan) = &self.fault_plan {
            sim = sim.with_fault_plan(plan.clone());
        }
        sim
    }

    /// Extracts per-cycle results from a finished transient. The physical
    /// cell voltage is taken at the capacitor plate (`ct`), matching the
    /// paper's "voltage across the cell capacitor".
    fn extract_trace(
        &self,
        ops_seq: &[Operation],
        tran: TranResult,
        prepared: &PreparedRun,
    ) -> Result<OpTrace, DramError> {
        let tcyc = self.op_point.tcyc;
        let storage_node = nodes::cap_top(self.victim);
        let mut cycles = Vec::with_capacity(ops_seq.len());
        for (k, &operation) in ops_seq.iter().enumerate() {
            let t_end = ((k + 1) as f64 * tcyc).min(prepared.t_stop);
            let vc_end = tran.voltage_at(&storage_node, t_end)?;
            let read = if operation == Operation::R {
                let t_obs = (k as f64 + prepared.observe_at) * tcyc;
                Some(read_outcome(&tran, t_obs)?)
            } else {
                None
            };
            cycles.push(CycleResult {
                op: operation,
                vc_end,
                read,
            });
        }
        Ok(OpTrace {
            cycles,
            tran,
            storage_node,
            tcyc,
            dt: prepared.tran_opts.dt,
        })
    }
}

/// Opens the span of one engine run of `ops_seq` and counts the run.
fn op_span(ops_seq: &[Operation]) -> dso_obs::SpanGuard {
    let span = dso_obs::span("dram.op_sequence");
    span.note("ops", ops_seq.len() as f64);
    dso_obs::counter!("dram.op_runs").incr();
    dso_obs::counter!("dram.ops").add(ops_seq.len() as u64);
    span
}

/// The read outcome of a transient at the observation instant `t_obs`:
/// the sign of the bit-line differential there.
fn read_outcome(tran: &TranResult, t_obs: f64) -> Result<ReadOutcome, DramError> {
    let diff = tran.voltage_at(nodes::BT, t_obs)? - tran.voltage_at(nodes::BC, t_obs)?;
    Ok(ReadOutcome {
        logic: diff > 0.0,
        differential: diff,
    })
}

/// Everything an engine run ([`OperationEngine::run_seeded`],
/// [`OperationEngine::observe`]) builds before handing the circuit to the
/// simulator: the waveform-installed scratch circuit, the transient
/// options, and the extraction timing metadata.
struct PreparedRun {
    ckt: Circuit,
    tran_opts: TranOptions,
    t_stop: f64,
    observe_at: f64,
}

impl PreparedRun {
    /// Stops the transient at step `k = floor(t_obs / dt) + 2`, at time
    /// `k as f64 * dt` — the float the full run reaches at step `k` — or
    /// leaves it whole where `k` reaches the full cycle count.
    fn stop_after(&mut self, t_obs: f64) {
        let dt = self.tran_opts.dt;
        let k = (t_obs / dt).floor() as usize + 2;
        if k < (self.t_stop / dt).round() as usize {
            self.tran_opts.t_stop = k as f64 * dt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DefectSite;

    /// A design with a coarser time step to keep debug-mode tests fast.
    fn test_design() -> ColumnDesign {
        ColumnDesign {
            dt_fraction: 1.0 / 300.0,
            ..ColumnDesign::default()
        }
    }

    fn engine(side: BitLineSide) -> OperationEngine {
        OperationEngine::new(test_design(), OperatingPoint::nominal())
            .unwrap()
            .with_victim(side)
    }

    #[test]
    fn operation_labels() {
        assert_eq!(Operation::W0.to_string(), "w0");
        assert_eq!(Operation::W1.write_value(), Some(true));
        assert_eq!(Operation::R.write_value(), None);
    }

    #[test]
    fn physical_write_mapping() {
        assert_eq!(physical_write(false, BitLineSide::True), Operation::W0);
        assert_eq!(physical_write(false, BitLineSide::Comp), Operation::W1);
    }

    #[test]
    fn write_one_then_read_true_side() {
        let trace = engine(BitLineSide::True)
            .run(&[Operation::W1, Operation::R], 0.0)
            .unwrap();
        let vc = trace.vc_ends();
        assert!(vc[0] > 1.8, "w1 should charge the cell high, got {vc:?}");
        assert_eq!(trace.read_values(), vec![Some(true)]);
        // The read restores the level.
        assert!(vc[1] > 1.8, "read-restore failed: {vc:?}");
    }

    #[test]
    fn write_zero_then_read_true_side() {
        let trace = engine(BitLineSide::True)
            .run(&[Operation::W0, Operation::R], 2.4)
            .unwrap();
        let vc = trace.vc_ends();
        assert!(vc[0] < 0.6, "w0 should discharge the cell, got {vc:?}");
        assert_eq!(trace.read_values(), vec![Some(false)]);
    }

    #[test]
    fn comp_side_inverts_physical_level() {
        let trace = engine(BitLineSide::Comp)
            .run(&[Operation::W1, Operation::R], 2.4)
            .unwrap();
        let vc = trace.vc_ends();
        // Logic 1 on the complementary side is a physical low level.
        assert!(vc[0] < 0.6, "comp w1 should store physical 0, got {vc:?}");
        assert_eq!(trace.read_values(), vec![Some(true)]);
        let read = trace.cycles()[1].read.unwrap();
        assert!(!read.accessed_high(BitLineSide::Comp));
    }

    #[test]
    fn read_of_floating_open_cell_resolves_to_one() {
        // With a fully open cell the accessed bit line receives no signal
        // and the skewed reference makes the read resolve to logic 1
        // (paper footnote, Section 3).
        let mut eng = engine(BitLineSide::True);
        eng.column_mut()
            .set_defect_resistance(DefectSite::O3, BitLineSide::True, 1e9)
            .unwrap();
        let trace = eng.run(&[Operation::R], 0.0).unwrap();
        assert_eq!(trace.read_values(), vec![Some(true)]);
    }

    #[test]
    fn open_defect_blocks_w0() {
        let mut eng = engine(BitLineSide::True);
        eng.column_mut()
            .set_defect_resistance(DefectSite::O3, BitLineSide::True, 2e6)
            .unwrap();
        let trace = eng.run(&[Operation::W0], 2.4).unwrap();
        let vc = trace.vc_ends()[0];
        assert!(vc > 1.5, "2 MΩ open should block the 0 write, vc = {vc}");
    }

    #[test]
    fn trace_accessors() {
        let trace = engine(BitLineSide::True).run(&[Operation::R], 2.4).unwrap();
        assert_eq!(trace.cycles().len(), 1);
        assert_eq!(trace.tcyc(), 60e-9);
        let (t, vc) = trace.storage_waveform().unwrap();
        assert_eq!(t.len(), vc.len());
        assert!(t.len() > 100);
        assert!(!trace.tran().is_empty());
    }

    #[test]
    fn observation_is_a_bitwise_prefix_of_the_full_run() {
        use Operation::{Nop, R, W0, W1};
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let read_bits = |r: &ReadOutcome| (r.logic, r.differential.to_bits());
        // (sequence, initial cell voltage, seeded from the previous row):
        // single operations, a read seeded from the read before it (the
        // observed chain seeds from the previous prefix, the full chain
        // from the full run), two reads, a read after a pause, and a read
        // before a last write.
        let rows: [(&[Operation], f64, bool); 7] = [
            (&[R], 0.0, false),
            (&[R], 1.4, true),
            (&[W0], 2.4, false),
            (&[W1], 0.0, false),
            (&[W1, R, W0, R], 0.0, false),
            (&[W1, Nop, R], 0.0, false),
            (&[W0, R, W1], 2.4, false),
        ];
        for (duty, side) in [
            (0.5, BitLineSide::True),
            (0.5, BitLineSide::Comp),
            (0.3, BitLineSide::True),
            (0.3, BitLineSide::Comp),
            (0.8, BitLineSide::True),
            (0.8, BitLineSide::Comp),
        ] {
            let op_point = OperatingPoint {
                duty,
                ..OperatingPoint::nominal()
            };
            let eng = OperationEngine::new(test_design(), op_point)
                .unwrap()
                .with_victim(side);
            let mut prev: Option<(OpTrace, Observation)> = None;
            for (seq, vc_init, seeded) in rows {
                let label = format!("duty {duty}, {side:?}, {seq:?} from {vc_init}");
                let seeds = prev.as_ref().filter(|_| seeded);
                let full = eng
                    .run_seeded(seq, vc_init, seeds.map(|(full, _)| full))
                    .unwrap();
                let obs = eng
                    .observe(seq, vc_init, seeds.map(|(_, obs)| obs.tran()))
                    .unwrap();
                let (short, long) = (obs.tran(), full.tran());
                assert!(short.len() < long.len(), "{label}: did not stop early");
                assert_eq!(
                    bits(short.times()),
                    bits(&long.times()[..short.len()]),
                    "{label}: time grid"
                );
                for node in eng.column().circuit().node_names() {
                    assert_eq!(
                        bits(&short.voltage(node).unwrap()),
                        bits(&long.voltage(node).unwrap()[..short.len()]),
                        "{label}: samples of {node}"
                    );
                }
                let want: Vec<_> = full
                    .cycles()
                    .iter()
                    .filter_map(|c| c.read.as_ref().map(read_bits))
                    .collect();
                let got: Vec<_> = obs.reads().iter().map(read_bits).collect();
                assert_eq!(got, want, "{label}: read outcomes");
                let last = seq.iter().rposition(|&op| op == R).unwrap_or(seq.len() - 1);
                let t_obs =
                    (last as f64 + CycleSchedule::new(duty).unwrap().observe_at()) * op_point.tcyc;
                let vc_full = long.voltage_at(&nodes::cap_top(side), t_obs).unwrap();
                assert_eq!(
                    obs.vc_obs().to_bits(),
                    vc_full.to_bits(),
                    "{label}: vc at t_obs"
                );
                prev = Some((full, obs));
            }
        }
    }

    #[test]
    fn the_grid_reaches_two_cycles_at_the_coarse_time_base() {
        let lands = |fraction: f64, tcyc: f64| on_grid(2, tcyc, fraction * tcyc);
        assert!(lands(1.0 / 250.0, 60e-9));
        assert!(lands(1.0 / 250.0, 55e-9));
        assert!(!lands(1.0 / 600.0, 60e-9));
        assert!(!lands(1.0 / 250.0, 50e-9));
    }

    #[test]
    fn prefix_of_a_run_is_the_shorter_run() {
        use Operation::{W0, W1};
        let design = ColumnDesign {
            dt_fraction: 1.0 / 250.0,
            ..ColumnDesign::default()
        };
        for side in [BitLineSide::True, BitLineSide::Comp] {
            let eng = OperationEngine::new(design.clone(), OperatingPoint::nominal())
                .unwrap()
                .with_victim(side);
            let whole = eng.run(&[W1, W1, W0], 0.0).unwrap();
            for k in 1..=2 {
                let alone = eng.run(&vec![W1; k], 0.0).unwrap().vc_ends();
                let prefix = whole.prefix_vc_ends(k).expect("on the grid");
                assert_eq!(
                    prefix.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    alone.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{side:?}, k = {k}"
                );
            }
            assert_eq!(whole.prefix_vc_ends(0), None);
            assert_eq!(whole.prefix_vc_ends(4), None);
        }
    }

    #[test]
    fn bad_operating_point_rejected() {
        let mut op = OperatingPoint::nominal();
        op.vdd = 9.0;
        assert!(OperationEngine::new(test_design(), op).is_err());
        let mut eng = engine(BitLineSide::True);
        assert!(eng.set_operating_point(op).is_err());
    }

    #[test]
    fn empty_sequence_rejected() {
        let err = engine(BitLineSide::True).run(&[], 0.0).unwrap_err();
        assert!(matches!(err, DramError::BadSequence(_)));
    }
}
