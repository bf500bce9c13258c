//! Electrically calibrated fault dictionaries.
//!
//! March tests operate on a functional memory model; the defective cell's
//! behavior must nevertheless follow the electrics. A [`FaultDictionary`]
//! samples, from transient simulations, the *cell-voltage update maps* of
//! the three operations —
//! `Vc → Vc'` under a physical `w1`, a physical `w0`, and a read (with its
//! write-back) — plus the sense threshold. A [`DefectiveCell`] then tracks
//! a continuous hidden cell voltage through any operation sequence at
//! functional-simulation speed, reproducing multi-operation effects like
//! "two `w1`s are needed before the `w0` under test".

use crate::eval::EvalService;
use crate::CoreError;
use dso_defects::Defect;
use dso_dram::behavior::CellBehavior;
use dso_dram::design::{BitLineSide, OperatingPoint};
use dso_dram::ops::Operation;
use dso_num::interp::{linspace, Curve};

/// Sampled operation-update maps of a defective cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultDictionary {
    side: BitLineSide,
    vdd: f64,
    /// `Vc → Vc'` for a physical high write.
    write_high: Curve,
    /// `Vc → Vc'` for a physical low write.
    write_low: Curve,
    /// `Vc → Vc'` for a read (including write-back).
    read_update: Curve,
    /// `Vc → Vc'` across one idle (unaccessed) cycle — the retention map.
    idle_update: Curve,
    /// Sense threshold: reads with `Vc > vsa` sense the accessed line
    /// high.
    vsa: f64,
}

impl FaultDictionary {
    /// The bit-line side the dictionary was calibrated for.
    pub fn side(&self) -> BitLineSide {
        self.side
    }

    /// The sense threshold.
    pub fn vsa(&self) -> f64 {
        self.vsa
    }

    /// The cell voltage after applying one logic operation at cell voltage
    /// `vc`, together with the logic read value if the operation is a
    /// read.
    pub fn apply(&self, op: Operation, vc: f64) -> (f64, Option<bool>) {
        match op {
            Operation::W0 | Operation::W1 => {
                let logic = op == Operation::W1;
                let physical_high = match self.side {
                    BitLineSide::True => logic,
                    BitLineSide::Comp => !logic,
                };
                let curve = if physical_high {
                    &self.write_high
                } else {
                    &self.write_low
                };
                (curve.eval_clamped(vc), None)
            }
            Operation::R => {
                let accessed_high = vc > self.vsa;
                let logic = match self.side {
                    BitLineSide::True => accessed_high,
                    BitLineSide::Comp => !accessed_high,
                };
                (self.read_update.eval_clamped(vc), Some(logic))
            }
            Operation::Nop => (self.idle_update.eval_clamped(vc), None),
        }
    }
}

/// Builds a dictionary for `defect` at `resistance` under `op_point`,
/// sampling each update map at `samples` cell voltages. Every sample is a
/// cacheable single-operation request, so rebuilding a dictionary (or
/// overlapping its samples with another workload) on the same
/// [`EvalService`] replays from the cache.
///
/// # Errors
///
/// * [`CoreError::BadRequest`] if `samples < 2`.
/// * Simulation failures.
pub(crate) fn build_dictionary(
    service: &EvalService,
    defect: &Defect,
    resistance: f64,
    op_point: &OperatingPoint,
    samples: usize,
) -> Result<FaultDictionary, CoreError> {
    if samples < 2 {
        return Err(CoreError::BadRequest(
            "dictionary needs at least two samples".into(),
        ));
    }
    let vcs = linspace(0.0, op_point.vdd, samples)?;
    let side = defect.side();

    let sample_map = |seq: &[Operation]| -> Result<Curve, CoreError> {
        let mut out = Vec::with_capacity(vcs.len());
        for &vc in &vcs {
            out.push(service.end_voltage_of(defect, resistance, op_point, seq, vc)?);
        }
        Curve::new(vcs.clone(), out).map_err(CoreError::from)
    };

    let w_high = sample_map(&[dso_dram::ops::physical_write(true, side)])?;
    let w_low = sample_map(&[dso_dram::ops::physical_write(false, side)])?;
    let r_update = sample_map(&[Operation::R])?;
    let idle_update = sample_map(&[Operation::Nop])?;
    let vsa = service.vsa(defect, resistance, op_point)?;

    Ok(FaultDictionary {
        side,
        vdd: op_point.vdd,
        write_high: w_high,
        write_low: w_low,
        read_update: r_update,
        idle_update,
        vsa,
    })
}

/// A defective cell driven by a [`FaultDictionary`], usable as the victim
/// in a functional memory.
#[derive(Debug, Clone)]
pub struct DefectiveCell {
    dictionary: FaultDictionary,
    vc: f64,
    power_up: f64,
}

impl DefectiveCell {
    /// Creates a cell with the given power-up voltage (commonly `0.0`).
    pub fn new(dictionary: FaultDictionary, power_up: f64) -> Self {
        DefectiveCell {
            dictionary,
            vc: power_up,
            power_up,
        }
    }

    /// The hidden cell voltage.
    pub fn cell_voltage(&self) -> f64 {
        self.vc
    }
}

impl CellBehavior for DefectiveCell {
    fn write(&mut self, value: bool) {
        let op = if value { Operation::W1 } else { Operation::W0 };
        let (vc, _) = self.dictionary.apply(op, self.vc);
        self.vc = vc;
    }

    fn read(&mut self) -> bool {
        let (vc, logic) = self.dictionary.apply(Operation::R, self.vc);
        self.vc = vc;
        logic.expect("read always yields a value")
    }

    fn reset(&mut self) {
        self.vc = self.power_up;
    }

    fn idle(&mut self) {
        let (vc, _) = self.dictionary.apply(Operation::Nop, self.vc);
        self.vc = vc;
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::fast_design;
    use super::super::Analyzer;
    use super::*;
    use dso_defects::BitLineSide;

    fn fast_service() -> EvalService {
        EvalService::new(Analyzer::new(fast_design()))
    }

    fn dictionary(resistance: f64) -> FaultDictionary {
        let service = fast_service();
        let defect = Defect::cell_open(BitLineSide::True);
        build_dictionary(&service, &defect, resistance, &OperatingPoint::nominal(), 5).unwrap()
    }

    #[test]
    fn healthy_dictionary_behaves_ideally() {
        let dict = dictionary(1e3);
        let mut cell = DefectiveCell::new(dict, 0.0);
        assert!(!cell.read());
        cell.write(true);
        assert!(cell.read());
        assert!(cell.cell_voltage() > 1.8);
        cell.write(false);
        assert!(!cell.read());
        cell.reset();
        assert_eq!(cell.cell_voltage(), 0.0);
    }

    #[test]
    fn open_dictionary_shows_transition_fault() {
        // At a resistance well above the border, a single w0 after a full
        // 1 cannot pull the cell below the threshold: the cell reads 1.
        let dict = dictionary(3e6);
        let mut cell = DefectiveCell::new(dict, 2.4);
        cell.write(false);
        assert!(
            cell.read(),
            "severe open: the 0 write is blocked and the read returns 1"
        );
    }

    #[test]
    fn dictionary_apply_reports_reads() {
        let dict = dictionary(1e3);
        let (vc, logic) = dict.apply(Operation::R, 2.4);
        assert_eq!(logic, Some(true));
        assert!(vc > 1.5, "read restores a full 1, got {vc}");
        let (_, logic) = dict.apply(Operation::R, 0.0);
        assert_eq!(logic, Some(false));
        let (vc, logic) = dict.apply(Operation::W1, 0.0);
        assert_eq!(logic, None);
        assert!(vc > 1.5);
    }

    #[test]
    fn comp_side_inverts_logic() {
        let service = fast_service();
        let defect = Defect::cell_open(BitLineSide::Comp);
        let dict = build_dictionary(&service, &defect, 1e3, &OperatingPoint::nominal(), 5).unwrap();
        let mut cell = DefectiveCell::new(dict, 0.0);
        // Physical 0 on the comp side is logic 1.
        assert!(cell.read());
        cell.write(false);
        assert!(!cell.read());
        assert!(
            cell.cell_voltage() > 1.8,
            "logic 0 on comp is physical high: {}",
            cell.cell_voltage()
        );
    }

    #[test]
    fn sample_count_validated() {
        let service = fast_service();
        let defect = Defect::cell_open(BitLineSide::True);
        assert!(build_dictionary(&service, &defect, 1e3, &OperatingPoint::nominal(), 1).is_err());
    }
}
