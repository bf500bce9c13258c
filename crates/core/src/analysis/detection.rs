//! Detection conditions.
//!
//! A detection condition is the short operation sequence a march element
//! embeds to expose a defect — e.g. `{... w1 w1 w0 r0 ...}` for the paper's
//! cell open, where the two `w1`s are needed to charge the cell fully
//! before the `w0` under test. Conditions are specified in *physical*
//! terms (high/low cell levels); the translation to logic operations and
//! expected logic read values depends on the bit-line side, which yields
//! exactly the 1s↔0s interchange Table 1 shows between true and
//! complementary defects.

use crate::eval::EvalService;
use crate::CoreError;
use dso_defects::{Defect, DefectClass};
use dso_dram::design::{BitLineSide, OperatingPoint};
use dso_dram::ops::{physical_write, Operation};
use std::fmt;

/// One step of a physical detection condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhysOp {
    /// Write a physical level (`true` = cell capacitor high).
    Write {
        /// The physical level written.
        high: bool,
    },
    /// Read, expecting the accessed bit line to sense this physical level.
    Read {
        /// The expected physical level.
        expect_high: bool,
    },
    /// Idle (pause) cycles: the cell floats and leak-type defects drain
    /// it — the classical data-retention test element.
    Pause {
        /// Number of idle cycles.
        cycles: usize,
    },
}

/// A physical detection condition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DetectionCondition {
    ops: Vec<PhysOp>,
}

impl DetectionCondition {
    /// Creates a condition from physical steps.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadRequest`] if the sequence is empty or
    /// contains no read (nothing would be observed).
    pub fn new(ops: Vec<PhysOp>) -> Result<Self, CoreError> {
        if ops.is_empty() {
            return Err(CoreError::BadRequest(
                "detection condition must not be empty".into(),
            ));
        }
        if !ops.iter().any(|o| matches!(o, PhysOp::Read { .. })) {
            return Err(CoreError::BadRequest(
                "detection condition needs at least one read".into(),
            ));
        }
        Ok(DetectionCondition { ops })
    }

    /// The default condition for a defect class, with `settling_writes`
    /// repetitions of the set-up write:
    ///
    /// * opens — `w1 × k, w0, r0`: charge high, attempt the blocked `w0`,
    ///   expect to read the 0 back,
    /// * short-to-ground — `w1 × k, r1`: the cell leaks low, expect to
    ///   read the 1 back,
    /// * short-to-vdd — `w0 × k, r0`: the cell is pulled high,
    /// * bridges — `w1 × k, r1, w0 × k, r0`: both levels are checked
    ///   because strong and moderate bridges fail opposite reads.
    ///
    /// # Panics
    ///
    /// Never panics: the constructed sequences are always valid.
    pub fn default_for(defect: &Defect, settling_writes: usize) -> Self {
        let k = settling_writes.max(1);
        use dso_dram::column::DefectSite;
        let mut ops = Vec::new();
        match defect.class() {
            DefectClass::Open => {
                ops.extend(std::iter::repeat_n(PhysOp::Write { high: true }, k));
                ops.push(PhysOp::Write { high: false });
                ops.push(PhysOp::Read { expect_high: false });
            }
            DefectClass::Short => {
                if defect.site() == DefectSite::Sg {
                    ops.extend(std::iter::repeat_n(PhysOp::Write { high: true }, k));
                    ops.push(PhysOp::Read { expect_high: true });
                } else {
                    ops.extend(std::iter::repeat_n(PhysOp::Write { high: false }, k));
                    ops.push(PhysOp::Read { expect_high: false });
                }
            }
            DefectClass::Bridge => {
                // Bridges have two failure modes with disjoint resistance
                // bands: a strong bridge disturbs the *read* of one level
                // (the bridged line drags the cell during the access) while
                // a moderate bridge leaks the *stored* opposite level away
                // between operations. Checking both levels makes the
                // pass/fail outcome monotone in R again.
                ops.extend(std::iter::repeat_n(PhysOp::Write { high: true }, k));
                ops.push(PhysOp::Read { expect_high: true });
                ops.extend(std::iter::repeat_n(PhysOp::Write { high: false }, k));
                ops.push(PhysOp::Read { expect_high: false });
            }
        }
        DetectionCondition::new(ops).expect("default conditions are well-formed")
    }

    /// A data-retention condition: write a level, pause for `cycles` idle
    /// cycles, read the level back — `{... w1 del r1 ...}` in the march
    /// literature's delay notation. Exposes leak-type defects (shorts,
    /// bridges) too weak for back-to-back operations.
    ///
    /// # Panics
    ///
    /// Never panics: the constructed sequence is always valid.
    pub fn retention(high: bool, cycles: usize) -> Self {
        DetectionCondition::new(vec![
            PhysOp::Write { high },
            PhysOp::Pause {
                cycles: cycles.max(1),
            },
            PhysOp::Read { expect_high: high },
        ])
        .expect("retention conditions are well-formed")
    }

    /// The physical steps.
    pub fn ops(&self) -> &[PhysOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Always `false` (a condition holds at least a read).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The physical level of the *final* write before the first read — the
    /// operation the defect is stressed against.
    pub fn critical_write(&self) -> Option<bool> {
        let first_read = self
            .ops
            .iter()
            .position(|o| matches!(o, PhysOp::Read { .. }))?;
        self.ops[..first_read].iter().rev().find_map(|o| match o {
            PhysOp::Write { high } => Some(*high),
            PhysOp::Read { .. } | PhysOp::Pause { .. } => None,
        })
    }

    /// The expected physical level of the first read.
    pub fn expected_level(&self) -> bool {
        self.ops
            .iter()
            .find_map(|o| match o {
                PhysOp::Read { expect_high } => Some(*expect_high),
                _ => None,
            })
            .expect("constructor guarantees a read")
    }

    /// The initial physical cell level before the sequence: the complement
    /// of the first write (worst case for the first write's settling).
    pub fn initial_level(&self) -> bool {
        match self.ops.first() {
            Some(PhysOp::Write { high }) => !high,
            _ => false,
        }
    }

    /// Translates to logic operations for a victim on `side`, returning
    /// the sequence and the expected logic value of each read (in read
    /// order).
    pub fn to_logic(&self, side: BitLineSide) -> (Vec<Operation>, Vec<bool>) {
        let mut seq = Vec::with_capacity(self.ops.len());
        let mut expected = Vec::new();
        for op in &self.ops {
            match op {
                PhysOp::Write { high } => seq.push(physical_write(*high, side)),
                PhysOp::Read { expect_high } => {
                    seq.push(Operation::R);
                    let logic = match side {
                        BitLineSide::True => *expect_high,
                        BitLineSide::Comp => !*expect_high,
                    };
                    expected.push(logic);
                }
                PhysOp::Pause { cycles } => {
                    seq.extend(std::iter::repeat_n(Operation::Nop, *cycles));
                }
            }
        }
        (seq, expected)
    }

    /// Renders the condition in the paper's notation for a side, e.g.
    /// `{... w1 w1 w0 r0 ...}`.
    pub fn display_for(&self, side: BitLineSide) -> String {
        let (seq, expected) = self.to_logic(side);
        let mut read_idx = 0;
        let body: Vec<String> = seq
            .iter()
            .map(|op| match op {
                Operation::W0 => "w0".to_string(),
                Operation::W1 => "w1".to_string(),
                Operation::R => {
                    let e = expected[read_idx];
                    read_idx += 1;
                    format!("r{}", if e { 1 } else { 0 })
                }
                Operation::Nop => "del".to_string(),
            })
            .collect();
        format!("{{... {} ...}}", body.join(" "))
    }
}

impl fmt::Display for DetectionCondition {
    /// Physical rendering (independent of side): `w1 w1 w0 r0` with levels
    /// meaning cell-capacitor levels.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let body: Vec<String> = self
            .ops
            .iter()
            .map(|op| match op {
                PhysOp::Write { high } => format!("w{}", if *high { 1 } else { 0 }),
                PhysOp::Read { expect_high } => {
                    format!("r{}", if *expect_high { 1 } else { 0 })
                }
                PhysOp::Pause { cycles } => format!("del{cycles}"),
            })
            .collect();
        write!(f, "{{... {} ...}}", body.join(" "))
    }
}

/// Derives the detection condition for `defect` at resistance `r_target`
/// under `op_point`: starting from the class default, the number of
/// settling writes is grown until the set-up write has converged (the
/// paper's Figure 6 observation that stressed conditions need more
/// operations "to charge the cell to a high enough voltage").
///
/// # Errors
///
/// Propagates simulation failures.
pub(crate) fn derive_detection(
    service: &EvalService,
    defect: &Defect,
    r_target: f64,
    op_point: &OperatingPoint,
    max_settling: usize,
) -> Result<DetectionCondition, CoreError> {
    let max_settling = max_settling.clamp(1, 8);
    let probe = DetectionCondition::default_for(defect, 1);
    let setup_high = match probe.ops().first() {
        Some(PhysOp::Write { high }) => *high,
        _ => true,
    };
    let vcs = service.settle_sequence(defect, r_target, op_point, setup_high, max_settling)?;
    // Converged once an additional write moves the cell by < 2% of vdd.
    let tol = 0.02 * op_point.vdd;
    let mut k = max_settling;
    for i in 1..vcs.len() {
        if (vcs[i] - vcs[i - 1]).abs() < tol {
            k = i;
            break;
        }
    }
    Ok(DetectionCondition::default_for(defect, k))
}

#[cfg(test)]
mod tests {
    use super::super::test_support::fast_design;
    use super::super::Analyzer;
    use super::*;
    use dso_dram::column::DefectSite;

    #[test]
    fn constructor_validation() {
        assert!(DetectionCondition::new(vec![]).is_err());
        assert!(
            DetectionCondition::new(vec![PhysOp::Write { high: true }]).is_err(),
            "write-only sequences observe nothing"
        );
        assert!(DetectionCondition::new(vec![
            PhysOp::Write { high: true },
            PhysOp::Read { expect_high: true }
        ])
        .is_ok());
    }

    #[test]
    fn defaults_per_class() {
        let open =
            DetectionCondition::default_for(&Defect::new(DefectSite::O3, BitLineSide::True), 2);
        assert_eq!(open.to_string(), "{... w1 w1 w0 r0 ...}");
        assert_eq!(open.critical_write(), Some(false));
        assert!(!open.expected_level());
        assert!(!open.initial_level(), "starts from the complement of w1");

        let sg =
            DetectionCondition::default_for(&Defect::new(DefectSite::Sg, BitLineSide::True), 1);
        assert_eq!(sg.to_string(), "{... w1 r1 ...}");
        let sv =
            DetectionCondition::default_for(&Defect::new(DefectSite::Sv, BitLineSide::True), 1);
        assert_eq!(sv.to_string(), "{... w0 r0 ...}");
        let b1 =
            DetectionCondition::default_for(&Defect::new(DefectSite::B1, BitLineSide::True), 1);
        assert_eq!(b1.to_string(), "{... w1 r1 w0 r0 ...}");
        let b2 =
            DetectionCondition::default_for(&Defect::new(DefectSite::B2, BitLineSide::True), 1);
        assert_eq!(b2.to_string(), "{... w1 r1 w0 r0 ...}");
    }

    #[test]
    fn true_comp_interchange() {
        let cond =
            DetectionCondition::default_for(&Defect::new(DefectSite::O3, BitLineSide::True), 3);
        assert_eq!(
            cond.display_for(BitLineSide::True),
            "{... w1 w1 w1 w0 r0 ...}"
        );
        assert_eq!(
            cond.display_for(BitLineSide::Comp),
            "{... w0 w0 w0 w1 r1 ...}"
        );
    }

    #[test]
    fn to_logic_expected_values() {
        let cond = DetectionCondition::new(vec![
            PhysOp::Write { high: false },
            PhysOp::Read { expect_high: false },
        ])
        .unwrap();
        let (seq_t, exp_t) = cond.to_logic(BitLineSide::True);
        assert_eq!(seq_t, vec![Operation::W0, Operation::R]);
        assert_eq!(exp_t, vec![false]);
        let (seq_c, exp_c) = cond.to_logic(BitLineSide::Comp);
        assert_eq!(seq_c, vec![Operation::W1, Operation::R]);
        assert_eq!(exp_c, vec![true]);
    }

    #[test]
    fn evaluate_passes_healthy_fails_defective() {
        let service = EvalService::new(Analyzer::new(fast_design()));
        let defect = Defect::cell_open(BitLineSide::True);
        let cond = DetectionCondition::default_for(&defect, 2);
        let op = OperatingPoint::nominal();
        // Healthy (1 Ω site).
        assert!(service.detection_passes(&defect, 1.0, &cond, &op).unwrap());
        // Severe open.
        assert!(!service.detection_passes(&defect, 5e7, &cond, &op).unwrap());
    }

    #[test]
    fn retention_condition_catches_weak_leaks() {
        // A short-to-ground too weak to fail back-to-back {w1 r1} still
        // drains the cell over idle cycles — the pause element exposes it
        // (the classical data-retention fault test).
        let service = EvalService::new(Analyzer::new(fast_design()));
        let defect = Defect::new(DefectSite::Sg, BitLineSide::True);
        let op = OperatingPoint::nominal();
        let r_weak = 8e6; // well above the back-to-back border (~3.5 MΩ)

        let back_to_back = DetectionCondition::default_for(&defect, 1);
        assert!(
            service
                .detection_passes(&defect, r_weak, &back_to_back, &op)
                .unwrap(),
            "8 MΩ Sg should survive {back_to_back}"
        );

        let retention = DetectionCondition::retention(true, 12);
        assert_eq!(retention.to_string(), "{... w1 del12 r1 ...}");
        assert_eq!(
            retention.display_for(BitLineSide::True),
            "{... w1 del del del del del del del del del del del del r1 ...}"
        );
        assert!(
            !service
                .detection_passes(&defect, r_weak, &retention, &op)
                .unwrap(),
            "12 idle cycles must drain the 8 MΩ Sg cell"
        );
    }

    #[test]
    fn derive_detection_counts_settling_writes() {
        let service = EvalService::new(Analyzer::new(fast_design()));
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        // Tiny resistance: one write settles, condition stays short.
        let cond = derive_detection(&service, &defect, 1e3, &op, 6).unwrap();
        assert!(cond.len() <= 4, "{cond}");
        // Large resistance: more settling writes are needed.
        let cond_slow = derive_detection(&service, &defect, 3e5, &op, 6).unwrap();
        assert!(
            cond_slow.len() >= cond.len(),
            "stressed condition should not shrink: {cond_slow} vs {cond}"
        );
    }
}
