//! Column design parameters and the operating point (stress) definition.
//!
//! [`ColumnDesign`] (below) is the electrical ground truth the simulator
//! consumes. [`config`] holds [`DesignConfig`], the declarative,
//! human-editable design description (cells per bit line, per-cell
//! bit-line R/C, device sizing, reference scheme, word-line boost) with
//! validation and a zero-dep JSON parser; [`DesignConfig::expand`]
//! resolves it into a [`ColumnDesign`]. That is how design-space sweeps
//! produce many columns from declarative descriptions. The paper's own
//! column is [`DesignConfig::paper_default`], which expands
//! bit-identically to [`ColumnDesign::default`].

pub mod config;

pub use config::{DesignConfig, ReferenceScheme};

use crate::DramError;
use dso_spice::mos::MosModel;

/// The operational parameters that industrial tests treat as *stresses*
/// (Section 2 of the paper): supply voltage, clock cycle time, clock duty
/// cycle and ambient temperature.
///
/// # Example
///
/// ```
/// use dso_dram::design::OperatingPoint;
///
/// let nominal = OperatingPoint::nominal();
/// assert_eq!(nominal.vdd, 2.4);
/// let stressed = OperatingPoint { vdd: 2.1, tcyc: 55e-9, temp_c: 87.0, ..nominal };
/// assert!(stressed.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Clock cycle time in seconds.
    pub tcyc: f64,
    /// Clock duty cycle in (0, 1): the fraction of the cycle during which
    /// the row access (word line) is active.
    pub duty: f64,
    /// Ambient temperature in °C.
    pub temp_c: f64,
}

impl OperatingPoint {
    /// The paper's nominal stress combination: `Vdd = 2.4 V`,
    /// `tcyc = 60 ns`, duty `0.5`, `T = +27 °C`.
    pub fn nominal() -> Self {
        OperatingPoint {
            vdd: 2.4,
            tcyc: 60e-9,
            duty: 0.5,
            temp_c: 27.0,
        }
    }

    /// Validates the operating point against the ranges the column design
    /// supports (specification ranges of Section 2 plus margin).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BadOperatingPoint`] for values outside
    /// `1.0 V ≤ vdd ≤ 4.0 V`, `10 ns ≤ tcyc ≤ 1 µs`, `0.2 ≤ duty ≤ 0.8`,
    /// or `−60 °C ≤ T ≤ +150 °C`.
    pub fn validate(&self) -> Result<(), DramError> {
        let bad = |msg: String| Err(DramError::BadOperatingPoint(msg));
        if !(1.0..=4.0).contains(&self.vdd) {
            return bad(format!("vdd {} V outside [1.0, 4.0]", self.vdd));
        }
        if !(10e-9..=1e-6).contains(&self.tcyc) {
            return bad(format!("tcyc {} s outside [10 ns, 1 µs]", self.tcyc));
        }
        if !(0.2..=0.8).contains(&self.duty) {
            return bad(format!("duty {} outside [0.2, 0.8]", self.duty));
        }
        if !(-60.0..=150.0).contains(&self.temp_c) {
            return bad(format!("temperature {} °C outside [-60, 150]", self.temp_c));
        }
        Ok(())
    }

    /// Folds the stress combination into a content fingerprint.
    pub fn fingerprint_into(&self, fp: &mut dso_num::fingerprint::Fingerprint) {
        fp.write_f64(self.vdd);
        fp.write_f64(self.tcyc);
        fp.write_f64(self.duty);
        fp.write_f64(self.temp_c);
    }
}

impl Default for OperatingPoint {
    fn default() -> Self {
        OperatingPoint::nominal()
    }
}

/// Which bit line of the folded pair a cell (and therefore a defect) sits
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitLineSide {
    /// The true bit line `BT`.
    True,
    /// The complementary bit line `BC`.
    Comp,
}

impl BitLineSide {
    /// The other side.
    pub fn other(&self) -> BitLineSide {
        match self {
            BitLineSide::True => BitLineSide::Comp,
            BitLineSide::Comp => BitLineSide::True,
        }
    }

    /// Short label used in node names and reports (`"true"` / `"comp"`).
    pub fn label(&self) -> &'static str {
        match self {
            BitLineSide::True => "true",
            BitLineSide::Comp => "comp",
        }
    }
}

impl std::fmt::Display for BitLineSide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Electrical design of the folded column.
///
/// The defaults model the ~2.4 V DRAM generation the paper's memory
/// implies; absolute values are documented substitutions (see `DESIGN.md`)
/// since the original Infineon design-validation netlist is proprietary.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDesign {
    /// Storage (cell) capacitance, farads.
    pub cs: f64,
    /// Bit-line capacitance, farads.
    pub cbl: f64,
    /// Lumped bit-line series resistance between the sense-amplifier end
    /// of each bit line and the cell-array tap, ohms. Zero (the default)
    /// omits the resistor devices entirely, so the generated netlist is
    /// identical to the pre-design-space column.
    pub bl_r: f64,
    /// Word-line boost above `vdd` in volts (`Vpp = vdd + wl_boost`).
    pub wl_boost: f64,
    /// How far below `vdd/2` the reference cells sit, in volts. This skew
    /// makes a zero-signal read resolve away from the accessed bit line,
    /// reproducing the paper's footnote that a fully open cell reads 1.
    pub ref_skew: f64,
    /// Access-transistor channel width, meters.
    pub access_w: f64,
    /// Access-transistor channel length, meters.
    pub access_l: f64,
    /// Sense-amplifier NMOS width, meters.
    pub sa_nmos_w: f64,
    /// Sense-amplifier PMOS width, meters.
    pub sa_pmos_w: f64,
    /// Sense-amplifier channel length, meters.
    pub sa_l: f64,
    /// Precharge/equalize transistor width, meters.
    pub pre_w: f64,
    /// Write-driver on-resistance, ohms (the driver is modelled as a
    /// switched resistive connection to the data rails).
    pub wd_ron: f64,
    /// Number of plain (never-accessed) load cells per bit line. The
    /// paper's 2×2 array corresponds to 1; larger values scale the array
    /// for solver benchmarks and add realistic bit-line loading.
    pub plain_cells_per_bitline: usize,
    /// NMOS model card.
    pub nmos: MosModel,
    /// PMOS model card.
    pub pmos: MosModel,
    /// Transient time step as a fraction of `tcyc`.
    pub dt_fraction: f64,
}

impl Default for ColumnDesign {
    /// Defaults chosen so the paper's stress mechanisms are visible at the
    /// border: a deliberately weak, lightly boosted access transistor (as
    /// in real DRAM cells) whose temperature-dependent channel resistance
    /// is a non-negligible fraction of the defective path, and a mobility
    /// exponent of −2 so drain current and leakage both move measurably
    /// across the −33…+87 °C stress range.
    fn default() -> Self {
        ColumnDesign {
            cs: 30e-15,
            cbl: 300e-15,
            bl_r: 0.0,
            wl_boost: 0.4,
            ref_skew: 0.08,
            access_w: 0.15e-6,
            access_l: 0.5e-6,
            sa_nmos_w: 1.2e-6,
            sa_pmos_w: 2.4e-6,
            sa_l: 0.3e-6,
            pre_w: 1.0e-6,
            wd_ron: 500.0,
            plain_cells_per_bitline: 1,
            nmos: MosModel {
                bex: -2.0,
                ..MosModel::default()
            },
            pmos: MosModel {
                bex: -2.0,
                ..MosModel::default_pmos()
            },
            dt_fraction: 1.0 / 600.0,
        }
    }
}

impl ColumnDesign {
    /// Validates the design parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BadDesign`] for non-positive capacitances or
    /// geometries, a reference skew outside `[0, vdd/4]`-ish sanity, or a
    /// time step fraction outside `(0, 0.05]`.
    pub fn validate(&self) -> Result<(), DramError> {
        let bad = |msg: String| Err(DramError::BadDesign(msg));
        for (name, v) in [
            ("cs", self.cs),
            ("cbl", self.cbl),
            ("access_w", self.access_w),
            ("access_l", self.access_l),
            ("sa_nmos_w", self.sa_nmos_w),
            ("sa_pmos_w", self.sa_pmos_w),
            ("sa_l", self.sa_l),
            ("pre_w", self.pre_w),
            ("wd_ron", self.wd_ron),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return bad(format!("{name} must be positive and finite, got {v}"));
            }
        }
        if !(self.bl_r >= 0.0 && self.bl_r.is_finite()) {
            return bad(format!(
                "bl_r must be non-negative and finite, got {}",
                self.bl_r
            ));
        }
        if self.cbl < self.cs {
            return bad(format!(
                "bit-line capacitance ({}) should exceed cell capacitance ({})",
                self.cbl, self.cs
            ));
        }
        if !(0.0..=0.5).contains(&self.ref_skew) {
            return bad(format!("ref_skew {} outside [0, 0.5]", self.ref_skew));
        }
        if self.wl_boost < 0.0 || self.wl_boost.is_nan() {
            return bad(format!("wl_boost {} must be non-negative", self.wl_boost));
        }
        if self.plain_cells_per_bitline == 0 || self.plain_cells_per_bitline > 256 {
            return bad(format!(
                "plain_cells_per_bitline {} outside [1, 256]",
                self.plain_cells_per_bitline
            ));
        }
        if !(self.dt_fraction > 0.0 && self.dt_fraction <= 0.05) {
            return bad(format!(
                "dt_fraction {} outside (0, 0.05]",
                self.dt_fraction
            ));
        }
        Ok(())
    }

    /// Charge-transfer ratio `Cs / (Cs + Cbl)` — the fraction of the cell
    /// signal that reaches the bit line during charge sharing.
    pub fn transfer_ratio(&self) -> f64 {
        self.cs / (self.cs + self.cbl)
    }

    /// Folds every electrical design parameter (including both model
    /// cards) into a content fingerprint.
    pub fn fingerprint_into(&self, fp: &mut dso_num::fingerprint::Fingerprint) {
        for v in [
            self.cs,
            self.cbl,
            self.wl_boost,
            self.ref_skew,
            self.access_w,
            self.access_l,
            self.sa_nmos_w,
            self.sa_pmos_w,
            self.sa_l,
            self.pre_w,
            self.wd_ron,
        ] {
            fp.write_f64(v);
        }
        fp.write_usize(self.plain_cells_per_bitline);
        self.nmos.fingerprint_into(fp);
        self.pmos.fingerprint_into(fp);
        fp.write_f64(self.dt_fraction);
        fp.write_f64(self.bl_r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_operating_point() {
        let op = OperatingPoint::nominal();
        assert_eq!(op.vdd, 2.4);
        assert_eq!(op.tcyc, 60e-9);
        assert_eq!(op.duty, 0.5);
        assert_eq!(op.temp_c, 27.0);
        assert!(op.validate().is_ok());
        assert_eq!(OperatingPoint::default(), op);
    }

    #[test]
    fn operating_point_ranges() {
        let mut op = OperatingPoint::nominal();
        op.vdd = 0.5;
        assert!(op.validate().is_err());
        let mut op = OperatingPoint::nominal();
        op.tcyc = 1e-9;
        assert!(op.validate().is_err());
        let mut op = OperatingPoint::nominal();
        op.duty = 0.9;
        assert!(op.validate().is_err());
        let mut op = OperatingPoint::nominal();
        op.temp_c = 200.0;
        assert!(op.validate().is_err());
    }

    #[test]
    fn design_defaults_valid() {
        let d = ColumnDesign::default();
        assert!(d.validate().is_ok());
        assert!((d.transfer_ratio() - 30.0 / 330.0).abs() < 1e-12);
    }

    #[test]
    fn design_validation_catches_errors() {
        let d = ColumnDesign {
            cs: 0.0,
            ..ColumnDesign::default()
        };
        assert!(d.validate().is_err());
        // cbl smaller than cs
        let d = ColumnDesign {
            cbl: 1e-15,
            ..ColumnDesign::default()
        };
        assert!(d.validate().is_err());
        let d = ColumnDesign {
            ref_skew: 1.0,
            ..ColumnDesign::default()
        };
        assert!(d.validate().is_err());
        let d = ColumnDesign {
            dt_fraction: 0.5,
            ..ColumnDesign::default()
        };
        assert!(d.validate().is_err());
        let d = ColumnDesign {
            bl_r: -1.0,
            ..ColumnDesign::default()
        };
        assert!(d.validate().is_err());
    }

    #[test]
    fn bl_r_extends_the_fingerprint() {
        let mut a = dso_num::fingerprint::Fingerprint::new();
        ColumnDesign::default().fingerprint_into(&mut a);
        let mut b = dso_num::fingerprint::Fingerprint::new();
        ColumnDesign {
            bl_r: 250.0,
            ..ColumnDesign::default()
        }
        .fingerprint_into(&mut b);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn bitline_side_helpers() {
        assert_eq!(BitLineSide::True.other(), BitLineSide::Comp);
        assert_eq!(BitLineSide::Comp.other(), BitLineSide::True);
        assert_eq!(BitLineSide::True.to_string(), "true");
        assert_eq!(BitLineSide::Comp.label(), "comp");
    }
}
