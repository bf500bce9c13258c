//! Junction diode model.
//!
//! Used for junction-leakage modelling of storage nodes and as a simple
//! nonlinear test device for the solver. The exponential is linearized
//! above a critical voltage so Newton iterations cannot overflow.

use crate::{thermal_voltage, SpiceError, CELSIUS_TO_KELVIN};

/// Diode model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiodeModel {
    /// Saturation current `IS` at `tnom`, in amperes.
    pub is_sat: f64,
    /// Emission coefficient `N`.
    pub n: f64,
    /// Nominal temperature in °C.
    pub tnom: f64,
    /// Saturation-current temperature exponent `XTI` (≈ 3 for silicon).
    pub xti: f64,
    /// Energy gap `EG` in eV, drives the temperature dependence of `IS`.
    pub eg: f64,
}

impl Default for DiodeModel {
    fn default() -> Self {
        DiodeModel {
            is_sat: 1e-14,
            n: 1.0,
            tnom: 27.0,
            xti: 3.0,
            eg: 1.11,
        }
    }
}

impl DiodeModel {
    /// Validates physical parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadParameter`] for non-positive `is_sat` or
    /// `n`, or non-finite fields.
    pub fn validate(&self, device: &str) -> Result<(), SpiceError> {
        let bad = |reason: String| {
            Err(SpiceError::BadParameter {
                device: device.to_string(),
                reason,
            })
        };
        for (name, v) in [
            ("is_sat", self.is_sat),
            ("n", self.n),
            ("tnom", self.tnom),
            ("xti", self.xti),
            ("eg", self.eg),
        ] {
            if !v.is_finite() {
                return bad(format!("{name} must be finite"));
            }
        }
        if self.is_sat <= 0.0 {
            return bad("saturation current must be positive".into());
        }
        if self.n < 1.0 {
            return bad("emission coefficient must be >= 1".into());
        }
        Ok(())
    }

    /// Temperature-adjusted saturation current.
    pub fn is_at(&self, temp: f64) -> f64 {
        let t = temp + CELSIUS_TO_KELVIN;
        let tn = self.tnom + CELSIUS_TO_KELVIN;
        let vt = thermal_voltage(temp);
        let ratio = t / tn;
        self.is_sat
            * ratio.powf(self.xti / self.n)
            * ((self.eg / (self.n * vt)) * (1.0 - tn / t)).exp()
    }

    /// Folds the temperature constants for [`DiodePrepared::evaluate`]:
    /// the saturation current [`DiodeModel::is_at`] and `n·vt`. Each is the
    /// expression [`DiodeModel::evaluate`] would compute on every call, so
    /// a prepared evaluation is bit-identical to an unprepared one.
    pub fn prepare(&self, temp: f64) -> DiodePrepared {
        DiodePrepared {
            is_t: self.is_at(temp),
            vt: self.n * thermal_voltage(temp),
        }
    }

    /// Evaluates `(current, conductance)` at junction voltage `vd` and
    /// `temp` °C: [`DiodeModel::prepare`] followed by
    /// [`DiodePrepared::evaluate`].
    pub fn evaluate(&self, vd: f64, temp: f64) -> (f64, f64) {
        self.prepare(temp).evaluate(vd)
    }
}

/// The constants of one diode at one temperature (see
/// [`DiodeModel::prepare`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiodePrepared {
    /// Saturation current at the temperature.
    is_t: f64,
    /// `n·vt`.
    vt: f64,
}

impl DiodePrepared {
    /// Evaluates `(current, conductance)` at junction voltage `vd`. The
    /// exponential is linearized above `40·n·vt` so large trial voltages
    /// during Newton iterations stay finite.
    pub fn evaluate(&self, vd: f64) -> (f64, f64) {
        let (vt, is_t) = (self.vt, self.is_t);
        // Linearize above ~40 thermal voltages.
        let vmax = 40.0 * vt;
        if vd <= vmax {
            let e = (vd / vt).exp();
            let i = is_t * (e - 1.0);
            let g = (is_t * e / vt).max(1e-15);
            (i, g)
        } else {
            let e = (vmax / vt).exp();
            let g = is_t * e / vt;
            let i = is_t * (e - 1.0) + g * (vd - vmax);
            (i, g)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_bias_saturates() {
        let d = DiodeModel::default();
        let (i, g) = d.evaluate(-5.0, 27.0);
        assert!((i + d.is_sat).abs() < 1e-15);
        assert!(g > 0.0);
    }

    #[test]
    fn forward_bias_exponential() {
        let d = DiodeModel::default();
        let (i1, _) = d.evaluate(0.6, 27.0);
        let (i2, _) = d.evaluate(0.66, 27.0);
        // 60 mV ≈ one decade for n = 1.
        let ratio = i2 / i1;
        assert!((ratio.log10() - 1.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn linearization_keeps_current_finite() {
        let d = DiodeModel::default();
        let (i, g) = d.evaluate(100.0, 27.0);
        assert!(i.is_finite() && g.is_finite());
        // Continuity at the switch-over point.
        let vt = thermal_voltage(27.0);
        let vmax = 40.0 * vt;
        let (ia, _) = d.evaluate(vmax - 1e-9, 27.0);
        let (ib, _) = d.evaluate(vmax + 1e-9, 27.0);
        assert!((ia - ib).abs() / ia < 1e-6);
    }

    #[test]
    fn leakage_rises_with_temperature() {
        let d = DiodeModel::default();
        assert!(d.is_at(87.0) > 100.0 * d.is_at(27.0));
        assert!(d.is_at(-33.0) < d.is_at(27.0) / 100.0);
    }

    #[test]
    fn conductance_matches_finite_difference() {
        let d = DiodeModel::default();
        let h = 1e-7;
        for vd in [-1.0, 0.3, 0.6, 0.8] {
            let (_, g) = d.evaluate(vd, 27.0);
            let (ip, _) = d.evaluate(vd + h, 27.0);
            let (im, _) = d.evaluate(vd - h, 27.0);
            let g_fd: f64 = (ip - im) / (2.0 * h);
            assert!(
                (g - g_fd).abs() / g_fd.abs().max(1e-15) < 1e-3 || g_fd.abs() < 1e-12,
                "vd={vd}: {g} vs {g_fd}"
            );
        }
    }

    #[test]
    fn validation() {
        assert!(DiodeModel::default().validate("D1").is_ok());
        let d = DiodeModel {
            is_sat: 0.0,
            ..DiodeModel::default()
        };
        assert!(d.validate("D1").is_err());
        let d = DiodeModel {
            n: 0.5,
            ..DiodeModel::default()
        };
        assert!(d.validate("D1").is_err());
    }
}
