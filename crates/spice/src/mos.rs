//! Level-1 MOSFET model with temperature dependence and subthreshold
//! leakage.
//!
//! The stress-optimization methodology hinges on three temperature
//! mechanisms the paper names explicitly (Section 4.2):
//!
//! 1. carrier mobility falls with temperature → drain current falls
//!    (`KP(T) = KP·(T/Tnom)^BEX`, `BEX ≈ −1.5`),
//! 2. the threshold voltage falls with temperature
//!    (`VTO(T) = VTO − TCV·(T − Tnom)`),
//! 3. subthreshold leakage rises with temperature (exponential in
//!    `1/(n·kT/q)` with a falling threshold).
//!
//! All three are modelled here so the non-monotonic sense-amplifier
//! behaviour of Figure 4 can emerge from the electrics rather than being
//! hard-coded.

use crate::{thermal_voltage, SpiceError, CELSIUS_TO_KELVIN};

/// Channel polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosPolarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

impl MosPolarity {
    /// +1 for NMOS, −1 for PMOS: the sign applied to terminal voltages so
    /// both polarities share the N-channel equations.
    pub fn sign(&self) -> f64 {
        match self {
            MosPolarity::Nmos => 1.0,
            MosPolarity::Pmos => -1.0,
        }
    }
}

/// Level-1 model card parameters (shared between devices referencing the
/// same `.model`).
#[derive(Debug, Clone, PartialEq)]
pub struct MosModel {
    /// Channel polarity.
    pub polarity: MosPolarity,
    /// Zero-bias threshold voltage `VTO` in volts (positive for NMOS,
    /// negative values are accepted for depletion devices).
    pub vto: f64,
    /// Transconductance parameter `KP = µ·Cox` in A/V².
    pub kp: f64,
    /// Channel-length modulation `LAMBDA` in 1/V.
    pub lambda: f64,
    /// Body-effect coefficient `GAMMA` in √V.
    pub gamma: f64,
    /// Surface potential `PHI` in volts.
    pub phi: f64,
    /// Mobility temperature exponent `BEX` (typically −1.5).
    pub bex: f64,
    /// Threshold temperature coefficient `TCV` in V/K (VTO drops by
    /// `tcv·ΔT`; typically ≈ 2 mV/K).
    pub tcv: f64,
    /// Subthreshold slope factor `N` (≥ 1).
    pub n_sub: f64,
    /// Nominal temperature of the parameter extraction, °C.
    pub tnom: f64,
    /// Gate-oxide capacitance per area, F/m², used for the intrinsic
    /// gate capacitances.
    pub cox: f64,
}

impl Default for MosModel {
    /// A generic quarter-micron-era NMOS card suited to the 2.4 V DRAM
    /// process the paper's memory implies.
    fn default() -> Self {
        MosModel {
            polarity: MosPolarity::Nmos,
            vto: 0.55,
            kp: 120e-6,
            lambda: 0.03,
            gamma: 0.4,
            phi: 0.7,
            bex: -1.5,
            tcv: 2.0e-3,
            n_sub: 1.5,
            tnom: 27.0,
            cox: 5e-3,
        }
    }
}

impl MosModel {
    /// A default P-channel card complementary to [`MosModel::default`].
    pub fn default_pmos() -> Self {
        MosModel {
            polarity: MosPolarity::Pmos,
            vto: -0.55,
            kp: 50e-6,
            ..MosModel::default()
        }
    }

    /// Validates physical parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadParameter`] for non-positive `kp`, `phi`,
    /// `n_sub < 1`, negative `gamma`, or non-finite entries.
    pub fn validate(&self, device: &str) -> Result<(), SpiceError> {
        let bad = |reason: String| {
            Err(SpiceError::BadParameter {
                device: device.to_string(),
                reason,
            })
        };
        let fields = [
            ("vto", self.vto),
            ("kp", self.kp),
            ("lambda", self.lambda),
            ("gamma", self.gamma),
            ("phi", self.phi),
            ("bex", self.bex),
            ("tcv", self.tcv),
            ("n_sub", self.n_sub),
            ("tnom", self.tnom),
            ("cox", self.cox),
        ];
        for (name, v) in fields {
            if !v.is_finite() {
                return bad(format!("{name} must be finite"));
            }
        }
        if self.kp <= 0.0 {
            return bad("kp must be positive".into());
        }
        if self.phi <= 0.0 {
            return bad("phi must be positive".into());
        }
        if self.n_sub < 1.0 {
            return bad("subthreshold slope factor must be >= 1".into());
        }
        if self.gamma < 0.0 {
            return bad("gamma must be non-negative".into());
        }
        if self.lambda < 0.0 {
            return bad("lambda must be non-negative".into());
        }
        Ok(())
    }

    /// Transconductance parameter at `temp` °C (mobility scaling).
    pub fn kp_at(&self, temp: f64) -> f64 {
        let t = temp + CELSIUS_TO_KELVIN;
        let tn = self.tnom + CELSIUS_TO_KELVIN;
        self.kp * (t / tn).powf(self.bex)
    }

    /// Magnitude of the zero-bias threshold at `temp` °C.
    pub fn vth0_at(&self, temp: f64) -> f64 {
        self.vto.abs() - self.tcv * (temp - self.tnom)
    }

    /// Folds every model-card parameter into a content fingerprint.
    pub fn fingerprint_into(&self, fp: &mut dso_num::fingerprint::Fingerprint) {
        fp.write_u8(match self.polarity {
            MosPolarity::Nmos => 0,
            MosPolarity::Pmos => 1,
        });
        for v in [
            self.vto,
            self.kp,
            self.lambda,
            self.gamma,
            self.phi,
            self.bex,
            self.tcv,
            self.n_sub,
            self.tnom,
            self.cox,
        ] {
            fp.write_f64(v);
        }
    }
}

/// Geometry of one MOSFET instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosGeometry {
    /// Channel width in meters.
    pub w: f64,
    /// Channel length in meters.
    pub l: f64,
}

impl MosGeometry {
    /// Creates a geometry, validating positivity.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadParameter`] if `w` or `l` is not positive
    /// and finite.
    pub fn new(w: f64, l: f64) -> Result<Self, SpiceError> {
        if !(w > 0.0 && w.is_finite() && l > 0.0 && l.is_finite()) {
            return Err(SpiceError::BadParameter {
                device: "MOSFET".into(),
                reason: format!("W and L must be positive, got W={w}, L={l}"),
            });
        }
        Ok(MosGeometry { w, l })
    }

    /// Aspect ratio W/L.
    pub fn aspect(&self) -> f64 {
        self.w / self.l
    }

    /// Total intrinsic gate capacitance `Cox·W·L`.
    pub fn gate_capacitance(&self, model: &MosModel) -> f64 {
        model.cox * self.w * self.l
    }
}

/// Operating-point evaluation of the drain current and its derivatives.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosEval {
    /// Drain current, positive flowing drain → source (N-channel sign
    /// convention; already sign-corrected for PMOS).
    pub ids: f64,
    /// `∂ids/∂vgs`.
    pub gm: f64,
    /// `∂ids/∂vds`.
    pub gds: f64,
    /// `∂ids/∂vbs`.
    pub gmbs: f64,
}

/// The constants of one MOSFET instance at one temperature, folded once
/// so a model evaluation recomputes nothing that only depends on the
/// card, the geometry or the temperature (mobility's `powf` above all).
/// Built by [`prepare`]; evaluated by [`evaluate_prepared`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosPrepared {
    /// [`MosPolarity::sign`].
    sign: f64,
    /// `KP(T)·W/L`.
    beta: f64,
    /// [`MosModel::vth0_at`].
    vth0: f64,
    gamma: f64,
    phi: f64,
    /// `√PHI`.
    sqrt_phi: f64,
    /// `PHI/2`, the forward body-bias clamp.
    half_phi: f64,
    lambda: f64,
    /// `2·N·vt`, the smooth-overdrive scale.
    two_nvt: f64,
}

/// Folds the temperature and geometry constants of one device for
/// [`evaluate_prepared`]. Each constant is the expression [`evaluate`]
/// would compute on every call, in the same order, so a prepared
/// evaluation is bit-identical to an unprepared one.
pub fn prepare(model: &MosModel, geometry: MosGeometry, temp: f64) -> MosPrepared {
    MosPrepared {
        sign: model.polarity.sign(),
        beta: model.kp_at(temp) * geometry.aspect(),
        vth0: model.vth0_at(temp),
        gamma: model.gamma,
        phi: model.phi,
        sqrt_phi: model.phi.sqrt(),
        half_phi: 0.5 * model.phi,
        lambda: model.lambda,
        two_nvt: 2.0 * (model.n_sub * thermal_voltage(temp)),
    }
}

/// Evaluates the level-1 drain current at terminal voltages `(vgs, vds,
/// vbs)` measured in actual circuit polarity, at `temp` °C: [`prepare`]
/// followed by [`evaluate_prepared`].
pub fn evaluate(
    model: &MosModel,
    geometry: MosGeometry,
    vgs: f64,
    vds: f64,
    vbs: f64,
    temp: f64,
) -> MosEval {
    evaluate_prepared(&prepare(model, geometry, temp), vgs, vds, vbs)
}

/// Evaluates the level-1 drain current of a prepared device at terminal
/// voltages `(vgs, vds, vbs)` measured in actual circuit polarity.
///
/// Handles drain/source inversion (vds < 0) by symmetry, includes channel
/// length modulation, the body effect, and a continuous subthreshold region
/// that meets the square-law at `vgs = vth`.
pub fn evaluate_prepared(p: &MosPrepared, vgs: f64, vds: f64, vbs: f64) -> MosEval {
    let sign = p.sign;
    // Map to N-channel frame.
    let (vgs_n, vds_n, vbs_n) = (sign * vgs, sign * vds, sign * vbs);
    let eval = if vds_n >= 0.0 {
        evaluate_nchannel(p, vgs_n, vds_n, vbs_n)
    } else {
        // Source and drain swap: vgd becomes the controlling voltage.
        let swapped = evaluate_nchannel(
            p,
            vgs_n - vds_n, // vgd
            -vds_n,
            vbs_n - vds_n, // vbd
        );
        // Current direction reverses; translate derivatives back to the
        // original terminal frame via the chain rule:
        //   ids = -S(vgd, -vds, vbd), vgd = vgs - vds, vbd = vbs - vds.
        MosEval {
            ids: -swapped.ids,
            gm: -swapped.gm,
            gds: swapped.gm + swapped.gds + swapped.gmbs,
            gmbs: -swapped.gmbs,
        }
    };
    // PMOS sign mapping: ids flips; conductances stay positive because both
    // numerator and denominator flip.
    MosEval {
        ids: sign * eval.ids,
        gm: eval.gm,
        gds: eval.gds,
        gmbs: eval.gmbs,
    }
}

fn evaluate_nchannel(p: &MosPrepared, vgs: f64, vds: f64, vbs: f64) -> MosEval {
    debug_assert!(vds >= 0.0);
    let beta = p.beta;

    // Threshold with body effect. vbs > 0 (forward body bias) is clamped to
    // keep the square root real; dvth/dvbs from the chain rule.
    let vbs_lim = vbs.min(p.half_phi);
    let sqrt_arg = (p.phi - vbs_lim).max(1e-12);
    let sqrt_term = sqrt_arg.sqrt();
    let vth = p.vth0 + p.gamma * (sqrt_term - p.sqrt_phi);
    let dvth_dvbs = if vbs < p.half_phi {
        -0.5 * p.gamma / sqrt_term
    } else {
        0.0
    };

    let vov = vgs - vth;

    // EKV-style smooth effective overdrive:
    //   veff = 2·n·vt · ln(1 + exp(vov / (2·n·vt)))
    // tends to vov in strong inversion and to an exponential in weak
    // inversion, whose square gives the correct exp(vov / n·vt)
    // subthreshold slope. `sigma = dveff/dvov` is the logistic function.
    let u = vov / p.two_nvt;
    let (veff, sigma) = if u > 40.0 {
        (vov, 1.0)
    } else if u < -40.0 {
        // Deep cutoff: keep a tiny floor to avoid a hard zero.
        let e = u.exp();
        (p.two_nvt * e, e / (1.0 + e))
    } else {
        let e = u.exp();
        (p.two_nvt * e.ln_1p(), e / (1.0 + e))
    };

    let clm = 1.0 + p.lambda * vds;
    let (ids, gm, gds) = if vds < veff {
        // Triode: ids = beta·(veff·vds − vds²/2)·clm, continuous with the
        // saturation branch at vds = veff.
        let core = veff * vds - 0.5 * vds * vds;
        (
            beta * core * clm,
            beta * vds * clm * sigma,
            beta * ((veff - vds) * clm + core * p.lambda),
        )
    } else {
        // Saturation: ids = beta/2·veff²·clm.
        (
            0.5 * beta * veff * veff * clm,
            beta * veff * clm * sigma,
            0.5 * beta * veff * veff * p.lambda,
        )
    };
    let gm = gm.max(0.0);
    MosEval {
        ids,
        gm,
        gds: gds.max(1e-15),
        gmbs: gm * (-dvth_dvbs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> (MosModel, MosGeometry) {
        (
            MosModel::default(),
            MosGeometry::new(1e-6, 0.25e-6).unwrap(),
        )
    }

    #[test]
    fn cutoff_leakage_is_small_but_positive() {
        let (m, g) = nmos();
        let e = evaluate(&m, g, 0.0, 1.0, 0.0, 27.0);
        assert!(e.ids > 0.0);
        assert!(e.ids < 1e-6, "leakage should be well below µA: {}", e.ids);
    }

    #[test]
    fn saturation_square_law() {
        let (m, g) = nmos();
        let e1 = evaluate(&m, g, m.vto + 0.5, 2.0, 0.0, 27.0);
        let e2 = evaluate(&m, g, m.vto + 1.0, 2.0, 0.0, 27.0);
        // Doubling the overdrive roughly quadruples the current.
        let ratio = e2.ids / e1.ids;
        assert!((ratio - 4.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn triode_region_resistive() {
        let (m, g) = nmos();
        let e = evaluate(&m, g, 2.4, 0.05, 0.0, 27.0);
        // Small vds: approximately ohmic, ids ≈ beta*vov*vds.
        let beta = m.kp_at(27.0) * g.aspect();
        let expect = beta * (2.4 - m.vto) * 0.05;
        assert!(
            (e.ids - expect).abs() / expect < 0.05,
            "{} vs {expect}",
            e.ids
        );
        assert!(e.gds > 0.0);
    }

    #[test]
    fn current_continuous_across_regions() {
        let (m, g) = nmos();
        // Scan vgs through the threshold; current must be monotone and
        // without jumps bigger than the local scale.
        let mut prev = 0.0;
        let mut vgs = 0.0;
        while vgs < 2.0 {
            let e = evaluate(&m, g, vgs, 1.5, 0.0, 27.0);
            assert!(e.ids >= prev - 1e-12, "non-monotone at vgs={vgs}");
            if prev > 0.0 {
                assert!(e.ids / prev < 1e3, "jump at vgs={vgs}");
            }
            prev = e.ids;
            vgs += 0.01;
        }
    }

    #[test]
    fn reverse_vds_symmetric() {
        let (m, g) = nmos();
        // With source and drain swapped and gate referenced correctly, the
        // current must be equal and opposite.
        let fwd = evaluate(&m, g, 2.0, 1.0, 0.0, 27.0);
        let rev = evaluate(&m, g, 1.0, -1.0, -1.0, 27.0);
        assert!(
            (fwd.ids + rev.ids).abs() / fwd.ids < 1e-9,
            "fwd {} rev {}",
            fwd.ids,
            rev.ids
        );
    }

    #[test]
    fn mobility_falls_with_temperature() {
        let (m, g) = nmos();
        let cold = evaluate(&m, g, 2.4, 2.0, 0.0, -33.0);
        let hot = evaluate(&m, g, 2.4, 2.0, 0.0, 87.0);
        // Strong inversion, large overdrive: mobility dominates.
        assert!(
            cold.ids > hot.ids,
            "cold {} should exceed hot {}",
            cold.ids,
            hot.ids
        );
    }

    #[test]
    fn leakage_rises_with_temperature() {
        let (m, g) = nmos();
        let cold = evaluate(&m, g, 0.0, 1.0, 0.0, -33.0);
        let hot = evaluate(&m, g, 0.0, 1.0, 0.0, 87.0);
        assert!(
            hot.ids > 10.0 * cold.ids,
            "hot leakage {} should dwarf cold {}",
            hot.ids,
            cold.ids
        );
    }

    #[test]
    fn threshold_falls_with_temperature() {
        let m = MosModel::default();
        assert!(m.vth0_at(87.0) < m.vth0_at(27.0));
        assert!(m.vth0_at(-33.0) > m.vth0_at(27.0));
    }

    #[test]
    fn body_effect_raises_threshold() {
        let (m, g) = nmos();
        let no_bias = evaluate(&m, g, 1.0, 2.0, 0.0, 27.0);
        let reverse = evaluate(&m, g, 1.0, 2.0, -1.0, 27.0);
        assert!(reverse.ids < no_bias.ids);
        assert!(reverse.gmbs > 0.0);
    }

    #[test]
    fn pmos_mirror_of_nmos() {
        let nm = MosModel::default();
        let pm = MosModel {
            polarity: MosPolarity::Pmos,
            vto: -nm.vto,
            ..nm.clone()
        };
        let g = MosGeometry::new(1e-6, 0.25e-6).unwrap();
        let n = evaluate(&nm, g, 2.0, 1.5, 0.0, 27.0);
        let p = evaluate(&pm, g, -2.0, -1.5, 0.0, 27.0);
        assert!((n.ids + p.ids).abs() / n.ids < 1e-9);
        assert!(p.gm > 0.0 && p.gds > 0.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let (m, g) = nmos();
        let h = 1e-7;
        for (vgs, vds, vbs) in [
            (1.2, 0.3, 0.0),   // triode
            (1.2, 2.0, 0.0),   // saturation
            (0.3, 1.0, 0.0),   // subthreshold
            (1.2, 2.0, -0.5),  // body bias
            (1.2, -0.3, -0.3), // reverse conduction (source/drain swap)
            (0.8, -1.0, -1.0), // reverse, near threshold
        ] {
            let e = evaluate(&m, g, vgs, vds, vbs, 27.0);
            let gm_fd = (evaluate(&m, g, vgs + h, vds, vbs, 27.0).ids
                - evaluate(&m, g, vgs - h, vds, vbs, 27.0).ids)
                / (2.0 * h);
            let gds_fd = (evaluate(&m, g, vgs, vds + h, vbs, 27.0).ids
                - evaluate(&m, g, vgs, vds - h, vbs, 27.0).ids)
                / (2.0 * h);
            let scale = e.gm.abs().max(1e-9);
            assert!(
                (e.gm - gm_fd).abs() / scale < 1e-3,
                "gm mismatch at ({vgs},{vds},{vbs}): {} vs {gm_fd}",
                e.gm
            );
            let scale = e.gds.abs().max(1e-9);
            assert!(
                (e.gds - gds_fd).abs() / scale < 1e-2,
                "gds mismatch at ({vgs},{vds},{vbs}): {} vs {gds_fd}",
                e.gds
            );
        }
    }

    #[test]
    fn model_validation() {
        let mut m = MosModel::default();
        assert!(m.validate("M1").is_ok());
        m.kp = -1.0;
        assert!(m.validate("M1").is_err());
        let m = MosModel {
            n_sub: 0.5,
            ..MosModel::default()
        };
        assert!(m.validate("M1").is_err());
        let m = MosModel {
            phi: f64::NAN,
            ..MosModel::default()
        };
        assert!(m.validate("M1").is_err());
    }

    #[test]
    fn geometry_validation() {
        assert!(MosGeometry::new(1e-6, 0.25e-6).is_ok());
        assert!(MosGeometry::new(0.0, 1e-6).is_err());
        assert!(MosGeometry::new(1e-6, -1.0).is_err());
        let g = MosGeometry::new(2e-6, 1e-6).unwrap();
        assert_eq!(g.aspect(), 2.0);
        assert!(g.gate_capacitance(&MosModel::default()) > 0.0);
    }
}
