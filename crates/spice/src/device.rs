//! Circuit devices and their MNA stamps.
//!
//! Every device knows how to *stamp* itself into the modified-nodal-analysis
//! residual and Jacobian for the current Newton iterate. Linear devices
//! contribute constant conductances; nonlinear devices (MOSFET, diode,
//! switch) contribute their linearization at the iterate.

use crate::circuit::NodeId;
use crate::diode::DiodeModel;
use crate::mos::{MosGeometry, MosModel};
use crate::waveform::Waveform;

/// A device instance in a circuit.
///
/// Constructed through the `Circuit::add_*` builder methods, which validate
/// parameters; the fields are read-only outside the crate.
#[derive(Debug, Clone, PartialEq)]
pub enum Device {
    /// Linear resistor between `p` and `n`.
    Resistor {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Resistance in ohms (positive).
        resistance: f64,
    },
    /// Linear capacitor between `p` and `n`.
    Capacitor {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Capacitance in farads (non-negative).
        capacitance: f64,
        /// Optional initial voltage across the capacitor (`v(p) − v(n)`).
        initial_voltage: Option<f64>,
    },
    /// Independent voltage source; adds one branch-current unknown.
    VSource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Source waveform.
        waveform: Waveform,
    },
    /// Independent current source, current flowing `p → n` externally
    /// (i.e. out of `p` into the circuit and back into `n`).
    ISource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Source waveform.
        waveform: Waveform,
    },
    /// Level-1 MOSFET.
    Mosfet {
        /// Drain terminal.
        d: NodeId,
        /// Gate terminal.
        g: NodeId,
        /// Source terminal.
        s: NodeId,
        /// Bulk terminal.
        b: NodeId,
        /// Model card.
        model: MosModel,
        /// Instance geometry.
        geometry: MosGeometry,
    },
    /// Junction diode, anode `p`, cathode `n`.
    Diode {
        /// Anode.
        p: NodeId,
        /// Cathode.
        n: NodeId,
        /// Model card.
        model: DiodeModel,
    },
    /// Voltage-controlled switch: conductance between `p`/`n` interpolated
    /// smoothly between `1/roff` and `1/ron` as `v(cp) − v(cn)` crosses
    /// `threshold ± transition/2`.
    VSwitch {
        /// Positive switched terminal.
        p: NodeId,
        /// Negative switched terminal.
        n: NodeId,
        /// Positive control terminal.
        cp: NodeId,
        /// Negative control terminal.
        cn: NodeId,
        /// On-resistance in ohms.
        ron: f64,
        /// Off-resistance in ohms.
        roff: f64,
        /// Control-voltage threshold in volts.
        threshold: f64,
        /// Width of the smooth transition band in volts.
        transition: f64,
    },
}

impl Device {
    /// Terminals of the device, for connectivity checks.
    pub fn terminals(&self) -> Vec<NodeId> {
        match self {
            Device::Resistor { p, n, .. }
            | Device::Capacitor { p, n, .. }
            | Device::VSource { p, n, .. }
            | Device::ISource { p, n, .. }
            | Device::Diode { p, n, .. } => vec![*p, *n],
            Device::Mosfet { d, g, s, b, .. } => vec![*d, *g, *s, *b],
            Device::VSwitch { p, n, cp, cn, .. } => vec![*p, *n, *cp, *cn],
        }
    }

    /// `true` for devices that add a branch-current unknown to the MNA
    /// system (voltage sources).
    pub fn has_branch_current(&self) -> bool {
        matches!(self, Device::VSource { .. })
    }

    /// `true` for devices whose stamp depends on the iterate (needs Newton).
    pub fn is_nonlinear(&self) -> bool {
        matches!(
            self,
            Device::Mosfet { .. } | Device::Diode { .. } | Device::VSwitch { .. }
        )
    }
}

/// Smoothstep interpolation used by the voltage-controlled switch:
/// returns `(value, derivative)` of the 0→1 smooth transition of `x` over
/// `[0, 1]`.
pub(crate) fn smoothstep(x: f64) -> (f64, f64) {
    if x <= 0.0 {
        (0.0, 0.0)
    } else if x >= 1.0 {
        (1.0, 0.0)
    } else {
        (x * x * (3.0 - 2.0 * x), 6.0 * x * (1.0 - x))
    }
}

/// Switch conductance and its derivative with respect to the control
/// voltage: [`prepare_switch`] followed by [`SwitchPrepared::evaluate`].
pub fn switch_conductance(
    vc: f64,
    ron: f64,
    roff: f64,
    threshold: f64,
    transition: f64,
) -> (f64, f64) {
    prepare_switch(ron, roff, threshold, transition).evaluate(vc)
}

/// The constants of one voltage-controlled switch, folded once (see
/// [`prepare_switch`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchPrepared {
    /// `1/roff`.
    g_off: f64,
    /// `1/ron − 1/roff`.
    g_span: f64,
    /// Lower edge of the transition band, `threshold − transition/2`.
    lo: f64,
    /// Width of the transition band (at least 1 nV).
    width: f64,
}

/// Folds a switch's parameters for [`SwitchPrepared::evaluate`]. Each
/// constant is the expression [`switch_conductance`] would compute on
/// every call, so a prepared evaluation is bit-identical to it.
pub fn prepare_switch(ron: f64, roff: f64, threshold: f64, transition: f64) -> SwitchPrepared {
    let g_on = 1.0 / ron;
    let g_off = 1.0 / roff;
    let half = 0.5 * transition.max(1e-9);
    SwitchPrepared {
        g_off,
        g_span: g_on - g_off,
        lo: threshold - half,
        width: 2.0 * half,
    }
}

impl SwitchPrepared {
    /// Conductance and its derivative with respect to the control voltage
    /// `vc`.
    pub fn evaluate(&self, vc: f64) -> (f64, f64) {
        let x = (vc - self.lo) / self.width;
        let (s, ds_dx) = smoothstep(x);
        let g = self.g_off + self.g_span * s;
        let dg_dvc = self.g_span * ds_dx / self.width;
        (g, dg_dvc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    #[test]
    fn terminals_and_flags() {
        let r = Device::Resistor {
            p: NodeId(1),
            n: NodeId(0),
            resistance: 1e3,
        };
        assert_eq!(r.terminals(), vec![NodeId(1), NodeId(0)]);
        assert!(!r.has_branch_current());
        assert!(!r.is_nonlinear());

        let v = Device::VSource {
            p: NodeId(1),
            n: NodeId(0),
            waveform: Waveform::Dc(1.0),
        };
        assert!(v.has_branch_current());

        let m = Device::Mosfet {
            d: NodeId(1),
            g: NodeId(2),
            s: NodeId(0),
            b: NodeId(0),
            model: MosModel::default(),
            geometry: MosGeometry::new(1e-6, 1e-6).unwrap(),
        };
        assert!(m.is_nonlinear());
        assert_eq!(m.terminals().len(), 4);
        let _ = Circuit::GROUND; // silence unused-import lint paranoia
    }

    #[test]
    fn smoothstep_endpoints() {
        assert_eq!(smoothstep(-1.0), (0.0, 0.0));
        assert_eq!(smoothstep(2.0), (1.0, 0.0));
        let (v, d) = smoothstep(0.5);
        assert!((v - 0.5).abs() < 1e-12);
        assert!((d - 1.5).abs() < 1e-12);
    }

    #[test]
    fn switch_conductance_limits() {
        let (g_off, _) = switch_conductance(-10.0, 1.0, 1e9, 0.5, 0.1);
        assert!((g_off - 1e-9).abs() < 1e-15);
        let (g_on, _) = switch_conductance(10.0, 1.0, 1e9, 0.5, 0.1);
        assert!((g_on - 1.0).abs() < 1e-12);
        // Midpoint: halfway between conductances.
        let (g_mid, dg) = switch_conductance(0.5, 1.0, 1e9, 0.5, 0.1);
        assert!((g_mid - 0.5).abs() < 1e-9);
        assert!(dg > 0.0);
    }
}
