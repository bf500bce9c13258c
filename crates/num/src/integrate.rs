//! Numerical integration support.
//!
//! The transient engine discretizes each capacitor with a *companion model*:
//! at every time step the capacitor is replaced by a conductance `geq` in
//! parallel with a current source `ieq` whose values depend on the
//! integration method. [`Method`] provides those coefficients.

use crate::NumError;

/// Implicit integration methods supported by the transient engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// First-order backward Euler — strongly damped, good start-up behaviour.
    BackwardEuler,
    /// Second-order trapezoidal — accurate, can ring on discontinuities.
    #[default]
    Trapezoidal,
}

impl Method {
    /// Local truncation-error order of the method.
    pub fn order(&self) -> usize {
        match self {
            Method::BackwardEuler => 1,
            Method::Trapezoidal => 2,
        }
    }

    /// Companion-model coefficients for a capacitor of capacitance `c` at
    /// step size `dt`, given the voltage `v_prev` and current `i_prev`
    /// through the capacitor at the previous accepted time point.
    ///
    /// The capacitor is replaced by `i = geq·v − ieq` (current flowing
    /// from + to − node), so the MNA stamp adds `geq` to the conductance
    /// matrix and `ieq` to the right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidArgument`] if `dt <= 0` or `c < 0`.
    pub fn companion(
        &self,
        c: f64,
        dt: f64,
        v_prev: f64,
        i_prev: f64,
    ) -> Result<Companion, NumError> {
        if dt <= 0.0 {
            return Err(NumError::InvalidArgument(format!(
                "companion: dt must be positive, got {dt}"
            )));
        }
        if c < 0.0 {
            return Err(NumError::InvalidArgument(format!(
                "companion: capacitance must be non-negative, got {c}"
            )));
        }
        Ok(match self {
            Method::BackwardEuler => {
                let geq = c / dt;
                Companion {
                    geq,
                    ieq: geq * v_prev,
                }
            }
            Method::Trapezoidal => {
                let geq = 2.0 * c / dt;
                Companion {
                    geq,
                    ieq: geq * v_prev + i_prev,
                }
            }
        })
    }

    /// Recovers the capacitor current at the new time point from the solved
    /// voltage, for use as `i_prev` of the next step.
    pub fn current(&self, companion: Companion, v_new: f64) -> f64 {
        companion.geq * v_new - companion.ieq
    }
}

/// Companion-model coefficients produced by [`Method::companion`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Companion {
    /// Equivalent conductance added to the MNA matrix.
    pub geq: f64,
    /// Equivalent current source added to the right-hand side.
    pub ieq: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders() {
        assert_eq!(Method::BackwardEuler.order(), 1);
        assert_eq!(Method::Trapezoidal.order(), 2);
    }

    #[test]
    fn backward_euler_companion_matches_manual_rc() {
        // RC discharge: C dv/dt = -v/R. With companion model, each step
        // solves (geq + 1/R) v_new = ieq.
        let (r, c, dt) = (1e3, 1e-6, 1e-5);
        let mut v = 1.0;
        let method = Method::BackwardEuler;
        for _ in 0..100 {
            let comp = method.companion(c, dt, v, 0.0).unwrap();
            v = comp.ieq / (comp.geq + 1.0 / r);
        }
        let t = 100.0 * dt;
        let exact = (-t / (r * c)).exp();
        assert!((v - exact).abs() < 1e-2, "v={v} exact={exact}");
    }

    #[test]
    fn trapezoidal_is_more_accurate_than_be() {
        let (r, c, dt) = (1e3, 1e-6, 2e-5);
        let run = |method: Method| {
            let mut v = 1.0;
            let mut i_prev = -v / r; // capacitor current at t=0
            for _ in 0..50 {
                let comp = method.companion(c, dt, v, i_prev).unwrap();
                v = comp.ieq / (comp.geq + 1.0 / r);
                i_prev = method.current(comp, v);
            }
            v
        };
        let exact = (-50.0 * dt / (r * c)).exp();
        let be_err = (run(Method::BackwardEuler) - exact).abs();
        let tr_err = (run(Method::Trapezoidal) - exact).abs();
        assert!(
            tr_err < be_err / 5.0,
            "trapezoidal ({tr_err:.3e}) should beat BE ({be_err:.3e})"
        );
    }

    #[test]
    fn companion_rejects_bad_dt() {
        assert!(Method::BackwardEuler
            .companion(1e-12, 0.0, 0.0, 0.0)
            .is_err());
        assert!(Method::Trapezoidal
            .companion(1e-12, -1.0, 0.0, 0.0)
            .is_err());
    }

    #[test]
    fn companion_rejects_negative_capacitance() {
        assert!(Method::BackwardEuler
            .companion(-1.0, 1e-9, 0.0, 0.0)
            .is_err());
    }

    #[test]
    fn current_recovery_round_trip() {
        let method = Method::Trapezoidal;
        let comp = method.companion(1e-12, 1e-9, 0.5, 1e-6).unwrap();
        let i = method.current(comp, 0.7);
        assert!((i - (comp.geq * 0.7 - comp.ieq)).abs() < 1e-18);
    }
}
