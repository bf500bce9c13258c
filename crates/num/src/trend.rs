//! Monotonicity classification of sampled responses.
//!
//! The stress optimizer probes a stress at a handful of values and asks how
//! a response (a settlement voltage, a threshold curve position, a border
//! resistance) moves. The paper's methodology branches on exactly this
//! classification: a monotone response lets the optimizer pick a direction
//! from two simulations, while a non-monotone response (like `Vsa` versus
//! temperature in Figure 4) forces a full border-resistance comparison.

use crate::NumError;

/// Direction of a sampled response with respect to its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trend {
    /// Response rises as the input rises (within tolerance).
    Increasing,
    /// Response falls as the input rises (within tolerance).
    Decreasing,
    /// Response does not move beyond tolerance.
    Flat,
    /// Response moves both up and down — e.g. the temperature behaviour the
    /// paper calls "rarely observed".
    NonMonotonic,
}

impl Trend {
    /// `true` for [`Trend::Increasing`] or [`Trend::Decreasing`].
    pub fn is_monotonic(&self) -> bool {
        matches!(self, Trend::Increasing | Trend::Decreasing)
    }

    /// The opposite direction; `Flat` and `NonMonotonic` are their own
    /// opposites.
    pub fn reversed(&self) -> Trend {
        match self {
            Trend::Increasing => Trend::Decreasing,
            Trend::Decreasing => Trend::Increasing,
            other => *other,
        }
    }
}

impl std::fmt::Display for Trend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Trend::Increasing => "increasing",
            Trend::Decreasing => "decreasing",
            Trend::Flat => "flat",
            Trend::NonMonotonic => "non-monotonic",
        };
        f.write_str(s)
    }
}

/// Classifies the trend of ordinates `y` sampled at increasing inputs.
///
/// Differences with magnitude below `tol` count as flat. Inputs are assumed
/// ordered by the caller (they usually come straight from a sweep).
///
/// # Errors
///
/// * [`NumError::InvalidArgument`] if fewer than two samples are given or
///   `tol` is negative.
/// * [`NumError::NonFinite`] if a sample is NaN/inf.
///
/// # Example
///
/// ```
/// use dso_num::trend::{classify, Trend};
///
/// # fn main() -> Result<(), dso_num::NumError> {
/// assert_eq!(classify(&[1.0, 2.0, 3.0], 1e-9)?, Trend::Increasing);
/// assert_eq!(classify(&[1.0, 2.0, 1.5], 1e-9)?, Trend::NonMonotonic);
/// assert_eq!(classify(&[1.0, 1.0 + 1e-12], 1e-9)?, Trend::Flat);
/// # Ok(())
/// # }
/// ```
pub fn classify(y: &[f64], tol: f64) -> Result<Trend, NumError> {
    if y.len() < 2 {
        return Err(NumError::InvalidArgument(
            "trend classification needs at least two samples".into(),
        ));
    }
    if tol < 0.0 {
        return Err(NumError::InvalidArgument(
            "trend tolerance must be non-negative".into(),
        ));
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(NumError::NonFinite {
            context: "trend samples".into(),
        });
    }
    let mut saw_up = false;
    let mut saw_down = false;
    for w in y.windows(2) {
        let d = w[1] - w[0];
        if d > tol {
            saw_up = true;
        } else if d < -tol {
            saw_down = true;
        }
    }
    Ok(match (saw_up, saw_down) {
        (true, true) => Trend::NonMonotonic,
        (true, false) => Trend::Increasing,
        (false, true) => Trend::Decreasing,
        (false, false) => Trend::Flat,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_directions() {
        assert_eq!(classify(&[0.0, 1.0, 2.0], 0.0).unwrap(), Trend::Increasing);
        assert_eq!(classify(&[2.0, 1.0, 0.0], 0.0).unwrap(), Trend::Decreasing);
        assert_eq!(classify(&[1.0, 1.0, 1.0], 0.0).unwrap(), Trend::Flat);
        assert_eq!(
            classify(&[0.0, 1.0, 0.5], 0.0).unwrap(),
            Trend::NonMonotonic
        );
    }

    #[test]
    fn tolerance_flattens_noise() {
        assert_eq!(
            classify(&[1.0, 1.0 + 1e-6, 1.0 - 1e-6], 1e-3).unwrap(),
            Trend::Flat
        );
        assert_eq!(
            classify(&[1.0, 1.1, 1.0999999], 1e-3).unwrap(),
            Trend::Increasing
        );
    }

    #[test]
    fn validation() {
        assert!(classify(&[1.0], 0.0).is_err());
        assert!(classify(&[1.0, 2.0], -1.0).is_err());
        assert!(classify(&[1.0, f64::NAN], 0.0).is_err());
    }

    #[test]
    fn trend_helpers() {
        assert!(Trend::Increasing.is_monotonic());
        assert!(!Trend::Flat.is_monotonic());
        assert_eq!(Trend::Increasing.reversed(), Trend::Decreasing);
        assert_eq!(Trend::NonMonotonic.reversed(), Trend::NonMonotonic);
        assert_eq!(Trend::Decreasing.to_string(), "decreasing");
    }
}
