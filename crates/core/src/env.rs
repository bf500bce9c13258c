//! One parsing/warning module for every `DSO_*` execution setting.
//!
//! All positive-integer environment knobs funnel through
//! [`positive_usize`]:
//!
//! * `DSO_THREADS` — campaign worker threads,
//! * `DSO_SERVE_WORKERS` / `DSO_SERVE_QUEUE` / `DSO_SERVE_MAX_FRAME` —
//!   service-daemon worker count, admission-queue capacity, and frame
//!   size limit (read by [`crate::service::ServeConfig::from_env`],
//!   together with the [`non_negative_f64`] knob
//!   `DSO_SERVE_DEADLINE_MS`),
//!
//! with one contract: an invalid or zero value never panics and never
//! silently misconfigures a campaign — the variable falls back to its
//! default and a single warning per variable is printed to stderr (once
//! per process, not once per campaign). `DSO_STORE` (a path) is consumed
//! by [`crate::eval::EvalService::from_env`], and `DSO_TRACE` /
//! `DSO_METRICS` by `dso-obs`; the README's environment table lists them
//! all in one place.

use std::collections::BTreeSet;
use std::sync::Mutex;

/// Parses a positive-integer execution setting from an environment
/// variable's raw value.
///
/// Returns `Ok(None)` when the variable is unset or empty (use the
/// default silently), `Ok(Some(n))` for a valid positive integer, and
/// `Err(raw)` for anything else — including `0`, which would otherwise be
/// clamped into a configuration the user did not ask for.
pub fn parse_setting(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(raw.to_string()),
    }
}

/// Reads the positive-integer setting `var` from the environment.
///
/// Returns `None` when the variable is unset, empty, or invalid; an
/// invalid value additionally warns once per process (see [`warn_once`]),
/// naming `fallback` as what will be used instead.
pub fn positive_usize(var: &str, fallback: &str) -> Option<usize> {
    match parse_setting(std::env::var(var).ok().as_deref()) {
        Ok(n) => n,
        Err(raw) => {
            warn_once(
                var,
                &format!(
                    "ignoring invalid {var}={raw:?} (want a positive integer); using {fallback}"
                ),
            );
            None
        }
    }
}

/// Parses a non-negative finite float setting from an environment
/// variable's raw value (zero is valid — a zero `DSO_SERVE_DEADLINE_MS`
/// means no default deadline).
///
/// Same contract as [`parse_setting`]: `Ok(None)` for unset/empty,
/// `Err(raw)` for garbage, negatives, NaN, and infinities.
pub fn parse_non_negative_f64(raw: Option<&str>) -> Result<Option<f64>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => Ok(Some(v)),
        _ => Err(raw.to_string()),
    }
}

/// Reads the non-negative float setting `var` from the environment;
/// `None` when unset, empty, or invalid (with a once-per-process warning
/// naming `fallback`).
pub fn non_negative_f64(var: &str, fallback: &str) -> Option<f64> {
    match parse_non_negative_f64(std::env::var(var).ok().as_deref()) {
        Ok(v) => v,
        Err(raw) => {
            warn_once(
                var,
                &format!(
                    "ignoring invalid {var}={raw:?} (want a non-negative number); using {fallback}"
                ),
            );
            None
        }
    }
}

/// Prints `warning: {message}` to stderr the first time `var` triggers a
/// warning in this process; later calls for the same variable are silent.
/// Returns whether the warning was printed.
pub fn warn_once(var: &str, message: &str) -> bool {
    static WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    let mut warned = WARNED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if warned.insert(var.to_string()) {
        eprintln!("warning: {message}");
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_setting_accepts_positive_integers() {
        assert_eq!(parse_setting(Some("4")), Ok(Some(4)));
        assert_eq!(parse_setting(Some("  12 ")), Ok(Some(12)));
        assert_eq!(parse_setting(Some("1")), Ok(Some(1)));
    }

    #[test]
    fn parse_setting_unset_or_empty_uses_default_silently() {
        assert_eq!(parse_setting(None), Ok(None));
        assert_eq!(parse_setting(Some("")), Ok(None));
        assert_eq!(parse_setting(Some("   ")), Ok(None));
    }

    #[test]
    fn parse_setting_rejects_zero_and_garbage() {
        assert_eq!(parse_setting(Some("0")), Err("0".to_string()));
        assert_eq!(parse_setting(Some("-3")), Err("-3".to_string()));
        assert_eq!(parse_setting(Some("four")), Err("four".to_string()));
        assert_eq!(parse_setting(Some("4.5")), Err("4.5".to_string()));
        assert_eq!(
            parse_setting(Some("18446744073709551616")), // usize::MAX + 1
            Err("18446744073709551616".to_string())
        );
    }

    #[test]
    fn parse_non_negative_f64_accepts_zero_and_rejects_garbage() {
        assert_eq!(parse_non_negative_f64(Some("0")), Ok(Some(0.0)));
        assert_eq!(parse_non_negative_f64(Some("1e-6")), Ok(Some(1e-6)));
        assert_eq!(parse_non_negative_f64(Some(" 0.5 ")), Ok(Some(0.5)));
        assert_eq!(parse_non_negative_f64(None), Ok(None));
        assert_eq!(parse_non_negative_f64(Some("")), Ok(None));
        assert_eq!(parse_non_negative_f64(Some("-1e-6")), Err("-1e-6".into()));
        assert_eq!(parse_non_negative_f64(Some("NaN")), Err("NaN".into()));
        assert_eq!(parse_non_negative_f64(Some("inf")), Err("inf".into()));
        assert_eq!(parse_non_negative_f64(Some("volts")), Err("volts".into()));
    }

    #[test]
    fn warnings_fire_once_per_variable() {
        assert!(warn_once("DSO_TEST_WARN_A", "first"));
        assert!(!warn_once("DSO_TEST_WARN_A", "second"));
        assert!(warn_once("DSO_TEST_WARN_B", "other variable still warns"));
        assert!(!warn_once("DSO_TEST_WARN_B", "but only once"));
    }

    #[test]
    fn positive_usize_reads_and_validates() {
        // Unset → None, silently.
        assert_eq!(positive_usize("DSO_TEST_UNSET_SETTING", "default"), None);
        std::env::set_var("DSO_TEST_VALID_SETTING", "6");
        assert_eq!(positive_usize("DSO_TEST_VALID_SETTING", "default"), Some(6));
        std::env::set_var("DSO_TEST_INVALID_SETTING", "zero");
        assert_eq!(positive_usize("DSO_TEST_INVALID_SETTING", "default"), None);
        std::env::remove_var("DSO_TEST_VALID_SETTING");
        std::env::remove_var("DSO_TEST_INVALID_SETTING");
    }
}
