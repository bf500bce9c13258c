//! [`EvalService`]-backed shmoo adapters.
//!
//! The `dso-shmoo` crate is oracle-generic; these adapters supply oracles
//! that issue [`crate::eval::SimRequest`]s through an [`EvalService`], so
//! shmoo grids share the memo cache with every other analysis layer. In
//! particular the margin shmoo ([`crate::Session::shmoo`]) evaluates
//! exactly the `w0`-settle and `Vsa` requests a plane campaign over the
//! same `(r_values, n_ops)` sweep issues: running it after a plane
//! campaign ([`crate::Session::planes`]) on the same service turns the
//! overlapping row into pure cache hits.

use crate::eval::EvalService;
use crate::CoreError;
use dso_defects::Defect;
use dso_dram::design::OperatingPoint;
use dso_shmoo::ShmooPlot;

use super::detection::DetectionCondition;

/// Shmoos the `(1) w0` × `Vsa` write margin over a resistance × stress
/// grid: a cell passes when the first `w0` of the settle sequence lands
/// below the sense threshold (the cell reads back the written 0).
///
/// `op_of` maps a stress value to the operating point to simulate at; the
/// x axis is the resistance sweep (labelled `R_ohm`), the y axis the
/// stress (labelled `stress_label`). Rows whose operating point a plane
/// campaign already evaluated on the same `service` replay from the cache.
///
/// # Errors
///
/// * [`CoreError::BadRequest`] for `n_ops == 0` or empty axes.
/// * Simulation failures.
pub(crate) fn margin_shmoo<F>(
    service: &EvalService,
    defect: &Defect,
    n_ops: usize,
    r_values: &[f64],
    stress_label: &str,
    stress_values: &[f64],
    op_of: F,
) -> Result<ShmooPlot, CoreError>
where
    F: Fn(f64) -> Result<OperatingPoint, CoreError>,
{
    if r_values.is_empty() || stress_values.is_empty() {
        return Err(CoreError::BadRequest("shmoo axes must be non-empty".into()));
    }
    ShmooPlot::generate(
        "R_ohm",
        r_values,
        stress_label,
        stress_values,
        |r, stress| {
            let op = op_of(stress)?;
            let w0 = service.settle_sequence(defect, r, &op, false, n_ops)?;
            let vsa = service.vsa(defect, r, &op)?;
            Ok(w0[0] - vsa <= 0.0)
        },
    )
}

/// Shmoos a detection condition's pass/fail outcome over a two-stress
/// grid at a fixed defect resistance — the paper's Section-2 Shmoo plot,
/// with every grid point memoized by the `service`.
///
/// `op_of` maps `(x, y)` stress values to the operating point.
///
/// # Errors
///
/// * [`CoreError::BadRequest`] for empty axes.
/// * Simulation failures.
#[allow(clippy::too_many_arguments)] // two labelled axes plus the oracle
pub(crate) fn detection_shmoo<F>(
    service: &EvalService,
    defect: &Defect,
    detection: &DetectionCondition,
    resistance: f64,
    x_label: &str,
    x_values: &[f64],
    y_label: &str,
    y_values: &[f64],
    op_of: F,
) -> Result<ShmooPlot, CoreError>
where
    F: Fn(f64, f64) -> Result<OperatingPoint, CoreError>,
{
    if x_values.is_empty() || y_values.is_empty() {
        return Err(CoreError::BadRequest("shmoo axes must be non-empty".into()));
    }
    ShmooPlot::generate(x_label, x_values, y_label, y_values, |x, y| {
        let op = op_of(x, y)?;
        service.detection_passes(defect, resistance, detection, &op)
    })
}

#[cfg(test)]
mod tests {
    use super::super::test_support::fast_design;
    use super::super::Analyzer;
    use super::*;
    use dso_defects::BitLineSide;
    use dso_shmoo::Outcome;

    fn fast_service() -> EvalService {
        EvalService::new(Analyzer::new(fast_design()))
    }

    #[test]
    fn margin_shmoo_passes_healthy_fails_severe() {
        let service = fast_service();
        let defect = Defect::cell_open(BitLineSide::True);
        let nominal = OperatingPoint::nominal();
        let plot = margin_shmoo(
            &service,
            &defect,
            2,
            &[1e3, 5e7],
            "vdd",
            &[nominal.vdd],
            |vdd| Ok(OperatingPoint { vdd, ..nominal }),
        )
        .unwrap();
        assert_eq!(plot.outcome(0, 0), Outcome::Pass, "{}", plot.render_ascii());
        assert_eq!(plot.outcome(1, 0), Outcome::Fail, "{}", plot.render_ascii());
    }

    #[test]
    fn margin_shmoo_repeat_is_all_cache_hits() {
        let service = fast_service();
        let defect = Defect::cell_open(BitLineSide::True);
        let nominal = OperatingPoint::nominal();
        let run = || {
            margin_shmoo(
                &service,
                &defect,
                2,
                &[1e3, 1e6],
                "vdd",
                &[nominal.vdd],
                |vdd| Ok(OperatingPoint { vdd, ..nominal }),
            )
            .unwrap()
        };
        let first = run();
        let misses_after_first = service.cache_stats().misses;
        let second = run();
        assert_eq!(first, second);
        // Two requests (settle + vsa) per grid point, all replayed.
        assert_eq!(service.cache_stats().misses, misses_after_first);
        assert!(service.cache_stats().hits >= 4);
    }

    #[test]
    fn detection_shmoo_over_stress_grid() {
        let service = fast_service();
        let defect = Defect::cell_open(BitLineSide::True);
        let detection = DetectionCondition::default_for(&defect, 2);
        let nominal = OperatingPoint::nominal();
        // A healthy resistance passes everywhere on a small vdd × tcyc grid.
        let plot = detection_shmoo(
            &service,
            &defect,
            &detection,
            1e3,
            "vdd",
            &[2.2, 2.6],
            "tcyc",
            &[55e-9, 65e-9],
            |vdd, tcyc| {
                Ok(OperatingPoint {
                    vdd,
                    tcyc,
                    ..nominal
                })
            },
        )
        .unwrap();
        assert_eq!(plot.pass_rate(), 1.0, "{}", plot.render_ascii());
    }

    #[test]
    fn empty_axes_rejected() {
        let service = fast_service();
        let defect = Defect::cell_open(BitLineSide::True);
        let nominal = OperatingPoint::nominal();
        assert!(
            margin_shmoo(&service, &defect, 2, &[], "vdd", &[2.5], |vdd| Ok(
                OperatingPoint { vdd, ..nominal }
            ))
            .is_err()
        );
    }
}
