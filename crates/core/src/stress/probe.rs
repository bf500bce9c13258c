//! Directional stress probes.
//!
//! For a stress sampled at `{lo, nominal, hi}` the probe measures two
//! *stressfulness* responses:
//!
//! * the **write probe** — how far the detection condition's critical
//!   write leaves the cell from its target rail (Figures 3–5, top panels):
//!   the larger the residual, the weaker the write, the more stressful the
//!   setting;
//! * the **read probe** — where the sense threshold `Vsa` sits relative to
//!   the expected read level (bottom panels): a threshold moving *against*
//!   the expected value makes correct detection harder, i.e. the setting
//!   is more stressful.
//!
//! A monotone response fixes the stress direction from three simulations;
//! anything else is resolved by comparing border resistances.

use super::types::{Direction, StressKind};
use crate::analysis::DetectionCondition;
use crate::eval::{EvalService, SimRequest};
use crate::exec::CampaignConfig;
use crate::CoreError;
use dso_defects::Defect;
use dso_dram::design::OperatingPoint;
use dso_num::trend::{classify, Trend};

/// Raw probe measurements for one stress.
#[derive(Debug, Clone, PartialEq)]
pub struct StressProbes {
    /// The probed stress.
    pub kind: StressKind,
    /// Probed stress values, ascending (lo, nominal, hi).
    pub values: Vec<f64>,
    /// Residual distance of the critical write from its target rail, per
    /// probed value (larger = more stressful).
    pub write_residuals: Vec<f64>,
    /// Signed read hardness per probed value: `Vsa` when the detection
    /// expects a high level, `−Vsa` when it expects a low level (larger =
    /// more stressful).
    pub read_hardness: Vec<f64>,
    /// Trend of the write residuals over the ascending stress values.
    pub write_trend: Trend,
    /// Trend of the read hardness.
    pub read_trend: Trend,
}

/// How a stress direction was decided.
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionBasis {
    /// The probes were monotone and agreed (or one was flat): the
    /// direction follows from a handful of simulations.
    Probes(StressProbes),
    /// The probes conflicted or were non-monotonic — the paper's Figure 4/5
    /// situation — so border resistances were compared at the candidate
    /// stress values `(value, border)`.
    BorderComparison {
        /// The probes that forced the fallback.
        probes: StressProbes,
        /// Candidate stress values and the border resistance each one
        /// produced.
        candidates: Vec<(f64, f64)>,
        /// Candidates whose border measurement failed and were skipped,
        /// with the rendered failure: `(value, reason)`. Non-empty skips
        /// downgrade the report's confidence.
        skipped: Vec<(f64, String)>,
    },
}

/// The decided direction for one stress.
#[derive(Debug, Clone, PartialEq)]
pub struct StressDecision {
    /// The stress.
    pub kind: StressKind,
    /// Chosen direction; `None` means the nominal value is already the
    /// most stressful of the candidates.
    pub direction: Option<Direction>,
    /// The stress value selected for the stressed combination.
    pub chosen_value: f64,
    /// The evidence behind the decision.
    pub basis: DecisionBasis,
}

impl StressDecision {
    /// Table-1 style cell: an arrow, or `"·"` for "stay nominal".
    pub fn arrow(&self) -> &'static str {
        match self.direction {
            Some(d) => d.arrow(),
            None => "·",
        }
    }
}

/// Tolerance (volts) below which probe responses count as flat. Responses
/// near the border sit on a cliff, so small slopes are treated as
/// inconclusive rather than directional.
const PROBE_TOL: f64 = 0.02;

/// Runs the write/read probes for `kind` at `{lo, nominal, hi}`.
///
/// `r_ref` is the defect resistance at which to probe — typically the
/// nominal border resistance, where sensitivity is maximal. The write-end
/// and `Vsa` measurements for every probed value are submitted to the
/// [`EvalService`] as one batch (fanned out per `exec`), so independent
/// probe points simulate concurrently and repeated probes replay from the
/// cache.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn probe_stress(
    service: &EvalService,
    defect: &Defect,
    detection: &DetectionCondition,
    nominal: &OperatingPoint,
    kind: StressKind,
    r_ref: f64,
    exec: &CampaignConfig,
) -> Result<StressProbes, CoreError> {
    let (lo, hi) = kind.spec_range();
    let nom = kind.value_in(nominal);
    let mut values = vec![lo, nom, hi];
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite stress values"));
    values.dedup_by(|a, b| (*a - *b).abs() < 1e-15);

    let critical_high = detection.critical_write().unwrap_or(false);
    let expect_high = detection.expected_level();
    let target_rail = |op: &OperatingPoint| if critical_high { op.vdd } else { 0.0 };

    // Two requests per probed value, interleaved [write-end, vsa]. The
    // critical write is applied once from the opposite rail; the residual
    // is taken at the end of the write pulse so that the probe judges the
    // write operation itself (paper Sec. 4.1), not the retention behaviour
    // of the rest of the cycle.
    let mut ops = Vec::with_capacity(values.len());
    let mut requests = Vec::with_capacity(2 * values.len());
    for &v in &values {
        let op = kind.apply_to(nominal, v)?;
        requests.push(SimRequest::write_end(defect, r_ref, &op, critical_high));
        requests.push(SimRequest::vsa(defect, r_ref, &op));
        ops.push(op);
    }
    // Every stress after the first finds the nominal point's `Vsa` in the
    // memo (its probes included the nominal value); the `Vsa` searches
    // start from it. A hint never changes a value, only the reads spent.
    let vsa_hint = service
        .memoized(&SimRequest::vsa(defect, r_ref, nominal))
        .and_then(|v| v.scalar().ok());
    // Chunk 1: each request is an independent point (no warm chains here),
    // so the finest decomposition gives the best fan-out.
    let mut results = service
        .eval_batch_hinted(&requests, vsa_hint, &exec.clone().with_chunk(1))
        .into_iter();

    let mut write_residuals = Vec::with_capacity(values.len());
    let mut read_hardness = Vec::with_capacity(values.len());
    for op in &ops {
        let vc = results.next().expect("one result per request")?.scalar()?;
        write_residuals.push((vc - target_rail(op)).abs());
        let vsa = results.next().expect("one result per request")?.scalar()?;
        read_hardness.push(if expect_high { vsa } else { -vsa });
    }

    Ok(StressProbes {
        kind,
        write_trend: classify(&write_residuals, PROBE_TOL)?,
        read_trend: classify(&read_hardness, PROBE_TOL)?,
        values,
        write_residuals,
        read_hardness,
    })
}

/// Combines the two probe trends into a direction, or `None` when the
/// probes cannot decide and a border comparison is required — for
/// conflicting monotone directions (the paper's Figure 5), any
/// non-monotonic response (Figure 4), or two flat probes (no signal at
/// all).
pub fn combine_trends(write: Trend, read: Trend) -> Option<Direction> {
    let to_dir = |t: Trend| match t {
        Trend::Increasing => Some(Direction::Increase),
        Trend::Decreasing => Some(Direction::Decrease),
        _ => None,
    };
    match (write, read) {
        (Trend::Flat, Trend::Flat) => None,
        (Trend::NonMonotonic, _) | (_, Trend::NonMonotonic) => None,
        (w, Trend::Flat) => to_dir(w),
        (Trend::Flat, r) => to_dir(r),
        (w, r) if w == r => to_dir(w),
        _ => None, // conflicting monotone directions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::test_support::fast_design;
    use crate::analysis::Analyzer;
    use dso_defects::BitLineSide;

    #[test]
    fn combine_trend_matrix() {
        use Trend::*;
        // No signal at all: resolve by border comparison.
        assert_eq!(combine_trends(Flat, Flat), None);
        assert_eq!(combine_trends(Increasing, Flat), Some(Direction::Increase));
        assert_eq!(combine_trends(Flat, Decreasing), Some(Direction::Decrease));
        assert_eq!(
            combine_trends(Increasing, Increasing),
            Some(Direction::Increase)
        );
        assert_eq!(combine_trends(Increasing, Decreasing), None);
        assert_eq!(combine_trends(NonMonotonic, Flat), None);
        assert_eq!(combine_trends(Flat, NonMonotonic), None);
    }

    #[test]
    fn timing_probe_finds_shorter_cycle_more_stressful() {
        // The paper's Figure 3: reducing tcyc weakens w0, leaves the sense
        // threshold alone.
        let service = EvalService::new(Analyzer::new(fast_design()));
        let defect = Defect::cell_open(BitLineSide::True);
        let detection = DetectionCondition::default_for(&defect, 2);
        let probes = probe_stress(
            &service,
            &defect,
            &detection,
            &OperatingPoint::nominal(),
            StressKind::CycleTime,
            2e5,
            &CampaignConfig::serial(),
        )
        .unwrap();
        assert_eq!(probes.values.len(), 3);
        // Larger tcyc -> stronger write -> smaller residual: decreasing.
        assert_eq!(
            probes.write_trend,
            Trend::Decreasing,
            "residuals {:?}",
            probes.write_residuals
        );
        // Direction: decrease tcyc.
        let combined = combine_trends(probes.write_trend, probes.read_trend);
        assert_eq!(combined, Some(Direction::Decrease));
    }

    #[test]
    fn probe_values_sorted_unique() {
        let service = EvalService::new(Analyzer::new(fast_design()));
        let defect = Defect::cell_open(BitLineSide::True);
        let detection = DetectionCondition::default_for(&defect, 1);
        let probes = probe_stress(
            &service,
            &defect,
            &detection,
            &OperatingPoint::nominal(),
            StressKind::Temperature,
            2e5,
            &CampaignConfig::serial(),
        )
        .unwrap();
        assert!(probes.values.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(probes.values[1], 27.0);
    }

    #[test]
    fn decision_arrow() {
        let probes = StressProbes {
            kind: StressKind::CycleTime,
            values: vec![1.0, 2.0],
            write_residuals: vec![0.0, 0.0],
            read_hardness: vec![0.0, 0.0],
            write_trend: Trend::Flat,
            read_trend: Trend::Flat,
        };
        let d = StressDecision {
            kind: StressKind::CycleTime,
            direction: Some(Direction::Decrease),
            chosen_value: 55e-9,
            basis: DecisionBasis::Probes(probes.clone()),
        };
        assert_eq!(d.arrow(), "↓");
        let none = StressDecision {
            kind: StressKind::CycleTime,
            direction: None,
            chosen_value: 60e-9,
            basis: DecisionBasis::Probes(probes),
        };
        assert_eq!(none.arrow(), "·");
    }
}
