//! Border-resistance extraction.
//!
//! The border resistance (BR) is "the resistive value of a defect at which
//! the memory starts to show faulty behavior" [Al-Ars02]. Opens fail for
//! resistances *above* the border; shorts and bridges fail *below* it. The
//! primary extractor bisects the pass/fail outcome of a detection
//! condition on a logarithmic resistance axis; the planes module offers an
//! independent curve-intersection estimate used for cross-checking.

use super::detection::DetectionCondition;
use crate::eval::EvalService;
use crate::exec::CampaignConfig;
use crate::CoreError;
use dso_defects::Defect;
use dso_dram::design::OperatingPoint;
use dso_num::roots::{bisect_transition_prefetching, Hint, Scale, Transition};
use dso_num::NumError;

/// A located border resistance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BorderResistance {
    /// The border value in ohms (geometric midpoint of the final bracket).
    pub resistance: f64,
    /// `true` if the memory fails for resistances above the border
    /// (opens); `false` if it fails below (shorts, bridges).
    pub fails_above: bool,
    /// Predicate calls spent, cache hits included: each is one
    /// detection-condition request to the [`EvalService`]. Points a
    /// prefetching search simulates ahead on the side are not counted.
    pub evaluations: usize,
}

impl BorderResistance {
    /// Width of the failing resistance range within `sweep`, in decades —
    /// the quantity a stress combination tries to maximize.
    pub fn failing_decades(&self, sweep: (f64, f64)) -> f64 {
        if self.fails_above {
            (sweep.1 / self.resistance).max(1.0).log10()
        } else {
            (self.resistance / sweep.0).max(1.0).log10()
        }
    }

    /// `true` if `other` is *more stressful* than `self`: its failing
    /// range is strictly wider.
    pub fn less_stressful_than(&self, other: &BorderResistance) -> bool {
        if self.fails_above {
            other.resistance < self.resistance
        } else {
            other.resistance > self.resistance
        }
    }
}

impl std::fmt::Display for BorderResistance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let op = if self.fails_above { '>' } else { '<' };
        write!(
            f,
            "fails for R {op} {}",
            dso_spice::units::format_eng(self.resistance, "Ω")
        )
    }
}

/// Smallest ln-width of the lattice cell a hinted border search starts
/// from. Stressed and candidate borders land within ×1.13 (ln 0.12) of the
/// nominal border that hints them, so a cell at least ×1.35 wide holds the
/// border or has it in the neighbour on the side the miss points to. On
/// the 5-decade open sweep this is a depth-5 cell, on the 9-decade short
/// and bridge sweep a depth-6 one.
pub const HINT_CELL_LN_WIDTH: f64 = 0.3;

/// Finds the border resistance of `defect` under `detection` at
/// `op_point`, bisecting within the defect's sweep range to relative (log)
/// tolerance `rel_tol`.
///
/// Every pass/fail probe runs through the [`EvalService`] cache, so
/// repeating a search (or re-probing resistances another workload already
/// simulated) costs no transient solves.
///
/// When `hint` is given the bisection starts from the lattice cell around
/// it ([`dso_num::roots::bisect_transition_hinted`] with cells at least
/// [`HINT_CELL_LN_WIDTH`] wide). Pass/fail being monotone in R, the result
/// is bit-identical to the unhinted search's; only
/// [`BorderResistance::evaluations`] shrinks when the border lies near the
/// hint.
///
/// # Errors
///
/// * [`CoreError::NoFaultObserved`] if the memory passes everywhere in the
///   range (no border).
/// * [`CoreError::AlwaysFaulty`] if it fails everywhere.
/// * [`CoreError::BadRequest`] if it fails only at the end that should
///   pass (pass/fail not monotone).
/// * The first error a probe raises, unchanged (simulation failures, a
///   detection condition that yields no read outcome, …).
pub(crate) fn find_border_near(
    service: &EvalService,
    defect: &Defect,
    detection: &DetectionCondition,
    op_point: &OperatingPoint,
    rel_tol: f64,
    hint: Option<f64>,
) -> Result<BorderResistance, CoreError> {
    search_border(defect, rel_tol, hint, |r, _| {
        service
            .detection_passes(defect, r, detection, op_point)
            .map(|pass| !pass)
    })
}

/// As [`find_border_near`], but when `config` has more than one thread,
/// each probe that has to simulate also simulates, on one helper thread
/// that lives for the whole search ([`EvalService::with_prefetcher`]),
/// the point the search expects to ask next
/// ([`dso_num::roots::bisect_transition_prefetching`],
/// [`EvalService::eval_prefetching`]). The points the search asks, its
/// result and [`BorderResistance::evaluations`] are exactly
/// [`find_border_near`]'s; only wall time and the service's request count
/// move. For lone searches: a search inside an executor fan-out would
/// compete with its sibling workers for the cores.
///
/// # Errors
///
/// As [`find_border_near`].
pub(crate) fn find_border_prefetched(
    service: &EvalService,
    defect: &Defect,
    detection: &DetectionCondition,
    op_point: &OperatingPoint,
    rel_tol: f64,
    hint: Option<f64>,
    config: &CampaignConfig,
) -> Result<BorderResistance, CoreError> {
    service.with_prefetcher(config, |helper| {
        search_border(defect, rel_tol, hint, |r, next| {
            match next {
                Some(next) => service
                    .detection_passes_prefetching(defect, r, next, detection, op_point, helper),
                None => service.detection_passes(defect, r, detection, op_point),
            }
            .map(|pass| !pass)
        })
    })
}

/// The border search over an arbitrary `fails_at(R, next)` oracle, where
/// `next` is the resistance the search expects to ask after `R`, if any
/// (see [`bisect_transition_prefetching`]; the end probes prefetch `hi`
/// with `lo`).
fn search_border(
    defect: &Defect,
    rel_tol: f64,
    hint: Option<f64>,
    mut fails_at: impl FnMut(f64, Option<f64>) -> Result<bool, CoreError>,
) -> Result<BorderResistance, CoreError> {
    let (lo, hi) = defect.sweep_range();
    let fails_above = defect.fails_above();

    // A hinted search verifies its bracket by the ends of the cell around
    // the hint and probes the sweep ends only when it falls back to them.
    // If they refuse the bracket, the plain search below probes them again
    // (from the cache) and classifies the failure exactly as it always has.
    if let Some(at) = hint {
        let hint = Hint {
            at,
            min_cell_span: HINT_CELL_LN_WIDTH,
        };
        match bisect_oriented(lo, hi, rel_tol, Some(hint), fails_above, &mut fails_at)? {
            Ok(transition) => return Ok(record(transition, 0, fails_above)),
            Err(NumError::InvalidBracket { .. }) => {}
            Err(e) => return Err(e.into()),
        }
    }

    // Probe the ends first for precise error reporting. Opens fail at the
    // high end; shorts/bridges fail at the low end.
    let fail_lo = fails_at(lo, Some(hi))?;
    let fail_hi = fails_at(hi, None)?;
    let (failing_end_fails, passing_end_fails) = if fails_above {
        (fail_hi, fail_lo)
    } else {
        (fail_lo, fail_hi)
    };
    match (failing_end_fails, passing_end_fails) {
        (true, false) => {} // proper bracket, bisect below
        (false, false) => {
            return Err(CoreError::NoFaultObserved {
                defect: defect.to_string(),
                range: (lo, hi),
            })
        }
        (true, true) => {
            return Err(CoreError::AlwaysFaulty {
                defect: defect.to_string(),
                range: (lo, hi),
            })
        }
        (false, true) => {
            // Fails only on the end that should pass: the monotonicity
            // assumption (or the failing-direction classification) is
            // broken for this detection condition.
            return Err(CoreError::BadRequest(format!(
                "pass/fail not monotone for {defect}: fails(lo)={fail_lo}, fails(hi)={fail_hi}"
            )));
        }
    }
    let transition = bisect_oriented(lo, hi, rel_tol, None, fails_above, &mut fails_at)??;
    Ok(record(transition, 2, fails_above))
}

/// Log-bisects `fails_at`, oriented so the predicate is false at `lo` and
/// true at `hi`. The outer error is the first error a probe raised, as
/// raised: it stops the bisection, whose own error then carries only a
/// placeholder. The inner one is the bisection's own (a refused bracket).
fn bisect_oriented(
    lo: f64,
    hi: f64,
    rel_tol: f64,
    hint: Option<Hint>,
    fails_above: bool,
    fails_at: &mut impl FnMut(f64, Option<f64>) -> Result<bool, CoreError>,
) -> Result<Result<Transition, NumError>, CoreError> {
    let mut probe_error = None;
    let transition =
        bisect_transition_prefetching(lo, hi, rel_tol, Scale::Logarithmic, hint, |r, next| {
            match fails_at(r, next) {
                Ok(failing) => Ok(if fails_above { failing } else { !failing }),
                Err(e) => {
                    probe_error = Some(e);
                    Err(NumError::InvalidArgument("border probe failed".into()))
                }
            }
        });
    match probe_error {
        Some(e) => Err(e),
        None => Ok(transition),
    }
}

/// Counts a finished search and builds its result; `orientation_probes`
/// is the number of end probes made before the bisection.
fn record(
    transition: Transition,
    orientation_probes: usize,
    fails_above: bool,
) -> BorderResistance {
    let evaluations = orientation_probes + transition.evaluations;
    dso_obs::counter!("border.searches").incr();
    dso_obs::counter!("border.evaluations").add(evaluations as u64);
    // Bisection cost = predicate calls beyond the orientation probes: all
    // of a hinted search's; the plain search's include its two cache-hit
    // re-probes of the ends.
    dso_obs::histogram!(
        "border.bisection_evals",
        &[4.0, 8.0, 12.0, 16.0, 24.0, 32.0]
    )
    .observe(transition.evaluations as f64);
    BorderResistance {
        resistance: (transition.last_false * transition.first_true).sqrt(),
        fails_above,
        evaluations,
    }
}

/// Refines the plane-intersection border estimate by log-bisecting the
/// `(1) w0` × `Vsa` margin — the same quantity as
/// [`super::planes::ResultPlanes::border_from_intersection`] — starting
/// from the sign change on the `r_values` grid.
///
/// The grid walk issues exactly the `w0` settle and `Vsa` requests a plane
/// campaign over the same `(r_values, n_ops)` sweep already evaluated, so
/// running this after a plane campaign ([`crate::Session::planes`]) on the
/// same [`EvalService`] turns the entire walk into cache hits; only the
/// bisection probes between grid points simulate anything new.
///
/// Returns `None` when the margin does not change sign inside the grid
/// (no border in the swept range).
///
/// # Errors
///
/// * [`CoreError::BadRequest`] for a grid of fewer than two points or
///   `n_ops == 0`.
/// * Simulation failures.
pub(crate) fn refine_border_from_planes(
    service: &EvalService,
    defect: &Defect,
    op_point: &OperatingPoint,
    r_values: &[f64],
    n_ops: usize,
    rel_tol: f64,
) -> Result<Option<BorderResistance>, CoreError> {
    if r_values.len() < 2 {
        return Err(CoreError::BadRequest(format!(
            "border refinement needs at least 2 grid points, got {}",
            r_values.len()
        )));
    }
    let mut evaluations = 0usize;
    let mut faulty_at = |r: f64| -> Result<bool, CoreError> {
        evaluations += 1;
        let w0 = service.settle_sequence(defect, r, op_point, false, n_ops)?;
        let vsa = service.vsa(defect, r, op_point)?;
        Ok(w0[0] - vsa > 0.0)
    };

    // Walk the campaign grid for the first sign change of the margin.
    let mut bracket = None;
    let mut prev = (r_values[0], faulty_at(r_values[0])?);
    for &r in &r_values[1..] {
        let here = (r, faulty_at(r)?);
        if here.1 != prev.1 {
            bracket = Some((prev, here));
            break;
        }
        prev = here;
    }
    let Some(((mut lo, lo_faulty), (mut hi, _))) = bracket else {
        return Ok(None);
    };

    // Log-bisect the bracketing grid cell down to `rel_tol`.
    while hi / lo > 1.0 + rel_tol {
        let mid = (lo * hi).sqrt();
        if faulty_at(mid)? == lo_faulty {
            lo = mid;
        } else {
            hi = mid;
        }
    }

    dso_obs::counter!("border.searches").incr();
    dso_obs::counter!("border.evaluations").add(evaluations as u64);
    Ok(Some(BorderResistance {
        resistance: (lo * hi).sqrt(),
        fails_above: defect.fails_above(),
        evaluations,
    }))
}

#[cfg(test)]
mod tests {
    use super::super::test_support::fast_design;
    use super::super::Analyzer;
    use super::*;
    use dso_defects::BitLineSide;
    use dso_dram::column::DefectSite;

    fn fast_service() -> EvalService {
        EvalService::new(Analyzer::new(fast_design()))
    }

    #[test]
    fn border_of_cell_open() {
        let service = fast_service();
        let defect = Defect::cell_open(BitLineSide::True);
        let detection = DetectionCondition::default_for(&defect, 2);
        let border = find_border_near(
            &service,
            &defect,
            &detection,
            &OperatingPoint::nominal(),
            0.05,
            None,
        )
        .unwrap();
        assert!(border.fails_above);
        assert!(
            (1e4..1e7).contains(&border.resistance),
            "cell-open border {:.3e} out of plausible range",
            border.resistance
        );
        assert!(border.evaluations > 4);
    }

    #[test]
    fn border_of_short_to_ground() {
        let service = fast_service();
        let defect = Defect::new(DefectSite::Sg, BitLineSide::True);
        let detection = DetectionCondition::default_for(&defect, 1);
        let border = find_border_near(
            &service,
            &defect,
            &detection,
            &OperatingPoint::nominal(),
            0.05,
            None,
        )
        .unwrap();
        assert!(!border.fails_above);
        assert!(
            border.resistance > 1e3,
            "Sg border {:.3e} suspiciously small",
            border.resistance
        );
    }

    #[test]
    fn hinted_border_matches_unhinted_bits() {
        let service = fast_service();
        let nominal = OperatingPoint::nominal();
        for defect in [
            Defect::cell_open(BitLineSide::True),
            Defect::new(DefectSite::Sg, BitLineSide::True),
        ] {
            let detection = DetectionCondition::default_for(&defect, 1);
            let plain =
                find_border_near(&service, &defect, &detection, &nominal, 0.03, None).unwrap();
            for (factor, near) in [(0.9, true), (1.1, true), (10.0, false)] {
                let hint = Some(plain.resistance * factor);
                let hinted =
                    find_border_near(&service, &defect, &detection, &nominal, 0.03, hint).unwrap();
                assert_eq!(
                    hinted.resistance.to_bits(),
                    plain.resistance.to_bits(),
                    "{defect} hint x{factor}"
                );
                assert_eq!(hinted.fails_above, plain.fails_above);
                if near {
                    assert!(
                        hinted.evaluations < plain.evaluations,
                        "{defect} hint x{factor}: {} vs {} evaluations",
                        hinted.evaluations,
                        plain.evaluations
                    );
                }
            }
        }
    }

    #[test]
    fn prefetched_border_matches_plain_search_bits() {
        let defect = Defect::cell_open(BitLineSide::True);
        let detection = DetectionCondition::default_for(&defect, 1);
        let nominal = OperatingPoint::nominal();
        let reference = fast_service();
        let plain =
            find_border_near(&reference, &defect, &detection, &nominal, 0.03, None).unwrap();
        let hint = Some(plain.resistance * 1.1);
        let near = find_border_near(&reference, &defect, &detection, &nominal, 0.03, hint).unwrap();
        for threads in [1, 2] {
            let config = CampaignConfig::with_threads(threads);
            for (hint, expected) in [(None, plain), (hint, near)] {
                let service = fast_service();
                let search = || {
                    find_border_prefetched(
                        &service, &defect, &detection, &nominal, 0.03, hint, &config,
                    )
                    .unwrap()
                };
                let cold = search();
                assert_eq!(cold.resistance.to_bits(), expected.resistance.to_bits());
                assert_eq!(cold, expected, "threads {threads}, hint {hint:?}");
                let after = service.cache_stats();
                // On a fresh service only the plain search's second probes
                // of the sweep ends hit, unless a prefetch answered an ask;
                // one thread prefetches nothing.
                let re_probes = if hint.is_some() { 0 } else { 2 };
                let label = format!("threads {threads}, hint {hint:?}");
                if threads == 1 {
                    let asked = cold.evaluations as u64;
                    let counts = (after.hits, after.misses);
                    assert_eq!(counts, (re_probes, asked - re_probes), "{label}");
                } else {
                    assert!(after.hits > re_probes, "{label}");
                }
                // A repeat is all hits and starts no prefetch.
                let again = search();
                assert_eq!(again, cold);
                let repeat = service.cache_stats();
                assert_eq!(repeat.misses, after.misses, "{label}");
                assert_eq!(repeat.hits - after.hits, again.evaluations as u64);
            }
        }
    }

    /// A monotone open-like oracle (fails above 1 MΩ) that raises `error`
    /// on its `nth` call.
    fn failing_oracle(
        nth: usize,
        error: CoreError,
    ) -> impl FnMut(f64, Option<f64>) -> Result<bool, CoreError> {
        let mut calls = 0;
        let mut error = Some(error);
        move |r, _| {
            calls += 1;
            match (calls == nth).then(|| error.take()).flatten() {
                Some(e) => Err(e),
                None => Ok(r > 1e6),
            }
        }
    }

    /// The service's prefetch contract over `outcome(R)`: an asked point
    /// is replayed from the memo or computed; its prefetch point is
    /// computed beside it and memoized on success, its error dropped.
    fn prefetching_oracle(
        mut outcome: impl FnMut(f64) -> Result<bool, CoreError>,
    ) -> impl FnMut(f64, Option<f64>) -> Result<bool, CoreError> {
        let mut memo = std::collections::HashMap::new();
        move |r: f64, next: Option<f64>| {
            if let Some(&hit) = memo.get(&r.to_bits()) {
                return Ok(hit);
            }
            let asked = outcome(r);
            if let Some(next) = next {
                if let Ok(fails) = outcome(next) {
                    memo.insert(next.to_bits(), fails);
                }
            }
            let fails = asked?;
            memo.insert(r.to_bits(), fails);
            Ok(fails)
        }
    }

    #[test]
    fn probe_errors_survive_the_search() {
        let defect = Defect::cell_open(BitLineSide::True);
        let no_outcome = || CoreError::BadRequest("read cycle produced no outcome".into());
        let at_point = || CoreError::AtPoint {
            operation: "detection".into(),
            resistance: 2e6,
            vc: None,
            attempts: 3,
            source: Box::new(CoreError::Numerical(NumError::NoConvergence {
                iterations: 50,
                residual: 1.0,
            })),
        };
        // Calls 1–2 are the end probes of the plain search, 3–4 its
        // re-probes of the ends; 6 is a bisection probe. A hinted search
        // starts on its cell ends (calls 1–2).
        for (hint, nth) in [(None, 6), (None, 3), (Some(1.1e6), 2), (Some(1.1e6), 4)] {
            let err =
                search_border(&defect, 0.03, hint, failing_oracle(nth, no_outcome())).unwrap_err();
            assert_eq!(err, no_outcome(), "hint {hint:?}, call {nth}");
            assert_eq!(
                crate::service::protocol::code_for(&err),
                crate::service::ErrorCode::BadRequest
            );
            let err =
                search_border(&defect, 0.03, hint, failing_oracle(nth, at_point())).unwrap_err();
            assert_eq!(err, at_point(), "hint {hint:?}, call {nth}");
        }
        // Without an error the same oracle yields a border near 1 MΩ.
        let border = search_border(&defect, 0.03, None, failing_oracle(0, no_outcome())).unwrap();
        assert!((border.resistance / 1e6).ln().abs() < 0.03);

        // Errors at prefetched points: one the search never asks must not
        // surface; one it asks afterwards must come back unchanged.
        let mut tried = (0, 0);
        for hint in [None, Some(1.1e6), Some(0.9e6)] {
            // Asked points, and points computed beside the asked one.
            let asked = std::cell::RefCell::new(Vec::new());
            let prefetched = std::cell::RefCell::new(Vec::new());
            let mut oracle = prefetching_oracle(|r| {
                if asked.borrow().last() != Some(&r.to_bits()) {
                    prefetched.borrow_mut().push(r.to_bits());
                }
                Ok(r > 1e6)
            });
            let clean = search_border(&defect, 0.03, hint, |r, next| {
                asked.borrow_mut().push(r.to_bits());
                oracle(r, next)
            })
            .unwrap();
            drop(oracle);
            let asked = asked.into_inner();
            let (used, unused): (Vec<u64>, Vec<u64>) = prefetched
                .into_inner()
                .into_iter()
                .partition(|p| asked.contains(p));
            tried.0 += used.len();
            tried.1 += unused.len();
            for bits in unused {
                let mut raised = false;
                let oracle = prefetching_oracle(|r| {
                    if r.to_bits() != bits {
                        return Ok(r > 1e6);
                    }
                    raised = true;
                    Err(at_point())
                });
                let border = search_border(&defect, 0.03, hint, oracle).unwrap();
                assert!(
                    raised,
                    "hint {hint:?}: no prefetch at {}",
                    f64::from_bits(bits)
                );
                assert_eq!(border, clean, "hint {hint:?}");
            }
            for bits in used {
                for error in [no_outcome(), at_point()] {
                    let oracle = prefetching_oracle(|r| {
                        if r.to_bits() == bits {
                            Err(error.clone())
                        } else {
                            Ok(r > 1e6)
                        }
                    });
                    let err = search_border(&defect, 0.03, hint, oracle).unwrap_err();
                    assert_eq!(err, error, "hint {hint:?}, at {}", f64::from_bits(bits));
                }
            }
        }
        assert!(
            tried.0 > 0 && tried.1 > 0,
            "{tried:?} used and unused prefetches"
        );
    }

    #[test]
    fn refined_border_agrees_with_bisection() {
        let service = fast_service();
        let defect = Defect::cell_open(BitLineSide::True);
        let grid: Vec<f64> = (0..7).map(|i| 1e4 * 10f64.powf(i as f64 * 0.5)).collect();
        let refined = refine_border_from_planes(
            &service,
            &defect,
            &OperatingPoint::nominal(),
            &grid,
            2,
            0.05,
        )
        .unwrap()
        .expect("cell open has a border inside the grid");
        assert!(refined.fails_above);
        assert!(
            (1e4..1e7).contains(&refined.resistance),
            "refined border {:.3e} out of plausible range",
            refined.resistance
        );
        // Repeating the refinement on the same service replays every probe
        // from the cache bit-identically.
        let hits_before = service.cache_stats().hits;
        let again = refine_border_from_planes(
            &service,
            &defect,
            &OperatingPoint::nominal(),
            &grid,
            2,
            0.05,
        )
        .unwrap()
        .unwrap();
        assert_eq!(again.resistance.to_bits(), refined.resistance.to_bits());
        assert!(service.cache_stats().hits > hits_before);
    }

    #[test]
    fn refined_border_is_none_without_sign_change() {
        let service = fast_service();
        let defect = Defect::cell_open(BitLineSide::True);
        // A grid entirely on the healthy side of the border.
        let refined = refine_border_from_planes(
            &service,
            &defect,
            &OperatingPoint::nominal(),
            &[1e3, 2e3, 4e3],
            2,
            0.05,
        )
        .unwrap();
        assert!(refined.is_none());
    }

    #[test]
    fn stressfulness_comparison() {
        let a = BorderResistance {
            resistance: 2e5,
            fails_above: true,
            evaluations: 0,
        };
        let b = BorderResistance {
            resistance: 5e4,
            fails_above: true,
            evaluations: 0,
        };
        assert!(a.less_stressful_than(&b));
        assert!(!b.less_stressful_than(&a));
        assert!(a.failing_decades((1e3, 1e8)) < b.failing_decades((1e3, 1e8)));

        let c = BorderResistance {
            resistance: 1e6,
            fails_above: false,
            evaluations: 0,
        };
        let d = BorderResistance {
            resistance: 1e9,
            fails_above: false,
            evaluations: 0,
        };
        assert!(c.less_stressful_than(&d));
        assert!(c.failing_decades((1e2, 1e11)) < d.failing_decades((1e2, 1e11)));
    }

    #[test]
    fn display_direction() {
        let b = BorderResistance {
            resistance: 2e5,
            fails_above: true,
            evaluations: 0,
        };
        assert_eq!(b.to_string(), "fails for R > 200 kΩ");
        let s = BorderResistance {
            resistance: 1e6,
            fails_above: false,
            evaluations: 0,
        };
        assert_eq!(s.to_string(), "fails for R < 1 MΩ");
    }
}
