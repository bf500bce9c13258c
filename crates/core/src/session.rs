//! The unified analysis session.
//!
//! A [`Session`] bundles the three things every analysis entry point used
//! to take separately — an [`EvalService`] (memo cache + optional
//! persistent store), a [`CampaignConfig`] (threads, chunk size,
//! warm-start), and the column design behind both — into one object
//! built once, usually from the environment:
//!
//! ```no_run
//! use dso_core::Session;
//! use dso_defects::{BitLineSide, Defect};
//! use dso_dram::design::OperatingPoint;
//!
//! # fn main() -> Result<(), dso_core::CoreError> {
//! let session = Session::from_env();
//! let defect = Defect::cell_open(BitLineSide::True);
//! let campaign = session.planes(
//!     &defect,
//!     &OperatingPoint::nominal(),
//!     &[1e4, 1e5, 1e6, 1e7],
//!     2,
//! )?;
//! println!("border: {:?}", campaign.border_from_intersection()?);
//! # Ok(())
//! # }
//! ```
//!
//! Every method shares the session's memo cache: a border extraction after
//! a plane campaign replays the overlapping grid points, a shmoo row over
//! an already-campaigned operating point is free, and with `DSO_STORE`
//! set all of it persists across processes.

use crate::analysis::border::{
    find_border_prefetched, refine_border_from_planes, BorderResistance,
};
use crate::analysis::design_space::{
    design_sweep_impl, DesignSpace, DesignSweepRequest, DesignSweepResult,
};
use crate::analysis::detection::{derive_detection, DetectionCondition};
use crate::analysis::dictionary::{build_dictionary, FaultDictionary};
use crate::analysis::planes::{plane_campaign_hooked, PlaneCampaign};
use crate::analysis::shmoo::{detection_shmoo, margin_shmoo};
use crate::analysis::sweep::CampaignFaults;
use crate::analysis::{Analyzer, DefectiveCell};
use crate::eval::EvalService;
use crate::exec::{CampaignConfig, ExecHooks};
use crate::store::ResultStore;
use crate::CoreError;
use dso_defects::Defect;
use dso_dram::design::{ColumnDesign, OperatingPoint};
use dso_march::coverage::{evaluate_coverage, CoverageReport, FaultCase};
use dso_march::test::MarchTest;
use dso_shmoo::ShmooPlot;
use dso_spice::recovery::RecoveryPolicy;
use std::path::PathBuf;

/// Builder for a [`Session`]: column design, recovery policy, execution
/// policy, and persistence, each defaulting sensibly (and to the
/// environment where a `DSO_*` variable exists).
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    design: ColumnDesign,
    recovery: RecoveryPolicy,
    config: Option<CampaignConfig>,
    store: Option<PathBuf>,
}

impl SessionBuilder {
    /// Sets the column design under analysis.
    pub fn design(mut self, design: ColumnDesign) -> Self {
        self.design = design;
        self
    }

    /// Sets the convergence-recovery policy applied to every engine.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Sets the execution policy explicitly. Without this, the session
    /// reads `DSO_THREADS` via [`CampaignConfig::from_env`].
    pub fn config(mut self, config: CampaignConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Attaches (creating if absent) a persistent result store at `path`
    /// as the disk cache tier. Without this, the session honors the
    /// `DSO_STORE` environment variable; unlike the environment path —
    /// which degrades to in-memory with a warning — an explicitly
    /// requested store that cannot be opened is an error.
    pub fn store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store = Some(path.into());
        self
    }

    /// Builds the session, applying `DSO_TRACE` / `DSO_METRICS` through
    /// [`dso_obs::init_from_env`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Store`] when an explicitly requested store cannot be
    /// opened or belongs to a different analyzer context.
    pub fn build(self) -> Result<Session, CoreError> {
        dso_obs::init_from_env();
        let analyzer = Analyzer::new(self.design).with_recovery(self.recovery);
        let config = self.config.unwrap_or_else(CampaignConfig::from_env);
        let service = match self.store {
            Some(path) => {
                let store = ResultStore::open(&path, EvalService::context_for(&analyzer))?;
                EvalService::with_store(analyzer, store)?
            }
            None => EvalService::from_env(analyzer),
        };
        Ok(Session { service, config })
    }
}

/// The unified entry point to every analysis: result planes, border
/// resistances, shmoo grids, detection conditions, and march-test fault
/// coverage, all sharing one memo cache and one execution policy.
///
/// See the [module docs](self) for the one-stop example.
#[derive(Debug)]
pub struct Session {
    service: EvalService,
    config: CampaignConfig,
}

impl Session {
    /// Starts a builder with default design, recovery, and environment
    /// execution/persistence settings.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// A session for the default column design, configured entirely from
    /// the environment: `DSO_THREADS` (execution), `DSO_STORE`
    /// (persistence, degrading to in-memory with a warning if unusable),
    /// and `DSO_TRACE` / `DSO_METRICS` (observability, applied here
    /// through [`dso_obs::init_from_env`]).
    pub fn from_env() -> Self {
        Session::with_design(ColumnDesign::default())
    }

    /// [`Session::from_env`] for an explicit column design.
    pub fn with_design(design: ColumnDesign) -> Self {
        dso_obs::init_from_env();
        Session {
            service: EvalService::from_env(Analyzer::new(design)),
            config: CampaignConfig::from_env(),
        }
    }

    /// Wraps an existing service and execution policy (for callers that
    /// already own an [`EvalService`], e.g. one built on an explicit
    /// [`Analyzer`] or one whose cache an earlier session filled).
    pub fn from_parts(service: EvalService, config: CampaignConfig) -> Self {
        Session { service, config }
    }

    /// Replaces the execution policy, keeping the service (and its cache).
    pub fn with_config(mut self, config: CampaignConfig) -> Self {
        self.config = config;
        self
    }

    /// The evaluation service (memo cache + optional store).
    pub fn service(&self) -> &EvalService {
        &self.service
    }

    /// The execution policy campaigns run under.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Decomposes the session into its service and execution policy.
    pub fn into_parts(self) -> (EvalService, CampaignConfig) {
        (self.service, self.config)
    }

    // ---- analyses ----------------------------------------------------

    /// Fault-tolerant result-plane campaign over a resistance sweep (the
    /// paper's Figures 2 and 6): point failures become interpolated gaps
    /// with an explicit confidence downgrade, and every attempted point is
    /// recorded in the returned report. A caller that needs every point
    /// simulated (a published figure, say) checks
    /// [`Confidence::is_full`](crate::analysis::Confidence::is_full) on
    /// the result.
    ///
    /// # Errors
    ///
    /// * [`CoreError::BadRequest`] for invalid sweeps.
    /// * [`CoreError::SweepFailed`] when fewer than two points survive or
    ///   an edge point failed.
    /// * [`CoreError::BorderInGap`] when a gap straddles the border
    ///   crossing.
    pub fn planes(
        &self,
        defect: &Defect,
        op_point: &OperatingPoint,
        r_values: &[f64],
        n_ops: usize,
    ) -> Result<PlaneCampaign, CoreError> {
        self.planes_faulted(defect, op_point, r_values, n_ops, &CampaignFaults::new())
    }

    /// [`Session::planes`] with the deterministic fault-injection harness
    /// armed at selected sweep indices.
    ///
    /// # Errors
    ///
    /// As [`Session::planes`].
    pub fn planes_faulted(
        &self,
        defect: &Defect,
        op_point: &OperatingPoint,
        r_values: &[f64],
        n_ops: usize,
        faults: &CampaignFaults,
    ) -> Result<PlaneCampaign, CoreError> {
        plane_campaign_hooked(
            &self.service,
            defect,
            op_point,
            r_values,
            n_ops,
            faults,
            &self.config,
            &ExecHooks::default(),
        )
    }

    /// One-pass cross-design sweep: fans
    /// `(designs × defects × R × operating points)` through the plane
    /// pipeline, sharing one evaluation service between designs whose
    /// configs expand to the same column design (counted in
    /// [`crate::exec::CampaignPerfStats::cross_design_dedup`]). Each per-design
    /// analyzer inherits this session's recovery policy; the session's
    /// own design and store are not used — the design axis comes entirely
    /// from `space`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::BadRequest`] for an invalid request.
    /// * The first failing campaign's error otherwise.
    pub fn design_sweep(
        &self,
        space: &DesignSpace,
        request: &DesignSweepRequest,
    ) -> Result<DesignSweepResult, CoreError> {
        design_sweep_impl(space, request, self.service.analyzer(), &self.config)
    }

    /// The border resistance of `defect` under `detection`, by pass/fail
    /// log-bisection within the defect's sweep range to relative tolerance
    /// `rel_tol`.
    ///
    /// When the session's config has more than one thread, each probe that
    /// simulates also simulates, on a second thread, the probe the
    /// bisection expects next: the result, [`BorderResistance::evaluations`]
    /// included, is the one-thread search's bit for bit, in less wall time.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoFaultObserved`] if the memory passes everywhere in
    ///   the defect's sweep range (no border).
    /// * [`CoreError::AlwaysFaulty`] if it fails everywhere.
    /// * [`CoreError::BadRequest`] if it fails only at the end that should
    ///   pass (pass/fail not monotone).
    /// * The first error a probe raises, unchanged (simulation failures, a
    ///   detection condition that yields no read outcome, …).
    pub fn border(
        &self,
        defect: &Defect,
        detection: &DetectionCondition,
        op_point: &OperatingPoint,
        rel_tol: f64,
    ) -> Result<BorderResistance, CoreError> {
        find_border_prefetched(
            &self.service,
            defect,
            detection,
            op_point,
            rel_tol,
            None,
            &self.config,
        )
    }

    /// Refines the plane-intersection border estimate by log-bisecting the
    /// `(1) w0` × `Vsa` margin on (and between) the campaign grid; after
    /// [`Session::planes`] over the same sweep, the grid walk is pure
    /// cache hits.
    ///
    /// # Errors
    ///
    /// * [`CoreError::BadRequest`] for a grid of fewer than two points or
    ///   `n_ops == 0`.
    /// * Simulation failures.
    pub fn refine_border(
        &self,
        defect: &Defect,
        op_point: &OperatingPoint,
        r_values: &[f64],
        n_ops: usize,
        rel_tol: f64,
    ) -> Result<Option<BorderResistance>, CoreError> {
        refine_border_from_planes(&self.service, defect, op_point, r_values, n_ops, rel_tol)
    }

    /// Shmoos the `(1) w0` × `Vsa` write margin over a resistance × stress
    /// grid; `op_of` maps each stress value to the operating point to
    /// simulate at.
    ///
    /// # Errors
    ///
    /// * [`CoreError::BadRequest`] for `n_ops == 0` or empty axes.
    /// * Simulation failures.
    pub fn shmoo<F>(
        &self,
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
        margin_shmoo(
            &self.service,
            defect,
            n_ops,
            r_values,
            stress_label,
            stress_values,
            op_of,
        )
    }

    /// Shmoos a detection condition's pass/fail outcome over a two-stress
    /// grid at a fixed defect resistance (the paper's Section-2 Shmoo
    /// plot).
    ///
    /// # Errors
    ///
    /// * [`CoreError::BadRequest`] for empty axes.
    /// * Simulation failures.
    #[allow(clippy::too_many_arguments)] // two labelled axes plus the oracle
    pub fn shmoo_detection<F>(
        &self,
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
        detection_shmoo(
            &self.service,
            defect,
            detection,
            resistance,
            x_label,
            x_values,
            y_label,
            y_values,
            op_of,
        )
    }

    /// Derives the detection condition for `defect` at resistance
    /// `r_target`: the number of settling writes is grown (up to
    /// `max_settling`) until the set-up write has converged.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn detect(
        &self,
        defect: &Defect,
        r_target: f64,
        op_point: &OperatingPoint,
        max_settling: usize,
    ) -> Result<DetectionCondition, CoreError> {
        derive_detection(&self.service, defect, r_target, op_point, max_settling)
    }

    /// An electrically calibrated behavioral fault dictionary for `defect`
    /// at one resistance, sampling each update map at `samples` cell
    /// voltages.
    ///
    /// # Errors
    ///
    /// * [`CoreError::BadRequest`] if `samples < 2`.
    /// * Simulation failures.
    pub fn dictionary(
        &self,
        defect: &Defect,
        resistance: f64,
        op_point: &OperatingPoint,
        samples: usize,
    ) -> Result<FaultDictionary, CoreError> {
        build_dictionary(&self.service, defect, resistance, op_point, samples)
    }

    /// Fault coverage of a march test over an ensemble of `defect`
    /// instances at the given resistances: each instance is calibrated
    /// into a behavioral dictionary at `op_point` (through this session's
    /// cache) and installed as the victim of a functional memory of
    /// `memory_size` cells, with the test applied against each.
    ///
    /// # Errors
    ///
    /// * Simulation failures from the calibration.
    /// * [`CoreError::BadRequest`] for an invalid test/memory combination.
    // Mirrors the march-coverage pipeline's natural parameter list; a
    // config struct for one call site would obscure more than it groups.
    #[allow(clippy::too_many_arguments)]
    pub fn coverage(
        &self,
        defect: &Defect,
        resistances: &[f64],
        op_point: &OperatingPoint,
        test: &MarchTest,
        samples: usize,
        memory_size: usize,
        victim_address: usize,
    ) -> Result<CoverageReport, CoreError> {
        let mut cases = Vec::with_capacity(resistances.len());
        for &r in resistances {
            let dict = self.dictionary(defect, r, op_point, samples)?;
            cases.push(FaultCase {
                label: format!("{r:.2e} Ω"),
                make: Box::new(move || Box::new(DefectiveCell::new(dict.clone(), 0.0))),
            });
        }
        evaluate_coverage(test, &cases, memory_size, victim_address)
            .map_err(|e| CoreError::BadRequest(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::test_support::fast_design;
    use dso_defects::BitLineSide;

    fn fast_session() -> Session {
        Session::builder()
            .design(fast_design())
            .config(CampaignConfig::serial())
            .build()
            .expect("in-memory session")
    }

    #[test]
    fn session_planes_match_direct_campaign() {
        let session = fast_session();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let r_values = [1e4, 1e5, 1e6, 5e7];
        let campaign = session.planes(&defect, &op, &r_values, 2).unwrap();
        let service = crate::eval::EvalService::from_env(Analyzer::new(fast_design()));
        let free = plane_campaign_hooked(
            &service,
            &defect,
            &op,
            &r_values,
            2,
            &CampaignFaults::new(),
            &CampaignConfig::serial(),
            &ExecHooks::default(),
        )
        .unwrap();
        assert_eq!(campaign.planes, free.planes);
        assert_eq!(campaign.report, free.report);
    }

    #[test]
    fn border_reuses_campaign_cache() {
        let session = fast_session();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let r_values = [1e4, 1e6, 1e8];
        session.planes(&defect, &op, &r_values, 2).unwrap();
        let hits_before = session.service().cache_stats().hits;
        let refined = session
            .refine_border(&defect, &op, &r_values, 2, 0.05)
            .unwrap();
        assert!(refined.is_some());
        assert!(
            session.service().cache_stats().hits > hits_before,
            "grid walk should replay campaign points"
        );
    }

    #[test]
    fn detect_and_coverage_flow() {
        let session = fast_session();
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let condition = session.detect(&defect, 1e6, &op, 4).unwrap();
        assert!(!condition.ops().is_empty());
        let report = session
            .coverage(&defect, &[1e3, 5e7], &op, &MarchTest::mats_plus(), 3, 8, 3)
            .unwrap();
        assert_eq!(report.detected.len() + report.missed.len(), 2);
    }

    #[test]
    fn builder_unusable_store_is_error() {
        // Unlike the DSO_STORE env path (which degrades with a warning),
        // an explicitly requested store that cannot be opened must fail
        // the build.
        let path = std::env::temp_dir()
            .join(format!("dso-session-missing-{}", std::process::id()))
            .join("nested")
            .join("store.bin");
        let err = Session::builder()
            .design(fast_design())
            .store(&path)
            .build();
        assert!(
            err.is_err(),
            "store in a missing directory must be rejected"
        );
    }
}
