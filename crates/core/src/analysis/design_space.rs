//! Cross-design campaign planner: the design axis of the sweep space.
//!
//! The paper fixes one folded-bit-line column and sweeps
//! `defects × R × operating points`; this module adds *designs* as a
//! first-class axis. A [`DesignSpace`] expands declarative
//! [`DesignConfig`]s into named [`ColumnDesign`]s; one
//! [`Session::design_sweep`] pass builds one evaluation service per
//! **distinct** design and fans every `(design, defect, operating point)`
//! campaign through the plane-campaign pipeline. The outputs are
//! per-design Table-1-style coverage matrices and
//! border-resistance-vs-design-parameter trend tables.
//!
//! # Cross-design dedup
//!
//! Two configs that expand to the same column design (for example a
//! `dummy_cell` reference scheme and the explicit `skewed` skew it
//! resolves to) have the same design fingerprint and share one
//! evaluation service, so the later design's grids replay from the
//! earlier one's memo cache instead of re-simulating. Each
//! `(defect, operating point)` cell of such a design is counted in
//! [`CampaignPerfStats::cross_design_dedup`] and the
//! `eval.cross_design_dedup` metric.
//!
//! [`Session::design_sweep`]: crate::session::Session::design_sweep

use super::planes::plane_campaign_hooked;
use super::sweep::{CampaignFaults, Confidence};
use super::Analyzer;
use crate::eval::EvalService;
use crate::exec::{CampaignConfig, CampaignPerfStats, ExecHooks};
use crate::stress::table::render_text_table;
use crate::CoreError;
use dso_defects::Defect;
use dso_dram::design::{ColumnDesign, DesignConfig, OperatingPoint};
use dso_num::fingerprint::Fingerprint;
use dso_num::interp::logspace;
use dso_num::trend::{classify, Trend};
use dso_spice::units::format_eng;

/// An ordered set of named designs to sweep.
///
/// Construction expands every config eagerly, so a `DesignSpace` is
/// always valid: each config passed validation and resolved to a
/// [`ColumnDesign`].
#[derive(Debug, Clone)]
pub struct DesignSpace {
    designs: Vec<(String, ColumnDesign)>,
}

/// A design's fingerprint: the hash of its electrical parameters. Designs
/// with equal fingerprints are electrically identical.
fn fingerprint(design: &ColumnDesign) -> u64 {
    let mut fp = Fingerprint::new();
    design.fingerprint_into(&mut fp);
    fp.finish()
}

impl DesignSpace {
    /// Builds a design space from declarative configs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadRequest`] for an empty set, a duplicate
    /// design name, or a config that fails validation/expansion.
    pub fn new(configs: Vec<DesignConfig>) -> Result<Self, CoreError> {
        if configs.is_empty() {
            return Err(CoreError::BadRequest(
                "design space needs at least one design".to_string(),
            ));
        }
        let mut designs: Vec<(String, ColumnDesign)> = Vec::with_capacity(configs.len());
        for cfg in configs {
            let design = cfg
                .expand()
                .map_err(|e| CoreError::BadRequest(format!("design {:?}: {e}", cfg.name)))?;
            if designs.iter().any(|(name, _)| *name == cfg.name) {
                return Err(CoreError::BadRequest(format!(
                    "duplicate design name {:?}",
                    cfg.name
                )));
            }
            designs.push((cfg.name, design));
        }
        Ok(DesignSpace { designs })
    }

    /// Parses a design space from JSON config documents.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadRequest`] for malformed documents (see
    /// [`DesignSpace::new`] for the semantic checks).
    pub fn from_json(docs: &[dso_obs::json::Json]) -> Result<Self, CoreError> {
        let configs = docs
            .iter()
            .map(|d| {
                DesignConfig::from_json(d)
                    .map_err(|e| CoreError::BadRequest(format!("design config: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        DesignSpace::new(configs)
    }

    /// Number of designs.
    pub fn len(&self) -> usize {
        self.designs.len()
    }

    /// Always `false` — construction rejects empty spaces — but provided
    /// for the usual container contract.
    pub fn is_empty(&self) -> bool {
        self.designs.is_empty()
    }

    /// Number of *distinct* designs (designs whose configs expand to the
    /// same column design share one evaluation service).
    pub fn distinct_plans(&self) -> usize {
        let mut seen: Vec<u64> = Vec::new();
        for (_, design) in &self.designs {
            let fp = fingerprint(design);
            if !seen.contains(&fp) {
                seen.push(fp);
            }
        }
        seen.len()
    }
}

/// What to sweep for every design of a [`DesignSpace`].
#[derive(Debug, Clone)]
pub struct DesignSweepRequest {
    /// Defects to analyze per design.
    pub defects: Vec<Defect>,
    /// Operating points to analyze per `(design, defect)`.
    pub op_points: Vec<OperatingPoint>,
    /// Resistance grid points per defect (log-spaced over the defect's
    /// class sweep range).
    pub r_points: usize,
    /// Consecutive operations per plane (the paper uses 5).
    pub n_ops: usize,
}

impl DesignSweepRequest {
    /// A request over `defects` at the nominal operating point with a
    /// 12-point resistance grid and 3 operations per plane.
    pub fn new(defects: Vec<Defect>) -> Self {
        DesignSweepRequest {
            defects,
            op_points: vec![OperatingPoint::nominal()],
            r_points: 12,
            n_ops: 3,
        }
    }

    /// Replaces the operating points.
    pub fn with_op_points(mut self, op_points: Vec<OperatingPoint>) -> Self {
        self.op_points = op_points;
        self
    }

    /// Replaces the resistance grid size.
    pub fn with_r_points(mut self, r_points: usize) -> Self {
        self.r_points = r_points;
        self
    }

    /// Replaces the operations-per-plane count.
    pub fn with_n_ops(mut self, n_ops: usize) -> Self {
        self.n_ops = n_ops;
        self
    }

    fn validate(&self) -> Result<(), CoreError> {
        if self.defects.is_empty() {
            return Err(CoreError::BadRequest(
                "design sweep needs at least one defect".to_string(),
            ));
        }
        if self.op_points.is_empty() {
            return Err(CoreError::BadRequest(
                "design sweep needs at least one operating point".to_string(),
            ));
        }
        if self.r_points < 2 {
            return Err(CoreError::BadRequest(format!(
                "design sweep needs at least 2 resistance points, got {}",
                self.r_points
            )));
        }
        if self.n_ops == 0 {
            return Err(CoreError::BadRequest(
                "design sweep needs at least one operation per plane".to_string(),
            ));
        }
        for op in &self.op_points {
            op.validate().map_err(CoreError::Dram)?;
        }
        Ok(())
    }
}

/// One `(defect, operating point)` entry of a design's coverage matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageCell {
    /// The analyzed defect.
    pub defect: Defect,
    /// The operating point the campaign ran at.
    pub op_point: OperatingPoint,
    /// Border resistance read off the planes, when the curves cross
    /// inside the sweep (`None`: no border in range, or the crossing sits
    /// in a failed-point gap).
    pub border: Option<f64>,
    /// `true` when the memory fails *above* the border (opens), `false`
    /// for fails-below (shorts/bridges).
    pub fails_above: bool,
    /// Mid-point voltage of the defect-free cell — the healthy-reference
    /// anchor shared across equal-fingerprint designs.
    pub vmp: f64,
    /// Confidence of the underlying campaign.
    pub confidence: Confidence,
}

impl CoverageCell {
    /// Table-1-style border rendering (`R > 200 kΩ`, `R < 1 MΩ`, or `-`).
    pub fn border_label(&self) -> String {
        match self.border {
            Some(r) => {
                let op = if self.fails_above { '>' } else { '<' };
                format!("R {op} {}", format_eng(r, "Ω"))
            }
            None => "-".to_string(),
        }
    }
}

/// Coverage results for one design of the space.
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// Design name (from the config).
    pub name: String,
    /// Fingerprint of the expanded design.
    pub fingerprint: u64,
    /// Charge-transfer ratio of the resolved design.
    pub transfer_ratio: f64,
    /// Total bit-line capacitance, farads.
    pub cbl: f64,
    /// Word-line boost, volts.
    pub wl_boost: f64,
    /// One cell per `(defect, operating point)`, defects outermost, in
    /// request order.
    pub cells: Vec<CoverageCell>,
}

impl DesignReport {
    /// Renders the design's Table-1-style coverage matrix as an aligned
    /// text table.
    pub fn coverage_matrix(&self) -> String {
        let multi_op = self
            .cells
            .iter()
            .any(|c| c.op_point != self.cells[0].op_point);
        let mut header: Vec<String> = vec!["Defect".into()];
        if multi_op {
            header.push("Vdd/tcyc".into());
        }
        header.extend(["Border R".into(), "Vmp".into(), "Confidence".into()]);
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                let mut row = vec![c.defect.to_string()];
                if multi_op {
                    row.push(format!(
                        "{:.2} V / {}",
                        c.op_point.vdd,
                        format_eng(c.op_point.tcyc, "s")
                    ));
                }
                row.push(c.border_label());
                row.push(format!("{:.3} V", c.vmp));
                row.push(c.confidence.to_string());
                row
            })
            .collect();
        format!(
            "Design {:?} (transfer ratio {:.4}, fingerprint {:016x})\n{}",
            self.name,
            self.transfer_ratio,
            self.fingerprint,
            render_text_table(&header, &rows)
        )
    }
}

/// A scalar design parameter to order trend tables by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignParam {
    /// Charge-transfer ratio `Cs / (Cs + Cbl)`.
    TransferRatio,
    /// Total bit-line capacitance.
    BitLineCap,
    /// Word-line boost voltage.
    WordLineBoost,
}

impl DesignParam {
    /// Human-readable parameter label.
    pub fn label(&self) -> &'static str {
        match self {
            DesignParam::TransferRatio => "transfer ratio",
            DesignParam::BitLineCap => "bit-line capacitance",
            DesignParam::WordLineBoost => "word-line boost",
        }
    }

    /// The parameter's value for a design report.
    pub fn value(&self, report: &DesignReport) -> f64 {
        match self {
            DesignParam::TransferRatio => report.transfer_ratio,
            DesignParam::BitLineCap => report.cbl,
            DesignParam::WordLineBoost => report.wl_boost,
        }
    }
}

/// One row of a border-vs-design-parameter trend table.
#[derive(Debug, Clone)]
pub struct TrendRow {
    /// The defect the row tracks.
    pub defect: Defect,
    /// The operating point of the tracked cells.
    pub op_point: OperatingPoint,
    /// `(parameter value, border)` per design, sorted by ascending
    /// parameter value; `None` borders are designs without a crossing.
    pub borders: Vec<(f64, Option<f64>)>,
    /// Monotonicity of the border over the parameter (`None` when any
    /// design lacks a border or fewer than two designs were swept).
    pub trend: Option<Trend>,
}

/// Everything one design-space sweep produces.
#[derive(Debug, Clone)]
pub struct DesignSweepResult {
    /// Per-design coverage, in space order.
    pub designs: Vec<DesignReport>,
    /// Merged execution tally across every campaign of the sweep,
    /// including the cross-design dedup count.
    pub perf: CampaignPerfStats,
    /// Number of distinct designs (fingerprints) the sweep actually
    /// simulated.
    pub distinct_plans: usize,
}

impl DesignSweepResult {
    /// `(defect, operating point)` cells answered from an earlier
    /// design's results: every cell of a design whose fingerprint an
    /// earlier design already had.
    pub fn cross_design_dedup(&self) -> usize {
        self.perf.cross_design_dedup
    }

    /// Border-vs-parameter trend rows: one per `(defect, operating
    /// point)`, each ordered by ascending `param` value.
    pub fn trend_rows(&self, param: DesignParam) -> Vec<TrendRow> {
        let Some(first) = self.designs.first() else {
            return Vec::new();
        };
        let mut order: Vec<usize> = (0..self.designs.len()).collect();
        order.sort_by(|&a, &b| {
            param
                .value(&self.designs[a])
                .total_cmp(&param.value(&self.designs[b]))
        });
        (0..first.cells.len())
            .map(|ci| {
                let borders: Vec<(f64, Option<f64>)> = order
                    .iter()
                    .map(|&di| {
                        let report = &self.designs[di];
                        (param.value(report), report.cells[ci].border)
                    })
                    .collect();
                let values: Option<Vec<f64>> = borders.iter().map(|(_, b)| *b).collect();
                let trend = values
                    .filter(|v| v.len() >= 2)
                    .and_then(|v| classify(&v, 1e-9).ok());
                TrendRow {
                    defect: first.cells[ci].defect,
                    op_point: first.cells[ci].op_point,
                    borders,
                    trend,
                }
            })
            .collect()
    }

    /// Renders the trend rows as an aligned text table: one column per
    /// design (ascending `param`), one row per `(defect, op point)`.
    pub fn trend_table(&self, param: DesignParam) -> String {
        let rows = self.trend_rows(param);
        let mut header: Vec<String> = vec!["Defect".into()];
        if let Some(first) = rows.first() {
            for (v, _) in &first.borders {
                header.push(format!("{} {v:.4}", param.label()));
            }
        }
        header.push("Trend".into());
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|row| {
                let mut cells = vec![row.defect.to_string()];
                for (_, border) in &row.borders {
                    cells.push(match border {
                        Some(r) => format_eng(*r, "Ω"),
                        None => "-".to_string(),
                    });
                }
                cells.push(
                    row.trend
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "n/a".to_string()),
                );
                cells
            })
            .collect();
        format!(
            "Border resistance vs {}\n{}",
            param.label(),
            render_text_table(&header, &table_rows)
        )
    }
}

/// Runs the one-pass cross-design sweep.
///
/// `template` supplies the recovery policy every per-design analyzer
/// inherits; `config` supplies threads/chunk/warm-start for each
/// campaign. Designs with equal fingerprints share one evaluation
/// service, so their grids dedup through the memo cache.
///
/// # Errors
///
/// Returns [`CoreError::BadRequest`] for an invalid request and
/// propagates the first campaign failure.
pub(crate) fn design_sweep_impl(
    space: &DesignSpace,
    request: &DesignSweepRequest,
    template: &Analyzer,
    config: &CampaignConfig,
) -> Result<DesignSweepResult, CoreError> {
    request.validate()?;
    let cells_per_design = request.defects.len() * request.op_points.len();
    // One service per distinct fingerprint, in first-appearance order.
    let mut services: Vec<(u64, EvalService)> = Vec::new();
    let mut perf = CampaignPerfStats::default();
    let mut designs = Vec::with_capacity(space.len());
    let faults = CampaignFaults::new();

    for (name, design) in &space.designs {
        let fingerprint = fingerprint(design);
        let si = match services.iter().position(|(fp, _)| *fp == fingerprint) {
            Some(si) => {
                perf.cross_design_dedup += cells_per_design;
                dso_obs::counter!("eval.cross_design_dedup").add(cells_per_design as u64);
                si
            }
            None => {
                let analyzer = Analyzer::new(design.clone()).with_recovery(*template.recovery());
                services.push((fingerprint, EvalService::new(analyzer)));
                services.len() - 1
            }
        };
        let service = &services[si].1;
        let mut cells = Vec::with_capacity(cells_per_design);
        for defect in &request.defects {
            let (lo, hi) = defect.sweep_range();
            let r_values = logspace(lo, hi, request.r_points)?;
            for op_point in &request.op_points {
                let campaign = plane_campaign_hooked(
                    service,
                    defect,
                    op_point,
                    &r_values,
                    request.n_ops,
                    &faults,
                    config,
                    &ExecHooks::default(),
                )?;
                let border = match campaign.border_from_intersection() {
                    Ok(b) => b,
                    Err(CoreError::BorderInGap { .. }) => None,
                    Err(e) => return Err(e),
                };
                perf.merge(&campaign.perf);
                cells.push(CoverageCell {
                    defect: *defect,
                    op_point: *op_point,
                    border,
                    fails_above: defect.fails_above(),
                    vmp: campaign.planes.vmp,
                    confidence: campaign.confidence,
                });
            }
        }
        designs.push(DesignReport {
            name: name.clone(),
            fingerprint,
            transfer_ratio: design.transfer_ratio(),
            cbl: design.cbl,
            wl_boost: design.wl_boost,
            cells,
        });
    }

    Ok(DesignSweepResult {
        designs,
        perf,
        distinct_plans: services.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dso_dram::design::ReferenceScheme;

    fn cfg(name: &str) -> DesignConfig {
        DesignConfig {
            name: name.to_string(),
            ..DesignConfig::paper_default()
        }
    }

    #[test]
    fn space_rejects_bad_inputs() {
        assert!(matches!(
            DesignSpace::new(vec![]),
            Err(CoreError::BadRequest(_))
        ));
        assert!(matches!(
            DesignSpace::new(vec![cfg("a"), cfg("a")]),
            Err(CoreError::BadRequest(_))
        ));
        let invalid = DesignConfig {
            cell_cap: -1.0,
            ..cfg("bad")
        };
        assert!(matches!(
            DesignSpace::new(vec![invalid]),
            Err(CoreError::BadRequest(_))
        ));
    }

    #[test]
    fn distinct_plans_collapse_equal_electricals() {
        let dummy_skew = ReferenceScheme::DummyCell.resolve_skew(30e-15, 300e-15);
        let space = DesignSpace::new(vec![
            cfg("a"),
            DesignConfig {
                reference: ReferenceScheme::DummyCell,
                ..cfg("b")
            },
            DesignConfig {
                reference: ReferenceScheme::SkewedRef { skew: dummy_skew },
                ..cfg("c")
            },
        ])
        .unwrap();
        assert_eq!(space.len(), 3);
        assert_eq!(space.distinct_plans(), 2);
        assert!(!space.is_empty());
    }

    #[test]
    fn request_validation() {
        let defect = Defect::cell_open(dso_defects::BitLineSide::True);
        assert!(DesignSweepRequest::new(vec![]).validate().is_err());
        assert!(DesignSweepRequest::new(vec![defect])
            .with_op_points(vec![])
            .validate()
            .is_err());
        assert!(DesignSweepRequest::new(vec![defect])
            .with_r_points(1)
            .validate()
            .is_err());
        assert!(DesignSweepRequest::new(vec![defect])
            .with_n_ops(0)
            .validate()
            .is_err());
        assert!(DesignSweepRequest::new(vec![defect]).validate().is_ok());
    }

    #[test]
    fn trend_rows_classify_and_tolerate_missing_borders() {
        let defect = Defect::cell_open(dso_defects::BitLineSide::True);
        let op = OperatingPoint::nominal();
        let report = |name: &str, ratio: f64, border: Option<f64>| DesignReport {
            name: name.to_string(),
            fingerprint: ratio.to_bits(),
            transfer_ratio: ratio,
            cbl: 300e-15,
            wl_boost: 0.4,
            cells: vec![CoverageCell {
                defect,
                op_point: op,
                border,
                fails_above: true,
                vmp: 1.2,
                confidence: Confidence::Full,
            }],
        };
        let result = DesignSweepResult {
            designs: vec![
                report("mid", 0.09, Some(2e5)),
                report("low", 0.05, Some(1e5)),
                report("high", 0.12, Some(3e5)),
            ],
            perf: CampaignPerfStats::default(),
            distinct_plans: 3,
        };
        let rows = result.trend_rows(DesignParam::TransferRatio);
        assert_eq!(rows.len(), 1);
        // Sorted by ascending transfer ratio → borders increase.
        assert_eq!(rows[0].trend, Some(Trend::Increasing));
        assert_eq!(
            rows[0].borders.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            vec![0.05, 0.09, 0.12]
        );
        let table = result.trend_table(DesignParam::TransferRatio);
        assert!(table.contains("transfer ratio"), "{table}");
        assert!(table.contains("increasing"), "{table}");

        // A missing border degrades the row's trend to n/a.
        let partial = DesignSweepResult {
            designs: vec![report("a", 0.05, Some(1e5)), report("b", 0.09, None)],
            perf: CampaignPerfStats::default(),
            distinct_plans: 2,
        };
        let rows = partial.trend_rows(DesignParam::TransferRatio);
        assert_eq!(rows[0].trend, None);
        assert!(partial
            .trend_table(DesignParam::TransferRatio)
            .contains("n/a"));
    }

    #[test]
    fn coverage_matrix_renders() {
        let defect = Defect::cell_open(dso_defects::BitLineSide::True);
        let report = DesignReport {
            name: "paper".to_string(),
            fingerprint: 0xabcd,
            transfer_ratio: 30.0 / 330.0,
            cbl: 300e-15,
            wl_boost: 0.4,
            cells: vec![CoverageCell {
                defect,
                op_point: OperatingPoint::nominal(),
                border: Some(2e5),
                fails_above: true,
                vmp: 1.223,
                confidence: Confidence::Full,
            }],
        };
        let table = report.coverage_matrix();
        assert!(table.contains("O3 (true)"), "{table}");
        assert!(table.contains("R > 200 kΩ"), "{table}");
        assert!(table.contains("full"), "{table}");
        assert!(table.contains("1.223 V"), "{table}");
    }
}
