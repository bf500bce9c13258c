//! Shared helpers for the Figure 3–5 stress-transient binaries.

use dso_core::eval::{EvalService, SimRequest};
use dso_core::CoreError;
use dso_defects::Defect;
use dso_dram::design::OperatingPoint;
use dso_dram::ops::{physical_write, Operation};

/// One transient panel: the storage-node waveform of a single operation.
#[derive(Debug, Clone)]
pub struct TransientPanel {
    /// Legend label (e.g. `"tcyc = 55 ns"`).
    pub label: String,
    /// Sample times (seconds).
    pub times: Vec<f64>,
    /// Cell voltage at each sample.
    pub vc: Vec<f64>,
    /// Cell voltage at the end of the cycle.
    pub vc_end: f64,
    /// For read panels: whether the accessed bit line was sensed high.
    pub sensed_high: Option<bool>,
}

/// Simulates one physical `w0` cycle (cell initialized to `vdd`) and
/// returns the storage waveform.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn w0_panel(
    service: &EvalService,
    defect: &Defect,
    resistance: f64,
    op_point: &OperatingPoint,
    label: &str,
) -> Result<TransientPanel, CoreError> {
    let op = physical_write(false, defect.side());
    let trace = service.trace_of(&SimRequest::run(
        defect,
        resistance,
        op_point,
        vec![op],
        op_point.vdd,
    ))?;
    let (times, vc) = trace.storage_waveform()?;
    Ok(TransientPanel {
        label: label.to_string(),
        vc_end: trace.vc_ends()[0],
        times,
        vc,
        sensed_high: None,
    })
}

/// Simulates one read cycle from `vc_init` and returns the storage
/// waveform plus the sensed value.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn read_panel(
    service: &EvalService,
    defect: &Defect,
    resistance: f64,
    op_point: &OperatingPoint,
    vc_init: f64,
    label: &str,
) -> Result<TransientPanel, CoreError> {
    let trace = service.trace_of(&SimRequest::run(
        defect,
        resistance,
        op_point,
        vec![Operation::R],
        vc_init,
    ))?;
    let (times, vc) = trace.storage_waveform()?;
    let sensed = trace.cycles()[0]
        .read
        .map(|r| r.accessed_high(defect.side()));
    Ok(TransientPanel {
        label: label.to_string(),
        vc_end: trace.vc_ends()[0],
        times,
        vc,
        sensed_high: sensed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dso_core::analysis::Analyzer;
    use dso_defects::BitLineSide;
    use dso_dram::design::ColumnDesign;

    fn fast_design() -> ColumnDesign {
        ColumnDesign {
            dt_fraction: 1.0 / 250.0,
            ..ColumnDesign::default()
        }
    }

    #[test]
    fn panels_produce_waveforms() {
        let service = EvalService::new(Analyzer::new(fast_design()));
        let defect = Defect::cell_open(BitLineSide::True);
        let op = OperatingPoint::nominal();
        let w0 = w0_panel(&service, &defect, 1e3, &op, "nominal").unwrap();
        assert_eq!(w0.label, "nominal");
        assert!(w0.vc_end < 0.5, "healthy w0 discharges: {}", w0.vc_end);
        assert_eq!(w0.times.len(), w0.vc.len());
        assert!(w0.sensed_high.is_none());

        let r = read_panel(&service, &defect, 1e3, &op, 2.4, "read 1").unwrap();
        assert_eq!(r.sensed_high, Some(true));
    }
}
