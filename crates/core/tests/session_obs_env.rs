//! Session construction applies `DSO_TRACE`: an analysis that runs no
//! plane campaign (here a border search) still writes its spans to the
//! trace file the environment names.
//!
//! The tracer is process-global, so this file holds exactly one
//! `#[test]` — its own test binary is its isolation.

use dso_core::analysis::DetectionCondition;
use dso_core::Session;
use dso_defects::{BitLineSide, Defect};
use dso_dram::design::{ColumnDesign, OperatingPoint};

#[test]
fn session_from_environment_traces_a_border_search() {
    let path =
        std::env::temp_dir().join(format!("dso_session_obs_env_{}.jsonl", std::process::id()));
    std::env::set_var("DSO_TRACE", &path);
    let session = Session::with_design(ColumnDesign {
        dt_fraction: 1.0 / 250.0,
        ..ColumnDesign::default()
    });
    std::env::remove_var("DSO_TRACE");

    let defect = Defect::cell_open(BitLineSide::True);
    let detection = DetectionCondition::default_for(&defect, 2);
    session
        .border(&defect, &detection, &OperatingPoint::nominal(), 0.5)
        .expect("border search runs");
    dso_obs::trace_shutdown();

    let text = std::fs::read_to_string(&path).expect("DSO_TRACE file written");
    let _ = std::fs::remove_file(&path);
    assert!(
        text.contains(r#""name":"dram.op_sequence""#),
        "trace holds no dram.op_sequence span:\n{text}"
    );
}
