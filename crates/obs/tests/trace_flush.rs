//! A trace written without [`dso_obs::trace_shutdown`] still holds every
//! closed root span: closing a root span flushes the sink. Programs that
//! trace through `DSO_TRACE` exit without shutting the sink down, so
//! without this their last buffered lines (up to the buffer's 8 KiB)
//! would be lost.
//!
//! The trace sink is process-global, so this file holds exactly one
//! `#[test]` — its own test binary is its isolation.

use dso_obs::span::Level;

#[test]
fn closed_root_spans_reach_the_file_without_a_shutdown() {
    let path = std::env::temp_dir().join(format!("dso-trace-flush-{}.jsonl", std::process::id()));
    dso_obs::trace_to_file(&path, Level::Coarse).expect("trace file opens");
    let mut roots = Vec::new();
    for _ in 0..5 {
        let root = dso_obs::span("test.root");
        roots.push(root.id().expect("tracing is on"));
        for _ in 0..3 {
            let child = dso_obs::span("test.child");
            child.note("k", 1.0);
        }
    }
    // Never shut down: read what the file holds now.
    let text = std::fs::read_to_string(&path).expect("trace file reads");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().collect();
    for id in &roots {
        let enter = format!(r#""ev":"enter","id":{id},"#);
        let exit = format!(r#""ev":"exit","id":{id},"#);
        assert!(
            lines.iter().any(|l| l.contains(&enter)),
            "root span {id} never entered in {} lines",
            lines.len()
        );
        assert!(
            lines.iter().any(|l| l.contains(&exit)),
            "root span {id} never exited in {} lines",
            lines.len()
        );
    }
    // Each root's three children, their notes and both root lines.
    assert_eq!(lines.len(), roots.len() * (2 + 3 * 3), "{text}");
}
