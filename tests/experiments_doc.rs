//! EXPERIMENTS.md quotes the Table-1 block that the `table1` binary
//! prints. `ci.sh` gates `results/table1.txt` against the binary; this
//! test gates the document against that file. It runs no simulation.

use std::path::Path;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The lines of the first fenced block under the `## Table 1` heading.
fn documented_table(doc: &str) -> Vec<&str> {
    let block: Vec<&str> = doc
        .lines()
        .skip_while(|l| !l.starts_with("## Table 1"))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .skip_while(|l| !l.starts_with("```"))
        .skip(1)
        .take_while(|l| !l.starts_with("```"))
        .collect();
    assert!(!block.is_empty(), "no fenced table under `## Table 1`");
    block
}

#[test]
fn experiments_table1_block_matches_the_committed_output() {
    let doc = read("EXPERIMENTS.md");
    let output = read("results/table1.txt");
    let committed: Vec<&str> = output.lines().filter(|l| l.starts_with('|')).collect();
    assert!(!committed.is_empty(), "results/table1.txt has no table");
    assert_eq!(documented_table(&doc), committed);
}
