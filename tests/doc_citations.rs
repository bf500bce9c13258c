//! README.md and DESIGN.md cite source files and items in backticks; these
//! tests fail when a citation no longer names anything in the tree:
//!
//! * every backticked span ending in `.rs` must be a file of the
//!   repository, given either from the root or as a trailing part of its
//!   path (`engine.rs`, `analysis/mod.rs`);
//! * every backticked span with a `::` path (a trailing call's argument
//!   list dropped) must end in a name defined under `crates/`, `src/`,
//!   `examples/` or `tests/`: a fn, type, trait, const, static, module,
//!   macro, field or enum variant of that name. The check is by name only:
//!   it catches a deleted or renamed item, not a wrong module prefix.
//!
//! Paths that name something outside the workspace are listed in
//! [`EXTERNAL`], each with the reason it is not checked.

use std::fs;
use std::path::{Path, PathBuf};

/// The documents whose citations are checked.
const DOCS: &[&str] = &["README.md", "DESIGN.md"];

/// Directories whose `.rs` files hold the definitions a `::` path may name.
const SOURCE_DIRS: &[&str] = &["crates", "src", "examples", "tests"];

/// Directories that hold build output or scratch files, not sources.
const SKIPPED_DIRS: &[&str] = &["target", ".git", ".bench_build", ".perfbench"];

/// `::` paths that name no workspace item, with the reason.
const EXTERNAL: &[(&str, &str)] = &[("clippy::unwrap_used", "a Clippy lint")];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir`, skipping [`SKIPPED_DIRS`].
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if !SKIPPED_DIRS.iter().any(|s| name == *s) {
                walk(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

/// The inline code spans of `doc` outside fenced blocks, with their
/// 1-based line numbers.
fn code_spans(doc: &str) -> Vec<(usize, String)> {
    let text = fs::read_to_string(root().join(doc)).expect("document readable");
    let mut spans = Vec::new();
    let mut fenced = false;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        // Odd pieces between backticks are code spans.
        for span in line.split('`').skip(1).step_by(2) {
            spans.push((i + 1, span.to_string()));
        }
    }
    spans
}

fn is_ident(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_')
}

/// `true` if some line of `source` defines `name`.
fn defines(source: &str, name: &str) -> bool {
    const KEYWORDS: &[&str] = &[
        "fn",
        "struct",
        "enum",
        "union",
        "trait",
        "type",
        "const",
        "static",
        "mod",
        "macro_rules",
    ];
    let variant_like = name.starts_with(char::is_uppercase);
    source.lines().any(|line| {
        let line = line.trim_start();
        if line.starts_with("//") {
            return false;
        }
        let tokens: Vec<&str> = line
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|t| !t.is_empty())
            .collect();
        if tokens
            .windows(2)
            .any(|w| KEYWORDS.contains(&w[0]) && w[1] == name)
        {
            return true;
        }
        // A field (`name: T`) or an enum variant (`Name,`, `Name(..)`,
        // `Name { .. }`) at the start of its line.
        let body = ["pub(crate) ", "pub(super) ", "pub "]
            .iter()
            .find_map(|p| line.strip_prefix(p))
            .unwrap_or(line);
        let Some(rest) = body.strip_prefix(name) else {
            return false;
        };
        let rest = rest.trim_start();
        (rest.starts_with(':') && !rest.starts_with("::"))
            || (variant_like && (rest.is_empty() || rest.starts_with([',', '(', '{'])))
    })
}

#[test]
fn rs_paths_in_docs_exist() {
    let root = root();
    let mut files = Vec::new();
    walk(&root, &mut files);
    let files: Vec<String> = files
        .iter()
        .filter_map(|p| p.strip_prefix(&root).ok())
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .collect();
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        for (line, span) in code_spans(doc) {
            if !span.ends_with(".rs") {
                continue;
            }
            checked += 1;
            let suffix = format!("/{span}");
            if !files.iter().any(|f| *f == span || f.ends_with(&suffix)) {
                missing.push(format!("{doc}:{line}: `{span}`"));
            }
        }
    }
    assert!(checked > 10, "only {checked} `.rs` citations found");
    assert!(
        missing.is_empty(),
        "cited files that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn item_paths_in_docs_name_definitions() {
    let root = root();
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        walk(&root.join(dir), &mut files);
    }
    let source: String = files
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .map(|p| fs::read_to_string(p).expect("source readable"))
        .collect::<Vec<_>>()
        .join("\n");
    let mut checked = 0;
    let mut undefined = Vec::new();
    for doc in DOCS {
        for (line, span) in code_spans(doc) {
            let path = span.split('(').next().unwrap_or_default();
            let Some((_, last)) = path.rsplit_once("::") else {
                continue;
            };
            if EXTERNAL.iter().any(|(p, _)| *p == path) {
                continue;
            }
            let name = last.trim_end_matches('!');
            if !is_ident(name) {
                continue;
            }
            checked += 1;
            if !defines(&source, name) {
                undefined.push(format!("{doc}:{line}: `{span}`"));
            }
        }
    }
    assert!(checked > 40, "only {checked} `::` citations found");
    assert!(
        undefined.is_empty(),
        "cited items with no definition in the tree:\n{}",
        undefined.join("\n")
    );
}

#[test]
fn definition_scan_sees_each_kind() {
    let source = "\
pub struct Planes {
    pub w0: Curve,
    vsa: f64,
}
enum Confidence {
    Full,
    Degraded { gaps: usize },
}
pub(crate) fn search() {}
// fn commented_out() {}
let call = Foo::bar(x);
";
    for name in ["Planes", "w0", "vsa", "Full", "Degraded", "search"] {
        assert!(defines(source, name), "{name}");
    }
    for name in ["commented_out", "bar", "call", "Curve", "x"] {
        assert!(!defines(source, name), "{name}");
    }
}
