//! Metric catalog checker: OBSERVABILITY.md and the code must name the
//! same metrics.
//!
//! Two checks:
//!
//! 1. every string-literal key passed to a `Recorder` method
//!    (`add`, `inc`, `set_gauge`, `observe`, `event`, `span_open`,
//!    `span_close`) in non-test code under `crates/*/src` has a row in
//!    the catalog;
//! 2. every catalog key still appears as a string literal in some
//!    non-test source file, so a deleted metric cannot leave its row
//!    behind.
//!
//! A catalog row is a table row whose first cell starts with a
//! backticked key, anywhere between `## Metric catalog` and the next
//! `## ` heading.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The recorder methods whose first argument is a metric key.
const RECORDER_METHODS: &[&str] = &[
    "add",
    "inc",
    "set_gauge",
    "observe",
    "event",
    "span_open",
    "span_close",
];

/// Catalog keys that never appear whole as a string literal because
/// the code formats them or folds them in at snapshot time. Empty
/// today; a key added here must say where it is produced.
const BUILT_ELSEWHERE: &[&str] = &[];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Keys of the catalog tables in OBSERVABILITY.md.
fn catalog_keys() -> BTreeSet<String> {
    let text = std::fs::read_to_string(repo_root().join("OBSERVABILITY.md")).expect("read catalog");
    let mut keys = BTreeSet::new();
    let mut in_catalog = false;
    for line in text.lines() {
        if line.starts_with("## ") {
            in_catalog = line == "## Metric catalog";
            continue;
        }
        let Some(cell) = line.strip_prefix("| `") else {
            continue;
        };
        if in_catalog {
            let key = cell.split('`').next().expect("split yields one item");
            keys.insert(key.to_owned());
        }
    }
    assert!(keys.len() > 50, "catalog parse found only {keys:?}");
    keys
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(path, non-test text)` of every source file under `crates/*/src`.
/// Test modules sit at the end of each file, so everything from the
/// first `#[cfg(test)]` on is dropped.
fn sources() -> Vec<(PathBuf, String)> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(repo_root().join("crates")).expect("read crates/") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let code = text.split("#[cfg(test)]").next().unwrap_or("").to_owned();
            (path, code)
        })
        .collect()
}

/// String-literal keys passed to a recorder method in `code`. A call
/// may wrap across lines (`.observe(\n    "store.len", ...)`).
fn recorded_keys(code: &str) -> Vec<String> {
    let mut keys = Vec::new();
    for method in RECORDER_METHODS {
        let call = format!(".{method}(");
        for (at, _) in code.match_indices(&call) {
            let rest = code[at + call.len()..].trim_start();
            if let Some(literal) = rest.strip_prefix('"') {
                let key = literal.split('"').next().expect("split yields one item");
                keys.push(key.to_owned());
            }
        }
    }
    keys
}

#[test]
fn recorded_keys_have_catalog_rows() {
    let catalog = catalog_keys();
    let mut missing = Vec::new();
    for (path, code) in sources() {
        for key in recorded_keys(&code) {
            if !catalog.contains(&key) {
                let rel = path.strip_prefix(repo_root()).unwrap_or(&path);
                missing.push(format!("{}: `{key}`", rel.display()));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "metrics recorded without an OBSERVABILITY.md catalog row:\n{}",
        missing.join("\n")
    );
}

#[test]
fn catalog_keys_exist_in_code() {
    let sources = sources();
    let stale: Vec<String> = catalog_keys()
        .into_iter()
        .filter(|key| !BUILT_ELSEWHERE.contains(&key.as_str()))
        .filter(|key| {
            let literal = format!("\"{key}\"");
            !sources.iter().any(|(_, code)| code.contains(&literal))
        })
        .collect();
    assert!(
        stale.is_empty(),
        "OBSERVABILITY.md catalog rows for keys no source file mentions:\n{}",
        stale.join("\n")
    );
}

#[test]
fn recorded_keys_parse_wrapped_calls() {
    let code = "obs.inc(\"a.b\");\n self.spec\n .obs\n .observe(\n \"c.d\", 1);\n t.add(d);";
    assert_eq!(recorded_keys(code), ["a.b", "c.d"]);
}
