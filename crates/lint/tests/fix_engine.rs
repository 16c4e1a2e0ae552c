//! End-to-end tests for the autofix engine: applying a fixture's fix
//! converges (re-linting finds nothing further to fix), fixing is
//! idempotent, and the committed workspace itself is fix-clean.

use rsm_lint::fix::{apply_edits, fix_workspace};
use rsm_lint::rules::lint_source;
use rsm_lint::{find_workspace_root, lint_paths, FileClass};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lints a source string in fixture (explicit lib) context and
/// returns the machine-applicable fixes.
fn fixes_of(src: &str) -> Vec<rsm_lint::diag::Fix> {
    let class = FileClass::lib_context();
    let (diags, _) = lint_source("crates/linalg/src/vec_ops.rs", src, &class).expect("converges");
    diags.into_iter().filter_map(|d| d.fix).collect()
}

#[test]
fn applying_the_fixture_fix_converges() {
    let src = std::fs::read_to_string(fixture("r10_indexed_loop.rs")).unwrap();
    let fixes = fixes_of(&src);
    assert_eq!(fixes.len(), 1, "exactly one machine-applicable fix");
    let fixed = apply_edits(&src, &fixes).unwrap();
    assert!(fixed.contains("y[..n].iter_mut().zip(&x[..n])"), "{fixed}");
    // The two warn-only R10 loops remain, but nothing fixable does.
    assert!(fixes_of(&fixed).is_empty(), "fix must converge in one pass");
}

#[test]
fn applying_fixes_twice_is_byte_identical() {
    let src = std::fs::read_to_string(fixture("r10_indexed_loop.rs")).unwrap();
    let once = apply_edits(&src, &fixes_of(&src)).unwrap();
    let twice = apply_edits(&once, &fixes_of(&once)).unwrap();
    assert_eq!(once, twice);
}

#[test]
fn fixed_fixture_still_fires_warn_only_diagnostics() {
    // The fix must not swallow its warn-only neighbours: after
    // applying, the alias and value-use loops still warn.
    let src = std::fs::read_to_string(fixture("r10_indexed_loop.rs")).unwrap();
    let fixed = apply_edits(&src, &fixes_of(&src)).unwrap();
    let class = FileClass::lib_context();
    let (diags, _) =
        lint_source("crates/linalg/src/vec_ops.rs", &fixed, &class).expect("converges");
    let r10s = diags
        .iter()
        .filter(|d| d.rule == rsm_lint::Rule::R10)
        .count();
    assert_eq!(r10s, 2, "{diags:?}");
}

#[test]
fn committed_workspace_is_fix_clean() {
    // The post-fix gate: `rsm-lint fix --check` must exit clean on the
    // repo as committed — every machine-applicable rewrite has been
    // taken (or the site rewritten by hand past the rule).
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let summary = fix_workspace(&root, false).expect("dry-run fix");
    assert_eq!(
        summary.edits(),
        0,
        "pending machine fixes in: {:?}",
        summary.files
    );
}

#[test]
fn fixture_fix_metadata_round_trips_through_json() {
    let report = lint_paths(&[fixture("r10_indexed_loop.rs")]).expect("fixture readable");
    let json = report.to_json();
    assert!(json.contains("\"replacement\""), "{json}");
    assert!(json.contains("iter_mut().zip"), "{json}");
}
