//! `--diff` mode contract: narrowing emission to changed files must
//! agree exactly with a full run's diagnostics for those files. The
//! implementation guarantees this by construction (the whole workspace
//! is always parsed and one call graph built; only emission is
//! filtered), and these tests pin the observable behavior.

use rsm_lint::rules::lint_units;
use rsm_lint::{find_workspace_root, git_changed_files, path_units, Diagnostic};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(&manifest).expect("enclosing workspace")
}

/// Comparable identity of a finding, chain included.
fn key(d: &Diagnostic) -> (String, u32, &'static str, String, Vec<String>) {
    (
        d.file.clone(),
        d.line,
        d.rule.id(),
        d.message.clone(),
        d.chain.clone(),
    )
}

#[test]
fn diff_emission_agrees_with_full_run_per_file() {
    // The whole fixture corpus in one graph, like a workspace run.
    let units = path_units(&[PathBuf::from("tests/fixtures")]).expect("fixtures readable");
    let full = lint_units(&units, |_| true).expect("fixpoints converge");
    assert!(
        !full.diagnostics.is_empty(),
        "corpus should produce findings"
    );

    // For EVERY file in the corpus: a run that only emits that file
    // must report exactly the full run's diagnostics for that file —
    // including interprocedural ones whose chains pass through other,
    // unchanged files.
    for unit in &units {
        let target = unit.rel.clone();
        let narrowed = lint_units(&units, |rel| rel == target).expect("fixpoints converge");
        let got: Vec<_> = narrowed.diagnostics.iter().map(key).collect();
        let want: Vec<_> = full
            .diagnostics
            .iter()
            .filter(|d| d.file == target)
            .map(key)
            .collect();
        assert_eq!(got, want, "diff/full disagreement on {target}");
        // Parsing still covered the whole corpus, not just the target.
        assert_eq!(narrowed.files_scanned, units.len());
    }
}

#[test]
fn diff_emission_keeps_cross_file_chains_intact() {
    // r6_materialize.rs has a finding whose reachability depends on the
    // call graph; narrowing to that one file must keep the same chain.
    let units = path_units(&[PathBuf::from("tests/fixtures")]).expect("fixtures readable");
    let target = "tests/fixtures/v2_chain.rs";
    let narrowed = lint_units(&units, |rel| rel == target).expect("fixpoints converge");
    let r3 = narrowed
        .diagnostics
        .iter()
        .find(|d| d.rule.id() == "R3")
        .expect("narrowed run still reports the reachable unwrap");
    assert_eq!(
        r3.chain.len(),
        3,
        "full chain survives narrowing: {:?}",
        r3.chain
    );
}

#[test]
fn git_changed_files_yields_workspace_relative_rust_paths() {
    let changed = git_changed_files(&workspace_root(), "HEAD").expect("git available");
    for rel in &changed {
        assert!(rel.ends_with(".rs"), "non-Rust path leaked through: {rel}");
        assert!(!rel.starts_with('/'), "path should be repo-relative: {rel}");
    }
}

#[test]
fn check_binary_diff_mode() {
    let bin = env!("CARGO_BIN_EXE_rsm-lint");
    let root = workspace_root();

    // The workspace is clean, so any emission subset is clean too:
    // exit 0, and the JSON report records the base ref.
    let out = std::process::Command::new(bin)
        .args(["check", "--diff", "HEAD", "--json"])
        .current_dir(&root)
        .output()
        .expect("spawn rsm-lint");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"diff_base\": \"HEAD\""), "{text}");

    // --diff is a workspace-run flag; combining it with explicit paths
    // is a usage error (exit 2), not a silent reinterpretation.
    let usage = std::process::Command::new(bin)
        .args(["check", "--diff", "HEAD", "crates/lint/src/lib.rs"])
        .current_dir(&root)
        .output()
        .expect("spawn rsm-lint");
    assert_eq!(usage.status.code(), Some(2));
}
