//! Pins the byte-exact report the `rsm-lint` binary prints for the
//! fixture corpus, in both machine formats. The analysis engines may be
//! restructured freely; the bytes a user (or CI artifact) sees may not
//! drift without the goldens under `tests/golden/` being regenerated on
//! purpose.

use rsm_lint::find_workspace_root;
use std::path::PathBuf;

/// Runs `rsm-lint check <format args> crates/lint/tests/fixtures` from
/// the workspace root (so reported paths are the repo-relative ones the
/// goldens hold) and returns the exit code and stdout.
fn check_fixtures(format: &[&str]) -> (Option<i32>, Vec<u8>) {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(&manifest).expect("enclosing workspace");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rsm-lint"))
        .arg("check")
        .args(format)
        .arg("crates/lint/tests/fixtures")
        .current_dir(&root)
        .output()
        .expect("spawn rsm-lint");
    (out.status.code(), out.stdout)
}

fn assert_golden(format: &[&str], golden: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(golden);
    let want = std::fs::read(&path).expect("golden report readable");
    let (code, got) = check_fixtures(format);
    // The corpus holds firing fixtures, so the run reports findings.
    assert_eq!(code, Some(1), "{}", String::from_utf8_lossy(&got));
    assert!(
        got == want,
        "report bytes drifted from {golden}; if intentional, regenerate with\n  \
         cargo run -p rsm-lint -- check {} crates/lint/tests/fixtures > crates/lint/{golden}\n\
         got:\n{}",
        format.join(" "),
        String::from_utf8_lossy(&got)
    );
}

#[test]
fn json_report_matches_golden_bytes() {
    assert_golden(&["--json"], "tests/golden/fixtures_check.json");
}

#[test]
fn sarif_report_matches_golden_bytes() {
    assert_golden(&["--format", "sarif"], "tests/golden/fixtures_check.sarif");
}
