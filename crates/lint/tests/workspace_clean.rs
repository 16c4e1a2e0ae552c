//! The gate this crate exists for: the workspace itself must be clean
//! under the shipped rule set, with every suppression reasoned.

use rsm_lint::{find_workspace_root, lint_workspace};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(&manifest).expect("enclosing workspace")
}

#[test]
fn workspace_is_clean_under_the_shipped_rules() {
    let report = lint_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        report.is_clean(),
        "rsm-lint found {} diagnostic(s):\n{}",
        report.diagnostics.len(),
        report.render()
    );
    // The scan actually covered the tree (96 files at the time this
    // gate was introduced) and honored the audited suppressions.
    assert!(
        report.files_scanned >= 90,
        "only {} files scanned — walker regression?",
        report.files_scanned
    );
    assert!(
        report.suppressions_used >= 10,
        "only {} suppressions honored — suppression parsing regression?",
        report.suppressions_used
    );
}

#[test]
fn check_binary_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_rsm-lint");
    let root = workspace_root();
    // Clean workspace: exit 0.
    let ok = std::process::Command::new(bin)
        .arg("check")
        .current_dir(&root)
        .output()
        .expect("spawn rsm-lint");
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stdout)
    );

    // Injected violation (a fixture file): exit code 1.
    let dirty = std::process::Command::new(bin)
        .arg("check")
        .arg(root.join("crates/lint/tests/fixtures/r5_unsafe.rs"))
        .current_dir(&root)
        .output()
        .expect("spawn rsm-lint");
    assert_eq!(dirty.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&dirty.stdout).contains("[R5]"));

    // Usage error: exit code 2.
    let usage = std::process::Command::new(bin)
        .arg("frobnicate")
        .current_dir(&root)
        .output()
        .expect("spawn rsm-lint");
    assert_eq!(usage.status.code(), Some(2));

    // --json emits the machine-readable report on stdout.
    let json = std::process::Command::new(bin)
        .args(["check", "--json"])
        .current_dir(&root)
        .output()
        .expect("spawn rsm-lint");
    assert!(json.status.success());
    let text = String::from_utf8_lossy(&json.stdout);
    assert!(text.contains("\"clean\": true"), "{text}");

    // --out writes the JSON artifact (as used by the CI lint job).
    let dir = std::env::temp_dir().join("rsm_lint_test_artifact");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let artifact = dir.join("rsm-lint.json");
    let out = std::process::Command::new(bin)
        .args(["check", "--out"])
        .arg(&artifact)
        .current_dir(&root)
        .output()
        .expect("spawn rsm-lint");
    assert!(out.status.success());
    let written = std::fs::read_to_string(&artifact).expect("artifact written");
    assert!(written.contains("\"version\": 6"));

    // fix --check: the committed tree has no pending machine fixes, so
    // the dry-run gate exits 0 (it exits 1 when a fix would apply).
    let fix_check = std::process::Command::new(bin)
        .args(["fix", "--check"])
        .current_dir(&root)
        .output()
        .expect("spawn rsm-lint");
    assert!(
        fix_check.status.success(),
        "fix --check found pending fixes:\n{}",
        String::from_utf8_lossy(&fix_check.stdout)
    );

    // --format sarif emits a SARIF 2.1.0 document on stdout, and
    // --sarif-out writes it alongside whatever stdout format is active
    // (as used by the CI artifact upload).
    let sarif_path = dir.join("rsm-lint.sarif");
    let sarif = std::process::Command::new(bin)
        .args(["check", "--format", "sarif", "--sarif-out"])
        .arg(&sarif_path)
        .current_dir(&root)
        .output()
        .expect("spawn rsm-lint");
    assert!(sarif.status.success());
    let stdout = String::from_utf8_lossy(&sarif.stdout);
    assert!(stdout.contains("\"version\": \"2.1.0\""), "{stdout}");
    let sarif_file = std::fs::read_to_string(&sarif_path).expect("sarif artifact written");
    assert!(sarif_file.contains("\"name\": \"rsm-lint\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rules_subcommand_documents_every_rule() {
    let bin = env!("CARGO_BIN_EXE_rsm-lint");
    let out = std::process::Command::new(bin)
        .arg("rules")
        .output()
        .expect("spawn rsm-lint");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for id in [
        "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "R11", "R12", "R13", "R14",
        "R15", "R16", "R17", "R18", "S0", "S1",
    ] {
        assert!(text.contains(id), "rules output lacks {id}: {text}");
    }
}

#[test]
fn explain_subcommand_renders_rule_pages() {
    let bin = env!("CARGO_BIN_EXE_rsm-lint");
    for id in ["R16", "R17", "R18", "S0"] {
        let out = std::process::Command::new(bin)
            .args(["explain", id])
            .output()
            .expect("spawn rsm-lint");
        assert!(out.status.success(), "explain {id} failed");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with(id), "explain {id} page:\n{text}");
        assert!(
            text.contains("## Firing example"),
            "explain {id} lacks firing snippet:\n{text}"
        );
    }
    // Unknown rule ids are a usage error, not a panic.
    let bad = std::process::Command::new(bin)
        .args(["explain", "R99"])
        .output()
        .expect("spawn rsm-lint");
    assert!(!bad.status.success());
}

#[test]
fn non_converging_fixpoint_is_refused_with_exit_2() {
    // A taint that climbs out through 70 nested loops needs one more
    // solver round per level, past the 64-round cap. The run must be
    // refused, naming the engine and the function, not reported from
    // truncated facts.
    let depth = 70;
    let mut src = String::from("pub fn deep(d: f64) -> f64 {\n");
    for i in 0..=depth {
        src.push_str(&format!("    let mut x{i} = 0.0;\n"));
    }
    src.push_str(&"    loop {\n".repeat(depth));
    src.push_str("        x0 = 1.0 / d;\n");
    for level in 1..=depth {
        src.push_str(&format!("    }}\n    x{level} = x{};\n", level - 1));
    }
    src.push_str(&format!("    x{depth}\n}}\n"));
    let dir = std::env::temp_dir().join("rsm_lint_test_non_convergence");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("deep.rs");
    std::fs::write(&file, src).expect("write deep.rs");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rsm-lint"))
        .arg("check")
        .arg(&file)
        .current_dir(workspace_root())
        .output()
        .expect("spawn rsm-lint");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no report from a truncated run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("dataflow fixpoint"), "{stderr}");
    assert!(stderr.contains("`linalg::deep`"), "{stderr}");
    assert!(stderr.contains("64 rounds"), "{stderr}");
}
