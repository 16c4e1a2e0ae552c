//! `rsm-lint` — workspace static analysis for determinism and
//! numerical-robustness invariants.
//!
//! The paper's central claim (Li, DAC 2009) is that LAR/OMP pull a
//! *deterministic* sparse solution out of an underdetermined system,
//! and PR 1 extended that promise to the runtime: results are
//! bit-identical at any thread count. This crate guards the invariants
//! that make that true *statically*:
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | R1   | no unordered-map iteration in result-affecting code |
//! | R2   | no exact float `==`/`!=` outside the `tol` helper module |
//! | R3   | no panic site (`unwrap`/`expect`/`panic!`) reachable from a `pub` fn in a library crate |
//! | R4   | no nondeterminism read (wall clock, thread identity, env) reachable from a `pub` fn, except the `RSM_THREADS` shim |
//! | R5   | no `unsafe` anywhere |
//! | R6   | no path from a matrix-free entry front to `design_matrix()` |
//! | R7   | no accumulation crossing into a parallel worker closure — combine through the in-order fold |
//! | R8   | no magic tolerance literal (0 < \|v\| < 1e-3) in a comparison/guard — name it in `rsm_linalg::tol` or a local `const` |
//! | R9   | no NaN-blind comparison (`partial_cmp().unwrap()`, raw-float sort keys, tainted `==`) |
//! | R10  | no indexed `for i in 0..n` loop over float slices on a kernel-reachable hot path (machine-fixable to `zip` form) |
//! | R11  | no allocation inside a loop body on a kernel-reachable hot path |
//! | R12  | no loop-invariant expensive call recomputed per iteration |
//! | R13  | no session-protocol misuse: step before ingestion, use after `into_path()`, or a streaming session on a one-shot `Ls`/`Star` config |
//! | R14  | no discarded `Result` in a library crate (`let _ =`, `;`-dropped call, unused `.ok()`) |
//! | R15  | no tolerance-magnitude literal reaching a float comparison through a callee argument |
//! | R16  | no `.zip()` in the kernel cone whose operand lengths the shape dataflow cannot prove equal (zip truncates silently) |
//! | R17  | no indexing/slicing with an index provably out of bounds under the symbolic length facts |
//! | R18  | no call site that provably violates a callee's inferred shape contract (required length equalities among params) |
//!
//! R3/R4/R6 are **interprocedural** (v2): every file is item-parsed
//! ([`parse`]), a workspace call graph is built ([`graph`]), and a
//! diagnostic fires only when a violation site is *reachable* from the
//! rule's root set — with the offending call chain printed. R1/R2/R5
//! remain purely lexical. R7/R8/R9 are **dataflow** rules (v3): each
//! function body is lowered to a statement IR + CFG ([`mod@cfg`]) and a
//! float-taint / constant-propagation fixpoint ([`dataflow`]) drives
//! the sinks — every finding carries a def-use trace (decl → flow →
//! sink). R10–R12 are the kernel-cone **perf** rules (v4) with the R10
//! machine-fix engine ([`fix`]). v5 makes the whole analysis
//! **summary-based interprocedural**: the call graph is condensed into
//! SCCs, per-function summaries (float taint, panic/nondet reach,
//! allocation-in-loop, param mutation, tolerance-compared params) are
//! computed bottom-up with a fixpoint inside cycles ([`summary`]), and
//! the dataflow/perf sinks consume callee effects distilled from them.
//! The new v5 rule family rides on that machinery: R13 is a typestate
//! check over `*Session` locals ([`protocol`]), R14 uses
//! `returns_result` summaries, R15 uses tolerance-parameter summaries.
//! Known findings can be ratcheted via a committed baseline
//! ([`baseline`], `check --baseline FILE`), keyed by rule +
//! fn-qualified path so line drift never churns it.
//!
//! v6 adds a **symbolic shape/length dataflow** ([`shape`]): a forward
//! fixpoint over the CFG tracks per-local symbolic lengths
//! (`len(x)`, literals, `term ± k`, `min(a, b)`) seeded from `.len()`
//! bindings, length-assert guards, `with_capacity`/`vec![_; n]`
//! constructors, and slicing. R16 flags `.zip()` lockstep in the
//! kernel cone where operand lengths are not provably equal, R17 flags
//! provably out-of-bounds indexing/slicing, and R18 checks call sites
//! against per-function **shape contracts** (length equalities among
//! params) inferred bottom-up through the summary fixpoint. All three
//! print decl→flow→sink traces; the sanctioned silencing mechanism is
//! a checked `assert_eq!`/`debug_assert_eq!` length guard, not a
//! suppression comment. `rsm-lint explain R#` ([`explain`]) prints any
//! rule's rationale with firing/clean snippets sourced from the
//! fixture corpus.
//!
//! The taint, typestate and shape engines all run on one forward
//! solver ([`cfg::solve`]). A fixpoint that has not converged at its
//! round cap yields [`cfg::NonConvergence`], and the whole run is
//! refused (CLI exit 2) rather than reported from truncated facts.
//!
//! Violations are suppressed inline with
//! `// rsm-lint: allow(R#) — reason` and every suppression must carry
//! a written reason (audited by rules S0/S1). See DESIGN.md § Static
//! analysis for the full policy.
//!
//! The crate is std-only with a hand-rolled lexer (no `syn`): the
//! build environment is offline and the lint must never be the thing
//! that breaks the build.

#![warn(missing_docs)]

pub mod baseline;
pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod explain;
pub mod fix;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod perf;
pub mod protocol;
pub mod rules;
pub mod sarif;
pub mod shape;
pub mod summary;
pub mod suppress;

pub use diag::{Diagnostic, Report, Rule, Severity};
pub use graph::{CallGraph, Unit};
pub use rules::{FileClass, LIB_CRATES};

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Directories under the workspace root that `check` scans by default.
pub const DEFAULT_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Directory names never descended into.
const SKIP_DIRS: [&str; 3] = ["target", "fixtures", ".git"];

/// Lexes and item-parses every `.rs` file under the workspace scan
/// roots into [`Unit`]s — phase one of the two-phase pipeline. The
/// call graph and all rules run over the full unit set.
///
/// # Errors
///
/// Returns a message if a scan root exists but cannot be read.
pub fn workspace_units(root: &Path) -> Result<Vec<Unit>, String> {
    let mut files = Vec::new();
    for sub in DEFAULT_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut units = Vec::with_capacity(files.len());
    for path in files {
        let rel = relative_label(root, &path);
        let class = FileClass::from_path(&rel);
        units.push(read_unit(&path, rel, class)?);
    }
    Ok(units)
}

/// Parses explicitly named files/directories into [`Unit`]s, each
/// treated as library-crate production code (see
/// [`FileClass::lib_context`]) so fixtures exercise all rules
/// wherever they live.
///
/// # Errors
///
/// Returns a message if a path cannot be read.
pub fn path_units(paths: &[PathBuf]) -> Result<Vec<Unit>, String> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            collect_rs_files(p, &mut files)?;
        } else {
            files.push(p.clone());
        }
    }
    files.sort();
    let mut units = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path.to_string_lossy().replace('\\', "/");
        units.push(read_unit(path, rel, FileClass::lib_context())?);
    }
    Ok(units)
}

/// Lints the whole workspace rooted at `root` (the directory holding
/// the workspace `Cargo.toml`).
///
/// # Errors
///
/// Returns a message if a scan root exists but cannot be read, or if an
/// analysis fixpoint does not converge (the run is then refused).
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    rules::lint_units(&workspace_units(root)?, |_| true).map_err(|e| e.to_string())
}

/// Lints the workspace but **emits** diagnostics only for files
/// changed relative to the git ref `base` (plus untracked files). The
/// whole workspace is still parsed and the full call graph built, so
/// every emitted diagnostic is identical to what a full run would
/// report for that file — `--diff` narrows output, never meaning.
///
/// # Errors
///
/// Returns a message if the tree cannot be read, `git` fails, or an
/// analysis fixpoint does not converge.
pub fn lint_workspace_diff(root: &Path, base: &str) -> Result<Report, String> {
    let changed = git_changed_files(root, base)?;
    let mut report = rules::lint_units(&workspace_units(root)?, |rel| changed.contains(rel))
        .map_err(|e| e.to_string())?;
    report.diff_base = Some(base.to_string());
    Ok(report)
}

/// Lints explicitly named files/directories (fixture/ad-hoc mode).
///
/// # Errors
///
/// Returns a message if a path cannot be read or an analysis fixpoint
/// does not converge.
pub fn lint_paths(paths: &[PathBuf]) -> Result<Report, String> {
    rules::lint_units(&path_units(paths)?, |_| true).map_err(|e| e.to_string())
}

/// Workspace-relative `.rs` files changed vs `base` (committed or
/// staged changes via `git diff --name-only`, plus untracked files via
/// `git ls-files --others`).
///
/// # Errors
///
/// Returns a message if `git` cannot be spawned or reports failure.
pub fn git_changed_files(root: &Path, base: &str) -> Result<BTreeSet<String>, String> {
    let mut changed = BTreeSet::new();
    for args in [
        vec!["diff", "--name-only", base, "--"],
        vec!["ls-files", "--others", "--exclude-standard"],
    ] {
        let out = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(&args)
            .output()
            .map_err(|e| format!("cannot run git: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "git {} failed: {}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let rel = line.trim().replace('\\', "/");
            if rel.ends_with(".rs") {
                changed.insert(rel);
            }
        }
    }
    Ok(changed)
}

/// Walks upward from `start` to find the workspace root (a directory
/// whose `Cargo.toml` contains a `[workspace]` table).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn read_unit(path: &Path, rel: String, class: FileClass) -> Result<Unit, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(Unit::new(rel, &src, class))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
