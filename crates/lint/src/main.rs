//! `rsm-lint` command-line entry point.
//!
//! ```text
//! rsm-lint check [--format human|json|sarif] [--json] [--out FILE]
//!                [--sarif-out FILE] [--diff BASE]
//!                [--baseline FILE [--update-baseline]] [PATH...]
//! rsm-lint fix [--check]
//! rsm-lint graph [PATH...]
//! rsm-lint rules [--json]
//! ```
//!
//! `check` with no paths lints the whole workspace (found by walking
//! up from the current directory); with paths it lints exactly those
//! files/directories, treating them as library-crate production code.
//! `--diff BASE` still parses the whole workspace (the call graph is
//! always global) but only emits diagnostics for files changed vs the
//! git ref. `--baseline FILE` is the findings ratchet: known findings
//! (keyed by rule + fn-qualified path, never line numbers) are
//! filtered out and only *new* findings fail the run;
//! `--update-baseline` rewrites FILE from the current findings instead
//! of failing. `fix` applies every machine-applicable edit byte-exactly
//! and re-lints until none remain; `fix --check` applies nothing and
//! exits 1 if any fix *would* apply (the CI fix-cleanliness gate).
//! `graph` prints the deterministic call-graph snapshot.
//! Exit status: 0 clean, 1 diagnostics reported, 2 usage/IO error or
//! an analysis fixpoint that did not converge (the run is refused).

use rsm_lint::baseline::Baseline;
use rsm_lint::diag::SOURCE_RULES;
use rsm_lint::{
    diag, find_workspace_root, lint_paths, lint_workspace, lint_workspace_diff, path_units, sarif,
    workspace_units, CallGraph,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("rsm-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
rsm-lint — static analysis for determinism and numerical robustness

USAGE:
  rsm-lint check [--format human|json|sarif] [--json] [--out FILE]
                 [--sarif-out FILE] [--diff BASE]
                 [--baseline FILE [--update-baseline]] [PATH...]
  rsm-lint fix [--check]
  rsm-lint graph [PATH...]
  rsm-lint rules [--json]
  rsm-lint explain R#

check exits 0 when clean, 1 on any unsuppressed diagnostic, 2 on
usage/IO errors or when an analysis fixpoint does not converge (the
truncated run is refused, naming the function). With no PATH, the
enclosing cargo workspace is scanned; explicit paths are linted as
library-crate production code.
--format picks the stdout rendering (--json is shorthand for
--format json); --out writes the JSON report to FILE and --sarif-out
writes a SARIF 2.1.0 document to FILE, both while keeping the chosen
stdout format. --diff BASE parses the full workspace (reachability is
always global) but emits diagnostics only for files changed vs the
git ref BASE, plus untracked files. --baseline FILE filters findings
accepted by the committed ratchet (keys are rule + fn-qualified path,
never line numbers) so only new findings fail; --update-baseline
rewrites FILE from the current findings and exits clean.
fix applies every machine-applicable edit (today: R10 loop rewrites)
byte-exactly and re-lints until none remain; fix --check applies
nothing and exits 1 when any fix would apply, so CI can require a
fix-clean tree.
graph prints the deterministic workspace call-graph snapshot used by
the interprocedural rules (R3/R4/R6).
explain prints one rule's rationale, severity, and firing/clean
example snippets sourced from the fixture corpus (so the docs cannot
drift from the engine's asserted behavior).
Suppress a finding with `// rsm-lint: allow(R#) — reason` (the reason
is mandatory and stale directives are themselves reported).
";

fn run(args: &[String]) -> Result<bool, String> {
    let Some(cmd) = args.first() else {
        return Err(format!("missing subcommand\n\n{USAGE}"));
    };
    let mut format: Option<String> = None;
    let mut out_file: Option<String> = None;
    let mut sarif_file: Option<String> = None;
    let mut diff_base: Option<String> = None;
    let mut baseline_file: Option<String> = None;
    let mut update_baseline = false;
    let mut fix_check = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => format = Some("json".into()),
            "--format" => {
                let f = it.next().ok_or("--format requires human|json|sarif")?;
                format = Some(f.clone());
            }
            "--out" => {
                let f = it.next().ok_or("--out requires a file argument")?;
                out_file = Some(f.clone());
            }
            "--sarif-out" => {
                let f = it.next().ok_or("--sarif-out requires a file argument")?;
                sarif_file = Some(f.clone());
            }
            "--diff" => {
                let b = it.next().ok_or("--diff requires a git ref argument")?;
                diff_base = Some(b.clone());
            }
            "--baseline" => {
                let f = it.next().ok_or("--baseline requires a file argument")?;
                baseline_file = Some(f.clone());
            }
            "--update-baseline" => update_baseline = true,
            "--check" => fix_check = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(true);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown option '{flag}'\n\n{USAGE}"));
            }
            p => paths.push(PathBuf::from(p)),
        }
    }
    let format = format.unwrap_or_else(|| "human".into());
    if !matches!(format.as_str(), "human" | "json" | "sarif") {
        return Err(format!("unknown format '{format}' (human|json|sarif)"));
    }
    match cmd.as_str() {
        "check" => {
            if update_baseline && baseline_file.is_none() {
                return Err("--update-baseline requires --baseline FILE".into());
            }
            cmd_check(
                &format,
                out_file.as_deref(),
                sarif_file.as_deref(),
                diff_base.as_deref(),
                baseline_file.as_deref(),
                update_baseline,
                &paths,
            )
        }
        "fix" => {
            if !paths.is_empty() {
                return Err("fix operates on the whole workspace; drop the explicit paths".into());
            }
            cmd_fix(fix_check)
        }
        "graph" => {
            cmd_graph(&paths)?;
            Ok(true)
        }
        "rules" => {
            cmd_rules(format == "json");
            Ok(true)
        }
        "explain" => {
            let [id] = paths.as_slice() else {
                return Err(format!("explain takes exactly one rule id\n\n{USAGE}"));
            };
            let id = id.to_string_lossy().to_uppercase();
            let rule = rsm_lint::sarif::ALL_RULES
                .iter()
                .copied()
                .find(|r| r.id() == id)
                .ok_or_else(|| format!("unknown rule '{id}' (see `rsm-lint rules`)"))?;
            print!("{}", rsm_lint::explain::render(rule));
            Ok(true)
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unknown subcommand '{other}'\n\n{USAGE}")),
    }
}

fn workspace_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    find_workspace_root(&cwd)
        .ok_or_else(|| "no enclosing cargo workspace found (run from the repo)".into())
}

#[allow(clippy::too_many_arguments)]
fn cmd_check(
    format: &str,
    out_file: Option<&str>,
    sarif_file: Option<&str>,
    diff_base: Option<&str>,
    baseline_file: Option<&str>,
    update_baseline: bool,
    paths: &[PathBuf],
) -> Result<bool, String> {
    let mut report = match (paths.is_empty(), diff_base) {
        (true, None) => lint_workspace(&workspace_root()?)?,
        (true, Some(base)) => lint_workspace_diff(&workspace_root()?, base)?,
        (false, None) => lint_paths(paths)?,
        (false, Some(_)) => {
            return Err("--diff applies to workspace runs; drop the explicit paths".into())
        }
    };
    if let Some(f) = baseline_file {
        if update_baseline {
            let snapshot = Baseline::from_report(&report);
            snapshot.save(std::path::Path::new(f))?;
            eprintln!(
                "rsm-lint: baseline {f} updated ({} key{})",
                snapshot.keys.len(),
                if snapshot.keys.len() == 1 { "" } else { "s" }
            );
            report.diagnostics.clear();
        } else {
            let baseline = Baseline::load(std::path::Path::new(f))?;
            let known = baseline.filter_new(&mut report);
            if known > 0 {
                eprintln!(
                    "rsm-lint: {known} known finding{} accepted by baseline {f}",
                    if known == 1 { "" } else { "s" }
                );
            }
        }
    }
    if let Some(f) = out_file {
        std::fs::write(f, report.to_json()).map_err(|e| format!("cannot write {f}: {e}"))?;
    }
    if let Some(f) = sarif_file {
        std::fs::write(f, sarif::to_sarif(&report))
            .map_err(|e| format!("cannot write {f}: {e}"))?;
    }
    match format {
        "json" => print!("{}", report.to_json()),
        "sarif" => print!("{}", sarif::to_sarif(&report)),
        _ => print!("{}", report.render()),
    }
    Ok(report.is_clean())
}

fn cmd_fix(check: bool) -> Result<bool, String> {
    let root = workspace_root()?;
    let summary = rsm_lint::fix::fix_workspace(&root, !check)?;
    if summary.files.is_empty() {
        println!("fix: workspace is fix-clean (nothing to apply)");
        return Ok(true);
    }
    let verb = if check { "would apply" } else { "applied" };
    for (rel, n) in &summary.files {
        println!(
            "fix: {verb} {n} edit{} in {rel}",
            if *n == 1 { "" } else { "s" }
        );
    }
    println!(
        "fix: {} edit{} in {} file{} ({} lint pass{})",
        summary.edits(),
        if summary.edits() == 1 { "" } else { "s" },
        summary.files.len(),
        if summary.files.len() == 1 { "" } else { "s" },
        summary.passes,
        if summary.passes == 1 { "" } else { "es" },
    );
    // In --check mode pending fixes are a failure (the tree must be
    // fix-clean); after a real apply the run succeeded.
    Ok(!check)
}

fn cmd_graph(paths: &[PathBuf]) -> Result<(), String> {
    let units = if paths.is_empty() {
        workspace_units(&workspace_root()?)?
    } else {
        path_units(paths)?
    };
    print!("{}", CallGraph::build(&units).snapshot());
    Ok(())
}

fn cmd_rules(json: bool) {
    if json {
        let mut out = String::from("[");
        for (i, r) in SOURCE_RULES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"rule\": \"{}\", \"severity\": \"{}\", \"summary\": \"{}\"}}",
                r,
                r.severity(),
                diag::json_escape(r.summary())
            ));
        }
        out.push_str("\n]\n");
        print!("{out}");
    } else {
        for r in SOURCE_RULES {
            println!("{} [{}] {}", r, r.severity(), r.summary());
        }
        println!(
            "\nSuppress with `// rsm-lint: allow(R#) — reason`; S0 flags a missing \
             reason, S1 a stale directive."
        );
    }
}
