//! The rule engine, v5: a **local pass** (R1/R2/R5, still purely
//! lexical), graph-reachability passes (R3/R4/R6) driven by the
//! workspace call graph in [`crate::graph`] with test intermediaries
//! pruned, **summary-based interprocedural dataflow** (R7/R8/R9/R15)
//! consuming the bottom-up per-function summaries of
//! [`crate::summary`], the session-protocol typestate rule (R13,
//! [`crate::protocol`]), and the discarded-`Result` rule (R14, keyed
//! on the `returns_result` signature fact through resolved call
//! edges). Every flow-sensitive finding carries a def-use trace
//! (decl → flow → sink).
//!
//! The pipeline is two-phase: every file is lexed and item-parsed into
//! a [`Unit`] first, the call graph and the function summaries are
//! built over the *whole* unit set, and only then do rules run. This
//! is what lets `--diff` restrict which files *emit* diagnostics
//! without changing what any diagnostic *means* — reachability and
//! summaries are always computed on the full workspace.
//!
//! Every flow-sensitive engine runs on the one forward solver in
//! [`crate::cfg`]. A fixpoint that hits its round cap is a
//! [`NonConvergence`] refusal of the whole run, never a silent cut.

use std::collections::BTreeSet;

use crate::cfg::{parse_body, skip_group, NonConvergence, StmtKind};
use crate::dataflow::{self, EventKind};
use crate::diag::{Diagnostic, Report, Rule};
use crate::graph::{fn_key_at, unit_first_item, CallGraph, Unit};
use crate::lexer::{Token, TokenKind};
use crate::protocol::{self, ProtocolKind};
use crate::summary::{self, FnSummary};
use crate::suppress::SuppressionSet;

/// Library crates where panic sites must not be reachable from public
/// entry points (rule R3). Binaries (`cli`, `lint`) and the benchmark
/// harness may panic on their own top-level errors.
pub const LIB_CRATES: [&str; 9] = [
    "core",
    "linalg",
    "basis",
    "stats",
    "spice",
    "circuits",
    "runtime",
    // The serving stack answers malformed client input with error
    // frames; a reachable panic there is a denial-of-service bug.
    "serve",
    // The root `sparse-rsm` facade under `src/` re-exports the crates
    // above and is held to the same standard.
    "sparse-rsm",
];

/// Crates whose whole purpose is wall-clock measurement; rule R4
/// (nondeterminism taint) does not apply there.
pub const BENCH_CRATES: [&str; 1] = ["bench"];

/// The one module allowed to spell exact float comparisons: the
/// tolerance helpers themselves. Rule R2 does not apply to it.
pub const TOL_MODULE: &str = "crates/linalg/src/tol.rs";

/// How a file is treated by crate- and location-sensitive rules.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Crate name derived from the path (`crates/<name>/...`), or
    /// `sparse-rsm` for the root `src/`, or `None` outside any crate.
    pub crate_name: Option<String>,
    /// File lives under a `tests/`, `benches/` or `examples/`
    /// directory: R1–R4 treat it as test code.
    pub is_test_file: bool,
    /// Explicit-path mode (fixtures, ad-hoc runs): rules that key on
    /// workspace layout (the `RSM_THREADS` shim's crate check) are
    /// relaxed so fixtures can exercise them anywhere on disk.
    pub explicit: bool,
}

impl FileClass {
    /// Classifies a workspace-relative path (`/`-separated).
    pub fn from_path(rel: &str) -> FileClass {
        let parts: Vec<&str> = rel.split('/').collect();
        let crate_name = match parts.as_slice() {
            ["crates", name, ..] => Some((*name).to_string()),
            ["src", ..] => Some("sparse-rsm".to_string()),
            _ => None,
        };
        let is_test_file = parts
            .iter()
            .any(|p| *p == "tests" || *p == "benches" || *p == "examples");
        FileClass {
            crate_name,
            is_test_file,
            explicit: false,
        }
    }

    /// Explicit-path mode (fixtures, ad-hoc runs): the file is treated
    /// as library-crate production code so every rule is exercised
    /// regardless of where the file happens to live on disk.
    pub fn lib_context() -> FileClass {
        FileClass {
            crate_name: Some("linalg".to_string()),
            is_test_file: false,
            explicit: true,
        }
    }

    /// True when the file belongs to one of the [`LIB_CRATES`].
    pub(crate) fn is_lib_crate(&self) -> bool {
        self.crate_name
            .as_deref()
            .is_some_and(|c| LIB_CRATES.contains(&c))
    }

    fn is_bench_crate(&self) -> bool {
        self.crate_name
            .as_deref()
            .is_some_and(|c| BENCH_CRATES.contains(&c))
    }
}

/// Lints a full unit set: local rules per file, interprocedural rules
/// over the shared call graph, then per-file suppression filtering and
/// S0/S1 audits. `emit` decides which files' diagnostics (and
/// suppression audits) make it into the report — `--diff` passes a
/// changed-file filter here; a full run passes `|_| true`.
///
/// # Errors
///
/// [`NonConvergence`] when any fixpoint hits its round cap: a truncated
/// analysis makes every finding of the run suspect, so none is reported.
pub fn lint_units<F: Fn(&str) -> bool>(units: &[Unit], emit: F) -> Result<Report, NonConvergence> {
    let mut raw: Vec<Diagnostic> = Vec::new();
    for unit in units {
        local_pass(unit, &mut raw);
    }

    let graph = CallGraph::build(units);
    let sums = summary::compute(units, &graph)?;
    // v5 precision: reachability no longer flows *through* test code —
    // a test helper calling into the library marks its direct callees
    // at most, never the whole closure under them.
    let reach_pub = graph.reach_via(|n| n.is_entry, |n| !n.is_test);
    let reach_front = graph.reach_via(|n| n.is_front, |n| !n.is_test);
    for (ni, node) in graph.nodes.iter().enumerate() {
        if node.is_test {
            continue;
        }
        let class = &units[node.unit].class;
        let rel = &units[node.unit].rel;

        // R3v2: panic sites reachable from a public entry point.
        if class.is_lib_crate() && reach_pub[ni].yes() && !node.panic_sites.is_empty() {
            let chain = graph.chain(&reach_pub, ni);
            for s in &node.panic_sites {
                raw.push(Diagnostic {
                    file: rel.clone(),
                    line: s.line,
                    rule: Rule::R3,
                    message: format!(
                        "`{}` in a library crate is reachable from a public entry \
                         point and panics on recoverable errors; return Result or \
                         justify with an allow",
                        s.detail
                    ),
                    chain: chain.clone(),
                    trace: Vec::new(),
                    fn_key: Some(node.key.clone()),
                    fix: None,
                });
            }
        }

        // R4v2: nondeterminism reads reachable from a public entry
        // point, unless sanctioned by the RSM_THREADS shim.
        if !class.is_bench_crate() && reach_pub[ni].yes() && !node.nondet_sites.is_empty() {
            let chain = graph.chain(&reach_pub, ni);
            for s in &node.nondet_sites {
                if node.shim && s.env {
                    continue;
                }
                raw.push(Diagnostic {
                    file: rel.clone(),
                    line: s.line,
                    rule: Rule::R4,
                    message: format!(
                        "`{}` injects ambient nondeterminism on a publicly reachable \
                         path; only the RSM_THREADS shim in crates/runtime may read \
                         process state",
                        s.detail
                    ),
                    chain: chain.clone(),
                    trace: Vec::new(),
                    fn_key: Some(node.key.clone()),
                    fix: None,
                });
            }
        }

        // R6v2: materialization reachable from a matrix-free front.
        if (class.is_lib_crate() || class.crate_name.as_deref() == Some("cli"))
            && reach_front[ni].yes()
            && !node.mat_sites.is_empty()
        {
            let chain = graph.chain(&reach_front, ni);
            for s in &node.mat_sites {
                raw.push(Diagnostic {
                    file: rel.clone(),
                    line: s.line,
                    rule: Rule::R6,
                    message: "`design_matrix()` materializes the full K×M matrix on a \
                              path from a matrix-free entry front; solve through \
                              AtomSource (DictionarySource/CachedSource) or justify \
                              the dense path with an allow"
                        .into(),
                    chain: chain.clone(),
                    trace: Vec::new(),
                    fn_key: Some(node.key.clone()),
                    fix: None,
                });
            }
        }
    }

    dataflow_pass(units, &graph, &sums, &reach_pub, &mut raw)?;
    protocol_pass(units, &graph, &mut raw)?;
    r14_pass(units, &graph, &sums, &mut raw);

    let reach_kernel = graph.reach_via(|n| n.is_kernel, |n| !n.is_test);
    crate::perf::perf_pass(units, &graph, &sums, &reach_kernel, &mut raw);
    shape_pass(units, &graph, &sums, &reach_kernel, &mut raw)?;

    let mut report = Report {
        files_scanned: units.len(),
        ..Default::default()
    };
    for unit in units.iter().filter(|u| emit(&u.rel)) {
        let mut suppressions = SuppressionSet::collect(&unit.tokens);
        let mut file_diags: Vec<Diagnostic> =
            raw.iter().filter(|d| d.file == unit.rel).cloned().collect();
        file_diags.retain(|d| !suppressions.matches(d.rule, d.line));
        suppressions.audit(&unit.rel, &mut file_diags);
        report.suppressions_used += suppressions.used_count();
        report.diagnostics.extend(file_diags);
    }
    report.sort();
    Ok(report)
}

/// Lints one file's source text in isolation (single-unit graph).
/// `file` is the label used in diagnostics (workspace-relative path).
///
/// # Errors
///
/// [`NonConvergence`] as for [`lint_units`].
pub fn lint_source(
    file: &str,
    src: &str,
    class: &FileClass,
) -> Result<(Vec<Diagnostic>, usize), NonConvergence> {
    let unit = Unit::new(file.to_string(), src, class.clone());
    let report = lint_units(std::slice::from_ref(&unit), |_| true)?;
    Ok((report.diagnostics, report.suppressions_used))
}

/// The shape rules: R16 (unproven `.zip()` lockstep in the kernel
/// cone), R17 (provable out-of-bounds index/slice), R18 (call-site
/// violation of an inferred shape contract). Each body runs the
/// symbolic length dataflow ([`crate::shape::analyze`]) under the
/// callee-effect map; R16 additionally requires kernel-cone
/// reachability (same gate as the perf rules — the hazard the R10
/// autofix introduced lives exactly there), R17 is lib-crate scoped,
/// R18 fires in lib and cli crates.
fn shape_pass(
    units: &[Unit],
    graph: &CallGraph,
    sums: &[FnSummary],
    reach_kernel: &[crate::graph::Reach],
    raw: &mut Vec<Diagnostic>,
) -> Result<(), NonConvergence> {
    use crate::shape::{self, ShapeEventKind};
    let first = unit_first_item(units);
    let mut seen: BTreeSet<(String, u32, Rule)> = BTreeSet::new();
    for (ui, unit) in units.iter().enumerate() {
        let class = &unit.class;
        if class.is_test_file
            || !(class.is_lib_crate() || class.crate_name.as_deref() == Some("cli"))
        {
            continue;
        }
        for (oi, item) in unit.items.iter().enumerate() {
            let Some(body) = item.body else { continue };
            let ni = first[ui] + oi;
            let node = &graph.nodes[ni];
            if node.is_test {
                continue;
            }
            let code = dataflow::body_code(&unit.tokens, body);
            let params = summary::param_names(unit, item);
            let effects = summary::callee_effects(graph, sums, ni);
            let events = shape::analyze(&code, &unit.rel, &node.name, item.line, &params, &effects)
                .map_err(|e| e.in_fn(&node.key))?;
            for event in events {
                let (rule, message) = match &event.kind {
                    ShapeEventKind::ZipUnproven { left, right } => {
                        if !(class.is_lib_crate() && reach_kernel[ni].yes()) {
                            continue;
                        }
                        (
                            Rule::R16,
                            format!(
                                "`.zip()` lockstep not proven: {left} vs {right}; zip \
                                 silently truncates to the shorter operand — assert \
                                 the lengths equal (`debug_assert_eq!`) or guard with \
                                 an early return upstream of this loop"
                            ),
                        )
                    }
                    ShapeEventKind::IndexOob { target, index, len } => {
                        if !class.is_lib_crate() {
                            continue;
                        }
                        (
                            Rule::R17,
                            format!(
                                "index provably out of bounds: `{target}[{index}]` \
                                 with len(`{target}`) = {len} — this panics at \
                                 runtime; fix the index arithmetic"
                            ),
                        )
                    }
                    ShapeEventKind::SliceOob { target, bound, len } => {
                        if !class.is_lib_crate() {
                            continue;
                        }
                        (
                            Rule::R17,
                            format!(
                                "slice bound provably out of range: `{target}[..]` \
                                 bound {bound} with len(`{target}`) = {len} — this \
                                 panics at runtime; fix the bound arithmetic"
                            ),
                        )
                    }
                    ShapeEventKind::ContractMismatch {
                        callee,
                        a_pos,
                        b_pos,
                        a_len,
                        b_len,
                    } => (
                        Rule::R18,
                        format!(
                            "call violates `{callee}`'s shape contract: it requires \
                             len(arg {a_pos}) == len(arg {b_pos}) but the arguments \
                             have lengths {a_len} and {b_len}"
                        ),
                    ),
                };
                if seen.insert((unit.rel.clone(), event.line, rule)) {
                    raw.push(Diagnostic {
                        file: unit.rel.clone(),
                        line: event.line,
                        rule,
                        message,
                        chain: Vec::new(),
                        trace: event.trace.clone(),
                        fn_key: Some(node.key.clone()),
                        fix: None,
                    });
                }
            }
        }
    }
    Ok(())
}

/// The dataflow rules: R7 (non-associative parallel reduction), R8
/// (tolerance hygiene), R9 (NaN-blind comparison), R15 (cross-function
/// tolerance flow). Each function body is lowered to a statement IR +
/// CFG ([`crate::cfg`]), a float-taint and constant-propagation
/// fixpoint runs over it under the callee-effect map distilled from
/// the function summaries ([`dataflow::analyze_with`]), and the
/// resulting events are gated by crate class and — for the
/// tainted-`==` arm of R9 — by call-graph reachability from a public
/// entry point. Every diagnostic carries the engine's def-use trace
/// (decl → flow → sink).
fn dataflow_pass(
    units: &[Unit],
    graph: &CallGraph,
    sums: &[FnSummary],
    reach_pub: &[crate::graph::Reach],
    raw: &mut Vec<Diagnostic>,
) -> Result<(), NonConvergence> {
    let first = unit_first_item(units);
    let mut seen: BTreeSet<(String, u32, Rule)> = BTreeSet::new();
    for (ui, unit) in units.iter().enumerate() {
        let class = &unit.class;
        if class.is_test_file
            || !(class.is_lib_crate() || class.crate_name.as_deref() == Some("cli"))
        {
            continue;
        }
        let r8_in_scope = class.is_lib_crate() && !unit.rel.ends_with(TOL_MODULE);
        let r9_in_scope = class.is_lib_crate();
        for (oi, item) in unit.items.iter().enumerate() {
            let Some(body) = item.body else { continue };
            let ni = first[ui] + oi;
            let node = &graph.nodes[ni];
            if node.is_test {
                continue;
            }
            let code = dataflow::body_code(&unit.tokens, body);
            let params = summary::param_names(unit, item);
            let effects = summary::callee_effects(graph, sums, ni);
            let facts = dataflow::analyze_with(&code, &unit.rel, &params, &effects)
                .map_err(|e| e.in_fn(&node.key))?;
            for event in facts.events {
                let (rule, message) = match &event.kind {
                    EventKind::CrossingWrite { entry, target, op } => (
                        Rule::R7,
                        format!(
                            "`{target}` is written (`{op}`) from inside a `{entry}` \
                             worker closure; worker execution order depends on the \
                             thread count — accumulate into closure-local state and \
                             combine partials through the in-order fold argument"
                        ),
                    ),
                    EventKind::MagicTolerance { literal } => {
                        if !r8_in_scope {
                            continue;
                        }
                        (
                            Rule::R8,
                            format!(
                                "magic tolerance literal `{literal}` in a comparison \
                                 guard; name it as a `rsm_linalg::tol` constant (or a \
                                 local `const`) so the tolerance is auditable"
                            ),
                        )
                    }
                    EventKind::BoundTolerance { name, literal } => {
                        if !r8_in_scope {
                            continue;
                        }
                        (
                            Rule::R8,
                            format!(
                                "`{name}` binds the tolerance-magnitude literal \
                                 `{literal}` and flows into a comparison guard; \
                                 promote it to a named `rsm_linalg::tol` constant \
                                 (or a local `const`)"
                            ),
                        )
                    }
                    EventKind::PartialCmpUnwrap => {
                        if !r9_in_scope {
                            continue;
                        }
                        (
                            Rule::R9,
                            "`partial_cmp(..).unwrap()` panics the moment a NaN \
                             reaches the comparison; use `total_cmp` or make the \
                             NaN policy explicit"
                                .to_string(),
                        )
                    }
                    EventKind::RawFloatSortKey { method } => {
                        if !r9_in_scope {
                            continue;
                        }
                        (
                            Rule::R9,
                            format!(
                                "`{method}` with a raw float `partial_cmp` comparator \
                                 is NaN-blind (NaN compares as None); use `total_cmp` \
                                 for a total order"
                            ),
                        )
                    }
                    EventKind::TaintedFloatEq { ident } => {
                        if !(r9_in_scope && reach_pub[ni].yes()) {
                            continue;
                        }
                        (
                            Rule::R9,
                            format!(
                                "`==` on `{ident}`, which carries div/ln/sqrt float \
                                 taint on a publicly reachable path; NaN makes the \
                                 join silently unequal — compare through \
                                 rsm_linalg::tol instead"
                            ),
                        )
                    }
                    EventKind::TolAcrossCall { callee, literal } => {
                        if !r8_in_scope {
                            continue;
                        }
                        (
                            Rule::R15,
                            format!(
                                "tolerance-magnitude literal `{literal}` is compared \
                                 against inside `{callee}` (callee summary); the \
                                 comparison is invisible at this call site — name it \
                                 as a `rsm_linalg::tol` constant (or a local `const`) \
                                 so the tolerance is auditable"
                            ),
                        )
                    }
                };
                if seen.insert((unit.rel.clone(), event.line, rule)) {
                    raw.push(Diagnostic {
                        file: unit.rel.clone(),
                        line: event.line,
                        rule,
                        message,
                        chain: Vec::new(),
                        trace: event.trace.clone(),
                        fn_key: Some(node.key.clone()),
                        fix: None,
                    });
                }
            }
        }
    }
    Ok(())
}

/// R13: the session-protocol typestate pass ([`crate::protocol`]).
/// Scope mirrors the dataflow rules — lib crates plus `cli`, non-test
/// bodies only; the session API is a lib-crate surface and its
/// protocol must hold anywhere production code drives it.
fn protocol_pass(
    units: &[Unit],
    graph: &CallGraph,
    raw: &mut Vec<Diagnostic>,
) -> Result<(), NonConvergence> {
    let first = unit_first_item(units);
    for (ui, unit) in units.iter().enumerate() {
        let class = &unit.class;
        if class.is_test_file
            || !(class.is_lib_crate() || class.crate_name.as_deref() == Some("cli"))
        {
            continue;
        }
        for (oi, item) in unit.items.iter().enumerate() {
            let Some(body) = item.body else { continue };
            let node = &graph.nodes[first[ui] + oi];
            if node.is_test {
                continue;
            }
            let code = dataflow::body_code(&unit.tokens, body);
            let seeds: Vec<(String, String, u32)> = summary::session_params(unit, item)
                .into_iter()
                .map(|(name, ty)| (name, ty, item.line))
                .collect();
            let events = protocol::analyze_seeded(&code, &unit.rel, &seeds)
                .map_err(|e| e.in_fn(&node.key))?;
            for event in events {
                let message = match &event.kind {
                    ProtocolKind::StreamingConfig { method } => format!(
                        "`MethodSession::new(Method::{method}, ..)` builds a streaming \
                         session on a one-shot solver; `{method}` rejects streaming \
                         at runtime (BadConfig) — use `Method::Lar`/`Omp`/`LassoCd` \
                         or call the one-shot fit API directly"
                    ),
                    ProtocolKind::StepBeforeFeed { name, method } => format!(
                        "`{name}.{method}(..)` steps the session before any \
                         `extend_samples`/`apply_delta` ingestion; the solver state \
                         is empty — feed samples first"
                    ),
                    ProtocolKind::UseAfterConsume { name, method } => format!(
                        "`{name}.{method}(..)` is called after `into_path()` consumed \
                         the session; extract everything you need before consuming"
                    ),
                };
                raw.push(Diagnostic {
                    file: unit.rel.clone(),
                    line: event.line,
                    rule: Rule::R13,
                    message,
                    chain: Vec::new(),
                    trace: event.trace.clone(),
                    fn_key: Some(node.key.clone()),
                    fix: None,
                });
            }
        }
    }
    Ok(())
}

/// R14: discarded `Result` in library crates — the error-swallowing
/// dual of R3. A call is in scope when **every** workspace function
/// its name resolves to (through the call graph) `returns_result`;
/// unresolved names (std, macros) are never flagged. Three shapes
/// fire: `let _ = f(..);` (binder-less let), a `;`-dropped call
/// statement, and `.ok()` without using the value.
fn r14_pass(units: &[Unit], graph: &CallGraph, sums: &[FnSummary], raw: &mut Vec<Diagnostic>) {
    let first = unit_first_item(units);
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for (ui, unit) in units.iter().enumerate() {
        let class = &unit.class;
        if class.is_test_file || !class.is_lib_crate() {
            continue;
        }
        for (oi, item) in unit.items.iter().enumerate() {
            let Some(body) = item.body else { continue };
            let ni = first[ui] + oi;
            let node = &graph.nodes[ni];
            if node.is_test {
                continue;
            }
            // Callee name → every workspace candidate returns Result.
            let mut result_callee: std::collections::BTreeMap<&str, bool> =
                std::collections::BTreeMap::new();
            for call in &node.calls {
                let cn = &graph.nodes[call.callee];
                if cn.module_scope || cn.is_test {
                    continue;
                }
                let all = result_callee.entry(cn.name.as_str()).or_insert(true);
                *all &= sums[call.callee].returns_result;
            }
            let code = dataflow::body_code(&unit.tokens, body);
            let ir = parse_body(&code);
            let tok = |i: usize| code.get(i).map(|&(_, t)| t);
            for stmt in &ir.stmts {
                let (range, let_underscore) = match &stmt.kind {
                    StmtKind::Let {
                        names,
                        init: Some(r),
                    } if names.is_empty() => (r.clone(), true),
                    // A `;`-dropped expression statement (the token
                    // after the range is the `;`; tail expressions are
                    // value uses and stay exempt).
                    StmtKind::Expr { range } if tok(range.end).is_some_and(|t| t.is_punct(";")) => {
                        (range.clone(), false)
                    }
                    _ => continue,
                };
                // Top-level guards: assignments, `?`-propagation and
                // `return`/`break` are value uses, not discards.
                if !let_underscore && !expr_is_plain_call_chain(&code, &range) {
                    continue;
                }
                let calls = top_level_calls(&code, &range);
                let finding = match calls.as_slice() {
                    // `f(..).ok();` — the error is swallowed and the
                    // Some/None husk is dropped.
                    [.., (prev, _), (ok_name, line)]
                        if ok_name == "ok" && result_callee.get(prev.as_str()) == Some(&true) =>
                    {
                        Some((
                            *line,
                            format!(
                                "`.ok()` on `{prev}(..)` swallows the error and drops \
                                 the value; propagate with `?` or handle the `Err` arm"
                            ),
                        ))
                    }
                    [.., (name, line)] if result_callee.get(name.as_str()) == Some(&true) => {
                        let shape = if let_underscore {
                            "`let _ =` discards"
                        } else {
                            "the `;` drops"
                        };
                        Some((
                            *line,
                            format!(
                                "{shape} the `Result` of `{name}(..)`; propagate with \
                                 `?` or handle the `Err` arm"
                            ),
                        ))
                    }
                    _ => None,
                };
                if let Some((line, message)) = finding {
                    if seen.insert((unit.rel.clone(), line)) {
                        raw.push(Diagnostic {
                            file: unit.rel.clone(),
                            line,
                            rule: Rule::R14,
                            message,
                            chain: Vec::new(),
                            trace: Vec::new(),
                            fn_key: Some(node.key.clone()),
                            fix: None,
                        });
                    }
                }
            }
        }
    }
}

/// True when the expression range is a plain call/method chain: no
/// top-level `=` (assignment), `?` (propagation), leading
/// `return`/`break`, or macro `!` — the shapes where dropping the
/// value is *not* a discard.
fn expr_is_plain_call_chain(code: &[(usize, &Token)], range: &std::ops::Range<usize>) -> bool {
    let tok = |i: usize| code.get(i).map(|&(_, t)| t);
    if tok(range.start)
        .and_then(Token::ident)
        .is_some_and(|id| matches!(id, "return" | "break" | "continue"))
    {
        return false;
    }
    let mut i = range.start;
    while i < range.end {
        let Some(t) = tok(i) else { break };
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            i = skip_group(code, i);
            continue;
        }
        if t.is_punct("=") || t.is_punct("?") || t.is_punct("!") {
            return false;
        }
        i += 1;
    }
    true
}

/// Top-level `(name, line)` call sequence of an expression range:
/// free calls and method calls in chain order, arguments skipped.
fn top_level_calls(code: &[(usize, &Token)], range: &std::ops::Range<usize>) -> Vec<(String, u32)> {
    let tok = |i: usize| code.get(i).map(|&(_, t)| t);
    let mut out = Vec::new();
    let mut i = range.start;
    while i < range.end {
        let Some(t) = tok(i) else { break };
        if let Some(id) = t.ident() {
            if tok(i + 1).is_some_and(|n| n.is_punct("(")) {
                out.push((id.to_string(), t.line));
                // Skip the argument group so nested calls stay nested.
                i = skip_group(code, i + 1);
                continue;
            }
        }
        i += 1;
    }
    out
}

/// The purely lexical rules: R1 (unordered maps), R2 (exact float
/// compare), R5 (unsafe — applies even to test code).
fn local_pass(unit: &Unit, raw: &mut Vec<Diagnostic>) {
    let class = &unit.class;
    let in_test = mark_test_spans(&unit.tokens);
    let code: Vec<(usize, &Token)> = unit
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
        .collect();
    let r2_exempt = unit.rel.ends_with(TOL_MODULE);
    let mut emit = |rule: Rule, line: u32, message: String| {
        raw.push(Diagnostic {
            file: unit.rel.clone(),
            line,
            rule,
            message,
            chain: Vec::new(),
            trace: Vec::new(),
            fn_key: fn_key_at(unit, line),
            fix: None,
        });
    };

    for (ci, &(ti, tok)) in code.iter().enumerate() {
        let test_code = class.is_test_file || in_test[ti];
        let ident = tok.ident();
        let at = |off: isize| -> Option<&Token> {
            let j = ci as isize + off;
            code.get(usize::try_from(j).ok()?).map(|&(_, t)| t)
        };

        // R5: unsafe anywhere, including test code.
        if ident == Some("unsafe") {
            emit(
                Rule::R5,
                tok.line,
                "`unsafe` is banned: the workspace is 100% safe Rust".into(),
            );
            continue;
        }
        if test_code {
            continue;
        }

        // R1: unordered map/set types.
        if let Some(name @ ("HashMap" | "HashSet")) = ident {
            emit(
                Rule::R1,
                tok.line,
                format!(
                    "`{name}` iteration order is nondeterministic; use \
                     BTree{} or sort before iterating",
                    &name[4..]
                ),
            );
            continue;
        }

        // R2: exact float comparison against a float literal (exempt
        // in the designated tolerance-helper module).
        if !r2_exempt
            && (tok.is_punct("==") || tok.is_punct("!="))
            && (at(-1).is_some_and(Token::is_float) || at(1).is_some_and(Token::is_float))
        {
            let op = match &tok.kind {
                TokenKind::Punct(p) => p.clone(),
                _ => String::new(),
            };
            emit(
                Rule::R2,
                tok.line,
                format!(
                    "exact float `{op}` against a literal; use rsm_linalg::tol \
                     (exactly_zero/near_zero/approx_eq) to make the tolerance explicit"
                ),
            );
        }
    }
}

/// Computes, for every token index, whether it sits inside a
/// `#[cfg(test)]`/`#[test]`-gated item (attribute included).
///
/// The scan finds a test attribute, then extends the span over any
/// further attributes and the following item: up to the matching `}`
/// of the item's first brace block, or the first top-level `;` for
/// brace-less items (`use`, type aliases).
pub(crate) fn mark_test_spans(tokens: &[Token]) -> Vec<bool> {
    let mut flags = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))) {
            i += 1;
            continue;
        }
        let (attr_end, is_test) = scan_attribute(tokens, i + 1);
        if !is_test {
            i = attr_end;
            continue;
        }
        // Extend over any immediately following attributes.
        let mut j = attr_end;
        while j < tokens.len()
            && tokens[j].is_punct("#")
            && tokens.get(j + 1).is_some_and(|t| t.is_punct("["))
        {
            j = scan_attribute(tokens, j + 1).0;
        }
        // Consume the item.
        let mut depth = 0usize;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    j += 1;
                    break;
                }
            } else if t.is_punct(";") && depth == 0 {
                j += 1;
                break;
            }
            j += 1;
        }
        for f in flags.iter_mut().take(j).skip(i) {
            *f = true;
        }
        i = j;
    }
    flags
}

/// Scans the attribute starting at the `[` token index; returns the
/// index one past the matching `]` and whether the attribute gates
/// test-only code (`#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ..))]`
/// — but not `#[cfg(not(test))]` and not `#[cfg_attr(test, ..)]`).
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    let mut j = open;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                j += 1;
                break;
            }
        } else if let Some(id) = t.ident() {
            idents.push(id);
        }
        j += 1;
    }
    let is_test = idents == ["test"]
        || (idents.contains(&"cfg")
            && idents.contains(&"test")
            && !idents.contains(&"not")
            && !idents.contains(&"cfg_attr"));
    (j, is_test)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_lib(src: &str) -> Vec<Diagnostic> {
        lint_source("test.rs", src, &FileClass::lib_context())
            .expect("converges")
            .0
    }

    fn rules_of(ds: &[Diagnostic]) -> Vec<Rule> {
        ds.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn r1_fires_on_hashmap_not_btreemap() {
        let ds = lint_lib("use std::collections::HashMap;\nfn f(m: HashMap<u8, u8>) {}\n");
        assert_eq!(rules_of(&ds), vec![Rule::R1, Rule::R1]);
        assert!(lint_lib("use std::collections::BTreeMap;\n").is_empty());
    }

    #[test]
    fn r2_fires_on_float_literal_comparison_only() {
        let ds = lint_lib("fn f(x: f64) -> bool { x == 0.0 }\n");
        assert_eq!(rules_of(&ds), vec![Rule::R2]);
        let ds = lint_lib("fn f(x: f64) -> bool { 1e-9 != x }\n");
        assert_eq!(rules_of(&ds), vec![Rule::R2]);
        // Integer comparisons and float inequalities are fine.
        assert!(lint_lib("fn f(n: usize) -> bool { n == 0 }\n").is_empty());
        assert!(lint_lib("fn f(x: f64) -> bool { x < 1.0 }\n").is_empty());
    }

    #[test]
    fn r2_exempts_the_tolerance_module() {
        let src = "pub fn exactly_zero(x: f64) -> bool { x == 0.0 }\n";
        let class = FileClass::from_path(TOL_MODULE);
        let (ds, _) = lint_source(TOL_MODULE, src, &class).expect("converges");
        assert!(ds.is_empty(), "{ds:?}");
        // Every other linalg file is still checked.
        let other = "crates/linalg/src/dense.rs";
        let (ds, _) = lint_source(other, src, &FileClass::from_path(other)).expect("converges");
        assert_eq!(rules_of(&ds), vec![Rule::R2]);
    }

    #[test]
    fn r3_fires_on_reachable_sites_with_chain() {
        // Site directly in a pub fn: one-frame chain.
        let ds = lint_lib("pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
        assert_eq!(rules_of(&ds), vec![Rule::R3]);
        assert_eq!(ds[0].chain.len(), 1, "{:?}", ds[0].chain);
        // Site two frames below a pub fn: full chain printed.
        let src = "pub fn entry() { mid(); }\nfn mid() { deep(); }\n\
                   fn deep() { let x: Option<u8> = None; x.expect(\"boom\"); }\n";
        let ds = lint_lib(src);
        assert_eq!(rules_of(&ds), vec![Rule::R3]);
        assert_eq!(ds[0].chain.len(), 3, "{:?}", ds[0].chain);
        assert!(ds[0].chain[0].contains("entry"), "{:?}", ds[0].chain);
        assert!(ds[0].chain[2].contains("deep"), "{:?}", ds[0].chain);
        // panic! is a panic site too.
        let ds = lint_lib("pub fn f() { panic!(\"no\"); }\n");
        assert_eq!(rules_of(&ds), vec![Rule::R3]);
    }

    #[test]
    fn r3_spares_unreachable_and_unwrap_or() {
        // A private fn no public path reaches is not a hazard.
        assert!(lint_lib("fn orphan(x: Option<u8>) -> u8 { x.unwrap() }\n").is_empty());
        assert!(lint_lib("pub fn f(x: Option<u8>) -> u8 { x.unwrap_or(3) }\n").is_empty());
        // Non-library crates may unwrap.
        let class = FileClass::from_path("crates/cli/src/lib.rs");
        let (ds, _) = lint_source(
            "t.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }",
            &class,
        )
        .expect("converges");
        assert!(ds.is_empty());
    }

    #[test]
    fn r3_treats_trait_impl_methods_as_entries() {
        let src = "impl Circuit for OpAmp {\n  fn evaluate(&self, x: &[f64]) -> f64 {\n    \
                   self.inner.get(0).unwrap()\n  }\n}\n";
        let ds = lint_lib(src);
        assert_eq!(rules_of(&ds), vec![Rule::R3]);
    }

    #[test]
    fn r4_fires_on_reachable_nondeterminism_sources() {
        // Module-scope `use` keeps firing (file-level pseudo-node).
        let ds = lint_lib("use std::time::SystemTime;\n");
        assert_eq!(rules_of(&ds), vec![Rule::R4]);
        let ds = lint_lib("pub fn f() { let v = std::env::var(\"X\"); }\n");
        assert_eq!(rules_of(&ds), vec![Rule::R4]);
        assert!(!ds[0].chain.is_empty());
        let ds = lint_lib("pub fn f() { let t = std::thread::current(); }\n");
        assert_eq!(rules_of(&ds), vec![Rule::R4]);
        // Unreachable private readers are not flagged...
        assert!(lint_lib("fn orphan() { let v = std::env::var(\"X\"); }\n").is_empty());
        // ...but become so once a pub fn calls them, chain included.
        let src = "pub fn f() { orphan(); }\nfn orphan() { let v = std::env::var(\"X\"); }\n";
        let ds = lint_lib(src);
        assert_eq!(rules_of(&ds), vec![Rule::R4]);
        assert_eq!(ds[0].chain.len(), 2);
        // thread::spawn is fine; bench crates are exempt.
        assert!(lint_lib("pub fn f() { std::thread::spawn(|| {}); }\n").is_empty());
        let class = FileClass::from_path("crates/bench/src/lib.rs");
        let (ds, _) =
            lint_source("t.rs", "pub fn f() { std::env::var(\"X\"); }", &class).expect("converges");
        assert!(ds.is_empty());
    }

    #[test]
    fn r4_sanctions_the_runtime_shim_structurally() {
        let shim = "pub fn threads() -> usize {\n  \
                    match std::env::var(\"RSM_THREADS\") { Ok(_) => 2, Err(_) => 1 }\n}\n";
        // In explicit/fixture mode the crate check is relaxed: the
        // RSM_THREADS literal alone marks the shim.
        assert!(lint_lib(shim).is_empty(), "shim env read is sanctioned");
        // Without the sentinel literal the same read is flagged.
        let other = shim.replace("RSM_THREADS", "OTHER_KNOB");
        assert_eq!(rules_of(&lint_lib(&other)), vec![Rule::R4]);
        // In workspace mode only crates/runtime may host the shim.
        let class = FileClass::from_path("crates/core/src/lib.rs");
        let (ds, _) = lint_source("crates/core/src/lib.rs", shim, &class).expect("converges");
        assert_eq!(rules_of(&ds), vec![Rule::R4]);
        let class = FileClass::from_path("crates/runtime/src/lib.rs");
        let (ds, _) = lint_source("crates/runtime/src/lib.rs", shim, &class).expect("converges");
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn r5_fires_even_in_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f() { unsafe { } }\n}\n";
        let ds = lint_lib(src);
        assert_eq!(rules_of(&ds), vec![Rule::R5]);
    }

    #[test]
    fn r6_fires_on_paths_from_fronts_only() {
        // A call inside a front fires with a one-frame chain.
        let ds = lint_lib("pub fn cross_validate(d: &D, s: &M) { let g = d.design_matrix(s); }\n");
        assert_eq!(rules_of(&ds), vec![Rule::R6]);
        assert_eq!(ds[0].chain.len(), 1);
        // Transitive: front -> helper -> design_matrix.
        let src = "impl LarConfig {\n  pub fn fit(&self, d: &D) { prep(d); }\n}\n\
                   fn prep(d: &D) { let g = d.design_matrix(); }\n";
        let ds = lint_lib(src);
        assert_eq!(rules_of(&ds), vec![Rule::R6]);
        assert_eq!(ds[0].chain.len(), 2, "{:?}", ds[0].chain);
        // A dense call *not* reachable from any front is fine now.
        assert!(lint_lib("pub fn table(d: &D) { let g = d.design_matrix(); }\n").is_empty());
        // The definition in rsm-basis is not a materialization site.
        assert!(lint_lib(
            "pub fn cross_validate() {}\n\
             pub fn design_matrix(s: &M) -> M { todo!() }\n"
        )
        .iter()
        .all(|d| d.rule != Rule::R6));
        // The cli crate is in scope even though it is not a lib crate.
        let class = FileClass::from_path("crates/cli/src/lib.rs");
        let (ds, _) = lint_source(
            "t.rs",
            "pub fn fit(dict: &D, inputs: &M) { dict.design_matrix(inputs); }",
            &class,
        )
        .expect("converges");
        assert_eq!(rules_of(&ds), vec![Rule::R6]);
        // Bench tables may go dense freely.
        let class = FileClass::from_path("crates/bench/src/lib.rs");
        let (ds, _) = lint_source(
            "t.rs",
            "pub fn fit(dict: &D, inputs: &M) { dict.design_matrix(inputs); }",
            &class,
        )
        .expect("converges");
        assert!(ds.is_empty());
        // A reasoned allow silences it.
        let src = "pub fn cross_validate(dict: &D, inputs: &M) {\n    \
                   // rsm-lint: allow(R6) — tiny M, dense is fine here\n    \
                   dict.design_matrix(inputs);\n}\n";
        let (ds, used) = lint_source("t.rs", src, &FileClass::lib_context()).expect("converges");
        assert!(ds.is_empty(), "{ds:?}");
        assert_eq!(used, 1);
    }

    #[test]
    fn cfg_test_exempts_r1_to_r4() {
        let src = "#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n  \
                   fn f(x: Option<u8>) { x.unwrap(); }\n}\n";
        assert!(lint_lib(src).is_empty());
        // #[test] functions too.
        let src = "#[test]\nfn t() { let x: Option<u8> = None; x.unwrap(); }\n";
        assert!(lint_lib(src).is_empty());
        // ... but code after the gated item is checked again.
        let src = "#[test]\nfn t() { }\npub fn prod(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(rules_of(&lint_lib(src)), vec![Rule::R3]);
    }

    #[test]
    fn cfg_not_test_is_production_code() {
        let src = "#[cfg(not(test))]\npub fn prod(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(rules_of(&lint_lib(src)), vec![Rule::R3]);
    }

    #[test]
    fn suppression_silences_and_is_audited() {
        let src = "pub fn f(x: Option<u8>) -> u8 {\n    \
                   // rsm-lint: allow(R3) — demo justification\n    x.unwrap()\n}\n";
        let (ds, used) = lint_source("t.rs", src, &FileClass::lib_context()).expect("converges");
        assert!(ds.is_empty(), "{ds:?}");
        assert_eq!(used, 1);
        // Same-line suppression.
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // rsm-lint: allow(R3) — demo\n";
        let (ds, _) = lint_source("t.rs", src, &FileClass::lib_context()).expect("converges");
        assert!(ds.is_empty(), "{ds:?}");
        // Unreasoned suppression: S0 and the original R3 both fire.
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // rsm-lint: allow(R3)\n";
        let (ds, _) = lint_source("t.rs", src, &FileClass::lib_context()).expect("converges");
        let mut rs = rules_of(&ds);
        rs.sort();
        assert_eq!(rs, vec![Rule::R3, Rule::S0]);
        // Stale suppression: S1. The flow-aware rules make this the
        // enforcement arm of the suppression re-audit — an allow on a
        // now-unreachable site *must* be deleted.
        let src = "// rsm-lint: allow(R3) — was needed under v1\n\
                   fn orphan(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let (ds, _) = lint_source("t.rs", src, &FileClass::lib_context()).expect("converges");
        assert_eq!(rules_of(&ds), vec![Rule::S1]);
    }

    #[test]
    fn test_file_class_exempts_r1_to_r4_but_not_r5() {
        let class = FileClass::from_path("crates/core/tests/properties.rs");
        assert!(class.is_test_file);
        let (ds, _) = lint_source(
            "t.rs",
            "use std::collections::HashMap;\nfn f() { unsafe {} }\n",
            &class,
        )
        .expect("converges");
        assert_eq!(rules_of(&ds), vec![Rule::R5]);
    }

    #[test]
    fn multi_unit_reachability_crosses_files() {
        let mk = |rel: &str, src: &str| Unit::new(rel.into(), src, FileClass::from_path(rel));
        let units = vec![
            mk(
                "crates/core/src/solver.rs",
                "pub fn fit() { rsm_linalg::norms::l2(); }\n",
            ),
            mk(
                "crates/linalg/src/norms.rs",
                "pub(crate) fn l2() { let x: Option<u8> = None; x.unwrap(); }\n",
            ),
        ];
        let report = lint_units(&units, |_| true).expect("converges");
        assert_eq!(rules_of(&report.diagnostics), vec![Rule::R3]);
        assert_eq!(report.diagnostics[0].file, "crates/linalg/src/norms.rs");
        assert_eq!(report.diagnostics[0].chain.len(), 2);
        // Emission filter: same analysis, but only solver.rs may emit.
        let report = lint_units(&units, |rel| rel.ends_with("solver.rs")).expect("converges");
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.files_scanned, 2, "the whole set is still parsed");
    }

    #[test]
    fn r13_fires_on_protocol_misuse_with_trace() {
        // Step before any ingestion.
        let src = "pub fn drive(cfg: LarConfig, m: usize) -> Result<(), E> {\n  \
                   let mut s = LarSession::new(cfg, m)?;\n  s.step()?;\n  Ok(())\n}\n";
        let ds = lint_lib(src);
        assert_eq!(rules_of(&ds), vec![Rule::R13]);
        assert!(ds[0].message.contains("before any"), "{}", ds[0].message);
        assert!(ds[0].trace.len() >= 2, "{:?}", ds[0].trace);
        // Use after into_path().
        let src = "pub fn done(mut s: OmpSession) -> usize {\n  let p = s.into_path();\n  \
                   s.rows_seen()\n}\n";
        let ds = lint_lib(src);
        assert_eq!(rules_of(&ds), vec![Rule::R13]);
        assert!(ds[0].message.contains("into_path"), "{}", ds[0].message);
        // Streaming session on a one-shot method.
        let src = "pub fn bad(m: usize) -> Result<(), E> {\n  \
                   let s = MethodSession::new(Method::Ls, 0, m)?;\n  Ok(())\n}\n";
        let ds = lint_lib(src);
        assert_eq!(rules_of(&ds), vec![Rule::R13]);
        assert!(ds[0].message.contains("Method::Ls"), "{}", ds[0].message);
    }

    #[test]
    fn r13_stays_silent_on_correct_protocol() {
        let src = "pub fn drive(cfg: LarConfig, x: &[f64], m: usize) -> Result<(), E> {\n  \
                   let mut s = LarSession::new(cfg, m)?;\n  s.extend_samples(x, m)?;\n  \
                   s.step()?;\n  let p = s.into_path();\n  use_path(p);\n  Ok(())\n}\n";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn r14_fires_on_discarded_results_only() {
        let src = "pub fn step() -> Result<u8, E> { Ok(1) }\n\
                   pub fn run() {\n  let _ = step();\n}\n";
        let ds = lint_lib(src);
        assert_eq!(rules_of(&ds), vec![Rule::R14]);
        assert!(ds[0].message.contains("let _ ="), "{}", ds[0].message);
        // `;`-dropped call statement.
        let src = "pub fn step() -> Result<u8, E> { Ok(1) }\npub fn run() {\n  step();\n}\n";
        let ds = lint_lib(src);
        assert_eq!(rules_of(&ds), vec![Rule::R14]);
        assert!(ds[0].message.contains("drops"), "{}", ds[0].message);
        // `.ok()` husk-drop.
        let src = "pub fn step() -> Result<u8, E> { Ok(1) }\npub fn run() {\n  step().ok();\n}\n";
        let ds = lint_lib(src);
        assert_eq!(rules_of(&ds), vec![Rule::R14]);
        assert!(ds[0].message.contains(".ok()"), "{}", ds[0].message);
    }

    #[test]
    fn r14_spares_used_propagated_and_non_result_values() {
        // `?`, binding, tail position, and non-Result callees are uses.
        let clean = "pub fn step() -> Result<u8, E> { Ok(1) }\n\
                     pub fn a() -> Result<u8, E> { let v = step()?; Ok(v) }\n\
                     pub fn b() -> Result<u8, E> { step() }\n\
                     pub fn c() { match step() { Ok(_) => {}, Err(_) => {} } }\n\
                     pub fn plain() -> u8 { 3 }\n\
                     pub fn d() { plain(); }\n";
        assert!(lint_lib(clean).is_empty(), "{:?}", lint_lib(clean));
    }

    #[test]
    fn r15_fires_on_tolerance_through_callee_argument() {
        let src = "fn converged(r: f64, eps: f64) -> bool { r < eps }\n\
                   pub fn fit(r: f64) -> bool { converged(r, 1e-9) }\n";
        let ds = lint_lib(src);
        assert_eq!(rules_of(&ds), vec![Rule::R15]);
        assert!(ds[0].message.contains("1e-9"), "{}", ds[0].message);
        assert!(ds[0].message.contains("converged"), "{}", ds[0].message);
        assert!(ds[0].trace.len() >= 2, "{:?}", ds[0].trace);
        // Non-tolerance magnitudes and named constants are clean.
        let clean = "fn converged(r: f64, eps: f64) -> bool { r < eps }\n\
                     pub fn fit(r: f64) -> bool { converged(r, 0.5) }\n\
                     pub fn named(r: f64) -> bool { converged(r, rsm_linalg::tol::EPS) }\n";
        assert!(lint_lib(clean).is_empty(), "{:?}", lint_lib(clean));
    }
}
