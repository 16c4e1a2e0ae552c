//! Diagnostic and rule metadata types plus human/JSON rendering.

use std::fmt;

/// Every rule rsm-lint can report. `R*` rules check the source tree;
/// `S*` rules audit the suppression directives themselves (and can
/// therefore never be suppressed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Unordered-map types (`HashMap`/`HashSet`) in non-test code.
    R1,
    /// Exact floating-point `==`/`!=` against a float literal.
    R2,
    /// `unwrap()`/`expect()` in a library crate outside test code.
    R3,
    /// Nondeterminism source (`SystemTime::now`, `thread::current`,
    /// environment reads) in non-bench, non-test code.
    R4,
    /// Any `unsafe` occurrence (the workspace is 100% safe Rust).
    R5,
    /// `design_matrix(` call in a library crate: materializes the full
    /// `K×M` design matrix, defeating the `AtomSource` streaming path.
    R6,
    /// Non-associative parallel reduction: a write inside an
    /// `rsm_runtime` worker closure whose target is rooted outside the
    /// closure (dataflow rule; carries a def-use trace).
    R7,
    /// Tolerance hygiene: an inline (or `let`-propagated) float
    /// literal of tolerance magnitude flowing into a comparison or
    /// `max`/`min` guard instead of a named `rsm_linalg::tol` constant
    /// (dataflow rule; carries a def-use trace).
    R8,
    /// NaN-blind comparison: `partial_cmp().unwrap()`, a sort keyed on
    /// a raw float compare, or an exact `==` on a division/`ln`/`sqrt`
    /// tainted value (dataflow rule; carries a def-use trace).
    R9,
    /// Vectorization blocker: an indexed `for i in 0..n` loop whose
    /// body subscripts float slices affinely in `i`, in a lib-crate
    /// function reachable from a kernel entry point; rewritable to
    /// iterator/`zip` form (perf rule; may carry a machine fix).
    R10,
    /// Allocation inside a loop body in a kernel-reachable lib-crate
    /// function: `Vec::new`/`with_capacity`/`collect`/`to_vec`/
    /// `clone` executed per iteration (perf rule).
    R11,
    /// Loop-invariant expensive call: a call whose arguments are all
    /// loop-invariant per the dataflow lattice, sited inside a loop in
    /// a kernel-reachable lib-crate function (perf rule).
    R12,
    /// Session-protocol typestate violation: a `*Session` local
    /// stepped before any sample ingestion, used after `into_path()`
    /// consumed it, or a streaming session built on a one-shot
    /// (`Ls`/`Star`) config (typestate rule; carries a def-use trace).
    R13,
    /// Discarded `Result` in a library crate: `let _ = f()`, a
    /// `;`-dropped call, or `.ok()` without use on a workspace function
    /// returning `Result` — the error-swallowing dual of R3.
    R14,
    /// Cross-function magic tolerance: a tolerance-magnitude literal
    /// reaching a float comparison only *through a callee argument*
    /// (the callee's summary marks the parameter position as compared;
    /// summary rule; carries a def-use trace).
    R15,
    /// `.zip()` lockstep iteration in the kernel cone whose operand
    /// lengths are not provably equal under the symbolic shape
    /// dataflow: Rust's zip silently truncates to the shorter side, so
    /// an unproven pairing yields plausible wrong numerics, not a
    /// panic (shape rule; carries a decl→flow→sink trace).
    R16,
    /// Indexing or range-slicing with a bound *provably* out of range
    /// given tracked length facts, in lib crates — a guaranteed
    /// runtime panic the shape dataflow can see at lint time.
    R17,
    /// Call site whose argument lengths provably violate the callee's
    /// inferred shape contract (required length equalities among its
    /// slice/Vec parameters, from `assert_eq!` guards and forwarding).
    R18,
    /// Malformed suppression: missing reason or unknown rule id.
    S0,
    /// Suppression that matched no diagnostic (stale allow).
    S1,
}

/// All source-checking rules, in report order.
pub const SOURCE_RULES: [Rule; 18] = [
    Rule::R1,
    Rule::R2,
    Rule::R3,
    Rule::R4,
    Rule::R5,
    Rule::R6,
    Rule::R7,
    Rule::R8,
    Rule::R9,
    Rule::R10,
    Rule::R11,
    Rule::R12,
    Rule::R13,
    Rule::R14,
    Rule::R15,
    Rule::R16,
    Rule::R17,
    Rule::R18,
];

impl Rule {
    /// Stable rule identifier as used in `allow(...)` directives.
    pub fn id(self) -> &'static str {
        match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
            Rule::R7 => "R7",
            Rule::R8 => "R8",
            Rule::R9 => "R9",
            Rule::R10 => "R10",
            Rule::R11 => "R11",
            Rule::R12 => "R12",
            Rule::R13 => "R13",
            Rule::R14 => "R14",
            Rule::R15 => "R15",
            Rule::R16 => "R16",
            Rule::R17 => "R17",
            Rule::R18 => "R18",
            Rule::S0 => "S0",
            Rule::S1 => "S1",
        }
    }

    /// Parses a rule id (`"R3"`) back to a [`Rule`]. Only source rules
    /// are addressable from `allow(...)`.
    pub fn parse(s: &str) -> Option<Rule> {
        SOURCE_RULES.iter().copied().find(|r| r.id() == s)
    }

    /// Severity this rule reports at.
    pub fn severity(self) -> Severity {
        match self {
            // R13 is an error: every protocol misuse it reports is a
            // guaranteed runtime BadConfig or garbage-state step. R16
            // is an error for the same reason R13 is: silent zip
            // truncation in the kernel cone corrupts the numerics
            // without any runtime signal.
            Rule::R1 | Rule::R4 | Rule::R5 | Rule::R7 | Rule::R13 | Rule::R16 | Rule::S0 => {
                Severity::Error
            }
            Rule::R2
            | Rule::R3
            | Rule::R6
            | Rule::R8
            | Rule::R9
            | Rule::R10
            | Rule::R11
            | Rule::R12
            | Rule::R14
            | Rule::R15
            | Rule::R17
            | Rule::R18
            | Rule::S1 => Severity::Warning,
        }
    }

    /// One-line description shown by `rsm-lint rules`.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::R1 => {
                "unordered HashMap/HashSet in non-test code: iteration order is \
                 randomized per process and leaks into results; use BTreeMap/BTreeSet \
                 or sort before iterating"
            }
            Rule::R2 => {
                "exact float ==/!= against a float literal: LAR/OMP tie-breaking and \
                 near-zero tests are tolerance-sensitive; use the rsm_linalg::tol \
                 helpers (exactly_zero/near_zero/approx_eq) to make intent explicit"
            }
            Rule::R3 => {
                "panic-reachability: an unwrap()/expect()/panic! site in a library \
                 crate that is reachable from a pub non-test fn (the call chain is \
                 printed); recoverable dimension/conditioning errors must surface as \
                 Result, not panics"
            }
            Rule::R4 => {
                "nondeterminism taint: a SystemTime/thread::current/env read reachable \
                 from a pub non-test fn; only the RSM_THREADS shim in crates/runtime \
                 may read ambient state (the call chain is printed)"
            }
            Rule::R5 => "unsafe code: the workspace is 100% safe Rust and stays that way",
            Rule::R6 => {
                "transitive materialization: a design_matrix() call reachable from a \
                 matrix-free entry front (LarConfig/LassoCdConfig/cross_validate/fit); \
                 the full K×M matrix is 8 GB at K=10^3, M=10^6 — solve through \
                 AtomSource (DictionarySource / CachedSource) instead"
            }
            Rule::R7 => {
                "non-associative parallel reduction: a write inside an rsm_runtime \
                 worker closure (par_chunks_reduce map / par_map_indexed fn) whose \
                 target is rooted outside the closure; partial order depends on \
                 thread count — combine through the in-order fold argument (the \
                 def-use trace is printed)"
            }
            Rule::R8 => {
                "tolerance hygiene: a float literal of tolerance magnitude (0 < |v| \
                 < 1e-3) flowing into a comparison or max/min guard in a library \
                 crate, inline or through a let binding; name it in rsm_linalg::tol \
                 or a local documented const (the def-use trace is printed)"
            }
            Rule::R9 => {
                "NaN-blind comparison: partial_cmp().unwrap()/expect(), an \
                 order-sensitive combinator keyed on a raw float compare, or an \
                 exact == on a division/ln/sqrt-tainted value; use total_cmp or a \
                 tol helper (the def-use trace is printed)"
            }
            Rule::R10 => {
                "vectorization blocker: an indexed `for i in 0..n` loop subscripting \
                 float slices affinely in the loop variable, in a kernel-reachable \
                 lib-crate function; the bounds checks defeat autovectorization — \
                 rewrite to iter/zip/chunks_exact form (a machine fix is attached \
                 when the loop variable is used only as a direct subscript)"
            }
            Rule::R11 => {
                "allocation in loop: Vec::new/with_capacity/collect/to_vec/clone \
                 executed inside a loop body on a kernel-reachable hot path; hoist \
                 the buffer out of the loop and reuse it per iteration"
            }
            Rule::R12 => {
                "loop-invariant expensive call: a call whose arguments are all \
                 loop-invariant per the dataflow lattice, sited inside a loop on a \
                 kernel-reachable hot path; hoist the call above the loop (no \
                 machine fix — hoisting can move borrows; rewrite by hand)"
            }
            Rule::R13 => {
                "session-protocol typestate: a *Session local stepped \
                 (step/run/run_to/deselect) before any extend_samples/apply_delta \
                 ingestion, used after into_path() consumed it, or a MethodSession \
                 built on a one-shot Method::Ls/Method::Star config that rejects \
                 streaming at runtime (the def-use trace is printed)"
            }
            Rule::R14 => {
                "discarded Result: `let _ = f()`, a `;`-dropped call, or `.ok()` \
                 without use on a workspace function returning Result, in a library \
                 crate; swallowing the error hides conditioning/shape failures — \
                 propagate with `?` or handle the Err arm"
            }
            Rule::R15 => {
                "cross-function magic tolerance: a tolerance-magnitude literal \
                 (0 < |v| < 1e-3) passed as an argument the callee's summary says \
                 flows into a float comparison; same hygiene as R8 but across the \
                 call boundary — name it in rsm_linalg::tol or a documented const \
                 (the def-use trace is printed)"
            }
            Rule::R16 => {
                "unproven zip lockstep: a `.zip()` in the kernel cone whose operand \
                 lengths the shape dataflow cannot prove equal; zip silently \
                 truncates to the shorter side, which yields plausible wrong \
                 coefficients instead of a panic — add an `assert_eq!`/\
                 `debug_assert_eq!` on the lengths (or an early-return guard) \
                 upstream of the loop (the decl→flow trace is printed)"
            }
            Rule::R17 => {
                "provable out-of-bounds: an index or slice bound the shape \
                 dataflow proves >= the tracked length (e.g. `let n = v.len(); \
                 v[n]`), in a library crate — a guaranteed panic; fix the index \
                 arithmetic"
            }
            Rule::R18 => {
                "shape-contract violation at a call site: argument lengths \
                 provably violate a required length equality the callee's \
                 summary records (inferred from its own assert guards and \
                 forwarded contracts); fix the arguments or the contract"
            }
            Rule::S0 => "suppression directive without a written reason (or unknown rule id)",
            Rule::S1 => "suppression directive that matched no diagnostic (stale allow)",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Diagnostic severity. Both levels fail the `check` command; the
/// distinction is informational (errors break determinism guarantees
/// directly, warnings are robustness hazards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Robustness hazard.
    Warning,
    /// Direct determinism violation.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// A machine-applicable edit attached to a diagnostic: replace the
/// byte range `span` of the diagnostic's file with `replacement`.
/// Spans come straight from lexer token spans, so they are guaranteed
/// to sit on UTF-8 char boundaries; the fix engine re-checks anyway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fix {
    /// Half-open byte range `[start, end)` in the file's source text.
    pub span: (usize, usize),
    /// Replacement text spliced over the span.
    pub replacement: String,
}

/// One reported finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative file path (always with `/` separators).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable detail for this occurrence.
    pub message: String,
    /// For the interprocedural rules (R3/R4/R6): the shortest call
    /// chain from a reachability root to the function holding the
    /// violation site, one `key (file:line)` frame per element, root
    /// first. Empty for local rules.
    pub chain: Vec<String>,
    /// For the dataflow rules (R7/R8/R9): the def-use trace — decl
    /// site first, flow steps, sink last (always ≥ 2 frames when
    /// present). Empty for other rules.
    pub trace: Vec<String>,
    /// Fully qualified key of the enclosing function (graph node
    /// format, e.g. `core::lar::LarConfig::fit`) when the finding sits
    /// inside one — the stable, line-number-free identity the baseline
    /// ratchet keys on.
    pub fn_key: Option<String>,
    /// Machine-applicable fix, when the rule can prove the rewrite is
    /// behavior-preserving (currently only R10 direct-subscript loops).
    pub fix: Option<Fix>,
}

impl Diagnostic {
    /// `file:line: severity[rule] message` (clickable span first),
    /// followed by one indented `via:` line per call-chain frame and
    /// one `flow:` line per def-use trace frame.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}:{}: {}[{}] {}",
            self.file,
            self.line,
            self.rule.severity(),
            self.rule,
            self.message
        );
        for (i, frame) in self.chain.iter().enumerate() {
            out.push_str(&format!(
                "\n    {} {frame}",
                if i == 0 { "via:" } else { "  ->" }
            ));
        }
        for (i, frame) in self.trace.iter().enumerate() {
            out.push_str(&format!(
                "\n    {} {frame}",
                if i == 0 { "flow:" } else { "   ->" }
            ));
        }
        out
    }

    /// The baseline-ratchet identity of this finding: rule id plus the
    /// fn-qualified location (falling back to the file path for
    /// findings outside any function) — deliberately **without** line
    /// numbers, so unrelated edits shifting code do not churn the
    /// baseline.
    pub fn baseline_key(&self) -> String {
        match &self.fn_key {
            Some(k) => format!("{} {k}", self.rule),
            None => format!("{} {}", self.rule, self.file),
        }
    }
}

/// Escapes a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Full result of a lint run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Findings, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of suppression directives that matched a diagnostic.
    pub suppressions_used: usize,
    /// Base git ref when the run was restricted with `--diff` (the
    /// whole workspace is still parsed; only emission is filtered).
    pub diff_base: Option<String>,
}

impl Report {
    /// True when the tree is clean under the shipped rule set.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Canonical sort so output is byte-identical run to run.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Machine-readable JSON document (schema version 6: v2 added the
    /// per-diagnostic `chain` array and the optional `diff_base`; v3
    /// added the def-use `trace` array and the fn-qualified `fn` key
    /// for the dataflow rules R7–R9; v4 added the optional `fix` object
    /// (`{span: [start, end], replacement}`) for the perf rules; v5
    /// added the interprocedural rule family R13–R15; v6 adds the
    /// shape rule family R16–R18 to the `rule` value space — the
    /// document shape is unchanged, but consumers keying on rule ids
    /// must accept the new family).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 6,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!(
            "  \"suppressions_used\": {},\n",
            self.suppressions_used
        ));
        if let Some(base) = &self.diff_base {
            out.push_str(&format!("  \"diff_base\": \"{}\",\n", json_escape(base)));
        }
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let frames = |fs: &[String]| {
                fs.iter()
                    .map(|f| format!("\"{}\"", json_escape(f)))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let chain = frames(&d.chain);
            let trace = frames(&d.trace);
            let fn_key = match &d.fn_key {
                Some(k) => format!("\"{}\"", json_escape(k)),
                None => "null".to_string(),
            };
            let fix = match &d.fix {
                Some(f) => format!(
                    "{{\"span\": [{}, {}], \"replacement\": \"{}\"}}",
                    f.span.0,
                    f.span.1,
                    json_escape(&f.replacement)
                ),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \
                 \"severity\": \"{}\", \"message\": \"{}\", \"fn\": {fn_key}, \
                 \"chain\": [{chain}], \"trace\": [{trace}], \"fix\": {fix}}}",
                json_escape(&d.file),
                d.line,
                d.rule,
                d.rule.severity(),
                json_escape(&d.message)
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Human-readable listing plus a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "rsm-lint: {} file(s) scanned, {} diagnostic(s), {} suppression(s) honored\n",
            self.files_scanned,
            self.diagnostics.len(),
            self.suppressions_used
        ));
        out
    }
}
