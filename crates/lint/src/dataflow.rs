//! Forward **dataflow analysis** over the intraprocedural IR
//! ([`crate::cfg`]) — the engine behind the numerical-safety rules
//! R7/R8/R9.
//!
//! Per function body, a small forward lattice is run to a fixpoint
//! over the CFG:
//!
//! - **Float taint** — a variable is tainted `Div`/`Ln`/`Sqrt` when its
//!   defining expression divides or calls `ln`/`log*`/`sqrt`. Taints
//!   only grow (powerset lattice of three bits), and the `==`-join rule
//!   R9 keys on them: NaN/Inf can only enter solver code through these
//!   operations.
//! - **Constant propagation** — `Unset < Lit(text) < Many`: a binding
//!   whose initializer is a single float literal carries that literal,
//!   so rule R8 sees `let eps = 1e-14; ... x < eps` through the
//!   binding, with the binding step recorded in the trace.
//!
//! Joins union taints and meet `Lit`s to `Many` on disagreement; each
//! fact carries a **witness trace** (decl site → flow steps) that the
//! sink scan extends into the full def-use trace every R7–R9 finding
//! must ship (decl → flow → sink).
//!
//! Rule R7 is a structural **closure-capture** pass on top of the same
//! token slice: writes inside a *worker* closure of an `rsm_runtime`
//! parallel entry (`par_chunks_reduce`'s map argument,
//! `par_map_indexed`'s function) whose target is rooted outside the
//! closure are flagged — partial accumulation order is thread-count
//! dependent there, while the in-order `fold` argument (the sanctioned
//! combine point) is exempt.
//!
//! Deliberate imprecision (documented in DESIGN.md § Dataflow IR, all
//! biased to over-approximate toward *reporting*): the environment is
//! flat per function (shadowing merges facts), tuple `let`s degrade
//! constants to `Many`, and nested control flow inside one expression
//! is scanned linearly.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{
    parse_body, pattern_binders, skip_group, solve, split_args, BodyIr, Cfg, ExprRange, Forward,
    NonConvergence, StmtId, StmtKind,
};
use crate::lexer::{float_literal_value, Token, TokenKind};

/// How a float value can become NaN/Inf-capable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Taint {
    /// Division (`/` anywhere in the defining expression).
    Div,
    /// `ln`/`log`/`log10`/`log2` method call.
    Ln,
    /// `sqrt` method call.
    Sqrt,
}

impl Taint {
    /// Human-readable operation name for trace frames.
    pub fn label(self) -> &'static str {
        match self {
            Taint::Div => "division",
            Taint::Ln => "logarithm",
            Taint::Sqrt => "square root",
        }
    }
}

/// Constant-propagation lattice: `Unset < Lit < Many`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Konst {
    /// No initializer seen yet.
    #[default]
    Unset,
    /// Exactly one float literal (raw text preserved for traces).
    Lit(String),
    /// More than one possible value.
    Many,
}

/// The per-variable fact tracked by the forward pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarFact {
    /// NaN/Inf capability of the value.
    pub taints: BTreeSet<Taint>,
    /// Constant-propagation state.
    pub konst: Konst,
    /// Witness lineage: decl site first, then flow steps.
    pub trace: Vec<String>,
}

/// Flat per-function environment (variable name → fact).
pub type Env = BTreeMap<String, VarFact>;

/// Interprocedural **callee effects** the summary layer feeds back into
/// the intraprocedural pass, keyed by bare callee name as visible from
/// the analyzed unit (the union over every workspace candidate that
/// name can resolve to — the same over-approximation the call graph
/// uses for method calls).
///
/// The *in*-transfer (argument taints reaching the return value) needs
/// no field: `Analysis::expr_fact` already unions the taints of every
/// value ident in an expression, so `f(tainted)` taints the result by
/// construction. The fields here carry what intraprocedural analysis
/// cannot see: what happens *inside* the callee.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CalleeEffect {
    /// Taints the callee's return value carries regardless of its
    /// arguments (division/ln/sqrt inside the callee, transitively).
    pub taint_out: BTreeSet<Taint>,
    /// Argument indices (`self` receiver already subtracted for
    /// methods) the callee compares against a float guard — the R15
    /// sink positions.
    pub tol_param_compare: BTreeSet<usize>,
    /// The callee writes through a `&mut` parameter.
    pub mutates_params: bool,
    /// Required length equalities among the callee's parameters
    /// (positions after the `self` shift, normalized `(min, max)`) —
    /// the R18 shape contract inferred by [`crate::shape::infer_pairs`].
    pub shape_pairs: BTreeSet<(usize, usize)>,
}

/// Everything one body analysis produces: the R7–R9/R15 events plus
/// the **exit facts** the summary layer consumes (taints of `return`
/// expressions and the tail expression, and which of the function's own
/// parameters reach a float-comparison guard).
#[derive(Debug, Clone, Default)]
pub struct BodyFacts {
    /// Sink events, line-sorted.
    pub events: Vec<Event>,
    /// Taints any returned value may carry.
    pub ret_taints: BTreeSet<Taint>,
    /// Indices into the analyzed function's parameter list that flow
    /// into a comparison or `max`/`min` guard (directly, or as a bare
    /// argument to a callee whose effect says so).
    pub tol_params: BTreeSet<usize>,
}

/// Traces are witnesses, not histories — cap their length so joins and
/// copy chains cannot grow them without bound.
const MAX_TRACE: usize = 6;

/// Joins `other` into `dst`; returns whether `dst` changed. Taints
/// union; `Lit`s that disagree become `Many`; the first non-empty
/// trace wins (a witness, not a set).
fn join_fact(dst: &mut VarFact, other: &VarFact) -> bool {
    let mut changed = false;
    for &t in &other.taints {
        changed |= dst.taints.insert(t);
    }
    let joined = match (&dst.konst, &other.konst) {
        (Konst::Unset, k) => k.clone(),
        (k, Konst::Unset) => k.clone(),
        (Konst::Lit(a), Konst::Lit(b)) if a == b => Konst::Lit(a.clone()),
        (Konst::Many, _) | (_, Konst::Many) | (Konst::Lit(_), Konst::Lit(_)) => Konst::Many,
    };
    if joined != dst.konst {
        dst.konst = joined;
        changed = true;
    }
    if dst.trace.is_empty() && !other.trace.is_empty() {
        dst.trace = other.trace.clone();
        changed = true;
    }
    changed
}

/// What a sink scan found (one finding-to-be, pre-rule-mapping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// R7: a write inside a parallel worker closure whose target is
    /// rooted outside the closure.
    CrossingWrite {
        /// The `rsm_runtime` entry point the closure feeds.
        entry: String,
        /// The written variable.
        target: String,
        /// The operator (`+=`, `=`, ...).
        op: String,
    },
    /// R8: an inline float literal of tolerance magnitude in a
    /// comparison or `max`/`min` guard.
    MagicTolerance {
        /// The literal as written.
        literal: String,
    },
    /// R8 (const-prop): a `let`-bound tolerance literal reaching a
    /// comparison through the binding.
    BoundTolerance {
        /// The binding name.
        name: String,
        /// The propagated literal text.
        literal: String,
    },
    /// R9: `partial_cmp(..).unwrap()` / `.expect(..)`.
    PartialCmpUnwrap,
    /// R9: an order-sensitive combinator (`sort_by`, `max_by`, ...)
    /// keyed on a raw `partial_cmp` closure.
    RawFloatSortKey {
        /// The combinator method name.
        method: String,
    },
    /// R9: `==` join where an operand is NaN-tainted.
    TaintedFloatEq {
        /// The tainted operand.
        ident: String,
    },
    /// R15: a tolerance-magnitude literal reaching a comparison only
    /// through a callee argument (the callee's summary says that
    /// parameter position is compared).
    TolAcrossCall {
        /// The callee name as written at the call site.
        callee: String,
        /// The literal as written (or as const-propagated).
        literal: String,
    },
}

/// One dataflow finding: kind, sink line, and the full def-use trace
/// (decl site → flow steps → sink; always ≥ 2 frames).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// What was found.
    pub kind: EventKind,
    /// 1-based sink line.
    pub line: u32,
    /// Def-use witness, decl first, sink last.
    pub trace: Vec<String>,
}

/// The `rsm_runtime` parallel entry points R7 guards. For
/// `par_chunks_reduce` the **last** closure argument is the in-order
/// fold (sanctioned); every other closure is a worker.
const PARALLEL_ENTRIES: [&str; 2] = ["par_chunks_reduce", "par_map_indexed"];

/// Order-sensitive combinators R9 checks for raw float compares.
const SORT_METHODS: [&str; 6] = [
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
    "partition_point",
];

/// A literal is "tolerance-like" when it is small but nonzero —
/// `0.0`, `0.5`, `1.0` are structural constants, `1e-12` is a
/// tolerance someone chose.
pub fn tolerance_like(v: f64) -> bool {
    v.abs() > 0.0 && v.abs() < 1e-3
}

/// Runs the full intraprocedural analysis of one function body and
/// returns its R7–R9 events. `code` is the comment-free token slice of
/// the body (braces included), `file` the workspace-relative path used
/// in trace frames. Callee effects default to empty (pure
/// intraprocedural view).
///
/// # Errors
///
/// [`NonConvergence`] if the fixpoint hits the round cap.
pub fn analyze(code: &[(usize, &Token)], file: &str) -> Result<Vec<Event>, NonConvergence> {
    let effects = BTreeMap::new();
    Ok(analyze_with(code, file, &[], &effects)?.events)
}

/// [`analyze`] with the interprocedural inputs: the analyzed function's
/// own parameter names (in declaration order, receiver included) and
/// the per-unit callee-effect map. Returns events **and** the exit
/// facts the bottom-up summary pass folds over.
pub fn analyze_with(
    code: &[(usize, &Token)],
    file: &str,
    params: &[String],
    effects: &BTreeMap<String, CalleeEffect>,
) -> Result<BodyFacts, NonConvergence> {
    let ir = parse_body(code);
    let cfg = Cfg::build(&ir);
    let a = Analysis {
        code,
        file,
        ir: &ir,
        params,
        effects,
    };

    // Exit statements: explicit `return <expr>` statements plus the
    // body's tail expression (an `if`/`match` tail stays opaque — a
    // documented imprecision in the non-taint direction).
    let mut exits: BTreeMap<StmtId, ExprRange> = BTreeMap::new();
    for (sid, stmt) in ir.stmts.iter().enumerate() {
        if let StmtKind::Expr { range } = &stmt.kind {
            if a.tok(range.start).and_then(Token::ident) == Some("return") {
                exits.insert(sid, range.start + 1..range.end);
            }
        }
    }
    if let Some(&last) = ir.blocks[ir.root].stmts.last() {
        if let StmtKind::Expr { range } = &ir.stmts[last].kind {
            exits.entry(last).or_insert_with(|| range.clone());
        }
    }

    // The lattice is finite (3 taint bits + a height-3 konst chain per
    // variable), so the fixpoint settles well inside the round cap.
    let mut facts = BodyFacts::default();
    solve(&a, &cfg, Env::new(), |env, sid| {
        // A named-constant initializer is the sanctioned spelling and
        // is not among the scanned ranges.
        for r in ir.stmts[sid].kind.expr_ranges() {
            a.scan_range(env, &r, &mut facts);
        }
        if let Some(r) = exits.get(&sid) {
            let f = a.expr_fact(env, r);
            facts.ret_taints.extend(f.taints.iter().copied());
        }
    })?;

    a.parallel_crossings(&mut facts.events);

    // Stable sort: within a line, generation order == source order.
    // Every statement lives in exactly one basic block and every sink
    // token is scanned exactly once, so same-(line, kind) events are
    // *distinct* findings (two guards on one line) — no dedup here;
    // the rule layer collapses per (file, line, rule) for reporting.
    facts.events.sort_by_key(|e| e.line);
    Ok(facts)
}

struct Analysis<'a> {
    code: &'a [(usize, &'a Token)],
    file: &'a str,
    ir: &'a BodyIr,
    params: &'a [String],
    effects: &'a BTreeMap<String, CalleeEffect>,
}

impl Analysis<'_> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.code.get(i).map(|&(_, t)| t)
    }

    fn line(&self, i: usize) -> u32 {
        self.tok(i).map_or(0, |t| t.line)
    }

    fn at(&self, line: u32) -> String {
        format!("{}:{}", self.file, line)
    }

    /// True when the ident at `i` names a *value* (not a method being
    /// called, a path segment, or a macro).
    fn is_value_ident(&self, i: usize) -> bool {
        // A call (method or free) or a path/macro segment is not a
        // value read.
        let next_call_or_path = self
            .tok(i + 1)
            .is_some_and(|t| t.is_punct("(") || t.is_punct("::") || t.is_punct("!"));
        !next_call_or_path
    }

    // ------------------------------------------------------------------
    // Transfer
    // ------------------------------------------------------------------

    /// Derives the fact of the expression in `range` under `env`.
    fn expr_fact(&self, env: &Env, range: &ExprRange) -> VarFact {
        let mut fact = VarFact::default();
        let mut tokens = 0usize;
        let mut sole: Option<&str> = None;
        for i in range.clone() {
            let Some(t) = self.tok(i) else { break };
            tokens += 1;
            if t.is_punct("/") && fact.taints.insert(Taint::Div) {
                fact.trace
                    .push(format!("tainted by division ({})", self.at(t.line)));
            }
            if let Some(id) = t.ident() {
                let method = i > 0
                    && self.tok(i - 1).is_some_and(|p| p.is_punct("."))
                    && self.tok(i + 1).is_some_and(|n| n.is_punct("("));
                if method && matches!(id, "ln" | "log" | "log10" | "log2") {
                    if fact.taints.insert(Taint::Ln) {
                        fact.trace
                            .push(format!("tainted by logarithm ({})", self.at(t.line)));
                    }
                } else if method && id == "sqrt" {
                    if fact.taints.insert(Taint::Sqrt) {
                        fact.trace
                            .push(format!("tainted by square root ({})", self.at(t.line)));
                    }
                } else if self.is_value_ident(i) {
                    if let Some(f) = env.get(id) {
                        for &t in &f.taints {
                            fact.taints.insert(t);
                        }
                        if fact.trace.is_empty() {
                            fact.trace = f.trace.clone();
                        }
                        if sole.is_none() && tokens == 1 {
                            fact.konst = f.konst.clone();
                        }
                    }
                    sole = Some(id);
                } else if self.tok(i + 1).is_some_and(|n| n.is_punct("(")) {
                    // Interprocedural out-transfer: a call to a callee
                    // whose summary says the return value is tainted.
                    if let Some(eff) = self.effects.get(id) {
                        for &ct in &eff.taint_out {
                            if fact.taints.insert(ct) {
                                fact.trace.push(format!(
                                    "tainted by `{id}(..)` — {} inside the callee ({})",
                                    ct.label(),
                                    self.at(t.line)
                                ));
                            }
                        }
                    }
                }
            }
        }
        // Constant propagation: exactly one literal token, or a
        // leading `-` plus one literal.
        let toks: Vec<&Token> = range.clone().filter_map(|i| self.tok(i)).collect();
        match toks.as_slice() {
            [t] if t.is_float() => {
                fact.konst = Konst::Lit(t.num_text().unwrap_or_default().to_string());
            }
            [m, t] if m.is_punct("-") && t.is_float() => {
                fact.konst = Konst::Lit(format!("-{}", t.num_text().unwrap_or_default()));
            }
            [t] if t.ident().is_some() => {} // copied above
            _ if tokens > 0 && !matches!(fact.konst, Konst::Lit(_)) => fact.konst = Konst::Many,
            _ => {}
        }
        // Multi-token expressions never keep a copied Lit.
        if tokens > 1 && !matches!(toks.as_slice(), [m, _] if m.is_punct("-")) {
            if let Konst::Lit(_) = fact.konst {
                fact.konst = Konst::Many;
            }
        }
        fact.trace.truncate(MAX_TRACE);
        fact
    }
}

impl Forward for Analysis<'_> {
    type Env = Env;
    const ENGINE: &'static str = "dataflow";

    /// Joins `src` into `dst` pointwise.
    fn join(dst: &mut Env, src: &Env) -> bool {
        let mut changed = false;
        for (name, fact) in src {
            match dst.get_mut(name) {
                Some(d) => changed |= join_fact(d, fact),
                None => {
                    dst.insert(name.clone(), fact.clone());
                    changed = true;
                }
            }
        }
        changed
    }

    fn transfer(&self, env: &mut Env, sid: StmtId) {
        let stmt = &self.ir.stmts[sid];
        match &stmt.kind {
            StmtKind::Let { names, init } => {
                let base = init
                    .as_ref()
                    .map(|r| self.expr_fact(env, r))
                    .unwrap_or_default();
                for name in names {
                    let mut f = base.clone();
                    if names.len() > 1 {
                        // Tuple destructuring: constant tracking is
                        // per-element, which the flat env cannot see.
                        if let Konst::Lit(_) = f.konst {
                            f.konst = Konst::Many;
                        }
                    }
                    let decl = match &f.konst {
                        Konst::Lit(text) => {
                            format!("`{name}` = {text} ({})", self.at(stmt.line))
                        }
                        _ => format!("`{name}` bound ({})", self.at(stmt.line)),
                    };
                    f.trace.insert(0, decl);
                    f.trace.truncate(MAX_TRACE);
                    env.insert(name.clone(), f);
                }
            }
            StmtKind::Const { name, .. } => {
                // A named local constant is the *sanctioned* form: it
                // carries no Lit fact, so R8's const-prop never fires
                // through it.
                env.insert(name.clone(), VarFact::default());
            }
            StmtKind::For { names, iter, .. } => {
                let mut base = self.expr_fact(env, iter);
                base.konst = Konst::Many;
                for name in names {
                    let mut f = base.clone();
                    f.trace
                        .insert(0, format!("`{name}` iterates ({})", self.at(stmt.line)));
                    f.trace.truncate(MAX_TRACE);
                    env.insert(name.clone(), f);
                }
            }
            StmtKind::Match { scrutinee, arms } => {
                // Arm binders are bound (over all arms — the flat env
                // joins them) with the scrutinee's taints.
                let mut base = self.expr_fact(env, scrutinee);
                base.konst = Konst::Many;
                for arm in arms {
                    for name in &arm.names {
                        let mut f = base.clone();
                        f.trace.insert(
                            0,
                            format!("`{name}` bound by match arm ({})", self.at(stmt.line)),
                        );
                        f.trace.truncate(MAX_TRACE);
                        env.insert(name.clone(), f);
                    }
                }
            }
            StmtKind::Expr { range } => self.transfer_assignment(env, range),
            StmtKind::If { .. }
            | StmtKind::While { .. }
            | StmtKind::Loop { .. }
            | StmtKind::BlockStmt { .. } => {}
        }
    }
}

impl Analysis<'_> {
    /// Applies `x = RHS` / `x op= RHS` inside an opaque expression
    /// statement.
    fn transfer_assignment(&self, env: &mut Env, range: &ExprRange) {
        let Some((target, op, rhs_start)) = self.find_assignment(range) else {
            return;
        };
        let rhs = self.expr_fact(env, &(rhs_start..range.end));
        let line = self.line(rhs_start.saturating_sub(1));
        match env.get_mut(&target) {
            Some(f) if op != "=" => {
                // Compound assignment reads the old value: union.
                let before = f.clone();
                join_fact(f, &rhs);
                if *f != before {
                    f.trace
                        .push(format!("updated via `{op}` ({})", self.at(line)));
                    f.trace.truncate(MAX_TRACE);
                }
            }
            _ => {
                let mut f = rhs;
                f.trace
                    .insert(0, format!("`{target}` assigned ({})", self.at(line)));
                f.trace.truncate(MAX_TRACE);
                env.insert(target, f);
            }
        }
    }

    /// Finds the first top-level assignment in `range`: returns the
    /// target's *root* identifier, the operator text, and the RHS
    /// start index.
    fn find_assignment(&self, range: &ExprRange) -> Option<(String, String, usize)> {
        let mut i = range.start;
        while i < range.end {
            let t = self.tok(i)?;
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                i = skip_group(self.code, i);
                continue;
            }
            if t.is_punct("=")
                && !self.tok(i + 1).is_some_and(|n| n.is_punct(">"))
                && i > range.start
            {
                let prev = self.tok(i - 1)?;
                let (op, lhs_end) = if ["+", "-", "*", "/", "%"].iter().any(|p| prev.is_punct(p)) {
                    (
                        format!(
                            "{}=",
                            match &prev.kind {
                                TokenKind::Punct(p) => p.clone(),
                                _ => String::new(),
                            }
                        ),
                        i - 1,
                    )
                } else if prev.is_punct("<") || prev.is_punct(">") || prev.is_punct("!") {
                    i += 1;
                    continue; // `<=` / `>=` comparison, not assignment
                } else {
                    ("=".to_string(), i)
                };
                let target = self.lhs_root(range.start, lhs_end)?;
                return Some((target, op, i + 1));
            }
            i += 1;
        }
        None
    }

    /// Root identifier of the assignment LHS ending just before
    /// `lhs_end` — walks back through `]` indexing and `.field` paths
    /// to the leftmost identifier (`*acc[j]` → `acc`, `self.x` →
    /// `self`).
    fn lhs_root(&self, start: usize, lhs_end: usize) -> Option<String> {
        let mut j = lhs_end;
        loop {
            if j <= start {
                return None;
            }
            let t = self.tok(j - 1)?;
            if t.is_punct("]") {
                // Walk back over the index group.
                let mut depth = 0usize;
                while j > start {
                    let t = self.tok(j - 1)?;
                    if t.is_punct("]") {
                        depth += 1;
                    } else if t.is_punct("[") {
                        depth -= 1;
                        if depth == 0 {
                            j -= 1;
                            break;
                        }
                    }
                    j -= 1;
                }
                continue;
            }
            if t.ident().is_some() {
                // Keep walking left while this is a field of a path.
                if j >= start + 2 && self.tok(j - 2).is_some_and(|p| p.is_punct(".")) {
                    j -= 2;
                    continue;
                }
                return t.ident().map(str::to_string);
            }
            return None;
        }
    }

    // ------------------------------------------------------------------
    // Sink scans (R8 / R9)
    // ------------------------------------------------------------------

    /// True when the token at `i` sits next to a `<`/`>`/`<=`/`>=`
    /// comparison operator (the lexer fuses `==`/`!=` but keeps
    /// `<=`/`>=` as two tokens).
    fn comparison_adjacent(&self, range: &ExprRange, i: usize) -> bool {
        let lt_gt = |j: usize| {
            range.contains(&j)
                && self
                    .tok(j)
                    .is_some_and(|t| t.is_punct("<") || t.is_punct(">"))
        };
        if i > 0 && lt_gt(i - 1) {
            return true;
        }
        if i > 1
            && range.contains(&(i - 1))
            && self.tok(i - 1).is_some_and(|t| t.is_punct("="))
            && lt_gt(i - 2)
        {
            return true;
        }
        lt_gt(i + 1)
    }

    /// True when `i` lies inside the argument list of a `.max(` /
    /// `.min(` call within `range`.
    fn in_minmax_guard(&self, range: &ExprRange, i: usize) -> bool {
        let mut j = range.start;
        while j < range.end {
            let is_mm = self
                .tok(j)
                .and_then(Token::ident)
                .is_some_and(|id| id == "max" || id == "min");
            if is_mm
                && j > 0
                && self.tok(j - 1).is_some_and(|t| t.is_punct("."))
                && self.tok(j + 1).is_some_and(|t| t.is_punct("("))
            {
                let close = skip_group(self.code, j + 1);
                if (j + 2..close).contains(&i) {
                    return true;
                }
            }
            j += 1;
        }
        false
    }

    /// R15 pre-scan: calls in `range` whose callee summary marks an
    /// argument position as tolerance-compared. A magic literal there
    /// (inline or const-propagated) is a cross-function R8 — the
    /// comparison lives in the callee, the literal here. A bare
    /// parameter of *this* function in that position instead records a
    /// transitive `tol_params` exit fact so the flow keeps climbing
    /// the call chain at the summary layer.
    fn scan_call_args(&self, env: &Env, range: &ExprRange, facts: &mut BodyFacts) {
        let mut i = range.start;
        while i < range.end {
            let name = self
                .tok(i)
                .and_then(Token::ident)
                .filter(|_| self.tok(i + 1).is_some_and(|n| n.is_punct("(")));
            let Some(name) = name else {
                i += 1;
                continue;
            };
            let Some(eff) = self.effects.get(name) else {
                i += 1;
                continue;
            };
            if eff.tol_param_compare.is_empty() {
                i += 1;
                continue;
            }
            let close = skip_group(self.code, i + 1);
            let args = split_args(self.code, i + 2, close.saturating_sub(1));
            for (ai, arg) in args.iter().enumerate() {
                if !eff.tol_param_compare.contains(&ai) {
                    continue;
                }
                let line = self.line(arg.start);
                let f = self.expr_fact(env, arg);
                if let Konst::Lit(text) = &f.konst {
                    if float_literal_value(text).is_some_and(tolerance_like) {
                        let mut trace = if f.trace.is_empty() {
                            vec![format!(
                                "float literal `{text}` written inline ({})",
                                self.at(line)
                            )]
                        } else {
                            f.trace.clone()
                        };
                        trace.push(format!(
                            "passed as argument {ai} of `{name}(..)` ({})",
                            self.at(line)
                        ));
                        trace.push(format!(
                            "compared against a float guard inside `{name}` \
                             (callee summary)"
                        ));
                        facts.events.push(Event {
                            kind: EventKind::TolAcrossCall {
                                callee: name.to_string(),
                                literal: text.clone(),
                            },
                            line,
                            trace,
                        });
                        continue;
                    }
                }
                // Bare own-parameter forwarded into the sink position:
                // exit fact, not an event — the blame belongs to *our*
                // callers.
                if arg.len() == 1 && self.is_value_ident(arg.start) {
                    if let Some(pi) = self
                        .tok(arg.start)
                        .and_then(Token::ident)
                        .and_then(|id| self.params.iter().position(|p| p == id))
                    {
                        facts.tol_params.insert(pi);
                    }
                }
            }
            i += 1;
        }
    }

    fn scan_range(&self, env: &Env, range: &ExprRange, facts: &mut BodyFacts) {
        self.scan_call_args(env, range, facts);
        for i in range.clone() {
            let Some(t) = self.tok(i) else { break };
            let in_cmp = self.comparison_adjacent(range, i);
            let in_guard = self.in_minmax_guard(range, i);

            // Exit fact: one of this function's own parameters sits in
            // a guard position — the R15 sink position of *this*
            // function, recorded for its summary.
            if (in_cmp || in_guard) && self.is_value_ident(i) {
                if let Some(pi) = t
                    .ident()
                    .and_then(|id| self.params.iter().position(|p| p == id))
                {
                    facts.tol_params.insert(pi);
                }
            }
            let events = &mut facts.events;

            // R8: inline tolerance literal at a guard.
            if t.is_float() && (in_cmp || in_guard) {
                let text = t.num_text().unwrap_or_default();
                if float_literal_value(text).is_some_and(tolerance_like) {
                    let sink = if in_cmp {
                        "comparison"
                    } else {
                        "max/min guard"
                    };
                    events.push(Event {
                        kind: EventKind::MagicTolerance {
                            literal: text.to_string(),
                        },
                        line: t.line,
                        trace: vec![
                            format!(
                                "float literal `{text}` written inline ({})",
                                self.at(t.line)
                            ),
                            format!("flows into {sink} ({})", self.at(t.line)),
                        ],
                    });
                }
            }

            if let Some(id) = t.ident() {
                // R8 const-prop: a let-bound literal reaching a guard.
                // Named constants (`const` locals, `tol::` items) carry
                // no Lit fact, so they are exempt by construction.
                if (in_cmp || in_guard) && self.is_value_ident(i) {
                    if let Some(VarFact {
                        konst: Konst::Lit(text),
                        trace,
                        ..
                    }) = env.get(id)
                    {
                        if float_literal_value(text).is_some_and(tolerance_like) {
                            let sink = if in_cmp {
                                "comparison"
                            } else {
                                "max/min guard"
                            };
                            let mut full = trace.clone();
                            full.push(format!("`{id}` flows into {sink} ({})", self.at(t.line)));
                            events.push(Event {
                                kind: EventKind::BoundTolerance {
                                    name: id.to_string(),
                                    literal: text.clone(),
                                },
                                line: t.line,
                                trace: full,
                            });
                        }
                    }
                }

                // R9a: partial_cmp(..).unwrap()/.expect(..)
                if id == "partial_cmp" && self.tok(i + 1).is_some_and(|n| n.is_punct("(")) {
                    let close = skip_group(self.code, i + 1);
                    if self.tok(close).is_some_and(|n| n.is_punct(".")) {
                        if let Some(m) = self.tok(close + 1).and_then(Token::ident) {
                            if m == "unwrap" || m == "expect" {
                                events.push(Event {
                                    kind: EventKind::PartialCmpUnwrap,
                                    line: t.line,
                                    trace: vec![
                                        format!(
                                            "`partial_cmp` yields None for NaN operands ({})",
                                            self.at(t.line)
                                        ),
                                        format!(
                                            "`.{m}()` on the comparison panics on NaN ({})",
                                            self.at(self.line(close + 1))
                                        ),
                                    ],
                                });
                            }
                        }
                    }
                }

                // R9b: order-sensitive combinator keyed on partial_cmp.
                if SORT_METHODS.contains(&id)
                    && i > 0
                    && self.tok(i - 1).is_some_and(|p| p.is_punct("."))
                    && self.tok(i + 1).is_some_and(|n| n.is_punct("("))
                {
                    let close = skip_group(self.code, i + 1);
                    let has_partial = (i + 2..close)
                        .any(|k| self.tok(k).and_then(Token::ident) == Some("partial_cmp"));
                    if has_partial {
                        events.push(Event {
                            kind: EventKind::RawFloatSortKey {
                                method: id.to_string(),
                            },
                            line: t.line,
                            trace: vec![
                                format!(
                                    "`.{id}` orders elements by a raw float compare ({})",
                                    self.at(t.line)
                                ),
                                format!(
                                    "`partial_cmp` key is NaN-blind — ordering is undefined \
                                     under NaN ({})",
                                    self.at(t.line)
                                ),
                            ],
                        });
                    }
                }
            }

            // R9c: `==` join with a NaN-tainted operand.
            if t.is_punct("==") {
                for j in [i.wrapping_sub(1), i + 1] {
                    if !range.contains(&j) {
                        continue;
                    }
                    let Some(id) = self.tok(j).and_then(Token::ident) else {
                        continue;
                    };
                    let Some(f) = env.get(id) else { continue };
                    if f.taints.is_empty() {
                        continue;
                    }
                    let labels: Vec<&str> = f.taints.iter().map(|t| t.label()).collect();
                    let mut full = f.trace.clone();
                    full.push(format!(
                        "`{id}` ({}-tainted) joins an exact `==` ({})",
                        labels.join("/"),
                        self.at(t.line)
                    ));
                    events.push(Event {
                        kind: EventKind::TaintedFloatEq {
                            ident: id.to_string(),
                        },
                        line: t.line,
                        trace: full,
                    });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // R7: closure-capture pass
    // ------------------------------------------------------------------

    /// Scans the whole body for `rsm_runtime` parallel entry calls and
    /// checks every *worker* closure for writes to targets rooted
    /// outside the closure.
    fn parallel_crossings(&self, events: &mut Vec<Event>) {
        let mut i = 0usize;
        while i < self.code.len() {
            let is_entry = self
                .tok(i)
                .and_then(Token::ident)
                .is_some_and(|id| PARALLEL_ENTRIES.contains(&id));
            if !is_entry || !self.tok(i + 1).is_some_and(|t| t.is_punct("(")) {
                i += 1;
                continue;
            }
            let entry = self.tok(i).and_then(Token::ident).unwrap().to_string();
            let close = skip_group(self.code, i + 1);
            let args = split_args(self.code, i + 2, close.saturating_sub(1));
            let closures: Vec<ExprRange> = args
                .into_iter()
                .filter(|r| self.closure_head(r.start).is_some())
                .collect();
            let workers: &[ExprRange] = if entry == "par_chunks_reduce" && !closures.is_empty() {
                // The last closure is the in-order fold — sanctioned.
                &closures[..closures.len() - 1]
            } else {
                &closures[..]
            };
            for w in workers {
                self.check_worker(w, &entry, events);
            }
            i = close;
        }
    }

    /// If the tokens at `start` begin a closure (`|..|` or `move |..|`),
    /// returns the index of the opening `|`.
    fn closure_head(&self, start: usize) -> Option<usize> {
        match self.tok(start) {
            Some(t) if t.is_punct("|") => Some(start),
            Some(t) if t.ident() == Some("move") => self
                .tok(start + 1)
                .is_some_and(|n| n.is_punct("|"))
                .then_some(start + 1),
            _ => None,
        }
    }

    /// Binder names of a closure parameter list `[start, end)` (the
    /// region between the two `|`s): per-parameter, only tokens before
    /// the top-level `:` bind.
    fn closure_params(&self, start: usize, end: usize) -> Vec<String> {
        let mut names = Vec::new();
        for param in split_args(self.code, start, end) {
            let mut stop = param.end;
            for k in param.clone() {
                if self.tok(k).is_some_and(|t| t.is_punct(":")) {
                    stop = k;
                    break;
                }
            }
            names.extend(pattern_binders(self.code, param.start..stop));
        }
        names
    }

    /// Checks one worker closure for writes whose target is rooted
    /// outside the closure.
    fn check_worker(&self, closure: &ExprRange, entry: &str, events: &mut Vec<Event>) {
        let Some(pipe) = self.closure_head(closure.start) else {
            return;
        };
        // Find the closing `|` of the parameter list.
        let mut params_end = pipe + 1;
        while params_end < closure.end && !self.tok(params_end).is_some_and(|t| t.is_punct("|")) {
            params_end += 1;
        }
        let body = params_end + 1..closure.end;

        // Closure-local names + alias roots (`for yi in y.iter_mut()`
        // makes `yi` local but rooted at `y`: writing through it still
        // escapes).
        let mut locals: BTreeSet<String> = self
            .closure_params(pipe + 1, params_end)
            .into_iter()
            .collect();
        let mut roots: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut k = body.start;
        while k < body.end {
            let Some(t) = self.tok(k) else { break };
            match t.ident() {
                Some("let") => {
                    let mut eq = k + 1;
                    while eq < body.end
                        && !self
                            .tok(eq)
                            .is_some_and(|t| t.is_punct("=") || t.is_punct(";"))
                    {
                        eq = if self
                            .tok(eq)
                            .is_some_and(|t| t.is_punct("(") || t.is_punct("[") || t.is_punct("{"))
                        {
                            skip_group(self.code, eq)
                        } else {
                            eq + 1
                        };
                    }
                    let mut pat_end = eq;
                    for c in k + 1..eq {
                        if self.tok(c).is_some_and(|t| t.is_punct(":")) {
                            pat_end = c;
                            break;
                        }
                    }
                    let binders = pattern_binders(self.code, k + 1..pat_end);
                    let mut rhs_end = eq;
                    while rhs_end < body.end && !self.tok(rhs_end).is_some_and(|t| t.is_punct(";"))
                    {
                        rhs_end += 1;
                    }
                    let rhs_roots = self.mut_borrow_roots(eq + 1, rhs_end);
                    for b in binders {
                        if let Some(rs) = &rhs_roots {
                            roots.insert(b.clone(), rs.clone());
                        }
                        locals.insert(b);
                    }
                    k = eq + 1;
                }
                Some("for") => {
                    let mut in_at = k + 1;
                    while in_at < body.end && self.tok(in_at).and_then(Token::ident) != Some("in") {
                        in_at += 1;
                    }
                    let binders = pattern_binders(self.code, k + 1..in_at);
                    let mut iter_end = in_at;
                    while iter_end < body.end
                        && !self.tok(iter_end).is_some_and(|t| t.is_punct("{"))
                    {
                        iter_end = if self
                            .tok(iter_end)
                            .is_some_and(|t| t.is_punct("(") || t.is_punct("["))
                        {
                            skip_group(self.code, iter_end)
                        } else {
                            iter_end + 1
                        };
                    }
                    let iter_roots = self.mut_borrow_roots(in_at + 1, iter_end);
                    for b in binders {
                        if let Some(rs) = &iter_roots {
                            roots.insert(b.clone(), rs.clone());
                        }
                        locals.insert(b);
                    }
                    k = iter_end;
                }
                _ if t.is_punct("|") => {
                    // Nested closure: its params are local (their alias
                    // roots are not tracked — a documented
                    // under-approximation).
                    let mut close_pipe = k + 1;
                    while close_pipe < body.end
                        && !self.tok(close_pipe).is_some_and(|t| t.is_punct("|"))
                    {
                        close_pipe += 1;
                    }
                    for b in self.closure_params(k + 1, close_pipe) {
                        locals.insert(b);
                    }
                    k = close_pipe + 1;
                }
                _ => k += 1,
            }
        }

        // Writes inside the closure body.
        let mut k = body.start;
        while k < body.end {
            let Some(t) = self.tok(k) else { break };
            // Interprocedural write: `&mut <target>` handed to a callee
            // whose summary says it writes through its parameters. The
            // mutation happens inside the callee, but the race is here.
            if let Some(name) = t
                .ident()
                .filter(|_| self.tok(k + 1).is_some_and(|n| n.is_punct("(")))
            {
                if self.effects.get(name).is_some_and(|e| e.mutates_params) {
                    let close = skip_group(self.code, k + 1);
                    if let Some(targets) = self.mut_borrow_roots(k + 2, close.saturating_sub(1)) {
                        for target in targets {
                            let Some(outer) = self.escapes(&target, &locals, &roots) else {
                                continue;
                            };
                            let line = t.line;
                            let decl = self.decl_frame(&outer).unwrap_or_else(|| {
                                format!("`{outer}` captured from enclosing scope")
                            });
                            events.push(Event {
                                kind: EventKind::CrossingWrite {
                                    entry: entry.to_string(),
                                    target: outer.clone(),
                                    op: format!("&mut → {name}"),
                                },
                                line,
                                trace: vec![
                                    decl,
                                    format!(
                                        "`&mut {outer}` passed to `{name}`, which writes \
                                         through its parameters, inside a `{entry}` worker \
                                         closure ({})",
                                        self.at(line)
                                    ),
                                    format!(
                                        "worker execution order depends on thread count — \
                                         combine partials through the in-order fold argument \
                                         instead"
                                    ),
                                ],
                            });
                        }
                    }
                }
            }
            if t.is_punct("=")
                && !self.tok(k + 1).is_some_and(|n| n.is_punct(">"))
                && k > body.start
            {
                let prev = self.tok(k - 1).unwrap();
                if prev.is_punct("==")
                    || prev.is_punct("!=")
                    || prev.is_punct("<")
                    || prev.is_punct(">")
                    || prev.is_punct("!")
                {
                    k += 1;
                    continue;
                }
                let (op, lhs_end) = if ["+", "-", "*", "/", "%"].iter().any(|p| prev.is_punct(p)) {
                    (
                        format!(
                            "{}=",
                            match &prev.kind {
                                TokenKind::Punct(p) => p.clone(),
                                _ => String::new(),
                            }
                        ),
                        k - 1,
                    )
                } else {
                    ("=".to_string(), k)
                };
                if let Some(target) = self.lhs_root(body.start, lhs_end) {
                    if let Some(outer) = self.escapes(&target, &locals, &roots) {
                        let line = t.line;
                        let decl = self
                            .decl_frame(&outer)
                            .unwrap_or_else(|| format!("`{outer}` captured from enclosing scope"));
                        events.push(Event {
                            kind: EventKind::CrossingWrite {
                                entry: entry.to_string(),
                                target: outer.clone(),
                                op: op.clone(),
                            },
                            line,
                            trace: vec![
                                decl,
                                format!(
                                    "written (`{op}`) inside a `{entry}` worker closure ({})",
                                    self.at(line)
                                ),
                                format!(
                                    "worker execution order depends on thread count — combine \
                                     partials through the in-order fold argument instead"
                                ),
                            ],
                        });
                    }
                }
            }
            k += 1;
        }
    }

    /// Roots of the mutable borrows taken in `[start, end)` — binders
    /// introduced from such a region *alias* their source, so writes
    /// through them escape with it. Only the borrowed place expression
    /// itself roots: `&mut block[i * other.cols..]` roots `block` (not
    /// the index arithmetic's `other`), `y.iter_mut()` roots `y`.
    /// Owned initializers (`vec![..]`, arithmetic) return `None`: the
    /// binder is a fresh value and fully closure-local.
    fn mut_borrow_roots(&self, start: usize, end: usize) -> Option<BTreeSet<String>> {
        let mut out = BTreeSet::new();
        for k in start..end {
            let Some(t) = self.tok(k) else { break };
            // `&mut <place>`: root = first ident of the place.
            if t.is_punct("&") && self.tok(k + 1).and_then(Token::ident) == Some("mut") {
                let mut j = k + 2;
                while j < end
                    && self
                        .tok(j)
                        .is_some_and(|t| t.is_punct("*") || t.is_punct("("))
                {
                    j += 1;
                }
                if let Some(id) = self.tok(j).and_then(Token::ident) {
                    out.insert(id.to_string());
                }
            }
            // `<recv>.iter_mut()` / `.get_mut(..)` / `.split_at_mut(..)`:
            // root = leftmost ident of the receiver chain.
            if let Some(id) = t.ident() {
                if (id.ends_with("_mut") || id.contains("_mut_"))
                    && k > start
                    && self.tok(k - 1).is_some_and(|p| p.is_punct("."))
                {
                    if let Some(root) = self.lhs_root(start, k - 1) {
                        out.insert(root);
                    }
                }
            }
        }
        (!out.is_empty()).then_some(out)
    }

    /// Resolves `name` through the alias-root map: returns the first
    /// transitive root that is *not* closure-local (the escape
    /// witness), or `None` when fully closure-local.
    fn escapes(
        &self,
        name: &str,
        locals: &BTreeSet<String>,
        roots: &BTreeMap<String, BTreeSet<String>>,
    ) -> Option<String> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![name.to_string()];
        while let Some(n) = stack.pop() {
            if !seen.insert(n.clone()) {
                continue;
            }
            if !locals.contains(&n) {
                return Some(n);
            }
            if let Some(rs) = roots.get(&n) {
                stack.extend(rs.iter().cloned());
            }
        }
        None
    }

    /// Finds the `let` statement binding `name` anywhere in the body
    /// and renders its decl frame.
    fn decl_frame(&self, name: &str) -> Option<String> {
        for stmt in &self.ir.stmts {
            if let StmtKind::Let { names, .. } = &stmt.kind {
                if names.iter().any(|n| n == name) {
                    return Some(format!(
                        "`{name}` declared outside the worker closure ({})",
                        self.at(stmt.line)
                    ));
                }
            }
        }
        None
    }
}

/// Builds the comment-free code slice of a body token range — the
/// input shape [`analyze`] expects — preserving original token-stream
/// indices.
pub fn body_code(tokens: &[Token], body: (usize, usize)) -> Vec<(usize, &Token)> {
    tokens[body.0..body.1]
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
        .map(|(off, t)| (body.0 + off, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn events_of(body: &str) -> Vec<Event> {
        let toks = lex(body);
        let code: Vec<(usize, &Token)> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
            .collect();
        analyze(&code, "test.rs").expect("converges")
    }

    #[test]
    fn magic_tolerance_fires_in_comparisons_and_guards() {
        let ev = events_of("{ if x < 1e-300 { return; } let y = n.max(1e-14); }");
        assert_eq!(ev.len(), 2, "{ev:?}");
        assert!(
            matches!(&ev[0].kind, EventKind::MagicTolerance { literal } if literal == "1e-300")
        );
        assert!(matches!(&ev[1].kind, EventKind::MagicTolerance { literal } if literal == "1e-14"));
        for e in &ev {
            assert!(e.trace.len() >= 2, "trace must be decl→sink: {e:?}");
        }
    }

    #[test]
    fn structural_floats_are_not_tolerances() {
        // 0.0 / 0.5 / 2.0 are structural constants, not tolerances.
        let ev = events_of("{ if x < 0.5 { f(); } let y = z.max(0.0); let w = v.min(2.0); }");
        assert!(ev.is_empty(), "{ev:?}");
    }

    #[test]
    fn named_constants_are_sanctioned() {
        // A local `const` and an external SCREAMING const both pass.
        let ev = events_of(
            "{ const STEP_TOL: f64 = 1e-14; if x < STEP_TOL { f(); }\n\
             if y < tol::NORM_FLOOR { g(); } }",
        );
        assert!(ev.is_empty(), "{ev:?}");
    }

    #[test]
    fn let_bound_tolerance_propagates_with_trace() {
        let ev = events_of("{ let eps = 1e-12; if x < eps { f(); } }");
        assert_eq!(ev.len(), 1, "{ev:?}");
        let EventKind::BoundTolerance { name, literal } = &ev[0].kind else {
            panic!("expected BoundTolerance: {ev:?}");
        };
        assert_eq!(name, "eps");
        assert_eq!(literal, "1e-12");
        assert!(ev[0].trace.len() >= 2);
        assert!(
            ev[0].trace[0].contains("`eps` = 1e-12"),
            "{:?}",
            ev[0].trace
        );
        assert!(ev[0].trace.last().unwrap().contains("comparison"));
    }

    #[test]
    fn copied_binding_extends_the_trace() {
        let ev = events_of("{ let eps = 1e-12; let tol = eps; if x < tol { f(); } }");
        assert_eq!(ev.len(), 1, "{ev:?}");
        assert!(matches!(&ev[0].kind, EventKind::BoundTolerance { name, .. } if name == "tol"));
        // decl frame, copy frame, sink frame.
        assert!(ev[0].trace.len() >= 3, "{:?}", ev[0].trace);
    }

    #[test]
    fn branch_join_degrades_disagreeing_constants() {
        // eps is 1e-12 on one path and 1e-9 on the other: Lit join →
        // Many, so the const-prop sink does not fire (imprecision in
        // the non-reporting direction is acceptable here because the
        // decl sites themselves were already scanned as literals... but
        // bare `let` initializers are not guard sinks, so nothing
        // fires).
        let ev = events_of("{ let mut eps = 1e-12; if wide { eps = 1e-9; } if x < eps { f(); } }");
        assert!(ev.is_empty(), "{ev:?}");
    }

    #[test]
    fn partial_cmp_unwrap_fires() {
        let ev = events_of("{ let o = a.partial_cmp(&b).unwrap(); }");
        assert_eq!(ev.len(), 1, "{ev:?}");
        assert!(matches!(ev[0].kind, EventKind::PartialCmpUnwrap));
        assert!(ev[0].trace.len() >= 2);
    }

    #[test]
    fn sort_by_raw_float_compare_fires() {
        let ev = events_of("{ xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }");
        // Both the combinator and the unwrap inside it are events; the
        // rule layer dedupes per (rule, line).
        assert!(
            ev.iter().any(
                |e| matches!(&e.kind, EventKind::RawFloatSortKey { method } if method == "sort_by")
            ),
            "{ev:?}"
        );
    }

    #[test]
    fn total_cmp_is_clean() {
        let ev = events_of("{ xs.sort_by(|a, b| a.total_cmp(b)); }");
        assert!(ev.is_empty(), "{ev:?}");
    }

    #[test]
    fn tainted_eq_fires_through_division() {
        let ev = events_of("{ let r = num / den; if r == target { f(); } }");
        assert_eq!(ev.len(), 1, "{ev:?}");
        let EventKind::TaintedFloatEq { ident } = &ev[0].kind else {
            panic!("expected TaintedFloatEq: {ev:?}");
        };
        assert_eq!(ident, "r");
        assert!(
            ev[0].trace.iter().any(|f| f.contains("division")),
            "{:?}",
            ev[0].trace
        );
    }

    #[test]
    fn taint_propagates_through_copies_and_loops() {
        let ev = events_of(
            "{ let mut acc = 0.0; for v in xs { acc += v.sqrt(); }\n\
             let copy = acc; if copy == limit { f(); } }",
        );
        assert!(
            ev.iter()
                .any(|e| matches!(&e.kind, EventKind::TaintedFloatEq { ident } if ident == "copy")),
            "{ev:?}"
        );
    }

    #[test]
    fn untainted_eq_is_silent() {
        let ev = events_of("{ let a = b + c; if a == d { f(); } }");
        assert!(ev.is_empty(), "{ev:?}");
    }

    #[test]
    fn crossing_accumulation_in_worker_closure_fires() {
        let ev = events_of(
            "{ let mut total = 0.0;\n\
             par_map_indexed(n, |i| { total += w[i]; 0 }); }",
        );
        assert_eq!(ev.len(), 1, "{ev:?}");
        let EventKind::CrossingWrite { entry, target, op } = &ev[0].kind else {
            panic!("expected CrossingWrite: {ev:?}");
        };
        assert_eq!(entry, "par_map_indexed");
        assert_eq!(target, "total");
        assert_eq!(op, "+=");
        assert!(ev[0].trace.len() >= 3, "{:?}", ev[0].trace);
        assert!(
            ev[0].trace[0].contains("declared outside"),
            "{:?}",
            ev[0].trace
        );
    }

    #[test]
    fn sanctioned_fold_closure_is_exempt() {
        // The last closure of par_chunks_reduce is the in-order fold —
        // outer accumulation there is the sanctioned pattern.
        let ev = events_of(
            "{ let mut acc = vec![0.0; m];\n\
             par_chunks_reduce(len, cl, |r| { let mut part = vec![0.0; m];\n\
             for i in r { part[0] += x[i]; } part },\n\
             |part| { for (a, p) in acc.iter_mut().zip(part) { *a += p; } }); }",
        );
        assert!(ev.is_empty(), "{ev:?}");
    }

    #[test]
    fn aliased_write_through_iter_mut_escapes() {
        // `yi` is a closure-local binder, but it roots at the captured
        // `y`: writing through it escapes the worker closure.
        let ev = events_of(
            "{ let mut y = vec![0.0; n];\n\
             par_map_indexed(n, |i| { for yi in y.iter_mut() { *yi += 1.0; } 0 }); }",
        );
        assert_eq!(ev.len(), 1, "{ev:?}");
        assert!(
            matches!(&ev[0].kind, EventKind::CrossingWrite { target, .. } if target == "y"),
            "{ev:?}"
        );
    }

    #[test]
    fn closure_local_accumulation_is_clean() {
        let ev = events_of(
            "{ par_map_indexed(n, |i| { let mut s = 0.0;\n\
             for v in 0..i { s += v as f64; } s }); }",
        );
        assert!(ev.is_empty(), "{ev:?}");
    }

    #[test]
    fn events_are_line_sorted_and_deduped() {
        let ev = events_of("{ if x < 1e-300 { f(); } if y < 1e-300 { g(); } }");
        assert_eq!(ev.len(), 2);
        assert!(ev[0].line <= ev[1].line);
    }

    #[test]
    fn body_code_preserves_original_indices() {
        let toks = lex("fn f() { // note\n  a(); }");
        let open = toks.iter().position(|t| t.is_punct("{")).unwrap();
        let code = body_code(&toks, (open, toks.len()));
        assert!(code
            .iter()
            .all(|(_, t)| !matches!(t.kind, TokenKind::Comment(_))));
        assert_eq!(code[0].0, open);
    }

    // ------------------------------------------------------------------
    // Interprocedural facts (summary layer inputs/outputs)
    // ------------------------------------------------------------------

    fn facts_of(
        body: &str,
        params: &[&str],
        effects: &BTreeMap<String, CalleeEffect>,
    ) -> BodyFacts {
        let toks = lex(body);
        let code: Vec<(usize, &Token)> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
            .collect();
        let params: Vec<String> = params.iter().map(|s| s.to_string()).collect();
        analyze_with(&code, "test.rs", &params, effects).expect("converges")
    }

    #[test]
    fn return_taints_cover_explicit_returns_and_tail_expression() {
        let no_eff = BTreeMap::new();
        let f = facts_of(
            "{ if early { return a / b; } let y = x.sqrt(); y }",
            &[],
            &no_eff,
        );
        assert!(f.ret_taints.contains(&Taint::Div), "{f:?}");
        assert!(f.ret_taints.contains(&Taint::Sqrt), "{f:?}");
        let clean = facts_of("{ let y = x + 1.0; y }", &[], &no_eff);
        assert!(clean.ret_taints.is_empty(), "{clean:?}");
    }

    #[test]
    fn own_parameter_in_guard_becomes_tol_param_exit_fact() {
        let no_eff = BTreeMap::new();
        let f = facts_of(
            "{ if eps < x { shrink(); } n.max(floor); }",
            &["eps", "floor"],
            &no_eff,
        );
        assert_eq!(
            f.tol_params.iter().copied().collect::<Vec<_>>(),
            vec![0, 1],
            "{f:?}"
        );
    }

    #[test]
    fn callee_taint_out_feeds_tainted_float_eq() {
        let mut effects = BTreeMap::new();
        effects.insert(
            "norm".to_string(),
            CalleeEffect {
                taint_out: [Taint::Sqrt].into_iter().collect(),
                ..CalleeEffect::default()
            },
        );
        let f = facts_of(
            "{ let n = norm(v); if n == 0.0 { return; } }",
            &[],
            &effects,
        );
        let eq = f
            .events
            .iter()
            .find(|e| matches!(&e.kind, EventKind::TaintedFloatEq { ident } if ident == "n"))
            .expect("cross-function taint should reach the == sink");
        assert!(
            eq.trace.iter().any(|fr| fr.contains("inside the callee")),
            "{:?}",
            eq.trace
        );
    }

    #[test]
    fn tolerance_literal_through_callee_argument_fires_r15() {
        let mut effects = BTreeMap::new();
        effects.insert(
            "converged".to_string(),
            CalleeEffect {
                tol_param_compare: [1].into_iter().collect(),
                ..CalleeEffect::default()
            },
        );
        // Inline literal in the sink position fires; a non-tolerance
        // literal and a literal in a non-sink position stay silent.
        let f = facts_of("{ converged(r, 1e-9); converged(r, 0.5); }", &[], &effects);
        let hits: Vec<_> = f
            .events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::TolAcrossCall { .. }))
            .collect();
        assert_eq!(hits.len(), 1, "{:?}", f.events);
        assert!(matches!(
            &hits[0].kind,
            EventKind::TolAcrossCall { callee, literal }
                if callee == "converged" && literal == "1e-9"
        ));

        // Const-propagated binding fires too, with the decl frame first.
        let g = facts_of("{ let tol = 1e-9; converged(r, tol); }", &[], &effects);
        let hit = g
            .events
            .iter()
            .find(|e| matches!(&e.kind, EventKind::TolAcrossCall { .. }))
            .expect("let-bound literal should const-propagate into the call");
        assert!(hit.trace.len() >= 3, "{:?}", hit.trace);
    }

    #[test]
    fn bare_parameter_forwarded_to_sink_position_is_transitive() {
        let mut effects = BTreeMap::new();
        effects.insert(
            "converged".to_string(),
            CalleeEffect {
                tol_param_compare: [1].into_iter().collect(),
                ..CalleeEffect::default()
            },
        );
        let f = facts_of("{ converged(r, eps); }", &["r", "eps"], &effects);
        assert!(f.tol_params.contains(&1), "{f:?}");
        assert!(
            !f.events
                .iter()
                .any(|e| matches!(&e.kind, EventKind::TolAcrossCall { .. })),
            "forwarding a parameter is an exit fact, not an event: {:?}",
            f.events
        );
    }

    #[test]
    fn mut_ref_to_mutating_callee_inside_worker_is_a_crossing_write() {
        let mut effects = BTreeMap::new();
        effects.insert(
            "accumulate".to_string(),
            CalleeEffect {
                mutates_params: true,
                ..CalleeEffect::default()
            },
        );
        let f = facts_of(
            "{ let mut total = 0.0; par_map_indexed(n, |i| { accumulate(&mut total, i); }); }",
            &[],
            &effects,
        );
        let hit = f
            .events
            .iter()
            .find(|e| matches!(&e.kind, EventKind::CrossingWrite { .. }))
            .expect("&mut to a mutating callee should cross");
        assert!(matches!(
            &hit.kind,
            EventKind::CrossingWrite { target, op, .. }
                if target == "total" && op == "&mut → accumulate"
        ));

        // A purely local &mut stays silent.
        let clean = facts_of(
            "{ par_map_indexed(n, |i| { let mut acc = 0.0; accumulate(&mut acc, i); acc }); }",
            &[],
            &effects,
        );
        assert!(
            !clean
                .events
                .iter()
                .any(|e| matches!(&e.kind, EventKind::CrossingWrite { .. })),
            "{:?}",
            clean.events
        );
    }
}
