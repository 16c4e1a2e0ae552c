//! Symbolic **shape/length dataflow** — the engine behind R16/R17/R18.
//!
//! Per function body, a forward pass over the intraprocedural CFG
//! ([`crate::cfg`]) tracks one symbolic *length term* per local: the
//! length for slice/`Vec`-valued variables, the integer value for
//! scalar bindings (`let n = x.len()` makes `n` carry `Len(x)`), so the
//! two kinds unify — a variable's fact is "the tracked scalar".
//!
//! The term language is deliberately small:
//!
//! - `Lit(n)` — a known integer.
//! - `Len(root, k)` — length-of-`root` plus a constant offset. `root`
//!   is a rendered path (`x`, `self.rows`), generation-stamped
//!   (`x@7`) after the path is rebound or mutated, so stale facts can
//!   never alias fresh ones.
//! - `Expr(text)` — an opaque but *stable* arithmetic expression
//!   (`4 * chunks`): equal text in one environment means equal value.
//! - `Min(a, b)` — `zip`/`take` result lengths.
//! - `Top` — unknown.
//!
//! Relations are seeded from `.len()` bindings, `vec![_; n]` /
//! `with_capacity(n)` constructors, slicing (`&x[lo..hi]` has length
//! `hi - lo` when the bounds evaluate), `split_at`, and — the load-
//! bearing part — `assert_eq!(a.len(), b.len())` / `debug_assert!`
//! guards and divergent `if a.len() != b.len() { return .. }` checks,
//! which *unify* the two lengths for the code they dominate.
//!
//! Three sinks ride on the fixpoint (see [`ShapeEventKind`]): `.zip()`
//! lockstep whose operand lengths are not provably equal (R16),
//! indexing/slicing that is provably out of bounds (R17), and call
//! sites that provably violate a callee's inferred shape contract
//! (R18). Contracts — required length equalities among parameters —
//! are inferred bottom-up over the SCC condensation by
//! [`infer_pairs`] and flow through [`crate::dataflow::CalleeEffect`].
//!
//! Accepted imprecision is catalogued in DESIGN.md § Shape analysis;
//! the headline choices: R17/R18 fire only on *provable* violations
//! (unknown stays quiet), R16 is a proof obligation but only inside
//! the kernel cone, `with_capacity(n)` is modeled as final length `n`
//! (the workspace idiom fills exactly to capacity), and join unions
//! variables missing on one side (rustc's scoping makes the unsound
//! direction unreachable).

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{
    parse_body, pattern_binders, solve, BlockId, BodyIr, Cfg, ExprRange, Forward, NonConvergence,
    StmtId, StmtKind,
};
use crate::dataflow::CalleeEffect;
use crate::lexer::{Token, TokenKind};

/// A symbolic length/integer term. Structural equality is semantic
/// equality *within one environment*: generation stamps on `Len` roots
/// and `Expr` identifiers guarantee a rebound variable never renders
/// like its former self.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum LenTerm {
    /// Known integer.
    Lit(i64),
    /// Length of `root` plus a constant offset.
    Len(String, i64),
    /// Opaque but stable expression text (normalized token render).
    Expr(String),
    /// Minimum of two terms (canonically ordered operands).
    Min(Box<LenTerm>, Box<LenTerm>),
    /// Unknown.
    Top,
}

impl LenTerm {
    /// Canonical `min(a, b)`: identical operands collapse, operands are
    /// stored sorted, `Top` absorbs.
    pub fn min_of(a: LenTerm, b: LenTerm) -> LenTerm {
        if a == LenTerm::Top || b == LenTerm::Top {
            return LenTerm::Top;
        }
        if a == b {
            return a;
        }
        if a <= b {
            LenTerm::Min(Box::new(a), Box::new(b))
        } else {
            LenTerm::Min(Box::new(b), Box::new(a))
        }
    }

    /// Lattice join: equal terms keep their value, anything else is
    /// `Top`. Flat, so commutativity/associativity/idempotence are
    /// structural (the fuzz suite asserts all three).
    pub fn join(&self, other: &LenTerm) -> LenTerm {
        if self == other {
            self.clone()
        } else {
            LenTerm::Top
        }
    }

    /// Human-readable form for diagnostics.
    pub fn render(&self) -> String {
        match self {
            LenTerm::Lit(n) => n.to_string(),
            LenTerm::Len(r, 0) => format!("len({r})"),
            LenTerm::Len(r, k) if *k > 0 => format!("len({r}) + {k}"),
            LenTerm::Len(r, k) => format!("len({r}) - {}", -k),
            LenTerm::Expr(t) => t.clone(),
            LenTerm::Min(a, b) => format!("min({}, {})", a.render(), b.render()),
            LenTerm::Top => "?".to_string(),
        }
    }
}

/// `a + b` when the result stays representable.
pub fn add(a: &LenTerm, b: &LenTerm) -> Option<LenTerm> {
    use LenTerm::*;
    match (a, b) {
        (Lit(x), Lit(y)) => Some(Lit(x + y)),
        (Len(r, o), Lit(k)) | (Lit(k), Len(r, o)) => Some(Len(r.clone(), o + k)),
        (Min(x, y), Lit(k)) => Some(LenTerm::min_of(add(x, &Lit(*k))?, add(y, &Lit(*k))?)),
        _ => None,
    }
}

/// `a - b` when the result stays representable; same-root `Len`s and
/// identical `Expr`s cancel to a literal.
pub fn sub(a: &LenTerm, b: &LenTerm) -> Option<LenTerm> {
    use LenTerm::*;
    match (a, b) {
        (Lit(x), Lit(y)) => Some(Lit(x - y)),
        (Len(r, o), Lit(k)) => Some(Len(r.clone(), o - k)),
        (Len(r1, o1), Len(r2, o2)) if r1 == r2 => Some(Lit(o1 - o2)),
        (Expr(x), Expr(y)) if x == y => Some(Lit(0)),
        (Min(x, y), Lit(k)) => Some(LenTerm::min_of(sub(x, &Lit(*k))?, sub(y, &Lit(*k))?)),
        _ => None,
    }
}

/// Decides `a < b` when the terms are comparable: literals, same-root
/// `Len` offsets, identical terms (`x < x` is false), and `Min`
/// distribution. `None` means "unknown" — the quiet answer.
pub fn cmp_lt(a: &LenTerm, b: &LenTerm) -> Option<bool> {
    use LenTerm::*;
    if a == b {
        return Some(false);
    }
    match (a, b) {
        (Top, _) | (_, Top) => None,
        (Lit(x), Lit(y)) => Some(x < y),
        (Len(r1, o1), Len(r2, o2)) if r1 == r2 => Some(o1 < o2),
        // min(x, y) < b  ⟺  x < b  ∨  y < b
        (Min(x, y), _) => match (cmp_lt(x, b), cmp_lt(y, b)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        // a < min(x, y)  ⟺  a < x  ∧  a < y
        (_, Min(x, y)) => match (cmp_lt(a, x), cmp_lt(a, y)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        _ => None,
    }
}

/// Decides `a <= b` when comparable (`¬(b < a)`).
pub fn cmp_le(a: &LenTerm, b: &LenTerm) -> Option<bool> {
    cmp_lt(b, a).map(|x| !x)
}

/// Decides `a == b` when comparable. Distinct-root `Len`s are `None`
/// (unknown), not `false` — only same-root offsets can *refute*.
pub fn cmp_eq(a: &LenTerm, b: &LenTerm) -> Option<bool> {
    use LenTerm::*;
    if a == b {
        return match a {
            Top => None,
            _ => Some(true),
        };
    }
    match (a, b) {
        (Lit(x), Lit(y)) => Some(x == y),
        (Len(r1, o1), Len(r2, o2)) if r1 == r2 => Some(o1 == o2),
        _ => None,
    }
}

/// Per-variable fact: the tracked scalar (length for sequence values,
/// value for integer bindings) plus its witness trace (decl → flow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeFact {
    /// The symbolic term.
    pub term: LenTerm,
    /// Witness lineage frames, decl site first.
    pub trace: Vec<String>,
}

impl Default for ShapeFact {
    fn default() -> Self {
        ShapeFact {
            term: LenTerm::Top,
            trace: Vec::new(),
        }
    }
}

/// Flat per-function environment: variable/path → fact, plus the
/// generation stamp of each rebound/mutated path (statement id + 1 —
/// a *fixed* value per statement, so the transfer is idempotent and
/// the fixpoint terminates).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShapeEnv {
    /// Tracked facts, keyed by rendered path (`x`, `self.rows`).
    pub vars: BTreeMap<String, ShapeFact>,
    /// Generation stamps; absent means generation 0.
    pub gens: BTreeMap<String, u32>,
}

/// What a shape sink saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeEventKind {
    /// R16: `.zip()` lockstep whose operand lengths are not provably
    /// equal (rendered operand descriptors for the message).
    ZipUnproven {
        /// Left operand (receiver chain), rendered.
        left: String,
        /// Right operand (zip argument), rendered.
        right: String,
    },
    /// R17: `v[i]` where `i < len(v)` is provably false.
    IndexOob {
        /// Indexed path.
        target: String,
        /// Rendered index term.
        index: String,
        /// Rendered length term.
        len: String,
    },
    /// R17: `v[a..b]` where a bound provably exceeds the length (or
    /// the start provably exceeds the end).
    SliceOob {
        /// Sliced path.
        target: String,
        /// Rendered offending bound.
        bound: String,
        /// Rendered limit it exceeds.
        len: String,
    },
    /// R18: a call that provably violates the callee's inferred shape
    /// contract (`Len(param a) = Len(param b)`).
    ContractMismatch {
        /// Callee name.
        callee: String,
        /// First argument position (0-based, as passed).
        a_pos: usize,
        /// Second argument position.
        b_pos: usize,
        /// Rendered length of argument `a_pos`.
        a_len: String,
        /// Rendered length of argument `b_pos`.
        b_len: String,
    },
}

/// One sink event with its witness trace.
#[derive(Debug, Clone)]
pub struct ShapeEvent {
    /// What was seen.
    pub kind: ShapeEventKind,
    /// 1-based source line of the sink token.
    pub line: u32,
    /// Witness frames (decl → flow), capped like the dataflow traces.
    pub trace: Vec<String>,
}

/// Traces are witnesses, not histories — same cap as the dataflow pass.
const MAX_TRACE: usize = 6;

/// Adapters that preserve the element count of the chain.
const IDENTITY_ADAPTERS: [&str; 12] = [
    "iter",
    "iter_mut",
    "into_iter",
    "copied",
    "cloned",
    "rev",
    "by_ref",
    "enumerate",
    "map",
    "inspect",
    "peekable",
    "fuse",
];

/// Adapters whose length effect is a pure function of their rendered
/// argument — comparable across the two zip operands as tags.
const TAGGED_ADAPTERS: [&str; 6] = [
    "chunks",
    "chunks_exact",
    "rchunks",
    "windows",
    "skip",
    "step_by",
];

/// Value-identity suffixes `eval_len` sees through.
const LEN_IDENTITY_SUFFIX: [&str; 7] = [
    "clone",
    "to_vec",
    "to_owned",
    "as_slice",
    "as_mut_slice",
    "as_ref",
    "as_mut",
];

/// Receiver methods that change (or may change) a container's length.
const MUTATORS: [&str; 16] = [
    "push",
    "pop",
    "resize",
    "resize_with",
    "truncate",
    "clear",
    "extend",
    "extend_from_slice",
    "insert",
    "remove",
    "swap_remove",
    "drain",
    "retain",
    "append",
    "split_off",
    "dedup",
];

/// Macros whose appearance as a then-branch tail makes the branch
/// divergent for guard purposes.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Runs the shape pass over one body. `code` is the comment-free token
/// slice of the body (outer braces included), `params` the function's
/// parameter names in declaration order (receiver included), `effects`
/// the per-unit callee-effect map carrying inferred shape contracts.
/// Returns line-sorted sink events.
///
/// # Errors
///
/// [`NonConvergence`] if the fixpoint hits the round cap.
pub fn analyze(
    code: &[(usize, &Token)],
    file: &str,
    fn_name: &str,
    fn_line: u32,
    params: &[String],
    effects: &BTreeMap<String, CalleeEffect>,
) -> Result<Vec<ShapeEvent>, NonConvergence> {
    let ir = parse_body(code);
    let cfg = Cfg::build(&ir);
    let a = Analysis {
        code,
        file,
        ir: &ir,
        effects,
    };

    // Entry seeding: every parameter is its own symbolic root. Integer
    // parameters get the same `Len(name, 0)` symbol a default lookup
    // would produce — seeding only adds the decl trace frame.
    let mut seed = ShapeEnv::default();
    for p in params {
        if p == "self" || p.starts_with('<') || p == "_" {
            continue;
        }
        seed.vars.insert(
            p.clone(),
            ShapeFact {
                term: LenTerm::Len(p.clone(), 0),
                trace: vec![format!(
                    "`{p}`: parameter of `{fn_name}` ({file}:{fn_line})"
                )],
            },
        );
    }

    // The lattice is flat per variable and generation stamps are fixed
    // per statement, so the fixpoint settles well inside the round cap.
    let mut events = Vec::new();
    solve(&a, &cfg, seed, |env, sid| {
        a.scan_stmt(env, sid, &mut events)
    })?;
    events.sort_by_key(|e| e.line);
    Ok(events)
}

/// Infers the function's **shape contract**: parameter index pairs
/// (raw — `self` is index 0 for methods) whose lengths the function
/// requires equal. Sources: `assert!`/`assert_eq!` (and their
/// `debug_` twins) over two parameter `.len()`s, plus *forwarding* —
/// passing two parameters straight through to a callee whose own
/// contract pairs them. Early-return `!=` guards are deliberately not
/// contracts: the callee handles the mismatch gracefully, so the
/// caller owes nothing.
pub fn infer_pairs(
    code: &[(usize, &Token)],
    params: &[String],
    effects: &BTreeMap<String, CalleeEffect>,
) -> BTreeSet<(usize, usize)> {
    let h = Scan { code };
    let mut pairs = BTreeSet::new();
    let mut add_pair = |a: Option<usize>, b: Option<usize>| {
        if let (Some(x), Some(y)) = (a, b) {
            if x != y {
                pairs.insert((x.min(y), x.max(y)));
            }
        }
    };
    let param_pos = |name: &str| params.iter().position(|p| p == name);
    // A `<param>.len()` expression, as a parameter position.
    let len_param = |r: &ExprRange| -> Option<usize> {
        let r = h.trim(r.clone());
        if r.end - r.start != 5 {
            return None;
        }
        let name = h.tok(r.start).and_then(Token::ident)?;
        if h.tok(r.start + 1).is_some_and(|t| t.is_punct("."))
            && h.tok(r.start + 2).and_then(Token::ident) == Some("len")
            && h.tok(r.start + 3).is_some_and(|t| t.is_punct("("))
            && h.tok(r.start + 4).is_some_and(|t| t.is_punct(")"))
        {
            param_pos(name)
        } else {
            None
        }
    };
    // A bare-identifier argument (reference stripped), as a position.
    let bare_param = |r: &ExprRange| -> Option<usize> {
        let mut r = h.trim(r.clone());
        while h.tok(r.start).is_some_and(|t| t.is_punct("&"))
            || h.tok(r.start).and_then(Token::ident) == Some("mut")
        {
            r.start += 1;
        }
        if r.end - r.start != 1 {
            return None;
        }
        param_pos(h.tok(r.start).and_then(Token::ident)?)
    };

    let mut i = 0;
    while i + 2 < code.len() {
        let Some(id) = code[i].1.ident() else {
            i += 1;
            continue;
        };
        // assert_eq!(a.len(), b.len(), ..) / assert!(a.len() == b.len())
        if code[i + 1].1.is_punct("!") && code[i + 2].1.is_punct("(") {
            let close = h.match_close(i + 2);
            if matches!(id, "assert_eq" | "debug_assert_eq") {
                let args = h.split_commas(i + 3, close);
                if args.len() >= 2 {
                    add_pair(len_param(&args[0]), len_param(&args[1]));
                }
            } else if matches!(id, "assert" | "debug_assert") {
                let args = h.split_commas(i + 3, close);
                if let Some(arg) = args.first() {
                    if let Some((l, r)) = h.split_binop(arg.clone(), "==") {
                        add_pair(len_param(&l), len_param(&r));
                    }
                }
            }
            i = close + 1;
            continue;
        }
        // Forwarding: g(x, y) where g's contract pairs (i, j) and both
        // arguments are bare parameters.
        if code[i + 1].1.is_punct("(") {
            if let Some(eff) = effects.get(id) {
                if !eff.shape_pairs.is_empty() {
                    let close = h.match_close(i + 1);
                    let args = h.split_commas(i + 2, close);
                    for &(x, y) in &eff.shape_pairs {
                        if x < args.len() && y < args.len() {
                            add_pair(bare_param(&args[x]), bare_param(&args[y]));
                        }
                    }
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    pairs
}

/// Token-walking helpers shared by [`infer_pairs`] and the body
/// analysis (no environment, pure syntax).
struct Scan<'a> {
    code: &'a [(usize, &'a Token)],
}

impl Scan<'_> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.code.get(i).map(|&(_, t)| t)
    }

    /// Index of the punct matching the opener at `open`.
    fn match_close(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for i in open..self.code.len() {
            let t = self.code[i].1;
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        self.code.len().saturating_sub(1)
    }

    /// Index of the punct matching the closer at `close`, walking left.
    fn match_open(&self, close: usize) -> usize {
        let mut depth = 0usize;
        let mut i = close;
        loop {
            let t = self.code[i].1;
            if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth += 1;
            } else if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            if i == 0 {
                return 0;
            }
            i -= 1;
        }
    }

    /// Splits `[start, end)` on depth-0 commas.
    fn split_commas(&self, start: usize, end: usize) -> Vec<ExprRange> {
        let mut out = Vec::new();
        let mut depth = 0usize;
        let mut seg = start;
        for i in start..end.min(self.code.len()) {
            let t = self.code[i].1;
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct(",") {
                out.push(seg..i);
                seg = i + 1;
            }
        }
        if seg < end {
            out.push(seg..end);
        }
        out
    }

    /// Strips one level of fully-enclosing parentheses, repeatedly.
    fn trim(&self, mut r: ExprRange) -> ExprRange {
        loop {
            if r.end > r.start + 1
                && self.tok(r.start).is_some_and(|t| t.is_punct("("))
                && self.match_close(r.start) == r.end - 1
            {
                r = r.start + 1..r.end - 1;
            } else {
                return r;
            }
        }
    }

    /// Splits on the *last* depth-0 occurrence of binary `op` (not in
    /// leading position).
    fn split_binop(&self, r: ExprRange, op: &str) -> Option<(ExprRange, ExprRange)> {
        let r = self.trim(r);
        let mut depth = 0usize;
        let mut at = None;
        for i in r.clone() {
            let t = self.tok(i)?;
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") || t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") || t.is_punct(">") {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && i > r.start && t.is_punct(op) {
                at = Some(i);
            }
        }
        at.map(|i| (r.start..i, i + 1..r.end))
    }
}

/// One zip-operand descriptor: the base sequence's length term, its
/// stable rendered text, and the adapter chain applied to it.
struct Desc {
    base: LenTerm,
    base_text: String,
    adapters: Vec<String>,
    /// A data-dependent-length adapter was seen: not a lockstep
    /// assumption, skip the site.
    opaque: bool,
    /// A deliberate bounding construct (`take`, a range literal,
    /// `repeat`/`cycle`/`once`): truncation is the point, skip.
    bounded: bool,
    /// Element count when the adapter chain preserves it (identity
    /// adapters and `zip` folding to `Min`).
    len: Option<LenTerm>,
    /// The base path's root is a name the statement-level dataflow
    /// never bound — a closure parameter or closure-internal local
    /// (e.g. the chunk accumulators inside `par_chunks_reduce`
    /// callbacks). The analysis cannot reason about it; R16 skips the
    /// site (accepted imprecision, see DESIGN.md).
    foreign: bool,
    trace: Vec<String>,
    display: String,
}

struct Analysis<'a> {
    code: &'a [(usize, &'a Token)],
    file: &'a str,
    ir: &'a BodyIr,
    effects: &'a BTreeMap<String, CalleeEffect>,
}

impl Forward for Analysis<'_> {
    type Env = ShapeEnv;
    const ENGINE: &'static str = "shape";

    fn transfer(&self, env: &mut ShapeEnv, sid: StmtId) {
        let stmt = &self.ir.stmts[sid];
        let line = stmt.line;
        match &stmt.kind {
            StmtKind::Let { names, init } => match (names.len(), init) {
                (1, Some(init)) => {
                    let name = names[0].clone();
                    let term = self.eval_any(env, init.clone());
                    let frame = format!(
                        "`{name}` = {} ({}:{line})",
                        self.snippet(init.clone()),
                        self.file
                    );
                    if term == LenTerm::Top {
                        self.bind_fresh(env, &name, frame, sid);
                    } else {
                        self.bind(env, &name, term, frame, sid);
                    }
                }
                (2, Some(init)) if self.split_at_parts(init.clone()).is_some() => {
                    let (seq, n_r) = self.split_at_parts(init.clone()).unwrap();
                    let n_t = self.eval_int(env, n_r);
                    let total = self.eval_len(env, seq);
                    let rest = sub(&total, &n_t);
                    let frame = |nm: &str| {
                        format!(
                            "`{nm}` = {} ({}:{line})",
                            self.snippet(init.clone()),
                            self.file
                        )
                    };
                    if n_t == LenTerm::Top {
                        self.bind_fresh(env, &names[0].clone(), frame(&names[0]), sid);
                    } else {
                        self.bind(env, &names[0].clone(), n_t, frame(&names[0]), sid);
                    }
                    match rest {
                        Some(t) => self.bind(env, &names[1].clone(), t, frame(&names[1]), sid),
                        None => self.bind_fresh(env, &names[1].clone(), frame(&names[1]), sid),
                    }
                }
                _ => {
                    for n in names.clone() {
                        self.kill(env, &n, sid);
                    }
                }
            },
            StmtKind::Const { name, init } => {
                let name = name.clone();
                let term = self.eval_any(env, init.clone());
                let frame = format!(
                    "`{name}` = {} ({}:{line})",
                    self.snippet(init.clone()),
                    self.file
                );
                if term == LenTerm::Top {
                    self.bind_fresh(env, &name, frame, sid);
                } else {
                    self.bind(env, &name, term, frame, sid);
                }
            }
            StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => {
                if self.tok(cond.start).and_then(Token::ident) == Some("let") {
                    // if-let / while-let: the pattern binders shadow.
                    if let Some((pat, _)) = self.s().split_binop(cond.clone(), "=") {
                        for n in pattern_binders(self.code, pat.start + 1..pat.end) {
                            self.kill(env, &n, sid);
                        }
                    }
                }
                self.mutation_scan(env, cond.clone(), sid);
            }
            StmtKind::Loop { .. } | StmtKind::BlockStmt { .. } => {}
            StmtKind::For { names, iter, .. } => {
                self.mutation_scan(env, iter.clone(), sid);
                if names.len() == 1 {
                    let frame = format!(
                        "`{}` iterates {} ({}:{line})",
                        names[0],
                        self.snippet(iter.clone()),
                        self.file
                    );
                    self.bind_fresh(env, &names[0].clone(), frame, sid);
                } else {
                    for n in names.clone() {
                        self.kill(env, &n, sid);
                    }
                }
            }
            StmtKind::Match { scrutinee, arms } => {
                self.mutation_scan(env, scrutinee.clone(), sid);
                let binders: Vec<String> =
                    arms.iter().flat_map(|a| a.names.iter().cloned()).collect();
                for n in binders {
                    self.kill(env, &n, sid);
                }
            }
            StmtKind::Expr { range } => self.expr_transfer(env, range.clone(), sid, line),
        }
    }

    /// Terms join flat (disagreement → `Top`), the first non-empty trace
    /// wins, generations take the max. Variables missing on one side are
    /// unioned in — see the module docs for why that is acceptable.
    fn join(dst: &mut ShapeEnv, src: &ShapeEnv) -> bool {
        let mut changed = false;
        for (k, f) in &src.vars {
            match dst.vars.get_mut(k) {
                None => {
                    dst.vars.insert(k.clone(), f.clone());
                    changed = true;
                }
                Some(d) => {
                    let joined = d.term.join(&f.term);
                    if joined != d.term {
                        d.term = joined;
                        changed = true;
                    }
                    if d.trace.is_empty() && !f.trace.is_empty() {
                        d.trace = f.trace.clone();
                        changed = true;
                    }
                }
            }
        }
        for (k, &g) in &src.gens {
            let cur = dst.gens.get(k).copied().unwrap_or(0);
            if g > cur {
                dst.gens.insert(k.clone(), g);
                changed = true;
            }
        }
        changed
    }

    /// Edge-sensitive refinement from a block-terminating guard.
    /// Returns (then-edge env, fallthrough env); `None` means "use the
    /// unrefined block-exit env".
    ///
    /// `a == b` guards refine only the then edge (succs[0]). `a != b`
    /// guards whose then-block diverges (return / panic) refine *all*
    /// edges — refining only the fallthrough would be destroyed when
    /// the unrefined then-branch env merges back at the join block,
    /// and polluting a returning branch is harmless.
    fn edge_envs(&self, env: &ShapeEnv, stmts: &[StmtId]) -> (Option<ShapeEnv>, Option<ShapeEnv>) {
        let Some(&last) = stmts.last() else {
            return (None, None);
        };
        let stmt = &self.ir.stmts[last];
        let (cond, then_block, line) = match &stmt.kind {
            StmtKind::If {
                cond, then_block, ..
            } => (cond.clone(), Some(*then_block), stmt.line),
            StmtKind::While { cond, .. } => (cond.clone(), None, stmt.line),
            _ => return (None, None),
        };
        if self.tok(cond.start).and_then(Token::ident) == Some("let") {
            return (None, None);
        }
        if let Some((l, r)) = self.s().split_binop(cond.clone(), "==") {
            let mut e = env.clone();
            self.unify(&mut e, l, r, line);
            return (Some(e), None);
        }
        if let Some((l, r)) = self.s().split_binop(cond.clone(), "!=") {
            if then_block.map(|b| self.diverges(b)).unwrap_or(false) {
                let mut e = env.clone();
                self.unify(&mut e, l, r, line);
                return (Some(e.clone()), Some(e));
            }
        }
        (None, None)
    }
}

impl Analysis<'_> {
    fn s(&self) -> Scan<'_> {
        Scan { code: self.code }
    }

    fn tok(&self, i: usize) -> Option<&Token> {
        self.code.get(i).map(|&(_, t)| t)
    }

    /// Tight-spaced join of rendered token pieces: no blank around
    /// `.`/`::`, none after openers or before closers/commas.
    fn glue(pieces: &[String]) -> String {
        let mut out = String::new();
        let mut no_space = true;
        for p in pieces {
            let tight_before = matches!(p.as_str(), "." | "::" | ")" | "]" | "," | ";" | "(" | "[");
            if !no_space && !tight_before {
                out.push(' ');
            }
            out.push_str(p);
            no_space = matches!(p.as_str(), "." | "::" | "(" | "[");
        }
        out
    }

    /// Raw source snippet for traces/messages (any tokens, truncated).
    fn snippet(&self, r: ExprRange) -> String {
        let mut pieces = Vec::new();
        for i in r {
            let Some(t) = self.tok(i) else { break };
            pieces.push(match &t.kind {
                TokenKind::Ident(s) => s.clone(),
                TokenKind::Number { text, .. } => text.clone(),
                TokenKind::Literal(s) => s.clone(),
                TokenKind::Punct(p) => p.clone(),
                _ => "?".to_string(),
            });
        }
        let mut out = Self::glue(&pieces);
        if out.chars().count() > 60 {
            out = out.chars().take(59).collect::<String>() + "…";
        }
        out
    }

    /// Stable, generation-aware render of an arithmetic expression.
    /// `None` when the range holds anything beyond identifiers,
    /// integer literals and plain arithmetic punctuation — such text
    /// cannot be trusted as a value-identity witness.
    fn render_expr(&self, env: &ShapeEnv, r: ExprRange) -> Option<String> {
        if r.is_empty() {
            return None;
        }
        let mut pieces = Vec::new();
        for i in r {
            let t = self.tok(i)?;
            pieces.push(match &t.kind {
                TokenKind::Ident(s) => match env.gens.get(s.as_str()) {
                    Some(&g) if g > 0 => format!("{s}@{g}"),
                    _ => s.clone(),
                },
                TokenKind::Number { float: false, text } => text.clone(),
                TokenKind::Punct(p) if matches!(p.as_str(), "+" | "-" | "*" | "/" | "%" | ".") => {
                    p.clone()
                }
                _ => return None,
            });
        }
        Some(Self::glue(&pieces))
    }

    /// Dotted identifier path (`x`, `self.rows`) or `None`.
    fn path_of(&self, r: ExprRange) -> Option<String> {
        let r = self.s().trim(r);
        if r.is_empty() {
            return None;
        }
        let mut out = String::new();
        let mut expect_ident = true;
        for i in r {
            let t = self.tok(i)?;
            if expect_ident {
                out.push_str(t.ident()?);
            } else {
                if !t.is_punct(".") {
                    return None;
                }
                out.push('.');
            }
            expect_ident = !expect_ident;
        }
        if expect_ident {
            None
        } else {
            Some(out)
        }
    }

    /// Longest pure path ending just before `end` (walking left), with
    /// its start index.
    fn path_back(&self, lo: usize, end: usize) -> Option<(usize, String)> {
        let mut k = end;
        self.tok(k.checked_sub(1)?)?.ident()?;
        k -= 1;
        while k >= lo + 2
            && self.tok(k - 1).is_some_and(|t| t.is_punct("."))
            && self.tok(k - 2).and_then(Token::ident).is_some()
            && !(k >= lo + 3 && self.tok(k - 3).is_some_and(|t| t.is_punct(".")))
        {
            k -= 2;
        }
        self.path_of(k..end).map(|p| (k, p))
    }

    /// The current term for `path`: its tracked fact, or a fresh
    /// generation-stamped symbol (two lookups of an untouched path
    /// always agree).
    fn lookup(&self, env: &ShapeEnv, path: &str) -> (LenTerm, Vec<String>) {
        let trace = env
            .vars
            .get(path)
            .map(|f| f.trace.clone())
            .unwrap_or_default();
        if let Some(f) = env.vars.get(path) {
            if f.term != LenTerm::Top {
                return (f.term.clone(), trace);
            }
        }
        let g = env.gens.get(path).copied().unwrap_or(0);
        let root = if g > 0 {
            format!("{path}@{g}")
        } else {
            path.to_string()
        };
        (LenTerm::Len(root, 0), trace)
    }

    fn int_lit(&self, i: usize) -> Option<i64> {
        match &self.tok(i)?.kind {
            TokenKind::Number { float: false, text } => {
                let digits: String = text
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '_')
                    .filter(|&c| c != '_')
                    .collect();
                digits.parse().ok()
            }
            _ => None,
        }
    }

    /// First depth-0 `..`/`..=` in `r` → `(lo, hi, inclusive)`.
    fn range_split(&self, r: ExprRange) -> Option<(ExprRange, ExprRange, bool)> {
        let mut depth = 0usize;
        let mut i = r.start;
        while i + 1 < r.end {
            let t = self.tok(i)?;
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth = depth.saturating_sub(1);
            } else if depth == 0
                && t.is_punct(".")
                && self.tok(i + 1).is_some_and(|t| t.is_punct("."))
            {
                let incl = self.tok(i + 2).is_some_and(|t| t.is_punct("="));
                let hi = if incl { i + 3 } else { i + 2 };
                return Some((r.start..i, hi..r.end, incl));
            }
            i += 1;
        }
        None
    }

    /// Evaluates an integer-valued expression to a term.
    fn eval_int(&self, env: &ShapeEnv, r: ExprRange) -> LenTerm {
        let r = self.s().trim(r);
        let n = r.end.saturating_sub(r.start);
        if n == 0 {
            return LenTerm::Top;
        }
        if n == 1 {
            if let Some(v) = self.int_lit(r.start) {
                return LenTerm::Lit(v);
            }
            if let Some(id) = self.tok(r.start).and_then(Token::ident) {
                return self.lookup(env, id).0;
            }
            return LenTerm::Top;
        }
        if n == 2 && self.tok(r.start).is_some_and(|t| t.is_punct("-")) {
            if let Some(v) = self.int_lit(r.start + 1) {
                return LenTerm::Lit(-v);
            }
        }
        if let Some(p) = self.path_of(r.clone()) {
            return self.lookup(env, &p).0;
        }
        // Last depth-0 binary `+`/`-` whose left neighbor is a value.
        let mut depth = 0usize;
        let mut at: Option<(usize, bool)> = None;
        for i in r.clone() {
            let Some(t) = self.tok(i) else { break };
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && i > r.start && (t.is_punct("+") || t.is_punct("-")) {
                let prev = self.tok(i - 1);
                let value_left = prev.is_some_and(|p| {
                    p.ident().is_some()
                        || matches!(p.kind, TokenKind::Number { .. })
                        || p.is_punct(")")
                        || p.is_punct("]")
                });
                if value_left {
                    at = Some((i, t.is_punct("+")));
                }
            }
        }
        if let Some((i, plus)) = at {
            let l = self.eval_int(env, r.start..i);
            let rr = self.eval_int(env, i + 1..r.end);
            let folded = if plus { add(&l, &rr) } else { sub(&l, &rr) };
            if let Some(t) = folded {
                return t;
            }
        }
        // `<seq>.len()` suffix.
        if n >= 4
            && self.tok(r.end - 1).is_some_and(|t| t.is_punct(")"))
            && self.tok(r.end - 2).is_some_and(|t| t.is_punct("("))
            && self.tok(r.end - 3).and_then(Token::ident) == Some("len")
            && self.tok(r.end - 4).is_some_and(|t| t.is_punct("."))
        {
            return self.eval_len(env, r.start..r.end - 4);
        }
        // `<a>.min(<b>)` suffix.
        if self.tok(r.end - 1).is_some_and(|t| t.is_punct(")")) {
            let open = self.s().match_open(r.end - 1);
            if open >= r.start + 2
                && self.tok(open - 1).and_then(Token::ident) == Some("min")
                && self.tok(open - 2).is_some_and(|t| t.is_punct("."))
            {
                let a = self.eval_int(env, r.start..open - 2);
                let b = self.eval_int(env, open + 1..r.end - 1);
                return LenTerm::min_of(a, b);
            }
        }
        match self.render_expr(env, r) {
            Some(text) => LenTerm::Expr(text),
            None => LenTerm::Top,
        }
    }

    /// Evaluates a sequence-valued expression to its length term.
    fn eval_len(&self, env: &ShapeEnv, r: ExprRange) -> LenTerm {
        let mut r = self.s().trim(r);
        while self.tok(r.start).is_some_and(|t| t.is_punct("&"))
            || self.tok(r.start).and_then(Token::ident) == Some("mut")
        {
            r.start += 1;
        }
        r = self.s().trim(r);
        if r.is_empty() {
            return LenTerm::Top;
        }
        // See through value-identity / count-identity method suffixes.
        loop {
            if r.end >= r.start + 4 && self.tok(r.end - 1).is_some_and(|t| t.is_punct(")")) {
                let open = self.s().match_open(r.end - 1);
                if open >= r.start + 2
                    && self.tok(open - 2).is_some_and(|t| t.is_punct("."))
                    && self.tok(open - 1).and_then(Token::ident).is_some_and(|m| {
                        LEN_IDENTITY_SUFFIX.contains(&m) || IDENTITY_ADAPTERS.contains(&m)
                    })
                {
                    r.end = open - 2;
                    continue;
                }
            }
            break;
        }
        if let Some(p) = self.path_of(r.clone()) {
            return self.lookup(env, &p).0;
        }
        if self.tok(r.end - 1).is_some_and(|t| t.is_punct("]")) {
            let open = self.s().match_open(r.end - 1);
            if open <= r.start {
                return LenTerm::Top;
            }
            let inner = open + 1..r.end - 1;
            let prefix = r.start..open;
            if let Some((lo_r, hi_r, incl)) = self.range_split(inner.clone()) {
                let hi_t = if hi_r.is_empty() {
                    self.eval_len(env, prefix.clone())
                } else {
                    self.eval_int(env, hi_r.clone())
                };
                let hi_t = if incl {
                    match add(&hi_t, &LenTerm::Lit(1)) {
                        Some(t) => t,
                        None => LenTerm::Top,
                    }
                } else {
                    hi_t
                };
                let lo_t = if lo_r.is_empty() {
                    LenTerm::Lit(0)
                } else {
                    self.eval_int(env, lo_r.clone())
                };
                if hi_t != LenTerm::Top {
                    if let Some(d) = sub(&hi_t, &lo_t) {
                        return d;
                    }
                    // Textual fallback: `hi - lo` as a stable opaque
                    // expression (both operands must render).
                    let h = if hi_r.is_empty() {
                        Some(hi_t.render())
                    } else {
                        self.render_expr(env, hi_r)
                    };
                    let l = if lo_r.is_empty() {
                        Some("0".to_string())
                    } else {
                        self.render_expr(env, lo_r)
                    };
                    if let (Some(h), Some(l)) = (h, l) {
                        let plus = if incl { " + 1" } else { "" };
                        return LenTerm::Expr(format!("{h}{plus} - {l}"));
                    }
                }
                return LenTerm::Top;
            }
            // Plain index: the *element*'s length, as a composite root.
            let base = match self.path_of(prefix.clone()) {
                Some(p) => p,
                None => return LenTerm::Top,
            };
            let Some(idx) = self.render_expr(env, inner) else {
                return LenTerm::Top;
            };
            let g = env.gens.get(&base).copied().unwrap_or(0);
            let broot = if g > 0 { format!("{base}@{g}") } else { base };
            return self.lookup(env, &format!("{broot}[{idx}]")).0;
        }
        LenTerm::Top
    }

    /// Evaluates a `let` initializer: constructors (`vec![_; n]`,
    /// `with_capacity`), `.collect()` over a descriptor chain, value
    /// copies, slices, or a plain integer expression. `Top` means
    /// "unknown" — the caller binds a fresh symbol instead.
    fn eval_any(&self, env: &ShapeEnv, r: ExprRange) -> LenTerm {
        let mut r = self.s().trim(r);
        while self.tok(r.start).is_some_and(|t| t.is_punct("&"))
            || self.tok(r.start).and_then(Token::ident) == Some("mut")
        {
            r.start += 1;
        }
        r = self.s().trim(r);
        if r.is_empty() {
            return LenTerm::Top;
        }
        // vec![elem; n] / vec![a, b, c]
        if self.tok(r.start).and_then(Token::ident) == Some("vec")
            && self.tok(r.start + 1).is_some_and(|t| t.is_punct("!"))
            && self.tok(r.start + 2).is_some_and(|t| t.is_punct("["))
            && self.s().match_close(r.start + 2) == r.end - 1
        {
            let inner = r.start + 3..r.end - 1;
            if inner.is_empty() {
                return LenTerm::Lit(0);
            }
            let mut depth = 0usize;
            for i in inner.clone() {
                let Some(t) = self.tok(i) else { break };
                if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                    depth = depth.saturating_sub(1);
                } else if depth == 0 && t.is_punct(";") {
                    return self.eval_int(env, i + 1..inner.end);
                }
            }
            let elems = self
                .s()
                .split_commas(inner.start, inner.end)
                .into_iter()
                .filter(|seg| !seg.is_empty())
                .count();
            return LenTerm::Lit(elems as i64);
        }
        if self.tok(r.end - 1).is_some_and(|t| t.is_punct(")")) {
            let open = self.s().match_open(r.end - 1);
            if open > r.start {
                // Walk back over a `::<..>` turbofish to the method name.
                let mut j = open;
                if self.tok(j - 1).is_some_and(|t| t.is_punct(">")) {
                    let mut angle = 0usize;
                    while j > r.start + 1 {
                        j -= 1;
                        let t = self.tok(j);
                        if t.is_some_and(|t| t.is_punct(">")) {
                            angle += 1;
                        } else if t.is_some_and(|t| t.is_punct("<")) {
                            angle -= 1;
                            if angle == 0 {
                                break;
                            }
                        }
                    }
                    if self.tok(j - 1).is_some_and(|t| t.is_punct("::")) {
                        j -= 1;
                    }
                }
                if let Some(m) = self.tok(j.wrapping_sub(1)).and_then(Token::ident) {
                    if m == "with_capacity" {
                        return self.eval_int(env, open + 1..r.end - 1);
                    }
                    if m == "collect" && j >= r.start + 2 {
                        let d = self.operand(env, r.start..j - 2);
                        return match d.len {
                            Some(t) if !d.opaque && !d.bounded => t,
                            _ => LenTerm::Top,
                        };
                    }
                }
            }
        }
        let t = self.eval_len(env, r.clone());
        if t != LenTerm::Top {
            return t;
        }
        self.eval_int(env, r)
    }

    fn bind(&self, env: &mut ShapeEnv, name: &str, term: LenTerm, frame: String, sid: StmtId) {
        env.gens.insert(name.to_string(), (sid + 1) as u32);
        let mut trace = vec![frame];
        trace.truncate(MAX_TRACE);
        env.vars.insert(name.to_string(), ShapeFact { term, trace });
    }

    /// Rebinds `name` to a fresh generation-stamped symbol.
    fn bind_fresh(&self, env: &mut ShapeEnv, name: &str, frame: String, sid: StmtId) {
        let root = format!("{name}@{}", sid + 1);
        self.bind(env, name, LenTerm::Len(root, 0), frame, sid);
    }

    /// Forgets everything about `name` (fresh generation, no fact).
    fn kill(&self, env: &mut ShapeEnv, name: &str, sid: StmtId) {
        env.gens.insert(name.to_string(), (sid + 1) as u32);
        env.vars.remove(name);
    }

    /// `<seq>.split_at(<n>)` / `split_at_mut` → (seq range, n range).
    fn split_at_parts(&self, r: ExprRange) -> Option<(ExprRange, ExprRange)> {
        let r = self.s().trim(r);
        if !self.tok(r.end.checked_sub(1)?)?.is_punct(")") {
            return None;
        }
        let open = self.s().match_open(r.end - 1);
        if open < r.start + 2 {
            return None;
        }
        let m = self.tok(open - 1).and_then(Token::ident)?;
        if !matches!(m, "split_at" | "split_at_mut") || !self.tok(open - 2)?.is_punct(".") {
            return None;
        }
        Some((r.start..open - 2, open + 1..r.end - 1))
    }

    fn expr_transfer(&self, env: &mut ShapeEnv, r: ExprRange, sid: StmtId, line: u32) {
        if self.assert_transfer(env, r.clone(), line) {
            return;
        }
        // Assignment: depth-0 `=` that is not `..=`, `=>`, or part of a
        // fused comparison (those lex as single tokens).
        let mut depth = 0usize;
        for i in r.clone() {
            let Some(t) = self.tok(i) else { break };
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && i > r.start && t.is_punct("=") {
                if self.tok(i + 1).is_some_and(|t| t.is_punct(">")) {
                    continue; // `=>`
                }
                let prev = self.tok(i - 1);
                if prev.is_some_and(|t| t.is_punct(".")) {
                    continue; // `..=`
                }
                let compound = prev.and_then(|t| match &t.kind {
                    TokenKind::Punct(p)
                        if matches!(
                            p.as_str(),
                            "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^" | "<" | ">"
                        ) =>
                    {
                        Some(p.clone())
                    }
                    _ => None,
                });
                match compound {
                    Some(op) => {
                        let Some(path) = self.path_of(r.start..i - 1) else {
                            break;
                        };
                        let k = self.eval_int(env, i + 1..r.end);
                        let folded = match (op.as_str(), &k) {
                            ("+", LenTerm::Lit(_)) => {
                                env.vars.get(&path).and_then(|f| add(&f.term, &k))
                            }
                            ("-", LenTerm::Lit(_)) => {
                                env.vars.get(&path).and_then(|f| sub(&f.term, &k))
                            }
                            _ => None,
                        };
                        match folded {
                            Some(t) => {
                                env.gens.insert(path.clone(), (sid + 1) as u32);
                                if let Some(f) = env.vars.get_mut(&path) {
                                    f.term = t;
                                }
                            }
                            None => self.kill(env, &path, sid),
                        }
                    }
                    None => match self.path_of(r.start..i) {
                        Some(path) => {
                            let term = self.eval_any(env, i + 1..r.end);
                            let frame = format!(
                                "`{path}` = {} ({}:{line})",
                                self.snippet(i + 1..r.end),
                                self.file
                            );
                            if term == LenTerm::Top {
                                self.bind_fresh(env, &path, frame, sid);
                            } else {
                                self.bind(env, &path, term, frame, sid);
                            }
                        }
                        // `v[i] = x` and friends: element write, the
                        // length is untouched.
                        None => self.mutation_scan(env, r.clone(), sid),
                    },
                }
                return;
            }
        }
        self.mutation_scan(env, r, sid);
    }

    /// Recognizes `assert!`/`assert_eq!` (and `debug_` twins) as
    /// length-unification facts. Returns true when the statement was
    /// an assert macro (handled).
    fn assert_transfer(&self, env: &mut ShapeEnv, r: ExprRange, line: u32) -> bool {
        let Some(id) = self.tok(r.start).and_then(Token::ident) else {
            return false;
        };
        if !self.tok(r.start + 1).is_some_and(|t| t.is_punct("!"))
            || !self.tok(r.start + 2).is_some_and(|t| t.is_punct("("))
        {
            return false;
        }
        let close = self.s().match_close(r.start + 2);
        match id {
            "assert_eq" | "debug_assert_eq" => {
                let args = self.s().split_commas(r.start + 3, close);
                if args.len() >= 2 {
                    self.unify(env, args[0].clone(), args[1].clone(), line);
                }
                true
            }
            "assert" | "debug_assert" => {
                let args = self.s().split_commas(r.start + 3, close);
                if let Some(arg) = args.first() {
                    if let Some((l, rr)) = self.s().split_binop(arg.clone(), "==") {
                        self.unify(env, l, rr, line);
                    }
                }
                true
            }
            _ => false,
        }
    }

    /// `<path>.len()` → the path.
    fn len_path(&self, r: ExprRange) -> Option<String> {
        let r = self.s().trim(r);
        if r.end < r.start + 5 {
            return None;
        }
        if self.tok(r.end - 1)?.is_punct(")")
            && self.tok(r.end - 2)?.is_punct("(")
            && self.tok(r.end - 3).and_then(Token::ident) == Some("len")
            && self.tok(r.end - 4)?.is_punct(".")
        {
            self.path_of(r.start..r.end - 4)
        } else {
            None
        }
    }

    /// Unifies the two sides of a proven equality: when one side is a
    /// `<path>.len()` and the other evaluates, the path's length *is*
    /// that term from here on.
    fn unify(&self, env: &mut ShapeEnv, a: ExprRange, b: ExprRange, line: u32) {
        let pa = self.len_path(a.clone());
        let pb = self.len_path(b.clone());
        let ta = self.eval_int(env, a);
        let tb = self.eval_int(env, b);
        let set = |env: &mut ShapeEnv, p: String, t: LenTerm| {
            let frame = format!(
                "`{p}` length proven = {} by guard ({}:{line})",
                t.render(),
                self.file
            );
            let f = env.vars.entry(p).or_default();
            f.term = t;
            if f.trace.len() < MAX_TRACE {
                f.trace.push(frame);
            }
        };
        match (pa, pb) {
            (Some(_), Some(pb)) if ta != LenTerm::Top => set(env, pb, ta),
            (Some(pa), None) if tb != LenTerm::Top => set(env, pa, tb),
            (None, Some(pb)) if ta != LenTerm::Top => set(env, pb, ta),
            _ => {}
        }
    }

    /// Kills facts invalidated by mutation: length-changing receiver
    /// methods, callees that write through `&mut`, and `&mut <path>`
    /// arguments.
    fn mutation_scan(&self, env: &mut ShapeEnv, r: ExprRange, sid: StmtId) {
        let mut i = r.start;
        while i < r.end {
            let Some(t) = self.tok(i) else { break };
            if t.is_punct(".") {
                if let Some(m) = self.tok(i + 1).and_then(Token::ident) {
                    if self.tok(i + 2).is_some_and(|t| t.is_punct("(")) {
                        let mutates = MUTATORS.contains(&m)
                            || self.effects.get(m).is_some_and(|e| e.mutates_params);
                        if mutates {
                            if let Some((_, path)) = self.path_back(r.start, i) {
                                self.kill(env, &path, sid);
                            }
                        }
                    }
                }
            } else if t.is_punct("&") && self.tok(i + 1).and_then(Token::ident) == Some("mut") {
                let mut j = i + 2;
                if self.tok(j).and_then(Token::ident).is_some() {
                    while j + 2 < r.end
                        && self.tok(j + 1).is_some_and(|t| t.is_punct("."))
                        && self.tok(j + 2).and_then(Token::ident).is_some()
                        && !self.tok(j + 3).is_some_and(|t| t.is_punct("("))
                    {
                        j += 2;
                    }
                    if let Some(path) = self.path_of(i + 2..j + 1) {
                        self.kill(env, &path, sid);
                    }
                }
            }
            i += 1;
        }
    }

    /// Walks left from `dot_i` (a `.` token) to the start of the
    /// receiver chain: ident / `)` / `]` groups joined by `.` / `::`.
    fn chain_start(&self, lo: usize, dot_i: usize) -> usize {
        let mut i = dot_i;
        loop {
            if i <= lo {
                return lo;
            }
            let Some(t) = self.tok(i - 1) else { return i };
            if t.is_punct(")") || t.is_punct("]") {
                let open = self.s().match_open(i - 1);
                if open >= i - 1 || open < lo {
                    return i;
                }
                i = open;
                continue;
            }
            if t.ident().is_some() || matches!(&t.kind, TokenKind::Number { .. }) {
                i -= 1;
                // Separator before this segment?
                if i > lo {
                    let p = self.tok(i - 1);
                    let dot = p.is_some_and(|t| t.is_punct("."));
                    let dbl = dot && i >= 2 && self.tok(i - 2).is_some_and(|t| t.is_punct("."));
                    if (dot && !dbl) || p.is_some_and(|t| t.is_punct("::")) {
                        i -= 1;
                        continue;
                    }
                }
                return i;
            }
            if t.is_punct("&") || t.ident() == Some("mut") {
                i -= 1;
                continue;
            }
            return i;
        }
    }

    /// Classifies one `.zip()` operand into a descriptor: the base
    /// sequence's length, the adapter tags applied on top, and whether
    /// anything opaque or length-bounding intervened.
    fn operand(&self, env: &ShapeEnv, r: ExprRange) -> Desc {
        let mut r = self.s().trim(r);
        while self.tok(r.start).is_some_and(|t| t.is_punct("&"))
            || self.tok(r.start).and_then(Token::ident) == Some("mut")
        {
            r.start += 1;
        }
        r = self.s().trim(r);
        let display = self.snippet(r.clone());
        let mut d = Desc {
            base: LenTerm::Top,
            base_text: String::new(),
            adapters: Vec::new(),
            opaque: false,
            bounded: false,
            len: None,
            foreign: false,
            trace: Vec::new(),
            display,
        };
        if r.is_empty() {
            d.opaque = true;
            return d;
        }
        // Find the first depth-0 `.method(` split point.
        let mut split = r.end;
        let mut depth = 0usize;
        let mut i = r.start;
        while i < r.end {
            let Some(t) = self.tok(i) else { break };
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth = depth.saturating_sub(1);
            } else if depth == 0
                && t.is_punct(".")
                && !self.tok(i + 1).is_some_and(|t| t.is_punct("."))
                && !self.tok(i.wrapping_sub(1)).is_some_and(|t| t.is_punct("."))
            {
                let m = self.tok(i + 1).and_then(Token::ident);
                let called = self.tok(i + 2).is_some_and(|t| t.is_punct("("))
                    || (self.tok(i + 2).is_some_and(|t| t.is_punct("::")) && m.is_some());
                if m.is_some() && called {
                    split = i;
                    break;
                }
            }
            i += 1;
        }
        let base_r = r.start..split;
        d.base = self.eval_len(env, base_r.clone());
        d.base_text = self
            .render_expr(env, base_r.clone())
            .unwrap_or_else(|| self.snippet(base_r.clone()));
        if let Some(p) = self.path_of(base_r.clone()) {
            if let Some(f) = env.vars.get(&p) {
                d.trace = f.trace.clone();
            }
            let root = p.split('.').next().unwrap_or(p.as_str());
            d.foreign = root != "self"
                && !env.vars.contains_key(root)
                && !env.gens.contains_key(root)
                && !env.vars.contains_key(&p)
                && !env.gens.contains_key(&p);
        }
        // Range-literal base (`(0..n)`) or repeat/cycle/once: zipping
        // against one is an intentional pairing, not a lockstep
        // assumption — skip for R16. Slice ranges (`x[..n]`) do NOT
        // count: the opener stack excludes anything inside `[...]`.
        {
            let mut openers: Vec<&str> = Vec::new();
            let mut j = base_r.start;
            while j < base_r.end {
                let Some(t) = self.tok(j) else { break };
                if t.is_punct("(") {
                    openers.push("(");
                } else if t.is_punct("[") {
                    openers.push("[");
                } else if t.is_punct("{") {
                    openers.push("{");
                } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                    openers.pop();
                } else if (openers.last() != Some(&"[")
                    && t.is_punct(".")
                    && self.tok(j + 1).is_some_and(|t| t.is_punct(".")))
                    || matches!(t.ident(), Some("repeat" | "cycle" | "once"))
                {
                    d.bounded = true;
                }
                j += 1;
            }
        }
        if d.base != LenTerm::Top {
            d.len = Some(d.base.clone());
        }
        // Walk the adapter chain.
        let mut i = split;
        while i < r.end {
            if !self.tok(i).is_some_and(|t| t.is_punct(".")) {
                break;
            }
            let Some(m) = self.tok(i + 1).and_then(Token::ident) else {
                break;
            };
            let mut args_open = i + 2;
            // Skip a `::<..>` turbofish.
            if self.tok(args_open).is_some_and(|t| t.is_punct("::"))
                && self.tok(args_open + 1).is_some_and(|t| t.is_punct("<"))
            {
                let mut angle = 0usize;
                let mut j = args_open + 1;
                while j < r.end {
                    let t = self.tok(j);
                    if t.is_some_and(|t| t.is_punct("<")) {
                        angle += 1;
                    } else if t.is_some_and(|t| t.is_punct(">")) {
                        angle -= 1;
                        if angle == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                args_open = j + 1;
            }
            if !self.tok(args_open).is_some_and(|t| t.is_punct("(")) {
                break;
            }
            let close = self.s().match_close(args_open);
            if close >= r.end {
                break;
            }
            if IDENTITY_ADAPTERS.contains(&m) || LEN_IDENTITY_SUFFIX.contains(&m) {
                // Length-preserving: no tag.
            } else if m == "take" {
                d.bounded = true;
                d.adapters.push("take".to_string());
                d.len = None;
            } else if m == "zip" {
                let inner = self.operand(env, args_open + 1..close);
                d.adapters.push(format!("zip({})", inner.display));
                d.opaque |= inner.opaque;
                d.bounded |= inner.bounded;
                d.foreign |= inner.foreign;
                d.len = match (&d.len, &inner.len) {
                    (Some(a), Some(b)) => Some(LenTerm::min_of(a.clone(), b.clone())),
                    _ => None,
                };
            } else if TAGGED_ADAPTERS.contains(&m) {
                d.adapters
                    .push(format!("{m}({})", self.snippet(args_open + 1..close)));
                d.len = None;
            } else {
                // filter / flat_map / unknown: opaque.
                d.opaque = true;
                break;
            }
            i = close + 1;
        }
        d
    }

    fn descriptors_equal(&self, a: &Desc, b: &Desc) -> bool {
        if let (Some(la), Some(lb)) = (&a.len, &b.len) {
            if la != &LenTerm::Top && lb != &LenTerm::Top {
                if la == lb {
                    return true;
                }
                if cmp_eq(la, lb) == Some(true) {
                    return true;
                }
            }
        }
        if a.adapters == b.adapters {
            if !a.base_text.is_empty() && a.base_text == b.base_text {
                return true;
            }
            if a.base != LenTerm::Top
                && b.base != LenTerm::Top
                && cmp_eq(&a.base, &b.base) == Some(true)
            {
                return true;
            }
        }
        false
    }

    /// True when a block's last statement unconditionally exits:
    /// `return ...` or a panicking macro.
    fn diverges(&self, block: BlockId) -> bool {
        let Some(&last) = self.ir.blocks[block].stmts.last() else {
            return false;
        };
        let StmtKind::Expr { range } = &self.ir.stmts[last].kind else {
            return false;
        };
        match self.tok(range.start).and_then(Token::ident) {
            Some("return") | Some("break") | Some("continue") => true,
            Some(id) => {
                PANIC_MACROS.contains(&id)
                    && self.tok(range.start + 1).is_some_and(|t| t.is_punct("!"))
            }
            None => false,
        }
    }

    /// Walks every expression position of a statement for sinks.
    fn scan_stmt(&self, env: &ShapeEnv, sid: StmtId, events: &mut Vec<ShapeEvent>) {
        let stmt = &self.ir.stmts[sid];
        let ranges = match &stmt.kind {
            StmtKind::Const { init, .. } => vec![init.clone()],
            kind => kind.expr_ranges(),
        };
        for r in ranges {
            self.scan_expr(env, r, stmt.line, events);
        }
    }

    fn scan_expr(&self, env: &ShapeEnv, r: ExprRange, line: u32, events: &mut Vec<ShapeEvent>) {
        self.scan_zips(env, r.clone(), line, events);
        self.scan_indexing(env, r.clone(), line, events);
        self.scan_calls(env, r, line, events);
    }

    /// R16 sink: `.zip()` where the operand descriptors are not
    /// provably length-equal.
    fn scan_zips(&self, env: &ShapeEnv, r: ExprRange, line: u32, events: &mut Vec<ShapeEvent>) {
        for i in r.clone() {
            let Some(t) = self.tok(i) else { break };
            if t.ident() != Some("zip") {
                continue;
            }
            if !self.tok(i.wrapping_sub(1)).is_some_and(|t| t.is_punct(".")) {
                continue;
            }
            if !self.tok(i + 1).is_some_and(|t| t.is_punct("(")) {
                continue;
            }
            let close = self.s().match_close(i + 1);
            if close >= r.end {
                continue;
            }
            let left_r = self.chain_start(r.start, i - 1)..i - 1;
            let right_r = i + 2..close;
            let left = self.operand(env, left_r);
            let right = self.operand(env, right_r);
            if left.opaque || right.opaque || left.bounded || right.bounded {
                continue; // intentional truncation / can't reason
            }
            if left.foreign || right.foreign {
                continue; // closure-scoped operand: outside the domain
            }
            if self.descriptors_equal(&left, &right) {
                continue;
            }
            let mut trace = left.trace.clone();
            for f in &right.trace {
                if trace.len() >= MAX_TRACE {
                    break;
                }
                if !trace.contains(f) {
                    trace.push(f.clone());
                }
            }
            events.push(ShapeEvent {
                kind: ShapeEventKind::ZipUnproven {
                    left: format!(
                        "{} (len {})",
                        left.display,
                        left.len.as_ref().unwrap_or(&LenTerm::Top).render()
                    ),
                    right: format!(
                        "{} (len {})",
                        right.display,
                        right.len.as_ref().unwrap_or(&LenTerm::Top).render()
                    ),
                },
                line,
                trace,
            });
        }
    }

    /// R17 sink: indexing / slicing with a bound provably out of
    /// range. Definite violations only — `Top` never fires.
    fn scan_indexing(&self, env: &ShapeEnv, r: ExprRange, line: u32, events: &mut Vec<ShapeEvent>) {
        for i in r.clone() {
            let Some(t) = self.tok(i) else { break };
            if !t.is_punct("[") {
                continue;
            }
            // Only `expr[...]`, not array literals / attributes.
            let Some(prev) = self.tok(i.wrapping_sub(1)) else {
                continue;
            };
            if prev.ident().is_none() && !prev.is_punct("]") && !prev.is_punct(")") {
                continue;
            }
            if prev
                .ident()
                .is_some_and(|id| matches!(id, "mut" | "let" | "return" | "in" | "as" | "vec"))
            {
                continue;
            }
            let close = self.s().match_close(i);
            if close >= r.end {
                continue;
            }
            let Some((_, target)) = self.path_back(r.start, i) else {
                continue;
            };
            let (len_t, t_trace) = self.lookup(env, &target);
            if len_t == LenTerm::Top {
                continue;
            }
            let inner = i + 1..close;
            if let Some((lo_r, hi_r, incl)) = self.range_split(inner.clone()) {
                let lo = if lo_r.is_empty() {
                    LenTerm::Lit(0)
                } else {
                    self.eval_int(env, lo_r)
                };
                let hi = if hi_r.is_empty() {
                    len_t.clone()
                } else {
                    let h = self.eval_int(env, hi_r);
                    if incl {
                        add(&h, &LenTerm::Lit(1)).unwrap_or(LenTerm::Top)
                    } else {
                        h
                    }
                };
                let mut fire = |bound: &LenTerm| {
                    let mut trace = t_trace.clone();
                    trace.truncate(MAX_TRACE);
                    events.push(ShapeEvent {
                        kind: ShapeEventKind::SliceOob {
                            target: target.clone(),
                            bound: bound.render(),
                            len: len_t.render(),
                        },
                        line,
                        trace,
                    });
                };
                if cmp_le(&hi, &len_t) == Some(false) {
                    fire(&hi);
                } else if cmp_le(&lo, &hi) == Some(false) || cmp_le(&lo, &len_t) == Some(false) {
                    fire(&lo);
                }
            } else {
                let idx = self.eval_int(env, inner);
                if cmp_lt(&idx, &len_t) == Some(false) {
                    let mut trace = t_trace.clone();
                    trace.truncate(MAX_TRACE);
                    events.push(ShapeEvent {
                        kind: ShapeEventKind::IndexOob {
                            target: target.clone(),
                            index: idx.render(),
                            len: len_t.render(),
                        },
                        line,
                        trace,
                    });
                }
            }
        }
    }

    /// R18 sink: call sites whose argument lengths provably violate
    /// the callee's inferred shape contract.
    fn scan_calls(&self, env: &ShapeEnv, r: ExprRange, line: u32, events: &mut Vec<ShapeEvent>) {
        for i in r.clone() {
            let Some(t) = self.tok(i) else { break };
            let Some(name) = t.ident() else { continue };
            if !self.tok(i + 1).is_some_and(|t| t.is_punct("(")) {
                continue;
            }
            if self
                .tok(i.wrapping_sub(1))
                .and_then(Token::ident)
                .is_some_and(|id| id == "fn")
            {
                continue;
            }
            let Some(eff) = self.effects.get(name) else {
                continue;
            };
            if eff.shape_pairs.is_empty() {
                continue;
            }
            let close = self.s().match_close(i + 1);
            if close >= r.end {
                continue;
            }
            let args = self.s().split_commas(i + 2, close);
            // Effect pairs are already caller-visible positions (the
            // `self` receiver was dropped in `callee_effects`), so
            // they index the parenthesized arguments directly for both
            // free-function and method call syntax.
            for &(a, b) in &eff.shape_pairs {
                let (Some(ar), Some(br)) = (args.get(a), args.get(b)) else {
                    continue;
                };
                let la = self.eval_len(env, ar.clone());
                let lb = self.eval_len(env, br.clone());
                if cmp_eq(&la, &lb) == Some(false) {
                    let mut trace = Vec::new();
                    for arg in [ar, br] {
                        if let Some(p) = self.path_of(arg.clone()) {
                            let (_, tr) = self.lookup(env, &p);
                            for f in tr {
                                if trace.len() < MAX_TRACE && !trace.contains(&f) {
                                    trace.push(f);
                                }
                            }
                        }
                    }
                    events.push(ShapeEvent {
                        kind: ShapeEventKind::ContractMismatch {
                            callee: name.to_string(),
                            a_pos: a,
                            b_pos: b,
                            a_len: la.render(),
                            b_len: lb.render(),
                        },
                        line,
                        trace,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(body: &str, params: &[&str]) -> Vec<ShapeEvent> {
        let toks = lex(body);
        let code: Vec<(usize, &Token)> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
            .collect();
        let params: Vec<String> = params.iter().map(|s| s.to_string()).collect();
        analyze(&code, "t.rs", "f", 1, &params, &BTreeMap::new()).expect("converges")
    }

    fn zips(ev: &[ShapeEvent]) -> usize {
        ev.iter()
            .filter(|e| matches!(e.kind, ShapeEventKind::ZipUnproven { .. }))
            .count()
    }

    fn oob(ev: &[ShapeEvent]) -> usize {
        ev.iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    ShapeEventKind::IndexOob { .. } | ShapeEventKind::SliceOob { .. }
                )
            })
            .count()
    }

    #[test]
    fn lattice_join_laws() {
        let terms = [
            LenTerm::Top,
            LenTerm::Lit(3),
            LenTerm::Len("x".into(), 0),
            LenTerm::Len("x".into(), -1),
            LenTerm::Len("y".into(), 2),
            LenTerm::min_of(LenTerm::Len("x".into(), 0), LenTerm::Len("y".into(), 0)),
        ];
        for a in &terms {
            assert_eq!(a.join(a), *a, "idempotent");
            for b in &terms {
                assert_eq!(a.join(b), b.join(a), "commutative");
                for c in &terms {
                    assert_eq!(a.join(b).join(c), a.join(&b.join(c)), "associative");
                }
            }
        }
    }

    #[test]
    fn min_canonical() {
        let a = LenTerm::Len("a".into(), 0);
        let b = LenTerm::Len("b".into(), 0);
        assert_eq!(
            LenTerm::min_of(a.clone(), b.clone()),
            LenTerm::min_of(b.clone(), a.clone())
        );
        assert_eq!(LenTerm::min_of(a.clone(), a.clone()), a);
        assert_eq!(LenTerm::min_of(a.clone(), LenTerm::Top), LenTerm::Top);
    }

    #[test]
    fn arith_folds() {
        let x = LenTerm::Len("x".into(), 0);
        assert_eq!(add(&x, &LenTerm::Lit(2)), Some(LenTerm::Len("x".into(), 2)));
        assert_eq!(sub(&x, &x), Some(LenTerm::Lit(0)));
        assert_eq!(
            sub(&LenTerm::Len("x".into(), 3), &LenTerm::Len("x".into(), 1)),
            Some(LenTerm::Lit(2))
        );
        assert_eq!(
            add(&LenTerm::Lit(2), &LenTerm::Lit(3)),
            Some(LenTerm::Lit(5))
        );
    }

    #[test]
    fn cmp_basics() {
        let x = LenTerm::Len("x".into(), 0);
        let xm1 = LenTerm::Len("x".into(), -1);
        assert_eq!(cmp_lt(&xm1, &x), Some(true));
        assert_eq!(cmp_lt(&x, &x), Some(false));
        assert_eq!(cmp_eq(&x, &LenTerm::Len("y".into(), 0)), None);
        assert_eq!(cmp_lt(&LenTerm::Lit(3), &LenTerm::Lit(3)), Some(false));
        assert_eq!(cmp_le(&LenTerm::Lit(3), &LenTerm::Lit(3)), Some(true));
    }

    #[test]
    fn zip_unproven_fires() {
        let ev = run(
            "{ for (a, b) in xs.iter().zip(ys.iter()) { let _ = a + b; } }",
            &["xs", "ys"],
        );
        assert_eq!(zips(&ev), 1, "{ev:?}");
    }

    #[test]
    fn zip_assert_proves() {
        let ev = run(
            "{ assert_eq!(xs.len(), ys.len()); for (a, b) in xs.iter().zip(ys.iter()) { let _ = a + b; } }",
            &["xs", "ys"],
        );
        assert_eq!(zips(&ev), 0, "{ev:?}");
    }

    #[test]
    fn zip_neq_return_guard_proves() {
        let ev = run(
            "{ if xs.len() != ys.len() { return 0.0; } for (a, b) in xs.iter().zip(ys.iter()) { let _ = a + b; } 1.0 }",
            &["xs", "ys"],
        );
        assert_eq!(zips(&ev), 0, "{ev:?}");
    }

    #[test]
    fn zip_eq_guard_then_edge_only() {
        // Refined inside the then-branch, unproven after the join.
        let ev = run(
            "{ if xs.len() == ys.len() { let _ = xs.iter().zip(ys.iter()).count(); } let _ = xs.iter().zip(ys.iter()).count(); }",
            &["xs", "ys"],
        );
        assert_eq!(zips(&ev), 1, "{ev:?}");
    }

    #[test]
    fn zip_same_slice_chunks_prove() {
        // `&x[..n]` has length exactly `n` when it does not panic, so
        // equal bounds prove lockstep even across different bases.
        let ev = run(
            "{ let n = 4 * chunks; for (a, b) in xs[..n].chunks_exact(4).zip(ys[..n].chunks_exact(4)) { let _ = a; let _ = b; } }",
            &["xs", "ys", "chunks"],
        );
        assert_eq!(zips(&ev), 0, "{ev:?}");
        // Different bounds stay unproven.
        let ev = run(
            "{ for (a, b) in xs[..n].chunks_exact(4).zip(ys[..m].chunks_exact(4)) { let _ = a; let _ = b; } }",
            &["xs", "ys", "n", "m"],
        );
        assert_eq!(zips(&ev), 1, "{ev:?}");
        let ev = run(
            "{ assert_eq!(xs.len(), ys.len()); let n = 4 * chunks; for (a, b) in xs[..n].chunks_exact(4).zip(ys[..n].chunks_exact(4)) { let _ = a; let _ = b; } }",
            &["xs", "ys", "chunks"],
        );
        assert_eq!(zips(&ev), 0, "{ev:?}");
    }

    #[test]
    fn zip_bounded_and_opaque_skipped() {
        let ev = run(
            "{ let _ = xs.iter().take(3).zip(ys.iter()).count(); let _ = (0..n).zip(ys.iter()).count(); let _ = xs.iter().filter(|v| **v > 0.0).zip(ys.iter()).count(); }",
            &["xs", "ys", "n"],
        );
        assert_eq!(zips(&ev), 0, "{ev:?}");
    }

    #[test]
    fn zip_enumerate_identity() {
        let ev = run(
            "{ assert_eq!(xs.len(), ys.len()); for (i, (a, b)) in xs.iter().enumerate().zip(ys.iter()).enumerate() { let _ = (i, a, b); } }",
            &["xs", "ys"],
        );
        assert_eq!(zips(&ev), 0, "{ev:?}");
    }

    #[test]
    fn index_oob_vec_literal() {
        let ev = run("{ let v = vec![1.0, 2.0, 3.0]; let x = v[3]; x }", &[]);
        assert_eq!(oob(&ev), 1, "{ev:?}");
        let ev = run("{ let v = vec![1.0, 2.0, 3.0]; let x = v[2]; x }", &[]);
        assert_eq!(oob(&ev), 0, "{ev:?}");
    }

    #[test]
    fn index_len_oob() {
        let ev = run("{ let n = v.len(); let x = v[n]; x }", &["v"]);
        assert_eq!(oob(&ev), 1, "{ev:?}");
        let ev = run("{ let n = v.len(); let x = v[n - 1]; x }", &["v"]);
        assert_eq!(oob(&ev), 0, "{ev:?}");
    }

    #[test]
    fn slice_oob_literal() {
        let ev = run("{ let v = vec![0.0; 8]; let s = &v[..9]; s.len() }", &[]);
        assert_eq!(oob(&ev), 1, "{ev:?}");
        let ev = run("{ let v = vec![0.0; 8]; let s = &v[..8]; s.len() }", &[]);
        assert_eq!(oob(&ev), 0, "{ev:?}");
    }

    #[test]
    fn split_at_lengths() {
        let ev = run(
            "{ let (lo, hi) = v.split_at(k); let _ = lo.iter().zip(hi.iter()).count(); }",
            &["v", "k"],
        );
        // len(lo)=k, len(hi)=len(v)-k: not provably equal, fires.
        assert_eq!(zips(&ev), 1, "{ev:?}");
    }

    #[test]
    fn push_invalidates_proof() {
        let ev = run(
            "{ assert_eq!(xs.len(), ys.len()); ys.push(0.0); let _ = xs.iter().zip(ys.iter()).count(); }",
            &["xs", "ys"],
        );
        assert_eq!(zips(&ev), 1, "{ev:?}");
    }

    #[test]
    fn with_capacity_is_not_len() {
        // with_capacity reserves, len is 0 — but we track the *capacity
        // hint* as the eventual length only via collect; a push loop
        // kills it. Here the collect path:
        let ev = run(
            "{ let ys: Vec<f64> = xs.iter().map(|v| v * 2.0).collect(); let _ = xs.iter().zip(ys.iter()).count(); }",
            &["xs"],
        );
        assert_eq!(zips(&ev), 0, "{ev:?}");
    }

    #[test]
    fn infer_pairs_from_assert() {
        let toks = lex("{ debug_assert_eq!(a.len(), b.len()); let mut s = 0.0; for (x, y) in a.iter().zip(b.iter()) { s += x * y; } s }");
        let code: Vec<(usize, &Token)> = toks.iter().enumerate().collect();
        let params = vec!["a".to_string(), "b".to_string()];
        let pairs = infer_pairs(&code, &params, &BTreeMap::new());
        assert!(pairs.contains(&(0, 1)), "{pairs:?}");
    }

    #[test]
    fn infer_pairs_forwarding() {
        let mut effects = BTreeMap::new();
        effects.insert(
            "dot".to_string(),
            CalleeEffect {
                shape_pairs: [(0usize, 1usize)].into_iter().collect(),
                ..CalleeEffect::default()
            },
        );
        let toks = lex("{ dot(p, q) }");
        let code: Vec<(usize, &Token)> = toks.iter().enumerate().collect();
        let params = vec!["p".to_string(), "q".to_string()];
        let pairs = infer_pairs(&code, &params, &effects);
        assert!(pairs.contains(&(0, 1)), "{pairs:?}");
    }

    #[test]
    fn contract_mismatch_fires() {
        let mut effects = BTreeMap::new();
        effects.insert(
            "dot".to_string(),
            CalleeEffect {
                shape_pairs: [(0usize, 1usize)].into_iter().collect(),
                ..CalleeEffect::default()
            },
        );
        let toks = lex("{ let a = vec![0.0; 3]; let b = vec![0.0; 4]; dot(&a, &b) }");
        let code: Vec<(usize, &Token)> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
            .collect();
        let ev = analyze(&code, "t.rs", "f", 1, &[], &effects).expect("converges");
        assert_eq!(
            ev.iter()
                .filter(|e| matches!(e.kind, ShapeEventKind::ContractMismatch { .. }))
                .count(),
            1,
            "{ev:?}"
        );
    }

    #[test]
    fn zip_closure_binder_skipped() {
        // `part` is a closure parameter the statement-level dataflow
        // never bound: outside the domain, no finding.
        let ev = run(
            "{ let mut acc = vec![0.0; n]; reduce(k, |part: Vec<f64>| { let _ = acc.iter_mut().zip(&part).count(); }); acc }",
            &["n", "k"],
        );
        assert_eq!(zips(&ev), 0, "{ev:?}");
    }

    #[test]
    fn trace_has_decl_frame() {
        let ev = run(
            "{ let _ = xs.iter().zip(ys.iter()).count(); }",
            &["xs", "ys"],
        );
        assert_eq!(zips(&ev), 1);
        assert!(
            ev[0].trace.iter().any(|f| f.contains("parameter of `f`")),
            "{ev:?}"
        );
    }
}
