//! Performance rules **R10/R11/R12** and the R10 machine-fix
//! synthesizer.
//!
//! Scope: non-test functions in library crates that are call-graph
//! reachable *from* a kernel entry point ([`crate::graph::KERNEL_FNS`]
//! by name, every fn in [`crate::graph::KERNEL_FILES`]) — the hot
//! paths ROADMAP item 1 wants autovectorizer-friendly. Restricting to
//! the kernel cone keeps the rules high-signal: an allocation in a
//! cold config parser is fine; one inside `correlate`'s column loop is
//! a per-iteration tax on a million-atom sweep.
//!
//! - **R10** fires on `for i in LO..HI` loops whose body subscripts
//!   plain-identifier slices affinely in the loop variable (`a[i]`,
//!   `a[i + 1]`, `a[j]` for a `let j = 4 * i;` alias). Indexed form
//!   makes LLVM prove every bounds check before it can vectorize;
//!   lockstep iterators encode the bound once. When the loop variable
//!   is used *only* as a direct subscript (`a[i]`, never `i` as a
//!   value, never an offset) and the bound is a pure expression, the
//!   rule attaches a machine-applicable [`Fix`] rewriting the loop to
//!   `zip` form over `[..HI]` slices — slicing first preserves the
//!   original panic-on-short behavior (`zip` alone would silently
//!   truncate).
//! - **R11** fires on allocation markers (`Vec::new`, `vec![..]`,
//!   `with_capacity`, `.collect()`, `.to_vec()`, `.clone()`, …) inside
//!   any loop body on the kernel cone.
//! - **R12** fires on calls from [`EXPENSIVE_CALLS`] inside a loop
//!   whose receiver and arguments are all loop-invariant (no ident is
//!   written, re-bound, or `&mut`-borrowed anywhere in the loop body,
//!   and none is a loop binder) — the call computes the same value
//!   every iteration and belongs above the loop.
//!
//! R11/R12 are warning-only by design: hoisting an allocation or a
//! call can move a borrow across an iteration boundary, which the
//! token-level engine cannot prove safe. R10's strict machine-fix
//! class is closed under the rewrite (every `i` disappears with the
//! subscripts), which is why only it carries edits.

use std::collections::{BTreeMap, BTreeSet};

use crate::dataflow::body_code;
use crate::diag::{Diagnostic, Fix, Rule};
use crate::graph::{unit_first_item, CallGraph, Reach, Unit};
use crate::lexer::{Token, TokenKind};
use crate::summary::FnSummary;

/// Calls expensive enough that recomputing one per iteration with
/// loop-invariant arguments is a finding (rule R12).
pub const EXPENSIVE_CALLS: [&str; 10] = [
    "dot",
    "norm2",
    "norm2_sq",
    "norm1",
    "norm_inf",
    "column_sq_norms",
    "gram",
    "gram_active",
    "matvec",
    "matvec_t",
];

/// The code slice the pass works over: comment-free `(global token
/// index, token)` pairs of one fn body.
type Code<'a> = [(usize, &'a Token)];

/// The perf rules, run after the dataflow pass over the same units and
/// call graph. `reach_kernel` is `graph.reach_via(|n| n.is_kernel, ..)`;
/// `sums` are the interprocedural function summaries, which upgrade
/// R12: an argument expression that calls a workspace function with a
/// known-impure summary (mutates its params, nondeterministic, or can
/// panic on data) is not invariant, so the finding is suppressed
/// instead of reported as a hoistable recomputation.
pub(crate) fn perf_pass(
    units: &[Unit],
    graph: &CallGraph,
    sums: &[FnSummary],
    reach_kernel: &[Reach],
    raw: &mut Vec<Diagnostic>,
) {
    let first = unit_first_item(units);
    let mut seen: BTreeSet<(String, u32, Rule)> = BTreeSet::new();
    for (ui, unit) in units.iter().enumerate() {
        if unit.class.is_test_file || !unit.class.is_lib_crate() {
            continue;
        }
        for (oi, item) in unit.items.iter().enumerate() {
            let Some(body) = item.body else { continue };
            let ni = first[ui] + oi;
            let node = &graph.nodes[ni];
            if node.is_test || !reach_kernel[ni].yes() {
                continue;
            }
            // Workspace callees of this fn whose summary is impure —
            // used by R12 to rule out "invariant" argument expressions
            // that actually have effects each iteration.
            let mut impure: BTreeSet<&str> = BTreeSet::new();
            for call in &node.calls {
                let cn = &graph.nodes[call.callee];
                if !cn.module_scope && !sums[call.callee].is_pure() {
                    impure.insert(cn.name.as_str());
                }
            }
            let code = body_code(&unit.tokens, body);
            let loops = find_loops(&code, 0, code.len());
            let mut diags = Vec::new();
            for l in &loops {
                check_loop(unit, &code, l, &impure, &mut diags);
            }
            for mut d in diags {
                if seen.insert((unit.rel.clone(), d.line, d.rule)) {
                    d.fn_key = Some(node.key.clone());
                    raw.push(d);
                }
            }
        }
    }
}

/// One recovered loop with exact token extents (needed for byte-exact
/// fixes, which the [`crate::cfg`] statement tree does not retain).
#[derive(Debug)]
struct LoopInfo {
    /// Code index of the `for`/`while`/`loop` keyword.
    kw: usize,
    /// For a `for VAR in LO..HI` loop: the single binder name and the
    /// code-index ranges of the bound expressions. `None` for
    /// iterator-style `for`, `while`, and `loop`.
    range: Option<RangeLoop>,
    /// Code index of the body's `{`.
    open: usize,
    /// Code index of the body's matching `}`.
    close: usize,
    /// Loops nested inside this body, in source order.
    nested: Vec<LoopInfo>,
}

#[derive(Debug)]
struct RangeLoop {
    /// The loop variable.
    var: String,
    /// Code-index range of the lower bound expression.
    lo: std::ops::Range<usize>,
    /// Code-index range of the upper bound expression.
    hi: std::ops::Range<usize>,
    /// True for `..=` ranges.
    inclusive: bool,
}

/// Advances past one balanced `()[]{}` group if `i` opens one,
/// otherwise one token (bounded by `hi`).
fn skip_group(code: &Code, i: usize, hi: usize) -> usize {
    let Some(&(_, t)) = code.get(i) else {
        return i + 1;
    };
    for (open, close) in [("(", ")"), ("[", "]"), ("{", "}")] {
        if t.is_punct(open) {
            let mut depth = 0usize;
            let mut j = i;
            while j < hi {
                if code[j].1.is_punct(open) {
                    depth += 1;
                } else if code[j].1.is_punct(close) {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                j += 1;
            }
            return j;
        }
    }
    i + 1
}

/// Scans from `i` to the first top-level token satisfying `stop`,
/// skipping balanced groups; returns `hi` if none.
fn scan_top(code: &Code, mut i: usize, hi: usize, stop: impl Fn(&Token) -> bool) -> usize {
    while i < hi {
        if stop(code[i].1) {
            return i;
        }
        i = skip_group(code, i, hi);
    }
    hi
}

/// Recovers every loop in `[lo, hi)`, recursing into bodies. Linear
/// scan (no group skipping) so loops inside `if` arms, `match` arms
/// and closures are found too.
fn find_loops(code: &Code, lo: usize, hi: usize) -> Vec<LoopInfo> {
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi {
        let parsed = match code[i].1.ident() {
            // `for<'a>` higher-ranked bounds are not loops.
            Some("for") if !code.get(i + 1).is_some_and(|&(_, t)| t.is_punct("<")) => {
                parse_for(code, i, hi)
            }
            Some("while") | Some("loop") => parse_headless(code, i, hi),
            _ => None,
        };
        match parsed {
            Some(l) => {
                let after = l.close + 1;
                out.push(l);
                i = after;
            }
            None => i += 1,
        }
    }
    out
}

/// Finds the matching `}` for the `{` at `open` (bounded by `hi`).
fn match_brace(code: &Code, open: usize, hi: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = open;
    while j < hi {
        if code[j].1.is_punct("{") {
            depth += 1;
        } else if code[j].1.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j += 1;
    }
    None
}

fn parse_for(code: &Code, kw: usize, hi: usize) -> Option<LoopInfo> {
    let in_at = scan_top(code, kw + 1, hi, |t| {
        t.ident() == Some("in") || t.is_punct("{") || t.is_punct(";")
    });
    if in_at >= hi || code[in_at].1.ident() != Some("in") {
        return None;
    }
    let open = scan_top(code, in_at + 1, hi, |t| t.is_punct("{") || t.is_punct(";"));
    if open >= hi || !code[open].1.is_punct("{") {
        return None;
    }
    let close = match_brace(code, open, hi)?;
    // Single plain-ident binder (`for i in ...`)?
    let var = if in_at == kw + 2 {
        code[kw + 1].1.ident().map(str::to_string)
    } else {
        None
    };
    // `LO..HI` / `LO..=HI` split at the first top-level `.` `.` pair.
    let mut range = None;
    if let Some(var) = var {
        let mut j = in_at + 1;
        while j < open {
            if code[j].1.is_punct(".") && code.get(j + 1).is_some_and(|&(_, t)| t.is_punct(".")) {
                let inclusive = code.get(j + 2).is_some_and(|&(_, t)| t.is_punct("="));
                let hi_start = if inclusive { j + 3 } else { j + 2 };
                range = Some(RangeLoop {
                    var,
                    lo: in_at + 1..j,
                    hi: hi_start..open,
                    inclusive,
                });
                break;
            }
            j = skip_group(code, j, open);
        }
    }
    Some(LoopInfo {
        kw,
        range,
        open,
        close,
        nested: find_loops(code, open + 1, close),
    })
}

fn parse_headless(code: &Code, kw: usize, hi: usize) -> Option<LoopInfo> {
    let open = scan_top(code, kw + 1, hi, |t| t.is_punct("{") || t.is_punct(";"));
    if open >= hi || !code[open].1.is_punct("{") {
        return None;
    }
    let close = match_brace(code, open, hi)?;
    Some(LoopInfo {
        kw,
        range: None,
        open,
        close,
        nested: find_loops(code, open + 1, close),
    })
}

/// Runs R10/R11/R12 on one loop and recurses into nested loops.
/// `impure` is the set of workspace callee names with impure summaries
/// (see [`perf_pass`]).
fn check_loop(
    unit: &Unit,
    code: &Code,
    l: &LoopInfo,
    impure: &BTreeSet<&str>,
    out: &mut Vec<Diagnostic>,
) {
    check_r10(unit, code, l, out);
    check_r11(unit, code, l, out);
    check_r12(unit, code, l, impure, out);
    for n in &l.nested {
        check_loop(unit, code, n, impure, out);
    }
}

/// One `base[expr]` subscript occurrence in a loop body.
#[derive(Debug)]
struct Subscript {
    /// Code index of the base identifier.
    base_at: usize,
    /// The base identifier text.
    base: String,
    /// Code index of the closing `]`.
    close: usize,
    /// True when the subscript expression is exactly the loop var.
    direct: bool,
}

/// Classifies the subscript content `[lo, hi)` against the loop var
/// and its affine aliases. Returns `(affine, direct)`.
fn classify_subscript(
    code: &Code,
    lo: usize,
    hi: usize,
    var: &str,
    aliases: &BTreeSet<String>,
) -> (bool, bool) {
    let toks: Vec<&Token> = code[lo..hi].iter().map(|&(_, t)| t).collect();
    let is_int = |t: &Token| matches!(t.kind, TokenKind::Number { float: false, .. });
    let is_affine_ident =
        |t: &Token| t.ident() == Some(var) || t.ident().is_some_and(|s| aliases.contains(s));
    match toks.as_slice() {
        // `[i]` / `[j]` for an affine alias j.
        [v] if is_affine_ident(v) => (true, v.ident() == Some(var)),
        // `[i + 3]` / `[i - 1]` / `[j + 1]`.
        [v, op, n] if is_affine_ident(v) && (op.is_punct("+") || op.is_punct("-")) && is_int(n) => {
            (true, false)
        }
        // `[3 + i]`.
        [n, op, v] if is_int(n) && op.is_punct("+") && is_affine_ident(v) => (true, false),
        _ => (false, false),
    }
}

/// Collects `let j = <affine in var>;` aliases declared directly in the
/// loop body: the initializer may use only the loop var, integer
/// literals and `+ - *`.
fn affine_aliases(code: &Code, l: &LoopInfo, var: &str) -> BTreeSet<String> {
    let mut aliases = BTreeSet::new();
    let mut i = l.open + 1;
    while i < l.close {
        if code[i].1.ident() == Some("let")
            && code.get(i + 2).is_some_and(|&(_, t)| t.is_punct("="))
        {
            if let Some(name) = code[i + 1].1.ident() {
                let stop = scan_top(code, i + 3, l.close, |t| t.is_punct(";"));
                let toks = &code[i + 3..stop];
                let mut uses_var = false;
                let affine = !toks.is_empty()
                    && toks.iter().all(|&(_, t)| {
                        if t.ident() == Some(var) {
                            uses_var = true;
                            return true;
                        }
                        matches!(t.kind, TokenKind::Number { float: false, .. })
                            || t.is_punct("+")
                            || t.is_punct("-")
                            || t.is_punct("*")
                    });
                if affine && uses_var {
                    aliases.insert(name.to_string());
                }
                i = stop + 1;
                continue;
            }
        }
        i += 1;
    }
    aliases
}

/// Collects every `base[..]` subscript in the body whose subscript
/// expression is affine in the loop var (directly or via an alias).
/// The base must be a plain identifier (not a field or path segment).
fn affine_subscripts(
    code: &Code,
    l: &LoopInfo,
    var: &str,
    aliases: &BTreeSet<String>,
) -> Vec<Subscript> {
    let mut subs = Vec::new();
    let mut i = l.open + 1;
    while i < l.close {
        let base_ok = code[i].1.ident().is_some_and(|s| s != var)
            && code.get(i + 1).is_some_and(|&(_, t)| t.is_punct("["))
            && !code
                .get(i.wrapping_sub(1))
                .is_some_and(|&(_, t)| t.is_punct(".") || t.is_punct("::"));
        if base_ok {
            let close = skip_group(code, i + 1, l.close) - 1;
            if close > i + 1 && close < l.close && code[close].1.is_punct("]") {
                let (affine, direct) = classify_subscript(code, i + 2, close, var, aliases);
                if affine {
                    subs.push(Subscript {
                        base_at: i,
                        base: code[i].1.ident().unwrap_or_default().to_string(),
                        close,
                        direct,
                    });
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    subs
}

/// R10: indexed loop with affine subscripts. Attaches a machine fix
/// when the strict direct-subscript conditions hold.
fn check_r10(unit: &Unit, code: &Code, l: &LoopInfo, out: &mut Vec<Diagnostic>) {
    let Some(range) = &l.range else { return };
    let var = range.var.as_str();
    let aliases = affine_aliases(code, l, var);
    let subs = affine_subscripts(code, l, var, &aliases);
    if subs.is_empty() {
        return;
    }
    let mut bases: Vec<String> = Vec::new();
    for s in &subs {
        if !bases.contains(&s.base) {
            bases.push(s.base.clone());
        }
    }
    let line = code[l.kw].1.line;
    let fix = synthesize_fix(unit, code, l, range, &subs, &bases);
    let listed = bases
        .iter()
        .map(|b| format!("`{b}`"))
        .collect::<Vec<_>>()
        .join(", ");
    let message = if fix.is_some() {
        format!(
            "indexed loop over {listed} subscripted by the loop variable; per-element \
             bounds checks block autovectorization — a machine fix rewriting to \
             lockstep `[..bound]` slice iteration is attached (`rsm-lint fix`)"
        )
    } else {
        format!(
            "indexed loop over {listed} with subscripts affine in `{var}`; per-element \
             bounds checks block autovectorization — rewrite to iter/zip/chunks_exact \
             form by hand (the loop shape is outside the machine-fixable class)"
        )
    };
    out.push(Diagnostic {
        file: unit.rel.clone(),
        line,
        rule: Rule::R10,
        message,
        chain: Vec::new(),
        trace: Vec::new(),
        fn_key: None,
        fix,
    });
}

/// Builds the machine fix for the strict R10 class, or `None` when any
/// safety condition fails:
///
/// 1. `for VAR in LO..HI` — exclusive range;
/// 2. straight-line body: no nested loops, no nested `{}` blocks
///    (every subscript executes on every iteration);
/// 3. every subscript is the direct `base[VAR]` form;
/// 4. every occurrence of `VAR` in the body is such a subscript;
/// 5. every occurrence of each base in the body is such a subscript
///    (no `&mut base[VAR]`, no `base.len()` mid-loop);
/// 6. `LO` and `HI` are pure expressions (idents, integers,
///    `. ( ) + - * / ::`, calls only to `len`/`rows`/`cols`/`min`/
///    `max`), since the rewrite repeats them once per slice;
/// 7. the generated `<base>_it` names collide with nothing in scope.
fn synthesize_fix(
    unit: &Unit,
    code: &Code,
    l: &LoopInfo,
    range: &RangeLoop,
    subs: &[Subscript],
    bases: &[String],
) -> Option<Fix> {
    let var = range.var.as_str();
    if range.inclusive || !l.nested.is_empty() {
        return None;
    }
    // No nested blocks: with a straight-line body every subscript
    // executes on every iteration, so moving the bounds check to the
    // slice at loop entry panics iff the loop would have panicked
    // (just earlier, before any partial writes). A subscript hidden
    // behind an `if` could turn a never-taken branch into a panic.
    if code[l.open + 1..l.close].iter().any(|c| c.1.is_punct("{")) {
        return None;
    }
    if range.lo.is_empty() || range.hi.is_empty() || !subs.iter().all(|s| s.direct) {
        return None;
    }
    // Both bounds must be pure expressions: the rewrite repeats them in
    // every slice, so a side-effecting bound would change behavior.
    const PURE_CALLS: [&str; 5] = ["len", "rows", "cols", "min", "max"];
    for j in range.lo.clone().chain(range.hi.clone()) {
        let t = code[j].1;
        let ok = match &t.kind {
            TokenKind::Ident(s) => {
                !code.get(j + 1).is_some_and(|&(_, n)| n.is_punct("("))
                    || PURE_CALLS.contains(&s.as_str())
            }
            TokenKind::Number { float, .. } => !float,
            TokenKind::Punct(p) => [".", "(", ")", "+", "-", "*", "/", "::"].contains(&p.as_str()),
            _ => false,
        };
        if !ok {
            return None;
        }
    }
    // Every VAR / base occurrence must be inside a direct subscript,
    // and no subscript may sit behind a `&mut` borrow (the zipped
    // element reference already is the borrow).
    let inside_sub = |j: usize| subs.iter().any(|s| j >= s.base_at && j <= s.close);
    for (j, c) in code.iter().enumerate().take(l.close).skip(l.open + 1) {
        let Some(id) = c.1.ident() else {
            continue;
        };
        if (id == var || bases.contains(&id.to_string())) && !inside_sub(j) {
            return None;
        }
    }
    for s in subs {
        if code
            .get(s.base_at.wrapping_sub(1))
            .is_some_and(|&(_, t)| t.ident() == Some("mut"))
        {
            return None;
        }
    }
    // Written vs read-only bases (`a[i] = ...`, `a[i] += ...`).
    let mut written: BTreeSet<&str> = BTreeSet::new();
    for s in subs {
        let next = code.get(s.close + 1).map(|&(_, t)| t);
        let next2 = code.get(s.close + 2).map(|&(_, t)| t);
        let assign = next.is_some_and(|t| t.is_punct("="))
            || (next.is_some_and(|t| {
                t.is_punct("+") || t.is_punct("-") || t.is_punct("*") || t.is_punct("/")
            }) && next2.is_some_and(|t| t.is_punct("=")));
        if assign {
            written.insert(s.base.as_str());
        }
    }
    // Fresh iterator names.
    let names: BTreeMap<&str, String> = bases
        .iter()
        .map(|b| (b.as_str(), format!("{b}_it")))
        .collect();
    for c in code {
        if let Some(id) = c.1.ident() {
            if names.values().any(|n| n == id) {
                return None;
            }
        }
    }
    // Iterator chain and lockstep pattern, in first-occurrence order.
    // Slicing each base to the range first (`base[LO..HI]`, `[..HI]`
    // for a zero lower bound) keeps the original panic on a too-short
    // slice — `zip` alone would silently truncate.
    let hi_text = token_text(unit, code, range.hi.start, range.hi.end - 1);
    let lo_is_zero = range.lo.len() == 1 && code[range.lo.start].1.num_text() == Some("0");
    let slice = if lo_is_zero {
        format!("[..{hi_text}]")
    } else {
        let lo_text = token_text(unit, code, range.lo.start, range.lo.end - 1);
        format!("[{lo_text}..{hi_text}]")
    };
    let mut chain = String::new();
    let mut pattern = String::new();
    for (k, b) in bases.iter().enumerate() {
        let name = &names[b.as_str()];
        let is_mut = written.contains(b.as_str());
        if k == 0 {
            chain = if is_mut {
                format!("{b}{slice}.iter_mut()")
            } else {
                format!("{b}{slice}.iter()")
            };
            pattern = name.clone();
        } else {
            chain.push_str(&if is_mut {
                format!(".zip({b}{slice}.iter_mut())")
            } else {
                format!(".zip(&{b}{slice})")
            });
            pattern = format!("({pattern}, {name})");
        }
    }
    // Rewrite the body: splice each subscript span (byte-exact, back to
    // front so earlier offsets stay valid). A subscript that is the
    // target of an assignment becomes `*name`; any other position gets
    // the parenthesized `(*name)` so postfix `.`/operators keep their
    // binding.
    let body_start = code[l.open].1.span.1;
    let body_end = code[l.close].1.span.0;
    let mut body = unit.src.get(body_start..body_end)?.to_string();
    let mut ordered: Vec<&Subscript> = subs.iter().collect();
    ordered.sort_by_key(|s| code[s.base_at].1.span.0);
    for s in ordered.iter().rev() {
        let next = code.get(s.close + 1).map(|&(_, t)| t);
        let next2 = code.get(s.close + 2).map(|&(_, t)| t);
        let assign_target = next.is_some_and(|t| t.is_punct("="))
            || (next.is_some_and(|t| {
                t.is_punct("+") || t.is_punct("-") || t.is_punct("*") || t.is_punct("/")
            }) && next2.is_some_and(|t| t.is_punct("=")));
        let name = &names[s.base.as_str()];
        let text = if assign_target {
            format!("*{name}")
        } else {
            format!("(*{name})")
        };
        let a = code[s.base_at].1.span.0.checked_sub(body_start)?;
        let b = code[s.close].1.span.1.checked_sub(body_start)?;
        body.replace_range(a..b, &text);
    }
    let replacement = format!("for {pattern} in {chain} {{{body}}}");
    Some(Fix {
        span: (code[l.kw].1.span.0, code[l.close].1.span.1),
        replacement,
    })
}

/// Source text covering code tokens `[first, last]` (byte-exact).
fn token_text(unit: &Unit, code: &Code, first: usize, last: usize) -> String {
    unit.src[code[first].1.span.0..code[last].1.span.1].to_string()
}

/// Idents bound to `Vec::with_capacity(..)` anywhere in the fn body —
/// growth via `.push` into a preallocated buffer is the sanctioned
/// R11 idiom (it does not reallocate within capacity), so those
/// receivers are exempt.
fn preallocated_names(code: &Code) -> BTreeSet<String> {
    let mut pre = BTreeSet::new();
    for w in 0..code.len().saturating_sub(4) {
        if code[w + 1].1.is_punct("=")
            && code[w + 2].1.ident() == Some("Vec")
            && code[w + 3].1.is_punct("::")
            && code[w + 4].1.ident() == Some("with_capacity")
        {
            if let Some(id) = code[w].1.ident() {
                pre.insert(id.to_string());
            }
        }
    }
    pre
}

/// R11: allocation markers inside a loop body.
fn check_r11(unit: &Unit, code: &Code, l: &LoopInfo, out: &mut Vec<Diagnostic>) {
    let pre = preallocated_names(code);
    let mut hits: Vec<(u32, String)> = Vec::new();
    let mut i = l.open + 1;
    while i < l.close {
        let t = code[i].1;
        let next = code.get(i + 1).map(|&(_, t)| t);
        let next2 = code.get(i + 2).map(|&(_, t)| t);
        let hit = match t.ident() {
            Some(ty @ ("Vec" | "String" | "Box" | "BTreeMap" | "BTreeSet"))
                if next.is_some_and(|n| n.is_punct("::"))
                    && next2.is_some_and(|n| {
                        matches!(
                            n.ident(),
                            Some("new") | Some("with_capacity") | Some("from")
                        )
                    }) =>
            {
                Some(format!(
                    "`{ty}::{}`",
                    next2.and_then(Token::ident).unwrap_or_default()
                ))
            }
            Some(mac @ ("vec" | "format")) if next.is_some_and(|n| n.is_punct("!")) => {
                Some(format!("`{mac}!`"))
            }
            Some(m @ ("collect" | "to_vec" | "to_string" | "clone" | "to_owned" | "push"))
                if code
                    .get(i.wrapping_sub(1))
                    .is_some_and(|&(_, p)| p.is_punct("."))
                    && next.is_some_and(|n| n.is_punct("(") || n.is_punct("::")) =>
            {
                let recv = code
                    .get(i.wrapping_sub(2))
                    .and_then(|&(_, r)| r.ident())
                    .unwrap_or_default();
                if m == "push" && pre.contains(recv) {
                    None
                } else {
                    Some(format!("`.{m}()`"))
                }
            }
            _ => None,
        };
        if let Some(what) = hit {
            if !hits.iter().any(|(ln, _)| *ln == t.line) {
                hits.push((t.line, what));
            }
        }
        i += 1;
    }
    for (line, what) in hits {
        out.push(Diagnostic {
            file: unit.rel.clone(),
            line,
            rule: Rule::R11,
            message: format!(
                "{what} allocates inside a loop body on a kernel-reachable hot path; \
                 hoist the buffer out of the loop and reuse it per iteration"
            ),
            chain: Vec::new(),
            trace: Vec::new(),
            fn_key: None,
            fix: None,
        });
    }
}

/// Names written, re-bound or `&mut`-borrowed anywhere in the loop
/// body, plus all loop binders (this loop and nested ones) — anything
/// *not* in this set is loop-invariant to the token-level analysis.
fn mutated_names(code: &Code, l: &LoopInfo) -> BTreeSet<String> {
    let mut m = BTreeSet::new();
    collect_binders(code, l, &mut m);
    let mut i = l.open + 1;
    while i < l.close {
        let t = code[i].1;
        // `let` re-binding: every ident in the pattern region.
        if t.ident() == Some("let") {
            let stop = scan_top(code, i + 1, l.close, |t| {
                t.is_punct("=") || t.is_punct(":") || t.is_punct(";")
            });
            for c in &code[i + 1..stop] {
                if let Some(id) = c.1.ident() {
                    m.insert(id.to_string());
                }
            }
            i = stop;
            continue;
        }
        // `&mut x` borrow.
        if t.is_punct("&")
            && code
                .get(i + 1)
                .is_some_and(|&(_, n)| n.ident() == Some("mut"))
        {
            if let Some(id) = code.get(i + 2).and_then(|&(_, n)| n.ident()) {
                m.insert(id.to_string());
            }
        }
        // Receiver of a method call that is not known-pure: `x.push(v)`
        // mutates `x` through an implicit `&mut` the token stream never
        // shows, so treat the receiver as possibly-mutated. Query
        // methods (`len`, `iter`, ...) and the expensive calls
        // themselves stay invariant-preserving.
        const PURE_METHODS: [&str; 12] = [
            "len", "is_empty", "iter", "rows", "cols", "row", "col", "min", "max", "abs", "sqrt",
            "get",
        ];
        if t.ident().is_some()
            && code.get(i + 1).is_some_and(|&(_, n)| n.is_punct("."))
            && code.get(i + 3).is_some_and(|&(_, n)| n.is_punct("("))
        {
            if let Some(method) = code.get(i + 2).and_then(|&(_, n)| n.ident()) {
                if !PURE_METHODS.contains(&method) && !EXPENSIVE_CALLS.contains(&method) {
                    m.insert(t.ident().unwrap_or_default().to_string());
                }
            }
        }
        // Assignment / compound assignment: root ident on the left of
        // a top-level `=` (the lexer fuses `==`/`!=`, and `<=`/`>=`
        // lex as two puncts — exclude those and `=>` arms).
        if t.is_punct("=")
            && !code
                .get(i.wrapping_sub(1))
                .is_some_and(|&(_, p)| p.is_punct("<") || p.is_punct(">"))
            && !code.get(i + 1).is_some_and(|&(_, n)| n.is_punct(">"))
        {
            // Walk back over the place expression to its root ident.
            let mut j = i;
            while j > l.open + 1 {
                let p = code[j - 1].1;
                let part_of_place = p.ident().is_some()
                    || p.is_punct(".")
                    || p.is_punct("]")
                    || p.is_punct("[")
                    || p.is_punct("*")
                    || p.is_punct(")")
                    || p.is_punct("(")
                    || matches!(p.kind, TokenKind::Number { .. })
                    || ["+", "-", "/"].iter().any(|op| p.is_punct(op));
                if !part_of_place {
                    break;
                }
                j -= 1;
            }
            if let Some(id) = code.get(j).and_then(|&(_, n)| n.ident()) {
                m.insert(id.to_string());
            }
        }
        i += 1;
    }
    m
}

fn collect_binders(code: &Code, l: &LoopInfo, m: &mut BTreeSet<String>) {
    if let Some(r) = &l.range {
        m.insert(r.var.clone());
    } else if code[l.kw].1.ident() == Some("for") {
        // Iterator-style binders: idents between `for` and `in`.
        let in_at = scan_top(code, l.kw + 1, l.open, |t| t.ident() == Some("in"));
        for c in &code[l.kw + 1..in_at] {
            if let Some(id) = c.1.ident() {
                if id != "mut" && id != "ref" {
                    m.insert(id.to_string());
                }
            }
        }
    }
    for n in &l.nested {
        collect_binders(code, n, m);
    }
}

/// R12: expensive call with all-invariant receiver and arguments
/// inside a loop body. An argument that itself calls a workspace
/// function with an impure summary is not invariant (the nested call
/// may mutate state or draw randomness per iteration), so such calls
/// are skipped — the interprocedural upgrade over the v4 token-only
/// heuristic.
fn check_r12(
    unit: &Unit,
    code: &Code,
    l: &LoopInfo,
    impure: &BTreeSet<&str>,
    out: &mut Vec<Diagnostic>,
) {
    let mutated = mutated_names(code, l);
    let mut i = l.open + 1;
    while i < l.close {
        let t = code[i].1;
        let callee = t.ident().filter(|s| EXPENSIVE_CALLS.contains(s));
        let is_call = callee.is_some() && code.get(i + 1).is_some_and(|&(_, n)| n.is_punct("("));
        if !is_call {
            i += 1;
            continue;
        }
        let callee = callee.unwrap_or_default();
        let args_end = skip_group(code, i + 1, l.close);
        // Receiver chain (for `recv.dot(..)` forms): idents reachable
        // leftward over `.`/`::`/ident tokens.
        let mut idents: Vec<String> = Vec::new();
        let mut j = i;
        while j > l.open + 1 {
            let p = code[j - 1].1;
            if p.is_punct(".") || p.is_punct("::") || p.ident().is_some() {
                if let Some(id) = p.ident() {
                    idents.push(id.to_string());
                }
                j -= 1;
            } else {
                break;
            }
        }
        // Argument idents. A call with a closure argument is skipped
        // (the closure body may capture loop state invisibly), as is a
        // nested call to a workspace fn with an impure summary.
        let mut has_closure = false;
        let mut has_impure_call = false;
        let args = &code[i + 2..args_end.saturating_sub(1).max(i + 2)];
        for (k, c) in args.iter().enumerate() {
            if c.1.is_punct("|") {
                has_closure = true;
            }
            if let Some(id) = c.1.ident() {
                if args.get(k + 1).is_some_and(|&(_, n)| n.is_punct("(")) && impure.contains(id) {
                    has_impure_call = true;
                }
                idents.push(id.to_string());
            }
        }
        let invariant =
            !has_closure && !has_impure_call && idents.iter().all(|id| !mutated.contains(id));
        if invariant {
            out.push(Diagnostic {
                file: unit.rel.clone(),
                line: t.line,
                rule: Rule::R12,
                message: format!(
                    "`{callee}(..)` is called inside a loop with loop-invariant \
                     receiver and arguments; it recomputes the same value every \
                     iteration — hoist the call above the loop"
                ),
                chain: Vec::new(),
                trace: Vec::new(),
                fn_key: None,
                fix: None,
            });
        }
        i = args_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileClass;

    fn unit_of(src: &str) -> Unit {
        Unit::new("crates/linalg/src/vec_ops.rs".into(), src, {
            let mut c = FileClass::lib_context();
            c.explicit = false;
            c
        })
    }

    fn code_of(unit: &Unit) -> Vec<(usize, &Token)> {
        unit.tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
            .collect()
    }

    fn loops_of<'a>(code: &'a [(usize, &'a Token)]) -> Vec<LoopInfo> {
        find_loops(code, 0, code.len())
    }

    #[test]
    fn loop_extents_and_nesting_are_recovered() {
        let u = unit_of("{ for i in 0..n { if c { while going { step(); } } } after(); }");
        let code = code_of(&u);
        let loops = loops_of(&code);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].nested.len(), 1);
        let r = loops[0].range.as_ref().expect("range loop");
        assert_eq!(r.var, "i");
        assert!(!r.inclusive);
    }

    #[test]
    fn hrtb_for_is_not_a_loop() {
        let u = unit_of("{ let f: &dyn for<'a> Fn(&'a f64) = &|_| (); f(&1.0); }");
        let code = code_of(&u);
        assert!(loops_of(&code).is_empty());
    }

    fn diags_of(src: &str) -> Vec<Diagnostic> {
        diags_with_impure(src, &[])
    }

    fn diags_with_impure(src: &str, impure: &[&str]) -> Vec<Diagnostic> {
        let u = unit_of(src);
        let code = code_of(&u);
        let impure: BTreeSet<&str> = impure.iter().copied().collect();
        let mut out = Vec::new();
        for l in loops_of(&code) {
            check_loop(&u, &code, &l, &impure, &mut out);
        }
        out
    }

    #[test]
    fn r10_direct_subscripts_get_a_fix() {
        let src = "{ for i in 0..n { y[i] = a * x[i] + y[i]; } }";
        let ds = diags_of(src);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, Rule::R10);
        let fix = ds[0].fix.as_ref().expect("machine fix");
        assert_eq!(
            fix.replacement,
            "for (y_it, x_it) in y[..n].iter_mut().zip(&x[..n]) \
             {{ *y_it = a * (*x_it) + (*y_it); }}"
                .replace("{{", "{")
                .replace("}}", "}")
        );
    }

    #[test]
    fn r10_value_use_of_loop_var_is_warn_only() {
        // `i` used as a value (not just a subscript) — no machine fix.
        let ds = diags_of("{ for i in 0..n { y[i] = i as f64 * x[i]; } }");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, Rule::R10);
        assert!(ds[0].fix.is_none());
    }

    #[test]
    fn r10_affine_alias_fires_without_fix() {
        // The unrolled-dot shape: `let j = 4 * i;` then `x[j + 1]`.
        let ds = diags_of("{ for i in 0..chunks { let j = 4 * i; s += x[j] * x[j + 1]; } }");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].fix.is_none());
    }

    #[test]
    fn r10_pure_nonzero_lower_bound_gets_a_sliced_fix() {
        // The dot tail-loop shape: pure nonzero lower bound.
        let ds = diags_of("{ for j in 4 * chunks..n { s += x[j] * y[j]; } }");
        assert_eq!(ds.len(), 1);
        let fix = ds[0].fix.as_ref().expect("machine fix");
        assert_eq!(
            fix.replacement,
            "for (x_it, y_it) in x[4 * chunks..n].iter().zip(&y[4 * chunks..n]) \
             { s += (*x_it) * (*y_it); }"
        );
    }

    #[test]
    fn r10_conditional_subscript_blocks_the_fix() {
        // A subscript behind an `if` may never execute; slicing up
        // front could panic where the original loop did not.
        let ds = diags_of("{ for i in 0..n { if keep { y[i] = x[i]; } } }");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].fix.is_none());
    }

    #[test]
    fn r10_ignores_iterator_loops_and_field_bases() {
        assert!(diags_of("{ for (a, b) in x.iter().zip(&y) { s += a * b; } }").is_empty());
        assert!(diags_of("{ for i in 0..n { s += self.data[i * cols + k]; } }").is_empty());
        assert!(diags_of("{ for i in 0..n { m[(i, i)] = 1.0; } }").is_empty());
    }

    #[test]
    fn r10_impure_bound_blocks_the_fix() {
        let ds = diags_of("{ for i in 0..q.pop().unwrap() { y[i] = x[i]; } }");
        assert_eq!(ds.len(), 1);
        assert!(
            ds[0].fix.is_none(),
            "side-effecting bound must not be duplicated"
        );
    }

    #[test]
    fn r11_flags_allocations_in_loops_only() {
        let ds =
            diags_of("{ let mut v = Vec::new(); for c in cols { let t = v.clone(); use_it(t); } }");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, Rule::R11);
        assert!(ds[0].message.contains("clone"));
        assert!(diags_of("{ let mut v = Vec::new(); v.push(1.0); }").is_empty());
    }

    #[test]
    fn r12_invariant_expensive_call_fires() {
        let ds = diags_of("{ while step < max { let g = norm2(residual); walk(g); step += 1; } }");
        assert!(ds.iter().any(|d| d.rule == Rule::R12), "{ds:?}");
    }

    #[test]
    fn r12_impure_nested_call_is_suppressed_by_summary() {
        // `draw(..)` looks invariant token-wise, but its summary says
        // it is impure (e.g. advances an RNG) — no hoist advice.
        let src = "{ while going { let g = norm2(draw(state)); keep(g); } }";
        let ds = diags_with_impure(src, &["draw"]);
        assert!(ds.iter().all(|d| d.rule != Rule::R12), "{ds:?}");
        // Without the summary the v4 heuristic would have fired.
        let ds = diags_with_impure(src, &[]);
        assert!(ds.iter().any(|d| d.rule == Rule::R12), "{ds:?}");
    }

    #[test]
    fn r12_variant_args_do_not_fire() {
        // `a`/`b` are loop binders; `r` is rewritten in the body.
        let ds = diags_of("{ for a in 0..p { let s = dot(cols, a); touch(s); } }");
        assert!(ds.iter().all(|d| d.rule != Rule::R12), "{ds:?}");
        let ds = diags_of("{ while going { r = update(r); let g = norm2(r); keep(g); } }");
        assert!(ds.iter().all(|d| d.rule != Rule::R12), "{ds:?}");
    }
}
