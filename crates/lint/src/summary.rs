//! Per-function **summaries** — the interprocedural layer of the v5
//! engine.
//!
//! A [`FnSummary`] condenses everything the rules need to know about a
//! call *without* re-entering the callee: which taints its return value
//! carries, whether a panic or nondeterminism source can execute inside
//! it (transitively), whether it allocates inside a loop, whether it
//! writes through `&mut` parameters, and which of its parameter
//! positions flow into a float-comparison guard (the R15 sink
//! positions).
//!
//! Summaries are computed **bottom-up** over the call graph's strongly
//! connected components ([`CallGraph::sccs`] yields them in reverse
//! topological order, so every callee outside the current component is
//! final when a component is processed). Inside a cyclic component the
//! transfer is iterated to a fixpoint: every summary field is a join
//! semilattice (set union / boolean or), transfer functions are
//! monotone, and the lattice height is finite (≤ 3 taints, ≤ |params|
//! indices, 6 booleans), so the iteration terminates — the round cap is
//! a belt-and-braces bound, not a correctness requirement.
//!
//! The *argument→return* taint transfer deliberately has no summary
//! field: [`crate::dataflow`]'s `expr_fact` already unions the taints
//! of every value identifier in an expression, so a call on tainted
//! input yields a tainted result by construction. Summaries carry only
//! what intraprocedural analysis cannot see — what happens *inside*
//! the callee.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{pattern_binders, NonConvergence};
use crate::dataflow::{self, CalleeEffect, Taint};
use crate::graph::{unit_first_item, CallGraph, Unit};
use crate::lexer::{Token, TokenKind};
use crate::parse::FnItem;

/// Markers whose appearance inside a loop body flags the function as
/// allocating per iteration: heap-constructor paths and collection
/// builders. `push` is deliberately absent (amortized O(1) growth is
/// the sanctioned pattern).
const ALLOC_MARKERS: [&str; 6] = [
    "to_vec",
    "to_string",
    "collect",
    "with_capacity",
    "format",
    "clone_from_slice",
];

/// What the engine knows about one function, looking through its whole
/// transitive callee closure. Indexed by call-graph node; module
/// pseudo-nodes and test functions keep the (all-clear) default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Taints the return value carries regardless of arguments
    /// (division / logarithm / square root on a returned path,
    /// transitively through callees).
    pub taint_out: BTreeSet<Taint>,
    /// Parameter indices (raw — `self` is index 0 for methods) that
    /// flow into a comparison or `max`/`min` guard, directly or via a
    /// callee.
    pub tol_param_compare: BTreeSet<usize>,
    /// A panic site (`unwrap`/`expect`/`panic!`) can execute inside
    /// this function or its callees.
    pub panics: bool,
    /// A nondeterminism source (wall clock, thread identity, env read
    /// outside the sanctioned shim) can execute inside.
    pub nondet: bool,
    /// A heap allocation happens inside a loop body, here or in a
    /// callee.
    pub allocates_in_loop: bool,
    /// Writes through a `&mut` parameter (including `&mut self`).
    pub mutates_params: bool,
    /// The written return type names a `Result` (signature fact,
    /// from [`FnItem::returns_result`]).
    pub returns_result: bool,
    /// First parameter is `self` — callers through method syntax must
    /// shift argument indices by one against `tol_param_compare`.
    pub has_self: bool,
    /// Shape contract: parameter index pairs (raw — `self` is index 0)
    /// whose lengths this function requires equal, inferred from
    /// `assert_eq!(a.len(), b.len())`-style guards and positional
    /// forwarding to callees with contracts
    /// ([`crate::shape::infer_pairs`]).
    pub shape_pairs: BTreeSet<(usize, usize)>,
}

impl FnSummary {
    /// Purity in the R12 sense: hoisting a call to this function out
    /// of a loop cannot change behavior — it neither writes through
    /// its parameters nor touches ambient state nor can it panic.
    pub fn is_pure(&self) -> bool {
        !self.mutates_params && !self.nondet && !self.panics
    }
}

/// One name per declared parameter position, `self` included for
/// methods. Positions whose pattern is not a single plain binder
/// (tuples, `_`) get a non-identifier placeholder so they can never
/// match a body token.
pub fn param_names(unit: &Unit, item: &FnItem) -> Vec<String> {
    let code: Vec<(usize, &Token)> = unit
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
        .collect();
    let Some(open) = param_group_open(&code, item) else {
        return Vec::new();
    };
    let close = match_paren(&code, open);
    let mut names = Vec::new();
    for (pi, seg) in split_top_commas(&code, open + 1, close)
        .into_iter()
        .enumerate()
    {
        // The pattern is everything before the top-level `:`.
        let mut pat_end = seg.end;
        let mut depth = 0i32;
        for k in seg.clone() {
            let t = code[k].1;
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
                depth -= 1;
            } else if t.is_punct(":") && depth == 0 {
                pat_end = k;
                break;
            }
        }
        let binders = pattern_binders(&code, seg.start..pat_end);
        match binders.as_slice() {
            [one] => names.push(one.clone()),
            _ => names.push(format!("<arg{pi}>")),
        }
    }
    names
}

/// Parameters whose declared type names an identifier ending in
/// `Session`, as `(binder, type-name)` pairs — the seeds for the R13
/// typestate pass ([`crate::protocol::analyze_seeded`]): a session
/// received as a parameter has an unknown feeding history but is still
/// tracked through `into_path()` consumption.
pub fn session_params(unit: &Unit, item: &FnItem) -> Vec<(String, String)> {
    let code: Vec<(usize, &Token)> = unit
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
        .collect();
    let Some(open) = param_group_open(&code, item) else {
        return Vec::new();
    };
    let close = match_paren(&code, open);
    let mut out = Vec::new();
    for seg in split_top_commas(&code, open + 1, close) {
        let mut colon = None;
        let mut depth = 0i32;
        for k in seg.clone() {
            let t = code[k].1;
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
                depth -= 1;
            } else if t.is_punct(":") && depth == 0 {
                colon = Some(k);
                break;
            }
        }
        let Some(colon) = colon else { continue };
        let binders = pattern_binders(&code, seg.start..colon);
        let [name] = binders.as_slice() else { continue };
        let ty = (colon + 1..seg.end).find_map(|k| {
            code[k]
                .1
                .ident()
                .filter(|id| id.ends_with("Session"))
                .map(str::to_string)
        });
        if let Some(ty) = ty {
            out.push((name.clone(), ty));
        }
    }
    out
}

/// Whether the declared parameter list takes a `&mut` binding (the
/// local half of `mutates_params`; `&mut self` counts).
fn declares_mut_param(unit: &Unit, item: &FnItem) -> bool {
    let code: Vec<(usize, &Token)> = unit
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
        .collect();
    let Some(open) = param_group_open(&code, item) else {
        return false;
    };
    let close = match_paren(&code, open);
    for k in open + 1..close {
        if code[k].1.is_punct("&") {
            // `&mut T` / `&'a mut T`: look a short distance past an
            // optional lifetime for the `mut`.
            for &(_, t) in &code[k + 1..(k + 4).min(close)] {
                if t.ident() == Some("mut") {
                    return true;
                }
                if t.is_punct("&") {
                    break;
                }
            }
        }
    }
    false
}

/// Token index (into `code`) of the `(` opening `item`'s parameter
/// list: the `fn` keyword on the item's line, its name, optional
/// generics, then the group.
fn param_group_open(code: &[(usize, &Token)], item: &FnItem) -> Option<usize> {
    let mut ci = None;
    for (i, &(_, t)) in code.iter().enumerate() {
        if t.line == item.line
            && t.ident() == Some("fn")
            && code
                .get(i + 1)
                .is_some_and(|&(_, n)| n.ident() == Some(item.name.as_str()))
        {
            ci = Some(i);
            break;
        }
    }
    let mut j = ci? + 2;
    // Skip `<...>` generics (the lexer never fuses `>>`).
    if code.get(j).is_some_and(|&(_, t)| t.is_punct("<")) {
        let mut depth = 0i32;
        while let Some(&(_, t)) = code.get(j) {
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    code.get(j)
        .is_some_and(|&(_, t)| t.is_punct("("))
        .then_some(j)
}

/// Index of the `)` matching the `(` at `open`.
fn match_paren(code: &[(usize, &Token)], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while let Some(&(_, t)) = code.get(j) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    code.len()
}

/// Splits `[start, end)` of `code` at top-level commas.
fn split_top_commas(
    code: &[(usize, &Token)],
    start: usize,
    end: usize,
) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut seg = start;
    let mut depth = 0i32;
    let mut j = start;
    while j < end {
        let t = code[j].1;
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") || t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") || t.is_punct(">") {
            depth -= 1;
        } else if t.is_punct(",") && depth == 0 {
            if j > seg {
                out.push(seg..j);
            }
            seg = j + 1;
        }
        j += 1;
    }
    if end > seg {
        out.push(seg..end);
    }
    out
}

/// Whether the body token range `[start, end)` allocates inside a
/// `for`/`while`/`loop` block: heap-constructor paths (`vec!`,
/// `Vec::`, `Box::`, `String::`) or collection-builder calls
/// ([`ALLOC_MARKERS`]) lexically inside the loop's brace block.
fn allocates_in_loop(unit: &Unit, body: (usize, usize)) -> bool {
    let code: Vec<(usize, &Token)> = unit.tokens[body.0..body.1]
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
        .collect();
    let mut i = 0usize;
    while i < code.len() {
        let is_loop_kw = code[i]
            .1
            .ident()
            .is_some_and(|id| matches!(id, "for" | "while" | "loop"));
        if !is_loop_kw {
            i += 1;
            continue;
        }
        // Find the loop's block: first top-level `{` after the header.
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < code.len() {
            let t = code[j].1;
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.is_punct("{") && depth == 0 {
                break;
            }
            j += 1;
        }
        // Scan the brace block for allocation markers.
        let mut braces = 0i32;
        let mut k = j;
        while k < code.len() {
            let t = code[k].1;
            if t.is_punct("{") {
                braces += 1;
            } else if t.is_punct("}") {
                braces -= 1;
                if braces == 0 {
                    break;
                }
            } else if let Some(id) = t.ident() {
                let next = code.get(k + 1).map(|&(_, n)| n);
                let macro_call = next.is_some_and(|n| n.is_punct("!"));
                let path_seg = next.is_some_and(|n| n.is_punct("::"));
                if (matches!(id, "vec" | "format") && macro_call)
                    || (matches!(id, "Vec" | "Box" | "String") && path_seg)
                    || (ALLOC_MARKERS.contains(&id) && !macro_call && !path_seg)
                {
                    return true;
                }
            }
            k += 1;
        }
        i = k + 1;
    }
    false
}

/// The [`CalleeEffect`] map for one caller node: its resolved callees'
/// summaries, keyed by bare callee name (the spelling at the call
/// site), unioned when one name resolves to several candidates.
/// `tol_param_compare` indices are shifted past `self` for methods so
/// they line up with call-site argument positions. Test and
/// module-scope callees contribute nothing.
pub fn callee_effects(
    graph: &CallGraph,
    sums: &[FnSummary],
    ni: usize,
) -> BTreeMap<String, CalleeEffect> {
    let mut out: BTreeMap<String, CalleeEffect> = BTreeMap::new();
    for call in &graph.nodes[ni].calls {
        let cn = &graph.nodes[call.callee];
        if cn.module_scope || cn.is_test {
            continue;
        }
        let s = &sums[call.callee];
        let e = out.entry(cn.name.clone()).or_default();
        e.taint_out.extend(s.taint_out.iter().copied());
        e.mutates_params |= s.mutates_params;
        for &(a, b) in &s.shape_pairs {
            if s.has_self {
                // Drop the receiver and shift to caller-visible
                // argument positions.
                if let (Some(a), Some(b)) = (a.checked_sub(1), b.checked_sub(1)) {
                    e.shape_pairs.insert((a, b));
                }
            } else {
                e.shape_pairs.insert((a, b));
            }
        }
        for &pi in &s.tol_param_compare {
            if s.has_self {
                if pi > 0 {
                    e.tol_param_compare.insert(pi - 1);
                }
            } else {
                e.tol_param_compare.insert(pi);
            }
        }
    }
    out
}

/// Computes all summaries for a unit set, indexed by call-graph node.
///
/// Two phases: a **local** pass fills in per-function facts (signature
/// bits, own panic/nondet sites, own loop allocations), then the
/// **bottom-up** pass walks [`CallGraph::sccs`] in reverse topological
/// order joining callee summaries in — iterated to a fixpoint inside
/// cyclic components, evaluated once for acyclic ones.
///
/// # Errors
///
/// [`NonConvergence`] if a body's dataflow fixpoint, or a cyclic
/// component's summary fixpoint, hits its round cap.
pub fn compute(units: &[Unit], graph: &CallGraph) -> Result<Vec<FnSummary>, NonConvergence> {
    let first = unit_first_item(units);
    let mut sums = vec![FnSummary::default(); graph.nodes.len()];
    let mut params: Vec<Vec<String>> = vec![Vec::new(); graph.nodes.len()];

    for (ni, node) in graph.nodes.iter().enumerate() {
        if node.module_scope || node.is_test {
            continue;
        }
        let unit = &units[node.unit];
        let item = &unit.items[ni - first[node.unit]];
        let ps = param_names(unit, item);
        let s = &mut sums[ni];
        s.returns_result = item.returns_result;
        s.has_self = ps.first().is_some_and(|p| p == "self");
        s.mutates_params = declares_mut_param(unit, item);
        s.panics = !node.panic_sites.is_empty();
        s.nondet = node
            .nondet_sites
            .iter()
            .any(|site| !(node.shim && site.env));
        if let Some(body) = item.body {
            s.allocates_in_loop = allocates_in_loop(unit, body);
        }
        params[ni] = ps;
    }

    for comp in graph.sccs() {
        let cyclic = comp.len() > 1
            || comp
                .iter()
                .any(|&ni| graph.nodes[ni].calls.iter().any(|c| c.callee == ni));
        // Monotone joins over a finite lattice settle well inside the
        // cap; an acyclic component is exact after one evaluation.
        let cap = if cyclic { comp.len() * 4 + 4 } else { 1 };
        let mut rounds = 0;
        loop {
            rounds += 1;
            let mut changed = false;
            for &ni in &comp {
                let node = &graph.nodes[ni];
                if node.module_scope || node.is_test {
                    continue;
                }
                let unit = &units[node.unit];
                let item = &unit.items[ni - first[node.unit]];
                let mut next = sums[ni].clone();
                for call in &node.calls {
                    let cn = &graph.nodes[call.callee];
                    if cn.module_scope || cn.is_test {
                        continue;
                    }
                    let cs = &sums[call.callee];
                    next.panics |= cs.panics;
                    next.nondet |= cs.nondet;
                    next.allocates_in_loop |= cs.allocates_in_loop;
                }
                if let Some(body) = item.body {
                    let effects = callee_effects(graph, &sums, ni);
                    let code = dataflow::body_code(&unit.tokens, body);
                    let facts = dataflow::analyze_with(&code, &unit.rel, &params[ni], &effects)
                        .map_err(|e| e.in_fn(&node.key))?;
                    next.taint_out.extend(facts.ret_taints.iter().copied());
                    next.tol_param_compare
                        .extend(facts.tol_params.iter().copied());
                    next.shape_pairs.extend(crate::shape::infer_pairs(
                        &code,
                        &params[ni],
                        &effects,
                    ));
                }
                if next != sums[ni] {
                    sums[ni] = next;
                    changed = true;
                }
            }
            if !changed || !cyclic {
                break;
            }
            if rounds == cap {
                return Err(NonConvergence {
                    engine: "summary",
                    fn_key: graph.nodes[comp[0]].key.clone(),
                    rounds,
                });
            }
        }
    }
    Ok(sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileClass;

    fn graph_of(src: &str) -> (Vec<Unit>, CallGraph) {
        let units = vec![Unit::new(
            "crates/core/src/t.rs".into(),
            src,
            FileClass::lib_context(),
        )];
        let graph = CallGraph::build(&units);
        (units, graph)
    }

    fn find(graph: &CallGraph, name: &str) -> usize {
        graph
            .nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("no node {name}"))
    }

    #[test]
    fn param_names_cover_self_patterns_and_placeholders() {
        let (units, graph) = graph_of(
            "impl T {\n  pub fn m(&mut self, x: f64, (a, b): (f64, f64)) {}\n}\n\
             pub fn g<K: Ord>(eps: f64, _unused: u8) {}\n",
        );
        let first = unit_first_item(&units);
        let m = &units[0].items[find(&graph, "m") - first[0]];
        assert_eq!(
            param_names(&units[0], m),
            vec!["self", "x", "<arg2>"],
            "self is position 0; tuple patterns get placeholders"
        );
        let g = &units[0].items[find(&graph, "g") - first[0]];
        // `_unused` is a real binder (only bare `_` binds nothing).
        assert_eq!(param_names(&units[0], g), vec!["eps", "_unused"]);
    }

    #[test]
    fn local_bits_signature_sites_and_loop_allocation() {
        let (units, graph) = graph_of(
            "pub fn read() -> Result<u8, E> { Ok(3) }\n\
             pub fn fill(out: &mut [f64]) { out[0] = 1.0; }\n\
             pub fn boom(x: Option<u8>) { x.unwrap(); }\n\
             pub fn ambient() { let t = SystemTime::now(); }\n\
             pub fn churn(n: usize) { for i in 0..n { let v = vec![0.0; i]; } }\n\
             pub fn lean(n: usize) { let mut v = Vec::new(); for i in 0..n { v.push(i); } }\n",
        );
        let sums = compute(&units, &graph).expect("converges");
        assert!(sums[find(&graph, "read")].returns_result);
        assert!(sums[find(&graph, "fill")].mutates_params);
        assert!(!sums[find(&graph, "fill")].is_pure());
        assert!(sums[find(&graph, "boom")].panics);
        assert!(sums[find(&graph, "ambient")].nondet);
        assert!(sums[find(&graph, "churn")].allocates_in_loop);
        assert!(
            !sums[find(&graph, "lean")].allocates_in_loop,
            "Vec::new outside the loop + push inside is the sanctioned shape"
        );
    }

    #[test]
    fn transitive_bits_flow_bottom_up_through_calls() {
        let (units, graph) = graph_of(
            "pub fn top() -> f64 { mid() }\n\
             fn mid() -> f64 { leaf() }\n\
             fn leaf() -> f64 { let x = 2.0; x.sqrt() }\n\
             pub fn also_panics() { mid(); deep_panic(); }\n\
             fn deep_panic() { panic!(\"boom\"); }\n",
        );
        let sums = compute(&units, &graph).expect("converges");
        assert!(sums[find(&graph, "leaf")].taint_out.contains(&Taint::Sqrt));
        assert!(
            sums[find(&graph, "mid")].taint_out.contains(&Taint::Sqrt),
            "tail-call result propagates the callee's out-taint"
        );
        assert!(sums[find(&graph, "top")].taint_out.contains(&Taint::Sqrt));
        assert!(sums[find(&graph, "also_panics")].panics);
        assert!(!sums[find(&graph, "top")].panics);
    }

    #[test]
    fn cyclic_component_reaches_a_fixpoint() {
        // Early-return + tail-call shape: `if`-tail expressions are a
        // documented ret-taint imprecision, so the cycle test uses the
        // form the engine models exactly.
        let (units, graph) = graph_of(
            "pub fn even(n: u32) -> f64 { if n == 0 { return 1.0; } odd(n - 1) }\n\
             pub fn odd(n: u32) -> f64 { if n == 0 { return root(2.0); } even(n - 1) }\n\
             fn root(x: f64) -> f64 { x.sqrt() }\n",
        );
        let sums = compute(&units, &graph).expect("converges");
        // The sqrt taint enters the cycle through `odd` and must
        // stabilize across both members.
        assert!(sums[find(&graph, "odd")].taint_out.contains(&Taint::Sqrt));
        assert!(sums[find(&graph, "even")].taint_out.contains(&Taint::Sqrt));
    }

    #[test]
    fn tol_param_positions_climb_the_call_chain() {
        let (units, graph) = graph_of(
            "fn converged(r: f64, eps: f64) -> bool { r < eps }\n\
             fn check(res: f64, tol: f64) -> bool { converged(res, tol) }\n",
        );
        let sums = compute(&units, &graph).expect("converges");
        let conv = &sums[find(&graph, "converged")];
        assert_eq!(
            conv.tol_param_compare.iter().copied().collect::<Vec<_>>(),
            vec![0, 1]
        );
        let check = &sums[find(&graph, "check")];
        assert!(
            check.tol_param_compare.contains(&1),
            "forwarding `tol` into a sink position is itself a sink position: {check:?}"
        );
    }

    #[test]
    fn method_effects_shift_past_self() {
        let (units, graph) = graph_of(
            "impl Gate {\n  pub fn passes(&self, r: f64, eps: f64) -> bool { r < eps }\n}\n\
             pub fn caller(g: &Gate, r: f64) -> bool { g.passes(r, 1e-9) }\n",
        );
        let sums = compute(&units, &graph).expect("converges");
        let passes = find(&graph, "passes");
        assert!(sums[passes].has_self);
        assert_eq!(
            sums[passes]
                .tol_param_compare
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![1, 2],
            "raw indices include self"
        );
        let eff = callee_effects(&graph, &sums, find(&graph, "caller"));
        assert_eq!(
            eff["passes"]
                .tol_param_compare
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![0, 1],
            "call-site argument indices have self subtracted"
        );
    }
}
