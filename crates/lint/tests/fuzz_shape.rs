//! Generator-based fuzzing of the symbolic shape/length dataflow
//! (R16–R18). Two contracts are fuzzed:
//!
//! 1. the [`LenTerm`] join is a real lattice join — commutative,
//!    associative, idempotent, and `Top`-absorbing — over arbitrary
//!    term trees (the fixpoint in `shape::analyze` terminates only
//!    because join never oscillates);
//! 2. the whole pipeline with the shape pass enabled never panics on
//!    length-manipulation soup: `.len()` bindings, slices, asserts,
//!    `split_at`, zip chains, and contract-violating calls spliced in
//!    random order, presented as kernel production code so R16's cone
//!    gate is live.

use proptest::prelude::*;
use rsm_lint::rules::lint_units;
use rsm_lint::shape::{add, cmp_eq, cmp_le, cmp_lt, sub, LenTerm};
use rsm_lint::Unit;

/// Arbitrary term trees built by a stack machine over generated
/// opcodes (the vendored proptest stub has no `prop_oneof`/
/// `prop_recursive`): literals (including negatives — slice
/// arithmetic underflows are representable), symbolic lengths with
/// offsets, opaque expressions, nested `Min`s, and `Top`.
fn build_term(ops: &[usize]) -> LenTerm {
    const NAMES: [&str; 4] = ["a", "b", "c", "d"];
    let mut stack: Vec<LenTerm> = Vec::new();
    for &op in ops {
        match op % 5 {
            0 => stack.push(LenTerm::Lit(op as i64 % 17 - 8)),
            1 => stack.push(LenTerm::Len(
                NAMES[(op / 5) % NAMES.len()].to_string(),
                op as i64 % 9 - 4,
            )),
            2 => stack.push(LenTerm::Expr(format!("e{}", (op / 5) % 3))),
            3 => stack.push(LenTerm::Top),
            _ => {
                if let (Some(b), Some(a)) = (stack.pop(), stack.pop()) {
                    stack.push(LenTerm::min_of(a, b));
                }
            }
        }
    }
    // Fold leftovers through Min so deep trees survive to the laws.
    stack
        .into_iter()
        .reduce(LenTerm::min_of)
        .unwrap_or(LenTerm::Lit(0))
}

fn len_term() -> impl Strategy<Value = LenTerm> {
    proptest::collection::vec(0usize..1000, 1..12).prop_map(|ops| build_term(&ops))
}

/// Rust-shaped soup biased toward every construct the shape transfer
/// special-cases, so seeding, guard refinement, mutation kills, and
/// the three sink scanners all run on deeply wrong programs.
const FRAGMENTS: &[&str] = &[
    "pub fn correlate(xs: &[f64], ys: &[f64])",
    "pub fn column_sq_norms(row: &mut [f64], out: &[f64])",
    "{",
    "}",
    "let n = xs.len();",
    "let m = ys.len();",
    "let v = vec![0.0; n];",
    "let mut w = Vec::with_capacity(m);",
    "w.push(0.0);",
    "w.clear();",
    "let s = &xs[..n];",
    "let t = &ys[1..m - 1];",
    "let (lo, hi) = v.split_at(n / 2);",
    "assert_eq!(xs.len(), ys.len());",
    "debug_assert_eq!(v.len(), w.len());",
    "if xs.len() != ys.len() { return 0.0; }",
    "if n == m",
    "for (x, y) in xs.iter().zip(ys.iter()) {}",
    "for c in s.chunks_exact(4).zip(t.chunks_exact(4)) {}",
    "xs.iter().take(8).zip(w.iter())",
    "v[n]",
    "v[n - 1]",
    "&v[..n + 1]",
    "correlate(&v, &w);",
    "correlate(&v[..3], &w[..4]);",
    "let q = |part: &[f64]| part.iter().zip(v.iter()).count();",
    "return 0.0;",
    ";",
    "..",
    ".len()",
    "zip(",
    ")",
    "\n",
];

fn shape_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..FRAGMENTS.len(), 0..60).prop_map(|ix| {
        let mut src = String::new();
        for i in ix {
            src.push_str(FRAGMENTS[i]);
            src.push(' ');
        }
        src
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn join_is_commutative(a in len_term(), b in len_term()) {
        prop_assert_eq!(a.join(&b), b.join(&a));
    }

    #[test]
    fn join_is_associative(a in len_term(), b in len_term(), c in len_term()) {
        prop_assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
    }

    #[test]
    fn join_is_idempotent_and_top_absorbs(a in len_term()) {
        prop_assert_eq!(a.join(&a), a.clone());
        prop_assert_eq!(a.join(&LenTerm::Top), LenTerm::Top);
        prop_assert_eq!(LenTerm::Top.join(&a), LenTerm::Top);
    }

    #[test]
    fn arith_and_cmp_never_panic(a in len_term(), b in len_term()) {
        // Partial ops must fail closed (None), never crash; a
        // definite `cmp_lt` answer must agree with `cmp_le`'s.
        let _ = add(&a, &b);
        let _ = sub(&a, &b);
        let lt = cmp_lt(&a, &b);
        let le = cmp_le(&a, &b);
        let _ = cmp_eq(&a, &b);
        if lt == Some(true) {
            prop_assert_eq!(le, Some(true));
        }
    }

    #[test]
    fn shape_pass_never_panics_on_length_soup(src in shape_soup()) {
        // Kernel lib path so reach_kernel is non-trivial and R16/R17/
        // R18 all have live gates over the garbage.
        let unit = Unit::new("crates/linalg/src/vec_ops.rs".into(), &src,
            rsm_lint::FileClass::from_path("crates/linalg/src/vec_ops.rs"));
        let report = lint_units(&[unit], |_| true);
        prop_assert!(report.as_ref().is_ok_and(|r| r.files_scanned == 1),
            "{report:?} for {src:?}");
    }
}
