//! Generator-based fuzzing of the lint front end. The linter runs on
//! every build, including on files that are mid-edit and syntactically
//! broken, so the contract is strict: `lex` and `parse_items` must
//! never panic, and every token span must be a valid byte range on
//! UTF-8 character boundaries — the autofix engine splices
//! replacements by those offsets without re-checking them.

use proptest::prelude::*;
use rsm_lint::lexer::{lex, Token};
use rsm_lint::parse::parse_items;
use rsm_lint::rules::lint_units;
use rsm_lint::Unit;

/// Character soup: every char class the lexer special-cases —
/// delimiters, quote openers with no closers, comment markers,
/// multi-byte UTF-8 — so truncated literals and unterminated comments
/// are generated constantly.
const ALPHABET: &[char] = &[
    'a', 'z', 'A', 'Z', '0', '9', '_', ' ', '\n', '\t', '\r', '"', '\'', '\\', '/', '*', '=', '!',
    '<', '>', ':', ';', '{', '}', '(', ')', '[', ']', '#', '.', ',', '-', '+', '&', '|', '%', '@',
    '?', 'é', 'λ', '→', 'r', 'b', 'f', 'e',
];

fn char_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..ALPHABET.len(), 0..160)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Rust-shaped soup: plausible fragments spliced in random order, so
/// the parser's item/brace tracking sees deeply wrong but almost-real
/// programs (unbalanced braces, bodies without signatures, stray
/// generics) far more often than uniform noise would produce.
const FRAGMENTS: &[&str] = &[
    "pub fn f",
    "fn g<T: Clone>",
    "(x: f64, ys: &[u8])",
    "-> Result<u8, E>",
    "{",
    "}",
    "let mut s = LarSession::new(cfg)?;",
    "s.step()?;",
    "0.5",
    "1e-12",
    "1_000.0f64",
    "// line comment\n",
    "/* block /* nested */ comment */",
    "\"string with \\\" escape\"",
    "'c'",
    "'a",
    "r#\"raw string\"#",
    "b\"bytes\"",
    "match x",
    "=> {}",
    "if n == 0",
    "return x;",
    "unsafe",
    "#[cfg(test)]",
    "#[test]",
    "mod m",
    "use std::collections::HashMap;",
    "x.unwrap()",
    "w == z",
    "w != z",
    "for i in 0..n",
    "impl Iterator for Cur",
    "|acc, v| acc + v",
    "&mut out",
    "::",
    "->",
    "..=",
    ";",
    ",",
    "é_ident",
    "\n",
];

fn rust_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..FRAGMENTS.len(), 0..60).prop_map(|ix| {
        let mut src = String::new();
        for i in ix {
            src.push_str(FRAGMENTS[i]);
            src.push(' ');
        }
        src
    })
}

/// The span contract every downstream consumer relies on: in-bounds,
/// half-open, start/end on char boundaries, tokens in source order
/// without overlap, and the slice itself extractable.
fn check_tokens(src: &str, toks: &[Token]) {
    let mut prev_end = 0usize;
    for t in toks {
        let (start, end) = t.span;
        assert!(start <= end, "inverted span {start}..{end} in {src:?}");
        assert!(
            end <= src.len(),
            "span {start}..{end} out of bounds in {src:?}"
        );
        assert!(
            src.is_char_boundary(start) && src.is_char_boundary(end),
            "span {start}..{end} splits a char in {src:?}"
        );
        assert!(
            start >= prev_end,
            "token at {start} overlaps previous end {prev_end} in {src:?}"
        );
        assert!(t.line >= 1, "0-based line leaked for {src:?}");
        let _slice = &src[start..end];
        prev_end = end;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lexer_never_panics_and_spans_hold_on_char_soup(src in char_soup()) {
        let toks = lex(&src);
        check_tokens(&src, &toks);
    }

    #[test]
    fn lexer_never_panics_and_spans_hold_on_rust_soup(src in rust_soup()) {
        let toks = lex(&src);
        check_tokens(&src, &toks);
    }

    #[test]
    fn parser_never_panics_and_bodies_stay_in_bounds(src in rust_soup()) {
        let toks = lex(&src);
        for item in parse_items(&toks) {
            prop_assert!(!item.name.is_empty(), "nameless item from {src:?}");
            prop_assert!(item.line >= 1);
            if let Some((b0, b1)) = item.body {
                prop_assert!(b0 <= b1 && b1 <= toks.len(),
                    "body token range {b0}..{b1} out of bounds ({} tokens) for {src:?}",
                    toks.len());
            }
        }
    }

    #[test]
    fn full_pipeline_never_panics_on_rust_soup(src in rust_soup()) {
        // End to end: call graph, summaries, CFG dataflow, typestate —
        // all of it must survive garbage presented as production code.
        let unit = Unit::new("crates/core/src/fuzzed.rs".into(), &src,
            rsm_lint::FileClass::from_path("crates/core/src/fuzzed.rs"));
        let report = lint_units(&[unit], |_| true);
        prop_assert!(report.as_ref().is_ok_and(|r| r.files_scanned == 1),
            "{report:?} for {src:?}");
    }
}
