//! The autofix engine (`rsm-lint fix [--check]`).
//!
//! Machine-applicable edits ride on diagnostics as [`Fix`] values — a
//! half-open byte span into the file plus replacement text (today only
//! rule R10 synthesizes them; see [`crate::perf`]). This module turns
//! a workspace lint into applied edits:
//!
//! 1. lint the workspace and collect every `Fix`, grouped per file
//!    (suppression and test-file filtering have already run, so an
//!    `allow(R10)` also disables the edit);
//! 2. per file, sort edits by span and reject any overlap — two edits
//!    to the same bytes cannot both be byte-exact, so overlap is a
//!    bug in the synthesizer, surfaced as an error rather than a
//!    silently wrong merge;
//! 3. verify every span edge lands on a UTF-8 character boundary of
//!    the *current* file text, then splice back-to-front so earlier
//!    offsets stay valid — byte-exact: nothing outside the spans is
//!    touched, comments and formatting survive;
//! 4. re-lint and repeat until no fix remains (a fixed loop can in
//!    principle expose another fixable loop), bounded by
//!    [`MAX_PASSES`] so a non-converging synthesizer fails loudly
//!    instead of ping-ponging.
//!
//! `fix --check` is the CI idempotence gate: it applies nothing,
//! reports what would change, and exits nonzero when any fix would
//! apply — the committed tree must be fix-clean.

use std::collections::BTreeMap;
use std::path::Path;

use crate::diag::Fix;

/// Upper bound on lint→apply passes before declaring non-convergence.
pub const MAX_PASSES: usize = 4;

/// Result of one [`fix_workspace`] run.
#[derive(Debug, Default)]
pub struct FixSummary {
    /// `(workspace-relative path, edits)` per touched file, sorted by
    /// path. In `--check` mode these are the edits that *would* apply.
    pub files: Vec<(String, usize)>,
    /// Lint passes executed (each write pass re-lints afterwards).
    pub passes: usize,
}

impl FixSummary {
    /// Total edit count across all files.
    pub fn edits(&self) -> usize {
        self.files.iter().map(|(_, n)| n).sum()
    }
}

/// Applies `edits` to `src` and returns the new text. Identical
/// duplicate edits are collapsed; otherwise edits must be in-bounds,
/// on `char` boundaries, and strictly non-overlapping.
///
/// # Errors
///
/// Returns a message naming the offending span on any violation; the
/// input is never partially applied.
pub fn apply_edits(src: &str, edits: &[Fix]) -> Result<String, String> {
    let mut sorted: Vec<&Fix> = edits.iter().collect();
    sorted.sort_by_key(|f| (f.span.0, f.span.1));
    sorted.dedup_by(|a, b| a == b);
    for w in sorted.windows(2) {
        if w[1].span.0 < w[0].span.1 {
            return Err(format!(
                "overlapping edits at bytes {}..{} and {}..{}",
                w[0].span.0, w[0].span.1, w[1].span.0, w[1].span.1
            ));
        }
    }
    for f in &sorted {
        let (s, e) = f.span;
        if s > e || e > src.len() {
            return Err(format!(
                "edit span {s}..{e} out of bounds (len {})",
                src.len()
            ));
        }
        if !src.is_char_boundary(s) || !src.is_char_boundary(e) {
            return Err(format!("edit span {s}..{e} splits a UTF-8 character"));
        }
    }
    let mut out = src.to_string();
    for f in sorted.iter().rev() {
        out.replace_range(f.span.0..f.span.1, &f.replacement);
    }
    Ok(out)
}

/// One workspace lint, reduced to the per-file fix lists.
fn collect_fixes(root: &Path) -> Result<BTreeMap<String, Vec<Fix>>, String> {
    let report = crate::lint_workspace(root)?;
    let mut per_file: BTreeMap<String, Vec<Fix>> = BTreeMap::new();
    for d in &report.diagnostics {
        if let Some(f) = &d.fix {
            per_file.entry(d.file.clone()).or_default().push(f.clone());
        }
    }
    Ok(per_file)
}

/// Applies every machine fix in the workspace (`write = true`), or
/// reports what would apply without touching anything
/// (`write = false`, the `--check` mode).
///
/// # Errors
///
/// Returns a message on IO failure, malformed edits (overlap, bounds,
/// UTF-8), or when fixes fail to converge within [`MAX_PASSES`].
pub fn fix_workspace(root: &Path, write: bool) -> Result<FixSummary, String> {
    let mut summary = FixSummary::default();
    let mut totals: BTreeMap<String, usize> = BTreeMap::new();
    loop {
        let per_file = collect_fixes(root)?;
        summary.passes += 1;
        if per_file.is_empty() {
            break;
        }
        if !write {
            for (rel, fixes) in &per_file {
                totals.insert(rel.clone(), fixes.len());
            }
            break;
        }
        if summary.passes >= MAX_PASSES {
            return Err(format!(
                "fixes did not converge after {MAX_PASSES} passes — synthesizer bug"
            ));
        }
        for (rel, fixes) in &per_file {
            let path = root.join(rel);
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let fixed = apply_edits(&src, fixes).map_err(|e| format!("{rel}: {e}"))?;
            std::fs::write(&path, fixed)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            *totals.entry(rel.clone()).or_default() += fixes.len();
        }
    }
    summary.files = totals.into_iter().collect();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fix(s: usize, e: usize, r: &str) -> Fix {
        Fix {
            span: (s, e),
            replacement: r.into(),
        }
    }

    #[test]
    fn edits_apply_back_to_front_byte_exactly() {
        let src = "aa BB cc DD ee";
        let out = apply_edits(src, &[fix(3, 5, "xx"), fix(9, 11, "yyyy")]).unwrap();
        assert_eq!(out, "aa xx cc yyyy ee");
        // Order of the input list must not matter.
        let out2 = apply_edits(src, &[fix(9, 11, "yyyy"), fix(3, 5, "xx")]).unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn identical_duplicates_collapse_but_overlap_is_an_error() {
        let src = "0123456789";
        let out = apply_edits(src, &[fix(2, 4, "x"), fix(2, 4, "x")]).unwrap();
        assert_eq!(out, "01x456789");
        let err = apply_edits(src, &[fix(2, 5, "x"), fix(4, 6, "y")]).unwrap_err();
        assert!(err.contains("overlapping"), "{err}");
    }

    #[test]
    fn bounds_and_utf8_boundaries_are_enforced() {
        let err = apply_edits("ab", &[fix(1, 5, "x")]).unwrap_err();
        assert!(err.contains("out of bounds"), "{err}");
        // `é` is two bytes; byte 1 is mid-character.
        let err = apply_edits("é!", &[fix(1, 3, "x")]).unwrap_err();
        assert!(err.contains("UTF-8"), "{err}");
    }

    #[test]
    fn empty_edit_list_is_identity() {
        assert_eq!(apply_edits("unchanged", &[]).unwrap(), "unchanged");
    }
}
