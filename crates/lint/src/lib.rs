//! # nalist-lint
//!
//! Span-aware static analysis for dependency specs — "clippy for Σ".
//!
//! The paper's decision procedures make dependency specs *checkable*: a
//! written dependency can be vacuous (Lemma 4.3), implied by the rest of
//! the spec (Algorithm 5.1), weaker than another line, carry extraneous
//! left-hand-side subattributes, restate what an MVD already yields via
//! the mixed meet rule `X ↠ Y ⊢ X → Y⊓Y^C` (Theorem 4.6), mention basis
//! attributes its own right-hand side does not possess (Definition 4.11),
//! or violate the 4NF-with-lists criterion. This crate turns each of
//! those conditions into a lint rule over a parsed spec:
//!
//! | code | finding |
//! |------|---------|
//! | L000 | syntax error in a dependency line |
//! | L001 | trivial dependency (Lemma 4.3) |
//! | L002 | redundant — implied by the rest of Σ |
//! | L003 | duplicate / subsumed by a stronger line |
//! | L004 | extraneous LHS subattributes (left-reduction) |
//! | L005 | FD derivable from an MVD via the mixed meet rule |
//! | L006 | MVD RHS mentions non-possessed basis attributes |
//! | L007 | unresolvable attribute path (with did-you-mean) |
//! | L008 | spec is not a minimal cover (fix-it prints the cover) |
//! | L009 | 4NF-with-lists violation |
//!
//! Findings are [`Diagnostic`] values anchored to byte [`Span`]s recorded
//! by the parser ([`nalist_types::parser::parse_dependency_spanned`]) and
//! render two ways: rustc-style human output with caret underlines
//! ([`render_human`]) and a JSON document for CI ([`render_json`]).
//!
//! ```
//! use nalist_guard::Budget;
//! use nalist_lint::{lint_spec, Severity};
//!
//! let deps = "L(A, B) -> L(A)\nL(A) -> L(B, C)\n";
//! let report = lint_spec("L(A, B, C)", deps, &Budget::unlimited()).unwrap();
//! assert!(report.diagnostics.iter().any(|d| d.code == "L001"));
//! assert!(report.diagnostics.iter().all(|d| d.severity == Severity::Warning));
//! // the trivial first line is underlined exactly
//! assert_eq!(report.diagnostics[0].span.text(deps), "L(A, B) -> L(A)");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagnostic;
pub mod rules;
pub mod spec;

pub use nalist_types::json;

pub use diagnostic::{render_human, render_json, Diagnostic, LintReport, Severity};
pub use rules::{rules, run_rules, LintCtx, Rule};
pub use spec::{load_spec, Entry, Spec, SpecError};

use nalist_guard::Budget;
use nalist_types::Span;

/// Lints a spec: parses `schema_src` (one nested attribute), loads
/// `deps_src` (one dependency per line), runs every rule and returns the
/// findings sorted by position. Fails only when the schema itself does
/// not parse or the budget runs out (see [`load_spec`]); exhaustion is
/// [`SpecError::Resource`], never a partial report. All dependency-file
/// problems come back as diagnostics.
pub fn lint_spec(
    schema_src: &str,
    deps_src: &str,
    budget: &Budget,
) -> Result<LintReport, SpecError> {
    let spec = load_spec(schema_src, deps_src, budget)?;
    budget.check_deadline()?;
    Ok(report_for(&spec))
}

fn report_for(spec: &Spec) -> LintReport {
    let mut diagnostics = spec.load_diagnostics.clone();
    diagnostics.extend(run_rules(spec));
    diagnostics.sort_by_key(|d| (d.span.start, d.code));
    LintReport { diagnostics }
}

/// Convenience for tests and tools: lint (unbudgeted) and render in one
/// call.
pub fn lint_to_human(schema_src: &str, deps_src: &str, file: &str) -> Result<String, SpecError> {
    let report = lint_spec(schema_src, deps_src, &Budget::unlimited())?;
    Ok(render_human(&report, file, deps_src))
}

/// Convenience for tests and tools: lint (unbudgeted) and render JSON in
/// one call.
pub fn lint_to_json(schema_src: &str, deps_src: &str, file: &str) -> Result<String, SpecError> {
    let report = lint_spec(schema_src, deps_src, &Budget::unlimited())?;
    Ok(render_json(&report, file, deps_src))
}

/// Re-exported so downstream code can build spans without importing
/// `nalist-types` directly.
pub type ByteSpan = Span;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_sorted_by_position() {
        let b = Budget::unlimited();
        let deps = "L(A) -> L(B)\nL(A) -> L(B)\nL(A, B) -> L(A)\n";
        let report = lint_spec("L(A, B, C)", deps, &b).unwrap();
        let starts: Vec<usize> = report.diagnostics.iter().map(|d| d.span.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn clean_spec_reports_nothing() {
        let b = Budget::unlimited();
        let report = lint_spec("L(A, B, C)", "L(A) -> L(B, C)\n", &b).unwrap();
        assert!(report.is_clean());
        assert!(!report.fails(true));
        assert_eq!(render_human(&report, "x.deps", "L(A) -> L(B, C)\n"), "");
    }

    #[test]
    fn load_errors_and_rule_findings_merge() {
        let b = Budget::unlimited();
        let deps = "L(A) -> \nL(A, B) -> L(A)\n";
        let report = lint_spec("L(A, B)", deps, &b).unwrap();
        assert_eq!(report.errors(), 1);
        assert!(report.warnings() >= 1);
        assert!(report.fails(false));
    }

    #[test]
    fn schema_error_is_hard_failure() {
        let b = Budget::unlimited();
        assert!(lint_spec("L(", "", &b).is_err());
    }
}
