//! Adversarial inputs and resource-governance contracts, end to end.
//!
//! Three families of tests:
//!
//! 1. A parser corpus of hostile spec files (depth bombs, byte-order
//!    marks, NUL bytes, megabyte identifiers, duplicate names) asserting
//!    *structured* errors with correct byte positions — never panics.
//! 2. Budget soundness: a governed query under any fuel level either
//!    returns exactly the unbudgeted answer or a typed
//!    [`ResourceExhausted`] — never a wrong verdict.
//! 3. Batch fault isolation: an injected worker panic poisons one query,
//!    not the batch.

use nalist::gen::chaos::{self, Expectation};
use nalist::guard::{FailAction, FailPoint, INJECTED_PANIC};
use nalist::lint::load_spec;
use nalist::prelude::*;
use nalist::types::parser::DEFAULT_MAX_DEPTH;
use proptest::prelude::*;

// ------------------------------------------------- hostile parser corpus

#[test]
fn depth_at_the_limit_parses_and_one_past_it_does_not() {
    let at_limit = chaos::depth_bomb(DEFAULT_MAX_DEPTH);
    assert!(parse_attr(&at_limit).is_ok());
    let past = chaos::depth_bomb(DEFAULT_MAX_DEPTH + 1);
    match parse_attr(&past) {
        Err(ParseError::TooDeep { at, limit }) => {
            assert_eq!(limit, DEFAULT_MAX_DEPTH);
            // the position is the bracket that crossed the limit: after
            // `limit + 1` copies of "L[" minus the final bracket itself
            assert_eq!(at, (DEFAULT_MAX_DEPTH + 1) * 2 - 1);
            assert_eq!(&past[at..=at], "[");
        }
        other => panic!("expected TooDeep, got {other:?}"),
    }
}

#[test]
fn truncated_depth_bomb_fails_structurally_not_by_stack_overflow() {
    // 65536 unclosed brackets: the depth cap must fire long before the
    // "missing `]`" error could be discovered recursively.
    let e = parse_attr(&chaos::truncated_depth_bomb(65_536)).unwrap_err();
    assert!(matches!(e, ParseError::TooDeep { .. }), "{e:?}");
}

#[test]
fn empty_input_is_a_structured_error() {
    assert!(matches!(
        parse_attr(""),
        Err(ParseError::UnexpectedEnd { .. })
    ));
    assert!(matches!(
        parse_attr("   \t  "),
        Err(ParseError::UnexpectedEnd { .. })
    ));
}

#[test]
fn bom_prefix_is_rejected_at_byte_zero() {
    match parse_attr("\u{feff}L(A, B)") {
        Err(ParseError::Unexpected { at, .. }) => assert_eq!(at, 0),
        other => panic!("expected Unexpected at 0, got {other:?}"),
    }
}

#[test]
fn nul_byte_is_rejected_at_its_exact_offset() {
    match parse_attr("L(A\0B)") {
        Err(ParseError::Unexpected { at, .. }) => assert_eq!(at, 3),
        other => panic!("expected Unexpected at 3, got {other:?}"),
    }
}

#[test]
fn megabyte_identifier_round_trips() {
    let src = chaos::megabyte_identifier(1 << 20);
    let n = parse_attr(&src).unwrap();
    assert_eq!(n.basis_size(), 1);
    assert_eq!(n.to_string().len(), src.len());
}

#[test]
fn duplicate_attribute_names_resolve_ambiguously() {
    let n = parse_attr("L(A, A)").unwrap();
    match parse_subattr_of(&n, "L(A)") {
        Err(ParseError::Ambiguous { count, .. }) => assert_eq!(count, 2),
        other => panic!("expected Ambiguous, got {other:?}"),
    }
}

/// `R(A×k)` and the one-line deps file `R(A×k/2) -> R(A)`: the left side
/// has C(k, k/2) resolutions.
fn wide_ambiguity(k: usize) -> (String, String) {
    let side = |m: usize| format!("R({})", vec!["A"; m].join(", "));
    (side(k), format!("{} -> R(A)\n", side(k / 2)))
}

#[test]
fn lint_ambiguity_hint_does_not_enumerate_resolutions() {
    // k = 40 has C(40, 20) ≈ 1.4e11 resolutions: enumerating them to
    // show the first one would never finish; the hint must come from
    // the leftmost-first walk instead.
    let b = Budget::unlimited();
    let (schema, deps) = wide_ambiguity(40);
    let report = nalist::lint::lint_spec(&schema, &deps, &b).unwrap();
    let d = &report.diagnostics[0];
    assert_eq!(d.code, "L007");
    assert!(
        d.message.contains("137846528820 distinct resolutions"),
        "{}",
        d.message
    );
    let full = format!(
        "R({}, {})",
        vec!["A"; 20].join(", "),
        vec!["λ"; 20].join(", ")
    );
    assert_eq!(
        d.suggestion.as_deref(),
        Some(format!("disambiguate by writing the subattribute in full, e.g. `{full}`").as_str())
    );
    // the hint text is unchanged at sizes the old enumeration managed
    let (schema, deps) = wide_ambiguity(16);
    let report = nalist::lint::lint_spec(&schema, &deps, &b).unwrap();
    assert_eq!(
        report.diagnostics[0].suggestion.as_deref(),
        Some(
            "disambiguate by writing the subattribute in full, e.g. \
             `R(A, A, A, A, A, A, A, A, λ, λ, λ, λ, λ, λ, λ, λ)`"
        )
    );
}

#[test]
fn crlf_dependency_files_load_cleanly() {
    let b = Budget::unlimited();
    let spec = load_spec("L(A, B)", "L(A) -> L(B)\r\nL(B) ->> L(A)\r\n", &b).unwrap();
    assert_eq!(spec.entries.len(), 2);
    assert!(spec.load_diagnostics.is_empty());
}

#[test]
fn whole_chaos_corpus_terminates_with_structured_outcomes() {
    for case in chaos::corpus() {
        // Library level: schema parsing and (when it parses) governed
        // spec loading must return, not panic. A modest budget keeps the
        // resource-hostile cases (atom/identifier bombs) cheap.
        let budget = Budget::unlimited().with_fuel(1 << 20).with_max_atoms(4096);
        let loaded = nalist::lint::load_spec(&case.schema, &case.deps, &budget);
        if case.expect == Expectation::Accept {
            let spec = loaded.unwrap_or_else(|e| panic!("{} must load: {e}", case.name));
            assert!(
                spec.load_diagnostics.is_empty(),
                "{}: unexpected diagnostics {:?}",
                case.name,
                spec.load_diagnostics
            );
        }
        // For Survive cases any Ok/Err is fine — reaching this line at
        // all (no panic, no hang) is the contract.
    }
}

// ------------------------------------------------- budget soundness

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn governed_implies_is_sound_under_any_fuel(seed in any::<u64>()) {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        r.add_str("L(B) ->> L(C)").unwrap();
        r.add_str("L(C) -> L(D)").unwrap();
        let queries = ["L(A) -> L(D)", "L(D) -> L(A)", "L(A) ->> L(C)"];
        let truths: Vec<bool> = queries
            .iter()
            .map(|q| r.implies_str(q, &b).unwrap())
            .collect();
        let fuel = seed % 24;
        for (q, truth) in queries.iter().zip(&truths) {
            // Fresh reasoner per probe so the cache cannot answer for a
            // starved budget.
            let mut fresh = Reasoner::new(&n);
            fresh.add_str("L(A) -> L(B)").unwrap();
            fresh.add_str("L(B) ->> L(C)").unwrap();
            fresh.add_str("L(C) -> L(D)").unwrap();
            let budget = Budget::unlimited().with_fuel(fuel);
            match fresh.implies_str(q, &budget) {
                Ok(b) => prop_assert_eq!(b, *truth, "fuel {} changed the verdict of {}", fuel, q),
                Err(ReasonerError::Resource(e)) => {
                    prop_assert_eq!(e.kind, ResourceKind::Fuel);
                }
                Err(other) => prop_assert!(false, "unexpected error: {}", other),
            }
        }
    }
}

// ------------------------------------------------- batch fault isolation

#[test]
fn injected_panic_degrades_one_batch_item_only() {
    let b = Budget::unlimited();
    let n = parse_attr("L(A, B, C)").unwrap();
    let mut r = Reasoner::new(&n);
    r.add_str("L(A) -> L(B)").unwrap();
    let deps: Vec<CompiledDep> = ["L(A) -> L(B)", "L(B) -> L(A)", "L(C) ->> L(A, B)"]
        .iter()
        .map(|s| {
            Dependency::parse(&n, s)
                .unwrap()
                .compile(r.algebra())
                .unwrap()
        })
        .collect();
    let budget = Budget::unlimited().with_failpoint(FailPoint::nth(
        "membership::closure",
        1,
        FailAction::Panic,
    ));
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let verdicts = r
        .implies_batch(&deps, &budget, std::num::NonZeroUsize::new(1).unwrap())
        .unwrap();
    std::panic::set_hook(prev);
    assert_eq!(verdicts.len(), 3);
    assert!(verdicts[0].as_ref().copied().unwrap());
    match &verdicts[1] {
        Err(QueryError::Panicked { message }) => assert!(message.contains(INJECTED_PANIC)),
        other => panic!("expected the second query to be poisoned, got {other:?}"),
    }
    assert!(verdicts[2].as_ref().copied().unwrap());
    // the reasoner (and its cache) survive for subsequent queries
    assert!(r.implies_str("L(B) -> L(A)", &b).is_ok());
}
