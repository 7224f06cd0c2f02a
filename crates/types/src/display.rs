//! Rendering of nested attributes, including the paper's `λ`-omission
//! abbreviation convention (Section 3.3).
//!
//! Two notations are provided:
//!
//! * the **canonical** notation via [`std::fmt::Display`]: every record
//!   component is printed, `λ` included — e.g.
//!   `L1(A, λ, L2[L3(λ, λ)])`;
//! * the **abbreviated** notation via [`abbreviate`]: components that are
//!   the bottom `λ_{N_j}` of their position are omitted, a record that is
//!   entirely bottom collapses to `λ`, and a list whose content is the
//!   bottom of the content type prints as `L[λ]` — e.g. the same attribute
//!   prints as `L1(A, L2[λ])`. Following the paper, the abbreviation is
//!   only used when it is unambiguous: `L(A, λ) ≤ L(A, A)` is *not*
//!   abbreviated to `L(A)` "since this may also refer to `L(λ, A)`";
//!   instead the full form is printed.
//!
//! The intermediate [`Loose`] representation (an abbreviated attribute
//! whose record components are a subsequence of the context's components)
//! is shared with the parser; [`crate::SchemaIndex`] resolves it back to
//! canonical subattributes and decides which abbreviations are
//! unambiguous.

use std::fmt;

use crate::attr::NestedAttr;
use crate::index::SchemaIndex;
use crate::subattr::is_subattr;

impl fmt::Display for NestedAttr {
    /// Canonical (unabbreviated) paper notation; `λ` is printed for the
    /// null attribute.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NestedAttr::Null => write!(f, "λ"),
            NestedAttr::Flat(a) => write!(f, "{a}"),
            NestedAttr::Record(l, children) => {
                write!(f, "{l}(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            NestedAttr::List(l, inner) => write!(f, "{l}[{inner}]"),
        }
    }
}

/// An *abbreviated* nested attribute: record components are a subsequence
/// of the components of the context attribute, `λ` stands for an omitted
/// bottom. Produced by the parser and by [`to_loose`]; resolved against a
/// context attribute by [`crate::SchemaIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Loose {
    /// `λ` — resolves to the bottom `λ_N` of the context.
    Lambda,
    /// A flat attribute name.
    Flat(String),
    /// `L(d1, …, dm)` where the `di` match a subsequence of the context's
    /// components (omitted components are bottom).
    Record(String, Vec<Loose>),
    /// `L[d]`.
    List(String, Box<Loose>),
}

impl fmt::Display for Loose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Loose::Lambda => write!(f, "λ"),
            Loose::Flat(a) => write!(f, "{a}"),
            Loose::Record(l, ds) => {
                write!(f, "{l}(")?;
                for (i, d) in ds.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{d}")?;
                }
                write!(f, ")")
            }
            Loose::List(l, d) => write!(f, "{l}[{d}]"),
        }
    }
}

/// Maximally abbreviated loose form of `x ≤ n` (may be ambiguous; see
/// [`loose_unambiguous`]).
pub fn to_loose(x: &NestedAttr, n: &NestedAttr) -> Loose {
    debug_assert!(is_subattr(x, n), "to_loose requires x ≤ n");
    if x.is_bottom() {
        return Loose::Lambda;
    }
    match (x, n) {
        (NestedAttr::Flat(a), _) => Loose::Flat(a.clone()),
        (NestedAttr::Record(l, xcs), NestedAttr::Record(_, ncs)) => {
            let kept: Vec<Loose> = xcs
                .iter()
                .zip(ncs)
                .filter(|(xc, nc)| **xc != nc.bottom())
                .map(|(xc, nc)| to_loose(xc, nc))
                .collect();
            Loose::Record(l.clone(), kept)
        }
        (NestedAttr::List(l, xi), NestedAttr::List(_, ni)) => {
            if **xi == ni.bottom() {
                Loose::List(l.clone(), Box::new(Loose::Lambda))
            } else {
                Loose::List(l.clone(), Box::new(to_loose(xi, ni)))
            }
        }
        _ => unreachable!("x ≤ n guarantees matching shapes for non-bottom x"),
    }
}

/// Abbreviated loose form of `x ≤ n` that is guaranteed to resolve
/// uniquely: where maximal omission would be ambiguous (the paper's
/// `L(A, A)` case), the record is printed with all components explicit.
/// Callers rendering many subattributes of one `n` should build the
/// [`SchemaIndex`] once and call [`SchemaIndex::loose_unambiguous`].
pub fn loose_unambiguous(x: &NestedAttr, n: &NestedAttr) -> Loose {
    debug_assert!(is_subattr(x, n), "loose_unambiguous requires x ≤ n");
    SchemaIndex::new(n).loose_unambiguous(x)
}

/// Paper-style abbreviated rendering of a subattribute `x ≤ n`
/// (Section 3.3).
///
/// ```
/// use nalist_types::{display::abbreviate, NestedAttr as A};
///
/// // L1(A, λ, L2[L3(λ, λ)]) ≤ L1(A, B, L2[L3(C, D)]) prints as L1(A, L2[λ])
/// let n = A::record("L1", vec![
///     A::flat("A"),
///     A::flat("B"),
///     A::list("L2", A::record("L3", vec![A::flat("C"), A::flat("D")]).unwrap()),
/// ]).unwrap();
/// let x = A::record("L1", vec![
///     A::flat("A"),
///     A::Null,
///     A::list("L2", A::record("L3", vec![A::Null, A::Null]).unwrap()),
/// ]).unwrap();
/// assert_eq!(abbreviate(&x, &n), "L1(A, L2[λ])");
/// ```
pub fn abbreviate(x: &NestedAttr, n: &NestedAttr) -> String {
    loose_unambiguous(x, n).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::NestedAttr as A;

    fn rec(l: &str, ch: Vec<A>) -> A {
        A::record(l, ch).unwrap()
    }

    #[test]
    fn canonical_display() {
        let n = rec(
            "L1",
            vec![
                A::flat("A"),
                A::Null,
                A::list("L2", rec("L3", vec![A::Null, A::Null])),
            ],
        );
        assert_eq!(n.to_string(), "L1(A, λ, L2[L3(λ, λ)])");
    }

    #[test]
    fn paper_abbreviation_example() {
        // Section 3.3: L1(A, λ, L2[L3(λ, λ)]) of L1(A, B, L2[L3(C, D)])
        // is abbreviated L1(A, L2[λ]).
        let n = rec(
            "L1",
            vec![
                A::flat("A"),
                A::flat("B"),
                A::list("L2", rec("L3", vec![A::flat("C"), A::flat("D")])),
            ],
        );
        let x = rec(
            "L1",
            vec![
                A::flat("A"),
                A::Null,
                A::list("L2", rec("L3", vec![A::Null, A::Null])),
            ],
        );
        assert_eq!(abbreviate(&x, &n), "L1(A, L2[λ])");
    }

    #[test]
    fn bottom_abbreviates_to_lambda() {
        let n = rec("L", vec![A::flat("A"), A::flat("B")]);
        assert_eq!(abbreviate(&n.bottom(), &n), "λ");
        assert_eq!(abbreviate(&A::Null, &A::flat("A")), "λ");
    }

    #[test]
    fn ambiguous_case_stays_explicit() {
        // Section 3.3: L(A, λ) ≤ L(A, A) cannot be abbreviated to L(A).
        let n = rec("L", vec![A::flat("A"), A::flat("A")]);
        let x = rec("L", vec![A::flat("A"), A::Null]);
        assert_eq!(abbreviate(&x, &n), "L(A, λ)");
        let y = rec("L", vec![A::Null, A::flat("A")]);
        assert_eq!(abbreviate(&y, &n), "L(λ, A)");
    }

    #[test]
    fn nested_ambiguity_falls_back_to_full_form() {
        // N = L(M(A), M(A)): omitting the bottom second component would
        // print L(M(A)), which has two resolutions — so the full form is
        // used, with the bottom record displayed as λ.
        let inner = rec("M", vec![A::flat("A")]);
        let n = rec("L", vec![inner.clone(), inner.clone()]);
        let x = rec("L", vec![inner.clone(), inner.bottom()]);
        assert_eq!(abbreviate(&x, &n), "L(M(A), λ)");
        let y = rec("L", vec![inner.bottom(), inner]);
        assert_eq!(abbreviate(&y, &n), "L(λ, M(A))");
    }

    #[test]
    fn identical_list_siblings_ambiguity() {
        // two identical list components: same fallback logic applies
        let inner = A::list("M", A::flat("A"));
        let n = rec("L", vec![inner.clone(), inner.clone()]);
        let x = rec("L", vec![inner.clone(), A::Null]);
        assert_eq!(abbreviate(&x, &n), "L(M[A], λ)");
        // and the abbreviation round-trips through the parser
        let printed = abbreviate(&x, &n);
        let reparsed = crate::parser::parse_subattr_of(&n, &printed).unwrap();
        assert_eq!(reparsed, x);
    }

    #[test]
    fn count_resolutions_detects_ambiguity() {
        let n = rec("L", vec![A::flat("A"), A::flat("A")]);
        let d = Loose::Record("L".into(), vec![Loose::Flat("A".into())]);
        let idx = SchemaIndex::new(&n);
        assert_eq!(idx.count(&d), 2);
        // the leftmost of the two places A first
        let first = idx.first_resolution(&d).unwrap();
        assert_eq!(idx.attr_of(&first), rec("L", vec![A::flat("A"), A::Null]));
    }

    #[test]
    fn wide_record_canonical_form_resolves_fast() {
        // a 200-component record whose loose form spells out every
        // component (the canonical rendering: mostly λs). The unique
        // diagonal assignment must be found by DP pruning — naive
        // backtracking wanders through exponentially many λ-prefix
        // embeddings that all die at the right edge
        let n = rec("W", (0..200).map(|i| A::flat(format!("A{i}"))).collect());
        let ds: Vec<Loose> = (0..200)
            .map(|i| {
                if i == 7 || i == 193 {
                    Loose::Flat(format!("A{i}"))
                } else {
                    Loose::Lambda
                }
            })
            .collect();
        let d = Loose::Record("W".into(), ds);
        let idx = SchemaIndex::new(&n);
        assert_eq!(idx.count(&d), 1);
        let r = idx.attr_of(&idx.resolve(&d, "W(…)").unwrap());
        assert_eq!(abbreviate(&r, &n), "W(A7, A193)");
    }

    #[test]
    fn unique_resolution_round_trips() {
        let n = rec(
            "L1",
            vec![
                A::flat("A"),
                A::flat("B"),
                A::list("L2", rec("L3", vec![A::flat("C"), A::flat("D")])),
            ],
        );
        let x = rec(
            "L1",
            vec![
                A::Null,
                A::flat("B"),
                A::list("L2", rec("L3", vec![A::flat("C"), A::Null])),
            ],
        );
        let d = loose_unambiguous(&x, &n);
        let idx = SchemaIndex::new(&n);
        assert_eq!(idx.attr_of(&idx.resolve(&d, "").unwrap()), x);
    }

    #[test]
    fn list_content_bottom_prints_bracket_lambda() {
        // the paper's A(C[λ]) — distinct from plain λ
        let n = rec(
            "A'",
            vec![A::list("C", rec("D", vec![A::flat("E"), A::flat("F")]))],
        );
        let x = rec("A'", vec![A::list("C", rec("D", vec![A::Null, A::Null]))]);
        assert_eq!(abbreviate(&x, &n), "A'(C[λ])");
        // plain bottom is λ, not C[λ]
        assert_eq!(abbreviate(&n.bottom(), &n), "λ");
    }

    #[test]
    fn lambda_resolves_to_bottom() {
        let n = rec("L", vec![A::flat("A"), A::flat("B")]);
        let idx = SchemaIndex::new(&n);
        assert_eq!(idx.count(&Loose::Lambda), 1);
        let atoms = idx.resolve(&Loose::Lambda, "λ").unwrap();
        assert_eq!(idx.attr_of(&atoms), n.bottom());
    }

    #[test]
    fn no_match_counts_zero() {
        let d = Loose::Flat("Z".into());
        let idx = SchemaIndex::new(&A::flat("A"));
        assert_eq!(idx.count(&d), 0);
        assert!(idx.first_resolution(&d).is_none());
        assert!(idx.resolve(&d, "Z").is_err());
    }

    #[test]
    fn deep_list_lambda_display() {
        // X = L1(L2[L3[λ]]) inside L1(L2[L3[L4(A, B, C)]], F)
        let l4 = rec("L4", vec![A::flat("A"), A::flat("B"), A::flat("C")]);
        let n = rec(
            "L1",
            vec![A::list("L2", A::list("L3", l4.clone())), A::flat("F")],
        );
        let x = rec(
            "L1",
            vec![A::list("L2", A::list("L3", l4.bottom())), A::Null],
        );
        assert_eq!(abbreviate(&x, &n), "L1(L2[L3[λ]])");
        let y = rec("L1", vec![A::list("L2", A::Null), A::Null]);
        assert_eq!(abbreviate(&y, &n), "L1(L2[λ])");
    }
}
