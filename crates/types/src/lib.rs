//! # nalist-types
//!
//! Foundational data model for *functional and multi-valued dependencies in
//! the presence of lists* (Hartmann & Link, ENTCS 91, 2004).
//!
//! This crate implements Section 3 of the paper:
//!
//! * [`Universe`] — a finite set of *flat attributes* together with their
//!   domains (Definition 3.1), plus the disjoint set of *labels* used by the
//!   record and list constructors.
//! * [`NestedAttr`] — the inductive set `NA(U, L)` of *nested attributes*
//!   built from the null attribute `λ`, flat attributes, record-valued
//!   attributes `L(N1, …, Nk)` and list-valued attributes `L[N]`
//!   (Definition 3.2).
//! * [`Value`] — elements of `dom(N)` (Definition 3.3): the constant `ok`
//!   for `λ`, base values for flat attributes, tuples for records and finite
//!   lists for list-valued attributes.
//! * The *subattribute* relation `M ≤ N` (Definition 3.4) in
//!   [`subattr`], including the bottom element `λ_N` of `Sub(N)`
//!   (Definition 3.7).
//! * The *projection functions* `π^N_M : dom(N) → dom(M)` for `M ≤ N`
//!   (Definition 3.6) in [`projection`].
//! * Paper-faithful rendering (with the `λ`-omission abbreviation convention
//!   of Section 3.3) in [`display`], a parser for the same notation in
//!   [`parser`], and the per-schema [`SchemaIndex`] that resolves parsed
//!   abbreviations straight to atom ids.
//!
//! Higher layers build on this crate: `nalist-algebra` implements the
//! Brouwerian algebra of `Sub(N)` (Theorem 3.9), `nalist-deps` the
//! dependencies themselves, and `nalist-membership` the membership
//! algorithm (Algorithm 5.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod display;
pub mod error;
pub mod index;
pub mod json;
pub mod parser;
pub mod projection;
pub mod span;
pub mod subattr;
pub mod universe;
pub mod value;

pub use attr::NestedAttr;
pub use error::{ParseError, TypeError};
pub use index::SchemaIndex;
pub use span::Span;
pub use universe::Universe;
pub use value::{BaseValue, Value};
