//! # nalist — FDs and MVDs in the Presence of Lists
//!
//! A complete implementation of Hartmann & Link, *"A Membership Algorithm
//! for Functional and Multi-valued Dependencies in the Presence of
//! Lists"* (ENTCS 91, 2004): nested attributes built from base, record
//! and finite list types; the Brouwerian algebra of subattributes; FDs
//! and MVDs with projection-based satisfaction; the sound & complete
//! 14-rule proof system; the polynomial-time membership algorithm
//! (Algorithm 5.1); verified refutation witnesses; and schema-design
//! tooling (covers, keys, 4NF, lossless decomposition).
//!
//! ## Quick start
//!
//! ```
//! use nalist::prelude::*;
//!
//! // the paper's running example (Example 4.2)
//! let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
//! let mut reasoner = Reasoner::new(&n);
//! reasoner.add_str("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])").unwrap();
//! let b = Budget::unlimited();
//!
//! // the mixed meet rule derives a non-trivial FD from the MVD: the
//! // person determines the number of bars visited
//! assert!(reasoner.implies_str("Pubcrawl(Person) -> Pubcrawl(Visit[λ])", &b).unwrap());
//!
//! // the pub list itself is *not* functionally determined — and the
//! // library can hand you a concrete counterexample database:
//! let alg = reasoner.algebra();
//! let text = "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])";
//! let target = CompiledDep::parse(alg, text, ParseLimits::default()).unwrap();
//! let witness = refute(alg, reasoner.compiled_sigma(), &target, &b).unwrap().unwrap();
//! assert!(!witness.instance.satisfies(alg, &target));
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`types`] | universes, nested attributes, values, projections, parser |
//! | [`algebra`] | the Brouwerian algebra `Sub(N)` on atom bitsets |
//! | [`deps`] | FDs/MVDs, instances, satisfaction, generalised join, inference rules, proofs, naive closure |
//! | [`membership`] | Algorithm 5.1, membership decisions, witnesses, Beeri baseline |
//! | [`check`] | trusted certificate checker (no dependency on [`membership`]) |
//! | [`schema`] | covers, keys, normal forms, lossless decomposition |
//! | [`lint`] | span-aware static analysis of specs (rules L001–L009) |
//! | [`gen`] | workload generators and named scenarios |
//! | [`obs`] | observability: span recorder, work counters, histograms |
//! | [`guard`] | resource governance: budgets, deadlines, fail points |
//! | [`store`] | crash-safe durability: versioned snapshots, checksummed WAL |
//! | [`serve`] | the multi-tenant HTTP service and its open-loop load generator |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod theory;

pub use nalist_algebra as algebra;
pub use nalist_check as check;
pub use nalist_deps as deps;
pub use nalist_gen as gen;
pub use nalist_guard as guard;
pub use nalist_lint as lint;
pub use nalist_membership as membership;
pub use nalist_obs as obs;
pub use nalist_schema as schema;
pub use nalist_serve as serve;
pub use nalist_store as store;
pub use nalist_types as types;

/// One-stop imports for typical use.
pub mod prelude {
    pub use nalist_algebra::{Algebra, AlgebraError, AtomSet, WidthClass};
    pub use nalist_check::{verify as check_certificate, Certificate, CheckError, Verdict};
    pub use nalist_deps::{
        chase, parse_sigma, ChaseError, ChaseResult, CompiledDep, DepKind, Dependency, Instance,
    };
    pub use nalist_guard::{Budget, CancelToken, ResourceExhausted, ResourceKind};
    pub use nalist_membership::{
        certified_closure_and_basis, certify, closure_and_basis, closure_and_basis_paper,
        closure_and_basis_run, closure_and_basis_traced, default_batch_threads, implies, refute,
        snapshot_payload, CertifiedBasis, CertifyError, ClosureError, DependencyBasis,
        PersistError, QueryError, Reasoner, ReasonerError, Witness, WitnessError,
    };
    pub use nalist_schema::{
        binary_split, candidate_keys, decompose_4nf, equivalent, is_fourth_nf, is_superkey,
        minimal_cover, verify_lossless,
    };
    pub use nalist_store::{StoreError, WalWriter};
    pub use nalist_types::parser::{
        parse_attr, parse_attr_with, parse_subattr_of, parse_value, ParseLimits,
    };
    pub use nalist_types::{NestedAttr, ParseError, Universe, Value};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_core_workflow() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B, C)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        assert!(r.implies_str("L(A) ->> L(B)", &b).unwrap());
        let alg = r.algebra();
        assert!(is_superkey(
            alg,
            r.compiled_sigma(),
            &alg.from_attr(&parse_subattr_of(&n, "L(A, C)").unwrap())
                .unwrap()
        ));
    }
}
