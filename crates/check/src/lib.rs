//! # nalist-check
//!
//! The independent, trusted certificate checker.
//!
//! The engine (`nalist-membership`) decides `Σ ⊨ σ` with Algorithm 5.1
//! and can justify every answer: a positive answer carries a derivation
//! over the fourteen inference rules of Theorem 4.6, a negative answer
//! carries the two-tuple counterexample construction of Theorem 4.4.
//! This crate verifies those justifications **without the engine**: it
//! replays the derivation rule by rule (or re-checks the counterexample
//! instance against `Σ` tuple by tuple) using only the data model, the
//! finite subattribute lattice and the rule table.
//!
//! The split follows the untrusted-prover/trusted-checker pattern: the
//! engine may use any optimisation (worklist fixpoints, caches,
//! parallel batches) because nothing it outputs is believed until
//! this crate has re-derived it. Correspondingly, the Cargo dependency
//! graph of `nalist-check` must never reach `nalist-membership` — CI
//! enforces this with `cargo tree`.
//!
//! Certificates are a versioned JSON format ([`format`]); verification
//! ([`verify`]) is budget-governed so hostile certificates (depth/size
//! bombs, dangling node references, capacity-mismatched attribute sets)
//! are rejected with a typed, node-addressed [`CheckError`] instead of
//! hanging the checker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod verify;

pub use format::{
    BasisData, CertNode, Certificate, FormatError, Statement, Verdict, WitnessData, FORMAT_NAME,
    FORMAT_VERSION,
};
pub use verify::{verify, CheckError, NodeError, Report, MAX_WITNESS_BLOCKS};
