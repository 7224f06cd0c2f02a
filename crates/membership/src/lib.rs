//! # nalist-membership
//!
//! The membership algorithm for FDs and MVDs in the presence of lists
//! (Section 5 of Hartmann & Link, ENTCS 91, 2004):
//!
//! * [`closure`] — Algorithm 5.1: attribute-set closure `X⁺` and
//!   dependency basis `DepB(X)`, with optional per-step tracing
//!   (reproducing the paper's Example 5.1 and Figures 3–4);
//! * [`decide`]/[`Reasoner`] — the membership decision `Σ ⊨ σ`
//!   (Proposition 4.10, Theorem 6.4), in `O(|N|⁴·|Σ|)`;
//! * [`witness`] — verified refutation certificates: when `Σ ⊭ σ`, a
//!   concrete instance satisfying `Σ` and violating `σ` is constructed
//!   from the completeness argument of Section 4.2;
//! * [`beeri`] — Beeri's classical relational algorithm, the baseline
//!   Algorithm 5.1 generalises;
//! * [`persist`] — the snapshot/WAL payload encodings and crash
//!   recovery on top of `nalist-store`;
//! * [`trace`] — paper-notation rendering of algorithm runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beeri;
pub mod cert;
pub mod certify;
pub mod closure;
pub mod decide;
pub mod persist;
pub mod reference;
pub mod trace;
pub mod witness;
pub mod worklist;

pub use certify::{certified_closure_and_basis, certify, CertifiedBasis, CertifyError};
pub use closure::{
    closure_and_basis, closure_and_basis_paper, closure_and_basis_paper_governed,
    closure_and_basis_traced, ClosureError, DependencyBasis, Trace,
};
pub use decide::{
    default_batch_threads, implies, CacheExport, CacheStats, Evidence, QueryError, Reasoner,
    ReasonerError, RestoreError,
};
pub use persist::{
    apply_wal_op, read_reasoner_snapshot, recover, restore_reasoner, snapshot_payload,
    write_reasoner_snapshot, AppliedOp, PersistError, RecoveryReport, WalOp,
};
pub use witness::{refute, Witness, WitnessError};
pub use worklist::{closure_and_basis_run, step_would_change, WorklistRun};
