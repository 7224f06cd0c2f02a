//! Algorithm 5.1: attribute-set closure `X⁺` and dependency basis
//! `DepB(X)`.
//!
//! The algorithm generalises Beeri's relational membership algorithm. It
//! maintains
//!
//! * `X_new` — the growing set of functionally determined basis
//!   attributes, and
//! * `DB_new` — a partition refinement over the *maximal* basis attributes
//!   of `N` (each block `W` is `^CC`-closed: the downward closure of its
//!   maximal atoms),
//!
//! and repeatedly processes every `U → V` and `U ↠ V` in `Σ`:
//!
//! 1. `Ū := ⊔{W ∈ DB | ∃U' possessed by W, U' ≰ X_new, U' ≤ U}` — the part
//!    of `U` not yet known to be "anchored";
//! 2. `Ṽ := V ∸ Ū` — the part of `V` the dependency actually transfers;
//! 3. for an FD, `X_new ⊔= Ṽ` and every block is reduced by `Ṽ`
//!    (`W ↦ (W ∸ Ṽ)^CC`) while `Ṽ`'s maximal atoms become singleton
//!    blocks;
//! 4. for an MVD, `X_new ⊔= Ṽ ⊓ Ṽ^C` (the mixed meet rule in action:
//!    non-maximal basis attributes of `Ṽ` not possessed by `Ṽ` are
//!    functionally determined) and every block is *split* along `Ṽ`.
//!
//! The loop reaches a fixpoint after at most `|SubB(N)|` passes
//! (Theorem 6.3); every pass is `O(|N|³·|Σ|)`, giving the
//! `O(|N|⁴·|Σ|)` bound of Theorem 6.4.
//!
//! ## Two engines, one semantics
//!
//! This module keeps the *paper-faithful* pass engine ([`run`], public as
//! [`closure_and_basis_paper`]): every pass processes every dependency in
//! FD-then-MVD order and the fixpoint is detected by comparing cloned
//! state. The traced variant [`closure_and_basis_traced`] always uses it,
//! so traces reproduce Example 5.1 and Figures 3–4 of the paper pass for
//! pass, step for step.
//!
//! The untraced entry point [`closure_and_basis`] instead delegates to
//! the change-driven worklist engine in [`crate::worklist`], which skips
//! dependency steps that are provably no-ops. Both engines produce
//! bit-for-bit identical [`DependencyBasis`] values (see the invariant
//! argument in [`crate::worklist`]); the `crossval` test suite checks
//! this on randomised workloads.

use std::collections::BTreeSet;

use nalist_algebra::{Algebra, AlgebraError, AtomSet};
use nalist_deps::{CompiledDep, DepKind};
use nalist_guard::{Budget, ResourceExhausted};

/// Error from the governed closure entry points: either the budget ran
/// out, or the supplied `X` is not downward closed — i.e. not an element
/// of `Sub(N)` at all, so Algorithm 5.1's precondition is violated and
/// any "answer" would be garbage. Internal callers that construct `X`
/// via [`Algebra::from_attr`] can never hit the latter; the check exists
/// for external callers handing in raw atom sets (previously only a
/// `debug_assert!`, so release builds silently computed garbage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosureError {
    /// A resource limit tripped ([`ResourceExhausted`]).
    Resource(ResourceExhausted),
    /// `X` is not downward closed: `atom` is in `X` but one of its
    /// list-node ancestors is not.
    NotDownwardClosed {
        /// A witness atom whose `below` set is not contained in `X`.
        atom: usize,
    },
    /// `X` was built for a different universe than the algebra's
    /// ([`AlgebraError::CapacityMismatch`]). This is the typed form of
    /// the capacity agreement every bitset kernel below this boundary
    /// assumes with only a `debug_assert!`.
    Algebra(AlgebraError),
}

impl std::fmt::Display for ClosureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClosureError::Resource(e) => e.fmt(f),
            ClosureError::NotDownwardClosed { atom } => write!(
                f,
                "X is not downward closed: atom {atom} is present without its list-node ancestors"
            ),
            ClosureError::Algebra(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ClosureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClosureError::Resource(e) => Some(e),
            ClosureError::NotDownwardClosed { .. } => None,
            ClosureError::Algebra(e) => Some(e),
        }
    }
}

impl From<ResourceExhausted> for ClosureError {
    fn from(e: ResourceExhausted) -> Self {
        ClosureError::Resource(e)
    }
}

impl From<AlgebraError> for ClosureError {
    fn from(e: AlgebraError) -> Self {
        ClosureError::Algebra(e)
    }
}

/// Checks Algorithm 5.1's preconditions: `X` belongs to the algebra's
/// universe (capacity agreement — the one public boundary through which
/// a mismatched-width set could reach the specialized kernels) and `X`
/// is downward closed, returning a witness atom on violation. One
/// `below ⊆ X` word-parallel test per atom of `X` — cheap relative to
/// even a single fixpoint pass.
pub(crate) fn check_downward_closed(alg: &Algebra, x: &AtomSet) -> Result<(), ClosureError> {
    alg.check_capacity(x)?;
    match x.iter().find(|&a| !alg.atom(a).below.is_subset(x)) {
        None => Ok(()),
        Some(atom) => Err(ClosureError::NotDownwardClosed { atom }),
    }
}

/// The output of Algorithm 5.1 for a fixed `X` and `Σ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyBasis {
    /// `X⁺` — the attribute-set closure (join of all FD-implied
    /// subattributes).
    pub closure: AtomSet,
    /// The final partition blocks `X^M` (each a `^CC`-closed subattribute;
    /// together their maximal atoms partition `MaxB(N)`).
    pub blocks: Vec<AtomSet>,
    /// `DepB(X) = SubB(X⁺) ∪ X^M` — deduplicated, deterministic order.
    pub basis: Vec<AtomSet>,
}

/// One dependency-processing step inside a pass (recorded for the trace).
#[derive(Debug, Clone)]
pub struct StepTrace {
    /// Index of the processed dependency in the *reordered* sequence
    /// (FDs first, then MVDs — the paper's loop order); see
    /// [`Trace::order`] for the mapping back into `Σ`.
    pub dep_index: usize,
    /// The computed `Ū`.
    pub ubar: AtomSet,
    /// The computed `Ṽ = V ∸ Ū`.
    pub vtilde: AtomSet,
    /// Did this step change `X_new` or `DB_new`?
    pub changed: bool,
    /// `X_new` after the step.
    pub x_after: AtomSet,
    /// `DB_new` after the step (sorted).
    pub db_after: Vec<AtomSet>,
}

/// A full run trace of Algorithm 5.1 (regenerates Example 5.1 and
/// Figures 3–4 of the paper).
#[derive(Debug, Clone)]
pub struct Trace {
    /// `X_new` after initialisation.
    pub init_x: AtomSet,
    /// `DB_new` after initialisation (`MaxB(X^CC) ∪ {X^C}`).
    pub init_db: Vec<AtomSet>,
    /// Mapping from trace `dep_index` to the index in the supplied `Σ`.
    pub order: Vec<usize>,
    /// One entry per REPEAT-UNTIL pass, each a sequence of steps.
    pub passes: Vec<Vec<StepTrace>>,
}

fn sorted(db: &BTreeSet<AtomSet>) -> Vec<AtomSet> {
    db.iter().cloned().collect()
}

/// Computes `X⁺` and `DepB(X)` (Algorithm 5.1), discarding the trace.
///
/// Runs the un-instrumented core of the change-driven worklist engine
/// with an unlimited budget; the output is identical to
/// [`closure_and_basis_paper`]. [`crate::closure_and_basis_run`] is the
/// same computation under a [`Budget`] and a recorder, returning
/// precondition violations as [`ClosureError`] instead of panicking.
///
/// # Panics
/// Panics if `x` is not downward closed (not an element of `Sub(N)`) or
/// was built for a universe of a different capacity than `alg`'s. Sets
/// from [`Algebra::from_attr`] always satisfy both.
pub fn closure_and_basis(alg: &Algebra, sigma: &[CompiledDep], x: &AtomSet) -> DependencyBasis {
    let prepared = crate::worklist::prepare(alg, sigma);
    crate::worklist::run(alg, sigma, &prepared, x, &Budget::unlimited())
        .expect("X must be downward closed and match the algebra's capacity")
        .basis
}

/// Computes `X⁺` and `DepB(X)` with the paper-faithful pass engine
/// (process every dependency every pass, clone-and-compare fixpoint
/// detection). Kept as the reference baseline for benchmarks and
/// cross-validation.
///
/// # Panics
/// Panics if `x` is not downward closed or has a capacity other than
/// `alg`'s, like [`closure_and_basis`].
pub fn closure_and_basis_paper(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
) -> DependencyBasis {
    closure_and_basis_paper_governed(alg, sigma, x, &Budget::unlimited())
        .expect("X must be downward closed and match the algebra's capacity")
}

/// [`closure_and_basis_paper`] under a resource [`Budget`] (one fuel unit
/// per dependency step per pass). Checks the downward-closed and
/// capacity preconditions like [`crate::closure_and_basis_run`].
pub fn closure_and_basis_paper_governed(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
    budget: &Budget,
) -> Result<DependencyBasis, ClosureError> {
    check_downward_closed(alg, x)?;
    Ok(run(alg, sigma, x, None, budget)?)
}

/// Computes `X⁺` and `DepB(X)` and records the full per-step trace.
pub fn closure_and_basis_traced(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
) -> (DependencyBasis, Trace) {
    let mut trace = Trace {
        init_x: AtomSet::empty(alg.atom_count()),
        init_db: Vec::new(),
        order: Vec::new(),
        passes: Vec::new(),
    };
    let basis = run(alg, sigma, x, Some(&mut trace), &Budget::unlimited())
        .expect("unlimited budget cannot be exhausted");
    (basis, trace)
}

fn run(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
    mut trace: Option<&mut Trace>,
    budget: &Budget,
) -> Result<DependencyBasis, ResourceExhausted> {
    debug_assert!(alg.is_downward_closed(x), "X must be an element of Sub(N)");

    // the paper's loop processes all FDs, then all MVDs, per pass
    let order: Vec<usize> = (0..sigma.len())
        .filter(|&i| sigma[i].kind == DepKind::Fd)
        .chain((0..sigma.len()).filter(|&i| sigma[i].kind == DepKind::Mvd))
        .collect();

    let mut x_new = x.clone();
    let mut db: BTreeSet<AtomSet> = BTreeSet::new();
    // DB_new := MaxB(X^CC) ∪ {X^C}
    for m in alg.maximal_atoms_of(x).iter() {
        db.insert(alg.downward_closure(&AtomSet::from_indices(alg.atom_count(), [m])));
    }
    let xc = alg.compl(x);
    if !xc.is_empty() {
        db.insert(xc);
    }

    if let Some(t) = trace.as_deref_mut() {
        t.init_x = x_new.clone();
        t.init_db = sorted(&db);
        t.order = order.clone();
    }

    loop {
        let x_old = x_new.clone();
        let db_old = db.clone();
        let mut pass_steps: Vec<StepTrace> = Vec::new();

        for (k, &i) in order.iter().enumerate() {
            budget.charge(1)?;
            let dep = &sigma[i];
            // Ū := ⊔{W ∈ DB | ∃ atom a possessed by W, a ∉ X_new, a ∈ SubB(U)}
            let mut ubar = AtomSet::empty(alg.atom_count());
            for w in &db {
                let anchored = dep
                    .lhs
                    .iter()
                    .any(|a| !x_new.contains(a) && alg.possessed_by(a, w));
                if anchored {
                    ubar.union_with(w);
                }
            }
            let vtilde = alg.pdiff(&dep.rhs, &ubar);
            let mut changed = false;
            if !vtilde.is_empty() {
                match dep.kind {
                    DepKind::Fd => {
                        let x_next = alg.join(&x_new, &vtilde);
                        let mut db_next: BTreeSet<AtomSet> = BTreeSet::new();
                        for w in &db {
                            let reduced = alg.cc(&alg.pdiff(w, &vtilde));
                            if !reduced.is_empty() {
                                db_next.insert(reduced);
                            }
                        }
                        for m in alg.maximal_atoms_of(&vtilde).iter() {
                            db_next.insert(
                                alg.downward_closure(&AtomSet::from_indices(alg.atom_count(), [m])),
                            );
                        }
                        changed = x_next != x_new || db_next != db;
                        x_new = x_next;
                        db = db_next;
                    }
                    DepKind::Mvd => {
                        // mixed meet rule: X_new ⊔= Ṽ ⊓ Ṽ^C
                        let x_next = alg.join(&x_new, &alg.meet(&vtilde, &alg.compl(&vtilde)));
                        let mut db_next: BTreeSet<AtomSet> = BTreeSet::new();
                        for w in &db {
                            let inter = alg.cc(&alg.meet(&vtilde, w));
                            if !inter.is_empty() && inter != *w {
                                db_next.insert(inter);
                                db_next.insert(alg.cc(&alg.pdiff(w, &vtilde)));
                            } else {
                                db_next.insert(w.clone());
                            }
                        }
                        changed = x_next != x_new || db_next != db;
                        x_new = x_next;
                        db = db_next;
                    }
                }
            }
            if trace.is_some() {
                pass_steps.push(StepTrace {
                    dep_index: k,
                    ubar,
                    vtilde,
                    changed,
                    x_after: x_new.clone(),
                    db_after: sorted(&db),
                });
            }
        }

        if let Some(t) = trace.as_deref_mut() {
            t.passes.push(pass_steps);
        }
        if x_new == x_old && db == db_old {
            break;
        }
    }

    // DepB(X) := SubB(X⁺) ∪ DB_new
    let mut basis: BTreeSet<AtomSet> = db.clone();
    for a in x_new.iter() {
        basis.insert(alg.downward_closure(&AtomSet::from_indices(alg.atom_count(), [a])));
    }
    Ok(DependencyBasis {
        closure: x_new,
        blocks: sorted(&db),
        basis: basis.into_iter().collect(),
    })
}

impl DependencyBasis {
    /// Proposition 4.10 (i): is the MVD `X ↠ Y` implied, i.e. is `Y` the
    /// join of elements of `DepB(X)`?
    ///
    /// `Y` is representable iff every atom of `Y` outside `X⁺` lies in
    /// some block entirely contained in `Y`.
    pub fn mvd_derivable(&self, y: &AtomSet) -> bool {
        y.iter().all(|a| {
            self.closure.contains(a) || self.blocks.iter().any(|w| w.contains(a) && w.is_subset(y))
        })
    }

    /// Proposition 4.10 (ii): is the FD `X → Y` implied, i.e. `Y ≤ X⁺`?
    pub fn fd_derivable(&self, y: &AtomSet) -> bool {
        y.is_subset(&self.closure)
    }

    /// Blocks not below `X⁺` — the "free" combination blocks `W_1, …, W_k`
    /// of Section 4.2 (everything else is functionally determined).
    pub fn free_blocks(&self) -> Vec<&AtomSet> {
        self.blocks
            .iter()
            .filter(|w| !w.is_subset(&self.closure))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_deps::Dependency;
    use nalist_obs::noop;
    use nalist_types::parser::{parse_attr, parse_subattr_of};

    fn setup(attr: &str, deps: &[&str], x: &str) -> (Algebra, Vec<CompiledDep>, AtomSet) {
        let n = parse_attr(attr).unwrap();
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = deps
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        let xs = alg.from_attr(&parse_subattr_of(&n, x).unwrap()).unwrap();
        (alg, sigma, xs)
    }

    #[test]
    fn empty_sigma_closure_is_x() {
        let (alg, sigma, x) = setup("L(A, B, C)", &[], "L(A)");
        let b = closure_and_basis(&alg, &sigma, &x);
        assert_eq!(b.closure, x);
        // blocks: singleton {A} plus X^C = {B, C}
        assert_eq!(b.blocks.len(), 2);
        assert!(b.mvd_derivable(
            &alg.from_attr(&parse_subattr_of(alg.attr(), "L(A, B, C)").unwrap())
                .unwrap()
        ));
        assert!(b.mvd_derivable(&x));
        // L(A, B) is not a union of blocks ({B,C} is one block)
        let ab = alg
            .from_attr(&parse_subattr_of(alg.attr(), "L(A, B)").unwrap())
            .unwrap();
        assert!(!b.mvd_derivable(&ab));
    }

    #[test]
    fn relational_fd_closure() {
        let (alg, sigma, x) = setup("L(A, B, C)", &["L(A) -> L(B)", "L(B) -> L(C)"], "L(A)");
        let b = closure_and_basis(&alg, &sigma, &x);
        assert_eq!(b.closure, alg.top_set());
        assert!(b.fd_derivable(&alg.top_set()));
        // all blocks are singletons once everything is determined
        for w in &b.blocks {
            assert_eq!(w.count(), 1);
        }
        // every MVD with this LHS is derivable (all atoms in X⁺)
        let any = alg
            .from_attr(&parse_subattr_of(alg.attr(), "L(λ, B, C)").unwrap())
            .unwrap();
        assert!(b.mvd_derivable(&any));
    }

    #[test]
    fn relational_mvd_basis() {
        // classic: A ↠ B on L(A, B, C, D) splits {B} from {C, D}
        let (alg, sigma, x) = setup("L(A, B, C, D)", &["L(A) ->> L(B)"], "L(A)");
        let b = closure_and_basis(&alg, &sigma, &x);
        assert_eq!(b.closure, x);
        let bl: Vec<String> = b.blocks.iter().map(|w| alg.render(w)).collect();
        assert_eq!(bl, vec!["L(A)", "L(B)", "L(C, D)"]);
        let y_b = alg
            .from_attr(&parse_subattr_of(alg.attr(), "L(B)").unwrap())
            .unwrap();
        let y_bc = alg
            .from_attr(&parse_subattr_of(alg.attr(), "L(B, C)").unwrap())
            .unwrap();
        let y_cd = alg
            .from_attr(&parse_subattr_of(alg.attr(), "L(C, D)").unwrap())
            .unwrap();
        assert!(b.mvd_derivable(&y_b));
        assert!(!b.mvd_derivable(&y_bc));
        assert!(b.mvd_derivable(&y_cd));
    }

    #[test]
    fn mixed_meet_in_action() {
        // On N = L[A], λ ↠ L[λ] functionally determines L[λ].
        let (alg, sigma, x) = setup("L[A]", &["λ ->> L[λ]"], "λ");
        let b = closure_and_basis(&alg, &sigma, &x);
        assert_eq!(alg.render(&b.closure), "L[λ]");
        let y = alg
            .from_attr(&parse_subattr_of(alg.attr(), "L[λ]").unwrap())
            .unwrap();
        assert!(b.fd_derivable(&y));
    }

    #[test]
    fn trace_records_initialisation() {
        let (alg, sigma, x) = setup("L(A, B, C)", &["L(A) -> L(B)"], "L(A)");
        let (b, t) = closure_and_basis_traced(&alg, &sigma, &x);
        assert_eq!(t.init_x, x);
        assert_eq!(t.init_db.len(), 2); // {A} and X^C = {B, C}
        assert!(t.passes.len() >= 2); // one changing pass + one fixpoint pass
        assert_eq!(t.order, vec![0]);
        let last = t.passes.last().unwrap();
        assert!(last.iter().all(|s| !s.changed));
        assert_eq!(
            b.closure,
            alg.from_attr(&parse_subattr_of(alg.attr(), "L(A, B)").unwrap())
                .unwrap()
        );
    }

    #[test]
    fn fds_processed_before_mvds() {
        let (_, sigma, _) = setup("L(A, B, C)", &["L(A) ->> L(B)", "L(A) -> L(C)"], "L(A)");
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let x = alg
            .from_attr(&parse_subattr_of(&n, "L(A)").unwrap())
            .unwrap();
        let (_, t) = closure_and_basis_traced(&alg, &sigma, &x);
        // order maps trace position 0 to Σ index 1 (the FD)
        assert_eq!(t.order, vec![1, 0]);
    }

    #[test]
    fn free_blocks_exclude_determined() {
        let (alg, sigma, x) = setup("L(A, B, C)", &["L(A) -> L(B)"], "L(A)");
        let b = closure_and_basis(&alg, &sigma, &x);
        let free: Vec<String> = b.free_blocks().iter().map(|w| alg.render(w)).collect();
        assert_eq!(free, vec!["L(C)"]);
    }

    #[test]
    fn closure_is_monotone_in_sigma() {
        let (alg, sigma, x) = setup("L(A, B, C)", &["L(A) -> L(B)", "L(B) -> L(C)"], "L(A)");
        let small = closure_and_basis(&alg, &sigma[..1], &x);
        let big = closure_and_basis(&alg, &sigma, &x);
        assert!(small.closure.is_subset(&big.closure));
    }

    #[test]
    fn governed_entry_points_reject_non_downward_closed_x() {
        // On A'(B, C[D(E, F[G])]), {E} alone (without its list ancestor C)
        // is not an element of Sub(N). Atom ids: 0=B, 1=C, 2=E, 3=F, 4=G.
        let (alg, sigma, _) = setup("A'(B, C[D(E, F[G])])", &["A'(B) ->> A'(C[D(E)])"], "λ");
        let bad = AtomSet::from_indices(5, [2]);
        let b = Budget::unlimited();
        let run = |x: &AtomSet, budget: &Budget| {
            crate::closure_and_basis_run(&alg, &sigma, x, budget, noop())
        };
        let err = run(&bad, &b).unwrap_err();
        assert_eq!(err, ClosureError::NotDownwardClosed { atom: 2 });
        assert!(err.to_string().contains("not downward closed"));
        let err = closure_and_basis_paper_governed(&alg, &sigma, &bad, &b).unwrap_err();
        assert_eq!(err, ClosureError::NotDownwardClosed { atom: 2 });
        // a valid X still works and resource errors still convert
        let good = AtomSet::from_indices(5, [1, 2]);
        assert!(run(&good, &b).is_ok());
        let starved = Budget::unlimited().with_fuel(0);
        assert!(matches!(
            run(&good, &starved),
            Err(ClosureError::Resource(_))
        ));
    }

    #[test]
    fn x_equals_top() {
        let (alg, sigma, _) = setup("L(A, B)", &[], "L(A, B)");
        let b = closure_and_basis(&alg, &sigma, &alg.top_set());
        assert_eq!(b.closure, alg.top_set());
        assert!(b.blocks.iter().all(|w| w.count() == 1));
    }
}
