//! The change-driven worklist engine behind [`crate::closure_and_basis`].
//!
//! Semantically this is exactly Algorithm 5.1 (see [`crate::closure`]); it
//! differs from the paper-faithful pass loop only in *which steps it
//! skips*, and every skipped step is provably a no-op, so the two engines
//! traverse identical state trajectories and produce identical output.
//!
//! ## Why skipping is sound
//!
//! Write a dependency's step as a function of `(X_new, DB)`. Three
//! monotonicity facts drive the engine:
//!
//! 1. **`Ū` only shrinks.** A block only ever changes by being replaced
//!    with subsets of itself (FD reduction `W ↦ (W ∸ Ṽ)^CC`, MVD splits,
//!    and new singletons `b(m)^↓` are all contained in the block that
//!    covered `m`), and `X_new` only grows; both shrink the set of
//!    anchoring blocks and the blocks themselves, so `Ū` is
//!    `⊇`-monotonically decreasing and `Ṽ = V ∸ Ū` only grows.
//! 2. **Refinement preserves no-ops.** Every block is `^CC`-closed — it
//!    equals the downward closure of its maximal atoms, and the maximal
//!    atoms partition `MaxB(N)`. Once all blocks are fully split along a
//!    fixed `Ṽ` (each block's maximal atoms lie entirely inside or
//!    outside `Ṽ`), any refinement of the partition keeps that property,
//!    because sub-blocks carry subsets of their parent's maximal atoms.
//!    The same holds for the FD "fully reduced" state. So a dependency
//!    whose last run changed nothing stays a no-op while `Ṽ` is
//!    unchanged.
//! 3. **A dependency's `Ū` only depends on blocks meeting its LHS.** An
//!    anchoring block possesses an LHS atom, and possession implies
//!    membership, so a block with `W ∩ SubB(U) = ∅` never anchored and —
//!    since new blocks are subsets of the block they replace — its
//!    descendants never will.
//!
//! Hence a clean dependency needs reprocessing only when the *dirty set*
//! — atoms newly added to `X_new`, plus the atoms of every block that was
//! replaced (taking the pre-replacement set, which covers all its
//! descendants) — intersects its LHS footprint. That intersection is one
//! word-parallel mask test per dependency per change, replacing the
//! seed's clone-everything-and-compare pass detection. Deps are scanned
//! in the paper's FD-then-MVD order, so the fixpoint reached is the same
//! one, not merely an equivalent one.
//!
//! Steps themselves run allocation-free on the hot path: anchoring uses
//! the precomputed masks of [`PreparedDep`], the lattice ops write into
//! a reused scratch set (`pdiff_into`/`compl_into`) or build the
//! replacement block directly, the `X_new`/dirty-set updates are the
//! fused single-pass word kernels `union_with_changed`/`union_andnot`,
//! and the partition is a [`BlockPartition`] of inline bitsets instead
//! of a `BTreeSet` that must be cloned to detect change.
//!
//! ## Fired-dependency tracking
//!
//! [`closure_and_basis_run`] additionally reports
//! *which* dependencies fired — changed `X_new` or the partition — at
//! least once during the run ([`WorklistRun::fired`]). This is the
//! footprint index behind the incremental [`crate::Reasoner`]: a cached
//! basis stays valid under `Σ ∖ {d}` whenever `d` never fired while it
//! was computed (removing pure no-op steps leaves the trajectory — and
//! hence the canonical output — untouched), and stays valid under
//! `Σ ∪ {d}` whenever `d`'s step is a no-op at the cached fixpoint
//! ([`step_would_change`]): the cached state is then a fixpoint of the
//! larger Σ too, and any fixpoint of the step operators is *the*
//! dependency basis (Theorem 6.3), which has a canonical representation.

use nalist_algebra::{Algebra, AtomSet, BlockPartition};
use nalist_deps::{CompiledDep, DepKind, PreparedDep};
use nalist_guard::Budget;
use nalist_obs::{Counter, Hist, Recorder};

use crate::closure::{check_downward_closed, ClosureError, DependencyBasis};

/// The output of one worklist run: the basis plus the indices (into the
/// caller's `Σ` slice, ascending) of every dependency whose step changed
/// the engine state at least once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorklistRun {
    /// The computed closure and dependency basis.
    pub basis: DependencyBasis,
    /// Indices into `sigma` of the dependencies that fired, ascending.
    pub fired: Vec<usize>,
    /// Dependency steps pulled off the worklist — the unit of work
    /// Theorem 6.4's bound counts, and what one fuel unit is charged for.
    pub steps: u64,
}

/// Computes `X⁺` and `DepB(X)` with the change-driven worklist engine,
/// under a resource [`Budget`] and an observability [`Recorder`], also
/// reporting which dependencies fired (see [`WorklistRun`]).
///
/// One fuel unit is charged per dependency step pulled off the worklist
/// (the unit of work Theorem 6.4's `O(|N|⁴·|Σ|)` bound counts), and the
/// deadline is sampled along the way. A successful return is always the
/// exact fixpoint — a truncated run surfaces as [`ClosureError::Resource`],
/// never as a partial answer — and bit-for-bit the basis of the
/// paper-order pass engine ([`crate::closure::closure_and_basis_paper`]).
/// The downward-closed precondition on `X` is *checked*:
/// [`ClosureError::NotDownwardClosed`] instead of a `debug_assert!` that
/// release builds compile out.
///
/// An enabled recorder sees the run as a `membership::worklist` span
/// (enter payload: `|Σ|`, exit payload: dependencies fired) plus the
/// `deps_fired` / `worklist_steps` counters and the `fired_per_closure`
/// histogram. With a disabled recorder this is exactly the engine run —
/// not even the payloads are computed.
pub fn closure_and_basis_run(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
    budget: &Budget,
    rec: &dyn Recorder,
) -> Result<WorklistRun, ClosureError> {
    if !rec.enabled() {
        return fixpoint(alg, sigma, x, budget);
    }
    let token = rec.enter(nalist_obs::site::WORKLIST, sigma.len() as u64);
    let result = fixpoint(alg, sigma, x, budget);
    let fired = result.as_ref().map_or(0, |r| r.fired.len() as u64);
    if let Ok(run) = &result {
        rec.add(Counter::DepsFired, fired);
        rec.add(Counter::WorklistSteps, run.steps);
        rec.observe(Hist::FiredPerClosure, fired);
    }
    rec.exit(token, fired);
    result
}

/// The un-instrumented engine core behind [`closure_and_basis_run`] and
/// [`crate::closure_and_basis`].
pub(crate) fn fixpoint(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
    budget: &Budget,
) -> Result<WorklistRun, ClosureError> {
    check_downward_closed(alg, x)?;
    budget.failpoint("membership::closure")?;
    let n = alg.atom_count();

    // FDs first, then MVDs — the paper's processing order; `order` maps
    // each worklist slot back to its index in the caller's Σ
    let order: Vec<usize> = (0..sigma.len())
        .filter(|&i| sigma[i].kind == DepKind::Fd)
        .chain((0..sigma.len()).filter(|&i| sigma[i].kind == DepKind::Mvd))
        .collect();
    let prepared: Vec<PreparedDep> = order.iter().map(|&i| sigma[i].prepare(alg)).collect();

    let mut engine = Engine {
        alg,
        x_new: x.clone(),
        part: BlockPartition::new(n),
        ubar: AtomSet::empty(n),
        vtilde: AtomSet::empty(n),
        scratch: AtomSet::empty(n),
        delta: AtomSet::empty(n),
    };

    // DB_new := MaxB(X^CC) ∪ {X^C}
    for m in alg.maximal_atoms_of(x).iter() {
        engine.part.push_unique(alg.atom(m).below.clone());
    }
    let xc = alg.compl(x);
    if !xc.is_empty() {
        engine.part.push_unique(xc);
    }

    let k = prepared.len();
    let mut dirty = vec![true; k];
    let mut fired = vec![false; k];
    let mut n_dirty = k;
    let mut steps = 0u64;
    while n_dirty > 0 {
        for j in 0..k {
            if !dirty[j] {
                continue;
            }
            budget.charge(1)?;
            steps += 1;
            dirty[j] = false;
            n_dirty -= 1;
            if engine.step(&prepared[j]) {
                fired[j] = true;
                // wake every dependency whose LHS meets the dirty set
                for (jj, other) in prepared.iter().enumerate() {
                    if !dirty[jj] && engine.delta.intersects(&other.lhs) {
                        dirty[jj] = true;
                        n_dirty += 1;
                    }
                }
            }
        }
    }

    let mut fired: Vec<usize> = fired
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f)
        .map(|(j, _)| order[j])
        .collect();
    fired.sort_unstable();
    Ok(WorklistRun {
        basis: engine.finish(),
        fired,
        steps,
    })
}

/// Would processing `dep` change the fixpoint state recorded in `basis`?
///
/// This replays exactly the change test of one engine step (anchoring
/// via the precomputed masks, `Ṽ = V ∸ Ū`, then the FD/MVD mutation
/// conditions) against `basis.closure` / `basis.blocks` without mutating
/// anything. At a fixpoint of `Σ` it is `false` for every `d ∈ Σ` by
/// definition; for a *new* dependency it decides whether a cached basis
/// survives `Σ ∪ {dep}` — `false` means the cached state is a fixpoint
/// of the larger Σ as well, hence still the (canonical) dependency
/// basis.
pub fn step_would_change(alg: &Algebra, dep: &PreparedDep, basis: &DependencyBasis) -> bool {
    let closure = &basis.closure;
    // Ū := ⊔{W ∈ DB | W anchors an un-determined LHS atom}
    let mut ubar = AtomSet::empty(alg.atom_count());
    for w in &basis.blocks {
        if dep.anchors(closure, w) {
            ubar.union_with(w);
        }
    }
    let vtilde = alg.pdiff(&dep.rhs, &ubar);
    if vtilde.is_empty() {
        return false;
    }
    match dep.kind {
        DepKind::Fd => {
            if !vtilde.is_subset(closure) {
                return true;
            }
            let vt_max = alg.maximal_atoms_of(&vtilde);
            let mut present = AtomSet::empty(alg.atom_count());
            for w in &basis.blocks {
                let wmax = alg.maximal_atoms_of(w);
                if !wmax.intersects(&vt_max) {
                    continue;
                }
                if wmax.is_subset(&vtilde) && wmax.count() == 1 {
                    present.union_with(&wmax);
                    continue;
                }
                // a block would genuinely be reduced by Ṽ
                return true;
            }
            // a maximal atom of Ṽ still lacks its singleton block
            !vt_max.is_subset(&present)
        }
        DepKind::Mvd => {
            // mixed meet: Ṽ ⊓ Ṽ^C must already be inside X_new …
            let mut mixed = alg.compl(&vtilde);
            mixed.intersect_with(&vtilde);
            if !mixed.is_subset(closure) {
                return true;
            }
            // … and no block may straddle Ṽ
            basis.blocks.iter().any(|w| {
                let wmax = alg.maximal_atoms_of(w);
                wmax.intersects(&vtilde) && !wmax.is_subset(&vtilde)
            })
        }
    }
}

struct Engine<'a> {
    alg: &'a Algebra,
    x_new: AtomSet,
    part: BlockPartition,
    // scratch sets, reused across steps so the hot path never allocates
    // (block replacements are built owned — they live on in the
    // partition anyway, so building in place saves the old
    // scratch-then-clone dance)
    ubar: AtomSet,
    vtilde: AtomSet,
    scratch: AtomSet,
    /// Atoms whose state changed in the last step: new `X_new` members
    /// plus the pre-change contents of every replaced block.
    delta: AtomSet,
}

impl Engine<'_> {
    /// Runs one dependency step; returns whether it changed anything
    /// (with the change's atom footprint left in `self.delta`).
    fn step(&mut self, dep: &PreparedDep) -> bool {
        // Ū := ⊔{W ∈ DB | W anchors an un-determined LHS atom}
        self.ubar.clear();
        for w in self.part.iter() {
            if dep.anchors(&self.x_new, w) {
                self.ubar.union_with(w);
            }
        }
        // Ṽ := V ∸ Ū
        self.alg.pdiff_into(&dep.rhs, &self.ubar, &mut self.vtilde);
        if self.vtilde.is_empty() {
            return false;
        }
        self.delta.clear();
        match dep.kind {
            DepKind::Fd => self.fd_step(),
            DepKind::Mvd => self.mvd_step(),
        }
    }

    /// `X_new ⊔= Ṽ`; every block is reduced by `Ṽ` and the maximal atoms
    /// of `Ṽ` become singleton blocks.
    fn fd_step(&mut self) -> bool {
        // fused kernels: delta ⊔= Ṽ ⊓ ¬X_new, then X_new ⊔= Ṽ with the
        // grew-flag — no temp set, no separate subset probe
        self.delta.union_andnot(&self.vtilde, &self.x_new);
        let mut changed = self.x_new.union_with_changed(&self.vtilde);
        self.part.bump();
        // vt_max: maximal atoms of Ṽ — the singleton blocks this FD creates
        let vt_max = self.alg.maximal_atoms_of(&self.vtilde);
        // singletons b(m)^↓ that already exist and survive unchanged
        let mut present = AtomSet::empty(self.part.universe());
        let mut i = 0;
        while i < self.part.len() {
            let w = self.part.get(i);
            let wmax = self.alg.maximal_atoms_of(w);
            if !wmax.intersects(&vt_max) {
                // reduction removes no maximal atom: (W ∸ Ṽ)^CC = W
                i += 1;
                continue;
            }
            if wmax.is_subset(&self.vtilde) && wmax.count() == 1 {
                // W is already the singleton b(m)^↓ for some m ∈ MaxB(Ṽ):
                // the paper's step removes and re-adds it — a net no-op
                debug_assert_eq!(
                    *w,
                    self.alg.atom(wmax.iter().next().expect("count == 1")).below
                );
                present.union_with(&wmax);
                i += 1;
                continue;
            }
            // genuine reduction: W ↦ (W ∸ Ṽ)^CC, dropped if empty
            changed = true;
            self.delta.union_with(w);
            self.alg.pdiff_into(w, &self.vtilde, &mut self.scratch);
            let reduced = self.alg.cc(&self.scratch);
            if reduced.is_empty() {
                self.part.swap_remove(i);
                // the swapped-in block is processed at the same index
            } else {
                self.part.replace(i, reduced);
                i += 1;
            }
        }
        for m in vt_max.iter() {
            if !present.contains(m) {
                changed = true;
                let singleton = self.alg.atom(m).below.clone();
                self.delta.union_with(&singleton);
                self.part.push(singleton);
            }
        }
        changed
    }

    /// Mixed meet rule `X_new ⊔= Ṽ ⊓ Ṽ^C`; every block is split along
    /// `Ṽ`.
    fn mvd_step(&mut self) -> bool {
        // mixed meet Ṽ ⊓ Ṽ^C, then the fused delta/X_new kernels
        self.alg.compl_into(&self.vtilde, &mut self.scratch);
        self.scratch.intersect_with(&self.vtilde);
        self.delta.union_andnot(&self.scratch, &self.x_new);
        let mut changed = self.x_new.union_with_changed(&self.scratch);
        self.part.bump();
        let n0 = self.part.len();
        for i in 0..n0 {
            let w = self.part.get(i);
            let wmax = self.alg.maximal_atoms_of(w);
            // split only blocks straddling Ṽ: (Ṽ ⊓ W)^CC ∉ {λ, W}
            if !wmax.intersects(&self.vtilde) || wmax.is_subset(&self.vtilde) {
                continue;
            }
            changed = true;
            self.delta.union_with(w);
            self.scratch.copy_from(w);
            self.scratch.intersect_with(&self.vtilde);
            let inter = self.alg.cc(&self.scratch); // (Ṽ ⊓ W)^CC
            self.alg.pdiff_into(w, &self.vtilde, &mut self.scratch);
            let rest = self.alg.cc(&self.scratch); // (W ∸ Ṽ)^CC
            self.part.replace(i, inter);
            self.part.push(rest);
        }
        changed
    }

    /// Assembles the result exactly as the pass engine does.
    fn finish(self) -> DependencyBasis {
        let blocks = self.part.sorted_sets();
        // DepB(X) := SubB(X⁺) ∪ DB_new, deduplicated and sorted
        let mut basis: std::collections::BTreeSet<AtomSet> = blocks.iter().cloned().collect();
        for a in self.x_new.iter() {
            basis.insert(self.alg.atom(a).below.clone());
        }
        DependencyBasis {
            closure: self.x_new,
            blocks,
            basis: basis.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::{closure_and_basis, closure_and_basis_paper};
    use nalist_deps::Dependency;
    use nalist_obs::noop;
    use nalist_types::parser::{parse_attr, parse_subattr_of};

    fn check(attr: &str, deps: &[&str], xs: &[&str]) {
        let n = parse_attr(attr).unwrap();
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = deps
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        for x in xs {
            let set = alg.from_attr(&parse_subattr_of(&n, x).unwrap()).unwrap();
            let fast = closure_and_basis(&alg, &sigma, &set);
            let paper = closure_and_basis_paper(&alg, &sigma, &set);
            assert_eq!(fast, paper, "X = {x} on {attr} with {deps:?}");
        }
    }

    #[test]
    fn agrees_with_paper_engine_on_relational_schemas() {
        check(
            "L(A, B, C, D)",
            &["L(A) -> L(B)", "L(B) ->> L(C)", "L(C, D) -> L(A)"],
            &["λ", "L(A)", "L(B)", "L(C, D)", "L(A, B, C, D)"],
        );
    }

    #[test]
    fn agrees_with_paper_engine_on_nested_schemas() {
        check(
            "Pubcrawl(Person, Visit[Drink(Beer, Pub)])",
            &[
                "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])",
                "Pubcrawl(Visit[λ]) -> Pubcrawl(Person)",
            ],
            &["λ", "Pubcrawl(Person)", "Pubcrawl(Visit[λ])"],
        );
        check(
            "A'(B, C[D(E, F[G])])",
            &[
                "A'(B) ->> A'(C[D(E)])",
                "A'(C[λ]) -> A'(B)",
                "A'(C[D(F[λ])]) ->> A'(B, C[D(E)])",
            ],
            &["λ", "A'(B)", "A'(C[λ])", "A'(B, C[D(E, F[λ])])"],
        );
    }

    #[test]
    fn agrees_on_the_paper_running_example() {
        check(
            "L1(L2[L3[L4(A, B, C)]], L5[L6(D, E)], L7(F, L8[L9(G, L10[H])], I))",
            &[
                "L1(L2[λ]) -> L1(L5[L6(D, λ)])",
                "L1(L5[L6(D, E)]) ->> L1(L7(F, λ, λ))",
                "L1(L7(λ, L8[λ], λ)) ->> L1(L2[L3[λ]])",
                "L1(L7(F, λ, I)) -> L1(L7(λ, L8[L9(G, λ)], λ))",
            ],
            &["λ", "L1(L2[λ])", "L1(L5[L6(D, E)])", "L1(L7(F, λ, I))"],
        );
    }

    #[test]
    fn empty_sigma_and_top_bottom() {
        check("L(A, B, C)", &[], &["λ", "L(A)", "L(A, B, C)"]);
        check("L[A]", &["λ ->> L[λ]"], &["λ", "L[λ]", "L[A]"]);
    }

    fn run_for(attr: &str, deps: &[&str], x: &str) -> (Algebra, Vec<CompiledDep>, WorklistRun) {
        let n = parse_attr(attr).unwrap();
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = deps
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        let set = alg.from_attr(&parse_subattr_of(&n, x).unwrap()).unwrap();
        let run = closure_and_basis_run(&alg, &sigma, &set, &Budget::unlimited(), noop()).unwrap();
        (alg, sigma, run)
    }

    #[test]
    fn fired_reports_exactly_the_contributing_dependencies() {
        // From X = L(A): A → B fires; C → D never can (C stays
        // unanchored inside the block {C, D}, so Ṽ = ∅ every time)
        let (_, _, run) = run_for("L(A, B, C, D)", &["L(A) -> L(B)", "L(C) -> L(D)"], "L(A)");
        assert_eq!(run.fired, vec![0]);
        // with an empty Σ nothing fires
        let (_, _, none) = run_for("L(A, B, C)", &[], "L(A)");
        assert!(none.fired.is_empty());
    }

    #[test]
    fn fired_indices_refer_to_sigma_order_not_worklist_order() {
        // Σ lists the MVD before the FD; the worklist processes FDs
        // first, but `fired` must still index into Σ as given.
        let (_, _, run) = run_for("L(A, B, C, D)", &["L(A) ->> L(B)", "L(A) -> L(C)"], "L(A)");
        assert_eq!(run.fired, vec![0, 1]);
    }

    #[test]
    fn run_rejects_non_downward_closed_x_with_typed_error() {
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let alg = Algebra::new(&n);
        // {G} without its list ancestors C, F (atom ids 0=B,1=C,2=E,3=F,4=G)
        let bad = AtomSet::from_indices(5, [4]);
        let err = closure_and_basis_run(&alg, &[], &bad, &Budget::unlimited(), noop()).unwrap_err();
        assert_eq!(err, ClosureError::NotDownwardClosed { atom: 4 });
    }

    #[test]
    fn observed_run_matches_governed_and_counts_work() {
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = ["L(A) -> L(B)", "L(B) ->> L(C)"]
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        let x = alg
            .from_attr(&parse_subattr_of(&n, "L(A)").unwrap())
            .unwrap();
        let b = Budget::unlimited();
        let plain = closure_and_basis_run(&alg, &sigma, &x, &b, noop()).unwrap();
        let rec = nalist_obs::MetricsRecorder::new();
        let observed = closure_and_basis_run(&alg, &sigma, &x, &b, &rec).unwrap();
        assert_eq!(observed, plain);
        assert_eq!(rec.counter(Counter::DepsFired), plain.fired.len() as u64);
        assert_eq!(rec.counter(Counter::WorklistSteps), plain.steps);
        assert!(plain.steps >= sigma.len() as u64);
        assert_eq!(plain.basis, closure_and_basis(&alg, &sigma, &x));
    }

    #[test]
    fn no_dependency_would_change_its_own_fixpoint() {
        let cases: &[(&str, &[&str], &[&str])] = &[
            (
                "L(A, B, C, D)",
                &["L(A) -> L(B)", "L(B) ->> L(C)", "L(C, D) -> L(A)"],
                &["λ", "L(A)", "L(B)", "L(C, D)", "L(A, B, C, D)"],
            ),
            (
                "A'(B, C[D(E, F[G])])",
                &[
                    "A'(B) ->> A'(C[D(E)])",
                    "A'(C[λ]) -> A'(B)",
                    "A'(C[D(F[λ])]) ->> A'(B, C[D(E)])",
                ],
                &["λ", "A'(B)", "A'(C[λ])"],
            ),
        ];
        for (attr, deps, xs) in cases {
            for x in *xs {
                let (alg, sigma, run) = run_for(attr, deps, x);
                for d in &sigma {
                    assert!(
                        !step_would_change(&alg, &d.prepare(&alg), &run.basis),
                        "{} at fixpoint of X = {x} on {attr}",
                        d.render(&alg)
                    );
                }
            }
        }
    }

    #[test]
    fn step_would_change_predicts_recompute_divergence() {
        // check both polarities of the predicate against an actual
        // recompute with the dependency appended
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = ["L(A) -> L(B)"]
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        let x = alg
            .from_attr(&parse_subattr_of(&n, "L(A)").unwrap())
            .unwrap();
        let before = closure_and_basis(&alg, &sigma, &x);
        for (dep, expect_change) in [
            ("L(B) -> L(C)", true),  // B ∈ X⁺, C outside: fires
            ("L(C) -> L(D)", false), // C unanchored inside one block: no-op
            ("L(A) -> L(B)", false), // already in Σ: no-op at fixpoint
        ] {
            let d = Dependency::parse(&n, dep).unwrap().compile(&alg).unwrap();
            let predicted = step_would_change(&alg, &d.prepare(&alg), &before);
            assert_eq!(predicted, expect_change, "prediction for {dep}");
            let mut bigger = sigma.clone();
            bigger.push(d);
            let after = closure_and_basis(&alg, &bigger, &x);
            if !predicted {
                assert_eq!(after, before, "no-op prediction must mean bit-identical");
            } else {
                assert_ne!(after, before, "{dep} was predicted to change the basis");
            }
        }
    }
}
