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
//! ## The no-op lemma
//!
//! A step whose `Ṽ` lies inside `X_new` changes nothing, so the engine
//! stops right after computing `Ṽ` instead of running the FD reduction
//! or the MVD split pass.
//!
//! **Invariant I.** Every maximal atom `m ∈ X_new` has its singleton
//! block `b(m)^↓` in the partition.
//!
//! * Initialisation establishes it: the initial blocks include the
//!   singletons `MaxB(X^CC)`, one per maximal atom of `X`.
//! * An FD step adds exactly the maximal atoms of `Ṽ` to `X_new`, and
//!   for each `m ∈ MaxB(Ṽ)` it either keeps the singleton `b(m)^↓` or
//!   pushes it. Any other singleton has no maximal atom in `Ṽ`, so the
//!   reduction leaves it as it is.
//! * An MVD step adds the mixed meet `Ṽ ⊓ Ṽ^C` to `X_new`. The mixed
//!   meet contains no maximal atom (`Ṽ^C` is the downward closure of
//!   the atoms outside `Ṽ`, and a maximal atom lies below no other
//!   atom), so `MaxB(X_new)` is unchanged. The step splits only blocks
//!   whose maximal atoms straddle `Ṽ`, and a singleton has one maximal
//!   atom, so it never straddles.
//!
//! **Lemma.** If `Ṽ ≤ X_new`, neither an FD step nor an MVD step changes
//! `X_new` or the blocks.
//!
//! *Proof.* The maximal atoms partition `MaxB(N)` across the blocks, so
//! by Invariant I the only block holding a maximal atom `m ∈ MaxB(Ṽ)`
//! is the singleton `b(m)^↓`. FD: `X_new ⊔ Ṽ = X_new`; every block
//! meeting `MaxB(Ṽ)` is such a singleton, which the step keeps; every
//! other block loses no maximal atom, so `(W ∸ Ṽ)^CC = W`; and every
//! singleton the step would push is already present. MVD: the mixed
//! meet lies below `Ṽ ≤ X_new`, so `X_new` is unchanged; a block
//! meeting `Ṽ` in a maximal atom is a singleton and does not straddle,
//! so nothing is split. ∎
//!
//! The lemma is one `is_subset` test per step, and it subsumes the old
//! `Ṽ = ∅` test. A step that passes it runs a mutation pass that may
//! still be a no-op (an MVD whose mixed meet is already in `X_new` and
//! whose blocks are already split); an FD step that passes it always
//! grows `X_new`. [`step_would_change`] applies the same test. The
//! engine `debug_assert!`s Invariant I after every step.
//!
//! ## Prepared Σ
//!
//! Steps anchor through the precomputed masks of [`PreparedDep`].
//! [`crate::Reasoner`] prepares each dependency once, when it enters
//! `Σ`, and hands the masks, index-aligned with its compiled `Σ`, to
//! every cold fixpoint. The
//! one-shot free functions ([`closure_and_basis_run`],
//! [`crate::closure_and_basis`], [`crate::implies`], the witness and
//! certificate builders) prepare once per call; both reach the same
//! engine.
//!
//! Steps run allocation-free on the hot path: the lattice ops write
//! into a reused scratch set (`pdiff_into`/`compl_into`) or build the
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
///
/// `sigma` is prepared once for this call; [`crate::Reasoner`] keeps a
/// prepared `Σ` and skips that step.
pub fn closure_and_basis_run(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
    budget: &Budget,
    rec: &dyn Recorder,
) -> Result<WorklistRun, ClosureError> {
    fixpoint(alg, sigma, &prepare(alg, sigma), x, budget, rec)
}

/// The anchor masks of every dependency of `sigma`, index-aligned.
pub(crate) fn prepare(alg: &Algebra, sigma: &[CompiledDep]) -> Vec<PreparedDep> {
    sigma.iter().map(|d| d.prepare(alg)).collect()
}

/// [`closure_and_basis_run`] on an already prepared `Σ`: `prepared[i]`
/// holds the anchor masks of `sigma[i]`.
pub(crate) fn fixpoint(
    alg: &Algebra,
    sigma: &[CompiledDep],
    prepared: &[PreparedDep],
    x: &AtomSet,
    budget: &Budget,
    rec: &dyn Recorder,
) -> Result<WorklistRun, ClosureError> {
    if !rec.enabled() {
        return run(alg, sigma, prepared, x, budget);
    }
    let token = rec.enter(nalist_obs::site::WORKLIST, sigma.len() as u64);
    let result = run(alg, sigma, prepared, x, budget);
    let fired = result.as_ref().map_or(0, |r| r.fired.len() as u64);
    if let Ok(run) = &result {
        rec.add(Counter::DepsFired, fired);
        rec.add(Counter::WorklistSteps, run.steps);
        rec.observe(Hist::FiredPerClosure, fired);
    }
    rec.exit(token, fired);
    result
}

/// The un-instrumented worklist loop behind [`fixpoint`], also called
/// directly by the paths that take no recorder
/// ([`crate::closure_and_basis`], [`crate::witness::refute`],
/// [`crate::Reasoner::closure_str`]).
pub(crate) fn run(
    alg: &Algebra,
    sigma: &[CompiledDep],
    prepared: &[PreparedDep],
    x: &AtomSet,
    budget: &Budget,
) -> Result<WorklistRun, ClosureError> {
    debug_assert_eq!(sigma.len(), prepared.len(), "prepared Σ out of sync");
    check_downward_closed(alg, x)?;
    budget.failpoint("membership::closure")?;
    let n = alg.atom_count();

    // FDs first, then MVDs — the paper's processing order; `order` maps
    // each worklist slot back to its index in the caller's Σ
    let order: Vec<usize> = (0..sigma.len())
        .filter(|&i| sigma[i].kind == DepKind::Fd)
        .chain((0..sigma.len()).filter(|&i| sigma[i].kind == DepKind::Mvd))
        .collect();
    let deps: Vec<(&CompiledDep, &PreparedDep)> =
        order.iter().map(|&i| (&sigma[i], &prepared[i])).collect();

    let mut engine = Engine {
        alg,
        x_new: x.clone(),
        part: BlockPartition::new(n),
        ubar: AtomSet::empty(n),
        vtilde: AtomSet::empty(n),
        scratch: AtomSet::empty(n),
        delta: AtomSet::empty(n),
    };

    // DB_new := MaxB(X^CC) ∪ {X^C}; the singletons are distinct by
    // construction, only X^C can coincide with one of them
    for m in alg.maximal_atoms_of(x).iter() {
        engine.part.push(alg.atom(m).below.clone());
    }
    let xc = alg.compl(x);
    if !xc.is_empty() {
        engine.part.push_unique(xc);
    }
    debug_assert!(engine.invariant_i(), "Invariant I broken by initialisation");

    let k = deps.len();
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
            let (dep, masks) = deps[j];
            let changed = engine.step(dep, masks);
            debug_assert!(engine.invariant_i(), "Invariant I broken by step {j}");
            if changed {
                fired[j] = true;
                // wake every dependency whose LHS meets the dirty set
                for (jj, (other, _)) in deps.iter().enumerate() {
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
/// basis. `prepared` holds `dep`'s anchor masks ([`CompiledDep::prepare`]).
pub fn step_would_change(
    alg: &Algebra,
    dep: &CompiledDep,
    prepared: &PreparedDep,
    basis: &DependencyBasis,
) -> bool {
    let closure = &basis.closure;
    // Ū := ⊔{W ∈ DB | W anchors an un-determined LHS atom}
    let mut ubar = AtomSet::empty(alg.atom_count());
    for w in &basis.blocks {
        if prepared.anchors(dep, closure, w) {
            ubar.union_with(w);
        }
    }
    let vtilde = alg.pdiff(&dep.rhs, &ubar);
    // the no-op lemma (module docs): Ṽ ≤ X⁺ changes nothing
    if vtilde.is_subset(closure) {
        return false;
    }
    match dep.kind {
        // X⁺ ⊔= Ṽ grows the closure
        DepKind::Fd => true,
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
    fn step(&mut self, dep: &CompiledDep, masks: &PreparedDep) -> bool {
        // Ū := ⊔{W ∈ DB | W anchors an un-determined LHS atom}
        self.ubar.clear();
        for w in self.part.iter() {
            if masks.anchors(dep, &self.x_new, w) {
                self.ubar.union_with(w);
            }
        }
        // Ṽ := V ∸ Ū
        self.alg.pdiff_into(&dep.rhs, &self.ubar, &mut self.vtilde);
        // the no-op lemma (module docs): Ṽ ≤ X_new changes nothing
        if self.vtilde.is_subset(&self.x_new) {
            return false;
        }
        self.delta.clear();
        match dep.kind {
            DepKind::Fd => {
                self.fd_step();
                true
            }
            DepKind::Mvd => self.mvd_step(),
        }
    }

    /// `X_new ⊔= Ṽ`; every block is reduced by `Ṽ` and the maximal atoms
    /// of `Ṽ` become singleton blocks. Runs only when `Ṽ ⊄ X_new`, so
    /// `X_new` always grows.
    fn fd_step(&mut self) {
        // fused kernel: delta ⊔= Ṽ ⊓ ¬X_new, no temp set
        self.delta.union_andnot(&self.vtilde, &self.x_new);
        self.x_new.union_with(&self.vtilde);
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
                let singleton = self.alg.atom(m).below.clone();
                self.delta.union_with(&singleton);
                self.part.push(singleton);
            }
        }
    }

    /// Mixed meet rule `X_new ⊔= Ṽ ⊓ Ṽ^C`; every block is split along
    /// `Ṽ`.
    fn mvd_step(&mut self) -> bool {
        // mixed meet Ṽ ⊓ Ṽ^C, then the fused delta/X_new kernels
        self.alg.compl_into(&self.vtilde, &mut self.scratch);
        self.scratch.intersect_with(&self.vtilde);
        self.delta.union_andnot(&self.scratch, &self.x_new);
        let mut changed = self.x_new.union_with_changed(&self.scratch);
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

    /// Invariant I of the no-op lemma: every maximal atom of `X_new` has
    /// its singleton block `b(m)^↓` in the partition.
    fn invariant_i(&self) -> bool {
        let mut singletons = AtomSet::empty(self.part.universe());
        for w in self.part.iter() {
            let wmax = self.alg.maximal_atoms_of(w);
            let first = wmax.iter().next();
            if let (1, Some(m)) = (wmax.count(), first) {
                if *w == self.alg.atom(m).below {
                    singletons.insert(m);
                }
            }
        }
        self.alg
            .maximal_atoms_of(&self.x_new)
            .is_subset(&singletons)
    }

    /// Assembles the result exactly as the pass engine does.
    fn finish(self) -> DependencyBasis {
        let blocks = self.part.sorted_sets();
        // DepB(X) := SubB(X⁺) ∪ DB_new, deduplicated and sorted; sized
        // exactly, since a cached basis lives as long as its cache entry
        let mut basis = Vec::with_capacity(blocks.len() + self.x_new.count());
        basis.extend_from_slice(&blocks);
        basis.extend(self.x_new.iter().map(|a| self.alg.atom(a).below.clone()));
        basis.sort_unstable();
        basis.dedup();
        basis.shrink_to_fit();
        DependencyBasis {
            closure: self.x_new,
            blocks,
            basis,
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
                        !step_would_change(&alg, d, &d.prepare(&alg), &run.basis),
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
        // the fixpoint: X⁺ = {A, B}, blocks {A}, {B}, {C, D}
        for (dep, expect_change) in [
            ("L(B) -> L(C)", true),  // B ∈ X⁺, C outside: fires
            ("L(C) -> L(D)", false), // C unanchored inside one block: no-op
            ("L(A) -> L(B)", false), // already in Σ: no-op at fixpoint
            ("L(A) ->> L(C)", true), // Ṽ = {C} splits the block {C, D}
            // Ṽ = {C, D} lies outside X⁺ but straddles no block: the
            // mutation test, not the no-op lemma, rules it out
            ("L(A) ->> L(C, D)", false),
            ("L(C) ->> L(A)", false), // Ṽ = {A} ≤ X⁺: the no-op lemma
        ] {
            let d = Dependency::parse(&n, dep).unwrap().compile(&alg).unwrap();
            let predicted = step_would_change(&alg, &d, &d.prepare(&alg), &before);
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
