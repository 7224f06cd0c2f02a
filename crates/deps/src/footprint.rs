//! Precomputed dependency footprints for the change-driven closure
//! engine.
//!
//! Algorithm 5.1 evaluates, for every dependency `U → V` / `U ↠ V` and
//! every partition block `W`, the anchoring test
//! `∃a ∈ SubB(U): a ∉ X_new ∧ possessed_by(a, W)`. Possession of a
//! *maximal* atom degenerates to membership (`above(a) = {a}`), so with
//! the masks precomputed here the common case is a handful of
//! word-parallel bitset operations:
//!
//! * `lhs & W & !X_new == ∅` — no LHS atom of `U` is even a candidate
//!   (possession implies membership), so `W` cannot anchor;
//! * `lhs_max & W & !X_new ≠ ∅` — a maximal LHS atom anchors outright;
//! * otherwise only the (typically very few) non-maximal LHS atoms need
//!   their `above(a) ⊆ W` subset checks.
//!
//! The LHS mask doubles as the dependency's *dirty footprint*: a
//! dependency at fixpoint needs reprocessing only when an atom of its LHS
//! enters `X_new` or belongs to a block that changed (see
//! `nalist-membership`'s `worklist` module for the invariant argument).

use nalist_algebra::{Algebra, AtomId, AtomSet};

use crate::dependency::CompiledDep;

/// The anchor masks of a [`CompiledDep`], precomputed against a fixed
/// [`Algebra`].
///
/// The masks hold no copy of the dependency: its kind and both sides
/// stay on the `CompiledDep` they were prepared from, which every use
/// passes alongside (a prepared `Σ` is index-aligned with the compiled
/// one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedDep {
    /// `SubB(U) ∩ MaxB(N)` — LHS atoms whose possession test is pure
    /// membership.
    pub lhs_max: AtomSet,
    /// The non-maximal LHS atoms, each with its `above` mask (possession
    /// is `above(a) ⊆ W`).
    pub lhs_nonmax: Vec<(AtomId, AtomSet)>,
}

impl PreparedDep {
    /// Is block `w` an anchor for `dep` (the dependency these masks were
    /// prepared from), i.e. does it possess an LHS atom outside `x_new`?
    pub fn anchors(&self, dep: &CompiledDep, x_new: &AtomSet, w: &AtomSet) -> bool {
        // possession implies membership: no LHS atom in W \ X_new, no anchor
        if !dep.lhs.intersects_excluding(w, x_new) {
            return false;
        }
        // any maximal LHS atom in W \ X_new is possessed outright
        if self.lhs_max.intersects_excluding(w, x_new) {
            return true;
        }
        self.lhs_nonmax
            .iter()
            .any(|(a, above)| !x_new.contains(*a) && w.contains(*a) && above.is_subset(w))
    }
}

impl CompiledDep {
    /// Precomputes the anchor masks of this dependency for `alg`.
    pub fn prepare(&self, alg: &Algebra) -> PreparedDep {
        let lhs_nonmax = self
            .lhs
            .iter()
            .filter(|&a| !alg.atom(a).maximal)
            .map(|a| (a, alg.atom(a).above.clone()))
            .collect();
        PreparedDep {
            lhs_max: alg.maximal_atoms_of(&self.lhs),
            lhs_nonmax,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::Dependency;
    use nalist_types::parser::{parse_attr, parse_subattr_of};

    fn prep(attr: &str, dep: &str) -> (Algebra, CompiledDep, PreparedDep) {
        let n = parse_attr(attr).unwrap();
        let alg = Algebra::new(&n);
        let c = Dependency::parse(&n, dep).unwrap().compile(&alg).unwrap();
        let p = c.prepare(&alg);
        (alg, c, p)
    }

    #[test]
    fn masks_partition_the_lhs() {
        let (alg, _, d) = prep("A'(B, C[D(E, F[G])])", "A'(B, C[λ]) ->> A'(C[D(E)])");
        // lhs atoms: 0=B (maximal), 1=C (list, non-maximal)
        assert_eq!(d.lhs_max, AtomSet::from_indices(5, [0]));
        assert_eq!(d.lhs_nonmax.len(), 1);
        assert_eq!(d.lhs_nonmax[0].0, 1);
        assert_eq!(d.lhs_nonmax[0].1, alg.atom(1).above);
    }

    #[test]
    fn anchors_matches_naive_definition() {
        let srcs = [
            ("A'(B, C[D(E, F[G])])", "A'(B, C[λ]) ->> A'(C[D(E)])"),
            ("K[L(M[N'(A, B)], C)]", "K[L(M[λ], λ)] -> K[L(λ, C)]"),
            ("L(A, B, C)", "L(A) -> L(B)"),
        ];
        for (attr, dep) in srcs {
            let (alg, c, d) = prep(attr, dep);
            let elements = nalist_algebra::lattice::enumerate_sets(&alg);
            for x in &elements {
                for w in &elements {
                    let naive = c
                        .lhs
                        .iter()
                        .any(|a| !x.contains(a) && alg.possessed_by(a, w));
                    assert_eq!(d.anchors(&c, x, w), naive, "{dep} with X={x:?}, W={w:?}");
                }
            }
        }
    }

    #[test]
    fn prepare_preserves_sides() {
        // the sides and the kind stay on the compiled dependency: preparing
        // neither changes it nor reads anything but its LHS
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let compile = |src| Dependency::parse(&n, src).unwrap().compile(&alg).unwrap();
        let c = compile("L(A) ->> L(B)");
        let before = c.clone();
        let p = c.prepare(&alg);
        assert_eq!(c, before);
        assert_eq!(p, compile("L(A) -> L(C)").prepare(&alg));
        let x = alg
            .from_attr(&parse_subattr_of(&n, "L(A)").unwrap())
            .unwrap();
        assert!(!p.anchors(&c, &x, &x)); // the only lhs atom is in X
    }
}
