//! Lattice operations of the Brouwerian algebra
//! `(Sub(N), ≤, ⊔, ⊓, ∸, N)` (Definition 3.8, Theorem 3.9), realised on
//! downward-closed atom sets.
//!
//! With `SubB(X ⊔ Y) = SubB(X) ∪ SubB(Y)` and
//! `SubB(X ⊓ Y) = SubB(X) ∩ SubB(Y)` (Section 6 of the paper), join and
//! meet are word-parallel set operations; the pseudo-difference is the
//! downward closure of the set difference — exactly the paper's
//! `SubB`-level procedure; and the Brouwerian complement is
//! `X^C = N ∸ X`.

use crate::atoms::{Algebra, AtomId};
use crate::bitset::AtomSet;

impl Algebra {
    /// The bottom element `λ_N` (empty atom set).
    pub fn bottom_set(&self) -> AtomSet {
        AtomSet::empty(self.atom_count())
    }

    /// The top element `N` (all atoms).
    pub fn top_set(&self) -> AtomSet {
        AtomSet::full(self.atom_count())
    }

    /// `X ≤ Y` in `Sub(N)`.
    pub fn le(&self, x: &AtomSet, y: &AtomSet) -> bool {
        x.is_subset(y)
    }

    /// Join `X ⊔ Y`.
    #[must_use]
    pub fn join(&self, x: &AtomSet, y: &AtomSet) -> AtomSet {
        x.union(y)
    }

    /// Meet `X ⊓ Y`.
    #[must_use]
    pub fn meet(&self, x: &AtomSet, y: &AtomSet) -> AtomSet {
        x.intersect(y)
    }

    /// Pseudo-difference `X ∸ Y`: the least `Z` with `X ≤ Y ⊔ Z`
    /// (equivalently, the downward closure of `SubB(X) \ SubB(Y)`).
    #[must_use]
    pub fn pdiff(&self, x: &AtomSet, y: &AtomSet) -> AtomSet {
        self.downward_closure(&x.difference(y))
    }

    /// Brouwerian complement `X^C = N ∸ X`.
    #[must_use]
    pub fn compl(&self, x: &AtomSet) -> AtomSet {
        self.pdiff(&self.top_set(), x)
    }

    /// Double complement `X^CC`: the join of the basis attributes of `X`
    /// that are maximal in `N` (Section 4.2).
    #[must_use]
    pub fn cc(&self, x: &AtomSet) -> AtomSet {
        self.downward_closure(&x.intersect(self.max_mask()))
    }

    /// The maximal basis attributes of `X` that are maximal in `N`
    /// (`MaxB(X) ∩ MaxB(N)` as a mask).
    #[must_use]
    pub fn maximal_atoms_of(&self, x: &AtomSet) -> AtomSet {
        x.intersect(self.max_mask())
    }

    /// Allocation-free `pdiff`: writes `X ∸ Y` into `out` (which must
    /// have the algebra's capacity; its previous contents are discarded).
    ///
    /// Downward closure is a single pass here because `below(a)` already
    /// contains *all* list-node ancestors of `a`, not just the parent.
    pub fn pdiff_into(&self, x: &AtomSet, y: &AtomSet, out: &mut AtomSet) {
        debug_assert_eq!(out.capacity(), self.atom_count());
        out.clear();
        for wi in 0..x.word_count() {
            let mut w = x.word(wi) & !y.word(wi);
            while w != 0 {
                let a = wi * 64 + w.trailing_zeros() as usize;
                out.union_with(&self.atom(a).below);
                w &= w - 1;
            }
        }
    }

    /// Allocation-free `cc`: writes `X^CC` into `out`.
    pub fn cc_into(&self, x: &AtomSet, out: &mut AtomSet) {
        debug_assert_eq!(out.capacity(), self.atom_count());
        out.clear();
        for wi in 0..x.word_count() {
            let mut w = x.word(wi) & self.max_mask().word(wi);
            while w != 0 {
                let a = wi * 64 + w.trailing_zeros() as usize;
                out.union_with(&self.atom(a).below);
                w &= w - 1;
            }
        }
    }

    /// Allocation-free Brouwerian complement: writes `X^C = N ∸ X` into
    /// `out`.
    pub fn compl_into(&self, x: &AtomSet, out: &mut AtomSet) {
        debug_assert_eq!(out.capacity(), self.atom_count());
        out.clear();
        let n = self.atom_count();
        for wi in 0..x.word_count() {
            let valid = if (wi + 1) * 64 <= n {
                u64::MAX
            } else {
                (1u64 << (n % 64)) - 1
            };
            let mut w = !x.word(wi) & valid;
            while w != 0 {
                let a = wi * 64 + w.trailing_zeros() as usize;
                out.union_with(&self.atom(a).below);
                w &= w - 1;
            }
        }
    }

    /// Is atom `a` *possessed* by `W` (Definition 4.11)? Every basis
    /// attribute `Z ≥ b(a)` must also satisfy `Z ≤ W`; in atom terms,
    /// `above(a) ⊆ W`.
    pub fn possessed_by(&self, a: AtomId, w: &AtomSet) -> bool {
        self.atom(a).above.is_subset(w)
    }

    /// The set of atoms possessed by `W`.
    #[must_use]
    pub fn possessed_set(&self, w: &AtomSet) -> AtomSet {
        AtomSet::from_indices(
            self.atom_count(),
            w.iter().filter(|&a| self.possessed_by(a, w)),
        )
    }

    /// Is the FD `X → Y` trivial, i.e. `Y ≤ X` (Lemma 4.3)?
    pub fn fd_trivial(&self, x: &AtomSet, y: &AtomSet) -> bool {
        self.le(y, x)
    }

    /// Is the MVD `X ↠ Y` trivial, i.e. `Y ≤ X` or `X ⊔ Y = N`
    /// (Lemma 4.3)?
    pub fn mvd_trivial(&self, x: &AtomSet, y: &AtomSet) -> bool {
        self.le(y, x) || self.join(x, y) == self.top_set()
    }

    /// Renders a subattribute set in the paper's abbreviated notation.
    pub fn render(&self, x: &AtomSet) -> String {
        self.index().loose_unambiguous(&self.to_attr(x)).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::Algebra;
    use nalist_types::parser::{parse_attr, parse_subattr_of};

    fn alg_la() -> Algebra {
        // N = L[A]: the paper's non-Boolean example after Theorem 3.9
        Algebra::new(&parse_attr("L[A]").unwrap())
    }

    #[test]
    fn non_boolean_example_after_theorem_39() {
        // Y = L[λ]: Y^C = N, Y ⊓ Y^C = Y ≠ λ, Y^CC = λ ≠ Y.
        let alg = alg_la();
        let n = parse_attr("L[A]").unwrap();
        let y = alg
            .from_attr(&parse_subattr_of(&n, "L[λ]").unwrap())
            .unwrap();
        let yc = alg.compl(&y);
        assert_eq!(yc, alg.top_set());
        assert_eq!(alg.meet(&y, &yc), y);
        assert!(!alg.meet(&y, &yc).is_empty());
        assert_eq!(alg.cc(&y), alg.bottom_set());
        // cc computed as double complement agrees
        assert_eq!(alg.compl(&alg.compl(&y)), alg.bottom_set());
    }

    #[test]
    fn pdiff_adjunction_on_small_algebra() {
        // Z ∸ Y ≤ X iff Z ≤ Y ⊔ X, checked exhaustively over Sub(L[A]) and
        // Sub(A'(B, C[D(E, F[G])])).
        for src in ["L[A]", "A'(B, C[D(E, F[G])])"] {
            let n = parse_attr(src).unwrap();
            let alg = Algebra::new(&n);
            let elements = crate::lattice::enumerate_sets(&alg);
            for z in &elements {
                for y in &elements {
                    let d = alg.pdiff(z, y);
                    assert!(alg.is_downward_closed(&d));
                    for x in &elements {
                        assert_eq!(
                            alg.le(&d, x),
                            alg.le(z, &alg.join(y, x)),
                            "adjunction failed in {src}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn complement_characterisation() {
        // Y^C ≤ X iff X ⊔ Y = N (consequence of the adjunction).
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let alg = Algebra::new(&n);
        let elements = crate::lattice::enumerate_sets(&alg);
        for y in &elements {
            let yc = alg.compl(y);
            for x in &elements {
                assert_eq!(alg.le(&yc, x), alg.join(x, y) == alg.top_set());
            }
        }
    }

    #[test]
    fn cc_decomposition_identity() {
        // X = X^CC ⊔ (X ⊓ X^C) holds in every Brouwerian algebra (§4.2).
        let n = parse_attr("L1(L2[L3[L4(A, B, C)]], L5[L6(D, E)], L7(F))").unwrap();
        let alg = Algebra::new(&n);
        let elements = crate::lattice::enumerate_sets(&alg);
        for x in &elements {
            let rhs = alg.join(&alg.cc(x), &alg.meet(x, &alg.compl(x)));
            assert_eq!(*x, rhs);
        }
    }

    #[test]
    fn possession_example_412() {
        // N = K[L(M[N'(A, B)], C)], X = K[L(M[N'(A, B)], λ)]:
        // X possesses K[L(M[λ])] (atom M) but not K[λ] (atom K).
        let n = parse_attr("K[L(M[N'(A, B)], C)]").unwrap();
        let alg = Algebra::new(&n);
        let x = alg
            .from_attr(&parse_subattr_of(&n, "K[L(M[N'(A, B)], λ)]").unwrap())
            .unwrap();
        // atom ids: 0=K, 1=M, 2=A, 3=B, 4=C
        assert!(alg.possessed_by(1, &x));
        assert!(!alg.possessed_by(0, &x));
        let possessed = alg.possessed_set(&x);
        assert_eq!(possessed, AtomSet::from_indices(5, [1, 2, 3]));
    }

    #[test]
    fn possession_iff_not_basis_of_complement() {
        // U' possessed by W iff U' ∈ SubB(W) and U' ∉ SubB(W^C) (§6).
        let n = parse_attr("K[L(M[N'(A, B)], C)]").unwrap();
        let alg = Algebra::new(&n);
        for w in crate::lattice::enumerate_sets(&alg) {
            let wc = alg.compl(&w);
            for a in 0..alg.atom_count() {
                let lhs = w.contains(a) && alg.possessed_by(a, &w);
                let rhs = w.contains(a) && !wc.contains(a);
                assert_eq!(lhs, rhs, "atom {a}, W = {}", alg.render(&w));
            }
        }
    }

    #[test]
    fn triviality_lemma_43() {
        let n = parse_attr("L(A, B)").unwrap();
        let alg = Algebra::new(&n);
        let a = alg
            .from_attr(&parse_subattr_of(&n, "L(A, λ)").unwrap())
            .unwrap();
        let b = alg
            .from_attr(&parse_subattr_of(&n, "L(λ, B)").unwrap())
            .unwrap();
        assert!(alg.fd_trivial(&a, &a));
        assert!(!alg.fd_trivial(&a, &b));
        // X ⊔ Y = N makes the MVD trivial
        assert!(alg.mvd_trivial(&a, &b));
        assert!(alg.mvd_trivial(&a, &alg.bottom_set()));
        let n2 = parse_attr("L(A, B, C)").unwrap();
        let alg2 = Algebra::new(&n2);
        let a2 = alg2
            .from_attr(&parse_subattr_of(&n2, "L(A, λ, λ)").unwrap())
            .unwrap();
        let b2 = alg2
            .from_attr(&parse_subattr_of(&n2, "L(λ, B, λ)").unwrap())
            .unwrap();
        assert!(!alg2.mvd_trivial(&a2, &b2));
    }

    #[test]
    fn into_variants_agree_with_by_value() {
        for src in ["L[A]", "A'(B, C[D(E, F[G])])", "K[L(M[N'(A, B)], C)]"] {
            let n = parse_attr(src).unwrap();
            let alg = Algebra::new(&n);
            let elements = crate::lattice::enumerate_sets(&alg);
            let mut out = alg.bottom_set();
            for x in &elements {
                alg.cc_into(x, &mut out);
                assert_eq!(out, alg.cc(x), "cc in {src}");
                alg.compl_into(x, &mut out);
                assert_eq!(out, alg.compl(x), "compl in {src}");
                for y in &elements {
                    alg.pdiff_into(x, y, &mut out);
                    assert_eq!(out, alg.pdiff(x, y), "pdiff in {src}");
                }
            }
        }
    }

    #[test]
    fn render_uses_paper_notation() {
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let alg = Algebra::new(&n);
        let x = alg
            .from_attr(&parse_subattr_of(&n, "A'(C[λ])").unwrap())
            .unwrap();
        assert_eq!(alg.render(&x), "A'(C[λ])");
        assert_eq!(alg.render(&alg.bottom_set()), "λ");
        assert_eq!(alg.render(&alg.top_set()), "A'(B, C[D(E, F[G])])");
    }
}
