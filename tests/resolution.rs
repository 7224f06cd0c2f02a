//! Differential tests for text resolution: the name-indexed resolver
//! (`SchemaIndex`, `Algebra::resolve`, `CompiledDep::parse`) against a
//! reference copy of the tree-building resolver it replaced — a
//! subsequence DP that counts resolutions, then enumerates them as
//! canonical subattribute trees.
//!
//! Both must agree on the saturating count, the resolved atom set, the
//! leftmost resolution, the `ParseError` text and the abbreviated
//! rendering (`Algebra::render`, `display::abbreviate`), over random schemas
//! (unique names at |N| ∈ {10, 64, 256}, and the same shapes renamed
//! onto a four-letter alphabet so names repeat), canonical full-arity
//! forms, abbreviations and mutated terms.

use nalist::prelude::*;
use nalist::types::display::{to_loose, Loose};
use nalist::types::parser::{parse_loose, resolve_loose};
use nalist::types::SchemaIndex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The replaced resolver, kept verbatim as the reference oracle.
mod reference {
    use nalist::types::display::Loose;
    use nalist::types::{NestedAttr, ParseError};

    pub fn count_resolutions(d: &Loose, n: &NestedAttr) -> u64 {
        match (d, n) {
            (Loose::Lambda, _) => 1,
            (Loose::Flat(a), NestedAttr::Flat(b)) => u64::from(a == b),
            (Loose::Record(l, ds), NestedAttr::Record(k, ncs)) if l == k => {
                assignment_table(ds, ncs).map_or(0, |f| f[0][0])
            }
            (Loose::List(l, di), NestedAttr::List(k, ni)) if l == k => count_resolutions(di, ni),
            _ => 0,
        }
    }

    fn assignment_table(ds: &[Loose], ns: &[NestedAttr]) -> Option<Vec<Vec<u64>>> {
        let m = ds.len();
        let k = ns.len();
        if m > k {
            return None;
        }
        let mut f = vec![vec![0u64; k + 1]; m + 1];
        for cell in f[m].iter_mut() {
            *cell = 1;
        }
        for i in (0..m).rev() {
            for j in (0..k).rev() {
                let skip = f[i][j + 1];
                let here = count_resolutions(&ds[i], &ns[j]).saturating_mul(f[i + 1][j + 1]);
                f[i][j] = skip.saturating_add(here);
            }
        }
        Some(f)
    }

    pub fn resolutions(d: &Loose, n: &NestedAttr) -> Vec<NestedAttr> {
        match (d, n) {
            (Loose::Lambda, _) => vec![n.bottom()],
            (Loose::Flat(a), NestedAttr::Flat(b)) if a == b => vec![n.clone()],
            (Loose::Record(l, ds), NestedAttr::Record(k, ncs)) if l == k => {
                let Some(ways) = assignment_table(ds, ncs) else {
                    return Vec::new();
                };
                let mut out = Vec::new();
                assign(ds, ncs, 0, 0, &ways, &mut Vec::new(), &mut out);
                out.into_iter()
                    .map(|components| NestedAttr::Record(l.clone(), components))
                    .collect()
            }
            (Loose::List(l, di), NestedAttr::List(k, ni)) if l == k => resolutions(di, ni)
                .into_iter()
                .map(|inner| NestedAttr::List(l.clone(), Box::new(inner)))
                .collect(),
            _ => Vec::new(),
        }
    }

    fn assign(
        ds: &[Loose],
        ns: &[NestedAttr],
        i: usize,
        j: usize,
        ways: &[Vec<u64>],
        acc: &mut Vec<NestedAttr>,
        out: &mut Vec<Vec<NestedAttr>>,
    ) {
        if ways[i][j] == 0 {
            return;
        }
        if i == ds.len() {
            let mut full = acc.clone();
            full.extend(ns[j..].iter().map(NestedAttr::bottom));
            out.push(full);
            return;
        }
        if j == ns.len() {
            return;
        }
        if ways[i + 1][j + 1] > 0 {
            for r in resolutions(&ds[i], &ns[j]) {
                acc.push(r);
                assign(ds, ns, i + 1, j + 1, ways, acc, out);
                acc.pop();
            }
        }
        acc.push(ns[j].bottom());
        assign(ds, ns, i, j + 1, ways, acc, out);
        acc.pop();
    }

    pub fn loose_unambiguous(x: &NestedAttr, n: &NestedAttr) -> Loose {
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
                    .map(|(xc, nc)| loose_unambiguous(xc, nc))
                    .collect();
                let candidate = Loose::Record(l.clone(), kept);
                if count_resolutions(&candidate, n) == 1 {
                    candidate
                } else {
                    let explicit: Vec<Loose> = xcs
                        .iter()
                        .zip(ncs)
                        .map(|(xc, nc)| {
                            if *xc == nc.bottom() {
                                Loose::Lambda
                            } else {
                                loose_unambiguous(xc, nc)
                            }
                        })
                        .collect();
                    Loose::Record(l.clone(), explicit)
                }
            }
            (NestedAttr::List(l, xi), NestedAttr::List(_, ni)) => {
                if **xi == ni.bottom() {
                    Loose::List(l.clone(), Box::new(Loose::Lambda))
                } else {
                    Loose::List(l.clone(), Box::new(loose_unambiguous(xi, ni)))
                }
            }
            _ => unreachable!("x ≤ n guarantees matching shapes for non-bottom x"),
        }
    }

    pub fn resolve_loose(n: &NestedAttr, d: &Loose, src: &str) -> Result<NestedAttr, ParseError> {
        match count_resolutions(d, n) {
            0 => Err(ParseError::NoMatch {
                input: src.to_owned(),
                context: n.to_string(),
            }),
            1 => Ok(resolutions(d, n).pop().expect("count said one")),
            c => Err(ParseError::Ambiguous {
                input: src.to_owned(),
                context: n.to_string(),
                count: c as usize,
            }),
        }
    }
}

/// Enumerating more resolutions than this to find the reference's
/// first one is not worth a test's time.
const ENUMERATION_CAP: u64 = 512;

/// Asserts that the indexed resolver agrees with the reference on `d`.
fn agree(n: &NestedAttr, alg: &Algebra, d: &Loose) -> Result<(), TestCaseError> {
    let src = d.to_string();
    let idx = alg.index();
    let want = reference::count_resolutions(d, n);
    prop_assert_eq!(idx.count(d), want, "count of {} in {}", src, n);
    let want_tree = reference::resolve_loose(n, d, &src);
    let got_set = alg.resolve(d, &src);
    match &want_tree {
        Ok(tree) => {
            prop_assert_eq!(got_set.as_ref().ok(), Some(&alg.from_attr(tree).unwrap()));
        }
        Err(e) => prop_assert_eq!(
            got_set.as_ref().map_err(ToString::to_string),
            Err(e.to_string())
        ),
    }
    prop_assert_eq!(
        resolve_loose(n, d, &src).map_err(|e| e.to_string()),
        want_tree.map_err(|e| e.to_string())
    );
    if want <= ENUMERATION_CAP {
        let first = reference::resolutions(d, n).into_iter().next();
        let got = idx.first_resolution(d).map(|atoms| idx.attr_of(&atoms));
        prop_assert_eq!(got, first, "leftmost resolution of {} in {}", src, n);
    }
    Ok(())
}

/// The same shape with every flat renamed to `A`/`B` and every label to
/// `L`/`M`, so sibling names repeat and abbreviations turn ambiguous.
fn crowd(rng: &mut StdRng, n: &NestedAttr) -> NestedAttr {
    let mut pick = |a: &str, b: &str| (if rng.gen_bool(0.5) { a } else { b }).to_owned();
    fn walk(n: &NestedAttr, pick: &mut dyn FnMut(&str, &str) -> String) -> NestedAttr {
        match n {
            NestedAttr::Null => NestedAttr::Null,
            NestedAttr::Flat(_) => NestedAttr::Flat(pick("A", "B")),
            NestedAttr::Record(_, cs) => {
                NestedAttr::Record(pick("L", "M"), cs.iter().map(|c| walk(c, pick)).collect())
            }
            NestedAttr::List(_, inner) => {
                NestedAttr::List(pick("L", "M"), Box::new(walk(inner, pick)))
            }
        }
    }
    walk(n, &mut pick)
}

/// The canonical rendering read back as a loose term: every component
/// explicit, bottoms as `λ`.
fn full_arity(x: &NestedAttr) -> Loose {
    parse_loose(&x.to_string()).unwrap()
}

/// One random structural mutation somewhere in `d`: a dropped, swapped
/// or renamed component, or a record written with list brackets (and
/// vice versa).
fn mutate(rng: &mut StdRng, d: &Loose) -> Loose {
    match d {
        Loose::Record(l, ds) if !ds.is_empty() => {
            let mut ds = ds.clone();
            let i = rng.gen_range(0..ds.len());
            match rng.gen_range(0..5) {
                0 if ds.len() > 1 => {
                    ds.remove(i);
                }
                1 if ds.len() > 1 => {
                    let j = rng.gen_range(0..ds.len());
                    ds.swap(i, j);
                }
                2 => ds[i] = Loose::Flat("Unknown".into()),
                3 => return Loose::List(l.clone(), Box::new(ds.swap_remove(i))),
                _ => ds[i] = mutate(rng, &ds[i]),
            }
            Loose::Record(l.clone(), ds)
        }
        Loose::List(l, di) => match rng.gen_range(0..3) {
            0 => Loose::Record(l.clone(), vec![(**di).clone()]),
            1 => Loose::List("Unknown".into(), di.clone()),
            _ => Loose::List(l.clone(), Box::new(mutate(rng, di))),
        },
        Loose::Flat(_) => Loose::Flat("Unknown".into()),
        Loose::Lambda | Loose::Record(..) => Loose::Lambda,
    }
}

/// Checks every loose form of a few random subattributes of `n`, and
/// that rendering through the index prints what the reference prints.
fn check_schema(rng: &mut StdRng, n: &NestedAttr) -> Result<(), TestCaseError> {
    let alg = Algebra::new(n);
    for _ in 0..6 {
        let set = nalist::gen::random_subattr(rng, &alg, 0.3);
        let x = alg.to_attr(&set);
        let printed = reference::loose_unambiguous(&x, n).to_string();
        prop_assert_eq!(alg.render(&set), printed.clone());
        prop_assert_eq!(nalist::types::display::abbreviate(&x, n), printed);
        let forms = [
            to_loose(&x, n),
            alg.index().loose_unambiguous(&x),
            full_arity(&x),
        ];
        for d in &forms {
            agree(n, &alg, d)?;
            agree(n, &alg, &mutate(rng, d))?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Unique-name schemas at |N| ∈ {10, 64, 256}.
    #[test]
    fn indexed_resolution_matches_reference_on_gen_schemas(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for atoms in [10, 64, 256] {
            let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
            check_schema(&mut rng, &n)?;
        }
    }

    /// The same shapes with repeated names: ambiguity, leftmost-first
    /// choice and saturating counts all come into play.
    #[test]
    fn indexed_resolution_matches_reference_with_duplicate_names(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for atoms in [6, 10, 24] {
            let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
            let n = crowd(&mut rng, &n);
            check_schema(&mut rng, &n)?;
        }
    }
}

#[test]
fn duplicate_sibling_schemas_agree_with_reference() {
    for (schema, terms) in [
        (
            "L(A, A)",
            &["L(A)", "L(A, λ)", "L(λ, A)", "L(A, A)", "L(λ)", "L(B)"][..],
        ),
        (
            "L(M(A), M(A))",
            &[
                "L(M(A))",
                "L(M(A), λ)",
                "L(λ, M(A))",
                "L(M(λ))",
                "L(M[A])",
                "L(M(A), M(A))",
            ][..],
        ),
        (
            "L(M[A], M[A], A)",
            &["L(M[λ])", "L(M[A], A)", "L(M[λ], M[A])", "L(A, M[A])"][..],
        ),
        (
            "R(A, A, A, A, A, A, A, A)",
            &["R(A, A, A)", "R(λ, λ, λ, λ)", "R(A)"][..],
        ),
    ] {
        let n = parse_attr(schema).unwrap();
        let alg = Algebra::new(&n);
        for term in terms {
            agree(&n, &alg, &parse_loose(term).unwrap()).unwrap();
        }
    }
}

#[test]
fn saturating_counts_match_the_reference() {
    // C(64, 32) ≈ 1.8e18 fits; a list of such records multiplies past
    // u64::MAX, which both resolvers must report as exactly u64::MAX
    let wide = |k: usize| format!("R({})", vec!["A"; k].join(", "));
    let half = |k: usize| format!("R({})", vec!["A"; k / 2].join(", "));
    let n = parse_attr(&format!("T({}, {})", wide(64), wide(64))).unwrap();
    let d = parse_loose(&format!("T({}, {})", half(64), half(64))).unwrap();
    assert_eq!(reference::count_resolutions(&d, &n), u64::MAX);
    let alg = Algebra::new(&n);
    assert_eq!(alg.index().count(&d), u64::MAX);
    let err = alg.resolve(&d, "q").unwrap_err();
    assert!(matches!(err, ParseError::Ambiguous { count, .. } if count as u64 == u64::MAX));
}

#[test]
fn index_atom_offsets_are_algebra_atom_ids() {
    for schema in [
        "K[L(M[N'(A, B)], C)]",
        "L[λ]",
        "K(L[λ], A, M[λ])",
        "A'(B, C[D(E, F[G])])",
        "L1(L2[L3[L4(A, B, C)]], L5[L6(D, E)], L7(F, L8[L9(G, L10[H])], I))",
        "λ",
    ] {
        let n = parse_attr(schema).unwrap();
        let alg = Algebra::new(&n);
        let idx = SchemaIndex::new(&n);
        assert_eq!(idx.atom_count(), alg.atom_count(), "{schema}");
        // pre-order walk: each flat/list node's offset is the next atom id
        fn walk(n: &NestedAttr, next: &mut usize, out: &mut Vec<(usize, Option<String>)>) {
            let own = match n {
                NestedAttr::Flat(a) | NestedAttr::List(a, _) => Some(a.clone()),
                NestedAttr::Null | NestedAttr::Record(..) => None,
            };
            out.push((*next, own.clone()));
            if own.is_some() {
                *next += 1;
            }
            match n {
                NestedAttr::Record(_, cs) => cs.iter().for_each(|c| walk(c, next, out)),
                NestedAttr::List(_, inner) => walk(inner, next, out),
                NestedAttr::Null | NestedAttr::Flat(_) => {}
            }
        }
        let mut expected = Vec::new();
        walk(&n, &mut 0, &mut expected);
        let offsets: Vec<usize> = idx.atom_offsets().collect();
        assert_eq!(offsets.len(), expected.len(), "{schema}");
        for (offset, (want, own)) in offsets.iter().zip(&expected) {
            assert_eq!(offset, want, "{schema}");
            if let Some(name) = own {
                assert_eq!(&alg.atom(*offset).name, name, "{schema}");
            }
        }
        // and every basis attribute b(a) resolves to exactly below(a)
        for (id, atom) in alg.atoms().iter().enumerate() {
            let d = to_loose(&atom.attr, &n);
            assert_eq!(
                alg.resolve(&d, "b(a)").unwrap(),
                atom.below,
                "{schema} atom {id}"
            );
        }
    }
}

#[test]
fn compiled_parse_matches_tree_parse_then_compile() {
    let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
    let alg = Algebra::new(&n);
    for src in [
        "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])",
        "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
        "λ → Pubcrawl(Person, Visit[Drink(Beer, Pub)])",
        "Pubcrawl(Persn) -> Pubcrawl(Visit[λ])",
        "Pubcrawl(Person) -> Pubcrawl(Visit(Pub))",
        "Pubcrawl(Person) -> ",
        "Pubcrawl(Person) => Pubcrawl(Person)",
    ] {
        let tree = Dependency::parse(&n, src).map(|d| d.compile(&alg).unwrap());
        let direct = CompiledDep::parse(&alg, src, ParseLimits::default());
        assert_eq!(
            direct.map_err(|e| e.to_string()),
            tree.map_err(|e| e.to_string()),
            "{src}"
        );
    }
}
