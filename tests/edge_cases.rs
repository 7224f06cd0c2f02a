//! Edge cases and failure injection across the whole stack: degenerate
//! attributes, deep nesting, witness limits, duplicate/trivial `Σ`
//! members, and corrupted certificates.

use nalist::membership::witness::{combination_instance, WitnessError, MAX_FREE_BLOCKS};
use nalist::prelude::*;

// ----------------------------------------------------------- degenerate N

#[test]
fn lambda_attribute_has_trivial_theory() {
    let b = Budget::unlimited();
    // N = λ: Sub(N) = {λ}, everything is trivially implied.
    let n = NestedAttr::Null;
    let r = Reasoner::new(&n);
    assert!(r.implies_str("λ -> λ", &b).unwrap());
    assert!(r.implies_str("λ ->> λ", &b).unwrap());
    let alg = r.algebra();
    assert_eq!(alg.atom_count(), 0);
    let basis = closure_and_basis(alg, &[], &alg.bottom_set());
    assert!(basis.closure.is_empty());
    assert!(basis.blocks.is_empty());
}

#[test]
fn single_flat_attribute() {
    let b = Budget::unlimited();
    let n = parse_attr("A").unwrap();
    let r = Reasoner::new(&n);
    assert!(!r.implies_str("λ -> A", &b).unwrap());
    assert!(r.implies_str("A -> A", &b).unwrap());
    assert!(r.implies_str("λ ->> A", &b).unwrap()); // X ⊔ Y = N
}

#[test]
fn single_information_less_list() {
    let b = Budget::unlimited();
    // N = L[λ]: one atom, and it is maximal.
    let n = parse_attr("L[λ]").unwrap();
    let alg = Algebra::new(&n);
    assert_eq!(alg.atom_count(), 1);
    assert!(alg.atom(0).maximal);
    // its domain is the list lengths; the shape FD λ → L[λ] is refutable
    let d = Dependency::parse(&n, "λ -> L[λ]")
        .unwrap()
        .compile(&alg)
        .unwrap();
    let w = refute(&alg, &[], &d, &b).unwrap().unwrap();
    assert_eq!(w.instance.len(), 2);
}

// ----------------------------------------------------------- deep nesting

fn deep_list_chain(depth: usize) -> NestedAttr {
    let mut n = NestedAttr::flat("A");
    for i in 0..depth {
        n = NestedAttr::list(format!("L{i}"), n);
    }
    n
}

#[test]
fn deep_list_chain_algebra() {
    let depth = 300;
    let n = deep_list_chain(depth);
    assert_eq!(n.basis_size(), depth + 1);
    let alg = Algebra::new(&n);
    assert_eq!(alg.atom_count(), depth + 1);
    // exactly one maximal atom: the flat leaf
    assert_eq!(alg.max_mask().count(), 1);
    // the downward closure of the leaf is the whole chain
    let leaf = alg.downward_closure(&AtomSet::from_indices(alg.atom_count(), [depth]));
    assert_eq!(leaf.count(), depth + 1);
    // parser round-trip at depth: beyond the default nesting cap, so the
    // explicit opt-out via `ParseLimits` is required
    let printed = n.to_string();
    assert!(matches!(
        parse_attr(&printed),
        Err(ParseError::TooDeep { .. })
    ));
    let limits = ParseLimits { max_depth: depth };
    assert_eq!(parse_attr_with(&printed, limits).unwrap(), n);
}

#[test]
fn deep_chain_closure_and_mixed_meet() {
    // λ ↠ (chain cut at level k) functionally determines everything the
    // RHS does not possess — i.e. all shallower list shapes.
    let n = deep_list_chain(40);
    let alg = Algebra::new(&n);
    // RHS: the chain cut just above the leaf (atoms 0..=39, leaf absent)
    let rhs = AtomSet::from_indices(alg.atom_count(), 0..40);
    assert!(alg.is_downward_closed(&rhs));
    let sigma = vec![CompiledDep::mvd(alg.bottom_set(), rhs.clone())];
    let basis = closure_and_basis(&alg, &sigma, &alg.bottom_set());
    // Y ⊓ Y^C = Y (every atom of Y has the leaf above it, outside Y)
    assert_eq!(basis.closure, rhs);
}

#[test]
fn deep_projection_and_satisfaction() {
    let n = deep_list_chain(60);
    let alg = Algebra::new(&n);
    // one nested value: [[[…[a]…]]] with a single element at each level
    let mut v = Value::str("a");
    for _ in 0..60 {
        v = Value::list(vec![v]);
    }
    let mut r = Instance::new(n.clone());
    r.insert(v).unwrap();
    let shape = alg.to_attr(&AtomSet::from_indices(alg.atom_count(), [0]));
    let p = r.project(&shape).unwrap();
    assert_eq!(p.len(), 1);
    // a singleton instance satisfies anything
    let d = Dependency::parse(&n, "λ -> L59[λ]").unwrap();
    assert!(r.satisfies_dep(&alg, &d).unwrap());
}

// ----------------------------------------------------------- witness limits

#[test]
fn witness_block_limit_enforced() {
    let b = Budget::unlimited();
    // a flat schema with MAX_FREE_BLOCKS + 2 attributes and empty Σ from
    // X = {A0} would need 2^(k) tuples beyond the limit once every
    // attribute is its own block
    let width = MAX_FREE_BLOCKS + 2;
    let attr = nalist::gen::flat_attr(width);
    let alg = Algebra::new(&attr);
    // Σ: A0 ↠ Ai for every i — splits the complement into singletons
    let mut sigma = Vec::new();
    for i in 1..width {
        let mut lhs = alg.bottom_set();
        lhs.insert(0);
        let mut rhs = alg.bottom_set();
        rhs.insert(i);
        sigma.push(CompiledDep::mvd(lhs, rhs));
    }
    let mut x = alg.bottom_set();
    x.insert(0);
    let basis = closure_and_basis(&alg, &sigma, &x);
    assert!(basis.free_blocks().len() > MAX_FREE_BLOCKS);
    match combination_instance(&alg, &basis, &b) {
        Err(WitnessError::TooManyBlocks { blocks }) => assert!(blocks > MAX_FREE_BLOCKS),
        other => panic!("expected TooManyBlocks, got {other:?}"),
    }
}

// ----------------------------------------------------------- Σ pathologies

#[test]
fn duplicate_and_trivial_sigma_members() {
    let b = Budget::unlimited();
    let n = parse_attr("L(A, B, C)").unwrap();
    let mut r = Reasoner::new(&n);
    for _ in 0..3 {
        r.add_str("L(A) -> L(B)").unwrap(); // duplicates
    }
    r.add_str("L(A, B) -> L(A)").unwrap(); // trivial
    r.add_str("L(A) ->> L(B, C)").unwrap(); // trivial (X ⊔ Y = N)
    assert!(r.implies_str("L(A) -> L(B)", &b).unwrap());
    assert!(!r.implies_str("L(A) -> L(C)", &b).unwrap());
    // minimal cover collapses all of it to one dependency
    let cover = minimal_cover(r.algebra(), r.compiled_sigma());
    assert_eq!(cover.len(), 1);
}

#[test]
fn self_referential_dependency() {
    let b = Budget::unlimited();
    let n = parse_attr("L(A, B)").unwrap();
    let mut r = Reasoner::new(&n);
    r.add_str("L(A) -> L(A)").unwrap();
    r.add_str("L(A) ->> L(A)").unwrap();
    assert!(!r.implies_str("L(A) -> L(B)", &b).unwrap());
}

#[test]
fn large_sigma_terminates_quickly() {
    // 200 dependencies over 40 atoms: still instant (polynomial)
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(5);
    let n = nalist::gen::attr_with_atoms(&mut rng, 40);
    let alg = Algebra::new(&n);
    let sigma = nalist::gen::random_sigma(
        &mut rng,
        &alg,
        &nalist::gen::SigmaConfig {
            count: 200,
            ..Default::default()
        },
    );
    let start = std::time::Instant::now();
    for _ in 0..4 {
        let x = nalist::gen::random_subattr(&mut rng, &alg, 0.2);
        let _ = closure_and_basis(&alg, &sigma, &x);
    }
    assert!(start.elapsed().as_secs() < 10);
}

// ----------------------------------------------------------- failure injection

#[test]
fn corrupted_certificates_rejected() {
    use nalist::deps::{DagNode, Rule};
    let b = Budget::unlimited();
    let n = parse_attr("L(A, B, C)").unwrap();
    let alg = Algebra::new(&n);
    let sigma = vec![
        Dependency::parse(&n, "L(A) -> L(B)")
            .unwrap()
            .compile(&alg)
            .unwrap(),
        Dependency::parse(&n, "L(B) -> L(C)")
            .unwrap()
            .compile(&alg)
            .unwrap(),
    ];
    let target = Dependency::parse(&n, "L(A) -> L(C)")
        .unwrap()
        .compile(&alg)
        .unwrap();
    let dag = certify(&alg, &sigma, &target, &b).unwrap().unwrap();
    assert!(dag.check(&alg, &sigma, &b).is_ok());

    // mutate each node's conclusion in turn: the checker must catch every
    // corruption that actually changes a conclusion
    for i in 0..dag.len() {
        let mut bad = dag.clone();
        match &mut bad.nodes[i] {
            DagNode::Premise { dep, .. }
            | DagNode::Step {
                conclusion: dep, ..
            } => {
                // flip the kind — always a semantic change
                *dep = match dep.kind {
                    DepKind::Fd => CompiledDep::mvd(dep.lhs.clone(), dep.rhs.clone()),
                    DepKind::Mvd => CompiledDep::fd(dep.lhs.clone(), dep.rhs.clone()),
                };
            }
        }
        // either the mutated node itself fails, or a later node consuming
        // it fails; never an Ok with the original conclusion
        if let Ok(root) = bad.check(&alg, &sigma, &b) {
            assert_ne!(root, &target, "corruption at node {i} undetected");
        }
    }

    // swapping the premise list out from under the proof is caught
    let wrong_sigma = vec![Dependency::parse(&n, "L(C) -> L(B)")
        .unwrap()
        .compile(&alg)
        .unwrap()];
    assert!(dag.check(&alg, &wrong_sigma, &b).is_err());

    // a forged rule name is caught
    let mut forged = dag.clone();
    for node in &mut forged.nodes {
        if let DagNode::Step { rule, .. } = node {
            *rule = Rule::MixedMeet; // nonsense for FD-only derivations
        }
    }
    assert!(forged.check(&alg, &sigma, &b).is_err());
}

#[test]
fn witness_verification_catches_tampering() {
    let b = Budget::unlimited();
    // refute() verifies internally; simulate tampering by checking that a
    // doctored instance would indeed fail the checks refute performs
    let n = parse_attr("L(A, B, C)").unwrap();
    let alg = Algebra::new(&n);
    let sigma = vec![Dependency::parse(&n, "L(A) -> L(B)")
        .unwrap()
        .compile(&alg)
        .unwrap()];
    let target = Dependency::parse(&n, "L(A) -> L(C)")
        .unwrap()
        .compile(&alg)
        .unwrap();
    let w = refute(&alg, &sigma, &target, &b).unwrap().unwrap();
    let mut tampered = Instance::new(n.clone());
    for t in w.instance.iter() {
        tampered.insert(t.clone()).unwrap();
    }
    // add a tuple violating Σ: same A, different B
    tampered.insert_str("(v0_0, zzz, v2_0)").unwrap();
    assert!(!tampered.satisfies_all(&alg, &sigma));
}

// ----------------------------------------------------------- misc API edges

#[test]
fn closure_of_top_and_bottom() {
    let n = parse_attr("L(A, M[B], C)").unwrap();
    let alg = Algebra::new(&n);
    let sigma = vec![Dependency::parse(&n, "L(A) -> L(C)")
        .unwrap()
        .compile(&alg)
        .unwrap()];
    let top = closure_and_basis(&alg, &sigma, &alg.top_set());
    assert_eq!(top.closure, alg.top_set());
    let bottom = closure_and_basis(&alg, &sigma, &alg.bottom_set());
    assert!(bottom.closure.is_empty());
    // bottom's block structure: one block per... at minimum it covers all
    // maximal atoms
    let mut covered = alg.bottom_set();
    for w in &bottom.blocks {
        covered.union_with(&alg.maximal_atoms_of(w));
    }
    assert_eq!(covered, *alg.max_mask());
}

#[test]
fn unicode_names_throughout() {
    let b = Budget::unlimited();
    let n = parse_attr("Bücher(Autor, Kapitel[Überschrift])").unwrap();
    let mut r = Reasoner::new(&n);
    r.add_str("Bücher(Autor) -> Bücher(Kapitel[λ])").unwrap();
    assert!(r
        .implies_str("Bücher(Autor) ->> Bücher(Kapitel[λ])", &b)
        .unwrap());
    let mut inst = Instance::new(n.clone());
    inst.insert_str("(Gœthe, [Götterfunken])").unwrap();
    assert_eq!(inst.len(), 1);
}

#[test]
fn empty_sigma_files_work_end_to_end() {
    let b = Budget::unlimited();
    let n = parse_attr("L(A, B)").unwrap();
    let r = Reasoner::new(&n);
    assert!(!r.implies_str("L(A) -> L(B)", &b).unwrap());
    assert_eq!(r.closure_str("L(A)", &b).unwrap().to_string(), "L(A, λ)");
    let cert = certified_closure_and_basis(
        r.algebra(),
        r.compiled_sigma(),
        &r.algebra()
            .from_attr(&parse_subattr_of(&n, "L(A)").unwrap())
            .unwrap(),
        &b,
    )
    .unwrap();
    cert.dag.check(r.algebra(), r.compiled_sigma(), &b).unwrap();
}
