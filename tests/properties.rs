//! Property-based tests (experiments E-THM44 and E-THM46 of DESIGN.md):
//! Brouwerian laws on random algebras, soundness of all 14 inference
//! rules on random instances, Theorem 4.4 (MVD ⟺ lossless join), and
//! soundness of the membership algorithm against random data.
//!
//! Structured inputs are derived from proptest-generated seeds through
//! the deterministic generators in `nalist-gen`.

use nalist::deps::rules::{apply, Rule, ALL_RULES};
use nalist::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sub(rng: &mut StdRng, alg: &Algebra) -> AtomSet {
    nalist::gen::random_subattr(rng, alg, 0.4)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Brouwerian adjunction and lattice identities on random algebras
    /// and random element triples.
    #[test]
    fn brouwerian_laws_hold(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(1..=24);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        for _ in 0..20 {
            let a = sub(&mut rng, &alg);
            let b = sub(&mut rng, &alg);
            let c = sub(&mut rng, &alg);
            // adjunction: a ∸ b ≤ c ⟺ a ≤ b ⊔ c
            prop_assert_eq!(alg.le(&alg.pdiff(&a, &b), &c), alg.le(&a, &alg.join(&b, &c)));
            // distributivity
            prop_assert_eq!(
                alg.meet(&a, &alg.join(&b, &c)),
                alg.join(&alg.meet(&a, &b), &alg.meet(&a, &c))
            );
            // X = X^CC ⊔ (X ⊓ X^C)
            prop_assert_eq!(
                a.clone(),
                alg.join(&alg.cc(&a), &alg.meet(&a, &alg.compl(&a)))
            );
            // complement characterisation: a ⊔ a^C = N
            prop_assert_eq!(alg.join(&a, &alg.compl(&a)), alg.top_set());
        }
    }

    /// Tree-level algebra (Definition 3.8 verbatim) agrees with the
    /// bitset engine on random inputs.
    #[test]
    fn tree_and_bitset_engines_agree(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(1..=20);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        for _ in 0..10 {
            let a = sub(&mut rng, &alg);
            let b = sub(&mut rng, &alg);
            let at = alg.to_attr(&a);
            let bt = alg.to_attr(&b);
            let join = nalist::algebra::treealg::tree_join(&at, &bt).unwrap();
            let meet = nalist::algebra::treealg::tree_meet(&at, &bt).unwrap();
            let pdiff = nalist::algebra::treealg::tree_pdiff(&at, &bt).unwrap();
            prop_assert_eq!(alg.from_attr(&join).unwrap(), alg.join(&a, &b));
            prop_assert_eq!(alg.from_attr(&meet).unwrap(), alg.meet(&a, &b));
            prop_assert_eq!(alg.from_attr(&pdiff).unwrap(), alg.pdiff(&a, &b));
        }
    }

    /// Parser/printer round-trip: abbreviate then re-resolve any random
    /// subattribute.
    #[test]
    fn abbreviation_round_trips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(1..=20);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        for _ in 0..10 {
            let a = sub(&mut rng, &alg);
            let tree = alg.to_attr(&a);
            let printed = nalist::types::display::abbreviate(&tree, &n);
            let reparsed = parse_subattr_of(&n, &printed).unwrap();
            prop_assert_eq!(&reparsed, &tree, "printed form {}", printed);
        }
    }

    /// Every one of the 14 inference rules is sound: on a random instance,
    /// whenever the premises are satisfied, so is the conclusion.
    #[test]
    fn all_rules_sound_on_random_instances(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=8);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let r = nalist::gen::random_instance(
            &mut rng,
            &n,
            &nalist::gen::InstanceConfig { rows: 10, domain_size: 2, max_list_len: 2 },
        );
        for _ in 0..40 {
            let rule = ALL_RULES[rng.gen_range(0..ALL_RULES.len())];
            let p1 = nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5);
            let p2 = nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5);
            let x = sub(&mut rng, &alg);
            let y = sub(&mut rng, &alg);
            let premises: Vec<&CompiledDep> = match rule.arity() {
                0 => vec![],
                1 => vec![&p1],
                _ => vec![&p1, &p2],
            };
            let params: Vec<&AtomSet> = match rule {
                Rule::FdReflexivity | Rule::MvdReflexivity => vec![&x, &y],
                Rule::FdExtension => vec![&x],
                Rule::MvdAugmentation => vec![&x, &y],
                _ => vec![],
            };
            if let Some(conclusion) = apply(&alg, rule, &premises, &params) {
                let premises_hold = premises.iter().all(|p| r.satisfies(&alg, p));
                if premises_hold {
                    prop_assert!(
                        r.satisfies(&alg, &conclusion),
                        "rule {} unsound: premises {:?} hold on\n{}\nbut conclusion {} fails",
                        rule.name(),
                        premises.iter().map(|p| p.render(&alg)).collect::<Vec<_>>(),
                        r,
                        conclusion.render(&alg)
                    );
                }
            }
        }
    }

    /// Theorem 4.4, corrected (see the erratum note in
    /// `nalist-deps::join`): `r ⊨ X ↠ Y` iff the decomposition is
    /// lossless AND `r ⊨ X → Y ⊓ Y^C`. The paper's bare iff fails when
    /// the mixed-meet FD is violated; satisfaction ⟹ losslessness always
    /// holds.
    #[test]
    fn mvd_iff_lossless_join_and_mixed_meet_fd(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=8);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let r = nalist::gen::random_instance(
            &mut rng,
            &n,
            &nalist::gen::InstanceConfig { rows: 8, domain_size: 2, max_list_len: 2 },
        );
        for _ in 0..10 {
            let x = sub(&mut rng, &alg);
            let y = sub(&mut rng, &alg);
            let sat = r.satisfies_mvd(&alg, &x, &y);
            let lossless =
                nalist::deps::join::lossless_decomposition(&alg, &r, &x, &y).unwrap();
            let mixed = alg.meet(&y, &alg.compl(&y));
            let fd = r.satisfies_fd(&alg, &x, &mixed);
            prop_assert_eq!(
                sat,
                lossless && fd,
                "X = {}, Y = {}",
                alg.render(&x),
                alg.render(&y)
            );
            // the paper's stated direction: satisfaction ⟹ losslessness
            if sat {
                prop_assert!(lossless);
            }
        }
    }

    /// The erratum's minimal counterexample, pinned: on N = L[A] with
    /// r = {[], [a]}, the decomposition along λ ↠ L[λ] is lossless yet
    /// the MVD is violated.
    #[test]
    fn theorem_44_converse_counterexample(_unit in proptest::strategy::Just(())) {
        let n = parse_attr("L[A]").unwrap();
        let alg = Algebra::new(&n);
        let r = {
            let mut r = Instance::new(n.clone());
            r.insert_str("[]").unwrap();
            r.insert_str("[a]").unwrap();
            r
        };
        let x = alg.bottom_set();
        let y = alg.from_attr(&parse_subattr_of(&n, "L[λ]").unwrap()).unwrap();
        prop_assert!(!r.satisfies_mvd(&alg, &x, &y));
        prop_assert!(nalist::deps::join::lossless_decomposition(&alg, &r, &x, &y).unwrap());
    }

    /// Soundness of the decision procedure end-to-end: if `Σ ⊨ σ` then no
    /// random instance satisfying `Σ` violates `σ`.
    #[test]
    fn implication_sound_on_random_data(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=7);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig { count: 2, ..Default::default() },
        );
        let r = nalist::gen::random_instance(
            &mut rng,
            &n,
            &nalist::gen::InstanceConfig { rows: 8, domain_size: 2, max_list_len: 2 },
        );
        if !r.satisfies_all(&alg, &sigma) {
            return Ok(()); // only instances modelling Σ are informative
        }
        for _ in 0..10 {
            let dep = nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5);
            if nalist::membership::implies(&alg, &sigma, &dep) {
                prop_assert!(
                    r.satisfies(&alg, &dep),
                    "Σ = {:?} ⊨ {} but instance violates it:\n{}",
                    sigma.iter().map(|d| d.render(&alg)).collect::<Vec<_>>(),
                    dep.render(&alg),
                    r
                );
            }
        }
    }

    /// The completeness construction really produces Σ-satisfying
    /// instances (Section 4.2), for random Σ and random X.
    #[test]
    fn combination_instances_satisfy_sigma(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=10);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig { count: 3, ..Default::default() },
        );
        if let Some(r) = nalist::gen::satisfying_instance(&mut rng, &alg, &sigma, 0.3) {
            for d in &sigma {
                prop_assert!(
                    r.satisfies(&alg, d),
                    "combination instance violates {} for Σ = {:?}",
                    d.render(&alg),
                    sigma.iter().map(|d| d.render(&alg)).collect::<Vec<_>>()
                );
            }
        }
    }

    /// Monotonicity and idempotence of the closure operator.
    #[test]
    fn closure_is_a_closure_operator(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=12);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig { count: 4, ..Default::default() },
        );
        let x = sub(&mut rng, &alg);
        let y = sub(&mut rng, &alg);
        let cx = closure_and_basis(&alg, &sigma, &x).closure;
        // extensive
        prop_assert!(alg.le(&x, &cx));
        // idempotent
        let ccx = closure_and_basis(&alg, &sigma, &cx).closure;
        prop_assert_eq!(&ccx, &cx);
        // monotone
        let xy = alg.join(&x, &y);
        let cxy = closure_and_basis(&alg, &sigma, &xy).closure;
        prop_assert!(alg.le(&cx, &cxy));
    }

    /// The parser never panics: arbitrary byte soup either parses or
    /// yields a structured error.
    #[test]
    fn parser_total_on_arbitrary_input(s in "\\PC{0,60}") {
        let _ = nalist::types::parser::parse_attr(&s);
        let _ = nalist::types::parser::parse_value(&s);
        let _ = nalist::types::parser::parse_loose(&s);
        let n = parse_attr("L(A, B, M[C])").unwrap();
        let _ = nalist::types::parser::parse_subattr_of(&n, &s);
        let _ = Dependency::parse(&n, &s);
    }

    /// Full attributes round-trip through Display/parse.
    #[test]
    fn attr_display_round_trips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(1..=25);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let printed = n.to_string();
        let reparsed = nalist::types::parser::parse_attr(&printed).unwrap();
        prop_assert_eq!(reparsed, n);
    }

    /// Values round-trip through Display/parse (string domains only, as
    /// produced by the witness builder and generators).
    #[test]
    fn value_display_round_trips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(1..=12);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let v = nalist::gen::random_value(
            &mut rng,
            &n,
            &nalist::gen::InstanceConfig::default(),
        );
        let printed = v.to_string();
        let reparsed = parse_value(&printed).unwrap();
        prop_assert_eq!(reparsed, v);
    }

    /// Certified membership agrees with the plain decision procedure and
    /// every emitted certificate re-verifies.
    #[test]
    fn certificates_check_and_agree(seed in any::<u64>()) {
        let b = Budget::unlimited();
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=10);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig { count: 3, ..Default::default() },
        );
        for _ in 0..5 {
            let target = nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5);
            let plain = nalist::membership::implies(&alg, &sigma, &target);
            match certify(&alg, &sigma, &target, &b).expect("random targets certify cleanly") {
                Some(dag) => {
                    prop_assert!(plain);
                    let root = dag.check(&alg, &sigma, &b).expect("certificate must check");
                    prop_assert_eq!(root, &target);
                }
                None => prop_assert!(!plain),
            }
        }
    }

    /// The chase either produces a superset satisfying every MVD, or
    /// fails `Unrepairable` — and then the offending MVD's mixed-meet FD
    /// `X → Y ⊓ Y^C` is genuinely violated by the input instance.
    #[test]
    fn chase_repairs_or_blames_mixed_meet(seed in any::<u64>()) {
        use nalist::deps::chase::{chase, ChaseError};
        use nalist::obs::noop;
        let b = Budget::unlimited();
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=6);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        // MVD-only Σ
        let sigma: Vec<CompiledDep> = (0..2)
            .map(|_| {
                let d = nalist::gen::random_dep(&mut rng, &alg, 0.35, 0.0);
                CompiledDep::mvd(d.lhs, d.rhs)
            })
            .collect();
        let r = nalist::gen::random_instance(
            &mut rng,
            &n,
            &nalist::gen::InstanceConfig { rows: 5, domain_size: 2, max_list_len: 2 },
        );
        match chase(&alg, &sigma, &r, 4096, &b, noop()) {
            Ok(out) => {
                prop_assert!(out.instance.satisfies_all(&alg, &sigma));
                prop_assert!(out.instance.len() >= r.len());
                for t in r.iter() {
                    prop_assert!(out.instance.contains(t));
                }
            }
            Err(ChaseError::Unrepairable { index, t1, t2 }) => {
                // the witness pair (possibly from a partially chased
                // state) agrees on X but differs on the mixed-meet part —
                // a violation of the FD X → Y⊓Y^C that the mixed meet
                // rule derives from the offending MVD
                use nalist::types::projection::project;
                let d = &sigma[index];
                let x_attr = alg.to_attr(&d.lhs);
                let mixed = alg.to_attr(&alg.meet(&d.rhs, &alg.compl(&d.rhs)));
                prop_assert_eq!(
                    project(&n, &x_attr, &t1).unwrap(),
                    project(&n, &x_attr, &t2).unwrap()
                );
                prop_assert_ne!(
                    project(&n, &mixed, &t1).unwrap(),
                    project(&n, &mixed, &t2).unwrap()
                );
            }
            Err(ChaseError::TooLarge { .. }) => {} // bound hit; fine
            Err(e) => prop_assert!(false, "unexpected chase error: {e}"),
        }
    }

    /// The dependency-basis blocks partition the maximal atoms, and every
    /// block is ^CC-closed.
    #[test]
    fn basis_blocks_partition_maximal_atoms(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=14);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig { count: 4, ..Default::default() },
        );
        let x = sub(&mut rng, &alg);
        let basis = closure_and_basis(&alg, &sigma, &x);
        let mut seen = alg.bottom_set();
        for w in &basis.blocks {
            prop_assert!(alg.is_downward_closed(w));
            prop_assert_eq!(&alg.cc(w), w, "block not ^CC-closed: {}", alg.render(w));
            let maxima = alg.maximal_atoms_of(w);
            prop_assert!(!maxima.intersects(&seen), "blocks overlap on maximal atoms");
            seen.union_with(&maxima);
        }
        prop_assert_eq!(&seen, alg.max_mask(), "blocks do not cover MaxB(N)");
    }

    /// Observability is pure observation: the worklist engine and the
    /// chase return bit-identical results under the no-op recorder and a
    /// live [`MetricsRecorder`] (and the worklist basis equals the plain,
    /// un-instrumented `closure_and_basis`) — and the live recorder's
    /// counters reflect the work actually done.
    #[test]
    fn observed_runs_are_bit_identical_to_unobserved_runs(seed in any::<u64>()) {
        use nalist::obs::{noop, Counter, MetricsRecorder};

        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(2..=14);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let sigma = nalist::gen::random_sigma(
            &mut rng,
            &alg,
            &nalist::gen::SigmaConfig { count: 4, ..Default::default() },
        );
        let budget = Budget::unlimited();
        let metrics = MetricsRecorder::new();
        let mut total_steps = 0u64;
        for _ in 0..5 {
            let x = alg.downward_closure(&sub(&mut rng, &alg));
            let plain = nalist::membership::closure_and_basis_run(
                &alg, &sigma, &x, &budget, noop(),
            ).expect("noop-observed run succeeds");
            let via_metrics = nalist::membership::closure_and_basis_run(
                &alg, &sigma, &x, &budget, &metrics,
            ).expect("metrics-observed run succeeds");
            prop_assert_eq!(&plain.basis, &closure_and_basis(&alg, &sigma, &x));
            prop_assert_eq!(&plain, &via_metrics);
            total_steps += plain.steps;
        }
        prop_assert_eq!(metrics.counter(Counter::WorklistSteps), total_steps);

        let instance = nalist::gen::random_instance(
            &mut rng,
            &n,
            &nalist::gen::InstanceConfig { rows: 4, ..Default::default() },
        );
        let via_noop = chase(&alg, &sigma, &instance, 1 << 12, &budget, noop());
        let via_metrics = chase(&alg, &sigma, &instance, 1 << 12, &budget, &metrics);
        match (via_noop, via_metrics) {
            (Ok(a), Ok(c)) => {
                prop_assert_eq!(&a.instance, &c.instance);
                prop_assert_eq!((a.rounds, a.added), (c.rounds, c.added));
                prop_assert_eq!(
                    metrics.counter(Counter::ChaseRounds),
                    a.rounds as u64
                );
            }
            (Err(a), Err(c)) => {
                prop_assert_eq!(&a, &c);
            }
            _ => prop_assert!(false, "observed and unobserved chase disagree on success"),
        }
    }
}
