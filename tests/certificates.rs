//! End-to-end properties of the certificate pipeline (experiment E-CERT
//! of DESIGN.md): every engine answer — positive, negative, or a full
//! dependency basis — serialises to a portable JSON certificate that the
//! independent trusted checker accepts; every single-field corruption of
//! such a certificate is rejected; and verdicts are invariant under
//! resource governance.
//!
//! Structured inputs are derived from proptest-generated seeds through
//! the deterministic generators in `nalist-gen`, mirroring
//! `tests/properties.rs`. The golden test at the end pins the exact
//! JSON bytes of one certificate of each kind — regenerate with
//! `UPDATE_GOLDENS=1 cargo test -p nalist --test certificates` after an
//! intentional format change and review the diff.

use nalist::check::{verify, Certificate, CheckError, Report, Verdict};
use nalist::deps::CompiledDep;
use nalist::gen::{certificate_defects, render_sigma, SigmaConfig};
use nalist::membership::cert::{basis_certificate, implied_certificate, refuted_certificate};
use nalist::membership::{certified_closure_and_basis, certify, refute};
use nalist::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random reasoning problem: schema, `Σ`, and their file sources.
struct Problem {
    alg: Algebra,
    sigma: Vec<CompiledDep>,
    schema_src: String,
    deps_src: String,
}

fn problem(rng: &mut StdRng) -> Problem {
    let atoms = rng.gen_range(2..=10);
    let n = nalist::gen::attr_with_atoms(rng, atoms);
    let alg = Algebra::new(&n);
    let cfg = SigmaConfig {
        count: rng.gen_range(1..=4),
        ..SigmaConfig::default()
    };
    let sigma = nalist::gen::random_sigma(rng, &alg, &cfg);
    let schema_src = n.to_string();
    let deps_src = render_sigma(&alg, &sigma);
    Problem {
        alg,
        sigma,
        schema_src,
        deps_src,
    }
}

/// Asks the engine about `query` and emits the matching certificate.
fn certificate_for(p: &Problem, query: &CompiledDep) -> Certificate {
    let b = Budget::unlimited();
    match refute(&p.alg, &p.sigma, query, &b).expect("refute") {
        Some(witness) => refuted_certificate(&p.alg, &p.sigma, query, &witness),
        None => {
            let dag = certify(&p.alg, &p.sigma, query, &b)
                .expect("certify")
                .expect("implied answers carry a proof");
            implied_certificate(&p.alg, &p.sigma, query, &dag)
        }
    }
}

/// The checker must not accept any single-field mutation of an accepted
/// certificate.
fn assert_all_mutations_rejected(p: &Problem, cert: &Certificate) -> Result<(), TestCaseError> {
    let doc = cert.to_json();
    let defects = certificate_defects(&doc);
    prop_assert!(!defects.is_empty());
    for defect in defects {
        let verdict = match Certificate::from_json(&defect.doc) {
            Err(_) => continue, // rejected at the format layer
            Ok(mutated) => verify(&p.schema_src, &p.deps_src, &mutated, &Budget::unlimited()),
        };
        prop_assert!(
            verdict.is_err(),
            "mutation {} was accepted: {}",
            defect.label,
            defect.doc
        );
    }
    Ok(())
}

/// Verdicts must be invariant under governance: any fuel allowance
/// either reproduces the ungoverned report exactly or fails with a typed
/// resource error — never a different verdict.
fn assert_governance_invariant(
    p: &Problem,
    cert: &Certificate,
    ungoverned: &Report,
) -> Result<(), TestCaseError> {
    for fuel in [0, 1, 10, 1_000, 1_000_000_000] {
        match verify(
            &p.schema_src,
            &p.deps_src,
            cert,
            &Budget::unlimited().with_fuel(fuel),
        ) {
            Ok(report) => prop_assert_eq!(&report, ungoverned),
            Err(e) => prop_assert!(e.is_resource(), "fuel {fuel}: {e}"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `implies` answers of both polarities round-trip: emit → JSON →
    /// parse → independent check, with the engine's verdict preserved.
    #[test]
    fn engine_answers_round_trip_through_the_checker(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = problem(&mut rng);
        let query = nalist::gen::random_dep(&mut rng, &p.alg, 0.4, 0.5);
        let engine_says = implies(&p.alg, &p.sigma, &query);

        let cert = certificate_for(&p, &query);
        prop_assert_eq!(
            cert.verdict,
            if engine_says { Verdict::Implied } else { Verdict::NotImplied }
        );

        // the wire format round-trips …
        let reparsed = Certificate::from_json(&cert.to_json()).expect("reparse");
        prop_assert_eq!(&reparsed, &cert);
        // … and the independent checker agrees with the engine
        let report = verify(&p.schema_src, &p.deps_src, &reparsed, &Budget::unlimited())
            .expect("emitted certificate must be accepted");
        prop_assert_eq!(report.verdict, cert.verdict);

        assert_governance_invariant(&p, &cert, &report)?;
        assert_all_mutations_rejected(&p, &cert)?;
    }

    /// `dependency_basis` answers round-trip the same way.
    #[test]
    fn basis_certificates_round_trip_through_the_checker(seed in any::<u64>()) {
        let b = Budget::unlimited();
        let mut rng = StdRng::seed_from_u64(seed);
        let p = problem(&mut rng);
        let x = nalist::gen::random_subattr(&mut rng, &p.alg, 0.4);
        let cb = certified_closure_and_basis(&p.alg, &p.sigma, &x, &b).expect("basis");
        let cert = basis_certificate(&p.alg, &p.sigma, &x, &cb);

        let reparsed = Certificate::from_json(&cert.to_json()).expect("reparse");
        prop_assert_eq!(&reparsed, &cert);
        let report = verify(&p.schema_src, &p.deps_src, &reparsed, &Budget::unlimited())
            .expect("emitted basis certificate must be accepted");
        prop_assert_eq!(report.verdict, Verdict::Derived);
        prop_assert!(report.nodes > cb.block_nodes.len());

        assert_governance_invariant(&p, &cert, &report)?;
        assert_all_mutations_rejected(&p, &cert)?;
    }

    /// A certificate issued for one problem must not verify against a
    /// materially different one (schema or `Σ` swapped underneath it).
    #[test]
    fn certificates_do_not_transfer_between_problems(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = problem(&mut rng);
        let query = nalist::gen::random_dep(&mut rng, &p.alg, 0.4, 0.5);
        let cert = certificate_for(&p, &query);

        // swap Σ for a strictly larger one: the embedded Σ no longer matches
        let mut grown = p.deps_src.clone();
        grown.push_str(&nalist::gen::random_dep(&mut rng, &p.alg, 0.9, 1.0).render(&p.alg));
        grown.push('\n');
        let swapped_sigma = verify(&p.schema_src, &grown, &cert, &Budget::unlimited());
        prop_assert!(matches!(swapped_sigma, Err(CheckError::SigmaMismatch { .. })));

        // swap the schema for a structurally different one
        let other = "Zz(Q1, Q2, Q3)";
        if p.schema_src != other {
            let swapped_schema = verify(other, "", &cert, &Budget::unlimited());
            prop_assert!(matches!(
                swapped_schema,
                Err(CheckError::SchemaMismatch { .. } | CheckError::SigmaMismatch { .. })
            ));
        }
    }
}

/// The paper's running example, pinned byte for byte: one certificate of
/// each kind. This is the format-stability contract — any diff here is a
/// wire-format change and must be deliberate (and, if an existing field
/// changes meaning, version-bumped).
#[test]
fn certificate_json_matches_golden() {
    let b = Budget::unlimited();
    let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
    let alg = Algebra::new(&n);
    let sigma: Vec<CompiledDep> =
        nalist::deps::parse_sigma(&n, "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
            .unwrap()
            .into_iter()
            .map(|d| d.compile(&alg).unwrap())
            .collect();
    let p = Problem {
        schema_src: n.to_string(),
        deps_src: render_sigma(&alg, &sigma),
        alg,
        sigma,
    };
    let compile = |s: &str| Dependency::parse(&n, s).unwrap().compile(&p.alg).unwrap();

    let implied = certificate_for(&p, &compile("Pubcrawl(Person) -> Pubcrawl(Visit[λ])"));
    assert_eq!(implied.verdict, Verdict::Implied);
    let refuted = certificate_for(
        &p,
        &compile("Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])"),
    );
    assert_eq!(refuted.verdict, Verdict::NotImplied);
    let x = p
        .alg
        .from_attr(&parse_subattr_of(&n, "Pubcrawl(Person)").unwrap())
        .unwrap();
    let cb = certified_closure_and_basis(&p.alg, &p.sigma, &x, &b).unwrap();
    let basis = basis_certificate(&p.alg, &p.sigma, &x, &cb);

    // determinism self-check: emission must not depend on iteration order
    assert_eq!(
        certificate_for(&p, &compile("Pubcrawl(Person) -> Pubcrawl(Visit[λ])")).to_json(),
        implied.to_json()
    );

    let mut doc = String::new();
    for (kind, cert) in [
        ("implied", &implied),
        ("refuted", &refuted),
        ("basis", &basis),
    ] {
        // each certificate is accepted before being pinned
        verify(&p.schema_src, &p.deps_src, cert, &Budget::unlimited()).unwrap();
        doc.push_str("# ");
        doc.push_str(kind);
        doc.push('\n');
        doc.push_str(&cert.to_json());
        doc.push('\n');
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/cli_fixtures/certificate_schema.golden");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &doc).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        doc, expected,
        "certificate wire format changed; rerun with UPDATE_GOLDENS=1 if intentional"
    );
}

/// The v1 documents pinned in the golden file stay parseable forever —
/// a reparse guard independent of the emitter.
#[test]
fn golden_certificates_reparse_and_verify() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/cli_fixtures/certificate_schema.golden");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let schema = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])";
    let deps = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])\n";
    let mut seen = 0;
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let cert = Certificate::from_json(line).expect("golden certificate parses");
        verify(schema, deps, &cert, &Budget::unlimited()).expect("golden certificate verifies");
        seen += 1;
    }
    assert_eq!(seen, 3);
}
