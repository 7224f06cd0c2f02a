//! Certificate emission: turning engine answers into portable
//! [`nalist_check::Certificate`] documents.
//!
//! This is the **untrusted** half of the prover/checker split. The
//! builders here flatten a [`ProofDag`] (positive answers), a
//! [`Witness`] (negative answers) or a [`CertifiedBasis`]
//! (`dependency_basis` answers) into the version-1 JSON format that
//! `nalist-check` replays independently. Everything is rendered in the
//! paper's abbreviated notation so the checker can recompile it against
//! the schema *it* was handed — nothing compiled is trusted across the
//! boundary.

use nalist_algebra::{Algebra, AtomSet};
use nalist_check::{BasisData, CertNode, Certificate, Statement, Verdict, WitnessData};
use nalist_deps::proof::{DagNode, ProofDag};
use nalist_deps::CompiledDep;

use crate::certify::CertifiedBasis;
use crate::witness::Witness;

/// Renders `Σ` one dependency per entry, in file order.
fn render_sigma(alg: &Algebra, sigma: &[CompiledDep]) -> Vec<String> {
    sigma.iter().map(|d| d.render(alg)).collect()
}

/// Flattens a [`ProofDag`] into certificate nodes. Premise nodes keep
/// only the `Σ` index (the checker resolves it against its own copy);
/// step nodes carry the stable rule id, input indices, rendered
/// parameters and the rendered conclusion.
fn render_derivation(alg: &Algebra, dag: &ProofDag) -> Vec<CertNode> {
    dag.nodes
        .iter()
        .map(|node| match node {
            DagNode::Premise { index, .. } => CertNode::Premise { index: *index },
            DagNode::Step {
                rule,
                inputs,
                params,
                conclusion,
            } => CertNode::Step {
                rule: rule.id().to_owned(),
                inputs: inputs.clone(),
                params: params.iter().map(|p| alg.render(p)).collect(),
                conclusion: conclusion.render(alg),
            },
        })
        .collect()
}

/// Builds a certificate for a positive answer `Σ ⊨ σ`: the derivation
/// is `dag` (whose final node must conclude exactly `dep`, as
/// [`crate::certify::certify`] guarantees).
pub fn implied_certificate(
    alg: &Algebra,
    sigma: &[CompiledDep],
    dep: &CompiledDep,
    dag: &ProofDag,
) -> Certificate {
    Certificate {
        schema: alg.attr().to_string(),
        sigma: render_sigma(alg, sigma),
        statement: Statement::Implies {
            dep: dep.render(alg),
        },
        verdict: Verdict::Implied,
        derivation: render_derivation(alg, dag),
        witness: None,
        basis: None,
    }
}

/// Builds a certificate for a negative answer `Σ ⊭ σ`: the Theorem 4.4
/// counterexample instance. The generator tuple `t1` is pinned to the
/// first entry and `t2` to the last — [`crate::witness::Witness`] stores
/// the instance as an ordered set, so the pinning is re-established here
/// (the checker rejects certificates whose generators sit elsewhere).
pub fn refuted_certificate(
    alg: &Algebra,
    sigma: &[CompiledDep],
    dep: &CompiledDep,
    witness: &Witness,
) -> Certificate {
    let mut tuples = Vec::with_capacity(witness.instance.len());
    tuples.push(witness.t1.to_string());
    for t in witness.instance.iter() {
        if *t != witness.t1 && *t != witness.t2 {
            tuples.push(t.to_string());
        }
    }
    tuples.push(witness.t2.to_string());
    let last = tuples.len() - 1;
    Certificate {
        schema: alg.attr().to_string(),
        sigma: render_sigma(alg, sigma),
        statement: Statement::Implies {
            dep: dep.render(alg),
        },
        verdict: Verdict::NotImplied,
        derivation: Vec::new(),
        witness: Some(WitnessData {
            free_blocks: witness.free_blocks,
            t1: 0,
            t2: last,
            tuples,
        }),
        basis: None,
    }
}

/// Builds a certificate for a `dependency_basis` answer: the shared
/// derivation DAG plus the node map proving `X → X⁺` and each
/// `X ↠ W`.
pub fn basis_certificate(
    alg: &Algebra,
    sigma: &[CompiledDep],
    lhs: &AtomSet,
    cert: &CertifiedBasis,
) -> Certificate {
    Certificate {
        schema: alg.attr().to_string(),
        sigma: render_sigma(alg, sigma),
        statement: Statement::Basis {
            lhs: alg.render(lhs),
        },
        verdict: Verdict::Derived,
        derivation: render_derivation(alg, &cert.dag),
        witness: None,
        basis: Some(BasisData {
            closure: alg.render(&cert.basis.closure),
            blocks: cert.basis.blocks.iter().map(|w| alg.render(w)).collect(),
            closure_node: cert.closure_node,
            block_nodes: cert.block_nodes.clone(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::{certified_closure_and_basis, certify};
    use crate::witness::refute;
    use nalist_deps::Dependency;
    use nalist_guard::Budget;
    use nalist_types::parser::parse_attr;

    fn setup(schema: &str, deps: &[&str]) -> (Algebra, Vec<CompiledDep>) {
        let n = parse_attr(schema).unwrap();
        let alg = Algebra::new(&n);
        let sigma = deps
            .iter()
            .map(|s| {
                Dependency::parse(alg.attr(), s)
                    .unwrap()
                    .compile(&alg)
                    .unwrap()
            })
            .collect();
        (alg, sigma)
    }

    fn compile(alg: &Algebra, s: &str) -> CompiledDep {
        Dependency::parse(alg.attr(), s)
            .unwrap()
            .compile(alg)
            .unwrap()
    }

    #[test]
    fn emitted_positive_certificate_is_accepted() {
        let b = Budget::unlimited();
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) -> L(B)", "L(B) -> L(C)"]);
        let dep = compile(&alg, "L(A) -> L(C)");
        let dag = certify(&alg, &sigma, &dep, &b).unwrap().unwrap();
        let cert = implied_certificate(&alg, &sigma, &dep, &dag);
        let report = nalist_check::verify(
            "L(A, B, C)",
            "L(A) -> L(B)\nL(B) -> L(C)\n",
            &cert,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(report.verdict, Verdict::Implied);
        // …and the document survives a JSON round trip.
        let reparsed = Certificate::from_json(&cert.to_json()).unwrap();
        assert_eq!(reparsed, cert);
    }

    #[test]
    fn emitted_negative_certificate_is_accepted() {
        let b = Budget::unlimited();
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) -> L(B)"]);
        let dep = compile(&alg, "L(A) -> L(C)");
        let witness = refute(&alg, &sigma, &dep, &b).unwrap().unwrap();
        let cert = refuted_certificate(&alg, &sigma, &dep, &witness);
        let report =
            nalist_check::verify("L(A, B, C)", "L(A) -> L(B)\n", &cert, &Budget::unlimited())
                .unwrap();
        assert_eq!(report.verdict, Verdict::NotImplied);
        assert!(report.tuples >= 2);
    }

    #[test]
    fn emitted_basis_certificate_is_accepted() {
        let b = Budget::unlimited();
        let (alg, sigma) = setup("L(A, B, C)", &["L(A) ->> L(B)"]);
        let x = compile(&alg, "L(A) -> L(A)").lhs;
        let cb = certified_closure_and_basis(&alg, &sigma, &x, &b).unwrap();
        let cert = basis_certificate(&alg, &sigma, &x, &cb);
        let report =
            nalist_check::verify("L(A, B, C)", "L(A) ->> L(B)\n", &cert, &Budget::unlimited())
                .unwrap();
        assert_eq!(report.verdict, Verdict::Derived);
    }
}
