//! Derivation trees over the inference rules of Theorem 4.6, with an
//! independent proof checker.
//!
//! A [`Proof`] certifies `Σ ⊢ σ`: leaves cite premises from `Σ` (or axiom
//! instances), inner nodes cite a rule. [`check`] re-applies every rule
//! instance bottom-up and verifies each node's recorded conclusion, so a
//! proof produced by any search procedure (e.g.
//! [`crate::naive::NaiveClosure::proof_of`]) can be validated without
//! trusting the producer.

use nalist_algebra::{Algebra, AtomSet};
use nalist_guard::{Budget, ResourceExhausted, ResourceKind};

use crate::dependency::CompiledDep;
use crate::rules::{apply, Rule};

/// A derivation tree for a dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Proof {
    /// A premise `σ ∈ Σ`, cited by index.
    Premise {
        /// Index into the premise list supplied to [`check`].
        index: usize,
        /// The cited dependency (must equal `sigma[index]`).
        dep: CompiledDep,
    },
    /// An application of an inference rule.
    Step {
        /// The rule applied.
        rule: Rule,
        /// Sub-proofs of the rule's dependency premises, in rule order.
        inputs: Vec<Proof>,
        /// Extra subattribute parameters of the rule instance (see
        /// [`crate::rules::apply`]).
        params: Vec<AtomSet>,
        /// The recorded conclusion.
        conclusion: CompiledDep,
    },
}

impl Proof {
    /// The dependency this proof concludes.
    pub fn conclusion(&self) -> &CompiledDep {
        match self {
            Proof::Premise { dep, .. } => dep,
            Proof::Step { conclusion, .. } => conclusion,
        }
    }

    /// Number of rule applications in the tree.
    pub fn step_count(&self) -> usize {
        match self {
            Proof::Premise { .. } => 0,
            Proof::Step { inputs, .. } => 1 + inputs.iter().map(Proof::step_count).sum::<usize>(),
        }
    }

    /// Depth of the tree (a premise has depth 0).
    pub fn depth(&self) -> usize {
        match self {
            Proof::Premise { .. } => 0,
            Proof::Step { inputs, .. } => 1 + inputs.iter().map(Proof::depth).max().unwrap_or(0),
        }
    }

    /// Pretty-prints the derivation with one rule application per line.
    /// Ungoverned twin of [`Proof::render_governed`].
    pub fn render(&self, alg: &Algebra) -> String {
        let mut out = String::new();
        let _ = self.render_into(alg, 0, &mut out, &Budget::unlimited());
        out
    }

    /// Budget-governed rendering: charges one fuel unit per node and
    /// honours `budget.max_depth()`, so a pathologically deep or wide
    /// derivation fails fast instead of exhausting stack or memory.
    pub fn render_governed(
        &self,
        alg: &Algebra,
        budget: &Budget,
    ) -> Result<String, ResourceExhausted> {
        let mut out = String::new();
        self.render_into(alg, 0, &mut out, budget)?;
        Ok(out)
    }

    fn render_into(
        &self,
        alg: &Algebra,
        indent: usize,
        out: &mut String,
        budget: &Budget,
    ) -> Result<(), ResourceExhausted> {
        budget.charge(1)?;
        check_depth(budget, indent as u64)?;
        let pad = "  ".repeat(indent);
        match self {
            Proof::Premise { index, dep } => {
                out.push_str(&format!("{pad}[premise #{index}] {}\n", dep.render(alg)));
            }
            Proof::Step {
                rule,
                inputs,
                conclusion,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}[{}] {}\n",
                    rule.name(),
                    conclusion.render(alg)
                ));
                for i in inputs {
                    i.render_into(alg, indent + 1, out, budget)?;
                }
            }
        }
        Ok(())
    }
}

/// Why a proof failed to check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// A premise citation is out of range or disagrees with `Σ`.
    BadPremise {
        /// The cited index.
        index: usize,
    },
    /// A rule application's recorded conclusion does not match the rule's
    /// actual output (or the rule instance is malformed).
    BadStep {
        /// The offending rule.
        rule: Rule,
    },
    /// The derivation has no nodes, so it concludes nothing.
    EmptyDerivation,
    /// The governed checker ran out of budget before finishing.
    Resource(ResourceExhausted),
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::BadPremise { index } => write!(f, "bad premise citation #{index}"),
            ProofError::BadStep { rule } => write!(f, "invalid application of {}", rule.name()),
            ProofError::EmptyDerivation => write!(f, "empty derivation"),
            ProofError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ProofError {}

impl From<ResourceExhausted> for ProofError {
    fn from(e: ResourceExhausted) -> Self {
        ProofError::Resource(e)
    }
}

/// Checks a proof against the premise list `sigma`; on success returns the
/// proven conclusion. Charges one fuel unit of `budget` per node and
/// honours `budget.max_depth()`, so an adversarially deep tree returns
/// [`ProofError::Resource`] instead of overflowing the stack.
pub fn check<'p>(
    alg: &Algebra,
    sigma: &[CompiledDep],
    proof: &'p Proof,
    budget: &Budget,
) -> Result<&'p CompiledDep, ProofError> {
    check_at(alg, sigma, proof, budget, 0)
}

fn check_depth(budget: &Budget, depth: u64) -> Result<(), ResourceExhausted> {
    match budget.max_depth() {
        Some(limit) if depth > limit => Err(ResourceExhausted {
            kind: ResourceKind::Depth,
            spent: depth,
            limit,
        }),
        _ => Ok(()),
    }
}

fn check_at<'p>(
    alg: &Algebra,
    sigma: &[CompiledDep],
    proof: &'p Proof,
    budget: &Budget,
    depth: u64,
) -> Result<&'p CompiledDep, ProofError> {
    budget.charge(1)?;
    check_depth(budget, depth)?;
    match proof {
        Proof::Premise { index, dep } => {
            if sigma.get(*index) == Some(dep) {
                Ok(dep)
            } else {
                Err(ProofError::BadPremise { index: *index })
            }
        }
        Proof::Step {
            rule,
            inputs,
            params,
            conclusion,
        } => {
            let mut checked = Vec::with_capacity(inputs.len());
            for i in inputs {
                checked.push(check_at(alg, sigma, i, budget, depth + 1)?);
            }
            let param_refs: Vec<&AtomSet> = params.iter().collect();
            match apply(alg, *rule, &checked, &param_refs) {
                Some(got) if got == *conclusion => Ok(conclusion),
                _ => Err(ProofError::BadStep { rule: *rule }),
            }
        }
    }
}

/// A node of a [`ProofDag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagNode {
    /// A premise `σ ∈ Σ`, cited by index.
    Premise {
        /// Index into the premise list.
        index: usize,
        /// The cited dependency.
        dep: CompiledDep,
    },
    /// A rule application whose inputs are earlier DAG nodes.
    Step {
        /// The rule applied.
        rule: Rule,
        /// Indices of the input nodes (must be `<` this node's index).
        inputs: Vec<usize>,
        /// Extra subattribute parameters (see [`crate::rules::apply`]).
        params: Vec<AtomSet>,
        /// The recorded conclusion.
        conclusion: CompiledDep,
    },
}

impl DagNode {
    /// The dependency this node concludes.
    pub fn conclusion(&self) -> &CompiledDep {
        match self {
            DagNode::Premise { dep, .. } => dep,
            DagNode::Step { conclusion, .. } => conclusion,
        }
    }
}

/// A derivation **DAG**: like [`Proof`], but with shared sub-derivations,
/// so that certificate size stays polynomial even when a conclusion is
/// reused many times (as happens in proofs extracted from Algorithm 5.1,
/// where the growing `X → X_new` fact feeds every later step).
///
/// Node `i` may only reference nodes `< i`; [`ProofDag::check`] verifies
/// every node once, in order, so checking is linear in the DAG size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProofDag {
    /// The nodes in topological order.
    pub nodes: Vec<DagNode>,
}

impl ProofDag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        ProofDag::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the DAG empty?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Appends a premise citation; returns its node index.
    pub fn premise(&mut self, index: usize, dep: CompiledDep) -> usize {
        self.nodes.push(DagNode::Premise { index, dep });
        self.nodes.len() - 1
    }

    /// Applies `rule` to the given input nodes and parameters, appends the
    /// resulting step, and returns its index — or `None` if the rule
    /// instance is malformed. The conclusion is computed by
    /// [`crate::rules::apply`], so an appended step is valid by
    /// construction (the independent [`ProofDag::check`] re-verifies).
    pub fn step(
        &mut self,
        alg: &Algebra,
        rule: Rule,
        inputs: &[usize],
        params: &[AtomSet],
    ) -> Option<usize> {
        let premises: Vec<&CompiledDep> =
            inputs.iter().map(|&i| self.nodes[i].conclusion()).collect();
        let param_refs: Vec<&AtomSet> = params.iter().collect();
        let conclusion = apply(alg, rule, &premises, &param_refs)?;
        self.nodes.push(DagNode::Step {
            rule,
            inputs: inputs.to_vec(),
            params: params.to_vec(),
            conclusion,
        });
        Some(self.nodes.len() - 1)
    }

    /// The conclusion of node `i`.
    ///
    /// # Panics
    /// If `i` is out of range; use [`ProofDag::try_conclusion`] for
    /// untrusted indices.
    pub fn conclusion(&self, i: usize) -> &CompiledDep {
        self.nodes[i].conclusion()
    }

    /// The conclusion of node `i`, or `None` if `i` is out of range.
    pub fn try_conclusion(&self, i: usize) -> Option<&CompiledDep> {
        self.nodes.get(i).map(DagNode::conclusion)
    }

    /// Independently re-verifies every node against the premise list.
    /// Returns the conclusion of the last node. Charges one fuel unit of
    /// `budget` per node plus one per cited input edge, so a
    /// certificate-sized bomb trips the budget instead of monopolising
    /// the checker.
    pub fn check<'s>(
        &'s self,
        alg: &Algebra,
        sigma: &[CompiledDep],
        budget: &Budget,
    ) -> Result<&'s CompiledDep, ProofError> {
        let mut last = None;
        for (i, node) in self.nodes.iter().enumerate() {
            budget.charge(1)?;
            match node {
                DagNode::Premise { index, dep } => {
                    if sigma.get(*index) != Some(dep) {
                        return Err(ProofError::BadPremise { index: *index });
                    }
                }
                DagNode::Step {
                    rule,
                    inputs,
                    params,
                    conclusion,
                } => {
                    budget.charge(inputs.len() as u64)?;
                    if inputs.iter().any(|&j| j >= i) {
                        return Err(ProofError::BadStep { rule: *rule });
                    }
                    let premises: Vec<&CompiledDep> =
                        inputs.iter().map(|&j| self.nodes[j].conclusion()).collect();
                    let param_refs: Vec<&AtomSet> = params.iter().collect();
                    match apply(alg, *rule, &premises, &param_refs) {
                        Some(got) if got == *conclusion => {}
                        _ => return Err(ProofError::BadStep { rule: *rule }),
                    }
                }
            }
            last = Some(node.conclusion());
        }
        last.ok_or(ProofError::EmptyDerivation)
    }

    /// Renders the DAG as a numbered listing, one node per line.
    /// Ungoverned twin of [`ProofDag::render_governed`].
    pub fn render(&self, alg: &Algebra) -> String {
        self.render_governed(alg, &Budget::unlimited())
            .unwrap_or_default()
    }

    /// Budget-governed rendering: charges one fuel unit per node plus one
    /// per cited input edge.
    pub fn render_governed(
        &self,
        alg: &Algebra,
        budget: &Budget,
    ) -> Result<String, ResourceExhausted> {
        let mut out = String::new();
        for (i, node) in self.nodes.iter().enumerate() {
            budget.charge(1)?;
            match node {
                DagNode::Premise { index, dep } => {
                    out.push_str(&format!("n{i}: [premise #{index}] {}\n", dep.render(alg)));
                }
                DagNode::Step {
                    rule,
                    inputs,
                    conclusion,
                    ..
                } => {
                    budget.charge(inputs.len() as u64)?;
                    let from = if inputs.is_empty() {
                        String::new()
                    } else {
                        format!(
                            "  (from {})",
                            inputs
                                .iter()
                                .map(|j| format!("n{j}"))
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    };
                    out.push_str(&format!(
                        "n{i}: [{}] {}{from}\n",
                        rule.name(),
                        conclusion.render(alg)
                    ));
                }
            }
        }
        Ok(out)
    }

    /// Expands the sub-derivation rooted at node `i` into a [`Proof`]
    /// tree. Sharing is lost — sizes can blow up; intended for displaying
    /// small certificates. Ungoverned twin of
    /// [`ProofDag::to_tree_governed`].
    pub fn to_tree(&self, i: usize) -> Proof {
        self.to_tree_governed(i, &Budget::unlimited())
            .expect("unlimited budget never exhausts")
    }

    /// Budget-governed tree expansion: charges one fuel unit per expanded
    /// node and honours `budget.max_depth()`. Because sharing is lost, a
    /// small DAG can expand to an exponentially large tree — governed
    /// expansion is the only safe entry point for untrusted input.
    pub fn to_tree_governed(&self, i: usize, budget: &Budget) -> Result<Proof, ResourceExhausted> {
        self.expand(i, budget, 0)
    }

    fn expand(&self, i: usize, budget: &Budget, depth: u64) -> Result<Proof, ResourceExhausted> {
        budget.charge(1)?;
        check_depth(budget, depth)?;
        match &self.nodes[i] {
            DagNode::Premise { index, dep } => Ok(Proof::Premise {
                index: *index,
                dep: dep.clone(),
            }),
            DagNode::Step {
                rule,
                inputs,
                params,
                conclusion,
            } => {
                let mut subtrees = Vec::with_capacity(inputs.len());
                for &j in inputs {
                    subtrees.push(self.expand(j, budget, depth + 1)?);
                }
                Ok(Proof::Step {
                    rule: *rule,
                    inputs: subtrees,
                    params: params.clone(),
                    conclusion: conclusion.clone(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::Dependency;
    use nalist_types::parser::parse_attr;

    fn dep(n: &nalist_types::NestedAttr, alg: &Algebra, s: &str) -> CompiledDep {
        Dependency::parse(n, s).unwrap().compile(alg).unwrap()
    }

    #[test]
    fn valid_two_step_proof_checks() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)"), dep(&n, &alg, "L(B) -> L(C)")];
        let proof = Proof::Step {
            rule: Rule::FdTransitivity,
            inputs: vec![
                Proof::Premise {
                    index: 0,
                    dep: sigma[0].clone(),
                },
                Proof::Premise {
                    index: 1,
                    dep: sigma[1].clone(),
                },
            ],
            params: vec![],
            conclusion: dep(&n, &alg, "L(A) -> L(C)"),
        };
        let c = check(&alg, &sigma, &proof, &b).unwrap();
        assert_eq!(c.render(&alg), "L(A) -> L(C)");
        assert_eq!(proof.step_count(), 1);
        assert_eq!(proof.depth(), 1);
        assert!(proof.render(&alg).contains("transitivity rule"));
    }

    #[test]
    fn wrong_conclusion_rejected() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)"), dep(&n, &alg, "L(B) -> L(C)")];
        let proof = Proof::Step {
            rule: Rule::FdTransitivity,
            inputs: vec![
                Proof::Premise {
                    index: 0,
                    dep: sigma[0].clone(),
                },
                Proof::Premise {
                    index: 1,
                    dep: sigma[1].clone(),
                },
            ],
            params: vec![],
            conclusion: dep(&n, &alg, "L(A) -> L(B, C)"), // not what the rule gives
        };
        assert_eq!(
            check(&alg, &sigma, &proof, &b),
            Err(ProofError::BadStep {
                rule: Rule::FdTransitivity
            })
        );
    }

    #[test]
    fn bad_premise_rejected() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)")];
        let fake = Proof::Premise {
            index: 0,
            dep: dep(&n, &alg, "L(B) -> L(A)"),
        };
        assert_eq!(
            check(&alg, &sigma, &fake, &b),
            Err(ProofError::BadPremise { index: 0 })
        );
        let oob = Proof::Premise {
            index: 7,
            dep: sigma[0].clone(),
        };
        assert_eq!(
            check(&alg, &sigma, &oob, &b),
            Err(ProofError::BadPremise { index: 7 })
        );
    }

    #[test]
    fn dag_builds_checks_and_expands() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)"), dep(&n, &alg, "L(B) -> L(C)")];
        let mut dag = ProofDag::new();
        let p0 = dag.premise(0, sigma[0].clone());
        let p1 = dag.premise(1, sigma[1].clone());
        let t = dag
            .step(&alg, Rule::FdTransitivity, &[p0, p1], &[])
            .unwrap();
        assert_eq!(dag.conclusion(t).render(&alg), "L(A) -> L(C)");
        let root = dag.check(&alg, &sigma, &b).unwrap();
        assert_eq!(root.render(&alg), "L(A) -> L(C)");
        // the expanded tree checks against the tree checker too
        let tree = dag.to_tree(t);
        assert_eq!(
            check(&alg, &sigma, &tree, &b).unwrap().render(&alg),
            "L(A) -> L(C)"
        );
        assert_eq!(dag.len(), 3);
        assert!(!dag.is_empty());
    }

    #[test]
    fn dag_rejects_malformed_steps() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)")];
        let mut dag = ProofDag::new();
        let p0 = dag.premise(0, sigma[0].clone());
        // transitivity with mismatched middle is refused at build time
        assert!(dag
            .step(&alg, Rule::FdTransitivity, &[p0, p0], &[])
            .is_none());
        // a forged forward reference is caught by check
        let mut forged = ProofDag::new();
        forged.premise(0, sigma[0].clone());
        forged.nodes.push(DagNode::Step {
            rule: Rule::FdImpliesMvd,
            inputs: vec![5], // forward/out-of-range
            params: vec![],
            conclusion: sigma[0].clone(),
        });
        assert!(forged.check(&alg, &sigma, &b).is_err());
        // a forged conclusion is caught by check
        let mut forged2 = ProofDag::new();
        let q = forged2.premise(0, sigma[0].clone());
        forged2.nodes.push(DagNode::Step {
            rule: Rule::FdImpliesMvd,
            inputs: vec![q],
            params: vec![],
            conclusion: dep(&n, &alg, "L(A) -> L(C)"), // wrong
        });
        assert!(forged2.check(&alg, &sigma, &b).is_err());
    }

    #[test]
    fn governed_paths_trip_budget_and_depth() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B, C)").unwrap();
        let alg = Algebra::new(&n);
        let sigma = vec![dep(&n, &alg, "L(A) -> L(B)"), dep(&n, &alg, "L(B) -> L(C)")];
        let mut dag = ProofDag::new();
        let p0 = dag.premise(0, sigma[0].clone());
        let p1 = dag.premise(1, sigma[1].clone());
        let t = dag
            .step(&alg, Rule::FdTransitivity, &[p0, p1], &[])
            .unwrap();

        // out of fuel: every governed entry point reports Resource
        let starved = Budget::unlimited().with_fuel(1);
        assert!(matches!(
            dag.check(&alg, &sigma, &starved),
            Err(ProofError::Resource(_))
        ));
        assert!(dag
            .render_governed(&alg, &Budget::unlimited().with_fuel(1))
            .is_err());
        assert!(dag
            .to_tree_governed(t, &Budget::unlimited().with_fuel(1))
            .is_err());

        // depth cap: the expanded tree has depth 1, a cap of 0 trips it
        let shallow = Budget::unlimited().with_max_depth(0);
        let tree = dag.to_tree(t);
        assert!(matches!(
            check(&alg, &sigma, &tree, &shallow),
            Err(ProofError::Resource(e)) if e.kind == ResourceKind::Depth
        ));
        assert!(tree
            .render_governed(&alg, &Budget::unlimited().with_max_depth(0))
            .is_err());

        // an ample budget agrees with an unlimited one everywhere
        let ample = Budget::unlimited().with_fuel(1_000).with_max_depth(64);
        assert_eq!(
            dag.check(&alg, &sigma, &ample).unwrap(),
            dag.check(&alg, &sigma, &b).unwrap()
        );
        assert_eq!(dag.render_governed(&alg, &ample).unwrap(), dag.render(&alg));
        assert_eq!(dag.to_tree_governed(t, &ample).unwrap(), tree);
        assert_eq!(
            tree.render_governed(&alg, &ample).unwrap(),
            tree.render(&alg)
        );
    }

    #[test]
    fn empty_dag_is_a_typed_error() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A)").unwrap();
        let alg = Algebra::new(&n);
        assert_eq!(
            ProofDag::new().check(&alg, &[], &b),
            Err(ProofError::EmptyDerivation)
        );
        assert!(ProofDag::new().try_conclusion(0).is_none());
    }

    #[test]
    fn axiom_proof_with_params() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B)").unwrap();
        let alg = Algebra::new(&n);
        let x = alg.top_set();
        let y = dep(&n, &alg, "L(A) -> L(A)").lhs;
        let proof = Proof::Step {
            rule: Rule::FdReflexivity,
            inputs: vec![],
            params: vec![x.clone(), y.clone()],
            conclusion: CompiledDep::fd(x, y),
        };
        assert!(check(&alg, &[], &proof, &b).is_ok());
    }
}
