//! The lint rules L001–L009 and the registry that runs them.
//!
//! Each rule is a pure function of a [`LintCtx`], which precomputes the
//! shared analysis facts (triviality, duplication, subsumption, MVD
//! implication) once so that the *suppression* policy is explicit: a
//! dependency flagged as trivial (L001), duplicate/subsumed (L003) or
//! MVD-implied (L005) is not additionally reported as redundant (L002) —
//! the more specific rule already explains *why* it is redundant.
//!
//! The paper supplies the decision procedures: triviality is Lemma 4.3,
//! implication runs through the worklist closure engine
//! ([`nalist_membership::implies`]), left-reduction and minimal covers
//! come from [`nalist_schema::cover`], the mixed meet rule
//! `X ↠ Y ⊢ X → Y⊓Y^C` is Theorem 4.6, possession is Definition 4.11,
//! and 4NF-with-lists is [`nalist_schema::normalform`].

use nalist_algebra::{Algebra, AtomSet};
use nalist_deps::{CompiledDep, DepKind};
use nalist_membership::implies;
use nalist_schema::cover::{is_redundant, minimal_cover, reduce_lhs};
use nalist_schema::normalform::fourth_nf_violations;
use nalist_types::attr::NestedAttr;

use crate::diagnostic::{Diagnostic, Severity};
use crate::spec::{Entry, Spec, SYNTAX, UNRESOLVED};

/// A registered lint rule.
pub struct Rule {
    /// Rule code (`L001`…).
    pub code: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line description shown in documentation and `help`.
    pub summary: &'static str,
    run: fn(&LintCtx) -> Vec<Diagnostic>,
}

/// The rule registry, in code order. L000 and L007 fire during spec
/// loading (see [`crate::spec`]) and have no run body here; they are
/// listed so that one table documents every code.
pub fn rules() -> &'static [Rule] {
    const RULES: &[Rule] = &[
        Rule {
            code: SYNTAX,
            name: "syntax-error",
            summary: "dependency line does not parse",
            run: |_| Vec::new(),
        },
        Rule {
            code: "L001",
            name: "trivial-dependency",
            summary: "dependency holds in every instance (Lemma 4.3)",
            run: l001_trivial,
        },
        Rule {
            code: "L002",
            name: "redundant-dependency",
            summary: "dependency is implied by the rest of the spec",
            run: l002_redundant,
        },
        Rule {
            code: "L003",
            name: "duplicate-dependency",
            summary: "dependency duplicates or is subsumed by another line",
            run: l003_duplicate,
        },
        Rule {
            code: "L004",
            name: "extraneous-lhs",
            summary: "left-hand side has removable subattributes",
            run: l004_extraneous_lhs,
        },
        Rule {
            code: "L005",
            name: "fd-from-mvd",
            summary: "FD already follows from an MVD via the mixed meet rule (Theorem 4.6)",
            run: l005_fd_from_mvd,
        },
        Rule {
            code: "L006",
            name: "non-possessed-rhs",
            summary: "MVD right-hand side mentions basis attributes it does not possess (Definition 4.11)",
            run: l006_non_possessed_rhs,
        },
        Rule {
            code: UNRESOLVED,
            name: "unresolved-path",
            summary: "attribute path does not resolve against the schema",
            run: |_| Vec::new(),
        },
        Rule {
            code: "L008",
            name: "not-minimal-cover",
            summary: "spec is not a minimal cover; a smaller equivalent exists",
            run: l008_minimal_cover,
        },
        Rule {
            code: "L009",
            name: "normal-form",
            summary: "schema violates 4NF-with-lists",
            run: l009_normal_form,
        },
    ];
    RULES
}

/// Shared analysis context for one spec.
pub struct LintCtx<'a> {
    /// Ambient attribute.
    pub n: &'a NestedAttr,
    /// Its algebra.
    pub alg: &'a Algebra,
    /// Successfully loaded dependencies.
    pub entries: &'a [Entry],
    /// `entries[i].compiled`, collected for the Σ-level procedures.
    pub compiled: Vec<CompiledDep>,
    /// Lemma 4.3 triviality per entry.
    trivial: Vec<bool>,
    /// Index of an *earlier* textually identical entry, if any.
    duplicate_of: Vec<Option<usize>>,
    /// Index of a strictly stronger FD elsewhere in Σ, if any.
    subsumed_by: Vec<Option<usize>>,
    /// For FDs: index of a single MVD that alone implies this FD.
    mvd_source: Vec<Option<usize>>,
}

impl<'a> LintCtx<'a> {
    /// Precomputes the shared facts for `spec`.
    pub fn new(spec: &'a Spec) -> Self {
        let alg = &spec.alg;
        let entries = &spec.entries;
        let compiled: Vec<CompiledDep> = entries.iter().map(|e| e.compiled.clone()).collect();
        let trivial: Vec<bool> = compiled.iter().map(|c| c.is_trivial(alg)).collect();
        let duplicate_of: Vec<Option<usize>> = (0..compiled.len())
            .map(|i| (0..i).find(|&j| compiled[j] == compiled[i]))
            .collect();
        let subsumed_by: Vec<Option<usize>> = (0..compiled.len())
            .map(|i| (0..compiled.len()).find(|&j| subsumes(alg, &compiled, j, i)))
            .collect();
        let mvd_source: Vec<Option<usize>> = (0..compiled.len())
            .map(|i| {
                if compiled[i].kind != DepKind::Fd || trivial[i] {
                    return None;
                }
                (0..compiled.len()).find(|&j| {
                    compiled[j].kind == DepKind::Mvd
                        && implies(alg, std::slice::from_ref(&compiled[j]), &compiled[i])
                })
            })
            .collect();
        LintCtx {
            n: &spec.n,
            alg,
            entries,
            compiled,
            trivial,
            duplicate_of,
            subsumed_by,
            mvd_source,
        }
    }

    fn diag(
        &self,
        i: usize,
        code: &'static str,
        message: String,
        suggestion: Option<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            span: self.entries[i].span(),
            message,
            suggestion,
        }
    }
}

/// Does `sigma[j]` strictly subsume `sigma[i]`? Sound cases only:
///
/// * an FD `V → W` subsumes any dependency `X → Y` / `X ↠ Y` with
///   `V ≤ X` and `Y ≤ W` (augmentation + fragmentation, and an FD
///   implies the matching MVD);
///
/// MVD-by-MVD subsumption beyond textual equality is *not* claimed here
/// — shrinking an MVD's RHS is unsound in general — and identical pairs
/// are the duplicate case, excluded to keep the relation irreflexive.
fn subsumes(alg: &Algebra, sigma: &[CompiledDep], j: usize, i: usize) -> bool {
    if i == j || sigma[i] == sigma[j] {
        return false;
    }
    sigma[j].kind == DepKind::Fd
        && alg.le(&sigma[j].lhs, &sigma[i].lhs)
        && alg.le(&sigma[i].rhs, &sigma[j].rhs)
}

fn arrow(kind: DepKind) -> &'static str {
    match kind {
        DepKind::Fd => "->",
        DepKind::Mvd => "->>",
    }
}

fn l001_trivial(ctx: &LintCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, c) in ctx.compiled.iter().enumerate() {
        if !ctx.trivial[i] {
            continue;
        }
        let reason = if ctx.alg.le(&c.rhs, &c.lhs) {
            "the RHS is a subattribute of the LHS"
        } else {
            "LHS ⊔ RHS is the whole of N"
        };
        out.push(ctx.diag(
            i,
            "L001",
            format!("trivial dependency: {reason} (Lemma 4.3), so it holds in every instance"),
            Some("remove this dependency".to_owned()),
        ));
    }
    out
}

fn l002_redundant(ctx: &LintCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for i in 0..ctx.compiled.len() {
        // Suppressed when a more specific rule already explains the
        // redundancy — including for the *earlier* copy of an exact
        // duplicate pair, which L003 blames on the later line.
        let has_duplicate = ctx.duplicate_of.contains(&Some(i)) || ctx.duplicate_of[i].is_some();
        if ctx.trivial[i]
            || has_duplicate
            || ctx.subsumed_by[i].is_some()
            || ctx.mvd_source[i].is_some()
        {
            continue;
        }
        if is_redundant(ctx.alg, &ctx.compiled, i) {
            out.push(ctx.diag(
                i,
                "L002",
                "redundant dependency: the rest of the spec already implies it".to_owned(),
                Some("remove this dependency".to_owned()),
            ));
        }
    }
    out
}

fn l003_duplicate(ctx: &LintCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for i in 0..ctx.compiled.len() {
        if let Some(j) = ctx.duplicate_of[i] {
            out.push(ctx.diag(
                i,
                "L003",
                format!(
                    "duplicate dependency: identical to line {}",
                    ctx.entries[j].line
                ),
                Some("remove this duplicate".to_owned()),
            ));
        } else if let Some(j) = ctx.subsumed_by[i] {
            out.push(ctx.diag(
                i,
                "L003",
                format!(
                    "subsumed dependency: line {} ({}) is at least as strong",
                    ctx.entries[j].line,
                    ctx.compiled[j].render(ctx.alg)
                ),
                Some("remove this dependency and keep the stronger one".to_owned()),
            ));
        }
    }
    out
}

fn l004_extraneous_lhs(ctx: &LintCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, c) in ctx.compiled.iter().enumerate() {
        if ctx.trivial[i] || ctx.duplicate_of[i].is_some() {
            continue;
        }
        let reduced = reduce_lhs(ctx.alg, &ctx.compiled, c);
        if reduced != c.lhs {
            let rewritten = format!(
                "{} {} {}",
                ctx.alg.render(&reduced),
                arrow(c.kind),
                ctx.alg.render(&c.rhs)
            );
            out.push(Diagnostic {
                code: "L004",
                severity: Severity::Warning,
                span: ctx.entries[i].spanned.lhs.span,
                message: format!(
                    "extraneous LHS subattributes: the spec still implies this dependency with the LHS reduced to {}",
                    ctx.alg.render(&reduced)
                ),
                suggestion: Some(format!("rewrite as `{rewritten}`")),
            });
        }
    }
    out
}

fn l005_fd_from_mvd(ctx: &LintCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for i in 0..ctx.compiled.len() {
        // An FD that merely duplicates / is subsumed by another FD is
        // L003's finding; here we only explain MVD-derived FDs.
        if ctx.duplicate_of[i].is_some() || ctx.subsumed_by[i].is_some() {
            continue;
        }
        if let Some(j) = ctx.mvd_source[i] {
            out.push(ctx.diag(
                i,
                "L005",
                format!(
                    "FD already derivable from the MVD on line {} alone, by the mixed meet rule X ↠ Y ⊢ X → Y⊓Y^C (Theorem 4.6)",
                    ctx.entries[j].line
                ),
                Some("remove this FD".to_owned()),
            ));
        }
    }
    out
}

/// For an MVD `X ↠ Y`, the atoms of `Y` that `Y` does not possess are
/// exactly `SubB(Y ⊓ Y^C)`: an atom of `Y` lies in the complement `Y^C`
/// iff some attribute above it is missing from `Y` (Definition 4.11). The
/// mixed meet rule then turns the MVD into the *functional* dependency
/// `X → Y⊓Y^C` — almost never what the author intended to state silently.
fn hidden_fd_rhs(alg: &Algebra, rhs: &AtomSet) -> AtomSet {
    alg.meet(rhs, &alg.compl(rhs))
}

fn l006_non_possessed_rhs(ctx: &LintCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, c) in ctx.compiled.iter().enumerate() {
        if c.kind != DepKind::Mvd || ctx.trivial[i] || ctx.duplicate_of[i].is_some() {
            continue;
        }
        let hidden = hidden_fd_rhs(ctx.alg, &c.rhs);
        if hidden.is_empty() || ctx.alg.le(&hidden, &c.lhs) {
            continue;
        }
        let hidden_fd = format!("{} -> {}", ctx.alg.render(&c.lhs), ctx.alg.render(&hidden));
        out.push(Diagnostic {
            code: "L006",
            severity: Severity::Warning,
            span: ctx.entries[i].spanned.rhs.span,
            message: format!(
                "RHS mentions basis attributes it does not possess (Definition 4.11): {} — the MVD silently implies the FD `{hidden_fd}`",
                ctx.alg.render(&hidden)
            ),
            suggestion: Some(format!(
                "state the hidden functional dependency explicitly: `{hidden_fd}`"
            )),
        });
    }
    out
}

fn l008_minimal_cover(ctx: &LintCtx) -> Vec<Diagnostic> {
    if ctx.entries.is_empty() {
        return Vec::new();
    }
    let cover = minimal_cover(ctx.alg, &ctx.compiled);
    let mut have = ctx.compiled.clone();
    let mut want = cover.clone();
    have.sort();
    have.dedup();
    want.sort();
    if have == want {
        return Vec::new();
    }
    let lines: Vec<String> = cover.iter().map(|d| d.render(ctx.alg)).collect();
    let shape = if cover.len() < ctx.compiled.len() {
        format!(
            "{} dependencies written, an equivalent cover has {}",
            ctx.compiled.len(),
            cover.len()
        )
    } else {
        "an equivalent left-reduced cover exists".to_owned()
    };
    let suggestion = if lines.is_empty() {
        "remove every dependency: the spec is vacuous (Σ only asserts trivialities)".to_owned()
    } else {
        format!("rewrite Σ as:\n{}", lines.join("\n"))
    };
    vec![Diagnostic {
        code: "L008",
        severity: Severity::Warning,
        span: ctx.entries[0].span(),
        message: format!("spec is not a minimal cover: {shape}"),
        suggestion: Some(suggestion),
    }]
}

fn l009_normal_form(ctx: &LintCtx) -> Vec<Diagnostic> {
    fourth_nf_violations(ctx.alg, &ctx.compiled)
        .into_iter()
        .map(|v| {
            ctx.diag(
                v.index,
                "L009",
                format!("4NF-with-lists violation: {}", v.reason),
                Some(
                    "decompose along this dependency (`nalist normalize`) or strengthen the LHS to a key"
                        .to_owned(),
                ),
            )
        })
        .collect()
}

/// Runs every registered rule over the loaded spec and returns the
/// findings (unsorted; [`crate::lint_spec`] merges and orders them).
pub fn run_rules(spec: &Spec) -> Vec<Diagnostic> {
    let ctx = LintCtx::new(spec);
    rules().iter().flat_map(|r| (r.run)(&ctx)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::load_spec;
    use nalist_guard::Budget;

    fn codes(schema: &str, deps: &str) -> Vec<(String, String)> {
        let b = Budget::unlimited();
        let spec = load_spec(schema, deps, &b).unwrap();
        let mut out: Vec<(String, String)> = spec
            .load_diagnostics
            .iter()
            .chain(run_rules(&spec).iter())
            .map(|d| (d.code.to_owned(), d.span.text(deps).to_owned()))
            .collect();
        out.sort();
        out
    }

    fn rule_codes(schema: &str, deps: &str) -> Vec<String> {
        let mut out: Vec<String> = codes(schema, deps).into_iter().map(|(c, _)| c).collect();
        out.dedup();
        out
    }

    #[test]
    fn registry_lists_all_codes_in_order() {
        let codes: Vec<&str> = rules().iter().map(|r| r.code).collect();
        assert_eq!(
            codes,
            ["L000", "L001", "L002", "L003", "L004", "L005", "L006", "L007", "L008", "L009"]
        );
    }

    #[test]
    fn l001_fires_on_trivial_only() {
        let b = Budget::unlimited();
        // Y ≤ X triviality; the minimal cover drops the dependency
        // entirely, so L008 rides along — but no 4NF or redundancy noise.
        assert_eq!(rule_codes("L(A, B)", "L(A, B) -> L(A)\n"), ["L001", "L008"]);
        // the X ⊔ Y = N form of MVD triviality
        let spec = load_spec("L(A, B)", "L(A) ->> L(B)\n", &b).unwrap();
        let diags = run_rules(&spec);
        let l001: Vec<_> = diags.iter().filter(|d| d.code == "L001").collect();
        assert_eq!(l001.len(), 1);
        assert!(l001[0].message.contains("whole of N"));
        // near-miss: a contentful FD is not trivial
        assert!(rule_codes("L(A, B, C)", "L(A) -> L(B, C)\n").is_empty());
    }

    #[test]
    fn l002_redundant_transitive_fd() {
        let deps = "L(A) -> L(B)\nL(B) -> L(C)\nL(A) -> L(C)\n";
        let found = codes("L(A, B, C)", deps);
        assert!(found
            .iter()
            .any(|(c, t)| c == "L002" && t == "L(A) -> L(C)"));
        // the two generators are not flagged L002
        assert_eq!(found.iter().filter(|(c, _)| c == "L002").count(), 1);
    }

    #[test]
    fn l003_duplicate_blames_later_line() {
        let b = Budget::unlimited();
        let deps = "L(A) -> L(B)\nL(A) -> L(B)\n";
        let spec = load_spec("L(A, B, C)", deps, &b).unwrap();
        let diags = run_rules(&spec);
        let l003: Vec<_> = diags.iter().filter(|d| d.code == "L003").collect();
        assert_eq!(l003.len(), 1);
        assert_eq!(spec.entries[1].span(), l003[0].span);
        assert!(l003[0].message.contains("identical to line 1"));
        // and neither copy is reported L002
        assert!(!diags.iter().any(|d| d.code == "L002"));
    }

    #[test]
    fn l003_subsumption_by_stronger_fd() {
        let b = Budget::unlimited();
        // L(A) -> L(B, C) subsumes L(A, B) -> L(C).
        let deps = "L(A) -> L(B, C)\nL(A, B) -> L(C)\n";
        let spec = load_spec("L(A, B, C)", deps, &b).unwrap();
        let diags = run_rules(&spec);
        let l003: Vec<_> = diags.iter().filter(|d| d.code == "L003").collect();
        assert_eq!(l003.len(), 1);
        assert_eq!(l003[0].span, spec.entries[1].span());
        assert!(l003[0].message.contains("line 1"));
    }

    #[test]
    fn l004_extraneous_lhs_points_at_lhs() {
        let b = Budget::unlimited();
        let deps = "L(A) -> L(C)\nL(A, B) -> L(C)\n";
        let spec = load_spec("L(A, B, C)", deps, &b).unwrap();
        let diags = run_rules(&spec);
        let l004: Vec<_> = diags.iter().filter(|d| d.code == "L004").collect();
        assert_eq!(l004.len(), 1);
        assert_eq!(l004[0].span.text(deps), "L(A, B)");
        assert!(l004[0]
            .suggestion
            .as_deref()
            .unwrap()
            .contains("L(A) -> L(C)"));
    }

    #[test]
    fn l005_mixed_meet_fd() {
        let b = Budget::unlimited();
        // On the pubcrawl schema the MVD Person ↠ Visit[Drink(Pub)] does
        // not possess Pub's sibling Beer, hence implies
        // Person -> Visit[λ]; stating that FD separately triggers L005.
        let schema = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])";
        let deps = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])\n\
                    Pubcrawl(Person) -> Pubcrawl(Visit[λ])\n";
        let spec = load_spec(schema, deps, &b).unwrap();
        let diags = run_rules(&spec);
        let l005: Vec<_> = diags.iter().filter(|d| d.code == "L005").collect();
        assert_eq!(l005.len(), 1);
        assert_eq!(l005[0].span, spec.entries[1].span());
        assert!(l005[0].message.contains("mixed meet"));
        // suppressed as plain L002
        assert!(!diags.iter().any(|d| d.code == "L002"));
    }

    #[test]
    fn l006_non_possessed_rhs() {
        let b = Budget::unlimited();
        let schema = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])";
        let deps = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])\n";
        let spec = load_spec(schema, deps, &b).unwrap();
        let diags = run_rules(&spec);
        let l006: Vec<_> = diags.iter().filter(|d| d.code == "L006").collect();
        assert_eq!(l006.len(), 1);
        assert_eq!(l006[0].span.text(deps), "Pubcrawl(Visit[Drink(Pub)])");
        assert!(l006[0].message.contains("Visit[λ]"), "{}", l006[0].message);
        // near-miss: an RHS that possesses all its atoms is quiet
        let spec2 = load_spec("L(A, B, M[C], D)", "L(A) ->> L(B, M[C])\n", &b).unwrap();
        assert!(run_rules(&spec2).iter().all(|d| d.code != "L006"));
    }

    #[test]
    fn l008_minimal_cover_fixit() {
        let b = Budget::unlimited();
        let deps = "L(A) -> L(B)\nL(A) -> L(C)\nL(A) -> L(B, C)\n";
        let spec = load_spec("L(A, B, C)", deps, &b).unwrap();
        let diags = run_rules(&spec);
        let l008: Vec<_> = diags.iter().filter(|d| d.code == "L008").collect();
        assert_eq!(l008.len(), 1);
        let sugg = l008[0].suggestion.as_deref().unwrap();
        assert!(sugg.starts_with("rewrite Σ as:\n"), "{sugg}");
        // the cover is a single dependency determining both B and C
        assert_eq!(sugg.lines().count(), 2, "{sugg}");
    }

    #[test]
    fn l009_4nf_violation() {
        let b = Budget::unlimited();
        let schema = "Pubcrawl(Person, Visit[Drink(Beer, Pub)])";
        let deps = "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])\n";
        let spec = load_spec(schema, deps, &b).unwrap();
        let diags = run_rules(&spec);
        let l009: Vec<_> = diags.iter().filter(|d| d.code == "L009").collect();
        assert_eq!(l009.len(), 1);
        assert!(l009[0].message.contains("not a superkey"));
    }

    #[test]
    fn clean_key_based_spec_has_no_findings() {
        let b = Budget::unlimited();
        let spec = load_spec("L(A, B, C)", "L(A) -> L(B, C)\n", &b).unwrap();
        assert!(run_rules(&spec).is_empty());
        assert!(spec.load_diagnostics.is_empty());
    }
}
