//! Genomic sequence database scenario: reasoning over ordered exon lists
//! and residue sequences — the bioinformatics use case the paper's
//! introduction motivates ("lists occur naturally in genomic sequence
//! databases").
//!
//! Run with `cargo run -p nalist --example genomic_sequences`.

use nalist::gen::scenarios::genomic;
use nalist::prelude::*;

fn main() {
    let b = Budget::unlimited();
    let scenario = genomic();
    let n = &scenario.attr;
    println!("N = {n}");
    println!("sample instance ({} genes):", scenario.instance.len());
    for t in scenario.instance.iter() {
        println!("  {t}");
    }
    println!();

    let mut reasoner = Reasoner::new(n);
    println!("Σ:");
    for d in &scenario.sigma {
        println!("  {}", d.display_in(n));
        reasoner.add(d.clone()).expect("adds");
    }
    println!();

    // what does the locus determine?
    println!(
        "Gene(Locus)+ = {}",
        reasoner.closure_str("Gene(Locus)", &b).expect("closure")
    );

    // derived facts a curator might ask about
    for query in [
        // exon count is determined (shape of the exon list)
        "Gene(Locus) -> Gene(Exons[λ])",
        // the full exon table follows from the locus
        "Gene(Locus) -> Gene(Exons[Exon(Start)])",
        // protein residues follow from locus only via the protein name? no:
        "Gene(Locus) -> Gene(Product(Residues[Acid]))",
        // but the independence MVD holds for the product subtree
        "Gene(Locus) ->> Gene(Product(Protein, Residues[Acid]))",
        // and residues are exchangeable independently of exon structure
        "Gene(Locus) ->> Gene(Exons[Exon(Start, End)])",
    ] {
        let implied = reasoner.implies_str(query, &b).expect("parses");
        println!("Σ ⊨ {query:<55} {}", if implied { "yes" } else { "no" });
    }
    println!();

    // keys: what identifies a gene record?
    let alg = reasoner.algebra();
    let keys = candidate_keys(alg, reasoner.compiled_sigma(), 8);
    println!("candidate keys ({}):", keys.len());
    for k in &keys {
        println!("  {}", alg.render(k));
    }
    println!();

    // normal forms & decomposition
    println!(
        "schema in 4NF-with-lists: {}",
        is_fourth_nf(alg, reasoner.compiled_sigma())
    );
    let components = decompose_4nf(alg, reasoner.compiled_sigma(), 8);
    println!("4NF decomposition into {} components:", components.len());
    for c in &components {
        println!(
            "  {} ({} local dependencies)",
            alg.render(&c.atoms),
            c.local_deps.len()
        );
    }
    let atom_sets: Vec<AtomSet> = components.iter().map(|c| c.atoms.clone()).collect();
    let lossless = verify_lossless(alg, &scenario.instance, &atom_sets).expect("verifies");
    println!("decomposition lossless on the sample instance: {lossless}");
}
