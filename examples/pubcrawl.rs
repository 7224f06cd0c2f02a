//! The paper's running example, end to end: Example 4.2 (satisfaction),
//! Example 4.5 (lossless decomposition), and the mixed-meet consequence.
//!
//! Run with `cargo run -p nalist --example pubcrawl`.

use nalist::gen::scenarios::pubcrawl;
use nalist::prelude::*;

fn main() {
    let b = Budget::unlimited();
    let scenario = pubcrawl();
    let n = &scenario.attr;
    let alg = Algebra::new(n);
    let r = &scenario.instance;

    println!("N = {n}");
    println!("snapshot r ⊆ dom(N), {} tuples:", r.len());
    for t in r.iter() {
        println!("  {t}");
    }
    println!();

    // Example 4.2: which dependencies does the snapshot satisfy?
    for dep in [
        "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])",
        "Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Beer)])",
        "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])",
        "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
    ] {
        let d = Dependency::parse(n, dep).expect("parses");
        let sat = r.satisfies_dep(&alg, &d).expect("checks");
        println!("r ⊨ {dep:<52} {}", if sat { "yes" } else { "no" });
    }
    println!();

    // Example 4.5: the MVD licenses a lossless decomposition into the
    // beer side and the pub side (Theorem 4.4).
    let mvd = Dependency::parse(n, "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
        .expect("parses")
        .compile(&alg)
        .expect("compiles");
    let (pub_side, beer_side) = binary_split(&alg, &mvd);
    println!("decomposing along the MVD:");
    println!("  component 1: {}", alg.render(&pub_side));
    println!("  component 2: {}", alg.render(&beer_side));

    let p1 = r.project(&alg.to_attr(&pub_side)).expect("projects");
    let p2 = r.project(&alg.to_attr(&beer_side)).expect("projects");
    println!("π onto component 1 ({} tuples):", p1.len());
    for t in p1.iter() {
        println!("  {t}");
    }
    println!("π onto component 2 ({} tuples):", p2.len());
    for t in p2.iter() {
        println!("  {t}");
    }
    let lossless =
        verify_lossless(&alg, r, &[pub_side.clone(), beer_side.clone()]).expect("verifies");
    println!("generalised join reconstructs r: {lossless}\n");

    // The mixed meet rule in action: from the MVD alone, the membership
    // algorithm derives that Person functionally determines the *shape*
    // (length) of the visit list — a non-trivial FD with no relational
    // counterpart.
    let mut reasoner = Reasoner::new(n);
    reasoner
        .add_str("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
        .expect("adds");
    let shape_fd = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])";
    println!(
        "Σ = {{Person ↠ Visit[Drink(Pub)]}} ⊨ {shape_fd}: {}",
        reasoner.implies_str(shape_fd, &b).expect("decides")
    );
    println!(
        "Person+ = {}",
        reasoner
            .closure_str("Pubcrawl(Person)", &b)
            .expect("closure")
    );
}
