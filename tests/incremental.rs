//! Cross-validation of incremental `Σ` maintenance (the delta-closure
//! cache of DESIGN.md's "Incremental maintenance & invalidation"):
//! random interleaved add/remove/query scripts replayed on ONE long-lived
//! [`Reasoner`] — whose cache survives edits via selective eviction —
//! against a reasoner rebuilt from scratch after every single edit.
//!
//! The contract under test is exact, not approximate: after any prefix of
//! edits, every verdict and every `DependencyBasis` the incremental
//! reasoner produces must be bit-identical to a from-scratch recompute
//! (soundness of the `fired`-set / one-step-replay eviction rules rests
//! on the confluence theorem, Theorem 6.3 of the paper).

use nalist::gen::{random_edit_script, EditConfig, EditOp};
use nalist::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rebuilds a fresh reasoner holding exactly `live`.
fn from_scratch(n: &NestedAttr, alg: &Algebra, live: &[CompiledDep]) -> Reasoner {
    let mut r = Reasoner::new(n);
    for d in live {
        r.add(d.decompile(alg)).expect("generated Σ compiles");
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Interleaved add/remove/query: the long-lived incremental reasoner
    /// answers every query, and reports every queried LHS's dependency
    /// basis, bit-identically to a reasoner rebuilt from scratch after
    /// each edit.
    #[test]
    fn interleaved_edits_match_from_scratch(seed in any::<u64>()) {
        let b = Budget::unlimited();
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(4..=20);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let script = random_edit_script(&mut rng, &alg, &EditConfig::default());

        let mut incremental = Reasoner::new(&n);
        let mut live: Vec<CompiledDep> = Vec::new();
        for (step, op) in script.iter().enumerate() {
            match op {
                EditOp::Add(d) => {
                    incremental.add(d.decompile(&alg)).expect("generated Σ compiles");
                    live.push(d.clone());
                }
                EditOp::Remove(d) => {
                    let removed = incremental
                        .remove(&d.decompile(&alg))
                        .expect("round-tripped deps compile");
                    prop_assert!(removed, "step {}: script removes a live dependency", step);
                    let i = live.iter().position(|have| have == d).expect("live");
                    live.remove(i);
                }
                EditOp::Query(d) => {
                    let scratch = from_scratch(&n, &alg, &live);
                    let dep = d.clone();
                    let want = scratch.implies(&dep, &b).expect("compiles");
                    let got = incremental.implies(&dep, &b).expect("compiles");
                    prop_assert_eq!(got, want, "step {}: verdict diverged", step);
                    // the cached basis itself must be bit-identical, not
                    // merely verdict-equivalent
                    prop_assert_eq!(
                        incremental.dependency_basis(&d.lhs),
                        scratch.dependency_basis(&d.lhs),
                        "step {}: basis diverged after {} edits",
                        step,
                        live.len()
                    );
                }
            }
        }
        // final state: every live LHS agrees too, from whatever mix of
        // warm and evicted entries the script left behind
        let scratch = from_scratch(&n, &alg, &live);
        for d in &live {
            prop_assert_eq!(
                incremental.dependency_basis(&d.lhs),
                scratch.dependency_basis(&d.lhs)
            );
        }
    }

    /// Stable dependency ids: across any interleaving of `add` and
    /// `remove_at`, the reasoner's id column matches a trivial model
    /// that hands out ids from a never-reused counter — removals leave
    /// holes, and no id is ever reassigned. (The durability layer keys
    /// cache fired-sets on these ids; reuse would silently corrupt a
    /// recovered cache.)
    #[test]
    fn dependency_ids_are_stable_across_interleaved_edits(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(4..=16);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let mut r = Reasoner::new(&n);
        let mut model: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for _ in 0..40 {
            if model.is_empty() || rng.gen_bool(0.6) {
                let d = nalist::gen::random_dep(&mut rng, &alg, 0.4, 0.5);
                r.add(d.decompile(&alg)).expect("generated Σ compiles");
                model.push(next);
                next += 1;
            } else {
                let i = rng.gen_range(0..model.len());
                r.remove_at(i);
                model.remove(i);
            }
            prop_assert_eq!(r.dep_ids(), &model[..]);
            prop_assert_eq!(r.next_dep_id(), next);
        }
    }

    /// A reasoner recovered from a snapshot is not merely equivalent to
    /// the live one — it *stays* bit-identical under further edits: the
    /// same cache entries survive, the same entries are evicted, and
    /// every subsequent snapshot payload is byte-equal. This is the
    /// property that makes crash recovery transparent to the cache.
    #[test]
    fn recovered_reasoner_tracks_live_bit_identically(seed in any::<u64>()) {
        let b = Budget::unlimited();
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(4..=16);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let script = random_edit_script(&mut rng, &alg, &EditConfig::default());
        let cut = rng.gen_range(0..=script.len());
        let apply = |r: &mut Reasoner, op: &EditOp| match op {
            EditOp::Add(d) => {
                r.add(d.decompile(&alg)).expect("generated Σ compiles");
            }
            EditOp::Remove(d) => {
                assert!(r.remove(&d.decompile(&alg)).expect("compiles"));
            }
            EditOp::Query(d) => {
                r.implies(d, &b).expect("compiles");
            }
        };
        let mut live = Reasoner::new(&n);
        for op in &script[..cut] {
            apply(&mut live, op);
        }
        let payload = snapshot_payload(&live);
        let mut recovered = nalist::membership::restore_reasoner(
            &payload,
            &Budget::unlimited(),
            std::sync::Arc::new(nalist::obs::NoopRecorder),
        )
        .expect("own snapshot restores");
        prop_assert_eq!(snapshot_payload(&recovered), payload);
        for (step, op) in script[cut..].iter().enumerate() {
            apply(&mut live, op);
            apply(&mut recovered, op);
            prop_assert_eq!(
                snapshot_payload(&recovered),
                snapshot_payload(&live),
                "diverged {} edit(s) after recovery",
                step + 1
            );
        }
        let (a, b) = (recovered.cache_stats(), live.cache_stats());
        prop_assert_eq!(a.entries, b.entries, "cache sizes diverged");
    }

    /// The same interleaving under a resource budget. A roomy budget must
    /// agree exactly with the ungoverned answer; a starved budget may
    /// refuse with `Resource`, but any answer it does return must be
    /// correct (budget-truncated runs never populate the cache, so later
    /// queries can't observe a partial basis either).
    #[test]
    fn governed_interleaved_edits_are_resource_or_correct(seed in any::<u64>()) {
        let b = Budget::unlimited();
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(4..=16);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let script = random_edit_script(
            &mut rng,
            &alg,
            &EditConfig { ops: 16, ..EditConfig::default() },
        );

        let roomy = Budget::unlimited().with_fuel(50_000_000);
        let starved = Budget::unlimited().with_fuel(rng.gen_range(1..=40));
        let mut incremental = Reasoner::new(&n);
        let mut live: Vec<CompiledDep> = Vec::new();
        for (step, op) in script.iter().enumerate() {
            match op {
                EditOp::Add(d) => {
                    incremental.add(d.decompile(&alg)).expect("generated Σ compiles");
                    live.push(d.clone());
                }
                EditOp::Remove(d) => {
                    prop_assert!(incremental
                        .remove(&d.decompile(&alg))
                        .expect("round-tripped deps compile"));
                    let i = live.iter().position(|have| have == d).expect("live");
                    live.remove(i);
                }
                EditOp::Query(d) => {
                    let dep = d.clone();
                    let want = from_scratch(&n, &alg, &live)
                        .implies(&dep, &b)
                        .expect("compiles");
                    prop_assert_eq!(
                        incremental.implies(&dep, &roomy).expect("roomy budget"),
                        want,
                        "step {}: governed verdict diverged",
                        step
                    );
                    match incremental.implies(&dep, &starved) {
                        Ok(got) => prop_assert_eq!(
                            got, want,
                            "step {}: starved budget returned a WRONG verdict",
                            step
                        ),
                        Err(ReasonerError::Resource(_)) => {}
                        Err(e) => prop_assert!(false, "step {step}: unexpected error {e}"),
                    }
                }
            }
        }
    }

    /// The reasoner's prepared `Σ` stays index-aligned with
    /// `compiled_sigma()` through adds, removals by value and by index,
    /// a clone, and a snapshot restore through `restore_parts`: every
    /// answer equals the free `implies` on the reasoner's own compiled
    /// `Σ`, and further edits on the clone and the restored reasoner
    /// keep it so.
    #[test]
    fn prepared_sigma_stays_in_sync(seed in any::<u64>()) {
        let b = Budget::unlimited();
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(4..=20);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let queries: Vec<CompiledDep> = (0..12)
            .map(|_| nalist::gen::sigma_gen::random_dep(&mut rng, &alg, 0.3, 0.5))
            .collect();
        let check = |r: &Reasoner, at: &str| -> Result<(), TestCaseError> {
            for q in &queries {
                let want = implies(r.algebra(), r.compiled_sigma(), q);
                prop_assert_eq!(r.implies(q, &b).expect("own universe"), want, "{}", at);
            }
            Ok(())
        };
        let edit = |r: &mut Reasoner, rng: &mut StdRng| match rng.gen_range(0..4) {
            0 | 1 => r.add_compiled(nalist::gen::sigma_gen::random_dep(rng, &alg, 0.3, 0.5)),
            2 if !r.compiled_sigma().is_empty() => {
                let sigma = r.compiled_sigma();
                let dep = sigma[rng.gen_range(0..sigma.len())].decompile(&alg);
                assert!(r.remove(&dep).expect("own dependency compiles"));
            }
            _ if !r.compiled_sigma().is_empty() => {
                r.remove_at(rng.gen_range(0..r.compiled_sigma().len()));
            }
            _ => {}
        };

        let mut r = Reasoner::new(&n);
        for step in 0..24 {
            edit(&mut r, &mut rng);
            if step % 4 == 3 {
                check(&r, &format!("original after edit {step}"))?;
            }
        }
        check(&r, "original")?;

        let mut cloned = r.clone();
        check(&cloned, "clone")?;
        let sigma: Vec<(u64, String)> = r
            .dep_ids()
            .iter()
            .zip(r.compiled_sigma())
            .map(|(&id, d)| (id, d.render(r.algebra())))
            .collect();
        let mut restored = Reasoner::restore_parts(
            &n,
            sigma,
            r.next_dep_id(),
            r.export_cache(),
            &b,
            std::sync::Arc::new(nalist::obs::NoopRecorder),
        )
        .expect("exported state restores");
        prop_assert_eq!(restored.compiled_sigma(), r.compiled_sigma());
        check(&restored, "restored")?;
        for step in 0..8 {
            edit(&mut cloned, &mut rng);
            edit(&mut restored, &mut rng);
            check(&cloned, &format!("clone after edit {step}"))?;
            check(&restored, &format!("restored after edit {step}"))?;
        }
    }
}
