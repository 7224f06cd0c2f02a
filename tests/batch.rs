//! Parallel batch determinism.
//!
//! `Reasoner::implies_batch` plans its items into one group per distinct
//! left-hand side, and its workers claim those groups from one shared
//! cursor. Which worker runs a group, and when, is nondeterministic; the
//! *results* must not be. These tests pin that contract: identical
//! verdicts, per-item errors and panic confinement across thread counts
//! and repeated runs, and the planner's one-compute-per-distinct-LHS
//! cache invariant at every thread count.

use std::num::NonZeroUsize;
use std::sync::Arc;

use nalist::guard::{Budget, FailAction, FailPoint};
use nalist::obs::{Counter, MetricsRecorder};
use nalist::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn threads(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

/// Runs `f` with the default panic hook silenced, so intentionally
/// injected panics don't spray backtraces over test output.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// A reasoner over a mid-sized universe with a query mix that reuses
/// left-hand sides (warm + cold groups in one plan).
fn workload(
    atoms: usize,
    sigma: usize,
    queries: usize,
    pool: usize,
) -> (Reasoner, Vec<CompiledDep>) {
    let mut rng = StdRng::seed_from_u64(42);
    let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
    let alg = Algebra::new(&n);
    let deps = nalist::gen::random_sigma(
        &mut rng,
        &alg,
        &nalist::gen::SigmaConfig {
            count: sigma,
            ..Default::default()
        },
    );
    let mut r = Reasoner::new(&n);
    for d in &deps {
        r.add_compiled(d.clone());
    }
    let lhs_pool: Vec<AtomSet> = (0..pool)
        .map(|_| nalist::gen::random_subattr(&mut rng, &alg, 0.3))
        .collect();
    let queries = (0..queries)
        .map(|i| {
            let lhs = lhs_pool[i % lhs_pool.len()].clone();
            let rhs = nalist::gen::random_subattr(&mut rng, &alg, 0.3);
            if i % 3 == 0 {
                CompiledDep::fd(lhs, rhs)
            } else {
                CompiledDep::mvd(lhs, rhs)
            }
        })
        .collect();
    (r, queries)
}

/// Batch verdicts are identical across thread counts and across
/// repeated runs at the same thread count, warm or cold cache.
#[test]
fn verdicts_identical_across_thread_counts_and_runs() {
    let b = Budget::unlimited();
    let (r, queries) = workload(80, 24, 96, 12);
    let baseline = r
        .clone()
        .implies_batch(&queries, &b, threads(1))
        .expect("queries compile");
    for t in [1usize, 2, 8] {
        for run in 0..2 {
            // fresh clone: cold cache each time
            let cold = r
                .clone()
                .implies_batch(&queries, &b, threads(t))
                .expect("queries compile");
            assert_eq!(cold, baseline, "cold cache, threads = {t}, run = {run}");
        }
        // warm cache: same reasoner queried twice
        let warm_r = r.clone();
        warm_r
            .implies_batch(&queries, &b, threads(t))
            .expect("queries compile");
        let warm = warm_r
            .implies_batch(&queries, &b, threads(t))
            .expect("queries compile");
        assert_eq!(warm, baseline, "warm cache, threads = {t}");
    }
}

/// One Algorithm 5.1 run per distinct LHS, no matter how many workers
/// share the groups.
#[test]
fn cache_misses_equal_distinct_lhss_at_every_thread_count() {
    let b = Budget::unlimited();
    for t in [1usize, 2, 8] {
        let (r, queries) = workload(80, 24, 96, 12);
        let fresh = r.clone();
        fresh
            .implies_batch(&queries, &b, threads(t))
            .expect("queries compile");
        let stats = fresh.cache_stats();
        assert_eq!(stats.misses, 12, "threads = {t}: one miss per distinct LHS");
        assert_eq!(stats.entries, 12, "threads = {t}");
    }
}

/// Batch counters are recorded when observability is on: the effective
/// worker count once per batch, and every query exactly once.
#[test]
fn batch_counters_account_for_every_query() {
    let b = Budget::unlimited();
    let (r, queries) = workload(80, 24, 96, 12);
    for t in [2usize, 8] {
        let rec = Arc::new(MetricsRecorder::new());
        let fresh = r.clone().with_recorder(rec.clone());
        fresh
            .implies_batch(&queries, &b, threads(t))
            .expect("queries compile");
        // 12 cold groups (nothing cached), each computed exactly once
        assert_eq!(rec.counter(Counter::CacheMisses), 12, "threads = {t}");
        assert_eq!(
            rec.counter(Counter::BatchThreads),
            t as u64,
            "threads = {t}"
        );
        assert_eq!(rec.counter(Counter::BatchQueries), 96, "threads = {t}");
    }
}

/// Panic confinement is per-item and deterministic in *which* items it
/// can affect: under an injected panic on the first closure run, the
/// failing group's members report `Panicked` while every other item
/// still answers — at any thread count.
#[test]
fn injected_panic_stays_confined_at_every_thread_count() {
    let (r, queries) = workload(80, 24, 24, 4);
    for t in [1usize, 2, 8] {
        let fresh = r.clone();
        let budget = Budget::unlimited().with_failpoint(FailPoint::nth(
            "membership::closure",
            1,
            FailAction::Panic,
        ));
        let verdicts = quiet_panics(|| {
            fresh
                .implies_batch(&queries, &budget, threads(t))
                .expect("batch itself survives an item panic")
        });
        let panicked = verdicts
            .iter()
            .filter(|v| matches!(v, Err(QueryError::Panicked { .. })))
            .count();
        let answered = verdicts.iter().filter(|v| v.is_ok()).count();
        assert!(
            panicked >= 1,
            "threads = {t}: the injected panic must surface as QueryError::Panicked"
        );
        assert_eq!(
            panicked + answered,
            verdicts.len(),
            "threads = {t}: every item either answered or reported its panic"
        );
        // with 4 distinct LHSs and members spread round-robin, the
        // non-panicking groups must still have answered
        assert!(
            answered >= verdicts.len() / 2,
            "threads = {t}: panic confinement leaked past one group \
             ({answered} answered of {})",
            verdicts.len()
        );
    }
}
