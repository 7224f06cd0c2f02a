//! E-BASE1 / E-BASE2: Algorithm 5.1 against the naive enumeration of `Σ⁺`
//! (exponential) and against Beeri's classical relational algorithm.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nalist::deps::naive::{NaiveClosure, NaiveConfig};
use nalist::membership::beeri::{rel_dependency_basis, RelDep};
use nalist::prelude::*;
use nalist_bench::{flat_workload, run_closures};

fn naive_vs_algorithm(c: &mut Criterion) {
    let mut group = c.benchmark_group("naive_vs_algorithm");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    for width in [3usize, 4, 5] {
        let w = flat_workload(44, width, 3);
        group.bench_with_input(BenchmarkId::new("naive", width), &width, |b, _| {
            b.iter(|| {
                let cl = NaiveClosure::compute(&w.alg, &w.sigma, NaiveConfig::default()).unwrap();
                std::hint::black_box(cl.stats().derived)
            });
        });
        group.bench_with_input(BenchmarkId::new("algorithm51", width), &width, |b, _| {
            b.iter(|| std::hint::black_box(run_closures(&w)));
        });
    }
    group.finish();
}

fn beeri_vs_algorithm(c: &mut Criterion) {
    let mut group = c.benchmark_group("beeri_vs_algorithm");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    for width in [8usize, 16, 32] {
        let w = flat_workload(45, width, 8);
        let rel_sigma: Vec<RelDep> = w
            .sigma
            .iter()
            .map(|d| {
                let lhs = d.lhs.iter().fold(0u64, |m, a| m | (1 << a));
                let rhs = d.rhs.iter().fold(0u64, |m, a| m | (1 << a));
                match d.kind {
                    DepKind::Fd => RelDep::Fd { lhs, rhs },
                    DepKind::Mvd => RelDep::Mvd { lhs, rhs },
                }
            })
            .collect();
        let masks: Vec<u64> = w
            .queries
            .iter()
            .map(|q| q.iter().fold(0u64, |m, a| m | (1 << a)))
            .collect();
        group.bench_with_input(BenchmarkId::new("beeri_u64", width), &width, |b, _| {
            b.iter(|| {
                for &m in &masks {
                    std::hint::black_box(rel_dependency_basis(width, &rel_sigma, m).closure);
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("algorithm51", width), &width, |b, _| {
            b.iter(|| std::hint::black_box(run_closures(&w)));
        });
    }
    group.finish();
}

fn certified_vs_plain(c: &mut Criterion) {
    // E-CERT: instrumentation overhead of certificate emission
    let mut group = c.benchmark_group("certified_vs_plain");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    for atoms in [8usize, 16, 32] {
        let w = nalist_bench::nested_workload(7, atoms, 8);
        group.bench_with_input(BenchmarkId::new("plain", atoms), &atoms, |b, _| {
            b.iter(|| std::hint::black_box(run_closures(&w)));
        });
        group.bench_with_input(BenchmarkId::new("certified", atoms), &atoms, |b, _| {
            b.iter(|| {
                let mut acc = 0usize;
                for q in &w.queries {
                    acc += nalist::membership::certified_closure_and_basis(
                        &w.alg,
                        &w.sigma,
                        q,
                        &nalist::guard::Budget::unlimited(),
                    )
                    .expect("benchmark workloads certify cleanly")
                    .dag
                    .len();
                }
                std::hint::black_box(acc)
            });
        });
    }
    group.finish();
}

fn reference_vs_bitset(c: &mut Criterion) {
    // E-REF: the paper-literal SubB-set engine
    use nalist::membership::reference::{decompile_sigma, reference_closure_and_basis};
    let mut group = c.benchmark_group("reference_vs_bitset");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    for atoms in [6usize, 10, 14] {
        let w = nalist_bench::nested_workload(11, atoms, 4);
        let tree_sigma = decompile_sigma(&w.alg, &w.sigma);
        let n_attr = w.alg.attr().clone();
        let xs: Vec<_> = w.queries.iter().map(|q| w.alg.to_attr(q)).collect();
        group.bench_with_input(BenchmarkId::new("paper_literal", atoms), &atoms, |b, _| {
            b.iter(|| {
                let mut acc = 0usize;
                for x in &xs {
                    acc += reference_closure_and_basis(&n_attr, &tree_sigma, x)
                        .closure
                        .len();
                }
                std::hint::black_box(acc)
            });
        });
        group.bench_with_input(BenchmarkId::new("bitset", atoms), &atoms, |b, _| {
            b.iter(|| std::hint::black_box(run_closures(&w)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    naive_vs_algorithm,
    beeri_vs_algorithm,
    certified_vs_plain,
    reference_vs_bitset
);
criterion_main!(benches);
