//! E-THM64a / E-THM64b: Algorithm 5.1 running time as `|N|` and `|Σ|`
//! sweep (Theorem 6.4 claims `O(|N|⁴ · |Σ|)`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nalist::prelude::*;
use nalist_bench::{flat_workload, nested_workload, run_closures, run_closures_paper};

fn scaling_in_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("closure_vs_atoms");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    for atoms in [8usize, 16, 32, 64, 128] {
        let w = nested_workload(42, atoms, 8);
        group.throughput(Throughput::Elements(w.queries.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(atoms), &atoms, |b, _| {
            b.iter(|| std::hint::black_box(run_closures(&w)));
        });
    }
    group.finish();
}

fn scaling_in_sigma(c: &mut Criterion) {
    let mut group = c.benchmark_group("closure_vs_sigma");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    for count in [2usize, 4, 8, 16, 32, 64] {
        let w = nested_workload(43, 32, count);
        group.throughput(Throughput::Elements(w.queries.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(count), &count, |b, _| {
            b.iter(|| std::hint::black_box(run_closures(&w)));
        });
    }
    group.finish();
}

fn flat_vs_nested(c: &mut Criterion) {
    // ablation: list-heavy vs flat schemas of the same |N|
    let mut group = c.benchmark_group("closure_flat_vs_nested");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    for atoms in [16usize, 64] {
        let flat = flat_workload(44, atoms, 8);
        let nested = nested_workload(44, atoms, 8);
        group.bench_with_input(BenchmarkId::new("flat", atoms), &atoms, |b, _| {
            b.iter(|| std::hint::black_box(run_closures(&flat)));
        });
        group.bench_with_input(BenchmarkId::new("nested", atoms), &atoms, |b, _| {
            b.iter(|| std::hint::black_box(run_closures(&nested)));
        });
    }
    group.finish();
}

fn engine_comparison(c: &mut Criterion) {
    // the worklist engine vs the paper-order pass engine on the same work
    let mut group = c.benchmark_group("closure_engine");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    for atoms in [16usize, 64, 128] {
        let w = nested_workload(42, atoms, 32);
        group.throughput(Throughput::Elements(w.queries.len() as u64));
        group.bench_with_input(BenchmarkId::new("worklist", atoms), &atoms, |b, _| {
            b.iter(|| std::hint::black_box(run_closures(&w)));
        });
        group.bench_with_input(BenchmarkId::new("pass", atoms), &atoms, |b, _| {
            b.iter(|| std::hint::black_box(run_closures_paper(&w)));
        });
    }
    group.finish();
}

fn batch_throughput(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut group = c.benchmark_group("implies_batch");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    let w = nested_workload(8, 64, 32);
    let mut reasoner = Reasoner::new(&w.attr);
    for d in &w.sigma {
        reasoner.add_compiled(d.clone());
    }
    let mut rng = StdRng::seed_from_u64(9);
    let queries: Vec<CompiledDep> = (0..128)
        .map(|_| nalist::gen::random_dep(&mut rng, &w.alg, 0.35, 0.4))
        .collect();
    group.throughput(Throughput::Elements(queries.len() as u64));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                // fresh clone: each iteration answers from a cold cache
                let fresh = reasoner.clone();
                let verdicts = fresh
                    .implies_batch(
                        &queries,
                        &Budget::unlimited(),
                        std::num::NonZeroUsize::new(t).unwrap(),
                    )
                    .expect("queries compile");
                std::hint::black_box(verdicts.len())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    scaling_in_n,
    scaling_in_sigma,
    flat_vs_nested,
    engine_comparison,
    batch_throughput
);
criterion_main!(benches);
