//! # nalist-bench
//!
//! Shared workload builders and measurement helpers for the
//! `experiments` tables and the `perf_smoke` CI gate (see the
//! per-experiment index in DESIGN.md): the deterministic workloads both
//! consume, a median-of-runs timer, a log-log slope fit for empirical
//! complexity exponents, and the provenance stamp every `BENCH_*.json`
//! row carries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use nalist::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic closure workload: ambient algebra, `Σ`, and a list of
/// query left-hand sides.
pub struct Workload {
    /// The ambient attribute.
    pub attr: NestedAttr,
    /// Its algebra.
    pub alg: Algebra,
    /// The dependency set.
    pub sigma: Vec<CompiledDep>,
    /// LHS inputs for closure/dependency-basis queries.
    pub queries: Vec<AtomSet>,
}

/// Builds a nested workload with exactly `atoms` atoms and `sigma_count`
/// non-trivial dependencies, deterministic in `seed`.
pub fn nested_workload(seed: u64, atoms: usize, sigma_count: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let attr = nalist::gen::attr_with_atoms(&mut rng, atoms);
    let alg = Algebra::new(&attr);
    let sigma = nalist::gen::random_sigma(
        &mut rng,
        &alg,
        &nalist::gen::SigmaConfig {
            count: sigma_count,
            ..Default::default()
        },
    );
    let queries: Vec<AtomSet> = (0..8)
        .map(|_| nalist::gen::random_subattr(&mut rng, &alg, 0.3))
        .collect();
    Workload {
        attr,
        alg,
        sigma,
        queries,
    }
}

/// Builds a flat (relational) workload of the given width.
pub fn flat_workload(seed: u64, width: usize, sigma_count: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let attr = nalist::gen::flat_attr(width);
    let alg = Algebra::new(&attr);
    let sigma = nalist::gen::random_sigma(
        &mut rng,
        &alg,
        &nalist::gen::SigmaConfig {
            count: sigma_count,
            ..Default::default()
        },
    );
    let queries: Vec<AtomSet> = (0..8)
        .map(|_| nalist::gen::random_subattr(&mut rng, &alg, 0.3))
        .collect();
    Workload {
        attr,
        alg,
        sigma,
        queries,
    }
}

/// A deterministic incremental-edit workload: a [`Reasoner`] warm for a
/// pool of query left-hand sides, plus a non-trivial dependency to
/// `add`/`remove` — the unit of work the incremental-maintenance
/// benchmarks measure (re-query cost after a `Σ` edit, incremental vs
/// cache-clearing).
pub struct EditWorkload {
    /// Reasoner over the generated schema, `Σ` loaded, every LHS in
    /// `lhss` already queried (cache warm).
    pub reasoner: Reasoner,
    /// The query pool.
    pub lhss: Vec<AtomSet>,
    /// A narrow non-trivial FD to add and/or remove.
    pub edit: Dependency,
}

/// Builds an [`EditWorkload`] with exactly `atoms` atoms, `sigma_count`
/// dependencies and `lhs_count` warm query LHSs, deterministic in
/// `seed`.
pub fn incremental_edit_workload(
    seed: u64,
    atoms: usize,
    sigma_count: usize,
    lhs_count: usize,
) -> EditWorkload {
    let w = nested_workload(seed, atoms, sigma_count);
    let mut r = Reasoner::new(&w.attr);
    for d in &w.sigma {
        r.add(d.decompile(&w.alg)).expect("generated Σ compiles");
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let lhss: Vec<AtomSet> = (0..lhs_count)
        .map(|_| nalist::gen::random_subattr(&mut rng, &w.alg, 0.3))
        .collect();
    // anchor the edit's LHS inside the first pool entry so it
    // demonstrably fires there (selective eviction has real work to do),
    // with a fresh random RHS so most other cached bases survive —
    // realistic single-constraint churn touches a small part of the
    // schema
    let anchor = lhss.first().cloned().unwrap_or_else(|| w.alg.bottom_set());
    let fresh_edit = |rng: &mut StdRng| {
        CompiledDep::fd(
            w.alg
                .meet(&anchor, &nalist::gen::random_subattr(rng, &w.alg, 0.7)),
            nalist::gen::random_subattr(rng, &w.alg, 0.15),
        )
    };
    let mut edit = fresh_edit(&mut rng);
    for _ in 0..32 {
        if !edit.is_trivial(&w.alg) && !edit.lhs.is_empty() {
            break;
        }
        edit = fresh_edit(&mut rng);
    }
    let edit = edit.decompile(&w.alg);
    for x in &lhss {
        r.dependency_basis(x);
    }
    EditWorkload {
        reasoner: r,
        lhss,
        edit,
    }
}

/// An adversarial workload for the worst-case pass count of
/// Algorithm 5.1: a flat FD chain `A0 → A1, …, A{n-2} → A{n-1}` listed in
/// *reverse* order, so each REPEAT-UNTIL pass can absorb only one more
/// link when closing `{A0}` — forcing `Θ(|N|)` passes of `Θ(|Σ|)` steps.
pub fn chain_workload(atoms: usize) -> Workload {
    let attr = nalist::gen::flat_attr(atoms);
    let alg = Algebra::new(&attr);
    let mut sigma = Vec::with_capacity(atoms.saturating_sub(1));
    for i in (0..atoms - 1).rev() {
        let mut lhs = alg.bottom_set();
        lhs.insert(i);
        let mut rhs = alg.bottom_set();
        rhs.insert(i + 1);
        sigma.push(CompiledDep::fd(lhs, rhs));
    }
    let mut x = alg.bottom_set();
    x.insert(0);
    Workload {
        attr,
        alg,
        sigma,
        queries: vec![x],
    }
}

/// Runs every query's closure + dependency basis once (the unit of work
/// all scaling benches measure), on the default (worklist) engine.
pub fn run_closures(w: &Workload) -> usize {
    let mut acc = 0usize;
    for q in &w.queries {
        let b = closure_and_basis(&w.alg, &w.sigma, q);
        acc += b.closure.count() + b.blocks.len();
    }
    acc
}

/// The same unit of work as [`run_closures`], through the observed
/// worklist entry point. With the no-op recorder this measures the
/// observability seam's disabled-path overhead (expected: none); with a
/// [`nalist::obs::MetricsRecorder`] the recorder's counters afterwards
/// hold machine-independent work totals (worklist steps, dependencies
/// fired) for the whole workload.
pub fn run_closures_observed(w: &Workload, rec: &dyn nalist::obs::Recorder) -> usize {
    let budget = Budget::unlimited();
    let mut acc = 0usize;
    for q in &w.queries {
        let run = nalist::membership::closure_and_basis_run(&w.alg, &w.sigma, q, &budget, rec)
            .expect("workload queries are downward closed and the budget unlimited");
        acc += run.basis.closure.count() + run.basis.blocks.len();
    }
    acc
}

/// The same unit of work as [`run_closures`], on the paper-faithful pass
/// engine — the baseline the worklist engine is measured against.
pub fn run_closures_paper(w: &Workload) -> usize {
    let mut acc = 0usize;
    for q in &w.queries {
        let b = nalist::membership::closure_and_basis_paper(&w.alg, &w.sigma, q);
        acc += b.closure.count() + b.blocks.len();
    }
    acc
}

/// Median wall-clock time of `runs` executions of `f`, in nanoseconds.
pub fn median_nanos(runs: usize, mut f: impl FnMut()) -> u128 {
    assert!(runs >= 1);
    let mut samples: Vec<u128> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The 25th, 50th and 75th percentiles of `samples` (nearest rank).
pub fn quartiles(mut samples: Vec<u128>) -> [u128; 3] {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    let last = samples.len() - 1;
    [last / 4, last / 2, last * 3 / 4].map(|i| samples[i])
}

/// Where a measurement was taken: the CPUs visible to this process and
/// the source revision it was built from.
pub struct Provenance {
    /// `std::thread::available_parallelism()`, 1 when unknown.
    pub cpus: usize,
    /// `git describe --always --dirty` of the current directory, or
    /// `"unknown"` outside a git checkout.
    pub commit: String,
}

impl Provenance {
    /// Reads both fields from the running process.
    pub fn current() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let commit = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        Provenance { cpus, commit }
    }

    /// The two fields as JSON object members, for splicing into a row:
    /// `"cpus": 2, "commit": "abc1234"`.
    pub fn json_fields(&self) -> String {
        format!("\"cpus\": {}, \"commit\": \"{}\"", self.cpus, self.commit)
    }
}

/// Least-squares slope of `ln(y)` against `ln(x)` — the empirical
/// complexity exponent of a measurement series.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2);
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Formats nanoseconds human-readably.
pub fn fmt_nanos(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let a = nested_workload(1, 12, 4);
        let b = nested_workload(1, 12, 4);
        assert_eq!(a.attr, b.attr);
        assert_eq!(a.sigma, b.sigma);
        assert_eq!(run_closures(&a), run_closures(&b));
    }

    #[test]
    fn edit_workload_is_warm_and_deterministic() {
        let a = incremental_edit_workload(10, 16, 8, 6);
        let b = incremental_edit_workload(10, 16, 8, 6);
        assert_eq!(a.edit, b.edit);
        assert_eq!(a.lhss, b.lhss);
        // warm: re-querying the pool on a fresh-counter clone is all hits
        let warm = a.reasoner.clone();
        for x in &a.lhss {
            warm.dependency_basis(x);
        }
        let stats = warm.cache_stats();
        assert_eq!(stats.misses, 0, "pool was not warm");
        assert_eq!(stats.hits, a.lhss.len() as u64);
    }

    #[test]
    fn observed_runner_matches_plain_and_counts_deterministically() {
        use nalist::obs::{noop, Counter, MetricsRecorder};
        let w = nested_workload(7, 32, 16);
        assert_eq!(run_closures(&w), run_closures_observed(&w, noop()));
        let (a, b) = (MetricsRecorder::new(), MetricsRecorder::new());
        assert_eq!(run_closures(&w), run_closures_observed(&w, &a));
        run_closures_observed(&w, &b);
        for c in [Counter::WorklistSteps, Counter::DepsFired] {
            assert_eq!(a.counter(c), b.counter(c), "{} not deterministic", c.name());
        }
        assert!(a.counter(Counter::WorklistSteps) > 0);
        // every link of the FD chain fires when closing {A0}
        let chain = chain_workload(16);
        let rec = MetricsRecorder::new();
        run_closures_observed(&chain, &rec);
        assert_eq!(rec.counter(Counter::DepsFired), 15);
    }

    #[test]
    fn slope_of_cubic_is_three() {
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|i| (i as f64, (i as f64).powi(3) * 7.0))
            .collect();
        let s = loglog_slope(&pts);
        assert!((s - 3.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn fmt_nanos_ranges() {
        assert_eq!(fmt_nanos(500), "500 ns");
        assert_eq!(fmt_nanos(2_500), "2.50 µs");
        assert_eq!(fmt_nanos(2_500_000), "2.50 ms");
        assert_eq!(fmt_nanos(2_500_000_000), "2.50 s");
    }

    #[test]
    fn provenance_fields_are_json_members() {
        let p = Provenance {
            cpus: 2,
            commit: "abc1234".to_string(),
        };
        assert_eq!(p.json_fields(), r#""cpus": 2, "commit": "abc1234""#);
        assert!(Provenance::current().cpus >= 1);
    }

    #[test]
    fn quartiles_are_nearest_rank_on_unsorted_input() {
        assert_eq!(quartiles(vec![5, 1, 4, 2, 3]), [2, 3, 4]);
        assert_eq!(quartiles(vec![7]), [7, 7, 7]);
    }

    #[test]
    fn median_is_stable() {
        let mut calls = 0;
        let m = median_nanos(5, || calls += 1);
        assert_eq!(calls, 5);
        assert!(m > 0);
    }
}
