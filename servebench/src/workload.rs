//! The three workloads and everything generated from a seed: tenant
//! schemas, Σ, churn dependencies, query pools and the per-connection
//! operation schedules.
//!
//! The server only ever sees the rendered texts; the compiled forms
//! stay in the harness for the in-process oracle.

use std::collections::HashSet;
use std::time::Duration;

use nalist_algebra::{Algebra, AtomSet};
use nalist_deps::CompiledDep;
use nalist_gen::attr_with_atoms;
use nalist_gen::sigma_gen::random_dep;
use nalist_types::json::escape;
use nalist_types::NestedAttr;
use rand::prelude::*;

/// Load threads, and keep-alive connections, driving the leader.
pub const CONNS: usize = 2;

/// Leader worker threads. Each load connection pins one worker for the
/// whole run; a follower's WAL long-poll pins another for up to its
/// poll wait, and its discovery polls and the harness's own side
/// requests (`/sigma`, `/metrics`) take short-lived ones.
pub const LEADER_WORKERS: usize = 6;

/// Follower worker threads (only the harness's checks read from it).
pub const FOLLOWER_WORKERS: usize = 2;

/// Static shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub tenants: usize,
    pub atoms: usize,
    /// Dependencies each tenant is created with.
    pub sigma: usize,
    /// Dependencies the edit traffic adds and removes.
    pub churn: usize,
    /// Query pool per tenant; `0` means every query is fresh.
    pub pool: usize,
    /// Offered load of the open-loop window, requests per second.
    pub rps: f64,
    /// Share of window requests that are edits.
    pub edit_ratio: f64,
    /// `--wal-dir` (fsync per record) on the leader.
    pub durable: bool,
    /// One `--follow` replica of the leader.
    pub follower: bool,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "read_hot",
        tenants: 3,
        atoms: 10,
        sigma: 32,
        churn: 0,
        pool: 64,
        rps: 2_000.0,
        edit_ratio: 0.0,
        durable: false,
        follower: false,
    },
    Spec {
        name: "read_cold_wide",
        tenants: 1,
        atoms: 256,
        sigma: 128,
        churn: 0,
        pool: 0,
        rps: 200.0,
        edit_ratio: 0.0,
        durable: false,
        follower: false,
    },
    Spec {
        name: "churn_durable",
        tenants: 1,
        atoms: 64,
        sigma: 32,
        churn: 32,
        pool: 64,
        rps: 300.0,
        edit_ratio: 0.3,
        durable: true,
        follower: true,
    },
];

/// Zipf exponent of pool selection.
const ZIPF_S: f64 = 1.1;

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// One generated dependency: its wire text and its compiled form.
#[derive(Debug, Clone)]
pub struct Dep {
    pub text: String,
    pub compiled: CompiledDep,
}

/// One tenant's generated material.
#[derive(Debug)]
pub struct Tenant {
    pub name: String,
    pub attr: NestedAttr,
    pub alg: Algebra,
    pub sigma: Vec<Dep>,
    /// Edit targets; connection `c` owns the indices `i % CONNS == c`.
    pub churn: Vec<Dep>,
    /// Query pool (empty for fresh-LHS workloads).
    pub pool: Vec<Dep>,
}

impl Tenant {
    pub fn create_body(&self) -> String {
        let deps: Vec<String> = self.sigma.iter().map(|d| escape(&d.text)).collect();
        format!(
            "{{\"schema\": {}, \"deps\": [{}]}}",
            escape(&self.attr.to_string()),
            deps.join(", ")
        )
    }
}

/// What an operation asks, kept for the oracle and the layer replay.
#[derive(Debug, Clone)]
pub enum Kind {
    /// `Σ ⊨ query?` against `tenant`.
    Query { tenant: usize, query: Dep },
    /// Add (`add == true`) or remove churn dependency `index`.
    Edit {
        tenant: usize,
        index: usize,
        add: bool,
    },
}

/// One request of a schedule.
#[derive(Debug, Clone)]
pub struct Op {
    /// Identifies the op in samples and spans.
    pub id: u64,
    /// When it is due, from the start of its phase.
    pub due: Duration,
    pub target: String,
    pub body: String,
    pub kind: Kind,
}

impl Op {
    pub fn is_edit(&self) -> bool {
        matches!(self.kind, Kind::Edit { .. })
    }
}

/// Everything a run needs, generated from `(workload, seed)`.
#[derive(Debug)]
pub struct Generated {
    pub spec: Spec,
    pub tenants: Vec<Tenant>,
    /// Warm-up queries sent during set-up (part of `setup_s`).
    pub warmup: Vec<Op>,
    /// Open-loop window, one schedule per connection.
    pub window: Vec<Vec<Op>>,
    /// Closed-loop phase, one op list per connection, sent back to back
    /// until the phase ends.
    pub closed: Vec<Vec<Op>>,
}

struct Gen<'a> {
    tenants: &'a [Tenant],
    spec: Spec,
    rng: StdRng,
    zipf: Vec<f64>,
    /// LHSs already handed out, so fresh-LHS workloads never repeat one.
    seen_lhs: HashSet<AtomSet>,
    next_id: u64,
}

impl Gen<'_> {
    fn query(&mut self) -> Op {
        let tenant = self.rng.gen_range(0..self.tenants.len());
        let t = &self.tenants[tenant];
        let query = if self.spec.pool == 0 {
            fresh_dep(&mut self.rng, &t.alg, &mut self.seen_lhs)
        } else {
            t.pool[zipf_pick(&mut self.rng, &self.zipf, t.pool.len())].clone()
        };
        // Fresh queries are rendered later, in parallel (`render_fresh`).
        let body = if query.text.is_empty() {
            String::new()
        } else {
            format!("{{\"query\": {}}}", escape(&query.text))
        };
        self.op(
            format!("/v1/{}/query", t.name),
            body,
            Kind::Query { tenant, query },
        )
    }

    fn edit(&mut self, tenant: usize, index: usize, add: bool) -> Op {
        let t = &self.tenants[tenant];
        let body = format!(
            "{{\"op\": \"{}\", \"dep\": {}}}",
            if add { "add" } else { "remove" },
            escape(&t.churn[index].text)
        );
        self.op(
            format!("/v1/{}/edit", t.name),
            body,
            Kind::Edit { tenant, index, add },
        )
    }

    fn op(&mut self, target: String, body: String, kind: Kind) -> Op {
        self.next_id += 1;
        Op {
            id: self.next_id,
            due: Duration::ZERO,
            target,
            body,
            kind,
        }
    }
}

/// A dependency whose LHS has never been generated before; its text is
/// left empty for `render_fresh`.
fn fresh_dep(rng: &mut StdRng, alg: &Algebra, seen: &mut HashSet<AtomSet>) -> Dep {
    loop {
        let c = random_dep(rng, alg, 0.3, 0.3);
        if seen.insert(c.lhs.clone()) {
            return Dep {
                text: String::new(),
                compiled: c,
            };
        }
    }
}

/// Renders the fresh queries' texts and bodies, split over two threads:
/// at |N| = 256 rendering dominates generation.
fn render_fresh(tenants: &[Tenant], ops: Vec<&mut Op>) {
    let mut ops = ops;
    let half = ops.len() / 2;
    let (a, b) = ops.split_at_mut(half);
    let render = |part: &mut [&mut Op]| {
        for op in part {
            if let Kind::Query { tenant, query } = &mut op.kind {
                query.text = query.compiled.render(&tenants[*tenant].alg);
                op.body = format!("{{\"query\": {}}}", escape(&query.text));
            }
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| render(a));
        render(b);
    });
}

/// A pool index drawn by the cumulative zipf weights `zipf`.
fn zipf_pick(rng: &mut StdRng, zipf: &[f64], pool: usize) -> usize {
    let total = *zipf.last().expect("non-empty pool");
    let u = rng.gen_range(0.0..total);
    zipf.partition_point(|&c| c < u).min(pool - 1)
}

/// `n` churn dependencies aimed at the pool's cached bases: each takes
/// the LHS of a pool query drawn by the same zipf weights as the reads,
/// and a random RHS. Such a dependency is applicable at that query's
/// basis, so adding it evicts the cached entry when its step would
/// change the basis, and removing it evicts the entries it fired in.
/// Non-trivial, pairwise distinct and distinct from `taken`.
fn churn_deps(
    rng: &mut StdRng,
    alg: &Algebra,
    pool: &[Dep],
    zipf: &[f64],
    n: usize,
    taken: &mut Vec<CompiledDep>,
) -> Vec<Dep> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let lhs = &pool[zipf_pick(rng, zipf, pool.len())].compiled.lhs;
        let r = random_dep(rng, alg, 0.3, 0.3);
        let c = CompiledDep {
            kind: r.kind,
            lhs: lhs.clone(),
            rhs: r.rhs,
        };
        if c.is_trivial(alg) || taken.contains(&c) {
            continue;
        }
        taken.push(c.clone());
        out.push(Dep {
            text: c.render(alg),
            compiled: c,
        });
    }
    out
}

/// `n` dependencies, pairwise distinct and distinct from `taken`.
fn distinct_deps(
    rng: &mut StdRng,
    alg: &Algebra,
    n: usize,
    taken: &mut Vec<CompiledDep>,
) -> Vec<Dep> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let c = random_dep(rng, alg, 0.3, 0.3);
        if taken.contains(&c) {
            continue;
        }
        taken.push(c.clone());
        out.push(Dep {
            text: c.render(alg),
            compiled: c,
        });
    }
    out
}

/// Poisson arrival times at `rate` per second: `n` of them, or all
/// that fall before `until`.
fn poisson(rng: &mut StdRng, rate: f64, n: usize, until: Duration) -> Vec<Duration> {
    let mut at = Duration::ZERO;
    let mut out = Vec::new();
    while out.len() < n {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        at += Duration::from_secs_f64(-u.ln() / rate);
        if at >= until {
            break;
        }
        out.push(at);
    }
    out
}

/// Generates the whole run. `window` is the open-loop window length and
/// `closed_cap` bounds the ops prepared per closed-loop connection.
pub fn generate(spec: Spec, seed: u64, window: Duration, closed_cap: usize) -> Generated {
    let mut rng = StdRng::seed_from_u64(seed ^ name_hash(spec.name));
    let mut zipf = Vec::with_capacity(spec.pool);
    let mut acc = 0.0;
    for k in 1..=spec.pool.max(1) {
        acc += 1.0 / (k as f64).powf(ZIPF_S);
        zipf.push(acc);
    }
    let tenants: Vec<Tenant> = (0..spec.tenants)
        .map(|t| {
            let attr = attr_with_atoms(&mut rng, spec.atoms);
            let alg = Algebra::new(&attr);
            let mut taken = Vec::new();
            let sigma = distinct_deps(&mut rng, &alg, spec.sigma, &mut taken);
            let pool: Vec<Dep> = (0..spec.pool)
                .map(|_| {
                    let c = random_dep(&mut rng, &alg, 0.3, 0.3);
                    Dep {
                        text: c.render(&alg),
                        compiled: c,
                    }
                })
                .collect();
            let churn = churn_deps(&mut rng, &alg, &pool, &zipf, spec.churn, &mut taken);
            Tenant {
                name: format!("t{t}"),
                attr,
                alg,
                sigma,
                churn,
                pool,
            }
        })
        .collect();
    let mut g = Gen {
        tenants: &tenants,
        spec,
        rng: StdRng::seed_from_u64(rng.next_u64()),
        zipf,
        seen_lhs: HashSet::new(),
        next_id: 0,
    };

    // Warm-up: every pool query once, or a few fresh ones.
    let mut warmup = Vec::new();
    for (ti, t) in tenants.iter().enumerate() {
        if spec.pool > 0 {
            for q in &t.pool {
                let body = format!("{{\"query\": {}}}", escape(&q.text));
                let op = g.op(
                    format!("/v1/{}/query", t.name),
                    body,
                    Kind::Query {
                        tenant: ti,
                        query: q.clone(),
                    },
                );
                warmup.push(op);
            }
        } else {
            for _ in 0..16 {
                warmup.push(g.query());
            }
        }
    }

    // Per-connection churn state: connection c owns churn indices
    // `c, c + CONNS, …`, so its adds and removes alternate per index.
    let mut added = vec![vec![false; tenants[0].churn.len()]; tenants.len()];
    let per_conn = spec.rps / CONNS as f64;
    let mut window_ops = Vec::new();
    for c in 0..CONNS {
        let mut srng = StdRng::seed_from_u64(g.rng.next_u64());
        let dues = poisson(&mut srng, per_conn, usize::MAX, window);
        let ops = dues
            .into_iter()
            .map(|due| Op {
                due,
                ..next_op(&mut g, &mut added, c)
            })
            .collect();
        window_ops.push(ops);
    }

    let closed = (0..CONNS)
        .map(|c| {
            (0..closed_cap)
                .map(|_| next_op(&mut g, &mut added, c))
                .collect()
        })
        .collect();
    let mut closed: Vec<Vec<Op>> = closed;
    let fresh: Vec<&mut Op> = warmup
        .iter_mut()
        .chain(window_ops.iter_mut().flatten())
        .chain(closed.iter_mut().flatten())
        .filter(|op| op.body.is_empty())
        .collect();
    render_fresh(&tenants, fresh);
    Generated {
        spec,
        tenants,
        warmup,
        window: window_ops,
        closed,
    }
}

/// The next op of connection `c`'s mix: an edit with probability
/// `edit_ratio` (toggling one of its own churn dependencies), else a
/// query.
fn next_op(g: &mut Gen<'_>, added: &mut [Vec<bool>], c: usize) -> Op {
    if g.spec.edit_ratio > 0.0 && g.rng.gen_bool(g.spec.edit_ratio) {
        let tenant = g.rng.gen_range(0..g.tenants.len());
        let owned = (g.tenants[tenant].churn.len() + CONNS - 1 - c) / CONNS;
        let index = c + g.rng.gen_range(0..owned) * CONNS;
        let add = !added[tenant][index];
        added[tenant][index] = add;
        g.edit(tenant, index, add)
    } else {
        g.query()
    }
}

/// FNV-1a, so each workload draws a different stream from one seed.
fn name_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
