//! Correctness: every served verdict against an in-process oracle built
//! from the same Σ, and the servers' final state against the edits that
//! were acknowledged.
//!
//! The oracle is the engine's uncached `membership::implies` on the
//! compiled Σ, so it shares neither the server's text resolution nor its
//! basis cache. Read-only workloads have one exact oracle per tenant.
//! Under churn a query races the edits, so its verdict is bracketed by monotonicity:
//! if Σ_seed ⊨ q the answer must be `true`, and if Σ_seed ∪ churn ⊭ q
//! it must be `false`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use nalist_check::{Certificate, Verdict};
use nalist_deps::{CompiledDep, Dependency};
use nalist_guard::Budget;
use nalist_membership::implies;
use nalist_types::json::{parse as parse_json, Json};

use crate::load::Sample;
use crate::net::once;
use crate::workload::{Generated, Kind, Op};
use crate::{Servers, Tally};

/// Follower certificates checked per run.
const CERT_SAMPLE: usize = 8;

pub struct Oracle {
    /// Σ_seed per tenant.
    lo: Vec<Vec<CompiledDep>>,
    /// Σ_seed ∪ churn per tenant, on workloads whose window edits.
    hi: Option<Vec<Vec<CompiledDep>>>,
}

impl Oracle {
    pub fn new(g: &Generated) -> Oracle {
        let lo = g
            .tenants
            .iter()
            .map(|t| t.sigma.iter().map(|d| d.compiled.clone()).collect())
            .collect();
        let hi = (g.spec.edit_ratio > 0.0).then(|| {
            g.tenants
                .iter()
                .map(|t| {
                    t.sigma
                        .iter()
                        .chain(&t.churn)
                        .map(|d| d.compiled.clone())
                        .collect()
                })
                .collect()
        });
        Oracle { lo, hi }
    }

    /// Checks every query answer.
    pub fn check_queries(&self, g: &Generated, queries: &[(&Op, &Sample)], tally: &mut Tally) {
        let asked: Vec<(usize, &CompiledDep)> = queries
            .iter()
            .filter_map(|(op, _)| match &op.kind {
                Kind::Query { tenant, query } => Some((*tenant, &query.compiled)),
                Kind::Edit { .. } => None,
            })
            .collect();
        let lo = verdicts(g, &self.lo, &asked);
        let hi = self.hi.as_ref().map(|hi| verdicts(g, hi, &asked));
        let answered = queries.iter().filter(|(op, _)| !op.is_edit());
        for (i, (op, s)) in answered.enumerate() {
            let got = (s.status == 200)
                .then(|| parse_json(&s.body).ok()?.get("implied")?.as_bool())
                .flatten();
            let ok = match (got, &hi) {
                (None, _) => false,
                (Some(b), None) => b == lo[i],
                (Some(b), Some(hi)) => (!lo[i] || b) && (hi[i] || !b),
            };
            tally.check(ok, || {
                format!(
                    "query op {} ({}): HTTP {} {:?}, oracle says {}",
                    op.id,
                    op.body,
                    s.status,
                    s.body.trim(),
                    lo[i]
                )
            });
        }
    }

    /// Compares the leader's Σ (and the follower's, once caught up)
    /// with the Σ the acknowledged edits imply, and runs a sample of
    /// follower certificates through the independent checker. Returns
    /// the follower's catch-up time in milliseconds.
    pub fn check_final_state(
        &self,
        g: &Generated,
        servers: &Servers,
        edits: &[(&Op, &Sample)],
        tally: &mut Tally,
    ) -> Result<Option<f64>, String> {
        let mut present: Vec<Vec<bool>> = g
            .tenants
            .iter()
            .map(|t| vec![false; t.churn.len()])
            .collect();
        for (op, s) in edits {
            if let (Kind::Edit { tenant, index, add }, 200) = (&op.kind, s.status) {
                present[*tenant][*index] = *add;
            }
        }
        let t0 = Instant::now();
        let mut catchup = None;
        for (ti, t) in g.tenants.iter().enumerate() {
            let target = format!("/v1/{}/sigma", t.name);
            let (status, leader) = once(&servers.leader.addr, "GET", &target, "")
                .map_err(|e| format!("{target}: {e}"))?;
            let mut expected: Vec<&CompiledDep> = t.sigma.iter().map(|d| &d.compiled).collect();
            expected.extend(
                t.churn
                    .iter()
                    .zip(&present[ti])
                    .filter(|(_, p)| **p)
                    .map(|(d, _)| &d.compiled),
            );
            let listed = sigma_texts(&leader);
            let got = compile_all(g, ti, &listed);
            let mut want: Vec<CompiledDep> = expected.iter().map(|d| (*d).clone()).collect();
            want.sort();
            tally.check(status == 200 && got.as_ref() == Some(&want), || {
                format!(
                    "leader Σ of {} differs from the acknowledged edits ({} listed, {} expected)",
                    t.name,
                    listed.len(),
                    want.len()
                )
            });
            let Some(f) = &servers.follower else { continue };
            let mut same = false;
            while t0.elapsed() < Duration::from_secs(30) {
                if let Ok((200, body)) = once(&f.addr, "GET", &target, "") {
                    if sigma_prefix(&body) == sigma_prefix(&leader) {
                        same = true;
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            catchup = Some(t0.elapsed().as_secs_f64() * 1e3);
            tally.check(same, || {
                format!(
                    "follower Σ of {} never became byte-identical to the leader's",
                    t.name
                )
            });
            let exact: Vec<CompiledDep> = expected.iter().map(|d| (*d).clone()).collect();
            let schema = t.attr.to_string();
            let deps_src = listed.join("\n");
            let mut seen = Vec::new();
            for q in &t.pool {
                if seen.len() == CERT_SAMPLE {
                    break;
                }
                if seen.contains(&&q.text) {
                    continue;
                }
                seen.push(&q.text);
                let want = implies(&t.alg, &exact, &q.compiled);
                let path = format!("/v1/{}/cert?dep={}", t.name, percent_encode(&q.text));
                let verdict = once(&f.addr, "GET", &path, "")
                    .ok()
                    .and_then(|(status, body)| {
                        if status != 200 {
                            return None;
                        }
                        let src = parse_json(&body).ok()?.get("certificate")?.render();
                        let cert = Certificate::from_json(&src).ok()?;
                        nalist_check::verify(&schema, &deps_src, &cert, &Budget::unlimited()).ok()
                    });
                let ok = verdict.as_ref().is_some_and(|r| match r.verdict {
                    Verdict::Implied => want,
                    Verdict::NotImplied => !want,
                    Verdict::Derived => false,
                });
                tally.check(ok, || {
                    format!(
                        "follower certificate for {:?} failed the checker or the oracle",
                        q.text
                    )
                });
            }
        }
        Ok(catchup)
    }
}

/// `Σ_t ⊨ q` for each `(t, q)` by the engine's uncached
/// `membership::implies` on the compiled Σ, each distinct question once,
/// split over two threads.
fn verdicts(
    g: &Generated,
    sigma: &[Vec<CompiledDep>],
    asked: &[(usize, &CompiledDep)],
) -> Vec<bool> {
    let mut distinct: BTreeMap<(usize, &CompiledDep), bool> =
        asked.iter().map(|&k| (k, false)).collect();
    let mut todo: Vec<(&(usize, &CompiledDep), &mut bool)> = distinct.iter_mut().collect();
    let half = todo.len() / 2;
    let (a, b) = todo.split_at_mut(half);
    let decide = |part: &mut [(&(usize, &CompiledDep), &mut bool)]| {
        for ((t, q), v) in part.iter_mut() {
            **v = implies(&g.tenants[*t].alg, &sigma[*t], q);
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| decide(a));
        decide(b);
    });
    asked.iter().map(|k| distinct[k]).collect()
}

/// The `dep` texts of a `/sigma` answer.
fn sigma_texts(body: &str) -> Vec<String> {
    parse_json(body)
        .ok()
        .and_then(|d| {
            d.get("sigma").and_then(Json::as_arr).map(|arr| {
                arr.iter()
                    .filter_map(|e| e.get("dep").and_then(Json::as_str).map(str::to_string))
                    .collect()
            })
        })
        .unwrap_or_default()
}

/// Compiles listed dependency texts, sorted; `None` if any fails.
fn compile_all(g: &Generated, tenant: usize, texts: &[String]) -> Option<Vec<CompiledDep>> {
    let t = &g.tenants[tenant];
    let mut out = texts
        .iter()
        .map(|s| Dependency::parse(&t.attr, s).ok()?.compile(&t.alg).ok())
        .collect::<Option<Vec<_>>>()?;
    out.sort();
    Some(out)
}

/// A `/sigma` answer without its cache counters, which legitimately
/// differ between leader and follower.
fn sigma_prefix(body: &str) -> &str {
    body.split("\"cache\"").next().unwrap_or(body)
}

fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || b"-_.~".contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}
