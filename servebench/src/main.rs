//! `servebench`: the end-to-end and per-layer benchmark of `nalist
//! serve`.
//!
//! One run starts fresh release `nalist serve` processes, drives them
//! over loopback with an open-loop Poisson schedule (each request timed
//! from when it was due), then a closed-loop saturation phase, checks
//! every answer against an in-process oracle, and prints the metrics.
//! With `--trace 1` it also replays the window in process and reports
//! per-layer times (see `layers.rs`).
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!            --nalist <path to release nalist> --out <dir>
//!            [--commit <id>] [--rustc <version>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it
//! is the run record: `{"valid", "invalid", …provenance}`, where
//! `invalid` lists why a run is invalid (not slow). Any failed request
//! or wrong answer makes the exit code 1.

mod layers;
mod load;
mod net;
mod oracle;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use nalist_types::json::{escape, parse as parse_json, Json};

use load::{closed_loop, open_loop, ConnRun, Sample};
use net::{cpu_us, once, rss_peak_mb, steal_ticks, Client, ServerProc, WorkDir};
use stats::{beyond, block_pcts, max, median, pct, SpanLog};
use workload::{generate, Generated, Spec, CONNS, FOLLOWER_WORKERS, LEADER_WORKERS};

/// Set-ups before the load: at least `MIN_SETUPS`, then more while their
/// total stays under `SETUP_TIME`. As many again follow the checks, so
/// the set-ups span the run; `setup_s` is the median of them all.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_TIME: Duration = Duration::from_millis(1_500);

/// Time blocks of the window whose CPU per op the report lists (few:
/// CPU time comes in 10 ms ticks), and of the closed loop behind
/// `saturated_rps`.
const CPU_BLOCKS: usize = 5;
const RATE_BLOCKS: usize = 9;

/// A traced run traces the window's requests in every other block of
/// this length, so traced and untraced requests see the same stretch of
/// the run and their difference is the tracing overhead.
const TRACE_BLOCK: Duration = Duration::from_millis(500);

/// A run is invalid (not slow) when the generator itself sent later
/// than this at p99.
const MAX_GEN_LATE_P99_US: f64 = 2_000.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    nalist: PathBuf,
    out: PathBuf,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("--{k} wants a whole number, got {v:?}"))
    };
    let args = Args {
        workload: take("workload")?,
        seed: num("seed", take("seed")?)?,
        seconds: num("seconds", take("seconds")?)?.max(1),
        trace: num("trace", take("trace")?)? != 0,
        nalist: PathBuf::from(take("nalist")?),
        out: PathBuf::from(take("out")?),
        commit: take("commit").unwrap_or_else(|_| "unknown".to_string()),
        rustc: take("rustc").unwrap_or_else(|_| "unknown".to_string()),
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(args)
}

fn main() {
    let code = match parse_args().and_then(|a| run(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("servebench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// The leader, and on replicated workloads its follower.
struct Servers {
    leader: ServerProc,
    follower: Option<ServerProc>,
}

impl Servers {
    fn cpu_us(&self) -> u64 {
        cpu_us(self.leader.pid()) + self.follower.as_ref().map_or(0, |f| cpu_us(f.pid()))
    }
}

/// Tallies of requests and checks; every mismatch is also described.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(what());
            }
        }
    }
}

/// Spawns the servers, creates and warms the tenants, and waits until
/// everything is ready. Returns the servers and the seconds it took.
fn setup(
    a: &Args,
    g: &Generated,
    dir: &std::path::Path,
    k: usize,
    tally: &mut Tally,
) -> Result<(Servers, f64), String> {
    let t0 = Instant::now();
    let mut extra = vec!["--workers".to_string(), LEADER_WORKERS.to_string()];
    if g.spec.durable {
        extra.push("--wal-dir".to_string());
        extra.push(dir.join(format!("wal{k}")).display().to_string());
    }
    let leader = ServerProc::spawn(&a.nalist, dir, &format!("leader{k}"), &extra)?;
    for t in &g.tenants {
        let (status, body) = once(
            &leader.addr,
            "POST",
            &format!("/v1/{}/create", t.name),
            &t.create_body(),
        )
        .map_err(|e| format!("create {}: {e}", t.name))?;
        if status != 201 {
            return Err(format!("create {}: HTTP {status}: {body}", t.name));
        }
    }
    let mut client = Client::new(&leader.addr);
    for op in &g.warmup {
        let (status, body) = client
            .call("POST", &op.target, &op.body)
            .map_err(|e| format!("warm-up: {e}"))?;
        tally.check(status == 200, || {
            format!("warm-up op {}: HTTP {status}: {body}", op.id)
        });
    }
    drop(client);
    let follower = if g.spec.follower {
        let extra = vec![
            "--workers".to_string(),
            FOLLOWER_WORKERS.to_string(),
            "--follow".to_string(),
            leader.addr.clone(),
        ];
        let f = ServerProc::spawn(&a.nalist, dir, &format!("follower{k}"), &extra)?;
        loop {
            if let Ok((200, _)) = once(&f.addr, "GET", "/healthz", "") {
                break;
            }
            if t0.elapsed() > Duration::from_secs(60) {
                return Err("follower never became ready".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Some(f)
    } else {
        None
    };
    Ok((Servers { leader, follower }, t0.elapsed().as_secs_f64()))
}

/// Latency summary of one class of time-ordered samples.
struct Lat {
    n: usize,
    p50: f64,
    p90: f64,
    p99: f64,
    /// Per-block values behind the p50 and the p99.
    b50: Vec<f64>,
    b99: Vec<f64>,
}

impl Lat {
    /// Each percentile is the median over contiguous blocks of at least
    /// 300 (p50, p90) or 1,000 (p99) requests: a passing stall of the
    /// machine moves one block, while a cost that grows over the run
    /// moves the later half of them.
    fn of(v: &[f64]) -> Lat {
        let b50 = block_pcts(v, 0.5, 300, 15);
        let b99 = block_pcts(v, 0.99, 1_000, 9);
        Lat {
            n: v.len(),
            p50: median(&b50),
            p90: median(&block_pcts(v, 0.9, 300, 15)),
            p99: median(&b99),
            b50,
            b99,
        }
    }

    /// Every block behind the p99 has ten samples beyond it.
    fn valid(&self) -> bool {
        beyond(self.n / self.b99.len(), 0.99) >= 10
    }

    fn describe(&self) -> String {
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!(
            "n={}, beyond p99 per block {}; p50 blocks [{}]; p99 blocks [{}]",
            self.n,
            beyond(self.n / self.b99.len(), 0.99),
            list(&self.b50),
            list(&self.b99)
        )
    }
}

fn run(a: &Args) -> Result<i32, String> {
    let spec: Spec = workload::spec(&a.workload).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload {:?} (want one of {})",
            a.workload,
            names.join(", ")
        )
    })?;
    if !a.nalist.is_file() {
        return Err(format!("no nalist binary at {}", a.nalist.display()));
    }
    let secs = a.seconds as f64;
    let window = Duration::from_secs_f64(secs * 0.6);
    let closed_for = Duration::from_secs_f64(secs * 0.25);
    // Ops prepared per closed-loop connection. Read-only pool workloads
    // cycle through theirs; edits cannot repeat (each toggles Σ), and
    // fresh |N| = 256 queries are costly to generate, so those lists
    // hold about 1.5x what one connection completes.
    let cycle = spec.pool > 0 && spec.edit_ratio == 0.0;
    let closed_cap =
        ((if spec.pool == 0 { 1_200.0 } else { 10_000.0 }) * closed_for.as_secs_f64()) as usize;
    let mut phases_s: Vec<(&str, f64)> = Vec::new();
    let mut lap = Instant::now();
    let mut phase = |name: &'static str, phases_s: &mut Vec<(&str, f64)>| {
        phases_s.push((name, lap.elapsed().as_secs_f64()));
        lap = Instant::now();
    };
    let g = generate(spec, a.seed, window, closed_cap);
    let work = WorkDir::new(a.out.join(format!(
        "work-{}-{}-{}",
        spec.name,
        a.seed,
        std::process::id()
    )))?;
    let oracle = oracle::Oracle::new(&g);
    phase("generate", &mut phases_s);
    let mut tally = Tally::default();
    let epoch = Instant::now();

    // Set-up, several times; the load runs on the last one's servers.
    let mut setup_times = Vec::new();
    let mut servers = None;
    let t_setups = Instant::now();
    for k in 0..MAX_SETUPS {
        if k >= MIN_SETUPS && t_setups.elapsed() > SETUP_TIME {
            break;
        }
        if let Some(mut old) = servers.take() {
            stop(&mut old);
        }
        let (s, t) = setup(a, &g, &work.0, k, &mut tally)?;
        setup_times.push(t);
        servers = Some(s);
    }
    let mut servers = servers.expect("at least one set-up");

    // The load runs on two keep-alive connections, opened up front.
    let mut clients: Vec<Client> = (0..CONNS)
        .map(|_| Client::new(&servers.leader.addr))
        .collect();
    for c in &mut clients {
        c.call("GET", "/healthz", "")
            .map_err(|e| format!("connect: {e}"))?;
    }
    phase("set-up", &mut phases_s);

    // The open-loop window; the main thread samples server CPU at the
    // block boundaries.
    let trace_block = a.trace.then_some(TRACE_BLOCK);
    let steal0 = steal_ticks();
    let (window_runs, cpu_marks) = open_phase(
        &mut clients,
        &g.window,
        trace_block,
        epoch,
        Some((&servers, window)),
    );
    let steal1 = steal_ticks();
    let steal_pct = 100.0 * (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    phase("window", &mut phases_s);
    // Peak memory after the window, whose request count is fixed; the
    // closed loop's grows with the machine's speed.
    let rss = rss_peak_mb(servers.leader.pid());
    let window_ok = window_runs
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|s| s.status == 200)
        .count();

    // Per-layer runs scrape /metrics once, right after the window.
    let scrape = if a.trace {
        let t0 = Instant::now();
        let (status, body) = once(&servers.leader.addr, "GET", "/metrics", "")
            .map_err(|e| format!("/metrics: {e}"))?;
        let us = load::micros(t0.elapsed());
        tally.check(status == 200, || format!("/metrics: HTTP {status}"));
        let spans = parse_json(&body)
            .ok()
            .and_then(|d| d.get("spans").and_then(Json::as_arr).map(<[Json]>::len))
            .unwrap_or(0);
        Some((body.len(), spans, us))
    } else {
        None
    };

    // Closed loop: same mix, two connections, back to back.
    let t_closed = Instant::now();
    let until = t_closed + closed_for;
    let closed_runs: Vec<ConnRun> = std::thread::scope(|s| {
        let hs: Vec<_> = clients
            .iter_mut()
            .zip(&g.closed)
            .map(|(c, ops)| s.spawn(move || closed_loop(c, ops, until, cycle)))
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let closed_ok: Vec<Instant> = closed_runs
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|s| s.status == 200)
        .map(|s| s.done)
        .collect();
    let reconnects: u64 = clients.iter().map(|c| c.reconnects).sum();
    drop(clients);
    phase("closed loop", &mut phases_s);

    // Correctness: the final state first (it also times the follower's
    // catch-up), then every answer against the oracle.
    let phases: Vec<(&[Vec<workload::Op>], &[ConnRun])> =
        vec![(&g.window, &window_runs), (&g.closed, &closed_runs)];
    let mut sent_edits = Vec::new();
    let mut queries = Vec::new();
    for (ops, runs) in &phases {
        for (c, run) in runs.iter().enumerate() {
            for s in &run.samples {
                let op = &ops[c][s.ix];
                match &op.kind {
                    workload::Kind::Query { .. } => queries.push((op, s)),
                    workload::Kind::Edit { .. } => sent_edits.push((op, s)),
                }
            }
        }
    }
    let live_catchup_ms = oracle.check_final_state(&g, &servers, &sent_edits, &mut tally)?;
    oracle.check_queries(&g, &queries, &mut tally);
    for (op, s) in &sent_edits {
        tally.check(s.status == 200, || {
            format!("edit op {}: HTTP {}: {}", op.id, s.status, s.body)
        });
    }
    let follower_repl = servers
        .follower
        .as_ref()
        .map(|f| follower_replication(&f.addr));
    stop(&mut servers);
    phase("checks", &mut phases_s);
    for k in setup_times.len()..2 * setup_times.len() {
        let (mut s, t) = setup(a, &g, &work.0, k, &mut tally)?;
        stop(&mut s);
        setup_times.push(t);
    }
    let setup_s = median(&setup_times);
    phase("late set-ups", &mut phases_s);

    // End-to-end figures: see `Lat::of` and the blocks of time below.
    // Window latencies in due-time order, of the requests whose due time
    // `keep` accepts.
    let window_ops = &g.window;
    let by_due = |edit: bool, keep: &dyn Fn(Duration) -> bool| -> Vec<f64> {
        let mut v: Vec<(Duration, f64)> = window_runs
            .iter()
            .enumerate()
            .flat_map(|(c, r)| r.samples.iter().map(move |s| (window_ops[c][s.ix].due, s)))
            .filter(|(due, s)| s.edit == edit && keep(*due))
            .map(|(due, s)| (due, s.latency_us))
            .collect();
        v.sort_by_key(|(due, _)| *due);
        v.into_iter().map(|(_, l)| l).collect()
    };
    let query = Lat::of(&by_due(false, &|_| true));
    let edit = Lat::of(&by_due(true, &|_| true));
    let window_samples: Vec<&Sample> = window_runs.iter().flat_map(|r| &r.samples).collect();
    let late: Vec<f64> = window_samples.iter().map(|s| s.late_us).collect();
    let late_p99 = pct(&late, 0.99);
    let per_block = |marks: &[Instant], done: &[Instant]| -> Vec<usize> {
        marks
            .windows(2)
            .map(|w| done.iter().filter(|d| **d >= w[0] && **d < w[1]).count())
            .collect()
    };
    let closed_marks: Vec<Instant> = (0..=RATE_BLOCKS)
        .map(|i| t_closed + closed_for * i as u32 / RATE_BLOCKS as u32)
        .collect();
    // The saturated rate is the least-disturbed block of the closed loop;
    // a closed loop has no backlog, so a stall moves only its own block.
    let saturated = max(&per_block(&closed_marks, &closed_ok)
        .iter()
        .map(|&n| n as f64 / (closed_for.as_secs_f64() / RATE_BLOCKS as f64))
        .collect::<Vec<_>>());
    let window_done: Vec<Instant> = window_samples
        .iter()
        .filter(|s| s.status == 200)
        .map(|s| s.done)
        .collect();
    // CPU per op over the whole window, so a cost that grows with the
    // run (a larger cache, say) counts in full; the per-block figures
    // are listed in the report.
    let marks: Vec<Instant> = cpu_marks.iter().map(|(t, _)| *t).collect();
    let block_ops = per_block(&marks, &window_done);
    let cpu_blocks: Vec<f64> = block_ops
        .iter()
        .zip(cpu_marks.windows(2))
        .map(|(&n, w)| (w[1].1 - w[0].1) as f64 / n.max(1) as f64)
        .collect();
    let cpu_per_op = (cpu_marks[CPU_BLOCKS].1 - cpu_marks[0].1) as f64
        / block_ops.iter().sum::<usize>().max(1) as f64;

    let mut invalid = Vec::new();
    if !cycle
        && closed_runs
            .iter()
            .zip(&g.closed)
            .any(|(r, ops)| r.samples.len() == ops.len())
    {
        invalid.push("the closed loop ran out of prepared ops".to_string());
    }
    if late_p99 > MAX_GEN_LATE_P99_US {
        invalid.push(format!("generator late by {late_p99:.0} us at p99"));
    }
    let classes = if spec.edit_ratio > 0.0 {
        vec![("query", &query), ("edit", &edit)]
    } else {
        vec![("query", &query)]
    };
    for (name, l) in classes {
        if !l.valid() {
            invalid.push(format!(
                "{name} p99 has only {} samples beyond it",
                beyond(l.n, 0.99)
            ));
        }
    }

    // Human-readable report.
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let poll_wait_ms = nalist_serve::FollowerConfig::default().poll_wait_ms;
    let mut rep = String::new();
    let _ = writeln!(
        rep,
        "servebench {} seed={} seconds={} trace={} | nproc={} commit={} rustc={} leader_workers={} \
         follower_poll_wait_ms={} conns={}",
        spec.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        nproc,
        a.commit,
        a.rustc,
        LEADER_WORKERS,
        poll_wait_ms,
        CONNS
    );
    let _ = writeln!(
        rep,
        "  window {:.2} s offered {:.0} req/s sent {} ok {} | closed loop {:.2} s ok {}",
        window.as_secs_f64(),
        spec.rps,
        window_samples.len(),
        window_ok,
        closed_for.as_secs_f64(),
        closed_ok.len()
    );
    // Gated: the end-to-end metrics `BENCHMARK.json` bounds. Reported
    // only: latency and throughput, which on a shared 2-CPU VM move with
    // the CPU time the hypervisor takes by more than any usable bound,
    // and the failure ratio.
    let e2e: Vec<(&str, f64, &str)> = vec![
        ("setup_s", setup_s, "s"),
        ("cpu_us_per_op", cpu_per_op, "us"),
        ("rss_peak_mb", rss, "MiB"),
    ];
    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    let reported: Vec<(&str, f64, &str)> = vec![
        ("query_p50_us", query.p50, "us"),
        ("query_p90_us", query.p90, "us"),
        ("query_p99_us", query.p99, "us"),
        ("edit_p50_us", edit.p50, "us"),
        ("edit_p90_us", edit.p90, "us"),
        ("edit_p99_us", edit.p99, "us"),
        ("saturated_rps", saturated, "ops/s"),
        ("failed_ratio", failed_ratio, "ratio"),
    ];
    let _ = writeln!(rep, "  query: {}", query.describe());
    if edit.n > 0 {
        let _ = writeln!(rep, "  edit: {}", edit.describe());
    }
    let _ = writeln!(
        rep,
        "  cpu us/op per window block: {}",
        cpu_blocks
            .iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        rep,
        "  gen.late_p99_us {late_p99:.1} | client.reconnects {reconnects} | live follower catch-up {} | \
         CPU stolen by the hypervisor during the window {:.1}%",
        live_catchup_ms.map_or("n/a".to_string(), |ms| format!("{ms:.1} ms")),
        steal_pct
    );
    let _ = writeln!(
        rep,
        "  setups: {}",
        setup_times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        rep,
        "  phases: {}",
        phases_s
            .iter()
            .map(|(n, t)| format!("{n} {t:.2} s"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        rep,
        "  validity: {}",
        if invalid.is_empty() {
            "valid".to_string()
        } else {
            format!("INVALID ({})", invalid.join("; "))
        }
    );
    for (name, v, unit) in e2e.iter().chain(&reported) {
        let gate = if e2e.iter().any(|m| m.0 == *name) {
            ""
        } else {
            "  (reported, not gated)"
        };
        let _ = writeln!(rep, "  {name:<30} {v:>14.3} {unit}{gate}");
    }
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if a.trace {
        let traced_q = Lat::of(&by_due(false, &|due| load::traced(due, TRACE_BLOCK)));
        let untraced_p50 = Lat::of(&by_due(false, &|due| !load::traced(due, TRACE_BLOCK))).p50;
        let l = layers::measure(&g, &work.0, epoch, traced_q.p50)?;
        let mut spans = SpanLog::default();
        for r in window_runs {
            spans.extend(r.spans);
        }
        let request_spans = spans.spans.len();
        spans.extend(l.spans);
        let path = a.out.join(format!("spans-{}-{}.jsonl", spec.name, a.seed));
        std::fs::write(&path, spans.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let _ = writeln!(
            rep,
            "  spans: {} ({} client request spans) written to {}",
            spans.spans.len(),
            request_spans,
            path.display()
        );
        metrics.extend(l.metrics);
        let (metrics_bytes, span_count, scrape_us) = scrape.expect("traced runs scrape");
        let (applied, rejected) = follower_repl.flatten().unwrap_or((0, 0));
        metrics.extend([
            ("replica.records_applied", applied as f64, "count"),
            ("replica.rejected_segments", rejected as f64, "count"),
            ("obs.metrics_bytes", metrics_bytes as f64, "bytes"),
            ("obs.span_count", span_count as f64, "count"),
            ("obs.scrape_us", scrape_us, "us"),
            ("gen.late_p99_us", late_p99, "us"),
            ("client.reconnects", reconnects as f64, "count"),
            ("trace.query_p50_us", traced_q.p50, "us"),
            ("trace.query_p99_us", query.p99, "us"),
            ("trace.edit_p50_us", edit.p50, "us"),
            ("trace.edit_p99_us", edit.p99, "us"),
            ("trace.saturated_rps", saturated, "ops/s"),
            ("trace.untraced_query_p50_us", untraced_p50, "us"),
            ("trace.overhead_us", traced_q.p50 - untraced_p50, "us"),
        ]);
        for (name, v, unit) in &metrics {
            let _ = writeln!(rep, "  {name:<30} {v:>14.3} {unit}");
        }
    } else {
        metrics = e2e;
    }
    for p in &tally.problems {
        let _ = writeln!(rep, "  MISMATCH: {p}");
    }
    print!("{rep}");
    // The run record: validity and provenance, machine-readable, on the
    // line before the result.
    let quoted = |v: &[String]| v.iter().map(|x| escape(x)).collect::<Vec<_>>().join(", ");
    println!(
        "{{\"valid\": {}, \"invalid\": [{}], \"workload\": {}, \"seed\": {}, \"nproc\": {}, \
         \"commit\": {}, \"rustc\": {}, \"leader_workers\": {}, \"follower_poll_wait_ms\": {}}}",
        invalid.is_empty(),
        quoted(&invalid),
        escape(spec.name),
        a.seed,
        nproc,
        escape(&a.commit),
        escape(&a.rustc),
        LEADER_WORKERS,
        poll_wait_ms
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(if tally.failed == 0 { 0 } else { 1 })
}

/// Runs one open-loop phase, one thread per connection; the schedule
/// starts 20 ms from now so every thread is waiting when it does. With
/// `cpu`, the calling thread samples the servers' CPU time at `CPU_BLOCKS`
/// equal steps over the phase's length.
fn open_phase(
    clients: &mut [Client],
    ops: &[Vec<workload::Op>],
    trace_block: Option<Duration>,
    epoch: Instant,
    cpu: Option<(&Servers, Duration)>,
) -> (Vec<ConnRun>, Vec<(Instant, u64)>) {
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let hs: Vec<_> = clients
            .iter_mut()
            .zip(ops)
            .enumerate()
            .map(|(i, (c, ops))| {
                s.spawn(move || open_loop(c, ops, start, trace_block, epoch, (16 + i as u64) << 40))
            })
            .collect();
        let mut marks = Vec::new();
        if let Some((servers, length)) = cpu {
            for i in 0..=CPU_BLOCKS {
                let at = start + length * i as u32 / CPU_BLOCKS as u32;
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                marks.push((Instant::now(), servers.cpu_us()));
            }
        }
        let runs = hs
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (runs, marks)
    })
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Records applied and segments rejected, summed over the follower's
/// tenants, from its `/metrics` replication object.
fn follower_replication(addr: &str) -> Option<(u64, u64)> {
    let (_, body) = once(addr, "GET", "/metrics", "").ok()?;
    let doc = parse_json(&body).ok()?;
    let Some(Json::Obj(tenants)) = doc.get("replication").and_then(|r| r.get("tenants")) else {
        return None;
    };
    let sum = |k: &str| -> u64 {
        tenants
            .iter()
            .filter_map(|(_, t)| t.get(k).and_then(Json::as_usize))
            .map(|n| n as u64)
            .sum()
    };
    Some((sum("applied_records"), sum("rejected_segments")))
}

fn stop(s: &mut Servers) {
    if let Some(f) = &mut s.follower {
        f.stop();
    }
    s.leader.stop();
}
