//! The traced run's per-layer measurements.
//!
//! After the load has stopped, every window op is replayed in process
//! on two mirrors that share the server's Σ and op history:
//!
//! * mirror A is a plain `Reasoner` per tenant plus an fsync'd
//!   `WalWriter`; the replay times each layer's public function on it
//!   (`Dependency::parse_with`, `compile`, `dependency_basis`,
//!   `add`/`remove`, `WalWriter::append`);
//! * mirror B is a `ServiceState` built like the server's, on which the
//!   replay times `api::handle` and a `Tenant::reasoner.read()` probe.
//!
//! The wire layer is timed over a loopback socket pair
//! (`http::read_request`, `Response::write_to`). Two replay threads
//! follow the two connections' due times, so lock waits see the same
//! concurrency the server saw. Each op gets a `replay` span whose
//! children are the layer calls.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use nalist_deps::Dependency;
use nalist_guard::Budget;
use nalist_membership::{
    apply_wal_op, restore_reasoner, snapshot_payload, CacheStats, Reasoner, WalOp,
};
use nalist_obs::{MetricsRecorder, Recorder};
use nalist_serve::api::{self, ServiceState};
use nalist_serve::http::read_request;
use nalist_serve::tenant::Registry;
use nalist_store::{decode_snapshot, encode_snapshot, parse_wal_segment, WalWriter};
use nalist_types::json::parse as parse_json;
use nalist_types::parser::ParseLimits;

use crate::load::micros;
use crate::net::{read_response, request_bytes};
use crate::stats::{median, pct, Span, SpanLog};
use crate::workload::{Generated, Kind, Op};

/// Server defaults the mirror copies (`ServerConfig::default()`).
const SERVER_DEADLINE: Duration = Duration::from_millis(10_000);

/// Query LHSs per tenant timed cold and warm after the replay.
const BASIS_SAMPLE: usize = 64;

struct TenantA {
    reasoner: RwLock<Reasoner>,
    wal: Mutex<WalWriter>,
}

/// Per-op layer timings, microseconds.
#[derive(Default, Clone, Copy)]
struct OpTimes {
    handle: f64,
    parts: f64,
    edit: bool,
}

/// What the replay measured.
pub struct Layers {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub spans: SpanLog,
}

/// Builds both mirrors, replays, and derives the per-layer metrics.
/// `traced_query_p50` is the traced window's end-to-end query median.
pub fn measure(
    g: &Generated,
    dir: &Path,
    epoch: Instant,
    traced_query_p50: f64,
) -> Result<Layers, String> {
    let rec: Arc<dyn Recorder> = Arc::new(MetricsRecorder::new());
    let wal_dir = g.spec.durable.then(|| dir.join("mirror-b"));
    let state = ServiceState {
        registry: Registry::open(wal_dir, Arc::clone(&rec)).map_err(|e| e.message)?,
        fuel: None,
        deadline: Some(SERVER_DEADLINE),
        batch_threads: nalist_membership::default_batch_threads(),
        replication: None,
    };
    // Create and warm mirror B through the same handler the server runs.
    for t in &g.tenants {
        let req = in_process_request(&format!("/v1/{}/create", t.name), &t.create_body());
        let resp = api::handle(&state, &req);
        if resp.status != 201 {
            return Err(format!("mirror create {}: HTTP {}", t.name, resp.status));
        }
    }
    for op in &g.warmup {
        api::handle(&state, &in_process_request(&op.target, &op.body));
    }
    // Mirror A starts as a copy of B's warm reasoners.
    let mut mirror_a = Vec::new();
    let mut start_snapshots = Vec::new();
    for (i, t) in g.tenants.iter().enumerate() {
        let tb = state
            .registry
            .get(&t.name)
            .ok_or("mirror tenant vanished")?;
        let r = tb.reasoner.read().expect("mirror lock").clone();
        start_snapshots.push(snapshot_payload(&r));
        let wal = WalWriter::create(&dir.join(format!("mirror-a-{i}.wal")), true)
            .map_err(|e| format!("mirror WAL: {e}"))?;
        mirror_a.push(TenantA {
            reasoner: RwLock::new(r),
            wal: Mutex::new(wal),
        });
    }
    let ctx = Ctx {
        g,
        a: &mirror_a,
        b: &state,
        rec: rec.as_ref(),
        epoch,
    };
    let stats0 = sum_stats(&mirror_a);
    let window_runs = ctx.replay_phase(&g.window)?;
    let stats1 = sum_stats(&mirror_a);
    // Edit-path layers are measured on the window's edits, so they read
    // 0 on the read-only workloads.
    let mut spans = SpanLog::default();
    let mut times = Vec::new();
    for (log, t) in window_runs {
        spans.extend(log);
        times.extend(t);
    }
    let (hit_us, miss_us) = basis_probe(g, &mirror_a);
    let mut m: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let med = |name: &str| median(&spans.durations(name));

    m.push(("http.read_request_us", med("http.read_request"), "us"));
    m.push(("http.write_response_us", med("http.write_response"), "us"));

    let handles = spans.durations("api.handle");
    let query_handles: Vec<f64> = times.iter().filter(|t| !t.edit).map(|t| t.handle).collect();
    let unattributed: Vec<f64> = times.iter().map(|t| t.handle - t.parts).collect();
    m.push(("api.handle_us", median(&handles), "us"));
    m.push(("api.handle_p99_us", pct(&handles, 0.99), "us"));
    m.push(("api.unattributed_us", median(&unattributed), "us"));
    m.push((
        "api.outside_handler_us",
        traced_query_p50 - median(&query_handles),
        "us",
    ));
    m.push((
        "api.lock_wait_p99_us",
        pct(&spans.durations("api.lock_wait"), 0.99),
        "us",
    ));

    m.push(("json.parse_us", med("json.parse"), "us"));
    m.push(("deps.resolve_us", med("deps.resolve"), "us"));
    m.push(("deps.compile_us", med("deps.compile"), "us"));

    let lookups = (stats1.hits + stats1.misses).saturating_sub(stats0.hits + stats0.misses);
    let hits = stats1.hits.saturating_sub(stats0.hits);
    m.push(("membership.basis_hit_us", hit_us, "us"));
    m.push(("membership.basis_miss_us", miss_us, "us"));
    m.push((
        "membership.fixpoints",
        stats1.misses.saturating_sub(stats0.misses) as f64,
        "count",
    ));
    m.push((
        "membership.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    ));
    m.push(("membership.cache_entries", stats1.entries as f64, "count"));

    let edits = spans.durations("membership.edit");
    let evicted = stats1.evicted.saturating_sub(stats0.evicted);
    m.push(("membership.edit_us", median(&edits), "us"));
    m.push((
        "membership.evicted_per_edit",
        evicted as f64 / edits.len().max(1) as f64,
        "count",
    ));

    let appends = spans.durations("store.wal_append");
    let wal_bytes: u64 = mirror_a
        .iter()
        .map(|t| t.wal.lock().expect("wal lock").end() - 8)
        .sum();
    m.push(("store.wal_append_us", median(&appends), "us"));
    m.push((
        "store.wal_bytes_per_edit",
        wal_bytes as f64 / appends.len().max(1) as f64,
        "bytes",
    ));

    let (snap_bytes, encode_us, bootstrap_ms) = snapshot_probe(&mirror_a)?;
    m.push(("store.snapshot_bytes", snap_bytes as f64, "bytes"));
    m.push(("store.snapshot_encode_us", encode_us, "us"));
    m.push(("replica.bootstrap_ms", bootstrap_ms, "ms"));

    let (apply, catchup_ms) = apply_probe(dir, &start_snapshots, &mirror_a, epoch, &mut spans)?;
    m.push(("replica.apply_us", median(&apply), "us"));
    m.push(("replica.catchup_ms", catchup_ms, "ms"));
    Ok(Layers { metrics: m, spans })
}

fn sum_stats(a: &[TenantA]) -> CacheStats {
    let mut out = CacheStats::default();
    for t in a {
        let s = t.reasoner.read().expect("mirror lock").cache_stats();
        out.hits += s.hits;
        out.misses += s.misses;
        out.evicted += s.evicted;
        out.entries += s.entries;
    }
    out
}

fn in_process_request(target: &str, body: &str) -> nalist_serve::Request {
    nalist_serve::Request {
        method: "POST".to_string(),
        target: target.to_string(),
        headers: vec![("content-type".to_string(), "application/json".to_string())],
        body: body.as_bytes().to_vec(),
        close: false,
    }
}

struct Ctx<'a> {
    g: &'a Generated,
    a: &'a [TenantA],
    b: &'a ServiceState,
    rec: &'a dyn Recorder,
    epoch: Instant,
}

impl Ctx<'_> {
    /// Replays one phase, a thread per connection, each following its
    /// connection's due times.
    fn replay_phase(&self, phase: &[Vec<Op>]) -> Result<Vec<(SpanLog, Vec<OpTimes>)>, String> {
        let start = Instant::now() + Duration::from_millis(20);
        std::thread::scope(|s| {
            let handles: Vec<_> = phase
                .iter()
                .enumerate()
                .map(|(c, ops)| s.spawn(move || self.replay(ops, start, (1 + c as u64) << 40)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread panicked"))
                .collect()
        })
    }

    /// Replays `ops` at their due times from `start`.
    fn replay(
        &self,
        ops: &[Op],
        start: Instant,
        id_base: u64,
    ) -> Result<(SpanLog, Vec<OpTimes>), String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("loopback: {e}"))?;
        let mut client = TcpStream::connect(listener.local_addr().map_err(|e| e.to_string())?)
            .map_err(|e| format!("loopback: {e}"))?;
        let (mut server, _) = listener.accept().map_err(|e| format!("loopback: {e}"))?;
        client.set_nodelay(true).map_err(|e| e.to_string())?;
        server.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut log = SpanLog::with_base(id_base);
        let mut times = Vec::with_capacity(ops.len());
        let mut leftover = Vec::new();
        let mut buf = Vec::new();
        let budget = Budget::unlimited();
        for op in ops {
            let due = start + op.due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let root_start = Instant::now();
            let mut parts = Parts::new();

            client
                .write_all(&request_bytes("POST", &op.target, &op.body))
                .map_err(|e| format!("loopback write: {e}"))?;
            let t0 = Instant::now();
            let req = read_request(&mut server, &mut leftover)
                .map_err(|e| format!("read_request: {e:?}"))?;
            parts.mark("http.read_request", t0);

            // Whichever mirror runs second finds the op's text and data
            // warm in the CPU caches, so the order alternates by op.
            let resp = if op.id % 2 == 0 {
                let resp = self.handler_call(op, &req, &mut parts)?;
                self.layer_calls(op, &req, &mut parts, &budget)?;
                resp
            } else {
                self.layer_calls(op, &req, &mut parts, &budget)?;
                self.handler_call(op, &req, &mut parts)?
            };
            let t0 = Instant::now();
            resp.write_to(&mut server)
                .map_err(|e| format!("write_to: {e}"))?;
            parts.mark("http.write_response", t0);
            read_response(&mut client, &mut buf).map_err(|e| format!("loopback read: {e}"))?;

            let root = log.push(Span::new(
                "replay",
                op.id,
                0,
                root_start,
                Instant::now(),
                self.epoch,
            ));
            let mut t = OpTimes {
                edit: op.is_edit(),
                ..OpTimes::default()
            };
            for (name, s, e) in parts.0 {
                let us = micros(e - s);
                match name {
                    "api.handle" => t.handle = us,
                    "json.parse" | "deps.resolve" | "deps.compile" | "membership.basis"
                    | "membership.edit" => t.parts += us,
                    // Only a durable server's handler appends to a WAL.
                    "store.wal_append" if self.g.spec.durable => t.parts += us,
                    _ => {}
                }
                log.push(Span::new(name, op.id, root, s, e, self.epoch));
            }
            times.push(t);
        }
        Ok((log, times))
    }
}

impl Ctx<'_> {
    /// Mirror A: the body parse and each layer's public function.
    fn layer_calls(
        &self,
        op: &Op,
        req: &nalist_serve::Request,
        parts: &mut Parts,
        budget: &Budget,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let body = parse_json(std::str::from_utf8(&req.body).map_err(|e| e.to_string())?)?;
        parts.mark("json.parse", t0);
        let (tenant, field) = match &op.kind {
            Kind::Query { tenant, .. } => (*tenant, "query"),
            Kind::Edit { tenant, .. } => (*tenant, "dep"),
        };
        let text = body
            .get(field)
            .and_then(|v| v.as_str())
            .ok_or("replayed body lacks its text")?;
        let ta = &self.a[tenant];
        let t0 = Instant::now();
        let dep = {
            let r = ta.reasoner.read().expect("mirror lock");
            Dependency::parse_with(r.attr(), text, ParseLimits::from_budget(budget))
                .map_err(|e| e.to_string())?
        };
        parts.mark("deps.resolve", t0);
        let t0 = Instant::now();
        let compiled = {
            let r = ta.reasoner.read().expect("mirror lock");
            dep.compile(r.algebra()).map_err(|e| e.to_string())?
        };
        parts.mark("deps.compile", t0);
        match &op.kind {
            Kind::Query { .. } => {
                let r = ta.reasoner.read().expect("mirror lock");
                let t0 = Instant::now();
                std::hint::black_box(r.dependency_basis(&compiled.lhs));
                parts.mark("membership.basis", t0);
            }
            Kind::Edit { add, .. } => {
                let wal_op = if *add {
                    WalOp::Add(text.to_string())
                } else {
                    WalOp::Remove(text.to_string())
                };
                {
                    let mut w = ta.wal.lock().expect("wal lock");
                    let t0 = Instant::now();
                    w.append(&wal_op.encode(), budget, self.rec)
                        .map_err(|e| e.to_string())?;
                    parts.mark("store.wal_append", t0);
                }
                let mut r = ta.reasoner.write().expect("mirror lock");
                let t0 = Instant::now();
                if *add {
                    r.add(dep).map_err(|e| e.to_string())?;
                } else {
                    r.remove(&dep).map_err(|e| e.to_string())?;
                }
                parts.mark("membership.edit", t0);
            }
        }
        Ok(())
    }

    /// Mirror B: the lock probe, then `api::handle`.
    fn handler_call(
        &self,
        op: &Op,
        req: &nalist_serve::Request,
        parts: &mut Parts,
    ) -> Result<nalist_serve::Response, String> {
        let tenant = match &op.kind {
            Kind::Query { tenant, .. } | Kind::Edit { tenant, .. } => *tenant,
        };
        let tb = self
            .b
            .registry
            .get(&self.g.tenants[tenant].name)
            .ok_or("mirror tenant vanished")?;
        let t0 = Instant::now();
        drop(tb.reasoner.read().expect("mirror lock"));
        parts.mark("api.lock_wait", t0);
        let t0 = Instant::now();
        let resp = api::handle(self.b, req);
        parts.mark("api.handle", t0);
        if resp.status != 200 {
            return Err(format!(
                "mirror answered HTTP {} to op {}",
                resp.status, op.id
            ));
        }
        Ok(resp)
    }
}

/// The layer calls of one replayed op: name, start, end.
struct Parts(Vec<(&'static str, Instant, Instant)>);

impl Parts {
    fn new() -> Parts {
        Parts(Vec::with_capacity(12))
    }

    /// Records `name` as running from `t0` until now.
    fn mark(&mut self, name: &'static str, t0: Instant) {
        self.0.push((name, t0, Instant::now()));
    }
}

/// Times `dependency_basis` cold (on a cleared copy) and then warm for
/// a sample of each tenant's window queries; returns `(hit, miss)`
/// medians in microseconds.
fn basis_probe(g: &Generated, a: &[TenantA]) -> (f64, f64) {
    let mut sample: BTreeMap<usize, Vec<&nalist_algebra::AtomSet>> = BTreeMap::new();
    for op in g.window.iter().flatten() {
        if let Kind::Query { tenant, query } = &op.kind {
            let v = sample.entry(*tenant).or_default();
            if v.len() < BASIS_SAMPLE && !v.contains(&&query.compiled.lhs) {
                v.push(&query.compiled.lhs);
            }
        }
    }
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for (tenant, lhss) in sample {
        let r = a[tenant].reasoner.read().expect("mirror lock").clone();
        r.clear_cache();
        for x in lhss {
            let t0 = Instant::now();
            std::hint::black_box(r.dependency_basis(x));
            miss.push(micros(t0.elapsed()));
            let t0 = Instant::now();
            std::hint::black_box(r.dependency_basis(x));
            hit.push(micros(t0.elapsed()));
        }
    }
    (median(&hit), median(&miss))
}

/// Encodes every tenant's snapshot five times and restores it three
/// times; returns `(bytes, encode µs median, restore ms median)`.
fn snapshot_probe(a: &[TenantA]) -> Result<(usize, f64, f64), String> {
    let mut encoded = Vec::new();
    let mut encode = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        encoded = a
            .iter()
            .map(|t| encode_snapshot(&snapshot_payload(&t.reasoner.read().expect("mirror lock"))))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        encode.push(micros(t0.elapsed()));
    }
    let mut restore = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        for bytes in &encoded {
            let payload = decode_snapshot(bytes).map_err(|e| e.to_string())?;
            let r = restore_reasoner(
                &payload,
                &Budget::unlimited(),
                Arc::new(nalist_obs::NoopRecorder),
            )
            .map_err(|e| e.to_string())?;
            std::hint::black_box(r);
        }
        restore.push(micros(t0.elapsed()) / 1e3);
    }
    Ok((
        encoded.iter().map(Vec::len).sum(),
        median(&encode),
        median(&restore),
    ))
}

/// Replays mirror A's WAL onto its pre-replay snapshot record by
/// record, as a follower does; returns the per-record times and the
/// total catch-up time in milliseconds.
fn apply_probe(
    dir: &Path,
    start: &[Vec<u8>],
    a: &[TenantA],
    epoch: Instant,
    spans: &mut SpanLog,
) -> Result<(Vec<f64>, f64), String> {
    let mut per_record = Vec::new();
    let mut total = 0.0;
    let budget = Budget::unlimited();
    for (i, payload) in start.iter().enumerate() {
        let end = a[i].wal.lock().expect("wal lock").end();
        let bytes = nalist_store::read_wal_range(&dir.join(format!("mirror-a-{i}.wal")), 8, end)
            .map_err(|e| e.to_string())?;
        let mut r = restore_reasoner(payload, &budget, Arc::new(nalist_obs::NoopRecorder))
            .map_err(|e| e.to_string())?;
        let mut pos = 0usize;
        let mut index = 0usize;
        while pos < bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let rec_end = pos + 8 + len;
            let t0 = Instant::now();
            let seg = parse_wal_segment(&bytes[pos..rec_end], 8 + pos as u64, false)
                .map_err(|e| e.to_string())?;
            for (off, p) in seg.records {
                let op = WalOp::decode(&p, off).map_err(|e| e.to_string())?;
                apply_wal_op(&mut r, op, index, &budget).map_err(|e| e.to_string())?;
                index += 1;
            }
            let t1 = Instant::now();
            spans.push(Span::new("replica.apply", 0, 0, t0, t1, epoch));
            per_record.push(micros(t1 - t0));
            total += micros(t1 - t0) / 1e3;
            pos = rec_end;
        }
    }
    Ok((per_record, total))
}
