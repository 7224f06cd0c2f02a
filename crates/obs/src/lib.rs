//! # nalist-obs
//!
//! Hand-rolled observability for the reasoning stack — no external
//! dependencies, matching the workspace's vendored-crates policy.
//!
//! The design mirrors how [`nalist-guard`'s] `Budget` is threaded through
//! the stack: every instrumented algorithm takes a `&dyn` [`Recorder`]
//! and emits three kinds of events:
//!
//! * **spans** — [`Recorder::enter`] / [`Recorder::exit`] pairs carrying
//!   a static site id (e.g. `"membership::worklist"`) and a `u64`
//!   payload each way (typically "input size" on enter, "work done" on
//!   exit). Spans are *coarse*: one per fixpoint run, chase, batch
//!   group or CLI command — never per inner-loop step — so the
//!   `Mutex`-protected span buffer is off the hot path by construction.
//! * **counters** — [`Recorder::add`] on a fixed [`Counter`] enum;
//!   one relaxed atomic add, lock-free.
//! * **histograms** — [`Recorder::observe`] on a fixed [`Hist`] enum;
//!   log2-bucketed (65 buckets: zero plus one per leading-bit
//!   position), three relaxed atomic adds, lock-free.
//!
//! [`NoopRecorder`] implements every method as an inline empty body and
//! reports [`Recorder::enabled`]` == false`, so instrumented code can
//! skip even the payload computation when observability is off; the
//! optimizer erases the rest.
//!
//! Counters are *deterministic* for a fixed workload (they count
//! algebraic work — dependencies fired, atoms allocated, cache misses —
//! not time), which is what lets CI pin them with equality checks while
//! wall-clock numbers get a loose band. See `DESIGN.md` § Observability.
//!
//! [`nalist-guard`'s]: ../nalist_guard/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Well-known span site ids. Sites are `&'static str` so recorders can
/// store them without allocation; the constants keep call sites and the
/// trace/metrics consumers in sync.
pub mod site {
    /// One CLI command invocation (root span).
    pub const CLI_COMMAND: &str = "cli::command";
    /// One worklist fixpoint run (Algorithm 5.1 closure phase).
    pub const WORKLIST: &str = "membership::worklist";
    /// One paper-order (REPEAT-UNTIL) closure run.
    pub const CLOSURE_PAPER: &str = "membership::closure";
    /// Atom/basis construction for a schema (`Algebra::try_new`).
    pub const ATOMS: &str = "algebra::atoms";
    /// One chase run to a fixpoint.
    pub const CHASE: &str = "deps::chase";
    /// One dependency-basis cache lookup (enter payload: LHS popcount;
    /// exit payload: 1 = hit, 0 = miss).
    pub const CACHE_LOOKUP: &str = "cache::lookup";
    /// One selective-eviction sweep after an `add`/`remove` edit
    /// (exit payload: entries evicted).
    pub const CACHE_EVICT: &str = "cache::evict";
    /// One batch-planner group (all queries sharing an LHS; enter
    /// payload: member count).
    pub const BATCH_GROUP: &str = "batch::group";
    /// One query inside a batch (enter payload: original query index).
    pub const BATCH_QUERY: &str = "batch::query";
    /// One certificate verification run (`nalist check`; exit payload:
    /// 1 = accepted, 0 = rejected).
    pub const CHECK_VERIFY: &str = "check::verify";
    /// One tenant construction in the service layer (enter payload:
    /// initial |Σ|; exit payload: 1 = created, 0 = recovered from a
    /// snapshot). Requests deliberately get **no** span: a long-lived
    /// server would grow the span buffer without bound. The request
    /// path reports through counters and the `request_ns` histogram
    /// instead.
    pub const SERVE_TENANT: &str = "serve::tenant";
}

/// Monotone work counters. The set is closed — a fixed enum instead of
/// string keys — so the registry is a flat atomic array with no hashing
/// on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Dependencies that fired (changed the closure) across all
    /// worklist fixpoint runs.
    DepsFired,
    /// Worklist steps (one dequeued dependency inspection) across all
    /// fixpoint runs.
    WorklistSteps,
    /// Basis attributes (atoms) allocated by algebra construction.
    AtomsAllocated,
    /// Dependency-basis cache hits.
    CacheHits,
    /// Dependency-basis cache misses.
    CacheMisses,
    /// Cache entries evicted by selective invalidation.
    CacheEvicted,
    /// Cache entries retained by selective invalidation.
    CacheRetained,
    /// Chase rounds run to fixpoint.
    ChaseRounds,
    /// Tuples inserted by the chase.
    ChaseTuples,
    /// Queries evaluated through the batch planner.
    BatchQueries,
    /// Effective worker count, added once per planned batch run (the
    /// requested thread count clamped to the number of planner groups).
    BatchThreads,
    /// Budget fuel spent, flushed once at the end of a governed run.
    FuelSpent,
    /// Derivation nodes replayed by the certificate checker.
    CertNodes,
    /// Witness tuples re-verified by the certificate checker.
    CertTuples,
    /// Records appended to the write-ahead log.
    WalAppends,
    /// fsyncs issued by WAL appends (only counted when the log is in
    /// durable mode).
    WalFsyncs,
    /// Snapshot files written (atomically) to disk.
    SnapshotWrites,
    /// WAL operations replayed through the incremental edit path
    /// during crash recovery.
    RecoveryReplayedOps,
    /// TCP connections accepted by the service listener (admitted or
    /// not).
    ConnsAccepted,
    /// HTTP requests fully parsed and dispatched by the service.
    HttpRequests,
    /// Requests served on an already-used connection (request ≥ 2 on a
    /// keep-alive connection).
    KeepaliveReuses,
    /// Connections refused by admission control (queue full → 503) and
    /// requests refused by the per-request budget (fuel/deadline → 429).
    AdmissionRejects,
    /// Requests whose worker caught a handler panic (answered 500; the
    /// worker survives).
    RequestPanics,
    /// WAL records shipped to replication followers (leader side,
    /// counted per record served by `GET /v1/{t}/wal`).
    ReplRecordsShipped,
    /// Shipped WAL records applied through the incremental edit path
    /// on a replication follower.
    ReplRecordsApplied,
    /// Replication lag observed at WAL polls, in bytes behind the
    /// leader's log end, summed over polls (a caught-up follower adds
    /// 0 per poll; live instantaneous lag is in the follower's
    /// `/healthz`).
    ReplLag,
    /// Full snapshot bootstraps a follower performed (initial catch-up
    /// plus every re-snapshot the compaction handshake forced).
    SnapshotBootstraps,
}

impl Counter {
    /// Every counter, in declaration (and serialization) order.
    pub const ALL: [Counter; 27] = [
        Counter::DepsFired,
        Counter::WorklistSteps,
        Counter::AtomsAllocated,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheEvicted,
        Counter::CacheRetained,
        Counter::ChaseRounds,
        Counter::ChaseTuples,
        Counter::BatchQueries,
        Counter::BatchThreads,
        Counter::FuelSpent,
        Counter::CertNodes,
        Counter::CertTuples,
        Counter::WalAppends,
        Counter::WalFsyncs,
        Counter::SnapshotWrites,
        Counter::RecoveryReplayedOps,
        Counter::ConnsAccepted,
        Counter::HttpRequests,
        Counter::KeepaliveReuses,
        Counter::AdmissionRejects,
        Counter::RequestPanics,
        Counter::ReplRecordsShipped,
        Counter::ReplRecordsApplied,
        Counter::ReplLag,
        Counter::SnapshotBootstraps,
    ];

    /// Stable snake_case name used in `--metrics` JSON and the perf
    /// baseline.
    pub fn name(self) -> &'static str {
        match self {
            Counter::DepsFired => "deps_fired",
            Counter::WorklistSteps => "worklist_steps",
            Counter::AtomsAllocated => "atoms_allocated",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheEvicted => "cache_evicted",
            Counter::CacheRetained => "cache_retained",
            Counter::ChaseRounds => "chase_rounds",
            Counter::ChaseTuples => "chase_tuples",
            Counter::BatchQueries => "batch_queries",
            Counter::BatchThreads => "batch_threads",
            Counter::FuelSpent => "fuel_spent",
            Counter::CertNodes => "cert_nodes",
            Counter::CertTuples => "cert_tuples",
            Counter::WalAppends => "wal_appends",
            Counter::WalFsyncs => "wal_fsyncs",
            Counter::SnapshotWrites => "snapshot_writes",
            Counter::RecoveryReplayedOps => "recovery_replayed_ops",
            Counter::ConnsAccepted => "conns_accepted",
            Counter::HttpRequests => "requests",
            Counter::KeepaliveReuses => "keepalive_reuses",
            Counter::AdmissionRejects => "admission_rejects",
            Counter::RequestPanics => "request_panics",
            Counter::ReplRecordsShipped => "repl_records_shipped",
            Counter::ReplRecordsApplied => "repl_records_applied",
            Counter::ReplLag => "repl_lag",
            Counter::SnapshotBootstraps => "snapshot_bootstraps",
        }
    }
}

/// Log2-bucketed histograms for latency / work distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Hist {
    /// Wall nanoseconds per batch query.
    QueryNs,
    /// Wall nanoseconds per batch-planner group.
    GroupNs,
    /// Dependencies fired per closure fixpoint run.
    FiredPerClosure,
    /// Admission-queue depth sampled at each enqueue attempt (the
    /// connections already waiting when a new one arrives).
    QueueDepth,
    /// Wall nanoseconds per HTTP request, parse to last response byte.
    RequestNs,
}

impl Hist {
    /// Every histogram, in declaration (and serialization) order.
    pub const ALL: [Hist; 5] = [
        Hist::QueryNs,
        Hist::GroupNs,
        Hist::FiredPerClosure,
        Hist::QueueDepth,
        Hist::RequestNs,
    ];

    /// Stable snake_case name used in `--metrics` JSON.
    pub fn name(self) -> &'static str {
        match self {
            Hist::QueryNs => "query_ns",
            Hist::GroupNs => "group_ns",
            Hist::FiredPerClosure => "fired_per_closure",
            Hist::QueueDepth => "queue_depth",
            Hist::RequestNs => "request_ns",
        }
    }
}

/// Number of log2 buckets: bucket 0 holds value 0, bucket `k` (1..=64)
/// holds values whose highest set bit is bit `k-1`, i.e. `[2^(k-1), 2^k)`.
pub const BUCKETS: usize = 65;

/// Bucket index for a histogram value (see [`BUCKETS`]).
#[must_use]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Opaque handle returned by [`Recorder::enter`], passed back to
/// [`Recorder::exit`]. The noop token is inert.
#[derive(Debug, Clone, Copy)]
pub struct SpanToken(usize);

impl SpanToken {
    const NOOP: SpanToken = SpanToken(usize::MAX);
}

/// The observability sink. Implementations must be cheap and must never
/// perturb the computation they observe (asserted by proptest: noop and
/// metrics recorders yield bit-identical reasoning results).
pub trait Recorder: Send + Sync + fmt::Debug {
    /// `false` means callers may skip payload computation entirely;
    /// instrumented hot loops check this once, outside the loop.
    fn enabled(&self) -> bool;

    /// Opens a span at `site`. `payload` conventionally carries the
    /// input size (deps in Σ, atom count, group size, …).
    fn enter(&self, site: &'static str, payload: u64) -> SpanToken;

    /// Closes a span. `payload` conventionally carries the work done
    /// (deps fired, entries evicted, 1/0 for hit/miss, …).
    fn exit(&self, token: SpanToken, payload: u64);

    /// Adds `n` to a counter. One relaxed atomic add when enabled.
    fn add(&self, counter: Counter, n: u64);

    /// Records one observation into a histogram.
    fn observe(&self, hist: Hist, value: u64);

    /// Point-in-time snapshot, when this recorder keeps state
    /// ([`MetricsRecorder`] does; the default — and [`NoopRecorder`] —
    /// report `None`). Lets long-lived consumers (the serve layer's
    /// `GET /metrics`) expose whatever recorder they were handed
    /// without knowing its concrete type.
    fn try_snapshot(&self) -> Option<MetricsSnapshot> {
        None
    }
}

/// The disabled recorder: every method is an inline empty body, so an
/// instrumented call site costs one predictable branch at most — in
/// practice the optimizer removes it entirely (asserted by the
/// perf-smoke noop-overhead comparison).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn enter(&self, _site: &'static str, _payload: u64) -> SpanToken {
        SpanToken::NOOP
    }

    #[inline(always)]
    fn exit(&self, _token: SpanToken, _payload: u64) {}

    #[inline(always)]
    fn add(&self, _counter: Counter, _n: u64) {}

    #[inline(always)]
    fn observe(&self, _hist: Hist, _value: u64) {}
}

/// The shared disabled recorder, for callers with nothing to observe —
/// the recorder counterpart of `Budget::unlimited()`.
#[must_use]
pub fn noop() -> &'static NoopRecorder {
    static NOOP: NoopRecorder = NoopRecorder;
    &NOOP
}

/// One atomic histogram: count, sum, and 65 log2 buckets.
#[derive(Debug)]
struct HistCore {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistCore {
    fn new() -> Self {
        HistCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// One recorded span, exposed via [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static site id (one of [`site`]'s constants, or caller-defined).
    pub site: &'static str,
    /// Payload passed to [`Recorder::enter`].
    pub payload_in: u64,
    /// Payload passed to [`Recorder::exit`] (0 if the span never exited,
    /// e.g. the computation errored out between enter and exit).
    pub payload_out: u64,
    /// Nesting depth within the opening thread (0 = root).
    pub depth: u32,
    /// Dense per-recorder-process thread index (0 = first thread seen).
    pub thread: u32,
    /// Start offset in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 if the span never exited).
    pub dur_ns: u64,
}

/// Point-in-time copy of a [`MetricsRecorder`]'s state.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-histogram summaries, in [`Hist::ALL`] order.
    pub hists: Vec<HistSnapshot>,
    /// All spans recorded so far, in enter order.
    pub spans: Vec<SpanRecord>,
    /// Nanoseconds since the recorder was created.
    pub elapsed_ns: u64,
}

/// Summary of one histogram.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// Stable name ([`Hist::name`]).
    pub name: &'static str,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty buckets as `(bucket_index, count)` pairs.
    pub buckets: Vec<(usize, u64)>,
}

impl HistSnapshot {
    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (`q` in `[0, 1]`), or `None` when the histogram is empty. Log2
    /// buckets make this a ≤2× overestimate — good enough for coarse
    /// latency bounds (smoke-test p99 checks), not for benchmarks,
    /// which record exact samples instead.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // bucket 0 holds the value 0; bucket k holds [2^(k-1), 2^k)
        let upper = |ix: usize| -> u64 {
            match ix {
                0 => 0,
                1..=63 => (1u64 << ix) - 1,
                _ => u64::MAX,
            }
        };
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(ix, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(upper(ix));
            }
        }
        self.buckets.last().map(|&(ix, _)| upper(ix))
    }
}

/// JSON string escape (quotes included) for the metrics document.
/// Local to `obs` because the crate deliberately has no dependencies;
/// the richer parser lives in `nalist-types`.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serialises a [`MetricsSnapshot`] as the `--metrics` / `GET /metrics`
/// JSON document (`schema_version` 3). Every counter in
/// [`Counter::ALL`] order and every histogram appear unconditionally,
/// so consumers can rely on the full key set; a key set change bumps
/// `schema_version` (3 dropped the two work-stealing counters).
/// Spans carry the fields of
/// [`SpanRecord`] verbatim. `in_progress` marks mid-run flushes from
/// long-lived commands (serve, replay), whose `exit_code` is
/// necessarily provisional.
#[must_use]
pub fn render_snapshot_json(
    command: &str,
    exit_code: i32,
    in_progress: bool,
    snap: &MetricsSnapshot,
) -> String {
    render_snapshot_json_with(command, exit_code, in_progress, snap, &[])
}

/// [`render_snapshot_json`] with extra top-level fields: each
/// `(key, raw_json_value)` pair is emitted verbatim after the stamp
/// fields. The fixed key set of the base document is unchanged —
/// consumers that rely on it keep working; the serve layer uses this
/// to add a `replication` object to a follower's `GET /metrics`.
#[must_use]
pub fn render_snapshot_json_with(
    command: &str,
    exit_code: i32,
    in_progress: bool,
    snap: &MetricsSnapshot,
    extras: &[(&str, String)],
) -> String {
    use fmt::Write as _;
    let mut out = String::from("{\n");
    writeln!(out, "  \"schema_version\": 3,").unwrap();
    for (key, value) in extras {
        writeln!(out, "  {}: {value},", json_escape(key)).unwrap();
    }
    writeln!(out, "  \"command\": {},", json_escape(command)).unwrap();
    writeln!(out, "  \"exit_code\": {exit_code},").unwrap();
    writeln!(out, "  \"in_progress\": {in_progress},").unwrap();
    // Honest machine stamp: consumers comparing metrics across hosts
    // need to know how many CPUs the run actually had, and
    // `batch_threads` counts workers, which may outnumber them.
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    writeln!(out, "  \"cpus\": {cpus},").unwrap();
    writeln!(out, "  \"elapsed_ns\": {},", snap.elapsed_ns).unwrap();
    out.push_str("  \"counters\": {\n");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        let sep = if i + 1 == snap.counters.len() {
            ""
        } else {
            ","
        };
        writeln!(out, "    {}: {value}{sep}", json_escape(name)).unwrap();
    }
    out.push_str("  },\n  \"histograms\": [\n");
    for (i, h) in snap.hists.iter().enumerate() {
        let sep = if i + 1 == snap.hists.len() { "" } else { "," };
        let buckets: Vec<String> = h
            .buckets
            .iter()
            .map(|(ix, n)| format!("[{ix}, {n}]"))
            .collect();
        writeln!(
            out,
            "    {{\"name\": {}, \"count\": {}, \"sum\": {}, \"buckets\": [{}]}}{sep}",
            json_escape(h.name),
            h.count,
            h.sum,
            buckets.join(", ")
        )
        .unwrap();
    }
    out.push_str("  ],\n  \"spans\": [\n");
    for (i, s) in snap.spans.iter().enumerate() {
        let sep = if i + 1 == snap.spans.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"site\": {}, \"thread\": {}, \"depth\": {}, \"payload_in\": {}, \
             \"payload_out\": {}, \"start_ns\": {}, \"dur_ns\": {}}}{sep}",
            json_escape(s.site),
            s.thread,
            s.depth,
            s.payload_in,
            s.payload_out,
            s.start_ns,
            s.dur_ns
        )
        .unwrap();
    }
    out.push_str("  ]\n}\n");
    out
}

thread_local! {
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    static THREAD_IX: std::cell::Cell<u32> = const { std::cell::Cell::new(u32::MAX) };
}

static NEXT_THREAD_IX: AtomicU32 = AtomicU32::new(0);

fn thread_ix() -> u32 {
    THREAD_IX.with(|c| {
        let v = c.get();
        if v != u32::MAX {
            return v;
        }
        let fresh = NEXT_THREAD_IX.fetch_add(1, Ordering::Relaxed);
        c.set(fresh);
        fresh
    })
}

/// The real recorder: lock-free counters and histograms, a mutex-guarded
/// span buffer (spans are coarse by convention, so the lock is cold).
#[derive(Debug)]
pub struct MetricsRecorder {
    origin: Instant,
    counters: [AtomicU64; Counter::ALL.len()],
    hists: [HistCore; Hist::ALL.len()],
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        MetricsRecorder::new()
    }
}

impl MetricsRecorder {
    /// A fresh recorder; the creation instant anchors all span offsets.
    #[must_use]
    pub fn new() -> Self {
        MetricsRecorder {
            origin: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| HistCore::new()),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Current value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Copies out counters, histograms and spans.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name(), self.counter(c)))
            .collect();
        let hists = Hist::ALL
            .iter()
            .map(|&h| {
                let core = &self.hists[h as usize];
                let buckets = core
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then_some((i, n))
                    })
                    .collect();
                HistSnapshot {
                    name: h.name(),
                    count: core.count.load(Ordering::Relaxed),
                    sum: core.sum.load(Ordering::Relaxed),
                    buckets,
                }
            })
            .collect();
        let spans = self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        MetricsSnapshot {
            counters,
            hists,
            spans,
            elapsed_ns: self.now_ns(),
        }
    }

    /// Renders the recorded spans as a rustc-style indented tree, one
    /// block per thread, for `--trace`:
    ///
    /// ```text
    /// trace (thread 0):
    ///   cli::command in=0 out=1 2.10ms
    ///     membership::worklist in=4 out=3 310.00µs
    /// ```
    #[must_use]
    pub fn render_trace(&self) -> String {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut threads: Vec<u32> = spans.iter().map(|s| s.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        let mut out = String::new();
        for t in threads {
            out.push_str(&format!("trace (thread {t}):\n"));
            for s in spans.iter().filter(|s| s.thread == t) {
                let indent = "  ".repeat(s.depth as usize + 1);
                out.push_str(&format!(
                    "{indent}{} in={} out={} {}\n",
                    s.site,
                    s.payload_in,
                    s.payload_out,
                    fmt_ns(s.dur_ns)
                ));
            }
        }
        out
    }
}

/// Formats nanoseconds with an adaptive unit, for trace output.
#[must_use]
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl Recorder for MetricsRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn enter(&self, site: &'static str, payload: u64) -> SpanToken {
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        let record = SpanRecord {
            site,
            payload_in: payload,
            payload_out: 0,
            depth,
            thread: thread_ix(),
            start_ns: self.now_ns(),
            dur_ns: 0,
        };
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let ix = spans.len();
        spans.push(record);
        SpanToken(ix)
    }

    fn exit(&self, token: SpanToken, payload: u64) {
        if token.0 == usize::MAX {
            return;
        }
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let end = self.now_ns();
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(s) = spans.get_mut(token.0) {
            s.payload_out = payload;
            s.dur_ns = end.saturating_sub(s.start_ns);
        }
    }

    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn observe(&self, hist: Hist, value: u64) {
        let core = &self.hists[hist as usize];
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    fn try_snapshot(&self) -> Option<MetricsSnapshot> {
        Some(self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn noop_is_disabled_and_inert() {
        let r = NoopRecorder;
        assert!(!r.enabled());
        let t = r.enter(site::WORKLIST, 7);
        r.exit(t, 3);
        r.add(Counter::DepsFired, 10);
        r.observe(Hist::QueryNs, 123);
        // the shared instance behaves the same
        assert!(!noop().enabled());
    }

    #[test]
    fn counters_and_hists_accumulate() {
        let r = MetricsRecorder::new();
        r.add(Counter::DepsFired, 3);
        r.add(Counter::DepsFired, 4);
        r.observe(Hist::QueryNs, 0);
        r.observe(Hist::QueryNs, 5);
        r.observe(Hist::QueryNs, 5);
        let snap = r.snapshot();
        let deps = snap
            .counters
            .iter()
            .find(|(n, _)| *n == "deps_fired")
            .unwrap();
        assert_eq!(deps.1, 7);
        let q = &snap.hists[Hist::QueryNs as usize];
        assert_eq!(q.count, 3);
        assert_eq!(q.sum, 10);
        assert_eq!(q.buckets, vec![(0, 1), (bucket_of(5), 2)]);
    }

    #[test]
    fn spans_nest_by_depth_and_render() {
        let r = MetricsRecorder::new();
        let outer = r.enter(site::CLI_COMMAND, 0);
        let inner = r.enter(site::WORKLIST, 4);
        r.exit(inner, 2);
        r.exit(outer, 1);
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].depth, 0);
        assert_eq!(snap.spans[1].depth, 1);
        assert_eq!(snap.spans[1].payload_out, 2);
        let tree = r.render_trace();
        assert!(tree.contains("cli::command in=0 out=1"));
        assert!(tree.contains("    membership::worklist in=4 out=2"));
    }

    #[test]
    fn unexited_span_has_zero_duration() {
        let r = MetricsRecorder::new();
        let _leaked = r.enter(site::CHASE, 1);
        let snap = r.snapshot();
        assert_eq!(snap.spans[0].dur_ns, 0);
        assert_eq!(snap.spans[0].payload_out, 0);
        // rebalance the thread-local depth for later tests on this thread
        DEPTH.with(|d| d.set(0));
    }

    #[test]
    fn counter_and_hist_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Hist::ALL.iter().map(|h| h.name()));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn recorder_is_object_safe_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MetricsRecorder>();
        assert_send_sync::<NoopRecorder>();
        let _obj: &dyn Recorder = noop();
    }
}
