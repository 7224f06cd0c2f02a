//! Percentiles, medians and the in-memory span log.

use std::fmt::Write as _;
use std::time::Instant;

/// Nearest-rank percentile `q` (0–1) of `v`; `0.0` when empty.
pub fn pct(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    pct(v, 0.5)
}

/// Cuts time-ordered values into `k` contiguous blocks of equal count,
/// each at least `min_block` long (at most `max_blocks`, at least one),
/// and returns each block's percentile `q`.
pub fn block_pcts(v: &[f64], q: f64, min_block: usize, max_blocks: usize) -> Vec<f64> {
    let k = (v.len() / min_block.max(1)).clamp(1, max_blocks.max(1));
    let n = v.len();
    (0..k)
        .map(|i| pct(&v[i * n / k..(i + 1) * n / k], q))
        .collect()
}

pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// One timed interval: name, op id, parent span, start and end in
/// nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub op: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn new(
        name: &'static str,
        op: u64,
        parent: u64,
        start: Instant,
        end: Instant,
        epoch: Instant,
    ) -> Span {
        Span {
            id: 0,
            name,
            op,
            parent,
            start_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(epoch).as_nanos() as u64,
        }
    }

    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Spans recorded by one thread; ids are unique within a run because
/// each log draws from its own id range.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    pub base: u64,
}

impl SpanLog {
    pub fn with_base(base: u64) -> SpanLog {
        SpanLog {
            spans: Vec::new(),
            base,
        }
    }

    /// Appends `span`, giving it the next id; returns the id.
    pub fn push(&mut self, mut span: Span) -> u64 {
        span.id = self.base + self.spans.len() as u64 + 1;
        let id = span.id;
        self.spans.push(span);
        id
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    pub fn extend(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// JSON lines, one span each.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"op\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.op, s.parent, s.start_ns, s.end_ns
            );
        }
        out
    }
}
