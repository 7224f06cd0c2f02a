//! Load generation: the open-loop window (each request timed from when it
//! was due) and the closed-loop saturation phase, plus the client-side
//! request spans of a traced run.

use std::time::{Duration, Instant};

use crate::net::Client;
use crate::stats::{Span, SpanLog};
use crate::workload::Op;

/// The last stretch before a due time is waited out by yielding rather
/// than sleeping, so timer slack does not make every send late.
const SPIN: Duration = Duration::from_micros(100);

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the op in its connection's list.
    pub ix: usize,
    pub edit: bool,
    /// Due time to full response, microseconds.
    pub latency_us: f64,
    /// How late the generator sent it, beyond both its due time and the
    /// previous response on the same connection, microseconds.
    pub late_us: f64,
    /// When the full response had arrived.
    pub done: Instant,
    /// HTTP status; `0` for an I/O failure.
    pub status: u16,
    pub body: String,
}

/// One connection's results for a phase.
#[derive(Debug, Default)]
pub struct ConnRun {
    pub samples: Vec<Sample>,
    pub spans: SpanLog,
}

/// Whether a request due at `due` falls in a traced block: the odd
/// blocks of length `block`.
pub fn traced(due: Duration, block: Duration) -> bool {
    (due.as_nanos() / block.as_nanos()) % 2 == 1
}

/// Sends `ops` on schedule: op `i` is due at `start + ops[i].due`.
/// With `trace_block`, requests in traced blocks get client-side spans.
pub fn open_loop(
    client: &mut Client,
    ops: &[Op],
    start: Instant,
    trace_block: Option<Duration>,
    epoch: Instant,
    span_base: u64,
) -> ConnRun {
    let mut run = ConnRun {
        samples: Vec::with_capacity(ops.len()),
        spans: SpanLog::with_base(span_base),
    };
    let mut prev_done = start;
    for (ix, op) in ops.iter().enumerate() {
        let due = start + op.due;
        wait_until(due);
        let sent = Instant::now();
        let late = sent.saturating_duration_since(due.max(prev_done));
        let (status, body, wrote) = exchange(client, op);
        let done = Instant::now();
        prev_done = done;
        if trace_block.is_some_and(|b| traced(op.due, b)) {
            let root = run
                .spans
                .push(Span::new("request", op.id, 0, due, done, epoch));
            run.spans
                .push(Span::new("client.queue", op.id, root, due, sent, epoch));
            run.spans
                .push(Span::new("client.write", op.id, root, sent, wrote, epoch));
            run.spans
                .push(Span::new("client.read", op.id, root, wrote, done, epoch));
        }
        run.samples.push(Sample {
            ix,
            edit: op.is_edit(),
            latency_us: micros(done - due),
            late_us: micros(late),
            done,
            status,
            body,
        });
    }
    run
}

/// Sends `ops` back to back until `until` or the list runs out; with
/// `cycle` the list starts over instead of running out.
pub fn closed_loop(client: &mut Client, ops: &[Op], until: Instant, cycle: bool) -> ConnRun {
    let mut run = ConnRun::default();
    let rounds = if cycle { usize::MAX } else { 1 };
    for ix in (0..rounds).flat_map(|_| 0..ops.len()) {
        let sent = Instant::now();
        if sent >= until {
            break;
        }
        let op = &ops[ix];
        let (status, body, _) = exchange(client, op);
        let done = Instant::now();
        run.samples.push(Sample {
            ix,
            edit: op.is_edit(),
            latency_us: micros(done - sent),
            late_us: 0.0,
            done,
            status,
            body,
        });
    }
    run
}

/// One request; returns the status (`0` on I/O failure), the body, and
/// when the write finished.
fn exchange(client: &mut Client, op: &Op) -> (u16, String, Instant) {
    let res = client.call("POST", &op.target, &op.body);
    let wrote = client.last_write;
    match res {
        Ok((status, body)) => (status, body, wrote),
        Err(e) => (0, e.to_string(), wrote),
    }
}

fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
