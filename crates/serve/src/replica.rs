//! The replication follower: WAL-shipping read replicas.
//!
//! A follower is an ordinary server whose tenants are *installed*, not
//! created: a supervisor thread discovers the leader's tenants via
//! `/healthz`, and one tailer thread per tenant keeps its local
//! reasoner current in two moves —
//!
//! 1. **bootstrap** — `GET /v1/{t}/snapshot` ships the leader's live
//!    state as `NALSNAP1` bytes together with the WAL offset the
//!    snapshot is consistent with (`x-wal-from`), taken under the
//!    leader's reasoner read lock so journaled == applied;
//! 2. **tail** — `GET /v1/{t}/wal?from=<offset>` long-polls raw log
//!    bytes, which the follower re-verifies (every CRC, *strict* — a
//!    torn or flipped shipment is a typed reject and a re-fetch, never
//!    a partial apply) and replays through
//!    [`nalist_membership::apply_wal_op`], the same primitive crash
//!    recovery uses. Follower state is therefore bit-identical to the
//!    leader's by construction, not by diffing.
//!
//! The offset handshake also detects compaction: every fresh leader
//! log carries a new `wal_id` (regenerated on tenant creation and on
//! restart, which compacts), and the leader answers `416` when a
//! follower's offset outlives the log. Either signal sends the
//! follower back to step 1. While the leader is unreachable the
//! follower keeps serving reads from its last consistent state and
//! retries with backoff.
//!
//! Readiness is a latch: `/healthz` answers `503` until every
//! discovered tenant has caught up with the leader once, then stays
//! ready (stale-but-consistent reads are the point of a replica; the
//! instantaneous lag is always reported alongside).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use nalist_guard::Budget;
use nalist_membership::{apply_wal_op, restore_reasoner, WalOp};
use nalist_obs::{Counter, Recorder};
use nalist_types::json::{escape, parse as parse_json};

use crate::api::{ApiError, ServiceState, MAX_WAL_WAIT_MS};
use crate::server::{start_with_replication, Server, ServerConfig};

/// Upper bound on one fetched response body (snapshot or WAL slice).
/// The WAL endpoint caps itself at [`crate::api::MAX_WAL_SHIPMENT`];
/// this guards the snapshot path and malformed peers.
const MAX_FETCH_BYTES: usize = 256 * 1024 * 1024;

/// Backoff between retries when the leader is unreachable or answers
/// with an error the follower can only wait out.
const RETRY_BACKOFF: Duration = Duration::from_millis(200);

/// How often the supervisor re-polls the leader's tenant list.
const DISCOVERY_INTERVAL: Duration = Duration::from_millis(500);

/// Per-tenant replication progress, as exposed in `/healthz` and
/// `/metrics` on the follower.
#[derive(Debug, Clone, Default)]
pub struct TenantRepl {
    /// Next WAL byte offset to fetch from the leader.
    pub offset: u64,
    /// WAL incarnation the offset belongs to (`0` before bootstrap).
    pub wal_id: u64,
    /// Leader log length at the last successful exchange.
    pub log_len: u64,
    /// Whether this tenant has caught up with the leader at least once.
    pub caught_up: bool,
    /// Snapshot bootstraps performed (1 + one per detected compaction).
    pub bootstraps: u64,
    /// Records fetched but not yet applied (non-zero only mid-replay).
    pub pending_records: u64,
    /// Records replayed into the local reasoner, lifetime total.
    pub applied_records: u64,
    /// Shipped segments rejected by re-verification (corrupt in
    /// flight) and re-fetched.
    pub rejected_segments: u64,
}

/// Shared follower status: the server's routes read it (readiness
/// gate, write rejection, lag report), the tailer threads write it.
#[derive(Debug)]
pub struct ReplStatus {
    leader: String,
    /// Set after the first successful tenant discovery; until then the
    /// follower cannot claim readiness even with zero tenants.
    discovered: AtomicBool,
    tenants: Mutex<BTreeMap<String, TenantRepl>>,
}

impl ReplStatus {
    /// A fresh status for a follower of `leader` (`host:port`).
    #[must_use]
    pub fn new(leader: &str) -> ReplStatus {
        ReplStatus {
            leader: leader.to_string(),
            discovered: AtomicBool::new(false),
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// The leader's address, for the `421` pointer and the lag report.
    #[must_use]
    pub fn leader(&self) -> &str {
        &self.leader
    }

    /// Whether the follower may serve: tenants discovered and every
    /// one caught up with the leader at least once. A latch — later
    /// lag (or a leader outage) does not flip a ready follower back,
    /// because its state stays consistent, merely stale.
    #[must_use]
    pub fn ready(&self) -> bool {
        self.discovered.load(Ordering::SeqCst)
            && self
                .tenants
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .values()
                .all(|t| t.caught_up)
    }

    /// Instantaneous lag summed over tenants: `(records fetched but
    /// not yet applied, bytes of leader log not yet fetched)`. Both
    /// are zero when fully caught up; bytes go stale (last known
    /// leader length) while the leader is unreachable.
    #[must_use]
    pub fn lag(&self) -> (u64, u64) {
        let tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        let records = tenants.values().map(|t| t.pending_records).sum();
        let bytes = tenants
            .values()
            .map(|t| t.log_len.saturating_sub(t.offset))
            .sum();
        (records, bytes)
    }

    /// Total shipped segments rejected by strict re-verification
    /// (corrupt in flight) across tenants.
    #[must_use]
    pub fn rejected_segments(&self) -> u64 {
        self.tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|t| t.rejected_segments)
            .sum()
    }

    /// Total snapshot bootstraps across tenants.
    #[must_use]
    pub fn bootstraps(&self) -> u64 {
        self.tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|t| t.bootstraps)
            .sum()
    }

    /// The `"replication"` object embedded in the follower's
    /// `/metrics` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let ready = self.ready();
        let (lag_records, lag_bytes) = self.lag();
        let tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        let per_tenant: Vec<String> = tenants
            .iter()
            .map(|(name, t)| {
                format!(
                    "{}: {{\"offset\": {}, \"wal_id\": {}, \"log_len\": {}, \
                     \"caught_up\": {}, \"bootstraps\": {}, \"applied_records\": {}, \
                     \"rejected_segments\": {}}}",
                    escape(name),
                    t.offset,
                    t.wal_id,
                    t.log_len,
                    t.caught_up,
                    t.bootstraps,
                    t.applied_records,
                    t.rejected_segments
                )
            })
            .collect();
        format!(
            "{{\"role\": \"follower\", \"leader\": {}, \"ready\": {ready}, \
             \"lag\": {{\"records\": {lag_records}, \"bytes\": {lag_bytes}}}, \
             \"tenants\": {{{}}}}}",
            escape(&self.leader),
            per_tenant.join(", ")
        )
    }

    /// Registers newly discovered tenant names (as not-yet-caught-up,
    /// *before* their tailers spawn, so readiness cannot race past
    /// them) and marks discovery done. Returns the names that are new.
    fn admit(&self, names: &[String]) -> Vec<String> {
        let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        let fresh: Vec<String> = names
            .iter()
            .filter(|n| !tenants.contains_key(*n))
            .cloned()
            .collect();
        for name in &fresh {
            tenants.insert(name.clone(), TenantRepl::default());
        }
        drop(tenants);
        self.discovered.store(true, Ordering::SeqCst);
        fresh
    }

    /// Updates one tenant's entry in place.
    fn update(&self, name: &str, f: impl FnOnce(&mut TenantRepl)) {
        let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        f(tenants.entry(name.to_string()).or_default());
    }
}

/// One fetched HTTP response: status, lower-cased headers, raw body.
#[derive(Debug)]
pub(crate) struct Fetched {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Fetched {
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub(crate) fn header_u64(&self, name: &str) -> Option<u64> {
        self.header(name).and_then(|v| v.parse().ok())
    }
}

/// A blocking binary-capable `GET` on a fresh connection. Replication
/// exchanges are infrequent relative to query traffic, so per-request
/// connect cost is irrelevant next to not sharing a socket between the
/// long-polling tailer and anything else.
pub(crate) fn http_get(addr: &str, path: &str, timeout: Duration) -> Result<Fetched, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    let req = format!("GET {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n");
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("send {path}: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("read {path}: {e}"))?;
        if n == 0 {
            return Err(format!("{path}: connection closed before response head"));
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.len() > MAX_FETCH_BYTES {
            return Err(format!("{path}: response head exceeds the fetch cap"));
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{path}: bad status line {status_line:?}"))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value.parse().ok();
        }
        headers.push((name, value));
    }
    let mut body = buf[head_end + 4..].to_vec();
    // `connection: close` lets EOF terminate the body; the declared
    // length still bounds it when present.
    loop {
        if let Some(len) = content_length {
            if len > MAX_FETCH_BYTES {
                return Err(format!("{path}: declared body exceeds the fetch cap"));
            }
            if body.len() >= len {
                body.truncate(len);
                break;
            }
        }
        if body.len() > MAX_FETCH_BYTES {
            return Err(format!("{path}: body exceeds the fetch cap"));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("read {path}: {e}"))?;
        if n == 0 {
            if let Some(len) = content_length {
                if body.len() < len {
                    return Err(format!("{path}: connection closed mid-body"));
                }
            }
            break;
        }
        body.extend_from_slice(&chunk[..n]);
    }
    Ok(Fetched {
        status,
        headers,
        body,
    })
}

/// Follower configuration.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// The local server the follower answers reads from. `wal_dir` is
    /// ignored: a follower keeps no durable state of its own — on
    /// restart it re-bootstraps from the leader, which *is* its
    /// durability story.
    pub server: ServerConfig,
    /// Leader address, `host:port`.
    pub leader: String,
    /// Long-poll wait the tailers ask the leader for when caught up.
    pub poll_wait_ms: u64,
}

impl Default for FollowerConfig {
    fn default() -> Self {
        FollowerConfig {
            server: ServerConfig::default(),
            leader: "127.0.0.1:7070".to_string(),
            poll_wait_ms: 400,
        }
    }
}

/// A running follower: the read-serving server plus the replication
/// threads. Stop with [`Follower::shutdown`].
#[derive(Debug)]
pub struct Follower {
    server: Server,
    status: Arc<ReplStatus>,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Follower {
    /// The actually-bound local address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The shared service state (registry, budgets).
    #[must_use]
    pub fn state(&self) -> &Arc<ServiceState> {
        self.server.state()
    }

    /// The replication status the routes report from.
    #[must_use]
    pub fn status(&self) -> &Arc<ReplStatus> {
        &self.status
    }

    /// Stops tailing and shuts the server down. In-flight replays
    /// finish; the follower's state stays consistent to the last
    /// applied record.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads {
            let _ = t.join();
        }
        self.server.shutdown();
    }
}

/// Starts a follower of `cfg.leader`: binds the local server
/// immediately (answering `503` from `/healthz` until caught up) and
/// spawns the discovery supervisor, which spawns one tailer per
/// leader tenant.
pub fn start_follower(cfg: &FollowerConfig, rec: Arc<dyn Recorder>) -> Result<Follower, ApiError> {
    let mut server_cfg = cfg.server.clone();
    server_cfg.wal_dir = None;
    let status = Arc::new(ReplStatus::new(&cfg.leader));
    let server = start_with_replication(&server_cfg, Arc::clone(&rec), Some(Arc::clone(&status)))?;
    let stop = Arc::new(AtomicBool::new(false));
    let supervisor = {
        let state = Arc::clone(server.state());
        let status = Arc::clone(&status);
        let stop = Arc::clone(&stop);
        let rec = Arc::clone(&rec);
        let cfg = cfg.clone();
        std::thread::spawn(move || supervise(&cfg, &state, &status, &rec, &stop))
    };
    Ok(Follower {
        server,
        status,
        stop,
        threads: vec![supervisor],
    })
}

/// Sleeps `total` in small steps, returning early when `stop` is set.
fn sleep_unless_stopped(stop: &AtomicBool, total: Duration) {
    let step = Duration::from_millis(25);
    let mut left = total;
    while !stop.load(Ordering::SeqCst) && !left.is_zero() {
        let d = step.min(left);
        std::thread::sleep(d);
        left = left.saturating_sub(d);
    }
}

/// The discovery loop: polls the leader's `/healthz` for tenant names
/// and spawns a tailer for each new one. Tailers are never reaped —
/// tenants cannot be deleted — so the supervisor joins them on stop.
fn supervise(
    cfg: &FollowerConfig,
    state: &Arc<ServiceState>,
    status: &Arc<ReplStatus>,
    rec: &Arc<dyn Recorder>,
    stop: &Arc<AtomicBool>,
) {
    let mut tailers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        if let Some(names) = discover(&cfg.leader) {
            for name in status.admit(&names) {
                let cfg = cfg.clone();
                let state = Arc::clone(state);
                let status = Arc::clone(status);
                let rec = Arc::clone(rec);
                let stop = Arc::clone(stop);
                tailers.push(std::thread::spawn(move || {
                    tail_tenant(&cfg, &state, &status, &rec, &stop, &name);
                }));
            }
        }
        sleep_unless_stopped(stop, DISCOVERY_INTERVAL);
    }
    for t in tailers {
        let _ = t.join();
    }
}

/// One `/healthz` poll: the leader's tenant names, if reachable.
fn discover(leader: &str) -> Option<Vec<String>> {
    let resp = http_get(leader, "/healthz", Duration::from_secs(5)).ok()?;
    if resp.status != 200 {
        return None;
    }
    let text = std::str::from_utf8(&resp.body).ok()?;
    let doc = parse_json(text).ok()?;
    let names = doc.get("names")?.as_arr()?;
    Some(
        names
            .iter()
            .filter_map(|n| n.as_str().map(str::to_string))
            .collect(),
    )
}

/// Why one tailer step could not advance.
enum TailStep {
    /// Applied (or confirmed empty); keep tailing from the new offset.
    Advanced,
    /// The offsets are for a log that no longer exists (compaction,
    /// `416`, a divergent record): snapshot again.
    Resnapshot,
    /// Transient (leader down, corrupt-in-flight shipment): retry the
    /// same exchange after backoff.
    Retry,
}

/// The per-tenant replication loop: bootstrap, then tail forever.
fn tail_tenant(
    cfg: &FollowerConfig,
    state: &Arc<ServiceState>,
    status: &Arc<ReplStatus>,
    rec: &Arc<dyn Recorder>,
    stop: &Arc<AtomicBool>,
    name: &str,
) {
    let mut bootstrapped = false;
    while !stop.load(Ordering::SeqCst) {
        if !bootstrapped {
            if bootstrap(cfg, state, status, rec, name) {
                bootstrapped = true;
            } else {
                sleep_unless_stopped(stop, RETRY_BACKOFF);
            }
            continue;
        }
        match tail_once(cfg, state, status, rec, name) {
            TailStep::Advanced => {}
            TailStep::Resnapshot => bootstrapped = false,
            TailStep::Retry => sleep_unless_stopped(stop, RETRY_BACKOFF),
        }
    }
}

/// Fetches and installs a snapshot of `name`; returns success.
fn bootstrap(
    cfg: &FollowerConfig,
    state: &Arc<ServiceState>,
    status: &Arc<ReplStatus>,
    rec: &Arc<dyn Recorder>,
    name: &str,
) -> bool {
    let path = format!("/v1/{name}/snapshot");
    let Ok(resp) = http_get(&cfg.leader, &path, Duration::from_secs(30)) else {
        return false;
    };
    if resp.status != 200 {
        return false;
    }
    let (Some(wal_id), Some(from)) = (resp.header_u64("x-wal-id"), resp.header_u64("x-wal-from"))
    else {
        return false;
    };
    let Ok(payload) = nalist_store::decode_snapshot(&resp.body) else {
        return false;
    };
    let Ok(reasoner) = restore_reasoner(&payload, &Budget::unlimited(), Arc::clone(rec)) else {
        return false;
    };
    if state.registry.install(name, reasoner).is_err() {
        return false;
    }
    rec.add(Counter::SnapshotBootstraps, 1);
    status.update(name, |t| {
        t.offset = from;
        t.wal_id = wal_id;
        t.log_len = from;
        t.pending_records = 0;
        t.bootstraps += 1;
    });
    true
}

/// One tail exchange: fetch a WAL slice at the current offset, verify
/// it strictly, replay it through the ordinary incremental edit path.
fn tail_once(
    cfg: &FollowerConfig,
    state: &Arc<ServiceState>,
    status: &Arc<ReplStatus>,
    rec: &Arc<dyn Recorder>,
    name: &str,
) -> TailStep {
    let (offset, wal_id) = {
        let mut got = (0, 0);
        status.update(name, |t| got = (t.offset, t.wal_id));
        got
    };
    let wait = cfg.poll_wait_ms.min(MAX_WAL_WAIT_MS);
    let path = format!("/v1/{name}/wal?from={offset}&wait_ms={wait}");
    let Ok(resp) = http_get(&cfg.leader, &path, Duration::from_secs(30)) else {
        return TailStep::Retry;
    };
    if resp.status == 416 {
        // The compaction handshake: our offset outlived the log.
        return TailStep::Resnapshot;
    }
    if resp.status != 200 {
        return TailStep::Retry;
    }
    match resp.header_u64("x-wal-id") {
        Some(id) if id == wal_id => {}
        // A fresh log (leader restarted and compacted, or the tenant
        // was re-created): our offset means nothing in it, even if it
        // happens to be in range.
        _ => return TailStep::Resnapshot,
    }
    let log_len = resp.header_u64("x-wal-len").unwrap_or(offset);
    // Strict re-verification: every CRC, no torn-tail tolerance. A
    // byte flipped in flight is a typed reject and a re-fetch of the
    // same offsets — never a partial or corrupted apply.
    let seg = match nalist_store::parse_wal_segment(&resp.body, offset, false) {
        Ok(seg) => seg,
        Err(_) => {
            status.update(name, |t| t.rejected_segments += 1);
            return TailStep::Retry;
        }
    };
    let records = seg.records.len() as u64;
    status.update(name, |t| {
        t.pending_records = records;
        t.log_len = log_len.max(seg.end);
    });
    if records > 0 {
        let Some(tenant) = state.registry.get(name) else {
            return TailStep::Resnapshot;
        };
        let mut r = tenant
            .reasoner
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        for (index, (record_offset, payload)) in seg.records.iter().enumerate() {
            let op = match WalOp::decode(payload, *record_offset) {
                Ok(op) => op,
                // CRC-valid but undecodable or unreplayable records mean
                // the streams diverged — resync from a fresh snapshot.
                Err(_) => return TailStep::Resnapshot,
            };
            if apply_wal_op(&mut r, op, index, &Budget::unlimited()).is_err() {
                return TailStep::Resnapshot;
            }
        }
        drop(r);
        rec.add(Counter::ReplRecordsApplied, records);
    }
    // `repl_lag` is monotone like every counter: it accumulates the
    // bytes-behind observed at each exchange. The instantaneous lag
    // lives in `/healthz` and the `/metrics` replication object.
    rec.add(Counter::ReplLag, log_len.saturating_sub(seg.end));
    status.update(name, |t| {
        t.offset = seg.end;
        t.pending_records = 0;
        t.applied_records += records;
        if t.offset >= t.log_len {
            t.caught_up = true;
        }
    });
    TailStep::Advanced
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readiness_is_a_latch_over_all_discovered_tenants() {
        let status = ReplStatus::new("127.0.0.1:1");
        assert!(!status.ready(), "undiscovered follower must not be ready");
        let fresh = status.admit(&["a".to_string(), "b".to_string()]);
        assert_eq!(fresh, vec!["a".to_string(), "b".to_string()]);
        assert!(status.admit(&["a".to_string()]).is_empty());
        assert!(!status.ready(), "admitted but not caught up");
        status.update("a", |t| t.caught_up = true);
        assert!(!status.ready(), "one tenant still behind");
        status.update("b", |t| t.caught_up = true);
        assert!(status.ready());
    }

    #[test]
    fn lag_sums_pending_records_and_unfetched_bytes() {
        let status = ReplStatus::new("127.0.0.1:1");
        status.admit(&["a".to_string(), "b".to_string()]);
        status.update("a", |t| {
            t.offset = 100;
            t.log_len = 150;
            t.pending_records = 2;
        });
        status.update("b", |t| {
            t.offset = 80;
            t.log_len = 90;
        });
        assert_eq!(status.lag(), (2, 60));
        let json = status.to_json();
        assert!(
            json.contains("\"lag\": {\"records\": 2, \"bytes\": 60}"),
            "{json}"
        );
        assert!(json.contains("\"ready\": false"), "{json}");
    }
}
