//! The wire side of the harness: a keep-alive HTTP/1.1 client, the
//! `nalist serve` child processes, and their `/proc` accounting.

use std::fs;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One keep-alive connection; reconnects once when the pooled socket
/// turns out dead, and counts it.
pub struct Client {
    addr: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    pub reconnects: u64,
    /// When the last request's bytes were handed to the socket.
    pub last_write: Instant,
}

impl Client {
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            stream: None,
            buf: Vec::with_capacity(8192),
            reconnects: 0,
            last_write: Instant::now(),
        }
    }

    /// One exchange; returns `(status, body)`.
    pub fn call(&mut self, method: &str, target: &str, body: &str) -> io::Result<(u16, String)> {
        let had = self.stream.is_some();
        match self.try_call(method, target, body) {
            Err(_) if had => {
                self.stream = None;
                self.reconnects += 1;
                self.try_call(method, target, body)
                    .inspect_err(|_| self.stream = None)
            }
            other => other,
        }
    }

    fn try_call(&mut self, method: &str, target: &str, body: &str) -> io::Result<(u16, String)> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(s);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let req = request_bytes(method, target, body);
        stream.write_all(&req)?;
        self.last_write = Instant::now();
        let (status, body, close) = read_response(stream, &mut self.buf)?;
        if close {
            self.stream = None;
        }
        Ok((status, body))
    }
}

/// The exact bytes the client sends for one request.
pub fn request_bytes(method: &str, target: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {target} HTTP/1.1\r\nhost: nalist\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads one response; returns `(status, body, server-closes)`.
pub fn read_response(stream: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<(u16, String, bool)> {
    buf.clear();
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "closed before head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut len = 0usize;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            len = value
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    let start = head_end + 4;
    while buf.len() < start + len {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "closed mid-body",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&buf[start..start + len]).into_owned();
    Ok((status, body, close))
}

/// One-off request on a fresh connection that the server closes after
/// answering, so it pins no leader worker.
pub fn once(addr: &str, method: &str, target: &str, body: &str) -> io::Result<(u16, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    let req = format!(
        "{method} {target} HTTP/1.1\r\nhost: nalist\r\nconnection: close\r\n\
         content-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())?;
    let (status, body, _) = read_response(&mut s, &mut Vec::new())?;
    Ok((status, body))
}

/// A running `nalist serve` child.
pub struct ServerProc {
    child: Child,
    pub addr: String,
}

impl ServerProc {
    /// Spawns `nalist serve 127.0.0.1:0 <extra…>` and waits for the port
    /// file. Its stderr goes to `log`.
    pub fn spawn(
        nalist: &Path,
        dir: &Path,
        tag: &str,
        extra: &[String],
    ) -> Result<ServerProc, String> {
        let port_file = dir.join(format!("{tag}.port"));
        let log = fs::File::create(dir.join(format!("{tag}.log")))
            .map_err(|e| format!("cannot create {tag}.log: {e}"))?;
        let mut cmd = Command::new(nalist);
        cmd.arg("serve")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", nalist.display()))?;
        let mut proc = ServerProc {
            child,
            addr: String::new(),
        };
        let t0 = Instant::now();
        loop {
            if let Ok(text) = fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    proc.addr = text.trim().to_string();
                    return Ok(proc);
                }
            }
            if let Ok(Some(status)) = proc.child.try_wait() {
                return Err(format!("{tag} exited during start-up: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(20) {
                proc.stop();
                return Err(format!("{tag} wrote no port file within 20 s"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the process and waits until it has ended.
    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// User plus system CPU time of a process, in microseconds
/// (`/proc/<pid>/stat` fields 14 and 15, in USER_HZ = 100 ticks).
pub fn cpu_us(pid: u32) -> u64 {
    let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0;
    };
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    // After ')' field 3 (state) is index 0, so utime (14) is index 11.
    (tick(11) + tick(12)) * 10_000
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn rss_peak_mb(pid: u32) -> f64 {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor ran something else while this VM's CPUs wanted to run.
pub fn steal_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// A scratch directory that is removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(path: PathBuf) -> Result<WorkDir, String> {
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}
