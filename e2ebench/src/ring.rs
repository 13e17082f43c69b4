//! The system under test: three `ard` processes on a UDP loopback
//! ring, plus everything read from outside them (HTTP scrapes and
//! `/proc`).

use std::fs;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::prom::{parse_metrics, parse_snapshot_stats, Scrape};

/// Daemons in the ring.
pub const DAEMONS: usize = 3;

/// Threads `ard` runs with one ring and a service tier, in creation
/// order (`crates/svc/src/bin/ard.rs`): main, the metrics endpoint
/// (`serve_metrics`), the ring driver (`ShardedDaemon::spawn`), and
/// the service tier (`serve_clients_sharded`).
pub const THREADS: [&str; 4] = ["main", "metrics", "ring", "svc"];

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const PR_SET_TIMERSLACK: i32 = 29;
const SIGKILL: u64 = 9;

/// Shrinks this process's timer slack to 1 µs so the generator's short
/// sleeps end when asked, not up to 50 µs later.
pub fn tighten_timer_slack() {
    // SAFETY: prctl with PR_SET_TIMERSLACK only changes this thread's
    // timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000u64);
    }
}

/// Builds `ard` from the repository at `root` into `target_dir`.
///
/// # Errors
///
/// The build failed.
pub fn build_ard(root: &Path, target_dir: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--quiet",
            "--release",
            "-p",
            "ar-svc",
            "--bin",
            "ard",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ard failed ({status})"));
    }
    Ok(target_dir.join("release").join("ard"))
}

/// One running `ard`.
#[derive(Debug)]
pub struct Ard {
    child: Child,
    /// Its pid.
    pub pid: u32,
    /// Service-tier TCP address.
    pub client: SocketAddr,
    /// Metrics endpoint.
    pub metrics: SocketAddr,
}

/// A running ring; its daemons are killed when it drops.
#[derive(Debug)]
pub struct Ring {
    /// Daemons by id.
    pub ards: Vec<Ard>,
}

/// How to start a ring.
#[derive(Debug, Clone)]
pub struct RingSpec {
    /// The `ard` binary.
    pub ard: PathBuf,
    /// Scratch directory for the deployment file, logs and durable logs.
    pub dir: PathBuf,
    /// `accelerated` or `original`.
    pub protocol: String,
    /// Give each daemon `--log-dir`.
    pub durable: bool,
}

impl Ring {
    /// Writes a fresh deployment file, spawns the daemons and waits
    /// until each has bound its client and metrics endpoints.
    ///
    /// # Errors
    ///
    /// A daemon failed to start within the deadline.
    pub fn start(spec: &RingSpec) -> Result<Ring, String> {
        let _ = fs::remove_dir_all(&spec.dir);
        fs::create_dir_all(&spec.dir).map_err(|e| format!("{}: {e}", spec.dir.display()))?;
        let ports = reserve_udp_ports(2 * DAEMONS)?;
        let mut conf = format!("protocol {}\n", spec.protocol);
        for id in 0..DAEMONS {
            conf.push_str(&format!(
                "daemon {id} token=127.0.0.1:{} data=127.0.0.1:{}\n",
                ports[2 * id],
                ports[2 * id + 1]
            ));
        }
        let conf_path = spec.dir.join("ar.conf");
        fs::write(&conf_path, conf).map_err(|e| format!("{}: {e}", conf_path.display()))?;

        // Each daemon joins the ring as soon as it is spawned, so an
        // error below still kills every one already running.
        let mut ring = Ring { ards: Vec::new() };
        let mut logs = Vec::with_capacity(DAEMONS);
        let unbound = SocketAddr::from(([0, 0, 0, 0], 0));
        for id in 0..DAEMONS {
            let log = spec.dir.join(format!("ard{id}.out"));
            let out = fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
            let err = out.try_clone().map_err(|e| e.to_string())?;
            let mut cmd = Command::new(&spec.ard);
            cmd.args([
                "--client-addr",
                "127.0.0.1:0",
                "--metrics-addr",
                "127.0.0.1:0",
            ]);
            if spec.durable {
                cmd.arg("--log-dir").arg(spec.dir.join(format!("log{id}")));
            }
            cmd.arg(&conf_path).arg(id.to_string());
            cmd.stdin(Stdio::null()).stdout(out).stderr(err);
            // SAFETY: prctl is async-signal-safe; it makes the kernel
            // kill the daemon if this process dies without cleaning up.
            unsafe {
                cmd.pre_exec(|| {
                    prctl(PR_SET_PDEATHSIG, SIGKILL);
                    Ok(())
                });
            }
            let child = cmd
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", spec.ard.display()))?;
            ring.ards.push(Ard {
                pid: child.id(),
                child,
                client: unbound,
                metrics: unbound,
            });
            logs.push(log);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        for (a, log) in ring.ards.iter_mut().zip(&logs) {
            (a.client, a.metrics) = wait_for_addrs(&mut a.child, log, deadline)?;
        }
        Ok(ring)
    }

    /// Scrapes `/metrics` and `/snapshot` of every daemon.
    ///
    /// # Errors
    ///
    /// A request or parse failed.
    pub fn scrape(&self) -> Result<Vec<Scrape>, String> {
        // Send every request before reading any: the endpoint polls
        // for connections, so one round costs one poll period.
        let mut pending = Vec::new();
        for a in &self.ards {
            pending.push(PendingGet::start(a.metrics, "/metrics")?);
            pending.push(PendingGet::start(a.metrics, "/snapshot")?);
        }
        let mut bodies = Vec::new();
        for p in pending {
            bodies.push(p.wait()?);
        }
        bodies
            .chunks(2)
            .map(|pair| {
                Ok(Scrape {
                    metrics: parse_metrics(&pair[0])?,
                    stats: parse_snapshot_stats(&pair[1])?,
                })
            })
            .collect()
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        for a in &mut self.ards {
            let _ = a.child.kill();
        }
        for a in &mut self.ards {
            let _ = a.child.wait();
        }
    }
}

/// Binds and releases ephemeral UDP ports for the deployment file.
fn reserve_udp_ports(n: usize) -> Result<Vec<u16>, String> {
    let socks: Vec<UdpSocket> = (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("udp bind: {e}")))
        .collect::<Result<_, _>>()?;
    socks
        .iter()
        .map(|s| s.local_addr().map(|a| a.port()).map_err(|e| e.to_string()))
        .collect()
}

/// Polls a daemon's output for its service-tier and metrics addresses.
fn wait_for_addrs(
    child: &mut Child,
    log: &Path,
    deadline: Instant,
) -> Result<(SocketAddr, SocketAddr), String> {
    loop {
        let text = fs::read_to_string(log).unwrap_or_default();
        let find = |prefix: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(prefix))
                .and_then(|rest| rest.trim_end_matches('/').split(' ').next())
                .and_then(|a| a.trim_end_matches('/').parse::<SocketAddr>().ok())
        };
        if let (Some(c), Some(m)) = (
            find("ard: service tier on tcp "),
            find("ard: metrics on http://"),
        ) {
            return Ok((c, m));
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("ard exited ({status}) during start:\n{text}"));
        }
        if Instant::now() > deadline {
            return Err(format!("ard did not start in time:\n{text}"));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// An HTTP GET in flight, read without blocking.
#[derive(Debug)]
pub struct PendingGet {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl PendingGet {
    /// Connects and sends the request.
    ///
    /// # Errors
    ///
    /// Connect or write failed.
    pub fn start(addr: SocketAddr, path: &str) -> Result<PendingGet, String> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
            .map_err(|e| format!("GET {addr}{path}: {e}"))?;
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())
            .map_err(|e| format!("GET {addr}{path}: {e}"))?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(PendingGet {
            stream,
            buf: Vec::new(),
        })
    }

    /// Reads what has arrived; the body once the server has closed.
    ///
    /// # Errors
    ///
    /// A socket error or a non-200 response.
    pub fn poll(&mut self) -> Result<Option<String>, String> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return http_body(&self.buf).map(Some),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("metrics read: {e}")),
            }
        }
    }

    /// Blocks until the response is complete.
    ///
    /// # Errors
    ///
    /// As for [`poll`](Self::poll), or no answer within 5 s.
    pub fn wait(mut self) -> Result<String, String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(body) = self.poll()? {
                return Ok(body);
            }
            if Instant::now() > deadline {
                return Err("metrics endpoint did not answer".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

fn http_body(resp: &[u8]) -> Result<String, String> {
    let text = String::from_utf8_lossy(resp);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("truncated HTTP response")?;
    if !head.lines().next().is_some_and(|l| l.contains(" 200 ")) {
        return Err(format!("HTTP error: {}", head.lines().next().unwrap_or("")));
    }
    Ok(body.to_string())
}

/// CPU time and start time of one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCpu {
    /// Thread id.
    pub tid: u32,
    /// Start time, in clock ticks after boot.
    pub start: u64,
    /// CPU time consumed, ns (`schedstat`).
    pub cpu_ns: u64,
}

/// Every thread of `pid`, in creation order: thread ids are handed out
/// in ascending order from the pid, wrapping at the kernel's pid limit.
///
/// # Errors
///
/// `/proc` could not be read.
pub fn threads(pid: u32) -> Result<Vec<ThreadCpu>, String> {
    let dir = format!("/proc/{pid}/task");
    let mut out = Vec::new();
    for entry in fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
        let name = entry.map_err(|e| e.to_string())?.file_name();
        let Some(tid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let base = format!("{dir}/{tid}");
        let stat = fs::read_to_string(format!("{base}/stat")).map_err(|e| e.to_string())?;
        let sched = fs::read_to_string(format!("{base}/schedstat")).map_err(|e| e.to_string())?;
        out.push(ThreadCpu {
            tid,
            start: stat_field(&stat, 22)?,
            cpu_ns: sched
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("bad schedstat")?,
        });
    }
    sort_by_creation(pid, &mut out);
    Ok(out)
}

fn sort_by_creation(pid: u32, threads: &mut [ThreadCpu]) {
    // Ids that wrapped past the pid limit sort after the unwrapped ones.
    threads.sort_by_key(|t| t.tid.wrapping_sub(pid));
}

/// Field `n` (1-based, as in proc(5)) of a `/proc/.../stat` line.
fn stat_field(stat: &str, n: usize) -> Result<u64, String> {
    // The command name (field 2) may hold spaces; count after its ')'.
    let rest = stat.rsplit_once(')').ok_or("bad stat line")?.1;
    rest.split_whitespace()
        .nth(n - 3)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("stat has no field {n}"))
}

/// Checks that `ard`'s threads are exactly the ones [`THREADS`] names,
/// started in that order.
///
/// # Errors
///
/// The count or creation order differs.
pub fn check_threads(pid: u32, threads: &[ThreadCpu]) -> Result<(), String> {
    if threads.len() != THREADS.len() {
        return Err(format!(
            "ard pid {pid} runs {} threads, the benchmark attributes {} ({THREADS:?})",
            threads.len(),
            THREADS.len()
        ));
    }
    if threads[0].tid != pid || threads.windows(2).any(|w| w[0].start > w[1].start) {
        return Err(format!(
            "ard pid {pid} threads are not in creation order: {threads:?}"
        ));
    }
    Ok(())
}

/// Peak resident set (`VmHWM`) of `pid`, KiB.
///
/// # Errors
///
/// `/proc` could not be read.
pub fn vm_hwm_kib(pid: u32) -> Result<u64, String> {
    let status =
        fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| format!("{pid}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM for pid {pid}"))
}

/// CPU time of this (single-threaded) process, ns.
///
/// # Errors
///
/// `/proc` could not be read.
pub fn self_cpu_ns() -> Result<u64, String> {
    Ok(threads(std::process::id())?.iter().map(|t| t.cpu_ns).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_skip_the_command_name() {
        let line = "123 (a b) R 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 999 20";
        assert_eq!(stat_field(line, 4).unwrap(), 1);
        assert_eq!(stat_field(line, 22).unwrap(), 999);
    }

    #[test]
    fn thread_guard_wants_four_threads_in_order() {
        let t = |tid, start| ThreadCpu {
            tid,
            start,
            cpu_ns: 0,
        };
        let good = [t(10, 5), t(11, 5), t(12, 6), t(13, 6)];
        assert!(check_threads(10, &good).is_ok());
        assert!(check_threads(10, &good[..3]).is_err());
        assert!(check_threads(10, &[t(10, 5), t(11, 7), t(12, 6), t(13, 8)]).is_err());
        assert!(check_threads(9, &good).is_err());
    }

    #[test]
    fn creation_order_survives_pid_wrap() {
        let t = |tid| ThreadCpu {
            tid,
            start: 0,
            cpu_ns: 0,
        };
        let mut threads = [t(301), t(32_767), t(300), t(32_761)];
        sort_by_creation(32_761, &mut threads);
        let tids: Vec<u32> = threads.iter().map(|t| t.tid).collect();
        assert_eq!(tids, [32_761, 32_767, 300, 301]);
        assert!(check_threads(32_761, &threads).is_ok());
    }

    #[test]
    fn http_body_requires_200() {
        assert_eq!(
            http_body(b"HTTP/1.1 200 OK\r\nA: b\r\n\r\nhello").unwrap(),
            "hello"
        );
        assert!(http_body(b"HTTP/1.1 404 Not Found\r\n\r\n").is_err());
        assert!(http_body(b"HTTP/1.1 200 OK\r\n").is_err());
    }
}
