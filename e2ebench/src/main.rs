//! `e2ebench` — client-to-client benchmark of the Accelerated Ring
//! stack.
//!
//! It builds `ard` from this repository, starts three `ard` processes
//! on a UDP loopback ring, and drives them from this single thread
//! through two `ar_svc::SvcClient` connections (daemon 0 and daemon 1),
//! so every message crosses the ring. Every delivery is checked by the
//! oracle in [`oracle`]. Everything is measured from outside the
//! daemons: the benchmark's own calls, `/metrics` and `/snapshot`, and
//! `/proc`.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload agreed_paced|safe_durable|bulk_saturate|all \
//!     [--seed N] [--seconds S] [--trace 0|1] [--protocol accelerated|original]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics and the tracing overhead. The last line of
//! standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! An oracle violation prints `"correct":false` and exits 1; a run that
//! cannot be measured validly exits 1 without a result.

mod drive;
mod oracle;
mod prom;
mod ring;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use ar_telemetry::json::JsonWriter;

use drive::{Fail, Session, Window, Workload, WORKLOADS};
use prom::{delta_metric, delta_stat, shard0, shard0_quantile, Scrape};
use ring::{Ring, RingSpec, ThreadCpu, THREADS};
use stats::{median, summarize, Summary};

/// Rings set up per run; `setup_s` is the median of their set-up times.
const SETUPS: usize = 12;
/// Load before anything is measured.
const WARMUP: Duration = Duration::from_millis(500);
/// Rings a run may replace because they reformed.
const MAX_REPLACED: usize = 2;
/// How long stragglers may take after a window ends.
const DRAIN: Duration = Duration::from_secs(5);

const USAGE: &str = "usage: e2ebench --workload agreed_paced|safe_durable|bulk_saturate|all \
[--seed N] [--seconds S] [--trace 0|1] [--protocol accelerated|original]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    protocol: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        protocol: "accelerated".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| *s > 0)
                    .ok_or("--seconds wants a positive integer")?
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--protocol" => {
                a.protocol = value()?;
                if a.protocol != "accelerated" && a.protocol != "original" {
                    return Err("--protocol wants accelerated or original".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.iter().any(|w| w.name == a.workload) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// One reported number.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind it.
    n: u64,
}

fn metric(name: &str, value: f64, unit: &'static str, n: u64) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        n,
    }
}

/// One workload's outcome; an oracle violation never gets this far.
#[derive(Debug)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Extra lines for the human-readable report.
    notes: Vec<String>,
}

/// Per-daemon thread CPU and this process's CPU at one instant.
#[derive(Debug)]
struct CpuSample {
    at: Instant,
    ards: Vec<Vec<ThreadCpu>>,
    me: u64,
}

fn cpu_sample(ring: &Ring) -> Result<CpuSample, String> {
    let ards = ring
        .ards
        .iter()
        .map(|a| {
            let t = ring::threads(a.pid)?;
            ring::check_threads(a.pid, &t)?;
            Ok(t)
        })
        .collect::<Result<_, String>>()?;
    Ok(CpuSample {
        at: Instant::now(),
        ards,
        me: ring::self_cpu_ns()?,
    })
}

impl CpuSample {
    /// Cores used between `self` and `later` by thread `role` of every
    /// daemon (all threads for `None`).
    fn cores(&self, later: &CpuSample, role: Option<usize>) -> f64 {
        let secs = later.at.duration_since(self.at).as_secs_f64();
        let used: u64 = self
            .ards
            .iter()
            .zip(&later.ards)
            .flat_map(|(a, b)| a.iter().zip(b).enumerate())
            .filter(|(i, _)| role.is_none_or(|r| r == *i))
            .map(|(_, (x, y))| y.cpu_ns.saturating_sub(x.cpu_ns))
            .sum();
        used as f64 / 1e9 / secs
    }
}

fn role(name: &str) -> usize {
    THREADS.iter().position(|t| *t == name).expect("known role")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    ring::tighten_timer_slack();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf();
    // Build ard into the target directory this binary was built in.
    let exe = std::env::current_exe().expect("own path");
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("binary in <target>/<profile>/")
        .to_path_buf();
    let ard = match ring::build_ard(&root, &target) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let selected: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || w.name == args.workload)
        .collect();
    let mut reports = Vec::new();
    for wl in &selected {
        println!("{}", provenance(&args, wl, &root, &ard));
        let dir = target
            .join("e2ebench-run")
            .join(std::process::id().to_string());
        let r = run(&args, wl, &ard, &dir, &target);
        let _ = std::fs::remove_dir_all(&dir);
        match r {
            Ok(rep) => {
                print_report(wl, &rep);
                reports.push((wl.name, rep));
            }
            Err(Fail::Broken(v)) => {
                eprintln!("e2ebench: {}: oracle violation: {v}", wl.name);
                println!("{{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{{}}}}");
                return ExitCode::FAILURE;
            }
            Err(Fail::Error(e)) => {
                eprintln!("e2ebench: {}: {e}", wl.name);
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result_line(&reports));
    ExitCode::SUCCESS
}

fn provenance(args: &Args, wl: &Workload, root: &Path, ard: &Path) -> String {
    let rev = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let mut j = JsonWriter::new();
    j.begin_object();
    j.key("provenance");
    j.begin_object();
    j.key("git_rev");
    j.str(&rev);
    j.key("nproc");
    j.num_u64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64));
    j.key("command");
    j.begin_array();
    for a in std::env::args() {
        j.str(&a);
    }
    j.end_array();
    j.key("workload");
    j.begin_object();
    j.key("name");
    j.str(wl.name);
    j.key("service");
    j.str(&format!("{:?}", wl.service));
    j.key("durable_log");
    j.bool(wl.durable);
    j.key("loop");
    match wl.rate {
        Some(r) => j.str(&format!("open, {r} msg/s from client 0")),
        None => j.str("closed, both clients, every credit outstanding"),
    }
    j.key("payload_bytes");
    j.num_u64(wl.size as u64);
    j.key("protocol");
    j.str(&args.protocol);
    j.key("seed");
    j.num_u64(args.seed);
    j.key("seconds");
    j.num_u64(args.seconds);
    j.key("trace");
    j.bool(args.trace);
    j.end_object();
    j.key("ard");
    j.str(&ard.display().to_string());
    j.key("ard_profile");
    j.str("release (workspace profile: optimized + debuginfo)");
    j.end_object();
    j.end_object();
    j.finish()
}

/// Everything one run measured, before it becomes metrics.
struct Measured<'s, 'w> {
    session: &'s Session<'w>,
    window: Window,
    before: Vec<Scrape>,
    after: Vec<Scrape>,
    scrape_secs: f64,
    cpu0: CpuSample,
    cpu1: CpuSample,
}

/// What one ring contributed to an untraced run.
#[derive(Debug)]
struct RingRun {
    lat_us: Vec<f64>,
    delivered: u64,
    /// Window start to the last delivery of a window message.
    delivered_secs: f64,
    /// Daemon CPU over the window, core-seconds.
    cpu_secs: f64,
    wall_secs: f64,
    rss_kib: u64,
    attempted: u64,
    failed: u64,
}

fn e2e_us(session: &Session, w: &Window) -> Vec<f64> {
    session
        .window_stamps(w)
        .filter_map(|(_, _, s)| s.e2e())
        .map(|ns| ns as f64 / 1e3)
        .collect()
}

/// An untraced run sets up `SETUPS` rings in turn, measures a window of
/// `seconds / SETUPS` on each and pools them, so the spread between
/// rings (thread placement, timer phases) averages out within a run. A
/// traced run measures one ring: an untraced reference half window,
/// then a traced half window.
fn run(args: &Args, wl: &Workload, ard: &Path, dir: &Path, target: &Path) -> Result<Report, Fail> {
    let spec = RingSpec {
        ard: ard.to_path_buf(),
        dir: dir.to_path_buf(),
        protocol: args.protocol.clone(),
        durable: wl.durable,
    };
    let secs = Duration::from_secs(args.seconds);
    let rings = if args.trace { 1 } else { SETUPS };
    let mut setups = Vec::with_capacity(rings);
    let mut runs = Vec::with_capacity(rings);
    let mut replaced = 0;
    while runs.len() < rings {
        let t = Instant::now();
        let ring = Ring::start(&spec)?;
        let seed = args.seed.wrapping_add(setups.len() as u64);
        let mut session = Session::open(&ring, wl, seed)?;
        setups.push(t.elapsed().as_secs_f64());
        session.window(WARMUP, None)?;
        session.drain(DRAIN)?;
        // A traced run first measures an untraced reference on the same
        // ring, so the tracing overhead is a same-ring difference.
        let reference = if args.trace {
            let w = session.window(secs / 2, None)?;
            session.drain(DRAIN)?;
            Some(w)
        } else {
            None
        };
        let dur = if args.trace {
            secs / 2
        } else {
            secs / rings as u32
        };
        let m = measure(&ring, &mut session, dur, args.trace)?;
        let (attempted, failed) = outcome(&m)?;
        // A ring that reformed (e.g. a daemon stalled in fsync past the
        // token-loss timeout) measured something else: replace it, at
        // most `MAX_REPLACED` times per run, and say so.
        let g = gathers(&m)?;
        if g > 0.0 {
            replaced += 1;
            eprintln!(
                "e2ebench: {}: ring {} reformed ({g} gathers)",
                wl.name,
                setups.len()
            );
            if replaced > MAX_REPLACED {
                return Err(format!("invalid run: {replaced} rings reformed").into());
            }
            continue;
        }
        let note = format!("rings replaced after a membership gather: {replaced}");
        if let Some(reference) = reference {
            let (mut lat, mut ref_lat) =
                (e2e_us(m.session, &m.window), e2e_us(m.session, &reference));
            let (lat, ref_lat) = (summarize(&mut lat), summarize(&mut ref_lat));
            write_trace(target, args, wl, &m)?;
            let mut metrics = per_layer(&m, &lat, &ref_lat)?;
            metrics.push(metric("e2e.latency_p99_us", lat.p99, "us", lat.n as u64));
            metrics.push(metric(
                "failed_frac",
                failed as f64 / attempted as f64,
                "frac",
                attempted,
            ));
            return Ok(Report {
                attempted,
                failed,
                metrics,
                notes: vec![note],
            });
        }
        // Throughput: the window's messages delivered, over the time
        // from the window's start to the last of those deliveries.
        let delivered: Vec<u64> = m
            .session
            .window_stamps(&m.window)
            .filter_map(|(_, _, s)| s.delivered)
            .collect();
        let last = delivered.iter().copied().max().unwrap_or(m.window.end);
        let wall_secs = m.cpu1.at.duration_since(m.cpu0.at).as_secs_f64();
        runs.push(RingRun {
            lat_us: e2e_us(m.session, &m.window),
            delivered: delivered.len() as u64,
            delivered_secs: last.saturating_sub(m.window.start) as f64 / 1e9,
            cpu_secs: m.cpu0.cores(&m.cpu1, None) * wall_secs,
            wall_secs,
            rss_kib: ring
                .ards
                .iter()
                .map(|a| ring::vm_hwm_kib(a.pid))
                .sum::<Result<u64, String>>()?,
            attempted,
            failed,
        });
    }
    let sum = |f: fn(&RingRun) -> f64| runs.iter().map(f).sum::<f64>();
    let mut lat: Vec<f64> = runs.iter().flat_map(|r| r.lat_us.iter().copied()).collect();
    let lat = summarize(&mut lat);
    let rss: Vec<f64> = runs.iter().map(|r| r.rss_kib as f64 / 1024.0).collect();
    let attempted = runs.iter().map(|r| r.attempted).sum::<u64>();
    let failed = runs.iter().map(|r| r.failed).sum::<u64>();
    let delivered = runs.iter().map(|r| r.delivered).sum::<u64>();
    let measured = runs.len() as u64;
    let per_ring = |f: &dyn Fn(&RingRun) -> f64| {
        runs.iter()
            .map(|r| format!("{:.1}", f(r)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let notes = vec![
        format!("rings replaced after a membership gather: {replaced}"),
        format!(
            "per ring: latency_p50_us {}",
            per_ring(&|r| summarize(&mut r.lat_us.clone()).p50)
        ),
        format!(
            "per ring: delivered_msgs_per_s {}",
            per_ring(&|r| r.delivered as f64 / r.delivered_secs)
        ),
    ];
    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", median(&setups), "s", setups.len() as u64),
            metric("latency_p50_us", lat.p50, "us", lat.n as u64),
            metric("latency_p90_us", lat.p90, "us", lat.n as u64),
            metric(
                "delivered_msgs_per_s",
                delivered as f64 / sum(|r| r.delivered_secs),
                "1/s",
                delivered,
            ),
            metric(
                "ard_cpu_cores",
                sum(|r| r.cpu_secs) / sum(|r| r.wall_secs),
                "cores",
                measured,
            ),
            metric("ard_peak_rss_mib", median(&rss), "MiB", measured),
            // Diagnostics: printed, never part of the result line.
            metric("e2e.latency_p99_us", lat.p99, "us", lat.n as u64),
            metric(
                "failed_frac",
                failed as f64 / attempted as f64,
                "frac",
                attempted,
            ),
        ],
        notes,
    })
}

/// One measured window on a warmed-up ring, between two scrapes.
fn measure<'s, 'w>(
    ring: &Ring,
    session: &'s mut Session<'w>,
    dur: Duration,
    traced: bool,
) -> Result<Measured<'s, 'w>, Fail> {
    let before = ring.scrape()?;
    let scrape_t0 = Instant::now();
    let cpu0 = cpu_sample(ring)?;
    let window = session.window(dur, traced.then_some(ring))?;
    let cpu1 = cpu_sample(ring)?;
    session.drain(DRAIN)?;
    let after = ring.scrape()?;
    let m = Measured {
        session: &*session,
        window,
        before,
        after,
        scrape_secs: scrape_t0.elapsed().as_secs_f64(),
        cpu0,
        cpu1,
    };
    validate(&m)?;
    Ok(m)
}

/// Membership gathers the daemons started since they were spawned.
fn gathers(m: &Measured) -> Result<f64, String> {
    m.after
        .iter()
        .map(|s| s.stat("gathers_started_total"))
        .sum()
}

/// Checks the streams; returns the window's (attempted, failed).
fn outcome(m: &Measured) -> Result<(u64, u64), Fail> {
    let tally = m.session.tally(&m.window)?;
    let failed = tally.rejected + tally.lost + m.window.unsent + m.session.evictions;
    Ok((m.window.attempted.max(1), failed))
}

/// Guards that make a silent zero or a mis-attributed thread fail the
/// run instead of passing as a measurement.
fn validate(m: &Measured) -> Result<(), String> {
    let tokens = shard0("ar_node_tokens_rx_total");
    for (d, (b, a)) in m.before.iter().zip(&m.after).enumerate() {
        if a.metric(&tokens)? <= b.metric(&tokens)? {
            return Err(format!(
                "{tokens} did not advance on ard {d}: the token series is not where \
                 the benchmark reads it"
            ));
        }
    }
    let ring_cpu = m.cpu0.cores(&m.cpu1, Some(role("ring")));
    let metrics_cpu = m.cpu0.cores(&m.cpu1, Some(role("metrics")));
    if ring_cpu <= metrics_cpu {
        return Err(format!(
            "thread attribution looks wrong: ring thread {ring_cpu:.3} cores <= metrics \
             thread {metrics_cpu:.3} cores"
        ));
    }
    Ok(())
}

fn us(ns: i64) -> f64 {
    ns as f64 / 1e3
}

fn per_layer(m: &Measured, lat: &Summary, ref_lat: &Summary) -> Result<Vec<Metric>, String> {
    let w = &m.window;
    let (mut lag, mut call, mut wait, mut o2d) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (_, _, s) in m.session.window_stamps(w) {
        lag.push(us(s.start as i64 - s.due as i64));
        call.push(us(s.end as i64 - s.start as i64));
        if let Some(st) = s.stages() {
            debug_assert_eq!(Some(st.sum()), s.e2e());
            wait.push(us(st.order_wait));
            o2d.push(us(st.order_to_deliver));
        }
    }
    let (lag, call, wait, o2d) = (
        summarize(&mut lag),
        summarize(&mut call),
        summarize(&mut wait),
        summarize(&mut o2d),
    );
    let mut pump = w.pump_us.clone();
    let pump = summarize(&mut pump);
    let (b, a, secs) = (&m.before, &m.after, m.scrape_secs);
    let d0 = &m.after[0];
    let q = |name: &str, quant: &str| -> Result<f64, String> {
        Ok(d0.metric(&shard0_quantile(name, quant))? / 1e3)
    };
    let net_delivery_p50 = q("ar_node_delivery_latency_ns", "0.5")?;
    let tokens = delta_metric(&b[..1], &a[..1], &shard0("ar_node_tokens_rx_total"))?;
    let initiated = delta_stat(b, a, "messages_initiated_total")?;
    let handled = delta_stat(b, a, "tokens_handled_total")?;
    let before_tok = delta_stat(b, a, "messages_sent_before_token_total")?;
    let after_tok = delta_stat(b, a, "messages_sent_after_token_total")?;
    let appends = delta_metric(b, a, &shard0("ar_node_log_appends_total"))?;
    let syncs = delta_metric(b, a, &shard0("ar_node_log_syncs_total"))?;
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    let g = &w.gauges;
    let n = g.samples;
    let cores = |r: &str| m.cpu0.cores(&m.cpu1, Some(role(r)));
    let secs_window = m.cpu1.at.duration_since(m.cpu0.at).as_secs_f64();
    Ok(vec![
        metric(
            "svc_client.publish_call_us.p50",
            call.p50,
            "us",
            call.n as u64,
        ),
        metric("svc_client.pump_call_us.p50", pump.p50, "us", pump.n as u64),
        metric(
            "svc_client.no_credit_frac",
            ratio(w.no_credit as f64, w.publish_calls as f64),
            "frac",
            w.publish_calls,
        ),
        metric("svc.order_wait_us.p50", wait.p50, "us", wait.n as u64),
        metric("svc.order_wait_us.p99", wait.p99, "us", wait.n as u64),
        metric("svc.order_to_deliver_us.p50", o2d.p50, "us", o2d.n as u64),
        metric(
            "svc.hop_us.p50",
            wait.p50 - net_delivery_p50,
            "us",
            wait.n as u64,
        ),
        metric(
            "svc.credits_deferred_max",
            g.credits_deferred_max,
            "count",
            n,
        ),
        metric(
            "svc.evicted",
            delta_metric(b, a, "ar_svc_clients_evicted_total")?,
            "count",
            3,
        ),
        metric("svc.thread_cpu_cores", cores("svc"), "cores", 3),
        metric("daemon.ring_thread_cpu_cores", cores("ring"), "cores", 3),
        metric(
            "daemon.client_event_overflow",
            delta_metric(b, a, &shard0("ar_daemon_client_event_overflow_total"))?,
            "count",
            3,
        ),
        metric(
            "net.token_rotation_us.p50",
            q("ar_node_token_rotation_ns", "0.5")?,
            "us",
            1,
        ),
        metric(
            "net.token_rotation_us.p99",
            q("ar_node_token_rotation_ns", "0.99")?,
            "us",
            1,
        ),
        metric(
            "net.token_hop_us.p50",
            q("ar_node_token_hop_ns", "0.5")?,
            "us",
            1,
        ),
        metric("net.delivery_latency_us.p50", net_delivery_p50, "us", 1),
        metric(
            "net.delivery_latency_us.p99",
            q("ar_node_delivery_latency_ns", "0.99")?,
            "us",
            1,
        ),
        metric("net.tokens_per_s", tokens / secs, "1/s", tokens as u64),
        metric("net.queue_depth_max", g.queue_depth_max, "count", n),
        // The transport registers its counter unlabelled with one ring.
        metric(
            "net.decode_drops",
            delta_metric(b, a, "ar_node_wire_decode_drops_total")?,
            "count",
            3,
        ),
        metric(
            "core.msgs_per_token",
            ratio(initiated, handled),
            "ratio",
            handled as u64,
        ),
        metric(
            "core.before_token_share",
            ratio(before_tok, before_tok + after_tok),
            "frac",
            (before_tok + after_tok) as u64,
        ),
        metric(
            "core.rtx_per_msg",
            ratio(delta_stat(b, a, "retransmissions_sent_total")?, initiated),
            "ratio",
            initiated as u64,
        ),
        metric(
            "core.accel_window_min",
            g.accel_window_min.unwrap_or(0.0),
            "count",
            n,
        ),
        metric("core.gathers", gathers(m)?, "count", 3),
        metric("log.appends_per_s", appends / secs, "1/s", appends as u64),
        metric(
            "log.appends_per_sync",
            ratio(appends, syncs),
            "ratio",
            syncs as u64,
        ),
        metric("log.held_safe_max", g.held_safe_max, "count", n),
        metric("loadgen.lag_p99_us", lag.p99, "us", lag.n as u64),
        metric(
            "loadgen.cpu_cores",
            m.cpu1.me.saturating_sub(m.cpu0.me) as f64 / 1e9 / secs_window,
            "cores",
            1,
        ),
        metric(
            "trace.overhead_p50_us",
            lat.p50 - ref_lat.p50,
            "us",
            lat.n as u64,
        ),
    ])
}

/// Writes the traced window's per-message stamps next to the build.
fn write_trace(target: &Path, args: &Args, wl: &Workload, m: &Measured) -> Result<(), String> {
    let dir: PathBuf = target.join("e2ebench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.csv", wl.name, args.seed));
    let opt = |v: Option<u64>| v.map_or(String::new(), |v| v.to_string());
    let mut out = String::from("publisher,seq,due_ns,start_ns,end_ns,ordered_ns,delivered_ns\n");
    for (c, seq, s) in m.session.window_stamps(&m.window) {
        let _ = writeln!(
            out,
            "{c},{seq},{},{},{},{},{}",
            s.due,
            s.start,
            s.end,
            opt(s.ordered),
            opt(s.delivered)
        );
    }
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("e2ebench: per-message stamps in {}", path.display());
    Ok(())
}

fn print_report(wl: &Workload, r: &Report) {
    println!("e2ebench: {} — {}", wl.name, wl.why);
    for m in &r.metrics {
        println!(
            "  {:<34} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.n
        );
    }
    for n in &r.notes {
        println!("  {n}");
    }
    println!("  attempted {} failed {}", r.attempted, r.failed);
}

/// The result line: diagnostics are left out; with several workloads
/// each metric name is prefixed by its workload.
fn result_line(reports: &[(&str, Report)]) -> String {
    let prefix = reports.len() > 1;
    let mut j = JsonWriter::new();
    j.begin_object();
    j.key("correct");
    j.bool(true);
    j.key("attempted");
    j.num_u64(reports.iter().map(|(_, r)| r.attempted).sum());
    j.key("failed");
    j.num_u64(reports.iter().map(|(_, r)| r.failed).sum());
    j.key("metrics");
    j.begin_object();
    for (name, r) in reports {
        for m in r.metrics.iter().filter(|m| !is_diagnostic(&m.name)) {
            j.key(&if prefix {
                format!("{name}.{}", m.name)
            } else {
                m.name.clone()
            });
            j.begin_object();
            j.key("value");
            j.num_f64(m.value);
            j.key("unit");
            j.str(m.unit);
            j.end_object();
        }
    }
    j.end_object();
    j.end_object();
    j.finish()
}

fn is_diagnostic(name: &str) -> bool {
    name == "failed_frac" || name == "e2e.latency_p99_us"
}
