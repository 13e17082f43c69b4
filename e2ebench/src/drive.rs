//! The load generator: two `SvcClient` connections, one on daemon 0
//! and one on daemon 1, driven from this single thread. Client `c`
//! joins `GROUPS[c]` and publishes to the other client's group, so
//! every measured message crosses the ring.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ar_core::ServiceType;
use ar_svc::{PublishError, SvcClient, SvcEvent};
use bytes::Bytes;

use crate::oracle::{decode, encode, Oracle, Pool, Stamps, Tally, Violation, DATA, HEADER, PROBE};
use crate::prom::{parse_metrics, shard0, Scrape};
use crate::ring::{PendingGet, Ring};

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
    /// Delivery service of every message.
    pub service: ServiceType,
    /// Run the daemons with `--log-dir`.
    pub durable: bool,
    /// Open-loop rate from client 0 (msg/s); `None` is a closed loop
    /// in which both clients keep every publish credit outstanding.
    pub rate: Option<f64>,
    /// Payload bytes per message.
    pub size: usize,
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "agreed_paced",
        why: "open loop 1000 msg/s of 128 B Agreed: the ring idles between messages, \
              so latency is thread hops plus about one rotation",
        service: ServiceType::Agreed,
        durable: false,
        rate: Some(1000.0),
        size: 128,
    },
    Workload {
        name: "safe_durable",
        why: "the same schedule as Safe with --log-dir: log append, fsync and the Safe \
              stability round sit on the blocking path",
        service: ServiceType::Safe,
        durable: true,
        rate: Some(1000.0),
        size: 128,
    },
    Workload {
        name: "bulk_saturate",
        why: "closed loop of 1 KiB Agreed both ways with every credit outstanding: \
              CPU- and ring-bound, so per-message costs show",
        service: ServiceType::Agreed,
        durable: false,
        rate: None,
        size: 1024,
    },
];

/// Groups: client `c` joins `GROUPS[c]`.
pub const GROUPS: [&str; 2] = ["e2e.a", "e2e.b"];
/// Longest sleep between pumps; it bounds how late a delivery is seen.
const POLL: Duration = Duration::from_micros(50);
/// How often a traced window samples the daemons' gauges.
const GAUGE_PERIOD: Duration = Duration::from_secs(1);

/// Why a run stopped.
#[derive(Debug)]
pub enum Fail {
    /// A delivery guarantee broke.
    Broken(Violation),
    /// The benchmark could not measure.
    Error(String),
}

impl From<Violation> for Fail {
    fn from(v: Violation) -> Fail {
        Fail::Broken(v)
    }
}

impl From<String> for Fail {
    fn from(e: String) -> Fail {
        Fail::Error(e)
    }
}

/// Gauges sampled during a traced window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Samples taken (one per daemon per period).
    pub samples: u64,
    /// Max of `ar_node_queue_depth{shard="0"}`.
    pub queue_depth_max: f64,
    /// Max of `ar_svc_credits_deferred`.
    pub credits_deferred_max: f64,
    /// Max of `ar_node_log_held_safe{shard="0"}`.
    pub held_safe_max: f64,
    /// Min of `ar_node_effective_accelerated_window{shard="0"}`.
    pub accel_window_min: Option<f64>,
}

impl Gauges {
    /// Folds one daemon's scrape in.
    ///
    /// # Errors
    ///
    /// A gauge is not exported.
    pub fn add(&mut self, s: &Scrape) -> Result<(), String> {
        self.samples += 1;
        self.queue_depth_max = self
            .queue_depth_max
            .max(s.metric(&shard0("ar_node_queue_depth"))?);
        self.credits_deferred_max = self
            .credits_deferred_max
            .max(s.metric("ar_svc_credits_deferred")?);
        self.held_safe_max = self
            .held_safe_max
            .max(s.metric(&shard0("ar_node_log_held_safe"))?);
        let w = s.metric(&shard0("ar_node_effective_accelerated_window"))?;
        self.accel_window_min = Some(self.accel_window_min.map_or(w, |m: f64| m.min(w)));
        Ok(())
    }
}

/// Samples every daemon's `/metrics` once per period without blocking
/// the generator.
#[derive(Debug)]
struct Sampler {
    addrs: Vec<SocketAddr>,
    next: Instant,
    pending: Vec<PendingGet>,
    gauges: Gauges,
}

impl Sampler {
    fn poll(&mut self, now: Instant) -> Result<(), String> {
        let mut i = 0;
        while i < self.pending.len() {
            match self.pending[i].poll()? {
                Some(body) => {
                    self.pending.swap_remove(i);
                    self.gauges.add(&Scrape {
                        metrics: parse_metrics(&body)?,
                        ..Scrape::default()
                    })?;
                }
                None => i += 1,
            }
        }
        if now >= self.next && self.pending.is_empty() {
            self.next = now + GAUGE_PERIOD;
            for a in &self.addrs {
                self.pending.push(PendingGet::start(*a, "/metrics")?);
            }
        }
        Ok(())
    }
}

/// What one measurement window saw.
#[derive(Debug, Default)]
pub struct Window {
    /// Start, ns since the session epoch.
    pub start: u64,
    /// End, ns since the session epoch.
    pub end: u64,
    /// Per publisher, the seqs published in the window: `from..to`.
    pub seqs: [(u64, u64); 2],
    /// Messages due (open loop) or sent (closed loop).
    pub attempted: u64,
    /// Open loop: due in the window but never granted a credit.
    pub unsent: u64,
    /// `try_publish` calls, and how many returned `NoCredits`.
    pub publish_calls: u64,
    /// Of which declined for lack of credits.
    pub no_credit: u64,
    /// Traced: duration of each `pump` call, µs.
    pub pump_us: Vec<f64>,
    /// Traced: the sampled gauges.
    pub gauges: Gauges,
}

/// Two connected clients and every message they exchanged.
#[derive(Debug)]
pub struct Session<'a> {
    wl: &'a Workload,
    clients: [SvcClient; 2],
    epoch: Instant,
    pool: Pool,
    /// Arrival-process state (xorshift64), from the seed.
    rng: u64,
    oracle: Oracle,
    stamps: [Vec<Stamps>; 2],
    /// Publish id − 1 → seq (0 marks a probe).
    ids: [Vec<u64>; 2],
    /// An encoded message waiting for a credit: (seq, payload).
    pending: [Option<(u64, Bytes)>; 2],
    probe_seen: bool,
    /// Sessions evicted by the service.
    pub evictions: u64,
}

impl<'a> Session<'a> {
    /// Connects both clients, joins their groups, and returns once a
    /// probe from client 0 has reached client 1.
    ///
    /// # Errors
    ///
    /// Connecting or the probe failed.
    pub fn open(ring: &Ring, wl: &'a Workload, seed: u64) -> Result<Session<'a>, Fail> {
        let connect = |d: usize| {
            let addr = ring.ards[d].client;
            SvcClient::connect_tcp(addr, &format!("e2e-{d}"))
                .map_err(|e| format!("connect to ard {d} at {addr}: {e}"))
        };
        let mut s = Session {
            wl,
            clients: [connect(0)?, connect(1)?],
            epoch: Instant::now(),
            pool: Pool::new(seed, 64 * 1024 + wl.size),
            rng: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            oracle: Oracle::new(2),
            stamps: [Vec::new(), Vec::new()],
            ids: [Vec::new(), Vec::new()],
            pending: [None, None],
            probe_seen: false,
            evictions: 0,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut joined = [false, false];
        for (c, g) in GROUPS.iter().enumerate() {
            s.clients[c].join(g).map_err(|e| format!("join {g}: {e}"))?;
        }
        while !joined.iter().all(|j| *j) {
            for (c, j) in joined.iter_mut().enumerate() {
                s.clients[c].pump().map_err(|e| format!("pump: {e}"))?;
                while let Some(ev) = s.clients[c].poll_event() {
                    match ev {
                        SvcEvent::Membership { group, .. } if group == GROUPS[c] => *j = true,
                        SvcEvent::GroupRejected { group, reason, .. } => {
                            return Err(format!("join {group} rejected: {reason}").into())
                        }
                        _ => {}
                    }
                }
            }
            s.wait_until(deadline, "group joins")?;
        }
        let mut probes = 0u64;
        let mut resend = Instant::now();
        while !s.probe_seen {
            if Instant::now() >= resend {
                probes += 1;
                let body = s.pool.body(probes, wl.size - HEADER);
                let payload = encode(PROBE, 0, probes, body);
                if s.clients[0]
                    .try_publish(&[GROUPS[1]], wl.service, payload)
                    .is_ok()
                {
                    s.ids[0].push(0);
                }
                resend = Instant::now() + Duration::from_millis(500);
            }
            s.pump_all(None)?;
            s.wait_until(deadline, "the set-up probe")?;
        }
        Ok(s)
    }

    fn wait_until(&self, deadline: Instant, what: &str) -> Result<(), String> {
        if Instant::now() > deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(POLL);
        Ok(())
    }

    /// `n` sorted arrival times, uniform over `start..start + dur`.
    fn arrivals(&mut self, start: u64, dur: Duration, n: usize) -> Vec<u64> {
        let span = dur.as_nanos() as f64;
        let mut dues: Vec<u64> = (0..n)
            .map(|_| {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                let u = (self.rng >> 11) as f64 / (1u64 << 53) as f64;
                start + (u * span) as u64
            })
            .collect();
        dues.sort_unstable();
        dues
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs the workload for `dur`. A traced window also times every
    /// `pump` call and samples the daemons' gauges from `ring`.
    ///
    /// # Errors
    ///
    /// A violation, or a client error.
    pub fn window(&mut self, dur: Duration, traced: Option<&Ring>) -> Result<Window, Fail> {
        let mut sampler = traced.map(|ring| Sampler {
            addrs: ring.ards.iter().map(|a| a.metrics).collect(),
            next: Instant::now(),
            pending: Vec::new(),
            gauges: Gauges::default(),
        });
        let mut w = Window {
            start: self.now(),
            seqs: [0, 1].map(|c| (self.stamps[c].len() as u64 + 1, 0)),
            ..Window::default()
        };
        w.end = w.start + dur.as_nanos() as u64;
        // Open loop: rate × duration arrivals at seeded uniform times
        // (a Poisson process given its count), so the schedule meets
        // every phase of the daemons' poll timers.
        let dues = match self.wl.rate {
            Some(r) => self.arrivals(w.start, dur, (r * dur.as_secs_f64()).round() as usize),
            None => Vec::new(),
        };
        let mut sent = 0usize;
        loop {
            let now = self.now();
            let over = now >= w.end;
            let mut sleep = POLL;
            match self.wl.rate {
                // Past the end this sends every arrival still due: the
                // last sleep may overshoot the end by up to `POLL`.
                Some(_) => {
                    while dues.get(sent).is_some_and(|d| *d <= now) {
                        if !self.publish(0, Some(dues[sent]), &mut w)? {
                            break;
                        }
                        sent += 1;
                    }
                    if let Some(d) = dues.get(sent) {
                        let wait = d.saturating_sub(self.now());
                        sleep = sleep.min(Duration::from_nanos(wait));
                    }
                }
                None if !over => {
                    for c in 0..2 {
                        while self.publish(c, None, &mut w)? {}
                    }
                }
                None => {}
            }
            if over {
                break;
            }
            let pump_us = sampler.is_some().then_some(&mut w.pump_us);
            let events = self.pump_all(pump_us)?;
            if let Some(s) = sampler.as_mut() {
                s.poll(Instant::now())?;
            }
            if self.wl.rate.is_none() && events > 0 {
                continue;
            }
            std::thread::sleep(sleep);
        }
        if self.wl.rate.is_some() {
            w.attempted = dues.len() as u64;
            w.unsent = (dues.len() - sent) as u64;
        } else {
            w.attempted = (0..2)
                .map(|c| self.stamps[c].len() as u64 + 1 - w.seqs[c].0)
                .sum();
        }
        for c in 0..2 {
            w.seqs[c].1 = self.stamps[c].len() as u64 + 1;
        }
        // A message left waiting for a credit is not sent after the end.
        self.pending = [None, None];
        w.gauges = sampler.map(|s| s.gauges).unwrap_or_default();
        Ok(w)
    }

    /// Publishes client `c`'s next message; false when out of credits.
    fn publish(&mut self, c: usize, due: Option<u64>, w: &mut Window) -> Result<bool, Fail> {
        let (seq, payload) = match self.pending[c].take() {
            Some(p) => p,
            None => {
                let seq = self.stamps[c].len() as u64 + 1;
                let body = self.pool.body(seq, self.wl.size - HEADER);
                (seq, encode(DATA, c as u8, seq, body))
            }
        };
        let target = [GROUPS[1 - c]];
        let start = self.now();
        let r = self.clients[c].try_publish(&target, self.wl.service, payload.clone());
        let end = self.now();
        w.publish_calls += 1;
        match r {
            Ok(id) => {
                if id != self.ids[c].len() as u64 + 1 {
                    return Err(format!("publish id {id} out of sequence").into());
                }
                self.ids[c].push(seq);
                let s = self.oracle.publish(c);
                debug_assert_eq!(s, seq);
                self.stamps[c].push(Stamps {
                    due: due.unwrap_or(start),
                    start,
                    end,
                    ordered: None,
                    delivered: None,
                });
                Ok(true)
            }
            Err(PublishError::NoCredits) => {
                w.no_credit += 1;
                self.pending[c] = Some((seq, payload));
                Ok(false)
            }
            Err(e) => Err(format!("client {c} publish: {e}").into()),
        }
    }

    /// Pumps both clients and handles their events; returns how many.
    /// Times each `pump` call into `pump_us` when given.
    fn pump_all(&mut self, mut pump_us: Option<&mut Vec<f64>>) -> Result<usize, Fail> {
        let mut n = 0;
        for c in 0..2 {
            let t = pump_us.is_some().then(Instant::now);
            self.clients[c]
                .pump()
                .map_err(|e| format!("client {c} pump: {e}"))?;
            let now = self.now();
            if let (Some(v), Some(t)) = (pump_us.as_deref_mut(), t) {
                v.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
            while let Some(ev) = self.clients[c].poll_event() {
                n += 1;
                self.handle(c, ev, now)?;
            }
        }
        Ok(n)
    }

    fn handle(&mut self, c: usize, ev: SvcEvent, now: u64) -> Result<(), Fail> {
        match ev {
            SvcEvent::Deliver { payload, .. } => {
                let (kind, p, seq) = decode(&payload).map_err(Violation::Malformed)?;
                let p = p as usize;
                if p != 1 - c {
                    return Err(Violation::Malformed(format!(
                        "client {c} received publisher {p}'s message {seq}"
                    ))
                    .into());
                }
                if kind == PROBE {
                    self.probe_seen = true;
                    return Ok(());
                }
                self.oracle.deliver(p, seq)?;
                self.stamps[p][seq as usize - 1].delivered = Some(now);
            }
            SvcEvent::PublishOrdered { id } => {
                let seq = self.seq_of(c, id)?;
                if seq > 0 {
                    self.stamps[c][seq as usize - 1].ordered = Some(now);
                }
            }
            SvcEvent::PublishRejected { id, .. } => {
                let seq = self.seq_of(c, id)?;
                if seq > 0 {
                    self.oracle.reject(c, seq);
                }
            }
            SvcEvent::Evicted { reason } => {
                eprintln!("e2ebench: client {c} evicted: {reason}");
                self.evictions += 1;
            }
            // Resumption keeps the streams exactly-once (the oracle
            // checks that); the seam is worth a line.
            SvcEvent::Reconnected { resumed } => {
                eprintln!("e2ebench: client {c} reconnected (resumed: {resumed})");
            }
            SvcEvent::GroupRejected { group, reason, .. } => {
                return Err(format!("group {group} rejected: {reason}").into())
            }
            SvcEvent::Membership { .. } | SvcEvent::NetworkChange { .. } => {}
        }
        Ok(())
    }

    fn seq_of(&self, c: usize, id: u64) -> Result<u64, String> {
        id.checked_sub(1)
            .and_then(|i| self.ids[c].get(i as usize))
            .copied()
            .ok_or_else(|| format!("client {c} got an outcome for unknown publish {id}"))
    }

    /// Pumps until every published message is delivered or rejected,
    /// an eviction ends a stream, or `timeout` passes.
    ///
    /// # Errors
    ///
    /// A violation, or a client error.
    pub fn drain(&mut self, timeout: Duration) -> Result<(), Fail> {
        let deadline = Instant::now() + timeout;
        while !self.oracle.settled() && self.evictions == 0 && Instant::now() < deadline {
            self.pump_all(None)?;
            std::thread::sleep(POLL);
        }
        Ok(())
    }

    /// Checks both streams and tallies the window's messages.
    ///
    /// # Errors
    ///
    /// A gap in a stream.
    pub fn tally(&self, w: &Window) -> Result<Tally, Violation> {
        let mut t = Tally::default();
        for (c, (from, to)) in w.seqs.iter().enumerate() {
            let x = self.oracle.finish(c, *from, *to)?;
            t.delivered += x.delivered;
            t.rejected += x.rejected;
            t.lost += x.lost;
        }
        Ok(t)
    }

    /// The stamps of the window's messages, by publisher.
    pub fn window_stamps<'s>(
        &'s self,
        w: &'s Window,
    ) -> impl Iterator<Item = (usize, u64, &'s Stamps)> + 's {
        (0..2).flat_map(move |c| {
            let (from, to) = w.seqs[c];
            (from..to).map(move |seq| (c, seq, &self.stamps[c][seq as usize - 1]))
        })
    }
}
