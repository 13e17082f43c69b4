//! The nemesis: replays a [`NemesisPlan`] (crashes, restarts,
//! partitions, heals) against a ring while checking Extended Virtual
//! Synchrony invariants.
//!
//! Two modes share the plan format:
//!
//! * [`NemesisRunner`] — a deterministic harness over a **virtual
//!   clock**: a timed, seeded policy over one [`World`], which owns the
//!   [`Participant`]s, the messages in flight, the armed timers, the
//!   plan's [`Connectivity`] and the oracles, and applies the one
//!   crash/partition rule of [`crate::replay`]. The runner only decides
//!   *when*: a seeded RNG gives each new message its loss and arrival
//!   time, armed timers get deadlines, plan events become world fault
//!   operations. Given the same plan and seed, a run is
//!   **bit-identical**: the [`NemesisOutcome::digest`] can be compared
//!   across repeats. What the world must not hold (the explorer clones
//!   it per branch) stays here, fed by the world's deliveries and
//!   configuration changes: durable logs with their Safe-delivery
//!   fsync gate, adaptive timeouts, flight recorders, and the digest.
//! * live mode — a real multi-threaded ring of daemons wrapped in
//!   [`crate::chaos::ChaosTransport`]s; [`apply_connectivity`]
//!   translates the same plan's connectivity matrix onto the
//!   transports' [`ChaosControl`]s at wall-clock offsets. Threads make
//!   bit-identical replay impossible there, so live assertions are
//!   convergence-shaped (see `tests/nemesis_e2e.rs`).
//!
//! The plan type itself is [`ar_core::fault::FaultSchedule`], shared
//! with the simulator's `ar_sim::FaultPlan` (see its
//! `to_schedule`/`from_schedule`), so one fault scenario can drive all
//! three harnesses.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ar_core::checker::DurabilityChecker;
use ar_core::fault::{Connectivity, FaultEvent};
use ar_core::{
    AdaptiveConfig, AdaptiveTimeouts, ConfigChange, Delivery, Message, Participant, ParticipantId,
    ProtocolConfig, RingId, ServiceType, TimerKind,
};
use ar_log::{DeliveryRecord, FsyncPolicy, LogConfig, LogRecord, SegmentedLog};
use ar_telemetry::FlightRecorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chaos::ChaosControl;
use crate::replay::{kind_idx, Effect, ScheduleError, Step, World};

/// A crash/restart/partition/heal schedule, shared with the simulator.
pub use ar_core::fault::FaultSchedule as NemesisPlan;

/// Applies a [`Connectivity`] matrix onto the per-endpoint
/// [`ChaosControl`]s of a live ring: `controls[i]` belongs to the
/// endpoint whose pid is `ParticipantId::new(i)`.
///
/// Crashed hosts are blackholed; partition edges become outbound
/// blocks on the sending side (which covers destination-blind token
/// unicast as well — see [`crate::chaos`] module docs).
pub fn apply_connectivity(controls: &[ChaosControl], conn: &Connectivity) {
    for (i, control) in controls.iter().enumerate() {
        if conn.is_crashed(i) {
            control.crash();
            continue;
        }
        control.restart();
        let blocked = (0..controls.len())
            .filter(|&j| j != i && !conn.can_reach(i, j))
            .map(|j| ParticipantId::new(j as u16));
        control.set_blocked_to(blocked);
    }
}

/// One operation the runner applies to its [`World`]. Every change to
/// the world goes through [`NemesisRunner::apply`], so a run is exactly
/// the sequence of these it applied.
#[derive(Debug)]
enum Op {
    Submit(usize, Vec<u8>, ServiceType),
    Start(usize),
    Step(Step),
    Fault(FaultEvent),
}

impl Op {
    fn apply(&self, world: &mut World) -> Result<(), ScheduleError> {
        let host = |h: usize| u16::try_from(h).unwrap_or(u16::MAX);
        match self {
            Op::Submit(h, payload, service) => world.submit(host(*h), payload, *service),
            Op::Start(h) => world.start(host(*h)),
            Op::Step(step) => world.apply_step(step),
            Op::Fault(ev) => world.apply_fault(ev),
        }
    }
}

#[derive(Debug)]
enum EvKind {
    /// In-flight message `msg` arrives (if a fault has not cut it).
    Arrive { msg: u64 },
    /// A protocol timer fires at `host` (if this event is still the
    /// latest deadline set for it).
    Timer { host: usize, kind: TimerKind },
    /// The `i`-th plan event takes effect.
    Fault(usize),
    /// A scheduled application submission at `host`.
    Submit {
        host: usize,
        payload: Vec<u8>,
        service: ServiceType,
    },
    /// A scheduled change of `host`'s marginal-link loss probability.
    LossChange { host: usize, prob: f64 },
}

/// What a [`NemesisRunner`] run produced.
#[derive(Debug)]
pub struct NemesisOutcome {
    /// True if every surviving host ended operational on one common
    /// ring whose members are exactly the survivors.
    pub converged: bool,
    /// The ring each surviving host ended on (`None` for crashed
    /// hosts).
    pub final_rings: Vec<Option<RingId>>,
    /// Hosts alive at the end of the run.
    pub survivors: Vec<usize>,
    /// Deliveries per host.
    pub deliveries: Vec<usize>,
    /// EVS invariant violations (empty on a correct run).
    pub evs_violations: Vec<String>,
    /// Token retransmission-bound violations (empty on a correct run).
    pub token_violations: Vec<String>,
    /// Pre/post-token send-split violations (empty on a correct run).
    pub split_violations: Vec<String>,
    /// Durability-contract violations against the recovered on-disk
    /// logs (empty when durable logs are disabled or the contract
    /// held).
    pub durability_violations: Vec<String>,
    /// Delivery records recovered from disk per host at the end of the
    /// run (empty when durable logs are disabled).
    pub recovered_records: Vec<u64>,
    /// Tokens observed on the wire.
    pub tokens_seen: u64,
    /// Messages dropped by loss or unreachability.
    pub dropped: u64,
    /// Virtual time when the run stopped.
    pub stopped_at: Duration,
    /// FNV-1a digest of every host's delivery and configuration logs
    /// plus final rings; equal for equal (plan, seed) runs.
    pub digest: u64,
    /// Per-host flight recorders holding the tail of each host's
    /// protocol-event history (current incarnation; timestamps are
    /// virtual nanoseconds).
    pub flight: Vec<Arc<FlightRecorder>>,
    /// Per-host digests of the retained flight events; equal for equal
    /// (plan, seed) runs.
    pub flight_digests: Vec<u64>,
}

impl NemesisOutcome {
    /// The tail of every host's flight recorder (up to `per_host`
    /// events each), rendered for post-mortem reports.
    pub fn flight_tail(&self, per_host: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, fr) in self.flight.iter().enumerate() {
            let dump = fr.dump();
            let skip = dump.len().saturating_sub(per_host);
            let _ = writeln!(
                out,
                "host {i}: {} events recorded, last {}:",
                fr.total(),
                dump.len() - skip
            );
            for fe in &dump[skip..] {
                let _ = writeln!(out, "  at={} {:?}", fe.at, fe.ev);
            }
        }
        out
    }

    /// Panics with a readable report — including each host's recent
    /// protocol events — unless the run converged with no violations.
    pub fn assert_clean(&self) {
        for (what, v) in [
            ("EVS", &self.evs_violations),
            ("token rule", &self.token_violations),
            ("send-split", &self.split_violations),
            ("durability", &self.durability_violations),
        ] {
            assert!(
                v.is_empty(),
                "{what} violations: {v:#?}\n{}",
                self.flight_tail(10)
            );
        }
        assert!(
            self.converged,
            "ring did not converge: final rings {:?}, survivors {:?}\n{}",
            self.final_rings,
            self.survivors,
            self.flight_tail(10)
        );
    }
}

/// Deterministic single-threaded nemesis harness (see module docs).
#[derive(Debug)]
pub struct NemesisRunner {
    world: World,
    clock: u64,
    next_id: u64,
    /// Pending events keyed by (virtual time, scheduling order).
    queue: BTreeMap<(u64, u64), EvKind>,
    /// Per-host, per-kind event id of the latest timer deadline; a
    /// popped timer event fires only if it is still the latest and the
    /// world still has the timer armed.
    timer_event: Vec<[u64; 5]>,
    plan: NemesisPlan,
    rng: StdRng,
    drop_prob: f64,
    /// Extra per-host loss probability (a "marginal link"): a copy to or
    /// from host `i` is dropped with the max of `drop_prob` and the two
    /// endpoints' host rates.
    host_loss: Vec<f64>,
    pending_loss_changes: usize,
    /// Per-host rotation-informed timeout controllers (None = static
    /// timeouts, the default).
    adaptive: Vec<Option<AdaptiveTimeouts>>,
    /// When each host last received a token (virtual clock), for the
    /// adaptive rotation measurement.
    last_token_arrival: Vec<Option<u64>>,
    link_latency: u64,
    durability: DurabilityChecker,
    /// Per-host durable logs (None until
    /// [`enable_durable_logs`](NemesisRunner::enable_durable_logs)).
    durable: Vec<Option<HostDurable>>,
    /// Base directory of the per-host logs, plus the shared policy.
    durable_cfg: Option<(PathBuf, FsyncPolicy, bool)>,
    /// Delivery logs per host (survives restarts).
    pub logs: Vec<Vec<Delivery>>,
    /// Configuration-change logs per host.
    pub configs: Vec<Vec<ConfigChange>>,
    dropped: u64,
    /// Submitted payloads with their submission time and submitter.
    expected: Vec<(Vec<u8>, u64, usize)>,
    /// Virtual time each host's current incarnation started (0 unless
    /// restarted).
    incarnation: Vec<u64>,
    pending_submits: usize,
    /// Per-host flight recorders (attached as participant observers;
    /// re-attached across restarts).
    recorders: Vec<Arc<FlightRecorder>>,
    /// Every operation applied to the world, in order.
    #[cfg(test)]
    applied: Vec<Op>,
}

/// Events retained per host by the harness's flight recorders.
const FLIGHT_CAPACITY: usize = 256;

/// One host's durable log inside the virtual-clock harness.
#[derive(Debug)]
struct HostDurable {
    log: SegmentedLog,
    gate_safe: bool,
    /// Deliveries appended but withheld pending durability, in order.
    held: VecDeque<Delivery>,
}

fn host_log_dir(base: &std::path::Path, host: usize) -> PathBuf {
    base.join(format!("host-{host}"))
}

impl NemesisRunner {
    /// Builds `n` hosts on an established common ring, with per-copy
    /// loss probability `drop_prob` and the given fault plan. Host `i`
    /// is `ParticipantId::new(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, the protocol configuration is invalid, or
    /// `drop_prob` is outside `[0, 1)`.
    pub fn new(
        n: u16,
        protocol: ProtocolConfig,
        plan: NemesisPlan,
        drop_prob: f64,
        seed: u64,
    ) -> NemesisRunner {
        assert!(
            (0.0..1.0).contains(&drop_prob),
            "drop probability must be in [0, 1)"
        );
        let mut world = World::unstarted(n, &[], protocol).expect("a ring of at least one host");
        world.trace_effects();
        let recorders: Vec<Arc<FlightRecorder>> = (0..n)
            .map(|_| FlightRecorder::shared(FLIGHT_CAPACITY))
            .collect();
        for (i, fr) in recorders.iter().enumerate() {
            world.participant_mut(i as u16).set_observer(fr.clone());
        }
        let mut runner = NemesisRunner {
            world,
            clock: 0,
            next_id: 0,
            queue: BTreeMap::new(),
            timer_event: vec![[u64::MAX; 5]; n as usize],
            rng: StdRng::seed_from_u64(seed),
            drop_prob,
            host_loss: vec![0.0; n as usize],
            pending_loss_changes: 0,
            adaptive: (0..n).map(|_| None).collect(),
            last_token_arrival: vec![None; n as usize],
            // 50µs per hop: fast-datacenter-like, far below the 50ms
            // token-loss timeout so healthy rotations never time out.
            link_latency: 50_000,
            durability: DurabilityChecker::new(),
            durable: (0..n).map(|_| None).collect(),
            durable_cfg: None,
            logs: vec![Vec::new(); n as usize],
            configs: vec![Vec::new(); n as usize],
            dropped: 0,
            expected: Vec::new(),
            incarnation: vec![0; n as usize],
            pending_submits: 0,
            recorders,
            plan,
            #[cfg(test)]
            applied: Vec::new(),
        };
        for i in 0..runner.plan.events().len() {
            let at = runner.plan.events()[i].0.as_nanos() as u64;
            runner.push_event(at, EvKind::Fault(i));
        }
        runner
    }

    fn hosts(&self) -> usize {
        self.world.hosts() as usize
    }

    fn push_event(&mut self, at: u64, kind: EvKind) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.queue.insert((at, id), kind);
        id
    }

    /// Hands `host`'s participant the virtual time before it acts, so
    /// its flight events carry virtual timestamps.
    fn observe_now(&mut self, host: usize) {
        self.world
            .participant_mut(host as u16)
            .observe_now(self.clock);
    }

    /// Submits a payload for ordering at host `i` (tracked for the
    /// self-delivery check).
    pub fn submit(&mut self, i: usize, payload: &[u8], service: ServiceType) {
        self.expected.push((payload.to_vec(), self.clock, i));
        self.observe_now(i);
        self.apply(Op::Submit(i, payload.to_vec(), service))
            .expect("submitting host is in range");
    }

    /// Schedules a submission at host `i` for virtual time `at` — the
    /// way to inject traffic *after* a heal or restart, which is what
    /// lets separated rings detect each other and merge.
    pub fn submit_at(&mut self, at: Duration, i: usize, payload: &[u8], service: ServiceType) {
        self.pending_submits += 1;
        self.push_event(
            at.as_nanos() as u64,
            EvKind::Submit {
                host: i,
                payload: payload.to_vec(),
                service,
            },
        );
    }

    /// Starts every participant.
    pub fn start(&mut self) {
        for i in 0..self.hosts() {
            self.observe_now(i);
            self.apply(Op::Start(i)).expect("host in range");
        }
    }

    /// The per-host flight recorders (virtual-clock timestamps).
    pub fn flight_recorders(&self) -> &[Arc<FlightRecorder>] {
        &self.recorders
    }

    /// Host `i`'s participant (for end-of-run inspection: stats,
    /// timeouts, effective window, quarantine state).
    pub fn participant(&self, i: usize) -> &Participant {
        self.world.participant(i as u16)
    }

    /// Sets host `i`'s marginal-link loss probability immediately.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1)`.
    pub fn set_host_loss(&mut self, i: usize, prob: f64) {
        assert!(
            (0.0..1.0).contains(&prob),
            "host loss probability must be in [0, 1)"
        );
        self.host_loss[i] = prob;
    }

    /// Schedules host `i`'s marginal-link loss probability to change at
    /// virtual time `at` — the way to script a flapping or marginal
    /// link (alternating lossy and clean windows).
    pub fn schedule_host_loss(&mut self, at: Duration, i: usize, prob: f64) {
        assert!(
            (0.0..1.0).contains(&prob),
            "host loss probability must be in [0, 1)"
        );
        self.pending_loss_changes += 1;
        self.push_event(at.as_nanos() as u64, EvKind::LossChange { host: i, prob });
    }

    /// Enables rotation-informed failure detection on every host: each
    /// token arrival feeds that host's controller, and changed policies
    /// are installed via `Participant::adapt_timeouts`. Restarted hosts
    /// get a reset controller. Fully deterministic (driven by the
    /// virtual clock).
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid against the hosts' current
    /// timeout base.
    pub fn enable_adaptive(&mut self, policy: AdaptiveConfig) {
        for i in 0..self.hosts() {
            let base = *self.participant(i).timeouts();
            self.adaptive[i] =
                Some(AdaptiveTimeouts::new(base, policy).expect("valid adaptive policy"));
        }
    }

    /// Gives every host a durable segmented log under
    /// `base/host-<i>`, appended at delivery time. A [`FaultEvent::Crash`]
    /// then models `kill -9`: the host's in-memory log handle is dropped
    /// without a flush (buffered records die with the process) while
    /// the on-disk segments survive; a [`FaultEvent::Restart`] reopens
    /// the directory, truncating any torn tail. With `gate_safe` set,
    /// Safe deliveries are surfaced only once their record is fsynced.
    /// At the end of the run every host's disk is scanned and checked
    /// against the surfaced Safe deliveries by a [`DurabilityChecker`].
    ///
    /// # Panics
    ///
    /// Panics if a log directory cannot be created or opened.
    pub fn enable_durable_logs(
        &mut self,
        base: impl Into<PathBuf>,
        fsync: FsyncPolicy,
        gate_safe: bool,
    ) {
        let base = base.into();
        for i in 0..self.hosts() {
            self.durable[i] = Some(open_host_durable(&base, i, fsync, gate_safe));
        }
        self.durable_cfg = Some((base, fsync, gate_safe));
    }

    /// Applies one operation to the world, then consumes what it did in
    /// order: new messages get a loss draw and an arrival time, armed
    /// timers a deadline, deliveries and configuration changes go
    /// through the durable-log gate into the per-host logs. Keeping the
    /// world's send order keeps the RNG draw sequence.
    fn apply(&mut self, op: Op) -> Result<(), ScheduleError> {
        self.record(op)?;
        for effect in self.world.take_effects() {
            match effect {
                Effect::Sent { id, from, to } => self.route(id, from.into(), to.into()),
                Effect::Unreachable => self.dropped += 1,
                Effect::Armed { host, kind } => self.arm(host.into(), kind),
                Effect::Delivered { host, delivery } => self.deliver(host.into(), delivery),
                Effect::Config { host, change } => self.config_change(host.into(), change),
            }
        }
        // Bounded gate latency: anything withheld by this operation is
        // forced durable and surfaced before the harness moves on (one
        // fsync per operation, whatever the policy).
        for host in 0..self.hosts() {
            self.release_held(host);
        }
        Ok(())
    }

    /// Applies `op` to the world, leaving its effects for the caller
    /// (tests also keep the op, to replay the run on a fresh world).
    fn record(&mut self, op: Op) -> Result<(), ScheduleError> {
        op.apply(&mut self.world)?;
        #[cfg(test)]
        self.applied.push(op);
        Ok(())
    }

    /// Decides a fresh message's fate: lost (dropped from the world
    /// now) or delivered after the link latency plus jitter.
    fn route(&mut self, id: u64, from: usize, to: usize) {
        let loss = self
            .drop_prob
            .max(self.host_loss[from])
            .max(self.host_loss[to]);
        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            self.dropped += 1;
            self.record(Op::Step(Step::Drop { msg: id }))
                .expect("a fresh message is in flight");
            return;
        }
        // Small deterministic per-copy jitter keeps arrivals from
        // different senders interleaved rather than lockstep.
        let jitter = self.rng.gen_range(0..self.link_latency / 10 + 1);
        let at = self.clock + self.link_latency + jitter;
        self.push_event(at, EvKind::Arrive { msg: id });
    }

    /// Gives `host`'s freshly armed `kind` timer its deadline,
    /// superseding any earlier one.
    fn arm(&mut self, host: usize, kind: TimerKind) {
        let at = self.clock + self.timer_duration(host, kind);
        self.timer_event[host][kind_idx(kind)] = self.push_event(at, EvKind::Timer { host, kind });
    }

    /// Surfaces one delivery at `host`: feeds the durability checker
    /// and appends to the in-memory delivery log.
    fn surface(&mut self, host: usize, d: Delivery) {
        self.durability.on_safe_delivered(host, &d);
        self.logs[host].push(d);
    }

    /// Appends `d` to `host`'s durable log (if any) and either
    /// surfaces it or withholds it pending durability.
    fn deliver(&mut self, host: usize, d: Delivery) {
        if let Some(dur) = self.durable[host].as_mut() {
            let lsn = dur
                .log
                .append(&LogRecord::Delivery(DeliveryRecord {
                    ring: d.ring_id,
                    seq: d.seq,
                    pid: d.pid,
                    service: d.service,
                    payload: d.payload.clone(),
                }))
                .expect("nemesis durable log append");
            let _ = dur.log.maybe_sync(self.clock);
            // One withheld delivery gates everything ordered after it,
            // so the surfaced order stays the total order.
            let must_hold = dur.gate_safe
                && (!dur.held.is_empty()
                    || (d.service == ServiceType::Safe && lsn > dur.log.durable_lsn()));
            if must_hold {
                dur.held.push_back(d);
                return;
            }
        }
        self.surface(host, d);
    }

    fn config_change(&mut self, host: usize, c: ConfigChange) {
        // EVS: deliveries belong to the configuration they were ordered
        // in, so anything withheld must surface before the view change
        // does.
        self.release_held(host);
        if c.kind == ar_core::ConfigChangeKind::Regular {
            if let Some(dur) = self.durable[host].as_mut() {
                dur.log
                    .append(&LogRecord::Ring {
                        ring: c.ring_id,
                        members: c.members.clone(),
                    })
                    .expect("nemesis durable log append");
            }
        }
        self.configs[host].push(c);
    }

    /// Forces `host`'s log to disk and surfaces everything withheld.
    fn release_held(&mut self, host: usize) {
        let drained = match self.durable[host].as_mut() {
            Some(dur) if !dur.held.is_empty() => {
                dur.log.sync().expect("nemesis durable log sync");
                dur.held.drain(..).collect::<Vec<_>>()
            }
            _ => return,
        };
        for d in drained {
            self.surface(host, d);
        }
    }

    fn timer_duration(&self, host: usize, kind: TimerKind) -> u64 {
        let t = self.participant(host).timeouts();
        match kind {
            TimerKind::TokenLoss => t.token_loss,
            TimerKind::TokenRetransmit => t.token_retransmit,
            TimerKind::Join => t.join,
            TimerKind::ConsensusTimeout => t.consensus,
            TimerKind::CommitTimeout => t.commit,
        }
    }

    fn handle_fault(&mut self, idx: usize) {
        let (_, ev) = self.plan.events()[idx].clone();
        self.apply(Op::Fault(ev.clone()))
            .expect("plan hosts are in range");
        match ev {
            FaultEvent::Crash { host } => {
                // kill -9: the in-memory log handle dies with the
                // process. Buffered (never-flushed) records are lost;
                // whatever reached the OS survives on disk.
                self.durable[host] = None;
            }
            FaultEvent::Restart { host } => {
                self.incarnation[host] = self.clock;
                // The new incarnation measures rotations from scratch.
                self.last_token_arrival[host] = None;
                if let Some(ctl) = self.adaptive[host].as_mut() {
                    ctl.reset();
                }
                // Reopen the durable log from disk: recovery truncates
                // any torn tail and removes everything past the first
                // corruption, so nothing resurrects.
                if let Some((base, fsync, gate_safe)) = &self.durable_cfg {
                    self.durable[host] = Some(open_host_durable(base, host, *fsync, *gate_safe));
                }
                // The recorder survives the restart: its tail spans
                // incarnations, which is exactly what a post-mortem
                // wants to see.
                let recorder = self.recorders[host].clone();
                self.world
                    .participant_mut(host as u16)
                    .set_observer(recorder);
                self.observe_now(host);
                self.apply(Op::Start(host)).expect("host in range");
            }
            FaultEvent::Partition { .. } | FaultEvent::Heal => {}
        }
    }

    /// Runs until `limit` virtual time elapses or the ring converges
    /// (whichever is first), then evaluates the checkers.
    pub fn run(&mut self, limit: Duration) -> NemesisOutcome {
        let limit = limit.as_nanos() as u64;
        // Converged-state detection is re-checked at most once per
        // virtual millisecond to keep the hot loop cheap.
        let mut next_check = 0u64;
        // An event beyond the limit stays queued, so a later `run` with a
        // larger limit resumes exactly where this one stopped
        // (phase-based measurements rely on it).
        while let Some(next) = self.queue.first_entry().filter(|e| e.key().0 <= limit) {
            let ((at, id), kind) = next.remove_entry();
            self.clock = self.clock.max(at);
            match kind {
                EvKind::Arrive { msg } => {
                    // Gone if a crash or a partition cut it in flight.
                    let Some(m) = self.world.message(msg) else {
                        self.dropped += 1;
                        continue;
                    };
                    let to = m.to as usize;
                    if matches!(m.msg, Message::Token(_)) {
                        self.feed_adaptive(to);
                    }
                    self.observe_now(to);
                    self.apply(Op::Step(Step::Deliver { msg }))
                        .expect("message is in flight");
                }
                EvKind::Timer { host, kind } => {
                    let host16 = host as u16;
                    if self.world.is_failed(host16) {
                        continue;
                    }
                    // Superseded or cancelled timers do not fire.
                    if self.timer_event[host][kind_idx(kind)] == id
                        && self.world.is_armed(host16, kind)
                    {
                        self.observe_now(host);
                        self.apply(Op::Step(Step::Timer { host: host16, kind }))
                            .expect("timer is armed");
                    }
                }
                EvKind::Fault(idx) => self.handle_fault(idx),
                EvKind::LossChange { host, prob } => {
                    self.pending_loss_changes -= 1;
                    self.host_loss[host] = prob;
                }
                EvKind::Submit {
                    host,
                    payload,
                    service,
                } => {
                    self.pending_submits -= 1;
                    if !self.world.is_failed(host as u16) {
                        self.submit(host, &payload, service);
                    }
                }
            }
            if self.clock >= next_check {
                next_check = self.clock + 1_000_000;
                if self.faults_done() && self.is_converged() {
                    break;
                }
            }
        }
        self.outcome()
    }

    /// Feeds host `to`'s adaptive controller one rotation sample (the
    /// virtual time since its previous token receipt) and installs any
    /// newly derived policy.
    fn feed_adaptive(&mut self, to: usize) {
        if let Some(ctl) = self.adaptive[to].as_mut() {
            if let Some(prev) = self.last_token_arrival[to] {
                if ctl.record_rotation(self.clock - prev) {
                    let p = self.world.participant_mut(to as u16);
                    p.observe_now(self.clock);
                    let _ = p.adapt_timeouts(ctl.current());
                }
            }
            self.last_token_arrival[to] = Some(self.clock);
        }
    }

    fn faults_done(&self) -> bool {
        self.pending_submits == 0
            && self.pending_loss_changes == 0
            && self
                .plan
                .events()
                .last()
                .is_none_or(|(t, _)| self.clock >= t.as_nanos() as u64)
    }

    fn survivors(&self) -> Vec<usize> {
        (0..self.hosts())
            .filter(|&i| !self.world.is_failed(i as u16))
            .collect()
    }

    fn is_converged(&self) -> bool {
        let survivors = self.survivors();
        let Some(&first) = survivors.first() else {
            return false;
        };
        let want = self.participant(first).ring().id();
        let members: Vec<ParticipantId> = survivors
            .iter()
            .map(|&i| ParticipantId::new(i as u16))
            .collect();
        let component = |i: usize| self.world.component_of(i as u16);
        let all_partitions_healed = survivors.iter().all(|&i| component(i) == component(first));
        all_partitions_healed
            && survivors.iter().all(|&i| {
                let p = self.participant(i);
                p.is_operational() && p.ring().id() == want && p.ring().members() == members
            })
            && survivors
                .iter()
                .all(|&i| self.delivered_everything_expected(i))
    }

    /// True if host `i` has self-delivered every payload its *current
    /// incarnation* submitted. EVS confines a message to the
    /// configuration it was ordered in — a payload ordered in an
    /// intermediate merge ring is never delivered by hosts outside
    /// that ring, and submissions from a crashed incarnation die with
    /// it — so self-delivery is the strongest liveness guarantee the
    /// harness can demand. Cross-host consistency of whatever *was*
    /// delivered is enforced separately by the world's EVS oracle.
    fn delivered_everything_expected(&self, i: usize) -> bool {
        self.expected.iter().all(|(payload, at, submitter)| {
            *submitter != i
                || *at < self.incarnation[i]
                || self.logs[i].iter().any(|d| d.payload == payload[..])
        })
    }

    fn outcome(&mut self) -> NemesisOutcome {
        let survivors = self.survivors();
        let converged = self.is_converged();
        let final_rings: Vec<Option<RingId>> = (0..self.hosts())
            .map(|i| {
                if self.world.is_failed(i as u16) {
                    None
                } else {
                    Some(self.participant(i).ring().id())
                }
            })
            .collect();
        let [evs_violations, token_violations, split_violations] = self.world.oracle_violations();
        let mut recovered_records = vec![0u64; self.hosts()];
        if let Some((base, _, _)) = self.durable_cfg.clone() {
            for (i, recovered) in recovered_records.iter_mut().enumerate() {
                // Live hosts flush their tail first; crashed hosts are
                // scanned as their disk was left by the "kill".
                if let Some(dur) = self.durable[i].as_mut() {
                    dur.log.sync().expect("nemesis durable log sync");
                }
                let rec = ar_log::read_log_dir(&host_log_dir(&base, i))
                    .expect("scan nemesis durable log");
                *recovered = rec.records;
                for (_, r) in &rec.deliveries {
                    self.durability.on_log_record(
                        i,
                        &Delivery {
                            ring_id: r.ring,
                            seq: r.seq,
                            pid: r.pid,
                            service: r.service,
                            payload: r.payload.clone(),
                        },
                    );
                }
            }
        }
        let durability_violations = self.durability.check().err().unwrap_or_default();
        let digest = self.digest(&final_rings);
        NemesisOutcome {
            converged,
            final_rings,
            survivors,
            deliveries: self.logs.iter().map(Vec::len).collect(),
            evs_violations,
            token_violations,
            split_violations,
            durability_violations,
            recovered_records,
            tokens_seen: self.world.tokens_seen(),
            dropped: self.dropped,
            stopped_at: Duration::from_nanos(self.clock),
            digest,
            flight_digests: self.recorders.iter().map(|fr| fr.digest()).collect(),
            flight: self.recorders.clone(),
        }
    }

    fn digest(&self, final_rings: &[Option<RingId>]) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        // Trace-level counters make the digest sensitive to the path
        // taken, not just the end state: two seeds that happen to
        // converge identically still produce distinct digests when
        // their loss patterns differed.
        eat(&self.dropped.to_le_bytes());
        eat(&self.world.tokens_seen().to_le_bytes());
        eat(&self.clock.to_le_bytes());
        for (i, ring) in final_rings.iter().enumerate() {
            eat(&(i as u64).to_le_bytes());
            if let Some(r) = ring {
                eat(&r.representative().as_u16().to_le_bytes());
                eat(&r.ring_seq().to_le_bytes());
            }
            for d in &self.logs[i] {
                eat(&d.ring_id.ring_seq().to_le_bytes());
                eat(&d.seq.as_u64().to_le_bytes());
                eat(&d.pid.as_u16().to_le_bytes());
                eat(&d.payload);
            }
            for c in &self.configs[i] {
                eat(&[matches!(c.kind, ar_core::ConfigChangeKind::Regular) as u8]);
                eat(&c.ring_id.ring_seq().to_le_bytes());
                for m in &c.members {
                    eat(&m.as_u16().to_le_bytes());
                }
            }
        }
        h
    }
}

fn open_host_durable(
    base: &std::path::Path,
    host: usize,
    fsync: FsyncPolicy,
    gate_safe: bool,
) -> HostDurable {
    let cfg = LogConfig::new(host_log_dir(base, host)).with_fsync(fsync);
    let (log, _) = SegmentedLog::open(cfg).expect("open nemesis durable log");
    HostDurable {
        log,
        gate_safe,
        held: VecDeque::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(runner: &mut NemesisRunner, n: usize, per_host: usize) -> usize {
        let mut count = 0;
        for i in 0..n {
            for k in 0..per_host {
                runner.submit(i, format!("h{i}-m{k}").as_bytes(), ServiceType::Agreed);
                count += 1;
            }
        }
        count
    }

    #[test]
    fn fault_free_run_converges_clean() {
        let mut r = NemesisRunner::new(
            4,
            ProtocolConfig::accelerated(),
            NemesisPlan::none(),
            0.0,
            1,
        );
        let count = workload(&mut r, 4, 3);
        r.start();
        let out = r.run(Duration::from_secs(10));
        out.assert_clean();
        assert!(out.deliveries.iter().all(|&d| d >= count));
        r.world
            .evs_checker()
            .check_self_delivery(&[0, 1, 2, 3])
            .unwrap();
    }

    #[test]
    fn crash_shrinks_ring_and_stays_clean() {
        let plan = NemesisPlan::none().crash(Duration::from_millis(20), 2);
        let mut r = NemesisRunner::new(4, ProtocolConfig::accelerated(), plan, 0.0, 3);
        workload(&mut r, 4, 2);
        r.start();
        let out = r.run(Duration::from_secs(20));
        out.assert_clean();
        assert_eq!(out.survivors, vec![0, 1, 3]);
        assert!(out.final_rings[2].is_none());
    }

    #[test]
    fn partition_heal_reconverges() {
        let plan = NemesisPlan::none()
            .partition(Duration::from_millis(30), vec![0, 0, 1, 1])
            .heal(Duration::from_millis(400));
        let mut r = NemesisRunner::new(4, ProtocolConfig::accelerated(), plan, 0.0, 5);
        workload(&mut r, 4, 2);
        // Post-heal traffic is what lets the two sides hear each other
        // and merge.
        r.submit_at(
            Duration::from_millis(450),
            0,
            b"post-heal-0",
            ServiceType::Agreed,
        );
        r.submit_at(
            Duration::from_millis(450),
            2,
            b"post-heal-2",
            ServiceType::Agreed,
        );
        r.start();
        let out = r.run(Duration::from_secs(30));
        out.assert_clean();
        assert_eq!(out.survivors.len(), 4);
        let rings: Vec<_> = out.final_rings.iter().flatten().collect();
        assert!(rings.windows(2).all(|w| w[0] == w[1]), "{rings:?}");
    }

    #[test]
    fn restart_rejoins_the_ring() {
        let plan = NemesisPlan::none()
            .crash(Duration::from_millis(20), 1)
            .restart(Duration::from_millis(300), 1);
        let mut r = NemesisRunner::new(3, ProtocolConfig::accelerated(), plan, 0.0, 8);
        workload(&mut r, 3, 2);
        r.submit_at(
            Duration::from_millis(350),
            0,
            b"post-restart",
            ServiceType::Agreed,
        );
        r.start();
        let out = r.run(Duration::from_secs(30));
        assert!(
            out.evs_violations.is_empty(),
            "EVS violations: {:#?}",
            out.evs_violations
        );
        assert_eq!(out.survivors.len(), 3);
        assert!(
            out.converged,
            "restarted host rejoined: {:?}",
            out.final_rings
        );
    }

    #[test]
    fn digests_are_bit_identical_across_repeats() {
        let run = |seed: u64| {
            let plan = NemesisPlan::none()
                .crash(Duration::from_millis(25), 4)
                .partition(Duration::from_millis(60), vec![0, 0, 0, 1, 1])
                .heal(Duration::from_millis(300));
            let mut r = NemesisRunner::new(5, ProtocolConfig::accelerated(), plan, 0.02, seed);
            workload(&mut r, 5, 2);
            r.submit_at(
                Duration::from_millis(350),
                0,
                b"post-heal",
                ServiceType::Agreed,
            );
            r.start();
            r.run(Duration::from_secs(30)).digest
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds explore different runs");
    }

    #[test]
    fn flight_recorders_capture_deterministic_event_tails() {
        let run = |seed: u64| {
            let plan = NemesisPlan::none()
                .crash(Duration::from_millis(25), 2)
                .restart(Duration::from_millis(300), 2);
            let mut r = NemesisRunner::new(3, ProtocolConfig::accelerated(), plan, 0.01, seed);
            workload(&mut r, 3, 2);
            r.submit_at(
                Duration::from_millis(350),
                0,
                b"post-restart",
                ServiceType::Agreed,
            );
            r.start();
            r.run(Duration::from_secs(30))
        };
        let a = run(11);
        let b = run(11);
        assert!(a.flight.iter().all(|fr| fr.total() > 0), "events recorded");
        assert_eq!(
            a.flight_digests, b.flight_digests,
            "same (plan, seed) => identical event histories"
        );
        let c = run(12);
        assert_ne!(a.flight_digests, c.flight_digests);
        // The tail report mentions every host.
        let tail = a.flight_tail(5);
        for host in 0..3 {
            assert!(tail.contains(&format!("host {host}:")), "{tail}");
        }
        // Timestamps are the virtual clock: monotone within each dump.
        for fr in &a.flight {
            let dump = fr.dump();
            assert!(dump.windows(2).all(|w| w[0].at <= w[1].at));
        }
    }

    #[test]
    fn nemesis_run_is_a_world_trace() {
        // The runner adds only timing and randomness: replaying the
        // operations it applied on a fresh world reaches the same state.
        let plan = NemesisPlan::none()
            .crash(Duration::from_millis(20), 3)
            .partition(Duration::from_millis(60), vec![0, 0, 1, 1])
            .heal(Duration::from_millis(300));
        let mut r = NemesisRunner::new(4, ProtocolConfig::accelerated(), plan, 0.02, 9);
        workload(&mut r, 4, 2);
        r.start();
        let out = r.run(Duration::from_secs(2));
        assert!(out.evs_violations.is_empty(), "{:?}", out.evs_violations);
        let has = |f: fn(&Op) -> bool| r.applied.iter().any(f);
        assert!(has(|op| matches!(op, Op::Submit { .. })));
        assert!(has(|op| matches!(op, Op::Step(Step::Drop { .. }))));
        assert!(has(|op| matches!(op, Op::Step(Step::Timer { .. }))));
        assert!(has(|op| matches!(op, Op::Fault(FaultEvent::Heal))));

        let mut replayed = World::unstarted(4, &[], ProtocolConfig::accelerated()).unwrap();
        for op in &r.applied {
            op.apply(&mut replayed).unwrap();
        }
        assert_eq!(replayed.deliveries(), r.world.deliveries());
        assert_eq!(replayed.state_hash(), r.world.state_hash());
        let delivered: Vec<u64> = r.logs.iter().map(|l| l.len() as u64).collect();
        assert_eq!(replayed.deliveries(), &delivered[..]);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ar-nemesis-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn durable_crash_restart_loses_no_safe_delivery() {
        let dir = temp_dir("crash");
        let _ = std::fs::remove_dir_all(&dir);
        let plan = NemesisPlan::none()
            .crash(Duration::from_millis(40), 1)
            .restart(Duration::from_millis(300), 1);
        let mut r = NemesisRunner::new(3, ProtocolConfig::accelerated(), plan, 0.01, 21);
        r.enable_durable_logs(&dir, FsyncPolicy::EveryN(4), true);
        for i in 0..3 {
            for k in 0..4 {
                r.submit(i, format!("h{i}-m{k}").as_bytes(), ServiceType::Safe);
            }
        }
        r.submit_at(
            Duration::from_millis(350),
            0,
            b"post-restart",
            ServiceType::Safe,
        );
        r.start();
        let out = r.run(Duration::from_secs(30));
        out.assert_clean();
        assert!(
            out.recovered_records.iter().all(|&n| n > 0),
            "every disk held records: {:?}",
            out.recovered_records
        );
        // The restarted host's disk spans both incarnations.
        let rec = ar_log::read_log_dir(&host_log_dir(&dir, 1)).unwrap();
        assert!(rec
            .deliveries
            .iter()
            .any(|(_, d)| d.payload.as_ref() == b"h1-m0"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_digests_match_plain_runs_and_repeats() {
        // The durable log must not perturb protocol behaviour: the
        // trace digest of a durable run equals the plain run's, and
        // repeats are bit-identical.
        let plan = || {
            NemesisPlan::none()
                .crash(Duration::from_millis(30), 2)
                .restart(Duration::from_millis(280), 2)
        };
        let run = |dir: Option<PathBuf>| {
            let mut r = NemesisRunner::new(3, ProtocolConfig::accelerated(), plan(), 0.02, 7);
            if let Some(dir) = dir {
                r.enable_durable_logs(dir, FsyncPolicy::Always, true);
            }
            workload(&mut r, 3, 2);
            r.submit_at(
                Duration::from_millis(330),
                0,
                b"post-restart",
                ServiceType::Safe,
            );
            r.start();
            r.run(Duration::from_secs(30))
        };
        let d1 = temp_dir("digest1");
        let d2 = temp_dir("digest2");
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d2);
        let plain = run(None);
        plain.assert_clean();
        let a = run(Some(d1.clone()));
        let b = run(Some(d2.clone()));
        a.assert_clean();
        assert_eq!(a.digest, b.digest, "same (plan, seed) => same digest");
        assert_eq!(
            a.digest, plain.digest,
            "durable logging must not change the observable trace"
        );
        std::fs::remove_dir_all(&d1).unwrap();
        std::fs::remove_dir_all(&d2).unwrap();
    }

    #[test]
    fn apply_connectivity_maps_matrix_to_controls() {
        let controls: Vec<ChaosControl> = (0..3).map(|_| ChaosControl::new()).collect();
        let mut conn = Connectivity::full(3);
        conn.apply(&FaultEvent::Crash { host: 0 });
        conn.apply(&FaultEvent::Partition {
            component_of: vec![0, 1, 2],
        });
        apply_connectivity(&controls, &conn);
        assert!(controls[0].is_crashed());
        assert!(!controls[1].is_crashed());
        // Hosts 1 and 2 are in different components: both block each
        // other outbound.
        let s_before = controls[1].stats();
        assert_eq!(s_before.total_sent(), 0);
        conn.apply(&FaultEvent::Heal);
        conn.apply(&FaultEvent::Restart { host: 0 });
        apply_connectivity(&controls, &conn);
        assert!(!controls[0].is_crashed());
    }
}
