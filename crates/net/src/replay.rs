//! The deterministic [`World`] both the explorer and the nemesis run in,
//! and the schedule format that replays it.
//!
//! A [`World`] owns a small ring of sans-io [`Participant`]s, the
//! messages in flight, the armed-timer matrix, the network's
//! [`Connectivity`], and the oracles that watch every step
//! ([`EvsChecker`], [`TokenRuleMonitor`], [`SendSplitChecker`]). It has
//! no clock and no randomness; two callers choose what happens next:
//!
//! * the explorer (`ar-explore`) enumerates interleavings and writes a
//!   path that violates an oracle out as a **schedule** (initial
//!   conditions plus the exact [`Step`] sequence), which replays
//!   bit-identically here; `tests/corpus/` holds regression schedules;
//! * the nemesis ([`crate::nemesis::NemesisRunner`]) is a timed, seeded
//!   policy over one world: a virtual clock, an RNG for each new
//!   message's loss and arrival time, and deadlines for armed timers.
//!
//! Determinism contract (what makes a schedule replayable):
//!
//! * message identifiers are assigned sequentially in the order the
//!   environment observes sends, with multicast fan-out enumerated in
//!   ascending host order;
//! * the action lists a participant emits are ingested in list order;
//! * timers are a per-host armed/disarmed matrix (virtual deadlines
//!   are irrelevant — the explorer treats "the timer fires now" as one
//!   of the adversary's moves whenever the timer is armed).
//!
//! Faults follow one rule whoever injects them (a schedule's
//! [`Step::Fail`]/[`Step::Partition`]/[`Step::Merge`] or a nemesis
//! plan's [`FaultEvent`]s): a crashed host's timers disarm and the
//! messages in flight *to* it are discarded, while those it already
//! sent stay in flight; a partition discards the in-flight messages
//! crossing the new cut; afterwards, sends to a crashed or unreachable
//! host are discarded at the sender. A heal restores reachability and
//! resurrects nothing; a restart installs a fresh singleton
//! incarnation that rejoins through membership.

use ar_core::checker::{EvsChecker, SendSplitChecker, TokenRuleMonitor};
use ar_core::fault::{Connectivity, FaultEvent};
use ar_core::statehash::{StateHash, StateHasher};
use ar_core::wire;
use ar_core::{
    Action, ConfigChange, Delivery, Message, Participant, ParticipantId, ProtocolConfig, RingId,
    ServiceType, TimerKind,
};
use ar_telemetry::json::{JsonWriter, Value};
use bytes::Bytes;

/// Timer kinds in their canonical order: the schedule order of timer
/// steps and the index of a host's row in the armed-timer matrix.
pub const TIMER_KINDS: [TimerKind; 5] = [
    TimerKind::TokenLoss,
    TimerKind::TokenRetransmit,
    TimerKind::Join,
    TimerKind::ConsensusTimeout,
    TimerKind::CommitTimeout,
];

/// How many hosts a [`Step::Partition`] mask can place (one bit each).
const MASK_HOSTS: u16 = u8::BITS as u16;

pub(crate) fn kind_idx(kind: TimerKind) -> usize {
    TIMER_KINDS
        .iter()
        .position(|&k| k == kind)
        .expect("known kind")
}

/// Schedule names of [`TIMER_KINDS`], position for position.
const TIMER_NAMES: [&str; 5] = [
    "token-loss",
    "token-retransmit",
    "join",
    "consensus",
    "commit",
];

fn kind_name(kind: TimerKind) -> &'static str {
    TIMER_NAMES[kind_idx(kind)]
}

fn kind_from_name(s: &str) -> Option<TimerKind> {
    TIMER_NAMES
        .iter()
        .position(|&n| n == s)
        .map(|i| TIMER_KINDS[i])
}

fn service_name(s: ServiceType) -> &'static str {
    match s {
        ServiceType::Reliable => "reliable",
        ServiceType::Fifo => "fifo",
        ServiceType::Causal => "causal",
        ServiceType::Agreed => "agreed",
        ServiceType::Safe => "safe",
    }
}

fn service_from_name(s: &str) -> Option<ServiceType> {
    use ServiceType::*;
    [Reliable, Fifo, Causal, Agreed, Safe]
        .into_iter()
        .find(|&v| service_name(v) == s)
}

/// One adversary move in a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Step {
    /// Deliver in-flight message `msg` to its destination and remove it
    /// from flight.
    Deliver {
        /// The in-flight message identifier.
        msg: u64,
    },
    /// Deliver a *copy* of in-flight message `msg`, leaving the
    /// original in flight (bounded duplication; each message may be
    /// duplicated once).
    Duplicate {
        /// The in-flight message identifier.
        msg: u64,
    },
    /// Silently discard in-flight message `msg` (loss).
    Drop {
        /// The in-flight message identifier.
        msg: u64,
    },
    /// Fire an armed protocol timer at `host`.
    Timer {
        /// The host whose timer fires.
        host: u16,
        /// Which timer fires.
        kind: TimerKind,
    },
    /// A host that started outside the initial ring boots and seeks a
    /// configuration: it multicasts its join message and enters Gather
    /// (the membership "node join" transition).
    Join {
        /// The joining host (must be listed in the schedule's
        /// `joiners`).
        host: u16,
    },
    /// Silent stop: `host` ceases to process or send anything, its
    /// timers disarm, and messages addressed to it vanish. Spends one
    /// unit of the world's fault budget.
    Fail {
        /// The host that fails.
        host: u16,
    },
    /// Split the network into two components: hosts with bit `i` set in
    /// `mask` form one component, the rest the other. In-flight
    /// messages crossing the cut are discarded and later sends across
    /// it are silently dropped. Canonical form keeps host 0's bit
    /// clear; worlds of more than eight hosts cannot be split by mask.
    /// Spends one unit of the fault budget.
    Partition {
        /// Component bitmask (bit per host; bit 0 must be clear).
        mask: u8,
    },
    /// Heal the partition: all hosts are mutually reachable again.
    Merge,
}

impl Step {
    /// Short human-readable rendering (`deliver#4`, `timer@2:join`,
    /// `partition:0b110`).
    pub fn describe(&self) -> String {
        let op = self.op_name();
        match self {
            Step::Deliver { msg } | Step::Duplicate { msg } | Step::Drop { msg } => {
                format!("{op}#{msg}")
            }
            Step::Timer { host, kind } => format!("{op}@{host}:{}", kind_name(*kind)),
            Step::Join { host } | Step::Fail { host } => format!("{op}@{host}"),
            Step::Partition { mask } => format!("{op}:{mask:#05b}"),
            Step::Merge => op.into(),
        }
    }

    /// The step's `op` name in schedule JSON.
    fn op_name(&self) -> &'static str {
        match self {
            Step::Deliver { .. } => "deliver",
            Step::Duplicate { .. } => "duplicate",
            Step::Drop { .. } => "drop",
            Step::Timer { .. } => "timer",
            Step::Join { .. } => "join",
            Step::Fail { .. } => "fail",
            Step::Partition { .. } => "partition",
            Step::Merge => "merge",
        }
    }
}

/// A workload submission in a schedule's initial conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// The submitting host.
    pub host: u16,
    /// The payload (ASCII; schedules store it as a JSON string).
    pub payload: String,
    /// The requested delivery service.
    pub service: ServiceType,
}

/// What a schedule claims about its own outcome, re-asserted on replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Every oracle stays green along the whole schedule.
    Clean,
    /// At least one oracle reports a violation by the end.
    Violation,
}

/// A replayable counterexample (or regression) schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Number of hosts (`ParticipantId` 0..hosts). Hosts not listed in
    /// `joiners` start on one established ring.
    pub hosts: u16,
    /// Hosts that start *outside* the initial ring as idle singletons;
    /// each enters the world only when its [`Step::Join`] fires.
    pub joiners: Vec<u16>,
    /// Named protocol configuration: `"accelerated"`, `"original"`, or
    /// `"damped"` (accelerated + flap damping).
    pub config: String,
    /// Payloads submitted (in order) before the ring starts.
    pub submissions: Vec<Submission>,
    /// The adversary's step sequence.
    pub steps: Vec<Step>,
    /// The outcome the schedule was recorded with.
    pub expect: Expectation,
    /// Free-form provenance note (which oracle fired, explorer depth,
    /// seed — anything a human debugging the replay wants to see).
    pub note: String,
}

/// Errors loading or executing a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The schedule file was not valid JSON.
    Json(String),
    /// The schedule JSON was missing or mistyped a field.
    Malformed(String),
    /// A step referenced a message not currently in flight.
    UnknownMessage(u64),
    /// A `Duplicate` step targeted a message whose duplication budget
    /// is spent.
    DuplicationExhausted(u64),
    /// A `Timer` step targeted a timer that is not armed.
    TimerNotArmed {
        /// The host whose timer was named.
        host: u16,
        /// The timer kind named.
        kind: &'static str,
    },
    /// A host index was outside `0..hosts`.
    HostOutOfRange(u16),
    /// The `config` name is not a known protocol configuration.
    UnknownConfig(String),
    /// A `Join` step targeted a host that is not a joiner or already
    /// joined.
    CannotJoin(u16),
    /// A step targeted a host that already failed (or tried to fail it
    /// twice).
    HostAlreadyFailed(u16),
    /// A `Fail` or `Partition` step arrived with the fault budget
    /// spent.
    FaultBudgetExhausted,
    /// A `Partition` mask was non-canonical (zero, host 0 set, or bits
    /// beyond the host count), the world has more hosts than the mask
    /// has bits, or the world is already partitioned.
    BadPartition(u8),
    /// A `Merge` step arrived with no partition in force.
    NotPartitioned,
    /// The `joiners` list was invalid (out of range, duplicated, or no
    /// host left on the initial ring).
    BadJoiners(String),
    /// The world was asked for zero hosts.
    NoHosts,
}

impl core::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScheduleError::Json(e) => write!(f, "schedule is not valid JSON: {e}"),
            ScheduleError::Malformed(e) => write!(f, "malformed schedule: {e}"),
            ScheduleError::UnknownMessage(id) => {
                write!(f, "step references message #{id} not in flight")
            }
            ScheduleError::DuplicationExhausted(id) => {
                write!(f, "message #{id} already duplicated")
            }
            ScheduleError::TimerNotArmed { host, kind } => {
                write!(f, "timer {kind} not armed at host {host}")
            }
            ScheduleError::HostOutOfRange(h) => write!(f, "host {h} out of range"),
            ScheduleError::UnknownConfig(c) => write!(f, "unknown protocol config {c:?}"),
            ScheduleError::CannotJoin(h) => {
                write!(f, "host {h} is not an unjoined joiner")
            }
            ScheduleError::HostAlreadyFailed(h) => write!(f, "host {h} already failed"),
            ScheduleError::FaultBudgetExhausted => write!(f, "fault budget exhausted"),
            ScheduleError::BadPartition(m) => {
                write!(f, "partition mask {m:#b} is not applicable here")
            }
            ScheduleError::NotPartitioned => write!(f, "no partition in force to merge"),
            ScheduleError::BadJoiners(e) => write!(f, "bad joiners list: {e}"),
            ScheduleError::NoHosts => write!(f, "a world needs at least one host"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// Serializes the schedule to its canonical JSON text.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        let num = |w: &mut JsonWriter, k: &str, v: u64| {
            w.key(k);
            w.num_u64(v);
        };
        let text = |w: &mut JsonWriter, k: &str, v: &str| {
            w.key(k);
            w.str(v);
        };
        w.begin_object();
        num(&mut w, "schema", 2);
        text(&mut w, "kind", "ar-explore-schedule");
        num(&mut w, "hosts", self.hosts.into());
        if !self.joiners.is_empty() {
            w.key("joiners");
            w.begin_array();
            for &j in &self.joiners {
                w.num_u64(u64::from(j));
            }
            w.end_array();
        }
        text(&mut w, "config", &self.config);
        text(&mut w, "note", &self.note);
        let expect = match self.expect {
            Expectation::Clean => "clean",
            Expectation::Violation => "violation",
        };
        text(&mut w, "expect", expect);
        w.key("submissions");
        w.begin_array();
        for s in &self.submissions {
            w.begin_object();
            num(&mut w, "host", s.host.into());
            text(&mut w, "payload", &s.payload);
            text(&mut w, "service", service_name(s.service));
            w.end_object();
        }
        w.end_array();
        w.key("steps");
        w.begin_array();
        for step in &self.steps {
            w.begin_object();
            text(&mut w, "op", step.op_name());
            match *step {
                Step::Deliver { msg } | Step::Duplicate { msg } | Step::Drop { msg } => {
                    num(&mut w, "msg", msg);
                }
                Step::Timer { host, kind } => {
                    num(&mut w, "host", host.into());
                    text(&mut w, "kind", kind_name(kind));
                }
                Step::Join { host } | Step::Fail { host } => num(&mut w, "host", host.into()),
                Step::Partition { mask } => num(&mut w, "mask", mask.into()),
                Step::Merge => {}
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Parses a schedule from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Json`] for invalid JSON and
    /// [`ScheduleError::Malformed`] for structurally wrong schedules.
    pub fn from_json(text: &str) -> Result<Schedule, ScheduleError> {
        let v = Value::parse(text).map_err(|e| ScheduleError::Json(format!("{e:?}")))?;
        if v.as_object().is_none() {
            return Err(malformed("schedule must be an object".into()));
        }
        let top = "schedule";
        if str_field(&v, "kind", top)? != "ar-explore-schedule" {
            return Err(malformed("kind must be \"ar-explore-schedule\"".into()));
        }
        let expect = match str_field(&v, "expect", top)? {
            "clean" => Expectation::Clean,
            "violation" => Expectation::Violation,
            other => return Err(malformed(format!("unknown expect {other:?}"))),
        };
        let mut submissions = Vec::new();
        for (i, s) in array_field(&v, "submissions", top)?.iter().enumerate() {
            let at = format!("submission {i}");
            let service = str_field(s, "service", &at)?;
            submissions.push(Submission {
                host: num_field(s, "host", &at)? as u16,
                payload: str_field(s, "payload", &at)?.to_owned(),
                service: service_from_name(service)
                    .ok_or_else(|| malformed(format!("{at}: unknown service {service:?}")))?,
            });
        }
        let mut steps = Vec::new();
        for (i, s) in array_field(&v, "steps", top)?.iter().enumerate() {
            let at = format!("step {i}");
            let host = || num_field(s, "host", &at).map(|h| h as u16);
            let msg = || num_field(s, "msg", &at);
            steps.push(match str_field(s, "op", &at)? {
                "deliver" => Step::Deliver { msg: msg()? },
                "duplicate" => Step::Duplicate { msg: msg()? },
                "drop" => Step::Drop { msg: msg()? },
                "timer" => {
                    let kind = str_field(s, "kind", &at)?;
                    Step::Timer {
                        host: host()?,
                        kind: kind_from_name(kind).ok_or_else(|| {
                            malformed(format!("{at}: unknown timer kind {kind:?}"))
                        })?,
                    }
                }
                "join" => Step::Join { host: host()? },
                "fail" => Step::Fail { host: host()? },
                "partition" => Step::Partition {
                    mask: num_field(s, "mask", &at)? as u8,
                },
                "merge" => Step::Merge,
                other => return Err(malformed(format!("{at}: unknown op {other:?}"))),
            });
        }
        // `joiners` is optional: schema-1 schedules (all hosts on one
        // ring) omit it.
        let mut joiners = Vec::new();
        if v.get("joiners").is_some() {
            for j in array_field(&v, "joiners", top)? {
                let num = j.as_f64().ok_or_else(|| malformed("bad joiner".into()));
                joiners.push(num? as u16);
            }
        }
        Ok(Schedule {
            hosts: num_field(&v, "hosts", top)? as u16,
            joiners,
            config: str_field(&v, "config", top)?.to_owned(),
            submissions,
            steps,
            expect,
            note: str_field(&v, "note", top).unwrap_or_default().to_owned(),
        })
    }
}

fn malformed(what: String) -> ScheduleError {
    ScheduleError::Malformed(what)
}

fn field<'v>(v: &'v Value, key: &str, at: &str) -> Result<&'v Value, ScheduleError> {
    v.get(key)
        .ok_or_else(|| malformed(format!("{at} missing {key:?}")))
}

fn num_field(v: &Value, key: &str, at: &str) -> Result<u64, ScheduleError> {
    field(v, key, at)?
        .as_f64()
        .map(|f| f as u64)
        .ok_or_else(|| malformed(format!("{at}: {key:?} must be a number")))
}

fn str_field<'v>(v: &'v Value, key: &str, at: &str) -> Result<&'v str, ScheduleError> {
    field(v, key, at)?
        .as_str()
        .ok_or_else(|| malformed(format!("{at}: {key:?} must be a string")))
}

fn array_field<'v>(v: &'v Value, key: &str, at: &str) -> Result<&'v [Value], ScheduleError> {
    field(v, key, at)?
        .as_array()
        .ok_or_else(|| malformed(format!("{at}: {key:?} must be an array")))
}

fn config_by_name(name: &str) -> Result<ProtocolConfig, ScheduleError> {
    match name {
        "accelerated" => Ok(ProtocolConfig::accelerated()),
        "original" => Ok(ProtocolConfig::original()),
        // Accelerated plus membership flap damping at its default
        // policy — the configuration the quarantine-war regression
        // schedules replay under.
        "damped" => {
            Ok(ProtocolConfig::accelerated()
                .with_flap_damping(ar_core::FlapDampingConfig::enabled()))
        }
        other => Err(ScheduleError::UnknownConfig(other.to_owned())),
    }
}

/// A message travelling between hosts, owned by the [`World`].
#[derive(Debug, Clone)]
pub struct Inflight {
    /// Stable identifier, assigned in send order.
    pub id: u64,
    /// Sending host (used to cut messages crossing a partition).
    pub from: u16,
    /// Destination host.
    pub to: u16,
    /// The message itself.
    pub msg: Message,
    /// Remaining duplication budget (1 for fresh messages; a
    /// duplicated copy spends it).
    pub dup_left: u8,
}

/// One thing a [`World`] operation did, reported in order to a caller
/// that asked for a trace (the nemesis policy, which times them).
#[derive(Debug, Clone)]
pub(crate) enum Effect {
    /// Message `id` from `from` to `to` entered flight.
    Sent { id: u64, from: u16, to: u16 },
    /// A send to a crashed or unreachable host was discarded.
    Unreachable,
    /// `host` armed (or re-armed) a protocol timer.
    Armed { host: u16, kind: TimerKind },
    /// `host` delivered a message to its application.
    Delivered { host: u16, delivery: Delivery },
    /// `host` delivered a configuration change.
    Config { host: u16, change: ConfigChange },
}

/// The component vector a [`Step::Partition`] mask describes in an
/// `n`-host world: bit `h` places host `h`. This is the one place masks
/// become components, so [`World::enabled`] and [`World::apply_step`]
/// share its width rule.
fn mask_components(n: u16, mask: u8) -> Result<Vec<u8>, ScheduleError> {
    let full = ((1u16 << n.min(MASK_HOSTS)) - 1) as u8;
    if n > MASK_HOSTS || mask == 0 || mask & 1 != 0 || mask & !full != 0 {
        return Err(ScheduleError::BadPartition(mask));
    }
    Ok((0..n).map(|h| (mask >> h) & 1).collect())
}

/// A deterministic, cloneable mini-universe of `n` participants with
/// explicit in-flight messages, an armed-timer matrix, and the network's
/// [`Connectivity`], watched by the oracles.
///
/// *Every* nondeterministic choice (which message arrives next, what is
/// lost or duplicated, when timers fire or faults strike) is an
/// operation chosen by the caller. Cloning the world forks the
/// universe, which is what makes depth-first exploration cheap.
#[derive(Debug, Clone)]
pub struct World {
    n: u16,
    cfg: ProtocolConfig,
    parts: Vec<Participant>,
    inflight: Vec<Inflight>,
    next_msg_id: u64,
    /// Per-host armed flags, indexed by [`TIMER_KINDS`] position.
    armed: Vec<[bool; 5]>,
    /// True for hosts that start outside the initial ring.
    joiner: Vec<bool>,
    /// True once a joiner's [`Step::Join`] has fired.
    joined: Vec<bool>,
    /// Crashed hosts and partition components.
    conn: Connectivity,
    /// Remaining `Fail`/`Partition` steps the adversary may take. Part
    /// of the state fingerprint: two otherwise-identical worlds with
    /// different remaining budgets have different futures.
    fault_budget: u8,
    checker: EvsChecker,
    monitor: TokenRuleMonitor,
    split: SendSplitChecker,
    deliveries: Vec<u64>,
    steps_applied: u64,
    dropped: u64,
    duplicated: u64,
    /// Effects since the last [`World::take_effects`] (`None` = untraced).
    effects: Option<Vec<Effect>>,
}

impl World {
    /// Builds a world of `hosts` participants on one established ring
    /// under the named configuration, applies the submissions, and
    /// starts every participant (the representative's start injects the
    /// first token).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] for unknown configs, zero hosts, or
    /// out-of-range submission hosts.
    pub fn new(
        hosts: u16,
        config: &str,
        submissions: &[Submission],
    ) -> Result<World, ScheduleError> {
        World::new_with_joiners(hosts, &[], config, submissions)
    }

    /// Like [`World::new`], but hosts listed in `joiners` start outside
    /// the initial ring as idle singletons (ring seq 0): they arm no
    /// timers, hold no token, and enter the world only when their
    /// [`Step::Join`] fires. The remaining hosts form the initial ring.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::BadJoiners`] when a joiner is out of
    /// range, duplicated, or no host is left on the initial ring, plus
    /// everything [`World::new`] reports.
    pub fn new_with_joiners(
        hosts: u16,
        joiners: &[u16],
        config: &str,
        submissions: &[Submission],
    ) -> Result<World, ScheduleError> {
        let mut world = World::unstarted(hosts, joiners, config_by_name(config)?)?;
        for s in submissions {
            world.submit(s.host, s.payload.as_bytes(), s.service)?;
        }
        for h in 0..hosts {
            if !world.joiner[h as usize] {
                world.start(h)?;
            }
        }
        Ok(world)
    }

    /// Builds the world without starting anyone: the initial-ring hosts
    /// sit on their established ring and the joiners are idle
    /// singletons, ready for [`World::submit`] and [`World::start`].
    pub(crate) fn unstarted(
        hosts: u16,
        joiners: &[u16],
        cfg: ProtocolConfig,
    ) -> Result<World, ScheduleError> {
        if hosts == 0 {
            return Err(ScheduleError::NoHosts);
        }
        let mut joiner = vec![false; hosts as usize];
        for &j in joiners {
            if j >= hosts {
                return Err(ScheduleError::BadJoiners(format!("host {j} out of range")));
            }
            if joiner[j as usize] {
                return Err(ScheduleError::BadJoiners(format!("host {j} listed twice")));
            }
            joiner[j as usize] = true;
        }
        let members: Vec<ParticipantId> = (0..hosts)
            .filter(|&h| !joiner[h as usize])
            .map(ParticipantId::new)
            .collect();
        if members.is_empty() {
            return Err(ScheduleError::BadJoiners(
                "every host is a joiner; the initial ring would be empty".into(),
            ));
        }
        let ring_id = RingId::new(members[0], 1);
        let parts: Vec<Participant> = (0..hosts)
            .map(|h| {
                let p = ParticipantId::new(h);
                if joiner[h as usize] {
                    Participant::new_singleton(p, cfg).expect("valid singleton")
                } else {
                    Participant::new(p, cfg, ring_id, members.clone()).expect("valid ring")
                }
            })
            .collect();
        let mut world = World {
            n: hosts,
            cfg,
            parts,
            inflight: Vec::new(),
            next_msg_id: 0,
            armed: vec![[false; 5]; hosts as usize],
            joiner,
            joined: vec![false; hosts as usize],
            conn: Connectivity::full(hosts as usize),
            fault_budget: u8::MAX,
            checker: EvsChecker::new(hosts as usize),
            monitor: TokenRuleMonitor::new(),
            split: SendSplitChecker::new(Some(cfg.accelerated_window)),
            deliveries: vec![0; hosts as usize],
            steps_applied: 0,
            dropped: 0,
            duplicated: 0,
            effects: None,
        };
        // Seed the checker with each host's bootstrap view so same-view
        // and transitional-subset checks are live from the first
        // membership episode (bootstrapped rings never deliver their
        // initial configuration).
        for i in 0..hosts as usize {
            let ring = world.parts[i].ring();
            let (id, members) = (ring.id(), ring.members().to_vec());
            world.checker.on_initial_config(i, id, &members);
        }
        Ok(world)
    }

    /// Submits `payload` for ordering at `host` (tracked by the EVS
    /// checker's self-delivery check).
    pub(crate) fn submit(
        &mut self,
        host: u16,
        payload: &[u8],
        service: ServiceType,
    ) -> Result<(), ScheduleError> {
        let i = self.host_index(host)?;
        self.checker.on_submit(i, payload);
        self.parts[i]
            .submit(Bytes::copy_from_slice(payload), service)
            .expect("workloads fit the send queue");
        Ok(())
    }

    /// Starts `host`'s participant (once per incarnation).
    pub(crate) fn start(&mut self, host: u16) -> Result<(), ScheduleError> {
        let i = self.host_index(host)?;
        let actions = self.parts[i].start();
        self.ingest(i, actions);
        Ok(())
    }

    /// Applies one fault under the world's single crash/partition rule
    /// (see the module docs). [`Step::Fail`], [`Step::Partition`] and
    /// [`Step::Merge`] come through here after their budget and
    /// canonical-form checks; a [`FaultEvent::Restart`] installs a
    /// fresh, unstarted singleton incarnation, so the caller can attach
    /// its observer before [`World::start`]. [`World::enabled`] never
    /// offers a restart, so it does not widen the explorer's state
    /// space.
    pub(crate) fn apply_fault(&mut self, ev: &FaultEvent) -> Result<(), ScheduleError> {
        if let FaultEvent::Crash { host } | FaultEvent::Restart { host } = ev {
            self.host_index(u16::try_from(*host).unwrap_or(u16::MAX))?;
        }
        self.conn.apply(ev);
        match ev {
            FaultEvent::Crash { host } => {
                // Silent stop: timers disarm, messages addressed to the
                // host will never be processed. Messages it already
                // sent stay in flight — packets survive their sender.
                self.armed[*host] = [false; 5];
                self.inflight.retain(|m| m.to as usize != *host);
            }
            FaultEvent::Restart { host } => {
                let pid = ParticipantId::new(*host as u16);
                self.parts[*host] =
                    Participant::new_singleton(pid, self.cfg).expect("valid config");
                self.armed[*host] = [false; 5];
                self.checker.on_restart(*host);
            }
            FaultEvent::Partition { .. } => {
                let conn = &self.conn;
                self.inflight.retain(|m| {
                    conn.component_of(m.from as usize) == conn.component_of(m.to as usize)
                });
            }
            FaultEvent::Heal => {}
        }
        Ok(())
    }

    /// Caps the number of `Fail`/`Partition` steps the adversary may
    /// still take (replay defaults to effectively unlimited). The
    /// explorer sets this from its configuration; the budget is part of
    /// [`World::state_hash`].
    pub fn set_fault_budget(&mut self, budget: u8) {
        self.fault_budget = budget;
    }

    /// True when `host` has silently stopped.
    pub fn is_failed(&self, host: u16) -> bool {
        self.conn.is_crashed(host as usize)
    }

    /// True when `host` started outside the initial ring and has not
    /// joined yet.
    pub fn is_unjoined(&self, host: u16) -> bool {
        self.joiner[host as usize] && !self.joined[host as usize]
    }

    /// The partition component `host` currently sits in (all equal
    /// when no partition is in force).
    pub fn component_of(&self, host: u16) -> u8 {
        self.conn.component_of(host as usize)
    }

    /// True while a partition is in force.
    pub fn is_partitioned(&self) -> bool {
        (1..self.n).any(|h| self.component_of(h) != self.component_of(0))
    }

    /// Number of hosts.
    pub fn hosts(&self) -> u16 {
        self.n
    }

    /// The messages currently in flight.
    pub fn inflight(&self) -> &[Inflight] {
        &self.inflight
    }

    /// The in-flight message `id`, if it is still in flight.
    pub(crate) fn message(&self, id: u64) -> Option<&Inflight> {
        self.find_msg(id).ok().map(|idx| &self.inflight[idx])
    }

    /// True when `host`'s `kind` timer is armed.
    pub(crate) fn is_armed(&self, host: u16, kind: TimerKind) -> bool {
        self.armed[host as usize][kind_idx(kind)]
    }

    /// Delivery counts per host.
    pub fn deliveries(&self) -> &[u64] {
        &self.deliveries
    }

    /// Steps applied so far.
    pub fn steps_applied(&self) -> u64 {
        self.steps_applied
    }

    /// Host `i`'s participant, for oracle probes.
    pub fn participant(&self, i: u16) -> &Participant {
        &self.parts[i as usize]
    }

    /// Host `i`'s participant, for environment-side controls that are
    /// not protocol steps (observers, observed time, adaptive timeouts).
    pub(crate) fn participant_mut(&mut self, i: u16) -> &mut Participant {
        &mut self.parts[i as usize]
    }

    /// Starts recording [`Effect`]s for [`World::take_effects`].
    pub(crate) fn trace_effects(&mut self) {
        self.effects = Some(Vec::new());
    }

    /// The effects recorded since the last call, in order.
    pub(crate) fn take_effects(&mut self) -> Vec<Effect> {
        self.effects
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Every step the adversary may take from this state, in canonical
    /// order: delivers (ascending message id), duplicates, drops, timer
    /// firings (host-major, [`TIMER_KINDS`] order), then membership
    /// transitions (joins, fails, partitions, merge).
    ///
    /// Partitions are enumerated as every canonical two-component split
    /// (host 0's bit clear) and only while no partition is in force, in
    /// worlds narrow enough for a mask; fails and partitions require
    /// remaining fault budget.
    pub fn enabled(&self) -> Vec<Step> {
        let mut steps = Vec::with_capacity(self.inflight.len() * 3 + 8);
        for m in &self.inflight {
            steps.push(Step::Deliver { msg: m.id });
        }
        for m in &self.inflight {
            if m.dup_left > 0 {
                steps.push(Step::Duplicate { msg: m.id });
            }
        }
        for m in &self.inflight {
            steps.push(Step::Drop { msg: m.id });
        }
        for (host, armed) in self.armed.iter().enumerate() {
            for (k, &kind) in TIMER_KINDS.iter().enumerate() {
                if armed[k] {
                    steps.push(Step::Timer {
                        host: host as u16,
                        kind,
                    });
                }
            }
        }
        for h in 0..self.n {
            if self.is_unjoined(h) && !self.is_failed(h) {
                steps.push(Step::Join { host: h });
            }
        }
        if self.fault_budget > 0 {
            for h in 0..self.n {
                if !self.is_failed(h) {
                    steps.push(Step::Fail { host: h });
                }
            }
            if !self.is_partitioned() && self.n <= MASK_HOSTS {
                for mask in (2..1u16 << self.n).step_by(2) {
                    steps.push(Step::Partition { mask: mask as u8 });
                }
            }
        }
        if self.is_partitioned() {
            steps.push(Step::Merge);
        }
        steps
    }

    /// The destination host a step acts on (`None` for `Drop`, which
    /// touches no participant, and for the global `Partition`/`Merge`
    /// transitions). Used by the explorer's commutation test.
    pub fn step_target(&self, step: &Step) -> Option<u16> {
        match step {
            Step::Deliver { msg } | Step::Duplicate { msg } => self.message(*msg).map(|m| m.to),
            Step::Drop { .. } => None,
            Step::Timer { host, .. } => Some(*host),
            Step::Join { host } | Step::Fail { host } => Some(*host),
            Step::Partition { .. } | Step::Merge => None,
        }
    }

    /// Applies one step.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if the step is not enabled in this
    /// state (unknown message, spent duplication budget, unarmed
    /// timer).
    pub fn apply_step(&mut self, step: &Step) -> Result<(), ScheduleError> {
        match step {
            Step::Deliver { msg } => {
                let idx = self.find_msg(*msg)?;
                let m = self.inflight.remove(idx);
                let to = m.to as usize;
                let actions = self.parts[to].handle_message(m.msg);
                self.ingest(to, actions);
            }
            Step::Duplicate { msg } => {
                let idx = self.find_msg(*msg)?;
                if self.inflight[idx].dup_left == 0 {
                    return Err(ScheduleError::DuplicationExhausted(*msg));
                }
                self.inflight[idx].dup_left -= 1;
                let copy = self.inflight[idx].msg.clone();
                let to = self.inflight[idx].to as usize;
                self.duplicated += 1;
                let actions = self.parts[to].handle_message(copy);
                self.ingest(to, actions);
            }
            Step::Drop { msg } => {
                let idx = self.find_msg(*msg)?;
                self.inflight.remove(idx);
                self.dropped += 1;
            }
            Step::Timer { host, kind } => {
                let h = self.host_index(*host)?;
                if !self.is_armed(*host, *kind) {
                    return Err(ScheduleError::TimerNotArmed {
                        host: *host,
                        kind: kind_name(*kind),
                    });
                }
                self.armed[h][kind_idx(*kind)] = false;
                let actions = self.parts[h].handle_timer(*kind);
                self.ingest(h, actions);
            }
            Step::Join { host } => {
                let h = self.host_index(*host)?;
                if !self.is_unjoined(*host) || self.is_failed(*host) {
                    return Err(ScheduleError::CannotJoin(*host));
                }
                self.joined[h] = true;
                let actions = self.parts[h].initiate_gather();
                self.ingest(h, actions);
            }
            Step::Fail { host } => {
                let h = self.host_index(*host)?;
                if self.is_failed(*host) {
                    return Err(ScheduleError::HostAlreadyFailed(*host));
                }
                if self.fault_budget == 0 {
                    return Err(ScheduleError::FaultBudgetExhausted);
                }
                self.fault_budget -= 1;
                self.apply_fault(&FaultEvent::Crash { host: h })?;
            }
            Step::Partition { mask } => {
                if self.fault_budget == 0 {
                    return Err(ScheduleError::FaultBudgetExhausted);
                }
                let component_of = mask_components(self.n, *mask)?;
                if self.is_partitioned() {
                    return Err(ScheduleError::BadPartition(*mask));
                }
                self.fault_budget -= 1;
                self.apply_fault(&FaultEvent::Partition { component_of })?;
            }
            Step::Merge => {
                if !self.is_partitioned() {
                    return Err(ScheduleError::NotPartitioned);
                }
                self.apply_fault(&FaultEvent::Heal)?;
            }
        }
        self.steps_applied += 1;
        Ok(())
    }

    fn host_index(&self, host: u16) -> Result<usize, ScheduleError> {
        if host < self.n {
            Ok(host as usize)
        } else {
            Err(ScheduleError::HostOutOfRange(host))
        }
    }

    /// Position of message `id` in flight. Identifiers are assigned in
    /// push order and removals keep order, so the pool stays sorted.
    fn find_msg(&self, id: u64) -> Result<usize, ScheduleError> {
        self.inflight
            .binary_search_by_key(&id, |m| m.id)
            .map_err(|_| ScheduleError::UnknownMessage(id))
    }

    fn record(&mut self, effect: Effect) {
        if let Some(effects) = self.effects.as_mut() {
            effects.push(effect);
        }
    }

    /// Whether a message sent by `from` can reach `to` right now: the
    /// destination must be alive, in the sender's partition component,
    /// and (for joiners) already booted into the world.
    fn reachable(&self, from: usize, to: u16) -> bool {
        let t = to as usize;
        self.conn.can_reach(from, t) && (!self.joiner[t] || self.joined[t])
    }

    fn push_msg(&mut self, from: usize, to: u16, msg: Message) {
        if !self.reachable(from, to) {
            self.record(Effect::Unreachable);
            return;
        }
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        let from = from as u16;
        self.inflight.push(Inflight {
            id,
            from,
            to,
            msg,
            dup_left: 1,
        });
        self.record(Effect::Sent { id, from, to });
    }

    fn ingest(&mut self, from: usize, actions: Vec<Action>) {
        self.split
            .on_actions(ParticipantId::new(from as u16), &actions);
        let host = from as u16;
        for action in actions {
            match action {
                Action::SendToken { to, token } => {
                    self.monitor.on_token(&token);
                    self.push_msg(from, to.as_u16(), Message::Token(token));
                }
                Action::SendCommit { to, token } => {
                    self.push_msg(from, to.as_u16(), Message::Commit(token));
                }
                Action::Multicast(m) => {
                    for to in 0..self.n {
                        if to != host {
                            self.push_msg(from, to, Message::Data(m.clone()));
                        }
                    }
                }
                Action::MulticastJoin(j) => {
                    for to in 0..self.n {
                        if to != host {
                            self.push_msg(from, to, Message::Join(j.clone()));
                        }
                    }
                }
                Action::Deliver(delivery) => {
                    self.checker.on_delivery(from, &delivery);
                    self.deliveries[from] += 1;
                    self.record(Effect::Delivered { host, delivery });
                }
                Action::DeliverConfigChange(change) => {
                    self.checker.on_config(from, &change);
                    self.record(Effect::Config { host, change });
                }
                Action::SetTimer(kind) => {
                    self.armed[from][kind_idx(kind)] = true;
                    self.record(Effect::Armed { host, kind });
                }
                Action::CancelTimer(kind) => {
                    self.armed[from][kind_idx(kind)] = false;
                }
            }
        }
    }

    /// Fingerprint of the global state: every participant's protocol
    /// state, the armed-timer matrix, the membership environment
    /// (joined/failed flags, partition components, remaining fault
    /// budget — all of which shape the enabled futures), and the
    /// in-flight pool hashed as an order-insensitive multiset of
    /// `(sender, destination, bytes, duplication budget)` — message
    /// identifiers are deliberately excluded so that commuting
    /// interleavings which reach the same configuration collide (the
    /// visited-set prune in the explorer depends on this).
    pub fn state_hash(&self) -> u64 {
        let mut h = StateHasher::new();
        h.write_len(self.parts.len());
        for p in &self.parts {
            p.state_hash_into(&mut h);
        }
        for armed in &self.armed {
            for &a in armed {
                h.write_bool(a);
            }
        }
        for i in 0..self.n {
            h.write_bool(self.joined[i as usize]);
            h.write_bool(self.is_failed(i));
            h.write_u8(self.component_of(i));
        }
        h.write_u8(self.fault_budget);
        let mut msg_digests: Vec<u64> = self
            .inflight
            .iter()
            .map(|m| {
                let mut mh = StateHasher::new();
                mh.write_u16(m.from);
                mh.write_u16(m.to);
                mh.write_u8(m.dup_left);
                mh.write(&wire::encode(&m.msg));
                mh.finish()
            })
            .collect();
        msg_digests.sort_unstable();
        h.write_len(msg_digests.len());
        for d in msg_digests {
            h.write_u64(d);
        }
        h.finish()
    }

    /// Each oracle's violations so far, as `[EVS, token rule, send
    /// split]`. Non-destructive: the oracles keep accumulating
    /// afterwards.
    pub(crate) fn oracle_violations(&self) -> [Vec<String>; 3] {
        [
            self.checker.clone().check(),
            self.monitor.clone().check(),
            self.split.clone().check(),
        ]
        .map(|r| r.err().unwrap_or_default())
    }

    /// Runs every oracle against the state reached so far and returns
    /// all violations (empty when green). Non-destructive: the oracles
    /// keep accumulating afterwards.
    pub fn violations(&self) -> Vec<String> {
        self.oracle_violations().concat()
    }

    /// Tokens the hosts have sent so far.
    pub(crate) fn tokens_seen(&self) -> u64 {
        self.monitor.tokens_seen()
    }

    /// The EVS oracle, for direct probes in tests.
    #[cfg(test)]
    pub(crate) fn evs_checker(&self) -> &EvsChecker {
        &self.checker
    }

    /// Loss/duplication counters `(dropped, duplicated)`.
    pub fn chaos_counters(&self) -> (u64, u64) {
        (self.dropped, self.duplicated)
    }
}

/// What replaying a schedule produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Oracle violations at the end of the schedule.
    pub violations: Vec<String>,
    /// Steps applied (always the schedule's full length on success).
    pub steps_applied: u64,
    /// Delivery counts per host.
    pub deliveries: Vec<u64>,
    /// Final state fingerprint — equal across replays of the same
    /// schedule (the determinism the corpus tests pin down).
    pub final_hash: u64,
}

impl ReplayOutcome {
    /// Whether the outcome matches the schedule's recorded
    /// [`Expectation`].
    pub fn matches(&self, expect: Expectation) -> bool {
        match expect {
            Expectation::Clean => self.violations.is_empty(),
            Expectation::Violation => !self.violations.is_empty(),
        }
    }
}

/// Replays `schedule` from scratch and reports the outcome.
///
/// # Errors
///
/// Returns [`ScheduleError`] if the schedule's config is unknown or a
/// step is not applicable in the state it is reached in (which means
/// the schedule does not match the code under test anymore).
pub fn replay_schedule(schedule: &Schedule) -> Result<ReplayOutcome, ScheduleError> {
    let mut world = World::new_with_joiners(
        schedule.hosts,
        &schedule.joiners,
        &schedule.config,
        &schedule.submissions,
    )?;
    for step in &schedule.steps {
        world.apply_step(step)?;
    }
    Ok(ReplayOutcome {
        violations: world.violations(),
        steps_applied: world.steps_applied(),
        deliveries: world.deliveries().to_vec(),
        final_hash: world.state_hash(),
    })
}

/// Renders a ready-to-paste `#[test]` regression stub for a schedule
/// stored at `corpus_path` (relative to the repository root).
pub fn regression_stub(test_name: &str, corpus_path: &str, expect: Expectation) -> String {
    let expect = match expect {
        Expectation::Clean => "Expectation::Clean",
        Expectation::Violation => "Expectation::Violation",
    };
    "#[test]\n\
     fn {name}() {\n    \
         use accelerated_ring::net::replay::{replay_schedule, Expectation, Schedule};\n    \
         let text = std::fs::read_to_string(\"{path}\").expect(\"corpus file\");\n    \
         let schedule = Schedule::from_json(&text).expect(\"valid schedule\");\n    \
         let outcome = replay_schedule(&schedule).expect(\"replayable\");\n    \
         assert!(outcome.matches({expect}), \"outcome diverged: {:?}\", outcome.violations);\n\
     }\n"
    .replace("{expect}", expect)
    .replace("{name}", test_name)
    .replace("{path}", corpus_path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_schedule(steps: Vec<Step>) -> Schedule {
        Schedule {
            hosts: 3,
            joiners: vec![],
            config: "accelerated".into(),
            submissions: vec![
                Submission {
                    host: 0,
                    payload: "h0-m0".into(),
                    service: ServiceType::Agreed,
                },
                Submission {
                    host: 1,
                    payload: "h1-m0".into(),
                    service: ServiceType::Safe,
                },
            ],
            steps,
            expect: Expectation::Clean,
            note: "unit-test schedule".into(),
        }
    }

    #[test]
    fn schedule_json_roundtrip() {
        let s = demo_schedule(vec![
            Step::Deliver { msg: 0 },
            Step::Duplicate { msg: 2 },
            Step::Drop { msg: 3 },
            Step::Timer {
                host: 1,
                kind: TimerKind::TokenLoss,
            },
        ]);
        let text = s.to_json();
        let back = Schedule::from_json(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn malformed_schedules_are_rejected() {
        assert!(matches!(
            Schedule::from_json("not json"),
            Err(ScheduleError::Json(_))
        ));
        assert!(matches!(
            Schedule::from_json("{}"),
            Err(ScheduleError::Malformed(_))
        ));
        let wrong_kind = r#"{"kind":"something-else","hosts":2}"#;
        assert!(matches!(
            Schedule::from_json(wrong_kind),
            Err(ScheduleError::Malformed(_))
        ));
    }

    #[test]
    fn world_starts_with_token_in_flight() {
        let w = World::new(3, "accelerated", &[]).unwrap();
        // The representative processed the initial token and forwarded
        // it: exactly one message should be in flight, a token to host
        // 1.
        assert_eq!(w.inflight().len(), 1);
        assert_eq!(w.inflight()[0].to, 1);
        assert!(matches!(w.inflight()[0].msg, Message::Token(_)));
        assert!(w.violations().is_empty());
    }

    #[test]
    fn enabled_lists_every_adversary_move() {
        let w = World::new(3, "accelerated", &[]).unwrap();
        let steps = w.enabled();
        // One in-flight token => deliver, duplicate, drop; plus every
        // armed timer.
        assert!(steps.contains(&Step::Deliver { msg: 0 }));
        assert!(steps.contains(&Step::Duplicate { msg: 0 }));
        assert!(steps.contains(&Step::Drop { msg: 0 }));
        assert!(
            steps.iter().any(|s| matches!(s, Step::Timer { .. })),
            "{steps:?}"
        );
    }

    #[test]
    fn token_circulation_by_explicit_delivery_stays_clean() {
        let mut w = World::new(3, "accelerated", &[]).unwrap();
        // Deliver whatever is in flight, oldest first, for a while: the
        // token should circulate and no oracle should fire.
        for _ in 0..30 {
            let Some(first) = w.inflight().first().map(|m| m.id) else {
                break;
            };
            w.apply_step(&Step::Deliver { msg: first }).unwrap();
        }
        assert!(w.violations().is_empty(), "{:?}", w.violations());
        assert!(w.steps_applied() > 0);
    }

    #[test]
    fn submissions_are_ordered_and_delivered() {
        let sched = demo_schedule(vec![]);
        let mut w = World::new(sched.hosts, &sched.config, &sched.submissions).unwrap();
        for _ in 0..200 {
            let Some(first) = w.inflight().first().map(|m| m.id) else {
                break;
            };
            w.apply_step(&Step::Deliver { msg: first }).unwrap();
        }
        assert!(w.violations().is_empty(), "{:?}", w.violations());
        // Every host eventually delivers both payloads.
        assert!(
            w.deliveries().iter().all(|&d| d >= 2),
            "{:?}",
            w.deliveries()
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let sched = demo_schedule(vec![Step::Duplicate { msg: 0 }, Step::Deliver { msg: 0 }]);
        let a = replay_schedule(&sched).unwrap();
        let b = replay_schedule(&sched).unwrap();
        assert_eq!(a.final_hash, b.final_hash);
        assert_eq!(a.deliveries, b.deliveries);
        assert!(a.matches(Expectation::Clean), "{:?}", a.violations);
    }

    #[test]
    fn inapplicable_steps_are_reported() {
        let mut w = World::new(2, "accelerated", &[]).unwrap();
        assert_eq!(
            w.apply_step(&Step::Deliver { msg: 999 }),
            Err(ScheduleError::UnknownMessage(999))
        );
        let first = w.inflight()[0].id;
        w.apply_step(&Step::Duplicate { msg: first }).unwrap();
        // Budget spent: a second duplication of the same message fails.
        let err = w.apply_step(&Step::Duplicate { msg: first });
        assert_eq!(err, Err(ScheduleError::DuplicationExhausted(first)));
        assert_eq!(
            w.apply_step(&Step::Timer {
                host: 5,
                kind: TimerKind::Join
            }),
            Err(ScheduleError::HostOutOfRange(5))
        );
        assert!(matches!(
            World::new(2, "warp-speed", &[]),
            Err(ScheduleError::UnknownConfig(_))
        ));
    }

    #[test]
    fn state_hash_ignores_message_identities_but_not_content() {
        // Two worlds that reach the same configuration through
        // different commuting orders must collide.
        let mk = || World::new(3, "accelerated", &[]).unwrap();
        let mut a = mk();
        let mut b = mk();
        // In a fresh world only one message is in flight; deliver it in
        // both worlds, then compare: trivially equal.
        let id = a.inflight()[0].id;
        a.apply_step(&Step::Deliver { msg: id }).unwrap();
        b.apply_step(&Step::Deliver { msg: id }).unwrap();
        assert_eq!(a.state_hash(), b.state_hash());
        // Dropping vs delivering diverges the hash.
        let mut c = mk();
        c.apply_step(&Step::Drop { msg: id }).unwrap();
        assert_ne!(a.state_hash(), c.state_hash());
    }

    #[test]
    fn commuting_deliveries_reach_the_same_hash() {
        // Drive the world until two messages to *different* hosts are
        // simultaneously in flight, then apply them in both orders.
        let mut w = World::new(3, "accelerated", &demo_schedule(vec![]).submissions).unwrap();
        let pair = loop {
            let inf = w.inflight();
            let mut seen: Vec<(u64, u16)> = inf.iter().map(|m| (m.id, m.to)).collect();
            seen.sort_unstable();
            if let Some(p) = seen
                .iter()
                .flat_map(|&(i1, t1)| {
                    seen.iter()
                        .filter(move |&&(i2, t2)| i2 > i1 && t2 != t1)
                        .map(move |&(i2, _)| (i1, i2))
                })
                .next()
            {
                break Some(p);
            }
            let Some(first) = w.inflight().first().map(|m| m.id) else {
                break None;
            };
            w.apply_step(&Step::Deliver { msg: first }).unwrap();
        };
        let Some((m1, m2)) = pair else {
            panic!("never saw two concurrent messages to distinct hosts");
        };
        let mut ab = w.clone();
        ab.apply_step(&Step::Deliver { msg: m1 }).unwrap();
        ab.apply_step(&Step::Deliver { msg: m2 }).unwrap();
        let mut ba = w;
        ba.apply_step(&Step::Deliver { msg: m2 }).unwrap();
        ba.apply_step(&Step::Deliver { msg: m1 }).unwrap();
        assert_eq!(
            ab.state_hash(),
            ba.state_hash(),
            "deliveries to distinct hosts must commute"
        );
    }

    #[test]
    fn membership_ops_roundtrip_with_joiners() {
        let mut s = demo_schedule(vec![
            Step::Join { host: 2 },
            Step::Fail { host: 1 },
            Step::Partition { mask: 0b100 },
            Step::Merge,
        ]);
        s.joiners = vec![2];
        let text = s.to_json();
        assert!(text.contains("\"schema\":2"), "{text}");
        let back = Schedule::from_json(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn schema_one_schedules_without_joiners_still_parse() {
        // A pre-membership schedule has no `joiners` field at all.
        let text = r#"{"schema":1,"kind":"ar-explore-schedule","hosts":2,
            "config":"accelerated","note":"","expect":"clean",
            "submissions":[],"steps":[{"op":"deliver","msg":0}]}"#;
        let s = Schedule::from_json(text).unwrap();
        assert!(s.joiners.is_empty());
        assert_eq!(s.steps, vec![Step::Deliver { msg: 0 }]);
    }

    #[test]
    fn joiners_start_idle_and_join_on_demand() {
        let mut w = World::new_with_joiners(3, &[2], "accelerated", &[]).unwrap();
        assert!(w.is_unjoined(2));
        // The initial ring is hosts {0, 1}; nothing targets host 2 and
        // host 2 has no armed timers.
        assert!(w.inflight().iter().all(|m| m.to != 2));
        assert!(!w
            .enabled()
            .iter()
            .any(|s| matches!(s, Step::Timer { host: 2, .. })));
        assert!(w.enabled().contains(&Step::Join { host: 2 }));
        w.apply_step(&Step::Join { host: 2 }).unwrap();
        assert!(!w.is_unjoined(2));
        // The join multicast is now in flight to both ring members.
        let join_targets: Vec<u16> = w
            .inflight()
            .iter()
            .filter(|m| matches!(m.msg, Message::Join(_)))
            .map(|m| m.to)
            .collect();
        assert_eq!(join_targets, vec![0, 1]);
        // A second join of the same host is rejected.
        assert_eq!(
            w.apply_step(&Step::Join { host: 2 }),
            Err(ScheduleError::CannotJoin(2))
        );
    }

    #[test]
    fn bad_joiner_lists_are_rejected() {
        assert!(matches!(
            World::new_with_joiners(3, &[7], "accelerated", &[]),
            Err(ScheduleError::BadJoiners(_))
        ));
        assert!(matches!(
            World::new_with_joiners(3, &[2, 2], "accelerated", &[]),
            Err(ScheduleError::BadJoiners(_))
        ));
        assert!(matches!(
            World::new_with_joiners(2, &[0, 1], "accelerated", &[]),
            Err(ScheduleError::BadJoiners(_))
        ));
    }

    #[test]
    fn failed_host_stops_receiving_and_disarms() {
        let mut w = World::new(3, "accelerated", &[]).unwrap();
        w.set_fault_budget(1);
        w.apply_step(&Step::Fail { host: 1 }).unwrap();
        assert!(w.is_failed(1));
        assert!(w.inflight().iter().all(|m| m.to != 1));
        assert!(!w
            .enabled()
            .iter()
            .any(|s| matches!(s, Step::Timer { host: 1, .. })));
        // Budget spent: no further fail or partition is enabled.
        assert!(!w
            .enabled()
            .iter()
            .any(|s| matches!(s, Step::Fail { .. } | Step::Partition { .. })));
        assert_eq!(
            w.apply_step(&Step::Fail { host: 0 }),
            Err(ScheduleError::FaultBudgetExhausted)
        );
        assert_eq!(
            w.apply_step(&Step::Fail { host: 1 }),
            Err(ScheduleError::HostAlreadyFailed(1))
        );
    }

    #[test]
    fn partition_cuts_flight_and_blocks_cross_sends() {
        let mut w = World::new(3, "accelerated", &[]).unwrap();
        // Isolate host 2 from {0, 1}.
        w.apply_step(&Step::Partition { mask: 0b100 }).unwrap();
        assert!(w.is_partitioned());
        assert_eq!(w.component_of(0), w.component_of(1));
        assert_ne!(w.component_of(0), w.component_of(2));
        // Every surviving in-flight message stays within one component,
        // and so does everything sent from here on.
        for _ in 0..40 {
            let Some(first) = w.inflight().first().map(|m| m.id) else {
                break;
            };
            w.apply_step(&Step::Deliver { msg: first }).unwrap();
            assert!(w
                .inflight()
                .iter()
                .all(|m| w.component_of(m.from) == w.component_of(m.to)));
        }
        // Only one partition at a time; merge restores reachability.
        assert_eq!(
            w.apply_step(&Step::Partition { mask: 0b010 }),
            Err(ScheduleError::BadPartition(0b010))
        );
        w.apply_step(&Step::Merge).unwrap();
        assert!(!w.is_partitioned());
        assert_eq!(
            w.apply_step(&Step::Merge),
            Err(ScheduleError::NotPartitioned)
        );
    }

    #[test]
    fn non_canonical_partition_masks_are_rejected() {
        let masks = [0b000, 0b001, 0b011, 0b1000];
        for mask in masks {
            let mut w = World::new(3, "accelerated", &[]).unwrap();
            assert_eq!(
                w.apply_step(&Step::Partition { mask }),
                Err(ScheduleError::BadPartition(mask)),
                "mask {mask:#b}"
            );
        }
    }

    #[test]
    fn partitions_wider_than_the_mask_are_rejected() {
        // Nine hosts do not fit a u8 mask: the step is an error, never a
        // shift overflow, and no partition is ever enabled.
        let mut s = demo_schedule(vec![Step::Partition { mask: 0b10 }]);
        s.hosts = 9;
        assert_eq!(
            replay_schedule(&s).err(),
            Some(ScheduleError::BadPartition(0b10))
        );
        let w = World::new(9, "accelerated", &[]).unwrap();
        assert!(!w
            .enabled()
            .iter()
            .any(|s| matches!(s, Step::Partition { .. })));
    }

    #[test]
    fn eight_host_worlds_can_isolate_host_seven() {
        let mut w = World::new(8, "accelerated", &[]).unwrap();
        let steps = w.enabled();
        assert!(steps.contains(&Step::Partition { mask: 0b1000_0000 }));
        assert!(steps.contains(&Step::Partition { mask: 0b1111_1110 }));
        w.apply_step(&Step::Partition { mask: 0b1000_0000 })
            .unwrap();
        assert_ne!(w.component_of(7), w.component_of(0));
        assert_eq!(w.component_of(6), w.component_of(0));
    }

    #[test]
    fn restart_installs_a_fresh_singleton_incarnation() {
        let mut w = World::new(3, "accelerated", &[]).unwrap();
        w.apply_fault(&FaultEvent::Crash { host: 2 }).unwrap();
        assert!(w.is_failed(2));
        assert!(w.inflight().iter().all(|m| m.to != 2));
        w.apply_fault(&FaultEvent::Restart { host: 2 }).unwrap();
        assert!(!w.is_failed(2));
        assert_eq!(w.participant(2).ring().members(), &[ParticipantId::new(2)]);
        assert!(!TIMER_KINDS.iter().any(|&k| w.is_armed(2, k)));
        w.start(2).unwrap();
        assert!(TIMER_KINDS.iter().any(|&k| w.is_armed(2, k)));
        assert_eq!(
            w.apply_fault(&FaultEvent::Restart { host: 3 }),
            Err(ScheduleError::HostOutOfRange(3))
        );
        assert!(w.violations().is_empty(), "{:?}", w.violations());
    }

    #[test]
    fn zero_host_worlds_are_rejected() {
        assert_eq!(
            World::new(0, "accelerated", &[]).err(),
            Some(ScheduleError::NoHosts)
        );
    }

    #[test]
    fn enabled_lists_membership_moves_under_budget() {
        let mut w = World::new_with_joiners(3, &[2], "accelerated", &[]).unwrap();
        w.set_fault_budget(1);
        let steps = w.enabled();
        assert!(steps.contains(&Step::Join { host: 2 }));
        assert!(steps.contains(&Step::Fail { host: 0 }));
        assert!(steps.contains(&Step::Partition { mask: 0b100 }));
        assert!(!steps.contains(&Step::Merge));
        // Masks with host 0's bit set never appear (canonical form).
        assert!(!steps
            .iter()
            .any(|s| matches!(s, Step::Partition { mask } if mask & 1 != 0)));
        w.set_fault_budget(0);
        let steps = w.enabled();
        assert!(!steps
            .iter()
            .any(|s| matches!(s, Step::Fail { .. } | Step::Partition { .. })));
        assert!(steps.contains(&Step::Join { host: 2 }));
    }

    #[test]
    fn state_hash_covers_membership_environment() {
        let w = World::new(3, "accelerated", &[]).unwrap();
        let mut failed = w.clone();
        failed.set_fault_budget(1);
        failed.apply_step(&Step::Fail { host: 2 }).unwrap();
        assert_ne!(w.state_hash(), failed.state_hash());
        // Same protocol state, different remaining budgets: the hash
        // must diverge or the visited-prune would conflate futures.
        let mut tight = w.clone();
        tight.set_fault_budget(0);
        assert_ne!(w.state_hash(), tight.state_hash());
    }

    #[test]
    fn join_episode_converges_to_shared_ring() {
        // Boot a 2-host ring plus one joiner, fire the join, then let
        // the adversary play fair (deliver oldest, fire the oldest
        // armed gather timer when flight empties). Every host must end
        // on one common new ring that includes the joiner.
        let mut w = World::new_with_joiners(3, &[2], "accelerated", &[]).unwrap();
        w.apply_step(&Step::Join { host: 2 }).unwrap();
        for _ in 0..400 {
            let converged = (0..3).all(|h| {
                let r = w.participant(h).ring();
                r.id() == w.participant(0).ring().id() && r.members().len() == 3
            });
            if converged {
                break;
            }
            if let Some(first) = w.inflight().first().map(|m| m.id) {
                w.apply_step(&Step::Deliver { msg: first }).unwrap();
            } else if let Some(t) = w.enabled().into_iter().find(|s| {
                // Fire membership-advancing timers only — a TokenLoss
                // here would start a *new* episode instead of finishing
                // this one.
                matches!(
                    s,
                    Step::Timer {
                        kind: TimerKind::Join
                            | TimerKind::ConsensusTimeout
                            | TimerKind::CommitTimeout,
                        ..
                    }
                )
            }) {
                w.apply_step(&t).unwrap();
            } else {
                break;
            }
        }
        assert!(w.violations().is_empty(), "{:?}", w.violations());
        let rings: Vec<_> = (0..3).map(|h| w.participant(h).ring().id()).collect();
        assert_eq!(rings[0], rings[1], "ring ids diverged: {rings:?}");
        assert_eq!(rings[0], rings[2], "joiner left out: {rings:?}");
        assert!(w
            .participant(0)
            .ring()
            .members()
            .contains(&ParticipantId::new(2)));
    }

    #[test]
    fn regression_stub_renders_compilable_shape() {
        let stub = regression_stub(
            "replays_corpus_001",
            "tests/corpus/001.json",
            Expectation::Clean,
        );
        assert!(stub.contains("fn replays_corpus_001()"));
        assert!(stub.contains("tests/corpus/001.json"));
        assert!(stub.contains("Expectation::Clean"));
    }
}
