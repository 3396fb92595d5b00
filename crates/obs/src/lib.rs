//! # ars-obs — zero-cost observability for the rescheduler runtime
//!
//! A structured-event + metrics layer threaded through the monitor, the
//! registry/scheduler, the commander, the HPCM migration shell and the DES
//! kernel. It answers the questions the final liveness assertion cannot:
//! *which* phase of the prepare → transfer → commit transaction stalled,
//! how long the Suspect → Down detector took, why first-fit skipped a host.
//!
//! Three pieces:
//!
//! * a typed event stream ([`ObsEvent`]) recorded with sim-time stamps into
//!   a bounded ring buffer (drop-oldest; the drop count is kept), optionally
//!   mirrored to a JSONL sink;
//! * a metrics registry: named counters and sim-time [`ObsHistogram`]s
//!   (migration per-phase latency, detector reaction time, retransmits,
//!   first-fit scan length), snapshotted by the benches into
//!   `BENCH_obs.json`;
//! * a query API ([`Obs::events`], [`Obs::of_kind`], [`Obs::counter`],
//!   [`Obs::histogram`]) used by tests to assert causal chains.
//!
//! ## The zero-cost / determinism guarantee
//!
//! [`Obs::disabled`] is a `None` handle: every recording call is a branch on
//! an `Option` and returns immediately — no allocation, no formatting, no
//! event construction (the event is built by a closure that is never
//! invoked). Enabling recording must not change what the simulation *does*:
//! the layer never draws from any RNG, never schedules kernel events, and
//! never mutates simulation state, so a run with recording enabled emits a
//! byte-identical kernel trace to the same run with recording disabled.
//! This mirrors the discipline `ars-faults` established for the disabled
//! fault plan, and is pinned by trace-equivalence tests.

#![warn(missing_docs)]

use ars_simcore::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default bound of the event ring buffer.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Upper bucket bounds (inclusive) shared by every histogram. Chosen to
/// cover both second-valued latencies (milliseconds to minutes) and small
/// integer observations such as first-fit scan lengths.
pub const HISTOGRAM_BOUNDS: [f64; 12] = [
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0,
];

/// Discriminant of an [`ObsEvent`] (the query API filters on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsKind {
    /// Prepare phase completed (destination initialized and READY).
    MigrationPrepared,
    /// Transfer phase completed (checkpoint restored; COMMIT received).
    MigrationTransferred,
    /// Commit phase completed (destination resumed execution).
    MigrationCommitted,
    /// Transaction aborted (either side), with a reason.
    MigrationAborted,
    /// Failure detector downgraded a host to Suspect.
    HostSuspect,
    /// Failure detector downgraded a host to Down.
    HostDown,
    /// A Suspect/Down host heartbeated again.
    HostRecovered,
    /// First-fit rejected a candidate destination.
    CandidateRejected,
    /// A monitor's rule evaluation changed its host's raw state.
    RuleFired,
    /// The registry retransmitted an unacknowledged migration command.
    CommandRetransmit,
    /// The registry abandoned a migration command after its retry budget.
    CommandAborted,
    /// The kernel's fault layer injected a fault.
    FaultInjected,
    /// A cross-domain escalation step exceeded its probe/wait deadline.
    EscalationTimedOut,
    /// A registry's parent-liveness detector downgraded its parent to
    /// Suspect (missed report ACKs).
    ParentSuspect,
    /// A registry's parent-liveness detector declared its parent Down.
    ParentDown,
    /// A registry re-parented to its grandparent after declaring its
    /// parent Down.
    ChildReparented,
    /// A live TCP connection's first bytes selected a wire codec.
    WireCodecNegotiated,
    /// Expand prepare phase completed (members frozen, joiners READY).
    ExpandPrepared,
    /// Expand commit phase completed (world resized to more ranks).
    ExpandCommitted,
    /// An expand transaction aborted; the old world was restored.
    ExpandAborted,
    /// Shrink commit phase completed (world resized to fewer ranks).
    ShrinkCommitted,
}

impl ObsKind {
    /// Stable name used in JSONL output.
    pub fn name(&self) -> &'static str {
        match self {
            ObsKind::MigrationPrepared => "MigrationPrepared",
            ObsKind::MigrationTransferred => "MigrationTransferred",
            ObsKind::MigrationCommitted => "MigrationCommitted",
            ObsKind::MigrationAborted => "MigrationAborted",
            ObsKind::HostSuspect => "HostSuspect",
            ObsKind::HostDown => "HostDown",
            ObsKind::HostRecovered => "HostRecovered",
            ObsKind::CandidateRejected => "CandidateRejected",
            ObsKind::RuleFired => "RuleFired",
            ObsKind::CommandRetransmit => "CommandRetransmit",
            ObsKind::CommandAborted => "CommandAborted",
            ObsKind::FaultInjected => "FaultInjected",
            ObsKind::EscalationTimedOut => "EscalationTimedOut",
            ObsKind::ParentSuspect => "ParentSuspect",
            ObsKind::ParentDown => "ParentDown",
            ObsKind::ChildReparented => "ChildReparented",
            ObsKind::WireCodecNegotiated => "WireCodecNegotiated",
            ObsKind::ExpandPrepared => "ExpandPrepared",
            ObsKind::ExpandCommitted => "ExpandCommitted",
            ObsKind::ExpandAborted => "ExpandAborted",
            ObsKind::ShrinkCommitted => "ShrinkCommitted",
        }
    }
}

/// One structured event. Field types are plain (`u64` pids, `String` host
/// names) so the crate depends only on `ars-simcore`.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// Prepare phase completed: poll-point taken, destination spawned and
    /// READY received.
    MigrationPrepared {
        /// Migrating process (source pid).
        pid: u64,
        /// Source host name.
        from: String,
        /// Destination host name.
        to: String,
    },
    /// Transfer phase completed: the destination restored the checkpoint
    /// and its COMMIT reached the source.
    MigrationTransferred {
        /// Migrating process (source pid).
        pid: u64,
        /// Framed eager checkpoint size.
        eager_bytes: u64,
    },
    /// Commit phase completed: COMMIT_ACK received, destination resumed.
    MigrationCommitted {
        /// Source pid.
        pid_old: u64,
        /// Destination pid now owning the application.
        pid_new: u64,
    },
    /// The transaction aborted (source rollback or destination self-abort).
    MigrationAborted {
        /// Pid of the side recording the abort.
        pid: u64,
        /// Why (e.g. "destination never restored (commit timeout)").
        reason: String,
    },
    /// Failure detector: a host crossed the Suspect threshold.
    HostSuspect {
        /// Host name.
        host: String,
        /// Silence observed when the verdict was reached (reaction time).
        silent_s: f64,
    },
    /// Failure detector: a host crossed the Down threshold (or its lease
    /// expired).
    HostDown {
        /// Host name.
        host: String,
        /// Silence observed when the verdict was reached (reaction time).
        silent_s: f64,
    },
    /// A previously Suspect/Down host heartbeated again.
    HostRecovered {
        /// Host name.
        host: String,
    },
    /// First-fit examined and rejected a candidate destination.
    CandidateRejected {
        /// The rejected host.
        host: String,
        /// Rejection cause (first failing check).
        why: String,
    },
    /// A monitor's rule evaluation changed its host's raw state verdict.
    RuleFired {
        /// Host name.
        host: String,
        /// Previous raw state.
        from: String,
        /// New raw state.
        to: String,
    },
    /// The registry retransmitted an unacknowledged migration command.
    CommandRetransmit {
        /// Process the command migrates.
        pid: u64,
        /// Source host.
        source: String,
        /// Destination host.
        dest: String,
        /// Retransmit number (1 = first retransmit).
        attempt: u32,
    },
    /// The registry gave up on a migration command (retries exhausted or
    /// commander rejection); the source becomes eligible for re-selection.
    CommandAborted {
        /// Process the command migrated.
        pid: u64,
        /// Source host.
        source: String,
        /// Destination host.
        dest: String,
    },
    /// The kernel's fault layer injected a fault.
    FaultInjected {
        /// Human-readable description of the fault.
        what: String,
    },
    /// A cross-domain escalation step (downward probe or upward relay)
    /// exceeded its deadline and was resolved locally.
    EscalationTimedOut {
        /// Name of the registry whose wait timed out.
        registry: String,
        /// Which wait: "probe" (downward) or "parent" (upward).
        stage: String,
        /// How long the step waited before giving up.
        waited_s: f64,
    },
    /// Parent-liveness detector: the parent crossed the Suspect threshold.
    ParentSuspect {
        /// Name of the registry suspecting its parent.
        registry: String,
        /// Consecutive unacknowledged domain reports.
        missed_acks: u32,
    },
    /// Parent-liveness detector: the parent was declared Down.
    ParentDown {
        /// Name of the registry declaring its parent Down.
        registry: String,
        /// Consecutive unacknowledged domain reports.
        missed_acks: u32,
    },
    /// A registry re-parented to its grandparent after declaring its
    /// parent Down.
    ChildReparented {
        /// Name of the re-parenting registry.
        registry: String,
        /// Silence since the last parent ACK when the switch happened.
        orphaned_s: f64,
    },
    /// The live registry resolved a connection's wire codec from the first
    /// bytes of its stream.
    WireCodecNegotiated {
        /// Connection id (the live driver's endpoint id).
        conn: u64,
        /// Selected codec name ("xml" or "binary").
        codec: String,
    },
    /// Expand prepare phase completed: every member froze at a poll-point
    /// and every joiner reported READY.
    ExpandPrepared {
        /// Application name.
        app: String,
        /// Rank count before the expand.
        from_ranks: u32,
        /// Target rank count.
        to_ranks: u32,
    },
    /// Expand commit phase completed: the communicator resized and all
    /// registered arrays were redistributed.
    ExpandCommitted {
        /// Application name.
        app: String,
        /// Rank count before the expand.
        from_ranks: u32,
        /// Rank count after the expand.
        to_ranks: u32,
        /// Bytes that changed owner during redistribution.
        moved_bytes: u64,
    },
    /// An expand transaction aborted (joiner lost, sync mismatch, or
    /// timeout); members resumed in the untouched old world.
    ExpandAborted {
        /// Application name.
        app: String,
        /// Why the expand rolled back.
        reason: String,
    },
    /// Shrink commit phase completed: retiring ranks drained their data
    /// into the survivors and exited.
    ShrinkCommitted {
        /// Application name.
        app: String,
        /// Rank count before the shrink.
        from_ranks: u32,
        /// Rank count after the shrink.
        to_ranks: u32,
        /// Bytes that changed owner during redistribution.
        moved_bytes: u64,
    },
}

impl ObsEvent {
    /// This event's discriminant.
    pub fn kind(&self) -> ObsKind {
        match self {
            ObsEvent::MigrationPrepared { .. } => ObsKind::MigrationPrepared,
            ObsEvent::MigrationTransferred { .. } => ObsKind::MigrationTransferred,
            ObsEvent::MigrationCommitted { .. } => ObsKind::MigrationCommitted,
            ObsEvent::MigrationAborted { .. } => ObsKind::MigrationAborted,
            ObsEvent::HostSuspect { .. } => ObsKind::HostSuspect,
            ObsEvent::HostDown { .. } => ObsKind::HostDown,
            ObsEvent::HostRecovered { .. } => ObsKind::HostRecovered,
            ObsEvent::CandidateRejected { .. } => ObsKind::CandidateRejected,
            ObsEvent::RuleFired { .. } => ObsKind::RuleFired,
            ObsEvent::CommandRetransmit { .. } => ObsKind::CommandRetransmit,
            ObsEvent::CommandAborted { .. } => ObsKind::CommandAborted,
            ObsEvent::FaultInjected { .. } => ObsKind::FaultInjected,
            ObsEvent::EscalationTimedOut { .. } => ObsKind::EscalationTimedOut,
            ObsEvent::ParentSuspect { .. } => ObsKind::ParentSuspect,
            ObsEvent::ParentDown { .. } => ObsKind::ParentDown,
            ObsEvent::ChildReparented { .. } => ObsKind::ChildReparented,
            ObsEvent::WireCodecNegotiated { .. } => ObsKind::WireCodecNegotiated,
            ObsEvent::ExpandPrepared { .. } => ObsKind::ExpandPrepared,
            ObsEvent::ExpandCommitted { .. } => ObsKind::ExpandCommitted,
            ObsEvent::ExpandAborted { .. } => ObsKind::ExpandAborted,
            ObsEvent::ShrinkCommitted { .. } => ObsKind::ShrinkCommitted,
        }
    }

    /// Hand-built JSON object for the JSONL sink (no serde in the image).
    pub fn to_json(&self) -> String {
        let kind = self.kind().name();
        match self {
            ObsEvent::MigrationPrepared { pid, from, to } => format!(
                "{{\"kind\":\"{kind}\",\"pid\":{pid},\"from\":{},\"to\":{}}}",
                json_str(from),
                json_str(to)
            ),
            ObsEvent::MigrationTransferred { pid, eager_bytes } => {
                format!("{{\"kind\":\"{kind}\",\"pid\":{pid},\"eager_bytes\":{eager_bytes}}}")
            }
            ObsEvent::MigrationCommitted { pid_old, pid_new } => {
                format!("{{\"kind\":\"{kind}\",\"pid_old\":{pid_old},\"pid_new\":{pid_new}}}")
            }
            ObsEvent::MigrationAborted { pid, reason } => format!(
                "{{\"kind\":\"{kind}\",\"pid\":{pid},\"reason\":{}}}",
                json_str(reason)
            ),
            ObsEvent::HostSuspect { host, silent_s } => format!(
                "{{\"kind\":\"{kind}\",\"host\":{},\"silent_s\":{silent_s}}}",
                json_str(host)
            ),
            ObsEvent::HostDown { host, silent_s } => format!(
                "{{\"kind\":\"{kind}\",\"host\":{},\"silent_s\":{silent_s}}}",
                json_str(host)
            ),
            ObsEvent::HostRecovered { host } => {
                format!("{{\"kind\":\"{kind}\",\"host\":{}}}", json_str(host))
            }
            ObsEvent::CandidateRejected { host, why } => format!(
                "{{\"kind\":\"{kind}\",\"host\":{},\"why\":{}}}",
                json_str(host),
                json_str(why)
            ),
            ObsEvent::RuleFired { host, from, to } => format!(
                "{{\"kind\":\"{kind}\",\"host\":{},\"from\":{},\"to\":{}}}",
                json_str(host),
                json_str(from),
                json_str(to)
            ),
            ObsEvent::CommandRetransmit {
                pid,
                source,
                dest,
                attempt,
            } => format!(
                "{{\"kind\":\"{kind}\",\"pid\":{pid},\"source\":{},\"dest\":{},\"attempt\":{attempt}}}",
                json_str(source),
                json_str(dest)
            ),
            ObsEvent::CommandAborted { pid, source, dest } => format!(
                "{{\"kind\":\"{kind}\",\"pid\":{pid},\"source\":{},\"dest\":{}}}",
                json_str(source),
                json_str(dest)
            ),
            ObsEvent::FaultInjected { what } => {
                format!("{{\"kind\":\"{kind}\",\"what\":{}}}", json_str(what))
            }
            ObsEvent::EscalationTimedOut {
                registry,
                stage,
                waited_s,
            } => format!(
                "{{\"kind\":\"{kind}\",\"registry\":{},\"stage\":{},\"waited_s\":{waited_s}}}",
                json_str(registry),
                json_str(stage)
            ),
            ObsEvent::ParentSuspect {
                registry,
                missed_acks,
            } => format!(
                "{{\"kind\":\"{kind}\",\"registry\":{},\"missed_acks\":{missed_acks}}}",
                json_str(registry)
            ),
            ObsEvent::ParentDown {
                registry,
                missed_acks,
            } => format!(
                "{{\"kind\":\"{kind}\",\"registry\":{},\"missed_acks\":{missed_acks}}}",
                json_str(registry)
            ),
            ObsEvent::ChildReparented {
                registry,
                orphaned_s,
            } => format!(
                "{{\"kind\":\"{kind}\",\"registry\":{},\"orphaned_s\":{orphaned_s}}}",
                json_str(registry)
            ),
            ObsEvent::WireCodecNegotiated { conn, codec } => format!(
                "{{\"kind\":\"{kind}\",\"conn\":{conn},\"codec\":{}}}",
                json_str(codec)
            ),
            ObsEvent::ExpandPrepared {
                app,
                from_ranks,
                to_ranks,
            } => format!(
                "{{\"kind\":\"{kind}\",\"app\":{},\"from_ranks\":{from_ranks},\"to_ranks\":{to_ranks}}}",
                json_str(app)
            ),
            ObsEvent::ExpandCommitted {
                app,
                from_ranks,
                to_ranks,
                moved_bytes,
            } => format!(
                "{{\"kind\":\"{kind}\",\"app\":{},\"from_ranks\":{from_ranks},\"to_ranks\":{to_ranks},\"moved_bytes\":{moved_bytes}}}",
                json_str(app)
            ),
            ObsEvent::ExpandAborted { app, reason } => format!(
                "{{\"kind\":\"{kind}\",\"app\":{},\"reason\":{}}}",
                json_str(app),
                json_str(reason)
            ),
            ObsEvent::ShrinkCommitted {
                app,
                from_ranks,
                to_ranks,
                moved_bytes,
            } => format!(
                "{{\"kind\":\"{kind}\",\"app\":{},\"from_ranks\":{from_ranks},\"to_ranks\":{to_ranks},\"moved_bytes\":{moved_bytes}}}",
                json_str(app)
            ),
        }
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A time-stamped event in the ring buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsRecord {
    /// Simulation time the event was recorded at.
    pub t: SimTime,
    /// The event.
    pub event: ObsEvent,
}

/// A fixed-bucket histogram over `f64` observations (seconds or counts).
///
/// Bucket `i` counts observations `<= HISTOGRAM_BOUNDS[i]`; the last slot
/// is the overflow bucket. `count`/`sum`/`min`/`max` are exact.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsHistogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Cumulative-bound bucket counts plus the overflow slot.
    pub buckets: [u64; HISTOGRAM_BOUNDS.len() + 1],
}

impl Default for ObsHistogram {
    fn default() -> Self {
        ObsHistogram {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; HISTOGRAM_BOUNDS.len() + 1],
        }
    }
}

impl ObsHistogram {
    fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let slot = HISTOGRAM_BOUNDS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(HISTOGRAM_BOUNDS.len());
        self.buckets[slot] += 1;
    }

    /// Mean observation, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Hand-built JSON object (deterministic field order).
    pub fn to_json(&self) -> String {
        let mut buckets = String::new();
        for (i, &b) in HISTOGRAM_BOUNDS.iter().enumerate() {
            buckets.push_str(&format!("\"le_{b}\":{},", self.buckets[i]));
        }
        buckets.push_str(&format!("\"inf\":{}", self.buckets[HISTOGRAM_BOUNDS.len()]));
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"buckets\":{{{buckets}}}}}",
            self.count,
            self.sum,
            self.min,
            self.max,
            self.mean().unwrap_or(0.0)
        )
    }
}

/// Enabled-state internals behind the [`Obs`] handle.
struct ObsCore {
    cap: usize,
    ring: VecDeque<ObsRecord>,
    recorded: u64,
    dropped: u64,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, ObsHistogram>,
    sink: Option<Box<dyn Write + Send>>,
}

impl ObsCore {
    fn push(&mut self, t: SimTime, event: ObsEvent) {
        if let Some(sink) = &mut self.sink {
            // A full sink is an observability loss, not a simulation error.
            let _ = writeln!(
                sink,
                "{{\"t_us\":{},{}",
                t.as_micros(),
                &event.to_json()[1..]
            );
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.recorded += 1;
        self.ring.push_back(ObsRecord { t, event });
    }
}

/// Cheaply cloneable handle to a recording session — or a no-op.
///
/// The disabled handle (the default) is `None` inside: every call is a
/// single branch and the event-building closure is never run. See the
/// module docs for the full zero-cost/determinism contract. The handle is
/// `Arc`-shared and `Send`: the simulation is single-threaded, but the
/// same handle also instruments the live TCP registry, whose single
/// reactor thread records while the thread that started the registry
/// reads. A recording session that panics while holding the lock is
/// recovered from (metrics are monotonic aggregates; the worst a
/// recovered lock exposes is a half-updated counter, not corruption), so
/// one bad observer never bricks the run.
#[derive(Clone, Default)]
pub struct Obs(Option<Arc<Mutex<ObsCore>>>);

/// Lock a recording session, recovering from poisoning (see [`Obs`]).
fn lock_core(core: &Mutex<ObsCore>) -> MutexGuard<'_, ObsCore> {
    core.lock().unwrap_or_else(PoisonError::into_inner)
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(core) => write!(f, "Obs(enabled, {} events)", lock_core(core).ring.len()),
            None => f.write_str("Obs(disabled)"),
        }
    }
}

impl Obs {
    /// The no-op handle (same as `Obs::default()`).
    pub fn disabled() -> Obs {
        Obs(None)
    }

    /// An enabled session with the default ring capacity.
    pub fn enabled() -> Obs {
        Obs::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled session with an explicit ring capacity (≥ 1).
    pub fn with_capacity(cap: usize) -> Obs {
        Obs(Some(Arc::new(Mutex::new(ObsCore {
            cap: cap.max(1),
            ring: VecDeque::new(),
            recorded: 0,
            dropped: 0,
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            sink: None,
        }))))
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Mirror every subsequent event to `sink` as one JSON object per line
    /// (`{"t_us":…,"kind":…,…}`). No-op on a disabled handle.
    pub fn mirror_to(&self, sink: Box<dyn Write + Send>) {
        if let Some(core) = &self.0 {
            lock_core(core).sink = Some(sink);
        }
    }

    /// Record an event. The closure builds the event only when enabled, so
    /// the disabled path allocates and formats nothing.
    pub fn record(&self, t: SimTime, make: impl FnOnce() -> ObsEvent) {
        if let Some(core) = &self.0 {
            lock_core(core).push(t, make());
        }
    }

    /// Increment a named counter by 1.
    pub fn inc(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increment a named counter by `n`.
    pub fn add(&self, name: &'static str, n: u64) {
        if let Some(core) = &self.0 {
            *lock_core(core).counters.entry(name).or_insert(0) += n;
        }
    }

    /// Add an observation to a named histogram.
    pub fn observe(&self, name: &'static str, v: f64) {
        if let Some(core) = &self.0 {
            lock_core(core)
                .histograms
                .entry(name)
                .or_default()
                .observe(v);
        }
    }

    // --- Query API ----------------------------------------------------------

    /// Snapshot of the ring buffer, oldest first.
    pub fn events(&self) -> Vec<ObsRecord> {
        match &self.0 {
            Some(core) => lock_core(core).ring.iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Snapshot filtered to one event kind.
    pub fn of_kind(&self, kind: ObsKind) -> Vec<ObsRecord> {
        match &self.0 {
            Some(core) => lock_core(core)
                .ring
                .iter()
                .filter(|r| r.event.kind() == kind)
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }

    /// A counter's value (0 when absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.0
            .as_ref()
            .and_then(|c| lock_core(c).counters.get(name).copied())
            .unwrap_or(0)
    }

    /// A histogram snapshot, `None` when absent or disabled.
    pub fn histogram(&self, name: &str) -> Option<ObsHistogram> {
        self.0
            .as_ref()
            .and_then(|c| lock_core(c).histograms.get(name).cloned())
    }

    /// Counter names with values (deterministic order).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        match &self.0 {
            Some(core) => lock_core(core)
                .counters
                .iter()
                .map(|(&k, &v)| (k, v))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Histogram names with snapshots (deterministic order).
    pub fn histograms(&self) -> Vec<(&'static str, ObsHistogram)> {
        match &self.0 {
            Some(core) => lock_core(core)
                .histograms
                .iter()
                .map(|(&k, v)| (k, v.clone()))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Total events recorded (including any since dropped from the ring).
    pub fn recorded(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| lock_core(c).recorded)
    }

    /// Events evicted from the full ring.
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| lock_core(c).dropped)
    }

    /// Metrics snapshot as a deterministic JSON object:
    /// `{"counters":{…},"histograms":{…},"events_recorded":…,"events_dropped":…}`.
    pub fn metrics_json(&self) -> String {
        let counters: Vec<String> = self
            .counters()
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        let histograms: Vec<String> = self
            .histograms()
            .iter()
            .map(|(k, h)| format!("{}:{}", json_str(k), h.to_json()))
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"histograms\":{{{}}},\"events_recorded\":{},\"events_dropped\":{}}}",
            counters.join(","),
            histograms.join(","),
            self.recorded(),
            self.dropped()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn disabled_handle_never_runs_the_event_closure() {
        let obs = Obs::disabled();
        let mut ran = false;
        obs.record(t(1), || {
            ran = true;
            ObsEvent::HostRecovered { host: "ws1".into() }
        });
        assert!(!ran, "disabled handle must not build events");
        assert!(!obs.is_enabled());
        assert!(obs.events().is_empty());
        assert_eq!(obs.counter("x"), 0);
        assert!(obs.histogram("x").is_none());
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts_drops() {
        let obs = Obs::with_capacity(2);
        for pid in 0..5u64 {
            obs.record(t(pid), || ObsEvent::MigrationTransferred {
                pid,
                eager_bytes: 8,
            });
        }
        let events = obs.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t, t(3));
        assert_eq!(events[1].t, t(4));
        assert_eq!(obs.recorded(), 5);
        assert_eq!(obs.dropped(), 3);
    }

    #[test]
    fn kind_filter_and_counters_and_histograms() {
        let obs = Obs::enabled();
        obs.record(t(1), || ObsEvent::HostSuspect {
            host: "ws1".into(),
            silent_s: 15.0,
        });
        obs.record(t(2), || ObsEvent::HostDown {
            host: "ws1".into(),
            silent_s: 25.0,
        });
        obs.inc("detector_transitions");
        obs.inc("detector_transitions");
        obs.observe("detector_suspect_s", 15.0);
        obs.observe("detector_suspect_s", 0.5);
        assert_eq!(obs.of_kind(ObsKind::HostSuspect).len(), 1);
        assert_eq!(obs.of_kind(ObsKind::HostDown).len(), 1);
        assert_eq!(obs.of_kind(ObsKind::HostRecovered).len(), 0);
        assert_eq!(obs.counter("detector_transitions"), 2);
        let h = obs.histogram("detector_suspect_s").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 15.0);
        assert_eq!(h.mean(), Some(7.75));
        // 0.5 lands in the le_0.5 bucket, 15.0 in le_50.
        assert_eq!(h.buckets[5], 1);
        assert_eq!(h.buckets[9], 1);
    }

    #[test]
    fn jsonl_mirror_writes_one_object_per_line() {
        let obs = Obs::enabled();
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        obs.mirror_to(Box::new(Shared(buf.clone())));
        obs.record(t(3), || ObsEvent::CandidateRejected {
            host: "ws2".into(),
            why: "policy \"veto\"".into(),
        });
        obs.record(t(4), || ObsEvent::MigrationCommitted {
            pid_old: 7,
            pid_new: 9,
        });
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t_us\":3000000,\"kind\":\"CandidateRejected\",\"host\":\"ws2\",\"why\":\"policy \\\"veto\\\"\"}"
        );
        assert!(lines[1].contains("\"pid_old\":7"));
    }

    #[test]
    fn metrics_json_is_deterministic_and_structured() {
        let obs = Obs::enabled();
        obs.inc("b");
        obs.inc("a");
        obs.observe("h", 2.0);
        let json = obs.metrics_json();
        // BTreeMap ordering: "a" before "b" regardless of insertion order.
        assert!(json.starts_with("{\"counters\":{\"a\":1,\"b\":1},\"histograms\":{\"h\":"));
        assert!(json.contains("\"events_recorded\":0"));
        let empty = Obs::disabled().metrics_json();
        assert_eq!(
            empty,
            "{\"counters\":{},\"histograms\":{},\"events_recorded\":0,\"events_dropped\":0}"
        );
    }
}
