//! Outside-in instrumentation: forwarding wrappers around the programs
//! and applications a workload spawns.
//!
//! Nothing here reaches into a layer's internals. A [`Probe`] forwards
//! every wake to the wrapped [`Program`] (and `as_any` to the inner
//! program, so downcasts keep working), and a [`TimedApp`] forwards every
//! [`MigratableApp`] call. In a traced run both time each call with the
//! host clock and charge it to a [`Layer`]; spans nest, so a wrapped HPCM
//! shell is charged only for the time it spends outside the application
//! calls it makes.
//!
//! Independently of tracing, a [`Probe`] around a monitor or registry
//! records simulated heartbeat latency: the time from the monitor's wake
//! that starts a sampling cycle to the heartbeat's delivery at the
//! registry, averaged per monitor over fixed windows of simulated time. That costs one table write per wake and no host-clock reads,
//! so untraced runs carry it too.
//!
//! Every [`Probe`] wake also advances a slice clock: it marks the host
//! instant at which simulated time first reaches each multiple of
//! [`SLICE_S`]. Repetitions of one input do the same work in every slice,
//! so the run can take each slice's fastest repetition (see `main.rs`).
//! That costs one comparison per wake and one host-clock read per slice.
//!
//! The sinks are thread-local: the simulation is single-threaded, and
//! `MigratableApp::restore` is a constructor with no handle to pass in.

use ars_hpcm::{AppStatus, CodecError, MigratableApp, SavedState};
use ars_mpisim::{CommId, Mpi};
use ars_sim::{Ctx, Payload, Pid, Program, Wake};
use ars_simcore::{SimDuration, SimTime};
use ars_xmlwire::ApplicationSchema;
use std::cell::RefCell;
use std::time::Instant;

/// What a wrapped call is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Monitor daemons: sensors, rules, heartbeat encode.
    Monitor,
    /// Registry programs: `RegistryCore::handle` plus XML parse.
    Registry,
    /// Commander daemons.
    Commander,
    /// Ambient daemons (counted, never timed).
    Ambient,
    /// HPCM shells spawned by the workload, excluding the app calls.
    Shell,
    /// `MigratableApp::step`.
    AppStep,
    /// `MigratableApp::save`.
    Save,
    /// `MigratableApp::restore`.
    Restore,
    /// `MigratableApp::save_for_join`.
    JoinSave,
}

const LAYERS: usize = 9;

/// Accumulated cost of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    /// Exclusive host seconds (nested wrapped calls subtracted).
    pub busy_s: f64,
    /// Calls (wakes for programs).
    pub calls: u64,
}

/// Per-layer totals of one traced run.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals(pub [LayerStat; LAYERS]);

impl LayerTotals {
    /// The stat for one layer.
    pub fn get(&self, layer: Layer) -> LayerStat {
        self.0[layer as usize]
    }

    /// Sum of every layer's exclusive time.
    pub fn wrapped_s(&self) -> f64 {
        self.0.iter().map(|s| s.busy_s).sum()
    }
}

#[derive(Default)]
struct Profile {
    timing: bool,
    totals: LayerTotals,
    /// Inclusive time of finished child spans, one slot per open span.
    open: Vec<f64>,
}

/// Simulated time over which one monitor's heartbeat latencies are
/// averaged into one sample.
pub const HB_WINDOW_S: u64 = 200;

/// One monitor's heartbeat latency bookkeeping (simulated time).
#[derive(Clone, Copy, Default)]
struct MonitorBeats {
    /// Start of the sampling cycle not yet delivered.
    cycle_start: Option<SimTime>,
    /// Window the running sum belongs to.
    window: u64,
    /// Sum and count of latencies delivered in `window`, seconds.
    sum_s: f64,
    count: u64,
}

/// Heartbeat latencies per monitor pid (`None` for other pids), plus the
/// finished (monitor, window) means.
#[derive(Default)]
struct Heartbeats {
    monitors: Vec<Option<MonitorBeats>>,
    window_means_s: Vec<f64>,
    delivered: u64,
}

/// Simulated seconds per slice of the slice clock.
pub const SLICE_S: u64 = 10;

/// The slice clock: host instants at which simulated time first reached
/// each multiple of [`SLICE_S`].
#[derive(Default)]
struct Slices {
    marks: Vec<Instant>,
    /// Simulated time the next mark waits for.
    next: SimTime,
}

thread_local! {
    static PROFILE: RefCell<Profile> = RefCell::new(Profile::default());
    static HEARTBEATS: RefCell<Heartbeats> = RefCell::new(Heartbeats::default());
    static SLICES: RefCell<Slices> = RefCell::new(Slices::default());
}

/// Reset the sinks; `timing` turns host-clock layer timing on.
pub fn reset(timing: bool) {
    PROFILE.with(|p| {
        *p.borrow_mut() = Profile {
            timing,
            ..Profile::default()
        }
    });
    HEARTBEATS.with(|h| *h.borrow_mut() = Heartbeats::default());
    SLICES.with(|s| {
        *s.borrow_mut() = Slices {
            marks: Vec::new(),
            next: SimTime::from_secs(SLICE_S),
        }
    });
}

/// Host instants at which simulated time first reached each multiple of
/// [`SLICE_S`] since the last [`reset`]; boundaries passed without a
/// probed wake share the instant of the next one.
pub fn slice_marks() -> Vec<Instant> {
    SLICES.with(|s| s.borrow().marks.clone())
}

fn advance_slices(now: SimTime) {
    SLICES.with(|s| {
        let mut s = s.borrow_mut();
        if now < s.next {
            return;
        }
        let at = Instant::now();
        while now >= s.next {
            s.marks.push(at);
            s.next = s.next + SimDuration::from_secs(SLICE_S);
        }
    });
}

/// Layer totals accumulated since the last [`reset`].
pub fn layer_totals() -> LayerTotals {
    PROFILE.with(|p| p.borrow().totals.clone())
}

/// Heartbeats delivered since the last [`reset`], and the mean simulated
/// heartbeat latency (seconds) of every monitor in every
/// [`HB_WINDOW_S`]-second window it delivered in.
pub fn heartbeat_latencies() -> (u64, Vec<f64>) {
    HEARTBEATS.with(|h| {
        let beats = h.borrow();
        let mut means = beats.window_means_s.clone();
        means.extend(
            beats
                .monitors
                .iter()
                .flatten()
                .filter(|m| m.count > 0)
                .map(|m| m.sum_s / m.count as f64),
        );
        (beats.delivered, means)
    })
}

/// Run `f` charged to `layer` when timing is on.
fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let timing = PROFILE.with(|p| {
        let mut p = p.borrow_mut();
        p.totals.0[layer as usize].calls += 1;
        if p.timing {
            p.open.push(0.0);
        }
        p.timing
    });
    if !timing {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    let inclusive = t0.elapsed().as_secs_f64();
    PROFILE.with(|p| {
        let mut p = p.borrow_mut();
        let children = p.open.pop().unwrap_or(0.0);
        p.totals.0[layer as usize].busy_s += inclusive - children;
        if let Some(parent) = p.open.last_mut() {
            *parent += inclusive;
        }
    });
    r
}

fn monitor_woke(pid: Pid, now: SimTime) {
    HEARTBEATS.with(|h| {
        let beats = &mut h.borrow_mut().monitors;
        let i = pid.0 as usize;
        if beats.len() <= i {
            beats.resize(i + 1, None);
        }
        let monitor = beats[i].get_or_insert_with(MonitorBeats::default);
        monitor.cycle_start.get_or_insert(now);
    });
}

/// The declaration every wire document starts with.
const XML_DECL: &str = "<?xml version=\"1.0\" encoding=\"US-ASCII\"?>";

fn registry_received(from: Pid, payload: &Payload, now: SimTime) {
    let Payload::Text(doc) = payload else { return };
    let doc = doc.strip_prefix(XML_DECL).unwrap_or(doc);
    let heartbeat = doc.starts_with("<msg type=\"heartbeat\"");
    if !heartbeat && !doc.starts_with("<msg type=\"register\"") {
        return;
    }
    HEARTBEATS.with(|h| {
        let beats = &mut *h.borrow_mut();
        let Some(Some(monitor)) = beats.monitors.get_mut(from.0 as usize) else {
            return;
        };
        let Some(start) = monitor.cycle_start.take() else {
            return;
        };
        if !heartbeat {
            return;
        }
        let window = now.as_secs_f64() as u64 / HB_WINDOW_S;
        if window != monitor.window && monitor.count > 0 {
            beats
                .window_means_s
                .push(monitor.sum_s / monitor.count as f64);
            monitor.sum_s = 0.0;
            monitor.count = 0;
        }
        monitor.window = window;
        monitor.sum_s += now.since(start).as_secs_f64();
        monitor.count += 1;
        beats.delivered += 1;
    });
}

/// Forwarding wrapper around a spawned program (see module docs).
pub struct Probe {
    inner: Box<dyn Program>,
    layer: Layer,
}

impl Probe {
    /// Wrap `inner`, charging its wakes to `layer`.
    pub fn new(inner: Box<dyn Program>, layer: Layer) -> Probe {
        Probe { inner, layer }
    }
}

impl Program for Probe {
    fn on_wake(&mut self, ctx: &mut Ctx<'_>, wake: Wake) {
        advance_slices(ctx.now());
        match (self.layer, &wake) {
            (Layer::Monitor, _) => monitor_woke(ctx.pid(), ctx.now()),
            (Layer::Registry, Wake::Received(env)) => {
                registry_received(env.from, &env.payload, ctx.now())
            }
            _ => {}
        }
        if self.layer == Layer::Ambient {
            PROFILE.with(|p| p.borrow_mut().totals.0[Layer::Ambient as usize].calls += 1);
            return self.inner.on_wake(ctx, wake);
        }
        let inner = &mut self.inner;
        span(self.layer, || inner.on_wake(ctx, wake))
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any()
    }
}

/// Forwarding [`MigratableApp`] wrapper: `step`, `save`, `restore` and
/// `save_for_join` are charged to their layers on every host the app
/// lives on, including after a migration or expand.
pub struct TimedApp<A: MigratableApp>(pub A);

impl<A: MigratableApp> MigratableApp for TimedApp<A> {
    fn app_name(&self) -> String {
        self.0.app_name()
    }

    fn schema(&self) -> ApplicationSchema {
        self.0.schema()
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, wake: Wake) -> AppStatus {
        let inner = &mut self.0;
        span(Layer::AppStep, || inner.step(ctx, wake))
    }

    fn save(&self) -> SavedState {
        span(Layer::Save, || self.0.save())
    }

    fn restore(eager: &[u8], mpi: Option<&Mpi>) -> Result<Self, CodecError> {
        span(Layer::Restore, || A::restore(eager, mpi)).map(TimedApp)
    }

    fn migration_safe(&self) -> bool {
        self.0.migration_safe()
    }

    fn progress(&self) -> f64 {
        self.0.progress()
    }

    fn result_digest(&self) -> u64 {
        self.0.result_digest()
    }

    fn resize_comm(&self) -> Option<CommId> {
        self.0.resize_comm()
    }

    fn save_for_join(&self, rank: u32, new_size: u32) -> Option<SavedState> {
        span(Layer::JoinSave, || self.0.save_for_join(rank, new_size))
    }

    fn sync_key(&self) -> u64 {
        self.0.sync_key()
    }
}
