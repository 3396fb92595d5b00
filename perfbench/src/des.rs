//! Shared plumbing of the simulated (DES) workloads: how programs and
//! apps are spawned in untraced and traced runs, and what one run of a
//! scenario reports.

use crate::probe::{self, Layer, LayerTotals, Probe, TimedApp};
use ars_hpcm::{HpcmConfig, HpcmHooks, HpcmShell, MigratableApp, MigrationOutcome};
use ars_mpisim::Mpi;
use ars_obs::Obs;
use ars_sim::{HostId, Pid, Program, Sim, SpawnOpts, TraceEvent};
use ars_simcore::SimTime;
use ars_simnet::NodeId;
use std::time::Instant;

/// How one scenario instance is built: untraced (only the heartbeat
/// latency probes on monitors and registries) or traced (every spawned
/// program and app wrapped and timed, `ars-obs` enabled everywhere).
pub struct Build {
    /// Wrap and time everything the workload spawns.
    pub traced: bool,
    /// The observability session: enabled exactly when traced.
    pub obs: Obs,
    /// Record the kernel trace (fidelity gates only).
    pub kernel_trace: bool,
    /// Stop once the deployment is built (set-up timing only).
    pub setup_only: bool,
    /// Deploy through the public entry points (`deploy`, `deploy_tree`,
    /// `HpcmShell::spawn_on`) with nothing wrapped: the reference the
    /// fidelity tests hold the bench-built deployments to.
    pub public: bool,
}

impl Build {
    /// A build for a run with or without the per-layer trace.
    pub fn new(traced: bool) -> Build {
        Build {
            traced,
            obs: if traced {
                Obs::enabled()
            } else {
                Obs::disabled()
            },
            kernel_trace: false,
            setup_only: false,
            public: false,
        }
    }

    /// The public-entry-point reference build (records the kernel trace).
    pub fn public() -> Build {
        Build {
            public: true,
            ..Build::new(false).with_kernel_trace()
        }
    }

    /// Builder: also record the kernel trace.
    pub fn with_kernel_trace(mut self) -> Build {
        self.kernel_trace = true;
        self
    }

    /// The program to spawn for `p` acting as `layer`.
    pub fn program(&self, p: Box<dyn Program>, layer: Layer) -> Box<dyn Program> {
        let probed = self.traced || matches!(layer, Layer::Monitor | Layer::Registry);
        if probed && !self.public {
            Box::new(Probe::new(p, layer))
        } else {
            p
        }
    }

    /// Spawn `app` under an HPCM shell, the way `HpcmShell::spawn_on`
    /// does, but with the shell and the app wrapped when traced.
    pub fn spawn_app<A: MigratableApp>(
        &self,
        sim: &mut Sim,
        host: HostId,
        app: A,
        mpi: Option<Mpi>,
        hooks: &HpcmHooks,
    ) -> Pid {
        if self.public {
            HpcmShell::spawn_on(sim, host, app, HpcmConfig::default(), mpi, hooks.clone())
        } else if self.traced {
            self.spawn_shell(sim, host, TimedApp(app), mpi, hooks)
        } else {
            self.spawn_shell(sim, host, app, mpi, hooks)
        }
    }

    fn spawn_shell<A: MigratableApp>(
        &self,
        sim: &mut Sim,
        host: HostId,
        app: A,
        mpi: Option<Mpi>,
        hooks: &HpcmHooks,
    ) -> Pid {
        let mem_kb = app.schema().requirements.mem_kb;
        let opts = SpawnOpts::named(app.app_name())
            .migratable()
            .with_mem(mem_kb, mem_kb);
        let cfg = HpcmConfig {
            obs: self.obs.clone(),
            ..HpcmConfig::default()
        };
        let shell = Box::new(HpcmShell::launch(app, cfg, mpi.clone(), hooks.clone()));
        let pid = sim.spawn(host, self.program(shell, Layer::Shell), opts);
        if let Some(m) = mpi {
            if m.task_of(pid).is_none() {
                m.bind_new_task(pid);
            }
        }
        pid
    }
}

/// Render a kernel trace event the way the repository's equivalence gates
/// compare them.
pub fn render_event(e: &TraceEvent) -> String {
    format!("{:?} {:?} {}", e.t, e.kind, e.detail)
}

/// Everything one run of a simulated scenario reports.
#[derive(Debug, Clone, Default)]
pub struct DesRun {
    /// Host seconds spent building the deployment before the kernel runs.
    pub setup_s: f64,
    /// Host seconds for the simulated horizon.
    pub run_s: f64,
    /// `run_s` split at the slice clock's marks (see [`probe::SLICE_S`]);
    /// the parts sum to `run_s`.
    pub slice_s: Vec<f64>,
    /// Kernel events handled.
    pub events: u64,
    /// Simulated overload→commit time of each committed migration, s.
    pub react_s: Vec<f64>,
    /// Simulated submit→finish time of each completed job, s.
    pub turnaround_s: Vec<f64>,
    /// Last completion, simulated seconds.
    pub makespan_s: f64,
    /// Jobs (apps and batch jobs) submitted.
    pub jobs: u64,
    /// Heartbeats delivered to registries.
    pub heartbeats: u64,
    /// Mean simulated sampling-start→registry heartbeat latency of each
    /// monitor in each window of simulated time, s.
    pub hb_window_mean_s: Vec<f64>,
    /// Bytes received by the registry machine's NIC.
    pub registry_rx_bytes: f64,
    /// Registry NIC receive utilization over the horizon.
    pub registry_nic_util: f64,
    /// Lost jobs, wrong digests and vacuous-scenario checks that failed.
    pub failures: Vec<String>,
    /// Committed migrations / expands / shrinks.
    pub migrations: usize,
    /// Committed expand transactions.
    pub expands: usize,
    /// Committed shrink transactions.
    pub shrinks: usize,
    /// Aborted migrations.
    pub migrations_aborted: usize,
    /// Kernel trace, when requested.
    pub trace: Option<Vec<String>>,
    /// Per-layer totals (traced runs).
    pub layers: LayerTotals,
    /// The obs session (enabled in traced runs).
    pub obs: Obs,
}

impl DesRun {
    /// The simulated outcome as one comparable string: traced and
    /// untraced runs of the same seed must agree on it exactly.
    pub fn fingerprint(&self) -> String {
        format!(
            "events={} react={:?} turnaround={:?} makespan={} jobs={} hb={} migrations={} \
             expands={} shrinks={} aborted={} failures={:?}",
            self.events,
            self.react_s,
            self.turnaround_s,
            self.makespan_s,
            self.jobs,
            self.heartbeats,
            self.migrations,
            self.expands,
            self.shrinks,
            self.migrations_aborted,
            self.failures
        )
    }
}

/// Times the phases of one run and collects what the kernel and the
/// probes saw at the end of it.
pub struct Clock {
    t0: Instant,
    setup_s: f64,
}

impl Clock {
    /// Start timing set-up; resets the probe sinks.
    pub fn start(build: &Build) -> Clock {
        probe::reset(build.traced);
        Clock {
            t0: Instant::now(),
            setup_s: 0.0,
        }
    }

    /// Set-up is done; the kernel is about to run.
    pub fn setup_done(&mut self) {
        self.setup_s = self.t0.elapsed().as_secs_f64();
        self.t0 = Instant::now();
    }

    /// The result of a set-up-only build.
    pub fn setup_only(&self) -> DesRun {
        DesRun {
            setup_s: self.setup_s,
            ..DesRun::default()
        }
    }

    /// The horizon is reached: fill in the host-time and kernel fields.
    pub fn finish(self, sim: &Sim, build: &Build, horizon_s: u64) -> DesRun {
        let end = Instant::now();
        let run_s = end.duration_since(self.t0).as_secs_f64();
        let mut slice_s = Vec::new();
        let mut from = self.t0;
        for mark in probe::slice_marks().into_iter().chain([end]) {
            slice_s.push(mark.duration_since(from).as_secs_f64());
            from = mark;
        }
        let net = &sim.kernel().net;
        let rx = net.rx_bytes(NodeId(0));
        let (heartbeats, hb_window_mean_s) = probe::heartbeat_latencies();
        DesRun {
            setup_s: self.setup_s,
            run_s,
            slice_s,
            events: sim.kernel().events_handled(),
            heartbeats,
            hb_window_mean_s,
            registry_rx_bytes: rx,
            registry_nic_util: rx / (net.config().nic_bytes_per_sec * horizon_s as f64),
            trace: build.kernel_trace.then(|| {
                sim.kernel()
                    .trace
                    .events()
                    .iter()
                    .map(render_event)
                    .collect()
            }),
            layers: probe::layer_totals(),
            obs: build.obs.clone(),
            ..DesRun::default()
        }
    }
}

/// Fill the HPCM-derived outcome fields: migrations, resizes, and the
/// overload→commit time of every committed migration, measured from the
/// latest overload injected on its source host before its poll-point.
pub fn hpcm_outcome(run: &mut DesRun, hooks: &HpcmHooks, overloads: &[(HostId, SimTime)]) {
    let log = hooks.0.borrow();
    for m in &log.migrations {
        match m.outcome {
            MigrationOutcome::Committed => {
                run.migrations += 1;
                let injected = overloads
                    .iter()
                    .filter(|(h, t)| *h == m.from && *t <= m.pollpoint_at)
                    .map(|&(_, t)| t)
                    .max();
                // Migrations off hosts that grew overloaded on their own
                // (two apps landing together) have no injection to time.
                if let (Some(t), Some(c)) = (injected, m.committed_at) {
                    run.react_s.push(c.since(t).as_secs_f64());
                }
            }
            MigrationOutcome::Aborted => run.migrations_aborted += 1,
            MigrationOutcome::InFlight => {}
        }
    }
    run.expands = log
        .resizes
        .iter()
        .filter(|r| {
            r.kind == ars_hpcm::ResizeKind::Expand && r.outcome == MigrationOutcome::Committed
        })
        .count();
    run.shrinks = log
        .resizes
        .iter()
        .filter(|r| {
            r.kind == ars_hpcm::ResizeKind::Shrink && r.outcome == MigrationOutcome::Committed
        })
        .count();
}

/// Account the completions of `app`: every expected job, identified by
/// its exact result digest, must have finished; a completion whose digest
/// matches no job is a corrupt result. Records each job's turnaround from
/// its submit time (the last of its ranks to finish).
pub fn check_jobs(run: &mut DesRun, hooks: &HpcmHooks, app: &str, jobs: &[(SimTime, u64)]) {
    let log = hooks.0.borrow();
    let mut finished: Vec<Option<SimTime>> = vec![None; jobs.len()];
    for c in log.completions.iter().filter(|c| c.app == app) {
        match jobs.iter().position(|&(_, d)| d == c.digest) {
            Some(j) => finished[j] = finished[j].max(Some(c.finished_at)),
            None => run
                .failures
                .push(format!("{app} finished with wrong digest {:#x}", c.digest)),
        }
    }
    run.jobs += jobs.len() as u64;
    for (&(submitted, digest), done) in jobs.iter().zip(finished) {
        match done {
            Some(t) => {
                run.turnaround_s.push(t.since(submitted).as_secs_f64());
                run.makespan_s = run.makespan_s.max(t.as_secs_f64());
            }
            None => run
                .failures
                .push(format!("{app} with digest {digest:#x} never finished")),
        }
    }
}
