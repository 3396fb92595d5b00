//! `reshape_churn`: a small flat cluster dominated by decisions and
//! reconfiguration transactions rather than heartbeats.
//!
//! Malleable `test_tree` worlds (under `ars_bench::malleable::paper_rules`)
//! share the cluster with migratable `TestTree` apps. Hog waves land on
//! whichever host each app currently runs on, so apps migrate more than
//! once; batch waves overload a third of the cluster so the worlds shrink,
//! and the idle stretches between waves let them expand again.

use crate::des::{check_jobs, hpcm_outcome, Build, Clock, DesRun};
use crate::probe::Layer;
use ars_apps::{CpuHog, DaemonNoise, MalleableTree, MalleableTreeConfig, TestTree, TestTreeConfig};
use ars_hpcm::{HpcmHooks, MigratableApp, MigrationOutcome};
use ars_mpisim::Mpi;
use ars_rescheduler::{
    deploy, Commander, DeployConfig, MalleableJob, Monitor, MonitorConfig, RegistryConfig,
    RegistryScheduler, ReschedHooks, SchemaBook, StateSource,
};
use ars_rules::Policy;
use ars_sim::{HostId, Pid, Sim, SimConfig, SpawnOpts};
use ars_simcore::{SimDuration, SimRng, SimTime};
use ars_simhost::HostConfig;
use ars_sysinfo::Ambient;

/// Size of one `reshape_churn` instance.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSize {
    /// Monitored workstations.
    pub hosts: usize,
    /// Malleable worlds, each starting at 2 ranks.
    pub worlds: usize,
    /// Migratable `TestTree` apps.
    pub apps: usize,
    /// Hog waves (one every [`HOG_EVERY_S`] from t = 100 s).
    pub hog_waves: usize,
    /// Simulated horizon, seconds.
    pub horizon_s: u64,
}

/// The benchmark size.
pub const FULL: ChurnSize = ChurnSize {
    hosts: 128,
    worlds: 16,
    apps: 48,
    hog_waves: 6,
    horizon_s: 3_000,
};

/// The smallest size that still exercises every transaction kind.
pub const TINY: ChurnSize = ChurnSize {
    hosts: 16,
    worlds: 1,
    apps: 3,
    hog_waves: 2,
    horizon_s: 2_400,
};

/// Instances (derived seeds) one benchmark run measures: a single
/// instance's outcome and host cost depend too much on where the waves
/// happen to land.
pub const INPUTS: usize = 10;

/// Spacing of the hog waves.
pub const HOG_EVERY_S: u64 = 200;
/// Batch waves: when, and how many jobs land on each chosen host.
const BATCH_WAVES_S: [u64; 2] = [450, 1_100];
const BATCH_JOBS_PER_HOST: usize = 3;
const BATCH_JOB_CPU_S: f64 = 150.0;
/// CPU-seconds of each hog (two per hit host).
const HOG_CPU_S: f64 = 120.0;

fn world_config(seed: u64, w: usize) -> MalleableTreeConfig {
    MalleableTreeConfig {
        items: 600,
        item_cost: 1.0,
        chunk_items: 4,
        block: 4,
        poll_cost: 0.5,
        rss_kb: 16_384,
        seed: seed.wrapping_mul(1_000).wrapping_add(w as u64),
    }
}

/// The apps' trees are 8× smaller than `bench_scale`'s (10 levels, not
/// 13) with 8× the per-node cost and 8× smaller chunks, so each app takes
/// the same simulated time over the same number of poll-points while the
/// 48 apps' real trees take 8× less cache (see the README on steadiness).
fn app_config(seed: u64, a: usize) -> TestTreeConfig {
    TestTreeConfig {
        trees: 5,
        levels: 10,
        node_cost_build: 16e-3,
        node_cost_sort: 24e-3,
        node_cost_sum: 8e-3,
        chunk_nodes: 128,
        rss_kb: 24_576,
        seed: seed.wrapping_mul(1_000).wrapping_add(500 + a as u64),
    }
}

/// The host an app currently runs on: follow its committed migrations
/// from the pid it was launched with.
fn current_host(sim: &Sim, hooks: &HpcmHooks, launched: Pid) -> Option<HostId> {
    let log = hooks.0.borrow();
    let mut pid = launched;
    while let Some(m) = log
        .migrations
        .iter()
        .find(|m| m.pid_old == pid && m.outcome == MigrationOutcome::Committed)
    {
        pid = m.pid_new;
    }
    if sim.is_alive(pid) {
        sim.host_of(pid)
    } else {
        None
    }
}

/// Run one `reshape_churn` instance.
pub fn run(size: ChurnSize, seed: u64, build: &Build) -> DesRun {
    let w = size.hosts;
    let mut clock = Clock::start(build);
    let mut hosts = vec![HostConfig::named("hub")];
    hosts.extend((1..=w).map(|i| HostConfig::named(format!("ws{i}"))));
    let mut sim = Sim::new(
        hosts,
        SimConfig {
            seed,
            trace: build.kernel_trace,
            ..SimConfig::default()
        },
    );
    for h in 1..=w as u32 {
        sim.spawn(
            HostId(h),
            build.program(Box::new(DaemonNoise::new(0.22, 2.0)), Layer::Ambient),
            SpawnOpts::named("daemons"),
        );
    }

    // Malleable worlds on hosts (1,2), (3,4), …; migratable apps after.
    let hpcm = HpcmHooks::new();
    let mpi = Mpi::new();
    let mut worlds = Vec::new();
    let mut schemas_to_put = Vec::new();
    for i in 0..size.worlds {
        let cfg = world_config(seed, i);
        let comm = mpi.create_comm(vec![]);
        let mut ranks = Vec::new();
        for r in 0..2u32 {
            let app = MalleableTree::new(cfg.clone(), mpi.clone(), comm);
            if i == 0 && r == 0 {
                schemas_to_put.push(MigratableApp::schema(&app));
            }
            let host = HostId(1 + 2 * i as u32 + r);
            let pid = build.spawn_app(&mut sim, host, app, Some(mpi.clone()), &hpcm);
            let task = mpi.task_of(pid).expect("task bound at spawn");
            mpi.join(comm, task).expect("join world");
            ranks.push((pid, format!("ws{}", host.0)));
        }
        worlds.push(MalleableJob::new(
            "malleable_tree",
            ranks[0].1.clone(),
            ranks[0].0 .0,
            ranks.iter().map(|(_, h)| h.clone()).collect(),
            ars_bench::malleable::paper_rules(),
        ));
    }
    let first_app_host = 1 + 2 * size.worlds as u32;
    let mut apps = Vec::new();
    for a in 0..size.apps {
        let app = TestTree::new(app_config(seed, a));
        if a == 0 {
            schemas_to_put.push(MigratableApp::schema(&app));
        }
        apps.push(build.spawn_app(
            &mut sim,
            HostId(first_app_host + a as u32),
            app,
            None,
            &hpcm,
        ));
    }

    let cfg = DeployConfig {
        overload_confirm: SimDuration::from_secs(30),
        malleable_jobs: worlds,
        resize_cooldown: SimDuration::from_secs(45),
        ..DeployConfig::default()
    };
    let schemas = if build.public {
        let monitored: Vec<HostId> = (1..=w as u32).map(HostId).collect();
        deploy(&mut sim, HostId(0), &monitored, cfg).schemas
    } else {
        build_flat(&mut sim, w, cfg, build)
    };
    for s in schemas_to_put {
        schemas.put(s);
    }
    clock.setup_done();
    if build.setup_only {
        return clock.setup_only();
    }

    // Waves, in time order. The hog targets follow the apps; the batch
    // hosts are a seeded third of the cluster.
    let mut rng = SimRng::new(seed ^ 0x5eed_c4a7);
    let mut batches: Vec<(Pid, SimTime)> = Vec::new();
    let mut overloads: Vec<(HostId, SimTime)> = Vec::new();
    let mut events: Vec<(u64, bool)> = (0..size.hog_waves)
        .map(|k| (100 + HOG_EVERY_S * k as u64, true))
        .chain(BATCH_WAVES_S.iter().map(|&t| (t, false)))
        .collect();
    events.sort();
    for (t, hog) in events {
        let at = SimTime::from_secs(t);
        sim.run_until(at);
        if hog {
            let mut hit: Vec<HostId> = apps
                .iter()
                .filter_map(|&launched| current_host(&sim, &hpcm, launched))
                .collect();
            hit.sort();
            hit.dedup();
            for host in hit {
                for _ in 0..2 {
                    sim.spawn(
                        host,
                        build.program(Box::new(CpuHog::new(HOG_CPU_S)), Layer::Ambient),
                        SpawnOpts::named("hog"),
                    );
                }
                overloads.push((host, at));
            }
        } else {
            let mut pool: Vec<u32> = (1..=w as u32).collect();
            for _ in 0..w / 3 {
                let h = pool.swap_remove(rng.below(pool.len() as u64) as usize);
                overloads.push((HostId(h), at));
                for _ in 0..BATCH_JOBS_PER_HOST {
                    let pid = sim.spawn(
                        HostId(h),
                        build.program(Box::new(CpuHog::new(BATCH_JOB_CPU_S)), Layer::Ambient),
                        SpawnOpts::named("batch_job"),
                    );
                    batches.push((pid, at));
                }
            }
        }
    }
    sim.run_until(SimTime::from_secs(size.horizon_s));

    let mut run = clock.finish(&sim, build, size.horizon_s);
    hpcm_outcome(&mut run, &hpcm, &overloads);
    let worlds: Vec<(SimTime, u64)> = (0..size.worlds)
        .map(|i| {
            (
                SimTime::ZERO,
                MalleableTree::expected_digest(&world_config(seed, i)),
            )
        })
        .collect();
    check_jobs(&mut run, &hpcm, "malleable_tree", &worlds);
    let apps: Vec<(SimTime, u64)> = (0..size.apps)
        .map(|a| (SimTime::ZERO, TestTree::expected_sum(&app_config(seed, a))))
        .collect();
    check_jobs(&mut run, &hpcm, "test_tree", &apps);
    run.jobs += batches.len() as u64;
    for (pid, at) in batches {
        match sim.exited_at(pid) {
            Some(t) => {
                run.turnaround_s.push(t.since(at).as_secs_f64());
                run.makespan_s = run.makespan_s.max(t.as_secs_f64());
            }
            None => run
                .failures
                .push(format!("batch job {pid:?} never finished")),
        }
    }
    // Not vacuous: every app migrated, some more than once, and the
    // worlds both grew and shrank.
    if run.migrations < size.apps + 1 || run.expands == 0 || run.shrinks == 0 {
        run.failures.push(format!(
            "too little churn: {} migrations, {} expands, {} shrinks",
            run.migrations, run.expands, run.shrinks
        ));
    }
    run
}

/// What `deploy` spawns, in the same order, with every program wrapped.
fn build_flat(sim: &mut Sim, w: usize, cfg: DeployConfig, build: &Build) -> SchemaBook {
    let schemas = SchemaBook::new();
    let mut reg_cfg = RegistryConfig::new(cfg.policy.clone());
    reg_cfg.name = "registry@h0".to_string();
    reg_cfg.lease = cfg.lease;
    reg_cfg.obs = build.obs.clone();
    reg_cfg.malleable_jobs = cfg.malleable_jobs;
    reg_cfg.resize_cooldown = cfg.resize_cooldown;
    let registry = sim.spawn(
        HostId(0),
        build.program(
            Box::new(RegistryScheduler::new(
                reg_cfg,
                schemas.clone(),
                ReschedHooks::new(),
            )),
            Layer::Registry,
        ),
        SpawnOpts::named("ars_registry"),
    );
    for h in 1..=w as u32 {
        let commander = sim.spawn(
            HostId(h),
            build.program(
                Box::new(Commander::new(registry).with_obs(build.obs.clone())),
                Layer::Commander,
            ),
            SpawnOpts::named("ars_commander"),
        );
        let monitor = Monitor::new(
            MonitorConfig {
                registry,
                state_source: StateSource::Policy(Policy::paper_policy2()),
                freq: cfg.freq,
                ambient: Ambient::default(),
                overload_confirm: cfg.overload_confirm,
                adaptive: None,
                push: true,
                commander: Some(commander),
            },
            schemas.clone(),
        )
        .with_obs(build.obs.clone());
        sim.spawn(
            HostId(h),
            build.program(Box::new(monitor), Layer::Monitor),
            SpawnOpts::named("ars_monitor"),
        );
    }
    schemas
}
