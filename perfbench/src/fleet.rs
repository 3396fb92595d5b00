//! `fleet_steady` and `fleet_tree`: a heartbeat-dominated fleet with one
//! overload → migration, under a flat registry with staggered monitor boot
//! and under a registry tree with the lockstep boot `deploy_tree` gives.
//!
//! Both are built here from public configs (so every program can be
//! wrapped), spawn for spawn what `ars_bench::scale::heartbeat_migration`
//! and `deploy_tree` produce; the fidelity tests hold them to that.

use crate::des::{check_jobs, hpcm_outcome, Build, Clock, DesRun};
use crate::probe::Layer;
use ars_apps::{DaemonNoise, PollDaemon, Spinner, TestTree, TestTreeConfig};
use ars_hpcm::{HpcmHooks, MigratableApp};
use ars_rescheduler::{
    deploy_tree, Commander, DeployConfig, Endpoint, Monitor, MonitorConfig, RegistryConfig,
    RegistryScheduler, ReschedHooks, SchemaBook, StateSource,
};
use ars_rules::{MonitoringFrequency, Policy};
use ars_sim::{HostId, Pid, Program, Sim, SimConfig, SpawnOpts};
use ars_simcore::{SimDuration, SimTime};
use ars_simhost::HostConfig;
use ars_sysinfo::Ambient;

/// Size of one fleet instance.
#[derive(Debug, Clone, Copy)]
pub struct FleetSize {
    /// Monitored workstations (host 0 is the registry machine).
    pub hosts: usize,
    /// Simulated horizon, seconds.
    pub horizon_s: u64,
    /// Leaf registries (`fleet_tree` only).
    pub leaves: usize,
    /// Trees the app on host 1 processes (`bench_scale` uses 16).
    pub trees: u32,
}

/// `fleet_steady` at benchmark size. The app is smaller than
/// `bench_scale`'s (whose 16 trees outlast its 900 s horizon), so that it
/// completes and the run can check its digest.
///
/// The fleet is 256 workstations rather than `bench_scale`'s 2048. From
/// about 1024 hosts its hot state spills out of the core's 2 MB L2 into
/// the L3 that a shared host splits with other tenants, and its host time
/// then swings by up to 2× from one minute to the next; at 256 hosts it
/// swings far less.
pub const STEADY: FleetSize = FleetSize {
    hosts: 256,
    horizon_s: 500,
    leaves: 1,
    trees: 6,
};
/// `fleet_tree` at benchmark size: the `bench_scale` hier cell's 8 leaves.
pub const TREE: FleetSize = FleetSize {
    leaves: 8,
    ..STEADY
};

/// When the two hogs land on host 1.
pub const OVERLOAD_AT_S: u64 = 100;

/// The app every fleet runs on host 1 (the `bench_scale` app, with
/// `trees` trees).
pub fn app_config(trees: u32, seed: u64) -> TestTreeConfig {
    TestTreeConfig {
        trees,
        levels: 13,
        node_cost_build: 2e-3,
        node_cost_sort: 3e-3,
        node_cost_sum: 1e-3,
        chunk_nodes: 1024,
        rss_kb: 24_576,
        seed,
    }
}

fn hosts(n: usize) -> Vec<HostConfig> {
    (0..=n)
        .map(|i| HostConfig::named(format!("ws{i}")))
        .collect()
}

fn freq() -> MonitoringFrequency {
    MonitoringFrequency {
        free: SimDuration::from_secs(10),
        busy: SimDuration::from_secs(10),
        overloaded: SimDuration::from_secs(5),
    }
}

fn monitor(build: &Build, registry: Pid, commander: Option<Pid>, schemas: &SchemaBook) -> Monitor {
    Monitor::new(
        MonitorConfig {
            registry,
            state_source: StateSource::Policy(Policy::paper_policy2()),
            freq: freq(),
            ambient: Ambient::default(),
            overload_confirm: SimDuration::from_secs(60),
            adaptive: None,
            push: true,
            commander,
        },
        schemas.clone(),
    )
    .with_obs(build.obs.clone())
}

fn registry(build: &Build, cfg: RegistryConfig, schemas: &SchemaBook) -> Box<dyn Program> {
    let mut cfg = cfg;
    cfg.obs = build.obs.clone();
    build.program(
        Box::new(RegistryScheduler::new(
            cfg,
            schemas.clone(),
            ReschedHooks::new(),
        )),
        Layer::Registry,
    )
}

/// Spawn the app on host 1, run to the overload, land the hogs, run out
/// the horizon and account the outcome.
fn run_app_and_overload(
    mut sim: Sim,
    clock: Clock,
    build: &Build,
    schemas: &SchemaBook,
    size: FleetSize,
    seed: u64,
) -> DesRun {
    let app = TestTree::new(app_config(size.trees, seed));
    let hpcm = HpcmHooks::new();
    schemas.put(MigratableApp::schema(&app));
    let submitted = sim.now();
    build.spawn_app(&mut sim, HostId(1), app, None, &hpcm);

    let overload = SimTime::from_secs(OVERLOAD_AT_S);
    sim.run_until(overload);
    for _ in 0..2 {
        sim.spawn(
            HostId(1),
            build.program(Box::new(Spinner::default()), Layer::Ambient),
            SpawnOpts::named("hog"),
        );
    }
    sim.run_until(SimTime::from_secs(size.horizon_s));

    let mut run = clock.finish(&sim, build, size.horizon_s);
    hpcm_outcome(&mut run, &hpcm, &[(HostId(1), overload)]);
    check_jobs(
        &mut run,
        &hpcm,
        "test_tree",
        &[(
            submitted,
            TestTree::expected_sum(&app_config(size.trees, seed)),
        )],
    );
    if run.migrations == 0 {
        run.failures
            .push("the overload never migrated the app".into());
    }
    run
}

/// `fleet_steady`: the `bench_scale` flat scenario. One registry; each
/// workstation boots its monitor, commander and ambient daemons staggered
/// across the first heartbeat interval; two hogs overload host 1 at
/// t = 100 s and its app migrates.
pub fn steady(size: FleetSize, seed: u64, build: &Build) -> DesRun {
    let n = size.hosts;
    let mut clock = Clock::start(build);
    let mut sim = Sim::new(
        hosts(n),
        SimConfig {
            seed,
            trace: build.kernel_trace,
            ..SimConfig::default()
        },
    );
    let schemas = SchemaBook::new();
    let mut cfg = RegistryConfig::new(Policy::paper_policy2());
    cfg.name = "registry@h0".to_string();
    let reg = sim.spawn(
        HostId(0),
        registry(build, cfg, &schemas),
        SpawnOpts::named("ars_registry"),
    );
    // Everything each workstation boots, built before the clock starts:
    // monitor, commander, owner activity and two polling services.
    let boots: Vec<[(Box<dyn Program>, &str); 5]> = (1..=n)
        .map(|_| {
            [
                (
                    build.program(
                        Box::new(monitor(build, reg, None, &schemas)),
                        Layer::Monitor,
                    ),
                    "ars_monitor",
                ),
                (
                    build.program(
                        Box::new(Commander::new(reg).with_obs(build.obs.clone())),
                        Layer::Commander,
                    ),
                    "ars_commander",
                ),
                (
                    build.program(Box::new(DaemonNoise::new(0.1, 1.0)), Layer::Ambient),
                    "daemons",
                ),
                (
                    build.program(Box::new(PollDaemon::new(0.5)), Layer::Ambient),
                    "session",
                ),
                (
                    build.program(Box::new(PollDaemon::new(1.0)), Layer::Ambient),
                    "netsvc",
                ),
            ]
        })
        .collect();
    clock.setup_done();
    if build.setup_only {
        return clock.setup_only();
    }

    let stagger = SimDuration::from_secs(10) / n as u64;
    for (i, boot) in boots.into_iter().enumerate() {
        sim.run_until(SimTime::ZERO + stagger * i as u64);
        for (program, name) in boot {
            sim.spawn(HostId(i as u32 + 1), program, SpawnOpts::named(name));
        }
    }
    run_app_and_overload(sim, clock, build, &schemas, size, seed)
}

/// `fleet_tree`: the same fleet and overload under a `deploy_tree`-shaped
/// registry tree (root + `size.leaves` leaves on host 0, workstations
/// assigned round-robin), every process spawned at t = 0 — the lockstep
/// boot users get from the public deploy entry points.
pub fn tree(size: FleetSize, seed: u64, build: &Build) -> DesRun {
    let n = size.hosts;
    let mut clock = Clock::start(build);
    let mut sim = Sim::new(
        hosts(n),
        SimConfig {
            seed,
            trace: build.kernel_trace,
            ..SimConfig::default()
        },
    );
    let schemas = if build.public {
        let monitored: Vec<HostId> = (1..=n).map(|i| HostId(i as u32)).collect();
        let cfg = DeployConfig {
            freq: freq(),
            overload_confirm: SimDuration::from_secs(60),
            ..DeployConfig::default()
        };
        deploy_tree(&mut sim, HostId(0), &monitored, &[size.leaves], cfg).schemas
    } else {
        build_tree(&mut sim, n, size.leaves, build)
    };
    for i in 1..=n {
        let host = HostId(i as u32);
        sim.spawn(
            host,
            build.program(Box::new(DaemonNoise::new(0.1, 1.0)), Layer::Ambient),
            SpawnOpts::named("daemons"),
        );
        sim.spawn(
            host,
            build.program(Box::new(PollDaemon::new(0.5)), Layer::Ambient),
            SpawnOpts::named("session"),
        );
    }
    clock.setup_done();
    if build.setup_only {
        return clock.setup_only();
    }
    run_app_and_overload(sim, clock, build, &schemas, size, seed)
}

/// What `deploy_tree(.., &[leaves], ..)` spawns, in the same order, with
/// every program wrapped.
fn build_tree(sim: &mut Sim, n: usize, leaves: usize, build: &Build) -> SchemaBook {
    let schemas = SchemaBook::new();
    let lease = SimDuration::from_secs(35);
    let mut root_cfg = RegistryConfig::new(Policy::paper_policy2());
    root_cfg.name = "root@h0".to_string();
    root_cfg.lease = lease;
    let root = sim.spawn(
        HostId(0),
        registry(build, root_cfg, &schemas),
        SpawnOpts::named("ars_registry_root"),
    );
    let leaves: Vec<Pid> = (0..leaves)
        .map(|i| {
            let mut cfg = RegistryConfig::new(Policy::paper_policy2());
            cfg.name = format!("domain{i}@h0");
            cfg.lease = lease;
            cfg.parent = Some(Endpoint::from(root));
            sim.spawn(
                HostId(0),
                registry(build, cfg, &schemas),
                SpawnOpts::named(format!("ars_registry_d{i}")),
            )
        })
        .collect();
    for i in 0..n {
        let host = HostId(i as u32 + 1);
        let leaf = leaves[i % leaves.len()];
        let commander = sim.spawn(
            host,
            build.program(
                Box::new(Commander::new(leaf).with_obs(build.obs.clone())),
                Layer::Commander,
            ),
            SpawnOpts::named("ars_commander"),
        );
        sim.spawn(
            host,
            build.program(
                Box::new(monitor(build, leaf, Some(commander), &schemas)),
                Layer::Monitor,
            ),
            SpawnOpts::named("ars_monitor"),
        );
    }
    schemas
}
