//! The benchmark's own gates, at small sizes:
//!
//! * **fidelity** — each simulated workload, built by the benchmark with
//!   its probes (untraced) and with every program wrapped and timed
//!   (traced), produces a kernel trace byte-identical to the same scenario
//!   deployed through the public entry points (`bench_scale`'s builder,
//!   `deploy_tree`, `deploy`);
//! * **smoke** — every workload runs clean at a tiny size: all checks
//!   pass and the scenario is not vacuous.

use ars_bench::scale::{heartbeat_migration, ScaleMode};
use ars_perfbench::des::{Build, DesRun};
use ars_perfbench::fleet::{self, FleetSize};
use ars_perfbench::{churn, fanin};

const SEED: u64 = 7;

/// `bench_scale`'s own flat cell, shrunk to a few hosts.
const STEADY_REF: FleetSize = FleetSize {
    hosts: 12,
    horizon_s: 900,
    leaves: 1,
    trees: 16,
};

/// The benchmark's fleet shape with few hosts.
const SMALL: FleetSize = FleetSize {
    hosts: 12,
    horizon_s: 500,
    leaves: 3,
    trees: 6,
};

fn trace(run: &DesRun) -> &[String] {
    run.trace.as_deref().expect("kernel trace recorded")
}

/// Both bench builds of a scenario must replay `reference` exactly: the
/// same kernel trace and the same number of kernel events.
fn assert_identical(
    name: &str,
    reference: &[String],
    events: u64,
    scenario: impl Fn(&Build) -> DesRun,
) {
    assert!(reference.len() > 20, "{name}: reference trace too short");
    for traced in [false, true] {
        let run = scenario(&Build::new(traced).with_kernel_trace());
        assert_eq!(
            run.events, events,
            "{name} (traced={traced}): kernel events"
        );
        let got = trace(&run);
        let first_diff = reference.iter().zip(got).position(|(a, b)| a != b);
        assert!(
            got.len() == reference.len() && first_diff.is_none(),
            "{name} (traced={traced}) diverges from the public deployment at event {first_diff:?} \
             ({} vs {} events)",
            got.len(),
            reference.len()
        );
    }
}

#[test]
fn fleet_steady_replays_bench_scale_byte_for_byte() {
    let reference = heartbeat_migration(STEADY_REF.hosts, SEED, ScaleMode::Optimized, true);
    let trace = reference.trace.expect("trace");
    assert_identical("fleet_steady", &trace, reference.events_handled, |b| {
        fleet::steady(STEADY_REF, SEED, b)
    });
}

#[test]
fn fleet_tree_replays_deploy_tree_byte_for_byte() {
    let reference = fleet::tree(SMALL, SEED, &Build::public());
    assert_identical("fleet_tree", trace(&reference), reference.events, |b| {
        fleet::tree(SMALL, SEED, b)
    });
}

#[test]
fn reshape_churn_replays_deploy_byte_for_byte() {
    let reference = churn::run(churn::TINY, SEED, &Build::public());
    assert_identical("reshape_churn", trace(&reference), reference.events, |b| {
        churn::run(churn::TINY, SEED, b)
    });
}

/// A clean, non-vacuous run whose traced twin agrees on every outcome.
fn assert_clean(name: &str, scenario: impl Fn(&Build) -> DesRun) {
    let plain = scenario(&Build::new(false));
    assert!(plain.failures.is_empty(), "{name}: {:?}", plain.failures);
    assert!(plain.jobs > 0 && plain.migrations > 0, "{name}: vacuous");
    assert!(plain.heartbeats > 0 && !plain.react_s.is_empty());
    let traced = scenario(&Build::new(true));
    assert_eq!(traced.fingerprint(), plain.fingerprint(), "{name}");
    assert!(traced.layers.wrapped_s() > 0.0, "{name}: nothing was timed");
}

#[test]
fn fleet_steady_smoke() {
    assert_clean("fleet_steady", |b| fleet::steady(SMALL, SEED, b));
}

#[test]
fn fleet_tree_smoke() {
    assert_clean("fleet_tree", |b| fleet::tree(SMALL, SEED, b));
}

#[test]
fn reshape_churn_smoke() {
    assert_clean("reshape_churn", |b| churn::run(churn::TINY, SEED, b));
}

#[test]
fn live_fanin_smoke() {
    for traced in [false, true] {
        let run = fanin::run(fanin::TINY, SEED, traced);
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        assert_eq!(run.react_s.len(), fanin::TINY.episodes);
        assert!(!run.latencies_s.is_empty() && run.max_per_s > 0.0);
        assert_eq!(traced, run.client_encode_s > 0.0);
    }
}
