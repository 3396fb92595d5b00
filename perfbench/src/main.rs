//! Benchmark entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) repeat the workload for about `--seconds`
//! and print the end-to-end metrics. Host-time metrics (`run_s`,
//! `hb_max_per_s`) come from the fastest repetitions: on a shared host,
//! other tenants slow the program by up to 2× for tens of seconds, so the
//! median of a run moves with them while the fastest repetition stays
//! near the program's own cost. A traced run (`--trace 1`) runs the
//! workload once untraced and once traced with the same seed, checks that
//! both agree on every simulated outcome, and prints the per-layer
//! metrics. The last line of stdout is the result object; the line before
//! it stamps the A/B context (git rev, nproc, build profile, run count and
//! trace overhead).

use ars_perfbench::des::{Build, DesRun};
use ars_perfbench::report::{self, mean, median, percentile, Metrics, END_TO_END, PER_LAYER};
use ars_perfbench::{churn, fanin, fleet};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up of a simulated workload is timed at least this many times per
/// run (extra set-up-only builds top up the repetitions that fit in the
/// budget).
const MIN_SETUPS: usize = 15;

/// Set-up-only builds after each repetition of a simulated workload, so
/// that the set-up samples spread over the whole run.
const SETUPS_PER_REP: usize = 3;

/// `live_fanin` repetitions per run at least (each times its own set-up).
const MIN_LIVE_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run produced, before printing.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failures: Vec<String>,
    runs: usize,
    trace_overhead_frac: Option<f64>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "fleet_steady" => run_des(&args, 1, |seed, b| fleet::steady(fleet::STEADY, seed, b)),
        "fleet_tree" => run_des(&args, 1, |seed, b| fleet::tree(fleet::TREE, seed, b)),
        "reshape_churn" => run_des(&args, churn::INPUTS, |seed, b| {
            churn::run(churn::FULL, seed, b)
        }),
        "live_fanin" => run_live(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let (metrics_json, problems) = outcome.metrics.to_json(table);
    let mut failures = outcome.failures;
    failures.extend(problems);
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let attempted = outcome.attempted.max(1);
    let failed = (failures.len() as u64).min(attempted);
    println!(
        "{}",
        report::context_line(outcome.runs, outcome.trace_overhead_frac)
    );
    println!(
        "{}",
        report::result_line(failures.is_empty(), attempted, failed, &metrics_json)
    );
    ExitCode::SUCCESS
}

/// The seed of input `i` of a run seeded with `seed`.
fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(64).wrapping_add(i as u64)
}

/// Run a simulated workload over `inputs` instances derived from the seed
/// (see the module docs for the protocol). Repetitions cycle through the
/// inputs until the time budget is spent. Simulated outcomes are medians
/// over the inputs; `run_s` is the mean over the inputs of each input's
/// fastest slices (only repetitions of one input do the same work slice
/// for slice).
fn run_des(args: &Args, inputs: usize, scenario: impl Fn(u64, &Build) -> DesRun) -> Outcome {
    if args.trace {
        let seed = input_seed(args.seed, 0);
        let plain = scenario(seed, &Build::new(false));
        let traced = scenario(seed, &Build::new(true));
        let mut failures = plain.failures.clone();
        if traced.fingerprint() != plain.fingerprint() {
            failures.push(format!(
                "traced run diverged: {} vs {}",
                traced.fingerprint(),
                plain.fingerprint()
            ));
        }
        let overhead = traced.run_s / plain.run_s - 1.0;
        return Outcome {
            metrics: des_layers(&traced, overhead),
            attempted: plain.jobs,
            failures,
            runs: 2,
            trace_overhead_frac: Some(overhead),
        };
    }

    let setup_only = |seed: u64| {
        let mut b = Build::new(false);
        b.setup_only = true;
        scenario(seed, &b).setup_s
    };
    let start = Instant::now();
    let mut reps: Vec<DesRun> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    loop {
        let seed = input_seed(args.seed, reps.len() % inputs);
        reps.push(scenario(seed, &Build::new(false)));
        setups.push(reps[reps.len() - 1].setup_s);
        setups.extend((0..SETUPS_PER_REP).map(|_| setup_only(seed)));
        let typical = median(&reps.iter().map(|r| r.setup_s + r.run_s).collect::<Vec<_>>());
        if reps.len() >= inputs && start.elapsed().as_secs_f64() + typical > args.seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.push(setup_only(input_seed(args.seed, 0)));
    }

    let mut failures = Vec::new();
    for (i, r) in reps.iter().enumerate() {
        let first = &reps[i % inputs];
        if i < inputs {
            failures.extend(r.failures.iter().cloned());
        } else if r.fingerprint() != first.fingerprint() {
            failures.push(format!(
                "replay diverged: {} vs {}",
                r.fingerprint(),
                first.fingerprint()
            ));
        }
    }
    // Each input's host time from the fastest repetition of every slice.
    let fastest: Vec<f64> = (0..inputs)
        .map(|i| fastest_slices(&reps.iter().skip(i).step_by(inputs).collect::<Vec<_>>()))
        .collect();
    let per_input =
        |f: &dyn Fn(&DesRun) -> f64| median(&reps[..inputs].iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set("run_s", mean(&fastest));
    m.set("peak_rss_mb", report::peak_rss_mb());
    m.set("react_s", per_input(&|r| mean(&r.react_s)));
    m.set(
        "jobs_per_h",
        per_input(&|r| r.turnaround_s.len() as f64 * 3600.0 / r.makespan_s),
    );
    m.set("turnaround_s", per_input(&|r| mean(&r.turnaround_s)));
    m.set(
        "hb_p50_ms",
        per_input(&|r| percentile(&r.hb_window_mean_s, 50.0) * 1e3),
    );
    m.set(
        "hb_p99_ms",
        per_input(&|r| percentile(&r.hb_window_mean_s, 99.0) * 1e3),
    );
    m.set(
        "hb_max_per_s",
        reps[..inputs].iter().map(|r| r.heartbeats).sum::<u64>() as f64
            / fastest.iter().sum::<f64>(),
    );
    Outcome {
        metrics: m,
        attempted: reps.iter().map(|r| r.jobs).sum(),
        failures,
        runs: reps.len(),
        trace_overhead_frac: None,
    }
}

/// Host seconds for the horizon of repetitions of one input, each slice
/// (see `probe::SLICE_S`) taken from the repetition that ran it fastest.
/// Every repetition does the same work in every slice, so this is the
/// horizon's cost with the slowdowns of a shared host filtered out where
/// any repetition escaped them.
fn fastest_slices(reps: &[&DesRun]) -> f64 {
    let slices = reps.iter().map(|r| r.slice_s.len()).max().unwrap_or(0);
    (0..slices)
        .map(|k| {
            reps.iter()
                .filter_map(|r| r.slice_s.get(k).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Per-layer metrics of a traced simulated run.
fn des_layers(run: &DesRun, overhead: f64) -> Metrics {
    use ars_perfbench::probe::Layer;
    let l = &run.layers;
    let obs = &run.obs;
    let residual = run.run_s - l.wrapped_s();
    let mut m = Metrics::zeroed(PER_LAYER);
    m.set("sim.events", run.events as f64);
    m.set("sim.residual_s", residual);
    m.set(
        "sim.residual_ns_per_event",
        residual * 1e9 / run.events.max(1) as f64,
    );
    m.set("simnet.registry_rx_mb", run.registry_rx_bytes / 1e6);
    m.set("simnet.registry_nic_util", run.registry_nic_util);
    for (layer, busy, calls) in [
        (Layer::Monitor, "core.monitor.busy_s", "core.monitor.wakes"),
        (
            Layer::Registry,
            "core.registry.busy_s",
            "core.registry.wakes",
        ),
        (
            Layer::Commander,
            "core.commander.busy_s",
            "core.commander.wakes",
        ),
        (Layer::AppStep, "apps.step_s", "apps.steps"),
        (Layer::Save, "hpcm.save_s", "hpcm.saves"),
        (Layer::Restore, "hpcm.restore_s", "hpcm.restores"),
    ] {
        m.set(busy, l.get(layer).busy_s);
        m.set(calls, l.get(layer).calls as f64);
    }
    m.set("apps.ambient.wakes", l.get(Layer::Ambient).calls as f64);
    m.set("hpcm.join_save_s", l.get(Layer::JoinSave).busy_s);
    m.set("hpcm.shell_self_s", l.get(Layer::Shell).busy_s);
    m.set("core.decisions", obs.counter("decisions") as f64);
    m.set("core.commands_sent", obs.counter("commands_sent") as f64);
    m.set(
        "core.candidates_rejected",
        obs.counter("candidates_rejected") as f64,
    );
    m.set(
        "core.first_fit_scan_len_mean",
        obs.histogram("first_fit_scan_len")
            .and_then(|h| h.mean())
            .unwrap_or(0.0),
    );
    m.set(
        "core.resize_commands",
        (obs.counter("resize_expand_commands") + obs.counter("resize_shrink_commands")) as f64,
    );
    m.set("rules.rules_fired", obs.counter("rules_fired") as f64);
    m.set(
        "hpcm.migrations_committed",
        obs.counter("migrations_committed") as f64,
    );
    m.set(
        "hpcm.migrations_aborted",
        obs.counter("migrations_aborted") as f64,
    );
    m.set(
        "mpisim.redistribution_mb",
        obs.histogram("redistribution_bytes").map_or(0.0, |h| h.sum) / 1e6,
    );
    m.set("bench.trace_overhead_frac", overhead);
    m
}

/// Run `live_fanin`: repetitions with derived seeds until the budget is
/// spent (untraced), or one untraced and one traced repetition.
fn run_live(args: &Args) -> Outcome {
    let seed = |i: usize| input_seed(args.seed, i);
    if args.trace {
        let plain = fanin::run(fanin::FULL, seed(0), false);
        let traced = fanin::run(fanin::FULL, seed(0), true);
        let overhead = traced.run_s / plain.run_s - 1.0;
        let mut failures = plain.failures.clone();
        failures.extend(traced.failures.iter().cloned());
        let mut m = Metrics::zeroed(PER_LAYER);
        m.set("core.live.server_cpu_s", traced.server_cpu_s);
        m.set(
            "core.live.server_busy_frac",
            traced.server_cpu_s / traced.run_s,
        );
        m.set("core.live.client_cpu_s", traced.client_cpu_s);
        m.set("core.live.gen_lag_ms", traced.gen_lag_s * 1e3);
        m.set("xmlwire.client_encode_s", traced.client_encode_s);
        m.set("xmlwire.client_decode_s", traced.client_decode_s);
        m.set("xmlwire.server_decode_s", traced.server_decode_s);
        m.set("bench.trace_overhead_frac", overhead);
        return Outcome {
            metrics: m,
            attempted: plain.attempted + traced.attempted,
            failures,
            runs: 2,
            trace_overhead_frac: Some(overhead),
        };
    }

    let start = Instant::now();
    let mut reps: Vec<fanin::FaninRun> = Vec::new();
    loop {
        reps.push(fanin::run(fanin::FULL, seed(reps.len()), false));
        let typical = median(&reps.iter().map(|r| r.setup_s + r.run_s).collect::<Vec<_>>());
        if reps.len() >= MIN_LIVE_REPS && start.elapsed().as_secs_f64() + typical > args.seconds {
            break;
        }
    }
    let per_rep =
        |f: &dyn Fn(&fanin::FaninRun) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.set("setup_s", per_rep(&|r| r.setup_s));
    m.set(
        "run_s",
        reps.iter().map(|r| r.run_s).fold(f64::INFINITY, f64::min),
    );
    m.set("peak_rss_mb", report::peak_rss_mb());
    m.set("react_s", per_rep(&|r| mean(&r.react_s)));
    m.set(
        "jobs_per_h",
        per_rep(&|r| r.turnaround_s.len() as f64 * 3600.0 / r.open_s),
    );
    m.set("turnaround_s", per_rep(&|r| mean(&r.turnaround_s)));
    m.set(
        "hb_p50_ms",
        per_rep(&|r| percentile(&r.latencies_s, 50.0) * 1e3),
    );
    m.set(
        "hb_p99_ms",
        per_rep(&|r| percentile(&r.latencies_s, 99.0) * 1e3),
    );
    m.set(
        "hb_max_per_s",
        reps.iter().map(|r| r.max_per_s).fold(0.0, f64::max),
    );
    Outcome {
        metrics: m,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failures: reps
            .iter()
            .flat_map(|r| r.failures.iter().cloned())
            .collect(),
        runs: reps.len(),
        trace_overhead_frac: None,
    }
}
