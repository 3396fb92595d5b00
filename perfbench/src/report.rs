//! Metric tables, statistics, process stats from `/proc` and the result
//! line.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("react_s", "s"),
    ("jobs_per_h", "1/h"),
    ("turnaround_s", "s"),
    ("hb_p50_ms", "ms"),
    ("hb_p99_ms", "ms"),
    ("hb_max_per_s", "1/s"),
];

/// Per-layer metrics (traced runs), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.residual_s", "s"),
    ("sim.residual_ns_per_event", "ns"),
    ("simnet.registry_rx_mb", "MB"),
    ("simnet.registry_nic_util", "frac"),
    ("core.monitor.busy_s", "s"),
    ("core.monitor.wakes", "count"),
    ("core.registry.busy_s", "s"),
    ("core.registry.wakes", "count"),
    ("core.commander.busy_s", "s"),
    ("core.commander.wakes", "count"),
    ("apps.ambient.wakes", "count"),
    ("apps.step_s", "s"),
    ("apps.steps", "count"),
    ("hpcm.save_s", "s"),
    ("hpcm.saves", "count"),
    ("hpcm.restore_s", "s"),
    ("hpcm.restores", "count"),
    ("hpcm.join_save_s", "s"),
    ("hpcm.shell_self_s", "s"),
    ("core.decisions", "count"),
    ("core.commands_sent", "count"),
    ("core.candidates_rejected", "count"),
    ("core.first_fit_scan_len_mean", "count"),
    ("core.resize_commands", "count"),
    ("rules.rules_fired", "count"),
    ("hpcm.migrations_committed", "count"),
    ("hpcm.migrations_aborted", "count"),
    ("mpisim.redistribution_mb", "MB"),
    ("core.live.server_cpu_s", "s"),
    ("core.live.server_busy_frac", "frac"),
    ("core.live.client_cpu_s", "s"),
    ("core.live.gen_lag_ms", "ms"),
    ("xmlwire.client_encode_s", "s"),
    ("xmlwire.client_decode_s", "s"),
    ("xmlwire.server_decode_s", "s"),
    ("bench.trace_overhead_frac", "frac"),
];

/// Named metric values of one run.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    /// Every metric of `table` at 0: what a workload reports for the
    /// layers it does not exercise.
    pub fn zeroed(table: &[(&'static str, &str)]) -> Metrics {
        Metrics(table.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// Set one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The `metrics` object of the result line, in table order. A metric
    /// that was not measured, or is not finite, is written as 0 and
    /// reported in the returned problems (which make the run incorrect).
    pub fn to_json(&self, table: &[(&str, &str)]) -> (String, Vec<String>) {
        let mut problems = Vec::new();
        let mut fields = Vec::new();
        for &(name, unit) in table {
            let v = match self.0.get(name) {
                Some(v) if v.is_finite() => *v,
                other => {
                    problems.push(format!("metric {name} is {other:?}"));
                    0.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_f64(v)
            ));
        }
        (format!("{{{}}}", fields.join(", ")), problems)
    }
}

/// Every digit of `v`, as JSON.
pub fn json_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The result object, printed as the last line of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `v` (0 when empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = (s.len() - 1) as f64 * p / 100.0;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Mean of `v` (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds consumed so far by thread `tid` of this process.
pub fn thread_cpu_s(tid: u32) -> f64 {
    schedstat_s(&format!("/proc/self/task/{tid}/schedstat"))
}

/// CPU seconds consumed so far by the calling thread.
pub fn own_thread_cpu_s() -> f64 {
    schedstat_s("/proc/thread-self/schedstat")
}

/// The run time (first field, nanoseconds) of a `schedstat` file, in
/// seconds; 0 where the file cannot be read.
fn schedstat_s(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Thread ids of this process.
pub fn thread_ids() -> Vec<u32> {
    std::fs::read_dir("/proc/self/task")
        .map(|d| {
            d.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// The A/B context every result is stamped with.
pub fn context_line(runs: usize, trace_overhead_frac: Option<f64>) -> String {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let overhead = trace_overhead_frac.map_or("null".to_string(), json_f64);
    format!(
        "{{\"context\": {{\"rev\": \"{rev}\", \"nproc\": {nproc}, \"profile\": \"{profile}\", \
         \"runs\": {runs}, \"bench.trace_overhead_frac\": {overhead}}}}}"
    )
}
