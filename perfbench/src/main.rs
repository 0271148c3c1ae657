//! The repository benchmark: three workloads that each stress a different
//! part of the stack, end-to-end metrics from untraced runs, per-layer
//! metrics from a traced run, and the serializability oracle on every run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tcp_read_open --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Human-readable detail (verdicts, regime flags) goes to standard error.
//! See `perfbench/README.md` for the workloads and the metric map.

mod closed;
mod cpu;
mod oracle;
mod sim;
mod tcp;
mod trace;

use std::time::Instant;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
/// Keep in step with `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("hi_prio_p50_us", "us"),
    ("committed_per_s", "1/s"),
    ("serializable_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// the workload does not exercise reports 0. Keep in step with
/// `BENCHMARK.json`.
const PER_LAYER: &[(&str, &str)] = &[
    ("run.latency_p99_us", "us"),
    ("run.hi_prio_p99_us", "us"),
    ("net.edge_p50_us", "us"),
    ("net.edge_p99_us", "us"),
    ("net.submit_call_ns", "ns"),
    ("net.poll_call_ns", "ns"),
    ("net.responses_per_job", "count"),
    ("front.queue_p50_us", "us"),
    ("front.queue_p99_us", "us"),
    ("admission.rejected_ratio", "ratio"),
    ("admission.shed_ratio", "ratio"),
    ("rt.service_p50_us", "us"),
    ("rt.service_p99_us", "us"),
    ("rt.block_events_per_job", "count"),
    ("rt.multi_lower_blocker_jobs", "count"),
    ("rt.restarts_per_job", "count"),
    ("rt.deadlocks_resolved", "count"),
    ("rt.park_timeout_wakeups", "count"),
    ("rt.lock_transitions_per_job", "count"),
    ("rt.overlap_ratio", "ratio"),
    ("core.request_ns", "ns"),
    ("core.request_p99_ns", "ns"),
    ("core.hook_ns", "ns"),
    ("core.requests_per_ktick", "count"),
    ("core.grant_ratio", "ratio"),
    ("sim.ticks_per_s", "1/s"),
    ("sim.engine_self_ns_per_tick", "ns"),
    ("sim.deadline_misses", "count"),
    ("sim.max_blocking_ticks", "count"),
    ("storage.history_events_per_job", "count"),
    ("storage.oracle_ms", "ms"),
    ("run.fail_ratio", "ratio"),
    ("loadgen.late_p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

/// Seed of every workload's transaction set. The set *is* the workload:
/// with 6 to 20 templates, sets drawn from different seeds differ in load
/// and contention so much (simulator speed varied 3x across five seeds)
/// that no run-to-run bound could hold. `--seed` draws everything random
/// on top of the fixed set: arrival times, job orders, release phasing.
/// Seed 1 is the repository's customary first seed; it was not chosen by
/// outcome.
pub const SET_SEED: u64 = 1;

/// Command-line arguments. Every run is fully determined by them and
/// [`SET_SEED`].
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run hands back to `main`.
pub struct Outcome {
    /// Every check passed, or its failures are attributed to jobs and
    /// counted in `serializable_ratio` and `run.fail_ratio`.
    pub correct: bool,
    /// Operations: requests, jobs or simulated jobs.
    pub attempted: u64,
    /// Operations without a committed outcome: shed, rejected or
    /// unanswered requests, or simulated jobs of a repetition that did
    /// not reproduce its phasing.
    pub failed: u64,
    /// `(name, value)` pairs from [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nanoseconds since `t0`, saturating.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Safe ratio: 0 when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage() -> ! {
    eprintln!(
        "usage: rtdb-perfbench --workload <tcp_read_open|contended_closed|sim_standard> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Args) {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(seed), Some(seconds), Some(trace)) => (
            w,
            Args {
                seed,
                seconds,
                trace,
            },
        ),
        _ => usage(),
    }
}

/// Render one metric value as a JSON number (non-finite values, which no
/// metric should produce, become 0 rather than invalid JSON).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let (workload, args) = parse_args();
    let outcome = match workload.as_str() {
        "tcp_read_open" => tcp::run(&args),
        "contended_closed" => closed::run(&args),
        "sim_standard" => sim::run(&args),
        _ => usage(),
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in &outcome.metrics {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "workload reported undeclared metric {name}"
        );
    }
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = outcome.metrics.iter().find(|(n, _)| n == name).map(|m| m.1);
        let value = match value {
            Some(v) => v,
            // A per-layer metric of a layer this workload never calls.
            None if args.trace => 0.0,
            None => panic!("workload did not report end-to-end metric {name}"),
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};
    use rtdb_util::json::Json;

    /// The metric tables and `BENCHMARK.json` name the same metrics, in
    /// the same order, with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, table.to_vec(), "{key}");
        }
    }
}
