//! `contended_closed`: the threaded runtime's closed loop (`rt::run`),
//! PCP-DA with 2 workers on `contended_workload(seed)` — 95% of accesses
//! to a 3-item hotspot, half of them writes.
//!
//! Blocking, priority inheritance, park/wake and commit do almost all the
//! work; the TCP edge and admission front-end do none. The run is a series
//! of fixed-size batches, each one `rt::run` call, measured back to back;
//! each batch's history goes through the oracle outside the timed region.
//!
//! At `tick_ns = 0` two workers flip between a regime where they never
//! overlap and one where they block about once every four jobs, so
//! throughput is bimodal. A small busy-work tick keeps both workers inside
//! a job at the same time; every batch records whether they overlapped.

use crate::cpu;
use crate::trace::{Clock, Spans};
use crate::{median, peak_rss_mb, percentile, ratio, Args, Outcome};
use rtdb::prelude::*;
use rtdb::rt;
use std::time::{Duration, Instant};

const THREADS: usize = 2;
/// Busy-work per tick, ns: small next to the lock manager's own cost, but
/// large enough that both workers are always inside a job.
const TICK_NS: u64 = 500;
/// Jobs per `rt::run` call.
const BATCH: usize = 20_000;

fn config() -> RtConfig {
    RtConfig::new(ProtocolKind::PcpDa)
        .with_threads(THREADS)
        .with_tick_ns(TICK_NS)
}

/// Runtime-layer accounting over one or more `RtResult`s; shared with the
/// TCP workload, whose server returns the same result.
#[derive(Default)]
pub struct RtTally {
    pub jobs: u64,
    /// Jobs the oracle blamed (see [`crate::oracle`]).
    pub blamed: u64,
    pub latency_ns: Vec<u64>,
    pub hi_latency_ns: Vec<u64>,
    pub queue_ns: Vec<u64>,
    pub service_ns: Vec<u64>,
    block_events: u64,
    multi_lower: u64,
    restarts: u64,
    deadlocks: u64,
    park_timeouts: u64,
    lock_transitions: u64,
    history_events: u64,
    pub overlapped: u64,
    /// Runs in which no two jobs executed at the same time.
    pub solo_runs: u64,
    pub runs: u64,
    pub oracle: Duration,
    /// Some oracle violation could not be attributed to jobs.
    pub unattributed: bool,
}

impl RtTally {
    /// Account one run and its oracle verdict.
    pub fn add(
        &mut self,
        set: &TransactionSet,
        result: &RtResult,
        verdict: &crate::oracle::Verdict,
    ) {
        let top = set.priority_of(set.by_descending_priority()[0]);
        self.unattributed |= !verdict.attributed();
        self.oracle += verdict.elapsed;
        self.runs += 1;
        self.jobs += result.jobs.len() as u64;
        for j in &result.jobs {
            self.blamed += u64::from(verdict.blamed.contains(&j.id));
            self.latency_ns.push(j.latency_ns);
            self.queue_ns.push(j.queue_ns);
            self.service_ns.push(j.service_ns);
            if j.priority == top {
                self.hi_latency_ns.push(j.latency_ns);
            }
            self.block_events += u64::from(j.block_events);
            self.multi_lower += u64::from(j.lower_blockers.len() > 1);
            self.restarts += u64::from(j.restarts);
        }
        self.deadlocks += result.deadlocks_resolved;
        self.park_timeouts += result.park_timeout_wakeups;
        self.lock_transitions += result.lock_transitions;
        self.history_events += result.history.events().len() as u64;
        let overlapped = overlapped_jobs(&result.jobs);
        self.overlapped += overlapped;
        self.solo_runs += u64::from(overlapped == 0);
    }

    /// Sort the sample vectors for [`percentile`].
    pub fn finish(&mut self) {
        self.latency_ns.sort_unstable();
        self.hi_latency_ns.sort_unstable();
        self.queue_ns.sort_unstable();
        self.service_ns.sort_unstable();
    }

    pub fn blocks_per_job(&self) -> f64 {
        ratio(self.block_events as f64, self.jobs as f64)
    }

    /// The `rt.*` and `storage.*` per-layer metrics.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        let jobs = self.jobs as f64;
        vec![
            (
                "rt.service_p50_us",
                percentile(&self.service_ns, 0.50) as f64 / 1e3,
            ),
            (
                "rt.service_p99_us",
                percentile(&self.service_ns, 0.99) as f64 / 1e3,
            ),
            ("rt.block_events_per_job", self.blocks_per_job()),
            ("rt.multi_lower_blocker_jobs", self.multi_lower as f64),
            ("rt.restarts_per_job", ratio(self.restarts as f64, jobs)),
            ("rt.deadlocks_resolved", self.deadlocks as f64),
            ("rt.park_timeout_wakeups", self.park_timeouts as f64),
            (
                "rt.lock_transitions_per_job",
                ratio(self.lock_transitions as f64, jobs),
            ),
            ("rt.overlap_ratio", ratio(self.overlapped as f64, jobs)),
            (
                "storage.history_events_per_job",
                ratio(self.history_events as f64, jobs),
            ),
            ("storage.oracle_ms", self.oracle.as_secs_f64() * 1e3),
        ]
    }
}

/// Jobs whose execution (start to commit) began while an earlier-started
/// job of the same run was still executing.
fn overlapped_jobs(jobs: &[rt::runtime::JobReport]) -> u64 {
    let mut spans: Vec<(u64, u64)> = jobs
        .iter()
        .map(|j| (j.commit_ns - j.service_ns, j.commit_ns))
        .collect();
    spans.sort_unstable();
    let mut max_end = 0;
    let mut count = 0;
    for (start, end) in spans {
        count += u64::from(start < max_end);
        max_end = max_end.max(end);
    }
    count
}

/// Most per-job samples one window keeps. Reserved up front: untouched
/// capacity is not resident, so peak RSS grows with the samples taken
/// instead of jumping at each doubling of a growing vector.
const MAX_SAMPLES: usize = 1 << 23;

/// A measured window: back-to-back batches and their wall time.
#[derive(Default)]
struct Window {
    wall: Duration,
    /// Per batch: workload build and job list, seconds at the reference
    /// speed of [`crate::cpu`].
    setups: Vec<f64>,
    /// Jobs handed to `rt::run`.
    queued: u64,
    tally: RtTally,
}

impl Window {
    fn committed_per_s(&self) -> f64 {
        ratio(self.tally.jobs as f64, self.wall.as_secs_f64())
    }
}

fn measure(seed: u64, seconds: f64, first_batch: u64, mut spans: Option<&mut Spans>) -> Window {
    let mut w = Window::default();
    for v in [
        &mut w.tally.latency_ns,
        &mut w.tally.hi_latency_ns,
        &mut w.tally.queue_ns,
        &mut w.tally.service_ns,
    ] {
        v.reserve_exact(MAX_SAMPLES);
    }
    let start = Instant::now();
    while w.tally.runs == 0 || start.elapsed().as_secs_f64() < seconds {
        let batch = first_batch + w.tally.runs;
        let reference_ns = cpu::reference_kernel();
        let t = cpu::thread_ns();
        let set = rtdb_bench::contended_workload(crate::SET_SEED);
        let queue = job_list(
            &set,
            BATCH,
            seed.wrapping_mul(1_000_003).wrapping_add(batch),
        );
        w.setups
            .push(cpu::at_reference(cpu::thread_ns() - t, reference_ns) / 1e9);
        w.queued += queue.len() as u64;
        let run_start = spans.as_ref().map_or(0, |s| s.now());
        let t = Instant::now();
        let result = rt::run(&set, &queue, config());
        w.wall += t.elapsed();

        // Outside the timed region from here on.
        if let Some(spans) = spans.as_deref_mut() {
            spans.record(batch, "rt.run", "", Clock::Local, run_start, spans.now());
            for j in &result.jobs {
                spans.record(
                    batch,
                    "rt.job",
                    "rt.run",
                    Clock::Server,
                    j.release_ns,
                    j.commit_ns,
                );
            }
        }
        let verdict = crate::oracle::check(&set, &result.history, &result.db);
        if w.tally.runs == 0 || !verdict.attributed() {
            eprintln!(
                "contended_closed: batch {batch}: oracle: {}",
                verdict.summary()
            );
        }
        w.tally.add(&set, &result, &verdict);
    }
    w.tally.finish();
    w
}

pub fn run(args: &Args) -> Outcome {
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = measure(args.seed, window, 0, None);
    let traced = args.trace.then(|| {
        let mut spans = Spans::new(Instant::now());
        let w = measure(args.seed, window, untraced.tally.runs, Some(&mut spans));
        spans.write("contended_closed", args.seed);
        w
    });

    let windows = [Some(&untraced), traced.as_ref()];
    let windows = windows.iter().flatten();
    let attempted: u64 = windows.clone().map(|w| w.queued).sum();
    let failed: u64 = attempted - windows.clone().map(|w| w.tally.jobs).sum::<u64>();
    let correct = !windows.clone().any(|w| w.tally.unattributed);
    for (name, w) in [("untraced", Some(&untraced)), ("traced", traced.as_ref())] {
        let Some(t) = w.map(|w| &w.tally) else {
            continue;
        };
        eprintln!(
            "contended_closed: {name}: {} batches of {BATCH}; {:.3} blocks/job; {:.3} of jobs overlapped another; {} batches never overlapped{}; {} of {} jobs blamed by the oracle",
            t.runs,
            t.blocks_per_job(),
            ratio(t.overlapped as f64, t.jobs as f64),
            t.solo_runs,
            if t.solo_runs > 0 { " (FLAG: workers ran alone)" } else { "" },
            t.blamed,
            t.jobs
        );
    }

    let metrics = match &traced {
        Some(t) => {
            let mut m = t.tally.layer_metrics();
            m.push((
                "run.fail_ratio",
                ratio(t.tally.blamed as f64, t.tally.jobs as f64),
            ));
            m.push((
                "run.latency_p99_us",
                percentile(&t.tally.latency_ns, 0.99) as f64 / 1e3,
            ));
            m.push((
                "run.hi_prio_p99_us",
                percentile(&t.tally.hi_latency_ns, 0.99) as f64 / 1e3,
            ));
            m.push((
                "trace.overhead_ratio",
                untraced.committed_per_s() / t.committed_per_s() - 1.0,
            ));
            m
        }
        None => {
            let mut setups = untraced.setups.clone();
            let t = &untraced.tally;
            vec![
                ("setup_s", median(&mut setups)),
                (
                    "latency_p50_us",
                    percentile(&t.latency_ns, 0.50) as f64 / 1e3,
                ),
                (
                    "hi_prio_p50_us",
                    percentile(&t.hi_latency_ns, 0.50) as f64 / 1e3,
                ),
                ("committed_per_s", untraced.committed_per_s()),
                (
                    "serializable_ratio",
                    1.0 - ratio(t.blamed as f64, t.jobs as f64),
                ),
                ("peak_rss_mb", peak_rss_mb()),
            ]
        }
    };
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}
