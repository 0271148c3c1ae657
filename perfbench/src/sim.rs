//! `sim_standard`: the deterministic simulator reproducing the paper,
//! single-threaded, PCP-DA on `standard_workload`, a long horizon
//! simulated over and over for the measured time, cycling through release
//! phasings drawn from the seed.
//!
//! Only the simulator and the protocol decisions run here: no threads,
//! sockets or admission. Every repetition of a phasing must produce the
//! identical history and metrics; any difference makes the run incorrect.
//! Repetitions are timed in thread CPU time at the reference speed of
//! [`crate::cpu`], each against its own reference-kernel run.
//! The traced run drives the engine through [`Timed`], a wrapper around
//! the public `Protocol` trait that times each protocol call.

use crate::cpu;
use crate::trace::{Clock, Spans};
use crate::{median, peak_rss_mb, percentile, ratio, Args, Outcome};
use rtdb::prelude::*;
use rtdb::sim::InstanceMetrics;
use rtdb::storage::history::Event;
use std::time::{Duration, Instant};

/// Simulated ticks per repetition: thousands of jobs, yet short enough
/// (tens of ms) for hundreds of repetitions in a run.
const HORIZON: u64 = 250_000;

fn config() -> SimConfig {
    SimConfig {
        // The default step budget is sized for short paper examples.
        max_steps: u64::MAX,
        ..SimConfig::with_horizon(HORIZON)
    }
}

/// `set` with each template's first release drawn from `[0, period)` by
/// `seed`: the same load and contention, a different interleaving.
fn phased(set: &TransactionSet, seed: u64) -> TransactionSet {
    let mut rng = rtdb_util::Rng::seed(seed);
    let mut builder = SetBuilder::new();
    for t in set.templates() {
        let offset = rng.bounded(t.period.raw());
        builder.add(t.clone().with_offset(offset));
    }
    builder
        .build_rate_monotonic()
        .expect("re-phasing keeps a valid set valid")
}

/// The deterministic outputs every repetition must reproduce exactly.
struct Reference {
    events: Vec<Event>,
    instances: Vec<InstanceMetrics>,
    final_clock: u64,
}

impl Reference {
    fn of(run: &RunResult) -> Self {
        Reference {
            events: run.history.events().to_vec(),
            instances: run.metrics.instances().cloned().collect(),
            final_clock: run.final_clock.raw(),
        }
    }

    fn matches(&self, run: &RunResult) -> bool {
        self.final_clock == run.final_clock.raw()
            && self.events == run.history.events()
            && self.instances.iter().eq(run.metrics.instances())
    }
}

/// Release phasings one run cycles through, each drawn from the seed.
/// Response times depend on the phasing; pooling several keeps one
/// seed's luck out of the latency metrics.
const PHASINGS: usize = 8;

/// One timed repetition.
struct Rep {
    phasing: usize,
    /// Workload build and `Engine::new`, thread CPU ns.
    setup_ns: u64,
    /// The engine run, thread CPU ns and wall time.
    run_ns: u64,
    wall: Duration,
    /// The reference kernel run next to this repetition, CPU ns.
    reference_ns: u64,
    ticks: u64,
    committed: u64,
    /// The run did not reproduce its phasing's first run.
    diverged: bool,
}

impl Rep {
    /// Engine time per simulated tick at the reference speed, ns.
    fn ns_per_tick(&self) -> f64 {
        cpu::at_reference(self.run_ns, self.reference_ns) / self.ticks as f64
    }
}

/// Median over repetitions of a per-repetition quantity.
fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&mut reps.iter().map(f).collect::<Vec<_>>())
}

/// Build the set of `phasing` and an engine over it; returns the thread
/// CPU time taken and the set.
fn set_up(seed: u64, phasing: usize) -> (u64, TransactionSet) {
    let start = cpu::thread_ns();
    let phase_seed = seed
        .wrapping_mul(PHASINGS as u64)
        .wrapping_add(phasing as u64);
    let set = phased(&rtdb_bench::standard_workload(crate::SET_SEED), phase_seed);
    std::hint::black_box(Engine::new(&set, config()));
    (cpu::thread_ns() - start, set)
}

/// The first run of each phasing, checked by the oracle; later runs of
/// the phasing must reproduce it.
struct Checked {
    reference: Reference,
    verdict: crate::oracle::Verdict,
    /// Jobs the oracle blamed.
    blamed: u64,
    /// Jobs that missed their deadline or were blamed.
    failed: u64,
}

/// Run repetitions for `seconds`, cycling through the phasings.
fn repeat(
    seed: u64,
    seconds: f64,
    checked: &mut [Option<Checked>],
    mut run_one: impl FnMut(&TransactionSet, u64) -> RunResult,
) -> Vec<Rep> {
    let mut reps = Vec::new();
    let start = Instant::now();
    while reps.len() < PHASINGS || start.elapsed().as_secs_f64() < seconds {
        let phasing = reps.len() % PHASINGS;
        // The reference kernel runs before even and after odd
        // repetitions, so a drift within a pair cancels on average.
        let before = reps.len() % 2 == 0;
        let reference_first = if before { cpu::reference_kernel() } else { 0 };
        let (setup_ns, set) = set_up(seed, phasing);
        let t = Instant::now();
        let c = cpu::thread_ns();
        let run = run_one(&set, reps.len() as u64);
        let run_ns = cpu::thread_ns() - c;
        let wall = t.elapsed();
        let reference_ns = if before {
            reference_first
        } else {
            cpu::reference_kernel()
        };
        let diverged = match &checked[phasing] {
            Some(c) => !c.reference.matches(&run),
            None => {
                let verdict = crate::oracle::check(&set, &run.history, &run.db);
                if !verdict.violations.is_empty() || phasing == 0 {
                    eprintln!(
                        "sim_standard: phasing {phasing}: oracle: {}",
                        verdict.summary()
                    );
                }
                let reference = Reference::of(&run);
                let count = |f: &dyn Fn(&InstanceMetrics) -> bool| {
                    reference.instances.iter().filter(|m| f(m)).count() as u64
                };
                let blamed = count(&|m| verdict.blamed.contains(&m.id));
                let failed = count(&|m| !m.met_deadline() || verdict.blamed.contains(&m.id));
                checked[phasing] = Some(Checked {
                    reference,
                    verdict,
                    blamed,
                    failed,
                });
                false
            }
        };
        if diverged {
            eprintln!("sim_standard: a repetition of phasing {phasing} differs from its first");
        }
        reps.push(Rep {
            phasing,
            setup_ns,
            run_ns,
            wall,
            reference_ns,
            ticks: run.final_clock.raw(),
            committed: run.history.committed() as u64,
            diverged,
        });
    }
    reps
}

pub fn run(args: &Args) -> Outcome {
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut checked: Vec<Option<Checked>> = (0..PHASINGS).map(|_| None).collect();
    let engine_run = |set: &TransactionSet, _: u64| {
        Engine::new(set, config())
            .run_kind(ProtocolKind::PcpDa)
            .expect("PCP-DA never deadlocks")
    };
    let reps = repeat(args.seed, window, &mut checked, engine_run);

    let mut core = CoreStats::default();
    let mut spans = Spans::new(Instant::now());
    let traced = if args.trace {
        let traced_run = |set: &TransactionSet, id: u64| {
            let start = spans.now();
            let mut timed = Timed {
                inner: PcpDa::new(),
                spans: &mut spans,
                run: id,
                stats: &mut core,
            };
            let run = Engine::new(set, config())
                .run(&mut timed)
                .expect("PCP-DA never deadlocks");
            spans.record(id, "sim.run", "", Clock::Local, start, spans.now());
            run
        };
        let traced = repeat(args.seed, window, &mut checked, traced_run);
        spans.write("sim_standard", args.seed);
        traced
    } else {
        Vec::new()
    };

    let checked: Vec<Checked> = checked.into_iter().flatten().collect();
    let all = || reps.iter().chain(&traced);
    let jobs = |r: &Rep| checked[r.phasing].reference.instances.len() as u64;
    let attempted: u64 = all().map(jobs).sum();
    let failed: u64 = all().filter(|r| r.diverged).map(jobs).sum();
    let correct = failed == 0 && checked.iter().all(|c| c.verdict.attributed());
    let blamed: u64 = all().map(|r| checked[r.phasing].blamed).sum();
    let instances = || checked.iter().flat_map(|c| &c.reference.instances);
    // Re-phasing keeps priorities, so the unphased set names the top band.
    let top = rtdb_bench::standard_workload(crate::SET_SEED).by_descending_priority()[0];
    let responses = |top_only: bool| {
        let mut out: Vec<u64> = instances()
            .filter(|m| !top_only || m.id.txn == top)
            .filter_map(|m| m.response())
            .map(|d| d.raw())
            .collect();
        out.sort_unstable();
        out
    };
    let (all_responses, hi_responses) = (responses(false), responses(true));
    let ns_per_tick = median_of(&reps, Rep::ns_per_tick);

    let metrics = if args.trace {
        let traced_ns_per_tick = median_of(&traced, Rep::ns_per_tick);
        let wall_ns: f64 = traced.iter().map(|r| r.wall.as_nanos() as f64).sum();
        let ticks = traced.iter().map(|r| r.ticks).sum::<u64>() as f64;
        let in_core = (core.request_ns_total + core.hook_ns_total) as f64;
        core.request_ns.sort_unstable();
        let requests = core.request_ns.len() as f64;
        let events: usize = checked.iter().map(|c| c.reference.events.len()).sum();
        let committed = instances().filter(|m| m.completion.is_some()).count();
        let oracle: Duration = checked.iter().map(|c| c.verdict.elapsed).sum();
        let run_failed: u64 = all().map(|r| checked[r.phasing].failed).sum();
        vec![
            (
                "run.latency_p99_us",
                percentile(&all_responses, 0.99) as f64 * traced_ns_per_tick / 1e3,
            ),
            (
                "run.hi_prio_p99_us",
                percentile(&hi_responses, 0.99) as f64 * traced_ns_per_tick / 1e3,
            ),
            (
                "core.request_ns",
                ratio(core.request_ns_total as f64, requests),
            ),
            (
                "core.request_p99_ns",
                percentile(&core.request_ns, 0.99) as f64,
            ),
            (
                "core.hook_ns",
                ratio(core.hook_ns_total as f64, core.hooks as f64),
            ),
            ("core.requests_per_ktick", ratio(requests * 1000.0, ticks)),
            ("core.grant_ratio", ratio(core.grants as f64, requests)),
            ("sim.ticks_per_s", 1e9 / ns_per_tick),
            (
                "sim.engine_self_ns_per_tick",
                ratio(wall_ns - in_core, ticks),
            ),
            (
                "sim.deadline_misses",
                instances().filter(|m| !m.met_deadline()).count() as f64,
            ),
            (
                "sim.max_blocking_ticks",
                instances().map(|m| m.blocking.raw()).max().unwrap_or(0) as f64,
            ),
            (
                "storage.history_events_per_job",
                ratio(events as f64, committed as f64),
            ),
            ("storage.oracle_ms", oracle.as_secs_f64() * 1e3),
            ("run.fail_ratio", ratio(run_failed as f64, attempted as f64)),
            (
                "trace.overhead_ratio",
                traced_ns_per_tick / ns_per_tick - 1.0,
            ),
        ]
    } else {
        let us_per_tick = ns_per_tick / 1e3;
        vec![
            (
                "setup_s",
                median_of(&reps, |r| {
                    cpu::at_reference(r.setup_ns, r.reference_ns) / 1e9
                }),
            ),
            (
                "latency_p50_us",
                percentile(&all_responses, 0.50) as f64 * us_per_tick,
            ),
            (
                "hi_prio_p50_us",
                percentile(&hi_responses, 0.50) as f64 * us_per_tick,
            ),
            (
                "committed_per_s",
                median_of(&reps, |r| {
                    r.committed as f64 * 1e9 / cpu::at_reference(r.run_ns, r.reference_ns)
                }),
            ),
            (
                "serializable_ratio",
                1.0 - ratio(blamed as f64, attempted as f64),
            ),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    };
    eprintln!(
        "sim_standard: {} untraced + {} traced repetitions of {HORIZON} ticks over {PHASINGS} phasings; \
         median {:.1} ns/tick at reference speed, reference kernel median {:.2} ms; \
         {blamed} of {attempted} jobs blamed by the oracle",
        reps.len(),
        traced.len(),
        ns_per_tick,
        median_of(&reps, |r| r.reference_ns as f64) / 1e6,
    );
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

/// Protocol-call accounting of the traced run.
#[derive(Default)]
struct CoreStats {
    /// Duration of every `request` call, ns.
    request_ns: Vec<u64>,
    request_ns_total: u64,
    grants: u64,
    hooks: u64,
    hook_ns_total: u64,
}

/// Times each decision (`request`) and each state hook (`on_grant`,
/// `on_commit`) of the wrapped protocol and records a span for it; every
/// other call is forwarded untimed.
struct Timed<'a, P> {
    inner: P,
    spans: &'a mut Spans,
    run: u64,
    stats: &'a mut CoreStats,
}

impl<P> Timed<'_, P> {
    fn hook(&mut self, name: &'static str, start: u64) {
        let end = self.spans.now();
        self.stats.hooks += 1;
        self.stats.hook_ns_total += end - start;
        self.spans
            .record(self.run, name, "sim.run", Clock::Local, start, end);
    }
}

impl<V: EngineView + ?Sized, P: ProtocolFor<V>> ProtocolFor<V> for Timed<'_, P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        let start = self.spans.now();
        let decision = self.inner.request(view, req);
        let end = self.spans.now();
        self.stats.request_ns.push(end - start);
        self.stats.request_ns_total += end - start;
        self.stats.grants += u64::from(decision == Decision::Grant);
        self.spans.record(
            self.run,
            "core.request",
            "sim.run",
            Clock::Local,
            start,
            end,
        );
        decision
    }

    fn on_grant(&mut self, view: &V, req: LockRequest) {
        let start = self.spans.now();
        self.inner.on_grant(view, req);
        self.hook("core.on_grant", start);
    }

    fn on_commit(&mut self, view: &V, who: InstanceId) {
        let start = self.spans.now();
        self.inner.on_commit(view, who);
        self.hook("core.on_commit", start);
    }

    fn on_abort(&mut self, view: &V, who: InstanceId) {
        self.inner.on_abort(view, who)
    }

    fn early_releases(
        &mut self,
        view: &V,
        who: InstanceId,
        completed_step: usize,
    ) -> Vec<(ItemId, LockMode)> {
        self.inner.early_releases(view, who, completed_step)
    }

    fn retires(&mut self, view: &V, who: InstanceId, completed_step: usize) -> Vec<ItemId> {
        self.inner.retires(view, who, completed_step)
    }

    fn update_model(&self) -> rtdb::cc::UpdateModel {
        self.inner.update_model()
    }

    fn lock_exempt(&self, mode: rtdb::cc::TxnMode) -> bool {
        self.inner.lock_exempt(mode)
    }

    fn system_ceiling(&self, view: &V) -> Ceiling {
        self.inner.system_ceiling(view)
    }

    fn may_abort(&self) -> bool {
        self.inner.may_abort()
    }

    fn may_deadlock(&self) -> bool {
        self.inner.may_deadlock()
    }

    fn commit_victims(&mut self, view: &V, who: InstanceId) -> Vec<InstanceId> {
        self.inner.commit_victims(view, who)
    }
}
