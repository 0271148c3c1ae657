//! `tcp_read_open`: an open loop over loopback TCP. One generator thread
//! sends Poisson arrivals at `RATE_PER_S` over one `NetClient` connection
//! to `net::serve` (PCP-DA, 2 workers, `tick_ns = 0`), with the
//! `read_heavy_workload` mix: 95% pure readers, Zipf(0.6) item popularity.
//!
//! The TCP edge and the admission front-end do almost all the work; the
//! lock manager almost none. Each request carries an explicit wall-clock
//! deadline `DEADLINE_NS` after its release, set here rather than derived
//! from `tick_ns` (which at 0 would make every deadline equal its
//! release). Latency runs from the moment a request was *due*, so a
//! stalled generator charges its stall to the requests behind it.

use crate::closed::RtTally;
use crate::trace::{Clock, Spans};
use crate::{median, ns_since, peak_rss_mb, percentile, ratio, Args, Outcome};
use rtdb::net::{serve, NetClient, NetConfig, Request, Response};
use rtdb::prelude::*;
use rtdb_util::Rng;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Offered load. At 20k/s, 2 of 5 thirty-second runs on a 2-vCPU host
/// hit stretches where the host slowed and the server fell behind (p99 of
/// 7 and 13 ms against 2 ms); 10k/s leaves headroom for those stretches.
const RATE_PER_S: f64 = 10_000.0;
/// Wall-clock deadline of every request, ns after its release.
const DEADLINE_NS: u64 = 1_000_000;
const WORKERS: usize = 2;
/// Admission queue capacity. The default (1024) fills in a tenth of a
/// second at `RATE_PER_S`, and over TCP a full queue rejects: a host
/// stall that long would make requests fail in one run and not in the
/// next. This capacity absorbs stalls of over a minute, so a stall
/// shows as latency (and deadline misses), never as a failed request.
const QUEUE_CAPACITY: usize = 1 << 20;
/// How long to wait for the last terminal responses after the last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

fn workload() -> TransactionSet {
    rtdb_bench::read_heavy_workload(crate::SET_SEED, 0.95, 0.6)
}

fn net_config() -> NetConfig {
    let rt = RtConfig::new(ProtocolKind::PcpDa)
        .with_threads(WORKERS)
        .with_tick_ns(0);
    NetConfig::new(
        FrontConfig::new(ProtocolKind::PcpDa)
            .with_rt(rt)
            .with_capacity(QUEUE_CAPACITY),
    )
}

/// One scheduled request.
struct Arrival {
    due_ns: u64,
    txn: u32,
}

/// Poisson arrivals at `RATE_PER_S` for `seconds`, each template drawn
/// with probability proportional to 1/period, all from `seed`.
fn schedule(set: &TransactionSet, seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut cumulative = Vec::with_capacity(set.len());
    let mut total = 0.0;
    for t in set.templates() {
        total += 1.0 / t.period.raw() as f64;
        cumulative.push(total);
    }
    let mut rng = Rng::seed(seed ^ 0x7c15_7a3b_0e9d_41f5);
    let mean_gap_ns = 1e9 / RATE_PER_S;
    let end_ns = seconds * 1e9;
    let mut at = 0.0;
    let mut out = Vec::with_capacity((RATE_PER_S * seconds * 1.1) as usize);
    loop {
        at += -(1.0 - rng.f64()).ln() * mean_gap_ns;
        if at >= end_ns {
            return out;
        }
        let pick = rng.f64() * total;
        let txn = cumulative
            .partition_point(|&c| c <= pick)
            .min(set.len() - 1);
        out.push(Arrival {
            due_ns: at as u64,
            txn: txn as u32,
        });
    }
}

/// Sleep-then-spin until `t0 + due_ns`, calling `idle` while waiting (the
/// TCP generator drains responses there). Sleeps only while the wait is
/// long enough that the scheduler's wake-up slack cannot make the thread
/// late, so an idle generator does not hold a core.
fn pace_until(t0: Instant, due_ns: u64, mut idle: impl FnMut()) {
    const SLEEP_ABOVE_NS: u64 = 150_000;
    const WAKE_MARGIN_NS: u64 = 100_000;
    loop {
        let now = ns_since(t0);
        if now >= due_ns {
            return;
        }
        idle();
        let now = ns_since(t0);
        if now >= due_ns {
            return;
        }
        let wait = due_ns - now;
        if wait > SLEEP_ABOVE_NS {
            std::thread::sleep(Duration::from_nanos(wait - WAKE_MARGIN_NS));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The client's view of one request.
#[derive(Clone, Copy, Default)]
struct Seen {
    /// Terminal response received, ns since the schedule's origin.
    done_ns: Option<u64>,
    committed: Option<Committed>,
    shed: bool,
    rejected: bool,
}

#[derive(Clone, Copy)]
struct Committed {
    commit_ns: u64,
    latency_ns: u64,
    missed: bool,
}

/// Client-side call accounting: the generator's lateness and the count
/// and time of `NetClient` calls.
#[derive(Default)]
struct Calls {
    late_ns: Vec<u64>,
    responses: u64,
    submit_calls: u64,
    submit_ns: u64,
    poll_calls: u64,
    poll_ns: u64,
}

impl Calls {
    fn absorb(&mut self, other: &Calls) {
        self.late_ns.extend_from_slice(&other.late_ns);
        self.responses += other.responses;
        self.submit_calls += other.submit_calls;
        self.submit_ns += other.submit_ns;
        self.poll_calls += other.poll_calls;
        self.poll_ns += other.poll_ns;
    }
}

/// One session's client-side record.
struct Session {
    seen: Vec<Seen>,
    calls: Calls,
    spans: Option<Spans>,
    /// Added to a ticket to make its span id unique across sessions.
    id_base: u64,
    error: Option<std::io::Error>,
}

impl Session {
    fn new(requests: usize, spans: Option<Spans>, id_base: u64) -> Self {
        Session {
            id_base,
            seen: vec![Seen::default(); requests],
            calls: Calls::default(),
            spans,
            error: None,
        }
    }

    /// Drain every response the socket has, stamping each on arrival.
    fn poll_all(&mut self, client: &mut NetClient, t0: Instant) {
        loop {
            let start = ns_since(t0);
            let polled = client.poll_response();
            let end = ns_since(t0);
            self.calls.poll_calls += 1;
            self.calls.poll_ns += end - start;
            match polled {
                Ok(Some(resp)) => self.on_response(resp, start, end),
                Ok(None) => return,
                Err(e) => {
                    self.error.get_or_insert(e);
                    return;
                }
            }
        }
    }

    fn on_response(&mut self, resp: Response, start: u64, end: u64) {
        self.calls.responses += 1;
        let ticket = resp.ticket();
        if let Some(spans) = self.spans.as_mut() {
            spans.record(
                self.id_base + ticket,
                "net.poll",
                "request",
                Clock::Local,
                start,
                end,
            );
        }
        let Some(seen) = self.seen.get_mut(ticket as usize) else {
            self.error
                .get_or_insert(std::io::Error::other(format!("unknown ticket {ticket}")));
            return;
        };
        match resp {
            Response::Accepted { .. } => return,
            Response::Committed {
                commit_ns,
                latency_ns,
                queue_ns,
                service_ns,
                missed_deadline,
                ..
            } => {
                seen.committed = Some(Committed {
                    commit_ns,
                    latency_ns,
                    missed: missed_deadline,
                });
                if let Some(spans) = self.spans.as_mut() {
                    let admitted = commit_ns - latency_ns;
                    let id = self.id_base + ticket;
                    spans.record(
                        id,
                        "front.queue",
                        "request",
                        Clock::Server,
                        admitted,
                        admitted + queue_ns,
                    );
                    spans.record(
                        id,
                        "rt.service",
                        "request",
                        Clock::Server,
                        commit_ns - service_ns,
                        commit_ns,
                    );
                }
            }
            Response::Shed { .. } => seen.shed = true,
            Response::Rejected { .. } => seen.rejected = true,
        }
        seen.done_ns = Some(end);
    }
}

/// Send the schedule, then wait for every terminal response. `serve_start`
/// was taken just before `serve` started the server, whose clock therefore
/// lags the schedule's origin by at most `t0 - serve_start`; releases and
/// deadlines are shifted by that bound so no request gets less than
/// `DEADLINE_NS` of server time. Span ids are `id_base + ticket`.
fn drive(
    mut client: NetClient,
    serve_start: Instant,
    sched: &[Arrival],
    spans: Option<Spans>,
    id_base: u64,
) -> Session {
    let t0 = Instant::now();
    let skew = t0.duration_since(serve_start).as_nanos() as u64;
    let mut s = Session::new(sched.len(), spans, id_base);
    for (ticket, a) in sched.iter().enumerate() {
        pace_until(t0, a.due_ns, || s.poll_all(&mut client, t0));
        let start = ns_since(t0);
        let sent = client.submit(Request::Submit {
            ticket: ticket as u64,
            txn: a.txn,
            tenant: 0,
            release_ns: a.due_ns + skew,
            deadline_ns: Some(a.due_ns + skew + DEADLINE_NS),
        });
        let end = ns_since(t0);
        s.calls.late_ns.push(start.saturating_sub(a.due_ns));
        s.calls.submit_calls += 1;
        s.calls.submit_ns += end - start;
        if let Some(spans) = s.spans.as_mut() {
            spans.record(
                id_base + ticket as u64,
                "net.submit",
                "request",
                Clock::Local,
                start,
                end,
            );
        }
        if let Err(e) = sent {
            s.error.get_or_insert(e);
        }
        if s.error.is_some() {
            return s;
        }
    }
    let give_up = Instant::now() + DRAIN_TIMEOUT;
    while s.error.is_none()
        && s.seen.iter().any(|r| r.done_ns.is_none())
        && Instant::now() < give_up
    {
        s.poll_all(&mut client, t0);
        std::thread::yield_now();
    }
    if let Some(spans) = s.spans.as_mut() {
        for (ticket, (a, seen)) in sched.iter().zip(&s.seen).enumerate() {
            if let Some(done) = seen.done_ns {
                spans.record(
                    id_base + ticket as u64,
                    "request",
                    "",
                    Clock::Local,
                    a.due_ns,
                    done,
                );
            }
        }
    }
    s
}

/// Build the workload, start a server, connect, and hand the connection
/// to `f`. Returns the set-up time (workload build, server start,
/// connect), the set, the server's result and `f`'s value.
fn session<R>(f: impl FnOnce(NetClient, Instant) -> R) -> (f64, TransactionSet, RtResult, R) {
    let t = Instant::now();
    let set = workload();
    let serve_start = Instant::now();
    let mut setup = 0.0;
    let (result, value) = serve(&set, net_config(), |addr: SocketAddr| {
        let client = NetClient::connect(addr).expect("loopback connect");
        setup = t.elapsed().as_secs_f64();
        f(client, serve_start)
    })
    .expect("bind a loopback port");
    (setup, set, result, value)
}

/// Client- and server-side results of a series of sessions, after the
/// oracle.
#[derive(Default)]
struct Measured {
    /// Set-up times, spread over the whole series.
    setups: Vec<f64>,
    tally: RtTally,
    offered: u64,
    committed: u64,
    /// Requests that missed their deadline, were blamed by the oracle or
    /// did not commit.
    run_failed: u64,
    shed: u64,
    rejected: u64,
    /// Client latency (due to terminal response) of committed requests,
    /// pooled and per one-second window of due times.
    latency_ns: Vec<u64>,
    latency_windows: Vec<Vec<u64>>,
    hi_latency_windows: Vec<Vec<u64>>,
    /// Client latency minus the server's admission-to-commit latency.
    edge_ns: Vec<u64>,
    calls: Calls,
    incorrect: bool,
}

impl Measured {
    /// Account one finished session: conservation, the oracle, and each
    /// request's outcome.
    fn add(&mut self, set: &TransactionSet, sched: &[Arrival], result: &RtResult, s: &Session) {
        if let Some(e) = &s.error {
            eprintln!("tcp_read_open: client error: {e}");
            self.incorrect = true;
        }
        let offered = sched.len() as u64;
        if result.committed + result.shed + result.rejected != offered {
            eprintln!(
                "tcp_read_open: offered {offered} != committed {} + shed {} + rejected {}",
                result.committed, result.shed, result.rejected
            );
            self.incorrect = true;
        }
        self.offered += offered;

        // The oracle, and the map from a committed response to its job
        // (commit time and latency identify it).
        let verdict = crate::oracle::check(set, &result.history, &result.db);
        if !verdict.violations.is_empty() || self.tally.runs == 0 {
            eprintln!("tcp_read_open: oracle: {}", verdict.summary());
        }
        self.tally.add(set, result, &verdict);
        let ids: HashMap<(u64, u64), InstanceId> = result
            .jobs
            .iter()
            .map(|j| ((j.commit_ns, j.latency_ns), j.id))
            .collect();
        let top = set.by_descending_priority()[0].0;
        let first_window = self.latency_windows.len();
        for (a, seen) in sched.iter().zip(&s.seen) {
            self.shed += u64::from(seen.shed);
            self.rejected += u64::from(seen.rejected);
            let ok = match (seen.done_ns, seen.committed) {
                (Some(done), Some(c)) => {
                    let latency = done - a.due_ns;
                    self.committed += 1;
                    let window = first_window + (a.due_ns / 1_000_000_000) as usize;
                    if self.latency_windows.len() <= window {
                        self.latency_windows.resize(window + 1, Vec::new());
                        self.hi_latency_windows.resize(window + 1, Vec::new());
                    }
                    self.latency_ns.push(latency);
                    self.latency_windows[window].push(latency);
                    if a.txn == top {
                        self.hi_latency_windows[window].push(latency);
                    }
                    self.edge_ns.push(latency.saturating_sub(c.latency_ns));
                    let blamed = match ids.get(&(c.commit_ns, c.latency_ns)) {
                        Some(id) => verdict.blamed.contains(id),
                        None => {
                            eprintln!("tcp_read_open: a committed response matches no job");
                            self.incorrect = true;
                            true
                        }
                    };
                    !c.missed && !blamed
                }
                _ => false,
            };
            self.run_failed += u64::from(!ok);
        }
        self.calls.absorb(&s.calls);
    }
}

/// The lower quartile, over one-second windows, of each window's `q`
/// percentile of client latency. On a shared 2-vCPU host, stretches of
/// stolen CPU time lasting many seconds put whole windows' p99 at 6 ms
/// against 1 ms elsewhere, and covered over half of some 30 s runs; the
/// quietest quarter of windows still shows what the program adds.
fn quiet_windows(windows: &mut [Vec<u64>], q: f64) -> f64 {
    let mut per_window: Vec<u64> = windows
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| {
            w.sort_unstable();
            percentile(w, q)
        })
        .collect();
    per_window.sort_unstable();
    percentile(&per_window, 0.25) as f64
}

/// Length of one server session. A run is a series of sessions, each
/// with its own server start, so set-up is sampled across the whole run
/// rather than in one burst that a slow moment of the host decides.
const SESSION_SECONDS: f64 = 5.0;
/// Set-ups (start, connect, shut down) timed before each session.
const SETUPS_PER_SESSION: usize = 5;

fn measure(seed: u64, seconds: f64, mut spans: Option<Spans>) -> Measured {
    let sessions = (seconds / SESSION_SECONDS).round().max(1.0) as u64;
    let length = seconds / sessions as f64;
    let mut m = Measured::default();
    for k in 0..sessions {
        for _ in 0..SETUPS_PER_SESSION {
            m.setups.push(session(|_, _| ()).0);
        }
        let sched = schedule(
            &workload(),
            seed.wrapping_mul(1_000_003).wrapping_add(k),
            length,
        );
        let (setup, set, result, mut s) = session(|client, serve_start| {
            drive(client, serve_start, &sched, spans.take(), k << 32)
        });
        m.setups.push(setup);
        m.add(&set, &sched, &result, &s);
        spans = s.spans.take();
    }
    m.tally.finish();
    m.incorrect |= m.tally.unattributed;
    m.latency_ns.sort_unstable();
    m.edge_ns.sort_unstable();
    m.calls.late_ns.sort_unstable();
    if let Some(spans) = spans {
        spans.write("tcp_read_open", seed);
    }
    m
}

pub fn run(args: &Args) -> Outcome {
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = measure(args.seed, window, None);
    let traced = args
        .trace
        .then(|| measure(args.seed, window, Some(Spans::new(Instant::now()))));

    let runs = [Some(&untraced), traced.as_ref()];
    let runs = runs.iter().flatten();
    let attempted = runs.clone().map(|m| m.offered).sum();
    let failed = runs.clone().map(|m| m.offered - m.committed).sum();
    let correct = !runs.clone().any(|m| m.incorrect);
    for m in runs {
        eprintln!(
            "tcp_read_open: offered {} = committed {} + shed {} + rejected {} + unanswered {}; {} missed, blamed or uncommitted; {} blamed by the oracle; {:.4} blocks/job",
            m.offered,
            m.committed,
            m.shed,
            m.rejected,
            m.offered - m.committed - m.shed - m.rejected,
            m.run_failed,
            m.tally.blamed,
            m.tally.blocks_per_job()
        );
    }

    let metrics = match traced {
        Some(mut t) => {
            let offered = t.offered as f64;
            let mut m = t.tally.layer_metrics();
            m.extend([
                (
                    "run.latency_p99_us",
                    quiet_windows(&mut t.latency_windows, 0.99) / 1e3,
                ),
                (
                    "run.hi_prio_p99_us",
                    quiet_windows(&mut t.hi_latency_windows, 0.99) / 1e3,
                ),
                ("net.edge_p50_us", percentile(&t.edge_ns, 0.50) as f64 / 1e3),
                ("net.edge_p99_us", percentile(&t.edge_ns, 0.99) as f64 / 1e3),
                (
                    "net.submit_call_ns",
                    ratio(t.calls.submit_ns as f64, t.calls.submit_calls as f64),
                ),
                (
                    "net.poll_call_ns",
                    ratio(t.calls.poll_ns as f64, t.calls.poll_calls as f64),
                ),
                (
                    "net.responses_per_job",
                    ratio(t.calls.responses as f64, offered),
                ),
                (
                    "front.queue_p50_us",
                    percentile(&t.tally.queue_ns, 0.50) as f64 / 1e3,
                ),
                (
                    "front.queue_p99_us",
                    percentile(&t.tally.queue_ns, 0.99) as f64 / 1e3,
                ),
                (
                    "admission.rejected_ratio",
                    ratio(t.rejected as f64, offered),
                ),
                ("admission.shed_ratio", ratio(t.shed as f64, offered)),
                ("run.fail_ratio", ratio(t.run_failed as f64, offered)),
                (
                    "loadgen.late_p99_us",
                    percentile(&t.calls.late_ns, 0.99) as f64 / 1e3,
                ),
                (
                    "trace.overhead_ratio",
                    percentile(&t.latency_ns, 0.5) as f64
                        / percentile(&untraced.latency_ns, 0.5) as f64
                        - 1.0,
                ),
            ]);
            m
        }
        None => {
            let mut m = untraced;
            vec![
                ("setup_s", median(&mut m.setups)),
                (
                    "latency_p50_us",
                    quiet_windows(&mut m.latency_windows, 0.50) / 1e3,
                ),
                (
                    "hi_prio_p50_us",
                    quiet_windows(&mut m.hi_latency_windows, 0.50) / 1e3,
                ),
                ("committed_per_s", m.committed as f64 / window),
                (
                    "serializable_ratio",
                    1.0 - ratio(m.tally.blamed as f64, m.tally.jobs as f64),
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
