//! Loopback acceptance tests: real TCP clients against [`rtdb_net::serve`]
//! on 127.0.0.1, validated against the simulator and the admission
//! accounting invariants.
//!
//! The burst test extends the PR 5 sim-vs-rt acceptance pattern through
//! the socket: the same conflict-free burst workload, submitted by N
//! *client connections* instead of an in-process submitter, must
//! reproduce the simulator's commit order and final database bit-for-bit
//! on one worker. Timing margins follow the in-process test's rules —
//! every met/missed verdict has tens of milliseconds of slack, and the
//! admission order is forced by waiting for each submission's `Accepted`
//! before sending the next.

use rtdb_core::ProtocolKind;
use rtdb_net::{serve, NetClient, NetConfig, Request, Response};
use rtdb_rt::{AdmissionPolicy, FrontConfig, RtConfig};
use rtdb_sim::{Engine, RunOutcome, SimConfig};
use rtdb_types::{InstanceId, ItemId, SetBuilder, Step, TransactionSet, TransactionTemplate};
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Milliseconds in nanoseconds.
const MS: u64 = 1_000_000;

/// Generous per-response wait: loopback round-trips are microseconds,
/// but CI schedulers stall.
const WAIT: Duration = Duration::from_secs(20);

/// The conflict-free burst workload of `crates/rt/tests/front.rs`:
/// template k has service 10 ticks, cumulative completion 10·(k+1), and
/// a period chosen so the met/missed pattern is forced by arithmetic
/// with ≥ 3 ticks of margin.
fn burst_set() -> TransactionSet {
    let periods = [16u64, 17, 40, 45, 46];
    let mut b = SetBuilder::new();
    for (k, &p) in periods.iter().enumerate() {
        b.add(
            TransactionTemplate::new(format!("T{k}"), p, vec![Step::write(ItemId(k as u32), 10)])
                .with_instances(1),
        );
    }
    b.build().expect("burst set")
}

/// A tiny two-template write workload for the overload tests.
fn small_set() -> TransactionSet {
    SetBuilder::new()
        .with(TransactionTemplate::new(
            "a",
            100,
            vec![Step::write(ItemId(0), 2)],
        ))
        .with(TransactionTemplate::new(
            "b",
            100,
            vec![Step::write(ItemId(1), 2)],
        ))
        .build()
        .expect("set")
}

/// Acceptance criterion: N client connections submit the burst through
/// the TCP edge on 1 worker and reproduce the simulator's commit order,
/// miss pattern and final database bit-for-bit.
#[test]
fn loopback_burst_reproduces_sim_commit_order_bit_for_bit() {
    const TICK: u64 = 4 * MS;
    let kind = ProtocolKind::PcpDa;
    let set = burst_set();

    // Ground truth: the simulator's commit order and miss verdicts.
    let sim = Engine::new(&set, SimConfig::default())
        .run_kind(kind)
        .expect("sim run");
    assert_eq!(sim.outcome, RunOutcome::Completed);
    let sim_order: Vec<InstanceId> = sim.history.commit_order().to_vec();
    let sim_missed: Vec<bool> = sim_order
        .iter()
        .map(|id| {
            !sim.metrics
                .instance(*id)
                .expect("sim metrics")
                .met_deadline()
        })
        .collect();
    assert_eq!(sim_missed, [false, true, false, false, true]);

    let front = FrontConfig::new(kind)
        .with_policy(AdmissionPolicy::Block)
        .with_rt(RtConfig::new(kind).with_threads(1).with_tick_ns(TICK));
    let (rt, client_missed) = serve(&set, NetConfig::new(front), |addr| {
        // One connection per template, submitting in priority order.
        // Waiting for each Accepted before the next client submits
        // forces the admission (and thus dispatch) order, exactly like
        // the in-process submitter's program order does.
        let mut clients: Vec<NetClient> = (0..set.len())
            .map(|_| NetClient::connect(addr).expect("connect"))
            .collect();
        for (k, client) in clients.iter_mut().enumerate() {
            let period = set.template(rtdb_types::TxnId(k as u32)).period.raw();
            client
                .submit(Request::Submit {
                    ticket: k as u64,
                    txn: k as u32,
                    tenant: 0,
                    release_ns: 0,
                    deadline_ns: Some(period * TICK),
                })
                .expect("submit");
            match client.wait_response(WAIT).expect("accept") {
                Response::Accepted { ticket } => assert_eq!(ticket, k as u64),
                other => panic!("client {k}: expected Accepted, got {other:?}"),
            }
        }
        // Every client waits for its terminal Committed.
        let mut missed = vec![false; clients.len()];
        for (k, client) in clients.iter_mut().enumerate() {
            match client.wait_response(WAIT).expect("terminal") {
                Response::Committed {
                    ticket,
                    missed_deadline,
                    latency_ns,
                    queue_ns,
                    service_ns,
                    ..
                } => {
                    assert_eq!(ticket, k as u64);
                    assert_eq!(queue_ns + service_ns, latency_ns);
                    missed[k] = missed_deadline;
                }
                other => panic!("client {k}: expected Committed, got {other:?}"),
            }
        }
        missed
    })
    .expect("serve");

    assert_eq!(rt.committed, 5);
    assert_eq!((rt.shed, rt.rejected), (0, 0));
    let rt_order: Vec<InstanceId> = rt.jobs.iter().map(|j| j.id).collect();
    assert_eq!(rt_order, sim_order, "commit order diverged through TCP");
    let rt_missed: Vec<bool> = rt.jobs.iter().map(|j| j.missed_deadline()).collect();
    assert_eq!(rt_missed, sim_missed, "miss pattern diverged through TCP");
    assert_eq!(
        rt.db.snapshot(),
        sim.db.snapshot(),
        "final database diverged through TCP"
    );
    // The wire told each client the same verdict the server recorded:
    // client k submitted template k.
    for (job, &sim_order_id) in rt.jobs.iter().zip(&sim_order) {
        assert_eq!(job.id, sim_order_id);
        assert_eq!(job.missed_deadline(), client_missed[job.id.txn.index()]);
    }
}

/// A client disconnecting mid-job neither loses the job nor wedges the
/// server: the orphaned job still executes and commits into the result,
/// and later submissions from other connections proceed normally.
#[test]
fn disconnect_mid_job_still_commits_and_server_survives() {
    let set = small_set();
    let front = FrontConfig::new(ProtocolKind::PcpDa)
        .with_policy(AdmissionPolicy::Block)
        .with_rt(
            RtConfig::new(ProtocolKind::PcpDa)
                .with_threads(1)
                .with_tick_ns(10 * MS),
        );
    let (rt, ()) = serve(&set, NetConfig::new(front), |addr| {
        let mut doomed = NetClient::connect(addr).expect("connect");
        doomed
            .submit(Request::Submit {
                ticket: 1,
                txn: 0,
                tenant: 0,
                release_ns: 0,
                deadline_ns: None,
            })
            .expect("submit");
        assert!(matches!(
            doomed.wait_response(WAIT).expect("accept"),
            Response::Accepted { ticket: 1 }
        ));
        // Disconnect while the 20 ms job runs (or queues).
        drop(doomed);

        let mut survivor = NetClient::connect(addr).expect("connect");
        survivor
            .submit(Request::Submit {
                ticket: 2,
                txn: 1,
                tenant: 0,
                release_ns: 0,
                deadline_ns: None,
            })
            .expect("submit");
        assert!(matches!(
            survivor.wait_response(WAIT).expect("accept"),
            Response::Accepted { ticket: 2 }
        ));
        // The survivor queues behind the orphan on the single worker, so
        // its Committed proves the orphan ran to completion first.
        assert!(matches!(
            survivor.wait_response(WAIT).expect("terminal"),
            Response::Committed { ticket: 2, .. }
        ));
    })
    .expect("serve");

    assert_eq!(rt.committed, 2, "the orphaned job still committed");
    assert_eq!((rt.shed, rt.rejected), (0, 0));
}

/// Invalid submissions are rejected at the edge — unknown template,
/// tenant above the cap — without disturbing the run; an undecodable
/// frame kills only its own connection.
#[test]
fn invalid_submissions_bounce_at_the_edge() {
    let set = small_set();
    let front = FrontConfig::new(ProtocolKind::PcpDa)
        .with_rt(RtConfig::new(ProtocolKind::PcpDa).with_threads(1));
    let (rt, ()) = serve(&set, NetConfig::new(front), |addr| {
        let mut client = NetClient::connect(addr).expect("connect");
        client
            .submit(Request::Submit {
                ticket: 1,
                txn: 99, // no such template
                tenant: 0,
                release_ns: 0,
                deadline_ns: None,
            })
            .expect("submit");
        assert!(matches!(
            client.wait_response(WAIT).expect("response"),
            Response::Rejected { ticket: 1 }
        ));
        client
            .submit(Request::Submit {
                ticket: 2,
                txn: 0,
                tenant: rtdb_net::MAX_TENANT + 1,
                release_ns: 0,
                deadline_ns: None,
            })
            .expect("submit");
        assert!(matches!(
            client.wait_response(WAIT).expect("response"),
            Response::Rejected { ticket: 2 }
        ));
        // A valid submission on the same connection still works.
        client
            .submit(Request::Submit {
                ticket: 3,
                txn: 0,
                tenant: 0,
                release_ns: 0,
                deadline_ns: None,
            })
            .expect("submit");
        let mut saw_commit = false;
        for _ in 0..2 {
            match client.wait_response(WAIT).expect("response") {
                Response::Accepted { ticket: 3 } => {}
                Response::Committed { ticket: 3, .. } => {
                    saw_commit = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_commit);
    })
    .expect("serve");

    assert_eq!(rt.committed, 1);
    // The two edge rejections never reached the admission queue, so the
    // run's reject counter (admission-level) stays 0.
    assert_eq!(rt.rejected, 0);
}

/// Multi-connection overload through sockets: every tenant's offered
/// load is fully accounted — exactly one terminal response per
/// submission on the wire, and `committed + shed + rejected == offered`
/// per tenant in the server's result.
#[test]
fn overload_accounting_balances_per_tenant_through_sockets() {
    const PER_TENANT: u64 = 12;
    let set = small_set();
    let front = FrontConfig::new(ProtocolKind::PcpDa)
        .with_policy(AdmissionPolicy::LeastSlack)
        .with_capacity(2)
        .with_rt(
            RtConfig::new(ProtocolKind::PcpDa)
                .with_threads(1)
                .with_tick_ns(MS),
        );
    let (rt, wire_counts) = serve(&set, NetConfig::new(front), |addr| {
        let tenants = 3u32;
        let mut clients: Vec<NetClient> = (0..tenants)
            .map(|_| NetClient::connect(addr).expect("connect"))
            .collect();
        // Burst-fire all submissions: a 2-slot queue against a worker
        // doing 2 ms per job guarantees shed traffic. Half the requests
        // carry an already-past deadline (negative slack), half none.
        for (t, client) in clients.iter_mut().enumerate() {
            for i in 0..PER_TENANT {
                client
                    .submit(Request::Submit {
                        ticket: i,
                        txn: (i % 2) as u32,
                        tenant: t as u32,
                        release_ns: 0,
                        deadline_ns: if i % 2 == 0 { Some(1) } else { None },
                    })
                    .expect("submit");
            }
        }
        // Drain until every submission has its terminal response.
        let mut counts = Vec::new();
        for client in clients.iter_mut() {
            let (mut committed, mut shed, mut rejected) = (0u64, 0u64, 0u64);
            while committed + shed + rejected < PER_TENANT {
                match client.wait_response(WAIT).expect("response") {
                    Response::Accepted { .. } => {}
                    Response::Committed { .. } => committed += 1,
                    Response::Shed { .. } => shed += 1,
                    Response::Rejected { .. } => rejected += 1,
                }
            }
            counts.push((committed, shed, rejected));
        }
        counts
    })
    .expect("serve");

    let offered = 3 * PER_TENANT;
    assert_eq!(
        rt.committed + rt.shed + rt.rejected,
        offered,
        "submissions leaked"
    );
    assert_eq!(rt.tenants.len(), 3);
    for (t, row) in rt.tenants.iter().enumerate() {
        assert_eq!(row.tenant, t as u32);
        assert_eq!(
            row.offered(),
            PER_TENANT,
            "tenant {t}: committed {} + shed {} + rejected {}",
            row.committed,
            row.shed,
            row.rejected
        );
        // The wire's view agrees with the server's ledger.
        let (committed, shed, rejected) = wire_counts[t];
        assert_eq!(
            (row.committed, row.shed, row.rejected),
            (committed, shed, rejected),
            "tenant {t}: wire and ledger disagree"
        );
    }
    // Per-template shed telemetry covers every shed job.
    assert_eq!(rt.shed_by_txn.iter().sum::<u64>(), rt.shed);
}

/// Run `f` on a thread of its own and fail if it has not returned within
/// a minute: for the tests below a hang is the failure.
fn returns<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let limit = Duration::from_secs(60);
    let (tx, rx) = channel();
    let run = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            run.join().expect("it sent its value, so it did not panic");
            value
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(run.join().expect_err("it panicked"))
        }
        Err(RecvTimeoutError::Timeout) => panic!("still running after {limit:?}"),
    }
}

/// A deadline-free submission of template `txn` for tenant 0.
fn job(ticket: u64, txn: u32) -> Request {
    Request::Submit {
        ticket,
        txn,
        tenant: 0,
        release_ns: 0,
        deadline_ns: None,
    }
}

/// The connection cap closes connections past it at once: a second
/// connection reads EOF, and the first still commits.
#[test]
fn connections_past_the_cap_read_eof() {
    let set = small_set();
    let front = FrontConfig::new(ProtocolKind::PcpDa)
        .with_rt(RtConfig::new(ProtocolKind::PcpDa).with_threads(1));
    let (rt, ()) = serve(&set, NetConfig::new(front).with_max_conns(1), |addr| {
        let mut first = NetClient::connect(addr).expect("connect");
        first.submit(job(1, 0)).expect("submit");
        // An answer proves the server took the first connection.
        assert!(matches!(
            first.wait_response(WAIT).expect("accept"),
            Response::Accepted { ticket: 1 }
        ));
        let mut second = NetClient::connect(addr).expect("the kernel completes the handshake");
        let err = second.wait_response(WAIT).expect_err("closed past the cap");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
        assert!(matches!(
            first.wait_response(WAIT).expect("terminal"),
            Response::Committed { ticket: 1, .. }
        ));
    })
    .expect("serve");
    assert_eq!(rt.committed, 1);
}

/// `serve` returns when the driver does, even with one peer connected,
/// idle and never closing, and another with a job still in flight; the
/// orphaned job runs to commit and is counted.
#[test]
fn serve_returns_past_an_idle_peer_and_a_job_in_flight() {
    returns(serve_past_an_idle_peer_and_a_job_in_flight);
}

fn serve_past_an_idle_peer_and_a_job_in_flight() {
    let set = small_set();
    // One worker at 10 ms per tick: the 2-tick job is still running when
    // the driver returns.
    let front = FrontConfig::new(ProtocolKind::PcpDa).with_rt(
        RtConfig::new(ProtocolKind::PcpDa)
            .with_threads(1)
            .with_tick_ns(10 * MS),
    );
    let (rt, peers) = serve(&set, NetConfig::new(front), |addr| {
        let mut idle = NetClient::connect(addr).expect("connect");
        // One round trip (an unknown template bounces at the edge) proves
        // the server is reading this connection; then it goes quiet.
        idle.submit(job(1, 99)).expect("submit");
        assert!(matches!(
            idle.wait_response(WAIT).expect("response"),
            Response::Rejected { ticket: 1 }
        ));
        let mut busy = NetClient::connect(addr).expect("connect");
        busy.submit(job(2, 0)).expect("submit");
        assert!(matches!(
            busy.wait_response(WAIT).expect("accept"),
            Response::Accepted { ticket: 2 }
        ));
        // Both connections outlive the driver.
        (idle, busy)
    })
    .expect("serve");
    assert_eq!(rt.committed, 1, "the orphaned job still committed");
    assert_eq!((rt.shed, rt.rejected), (0, 0));
    drop(peers);
}

/// A raw peer that floods `Submit` frames and never reads stalls only its
/// own connection: once the server has stopped reading it, another
/// connection's submit still reaches `Committed`, and `serve` returns
/// with the flooder still open.
#[test]
fn a_flooding_peer_that_never_reads_stalls_only_itself() {
    returns(flood_then_submit_elsewhere);
}

fn flood_then_submit_elsewhere() {
    let set = small_set();
    // A 4-slot queue in front of one worker at 100 µs per tick rejects
    // most of the flood, so it admits little work.
    let front = FrontConfig::new(ProtocolKind::PcpDa)
        .with_capacity(4)
        .with_rt(
            RtConfig::new(ProtocolKind::PcpDa)
                .with_threads(1)
                .with_tick_ns(100_000),
        );
    let (rt, flooder) = serve(&set, NetConfig::new(front), |addr| {
        let mut flooder = TcpStream::connect(addr).expect("connect");
        flooder.set_nonblocking(true).expect("nonblocking");
        let mut block = Vec::new();
        for ticket in 0..1000 {
            job(ticket, 0).encode(&mut block);
        }
        // Write until 100 ms pass without the server taking a byte: by
        // then it has stopped reading, blocked on a flooder that reads
        // nothing.
        let (mut at, mut total, mut idle_ms) = (0usize, 0usize, 0);
        while idle_ms < 100 {
            match flooder.write(&block[at..]) {
                Ok(n) => {
                    (at, total, idle_ms) = ((at + n) % block.len(), total + n, 0);
                    assert!(total < 1 << 28, "the server never stopped reading");
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                    idle_ms += 1;
                }
                Err(e) => panic!("flood write failed: {e}"),
            }
        }

        let mut client = NetClient::connect(addr).expect("connect");
        // The flood's last admitted jobs drain in about a millisecond;
        // retry while they fill the queue.
        let give_up = Instant::now() + WAIT;
        for ticket in 0.. {
            client.submit(job(ticket, 1)).expect("submit");
            match client.wait_response(WAIT).expect("response") {
                Response::Accepted { .. } => break,
                Response::Rejected { .. } if Instant::now() < give_up => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(matches!(
            client.wait_response(WAIT).expect("terminal"),
            Response::Committed { .. }
        ));
        flooder
    })
    .expect("serve");
    assert!(rt.committed >= 1);
    drop(flooder);
}

/// A client that pipelines far more than the sockets buffer before it
/// reads anything does not deadlock against the server's writer, which
/// blocks on a full socket: `submit` takes in responses while its own
/// writes would block.
#[test]
fn pipelining_without_reading_does_not_deadlock() {
    returns(pipeline_then_read);
}

fn pipeline_then_read() {
    // 13 MB of responses, well past what loopback socket buffers hold
    // by default.
    const FRAMES: u64 = 1_000_000;
    let set = small_set();
    let front = FrontConfig::new(ProtocolKind::PcpDa)
        .with_rt(RtConfig::new(ProtocolKind::PcpDa).with_threads(1));
    let (_, ()) = serve(&set, NetConfig::new(front), |addr| {
        let mut client = NetClient::connect(addr).expect("connect");
        // Unknown templates bounce at the edge: all socket, no jobs.
        for ticket in 0..FRAMES {
            client.submit(job(ticket, 99)).expect("submit");
        }
        for ticket in 0..FRAMES {
            match client.wait_response(WAIT).expect("response") {
                Response::Rejected { ticket: t } => assert_eq!(t, ticket),
                other => panic!("unexpected {other:?}"),
            }
        }
    })
    .expect("serve");
}
