//! The TCP service edge: blocking per-connection threads that bridge
//! socket clients onto the admission front-end.
//!
//! [`serve`] wraps [`run_front`]: it binds a listener, spawns an acceptor
//! inside the front-end's scope, and hands the caller's driver the bound
//! address. Every hop waits in the kernel; nothing polls:
//!
//! * the **acceptor** blocks in `accept`. Past [`NetConfig::max_conns`]
//!   live connections it closes new ones at once, so the cap bounds the
//!   edge's threads as well as its sockets;
//! * each connection's **reader** blocks in `read`, decodes [`Request`]
//!   frames and submits them through the *non-blocking* submitter adapter
//!   ([`Submitter::try_submit`] — a full admission queue bounces a frame,
//!   it never parks the reader), answering `Accepted`/`Shed`/`Rejected`;
//! * each connection's **writer** blocks on the connection's
//!   [`Completion`] channel and writes `Committed`/`Shed` frames, taking
//!   everything else already queued in the same write.
//!
//! Reader and writer share one mutex per connection. It guards the
//! socket's write side and the server→client ticket map, and the reader
//! holds it across `try_submit`, the ticket insert and the `Accepted`
//! write, so a job's `Accepted` is always on the wire before its terminal
//! response. A peer that stops reading stalls only its own connection's
//! two threads; the workers behind the admission queue never wait on a
//! socket.
//!
//! **Client disconnect mid-job.** When a peer closes, its reader drops the
//! connection's submitter. Jobs it already got admitted keep their place
//! in the admission queue and still execute and commit into the run's
//! [`RtResult`] — admission is a promise to the *system*, not to the
//! socket — and the writer stays until their completions have arrived,
//! writing them to the closed socket, where they are lost. Nothing leaks:
//! the ticket map dies with the connection.
//!
//! **Shutdown.** When the driver returns, [`serve`] stops accepting and
//! shuts down every live connection (`Shutdown::Both`), so a peer that
//! neither reads nor closes cannot wedge it. Each connection's threads
//! then exit once their in-flight jobs have completed; those jobs execute
//! and are counted in the result, but their responses are dropped — a
//! client that wants its terminal responses must wait for them *before*
//! the driver returns. The front-end then closes the admission queue
//! with its usual drain semantics.

use crate::wire::{FrameBuf, Request, Response, MAX_TENANT};
use rtdb_rt::front::FrontHandle;
use rtdb_rt::{run_front, Completion, FrontConfig, JobRequest, RtResult, SubmitOutcome, Submitter};
use rtdb_types::{TransactionSet, TxnId};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;

/// Configuration of one [`serve`] run.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// The admission front-end behind the socket (worker pool, queue
    /// capacity, admission policy, fairness budgets).
    pub front: FrontConfig,
    /// Port to bind on 127.0.0.1; `0` (the default) picks an ephemeral
    /// port — the actual address is handed to the driver.
    pub port: u16,
    /// Connection cap; connections accepted beyond it are closed
    /// immediately. Each live connection runs two threads, so this also
    /// caps the edge's threads.
    pub max_conns: usize,
}

impl NetConfig {
    /// Defaults: ephemeral port, 1024 connections.
    pub fn new(front: FrontConfig) -> Self {
        NetConfig {
            front,
            port: 0,
            max_conns: 1024,
        }
    }

    /// Bind a specific port instead of an ephemeral one.
    pub fn with_port(mut self, port: u16) -> Self {
        self.port = port;
        self
    }

    /// Set the connection cap.
    pub fn with_max_conns(mut self, max_conns: usize) -> Self {
        self.max_conns = max_conns;
        self
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The live connections, so shutdown can reach every socket.
#[derive(Default)]
struct Registry {
    stopping: bool,
    next_id: u64,
    conns: HashMap<u64, Arc<TcpStream>>,
}

/// What a connection's reader and writer share: the socket's write side,
/// the server→client ticket map of completions still owed, and the
/// encode buffer.
struct Wire<'s> {
    stream: &'s TcpStream,
    tickets: HashMap<u64, u64>,
    out: Vec<u8>,
}

impl Wire<'_> {
    fn queue(&mut self, resp: Response) {
        resp.encode(&mut self.out);
    }

    /// Write every queued frame, blocking until the kernel takes them.
    fn flush(&mut self) {
        // A failed write means the peer is gone or the server is stopping;
        // the reader learns the same from its next read.
        let mut stream = self.stream;
        let _ = stream.write_all(&self.out);
        self.out.clear();
    }

    /// Answer one submission, inside the lock, so the ticket is mapped
    /// and `Accepted` queued before the writer can see the completion.
    fn submit(&mut self, sub: &Submitter<'_>, req: Request, templates: usize) {
        let Request::Submit {
            ticket,
            txn,
            tenant,
            release_ns,
            deadline_ns,
        } = req;
        // Validate before touching the admission queue: an unknown
        // template or an absurd tenant id is the client's bug, not an
        // overload signal.
        if txn as usize >= templates || tenant > MAX_TENANT {
            self.queue(Response::Rejected { ticket });
            return;
        }
        let mut job = JobRequest::new(TxnId(txn))
            .released_at(release_ns)
            .for_tenant(tenant);
        job.deadline_ns = deadline_ns;
        match sub.try_submit(job) {
            SubmitOutcome::Admitted { ticket: server } => {
                self.tickets.insert(server, ticket);
                self.queue(Response::Accepted { ticket });
            }
            SubmitOutcome::Shed { .. } => self.queue(Response::Shed { ticket }),
            SubmitOutcome::Rejected | SubmitOutcome::Closed => {
                self.queue(Response::Rejected { ticket })
            }
        }
    }

    /// Translate one completion into its terminal response frame.
    fn complete(&mut self, c: Completion) {
        match c {
            Completion::Committed { ticket, report } => {
                if let Some(client) = self.tickets.remove(&ticket) {
                    self.queue(Response::Committed {
                        ticket: client,
                        commit_ns: report.commit_ns,
                        latency_ns: report.latency_ns,
                        queue_ns: report.queue_ns,
                        service_ns: report.service_ns,
                        restarts: report.restarts,
                        missed_deadline: report.missed_deadline(),
                    });
                }
            }
            Completion::Shed { ticket, .. } => {
                if let Some(client) = self.tickets.remove(&ticket) {
                    self.queue(Response::Shed { ticket: client });
                }
            }
        }
    }
}

/// The reader: block in `read`, submit every decoded frame, answer each
/// read's frames in one write. Returns at EOF, on a socket error, or on a
/// protocol error (after shutting the connection down); dropping `sub`
/// lets the writer finish once the admitted jobs have completed.
fn read_requests(stream: &TcpStream, wire: &Mutex<Wire<'_>>, sub: Submitter<'_>, templates: usize) {
    let mut reader = stream;
    let mut rbuf = FrameBuf::new();
    let mut tmp = [0u8; 4096];
    loop {
        match reader.read(&mut tmp) {
            Ok(0) => return,
            Ok(n) => rbuf.extend(&tmp[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        let mut w = lock(wire);
        let mut broken = false;
        loop {
            match rbuf.next_frame().map(|f| f.map(|p| Request::decode(&p))) {
                Ok(Some(Ok(req))) => w.submit(&sub, req, templates),
                Ok(None) => break,
                Ok(Some(Err(_))) | Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        w.flush();
        if broken {
            // Protocol error: drop the connection.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    }
}

/// The writer: block for a completion, then write it together with
/// whatever else has arrived. Returns when every sender is gone — the
/// reader's submitter and each admitted job still owed a completion.
fn write_completions(rx: Receiver<Completion>, wire: &Mutex<Wire<'_>>) {
    while let Ok(first) = rx.recv() {
        let mut w = lock(wire);
        w.complete(first);
        while let Ok(c) = rx.try_recv() {
            w.complete(c);
        }
        w.flush();
    }
}

/// One connection, on the reader's thread; the writer runs beside it.
fn connection(stream: &TcpStream, front: FrontHandle<'_>, templates: usize) {
    let _ = stream.set_nodelay(true);
    let (sub, rx) = front.submitter();
    let wire = Mutex::new(Wire {
        stream,
        tickets: HashMap::new(),
        out: Vec::new(),
    });
    std::thread::scope(|s| {
        let writer = std::thread::Builder::new().spawn_scoped(s, || write_completions(rx, &wire));
        if writer.is_ok() {
            read_requests(stream, &wire, sub, templates);
        }
    });
}

/// The acceptor: block in `accept`, register each connection and start
/// its threads, until [`serve`] marks the registry stopping and wakes it.
fn accept_loop<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    listener: &TcpListener,
    registry: &'env Mutex<Registry>,
    front: FrontHandle<'env>,
    templates: usize,
    max_conns: usize,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => Arc::new(stream),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                // A peer that reset before it was accepted, or the process
                // out of descriptors: retry (spinning, with a yield, while
                // descriptors stay exhausted) unless the server is stopping.
                if lock(registry).stopping {
                    return;
                }
                std::thread::yield_now();
                continue;
            }
        };
        let id = {
            let mut reg = lock(registry);
            if reg.stopping {
                return;
            }
            if reg.conns.len() >= max_conns {
                continue;
            }
            let id = reg.next_id;
            reg.next_id += 1;
            reg.conns.insert(id, Arc::clone(&stream));
            id
        };
        let spawned = std::thread::Builder::new().spawn_scoped(scope, move || {
            connection(&stream, front, templates);
            lock(registry).conns.remove(&id);
        });
        if spawned.is_err() {
            // No thread for it: close the connection like one over the cap.
            lock(registry).conns.remove(&id);
        }
    }
}

/// Serve `set` over TCP on 127.0.0.1. Binds the listener, starts the
/// admission front-end (`config.front`), runs the acceptor and the
/// connection threads inside its scope, and calls `driver` with the bound
/// address on the current thread. When the driver returns the edge shuts
/// down (see the module docs) and the front-end shuts down with drain
/// semantics. Returns the run's [`RtResult`] together with the driver's
/// value.
pub fn serve<R>(
    set: &TransactionSet,
    config: NetConfig,
    driver: impl FnOnce(SocketAddr) -> R,
) -> std::io::Result<(RtResult, R)> {
    let listener = TcpListener::bind(("127.0.0.1", config.port))?;
    let addr = listener.local_addr()?;
    let templates = set.len();
    let registry = Mutex::new(Registry::default());

    let (result, value) = run_front(set, config.front, |front| {
        std::thread::scope(|scope| {
            let (listener, registry) = (&listener, &registry);
            let acceptor = scope.spawn(move || {
                accept_loop(
                    scope,
                    listener,
                    registry,
                    front,
                    templates,
                    config.max_conns,
                )
            });
            let value = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| driver(addr)));
            {
                let mut reg = lock(registry);
                reg.stopping = true;
                for stream in reg.conns.values() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
            // Wake the acceptor with one connection of our own; it sees
            // the registry stopping and returns. The scope then joins it
            // and every connection's threads.
            while !acceptor.is_finished() && TcpStream::connect(addr).is_err() {
                std::thread::yield_now();
            }
            match value {
                Ok(v) => v,
                Err(panic) => std::panic::resume_unwind(panic),
            }
        })
    });
    Ok((result, value))
}
