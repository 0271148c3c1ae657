//! A small blocking-with-timeout client for the wire protocol — the
//! load generator's (and the tests') view of the service edge.

use crate::wire::{FrameBuf, Request, Response, WireError};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One client connection. Submissions are pipelined: [`NetClient::submit`]
/// returns as soon as the frame is written; responses are pulled with
/// [`NetClient::poll_response`] / [`NetClient::wait_response`] and
/// correlated by the client-chosen ticket.
///
/// The socket stays non-blocking between calls; only
/// [`NetClient::wait_response`] blocks, in the kernel, for at most its
/// timeout.
pub struct NetClient {
    stream: TcpStream,
    rbuf: FrameBuf,
    /// Encode buffer, reused by every [`NetClient::submit`].
    wbuf: Vec<u8>,
}

fn wire_err(e: WireError) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, e)
}

impl NetClient {
    /// Connect to a [`crate::serve`] endpoint.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(NetClient {
            stream,
            rbuf: FrameBuf::new(),
            wbuf: Vec::with_capacity(64),
        })
    }

    /// Write one request frame. When the socket's send buffer is full,
    /// read whatever responses have arrived into the response buffer
    /// before trying again: the server's writer may be blocked on this
    /// client's full receive buffer, and a client that pipelines faster
    /// than it reads must not deadlock against it.
    pub fn submit(&mut self, req: Request) -> std::io::Result<()> {
        self.wbuf.clear();
        req.encode(&mut self.wbuf);
        let mut written = 0;
        while written < self.wbuf.len() {
            match self.stream.write(&self.wbuf[written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if !self.fill()? {
                        std::thread::yield_now();
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Move every byte the socket has into the response buffer without
    /// blocking; returns whether any arrived.
    fn fill(&mut self) -> std::io::Result<bool> {
        let mut tmp = [0u8; 4096];
        let mut any = false;
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.rbuf.extend(&tmp[..n]);
                    any = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete frame already in the response buffer.
    fn buffered(&mut self) -> std::io::Result<Option<Response>> {
        match self.rbuf.next_frame().map_err(wire_err)? {
            Some(payload) => Ok(Some(Response::decode(&payload).map_err(wire_err)?)),
            None => Ok(None),
        }
    }

    /// Non-blocking: the next buffered response, reading whatever the
    /// socket has first. `Ok(None)` means no complete frame yet.
    pub fn poll_response(&mut self) -> std::io::Result<Option<Response>> {
        if let Some(resp) = self.buffered()? {
            return Ok(Some(resp));
        }
        self.fill()?;
        self.buffered()
    }

    /// Block until a response arrives or `timeout` elapses, waiting in
    /// the kernel (a blocking read bounded by the remaining time).
    pub fn wait_response(&mut self, timeout: Duration) -> std::io::Result<Response> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(resp) = self.poll_response()? {
                return Ok(resp);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ErrorKind::TimedOut.into());
            }
            self.stream.set_read_timeout(Some(remaining))?;
            self.stream.set_nonblocking(false)?;
            let mut tmp = [0u8; 4096];
            let read = self.stream.read(&mut tmp);
            self.stream.set_nonblocking(true)?;
            match read {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.rbuf.extend(&tmp[..n]),
                // Timed out or interrupted: the loop re-checks the deadline.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }
}
