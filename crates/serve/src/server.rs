//! The TCP transport: a readiness event loop over newline frames.
//!
//! One thread holds every connection. The loop asks `poll(2)` (via
//! [`densemem_stats::readiness`]) which descriptors are ready, reads
//! whatever bytes exist into per-connection buffers, and writes response
//! frames back as the sockets will take them — no thread per connection,
//! no accept polling, no blocking on a slow peer. Work that cannot be
//! answered immediately (a `wait`ing submit, a `result` for a running
//! job) is parked as a *pending* entry; the engine's completion hook
//! pokes a self-pipe waker and the loop flushes the finished frames.
//!
//! Degradation rules the protocol tests pin down:
//!
//! * a partial frame is buffered for as long as the client dribbles it
//!   in (slow-loris peers hold one buffer, not one thread); a line that
//!   ends in EOF instead of `\n` is answered with a `bad-frame` error;
//! * a client that never reads accumulates its responses in its own
//!   write buffer, up to a cap — everyone else's latency is untouched;
//! * a client disconnecting mid-job abandons only its connection — the
//!   job keeps running and its result still lands in the cache tiers,
//!   and the connection's parked jobs are released to the job table's
//!   retention bound;
//! * the `shutdown` verb flips the engine to draining: the listener
//!   closes immediately (port released), parked results finish
//!   flushing, then `run` returns.
//!
//! A reply is written in the loop iteration that dispatched its request;
//! a connection asks `poll` for writability only while the socket has
//! refused part of its write buffer.
//!
//! Responses on one connection are written in *completion* order. The
//! bundled client awaits each response before sending the next request,
//! which makes the two orders identical; pipelining clients must match
//! result frames by job id.

use crate::engine::Engine;
use crate::proto::{self, ErrorCode, ProtoError};
use densemem_stats::readiness::{poll, Interest, PollFd};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll timeout: the idle heartbeat that checks deadlines and drain.
const TICK: Duration = Duration::from_millis(250);

/// Poll timeout while draining (snappier exit).
const DRAIN_TICK: Duration = Duration::from_millis(25);

/// A single request line larger than this is a `bad-frame`, not a
/// memory bill.
const MAX_LINE: usize = 1 << 20;

/// A connection owing more than this many unread response bytes is
/// dropped — the backpressure cap for clients that never read.
const MAX_WBUF: usize = 64 << 20;

/// How long a parked `wait`/`result` may stay pending before the loop
/// answers with a `timeout` frame.
const PENDING_PATIENCE: Duration = crate::engine::RESULT_WAIT;

/// A response not yet ready: which job, and when we give up.
struct Pending {
    job: u64,
    deadline: Instant,
}

/// One connection's transport state.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet terminated by `\n`.
    rbuf: Vec<u8>,
    /// Response bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// How much of `wbuf` has been written (compacted when it drains).
    wpos: usize,
    /// Parked result frames, resolved by the completion-hook sweep.
    pending: Vec<Pending>,
    /// The peer sent EOF: read no more, flush and close.
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self { stream, rbuf: Vec::new(), wbuf: Vec::new(), wpos: 0, pending: Vec::new(), closing: false }
    }

    fn queue_frame(&mut self, frame: &str) {
        self.wbuf.extend_from_slice(frame.as_bytes());
        self.wbuf.push(b'\n');
    }

    fn unflushed(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether the loop has nothing left to do for this connection.
    fn finished(&self) -> bool {
        self.closing && self.pending.is_empty() && self.unflushed() == 0
    }
}

/// A listening protocol server wrapping an [`Engine`].
pub struct Server {
    engine: Arc<Engine>,
    listener: TcpListener,
}

impl Server {
    /// Binds to `addr` (use port 0 for an OS-assigned port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(engine: Engine, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::from_listener(engine, TcpListener::bind(addr)?)
    }

    /// Wraps an already-bound listener. Fleet tests and benches bind
    /// every shard's listener first (learning the OS-assigned ports),
    /// build the engines with the complete peer list, and only then
    /// construct the servers.
    ///
    /// # Errors
    ///
    /// Propagates the nonblocking-mode switch failure.
    pub fn from_listener(engine: Engine, listener: TcpListener) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        Ok(Self { engine: Arc::new(engine), listener })
    }

    /// The bound address (port resolved if 0 was requested).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle to the shared engine (for in-process inspection).
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.engine)
    }

    /// Runs the event loop until a `shutdown` verb arrives, then drains:
    /// parked results resolve, write buffers flush, running jobs finish.
    ///
    /// # Errors
    ///
    /// Propagates poll/accept failures that are not transient.
    pub fn run(self) -> std::io::Result<()> {
        let engine = Arc::clone(&self.engine);
        let gauges = engine.transport_gauges();

        // Self-pipe waker: the completion hook (fired from worker
        // threads) writes one byte; the loop's poll wakes and sweeps
        // pending results. A full pipe means a wake is already queued.
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        engine.set_completion_hook(Box::new(move |_job| {
            let _ = (&waker_tx).write(&[1u8]);
        }));

        let mut listener = Some(self.listener);
        let mut conns: HashMap<RawFd, Conn> = HashMap::new();

        loop {
            let draining = engine.draining();
            if draining {
                // Release the port now; refuse the backlog by closing it.
                listener = None;
                // Connections with nothing left in flight are dropped —
                // the drain does not wait for idle clients.
                let before = conns.len();
                conns.retain(|_, c| !c.pending.is_empty() || c.unflushed() > 0);
                let dropped = (before - conns.len()) as u64;
                gauges.open_connections.fetch_sub(dropped, Ordering::Relaxed);
                if conns.is_empty() {
                    break;
                }
            }

            // Build this iteration's poll set. Closing connections with
            // nothing to flush are deliberately absent: a closed peer
            // reports POLLHUP forever and would busy-spin the loop; the
            // waker covers their pending results instead.
            let mut fds = Vec::with_capacity(2 + conns.len());
            let mut tokens = Vec::with_capacity(2 + conns.len());
            fds.push(PollFd::new(waker_rx.as_raw_fd(), Interest::READABLE));
            tokens.push(Token::Waker);
            if let Some(l) = &listener {
                fds.push(PollFd::new(l.as_raw_fd(), Interest::READABLE));
                tokens.push(Token::Listener);
            }
            for (&fd, c) in &conns {
                let interest = match (c.closing, c.unflushed() > 0) {
                    (false, false) => Interest::READABLE,
                    (false, true) => Interest::BOTH,
                    (true, true) => Interest::WRITABLE,
                    (true, false) => continue,
                };
                fds.push(PollFd::new(fd, interest));
                tokens.push(Token::Conn(fd));
            }

            poll(&mut fds, Some(if draining { DRAIN_TICK } else { TICK }))?;

            let mut dead: Vec<RawFd> = Vec::new();
            for (pfd, token) in fds.iter().zip(&tokens) {
                match token {
                    Token::Waker => {
                        if pfd.readable() {
                            let mut sink = [0u8; 256];
                            while let Ok(n) = (&waker_rx).read(&mut sink) {
                                if n < sink.len() {
                                    break;
                                }
                            }
                        }
                    }
                    Token::Listener => {
                        if pfd.readable() {
                            if let Some(l) = &listener {
                                accept_ready(l, &mut conns, &gauges)?;
                            }
                        }
                    }
                    Token::Conn(fd) => {
                        let Some(conn) = conns.get_mut(fd) else { continue };
                        let mut alive = true;
                        if pfd.readable() && !conn.closing {
                            alive = read_ready(&engine, conn);
                        }
                        // Replies dispatched just now go out in this
                        // iteration; only a socket that refuses them
                        // waits for POLLOUT.
                        if alive && conn.unflushed() > 0 {
                            alive = flush(conn);
                        }
                        if !alive || conn.unflushed() > MAX_WBUF || conn.finished() {
                            dead.push(*fd);
                        }
                    }
                }
            }

            // Sweep parked results: finished jobs (woken via the hook)
            // and expired patience both become frames in the write
            // buffer; the next poll iteration flushes them.
            for (&fd, conn) in &mut conns {
                if conn.pending.is_empty() {
                    continue;
                }
                let now = Instant::now();
                let mut frames: Vec<String> = Vec::new();
                conn.pending.retain(|p| {
                    if let Some(frame) = engine.collect_result(p.job) {
                        frames.push(frame);
                        false
                    } else if now >= p.deadline {
                        frames.push(engine.timeout_frame(p.job, PENDING_PATIENCE));
                        engine.release(p.job);
                        false
                    } else {
                        true
                    }
                });
                for f in &frames {
                    conn.queue_frame(f);
                }
                // Try the flush immediately — for a half-closed peer this
                // is the only write opportunity before the close check.
                if !frames.is_empty() && !flush(conn) {
                    dead.push(fd);
                }
                if conn.finished() {
                    dead.push(fd);
                }
            }

            dead.sort_unstable();
            dead.dedup();
            for fd in dead {
                if let Some(conn) = conns.remove(&fd) {
                    // Results nobody will read no longer pin their jobs.
                    for p in &conn.pending {
                        engine.release(p.job);
                    }
                    gauges.open_connections.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }

        // Running jobs finish (their results are cached for the next
        // connection), then the loop's thread returns.
        engine.wait_idle();
        Ok(())
    }
}

enum Token {
    Waker,
    Listener,
    Conn(RawFd),
}

/// Accepts every connection the backlog holds right now.
fn accept_ready(
    listener: &TcpListener,
    conns: &mut HashMap<RawFd, Conn>,
    gauges: &crate::engine::TransportGauges,
) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nonblocking(true)?;
                stream.set_nodelay(true)?;
                gauges.accepted_total.fetch_add(1, Ordering::Relaxed);
                gauges.open_connections.fetch_add(1, Ordering::Relaxed);
                conns.insert(stream.as_raw_fd(), Conn::new(stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            // A peer that vanished between accept-readiness and accept
            // is not the server's problem.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Reads whatever the socket holds, slices complete lines out of the
/// read buffer, and dispatches each through the engine. Returns `false`
/// when the connection is beyond saving.
fn read_ready(engine: &Engine, conn: &mut Conn) -> bool {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.closing = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                if conn.rbuf.len() > MAX_LINE {
                    engine.note_bad_frame();
                    let err = ProtoError::new(
                        ErrorCode::BadFrame,
                        format!("frame exceeds {MAX_LINE} bytes without a newline"),
                    );
                    conn.queue_frame(&proto::error_frame(&err));
                    conn.rbuf.clear();
                    conn.closing = true;
                    break;
                }
                // A short read drained the socket: the read after it
                // would only say `WouldBlock`. Bytes (or EOF) arriving
                // later keep the socket readable for the next poll.
                if n < chunk.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }

    // Dispatch every complete line; a partial tail stays buffered for
    // however many reads it takes to finish (slow-loris handling).
    while let Some(pos) = conn.rbuf.iter().position(|&b| b == b'\n') {
        let line_bytes: Vec<u8> = conn.rbuf.drain(..=pos).collect();
        let line = String::from_utf8_lossy(&line_bytes);
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            continue;
        }
        match engine.handle_step(trimmed) {
            crate::engine::Step::Reply(frame) => conn.queue_frame(&frame),
            crate::engine::Step::Pending(job) => conn
                .pending
                .push(Pending { job, deadline: Instant::now() + PENDING_PATIENCE }),
        }
    }

    // Only bytes left over *after* complete lines were dispatched count
    // as a truncated frame — and only once the peer has sent EOF.
    if conn.closing && !conn.rbuf.is_empty() {
        engine.note_bad_frame();
        let err = ProtoError::new(
            ErrorCode::BadFrame,
            format!("truncated frame ({} bytes, no newline)", conn.rbuf.len()),
        );
        conn.queue_frame(&proto::error_frame(&err));
        conn.rbuf.clear();
    }
    true
}

/// Writes as much buffered response as the socket will take. Returns
/// `false` when the connection is beyond saving.
fn flush(conn: &mut Conn) -> bool {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return false,
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    conn.wbuf.clear();
    conn.wpos = 0;
    true
}
