//! A minimal blocking client for the line-JSON protocol.
//!
//! Wraps one TCP connection; each [`TcpClient::roundtrip`] writes one
//! request line and reads one response line. The convenience helpers
//! build well-formed frames so callers (the `serve client` CLI, the
//! smoke gate, the throughput bench) never hand-assemble JSON.
//!
//! Dialing is tolerant by default: connects carry a timeout and one
//! bounded retry with backoff ([`ConnectOpts`]), because the fleet's
//! peer cache-fill and the shard smoke both dial daemons that may be a
//! few hundred milliseconds from finishing their bind. A genuinely dead
//! peer still fails fast — one timeout, one backoff, one retry, done —
//! which is the budget the engine's compute-locally degradation is
//! sized for.

use crate::proto::{self, Request, ScaleArg, Verb};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Read-buffer capacity: larger than a typical result frame, so one
/// read usually takes a whole response in.
const READ_BUF: usize = 64 << 10;

/// Dialing policy: timeout per attempt, bounded retries, linear backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectOpts {
    /// Per-attempt connect timeout.
    pub timeout: Duration,
    /// Re-dial attempts after the first failure (0 = dial exactly once).
    pub retries: u32,
    /// Sleep before retry `n` is `backoff * n` (linear, bounded).
    pub backoff: Duration,
}

impl Default for ConnectOpts {
    /// One bounded retry with a short backoff — tolerant of a daemon
    /// mid-startup, fast to report a genuinely dead peer.
    fn default() -> Self {
        Self { timeout: Duration::from_secs(2), retries: 1, backoff: Duration::from_millis(100) }
    }
}

impl ConnectOpts {
    /// A single attempt with no retry — for callers probing liveness.
    pub fn one_shot(timeout: Duration) -> Self {
        Self { timeout, retries: 0, backoff: Duration::ZERO }
    }
}

/// One protocol connection.
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TcpClient {
    /// Connects to a serving daemon with the default tolerant dialing
    /// policy (see [`ConnectOpts::default`]).
    ///
    /// # Errors
    ///
    /// Propagates the last connect failure once the retry budget is
    /// spent, or configure failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_opts(addr, &ConnectOpts::default())
    }

    /// Connects with an explicit dialing policy: each attempt tries
    /// every resolved address under `opts.timeout`, and failed attempts
    /// are retried `opts.retries` times with linear backoff.
    ///
    /// # Errors
    ///
    /// The last attempt's failure (or `AddrNotAvailable` if `addr`
    /// resolves to nothing).
    pub fn connect_opts(addr: impl ToSocketAddrs, opts: &ConnectOpts) -> std::io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                "address resolved to no socket addresses",
            ));
        }
        let mut last_err = None;
        for attempt in 0..=opts.retries {
            if attempt > 0 {
                std::thread::sleep(opts.backoff * attempt);
            }
            for a in &addrs {
                match TcpStream::connect_timeout(a, opts.timeout) {
                    Ok(stream) => {
                        stream.set_nodelay(true)?;
                        let writer = stream.try_clone()?;
                        let reader = BufReader::with_capacity(READ_BUF, stream);
                        return Ok(Self { reader, writer });
                    }
                    Err(e) => last_err = Some(e),
                }
            }
        }
        Err(last_err.expect("at least one attempt ran"))
    }

    /// Sets how long reads may block before erroring (None = forever).
    ///
    /// # Errors
    ///
    /// Propagates the socket configuration failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Writes one raw line (newline appended) and reads one response line.
    /// The line and its newline go out in one write: with `TCP_NODELAY`
    /// two writes would be two segments.
    ///
    /// # Errors
    ///
    /// I/O failures, or an unexpected EOF before the response line.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.writer.write_all(&frame)?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        let len = response.trim_end_matches(['\r', '\n']).len();
        response.truncate(len);
        Ok(response)
    }

    /// Sends a structured request.
    ///
    /// # Errors
    ///
    /// See [`TcpClient::roundtrip`].
    pub fn request(&mut self, req: &Request) -> std::io::Result<String> {
        self.roundtrip(&req.to_line())
    }

    /// Submits an experiment and blocks for its result frame.
    ///
    /// `mitigation` is an optional plugin-registry spec
    /// (`name[:key=val,...][+name...]`) applied as the run's defense and
    /// folded into the server-side cache key.
    ///
    /// # Errors
    ///
    /// See [`TcpClient::roundtrip`].
    pub fn submit_wait(
        &mut self,
        exp: &str,
        scale: ScaleArg,
        seed: Option<u64>,
        priority: i32,
        mitigation: Option<&str>,
    ) -> std::io::Result<String> {
        self.request(&Request {
            verb: Verb::Submit,
            exp: Some(exp.to_owned()),
            scale,
            seed,
            priority,
            wait: true,
            job: None,
            mitigation: mitigation.map(str::to_owned),
            fwd: false,
            epoch: None,
        })
    }

    /// Requests the metrics snapshot.
    ///
    /// # Errors
    ///
    /// See [`TcpClient::roundtrip`].
    pub fn stats(&mut self) -> std::io::Result<String> {
        self.roundtrip(&format!("{{\"v\":{},\"verb\":\"stats\"}}", proto::PROTO_VERSION))
    }

    /// Asks the server to drain and stop.
    ///
    /// # Errors
    ///
    /// See [`TcpClient::roundtrip`].
    pub fn shutdown(&mut self) -> std::io::Result<String> {
        self.roundtrip(&format!("{{\"v\":{},\"verb\":\"shutdown\"}}", proto::PROTO_VERSION))
    }
}
