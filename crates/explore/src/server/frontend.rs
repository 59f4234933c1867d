//! The transport both serve tiers share.
//!
//! A single-pool [`Server`] and a multi-worker [`Router`] speak the same
//! protocol over the same transports; they differ only in how they answer
//! a parsed request and in what their metrics snapshot holds. The
//! [`Frontend`] trait names exactly that difference, and everything around
//! it is implemented once here: line framing under the
//! [`MAX_REQUEST_BYTES`] cap, oversize and UTF-8 refusal, per-request
//! `serve.*` accounting and slow-request logging, the TCP accept loop with
//! its [`MAX_CONNECTIONS`] bound, per-socket reads that notice shutdown,
//! and the Prometheus scrape listener.
//!
//! [`Server`]: crate::server::session::Server
//! [`Router`]: crate::server::router::Router

use crate::server::protocol::{self, Command};
use adhls_core::json::Value;
use adhls_telemetry::{Registry, Snapshot};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Largest accepted request line. Inline DSL sources fit comfortably; a
/// client streaming bytes with no newline must not grow server memory
/// without bound.
pub const MAX_REQUEST_BYTES: usize = 4 << 20;

/// TCP connections one front end serves at once; a connection beyond the
/// bound is answered with one `busy` line and closed instead of queued.
pub const MAX_CONNECTIONS: usize = 256;

/// The transport state every [`Frontend`] carries: request accounting,
/// the shutdown flag, the slow-request threshold, and the open-connection
/// count the accept loop bounds.
#[derive(Debug)]
pub struct ServeState {
    /// Where `serve.*` accounting lands (the pool's registry for a
    /// server, the router's own for a router).
    registry: Registry,
    requests: AtomicU64,
    shutdown: AtomicBool,
    /// Construction time, for `stats`/`metrics` uptime reporting.
    started: Instant,
    /// Requests slower than this (milliseconds) are logged to stderr;
    /// `0` disables slow-request logging.
    slow_ms: AtomicU64,
    connections: AtomicUsize,
}

impl ServeState {
    pub(crate) fn new(registry: Registry) -> Self {
        ServeState {
            registry,
            requests: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            slow_ms: AtomicU64::new(0),
            connections: AtomicUsize::new(0),
        }
    }
}

/// How [`Frontend::dispatch`] left one request.
#[derive(Debug)]
pub struct Handled {
    /// Whether the connection stays open (`false` after `shutdown`).
    pub keep_going: bool,
    /// Whether the terminal response was `ok:true`.
    pub ok: bool,
}

/// One serve tier behind the shared transport. Implementors supply the
/// state, the dispatch of a parsed request, and their own metrics; every
/// provided method is the one transport both tiers run.
pub trait Frontend: Sync + Sized {
    /// This front end's transport state.
    fn state(&self) -> &ServeState;

    /// Answers one parsed request, writing its response line(s) to `out`.
    /// `line` is the trimmed request as received (what a router forwards
    /// verbatim).
    ///
    /// # Errors
    ///
    /// I/O errors from `out`; request-level problems are answered with
    /// `ok:false` result lines instead.
    fn dispatch(
        &self,
        id: Option<&Value>,
        cmd: Result<Command, String>,
        line: &str,
        out: &mut dyn Write,
    ) -> io::Result<Handled>;

    /// Every metric this tier exports except the transport's own
    /// `serve.requests` counter and `serve.uptime_ms` gauge, which
    /// [`Frontend::metrics_snapshot`] adds.
    fn tier_snapshot(&self) -> Snapshot;

    /// One unified snapshot of everything observable. Every export
    /// surface — the `stats` and `metrics` verbs, the exposition listener
    /// — renders from it, so they cannot drift from each other.
    #[must_use]
    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
    fn metrics_snapshot(&self) -> Snapshot {
        let state = self.state();
        let mut snap = self.tier_snapshot();
        snap.push_counter("serve.requests", state.requests.load(Ordering::Relaxed));
        snap.push_gauge(
            "serve.uptime_ms",
            state.started.elapsed().as_millis() as i64,
        );
        snap.sort();
        snap
    }

    /// Logs any request taking longer than `ms` milliseconds to stderr
    /// (`0` disables, the default).
    fn set_slow_ms(&self, ms: u64) {
        self.state().slow_ms.store(ms, Ordering::Relaxed);
    }

    /// Asks the serve loops to wind down: [`Frontend::serve_tcp`] stops
    /// accepting, and connection loops exit at their next idle moment.
    fn request_shutdown(&self) {
        self.state().shutdown.store(true, Ordering::Release);
    }

    /// True once shutdown has been requested.
    #[must_use]
    fn is_shutting_down(&self) -> bool {
        self.state().shutdown.load(Ordering::Acquire)
    }

    /// Handles one request line, writing response line(s) to `out` (each
    /// flushed, so `round` events stream while the request runs). Returns
    /// `false` when the connection should close (a `shutdown` request).
    ///
    /// Every counted request ends in exactly one `serve.request.<verb>`
    /// histogram sample and one `serve.ok`/`serve.errors` increment, so
    /// `metrics` totals reconcile with `serve.requests` (modulo requests
    /// still in flight).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`; request-level problems are
    /// reported to the client as `ok:false` result lines instead.
    fn handle_line(&self, line: &str, out: &mut dyn Write) -> io::Result<bool> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(true);
        }
        let state = self.state();
        let registry = &state.registry;
        let seq = state.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let _in_flight = registry.gauge_guard("serve.in_flight");
        registry.counter_add("serve.bytes_read", line.len() as u64);
        let started = registry.is_enabled().then(Instant::now);
        let (id, cmd) = protocol::parse_request(line);
        let verb = cmd.as_ref().map_or("invalid", |c| c.verb());
        let handled = self.dispatch(id.as_ref(), cmd, line, out)?;
        out.flush()?;
        if let Some(t) = started {
            let us = t.elapsed().as_secs_f64() * 1e6;
            registry.observe(&format!("serve.request.{verb}"), us);
            registry.counter_add(
                if handled.ok {
                    "serve.ok"
                } else {
                    "serve.errors"
                },
                1,
            );
            let slow_ms = state.slow_ms.load(Ordering::Relaxed);
            #[allow(clippy::cast_precision_loss)]
            if slow_ms > 0 && us >= slow_ms as f64 * 1e3 {
                eprintln!(
                    "[adhls serve] slow request #{seq}: {verb} took {:.1} ms \
                     (threshold {slow_ms} ms)",
                    us / 1e3
                );
            }
        }
        Ok(handled.keep_going)
    }

    /// Serves one connection from any reader/writer pair until EOF or a
    /// `shutdown` request — the stdio transport, and what tests drive with
    /// in-memory buffers. Request lines are capped at
    /// [`MAX_REQUEST_BYTES`]; an oversized line gets an error response and
    /// closes the connection (the line boundary is lost, so resyncing the
    /// protocol is not possible).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from either side.
    fn serve_connection(&self, mut reader: impl BufRead, mut writer: impl Write) -> io::Result<()> {
        let mut buf = Vec::new();
        loop {
            match fill_line(&mut reader, &mut buf)? {
                LineStatus::Eof => return Ok(()),
                LineStatus::TooLong => return refuse_oversized(self, &mut writer),
                LineStatus::Complete => {
                    if !handle_buffered_line(self, &mut buf, &mut writer)? {
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Accepts and serves TCP connections until a `shutdown` request (from
    /// any connection) or [`Frontend::request_shutdown`]. Each connection
    /// is handled on its own thread, at most [`MAX_CONNECTIONS`] at once.
    ///
    /// # Errors
    ///
    /// Propagates listener-level I/O errors (per-connection errors only
    /// drop that connection).
    fn serve_tcp(&self, listener: &TcpListener) -> io::Result<()> {
        accept_loop(self, listener, MAX_CONNECTIONS)
    }

    /// Serves Prometheus text-format scrapes (`GET /metrics`-style) until
    /// shutdown — the `adhls serve --metrics-addr` listener. Each accepted
    /// connection gets one HTTP/1.0 response rendering
    /// [`Frontend::metrics_snapshot`] and is closed. Runs on the caller's
    /// thread; pair it with [`Frontend::serve_tcp`] on another.
    ///
    /// # Errors
    ///
    /// Propagates listener-level I/O errors (per-connection errors only
    /// drop that scrape).
    fn serve_metrics(&self, listener: &TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        loop {
            if self.is_shutting_down() {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.state().registry.counter_add("serve.scrapes", 1);
                    let _ = answer_scrape(self, stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Dispatches one complete request line accumulated in `buf`, clearing it
/// for the next line.
fn handle_buffered_line(
    front: &impl Frontend,
    buf: &mut Vec<u8>,
    writer: &mut dyn Write,
) -> io::Result<bool> {
    let keep_going = match std::str::from_utf8(buf) {
        Ok(line) => front.handle_line(line, writer)?,
        Err(_) => {
            count_unparseable_request(front, buf.len());
            writeln!(
                writer,
                "{}",
                protocol::render_error(None, "request line is not valid UTF-8")
            )?;
            writer.flush()?;
            true
        }
    };
    buf.clear();
    Ok(keep_going)
}

/// Answers an over-long request line and gives up on the connection.
fn refuse_oversized(front: &impl Frontend, writer: &mut dyn Write) -> io::Result<()> {
    count_unparseable_request(front, MAX_REQUEST_BYTES);
    let msg = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
    writeln!(writer, "{}", protocol::render_error(None, &msg))?;
    writer.flush()
}

/// Accounts a request that never reached [`Frontend::handle_line`]
/// (invalid UTF-8, oversized line): it still counts as a request and still
/// produces its one `serve.request.invalid` histogram sample, so `metrics`
/// totals reconcile with `serve.requests` on every path.
fn count_unparseable_request(front: &impl Frontend, bytes: usize) {
    let state = front.state();
    state.requests.fetch_add(1, Ordering::Relaxed);
    state.registry.counter_add("serve.bytes_read", bytes as u64);
    state.registry.observe("serve.request.invalid", 0.0);
    state.registry.counter_add("serve.errors", 1);
}

/// The accept loop behind [`Frontend::serve_tcp`], with the connection
/// bound as a parameter: a connection beyond `max_connections` open ones
/// counts toward `serve.rejected` and gets one `busy` line.
fn accept_loop(
    front: &impl Frontend,
    listener: &TcpListener,
    max_connections: usize,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let state = front.state();
    std::thread::scope(|scope| loop {
        if front.is_shutting_down() {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if state.connections.fetch_add(1, Ordering::SeqCst) < max_connections {
                    scope.spawn(move || {
                        // Per-connection errors (reset, parse-level I/O)
                        // drop the connection, never the server.
                        let _ = serve_socket(front, stream);
                        state.connections.fetch_sub(1, Ordering::SeqCst);
                    });
                } else {
                    state.connections.fetch_sub(1, Ordering::SeqCst);
                    state.registry.counter_add("serve.rejected", 1);
                    let _ = refuse_connection(stream, max_connections);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(e),
        }
    })
}

/// Answers one over-the-limit connection with a structured `busy` line and
/// closes it.
fn refuse_connection(mut stream: TcpStream, max_connections: usize) -> io::Result<()> {
    let msg = format!("server is at its connection limit ({max_connections}); retry later");
    writeln!(stream, "{}", protocol::render_busy(None, &msg))?;
    stream.flush()
}

/// One TCP connection: read with a short timeout so the loop can notice a
/// server-wide shutdown even while a client holds the socket open.
fn serve_socket(front: &impl Frontend, stream: TcpStream) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        if front.is_shutting_down() {
            return Ok(());
        }
        match fill_line(&mut reader, &mut buf) {
            Ok(LineStatus::Eof) => return Ok(()),
            Ok(LineStatus::TooLong) => return refuse_oversized(front, &mut writer),
            Ok(LineStatus::Complete) => {
                if !handle_buffered_line(front, &mut buf, &mut writer)? {
                    return Ok(());
                }
            }
            // Read timeout: partial data (if any) stays in `buf`; loop to
            // re-check the shutdown flag, then keep reading.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// One exposition response: drain the request head (until a blank line,
/// EOF, a small cap, or a short timeout — scrapers vary), then write the
/// snapshot and close.
fn answer_scrape(front: &impl Frontend, mut stream: TcpStream) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&chunk[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= 8 * 1024 {
                    break;
                }
            }
            // A client that writes nothing (netcat probing the port) still
            // deserves the snapshot.
            Err(_) => break,
        }
    }
    let body = front.metrics_snapshot().render_prometheus();
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

enum LineStatus {
    /// A full request line is in the buffer (newline stripped).
    Complete,
    /// End of stream with nothing further buffered.
    Eof,
    /// The line outgrew [`MAX_REQUEST_BYTES`] before its newline arrived.
    TooLong,
}

/// Appends bytes to `buf` until a newline, EOF, or the size cap — a capped
/// `read_line` working in raw bytes so no single call can balloon memory.
/// Returns `Err` (e.g. `WouldBlock` on a read timeout) with any partial
/// data retained in `buf` for the next call.
fn fill_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<LineStatus> {
    loop {
        let (newline_at, available) = {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                // EOF: unterminated trailing bytes are still a request and
                // get answered like a newline-terminated one.
                return Ok(if buf.is_empty() {
                    LineStatus::Eof
                } else {
                    LineStatus::Complete
                });
            }
            (chunk.iter().position(|&b| b == b'\n'), chunk.len())
        };
        match newline_at {
            Some(pos) => {
                let chunk = reader.fill_buf()?;
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                return Ok(if buf.len() > MAX_REQUEST_BYTES {
                    LineStatus::TooLong
                } else {
                    LineStatus::Complete
                });
            }
            None => {
                let chunk = reader.fill_buf()?;
                buf.extend_from_slice(chunk);
                reader.consume(available);
                if buf.len() > MAX_REQUEST_BYTES {
                    return Ok(LineStatus::TooLong);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{EvaluatorPool, PoolOptions};
    use crate::server::session::Server;
    use adhls_core::sched::HlsOptions;
    use adhls_reslib::tsmc90;

    #[test]
    fn connections_beyond_the_bound_get_one_busy_line() {
        let srv = Server::new(EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 1,
                ..Default::default()
            },
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let read_all = |s: TcpStream| -> Vec<String> {
            BufReader::new(s).lines().map(Result::unwrap).collect()
        };
        std::thread::scope(|scope| {
            let serve = scope.spawn(|| accept_loop(&srv, &listener, 1));
            // The first connection is admitted: its ping is answered, so
            // it holds the only slot by the time the second one arrives.
            let mut held = TcpStream::connect(addr).unwrap();
            held.write_all(b"{\"id\":1,\"cmd\":\"ping\"}\n").unwrap();
            let mut reader = BufReader::new(held.try_clone().unwrap());
            let mut pong = String::new();
            reader.read_line(&mut pong).unwrap();
            let refused = read_all(TcpStream::connect(addr).unwrap());
            // Shut down before asserting, so a failed assert cannot leave
            // the accept loop (and the scope) running forever.
            held.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
            serve.join().unwrap().unwrap();
            assert!(pong.contains("\"ok\":true"), "{pong}");
            assert_eq!(refused.len(), 1, "{refused:?}");
            assert!(refused[0].contains("\"busy\":true"), "{}", refused[0]);
            assert!(
                refused[0].contains("connection limit (1)"),
                "{}",
                refused[0]
            );
        });
        assert_eq!(srv.metrics_snapshot().counter("serve.rejected"), Some(1));
    }
}
