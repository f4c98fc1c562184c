//! The per-connection read/write state machine the event loop drives.
//!
//! A [`Connection`] owns one transport (a non-blocking `TcpStream` in
//! production; any `Read + Write` in tests — the property suite drives it
//! with a scripted fake socket) and moves through four states:
//!
//! ```text
//!            bytes frame a request
//!   Reading ──────────────────────▶ Dispatched
//!      ▲                                │ begin_response
//!      │ flushed, keep-alive           ▼
//!      └───────────────────────────  Writing ──▶ Closed
//!              (flushed + close, disconnect, or error)
//! ```
//!
//! Everything is partial-I/O tolerant: reads accumulate into a buffer and
//! re-parse, writes resume at the next unwritten byte, and `WouldBlock`
//! at any point simply parks the state machine until the next readiness
//! event. Two invariants matter for correctness and are enforced here
//! rather than in the loop:
//!
//! * **One request in flight per connection.** Framing a request moves to
//!   `Dispatched`; bytes a pipelining client sends early stay buffered
//!   (or in the kernel) untouched until the response is flushed.
//! * **Never double-answer.** [`begin_response`](Connection::begin_response)
//!   panics if a response is already being written — a bug in the caller,
//!   not a recoverable condition.
//!
//! The deadline *clock* lives here ([`started`](Connection::started) — the
//! instant a request's first byte arrived); deadline *policy* (when to
//! answer `408`, when to kill a stuck write) stays in the event loop.

use crate::http::{parse_request, ChunkedDecoder, ParseError, Parsed, Request};
use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

/// The most one `read(2)` takes: the size of the buffer the event loop
/// lends [`Connection::on_readable`]. A 1 MiB upload takes 17 reads.
pub const READ_CHUNK: usize = 64 << 10;

enum State {
    Reading,
    Dispatched,
    Writing {
        bytes: Vec<u8>,
        written: usize,
        keep: bool,
        not_before: Option<Instant>,
    },
    Closed,
}

/// What [`Connection::on_readable`] / [`try_parse`](Connection::try_parse)
/// found.
#[derive(Debug)]
pub enum ReadEvent {
    /// A complete request framed and drained; state is now `Dispatched`.
    Request(Request),
    /// No complete request yet; wait for more bytes.
    NeedMore,
    /// The bytes cannot be a valid request — answer `e.status`, close.
    Bad(ParseError),
    /// The request framed, but its own `X-Deadline-Ms` budget was spent
    /// before it finished arriving — dead on arrival, answer `408`.
    Doa,
    /// EOF or a transport error; the connection is now `Closed`. No
    /// response is owed (a clean close between requests and a torn
    /// mid-request sender land here alike).
    Disconnected,
    /// Not in the `Reading` state; nothing was done.
    NotReading,
}

/// What one [`Connection::on_writable`] step did.
#[derive(Debug)]
pub enum WriteEvent {
    /// The response is fully flushed. `keep: true` → state is `Reading`
    /// again (re-parse for pipelined successors); `false` → `Closed`.
    Flushed {
        /// Whether the connection stays open.
        keep: bool,
    },
    /// The transport is full; resume on the next writable event.
    NeedWritable,
    /// An injected write delay is pending; resume at the instant.
    Delayed(Instant),
    /// The peer is gone mid-write; the connection is now `Closed`.
    Disconnected,
    /// Not in the `Writing` state; nothing was done.
    NotWriting,
}

/// See the [module docs](self).
pub struct Connection<S> {
    transport: S,
    buf: Vec<u8>,
    state: State,
    started: Option<Instant>,
    /// A chunked request whose head has framed but whose body is still
    /// streaming through the decoder. Held here (not re-derived from the
    /// buffer) so each read feeds the decoder *incrementally* — re-parsing
    /// the accumulated body after every read would make a large upload
    /// quadratic.
    chunked: Option<(Request, ChunkedDecoder)>,
}

impl<S: Read + Write> Connection<S> {
    /// Wraps a transport (already non-blocking, in production).
    pub fn new(transport: S) -> Self {
        Connection {
            transport,
            buf: Vec::new(),
            state: State::Reading,
            started: None,
            chunked: None,
        }
    }

    /// The transport, e.g. for its raw fd.
    pub fn transport(&self) -> &S {
        &self.transport
    }

    /// Whether the connection is waiting for request bytes.
    pub fn is_reading(&self) -> bool {
        matches!(self.state, State::Reading)
    }

    /// Whether a request is out with a handler (no response begun yet).
    pub fn is_dispatched(&self) -> bool {
        matches!(self.state, State::Dispatched)
    }

    /// Whether a response is being written.
    pub fn is_writing(&self) -> bool {
        matches!(self.state, State::Writing { .. })
    }

    /// Whether the connection is finished (drop it).
    pub fn is_closed(&self) -> bool {
        matches!(self.state, State::Closed)
    }

    /// When the in-progress request's first byte arrived — the deadline
    /// clock for slow-sender `408`s. `None` between requests.
    pub fn started(&self) -> Option<Instant> {
        self.started
    }

    /// Marks the connection finished without further I/O.
    pub fn close(&mut self) {
        self.state = State::Closed;
    }

    /// Reads whatever the transport has (until `WouldBlock`), re-parsing
    /// after every read so framing errors and oversized claims are
    /// rejected as early as the old blocking server did. Each `read(2)`
    /// lands in `scratch` (the event loop's one read buffer,
    /// [`READ_CHUNK`] bytes) and is appended to the connection's buffer,
    /// so the connection holds what it has received and no more.
    ///
    /// # Panics
    ///
    /// If `scratch` is empty: a read into it would return 0 and look like
    /// the peer's EOF.
    pub fn on_readable(&mut self, scratch: &mut [u8]) -> ReadEvent {
        assert!(!scratch.is_empty(), "on_readable needs a read buffer");
        if !self.is_reading() {
            return ReadEvent::NotReading;
        }
        loop {
            if let Some(ev) = self.parse_step() {
                return ev;
            }
            match self.transport.read(scratch) {
                // EOF. Clean between requests, torn mid-request — either
                // way nothing is owed and nothing more will arrive.
                Ok(0) => {
                    self.state = State::Closed;
                    return ReadEvent::Disconnected;
                }
                Ok(n) => {
                    if self.buf.is_empty() && self.started.is_none() {
                        self.started = Some(Instant::now());
                    }
                    self.buf.extend_from_slice(&scratch[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return ReadEvent::NeedMore;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.state = State::Closed;
                    return ReadEvent::Disconnected;
                }
            }
        }
    }

    /// Parses from the existing buffer without touching the transport —
    /// how pipelined successors get served after a response flushes.
    pub fn try_parse(&mut self) -> ReadEvent {
        if !self.is_reading() {
            return ReadEvent::NotReading;
        }
        self.parse_step().unwrap_or(ReadEvent::NeedMore)
    }

    /// One parse attempt; `None` means incomplete (read more).
    fn parse_step(&mut self) -> Option<ReadEvent> {
        // A chunked body in flight owns every incoming byte until its
        // terminator; no head parsing happens underneath it.
        if self.chunked.is_some() {
            return self.feed_chunked();
        }
        match parse_request(&mut self.buf) {
            Err(e) => Some(ReadEvent::Bad(e)),
            Ok(Parsed::Incomplete) => None,
            Ok(Parsed::Chunked { req, decoder }) => {
                self.chunked = Some((req, decoder));
                // Body bytes may have arrived with the head.
                self.feed_chunked()
            }
            Ok(Parsed::Request(req)) => self.finish_request(req),
        }
    }

    /// Advances an in-flight chunked body with whatever is buffered.
    fn feed_chunked(&mut self) -> Option<ReadEvent> {
        let (_, decoder) = self.chunked.as_mut().expect("chunked body in flight");
        match decoder.feed(&mut self.buf) {
            // Framing/cap failure: answer the status, close. The rest of
            // the upload is never buffered — the close discards it.
            Err(e) => {
                self.chunked = None;
                Some(ReadEvent::Bad(e))
            }
            Ok(false) => None,
            Ok(true) => {
                let (mut req, decoder) = self.chunked.take().expect("chunked body in flight");
                req.body = decoder.into_body();
                self.finish_request(req)
            }
        }
    }

    /// The common tail once a request is fully framed (either framing):
    /// the dead-on-arrival check, the deadline-clock handoff, dispatch.
    fn finish_request(&mut self, req: Request) -> Option<ReadEvent> {
        // A request whose own X-Deadline-Ms budget is already gone
        // by the time it framed is dead on arrival: answering 408
        // now beats handler work whose result could never be
        // delivered in time.
        let parse_elapsed = self.started.map(|s| s.elapsed()).unwrap_or(Duration::ZERO);
        if req
            .deadline_ms
            .is_some_and(|ms| Duration::from_millis(ms) <= parse_elapsed)
        {
            return Some(ReadEvent::Doa);
        }
        self.started = if self.buf.is_empty() {
            None
        } else {
            // A pipelined successor is already buffered; its clock
            // starts now.
            Some(Instant::now())
        };
        self.state = State::Dispatched;
        Some(ReadEvent::Request(req))
    }

    /// Queues a fully-encoded response. `keep` controls the post-flush
    /// state; `not_before` (fault injection) holds the first byte back
    /// until the instant passes, without blocking anyone.
    ///
    /// # Panics
    ///
    /// If a response is already in flight or the connection is closed —
    /// the never-double-answer invariant, enforced at the source.
    pub fn begin_response(&mut self, bytes: Vec<u8>, keep: bool, not_before: Option<Instant>) {
        assert!(
            matches!(self.state, State::Reading | State::Dispatched),
            "double answer: begin_response while a response is already in flight"
        );
        self.state = State::Writing {
            bytes,
            written: 0,
            keep,
            not_before,
        };
    }

    /// Writes as much of the queued response as the transport takes.
    pub fn on_writable(&mut self, now: Instant) -> WriteEvent {
        let keep_after = {
            let State::Writing {
                bytes,
                written,
                keep,
                not_before,
            } = &mut self.state
            else {
                return WriteEvent::NotWriting;
            };
            if let Some(nb) = *not_before {
                if now < nb {
                    return WriteEvent::Delayed(nb);
                }
                *not_before = None;
            }
            loop {
                if *written >= bytes.len() {
                    break *keep;
                }
                match self.transport.write(&bytes[*written..]) {
                    Ok(0) => {
                        self.state = State::Closed;
                        return WriteEvent::Disconnected;
                    }
                    Ok(n) => *written += n,
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                    {
                        return WriteEvent::NeedWritable;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.state = State::Closed;
                        return WriteEvent::Disconnected;
                    }
                }
            }
        };
        if keep_after {
            self.state = State::Reading;
            if !self.buf.is_empty() && self.started.is_none() {
                self.started = Some(Instant::now());
            }
        } else {
            self.state = State::Closed;
        }
        WriteEvent::Flushed { keep: keep_after }
    }
}
