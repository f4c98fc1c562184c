//! A hand-rolled HTTP/1.1 server on `std::net` — no async runtime, no
//! external crates, in keeping with the workspace's offline-build
//! invariant.
//!
//! The transport is a **readiness-driven event loop** (see DESIGN.md §9):
//! one loop thread owns every socket non-blockingly through the raw
//! `epoll` shim in [`crate::poll`], driving a per-connection state
//! machine ([`crate::conn`]) that tolerates partial reads and writes. An
//! idle keep-alive connection costs *nothing* — it sits in the epoll set
//! until bytes arrive — which is what flattens the old worker-pool
//! design's concurrency cliff, where every parked connection taxed the
//! pool a 10ms idle poll per rotation. Requests the loop can answer
//! without blocking (warm replays, stats, errors) are served inline;
//! anything that may block on the store — cold recordings and joins of
//! in-flight recordings — is handed to a small handler pool
//! ([`ServerConfig::workers`] threads) and the response is written when
//! the loop is woken by a self-pipe.
//!
//! # Robustness (see DESIGN.md §7 for the full failure model)
//!
//! * **Deadlines.** A connection that has *started* a request (sent at
//!   least one byte of it) must finish sending within the request
//!   deadline ([`crate::Limits::request_deadline`], lowered per request by
//!   `X-Deadline-Ms`) or it is answered `408` and closed — a slowloris
//!   peer costs one epoll registration and a timer, never a thread. A
//!   response write that the peer refuses to drain is killed at a bounded
//!   write deadline.
//! * **Bounded connections.** Past [`ServerConfig::max_queue`] concurrent
//!   connections, new arrivals are shed at accept with an immediate
//!   canned `503 + Retry-After`.
//! * **Panic isolation.** Handlers run under `catch_unwind` (inline on
//!   the loop, and per job in the pool); a panic becomes a `500` and
//!   serving continues. A `serve.write` fault panic drops the connection
//!   without a response, exactly like the old write-phase isolation.
//! * **Parse errors answer before closing.** Malformed requests get their
//!   proper status (`400`/`413`/`431`) rather than a silent hangup; an
//!   oversized `Content-Length` is refused at head-parse time, before any
//!   body byte is read or buffered.
//!
//! Shutdown is cooperative: `POST /v1/shutdown` (or
//! [`ServerHandle::shutdown`]) flips an atomic flag and wakes the loop;
//! the shutdown response is flushed first, then sockets close and the
//! handler pool drains and joins.

use crate::conn::{Connection, ReadEvent, WriteEvent, READ_CHUNK};
use crate::fault::FaultAction;
use crate::poll::{Interest, Poller};
use crate::{App, Deferred, Limits, Response};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Cap on a request head (request line + headers), bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on a request body; a larger `Content-Length` claim is refused
/// with `413` before any body byte is read, and a chunked body is cut
/// off with `413` the moment its *dechunked* byte count crosses the cap,
/// whatever its chunk headers claim.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// The body cap for `POST /v1/traces`: trace uploads are the one route
/// whose payloads are legitimately tens of megabytes (a million-reference
/// din file is ~12 MiB of text), so they get their own ceiling instead of
/// a global raise.
pub const MAX_TRACE_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Cap on one chunk-size line (hex digits + extensions); a sender that
/// streams forever without a CRLF must not grow the buffer unboundedly.
const MAX_CHUNK_LINE_BYTES: usize = 256;

/// The request-body byte cap for `path` — [`MAX_TRACE_BODY_BYTES`] for
/// the trace-upload endpoint, [`MAX_BODY_BYTES`] everywhere else.
pub fn body_cap_for(path: &str) -> usize {
    if path == "/v1/traces" {
        MAX_TRACE_BODY_BYTES
    } else {
        MAX_BODY_BYTES
    }
}

/// The epoll token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// The epoll token of the self-pipe the handler pool wakes the loop with.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection; tokens are never reused,
/// so a stale completion can never reach a newer connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// The loop never sleeps longer than this, as a backstop against a lost
/// wakeup; all real wakeups (I/O, completions, shutdown) arrive earlier
/// via epoll or the self-pipe.
const MAX_POLL: Duration = Duration::from_millis(250);

/// Write budget when no request deadline applies (error responses to
/// peers that never framed a request).
const DEFAULT_WRITE_BUDGET: Duration = Duration::from_secs(5);

/// Tuning for [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:8080"`; port 0 picks an ephemeral
    /// port (read it back from [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Handler-pool threads for work that may block on the store (cold
    /// recordings and joins); 0 means
    /// [`cachetime::sweep::available_jobs`]. All socket I/O and warm
    /// replays run on the event-loop thread regardless.
    pub workers: usize,
    /// Byte budget of the EventTrace store.
    pub store_budget_bytes: usize,
    /// Concurrent connections held before new arrivals are shed at accept
    /// with `503 + Retry-After` (the name predates the event loop, when
    /// this bounded a literal connection queue).
    pub max_queue: usize,
    /// Per-request wall-clock budget in milliseconds (the `--request-deadline-ms`
    /// flag); clients lower it per request via `X-Deadline-Ms`.
    pub request_deadline_ms: u64,
    /// Recordings in flight before cold simulates shed; 0 = auto
    /// (twice the worker count, at least 2).
    pub max_inflight_recordings: usize,
    /// Directory for the durable segment store (the `--data-dir` flag).
    /// `None` (the default) runs memory-only: no spills, no recovery.
    pub data_dir: Option<std::path::PathBuf>,
    /// Byte budget of the durable store (`--disk-budget-mb`); 0 =
    /// unlimited. Ignored without `data_dir`.
    pub disk_budget_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            store_budget_bytes: 256 * 1024 * 1024,
            max_queue: 1024,
            request_deadline_ms: 10_000,
            max_inflight_recordings: 0,
            data_dir: None,
            disk_budget_bytes: 0,
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Path without query string.
    pub path: String,
    /// Raw query string after the first `?`, if the target carried one.
    pub query: Option<String>,
    /// Raw body bytes — `Content-Length`-framed, or the dechunked stream
    /// of a `Transfer-Encoding: chunked` upload (handlers never see chunk
    /// framing).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// The client's `X-Deadline-Ms` request budget, if sent. The server
    /// honors it only downward from its own cap.
    pub deadline_ms: Option<u64>,
}

/// A framing/parse failure, carrying the HTTP status the server answers
/// before closing the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    /// `400`, `413`, or `431`.
    pub status: u16,
    /// Human-readable cause, sent as the JSON error body.
    pub msg: &'static str,
}

fn bad(msg: &'static str) -> ParseError {
    ParseError { status: 400, msg }
}

/// Outcome of [`parse_request`] when the bytes so far are not an error.
#[derive(Debug)]
pub enum Parsed {
    /// A complete request was framed and drained from the buffer.
    Request(Request),
    /// No complete request yet; feed more bytes.
    Incomplete,
    /// A `Transfer-Encoding: chunked` head was framed and drained; the
    /// body must now be streamed through `decoder` (which may already be
    /// complete if the whole upload arrived in one read). `req.body` is
    /// empty until the caller installs the dechunked bytes.
    Chunked {
        /// The request, body pending.
        req: Request,
        /// The body decoder, capped for `req.path`.
        decoder: ChunkedDecoder,
    },
}

/// Incremental decoder for a `Transfer-Encoding: chunked` request body.
///
/// The connection loop re-enters [`feed`](Self::feed) after every socket
/// read; the decoder consumes framing and payload from the front of the
/// read buffer as it goes, so memory stays bounded by the body cap plus
/// one read's worth of bytes no matter how the upload is sliced. The cap
/// is enforced on the **dechunked** count the moment a chunk-size line
/// would cross it — a client claiming an absurd chunk size is refused
/// with `413` *before* any of that chunk's payload is buffered, so a
/// lying or endless upload cannot exhaust memory.
#[derive(Debug)]
pub struct ChunkedDecoder {
    state: ChunkState,
    body: Vec<u8>,
    cap: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    /// Expecting a hex chunk-size line (`;`-extensions ignored).
    Size,
    /// Inside a chunk's payload; `usize` bytes remain.
    Data(usize),
    /// Expecting the CRLF that closes a chunk's payload.
    DataCrlf,
    /// After the zero chunk: skipping trailer lines to the blank line.
    Trailers,
    /// Terminator seen; the body is complete.
    Done,
}

impl ChunkedDecoder {
    fn new(cap: usize) -> ChunkedDecoder {
        ChunkedDecoder {
            state: ChunkState::Size,
            body: Vec::new(),
            cap,
        }
    }

    /// Consumes as much chunk framing and payload from the front of `buf`
    /// as is available, returning `true` once the terminating zero chunk
    /// (and its trailer section) has been seen. Bytes past the terminator
    /// are left in `buf` for a pipelined successor.
    ///
    /// # Errors
    ///
    /// `413` when the dechunked byte count would cross the cap, `400` for
    /// malformed framing. Either way the connection must be closed: the
    /// stream position inside the chunked body is lost.
    pub fn feed(&mut self, buf: &mut Vec<u8>) -> Result<bool, ParseError> {
        let mut pos = 0;
        let result = self.step(buf, &mut pos);
        buf.drain(..pos);
        result
    }

    fn step(&mut self, buf: &[u8], pos: &mut usize) -> Result<bool, ParseError> {
        loop {
            match self.state {
                ChunkState::Done => return Ok(true),
                ChunkState::Size => {
                    let Some(eol) = find_crlf(&buf[*pos..]) else {
                        if buf.len() - *pos > MAX_CHUNK_LINE_BYTES {
                            return Err(bad("chunk size line too long"));
                        }
                        return Ok(false);
                    };
                    let line = std::str::from_utf8(&buf[*pos..*pos + eol])
                        .map_err(|_| bad("non-UTF-8 chunk size line"))?;
                    let hex = line.split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(hex, 16).map_err(|_| bad("bad chunk size"))?;
                    *pos += eol + 2;
                    if size == 0 {
                        self.state = ChunkState::Trailers;
                    } else if self.body.len().saturating_add(size) > self.cap {
                        // Refuse on the *claim*, before buffering payload.
                        return Err(ParseError {
                            status: 413,
                            msg: "chunked body larger than the server accepts",
                        });
                    } else {
                        self.state = ChunkState::Data(size);
                    }
                }
                ChunkState::Data(remaining) => {
                    let avail = buf.len() - *pos;
                    if avail == 0 {
                        return Ok(false);
                    }
                    let take = avail.min(remaining);
                    self.body.extend_from_slice(&buf[*pos..*pos + take]);
                    *pos += take;
                    if take == remaining {
                        self.state = ChunkState::DataCrlf;
                    } else {
                        self.state = ChunkState::Data(remaining - take);
                        return Ok(false);
                    }
                }
                ChunkState::DataCrlf => {
                    if buf.len() - *pos < 2 {
                        return Ok(false);
                    }
                    if &buf[*pos..*pos + 2] != b"\r\n" {
                        return Err(bad("chunk payload not CRLF-terminated"));
                    }
                    *pos += 2;
                    self.state = ChunkState::Size;
                }
                ChunkState::Trailers => {
                    let Some(eol) = find_crlf(&buf[*pos..]) else {
                        if buf.len() - *pos > MAX_HEAD_BYTES {
                            return Err(ParseError {
                                status: 431,
                                msg: "trailer section too large",
                            });
                        }
                        return Ok(false);
                    };
                    *pos += eol + 2;
                    if eol == 0 {
                        self.state = ChunkState::Done;
                    }
                }
            }
        }
    }

    /// Dechunked bytes buffered so far.
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// The complete dechunked body; call once [`feed`](Self::feed)
    /// returned `true`.
    pub fn into_body(self) -> Vec<u8> {
        self.body
    }
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

/// A blocking job handed to the handler pool: the request, plus what
/// the loop already decoded from it.
struct Job {
    token: u64,
    req: Request,
    work: Deferred,
    deadline: Instant,
}

/// A finished job on its way back to the loop.
struct Completion {
    token: u64,
    response: Response,
}

struct Shared {
    shutdown: AtomicBool,
    jobs: Mutex<VecDeque<Job>>,
    jobs_ready: Condvar,
    completions: Mutex<Vec<Completion>>,
    /// Write end of the loop's self-pipe; one byte = one wakeup.
    waker: UnixStream,
}

impl Shared {
    fn wake(&self) {
        // Non-blocking: if the pipe is full the loop is already awake.
        let _ = (&self.waker).write(&[1]);
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.jobs_ready.notify_all();
        self.wake();
    }
}

/// A running server; dropping the handle does NOT stop it — call
/// [`shutdown`](Self::shutdown) + [`join`](Self::join), or let a client
/// `POST /v1/shutdown`.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    app: Arc<App>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The application state (store + stats), for in-process callers like
    /// the bench harness.
    pub fn app(&self) -> &Arc<App> {
        &self.app
    }

    /// Requests shutdown; returns immediately. Safe to call repeatedly.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until the event loop and every handler thread have exited.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds, spawns the event loop and handler pool, and returns a handle.
///
/// # Errors
///
/// Any bind failure from the OS, or epoll/self-pipe creation failure.
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let mut app = App::new(config.store_budget_bytes).with_limits(limits_for(&config));
    if let Some(dir) = &config.data_dir {
        app = app.with_disk(cachetime_disk::DiskConfig {
            root: dir.clone(),
            budget_bytes: config.disk_budget_bytes,
            quarantine_cap_bytes: cachetime_disk::DEFAULT_QUARANTINE_CAP_BYTES,
        })?;
        // Warm the in-memory store before the listener binds, so the
        // first request after a restart already sees every intact
        // segment and re-records nothing.
        app.recover_from_disk()?;
    }
    serve_with_app(config, Arc::new(app))
}

/// The [`Limits`] that [`serve`] derives from a config — public so
/// binaries that build their own [`App`] (e.g. to share a metric
/// registry) and call [`serve_with_app`] apply the same policy.
pub fn limits_for(config: &ServerConfig) -> Limits {
    let workers = resolve_workers(config.workers);
    Limits {
        request_deadline: Duration::from_millis(config.request_deadline_ms.max(1)),
        max_inflight_recordings: if config.max_inflight_recordings == 0 {
            (workers * 2).max(2)
        } else {
            config.max_inflight_recordings
        },
    }
}

fn resolve_workers(configured: usize) -> usize {
    if configured == 0 {
        cachetime::sweep::available_jobs()
    } else {
        configured
    }
}

/// [`serve`] with caller-supplied application state (tests pre-seed the
/// store or arm fault plans through this). The app's [`Limits`] govern
/// deadlines and admission; only `addr`/`workers`/`max_queue` are taken
/// from `config`.
pub fn serve_with_app(config: ServerConfig, app: Arc<App>) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = resolve_workers(config.workers);
    let max_conns = config.max_queue.max(1);

    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let shared = Arc::new(Shared {
        shutdown: AtomicBool::new(false),
        jobs: Mutex::new(VecDeque::new()),
        jobs_ready: Condvar::new(),
        completions: Mutex::new(Vec::new()),
        waker: wake_tx,
    });

    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
    poller.add(wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READABLE)?;

    let mut threads = Vec::with_capacity(workers + 1);
    {
        let shared = Arc::clone(&shared);
        let app = Arc::clone(&app);
        threads.push(
            std::thread::Builder::new()
                .name("ctserve-loop".into())
                .spawn(move || {
                    EventLoop {
                        poller,
                        listener,
                        wake_rx,
                        app,
                        shared,
                        conns: HashMap::new(),
                        read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
                        next_token: TOKEN_FIRST_CONN,
                        max_conns,
                        draining: false,
                    }
                    .run()
                })
                .expect("spawn event loop"),
        );
    }
    for i in 0..workers {
        let shared = Arc::clone(&shared);
        let app = Arc::clone(&app);
        threads.push(
            std::thread::Builder::new()
                .name(format!("ctserve-worker-{i}"))
                .spawn(move || worker_loop(&shared, &app))
                .expect("spawn worker"),
        );
    }
    Ok(ServerHandle {
        addr,
        shared,
        app,
        threads,
    })
}

/// The canned response the accept path sheds over-limit connections with
/// (no allocation, no handler, bounded write).
pub(crate) const QUEUE_FULL_RESPONSE: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: 29\r\nRetry-After: 1\r\nConnection: close\r\n\r\n{\"error\":\"connection shed\"}\r\n";

/// A handler-pool thread: pops blocking jobs, runs them panic-isolated,
/// posts completions, and wakes the loop.
fn worker_loop(shared: &Shared, app: &App) {
    loop {
        let job = {
            let mut jobs = shared.jobs.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(j) = jobs.pop_front() {
                    break j;
                }
                jobs = shared.jobs_ready.wait(jobs).unwrap();
            }
        };
        app.stats.in_flight.add(1);
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            app.handle_blocking(&job.req, job.work, job.deadline)
        }))
        .unwrap_or_else(|_| {
            // The handler unwound. The store's in-flight guards have
            // already cleaned up; the pool survives and the client learns
            // it was the server's fault.
            app.stats.panics.inc();
            Response::error(500, "internal panic; worker recovered")
        });
        app.stats.in_flight.add(-1);
        shared.completions.lock().unwrap().push(Completion {
            token: job.token,
            response,
        });
        shared.wake();
    }
}

/// Loop-side metadata for a request between dispatch and response write.
struct ReqMeta {
    method: String,
    path: String,
    keep_alive: bool,
    dispatched_at: Instant,
    deadline: Instant,
}

/// One connection as the loop tracks it: the state machine plus the
/// loop-side bookkeeping (registration, timers, offload metadata).
struct ConnState {
    conn: Connection<TcpStream>,
    /// What is currently registered in epoll; `None` = unregistered
    /// (dispatched or delay-parked connections sit outside the interest
    /// set entirely, so a dead peer cannot spin the level-triggered loop).
    registered: Option<Interest>,
    /// Set while a job for this connection is in the handler pool.
    pending: Option<ReqMeta>,
    /// Kill the write if not flushed by then.
    write_deadline: Option<Instant>,
    /// Injected write delay: hold the response until then.
    delay_until: Option<Instant>,
    /// Flush, then stop the server (a `/v1/shutdown` response).
    shutdown_after_write: bool,
}

struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    app: Arc<App>,
    shared: Arc<Shared>,
    conns: HashMap<u64, ConnState>,
    /// The one buffer every connection's reads land in, allocated once so
    /// that no readable event zeroes a 64 KiB array.
    read_buf: Box<[u8]>,
    next_token: u64,
    max_conns: usize,
    /// A shutdown response is being flushed; stop accepting, close
    /// keep-alive connections as their writes finish.
    draining: bool,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let next_timer = self.sweep_timers();
            let timeout = next_timer
                .map(|t| t.saturating_duration_since(Instant::now()))
                .unwrap_or(MAX_POLL)
                .min(MAX_POLL);
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.drain_waker(),
                    token => self.pump(token),
                }
            }
            self.drain_completions();
        }
        // Teardown: wake the pool so every worker sees the flag, then drop
        // the poller/listener/conns (closing all sockets).
        self.shared.request_shutdown();
    }

    /// Fires expired read/write deadlines and due write delays; returns
    /// the earliest future instant the loop must wake for.
    fn sweep_timers(&mut self) -> Option<Instant> {
        let now = Instant::now();
        let read_budget = self.app.limits().request_deadline;
        let mut next: Option<Instant> = None;
        let mut expired_reads = Vec::new();
        let mut expired_writes = Vec::new();
        let mut due_delays = Vec::new();
        for (&token, cs) in &self.conns {
            let mut candidates: [Option<Instant>; 2] = [None, None];
            if cs.conn.is_reading() {
                if let Some(started) = cs.conn.started() {
                    let expiry = started + read_budget;
                    if expiry <= now {
                        expired_reads.push(token);
                        continue;
                    }
                    candidates[0] = Some(expiry);
                }
            } else if cs.conn.is_writing() {
                if let Some(due) = cs.delay_until {
                    if due <= now {
                        due_delays.push(token);
                        continue;
                    }
                    candidates[0] = Some(due);
                }
                if let Some(wd) = cs.write_deadline {
                    if wd <= now {
                        expired_writes.push(token);
                        continue;
                    }
                    candidates[1] = Some(wd);
                }
            }
            for t in candidates.into_iter().flatten() {
                if next.is_none_or(|n| t < n) {
                    next = Some(t);
                }
            }
        }
        for token in expired_reads {
            // The peer started a request and never finished it within
            // budget (slowloris or a stalled sender).
            self.app.stats.timeouts.inc();
            self.app.stats.errors.inc();
            self.respond_raw(
                token,
                &Response::error(408, "request not received within the deadline"),
                false,
            );
            self.pump(token);
        }
        for token in expired_writes {
            self.close_conn(token);
        }
        for token in due_delays {
            if let Some(cs) = self.conns.get_mut(&token) {
                cs.delay_until = None;
            }
            self.pump(token);
        }
        next
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    if self.draining || self.shared.shutdown.load(Ordering::SeqCst) {
                        continue; // drop it; the server is going away
                    }
                    if self.conns.len() >= self.max_conns {
                        // Shed: answer fast and hang up. The socket is
                        // still blocking here, so bound the write to keep
                        // a hostile peer from parking the loop.
                        self.app.stats.shed.inc();
                        self.app.stats.errors.inc();
                        let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
                        let _ = stream.write_all(QUEUE_FULL_RESPONSE);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        ConnState {
                            conn: Connection::new(stream),
                            registered: Some(Interest::READABLE),
                            pending: None,
                            write_deadline: None,
                            delay_until: None,
                            shutdown_after_write: false,
                        },
                    );
                    // The request may already be in the socket buffer.
                    self.pump(token);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    fn drain_completions(&mut self) {
        let done = std::mem::take(&mut *self.shared.completions.lock().unwrap());
        for c in done {
            let Some(cs) = self.conns.get_mut(&c.token) else {
                continue; // the connection died while its job ran
            };
            let Some(meta) = cs.pending.take() else {
                continue;
            };
            self.finish_request(c.token, &meta, c.response);
            self.pump(c.token);
        }
    }

    /// Drives one connection forward — reads, parses, dispatches, writes —
    /// until it parks (needs readiness, a timer, or a handler), closes, or
    /// the buffer runs dry. Iterative, so a pipelined burst cannot recurse.
    fn pump(&mut self, token: u64) {
        loop {
            let Some(cs) = self.conns.get_mut(&token) else {
                return;
            };
            if cs.conn.is_closed() {
                self.close_conn(token);
                return;
            }
            if cs.conn.is_dispatched() {
                return; // a handler owns it; the completion resumes us
            }
            if cs.conn.is_writing() {
                let ev = cs.conn.on_writable(Instant::now());
                let shutting = cs.shutdown_after_write;
                match ev {
                    WriteEvent::Flushed { keep } => {
                        cs.write_deadline = None;
                        cs.delay_until = None;
                        if shutting {
                            self.shared.request_shutdown();
                            self.close_conn(token);
                            return;
                        }
                        if !keep || self.draining {
                            self.close_conn(token);
                            return;
                        }
                        continue; // back to Reading; residual bytes may pipeline
                    }
                    WriteEvent::NeedWritable => {
                        self.set_interest(token, Some(Interest::WRITABLE));
                        return;
                    }
                    WriteEvent::Delayed(until) => {
                        cs.delay_until = Some(until);
                        // Nothing to wait on but time; leave epoll so a
                        // dead peer cannot spin the level-triggered loop.
                        self.set_interest(token, None);
                        return;
                    }
                    WriteEvent::Disconnected => {
                        if shutting {
                            // The shutdown requester hung up early; the
                            // order still stands.
                            self.shared.request_shutdown();
                        }
                        self.close_conn(token);
                        return;
                    }
                    WriteEvent::NotWriting => return,
                }
            }
            // Reading.
            match cs.conn.on_readable(&mut self.read_buf) {
                ReadEvent::Request(req) => {
                    self.handle_request(token, req);
                    continue;
                }
                ReadEvent::NeedMore => {
                    self.set_interest(token, Some(Interest::READABLE));
                    return;
                }
                ReadEvent::Bad(e) => {
                    // Malformed request: answer its proper status, then close.
                    self.app.stats.errors.inc();
                    self.respond_raw(token, &Response::error(e.status, e.msg), false);
                    continue;
                }
                ReadEvent::Doa => {
                    // The request's own X-Deadline-Ms was spent before it
                    // finished arriving: 408 without touching the handler.
                    self.app.stats.timeouts.inc();
                    self.app.stats.errors.inc();
                    self.respond_raw(
                        token,
                        &Response::error(408, "request not received within the deadline"),
                        false,
                    );
                    continue;
                }
                ReadEvent::Disconnected => {
                    self.close_conn(token);
                    return;
                }
                ReadEvent::NotReading => return,
            }
        }
    }

    /// Routes a freshly parsed request: inline if the app can answer
    /// without blocking, otherwise off to the handler pool.
    fn handle_request(&mut self, token: u64, req: Request) {
        let dispatched_at = Instant::now();
        let deadline = self.app.deadline_for(&req);
        let meta = ReqMeta {
            method: req.method.clone(),
            path: req.path.clone(),
            keep_alive: req.keep_alive,
            dispatched_at,
            deadline,
        };
        self.app.stats.in_flight.add(1);
        let inline =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.app.try_handle(&req)));
        self.app.stats.in_flight.add(-1);
        match inline {
            Err(_) => {
                self.app.stats.panics.inc();
                let resp = Response::error(500, "internal panic; worker recovered");
                self.finish_request(token, &meta, resp);
            }
            Ok(Ok(resp)) => self.finish_request(token, &meta, resp),
            Ok(Err(work)) => {
                // Blocking work (a recording, or a join of one): hand it
                // to the pool and deregister until the completion arrives.
                if let Some(cs) = self.conns.get_mut(&token) {
                    cs.pending = Some(meta);
                }
                self.set_interest(token, None);
                self.shared.jobs.lock().unwrap().push_back(Job {
                    token,
                    req,
                    work,
                    deadline,
                });
                self.shared.jobs_ready.notify_one();
            }
        }
    }

    /// Accounts a handled request and queues its response on the
    /// connection (the caller pumps afterwards).
    fn finish_request(&mut self, token: u64, meta: &ReqMeta, resp: Response) {
        self.app
            .stats
            .endpoint(&meta.method, &meta.path)
            .record(meta.dispatched_at.elapsed().as_micros() as u64);
        if resp.status >= 400 {
            self.app.stats.errors.inc();
        }
        let keep = meta.keep_alive && !resp.shutdown && resp.status != 500;
        // The serve.write fault point: a panic drops the connection —
        // clients see a torn read — and a delay holds the response back
        // via a timer instead of parking a thread.
        let not_before = match self.app.faults().decide("serve.write") {
            FaultAction::Proceed => None,
            FaultAction::Delay(d) => Some(Instant::now() + d),
            FaultAction::Panic => {
                self.app.stats.panics.inc();
                if resp.shutdown {
                    self.shared.request_shutdown();
                }
                self.close_conn(token);
                return;
            }
        };
        let Some(cs) = self.conns.get_mut(&token) else {
            return;
        };
        let budget = meta
            .deadline
            .saturating_duration_since(Instant::now())
            .clamp(Duration::from_millis(250), Duration::from_secs(10));
        cs.write_deadline = Some(Instant::now() + budget);
        cs.delay_until = not_before;
        cs.shutdown_after_write = resp.shutdown;
        if resp.shutdown {
            self.draining = true;
        }
        cs.conn
            .begin_response(encode_response(&resp, keep), keep, not_before);
    }

    /// Queues a transport-level response (408/4xx) outside any handled
    /// request: no endpoint histogram, bounded default write budget.
    fn respond_raw(&mut self, token: u64, resp: &Response, keep: bool) {
        let Some(cs) = self.conns.get_mut(&token) else {
            return;
        };
        cs.write_deadline = Some(Instant::now() + DEFAULT_WRITE_BUDGET);
        cs.delay_until = None;
        cs.conn
            .begin_response(encode_response(resp, keep), keep, None);
    }

    /// Reconciles the connection's epoll registration with `want`
    /// (`None` = out of the set entirely).
    fn set_interest(&mut self, token: u64, want: Option<Interest>) {
        let Some(cs) = self.conns.get_mut(&token) else {
            return;
        };
        if cs.registered == want {
            return;
        }
        let fd = cs.conn.transport().as_raw_fd();
        let ok = match want {
            Some(interest) => {
                if cs.registered.is_some() {
                    self.poller.modify(fd, token, interest)
                } else {
                    self.poller.add(fd, token, interest)
                }
            }
            None => self.poller.remove(fd),
        };
        if ok.is_ok() {
            cs.registered = want;
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(cs) = self.conns.remove(&token) {
            if cs.registered.is_some() {
                let _ = self.poller.remove(cs.conn.transport().as_raw_fd());
            }
            // Dropping cs closes the socket.
        }
    }
}

/// Serializes a [`Response`] into the full HTTP/1.1 byte stream the state
/// machine writes.
fn encode_response(resp: &Response, keep_alive: bool) -> Vec<u8> {
    let reason = match resp.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let retry_after = match resp.retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n",
        resp.status,
        reason,
        resp.content_type,
        resp.body.len(),
        retry_after,
        connection,
    );
    let mut out = Vec::with_capacity(head.len() + resp.body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(&resp.body);
    out
}

/// Attempts to frame one request at the front of `buf`; on success the
/// request's bytes are drained so pipelined successors stay buffered.
///
/// This is the full head parser the server runs on untrusted bytes, public
/// so the property tests can feed it garbage directly.
///
/// # Errors
///
/// A [`ParseError`] carrying the `4xx` the server answers: `431` for a
/// head that exceeds [`MAX_HEAD_BYTES`] without terminating, `413` for a
/// `Content-Length` above the route's cap ([`body_cap_for`]; refused
/// before any body byte is read), `400` for everything structurally
/// wrong — including a request carrying *both* `Transfer-Encoding` and
/// `Content-Length`, the classic smuggling ambiguity.
pub fn parse_request(buf: &mut Vec<u8>) -> Result<Parsed, ParseError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ParseError {
                status: 431,
                msg: "request head too large",
            });
        }
        return Ok(Parsed::Incomplete);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| bad("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("missing method"))?
        .to_string();
    let target = parts.next().ok_or_else(|| bad("missing path"))?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    let mut deadline_ms = None;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // Repeated Content-Length headers are a request-smuggling
            // vector (RFC 9112 §6.3): two framings of the same stream.
            // Reject duplicates outright — even agreeing ones — rather
            // than letting the last value win.
            let parsed = value.parse().map_err(|_| bad("bad Content-Length"))?;
            if content_length.replace(parsed).is_some() {
                return Err(bad("duplicate Content-Length"));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Only the final "chunked" coding is supported; anything else
            // (gzip, a repeated header) leaves the body unframeable.
            if !value.eq_ignore_ascii_case("chunked") || chunked {
                return Err(bad("unsupported Transfer-Encoding"));
            }
            chunked = true;
        } else if name.eq_ignore_ascii_case("x-deadline-ms") {
            deadline_ms = Some(value.parse().map_err(|_| bad("bad X-Deadline-Ms"))?);
        }
    }
    let cap = body_cap_for(&path);
    let body_start = head_end + 4;
    if chunked {
        // Transfer-Encoding alongside Content-Length is the other classic
        // smuggling shape (RFC 9112 §6.3): two framings of one stream.
        if content_length.is_some() {
            return Err(bad("Transfer-Encoding with Content-Length"));
        }
        buf.drain(..body_start);
        return Ok(Parsed::Chunked {
            req: Request {
                method,
                path,
                query,
                body: Vec::new(),
                keep_alive,
                deadline_ms,
            },
            decoder: ChunkedDecoder::new(cap),
        });
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > cap {
        return Err(ParseError {
            status: 413,
            msg: "body larger than the server accepts",
        });
    }
    if buf.len() < body_start + content_length {
        return Ok(Parsed::Incomplete); // body still arriving
    }
    let body = buf[body_start..body_start + content_length].to_vec();
    buf.drain(..body_start + content_length);
    Ok(Parsed::Request(Request {
        method,
        path,
        query,
        body,
        keep_alive,
        deadline_ms,
    }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(input: &[u8]) -> (Vec<Request>, Vec<u8>) {
        let mut buf = input.to_vec();
        let mut out = Vec::new();
        while let Ok(Parsed::Request(r)) = parse_request(&mut buf) {
            out.push(r);
        }
        (out, buf)
    }

    #[test]
    fn frames_a_simple_get() {
        let (reqs, rest) = parse_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "GET");
        assert_eq!(reqs[0].path, "/healthz");
        assert!(reqs[0].keep_alive);
        assert!(reqs[0].body.is_empty());
        assert!(reqs[0].deadline_ms.is_none());
        assert!(rest.is_empty());
    }

    #[test]
    fn frames_a_post_with_body_and_pipelined_successor() {
        let (reqs, rest) = parse_all(
            b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}GET /v1/stats HTTP/1.1\r\n\r\n",
        );
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].body, b"{}");
        assert_eq!(reqs[1].path, "/v1/stats");
        assert!(rest.is_empty());
    }

    #[test]
    fn strips_query_strings_and_honors_connection_close() {
        let (reqs, _) = parse_all(b"GET /v1/stats?verbose=1 HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(reqs[0].path, "/v1/stats");
        assert!(!reqs[0].keep_alive);
    }

    #[test]
    fn http_1_0_defaults_to_close() {
        let (reqs, _) = parse_all(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!reqs[0].keep_alive);
    }

    #[test]
    fn partial_requests_wait_for_more_bytes() {
        let mut buf = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345".to_vec();
        assert!(matches!(parse_request(&mut buf), Ok(Parsed::Incomplete)));
        buf.extend_from_slice(b"67890");
        assert!(matches!(parse_request(&mut buf), Ok(Parsed::Request(_))));
    }

    #[test]
    fn deadline_header_is_parsed_and_validated() {
        let (reqs, _) = parse_all(b"GET /healthz HTTP/1.1\r\nX-Deadline-Ms: 250\r\n\r\n");
        assert_eq!(reqs[0].deadline_ms, Some(250));
        let mut buf = b"GET / HTTP/1.1\r\nX-Deadline-Ms: soonish\r\n\r\n".to_vec();
        assert_eq!(parse_request(&mut buf).unwrap_err().status, 400);
    }

    #[test]
    fn duplicate_content_length_is_rejected_not_last_wins() {
        // Regression (request smuggling): two Content-Length headers used
        // to silently let the last one win, so a front proxy and this
        // server could frame the stream differently. Any repeat — even
        // two agreeing values — must be a 400.
        for head in [
            "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n{}xyz",
            "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
            "POST /x HTTP/1.1\r\ncontent-length: 2\r\nCONTENT-LENGTH: 5\r\n\r\n{}xyz",
        ] {
            let mut buf = head.as_bytes().to_vec();
            let err = parse_request(&mut buf).unwrap_err();
            assert_eq!(err.status, 400, "{head:?}");
            assert_eq!(err.msg, "duplicate Content-Length", "{head:?}");
        }
        // A single Content-Length still frames normally.
        let (reqs, rest) = parse_all(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}");
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].body, b"{}");
        assert!(rest.is_empty());
    }

    #[test]
    fn rejects_oversized_and_runaway_heads_with_their_statuses() {
        // Oversized Content-Length: refused at head-parse time with 413,
        // even though zero body bytes have arrived.
        let mut buf = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        )
        .into_bytes();
        assert_eq!(parse_request(&mut buf).unwrap_err().status, 413);
        // A runaway head with no terminator: 431 once past the cap.
        let mut buf = vec![b'A'; MAX_HEAD_BYTES + 1];
        assert_eq!(parse_request(&mut buf).unwrap_err().status, 431);
    }

    #[test]
    fn trace_uploads_get_the_large_body_cap() {
        assert_eq!(body_cap_for("/v1/traces"), MAX_TRACE_BODY_BYTES);
        assert_eq!(body_cap_for("/v1/simulate"), MAX_BODY_BYTES);
        // The raised cap applies to Content-Length framing too.
        let mut buf = format!(
            "POST /v1/traces HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        )
        .into_bytes();
        assert!(matches!(parse_request(&mut buf), Ok(Parsed::Incomplete)));
    }

    #[test]
    fn frames_a_chunked_post_and_preserves_pipelined_successor() {
        // Two chunks: "0 100" (5 bytes) then "0\r\n" (3 bytes), so the
        // dechunked body is one din line, "0 1000\r\n".
        let mut buf = b"POST /v1/traces HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
            5\r\n0 100\r\n3\r\n0\r\n\r\n0\r\n\r\nGET /v1/stats HTTP/1.1\r\n\r\n"
            .to_vec();
        let Ok(Parsed::Chunked { req, mut decoder }) = parse_request(&mut buf) else {
            panic!("expected a chunked head");
        };
        assert_eq!(req.path, "/v1/traces");
        assert!(decoder.feed(&mut buf).unwrap());
        assert_eq!(decoder.into_body(), b"0 1000\r\n");
        // The pipelined GET stayed in the buffer, untouched.
        let (reqs, rest) = {
            let mut out = Vec::new();
            while let Ok(Parsed::Request(r)) = parse_request(&mut buf) {
                out.push(r);
            }
            (out, buf)
        };
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].path, "/v1/stats");
        assert!(rest.is_empty());
    }

    #[test]
    fn chunked_bodies_decode_across_arbitrary_read_boundaries() {
        // The same upload must dechunk identically however the socket
        // slices it — including splits inside size lines and CRLFs.
        let wire =
            b"4\r\nabcd\r\n10\r\n0123456789abcdef\r\n1\r\nZ\r\n0\r\nTrailer: ignored\r\n\r\n";
        let want = b"abcd0123456789abcdefZ";
        for step in 1..=wire.len() {
            let mut decoder = ChunkedDecoder::new(MAX_BODY_BYTES);
            let mut buf = Vec::new();
            let mut done = false;
            for piece in wire.chunks(step) {
                buf.extend_from_slice(piece);
                done = decoder.feed(&mut buf).unwrap();
            }
            assert!(done, "step {step}");
            assert!(buf.is_empty(), "step {step}");
            assert_eq!(decoder.into_body(), want, "step {step}");
        }
    }

    #[test]
    fn transfer_encoding_with_content_length_is_smuggling() {
        let mut buf =
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n".to_vec();
        let err = parse_request(&mut buf).unwrap_err();
        assert_eq!(err.status, 400);
        // Non-chunked codings are unframeable here: also 400.
        let mut buf = b"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n".to_vec();
        assert_eq!(parse_request(&mut buf).unwrap_err().status, 400);
    }

    #[test]
    fn lying_chunked_upload_cannot_exhaust_memory() {
        // Regression: the body cap used to be enforced only against
        // Content-Length, so a chunked sender could stream forever. The
        // decoder must refuse at the *claim* — before buffering payload —
        // and also when many honest chunks accumulate past the cap.
        let mut decoder = ChunkedDecoder::new(MAX_BODY_BYTES);
        let mut buf = format!("{:x}\r\n", MAX_BODY_BYTES + 1).into_bytes();
        let err = decoder.feed(&mut buf).unwrap_err();
        assert_eq!(err.status, 413);
        assert_eq!(decoder.body_len(), 0, "no payload buffered for a lie");

        // An "endless" upload of honest 64 KiB chunks: cut off at the cap
        // with 413, with memory bounded by the cap the whole way.
        let mut decoder = ChunkedDecoder::new(MAX_BODY_BYTES);
        let mut buf = Vec::new();
        let chunk = vec![b'x'; 64 * 1024];
        let mut refused = None;
        for _ in 0..(MAX_BODY_BYTES / chunk.len() + 8) {
            buf.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
            buf.extend_from_slice(&chunk);
            buf.extend_from_slice(b"\r\n");
            match decoder.feed(&mut buf) {
                Ok(done) => assert!(!done),
                Err(e) => {
                    refused = Some(e);
                    break;
                }
            }
            assert!(decoder.body_len() <= MAX_BODY_BYTES);
        }
        assert_eq!(refused.expect("endless upload must be refused").status, 413);

        // A size line that never terminates is bounded too.
        let mut decoder = ChunkedDecoder::new(MAX_BODY_BYTES);
        let mut buf = vec![b'f'; MAX_CHUNK_LINE_BYTES + 1];
        assert_eq!(decoder.feed(&mut buf).unwrap_err().status, 400);
    }

    #[test]
    fn encodes_responses_with_retry_after_and_connection_headers() {
        let shed = Response::unavailable("busy");
        let bytes = encode_response(&shed, false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        let ok = Response::error(404, "nope");
        let text = String::from_utf8(encode_response(&ok, true)).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("Content-Length: 16\r\n"), "{text}");
    }

    #[test]
    fn a_multi_kilobyte_body_is_framed_by_content_length() {
        let resp = Response {
            body: vec![b'x'; 40 * 1024],
            ..Response::error(200, "")
        };
        let bytes = encode_response(&resp, true);
        let head_end = find_head_end(&bytes).expect("a complete head");
        let head = std::str::from_utf8(&bytes[..head_end]).unwrap();
        assert!(head.contains("Content-Length: 40960\r\n"), "{head}");
        assert!(!head.contains("Transfer-Encoding"), "{head}");
        assert_eq!(&bytes[head_end + 4..], &resp.body[..]);
    }
}
