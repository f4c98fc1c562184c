//! A tiny blocking HTTP/1.1 client for talking to `ctserve` — used by the
//! bench load generator, the verify smoke test and the chaos client, so
//! none needs curl or an HTTP crate. Keep-alive: one [`HttpClient`] holds
//! one connection and issues requests serially over it. It is the one
//! response reader in the tree: every answer it accepts is framed by
//! `Content-Length`, the only framing the server sends, and
//! [`HttpClient::send_raw`] reads the answer to hand-built (even
//! deliberately malformed) request bytes through the same reader.
//!
//! The client is deliberately retry-aware but conservative about it:
//! only **idempotent** requests (`GET`s, and `POST /v1/replay`, which is
//! a pure read of the content-addressed store) are retried. A `POST
//! /v1/simulate` is never resent automatically — a shed simulate is the
//! server telling the caller to back off, and the caller decides.
//! Backoff is exponential with seeded jitter ([`ClientConfig::retry_seed`]),
//! and a server-sent `Retry-After` overrides the computed delay (capped
//! by [`ClientConfig::backoff_cap`]).

use cachetime_testkit::SplitMix64;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Tuning for [`HttpClient`]; the [`Default`] matches the pre-config
/// behavior (120 s read timeout, no retries).
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-read socket timeout. A hung server fails the caller instead of
    /// wedging it; simulate on a full-scale trace stays well under 120 s.
    pub read_timeout: Duration,
    /// Retry attempts *after* the first try, for idempotent requests only.
    pub retries: u32,
    /// First backoff delay; doubles each retry.
    pub backoff_base: Duration,
    /// Ceiling on any single delay, including server-sent `Retry-After`.
    pub backoff_cap: Duration,
    /// Seed for the jitter stream, so retry schedules are reproducible in
    /// tests and benches.
    pub retry_seed: u64,
    /// How many endpoints of a key's preference order a
    /// [`FleetClient::request_replicated`] write lands on. With the
    /// default of 2, any single shard death leaves every key warm on a
    /// survivor. Clamped to the fleet size.
    pub replication: usize,
    /// Consecutive transport failures that trip an endpoint's circuit
    /// breaker open.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before one half-open probe
    /// is allowed through (jittered ±50% from the seeded stream so a
    /// fleet of clients does not re-dial a recovering shard in lockstep).
    pub breaker_cooldown: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(120),
            retries: 0,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            retry_seed: 0,
            replication: 2,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
        }
    }
}

/// One keep-alive connection to a `ctserve` instance.
pub struct HttpClient {
    addr: String,
    stream: TcpStream,
    buf: Vec<u8>,
    config: ClientConfig,
    rng: SplitMix64,
}

impl HttpClient {
    /// Connects to `addr` (e.g. `"127.0.0.1:8080"`) with the default
    /// [`ClientConfig`].
    ///
    /// # Errors
    ///
    /// Connection failures from the OS.
    pub fn connect(addr: &str) -> std::io::Result<HttpClient> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit tuning.
    ///
    /// # Errors
    ///
    /// Connection failures from the OS.
    pub fn connect_with(addr: &str, config: ClientConfig) -> std::io::Result<HttpClient> {
        let stream = open_stream(addr, &config)?;
        let rng = SplitMix64::from_seed(config.retry_seed);
        Ok(HttpClient {
            addr: addr.to_string(),
            stream,
            buf: Vec::new(),
            config,
            rng,
        })
    }

    /// Sends one request and reads one response; returns `(status, body)`.
    ///
    /// Idempotent requests (`GET`, `POST /v1/replay`) are retried up to
    /// [`ClientConfig::retries`] times on I/O failure or a `503`, with
    /// exponential backoff + jitter; a `503`'s `Retry-After` (capped)
    /// overrides the computed delay. Anything else gets exactly one try.
    ///
    /// # Errors
    ///
    /// I/O failures, or a response the client cannot frame, after retries
    /// (if any) are exhausted.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let (status, bytes) = self.request_bytes(method, path, body)?;
        let body = String::from_utf8(bytes).map_err(|_| invalid("non-UTF-8 response body"))?;
        Ok((status, body))
    }

    /// [`request`](Self::request) returning the raw body bytes — for
    /// binary payloads like `GET /v1/segments/<key>` (a sealed segment
    /// container is not UTF-8).
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn request_bytes(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let idempotent = method == "GET" || (method == "POST" && path == "/v1/replay");
        let tries = if idempotent {
            self.config.retries + 1
        } else {
            1
        };
        let mut delay = self.config.backoff_base;
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..tries {
            if attempt > 0 {
                std::thread::sleep(self.jittered(delay));
                delay = (delay * 2).min(self.config.backoff_cap);
            }
            match self.try_once(method, path, body) {
                Ok((status, retry_after, resp_body)) => {
                    if status == 503 && attempt + 1 < tries {
                        // The server told us to come back; honor its
                        // Retry-After (capped) over our own schedule.
                        if let Some(secs) = retry_after {
                            delay =
                                Duration::from_secs(u64::from(secs)).min(self.config.backoff_cap);
                        }
                        continue;
                    }
                    return Ok((status, resp_body));
                }
                Err(e) => {
                    // Reconnect before any further attempt, even if this
                    // request is out of retries.
                    last_err = Some(self.reset().err().unwrap_or(e));
                }
            }
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("request failed")))
    }

    /// Writes `bytes` verbatim and reads one framed response; returns
    /// `(status, body)`. For requests [`request`](Self::request) cannot
    /// build — a lying chunk-size claim, an oversized `Content-Length`,
    /// garbage. Never retried.
    ///
    /// # Errors
    ///
    /// Write/read failures, or a response the client cannot frame; the
    /// client has reconnected by then, as after any failed request.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let answer = self
            .stream
            .write_all(bytes)
            .and_then(|()| self.read_response());
        match answer {
            Ok((status, _, body)) => Ok((status, body)),
            Err(e) => {
                let _ = self.reset();
                Err(e)
            }
        }
    }

    /// `POST` with a JSON body.
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.request("POST", path, body)
    }

    /// `GET` with an empty body.
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.request("GET", path, "")
    }

    /// `POST` with a `Transfer-Encoding: chunked` body — the trace-upload
    /// sender. The body is sliced into `chunk_bytes`-sized chunks so the
    /// server's streaming dechunker is actually exercised (a production
    /// uploader streams from a file the same way). One-shot: no
    /// auto-retry (the caller can resend; uploads are content-addressed,
    /// so a duplicate is a cheap dedup).
    ///
    /// # Errors
    ///
    /// Connect/write/read failures or a torn response.
    pub fn post_chunked(
        &mut self,
        path: &str,
        body: &[u8],
        chunk_bytes: usize,
    ) -> std::io::Result<(u16, String)> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: ctserve\r\nContent-Type: text/plain\r\nTransfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n"
        );
        self.stream.write_all(head.as_bytes())?;
        for chunk in body.chunks(chunk_bytes.max(1)) {
            self.stream
                .write_all(format!("{:x}\r\n", chunk.len()).as_bytes())?;
            self.stream.write_all(chunk)?;
            self.stream.write_all(b"\r\n")?;
        }
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()?;
        let (status, _, body) = self.read_response()?;
        Ok((
            status,
            String::from_utf8(body).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 body")
            })?,
        ))
    }

    fn try_once(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, Option<u32>, Vec<u8>)> {
        // Head and body go out in one write. On this `TCP_NODELAY` socket
        // two writes are two syscalls and two segments, and the server can
        // wake for the head alone and then read again for the body.
        let mut request = Vec::with_capacity(160 + path.len() + body.len());
        write!(
            request,
            "{method} {path} HTTP/1.1\r\nHost: ctserve\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len(),
        )?;
        request.extend_from_slice(body.as_bytes());
        self.stream.write_all(&request)?;
        self.stream.flush()?;
        self.read_response()
    }

    /// Backoff jitter: uniform in `[0.5, 1.5) × delay`, from the seeded
    /// stream so schedules replay identically for a given seed.
    fn jittered(&mut self, delay: Duration) -> Duration {
        delay.mul_f64(0.5 + self.rng.next_f64())
    }

    /// Drops whatever is buffered and redials. After a failed exchange
    /// the connection is in an unknown state (torn or refused response,
    /// reset), and bytes still in flight on it must never be read as the
    /// next answer; the next call on this client starts clean.
    fn reset(&mut self) -> std::io::Result<()> {
        self.buf.clear();
        self.stream = open_stream(&self.addr, &self.config)?;
        Ok(())
    }

    fn read_response(&mut self) -> std::io::Result<(u16, Option<u32>, Vec<u8>)> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((consumed, status, retry_after, body)) = frame_response(&self.buf)? {
                self.buf.drain(..consumed);
                return Ok((status, retry_after, body));
            }
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed mid-response",
                    ))
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
    }
}

/// Client-side shard placement for a fleet of `ctserve` processes:
/// rendezvous (highest-random-weight) hashing on the trace key.
///
/// Every client computes, independently and deterministically, the same
/// owner for a key — no coordinator, no shard map to distribute, and
/// adding or removing one endpoint only moves the keys that hashed to it
/// (1/N of the space), never reshuffles the rest. The score is a
/// [`StableHasher`](cachetime_types::StableHasher) digest of
/// `(endpoint, key)`, so placement is stable across processes and
/// platforms, exactly like the trace keys themselves.
#[derive(Debug, Clone)]
pub struct ShardRing {
    endpoints: Vec<String>,
}

/// Constructing a [`ShardRing`] over zero endpoints: a fleet of zero
/// servers routes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyRingError;

impl std::fmt::Display for EmptyRingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("shard ring needs at least one endpoint")
    }
}

impl std::error::Error for EmptyRingError {}

impl From<EmptyRingError> for std::io::Error {
    fn from(e: EmptyRingError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, e)
    }
}

impl ShardRing {
    /// A ring over `endpoints` (e.g. `["127.0.0.1:8081", "127.0.0.1:8082"]`).
    /// Repeated endpoints are deduplicated (keeping first-occurrence
    /// order) — a duplicate would score the same shard twice and skew
    /// placement without adding capacity.
    ///
    /// # Errors
    ///
    /// [`EmptyRingError`] if `endpoints` is empty.
    pub fn new(endpoints: Vec<String>) -> Result<ShardRing, EmptyRingError> {
        let mut deduped: Vec<String> = Vec::with_capacity(endpoints.len());
        for e in endpoints {
            if !deduped.contains(&e) {
                deduped.push(e);
            }
        }
        if deduped.is_empty() {
            return Err(EmptyRingError);
        }
        Ok(ShardRing { endpoints: deduped })
    }

    /// The fleet, in construction order (indices below index into this).
    pub fn endpoints(&self) -> &[String] {
        &self.endpoints
    }

    /// The rendezvous score of `key` on `endpoint`: higher wins.
    fn score(key: u64, endpoint: &str) -> u64 {
        let mut h = cachetime_types::StableHasher::new();
        h.write_bytes(endpoint.as_bytes());
        h.write_u64(key);
        h.finish()
    }

    /// The endpoint index that owns `key`.
    pub fn owner(&self, key: u64) -> usize {
        self.preference(key)[0]
    }

    /// Every endpoint index ordered best-first for `key`: element 0 is the
    /// owner, the rest are the deterministic failover order.
    pub fn preference(&self, key: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.endpoints.len()).collect();
        // Descending score; ties (astronomically unlikely) break on index
        // so every client still agrees.
        order.sort_by_key(|&i| std::cmp::Reverse((Self::score(key, &self.endpoints[i]), i)));
        order
    }
}

/// Which phase of its trip cycle an endpoint's circuit breaker is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Tripped: requests skip this endpoint until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe is in flight; its outcome
    /// closes or re-opens the breaker.
    HalfOpen,
}

/// Per-endpoint health tracking: consecutive-failure trip, cooldown,
/// seeded half-open probes.
#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    trips: u64,
    open_until: Instant,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
            open_until: Instant::now(),
        }
    }
}

/// A read-only snapshot of one endpoint's breaker, for fleet-aggregated
/// stats displays.
#[derive(Debug, Clone)]
pub struct BreakerView {
    /// The endpoint this breaker guards.
    pub endpoint: String,
    /// `"closed"`, `"open"`, or `"half-open"`.
    pub state: &'static str,
    /// Transport failures since the last success.
    pub consecutive_failures: u32,
    /// Times this breaker has tripped open.
    pub trips: u64,
}

/// A connection per fleet member plus the ring that routes between them.
///
/// **Writes** ([`request_replicated`](Self::request_replicated)) land on
/// the top-R endpoints of the key's preference order, so any single
/// shard death leaves the key warm on a survivor. **Reads**
/// ([`request_keyed`](Self::request_keyed)) go to the key's ring owner
/// and fail over down the same order, so they find that survivor without
/// re-recording. Every endpoint carries a circuit breaker
/// (consecutive-failure trip, cooldown, seeded half-open probes): a dead
/// shard stops eating a connect attempt per request once its breaker
/// trips, and recovers service within one cooldown of coming back.
pub struct FleetClient {
    ring: ShardRing,
    config: ClientConfig,
    conns: Vec<Option<HttpClient>>,
    breakers: Vec<Breaker>,
    rng: SplitMix64,
}

impl FleetClient {
    /// A fleet client over `endpoints`. Connections open lazily, per
    /// shard, on first use — a dead shard costs nothing until a key
    /// routes to it.
    ///
    /// # Errors
    ///
    /// [`EmptyRingError`] for an empty endpoint list.
    pub fn new(
        endpoints: Vec<String>,
        config: ClientConfig,
    ) -> Result<FleetClient, EmptyRingError> {
        let ring = ShardRing::new(endpoints)?;
        let n = ring.endpoints().len();
        let rng = SplitMix64::from_seed(config.retry_seed ^ 0x666c_6565_7462_726b); // "fleetbrk"
        Ok(FleetClient {
            ring,
            config,
            conns: (0..n).map(|_| None).collect(),
            breakers: (0..n).map(|_| Breaker::new()).collect(),
            rng,
        })
    }

    /// The routing ring.
    pub fn ring(&self) -> &ShardRing {
        &self.ring
    }

    /// The effective replication factor: the configured `replication`
    /// clamped to `[1, fleet size]`.
    pub fn replication(&self) -> usize {
        self.config
            .replication
            .clamp(1, self.ring.endpoints().len())
    }

    /// A snapshot of every endpoint's circuit breaker, in ring order.
    pub fn breakers(&self) -> Vec<BreakerView> {
        self.ring
            .endpoints()
            .iter()
            .zip(&self.breakers)
            .map(|(endpoint, b)| BreakerView {
                endpoint: endpoint.clone(),
                state: match b.state {
                    BreakerState::Closed => "closed",
                    BreakerState::Open => "open",
                    BreakerState::HalfOpen => "half-open",
                },
                consecutive_failures: b.consecutive_failures,
                trips: b.trips,
            })
            .collect()
    }

    /// Whether a request may dial endpoint `ix` right now. An open
    /// breaker whose cooldown has elapsed transitions to half-open and
    /// admits this one call as its probe.
    fn breaker_admits(&mut self, ix: usize) -> bool {
        let b = &mut self.breakers[ix];
        match b.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if Instant::now() >= b.open_until {
                    b.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn breaker_success(&mut self, ix: usize) {
        let b = &mut self.breakers[ix];
        b.state = BreakerState::Closed;
        b.consecutive_failures = 0;
    }

    fn breaker_failure(&mut self, ix: usize) {
        let jitter = 0.5 + self.rng.next_f64();
        let b = &mut self.breakers[ix];
        b.consecutive_failures = b.consecutive_failures.saturating_add(1);
        // A failed half-open probe re-opens immediately; a closed breaker
        // trips at the threshold. The cooldown is jittered from the
        // seeded stream so probe schedules are reproducible yet a client
        // fleet does not re-dial a recovering shard in lockstep.
        if b.state == BreakerState::HalfOpen
            || b.consecutive_failures >= self.config.breaker_threshold
        {
            b.state = BreakerState::Open;
            b.open_until = Instant::now() + self.config.breaker_cooldown.mul_f64(jitter);
            b.trips += 1;
        }
    }

    /// Sends `method path` to the shard owning `key`, failing over along
    /// the preference order; returns `(status, body, shard index)` from
    /// the first shard that answers. Endpoints with open breakers are
    /// skipped without a dial; if *every* endpoint is skipped, the
    /// preference order is force-probed anyway — an all-open fleet must
    /// still be able to discover a recovery.
    ///
    /// # Errors
    ///
    /// The last shard's error, once every shard in the preference order
    /// has failed.
    pub fn request_keyed(
        &mut self,
        key: u64,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String, usize)> {
        let pref = self.ring.preference(key);
        let mut last_err = None;
        let mut skipped = Vec::new();
        for &ix in &pref {
            if !self.breaker_admits(ix) {
                skipped.push(ix);
                continue;
            }
            match self.request_on(ix, method, path, body) {
                Ok((status, body)) => {
                    self.breaker_success(ix);
                    return Ok((status, body, ix));
                }
                Err(e) => {
                    self.breaker_failure(ix);
                    last_err = Some(e);
                }
            }
        }
        for ix in skipped {
            match self.request_on(ix, method, path, body) {
                Ok((status, body)) => {
                    self.breaker_success(ix);
                    return Ok((status, body, ix));
                }
                Err(e) => {
                    self.breaker_failure(ix);
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("ring is never empty"))
    }

    /// Sends a recording write to **every** endpoint in the key's top-R
    /// preference (R = [`replication`](Self::replication)). Recording is
    /// deterministic, so each replica computes a bit-identical segment
    /// independently — no primary, no copy protocol, and the write
    /// stays correct under any interleaving. Replica failures are
    /// tolerated as long as at least one endpoint accepts; breakers are
    /// updated but not consulted (skipping a replica write would
    /// silently weaken the replication invariant the caller asked for).
    ///
    /// Returns `(status, body, shard index)` from the best-preference
    /// endpoint that answered.
    ///
    /// # Errors
    ///
    /// The last error, if every replica endpoint failed.
    pub fn request_replicated(
        &mut self,
        key: u64,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String, usize)> {
        let pref = self.ring.preference(key);
        let r = self.replication();
        let mut first: Option<(u16, String, usize)> = None;
        let mut last_err = None;
        for &ix in &pref[..r] {
            match self.request_on(ix, method, path, body) {
                Ok((status, body)) => {
                    self.breaker_success(ix);
                    if first.is_none() {
                        first = Some((status, body, ix));
                    }
                }
                Err(e) => {
                    self.breaker_failure(ix);
                    last_err = Some(e);
                }
            }
        }
        match first {
            Some(result) => Ok(result),
            None => Err(last_err.expect("replication factor is at least 1")),
        }
    }

    /// Sends `method path` to one specific shard (stats aggregation walks
    /// the whole fleet with this). Does not consult or update breakers.
    ///
    /// # Errors
    ///
    /// Connect or I/O failures for that shard.
    pub fn request_on(
        &mut self,
        ix: usize,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        if self.conns[ix].is_none() {
            self.conns[ix] = Some(HttpClient::connect_with(
                &self.ring.endpoints()[ix],
                self.config.clone(),
            )?);
        }
        let client = self.conns[ix].as_mut().expect("just connected");
        let result = client.request(method, path, body);
        if result.is_err() {
            // This shard is unreachable; drop its connection so a later
            // request re-dials instead of reusing a corpse.
            self.conns[ix] = None;
        }
        result
    }
}

fn open_stream(addr: &str, config: &ClientConfig) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    Ok(stream)
}

/// A framed response: bytes consumed, status, Retry-After secs, body.
type Framed = (usize, u16, Option<u32>, Vec<u8>);

/// Frames one response at the front of `buf` and returns it as a
/// [`Framed`] when complete. The body is `Content-Length` bytes (none
/// without the header); a response carrying `Transfer-Encoding` is
/// refused, since the server never sends one and its body would
/// otherwise be misread as empty. Bodies are raw bytes; text callers
/// convert at the edge.
fn frame_response(buf: &[u8]) -> std::io::Result<Option<Framed>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut content_length = 0usize;
    let mut retry_after = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(invalid("Transfer-Encoding responses are not supported"));
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.trim().parse().ok();
            }
        }
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None);
    }
    let body = buf[body_start..body_start + content_length].to_vec();
    Ok(Some((
        body_start + content_length,
        status,
        retry_after,
        body,
    )))
}

fn invalid(msg: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_a_response_with_body() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}tail";
        let (consumed, status, retry_after, body) = frame_response(raw).unwrap().unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{}");
        assert!(retry_after.is_none());
        assert_eq!(&raw[consumed..], b"tail");
    }

    #[test]
    fn waits_for_the_full_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab";
        assert!(frame_response(raw).unwrap().is_none());
    }

    #[test]
    fn a_chunked_response_is_refused_and_what_follows_is_never_read() {
        // The chunk payload is itself a complete response: a client that
        // skipped the refused head and kept reading would take it for the
        // next answer.
        let chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
            2b\r\nHTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nstale\r\n0\r\n\r\n";
        let err = frame_response(chunked).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Over a socket: the first connection answers chunked, the redial
        // answers plainly; the second request must see only the latter.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let answers: [&[u8]; 2] = [
                chunked,
                b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfresh",
            ];
            for answer in answers {
                let (mut conn, _) = listener.accept().unwrap();
                let mut head = Vec::new();
                let mut byte = [0u8; 1];
                while !head.ends_with(b"\r\n\r\n") && conn.read(&mut byte).unwrap() == 1 {
                    head.push(byte[0]);
                }
                conn.write_all(answer).unwrap();
            }
        });
        let mut client = HttpClient::connect(&addr).unwrap();
        let err = client.get("/first").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(client.get("/second").unwrap(), (200, "fresh".to_string()));
        server.join().unwrap();
    }

    #[test]
    fn error_statuses_come_through() {
        let raw = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        let (_, status, _, body) = frame_response(raw).unwrap().unwrap();
        assert_eq!(status, 404);
        assert!(body.is_empty());
    }

    #[test]
    fn retry_after_is_parsed() {
        let raw =
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n";
        let (_, status, retry_after, _) = frame_response(raw).unwrap().unwrap();
        assert_eq!(status, 503);
        assert_eq!(retry_after, Some(1));
    }

    #[test]
    fn ring_placement_is_deterministic_and_roughly_balanced() {
        let endpoints: Vec<String> = (0..4).map(|i| format!("127.0.0.1:808{i}")).collect();
        let a = ShardRing::new(endpoints.clone()).unwrap();
        let b = ShardRing::new(endpoints).unwrap();
        let mut counts = [0usize; 4];
        let mut rng = SplitMix64::from_seed(7);
        for _ in 0..4000 {
            let key = rng.next_u64();
            let owner = a.owner(key);
            assert_eq!(owner, b.owner(key), "two rings must agree");
            let pref = a.preference(key);
            assert_eq!(pref.len(), 4);
            let mut seen = pref.clone();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3], "preference must be a permutation");
            counts[owner] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            // Expectation is 1000 per shard; allow wide slack, catch
            // gross skew (a broken mix collapses onto one endpoint).
            assert!((600..1400).contains(&c), "shard {i} owns {c} of 4000");
        }
    }

    #[test]
    fn removing_an_endpoint_only_moves_its_own_keys() {
        let four: Vec<String> = (0..4).map(|i| format!("10.0.0.{i}:80")).collect();
        let full = ShardRing::new(four.clone()).unwrap();
        let reduced = ShardRing::new(four[..3].to_vec()).unwrap();
        let mut rng = SplitMix64::from_seed(11);
        for _ in 0..2000 {
            let key = rng.next_u64();
            let before = full.owner(key);
            if before != 3 {
                // The defining rendezvous property: keys not owned by the
                // removed endpoint keep their placement.
                assert_eq!(reduced.owner(key), before);
            } else {
                assert!(reduced.owner(key) < 3);
            }
        }
    }

    #[test]
    fn an_empty_endpoint_list_is_rejected_with_a_clear_error() {
        let err = ShardRing::new(Vec::new()).unwrap_err();
        assert_eq!(err.to_string(), "shard ring needs at least one endpoint");
        let io: std::io::Error = err.into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidInput);
        assert!(FleetClient::new(Vec::new(), ClientConfig::default()).is_err());
    }

    #[test]
    fn duplicate_endpoints_collapse_to_first_occurrence_order() {
        let noisy = vec![
            "10.0.0.1:80".to_string(),
            "10.0.0.2:80".to_string(),
            "10.0.0.1:80".to_string(), // repeat of index 0
            "10.0.0.3:80".to_string(),
            "10.0.0.2:80".to_string(), // repeat of index 1
        ];
        let deduped = ShardRing::new(noisy).unwrap();
        assert_eq!(
            deduped.endpoints(),
            &[
                "10.0.0.1:80".to_string(),
                "10.0.0.2:80".to_string(),
                "10.0.0.3:80".to_string()
            ]
        );
        // Placement must match a ring built from the clean list: a
        // duplicated endpoint must not score (and win) twice.
        let clean = ShardRing::new(vec![
            "10.0.0.1:80".to_string(),
            "10.0.0.2:80".to_string(),
            "10.0.0.3:80".to_string(),
        ])
        .unwrap();
        let mut rng = SplitMix64::from_seed(23);
        for _ in 0..1000 {
            let key = rng.next_u64();
            assert_eq!(deduped.owner(key), clean.owner(key));
            assert_eq!(deduped.preference(key), clean.preference(key));
        }
    }

    #[test]
    fn preference_is_always_a_permutation_with_the_owner_first() {
        use cachetime_testkit::{check, prop_assert, prop_assert_eq};
        check(
            "ring_preference_permutation",
            |rng| {
                let n = 1 + (rng.next_u64() % 8) as usize;
                let endpoints: Vec<String> = (0..n)
                    .map(|_| {
                        format!(
                            "10.{}.{}.{}:{}",
                            rng.next_u64() % 256,
                            rng.next_u64() % 256,
                            rng.next_u64() % 256,
                            1024 + rng.next_u64() % 64000
                        )
                    })
                    .collect();
                let keys: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
                (endpoints, keys)
            },
            |(endpoints, keys)| {
                // Shrink towards fewer endpoints and fewer keys.
                let mut smaller = Vec::new();
                if endpoints.len() > 1 {
                    smaller.push((endpoints[..endpoints.len() - 1].to_vec(), keys.clone()));
                }
                if keys.len() > 1 {
                    smaller.push((endpoints.clone(), keys[..1].to_vec()));
                }
                smaller
            },
            |(endpoints, keys)| {
                let ring = ShardRing::new(endpoints.clone()).map_err(|e| e.to_string())?;
                let n = ring.endpoints().len();
                for &key in keys {
                    let pref = ring.preference(key);
                    let mut sorted = pref.clone();
                    sorted.sort_unstable();
                    prop_assert_eq!(
                        sorted,
                        (0..n).collect::<Vec<_>>(),
                        "preference must be a permutation of 0..{n}"
                    );
                    prop_assert_eq!(ring.owner(key), pref[0], "owner must lead the preference");
                    prop_assert!(pref[0] < n, "owner index in range");
                }
                Ok(())
            },
        );
    }

    #[test]
    fn jitter_is_seed_deterministic_and_bounded() {
        let cfg = ClientConfig {
            retry_seed: 42,
            ..ClientConfig::default()
        };
        let mut a = SplitMix64::from_seed(cfg.retry_seed);
        let mut b = SplitMix64::from_seed(cfg.retry_seed);
        for _ in 0..100 {
            let fa = 0.5 + a.next_f64();
            let fb = 0.5 + b.next_f64();
            assert!((0.5..1.5).contains(&fa));
            assert_eq!(fa.to_bits(), fb.to_bits());
        }
    }
}
