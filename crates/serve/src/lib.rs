//! `cachetime-serve` — a long-running simulation server with a
//! content-addressed [`EventTrace`](cachetime::EventTrace) store.
//!
//! The two-phase engine (see `cachetime::replay`) split every simulation
//! into an expensive, timing-free *recording* and a cheap *replay*. This
//! crate turns that split into a service: clients name an
//! `(organization, workload)` pairing, the server records its event trace
//! **once** — concurrent identical requests coalesce onto the same
//! recording — and every later question about that pairing (any cycle
//! time, any memory, any L2) is answered by replay at a small fraction of
//! the cost. Recorded traces live in an LRU store under a byte budget and
//! are addressed by the stable 64-bit keys of `cachetime::keyed`, so a
//! client can hold a key and replay against it for as long as the entry
//! stays resident.
//!
//! Everything is hand-rolled on `std::net` HTTP/1.1 — the workspace's
//! zero-dependency invariant extends to the server, down to the raw
//! `epoll` syscalls in [`poll`]. The transport is a readiness-driven
//! event loop (one thread owns every socket; see [`http`] and DESIGN.md
//! §9): warm replays and everything else non-blocking are answered inline
//! by [`App::try_handle`], and only work that may block on the store —
//! cold recordings and joins of in-flight ones — is handed to a small
//! handler pool via [`App::handle_blocking`].
//!
//! # Endpoints
//!
//! | Endpoint | Body | Answer |
//! |---|---|---|
//! | `POST /v1/traces` | raw trace text (din/ChampSim/lackey; chunked upload supported) | content digest + representative-interval selection |
//! | `POST /v1/simulate` | `{"config": {...}, "trace": {"name": "mu3"}}` — or `{"trace": {"upload": "<digest>"}}` | full `SimResult` + the pairing's key |
//! | `POST /v1/replay` | `{"key": "<hex>", "cycle_times_ns": [20, ...]}` — at most [`MAX_REPLAY_POINTS`] points | one `SimResult` per timing point |
//! | `GET /v1/stats` | — | the registry's store, disk, fleet, ingest and server families as JSON, plus per-endpoint latency |
//! | `GET /v1/metrics` | — | the same registry as Prometheus text exposition |
//! | `GET /healthz` | — | `{"status": "ok"}` |
//! | `POST /v1/shutdown` | — | acknowledges, then stops the server |
//!
//! Requests may be framed by `Content-Length` or (uploads)
//! `Transfer-Encoding: chunked`; every answer is one body framed by
//! `Content-Length`.
//!
//! ```no_run
//! let handle = cachetime_serve::serve(cachetime_serve::ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..Default::default()
//! })?;
//! println!("listening on {}", handle.local_addr());
//! handle.join();
//! # Ok::<(), std::io::Error>(())
//! ```

// `deny` rather than `forbid`: the epoll shim in `poll` is the one module
// allowed to opt back in, with per-block SAFETY comments.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod conn;
pub mod fault;
pub mod http;
pub mod poll;
pub mod stats;
pub mod store;
pub mod upload;

pub use http::{serve, serve_with_app, Request, ServerConfig, ServerHandle};

use cachetime::{keyed, EventTrace, SystemConfig, TimingConfig};
use cachetime_disk::{AdoptOutcome, DiskConfig, DiskMetrics, DiskOp, ScanReport, SegmentStore};
use cachetime_obs::Registry;
use cachetime_trace::import::TraceFormat;
use cachetime_types::{json_object, Json};
use client::{ClientConfig, HttpClient, ShardRing};
use fault::FaultPlan;
use stats::{FleetMetrics, IngestMetrics, ServerStats};
use std::collections::{HashMap, HashSet};
use std::fmt::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::{Fetch, StoreMetrics, TraceStore, TryGet};
use upload::{UploadStore, UploadedTrace};

/// What a `503 Retry-After` tells shed clients to wait, in seconds.
/// Recordings are sub-second at interactive scales, so one second is a
/// full drain on the happy path (the client jitters around it anyway).
pub const RETRY_AFTER_SECS: u32 = 1;

/// The `Content-Type` of every JSON response.
pub const CONTENT_TYPE_JSON: &str = "application/json";
/// The `Content-Type` of the Prometheus text exposition.
pub const CONTENT_TYPE_PROMETHEUS: &str = "text/plain; version=0.0.4";
/// The `Content-Type` of a raw segment transfer (`GET /v1/segments/<key>`).
pub const CONTENT_TYPE_OCTET: &str = "application/octet-stream";

/// One response from the application layer, transport-agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body: JSON everywhere except `/v1/metrics` (Prometheus
    /// text) and `GET /v1/segments/<key>` (a sealed segment container).
    /// The transport frames it with `Content-Length`.
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Whether the server should stop after sending this response.
    pub shutdown: bool,
    /// `Retry-After` header value in seconds, for `503`s.
    pub retry_after: Option<u32>,
}

/// Room for one serialized [`SimResult`](cachetime::SimResult) (about
/// 1.1 KB with no level below L1), so writing one rarely reallocates.
const RESULT_JSON_CAPACITY: usize = 2048;

/// The most timing points one `/v1/replay` may ask for. Each point costs
/// about 1 KB of answer for a few bytes of request, so without a cap a
/// body under the 8 MiB request limit could demand a multi-gigabyte
/// answer. The paper's whole cycle-time axis is 16 points.
pub const MAX_REPLAY_POINTS: usize = 1024;

impl Response {
    fn ok(v: Json) -> Self {
        Response::ok_json(v.to_string())
    }

    /// A `200` whose body is JSON already written as text.
    fn ok_json(body: String) -> Self {
        Response::ok_bytes(body.into_bytes(), CONTENT_TYPE_JSON)
    }

    /// A `200` with the given body and `Content-Type`.
    fn ok_bytes(body: Vec<u8>, content_type: &'static str) -> Self {
        Response {
            status: 200,
            body,
            content_type,
            shutdown: false,
            retry_after: None,
        }
    }

    /// An error response with a JSON `{"error": msg}` body.
    pub fn error(status: u16, msg: &str) -> Self {
        Response {
            status,
            ..Response::ok(json_object([("error", Json::Str(msg.into()))]))
        }
    }

    /// The body as text, for in-process callers (tests, the bench
    /// harness); invalid UTF-8 is replaced, which only a segment body
    /// holds.
    pub fn body_text(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }

    /// A `503` carrying `Retry-After` — the load-shedding answer.
    pub fn unavailable(msg: &str) -> Self {
        Response {
            retry_after: Some(RETRY_AFTER_SECS),
            ..Response::error(503, msg)
        }
    }
}

/// Robustness knobs enforced by [`App`] and the HTTP transport.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Per-request wall-clock budget, covering the head/body read, the
    /// handler (recording included), and the response write. Clients may
    /// lower (never raise) it per request via `X-Deadline-Ms`.
    pub request_deadline: Duration,
    /// Recordings allowed in flight at once; cold requests past the limit
    /// are shed with `503 + Retry-After` while warm traffic keeps flowing.
    pub max_inflight_recordings: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            request_deadline: Duration::from_secs(10),
            max_inflight_recordings: 4,
        }
    }
}

/// Lock domains in the server's trace store: warm replays of different
/// keys proceed in parallel instead of serializing on one store mutex.
/// Eight shards is plenty for the handler pool sizes `ctserve` runs.
const STORE_SHARDS: usize = 8;

/// The `404` for a simulate by upload digest with nothing to record from.
const UNKNOWN_UPLOAD: &str =
    "unknown upload digest: not uploaded yet or evicted; POST /v1/traces first";

/// Fleet membership for a server that participates in peer segment
/// handoff: the full ring of endpoints (self included), which of them is
/// this server, and how widely clients replicate.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Every endpoint of the ring, this server's included. Order does not
    /// matter (rendezvous hashing scores each endpoint independently).
    pub peers: Vec<String>,
    /// This server's own endpoint string; must appear in `peers` exactly
    /// as written there (the ring identifies members by string).
    pub self_addr: String,
    /// Tuning for the peer-fetch HTTP client. Its `replication` is the
    /// fleet-wide replication factor rebalancing preserves: how many
    /// endpoints of a key's preference order hold its segment.
    pub client: ClientConfig,
}

/// Resolved fleet membership held by a running [`App`].
struct FleetState {
    ring: ShardRing,
    self_ix: usize,
    replication: usize,
    client: ClientConfig,
}

/// What one rebalance pass did (`POST /v1/rebalance` answers this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Segments pulled from peers and adopted.
    pub pulled: u64,
    /// Local segments dropped because the ring moved them elsewhere.
    pub dropped: u64,
    /// Transfers rejected by the segment checksum (quarantined).
    pub rejected: u64,
    /// Transport-level fetch failures (peer down, torn read, non-200).
    pub fetch_failures: u64,
}

/// A request [`App::try_handle`] handed back because answering it may
/// block, decoded once on the way: [`App::handle_blocking`] runs it
/// without parsing the body or routing the path again.
pub struct Deferred(Box<Blocking>);

// Boxed whole in `Deferred`: the large variant costs one allocation per
// deferred request, not stack space in every `try_handle` result.
#[allow(clippy::large_enum_variant)]
enum Blocking {
    /// A simulate whose pairing is cold or in flight.
    Simulate {
        config: SystemConfig,
        selector: api::TraceSelector,
        key: u64,
        /// The resident upload to record from; `None` for a catalog
        /// workload, or an upload whose recording is on disk.
        upload: Option<Arc<UploadedTrace>>,
    },
    /// A replay whose key is in flight or absent.
    Replay {
        key: u64,
        timings: Vec<TimingConfig>,
    },
    /// `POST /v1/traces`: parsed on the pool from the request body.
    Ingest,
    /// `GET /v1/segments/<key>`.
    Segment(u64),
    /// `POST /v1/rebalance`.
    Rebalance,
}

impl From<Blocking> for Deferred {
    fn from(work: Blocking) -> Self {
        Deferred(Box::new(work))
    }
}

/// The application state: the trace store plus observability counters.
/// Shared by every worker; all methods are `&self` and thread-safe.
pub struct App {
    /// The content-addressed EventTrace store.
    pub store: TraceStore,
    /// The content-addressed uploaded-trace store (`POST /v1/traces`).
    pub uploads: UploadStore,
    /// Request counters and latency histograms.
    pub stats: ServerStats,
    /// Peer-handoff counters (zero unless the server is in a fleet).
    pub fleet_stats: FleetMetrics,
    /// Trace-ingestion counters (zero until an upload arrives).
    pub ingest_stats: IngestMetrics,
    registry: Arc<Registry>,
    limits: Limits,
    faults: Arc<FaultPlan>,
    /// The durable segment store, when the server runs with `--data-dir`:
    /// fresh recordings spill here (write-behind, on the handler pool) and
    /// memory misses read through before re-recording.
    disk: Option<Arc<SegmentStore>>,
    /// Fleet membership, when the server runs with `--peers`.
    fleet: Option<FleetState>,
}

impl App {
    /// Fresh state with the given store budget and default [`Limits`].
    ///
    /// Each `App` gets its *own* metric registry so servers sharing a
    /// process (tests, mostly) never share counters. A binary that wants
    /// one process-wide scrape passes [`cachetime_obs::global`] to
    /// [`with_registry`](Self::with_registry) instead.
    pub fn new(store_budget_bytes: usize) -> Self {
        Self::with_registry(store_budget_bytes, Arc::new(Registry::new()))
    }

    /// [`new`](Self::new), but registering every store and server metric
    /// in `registry` — which is also what `GET /v1/metrics` renders, so
    /// handing in a shared registry widens the scrape to everything else
    /// recorded there (core phase spans, sweep timings, ...).
    pub fn with_registry(store_budget_bytes: usize, registry: Arc<Registry>) -> Self {
        App {
            store: TraceStore::sharded_with_metrics(
                store_budget_bytes,
                STORE_SHARDS,
                StoreMetrics::in_registry(&registry),
            ),
            uploads: UploadStore::new(upload::DEFAULT_UPLOAD_BUDGET_BYTES),
            stats: ServerStats::in_registry(&registry),
            fleet_stats: FleetMetrics::in_registry(&registry),
            ingest_stats: IngestMetrics::in_registry(&registry),
            registry,
            limits: Limits::default(),
            faults: Arc::new(FaultPlan::inert()),
            disk: None,
            fleet: None,
        }
    }

    /// The registry backing this app's metrics (rendered by
    /// `GET /v1/metrics`).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Replaces the robustness limits (builder-style).
    #[must_use]
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Installs a fault-injection plan (builder-style; tests only — the
    /// default plan is inert). Call before [`with_disk`](Self::with_disk):
    /// the disk fault hook captures the plan installed at attach time.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Arc::new(faults);
        self
    }

    /// Opens the durable segment store `config` describes and attaches it
    /// (builder-style): its `cachetime_disk_*` metrics register in the
    /// app's registry, and the app's fault plan is wired into the store's
    /// `disk.write`/`disk.read` points. Call
    /// [`recover_from_disk`](Self::recover_from_disk) afterwards to warm
    /// the in-memory store, before serving traffic.
    ///
    /// # Errors
    ///
    /// Any I/O error opening or creating the store's directories.
    pub fn with_disk(mut self, config: DiskConfig) -> std::io::Result<Self> {
        let disk =
            SegmentStore::open_with_metrics(config, DiskMetrics::in_registry(&self.registry))?;
        let plan = Arc::clone(&self.faults);
        let disk = disk.with_fault_hook(Arc::new(move |op, _key, len| {
            let point = match op {
                DiskOp::Write => "disk.write",
                DiskOp::Read => "disk.read",
            };
            plan.decide_disk(point, len)
        }));
        self.disk = Some(Arc::new(disk));
        Ok(self)
    }

    /// The attached durable store, if any.
    pub fn disk(&self) -> Option<&Arc<SegmentStore>> {
        self.disk.as_ref()
    }

    /// Joins a fleet (builder-style): the server becomes one member of a
    /// rendezvous ring and will serve/pull/drop segments along it. Call
    /// after [`with_disk`](Self::with_disk) — handoff is meaningless
    /// without a durable store to move segments in and out of.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the peer list is empty, `self_addr` is not one
    /// of the peers, or no durable store is attached.
    pub fn with_fleet(mut self, config: FleetConfig) -> std::io::Result<Self> {
        if self.disk.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a fleet member needs a durable store (--data-dir)",
            ));
        }
        let ring = ShardRing::new(config.peers)?;
        let Some(self_ix) = ring.endpoints().iter().position(|e| *e == config.self_addr) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "self address {:?} is not one of the peers",
                    config.self_addr
                ),
            ));
        };
        let replication = config.client.replication.clamp(1, ring.endpoints().len());
        self.fleet = Some(FleetState {
            ring,
            self_ix,
            replication,
            client: config.client,
        });
        Ok(self)
    }

    /// Runs the durable store's startup scan, streaming every intact
    /// segment into the in-memory store (without disturbing its hit/miss
    /// accounting) and quarantining the rest. A no-op without a disk.
    ///
    /// # Errors
    ///
    /// Only directory-level I/O errors; per-segment corruption is
    /// absorbed (quarantined and counted), never fatal.
    pub fn recover_from_disk(&self) -> std::io::Result<ScanReport> {
        let Some(disk) = &self.disk else {
            return Ok(ScanReport::default());
        };
        let store = &self.store;
        disk.scan(|key, trace| {
            store.seed(key, Arc::new(trace));
        })
    }

    /// The active robustness limits.
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// The fault plan (inert unless a test armed one).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Whether the server is currently shedding cold load: the recording
    /// admission limit is saturated. Warm replays still serve; `/healthz`
    /// reports `"degraded"` until the gauge drops.
    pub fn is_degraded(&self) -> bool {
        self.store.stats().in_flight >= self.limits.max_inflight_recordings
    }

    /// Sets the gauges that a scrape reads but no request path updates:
    /// the load-shedding state, the store's byte budget, and the upload
    /// store's residency. `/v1/stats` and `/v1/metrics` both call it
    /// before reading the registry.
    fn refresh_gauges(&self) {
        self.stats.degraded.set(self.is_degraded() as i64);
        let budget = i64::try_from(self.store.budget_bytes()).unwrap_or(i64::MAX);
        self.stats.store_budget.set(budget);
        let (entries, bytes) = self.uploads.stats();
        self.ingest_stats.resident_entries.set(entries as i64);
        self.ingest_stats.resident_bytes.set(bytes as i64);
    }

    /// The wall-clock deadline for a request arriving now: the server cap,
    /// lowered (never raised) by the request's `X-Deadline-Ms`.
    pub fn deadline_for(&self, req: &Request) -> Instant {
        let budget = match req.deadline_ms {
            Some(ms) => Duration::from_millis(ms).min(self.limits.request_deadline),
            None => self.limits.request_deadline,
        };
        Instant::now() + budget
    }

    /// Routes one request. Infallible: every failure becomes a JSON error
    /// response with the appropriate status.
    ///
    /// Equivalent to [`try_handle`](Self::try_handle) followed by
    /// [`handle_blocking`](Self::handle_blocking) on a [`Deferred`] —
    /// which is exactly how the event loop splits it across threads;
    /// in-process callers (tests, the bench harness) just call this.
    ///
    /// # Panics
    ///
    /// Only via an armed fault plan (the transport's `catch_unwind` turns
    /// that into a `500`); production plans are inert.
    pub fn handle(&self, req: &Request) -> Response {
        let deadline = self.deadline_for(req);
        self.try_handle(req)
            .unwrap_or_else(|work| self.handle_blocking(req, work, deadline))
    }

    /// The non-blocking half of [`handle`](Self::handle): answers
    /// everything that cannot block on the store — health, stats, metrics,
    /// shutdown, routing and parse errors, *warm* simulates and replays —
    /// and returns `Err` with the decoded request for work that might (a
    /// cold recording, or a join of one already in flight). The event
    /// loop runs this inline on the loop thread; `Err` means "hand the
    /// request to the pool".
    ///
    /// Counting discipline: the store's `try_get` counts a lookup only on
    /// a hit, so a request that falls through to
    /// [`handle_blocking`](Self::handle_blocking) is counted exactly once
    /// there (miss/coalesced/shed/absent), never double.
    ///
    /// # Errors
    ///
    /// The [`Deferred`] request, when answering it may block.
    ///
    /// # Panics
    ///
    /// Only via an armed fault plan — `serve.handle` fires here (once per
    /// request; the blocking half never re-injects it).
    pub fn try_handle(&self, req: &Request) -> Result<Response, Deferred> {
        self.faults.inject("serve.handle");
        Ok(match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::ok(json_object([(
                "status",
                if self.is_degraded() { "degraded" } else { "ok" },
            )])),
            ("GET", "/v1/stats") => {
                self.refresh_gauges();
                Response::ok(stats::stats_json(&self.registry))
            }
            ("GET", "/v1/metrics") => {
                self.refresh_gauges();
                match metrics_family_filter(req.query.as_deref()) {
                    Ok(prefix) => Response::ok_bytes(
                        self.registry
                            .render_prometheus_filtered(prefix)
                            .into_bytes(),
                        CONTENT_TYPE_PROMETHEUS,
                    ),
                    Err(msg) => Response::error(400, msg),
                }
            }
            ("POST", "/v1/simulate") => return self.try_simulate(&req.body),
            ("POST", "/v1/replay") => return self.try_replay(&req.body),
            // Parsing and profiling a multi-megabyte upload is CPU-bound:
            // handler-pool work, never the loop thread's.
            ("POST", "/v1/traces") => return Err(Blocking::Ingest.into()),
            // The segment key list is an index read — no disk I/O.
            ("GET", "/v1/segments") => self.segment_keys(),
            // A segment body read and a rebalance pass both touch the
            // disk (the latter the network too): handler-pool work.
            ("GET", p) if p.starts_with("/v1/segments/") => {
                match api::parse_key_hex(&p["/v1/segments/".len()..]) {
                    Ok(key) => return Err(Blocking::Segment(key).into()),
                    Err(msg) => Response::error(400, &msg),
                }
            }
            ("POST", "/v1/rebalance") => return Err(Blocking::Rebalance.into()),
            ("POST", "/v1/shutdown") => Response {
                shutdown: true,
                ..Response::ok(json_object([("status", "shutting down")]))
            },
            ("GET" | "POST", _) => Response::error(404, "no such endpoint"),
            _ => Response::error(405, "method not allowed"),
        })
    }

    /// The blocking half of [`handle`](Self::handle): runs the request
    /// [`try_handle`](Self::try_handle) deferred to completion, waiting on
    /// or performing recordings as needed. `req` is the request `work`
    /// was decoded from. It does not re-inject `serve.handle`.
    pub fn handle_blocking(&self, req: &Request, work: Deferred, deadline: Instant) -> Response {
        match *work.0 {
            Blocking::Simulate {
                config,
                selector,
                key,
                upload,
            } => self.simulate(&config, &selector, key, upload, deadline),
            Blocking::Replay { key, timings } => self.replay(key, &timings, deadline),
            Blocking::Ingest => self.ingest(req),
            Blocking::Segment(key) => self.segment(key),
            Blocking::Rebalance => match self.rebalance() {
                Ok(report) => Response::ok(json_object([
                    ("pulled", Json::UInt(report.pulled)),
                    ("dropped", Json::UInt(report.dropped)),
                    ("rejected", Json::UInt(report.rejected)),
                    ("fetch_failures", Json::UInt(report.fetch_failures)),
                ])),
                Err(e) => Response::error(400, &e.to_string()),
            },
        }
    }

    /// `GET /v1/segments`: the durable store's key index as hex strings.
    /// An empty list for a memory-only server — peers treat it as
    /// "nothing to hand off", not an error.
    fn segment_keys(&self) -> Response {
        let keys = match &self.disk {
            Some(disk) => {
                let mut keys = disk.keys();
                keys.sort_unstable();
                keys.iter().map(|&k| Json::Str(api::key_hex(k))).collect()
            }
            None => Vec::new(),
        };
        Response::ok(json_object([("keys", Json::Array(keys))]))
    }

    /// `GET /v1/segments/<key>`: the raw sealed segment container,
    /// checksum-verified before it leaves this server (a locally corrupt
    /// segment 404s and is quarantined, never shipped).
    fn segment(&self, key: u64) -> Response {
        let Some(disk) = &self.disk else {
            return Response::error(404, "this server has no durable store");
        };
        match disk.read_sealed(key) {
            Some(bytes) => Response::ok_bytes(bytes, CONTENT_TYPE_OCTET),
            None => Response::error(404, "no such segment"),
        }
    }

    /// One rebalance pass along the current ring: pull every segment the
    /// ring places on this server (within the replication factor) that is
    /// missing locally, and drop every local segment the ring has moved
    /// elsewhere — but only after a current owner confirmed holding it, so
    /// a partitioned or misconfigured peer list can never orphan a key's
    /// last copy.
    ///
    /// Runs at boot (`ctserve --peers`) and on `POST /v1/rebalance`.
    /// Unreachable peers are counted as fetch failures and skipped, never
    /// fatal: a pass against a half-up fleet does what it can.
    ///
    /// Every adopted transfer is checksum- and decode-verified
    /// ([`SegmentStore::adopt`]); a corrupt transfer is quarantined and
    /// counted, and the next holder in the key's preference order is
    /// tried.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the server is not in a fleet. Per-peer and
    /// per-segment failures are absorbed into the report.
    pub fn rebalance(&self) -> std::io::Result<RebalanceReport> {
        let Some(fleet) = &self.fleet else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "this server is not part of a fleet (start with --peers)",
            ));
        };
        let disk = self
            .disk
            .as_ref()
            .expect("with_fleet requires a durable store");
        let r = fleet.replication;
        let mut report = RebalanceReport::default();
        let mut conns: HashMap<usize, HttpClient> = HashMap::new();

        // Phase 1: every reachable peer's key index.
        let mut peer_keys: HashMap<usize, HashSet<u64>> = HashMap::new();
        for (ix, endpoint) in fleet.ring.endpoints().iter().enumerate() {
            if ix == fleet.self_ix {
                continue;
            }
            match fetch_peer_keys(&mut conns, ix, endpoint, &fleet.client) {
                Ok(keys) => {
                    peer_keys.insert(ix, keys);
                }
                Err(_) => {
                    report.fetch_failures += 1;
                    self.fleet_stats.fetch_failures.inc();
                }
            }
        }

        // Phase 2: pull what the ring places here. Keys are visited in
        // sorted order so two rebalances of the same fleet state transfer
        // in the same order (determinism the chaos tests lean on).
        let mut wanted: Vec<u64> = peer_keys
            .values()
            .flatten()
            .copied()
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        wanted.sort_unstable();
        for key in wanted {
            let pref = fleet.ring.preference(key);
            if !pref[..r].contains(&fleet.self_ix) || disk.contains(key) {
                continue;
            }
            // Holders in the key's preference order: the most preferred
            // copy is the one every other client reads, so it is the one
            // to clone.
            for &ix in &pref {
                if ix == fleet.self_ix || !peer_keys.get(&ix).is_some_and(|ks| ks.contains(&key)) {
                    continue;
                }
                let endpoint = &fleet.ring.endpoints()[ix];
                let started = Instant::now();
                let sealed = match fetch_segment(&mut conns, ix, endpoint, &fleet.client, key) {
                    Ok(bytes) => bytes,
                    Err(_) => {
                        report.fetch_failures += 1;
                        self.fleet_stats.fetch_failures.inc();
                        continue;
                    }
                };
                // The peer.fetch fault point: chaos tests tear, bit-flip,
                // or fail (`None`) the transfer between the wire and
                // adoption.
                let fault = self.faults.decide_disk("peer.fetch", sealed.len());
                let sealed = match cachetime_disk::mangle(&sealed, fault) {
                    Some(bytes) => bytes,
                    None => {
                        report.fetch_failures += 1;
                        self.fleet_stats.fetch_failures.inc();
                        continue;
                    }
                };
                match disk.adopt(key, &sealed) {
                    Ok(AdoptOutcome::Installed(trace)) => {
                        self.store.seed(key, Arc::new(trace));
                        report.pulled += 1;
                        self.fleet_stats.pulled.inc();
                        self.fleet_stats.fetch_us.record_with_exemplar(
                            started.elapsed().as_micros() as u64,
                            "key",
                            api::key_hex(key),
                        );
                        break;
                    }
                    Ok(AdoptOutcome::AlreadyPresent) => break,
                    Ok(AdoptOutcome::Rejected) => {
                        // Quarantined by the store; try the next holder.
                        report.rejected += 1;
                        self.fleet_stats.rejected.inc();
                    }
                    Err(_) => {
                        report.fetch_failures += 1;
                        self.fleet_stats.fetch_failures.inc();
                    }
                }
            }
        }

        // Phase 3: drop what the ring moved elsewhere — only keys a
        // current in-preference owner is confirmed (this pass) to hold.
        let mut local = disk.keys();
        local.sort_unstable();
        for key in local {
            let pref = fleet.ring.preference(key);
            if pref[..r].contains(&fleet.self_ix) {
                continue;
            }
            let covered = pref[..r]
                .iter()
                .any(|ix| peer_keys.get(ix).is_some_and(|ks| ks.contains(&key)));
            if covered && disk.remove(key) {
                report.dropped += 1;
                self.fleet_stats.dropped.inc();
            }
        }

        self.fleet_stats.rebalances.inc();
        Ok(report)
    }

    /// Whether the durable store's index holds `key` (false without a
    /// disk). An index read, never segment I/O.
    fn on_disk(&self, key: u64) -> bool {
        self.disk.as_ref().is_some_and(|d| d.contains(key))
    }

    /// `POST /v1/traces`: ingest one uploaded trace body.
    ///
    /// The body is raw trace text in any supported format (din,
    /// ChampSim-style, valgrind-lackey), framed by `Content-Length` or
    /// `Transfer-Encoding: chunked`. Query parameters:
    /// `format=din|champsim|lackey` (sniffed from the first lines when
    /// absent), `name=<label>`, `warm=<refs>` (warm-up prefix length),
    /// `window=<refs>` and `picks=<k>` (representative-interval
    /// selection; defaults adapt to the trace length).
    ///
    /// The answer carries the upload's content digest — the handle
    /// `/v1/simulate` accepts as `{"trace": {"upload": "<digest>"}}` —
    /// plus the interval selection: at most `picks` windows with weights,
    /// and the selection's self-measured `profile_error`.
    fn ingest(&self, req: &Request) -> Response {
        let mut format = None;
        let mut name = String::from("upload");
        let mut warm = 0usize;
        let mut window = None;
        let mut picks = upload::DEFAULT_PICKS;
        for pair in req
            .query
            .as_deref()
            .unwrap_or("")
            .split('&')
            .filter(|p| !p.is_empty())
        {
            let reject = |msg: String| {
                self.ingest_stats.rejected.inc();
                Response::error(400, &msg)
            };
            match pair.split_once('=') {
                Some(("format", v)) => match TraceFormat::from_name(v) {
                    Some(f) => format = Some(f),
                    None => {
                        return reject(format!(
                            "unknown format {v:?}; expected din, champsim, or lackey"
                        ))
                    }
                },
                Some(("name", v)) => name = v.to_string(),
                Some(("warm", v)) => match v.parse() {
                    Ok(n) => warm = n,
                    Err(_) => return reject("warm must be a non-negative integer".into()),
                },
                Some(("window", v)) => match v.parse::<usize>() {
                    Ok(n) if n > 0 => window = Some(n),
                    _ => return reject("window must be a positive integer".into()),
                },
                Some(("picks", v)) => match v.parse::<usize>() {
                    Ok(n) if n > 0 => picks = n,
                    _ => return reject("picks must be a positive integer".into()),
                },
                _ => {
                    return reject(format!(
                        "unknown query parameter {pair:?}; traces accepts format, name, warm, window, picks"
                    ))
                }
            }
        }
        if req.body.is_empty() {
            self.ingest_stats.rejected.inc();
            return Response::error(400, "empty upload body");
        }
        let (trace, digest, format, truncated) =
            match upload::ingest(&req.body, format, &name, warm) {
                Ok(parsed) => parsed,
                Err(msg) => {
                    self.ingest_stats.rejected.inc();
                    return Response::error(400, &msg);
                }
            };
        let refs = trace.len() as u64;
        let warm_start = trace.warm_start() as u64;
        let (profile, selection) = upload::select_intervals(&trace, window, picks);
        let inserted = self.uploads.insert(upload::UploadedTrace {
            digest,
            trace: Arc::new(trace),
            format,
            truncated,
        });
        self.ingest_stats.uploads.inc();
        if !inserted.fresh {
            self.ingest_stats.deduplicated.inc();
        }
        self.ingest_stats.evicted.add(inserted.evicted);
        self.ingest_stats.refs.add(refs);
        self.ingest_stats.bytes.add(req.body.len() as u64);
        self.ingest_stats.truncated.add(truncated);
        let picks_json: Vec<Json> = selection
            .picks
            .iter()
            .map(|p| {
                json_object([
                    ("window", Json::UInt(p.window as u64)),
                    ("start_ref", Json::UInt(p.start_ref as u64)),
                    ("len", Json::UInt(p.len as u64)),
                    ("weight", Json::Float(p.weight)),
                ])
            })
            .collect();
        Response::ok(json_object([
            ("digest", Json::Str(api::key_hex(digest))),
            ("format", Json::Str(format.name().into())),
            ("refs", Json::UInt(refs)),
            ("warm_start", Json::UInt(warm_start)),
            ("truncated_refs", Json::UInt(truncated)),
            ("deduplicated", Json::Bool(!inserted.fresh)),
            (
                "selection",
                json_object([
                    ("window_refs", Json::UInt(profile.window_refs as u64)),
                    ("windows", Json::UInt(profile.windows.len() as u64)),
                    ("picks", Json::Array(picks_json)),
                    ("profile_error", Json::Float(selection.profile_error)),
                    (
                        "error_bound",
                        Json::Float(cachetime_trace::interval::PROFILE_ERROR_BOUND),
                    ),
                ]),
            ),
        ]))
    }

    /// The warm-path simulate: answered inline iff the pairing's trace is
    /// resident. Parse and validation errors, and an upload that can never
    /// be recorded, are also answered inline — they never block.
    fn try_simulate(&self, body: &[u8]) -> Result<Response, Deferred> {
        let (config, selector) = match decode_simulate(body) {
            Ok(decoded) => decoded,
            Err(resp) => return Ok(resp),
        };
        let org = config.organization();
        let key = match &selector {
            api::TraceSelector::Catalog(w) => keyed::trace_key(&org, w),
            api::TraceSelector::Upload(digest) => keyed::upload_trace_key(&org, *digest),
        };
        if let TryGet::Ready(events) = self.store.try_get(key) {
            return Ok(simulate_response(key, true, &events, &config));
        }
        // Cold or in flight: the pool records or joins. An upload must be
        // resident (or its recording on disk) to record from; a catalog
        // workload can always be regenerated.
        let upload = match selector {
            api::TraceSelector::Catalog(_) => None,
            api::TraceSelector::Upload(digest) => {
                let up = self.uploads.get(digest);
                if up.is_none() && !self.on_disk(key) {
                    return Ok(Response::error(404, UNKNOWN_UPLOAD));
                }
                up
            }
        };
        Err(Blocking::Simulate {
            config,
            selector,
            key,
            upload,
        }
        .into())
    }

    /// The warm-path replay: answered inline iff the key's trace is
    /// resident. `Absent` also defers to the pool so the store's
    /// absent-lookup counting happens exactly once, in `replay`.
    fn try_replay(&self, body: &[u8]) -> Result<Response, Deferred> {
        let (key, timings) = match decode_replay(body) {
            Ok(decoded) => decoded,
            Err(resp) => return Ok(resp),
        };
        match self.store.try_get(key) {
            TryGet::Ready(events) => Ok(replay_response(key, &events, &timings)),
            // In flight (join it) or absent (count + 404).
            _ => Err(Blocking::Replay { key, timings }.into()),
        }
    }

    /// `POST /v1/simulate`: full config + workload → one `SimResult`.
    ///
    /// The organization/workload pairing is resolved to its content key;
    /// a store hit skips straight to replay, a miss records (coalescing
    /// with any concurrent identical request) and then replays. Cold
    /// requests are admission-controlled: past
    /// [`Limits::max_inflight_recordings`] they shed with `503 +
    /// Retry-After` instead of queueing unbounded recording work, and a
    /// request whose deadline lapses waiting on (or performing) a
    /// recording answers `503` — the recording still lands, so the retry
    /// is warm.
    fn simulate(
        &self,
        config: &SystemConfig,
        selector: &api::TraceSelector,
        key: u64,
        upload: Option<Arc<UploadedTrace>>,
        deadline: Instant,
    ) -> Response {
        let org = config.organization();
        // Distinguishes a disk read-through from a fresh recording after
        // the closure runs: only fresh recordings spill back to disk.
        let from_disk = std::cell::Cell::new(false);
        let fetched = self.store.fetch_or_record(
            key,
            self.limits.max_inflight_recordings,
            Some(deadline),
            || {
                if let Some(disk) = &self.disk {
                    if let Some(trace) = disk.load(key) {
                        from_disk.set(true);
                        return Some(trace);
                    }
                }
                self.faults.inject("serve.record");
                match selector {
                    api::TraceSelector::Catalog(w) => Some(keyed::record(&org, w).1),
                    // Admitted because its segment was on disk; if that
                    // failed to load (corrupt, unreadable, or evicted
                    // since), there is nothing left to record from.
                    api::TraceSelector::Upload(digest) => upload
                        .as_ref()
                        .map(|up| keyed::record_upload(&org, *digest, &up.trace).1),
                }
            },
        );
        let (events, cached) = match fetched {
            None => return Response::error(404, UNKNOWN_UPLOAD),
            Some(Fetch::Ready(events, cached)) => (events, cached),
            Some(Fetch::Shed) => {
                self.stats.shed.inc();
                return Response::unavailable(
                    "recording capacity exhausted; retry shortly or replay a warm key",
                );
            }
            Some(Fetch::TimedOut) => {
                self.stats.timeouts.inc();
                return Response::unavailable(
                    "deadline exceeded waiting for this pairing's recording; retry shortly",
                );
            }
        };
        if !cached && !from_disk.get() {
            // Write-behind spill: this code only runs on the handler pool
            // (cold work never executes on the event loop), so the disk
            // write steals no loop time. Failures are counted by the disk
            // metrics and degrade to memory-only behavior.
            if let Some(disk) = &self.disk {
                let _ = disk.store(key, &events);
            }
        }
        if !cached && Instant::now() > deadline {
            // The recording ran past the request's budget. It is stored —
            // the client's retry will hit — but this answer is already
            // late, so say so instead of pretending it was on time.
            self.stats.timeouts.inc();
            return Response::unavailable(
                "deadline exceeded while recording; the trace is now warm — retry",
            );
        }
        simulate_response(key, cached, &events, config)
    }

    /// `POST /v1/replay`: a previously recorded key + a cycle-time axis →
    /// one `SimResult` per point, without resending the organization.
    ///
    /// Replay never records, so it is exempt from the recording admission
    /// limit — the warm path that keeps serving while the server sheds
    /// cold load. Only joining an in-flight recording is deadline-bounded.
    fn replay(&self, key: u64, timings: &[TimingConfig], deadline: Instant) -> Response {
        let events = match self.store.get_within(key, Some(deadline)) {
            Ok(Some(events)) => events,
            Ok(None) => {
                // Memory miss: read through to the durable store before
                // giving up — an evicted (or pre-restart) key may still
                // have its segment on disk. Seed it back so the next
                // replay is a memory hit again.
                match self.disk.as_ref().and_then(|d| d.load(key)) {
                    Some(trace) => {
                        let events = Arc::new(trace);
                        self.store.seed(key, Arc::clone(&events));
                        events
                    }
                    None => {
                        return Response::error(
                            404,
                            "unknown key: not recorded yet or evicted; POST /v1/simulate first",
                        )
                    }
                }
            }
            Err(store::DeadlineExceeded) => {
                self.stats.timeouts.inc();
                return Response::unavailable(
                    "deadline exceeded waiting for this key's recording; retry shortly",
                );
            }
        };
        replay_response(key, &events, timings)
    }
}

/// Decodes a `/v1/simulate` body into its configuration and trace
/// selector; `Err` is the `400` to answer.
fn decode_simulate(body: &[u8]) -> Result<(SystemConfig, api::TraceSelector), Response> {
    let v = parse_body(body)?;
    let config =
        api::system_config_from_json(v.get("config")).map_err(|msg| Response::error(400, &msg))?;
    let selector =
        api::trace_selector_from_json(v.get("trace")).map_err(|msg| Response::error(400, &msg))?;
    Ok((config, selector))
}

/// Decodes a `/v1/replay` body into its key and timing axis; `Err` is the
/// `400` to answer.
fn decode_replay(body: &[u8]) -> Result<(u64, Vec<TimingConfig>), Response> {
    let v = parse_body(body)?;
    let key = match v.get("key").and_then(Json::as_str) {
        Some(s) => api::parse_key_hex(s).map_err(|msg| Response::error(400, &msg))?,
        None => return Err(Response::error(400, "key (hex string) is required")),
    };
    let cts = match v.get("cycle_times_ns").and_then(Json::as_array) {
        Some(a) if !a.is_empty() => a,
        _ => {
            return Err(Response::error(
                400,
                "cycle_times_ns must be a non-empty array",
            ))
        }
    };
    if cts.len() > MAX_REPLAY_POINTS {
        return Err(Response::error(
            400,
            &format!(
                "cycle_times_ns has {} points; MAX_REPLAY_POINTS allows at most {MAX_REPLAY_POINTS} per request",
                cts.len()
            ),
        ));
    }
    // The timing base the axis perturbs: defaults to the paper's, or the
    // request's `timing` object (same schema as `config`; its
    // organization half is ignored — the key names the organization).
    let base = api::system_config_from_json(v.get("timing"))
        .map_err(|msg| Response::error(400, &msg))?
        .timing();
    let mut timings = Vec::with_capacity(cts.len());
    for ct in cts {
        let ns = ct
            .as_u64()
            .ok_or_else(|| Response::error(400, "cycle_times_ns entries must be integers"))?;
        let cycle_time = u32::try_from(ns)
            .ok()
            .and_then(|n| cachetime_types::CycleTime::from_ns(n).ok())
            .ok_or_else(|| Response::error(400, "cycle time out of range"))?;
        timings.push(TimingConfig { cycle_time, ..base });
    }
    Ok((key, timings))
}

/// The `/v1/simulate` answer: `events` replayed under `config`.
fn simulate_response(
    key: u64,
    cached: bool,
    events: &EventTrace,
    config: &SystemConfig,
) -> Response {
    match cachetime::replay(events, config) {
        Ok(result) => {
            let mut body = String::with_capacity(64 + RESULT_JSON_CAPACITY);
            let _ = write!(
                body,
                "{{\"key\":\"{}\",\"cached\":{cached},\"result\":",
                api::key_hex(key)
            );
            api::write_sim_result(&result, &mut body);
            body.push('}');
            Response::ok_json(body)
        }
        // Unreachable unless two pairings collide on the 64-bit key.
        Err(e) => Response::error(500, &e.to_string()),
    }
}

/// Lazily opens (and caches for the rest of the pass) the rebalance
/// connection to peer `ix`.
fn peer_conn<'a>(
    conns: &'a mut HashMap<usize, HttpClient>,
    ix: usize,
    endpoint: &str,
    config: &ClientConfig,
) -> std::io::Result<&'a mut HttpClient> {
    use std::collections::hash_map::Entry;
    match conns.entry(ix) {
        Entry::Occupied(e) => Ok(e.into_mut()),
        Entry::Vacant(v) => Ok(v.insert(HttpClient::connect_with(endpoint, config.clone())?)),
    }
}

/// `GET /v1/segments` against one peer, parsed into a key set.
fn fetch_peer_keys(
    conns: &mut HashMap<usize, HttpClient>,
    ix: usize,
    endpoint: &str,
    config: &ClientConfig,
) -> std::io::Result<HashSet<u64>> {
    let conn = peer_conn(conns, ix, endpoint, config)?;
    let (status, body) = conn.request("GET", "/v1/segments", "")?;
    if status != 200 {
        return Err(std::io::Error::other(format!(
            "peer {endpoint} answered {status} to a key-list request"
        )));
    }
    let v = Json::parse(&body).map_err(std::io::Error::other)?;
    let mut keys = HashSet::new();
    if let Some(items) = v.get("keys").and_then(Json::as_array) {
        for item in items {
            if let Some(key) = item.as_str().and_then(|s| api::parse_key_hex(s).ok()) {
                keys.insert(key);
            }
        }
    }
    Ok(keys)
}

/// `GET /v1/segments/<key>` against one peer: the raw sealed container.
fn fetch_segment(
    conns: &mut HashMap<usize, HttpClient>,
    ix: usize,
    endpoint: &str,
    config: &ClientConfig,
    key: u64,
) -> std::io::Result<Vec<u8>> {
    let conn = peer_conn(conns, ix, endpoint, config)?;
    let path = format!("/v1/segments/{}", api::key_hex(key));
    let (status, bytes) = conn.request_bytes("GET", &path, "")?;
    if status != 200 {
        return Err(std::io::Error::other(format!(
            "peer {endpoint} answered {status} for segment {}",
            api::key_hex(key)
        )));
    }
    Ok(bytes)
}

/// The `/v1/replay` answer: `events` replayed at every timing point, or
/// the `400` for an axis the recording cannot be replayed under.
fn replay_response(key: u64, events: &EventTrace, timings: &[TimingConfig]) -> Response {
    let results = match keyed::replay_timings(events, timings) {
        Ok(results) => results,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let mut body = String::with_capacity(64 + results.len() * RESULT_JSON_CAPACITY);
    let _ = write!(body, "{{\"key\":\"{}\",\"results\":[", api::key_hex(key));
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        api::write_sim_result(r, &mut body);
    }
    body.push_str("]}");
    Response::ok_json(body)
}

/// Resolves the `/v1/metrics` query into a family-name prefix: no query
/// (or an empty one) means everything; `family=<prefix>` restricts the
/// exposition. Anything else is a client error — silently ignoring a
/// misspelled parameter would scrape the wrong (full-size) payload.
fn metrics_family_filter(query: Option<&str>) -> Result<&str, &'static str> {
    let mut prefix = "";
    for pair in query.unwrap_or("").split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some(("family", p)) => prefix = p,
            _ => return Err("metrics accepts only a family=<prefix> query parameter"),
        }
    }
    Ok(prefix)
}

fn parse_body(body: &[u8]) -> Result<Json, Response> {
    let text =
        std::str::from_utf8(body).map_err(|_| Response::error(400, "body must be UTF-8 JSON"))?;
    if text.trim().is_empty() {
        return Err(Response::error(400, "body must be a JSON object"));
    }
    Json::parse(text).map_err(|e| Response::error(400, &e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            query: None,
            body: body.as_bytes().to_vec(),
            keep_alive: true,
            deadline_ms: None,
        }
    }

    fn parse(resp: &Response) -> Json {
        Json::parse(&resp.body_text()).expect("response bodies are JSON")
    }

    #[test]
    fn healthz_and_stats_respond() {
        let app = App::new(usize::MAX);
        let r = app.handle(&req("GET", "/healthz", ""));
        assert_eq!(r.status, 200);
        assert_eq!(parse(&r).get("status").and_then(Json::as_str), Some("ok"));
        let r = app.handle(&req("GET", "/v1/stats", ""));
        assert_eq!(r.status, 200);
        assert!(parse(&r).get("store").is_some());
    }

    #[test]
    fn unknown_routes_and_methods() {
        let app = App::new(usize::MAX);
        assert_eq!(app.handle(&req("GET", "/nope", "")).status, 404);
        assert_eq!(app.handle(&req("DELETE", "/healthz", "")).status, 405);
    }

    #[test]
    fn simulate_records_then_hits_and_replay_matches() {
        let app = App::new(usize::MAX);
        let body = r#"{"trace": {"name": "mu3", "scale": 0.005}}"#;
        let first = app.handle(&req("POST", "/v1/simulate", body));
        assert_eq!(first.status, 200, "{}", first.body_text());
        let first = parse(&first);
        assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
        let key = first.get("key").and_then(Json::as_str).unwrap().to_string();

        let second = parse(&app.handle(&req("POST", "/v1/simulate", body)));
        assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(second.get("result"), first.get("result"));

        // Replay at the simulate default (40 ns) must reproduce the
        // simulate result bit-for-bit.
        let replay_body = format!(r#"{{"key": "{key}", "cycle_times_ns": [40, 20]}}"#);
        let r = app.handle(&req("POST", "/v1/replay", &replay_body));
        assert_eq!(r.status, 200, "{}", r.body_text());
        let r = parse(&r);
        let results = r.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(Some(&results[0]), first.get("result"));
        assert_ne!(results[0], results[1], "cycle time must matter");
    }

    #[test]
    fn replay_of_an_unknown_key_is_404() {
        let app = App::new(usize::MAX);
        let r = app.handle(&req(
            "POST",
            "/v1/replay",
            r#"{"key": "00000000deadbeef", "cycle_times_ns": [40]}"#,
        ));
        assert_eq!(r.status, 404);
    }

    #[test]
    fn malformed_bodies_are_400s_with_messages() {
        let app = App::new(usize::MAX);
        for body in [
            "",
            "{",
            r#"{"trace": {"name": "nonesuch"}}"#,
            r#"{"trace": {"name": "mu3"}, "config": {"cycle_time_ns": 0}}"#,
        ] {
            let r = app.handle(&req("POST", "/v1/simulate", body));
            assert_eq!(r.status, 400, "body {body:?} -> {}", r.body_text());
            assert!(parse(&r).get("error").is_some());
        }
        let r = app.handle(&req("POST", "/v1/replay", r#"{"cycle_times_ns": [40]}"#));
        assert_eq!(r.status, 400);
        let r = app.handle(&req("POST", "/v1/replay", r#"{"key": "ff"}"#));
        assert_eq!(r.status, 400);

        // The replay axis is capped: MAX_REPLAY_POINTS points are priced,
        // one more is refused with a message naming the cap.
        let sim = app.handle(&req(
            "POST",
            "/v1/simulate",
            r#"{"trace": {"name": "mu3", "scale": 0.002}}"#,
        ));
        let key = parse(&sim)
            .get("key")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let axis = |points: usize| {
            let cts = vec!["20"; points].join(",");
            format!(r#"{{"key": "{key}", "cycle_times_ns": [{cts}]}}"#)
        };
        let r = app.handle(&req("POST", "/v1/replay", &axis(MAX_REPLAY_POINTS)));
        assert_eq!(r.status, 200, "{}", r.body_text());
        let results = parse(&r)
            .get("results")
            .and_then(Json::as_array)
            .map(|a| a.len());
        assert_eq!(results, Some(MAX_REPLAY_POINTS));
        let r = app.handle(&req("POST", "/v1/replay", &axis(MAX_REPLAY_POINTS + 1)));
        assert_eq!(r.status, 400);
        assert!(
            r.body_text().contains("MAX_REPLAY_POINTS"),
            "{}",
            r.body_text()
        );
    }

    #[test]
    fn segment_routes_without_a_disk_answer_cleanly() {
        let app = App::new(usize::MAX);
        // No durable store: an empty key list, not an error — peers read
        // this as "nothing to hand off".
        let r = app.handle(&req("GET", "/v1/segments", ""));
        assert_eq!(r.status, 200);
        assert_eq!(
            parse(&r)
                .get("keys")
                .and_then(Json::as_array)
                .map(|a| a.len()),
            Some(0)
        );
        // A segment body read 404s (nothing is stored), a malformed key
        // 400s, and a rebalance outside any fleet is a client error.
        assert_eq!(app.handle(&req("GET", "/v1/segments/00ff", "")).status, 404);
        assert_eq!(app.handle(&req("GET", "/v1/segments/zz", "")).status, 400);
        let r = app.handle(&req("POST", "/v1/rebalance", ""));
        assert_eq!(r.status, 400);
        assert!(parse(&r).get("error").is_some());
        assert_eq!(app.fleet_stats.rebalances.get(), 0);
    }

    #[test]
    fn joining_a_fleet_requires_a_disk_and_a_listed_self() {
        let fleet = |peers: &[&str], self_addr: &str| FleetConfig {
            peers: peers.iter().map(|s| s.to_string()).collect(),
            self_addr: self_addr.into(),
            client: ClientConfig::default(),
        };
        // No durable store: refused.
        let err = match App::new(usize::MAX).with_fleet(fleet(&["a:1", "b:2"], "a:1")) {
            Err(e) => e,
            Ok(_) => panic!("a diskless fleet member must be refused"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        // Self not in the peer list: refused.
        let dir = std::env::temp_dir().join(format!("ct-fleet-cfg-{}", std::process::id()));
        let disk = DiskConfig {
            root: dir.clone(),
            budget_bytes: 0,
            quarantine_cap_bytes: 0,
        };
        let err = match App::new(usize::MAX)
            .with_disk(disk)
            .unwrap()
            .with_fleet(fleet(&["a:1", "b:2"], "c:3"))
        {
            Err(e) => e,
            Ok(_) => panic!("an unlisted self address must be refused"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn req_q(method: &str, path: &str, query: &str, body: Vec<u8>) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            query: Some(query.into()),
            body,
            keep_alive: true,
            deadline_ms: None,
        }
    }

    #[test]
    fn uploaded_traces_simulate_bit_identical_to_direct_runs() {
        let app = App::new(usize::MAX);
        // Serialize a catalog trace to din text and upload it.
        let trace = cachetime_trace::catalog::mu3(0.005).generate();
        let mut body = Vec::new();
        cachetime_trace::io::write_din(&mut body, trace.refs()).unwrap();
        let warm = trace.warm_start();
        let r = app.handle(&req_q(
            "POST",
            "/v1/traces",
            &format!("warm={warm}"),
            body.clone(),
        ));
        assert_eq!(r.status, 200, "{}", r.body_text());
        let up = parse(&r);
        assert_eq!(up.get("format").and_then(Json::as_str), Some("din"));
        assert_eq!(
            up.get("refs").and_then(Json::as_u64),
            Some(trace.len() as u64)
        );
        assert_eq!(up.get("deduplicated").and_then(Json::as_bool), Some(false));
        let digest = up.get("digest").and_then(Json::as_str).unwrap().to_string();
        let sel = up.get("selection").unwrap();
        assert!(sel
            .get("picks")
            .and_then(Json::as_array)
            .is_some_and(|p| !p.is_empty()));

        // Re-upload: same digest, deduplicated.
        let r2 = parse(&app.handle(&req_q("POST", "/v1/traces", &format!("warm={warm}"), body)));
        assert_eq!(
            r2.get("digest").and_then(Json::as_str),
            Some(digest.as_str())
        );
        assert_eq!(r2.get("deduplicated").and_then(Json::as_bool), Some(true));

        // Simulate by digest: bit-identical to a direct Simulator run.
        let sim_body = format!(r#"{{"trace": {{"upload": "{digest}"}}}}"#);
        let first = app.handle(&req("POST", "/v1/simulate", &sim_body));
        assert_eq!(first.status, 200, "{}", first.body_text());
        let first = parse(&first);
        assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
        let config = cachetime::SystemConfig::paper_default().unwrap();
        let direct = cachetime::Simulator::new(&config).run(&trace);
        assert_eq!(first.get("result"), Some(&api::sim_result_to_json(&direct)));

        // Second simulate is a warm hit; replay by the returned key works.
        let second = parse(&app.handle(&req("POST", "/v1/simulate", &sim_body)));
        assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
        let key = first.get("key").and_then(Json::as_str).unwrap();
        let replay_body = format!(r#"{{"key": "{key}", "cycle_times_ns": [40]}}"#);
        let r = parse(&app.handle(&req("POST", "/v1/replay", &replay_body)));
        let results = r.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(Some(&results[0]), first.get("result"));

        // An unknown digest is a 404; a malformed body a 400.
        let r = app.handle(&req(
            "POST",
            "/v1/simulate",
            r#"{"trace": {"upload": "00000000deadbeef"}}"#,
        ));
        assert_eq!(r.status, 404, "{}", r.body_text());
        let r = app.handle(&req(
            "POST",
            "/v1/simulate",
            r#"{"trace": {"upload": "ff", "name": "mu3"}}"#,
        ));
        assert_eq!(r.status, 400);
    }

    #[test]
    fn ingest_rejects_garbage_and_counts_it() {
        let app = App::new(usize::MAX);
        for (query, body) in [
            ("", &b""[..]),
            ("format=elf", b"0 1000\n"),
            ("", b"not a trace at all\x00\xff"),
            ("warm=soon", b"0 1000\n"),
        ] {
            let r = app.handle(&req_q("POST", "/v1/traces", query, body.to_vec()));
            assert_eq!(r.status, 400, "query={query:?}: {}", r.body_text());
        }
        assert_eq!(app.ingest_stats.rejected.get(), 4);
        assert_eq!(app.ingest_stats.uploads.get(), 0);
        // Stats payload carries the ingest block.
        let stats = parse(&app.handle(&req("GET", "/v1/stats", "")));
        let ingest = stats.get("ingest").unwrap();
        assert_eq!(ingest.get("rejected").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn shutdown_flags_the_transport() {
        let app = App::new(usize::MAX);
        let r = app.handle(&req("POST", "/v1/shutdown", ""));
        assert_eq!(r.status, 200);
        assert!(r.shutdown);
    }
}
