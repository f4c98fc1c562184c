//! Server-side observability: request counters, in-flight gauge, and
//! per-endpoint latency histograms.
//!
//! Everything here is a [`cachetime_obs`] handle registered in the
//! `App`'s [`Registry`], so `GET /v1/metrics` (Prometheus exposition)
//! and `GET /v1/stats` (this module's JSON report) read the *same
//! atomics* — the two can never drift apart. The log₂ latency
//! histogram that used to live here is now `cachetime_obs::Histogram`;
//! it also fixed the `quantile(0.0)` empty-bucket bug (the rank is
//! clamped to ≥ 1 so only occupied buckets are ever reported).

use cachetime_obs::{Counter, Gauge, Histogram, Registry};
use cachetime_types::{json_object, Json};
use std::sync::Arc;

/// One server's worth of counters; shared by every worker thread.
pub struct ServerStats {
    /// Requests currently being processed (gauge).
    pub in_flight: Arc<Gauge>,
    /// Responses with a 4xx/5xx status.
    pub errors: Arc<Counter>,
    /// Requests shed by backpressure: `503 + Retry-After` from the
    /// recording admission limit or a full connection queue.
    pub shed: Arc<Counter>,
    /// Deadline expiries: slow-read `408`s plus handler-side deadline
    /// `503`s (waiting on a recording, or work finishing past budget).
    pub timeouts: Arc<Counter>,
    /// Handler panics caught and converted to `500`s (worker survived).
    pub panics: Arc<Counter>,
    /// Load-shedding state at the last scrape (1 = degraded). Refreshed
    /// by the stats/metrics handlers, not on the request path.
    pub degraded: Arc<Gauge>,
    /// Latency of `POST /v1/simulate` (µs).
    pub simulate: Arc<Histogram>,
    /// Latency of `POST /v1/replay` (µs).
    pub replay: Arc<Histogram>,
    /// Latency of `POST /v1/traces` (µs) — parse + digest + profile.
    pub ingest: Arc<Histogram>,
    /// Latency of `GET /v1/stats` and `GET /v1/metrics` (µs).
    pub stats: Arc<Histogram>,
    /// Latency of everything else (healthz, 404s, shutdown) (µs).
    pub other: Arc<Histogram>,
}

impl ServerStats {
    /// Handles registered in `registry` under the `cachetime_server_*`
    /// and `cachetime_request_duration_us` families.
    pub fn in_registry(registry: &Registry) -> Self {
        let duration = |endpoint| {
            registry.histogram("cachetime_request_duration_us", &[("endpoint", endpoint)])
        };
        ServerStats {
            in_flight: registry.gauge("cachetime_server_in_flight", &[]),
            errors: registry.counter("cachetime_server_errors_total", &[]),
            shed: registry.counter("cachetime_server_shed_total", &[]),
            timeouts: registry.counter("cachetime_server_timeouts_total", &[]),
            panics: registry.counter("cachetime_server_panics_total", &[]),
            degraded: registry.gauge("cachetime_server_degraded", &[]),
            simulate: duration("simulate"),
            replay: duration("replay"),
            ingest: duration("ingest"),
            stats: duration("stats"),
            other: duration("other"),
        }
    }
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::in_registry(&Registry::new())
    }
}

/// Fleet-resilience counters: peer segment handoff and rebalancing.
/// Registered eagerly at `App` construction — even a server running
/// outside any fleet exposes the families (at zero), so scrapes and
/// dashboards never have to special-case membership.
pub struct FleetMetrics {
    /// Completed rebalance passes (boot + `POST /v1/rebalance`).
    pub rebalances: Arc<Counter>,
    /// Segments pulled from peers and adopted into the local store.
    pub pulled: Arc<Counter>,
    /// Local segments dropped because the ring no longer places them
    /// here (only after a current owner confirmed having them).
    pub dropped: Arc<Counter>,
    /// Peer transfers that failed the segment checksum and were
    /// quarantined instead of adopted.
    pub rejected: Arc<Counter>,
    /// Peer fetches that failed at the transport layer (connect, read,
    /// or a non-200 status).
    pub fetch_failures: Arc<Counter>,
    /// Latency of one peer segment fetch (µs), exemplar'd with the
    /// transferred trace key.
    pub fetch_us: Arc<Histogram>,
}

impl FleetMetrics {
    /// Handles registered in `registry` under the `cachetime_fleet_*`
    /// families.
    pub fn in_registry(registry: &Registry) -> Self {
        FleetMetrics {
            rebalances: registry.counter("cachetime_fleet_rebalance_total", &[]),
            pulled: registry.counter("cachetime_fleet_segments_pulled_total", &[]),
            dropped: registry.counter("cachetime_fleet_segments_dropped_total", &[]),
            rejected: registry.counter("cachetime_fleet_transfers_rejected_total", &[]),
            fetch_failures: registry.counter("cachetime_fleet_fetch_failures_total", &[]),
            fetch_us: registry.histogram("cachetime_fleet_peer_fetch_us", &[]),
        }
    }

    /// The `fleet` object of the `/v1/stats` payload.
    pub fn to_json(&self) -> Json {
        json_object([
            ("rebalances", Json::UInt(self.rebalances.get())),
            ("segments_pulled", Json::UInt(self.pulled.get())),
            ("segments_dropped", Json::UInt(self.dropped.get())),
            ("transfers_rejected", Json::UInt(self.rejected.get())),
            ("fetch_failures", Json::UInt(self.fetch_failures.get())),
            ("fetches", Json::UInt(self.fetch_us.count())),
        ])
    }
}

impl Default for FleetMetrics {
    fn default() -> Self {
        Self::in_registry(&Registry::new())
    }
}

/// Trace-ingestion counters for `POST /v1/traces`. Registered eagerly at
/// `App` construction like [`FleetMetrics`], so the `cachetime_ingest_*`
/// families always scrape (at zero on a server that never saw an
/// upload).
pub struct IngestMetrics {
    /// Uploads accepted (fresh digests and dedups alike).
    pub uploads: Arc<Counter>,
    /// Uploads refused: undetectable format, parse errors, empty bodies.
    pub rejected: Arc<Counter>,
    /// Uploads whose digest was already resident (stored once).
    pub deduplicated: Arc<Counter>,
    /// References parsed out of accepted uploads.
    pub refs: Arc<Counter>,
    /// Wire bytes of accepted upload bodies.
    pub bytes: Arc<Counter>,
    /// Sub-word byte addresses truncated to word granularity.
    pub truncated: Arc<Counter>,
    /// Uploads evicted from the store by the byte budget.
    pub evicted: Arc<Counter>,
}

impl IngestMetrics {
    /// Handles registered in `registry` under the `cachetime_ingest_*`
    /// families.
    pub fn in_registry(registry: &Registry) -> Self {
        IngestMetrics {
            uploads: registry.counter("cachetime_ingest_uploads_total", &[]),
            rejected: registry.counter("cachetime_ingest_rejected_total", &[]),
            deduplicated: registry.counter("cachetime_ingest_deduplicated_total", &[]),
            refs: registry.counter("cachetime_ingest_refs_total", &[]),
            bytes: registry.counter("cachetime_ingest_bytes_total", &[]),
            truncated: registry.counter("cachetime_ingest_truncated_refs_total", &[]),
            evicted: registry.counter("cachetime_ingest_evicted_total", &[]),
        }
    }

    /// The `ingest` object of the `/v1/stats` payload; `(entries, bytes)`
    /// is the upload store's live residency.
    pub fn to_json(&self, resident: (usize, usize)) -> Json {
        json_object([
            ("uploads", Json::UInt(self.uploads.get())),
            ("rejected", Json::UInt(self.rejected.get())),
            ("deduplicated", Json::UInt(self.deduplicated.get())),
            ("refs", Json::UInt(self.refs.get())),
            ("bytes", Json::UInt(self.bytes.get())),
            ("truncated_refs", Json::UInt(self.truncated.get())),
            ("evicted", Json::UInt(self.evicted.get())),
            ("resident_entries", Json::UInt(resident.0 as u64)),
            ("resident_bytes", Json::UInt(resident.1 as u64)),
        ])
    }
}

impl Default for IngestMetrics {
    fn default() -> Self {
        Self::in_registry(&Registry::new())
    }
}

impl ServerStats {
    /// The histogram a request path belongs to.
    pub fn endpoint(&self, method: &str, path: &str) -> &Histogram {
        match (method, path) {
            ("POST", "/v1/simulate") => &self.simulate,
            ("POST", "/v1/replay") => &self.replay,
            ("POST", "/v1/traces") => &self.ingest,
            ("GET", "/v1/stats") | ("GET", "/v1/metrics") => &self.stats,
            _ => &self.other,
        }
    }

    /// The `/v1/stats` payload: server counters plus the store's, and —
    /// when the server runs with `--data-dir` — the durable segment
    /// store's. `degraded` is the live load-shedding gauge (see
    /// [`App::is_degraded`](crate::App::is_degraded)).
    pub fn to_json(
        &self,
        store: &crate::store::TraceStore,
        disk: Option<&cachetime_disk::DiskMetrics>,
        fleet: &FleetMetrics,
        ingest: Json,
        degraded: bool,
    ) -> Json {
        let s = store.stats();
        let latency = |h: &Histogram| {
            json_object([
                ("count", Json::UInt(h.count())),
                ("p50_upper_us", Json::UInt(h.quantile_upper(0.5))),
                ("p99_upper_us", Json::UInt(h.quantile_upper(0.99))),
            ])
        };
        let disk = match disk {
            None => Json::Null,
            Some(d) => json_object([
                ("segments", Json::UInt(d.segments().max(0) as u64)),
                ("bytes", Json::UInt(d.bytes().max(0) as u64)),
                ("spills", Json::UInt(d.spills())),
                ("spill_errors", Json::UInt(d.spill_errors())),
                ("loads", Json::UInt(d.loads())),
                ("load_misses", Json::UInt(d.load_misses())),
                ("load_errors", Json::UInt(d.load_errors())),
                ("recovered", Json::UInt(d.recovered())),
                ("quarantined", Json::UInt(d.quarantined())),
                (
                    "quarantine_files",
                    Json::UInt(d.quarantine_files().max(0) as u64),
                ),
                (
                    "quarantine_bytes",
                    Json::UInt(d.quarantine_bytes().max(0) as u64),
                ),
                ("quarantine_evicted", Json::UInt(d.quarantine_evicted())),
                ("adopted", Json::UInt(d.adopted())),
                ("dropped", Json::UInt(d.dropped())),
                ("evicted", Json::UInt(d.evicted())),
            ]),
        };
        json_object([
            (
                "store",
                json_object([
                    ("lookups", Json::UInt(s.lookups)),
                    ("hits", Json::UInt(s.hits)),
                    ("misses", Json::UInt(s.misses)),
                    ("coalesced", Json::UInt(s.coalesced)),
                    ("shed", Json::UInt(s.shed)),
                    ("absent", Json::UInt(s.absent)),
                    ("evictions", Json::UInt(s.evictions)),
                    ("entries", Json::UInt(s.entries as u64)),
                    ("bytes", Json::UInt(s.bytes as u64)),
                    ("budget_bytes", Json::UInt(store.budget_bytes() as u64)),
                    ("recordings_in_flight", Json::UInt(s.in_flight as u64)),
                ]),
            ),
            ("disk", disk),
            ("fleet", fleet.to_json()),
            ("ingest", ingest),
            (
                "server",
                json_object([
                    ("in_flight", Json::UInt(self.in_flight.get_unsigned())),
                    ("errors", Json::UInt(self.errors.get())),
                    ("shed", Json::UInt(self.shed.get())),
                    ("timeouts", Json::UInt(self.timeouts.get())),
                    ("panics", Json::UInt(self.panics.get())),
                    ("degraded", Json::Bool(degraded)),
                ]),
            ),
            (
                "latency",
                json_object([
                    ("simulate", latency(&self.simulate)),
                    ("replay", latency(&self.replay)),
                    ("ingest", latency(&self.ingest)),
                    ("stats", latency(&self.stats)),
                    ("other", latency(&self.other)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let h = Histogram::new();
        assert_eq!(h.quantile_upper(0.5), 0);
        for _ in 0..99 {
            h.record(3); // bucket 1: [2, 4)
        }
        h.record(1000); // bucket 9: [512, 1024)
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_upper(0.5), 4);
        assert_eq!(h.quantile_upper(0.99), 4);
        assert_eq!(h.quantile_upper(1.0), 1024);
    }

    #[test]
    fn zero_micros_round_up_to_the_first_bucket() {
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_upper(0.5), 2);
    }

    #[test]
    fn zero_quantile_skips_empty_low_buckets() {
        // Regression: a histogram whose only observation sits in a high
        // bucket must not report bucket 0's upper bound for q = 0.0.
        let h = Histogram::new();
        h.record(1000);
        assert_eq!(h.quantile_upper(0.0), 1024);
    }

    #[test]
    fn endpoints_map_to_their_histograms() {
        let s = ServerStats::default();
        s.endpoint("POST", "/v1/simulate").record(5);
        s.endpoint("POST", "/v1/replay").record(5);
        s.endpoint("POST", "/v1/traces").record(5);
        s.endpoint("GET", "/v1/stats").record(5);
        s.endpoint("GET", "/v1/metrics").record(5);
        s.endpoint("GET", "/healthz").record(5);
        s.endpoint("POST", "/nonsense").record(5);
        assert_eq!(s.simulate.count(), 1);
        assert_eq!(s.replay.count(), 1);
        assert_eq!(s.ingest.count(), 1);
        assert_eq!(s.stats.count(), 2);
        assert_eq!(s.other.count(), 2);
    }
}
