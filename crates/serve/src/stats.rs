//! Server-side observability: request counters, in-flight gauge,
//! per-endpoint latency histograms, and the `/v1/stats` report.
//!
//! Everything here is a [`cachetime_obs`] handle registered in the
//! `App`'s [`Registry`]. `GET /v1/metrics` renders the registry as
//! Prometheus text, and `GET /v1/stats` is [`stats_json`], a fixed
//! projection of the same [`Registry::walk`]: the registry is the only
//! list of metrics, so the two reports can never disagree.

use cachetime_obs::{Counter, Gauge, Histogram, Registry, Sample};
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
    /// The trace store's byte budget, refreshed with `degraded`.
    pub store_budget: Arc<Gauge>,
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
    /// and `cachetime_request_duration_us` families, plus
    /// `cachetime_store_budget_bytes`.
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
            store_budget: registry.gauge("cachetime_store_budget_bytes", &[]),
            simulate: duration("simulate"),
            replay: duration("replay"),
            ingest: duration("ingest"),
            stats: duration("stats"),
            other: duration("other"),
        }
    }

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
    /// Uploads resident in the upload store, refreshed at each scrape.
    pub resident_entries: Arc<Gauge>,
    /// Bytes the resident uploads hold, refreshed at each scrape.
    pub resident_bytes: Arc<Gauge>,
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
            resident_entries: registry.gauge("cachetime_ingest_resident_entries", &[]),
            resident_bytes: registry.gauge("cachetime_ingest_resident_bytes", &[]),
        }
    }
}

impl Default for IngestMetrics {
    fn default() -> Self {
        Self::in_registry(&Registry::new())
    }
}

/// The sections of the `/v1/stats` payload, in order. Section `s` holds
/// every unlabelled `cachetime_<s>_*` family of the registry.
const SECTIONS: [&str; 5] = ["store", "disk", "fleet", "ingest", "server"];

/// The `/v1/stats` payload: a fixed projection of `registry`'s
/// [`walk`](Registry::walk).
///
/// * An unlabelled counter or gauge `cachetime_<section>_<field>[_total]`
///   becomes `<section>.<field>`; a gauge reads as unsigned, except
///   `server.degraded`, which is a bool.
/// * An unlabelled histogram becomes `<section>.<field>` =
///   `{count, p50_upper_us, p99_upper_us}`.
/// * `cachetime_request_duration_us{endpoint=E}` becomes `latency.E`,
///   the same object.
/// * Keys within a section come out in family-name order; `disk` is
///   `null` when no disk family is registered.
pub fn stats_json(registry: &Registry) -> Json {
    let quantiles = |h: &Histogram| {
        json_object([
            ("count", Json::UInt(h.count())),
            ("p50_upper_us", Json::UInt(h.quantile_upper(0.5))),
            ("p99_upper_us", Json::UInt(h.quantile_upper(0.99))),
        ])
    };
    let mut sections: [Vec<(String, Json)>; SECTIONS.len()] = Default::default();
    let mut latency = Vec::new();
    registry.walk(|family, labels, sample| {
        if family == "cachetime_request_duration_us" {
            let endpoint = labels
                .strip_prefix("endpoint=\"")
                .and_then(|l| l.strip_suffix('"'));
            if let (Some(endpoint), Sample::Histogram(h)) = (endpoint, sample) {
                latency.push((endpoint.to_string(), quantiles(h)));
            }
            return;
        }
        let section = family.strip_prefix("cachetime_").and_then(|rest| {
            SECTIONS
                .iter()
                .enumerate()
                .find_map(|(ix, s)| Some((ix, rest.strip_prefix(s)?.strip_prefix('_')?)))
        });
        let Some((ix, field)) = section.filter(|_| labels.is_empty()) else {
            return;
        };
        let field = field.strip_suffix("_total").unwrap_or(field);
        let value = match sample {
            Sample::Counter(c) => Json::UInt(c.get()),
            Sample::Gauge(g) if family == "cachetime_server_degraded" => Json::Bool(g.get() != 0),
            Sample::Gauge(g) => Json::UInt(g.get_unsigned()),
            Sample::Histogram(h) => quantiles(h),
        };
        sections[ix].push((field.to_string(), value));
    });
    let mut payload: Vec<(String, Json)> = SECTIONS
        .iter()
        .zip(sections)
        .map(|(name, fields)| {
            let section = if fields.is_empty() {
                Json::Null
            } else {
                Json::Object(fields)
            };
            (name.to_string(), section)
        })
        .collect();
    payload.push(("latency".into(), Json::Object(latency)));
    Json::Object(payload)
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
