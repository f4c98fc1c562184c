//! What the three server workloads share: an in-process server that
//! shuts down when dropped, one closed-loop client call, `/v1/stats`
//! deltas, and the shadow pass that times the server's public layers on
//! the same request bytes.

use crate::spans::Collector;
use cachetime::{keyed, SimResult};
use cachetime_serve::client::HttpClient;
use cachetime_serve::http::{parse_request, Parsed};
use cachetime_serve::{api, serve, serve_with_app, App, ServerConfig, ServerHandle};
use cachetime_types::Json;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// A server under test, on an ephemeral loopback port. Dropping it shuts
/// the server down and joins every thread it started.
pub struct Server {
    handle: Option<ServerHandle>,
    /// `host:port` to connect to.
    pub addr: String,
}

impl Server {
    /// Boots a server the way `ctserve` does for `config`.
    ///
    /// # Panics
    ///
    /// If the loopback port cannot be bound or the data directory opened.
    pub fn boot(config: ServerConfig) -> Server {
        Server::from_handle(serve(config).expect("boot the server"))
    }

    /// Boots `app` with `config`'s transport settings.
    ///
    /// # Panics
    ///
    /// If the loopback port cannot be bound.
    pub fn boot_app(config: ServerConfig, app: App) -> Server {
        Server::from_handle(serve_with_app(config, Arc::new(app)).expect("bind a loopback port"))
    }

    fn from_handle(handle: ServerHandle) -> Server {
        Server {
            addr: handle.local_addr().to_string(),
            handle: Some(handle),
        }
    }

    /// The application state, for shadow calls.
    pub fn app(&self) -> &App {
        self.handle.as_ref().expect("server is running").app()
    }

    /// A new keep-alive connection.
    pub fn connect(&self) -> HttpClient {
        HttpClient::connect(&self.addr).expect("connect to the in-process server")
    }

    /// `GET /v1/stats` over a fresh connection.
    pub fn stats(&self) -> Json {
        let (status, body) = self.connect().get("/v1/stats").expect("read /v1/stats");
        assert_eq!(status, 200, "/v1/stats answered {status}: {body}");
        Json::parse(&body).expect("stats are JSON")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            handle.join();
        }
    }
}

/// The server configuration the workloads share: loopback, ephemeral
/// port, default worker pool and deadlines.
pub fn loopback() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    }
}

/// One answered request of a closed-loop caller.
#[derive(Debug)]
pub struct Answer {
    /// HTTP status; 0 when the transport failed.
    pub status: u16,
    /// Response body (the error text when the transport failed).
    pub body: String,
    /// Client-side latency in microseconds.
    pub latency_us: f64,
}

impl Answer {
    /// Whether the request succeeded.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The parsed body, if it is JSON.
    pub fn json(&self) -> Option<Json> {
        Json::parse(&self.body).ok()
    }
}

/// `POST path` with a JSON body, timed.
pub fn post(client: &mut HttpClient, path: &str, body: &str) -> Answer {
    let t = Instant::now();
    let r = client.post(path, body);
    let latency_us = t.elapsed().as_secs_f64() * 1e6;
    match r {
        Ok((status, body)) => Answer {
            status,
            body,
            latency_us,
        },
        Err(e) => Answer {
            status: 0,
            body: e.to_string(),
            latency_us,
        },
    }
}

/// The canonical bytes of a response's priced result(s) — the part the
/// results digest covers. Excludes `cached`, which depends on eviction
/// timing, not on the answer.
pub fn priced_part(v: &Json) -> String {
    v.get("result")
        .or_else(|| v.get("results"))
        .map_or_else(String::new, Json::to_string)
}

fn num(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// The per-layer counts `/v1/stats` gives, as deltas between two
/// snapshots: store, disk, upload store and server failure counters.
pub fn stats_layers(before: &Json, after: &Json, layers: &mut BTreeMap<String, f64>) {
    let d = |path: &[&str]| (num(after, path) - num(before, path)).max(0.0);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let hits = d(&["store", "hits"]);
    let misses = d(&["store", "misses"]);
    layers.insert("serve.store.hit_ratio".into(), ratio(hits, hits + misses));
    layers.insert("serve.store.evictions".into(), d(&["store", "evictions"]));
    layers.insert("serve.store.coalesced".into(), d(&["store", "coalesced"]));
    layers.insert("serve.store.shed".into(), d(&["store", "shed"]));
    layers.insert("disk.spills".into(), d(&["disk", "spills"]));
    layers.insert("disk.loads".into(), d(&["disk", "loads"]));
    layers.insert(
        "disk.spill_mib".into(),
        d(&["disk", "bytes"]) / (1024.0 * 1024.0),
    );
    layers.insert(
        "serve.upload.dedup_ratio".into(),
        ratio(d(&["ingest", "deduplicated"]), d(&["ingest", "uploads"])),
    );
    layers.insert("serve.upload.evicted".into(), d(&["ingest", "evicted"]));
    layers.insert("serve.errors".into(), d(&["server", "errors"]));
    layers.insert("serve.timeouts".into(), d(&["server", "timeouts"]));
}

/// The bytes `HttpClient::post` puts on the wire for this request.
fn wire_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: ctserve\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Times the server's public layers on one request's bytes, each under
/// its own span inside a `shadow` span:
///
/// * `serve.http.parse` — `http::parse_request` on the wire bytes;
/// * `serve.api.decode` — for a simulate: `Json::parse`,
///   `api::system_config_from_json`, `api::trace_selector_from_json` and
///   `keyed::trace_key`;
/// * `serve.app.handle` — `App::handle`, when `app` is given;
/// * `serve.api.encode` — `api::sim_result_to_json(..).to_string()` of
///   the result `result` produces, if any. `result` runs inside the
///   `shadow` span, so whatever it simulates is not counted as live work.
pub fn shadow_request(
    col: &Collector,
    req: u64,
    app: Option<&App>,
    path: &str,
    body: &str,
    result: impl FnOnce() -> Option<SimResult>,
) {
    let _shadow = col.span("shadow", Some(req));
    let mut wire = wire_bytes(path, body);
    let parsed = {
        let _s = col.span("serve.http.parse", Some(req));
        parse_request(&mut wire)
    };
    let Ok(Parsed::Request(request)) = parsed else {
        panic!("the shadow parser rejected bytes the server accepted");
    };
    if path == "/v1/simulate" {
        let _s = col.span("serve.api.decode", Some(req));
        let v = Json::parse(body).expect("the request body is JSON");
        let config = api::system_config_from_json(v.get("config")).expect("valid config");
        let org = config.organization();
        let key = match api::trace_selector_from_json(v.get("trace")).expect("valid trace") {
            api::TraceSelector::Catalog(w) => keyed::trace_key(&org, &w),
            api::TraceSelector::Upload(digest) => keyed::upload_trace_key(&org, digest),
        };
        std::hint::black_box(key);
    }
    if let Some(app) = app {
        let _s = col.span("serve.app.handle", Some(req));
        std::hint::black_box(app.handle(&request));
    }
    if let Some(result) = result() {
        let _s = col.span("serve.api.encode", Some(req));
        std::hint::black_box(api::sim_result_to_json(&result).to_string());
    }
}

/// The shadow-pass layer metrics: medians of the spans
/// [`shadow_request`] recorded, and transport as the client's median
/// minus `App::handle`'s.
pub fn shadow_layers(
    tree: &crate::spans::Tree,
    client_p50_us: f64,
    layers: &mut BTreeMap<String, f64>,
) {
    let median_span =
        |name: &str, unit_ns: f64| crate::stats::median(&tree.durations(name)) / unit_ns;
    let handle_us = median_span("serve.app.handle", 1e3);
    layers.insert(
        "serve.http.parse_ns".into(),
        median_span("serve.http.parse", 1.0),
    );
    layers.insert(
        "serve.api.decode_us".into(),
        median_span("serve.api.decode", 1e3),
    );
    layers.insert(
        "serve.api.encode_us".into(),
        median_span("serve.api.encode", 1e3),
    );
    layers.insert("serve.app.handle_us_p50".into(), handle_us);
    if handle_us > 0.0 {
        layers.insert("serve.transport.us_p50".into(), client_p50_us - handle_us);
    }
}
