//! `/v1/metrics` ⇄ `/v1/stats` consistency over real sockets.
//!
//! Both endpoints render the *same atomics* (the `App`'s registry hands
//! the identical `Arc`s to `ServerStats`/`StoreMetrics` and to the
//! Prometheus renderer), so after any workload — including errors,
//! panics, and coalesced recordings — the two scrapes must bit-match.

use cachetime_serve::client::HttpClient;
use cachetime_serve::fault::FaultPlan;
use cachetime_serve::{serve_with_app, App, ServerConfig};
use cachetime_types::Json;
use std::sync::{Arc, Barrier};

/// The value of one sample line (`<series> <value>`) in a Prometheus
/// text exposition. Panics if the series is missing — a scrape that
/// silently drops a family must fail the test, not skip it.
fn prom(text: &str, series: &str) -> i64 {
    for line in text.lines() {
        if let Some((name, value)) = line.rsplit_once(' ') {
            if name == series {
                return value
                    .parse()
                    .unwrap_or_else(|e| panic!("series {series} not an integer ({e}): {line}"));
            }
        }
    }
    panic!("series {series} missing from exposition:\n{text}");
}

#[test]
fn metrics_and_stats_bit_match_after_a_mixed_workload() {
    let app = Arc::new(
        App::new(64 * 1024 * 1024).with_faults(FaultPlan::inert().panic_once("serve.handle")),
    );
    let handle = serve_with_app(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..Default::default()
        },
        Arc::clone(&app),
    )
    .expect("bind an ephemeral port");
    let addr = handle.local_addr().to_string();

    // The armed fault: the first request panics in the handler → 500,
    // so the panic counter has something to disagree about.
    let mut client = HttpClient::connect(&addr).unwrap();
    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 500, "{body}");

    // Cold + warm simulate, a replay hit, an unknown-key replay (404),
    // and a malformed body (400).
    let mut client = HttpClient::connect(&addr).unwrap();
    let sim_body = r#"{"trace": {"name": "mu3", "scale": 0.004}}"#;
    let (status, body) = client.post("/v1/simulate", sim_body).unwrap();
    assert_eq!(status, 200, "{body}");
    let key = Json::parse(&body).unwrap().get("key").and_then(Json::as_str).unwrap().to_string();
    let (status, _) = client.post("/v1/simulate", sim_body).unwrap();
    assert_eq!(status, 200);
    let replay_body = format!(r#"{{"key": "{key}", "cycle_times_ns": [40, 80]}}"#);
    let (status, body) = client.post("/v1/replay", &replay_body).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, _) = client
        .post("/v1/replay", r#"{"key": "ffffffffffffffff", "cycle_times_ns": [40]}"#)
        .unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.post("/v1/simulate", "{not json").unwrap();
    assert_eq!(status, 400);

    // Concurrent cold simulates on one fresh trace so the single-flight
    // path (coalesced waits, in-flight recording gauge) contributes.
    const CLIENTS: usize = 3;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(&addr).unwrap();
                barrier.wait();
                let (status, body) = c
                    .post("/v1/simulate", r#"{"trace": {"name": "savec", "scale": 0.003}}"#)
                    .unwrap();
                assert_eq!(status, 200, "{body}");
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // Back-to-back scrapes. Nothing between them touches the store or
    // the error counters, so every compared family is scrape-stable.
    // (Both scrapes self-count in the in-flight gauge: each sees 1.)
    let (status, stats_body) = client.get("/v1/stats").unwrap();
    assert_eq!(status, 200);
    let (status, metrics_body) = client.get("/v1/metrics").unwrap();
    assert_eq!(status, 200, "{metrics_body}");

    let stats = Json::parse(&stats_body).unwrap();
    let store = stats.get("store").unwrap();
    let server = stats.get("server").unwrap();
    let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap() as i64;

    for (json_value, series) in [
        (field(store, "hits"), "cachetime_store_hits_total"),
        (field(store, "misses"), "cachetime_store_misses_total"),
        (field(store, "coalesced"), "cachetime_store_coalesced_total"),
        (field(store, "evictions"), "cachetime_store_evictions_total"),
        (field(store, "entries"), "cachetime_store_entries"),
        (field(store, "bytes"), "cachetime_store_bytes"),
        (field(store, "recordings_in_flight"), "cachetime_store_recordings_in_flight"),
        (field(server, "errors"), "cachetime_server_errors_total"),
        (field(server, "shed"), "cachetime_server_shed_total"),
        (field(server, "timeouts"), "cachetime_server_timeouts_total"),
        (field(server, "panics"), "cachetime_server_panics_total"),
        (field(server, "in_flight"), "cachetime_server_in_flight"),
    ] {
        assert_eq!(
            prom(&metrics_body, series),
            json_value,
            "{series} drifted between /v1/metrics and /v1/stats"
        );
    }
    let degraded = server.get("degraded").and_then(Json::as_bool).unwrap();
    assert_eq!(prom(&metrics_body, "cachetime_server_degraded"), degraded as i64);

    // Absolute spot checks: the workload above fixes these exactly.
    assert_eq!(field(store, "misses"), 2, "mu3 and savec each recorded once");
    assert_eq!(field(server, "panics"), 1);
    assert_eq!(field(server, "errors"), 3, "500 + 404 + 400");
    assert_eq!(field(server, "shed"), 0);
    assert_eq!(field(server, "timeouts"), 0);

    // Latency histograms: per-endpoint counts agree between the JSON
    // report and the Prometheus `_count` samples, and the `+Inf` bucket
    // equals the count (cumulative rendering is complete).
    let latency = stats.get("latency").unwrap();
    for endpoint in ["simulate", "replay"] {
        let json_count = field(latency.get(endpoint).unwrap(), "count");
        let count = prom(
            &metrics_body,
            &format!("cachetime_request_duration_us_count{{endpoint=\"{endpoint}\"}}"),
        );
        let inf = prom(
            &metrics_body,
            &format!("cachetime_request_duration_us_bucket{{endpoint=\"{endpoint}\",le=\"+Inf\"}}"),
        );
        assert_eq!(count, json_count, "{endpoint} count drifted");
        assert_eq!(inf, count, "{endpoint} +Inf bucket must equal the count");
    }
    assert!(
        prom(&metrics_body, "cachetime_request_duration_us_count{endpoint=\"simulate\"}") >= 6,
        "3 sequential + 3 concurrent simulate requests"
    );

    // Exposition hygiene: typed families, integer samples, no NaN.
    for ty in [
        "# TYPE cachetime_store_hits_total counter",
        "# TYPE cachetime_server_in_flight gauge",
        "# TYPE cachetime_request_duration_us histogram",
    ] {
        assert!(metrics_body.contains(ty), "missing {ty:?} in:\n{metrics_body}");
    }
    assert!(!metrics_body.contains("NaN"), "{metrics_body}");

    handle.shutdown();
    handle.join();
}

/// The `cachetime_fleet_*` families over a real socket: all six are
/// present on an idle fleet member (eager registration — dashboards see
/// zeros, not holes), and after a rebalance pull the peer-fetch
/// histogram carries an OpenMetrics exemplar naming the transferred
/// segment on its bucket line.
#[test]
fn fleet_families_expose_exemplars_over_a_socket() {
    use cachetime_serve::client::{ClientConfig, FleetClient};
    use cachetime_serve::FleetConfig;

    let scratch = |tag: &str| {
        let dir = std::env::temp_dir().join(format!(
            "cachetime-metrics-fleet-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let roots = [scratch("donor"), scratch("adopter")];
    let addrs: Vec<String> = {
        let held: Vec<_> = (0..2)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        held.iter().map(|l| l.local_addr().unwrap().to_string()).collect()
    };
    let start = |ix: usize| {
        let disk = cachetime_disk::SegmentStore::open(cachetime_disk::DiskConfig {
            root: roots[ix].clone(),
            budget_bytes: 0,
            quarantine_cap_bytes: 0,
        })
        .unwrap();
        let app = App::new(usize::MAX)
            .with_disk(disk)
            .with_fleet(FleetConfig {
                peers: addrs.clone(),
                self_addr: addrs[ix].clone(),
                replication: 2,
                client: ClientConfig::default(),
            })
            .unwrap();
        serve_with_app(
            ServerConfig {
                addr: addrs[ix].clone(),
                workers: 2,
                ..Default::default()
            },
            Arc::new(app),
        )
        .unwrap()
    };
    let donor = start(0);
    let adopter = start(1);

    // Idle members already expose every fleet family, zero-valued.
    let mut fleet = FleetClient::new(addrs.clone(), ClientConfig::default()).unwrap();
    let (status, idle) = fleet.request_on(1, "GET", "/v1/metrics", "").unwrap();
    assert_eq!(status, 200, "{idle}");
    for series in [
        "cachetime_fleet_rebalance_total",
        "cachetime_fleet_segments_pulled_total",
        "cachetime_fleet_segments_dropped_total",
        "cachetime_fleet_transfers_rejected_total",
        "cachetime_fleet_fetch_failures_total",
    ] {
        assert_eq!(prom(&idle, series), 0, "idle scrape must carry {series}");
    }
    assert_eq!(prom(&idle, "cachetime_fleet_peer_fetch_us_count"), 0);

    // Record one pairing on the donor, then pull it over via rebalance.
    let (status, body) = fleet
        .request_on(0, "POST", "/v1/simulate", r#"{"trace": {"name": "mu3", "scale": 0.004}}"#)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let key = Json::parse(&body).unwrap().get("key").and_then(Json::as_str).unwrap().to_string();
    let (status, body) = fleet.request_on(1, "POST", "/v1/rebalance", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let report = Json::parse(&body).unwrap();
    assert_eq!(report.get("pulled").and_then(Json::as_u64), Some(1), "{body}");

    // The pull shows up in the counters, and exactly one peer-fetch
    // bucket line carries the pulled segment's key as its exemplar.
    let (status, scraped) = fleet.request_on(1, "GET", "/v1/metrics", "").unwrap();
    assert_eq!(status, 200, "{scraped}");
    assert_eq!(prom(&scraped, "cachetime_fleet_rebalance_total"), 1);
    assert_eq!(prom(&scraped, "cachetime_fleet_segments_pulled_total"), 1);
    assert_eq!(prom(&scraped, "cachetime_fleet_peer_fetch_us_count"), 1);
    let exemplar_lines: Vec<&str> = scraped
        .lines()
        .filter(|l| {
            l.starts_with("cachetime_fleet_peer_fetch_us_bucket{le=")
                && l.contains(&format!(" # {{key=\"{key}\"}} "))
        })
        .collect();
    assert_eq!(
        exemplar_lines.len(),
        1,
        "exactly one bucket carries the exemplar:\n{scraped}"
    );

    for h in [donor, adopter] {
        h.shutdown();
        h.join();
    }
    for root in &roots {
        let _ = std::fs::remove_dir_all(root);
    }
}

/// `?family=<prefix>` narrows the exposition to matching families over a
/// real socket; a misspelled parameter is a 400, not a full-size scrape.
#[test]
fn metrics_family_filter_over_a_socket() {
    let app = Arc::new(App::new(64 * 1024 * 1024));
    let handle = serve_with_app(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..Default::default()
        },
        Arc::clone(&app),
    )
    .expect("bind an ephemeral port");
    let addr = handle.local_addr().to_string();

    let mut client = HttpClient::connect(&addr).unwrap();
    let (status, body) = client
        .post("/v1/simulate", r#"{"trace": {"name": "mu3", "scale": 0.004}}"#)
        .unwrap();
    assert_eq!(status, 200, "{body}");

    // The filtered scrape carries the store families and nothing else.
    let (status, filtered) = client.get("/v1/metrics?family=cachetime_store_").unwrap();
    assert_eq!(status, 200, "{filtered}");
    assert!(
        filtered.contains("cachetime_store_misses_total"),
        "{filtered}"
    );
    for line in filtered.lines() {
        let name = line.strip_prefix("# TYPE ").unwrap_or(line);
        assert!(
            name.starts_with("cachetime_store_"),
            "family leaked past the filter: {line}"
        );
    }
    // The filtered payload is a strict subset of the full scrape.
    let (_, full) = client.get("/v1/metrics").unwrap();
    assert!(full.len() > filtered.len());
    for line in filtered.lines() {
        assert!(full.contains(line), "filtered-only line: {line}");
    }

    // No filter and an empty filter are the whole exposition.
    let (status, empty_filter) = client.get("/v1/metrics?family=").unwrap();
    assert_eq!(status, 200);
    assert_eq!(empty_filter.lines().count(), full.lines().count());

    // An unmatched prefix is an empty-but-valid exposition, not an error.
    let (status, none) = client.get("/v1/metrics?family=nonesuch_").unwrap();
    assert_eq!(status, 200);
    assert!(none.is_empty(), "{none}");

    // A misspelled parameter must not silently return the full payload.
    let (status, body) = client.get("/v1/metrics?fam=oops").unwrap();
    assert_eq!(status, 400, "{body}");

    handle.shutdown();
    handle.join();
}

/// A server on the process-wide registry (as `ctserve` runs) renders the
/// core engine's replay counters, timing classes included, in
/// `/v1/metrics`.
#[test]
fn replay_class_counter_renders_on_the_process_wide_registry() {
    let app = Arc::new(App::with_registry(
        64 * 1024 * 1024,
        Arc::clone(cachetime_obs::global()),
    ));
    let handle = serve_with_app(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..Default::default()
        },
        Arc::clone(&app),
    )
    .expect("bind an ephemeral port");
    let addr = handle.local_addr().to_string();

    let mut client = HttpClient::connect(&addr).unwrap();
    let (status, body) = client
        .post("/v1/simulate", r#"{"trace": {"name": "mu3", "scale": 0.004}}"#)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let key = Json::parse(&body).unwrap().get("key").and_then(Json::as_str).unwrap().to_string();
    // 40 and 44 ns quantize the default memory alike: three points, two
    // replays.
    let replay_body = format!(r#"{{"key": "{key}", "cycle_times_ns": [40, 44, 80]}}"#);
    let (status, body) = client.post("/v1/replay", &replay_body).unwrap();
    assert_eq!(status, 200, "{body}");

    let (status, text) = client.get("/v1/metrics?family=cachetime_replay_").unwrap();
    assert_eq!(status, 200, "{text}");
    for ty in [
        "# TYPE cachetime_replay_classes_total counter",
        "# TYPE cachetime_replay_configs_total counter",
    ] {
        assert!(text.contains(ty), "missing {ty:?} in:\n{text}");
    }
    // Other tests in this process replay too; the counters only grow.
    assert!(prom(&text, "cachetime_replay_classes_total") >= 2, "{text}");
    assert!(prom(&text, "cachetime_replay_configs_total") >= 3, "{text}");

    handle.shutdown();
    handle.join();
}
