//! End-to-end exercise of the HTTP server over real sockets: simulate,
//! replay (bit-identical to a direct `Simulator::run`), stats, error
//! paths, concurrent clients coalescing on one recording, and shutdown.

use cachetime::{Simulator, SystemConfig};
use cachetime_serve::client::HttpClient;
use cachetime_serve::{api, serve, ServerConfig};
use cachetime_trace::catalog;
use cachetime_types::Json;
use std::sync::{Arc, Barrier};

fn start() -> (cachetime_serve::ServerHandle, String) {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..Default::default()
    })
    .expect("bind an ephemeral port");
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

#[test]
fn full_request_cycle_over_real_sockets() {
    let (handle, addr) = start();
    let mut client = HttpClient::connect(&addr).unwrap();

    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("ok")
    );

    // Simulate: first call records, second is served from the store.
    let sim_body = r#"{"trace": {"name": "mu3", "scale": 0.005}}"#;
    let (status, body) = client.post("/v1/simulate", sim_body).unwrap();
    assert_eq!(status, 200, "{body}");
    let first = Json::parse(&body).unwrap();
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    let key = first.get("key").and_then(Json::as_str).unwrap().to_string();

    let (_, body) = client.post("/v1/simulate", sim_body).unwrap();
    let second = Json::parse(&body).unwrap();
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(second.get("result"), first.get("result"));

    // Bit-identity: the served result equals a direct in-process
    // simulation of the same configuration and workload.
    let config = SystemConfig::paper_default().unwrap();
    let direct = Simulator::new(&config).run(&catalog::mu3(0.005).generate());
    assert_eq!(
        first.get("result"),
        Some(&api::sim_result_to_json(&direct)),
        "server response must be bit-identical to Simulator::run"
    );

    // Replay over a cycle-time axis; the 40 ns point reproduces simulate.
    let replay_body = format!(r#"{{"key": "{key}", "cycle_times_ns": [40, 20, 80]}}"#);
    let (status, body) = client.post("/v1/replay", &replay_body).unwrap();
    assert_eq!(status, 200, "{body}");
    let replay = Json::parse(&body).unwrap();
    let results = replay.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(Some(&results[0]), first.get("result"));

    // Stats reflect the traffic so far.
    let (status, body) = client.get("/v1/stats").unwrap();
    assert_eq!(status, 200);
    let stats = Json::parse(&body).unwrap();
    let store = stats.get("store").unwrap();
    assert_eq!(store.get("misses").and_then(Json::as_u64), Some(1));
    assert!(store.get("hits").and_then(Json::as_u64).unwrap() >= 2);
    assert_eq!(store.get("entries").and_then(Json::as_u64), Some(1));
    let latency = stats.get("latency").unwrap();
    assert_eq!(
        latency
            .get("simulate")
            .unwrap()
            .get("count")
            .and_then(Json::as_u64),
        Some(2)
    );

    // Error paths stay JSON.
    let (status, body) = client.get("/nope").unwrap();
    assert_eq!(status, 404);
    assert!(Json::parse(&body).unwrap().get("error").is_some());
    let (status, _) = client.post("/v1/simulate", "{not json").unwrap();
    assert_eq!(status, 400);
    let (status, _) = client
        .post(
            "/v1/replay",
            r#"{"key": "ffffffffffffffff", "cycle_times_ns": [40]}"#,
        )
        .unwrap();
    assert_eq!(status, 404, "unknown keys are a 404, not a 500");

    // Shutdown: acknowledged, then every thread exits.
    let (status, _) = client.post("/v1/shutdown", "").unwrap();
    assert_eq!(status, 200);
    handle.join();
}

#[test]
fn concurrent_clients_share_one_recording() {
    let (handle, addr) = start();
    const CLIENTS: usize = 4;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(&addr).unwrap();
                barrier.wait();
                let (status, body) = client
                    .post(
                        "/v1/simulate",
                        r#"{"trace": {"name": "savec", "scale": 0.004}}"#,
                    )
                    .unwrap();
                assert_eq!(status, 200, "{body}");
                Json::parse(&body)
                    .unwrap()
                    .get("result")
                    .unwrap()
                    .to_string()
            })
        })
        .collect();
    let results: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    for r in &results[1..] {
        assert_eq!(r, &results[0], "all clients must see the identical result");
    }

    let mut client = HttpClient::connect(&addr).unwrap();
    let (_, body) = client.get("/v1/stats").unwrap();
    let stats = Json::parse(&body).unwrap();
    let store = stats.get("store").unwrap();
    assert_eq!(
        store.get("misses").and_then(Json::as_u64),
        Some(1),
        "one recording total across {CLIENTS} concurrent clients"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn replay_honors_a_custom_timing_base() {
    let (handle, addr) = start();
    let mut client = HttpClient::connect(&addr).unwrap();
    let (_, body) = client
        .post(
            "/v1/simulate",
            r#"{"trace": {"name": "mu3", "scale": 0.004}}"#,
        )
        .unwrap();
    let key = Json::parse(&body)
        .unwrap()
        .get("key")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // Same axis point, two different memory speeds: results must differ.
    let slow = format!(
        r#"{{"key": "{key}", "cycle_times_ns": [40], "timing": {{"memory": {{"read_ns": 1200}}}}}}"#
    );
    let fast = format!(
        r#"{{"key": "{key}", "cycle_times_ns": [40], "timing": {{"memory": {{"read_ns": 100}}}}}}"#
    );
    let (status, slow_body) = client.post("/v1/replay", &slow).unwrap();
    assert_eq!(status, 200, "{slow_body}");
    let (status, fast_body) = client.post("/v1/replay", &fast).unwrap();
    assert_eq!(status, 200, "{fast_body}");
    let cycles = |body: &str| {
        Json::parse(body)
            .unwrap()
            .get("results")
            .unwrap()
            .as_array()
            .unwrap()[0]
            .get("cycles")
            .and_then(Json::as_u64)
            .unwrap()
    };
    assert!(
        cycles(&slow_body) > cycles(&fast_body),
        "slower memory must cost cycles"
    );

    handle.shutdown();
    handle.join();
}
