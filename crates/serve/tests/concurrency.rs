//! The flat-latency contract: warm replays must not fall off a cliff
//! when the connection count grows.
//!
//! ROADMAP's measured failure mode was warm replay p50 collapsing by two
//! orders of magnitude once a handful of keep-alive clients shared the
//! server. The mechanism is the worker pool's connection rotation: a
//! worker that pops an idle keep-alive connection blocks on it for the
//! idle poll (10ms) before moving on, so every *ready* connection behind
//! it waits. A fleet where most connections are between requests — the
//! normal shape of production keep-alive traffic — makes each served
//! request pay `idle_connections x idle_poll / workers` of other
//! people's idleness.
//!
//! The regression shape here pins exactly that: 16 warm-replay clients,
//! one on a tight cadence and fifteen on a slow one (idle for seconds
//! between their replays, connections held open). Under the worker pool
//! the active client's p50 is tens of milliseconds; under the
//! readiness-driven event loop idle connections cost nothing and the p50
//! stays within a small constant of the solo run. The bound leaves an
//! order of magnitude of headroom on both sides.

use cachetime_serve::client::HttpClient;
use cachetime_serve::{serve, ServerConfig};
use cachetime_types::Json;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Total clients in the loaded leg; 1 active + (CLIENTS - 1) slow.
const CLIENTS: usize = 16;
/// Measured requests by the active client in the loaded leg.
const LOADED_REQUESTS: usize = 30;
/// Measured requests in the solo leg.
const SOLO_REQUESTS: usize = 100;
/// The loaded p50 may exceed `max(solo p50, NOISE_FLOOR)` by at most
/// this factor. The worker-pool cliff this pins was >100x.
const P50_RATIO_BOUND: u64 = 10;
/// Solo p50s on a quiet host are ~100µs; floor the denominator so an
/// unusually fast solo run cannot turn scheduler noise into a failure.
const NOISE_FLOOR_US: u64 = 50;

fn p50_us(mut samples: Vec<u64>) -> u64 {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One warm replay, returning its client-observed latency in µs.
fn timed_replay(client: &mut HttpClient, body: &str) -> u64 {
    let started = Instant::now();
    let (status, resp) = client.post("/v1/replay", body).expect("replay request");
    assert_eq!(status, 200, "{resp}");
    started.elapsed().as_micros() as u64
}

#[test]
fn warm_replay_p50_stays_flat_from_1_to_16_clients() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..Default::default()
    })
    .expect("bind an ephemeral port");
    let addr = handle.local_addr().to_string();

    // Warm exactly one key; every request below replays it.
    let mut client = HttpClient::connect(&addr).unwrap();
    let (status, body) = client
        .post(
            "/v1/simulate",
            r#"{"trace": {"name": "mu3", "scale": 0.002}}"#,
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let key = Json::parse(&body)
        .unwrap()
        .get("key")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let replay_body = format!(r#"{{"key": "{key}", "cycle_times_ns": [40]}}"#);

    // Solo leg: one keep-alive client, back to back, nobody else connected.
    for _ in 0..10 {
        timed_replay(&mut client, &replay_body); // warmup, unmeasured
    }
    let solo: Vec<u64> = (0..SOLO_REQUESTS)
        .map(|_| timed_replay(&mut client, &replay_body))
        .collect();
    let solo_p50 = p50_us(solo);
    drop(client);

    // Loaded leg: 15 slow-cadence replay clients park their keep-alive
    // connections between requests while 1 active client measures.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let active_done = Arc::new(AtomicBool::new(false));
    let slow: Vec<_> = (1..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let body = replay_body.clone();
            let barrier = Arc::clone(&barrier);
            let active_done = Arc::clone(&active_done);
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(&addr).unwrap();
                let first = timed_replay(&mut c, &body);
                barrier.wait();
                // Idle (connection open) until the active client finishes,
                // then replay once more — the fleet must still be served.
                while !active_done.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(20));
                }
                let last = timed_replay(&mut c, &body);
                (first, last)
            })
        })
        .collect();
    let mut active = HttpClient::connect(&addr).unwrap();
    barrier.wait();
    timed_replay(&mut active, &replay_body); // warmup, unmeasured
    let loaded: Vec<u64> = (0..LOADED_REQUESTS)
        .map(|_| timed_replay(&mut active, &replay_body))
        .collect();
    let loaded_p50 = p50_us(loaded);
    active_done.store(true, Ordering::SeqCst);
    for t in slow {
        let (first, last) = t.join().unwrap();
        assert!(first > 0 && last > 0, "slow clients must be served");
    }

    handle.shutdown();
    handle.join();

    let bound = solo_p50.max(NOISE_FLOOR_US) * P50_RATIO_BOUND;
    assert!(
        loaded_p50 <= bound,
        "concurrency cliff: warm replay p50 {solo_p50}µs solo vs {loaded_p50}µs \
         with {CLIENTS} keep-alive clients (bound {bound}µs = max(solo, \
         {NOISE_FLOOR_US}µs) x {P50_RATIO_BOUND})"
    );
}
