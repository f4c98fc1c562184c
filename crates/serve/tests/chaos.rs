//! Deterministic fault-injection storm: 8 chaos clients hammer one server
//! over the paper's 11×16 grid while a seeded [`FaultPlan`] injects delays
//! and panics inside the handlers. Afterwards the server must be fully
//! healthy — no deadlock (the test finishing *is* the assertion), no
//! stranded in-flight markers, `/healthz` back to `"ok"`, and every
//! surviving store entry still replaying bit-identically to a direct
//! `Simulator::run`.

use cachetime::Simulator;
use cachetime_serve::client::HttpClient;
use cachetime_serve::fault::{self, FaultPlan};
use cachetime_serve::{api, serve_with_app, App, Limits, ServerConfig};
use cachetime_testkit::derive_seed;
use cachetime_trace::catalog;
use cachetime_types::Json;
use std::sync::Arc;
use std::time::Duration;

const ROOT_SEED: u64 = 0xC5A0_5EED;
const THREADS: usize = 8;
const ROUNDS_PER_THREAD: usize = 44; // 8 × 44 = 352 rounds ≈ 2 grid passes
const SCALE: f64 = 0.002; // tiny workloads; chaos is about paths, not cycles

/// Silences the default panic message for *injected* panics only, so the
/// storm's deliberate unwinds don't bury real failures in the test log.
fn quiet_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("injected fault panic"));
        if !injected {
            default_hook(info);
        }
    }));
}

#[test]
fn seeded_chaos_storm_leaves_the_server_healthy() {
    quiet_injected_panics();
    // Arm faults on every named point: short delays are common, panics
    // rare but guaranteed to occur at these budgets over 352 rounds.
    // serve.handle and serve.record mix delays with a budgeted ration of
    // panics (the transport converts those to recognizable 500s, which the
    // chaos client tolerates and counts). serve.write gets delays only: a
    // write-phase panic drops the connection with no response at all,
    // which would be indistinguishable from a server bug here — that path
    // has its own targeted test in robustness.rs.
    let faults = FaultPlan::seeded(ROOT_SEED)
        .arm_delay("serve.write", 0.05, Duration::from_millis(5), None)
        .arm_panic("serve.handle", 0.02, Some(4))
        .arm_panic("serve.record", 0.05, Some(4));
    let app = Arc::new(
        App::new(8 * 1024 * 1024) // tight budget: eviction churn under fire
            .with_limits(Limits {
                request_deadline: Duration::from_secs(30),
                max_inflight_recordings: 4,
            })
            .with_faults(faults),
    );
    let handle = serve_with_app(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            ..Default::default()
        },
        Arc::clone(&app),
    )
    .expect("bind an ephemeral port");
    let addr = handle.local_addr().to_string();

    let threads: Vec<_> = (0..THREADS)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                fault::run_chaos_client(
                    &addr,
                    derive_seed(ROOT_SEED, i as u64),
                    SCALE,
                    ROUNDS_PER_THREAD,
                )
            })
        })
        .collect();
    let mut total = fault::ChaosReport::default();
    for t in threads {
        let report = t.join().expect("chaos thread must not panic");
        match report {
            Ok(r) => total.merge(&r),
            Err(e) => panic!("protocol violation under chaos: {e}"),
        }
    }
    assert_eq!(total.rounds as usize, THREADS * ROUNDS_PER_THREAD);
    assert!(total.ok > 0, "some traffic must succeed: {total:?}");
    assert!(
        total.faulted > 0,
        "the clients must actually misbehave: {total:?}"
    );
    assert!(
        total.panicked >= 1,
        "the armed panics never surfaced as 500s — the run proved nothing: {total:?}"
    );
    assert!(
        app.faults().injected() >= 1,
        "fault plan never fired — the chaos run proved nothing"
    );

    // Recovery: health back to "ok" (no recordings stuck in flight) and
    // the request in-flight gauge drained.
    let mut client = HttpClient::connect(&addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = client.get("/healthz").unwrap();
        assert_eq!(status, 200, "{body}");
        let health = Json::parse(&body).unwrap();
        if health.get("status").and_then(Json::as_str) == Some("ok") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "healthz stuck degraded after chaos: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let (_, body) = client.get("/v1/stats").unwrap();
    let stats = Json::parse(&body).unwrap();
    let store = stats.get("store").unwrap();
    assert_eq!(
        store.get("recordings_in_flight").and_then(Json::as_u64),
        Some(0),
        "stranded in-flight marker after chaos: {body}"
    );

    // No corruption: a grid cell simulated through the chaos-scarred
    // store must still be bit-identical to a direct in-process run.
    let size_kib = fault::GRID_SIZES_KIB[3];
    let ct_ns = fault::GRID_CYCLE_TIMES_NS[5];
    let (status, body) = client
        .post("/v1/simulate", &fault::grid_body(size_kib, ct_ns, SCALE))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let served = Json::parse(&body).unwrap();
    let config_json = Json::parse(&fault::grid_body(size_kib, ct_ns, SCALE)).unwrap();
    let config = api::system_config_from_json(config_json.get("config")).unwrap();
    let direct = Simulator::new(&config).run(&catalog::mu3(SCALE).generate());
    assert_eq!(
        served.get("result"),
        Some(&api::sim_result_to_json(&direct)),
        "store corrupted: served result diverges from Simulator::run"
    );

    handle.shutdown();
    handle.join();
}

/// Chaos aimed at the event loop's own failure modes, which the grid storm
/// above cannot reach: idle keep-alive connections parked in the epoll set
/// while faults fire, clients that vanish without reading their response
/// (EPIPE on the loop thread, mid-write and mid-injected-delay), and
/// `serve.write` *panics* — which drop the connection with no response and
/// were deliberately excluded from the grid storm. Afterwards the server
/// must be healthy, the store bit-identical, and — the event-loop-specific
/// part — the connections that sat parked through the whole storm must
/// still work, never having been poisoned by a neighbor's chaos.
#[test]
fn event_loop_chaos_with_parked_and_vanishing_clients() {
    use std::io::{Read, Write};

    quiet_injected_panics();
    let faults = FaultPlan::seeded(ROOT_SEED ^ 0xE7E2)
        .arm_delay("serve.write", 0.25, Duration::from_millis(3), None)
        .arm_panic("serve.write", 0.04, Some(3))
        .arm_panic("serve.handle", 0.02, Some(3));
    let app = Arc::new(
        App::new(64 * 1024 * 1024)
            .with_limits(Limits {
                request_deadline: Duration::from_secs(30),
                max_inflight_recordings: 4,
            })
            .with_faults(faults),
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

    // Warm one key so the storm has an inline (loop-thread) replay path to
    // hammer — the path a `serve.write` fault hits most often.
    let mut warm = HttpClient::connect(&addr).unwrap();
    let (status, body) = warm
        .post("/v1/simulate", &fault::grid_body(64, 40, SCALE))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let key = Json::parse(&body)
        .unwrap()
        .get("key")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // Park keep-alive connections for the duration: each sends one request
    // up front (so the server has seen them alive), reads its response,
    // then goes silent inside the epoll set.
    let mut parked: Vec<std::net::TcpStream> = (0..8)
        .map(|_| {
            let mut s = std::net::TcpStream::connect(&addr).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut buf = [0u8; 1024];
            let n = s.read(&mut buf).unwrap();
            assert!(
                buf[..n].starts_with(b"HTTP/1.1 200"),
                "parked conn greeting"
            );
            s
        })
        .collect();

    // Vanishers: request, then hang up without reading — or half-read and
    // hang up — so the loop eats EPIPE at every write phase, including
    // inside injected delays.
    let replay_body = format!(r#"{{"key": "{key}", "cycle_times_ns": [40, 20]}}"#);
    let vanishers: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            let body = replay_body.clone();
            std::thread::spawn(move || {
                for round in 0..24usize {
                    let Ok(mut s) = std::net::TcpStream::connect(&addr) else {
                        continue;
                    };
                    let req = format!(
                        "POST /v1/replay HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                        body.len(),
                        body
                    );
                    let _ = s.write_all(req.as_bytes());
                    if (i + round) % 2 == 0 {
                        let _ = s.set_read_timeout(Some(Duration::from_millis(20)));
                        let mut one = [0u8; 64];
                        let _ = s.read(&mut one); // half a response at most
                    }
                    drop(s); // vanish
                }
            })
        })
        .collect();

    // Well-behaved clients on the same warm key; a dropped connection
    // (injected write panic) is tolerated by reconnecting, anything else
    // must be a clean 200/500/503.
    let citizens: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let body = replay_body.clone();
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut round = 0usize;
                let mut client = HttpClient::connect(&addr).unwrap();
                while round < 40 {
                    round += 1;
                    match client.post("/v1/replay", &body) {
                        Ok((200, _)) => ok += 1,
                        Ok((500, body)) => {
                            assert!(body.contains("panic"), "unexplained 500: {body}")
                        }
                        Ok((503, _)) => {}
                        Ok((status, body)) => {
                            panic!("unexpected status {status} under chaos: {body}")
                        }
                        // Dropped mid-response by an injected write panic.
                        Err(_) => client = HttpClient::connect(&addr).unwrap(),
                    }
                }
                ok
            })
        })
        .collect();

    for v in vanishers {
        v.join().expect("vanisher threads must not panic");
    }
    let mut ok_total = 0;
    for c in citizens {
        ok_total += c.join().expect("citizen threads must not panic");
    }
    assert!(ok_total > 0, "some well-behaved traffic must succeed");
    assert!(app.faults().injected() >= 1, "fault plan never fired");

    // The parked connections sat in the epoll set through every fault.
    // They must still be live, fully functional connections.
    for s in &mut parked {
        s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = [0u8; 1024];
        let n = s.read(&mut buf).unwrap();
        assert!(
            buf[..n].starts_with(b"HTTP/1.1 200"),
            "a parked connection came out of the storm broken"
        );
    }

    // Recovery + no corruption, same bar as the grid storm: health green,
    // nothing stranded, and the chaos-scarred store still replays the warm
    // key bit-identically to a direct Simulator::run.
    let mut client = HttpClient::connect(&addr).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = client.get("/healthz").unwrap();
        assert_eq!(status, 200, "{body}");
        if Json::parse(&body)
            .unwrap()
            .get("status")
            .and_then(Json::as_str)
            == Some("ok")
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "healthz stuck degraded after event-loop chaos: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let (status, body) = client.post("/v1/replay", &replay_body).unwrap();
    assert_eq!(status, 200, "{body}");
    let served = Json::parse(&body).unwrap();
    let results = served.get("results").and_then(Json::as_array).unwrap();
    let config_json = Json::parse(&fault::grid_body(64, 40, SCALE)).unwrap();
    let config = api::system_config_from_json(config_json.get("config")).unwrap();
    let direct = Simulator::new(&config).run(&catalog::mu3(SCALE).generate());
    assert_eq!(
        results[0],
        api::sim_result_to_json(&direct),
        "store corrupted: post-chaos replay diverges from Simulator::run"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn grid_bodies_parse_into_the_cells_they_name() {
    // The chaos client and the bit-identity check both trust grid_body to
    // describe the cell it names; pin that mapping here.
    for (i, &size_kib) in fault::GRID_SIZES_KIB.iter().enumerate() {
        let ct_ns = fault::GRID_CYCLE_TIMES_NS[i % fault::GRID_CYCLE_TIMES_NS.len()];
        let v = Json::parse(&fault::grid_body(size_kib, ct_ns, SCALE)).unwrap();
        let c = api::system_config_from_json(v.get("config")).unwrap();
        assert_eq!(u64::from(c.cycle_time().ns()), u64::from(ct_ns));
        assert_eq!(c.l1d().size().kib(), size_kib);
    }
}
