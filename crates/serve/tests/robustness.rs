//! Targeted failure-path exercises over real sockets: slowloris peers get
//! `408`, oversized bodies get `413` before any body byte is read, the
//! recording admission limit sheds cold simulates with `503 + Retry-After`
//! while warm replays keep serving, and an injected handler panic becomes
//! a `500` with the worker pool surviving.

use cachetime_serve::client::{ClientConfig, HttpClient};
use cachetime_serve::fault::FaultPlan;
use cachetime_serve::{serve_with_app, App, Limits, ServerConfig};
use cachetime_types::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A server with a deliberately short request deadline and one admission
/// slot, so every limit in this file is cheap to hit.
fn tight_server(faults: FaultPlan) -> (cachetime_serve::ServerHandle, Arc<App>, String) {
    let app = Arc::new(
        App::new(64 * 1024 * 1024)
            .with_limits(Limits {
                request_deadline: Duration::from_millis(800),
                max_inflight_recordings: 1,
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
    (handle, app, addr)
}

fn read_to_close(s: &mut TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .unwrap_or(0);
    (status, text)
}

#[test]
fn slowloris_gets_408_not_a_parked_worker() {
    let (handle, _app, addr) = tight_server(FaultPlan::inert());
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Start a request and never finish it. The server must answer 408
    // within its 800 ms deadline (plus scheduling slack), not hold the
    // socket open indefinitely.
    s.write_all(b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 50\r\n")
        .unwrap();
    let started = std::time::Instant::now();
    let (status, text) = read_to_close(&mut s);
    assert_eq!(status, 408, "{text}");
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "408 took {:?} — deadline not enforced",
        started.elapsed()
    );

    // The pool survived: a normal request on a fresh connection works.
    let mut client = HttpClient::connect(&addr).unwrap();
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    let (_, body) = client.get("/v1/stats").unwrap();
    let stats = Json::parse(&body).unwrap();
    assert!(
        stats
            .get("server")
            .unwrap()
            .get("timeouts")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1,
        "{body}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn zero_deadline_is_408_before_any_handler_work() {
    // Regression: `X-Deadline-Ms: 0` (or any budget smaller than the
    // time the request took to arrive) used to start the handler with an
    // already-expired deadline — burning a recording slot for an answer
    // that could never be delivered in time. It must be refused with 408
    // at frame time, before any handler work.
    let (handle, app, addr) = tight_server(FaultPlan::inert());
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let body = r#"{"trace": {"name": "mu3", "scale": 0.002}}"#;
    let req = format!(
        "POST /v1/simulate HTTP/1.1\r\nX-Deadline-Ms: 0\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    s.write_all(req.as_bytes()).unwrap();
    let started = std::time::Instant::now();
    let (status, text) = read_to_close(&mut s);
    assert_eq!(status, 408, "{text}");
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "the 408 must be immediate, not a recording later: {:?}",
        started.elapsed()
    );
    // No handler work happened: nothing was recorded, nothing was shed.
    let store = app.store.stats();
    assert_eq!(store.misses, 0, "the simulate handler must not have run");
    assert_eq!(app.stats.shed.get(), 0);
    assert!(app.stats.timeouts.get() >= 1, "the 408 is a timeout");

    // A deadline smaller than the arrival time of a dribbled request
    // trips the same check even though the value is nonzero.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\nX-Deadline-Ms: 20\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(80));
    s.write_all(b"\r\n").unwrap();
    let (status, text) = read_to_close(&mut s);
    assert_eq!(status, 408, "{text}");

    handle.shutdown();
    handle.join();
}

#[test]
fn oversized_content_length_is_413_before_the_body_arrives() {
    let (handle, _app, addr) = tight_server(FaultPlan::inert());
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Claim a body far past MAX_BODY_BYTES but send none of it: the 413
    // must arrive anyway, proving the refusal happens at head-parse time.
    s.write_all(b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    let (status, text) = read_to_close(&mut s);
    assert_eq!(status, 413, "{text}");

    handle.shutdown();
    handle.join();
}

#[test]
fn shed_cold_simulates_while_warm_replays_keep_serving() {
    let (handle, app, addr) = tight_server(FaultPlan::inert());

    // Warm a key over HTTP while the slot is free.
    let mut client = HttpClient::connect(&addr).unwrap();
    let warm_body = r#"{"trace": {"name": "mu3", "scale": 0.002}}"#;
    let (status, body) = client.post("/v1/simulate", warm_body).unwrap();
    assert_eq!(status, 200, "{body}");
    let key = Json::parse(&body)
        .unwrap()
        .get("key")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // Occupy the single admission slot deterministically: a recording
    // through the shared store that blocks until we release it.
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let blocker = {
        let app = Arc::clone(&app);
        std::thread::spawn(move || {
            app.store
                .fetch_or_record(0xB10C_4EED, usize::MAX, None, move || {
                    rx.recv().unwrap();
                    let config = cachetime::SystemConfig::paper_default().unwrap();
                    Some(
                        cachetime::keyed::record(
                            &config.organization(),
                            &cachetime_trace::catalog::savec(0.002),
                        )
                        .1,
                    )
                })
        })
    };
    while app.store.stats().in_flight == 0 {
        std::thread::yield_now();
    }

    // The server reports degraded while the slot is held...
    let (_, hbody) = client.get("/healthz").unwrap();
    assert_eq!(
        Json::parse(&hbody)
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("degraded"),
        "{hbody}"
    );
    // ...a cold simulate sheds with 503 + Retry-After instead of queueing...
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let cold = r#"{"trace": {"name": "savec", "scale": 0.003}}"#;
    let req = format!(
        "POST /v1/simulate HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        cold.len(),
        cold
    );
    raw.write_all(req.as_bytes()).unwrap();
    let (status, text) = read_to_close(&mut raw);
    assert_eq!(
        status, 503,
        "cold simulate during degradation must shed: {text}"
    );
    assert!(
        text.to_ascii_lowercase().contains("retry-after:"),
        "shed responses must carry Retry-After: {text}"
    );
    // ...and a warm replay still answers 200.
    let rbody = format!(r#"{{"key": "{key}", "cycle_times_ns": [40]}}"#);
    let (rstatus, rresp) = client.post("/v1/replay", &rbody).unwrap();
    assert_eq!(
        rstatus, 200,
        "warm replay failed during degradation: {rresp}"
    );
    // Shed is visible in stats.
    let (_, sbody) = client.get("/v1/stats").unwrap();
    let stats = Json::parse(&sbody).unwrap();
    let server = stats.get("server").unwrap();
    assert!(
        server.get("shed").and_then(Json::as_u64).unwrap() >= 1,
        "{sbody}"
    );
    assert_eq!(server.get("degraded").and_then(Json::as_bool), Some(true));

    // Release the slot: recovery is immediate and visible.
    tx.send(()).unwrap();
    blocker.join().unwrap();
    let (_, hbody) = client.get("/healthz").unwrap();
    assert_eq!(
        Json::parse(&hbody)
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("ok"),
        "{hbody}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn handler_panic_becomes_500_and_the_pool_survives() {
    let (handle, app, addr) = tight_server(FaultPlan::inert().panic_once("serve.handle"));
    let mut client = HttpClient::connect(&addr).unwrap();

    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 500, "the armed panic must surface as a 500: {body}");
    assert!(body.contains("panic"), "{body}");

    // Same pool, next request: served normally, panic counted.
    let mut client = HttpClient::connect(&addr).unwrap();
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    let (_, body) = client.get("/v1/stats").unwrap();
    let stats = Json::parse(&body).unwrap();
    assert_eq!(
        stats
            .get("server")
            .unwrap()
            .get("panics")
            .and_then(Json::as_u64),
        Some(1),
        "{body}"
    );
    assert_eq!(app.faults().injected(), 1);

    handle.shutdown();
    handle.join();
}

#[test]
fn write_phase_panic_drops_the_connection_but_not_the_worker() {
    // A panic between the handler and the response write means the client
    // gets nothing — the connection just closes. The worker must survive
    // and the panic must be counted.
    let (handle, app, addr) = tight_server(FaultPlan::inert().panic_once("serve.write"));
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, text) = read_to_close(&mut s);
    assert_eq!(status, 0, "no response must have been written: {text:?}");

    let mut client = HttpClient::connect(&addr).unwrap();
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(
        status, 200,
        "the worker pool must survive a write-phase panic"
    );
    assert_eq!(app.stats.panics.get(), 1);

    handle.shutdown();
    handle.join();
}

#[test]
fn client_retries_reconnect_after_a_severed_connection() {
    // The 503 + Retry-After shed path is covered above; here pin the
    // client half of the contract. A one-shot panic closes the client's
    // keep-alive connection (500s always close); the client's next request
    // hits the dead socket, and with retries armed it must reconnect and
    // succeed instead of surfacing the I/O error.
    let (handle, _app, addr) = tight_server(FaultPlan::inert().panic_once("serve.handle"));
    let mut client = HttpClient::connect_with(
        &addr,
        ClientConfig {
            retries: 3,
            backoff_base: Duration::from_millis(10),
            retry_seed: 11,
            ..ClientConfig::default()
        },
    )
    .unwrap();

    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 500, "the one-shot panic fires first");
    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(
        status, 200,
        "retry must reconnect through the dead socket: {body}"
    );

    // A client without retries surfaces the error instead: same scenario,
    // explicit contract that retries are opt-in.
    let (handle2, _app2, addr2) = tight_server(FaultPlan::inert().panic_once("serve.handle"));
    let mut bare = HttpClient::connect(&addr2).unwrap();
    let (status, _) = bare.get("/healthz").unwrap();
    assert_eq!(status, 500);
    assert!(
        bare.get("/healthz").is_err(),
        "without retries the dead socket must surface as an error"
    );
    handle2.shutdown();
    handle2.join();

    handle.shutdown();
    handle.join();
}
