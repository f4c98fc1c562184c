//! Restart-warm under disk chaos — the durability contract end to end.
//!
//! A server records a grid of pairings with `disk.write` faults armed, so
//! some spills land as torn or bit-flipped crash images under their final
//! segment names. The server is then "killed" (dropped; spills are
//! synchronous, so an abrupt drop loses nothing a real SIGKILL wouldn't)
//! and rebuilt on the same data directory. Recovery must:
//!
//! * seed every intact segment back into the in-memory store — zero
//!   re-recordings for those keys,
//! * quarantine every corrupt file (never crash, never serve garbage),
//! * replay recovered keys bit-identically to a direct `Simulator::run`.

use cachetime::{Simulator, SystemConfig};
use cachetime_disk::DiskConfig;
use cachetime_serve::client::HttpClient;
use cachetime_serve::fault::FaultPlan;
use cachetime_serve::{api, serve_with_app, App, Request, ServerConfig};
use cachetime_trace::catalog;
use cachetime_types::Json;
use std::sync::Arc;

fn scratch() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cachetime-restart-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn disk_config(root: &std::path::Path) -> DiskConfig {
    DiskConfig {
        root: root.to_path_buf(),
        budget_bytes: 0,
        quarantine_cap_bytes: 0,
    }
}

fn post(app: &App, path: &str, body: &str) -> (u16, Json) {
    let resp = app.handle(&Request {
        method: "POST".into(),
        path: path.into(),
        query: None,
        body: body.as_bytes().to_vec(),
        keep_alive: true,
        deadline_ms: None,
    });
    let v = Json::parse(&resp.body_text()).unwrap_or(Json::Null);
    (resp.status, v)
}

fn sim_body(scale: f64) -> String {
    format!(r#"{{"trace": {{"name": "mu3", "scale": {scale}}}}}"#)
}

#[test]
fn restart_recovers_intact_segments_and_quarantines_torn_ones() {
    let root = scratch();
    let scales: Vec<f64> = (0..10).map(|i| 0.004 + i as f64 * 0.001).collect();

    // ---- Life 1: record with write faults armed. Only torn/bit-flip
    // faults (no injected I/O errors): every fault leaves a crash image
    // on disk for recovery to find.
    let faults = FaultPlan::seeded(0xD15C_CA05).arm_disk("disk.write", 0.3, 0.2, None);
    let app = App::new(usize::MAX)
        .with_faults(faults)
        .with_disk(disk_config(&root))
        .expect("open segment store");
    for &scale in &scales {
        let (status, v) = post(&app, "/v1/simulate", &sim_body(scale));
        assert_eq!(status, 200, "recording must survive spill faults");
        assert_eq!(v.get("cached").and_then(Json::as_bool), Some(false));
    }
    let disk = app.disk().expect("disk attached");
    let intact = disk.metrics().spills();
    let corrupted = disk.metrics().spill_errors();
    assert_eq!(intact + corrupted, scales.len() as u64);
    assert!(intact > 0, "seed must let some spills through");
    assert!(corrupted > 0, "seed must corrupt some spills");
    drop(app); // SIGKILL: no shutdown path runs.

    // ---- Life 2: same directory, no faults.
    let app = App::new(usize::MAX)
        .with_disk(disk_config(&root))
        .expect("open segment store");
    let report = app.recover_from_disk().expect("scan");
    assert_eq!(report.recovered, intact, "every intact segment comes back");
    assert_eq!(
        report.quarantined, corrupted,
        "every crash image quarantined"
    );
    assert!(root.join("quarantine").is_dir());

    // Every pairing answers; recovered ones without re-recording.
    let config = SystemConfig::paper_default().unwrap();
    let mut served_warm = 0u64;
    for &scale in &scales {
        let (status, v) = post(&app, "/v1/simulate", &sim_body(scale));
        assert_eq!(status, 200);
        if v.get("cached").and_then(Json::as_bool) == Some(true) {
            served_warm += 1;
            // Bit-identity: the recovered trace replays exactly what a
            // fresh in-process simulation computes.
            let direct = Simulator::new(&config).run(&catalog::mu3(scale).generate());
            assert_eq!(
                v.get("result"),
                Some(&api::sim_result_to_json(&direct)),
                "recovered replay must be bit-identical to Simulator::run (scale {scale})"
            );
        }
    }
    assert_eq!(
        served_warm, intact,
        "exactly the recovered keys must serve warm (zero re-recordings)"
    );
    assert_eq!(
        app.store.stats().misses,
        scales.len() as u64 - intact,
        "only quarantined keys may re-record after restart"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn restart_after_clean_run_rerecords_nothing() {
    let root = scratch().with_extension("clean");
    let _ = std::fs::remove_dir_all(&root);
    let scales = [0.004, 0.005, 0.006];

    let app = App::new(usize::MAX)
        .with_disk(disk_config(&root))
        .expect("open segment store");
    for &scale in &scales {
        let (status, _) = post(&app, "/v1/simulate", &sim_body(scale));
        assert_eq!(status, 200);
    }
    drop(app);

    let app = App::new(usize::MAX)
        .with_disk(disk_config(&root))
        .expect("open segment store");
    let report = app.recover_from_disk().expect("scan");
    assert_eq!(report.recovered, scales.len() as u64);
    assert_eq!(report.quarantined, 0);
    for &scale in &scales {
        let (status, v) = post(&app, "/v1/simulate", &sim_body(scale));
        assert_eq!(status, 200);
        assert_eq!(
            v.get("cached").and_then(Json::as_bool),
            Some(true),
            "a clean restart must serve every key warm"
        );
    }
    assert_eq!(app.store.stats().misses, 0, "zero re-recordings");
    let _ = std::fs::remove_dir_all(&root);
}

fn upload_body(digest: &str) -> String {
    format!(r#"{{"trace": {{"upload": "{digest}"}}}}"#)
}

/// Uploads are not durable, so after a restart a simulate by upload
/// digest is admitted only because its segment is indexed on disk. When
/// that segment then fails to load, the answer is the unknown-upload
/// `404` — not a handler panic — and the corrupt file is quarantined.
#[test]
fn a_corrupt_upload_segment_after_restart_answers_404_not_a_panic() {
    let root = scratch().with_extension("upload");
    let _ = std::fs::remove_dir_all(&root);

    // ---- Life 1: upload two traces and record both; each spills.
    let app = App::new(usize::MAX)
        .with_disk(disk_config(&root))
        .expect("open segment store");
    let mut uploads = Vec::new();
    for scale in [0.003, 0.004] {
        let trace = catalog::mu3(scale).generate();
        let mut din = Vec::new();
        cachetime_trace::io::write_din(&mut din, trace.refs()).unwrap();
        let (status, v) = post(&app, "/v1/traces", std::str::from_utf8(&din).unwrap());
        assert_eq!(status, 200, "{v:?}");
        let digest = v.get("digest").and_then(Json::as_str).unwrap().to_string();
        let (status, v) = post(&app, "/v1/simulate", &upload_body(&digest));
        assert_eq!(status, 200, "{v:?}");
        let key = v.get("key").and_then(Json::as_str).unwrap().to_string();
        uploads.push((digest, key));
    }
    drop(app);

    // ---- Life 2: index the segments without seeding the memory store,
    // then flip one payload byte of the first.
    let app = Arc::new(
        App::new(usize::MAX)
            .with_disk(disk_config(&root))
            .expect("open segment store"),
    );
    let report = app.disk().unwrap().scan(|_, _| {}).expect("scan");
    assert_eq!(report.recovered, 2);
    let seg_name = format!("{}.seg", uploads[0].1);
    let seg = root.join(&seg_name);
    let mut bytes = std::fs::read(&seg).unwrap();
    *bytes.last_mut().unwrap() ^= 0x5a;
    std::fs::write(&seg, bytes).unwrap();

    let handle = serve_with_app(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..Default::default()
        },
        Arc::clone(&app),
    )
    .expect("bind an ephemeral port");
    let mut client = HttpClient::connect(&handle.local_addr().to_string()).unwrap();
    let (status, body) = client
        .post("/v1/simulate", &upload_body(&uploads[0].0))
        .unwrap();
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("unknown upload digest"), "{body}");
    // The key's in-flight marker is gone: the next request answers at
    // once, now without even trying the disk.
    let (status, body) = client
        .post("/v1/simulate", &upload_body(&uploads[0].0))
        .unwrap();
    assert_eq!(status, 404, "{body}");
    // The intact segment still serves.
    let (status, body) = client
        .post("/v1/simulate", &upload_body(&uploads[1].0))
        .unwrap();
    assert_eq!(status, 200, "{body}");

    let (status, text) = client
        .get("/v1/metrics?family=cachetime_server_panics_total")
        .unwrap();
    assert_eq!(status, 200, "{text}");
    assert!(
        text.lines().any(|l| l == "cachetime_server_panics_total 0"),
        "{text}"
    );
    let s = app.store.stats();
    assert!(s.lookups_balance(), "{s:?}");
    assert_eq!(s.in_flight, 0);
    assert!(!seg.exists());
    let quarantined: Vec<String> = std::fs::read_dir(root.join("quarantine"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        quarantined.iter().any(|n| n.starts_with(&seg_name)),
        "{quarantined:?}"
    );
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&root);
}

/// A data directory written before the op stream was packed holds
/// payload-v1 segments. Recovery quarantines them, and the first
/// simulate of such a key records it again, once, bit-identically.
#[test]
fn a_v1_segment_is_rerecorded_once_and_answers_bit_identically() {
    let root = scratch().with_extension("v1");
    let _ = std::fs::remove_dir_all(&root);
    let config = SystemConfig::paper_default().unwrap();
    let workload = catalog::mu3(0.001);
    let key = cachetime::keyed::trace_key(&config.organization(), &workload);
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(
        root.join(format!("{key:016x}.seg")),
        include_bytes!("../../disk/tests/fixtures/v1-mu3-0.001.seg"),
    )
    .unwrap();

    let app = App::new(usize::MAX)
        .with_disk(disk_config(&root))
        .expect("open segment store");
    let report = app.recover_from_disk().expect("scan");
    assert_eq!((report.recovered, report.quarantined), (0, 1));
    let direct = api::sim_result_to_json(&Simulator::new(&config).run(&workload.generate()));
    for cached in [false, true] {
        let (status, v) = post(&app, "/v1/simulate", &sim_body(0.001));
        assert_eq!(status, 200, "{v:?}");
        assert_eq!(
            v.get("key").and_then(Json::as_str),
            Some(api::key_hex(key).as_str())
        );
        assert_eq!(v.get("cached").and_then(Json::as_bool), Some(cached));
        assert_eq!(v.get("result"), Some(&direct));
    }
    assert_eq!(app.store.stats().misses, 1);
    // The recording spilled a current segment in the v1 one's place.
    drop(app);
    let app = App::new(usize::MAX)
        .with_disk(disk_config(&root))
        .expect("open segment store");
    let report = app.recover_from_disk().expect("scan");
    assert_eq!((report.recovered, report.quarantined), (1, 0));
    let _ = std::fs::remove_dir_all(&root);
}
