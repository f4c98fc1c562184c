//! Membership chaos — the self-healing fleet contract end to end.
//!
//! A three-shard fleet records a key set at replication 2, loses a shard
//! mid-load, and must keep every key warm on a survivor with **zero**
//! re-recordings. The shard then rejoins on the same address with a
//! *fresh* data directory — peer handoff is the only possible source of
//! its segments — and after one rebalance pass it must hold and serve
//! every segment the ring places on it, bit-identical to an in-process
//! `Simulator::run`. A second suite arms the `peer.fetch` fault point and
//! asserts corrupt transfers are quarantined, never adopted, and that the
//! fleet heals once the fault budget drains.

use cachetime::{keyed, Simulator, SystemConfig};
use cachetime_disk::DiskConfig;
use cachetime_serve::client::{ClientConfig, FleetClient};
use cachetime_serve::fault::FaultPlan;
use cachetime_serve::{api, serve_with_app, App, FleetConfig, ServerConfig, ServerHandle};
use cachetime_trace::catalog;
use cachetime_types::Json;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cachetime-membership-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn disk_config(root: &Path) -> DiskConfig {
    DiskConfig {
        root: root.to_path_buf(),
        budget_bytes: 0,
        quarantine_cap_bytes: 0,
    }
}

/// Reserves `n` distinct loopback addresses. The listeners are all held
/// until every port is bound, then dropped together, so no two shards
/// get the same port. Rebinding works because `TcpListener::bind` sets
/// `SO_REUSEADDR` on unix — which is also what lets a shard *rejoin* on
/// its old address while stale connections sit in TIME_WAIT.
fn reserve_addrs(n: usize) -> Vec<String> {
    let held: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    held.iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

/// One fleet member: durable store on `root`, recovery scan, rendezvous
/// ring over `peers`. Mirrors what `ctserve --data-dir --peers` builds.
fn start_shard(
    addr: &str,
    root: &Path,
    peers: &[String],
    faults: Option<FaultPlan>,
) -> ServerHandle {
    let mut app = App::new(usize::MAX);
    if let Some(faults) = faults {
        app = app.with_faults(faults);
    }
    let app = app
        .with_disk(disk_config(root))
        .expect("open segment store");
    app.recover_from_disk().expect("recovery scan");
    let app = app
        .with_fleet(FleetConfig {
            peers: peers.to_vec(),
            self_addr: addr.to_string(),
            client: ClientConfig::default(),
        })
        .expect("join fleet");
    serve_with_app(
        ServerConfig {
            addr: addr.to_string(),
            workers: 2,
            ..Default::default()
        },
        Arc::new(app),
    )
    .expect("bind shard")
}

fn sim_body(scale: f64) -> String {
    format!(r#"{{"trace": {{"name": "mu3", "scale": {scale}}}}}"#)
}

#[test]
fn a_killed_shard_loses_no_keys_and_rejoins_via_handoff() {
    let addrs = reserve_addrs(3);
    let roots: Vec<PathBuf> = (0..3).map(|i| scratch(&format!("shard{i}"))).collect();
    let mut handles: Vec<Option<ServerHandle>> = addrs
        .iter()
        .zip(&roots)
        .map(|(addr, root)| Some(start_shard(addr, root, &addrs, None)))
        .collect();

    let mut fleet = FleetClient::new(addrs.clone(), ClientConfig::default()).unwrap();
    assert_eq!(fleet.replication(), 2);
    let org = SystemConfig::paper_default().unwrap().organization();

    // ---- Record a key set at R=2: every write lands on the top two
    // endpoints of its key's preference order.
    let scales: Vec<f64> = (0..8).map(|i| 0.004 + i as f64 * 0.001).collect();
    let mut keys = Vec::new();
    for &scale in &scales {
        let key = keyed::trace_key(&org, &catalog::mu3(scale));
        let (status, body, shard) = fleet
            .request_replicated(key, "POST", "/v1/simulate", &sim_body(scale))
            .expect("replicated record");
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            shard,
            fleet.ring().owner(key),
            "answer comes from the owner"
        );
        keys.push((key, scale));
    }

    // ---- kill -9 the owner of keys[0]. Replicas live on disk and in the
    // survivors' stores; an abrupt shutdown loses nothing a SIGKILL
    // wouldn't (spills are synchronous).
    let victim = fleet.ring().owner(keys[0].0);
    let h = handles[victim].take().unwrap();
    h.shutdown();
    h.join();

    // Every key must still answer warm from a survivor: zero lost keys...
    let survivors: Vec<usize> = (0..3).filter(|&ix| ix != victim).collect();
    let misses = |handles: &[Option<ServerHandle>]| -> u64 {
        survivors
            .iter()
            .map(|&ix| handles[ix].as_ref().unwrap().app().store.stats().misses)
            .sum()
    };
    let before = misses(&handles);
    for &(key, scale) in &keys {
        let (status, body, shard) = fleet
            .request_keyed(key, "POST", "/v1/simulate", &sim_body(scale))
            .expect("failover simulate");
        assert_eq!(status, 200, "{body}");
        assert_ne!(shard, victim, "the dead shard cannot answer");
        let v = Json::parse(&body).unwrap();
        assert_eq!(
            v.get("cached").and_then(Json::as_bool),
            Some(true),
            "key {key:016x} must stay warm at R=2 after one shard loss"
        );
    }
    // ...and zero re-recordings: the survivors' miss counters held still.
    assert_eq!(misses(&handles), before, "failover must never re-record");
    let breaker = &fleet.breakers()[victim];
    assert!(
        breaker.consecutive_failures > 0,
        "the victim's breaker must have seen its death"
    );

    // ---- Rejoin on the same address with a FRESH data directory: peer
    // handoff is the only way segments can appear here.
    let fresh = scratch("rejoin");
    handles[victim] = Some(start_shard(&addrs[victim], &fresh, &addrs, None));
    let rejoined = handles[victim].as_ref().unwrap().app();
    let report = rejoined.rebalance().expect("rebalance pass");
    let placed: Vec<(u64, f64)> = keys
        .iter()
        .copied()
        .filter(|&(key, _)| fleet.ring().preference(key)[..2].contains(&victim))
        .collect();
    assert!(
        !placed.is_empty(),
        "the ring places drill keys on every shard"
    );
    assert_eq!(
        report.pulled,
        placed.len() as u64,
        "pull exactly what the ring places here"
    );
    assert_eq!(report.rejected, 0);
    assert_eq!(report.fetch_failures, 0);
    assert_eq!(report.dropped, 0);

    // Handed-off segments replay bit-identically to a fresh simulation,
    // through the rejoined shard's own HTTP surface.
    let config = SystemConfig::paper_default().unwrap();
    for &(key, scale) in &placed {
        assert!(rejoined.disk().unwrap().contains(key));
        let body = format!(r#"{{"key": "{key:016x}", "cycle_times_ns": [40]}}"#);
        let (status, resp) = fleet
            .request_on(victim, "POST", "/v1/replay", &body)
            .expect("replay on rejoined shard");
        assert_eq!(status, 200, "{resp}");
        let v = Json::parse(&resp).unwrap();
        let direct = Simulator::new(&config).run(&catalog::mu3(scale).generate());
        assert_eq!(
            v.get("results")
                .and_then(Json::as_array)
                .and_then(|a| a.first()),
            Some(&api::sim_result_to_json(&direct)),
            "handed-off replay must be bit-identical (key {key:016x})"
        );
    }

    // ---- Breaker recovery: once the cooldown lapses, the next keyed
    // request half-open-probes the rejoined shard, succeeds, and closes
    // the breaker — traffic returns to the preferred owner.
    std::thread::sleep(Duration::from_millis(900)); // > max jittered cooldown (750ms)
    let (key, scale) = keys[0];
    let (status, body, shard) = fleet
        .request_keyed(key, "POST", "/v1/simulate", &sim_body(scale))
        .expect("post-rejoin simulate");
    assert_eq!(status, 200, "{body}");
    assert_eq!(shard, victim, "traffic returns to the recovered owner");
    let v = Json::parse(&body).unwrap();
    assert_eq!(
        v.get("cached").and_then(Json::as_bool),
        Some(true),
        "the handed-off copy serves warm on the rejoined owner"
    );
    assert_eq!(fleet.breakers()[victim].state, "closed");

    for h in handles.into_iter().flatten() {
        h.shutdown();
        h.join();
    }
    for root in roots.iter().chain([&fresh]) {
        let _ = std::fs::remove_dir_all(root);
    }
}

#[test]
fn corrupt_handoff_transfers_are_quarantined_never_adopted() {
    let addrs = reserve_addrs(2);
    let root_a = scratch("donor");
    let root_b = scratch("adopter");

    // Shard A records everything alone (its peer is not up yet; replica
    // writes tolerate that), so it is the only holder.
    let handle_a = start_shard(&addrs[0], &root_a, &addrs, None);
    let mut fleet = FleetClient::new(addrs.clone(), ClientConfig::default()).unwrap();
    let org = SystemConfig::paper_default().unwrap().organization();
    let scales: Vec<f64> = (0..6).map(|i| 0.004 + i as f64 * 0.001).collect();
    let mut keys = Vec::new();
    for &scale in &scales {
        let key = keyed::trace_key(&org, &catalog::mu3(scale));
        let (status, _) = fleet
            .request_on(0, "POST", "/v1/simulate", &sim_body(scale))
            .expect("record on donor");
        assert_eq!(status, 200);
        keys.push(key);
    }

    // Shard B joins with every peer.fetch transfer torn — but only for
    // the first `keys.len()` faults, so a later pass can heal.
    let faults =
        FaultPlan::seeded(0xFEE7_C4A0).arm_disk("peer.fetch", 1.0, 0.0, Some(keys.len() as u64));
    let handle_b = start_shard(&addrs[1], &root_b, &addrs, Some(faults));
    let app_b = handle_b.app();

    // Pass 1: every transfer is mangled. Nothing may be adopted — not to
    // disk, not to the in-memory store — and every reject leaves
    // quarantine evidence.
    let report = app_b.rebalance().expect("faulted rebalance");
    assert_eq!(report.pulled, 0, "a torn transfer must never be adopted");
    assert_eq!(report.rejected, keys.len() as u64);
    assert_eq!(report.fetch_failures, 0);
    for &key in &keys {
        assert!(
            !app_b.disk().unwrap().contains(key),
            "no poisoned segment on disk"
        );
    }
    assert_eq!(
        app_b.store.stats().entries,
        0,
        "no poisoned trace in memory"
    );
    let disk_metrics = app_b.disk().unwrap().metrics();
    assert_eq!(disk_metrics.quarantine_files(), keys.len() as i64);
    assert!(root_b.join("quarantine").is_dir());
    assert_eq!(app_b.fleet_stats.rejected.get(), keys.len() as u64);

    // Pass 2: the fault budget is spent; the same pass now heals — every
    // segment adopts cleanly and serves warm, bit-identical to a fresh
    // simulation.
    let report = app_b.rebalance().expect("clean rebalance");
    assert_eq!(
        report.pulled,
        keys.len() as u64,
        "the fleet heals once faults drain"
    );
    assert_eq!(report.rejected, 0);
    let config = SystemConfig::paper_default().unwrap();
    for (&key, &scale) in keys.iter().zip(&scales) {
        assert!(app_b.disk().unwrap().contains(key));
        let body = format!(r#"{{"key": "{key:016x}", "cycle_times_ns": [40]}}"#);
        let (status, resp) = fleet
            .request_on(1, "POST", "/v1/replay", &body)
            .expect("replay adopted segment");
        assert_eq!(status, 200, "{resp}");
        let v = Json::parse(&resp).unwrap();
        let direct = Simulator::new(&config).run(&catalog::mu3(scale).generate());
        assert_eq!(
            v.get("results")
                .and_then(Json::as_array)
                .and_then(|a| a.first()),
            Some(&api::sim_result_to_json(&direct))
        );
    }

    for h in [handle_a, handle_b] {
        h.shutdown();
        h.join();
    }
    for root in [&root_a, &root_b] {
        let _ = std::fs::remove_dir_all(root);
    }
}
