//! Consistent-hash fleet sharding over real sockets: deterministic
//! routing to each key's rendezvous owner, warm replays on the owner,
//! and failover to the next shard (which re-records) when the owner dies.

use cachetime::{keyed, SystemConfig};
use cachetime_serve::client::{ClientConfig, FleetClient};
use cachetime_serve::{serve, ServerConfig, ServerHandle};
use cachetime_trace::catalog;
use cachetime_types::Json;

fn start_fleet(n: usize) -> (Vec<ServerHandle>, Vec<String>) {
    let mut handles = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let handle = serve(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..Default::default()
        })
        .expect("bind an ephemeral port");
        addrs.push(handle.local_addr().to_string());
        handles.push(handle);
    }
    (handles, addrs)
}

fn sim_body(scale: f64) -> String {
    format!(r#"{{"trace": {{"name": "mu3", "scale": {scale}}}}}"#)
}

#[test]
fn keys_route_to_their_owner_and_failover_rerecords() {
    let (mut handles, addrs) = start_fleet(3);
    let mut fleet = FleetClient::new(addrs.clone(), ClientConfig::default()).unwrap();
    let org = SystemConfig::paper_default().unwrap().organization();

    // Record a spread of pairings; each must be served by its ring owner
    // and carry the same content key the client computes locally.
    let scales: Vec<f64> = (0..6).map(|i| 0.004 + i as f64 * 0.001).collect();
    let mut keys = Vec::new();
    for &scale in &scales {
        let key = keyed::trace_key(&org, &catalog::mu3(scale));
        let (status, body, shard) = fleet
            .request_keyed(key, "POST", "/v1/simulate", &sim_body(scale))
            .expect("fleet simulate");
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            shard,
            fleet.ring().owner(key),
            "must land on the ring owner"
        );
        let v = Json::parse(&body).unwrap();
        assert_eq!(
            v.get("key").and_then(Json::as_str),
            Some(format!("{key:016x}").as_str()),
            "server and client must derive the same content key"
        );
        assert_eq!(v.get("cached").and_then(Json::as_bool), Some(false));
        keys.push((key, scale));
    }

    // Warm replays stay on the owner.
    for &(key, _) in &keys {
        let body = format!(r#"{{"key": "{key:016x}", "cycle_times_ns": [40, 20]}}"#);
        let (status, resp, shard) = fleet
            .request_keyed(key, "POST", "/v1/replay", &body)
            .expect("fleet replay");
        assert_eq!(status, 200, "{resp}");
        assert_eq!(shard, fleet.ring().owner(key));
    }

    // Kill one shard that owns at least one key; its keys must fail over
    // to the next preference and re-record there, while other shards'
    // keys are untouched.
    let victim = fleet.ring().owner(keys[0].0);
    handles.remove(victim).shutdown_and_join();
    for &(key, scale) in &keys {
        let pref = fleet.ring().preference(key);
        let expect_shard = if pref[0] == victim { pref[1] } else { pref[0] };
        let (status, body, shard) = fleet
            .request_keyed(key, "POST", "/v1/simulate", &sim_body(scale))
            .expect("fleet simulate after shard loss");
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            shard, expect_shard,
            "failover must follow the preference order"
        );
        let v = Json::parse(&body).unwrap();
        let expected_cached = pref[0] != victim; // survivors stay warm
        assert_eq!(
            v.get("cached").and_then(Json::as_bool),
            Some(expected_cached),
            "failed-over keys re-record, surviving owners serve warm"
        );
    }

    for h in handles {
        h.shutdown_and_join();
    }
}

trait ShutdownJoin {
    fn shutdown_and_join(self);
}

impl ShutdownJoin for ServerHandle {
    fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}
