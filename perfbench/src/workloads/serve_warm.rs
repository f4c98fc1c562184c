//! `serve-warm`: one interactive client on keys recorded during set-up.
//! No recording and no disk, so what is left is the request path —
//! connection, parse, JSON, store lookup, replay — and conn/poll/http/api
//! changes show here. One connection, because two clients plus the
//! server's loop thread would put three busy threads on two cores and
//! time the scheduler instead.

use super::serve::{
    loopback, post, priced_part, shadow_layers, shadow_request, stats_layers, Server,
};
use super::{
    common_layers, sampled, set_up, shuffle, timed_phases, Digest, Outcome, Pass, Phase, Rounds,
    RunOptions, Summary, CYCLE_TIMES_NS, SIZES_KIB,
};
use crate::host::{Coupling, HostClock};
use crate::spans::{span, Collector, Tree};
use cachetime::{simulate, SimResult, SystemConfig};
use cachetime_cache::CacheConfig;
use cachetime_serve::api::sim_result_to_json;
use cachetime_serve::client::HttpClient;
use cachetime_testkit::derive_seed;
use cachetime_trace::{catalog, Trace};
use cachetime_types::{CacheSize, CycleTime, Json};
use std::collections::HashMap;

/// Workload size.
#[derive(Debug, Clone)]
pub struct Params {
    /// Catalog trace scale of the resident keys.
    pub scale: f64,
    /// Catalog traces with resident keys.
    pub traces: Vec<&'static str>,
    /// L1 sizes with resident keys.
    pub sizes_kib: Vec<u64>,
    /// Share of requests that are 16-point `/v1/replay` calls; the rest
    /// are single-point `/v1/simulate` calls.
    pub replay_share: f64,
}

impl Params {
    /// The benchmark's size: 2 traces × 11 sizes = 22 resident keys, and
    /// a pass asks every (key, cycle time) cell once: 352 requests.
    pub fn full() -> Params {
        Params {
            scale: 0.005,
            traces: vec!["mu3", "savec"],
            sizes_kib: SIZES_KIB.to_vec(),
            replay_share: 0.1,
        }
    }

    /// A size for tests.
    pub fn tiny() -> Params {
        Params {
            scale: 0.002,
            traces: vec!["mu3"],
            sizes_kib: vec![4, 64],
            replay_share: 0.25,
        }
    }
}

/// The L1-size × cycle-time machine of one request.
fn config(size_kib: u64, ct_ns: u32) -> SystemConfig {
    let l1 = CacheConfig::builder(CacheSize::from_kib(size_kib).expect("power of two"))
        .build()
        .expect("valid cache");
    SystemConfig::builder()
        .cycle_time(CycleTime::from_ns(ct_ns).expect("nonzero"))
        .l1_both(l1)
        .build()
        .expect("valid system")
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    trace: usize,
    size: usize,
    ct: usize,
}

/// Expected results, simulated in process on demand.
struct Expected<'p> {
    p: &'p Params,
    traces: HashMap<usize, Trace>,
    results: HashMap<(usize, usize, usize), SimResult>,
}

impl Expected<'_> {
    fn get(&mut self, trace: usize, size: usize, ct: usize) -> SimResult {
        let p = self.p;
        let t = self.traces.entry(trace).or_insert_with(|| {
            catalog::by_name(p.traces[trace], p.scale)
                .expect("catalog trace")
                .generate()
        });
        *self
            .results
            .entry((trace, size, ct))
            .or_insert_with(|| simulate(&config(p.sizes_kib[size], CYCLE_TIMES_NS[ct]), t))
    }
}

/// Runs the workload.
pub fn run(p: &Params, opts: &RunOptions, col: Option<&Collector>) -> Outcome {
    let sim_body = |c: Cell| {
        format!(
            r#"{{"config": {{"cycle_time_ns": {}, "l1": {{"size_kib": {}}}}}, "trace": {{"name": "{}", "scale": {}}}}}"#,
            CYCLE_TIMES_NS[c.ct], p.sizes_kib[c.size], p.traces[c.trace], p.scale
        )
    };
    let all_cts = CYCLE_TIMES_NS.map(|ct| ct.to_string()).join(", ");

    let host = HostClock::new(1, Coupling::Shared);
    // Set-up: boot the server and record every resident key.
    let ((server, mut client, keys), setup_s, setup_speed, setup_spans) = set_up(col, |_| {
        let server = Server::boot(loopback());
        let mut client = server.connect();
        let mut keys = Vec::new();
        for trace in 0..p.traces.len() {
            for size in 0..p.sizes_kib.len() {
                let a = post(
                    &mut client,
                    "/v1/simulate",
                    &sim_body(Cell { trace, size, ct: 5 }),
                );
                let key = a
                    .json()
                    .and_then(|v| v.get("key").and_then(Json::as_str).map(str::to_string));
                keys.push(key.unwrap_or_else(|| panic!("set-up simulate failed: {}", a.body)));
            }
        }
        (server, client, keys)
    });

    let cells: Vec<Cell> = (0..p.traces.len())
        .flat_map(|trace| {
            (0..p.sizes_kib.len()).flat_map(move |size| {
                (0..CYCLE_TIMES_NS.len()).map(move |ct| Cell { trace, size, ct })
            })
        })
        .collect();
    let replays = (p.replay_share * cells.len() as f64).round() as usize;
    let mut expected = Expected {
        p,
        traces: HashMap::new(),
        results: HashMap::new(),
    };
    let mut out = Outcome {
        setup_s,
        setup_speed,
        tail_q: 0.99,
        digest: Digest::new(cells.len() as u64),
        ..Outcome::default()
    };
    let mut pass_no = 0u64;
    let mut req = 0u64;
    let mut stats = None;

    // One pass asks every cell once, in a seeded order; a seeded
    // `replay_share` of them become 16-point replays of the cell's key.
    let mut pass =
        |client: &mut HttpClient, col: Option<&Collector>, phase: &mut Phase, timed: bool| {
            let seed = derive_seed(opts.seed, pass_no);
            pass_no += 1;
            let mut order = cells.clone();
            shuffle(&mut order, seed);
            let mut is_replay: Vec<bool> = (0..order.len()).map(|i| i < replays).collect();
            shuffle(&mut is_replay, !seed);
            let started = std::time::Instant::now();
            let mut answers = Vec::with_capacity(order.len());
            for (&cell, &replay) in order.iter().zip(&is_replay) {
                let (path, body) = if replay {
                    let key = &keys[cell.trace * p.sizes_kib.len() + cell.size];
                    let body = format!(r#"{{"key": "{key}", "cycle_times_ns": [{all_cts}]}}"#);
                    ("/v1/replay", body)
                } else {
                    ("/v1/simulate", sim_body(cell))
                };
                let a = {
                    let _op = span(col, "op", Some(req));
                    post(client, path, &body)
                };
                if let Some(c) = col {
                    shadow_request(c, req, Some(server.app()), path, &body, || {
                        (!replay).then(|| expected.get(cell.trace, cell.size, cell.ct))
                    });
                }
                answers.push((req, cell, replay, a));
                req += 1;
            }
            let wall_s = started.elapsed().as_secs_f64();
            if !timed {
                return;
            }
            phase.passes[0].push(Pass {
                work: answers.len() as f64,
                wall_s,
                latencies_us: answers.iter().map(|(.., a)| a.latency_us).collect(),
            });
            for (req, cell, replay, a) in answers {
                phase.attempted += 1;
                if !a.ok() {
                    phase.failed += 1;
                    eprintln!(
                        "serve-warm: request {req} answered {}: {}",
                        a.status, a.body
                    );
                    continue;
                }
                let check = sampled(opts.seed, 0, req);
                if !check && !out.digest.wants_more() {
                    continue;
                }
                let Some(v) = a.json() else {
                    phase.failed += 1;
                    continue;
                };
                out.digest.push(priced_part(&v).as_bytes());
                if check {
                    out.checks += 1;
                    let ok = if replay {
                        let want: Vec<Json> = (0..CYCLE_TIMES_NS.len())
                            .map(|ct| sim_result_to_json(&expected.get(cell.trace, cell.size, ct)))
                            .collect();
                        v.get("results").and_then(Json::as_array) == Some(&want[..])
                    } else {
                        let want = expected.get(cell.trace, cell.size, cell.ct);
                        v.get("result") == Some(&sim_result_to_json(&want))
                    };
                    if !ok {
                        out.checks_failed += 1;
                        eprintln!(
                            "serve-warm: request {req} priced a cell differently from simulate()"
                        );
                    }
                }
            }
        };

    pass(&mut client, None, &mut Phase::default(), false);
    let (main, traced) = timed_phases(opts, &host, col, |length, col| {
        let mut phase = Phase {
            passes: vec![Vec::new()],
            summary: Summary::Windowed,
            ..Phase::default()
        };
        if col.is_some() {
            stats = Some(server.stats());
        }
        Rounds::new(&host, 1, length).run(|| pass(&mut client, col, &mut phase, true));
        phase
    });
    out.main = main;

    if let Some((phase, spans)) = traced {
        let setup = Tree::build(setup_spans);
        let timed = Tree::build(spans);
        common_layers(&setup, &timed, &mut out.layers);
        stats_layers(
            &stats.expect("stats before the traced phase"),
            &server.stats(),
            &mut out.layers,
        );
        shadow_layers(&timed, phase.latency_us(0.5, false), &mut out.layers);
        out.traced = Some(phase);
        out.trees = vec![setup, timed];
    }
    out.kernel_us = host.samples();
    out
}
