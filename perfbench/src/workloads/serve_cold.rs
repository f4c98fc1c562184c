//! `serve-cold`: writes beside reads. Two closed-loop clients against a
//! durable server whose memory store holds only part of the keys they
//! touch. Of each client's pass, a quarter of requests name a never-seen
//! organization (the server regenerates the trace, records, spills and
//! replays), half revisit a recent key, and a quarter an older key that
//! has likely been evicted and reads back from disk. Recording dominates,
//! so engine, store, codec and memory-budget changes show here, and a
//! change to replay alone should barely move it.

use super::serve::{
    loopback, post, priced_part, shadow_layers, shadow_request, stats_layers, Answer, Server,
};
use super::{
    common_layers, generate, sampled, set_up, shuffle, timed_phases, Digest, Outcome, Pass, Phase,
    Rounds, RunOptions, Summary, CYCLE_TIMES_NS,
};
use crate::host::{Coupling, HostClock};
use crate::spans::{span, Collector, Tree};
use cachetime::{codec, replay, simulate, BehavioralSim, SystemConfig};
use cachetime_cache::{CacheConfig, VictimCacheConfig, WayPrediction};
use cachetime_serve::api::sim_result_to_json;
use cachetime_serve::ServerConfig;
use cachetime_testkit::{derive_seed, SplitMix64};
use cachetime_trace::{catalog, Trace};
use cachetime_types::{Assoc, BlockWords, CacheSize, CycleTime, Json};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload size.
#[derive(Debug, Clone)]
pub struct Params {
    /// Catalog traces organizations draw from.
    pub traces: Vec<&'static str>,
    /// Trace scales organizations draw from.
    pub scales: Vec<f64>,
    /// L1 sizes organizations draw from.
    pub sizes_kib: Vec<u64>,
    /// Associativities organizations draw from.
    pub assocs: Vec<u32>,
    /// Block sizes (words) organizations draw from.
    pub blocks: Vec<u32>,
    /// Concurrent closed-loop clients.
    pub connections: usize,
    /// Byte budget of the server's memory store.
    pub store_budget_bytes: usize,
    /// Requests per pass of one client; a multiple of 4.
    pub pass_requests: usize,
    /// How many of a client's latest keys count as recent.
    pub recent: usize,
}

impl Params {
    /// The benchmark's size. The R2000 traces are left out: their
    /// unscaled initialization prefixes make every recording of them
    /// cost as much as a full-scale one, whatever the scale.
    pub fn full() -> Params {
        Params {
            traces: vec!["mu3", "mu6", "mu10", "savec"],
            // 0.01 to 0.02 in steps of 0.0001: each client owns half of
            // these (so one client's never-seen organization is never one
            // the other just recorded), about 29,000 organizations each,
            // several times what a run draws.
            scales: (100..=200).map(|k| f64::from(k) / 10_000.0).collect(),
            sizes_kib: vec![4, 8, 16, 32, 64, 128],
            assocs: vec![1, 2, 4],
            blocks: vec![4, 8, 16],
            connections: 2,
            store_budget_bytes: 24 << 20,
            pass_requests: 64,
            recent: 16,
        }
    }

    /// A size for tests.
    pub fn tiny() -> Params {
        Params {
            traces: vec!["mu3", "savec"],
            scales: vec![0.002, 0.0025],
            sizes_kib: vec![4, 8],
            assocs: vec![1, 2],
            blocks: vec![4],
            connections: 2,
            store_budget_bytes: 64 << 10,
            pass_requests: 8,
            recent: 4,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Feature {
    Plain,
    Victim,
    Mru,
}

/// One cache organization and the trace it runs: a store key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Org {
    trace: usize,
    scale: usize,
    size: usize,
    assoc: usize,
    block: usize,
    feature: Feature,
}

impl Org {
    /// A random organization among client `client`'s: those whose scale
    /// index is `client` modulo the client count.
    fn draw(p: &Params, client: usize, rng: &mut SplitMix64) -> Org {
        let owned = (p.scales.len() - client).div_ceil(p.connections);
        let scale = client + p.connections * rng.gen_range(0..owned);
        let assoc = rng.gen_range(0..p.assocs.len());
        let features: &[Feature] = if p.assocs[assoc] > 1 {
            &[Feature::Plain, Feature::Victim, Feature::Mru]
        } else {
            &[Feature::Plain, Feature::Victim]
        };
        Org {
            trace: rng.gen_range(0..p.traces.len()),
            scale,
            size: rng.gen_range(0..p.sizes_kib.len()),
            assoc,
            block: rng.gen_range(0..p.blocks.len()),
            feature: features[rng.gen_range(0..features.len())],
        }
    }

    fn body(&self, p: &Params, ct: usize) -> String {
        let feature = match self.feature {
            Feature::Plain => "",
            Feature::Victim => r#", "victim_entries": 8"#,
            Feature::Mru => r#", "way_prediction": "mru""#,
        };
        format!(
            r#"{{"config": {{"cycle_time_ns": {}, "l1": {{"size_kib": {}, "assoc": {}, "block_words": {}{feature}}}}}, "trace": {{"name": "{}", "scale": {}}}}}"#,
            CYCLE_TIMES_NS[ct],
            p.sizes_kib[self.size],
            p.assocs[self.assoc],
            p.blocks[self.block],
            p.traces[self.trace],
            p.scales[self.scale]
        )
    }

    fn config(&self, p: &Params, ct: usize) -> SystemConfig {
        let mut l1 =
            CacheConfig::builder(CacheSize::from_kib(p.sizes_kib[self.size]).expect("pow2"));
        l1.assoc(Assoc::new(p.assocs[self.assoc]).expect("pow2"));
        l1.block(BlockWords::new(p.blocks[self.block]).expect("pow2"));
        match self.feature {
            Feature::Plain => {}
            Feature::Victim => {
                l1.victim_cache(VictimCacheConfig::new(8).expect("in range"));
            }
            Feature::Mru => {
                l1.way_prediction(WayPrediction::Mru);
            }
        }
        SystemConfig::builder()
            .cycle_time(CycleTime::from_ns(CYCLE_TIMES_NS[ct]).expect("nonzero"))
            .l1_both(l1.build().expect("valid cache"))
            .build()
            .expect("valid system")
    }
}

/// Which organization a request names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Want {
    /// One never seen before.
    Fresh,
    /// One of the client's `recent` latest.
    Recent,
    /// An older one, likely evicted to disk.
    Older,
}

/// One client's seeded request stream and key history.
struct Stream {
    client: usize,
    rng: SplitMix64,
    seen: HashSet<Org>,
    history: Vec<Org>,
}

impl Stream {
    fn new(client: usize, seed: u64) -> Stream {
        Stream {
            client,
            rng: SplitMix64::from_seed(derive_seed(seed, client as u64)),
            seen: HashSet::new(),
            history: Vec::new(),
        }
    }

    /// A never-seen organization, if the space has one left.
    fn fresh(&mut self, p: &Params) -> Option<Org> {
        for _ in 0..1_000 {
            let org = Org::draw(p, self.client, &mut self.rng);
            if self.seen.insert(org) {
                self.history.push(org);
                return Some(org);
            }
        }
        None
    }

    /// One pass's requests, `(organization, cycle time, never seen
    /// before)`: a quarter never-seen organizations, half one of the
    /// `recent` latest and a quarter an older one, in a seeded order. A
    /// fixed mix keeps every pass the same amount of work.
    fn pass(&mut self, p: &Params) -> Vec<(Org, usize, bool)> {
        let n = p.pass_requests;
        let mut wants: Vec<Want> = (0..n)
            .map(|i| match i * 4 / n {
                0 => Want::Fresh,
                1 | 2 => Want::Recent,
                _ => Want::Older,
            })
            .collect();
        shuffle(&mut wants, self.rng.next_u64());
        wants
            .into_iter()
            .map(|want| {
                let ct = self.rng.gen_range(0..CYCLE_TIMES_NS.len());
                let h = self.history.len();
                if want == Want::Fresh || h == 0 {
                    if let Some(org) = self.fresh(p) {
                        return (org, ct, true);
                    }
                }
                let org = if want == Want::Recent || h <= p.recent {
                    self.history[h - 1 - self.rng.gen_range(0..p.recent.min(h))]
                } else {
                    self.history[self.rng.gen_range(0..h - p.recent)]
                };
                (org, ct, false)
            })
            .collect()
    }
}

/// A sampled answer, kept for the output check.
struct Kept {
    org: Org,
    ct: usize,
    result: Option<Json>,
}

/// What one client measured in one phase.
#[derive(Default)]
struct ClientPhase {
    phase: Phase,
    first_pass: Vec<String>,
    kept: Vec<Kept>,
}

/// Removes the server's data directory when dropped.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the workload.
pub fn run(p: &Params, opts: &RunOptions, col: Option<&Collector>) -> Outcome {
    // The clients and the server keep both cores busy, so calibrate on
    // both. Every request passes through the server's loop thread, and
    // each round waits for both clients, so time stolen from either CPU
    // stalls them all.
    let host = HostClock::new(p.connections, Coupling::Chained);
    // Set-up: boot a durable server on an empty directory and give each
    // client `recent` recorded organizations to come back to.
    let mut rep = 0;
    let ((server, _dir, mut streams), setup_s, setup_speed, setup_spans) = set_up(col, |_| {
        rep += 1;
        let dir = DataDir(opts.work_dir.join(format!("serve-cold-{rep}")));
        let _ = std::fs::remove_dir_all(&dir.0);
        let server = Server::boot(ServerConfig {
            store_budget_bytes: p.store_budget_bytes,
            data_dir: Some(dir.0.clone()),
            disk_budget_bytes: 1 << 30,
            ..loopback()
        });
        let mut client = server.connect();
        let streams: Vec<Stream> = (0..p.connections)
            .map(|c| {
                let mut stream = Stream::new(c, opts.seed);
                for _ in 0..p.recent {
                    let org = stream.fresh(p).expect("room for the first organizations");
                    let a = post(&mut client, "/v1/simulate", &org.body(p, 5));
                    assert!(a.ok(), "set-up simulate answered {}: {}", a.status, a.body);
                }
                stream
            })
            .collect();
        (server, dir, streams)
    });
    let mut counters = vec![0u64; p.connections];

    // The clients run whole passes in lockstep rounds until `length` is
    // up. In a traced phase each also runs the shadow pass after each
    // answer; for a never-seen organization that regenerates, records,
    // encodes and decodes the trace the way the server just did.
    let mut run_clients = |length: Duration, col: Option<&Collector>, timed: bool| {
        let rounds = Rounds::new(&host, p.connections, length);
        std::thread::scope(|scope| {
            let workers: Vec<_> = streams
                .iter_mut()
                .zip(counters.iter_mut())
                .enumerate()
                .map(|(c, (stream, counter))| {
                    let (server, rounds) = (&server, &rounds);
                    scope.spawn(move || {
                        let mut client = server.connect();
                        let mut out = ClientPhase::default();
                        out.phase.passes.push(Vec::new());
                        let mut first = true;
                        rounds.run(|| {
                            let started = Instant::now();
                            let mut answers: Vec<(u64, Org, usize, Answer)> = Vec::new();
                            for (org, ct, cold) in stream.pass(p) {
                                let body = org.body(p, ct);
                                let req = *counter * p.connections as u64 + c as u64;
                                *counter += 1;
                                let a = {
                                    let _op = span(col, "op", Some(req));
                                    post(&mut client, "/v1/simulate", &body)
                                };
                                if let Some(col) = col {
                                    shadow_request(col, req, None, "/v1/simulate", &body, || {
                                        cold.then(|| shadow_record(col, p, org, ct))
                                    });
                                }
                                answers.push((req, org, ct, a));
                            }
                            let wall_s = started.elapsed().as_secs_f64();
                            if !timed {
                                return;
                            }
                            out.phase.passes[0].push(Pass {
                                work: answers.len() as f64,
                                wall_s,
                                latencies_us: answers.iter().map(|(.., a)| a.latency_us).collect(),
                            });
                            for (req, org, ct, a) in answers {
                                out.phase.attempted += 1;
                                if !a.ok() {
                                    out.phase.failed += 1;
                                    eprintln!(
                                        "serve-cold: request {req} answered {}: {}",
                                        a.status, a.body
                                    );
                                    continue;
                                }
                                let check = sampled(opts.seed, c as u64, req);
                                if !first && !check {
                                    continue;
                                }
                                let v = a.json();
                                if first {
                                    out.first_pass
                                        .push(v.as_ref().map_or_else(String::new, priced_part));
                                }
                                if check {
                                    let result = v.and_then(|v| v.get("result").cloned());
                                    out.kept.push(Kept { org, ct, result });
                                }
                            }
                            first = false;
                        });
                        out
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread"))
                .collect::<Vec<ClientPhase>>()
        })
    };

    // Warm-up: one pass per client, so the timed stream always starts at
    // the same request.
    run_clients(Duration::ZERO, None, false);

    let mut out = Outcome {
        setup_s,
        setup_speed,
        // Not the p99: stolen time reshapes the latency distribution, and
        // in ten runs, three of them with 40% of the CPUs stolen, the
        // calibrated p99 read 30% high in those three and spread by 0.28.
        // The p90 lies between the p50, which calibration over-corrects,
        // and that p99, and has 2,000 samples beyond it.
        tail_q: 0.9,
        digest: Digest::new((p.connections * p.pass_requests) as u64),
        ..Outcome::default()
    };
    let mut kept = Vec::new();
    let mut stats = None;
    let (main, traced) = timed_phases(opts, &host, col, |length, col| {
        if col.is_some() {
            stats = Some(server.stats());
        }
        let mut phase = Phase {
            summary: Summary::Pooled,
            ..Phase::default()
        };
        for client in run_clients(length, col, true) {
            phase.passes.extend(client.phase.passes);
            phase.attempted += client.phase.attempted;
            phase.failed += client.phase.failed;
            for r in client.first_pass {
                out.digest.push(r.as_bytes());
            }
            kept.extend(client.kept);
        }
        phase
    });
    out.main = main;

    let mut traces: HashMap<(usize, usize), Trace> = HashMap::new();
    for k in kept {
        out.checks += 1;
        let trace = traces.entry((k.org.trace, k.org.scale)).or_insert_with(|| {
            catalog::by_name(p.traces[k.org.trace], p.scales[k.org.scale])
                .expect("catalog trace")
                .generate()
        });
        let want = sim_result_to_json(&simulate(&k.org.config(p, k.ct), trace));
        if k.result.as_ref() != Some(&want) {
            out.checks_failed += 1;
            eprintln!("serve-cold: a sampled answer differs from simulate()");
        }
    }

    if let Some((phase, spans)) = traced {
        let setup = Tree::build(setup_spans);
        let timed = Tree::build(spans);
        common_layers(&setup, &timed, &mut out.layers);
        stats_layers(
            &stats.expect("stats before the traced phase"),
            &server.stats(),
            &mut out.layers,
        );
        let per_op = |name: &str| {
            let (_, ns, ops) = timed.all_totals(name);
            if ops == 0 {
                0.0
            } else {
                ns as f64 / ops as f64
            }
        };
        out.layers.insert(
            "core.codec.encode_ns_per_op".into(),
            per_op("core.codec.encode"),
        );
        out.layers.insert(
            "core.codec.decode_ns_per_op".into(),
            per_op("core.codec.decode"),
        );
        shadow_layers(&timed, phase.latency_us(0.5, false), &mut out.layers);
        out.traced = Some(phase);
        out.trees = vec![setup, timed];
    }
    out.kernel_us = host.samples();
    out
}

/// The shadow of a cold request: what the server did to answer it,
/// repeated on the client thread — generate, record, encode and decode
/// (the spill and a later read-back), replay.
fn shadow_record(col: &Collector, p: &Params, org: Org, ct: usize) -> cachetime::SimResult {
    let spec = catalog::by_name(p.traces[org.trace], p.scales[org.scale]).expect("catalog trace");
    let trace = generate(Some(col), &spec);
    let config = org.config(p, ct);
    let events = BehavioralSim::new(&config.organization()).record(&trace);
    let bytes = {
        let mut s = col.span("core.codec.encode", None);
        s.set_work(events.ops().len() as u64);
        codec::encode(&events)
    };
    let decoded = {
        let mut s = col.span("core.codec.decode", None);
        s.set_work(events.ops().len() as u64);
        codec::decode(&bytes).expect("a fresh encoding decodes")
    };
    replay(&decoded, &config).expect("one organization")
}
