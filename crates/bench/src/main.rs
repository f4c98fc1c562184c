//! In-tree throughput harness — no external benchmark framework needed.
//!
//! `cargo run -p cachetime-bench --release -- sweep [scale]` times a
//! Figure 3-1-style speed–size grid three ways — direct single-pass
//! simulation of every cell, the two-phase record-once/replay-per-cell
//! pipeline, and the two-phase pipeline on a worker pool — prints
//! cells/sec for each, and writes the numbers to `BENCH_sweep.json` for
//! tracking across commits.
//!
//! `cachetime-bench serve [scale]` load-tests the `cachetime-serve` HTTP
//! server end to end: a cold leg that records each organization once, a
//! warm leg that re-asks every grid cell (all served by replay from the
//! store), and a batched `/v1/replay` leg; writes `BENCH_serve.json`.
//! `cachetime-bench serve-check <addr>` is the non-timing version — a
//! smoke client that asserts a running server answers simulate/replay
//! bit-identically to an in-process `Simulator::run` (used by
//! `scripts/verify.sh`).
//!
//! For A/B comparisons between commits, use the repository benchmark in
//! `perfbench/` (`run` and `compare`; see `perfbench/README.md`).

use cachetime::{replay_many, simulate, sweep, BehavioralSim, SimResult, Simulator, SystemConfig};
use cachetime_cache::{CacheConfig, VictimCacheConfig, WayPrediction};
use cachetime_serve::client::{ClientConfig, FleetClient, HttpClient};
use cachetime_serve::{api, fault, serve, ServerConfig};
use cachetime_testkit::derive_seed;
use cachetime_trace::{catalog, Trace};
use cachetime_types::{json_object, Assoc, CacheSize, CycleTime, Json};
use std::time::{Duration, Instant};

const DEFAULT_SCALE: f64 = 0.05;

/// The paper's §3 per-cache size axis: 2 KB through 2 MB. With the 16
/// cycle times below this is exactly the 11×16 speed–size grid the
/// two-phase pipeline was built for: 176 simulations per trace become 11
/// behavioral passes plus 176 replays.
const SIZES_KIB: [u64; 11] = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// The paper's full cycle-time axis — the dimension repricing collapses.
const CYCLE_TIMES_NS: [u32; 16] = [
    20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72, 76, 80,
];

fn build_config(size_kib: u64, ct_ns: u32) -> SystemConfig {
    let l1 = CacheConfig::builder(CacheSize::from_kib(size_kib).expect("pow2"))
        .build()
        .expect("valid cache");
    SystemConfig::builder()
        .cycle_time(CycleTime::from_ns(ct_ns).expect("nonzero"))
        .l1_both(l1)
        .build()
        .expect("valid system")
}

/// The organization-features leg compares like with like: the same 2-way
/// cache with and without a victim buffer + MRU way prediction, so the
/// measured delta is the feature machinery (victim probes, predictor
/// updates, the extra event variants), not a different cache.
fn build_features_config(size_kib: u64, ct_ns: u32, featured: bool) -> SystemConfig {
    let mut b = CacheConfig::builder(CacheSize::from_kib(size_kib).expect("pow2"));
    b.assoc(Assoc::new(2).expect("pow2"));
    if featured {
        b.victim_cache(VictimCacheConfig::new(8).expect("in range"));
        b.way_prediction(WayPrediction::Mru);
    }
    SystemConfig::builder()
        .cycle_time(CycleTime::from_ns(ct_ns).expect("nonzero"))
        .l1_both(b.build().expect("valid cache"))
        .build()
        .expect("valid system")
}

/// One grid cell: per-cache size × cycle time × trace index.
#[derive(Debug, Clone, Copy)]
struct Cell {
    size_kib: u64,
    ct_ns: u32,
    trace: usize,
}

fn build_cells(n_traces: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for size_kib in SIZES_KIB {
        for ct_ns in CYCLE_TIMES_NS {
            for trace in 0..n_traces {
                cells.push(Cell {
                    size_kib,
                    ct_ns,
                    trace,
                });
            }
        }
    }
    cells
}

/// One two-phase unit: an organization × trace pairing whose task records
/// the behavioral events once and replays every cycle time.
#[derive(Debug, Clone, Copy)]
struct OrgTask {
    size_kib: u64,
    trace: usize,
}

fn build_org_tasks(n_traces: usize) -> Vec<OrgTask> {
    let mut tasks = Vec::new();
    for size_kib in SIZES_KIB {
        for trace in 0..n_traces {
            tasks.push(OrgTask { size_kib, trace });
        }
    }
    tasks
}

struct Measurement {
    jobs: usize,
    wall: Duration,
    cells: usize,
    results: Vec<SimResult>,
}

impl Measurement {
    fn cells_per_sec(&self) -> f64 {
        self.cells as f64 / self.wall.as_secs_f64()
    }
}

/// Times the pre-refactor path: one full simulation per grid cell.
fn measure_direct(cells: &[Cell], traces: &[Trace], jobs: usize) -> Measurement {
    let run = sweep::run(cells, jobs, |_, c| {
        simulate(&build_config(c.size_kib, c.ct_ns), &traces[c.trace])
    })
    .expect("sweep succeeds");
    Measurement {
        jobs: run.jobs,
        wall: run.wall_time,
        cells: cells.len(),
        results: run.results,
    }
}

/// Times the two-phase path: per organization×trace, one behavioral pass
/// plus a timing replay per cycle time.
fn measure_two_phase(tasks: &[OrgTask], traces: &[Trace], jobs: usize) -> Measurement {
    let run = sweep::run(tasks, jobs, |_, t| {
        let configs: Vec<SystemConfig> = CYCLE_TIMES_NS
            .iter()
            .map(|&ct| build_config(t.size_kib, ct))
            .collect();
        let events = BehavioralSim::new(&configs[0].organization()).record(&traces[t.trace]);
        replay_many(&events, &configs).expect("same organization")
    })
    .expect("sweep succeeds");
    Measurement {
        jobs: run.jobs,
        wall: run.wall_time,
        cells: tasks.len() * CYCLE_TIMES_NS.len(),
        results: run.results.into_iter().flatten().collect(),
    }
}

/// [`measure_two_phase`] over the 2-way grid, featureless or featured —
/// the record/replay overhead leg of the organization features.
fn measure_two_phase_features(
    tasks: &[OrgTask],
    traces: &[Trace],
    jobs: usize,
    featured: bool,
) -> Measurement {
    let run = sweep::run(tasks, jobs, |_, t| {
        let configs: Vec<SystemConfig> = CYCLE_TIMES_NS
            .iter()
            .map(|&ct| build_features_config(t.size_kib, ct, featured))
            .collect();
        let events = BehavioralSim::new(&configs[0].organization()).record(&traces[t.trace]);
        replay_many(&events, &configs).expect("same organization")
    })
    .expect("sweep succeeds");
    Measurement {
        jobs: run.jobs,
        wall: run.wall_time,
        cells: tasks.len() * CYCLE_TIMES_NS.len(),
        results: run.results.into_iter().flatten().collect(),
    }
}

/// The direct grid is cell-major (sizes × cts × traces); the two-phase
/// grid is task-major (sizes × traces, cts inside). Reindex and compare —
/// the bench doubles as a full-grid equivalence check.
fn assert_equivalent(direct: &Measurement, two_phase: &Measurement, n_traces: usize) {
    let n_cts = CYCLE_TIMES_NS.len();
    for (si, _) in SIZES_KIB.iter().enumerate() {
        for ci in 0..n_cts {
            for t in 0..n_traces {
                let d = &direct.results[(si * n_cts + ci) * n_traces + t];
                let p = &two_phase.results[(si * n_traces + t) * n_cts + ci];
                assert_eq!(d, p, "divergence at size[{si}] ct[{ci}] trace[{t}]");
            }
        }
    }
}

fn run_sweep_bench(scale: f64) {
    let specs = catalog::all(scale);
    eprintln!("[bench] generating {} traces at scale {scale}...", specs.len());
    let traces: Vec<Trace> = specs.iter().map(|s| s.generate()).collect();
    let cells = build_cells(traces.len());
    let org_tasks = build_org_tasks(traces.len());
    let refs_per_pass: u64 = cells
        .iter()
        .map(|c| traces[c.trace].refs().len() as u64)
        .sum();
    let available_jobs = sweep::available_jobs();
    eprintln!(
        "[bench] grid: {} cells ({} organizations × {} cycle times), \
         {refs_per_pass} refs per direct pass, {available_jobs} jobs available",
        cells.len(),
        org_tasks.len(),
        CYCLE_TIMES_NS.len()
    );

    // Warm-up pass so page faults and lazy allocation don't bias the
    // first timed leg.
    let _ = measure_two_phase(&org_tasks, &traces, 1);

    let direct = measure_direct(&cells, &traces, 1);
    // Min-of-3 for the serial two-phase leg: it is a single ~1s pass, so
    // one scheduler stall on a shared host skews it (and the repricing
    // speedup built on it) by 30%; the direct leg is long enough to
    // average bursts out.
    let mut two_phase = measure_two_phase(&org_tasks, &traces, 1);
    for _ in 0..2 {
        let again = measure_two_phase(&org_tasks, &traces, 1);
        if again.wall < two_phase.wall {
            two_phase = again;
        }
    }
    let parallel = measure_two_phase(&org_tasks, &traces, 0);
    assert_equivalent(&direct, &two_phase, traces.len());

    // Observability leg: the instrumented engine (spans + counters on
    // the global registry) must cost under 2% against the same grid with
    // span timing switched off. Interleaved min-of-3, so machine drift
    // lands on both sides equally.
    let obs = cachetime_obs::global();
    let mut spans_off = Duration::MAX;
    let mut spans_on = Duration::MAX;
    for _ in 0..3 {
        obs.set_spans_enabled(false);
        spans_off = spans_off.min(measure_two_phase(&org_tasks, &traces, 1).wall);
        obs.set_spans_enabled(true);
        spans_on = spans_on.min(measure_two_phase(&org_tasks, &traces, 1).wall);
    }
    let obs_overhead = spans_on.as_secs_f64() / spans_off.as_secs_f64() - 1.0;

    // Organization-features leg: the same 2-way grid with and without a
    // victim buffer + MRU prediction, interleaved min-of-3 like the
    // observability leg. Records how much the feature machinery costs
    // the record/replay pipeline end to end.
    let mut features_off = Duration::MAX;
    let mut features_on = Duration::MAX;
    let mut features_on_cps = 0.0;
    for _ in 0..3 {
        features_off =
            features_off.min(measure_two_phase_features(&org_tasks, &traces, 1, false).wall);
        let on = measure_two_phase_features(&org_tasks, &traces, 1, true);
        if on.wall < features_on {
            features_on = on.wall;
            features_on_cps = on.cells_per_sec();
        }
    }
    let features_overhead = features_on.as_secs_f64() / features_off.as_secs_f64() - 1.0;

    let repricing_speedup = direct.wall.as_secs_f64() / two_phase.wall.as_secs_f64();
    println!(
        "direct    (1 job):    {:>8.1} cells/sec  wall {:?}",
        direct.cells_per_sec(),
        direct.wall
    );
    println!(
        "two-phase (1 job, min of 3): {:>8.1} cells/sec  wall {:?}",
        two_phase.cells_per_sec(),
        two_phase.wall
    );
    println!(
        "two-phase ({} jobs): {:>8.1} cells/sec  wall {:?}",
        parallel.jobs,
        parallel.cells_per_sec(),
        parallel.wall
    );
    println!("repricing speedup (direct → two-phase, serial): {repricing_speedup:.2}x");
    println!(
        "observability overhead (spans on vs off, min of 3): {:+.2}%  ({:?} vs {:?})",
        obs_overhead * 100.0,
        spans_on,
        spans_off
    );
    println!(
        "org-features overhead (victim+mru on vs off, 2-way grid, min of 3): {:+.2}%  ({:?} vs {:?})",
        features_overhead * 100.0,
        features_on,
        features_off
    );

    // A 1-core host runs the "parallel" leg with one worker; a speedup of
    // 1.0x there is a tautology, not a measurement, so record it as null.
    let parallel_speedup = if parallel.jobs > two_phase.jobs {
        let s = two_phase.wall.as_secs_f64() / parallel.wall.as_secs_f64();
        println!("parallel speedup ({} jobs): {s:.2}x", parallel.jobs);
        Json::Float(s)
    } else {
        println!(
            "parallel speedup: not measured (only {} job available)",
            parallel.jobs
        );
        Json::Null
    };

    let leg = |m: &Measurement| {
        json_object([
            ("jobs", Json::from(m.jobs)),
            ("wall_secs", Json::Float(m.wall.as_secs_f64())),
            ("cells_per_sec", Json::Float(m.cells_per_sec())),
        ])
    };
    let json = json_object([
        ("bench", Json::from("sweep")),
        ("scale", Json::Float(scale)),
        ("cells", Json::from(cells.len())),
        ("organizations", Json::from(org_tasks.len())),
        ("cycle_times", Json::from(CYCLE_TIMES_NS.len())),
        ("refs_per_pass", Json::from(refs_per_pass)),
        ("available_jobs", Json::from(available_jobs)),
        ("direct", leg(&direct)),
        ("two_phase", leg(&two_phase)),
        ("two_phase_parallel", leg(&parallel)),
        ("repricing_speedup", Json::Float(repricing_speedup)),
        ("parallel_speedup", parallel_speedup),
        (
            "obs",
            json_object([
                ("spans_on_min_secs", Json::Float(spans_on.as_secs_f64())),
                ("spans_off_min_secs", Json::Float(spans_off.as_secs_f64())),
                ("overhead_fraction", Json::Float(obs_overhead)),
            ]),
        ),
        (
            "features",
            json_object([
                ("on_min_secs", Json::Float(features_on.as_secs_f64())),
                ("off_min_secs", Json::Float(features_off.as_secs_f64())),
                ("overhead_fraction", Json::Float(features_overhead)),
                ("cells_per_sec_on", Json::Float(features_on_cps)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_sweep.json", json.pretty()).expect("write BENCH_sweep.json");
    eprintln!("[bench] wrote BENCH_sweep.json");

    assert!(
        obs_overhead < 0.02,
        "instrumentation must stay under 2% of two-phase wall time \
         (measured {:+.2}%)",
        obs_overhead * 100.0
    );
}

/// Client-side latency summary of one bench leg, in microseconds.
struct Leg {
    micros: Vec<u64>,
    wall: Duration,
}

impl Leg {
    fn mean_us(&self) -> f64 {
        self.micros.iter().sum::<u64>() as f64 / self.micros.len() as f64
    }

    fn percentile_us(&self, q: f64) -> u64 {
        let mut sorted = self.micros.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 * q).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    fn to_json(&self) -> Json {
        json_object([
            ("requests", Json::from(self.micros.len())),
            ("wall_secs", Json::Float(self.wall.as_secs_f64())),
            ("mean_us", Json::Float(self.mean_us())),
            ("p50_us", Json::from(self.percentile_us(0.5))),
            ("p99_us", Json::from(self.percentile_us(0.99))),
        ])
    }
}

/// Runs `n` requests through `f`, timing each round trip.
fn timed_leg(n: usize, mut f: impl FnMut(usize)) -> Leg {
    let mut micros = Vec::with_capacity(n);
    let started = Instant::now();
    for i in 0..n {
        let t = Instant::now();
        f(i);
        micros.push(t.elapsed().as_micros() as u64);
    }
    Leg {
        micros,
        wall: started.elapsed(),
    }
}

fn expect_200(status: u16, body: &str, what: &str) -> Json {
    if status != 200 {
        eprintln!("[bench] {what} failed with {status}: {body}");
        std::process::exit(1);
    }
    Json::parse(body).unwrap_or_else(|e| {
        eprintln!("[bench] {what} returned unparseable JSON ({e}): {body}");
        std::process::exit(1);
    })
}

/// Load-tests an in-process `cachetime-serve` over real sockets: the cold
/// leg records the paper's 11 organizations once each, the warm leg
/// re-asks all 11×16 grid cells (every one a store hit answered by
/// replay), the batch leg prices a whole cycle-time axis per `/v1/replay`
/// call. Asserts the store's raison d'être: warm ≥ 10× faster than cold.
fn run_serve_bench(scale: f64) {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..Default::default()
    })
    .expect("bind an ephemeral port");
    let addr = handle.local_addr().to_string();
    eprintln!("[bench] in-process server on {addr}, trace mu3 at scale {scale}");
    let mut client = HttpClient::connect(&addr).expect("connect to own server");

    let sim_body = |size_kib: u64, ct_ns: u32| {
        format!(
            r#"{{"config": {{"cycle_time_ns": {ct_ns}, "l1": {{"size_kib": {size_kib}}}}}, "trace": {{"name": "mu3", "scale": {scale}}}}}"#
        )
    };

    // Cold: one request per organization; each is a store miss that
    // records the behavioral trace (the expensive, linear-in-refs phase).
    let mut keys = Vec::with_capacity(SIZES_KIB.len());
    let cold = timed_leg(SIZES_KIB.len(), |i| {
        let (status, body) = client
            .post("/v1/simulate", &sim_body(SIZES_KIB[i], CYCLE_TIMES_NS[0]))
            .expect("cold simulate");
        let v = expect_200(status, &body, "cold simulate");
        assert_eq!(
            v.get("cached").and_then(Json::as_bool),
            Some(false),
            "cold requests must miss"
        );
        keys.push(v.get("key").and_then(Json::as_str).unwrap().to_string());
    });

    // Warm: the full grid; every cell is a hit (the key ignores timing),
    // so the server answers by replay alone.
    let grid = build_cells(1);
    let warm = timed_leg(grid.len(), |i| {
        let (status, body) = client
            .post("/v1/simulate", &sim_body(grid[i].size_kib, grid[i].ct_ns))
            .expect("warm simulate");
        let v = expect_200(status, &body, "warm simulate");
        assert_eq!(
            v.get("cached").and_then(Json::as_bool),
            Some(true),
            "warm requests must hit"
        );
    });

    // Concurrent: N clients hammer the warm grid at once from their own
    // connections — store reads coalesce on the shared lock, workers
    // interleave the keep-alive connections.
    const CLIENTS: usize = 4;
    let concurrent_started = Instant::now();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let grid = grid.clone();
            let sim_body = move |size_kib: u64, ct_ns: u32| {
                format!(
                    r#"{{"config": {{"cycle_time_ns": {ct_ns}, "l1": {{"size_kib": {size_kib}}}}}, "trace": {{"name": "mu3", "scale": {scale}}}}}"#
                )
            };
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(&addr).expect("concurrent connect");
                let leg = timed_leg(grid.len(), |i| {
                    let (status, body) = client
                        .post("/v1/simulate", &sim_body(grid[i].size_kib, grid[i].ct_ns))
                        .expect("concurrent simulate");
                    let v = expect_200(status, &body, "concurrent simulate");
                    assert_eq!(v.get("cached").and_then(Json::as_bool), Some(true));
                });
                leg.micros
            })
        })
        .collect();
    let concurrent = Leg {
        micros: threads
            .into_iter()
            .flat_map(|t| t.join().expect("concurrent client"))
            .collect(),
        wall: concurrent_started.elapsed(),
    };

    // Batch: one /v1/replay per organization prices its whole axis.
    let cts = CYCLE_TIMES_NS
        .iter()
        .map(|ct| ct.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let batch = timed_leg(keys.len(), |i| {
        let body = format!(r#"{{"key": "{}", "cycle_times_ns": [{cts}]}}"#, keys[i]);
        let (status, body) = client.post("/v1/replay", &body).expect("batch replay");
        let v = expect_200(status, &body, "batch replay");
        assert_eq!(
            v.get("results").and_then(Json::as_array).map(<[Json]>::len),
            Some(CYCLE_TIMES_NS.len())
        );
    });

    // Ingest: chunked-upload the trace once per distinct warm boundary
    // (the boundary is part of the content digest, so every upload is
    // fresh) — times the whole parse + digest + interval-profile pipeline
    // and reports it as refs/sec.
    let ingest_trace = catalog::mu3(scale).generate();
    let mut din_body = Vec::new();
    cachetime_trace::io::write_din(&mut din_body, ingest_trace.refs()).expect("serialize din");
    const INGEST_UPLOADS: usize = 6;
    let ingest = timed_leg(INGEST_UPLOADS, |i| {
        let (status, body) = client
            .post_chunked(
                &format!("/v1/traces?name=bench&warm={i}"),
                &din_body,
                256 * 1024,
            )
            .expect("chunked upload");
        let v = expect_200(status, &body, "chunked upload");
        assert_eq!(
            v.get("deduplicated").and_then(Json::as_bool),
            Some(false),
            "each warm boundary must be a fresh digest"
        );
    });
    let ingest_refs_per_sec =
        (INGEST_UPLOADS * ingest_trace.len()) as f64 / ingest.wall.as_secs_f64();

    // Concurrency sweep: the flatness curve the event loop exists for.
    let concurrency_sweep = run_concurrency_sweep(&addr);

    let (_, body) = client.get("/v1/stats").expect("stats");
    let stats = Json::parse(&body).expect("stats JSON");
    let (status, _) = client.post("/v1/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    handle.join();

    let speedup = cold.mean_us() / warm.mean_us();
    println!(
        "cold  (record+replay): {:>9.1} us/req  p50 {:>7} us  p99 {:>7} us  ({} reqs)",
        cold.mean_us(),
        cold.percentile_us(0.5),
        cold.percentile_us(0.99),
        cold.micros.len()
    );
    println!(
        "warm  (replay only):   {:>9.1} us/req  p50 {:>7} us  p99 {:>7} us  ({} reqs)",
        warm.mean_us(),
        warm.percentile_us(0.5),
        warm.percentile_us(0.99),
        warm.micros.len()
    );
    println!(
        "batch (16-pt axis):    {:>9.1} us/req  p50 {:>7} us  p99 {:>7} us  ({} reqs)",
        batch.mean_us(),
        batch.percentile_us(0.5),
        batch.percentile_us(0.99),
        batch.micros.len()
    );
    println!(
        "ingest (chunked POST): {:>9.1} us/req  p50 {:>7} us  p99 {:>7} us  ({:.0} refs/sec)",
        ingest.mean_us(),
        ingest.percentile_us(0.5),
        ingest.percentile_us(0.99),
        ingest_refs_per_sec
    );
    println!(
        "warm x{CLIENTS} clients:      {:>9.1} us/req  p50 {:>7} us  p99 {:>7} us  ({} reqs, {:.0} req/s aggregate)",
        concurrent.mean_us(),
        concurrent.percentile_us(0.5),
        concurrent.percentile_us(0.99),
        concurrent.micros.len(),
        concurrent.micros.len() as f64 / concurrent.wall.as_secs_f64()
    );
    println!("warm-vs-cold speedup: {speedup:.2}x");

    // Overload storm: its own server with a single recording slot, driven
    // past the admission limit — measures what degradation costs the warm
    // path and how much cold load gets shed.
    let overload = run_overload_storm(scale);

    // Restart-warm: cold-record into a durable store, reboot a fresh
    // server on the same directory, re-ask the same cells — recovery must
    // answer from the recovered segments, not re-record.
    let restart = run_restart_leg(scale);

    let json = json_object([
        ("bench", Json::from("serve")),
        ("scale", Json::Float(scale)),
        ("trace", Json::from("mu3")),
        ("organizations", Json::from(SIZES_KIB.len())),
        ("grid_cells", Json::from(grid.len())),
        ("cold", cold.to_json()),
        ("warm", warm.to_json()),
        ("replay_batch", batch.to_json()),
        ("concurrent_clients", Json::from(CLIENTS)),
        ("warm_concurrent", concurrent.to_json()),
        ("concurrency_sweep", concurrency_sweep),
        (
            "ingest",
            json_object([
                ("uploads", Json::from(INGEST_UPLOADS)),
                ("refs_per_upload", Json::from(ingest_trace.len())),
                ("latency", ingest.to_json()),
                ("refs_per_sec", Json::Float(ingest_refs_per_sec)),
            ]),
        ),
        ("warm_speedup", Json::Float(speedup)),
        ("overload", overload),
        ("restart", restart),
        ("server_stats", stats),
    ]);
    std::fs::write("BENCH_serve.json", json.pretty()).expect("write BENCH_serve.json");
    eprintln!("[bench] wrote BENCH_serve.json");

    assert!(
        speedup >= 10.0,
        "store must make warm requests >= 10x faster than cold (got {speedup:.2}x)"
    );
}

/// Client counts for the warm-replay concurrency sweep.
const SWEEP_CLIENT_COUNTS: [usize; 5] = [1, 4, 16, 64, 256];
/// Per-client think time between requests: the sweep is open-loop-shaped
/// (clients mostly idle, arrivals staggered), because the question it asks
/// is "what does a *parked* crowd cost the active request", not "what is
/// the saturation throughput of one core".
const SWEEP_THINK_MS: u64 = 100;
/// The sweep replays a small dedicated key at this fixed scale no matter
/// what scale the rest of the bench runs at: it measures the transport's
/// concurrency behavior, so the per-request work is pinned light.
const SWEEP_SCALE: f64 = 0.005;
/// Solo p50 floor for the flatness ratio, so a once-in-a-run scheduler
/// blip on a microsecond-fast solo baseline cannot fail the bound.
const SWEEP_NOISE_FLOOR_US: u64 = 100;
/// The headline bound: warm p50 under the largest client count must stay
/// within this factor of solo. The old worker-pool transport failed this
/// by orders of magnitude (idle keep-alive connections each taxed the
/// pool a 10 ms poll); the event loop is what makes it hold.
const SWEEP_P50_BOUND: f64 = 3.0;

/// Sweeps 1→256 warm-replay clients against the running server and
/// asserts the concurrency cliff stays flat: p50 at the top of the sweep
/// within [`SWEEP_P50_BOUND`]× of solo. Returns the whole curve for
/// `BENCH_serve.json`.
fn run_concurrency_sweep(addr: &str) -> Json {
    // One small dedicated warm key for the whole sweep.
    let mut client = HttpClient::connect(addr).expect("sweep connect");
    let warm_body = format!(r#"{{"trace": {{"name": "mu3", "scale": {SWEEP_SCALE}}}}}"#);
    let (status, resp) = client.post("/v1/simulate", &warm_body).expect("sweep warm-up");
    let v = expect_200(status, &resp, "sweep warm-up");
    let key = v.get("key").and_then(Json::as_str).unwrap().to_string();
    let replay_body = format!(r#"{{"key": "{key}", "cycle_times_ns": [40]}}"#);

    let mut levels = Vec::new();
    let mut p50s = Vec::new();
    for &clients in &SWEEP_CLIENT_COUNTS {
        // Fewer requests per client as the crowd grows; the solo level
        // takes extra samples so its p50 (the baseline) is stable.
        let reqs = (48 / clients).max(6);
        let started = Instant::now();
        let threads: Vec<_> = (0..clients)
            .map(|i| {
                let addr = addr.to_string();
                let body = replay_body.clone();
                std::thread::spawn(move || {
                    // Stagger starts across one think period so arrivals
                    // spread instead of marching in lockstep.
                    std::thread::sleep(Duration::from_millis(
                        i as u64 * SWEEP_THINK_MS / clients as u64,
                    ));
                    let mut c = HttpClient::connect(&addr).expect("sweep client connect");
                    let mut micros = Vec::with_capacity(reqs);
                    for _ in 0..reqs {
                        let at = Instant::now();
                        let (status, resp) = c.post("/v1/replay", &body).expect("sweep replay");
                        assert_eq!(status, 200, "sweep replay must stay warm: {resp}");
                        micros.push(at.elapsed().as_micros() as u64);
                        std::thread::sleep(Duration::from_millis(SWEEP_THINK_MS));
                    }
                    micros
                })
            })
            .collect();
        let leg = Leg {
            micros: threads
                .into_iter()
                .flat_map(|t| t.join().expect("sweep client"))
                .collect(),
            wall: started.elapsed(),
        };
        println!(
            "warm x{clients:>3} clients:     {:>9.1} us/req  p50 {:>7} us  p99 {:>7} us  ({} reqs)",
            leg.mean_us(),
            leg.percentile_us(0.5),
            leg.percentile_us(0.99),
            leg.micros.len()
        );
        p50s.push(leg.percentile_us(0.5));
        levels.push(json_object([
            ("clients", Json::from(clients)),
            ("latency", leg.to_json()),
        ]));
    }

    let solo_p50 = p50s[0].max(SWEEP_NOISE_FLOOR_US);
    let loaded_p50 = *p50s.last().expect("at least one level");
    let ratio = loaded_p50 as f64 / solo_p50 as f64;
    println!(
        "concurrency flatness: p50 x{} clients / p50 solo = {ratio:.2} (bound {SWEEP_P50_BOUND}x)",
        SWEEP_CLIENT_COUNTS.last().unwrap()
    );
    assert!(
        ratio <= SWEEP_P50_BOUND,
        "concurrency cliff: warm p50 at {} clients is {loaded_p50} us vs {solo_p50} us solo \
         ({ratio:.1}x > {SWEEP_P50_BOUND}x) — parked connections are taxing active requests again",
        SWEEP_CLIENT_COUNTS.last().unwrap()
    );

    json_object([
        ("scale", Json::Float(SWEEP_SCALE)),
        ("think_ms", Json::from(SWEEP_THINK_MS)),
        ("noise_floor_us", Json::from(SWEEP_NOISE_FLOOR_US)),
        ("levels", Json::Array(levels)),
        ("p50_ratio_max_vs_solo", Json::Float(ratio)),
        ("p50_bound", Json::Float(SWEEP_P50_BOUND)),
    ])
}

/// Storms a deliberately tiny server (one recording slot, two workers)
/// with two warm-replay clients and two cold-simulate clients: warm
/// replays must all answer `200` even while cold simulates are being shed
/// with `503 + Retry-After`. Returns the leg's numbers — shed rate and
/// warm p99 under overload — for `BENCH_serve.json`.
fn run_overload_storm(scale: f64) -> Json {
    const STORM_CLIENTS: usize = 4;
    const ROUNDS: usize = 30;
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        max_inflight_recordings: 1,
        ..Default::default()
    })
    .expect("bind the overload server");
    let addr = handle.local_addr().to_string();

    // Warm exactly one key while the slot is idle.
    let mut client = HttpClient::connect(&addr).expect("connect to overload server");
    let warm_body =
        format!(r#"{{"trace": {{"name": "mu3", "scale": {scale}}}}}"#);
    let (status, body) = client.post("/v1/simulate", &warm_body).expect("warm the key");
    let v = expect_200(status, &body, "overload warm-up");
    let key = v.get("key").and_then(Json::as_str).unwrap().to_string();

    // Half the clients replay the warm key, half pour cold simulates (a
    // distinct workload each, so every one wants the single slot).
    let started = Instant::now();
    let threads: Vec<_> = (0..STORM_CLIENTS)
        .map(|t| {
            let addr = addr.clone();
            let key = key.clone();
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(&addr).expect("storm connect");
                let mut warm_micros = Vec::new();
                let (mut cold_ok, mut cold_shed) = (0u64, 0u64);
                for round in 0..ROUNDS {
                    if t % 2 == 0 {
                        let body = format!(r#"{{"key": "{key}", "cycle_times_ns": [40]}}"#);
                        let at = Instant::now();
                        let (status, resp) =
                            c.post("/v1/replay", &body).expect("warm replay I/O");
                        assert_eq!(
                            status, 200,
                            "warm replay must survive overload: {resp}"
                        );
                        warm_micros.push(at.elapsed().as_micros() as u64);
                    } else {
                        // Unique scale per request → unique key → cold.
                        let s = scale * (1.0 + 0.001 * (t * ROUNDS + round + 1) as f64);
                        let body = format!(r#"{{"trace": {{"name": "mu3", "scale": {s}}}}}"#);
                        let (status, resp) =
                            c.post("/v1/simulate", &body).expect("cold simulate I/O");
                        match status {
                            200 => cold_ok += 1,
                            503 => {
                                assert!(
                                    resp.contains("error"),
                                    "shed responses must explain themselves: {resp}"
                                );
                                cold_shed += 1;
                            }
                            other => panic!("cold simulate answered {other}: {resp}"),
                        }
                    }
                }
                (warm_micros, cold_ok, cold_shed)
            })
        })
        .collect();
    let mut warm = Leg {
        micros: Vec::new(),
        wall: Duration::ZERO,
    };
    let (mut cold_ok, mut cold_shed) = (0u64, 0u64);
    for t in threads {
        let (micros, ok, shed) = t.join().expect("storm client");
        warm.micros.extend(micros);
        cold_ok += ok;
        cold_shed += shed;
    }
    warm.wall = started.elapsed();

    // The storm must actually have overloaded the server, and it must
    // recover to "ok" once the pressure stops.
    assert!(
        cold_shed >= 1,
        "storm never tripped the admission limit (cold_ok {cold_ok}); raise ROUNDS"
    );
    let recovered_by = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = client.get("/healthz").expect("post-storm healthz");
        assert_eq!(status, 200, "{body}");
        if Json::parse(&body)
            .expect("healthz JSON")
            .get("status")
            .and_then(Json::as_str)
            == Some("ok")
        {
            break;
        }
        assert!(
            Instant::now() < recovered_by,
            "server still degraded 10 s after the storm: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
    handle.join();

    let shed_rate = cold_shed as f64 / (cold_ok + cold_shed) as f64;
    println!(
        "overload storm:        {:>9.1} us/warm  p99 {:>7} us  (shed {}/{} cold, {:.0}% shed rate)",
        warm.mean_us(),
        warm.percentile_us(0.99),
        cold_shed,
        cold_ok + cold_shed,
        shed_rate * 100.0
    );
    json_object([
        ("clients", Json::from(STORM_CLIENTS)),
        ("rounds_per_client", Json::from(ROUNDS)),
        ("max_inflight_recordings", Json::from(1usize)),
        ("warm_under_overload", warm.to_json()),
        ("cold_ok", Json::from(cold_ok)),
        ("cold_shed", Json::from(cold_shed)),
        ("shed_rate", Json::Float(shed_rate)),
    ])
}

/// Cold-record vs restart-warm: record the 11 organizations into a
/// durable (`data_dir`) server, shut it down, boot a *fresh* server on
/// the same directory, and re-ask the same cells. The reboot recovers
/// every segment at startup, so the second pass must be all store hits —
/// restart-warm requests are replay-priced, not record-priced.
fn run_restart_leg(scale: f64) -> Json {
    let data_dir = std::env::temp_dir().join(format!(
        "cachetime-bench-restart-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&data_dir);
    let durable_config = || ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: Some(data_dir.clone()),
        ..Default::default()
    };
    let sim_body = |size_kib: u64| {
        format!(
            r#"{{"config": {{"l1": {{"size_kib": {size_kib}}}}}, "trace": {{"name": "mu3", "scale": {scale}}}}}"#
        )
    };

    // Life 1: cold-record every organization, then shut down.
    let handle = serve(durable_config()).expect("bind the durable server");
    let addr = handle.local_addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connect to durable server");
    let cold = timed_leg(SIZES_KIB.len(), |i| {
        let (status, body) = client
            .post("/v1/simulate", &sim_body(SIZES_KIB[i]))
            .expect("durable cold simulate");
        let v = expect_200(status, &body, "durable cold simulate");
        assert_eq!(v.get("cached").and_then(Json::as_bool), Some(false));
    });
    let (status, _) = client.post("/v1/shutdown", "").expect("shutdown life 1");
    assert_eq!(status, 200);
    handle.join();

    // Life 2: a fresh process-equivalent on the same directory. serve()
    // runs the recovery scan before binding, so the first request
    // already sees the warm store.
    let handle = serve(durable_config()).expect("reboot the durable server");
    let addr = handle.local_addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("reconnect after reboot");
    let rewarm = timed_leg(SIZES_KIB.len(), |i| {
        let (status, body) = client
            .post("/v1/simulate", &sim_body(SIZES_KIB[i]))
            .expect("restart-warm simulate");
        let v = expect_200(status, &body, "restart-warm simulate");
        assert_eq!(
            v.get("cached").and_then(Json::as_bool),
            Some(true),
            "a rebooted durable server must serve recovered keys warm"
        );
    });
    let (_, body) = client.get("/v1/stats").expect("restart stats");
    let stats = Json::parse(&body).expect("restart stats JSON");
    let store = stats.get("store").expect("store stats");
    assert_eq!(
        store.get("misses").and_then(Json::as_u64),
        Some(0),
        "restart-warm must re-record nothing"
    );
    let recovered = stats
        .get("disk")
        .and_then(|d| d.get("recovered"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert_eq!(recovered, SIZES_KIB.len() as u64, "recovery must find every segment");
    let (status, _) = client.post("/v1/shutdown", "").expect("shutdown life 2");
    assert_eq!(status, 200);
    handle.join();
    let _ = std::fs::remove_dir_all(&data_dir);

    let speedup = cold.mean_us() / rewarm.mean_us();
    println!(
        "restart-warm:          {:>9.1} us/req  p50 {:>7} us  p99 {:>7} us  ({:.2}x vs cold-record)",
        rewarm.mean_us(),
        rewarm.percentile_us(0.5),
        rewarm.percentile_us(0.99),
        speedup
    );
    assert!(
        speedup >= 10.0,
        "recovery must make restart-warm requests >= 10x faster than cold \
         recording (got {speedup:.2}x)"
    );
    json_object([
        ("cold_record", cold.to_json()),
        ("restart_warm", rewarm.to_json()),
        ("recovered_segments", Json::from(recovered)),
        ("restart_warm_speedup", Json::Float(speedup)),
    ])
}

/// Smoke-checks a running server at `addr`: health, simulate, replay, and
/// stats — with the simulate/replay answers compared bit-for-bit against
/// an in-process `Simulator::run` of the same configuration. Exits
/// nonzero on the first mismatch; `scripts/verify.sh` runs this against a
/// freshly started `ctserve`.
fn run_serve_check(addr: &str) {
    let fail = |what: &str, detail: &str| -> ! {
        eprintln!("serve-check: FAIL: {what}: {detail}");
        std::process::exit(1);
    };
    let mut client = HttpClient::connect(addr)
        .unwrap_or_else(|e| fail("connect", &e.to_string()));

    let (status, body) = client.get("/healthz").unwrap_or_else(|e| fail("healthz", &e.to_string()));
    if status != 200 {
        fail("healthz", &format!("status {status}: {body}"));
    }

    // One cheap pairing, simulated both remotely and locally.
    let scale = 0.005;
    let sim_body = format!(r#"{{"trace": {{"name": "mu3", "scale": {scale}}}}}"#);
    let (status, body) = client
        .post("/v1/simulate", &sim_body)
        .unwrap_or_else(|e| fail("simulate", &e.to_string()));
    if status != 200 {
        fail("simulate", &format!("status {status}: {body}"));
    }
    let v = Json::parse(&body).unwrap_or_else(|e| fail("simulate", &e.to_string()));
    let key = v
        .get("key")
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail("simulate", "response has no key"))
        .to_string();

    let config = SystemConfig::paper_default().expect("paper default");
    let direct = Simulator::new(&config).run(&catalog::mu3(scale).generate());
    let expected = api::sim_result_to_json(&direct);
    if v.get("result") != Some(&expected) {
        fail(
            "simulate",
            "server result differs from a direct Simulator::run",
        );
    }

    // Replay at the same 40 ns point must be bit-identical too; a second
    // point must move the numbers.
    let replay_body = format!(r#"{{"key": "{key}", "cycle_times_ns": [40, 20]}}"#);
    let (status, body) = client
        .post("/v1/replay", &replay_body)
        .unwrap_or_else(|e| fail("replay", &e.to_string()));
    if status != 200 {
        fail("replay", &format!("status {status}: {body}"));
    }
    let v = Json::parse(&body).unwrap_or_else(|e| fail("replay", &e.to_string()));
    let results = v
        .get("results")
        .and_then(Json::as_array)
        .unwrap_or_else(|| fail("replay", "response has no results array"));
    if results.first() != Some(&expected) {
        fail("replay", "replayed result differs from Simulator::run");
    }
    if results.get(1) == Some(&expected) {
        fail("replay", "a 20 ns replay cannot equal the 40 ns result");
    }

    let (status, body) = client.get("/v1/stats").unwrap_or_else(|e| fail("stats", &e.to_string()));
    let v = Json::parse(&body).unwrap_or_else(|e| fail("stats", &e.to_string()));
    if status != 200 || v.get("store").is_none() {
        fail("stats", &format!("status {status}: {body}"));
    }

    println!("serve-check: OK ({addr}: simulate + replay bit-identical to Simulator::run)");
}

/// Ingestion smoke-check against a running server at `addr`
/// (`scripts/verify.sh` runs this right after `serve-check`):
///
/// * chunked-uploads a small din trace and re-uploads it — the digest
///   must be stable and the repeat deduplicated;
/// * simulates and replays by that digest, compared bit-for-bit over the
///   socket against an in-process `Simulator::run` of the same refs;
/// * uploads a ≥ 1M-ref synthetic trace and asserts the
///   representative-interval selector prices it from ≤ 10 windows within
///   the documented error bound;
/// * opens a raw socket whose chunk-size line *claims* more than the
///   body cap and asserts the server answers `413` on the claim alone;
/// * scrapes `/metrics` for the `cachetime_ingest_*` families.
fn run_ingest_check(addr: &str) {
    let fail = |what: &str, detail: &str| -> ! {
        eprintln!("ingest-check: FAIL: {what}: {detail}");
        std::process::exit(1);
    };
    let mut client =
        HttpClient::connect(addr).unwrap_or_else(|e| fail("connect", &e.to_string()));

    // A small catalog trace, serialized as din text.
    let trace = catalog::mu3(0.005).generate();
    let mut body = Vec::new();
    cachetime_trace::io::write_din(&mut body, trace.refs()).expect("serialize din");
    let warm = trace.warm_start();
    let path = format!("/v1/traces?name=ingest-check&warm={warm}");
    // A deliberately odd chunk size, so chunk frames and the server's 4 KB
    // reads cross in interesting places.
    let (status, resp) = client
        .post_chunked(&path, &body, 1021)
        .unwrap_or_else(|e| fail("upload", &e.to_string()));
    if status != 200 {
        fail("upload", &format!("status {status}: {resp}"));
    }
    let v = Json::parse(&resp).unwrap_or_else(|e| fail("upload", &e.to_string()));
    let digest = v
        .get("digest")
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail("upload", "response has no digest"))
        .to_string();
    if digest.len() != 16 {
        fail("upload", &format!("digest {digest:?} is not 16 hex chars"));
    }
    if v.get("refs").and_then(Json::as_u64) != Some(trace.len() as u64) {
        fail("upload", &format!("ref count mismatch: {resp}"));
    }
    if v.get("deduplicated").and_then(Json::as_bool) != Some(false) {
        fail("upload", "first upload reported as a duplicate");
    }

    // Re-upload under a different chunking: content addressing must land
    // on the same digest and dedup.
    let (status, resp) = client
        .post_chunked(&path, &body, 64 * 1024)
        .unwrap_or_else(|e| fail("re-upload", &e.to_string()));
    if status != 200 {
        fail("re-upload", &format!("status {status}: {resp}"));
    }
    let v = Json::parse(&resp).unwrap_or_else(|e| fail("re-upload", &e.to_string()));
    if v.get("digest").and_then(Json::as_str) != Some(digest.as_str()) {
        fail("re-upload", "digest changed between identical uploads");
    }
    if v.get("deduplicated").and_then(Json::as_bool) != Some(true) {
        fail("re-upload", "identical upload was not deduplicated");
    }

    // Simulate by digest: bit-identical to an in-process run of the same
    // refs.
    let config = SystemConfig::paper_default().expect("paper default");
    let expected = api::sim_result_to_json(&Simulator::new(&config).run(&trace));
    let sim_body = format!(r#"{{"trace": {{"upload": "{digest}"}}}}"#);
    let (status, resp) = client
        .post("/v1/simulate", &sim_body)
        .unwrap_or_else(|e| fail("simulate", &e.to_string()));
    if status != 200 {
        fail("simulate", &format!("status {status}: {resp}"));
    }
    let v = Json::parse(&resp).unwrap_or_else(|e| fail("simulate", &e.to_string()));
    if v.get("result") != Some(&expected) {
        fail(
            "simulate",
            "uploaded-trace result differs from a direct Simulator::run",
        );
    }
    let key = v
        .get("key")
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail("simulate", "response has no key"))
        .to_string();

    // ...and the recorded events replay identically by key.
    let replay_body = format!(r#"{{"key": "{key}", "cycle_times_ns": [40]}}"#);
    let (status, resp) = client
        .post("/v1/replay", &replay_body)
        .unwrap_or_else(|e| fail("replay", &e.to_string()));
    if status != 200 {
        fail("replay", &format!("status {status}: {resp}"));
    }
    let v = Json::parse(&resp).unwrap_or_else(|e| fail("replay", &e.to_string()));
    if v.get("results").and_then(Json::as_array).and_then(|a| a.first()) != Some(&expected) {
        fail("replay", "replay of the uploaded trace differs from Simulator::run");
    }

    // A ≥ 1M-ref synthetic upload: the selector must price it from
    // ≤ 10 windows within the documented bound. Six phases with different
    // footprints and strides, so windows genuinely differ and the medoid
    // pick has structure to find.
    const BIG_REFS: usize = 1_050_000;
    let mut big = Vec::with_capacity(BIG_REFS * 9);
    {
        use std::io::Write as _;
        for i in 0..BIG_REFS {
            let phase = i / (BIG_REFS / 6 + 1);
            let stride = 1 + 2 * phase as u64;
            let addr = ((i as u64 * stride) % (1 << (10 + phase))) << 2;
            writeln!(big, "0 {addr:x}").expect("write to Vec");
        }
    }
    let (status, resp) = client
        .post_chunked("/v1/traces?name=big&format=din", &big, 256 * 1024)
        .unwrap_or_else(|e| fail("big upload", &e.to_string()));
    if status != 200 {
        fail("big upload", &format!("status {status}: {resp}"));
    }
    let v = Json::parse(&resp).unwrap_or_else(|e| fail("big upload", &e.to_string()));
    if v.get("refs").and_then(Json::as_u64).unwrap_or(0) < 1_000_000 {
        fail("big upload", &format!("expected >= 1M refs: {resp}"));
    }
    let sel = v
        .get("selection")
        .unwrap_or_else(|| fail("big upload", "response has no selection"));
    let picks = sel
        .get("picks")
        .and_then(Json::as_array)
        .unwrap_or_else(|| fail("big upload", "selection has no picks"))
        .len();
    let windows = sel.get("windows").and_then(Json::as_u64).unwrap_or(0);
    let err = sel
        .get("profile_error")
        .and_then(Json::as_f64)
        .unwrap_or(f64::MAX);
    let bound = sel.get("error_bound").and_then(Json::as_f64).unwrap_or(0.0);
    if picks == 0 || picks > 10 {
        fail(
            "selection",
            &format!("{picks} picks; the selector must price from <= 10 windows"),
        );
    }
    if err > bound {
        fail(
            "selection",
            &format!("profile_error {err} exceeds the documented bound {bound}"),
        );
    }

    // A lying chunked upload — the size line claims more than the body
    // cap — must be refused 413 on the claim, before any payload exists
    // to buffer.
    {
        use std::io::{Read as _, Write as _};
        let mut s = std::net::TcpStream::connect(addr)
            .unwrap_or_else(|e| fail("raw connect", &e.to_string()));
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        s.write_all(
            b"POST /v1/traces HTTP/1.1\r\nHost: ctserve\r\nTransfer-Encoding: chunked\r\n\r\nfffffff\r\n",
        )
        .unwrap_or_else(|e| fail("raw write", &e.to_string()));
        let mut head = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match s.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    head.extend_from_slice(&chunk[..n]);
                    if head.windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
                Err(e) => fail("raw read", &e.to_string()),
            }
        }
        let head = String::from_utf8_lossy(&head);
        if !head.starts_with("HTTP/1.1 413") {
            fail(
                "oversize claim",
                &format!("expected 413, got: {}", head.lines().next().unwrap_or("")),
            );
        }
    }

    // The ingest counter families must be on /v1/metrics.
    let (status, metrics) = client
        .get("/v1/metrics")
        .unwrap_or_else(|e| fail("metrics", &e.to_string()));
    if status != 200 {
        fail("metrics", &format!("status {status}"));
    }
    for family in [
        "cachetime_ingest_uploads_total",
        "cachetime_ingest_rejected_total",
        "cachetime_ingest_deduplicated_total",
        "cachetime_ingest_refs_total",
        "cachetime_ingest_bytes_total",
    ] {
        if !metrics.contains(family) {
            fail("metrics", &format!("/v1/metrics is missing {family}"));
        }
    }

    println!(
        "ingest-check: OK ({addr}: digest {digest} stable across chunkings, dedup on repeat, \
         simulate/replay bit-identical; {BIG_REFS} refs priced from {picks}/{windows} windows, \
         profile_error {err:.4} <= {bound}; oversized claim answered 413)"
    );
}

/// Fleet smoke-check: `addrs` is a whole consistent-hash ring of running
/// `ctserve` processes (`serve-check host:p1,host:p2,...`). Records a
/// spread of pairings through the ring — replicated to the top-R
/// endpoints of each key's preference order — asserting that the primary
/// answer comes from the key's rendezvous owner and that the server
/// derives the same content key the client computed locally; replays
/// each key (served warm by its owner); then aggregates `/v1/stats`
/// ring-wide — each key must live on exactly `min(R, shards)` shards.
fn run_fleet_check(addrs: &[String]) {
    let fail = |what: &str, detail: &str| -> ! {
        eprintln!("fleet-check: FAIL: {what}: {detail}");
        std::process::exit(1);
    };
    let mut fleet = FleetClient::new(addrs.to_vec(), ClientConfig::default())
        .unwrap_or_else(|e| fail("ring", &e.to_string()));
    let replication = fleet.replication();
    let org = SystemConfig::paper_default().expect("paper default").organization();

    // One pairing per scale; enough keys that every shard in a small
    // fleet almost surely owns at least one.
    let scales: Vec<f64> = (0..8).map(|i| 0.004 + i as f64 * 0.001).collect();
    let mut owners_hit = vec![0usize; addrs.len()];
    let mut keys = Vec::new();
    for &scale in &scales {
        let key = cachetime::keyed::trace_key(&org, &catalog::mu3(scale));
        let body = format!(r#"{{"trace": {{"name": "mu3", "scale": {scale}}}}}"#);
        let (status, resp, shard) = fleet
            .request_replicated(key, "POST", "/v1/simulate", &body)
            .unwrap_or_else(|e| fail("simulate", &e.to_string()));
        if status != 200 {
            fail("simulate", &format!("status {status}: {resp}"));
        }
        let owner = fleet.ring().owner(key);
        if shard != owner {
            fail(
                "routing",
                &format!("key {key:016x} answered by shard {shard}, ring owner is {owner}"),
            );
        }
        let v = Json::parse(&resp).unwrap_or_else(|e| fail("simulate", &e.to_string()));
        let server_key = v.get("key").and_then(Json::as_str).unwrap_or_default();
        if server_key != format!("{key:016x}") {
            fail(
                "keying",
                &format!("server derived {server_key}, client computed {key:016x}"),
            );
        }
        owners_hit[shard] += 1;
        keys.push(key);
    }

    // Replays route to the same owner and are warm (the fleet never
    // re-records a key it already holds).
    for &key in &keys {
        let body = format!(r#"{{"key": "{key:016x}", "cycle_times_ns": [40]}}"#);
        let (status, resp, shard) = fleet
            .request_keyed(key, "POST", "/v1/replay", &body)
            .unwrap_or_else(|e| fail("replay", &e.to_string()));
        if status != 200 {
            fail("replay", &format!("status {status}: {resp}"));
        }
        if shard != fleet.ring().owner(key) {
            fail("routing", "replay left the key's owner shard");
        }
    }

    // Ring-aware stats aggregation: sum the per-shard stores.
    let mut total_entries = 0u64;
    let mut total_misses = 0u64;
    let mut per_shard = Vec::new();
    for ix in 0..addrs.len() {
        let (status, body) = fleet
            .request_on(ix, "GET", "/v1/stats", "")
            .unwrap_or_else(|e| fail("stats", &e.to_string()));
        if status != 200 {
            fail("stats", &format!("shard {ix} status {status}"));
        }
        let v = Json::parse(&body).unwrap_or_else(|e| fail("stats", &e.to_string()));
        let store = v.get("store").unwrap_or_else(|| fail("stats", "no store object"));
        let entries = store.get("entries").and_then(Json::as_u64).unwrap_or(0);
        let misses = store.get("misses").and_then(Json::as_u64).unwrap_or(0);
        total_entries += entries;
        total_misses += misses;
        per_shard.push(entries);
    }
    // Every key lives on exactly min(R, shards) shards: one copy per
    // replica endpoint, each recorded independently (recording is
    // deterministic, so the copies are bit-identical).
    let expected = keys.len() as u64 * replication as u64;
    if total_entries != expected {
        fail(
            "aggregation",
            &format!(
                "fleet holds {total_entries} traces for {} keys at replication {replication} \
                 (expected {expected}; per-shard: {per_shard:?}) — a copy landed off-ring or got lost",
                keys.len()
            ),
        );
    }
    if total_misses != expected {
        fail(
            "aggregation",
            &format!(
                "fleet recorded {total_misses} times for {} keys at replication {replication} — \
                 deterministic routing must record each copy exactly once (expected {expected})",
                keys.len()
            ),
        );
    }
    println!(
        "fleet-check: OK ({} shards, {} keys, replication {}, per-shard entries {:?})",
        addrs.len(),
        keys.len(),
        replication,
        per_shard
    );
}

/// The pairings a fleet drill records: one per scale, deterministic, so
/// every drill phase (possibly a different process) recomputes the same
/// key set without shared state.
fn drill_pairings(org: &cachetime::OrgConfig) -> Vec<(f64, u64)> {
    (0..8)
        .map(|i| {
            let scale = 0.004 + i as f64 * 0.001;
            (scale, cachetime::keyed::trace_key(org, &catalog::mu3(scale)))
        })
        .collect()
}

/// Membership-chaos drill against a running fleet, one phase per
/// invocation (`scripts/verify.sh` kills and rejoins shards between
/// phases):
///
/// * `record` — replicate a deterministic key set through the ring.
/// * `after-kill <ix>` — with shard `ix` dead, every key must still
///   answer warm (`cached: true`) from a survivor, and the survivors'
///   recording counters must not move: zero lost keys, zero re-records.
/// * `after-rejoin <ix>` — shard `ix` is back (fresh data dir, rebalanced
///   via peer handoff): it must hold every segment the ring places on it
///   and replay each bit-identically to an in-process `Simulator::run`.
fn run_fleet_drill(addrs: &[String], phase: &str, shard_ix: Option<usize>) {
    let fail = |what: &str, detail: &str| -> ! {
        eprintln!("fleet-drill: FAIL: {what}: {detail}");
        std::process::exit(1);
    };
    let config = SystemConfig::paper_default().expect("paper default");
    let org = config.organization();
    let pairings = drill_pairings(&org);
    let mut fleet = FleetClient::new(addrs.to_vec(), ClientConfig::default())
        .unwrap_or_else(|e| fail("ring", &e.to_string()));
    let replication = fleet.replication();

    // Sum of `store.misses` across the shards in `ixs` — the fleet-wide
    // recording counter the kill phase must hold still.
    let misses_on = |fleet: &mut FleetClient, ixs: &[usize]| -> u64 {
        let mut total = 0;
        for &ix in ixs {
            let (status, body) = fleet
                .request_on(ix, "GET", "/v1/stats", "")
                .unwrap_or_else(|e| fail("stats", &format!("shard {ix}: {e}")));
            if status != 200 {
                fail("stats", &format!("shard {ix} status {status}"));
            }
            let v = Json::parse(&body).unwrap_or_else(|e| fail("stats", &e.to_string()));
            total += v
                .get("store")
                .and_then(|s| s.get("misses"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
        }
        total
    };

    match phase {
        "record" => {
            for &(scale, key) in &pairings {
                let body = format!(r#"{{"trace": {{"name": "mu3", "scale": {scale}}}}}"#);
                let (status, resp, shard) = fleet
                    .request_replicated(key, "POST", "/v1/simulate", &body)
                    .unwrap_or_else(|e| fail("record", &e.to_string()));
                if status != 200 {
                    fail("record", &format!("key {key:016x}: status {status}: {resp}"));
                }
                if shard != fleet.ring().owner(key) {
                    fail("record", &format!("key {key:016x} not answered by its owner"));
                }
            }
            println!(
                "fleet-drill record: OK ({} keys replicated x{} across {} shards)",
                pairings.len(),
                replication,
                addrs.len()
            );
        }
        "after-kill" => {
            let victim = shard_ix
                .unwrap_or_else(|| fail("usage", "after-kill needs the killed shard's index"));
            let survivors: Vec<usize> = (0..addrs.len()).filter(|&ix| ix != victim).collect();
            let before = misses_on(&mut fleet, &survivors);
            for &(scale, key) in &pairings {
                let body = format!(r#"{{"trace": {{"name": "mu3", "scale": {scale}}}}}"#);
                let (status, resp, shard) = fleet
                    .request_keyed(key, "POST", "/v1/simulate", &body)
                    .unwrap_or_else(|e| fail("failover", &format!("key {key:016x}: {e}")));
                if status != 200 {
                    fail("failover", &format!("key {key:016x}: status {status}: {resp}"));
                }
                if shard == victim {
                    fail("failover", &format!("key {key:016x} answered by the dead shard"));
                }
                let v = Json::parse(&resp).unwrap_or_else(|e| fail("failover", &e.to_string()));
                if v.get("cached").and_then(Json::as_bool) != Some(true) {
                    fail(
                        "failover",
                        &format!(
                            "key {key:016x} was re-recorded after the kill — a replica was lost"
                        ),
                    );
                }
            }
            let after = misses_on(&mut fleet, &survivors);
            if after != before {
                fail(
                    "failover",
                    &format!(
                        "survivor recordings grew {before} -> {after}; failover must serve \
                         warm replicas, never re-record"
                    ),
                );
            }
            let breakers: Vec<String> = fleet
                .breakers()
                .iter()
                .map(|b| format!("{}={}", b.endpoint, b.state))
                .collect();
            println!(
                "fleet-drill after-kill: OK (shard {victim} dead: {} keys warm on survivors, \
                 0 re-recordings; breakers: {})",
                pairings.len(),
                breakers.join(" ")
            );
        }
        "after-rejoin" => {
            let rejoined = shard_ix
                .unwrap_or_else(|| fail("usage", "after-rejoin needs the rejoined shard's index"));
            let (status, body) = fleet
                .request_on(rejoined, "GET", "/v1/segments", "")
                .unwrap_or_else(|e| fail("segments", &e.to_string()));
            if status != 200 {
                fail("segments", &format!("status {status}: {body}"));
            }
            let v = Json::parse(&body).unwrap_or_else(|e| fail("segments", &e.to_string()));
            let held: Vec<String> = v
                .get("keys")
                .and_then(Json::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(|k| k.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default();
            let mut checked = 0usize;
            for &(scale, key) in &pairings {
                let pref = fleet.ring().preference(key);
                if !pref[..replication].contains(&rejoined) {
                    continue;
                }
                if !held.contains(&format!("{key:016x}")) {
                    fail(
                        "handoff",
                        &format!("rejoined shard is missing segment {key:016x} the ring places on it"),
                    );
                }
                // The handed-off copy must replay bit-identically to a
                // from-scratch simulation.
                let direct = Simulator::new(&config).run(&catalog::mu3(scale).generate());
                let expected = api::sim_result_to_json(&direct);
                let body = format!(r#"{{"key": "{key:016x}", "cycle_times_ns": [40]}}"#);
                let (status, resp) = fleet
                    .request_on(rejoined, "POST", "/v1/replay", &body)
                    .unwrap_or_else(|e| fail("replay", &e.to_string()));
                if status != 200 {
                    fail("replay", &format!("key {key:016x}: status {status}: {resp}"));
                }
                let v = Json::parse(&resp).unwrap_or_else(|e| fail("replay", &e.to_string()));
                if v.get("results").and_then(Json::as_array).and_then(|a| a.first())
                    != Some(&expected)
                {
                    fail(
                        "replay",
                        &format!("key {key:016x}: handed-off replay differs from Simulator::run"),
                    );
                }
                checked += 1;
            }
            if checked == 0 {
                fail("handoff", "the ring places no drill keys on the rejoined shard");
            }
            println!(
                "fleet-drill after-rejoin: OK (shard {rejoined} serves {checked} handed-off \
                 segment(s) bit-identical to Simulator::run)"
            );
        }
        other => fail("usage", &format!("unknown phase {other:?}")),
    }
}

/// Seeded fault-injection run against a *running* `ctserve` at `addr`
/// (`scripts/verify.sh` boots one with tight robustness limits first):
/// four chaos clients walk the 11×16 grid misbehaving on schedule —
/// half-written heads, mid-body disconnects, torn reads, garbage — then
/// the server must report healthy and still answer bit-identically to an
/// in-process `Simulator::run`. Deterministic in `seed`.
fn run_serve_chaos(addr: &str, seed: u64) {
    const THREADS: usize = 4;
    const ROUNDS: usize = 50;
    let scale = 0.005;
    let fail = |what: &str, detail: &str| -> ! {
        eprintln!("serve-chaos: FAIL: {what}: {detail}");
        std::process::exit(1);
    };

    let threads: Vec<_> = (0..THREADS)
        .map(|i| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                fault::run_chaos_client(&addr, derive_seed(seed, i as u64), scale, ROUNDS)
            })
        })
        .collect();
    let mut total = fault::ChaosReport::default();
    for t in threads {
        match t.join().expect("chaos client thread") {
            Ok(r) => total.merge(&r),
            Err(e) => fail("protocol", &e),
        }
    }
    if total.ok == 0 {
        fail("traffic", "no chaos round succeeded — server shedding everything?");
    }
    if total.faulted == 0 {
        fail("schedule", "the seeded plan never misbehaved; seed/rounds too small");
    }

    // Post-chaos: health must return to "ok" (no stranded recordings)...
    let mut client = HttpClient::connect(addr)
        .unwrap_or_else(|e| fail("post-chaos connect", &e.to_string()));
    let recovered_by = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = client
            .get("/healthz")
            .unwrap_or_else(|e| fail("post-chaos healthz", &e.to_string()));
        if status == 200
            && Json::parse(&body)
                .ok()
                .and_then(|v| v.get("status").and_then(Json::as_str).map(String::from))
                .as_deref()
                == Some("ok")
        {
            break;
        }
        if Instant::now() >= recovered_by {
            fail("recovery", &format!("healthz still not ok: {status} {body}"));
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    // ...and the store must be uncorrupted: a grid cell simulated through
    // the chaos-scarred store is bit-identical to a direct run.
    let size_kib = fault::GRID_SIZES_KIB[4];
    let ct_ns = fault::GRID_CYCLE_TIMES_NS[5];
    let body = fault::grid_body(size_kib, ct_ns, scale);
    let (status, resp) = client
        .post("/v1/simulate", &body)
        .unwrap_or_else(|e| fail("post-chaos simulate", &e.to_string()));
    if status != 200 {
        fail("post-chaos simulate", &format!("status {status}: {resp}"));
    }
    let served = Json::parse(&resp).unwrap_or_else(|e| fail("post-chaos simulate", &e.to_string()));
    let config_json = Json::parse(&body).expect("own request body");
    let config = api::system_config_from_json(config_json.get("config"))
        .unwrap_or_else(|e| fail("config", &e));
    let direct = Simulator::new(&config).run(&catalog::mu3(scale).generate());
    if served.get("result") != Some(&api::sim_result_to_json(&direct)) {
        fail(
            "bit-identity",
            "post-chaos server result differs from a direct Simulator::run",
        );
    }

    println!(
        "serve-chaos: OK ({addr}: {} rounds, {} ok, {} shed, {} rejected, {} faulted; healthy and bit-identical after)",
        total.rounds, total.ok, total.shed, total.rejected, total.faulted
    );
}

/// Which way a guarded metric is allowed to move.
#[derive(Debug, Clone, Copy)]
enum Better {
    Higher,
    Lower,
}

/// The headline metrics `bench-diff` guards: snapshot file, dot-path into
/// its JSON, the good direction, and a noise multiplier on the base
/// threshold. Kept deliberately short — these are the numbers the README
/// quotes and a regression in any of them is the kind a reviewer must see
/// before merge.
///
/// The multiplier exists because not all metrics are equally repeatable.
/// Ratios of two legs from the same run (repricing speedup) cancel out
/// host-load swings and hold within a few percent, so they keep the base
/// threshold. Absolute throughputs (cells/sec) track whatever the shared
/// host is doing and swing ±20% between runs of the same binary: 2x.
/// Serve-side p50s over ~50 requests swing ±30%: 3x — still tight enough
/// to catch a real cliff. The concurrency-flatness ratio is deliberately
/// absent: it is bounded absolutely (<= 3x solo) by an assert inside the
/// serve bench itself, and any relative gate under that bound just
/// flakes on scheduler noise.
const BENCH_GUARDS: &[(&str, &str, Better, f64)] = &[
    ("BENCH_sweep.json", "repricing_speedup", Better::Higher, 1.0),
    (
        "BENCH_sweep.json",
        "two_phase.cells_per_sec",
        Better::Higher,
        2.0,
    ),
    (
        "BENCH_sweep.json",
        "features.cells_per_sec_on",
        Better::Higher,
        2.0,
    ),
    ("BENCH_serve.json", "warm_speedup", Better::Higher, 3.0),
    (
        "BENCH_serve.json",
        "restart.restart_warm_speedup",
        Better::Higher,
        3.0,
    ),
    ("BENCH_serve.json", "warm.p50_us", Better::Lower, 3.0),
    (
        "BENCH_serve.json",
        "ingest.refs_per_sec",
        Better::Higher,
        3.0,
    ),
];

/// Follows a dot-path (`"warm.p50_us"`) into a JSON object tree.
fn lookup_metric(v: &Json, path: &str) -> Option<f64> {
    let mut cur = v;
    for seg in path.split('.') {
        cur = cur.get(seg)?;
    }
    cur.as_f64()
}

/// Compares the working tree's `BENCH_*.json` snapshots against the ones
/// committed at `HEAD` and exits nonzero if any guarded headline metric
/// regressed by more than `threshold`. Skips — with a note, not a failure
/// — files or metrics that are missing on either side, so the check is
/// safe on fresh clones and across snapshot-schema changes.
fn run_bench_diff(threshold: f64) {
    let mut regressions = Vec::new();
    let mut checked = 0usize;
    for file in ["BENCH_sweep.json", "BENCH_serve.json"] {
        let Ok(current_text) = std::fs::read_to_string(file) else {
            println!("bench-diff: {file}: not in the working tree (bench not run); skipping");
            continue;
        };
        let baseline_out = std::process::Command::new("git")
            .args(["show", &format!("HEAD:{file}")])
            .output();
        let baseline_text = match baseline_out {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
            _ => {
                println!("bench-diff: {file}: no committed baseline at HEAD; skipping");
                continue;
            }
        };
        let current = Json::parse(&current_text).unwrap_or_else(|e| {
            eprintln!("bench-diff: {file}: working-tree snapshot is not JSON: {e}");
            std::process::exit(1);
        });
        let baseline = Json::parse(&baseline_text).unwrap_or_else(|e| {
            eprintln!("bench-diff: {file}: committed baseline is not JSON: {e}");
            std::process::exit(1);
        });
        for &(guard_file, path, better, noise) in BENCH_GUARDS {
            if guard_file != file {
                continue;
            }
            let (Some(base), Some(cur)) = (
                lookup_metric(&baseline, path),
                lookup_metric(&current, path),
            ) else {
                println!("bench-diff: {file}: {path}: missing on one side; skipping");
                continue;
            };
            if base <= 0.0 {
                println!("bench-diff: {file}: {path}: non-positive baseline {base}; skipping");
                continue;
            }
            // Positive = got worse, as a fraction of the baseline.
            let regression = match better {
                Better::Higher => (base - cur) / base,
                Better::Lower => (cur - base) / base,
            };
            let tolerance = threshold * noise;
            checked += 1;
            let verdict = if regression > tolerance { "REGRESSED" } else { "ok" };
            println!(
                "bench-diff: {file}: {path}: {base:.3} -> {cur:.3} ({:+.1}%, tol {:.0}%) {verdict}",
                regression * 100.0,
                tolerance * 100.0
            );
            if regression > tolerance {
                regressions.push(format!("{file}: {path}"));
            }
        }
    }
    if !regressions.is_empty() {
        eprintln!(
            "bench-diff: FAIL: {} metric(s) regressed past tolerance (base {:.0}%): {}",
            regressions.len(),
            threshold * 100.0,
            regressions.join(", ")
        );
        std::process::exit(1);
    }
    println!(
        "bench-diff: OK ({checked} headline metrics within tolerance of the committed baselines, base {:.0}%)",
        threshold * 100.0
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("sweep") => {
            let scale = match args.next() {
                Some(s) => s.parse().unwrap_or_else(|_| {
                    eprintln!("invalid scale {s:?}; expected a float like 0.05");
                    std::process::exit(2);
                }),
                None => DEFAULT_SCALE,
            };
            run_sweep_bench(scale);
        }
        Some("serve") => {
            let scale = match args.next() {
                Some(s) => s.parse().unwrap_or_else(|_| {
                    eprintln!("invalid scale {s:?}; expected a float like 0.05");
                    std::process::exit(2);
                }),
                None => DEFAULT_SCALE,
            };
            run_serve_bench(scale);
        }
        Some("serve-check") => {
            let Some(addr) = args.next() else {
                eprintln!("usage: cachetime-bench serve-check <host:port>[,<host:port>...]");
                std::process::exit(2);
            };
            if addr.contains(',') {
                let addrs: Vec<String> = addr.split(',').map(str::to_string).collect();
                run_fleet_check(&addrs);
            } else {
                run_serve_check(&addr);
            }
        }
        Some("ingest-check") => {
            let Some(addr) = args.next() else {
                eprintln!("usage: cachetime-bench ingest-check <host:port>");
                std::process::exit(2);
            };
            run_ingest_check(&addr);
        }
        Some("fleet-drill") => {
            let usage = || -> ! {
                eprintln!(
                    "usage: cachetime-bench fleet-drill <host:port>,<host:port>,... \
                     <record|after-kill|after-rejoin> [shard-index]"
                );
                std::process::exit(2);
            };
            let Some(addr) = args.next() else { usage() };
            let addrs: Vec<String> = addr.split(',').map(str::to_string).collect();
            let Some(phase) = args.next() else { usage() };
            let ix = args.next().map(|s| {
                s.parse().unwrap_or_else(|_| {
                    eprintln!("invalid shard index {s:?}; expected a usize");
                    std::process::exit(2);
                })
            });
            run_fleet_drill(&addrs, &phase, ix);
        }
        Some("serve-chaos") => {
            let Some(addr) = args.next() else {
                eprintln!("usage: cachetime-bench serve-chaos <host:port> [seed]");
                std::process::exit(2);
            };
            let seed = match args.next() {
                Some(s) => s.parse().unwrap_or_else(|_| {
                    eprintln!("invalid seed {s:?}; expected a u64");
                    std::process::exit(2);
                }),
                None => 0xC5A0_5EED,
            };
            run_serve_chaos(&addr, seed);
        }
        Some("bench-diff") => {
            let threshold = match args.next() {
                Some(s) => s.parse().unwrap_or_else(|_| {
                    eprintln!("invalid threshold {s:?}; expected a fraction like 0.15");
                    std::process::exit(2);
                }),
                None => 0.15,
            };
            run_bench_diff(threshold);
        }
        _ => {
            eprintln!("usage: cachetime-bench <sweep|serve> [scale] | serve-check <host:port> | ingest-check <host:port> | fleet-drill <addrs> <phase> [ix] | serve-chaos <host:port> [seed] | bench-diff [threshold]");
            eprintln!();
            eprintln!("  sweep        time a speed/size grid: direct per-cell simulation vs");
            eprintln!("               the two-phase record/replay pipeline (serial and");
            eprintln!("               parallel), print cells/sec, write BENCH_sweep.json");
            eprintln!("  serve        load-test the HTTP server: cold recording vs warm");
            eprintln!("               store-hit replays over the 11x16 grid plus an");
            eprintln!("               overload storm past the admission limit, write");
            eprintln!("               BENCH_serve.json");
            eprintln!("  serve-check  smoke-test a running ctserve: simulate + replay must");
            eprintln!("               be bit-identical to an in-process Simulator::run;");
            eprintln!("               a comma-separated address list checks a whole");
            eprintln!("               consistent-hash fleet (routing + aggregated stats)");
            eprintln!("  ingest-check smoke-test /v1/traces on a running ctserve: chunked");
            eprintln!("               upload + dedup + simulate-by-digest bit-identical to");
            eprintln!("               Simulator::run, interval selection within its bound,");
            eprintln!("               and an oversized chunk claim answered 413");
            eprintln!("  fleet-drill  membership-chaos drill phases against a running fleet:");
            eprintln!("               record replicates a deterministic key set; after-kill");
            eprintln!("               asserts zero lost keys and zero re-recordings with one");
            eprintln!("               shard dead; after-rejoin asserts handed-off segments");
            eprintln!("               replay bit-identical to Simulator::run");
            eprintln!("  serve-chaos  seeded fault-injection clients against a running");
            eprintln!("               ctserve; asserts recovery and zero store corruption");
            eprintln!("  bench-diff   compare working-tree BENCH_*.json snapshots against");
            eprintln!("               the ones committed at HEAD; exit nonzero if a headline");
            eprintln!("               metric regressed past the threshold (default 15%)");
            std::process::exit(2);
        }
    }
}
