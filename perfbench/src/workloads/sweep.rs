//! `sweep`: the paper's own use, in process. Every catalog trace is
//! recorded once per L1 size and each recording is repriced over the
//! cycle-time axis under four memories, through `sweep::run`. Replay
//! does most of a pass; there is no HTTP, JSON or disk, so replay and
//! executor changes show here and serve changes cannot.

use super::{
    common_layers, generate, sampled, set_up, timed_phases, Digest, Outcome, Pass, Phase, Rounds,
    RunOptions, Summary, CYCLE_TIMES_NS, SIZES_KIB,
};
use crate::host::{Coupling, HostClock};
use crate::spans::{span, Collector, Tree};
use cachetime::{replay_many, sweep, BehavioralSim, SimResult, SystemConfig};
use cachetime_cache::CacheConfig;
use cachetime_mem::{MemoryConfig, TransferRate};
use cachetime_serve::api::sim_result_to_json;
use cachetime_testkit::derive_seed;
use cachetime_trace::{catalog, Trace};
use cachetime_types::{CacheSize, CycleTime, Nanos};

/// Workload size.
#[derive(Debug, Clone)]
pub struct Params {
    /// Catalog trace scale.
    pub scale: f64,
    /// How many catalog traces (in Table 1 order).
    pub traces: usize,
    /// L1 sizes, one recording each per trace.
    pub sizes_kib: Vec<u64>,
    /// Worker threads for `sweep::run`.
    pub jobs: usize,
}

impl Params {
    /// The benchmark's size: 8 traces × 11 sizes = 88 recordings, each
    /// repriced at 16 cycle times × 4 memories (5,632 cells a pass).
    pub fn full() -> Params {
        Params {
            scale: 0.05,
            traces: 8,
            sizes_kib: SIZES_KIB.to_vec(),
            jobs: 2,
        }
    }

    /// A size for tests.
    pub fn tiny() -> Params {
        Params {
            scale: 0.002,
            traces: 2,
            sizes_kib: vec![4, 64],
            jobs: 2,
        }
    }
}

/// The memory axis: the paper's default memory plus three
/// (latency, transfer rate) pairings from Figure 5-2's axes.
fn memories() -> [MemoryConfig; 4] {
    let uniform = |ns, rate| MemoryConfig::uniform_latency(Nanos(ns), rate).expect("valid memory");
    [
        MemoryConfig::paper_default(),
        uniform(100, TransferRate::WordsPerCycle(4)),
        uniform(260, TransferRate::WordsPerCycle(1)),
        uniform(420, TransferRate::CyclesPerWord(4)),
    ]
}

/// Every timing a recording of an L1 of `size_kib` is priced under.
fn configs(size_kib: u64) -> Vec<SystemConfig> {
    let l1 = CacheConfig::builder(CacheSize::from_kib(size_kib).expect("power of two"))
        .build()
        .expect("valid cache");
    memories()
        .iter()
        .flat_map(|&memory| {
            CYCLE_TIMES_NS.iter().map(move |&ns| {
                SystemConfig::builder()
                    .cycle_time(CycleTime::from_ns(ns).expect("nonzero"))
                    .l1_both(l1)
                    .memory(memory)
                    .build()
                    .expect("valid system")
            })
        })
        .collect()
}

/// One recording: a trace under one L1 size.
#[derive(Debug, Clone, Copy)]
struct Task {
    trace: usize,
    size: usize,
}

struct Ready {
    traces: Vec<Trace>,
    configs: Vec<Vec<SystemConfig>>,
    tasks: Vec<Task>,
}

/// Runs the workload.
pub fn run(p: &Params, opts: &RunOptions, col: Option<&Collector>) -> Outcome {
    // The workers keep both cores busy, so calibrate on both. They take
    // tasks from one queue, so time stolen from either CPU slows the pass
    // by the mean.
    let host = HostClock::new(p.jobs, Coupling::Shared);
    let (ready, setup_s, setup_speed, setup_spans) = set_up(col, |col| {
        // The catalog's traces, each with its generator reseeded from the
        // seed: the same lengths, footprints and process mixes as the
        // paper's, so every seed does about the same work.
        let traces = catalog::all(p.scale)
            .into_iter()
            .take(p.traces)
            .enumerate()
            .map(|(i, mut spec)| {
                spec.seed = derive_seed(opts.seed, i as u64);
                generate(col, &spec)
            })
            .collect::<Vec<_>>();
        // Longest traces first, so both workers finish a pass together and
        // every pass overlaps the same recordings: the pass time and the
        // memory peak then do not depend on where a long task fell.
        let mut tasks: Vec<Task> = (0..traces.len())
            .flat_map(|trace| (0..p.sizes_kib.len()).map(move |size| Task { trace, size }))
            .collect();
        tasks.sort_by_key(|t| std::cmp::Reverse(traces[t.trace].len()));
        Ready {
            traces,
            configs: p.sizes_kib.iter().map(|&s| configs(s)).collect(),
            tasks,
        }
    });
    let cells_per_pass = ready.tasks.len() * ready.configs[0].len();

    let pass = |col: Option<&Collector>| {
        sweep::run(&ready.tasks, p.jobs, |i, t| {
            let mut op = span(col, "op", Some(i as u64));
            let configs = &ready.configs[t.size];
            let events =
                BehavioralSim::new(&configs[0].organization()).record(&ready.traces[t.trace]);
            let results = replay_many(&events, configs).expect("one organization per task");
            if let Some(op) = &mut op {
                op.set_work(results.len() as u64);
            }
            results
        })
    };

    let _warm_up = pass(None);
    let mut first: Option<Vec<Vec<SimResult>>> = None;
    let mut jobs = p.jobs;
    let (main, traced) = timed_phases(opts, &host, col, |length, col| {
        // The operation a sweep's user waits for is the whole sweep, so a
        // pass is one operation; its tasks (two kinds, R2000 and VAX, of
        // very different cost) are steps inside it.
        let mut phase = Phase {
            passes: vec![Vec::new()],
            summary: Summary::Pooled,
            ..Phase::default()
        };
        Rounds::new(&host, 1, length).run(|| {
            phase.attempted += cells_per_pass as u64;
            match pass(col) {
                Ok(run) => {
                    jobs = run.jobs;
                    let wall_s = run.wall_time.as_secs_f64();
                    phase.passes[0].push(Pass {
                        work: cells_per_pass as f64,
                        wall_s,
                        latencies_us: vec![wall_s * 1e6],
                    });
                    match &first {
                        None => first = Some(run.results),
                        Some(f) if *f != run.results => phase.failed += cells_per_pass as u64,
                        Some(_) => {}
                    }
                }
                Err(e) => {
                    eprintln!("sweep: {e}");
                    phase.failed += cells_per_pass as u64;
                }
            }
        });
        phase
    });

    let mut out = Outcome {
        setup_s,
        setup_speed,
        kernel_us: host.samples(),
        tail_q: 0.9,
        main,
        digest: Digest::new(cells_per_pass as u64),
        ..Outcome::default()
    };
    let first = first.unwrap_or_default();
    for (i, results) in first.iter().enumerate() {
        let t = ready.tasks[i];
        for (j, r) in results.iter().enumerate() {
            out.digest
                .push(sim_result_to_json(r).to_string().as_bytes());
            if sampled(opts.seed, 0, (i * results.len() + j) as u64) {
                out.checks += 1;
                let expected =
                    cachetime::simulate(&ready.configs[t.size][j], &ready.traces[t.trace]);
                if expected != *r {
                    out.checks_failed += 1;
                }
            }
        }
    }
    if first.len() != ready.tasks.len() {
        out.checks_failed += 1;
    }

    if let Some((phase, spans)) = traced {
        let setup = Tree::build(setup_spans);
        let timed = Tree::build(spans);
        common_layers(&setup, &timed, &mut out.layers);
        // Σ task time over (workers × pass wall): the share of worker
        // time the executor left idle.
        let (_, busy, _) = timed.totals("op");
        let (_, wall, _) = timed.totals("sweep_run");
        let idle = if wall == 0 {
            0.0
        } else {
            1.0 - busy as f64 / (jobs as f64 * wall as f64)
        };
        out.layers.insert("core.sweep.idle_frac".into(), idle);
        out.traced = Some(phase);
        out.trees = vec![setup, timed];
    }
    out
}
