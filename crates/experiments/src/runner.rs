//! Shared experiment infrastructure: trace sets, parameter grids, and
//! geometric-mean aggregation.

use cachetime::{replay_many, simulate, sweep, BehavioralSim, SimResult, SystemConfig};
use cachetime_analysis::geometric_mean;
use cachetime_trace::{catalog, Trace};

/// The paper's per-cache size sweep: 2 KB through 2 MB (total L1 4 KB–4 MB).
pub const SIZES_PER_CACHE_KB: [u64; 11] = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// The paper's cycle-time sweep: 20 ns through 80 ns.
pub const CYCLE_TIMES_NS: [u32; 16] = [
    20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72, 76, 80,
];

/// The associativity sweep of section 4.
pub const ASSOCS: [u32; 4] = [1, 2, 4, 8];

/// The block-size sweep of section 5 (words).
pub const BLOCK_WORDS: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// The section-5 memory latencies (ns); at 40 ns they quantize to 3, 5, 7,
/// 9, 11 cycles.
pub const MEM_LATENCIES_NS: [u64; 5] = [100, 180, 260, 340, 420];

/// The eight workload traces, generated once and shared by every
/// experiment.
#[derive(Debug)]
pub struct TraceSet {
    traces: Vec<Trace>,
    scale: f64,
}

impl TraceSet {
    /// Generates the full catalog at `scale` (1.0 = paper-sized traces).
    pub fn generate(scale: f64) -> Self {
        Self::generate_with_seed_offset(scale, 0)
    }

    /// [`TraceSet::generate`] with the eight workloads generated on a
    /// worker pool (`jobs == 0` = available parallelism). Each workload's
    /// seed is fixed by the catalog, so the result is identical to the
    /// serial path for every job count.
    pub fn generate_jobs(scale: f64, jobs: usize) -> Self {
        let specs = catalog::all(scale);
        let run = sweep::run(&specs, jobs, |_idx, spec| spec.generate())
            .expect("trace generation does not panic");
        TraceSet {
            traces: run.results,
            scale,
        }
    }

    /// Generates the catalog with every workload seed shifted — a fresh
    /// statistical draw of the same workload family, for robustness
    /// checks (offset 0 = the canonical traces).
    pub fn generate_with_seed_offset(scale: f64, offset: u64) -> Self {
        let traces = catalog::all(scale)
            .into_iter()
            .map(|mut spec| {
                spec.seed = spec.seed.wrapping_add(offset.wrapping_mul(0x9e37_79b9));
                spec.generate()
            })
            .collect();
        TraceSet { traces, scale }
    }

    /// A small set for smoke tests and benches (~2% of paper length).
    pub fn quick() -> Self {
        Self::generate(0.02)
    }

    /// The traces.
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// The generation scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

/// Geometric-mean aggregate of one configuration over all traces.
///
/// Ratios that can legitimately reach zero on short traces are floored at
/// `1e-9` before entering the geometric mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agg {
    /// Mean execution time per reference, nanoseconds.
    pub time_per_ref_ns: f64,
    /// Mean cycles per reference.
    pub cycles_per_ref: f64,
    /// Combined read miss ratio (read misses / reads).
    pub read_miss_ratio: f64,
    /// Instruction-fetch miss ratio.
    pub ifetch_miss_ratio: f64,
    /// Load miss ratio.
    pub load_miss_ratio: f64,
    /// Words fetched per reference.
    pub read_traffic: f64,
    /// Larger write-traffic ratio (whole dirty victim blocks).
    pub write_traffic_block: f64,
    /// Smaller write-traffic ratio (dirty words only).
    pub write_traffic_dirty: f64,
}

fn floor_pos(v: f64) -> f64 {
    v.max(1e-9)
}

/// Aggregates per-trace results into geometric means.
///
/// # Panics
///
/// Panics if `results` is empty.
pub fn aggregate(results: &[SimResult]) -> Agg {
    assert!(!results.is_empty(), "no results to aggregate");
    let g = |f: &dyn Fn(&SimResult) -> f64| {
        geometric_mean(&results.iter().map(|r| floor_pos(f(r))).collect::<Vec<_>>())
    };
    Agg {
        time_per_ref_ns: g(&|r| r.time_per_ref_ns()),
        cycles_per_ref: g(&|r| r.cycles_per_ref()),
        read_miss_ratio: g(&|r| r.read_miss_ratio()),
        ifetch_miss_ratio: g(&|r| r.ifetch_miss_ratio()),
        load_miss_ratio: g(&|r| r.load_miss_ratio()),
        read_traffic: g(&|r| r.read_traffic_ratio()),
        write_traffic_block: g(&|r| r.write_traffic_ratio_block()),
        write_traffic_dirty: g(&|r| r.write_traffic_ratio_dirty()),
    }
}

/// Runs one configuration over every trace and aggregates.
pub fn run_config(config: &SystemConfig, traces: &TraceSet) -> Agg {
    let results: Vec<SimResult> = traces
        .traces()
        .iter()
        .map(|t| simulate(config, t))
        .collect();
    aggregate(&results)
}

/// [`run_config`] with the per-trace simulations fanned over `jobs`
/// workers. Results are aggregated in trace order, so the aggregate is
/// bit-identical to the serial path for every job count.
pub fn run_config_jobs(config: &SystemConfig, traces: &TraceSet, jobs: usize) -> Agg {
    let indices: Vec<usize> = (0..traces.traces().len()).collect();
    let run = sweep::run(&indices, jobs, |_idx, &t| {
        simulate(config, &traces.traces()[t])
    })
    .expect("simulation does not panic");
    aggregate(&run.results)
}

/// One organization×trace unit of work in a [`SpeedSizeGrid`] sweep: the
/// cache size identifies the organization, `trace` indexes into the
/// [`TraceSet`]. The whole cycle-time axis rides along inside the task —
/// one behavioral pass, then one cheap timing replay per cycle time.
/// Carried as the sweep task so a panicking simulation is reported with
/// its exact coordinates.
#[derive(Debug, Clone, Copy)]
struct GridTask {
    size_per_cache_kb: u64,
    trace: usize,
}

/// The speed–size design-space grid shared by Figures 3-2/3-3/3-4,
/// Figure 4-2 and its break-even maps, and Table 3: one aggregate per
/// (cache size, cycle time) cell at a fixed associativity.
#[derive(Debug, Clone)]
pub struct SpeedSizeGrid {
    /// Degree of associativity the grid was computed at.
    pub assoc: u32,
    /// Total L1 sizes (both caches), KB — the row axis.
    pub sizes_total_kb: Vec<u64>,
    /// Cycle times, ns — the column axis.
    pub cts_ns: Vec<u32>,
    /// `cycles_per_ref[size][ct]`.
    pub cycles_per_ref: Vec<Vec<f64>>,
    /// `time_per_ref[size][ct]` in nanoseconds (the execution-time
    /// surface, up to the trace-length normalization).
    pub time_per_ref: Vec<Vec<f64>>,
    /// `read_miss_ratio[size][ct]` (varies only via write-buffer timing
    /// interactions; organizationally constant along the ct axis).
    pub read_miss_ratio: Vec<Vec<f64>>,
}

impl SpeedSizeGrid {
    /// Computes the full grid: every size in [`SIZES_PER_CACHE_KB`] crossed
    /// with every cycle time in [`CYCLE_TIMES_NS`].
    pub fn compute(traces: &TraceSet, assoc: u32) -> Self {
        Self::compute_over(traces, assoc, &SIZES_PER_CACHE_KB, &CYCLE_TIMES_NS)
    }

    /// [`SpeedSizeGrid::compute`] on a worker pool (`jobs == 0` =
    /// available parallelism).
    pub fn compute_jobs(traces: &TraceSet, assoc: u32, jobs: usize) -> Self {
        Self::compute_over_jobs(traces, assoc, &SIZES_PER_CACHE_KB, &CYCLE_TIMES_NS, jobs)
    }

    /// Computes the grid over explicit axes (tests and quick modes use
    /// smaller ones).
    pub fn compute_over(
        traces: &TraceSet,
        assoc: u32,
        sizes_per_cache_kb: &[u64],
        cts_ns: &[u32],
    ) -> Self {
        Self::compute_over_jobs(traces, assoc, sizes_per_cache_kb, cts_ns, 1)
    }

    /// [`SpeedSizeGrid::compute_over`] on a worker pool.
    ///
    /// The sweep fans out one task per `(size, trace)` pair. Each task
    /// runs the trace through the behavioral simulator *once* for that
    /// organization, then reprices the recorded events under every cycle
    /// time — the cycle-time axis costs a timing replay per point instead
    /// of a full simulation. Replay is bit-identical to direct simulation
    /// (asserted in-tree), and per-cell aggregates are assembled in trace
    /// order, so the grid matches the old cell-by-cell computation exactly
    /// for any `jobs`.
    pub fn compute_over_jobs(
        traces: &TraceSet,
        assoc: u32,
        sizes_per_cache_kb: &[u64],
        cts_ns: &[u32],
        jobs: usize,
    ) -> Self {
        let assoc_v = cachetime_types::Assoc::new(assoc).expect("power-of-two assoc");
        let n_traces = traces.traces().len();
        let mut tasks = Vec::with_capacity(sizes_per_cache_kb.len() * n_traces);
        for &kb in sizes_per_cache_kb {
            for trace in 0..n_traces {
                tasks.push(GridTask {
                    size_per_cache_kb: kb,
                    trace,
                });
            }
        }
        let run = sweep::run(&tasks, jobs, |_idx, task| {
            let l1 = cachetime_cache::CacheConfig::builder(
                cachetime_types::CacheSize::from_kib(task.size_per_cache_kb).expect("power of two"),
            )
            .assoc(assoc_v)
            .build()
            .expect("valid cache");
            let mk = |ct: u32| {
                SystemConfig::builder()
                    .cycle_time(cachetime_types::CycleTime::from_ns(ct).expect("nonzero"))
                    .l1_both(l1)
                    .build()
                    .expect("valid system")
            };
            let configs: Vec<SystemConfig> = cts_ns.iter().map(|&ct| mk(ct)).collect();
            let events =
                BehavioralSim::new(&configs[0].organization()).record(&traces.traces()[task.trace]);
            replay_many(&events, &configs).expect("same organization")
        })
        .expect("simulation does not panic");

        // Reassemble: tasks were pushed size-major with traces innermost,
        // and each result carries the whole cycle-time axis; gather the
        // `n_traces` results of one (size, ct) cell in canonical trace
        // order before aggregating.
        let mut cycles_per_ref = Vec::new();
        let mut time_per_ref = Vec::new();
        let mut read_miss_ratio = Vec::new();
        for (si, _) in sizes_per_cache_kb.iter().enumerate() {
            let mut row_c = Vec::new();
            let mut row_t = Vec::new();
            let mut row_m = Vec::new();
            for (ci, _) in cts_ns.iter().enumerate() {
                let cell: Vec<SimResult> = (0..n_traces)
                    .map(|t| run.results[si * n_traces + t][ci])
                    .collect();
                let agg = aggregate(&cell);
                row_c.push(agg.cycles_per_ref);
                row_t.push(agg.time_per_ref_ns);
                row_m.push(agg.read_miss_ratio);
            }
            cycles_per_ref.push(row_c);
            time_per_ref.push(row_t);
            read_miss_ratio.push(row_m);
        }
        SpeedSizeGrid {
            assoc,
            sizes_total_kb: sizes_per_cache_kb.iter().map(|&kb| 2 * kb).collect(),
            cts_ns: cts_ns.to_vec(),
            cycles_per_ref,
            time_per_ref,
            read_miss_ratio,
        }
    }

    /// The cycle-time axis as `f64` (for interpolation).
    pub fn cts_f64(&self) -> Vec<f64> {
        self.cts_ns.iter().map(|&c| c as f64).collect()
    }

    /// The minimum execution time anywhere in the grid.
    pub fn min_time(&self) -> f64 {
        self.time_per_ref
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachetime_types::{CycleTime, Cycles};

    #[test]
    fn grids_match_the_paper() {
        assert_eq!(SIZES_PER_CACHE_KB.len(), 11);
        assert_eq!(SIZES_PER_CACHE_KB[0] * 2, 4, "total L1 starts at 4KB");
        assert_eq!(*SIZES_PER_CACHE_KB.last().unwrap() * 2, 4096);
        assert_eq!(CYCLE_TIMES_NS[0], 20);
        assert_eq!(*CYCLE_TIMES_NS.last().unwrap(), 80);
        assert!(
            CYCLE_TIMES_NS.contains(&56),
            "the anomalous point is sampled"
        );
        assert_eq!(MEM_LATENCIES_NS.len(), 5);
    }

    #[test]
    fn aggregate_is_geomean() {
        let mk = |cycles: u64, refs: u64| SimResult {
            cycle_time: CycleTime::from_ns(40).unwrap(),
            cycles: Cycles(cycles),
            refs,
            couplets: refs,
            l1i: Default::default(),
            l1d: Default::default(),
            l2: None,
            l3: None,
            mem: Default::default(),
            mmu: None,
            latency: Default::default(),
            stall_cycles: Cycles(0),
        };
        let agg = aggregate(&[mk(100, 100), mk(400, 100)]);
        assert!((agg.cycles_per_ref - 2.0).abs() < 1e-9);
        assert!((agg.time_per_ref_ns - 80.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no results")]
    fn aggregate_empty_panics() {
        aggregate(&[]);
    }

    #[test]
    fn quick_trace_set_has_eight_traces() {
        let ts = TraceSet::quick();
        assert_eq!(ts.traces().len(), 8);
        assert!(ts.scale() > 0.0);
    }
}
