//! The four workloads and what they share: set-up repetition, timed
//! rounds with host calibration, output-check sampling and the results
//! digest.
//!
//! Every workload is a library function that takes its size as an
//! argument (`Params::full()` for the benchmark, `Params::tiny()` for
//! tests). It sets up [`SETUP_REPS`] times, warms up with one pass,
//! then measures whole passes for `seconds`. A traced run measures the
//! first half of `seconds` untraced and the second half with spans and
//! shadow passes on, so the difference between the halves is the tracing
//! overhead. Every time is calibrated for the host's speed (see
//! [`crate::host`]).

pub mod ingest;
pub mod serve;
pub mod serve_cold;
pub mod serve_warm;
pub mod sweep;

use crate::host::{allowed_cpus, pin_current_thread, Coupling, HostClock};
use crate::spans::{span, Collector, SpanRec, Tree};
use crate::stats::{interpolated, median, percentile, samples_for};
use cachetime_testkit::derive_seed;
use cachetime_trace::{Trace, WorkloadSpec};
use cachetime_types::StableHasher;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sweep", "serve-warm", "serve-cold", "ingest"];

/// How many times each run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;

/// One in this many priced results is checked against an in-process
/// simulation.
pub const CHECK_ONE_IN: u64 = 64;

/// The paper's per-cache size axis, 2 KB through 2 MB.
pub const SIZES_KIB: [u64; 11] = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// The paper's cycle-time axis.
pub const CYCLE_TIMES_NS: [u32; 16] = [
    20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72, 76, 80,
];

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The only input the workload generators take.
    pub seed: u64,
    /// Measured time; a traced run splits it between its two halves.
    pub seconds: f64,
    /// Whether to add the traced half.
    pub traced: bool,
    /// Scratch directory for on-disk state (serve-cold's segment store).
    pub work_dir: PathBuf,
}

/// One timed pass of one closed-loop caller.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Units of work finished: cells, requests, or uploaded references.
    pub work: f64,
    /// Seconds the work took.
    pub wall_s: f64,
    /// Latency of each timed operation of the pass, in microseconds.
    pub latencies_us: Vec<f64>,
}

/// How a phase turns latency samples into a percentile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Summary {
    /// Over every timed operation, interpolating between neighbouring
    /// samples: for requests whose tail is their own slow work
    /// (serve-cold's cold recordings), and for sweep's few whole passes.
    #[default]
    Pooled,
    /// The median over windows of consecutive rounds of each window's
    /// percentile, every window holding enough samples that ten lie
    /// beyond it: for uniform requests whose tail is mostly other
    /// tenants' interference (serve-warm). A burst then moves a few
    /// windows, not the median.
    Windowed,
    /// Every pass times the same operations in the same order (ingest's
    /// bodies), which differ in cost by design, so a percentile over all
    /// samples would sit in the gap between two sizes and jump from run to
    /// run. Each operation gets its median over the passes, and
    /// percentiles interpolate across those.
    PerOperation,
}

/// What one timed phase measured. Each metric is a median, of times
/// calibrated for the host's speed or (with `calibrated` false) raw.
#[derive(Debug, Default)]
pub struct Phase {
    /// Each caller's passes, one per round (one caller except on
    /// serve-cold, whose two callers run their passes in lockstep).
    pub passes: Vec<Vec<Pass>>,
    /// How latency percentiles are taken.
    pub summary: Summary,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: non-2xx answers, transport errors, or a
    /// pass whose results differ from the first pass.
    pub failed: u64,
    /// Peak resident memory during the phase, in MiB.
    pub peak_rss_mb: f64,
    /// The host's speed over the phase ([`HostClock::speed_since`]);
    /// calibrated times are raw times × `speed`.
    pub speed: f64,
    /// The share of the phase the CPUs were the program's own
    /// ([`HostClock::availability_since`]), a factor of `speed`.
    pub available: f64,
}

impl Phase {
    /// The median over rounds of the work all callers finished, over the
    /// round's wall time (its slowest caller's pass).
    pub fn work_per_s(&self, calibrated: bool) -> f64 {
        let rates: Vec<f64> = (0..self.rounds())
            .map(|r| {
                let work: f64 = self.passes.iter().map(|c| c[r].work).sum();
                let wall = self.passes.iter().map(|c| c[r].wall_s).fold(0.0, f64::max);
                work / wall
            })
            .collect();
        median(&rates) / self.factor(calibrated)
    }

    /// The `q` latency percentile, taken as [`summary`](Self::summary)
    /// says.
    pub fn latency_us(&self, q: f64, calibrated: bool) -> f64 {
        let rounds = self.rounds();
        let raw = match self.summary {
            Summary::PerOperation => interpolated(&self.per_op_us(), q),
            Summary::Pooled => interpolated(&self.samples(0..rounds), q),
            Summary::Windowed => {
                let per_round = self.samples(0..rounds.min(1)).len().max(1);
                let k = samples_for(q).div_ceil(per_round);
                let windows: Vec<f64> = (0..rounds / k)
                    .map(|w| percentile(&self.samples(w * k..(w + 1) * k), q))
                    .collect();
                if windows.is_empty() {
                    percentile(&self.samples(0..rounds), q)
                } else {
                    median(&windows)
                }
            }
        };
        raw * self.factor(calibrated)
    }

    /// Every caller's latency samples from the given rounds.
    fn samples(&self, rounds: std::ops::Range<usize>) -> Vec<f64> {
        self.passes
            .iter()
            .flat_map(|c| c[rounds.clone()].iter())
            .flat_map(|p| p.latencies_us.iter().copied())
            .collect()
    }

    /// What raw times are multiplied by.
    fn factor(&self, calibrated: bool) -> f64 {
        if calibrated {
            self.speed
        } else {
            1.0
        }
    }

    /// Rounds every caller completed.
    fn rounds(&self) -> usize {
        self.passes.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Each fixed operation's median latency over the passes.
    fn per_op_us(&self) -> Vec<f64> {
        let passes: Vec<&Pass> = self.passes.iter().flatten().collect();
        let ops = passes
            .iter()
            .map(|p| p.latencies_us.len())
            .min()
            .unwrap_or(0);
        (0..ops)
            .map(|i| {
                let times: Vec<f64> = passes.iter().map(|p| p.latencies_us[i]).collect();
                median(&times)
            })
            .collect()
    }
}

/// Runs whole passes of one or more closed-loop callers in lockstep
/// rounds until a phase's time is up, at least one round. Before each
/// round, while every caller waits, the heap is trimmed and the host
/// calibrated.
pub struct Rounds<'a> {
    host: &'a HostClock,
    end: Instant,
    barrier: Barrier,
    /// Whether another round runs; decided by each round's leader.
    go: AtomicBool,
}

impl<'a> Rounds<'a> {
    /// Rounds of `callers` callers for `length`, calibrated on `host`.
    pub fn new(host: &'a HostClock, callers: usize, length: Duration) -> Rounds<'a> {
        Rounds {
            host,
            end: Instant::now() + length,
            barrier: Barrier::new(callers),
            go: AtomicBool::new(false),
        }
    }

    /// Each caller's loop: runs `pass` once per round. Every one of the
    /// `callers` threads must call it.
    pub fn run(&self, mut pass: impl FnMut()) {
        let mut first = true;
        loop {
            if self.barrier.wait().is_leader() {
                let go = first || Instant::now() < self.end;
                if go {
                    trim_heap();
                    self.host.calibrate();
                }
                self.go.store(go, Ordering::SeqCst);
            }
            // Every caller reads the leader's decision after this wait and
            // before the next round's first, where it may change.
            self.barrier.wait();
            if !self.go.load(Ordering::SeqCst) {
                break;
            }
            pass();
            first = false;
        }
    }
}

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Raw seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The host's speed over the set-up repetitions.
    pub setup_speed: f64,
    /// Every calibration's kernel time, in microseconds.
    pub kernel_us: Vec<f64>,
    /// The tail percentile this workload reports as `lat_tail_us`.
    pub tail_q: f64,
    /// The untraced phase (the whole run unless traced).
    pub main: Phase,
    /// The traced phase, in a traced run.
    pub traced: Option<Phase>,
    /// Priced results compared against an in-process simulation.
    pub checks: u64,
    /// Checks that disagreed.
    pub checks_failed: u64,
    /// Digest over the workload's first results in request order.
    pub digest: Digest,
    /// Per-layer metrics, in a traced run.
    pub layers: BTreeMap<String, f64>,
    /// Set-up and timed span trees, in a traced run.
    pub trees: Vec<Tree>,
}

impl Outcome {
    /// The median set-up time in seconds, calibrated or raw.
    pub fn setup_s(&self, calibrated: bool) -> f64 {
        median(&self.setup_s) * if calibrated { self.setup_speed } else { 1.0 }
    }

    /// Operations attempted, over both phases.
    pub fn attempted(&self) -> u64 {
        self.main.attempted + self.traced.as_ref().map_or(0, |p| p.attempted)
    }

    /// Failed operations plus failed checks, over both phases.
    pub fn failed(&self) -> u64 {
        self.main.failed + self.traced.as_ref().map_or(0, |p| p.failed) + self.checks_failed
    }
}

/// A digest over the first `limit` results of a run, in request order.
/// The limit keeps it independent of how many passes a time-bounded run
/// completes.
#[derive(Debug, Clone)]
pub struct Digest {
    hasher: StableHasher,
    /// Results folded in so far.
    pub count: u64,
    limit: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new(0)
    }
}

impl Digest {
    /// A digest that folds in at most `limit` results.
    pub fn new(limit: u64) -> Digest {
        Digest {
            hasher: StableHasher::new(),
            count: 0,
            limit,
        }
    }

    /// Whether another result would still be folded in.
    pub fn wants_more(&self) -> bool {
        self.count < self.limit
    }

    /// Folds in one result's canonical bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.wants_more() {
            self.hasher.write_u64(bytes.len() as u64);
            self.hasher.write_bytes(bytes);
            self.count += 1;
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hasher.finish())
    }
}

/// Whether the `index`-th priced result of stream `stream` is among the
/// seeded one-in-[`CHECK_ONE_IN`] sample.
pub fn sampled(seed: u64, stream: u64, index: u64) -> bool {
    derive_seed(derive_seed(seed ^ 0xc4ec_5a3b, stream), index).is_multiple_of(CHECK_ONE_IN)
}

/// A seeded shuffle (Fisher–Yates over SplitMix64).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = cachetime_testkit::SplitMix64::from_seed(seed);
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// What [`set_up`] returns: the last set-up's result, each repetition's
/// raw seconds, the host's speed over them, and their spans.
pub type SetUp<T> = (T, Vec<f64>, f64, Vec<SpanRec>);

/// Runs the set-up [`SETUP_REPS`] times, each under a `setup` span
/// after a calibration, and keeps the last result. Earlier results are
/// dropped before the next repetition starts, so servers they own shut
/// down first. Every set-up keeps one thread busy at a time, so the
/// calibration runs on one.
pub fn set_up<T>(col: Option<&Collector>, mut f: impl FnMut(Option<&Collector>) -> T) -> SetUp<T> {
    if let Some(c) = col {
        c.set_active(true);
    }
    let host = HostClock::new(1, Coupling::Shared);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        host.calibrate();
        let _s = span(col, "setup", None);
        let t = Instant::now();
        kept = Some(f(col));
        times.push(t.elapsed().as_secs_f64());
    }
    let spans = col.map_or_else(Vec::new, |c| {
        c.set_active(false);
        c.take()
    });
    let kept = kept.expect("at least one set-up");
    (kept, times, host.speed_since(0), spans)
}

/// Runs the timed phases: all of `opts.seconds` untraced, or half
/// untraced and half traced. `phase` receives the phase length and, in
/// the traced half, the collector; it runs whole rounds until the time
/// is up. Returns both phases and the traced half's spans.
pub fn timed_phases(
    opts: &RunOptions,
    host: &HostClock,
    col: Option<&Collector>,
    mut phase: impl FnMut(Duration, Option<&Collector>) -> Phase,
) -> (Phase, Option<(Phase, Vec<SpanRec>)>) {
    let traced_col = col.filter(|_| opts.traced);
    let share = if traced_col.is_some() { 0.5 } else { 1.0 };
    let length = Duration::from_secs_f64(opts.seconds * share);
    let mut calibrated = |col| {
        let mark = host.samples().len();
        let mut p = phase(length, col);
        p.speed = host.speed_since(mark);
        p.available = host.availability_since(mark);
        p
    };
    trim_heap();
    reset_peak_rss();
    let mut main = calibrated(None);
    main.peak_rss_mb = peak_rss_mb();
    let traced = traced_col.map(|c| {
        c.set_active(true);
        let p = calibrated(Some(c));
        c.set_active(false);
        (p, c.take())
    });
    (main, traced)
}

/// The layer metrics every workload derives the same way from its span
/// trees: program-span totals for record and replay, the benchmark's own
/// trace generation (set-up included), and the unaccounted residual.
pub fn common_layers(setup: &Tree, timed: &Tree, layers: &mut BTreeMap<String, f64>) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let per = |ns: u64, work: u64| {
        if work == 0 {
            0.0
        } else {
            ns as f64 / work as f64
        }
    };
    let (calls, ns, work) = timed.totals("core_replay");
    layers.insert("core.replay.calls".into(), calls as f64);
    layers.insert("core.replay.busy_ms".into(), ms(ns));
    layers.insert("core.replay.ns_per_op".into(), per(ns, work));
    let (calls, ns, work) = timed.totals("core_record");
    layers.insert("core.record.calls".into(), calls as f64);
    layers.insert("core.record.busy_ms".into(), ms(ns));
    layers.insert("core.record.ns_per_ref".into(), per(ns, work));
    let (_, s_ns, s_work) = setup.all_totals("trace.generate");
    let (_, t_ns, t_work) = timed.all_totals("trace.generate");
    layers.insert("trace.generate.busy_ms".into(), ms(s_ns + t_ns));
    layers.insert(
        "trace.generate.ns_per_ref".into(),
        per(s_ns + t_ns, s_work + t_work),
    );
    layers.insert("layers.residual_frac".into(), timed.residual_frac());
}

/// Generates a workload's trace under a `trace.generate` span.
pub fn generate(col: Option<&Collector>, spec: &WorkloadSpec) -> Trace {
    let mut s = span(col, "trace.generate", None);
    let trace = spec.generate();
    if let Some(s) = &mut s {
        s.set_work(trace.len() as u64);
    }
    trace
}

/// Hands freed memory back to the system, so the timed phase's peak
/// counts what the program holds, not how fragmented the heap happened to
/// be. Done before every pass: without it, ingest's peak over a run moved
/// by a fifth between runs of one seed, as its large freed buffers stayed
/// in one allocator arena or another.
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers and only releases free heap
    // pages; live allocations are untouched.
    let _ = unsafe { malloc_trim(0) };
}

/// Restarts the peak resident set count, so the next [`peak_rss_mb`]
/// covers only what ran since: the timed phase, not set-up transients.
fn reset_peak_rss() {
    // Best effort: without it the peak covers the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the named workload at full size.
///
/// # Panics
///
/// On an unknown name; callers validate it first.
pub fn run_full(name: &str, opts: &RunOptions, col: Option<&Collector>) -> Outcome {
    match name {
        "sweep" => sweep::run(&sweep::Params::full(), opts, col),
        "serve-warm" => {
            share_one_cpu();
            serve_warm::run(&serve_warm::Params::full(), opts, col)
        }
        "serve-cold" => serve_cold::run(&serve_cold::Params::full(), opts, col),
        "ingest" => {
            share_one_cpu();
            ingest::run(&ingest::Params::full(), opts, col)
        }
        other => panic!("unknown workload {other:?}"),
    }
}

/// Keeps this thread, and every thread it starts from now on, on the
/// first CPU it may run on. Best effort: on failure the run proceeds
/// unpinned.
///
/// For the two single-client workloads, client and server then hand each
/// request back and forth on one core. Across cores, each hand-off wakes
/// an idle virtual CPU, which costs tens of microseconds that rise and
/// fall with other tenants' load. Left to the scheduler, the two threads
/// moved between one core and two every few hundred milliseconds, which
/// made per-pass latency bimodal. Pinned to separate cores, serve-warm's
/// rate moved between runs three times as much as the kernel did (the
/// README has the study). With one request outstanding, the client's own
/// work, all that a second core could overlap with the server's, is about
/// a tenth of serve-warm's latency and a hundredth of ingest's. The
/// parallel workloads (sweep, serve-cold) need both cores and stay
/// unpinned.
fn share_one_cpu() {
    if let Some(&cpu) = allowed_cpus().first() {
        pin_current_thread(&[cpu]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(latencies_us: &[f64], wall_s: f64) -> Pass {
        Pass {
            work: latencies_us.len() as f64,
            wall_s,
            latencies_us: latencies_us.to_vec(),
        }
    }

    #[test]
    fn phases_report_medians_scaled_by_the_host_speed() {
        // Three passes of 20 samples; the second was twice as slow.
        let calm: Vec<f64> = (1..=20).map(f64::from).collect();
        let slow: Vec<f64> = calm.iter().map(|x| 2.0 * x).collect();
        let phase = Phase {
            passes: vec![vec![pass(&calm, 1.0), pass(&slow, 2.0), pass(&calm, 1.0)]],
            speed: 0.5,
            ..Phase::default()
        };
        assert_eq!(phase.work_per_s(false), 20.0);
        // 60 samples: the median lies between the 30th (12) and the 31st
        // (13); the p95 a twentieth of the way from 34 to 36.
        assert_eq!(phase.latency_us(0.5, false), 12.5);
        assert!((phase.latency_us(0.95, false) - 34.1).abs() < 1e-9);
        // On a host at half speed, everything ran twice as slow as it
        // would on a quiet one.
        assert_eq!(phase.work_per_s(true), 40.0);
        assert_eq!(phase.latency_us(0.5, true), 6.25);
    }

    #[test]
    fn windowed_percentiles_shrug_off_a_burst() {
        // Four rounds of 20 samples, a window each for a median (ten
        // beyond it); a burst tripled one round.
        let calm: Vec<f64> = (1..=20).map(f64::from).collect();
        let burst: Vec<f64> = calm.iter().map(|x| 3.0 * x).collect();
        let passes = vec![vec![
            pass(&calm, 1.0),
            pass(&burst, 3.0),
            pass(&calm, 1.0),
            pass(&calm, 1.0),
        ]];
        let windowed = Phase {
            passes,
            summary: Summary::Windowed,
            speed: 1.0,
            ..Phase::default()
        };
        assert_eq!(windowed.latency_us(0.5, true), 10.0);
        let pooled = Phase {
            summary: Summary::Pooled,
            ..windowed
        };
        assert_eq!(pooled.latency_us(0.5, true), 12.5);
    }

    #[test]
    fn lockstep_rounds_take_the_slowest_caller() {
        let phase = Phase {
            passes: vec![
                vec![pass(&[1.0; 4], 1.0), pass(&[1.0; 4], 1.0)],
                vec![pass(&[1.0; 4], 2.0), pass(&[1.0; 4], 4.0)],
            ],
            speed: 1.0,
            ..Phase::default()
        };
        // Rounds of 8 operations in 2 s and in 4 s: rates 4 and 2.
        assert_eq!(phase.work_per_s(true), 3.0);
    }

    #[test]
    fn fixed_operations_keep_their_own_latency() {
        // Two kinds of operation, 1 and 100 µs: a pooled median would sit
        // on the boundary; per operation it does not.
        let phase = Phase {
            passes: vec![vec![
                pass(&[1.0, 100.0, 1.0, 100.0, 1.0], 1.0),
                pass(&[1.5, 150.0, 1.5, 150.0, 1.5], 1.0),
                pass(&[1.0, 100.0, 1.0, 100.0, 1.0], 1.0),
            ]],
            summary: Summary::PerOperation,
            speed: 1.0,
            ..Phase::default()
        };
        assert_eq!(phase.latency_us(0.5, true), 1.0);
        assert_eq!(phase.latency_us(1.0, true), 100.0);
        // Between the two kinds, percentiles interpolate.
        assert!((phase.latency_us(0.7, true) - 80.2).abs() < 1e-9);
    }

    #[test]
    fn rounds_run_every_caller_in_lockstep_until_time_is_up() {
        let host = HostClock::new(1, Coupling::Shared);
        let rounds = Rounds::new(&host, 3, Duration::ZERO);
        let counts: Vec<usize> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let mut n = 0;
                        rounds.run(|| n += 1);
                        n
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert_eq!(counts, [1, 1, 1], "at least one round, then time is up");
        assert_eq!(host.samples().len(), 1, "one calibration per round");
    }
}
