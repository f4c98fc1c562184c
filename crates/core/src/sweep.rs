//! A parallel sweep executor for independent simulations.
//!
//! Cache-design studies are embarrassingly parallel: a speed–size grid is
//! hundreds of `(config, trace)` pairs that share nothing. This module fans
//! such tasks over a scoped worker pool (`std::thread::scope`, no external
//! dependencies) while keeping the results **bit-identical regardless of
//! job count**:
//!
//! * results are collected into a slot vector indexed by *task index*, so
//!   the output order is the input order, never completion order;
//! * nothing a task computes may depend on which worker ran it — any
//!   randomness must be seeded per task, e.g. with [`derive_seed`]
//!   applied to `(root_seed, task_index)`;
//! * worker panics are caught per task and surfaced as a [`SweepError`]
//!   naming the offending task (its `Debug` rendering), instead of
//!   aborting the whole sweep.
//!
//! ```
//! use cachetime::sweep;
//!
//! let tasks: Vec<u64> = (0..32).collect();
//! let run = sweep::run(&tasks, 4, |_idx, &n| n * n).unwrap();
//! assert_eq!(run.results[5], 25);
//! ```

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Derives the seed for task `index` from a sweep-wide root seed
/// (re-exported from `cachetime-testkit`; equals the `(index + 1)`-th raw
/// output of a SplitMix64 stream seeded at `root`).
///
/// Tasks that draw randomness must seed from their *index*, never from
/// worker identity, or results stop being reproducible across `--jobs`.
pub use cachetime_testkit::derive_seed;

/// The number of worker threads to use when the caller asks for the
/// default (`jobs == 0`): the OS-reported available parallelism, or 1 if
/// that cannot be determined.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps a user-facing `--jobs` value to a worker count: `0` means
/// [`available_jobs`], anything else is taken literally.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        available_jobs()
    } else {
        jobs
    }
}

/// A completed sweep: per-task results in task order plus timing.
#[derive(Debug)]
pub struct SweepRun<R> {
    /// One result per task, in the order the tasks were supplied.
    pub results: Vec<R>,
    /// Wall time each task spent inside the task function.
    pub task_times: Vec<Duration>,
    /// End-to-end wall time of the sweep (pool spawn to pool join).
    pub wall_time: Duration,
    /// Number of worker threads actually used.
    pub jobs: usize,
}

impl<R> SweepRun<R> {
    /// Aggregate throughput in units of `work / second` for a sweep that
    /// processed `work` items in total (e.g. memory references).
    pub fn throughput(&self, work: u64) -> f64 {
        work as f64 / self.wall_time.as_secs_f64().max(1e-12)
    }

    /// The sum of per-task wall times: the serial-equivalent cost, for
    /// computing parallel efficiency.
    pub fn busy_time(&self) -> Duration {
        self.task_times.iter().sum()
    }
}

/// One failed task inside a sweep.
#[derive(Debug)]
pub struct SweepFailure {
    /// Index of the task in the input slice.
    pub index: usize,
    /// `Debug` rendering of the offending task (config attached so the
    /// failure is actionable without re-running).
    pub task: String,
    /// The panic payload, if it was a string; `"<non-string panic>"`
    /// otherwise.
    pub message: String,
}

/// Error returned when one or more tasks panicked. All non-panicking
/// tasks still ran to completion; only their results are discarded.
#[derive(Debug)]
pub struct SweepError {
    /// Every failure observed, in task-index order.
    pub failures: Vec<SweepFailure>,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} sweep task(s) panicked:", self.failures.len())?;
        for fail in &self.failures {
            writeln!(
                f,
                "  task #{} ({}): {}",
                fail.index, fail.task, fail.message
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for SweepError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// Runs `task_fn` over every task on a pool of `jobs` workers
/// (`jobs == 0` selects [`available_jobs`]).
///
/// Workers pull task indices from a shared atomic counter, so scheduling
/// is dynamic, but results land in a slot vector by task index —
/// `results[i]` always corresponds to `tasks[i]` no matter how work was
/// interleaved. `task_fn` receives `(index, &task)`; use the index (not
/// the worker) to derive any per-task seeds.
///
/// Returns [`SweepError`] if any task panicked, with the panicking
/// configs attached.
pub fn run<T, R, F>(tasks: &[T], jobs: usize, task_fn: F) -> Result<SweepRun<R>, SweepError>
where
    T: Sync + fmt::Debug,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = resolve_jobs(jobs).min(tasks.len()).max(1);
    let mut slots: Vec<Option<(R, Duration)>> = Vec::with_capacity(tasks.len());
    slots.resize_with(tasks.len(), || None);
    let slots = Mutex::new(slots);
    let failures: Mutex<Vec<SweepFailure>> = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    // Registry export of per-task timing (the handles are resolved once
    // here so workers only touch atomics, never the registry lock).
    let obs = cachetime_obs::global();
    let mut sweep_span = cachetime_obs::global_span!("sweep_run");
    sweep_span.set_work(tasks.len() as u64);
    let task_hist = obs.histogram("cachetime_sweep_task_duration_us", &[]);
    let tasks_total = obs.counter("cachetime_sweep_tasks_total", &[]);
    let started = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(index) else { break };
                let t0 = Instant::now();
                match catch_unwind(AssertUnwindSafe(|| task_fn(index, task))) {
                    Ok(result) => {
                        let elapsed = t0.elapsed();
                        task_hist.record(elapsed.as_micros() as u64);
                        tasks_total.inc();
                        slots.lock().unwrap()[index] = Some((result, elapsed));
                    }
                    Err(payload) => failures.lock().unwrap().push(SweepFailure {
                        index,
                        task: format!("{task:?}"),
                        message: panic_message(payload),
                    }),
                }
            });
        }
    });
    let wall_time = started.elapsed();

    let mut failures = failures.into_inner().unwrap();
    if !failures.is_empty() {
        failures.sort_by_key(|f| f.index);
        return Err(SweepError { failures });
    }

    let mut results = Vec::with_capacity(tasks.len());
    let mut task_times = Vec::with_capacity(tasks.len());
    for slot in slots.into_inner().unwrap() {
        let (result, time) = slot.expect("no failures implies every slot is filled");
        results.push(result);
        task_times.push(time);
    }
    Ok(SweepRun {
        results,
        task_times,
        wall_time,
        jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_follow_task_order() {
        let tasks: Vec<usize> = (0..100).collect();
        for jobs in [1, 2, 7] {
            let run = run(&tasks, jobs, |idx, &t| {
                assert_eq!(idx, t);
                t * 3
            })
            .unwrap();
            assert_eq!(run.results, (0..100).map(|t| t * 3).collect::<Vec<_>>());
            assert_eq!(run.task_times.len(), 100);
        }
    }

    #[test]
    fn job_count_does_not_change_results() {
        let tasks: Vec<u64> = (0..64).collect();
        let seeded = |idx: usize, &t: &u64| {
            let mut rng = cachetime_testkit::SplitMix64::from_seed(derive_seed(42, idx as u64));
            (t, rng.next_u64())
        };
        let serial = run(&tasks, 1, seeded).unwrap();
        let parallel = run(&tasks, 8, seeded).unwrap();
        assert_eq!(serial.results, parallel.results);
    }

    #[test]
    fn empty_sweep_is_empty() {
        let run = run(&[] as &[u32], 4, |_, &t| t).unwrap();
        assert!(run.results.is_empty());
        assert!(run.task_times.is_empty());
    }

    #[test]
    fn panics_become_errors_with_config_attached() {
        let tasks = vec![1u32, 2, 3, 4];
        let err = run(&tasks, 2, |_, &t| {
            if t == 3 {
                panic!("bad config {t}");
            }
            t
        })
        .unwrap_err();
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].index, 2);
        assert_eq!(err.failures[0].task, "3");
        assert!(err.failures[0].message.contains("bad config 3"));
        let rendered = err.to_string();
        assert!(rendered.contains("task #2 (3)"), "{rendered}");
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        assert!(available_jobs() >= 1);
        assert_eq!(resolve_jobs(0), available_jobs());
        assert_eq!(resolve_jobs(3), 3);
        let run = run(&[10u32, 20], 0, |_, &t| t + 1).unwrap();
        assert_eq!(run.results, vec![11, 21]);
    }
}
