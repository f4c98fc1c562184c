//! The parallel sweep executor against the real simulator: results must
//! be bit-identical regardless of worker count, and failures must name
//! the offending configuration.

use cachetime::{simulate, sweep, SimResult, SystemConfig};
use cachetime_cache::CacheConfig;
use cachetime_trace::catalog;
use cachetime_types::{CacheSize, CycleTime};

/// A Figure 3-1-style grid point: total cache size × cycle time.
#[derive(Debug, Clone, Copy)]
struct GridPoint {
    size_kib: u64,
    ct_ns: u32,
}

fn grid() -> Vec<GridPoint> {
    let mut points = Vec::new();
    for size_kib in [1, 2, 4, 8] {
        for ct_ns in [30, 40, 50] {
            points.push(GridPoint { size_kib, ct_ns });
        }
    }
    points
}

fn simulate_point(p: &GridPoint, trace: &cachetime_trace::Trace) -> SimResult {
    let l1 = CacheConfig::builder(CacheSize::from_kib(p.size_kib).expect("pow2"))
        .build()
        .expect("valid cache");
    let config = SystemConfig::builder()
        .cycle_time(CycleTime::from_ns(p.ct_ns).expect("nonzero"))
        .l1_both(l1)
        .build()
        .expect("valid system");
    simulate(&config, trace)
}

/// The executor's core contract: any worker count produces the same
/// results in the same order as a serial run.
#[test]
fn job_count_never_changes_grid_results() {
    let trace = catalog::mu3(0.01).generate();
    let points = grid();
    let serial =
        sweep::run(&points, 1, |_, p| simulate_point(p, &trace)).expect("serial sweep succeeds");
    for jobs in [2, 3, 8, 0] {
        let parallel = sweep::run(&points, jobs, |_, p| simulate_point(p, &trace))
            .expect("parallel sweep succeeds");
        assert_eq!(
            serial.results, parallel.results,
            "results diverged at jobs={jobs}"
        );
    }
    // Per-task timing is recorded for every task.
    assert_eq!(serial.task_times.len(), points.len());
}

#[test]
fn empty_sweep_is_empty() {
    let tasks: Vec<GridPoint> = Vec::new();
    let run = sweep::run(&tasks, 4, |_, p| {
        let trace = catalog::mu3(0.01).generate();
        simulate_point(p, &trace)
    })
    .expect("empty sweep succeeds");
    assert!(run.results.is_empty());
    assert!(run.task_times.is_empty());
}

/// A panicking task surfaces as an error carrying the offending
/// configuration's Debug rendering, not a poisoned hang or a torn
/// result vector.
#[test]
fn panicking_task_names_its_config() {
    let trace = catalog::mu3(0.01).generate();
    let points = grid();
    let err = sweep::run(&points, 4, |i, p| {
        if p.size_kib == 4 && p.ct_ns == 40 {
            panic!("injected failure at task {i}");
        }
        simulate_point(p, &trace)
    })
    .expect_err("sweep must report the panic");
    assert_eq!(err.failures.len(), 1);
    let failure = &err.failures[0];
    assert!(
        failure.task.contains("size_kib: 4") && failure.task.contains("ct_ns: 40"),
        "failure must name the config, got: {}",
        failure.task
    );
    assert!(
        failure.message.contains("injected failure"),
        "panic payload must survive, got: {}",
        failure.message
    );
    let rendered = err.to_string();
    assert!(
        rendered.contains("size_kib: 4"),
        "Display must include the config: {rendered}"
    );
}
