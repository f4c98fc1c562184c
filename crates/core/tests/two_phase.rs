//! Equivalence cross-check: a stored recording repriced by `replay` must
//! produce `SimResult`s bit-identical to `simulate`, which streams the
//! same behavioral ops into a one-lane bank without storing them, on
//! every cell of down-scaled paper grids and on a battery of targeted
//! machine variants. This checks the storage and batching around the one
//! pricing engine; the engine's arithmetic is checked by the independent
//! oracle in `tests/reference_engine.rs`.

use cachetime::{replay, simulate, BehavioralSim, FillPolicy, LevelTwoConfig, SystemConfig};
use cachetime_cache::{CacheConfig, VictimCacheConfig, WayPrediction, WriteAllocate, WritePolicy};
use cachetime_mem::{MemoryConfig, TransferRate};
use cachetime_mmu::TranslationConfig;
use cachetime_trace::{catalog, Trace};
use cachetime_types::{Assoc, BlockWords, CacheSize, CycleTime, Nanos};

fn traces() -> Vec<Trace> {
    vec![
        catalog::savec(0.02).generate(),
        catalog::mu3(0.02).generate(),
    ]
}

/// The §3 speed–size shape on every catalog trace, across the paper's
/// size axis from its smallest to its largest cache: every (size, cycle
/// time, trace) cell must reprice bit-identically. One behavioral pass per
/// (size, trace) covers the whole cycle-time axis.
#[test]
fn speed_size_grid_cells_replay_bit_identically() {
    let traces: Vec<Trace> = catalog::all(0.02).iter().map(|s| s.generate()).collect();
    for size_kib in [2u64, 8, 64, 2048] {
        let l1 = CacheConfig::builder(CacheSize::from_kib(size_kib).unwrap())
            .build()
            .unwrap();
        let org = SystemConfig::builder()
            .l1_both(l1)
            .build()
            .unwrap()
            .organization();
        for trace in &traces {
            let events = BehavioralSim::new(&org).record(trace);
            for ct_ns in [20u32, 36, 56, 80] {
                let config = SystemConfig::builder()
                    .cycle_time(CycleTime::from_ns(ct_ns).unwrap())
                    .l1_both(l1)
                    .build()
                    .unwrap();
                let direct = simulate(&config, trace);
                let repriced = replay(&events, &config).unwrap();
                assert_eq!(
                    repriced,
                    direct,
                    "{size_kib}KB @ {ct_ns}ns on {}",
                    trace.name()
                );
            }
        }
    }
}

/// The §5 block-size × memory-latency shape in miniature: the memory
/// timing is replay-side, so one behavioral pass per (block size, trace)
/// covers the whole latency axis.
#[test]
fn block_latency_grid_cells_replay_bit_identically() {
    let traces = traces();
    for block_words in [2u32, 8] {
        let l1 = CacheConfig::builder(CacheSize::from_kib(4).unwrap())
            .block(BlockWords::new(block_words).unwrap())
            .build()
            .unwrap();
        let org = SystemConfig::builder()
            .l1_both(l1)
            .build()
            .unwrap()
            .organization();
        for trace in &traces {
            let events = BehavioralSim::new(&org).record(trace);
            for latency_ns in [100u64, 260, 420] {
                let memory = MemoryConfig::uniform_latency(
                    Nanos(latency_ns),
                    TransferRate::WordsPerCycle(1),
                )
                .unwrap();
                let config = SystemConfig::builder()
                    .l1_both(l1)
                    .memory(memory)
                    .build()
                    .unwrap();
                let direct = simulate(&config, trace);
                let repriced = replay(&events, &config).unwrap();
                assert_eq!(
                    repriced,
                    direct,
                    "{block_words}-word blocks @ {latency_ns}ns on {}",
                    trace.name()
                );
            }
        }
    }
}

/// Machine variants that exercise every event kind and replay path:
/// multi-level hierarchies, translation, write policies, fill policies,
/// issue width, unbuffered memory.
#[test]
fn targeted_variants_replay_bit_identically() {
    let small = CacheConfig::builder(CacheSize::from_kib(2).unwrap())
        .build()
        .unwrap();
    let l2cache = CacheConfig::builder(CacheSize::from_kib(64).unwrap())
        .block(BlockWords::new(8).unwrap())
        .build()
        .unwrap();
    let l3cache = CacheConfig::builder(CacheSize::from_kib(512).unwrap())
        .block(BlockWords::new(16).unwrap())
        .build()
        .unwrap();
    let write_through_allocate = CacheConfig::builder(CacheSize::from_kib(2).unwrap())
        .write_policy(WritePolicy::WriteThrough)
        .write_allocate(WriteAllocate::Allocate)
        .build()
        .unwrap();

    let mut variants: Vec<(&str, SystemConfig)> = Vec::new();
    variants.push((
        "l2+l3 stack",
        SystemConfig::builder()
            .l1_both(small)
            .l2(LevelTwoConfig::new(l2cache))
            .l3(LevelTwoConfig::new(l3cache))
            .build()
            .unwrap(),
    ));
    variants.push((
        "physically addressed (mmu)",
        SystemConfig::builder()
            .l1_both(small)
            .translation(TranslationConfig::default())
            .build()
            .unwrap(),
    ));
    variants.push((
        "write-through + write-allocate",
        SystemConfig::builder()
            .l1_both(write_through_allocate)
            .build()
            .unwrap(),
    ));
    for policy in [
        FillPolicy::WaitWholeBlock,
        FillPolicy::EarlyContinuation,
        FillPolicy::LoadForward,
    ] {
        variants.push((
            "fill policy",
            SystemConfig::builder()
                .l1_both(small)
                .fill_policy(policy)
                .build()
                .unwrap(),
        ));
    }
    variants.push((
        "unified single-issue",
        SystemConfig::builder()
            .l1_both(small)
            .unified(true)
            .dual_issue(false)
            .build()
            .unwrap(),
    ));
    let victim_dm = CacheConfig::builder(CacheSize::from_kib(2).unwrap())
        .victim_cache(VictimCacheConfig::new(8).unwrap())
        .build()
        .unwrap();
    variants.push((
        "direct-mapped + victim cache",
        SystemConfig::builder()
            .l1_both(victim_dm)
            .victim_swap_cycles(2)
            .build()
            .unwrap(),
    ));
    let mru_2way = CacheConfig::builder(CacheSize::from_kib(2).unwrap())
        .assoc(Assoc::new(2).unwrap())
        .way_prediction(WayPrediction::Mru)
        .build()
        .unwrap();
    variants.push((
        "2-way + mru way prediction",
        SystemConfig::builder()
            .l1_both(mru_2way)
            .way_slow_hit_cycles(2)
            .build()
            .unwrap(),
    ));
    let everything_4way = CacheConfig::builder(CacheSize::from_kib(2).unwrap())
        .assoc(Assoc::new(4).unwrap())
        .way_prediction(WayPrediction::MultiColumn)
        .victim_cache(VictimCacheConfig::new(4).unwrap())
        .build()
        .unwrap();
    variants.push((
        "4-way + multi-column prediction + victim cache",
        SystemConfig::builder()
            .l1_both(everything_4way)
            .way_slow_hit_cycles(1)
            .victim_swap_cycles(3)
            .l2(LevelTwoConfig::new(l2cache))
            .build()
            .unwrap(),
    ));
    variants.push((
        "unbuffered memory (wb_depth 0)",
        SystemConfig::builder()
            .l1_both(small)
            .memory(MemoryConfig::builder().wb_depth(0).build().unwrap())
            .build()
            .unwrap(),
    ));

    for trace in &traces() {
        for (what, config) in &variants {
            let events = BehavioralSim::new(&config.organization()).record(trace);
            assert_eq!(
                replay(&events, config).unwrap(),
                simulate(config, trace),
                "{what} on {}",
                trace.name()
            );
        }
    }
}

/// The encoding earns its keep: on a hit-heavy catalog trace, the event
/// stream must be far shorter than the couplet stream.
#[test]
fn event_traces_are_compact() {
    let config = SystemConfig::paper_default().unwrap();
    let trace = catalog::savec(0.02).generate();
    let events = BehavioralSim::new(&config.organization()).record(&trace);
    assert!(
        events.ops_per_couplet() < 0.5,
        "ops/couplet = {:.3}",
        events.ops_per_couplet()
    );
}
