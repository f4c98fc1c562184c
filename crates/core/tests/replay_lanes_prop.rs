//! Property test: lanes of one `replay_many` call that take different
//! pricing paths never disturb each other.
//!
//! `replay_many` prices a lone, walk-free, clean read miss for every lane
//! that is memory-only, waits for the whole block and has an empty write
//! buffer in one loop over its lane bank; every other event, and every
//! other lane, runs through the general path. Each grid here mixes both
//! kinds of lane in one call:
//!
//! * memory-only lanes with write-buffer depths 0, 1 and 4 behind a
//!   write-back (or write-through) L1, so dirty victims and buffered
//!   writes move lanes off the kernel and back while others stay on it;
//! * an L2 lane beside the memory-only ones;
//! * all three fill policies;
//! * a `WordsPerCycle(3)` memory, the transfer rate that divides;
//! * split L1s with different fetch sizes, so the fill size changes
//!   between misses;
//! * a warm boundary mid-trace.
//!
//! Every result is checked against `Simulator::run`, which streams the
//! same ops into a one-lane bank: what differs between the two is only
//! the batching (lanes, timing classes, the stored trace). Couplet
//! pricing itself is checked by the independent oracle in
//! `tests/reference_engine.rs`.
//! Runs on the hermetic testkit runner; rerun a failing case with
//! `TESTKIT_SEED=<seed> cargo test -p cachetime --test replay_lanes_prop`.

use cachetime::{
    replay_many, BehavioralSim, FillPolicy, LevelTwoConfig, Simulator, SystemConfig, TimingConfig,
};
use cachetime_cache::{CacheConfig, WriteAllocate, WritePolicy};
use cachetime_mem::{MemoryConfig, TransferRate};
use cachetime_mmu::TranslationConfig;
use cachetime_testkit::{check, prop_assert, prop_assert_eq, shrink, SplitMix64};
use cachetime_trace::Trace;
use cachetime_types::{BlockWords, CacheSize, CycleTime, MemRef, Nanos, Pid, WordAddr};

/// References with some locality: a walk that mostly stays near the last
/// address and now and then jumps, so hits, clean misses and dirty
/// victims all occur.
fn gen_refs(rng: &mut SplitMix64) -> Vec<MemRef> {
    let n = rng.gen_range(1usize..400);
    let mut at = rng.gen_range(0u64..4096);
    (0..n)
        .map(|_| {
            at = if rng.gen_bool(0.2) {
                rng.gen_range(0u64..4096)
            } else {
                (at + rng.gen_range(0u64..6)) % 4096
            };
            let a = WordAddr::new(at);
            let pid = Pid(rng.gen_range(0u16..2));
            match rng.gen_range(0u8..3) {
                0 => MemRef::ifetch(a, pid),
                1 => MemRef::load(a, pid),
                _ => MemRef::store(a, pid),
            }
        })
        .collect()
}

/// A first-level cache with its own block and (sub-block) fetch size.
fn try_gen_l1(rng: &mut SplitMix64) -> Option<CacheConfig> {
    let block = 1u32 << rng.gen_range(0u32..4);
    let fetch = block >> rng.gen_range(0u32..2);
    let mut b = CacheConfig::builder(CacheSize::from_kib(1 << rng.gen_range(0u32..3)).ok()?);
    b.block(BlockWords::new(block).ok()?)
        .fetch(BlockWords::new(fetch.max(1)).ok()?);
    if rng.gen_bool(0.25) {
        b.write_policy(WritePolicy::WriteThrough);
    }
    if rng.gen_bool(0.3) {
        b.write_allocate(WriteAllocate::Allocate);
    }
    b.build().ok()
}

/// A random organization, carried by a paper-default timing half. Split
/// L1s differ in their fetch sizes more often than not.
fn gen_org(rng: &mut SplitMix64) -> SystemConfig {
    loop {
        let (Some(l1i), Some(l1d)) = (try_gen_l1(rng), try_gen_l1(rng)) else {
            continue;
        };
        let mut b = SystemConfig::builder();
        if rng.gen_bool(0.2) {
            b.l1_both(l1d).unified(true);
        } else {
            b.l1i(l1i).l1d(l1d);
        }
        if rng.gen_bool(0.2) {
            b.translation(TranslationConfig::default());
        }
        if let Ok(config) = b.build() {
            return config;
        }
    }
}

/// A memory with random delays, `rate`, and a `depth`-deep write buffer.
fn gen_memory(rng: &mut SplitMix64, rate: TransferRate, depth: u32) -> MemoryConfig {
    let latency = MemoryConfig::uniform_latency(Nanos(rng.gen_range(1u64..8) * 60), rate)
        .expect("valid memory");
    MemoryConfig::builder()
        .read_op(latency.read_op())
        .write_op(latency.write_op())
        .recovery(latency.recovery())
        .transfer(rate)
        .addr_cycles(latency.addr_cycles())
        .wb_depth(depth)
        .wb_coalesce(rng.gen_bool(0.5))
        .wb_drain_delay([0, 8, 32][rng.gen_range(0usize..3)])
        .read_priority(rng.gen_bool(0.8))
        .build()
        .expect("valid memory")
}

fn gen_rate(rng: &mut SplitMix64) -> TransferRate {
    match rng.gen_range(0u8..4) {
        0 => TransferRate::WordsPerCycle(1),
        1 => TransferRate::WordsPerCycle(2),
        2 => TransferRate::WordsPerCycle(3),
        _ => TransferRate::CyclesPerWord(rng.gen_range(1u32..4)),
    }
}

fn gen_l2() -> LevelTwoConfig {
    let cache = CacheConfig::builder(CacheSize::from_kib(16).unwrap())
        .block(BlockWords::new(16).unwrap())
        .build()
        .unwrap();
    LevelTwoConfig::new(cache)
}

/// A memory-only timing half on the paper's 4 ns cycle-time grid.
fn gen_half(
    rng: &mut SplitMix64,
    rate: TransferRate,
    depth: u32,
    fill_policy: FillPolicy,
) -> TimingConfig {
    let mut t = SystemConfig::paper_default().unwrap().timing();
    t.cycle_time = CycleTime::from_ns(rng.gen_range(5u32..21) * 4).unwrap();
    t.memory = gen_memory(rng, rate, depth);
    t.read_hit_cycles = rng.gen_range(1u64..3);
    t.write_hit_cycles = rng.gen_range(1u64..3);
    t.dual_issue = rng.gen_bool(0.7);
    t.fill_policy = fill_policy;
    t.l2 = None;
    t
}

/// One lane of every kind the bank tells apart, plus 0–4 random ones, in
/// random order.
fn gen_grid(rng: &mut SplitMix64) -> Vec<TimingConfig> {
    let wait = FillPolicy::WaitWholeBlock;
    let mut halves = Vec::new();
    for depth in [0, 1, 4] {
        let rate = gen_rate(rng);
        halves.push(gen_half(rng, rate, depth, wait));
    }
    let depth = rng.gen_range(0u32..5);
    halves.push(gen_half(rng, TransferRate::WordsPerCycle(3), depth, wait));
    let mut with_l2 = gen_half(rng, TransferRate::WordsPerCycle(1), 4, wait);
    with_l2.l2 = Some(gen_l2());
    halves.push(with_l2);
    for policy in [FillPolicy::EarlyContinuation, FillPolicy::LoadForward] {
        let (rate, depth) = (gen_rate(rng), rng.gen_range(0u32..5));
        halves.push(gen_half(rng, rate, depth, policy));
    }
    for _ in 0..rng.gen_range(0usize..5) {
        let (rate, depth) = (gen_rate(rng), rng.gen_range(0u32..5));
        halves.push(gen_half(rng, rate, depth, wait));
    }
    for i in (1..halves.len()).rev() {
        halves.swap(i, rng.gen_range(0usize..i + 1));
    }
    halves
}

/// The process-wide count of (event, lane) pairs priced by `path`.
fn lane_ops(path: &str) -> u64 {
    cachetime_obs::global()
        .counter("cachetime_replay_lane_ops_total", &[("path", path)])
        .get()
}

/// One batched replay over a lane-mixing grid equals a direct run
/// per configuration.
#[test]
fn mixed_lanes_equal_direct_per_config() {
    let (kernel_before, general_before) = (lane_ops("kernel"), lane_ops("general"));
    check(
        "mixed_lanes_equal_direct_per_config",
        |rng| {
            let refs = gen_refs(rng);
            let warm_start = rng.gen_range(0usize..refs.len() + 1);
            ((gen_org(rng), gen_grid(rng), warm_start), refs)
        },
        shrink::pair_vec,
        |((org_carrier, halves, warm_start), refs)| {
            let org = org_carrier.organization();
            let trace = Trace::new("lanes", refs.clone(), (*warm_start).min(refs.len()));
            let configs: Vec<SystemConfig> = halves
                .iter()
                .map(|t| SystemConfig::from_parts(&org, t).expect("L2 blocks cover L1 blocks"))
                .collect();
            let events = BehavioralSim::new(&org).record(&trace);
            let batched = replay_many(&events, &configs).expect("same organization");
            prop_assert_eq!(batched.len(), configs.len());
            for (i, (config, result)) in configs.iter().zip(&batched).enumerate() {
                let direct = Simulator::new(config).run(&trace);
                prop_assert!(
                    result == &direct,
                    "lane {i} ({:?}, {:?}) differs:\nreplay {result:?}\ndirect {direct:?}",
                    config.timing().fill_policy,
                    config.timing().memory,
                );
            }
            Ok(())
        },
    );
    // Both paths really ran: the grids are built to need both.
    assert!(lane_ops("kernel") > kernel_before);
    assert!(lane_ops("general") > general_before);
}
