//! Property test: grouping timing points into cycle-level classes never
//! changes a result.
//!
//! `replay_many` runs one replay per distinct `CycleTiming` and hands its
//! result to every configuration in the class. Here each batch is checked
//! against the direct engine (`Simulator::run`, not `replay`) one
//! configuration at a time. The generator makes collisions common:
//! repeated halves, cycle-time pairs that quantize alike (76 and 80 ns at
//! a 420 ns uniform memory), and halves that differ only in the L2, the
//! fill policy, dual issue or the write buffer.
//!
//! Runs on the hermetic testkit runner; rerun a failing case with
//! `TESTKIT_SEED=<seed> cargo test -p cachetime --test replay_classes_prop`.

use cachetime::{
    replay_many, BehavioralSim, FillPolicy, LevelTwoConfig, Simulator, SystemConfig, TimingConfig,
};
use cachetime_cache::{CacheConfig, VictimCacheConfig, WayPrediction, WriteAllocate, WritePolicy};
use cachetime_mem::{MemoryConfig, TransferRate};
use cachetime_mmu::TranslationConfig;
use cachetime_testkit::{check, prop_assert, prop_assert_eq, shrink, SplitMix64};
use cachetime_trace::Trace;
use cachetime_types::{Assoc, BlockWords, CacheSize, CycleTime, MemRef, Nanos, Pid, WordAddr};

fn gen_ref(rng: &mut SplitMix64) -> MemRef {
    let a = WordAddr::new(rng.gen_range(0u64..2048));
    let pid = Pid(rng.gen_range(0u16..3));
    match rng.gen_range(0u8..3) {
        0 => MemRef::ifetch(a, pid),
        1 => MemRef::load(a, pid),
        _ => MemRef::store(a, pid),
    }
}

fn gen_refs(rng: &mut SplitMix64) -> Vec<MemRef> {
    let n = rng.gen_range(1usize..300);
    (0..n).map(|_| gen_ref(rng)).collect()
}

/// A random organization, carried by a paper-default timing half.
fn try_gen_org(rng: &mut SplitMix64) -> Option<SystemConfig> {
    let mut l1b = CacheConfig::builder(CacheSize::from_kib(1 << rng.gen_range(1u32..4)).ok()?);
    l1b.block(BlockWords::new(1 << rng.gen_range(0u32..4)).ok()?)
        .assoc(Assoc::new(1 << rng.gen_range(0u32..3)).ok()?);
    if rng.gen_bool(0.3) {
        l1b.write_policy(WritePolicy::WriteThrough);
    }
    if rng.gen_bool(0.3) {
        l1b.write_allocate(WriteAllocate::Allocate);
    }
    if rng.gen_bool(0.3) {
        l1b.victim_cache(VictimCacheConfig::new(1 << rng.gen_range(0u32..5)).ok()?);
    }
    if rng.gen_bool(0.3) {
        l1b.way_prediction(if rng.gen_bool(0.5) {
            WayPrediction::Mru
        } else {
            WayPrediction::MultiColumn
        });
    }
    let mut b = SystemConfig::builder();
    b.l1_both(l1b.build().ok()?).unified(rng.gen_bool(0.25));
    if rng.gen_bool(0.3) {
        b.translation(TranslationConfig::default());
    }
    b.build().ok()
}

fn gen_org(rng: &mut SplitMix64) -> SystemConfig {
    loop {
        if let Some(config) = try_gen_org(rng) {
            return config;
        }
    }
}

fn gen_rate(rng: &mut SplitMix64) -> TransferRate {
    match rng.gen_range(0u8..4) {
        0 => TransferRate::WordsPerCycle(1),
        1 => TransferRate::WordsPerCycle(4),
        2 => TransferRate::WordsPerCycle(3),
        _ => TransferRate::CyclesPerWord(rng.gen_range(1u32..5)),
    }
}

/// `memory` with a different write buffer and the same delays.
fn with_write_buffer(memory: &MemoryConfig, rng: &mut SplitMix64) -> MemoryConfig {
    MemoryConfig::builder()
        .read_op(memory.read_op())
        .write_op(memory.write_op())
        .recovery(memory.recovery())
        .transfer(memory.transfer())
        .addr_cycles(memory.addr_cycles())
        .wb_depth(rng.gen_range(0u32..6))
        .wb_coalesce(rng.gen_bool(0.5))
        .wb_drain_delay([0, 8, 32][rng.gen_range(0usize..3)])
        .read_priority(rng.gen_bool(0.8))
        .build()
        .expect("valid memory")
}

fn gen_memory(rng: &mut SplitMix64) -> MemoryConfig {
    let memory = if rng.gen_bool(0.5) {
        MemoryConfig::paper_default()
    } else {
        let ns = rng.gen_range(1u64..8) * 60;
        MemoryConfig::uniform_latency(Nanos(ns), gen_rate(rng)).expect("valid memory")
    };
    if rng.gen_bool(0.3) {
        with_write_buffer(&memory, rng)
    } else {
        memory
    }
}

fn gen_l2() -> LevelTwoConfig {
    let cache = CacheConfig::builder(CacheSize::from_kib(64).unwrap())
        .block(BlockWords::new(16).unwrap())
        .build()
        .unwrap();
    LevelTwoConfig::new(cache)
}

fn gen_fill_policy(rng: &mut SplitMix64) -> FillPolicy {
    match rng.gen_range(0u8..3) {
        0 => FillPolicy::WaitWholeBlock,
        1 => FillPolicy::EarlyContinuation,
        _ => FillPolicy::LoadForward,
    }
}

/// A fresh timing half on the paper's 4 ns cycle-time grid.
fn gen_half(rng: &mut SplitMix64) -> TimingConfig {
    let mut t = SystemConfig::paper_default().unwrap().timing();
    t.cycle_time = CycleTime::from_ns(rng.gen_range(5u32..21) * 4).unwrap();
    t.memory = gen_memory(rng);
    t.read_hit_cycles = rng.gen_range(1u64..3);
    t.write_hit_cycles = rng.gen_range(1u64..3);
    t.way_slow_hit_cycles = rng.gen_range(0u64..3);
    t.victim_swap_cycles = rng.gen_range(0u64..3);
    t.dual_issue = rng.gen_bool(0.7);
    t.fill_policy = gen_fill_policy(rng);
    t.l2 = rng.gen_bool(0.3).then(gen_l2);
    t
}

/// 2–24 timing halves, mostly near-copies of earlier ones.
fn gen_halves(rng: &mut SplitMix64) -> Vec<TimingConfig> {
    let n = rng.gen_range(2usize..25);
    let mut halves = vec![gen_half(rng)];
    while halves.len() < n {
        let mut t = halves[rng.gen_range(0usize..halves.len())];
        match rng.gen_range(0u8..8) {
            0 => {}
            1 => {
                // 420 ns is 6 cycles at both 76 and 80 ns.
                t.memory = MemoryConfig::uniform_latency(Nanos(420), t.memory.transfer())
                    .expect("valid memory");
                t.cycle_time = CycleTime::from_ns(76).unwrap();
                halves.push(t);
                t.cycle_time = CycleTime::from_ns(80).unwrap();
            }
            2 => {
                let ns = t.cycle_time.ns();
                t.cycle_time = CycleTime::from_ns(if ns > 20 { ns - 4 } else { ns + 4 }).unwrap();
            }
            3 => t.l2 = if t.l2.is_some() { None } else { Some(gen_l2()) },
            4 => t.fill_policy = gen_fill_policy(rng),
            5 => t.dual_issue = !t.dual_issue,
            6 => t.memory = with_write_buffer(&t.memory, rng),
            _ => t = gen_half(rng),
        }
        halves.push(t);
    }
    halves.truncate(n);
    halves
}

/// One batched replay equals the direct engine per configuration, and
/// members of one class differ only in their cycle time.
#[test]
fn replay_many_equals_direct_per_config() {
    check(
        "replay_many_equals_direct_per_config",
        |rng| {
            (
                (gen_org(rng), gen_halves(rng), rng.gen_range(0usize..40)),
                gen_refs(rng),
            )
        },
        shrink::pair_vec,
        |((org_carrier, halves, warm_start), refs)| {
            let org = org_carrier.organization();
            let trace = Trace::new("prop", refs.clone(), (*warm_start).min(refs.len()));
            let configs: Vec<SystemConfig> = halves
                .iter()
                .map(|t| SystemConfig::from_parts(&org, t).expect("L2 blocks cover L1 blocks"))
                .collect();
            let events = BehavioralSim::new(&org).record(&trace);
            let batched = replay_many(&events, &configs).expect("same organization");
            prop_assert_eq!(batched.len(), configs.len());
            for (config, result) in configs.iter().zip(&batched) {
                prop_assert_eq!(result, &Simulator::new(config).run(&trace));
                prop_assert_eq!(result.cycle_time, config.cycle_time());
            }
            for (i, a) in configs.iter().enumerate() {
                for (j, b) in configs.iter().enumerate().skip(i + 1) {
                    if a.cycle_timing() == b.cycle_timing() {
                        let mut same = batched[i];
                        same.cycle_time = batched[j].cycle_time;
                        prop_assert!(same == batched[j], "class members {i} and {j} differ");
                    }
                }
            }
            Ok(())
        },
    );
}
