//! Property test: for *any* valid machine and any small trace, a stored
//! recording repriced by `replay` is bit-identical to `Simulator::run`,
//! which streams the same ops into a one-lane bank without storing them.
//!
//! Runs on the hermetic testkit runner: failures shrink to a minimal
//! (config, trace) pair and print a replay seed; rerun a specific case
//! with `TESTKIT_SEED=<seed> cargo test -p cachetime --test two_phase_prop`.

use cachetime::{replay, BehavioralSim, LevelTwoConfig, Simulator, SystemConfig};
use cachetime_cache::{CacheConfig, VictimCacheConfig, WayPrediction, WriteAllocate, WritePolicy};
use cachetime_mem::MemoryConfig;
use cachetime_mmu::TranslationConfig;
use cachetime_testkit::{check, prop_assert_eq, shrink, SplitMix64};
use cachetime_trace::Trace;
use cachetime_types::{Assoc, BlockWords, CacheSize, CycleTime, MemRef, Pid, WordAddr};

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

/// A machine sampled across every axis that could split the two paths:
/// organization (sizes, blocks, associativity, unification, write
/// policies, translation) and timing (clock, issue width, fill policy,
/// memory buffering, mid levels).
fn try_gen_system(rng: &mut SplitMix64) -> Option<SystemConfig> {
    let mut l1b = CacheConfig::builder(CacheSize::from_kib(1 << rng.gen_range(1u32..4)).ok()?);
    l1b.block(BlockWords::new(1 << rng.gen_range(0u32..4)).ok()?)
        .assoc(Assoc::new(1 << rng.gen_range(0u32..3)).ok()?);
    if rng.gen_bool(0.3) {
        l1b.write_policy(WritePolicy::WriteThrough);
    }
    if rng.gen_bool(0.3) {
        l1b.write_allocate(WriteAllocate::Allocate);
    }
    // Organization features: a victim buffer and/or way prediction. The
    // builder rejects way prediction on direct-mapped samples; that
    // combination rejection-samples away like any other invalid draw.
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
    let l1 = l1b.build().ok()?;
    let mut b = SystemConfig::builder();
    b.cycle_time(CycleTime::from_ns(rng.gen_range(5u32..81)).ok()?)
        .way_slow_hit_cycles(rng.gen_range(0u64..4))
        .victim_swap_cycles(rng.gen_range(0u64..4))
        .l1_both(l1)
        .unified(rng.gen_bool(0.25))
        .dual_issue(rng.gen_bool(0.5))
        .early_continuation(rng.gen_bool(0.5))
        .memory(
            MemoryConfig::builder()
                .wb_depth(rng.gen_range(0u32..6))
                .build()
                .ok()?,
        );
    if rng.gen_bool(0.3) {
        b.translation(TranslationConfig::default());
    }
    if rng.gen_bool(0.5) {
        let l2 = CacheConfig::builder(CacheSize::from_kib(64).ok()?)
            .block(BlockWords::new(16).ok()?)
            .build()
            .ok()?;
        b.l2(LevelTwoConfig::new(l2));
    }
    b.build().ok()
}

fn gen_system(rng: &mut SplitMix64) -> SystemConfig {
    loop {
        // Rejection-sample the rare invalid combination.
        if let Some(config) = try_gen_system(rng) {
            return config;
        }
    }
}

/// Record-then-replay equals direct simulation, bit for bit, including a
/// random warm-start boundary.
#[test]
fn two_phase_equals_direct() {
    check(
        "two_phase_equals_direct",
        |rng| ((gen_system(rng), rng.gen_range(0usize..40)), gen_refs(rng)),
        shrink::pair_vec,
        |((config, warm_start), refs)| {
            // Shrinking the trace may leave warm_start past the end; clamp
            // as a trace loader would.
            let trace = Trace::new("prop", refs.clone(), (*warm_start).min(refs.len()));
            let direct = Simulator::new(config).run(&trace);
            let events = BehavioralSim::new(&config.organization()).record(&trace);
            let two_phase = replay(&events, config).expect("same organization");
            prop_assert_eq!(two_phase, direct);
            Ok(())
        },
    );
}
