//! Stable-hash contract tests over realistic configurations: equal configs
//! hash equal regardless of how they were constructed, and the digests of
//! every distinct point the paper's experiments touch are collision-free.

use cachetime::{keyed, SystemConfig};
use cachetime_cache::CacheConfig;
use cachetime_trace::catalog;
use cachetime_types::{stable_hash_of, CacheSize, CycleTime};
use std::collections::HashMap;

/// The §3 speed–size grid axes (11 sizes × 16 cycle times).
const SIZES_KIB: [u64; 11] = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];
const CYCLE_TIMES_NS: [u32; 16] = [
    20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72, 76, 80,
];

fn grid_config(size_kib: u64, cycle_ns: u32) -> SystemConfig {
    let l1 = CacheConfig::builder(CacheSize::from_kib(size_kib).unwrap())
        .build()
        .unwrap();
    SystemConfig::builder()
        .l1_both(l1)
        .cycle_time(CycleTime::from_ns(cycle_ns).unwrap())
        .build()
        .unwrap()
}

#[test]
fn equal_configs_hash_equal_regardless_of_construction_order() {
    // Same logical configuration, assembled through different paths: the
    // builder with fields set in one order, the builder in another order,
    // and reassembly from a split organization/timing pair.
    let a = SystemConfig::builder()
        .cycle_time(CycleTime::from_ns(36).unwrap())
        .l1_both(
            CacheConfig::builder(CacheSize::from_kib(64).unwrap())
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let b = SystemConfig::builder()
        .l1_both(
            CacheConfig::builder(CacheSize::from_kib(64).unwrap())
                .build()
                .unwrap(),
        )
        .cycle_time(CycleTime::from_ns(36).unwrap())
        .build()
        .unwrap();
    let c = SystemConfig::from_parts(&a.organization(), &a.timing()).unwrap();
    assert_eq!(stable_hash_of(&a), stable_hash_of(&b));
    assert_eq!(stable_hash_of(&a), stable_hash_of(&c));
    assert_eq!(
        stable_hash_of(&a.organization()),
        stable_hash_of(&c.organization())
    );
}

#[test]
fn whole_config_hash_distinguishes_every_grid_point() {
    // All 176 (size, cycle-time) points of the paper grid must digest to
    // distinct values — a collision would silently merge two sweep cells.
    let mut seen: HashMap<u64, (u64, u32)> = HashMap::new();
    for &size in &SIZES_KIB {
        for &ct in &CYCLE_TIMES_NS {
            let h = stable_hash_of(&grid_config(size, ct));
            if let Some(prev) = seen.insert(h, (size, ct)) {
                panic!("hash collision: {prev:?} vs ({size}, {ct})");
            }
        }
    }
    assert_eq!(seen.len(), SIZES_KIB.len() * CYCLE_TIMES_NS.len());
}

#[test]
fn trace_keys_distinguish_catalog_by_organization() {
    // The content-addressed store's key space: 8 catalog traces × 11
    // organizations (grid sizes). Timing must NOT move the key; every
    // (organization, workload) pair must get its own.
    let mut seen: HashMap<u64, (u64, String)> = HashMap::new();
    for &size in &SIZES_KIB {
        let org = grid_config(size, 40).organization();
        for spec in catalog::all(0.01) {
            let k = keyed::trace_key(&org, &spec);
            if let Some(prev) = seen.insert(k, (size, spec.name.clone())) {
                panic!("key collision: {prev:?} vs ({size}, {})", spec.name);
            }
            // The key is a function of the organization half only: any
            // cycle time yields the same key.
            for &ct in &CYCLE_TIMES_NS {
                assert_eq!(
                    k,
                    keyed::trace_key(&grid_config(size, ct).organization(), &spec)
                );
            }
        }
    }
    assert_eq!(seen.len(), SIZES_KIB.len() * 8);
}

#[test]
fn hashes_are_stable_across_processes_in_spirit() {
    // stable_hash_of must be a pure function of field values — repeated
    // digests of freshly-built equal values agree.
    let spec = catalog::rd2n7(0.01);
    let again = catalog::rd2n7(0.01);
    assert_eq!(stable_hash_of(&spec), stable_hash_of(&again));
    let config = SystemConfig::paper_default().unwrap();
    let again = SystemConfig::paper_default().unwrap();
    assert_eq!(stable_hash_of(&config), stable_hash_of(&again));
}
