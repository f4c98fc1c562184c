//! Oracle tests: the optimized `Cache` against a deliberately naive
//! reference model.
//!
//! The reference keeps each set as a plain `Vec` of resident blocks with
//! explicit per-word state and recency lists — slow and obvious. Any
//! divergence in hit/miss outcomes, evictions, or dirty-word accounting
//! flags a bug in the real implementation's bit-twiddling.

use cachetime_cache::{Cache, CacheConfig, ReadOutcome, ReplacementPolicy, WriteOutcome};
use cachetime_testkit::{check, prop_assert, prop_assert_eq, SplitMix64};
use cachetime_types::{Assoc, BlockWords, CacheSize, Pid, WordAddr};
use std::collections::HashMap;

/// One resident block in the reference model.
#[derive(Debug, Clone)]
struct RefBlock {
    tag: u64,
    pid: u16,
    dirty: Vec<bool>,
    last_use: u64,
}

/// The naive model: LRU only (exact), write-back, no-allocate,
/// whole-block fetch, virtual tags.
struct RefCache {
    sets: u64,
    ways: usize,
    block_words: u64,
    contents: HashMap<u64, Vec<RefBlock>>,
    clock: u64,
}

#[derive(Debug, PartialEq, Eq)]
enum RefOutcome {
    Hit,
    Miss { victim_dirty_words: Option<u32> },
    WriteMiss,
}

impl RefCache {
    fn new(sets: u64, ways: usize, block_words: u64) -> Self {
        RefCache {
            sets,
            ways,
            block_words,
            contents: HashMap::new(),
            clock: 0,
        }
    }

    fn locate(&mut self, addr: u64, pid: u16) -> (u64, u64) {
        let block = addr / self.block_words;
        let set = block % self.sets;
        let tag = block / self.sets;
        let _ = pid;
        (set, tag)
    }

    fn read(&mut self, addr: u64, pid: u16) -> RefOutcome {
        self.clock += 1;
        let clock = self.clock;
        let (set, tag) = self.locate(addr, pid);
        let ways = self.ways;
        let blocks = self.contents.entry(set).or_default();
        if let Some(b) = blocks.iter_mut().find(|b| b.tag == tag && b.pid == pid) {
            b.last_use = clock;
            return RefOutcome::Hit;
        }
        // Fill; evict exact-LRU if full.
        let victim_dirty_words = if blocks.len() == ways {
            let (i, _) = blocks
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.last_use)
                .expect("nonempty");
            let v = blocks.remove(i);
            let dirty = v.dirty.iter().filter(|&&d| d).count() as u32;
            (dirty > 0).then_some(dirty)
        } else {
            None
        };
        blocks.push(RefBlock {
            tag,
            pid,
            dirty: vec![false; self.block_words as usize],
            last_use: clock,
        });
        RefOutcome::Miss { victim_dirty_words }
    }

    fn write(&mut self, addr: u64, pid: u16) -> RefOutcome {
        self.clock += 1;
        let clock = self.clock;
        let (set, tag) = self.locate(addr, pid);
        let offset = (addr % self.block_words) as usize;
        let blocks = self.contents.entry(set).or_default();
        if let Some(b) = blocks.iter_mut().find(|b| b.tag == tag && b.pid == pid) {
            b.last_use = clock;
            b.dirty[offset] = true;
            return RefOutcome::Hit;
        }
        RefOutcome::WriteMiss
    }
}

fn lru_config(size_bytes: u64, block_words: u32, ways: u32) -> Option<CacheConfig> {
    CacheConfig::builder(CacheSize::from_bytes(size_bytes).ok()?)
        .block(BlockWords::new(block_words).ok()?)
        .assoc(Assoc::new(ways).ok()?)
        .replacement(ReplacementPolicy::Lru)
        .build()
        .ok()
}

/// One random oracle scenario: geometry logs plus an access stream.
#[derive(Debug, Clone)]
struct Scenario {
    size_log: u32,
    block_log: u32,
    ways_log: u32,
    accesses: Vec<(u64, bool, u16)>,
}

fn gen_scenario(rng: &mut SplitMix64) -> Scenario {
    let n = rng.gen_range(1usize..500);
    // Blocks of 1..256 words cover every dirty-mask limb count (1..4) and
    // the 64-word limb boundaries between them.
    let block_log = rng.gen_range(0u32..9);
    // 1..4 ways, and 1..32 sets of 4-byte words: every geometry is valid.
    let ways_log = rng.gen_range(0u32..3);
    let size_log = block_log + 2 + ways_log + rng.gen_range(0u32..6);
    // At least 16 distinct blocks, so large blocks still conflict, and
    // few enough that a resident large block takes stores on both sides
    // of a limb boundary.
    let words = (16u64 << block_log).max(512);
    Scenario {
        size_log,
        block_log,
        ways_log,
        accesses: (0..n)
            .map(|_| {
                (
                    rng.gen_range(0u64..words),
                    rng.gen_bool(0.5),
                    rng.gen_range(0u16..3),
                )
            })
            .collect(),
    }
}

/// Shrinks only the access stream; the geometry stays fixed.
fn shrink_scenario(s: &Scenario) -> Vec<Scenario> {
    cachetime_testkit::shrink::vec_linear(&s.accesses)
        .into_iter()
        .map(|accesses| Scenario {
            accesses,
            ..s.clone()
        })
        .collect()
}

/// Outcome-for-outcome agreement between `Cache` (LRU) and the naive
/// reference across random configurations and access streams.
#[test]
fn cache_matches_reference_model() {
    check(
        "cache_matches_reference_model",
        gen_scenario,
        shrink_scenario,
        check_against_reference,
    );
}

fn check_against_reference(s: &Scenario) -> Result<(), String> {
    let Scenario {
        size_log,
        block_log,
        ways_log,
        ref accesses,
    } = *s;
    {
        let size = 1u64 << size_log;
        let block_words = 1u32 << block_log;
        let ways = 1u32 << ways_log;
        let config = lru_config(size, block_words, ways).ok_or_else(|| {
            format!("invalid geometry: {size} B, {block_words} words, {ways} ways")
        })?;
        let mut cache = Cache::new(config);
        let mut oracle = RefCache::new(config.sets(), ways as usize, block_words as u64);
        for (i, &(addr, is_write, pid)) in accesses.iter().enumerate() {
            let a = WordAddr::new(addr);
            if is_write {
                let real = cache.write(a, Pid(pid));
                let expected = oracle.write(addr, pid);
                match (real, expected) {
                    (WriteOutcome::Hit { .. }, RefOutcome::Hit)
                    | (WriteOutcome::MissNoAllocate, RefOutcome::WriteMiss) => {}
                    other => prop_assert!(false, "write #{i} diverged: {other:?}"),
                }
            } else {
                let real = cache.read(a, Pid(pid));
                let expected = oracle.read(addr, pid);
                match (real, expected) {
                    (ReadOutcome::Hit, RefOutcome::Hit) => {}
                    (ReadOutcome::Miss { victim, .. }, RefOutcome::Miss { victim_dirty_words }) => {
                        prop_assert_eq!(
                            victim.map(|ev| ev.dirty_words),
                            victim_dirty_words,
                            "victim dirty-words diverged at access #{}",
                            i
                        );
                        if let Some(ev) = victim {
                            prop_assert_eq!(ev.words, block_words);
                        }
                    }
                    other => prop_assert!(false, "read #{i} diverged: {other:?}"),
                }
            }
        }
        // Final dirty state agrees too.
        let real_dirty: u64 = cache
            .flush_dirty()
            .iter()
            .map(|e| e.dirty_words as u64)
            .sum();
        let oracle_dirty: u64 = oracle
            .contents
            .values()
            .flatten()
            .map(|b| b.dirty.iter().filter(|&&d| d).count() as u64)
            .sum();
        prop_assert_eq!(real_dirty, oracle_dirty, "residual dirty words diverged");
    }
    Ok(())
}
