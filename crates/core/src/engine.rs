//! The trace-driven timing engine: one run of one machine over a trace.
//!
//! The engine advances a cycle clock per CPU *couplet* (a paired
//! instruction + data reference; "these couplets are issued at the same
//! time and both must complete before the CPU can proceed"). It never
//! ticks idle cycles: every component tracks busy-until timestamps, so the
//! cost of a reference is one cache access plus a handful of integer
//! max/add operations — the property that lets full paper-scale sweeps run
//! on one core.
//!
//! A run is the two-phase pipeline ([`crate::replay`]) fused into one
//! stream: the behavioral walk of [`BehavioralSim`] forms and classifies
//! each couplet, and each op it emits goes straight into a one-lane
//! replay bank instead of a stored [`EventTrace`](crate::EventTrace). So
//! there is one pricing engine, and a repriced recording is bit-identical
//! to a direct run by construction. The independent check of that engine
//! is the naive timing oracle in `tests/reference_engine.rs`.

use crate::replay::{BehavioralSim, LaneBank};
use crate::result::SimResult;
use crate::system::SystemConfig;
use cachetime_trace::Trace;
use cachetime_types::MemRef;

/// The simulator: a configured machine that can be run over traces.
///
/// Each [`run`](Simulator::run) starts from power-on state (cold caches,
/// idle memory), processes the whole trace, and reports statistics for the
/// post-warm-start window only.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SystemConfig,
    /// The first-level caches and MMU; the timing half lives in the
    /// replay bank each run builds.
    machine: BehavioralSim,
}

impl Simulator {
    /// Builds a cold machine from a configuration.
    pub fn new(config: &SystemConfig) -> Self {
        Simulator {
            config: *config,
            machine: BehavioralSim::new(&config.organization()),
        }
    }

    /// Returns the configuration this simulator was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs the trace from power-on and returns warm-window statistics.
    ///
    /// A machine that has already run is rebuilt first, so repeated `run`
    /// calls are independent; a fresh one is used as built.
    pub fn run(&mut self, trace: &Trace) -> SimResult {
        self.run_refs(trace.refs().iter().copied(), trace.warm_start())
    }

    /// Streaming variant of [`run`](Self::run): processes references from
    /// an iterator without materializing them (useful for very large `din`
    /// files). `warm_start` is the index of the first measured reference.
    pub fn run_refs(
        &mut self,
        refs: impl IntoIterator<Item = MemRef>,
        warm_start: usize,
    ) -> SimResult {
        let mut span = cachetime_obs::global_span!("core_simulate");
        let timing = self.config.cycle_timing();
        let mut bank = LaneBank::new(std::slice::from_ref(&timing));
        let (walked, behavior) = self.machine.walk(refs, warm_start, &mut bank);
        span.set_work(walked);
        global_counter!("cachetime_simulate_refs_total").add(walked);
        bank.result(0, &behavior, self.config.cycle_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use cachetime_cache::CacheConfig;
    use cachetime_types::{CacheSize, Pid, WordAddr};

    fn trace_of(refs: Vec<MemRef>) -> Trace {
        Trace::new("t", refs, 0)
    }

    fn default_sim() -> Simulator {
        Simulator::new(&SystemConfig::paper_default().unwrap())
    }

    #[test]
    fn single_read_hit_costs_miss_then_one_cycle() {
        let mut sim = default_sim();
        let a = WordAddr::new(0x100);
        let r = sim.run(&trace_of(vec![
            MemRef::load(a, Pid(1)),
            MemRef::load(a, Pid(1)),
        ]));
        // First load: cold miss = 1 probe + 10-cycle fill = 11.
        // Second load: hit = 1 cycle. Total 12.
        assert_eq!(r.cycles.0, 12);
        assert_eq!(r.refs, 2);
        assert_eq!(r.couplets, 2);
        assert_eq!(r.l1d.read_misses, 1);
    }

    #[test]
    fn couplet_pairs_ifetch_with_data() {
        let mut sim = default_sim();
        let r = sim.run(&trace_of(vec![
            MemRef::ifetch(WordAddr::new(0x1000), Pid(1)),
            MemRef::load(WordAddr::new(0x2000), Pid(1)),
        ]));
        assert_eq!(r.couplets, 1, "ifetch+load must pair");
        // Both miss; fills serialize on the memory: I at 1..11, D waits
        // for recovery (11+3=14) and completes at 24.
        assert_eq!(r.cycles.0, 24);
    }

    #[test]
    fn couplet_of_two_hits_costs_one_cycle() {
        let mut sim = default_sim();
        let i = WordAddr::new(0x1000);
        let d = WordAddr::new(0x2000);
        let r = sim.run(&trace_of(vec![
            MemRef::ifetch(i, Pid(1)),
            MemRef::load(d, Pid(1)),
            MemRef::ifetch(i, Pid(1)),
            MemRef::load(d, Pid(1)),
        ]));
        assert_eq!(r.couplets, 2);
        // First couplet 24 cycles (above); second couplet: both hit = 1.
        assert_eq!(r.cycles.0, 25);
    }

    #[test]
    fn ifetches_do_not_pair_across_processes() {
        let mut sim = default_sim();
        let r = sim.run(&trace_of(vec![
            MemRef::ifetch(WordAddr::new(0x1000), Pid(1)),
            MemRef::load(WordAddr::new(0x2000), Pid(2)),
        ]));
        assert_eq!(r.couplets, 2);
    }

    #[test]
    fn write_hit_costs_two_cycles() {
        let mut sim = default_sim();
        let a = WordAddr::new(0x40);
        let r = sim.run(&trace_of(vec![
            MemRef::load(a, Pid(1)),  // miss: 11
            MemRef::store(a, Pid(1)), // write hit: 2
        ]));
        assert_eq!(r.cycles.0, 13);
        assert_eq!(r.l1d.write_misses, 0);
    }

    #[test]
    fn write_miss_goes_around_quickly() {
        let mut sim = default_sim();
        let r = sim.run(&trace_of(vec![MemRef::store(WordAddr::new(0x40), Pid(1))]));
        // No fetch on write miss: just the 2-cycle write into the buffer.
        assert_eq!(r.cycles.0, 2);
        assert_eq!(r.l1d.write_misses, 1);
        assert_eq!(r.l1d.fills, 0);
    }

    #[test]
    fn unified_cache_serializes_references() {
        let config = SystemConfig::builder().unified(true).build().unwrap();
        let mut sim = Simulator::new(&config);
        let a = WordAddr::new(0x100);
        let r = sim.run(&trace_of(vec![
            MemRef::ifetch(a, Pid(1)),
            MemRef::load(a, Pid(1)),
        ]));
        assert_eq!(r.couplets, 2, "unified organization cannot pair");
        // Miss (11) then hit in the same (unified) cache (1).
        assert_eq!(r.cycles.0, 12);
        assert_eq!(r.l1i.reads, 0, "nothing reaches the unused I cache");
    }

    #[test]
    fn way_predicted_slow_hit_pays_the_second_probe() {
        // 64 KB 2-way: each way spans 8192 words, so a and b share a set.
        let l1 = CacheConfig::builder(CacheSize::from_kib(64).unwrap())
            .assoc(cachetime_types::Assoc::new(2).unwrap())
            .replacement(cachetime_cache::ReplacementPolicy::Lru)
            .way_prediction(cachetime_cache::WayPrediction::Mru)
            .build()
            .unwrap();
        let config = SystemConfig::builder()
            .l1_both(l1)
            .way_slow_hit_cycles(3)
            .build()
            .unwrap();
        let a = WordAddr::new(0x100);
        let b = WordAddr::new(0x100 + 8192);
        let refs = vec![
            MemRef::load(a, Pid(1)), // miss: 11
            MemRef::load(b, Pid(1)), // miss into the other way; MRU is b's
            MemRef::load(a, Pid(1)), // hit, but not in the predicted way
        ];
        let r = Simulator::new(&config).run(&Trace::new("t", refs, 2));
        // Measured: 1 read-hit cycle + 3 cycles for the second probe round.
        assert_eq!(r.cycles.0, 4);
        assert_eq!(r.stall_cycles.0, 3);
        assert_eq!(r.l1d.way_slow_hits, 1);
    }

    #[test]
    fn victim_buffer_hits_pay_the_swap() {
        // Direct-mapped 64 KB (16K words): a and c conflict, and each
        // eviction parks the displaced block in the one-entry buffer.
        let l1 = CacheConfig::builder(CacheSize::from_kib(64).unwrap())
            .victim_cache(cachetime_cache::VictimCacheConfig::new(1).unwrap())
            .build()
            .unwrap();
        let config = SystemConfig::builder()
            .l1_both(l1)
            .victim_swap_cycles(3)
            .build()
            .unwrap();
        let a = WordAddr::new(0x100);
        let c = WordAddr::new(0x100 + 16384);
        let refs = vec![
            MemRef::load(a, Pid(1)),  // miss: 11
            MemRef::load(c, Pid(1)),  // miss: a moves to the buffer
            MemRef::load(a, Pid(1)),  // read victim hit: a swaps with c
            MemRef::store(c, Pid(1)), // write victim hit: c swaps back
        ];
        let r = Simulator::new(&config).run(&Trace::new("t", refs, 2));
        // Measured: the read costs 1 hit + 3 swap = 4 cycles, the store
        // 2 write + 3 swap = 5; nothing goes to memory.
        assert_eq!(r.cycles.0, 9);
        assert_eq!(r.stall_cycles.0, 6);
        assert_eq!(r.l1d.victim_hits, 2);
        assert_eq!(r.mem.reads, 0);
    }

    #[test]
    fn single_issue_starts_the_data_half_after_the_fetch() {
        let config = SystemConfig::builder().dual_issue(false).build().unwrap();
        let i = WordAddr::new(0x1000);
        let d = WordAddr::new(0x2000);
        let r = Simulator::new(&config).run(&trace_of(vec![
            MemRef::load(d, Pid(1)),
            MemRef::ifetch(i, Pid(1)),
            MemRef::load(d, Pid(1)),
            MemRef::ifetch(i, Pid(1)),
            MemRef::load(d, Pid(1)),
        ]));
        assert_eq!(r.couplets, 3);
        // Load miss: 0..11, memory busy until 14. Couplet two: the fetch
        // misses, its fill request at 12 waits for recovery, data arrives
        // 20..24; only then does the load issue and hit, done at 25 (dual
        // issue would finish at 24). Couplet three: two hits back to back,
        // 2 cycles. Total 27.
        assert_eq!(r.cycles.0, 27);
        // Stall over the ideal 1 + 1 per couplet: 10 + 12 + 0.
        assert_eq!(r.stall_cycles.0, 22);
    }

    #[test]
    fn warm_start_excludes_cold_misses() {
        let a = WordAddr::new(0x100);
        let refs = vec![
            MemRef::load(a, Pid(1)),
            MemRef::load(a, Pid(1)),
            MemRef::load(a, Pid(1)),
        ];
        let t = Trace::new("t", refs, 1);
        let mut sim = default_sim();
        let r = sim.run(&t);
        assert_eq!(r.refs, 2);
        assert_eq!(r.l1d.read_misses, 0, "the cold miss fell before warm start");
        assert_eq!(r.cycles.0, 2, "two warm hits");
    }

    #[test]
    fn runs_are_independent() {
        let t = trace_of(vec![
            MemRef::load(WordAddr::new(0), Pid(1)),
            MemRef::load(WordAddr::new(0), Pid(1)),
        ]);
        let mut sim = default_sim();
        let a = sim.run(&t);
        let b = sim.run(&t);
        assert_eq!(a, b, "second run must start cold again");
    }

    #[test]
    fn dirty_miss_write_back_is_hidden_for_short_blocks() {
        let mut sim = default_sim();
        let a = WordAddr::new(0x0);
        let conflict = WordAddr::new(0x40000); // same set, 64KB cache extent
        let r = sim.run(&trace_of(vec![
            MemRef::load(a, Pid(1)),        // miss 11 cycles
            MemRef::store(a, Pid(1)),       // dirty it, 2 cycles
            MemRef::load(conflict, Pid(1)), // dirty miss
            MemRef::load(a, Pid(1)),        // miss again (conflict)
        ]));
        assert_eq!(r.l1d.dirty_evictions, 1);
        assert_eq!(r.mem.write_words, 4, "whole victim block written back");
        // Timing: 11 + 2 = 13; dirty miss at 13 issues fill at 14; memory
        // free (after first fill's recovery at 14) -> completes 24; the
        // write-back is hidden. Final load at 24, memory free at
        // max(27, write drain), fill from 27 -> 37.
        assert!(r.cycles.0 >= 35, "cycles {}", r.cycles.0);
    }

    #[test]
    fn l2_hit_is_much_cheaper_than_memory() {
        let l2cache = CacheConfig::builder(CacheSize::from_kib(512).unwrap())
            .build()
            .unwrap();
        let config = SystemConfig::builder()
            .l2(crate::LevelTwoConfig::new(l2cache))
            .build()
            .unwrap();
        let mut sim = Simulator::new(&config);
        let a = WordAddr::new(0x100);
        // 0x4100 shares a's set in the 16K-word L1 but not in the 128K-word L2.
        let conflict = WordAddr::new(0x4100);
        // Warm-up installs both blocks in the L2; the measured window then
        // ping-pongs them through the (conflicting) L1 sets, so every
        // measured miss is an L2 hit.
        let refs = vec![
            MemRef::load(a, Pid(1)),
            MemRef::load(conflict, Pid(1)),
            MemRef::load(a, Pid(1)),
            MemRef::load(conflict, Pid(1)),
        ];
        let t = Trace::new("t", refs, 2);
        let r = sim.run(&t);
        let l2 = r.l2.expect("l2 stats present");
        assert_eq!(l2.reads, 2);
        assert_eq!(l2.read_misses, 0, "measured misses are all L2 hits");
        assert_eq!(r.l1d.read_misses, 2);
        // Each L2-hit miss costs 1 probe + 3-cycle L2 read + 4-word
        // transfer = 8 cycles; the memory path would cost at least 11.
        assert_eq!(r.cycles.0, 16);
    }

    #[test]
    fn early_continuation_shortens_misses() {
        let base = SystemConfig::paper_default().unwrap();
        let ec = SystemConfig::builder()
            .early_continuation(true)
            .build()
            .unwrap();
        // Request the *first* word of a block: 3 trailing words saved.
        let t = trace_of(vec![MemRef::load(WordAddr::new(0x100), Pid(1))]);
        let full = Simulator::new(&base).run(&t);
        let early = Simulator::new(&ec).run(&t);
        assert_eq!(full.cycles.0, 11);
        assert_eq!(early.cycles.0, 8);
    }

    #[test]
    fn load_forward_resumes_after_one_word_regardless_of_offset() {
        let lf = SystemConfig::builder()
            .fill_policy(crate::FillPolicy::LoadForward)
            .build()
            .unwrap();
        let ec = SystemConfig::builder()
            .early_continuation(true)
            .build()
            .unwrap();
        // Request the *last* word of the block: early continuation must
        // wait for the whole transfer (words 0..=3 arrive in order), load
        // forwarding wraps around and delivers it first.
        let t = trace_of(vec![MemRef::load(WordAddr::new(0x103), Pid(1))]);
        let forwarded = Simulator::new(&lf).run(&t);
        let early = Simulator::new(&ec).run(&t);
        assert_eq!(
            forwarded.cycles.0, 8,
            "1 probe + 1 addr + 5 latency + 1 word"
        );
        assert_eq!(early.cycles.0, 11, "last word: EC degenerates to waiting");
    }

    #[test]
    fn fill_policies_never_beat_the_memory_latency() {
        // Whatever the policy, a cold miss cannot complete before the
        // first word can possibly arrive.
        for policy in [
            crate::FillPolicy::WaitWholeBlock,
            crate::FillPolicy::EarlyContinuation,
            crate::FillPolicy::LoadForward,
        ] {
            let config = SystemConfig::builder().fill_policy(policy).build().unwrap();
            let t = trace_of(vec![MemRef::load(WordAddr::new(0x100), Pid(1))]);
            let r = Simulator::new(&config).run(&t);
            assert!(r.cycles.0 >= 8, "{policy:?}: {}", r.cycles.0);
            assert!(r.cycles.0 <= 11, "{policy:?}: {}", r.cycles.0);
        }
    }

    #[test]
    fn write_through_caches_send_every_store_down() {
        let l1 = CacheConfig::builder(CacheSize::from_kib(64).unwrap())
            .write_policy(cachetime_cache::WritePolicy::WriteThrough)
            .build()
            .unwrap();
        let config = SystemConfig::builder().l1_both(l1).build().unwrap();
        let mut sim = Simulator::new(&config);
        let a = WordAddr::new(0x40);
        let r = sim.run(&trace_of(vec![
            MemRef::load(a, Pid(1)),
            MemRef::store(a, Pid(1)),
            MemRef::store(a, Pid(1)),
        ]));
        assert_eq!(r.l1d.word_writes_downstream, 2);
        assert_eq!(r.l1d.dirty_evictions, 0);
    }

    #[test]
    fn l2_write_buffer_overflow_forces_drains() {
        // A depth-1 L1->L2 buffer with a stream of dirty misses: every
        // second victim must force a drain instead of overflowing.
        let l1 = CacheConfig::builder(CacheSize::from_bytes(64).unwrap())
            .build()
            .unwrap();
        let l2cache = CacheConfig::builder(CacheSize::from_kib(64).unwrap())
            .build()
            .unwrap();
        let mut l2 = crate::LevelTwoConfig::new(l2cache);
        l2.wb_depth = 1;
        let config = SystemConfig::builder().l1_both(l1).l2(l2).build().unwrap();
        let mut refs = Vec::new();
        // Alternate two conflicting blocks, dirtying each before evicting.
        for i in 0..50u64 {
            let base = (i % 2) * 16; // 64B cache: 16-word extent
            refs.push(MemRef::store(WordAddr::new(base), Pid(1)));
            refs.push(MemRef::load(WordAddr::new(base), Pid(1)));
        }
        let r = Simulator::new(&config).run(&trace_of(refs));
        let l2s = r.l2.expect("l2 stats");
        assert!(l2s.writes > 10, "victims must drain into the L2: {l2s:?}");
        assert!(r.cycles.0 > 0);
    }

    #[test]
    fn run_refs_streams_identically_to_run() {
        let refs: Vec<MemRef> = (0..500)
            .map(|i| match i % 3 {
                0 => MemRef::ifetch(WordAddr::new(i * 7 % 256), Pid(1)),
                1 => MemRef::load(WordAddr::new(i * 13 % 512), Pid(1)),
                _ => MemRef::store(WordAddr::new(i * 11 % 128), Pid(2)),
            })
            .collect();
        let trace = Trace::new("t", refs.clone(), 100);
        let config = SystemConfig::paper_default().unwrap();
        let whole = Simulator::new(&config).run(&trace);
        let streamed = Simulator::new(&config).run_refs(refs, 100);
        assert_eq!(whole, streamed);
    }

    #[test]
    fn run_refs_on_empty_iterator() {
        let config = SystemConfig::paper_default().unwrap();
        let r = Simulator::new(&config).run_refs(std::iter::empty(), 0);
        assert_eq!(r.refs, 0);
        assert_eq!(r.cycles.0, 0);
    }

    #[test]
    fn cycle_count_bounded_below_by_couplets() {
        let mut sim = default_sim();
        let refs: Vec<MemRef> = (0..100)
            .map(|i| MemRef::load(WordAddr::new(i % 8), Pid(1)))
            .collect();
        let r = sim.run(&trace_of(refs));
        assert!(r.cycles.0 >= r.couplets);
    }
}
