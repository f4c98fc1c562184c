//! The trace-driven timing engine (the *direct*, single-pass path).
//!
//! The engine advances a cycle clock per CPU *couplet* (a paired
//! instruction + data reference; "these couplets are issued at the same
//! time and both must complete before the CPU can proceed"). It never
//! ticks idle cycles: every component tracks busy-until timestamps, so the
//! cost of a reference is one cache access plus a handful of integer
//! max/add operations — the property that lets full paper-scale sweeps run
//! on one core.
//!
//! Everything below the first level lives in the shared
//! [`Downstream`](crate::hierarchy::Downstream) hierarchy, which the
//! two-phase path ([`crate::replay`]) drives with the exact same calls —
//! that is what makes repriced grids bit-identical to direct simulation.
//! This direct path remains the reference implementation (and the oracle
//! the equivalence tests check the two-phase pipeline against).

use crate::hierarchy::Downstream;
use crate::result::SimResult;
use crate::system::{FillPolicy, SystemConfig};
use cachetime_cache::{Cache, ReadOutcome, WriteOutcome};
use cachetime_mmu::Mmu;
use cachetime_trace::Trace;
use cachetime_types::{Cycles, MemRef, WordAddr};

/// Which first-level cache a reference targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Instruction,
    Data,
}

/// The simulator: a configured machine that can be run over traces.
///
/// Each [`run`](Simulator::run) starts from power-on state (cold caches,
/// idle memory), processes the whole trace, and reports statistics for the
/// post-warm-start window only.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SystemConfig,
    l1i: Cache,
    l1d: Cache,
    down: Downstream,
    mmu: Option<Mmu>,
    now: u64,
    couplets: u64,
    stall_cycles: u64,
    latency: crate::result::CoupletHistogram,
}

impl Simulator {
    /// Builds a cold machine from a configuration.
    pub fn new(config: &SystemConfig) -> Self {
        Simulator {
            config: *config,
            l1i: Cache::new(*config.l1i()),
            l1d: Cache::new(*config.l1d()),
            down: Downstream::new(&config.cycle_timing()),
            mmu: config.translation().map(|t| Mmu::new(*t)),
            now: 0,
            couplets: 0,
            stall_cycles: 0,
            latency: crate::result::CoupletHistogram::default(),
        }
    }

    /// Returns the configuration this simulator was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs the trace from power-on and returns warm-window statistics.
    ///
    /// The machine is reset first, so repeated `run` calls are independent.
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
        let obs = cachetime_obs::global();
        let mut span = obs.span("core_simulate");
        *self = Simulator::new(&self.config);
        let split = self.config.is_split();
        let mut refs = refs.into_iter().peekable();

        let mut i = 0usize;
        let mut warm_cycle = 0u64;
        let mut warm_couplets = 0u64;
        let mut warmed = warm_start == 0;
        while let Some(a) = refs.next() {
            if !warmed && i >= warm_start {
                warmed = true;
                warm_cycle = self.now;
                warm_couplets = self.couplets;
                self.reset_stats();
            }
            // Pair an ifetch with the immediately following data reference
            // of the same process — "instruction and data references in
            // the trace paired up without reordering any of the
            // references".
            let pairable = split
                && a.kind == cachetime_types::AccessKind::IFetch
                && refs
                    .peek()
                    .is_some_and(|d| d.kind.is_data() && d.pid == a.pid);
            if pairable {
                let d = refs.next().expect("peeked");
                self.step_couplet(Some(a), Some(d));
                i += 2;
            } else if a.kind.is_data() {
                self.step_couplet(None, Some(a));
                i += 1;
            } else {
                self.step_couplet(Some(a), None);
                i += 1;
            }
        }

        span.set_work(i as u64);
        obs.counter("cachetime_simulate_refs_total", &[]).add(i as u64);
        SimResult {
            cycle_time: self.config.cycle_time(),
            cycles: Cycles(self.now - warm_cycle),
            refs: (i - warm_start.min(i)) as u64,
            couplets: self.couplets - warm_couplets,
            l1i: *self.l1i.stats(),
            l1d: *self.l1d.stats(),
            l2: self.down.l2_stats(),
            l3: self.down.l3_stats(),
            mem: *self.down.mem_stats(),
            mmu: self.mmu.as_ref().map(|m| *m.stats()),
            latency: self.latency,
            stall_cycles: Cycles(self.stall_cycles),
        }
    }

    fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.down.reset_stats();
        if let Some(mmu) = &mut self.mmu {
            mmu.reset_stats();
        }
        self.latency = crate::result::CoupletHistogram::default();
        self.stall_cycles = 0;
    }

    /// Runs a reference through the MMU if the hierarchy is physically
    /// addressed: returns the (possibly translated) address and the cycles
    /// the translation added (a TLB miss costs the walk penalty).
    fn translate(&mut self, r: MemRef) -> (MemRef, u64) {
        match &mut self.mmu {
            None => (r, 0),
            Some(mmu) => {
                let (phys, hit) = mmu.translate(r.addr, r.pid);
                let penalty = if hit { 0 } else { mmu.miss_penalty() };
                (MemRef::new(phys, r.kind, r.pid), penalty)
            }
        }
    }

    /// Issues one couplet at the current cycle; both halves must complete
    /// before the clock advances.
    fn step_couplet(&mut self, iref: Option<MemRef>, dref: Option<MemRef>) {
        let now = self.now;
        let mut done = now;
        // The couplet's cost on an ideal (always-hitting, walk-free)
        // machine, for the stall-cycle decomposition.
        let mut ideal = 0u64;
        if let Some(r) = iref {
            let (r, walk) = self.translate(r);
            let side = if self.config.is_split() {
                Side::Instruction
            } else {
                Side::Data
            };
            ideal = ideal.max(self.config.read_hit_cycles());
            done = done.max(self.do_read(side, r, now + walk));
        }
        if let Some(r) = dref {
            // A single-issue CPU starts the data reference only after the
            // instruction fetch completes.
            let issue = if self.config.dual_issue() { now } else { done };
            let (r, walk) = self.translate(r);
            let (c, this_ideal) = if r.kind == cachetime_types::AccessKind::Store {
                (
                    self.do_write(r, issue + walk),
                    self.config.write_hit_cycles(),
                )
            } else {
                (
                    self.do_read(Side::Data, r, issue + walk),
                    self.config.read_hit_cycles(),
                )
            };
            ideal = if self.config.dual_issue() {
                ideal.max(this_ideal)
            } else {
                ideal + this_ideal
            };
            done = done.max(c);
        }
        debug_assert!(done > now, "a couplet must consume at least one cycle");
        self.latency.record(done - now);
        self.stall_cycles += (done - now).saturating_sub(ideal);
        self.now = done;
        self.couplets += 1;
    }

    /// A load or instruction fetch; returns its completion cycle.
    fn do_read(&mut self, side: Side, r: MemRef, now: u64) -> u64 {
        let (outcome, block_words, fetch_words) = {
            let cache = match side {
                Side::Instruction => &mut self.l1i,
                Side::Data => &mut self.l1d,
            };
            (
                cache.read(r.addr, r.pid),
                cache.config().block().words(),
                cache.config().fetch().words(),
            )
        };
        match outcome {
            ReadOutcome::Hit => now + self.config.read_hit_cycles(),
            ReadOutcome::SlowHit => {
                // A second probe round finds the block in another way.
                now + self.config.read_hit_cycles() + self.config.way_slow_hit_cycles()
            }
            ReadOutcome::VictimHit => {
                // The block swaps back from the victim buffer; nothing
                // goes downstream.
                now + self.config.read_hit_cycles() + self.config.victim_swap_cycles()
            }
            ReadOutcome::Miss { fill_words, victim } => {
                let fetch_start = WordAddr::new(r.addr.value() & !(fetch_words as u64 - 1));
                let victim = victim.map(|ev| (ev.addr.first_word(block_words), ev.words));
                // The miss is detected during the probe cycle; the fill
                // request goes downstream the cycle after.
                let grant = self
                    .down
                    .fill_l1(now + 1, r.pid, fetch_start, fill_words, victim);
                let completion = match self.config.fill_policy() {
                    FillPolicy::WaitWholeBlock => grant.done,
                    FillPolicy::EarlyContinuation => {
                        // Resume when the requested word arrives; the
                        // fetch still starts at the region's first word.
                        let offset = (r.addr.value() - fetch_start.value()) as u32;
                        grant.ready + self.down.upstream_transfer_cycles(offset + 1)
                    }
                    FillPolicy::LoadForward => {
                        // Wrap-around fill: the requested word comes first.
                        grant.ready + self.down.upstream_transfer_cycles(1)
                    }
                };
                completion.clamp(now + 1, grant.done)
            }
        }
    }

    /// A store; returns its completion cycle.
    fn do_write(&mut self, r: MemRef, now: u64) -> u64 {
        let whc = self.config.write_hit_cycles();
        let (outcome, block_words) = (
            self.l1d.write(r.addr, r.pid),
            self.l1d.config().block().words(),
        );
        match outcome {
            WriteOutcome::Hit { through } => {
                let mut done = now + whc;
                if through {
                    let accepted = self.down.write_word_down(now + 1, r.pid, r.addr);
                    done = done.max(accepted + 1);
                }
                done
            }
            WriteOutcome::VictimHit { through } => {
                // Swap the block back from the victim buffer, then write
                // into it as a hit.
                let mut done = now + whc + self.config.victim_swap_cycles();
                if through {
                    let accepted = self.down.write_word_down(now + 1, r.pid, r.addr);
                    done = done.max(accepted + 1);
                }
                done
            }
            WriteOutcome::MissNoAllocate => {
                // The word goes around the cache into the write buffer.
                let accepted = self.down.write_word_down(now + 1, r.pid, r.addr);
                (now + whc).max(accepted + 1)
            }
            WriteOutcome::MissAllocate {
                fill_words,
                victim,
                through,
            } => {
                let fetch_start = WordAddr::new(r.addr.value() & !(fill_words as u64 - 1));
                let victim = victim.map(|ev| (ev.addr.first_word(block_words), ev.words));
                let filled = self
                    .down
                    .fill_l1(now + 1, r.pid, fetch_start, fill_words, victim)
                    .done;
                let mut done = filled + 1; // the write itself
                if through {
                    let accepted = self.down.write_word_down(now + 1, r.pid, r.addr);
                    done = done.max(accepted + 1);
                }
                done
            }
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use cachetime_cache::CacheConfig;
    use cachetime_trace::Trace;
    use cachetime_types::{CacheSize, Pid};

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
