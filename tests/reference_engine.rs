//! Differential oracle: a deliberately naive re-implementation of the
//! timing model, checked against both ways the crate prices a run —
//! `Simulator::run` and a `BehavioralSim` recording repriced by
//! `replay_many` over a whole timing axis.
//!
//! The oracle shares only the organizational state machines with the
//! crate: the production `Cache` decides hits, misses and victims, and the
//! production `Mmu` maps pages and decides TLB hits. Everything with a
//! clock is written again here, from the model's definitions:
//!
//! * memory cycle counts come straight from the nanosecond parameters
//!   (`ceil(ns / cycle time)`), and the words of a transfer arrive in
//!   order, `n` per cycle or one per `c` cycles — the fill policies read
//!   the requested word's arrival off that schedule;
//! * write-buffer drains launch greedily, the first cycle the memory is
//!   free and the head entry has aged past the drain delay, whereas the
//!   engine reconstructs them lazily ("catch-up") at its next event;
//! * couplets pair, issue and complete by the machine description: an
//!   ifetch pairs with the immediately following data reference of the
//!   same process; a dual-issue CPU starts both halves together, a
//!   single-issue one starts the data half when the fetch completes; a
//!   TLB miss delays its half by the walk.
//!
//! Scope: split or unified first-level caches (the two sides may differ
//! in size, block, fetch, associativity, write policy, allocation and
//! organization features), dual and single issue, every hit-cost and
//! feature-penalty knob, all three fill policies, an optional MMU, and a
//! mid-trace warm boundary, on a main memory with a write buffer of depth
//! ≥ 1, read priority and coalescing on. Mid-level caches, unbuffered
//! memories and the read-priority / coalescing switches live only below
//! the first level and are out of scope.

use cachetime::{replay_many, BehavioralSim, FillPolicy, SimResult, Simulator, SystemConfig};
use cachetime_cache::{
    Cache, CacheConfig, ReadOutcome, ReplacementPolicy, VictimCacheConfig, WayPrediction,
    WriteAllocate, WriteOutcome, WritePolicy,
};
use cachetime_mem::{MemoryConfig, TransferRate};
use cachetime_mmu::{Mmu, TranslationConfig};
use cachetime_testkit::{check_config, prop_assert_eq, CaseResult, Config, SplitMix64};
use cachetime_trace::Trace;
use cachetime_types::{
    AccessKind, Assoc, BlockWords, CacheSize, CycleTime, MemRef, Nanos, Pid, WordAddr,
};

const WORD_REGION: u64 = 16; // must match WbEntry::word's coalescing region

#[derive(Debug, Clone)]
struct RefEntry {
    pid: Pid,
    start: u64,
    span: u64,
    /// None = whole block of `words`; Some(mask) = word entry.
    mask: Option<u64>,
    words: u32,
    ready_at: u64,
}

impl RefEntry {
    fn overlaps(&self, pid: Pid, start: u64, words: u32) -> bool {
        if self.pid != pid || self.start >= start + words as u64 || start >= self.start + self.span
        {
            return false;
        }
        match self.mask {
            None => true,
            Some(mask) => {
                let lo = start.saturating_sub(self.start).min(self.span) as u32;
                let hi = (start + words as u64 - self.start).min(self.span) as u32;
                (lo..hi).any(|b| mask & (1 << b) != 0)
            }
        }
    }
}

/// The organization half of a scenario: what the behavioral pass sees.
#[derive(Debug, Clone, Copy)]
struct Org {
    l1i: CacheConfig,
    l1d: CacheConfig,
    unified: bool,
    translation: Option<TranslationConfig>,
}

/// One point on a scenario's timing axis, in the machine description's
/// own units (nanoseconds for the memory, cycles for the CPU knobs).
#[derive(Debug, Clone, Copy)]
struct Point {
    ct_ns: u32,
    read_ns: u64,
    write_ns: u64,
    recovery_ns: u64,
    addr_cycles: u64,
    transfer: TransferRate,
    depth: u32,
    delay: u64,
    read_hit: u64,
    write_hit: u64,
    way_slow_hit: u64,
    victim_swap: u64,
    dual_issue: bool,
    fill: FillPolicy,
}

impl Point {
    /// The paper's machine at `ct_ns` with the given write buffer.
    fn paper(ct_ns: u32, depth: u32, delay: u64) -> Self {
        Point {
            ct_ns,
            read_ns: 180,
            write_ns: 100,
            recovery_ns: 120,
            addr_cycles: 1,
            transfer: TransferRate::WordsPerCycle(1),
            depth,
            delay,
            read_hit: 1,
            write_hit: 2,
            way_slow_hit: 1,
            victim_swap: 1,
            dual_issue: true,
            fill: FillPolicy::WaitWholeBlock,
        }
    }

    fn config(&self, org: &Org) -> SystemConfig {
        let memory = MemoryConfig::builder()
            .read_op(Nanos(self.read_ns))
            .write_op(Nanos(self.write_ns))
            .recovery(Nanos(self.recovery_ns))
            .addr_cycles(self.addr_cycles)
            .transfer(self.transfer)
            .wb_depth(self.depth)
            .wb_drain_delay(self.delay)
            .build()
            .expect("valid memory");
        let mut b = SystemConfig::builder();
        b.cycle_time(CycleTime::from_ns(self.ct_ns).expect("nonzero"))
            .l1i(org.l1i)
            .l1d(org.l1d)
            .unified(org.unified)
            .memory(memory)
            .read_hit_cycles(self.read_hit)
            .write_hit_cycles(self.write_hit)
            .way_slow_hit_cycles(self.way_slow_hit)
            .victim_swap_cycles(self.victim_swap)
            .dual_issue(self.dual_issue)
            .fill_policy(self.fill);
        if let Some(t) = org.translation {
            b.translation(t);
        }
        b.build().expect("valid system")
    }

    /// Whole cycles a fixed delay of `ns` occupies (a partial cycle
    /// counts as a whole one).
    fn cycles(&self, ns: u64) -> u64 {
        ns.div_ceil(self.ct_ns as u64)
    }

    /// Cycles from the start of a transfer until its `k`-th word
    /// (0-based, in transfer order) is in the cache.
    fn arrival(&self, k: u32) -> u64 {
        match self.transfer {
            TransferRate::WordsPerCycle(n) => (k / n) as u64 + 1,
            TransferRate::CyclesPerWord(c) => (k as u64 + 1) * c as u64,
        }
    }

    /// Cycles a transfer of `words` words occupies the backplane.
    fn transfer(&self, words: u32) -> u64 {
        self.arrival(words - 1)
    }
}

/// The figures the oracle predicts for the measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Totals {
    cycles: u64,
    couplets: u64,
    stall_cycles: u64,
    reads: u64,
    read_words: u64,
    writes: u64,
    write_words: u64,
}

impl Totals {
    fn of(r: &SimResult) -> Self {
        Totals {
            cycles: r.cycles.0,
            couplets: r.couplets,
            stall_cycles: r.stall_cycles.0,
            reads: r.mem.reads,
            read_words: r.mem.read_words,
            writes: r.mem.writes,
            write_words: r.mem.write_words,
        }
    }
}

/// The naive machine: first-level caches, MMU and a greedy memory.
struct RefMachine {
    p: Point,
    latency: u64,
    write_op: u64,
    recovery: u64,
    split: bool,
    l1i: Cache,
    l1d: Cache,
    mmu: Option<Mmu>,
    walk: u64,
    wb: std::collections::VecDeque<RefEntry>,
    mem_free: u64,
    now: u64,
    /// Counters since the warm boundary; `cycles` is filled in at the end.
    t: Totals,
}

impl RefMachine {
    fn new(org: &Org, p: &Point) -> Self {
        RefMachine {
            p: *p,
            latency: p.cycles(p.read_ns),
            write_op: p.cycles(p.write_ns),
            recovery: p.cycles(p.recovery_ns),
            split: !org.unified,
            l1i: Cache::new(org.l1i),
            l1d: Cache::new(org.l1d),
            mmu: org.translation.map(Mmu::new),
            walk: org.translation.map_or(0, |t| t.miss_penalty),
            wb: Default::default(),
            mem_free: 0,
            now: 0,
            t: Totals::default(),
        }
    }

    /// Launches the head drain at cycle `c` unconditionally; returns the
    /// cycle the bus is released.
    fn launch(&mut self, c: u64) -> u64 {
        let e = self.wb.pop_front().expect("launch on empty buffer");
        let start = c.max(e.ready_at).max(self.mem_free);
        let release = start + self.p.addr_cycles + self.p.transfer(e.words);
        self.mem_free = release + self.write_op + self.recovery;
        self.t.writes += 1;
        self.t.write_words += e.words as u64;
        release
    }

    /// Launches every drain that starts strictly before `upto`: each one
    /// the first cycle the memory is free and the head has aged past the
    /// drain delay.
    fn sweep(&mut self, upto: u64) {
        while let Some(front) = self.wb.front() {
            let at = (front.ready_at + self.p.delay).max(self.mem_free);
            if at >= upto {
                break;
            }
            self.launch(at);
        }
    }

    /// A fill request arriving at cycle `t` (read priority; address
    /// matches force drain-through). Returns the cycles the transfer into
    /// the cache starts and ends.
    fn fill(
        &mut self,
        t: u64,
        pid: Pid,
        addr: WordAddr,
        words: u32,
        victim: Option<(WordAddr, u32)>,
    ) -> (u64, u64) {
        self.sweep(t);
        if let Some(i) = self
            .wb
            .iter()
            .rposition(|e| e.overlaps(pid, addr.value(), words))
        {
            for _ in 0..=i {
                self.launch(t);
            }
        }
        let start = t.max(self.mem_free);
        let data_start = start + self.p.addr_cycles + self.latency;
        let transfer = self.p.transfer(words);
        self.mem_free = data_start + transfer + self.recovery;
        self.t.reads += 1;
        self.t.read_words += words as u64;
        let mut gate = data_start;
        if let Some((vaddr, vwords)) = victim {
            // The dirty block moves into the buffer one word per cycle
            // while the read is under way; a full buffer first sends its
            // head out after the read.
            let move_start = if self.wb.len() == self.p.depth as usize {
                self.launch(self.mem_free)
            } else {
                start
            };
            let move_done = move_start + vwords as u64;
            self.wb.push_back(RefEntry {
                pid,
                start: vaddr.value(),
                span: vwords as u64,
                mask: None,
                words: vwords,
                ready_at: move_done,
            });
            gate = gate.max(move_done);
        }
        (gate, gate + transfer)
    }

    /// A word write arriving at cycle `t` (coalesce into the tail when the
    /// word falls in its region). Returns the cycle the buffer accepts it.
    fn write_word(&mut self, t: u64, pid: Pid, addr: WordAddr) -> u64 {
        self.sweep(t);
        let a = addr.value();
        if let Some(tail) = self.wb.back_mut() {
            if tail.pid == pid && a >= tail.start && a < tail.start + tail.span {
                match &mut tail.mask {
                    None => return t, // block entry absorbs the word
                    Some(mask) => {
                        let bit = 1u64 << (a - tail.start);
                        if *mask & bit == 0 {
                            *mask |= bit;
                            tail.words += 1;
                        }
                        return t;
                    }
                }
            }
        }
        let ready = if self.wb.len() == self.p.depth as usize {
            self.launch(t)
        } else {
            t
        };
        let region = a & !(WORD_REGION - 1);
        self.wb.push_back(RefEntry {
            pid,
            start: region,
            span: WORD_REGION,
            mask: Some(1u64 << (a - region)),
            words: 1,
            ready_at: ready,
        });
        ready
    }

    /// Runs the whole trace; returns the measured window's figures.
    fn run(mut self, trace: &Trace) -> Totals {
        let refs = trace.refs();
        let mut warm_cycle = 0u64;
        let mut warmed = trace.warm_start() == 0;
        let mut i = 0usize;
        while i < refs.len() {
            if !warmed && i >= trace.warm_start() {
                warmed = true;
                warm_cycle = self.now;
                self.t = Totals::default();
            }
            let a = refs[i];
            let (iref, dref) = if self.split
                && a.kind == AccessKind::IFetch
                && i + 1 < refs.len()
                && refs[i + 1].kind.is_data()
                && refs[i + 1].pid == a.pid
            {
                i += 2;
                (Some(a), Some(refs[i - 1]))
            } else if a.kind.is_data() {
                i += 1;
                (None, Some(a))
            } else {
                i += 1;
                (Some(a), None)
            };
            self.couplet(iref, dref);
        }
        Totals {
            cycles: self.now - warm_cycle,
            ..self.t
        }
    }

    fn couplet(&mut self, iref: Option<MemRef>, dref: Option<MemRef>) {
        let now = self.now;
        let mut done = now;
        // What the couplet would cost if every half hit without a walk.
        let mut ideal = 0;
        if let Some(r) = iref {
            let (r, walk) = self.translate(r);
            done = done.max(self.read(self.split, r, now + walk));
            ideal = self.p.read_hit;
        }
        if let Some(r) = dref {
            let issue = if self.p.dual_issue { now } else { done };
            let (r, walk) = self.translate(r);
            let (complete, cost) = if r.kind == AccessKind::Store {
                (self.write(r, issue + walk), self.p.write_hit)
            } else {
                (self.read(false, r, issue + walk), self.p.read_hit)
            };
            ideal = if self.p.dual_issue {
                ideal.max(cost)
            } else {
                ideal + cost
            };
            done = done.max(complete);
        }
        self.t.couplets += 1;
        self.t.stall_cycles += (done - now).saturating_sub(ideal);
        self.now = done;
    }

    fn translate(&mut self, r: MemRef) -> (MemRef, u64) {
        match &mut self.mmu {
            None => (r, 0),
            Some(mmu) => {
                let (phys, hit) = mmu.translate(r.addr, r.pid);
                (
                    MemRef::new(phys, r.kind, r.pid),
                    if hit { 0 } else { self.walk },
                )
            }
        }
    }

    /// A load or ifetch reaching its cache at cycle `t`; returns the cycle
    /// the CPU has the word.
    fn read(&mut self, instruction: bool, r: MemRef, t: u64) -> u64 {
        let cache = if instruction {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        let block_words = cache.config().block().words();
        match cache.read(r.addr, r.pid) {
            ReadOutcome::Hit => t + self.p.read_hit,
            ReadOutcome::SlowHit => t + self.p.read_hit + self.p.way_slow_hit,
            ReadOutcome::VictimHit => t + self.p.read_hit + self.p.victim_swap,
            ReadOutcome::Miss { fill_words, victim } => {
                let fetch_start = r.addr.value() & !(fill_words as u64 - 1);
                let victim = victim.map(|ev| (ev.addr.first_word(block_words), ev.words));
                // The miss is known at the end of the probe cycle.
                let (ready, done) =
                    self.fill(t + 1, r.pid, WordAddr::new(fetch_start), fill_words, victim);
                let word = (r.addr.value() - fetch_start) as u32;
                match self.p.fill {
                    FillPolicy::WaitWholeBlock => done,
                    // Words arrive from the region's start; resume on the
                    // requested one.
                    FillPolicy::EarlyContinuation => ready + self.p.arrival(word),
                    // The transfer starts at the requested word.
                    FillPolicy::LoadForward => ready + self.p.arrival(0),
                }
            }
        }
    }

    /// A store reaching the data cache at cycle `t`; returns the cycle the
    /// CPU may proceed.
    fn write(&mut self, r: MemRef, t: u64) -> u64 {
        let block_words = self.l1d.config().block().words();
        let (mut done, through) = match self.l1d.write(r.addr, r.pid) {
            WriteOutcome::Hit { through } => (t + self.p.write_hit, through),
            WriteOutcome::VictimHit { through } => {
                (t + self.p.write_hit + self.p.victim_swap, through)
            }
            // The word goes around the cache, as if written through.
            WriteOutcome::MissNoAllocate => (t + self.p.write_hit, true),
            WriteOutcome::MissAllocate {
                fill_words,
                victim,
                through,
            } => {
                let fetch_start = WordAddr::new(r.addr.value() & !(fill_words as u64 - 1));
                let victim = victim.map(|ev| (ev.addr.first_word(block_words), ev.words));
                let (_, filled) = self.fill(t + 1, r.pid, fetch_start, fill_words, victim);
                // One more cycle writes the word into the filled block.
                (filled + 1, through)
            }
        };
        if through {
            // The word enters the write buffer the cycle after the probe;
            // the CPU waits until the buffer has taken it.
            done = done.max(self.write_word(t + 1, r.pid, r.addr) + 1);
        }
        done
    }
}

/// One oracle scenario: an organization, a timing axis and a reference
/// stream.
#[derive(Debug, Clone)]
struct Scenario {
    refs: Vec<MemRef>,
    warm_start: usize,
    org: Org,
    points: Vec<Point>,
}

fn gen_cache(rng: &mut SplitMix64) -> CacheConfig {
    let block_log = rng.gen_range(0u32..4);
    let ways_log = rng.gen_range(0u32..3);
    let mut b = CacheConfig::builder(CacheSize::from_kib(1 << rng.gen_range(0u64..3)).unwrap());
    b.block(BlockWords::new(1 << block_log).unwrap())
        .assoc(Assoc::new(1 << ways_log).unwrap())
        .replacement(match rng.gen_range(0u8..3) {
            0 => ReplacementPolicy::Lru,
            1 => ReplacementPolicy::Fifo,
            _ => ReplacementPolicy::Random,
        });
    if rng.gen_bool(0.3) {
        b.victim_cache(VictimCacheConfig::new(rng.gen_range(1u32..5)).unwrap());
    } else if block_log > 0 && rng.gen_bool(0.4) {
        b.fetch(BlockWords::new(1 << rng.gen_range(0..block_log)).unwrap());
    }
    if ways_log > 0 && rng.gen_bool(0.5) {
        b.way_prediction(if rng.gen_bool(0.5) {
            WayPrediction::Mru
        } else {
            WayPrediction::MultiColumn
        });
    }
    if rng.gen_bool(0.3) {
        b.write_policy(WritePolicy::WriteThrough);
    }
    if rng.gen_bool(0.4) {
        b.write_allocate(WriteAllocate::Allocate);
    }
    b.build().expect("valid cache")
}

fn gen_point(rng: &mut SplitMix64) -> Point {
    Point {
        ct_ns: rng.gen_range(10u32..90),
        read_ns: rng.gen_range(40u64..300),
        write_ns: rng.gen_range(20u64..200),
        recovery_ns: rng.gen_range(0u64..200),
        addr_cycles: rng.gen_range(0u64..3),
        transfer: match rng.gen_range(0u8..6) {
            0 => TransferRate::CyclesPerWord(2),
            1 => TransferRate::CyclesPerWord(3),
            n => TransferRate::WordsPerCycle(n as u32 - 1),
        },
        depth: rng.gen_range(1u32..6),
        delay: rng.gen_range(0u64..48),
        read_hit: rng.gen_range(1u64..4),
        write_hit: rng.gen_range(1u64..4),
        way_slow_hit: rng.gen_range(0u64..4),
        victim_swap: rng.gen_range(0u64..4),
        dual_issue: rng.gen_bool(0.5),
        fill: match rng.gen_range(0u8..3) {
            0 => FillPolicy::WaitWholeBlock,
            1 => FillPolicy::EarlyContinuation,
            _ => FillPolicy::LoadForward,
        },
    }
}

/// References with locality: mostly near the previous address, now and
/// then a jump, so hits, slow hits, victim hits and dirty misses all
/// occur.
fn gen_refs(rng: &mut SplitMix64) -> Vec<MemRef> {
    let n = rng.gen_range(1usize..400);
    let mut at = rng.gen_range(0u64..2048);
    (0..n)
        .map(|_| {
            at = if rng.gen_bool(0.25) {
                rng.gen_range(0u64..2048)
            } else {
                (at + rng.gen_range(0u64..17)).saturating_sub(8)
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

fn gen_scenario(rng: &mut SplitMix64) -> Scenario {
    let refs = gen_refs(rng);
    let l1i = gen_cache(rng);
    let org = Org {
        l1i,
        l1d: if rng.gen_bool(0.3) {
            l1i
        } else {
            gen_cache(rng)
        },
        unified: rng.gen_bool(0.25),
        translation: rng.gen_bool(0.4).then(|| {
            let tlb_entries = 1 << rng.gen_range(1u32..4);
            TranslationConfig {
                page_words: 1 << rng.gen_range(5u32..9),
                tlb_entries,
                tlb_assoc: 1 << rng.gen_range(0..tlb_entries.trailing_zeros() + 1),
                miss_penalty: rng.gen_range(1u64..30),
            }
        }),
    };
    let points = (0..rng.gen_range(2usize..9))
        .map(|_| gen_point(rng))
        .collect();
    Scenario {
        warm_start: rng.gen_range(0..refs.len() + 1),
        refs,
        org,
        points,
    }
}

/// Shrinks only the reference stream; the machine and axis stay fixed.
fn shrink_scenario(s: &Scenario) -> Vec<Scenario> {
    cachetime_testkit::shrink::vec_linear(&s.refs)
        .into_iter()
        .map(|refs| Scenario {
            warm_start: s.warm_start.min(refs.len()),
            refs,
            ..s.clone()
        })
        .collect()
}

/// The property body, shared with the explicit regression tests.
fn check_engine_matches_oracle(s: &Scenario) -> CaseResult {
    let trace = Trace::new("oracle", s.refs.clone(), s.warm_start);
    let configs: Vec<SystemConfig> = s.points.iter().map(|p| p.config(&s.org)).collect();
    let events = BehavioralSim::new(&configs[0].organization()).record(&trace);
    let batched = replay_many(&events, &configs).expect("one organization");
    for (k, (p, config)) in s.points.iter().zip(&configs).enumerate() {
        let want = RefMachine::new(&s.org, p).run(&trace);
        let simulated = Totals::of(&Simulator::new(config).run(&trace));
        prop_assert_eq!(simulated, want, "simulate diverged at point {k}: {p:?}");
        prop_assert_eq!(
            Totals::of(&batched[k]),
            want,
            "replay_many diverged at point {k}: {p:?}"
        );
    }
    Ok(())
}

/// Both engines agree with the greedy oracle on cycles, couplets, stall
/// cycles and memory traffic at every point of every axis.
#[test]
fn event_engine_matches_tick_oracle() {
    let config = Config {
        cases: 192,
        ..Config::default()
    };
    check_config(
        &config,
        "event_engine_matches_tick_oracle",
        gen_scenario,
        shrink_scenario,
        check_engine_matches_oracle,
    );
}

/// Regression (found by the previous fuzzing setup): a store coalescing
/// into an aged write-buffer entry around a cross-pid ifetch exercised
/// the lazy drain reconstruction at delay 32.
#[test]
fn regression_coalesce_around_cross_pid_ifetch() {
    let p0 = Pid(0);
    let l1 = CacheConfig::builder(CacheSize::from_kib(1).unwrap())
        .replacement(ReplacementPolicy::Lru)
        .build()
        .unwrap();
    let s = Scenario {
        refs: vec![
            MemRef::store(WordAddr::new(0), p0),
            MemRef::ifetch(WordAddr::new(4), p0),
            MemRef::load(WordAddr::new(4), p0),
            MemRef::ifetch(WordAddr::new(0), Pid(1)),
            MemRef::store(WordAddr::new(0), p0),
            MemRef::store(WordAddr::new(0), p0),
            MemRef::load(WordAddr::new(21), p0),
        ],
        warm_start: 0,
        org: Org {
            l1i: l1,
            l1d: l1,
            unified: false,
            translation: None,
        },
        points: vec![Point::paper(47, 3, 32)],
    };
    check_engine_matches_oracle(&s).expect("regression case must pass");
}
