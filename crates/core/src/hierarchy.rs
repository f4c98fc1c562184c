//! Everything below the first-level caches: mid-level caches with their
//! write buffers and ports, and main memory.
//!
//! This is the *timing* half of the machine below the first level. Each
//! lane of the replay's lane bank owns one: it presents fill requests and
//! downstream word writes stamped with the lane's current cycle and gets
//! busy-until timestamps back. A direct run ([`Simulator`](crate::Simulator))
//! is a one-lane bank, so it drives exactly this accounting too.

use crate::system::{CycleTiming, LevelTwoConfig};
use cachetime_cache::{Cache, CacheStats, ReadOutcome, WriteOutcome};
use cachetime_mem::{FillGrant, FillRequest, MemoryUnit, WbEntry, WbPayload, WriteBuffer};
use cachetime_types::{Pid, WordAddr};

/// A mid-level cache (L2 or L3) with the write buffer feeding it from
/// above and its port timing.
///
/// Structurally a sibling of [`MemoryUnit`], but drains land in a cache
/// (which may hit, miss-around, or miss-allocate) rather than in DRAM, so
/// the logic lives here beside the hierarchy that owns it. "Designing a
/// second cache between the CPU/cache and main memory poses the same set
/// of questions as the first level of caching" — the hierarchy treats
/// every mid-level uniformly and recurses downward on misses.
#[derive(Debug, Clone)]
struct MidLevel {
    cache: Cache,
    read_cycles: u64,
    write_cycles: u64,
    wb: WriteBuffer,
    free_at: u64,
}

impl MidLevel {
    fn new(config: &LevelTwoConfig) -> Self {
        MidLevel {
            cache: Cache::new(config.cache),
            read_cycles: config.read_cycles,
            write_cycles: config.write_cycles,
            wb: WriteBuffer::new(config.wb_depth),
            free_at: 0,
        }
    }
}

/// The downstream hierarchy: mid-levels from the L1 side down
/// (`levels[0]` = L2, `levels[1]` = L3), then main memory.
///
/// The memory's busy-until cycle is not stored here: the lane bank keeps
/// it beside every lane's clock and passes it to every call that may
/// reach memory as `mem_free_at`, which is read and written in place.
#[derive(Debug, Clone)]
pub(crate) struct Downstream {
    levels: Vec<MidLevel>,
    mem: MemoryUnit,
}

impl Downstream {
    /// Builds a cold downstream hierarchy from a quantized timing half.
    pub(crate) fn new(timing: &CycleTiming) -> Self {
        Downstream {
            levels: timing
                .l2
                .iter()
                .chain(&timing.l3)
                .map(MidLevel::new)
                .collect(),
            mem: MemoryUnit::from_cycles(&timing.memory),
        }
    }

    /// Second-level statistics, if an L2 is configured.
    pub(crate) fn l2_stats(&self) -> Option<CacheStats> {
        self.levels.first().map(|l| *l.cache.stats())
    }

    /// Third-level statistics, if an L3 is configured.
    pub(crate) fn l3_stats(&self) -> Option<CacheStats> {
        self.levels.get(1).map(|l| *l.cache.stats())
    }

    /// Main-memory statistics.
    pub(crate) fn mem_stats(&self) -> &cachetime_mem::MemStats {
        self.mem.stats()
    }

    /// Whether L1 misses go straight to main memory (no L2 or L3).
    pub(crate) fn is_memory_only(&self) -> bool {
        self.levels.is_empty()
    }

    /// Whether main memory's write buffer holds any write.
    pub(crate) fn mem_writes_pending(&self) -> bool {
        self.mem.pending_writes() != 0
    }

    /// Resets statistics (warm-start boundary) without touching state.
    pub(crate) fn reset_stats(&mut self) {
        for level in &mut self.levels {
            level.cache.reset_stats();
        }
        self.mem.reset_stats();
    }

    /// Fills an L1 (sub-)block from the next level down; returns the cycle
    /// the data is fully in the L1.
    #[inline]
    pub(crate) fn fill_l1(
        &mut self,
        mem_free_at: &mut u64,
        now: u64,
        pid: Pid,
        addr: WordAddr,
        words: u32,
        victim: Option<(WordAddr, u32)>,
    ) -> FillGrant {
        // Memory-only hierarchies (the paper's baseline machine) take every
        // miss through this call; skip the recursion so the memory model
        // inlines into the per-miss hot loops.
        if self.levels.is_empty() {
            return self.mem.fill_grant(
                mem_free_at,
                now,
                FillRequest {
                    pid,
                    addr,
                    words,
                    victim,
                },
            );
        }
        self.fill_from(mem_free_at, 0, now, pid, addr, words, victim)
    }

    /// Cycles to move `words` words into the L1 from whatever services its
    /// misses: the memory's backplane rate, or one word per cycle from a
    /// mid-level cache.
    pub(crate) fn upstream_transfer_cycles(&self, words: u32) -> u64 {
        if self.levels.is_empty() {
            self.mem.cycles().transfer_cycles(words)
        } else {
            words as u64
        }
    }

    /// Services a fill request at hierarchy depth `idx` (`levels[idx]`, or
    /// main memory once the mid-levels are exhausted). Returns the cycle
    /// the requested words are fully delivered to the level above.
    #[allow(clippy::too_many_arguments)]
    fn fill_from(
        &mut self,
        mem_free_at: &mut u64,
        idx: usize,
        now: u64,
        pid: Pid,
        addr: WordAddr,
        words: u32,
        victim: Option<(WordAddr, u32)>,
    ) -> FillGrant {
        if idx >= self.levels.len() {
            return self.mem.fill_grant(
                mem_free_at,
                now,
                FillRequest {
                    pid,
                    addr,
                    words,
                    victim,
                },
            );
        }
        self.catch_up_level(mem_free_at, idx, now);
        // Read-address match against pending writes into this level.
        if let Some(i) = self.levels[idx].wb.find_overlap(pid, addr, words) {
            for _ in 0..=i {
                self.drain_one(mem_free_at, idx, now);
            }
        }

        let level = &mut self.levels[idx];
        let start = now.max(level.free_at);
        let probe_done = start + level.read_cycles;
        let block_words = level.cache.config().block().words();
        let outcome = level.cache.read(addr, pid);

        // The upstream victim moves into this level's write buffer during
        // the access, one word per cycle; the refill cannot enter the
        // upstream array until the move completes.
        let mut gate = probe_done;
        let mut victim_pending = victim;
        if let Some((vaddr, vwords)) = victim_pending {
            let level = &mut self.levels[idx];
            if !level.wb.is_full() {
                let move_done = start + vwords as u64;
                level.wb.push(WbEntry::block(pid, vaddr, vwords, move_done));
                gate = gate.max(move_done);
                victim_pending = None;
            }
        }

        let data_ready = match outcome {
            // The way-slow-hit and victim-swap penalties are first-level
            // timing knobs; a mid-level array serves these in its ordinary
            // probe time.
            ReadOutcome::Hit | ReadOutcome::SlowHit | ReadOutcome::VictimHit => probe_done,
            ReadOutcome::Miss {
                fill_words,
                victim: level_victim,
            } => {
                let fetch_start = WordAddr::new(addr.value() & !(fill_words as u64 - 1));
                let down_victim =
                    level_victim.map(|ev| (ev.addr.first_word(block_words), ev.words));
                // A mid-level array forwards upstream only once its own
                // block is fully in place.
                self.fill_from(
                    mem_free_at,
                    idx + 1,
                    probe_done,
                    pid,
                    fetch_start,
                    fill_words,
                    down_victim,
                )
                .done
            }
        };

        // Rare: the buffer was full during a dirty miss; the victim waits
        // for a forced drain after the data returns.
        if let Some((vaddr, vwords)) = victim_pending {
            let release = self.drain_one(mem_free_at, idx, data_ready);
            let move_done = release + vwords as u64;
            self.levels[idx]
                .wb
                .push(WbEntry::block(pid, vaddr, vwords, move_done));
            gate = gate.max(move_done);
        }

        // Transfer the requested words upstream at one word per cycle.
        let ready = data_ready.max(gate);
        let done = ready + words as u64;
        self.levels[idx].free_at = done;
        FillGrant { ready, done }
    }

    /// Routes a downstream word write (write-around or write-through) into
    /// the first mid-level's write buffer or, without one, the memory's.
    #[inline]
    pub(crate) fn write_word_down(
        &mut self,
        mem_free_at: &mut u64,
        now: u64,
        pid: Pid,
        addr: WordAddr,
    ) -> u64 {
        if self.levels.is_empty() {
            return self.mem.write_word(mem_free_at, now, pid, addr);
        }
        self.catch_up_level(mem_free_at, 0, now);
        let level = &mut self.levels[0];
        if level.wb.try_coalesce(pid, addr) {
            return now;
        }
        if level.wb.is_full() {
            let release = self.drain_one(mem_free_at, 0, now);
            self.levels[0].wb.push(WbEntry::word(pid, addr, release));
            return release;
        }
        level.wb.push(WbEntry::word(pid, addr, now));
        now
    }

    /// Routes a whole-block downstream write (a mid-level victim or a
    /// forwarded write-around block) to depth `idx`.
    fn write_block_down(
        &mut self,
        mem_free_at: &mut u64,
        idx: usize,
        now: u64,
        pid: Pid,
        addr: WordAddr,
        words: u32,
    ) -> u64 {
        if idx >= self.levels.len() {
            return self.mem.write_block(mem_free_at, now, pid, addr, words);
        }
        self.catch_up_level(mem_free_at, idx, now);
        if self.levels[idx].wb.is_full() {
            let release = self.drain_one(mem_free_at, idx, now);
            self.levels[idx]
                .wb
                .push(WbEntry::block(pid, addr, words, release));
            return release;
        }
        self.levels[idx]
            .wb
            .push(WbEntry::block(pid, addr, words, now));
        now
    }

    /// Retires writes into `levels[idx]` that would have started while its
    /// port sat idle strictly before `now` (as at the memory level).
    fn catch_up_level(&mut self, mem_free_at: &mut u64, idx: usize, now: u64) {
        loop {
            let level = &self.levels[idx];
            let Some(front) = level.wb.front() else {
                return;
            };
            if front.ready_at.max(level.free_at) < now {
                // Backdate to the true launch time (see the memory-level
                // catch-up).
                let ready = front.ready_at;
                self.drain_one(mem_free_at, idx, ready);
            } else {
                return;
            }
        }
    }

    /// Pops one write into `levels[idx]` and absorbs it (forwarding
    /// downstream on a miss without allocation). Returns the cycle the
    /// level's port frees up.
    fn drain_one(&mut self, mem_free_at: &mut u64, idx: usize, earliest: u64) -> u64 {
        let (entry, start, write_cycles) = {
            let level = &mut self.levels[idx];
            let entry = level.wb.pop_front().expect("drain_one on empty buffer");
            let start = earliest.max(entry.ready_at).max(level.free_at);
            (entry, start, level.write_cycles)
        };
        let addr = WordAddr::new(entry.start);
        let done = match entry.payload {
            WbPayload::Block { words } => {
                let outcome = self.levels[idx].cache.write_range(addr, entry.pid, words);
                self.absorb_outcome(
                    mem_free_at,
                    idx,
                    outcome,
                    start,
                    entry.pid,
                    addr,
                    words,
                    write_cycles,
                )
            }
            WbPayload::Words { mask } => {
                // Each buffered word is one write access at this level;
                // they stream through the port back to back.
                let mut t = start;
                for bit in 0..64u32 {
                    if mask & (1u64 << bit) != 0 {
                        let waddr = WordAddr::new(entry.start + bit as u64);
                        let outcome = self.levels[idx].cache.write(waddr, entry.pid);
                        t = self.absorb_outcome(
                            mem_free_at,
                            idx,
                            outcome,
                            t,
                            entry.pid,
                            waddr,
                            1,
                            write_cycles,
                        );
                    }
                }
                t
            }
        };
        self.levels[idx].free_at = done;
        done
    }

    /// Applies the timing of one absorbed write outcome at depth `idx`.
    #[allow(clippy::too_many_arguments)]
    fn absorb_outcome(
        &mut self,
        mem_free_at: &mut u64,
        idx: usize,
        outcome: WriteOutcome,
        start: u64,
        pid: Pid,
        addr: WordAddr,
        words: u32,
        write_cycles: u64,
    ) -> u64 {
        match outcome {
            WriteOutcome::Hit { through } | WriteOutcome::VictimHit { through } => {
                if through {
                    self.write_block_down(mem_free_at, idx + 1, start, pid, addr, words);
                }
                start + write_cycles
            }
            WriteOutcome::MissNoAllocate => {
                // Write around this level toward the next one down.
                let accepted = self.write_block_down(mem_free_at, idx + 1, start, pid, addr, words);
                accepted.max(start + write_cycles)
            }
            WriteOutcome::MissAllocate {
                fill_words,
                victim,
                through,
            } => {
                let block_words = self.levels[idx].cache.config().block().words();
                let fetch_start = WordAddr::new(addr.value() & !(fill_words as u64 - 1));
                let down_victim = victim.map(|ev| (ev.addr.first_word(block_words), ev.words));
                let filled = self
                    .fill_from(
                        mem_free_at,
                        idx + 1,
                        start,
                        pid,
                        fetch_start,
                        fill_words,
                        down_victim,
                    )
                    .done;
                if through {
                    self.write_block_down(mem_free_at, idx + 1, filled, pid, addr, words);
                }
                filled + write_cycles
            }
        }
    }
}
