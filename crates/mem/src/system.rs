//! The stateful main-memory unit: busy tracking plus its write buffer.

use crate::config::MemoryConfig;
use crate::stats::MemStats;
use crate::timing::MemoryCycles;
use crate::write_buffer::{WbEntry, WriteBuffer};
use cachetime_types::{CycleTime, Pid, WordAddr};

/// A cache-fill request presented to the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillRequest {
    /// Issuing process.
    pub pid: Pid,
    /// First word of the fetch region.
    pub addr: WordAddr,
    /// Words to fetch.
    pub words: u32,
    /// A dirty victim block `(first_word, words)` displaced by this fill.
    /// Per the paper, "the memory read is started immediately, and the
    /// dirty block is transferred into the write buffer during the memory
    /// latency period".
    pub victim: Option<(WordAddr, u32)>,
}

/// The two timestamps of a serviced fill: when the first words can start
/// entering the requesting cache, and when the whole transfer completes.
///
/// The gap is what the paper's miss-penalty-reduction techniques exploit:
/// early continuation and load forwarding let the CPU resume between
/// `ready` and `done`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillGrant {
    /// Cycle at which the transfer into the requester begins.
    pub ready: u64,
    /// Cycle at which the full fetch region is in the requester.
    pub done: u64,
}

/// The grant of a clean fill: one that finds nothing to drain, match or
/// park (no dirty victim, an empty write buffer).
///
/// The read starts once the memory is free (`free_at`), spends `lead`
/// cycles on the address and the DRAM latency
/// ([`MemoryCycles::read_lead_cycles`]), then `transfer` cycles on the
/// backplane, and leaves the memory busy for `recovery` more. This is the
/// one definition of that arithmetic: [`MemoryUnit::fill_grant`] prices
/// every fill's read with it, and a timing replay that prices many
/// memories at once calls it per memory on its own copies of the cycle
/// counts.
#[inline(always)]
pub fn clean_fill(
    free_at: &mut u64,
    now: u64,
    lead: u64,
    transfer: u64,
    recovery: u64,
) -> FillGrant {
    let ready = now.max(*free_at) + lead;
    let done = ready + transfer;
    *free_at = done + recovery;
    FillGrant { ready, done }
}

/// Main memory as a single functional unit behind a write buffer, minus
/// the one cycle its owner keeps: when the unit is next free.
///
/// Every method takes that busy-until cycle as `free_at` and reads and
/// writes it in place, so an owner that keeps many memories' clocks side
/// by side (a timing replay's lanes) needs no copy of it here.
/// [`MemorySystem`] is this unit with its own `free_at`.
#[derive(Debug, Clone)]
pub struct MemoryUnit {
    cycles: MemoryCycles,
    wb: WriteBuffer,
    stats: MemStats,
}

impl MemoryUnit {
    /// Creates an idle unit from its cycle-level description (its owner
    /// starts `free_at` at 0).
    pub fn from_cycles(cycles: &MemoryCycles) -> Self {
        MemoryUnit {
            cycles: *cycles,
            wb: WriteBuffer::new(cycles.wb_depth),
            stats: MemStats::default(),
        }
    }

    /// Returns the cycle arithmetic in force.
    pub fn cycles(&self) -> &MemoryCycles {
        &self.cycles
    }

    /// Returns the accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Resets statistics (warm-start boundary) without touching state.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// Number of writes currently buffered.
    pub fn pending_writes(&self) -> usize {
        self.wb.len()
    }

    /// See [`MemorySystem::fill_grant`].
    #[inline]
    pub fn fill_grant(&mut self, free_at: &mut u64, now: u64, req: FillRequest) -> FillGrant {
        self.stats.reads += 1;
        self.stats.read_words += req.words as u64;
        // Clean-miss fast path: with nothing buffered and no victim there
        // is nothing to drain, match, or park — `fill_behind_writes`
        // reduces to exactly this arithmetic (for any buffer capacity).
        if req.victim.is_none() && self.wb.is_empty() {
            let lead = self.cycles.read_lead_cycles();
            let transfer = self.cycles.transfer_cycles(req.words);
            return clean_fill(free_at, now, lead, transfer, self.cycles.recovery_cycles());
        }
        self.fill_behind_writes(free_at, now, req)
    }

    /// The rest of [`fill_grant`](Self::fill_grant), out of line so the
    /// fast path inlines into its callers: drain or match buffered writes,
    /// then read, parking the dirty victim (if any) in the buffer.
    #[inline(never)]
    fn fill_behind_writes(&mut self, free_at: &mut u64, now: u64, req: FillRequest) -> FillGrant {
        let lead = self.cycles.read_lead_cycles();
        let transfer = self.cycles.transfer_cycles(req.words);
        let recovery = self.cycles.recovery_cycles();
        self.catch_up(free_at, now);
        if !self.cycles.read_priority {
            while !self.wb.is_empty() {
                self.drain_one(free_at, now);
            }
        } else if let Some(i) = self.wb.find_overlap(req.pid, req.addr, req.words) {
            self.stats.read_match_stalls += 1;
            for _ in 0..=i {
                self.drain_one(free_at, now);
            }
        }

        // Unbuffered system: there is nowhere to park the victim, so the
        // classic penalty applies — write the dirty block back *before*
        // starting the fetch. (This serialization is exactly what the
        // write buffer exists to hide.)
        if let Some((_, vwords)) = req.victim.filter(|_| self.wb.capacity() == 0) {
            self.synchronous_write(free_at, now, vwords);
        }

        let grant = clean_fill(free_at, now, lead, transfer, recovery);
        // Victim already written back synchronously above, or none.
        let Some((vaddr, vwords)) = req.victim.filter(|_| self.wb.capacity() != 0) else {
            return grant;
        };
        // The victim moves cache -> write buffer one word per cycle during
        // the latency period; the incoming transfer cannot enter the cache
        // array until the move completes.
        let move_start = if self.wb.is_full() {
            // Rare with the paper's 4-deep buffer: wait for the read to
            // finish, then force the head out to make room.
            self.stats.full_stalls += 1;
            let after_read = *free_at;
            self.drain_one(free_at, after_read)
        } else {
            grant.ready - lead
        };
        let move_done = move_start + vwords as u64;
        self.wb
            .push(WbEntry::block(req.pid, vaddr, vwords, move_done));
        let ready = grant.ready.max(move_done);
        FillGrant {
            ready,
            done: ready + transfer,
        }
    }

    /// See [`MemorySystem::write_word`].
    #[inline]
    pub fn write_word(&mut self, free_at: &mut u64, now: u64, pid: Pid, addr: WordAddr) -> u64 {
        self.catch_up(free_at, now);
        if self.wb.capacity() == 0 {
            return self.synchronous_write(free_at, now, 1);
        }
        if self.cycles.wb_coalesce && self.wb.try_coalesce(pid, addr) {
            self.stats.coalesced_writes += 1;
            return now;
        }
        let ready = if self.wb.is_full() {
            self.stats.full_stalls += 1;
            self.drain_one(free_at, now)
        } else {
            now
        };
        self.wb.push(WbEntry::word(pid, addr, ready));
        ready
    }

    /// See [`MemorySystem::write_block`].
    pub fn write_block(
        &mut self,
        free_at: &mut u64,
        now: u64,
        pid: Pid,
        addr: WordAddr,
        words: u32,
    ) -> u64 {
        self.catch_up(free_at, now);
        if self.wb.capacity() == 0 {
            return self.synchronous_write(free_at, now, words);
        }
        let ready = if self.wb.is_full() {
            self.stats.full_stalls += 1;
            self.drain_one(free_at, now)
        } else {
            now
        };
        self.wb.push(WbEntry::block(pid, addr, words, ready));
        ready
    }

    /// See [`MemorySystem::drain_all`].
    pub(crate) fn drain_all(&mut self, free_at: &mut u64, now: u64) -> u64 {
        while !self.wb.is_empty() {
            self.drain_one(free_at, now);
        }
        *free_at
    }

    /// Retires buffered writes that would have started strictly before
    /// `now`: the controller launches a write once the memory is idle and
    /// the entry has aged past the drain delay (the aging window is what
    /// lets later stores coalesce into it). A read arriving at the same
    /// cycle as a launchable write still wins (read priority), but a write
    /// already in flight is not preempted.
    #[inline]
    fn catch_up(&mut self, free_at: &mut u64, now: u64) {
        while let Some(e) = self.wb.front() {
            let eligible = e.ready_at + self.cycles.wb_drain_delay;
            if eligible.max(*free_at) < now {
                // Backdate the launch to when it actually would have
                // started; passing `now` would wrongly stretch the busy
                // window into the present.
                self.drain_one(free_at, eligible);
            } else {
                break;
            }
        }
    }

    /// Performs an unbuffered write: the requester waits for the bus
    /// release. Used when the write-buffer depth is zero.
    fn synchronous_write(&mut self, free_at: &mut u64, now: u64, words: u32) -> u64 {
        let start = now.max(*free_at);
        let bus_release = start + self.cycles.write_bus_time(words);
        *free_at = bus_release + self.cycles.write_op_cycles() + self.cycles.recovery_cycles();
        self.stats.writes += 1;
        self.stats.write_words += words as u64;
        bus_release
    }

    /// Pops and retires the oldest write; returns its bus-release cycle.
    #[inline]
    fn drain_one(&mut self, free_at: &mut u64, earliest: u64) -> u64 {
        let e = self.wb.pop_front().expect("drain_one on empty buffer");
        let start = earliest.max(e.ready_at).max(*free_at);
        let words = e.words();
        let bus_release = start + self.cycles.write_bus_time(words);
        *free_at = bus_release + self.cycles.write_op_cycles() + self.cycles.recovery_cycles();
        self.stats.writes += 1;
        self.stats.write_words += words as u64;
        bus_release
    }
}

/// Main memory modeled as a single functional unit behind a write buffer.
///
/// The object is driven event-style: each public method takes the current
/// cycle `now` and returns the cycle at which the requester may proceed.
/// Between events, pending buffered writes "catch up": any write that could
/// have started during the idle past is retired, so lazy evaluation matches
/// what a cycle-by-cycle model would do.
///
/// # Examples
///
/// ```
/// use cachetime_mem::{FillRequest, MemoryConfig, MemorySystem};
/// use cachetime_types::{CycleTime, Pid, WordAddr};
///
/// let mut mem = MemorySystem::new(&MemoryConfig::paper_default(),
///                                 CycleTime::from_ns(40)?);
/// let done = mem.fill(0, FillRequest {
///     pid: Pid(0),
///     addr: WordAddr::new(0x100),
///     words: 4,
///     victim: None,
/// });
/// assert_eq!(done, 10); // Table 2: 10-cycle read at 40ns
/// # Ok::<(), cachetime_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    unit: MemoryUnit,
    /// Cycle at which the memory unit can start its next operation.
    free_at: u64,
}

impl MemorySystem {
    /// Creates an idle memory system.
    pub fn new(config: &MemoryConfig, cycle_time: CycleTime) -> Self {
        Self::from_cycles(&MemoryCycles::new(config, cycle_time))
    }

    /// Creates an idle memory system from its cycle-level description.
    pub fn from_cycles(cycles: &MemoryCycles) -> Self {
        MemorySystem {
            unit: MemoryUnit::from_cycles(cycles),
            free_at: 0,
        }
    }

    /// Returns the cycle arithmetic in force.
    pub fn cycles(&self) -> &MemoryCycles {
        self.unit.cycles()
    }

    /// Returns the accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        self.unit.stats()
    }

    /// Resets statistics (warm-start boundary) without touching state.
    pub fn reset_stats(&mut self) {
        self.unit.reset_stats();
    }

    /// Number of writes currently buffered (for tests and ablations).
    pub fn pending_writes(&self) -> usize {
        self.unit.pending_writes()
    }

    /// Performs a block read for a cache fill.
    ///
    /// Returns the cycle at which the fetched words are fully in the cache
    /// (the CPU's miss completion time). Reads have priority over buffered
    /// writes unless configured otherwise, but an address match forces the
    /// matching write (and everything ahead of it) to drain first.
    pub fn fill(&mut self, now: u64, req: FillRequest) -> u64 {
        self.fill_grant(now, req).done
    }

    /// Like [`fill`](Self::fill), but exposes both the transfer-start and
    /// completion cycles (see [`FillGrant`]).
    #[inline]
    pub fn fill_grant(&mut self, now: u64, req: FillRequest) -> FillGrant {
        self.unit.fill_grant(&mut self.free_at, now, req)
    }

    /// Accepts a downstream word write (write-through or write-around).
    ///
    /// Returns the cycle at which the word is in the buffer and the CPU may
    /// proceed — `now` unless the buffer was full.
    #[inline]
    pub fn write_word(&mut self, now: u64, pid: Pid, addr: WordAddr) -> u64 {
        self.unit.write_word(&mut self.free_at, now, pid, addr)
    }

    /// Accepts a whole-block downstream write that is *not* overlapped with
    /// a fill (e.g. an explicit flush, or a mid-level victim in a two-level
    /// hierarchy whose move is accounted upstream).
    pub fn write_block(&mut self, now: u64, pid: Pid, addr: WordAddr, words: u32) -> u64 {
        self.unit
            .write_block(&mut self.free_at, now, pid, addr, words)
    }

    /// Retires every buffered write and returns the cycle the last one
    /// completed (including its recovery).
    pub fn drain_all(&mut self, now: u64) -> u64 {
        self.unit.drain_all(&mut self.free_at, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachetime_types::Nanos;

    fn mk(depth: u32) -> MemorySystem {
        let config = MemoryConfig::builder().wb_depth(depth).build().unwrap();
        MemorySystem::new(&config, CycleTime::from_ns(40).unwrap())
    }

    fn fill_req(addr: u64, words: u32) -> FillRequest {
        FillRequest {
            pid: Pid(0),
            addr: WordAddr::new(addr),
            words,
            victim: None,
        }
    }

    #[test]
    fn clean_fill_takes_table2_read_time() {
        let mut mem = mk(4);
        assert_eq!(mem.fill(0, fill_req(0, 4)), 10);
        assert_eq!(mem.stats().reads, 1);
        assert_eq!(mem.stats().read_words, 4);
    }

    #[test]
    fn back_to_back_fills_respect_recovery() {
        let mut mem = mk(4);
        let first = mem.fill(0, fill_req(0, 4));
        assert_eq!(first, 10);
        // Memory free at 13 (10 + recovery 3); second fill issued at 10
        // starts at 13 and completes at 23.
        let second = mem.fill(first, fill_req(64, 4));
        assert_eq!(second, 23);
    }

    #[test]
    fn fill_after_long_idle_starts_immediately() {
        let mut mem = mk(4);
        mem.fill(0, fill_req(0, 4));
        assert_eq!(mem.fill(1000, fill_req(64, 4)), 1010);
    }

    #[test]
    fn short_victim_write_back_fully_hidden() {
        // Victim move: 4 cycles from start; data starts arriving at
        // 1 + 5 = 6 cycles. The write-back is hidden (paper: "if the
        // latency is sufficiently long, the write back is completely
        // hidden").
        let mut mem = mk(4);
        let req = FillRequest {
            victim: Some((WordAddr::new(128), 4)),
            ..fill_req(0, 4)
        };
        assert_eq!(mem.fill(0, req), 10);
        assert_eq!(mem.pending_writes(), 1);
    }

    #[test]
    fn long_victim_move_delays_fill() {
        // 16-word blocks: move done at 16, data ready to enter at 6; the
        // fill transfer is gated by the move: 16 + 16 = 32, not
        // 1 + 5 + 16 = 22. ("since all the data paths are set to be one
        // word wide, this is not always the case for long block sizes")
        let mut mem = mk(4);
        let req = FillRequest {
            pid: Pid(0),
            addr: WordAddr::new(0),
            words: 16,
            victim: Some((WordAddr::new(256), 16)),
        };
        assert_eq!(mem.fill(0, req), 32);
    }

    #[test]
    fn buffered_write_drains_during_idle() {
        let mut mem = mk(4);
        mem.write_word(0, Pid(0), WordAddr::new(0));
        assert_eq!(mem.pending_writes(), 1);
        // Long idle: by cycle 100 the write has retired.
        mem.fill(100, fill_req(999, 4));
        assert_eq!(mem.stats().writes, 1);
        assert_eq!(mem.pending_writes(), 0);
    }

    #[test]
    fn read_overtakes_unrelated_write_present_at_same_cycle() {
        let mut mem = mk(4);
        mem.write_word(5, Pid(0), WordAddr::new(0));
        // Read priority: the fill issued at the same cycle goes first.
        assert_eq!(mem.fill(5, fill_req(1000, 4)), 15);
        assert_eq!(mem.stats().read_match_stalls, 0);
    }

    #[test]
    fn address_match_forces_drain_first() {
        let mut mem = mk(4);
        mem.write_word(5, Pid(0), WordAddr::new(2));
        // Fill of the same region must wait for the write to retire:
        // write start 5, bus release 5 + 1 + 1 = 7, write op 3 + recovery 3
        // -> memory free at 13; fill completes 13 + 10 = 23.
        assert_eq!(mem.fill(5, fill_req(0, 4)), 23);
        assert_eq!(mem.stats().read_match_stalls, 1);
    }

    #[test]
    fn address_match_respects_pid() {
        let mut mem = mk(4);
        mem.write_word(5, Pid(1), WordAddr::new(2));
        // Same virtual address, different process: no match.
        assert_eq!(mem.fill(5, fill_req(0, 4)), 15);
        assert_eq!(mem.stats().read_match_stalls, 0);
    }

    #[test]
    fn no_read_priority_drains_everything() {
        let config = MemoryConfig::builder()
            .read_priority(false)
            .build()
            .unwrap();
        let mut mem = MemorySystem::new(&config, CycleTime::from_ns(40).unwrap());
        mem.write_word(5, Pid(0), WordAddr::new(1000));
        let done = mem.fill(5, fill_req(0, 4));
        assert!(done > 15, "fill must wait behind the unrelated write");
        assert_eq!(mem.stats().writes, 1);
    }

    #[test]
    fn full_buffer_stalls_word_write() {
        let config = MemoryConfig::builder()
            .wb_depth(1)
            .wb_coalesce(false)
            .build()
            .unwrap();
        let mut mem = MemorySystem::new(&config, CycleTime::from_ns(40).unwrap());
        assert_eq!(mem.write_word(0, Pid(0), WordAddr::new(0)), 0);
        let accepted = mem.write_word(0, Pid(0), WordAddr::new(100));
        assert!(accepted > 0, "second write waits for a drain");
        assert_eq!(mem.stats().full_stalls, 1);
    }

    #[test]
    fn coalescing_merges_sequential_words_while_memory_busy() {
        let mut mem = mk(4);
        // Occupy the memory so buffered writes cannot start draining.
        mem.fill(0, fill_req(999, 4));
        mem.write_word(1, Pid(0), WordAddr::new(0));
        mem.write_word(3, Pid(0), WordAddr::new(1));
        mem.write_word(5, Pid(0), WordAddr::new(2));
        assert_eq!(mem.pending_writes(), 1);
        assert_eq!(mem.stats().coalesced_writes, 2);
    }

    #[test]
    fn drain_delay_aggregates_then_drains() {
        // Within the drain window, writes aggregate; once the window
        // passes, the controller launches the write during idle time.
        let mut mem = mk(4);
        mem.write_word(0, Pid(0), WordAddr::new(0));
        mem.write_word(1, Pid(0), WordAddr::new(1));
        assert_eq!(mem.stats().coalesced_writes, 1, "aggregation window");
        assert_eq!(mem.stats().writes, 0);
        // Long after the delay, the next event observes the drain done.
        mem.write_word(1000, Pid(0), WordAddr::new(500));
        assert_eq!(mem.stats().writes, 1);
        assert_eq!(mem.pending_writes(), 1);
    }

    #[test]
    fn zero_drain_delay_restores_eager_draining() {
        let config = MemoryConfig::builder()
            .wb_drain_delay(0)
            .wb_coalesce(false)
            .build()
            .unwrap();
        let mut mem = MemorySystem::new(&config, CycleTime::from_ns(40).unwrap());
        mem.write_word(0, Pid(0), WordAddr::new(0));
        mem.write_word(1, Pid(0), WordAddr::new(100));
        assert_eq!(mem.stats().writes, 1, "first write launched at once");
    }

    #[test]
    fn drain_all_flushes() {
        let mut mem = mk(4);
        mem.write_word(0, Pid(0), WordAddr::new(0));
        mem.write_word(0, Pid(0), WordAddr::new(500));
        let free = mem.drain_all(0);
        assert_eq!(mem.pending_writes(), 0);
        assert_eq!(mem.stats().writes, 2);
        assert!(free > 0);
    }

    #[test]
    fn uniform_latency_fill_times() {
        // Section 5 grid point: 260ns uniform latency, 1 W/cycle, 40ns
        // clock -> 12-cycle read for a 4-word block (footnote 13).
        let config =
            MemoryConfig::uniform_latency(Nanos(260), crate::TransferRate::WordsPerCycle(1))
                .unwrap();
        let mut mem = MemorySystem::new(&config, CycleTime::from_ns(40).unwrap());
        assert_eq!(mem.fill(0, fill_req(0, 4)), 12);
    }

    #[test]
    fn stats_reset_keeps_state() {
        let mut mem = mk(4);
        mem.write_word(0, Pid(0), WordAddr::new(0));
        mem.reset_stats();
        assert_eq!(mem.stats().operations(), 0);
        assert_eq!(mem.pending_writes(), 1, "state survives the reset");
    }
}
