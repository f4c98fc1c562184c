//! The cache model: tag lookup, fills, evictions, and write handling.

use crate::block::{count_words, has_word, set_words, Frames};
use crate::config::{CacheConfig, WriteAllocate, WritePolicy};
use crate::features::WayPrediction;
use crate::mapping::AddressMap;
use crate::replacement::Replacer;
use crate::stats::CacheStats;
use cachetime_types::{BlockAddr, Pid, WordAddr};

/// A block displaced from the cache that must be written to the next level.
///
/// Only *dirty* victims generate an `Eviction`; clean victims vanish
/// silently (their replacement is still counted in [`CacheStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Block address of the victim.
    pub addr: BlockAddr,
    /// Words transferred on the write-back: the entire block, "regardless of
    /// which words were dirty" (paper, section 2).
    pub words: u32,
    /// How many of those words were actually dirty (for the paper's smaller
    /// write-traffic ratio).
    pub dirty_words: u32,
}

/// The organizational result of a read access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The word was present; a hit costs one CPU cycle. With way
    /// prediction enabled this is a *first* hit (predicted way was
    /// right).
    Hit,
    /// The word was present but in a way other than the predicted one:
    /// the lookup needed a second probe round. Only produced when way
    /// prediction is enabled.
    SlowHit,
    /// The word missed the cache proper but its block was found in the
    /// victim buffer and swapped back in — no fetch from the next
    /// level. Only produced when a victim cache is enabled.
    VictimHit,
    /// The word was absent; `fill_words` words were fetched from the next
    /// level, displacing `victim` if it was dirty.
    Miss {
        /// Number of words fetched (the fetch size, or the block size for
        /// whole-block fetching).
        fill_words: u32,
        /// The dirty block displaced by the fill, if any.
        victim: Option<Eviction>,
    },
}

impl ReadOutcome {
    /// Returns `true` when the word was found in the cache proper
    /// ([`ReadOutcome::Hit`] or [`ReadOutcome::SlowHit`]).
    pub const fn is_hit(&self) -> bool {
        matches!(self, ReadOutcome::Hit | ReadOutcome::SlowHit)
    }
}

/// The organizational result of a write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The block was present. In a write-back cache the word is now dirty;
    /// in a write-through cache one word must also go downstream.
    Hit {
        /// `true` if the cache is write-through and the word travels to the
        /// next level as well.
        through: bool,
    },
    /// The block missed the cache proper but was found in the victim
    /// buffer and swapped back in; the write then proceeded as a hit.
    /// Only produced when a victim cache is enabled.
    VictimHit {
        /// `true` if the cache is write-through and the word also
        /// travels downstream.
        through: bool,
    },
    /// Write miss in a no-allocate cache: the word bypasses the cache and
    /// goes downstream (through the write buffer).
    MissNoAllocate,
    /// Write miss in a write-allocate cache: the block was fetched first.
    MissAllocate {
        /// Number of words fetched for the allocation.
        fill_words: u32,
        /// The dirty block displaced by the fill, if any.
        victim: Option<Eviction>,
        /// `true` if the cache is write-through and the word also travels
        /// downstream.
        through: bool,
    },
}

impl WriteOutcome {
    /// Returns `true` if the access hit.
    pub const fn is_hit(&self) -> bool {
        matches!(self, WriteOutcome::Hit { .. })
    }
}

/// A set-associative cache with per-word valid/dirty state and virtual
/// (PID-extended) tags.
///
/// The model is purely organizational: methods report *what happened*
/// ([`ReadOutcome`]/[`WriteOutcome`]) and the timing engine in the core
/// crate translates outcomes into cycles. See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    map: AddressMap,
    frames: Frames,
    replacer: Replacer,
    stats: CacheStats,
    victim: Option<VictimBuf>,
    pred: Option<WayPred>,
}

/// A small fully-associative FIFO buffer of recently evicted blocks,
/// oldest first. Victim caching requires whole-block fetch, so every word
/// of a parked block is valid; only its dirty limbs travel with it, in
/// the frame store's limb form: `limbs` per entry in `dirty`, in entry
/// order.
#[derive(Debug, Clone)]
struct VictimBuf {
    cap: usize,
    limbs: usize,
    entries: Vec<(BlockAddr, Pid)>,
    dirty: Vec<u64>,
}

impl VictimBuf {
    fn new(cap: usize, limbs: usize) -> Self {
        VictimBuf {
            cap,
            limbs,
            entries: Vec::with_capacity(cap + 1),
            dirty: Vec::with_capacity((cap + 1) * limbs),
        }
    }

    fn position(&self, block: BlockAddr, pid: Pid, virtual_tags: bool) -> Option<usize> {
        self.entries
            .iter()
            .position(|&(b, owner)| b == block && (!virtual_tags || owner == pid))
    }

    /// Parks a block at the young end.
    fn push(&mut self, block: BlockAddr, owner: Pid, dirty: &[u64]) {
        self.entries.push((block, owner));
        self.dirty.extend_from_slice(dirty);
    }

    /// Removes entry `pos`, copying its dirty limbs into `dirty`.
    fn take(&mut self, pos: usize, dirty: &mut [u64]) {
        let at = pos * self.limbs;
        dirty.copy_from_slice(&self.dirty[at..at + self.limbs]);
        self.dirty.drain(at..at + self.limbs);
        self.entries.remove(pos);
    }

    /// Cleans entry `i`, returning how many of its words were dirty.
    fn take_dirty(&mut self, i: usize) -> u32 {
        let dirty = &mut self.dirty[i * self.limbs..(i + 1) * self.limbs];
        let count = count_words(dirty);
        dirty.fill(0);
        count
    }

    /// Drops the oldest entry, returning its block and dirty-word count.
    fn pop_oldest(&mut self) -> (BlockAddr, u32) {
        let dirty = count_words(&self.dirty[..self.limbs]);
        self.dirty.drain(..self.limbs);
        (self.entries.remove(0).0, dirty)
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.dirty.clear();
    }
}

/// Per-set way-prediction state. MRU keeps one predicted way per set;
/// multi-column keeps `ways` columns per set, selected by the low tag
/// bits, so distinct blocks in one set can each retain their own
/// "major" way.
#[derive(Debug, Clone)]
struct WayPred {
    kind: WayPrediction,
    cols: u64,
    table: Vec<u32>,
}

impl WayPred {
    fn new(kind: WayPrediction, sets: u64, ways: u32) -> Self {
        let cols = match kind {
            WayPrediction::Mru => 1,
            WayPrediction::MultiColumn => ways as u64,
        };
        let mut p = WayPred {
            kind,
            cols,
            table: vec![0; (sets * cols) as usize],
        };
        p.reset();
        p
    }

    fn reset(&mut self) {
        for (i, e) in self.table.iter_mut().enumerate() {
            *e = match self.kind {
                WayPrediction::Mru => 0,
                // Each column's initial guess is its own "major" way.
                WayPrediction::MultiColumn => (i as u64 % self.cols) as u32,
            };
        }
    }

    #[inline]
    fn idx(&self, set: u64, tag: u64) -> usize {
        let col = match self.kind {
            WayPrediction::Mru => 0,
            WayPrediction::MultiColumn => tag % self.cols,
        };
        (set * self.cols + col) as usize
    }

    #[inline]
    fn predict(&self, set: u64, tag: u64) -> u32 {
        self.table[self.idx(set, tag)]
    }

    #[inline]
    fn update(&mut self, set: u64, tag: u64, way: u32) {
        let i = self.idx(set, tag);
        self.table[i] = way;
    }
}

impl Cache {
    /// Creates an empty (all-invalid) cache with the given organization.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.assoc().ways();
        let frames = Frames::new((sets * ways as u64) as usize, config.block().words());
        let victim = config
            .features()
            .victim_cache()
            .map(|v| VictimBuf::new(v.entries() as usize, frames.limbs()));
        let pred = config
            .features()
            .way_prediction()
            .map(|kind| WayPred::new(kind, sets, ways));
        Cache {
            config,
            map: AddressMap::new(sets, config.block().words()),
            frames,
            replacer: Replacer::new(config.replacement(), sets, ways, config.rng_seed()),
            stats: CacheStats::default(),
            victim,
            pred,
        }
    }

    /// Returns the configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Returns the accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics (used at the warm-start boundary) without
    /// touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Returns `true` if a read of `addr` by `pid` would hit, without
    /// changing any state (not even replacement metadata).
    pub fn probe(&self, addr: WordAddr, pid: Pid) -> bool {
        self.find(addr, pid).is_some()
    }

    /// Performs a read access (load or instruction fetch).
    ///
    /// With way prediction enabled, hits are classified as
    /// [`ReadOutcome::Hit`] (predicted way was right) or
    /// [`ReadOutcome::SlowHit`] (second probe round needed); with a
    /// victim buffer, misses that find their block there come back as
    /// [`ReadOutcome::VictimHit`].
    pub fn read(&mut self, addr: WordAddr, pid: Pid) -> ReadOutcome {
        self.stats.reads += 1;
        if let Some(way) = self.find(addr, pid) {
            let set = self.map.set_index(addr);
            let tag = self.map.tag(addr);
            let first = match &self.pred {
                Some(p) => p.predict(set, tag) == way,
                None => true,
            };
            if self.pred.is_some() {
                if first {
                    self.stats.way_first_hits += 1;
                    self.stats.way_probe_rounds += 1;
                } else {
                    self.stats.way_slow_hits += 1;
                    self.stats.way_probe_rounds += 2;
                }
            }
            self.touch(set, way, tag);
            return if first {
                ReadOutcome::Hit
            } else {
                ReadOutcome::SlowHit
            };
        }
        self.stats.read_misses += 1;
        if self.victim_swap(addr, pid) {
            return ReadOutcome::VictimHit;
        }
        let (fill_words, victim) = self.fill(addr, pid);
        ReadOutcome::Miss { fill_words, victim }
    }

    /// Performs a write access (store).
    ///
    /// In a no-allocate cache, a store whose *tag* matches but whose word is
    /// not yet valid (sub-block caches only) is treated as a hit that
    /// validates the word: the CPU supplies the whole word, so no fetch is
    /// needed.
    pub fn write(&mut self, addr: WordAddr, pid: Pid) -> WriteOutcome {
        self.store(addr, pid, 1)
    }

    /// Performs one write access covering `words` consecutive words
    /// starting at `addr` (all within one block). Used when a lower level
    /// absorbs a whole victim block from the level above as a single
    /// access.
    ///
    /// Counts as one write in the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a block boundary.
    pub fn write_range(&mut self, addr: WordAddr, pid: Pid, words: u32) -> WriteOutcome {
        let block_words = self.config.block().words();
        assert!(
            addr.offset_in_block(block_words) + words <= block_words,
            "write_range crosses a block boundary"
        );
        self.store(addr, pid, words)
    }

    /// Invalidates every block, discarding dirty data (used between
    /// independent experiment runs). Also empties the victim buffer and
    /// resets way-prediction state.
    pub fn invalidate_all(&mut self) {
        self.frames.invalidate_all();
        if let Some(buf) = &mut self.victim {
            buf.clear();
        }
        if let Some(p) = &mut self.pred {
            p.reset();
        }
    }

    /// Writes back and cleans every dirty block, returning the evictions in
    /// set order. Blocks stay valid.
    pub fn flush_dirty(&mut self) -> Vec<Eviction> {
        let block_words = self.config.block().words();
        let ways = self.config.assoc().ways() as u64;
        let frames = self.config.sets() * ways;
        let mut out = Vec::new();
        for f in 0..frames {
            // Invalid frames are always clean.
            let dirty_words = self.frames.take_dirty(f as usize);
            if dirty_words > 0 {
                let tag = self.frames.line(f as usize).tag;
                out.push(Eviction {
                    addr: self.map.reconstruct(f / ways, tag),
                    words: block_words,
                    dirty_words,
                });
            }
        }
        if let Some(buf) = &mut self.victim {
            for i in 0..buf.entries.len() {
                let dirty_words = buf.take_dirty(i);
                if dirty_words > 0 {
                    out.push(Eviction {
                        addr: buf.entries[i].0,
                        words: block_words,
                        dirty_words,
                    });
                }
            }
        }
        out
    }

    /// Counts the blocks currently valid (for occupancy assertions in
    /// tests).
    pub fn valid_blocks(&self) -> u64 {
        self.frames.valid_count()
    }

    /// The frame-store index of `way` in `set`.
    #[inline]
    fn frame(&self, set: u64, way: u32) -> usize {
        (set * self.config.assoc().ways() as u64 + way as u64) as usize
    }

    /// Refreshes replacement recency *and* way-prediction state for one
    /// frame. Every access that touches a resident block goes through
    /// here so the predictor tracks exactly what the replacer sees.
    #[inline]
    fn touch(&mut self, set: u64, way: u32, tag: u64) {
        self.replacer.touch(set, way);
        if let Some(p) = &mut self.pred {
            p.update(set, tag, way);
        }
    }

    /// The way a block entering `set` takes: an invalid one if available,
    /// otherwise the replacement victim.
    #[inline]
    fn way_for_fill(&mut self, set: u64) -> u32 {
        let ways = self.config.assoc().ways();
        let lines = self.frames.lines(self.frame(set, 0), ways as usize);
        match lines.iter().position(|l| !l.valid) {
            Some(w) => w as u32,
            None => self.replacer.victim(set),
        }
    }

    /// One write access of `words` words at `addr` (see
    /// [`write_range`](Self::write_range), which checks the span).
    #[inline]
    fn store(&mut self, addr: WordAddr, pid: Pid, words: u32) -> WriteOutcome {
        self.stats.writes += 1;
        let through = self.config.write_policy() == WritePolicy::WriteThrough;
        if let Some(way) = self.find_tag(addr, pid) {
            self.mark_stored(addr, way, words, through);
            let set = self.map.set_index(addr);
            let tag = self.map.tag(addr);
            self.touch(set, way, tag);
            return WriteOutcome::Hit { through };
        }
        self.stats.write_misses += 1;
        // The victim buffer may hold a (possibly dirty) copy of this
        // block; writing around it would leave that copy stale, so all
        // write misses probe the buffer regardless of allocation policy.
        if self.victim_swap(addr, pid) {
            let way = self
                .find_tag(addr, pid)
                .expect("victim swap installed the block");
            self.mark_stored(addr, way, words, through);
            return WriteOutcome::VictimHit { through };
        }
        match self.config.write_allocate() {
            WriteAllocate::NoAllocate => {
                self.stats.word_writes_downstream += words as u64;
                WriteOutcome::MissNoAllocate
            }
            WriteAllocate::Allocate => {
                let (fill_words, victim) = self.fill(addr, pid);
                let way = self
                    .find_tag(addr, pid)
                    .expect("fill just installed the block");
                self.mark_stored(addr, way, words, through);
                WriteOutcome::MissAllocate {
                    fill_words,
                    victim,
                    through,
                }
            }
        }
    }

    /// Applies a store of `words` words at `addr` to the resident block in
    /// `way`: the words become valid (sub-block caches keep valid words)
    /// and, in a write-back cache, dirty; in a write-through cache they
    /// also travel downstream.
    #[inline]
    fn mark_stored(&mut self, addr: WordAddr, way: u32, words: u32, through: bool) {
        let f = self.frame(self.map.set_index(addr), way);
        let offset = addr.offset_in_block(self.config.block().words());
        if self.config.is_sub_block() {
            set_words(self.frames.valid_words_mut(f), offset, words);
        }
        if through {
            self.stats.word_writes_downstream += words as u64;
        } else {
            set_words(self.frames.dirty_words_mut(f), offset, words);
        }
    }

    /// Probes the victim buffer for `addr`'s block. On a hit the entry
    /// swaps places with a resident block of the set (which drops into
    /// the buffer) and the method returns `true`; the caller then treats
    /// the access as a hit.
    fn victim_swap(&mut self, addr: WordAddr, pid: Pid) -> bool {
        let block = addr.block(self.config.block().words());
        let virtual_tags = self.config.virtual_tags();
        let Some(pos) = self
            .victim
            .as_ref()
            .and_then(|buf| buf.position(block, pid, virtual_tags))
        else {
            return false;
        };

        let set = self.map.set_index(addr);
        let tag = self.map.tag(addr);
        let way = self.way_for_fill(set);
        let f = self.frame(set, way);
        let displaced = self.frames.line(f);
        let buf = self.victim.as_mut().expect("probed above");
        let owner = buf.entries[pos].1;
        if displaced.valid {
            self.stats.evictions += 1;
            // Parking the displaced block at the young end leaves `pos`
            // in place, and once the entry is taken the buffer holds what
            // taking it first and parking second would have left.
            let displaced_block = self.map.reconstruct(set, displaced.tag);
            buf.push(displaced_block, displaced.owner, self.frames.dirty_words(f));
        }
        self.frames.install(f, tag, owner);
        buf.take(pos, self.frames.dirty_words_mut(f));
        self.stats.victim_hits += 1;
        self.touch(set, way, tag);
        true
    }

    /// Finds the way whose tag matches *and* whose requested word is valid.
    #[inline]
    fn find(&self, addr: WordAddr, pid: Pid) -> Option<u32> {
        let way = self.find_tag(addr, pid)?;
        if self.config.is_sub_block() {
            let f = self.frame(self.map.set_index(addr), way);
            let offset = addr.offset_in_block(self.config.block().words());
            if !has_word(self.frames.valid_words(f), offset) {
                return None;
            }
        }
        Some(way)
    }

    /// Finds the way whose tag (and PID, for virtual caches) matches,
    /// ignoring word validity.
    #[inline]
    fn find_tag(&self, addr: WordAddr, pid: Pid) -> Option<u32> {
        let set = self.map.set_index(addr);
        let tag = self.map.tag(addr);
        let ways = self.config.assoc().ways() as usize;
        let virtual_tags = self.config.virtual_tags();
        self.frames
            .lines(self.frame(set, 0), ways)
            .iter()
            .position(|l| l.valid && l.tag == tag && (!virtual_tags || l.owner == pid))
            .map(|w| w as u32)
    }

    /// Installs the (sub-)block containing `addr`, selecting and displacing
    /// a victim if necessary. Returns the words fetched and the dirty victim
    /// (if any).
    fn fill(&mut self, addr: WordAddr, pid: Pid) -> (u32, Option<Eviction>) {
        let block_words = self.config.block().words();
        let fetch_words = self.config.fetch().words();
        let set = self.map.set_index(addr);
        let tag = self.map.tag(addr);
        let offset = addr.offset_in_block(block_words);
        let fetch_start = offset & !(fetch_words - 1);
        self.stats.fills += 1;
        self.stats.fill_words += fetch_words as u64;

        // Sub-block partial fill: the tag already matches, only words arrive.
        if let Some(way) = self.find_tag(addr, pid) {
            let f = self.frame(set, way);
            set_words(self.frames.valid_words_mut(f), fetch_start, fetch_words);
            self.touch(set, way, tag);
            return (fetch_words, None);
        }

        let way = self.way_for_fill(set);
        let f = self.frame(set, way);
        let mut eviction = None;
        let displaced = self.frames.line(f);
        if displaced.valid {
            self.stats.evictions += 1;
            let displaced_block = self.map.reconstruct(set, displaced.tag);
            let written_back = match &mut self.victim {
                // With a victim buffer, every displaced block (clean or
                // dirty) parks there; the write-back, if any, happens
                // only when a dirty block ages out of the buffer.
                Some(buf) => {
                    buf.push(displaced_block, displaced.owner, self.frames.dirty_words(f));
                    (buf.entries.len() > buf.cap).then(|| buf.pop_oldest())
                }
                None => Some((displaced_block, count_words(self.frames.dirty_words(f)))),
            };
            if let Some((addr, dirty_words @ 1..)) = written_back {
                let ev = Eviction {
                    addr,
                    words: block_words,
                    dirty_words,
                };
                self.stats.dirty_evictions += 1;
                self.stats.write_back_words += ev.words as u64;
                self.stats.dirty_words_written_back += ev.dirty_words as u64;
                eviction = Some(ev);
            }
        }

        self.frames.install(f, tag, pid);
        if self.config.is_sub_block() {
            set_words(self.frames.valid_words_mut(f), fetch_start, fetch_words);
        }
        self.touch(set, way, tag);
        (fetch_words, eviction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::replacement::ReplacementPolicy;
    use cachetime_types::{Assoc, BlockWords, CacheSize};

    fn tiny(ways: u32) -> Cache {
        // 64-byte cache: 16 words, 4 blocks of 4 words.
        let config = CacheConfig::builder(CacheSize::from_bytes(64).unwrap())
            .assoc(Assoc::new(ways).unwrap())
            .replacement(ReplacementPolicy::Lru)
            .build()
            .unwrap();
        Cache::new(config)
    }

    #[test]
    fn cold_miss_then_hit_within_block() {
        let mut c = tiny(1);
        assert!(!c.read(WordAddr::new(0), Pid(0)).is_hit());
        for w in 0..4 {
            assert!(c.read(WordAddr::new(w), Pid(0)).is_hit(), "word {w}");
        }
        assert!(!c.read(WordAddr::new(4), Pid(0)).is_hit());
        assert_eq!(c.stats().reads, 6);
        assert_eq!(c.stats().read_misses, 2);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = tiny(1);
        let a = WordAddr::new(0);
        let b = WordAddr::new(16); // same set (4 sets * 4 words), different tag
        c.read(a, Pid(0));
        c.read(b, Pid(0));
        assert!(!c.read(a, Pid(0)).is_hit(), "b displaced a");
    }

    #[test]
    fn two_way_avoids_that_conflict() {
        let mut c = tiny(2);
        let a = WordAddr::new(0);
        let b = WordAddr::new(32); // with 2 sets of 2 ways, same set as a
        c.read(a, Pid(0));
        c.read(b, Pid(0));
        assert!(c.read(a, Pid(0)).is_hit());
        assert!(c.read(b, Pid(0)).is_hit());
    }

    #[test]
    fn virtual_tags_separate_processes() {
        let mut c = tiny(1);
        c.read(WordAddr::new(0), Pid(1));
        assert!(!c.read(WordAddr::new(0), Pid(2)).is_hit());
        assert!(c.read(WordAddr::new(0), Pid(2)).is_hit());
    }

    #[test]
    fn physical_tags_shared_between_processes() {
        let config = CacheConfig::builder(CacheSize::from_bytes(64).unwrap())
            .virtual_tags(false)
            .build()
            .unwrap();
        let mut c = Cache::new(config);
        c.read(WordAddr::new(0), Pid(1));
        assert!(c.read(WordAddr::new(0), Pid(2)).is_hit());
    }

    #[test]
    fn write_miss_no_allocate_bypasses() {
        let mut c = tiny(1);
        assert_eq!(
            c.write(WordAddr::new(0), Pid(0)),
            WriteOutcome::MissNoAllocate
        );
        // Still not present.
        assert!(!c.probe(WordAddr::new(0), Pid(0)));
        assert_eq!(c.stats().word_writes_downstream, 1);
        assert_eq!(c.stats().write_misses, 1);
    }

    #[test]
    fn write_back_dirty_eviction_reports_whole_block() {
        let mut c = tiny(1);
        c.read(WordAddr::new(0), Pid(0));
        c.write(WordAddr::new(1), Pid(0));
        c.write(WordAddr::new(2), Pid(0));
        // Conflict fill displaces the dirty block.
        match c.read(WordAddr::new(16), Pid(0)) {
            ReadOutcome::Miss {
                victim: Some(ev), ..
            } => {
                assert_eq!(ev.addr, WordAddr::new(0).block(4));
                assert_eq!(ev.words, 4, "entire block transferred");
                assert_eq!(ev.dirty_words, 2);
            }
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        assert_eq!(c.stats().write_back_words, 4);
        assert_eq!(c.stats().dirty_words_written_back, 2);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = tiny(1);
        c.read(WordAddr::new(0), Pid(0));
        match c.read(WordAddr::new(16), Pid(0)) {
            ReadOutcome::Miss { victim: None, .. } => {}
            other => panic!("expected clean eviction, got {other:?}"),
        }
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().dirty_evictions, 0);
    }

    #[test]
    fn write_through_never_dirty() {
        let config = CacheConfig::builder(CacheSize::from_bytes(64).unwrap())
            .write_policy(WritePolicy::WriteThrough)
            .build()
            .unwrap();
        let mut c = Cache::new(config);
        c.read(WordAddr::new(0), Pid(0));
        assert_eq!(
            c.write(WordAddr::new(0), Pid(0)),
            WriteOutcome::Hit { through: true }
        );
        match c.read(WordAddr::new(16), Pid(0)) {
            ReadOutcome::Miss { victim: None, .. } => {}
            other => panic!("write-through block must be clean, got {other:?}"),
        }
        assert_eq!(c.stats().word_writes_downstream, 1);
    }

    #[test]
    fn write_allocate_fetches_block() {
        let config = CacheConfig::builder(CacheSize::from_bytes(64).unwrap())
            .write_allocate(WriteAllocate::Allocate)
            .build()
            .unwrap();
        let mut c = Cache::new(config);
        match c.write(WordAddr::new(0), Pid(0)) {
            WriteOutcome::MissAllocate {
                fill_words,
                victim: None,
                through: false,
            } => assert_eq!(fill_words, 4),
            other => panic!("expected allocating miss, got {other:?}"),
        }
        assert!(c.read(WordAddr::new(1), Pid(0)).is_hit());
        // The written word is dirty.
        let evs = c.flush_dirty();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].dirty_words, 1);
    }

    #[test]
    fn sub_block_fetch_validates_only_fetched_words() {
        let config = CacheConfig::builder(CacheSize::from_bytes(128).unwrap())
            .block(BlockWords::new(8).unwrap())
            .fetch(BlockWords::new(4).unwrap())
            .build()
            .unwrap();
        let mut c = Cache::new(config);
        match c.read(WordAddr::new(0), Pid(0)) {
            ReadOutcome::Miss { fill_words, .. } => assert_eq!(fill_words, 4),
            other => panic!("{other:?}"),
        }
        assert!(c.read(WordAddr::new(3), Pid(0)).is_hit());
        // Upper half of the block: tag matches but word invalid -> miss
        // without eviction.
        match c.read(WordAddr::new(5), Pid(0)) {
            ReadOutcome::Miss {
                fill_words,
                victim: None,
            } => assert_eq!(fill_words, 4),
            other => panic!("{other:?}"),
        }
        assert!(c.read(WordAddr::new(7), Pid(0)).is_hit());
    }

    #[test]
    fn sub_block_valid_and_dirty_words_stay_apart() {
        let config = CacheConfig::builder(CacheSize::from_bytes(128).unwrap())
            .block(BlockWords::new(8).unwrap())
            .fetch(BlockWords::new(4).unwrap())
            .build()
            .unwrap();
        let mut c = Cache::new(config);
        // Words 0..4 arrive; a store to an absent word of the resident
        // block validates it.
        c.read(WordAddr::new(0), Pid(0));
        assert_eq!(
            c.write(WordAddr::new(5), Pid(0)),
            WriteOutcome::Hit { through: false }
        );
        assert!(c.probe(WordAddr::new(5), Pid(0)));
        assert!(!c.probe(WordAddr::new(6), Pid(0)));
        // Filling the neighbouring frame leaves this one's words alone.
        c.read(WordAddr::new(8), Pid(0));
        let evs = c.flush_dirty();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].dirty_words, 1, "only the stored word is dirty");
        assert!(c.probe(WordAddr::new(1), Pid(0)), "flush keeps words valid");
    }

    #[test]
    fn flush_dirty_cleans_but_keeps_valid() {
        let mut c = tiny(1);
        c.read(WordAddr::new(0), Pid(0));
        c.write(WordAddr::new(0), Pid(0));
        let evs = c.flush_dirty();
        assert_eq!(evs.len(), 1);
        assert!(c.flush_dirty().is_empty(), "second flush finds nothing");
        assert!(c.probe(WordAddr::new(0), Pid(0)), "block still valid");
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let mut c = tiny(2);
        for w in [0u64, 16, 32, 48] {
            c.read(WordAddr::new(w), Pid(0));
        }
        assert!(c.valid_blocks() > 0);
        c.invalidate_all();
        assert_eq!(c.valid_blocks(), 0);
        assert!(!c.probe(WordAddr::new(0), Pid(0)));
    }

    #[test]
    fn write_range_marks_whole_span_dirty() {
        let mut c = tiny(1);
        c.read(WordAddr::new(0), Pid(0));
        assert_eq!(
            c.write_range(WordAddr::new(0), Pid(0), 4),
            WriteOutcome::Hit { through: false }
        );
        let evs = c.flush_dirty();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].dirty_words, 4);
        assert_eq!(c.stats().writes, 1, "one access, not four");
    }

    #[test]
    fn write_range_miss_no_allocate_forwards_all_words() {
        let mut c = tiny(1);
        assert_eq!(
            c.write_range(WordAddr::new(8), Pid(0), 4),
            WriteOutcome::MissNoAllocate
        );
        assert_eq!(c.stats().word_writes_downstream, 4);
    }

    #[test]
    #[should_panic(expected = "block boundary")]
    fn write_range_cannot_cross_blocks() {
        let mut c = tiny(1);
        c.write_range(WordAddr::new(2), Pid(0), 4);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = tiny(2);
        for w in 0..1000u64 {
            c.read(WordAddr::new(w * 7), Pid(0));
        }
        assert!(c.valid_blocks() <= 4);
    }

    fn tiny_victim(entries: u32) -> Cache {
        let config = CacheConfig::builder(CacheSize::from_bytes(64).unwrap())
            .replacement(ReplacementPolicy::Lru)
            .victim_cache(crate::features::VictimCacheConfig::new(entries).unwrap())
            .build()
            .unwrap();
        Cache::new(config)
    }

    fn tiny_pred(ways: u32, kind: WayPrediction) -> Cache {
        let config = CacheConfig::builder(CacheSize::from_bytes(64).unwrap())
            .assoc(Assoc::new(ways).unwrap())
            .replacement(ReplacementPolicy::Lru)
            .way_prediction(kind)
            .build()
            .unwrap();
        Cache::new(config)
    }

    #[test]
    fn victim_buffer_turns_conflict_miss_into_victim_hit() {
        let mut c = tiny_victim(4);
        let a = WordAddr::new(0);
        let b = WordAddr::new(16); // conflicts with a in the direct-mapped array
        c.read(a, Pid(0));
        c.read(b, Pid(0)); // displaces a into the buffer
        assert_eq!(c.read(a, Pid(0)), ReadOutcome::VictimHit);
        // The swap parked b in the buffer, so b victim-hits right back.
        assert_eq!(c.read(b, Pid(0)), ReadOutcome::VictimHit);
        assert_eq!(c.stats().victim_hits, 2);
        assert_eq!(
            c.stats().read_misses,
            4,
            "victim hits still count as misses"
        );
        assert_eq!(c.stats().fills, 2, "only the two cold misses fetched");
    }

    #[test]
    fn victim_swap_preserves_dirty_words() {
        let mut c = tiny_victim(4);
        c.read(WordAddr::new(0), Pid(0));
        c.write(WordAddr::new(1), Pid(0)); // dirty word in block 0
        c.read(WordAddr::new(16), Pid(0)); // displace block 0 (dirty) into buffer
        assert_eq!(c.stats().dirty_evictions, 0, "no write-back yet");
        assert_eq!(c.read(WordAddr::new(0), Pid(0)), ReadOutcome::VictimHit);
        // The dirty word survived the round trip through the buffer.
        let evs = c.flush_dirty();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].dirty_words, 1);
    }

    #[test]
    fn dirty_block_aging_out_of_victim_buffer_is_the_write_back() {
        let mut c = tiny_victim(1);
        c.read(WordAddr::new(0), Pid(0));
        c.write(WordAddr::new(0), Pid(0)); // block 0 dirty
        c.read(WordAddr::new(16), Pid(0)); // block 0 parks in the 1-entry buffer
        assert_eq!(c.stats().dirty_evictions, 0);
        // Same set again: block 16 parks, block 0 ages out dirty.
        match c.read(WordAddr::new(48), Pid(0)) {
            ReadOutcome::Miss {
                victim: Some(ev), ..
            } => {
                assert_eq!(ev.addr, WordAddr::new(0).block(4));
                assert_eq!(ev.dirty_words, 1);
            }
            other => panic!("expected aged-out dirty write-back, got {other:?}"),
        }
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn write_miss_probes_victim_buffer() {
        let mut c = tiny_victim(4);
        c.read(WordAddr::new(0), Pid(0));
        c.read(WordAddr::new(16), Pid(0)); // displace block 0
        assert_eq!(
            c.write(WordAddr::new(2), Pid(0)),
            WriteOutcome::VictimHit { through: false }
        );
        assert_eq!(c.stats().victim_hits, 1);
        // The write landed in the swapped-in block, not downstream.
        assert_eq!(c.stats().word_writes_downstream, 0);
        let evs = c.flush_dirty();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].dirty_words, 1);
    }

    #[test]
    fn victim_buffer_respects_virtual_tags() {
        let mut c = tiny_victim(4);
        c.read(WordAddr::new(0), Pid(1));
        c.read(WordAddr::new(16), Pid(1)); // displace pid 1's block 0
        match c.read(WordAddr::new(0), Pid(2)) {
            ReadOutcome::Miss { .. } => {}
            other => panic!("other pid must not victim-hit, got {other:?}"),
        }
    }

    #[test]
    fn mru_prediction_splits_first_and_slow_hits() {
        let mut c = tiny_pred(2, WayPrediction::Mru);
        let a = WordAddr::new(0);
        let b = WordAddr::new(32); // same set, other way
        c.read(a, Pid(0));
        c.read(b, Pid(0));
        // MRU points at b's way; a is a slow hit, then a is MRU again.
        assert_eq!(c.read(a, Pid(0)), ReadOutcome::SlowHit);
        assert_eq!(c.read(a, Pid(0)), ReadOutcome::Hit);
        assert_eq!(c.read(b, Pid(0)), ReadOutcome::SlowHit);
        assert_eq!(c.stats().way_slow_hits, 2);
        assert_eq!(c.stats().way_first_hits, 1);
        // 2 slow hits x 2 rounds + 1 first hit x 1 round.
        assert_eq!(c.stats().way_probe_rounds, 5);
    }

    #[test]
    fn multi_column_keeps_per_column_predictions() {
        let mut c = tiny_pred(2, WayPrediction::MultiColumn);
        let a = WordAddr::new(0); // set 0, tag 0 -> column 0
        let b = WordAddr::new(8); // set 0, tag 1 -> column 1
        c.read(a, Pid(0));
        c.read(b, Pid(0));
        // Each block has its own column, so alternating reads all
        // first-hit — the case MRU gets wrong.
        assert_eq!(c.read(a, Pid(0)), ReadOutcome::Hit);
        assert_eq!(c.read(b, Pid(0)), ReadOutcome::Hit);
        assert_eq!(c.read(a, Pid(0)), ReadOutcome::Hit);
        assert_eq!(c.stats().way_slow_hits, 0);
        assert_eq!(c.stats().way_first_hits, 3);
    }

    #[test]
    fn prediction_never_changes_hit_miss_classification() {
        let mut plain = tiny(2);
        let mut pred = tiny_pred(2, WayPrediction::Mru);
        for w in 0..400u64 {
            let addr = WordAddr::new((w * 13) % 96);
            let a = plain.read(addr, Pid(0));
            let b = pred.read(addr, Pid(0));
            assert_eq!(a.is_hit(), b.is_hit(), "ref {w}");
        }
        let (p, q) = (plain.stats(), pred.stats());
        assert_eq!(p.read_misses, q.read_misses);
        assert_eq!(q.way_first_hits + q.way_slow_hits, q.reads - q.read_misses);
    }

    #[test]
    fn invalidate_all_clears_victim_buffer() {
        let mut c = tiny_victim(4);
        c.read(WordAddr::new(0), Pid(0));
        c.read(WordAddr::new(16), Pid(0));
        c.invalidate_all();
        match c.read(WordAddr::new(0), Pid(0)) {
            ReadOutcome::Miss { .. } => {}
            other => panic!("buffer must be empty after invalidate, got {other:?}"),
        }
    }

    #[test]
    fn victim_swap_round_trips_dirty_words_across_limbs() {
        // 128-word blocks (two limbs per mask), direct-mapped, two sets.
        let config = CacheConfig::builder(CacheSize::from_kib(1).unwrap())
            .block(BlockWords::new(128).unwrap())
            .victim_cache(crate::features::VictimCacheConfig::new(4).unwrap())
            .build()
            .unwrap();
        let mut c = Cache::new(config);
        let block = |n: u64, w: u64| WordAddr::new(n * 128 + w);
        // Blocks 0, 2 and 4 share set 0; block 1 sits in set 1.
        c.read(block(0, 0), Pid(0));
        for w in [63, 64, 127] {
            c.write(block(0, w), Pid(0));
        }
        c.read(block(2, 0), Pid(0)); // block 0 parks, 3 dirty words
        for w in [0, 65] {
            c.write(block(2, w), Pid(0));
        }
        // Filling the neighbouring frame must leave set 0's words alone.
        c.read(block(1, 0), Pid(0));
        c.write(block(1, 64), Pid(0));
        // Block 2 parks behind block 0; taking the buffer's second entry
        // back parks clean block 4 in its place.
        c.read(block(4, 0), Pid(0));
        assert_eq!(c.read(block(2, 1), Pid(0)), ReadOutcome::VictimHit);
        let evs: Vec<_> = c
            .flush_dirty()
            .iter()
            .map(|e| (e.addr, e.dirty_words))
            .collect();
        let addr = |n: u64| block(n, 0).block(128);
        assert_eq!(evs, [(addr(2), 2), (addr(1), 1), (addr(0), 3)]);
        assert!(c.flush_dirty().is_empty());
    }

    #[test]
    fn frame_state_is_compact_and_sized_to_the_block() {
        // 2 MiB direct-mapped, 4-word blocks: 131,072 frames. The parent
        // layout kept 80 bytes per frame, both masks inline at full width.
        let config = CacheConfig::builder(CacheSize::from_kib(2048).unwrap())
            .build()
            .unwrap();
        let c = Cache::new(config);
        let frames = config.sets() as usize;
        assert_eq!(frames, 131_072);
        assert_eq!(c.frames.limbs(), 1);
        let bytes = c.frames.heap_bytes();
        assert!(bytes <= 32 * frames, "{bytes} bytes");

        let config = CacheConfig::builder(CacheSize::from_kib(64).unwrap())
            .block(BlockWords::new(crate::MAX_BLOCK_WORDS).unwrap())
            .build()
            .unwrap();
        let c = Cache::new(config);
        assert_eq!(c.frames.limbs(), 4, "one limb per 64 words");
    }

    #[test]
    fn probe_does_not_perturb_lru() {
        let mut c = tiny(2);
        let a = WordAddr::new(0);
        let b = WordAddr::new(32);
        let d = WordAddr::new(64);
        c.read(a, Pid(0));
        c.read(b, Pid(0)); // LRU order: a, b
        c.probe(a, Pid(0)); // must NOT refresh a
        c.read(d, Pid(0)); // evicts a (LRU), not b
        assert!(c.probe(b, Pid(0)));
        assert!(!c.probe(a, Pid(0)));
    }
}
