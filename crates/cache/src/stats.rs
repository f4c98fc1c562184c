//! Time-independent cache statistics.

use std::ops::AddAssign;

/// Event counts accumulated by a [`Cache`](crate::Cache).
///
/// These are the classic *time-independent* metrics the paper starts from
/// (miss ratios, traffic ratios). Ratios are computed on demand; the paper's
/// miss ratios are "read misses per read request, as opposed to being
/// relative to the total number of references".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Read accesses presented to the cache.
    pub reads: u64,
    /// Read accesses that missed.
    pub read_misses: u64,
    /// Write accesses presented to the cache.
    pub writes: u64,
    /// Write accesses that missed.
    pub write_misses: u64,
    /// Block fills performed (whole- or sub-block).
    pub fills: u64,
    /// Words fetched from the next level by fills.
    pub fill_words: u64,
    /// Valid blocks displaced (clean or dirty).
    pub evictions: u64,
    /// Displaced blocks that were dirty (write-backs issued).
    pub dirty_evictions: u64,
    /// Words transferred by write-backs: the whole victim block each time
    /// ("on write backs, the entire block is transferred, regardless of
    /// which words were dirty").
    pub write_back_words: u64,
    /// Of those, words that were actually dirty (the paper's smaller write
    /// traffic ratio counts only these).
    pub dirty_words_written_back: u64,
    /// Words sent downstream by write-through or write-around (no-allocate
    /// write misses) word writes.
    pub word_writes_downstream: u64,
    /// Misses served by the victim buffer instead of the next level
    /// (victim-hit attribution: these are counted in `read_misses` /
    /// `write_misses` too, so `victim_hits / read_misses` is the
    /// fraction of misses the buffer absorbed).
    pub victim_hits: u64,
    /// Way-predicted read hits that found the block in the predicted
    /// way (direct-mapped-speed "first hits").
    pub way_first_hits: u64,
    /// Way-predicted read hits that needed a second probe round
    /// (non-first, "slow" hits).
    pub way_slow_hits: u64,
    /// Total probe rounds issued by way-predicted read hits (one for a
    /// first hit, two for a slow hit) — the search-length numerator.
    pub way_probe_rounds: u64,
}

impl CacheStats {
    /// Total accesses (reads plus writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Read misses per read request (the paper's miss-ratio definition).
    ///
    /// Returns 0 when no reads occurred.
    pub fn read_miss_ratio(&self) -> f64 {
        ratio(self.read_misses, self.reads)
    }

    /// Write misses per write request. "In the system modeled, no fetching
    /// occurs on a write miss, so the write miss ratio is not interesting" —
    /// but it is exposed for completeness.
    pub fn write_miss_ratio(&self) -> f64 {
        ratio(self.write_misses, self.writes)
    }

    /// Words fetched per read request. With whole-block fetching this is
    /// exactly `block_words × read_miss_ratio` (paper: "the read traffic
    /// ratio is simply four times the miss ratio" for 4-word blocks).
    pub fn read_traffic_ratio(&self) -> f64 {
        ratio(self.fill_words, self.reads)
    }

    /// The larger write traffic ratio: all words of blocks dirty at
    /// replacement (plus word writes sent around/through the cache),
    /// relative to `denominator` references.
    pub fn write_traffic_ratio_block(&self, denominator: u64) -> f64 {
        ratio(
            self.write_back_words + self.word_writes_downstream,
            denominator,
        )
    }

    /// The smaller write traffic ratio: only the dirty words themselves
    /// (plus downstream word writes), relative to `denominator` references.
    pub fn write_traffic_ratio_dirty(&self, denominator: u64) -> f64 {
        ratio(
            self.dirty_words_written_back + self.word_writes_downstream,
            denominator,
        )
    }

    /// Of way-predicted read hits, the fraction found on the first
    /// probe. Returns 0 when way prediction never fired.
    pub fn way_first_hit_ratio(&self) -> f64 {
        ratio(
            self.way_first_hits,
            self.way_first_hits + self.way_slow_hits,
        )
    }

    /// Of all misses, the fraction served by the victim buffer.
    pub fn victim_hit_ratio(&self) -> f64 {
        ratio(self.victim_hits, self.read_misses + self.write_misses)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        self.reads += rhs.reads;
        self.read_misses += rhs.read_misses;
        self.writes += rhs.writes;
        self.write_misses += rhs.write_misses;
        self.fills += rhs.fills;
        self.fill_words += rhs.fill_words;
        self.evictions += rhs.evictions;
        self.dirty_evictions += rhs.dirty_evictions;
        self.write_back_words += rhs.write_back_words;
        self.dirty_words_written_back += rhs.dirty_words_written_back;
        self.word_writes_downstream += rhs.word_writes_downstream;
        self.victim_hits += rhs.victim_hits;
        self.way_first_hits += rhs.way_first_hits;
        self.way_slow_hits += rhs.way_slow_hits;
        self.way_probe_rounds += rhs.way_probe_rounds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_with_zero_denominator_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.read_miss_ratio(), 0.0);
        assert_eq!(s.write_miss_ratio(), 0.0);
        assert_eq!(s.read_traffic_ratio(), 0.0);
        assert_eq!(s.write_traffic_ratio_block(0), 0.0);
    }

    #[test]
    fn read_traffic_is_block_size_times_miss_ratio() {
        let s = CacheStats {
            reads: 1000,
            read_misses: 50,
            fills: 50,
            fill_words: 200, // 4-word blocks
            ..CacheStats::default()
        };
        assert!((s.read_traffic_ratio() - 4.0 * s.read_miss_ratio()).abs() < 1e-12);
    }

    #[test]
    fn write_traffic_ratios_ordered() {
        let s = CacheStats {
            dirty_evictions: 10,
            write_back_words: 40,
            dirty_words_written_back: 13,
            word_writes_downstream: 5,
            ..CacheStats::default()
        };
        assert!(s.write_traffic_ratio_block(100) >= s.write_traffic_ratio_dirty(100));
        assert!((s.write_traffic_ratio_block(100) - 0.45).abs() < 1e-12);
        assert!((s.write_traffic_ratio_dirty(100) - 0.18).abs() < 1e-12);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = CacheStats {
            reads: 1,
            writes: 2,
            ..CacheStats::default()
        };
        a += CacheStats {
            reads: 10,
            read_misses: 3,
            ..CacheStats::default()
        };
        assert_eq!(a.reads, 11);
        assert_eq!(a.writes, 2);
        assert_eq!(a.read_misses, 3);
        assert_eq!(a.accesses(), 13);
    }
}
