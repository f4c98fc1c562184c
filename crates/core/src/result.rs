//! Simulation results and derived metrics.

use cachetime_cache::CacheStats;
use cachetime_mem::MemStats;
use cachetime_mmu::MmuStats;
use cachetime_types::{CycleTime, Cycles, Nanos};
use std::fmt;

/// Warm-window statistics of one simulation run.
///
/// The *primary* metric, per the paper, is execution time — cycle count ×
/// cycle time ([`SimResult::exec_time`]). The classic time-independent
/// metrics (miss ratios, traffic ratios) are derived from the embedded
/// per-component statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// The clock the machine ran at.
    pub cycle_time: CycleTime,
    /// Cycles consumed by the measured window.
    pub cycles: Cycles,
    /// References in the measured window.
    pub refs: u64,
    /// Couplets (CPU issue slots) in the measured window.
    pub couplets: u64,
    /// Instruction-cache statistics (zeroes for a unified organization).
    pub l1i: CacheStats,
    /// Data-cache statistics (the unified cache's statistics when the
    /// organization is unified).
    pub l1d: CacheStats,
    /// Second-level statistics, if an L2 was configured.
    pub l2: Option<CacheStats>,
    /// Third-level statistics, if an L3 was configured.
    pub l3: Option<CacheStats>,
    /// Main-memory statistics.
    pub mem: MemStats,
    /// Translation statistics, if the hierarchy is physically addressed.
    pub mmu: Option<MmuStats>,
    /// Distribution of couplet (issue-slot) durations.
    pub latency: CoupletHistogram,
    /// Cycles beyond what an always-hitting machine would have spent — the
    /// memory hierarchy's contribution to execution time (the quantity the
    /// paper's section 6 wants kept proportionate).
    pub stall_cycles: Cycles,
}

impl SimResult {
    /// Total execution time of the measured window.
    pub fn exec_time(&self) -> Nanos {
        self.cycle_time.elapsed(self.cycles)
    }

    /// Cycles per reference — the paper's Table 3 metric ("since there are
    /// two caches, the value drops below one for large caches").
    pub fn cycles_per_ref(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.cycles.as_f64() / self.refs as f64
        }
    }

    /// Mean time per reference in nanoseconds.
    pub fn time_per_ref_ns(&self) -> f64 {
        self.cycles_per_ref() * self.cycle_time.ns() as f64
    }

    /// Memory-hierarchy stall cycles per reference (0 on an always-hitting
    /// machine).
    pub fn stalls_per_ref(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.stall_cycles.as_f64() / self.refs as f64
        }
    }

    /// Fraction of all cycles spent stalled on the hierarchy.
    pub fn stall_fraction(&self) -> f64 {
        if self.cycles.0 == 0 {
            0.0
        } else {
            self.stall_cycles.as_f64() / self.cycles.as_f64()
        }
    }

    /// Combined L1 read miss ratio: read misses per read, over both caches
    /// (the paper's miss-ratio definition).
    pub fn read_miss_ratio(&self) -> f64 {
        let reads = self.l1i.reads + self.l1d.reads;
        let misses = self.l1i.read_misses + self.l1d.read_misses;
        if reads == 0 {
            0.0
        } else {
            misses as f64 / reads as f64
        }
    }

    /// Instruction-fetch miss ratio.
    pub fn ifetch_miss_ratio(&self) -> f64 {
        self.l1i.read_miss_ratio()
    }

    /// Data-read (load) miss ratio.
    pub fn load_miss_ratio(&self) -> f64 {
        self.l1d.read_miss_ratio()
    }

    /// Words fetched from below per reference.
    pub fn read_traffic_ratio(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            (self.l1i.fill_words + self.l1d.fill_words) as f64 / self.refs as f64
        }
    }

    /// The larger write-traffic ratio: all words of dirty victim blocks
    /// (plus write-around words), per reference.
    pub fn write_traffic_ratio_block(&self) -> f64 {
        self.l1d.write_traffic_ratio_block(self.refs)
            + self.l1i.write_traffic_ratio_block(self.refs)
    }

    /// The smaller write-traffic ratio: only dirty words (plus write-around
    /// words), per reference.
    pub fn write_traffic_ratio_dirty(&self) -> f64 {
        self.l1d.write_traffic_ratio_dirty(self.refs)
            + self.l1i.write_traffic_ratio_dirty(self.refs)
    }
}

/// A log₂-bucketed histogram of couplet durations in cycles.
///
/// Bucket `i` counts couplets lasting `[2^i, 2^(i+1))` cycles: bucket 0 is
/// the single-cycle hits, bucket 1 the 2–3-cycle write hits, and the miss
/// penalties land in buckets 3–5. One of the "about 400 unique statistics"
/// the paper's simulator gathered per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoupletHistogram {
    buckets: [u64; 16],
}

impl CoupletHistogram {
    /// Records one couplet of `cycles` duration.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on a zero duration — every couplet costs at
    /// least a cycle.
    pub fn record(&mut self, cycles: u64) {
        self.record_n(cycles, 1);
    }

    /// Records `n` couplets of identical `cycles` duration in one step
    /// (the timing replay collapses runs of all-hit couplets this way).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on a zero duration.
    pub fn record_n(&mut self, cycles: u64, n: u64) {
        debug_assert!(cycles > 0, "zero-length couplet");
        self.buckets[Self::bucket_of(cycles)] += n;
    }

    /// The bucket index a couplet of `cycles` duration lands in.
    #[inline]
    pub fn bucket_of(cycles: u64) -> usize {
        (63 - cycles.max(1).leading_zeros() as usize).min(15)
    }

    /// Total couplets recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Count in bucket `i` (durations in `[2^i, 2^(i+1))`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Fraction of couplets that completed within `cycles` cycles
    /// (bucket-granular: rounds the threshold down to a power of two).
    pub fn fraction_within(&self, cycles: u64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let cutoff = (63 - cycles.max(1).leading_zeros() as usize).min(15);
        let within: u64 = self.buckets[..cutoff].iter().sum();
        within as f64 / total as f64
    }
}

impl std::ops::AddAssign for CoupletHistogram {
    fn add_assign(&mut self, rhs: CoupletHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(rhs.buckets) {
            *a += b;
        }
    }
}

impl fmt::Display for CoupletHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "couplet cycles:")?;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                write!(f, " [{}..{}):{c}", 1u64 << i, 1u64 << (i + 1))?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} over {} refs ({:.3} cycles/ref, read miss {:.2}%)",
            self.exec_time(),
            self.refs,
            self.cycles_per_ref(),
            100.0 * self.read_miss_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> SimResult {
        SimResult {
            cycle_time: CycleTime::from_ns(40).unwrap(),
            cycles: Cycles(1000),
            refs: 800,
            couplets: 600,
            l1i: CacheStats {
                reads: 500,
                read_misses: 25,
                fills: 25,
                fill_words: 100,
                ..CacheStats::default()
            },
            l1d: CacheStats {
                reads: 200,
                read_misses: 20,
                writes: 100,
                fills: 20,
                fill_words: 80,
                dirty_evictions: 5,
                write_back_words: 20,
                dirty_words_written_back: 9,
                ..CacheStats::default()
            },
            l2: None,
            l3: None,
            mem: MemStats::default(),
            mmu: None,
            latency: CoupletHistogram::default(),
            stall_cycles: Cycles(250),
        }
    }

    #[test]
    fn exec_time_is_cycles_times_cycle_time() {
        assert_eq!(mk().exec_time(), Nanos(40_000));
    }

    #[test]
    fn cycles_per_ref() {
        assert!((mk().cycles_per_ref() - 1.25).abs() < 1e-12);
        assert!((mk().time_per_ref_ns() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn miss_ratios_combine_both_caches() {
        let r = mk();
        assert!((r.read_miss_ratio() - 45.0 / 700.0).abs() < 1e-12);
        assert!((r.ifetch_miss_ratio() - 0.05).abs() < 1e-12);
        assert!((r.load_miss_ratio() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn traffic_ratios() {
        let r = mk();
        assert!((r.read_traffic_ratio() - 180.0 / 800.0).abs() < 1e-12);
        assert!((r.write_traffic_ratio_block() - 20.0 / 800.0).abs() < 1e-12);
        assert!((r.write_traffic_ratio_dirty() - 9.0 / 800.0).abs() < 1e-12);
        assert!(r.write_traffic_ratio_block() >= r.write_traffic_ratio_dirty());
    }

    #[test]
    fn zero_refs_are_safe() {
        let r = SimResult { refs: 0, ..mk() };
        assert_eq!(r.cycles_per_ref(), 0.0);
        assert_eq!(r.read_traffic_ratio(), 0.0);
    }

    #[test]
    fn display_is_informative() {
        let s = mk().to_string();
        assert!(s.contains("refs"));
        assert!(s.contains("cycles/ref"));
    }

    #[test]
    fn stall_metrics() {
        let r = mk();
        assert!((r.stalls_per_ref() - 250.0 / 800.0).abs() < 1e-12);
        assert!((r.stall_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = CoupletHistogram::default();
        h.record(1);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(11); // bucket 3: [8, 16)
        assert_eq!(h.count(), 5);
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.bucket(3), 1);
        assert!((h.fraction_within(8) - 4.0 / 5.0).abs() < 1e-12);
        assert_eq!(h.fraction_within(1), 0.0);
        let s = h.to_string();
        assert!(s.contains("[1..2):2"));
    }

    #[test]
    fn histogram_saturates_at_the_top_bucket() {
        let mut h = CoupletHistogram::default();
        h.record(u64::MAX);
        assert_eq!(h.bucket(15), 1);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = CoupletHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.fraction_within(100), 0.0);
        assert_eq!(h.to_string(), "couplet cycles:");
    }
}
