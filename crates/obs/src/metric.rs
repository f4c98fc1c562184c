//! Lock-free metric primitives: monotonic counters, signed gauges, and
//! log₂-bucketed histograms.
//!
//! All three are plain atomics — safe to hammer from any number of
//! threads without coordination. Histograms generalize the latency
//! histogram that used to live in `cachetime-serve`: bucket `i` covers
//! `[2^i, 2^(i+1))` with bucket 0 absorbing sub-unit values, so the
//! upper bound of bucket `i` is `2^(i+1)`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move in both directions.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self(AtomicI64::new(0))
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (negative to decrement).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Current value clamped to zero — for gauges that are logically
    /// unsigned (queue depths, byte totals) but may transiently read
    /// negative between paired add/sub updates.
    pub fn get_unsigned(&self) -> u64 {
        self.get().max(0) as u64
    }
}

/// Number of log₂ buckets. The last bucket absorbs everything at or
/// above `2^(BUCKETS-1)`; at microsecond resolution that is ≈ 2.2
/// minutes, comfortably past any single phase we time.
pub const BUCKETS: usize = 28;

/// A log₂-bucketed histogram with a running sum.
///
/// `record(v)` lands `v` in bucket `floor(log2(max(v, 1)))`, clamped to
/// the last bucket. Quantile queries return the *upper bound* of the
/// bucket holding the requested rank — a deliberate overestimate that
/// is stable across runs, never an interpolation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    /// Per-bucket exemplars, allocated lazily on the first
    /// [`Histogram::record_with_exemplar`] — histograms that never attach
    /// exemplars (the overwhelming majority) pay one `OnceLock` check.
    exemplars: OnceLock<Mutex<[Option<Exemplar>; BUCKETS]>>,
}

/// One traced observation attached to a histogram bucket: which entity
/// produced a latency in that range, OpenMetrics-style. The renderer
/// appends it to the bucket's sample line as `# {label="value"} v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// Label name, e.g. `key`.
    pub label: &'static str,
    /// Label value, e.g. a 16-hex trace key.
    pub value: String,
    /// The observed value that landed in this bucket.
    pub observed: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            exemplars: OnceLock::new(),
        }
    }

    /// The bucket index an observation of `value` lands in.
    fn bucket_of(value: u64) -> usize {
        (63 - value.max(1).leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Record one observation and attach an exemplar to its bucket
    /// (last-writer-wins: each bucket keeps its most recent exemplar, so
    /// a scrape always sees a live specimen rather than a frozen first).
    pub fn record_with_exemplar(&self, value: u64, label: &'static str, id: String) {
        self.record(value);
        let slots = self
            .exemplars
            .get_or_init(|| Mutex::new(std::array::from_fn(|_| None)));
        slots.lock().unwrap()[Self::bucket_of(value)] = Some(Exemplar {
            label,
            value: id,
            observed: value,
        });
    }

    /// The exemplar currently attached to bucket `i`, if any.
    pub fn exemplar(&self, i: usize) -> Option<Exemplar> {
        self.exemplars
            .get()
            .and_then(|slots| slots.lock().unwrap()[i].clone())
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Upper bound of bucket `i`: `2^(i+1)`.
    pub fn bucket_upper(i: usize) -> u64 {
        1u64 << (i + 1)
    }

    /// A snapshot of the raw (non-cumulative) bucket counts.
    pub fn snapshot(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// observation, or 0 for an empty histogram.
    ///
    /// The rank is clamped to ≥ 1 so that `q = 0.0` reports the first
    /// *occupied* bucket rather than bucket 0's upper bound — an empty
    /// bucket 0 must never masquerade as a 2-unit observation.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = (((total as f64) * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_do_arithmetic() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);

        let g = Gauge::new();
        g.add(5);
        g.add(-7);
        assert_eq!(g.get(), -2);
        assert_eq!(g.get_unsigned(), 0);
        g.set(9);
        assert_eq!(g.get_unsigned(), 9);
    }

    #[test]
    fn observations_land_in_log2_buckets() {
        let h = Histogram::new();
        h.record(0); // rounds up to bucket 0
        h.record(1);
        h.record(3);
        h.record(1000);
        h.record(u64::MAX); // clamps to the last bucket
        let snap = h.snapshot();
        assert_eq!(snap[0], 2);
        assert_eq!(snap[1], 1);
        assert_eq!(snap[9], 1);
        assert_eq!(snap[BUCKETS - 1], 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn exemplars_attach_to_buckets_last_writer_wins() {
        let h = Histogram::new();
        assert_eq!(h.exemplar(0), None, "no allocation before first use");
        h.record_with_exemplar(3, "key", "aaaa".into());
        h.record_with_exemplar(2, "key", "bbbb".into()); // same bucket (1)
        h.record_with_exemplar(1000, "key", "cccc".into()); // bucket 9
        let e = h.exemplar(1).expect("bucket 1 exemplar");
        assert_eq!((e.label, e.value.as_str(), e.observed), ("key", "bbbb", 2));
        let e = h.exemplar(9).expect("bucket 9 exemplar");
        assert_eq!(e.value, "cccc");
        assert_eq!(h.exemplar(5), None);
        // Counts and sum see exemplar'd observations like any other.
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1005);
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(3);
        }
        h.record(1000);
        assert_eq!(h.quantile_upper(0.5), 4);
        assert_eq!(h.quantile_upper(0.99), 4);
        assert_eq!(h.quantile_upper(1.0), 1024);
    }

    #[test]
    fn zero_quantile_of_a_sparse_histogram_skips_empty_buckets() {
        // Regression: with only one observation in bucket 9, q=0.0 used
        // to report bucket 0's upper bound (2) because the rank rounded
        // down to zero. It must report the first occupied bucket.
        let h = Histogram::new();
        h.record(1000);
        assert_eq!(h.quantile_upper(0.0), 1024);
        assert_eq!(h.quantile_upper(0.5), 1024);
        // And an empty histogram reports 0, not a phantom bucket.
        let empty = Histogram::new();
        assert_eq!(empty.quantile_upper(0.0), 0);
        assert_eq!(empty.quantile_upper(1.0), 0);
    }
}
