//! Representative-interval selection for huge traces.
//!
//! Pricing a billion-reference upload by simulating every reference is
//! exactly the cost the two-phase engine was built to avoid paying twice;
//! interval sampling (Bueno et al., *Improving the Representativeness of
//! Simulation Intervals for the Cache Memory System*) avoids paying it
//! even once. The trace is cut into fixed-size windows, each window is
//! summarized by a small **feature vector** gathered in one streaming
//! pass — miss counts from three tiny direct-mapped probe caches of
//! well-spread sizes, plus the ifetch/store mix — and a k-medoid-style
//! clustering picks ≤ k windows whose weighted combination stands in for
//! the whole trace.
//!
//! The pick is **seeded** (testkit's SplitMix64) and fully deterministic:
//! the same trace, window size, k, and seed select the same windows on
//! every machine, so a selection can be named in a response and relied on
//! later. The selection also reports its own accuracy: for each probe
//! size, the weighted miss ratio over the picked windows is compared with
//! the exact miss ratio over *all* windows, and the worst absolute gap is
//! published as [`Selection::profile_error`]. The documented bound is
//! [`PROFILE_ERROR_BOUND`]: selections over the synthetic catalog stay
//! within it (property-tested), and ingestion surfaces the measured value
//! with every upload so callers can judge an atypical trace for
//! themselves.

use cachetime_testkit::SplitMix64;
use cachetime_types::{AccessKind, MemRef};

/// Words per probe-cache block (16 bytes — small enough that spatial
/// locality differences between windows still show up in the features).
const PROBE_BLOCK_WORDS: u64 = 4;

/// Probe-cache set counts: 256 / 2K / 16K sets of one block each, i.e.
/// 4 KiB / 32 KiB / 256 KiB — spread across the paper's size axis so
/// windows that differ anywhere on the miss-ratio curve get different
/// feature vectors.
const PROBE_SETS: [usize; 3] = [256, 2048, 16384];

/// The documented ceiling on [`Selection::profile_error`] for catalog
/// traces: the weighted probe miss ratio of the picked windows stays
/// within this absolute distance of the full-trace value.
pub const PROFILE_ERROR_BOUND: f64 = 0.05;

/// One direct-mapped probe cache: a tag per set, no data, no timing —
/// just enough state to count misses.
#[derive(Debug)]
struct ProbeCache {
    tags: Vec<u64>,
    mask: u64,
}

impl ProbeCache {
    fn new(sets: usize) -> ProbeCache {
        ProbeCache {
            tags: vec![u64::MAX; sets],
            mask: sets as u64 - 1,
        }
    }

    /// Probes the set of `block` for `tag`: 1 on a miss (which installs
    /// the tag), 0 on a hit.
    #[inline]
    fn probe(&mut self, block: u64, tag: u64) -> u64 {
        let set = &mut self.tags[(block & self.mask) as usize];
        let miss = u64::from(*set != tag);
        *set = tag;
        miss
    }
}

/// The per-window feature vector: probe miss ratios at the three sizes
/// plus the access-kind mix, every component in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowFeatures {
    /// Index of the window's first reference in the trace.
    pub start_ref: usize,
    /// References in the window (the last window may be short).
    pub len: usize,
    /// Probe-cache miss ratios, smallest probe first.
    pub probe_miss: [f64; 3],
    /// Fraction of references that are instruction fetches.
    pub ifetch_frac: f64,
    /// Fraction of references that are stores.
    pub store_frac: f64,
}

impl WindowFeatures {
    /// Squared euclidean distance in feature space.
    fn dist2(&self, other: &WindowFeatures) -> f64 {
        let mut d = 0.0;
        for i in 0..3 {
            let x = self.probe_miss[i] - other.probe_miss[i];
            d += x * x;
        }
        let fi = self.ifetch_frac - other.ifetch_frac;
        let fs = self.store_frac - other.store_frac;
        d + fi * fi + fs * fs
    }
}

/// Streaming per-window feature extraction: push every reference once,
/// in order; memory is O(probe sets + windows seen), independent of the
/// reference count.
#[derive(Debug)]
pub struct IntervalProfiler {
    window_refs: usize,
    probes: [ProbeCache; 3],
    windows: Vec<WindowFeatures>,
    // Accumulators for the window being filled.
    cur_len: usize,
    cur_miss: [u64; 3],
    /// References by kind, indexed by `AccessKind as usize`.
    cur_kinds: [u64; 3],
    total_refs: usize,
}

impl IntervalProfiler {
    /// A profiler cutting the stream into windows of `window_refs`
    /// references (min 1).
    pub fn new(window_refs: usize) -> IntervalProfiler {
        IntervalProfiler {
            window_refs: window_refs.max(1),
            probes: [
                ProbeCache::new(PROBE_SETS[0]),
                ProbeCache::new(PROBE_SETS[1]),
                ProbeCache::new(PROBE_SETS[2]),
            ],
            windows: Vec::new(),
            cur_len: 0,
            cur_miss: [0; 3],
            cur_kinds: [0; 3],
            total_refs: 0,
        }
    }

    /// Feeds one reference. Branch-free but for the window's end: the
    /// probes run as one loop and the kinds are counted by index, since a
    /// trace's kinds follow no pattern a branch predictor could learn.
    #[inline]
    pub fn push(&mut self, r: MemRef) {
        // Tag on (block, pid) so multiprogrammed uploads conflict the way
        // the virtual caches in the simulator do.
        let block = r.addr.block(PROBE_BLOCK_WORDS as u32).value();
        let tag = (block << 16) | u64::from(r.pid.0);
        for (probe, misses) in self.probes.iter_mut().zip(&mut self.cur_miss) {
            *misses += probe.probe(block, tag);
        }
        self.cur_kinds[r.kind as usize] += 1;
        self.cur_len += 1;
        self.total_refs += 1;
        if self.cur_len == self.window_refs {
            self.seal_window();
        }
    }

    fn seal_window(&mut self) {
        let len = self.cur_len;
        if len == 0 {
            return;
        }
        let n = len as f64;
        self.windows.push(WindowFeatures {
            start_ref: self.total_refs - len,
            len,
            probe_miss: [
                self.cur_miss[0] as f64 / n,
                self.cur_miss[1] as f64 / n,
                self.cur_miss[2] as f64 / n,
            ],
            ifetch_frac: self.cur_kinds[AccessKind::IFetch as usize] as f64 / n,
            store_frac: self.cur_kinds[AccessKind::Store as usize] as f64 / n,
        });
        self.cur_len = 0;
        self.cur_miss = [0; 3];
        self.cur_kinds = [0; 3];
    }

    /// Seals any partial final window and returns the profile.
    pub fn finish(mut self) -> IntervalProfile {
        self.seal_window();
        IntervalProfile {
            window_refs: self.window_refs,
            total_refs: self.total_refs,
            windows: self.windows,
        }
    }
}

/// The per-window feature vectors of a whole trace.
#[derive(Debug, Clone)]
pub struct IntervalProfile {
    /// The fixed window size the profile was cut with.
    pub window_refs: usize,
    /// Total references profiled.
    pub total_refs: usize,
    /// One feature vector per window, in trace order.
    pub windows: Vec<WindowFeatures>,
}

impl IntervalProfile {
    /// Profiles an in-memory slice (streaming callers drive
    /// [`IntervalProfiler`] directly).
    pub fn scan(refs: &[MemRef], window_refs: usize) -> IntervalProfile {
        let mut p = IntervalProfiler::new(window_refs);
        for &r in refs {
            p.push(r);
        }
        p.finish()
    }

    /// The exact length-weighted mean of probe miss ratio `probe` over
    /// every window — the ground truth a selection's estimate is judged
    /// against.
    fn full_probe_miss(&self, probe: usize) -> f64 {
        if self.total_refs == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .windows
            .iter()
            .map(|w| w.probe_miss[probe] * w.len as f64)
            .sum();
        sum / self.total_refs as f64
    }
}

/// One selected window with its cluster weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pick {
    /// Index into [`IntervalProfile::windows`].
    pub window: usize,
    /// First reference of the window in the trace.
    pub start_ref: usize,
    /// References in the window.
    pub len: usize,
    /// Fraction of the trace this window stands in for (cluster refs /
    /// total refs); weights sum to 1.
    pub weight: f64,
}

/// A representative-interval selection with its self-measured accuracy.
#[derive(Debug, Clone)]
pub struct Selection {
    /// The picked windows, in trace order.
    pub picks: Vec<Pick>,
    /// Worst absolute gap, across the probe sizes, between the weighted
    /// picked miss ratio and the exact full-profile miss ratio. The
    /// documented catalog bound is [`PROFILE_ERROR_BOUND`].
    pub profile_error: f64,
}

impl Selection {
    /// Picks at most `k` representative windows from `profile`,
    /// deterministically for a given `seed`.
    ///
    /// k-medoid-style: medoids are initialized k-means++-fashion from the
    /// seeded stream (first uniform, then proportional to squared
    /// distance from the nearest chosen medoid), every window is assigned
    /// to its nearest medoid, and each cluster's medoid is re-centered to
    /// the member minimizing total intra-cluster distance until the
    /// assignment stops changing (or a small iteration cap). Weights are
    /// cluster reference counts over total references.
    pub fn pick(profile: &IntervalProfile, k: usize, seed: u64) -> Selection {
        let windows = &profile.windows;
        if windows.is_empty() {
            return Selection {
                picks: Vec::new(),
                profile_error: 0.0,
            };
        }
        let k = k.max(1).min(windows.len());
        let mut rng = SplitMix64::from_seed(seed);

        // k-means++-style medoid init.
        let mut medoids: Vec<usize> = Vec::with_capacity(k);
        medoids.push(rng.gen_range(0..windows.len() as u64) as usize);
        let mut nearest2: Vec<f64> = windows
            .iter()
            .map(|w| w.dist2(&windows[medoids[0]]))
            .collect();
        while medoids.len() < k {
            let total: f64 = nearest2.iter().sum();
            let next = if total <= 0.0 {
                // All remaining windows coincide with a medoid; any
                // non-medoid index keeps determinism.
                match (0..windows.len()).find(|i| !medoids.contains(i)) {
                    Some(i) => i,
                    None => break,
                }
            } else {
                let mut target = rng.next_f64() * total;
                let mut chosen = windows.len() - 1;
                for (i, &d) in nearest2.iter().enumerate() {
                    if target < d {
                        chosen = i;
                        break;
                    }
                    target -= d;
                }
                chosen
            };
            medoids.push(next);
            for (i, w) in windows.iter().enumerate() {
                nearest2[i] = nearest2[i].min(w.dist2(&windows[next]));
            }
        }

        // Assign + re-center until stable.
        let mut assign = vec![0usize; windows.len()];
        for _ in 0..16 {
            let mut changed = false;
            for (i, w) in windows.iter().enumerate() {
                let best = (0..medoids.len())
                    .min_by(|&a, &b| {
                        w.dist2(&windows[medoids[a]])
                            .total_cmp(&w.dist2(&windows[medoids[b]]))
                    })
                    .expect("at least one medoid");
                if assign[i] != best {
                    assign[i] = best;
                    changed = true;
                }
            }
            let mut moved = false;
            for (c, medoid) in medoids.iter_mut().enumerate() {
                let members: Vec<usize> = (0..windows.len()).filter(|&i| assign[i] == c).collect();
                if members.is_empty() {
                    continue;
                }
                let best = *members
                    .iter()
                    .min_by(|&&a, &&b| {
                        let cost = |m: usize| -> f64 {
                            members.iter().map(|&i| windows[i].dist2(&windows[m])).sum()
                        };
                        cost(a).total_cmp(&cost(b))
                    })
                    .expect("nonempty cluster");
                if *medoid != best {
                    *medoid = best;
                    moved = true;
                }
            }
            if !changed && !moved {
                break;
            }
        }

        // Weights: cluster reference mass. Empty clusters (possible when
        // duplicate medoids collapse) contribute nothing and are dropped.
        let mut cluster_refs = vec![0usize; medoids.len()];
        for (i, &c) in assign.iter().enumerate() {
            cluster_refs[c] += windows[i].len;
        }
        let total = profile.total_refs.max(1) as f64;
        let mut picks: Vec<Pick> = medoids
            .iter()
            .enumerate()
            .filter(|&(c, _)| cluster_refs[c] > 0)
            .map(|(c, &m)| Pick {
                window: m,
                start_ref: windows[m].start_ref,
                len: windows[m].len,
                weight: cluster_refs[c] as f64 / total,
            })
            .collect();
        picks.sort_by_key(|p| p.window);

        // Self-measured accuracy: weighted picked miss vs exact, worst
        // probe size.
        let mut profile_error: f64 = 0.0;
        for probe in 0..3 {
            let est: f64 = picks
                .iter()
                .map(|p| windows[p.window].probe_miss[probe] * p.weight)
                .sum();
            let exact = profile.full_probe_miss(probe);
            profile_error = profile_error.max((est - exact).abs());
        }
        Selection {
            picks,
            profile_error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use cachetime_testkit::{check, prop_assert, prop_assert_eq};
    use cachetime_types::{Pid, WordAddr};

    fn synthetic(n: usize, seed: u64) -> Vec<MemRef> {
        let mut rng = SplitMix64::from_seed(seed);
        (0..n)
            .map(|i| {
                // Two alternating phases with different footprints, so
                // clustering has real structure to find.
                let phase = (i / 512) % 2;
                let span = if phase == 0 { 1 << 10 } else { 1 << 16 };
                let addr = WordAddr::new(rng.next_u64() % span);
                match rng.next_u64() % 4 {
                    0 => MemRef::store(addr, Pid(0)),
                    1 => MemRef::load(addr, Pid(0)),
                    _ => MemRef::ifetch(addr, Pid(0)),
                }
            })
            .collect()
    }

    #[test]
    fn profile_cuts_fixed_windows_with_a_short_tail() {
        let refs = synthetic(2500, 1);
        let p = IntervalProfile::scan(&refs, 1000);
        assert_eq!(p.total_refs, 2500);
        assert_eq!(p.windows.len(), 3);
        assert_eq!(p.windows[0].len, 1000);
        assert_eq!(p.windows[2].len, 500);
        assert_eq!(p.windows[2].start_ref, 2000);
        for w in &p.windows {
            for m in w.probe_miss {
                assert!((0.0..=1.0).contains(&m));
            }
            assert!(w.ifetch_frac + w.store_frac <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn probe_miss_falls_with_probe_size() {
        let refs = synthetic(20_000, 2);
        let p = IntervalProfile::scan(&refs, 20_000);
        let m = p.windows[0].probe_miss;
        assert!(m[0] >= m[1] && m[1] >= m[2], "{m:?}");
    }

    #[test]
    fn empty_and_tiny_traces_are_handled() {
        let p = IntervalProfile::scan(&[], 100);
        assert!(p.windows.is_empty());
        let s = Selection::pick(&p, 5, 0);
        assert!(s.picks.is_empty());
        assert_eq!(s.profile_error, 0.0);

        let one = [MemRef::load(WordAddr::new(1), Pid(0))];
        let p1 = IntervalProfile::scan(&one, 100);
        let s1 = Selection::pick(&p1, 5, 0);
        assert_eq!(s1.picks.len(), 1);
        assert!((s1.picks[0].weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn selection_is_deterministic_for_a_fixed_seed() {
        check(
            "interval_selection_deterministic",
            |rng| {
                let n = 2_000 + (rng.next_u64() % 30_000) as usize;
                let trace_seed = rng.next_u64();
                let pick_seed = rng.next_u64();
                let k = 1 + (rng.next_u64() % 12) as usize;
                (n, trace_seed, pick_seed, k)
            },
            |&(n, ts, ps, k)| {
                if n > 2_000 {
                    vec![(n / 2, ts, ps, k)]
                } else {
                    Vec::new()
                }
            },
            |&(n, trace_seed, pick_seed, k)| {
                let refs = synthetic(n, trace_seed);
                let p = IntervalProfile::scan(&refs, 1024);
                let a = Selection::pick(&p, k, pick_seed);
                let b = Selection::pick(&p, k, pick_seed);
                prop_assert_eq!(a.picks.len(), b.picks.len(), "pick counts");
                for (x, y) in a.picks.iter().zip(&b.picks) {
                    prop_assert_eq!(x.window, y.window, "window choice");
                    prop_assert!((x.weight - y.weight).abs() < 1e-15, "weights bit-stable");
                }
                prop_assert!(
                    (a.profile_error - b.profile_error).abs() < 1e-15,
                    "error bit-stable"
                );
                prop_assert!(a.picks.len() <= k.max(1), "at most k picks");
                let wsum: f64 = a.picks.iter().map(|p| p.weight).sum();
                prop_assert!((wsum - 1.0).abs() < 1e-9, "weights sum to 1, got {wsum}");
                Ok(())
            },
        );
    }

    #[test]
    fn catalog_selections_stay_within_the_documented_error_bound() {
        for spec in [
            catalog::mu3(0.05),
            catalog::savec(0.05),
            catalog::rd1n3(0.05),
        ] {
            let trace = spec.generate();
            let window = (trace.len() / 40).max(256);
            let profile = IntervalProfile::scan(trace.refs(), window);
            for seed in [0u64, 1, 42] {
                let s = Selection::pick(&profile, 10, seed);
                assert!(s.picks.len() <= 10);
                assert!(
                    s.profile_error <= PROFILE_ERROR_BOUND,
                    "{}: profile error {} over bound {PROFILE_ERROR_BOUND} (seed {seed})",
                    spec.name,
                    s.profile_error
                );
            }
        }
    }
}
