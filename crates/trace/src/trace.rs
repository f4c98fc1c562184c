//! The trace container and its summary statistics.

use cachetime_types::{AccessKind, MemRef};
use std::collections::HashSet;
use std::fmt;

/// An in-memory reference trace with a warm-start boundary.
///
/// Statistics in the paper are "the geometric mean of warm start runs":
/// the simulator processes the whole trace but only the references at or
/// after [`Trace::warm_start`] contribute to the reported metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    name: String,
    refs: Vec<MemRef>,
    warm_start: usize,
}

impl Trace {
    /// Wraps a reference vector.
    ///
    /// # Panics
    ///
    /// Panics if `warm_start > refs.len()`.
    pub fn new(name: impl Into<String>, refs: Vec<MemRef>, warm_start: usize) -> Self {
        assert!(
            warm_start <= refs.len(),
            "warm start {warm_start} beyond trace length {}",
            refs.len()
        );
        Trace {
            name: name.into(),
            refs,
            warm_start,
        }
    }

    /// The trace's name (e.g. `"mu3"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All references, cold-start ones included.
    pub fn refs(&self) -> &[MemRef] {
        &self.refs
    }

    /// The bytes this trace holds on the heap: its reference vector's
    /// whole allocation (its capacity, not its length) and its name's.
    pub fn heap_bytes(&self) -> usize {
        self.refs.capacity() * std::mem::size_of::<MemRef>() + self.name.capacity()
    }

    /// References after the warm-start boundary (the measured window).
    pub fn warm_refs(&self) -> &[MemRef] {
        &self.refs[self.warm_start..]
    }

    /// Index of the first measured reference.
    pub fn warm_start(&self) -> usize {
        self.warm_start
    }

    /// Total reference count.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Computes summary statistics over the whole trace.
    pub fn stats(&self) -> TraceStats {
        let mut stats = TraceStats::default();
        let mut unique = HashSet::new();
        let mut pids = HashSet::new();
        for r in &self.refs {
            match r.kind {
                AccessKind::IFetch => stats.ifetches += 1,
                AccessKind::Load => stats.loads += 1,
                AccessKind::Store => stats.stores += 1,
            }
            unique.insert((r.pid, r.addr));
            pids.insert(r.pid);
        }
        stats.refs = self.refs.len() as u64;
        stats.unique_words = unique.len() as u64;
        stats.processes = pids.len() as u32;
        stats
    }
}

/// Summary statistics of a [`Trace`] (the columns of the paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Total references.
    pub refs: u64,
    /// Instruction fetches.
    pub ifetches: u64,
    /// Data loads.
    pub loads: u64,
    /// Data stores.
    pub stores: u64,
    /// Distinct `(pid, word)` pairs touched.
    pub unique_words: u64,
    /// Distinct processes.
    pub processes: u32,
}

impl TraceStats {
    /// Reads (loads plus instruction fetches) — the paper's read
    /// definition.
    pub fn reads(&self) -> u64 {
        self.ifetches + self.loads
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} refs ({} ifetch, {} load, {} store), {} unique words, {} processes",
            self.refs, self.ifetches, self.loads, self.stores, self.unique_words, self.processes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachetime_types::{Pid, WordAddr};

    fn mk(n: u64, warm: usize) -> Trace {
        let refs: Vec<MemRef> = (0..n)
            .map(|i| match i % 3 {
                0 => MemRef::ifetch(WordAddr::new(i), Pid(0)),
                1 => MemRef::load(WordAddr::new(i), Pid(1)),
                _ => MemRef::store(WordAddr::new(i % 5), Pid(1)),
            })
            .collect();
        Trace::new("test", refs, warm)
    }

    #[test]
    fn warm_refs_skips_prefix() {
        let t = mk(30, 10);
        assert_eq!(t.len(), 30);
        assert_eq!(t.warm_refs().len(), 20);
        assert_eq!(t.warm_start(), 10);
    }

    #[test]
    #[should_panic(expected = "warm start")]
    fn warm_start_beyond_length_panics() {
        mk(5, 6);
    }

    #[test]
    fn stats_count_kinds() {
        let t = mk(30, 0);
        let s = t.stats();
        assert_eq!(s.refs, 30);
        assert_eq!(s.ifetches, 10);
        assert_eq!(s.loads, 10);
        assert_eq!(s.stores, 10);
        assert_eq!(s.reads(), 20);
        assert_eq!(s.processes, 2);
        // ifetches: pid0 addrs {0,3,..,27}; loads: pid1 {1,4,..,28};
        // stores: pid1 {0..5} of which 1 and 4 collide with loads.
        assert_eq!(s.unique_words, 10 + 10 + 5 - 2);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new("empty", Vec::new(), 0);
        assert!(t.is_empty());
        assert_eq!(t.stats(), TraceStats::default());
    }

    #[test]
    fn stats_display_nonempty() {
        assert!(!mk(3, 0).stats().to_string().is_empty());
    }
}
