//! In-memory spans for the traced run.
//!
//! Two sources feed one [`Collector`]: spans the benchmark opens around
//! its calls into each module's public functions ([`Collector::span`]),
//! and the spans the program already emits (`core_record`,
//! `core_replay`, `core_simulate`, `sweep_run`), which arrive through
//! the [`SpanSink`] installed on `cachetime_obs::global()`. Nothing is
//! written until the run ends; [`Tree::write_jsonl`] then dumps them.
//!
//! A span's parent is the innermost span open on the same thread that
//! contains it in time; its self time is its duration minus the part
//! of it that its children cover.

use cachetime_obs::{SpanRecord, SpanSink};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Program spans carry microsecond timestamps truncated toward zero, so
/// a child may appear to start up to a microsecond before its parent.
const CONTAINMENT_SLACK_NS: u64 = 1_000;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Small per-process thread number (first emitter is 0).
    pub thread: u32,
    /// `core_replay`, `op`, `serve.http.parse`, ...
    pub name: String,
    /// Nanoseconds since the Unix epoch.
    pub start_ns: u64,
    /// Nanoseconds since the Unix epoch.
    pub end_ns: u64,
    /// Units of work the span covered (references, tasks, bytes, ...).
    pub work: u64,
    /// The workload operation this span serves, when known.
    pub req: Option<u64>,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn thread_number() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static NUMBER: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    NUMBER.with(|n| *n)
}

fn epoch_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Collects spans while active; inactive collectors drop them.
#[derive(Debug, Default)]
pub struct Collector {
    active: AtomicBool,
    spans: Mutex<Vec<SpanRec>>,
}

impl Collector {
    /// Starts or stops recording.
    pub fn set_active(&self, active: bool) {
        self.active.store(active, Ordering::SeqCst);
    }

    /// Opens a benchmark-side span on the current thread.
    pub fn span(&self, name: &'static str, req: Option<u64>) -> SpanGuard<'_> {
        SpanGuard {
            collector: self,
            name,
            req,
            work: 0,
            start_ns: epoch_ns(),
            started: Instant::now(),
        }
    }

    /// Removes and returns everything recorded so far.
    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.lock().expect("span list lock poisoned"))
    }

    fn push(&self, rec: SpanRec) {
        if self.active.load(Ordering::SeqCst) {
            self.spans
                .lock()
                .expect("span list lock poisoned")
                .push(rec);
        }
    }
}

impl SpanSink for Collector {
    fn emit(&self, r: &SpanRecord<'_>) {
        self.push(SpanRec {
            thread: thread_number(),
            name: r.span.to_string(),
            start_ns: r.start_us * 1_000,
            end_ns: (r.start_us + r.dur_us) * 1_000,
            work: r.work,
            req: None,
        });
    }
}

/// A benchmark-side span; recorded when dropped.
pub struct SpanGuard<'a> {
    collector: &'a Collector,
    name: &'static str,
    req: Option<u64>,
    work: u64,
    start_ns: u64,
    started: Instant,
}

impl SpanGuard<'_> {
    /// Attaches a work count.
    pub fn set_work(&mut self, work: u64) {
        self.work = work;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur = self.started.elapsed().as_nanos() as u64;
        self.collector.push(SpanRec {
            thread: thread_number(),
            name: self.name.to_string(),
            start_ns: self.start_ns,
            end_ns: self.start_ns + dur,
            work: self.work,
            req: self.req,
        });
    }
}

/// Opens a span on `collector` when there is one (a traced phase).
pub fn span<'a>(
    collector: Option<&'a Collector>,
    name: &'static str,
    req: Option<u64>,
) -> Option<SpanGuard<'a>> {
    collector.map(|c| c.span(name, req))
}

/// Sorts spans into the order [`assign_parents`] expects: by thread,
/// then start, longest first among equal starts (parents before
/// children). Starts compare at microsecond resolution, the precision
/// of program spans, so a truncated child never sorts before its parent.
pub fn sort_spans(spans: &mut [SpanRec]) {
    spans.sort_by_key(|s| (s.thread, s.start_ns / 1_000, std::cmp::Reverse(s.end_ns)));
}

fn contains(outer: &SpanRec, inner: &SpanRec) -> bool {
    outer.thread == inner.thread
        && inner.start_ns + CONTAINMENT_SLACK_NS >= outer.start_ns
        && inner.end_ns <= outer.end_ns + CONTAINMENT_SLACK_NS
}

/// The parent of each span of a [`sort_spans`]-ordered list: the
/// innermost earlier span on the same thread that contains it in time.
pub fn assign_parents(spans: &[SpanRec]) -> Vec<Option<usize>> {
    let mut parents = vec![None; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        while let Some(&top) = open.last() {
            if contains(&spans[top], s) {
                break;
            }
            open.pop();
        }
        parents[i] = open.last().copied();
        open.push(i);
    }
    parents
}

/// Each span's duration minus the union of its children's intervals
/// (clipped to the span).
pub fn self_times(spans: &[SpanRec], parents: &[Option<usize>]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, p) in parents.iter().enumerate() {
        if let Some(p) = p {
            children[*p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let start = spans[k].start_ns.clamp(s.start_ns, s.end_ns);
                    (start, spans[k].end_ns.clamp(start, s.end_ns))
                })
                .collect();
            intervals.sort_unstable();
            for (start, end) in intervals {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Spans with their parents and self times.
#[derive(Debug, Default)]
pub struct Tree {
    /// The spans, in [`sort_spans`] order.
    pub spans: Vec<SpanRec>,
    /// Index of each span's parent.
    pub parents: Vec<Option<usize>>,
    /// Each span's self time, in nanoseconds.
    pub self_ns: Vec<u64>,
}

impl Tree {
    /// Orders the spans, links parents, passes each parent's `req` down
    /// to children that have none, and computes self times.
    pub fn build(mut spans: Vec<SpanRec>) -> Tree {
        sort_spans(&mut spans);
        let parents = assign_parents(&spans);
        for i in 0..spans.len() {
            if spans[i].req.is_none() {
                if let Some(p) = parents[i] {
                    spans[i].req = spans[p].req;
                }
            }
        }
        let self_ns = self_times(&spans, &parents);
        Tree {
            spans,
            parents,
            self_ns,
        }
    }

    /// Whether span `i` or one of its ancestors is named `name`.
    pub fn within(&self, mut i: usize, name: &str) -> bool {
        loop {
            if self.spans[i].name == name {
                return true;
            }
            match self.parents[i] {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Indices of the spans named `name` that run for the workload
    /// itself, not for a shadow measurement.
    pub fn live(&self, name: &str) -> impl Iterator<Item = usize> + '_ {
        let name = name.to_string();
        (0..self.spans.len())
            .filter(move |&i| self.spans[i].name == name && !self.within(i, "shadow"))
    }

    /// `(calls, busy ns, work)` over the live spans named `name`.
    pub fn totals(&self, name: &str) -> (u64, u64, u64) {
        self.live(name).fold((0, 0, 0), |(n, ns, w), i| {
            (n + 1, ns + self.spans[i].dur_ns(), w + self.spans[i].work)
        })
    }

    /// `(calls, busy ns, work)` over every span named `name`, shadow or not.
    pub fn all_totals(&self, name: &str) -> (u64, u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0, 0), |(n, ns, w), s| {
                (n + 1, ns + s.dur_ns(), w + s.work)
            })
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// The share of workload-operation time (`op` spans) that no layer
    /// span accounts for: `1 − Σ layer self time / Σ op duration`. Layer
    /// spans are every live span except the operations themselves and
    /// `sweep_run`, which only waits for its workers.
    pub fn residual_frac(&self) -> f64 {
        let op_ns: u64 = self.live("op").map(|i| self.spans[i].dur_ns()).sum();
        if op_ns == 0 {
            return 0.0;
        }
        let layer_ns: u64 = (0..self.spans.len())
            .filter(|&i| {
                let name = self.spans[i].name.as_str();
                name != "op" && name != "sweep_run" && !self.within(i, "shadow")
            })
            .map(|i| self.self_ns[i])
            .sum();
        1.0 - layer_ns as f64 / op_ns as f64
    }

    /// Appends one JSON object per span to `out`: `workload`, `thread`,
    /// `req`, `span`, `parent` (the 0-based line of the parent span
    /// within this tree, offset by `base`), `start_us`/`end_us` (since
    /// `origin_ns`), and `work`.
    pub fn write_jsonl(
        &self,
        out: &mut impl std::io::Write,
        workload: &str,
        base: usize,
        origin_ns: u64,
    ) -> std::io::Result<()> {
        let us = |ns: u64| ns.saturating_sub(origin_ns) as f64 / 1_000.0;
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"thread\":{},\"req\":{},\"span\":\"{}\",\"parent\":{},\"start_us\":{},\"end_us\":{},\"work\":{}}}",
                s.thread,
                opt(s.req),
                s.name,
                opt(self.parents[i].map(|p| (p + base) as u64)),
                us(s.start_ns),
                us(s.end_ns),
                s.work
            )?;
        }
        Ok(())
    }
}

/// Writes the set-up and timed trees of one run as JSONL at `path`.
pub fn write_jsonl_file(
    path: &std::path::Path,
    workload: &str,
    trees: &[&Tree],
) -> std::io::Result<()> {
    let origin = trees
        .iter()
        .flat_map(|t| t.spans.iter().map(|s| s.start_ns))
        .min()
        .unwrap_or(0);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut base = 0;
    for tree in trees {
        tree.write_jsonl(&mut out, workload, base, origin)?;
        base += tree.spans.len();
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(thread: u32, name: &str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            thread,
            name: name.into(),
            start_ns: start * 10_000,
            end_ns: end * 10_000,
            work: 0,
            req: None,
        }
    }

    #[test]
    fn parents_are_innermost_containing_spans_on_the_same_thread() {
        let mut spans = vec![
            rec(0, "op", 0, 100),
            rec(0, "core_record", 10, 40),
            rec(0, "core_replay", 50, 90),
            rec(0, "inner", 60, 70),
            rec(1, "server", 20, 30), // another thread: never a child of `op`
            rec(0, "op", 100, 200),   // starts as the first ends: a sibling
            rec(0, "late", 150, 250), // overlaps but is not contained
        ];
        sort_spans(&mut spans);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "op",
                "core_record",
                "core_replay",
                "inner",
                "op",
                "late",
                "server"
            ]
        );
        let parents = assign_parents(&spans);
        assert_eq!(parents, [None, Some(0), Some(0), Some(2), None, None, None]);
    }

    #[test]
    fn slack_admits_children_truncated_to_the_microsecond() {
        let parent = SpanRec {
            start_ns: 5_000_700,
            end_ns: 5_100_000,
            ..rec(0, "op", 0, 0)
        };
        // A program span starting 0.7 µs "before" its parent after truncation.
        let child = SpanRec {
            start_ns: 5_000_000,
            end_ns: 5_050_000,
            ..rec(0, "core_replay", 0, 0)
        };
        let tree = Tree::build(vec![child, parent]);
        let names: Vec<&str> = tree.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["op", "core_replay"]);
        assert_eq!(tree.parents, [None, Some(0)]);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = vec![
            rec(0, "op", 0, 100),
            rec(0, "a", 10, 40),
            rec(0, "b", 50, 90),
            rec(0, "c", 60, 70),
        ];
        sort_spans(&mut spans);
        let parents = assign_parents(&spans);
        let selfs = self_times(&spans, &parents);
        // op: 100 − (30 + 40); a: 30; b: 40 − 10; c: 10 (units of 10 µs).
        assert_eq!(selfs, [300_000, 300_000, 300_000, 100_000]);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            rec(0, "op", 0, 100),
            rec(0, "x", 10, 50),
            rec(0, "y", 30, 60),
        ];
        // x and y overlap (y is not inside x): both are children of op.
        let parents = vec![None, Some(0), Some(0)];
        let selfs = self_times(&spans, &parents);
        assert_eq!(selfs[0], 500_000); // 100 − |[10, 60)|
    }

    #[test]
    fn residual_counts_only_live_layers() {
        let tree = Tree::build(vec![
            rec(0, "op", 0, 100),
            rec(0, "core_replay", 10, 70),
            rec(0, "shadow", 100, 200),
            rec(0, "core_replay", 110, 190),
            rec(1, "core_record", 20, 30),
        ]);
        // Layers: 60 on thread 0 plus 10 on the server thread, of 100.
        assert!((tree.residual_frac() - 0.3).abs() < 1e-12);
        assert_eq!(tree.totals("core_replay").0, 1);
        assert_eq!(tree.all_totals("core_replay").0, 2);
    }

    #[test]
    fn collector_records_only_while_active() {
        let c = Collector::default();
        drop(c.span("quiet", None));
        c.set_active(true);
        {
            let mut s = c.span("loud", Some(7));
            s.set_work(3);
        }
        let spans = c.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (spans[0].name.as_str(), spans[0].req, spans[0].work),
            ("loud", Some(7), 3)
        );
        assert!(c.take().is_empty());
    }
}
