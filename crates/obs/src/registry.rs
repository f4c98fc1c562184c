//! The metric registry: named families of counters, gauges, and
//! histograms, one read-only [`walk`](Registry::walk) over them, and the
//! Prometheus text renderer built on that walk.
//!
//! Registration is get-or-create: the first `counter("x", ...)` call
//! creates the series, later calls hand back the same `Arc`. The mutex
//! guards only the name → handle map; recording on a handle is pure
//! atomics and never takes the registry lock. Callers on hot paths
//! should therefore look a handle up once and keep the `Arc`.

use crate::metric::{Counter, Gauge, Histogram, BUCKETS};
use crate::span::{Span, SpanSink};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One series' live handle, as [`Registry::walk`] visits it. Every
/// series of a family is of the kind its first registration chose;
/// re-registering a name under another kind panics (a programmer error,
/// not a runtime condition).
#[derive(Clone)]
pub enum Sample {
    /// A counter series.
    Counter(Arc<Counter>),
    /// A gauge series.
    Gauge(Arc<Gauge>),
    /// A histogram series.
    Histogram(Arc<Histogram>),
}

impl Sample {
    /// The family type a `# TYPE` line names.
    fn kind(&self) -> &'static str {
        match self {
            Sample::Counter(_) => "counter",
            Sample::Gauge(_) => "gauge",
            Sample::Histogram(_) => "histogram",
        }
    }
}

/// A process- or component-scoped collection of metrics.
///
/// The server gives every `App` its own registry so tests stay
/// isolated; binaries share [`global()`](crate::global) so one scrape
/// sees the whole process.
pub struct Registry {
    /// Family name → rendered label set (`key="value",...`, possibly
    /// empty) → series.
    families: Mutex<BTreeMap<String, BTreeMap<String, Sample>>>,
    sink: Mutex<Option<Arc<dyn SpanSink>>>,
    /// Whether `sink` holds one, so a finished span takes no lock when
    /// there is nothing to emit to. Relaxed: the flag publishes nothing,
    /// since a span that sees it set reads the sink under the lock.
    has_sink: AtomicBool,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry with no sink.
    pub fn new() -> Self {
        Self {
            families: Mutex::new(BTreeMap::new()),
            sink: Mutex::new(None),
            has_sink: AtomicBool::new(false),
        }
    }

    /// Get or register a counter. `labels` distinguish series within
    /// the family; label order does not matter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.handle(name, labels, "counter", || Sample::Counter(Arc::default())) {
            Sample::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Get or register a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.handle(name, labels, "gauge", || Sample::Gauge(Arc::default())) {
            Sample::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Get or register a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.handle(name, labels, "histogram", || {
            Sample::Histogram(Arc::default())
        }) {
            Sample::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    fn handle(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        kind: &str,
        new: fn() -> Sample,
    ) -> Sample {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        let key = label_key(labels);
        let mut families = self.families.lock().unwrap();
        // Look the family up by `&str` first: only its first registration
        // allocates the name.
        if !families.contains_key(name) {
            families.insert(name.to_string(), BTreeMap::new());
        }
        let series = families.get_mut(name).expect("inserted above");
        if let Some(first) = series.values().next() {
            assert!(
                first.kind() == kind,
                "metric {name:?} registered as {} and again as {kind}",
                first.kind()
            );
        }
        series.entry(key).or_insert_with(new).clone()
    }

    /// Start a span. Its duration lands in the
    /// `cachetime_span_duration_us{span="<name>"}` histogram when the
    /// guard drops, and — if a sink is installed — one trace record is
    /// emitted. Looks the histogram up on every call; a hot call site on
    /// the global registry uses [`global_span!`](crate::global_span),
    /// which looks it up once.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span::start(self, name, self.span_histogram(name))
    }

    /// [`span`](Self::span) with the duration histogram already looked
    /// up by [`span_histogram`](Self::span_histogram).
    pub fn span_with(&self, name: &'static str, hist: &Arc<Histogram>) -> Span<'_> {
        Span::start(self, name, Arc::clone(hist))
    }

    /// The histogram spans named `name` record their durations in.
    pub fn span_histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram("cachetime_span_duration_us", &[("span", name)])
    }

    /// Install (or clear) the span trace sink.
    pub fn set_sink(&self, sink: Option<Arc<dyn SpanSink>>) {
        let mut slot = self.sink.lock().unwrap();
        self.has_sink.store(sink.is_some(), Ordering::Relaxed);
        *slot = sink;
    }

    /// The installed sink, if any; takes the lock only when there is one.
    pub(crate) fn current_sink(&self) -> Option<Arc<dyn SpanSink>> {
        if !self.has_sink.load(Ordering::Relaxed) {
            return None;
        }
        self.sink.lock().unwrap().clone()
    }

    /// Render every family in the Prometheus text exposition format
    /// (version 0.0.4): `# TYPE` lines, `_total`-style sample lines,
    /// and cumulative `_bucket{le="..."}` series for histograms. All
    /// values are integers — the format can never contain `NaN`.
    pub fn render_prometheus(&self) -> String {
        self.render_prometheus_filtered("")
    }

    /// [`render_prometheus`](Self::render_prometheus) restricted to the
    /// families whose name starts with `prefix` (the `/v1/metrics?family=`
    /// query). The empty prefix renders everything; an unmatched prefix
    /// renders an empty exposition, which is valid Prometheus text.
    pub fn render_prometheus_filtered(&self, prefix: &str) -> String {
        let mut out = String::new();
        let mut family = String::new();
        self.walk(|name, labels, sample| {
            if !name.starts_with(prefix) {
                return;
            }
            if name != family {
                family.replace_range(.., name);
                let _ = writeln!(out, "# TYPE {name} {}", sample.kind());
            }
            match sample {
                Sample::Counter(c) => {
                    let _ = writeln!(out, "{name}{} {}", braced(labels), c.get());
                }
                Sample::Gauge(g) => {
                    let _ = writeln!(out, "{name}{} {}", braced(labels), g.get());
                }
                Sample::Histogram(h) => render_histogram(&mut out, name, labels, h),
            }
        });
        out
    }

    /// Visits every series as `(family, labels, sample)`, in family-name
    /// order and, within a family, in label order. `labels` is the
    /// rendered label set (`key="value",...`), empty for an unlabelled
    /// series; every family holds at least one series. Runs under the
    /// registry lock, so `visit` must not register metrics.
    pub fn walk(&self, mut visit: impl FnMut(&str, &str, &Sample)) {
        let families = self.families.lock().unwrap();
        for (name, series) in families.iter() {
            for (labels, sample) in series.iter() {
                visit(name, labels, sample);
            }
        }
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let snap = h.snapshot();
    let mut cumulative = 0u64;
    for (i, n) in snap.iter().enumerate() {
        cumulative += n;
        let le = Histogram::bucket_upper(i);
        let series = join_labels(labels, &format!("le=\"{le}\""));
        let _ = write!(out, "{name}_bucket{{{series}}} {cumulative}");
        // OpenMetrics-style exemplar: which entity last landed here.
        if let Some(e) = h.exemplar(i) {
            let escaped = e.value.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(out, " # {{{}=\"{escaped}\"}} {}", e.label, e.observed);
        }
        out.push('\n');
    }
    let series = join_labels(labels, "le=\"+Inf\"");
    let _ = writeln!(out, "{name}_bucket{{{series}}} {cumulative}");
    let _ = writeln!(out, "{name}_sum{} {}", braced(labels), h.sum());
    let _ = writeln!(out, "{name}_count{} {}", braced(labels), h.count());
    debug_assert_eq!(snap.len(), BUCKETS);
}

fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

fn join_labels(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        extra.to_string()
    } else {
        format!("{labels},{extra}")
    }
}

/// Canonical label rendering: sorted by key, `key="value"` with the
/// value's `"` and `\` escaped.
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut pairs: Vec<_> = labels.to_vec();
    pairs.sort_unstable();
    let mut out = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        debug_assert!(valid_name(k), "invalid label name {k:?}");
        if i > 0 {
            out.push(',');
        }
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(out, "{k}=\"{escaped}\"");
    }
    out
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// The process-wide registry shared by the core engine, the sweep
/// executor, and the binaries.
pub fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_create() {
        let r = Registry::new();
        let a = r.counter("x_total", &[]);
        let b = r.counter("x_total", &[]);
        a.inc();
        assert_eq!(b.get(), 1, "same name must alias the same counter");
        let with = r.counter("x_total", &[("kind", "warm")]);
        with.add(5);
        assert_eq!(a.get(), 1, "labelled series are distinct");
        assert_eq!(with.get(), 5);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let r = Registry::new();
        let a = r.gauge("g", &[("a", "1"), ("b", "2")]);
        let b = r.gauge("g", &[("b", "2"), ("a", "1")]);
        a.set(7);
        assert_eq!(b.get(), 7);
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn kind_conflicts_panic() {
        let r = Registry::new();
        r.counter("twice", &[]);
        r.gauge("twice", &[]);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_typed() {
        let r = Registry::new();
        r.counter("hits_total", &[]).add(3);
        r.gauge("depth", &[("pool", "a")]).set(-2);
        let h = r.histogram("lat_us", &[]);
        h.record(3);
        h.record(3);
        h.record(1000);
        let text = r.render_prometheus();
        assert!(
            text.contains("# TYPE hits_total counter\nhits_total 3\n"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE depth gauge\ndepth{pool=\"a\"} -2\n"),
            "{text}"
        );
        // Bucket for 3 is [2,4) → le="4" cumulative 2; 1000 lands under
        // le="1024" making the cumulative 3; +Inf equals the count.
        assert!(text.contains("lat_us_bucket{le=\"4\"} 2\n"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"1024\"} 3\n"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("lat_us_sum 1006\n"), "{text}");
        assert!(text.contains("lat_us_count 3\n"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn exemplars_render_on_their_bucket_line_only() {
        let r = Registry::new();
        let h = r.histogram("xfer_us", &[("peer", "a")]);
        h.record(3);
        h.record_with_exemplar(1000, "key", "00c0ffee00c0ffee".into());
        let text = r.render_prometheus();
        assert!(
            text.contains(
                "xfer_us_bucket{peer=\"a\",le=\"1024\"} 2 # {key=\"00c0ffee00c0ffee\"} 1000\n"
            ),
            "{text}"
        );
        // The plain observation's bucket line carries no exemplar.
        assert!(
            text.contains("xfer_us_bucket{peer=\"a\",le=\"4\"} 1\n"),
            "{text}"
        );
        // Sum/count lines never carry exemplars.
        assert!(text.contains("xfer_us_sum{peer=\"a\"} 1003\n"), "{text}");
    }
}
