//! Span timers and trace sinks.
//!
//! A [`Span`] is a drop guard: create it at the top of a phase, let it
//! fall out of scope at the end. Its duration feeds the registry's
//! `cachetime_span_duration_us{span="..."}` histogram, and — when a
//! sink is installed — one trace record per span is emitted. The
//! bundled [`JsonlSink`] writes newline-delimited JSON suitable for
//! `--profile <path>`.

use crate::metric::Histogram;
use crate::registry::Registry;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One finished span, handed to the installed [`SpanSink`].
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord<'a> {
    /// The span's name, e.g. `core_record`.
    pub span: &'a str,
    /// Microseconds since the Unix epoch at span start.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Units of work covered (references replayed, tasks run, ...);
    /// zero when the caller did not set one.
    pub work: u64,
}

/// Receives finished spans. Implementations must be cheap and
/// non-blocking enough to sit on simulation paths.
pub trait SpanSink: Send + Sync {
    /// Consume one finished span.
    fn emit(&self, record: &SpanRecord<'_>);
}

/// A drop-guard timer created by [`Registry::span`] or
/// [`global_span!`](crate::global_span).
pub struct Span<'a> {
    registry: &'a Registry,
    name: &'static str,
    hist: Arc<Histogram>,
    start: Instant,
    start_us: u64,
    work: u64,
}

impl<'a> Span<'a> {
    /// Starts a span that records into `hist`.
    pub(crate) fn start(registry: &'a Registry, name: &'static str, hist: Arc<Histogram>) -> Self {
        let start_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        Self {
            registry,
            name,
            hist,
            start: Instant::now(),
            start_us,
            work: 0,
        }
    }

    /// Attach a work count (events replayed, tasks completed, ...) so
    /// trace records carry a throughput denominator.
    pub fn set_work(&mut self, work: u64) {
        self.work = work;
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let dur_us = self.start.elapsed().as_micros() as u64;
        self.hist.record(dur_us);
        if let Some(sink) = self.registry.current_sink() {
            sink.emit(&SpanRecord {
                span: self.name,
                start_us: self.start_us,
                dur_us,
                work: self.work,
            });
        }
    }
}

/// Starts a [`Span`] on the [`global`](crate::global) registry, looking
/// its duration histogram up once per call site rather than once per
/// span: the handle lives in a static beside the call.
///
/// ```
/// let mut span = cachetime_obs::global_span!("doc_example");
/// span.set_work(3);
/// ```
#[macro_export]
macro_rules! global_span {
    ($name:literal) => {{
        static HIST: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        $crate::global().span_with(
            $name,
            HIST.get_or_init(|| $crate::global().span_histogram($name)),
        )
    }};
}

/// Writes one JSON object per span, newline-delimited, to a file.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncating) the file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl SpanSink for JsonlSink {
    fn emit(&self, record: &SpanRecord<'_>) {
        // Span names are static identifiers ([a-z0-9_]) — no escaping
        // needed. Flush per line so a profile is complete even if the
        // process exits without dropping the sink.
        let mut out = self.out.lock().unwrap();
        let _ = writeln!(
            out,
            "{{\"span\":\"{}\",\"start_us\":{},\"dur_us\":{},\"work\":{}}}",
            record.span, record.start_us, record.dur_us, record.work
        );
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct CountingSink(AtomicU64, AtomicU64);
    impl SpanSink for CountingSink {
        fn emit(&self, record: &SpanRecord<'_>) {
            self.0.fetch_add(1, Ordering::Relaxed);
            self.1.fetch_add(record.work, Ordering::Relaxed);
        }
    }

    #[test]
    fn spans_feed_the_duration_histogram_and_the_sink() {
        let r = Registry::new();
        let sink = Arc::new(CountingSink(AtomicU64::new(0), AtomicU64::new(0)));
        r.set_sink(Some(sink.clone()));
        {
            let mut span = r.span("unit_test");
            span.set_work(42);
        }
        let h = r.histogram("cachetime_span_duration_us", &[("span", "unit_test")]);
        assert_eq!(h.count(), 1);
        assert_eq!(sink.0.load(Ordering::Relaxed), 1);
        assert_eq!(sink.1.load(Ordering::Relaxed), 42);
    }

    #[test]
    fn a_global_span_records_into_its_named_histogram() {
        let h = crate::global().span_histogram("cached_unit_test");
        let before = h.count();
        for _ in 0..3 {
            let mut span = crate::global_span!("cached_unit_test");
            span.set_work(1);
        }
        assert_eq!(h.count(), before + 3);
    }

    #[test]
    fn a_removed_sink_sees_no_more_spans() {
        let r = Registry::new();
        let sink = Arc::new(CountingSink(AtomicU64::new(0), AtomicU64::new(0)));
        r.set_sink(Some(sink.clone()));
        drop(r.span("seen"));
        r.set_sink(None);
        drop(r.span("unseen"));
        assert_eq!(sink.0.load(Ordering::Relaxed), 1);
        let h = r.histogram("cachetime_span_duration_us", &[("span", "unseen")]);
        assert_eq!(h.count(), 1, "the histogram records without a sink");
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_span() {
        let path =
            std::env::temp_dir().join(format!("cachetime-obs-sink-{}.jsonl", std::process::id()));
        let r = Registry::new();
        r.set_sink(Some(Arc::new(JsonlSink::create(&path).unwrap())));
        {
            let mut s = r.span("alpha");
            s.set_work(7);
        }
        drop(r.span("beta"));
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].starts_with("{\"span\":\"alpha\""), "{text}");
        assert!(lines[0].contains("\"work\":7"), "{text}");
        assert!(lines[1].starts_with("{\"span\":\"beta\""), "{text}");
    }
}
