//! # cachetime-obs
//!
//! Zero-dependency observability for the cachetime workspace: a
//! [`Registry`] of named counters, gauges, and log₂ histograms backed
//! by lock-free atomics, plus [`Span`] drop-guard timers that feed
//! histograms and can emit JSONL trace records through a pluggable
//! [`SpanSink`].
//!
//! Two registries matter in practice:
//!
//! * [`global()`] — the process-wide registry. The core engine and the
//!   sweep executor always record here; binaries install sinks here.
//! * Per-component registries — `cachetime-serve` gives every `App`
//!   its own so concurrent tests in one process do not share counters.
//!
//! [`Registry::render_prometheus`] produces the text exposition format
//! served at `GET /v1/metrics`; all samples are integers, so the
//! output can never contain `NaN`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metric;
mod registry;
mod span;

pub use metric::{Counter, Exemplar, Gauge, Histogram, BUCKETS};
pub use registry::{global, Registry, Sample};
pub use span::{JsonlSink, Span, SpanRecord, SpanSink};
