//! `cachetime_disk_*` metric handles: `/v1/metrics` and `/v1/stats` read
//! literally the same atomics the store increments.

use cachetime_obs::{Counter, Gauge, Registry};
use std::sync::Arc;

/// The disk store's counters and gauges.
///
/// Built inside a [`Registry`], so the families render on `/v1/metrics`;
/// an embedded or test store passes a registry of its own.
#[derive(Clone)]
pub struct DiskMetrics {
    /// `cachetime_disk_spills_total`: segments durably written.
    pub(crate) spills: Arc<Counter>,
    /// `cachetime_disk_spill_bytes_total`: sealed bytes durably written.
    pub(crate) spill_bytes: Arc<Counter>,
    /// `cachetime_disk_spill_errors_total`: failed or faulted spills.
    pub(crate) spill_errors: Arc<Counter>,
    /// `cachetime_disk_loads_total`: read-throughs served from disk.
    pub(crate) loads: Arc<Counter>,
    /// `cachetime_disk_load_misses_total`: read-throughs with no segment.
    pub(crate) load_misses: Arc<Counter>,
    /// `cachetime_disk_load_errors_total`: read-throughs that hit a
    /// corrupt or unreadable segment (quarantined on the spot).
    pub(crate) load_errors: Arc<Counter>,
    /// `cachetime_disk_recovered_total`: segments restored by startup scans.
    pub(crate) recovered: Arc<Counter>,
    /// `cachetime_disk_quarantined_total`: files moved to `quarantine/`.
    pub(crate) quarantined: Arc<Counter>,
    /// `cachetime_disk_evicted_total`: segments deleted by the byte budget.
    pub(crate) evicted: Arc<Counter>,
    /// `cachetime_disk_adopted_total`: peer-transferred segments validated
    /// and installed.
    pub(crate) adopted: Arc<Counter>,
    /// `cachetime_disk_dropped_total`: segments removed by ring handoff.
    pub(crate) dropped: Arc<Counter>,
    /// `cachetime_disk_quarantine_evicted_total`: quarantined files
    /// deleted by the quarantine byte cap.
    pub(crate) quarantine_evicted: Arc<Counter>,
    /// `cachetime_disk_segments`: live segments on disk.
    pub(crate) segments: Arc<Gauge>,
    /// `cachetime_disk_bytes`: bytes of live segments.
    pub(crate) bytes: Arc<Gauge>,
    /// `cachetime_disk_quarantine_files`: files currently in `quarantine/`.
    pub(crate) quarantine_files: Arc<Gauge>,
    /// `cachetime_disk_quarantine_bytes`: bytes currently in `quarantine/`.
    pub(crate) quarantine_bytes: Arc<Gauge>,
}

impl DiskMetrics {
    /// Handles registered in `registry` under the `cachetime_disk_*`
    /// family names.
    pub fn in_registry(registry: &Registry) -> Self {
        DiskMetrics {
            spills: registry.counter("cachetime_disk_spills_total", &[]),
            spill_bytes: registry.counter("cachetime_disk_spill_bytes_total", &[]),
            spill_errors: registry.counter("cachetime_disk_spill_errors_total", &[]),
            loads: registry.counter("cachetime_disk_loads_total", &[]),
            load_misses: registry.counter("cachetime_disk_load_misses_total", &[]),
            load_errors: registry.counter("cachetime_disk_load_errors_total", &[]),
            recovered: registry.counter("cachetime_disk_recovered_total", &[]),
            quarantined: registry.counter("cachetime_disk_quarantined_total", &[]),
            evicted: registry.counter("cachetime_disk_evicted_total", &[]),
            adopted: registry.counter("cachetime_disk_adopted_total", &[]),
            dropped: registry.counter("cachetime_disk_dropped_total", &[]),
            quarantine_evicted: registry.counter("cachetime_disk_quarantine_evicted_total", &[]),
            segments: registry.gauge("cachetime_disk_segments", &[]),
            bytes: registry.gauge("cachetime_disk_bytes", &[]),
            quarantine_files: registry.gauge("cachetime_disk_quarantine_files", &[]),
            quarantine_bytes: registry.gauge("cachetime_disk_quarantine_bytes", &[]),
        }
    }

    /// Segments durably written.
    pub fn spills(&self) -> u64 {
        self.spills.get()
    }

    /// Failed or faulted spills.
    pub fn spill_errors(&self) -> u64 {
        self.spill_errors.get()
    }

    /// Read-throughs served from disk.
    pub fn loads(&self) -> u64 {
        self.loads.get()
    }

    /// Read-throughs that found no segment.
    pub fn load_misses(&self) -> u64 {
        self.load_misses.get()
    }

    /// Read-throughs that hit a corrupt or unreadable segment.
    pub fn load_errors(&self) -> u64 {
        self.load_errors.get()
    }

    /// Segments restored by startup scans.
    pub fn recovered(&self) -> u64 {
        self.recovered.get()
    }

    /// Files moved to quarantine.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.get()
    }

    /// Segments deleted by the byte budget.
    pub fn evicted(&self) -> u64 {
        self.evicted.get()
    }

    /// Peer-transferred segments validated and installed.
    pub fn adopted(&self) -> u64 {
        self.adopted.get()
    }

    /// Segments removed by ring handoff.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Quarantined files deleted by the quarantine byte cap.
    pub fn quarantine_evicted(&self) -> u64 {
        self.quarantine_evicted.get()
    }

    /// Files currently in `quarantine/`.
    pub fn quarantine_files(&self) -> i64 {
        self.quarantine_files.get()
    }

    /// Bytes currently in `quarantine/`.
    pub fn quarantine_bytes(&self) -> i64 {
        self.quarantine_bytes.get()
    }

    /// Live segments on disk.
    pub fn segments(&self) -> i64 {
        self.segments.get()
    }

    /// Bytes of live segments.
    pub fn bytes(&self) -> i64 {
        self.bytes.get()
    }
}
