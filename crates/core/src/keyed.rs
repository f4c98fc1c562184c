//! Hash-keyed record/replay entry points for trace-store services.
//!
//! The two-phase engine makes an [`EventTrace`] the expensive artifact and
//! replay the cheap operation, which invites *caching*: record an
//! `(organization, workload)` pairing once, answer every timing question
//! against it forever. A cache needs a key, and these functions define the
//! canonical one — the [`StableHash`](cachetime_types::StableHash) digest
//! of the organization and the workload recipe together. Because both
//! trace generation and behavioral simulation are deterministic in those
//! inputs, equal keys imply bit-identical event traces; the key is valid
//! across processes and machines, so a client may remember it and replay
//! against a long-running server (`cachetime-serve`) without resending the
//! organization.
//!
//! ```
//! use cachetime::{keyed, SystemConfig};
//! use cachetime_trace::catalog;
//! use cachetime_types::CycleTime;
//!
//! let config = SystemConfig::paper_default()?;
//! let workload = catalog::savec(0.01);
//! let (key, events) = keyed::record(&config.organization(), &workload);
//! assert_eq!(key, keyed::trace_key(&config.organization(), &workload));
//!
//! let mut timing = config.timing();
//! timing.cycle_time = CycleTime::from_ns(20)?;
//! let results = keyed::replay_timings(&events, &[config.timing(), timing])?;
//! assert_eq!(results.len(), 2);
//! # Ok::<(), cachetime_types::ConfigError>(())
//! ```

use crate::replay::{BehavioralSim, EventTrace};
use crate::result::SimResult;
use crate::system::{OrgConfig, SystemConfig, TimingConfig};
use cachetime_trace::{Trace, WorkloadSpec};
use cachetime_types::{ConfigError, MemRef, StableHasher};

use cachetime_types::StableHash as _;

/// The content key of an `(organization, workload)` pairing: the one value
/// a recorded [`EventTrace`] is addressable by.
pub fn trace_key(org: &OrgConfig, workload: &WorkloadSpec) -> u64 {
    let mut h = StableHasher::new();
    org.stable_hash(&mut h);
    workload.stable_hash(&mut h);
    h.finish()
}

/// Domain separator between catalog-workload keys and uploaded-trace
/// keys. A catalog key hashes `(org, workload recipe)`; an upload key
/// hashes `(org, marker, content digest)`. Without the marker the two key
/// families would share one digest space, and a recipe hash could (in
/// principle) alias an upload digest; with it, equal keys always mean the
/// same *kind* of source. Catalog keys are unchanged — existing clients'
/// remembered keys stay valid.
const UPLOAD_DOMAIN: u64 = 0x7570_6c64_7472_6163; // "upldtrac"

/// A streaming [`StableHash`](cachetime_types::StableHash) digest of an
/// uploaded reference stream — the content address uploads are stored
/// and named by.
///
/// Push every reference once, in order, then [`finish`](Self::finish)
/// with the trace's warm boundary. Equal digests imply bit-identical
/// `(refs, warm_start)`, so the digest is valid across processes and
/// machines exactly like [`trace_key`]. The trace *name* is
/// deliberately excluded: two uploads of the same bytes under different
/// names are the same content.
#[derive(Debug)]
pub struct UploadDigest {
    h: StableHasher,
    refs: u64,
}

impl UploadDigest {
    /// An empty digest.
    pub fn new() -> UploadDigest {
        let mut h = StableHasher::new();
        h.write_u64(UPLOAD_DOMAIN);
        UploadDigest { h, refs: 0 }
    }

    /// Feeds one reference.
    pub fn push(&mut self, r: MemRef) {
        r.stable_hash(&mut self.h);
        self.refs += 1;
    }

    /// References fed so far.
    pub fn refs(&self) -> u64 {
        self.refs
    }

    /// Seals the digest over the stream plus the warm boundary.
    pub fn finish(mut self, warm_start: usize) -> u64 {
        self.h.write_u64(self.refs);
        self.h.write_u64(warm_start as u64);
        self.h.finish()
    }
}

impl Default for UploadDigest {
    fn default() -> Self {
        UploadDigest::new()
    }
}

/// Digests a whole in-memory trace (streaming callers drive
/// [`UploadDigest`] directly).
pub fn upload_digest(trace: &Trace) -> u64 {
    let mut d = UploadDigest::new();
    for &r in trace.refs() {
        d.push(r);
    }
    d.finish(trace.warm_start())
}

/// The content key of an `(organization, uploaded trace)` pairing — the
/// upload-side sibling of [`trace_key`], addressing the recorded
/// [`EventTrace`] for an upload named by its content digest.
pub fn upload_trace_key(org: &OrgConfig, digest: u64) -> u64 {
    let mut h = StableHasher::new();
    org.stable_hash(&mut h);
    h.write_u64(UPLOAD_DOMAIN);
    h.write_u64(digest);
    h.finish()
}

/// Records an uploaded trace's behavioral events under `org`, returning
/// the pairing's content key alongside the events — the upload-side
/// sibling of [`record`]. `digest` must be the trace's
/// [`upload_digest`]; the caller already holds it from ingestion, so it
/// is taken rather than recomputed (a linear pass over the refs).
pub fn record_upload(org: &OrgConfig, digest: u64, trace: &Trace) -> (u64, EventTrace) {
    (
        upload_trace_key(org, digest),
        BehavioralSim::new(org).record(trace),
    )
}

/// Generates `workload`'s trace and records its behavioral events under
/// `org`, returning the pairing's content key alongside the trace.
///
/// This is the expensive half of the record/replay pipeline — linear in
/// the reference count. Callers that may already hold the result should
/// compute [`trace_key`] first and only fall back to this on a miss.
pub fn record(org: &OrgConfig, workload: &WorkloadSpec) -> (u64, EventTrace) {
    let trace = workload.generate();
    (
        trace_key(org, workload),
        BehavioralSim::new(org).record(&trace),
    )
}

/// Reprices a recorded trace under each timing half, reusing the trace's
/// own organization for the cross-field validation a full
/// [`SystemConfig`] build performs.
///
/// This is the entry point a timing-axis query maps onto: the caller names
/// an event trace (by key, resolved elsewhere) and supplies only timing
/// halves; the organization travels with the recording.
///
/// # Errors
///
/// [`ConfigError`] if a timing half cannot be combined with the recorded
/// organization (e.g. an L2 block smaller than the recorded L1's).
pub fn replay_timings(
    events: &EventTrace,
    timings: &[TimingConfig],
) -> Result<Vec<SimResult>, ConfigError> {
    let configs = timings
        .iter()
        .map(|t| SystemConfig::from_parts(events.organization(), t))
        .collect::<Result<Vec<_>, _>>()?;
    crate::replay::replay_many(events, &configs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachetime_trace::catalog;
    use cachetime_types::CycleTime;

    #[test]
    fn keys_are_deterministic_and_org_sensitive() {
        let base = SystemConfig::paper_default().unwrap();
        let w = catalog::mu3(0.01);
        assert_eq!(
            trace_key(&base.organization(), &w),
            trace_key(&base.organization(), &w)
        );
        // A timing-only change keeps the key; an organization change moves it.
        let faster = SystemConfig::builder()
            .cycle_time(CycleTime::from_ns(20).unwrap())
            .build()
            .unwrap();
        assert_eq!(
            trace_key(&base.organization(), &w),
            trace_key(&faster.organization(), &w)
        );
        let small = cachetime_cache::CacheConfig::builder(
            cachetime_types::CacheSize::from_kib(16).unwrap(),
        )
        .build()
        .unwrap();
        let other = SystemConfig::builder().l1_both(small).build().unwrap();
        assert_ne!(
            trace_key(&base.organization(), &w),
            trace_key(&other.organization(), &w)
        );
        // A different workload (even a different scale) moves it too.
        assert_ne!(
            trace_key(&base.organization(), &w),
            trace_key(&base.organization(), &catalog::mu3(0.02))
        );
    }

    #[test]
    fn record_and_replay_match_direct_simulation() {
        let config = SystemConfig::paper_default().unwrap();
        let w = catalog::savec(0.01);
        let (key, events) = record(&config.organization(), &w);
        assert_eq!(key, trace_key(&config.organization(), &w));
        let mut timing = config.timing();
        timing.cycle_time = CycleTime::from_ns(56).unwrap();
        let results = replay_timings(&events, &[config.timing(), timing]).unwrap();
        let trace = w.generate();
        assert_eq!(results[0], crate::Simulator::new(&config).run(&trace));
        let direct56 = crate::Simulator::new(
            &SystemConfig::from_parts(&config.organization(), &timing).unwrap(),
        )
        .run(&trace);
        assert_eq!(results[1], direct56);
    }

    #[test]
    fn upload_digests_are_content_addressed() {
        use cachetime_trace::Trace;
        use cachetime_types::{MemRef, Pid, WordAddr};
        let refs: Vec<MemRef> = (0..100)
            .map(|i| MemRef::load(WordAddr::new(i), Pid((i % 3) as u16)))
            .collect();
        let a = Trace::new("a", refs.clone(), 10);
        let renamed = Trace::new("b", refs.clone(), 10);
        assert_eq!(
            upload_digest(&a),
            upload_digest(&renamed),
            "names are not content"
        );
        let rewarmed = Trace::new("a", refs.clone(), 20);
        assert_ne!(upload_digest(&a), upload_digest(&rewarmed));
        let mut other_refs = refs.clone();
        other_refs[50] = MemRef::store(WordAddr::new(50), Pid(0));
        assert_ne!(
            upload_digest(&a),
            upload_digest(&Trace::new("a", other_refs, 10))
        );
        // Streaming digest equals the whole-trace helper.
        let mut d = UploadDigest::new();
        for &r in a.refs() {
            d.push(r);
        }
        assert_eq!(d.refs(), 100);
        assert_eq!(d.finish(10), upload_digest(&a));
    }

    #[test]
    fn upload_keys_are_org_sensitive_and_domain_separated() {
        use cachetime_trace::Trace;
        use cachetime_types::{MemRef, Pid, WordAddr};
        let base = SystemConfig::paper_default().unwrap();
        let refs: Vec<MemRef> = (0..200)
            .map(|i| MemRef::ifetch(WordAddr::new(i * 7 % 64), Pid(0)))
            .collect();
        let trace = Trace::new("up", refs, 0);
        let digest = upload_digest(&trace);
        assert_eq!(
            upload_trace_key(&base.organization(), digest),
            upload_trace_key(&base.organization(), digest)
        );
        let small = cachetime_cache::CacheConfig::builder(
            cachetime_types::CacheSize::from_kib(16).unwrap(),
        )
        .build()
        .unwrap();
        let other = SystemConfig::builder().l1_both(small).build().unwrap();
        assert_ne!(
            upload_trace_key(&base.organization(), digest),
            upload_trace_key(&other.organization(), digest)
        );
        // The upload key family never collides with a catalog key for the
        // same org by construction of the domain marker; spot-check one.
        assert_ne!(
            upload_trace_key(&base.organization(), digest),
            trace_key(&base.organization(), &catalog::mu3(0.01))
        );
    }

    #[test]
    fn record_upload_replays_bit_identical_to_direct_simulation() {
        let config = SystemConfig::paper_default().unwrap();
        let trace = catalog::mu3(0.01).generate();
        let digest = upload_digest(&trace);
        let (key, events) = record_upload(&config.organization(), digest, &trace);
        assert_eq!(key, upload_trace_key(&config.organization(), digest));
        let results = replay_timings(&events, &[config.timing()]).unwrap();
        assert_eq!(results[0], crate::Simulator::new(&config).run(&trace));
    }

    #[test]
    fn kept_recordings_hold_no_spare_capacity() {
        let config = SystemConfig::paper_default().unwrap();
        let (_, events) = record(&config.organization(), &catalog::savec(0.01));
        assert!(!events.ops().is_empty());
        assert_eq!(
            events.approx_bytes(),
            std::mem::size_of::<EventTrace>() + events.ops().byte_len()
        );
    }

    #[test]
    fn replay_timings_surfaces_validation_errors() {
        let config = SystemConfig::paper_default().unwrap();
        let (_, events) = record(&config.organization(), &catalog::mu3(0.005));
        let mut bad = config.timing();
        let small_block = cachetime_cache::CacheConfig::builder(
            cachetime_types::CacheSize::from_kib(256).unwrap(),
        )
        .block(cachetime_types::BlockWords::new(2).unwrap())
        .build()
        .unwrap();
        bad.l2 = Some(crate::system::LevelTwoConfig::new(small_block));
        assert!(replay_timings(&events, &[bad]).is_err());
    }
}
