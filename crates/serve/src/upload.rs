//! The content-addressed uploaded-trace store behind `POST /v1/traces`.
//!
//! An upload is named by its [`keyed::upload_digest`] — a stable hash of
//! the reference stream plus the warm boundary, *not* of the text bytes
//! or the name — so re-uploading the same trace (in any supported
//! format, under any name) resolves to the same digest and is
//! deduplicated instead of stored twice. `/v1/simulate` then names the
//! upload by digest exactly like a catalog trace by name: the two-phase
//! engine keys its Phase A recording on
//! [`keyed::upload_trace_key`]`(org, digest)`, so every later timing
//! question replays against the recorded events without resending the
//! trace.
//!
//! Residency is LRU under a byte budget (one [`BudgetLru`]), like the
//! [`TraceStore`](crate::store::TraceStore) it feeds: uploads are
//! interactive state, not durable artifacts. An evicted digest simply
//! requires re-uploading (the recorded EventTraces it produced remain
//! addressable for replay as long as *they* stay resident).

use cachetime::keyed;
use cachetime_trace::import::{self, TraceFormat};
use cachetime_trace::interval::{IntervalProfile, Selection};
use cachetime_trace::Trace;
use cachetime_types::BudgetLru;
use std::sync::{Arc, Mutex};

/// Default byte budget of the upload store (the bytes each upload holds,
/// not the wire size of its text).
pub const DEFAULT_UPLOAD_BUDGET_BYTES: usize = 256 * 1024 * 1024;

/// Representative-interval defaults: the selector aims for at most this
/// many picked windows unless the request asks otherwise.
pub const DEFAULT_PICKS: usize = 10;
/// The selection seed; fixed so a re-upload reports the identical
/// selection (the endpoint is deterministic end to end).
pub const SELECTION_SEED: u64 = 0x1a7e_5e1e_c70f_u64;

/// One ingested trace with the metadata the endpoints report.
#[derive(Debug)]
pub struct UploadedTrace {
    /// The content digest ([`keyed::upload_digest`]).
    pub digest: u64,
    /// The parsed trace.
    pub trace: Arc<Trace>,
    /// The format the upload was parsed as.
    pub format: TraceFormat,
    /// Sub-word byte addresses truncated to word granularity during
    /// parsing (external tools are byte-granular; see
    /// `cachetime_trace::io::Alignment`).
    pub truncated: u64,
}

impl UploadedTrace {
    /// The bytes this upload holds while resident, which is what the
    /// store charges against its budget: the trace's heap allocations
    /// ([`Trace::heap_bytes`]) and the two shared records that hold it.
    pub fn bytes(&self) -> usize {
        self.trace.heap_bytes() + std::mem::size_of::<Trace>() + std::mem::size_of::<Self>()
    }
}

/// What [`UploadStore::insert`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inserted {
    /// `false` when the digest was already resident (deduplicated).
    pub fresh: bool,
    /// Entries evicted to fit the newcomer under the budget.
    pub evicted: u64,
}

/// See the [module docs](self).
pub struct UploadStore {
    lru: Mutex<BudgetLru<u64, Arc<UploadedTrace>>>,
}

impl UploadStore {
    /// An empty store with the given byte budget.
    pub fn new(budget_bytes: usize) -> UploadStore {
        UploadStore {
            lru: Mutex::new(BudgetLru::new(budget_bytes)),
        }
    }

    /// Inserts an ingested trace under its digest, evicting LRU entries
    /// as needed — but never the newcomer, so one oversized upload still
    /// lands. A digest already resident is *not* replaced (equal digests
    /// mean equal content); it is touched and reported as a dedup.
    pub fn insert(&self, entry: UploadedTrace) -> Inserted {
        let mut lru = self.lru.lock().expect("upload store poisoned");
        if lru.get(&entry.digest).is_some() {
            return Inserted {
                fresh: false,
                evicted: 0,
            };
        }
        let (digest, bytes) = (entry.digest, entry.bytes());
        Inserted {
            fresh: true,
            evicted: lru.insert(digest, Arc::new(entry), bytes).len() as u64,
        }
    }

    /// The upload named by `digest`, touching its LRU position.
    pub fn get(&self, digest: u64) -> Option<Arc<UploadedTrace>> {
        let mut lru = self.lru.lock().expect("upload store poisoned");
        lru.get(&digest).cloned()
    }

    /// `(entries, resident bytes)`.
    pub fn stats(&self) -> (usize, usize) {
        let lru = self.lru.lock().expect("upload store poisoned");
        (lru.len(), lru.bytes())
    }
}

/// Parses one uploaded body into a trace in one pass over its bytes: each
/// line is decoded as it is scanned ([`import::parse_all`]), and each
/// reference is digested in the same loop that stores it, into a vector
/// that grows with the references parsed and is trimmed to hold exactly
/// them. The parse is timed as the
/// `trace_import` span, its work the references parsed. The interval
/// profile is not part of this pass: its window size depends on the
/// final length, so [`select_intervals`] makes a second pass over the
/// references.
///
/// Returns the trace, the digest, the format actually used, and the
/// count of truncated sub-word addresses.
///
/// # Errors
///
/// A human-readable message (a 400 at the endpoint): undetectable
/// format, a parse error with its line number, or an empty trace.
pub fn ingest(
    bytes: &[u8],
    format: Option<TraceFormat>,
    name: &str,
    warm_refs: usize,
) -> Result<(Trace, u64, TraceFormat, u64), String> {
    let format = match format {
        Some(f) => f,
        None => {
            let sample_len = bytes.len().min(4096);
            let sample = String::from_utf8_lossy(&bytes[..sample_len]);
            TraceFormat::sniff(&sample).ok_or_else(|| {
                "cannot detect trace format; pass ?format=din|champsim|lackey".to_string()
            })?
        }
    };
    let mut span = cachetime_obs::global_span!("trace_import");
    let mut digest = keyed::UploadDigest::new();
    let (refs, truncated) =
        import::parse_all(bytes, format, |r| digest.push(r)).map_err(|e| e.to_string())?;
    span.set_work(refs.len() as u64);
    if refs.is_empty() {
        return Err("upload contains no references".to_string());
    }
    let warm_start = warm_refs.min(refs.len());
    let digest = digest.finish(warm_start);
    Ok((
        Trace::new(name, refs, warm_start),
        digest,
        format,
        truncated,
    ))
}

/// Profiles an ingested trace into fixed windows and picks at most `k`
/// representatives — the `selection` object of the upload response.
///
/// The window size adapts to the trace (1/40th of its length, at least
/// 1024 refs) unless the caller fixes one, so a million-reference upload
/// profiles into ~40 windows and is priced from ≤ `k` of them.
pub fn select_intervals(
    trace: &Trace,
    window_refs: Option<usize>,
    k: usize,
) -> (IntervalProfile, Selection) {
    let window = window_refs.unwrap_or_else(|| (trace.len() / 40).max(1024));
    let profile = IntervalProfile::scan(trace.refs(), window.max(1));
    let selection = Selection::pick(&profile, k.max(1), SELECTION_SEED);
    (profile, selection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachetime_types::{MemRef, Pid, WordAddr};

    fn mk(digest: u64, refs: usize) -> UploadedTrace {
        let refs: Vec<MemRef> = (0..refs)
            .map(|i| MemRef::load(WordAddr::new(i as u64), Pid(0)))
            .collect();
        UploadedTrace {
            digest,
            trace: Arc::new(Trace::new("t", refs, 0)),
            format: TraceFormat::Din,
            truncated: 0,
        }
    }

    #[test]
    fn insert_dedups_and_get_resolves() {
        let store = UploadStore::new(usize::MAX);
        assert!(store.insert(mk(1, 10)).fresh);
        assert!(!store.insert(mk(1, 10)).fresh, "same digest dedups");
        assert!(store.get(1).is_some());
        assert!(store.get(2).is_none());
        assert_eq!(store.stats().0, 1);
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        let one = mk(1, 10).bytes();
        let store = UploadStore::new(2 * one + one / 2);
        store.insert(mk(1, 10));
        store.insert(mk(2, 10));
        // Touch 1 so 2 is the LRU victim.
        store.get(1);
        let ins = store.insert(mk(3, 10));
        assert!(ins.fresh);
        assert_eq!(ins.evicted, 1);
        assert!(store.get(2).is_none(), "LRU entry evicted");
        assert!(store.get(1).is_some());
        assert!(store.get(3).is_some());
    }

    #[test]
    fn an_oversized_upload_still_lands_alone() {
        let store = UploadStore::new(1);
        assert!(store.insert(mk(7, 100)).fresh);
        assert!(store.get(7).is_some());
    }

    #[test]
    fn ingest_parses_sniffs_and_digests() {
        let body = b"0 1000\n1 2004 3\n2 3ffc\n";
        let (trace, digest, format, truncated) = ingest(body, None, "up", 1).unwrap();
        assert_eq!(format, TraceFormat::Din);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.warm_start(), 1);
        assert_eq!(truncated, 0);
        assert_eq!(digest, keyed::upload_digest(&trace));
        // Same refs in ChampSim syntax: same digest (content, not text).
        let champ = b"L 0x1000\nS 0x2004 3\nI 0x3ffc\n";
        let (t2, d2, f2, _) = ingest(champ, None, "other-name", 1).unwrap();
        assert_eq!(f2, TraceFormat::ChampSim);
        assert_eq!(t2.refs(), trace.refs());
        assert_eq!(d2, digest);
        // Errors carry the line number; empty uploads are refused.
        let err = ingest(b"0 1000\nbogus line\n", None, "x", 0).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(ingest(b"# only a comment\n", Some(TraceFormat::Din), "x", 0).is_err());
    }

    #[test]
    fn an_upload_is_charged_exactly_the_bytes_it_holds() {
        // A plain din body, and a lackey one with banners, comments and
        // an `M` line (two references from one line).
        for (n, format) in [(25_000, TraceFormat::Din), (75_000, TraceFormat::Lackey)] {
            let refs: Vec<MemRef> = (0..n as u64)
                .map(|i| MemRef::load(WordAddr::new(i * 7 % 5_000), Pid(0)))
                .collect();
            let mut text = Vec::new();
            import::write_format(&mut text, &refs, format).unwrap();
            if format == TraceFormat::Lackey {
                text.extend_from_slice(b"==42== done\n# M is a modify\n\n M 1000,4\n");
            }
            let (trace, digest, _, _) = ingest(&text, Some(format), "up", 0).unwrap();
            let held = trace.len() * std::mem::size_of::<MemRef>() + "up".len();
            assert_eq!(
                trace.len(),
                n + 2 * usize::from(format == TraceFormat::Lackey)
            );
            assert_eq!(trace.heap_bytes(), held, "{n} refs: no slack in the vector");
            let store = UploadStore::new(usize::MAX);
            store.insert(UploadedTrace {
                digest,
                trace: Arc::new(trace),
                format,
                truncated: 0,
            });
            let records = std::mem::size_of::<Trace>() + std::mem::size_of::<UploadedTrace>();
            assert_eq!(store.stats(), (1, held + records), "{n} refs");
        }
    }

    #[test]
    fn select_intervals_is_deterministic_and_bounded() {
        let refs: Vec<MemRef> = (0..50_000)
            .map(|i| MemRef::load(WordAddr::new((i * 17) % 4096), Pid(0)))
            .collect();
        let trace = Trace::new("t", refs, 0);
        let (profile, sel) = select_intervals(&trace, None, DEFAULT_PICKS);
        assert!(profile.windows.len() >= 2);
        assert!(!sel.picks.is_empty() && sel.picks.len() <= DEFAULT_PICKS);
        let total: f64 = sel.picks.iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let (_, again) = select_intervals(&trace, None, DEFAULT_PICKS);
        assert_eq!(sel.picks, again.picks, "fixed seed, fixed picks");
    }
}
