//! The durable segment store: one file per trace key, atomic spills,
//! quarantine-on-corruption recovery, oldest-written-first eviction.
//!
//! The live index is a [`BudgetLru`] weighted by segment length that
//! reads never touch, so it evicts in write order. A startup scan refills
//! it in file-mtime order, which carries that order across restarts.

use crate::fault::{mangle, DiskFault, DiskOp, FaultHook};
use crate::metrics::DiskMetrics;
use crate::segment;
use cachetime::{codec, EventTrace};
use cachetime_obs::Registry;
use cachetime_types::BudgetLru;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

/// File extension of a sealed segment.
const SEG_EXT: &str = "seg";

/// Subdirectory corrupt segments are moved into (kept as evidence, but
/// bounded: oldest files are deleted once the directory exceeds its cap).
const QUARANTINE_DIR: &str = "quarantine";

/// Default byte cap for `quarantine/`. Quarantined files are forensic
/// evidence, not data — a handful of recent corpses is enough, and an
/// unbounded directory would let a corruption storm eat the disk.
pub const DEFAULT_QUARANTINE_CAP_BYTES: u64 = 4 * 1024 * 1024;

/// Monotonic discriminator for temp-file names, so concurrent spills in
/// one process never collide.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// What adopting a peer-transferred sealed segment did.
#[derive(Debug)]
#[allow(
    clippy::large_enum_variant,
    reason = "made once per adopted segment and moved straight into the caller's store; \
              boxing the trace would add an allocation per adoption to shrink a value \
              that is never stored"
)]
pub enum AdoptOutcome {
    /// The bytes validated (header, checksum, payload decode) and were
    /// durably installed; the decoded trace rides along so the caller can
    /// seed its in-memory store without a second read.
    Installed(EventTrace),
    /// The key already has a live segment; nothing was rewritten.
    AlreadyPresent,
    /// The bytes failed validation. They were written into `quarantine/`
    /// as evidence and nothing was indexed — a corrupt peer transfer can
    /// never poison the store.
    Rejected,
}

/// What a spill actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillResult {
    /// A new segment was durably written.
    Written,
    /// The key already had a segment; nothing was rewritten (segments are
    /// content-addressed, so an existing file is already correct).
    AlreadyPresent,
    /// An injected write fault left a torn or corrupted file under the
    /// final name — the crash image recovery must later quarantine. The
    /// segment is *not* indexed and will not serve reads.
    Corrupted,
}

/// Outcome of a startup scan, also exported under `/v1/stats` by the
/// server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Valid segments streamed into the sink.
    pub recovered: u64,
    /// Corrupt files moved into `quarantine/`.
    pub quarantined: u64,
    /// Abandoned temp files removed (a crash between write and rename).
    pub stale_tmp: u64,
    /// Bytes of recovered segments now accounted against the budget.
    pub bytes: u64,
}

/// Configuration of a [`SegmentStore`].
#[derive(Debug, Clone)]
pub struct DiskConfig {
    /// Directory holding the segments (created if missing, along with its
    /// `quarantine/` subdirectory).
    pub root: PathBuf,
    /// Byte budget for live segments; `0` means unlimited. When a spill
    /// pushes the total over budget, the oldest-written segments are
    /// deleted until it fits (never the one just written). Across
    /// restarts, "oldest-written" is file-mtime order.
    pub budget_bytes: u64,
    /// Byte cap for the `quarantine/` directory; `0` means unlimited.
    /// Oldest-mtime quarantined files are deleted once the directory
    /// exceeds the cap ([`DEFAULT_QUARANTINE_CAP_BYTES`] is a sane
    /// default).
    pub quarantine_cap_bytes: u64,
}

/// Live segments in write order, each weighted by its sealed length.
type Index = BudgetLru<u64, ()>;

/// The trace in `key`'s sealed segment bytes, if the container checks
/// out and its payload decodes.
fn open_trace(key: u64, sealed: &[u8]) -> Option<EventTrace> {
    codec::decode(segment::open(key, sealed).ok()?).ok()
}

/// A crash-safe, content-addressed segment store.
///
/// Keys are the store's stable SplitMix64 trace keys; the 16-hex key is
/// the file name, so the directory *is* the index and recovery needs no
/// journal. Writes go to a temp file in the same directory, are fsynced,
/// and land under the final name with an atomic rename (followed by a
/// directory fsync), so a segment either exists completely or not at
/// all — the only torn states a real crash can leave are a stale temp
/// file (removed on scan) or lost dirty pages (caught by the checksum
/// and quarantined).
pub struct SegmentStore {
    root: PathBuf,
    quarantine: PathBuf,
    quarantine_cap_bytes: u64,
    metrics: DiskMetrics,
    fault: Option<FaultHook>,
    index: Mutex<Index>,
}

impl SegmentStore {
    /// Opens (creating if needed) the store rooted at `config.root`, with
    /// metrics in a registry of their own.
    pub fn open(config: DiskConfig) -> io::Result<Self> {
        Self::open_with_metrics(config, DiskMetrics::in_registry(&Registry::new()))
    }

    /// Opens the store with externally built metrics handles (typically
    /// [`DiskMetrics::in_registry`]).
    pub fn open_with_metrics(config: DiskConfig, metrics: DiskMetrics) -> io::Result<Self> {
        let quarantine = config.root.join(QUARANTINE_DIR);
        fs::create_dir_all(&quarantine)?;
        let budget = match config.budget_bytes {
            0 => usize::MAX,
            b => usize::try_from(b).unwrap_or(usize::MAX),
        };
        let store = SegmentStore {
            root: config.root,
            quarantine,
            quarantine_cap_bytes: config.quarantine_cap_bytes,
            metrics,
            fault: None,
            index: Mutex::new(Index::new(budget)),
        };
        // Account (and bound) whatever a previous process left behind.
        store.bound_quarantine();
        Ok(store)
    }

    /// Installs an I/O fault hook (tests only; see [`crate::fault`]).
    pub fn with_fault_hook(mut self, hook: FaultHook) -> Self {
        self.fault = Some(hook);
        self
    }

    /// The store's metric handles.
    pub fn metrics(&self) -> &DiskMetrics {
        &self.metrics
    }

    /// The directory this store lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of live (indexed) segments.
    pub fn segments(&self) -> u64 {
        self.index.lock().unwrap().len() as u64
    }

    /// Bytes of live segments.
    pub fn bytes(&self) -> u64 {
        self.index.lock().unwrap().bytes() as u64
    }

    /// Whether a live segment exists for `key`.
    pub fn contains(&self, key: u64) -> bool {
        self.index.lock().unwrap().contains(&key)
    }

    fn seg_path(&self, key: u64) -> PathBuf {
        self.root.join(format!("{key:016x}.{SEG_EXT}"))
    }

    fn fault_for(&self, op: DiskOp, key: u64, len: usize) -> DiskFault {
        match &self.fault {
            Some(hook) => hook(op, key, len),
            None => DiskFault::None,
        }
    }

    /// Durably spills one trace. Returns what happened; counts every
    /// outcome on the metrics.
    ///
    /// # Errors
    ///
    /// Propagates real (or injected [`DiskFault::Error`]) I/O failures;
    /// the store stays consistent either way.
    pub fn store(&self, key: u64, trace: &EventTrace) -> io::Result<SpillResult> {
        if self.contains(key) {
            return Ok(SpillResult::AlreadyPresent);
        }
        let sealed = segment::seal(key, &codec::encode(trace));
        let final_path = self.seg_path(key);
        match self.fault_for(DiskOp::Write, key, sealed.len()) {
            DiskFault::None => {}
            fault => {
                self.metrics.spill_errors.inc();
                let Some(bytes) = mangle(&sealed, fault) else {
                    return Err(io::Error::other("injected disk.write error"));
                };
                // A crash image: mangled bytes under the final name, no
                // fsync, no index entry. Recovery quarantines it.
                fs::write(&final_path, bytes)?;
                return Ok(SpillResult::Corrupted);
            }
        }
        if let Err(e) = self.write_sealed_atomic(key, &sealed) {
            self.metrics.spill_errors.inc();
            return Err(e);
        }
        self.metrics.spills.inc();
        self.metrics.spill_bytes.add(sealed.len() as u64);
        self.index_insert(key, sealed.len());
        Ok(SpillResult::Written)
    }

    /// Writes `sealed` under `key`'s final name with the store's
    /// crash-safety discipline: temp file, fsync, rename, directory
    /// fsync. Does not touch the index or metrics.
    fn write_sealed_atomic(&self, key: u64, sealed: &[u8]) -> io::Result<()> {
        let final_path = self.seg_path(key);
        let tmp_path = self.root.join(format!(
            "{key:016x}.tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let written = (|| -> io::Result<()> {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(sealed)?;
            f.sync_all()?;
            fs::rename(&tmp_path, &final_path)?;
            // The rename is durable only once the directory entry is; a
            // crash before this fsync may resurface the temp name, which
            // the startup scan removes.
            fs::File::open(&self.root)?.sync_all()?;
            Ok(())
        })();
        if let Err(e) = written {
            let _ = fs::remove_file(&tmp_path);
            return Err(e);
        }
        Ok(())
    }

    /// The keys of every live segment, in unspecified order. This is what
    /// a rebalancing peer asks for to decide what to pull.
    pub fn keys(&self) -> Vec<u64> {
        self.index.lock().unwrap().keys().copied().collect()
    }

    /// Reads the raw sealed container bytes for `key`, verifying the
    /// checksum before serving — a node never forwards a segment it
    /// cannot vouch for. A corrupt file is quarantined on the spot and
    /// reads as absent, exactly like [`SegmentStore::load`].
    pub fn read_sealed(&self, key: u64) -> Option<Vec<u8>> {
        let (path, bytes) = self.read_live(key)?;
        let valid = segment::open(key, &bytes).is_ok();
        self.loaded(key, &path, valid.then_some(bytes))
    }

    /// Adopts a sealed segment transferred from a peer. The bytes must be
    /// the full container for exactly this `key`: header, checksum, and
    /// payload decode are all verified *before* anything touches the live
    /// directory, and rejected bytes land in `quarantine/` as evidence.
    ///
    /// # Errors
    ///
    /// Only real I/O failures installing a *valid* segment; validation
    /// failures are the [`AdoptOutcome::Rejected`] value, not an error.
    pub fn adopt(&self, key: u64, sealed: &[u8]) -> io::Result<AdoptOutcome> {
        if self.contains(key) {
            return Ok(AdoptOutcome::AlreadyPresent);
        }
        let Some(trace) = open_trace(key, sealed) else {
            self.quarantine_evidence(key, sealed);
            return Ok(AdoptOutcome::Rejected);
        };
        self.write_sealed_atomic(key, sealed)?;
        self.metrics.adopted.inc();
        self.index_insert(key, sealed.len());
        Ok(AdoptOutcome::Installed(trace))
    }

    /// Removes `key`'s segment (ring handoff: this node no longer owns
    /// it). Returns whether a live segment was deleted.
    pub fn remove(&self, key: u64) -> bool {
        if !self.contains(key) {
            return false;
        }
        let _ = fs::remove_file(self.seg_path(key));
        self.index_remove(key);
        self.metrics.dropped.inc();
        true
    }

    /// Loads one trace by key. `None` means not present — including
    /// segments that turned out corrupt (they are quarantined on the
    /// spot) and injected read errors; read-through callers treat all of
    /// those as a miss and re-record.
    pub fn load(&self, key: u64) -> Option<EventTrace> {
        let (path, bytes) = self.read_live(key)?;
        let bytes = match self.fault_for(DiskOp::Read, key, bytes.len()) {
            DiskFault::None => bytes,
            fault => {
                let Some(bytes) = mangle(&bytes, fault) else {
                    self.metrics.load_errors.inc();
                    return None;
                };
                bytes
            }
        };
        let trace = open_trace(key, &bytes);
        self.loaded(key, &path, trace)
    }

    /// The path and bytes of `key`'s live segment. A key with no live
    /// segment counts a load miss; a file that cannot be read counts a
    /// load error and leaves the index.
    fn read_live(&self, key: u64) -> Option<(PathBuf, Vec<u8>)> {
        if !self.contains(key) {
            self.metrics.load_misses.inc();
            return None;
        }
        let path = self.seg_path(key);
        match fs::read(&path) {
            Ok(bytes) => Some((path, bytes)),
            Err(_) => {
                self.metrics.load_errors.inc();
                self.index_remove(key);
                None
            }
        }
    }

    /// Counts a load of `key` that validated; or, for `None`, quarantines
    /// the corrupt file at `path`, drops `key` from the index and counts a
    /// load error.
    fn loaded<T>(&self, key: u64, path: &Path, valid: Option<T>) -> Option<T> {
        if valid.is_some() {
            self.metrics.loads.inc();
        } else {
            self.quarantine_file(path);
            self.index_remove(key);
            self.metrics.load_errors.inc();
        }
        valid
    }

    /// Startup recovery: validates every segment in the directory,
    /// streams the intact ones (in unspecified order) into `sink`,
    /// quarantines the rest, and removes abandoned temp files. Rebuilds
    /// the in-memory index in `(mtime, key)` order, then evicts the
    /// oldest segments over the budget; call once, before serving.
    ///
    /// # Errors
    ///
    /// Only on directory-level I/O failures (cannot list the root);
    /// per-file corruption never errors — that is the case this scan
    /// exists to absorb.
    pub fn scan(&self, mut sink: impl FnMut(u64, EventTrace)) -> io::Result<ScanReport> {
        let mut report = ScanReport::default();
        let mut recovered: Vec<(SystemTime, u64, usize)> = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            if path.is_dir() {
                continue; // quarantine/ and anything else nested
            }
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                self.quarantine_file(&path);
                report.quarantined += 1;
                continue;
            };
            if name.contains(".tmp-") {
                let _ = fs::remove_file(&path);
                report.stale_tmp += 1;
                continue;
            }
            let key = match name.strip_suffix(&format!(".{SEG_EXT}")) {
                Some(hex) if hex.len() == 16 => u64::from_str_radix(hex, 16).ok(),
                _ => None,
            };
            let Some(key) = key else {
                // Not a segment, not a temp file: foreign garbage.
                self.quarantine_file(&path);
                report.quarantined += 1;
                continue;
            };
            let trace = fs::read(&path)
                .ok()
                .and_then(|bytes| Some((open_trace(key, &bytes)?, bytes.len() as u64)));
            match trace {
                Some((trace, len)) => {
                    let mtime = entry
                        .metadata()
                        .and_then(|m| m.modified())
                        .unwrap_or(SystemTime::UNIX_EPOCH);
                    recovered.push((mtime, key, len as usize));
                    report.recovered += 1;
                    report.bytes += len;
                    sink(key, trace);
                }
                None => {
                    self.quarantine_file(&path);
                    report.quarantined += 1;
                }
            }
        }
        recovered.sort_unstable();
        let victims: Vec<_> = {
            let mut index = self.index.lock().unwrap();
            *index = Index::new(index.budget());
            let victims = recovered
                .into_iter()
                .flat_map(|(_, key, len)| index.insert(key, (), len))
                .collect();
            self.publish(&index);
            victims
        };
        self.metrics.recovered.add(report.recovered);
        self.delete_evicted(&victims);
        Ok(report)
    }

    /// Indexes a freshly written segment as the newest, popping the
    /// oldest-written ones over the budget under the same lock (so each
    /// victim is evicted and counted exactly once however many spills
    /// race), then deletes their files after the lock drops.
    fn index_insert(&self, key: u64, len: usize) {
        let victims = {
            let mut index = self.index.lock().unwrap();
            let victims = index.insert(key, (), len);
            self.publish(&index);
            victims
        };
        self.delete_evicted(&victims);
    }

    fn index_remove(&self, key: u64) {
        let mut index = self.index.lock().unwrap();
        index.remove(&key);
        self.publish(&index);
    }

    /// Mirrors the index into the live-segment gauges; call under its lock.
    fn publish(&self, index: &Index) {
        self.metrics.segments.set(index.len() as i64);
        self.metrics.bytes.set(index.bytes() as i64);
    }

    /// Deletes the files of segments the budget evicted from the index.
    fn delete_evicted(&self, victims: &[(u64, ())]) {
        for &(victim, ()) in victims {
            let _ = fs::remove_file(self.seg_path(victim));
        }
        self.metrics.evicted.add(victims.len() as u64);
    }

    /// Moves a corrupt file into `quarantine/`, keeping its name (with a
    /// numeric suffix on collision). Best-effort: a failing rename falls
    /// back to deletion so a poisoned file can never wedge recovery.
    fn quarantine_file(&self, path: &Path) {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "unnamed".to_string());
        if fs::rename(path, self.quarantine_dest(&name)).is_err() {
            let _ = fs::remove_file(path);
        }
        self.metrics.quarantined.inc();
        self.bound_quarantine();
    }

    /// Preserves rejected peer-transfer bytes (which never existed as a
    /// live file) in `quarantine/` as evidence.
    fn quarantine_evidence(&self, key: u64, bytes: &[u8]) {
        let _ = fs::write(self.quarantine_dest(&format!("{key:016x}.peer")), bytes);
        self.metrics.quarantined.inc();
        self.bound_quarantine();
    }

    /// A collision-free destination inside `quarantine/` for `name`.
    fn quarantine_dest(&self, name: &str) -> PathBuf {
        let mut dest = self.quarantine.join(name);
        let mut n = 0u32;
        while dest.exists() {
            n += 1;
            dest = self.quarantine.join(format!("{name}.{n}"));
        }
        dest
    }

    /// Re-measures `quarantine/` and deletes oldest-mtime files while it
    /// exceeds the cap. The directory is tiny (corruption is rare and the
    /// cap small), so a scan per quarantine event is cheap — and it keeps
    /// the gauges honest even across restarts.
    fn bound_quarantine(&self) {
        let Ok(entries) = fs::read_dir(&self.quarantine) else {
            return;
        };
        let mut files: Vec<(SystemTime, PathBuf, u64)> = entries
            .flatten()
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                if !meta.is_file() {
                    return None;
                }
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                Some((mtime, e.path(), meta.len()))
            })
            .collect();
        files.sort();
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        let mut it = files.into_iter();
        let mut kept = Vec::new();
        if self.quarantine_cap_bytes > 0 {
            while total > self.quarantine_cap_bytes {
                let Some((mtime, path, len)) = it.next() else {
                    break;
                };
                if fs::remove_file(&path).is_ok() {
                    total -= len;
                    self.metrics.quarantine_evicted.inc();
                } else {
                    kept.push((mtime, path, len));
                }
            }
        }
        kept.extend(it);
        self.metrics.quarantine_files.set(kept.len() as i64);
        self.metrics.quarantine_bytes.set(total as i64);
    }
}
