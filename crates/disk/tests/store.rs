//! Deterministic segment-store behavior: spill/load round trips, restart
//! recovery, budget eviction, stale-temp cleanup, and injected faults.

use cachetime::{keyed, SystemConfig};
use cachetime_disk::{
    segment, AdoptOutcome, DiskConfig, DiskFault, DiskMetrics, DiskOp, SegmentStore, SpillResult,
};
use cachetime_trace::catalog;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty scratch directory unique to this process and call.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cachetime-disk-{name}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample_trace(scale_ix: u64) -> (u64, cachetime::EventTrace) {
    let org = SystemConfig::paper_default().unwrap().organization();
    let workload = catalog::mu3(0.005 + scale_ix as f64 * 0.001);
    keyed::record(&org, &workload)
}

fn open(root: PathBuf, budget: u64) -> SegmentStore {
    SegmentStore::open(DiskConfig {
        root,
        budget_bytes: budget,
        quarantine_cap_bytes: 0,
    })
    .expect("open store")
}

#[test]
fn spill_load_round_trip() {
    let root = scratch("round-trip");
    let store = open(root.clone(), 0);
    let (key, trace) = sample_trace(0);
    assert_eq!(store.store(key, &trace).unwrap(), SpillResult::Written);
    assert_eq!(
        store.store(key, &trace).unwrap(),
        SpillResult::AlreadyPresent
    );
    assert!(store.contains(key));
    assert_eq!(store.segments(), 1);
    let back = store.load(key).expect("load");
    assert_eq!(back, trace);
    assert_eq!(store.metrics().spills(), 1);
    assert_eq!(store.metrics().loads(), 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn restart_recovers_everything_written() {
    let root = scratch("restart");
    let mut written = Vec::new();
    {
        let store = open(root.clone(), 0);
        for i in 0..3 {
            let (key, trace) = sample_trace(i);
            store.store(key, &trace).unwrap();
            written.push((key, trace));
        }
    }
    // A new store on the same directory starts cold, then scans warm.
    let store = open(root.clone(), 0);
    assert_eq!(store.segments(), 0);
    let mut recovered = Vec::new();
    let report = store
        .scan(|key, trace| recovered.push((key, trace)))
        .unwrap();
    assert_eq!(report.recovered, 3);
    assert_eq!(report.quarantined, 0);
    assert_eq!(report.stale_tmp, 0);
    recovered.sort_by_key(|(k, _)| *k);
    written.sort_by_key(|(k, _)| *k);
    assert_eq!(recovered, written, "recovery must be bit-identical");
    assert_eq!(store.segments(), 3);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn scan_removes_stale_temp_files() {
    let root = scratch("stale-tmp");
    let store = open(root.clone(), 0);
    let (key, trace) = sample_trace(0);
    store.store(key, &trace).unwrap();
    std::fs::write(root.join("0123456789abcdef.tmp-1-0"), b"half a segment").unwrap();
    let report = store.scan(|_, _| {}).unwrap();
    assert_eq!(report.recovered, 1);
    assert_eq!(report.stale_tmp, 1);
    assert!(!root.join("0123456789abcdef.tmp-1-0").exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn budget_evicts_oldest_first() {
    let root = scratch("budget");
    let unbounded = open(root.clone(), 0);
    let (k0, t0) = sample_trace(0);
    unbounded.store(k0, &t0).unwrap();
    let one_len = unbounded.bytes();
    drop(unbounded);

    // Budget for two segments of this size; spill three.
    let store = open(root.clone(), one_len * 2 + one_len / 2);
    store.scan(|_, _| {}).unwrap();
    let (k1, t1) = sample_trace(1);
    let (k2, t2) = sample_trace(2);
    // Push mtimes apart: coarse filesystems timestamp at second granularity.
    std::thread::sleep(std::time::Duration::from_millis(1100));
    store.store(k1, &t1).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(1100));
    store.store(k2, &t2).unwrap();
    assert!(
        !store.contains(k0) && store.contains(k1) && store.contains(k2),
        "oldest (k0) must be the victim"
    );
    assert_eq!(store.metrics().evicted(), 1);
    assert!(store.load(k0).is_none());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn racing_spills_evict_each_victim_exactly_once() {
    // Regression: the evictor used to pick its victim under the index
    // lock but delete and count it after dropping the lock, so two
    // spills racing over the budget could evict one segment twice.
    const THREADS: u64 = 4;
    const SPILLS: u64 = 12;
    let root = scratch("race");
    let (_, trace) = sample_trace(0);
    // Every key seals the same payload, so every segment is one length.
    let one_len = segment::seal(0, &cachetime::codec::encode(&trace)).len() as u64;
    let store = open(root.clone(), one_len * 2 + one_len / 2);
    let start = std::sync::Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (store, trace, start) = (&store, &trace, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..SPILLS {
                    let key = (t + 1) << 32 | i;
                    assert_eq!(store.store(key, trace).unwrap(), SpillResult::Written);
                }
            });
        }
    });
    let m = store.metrics();
    assert_eq!(m.spills(), THREADS * SPILLS);
    assert_eq!(
        m.spills(),
        store.segments() + m.evicted(),
        "each victim counted once"
    );
    assert_eq!(store.segments(), 2);
    assert_eq!(m.segments(), 2);
    let files: Vec<u64> = std::fs::read_dir(&root)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            let hex = name.strip_suffix(".seg")?;
            Some(u64::from_str_radix(hex, 16).unwrap())
        })
        .collect();
    assert_eq!(
        files.len() as u64,
        store.segments(),
        "one file per live segment: {files:x?}"
    );
    for key in files {
        assert!(store.contains(key), "file {key:016x} outlived its eviction");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_write_fault_leaves_a_quarantinable_crash_image() {
    let root = scratch("torn-write");
    let (key, trace) = sample_trace(0);
    let store = open(root.clone(), 0).with_fault_hook(Arc::new(|op, _, _| match op {
        DiskOp::Write => DiskFault::Torn { keep: 20 },
        DiskOp::Read => DiskFault::None,
    }));
    assert_eq!(store.store(key, &trace).unwrap(), SpillResult::Corrupted);
    assert!(
        !store.contains(key),
        "a corrupted spill must not be indexed"
    );
    assert_eq!(store.metrics().spill_errors(), 1);
    drop(store);

    // Recovery quarantines the torn file instead of crashing.
    let store = open(root.clone(), 0);
    let report = store
        .scan(|_, _| panic!("nothing valid to recover"))
        .unwrap();
    assert_eq!(report.recovered, 0);
    assert_eq!(report.quarantined, 1);
    assert!(root
        .join("quarantine")
        .join(format!("{key:016x}.seg"))
        .exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn read_fault_quarantines_and_misses() {
    let root = scratch("read-fault");
    let (key, trace) = sample_trace(0);
    {
        let store = open(root.clone(), 0);
        store.store(key, &trace).unwrap();
    }
    let store = open(root.clone(), 0).with_fault_hook(Arc::new(|op, _, _| match op {
        DiskOp::Write => DiskFault::None,
        DiskOp::Read => DiskFault::BitFlip { offset: 100 },
    }));
    store.scan(|_, _| {}).unwrap();
    assert!(store.load(key).is_none(), "corrupt read must be a miss");
    assert_eq!(store.metrics().load_errors(), 1);
    assert!(
        !store.contains(key),
        "the poisoned segment must be deindexed"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn injected_error_fails_the_spill_without_a_file() {
    let root = scratch("io-error");
    let (key, trace) = sample_trace(0);
    let store = open(root.clone(), 0).with_fault_hook(Arc::new(|_, _, _| DiskFault::Error));
    assert!(store.store(key, &trace).is_err());
    assert!(!store.contains(key));
    assert_eq!(store.metrics().spill_errors(), 1);
    assert!(!root.join(format!("{key:016x}.seg")).exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sealed_bytes_round_trip_through_adoption() {
    // Peer handoff in miniature: read the raw container off one store,
    // adopt it on another, and the trace comes back bit-identical.
    let donor_root = scratch("handoff-donor");
    let taker_root = scratch("handoff-taker");
    let donor = open(donor_root.clone(), 0);
    let taker = open(taker_root.clone(), 0);
    let (key, trace) = sample_trace(0);
    donor.store(key, &trace).unwrap();

    let sealed = donor.read_sealed(key).expect("sealed bytes");
    assert_eq!(donor.keys(), vec![key]);
    match taker.adopt(key, &sealed).unwrap() {
        AdoptOutcome::Installed(t) => assert_eq!(t, trace, "adoption must be bit-identical"),
        other => panic!("expected Installed, got {other:?}"),
    }
    assert!(taker.contains(key));
    assert_eq!(taker.metrics().adopted(), 1);
    assert!(matches!(
        taker.adopt(key, &sealed).unwrap(),
        AdoptOutcome::AlreadyPresent
    ));
    assert_eq!(taker.load(key).unwrap(), trace);

    // Handoff drop: the donor no longer owns the key.
    assert!(donor.remove(key));
    assert!(!donor.contains(key));
    assert!(!donor_root.join(format!("{key:016x}.seg")).exists());
    assert_eq!(donor.metrics().dropped(), 1);
    assert!(!donor.remove(key), "second remove is a no-op");

    let _ = std::fs::remove_dir_all(&donor_root);
    let _ = std::fs::remove_dir_all(&taker_root);
}

#[test]
fn corrupt_adoption_is_rejected_and_quarantined() {
    let root = scratch("adopt-reject");
    let store = open(root.clone(), 0);
    let (key, trace) = sample_trace(0);
    let sealed = segment::seal(key, &cachetime::codec::encode(&trace));

    // A flipped payload bit, a truncated container, and bytes sealed for
    // a different key must all be rejected without touching the index.
    let mut flipped = sealed.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 1;
    assert!(matches!(
        store.adopt(key, &flipped).unwrap(),
        AdoptOutcome::Rejected
    ));
    assert!(matches!(
        store.adopt(key, &sealed[..sealed.len() / 2]).unwrap(),
        AdoptOutcome::Rejected
    ));
    assert!(matches!(
        store.adopt(key ^ 1, &sealed).unwrap(),
        AdoptOutcome::Rejected
    ));
    assert!(!store.contains(key) && !store.contains(key ^ 1));
    assert_eq!(store.segments(), 0);
    assert_eq!(store.metrics().quarantined(), 3);
    assert_eq!(store.metrics().quarantine_files(), 3);
    assert!(store.metrics().quarantine_bytes() > 0);
    assert!(
        root.join("quarantine")
            .join(format!("{key:016x}.peer"))
            .exists(),
        "rejected transfer bytes are kept as evidence"
    );

    // The same store still adopts the intact bytes afterwards.
    assert!(matches!(
        store.adopt(key, &sealed).unwrap(),
        AdoptOutcome::Installed(_)
    ));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quarantine_is_bounded_by_its_byte_cap() {
    let root = scratch("quarantine-cap");
    let (key, trace) = sample_trace(0);
    let sealed = segment::seal(key, &cachetime::codec::encode(&trace));
    let mut bad = sealed.clone();
    bad[20] ^= 1;

    // Cap small enough for roughly two corpses of this size.
    let store = SegmentStore::open(DiskConfig {
        root: root.clone(),
        budget_bytes: 0,
        quarantine_cap_bytes: sealed.len() as u64 * 2 + sealed.len() as u64 / 2,
    })
    .expect("open store");
    for _ in 0..5 {
        assert!(matches!(
            store.adopt(key, &bad).unwrap(),
            AdoptOutcome::Rejected
        ));
    }
    assert_eq!(store.metrics().quarantined(), 5);
    assert!(
        store.metrics().quarantine_evicted() >= 3,
        "oldest corpses evicted over the cap"
    );
    assert!(store.metrics().quarantine_files() <= 2);
    assert!(
        store.metrics().quarantine_bytes() as u64
            <= sealed.len() as u64 * 2 + sealed.len() as u64 / 2
    );
    let survivors = std::fs::read_dir(root.join("quarantine")).unwrap().count();
    assert!(survivors <= 2, "{survivors} files survived a two-file cap");

    // Reopening re-measures the directory rather than trusting gauges.
    drop(store);
    let reopened = open(root.clone(), 0);
    assert_eq!(reopened.metrics().quarantine_files() as usize, survivors);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn metrics_registry_names_are_wired() {
    let registry = cachetime_obs::Registry::new();
    let root = scratch("registry");
    let store = SegmentStore::open_with_metrics(
        DiskConfig {
            root: root.clone(),
            budget_bytes: 0,
            quarantine_cap_bytes: 0,
        },
        DiskMetrics::in_registry(&registry),
    )
    .unwrap();
    let (key, trace) = sample_trace(0);
    store.store(key, &trace).unwrap();
    store.load(key).unwrap();
    let text = registry.render_prometheus();
    for family in [
        "cachetime_disk_spills_total",
        "cachetime_disk_spill_bytes_total",
        "cachetime_disk_loads_total",
        "cachetime_disk_segments",
        "cachetime_disk_bytes",
        "cachetime_disk_adopted_total",
        "cachetime_disk_dropped_total",
        "cachetime_disk_quarantine_files",
        "cachetime_disk_quarantine_bytes",
        "cachetime_disk_quarantine_evicted_total",
    ] {
        assert!(text.contains(family), "missing family {family}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A payload-v1 segment (one fixed-width record per op), as the encoder
/// wrote it before the op stream was packed: the paper-default
/// organization's recording of `mu3(0.001)`, under its trace key.
const V1_SEGMENT: &[u8] = include_bytes!("fixtures/v1-mu3-0.001.seg");

#[test]
fn a_v1_segment_is_quarantined_by_name() {
    let root = scratch("v1");
    let org = SystemConfig::paper_default().unwrap().organization();
    let key = keyed::trace_key(&org, &catalog::mu3(0.001));
    let name = format!("{key:016x}.seg");
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join(&name), V1_SEGMENT).unwrap();

    // The container is intact; only its payload version is refused.
    let payload = segment::open(key, V1_SEGMENT).expect("an intact container");
    assert_eq!(payload[0], 1);
    assert_eq!(
        cachetime::codec::decode(payload),
        Err(cachetime::codec::CodecError::Invalid(
            "unsupported payload version"
        ))
    );

    let store = open(root.clone(), 0);
    let report = store
        .scan(|_, _| panic!("a v1 segment must not load"))
        .unwrap();
    assert_eq!((report.recovered, report.quarantined), (0, 1));
    assert!(root.join("quarantine").join(&name).exists());
    assert!(!root.join(&name).exists());
    assert!(store.load(key).is_none());
    let _ = std::fs::remove_dir_all(&root);
}
