//! What a sealed segment's payload must be for the store to take it.
//!
//! The checksum vouches for the bytes; the payload decode vouches that
//! every op is one a walk emits. Bytes the recording's encoder would have
//! written narrower are still taken, and price as the ops they hold.

use cachetime::{codec, replay_many, BehavioralSim, EventTrace, SystemConfig};
use cachetime_disk::{segment, AdoptOutcome, DiskConfig, SegmentStore};
use cachetime_trace::catalog;
use cachetime_types::{CycleTime, MemRef, WordAddr};
use std::path::PathBuf;

const KEY: u64 = 0x00c0_ffee_0000_0001;

fn open(name: &str) -> (PathBuf, SegmentStore) {
    let root = std::env::temp_dir().join(format!(
        "cachetime-disk-payload-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let store = SegmentStore::open(DiskConfig {
        root: root.clone(),
        budget_bytes: 0,
        quarantine_cap_bytes: 0,
    })
    .expect("open store");
    (root, store)
}

/// A recording of `mu3` followed by instruction fetches that march 64
/// words at a time through code never fetched before, so its last op is
/// a lone clean miss with a one-byte delta: `[0x00, 0x80]`.
fn recording() -> EventTrace {
    let config = SystemConfig::paper_default().unwrap();
    let trace = catalog::mu3(0.005).generate();
    let pid = trace.refs().last().unwrap().pid;
    let march = (0..8u64).map(|i| MemRef::ifetch(WordAddr::new((1 << 30) + 64 * i), pid));
    let refs = trace.refs().iter().copied().chain(march);
    BehavioralSim::new(&config.organization()).record_refs(refs, trace.warm_start())
}

/// The results of `events` on the paper's default machine at a few cycle
/// times.
fn priced(events: &EventTrace) -> Vec<cachetime::SimResult> {
    let configs = [20, 40, 80].map(|ns| {
        SystemConfig::builder()
            .cycle_time(CycleTime::from_ns(ns).unwrap())
            .build()
            .unwrap()
    });
    replay_many(events, &configs).unwrap()
}

#[test]
fn a_widened_lone_miss_delta_is_adopted_and_replays_bit_identically() {
    let (root, store) = open("widened");
    let events = recording();
    let mut payload = codec::encode(&events);
    let at = payload.len() - 2;
    assert_eq!(payload[at..], [0x00, 0x80], "a lone miss, one-byte delta");
    // Widen the delta to two bytes: the same address, written longer.
    payload[at] |= 1 << 3;
    payload.push(0);
    let widened = match store.adopt(KEY, &segment::seal(KEY, &payload)).unwrap() {
        AdoptOutcome::Installed(t) => t,
        other => panic!("expected Installed, got {other:?}"),
    };
    let loaded = store.load(KEY).expect("the adopted segment loads");
    // A decoded trace holds its bytes as given, so it equals the widened
    // one, not the recording, yet prices exactly as the recording does.
    assert_eq!(loaded, widened);
    assert_ne!(loaded, events);
    assert_eq!(codec::encode(&loaded), payload);
    assert_eq!(priced(&loaded), priced(&events));
    assert_eq!(store.metrics().quarantined(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn an_empty_general_couplet_is_rejected_and_quarantined() {
    let (root, store) = open("empty-couplet");
    let events = recording();
    let mut payload = codec::encode(&events);
    // The op count sits just before the ops: count one more, append it.
    let count = payload.len() - events.ops().byte_len() - 8;
    let ops = events.ops().len() as u64 + 1;
    payload[count..count + 8].copy_from_slice(&ops.to_le_bytes());
    payload.push(0x03);
    assert!(matches!(
        store.adopt(KEY, &segment::seal(KEY, &payload)).unwrap(),
        AdoptOutcome::Rejected
    ));
    assert!(!store.contains(KEY));
    assert_eq!(store.metrics().quarantined(), 1);
    assert!(root
        .join("quarantine")
        .join(format!("{KEY:016x}.peer"))
        .exists());
    let _ = std::fs::remove_dir_all(&root);
}
