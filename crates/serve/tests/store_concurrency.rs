//! Concurrency contract of the content-addressed store: many threads
//! racing on the same key share exactly one recording, and storms of
//! mixed keys (with eviction churn) never deadlock.

use cachetime::{keyed, SystemConfig};
use cachetime_serve::store::TraceStore;
use cachetime_trace::catalog;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Threads to race in each storm. Deliberately larger than the host's
/// core count so the condvar paths (not just raw parallelism) are hit.
const THREADS: usize = 8;

#[test]
fn same_key_storm_records_exactly_once() {
    let config = SystemConfig::paper_default().unwrap();
    let org = config.organization();
    let workload = catalog::mu3(0.002);
    let key = keyed::trace_key(&org, &workload);

    let store = Arc::new(TraceStore::new(usize::MAX));
    let recordings = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let store = Arc::clone(&store);
            let recordings = Arc::clone(&recordings);
            let barrier = Arc::clone(&barrier);
            let workload = workload.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let (events, _) = store.get_or_record(key, || {
                    recordings.fetch_add(1, Ordering::SeqCst);
                    keyed::record(&org, &workload).1
                });
                events
            })
        })
        .collect();

    let traces: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(
        recordings.load(Ordering::SeqCst),
        1,
        "{THREADS} threads racing on one key must trigger exactly one recording"
    );
    // Everyone got the same Arc, not equal copies.
    for t in &traces[1..] {
        assert!(Arc::ptr_eq(&traces[0], t));
    }
    let s = store.stats();
    assert_eq!(s.misses, 1);
    assert_eq!(s.entries, 1);
    assert_eq!(s.in_flight, 0);
    // The other threads either coalesced onto the in-flight recording or
    // arrived after it finished (a hit); both are fine, losing work is not.
    assert_eq!(s.hits + s.coalesced, (THREADS - 1) as u64);
}

#[test]
fn mixed_key_storm_with_eviction_churn_completes() {
    let config = SystemConfig::paper_default().unwrap();
    let org = config.organization();
    // Distinct scales make distinct workloads, hence distinct keys.
    let workloads: Vec<_> = (1..=4).map(|i| catalog::mu3(0.001 * i as f64)).collect();
    let keys: Vec<_> = workloads
        .iter()
        .map(|w| keyed::trace_key(&org, w))
        .collect();

    // Budget fits roughly one entry, so insertions constantly evict while
    // other threads look entries up — the deadlock-prone interleaving.
    let probe = keyed::record(&org, &workloads[0]).1;
    let store = Arc::new(TraceStore::new(
        probe.approx_bytes() + probe.approx_bytes() / 2,
    ));
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            let workloads = workloads.clone();
            let keys = keys.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for round in 0..6 {
                    let i = (t + round) % workloads.len();
                    let (events, _) =
                        store.get_or_record(keys[i], || keyed::record(&org, &workloads[i]).1);
                    assert!(events.couplets() > 0);
                    // Interleave plain lookups; misses after eviction are fine.
                    let j = (t + round + 1) % keys.len();
                    let _ = store.get(keys[j]);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no storm thread may deadlock or panic");
    }

    let s = store.stats();
    assert_eq!(s.in_flight, 0, "no stuck in-flight markers after the storm");
    assert!(
        s.evictions > 0,
        "the tight budget must have forced evictions"
    );
    assert!(s.bytes <= store.budget_bytes() || s.entries == 1);
}
