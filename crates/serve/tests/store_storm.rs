//! A seeded 64-thread interleaving storm against the *sharded* store.
//!
//! `store_concurrency.rs` pins down the single-shard coalescing contract;
//! this suite attacks the sharded configuration the server actually runs
//! ([`TraceStore::sharded`]) with a much wider storm: warm replays, cold
//! recordings, sheds, and eviction churn all racing on an overlapping key
//! set under a budget tight enough that entries are constantly thrown out
//! underneath readers. Two properties must survive any interleaving:
//!
//! 1. **Bit-identity.** Every `EventTrace` a thread gets out of the store
//!    — fresh, coalesced, warm, or re-recorded after eviction — replays to
//!    exactly the `SimResult` a from-scratch `Simulator::run` produces for
//!    that pairing. A store that ever hands back the wrong key's trace, a
//!    torn entry, or a stale Arc fails here.
//! 2. **Exact accounting.** Every lookup lands in exactly one of
//!    hits/misses/coalesced/shed/absent — `hits + misses + coalesced +
//!    shed + absent == lookups` — and no in-flight marker leaks. The
//!    balance is checked from a quiesced store, so a single dropped or
//!    double-counted bucket anywhere in the racy paths shows up as an
//!    off-by-n here.

use cachetime::{keyed, simulate, SimResult, SystemConfig};
use cachetime_serve::store::{Fetch, TraceStore, TryGet};
use cachetime_testkit::SplitMix64;
use cachetime_trace::catalog;
use std::sync::{Arc, Barrier};

/// Far more threads than the host has cores, so the storm spends most of
/// its time in the contended paths (shard mutexes, condvar waits, the
/// single-flight window) rather than running truly parallel.
const THREADS: usize = 64;
/// Operations per thread; with 64 threads this is ~1500 store operations
/// per run, enough churn to evict every key repeatedly.
const OPS_PER_THREAD: usize = 24;
/// One fixed seed: failures reproduce exactly.
const SEED: u64 = 0x5704_A11E_57CA_CE64;
/// Admission limit for cold recordings — small enough that the storm
/// actually sheds, exercising the fifth counting bucket.
const MAX_INFLIGHT: usize = 2;

#[test]
fn sharded_store_survives_a_64_thread_storm_bit_identically() {
    let config = SystemConfig::paper_default().unwrap();
    let org = config.organization();
    // Six distinct pairings (distinct scales → distinct keys) across the
    // shard map, plus one key nobody ever records (the absent bucket).
    // Scales start at 0.002: below ~0.0014 the catalog clamps mu3 to its
    // 2000-reference floor and the "distinct" workloads collapse into one
    // spec — and therefore one key.
    let workloads: Vec<_> = (1..=6).map(|i| catalog::mu3(0.002 * i as f64)).collect();
    let keys: Vec<u64> = workloads
        .iter()
        .map(|w| keyed::trace_key(&org, w))
        .collect();
    let phantom_key = 0xDEAD_BEEF_0BAD_CAFE_u64;
    assert!(!keys.contains(&phantom_key));
    for (i, a) in keys.iter().enumerate() {
        assert!(
            keys[..i].iter().all(|b| b != a),
            "workload scales must produce six distinct keys, got {keys:x?}"
        );
    }

    // Ground truth, computed single-threaded up front: what a from-scratch
    // Simulator::run says each pairing's result is.
    let truth: Vec<SimResult> = workloads
        .iter()
        .map(|w| simulate(&config, &w.generate()))
        .collect();

    // Two shards for six keys guarantees shard collisions, and a budget of
    // ~three average entries (1.5 per shard) guarantees the colliding keys
    // keep evicting each other — warm readers lose entries out from under
    // them all storm long. More shards would let each key settle into its
    // own uncontended slot and the eviction paths would go untested.
    let total_bytes: usize = workloads
        .iter()
        .map(|w| keyed::record(&org, w).1.approx_bytes())
        .sum();
    let budget = total_bytes / 2;
    let store = Arc::new(TraceStore::sharded(budget, 2));
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            let workloads = workloads.clone();
            let keys = keys.clone();
            let truth = truth.clone();
            std::thread::spawn(move || {
                let mut rng = SplitMix64::from_seed(SEED ^ (t as u64).wrapping_mul(0xA5A5));
                let mut verified = 0u64;
                barrier.wait();
                for _ in 0..OPS_PER_THREAD {
                    let i = rng.next_u64() as usize % keys.len();
                    let events = match rng.next_u64() % 4 {
                        // Cold path: record (or coalesce, or shed).
                        0 => match store.fetch_or_record(keys[i], MAX_INFLIGHT, None, || {
                            Some(keyed::record(&org, &workloads[i]).1)
                        }) {
                            Some(Fetch::Ready(events, _)) => Some(events),
                            Some(Fetch::Shed) => None,
                            Some(Fetch::TimedOut) => unreachable!("no deadline was set"),
                            None => unreachable!("the recorder always records"),
                        },
                        // Warm path the event loop runs: non-blocking probe.
                        1 => match store.try_get(keys[i]) {
                            TryGet::Ready(events) => Some(events),
                            TryGet::InFlight | TryGet::Absent => None,
                        },
                        // Blocking lookup; None after an eviction is fine.
                        2 => store.get(keys[i]),
                        // The absent bucket: a key that never exists.
                        _ => {
                            assert!(store.get(phantom_key).is_none());
                            None
                        }
                    };
                    if let Some(events) = events {
                        // Whatever interleaving produced this trace, it
                        // must replay to the pairing's ground truth.
                        let replayed = cachetime::replay(&events, &config)
                            .expect("stored trace must replay under the recording config");
                        assert_eq!(
                            replayed, truth[i],
                            "thread {t}: store returned a trace for key {:#x} that does \
                             not replay bit-identically to Simulator::run",
                            keys[i]
                        );
                        verified += 1;
                    }
                }
                verified
            })
        })
        .collect();

    let mut verified = 0u64;
    for h in handles {
        verified += h.join().expect("no storm thread may deadlock or panic");
    }
    assert!(
        verified > THREADS as u64,
        "the storm must actually obtain and verify traces, got {verified}"
    );

    let s = store.stats();
    assert_eq!(s.in_flight, 0, "no stuck in-flight markers after the storm");
    assert!(
        s.evictions > 0,
        "a half-the-working-set budget under 6 keys must have evicted"
    );
    assert!(s.absent > 0, "the phantom key lookups must count as absent");
    assert_eq!(
        s.hits + s.misses + s.coalesced + s.shed + s.absent,
        s.lookups,
        "every lookup lands in exactly one bucket: {s:?}"
    );
    assert!(s.lookups_balance(), "{s:?}");
}
