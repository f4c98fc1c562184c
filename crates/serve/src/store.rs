//! The content-addressed [`EventTrace`] store: record once, replay forever.
//!
//! Keys are the stable [`cachetime::keyed::trace_key`] digests of
//! `(organization, workload)` pairings, so the same logical request always
//! lands on the same entry — across connections, clients, and server
//! restarts. Four properties the server depends on:
//!
//! * **Single-flight recording.** The first request for a missing key
//!   inserts an in-flight marker and records *outside* the store lock;
//!   concurrent requests for the same key block on a condition variable
//!   and share the one recording instead of redoing the linear-in-trace
//!   work. Distinct keys never wait on each other.
//! * **Shard-locked reads.** The map is split into power-of-two shards
//!   (key-hash addressed), each with its own mutex and condvar, so warm
//!   replays on different keys never serialize on one global lock and a
//!   recording in one shard never blocks a hit in another. A store built
//!   with [`TraceStore::new`]/[`with_metrics`](TraceStore::with_metrics)
//!   has a single shard — exact global LRU semantics — while the server
//!   uses [`TraceStore::sharded`], which splits the byte budget evenly
//!   and runs LRU per shard (approximate global recency, same bound).
//! * **Byte-budgeted LRU.** Each shard keeps its resident traces in a
//!   [`BudgetLru`], charged their [`EventTrace::approx_bytes`]; when an
//!   insertion pushes a shard over its budget, its least-recently-used
//!   entries are evicted until it fits (the entry being inserted is
//!   exempt, so a single oversized trace still serves its own request).
//!   Every lookup and eviction is O(log n).
//! * **Panic safety.** If a recording panics, its in-flight marker is
//!   removed and waiters are woken to retry, rather than hanging forever.
//!
//! Every lookup counts in **exactly one** of five disjoint buckets —
//! `hits`, `misses`, `coalesced`, `shed`, `absent` — and `lookups` counts
//! them all, so `hits + misses + coalesced + shed + absent == lookups`
//! holds at every quiescent instant (the storm tests assert it exactly).
//!
//! All counters are [`cachetime_obs`] metrics. A bare
//! [`TraceStore::new`] keeps them private; [`TraceStore::with_metrics`]
//! shares them with a registry so `/v1/metrics` and `/v1/stats` read the
//! very same atomics.

use cachetime::EventTrace;
use cachetime_obs::{Counter, Gauge, Registry};
use cachetime_types::BudgetLru;
use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Outcome of an admission-controlled, deadline-bounded lookup
/// ([`TraceStore::fetch_or_record`]).
#[derive(Debug)]
pub enum Fetch {
    /// The trace; the bool is `true` when it was served without running
    /// `record` in this call (resident hit or joined recording).
    Ready(Arc<EventTrace>, bool),
    /// Admission control refused to start a new recording: the number of
    /// recordings already in flight is at the caller's limit. Nothing was
    /// recorded; the caller should shed the request (`503 + Retry-After`).
    Shed,
    /// The deadline passed while waiting for another thread's in-flight
    /// recording of this key. The recording itself keeps running — a
    /// retry after it lands is a plain hit.
    TimedOut,
}

/// Outcome of the non-blocking [`TraceStore::try_get`] — the event loop's
/// inline warm path.
#[derive(Debug)]
pub enum TryGet {
    /// Resident: served under one brief shard lock, counted as a hit.
    Ready(Arc<EventTrace>),
    /// A recording of this key is running; joining it would block.
    /// Nothing is counted — the caller's blocking retry counts instead.
    InFlight,
    /// Never recorded or evicted. Nothing is counted (see `InFlight`).
    Absent,
}

/// Marker error from [`TraceStore::get_within`]: the deadline passed
/// while an in-flight recording of the key was still running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded;

/// A point-in-time snapshot of the store's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Every lookup (`fetch_or_record`, `get`, `get_within`, a terminal
    /// `try_get`); the sum of the five disjoint outcome counters below.
    pub lookups: u64,
    /// Lookups answered from an already-resident entry. Disjoint from
    /// `coalesced`: a lookup counts exactly once, whichever way it was
    /// served.
    pub hits: u64,
    /// Lookups that had to record (first request for a key).
    pub misses: u64,
    /// Lookups that joined another request's in-flight recording,
    /// whatever happened after the wait (served, timed out, re-recorded).
    pub coalesced: u64,
    /// Lookups refused by recording admission control.
    pub shed: u64,
    /// Read-only lookups of a key that was never recorded or was evicted.
    pub absent: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Resident entries right now.
    pub entries: usize,
    /// Bytes charged against the budget right now.
    pub bytes: usize,
    /// Recordings in flight right now.
    pub in_flight: usize,
}

impl StoreStats {
    /// The exact-balance invariant the storm tests pin:
    /// every lookup landed in exactly one outcome bucket.
    pub fn lookups_balance(&self) -> bool {
        self.hits + self.misses + self.coalesced + self.shed + self.absent == self.lookups
    }
}

/// The store's counters and gauges, as shared metric handles. Mutations
/// happen under a shard lock (so per-shard snapshots are coherent); reads
/// are lock-free from anywhere, including a registry scrape.
#[derive(Clone)]
pub struct StoreMetrics {
    lookups: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    coalesced: Arc<Counter>,
    shed: Arc<Counter>,
    absent: Arc<Counter>,
    evictions: Arc<Counter>,
    entries: Arc<Gauge>,
    bytes: Arc<Gauge>,
    in_flight: Arc<Gauge>,
}

impl StoreMetrics {
    /// Handles registered in `registry` under the `cachetime_store_*`
    /// families — what `GET /v1/metrics` exposes.
    pub fn in_registry(registry: &Registry) -> Self {
        StoreMetrics {
            lookups: registry.counter("cachetime_store_lookups_total", &[]),
            hits: registry.counter("cachetime_store_hits_total", &[]),
            misses: registry.counter("cachetime_store_misses_total", &[]),
            coalesced: registry.counter("cachetime_store_coalesced_total", &[]),
            shed: registry.counter("cachetime_store_shed_total", &[]),
            absent: registry.counter("cachetime_store_absent_total", &[]),
            evictions: registry.counter("cachetime_store_evictions_total", &[]),
            entries: registry.gauge("cachetime_store_entries", &[]),
            bytes: registry.gauge("cachetime_store_bytes", &[]),
            in_flight: registry.gauge("cachetime_store_recordings_in_flight", &[]),
        }
    }
}

struct Inner {
    /// Resident traces in recency order, under the shard's byte budget.
    ready: BudgetLru<u64, Arc<EventTrace>>,
    /// Keys whose recording is running on some thread; wait on the shard
    /// condvar. Never resident at the same time.
    in_flight: HashSet<u64>,
}

/// One lock domain: a slice of the key space with its own mutex, condvar,
/// and byte budget.
struct Shard {
    inner: Mutex<Inner>,
    /// Signaled whenever an in-flight recording in this shard completes
    /// (or aborts).
    done: Condvar,
}

impl Shard {
    fn new(budget: usize) -> Self {
        Shard {
            inner: Mutex::new(Inner {
                ready: BudgetLru::new(budget),
                in_flight: HashSet::new(),
            }),
            done: Condvar::new(),
        }
    }
}

/// See the [module docs](self).
pub struct TraceStore {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: usize,
    budget: usize,
    metrics: StoreMetrics,
}

/// Removes the in-flight marker and wakes waiters if the recording
/// unwinds or declines; disarmed on success.
struct InFlightGuard<'a> {
    store: &'a TraceStore,
    shard: &'a Shard,
    key: u64,
    armed: bool,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.shard.inner.lock().unwrap().in_flight.remove(&self.key);
            self.store.metrics.in_flight.add(-1);
            self.shard.done.notify_all();
        }
    }
}

impl TraceStore {
    /// An empty single-shard store that will keep at most `budget_bytes`
    /// of recorded traces resident (approximate, see
    /// [`EventTrace::approx_bytes`]). One shard means exact global LRU.
    pub fn new(budget_bytes: usize) -> Self {
        Self::with_metrics(budget_bytes, StoreMetrics::in_registry(&Registry::new()))
    }

    /// [`new`](Self::new), but counting into the caller's metric handles
    /// (typically [`StoreMetrics::in_registry`]).
    pub fn with_metrics(budget_bytes: usize, metrics: StoreMetrics) -> Self {
        Self::sharded_with_metrics(budget_bytes, 1, metrics)
    }

    /// A store split into `shards` lock domains (rounded up to a power of
    /// two) so concurrent lookups of different keys never contend. The
    /// byte budget is divided evenly; LRU runs per shard.
    pub fn sharded(budget_bytes: usize, shards: usize) -> Self {
        Self::sharded_with_metrics(
            budget_bytes,
            shards,
            StoreMetrics::in_registry(&Registry::new()),
        )
    }

    /// [`sharded`](Self::sharded) with caller-supplied metric handles.
    pub fn sharded_with_metrics(budget_bytes: usize, shards: usize, metrics: StoreMetrics) -> Self {
        let n = shards.max(1).next_power_of_two();
        // Saturating per-shard split: an unbounded store (usize::MAX)
        // must stay unbounded per shard, not wrap to something finite.
        let per_shard = if budget_bytes == usize::MAX {
            usize::MAX
        } else {
            budget_bytes / n
        };
        TraceStore {
            shards: (0..n).map(|_| Shard::new(per_shard)).collect(),
            mask: n - 1,
            budget: budget_bytes,
            metrics,
        }
    }

    /// The configured total byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// How many lock domains the key space is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `key`. Trace keys are already well-mixed digests,
    /// but a cheap multiplicative remix keeps adversarially-shaped keys
    /// (unit tests use small integers) from piling into one shard.
    fn shard(&self, key: u64) -> &Shard {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 32) as usize & self.mask]
    }

    /// Returns the entry for `key`, recording it via `record` exactly once
    /// if absent. The bool is `true` when the entry was already resident
    /// (or its recording was joined) — i.e. `record` was *not* run by this
    /// call. Unbounded: no admission limit, no deadline (see
    /// [`fetch_or_record`](Self::fetch_or_record) for both).
    pub fn get_or_record<F>(&self, key: u64, record: F) -> (Arc<EventTrace>, bool)
    where
        F: FnOnce() -> EventTrace,
    {
        match self.fetch_or_record(key, usize::MAX, None, || Some(record())) {
            Some(Fetch::Ready(events, cached)) => (events, cached),
            Some(Fetch::Shed | Fetch::TimedOut) => {
                unreachable!("unbounded fetch cannot shed or time out")
            }
            None => unreachable!("the recorder always records"),
        }
    }

    /// [`get_or_record`](Self::get_or_record) with admission control and a
    /// deadline.
    ///
    /// * If the key is absent and `max_inflight` recordings are already
    ///   running, returns [`Fetch::Shed`] without recording — the caller's
    ///   load-shedding path. A resident key is always served, whatever the
    ///   recording pressure.
    /// * If the key is in flight on another thread and `deadline` passes
    ///   before the recording lands, returns [`Fetch::TimedOut`]; the
    ///   recording keeps running and later requests hit it.
    ///
    /// * If `record` finds nothing to record from (an upload that is
    ///   gone, whose segment then failed to load) and returns `None`, so
    ///   does this call: nothing is stored, the lookup stays counted as a
    ///   miss, and the key's in-flight marker is released so waiters on it
    ///   retry.
    ///
    /// The recording this call *itself* performs is never aborted: once
    /// admitted, the work completes and the entry is stored even if the
    /// deadline lapses meanwhile (the caller decides what to answer; a
    /// deadline-blown retry finds the entry warm).
    pub fn fetch_or_record<F>(
        &self,
        key: u64,
        max_inflight: usize,
        deadline: Option<Instant>,
        record: F,
    ) -> Option<Fetch>
    where
        F: FnOnce() -> Option<EventTrace>,
    {
        self.metrics.lookups.inc();
        let shard = self.shard(key);
        let mut inner = shard.inner.lock().unwrap();
        let mut counted_coalesce = false;
        loop {
            if let Some(events) = inner.ready.get(&key).cloned() {
                // A lookup counts exactly once: a waiter that already
                // counted as coalesced must not also count as a hit when
                // it wakes to the finished entry.
                if !counted_coalesce {
                    self.metrics.hits.inc();
                }
                return Some(Fetch::Ready(events, true));
            }
            if inner.in_flight.contains(&key) {
                if !counted_coalesce {
                    self.metrics.coalesced.inc();
                    counted_coalesce = true;
                }
                // Wait for whichever thread owns the recording; the loop
                // re-examines the key (it may be resident, absent after a
                // panic, or even evicted — then we record).
                match Self::wait_done(&shard.done, inner, deadline) {
                    Ok(g) => inner = g,
                    Err(()) => return Some(Fetch::TimedOut),
                }
                continue;
            }
            if self.metrics.in_flight.get_unsigned() >= max_inflight as u64 {
                // A waiter that woke to an aborted recording and then
                // found no admission slot stays classified as coalesced;
                // only a direct refusal counts shed.
                if !counted_coalesce {
                    self.metrics.shed.inc();
                }
                return Some(Fetch::Shed);
            }
            inner.in_flight.insert(key);
            if !counted_coalesce {
                self.metrics.misses.inc();
            }
            self.metrics.in_flight.add(1);
            drop(inner);

            let mut guard = InFlightGuard {
                store: self,
                shard,
                key,
                armed: true,
            };
            // Declining releases the marker through the guard, as a
            // panic does.
            let events = Arc::new(record()?);
            guard.armed = false;
            drop(guard);

            let mut inner = shard.inner.lock().unwrap();
            inner.in_flight.remove(&key);
            self.metrics.in_flight.add(-1);
            self.admit(&mut inner, key, Arc::clone(&events));
            drop(inner);
            shard.done.notify_all();
            return Some(Fetch::Ready(events, false));
        }
    }

    /// Pre-populates `key` without counting a lookup: the durable store's
    /// startup scan streams recovered traces through here before the
    /// server accepts traffic, so recovery is invisible to the hit/miss
    /// accounting (and to `lookups_balance`). Respects the byte budget
    /// like a recording does: the seeded trace lands as the most recently
    /// used entry, evicting older ones if needed, and is itself never
    /// evicted by its own insertion, however large. Never displaces a
    /// resident or in-flight entry. Returns whether the trace was
    /// inserted.
    pub fn seed(&self, key: u64, events: Arc<EventTrace>) -> bool {
        let mut inner = self.shard(key).inner.lock().unwrap();
        if inner.ready.contains(&key) || inner.in_flight.contains(&key) {
            return false;
        }
        self.admit(&mut inner, key, events);
        true
    }

    /// Makes `events` resident as the shard's most recently used entry,
    /// evicting least-recently-used ones over the budget, and moves the
    /// gauges by what changed.
    fn admit(&self, inner: &mut Inner, key: u64, events: Arc<EventTrace>) {
        let (entries, bytes) = (inner.ready.len() as i64, inner.ready.bytes() as i64);
        let weight = events.approx_bytes();
        let evicted = inner.ready.insert(key, events, weight);
        self.metrics.evictions.add(evicted.len() as u64);
        self.metrics.entries.add(inner.ready.len() as i64 - entries);
        self.metrics.bytes.add(inner.ready.bytes() as i64 - bytes);
    }

    /// Waits on the completion condvar, bounded by `deadline`; `Err(())`
    /// means the deadline passed first.
    fn wait_done<'a>(
        done: &Condvar,
        inner: std::sync::MutexGuard<'a, Inner>,
        deadline: Option<Instant>,
    ) -> Result<std::sync::MutexGuard<'a, Inner>, ()> {
        match deadline {
            None => Ok(done.wait(inner).unwrap()),
            Some(dl) => {
                let now = Instant::now();
                if now >= dl {
                    return Err(());
                }
                // Spurious wakeups and completions of *other* keys re-enter
                // the caller's loop, which re-checks the key and the deadline.
                Ok(done.wait_timeout(inner, dl - now).unwrap().0)
            }
        }
    }

    /// Non-blocking lookup: one brief shard lock, never a condvar wait.
    /// The event loop serves [`TryGet::Ready`] inline and offloads the
    /// other outcomes to a handler thread, whose *blocking* lookup does
    /// the lookup accounting — so only the terminal `Ready` counts here.
    pub fn try_get(&self, key: u64) -> TryGet {
        let shard = self.shard(key);
        let mut inner = shard.inner.lock().unwrap();
        if let Some(events) = inner.ready.get(&key).cloned() {
            self.metrics.lookups.inc();
            self.metrics.hits.inc();
            TryGet::Ready(events)
        } else if inner.in_flight.contains(&key) {
            TryGet::InFlight
        } else {
            TryGet::Absent
        }
    }

    /// Returns the entry for `key` if it is resident (joining an in-flight
    /// recording first, if one is running); `None` if the store has never
    /// recorded it or has evicted it.
    pub fn get(&self, key: u64) -> Option<Arc<EventTrace>> {
        self.get_within(key, None)
            .expect("unbounded get cannot time out")
    }

    /// [`get`](Self::get) with a deadline on the join-an-in-flight-recording
    /// wait.
    ///
    /// # Errors
    ///
    /// [`DeadlineExceeded`] when the key's recording was still in flight at
    /// the deadline.
    pub fn get_within(
        &self,
        key: u64,
        deadline: Option<Instant>,
    ) -> Result<Option<Arc<EventTrace>>, DeadlineExceeded> {
        self.metrics.lookups.inc();
        let shard = self.shard(key);
        let mut inner = shard.inner.lock().unwrap();
        let mut counted_coalesce = false;
        loop {
            if let Some(events) = inner.ready.get(&key).cloned() {
                if !counted_coalesce {
                    self.metrics.hits.inc();
                }
                return Ok(Some(events));
            }
            if !inner.in_flight.contains(&key) {
                if !counted_coalesce {
                    self.metrics.absent.inc();
                }
                return Ok(None);
            }
            if !counted_coalesce {
                self.metrics.coalesced.inc();
                counted_coalesce = true;
            }
            match Self::wait_done(&shard.done, inner, deadline) {
                Ok(g) => inner = g,
                Err(()) => return Err(DeadlineExceeded),
            }
        }
    }

    /// A snapshot of the counters. Lock-free: reads the same atomics the
    /// metric registry exposes.
    pub fn stats(&self) -> StoreStats {
        let m = &self.metrics;
        StoreStats {
            lookups: m.lookups.get(),
            hits: m.hits.get(),
            misses: m.misses.get(),
            coalesced: m.coalesced.get(),
            shed: m.shed.get(),
            absent: m.absent.get(),
            evictions: m.evictions.get(),
            entries: m.entries.get_unsigned() as usize,
            bytes: m.bytes.get_unsigned() as usize,
            in_flight: m.in_flight.get_unsigned() as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachetime::{BehavioralSim, SystemConfig};
    use cachetime_trace::Trace;
    use cachetime_types::{MemRef, Pid, WordAddr};

    fn tiny_trace(salt: u64) -> EventTrace {
        let config = SystemConfig::paper_default().unwrap();
        let refs: Vec<MemRef> = (0..64)
            .map(|i| MemRef::load(WordAddr::new(salt * 4096 + i * 97), Pid(1)))
            .collect();
        BehavioralSim::new(&config.organization()).record(&Trace::new("t", refs, 0))
    }

    #[test]
    fn records_once_then_hits() {
        let store = TraceStore::new(usize::MAX);
        let (a, hit_a) = store.get_or_record(7, || tiny_trace(1));
        let (b, hit_b) = store.get_or_record(7, || panic!("must not re-record"));
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.lookups, 2);
        assert!(s.lookups_balance());
        assert!(s.bytes > 0);
    }

    #[test]
    fn fetch_sheds_at_the_inflight_limit_but_serves_warm_keys() {
        let store = Arc::new(TraceStore::new(usize::MAX));
        // Warm one key, then occupy the single admission slot with a
        // recording that blocks until told to finish.
        store.get_or_record(1, || tiny_trace(1));
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let blocker = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                store.fetch_or_record(2, 1, None, move || {
                    rx.recv().unwrap();
                    Some(tiny_trace(2))
                })
            })
        };
        while store.stats().in_flight == 0 {
            std::thread::yield_now();
        }
        // A cold key past the limit sheds; the warm key still serves.
        assert!(matches!(
            store.fetch_or_record(3, 1, None, || unreachable!("must shed")),
            Some(Fetch::Shed)
        ));
        assert!(matches!(
            store.fetch_or_record(1, 1, None, || unreachable!("warm")),
            Some(Fetch::Ready(_, true))
        ));
        tx.send(()).unwrap();
        assert!(matches!(
            blocker.join().unwrap(),
            Some(Fetch::Ready(_, false))
        ));
        let s = store.stats();
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.shed, 1);
        assert!(s.lookups_balance());
    }

    #[test]
    fn fetch_times_out_waiting_on_a_slow_recording() {
        let store = Arc::new(TraceStore::new(usize::MAX));
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let blocker = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                store.fetch_or_record(9, usize::MAX, None, move || {
                    rx.recv().unwrap();
                    Some(tiny_trace(9))
                })
            })
        };
        while store.stats().in_flight == 0 {
            std::thread::yield_now();
        }
        // A coalescing waiter with an already-lapsed deadline gives up
        // instead of parking forever...
        let deadline = Some(Instant::now());
        assert!(matches!(
            store.fetch_or_record(9, usize::MAX, deadline, || unreachable!("coalesces")),
            Some(Fetch::TimedOut)
        ));
        assert!(matches!(
            store.get_within(9, deadline),
            Err(DeadlineExceeded)
        ));
        // ...and the recording itself is unharmed: it completes and the
        // entry lands for future callers.
        tx.send(()).unwrap();
        assert!(matches!(
            blocker.join().unwrap(),
            Some(Fetch::Ready(_, false))
        ));
        assert!(store.get(9).is_some());
        let s = store.stats();
        assert!(s.coalesced >= 1);
        assert!(
            s.lookups_balance(),
            "timed-out waiters stay coalesced: {s:?}"
        );
    }

    #[test]
    fn get_misses_on_unknown_key() {
        let store = TraceStore::new(usize::MAX);
        assert!(store.get(42).is_none());
        assert_eq!(store.stats().absent, 1);
        store.get_or_record(42, || tiny_trace(1));
        assert!(store.get(42).is_some());
        assert!(store.stats().lookups_balance());
    }

    #[test]
    fn try_get_never_blocks_and_counts_only_hits() {
        let store = Arc::new(TraceStore::new(usize::MAX));
        assert!(matches!(store.try_get(7), TryGet::Absent));
        assert_eq!(
            store.stats().lookups,
            0,
            "a non-terminal probe is not a lookup"
        );
        store.get_or_record(7, || tiny_trace(7));
        assert!(matches!(store.try_get(7), TryGet::Ready(_)));
        // An in-flight key reports InFlight instantly instead of joining.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let blocker = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                store.get_or_record(8, move || {
                    rx.recv().unwrap();
                    tiny_trace(8)
                })
            })
        };
        while store.stats().in_flight == 0 {
            std::thread::yield_now();
        }
        assert!(matches!(store.try_get(8), TryGet::InFlight));
        tx.send(()).unwrap();
        blocker.join().unwrap();
        let s = store.stats();
        assert_eq!(s.hits, 1, "only the terminal try_get counts a hit");
        assert!(s.lookups_balance());
    }

    #[test]
    fn lru_eviction_respects_the_budget() {
        let one = tiny_trace(1).approx_bytes();
        // Room for two entries, not three.
        let store = TraceStore::new(one * 2 + one / 2);
        store.get_or_record(1, || tiny_trace(1));
        store.get_or_record(2, || tiny_trace(2));
        // Touch 1 so 2 becomes the LRU.
        store.get(1).unwrap();
        store.get_or_record(3, || tiny_trace(3));
        let s = store.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(store.get(2).is_none(), "LRU entry should be gone");
        assert!(store.get(1).is_some());
        assert!(store.get(3).is_some());
        assert!(s.bytes <= store.budget_bytes());
    }

    #[test]
    fn an_oversized_entry_still_serves_its_request() {
        let store = TraceStore::new(1); // everything is over budget
        let (a, _) = store.get_or_record(9, || tiny_trace(9));
        assert!(!a.ops().is_empty() || a.couplets() > 0);
        // It stays resident (nothing else to evict below it).
        assert_eq!(store.stats().entries, 1);
    }

    #[test]
    fn churn_evicts_exactly_what_a_reference_lru_would() {
        // Regression for the O(n²) evictor: drive a long, deterministic
        // mixed workload of inserts and touches against a reference LRU
        // model and require identical eviction counts and residency at
        // every step. The indexed evictor must be a pure speedup, never
        // a policy change. (Single shard: global LRU is exact.)
        let one = tiny_trace(0).approx_bytes();
        const CAPACITY: usize = 8; // entries the budget can hold
        let store = TraceStore::new(one * CAPACITY + one / 2);
        let mut model: Vec<u64> = Vec::new(); // LRU order, oldest first
        let mut model_evictions = 0u64;
        let mut rng = cachetime_testkit::SplitMix64::from_seed(0xb51d);

        for step in 0..600 {
            let key = rng.next_u64() % 48;
            if let Some(pos) = model.iter().position(|&k| k == key) {
                // Warm: a get must refresh recency, not evict.
                assert!(
                    store.get(key).is_some(),
                    "step {step}: key {key} must be resident"
                );
                model.remove(pos);
                model.push(key);
            } else {
                let (_, cached) = store.get_or_record(key, || tiny_trace(key));
                assert!(!cached, "step {step}: key {key} must record");
                model.push(key);
                if model.len() > CAPACITY {
                    model.remove(0);
                    model_evictions += 1;
                }
            }
            let s = store.stats();
            assert_eq!(
                s.evictions, model_evictions,
                "step {step}: eviction counts diverged"
            );
            assert_eq!(s.entries, model.len(), "step {step}: residency diverged");
            assert!(s.bytes <= store.budget_bytes(), "step {step}: over budget");
        }
        // Final residency matches the model exactly, newest to oldest.
        for &key in &model {
            assert!(store.get(key).is_some(), "key {key} wrongly evicted");
        }
        assert!(model_evictions > 100, "the workload must actually churn");
        assert!(store.stats().lookups_balance());
    }

    #[test]
    fn sharded_store_isolates_keys_and_splits_the_budget() {
        let one = tiny_trace(1).approx_bytes();
        let store = TraceStore::sharded(one * 8, 4);
        assert_eq!(store.shard_count(), 4);
        // Fill across shards; totals aggregate across all of them.
        for key in 0..8u64 {
            store.get_or_record(key, || tiny_trace(key));
        }
        let s = store.stats();
        assert_eq!(s.misses, 8);
        assert!(
            s.entries >= 4,
            "per-shard budgets keep at least the keep-entry"
        );
        assert!(s.lookups_balance());
        // A resident key on any shard still hits.
        let mut hits = 0;
        for key in 0..8u64 {
            if matches!(store.try_get(key), TryGet::Ready(_)) {
                hits += 1;
            }
        }
        assert!(hits >= 4);
        assert!(store.stats().lookups_balance());
    }

    #[test]
    fn a_coalescing_waiter_counts_once_not_as_a_hit_too() {
        // Regression: a waiter that joined an in-flight recording used to
        // count as coalesced *and then again* as a hit when it woke to
        // the finished entry, so `hits + coalesced` overcounted requests
        // whenever anyone actually waited (a scheduling-dependent flake
        // in the same-key storm test).
        let store = Arc::new(TraceStore::new(usize::MAX));
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let blocker = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                store.get_or_record(5, move || {
                    rx.recv().unwrap();
                    tiny_trace(5)
                })
            })
        };
        while store.stats().in_flight == 0 {
            std::thread::yield_now();
        }
        let waiter = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.get_or_record(5, || unreachable!("must coalesce")))
        };
        // The waiter is guaranteed parked once it has counted.
        while store.stats().coalesced == 0 {
            std::thread::yield_now();
        }
        tx.send(()).unwrap();
        let (a, recorded_hit) = blocker.join().unwrap();
        let (b, joined_hit) = waiter.join().unwrap();
        assert!(!recorded_hit);
        assert!(joined_hit);
        assert!(Arc::ptr_eq(&a, &b));
        let s = store.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.coalesced, 1);
        assert_eq!(s.hits, 0, "a coalesced join must not also count as a hit");
        assert_eq!(s.lookups, 2);
        assert!(s.lookups_balance());
    }

    #[test]
    fn a_declining_recorder_releases_its_key() {
        let store = TraceStore::new(usize::MAX);
        assert!(store
            .fetch_or_record(6, usize::MAX, None, || None)
            .is_none());
        let s = store.stats();
        assert_eq!((s.misses, s.in_flight, s.entries), (1, 0, 0));
        assert!(s.lookups_balance());
        // The key is clean again: a fresh recording succeeds.
        let (_, hit) = store.get_or_record(6, || tiny_trace(6));
        assert!(!hit);
    }

    #[test]
    fn panicking_recorder_unblocks_future_requests() {
        let store = Arc::new(TraceStore::new(usize::MAX));
        let s2 = Arc::clone(&store);
        let t = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s2.get_or_record(5, || panic!("recorder died"));
            }));
        });
        t.join().unwrap();
        // The key is clean again: a fresh recording succeeds.
        let (_, hit) = store.get_or_record(5, || tiny_trace(5));
        assert!(!hit);
        assert_eq!(store.stats().in_flight, 0);
        assert!(store.stats().lookups_balance());
    }
}
