//! [`BudgetLru`]: a byte-weighted least-recently-used map.
//!
//! This is the replacement policy the paper prices, kept for the
//! simulator's own state: the server's trace-store shards, its upload
//! store and the durable segment index all hold one. Each entry carries a
//! weight (its resident or on-disk bytes); inserting evicts from the
//! least-recently-used end until the summed weight fits the budget.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A map kept in recency order under a byte budget.
///
/// * [`get`](Self::get) marks an entry used; [`contains`](Self::contains)
///   does not, so a caller that never calls `get` gets oldest-inserted
///   (FIFO) eviction.
/// * [`insert`](Self::insert) evicts least-recently-used entries while the
///   total weight exceeds the budget, but never the entry it inserts: an
///   entry heavier than the whole budget still lands, and stays alone.
/// * Recency lives in an ordered `stamp → key` index beside the map, so
///   every operation is O(log n), evictions included.
///
/// # Examples
///
/// ```
/// use cachetime_types::BudgetLru;
///
/// let mut lru = BudgetLru::new(10);
/// lru.insert("a", 1, 4);
/// lru.insert("b", 2, 4);
/// lru.get(&"a"); // "b" is now the least recently used
/// assert_eq!(lru.insert("c", 3, 4), vec![("b", 2)]);
/// assert_eq!((lru.len(), lru.bytes()), (2, 8));
/// ```
#[derive(Debug)]
pub struct BudgetLru<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// `stamp → key`, one per entry; the first is the least recently used.
    order: BTreeMap<u64, K>,
    /// Monotonic use counter; stamps are unique.
    stamp: u64,
    bytes: usize,
    budget: usize,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    weight: usize,
    stamp: u64,
}

impl<K: Hash + Eq + Clone, V> BudgetLru<K, V> {
    /// An empty map that keeps at most `budget` bytes of weight (plus one
    /// oversized newcomer). `usize::MAX` never evicts.
    pub fn new(budget: usize) -> Self {
        BudgetLru {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            stamp: 0,
            bytes: 0,
            budget,
        }
    }

    /// The byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The summed weight of the resident entries.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Whether `key` is resident. Does not change recency.
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// The resident keys, in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.keys()
    }

    /// The value under `key`, marking it the most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let entry = self.entries.get_mut(key)?;
        self.stamp += 1;
        self.order.remove(&entry.stamp);
        self.order.insert(self.stamp, key.clone());
        entry.stamp = self.stamp;
        Some(&entry.value)
    }

    /// Inserts `value` under `key` as the most recently used entry and
    /// returns what was evicted to fit the budget, oldest first. A resident
    /// `key` is replaced, its old weight uncharged. The newcomer itself is
    /// never evicted.
    pub fn insert(&mut self, key: K, value: V, weight: usize) -> Vec<(K, V)> {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(old) = self.entries.insert(
            key.clone(),
            Entry {
                value,
                weight,
                stamp,
            },
        ) {
            self.order.remove(&old.stamp);
            self.bytes -= old.weight;
        }
        self.order.insert(stamp, key);
        self.bytes += weight;
        let mut evicted = Vec::new();
        while self.bytes > self.budget {
            // The newcomer holds the newest stamp: once it is the oldest,
            // it is alone.
            match self.order.first_key_value() {
                Some((&oldest, _)) if oldest != stamp => {}
                _ => break,
            }
            let (_, key) = self.order.pop_first().expect("checked above");
            let entry = self.entries.remove(&key).expect("indexed key is resident");
            self.bytes -= entry.weight;
            evicted.push((key, entry.value));
        }
        evicted
    }

    /// Removes `key`, returning its value if it was resident.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let entry = self.entries.remove(key)?;
        self.order.remove(&entry.stamp);
        self.bytes -= entry.weight;
        Some(entry.value)
    }
}
