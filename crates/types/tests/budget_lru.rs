//! `BudgetLru` against a naive model: a `Vec` in recency order, oldest
//! first, scanned linearly on every operation.

use cachetime_testkit::{check, prop_assert_eq, shrink, SplitMix64};
use cachetime_types::BudgetLru;

const BUDGET: usize = 100;
/// Keys are drawn from a small universe so re-inserts of resident keys,
/// gets of evicted keys and removes of absent keys all happen often.
const KEYS: u64 = 10;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { key: u64, weight: usize },
    Get(u64),
    Contains(u64),
    Remove(u64),
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    let key = rng.gen_range(0..KEYS);
    match rng.gen_range(0..10u32) {
        0..=3 => {
            // Mostly a fraction of the budget; now and then zero, the
            // whole budget, or more than it.
            let weight = match rng.gen_range(0..10u32) {
                0 => 0,
                1 => rng.gen_range(BUDGET..BUDGET * 2),
                _ => rng.gen_range(1..BUDGET / 3),
            };
            Op::Insert { key, weight }
        }
        4..=6 => Op::Get(key),
        7..=8 => Op::Contains(key),
        _ => Op::Remove(key),
    }
}

/// The reference: `(key, value, weight)` in recency order, oldest first.
#[derive(Default)]
struct Model(Vec<(u64, u32, usize)>);

impl Model {
    fn position(&self, key: u64) -> Option<usize> {
        self.0.iter().position(|&(k, _, _)| k == key)
    }

    fn bytes(&self) -> usize {
        self.0.iter().map(|&(_, _, w)| w).sum()
    }

    fn insert(&mut self, key: u64, value: u32, weight: usize) -> Vec<(u64, u32)> {
        if let Some(pos) = self.position(key) {
            self.0.remove(pos);
        }
        self.0.push((key, value, weight));
        let mut evicted = Vec::new();
        while self.bytes() > BUDGET && self.0.len() > 1 {
            let (k, v, _) = self.0.remove(0);
            evicted.push((k, v));
        }
        evicted
    }

    fn get(&mut self, key: u64) -> Option<u32> {
        let pos = self.position(key)?;
        let entry = self.0.remove(pos);
        self.0.push(entry);
        Some(entry.1)
    }

    fn remove(&mut self, key: u64) -> Option<u32> {
        let pos = self.position(key)?;
        Some(self.0.remove(pos).1)
    }
}

fn run(ops: &[Op]) -> Result<(), String> {
    let mut lru = BudgetLru::new(BUDGET);
    let mut model = Model::default();
    for (step, &op) in ops.iter().enumerate() {
        let value = step as u32;
        match op {
            Op::Insert { key, weight } => {
                prop_assert_eq!(
                    lru.insert(key, value, weight),
                    model.insert(key, value, weight)
                );
            }
            Op::Get(key) => prop_assert_eq!(lru.get(&key).copied(), model.get(key)),
            Op::Contains(key) => {
                prop_assert_eq!(lru.contains(&key), model.position(key).is_some());
            }
            Op::Remove(key) => prop_assert_eq!(lru.remove(&key), model.remove(key)),
        }
        prop_assert_eq!(lru.len(), model.0.len());
        prop_assert_eq!(lru.bytes(), model.bytes());
        for key in 0..KEYS {
            prop_assert_eq!(lru.contains(&key), model.position(key).is_some());
        }
        let mut keys: Vec<u64> = lru.keys().copied().collect();
        keys.sort_unstable();
        let mut expected: Vec<u64> = model.0.iter().map(|&(k, _, _)| k).collect();
        expected.sort_unstable();
        prop_assert_eq!(keys, expected);
    }
    Ok(())
}

#[test]
fn budget_lru_matches_a_naive_model() {
    check(
        "budget_lru_matches_a_naive_model",
        |rng| {
            let n = rng.gen_range(1..300usize);
            (0..n).map(|_| gen_op(rng)).collect::<Vec<Op>>()
        },
        shrink::vec_linear,
        |ops| run(ops),
    );
}

#[test]
fn an_oversized_newcomer_stays_alone() {
    let mut lru = BudgetLru::new(10);
    assert!(lru.insert(1, 'a', 4).is_empty());
    assert!(lru.insert(2, 'b', 4).is_empty());
    assert_eq!(lru.insert(3, 'c', 25), vec![(1, 'a'), (2, 'b')]);
    assert_eq!((lru.len(), lru.bytes()), (1, 25));
    assert_eq!(lru.get(&3), Some(&'c'));
    // The next newcomer evicts it in turn, even one that fits.
    assert_eq!(lru.insert(4, 'd', 1), vec![(3, 'c')]);
    assert_eq!((lru.len(), lru.bytes()), (1, 1));
}

#[test]
fn contains_never_changes_recency() {
    let mut lru = BudgetLru::new(10);
    lru.insert(1, (), 5);
    lru.insert(2, (), 5);
    assert!(lru.contains(&1));
    // A get would have saved 1; contains must not.
    assert_eq!(lru.insert(3, (), 5), vec![(1, ())]);
    assert!(lru.get(&2).is_some());
    assert_eq!(lru.insert(4, (), 5), vec![(3, ())]);
}

#[test]
fn reinserting_a_resident_key_charges_it_once() {
    let mut lru = BudgetLru::new(10);
    lru.insert(1, "old", 6);
    assert!(
        lru.insert(1, "new", 8).is_empty(),
        "replacing must not evict itself"
    );
    assert_eq!((lru.len(), lru.bytes()), (1, 8));
    assert_eq!(lru.remove(&1), Some("new"));
    assert_eq!((lru.len(), lru.bytes()), (0, 0));
    assert!(lru.is_empty());
}
