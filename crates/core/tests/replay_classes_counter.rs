//! The replay counters count timing classes, not configurations.
//!
//! A file of its own: the counters live in the process-wide registry, and
//! no other test in this binary replays, so the deltas below are exact.

use cachetime::{keyed, SystemConfig};
use cachetime_trace::catalog;

#[test]
fn fifty_thousand_copies_of_one_timing_half_are_one_class() {
    const COPIES: usize = 50_000;
    let config = SystemConfig::paper_default().unwrap();
    let (_, events) = keyed::record(&config.organization(), &catalog::mu3(0.002));
    let obs = cachetime_obs::global();
    let configs = obs.counter("cachetime_replay_configs_total", &[]);
    let classes = obs.counter("cachetime_replay_classes_total", &[]);
    let (configs_before, classes_before) = (configs.get(), classes.get());

    // Grouping is one hash lookup per point: a quadratic pass over 50,000
    // points would be 1.25e9 comparisons, and one replay per point would
    // walk the event stream 50,000 times.
    let results = keyed::replay_timings(&events, &vec![config.timing(); COPIES]).unwrap();

    assert_eq!(configs.get() - configs_before, COPIES as u64);
    assert_eq!(classes.get() - classes_before, 1);
    assert_eq!(results.len(), COPIES);
    assert!(results.iter().all(|r| *r == results[0]));
}
