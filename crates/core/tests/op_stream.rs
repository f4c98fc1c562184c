//! The packed op stream of an `EventTrace`, pinned.
//!
//! * A golden: the byte length and stable hash of one encoded recording.
//!   A change to either is a payload format change, to be made
//!   deliberately, with `codec::PAYLOAD_VERSION` bumped alongside.
//! * A bound: every catalog trace the benchmark sweep records, at the
//!   smallest, a middle and the largest L1 of its grid, packs into at most
//!   eight bytes per op.
//!
//! Round trips and corrupt input are the property test in `opstream.rs`
//! (`cargo test -p cachetime --lib op_stream`). The encoder writes every
//! op in one form, which is what pins these bytes; a decoded payload is
//! not held to that form. It keeps its bytes as given, so a field wider
//! than it needs decodes and prices as the op it holds
//! (`an_overlong_field_decodes_to_the_same_ops`).

use cachetime::{codec, BehavioralSim, SystemConfig};
use cachetime_cache::CacheConfig;
use cachetime_trace::catalog;
use cachetime_types::{CacheSize, StableHasher};

#[test]
fn op_stream_golden_mu3_paper_default() {
    let config = SystemConfig::paper_default().unwrap();
    let events = BehavioralSim::new(&config.organization()).record(&catalog::mu3(0.01).generate());
    let payload = codec::encode(&events);
    let mut h = StableHasher::new();
    h.write_bytes(&payload);
    assert_eq!(codec::PAYLOAD_VERSION, 2);
    assert_eq!(
        (events.ops().len(), payload.len(), h.finish()),
        (2457, 11169, 0x650b_5384_e655_7cc3),
        "the encoded recording changed: a payload format change"
    );
    assert_eq!(codec::decode(&payload).as_ref(), Ok(&events));
}

#[test]
fn sweep_catalog_records_at_most_eight_bytes_per_op() {
    let traces: Vec<_> = catalog::all(0.05).iter().map(|w| w.generate()).collect();
    assert_eq!(traces.len(), 8);
    for kib in [2, 64, 2048] {
        let l1 = CacheConfig::builder(CacheSize::from_kib(kib).unwrap())
            .build()
            .unwrap();
        let config = SystemConfig::builder().l1_both(l1).build().unwrap();
        for trace in &traces {
            let events = BehavioralSim::new(&config.organization()).record(trace);
            let ops = events.ops();
            let per_op = ops.byte_len() as f64 / ops.len() as f64;
            println!(
                "{kib:>5} KiB {:<6} {:>7} ops {per_op:.2} B/op",
                trace.name(),
                ops.len()
            );
            assert!(
                per_op <= 8.0,
                "{} at {kib} KiB: {per_op:.2} bytes per op",
                trace.name()
            );
        }
    }
}
