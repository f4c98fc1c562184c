//! Write-buffer edge cases the two-phase refactor must preserve.
//!
//! The timing replay re-executes the memory system's busy-until accounting
//! verbatim, so these behaviors are load-bearing for replay equivalence:
//! coalescing into the surviving tail of a partially drained buffer,
//! read-address matching that stalls only on genuinely stale words, and
//! FIFO drain ordering when back-to-back misses park multiple victims.
//!
//! All cycle numbers below are hand-derived from the paper-default memory
//! (180/100/120 ns, one word per cycle, 1 address cycle) at a 40 ns clock:
//! latency 5 cycles, write-op 3, recovery 3, so a 1-word drain holds the
//! bus for 2 cycles and busies the memory for 8, a 4-word drain for 5 and
//! 11.

use cachetime_mem::{FillRequest, MemoryConfig, MemorySystem};
use cachetime_types::{CycleTime, Pid, WordAddr};

fn mem_with(configure: impl FnOnce(&mut cachetime_mem::MemoryConfigBuilder)) -> MemorySystem {
    let mut b = MemoryConfig::builder();
    configure(&mut b);
    MemorySystem::new(
        &b.build().expect("valid config"),
        CycleTime::from_ns(40).unwrap(),
    )
}

fn fill(addr: u64, words: u32) -> FillRequest {
    FillRequest {
        pid: Pid(0),
        addr: WordAddr::new(addr),
        words,
        victim: None,
    }
}

/// A word write must still coalesce into the tail entry after `catch_up`
/// has drained the entries ahead of it — a partially drained buffer is the
/// steady state between misses, not a special case.
#[test]
fn coalesce_into_partially_drained_buffer() {
    // Paper default: depth 4, coalescing on, 32-cycle drain delay.
    let mut mem = mem_with(|_| {});

    // Two word writes into distinct 16-word coalescing regions.
    assert_eq!(mem.write_word(0, Pid(0), WordAddr::new(10)), 0);
    assert_eq!(mem.write_word(0, Pid(0), WordAddr::new(100)), 0);
    assert_eq!(mem.pending_writes(), 2);

    // At cycle 36 the head entry is past its 32-cycle aging window and the
    // memory is idle, so it retires (launch backdated to 32, bus 32..34,
    // busy until 40); the second entry must wait for that recovery and
    // survives. The new write lands in the survivor's region and coalesces
    // instead of allocating a third entry.
    assert_eq!(mem.write_word(36, Pid(0), WordAddr::new(101)), 36);
    assert_eq!(mem.pending_writes(), 1, "head drained, tail coalesced");
    assert_eq!(mem.stats().writes, 1);
    assert_eq!(mem.stats().write_words, 1);
    assert_eq!(mem.stats().coalesced_writes, 1);

    // The coalesced entry drains as one 2-word operation: launch at 40
    // (when the head's recovery ends), bus 40..43, busy until 49.
    assert_eq!(mem.drain_all(36), 49);
    assert_eq!(mem.stats().writes, 2);
    assert_eq!(mem.stats().write_words, 3);
}

/// Reads stall only on a true stale-data match: a fetch overlapping a word
/// entry's 16-word coalescing region — but not any *written* word — and a
/// fetch matching the address under a different process both proceed at
/// full speed. Only the same-process fetch of the written word drains the
/// buffer first.
#[test]
fn read_match_stalls_only_on_stale_words() {
    let mut mem = mem_with(|_| {});
    mem.write_word(0, Pid(0), WordAddr::new(8)); // region [0, 16), word 8

    // Fetch [12, 16): inside the coalescing region, but none of those
    // words are pending — identical timing to an empty buffer (start 1,
    // data at 7, done 11).
    let clean = mem.fill_grant(1, fill(12, 4));
    let mut fresh = mem_with(|_| {});
    assert_eq!(
        clean,
        fresh.fill_grant(1, fill(12, 4)),
        "no written word, no stall"
    );
    assert_eq!(mem.stats().read_match_stalls, 0);
    assert_eq!(mem.pending_writes(), 1);

    // Fetch [8, 12) as another process: addresses are per-process virtual,
    // so the pending word is not this process's data. No stall; the fill
    // only queues behind the previous fill's recovery (start 14, done 24).
    let other = mem.fill_grant(
        12,
        FillRequest {
            pid: Pid(1),
            addr: WordAddr::new(8),
            words: 4,
            victim: None,
        },
    );
    assert_eq!(other.done, 24);
    assert_eq!(mem.stats().read_match_stalls, 0);
    assert_eq!(mem.pending_writes(), 1);

    // Fetch [8, 12) as the writing process: word 8 is stale in memory, so
    // the write drains first (launch 27, bus until 29, recovery until 35)
    // and the read waits: data at 41, done 45 — versus 37 unstalled.
    let stalled = mem.fill_grant(25, fill(8, 4));
    assert_eq!(stalled.done, 45);
    assert_eq!(mem.stats().read_match_stalls, 1);
    assert_eq!(mem.pending_writes(), 0, "matched write forced out");
}

/// Back-to-back dirty misses park their victims in FIFO order, fills are
/// not delayed by parked victims (read priority), and a read match forces
/// out the matched entry *and everything ahead of it* — in order, each
/// drain waiting out the previous one's recovery.
#[test]
fn fifo_drain_ordering_under_back_to_back_misses() {
    // Long drain delay so victims only leave via read matches; the
    // ordering is then observable through which addresses still match.
    let mut mem = mem_with(|b| {
        b.wb_drain_delay(1000);
    });
    let dirty = |addr: u64, victim: u64| FillRequest {
        pid: Pid(0),
        addr: WordAddr::new(addr),
        words: 4,
        victim: Some((WordAddr::new(victim), 4)),
    };

    // Three misses in a row, each displacing a dirty block. Each victim
    // moves into the buffer during the fetch latency (one word per cycle
    // from `start`), never delaying the fetch itself.
    let g1 = mem.fill_grant(0, dirty(16, 1000));
    assert_eq!(
        (g1.ready, g1.done),
        (6, 10),
        "victim move (0..4) hides under latency"
    );
    let g2 = mem.fill_grant(11, dirty(32, 2000));
    assert_eq!(
        (g2.ready, g2.done),
        (19, 23),
        "fill queues on recovery, not on victims"
    );
    let g3 = mem.fill_grant(24, dirty(48, 3000));
    assert_eq!((g3.ready, g3.done), (32, 36));
    assert_eq!(mem.pending_writes(), 3);
    assert_eq!(mem.stats().read_match_stalls, 0);

    // Re-fetch the *second* victim: FIFO forces the first out ahead of it.
    // The drains serialize through recovery — v1 on the bus 40..45 (busy
    // to 51), v2 waits and runs 51..56 (busy to 62) — then the read issues
    // at 62: data at 68, done 72.
    let g4 = mem.fill_grant(40, fill(2000, 4));
    assert_eq!(g4.done, 72);
    assert_eq!(mem.stats().read_match_stalls, 1);
    assert_eq!(mem.pending_writes(), 1, "v1 and v2 out, v3 still parked");
    assert_eq!(mem.stats().write_words, 8);

    // The first victim is gone (it drained *ahead* of the second): its
    // address no longer matches anything.
    let g5 = mem.fill_grant(73, fill(1000, 4));
    assert_eq!(g5.done, 85);
    assert_eq!(
        mem.stats().read_match_stalls,
        1,
        "v1 already drained, no stall"
    );
    assert_eq!(mem.pending_writes(), 1);

    // The third victim is still there and still matches.
    let g6 = mem.fill_grant(86, fill(3000, 4));
    assert_eq!(g6.done, 109);
    assert_eq!(mem.stats().read_match_stalls, 2);
    assert_eq!(mem.pending_writes(), 0);
    assert_eq!(mem.stats().write_words, 12);
}
