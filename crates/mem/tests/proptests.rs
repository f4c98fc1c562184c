//! Property-based tests for the memory-system timing model, on the
//! hermetic testkit runner.

use cachetime_mem::{FillRequest, MemoryConfig, MemorySystem, MemoryTiming, TransferRate};
use cachetime_testkit::{check, prop_assert, prop_assert_eq, shrink, CaseResult, SplitMix64};
use cachetime_types::{CycleTime, Nanos, Pid, WordAddr};

fn gen_config(rng: &mut SplitMix64) -> MemoryConfig {
    let transfer = if rng.gen_bool(0.5) {
        TransferRate::WordsPerCycle(rng.gen_range(1u32..5))
    } else {
        TransferRate::CyclesPerWord(rng.gen_range(1u32..5))
    };
    MemoryConfig::builder()
        .read_op(Nanos(rng.gen_range(1u64..500)))
        .write_op(Nanos(rng.gen_range(1u64..500)))
        .recovery(Nanos(rng.gen_range(0u64..500)))
        .transfer(transfer)
        .wb_depth(rng.gen_range(0u32..8))
        .wb_coalesce(rng.gen_bool(0.5))
        .read_priority(rng.gen_bool(0.5))
        .build()
        .expect("valid config")
}

/// (op kind, addr, gap to next event)
fn gen_ops(rng: &mut SplitMix64) -> Vec<(u8, u64, u32)> {
    let n = rng.gen_range(1usize..200);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0u8..3),
                rng.gen_range(0u64..256),
                rng.gen_range(0u32..30),
            )
        })
        .collect()
}

/// A fill can never complete faster than the pure read time, and the
/// returned completion is never before `now`.
#[test]
fn fill_lower_bound() {
    check(
        "fill_lower_bound",
        |rng| {
            (
                gen_config(rng),
                rng.gen_range(1u32..100),
                rng.gen_range(0u32..6),
                rng.gen_range(0u64..1000),
            )
        },
        shrink::none,
        |(config, ct, words_log, now)| {
            let ct = CycleTime::from_ns(*ct).unwrap();
            let words = 1u32 << words_log;
            let now = *now;
            let mut mem = MemorySystem::new(config, ct);
            let done = mem.fill(
                now,
                FillRequest {
                    pid: Pid(0),
                    addr: WordAddr::new(0),
                    words,
                    victim: None,
                },
            );
            let floor = MemoryTiming::new(config, ct).read_time(words);
            prop_assert!(done >= now + floor, "done={done}, now={now}, floor={floor}");
            Ok(())
        },
    );
}

/// The body of `monotone_and_bounded`, shared with the regression test.
fn check_monotone_and_bounded(config: &MemoryConfig, ops: &[(u8, u64, u32)]) -> CaseResult {
    let mut mem = MemorySystem::new(config, CycleTime::from_ns(40).unwrap());
    let mut now = 0u64;
    for &(kind, addr, gap) in ops {
        let a = WordAddr::new(addr);
        let t = match kind {
            0 => mem.fill(
                now,
                FillRequest {
                    pid: Pid(0),
                    addr: a,
                    words: 4,
                    victim: None,
                },
            ),
            1 => mem.fill(
                now,
                FillRequest {
                    pid: Pid(0),
                    addr: a,
                    words: 4,
                    victim: Some((WordAddr::new(addr ^ 0x1000), 4)),
                },
            ),
            _ => mem.write_word(now, Pid(0), a),
        };
        prop_assert!(t >= now, "completion {t} before request {now}");
        prop_assert!(mem.pending_writes() <= config.wb_depth() as usize);
        now = t + gap as u64;
    }
    mem.drain_all(now);
    prop_assert_eq!(mem.pending_writes(), 0);
    Ok(())
}

/// Time never runs backwards across any interleaving of fills and
/// writes, and the buffer never exceeds its depth.
#[test]
fn monotone_and_bounded() {
    check(
        "monotone_and_bounded",
        |rng| (gen_config(rng), gen_ops(rng)),
        shrink::pair_vec,
        |(config, ops)| check_monotone_and_bounded(config, ops),
    );
}

/// Regression (found by the previous fuzzing setup): a fill carrying a
/// victim with a zero-depth write buffer must still make progress.
#[test]
fn regression_victim_fill_with_zero_depth_buffer() {
    let config = MemoryConfig::builder()
        .read_op(Nanos(1))
        .write_op(Nanos(1))
        .recovery(Nanos(0))
        .transfer(TransferRate::WordsPerCycle(1))
        .wb_depth(0)
        .wb_coalesce(false)
        .read_priority(false)
        .build()
        .expect("valid config");
    check_monotone_and_bounded(&config, &[(1, 0, 0)]).expect("regression case must pass");
}

/// Replaying the same op sequence gives identical completion times and
/// statistics (full determinism).
#[test]
fn deterministic() {
    check(
        "deterministic",
        |rng| (gen_config(rng), gen_ops(rng)),
        shrink::pair_vec,
        |(config, ops)| {
            let run = || {
                let mut mem = MemorySystem::new(config, CycleTime::from_ns(40).unwrap());
                let mut now = 0u64;
                let mut times = Vec::new();
                for &(kind, addr, gap) in ops {
                    let a = WordAddr::new(addr);
                    let t = match kind {
                        0 => mem.fill(
                            now,
                            FillRequest {
                                pid: Pid(0),
                                addr: a,
                                words: 4,
                                victim: None,
                            },
                        ),
                        1 => mem.fill(
                            now,
                            FillRequest {
                                pid: Pid(0),
                                addr: a,
                                words: 4,
                                victim: Some((WordAddr::new(addr ^ 0x1000), 4)),
                            },
                        ),
                        _ => mem.write_word(now, Pid(0), a),
                    };
                    times.push(t);
                    now = t + gap as u64;
                }
                (times, *mem.stats())
            };
            prop_assert_eq!(run(), run());
            Ok(())
        },
    );
}

/// Write-back traffic conservation: every accepted write eventually
/// drains, and drained words equal pushed words (when coalescing is
/// off).
#[test]
fn write_conservation() {
    check("write_conservation", gen_ops, shrink::vec_linear, |ops| {
        let config = MemoryConfig::builder().wb_coalesce(false).build().unwrap();
        let mut mem = MemorySystem::new(&config, CycleTime::from_ns(40).unwrap());
        let mut now = 0u64;
        let mut pushed_words = 0u64;
        for &(kind, addr, gap) in ops {
            let a = WordAddr::new(addr);
            if kind == 2 {
                now = mem.write_word(now, Pid(0), a);
                pushed_words += 1;
            } else {
                let victim = (kind == 1).then(|| (WordAddr::new(addr ^ 0x1000), 4u32));
                if victim.is_some() {
                    pushed_words += 4;
                }
                now = mem.fill(
                    now,
                    FillRequest {
                        pid: Pid(0),
                        addr: a,
                        words: 4,
                        victim,
                    },
                );
            }
            now += gap as u64;
        }
        mem.drain_all(now);
        prop_assert_eq!(mem.stats().write_words, pushed_words);
        Ok(())
    });
}

/// Quantization sanity across cycle times: the read time in *cycles*
/// never increases when the cycle time grows (Table 2's monotonicity).
#[test]
fn read_cycles_monotone_in_cycle_time() {
    check(
        "read_cycles_monotone_in_cycle_time",
        |rng| (gen_config(rng), rng.gen_range(0u32..6)),
        shrink::none,
        |(config, words_log)| {
            let words = 1u32 << words_log;
            let mut prev = u64::MAX;
            for ns in 1..200u32 {
                let t = MemoryTiming::new(config, CycleTime::from_ns(ns).unwrap());
                let cycles = t.read_time(words);
                prop_assert!(cycles <= prev);
                prev = cycles;
            }
            Ok(())
        },
    );
}

/// Elapsed nanoseconds of a read (cycles × cycle time) never falls
/// below the asynchronous component: quantization only adds time.
#[test]
fn quantization_never_loses_time() {
    check(
        "quantization_never_loses_time",
        |rng| (gen_config(rng), rng.gen_range(1u32..200)),
        shrink::none,
        |(config, ns)| {
            let ns = *ns;
            let ct = CycleTime::from_ns(ns).unwrap();
            let t = MemoryTiming::new(config, ct);
            let elapsed_ns = t.latency_cycles() * ns as u64;
            prop_assert!(elapsed_ns >= config.read_op().0);
            prop_assert!(elapsed_ns < config.read_op().0 + ns as u64);
            Ok(())
        },
    );
}

/// Metamorphic: enabling coalescing never increases the number of
/// memory write operations (it can only merge them).
#[test]
fn coalescing_never_adds_write_ops() {
    check(
        "coalescing_never_adds_write_ops",
        gen_ops,
        shrink::vec_linear,
        |ops| {
            let run = |coalesce: bool| {
                let config = MemoryConfig::builder()
                    .wb_coalesce(coalesce)
                    .build()
                    .unwrap();
                let mut mem = MemorySystem::new(&config, CycleTime::from_ns(40).unwrap());
                let mut now = 0u64;
                for &(kind, addr, gap) in ops {
                    let a = WordAddr::new(addr);
                    now = match kind {
                        0 | 1 => mem.fill(
                            now,
                            FillRequest {
                                pid: Pid(0),
                                addr: a,
                                words: 4,
                                victim: None,
                            },
                        ),
                        _ => mem.write_word(now, Pid(0), a),
                    } + gap as u64;
                }
                mem.drain_all(now);
                mem.stats().writes
            };
            prop_assert!(run(true) <= run(false));
            Ok(())
        },
    );
}

/// Metamorphic: a longer drain delay never increases write operations
/// (a longer aging window only improves merging).
#[test]
fn longer_drain_delay_never_adds_write_ops() {
    check(
        "longer_drain_delay_never_adds_write_ops",
        |rng| {
            (
                (rng.gen_range(0u64..16), rng.gen_range(1u64..64)),
                gen_ops(rng),
            )
        },
        shrink::pair_vec,
        |((d1, extra), ops)| {
            let run = |delay: u64| {
                let config = MemoryConfig::builder()
                    .wb_drain_delay(delay)
                    .build()
                    .unwrap();
                let mut mem = MemorySystem::new(&config, CycleTime::from_ns(40).unwrap());
                let mut now = 0u64;
                for &(kind, addr, gap) in ops {
                    let a = WordAddr::new(addr);
                    now = match kind {
                        0 | 1 => mem.fill(
                            now,
                            FillRequest {
                                pid: Pid(0),
                                addr: a,
                                words: 4,
                                victim: None,
                            },
                        ),
                        _ => mem.write_word(now, Pid(0), a),
                    } + gap as u64;
                }
                mem.drain_all(now);
                mem.stats().writes
            };
            prop_assert!(run(d1 + extra) <= run(*d1));
            Ok(())
        },
    );
}
