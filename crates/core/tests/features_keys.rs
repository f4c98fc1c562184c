//! Organization features and the key space: enabling a victim cache or
//! way prediction must move the behavioral trace key (the cache state
//! machines differ), while the feature-default digests must stay exactly
//! where they were before `OrgFeatures` existed — the content-addressed
//! store keyed on those values, and a silent shift would orphan every
//! cached trace.

use cachetime::{keyed, SystemConfig};
use cachetime_cache::{CacheConfig, VictimCacheConfig, WayPrediction};
use cachetime_testkit::{check, prop_assert, shrink, SplitMix64};
use cachetime_trace::catalog;
use cachetime_types::{stable_hash_of, Assoc, CacheSize, CycleTime};

/// A feature selection as plain data: victim-buffer entries and a
/// way-prediction flavor (`true` = MRU, `false` = multi-column).
type Feat = (Option<u32>, Option<bool>);

fn gen_feat(rng: &mut SplitMix64) -> Feat {
    let victim = if rng.gen_bool(0.5) {
        Some(1u32 << rng.gen_range(0u32..7))
    } else {
        None
    };
    let pred = if rng.gen_bool(0.5) {
        Some(rng.gen_bool(0.5))
    } else {
        None
    };
    (victim, pred)
}

/// An 8 KiB 2-way cache with exactly `feat` enabled — every generated
/// pair differs in nothing but its `OrgFeatures`.
fn build_l1(feat: Feat) -> CacheConfig {
    let mut b = CacheConfig::builder(CacheSize::from_kib(8).unwrap());
    b.assoc(Assoc::new(2).unwrap());
    if let Some(entries) = feat.0 {
        b.victim_cache(VictimCacheConfig::new(entries).unwrap());
    }
    if let Some(mru) = feat.1 {
        b.way_prediction(if mru {
            WayPrediction::Mru
        } else {
            WayPrediction::MultiColumn
        });
    }
    b.build().unwrap()
}

/// Two organizations that differ only in their feature selection must
/// never share a trace key: the recorded event streams are products of
/// different state machines.
#[test]
fn orgs_differing_only_in_features_get_distinct_trace_keys() {
    check(
        "orgs_differing_only_in_features_get_distinct_trace_keys",
        |rng| loop {
            let a = gen_feat(rng);
            let b = gen_feat(rng);
            if a != b {
                return (a, b);
            }
        },
        shrink::none,
        |&(fa, fb)| {
            let org_a = SystemConfig::builder()
                .l1_both(build_l1(fa))
                .build()
                .unwrap()
                .organization();
            let org_b = SystemConfig::builder()
                .l1_both(build_l1(fb))
                .build()
                .unwrap()
                .organization();
            let w = catalog::mu3(0.01);
            prop_assert!(
                keyed::trace_key(&org_a, &w) != keyed::trace_key(&org_b, &w),
                "features {fa:?} vs {fb:?} collided"
            );
            Ok(())
        },
    );
}

/// The replay-side penalty knobs are timing, not organization: varying
/// them must leave the trace key alone, exactly like a cycle-time change.
#[test]
fn timing_penalty_knobs_never_move_the_trace_key() {
    check(
        "timing_penalty_knobs_never_move_the_trace_key",
        |rng| {
            (
                gen_feat(rng),
                rng.gen_range(0u64..8),
                rng.gen_range(0u64..8),
            )
        },
        shrink::none,
        |&(feat, way_slow, swap)| {
            let l1 = build_l1(feat);
            let base = SystemConfig::builder().l1_both(l1).build().unwrap();
            let priced = SystemConfig::builder()
                .l1_both(l1)
                .way_slow_hit_cycles(way_slow)
                .victim_swap_cycles(swap)
                .build()
                .unwrap();
            let w = catalog::savec(0.01);
            prop_assert!(
                keyed::trace_key(&base.organization(), &w)
                    == keyed::trace_key(&priced.organization(), &w),
                "penalty cycles leaked into the organization key"
            );
            Ok(())
        },
    );
}

/// Feature-default digests, captured from the tree immediately before
/// `OrgFeatures` and the penalty knobs landed. The conditional hash
/// extensions must keep every one of these bit-for-bit — they are the
/// addresses of previously recorded traces.
#[test]
fn feature_default_digests_match_the_pre_feature_goldens() {
    let l1 = CacheConfig::builder(CacheSize::from_kib(64).unwrap())
        .build()
        .unwrap();
    assert_eq!(stable_hash_of(&l1), 0x16c01cda9abaa424);

    let config = SystemConfig::builder()
        .l1_both(l1)
        .cycle_time(CycleTime::from_ns(40).unwrap())
        .build()
        .unwrap();
    assert_eq!(stable_hash_of(&config), 0x61c1bcaacec48f03);
    assert_eq!(stable_hash_of(&config.organization()), 0xd556d69318738532);
    assert_eq!(stable_hash_of(&config.timing()), 0x432545879fc60c18);

    for (kib, golden) in [
        (2u64, 0xfb3870d763c6d4b9u64),
        (16, 0xc34eaeca9dde22e5),
        (64, 0xd556d69318738532),
        (256, 0x5103b2946338b43d),
        (2048, 0x0acf3f7110265ca4),
    ] {
        let sized = CacheConfig::builder(CacheSize::from_kib(kib).unwrap())
            .build()
            .unwrap();
        let org = SystemConfig::builder()
            .l1_both(sized)
            .cycle_time(CycleTime::from_ns(40).unwrap())
            .build()
            .unwrap()
            .organization();
        assert_eq!(stable_hash_of(&org), golden, "{kib} KiB organization");
    }

    assert_eq!(
        keyed::trace_key(&config.organization(), &catalog::mu3(0.01)),
        0x8959a52dc39d0b6a
    );
    assert_eq!(
        keyed::trace_key(&config.organization(), &catalog::savec(0.01)),
        0x50b5c19568470659
    );
}

/// The flip side of the golden test: enabling a feature MUST move the
/// organization digest, and a non-default penalty MUST move the timing
/// digest — otherwise distinct machines would collide in the store.
#[test]
fn enabled_features_and_penalties_move_their_halves() {
    let plain = SystemConfig::builder().build().unwrap();

    let victim_l1 = CacheConfig::builder(CacheSize::from_kib(64).unwrap())
        .victim_cache(VictimCacheConfig::new(8).unwrap())
        .build()
        .unwrap();
    let victim = SystemConfig::builder().l1_both(victim_l1).build().unwrap();
    assert_ne!(
        stable_hash_of(&plain.organization()),
        stable_hash_of(&victim.organization())
    );

    let priced = SystemConfig::builder()
        .victim_swap_cycles(3)
        .build()
        .unwrap();
    assert_ne!(
        stable_hash_of(&plain.timing()),
        stable_hash_of(&priced.timing())
    );
    let slow = SystemConfig::builder()
        .way_slow_hit_cycles(2)
        .build()
        .unwrap();
    assert_ne!(
        stable_hash_of(&plain.timing()),
        stable_hash_of(&slow.timing())
    );
}
