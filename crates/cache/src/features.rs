//! Composable organization features layered on top of a [`CacheConfig`].
//!
//! A plain `CacheConfig` describes the fixed geometry of a cache: size,
//! block, associativity, write policy. The paper's §4 tradeoff study
//! also needs *organization features* that change the lookup path
//! without changing the geometry — a small fully-associative victim
//! buffer behind the cache, and way prediction in front of a
//! set-associative array. These are behavioral: they change which
//! accesses hit, miss, or hit slowly, so Phase A of the two-phase
//! engine must key on them (see `cachetime::keyed::trace_key`).
//!
//! [`OrgFeatures`] is deliberately a separate struct rather than more
//! fields on `CacheConfig`: the default (`OrgFeatures::NONE`) hashes to
//! *nothing* — a config with every feature disabled produces exactly
//! the stable digests and event traces it produced before features
//! existed.

use std::fmt;

use cachetime_types::{ConfigError, StableHash, StableHasher};

/// Largest supported victim-cache entry count.
pub const MAX_VICTIM_ENTRIES: u32 = 64;

/// A small fully-associative FIFO buffer that captures blocks evicted
/// from the cache; misses probe it before going downstream, and a hit
/// swaps the block back without a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VictimCacheConfig {
    entries: u32,
}

impl VictimCacheConfig {
    /// A victim buffer holding `entries` blocks.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfRange`] unless `1 <= entries <=`
    /// [`MAX_VICTIM_ENTRIES`].
    pub fn new(entries: u32) -> Result<Self, ConfigError> {
        if entries == 0 || entries > MAX_VICTIM_ENTRIES {
            return Err(ConfigError::OutOfRange {
                what: "victim cache entries",
                value: u64::from(entries),
                min: 1,
                max: u64::from(MAX_VICTIM_ENTRIES),
            });
        }
        Ok(Self { entries })
    }

    /// Number of blocks the buffer holds.
    pub const fn entries(self) -> u32 {
        self.entries
    }
}

/// Which way-prediction scheme guards a set-associative lookup.
///
/// Prediction never changes what hits or misses — it splits read hits
/// into *first hits* (predicted way was right, direct-mapped-speed) and
/// *slow hits* (wrong way predicted, a second probe round is needed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WayPrediction {
    /// Predict the most-recently-used way of the set.
    Mru,
    /// Multi-column: a per-set table indexed by low tag bits, so
    /// different blocks mapping to one set can each keep their own
    /// predicted ("major") way.
    MultiColumn,
}

impl WayPrediction {
    const fn hash_tag(self) -> u64 {
        match self {
            WayPrediction::Mru => 0,
            WayPrediction::MultiColumn => 1,
        }
    }
}

impl fmt::Display for WayPrediction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WayPrediction::Mru => f.write_str("mru"),
            WayPrediction::MultiColumn => f.write_str("multi-column"),
        }
    }
}

/// Optional organization features attached to a [`CacheConfig`].
///
/// The default is everything off, which is behaviorally and
/// hash-identical to a config from before features existed.
///
/// [`CacheConfig`]: crate::CacheConfig
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OrgFeatures {
    victim_cache: Option<VictimCacheConfig>,
    way_prediction: Option<WayPrediction>,
}

impl OrgFeatures {
    /// Every feature disabled.
    pub const NONE: Self = Self {
        victim_cache: None,
        way_prediction: None,
    };

    /// The victim buffer, if enabled.
    pub const fn victim_cache(self) -> Option<VictimCacheConfig> {
        self.victim_cache
    }

    /// The way-prediction scheme, if enabled.
    pub const fn way_prediction(self) -> Option<WayPrediction> {
        self.way_prediction
    }

    /// True when every feature is disabled.
    pub const fn is_none(self) -> bool {
        self.victim_cache.is_none() && self.way_prediction.is_none()
    }

    pub(crate) const fn with_victim_cache(mut self, v: VictimCacheConfig) -> Self {
        self.victim_cache = Some(v);
        self
    }

    pub(crate) const fn with_way_prediction(mut self, p: WayPrediction) -> Self {
        self.way_prediction = Some(p);
        self
    }
}

impl StableHash for OrgFeatures {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self.victim_cache {
            None => h.write_u64(0),
            Some(v) => {
                h.write_u64(1);
                h.write_u64(u64::from(v.entries()));
            }
        }
        match self.way_prediction {
            None => h.write_u64(0),
            Some(p) => {
                h.write_u64(1);
                h.write_u64(p.hash_tag());
            }
        }
    }
}

impl fmt::Display for OrgFeatures {
    /// Renders only enabled features, e.g. `victim:8, way-pred:mru`.
    /// Empty when everything is off.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        if let Some(v) = self.victim_cache {
            write!(f, "victim:{}", v.entries())?;
            sep = ", ";
        }
        if let Some(p) = self.way_prediction {
            write!(f, "{sep}way-pred:{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachetime_types::stable_hash_of;

    #[test]
    fn victim_entries_range() {
        assert!(VictimCacheConfig::new(0).is_err());
        assert!(VictimCacheConfig::new(1).is_ok());
        assert!(VictimCacheConfig::new(MAX_VICTIM_ENTRIES).is_ok());
        assert!(VictimCacheConfig::new(MAX_VICTIM_ENTRIES + 1).is_err());
    }

    #[test]
    fn default_is_none() {
        assert_eq!(OrgFeatures::default(), OrgFeatures::NONE);
        assert!(OrgFeatures::NONE.is_none());
        assert!(!OrgFeatures::NONE
            .with_victim_cache(VictimCacheConfig::new(4).unwrap())
            .is_none());
    }

    #[test]
    fn distinct_features_hash_distinct() {
        let none = OrgFeatures::NONE;
        let v4 = none.with_victim_cache(VictimCacheConfig::new(4).unwrap());
        let v8 = none.with_victim_cache(VictimCacheConfig::new(8).unwrap());
        let mru = none.with_way_prediction(WayPrediction::Mru);
        let mc = none.with_way_prediction(WayPrediction::MultiColumn);
        let all = [none, v4, v8, mru, mc, v4.with_way_prediction(WayPrediction::Mru)];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(stable_hash_of(a), stable_hash_of(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn display_renders_enabled_features_only() {
        assert_eq!(OrgFeatures::NONE.to_string(), "");
        let both = OrgFeatures::NONE
            .with_victim_cache(VictimCacheConfig::new(8).unwrap())
            .with_way_prediction(WayPrediction::MultiColumn);
        assert_eq!(both.to_string(), "victim:8, way-pred:multi-column");
        assert_eq!(
            OrgFeatures::NONE
                .with_way_prediction(WayPrediction::Mru)
                .to_string(),
            "way-pred:mru"
        );
    }
}
