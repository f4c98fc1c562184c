//! Cache configuration and validation.

use crate::features::{OrgFeatures, VictimCacheConfig, WayPrediction};
use crate::replacement::ReplacementPolicy;
use cachetime_types::{Assoc, BlockWords, CacheSize, ConfigError, StableHash, StableHasher};
use std::fmt;

/// The write strategy of a cache.
///
/// The paper's default data cache is write-back; write-through is provided
/// for comparison studies (a write-through cache sends every write to the
/// next level, so its blocks are never dirty).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Writes mark the block dirty; memory is updated only on replacement.
    #[default]
    WriteBack,
    /// Every write is propagated to the next level immediately.
    WriteThrough,
}

impl fmt::Display for WritePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WritePolicy::WriteBack => "write-back",
            WritePolicy::WriteThrough => "write-through",
        })
    }
}

/// Whether a write miss allocates a block in the cache.
///
/// The paper's default does *no* fetch on a write miss: the write goes
/// around the cache, through the write buffer, to the next level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WriteAllocate {
    /// Write misses bypass the cache entirely.
    #[default]
    NoAllocate,
    /// Write misses fetch the block and then write into it.
    Allocate,
}

impl fmt::Display for WriteAllocate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WriteAllocate::NoAllocate => "no-write-allocate",
            WriteAllocate::Allocate => "write-allocate",
        })
    }
}

/// A complete organizational description of one cache.
///
/// Construct via [`CacheConfig::builder`] or one of the paper-default
/// constructors. All parameters are validated together, so a held
/// `CacheConfig` is always internally consistent (at least one set,
/// fetch size no larger than the block, etc.).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    size: CacheSize,
    block: BlockWords,
    fetch: BlockWords,
    assoc: Assoc,
    replacement: ReplacementPolicy,
    write_policy: WritePolicy,
    write_allocate: WriteAllocate,
    virtual_tags: bool,
    rng_seed: u64,
    features: OrgFeatures,
}

impl CacheConfig {
    /// Starts building a configuration of the given data capacity.
    ///
    /// # Examples
    ///
    /// ```
    /// use cachetime_cache::CacheConfig;
    /// use cachetime_types::{Assoc, CacheSize};
    ///
    /// let config = CacheConfig::builder(CacheSize::from_kib(16)?)
    ///     .assoc(Assoc::new(2)?)
    ///     .build()?;
    /// assert_eq!(config.sets(), 512);
    /// # Ok::<(), cachetime_types::ConfigError>(())
    /// ```
    pub fn builder(size: CacheSize) -> CacheConfigBuilder {
        CacheConfigBuilder {
            size,
            block: None,
            fetch: None,
            assoc: Assoc::DIRECT,
            replacement: ReplacementPolicy::Random,
            write_policy: WritePolicy::WriteBack,
            write_allocate: WriteAllocate::NoAllocate,
            virtual_tags: true,
            rng_seed: 0x5eed_cace,
            features: OrgFeatures::NONE,
        }
    }

    /// The paper's default data cache: 64 KB, direct-mapped, 4-word blocks,
    /// write-back with no allocation on write miss, virtual tags.
    ///
    /// # Errors
    ///
    /// Never fails in practice; the `Result` mirrors [`CacheConfigBuilder::build`].
    pub fn paper_default_data() -> Result<Self, ConfigError> {
        Self::builder(CacheSize::from_kib(64)?).build()
    }

    /// The paper's default instruction cache. Organizationally identical to
    /// the data cache; writes never reach it.
    ///
    /// # Errors
    ///
    /// Never fails in practice; the `Result` mirrors [`CacheConfigBuilder::build`].
    pub fn paper_default_instruction() -> Result<Self, ConfigError> {
        Self::paper_default_data()
    }

    /// Returns the data capacity.
    pub const fn size(&self) -> CacheSize {
        self.size
    }

    /// Returns the block (line) size in words.
    pub const fn block(&self) -> BlockWords {
        self.block
    }

    /// Returns the fetch (sub-block transfer) size in words.
    pub const fn fetch(&self) -> BlockWords {
        self.fetch
    }

    /// Returns the degree of associativity.
    pub const fn assoc(&self) -> Assoc {
        self.assoc
    }

    /// Returns the replacement policy.
    pub const fn replacement(&self) -> ReplacementPolicy {
        self.replacement
    }

    /// Returns the write strategy.
    pub const fn write_policy(&self) -> WritePolicy {
        self.write_policy
    }

    /// Returns the write-miss allocation policy.
    pub const fn write_allocate(&self) -> WriteAllocate {
        self.write_allocate
    }

    /// Returns `true` if tags include the process identifier (virtual cache).
    pub const fn virtual_tags(&self) -> bool {
        self.virtual_tags
    }

    /// Returns the seed used by randomized replacement.
    pub const fn rng_seed(&self) -> u64 {
        self.rng_seed
    }

    /// Returns the optional organization features (victim cache, way
    /// prediction). [`OrgFeatures::NONE`] for plain configurations.
    pub const fn features(&self) -> OrgFeatures {
        self.features
    }

    /// Returns the total number of blocks.
    pub const fn blocks(&self) -> u64 {
        self.size.blocks(self.block)
    }

    /// Returns the number of sets (`blocks / ways`).
    pub const fn sets(&self) -> u64 {
        self.blocks() / self.assoc.ways() as u64
    }

    /// Returns `true` when misses fetch only part of a block (sub-block
    /// placement), which requires per-word valid bits.
    pub const fn is_sub_block(&self) -> bool {
        self.fetch.words() < self.block.words()
    }
}

impl StableHash for WritePolicy {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(match self {
            WritePolicy::WriteBack => 0,
            WritePolicy::WriteThrough => 1,
        });
    }
}

impl StableHash for WriteAllocate {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(match self {
            WriteAllocate::NoAllocate => 0,
            WriteAllocate::Allocate => 1,
        });
    }
}

impl StableHash for ReplacementPolicy {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(match self {
            ReplacementPolicy::Random => 0,
            ReplacementPolicy::Lru => 1,
            ReplacementPolicy::Fifo => 2,
            ReplacementPolicy::TreePlru => 3,
        });
    }
}

impl StableHash for CacheConfig {
    /// Every field participates — including `rng_seed`, because random
    /// replacement makes the victim sequence (and therefore any recorded
    /// event trace) a function of the seed.
    ///
    /// Organization features are hashed as a *conditional extension*:
    /// they contribute nothing when every feature is disabled, so
    /// feature-free configs keep the exact digests they had before
    /// features existed (the golden-digest tests in
    /// `crates/core/tests/` pin this).
    fn stable_hash(&self, h: &mut StableHasher) {
        self.size.stable_hash(h);
        self.block.stable_hash(h);
        self.fetch.stable_hash(h);
        self.assoc.stable_hash(h);
        self.replacement.stable_hash(h);
        self.write_policy.stable_hash(h);
        self.write_allocate.stable_hash(h);
        self.virtual_tags.stable_hash(h);
        self.rng_seed.stable_hash(h);
        if !self.features.is_none() {
            self.features.stable_hash(h);
        }
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} blocks, {}, {}",
            self.size, self.assoc, self.block, self.write_policy, self.write_allocate
        )?;
        if !self.features.is_none() {
            write!(f, ", {}", self.features)?;
        }
        Ok(())
    }
}

/// Incremental builder for [`CacheConfig`].
///
/// Created by [`CacheConfig::builder`]; every setter has the paper's default
/// value, so `CacheConfig::builder(size).build()` yields the default
/// organization at that size.
#[derive(Debug, Clone)]
pub struct CacheConfigBuilder {
    size: CacheSize,
    block: Option<BlockWords>,
    fetch: Option<BlockWords>,
    assoc: Assoc,
    replacement: ReplacementPolicy,
    write_policy: WritePolicy,
    write_allocate: WriteAllocate,
    virtual_tags: bool,
    rng_seed: u64,
    features: OrgFeatures,
}

impl CacheConfigBuilder {
    /// Sets the block (line) size. Default: 4 words.
    pub fn block(&mut self, block: BlockWords) -> &mut Self {
        self.block = Some(block);
        self
    }

    /// Sets the fetch size (amount brought in on a miss). Default: the block
    /// size, i.e. whole-block fetching as in all the paper's experiments.
    pub fn fetch(&mut self, fetch: BlockWords) -> &mut Self {
        self.fetch = Some(fetch);
        self
    }

    /// Sets the associativity. Default: direct mapped.
    pub fn assoc(&mut self, assoc: Assoc) -> &mut Self {
        self.assoc = assoc;
        self
    }

    /// Sets the replacement policy. Default: random (as in the paper's
    /// associativity study).
    pub fn replacement(&mut self, replacement: ReplacementPolicy) -> &mut Self {
        self.replacement = replacement;
        self
    }

    /// Sets the write strategy. Default: write-back.
    pub fn write_policy(&mut self, policy: WritePolicy) -> &mut Self {
        self.write_policy = policy;
        self
    }

    /// Sets the write-miss allocation policy. Default: no allocate.
    pub fn write_allocate(&mut self, allocate: WriteAllocate) -> &mut Self {
        self.write_allocate = allocate;
        self
    }

    /// Chooses virtual (PID-tagged) or physical tags. Default: virtual, as
    /// in all the paper's simulations.
    pub fn virtual_tags(&mut self, virtual_tags: bool) -> &mut Self {
        self.virtual_tags = virtual_tags;
        self
    }

    /// Sets the seed for randomized replacement, for reproducible runs.
    pub fn rng_seed(&mut self, seed: u64) -> &mut Self {
        self.rng_seed = seed;
        self
    }

    /// Attaches a victim buffer behind the cache. Default: none.
    ///
    /// Victim caching requires whole-block fetching (`fetch == block`);
    /// [`build`](Self::build) rejects the combination with sub-block
    /// placement because a victim entry always holds a full block.
    pub fn victim_cache(&mut self, victim: VictimCacheConfig) -> &mut Self {
        self.features = self.features.with_victim_cache(victim);
        self
    }

    /// Enables way prediction for read lookups. Default: none.
    ///
    /// Prediction only makes sense for set-associative caches;
    /// [`build`](Self::build) rejects it on a direct-mapped
    /// configuration.
    pub fn way_prediction(&mut self, prediction: WayPrediction) -> &mut Self {
        self.features = self.features.with_way_prediction(prediction);
        self
    }

    /// Replaces the whole feature set at once (useful when copying
    /// features from another configuration).
    pub fn features(&mut self, features: OrgFeatures) -> &mut Self {
        self.features = features;
        self
    }

    /// Validates the combination and produces the configuration.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::Inconsistent`] if the cache cannot hold even one
    ///   full set (`size < assoc × block`), or if the fetch size exceeds
    ///   the block size.
    /// * [`ConfigError::OutOfRange`] if the block exceeds
    ///   [`MAX_BLOCK_WORDS`](crate::MAX_BLOCK_WORDS) words.
    pub fn build(&self) -> Result<CacheConfig, ConfigError> {
        let block = match self.block {
            Some(b) => b,
            None => BlockWords::new(4)?,
        };
        let fetch = self.fetch.unwrap_or(block);
        if block.words() > crate::MAX_BLOCK_WORDS {
            return Err(ConfigError::OutOfRange {
                what: "block size (words)",
                value: block.words() as u64,
                min: 1,
                max: crate::MAX_BLOCK_WORDS as u64,
            });
        }
        if fetch.words() > block.words() {
            return Err(ConfigError::Inconsistent {
                what: "fetch size larger than block size",
            });
        }
        let blocks = self.size.blocks(block);
        if blocks < self.assoc.ways() as u64 {
            return Err(ConfigError::Inconsistent {
                what: "cache smaller than one set (size < assoc * block)",
            });
        }
        if self.features.victim_cache().is_some() && fetch.words() < block.words() {
            return Err(ConfigError::Inconsistent {
                what: "victim cache requires whole-block fetch (fetch == block)",
            });
        }
        if self.features.way_prediction().is_some() && self.assoc.ways() < 2 {
            return Err(ConfigError::Inconsistent {
                what: "way prediction requires a set-associative cache (assoc >= 2)",
            });
        }
        Ok(CacheConfig {
            size: self.size,
            block,
            fetch,
            assoc: self.assoc,
            replacement: self.replacement,
            write_policy: self.write_policy,
            write_allocate: self.write_allocate,
            virtual_tags: self.virtual_tags,
            rng_seed: self.rng_seed,
            features: self.features,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_2() {
        let c = CacheConfig::paper_default_data().unwrap();
        assert_eq!(c.size().kib(), 64);
        assert_eq!(c.block().words(), 4);
        assert_eq!(c.fetch().words(), 4);
        assert!(c.assoc().is_direct());
        assert_eq!(c.blocks(), 4096);
        assert_eq!(c.sets(), 4096);
        assert_eq!(c.write_policy(), WritePolicy::WriteBack);
        assert_eq!(c.write_allocate(), WriteAllocate::NoAllocate);
        assert!(c.virtual_tags());
        assert!(!c.is_sub_block());
    }

    #[test]
    fn sets_halve_as_associativity_doubles() {
        let size = CacheSize::from_kib(64).unwrap();
        let mut prev_sets = None;
        for ways in [1u32, 2, 4, 8] {
            let c = CacheConfig::builder(size)
                .assoc(Assoc::new(ways).unwrap())
                .build()
                .unwrap();
            assert_eq!(c.blocks(), 4096, "total blocks constant");
            if let Some(p) = prev_sets {
                assert_eq!(c.sets() * 2, p);
            }
            prev_sets = Some(c.sets());
        }
    }

    #[test]
    fn rejects_cache_smaller_than_one_set() {
        let size = CacheSize::from_bytes(64).unwrap(); // 16 words
        let r = CacheConfig::builder(size)
            .assoc(Assoc::new(8).unwrap())
            .block(BlockWords::new(4).unwrap())
            .build();
        assert!(matches!(r, Err(ConfigError::Inconsistent { .. })));
    }

    #[test]
    fn rejects_fetch_larger_than_block() {
        let size = CacheSize::from_kib(4).unwrap();
        let r = CacheConfig::builder(size)
            .block(BlockWords::new(4).unwrap())
            .fetch(BlockWords::new(8).unwrap())
            .build();
        assert!(matches!(r, Err(ConfigError::Inconsistent { .. })));
    }

    #[test]
    fn rejects_oversized_block() {
        let size = CacheSize::from_kib(64).unwrap();
        let r = CacheConfig::builder(size)
            .block(BlockWords::new(512).unwrap())
            .build();
        assert!(matches!(r, Err(ConfigError::OutOfRange { .. })));
    }

    #[test]
    fn sub_block_detection() {
        let size = CacheSize::from_kib(4).unwrap();
        let c = CacheConfig::builder(size)
            .block(BlockWords::new(8).unwrap())
            .fetch(BlockWords::new(4).unwrap())
            .build()
            .unwrap();
        assert!(c.is_sub_block());
    }

    #[test]
    fn display_mentions_key_parameters() {
        let c = CacheConfig::paper_default_data().unwrap();
        let s = c.to_string();
        assert!(s.contains("64KB"));
        assert!(s.contains("4W"));
        assert!(s.contains("write-back"));
        assert!(!s.contains("victim"), "no feature suffix when disabled");
    }

    #[test]
    fn display_mentions_enabled_features() {
        let c = CacheConfig::builder(CacheSize::from_kib(16).unwrap())
            .assoc(Assoc::new(2).unwrap())
            .victim_cache(VictimCacheConfig::new(8).unwrap())
            .way_prediction(WayPrediction::Mru)
            .build()
            .unwrap();
        let s = c.to_string();
        assert!(s.contains("victim:8"), "{s}");
        assert!(s.contains("way-pred:mru"), "{s}");
    }

    #[test]
    fn rejects_victim_cache_with_sub_block_fetch() {
        let r = CacheConfig::builder(CacheSize::from_kib(4).unwrap())
            .block(BlockWords::new(8).unwrap())
            .fetch(BlockWords::new(4).unwrap())
            .victim_cache(VictimCacheConfig::new(4).unwrap())
            .build();
        assert!(matches!(r, Err(ConfigError::Inconsistent { .. })));
    }

    #[test]
    fn rejects_way_prediction_on_direct_mapped() {
        let r = CacheConfig::builder(CacheSize::from_kib(4).unwrap())
            .way_prediction(WayPrediction::Mru)
            .build();
        assert!(matches!(r, Err(ConfigError::Inconsistent { .. })));
    }

    #[test]
    fn features_extend_the_stable_hash_only_when_enabled() {
        use cachetime_types::stable_hash_of;
        let size = CacheSize::from_kib(16).unwrap();
        let plain = CacheConfig::builder(size)
            .assoc(Assoc::new(2).unwrap())
            .build()
            .unwrap();
        let with = CacheConfig::builder(size)
            .assoc(Assoc::new(2).unwrap())
            .way_prediction(WayPrediction::MultiColumn)
            .build()
            .unwrap();
        assert_ne!(stable_hash_of(&plain), stable_hash_of(&with));
        // An explicitly-set empty feature struct is the same as never
        // touching features at all.
        let explicit = CacheConfig::builder(size)
            .assoc(Assoc::new(2).unwrap())
            .features(OrgFeatures::NONE)
            .build()
            .unwrap();
        assert_eq!(stable_hash_of(&plain), stable_hash_of(&explicit));
    }
}
