//! Whole-system configuration: CPU clock, cache hierarchy, main memory.

use cachetime_cache::CacheConfig;
use cachetime_mem::{MemoryConfig, MemoryCycles};
use cachetime_mmu::TranslationConfig;
use cachetime_types::{stable_hash_of, ConfigError, CycleTime, StableHash, StableHasher};
use std::fmt;

/// Configuration of an optional second-level cache.
///
/// The paper's section 6 argues that once technology scaling outpaces main
/// memory, "the only way to deliver a consistent proportion of the peak CPU
/// performance is through the use of a multilevel cache hierarchy": an L2
/// shrinks the L1 miss penalty, which in turn shrinks the optimal L1 and
/// lets the cycle time come back down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LevelTwoConfig {
    /// Organization of the (unified) second-level cache.
    pub cache: CacheConfig,
    /// Cycles for an L2 array access servicing an L1 miss (tag + data,
    /// before the block transfers back to L1). The paper's section 6 talks
    /// of a memory system "that responds in three or five … cycles".
    pub read_cycles: u64,
    /// Cycles for the L2 to absorb one buffered write.
    pub write_cycles: u64,
    /// Depth of the L1→L2 write buffer.
    pub wb_depth: u32,
}

impl LevelTwoConfig {
    /// A sensible default around the given cache: 3-cycle reads, 2-cycle
    /// writes, a 4-deep write buffer.
    pub fn new(cache: CacheConfig) -> Self {
        LevelTwoConfig {
            cache,
            read_cycles: 3,
            write_cycles: 2,
            wb_depth: 4,
        }
    }
}

/// How the CPU resumes after a read-miss fill.
///
/// Section 5 lists the techniques that shrink the *effective* miss
/// penalty and notes that "they all have the effect of increasing the
/// performance optimal block size": early continuation ("allowing the
/// processor to continue once the desired word is received from memory")
/// and load forwarding ("starting the fetch from the desired word").
/// All the paper's experiments use [`FillPolicy::WaitWholeBlock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FillPolicy {
    /// The CPU waits until the whole fetch region is in the cache.
    #[default]
    WaitWholeBlock,
    /// The CPU resumes as soon as the requested word arrives; the fetch
    /// still starts at the region's first word.
    EarlyContinuation,
    /// The fetch starts at the requested word (wrap-around fill), so the
    /// CPU resumes after a single word's transfer time.
    LoadForward,
}

/// A complete simulated machine.
///
/// Build with [`SystemConfig::paper_default`] (the machine of the paper's
/// section 2) or [`SystemConfig::builder`]. The uniform assumption of the
/// paper applies: *the system cycle time is determined by the cache*, so
/// [`cycle_time`](Self::cycle_time) is the one clock everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    cycle_time: CycleTime,
    l1i: CacheConfig,
    l1d: CacheConfig,
    split: bool,
    l2: Option<LevelTwoConfig>,
    l3: Option<LevelTwoConfig>,
    memory: MemoryConfig,
    translation: Option<TranslationConfig>,
    read_hit_cycles: u64,
    write_hit_cycles: u64,
    dual_issue: bool,
    fill_policy: FillPolicy,
    way_slow_hit_cycles: u64,
    victim_swap_cycles: u64,
}

impl SystemConfig {
    /// The paper's default machine: 40 ns clock, split 64 KB I/D caches
    /// (direct-mapped, 4-word blocks, write-back, no-write-allocate,
    /// virtual tags), 1-cycle read hits, 2-cycle writes, the default
    /// memory, no L2.
    ///
    /// # Errors
    ///
    /// Never fails in practice; the `Result` mirrors the builder.
    pub fn paper_default() -> Result<Self, ConfigError> {
        Self::builder().build()
    }

    /// Starts a builder initialized to the paper's default machine.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder {
            cycle_time: None,
            l1i: None,
            l1d: None,
            split: true,
            l2: None,
            l3: None,
            memory: MemoryConfig::paper_default(),
            translation: None,
            read_hit_cycles: 1,
            write_hit_cycles: 2,
            dual_issue: true,
            fill_policy: FillPolicy::WaitWholeBlock,
            way_slow_hit_cycles: 1,
            victim_swap_cycles: 1,
        }
    }

    /// The CPU/cache clock period.
    pub const fn cycle_time(&self) -> CycleTime {
        self.cycle_time
    }

    /// The instruction-cache organization (equal to the data cache when the
    /// system is unified).
    pub const fn l1i(&self) -> &CacheConfig {
        &self.l1i
    }

    /// The data-cache organization.
    pub const fn l1d(&self) -> &CacheConfig {
        &self.l1d
    }

    /// `true` for a Harvard (split I/D) organization, `false` for a single
    /// unified cache serving all references serially.
    pub const fn is_split(&self) -> bool {
        self.split
    }

    /// The optional second level.
    pub const fn l2(&self) -> Option<&LevelTwoConfig> {
        self.l2.as_ref()
    }

    /// The optional third level (requires an L2). "Designing a second
    /// cache between the CPU/cache and main memory poses the same set of
    /// questions as the first level of caching" — and so does a third.
    pub const fn l3(&self) -> Option<&LevelTwoConfig> {
        self.l3.as_ref()
    }

    /// Whether the CPU issues instruction+data couplets in parallel
    /// (the paper's pipelined model) or serializes the two references.
    pub const fn dual_issue(&self) -> bool {
        self.dual_issue
    }

    /// The main-memory configuration.
    pub const fn memory(&self) -> &MemoryConfig {
        &self.memory
    }

    /// The translation layer, if any. `None` (the paper's choice) means
    /// *virtual* caches: untranslated addresses, PIDs in the tags.
    /// `Some(..)` places an MMU in front of the hierarchy, making every
    /// cache physically addressed.
    pub const fn translation(&self) -> Option<&TranslationConfig> {
        self.translation.as_ref()
    }

    /// Cycles for a read hit (1 in the paper).
    pub const fn read_hit_cycles(&self) -> u64 {
        self.read_hit_cycles
    }

    /// Cycles for a write (2 in the paper: tag access, then data write).
    pub const fn write_hit_cycles(&self) -> u64 {
        self.write_hit_cycles
    }

    /// Extra cycles a way-predicted read hit pays when the block is in a
    /// way other than the predicted one (the second probe round).
    /// Default 1.
    pub const fn way_slow_hit_cycles(&self) -> u64 {
        self.way_slow_hit_cycles
    }

    /// Extra cycles a victim-buffer hit pays to swap the block back into
    /// the set. Default 1.
    pub const fn victim_swap_cycles(&self) -> u64 {
        self.victim_swap_cycles
    }

    /// Whether the CPU resumes as soon as the *requested* word arrives on a
    /// fill, instead of waiting for the whole block (true for both
    /// [`FillPolicy::EarlyContinuation`] and [`FillPolicy::LoadForward`]).
    pub const fn early_continuation(&self) -> bool {
        !matches!(self.fill_policy, FillPolicy::WaitWholeBlock)
    }

    /// The read-miss resumption policy.
    pub const fn fill_policy(&self) -> FillPolicy {
        self.fill_policy
    }

    /// Sum of the data capacities at the first level — the paper's
    /// "Total L1 Size" axis.
    pub fn total_l1_bytes(&self) -> u64 {
        if self.split {
            self.l1i.size().bytes() + self.l1d.size().bytes()
        } else {
            self.l1d.size().bytes()
        }
    }

    /// The timing-free *organization* half of the configuration: everything
    /// that determines cache and TLB behavior (hits, misses, victims,
    /// walks) — and therefore an event trace — independent of any clock.
    pub const fn organization(&self) -> OrgConfig {
        OrgConfig {
            l1i: self.l1i,
            l1d: self.l1d,
            split: self.split,
            translation: self.translation,
        }
    }

    /// The *timing* half of the configuration: the clock, the memory, the
    /// mid-level caches with their ports and buffers, the hit costs, and
    /// the issue/fill policies. An event trace recorded from one
    /// organization can be repriced under any timing half.
    pub const fn timing(&self) -> TimingConfig {
        TimingConfig {
            cycle_time: self.cycle_time,
            l2: self.l2,
            l3: self.l3,
            memory: self.memory,
            read_hit_cycles: self.read_hit_cycles,
            write_hit_cycles: self.write_hit_cycles,
            dual_issue: self.dual_issue,
            fill_policy: self.fill_policy,
            way_slow_hit_cycles: self.way_slow_hit_cycles,
            victim_swap_cycles: self.victim_swap_cycles,
        }
    }

    /// The timing half quantized at the cycle time: everything the machine
    /// below the first-level caches can observe. See [`CycleTiming`].
    pub fn cycle_timing(&self) -> CycleTiming {
        CycleTiming {
            read_hit_cycles: self.read_hit_cycles,
            write_hit_cycles: self.write_hit_cycles,
            way_slow_hit_cycles: self.way_slow_hit_cycles,
            victim_swap_cycles: self.victim_swap_cycles,
            dual_issue: self.dual_issue,
            fill_policy: self.fill_policy,
            l2: self.l2,
            l3: self.l3,
            memory: MemoryCycles::new(&self.memory, self.cycle_time),
        }
    }

    /// Reassembles a full configuration from an organization and a timing
    /// half, re-running the cross-field validation.
    ///
    /// # Errors
    ///
    /// The same [`ConfigError`]s as [`SystemConfigBuilder::build`] (e.g. an
    /// L2 block smaller than the organization's L1 blocks).
    pub fn from_parts(org: &OrgConfig, timing: &TimingConfig) -> Result<Self, ConfigError> {
        let mut b = Self::builder();
        b.cycle_time(timing.cycle_time)
            .l1i(org.l1i)
            .l1d(org.l1d)
            .unified(!org.split)
            .memory(timing.memory)
            .read_hit_cycles(timing.read_hit_cycles)
            .write_hit_cycles(timing.write_hit_cycles)
            .dual_issue(timing.dual_issue)
            .fill_policy(timing.fill_policy)
            .way_slow_hit_cycles(timing.way_slow_hit_cycles)
            .victim_swap_cycles(timing.victim_swap_cycles);
        if let Some(t) = org.translation {
            b.translation(t);
        }
        if let Some(l2) = timing.l2 {
            b.l2(l2);
        }
        if let Some(l3) = timing.l3 {
            b.l3(l3);
        }
        b.build()
    }
}

/// The timing-free half of a [`SystemConfig`]: the first-level cache
/// organizations and the (optional) translation layer.
///
/// Two systems with equal `OrgConfig`s run the *same behavior* over a
/// trace — identical hit/miss/victim/walk sequences — no matter how their
/// clocks, memories, or lower levels differ. This is the key the two-phase
/// engine sorts by: one behavioral pass per organization, one cheap timing
/// replay per grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrgConfig {
    l1i: CacheConfig,
    l1d: CacheConfig,
    split: bool,
    translation: Option<TranslationConfig>,
}

impl OrgConfig {
    /// The stable 64-bit content key of this organization — equal keys iff
    /// equal organizations, across processes and platforms. The simulation
    /// server addresses recorded event traces by this value (combined with
    /// the workload's own hash).
    pub fn stable_key(&self) -> u64 {
        stable_hash_of(self)
    }

    /// The instruction-cache organization.
    pub const fn l1i(&self) -> &CacheConfig {
        &self.l1i
    }

    /// The data-cache organization.
    pub const fn l1d(&self) -> &CacheConfig {
        &self.l1d
    }

    /// `true` for a Harvard (split I/D) organization.
    pub const fn is_split(&self) -> bool {
        self.split
    }

    /// The translation layer, if the hierarchy is physically addressed.
    pub const fn translation(&self) -> Option<&TranslationConfig> {
        self.translation.as_ref()
    }
}

/// The timing half of a [`SystemConfig`]: everything the timing replay
/// prices an event trace under. See [`SystemConfig::timing`].
///
/// The mid-level caches live here — not in [`OrgConfig`] — because the
/// behavioral pass stops at the first level: mid-levels only see miss
/// traffic, and their state interleaves with write-buffer drain timing, so
/// the replay re-simulates them per timing point (still cheap: they
/// process events, not references).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingConfig {
    /// The CPU/cache clock period.
    pub cycle_time: CycleTime,
    /// The optional second level (cache + port + buffer).
    pub l2: Option<LevelTwoConfig>,
    /// The optional third level.
    pub l3: Option<LevelTwoConfig>,
    /// The main-memory configuration.
    pub memory: MemoryConfig,
    /// Cycles for a read hit.
    pub read_hit_cycles: u64,
    /// Cycles for a write.
    pub write_hit_cycles: u64,
    /// Whether couplet halves issue in parallel.
    pub dual_issue: bool,
    /// The read-miss resumption policy.
    pub fill_policy: FillPolicy,
    /// Extra cycles for a way-predicted hit in a non-predicted way.
    pub way_slow_hit_cycles: u64,
    /// Extra cycles for a victim-buffer hit's swap.
    pub victim_swap_cycles: u64,
}

/// A timing half with every nanosecond quantized at its cycle time: the
/// hit costs, the issue and fill policies, the mid-level caches, and the
/// memory in whole cycles ([`MemoryCycles`]). Built by
/// [`SystemConfig::cycle_timing`].
///
/// This is the only input the timing machine takes, so two timing halves
/// with equal `CycleTiming`s produce the same run cycle for cycle; their
/// results differ only in [`SimResult::cycle_time`]. Quantization makes
/// that common: fixed memory delays round up to the same whole cycles at
/// neighbouring cycle times (the paper's Table 2), so the 16 cycle times
/// of its speed–size axis price the default memory with 9 distinct
/// machines. [`replay_many`] runs one replay per distinct value.
///
/// [`SimResult::cycle_time`]: crate::SimResult::cycle_time
/// [`replay_many`]: crate::replay_many
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CycleTiming {
    pub(crate) read_hit_cycles: u64,
    pub(crate) write_hit_cycles: u64,
    pub(crate) way_slow_hit_cycles: u64,
    pub(crate) victim_swap_cycles: u64,
    pub(crate) dual_issue: bool,
    pub(crate) fill_policy: FillPolicy,
    pub(crate) l2: Option<LevelTwoConfig>,
    pub(crate) l3: Option<LevelTwoConfig>,
    pub(crate) memory: MemoryCycles,
}

impl StableHash for FillPolicy {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(match self {
            FillPolicy::WaitWholeBlock => 0,
            FillPolicy::EarlyContinuation => 1,
            FillPolicy::LoadForward => 2,
        });
    }
}

impl StableHash for LevelTwoConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.cache.stable_hash(h);
        self.read_cycles.stable_hash(h);
        self.write_cycles.stable_hash(h);
        self.wb_depth.stable_hash(h);
    }
}

impl StableHash for OrgConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.l1i.stable_hash(h);
        self.l1d.stable_hash(h);
        self.split.stable_hash(h);
        self.translation.stable_hash(h);
    }
}

impl StableHash for TimingConfig {
    /// The feature penalties are hashed as a *conditional extension*:
    /// at their defaults they contribute nothing, so timing configs
    /// from before the penalties existed keep their digests.
    fn stable_hash(&self, h: &mut StableHasher) {
        self.cycle_time.stable_hash(h);
        self.l2.stable_hash(h);
        self.l3.stable_hash(h);
        self.memory.stable_hash(h);
        self.read_hit_cycles.stable_hash(h);
        self.write_hit_cycles.stable_hash(h);
        self.dual_issue.stable_hash(h);
        self.fill_policy.stable_hash(h);
        if self.way_slow_hit_cycles != 1 || self.victim_swap_cycles != 1 {
            self.way_slow_hit_cycles.stable_hash(h);
            self.victim_swap_cycles.stable_hash(h);
        }
    }
}

impl StableHash for SystemConfig {
    /// Hashes as the (organization, timing) pair, so the whole-config hash
    /// is consistent with the halves the two-phase engine splits it into.
    fn stable_hash(&self, h: &mut StableHasher) {
        self.organization().stable_hash(h);
        self.timing().stable_hash(h);
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | I: {} | D: {}{}",
            self.cycle_time,
            self.l1i,
            self.l1d,
            if self.l2.is_some() { " | +L2" } else { "" }
        )
    }
}

/// Builder for [`SystemConfig`]; see [`SystemConfig::builder`].
///
/// # Examples
///
/// A 16 KB-per-side machine at 32 ns:
///
/// ```
/// use cachetime::SystemConfig;
/// use cachetime_cache::CacheConfig;
/// use cachetime_types::{CacheSize, CycleTime};
///
/// let l1 = CacheConfig::builder(CacheSize::from_kib(16)?).build()?;
/// let config = SystemConfig::builder()
///     .cycle_time(CycleTime::from_ns(32)?)
///     .l1_both(l1)
///     .build()?;
/// assert_eq!(config.total_l1_bytes(), 32 * 1024);
/// # Ok::<(), cachetime_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    cycle_time: Option<CycleTime>,
    l1i: Option<CacheConfig>,
    l1d: Option<CacheConfig>,
    split: bool,
    l2: Option<LevelTwoConfig>,
    l3: Option<LevelTwoConfig>,
    memory: MemoryConfig,
    translation: Option<TranslationConfig>,
    read_hit_cycles: u64,
    write_hit_cycles: u64,
    dual_issue: bool,
    fill_policy: FillPolicy,
    way_slow_hit_cycles: u64,
    victim_swap_cycles: u64,
}

impl SystemConfigBuilder {
    /// Sets the CPU/cache cycle time. Default: 40 ns.
    pub fn cycle_time(&mut self, ct: CycleTime) -> &mut Self {
        self.cycle_time = Some(ct);
        self
    }

    /// Sets the instruction-cache organization.
    pub fn l1i(&mut self, config: CacheConfig) -> &mut Self {
        self.l1i = Some(config);
        self
    }

    /// Sets the data-cache organization.
    pub fn l1d(&mut self, config: CacheConfig) -> &mut Self {
        self.l1d = Some(config);
        self
    }

    /// Sets both first-level caches to the same organization (the paper
    /// varies the two caches together).
    pub fn l1_both(&mut self, config: CacheConfig) -> &mut Self {
        self.l1i = Some(config);
        self.l1d = Some(config);
        self
    }

    /// Chooses a unified (single-cache) organization instead of the default
    /// Harvard split; the unified cache uses the `l1d` configuration.
    pub fn unified(&mut self, unified: bool) -> &mut Self {
        self.split = !unified;
        self
    }

    /// Adds a second-level cache.
    pub fn l2(&mut self, l2: LevelTwoConfig) -> &mut Self {
        self.l2 = Some(l2);
        self
    }

    /// Removes the second-level cache (and any third level).
    pub fn no_l2(&mut self) -> &mut Self {
        self.l2 = None;
        self.l3 = None;
        self
    }

    /// Adds a third-level cache (an L2 must also be configured).
    pub fn l3(&mut self, l3: LevelTwoConfig) -> &mut Self {
        self.l3 = Some(l3);
        self
    }

    /// Serializes couplet halves (single-issue CPU) instead of the paper's
    /// parallel issue. Default: dual issue.
    pub fn dual_issue(&mut self, dual: bool) -> &mut Self {
        self.dual_issue = dual;
        self
    }

    /// Sets the main-memory configuration. Default: the paper's memory.
    pub fn memory(&mut self, memory: MemoryConfig) -> &mut Self {
        self.memory = memory;
        self
    }

    /// Places an MMU (page map + TLB) in front of the caches, making the
    /// hierarchy physically addressed. Default: none — virtual caches, as
    /// in all the paper's simulations.
    pub fn translation(&mut self, translation: TranslationConfig) -> &mut Self {
        self.translation = Some(translation);
        self
    }

    /// Sets the read-hit cost in cycles. Default 1.
    pub fn read_hit_cycles(&mut self, cycles: u64) -> &mut Self {
        self.read_hit_cycles = cycles;
        self
    }

    /// Sets the write cost in cycles. Default 2.
    pub fn write_hit_cycles(&mut self, cycles: u64) -> &mut Self {
        self.write_hit_cycles = cycles;
        self
    }

    /// Sets the extra cost of a way-predicted hit in a non-predicted
    /// way (the second probe round). Default 1; 0 models free
    /// mispredictions.
    pub fn way_slow_hit_cycles(&mut self, cycles: u64) -> &mut Self {
        self.way_slow_hit_cycles = cycles;
        self
    }

    /// Sets the extra cost of a victim-buffer hit's block swap.
    /// Default 1.
    pub fn victim_swap_cycles(&mut self, cycles: u64) -> &mut Self {
        self.victim_swap_cycles = cycles;
        self
    }

    /// Enables or disables early continuation on fills (off in the
    /// paper). Shorthand for [`fill_policy`](Self::fill_policy).
    pub fn early_continuation(&mut self, on: bool) -> &mut Self {
        self.fill_policy = if on {
            FillPolicy::EarlyContinuation
        } else {
            FillPolicy::WaitWholeBlock
        };
        self
    }

    /// Sets the read-miss resumption policy. Default: wait for the whole
    /// block, as in all the paper's experiments.
    pub fn fill_policy(&mut self, policy: FillPolicy) -> &mut Self {
        self.fill_policy = policy;
        self
    }

    /// Validates the combination and produces the configuration.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::ZeroCycleTime`] via an invalid cycle time.
    /// * [`ConfigError::Inconsistent`] if an L2 block is smaller than an L1
    ///   block (fills could not be assembled), or hit costs are zero.
    pub fn build(&self) -> Result<SystemConfig, ConfigError> {
        let cycle_time = match self.cycle_time {
            Some(ct) => ct,
            None => CycleTime::from_ns(40)?,
        };
        let l1d = match self.l1d {
            Some(c) => c,
            None => CacheConfig::paper_default_data()?,
        };
        let l1i = match self.l1i {
            Some(c) => c,
            None => CacheConfig::paper_default_instruction()?,
        };
        if self.read_hit_cycles == 0 || self.write_hit_cycles == 0 {
            return Err(ConfigError::Inconsistent {
                what: "hit costs must be at least one cycle",
            });
        }
        if let Some(t) = &self.translation {
            t.validate()?;
        }
        if let Some(l2) = &self.l2 {
            for l1 in [&l1i, &l1d] {
                if l2.cache.block().words() < l1.block().words() {
                    return Err(ConfigError::Inconsistent {
                        what: "L2 block smaller than an L1 block",
                    });
                }
            }
            if l2.read_cycles == 0 {
                return Err(ConfigError::Inconsistent {
                    what: "L2 read time must be at least one cycle",
                });
            }
        }
        if let Some(l3) = &self.l3 {
            let Some(l2) = &self.l2 else {
                return Err(ConfigError::Inconsistent {
                    what: "an L3 requires an L2",
                });
            };
            if l3.cache.block().words() < l2.cache.block().words() {
                return Err(ConfigError::Inconsistent {
                    what: "L3 block smaller than the L2 block",
                });
            }
            if l3.read_cycles == 0 {
                return Err(ConfigError::Inconsistent {
                    what: "L3 read time must be at least one cycle",
                });
            }
        }
        Ok(SystemConfig {
            cycle_time,
            l1i,
            l1d,
            split: self.split,
            l2: self.l2,
            l3: self.l3,
            memory: self.memory,
            translation: self.translation,
            read_hit_cycles: self.read_hit_cycles,
            write_hit_cycles: self.write_hit_cycles,
            dual_issue: self.dual_issue,
            fill_policy: self.fill_policy,
            way_slow_hit_cycles: self.way_slow_hit_cycles,
            victim_swap_cycles: self.victim_swap_cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachetime_types::{BlockWords, CacheSize};

    #[test]
    fn paper_default_matches_section_2() {
        let c = SystemConfig::paper_default().unwrap();
        assert_eq!(c.cycle_time().ns(), 40);
        assert!(c.is_split());
        assert_eq!(c.l1i().size().kib(), 64);
        assert_eq!(c.l1d().size().kib(), 64);
        assert_eq!(c.total_l1_bytes(), 128 * 1024);
        assert_eq!(c.read_hit_cycles(), 1);
        assert_eq!(c.write_hit_cycles(), 2);
        assert!(c.l2().is_none());
        assert!(!c.early_continuation());
    }

    #[test]
    fn unified_total_counts_once() {
        let c = SystemConfig::builder().unified(true).build().unwrap();
        assert_eq!(c.total_l1_bytes(), 64 * 1024);
        assert!(!c.is_split());
    }

    #[test]
    fn l2_block_must_cover_l1_block() {
        let small_block = CacheConfig::builder(CacheSize::from_kib(256).unwrap())
            .block(BlockWords::new(2).unwrap())
            .build()
            .unwrap();
        let r = SystemConfig::builder()
            .l2(LevelTwoConfig::new(small_block))
            .build();
        assert!(matches!(r, Err(ConfigError::Inconsistent { .. })));
    }

    #[test]
    fn l2_with_equal_block_accepted() {
        let l2cache = CacheConfig::builder(CacheSize::from_kib(512).unwrap())
            .build()
            .unwrap();
        let c = SystemConfig::builder()
            .l2(LevelTwoConfig::new(l2cache))
            .build()
            .unwrap();
        assert!(c.l2().is_some());
        assert_eq!(c.l2().unwrap().read_cycles, 3);
    }

    #[test]
    fn translation_config_is_validated() {
        let bad = cachetime_mmu::TranslationConfig {
            page_words: 1000,
            ..Default::default()
        };
        assert!(SystemConfig::builder().translation(bad).build().is_err());
        let good = cachetime_mmu::TranslationConfig::default();
        let c = SystemConfig::builder().translation(good).build().unwrap();
        assert!(c.translation().is_some());
        assert!(SystemConfig::paper_default()
            .unwrap()
            .translation()
            .is_none());
    }

    #[test]
    fn l3_requires_l2_and_block_ordering() {
        let l2cache = CacheConfig::builder(CacheSize::from_kib(512).unwrap())
            .block(BlockWords::new(8).unwrap())
            .build()
            .unwrap();
        let l3cache = CacheConfig::builder(CacheSize::from_kib(2048).unwrap())
            .block(BlockWords::new(16).unwrap())
            .build()
            .unwrap();
        // L3 without L2: rejected.
        assert!(SystemConfig::builder()
            .l3(LevelTwoConfig::new(l3cache))
            .build()
            .is_err());
        // Proper stack: accepted.
        let c = SystemConfig::builder()
            .l2(LevelTwoConfig::new(l2cache))
            .l3(LevelTwoConfig::new(l3cache))
            .build()
            .unwrap();
        assert!(c.l3().is_some());
        // L3 block below L2 block: rejected.
        let small3 = CacheConfig::builder(CacheSize::from_kib(2048).unwrap())
            .block(BlockWords::new(4).unwrap())
            .build()
            .unwrap();
        assert!(SystemConfig::builder()
            .l2(LevelTwoConfig::new(l2cache))
            .l3(LevelTwoConfig::new(small3))
            .build()
            .is_err());
    }

    #[test]
    fn dual_issue_default_on() {
        assert!(SystemConfig::paper_default().unwrap().dual_issue());
        assert!(!SystemConfig::builder()
            .dual_issue(false)
            .build()
            .unwrap()
            .dual_issue());
    }

    #[test]
    fn zero_hit_cost_rejected() {
        assert!(SystemConfig::builder().read_hit_cycles(0).build().is_err());
        assert!(SystemConfig::builder().write_hit_cycles(0).build().is_err());
    }

    #[test]
    fn halves_round_trip_to_the_same_config() {
        let l2cache = CacheConfig::builder(CacheSize::from_kib(512).unwrap())
            .build()
            .unwrap();
        let c = SystemConfig::builder()
            .cycle_time(cachetime_types::CycleTime::from_ns(32).unwrap())
            .unified(true)
            .l2(LevelTwoConfig::new(l2cache))
            .translation(cachetime_mmu::TranslationConfig::default())
            .dual_issue(false)
            .fill_policy(FillPolicy::LoadForward)
            .build()
            .unwrap();
        let rebuilt = SystemConfig::from_parts(&c.organization(), &c.timing()).unwrap();
        assert_eq!(c, rebuilt);
    }

    #[test]
    fn organizations_ignore_timing_differences() {
        let a = SystemConfig::paper_default().unwrap();
        let b = SystemConfig::builder()
            .cycle_time(cachetime_types::CycleTime::from_ns(20).unwrap())
            .dual_issue(false)
            .build()
            .unwrap();
        assert_eq!(a.organization(), b.organization());
        assert_ne!(a.timing(), b.timing());
        // A different cache size is a different organization.
        let l1 = CacheConfig::builder(CacheSize::from_kib(16).unwrap())
            .build()
            .unwrap();
        let c = SystemConfig::builder().l1_both(l1).build().unwrap();
        assert_ne!(a.organization(), c.organization());
    }

    #[test]
    fn from_parts_revalidates() {
        // Reassembling an L2 whose block is smaller than the L1's fails,
        // exactly as the builder would.
        let small_block = CacheConfig::builder(CacheSize::from_kib(256).unwrap())
            .block(BlockWords::new(2).unwrap())
            .build()
            .unwrap();
        let org = SystemConfig::paper_default().unwrap().organization();
        let mut timing = SystemConfig::paper_default().unwrap().timing();
        timing.l2 = Some(LevelTwoConfig::new(small_block));
        assert!(matches!(
            SystemConfig::from_parts(&org, &timing),
            Err(ConfigError::Inconsistent { .. })
        ));
    }

    #[test]
    fn display_mentions_clock_and_caches() {
        let c = SystemConfig::paper_default().unwrap();
        let s = c.to_string();
        assert!(s.contains("40ns"));
        assert!(s.contains("64KB"));
    }
}
