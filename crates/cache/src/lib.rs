//! Cache organization substrate for the `cachetime` simulator.
//!
//! This crate models the *organizational* half of a cache — sets, ways,
//! tags, per-word valid and dirty state, replacement and write policies —
//! without any notion of time. The timing engine in the `cachetime` core
//! crate drives a [`Cache`] with reads and writes and converts the returned
//! [`ReadOutcome`]/[`WriteOutcome`] events into cycles.
//!
//! The model covers every organizational parameter the paper lists in its
//! simulation-environment section: total size, set size (associativity),
//! number of sets, block size, fetch size (sub-block fetching), write
//! strategy, and write allocation, plus virtual tags that include the
//! process identifier.
//!
//! # Examples
//!
//! Build the paper's default data cache (64 KB, direct-mapped, 4-word
//! blocks, write-back, no allocation on write miss) and exercise it:
//!
//! ```
//! use cachetime_cache::{Cache, CacheConfig, ReadOutcome};
//! use cachetime_types::{Pid, WordAddr};
//!
//! let config = CacheConfig::paper_default_data()?;
//! let mut cache = Cache::new(config);
//!
//! let addr = WordAddr::new(0x1234);
//! assert!(matches!(cache.read(addr, Pid(0)), ReadOutcome::Miss { .. }));
//! assert!(matches!(cache.read(addr, Pid(0)), ReadOutcome::Hit));
//! // A different process misses in a virtual cache even at the same address.
//! assert!(matches!(cache.read(addr, Pid(1)), ReadOutcome::Miss { .. }));
//! # Ok::<(), cachetime_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod cache;
mod config;
mod features;
mod mapping;
mod replacement;
mod stats;

pub use crate::cache::{Cache, Eviction, ReadOutcome, WriteOutcome};
pub use block::MAX_BLOCK_WORDS;
pub use config::{CacheConfig, CacheConfigBuilder, WriteAllocate, WritePolicy};
pub use features::{OrgFeatures, VictimCacheConfig, WayPrediction, MAX_VICTIM_ENTRIES};
pub use mapping::AddressMap;
pub use replacement::ReplacementPolicy;
pub use stats::CacheStats;
