//! Shared domain types for the `cachetime` cache-design simulator.
//!
//! This crate holds the small, widely shared vocabulary of the simulator:
//! word-granular addresses ([`WordAddr`]), memory references ([`MemRef`],
//! [`AccessKind`], [`Pid`]), size parameters ([`CacheSize`], [`BlockWords`],
//! [`Assoc`]), time quantities ([`CycleTime`], [`Cycles`], [`Nanos`]), and
//! the byte-budgeted LRU map ([`BudgetLru`]) the server's stores share.
//!
//! The conventions follow the paper *Performance Tradeoffs in Cache Design*
//! (Przybylski, Horowitz, Hennessy; ISCA 1988):
//!
//! * a **word** is 32 bits, and traces contain only word references;
//! * a **block** is the storage associated with one tag, measured in words;
//! * **set size** means degree of associativity;
//! * the memory system is synchronous to the cache clock, so all
//!   nanosecond-denominated latencies quantize to whole cycles via
//!   [`CycleTime::cycles_for`].
//!
//! # Examples
//!
//! ```
//! use cachetime_types::{CacheSize, BlockWords, CycleTime};
//!
//! let size = CacheSize::from_kib(64)?;
//! let block = BlockWords::new(4)?;
//! assert_eq!(size.blocks(block), 4096);
//!
//! // The paper's default: 180ns DRAM latency on a 40ns clock is 5 cycles.
//! let ct = CycleTime::from_ns(40)?;
//! assert_eq!(ct.cycles_for(180), 5);
//! # Ok::<(), cachetime_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod error;
mod events;
mod hash;
mod json;
mod lru;
mod refs;
mod size;
mod time;

pub use addr::{BlockAddr, WordAddr, BYTES_PER_WORD};
pub use error::ConfigError;
pub use events::{AccessEvent, CoupletClass, RefEvent, VictimBlock};
pub use hash::{stable_hash_of, StableHash, StableHasher};
pub use json::{json_object, write_json_f64, Json, JsonError};
pub use lru::BudgetLru;
pub use refs::{AccessKind, MemRef, Pid};
pub use size::{Assoc, BlockWords, CacheSize};
pub use time::{CycleTime, Cycles, Nanos};
