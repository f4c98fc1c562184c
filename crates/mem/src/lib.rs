//! Main-memory timing model and write buffers for the `cachetime` simulator.
//!
//! The paper models main memory as "a single functional unit": a read is an
//! address cycle, an asynchronous DRAM latency (quantized up to whole cache
//! cycles — the memory is synchronous to the cache clock), and a word-wise
//! transfer; every operation is followed by a recovery period before the
//! next may start. Writes release the bus after the transfer but keep the
//! memory unit busy for the write-operation time plus recovery.
//!
//! [`MemoryTiming`] exposes that arithmetic (it reproduces the paper's
//! Table 2 exactly — see `timing::tests`), and [`MemorySystem`] adds the
//! stateful parts: the busy/recovery tracking and the write buffer with
//! read-address matching and read priority. [`MemoryUnit`] is the same
//! machine with its busy-until cycle kept by the caller, and
//! [`clean_fill`] is the one definition of a fill's read timing. A
//! [`MemorySystem`] sees its
//! configuration only as [`MemoryCycles`], the pairing with every
//! nanosecond quantized, so cycle times that quantize alike build
//! identical systems.
//!
//! # Examples
//!
//! ```
//! use cachetime_mem::{MemoryConfig, MemoryTiming};
//! use cachetime_types::CycleTime;
//!
//! let config = MemoryConfig::paper_default();
//! let t = MemoryTiming::new(&config, CycleTime::from_ns(40)?);
//! // Table 2, 40ns row: read 10 cycles, write 8, recovery 3.
//! assert_eq!(t.read_time(4), 10);
//! assert_eq!(t.write_time(4), 8);
//! assert_eq!(t.recovery_cycles(), 3);
//! # Ok::<(), cachetime_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod stats;
mod system;
mod timing;
mod write_buffer;

pub use config::{MemoryConfig, MemoryConfigBuilder, TransferRate};
pub use stats::MemStats;
pub use system::{clean_fill, FillGrant, FillRequest, MemorySystem, MemoryUnit};
pub use timing::{MemoryCycles, MemoryTiming};
pub use write_buffer::{WbEntry, WbPayload, WriteBuffer};
