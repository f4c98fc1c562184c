//! Synthetic multiprogrammed address-trace substrate for `cachetime`.
//!
//! The paper drives its simulator with eight traces (its Table 1): four
//! VAX 8200 ATUM multiprogramming traces with operating-system references,
//! and four interleaved MIPS R2000 uniprocess traces with a cache-warming
//! initialization prefix. Those traces are not available, so this crate
//! synthesizes workloads that reproduce the *statistical* properties the
//! experiments depend on:
//!
//! * **temporal locality** — reuse governed by a truncated-Pareto LRU
//!   stack-distance model ([`MtfStack`]), giving miss ratios that fall
//!   with cache size and flatten out, as in the paper's Figure 3-1;
//! * **spatial locality** — sequential instruction runs, loops, and
//!   object/array accesses, giving the block-size behaviour of Figure 5-1;
//! * **multiprogramming** — several processes with geometric context-switch
//!   intervals and PID-tagged (virtual) addresses, producing the
//!   inter-process conflicts that keep big virtual caches missing;
//! * **the R2000 initialization prefix** — every address a process touched
//!   before the traced window, replayed in most-recent-use order so warm
//!   results are valid even for very large caches;
//! * **grep/egrep start-up** — a data-space zeroing phase that produces the
//!   RISC traces' elevated write traffic at large cache sizes.
//!
//! # Examples
//!
//! ```
//! use cachetime_trace::catalog;
//!
//! // A scaled-down "mu3" (VAX-like multiprogramming workload).
//! let trace = catalog::mu3(0.02).generate();
//! assert!(trace.len() > 0);
//! assert!(trace.warm_start() < trace.len());
//! let stats = trace.stats();
//! assert!(stats.ifetches > stats.stores);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod import;
pub mod interval;
pub mod io;
mod lines;
pub mod locality;
mod mtf;
mod multiprogram;
mod process;
mod trace;

pub use mtf::MtfStack;
pub use multiprogram::WorkloadSpec;
pub use process::{ProcessParams, SyntheticProcess};
pub use trace::{Trace, TraceStats};
