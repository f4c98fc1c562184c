//! `cachetime` — an execution-time-centred cache design simulator.
//!
//! A from-scratch reproduction of the system behind *Performance Tradeoffs
//! in Cache Design* (Przybylski, Horowitz, Hennessy; ISCA 1988). Where the
//! classic cache literature stops at miss ratios and traffic ratios, this
//! simulator models **time**: every organizational knob interacts with the
//! CPU/cache cycle time and with a main memory whose latency, transfer
//! rate, and recovery period quantize to whole cycles. Execution time — the
//! product of cycle count and cycle time — is the figure of merit.
//!
//! The modeled machine (paper, section 2):
//!
//! * a pipelined CPU issuing paired instruction+data references
//!   ("couplets"); both must complete before the next pair issues;
//! * split 64 KB I and D caches (direct-mapped, 4-word blocks, virtual
//!   tags, write-back, no allocation on write miss) — every parameter
//!   adjustable through [`SystemConfig`];
//! * a four-block write buffer with read-address matching;
//! * main memory as a single functional unit: 1 address cycle + 180 ns
//!   latency + 1 word/cycle transfer, 120 ns recovery, writes 100 ns;
//! * an optional second cache level ([`LevelTwoConfig`]) for the paper's
//!   section-6 multi-level hierarchy argument.
//!
//! # Quick start
//!
//! ```
//! use cachetime::{simulate, SystemConfig};
//! use cachetime_trace::catalog;
//!
//! let config = SystemConfig::paper_default()?;
//! let trace = catalog::savec(0.02).generate();
//! let result = simulate(&config, &trace);
//!
//! println!("cycles/ref = {:.3}", result.cycles_per_ref());
//! println!("exec time  = {}", result.exec_time());
//! assert!(result.cycles.0 > 0);
//! # Ok::<(), cachetime_types::ConfigError>(())
//! ```
//!
//! The organizational substrate lives in [`cachetime_cache`], the memory
//! timing model in [`cachetime_mem`], and the synthetic workloads in
//! [`cachetime_trace`]; this crate re-exports the pieces a simulator user
//! needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A counter on the process-wide registry, looked up on first use and
/// kept for the life of the process: a registry lookup takes its lock and
/// allocates, while an add on the handle is one atomic. Each call site
/// owns one handle, so the name and labels must be constant there.
macro_rules! global_counter {
    ($name:expr $(, $key:expr => $value:expr)*) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<cachetime_obs::Counter>> =
            std::sync::OnceLock::new();
        HANDLE.get_or_init(|| cachetime_obs::global().counter($name, &[$(($key, $value)),*]))
    }};
}

pub mod codec;
mod engine;
mod hierarchy;
pub mod keyed;
mod opstream;
mod replay;
mod result;
pub mod sweep;
mod system;

pub use engine::Simulator;
pub use opstream::Ops;
pub use replay::{replay, replay_many, BehavioralSim, EventTrace};
pub use result::{CoupletHistogram, SimResult};
pub use system::{
    CycleTiming, FillPolicy, LevelTwoConfig, OrgConfig, SystemConfig, SystemConfigBuilder,
    TimingConfig,
};

// Re-export the vocabulary crates under their natural names.
pub use cachetime_cache as cache;
pub use cachetime_mem as mem;
pub use cachetime_types as types;

use cachetime_trace::Trace;

/// Runs `trace` through a fresh simulator built from `config`.
///
/// Statistics cover only the post-warm-start window (the paper's
/// "warm start runs"). For repeated runs over the same configuration,
/// construct a [`Simulator`] directly.
///
/// # Examples
///
/// See the [crate-level example](crate).
pub fn simulate(config: &SystemConfig, trace: &Trace) -> SimResult {
    Simulator::new(config).run(trace)
}
