//! Experiment drivers reproducing every table and figure of *Performance
//! Tradeoffs in Cache Design* (ISCA 1988).
//!
//! Each `figN_M`/`tableN` module exposes a typed `run(...)` entry point
//! returning the figure's data series, plus a `render` path used by the
//! `repro` binary to print the same rows/series the paper reports. The
//! modules share the [`runner`] utilities: the trace set, the standard
//! parameter grids, and geometric-mean aggregation across the eight
//! traces.
//!
//! Run `cargo run --release -p cachetime-experiments --bin repro -- list`
//! for the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod designer;
pub mod ext;
pub mod fig3_1;
pub mod fig3_2;
pub mod fig3_3;
pub mod fig3_4;
pub mod fig4_1;
pub mod fig4_2;
pub mod fig4_345;
pub mod fig5_1;
pub mod fig5_2;
pub mod fig5_3;
pub mod fig5_4;
pub mod fig_assoc_threshold;
pub mod runner;
/// The parallel sweep executor (re-exported from `cachetime` so
/// experiment code and external callers share one implementation).
pub use cachetime::sweep;
pub mod sec6;
pub mod table1;
pub mod table2;
pub mod table3;
