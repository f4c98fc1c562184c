//! `cachetime-disk` — a crash-safe, content-addressed segment store for
//! recorded [`EventTrace`](cachetime::EventTrace)s.
//!
//! Recording is the expensive phase of the two-phase engine; replay is
//! 20–40x cheaper. This crate makes the recorded artifact durable so a
//! restarted server starts warm instead of re-recording its whole grid:
//!
//! * **Content addressing.** Trace keys are already stable SplitMix64
//!   digests of `(organization, workload)`; the 16-hex key *is* the file
//!   name (`<key>.seg`), so the directory is the index and recovery
//!   needs no journal or manifest.
//! * **Atomic spills.** Each segment is a checksummed container
//!   ([`segment`]) written to a temp file, fsynced, renamed into place,
//!   and sealed with a directory fsync — a segment either exists
//!   completely or not at all.
//! * **Quarantine recovery.** The startup [`SegmentStore::scan`]
//!   validates magic, version, key, length, and checksum before decoding
//!   anything; files failing any step move to `quarantine/` (kept as
//!   evidence, oldest deleted first over `quarantine_cap_bytes`) and
//!   valid segments stream into the caller's in-memory store.
//!   Corruption is absorbed, never fatal.
//! * **Budgeted.** `budget_bytes` caps the directory; the
//!   oldest-written segments are evicted first (in file-mtime order
//!   across restarts), by the same `BudgetLru` the in-memory store uses
//!   one level up.
//! * **Fault-injectable.** A [`fault::FaultHook`] lets tests tear,
//!   bit-flip, or fail individual I/Os deterministically; the server
//!   adapts its seeded `FaultPlan` into one for restart-chaos tests.
//!
//! Zero external dependencies, like the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
mod metrics;
pub mod segment;
mod store;

pub use fault::{mangle, DiskFault, DiskOp, FaultHook};
pub use metrics::DiskMetrics;
pub use store::{
    AdoptOutcome, DiskConfig, ScanReport, SegmentStore, SpillResult, DEFAULT_QUARANTINE_CAP_BYTES,
};
