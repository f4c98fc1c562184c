//! The two-phase engine: a behavioral pass that records an [`EventTrace`],
//! and a timing replay that reprices it under any clock/memory setting.
//!
//! The paper's methodology holds a cache *organization* fixed and
//! re-evaluates it across cycle times and memory speeds (the §3 speed–size
//! grid crosses 11 sizes with 16 cycle times; the §5 grids cross block
//! sizes with memory latencies). Direct simulation re-runs the whole trace
//! for every grid cell even though the cache *behavior* — hits, misses,
//! victims, TLB walks — is identical along the whole timing axis. The
//! two-phase pipeline factors that redundancy out:
//!
//! * **Phase A** ([`BehavioralSim`]): run the trace once per organization
//!   through the first-level caches and MMU only — no clock, no memory —
//!   and emit a compact [`EventTrace`]. Runs of all-hit couplets collapse
//!   into counters, so the trace length is proportional to the *miss and
//!   store-downstream traffic*, not the reference count.
//! * **Phase B** ([`replay`]): walk the events under a concrete
//!   [`SystemConfig`] through a lane bank, one lane per distinct timing,
//!   each driving its own downstream hierarchy (write buffers, mid-level
//!   caches, main memory).
//!
//! [`Simulator::run`](crate::Simulator::run) is the same two phases
//! fused: the Phase A walk hands each op straight to a one-lane bank
//! instead of storing it, so a repriced recording is bit-identical to a
//! direct run by construction. The independent check of this one engine
//! is the naive timing oracle in `tests/reference_engine.rs`.
//!
//! ```
//! use cachetime::{replay, simulate, BehavioralSim, SystemConfig};
//! use cachetime_trace::catalog;
//! use cachetime_types::CycleTime;
//!
//! let base = SystemConfig::paper_default()?;
//! let trace = catalog::savec(0.01).generate();
//! let events = BehavioralSim::new(&base.organization()).record(&trace);
//! for ct in [20u32, 40, 80] {
//!     let config = SystemConfig::builder()
//!         .cycle_time(CycleTime::from_ns(ct)?)
//!         .build()?;
//!     let repriced = replay(&events, &config).expect("same organization");
//!     assert_eq!(repriced, simulate(&config, &trace));
//! }
//! # Ok::<(), cachetime_types::ConfigError>(())
//! ```

use crate::hierarchy::Downstream;
use crate::opstream::{OpSink, OpStream, OpWriter, Ops};
use crate::result::{CoupletHistogram, SimResult};
use crate::system::{CycleTiming, FillPolicy, OrgConfig, SystemConfig};
use cachetime_cache::{Cache, CacheStats, ReadOutcome, WriteOutcome};
use cachetime_mem::clean_fill;
use cachetime_mmu::{Mmu, MmuStats};
use cachetime_trace::Trace;
use cachetime_types::{
    AccessEvent, ConfigError, CoupletClass, CycleTime, Cycles, MemRef, RefEvent, VictimBlock,
};
use std::collections::HashMap;

/// A recorded behavioral pass: the timing-free events of one
/// `(organization, trace)` pairing, plus the behavioral statistics that no
/// replay can change (first-level cache and MMU counters, reference and
/// couplet counts).
///
/// Valid for repricing under any timing half — cycle time, memory
/// parameters, write buffers, mid-level caches, hit costs, issue and fill
/// policies — because nothing above the write buffers depends on the
/// clock. Produced by [`BehavioralSim::record`], consumed by [`replay`].
#[derive(Debug, Clone, PartialEq)]
pub struct EventTrace {
    org: OrgConfig,
    ops: OpStream,
    behavior: Behavior,
}

/// What a behavioral walk observed that no timing can change: the
/// reference and couplet counts and the first-level cache and MMU
/// counters. A replay copies these into every result it prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Behavior {
    /// References in the measured (post-warm-start) window.
    refs: u64,
    /// Total couplets over the whole trace.
    couplets: u64,
    l1i: CacheStats,
    l1d: CacheStats,
    mmu: Option<MmuStats>,
}

impl EventTrace {
    /// The organization this trace was recorded under. [`replay`] rejects
    /// configurations whose organization half differs.
    pub fn organization(&self) -> &OrgConfig {
        &self.org
    }

    /// The recorded event stream, packed (see [`Ops`]).
    pub fn ops(&self) -> Ops<'_> {
        self.ops.view()
    }

    /// References in the measured window.
    pub fn refs(&self) -> u64 {
        self.behavior.refs
    }

    /// Total couplets over the whole trace (warm-up included).
    pub fn couplets(&self) -> u64 {
        self.behavior.couplets
    }

    /// First-level instruction-cache statistics of the measured window.
    pub fn l1i_stats(&self) -> &CacheStats {
        &self.behavior.l1i
    }

    /// First-level data-cache statistics of the measured window.
    pub fn l1d_stats(&self) -> &CacheStats {
        &self.behavior.l1d
    }

    /// Approximate heap-plus-inline size of this trace in bytes.
    ///
    /// Counts the packed op stream's capacity plus the fixed header — the
    /// only allocations of consequence — so a byte-budgeted store (the
    /// simulation server's LRU) can account for what eviction would
    /// actually reclaim.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.ops.capacity()
    }

    /// The compression the run-length encoding achieved: recorded ops per
    /// couplet (1.0 = nothing collapsed; paper-like hit ratios give a few
    /// percent).
    pub fn ops_per_couplet(&self) -> f64 {
        if self.behavior.couplets == 0 {
            0.0
        } else {
            self.ops.view().len() as f64 / self.behavior.couplets as f64
        }
    }

    /// MMU statistics of the measured window, if the organization has a
    /// translation layer.
    pub fn mmu_stats(&self) -> Option<&MmuStats> {
        self.behavior.mmu.as_ref()
    }

    /// Reassembles a trace from its decoded parts ([`crate::codec`] only).
    ///
    /// Callers must provide parts that came out of `encode`; the codec's
    /// round-trip tests pin that the result is bit-identical to the
    /// original recording.
    pub(crate) fn from_raw_parts(
        org: OrgConfig,
        ops: OpStream,
        refs: u64,
        couplets: u64,
        l1i: CacheStats,
        l1d: CacheStats,
        mmu: Option<MmuStats>,
    ) -> Self {
        EventTrace {
            org,
            ops,
            behavior: Behavior {
                refs,
                couplets,
                l1i,
                l1d,
                mmu,
            },
        }
    }
}

/// Phase A: the timing-free behavioral simulator.
///
/// Runs the first-level caches and the (optional) MMU over a trace in
/// couplet order and records what happened instead of when. This walk is
/// the front half of every priced run: [`record`](Self::record) stores its
/// ops for later repricing, and [`Simulator::run`](crate::Simulator::run)
/// streams them straight into a one-lane replay.
#[derive(Debug, Clone)]
pub struct BehavioralSim {
    org: OrgConfig,
    l1i: Cache,
    l1d: Cache,
    mmu: Option<Mmu>,
    /// Whether a walk has used this machine since it was built.
    spent: bool,
}

impl BehavioralSim {
    /// Builds a cold behavioral machine for one organization.
    pub fn new(org: &OrgConfig) -> Self {
        BehavioralSim {
            org: *org,
            l1i: Cache::new(*org.l1i()),
            l1d: Cache::new(*org.l1d()),
            mmu: org.translation().map(|t| Mmu::new(*t)),
            spent: false,
        }
    }

    /// Records the behavioral events of `trace` from power-on state.
    ///
    /// A machine that has already recorded is rebuilt first, so repeated
    /// `record` calls are independent; a fresh one is used as built.
    pub fn record(&mut self, trace: &Trace) -> EventTrace {
        self.record_refs(trace.refs().iter().copied(), trace.warm_start())
    }

    /// Streaming variant of [`record`](Self::record): consumes references
    /// from an iterator. `warm_start` is the index of the first measured
    /// reference.
    pub fn record_refs(
        &mut self,
        refs: impl IntoIterator<Item = MemRef>,
        warm_start: usize,
    ) -> EventTrace {
        let mut span = cachetime_obs::global_span!("core_record");
        let refs = refs.into_iter();
        // Hit runs collapse most couplets and the packed ops take a few
        // bytes each: catalog recordings land at 0.6-1.2 bytes per
        // reference, so the stream grows at most about once from here.
        // `finish` trims it, which costs under 0.1 ns per reference.
        let mut ops = OpWriter::with_capacity(refs.size_hint().0);
        let (walked, behavior) = self.walk(refs, warm_start, &mut ops);
        let ops = ops.finish();

        // Phase accounting: the span's duration histogram plus raw
        // totals give events/sec without touching the record hot loop
        // (a few atomic adds per *call*, not per ref).
        span.set_work(walked);
        global_counter!("cachetime_record_refs_total").add(walked);
        global_counter!("cachetime_record_ops_total").add(ops.view().len() as u64);
        global_counter!("cachetime_record_bytes_total").add(ops.view().byte_len() as u64);

        EventTrace {
            org: self.org,
            ops,
            behavior,
        }
    }

    /// Walks `refs` from power-on state and hands each op to `sink`, in
    /// order: the one place couplets are formed, translated and turned
    /// into ops. Returns the references walked and the behavioral
    /// statistics of the measured window.
    ///
    /// A machine that has already walked is rebuilt first.
    pub(crate) fn walk(
        &mut self,
        refs: impl IntoIterator<Item = MemRef>,
        warm_start: usize,
        sink: &mut impl OpSink,
    ) -> (u64, Behavior) {
        if self.spent {
            *self = BehavioralSim::new(&self.org);
        }
        self.spent = true;
        let split = self.org.is_split();
        let mut refs = refs.into_iter().peekable();

        let mut i = 0usize;
        let mut couplets = 0u64;
        let mut warmed = warm_start == 0;
        // The open hit run accumulates in a register-resident array and is
        // emitted only when a non-trivial couplet (or the warm boundary)
        // ends the stretch — all-hit couplets never reach `sink` alone.
        let mut pending = [0u32; CoupletClass::COUNT];
        while let Some(a) = refs.next() {
            if !warmed && i >= warm_start {
                warmed = true;
                flush_hits(sink, &mut pending);
                sink.warm_boundary();
                self.l1i.reset_stats();
                self.l1d.reset_stats();
                if let Some(mmu) = &mut self.mmu {
                    mmu.reset_stats();
                }
            }
            // Pair an ifetch with the immediately following data reference
            // of the same process — "instruction and data references in
            // the trace paired up without reordering any of the
            // references". A unified cache pairs nothing.
            let pairable = split
                && a.kind == cachetime_types::AccessKind::IFetch
                && refs
                    .peek()
                    .is_some_and(|d| d.kind.is_data() && d.pid == a.pid);
            if pairable {
                let d = refs.next().expect("peeked");
                self.couplet(sink, &mut pending, Some(a), Some(d));
                i += 2;
            } else if a.kind.is_data() {
                self.couplet(sink, &mut pending, None, Some(a));
                i += 1;
            } else {
                self.couplet(sink, &mut pending, Some(a), None);
                i += 1;
            }
            couplets += 1;
        }
        flush_hits(sink, &mut pending);

        let behavior = Behavior {
            refs: (i - warm_start.min(i)) as u64,
            couplets,
            l1i: *self.l1i.stats(),
            l1d: *self.l1d.stats(),
            mmu: self.mmu.as_ref().map(|m| *m.stats()),
        };
        (i as u64, behavior)
    }

    /// Runs one couplet through the behavioral state machines and emits
    /// the resulting op (or extends the open hit run).
    fn couplet(
        &mut self,
        sink: &mut impl OpSink,
        pending: &mut [u32; CoupletClass::COUNT],
        iref: Option<MemRef>,
        dref: Option<MemRef>,
    ) {
        let ie = iref.map(|r| {
            let (r, walk_cycles) = self.translate(r);
            let access = if self.org.is_split() {
                Self::read_event(&mut self.l1i, r)
            } else {
                Self::read_event(&mut self.l1d, r)
            };
            RefEvent {
                addr: r.addr,
                pid: r.pid,
                walk_cycles,
                access,
            }
        });
        let de = dref.map(|r| {
            let (r, walk_cycles) = self.translate(r);
            let access = if r.kind == cachetime_types::AccessKind::Store {
                Self::write_event(&mut self.l1d, r)
            } else {
                Self::read_event(&mut self.l1d, r)
            };
            RefEvent {
                addr: r.addr,
                pid: r.pid,
                walk_cycles,
                access,
            }
        });

        match trivial_class(ie.as_ref(), de.as_ref()) {
            Some(class) => {
                let i = class.index();
                if pending[i] == u32::MAX {
                    flush_hits(sink, pending);
                }
                pending[i] += 1;
            }
            None => {
                flush_hits(sink, pending);
                sink.couplet(ie.as_ref(), de.as_ref());
            }
        }
    }

    /// Runs a reference through the MMU if the hierarchy is physically
    /// addressed: returns the (possibly translated) reference and the
    /// cycles the translation adds (a TLB miss costs the walk penalty).
    fn translate(&mut self, r: MemRef) -> (MemRef, u64) {
        match &mut self.mmu {
            None => (r, 0),
            Some(mmu) => {
                let (phys, hit) = mmu.translate(r.addr, r.pid);
                let penalty = if hit { 0 } else { mmu.miss_penalty() };
                (MemRef::new(phys, r.kind, r.pid), penalty)
            }
        }
    }

    fn read_event(cache: &mut Cache, r: MemRef) -> AccessEvent {
        match cache.read(r.addr, r.pid) {
            ReadOutcome::Hit => AccessEvent::ReadHit,
            ReadOutcome::SlowHit => AccessEvent::ReadSlowHit,
            ReadOutcome::VictimHit => AccessEvent::ReadVictimHit,
            ReadOutcome::Miss { fill_words, victim } => AccessEvent::ReadMiss {
                fetch_start: cachetime_types::WordAddr::new(
                    r.addr.value() & !(cache.config().fetch().words() as u64 - 1),
                ),
                fill_words,
                victim: victim.map(|ev| VictimBlock {
                    addr: ev.addr.first_word(cache.config().block().words()),
                    words: ev.words,
                }),
            },
        }
    }

    fn write_event(cache: &mut Cache, r: MemRef) -> AccessEvent {
        match cache.write(r.addr, r.pid) {
            WriteOutcome::Hit { through } => AccessEvent::WriteHit { through },
            WriteOutcome::VictimHit { through } => AccessEvent::WriteVictimHit { through },
            WriteOutcome::MissNoAllocate => AccessEvent::WriteMissAround,
            WriteOutcome::MissAllocate {
                fill_words,
                victim,
                through,
            } => AccessEvent::WriteMissAllocate {
                fetch_start: cachetime_types::WordAddr::new(
                    r.addr.value() & !(fill_words as u64 - 1),
                ),
                fill_words,
                victim: victim.map(|ev| VictimBlock {
                    addr: ev.addr.first_word(cache.config().block().words()),
                    words: ev.words,
                }),
                through,
            },
        }
    }
}

/// Closes the open hit run, if any, by emitting it.
#[inline]
fn flush_hits(sink: &mut impl OpSink, pending: &mut [u32; CoupletClass::COUNT]) {
    if pending.iter().any(|&c| c != 0) {
        sink.hit_run(pending);
        *pending = [0u32; CoupletClass::COUNT];
    }
}

/// Classifies a couplet as repriceable-in-O(1): every present half must be
/// a plain hit (no walk, nothing downstream). Returns its shape, or `None`
/// if the couplet must be replayed event by event.
fn trivial_class(ie: Option<&RefEvent>, de: Option<&RefEvent>) -> Option<CoupletClass> {
    if let Some(e) = ie {
        if e.walk_cycles != 0 || !matches!(e.access, AccessEvent::ReadHit) {
            return None;
        }
    }
    match de {
        None => ie.map(|_| CoupletClass::Ifetch),
        Some(e) => {
            if e.walk_cycles != 0 {
                return None;
            }
            match e.access {
                AccessEvent::ReadHit => Some(if ie.is_some() {
                    CoupletClass::IfetchLoad
                } else {
                    CoupletClass::Load
                }),
                AccessEvent::WriteHit { through: false } => Some(if ie.is_some() {
                    CoupletClass::IfetchStore
                } else {
                    CoupletClass::Store
                }),
                _ => None,
            }
        }
    }
}

/// Phase B: reprices an [`EventTrace`] under `config`'s timing half.
///
/// The organization halves must match — the events were recorded by those
/// exact cache state machines. Everything in the timing half is free to
/// differ from whatever the trace was recorded alongside: cycle time,
/// memory parameters, write-buffer depths, mid-level caches, hit costs,
/// dual issue, and fill policy.
///
/// # Errors
///
/// [`ConfigError::Inconsistent`] if `config.organization()` differs from
/// [`EventTrace::organization`].
pub fn replay(events: &EventTrace, config: &SystemConfig) -> Result<SimResult, ConfigError> {
    let mut results = replay_many(events, std::slice::from_ref(config))?;
    Ok(results.pop().expect("one result per config"))
}

/// Reprices an [`EventTrace`] under several timing settings in one walk of
/// the event stream.
///
/// Equivalent to calling [`replay`] once per configuration, but the ops —
/// the bulk of the working set for a long trace — stream through the
/// cache hierarchy once instead of once per timing point, which is where
/// most of a repricing sweep's wall time goes. Configurations are grouped
/// by their [`CycleTiming`]: each distinct one is a lane with its own
/// independent downstream machine, and every configuration in a group
/// receives that lane's result with its own cycle time. Lanes are priced
/// side by side, the dominant clean read miss in one loop over them all.
/// Equal `CycleTiming`s run the same machine cycle for cycle, so results
/// are bit-identical to the one-at-a-time path.
///
/// # Errors
///
/// [`ConfigError::Inconsistent`] if any configuration's organization half
/// differs from [`EventTrace::organization`].
pub fn replay_many(
    events: &EventTrace,
    configs: &[SystemConfig],
) -> Result<Vec<SimResult>, ConfigError> {
    for config in configs {
        if config.organization() != events.org {
            return Err(ConfigError::Inconsistent {
                what: "replay configuration's organization differs from the recorded event trace",
            });
        }
    }
    let mut span = cachetime_obs::global_span!("core_replay");
    // Work stays one unit per priced (reference, configuration) cell, so
    // the span's per-op time compares across grids with any class count.
    span.set_work(events.refs() * configs.len() as u64);
    let (classes, class_of) = timing_classes(configs);
    global_counter!("cachetime_replay_refs_total").add(events.refs() * configs.len() as u64);
    global_counter!("cachetime_replay_configs_total").add(configs.len() as u64);
    global_counter!("cachetime_replay_classes_total").add(classes.len() as u64);
    let mut bank = LaneBank::new(&classes);
    // Each op is decoded once, straight into the bank, and priced on
    // every lane.
    events.ops().feed(&mut bank);
    let lane_ops = bank.couplets * classes.len() as u64;
    global_counter!("cachetime_replay_lane_ops_total", "path" => "kernel").add(bank.kernel_ops);
    global_counter!("cachetime_replay_lane_ops_total", "path" => "general")
        .add(lane_ops - bank.kernel_ops);
    Ok(class_of
        .iter()
        .zip(configs)
        .map(|(&k, config)| bank.result(k, &events.behavior, config.cycle_time()))
        .collect())
}

/// Groups configurations by [`CycleTiming`]: returns the distinct values
/// in first-seen order, and each configuration's index into them.
fn timing_classes(configs: &[SystemConfig]) -> (Vec<CycleTiming>, Vec<usize>) {
    let mut index: HashMap<CycleTiming, usize> = HashMap::with_capacity(configs.len());
    let mut classes = Vec::new();
    let class_of = configs
        .iter()
        .map(|config| {
            let timing = config.cycle_timing();
            *index.entry(timing).or_insert_with(|| {
                classes.push(timing);
                classes.len() - 1
            })
        })
        .collect();
    (classes, class_of)
}

/// A recorded read miss, decoded once for every lane it is priced on.
struct ReadMiss {
    pid: cachetime_types::Pid,
    fetch_start: cachetime_types::WordAddr,
    fill_words: u32,
    victim: Option<(cachetime_types::WordAddr, u32)>,
    /// The requested word's offset from `fetch_start`.
    offset: u32,
}

impl ReadMiss {
    /// The read miss `e` records, if it records one.
    #[inline]
    fn of(e: &RefEvent) -> Option<Self> {
        match e.access {
            AccessEvent::ReadMiss {
                fetch_start,
                fill_words,
                victim,
            } => Some(ReadMiss {
                pid: e.pid,
                fetch_start,
                fill_words,
                victim: victim.map(|v| (v.addr, v.words)),
                offset: (e.addr.value() - fetch_start.value()) as u32,
            }),
            _ => None,
        }
    }
}

/// The replay-side timing state of every lane — one lane per distinct
/// [`CycleTiming`] — laid out as a struct of arrays.
///
/// The arrays hold what the dominant event touches: a lone, walk-free
/// read miss with no dirty victim. On a lane that is memory-only, waits
/// for the whole block, and has an empty write buffer, that miss is one
/// [`clean_fill`] — the memory's fast path — so
/// [`lone_read_miss`](LaneBank::lone_read_miss) prices it for every such lane
/// in one loop over these arrays. Everything else (victims, writes, walks,
/// mid-level caches, the other fill policies, lanes with buffered writes)
/// runs one lane at a time through the lane's own [`Downstream`], which
/// reads and writes the lane's clock and memory busy-until cycle here, in
/// place.
///
/// The bank is an [`OpSink`]: it prices each op shape in one method. A
/// stored [`EventTrace`]'s decoder calls those methods as it reads the
/// packed stream, and a [`BehavioralSim`] walk calls them as it emits
/// each op. A stored and a streamed run are thus priced by the same code.
pub(crate) struct LaneBank {
    /// Each lane's clock.
    now: Vec<u64>,
    /// Each lane's main-memory busy-until cycle.
    mem_free_at: Vec<u64>,
    /// Each lane's fixed costs of a clean miss.
    miss_cycles: Vec<MissCycles>,
    /// The fill size [`MissCycles::transfer`] holds; 0 until the first
    /// clean miss.
    transfer_words: u32,
    /// Whether the clean-miss kernel prices this lane's next clean miss:
    /// [`Lane::kernel_capable`] and an empty memory write buffer.
    kernel: Vec<bool>,
    /// Each lane's couplet latencies, hit runs aside when `shared_hits`.
    latency: Vec<CoupletHistogram>,
    stall_cycles: Vec<u64>,
    /// Clean lone misses, and the words they fetched, since the warm
    /// boundary. The kernel books none of its reads in a memory's stats,
    /// so a lane's kernel reads are these less `general_clean`.
    clean_reads: u64,
    clean_read_words: u64,
    /// Per lane, the clean lone misses (and their words) the general path
    /// priced, and so booked in the memory's stats, since the warm
    /// boundary.
    general_clean: Vec<(u64, u64)>,
    /// Recorded couplets so far, and at the warm boundary: every lane
    /// sees every couplet.
    couplets: u64,
    warm_couplets: u64,
    /// The (recorded couplet, lane) pairs the clean-miss kernel priced;
    /// the general path priced the rest.
    kernel_ops: u64,
    /// Hit-run couplets per class since the warm boundary: every lane
    /// sees every one.
    hit_counts: [u64; CoupletClass::COUNT],
    /// When every lane prices a hit run alike (on every paper grid: hits
    /// cost processor cycles, and only the memory quantization varies),
    /// the per-class hit costs: a hit run then costs one add per lane
    /// clock, and its latencies are booked from `hit_counts` when a
    /// result is assembled.
    shared_hits: Option<[u64; CoupletClass::COUNT]>,
    /// The state only the general path touches.
    lanes: Vec<Lane>,
}

/// A lane's fixed costs of a clean lone read miss, side by side so the
/// kernel reads one entry per lane.
#[derive(Debug, Clone, Copy)]
struct MissCycles {
    /// Address plus latency cycles of the lane's memory.
    read_lead: u64,
    /// Cycles to move [`LaneBank::transfer_words`] words into the L1.
    transfer: u64,
    recovery: u64,
    read_hit: u64,
}

/// One lane's general-path state: the hierarchy below L1 and the timing
/// parameters only the general path reads.
struct Lane {
    down: Downstream,
    warm_cycle: u64,
    write_hit: u64,
    way_slow_hit: u64,
    victim_swap: u64,
    dual_issue: bool,
    fill_policy: FillPolicy,
    /// Cycles per all-hit couplet, indexed by [`CoupletClass::index`].
    hit_costs: [u64; CoupletClass::COUNT],
    /// Memory-only and [`FillPolicy::WaitWholeBlock`]: the lane's clean
    /// misses are one [`clean_fill`] whenever its write buffer is empty.
    kernel_capable: bool,
}

impl LaneBank {
    /// A cold bank with one lane per timing class.
    pub(crate) fn new(classes: &[CycleTiming]) -> Self {
        let lanes: Vec<Lane> = classes.iter().map(Lane::new).collect();
        let n = lanes.len();
        let hit_costs = lanes.first().map(|l| l.hit_costs).unwrap_or_default();
        LaneBank {
            now: vec![0; n],
            mem_free_at: vec![0; n],
            miss_cycles: classes
                .iter()
                .map(|t| MissCycles {
                    read_lead: t.memory.read_lead_cycles(),
                    transfer: 0,
                    recovery: t.memory.recovery_cycles(),
                    read_hit: t.read_hit_cycles,
                })
                .collect(),
            transfer_words: 0,
            kernel: lanes.iter().map(|l| l.kernel_capable).collect(),
            latency: vec![CoupletHistogram::default(); n],
            stall_cycles: vec![0; n],
            clean_reads: 0,
            clean_read_words: 0,
            general_clean: vec![(0, 0); n],
            couplets: 0,
            warm_couplets: 0,
            kernel_ops: 0,
            hit_counts: [0; CoupletClass::COUNT],
            shared_hits: lanes
                .iter()
                .all(|l| l.hit_costs == hit_costs)
                .then_some(hit_costs),
            lanes,
        }
    }

    /// Assembles lane `k`'s [`SimResult`] from the walk's `behavior` at
    /// `cycle_time`, the one field the cycle-level machine cannot know.
    pub(crate) fn result(&self, k: usize, behavior: &Behavior, cycle_time: CycleTime) -> SimResult {
        let lane = &self.lanes[k];
        let mut latency = self.latency[k];
        if let Some(costs) = &self.shared_hits {
            for (&cost, &n) in costs.iter().zip(&self.hit_counts) {
                latency.record_n(cost, n);
            }
        }
        let mut mem = *lane.down.mem_stats();
        let (general_reads, general_words) = self.general_clean[k];
        mem.reads += self.clean_reads - general_reads;
        mem.read_words += self.clean_read_words - general_words;
        SimResult {
            cycle_time,
            cycles: Cycles(self.now[k] - lane.warm_cycle),
            refs: behavior.refs,
            couplets: self.couplets - self.warm_couplets + self.hit_counts.iter().sum::<u64>(),
            l1i: behavior.l1i,
            l1d: behavior.l1d,
            l2: lane.down.l2_stats(),
            l3: lane.down.l3_stats(),
            mem,
            mmu: behavior.mmu,
            latency,
            stall_cycles: Cycles(self.stall_cycles[k]),
        }
    }

    /// [`hit_run`](Self::hit_run) when lanes price hits differently: each
    /// lane books the run in its own histogram and clock.
    #[inline(never)]
    fn hit_run_per_lane(&mut self, counts: &[u32; CoupletClass::COUNT]) {
        for (k, lane) in self.lanes.iter().enumerate() {
            for (i, &count) in counts.iter().enumerate() {
                let cost = lane.hit_costs[i];
                let n = count as u64;
                self.latency[k].record_n(cost, n);
                self.now[k] += cost * n;
            }
        }
    }

    /// Prices a lone, walk-free read miss on every lane; returns how many
    /// lanes the clean-miss kernel priced.
    ///
    /// Kernel lanes cost one [`clean_fill`] over the bank's arrays. The
    /// rest — and every lane when the miss displaces a dirty victim — take
    /// [`Lane::read_miss`], the general path.
    #[inline]
    fn lone_read_miss(&mut self, miss: &ReadMiss) -> u64 {
        let n = self.lanes.len();
        if miss.victim.is_some() {
            for k in 0..n {
                self.general_read_miss(k, miss);
            }
            return 0;
        }
        if miss.fill_words != self.transfer_words {
            self.transfer_words = miss.fill_words;
            for (c, lane) in self.miss_cycles.iter_mut().zip(&self.lanes) {
                c.transfer = lane.down.upstream_transfer_cycles(miss.fill_words);
            }
        }
        self.clean_reads += 1;
        self.clean_read_words += miss.fill_words as u64;
        let mut general = 0;
        // Reslicing to one length lets the loop run check-free.
        let (now, free_at) = (&mut self.now[..n], &mut self.mem_free_at[..n]);
        let (latency, stall) = (&mut self.latency[..n], &mut self.stall_cycles[..n]);
        for ((k, &kernel), c) in self.kernel[..n]
            .iter()
            .enumerate()
            .zip(&self.miss_cycles[..n])
        {
            if !kernel {
                general += 1;
                continue;
            }
            // The miss is detected during the probe cycle; the fill
            // request goes downstream the cycle after, and the CPU waits
            // for the whole block.
            let start = now[k];
            let done = clean_fill(
                &mut free_at[k],
                start + 1,
                c.read_lead,
                c.transfer,
                c.recovery,
            )
            .done;
            latency[k].record(done - start);
            stall[k] += (done - start).saturating_sub(c.read_hit);
            now[k] = done;
        }
        if general != 0 {
            for k in 0..n {
                if !self.kernel[k] {
                    self.general_clean[k].0 += 1;
                    self.general_clean[k].1 += miss.fill_words as u64;
                    self.general_read_miss(k, miss);
                }
            }
        }
        (n - general) as u64
    }

    /// Prices a lone read miss on lane `k` through the general path.
    fn general_read_miss(&mut self, k: usize, miss: &ReadMiss) {
        let start = self.now[k];
        let done = self.lanes[k].read_miss(&mut self.mem_free_at[k], start, miss);
        self.finish_general(k, start, done, self.miss_cycles[k].read_hit);
    }

    /// Prices one recorded couplet on lane `k`. Both halves issue at the
    /// lane's clock (a single-issue CPU starts the data half when the
    /// fetch completes), each delayed by its TLB walk, and the couplet
    /// ends when both are done.
    fn step_couplet(&mut self, k: usize, iref: Option<&RefEvent>, dref: Option<&RefEvent>) {
        let lane = &mut self.lanes[k];
        let mem_free_at = &mut self.mem_free_at[k];
        let read_hit = self.miss_cycles[k].read_hit;
        let now = self.now[k];
        let mut done = now;
        let mut ideal = 0u64;
        if let Some(e) = iref {
            ideal = ideal.max(read_hit);
            done = done.max(lane.complete_read(mem_free_at, read_hit, e, now + e.walk_cycles));
        }
        if let Some(e) = dref {
            let issue = if lane.dual_issue { now } else { done };
            let (c, this_ideal) = if e.access.is_write() {
                (
                    lane.complete_write(mem_free_at, e, issue + e.walk_cycles),
                    lane.write_hit,
                )
            } else {
                (
                    lane.complete_read(mem_free_at, read_hit, e, issue + e.walk_cycles),
                    read_hit,
                )
            };
            ideal = if lane.dual_issue {
                ideal.max(this_ideal)
            } else {
                ideal + this_ideal
            };
            done = done.max(c);
        }
        self.finish_general(k, now, done, ideal);
    }

    /// Books a couplet the general path priced on lane `k` (issued at
    /// `start`, complete at `done`, ideally `ideal` cycles long), and
    /// re-decides whether the lane's next clean miss takes the kernel.
    #[inline]
    fn finish_general(&mut self, k: usize, start: u64, done: u64, ideal: u64) {
        debug_assert!(done > start, "a couplet must consume at least one cycle");
        self.latency[k].record(done - start);
        self.stall_cycles[k] += (done - start).saturating_sub(ideal);
        self.now[k] = done;
        let lane = &self.lanes[k];
        self.kernel[k] = lane.kernel_capable && !lane.down.mem_writes_pending();
    }
}

/// The bank prices each op as the decoder or the walk reaches it: one
/// method per shape.
impl OpSink for LaneBank {
    /// Reprices a stretch of all-hit couplets in O(classes) per lane, or
    /// O(classes) plus one add per lane clock when the hit costs are
    /// shared. Hit-only couplets never touch downstream state and complete
    /// in exactly their ideal time, so they advance the clock linearly
    /// with zero stall — in any order, which is why per-class counts
    /// suffice.
    #[inline]
    fn hit_run(&mut self, counts: &[u32; CoupletClass::COUNT]) {
        // Branchless on purpose: absent classes contribute n = 0 to the
        // counts and the clock, and the sparsity pattern of `counts` is
        // unpredictable enough that testing for zero costs more than the
        // five fused multiply-adds.
        for (total, &n) in self.hit_counts.iter_mut().zip(counts) {
            *total += n as u64;
        }
        match &self.shared_hits {
            Some(costs) => {
                let cycles: u64 = costs.iter().zip(counts).map(|(&c, &n)| c * n as u64).sum();
                for now in &mut self.now {
                    *now += cycles;
                }
            }
            None => self.hit_run_per_lane(counts),
        }
    }

    /// Prices one recorded couplet on every lane.
    ///
    /// Always inlined: where the decoder reads a lone clean miss, the
    /// halves' shape is then known and the test for it folds away.
    #[inline(always)]
    fn couplet(&mut self, i: Option<&RefEvent>, d: Option<&RefEvent>) {
        self.couplets += 1;
        // Recorded couplets are overwhelmingly a lone, walk-free read
        // miss; decode that shape once here instead of once per lane.
        let lone_miss = match (i, d) {
            (Some(e), None) | (None, Some(e)) if e.walk_cycles == 0 => ReadMiss::of(e),
            _ => None,
        };
        match lone_miss {
            Some(miss) => self.kernel_ops += self.lone_read_miss(&miss),
            None => {
                for k in 0..self.lanes.len() {
                    self.step_couplet(k, i, d);
                }
            }
        }
    }

    /// The warm-start boundary: restarts every lane's timing statistics
    /// (the behavioral counters were reset in Phase A).
    #[inline(never)]
    fn warm_boundary(&mut self) {
        self.warm_couplets = self.couplets;
        self.hit_counts = [0; CoupletClass::COUNT];
        for (k, lane) in self.lanes.iter_mut().enumerate() {
            lane.warm_cycle = self.now[k];
            lane.down.reset_stats();
        }
        self.latency.fill(CoupletHistogram::default());
        self.stall_cycles.fill(0);
        self.clean_reads = 0;
        self.clean_read_words = 0;
        self.general_clean.fill((0, 0));
    }
}

impl Lane {
    fn new(timing: &CycleTiming) -> Self {
        let rh = timing.read_hit_cycles;
        let wh = timing.write_hit_cycles;
        let dual = timing.dual_issue;
        let mut hit_costs = [0u64; CoupletClass::COUNT];
        for class in CoupletClass::ALL {
            hit_costs[class.index()] = match class {
                CoupletClass::Ifetch | CoupletClass::Load => rh,
                CoupletClass::Store => wh,
                CoupletClass::IfetchLoad => {
                    if dual {
                        rh
                    } else {
                        rh + rh
                    }
                }
                CoupletClass::IfetchStore => {
                    if dual {
                        rh.max(wh)
                    } else {
                        rh + wh
                    }
                }
            };
        }
        let down = Downstream::new(timing);
        Lane {
            kernel_capable: down.is_memory_only()
                && timing.fill_policy == FillPolicy::WaitWholeBlock,
            down,
            warm_cycle: 0,
            write_hit: wh,
            way_slow_hit: timing.way_slow_hit_cycles,
            victim_swap: timing.victim_swap_cycles,
            dual_issue: dual,
            fill_policy: timing.fill_policy,
            hit_costs,
        }
    }

    /// Timing of a read miss issued at `now`; returns its completion cycle.
    #[inline]
    fn read_miss(&mut self, mem_free_at: &mut u64, now: u64, miss: &ReadMiss) -> u64 {
        // The miss is detected during the probe cycle; the fill request
        // goes downstream the cycle after.
        let grant = self.down.fill_l1(
            mem_free_at,
            now + 1,
            miss.pid,
            miss.fetch_start,
            miss.fill_words,
            miss.victim,
        );
        let completion = match self.fill_policy {
            FillPolicy::WaitWholeBlock => grant.done,
            FillPolicy::EarlyContinuation => {
                grant.ready + self.down.upstream_transfer_cycles(miss.offset + 1)
            }
            FillPolicy::LoadForward => grant.ready + self.down.upstream_transfer_cycles(1),
        };
        completion.clamp(now + 1, grant.done)
    }

    /// Timing of a recorded load/ifetch; returns its completion cycle.
    fn complete_read(
        &mut self,
        mem_free_at: &mut u64,
        read_hit: u64,
        e: &RefEvent,
        now: u64,
    ) -> u64 {
        match e.access {
            AccessEvent::ReadHit => now + read_hit,
            AccessEvent::ReadSlowHit => now + read_hit + self.way_slow_hit,
            AccessEvent::ReadVictimHit => now + read_hit + self.victim_swap,
            _ => match ReadMiss::of(e) {
                Some(miss) => self.read_miss(mem_free_at, now, &miss),
                None => unreachable!("read completion on a write event"),
            },
        }
    }

    /// Timing of a recorded store; returns its completion cycle.
    fn complete_write(&mut self, mem_free_at: &mut u64, e: &RefEvent, now: u64) -> u64 {
        let whc = self.write_hit;
        match e.access {
            AccessEvent::WriteHit { through } => {
                let mut done = now + whc;
                if through {
                    let accepted = self
                        .down
                        .write_word_down(mem_free_at, now + 1, e.pid, e.addr);
                    done = done.max(accepted + 1);
                }
                done
            }
            AccessEvent::WriteVictimHit { through } => {
                let mut done = now + whc + self.victim_swap;
                if through {
                    let accepted = self
                        .down
                        .write_word_down(mem_free_at, now + 1, e.pid, e.addr);
                    done = done.max(accepted + 1);
                }
                done
            }
            AccessEvent::WriteMissAround => {
                let accepted = self
                    .down
                    .write_word_down(mem_free_at, now + 1, e.pid, e.addr);
                (now + whc).max(accepted + 1)
            }
            AccessEvent::WriteMissAllocate {
                fetch_start,
                fill_words,
                victim,
                through,
            } => {
                let victim = victim.map(|v| (v.addr, v.words));
                let filled = self
                    .down
                    .fill_l1(mem_free_at, now + 1, e.pid, fetch_start, fill_words, victim)
                    .done;
                let mut done = filled + 1; // the write itself
                if through {
                    let accepted = self
                        .down
                        .write_word_down(mem_free_at, now + 1, e.pid, e.addr);
                    done = done.max(accepted + 1);
                }
                done
            }
            _ => unreachable!("write completion on a read event"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachetime_types::{Pid, WordAddr};

    fn trace_of(refs: Vec<MemRef>) -> Trace {
        Trace::new("t", refs, 0)
    }

    #[test]
    fn hit_runs_collapse() {
        let config = SystemConfig::paper_default().unwrap();
        let a = WordAddr::new(0x100);
        let refs: Vec<MemRef> = std::iter::once(MemRef::load(a, Pid(1)))
            .chain((0..1000).map(|_| MemRef::load(a, Pid(1))))
            .collect();
        let events = BehavioralSim::new(&config.organization()).record(&trace_of(refs));
        // One miss couplet + one run of 1000 hits.
        assert_eq!(events.ops().len(), 2);
        assert_eq!(events.couplets(), 1001);
        assert!(events.ops_per_couplet() < 0.01);
    }

    #[test]
    fn replay_rejects_a_different_organization() {
        let config = SystemConfig::paper_default().unwrap();
        let events = BehavioralSim::new(&config.organization())
            .record(&trace_of(vec![MemRef::load(WordAddr::new(0), Pid(1))]));
        let other_l1 = cachetime_cache::CacheConfig::builder(
            cachetime_types::CacheSize::from_kib(16).unwrap(),
        )
        .build()
        .unwrap();
        let other = SystemConfig::builder().l1_both(other_l1).build().unwrap();
        assert!(replay(&events, &other).is_err());
        assert!(replay(&events, &config).is_ok());
    }

    #[test]
    fn two_phase_matches_direct_on_a_smoke_trace() {
        let config = SystemConfig::paper_default().unwrap();
        let a = WordAddr::new(0x100);
        let conflict = WordAddr::new(0x40000);
        let refs = vec![
            MemRef::load(a, Pid(1)),
            MemRef::store(a, Pid(1)),
            MemRef::load(conflict, Pid(1)),
            MemRef::ifetch(WordAddr::new(0x2000), Pid(1)),
            MemRef::load(a, Pid(1)),
            MemRef::store(WordAddr::new(0x9999), Pid(2)),
        ];
        let t = Trace::new("t", refs, 2);
        let direct = crate::Simulator::new(&config).run(&t);
        let events = BehavioralSim::new(&config.organization()).record(&t);
        assert_eq!(replay(&events, &config).unwrap(), direct);
    }

    #[test]
    fn one_behavioral_pass_reprices_the_whole_cycle_time_axis() {
        let base = SystemConfig::paper_default().unwrap();
        let refs: Vec<MemRef> = (0..400)
            .map(|i| match i % 3 {
                0 => MemRef::ifetch(WordAddr::new(i * 7 % 256), Pid(1)),
                1 => MemRef::load(WordAddr::new(i * 13 % 512), Pid(1)),
                _ => MemRef::store(WordAddr::new(i * 11 % 128), Pid(2)),
            })
            .collect();
        let t = Trace::new("t", refs, 50);
        let events = BehavioralSim::new(&base.organization()).record(&t);
        for ct in [20u32, 36, 56, 80] {
            let config = SystemConfig::builder()
                .cycle_time(cachetime_types::CycleTime::from_ns(ct).unwrap())
                .build()
                .unwrap();
            let direct = crate::Simulator::new(&config).run(&t);
            let repriced = replay(&events, &config).unwrap();
            assert_eq!(repriced, direct, "cycle time {ct}ns");
        }
    }

    /// The paper's cycle-time axis, 20–80 ns in 4 ns steps.
    const CYCLE_TIMES_NS: [u32; 16] = [
        20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72, 76, 80,
    ];

    fn axis(memory: cachetime_mem::MemoryConfig) -> Vec<SystemConfig> {
        CYCLE_TIMES_NS
            .iter()
            .map(|&ns| {
                SystemConfig::builder()
                    .cycle_time(CycleTime::from_ns(ns).unwrap())
                    .memory(memory)
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn sixteen_cycle_times_at_the_default_memory_are_nine_classes() {
        let configs = axis(cachetime_mem::MemoryConfig::paper_default());
        let (classes, class_of) = timing_classes(&configs);
        assert_eq!(classes.len(), 9);
        // 40 and 44 ns share a class, as do 52 and 56, and 60 through 80.
        let ns_class = |ns: u32| class_of[CYCLE_TIMES_NS.iter().position(|&c| c == ns).unwrap()];
        assert_eq!(ns_class(40), ns_class(44));
        assert_eq!(ns_class(52), ns_class(56));
        assert!((60..=80).step_by(4).all(|ns| ns_class(ns) == ns_class(60)));
        assert_ne!(ns_class(36), ns_class(40));
    }

    #[test]
    fn the_benchmark_sweep_grid_is_thirty_three_classes() {
        use cachetime_mem::{MemoryConfig, TransferRate};
        use cachetime_types::Nanos;
        let uniform = |ns, rate| MemoryConfig::uniform_latency(Nanos(ns), rate).unwrap();
        let configs: Vec<SystemConfig> = [
            MemoryConfig::paper_default(),
            uniform(100, TransferRate::WordsPerCycle(4)),
            uniform(260, TransferRate::WordsPerCycle(1)),
            uniform(420, TransferRate::CyclesPerWord(4)),
        ]
        .into_iter()
        .flat_map(axis)
        .collect();
        assert_eq!(configs.len(), 64);
        let (classes, class_of) = timing_classes(&configs);
        assert_eq!(classes.len(), 33);
        // Classes are numbered in first-seen order.
        assert_eq!(class_of[0], 0);
        assert_eq!(class_of.iter().max(), Some(&32));
    }

    #[test]
    fn class_members_share_one_replay_and_keep_their_cycle_times() {
        let refs: Vec<MemRef> = (0..400)
            .map(|i| match i % 3 {
                0 => MemRef::ifetch(WordAddr::new(i * 7 % 256), Pid(1)),
                1 => MemRef::load(WordAddr::new(i * 13 % 512), Pid(1)),
                _ => MemRef::store(WordAddr::new(i * 11 % 128), Pid(2)),
            })
            .collect();
        let t = Trace::new("t", refs, 50);
        let configs = axis(cachetime_mem::MemoryConfig::paper_default());
        let events = BehavioralSim::new(&configs[0].organization()).record(&t);
        let batched = replay_many(&events, &configs).unwrap();
        for (config, r) in configs.iter().zip(&batched) {
            assert_eq!(r, &crate::Simulator::new(config).run(&t));
        }
        // 40 and 44 ns: one machine, two clocks.
        assert_eq!(batched[5].cycles, batched[6].cycles);
        assert_ne!(batched[5].exec_time(), batched[6].exec_time());
    }

    #[test]
    fn behavioral_machine_reuse_matches_fresh_instance() {
        let config = SystemConfig::paper_default().unwrap();
        let first = cachetime_trace::catalog::savec(0.01).generate();
        let second = cachetime_trace::catalog::mu3(0.01).generate();
        let mut sim = BehavioralSim::new(&config.organization());
        sim.record(&first);
        let reused = sim.record(&second);
        assert_eq!(
            reused,
            BehavioralSim::new(&config.organization()).record(&second)
        );
        assert_eq!(sim.record(&second), reused, "a third call starts cold too");
    }

    /// A one-lane bank, and a mixed one: kernel lanes with and without a
    /// memory write buffer, non-kernel lanes (the other fill policies,
    /// an L2), and hit costs that differ per lane.
    fn sink_banks() -> [Vec<SystemConfig>; 2] {
        use cachetime_mem::MemoryConfig;
        let build = |b: &mut crate::SystemConfigBuilder| b.build().unwrap();
        let unbuffered = MemoryConfig::builder().wb_depth(0).build().unwrap();
        let l2 = cachetime_cache::CacheConfig::builder(
            cachetime_types::CacheSize::from_kib(16).unwrap(),
        )
        .block(cachetime_types::BlockWords::new(16).unwrap())
        .build()
        .unwrap();
        [
            vec![SystemConfig::paper_default().unwrap()],
            vec![
                SystemConfig::paper_default().unwrap(),
                build(SystemConfig::builder().memory(unbuffered)),
                build(
                    SystemConfig::builder()
                        .fill_policy(FillPolicy::EarlyContinuation)
                        .read_hit_cycles(2),
                ),
                build(
                    SystemConfig::builder()
                        .fill_policy(FillPolicy::LoadForward)
                        .dual_issue(false),
                ),
                build(SystemConfig::builder().l2(crate::LevelTwoConfig::new(l2))),
            ],
        ]
    }

    /// A bank per [`sink_banks`] configuration list.
    fn banks_of(banks: &[Vec<SystemConfig>]) -> Vec<LaneBank> {
        banks
            .iter()
            .map(|configs| {
                let classes: Vec<CycleTiming> =
                    configs.iter().map(SystemConfig::cycle_timing).collect();
                LaneBank::new(&classes)
            })
            .collect()
    }

    /// Random op streams priced twice: encoded and decoded straight into
    /// the bank, and handed to the bank's `OpSink` methods as generated,
    /// with no decode. Both must leave every lane bit-identical.
    #[test]
    fn sink_replay_matches_apply_bit_for_bit() {
        use crate::opstream::gen::{dispatch, gen_ops, Range};
        use cachetime_testkit::{check, prop_assert_eq, shrink};
        let banks = sink_banks();
        let behavior = Behavior {
            refs: 0,
            couplets: 0,
            l1i: CacheStats::default(),
            l1d: CacheStats::default(),
            mmu: None,
        };
        check(
            "sink_replay_matches_apply_bit_for_bit",
            |rng| gen_ops(rng, Range::Priceable),
            shrink::vec_linear,
            |ops| {
                let mut writer = OpWriter::with_capacity(0);
                dispatch(ops, &mut writer);
                let stream = writer.finish();
                let (mut fed, mut applied) = (banks_of(&banks), banks_of(&banks));
                for ((configs, fed), applied) in banks.iter().zip(&mut fed).zip(&mut applied) {
                    stream.view().feed(fed);
                    dispatch(ops, applied);
                    prop_assert_eq!(fed.couplets, applied.couplets);
                    prop_assert_eq!(fed.kernel_ops, applied.kernel_ops);
                    for (k, config) in configs.iter().enumerate() {
                        prop_assert_eq!(
                            fed.result(k, &behavior, config.cycle_time()),
                            applied.result(k, &behavior, config.cycle_time())
                        );
                    }
                }
                Ok(())
            },
        );
    }

    /// A stream that passes `OpStream::checked` prices on any bank: every
    /// single-byte flip of a random priceable stream that the check
    /// accepts prices on both test banks without a panic (in a debug
    /// build, also without an arithmetic overflow or a debug assertion).
    #[test]
    fn checked_streams_price_without_panicking() {
        use crate::opstream::gen::{dispatch, gen_ops, Range};
        use cachetime_testkit::{check, shrink};
        let banks = sink_banks();
        check(
            "checked_streams_price_without_panicking",
            |rng| gen_ops(rng, Range::Priceable),
            shrink::vec_linear,
            |ops| {
                let mut writer = OpWriter::with_capacity(0);
                dispatch(ops, &mut writer);
                let stream = writer.finish();
                let mut bytes = stream.view().bytes.to_vec();
                for at in 0..bytes.len() {
                    for mask in [0x01, 0x08, 0x20, 0x80, 0xff] {
                        bytes[at] ^= mask;
                        if let Ok(flipped) = OpStream::checked(&bytes, ops.len() as u64) {
                            for bank in &mut banks_of(&banks) {
                                flipped.view().feed(bank);
                            }
                        }
                        bytes[at] ^= mask;
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn empty_trace_replays_to_an_empty_result() {
        let config = SystemConfig::paper_default().unwrap();
        let events = BehavioralSim::new(&config.organization()).record_refs(std::iter::empty(), 0);
        let r = replay(&events, &config).unwrap();
        assert_eq!(r.refs, 0);
        assert_eq!(r.cycles.0, 0);
        assert_eq!(r.couplets, 0);
    }
}
