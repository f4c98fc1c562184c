//! Single-process synthetic reference stream.
//!
//! A [`SyntheticProcess`] produces an endless stream of [`MemRef`]s from
//! three coupled generators:
//!
//! * an **instruction stream**: sequential fetch runs inside "functions",
//!   interrupted by loops (short backward jumps that re-execute recent
//!   code), calls (function selection through an LRU stack with Pareto
//!   distances), and short forward jumps;
//! * a **data stream**: a small hot stack region, object accesses chosen
//!   through a second LRU stack with sequential runs inside each object,
//!   and occasional long array sweeps;
//! * an optional **start-up phase** that zeroes the data space with
//!   sequential stores, reproducing the paper's note that "higher write
//!   transfer rates for RISC traces at large cache sizes result from the
//!   zeroing of the data space at the start of the grep and egrep
//!   processes".

use crate::mtf::MtfStack;
use cachetime_testkit::SplitMix64;
#[cfg(test)]
use cachetime_types::AccessKind;
use cachetime_types::{MemRef, Pid, StableHash, StableHasher, WordAddr};

/// First word of the code region. Each process's regions are staggered by
/// a small pid-dependent, non-power-of-two offset: programs share the same
/// nominal load addresses (so virtual caches see inter-process index
/// conflicts, as the paper stresses for large virtual caches) but differ in
/// layout beyond the base, as real binaries do. The offsets also keep the
/// three regions of one process from all aliasing into cache set 0.
pub(crate) const CODE_BASE: u64 = 0x0010_0000;
/// First word of the data/heap region.
pub(crate) const DATA_BASE: u64 = 0x0400_0000;
/// First word of the stack region.
pub(crate) const STACK_BASE: u64 = 0x7FF0_0000;

/// Address-slot pitch (words) for scattered heap objects; no object
/// exceeds it.
pub(crate) const OBJECT_SLOT_WORDS: u64 = 64;

/// Pid-dependent layout stagger for the code region (words).
#[inline]
pub(crate) fn code_base(pid: Pid) -> u64 {
    CODE_BASE + pid.0 as u64 * 2_891
}

/// Pid-dependent layout stagger for the data region (words).
#[inline]
pub(crate) fn data_base(pid: Pid) -> u64 {
    DATA_BASE + 0x0c40 + pid.0 as u64 * 5_779
}

/// Pid-dependent layout stagger for the stack region (words).
#[inline]
pub(crate) fn stack_base(pid: Pid) -> u64 {
    STACK_BASE + 0x39a0 + pid.0 as u64 * 1_217
}

/// Tunable parameters of one synthetic process.
///
/// The defaults model a medium C program; [`ProcessParams::vax_like`] and
/// [`ProcessParams::risc_like`] set the mixes the paper describes for the
/// two trace families (the RISC traces show lower miss rates, a higher
/// degree of instruction locality, and lower instruction density).
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessParams {
    /// Code footprint in words.
    pub code_words: u64,
    /// Data (heap/global) footprint in words.
    pub data_words: u64,
    /// Stack region size in words.
    pub stack_words: u64,
    /// Fraction of references that are instruction fetches.
    pub ifetch_frac: f64,
    /// Fraction of non-stack data references that are stores.
    pub store_frac: f64,
    /// Fraction of data references that hit the stack region.
    pub stack_frac: f64,
    /// Probability that a new data run is a long sequential sweep.
    pub sweep_frac: f64,
    /// Size of the repeatedly swept array region in words (sweeps wrap
    /// within it, like repeated file-buffer or matrix traversals).
    pub sweep_words: u64,
    /// Mean sequential instruction-run length (words between branches).
    pub mean_code_run: f64,
    /// Mean data-run length inside one object.
    pub mean_data_run: f64,
    /// Fraction of new data runs that are scattered single-word accesses
    /// (pointer chasing, hash probing) with no spatial locality.
    pub scatter_frac: f64,
    /// Probability a branch event is a backward loop.
    pub loop_frac: f64,
    /// Pareto tail exponent for function selection (higher = more reuse).
    pub code_alpha: f64,
    /// Pareto tail exponent for object selection.
    pub data_alpha: f64,
    /// Average function size in words.
    pub func_words: u32,
    /// Object (chunk) size in words for the data locality stack.
    pub object_words: u32,
    /// Words of data zeroed by sequential stores at process start.
    pub startup_zero_words: u64,
    /// Words touched exactly once before the traced window (start-up and
    /// one-shot initialization data). They appear in an R2000-style
    /// initialization prefix — and in the trace's unique-address count, as
    /// in the paper's Table 1 — but are never referenced again.
    pub cold_words: u64,
}

impl StableHash for ProcessParams {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.code_words.stable_hash(h);
        self.data_words.stable_hash(h);
        self.stack_words.stable_hash(h);
        self.ifetch_frac.stable_hash(h);
        self.store_frac.stable_hash(h);
        self.stack_frac.stable_hash(h);
        self.sweep_frac.stable_hash(h);
        self.sweep_words.stable_hash(h);
        self.mean_code_run.stable_hash(h);
        self.mean_data_run.stable_hash(h);
        self.scatter_frac.stable_hash(h);
        self.loop_frac.stable_hash(h);
        self.code_alpha.stable_hash(h);
        self.data_alpha.stable_hash(h);
        self.func_words.stable_hash(h);
        self.object_words.stable_hash(h);
        self.startup_zero_words.stable_hash(h);
        self.cold_words.stable_hash(h);
    }
}

impl ProcessParams {
    /// A VAX-like process: denser instruction mix, smaller footprints,
    /// moderate locality.
    pub fn vax_like(code_words: u64, data_words: u64) -> Self {
        ProcessParams {
            code_words: code_words.max(256),
            data_words: data_words.max(256),
            stack_words: 256,
            ifetch_frac: 0.55,
            store_frac: 0.28,
            stack_frac: 0.25,
            sweep_frac: 0.012,
            sweep_words: (data_words / 4).max(256),
            mean_code_run: 7.0,
            mean_data_run: 4.0,
            scatter_frac: 0.70,
            loop_frac: 0.55,
            code_alpha: 1.80,
            data_alpha: 1.80,
            func_words: 96,
            object_words: 32,
            startup_zero_words: 0,
            cold_words: 0,
        }
    }

    /// An R2000-like process: more instruction fetches per datum, stronger
    /// instruction locality (longer runs, tighter loops), bigger data
    /// footprints.
    pub fn risc_like(code_words: u64, data_words: u64) -> Self {
        ProcessParams {
            code_words: code_words.max(256),
            data_words: data_words.max(256),
            stack_words: 512,
            ifetch_frac: 0.68,
            store_frac: 0.25,
            stack_frac: 0.30,
            sweep_frac: 0.010,
            sweep_words: (data_words / 4).max(256),
            mean_code_run: 12.0,
            mean_data_run: 5.0,
            scatter_frac: 0.65,
            loop_frac: 0.68,
            code_alpha: 2.30,
            data_alpha: 2.05,
            func_words: 128,
            object_words: 32,
            startup_zero_words: 0,
            cold_words: 0,
        }
    }

    /// Sets the one-time cold footprint replayed only in the
    /// initialization prefix.
    pub fn with_cold_words(mut self, words: u64) -> Self {
        self.cold_words = words;
        self
    }

    /// Adds a grep/egrep-style start-up phase zeroing `words` words of the
    /// data space.
    pub fn with_startup_zero(mut self, words: u64) -> Self {
        self.startup_zero_words = words.min(self.data_words);
        self
    }
}

/// The running state of one synthetic process.
#[derive(Debug, Clone)]
pub struct SyntheticProcess {
    pid: Pid,
    params: ProcessParams,
    rng: SplitMix64,
    // --- instruction stream ---
    funcs: MtfStack,
    cur_func: u32,
    pc: u32,
    loop_start: u32,
    code_run_left: u32,
    // --- data stream ---
    objects: MtfStack,
    objects_tbl: Vec<(u32, u32)>,
    /// First word (relative to the data base) of the contiguous sweep
    /// region, placed past the scattered heap span.
    sweep_base: u64,
    func_slots: u32,
    cur_object: u32,
    object_off: u32,
    data_run_left: u32,
    sweep_pos: u64,
    sweep_left: u32,
    stack_off: u64,
    // --- start-up phase ---
    zero_left: u64,
    zero_pos: u64,
}

impl SyntheticProcess {
    /// Creates a process with its own deterministic random stream.
    pub fn new(pid: Pid, params: ProcessParams, seed: u64) -> Self {
        let n_funcs = (params.code_words / params.func_words as u64).max(1) as u32;
        // Functions scatter across a larger code span: a program's working
        // set is a sparse subset of its binary, which is what gives a
        // direct-mapped cache its intra-process conflict misses (and set
        // associativity something to remove — the paper's Figure 4-1).
        let func_slots = n_funcs.next_power_of_two().max(2);
        // Variable-size objects, scattered across a heap span several
        // times the touched footprint for the same reason; real heaps also
        // mix many small allocations with a few large ones, which caps how
        // much of a working-set refill a big cache block can prefetch.
        let mut obj_rng = SplitMix64::from_seed(seed ^ 0x0b1ec7);
        let mut objects_tbl: Vec<(u32, u32)> = Vec::new();
        let object_budget = params.data_words - params.data_words / 4;
        let mut covered = 0u64;
        let mut index = 0u64;
        while covered < object_budget {
            let size = *[4u32, 4, 8, 8, 8, 16, 16, 32, 64]
                .get(obj_rng.gen_range(0usize..9))
                .expect("index in range");
            let size = size.min((object_budget - covered) as u32).max(1);
            objects_tbl.push((0, size)); // bases assigned after counting
            covered += size as u64;
            index += 1;
        }
        let n_objects = index as u32;
        // Bijective scatter over power-of-two slots (odd multiplier).
        let obj_slots = n_objects.next_power_of_two().max(2) as u64;
        for (i, entry) in objects_tbl.iter_mut().enumerate() {
            let slot = (i as u64).wrapping_mul(0x9e37) & (obj_slots - 1);
            entry.0 = (slot * OBJECT_SLOT_WORDS) as u32;
        }
        let zero_left = params.startup_zero_words;
        SyntheticProcess {
            pid,
            rng: SplitMix64::from_seed(seed ^ 0x9e37_79b9_7f4a_7c15),
            funcs: MtfStack::new(n_funcs),
            cur_func: 0,
            pc: 0,
            loop_start: 0,
            code_run_left: 0,
            objects: MtfStack::new(n_objects),
            objects_tbl,
            sweep_base: obj_slots * OBJECT_SLOT_WORDS,
            func_slots,
            cur_object: 0,
            object_off: 0,
            data_run_left: 0,
            sweep_pos: 0,
            sweep_left: 0,
            stack_off: 0,
            zero_left,
            zero_pos: 0,
            params,
        }
    }

    /// Returns the process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The one-time cold region `(first_word, words)` of this process, for
    /// prefix construction. Lies just past the live data region.
    pub fn cold_region(&self) -> (WordAddr, u64) {
        (
            WordAddr::new(data_base(self.pid) + self.sweep_base + self.params.sweep_words),
            self.params.cold_words,
        )
    }

    /// Produces the next reference of this process's stream.
    pub fn next_ref(&mut self) -> MemRef {
        if self.zero_left > 0 {
            return self.next_startup_ref();
        }
        if self.rng.gen_bool(self.params.ifetch_frac) {
            MemRef::ifetch(self.next_ifetch(), self.pid)
        } else {
            let (addr, store) = self.next_data();
            if store {
                MemRef::store(addr, self.pid)
            } else {
                MemRef::load(addr, self.pid)
            }
        }
    }

    /// Start-up zeroing: a tight two-instruction store loop.
    fn next_startup_ref(&mut self) -> MemRef {
        // Roughly interleave the loop's own fetches with its stores.
        if self.rng.gen_bool(self.params.ifetch_frac) {
            let addr = code_base(self.pid) + (self.zero_pos % 4);
            MemRef::ifetch(WordAddr::new(addr), self.pid)
        } else {
            let addr = data_base(self.pid) + self.zero_pos;
            self.zero_pos += 1;
            self.zero_left -= 1;
            MemRef::store(WordAddr::new(addr), self.pid)
        }
    }

    fn next_ifetch(&mut self) -> WordAddr {
        let fw = self.params.func_words;
        if self.code_run_left == 0 {
            self.branch_event();
        }
        self.code_run_left -= 1;
        let slot = (self.cur_func as u64).wrapping_mul(0x9e37) & (self.func_slots as u64 - 1);
        let addr = code_base(self.pid) + slot * fw as u64 + self.pc as u64;
        self.pc = (self.pc + 1) % fw;
        WordAddr::new(addr)
    }

    fn branch_event(&mut self) {
        let fw = self.params.func_words;
        let r = self.rng.next_f64();
        if r < self.params.loop_frac {
            // Loop back to the loop head; occasionally move the head up to
            // the current point so loops terminate.
            if self.rng.gen_bool(0.25) {
                self.loop_start = self.pc;
            }
            self.pc = self.loop_start;
        } else if r < self.params.loop_frac + (1.0 - self.params.loop_frac) * 0.35 {
            // Call/return: pick a function through the locality stack.
            self.cur_func = self.funcs.sample(&mut self.rng, self.params.code_alpha);
            self.pc = self.rng.gen_range(0..fw / 4).min(fw - 1);
            self.loop_start = self.pc;
        } else {
            // Short forward jump within the function.
            let skip = 1 + self.sample_geometric(4.0);
            self.pc = (self.pc + skip) % fw;
            self.loop_start = self.pc;
        }
        self.code_run_left = 1 + self.sample_geometric(self.params.mean_code_run);
    }

    fn next_data(&mut self) -> (WordAddr, bool) {
        // Stack traffic: a narrow, hot band that random-walks.
        if self.rng.gen_bool(self.params.stack_frac) {
            let delta = self.rng.gen_range(0..8) as i64 - 3;
            let max = self.params.stack_words as i64 - 1;
            self.stack_off = (self.stack_off as i64 + delta).clamp(0, max) as u64;
            let store = self.rng.gen_bool(0.40);
            return (WordAddr::new(stack_base(self.pid) + self.stack_off), store);
        }
        // Ongoing sweep: march sequentially through the data region.
        if self.sweep_left > 0 {
            self.sweep_left -= 1;
            let addr = data_base(self.pid) + self.sweep_base + self.sweep_pos;
            self.sweep_pos = (self.sweep_pos + 1) % self.params.sweep_words;
            return (
                WordAddr::new(addr),
                self.rng.gen_bool(self.params.store_frac),
            );
        }
        // Object accesses with sequential runs inside the chosen object.
        if self.data_run_left == 0 {
            if self.rng.gen_bool(self.params.sweep_frac) {
                self.sweep_left = self.rng.gen_range(32u32..128);
                return self.next_data();
            }
            self.cur_object = self.objects.sample(&mut self.rng, self.params.data_alpha);
            let (_, size) = self.objects_tbl[self.cur_object as usize];
            self.object_off = self.rng.gen_range(0..size);
            self.data_run_left = if self.rng.gen_bool(self.params.scatter_frac) {
                1 // scattered access: no spatial locality to exploit
            } else {
                2 + self.sample_geometric(self.params.mean_data_run)
            };
        }
        self.data_run_left -= 1;
        let (base, size) = self.objects_tbl[self.cur_object as usize];
        let addr = data_base(self.pid) + base as u64 + (self.object_off % size) as u64;
        self.object_off += 1;
        (
            WordAddr::new(addr),
            self.rng.gen_bool(self.params.store_frac),
        )
    }

    /// Geometric sample with the given mean (≥ 0).
    fn sample_geometric(&mut self, mean: f64) -> u32 {
        if mean <= 0.0 {
            return 0;
        }
        let p = 1.0 / (mean + 1.0);
        let u = self.rng.gen_range(f64::EPSILON..1.0);
        (u.ln() / (1.0 - p).ln()).floor().min(10_000.0) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn run(params: ProcessParams, n: usize) -> Vec<MemRef> {
        let mut p = SyntheticProcess::new(Pid(1), params, 42);
        (0..n).map(|_| p.next_ref()).collect()
    }

    #[test]
    fn refs_carry_the_pid() {
        for r in run(ProcessParams::vax_like(4096, 8192), 1000) {
            assert_eq!(r.pid, Pid(1));
        }
    }

    #[test]
    fn mix_approximates_parameters() {
        let refs = run(ProcessParams::vax_like(4096, 8192), 50_000);
        let ifetches = refs.iter().filter(|r| r.kind == AccessKind::IFetch).count();
        let frac = ifetches as f64 / refs.len() as f64;
        assert!((frac - 0.55).abs() < 0.03, "ifetch fraction {frac}");
        let stores = refs.iter().filter(|r| r.kind == AccessKind::Store).count();
        let data = refs.len() - ifetches;
        let sfrac = stores as f64 / data as f64;
        assert!((0.15..0.5).contains(&sfrac), "store fraction {sfrac}");
    }

    #[test]
    fn footprint_bounded_by_parameters() {
        let params = ProcessParams::vax_like(4096, 8192);
        let refs = run(params.clone(), 200_000);
        let code: HashSet<u64> = refs
            .iter()
            .filter(|r| r.kind == AccessKind::IFetch)
            .map(|r| r.addr.value())
            .collect();
        assert!(code.len() as u64 <= params.code_words);
        let data: HashSet<u64> = refs
            .iter()
            .filter(|r| r.kind != AccessKind::IFetch)
            .map(|r| r.addr.value())
            .collect();
        assert!(data.len() as u64 <= params.data_words + params.stack_words);
    }

    #[test]
    fn streams_are_deterministic() {
        let a = run(ProcessParams::risc_like(8192, 65_536), 10_000);
        let b = run(ProcessParams::risc_like(8192, 65_536), 10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let params = ProcessParams::vax_like(4096, 8192);
        let mut p1 = SyntheticProcess::new(Pid(1), params.clone(), 1);
        let mut p2 = SyntheticProcess::new(Pid(1), params, 2);
        let a: Vec<MemRef> = (0..1000).map(|_| p1.next_ref()).collect();
        let b: Vec<MemRef> = (0..1000).map(|_| p2.next_ref()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn startup_zero_emits_sequential_stores() {
        let params = ProcessParams::risc_like(4096, 65_536).with_startup_zero(1000);
        let refs = run(params, 5_000);
        let stores: Vec<u64> = refs
            .iter()
            .filter(|r| r.kind == AccessKind::Store)
            .map(|r| r.addr.value())
            .take(1000)
            .collect();
        assert_eq!(stores.len(), 1000);
        for (i, w) in stores.windows(2).enumerate() {
            assert_eq!(w[1], w[0] + 1, "zeroing must be sequential at {i}");
        }
    }

    #[test]
    fn instruction_stream_has_spatial_locality() {
        let refs = run(ProcessParams::risc_like(16_384, 16_384), 50_000);
        let fetch_addrs: Vec<u64> = refs
            .iter()
            .filter(|r| r.kind == AccessKind::IFetch)
            .map(|r| r.addr.value())
            .collect();
        let sequential = fetch_addrs.windows(2).filter(|w| w[1] == w[0] + 1).count();
        let frac = sequential as f64 / fetch_addrs.len() as f64;
        assert!(frac > 0.5, "sequential ifetch fraction too low: {frac}");
    }

    #[test]
    fn regions_do_not_collide() {
        let params = ProcessParams::risc_like(1 << 20, 1 << 22);
        let refs = run(params, 20_000);
        for r in refs {
            let a = r.addr.value();
            match r.kind {
                AccessKind::IFetch => {
                    assert!((CODE_BASE..DATA_BASE).contains(&a))
                }
                _ => assert!(a >= DATA_BASE),
            }
        }
    }
}
