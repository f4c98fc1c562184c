//! Cycle arithmetic for memory operations (the paper's Table 2).

use crate::config::MemoryConfig;
use cachetime_types::CycleTime;

/// The memory-operation cycle counts for one (memory, cycle-time) pairing.
///
/// Because the memory's nanosecond delays are fixed while the cache clock
/// varies, every duration quantizes to a cycle-time-dependent number of
/// cycles. This quantization is exactly the paper's Table 2 and the source
/// of its 56 ns anomaly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryTiming {
    config: MemoryConfig,
    cycle_time: CycleTime,
    cycles: MemoryCycles,
}

impl MemoryTiming {
    /// Binds a memory configuration to a cycle time.
    pub fn new(config: &MemoryConfig, cycle_time: CycleTime) -> Self {
        MemoryTiming {
            config: *config,
            cycle_time,
            cycles: MemoryCycles::new(config, cycle_time),
        }
    }

    /// Returns the underlying configuration.
    pub const fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Returns the bound cycle time.
    pub const fn cycle_time(&self) -> CycleTime {
        self.cycle_time
    }

    /// The quantized DRAM read latency in cycles — `la` in the paper's
    /// `la × tr` memory-speed product (excludes the address cycle).
    pub const fn latency_cycles(&self) -> u64 {
        self.cycles.latency_cycles()
    }

    /// The quantized write-operation time in cycles.
    pub const fn write_op_cycles(&self) -> u64 {
        self.cycles.write_op_cycles()
    }

    /// The quantized recovery time in cycles (Table 2, "Recovery time").
    pub const fn recovery_cycles(&self) -> u64 {
        self.cycles.recovery_cycles()
    }

    /// Cycles to transfer `words` words over the backplane.
    #[inline]
    pub const fn transfer_cycles(&self, words: u32) -> u64 {
        self.cycles.transfer_cycles(words)
    }

    /// Total cycles for a read of `words` words: address + latency +
    /// transfer (Table 2, "Read Time", with the default 4-word block).
    pub const fn read_time(&self, words: u32) -> u64 {
        self.cycles.read_time(words)
    }

    /// Total cycles a write of `words` words occupies the memory before
    /// recovery: address + transfer + write operation (Table 2, "Write
    /// Time").
    pub const fn write_time(&self, words: u32) -> u64 {
        self.cycles.write_time(words)
    }

    /// Cycles a write occupies the *bus* (after which the cache proceeds
    /// while the memory completes the write internally).
    pub const fn write_bus_time(&self, words: u32) -> u64 {
        self.cycles.write_bus_time(words)
    }

    /// The paper's memory-speed product `la × tr` (latency in cycles times
    /// transfer rate in words per cycle), which section 5 shows is the sole
    /// determinant of the optimal block size.
    pub fn memory_speed_product(&self) -> f64 {
        self.latency_cycles() as f64 * self.config.transfer().words_per_cycle()
    }
}

/// A memory configuration bound to one cycle time, with every nanosecond
/// already quantized: the operation times in whole cycles, the transfer
/// rate, and the write buffer's depth, coalescing, drain delay and read
/// priority. It is everything a [`MemorySystem`](crate::MemorySystem)
/// can observe.
///
/// Equal values drive identical memory systems cycle for cycle, and fixed
/// delays quantize alike at neighbouring cycle times: the default memory
/// is 5 latency, 3 write and 3 recovery cycles at both 40 ns and 44 ns.
/// So a timing sweep can price both cycle times with one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryCycles {
    addr_cycles: u64,
    latency_cycles: u64,
    write_op_cycles: u64,
    recovery_cycles: u64,
    transfer: TransferCycles,
    pub(crate) wb_depth: u32,
    pub(crate) wb_coalesce: bool,
    pub(crate) wb_drain_delay: u64,
    pub(crate) read_priority: bool,
}

/// Division-free [`TransferRate::cycles_for_words`]: the backplane rate is
/// fixed when the timing is bound, and the quantization sits on the
/// hot path of every fill and drain, so reduce it to a shift or a multiply
/// up front (a hardware divide per call is measurable at replay rates).
///
/// [`TransferRate::cycles_for_words`]: crate::TransferRate::cycles_for_words
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TransferCycles {
    /// `WordsPerCycle(2^shift)`: ceiling division by add-then-shift.
    Shift { add: u32, shift: u32 },
    /// `CyclesPerWord(c)`: a multiply.
    Mul { c: u32 },
    /// `WordsPerCycle(n)`, `n` not a power of two: general division.
    Div { n: u32 },
}

impl MemoryCycles {
    /// Binds a memory configuration to a cycle time.
    pub fn new(config: &MemoryConfig, cycle_time: CycleTime) -> Self {
        let transfer = match config.transfer() {
            crate::TransferRate::WordsPerCycle(n) if n.is_power_of_two() => TransferCycles::Shift {
                add: n - 1,
                shift: n.trailing_zeros(),
            },
            crate::TransferRate::WordsPerCycle(n) => TransferCycles::Div { n },
            crate::TransferRate::CyclesPerWord(c) => TransferCycles::Mul { c },
        };
        MemoryCycles {
            addr_cycles: config.addr_cycles(),
            latency_cycles: cycle_time.cycles_for(config.read_op().0),
            write_op_cycles: cycle_time.cycles_for(config.write_op().0),
            recovery_cycles: cycle_time.cycles_for(config.recovery().0),
            transfer,
            wb_depth: config.wb_depth(),
            wb_coalesce: config.wb_coalesce(),
            wb_drain_delay: config.wb_drain_delay(),
            read_priority: config.read_priority(),
        }
    }

    /// Cycles for the address phase of every operation.
    pub const fn addr_cycles(&self) -> u64 {
        self.addr_cycles
    }

    /// The quantized DRAM read latency in cycles.
    pub const fn latency_cycles(&self) -> u64 {
        self.latency_cycles
    }

    /// The quantized write-operation time in cycles.
    pub const fn write_op_cycles(&self) -> u64 {
        self.write_op_cycles
    }

    /// The quantized recovery time in cycles.
    pub const fn recovery_cycles(&self) -> u64 {
        self.recovery_cycles
    }

    /// Cycles from the start of a read to its first data word: the
    /// address phase plus the DRAM latency.
    #[inline]
    pub const fn read_lead_cycles(&self) -> u64 {
        self.addr_cycles + self.latency_cycles
    }

    /// Cycles to transfer `words` words over the backplane.
    #[inline]
    pub const fn transfer_cycles(&self, words: u32) -> u64 {
        match self.transfer {
            TransferCycles::Shift { add, shift } => ((words + add) >> shift) as u64,
            TransferCycles::Mul { c } => words as u64 * c as u64,
            TransferCycles::Div { n } => words.div_ceil(n) as u64,
        }
    }

    /// Total cycles for a read of `words` words: address + latency +
    /// transfer.
    pub const fn read_time(&self, words: u32) -> u64 {
        self.read_lead_cycles() + self.transfer_cycles(words)
    }

    /// Total cycles a write of `words` words occupies the memory before
    /// recovery: address + transfer + write operation.
    pub const fn write_time(&self, words: u32) -> u64 {
        self.addr_cycles + self.transfer_cycles(words) + self.write_op_cycles
    }

    /// Cycles a write occupies the bus.
    pub const fn write_bus_time(&self, words: u32) -> u64 {
        self.addr_cycles + self.transfer_cycles(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachetime_types::Nanos;

    /// The paper's Table 2, verbatim: cycle time (ns), read time, write
    /// time, recovery time — for the default memory (180/100/120 ns) and a
    /// 4-word block at one word per cycle.
    const TABLE_2: &[(u32, u64, u64, u64)] = &[
        (20, 14, 10, 6),
        (24, 13, 10, 5),
        (28, 12, 9, 5),
        (32, 11, 9, 4),
        (36, 10, 8, 4),
        (40, 10, 8, 3),
        (48, 9, 8, 3),
        (52, 9, 7, 3),
        (60, 8, 7, 2),
    ];

    #[test]
    fn reproduces_table_2_exactly() {
        let config = MemoryConfig::paper_default();
        for &(ct_ns, read, write, recovery) in TABLE_2 {
            let t = MemoryTiming::new(&config, CycleTime::from_ns(ct_ns).unwrap());
            assert_eq!(t.read_time(4), read, "read time at {ct_ns}ns");
            assert_eq!(t.write_time(4), write, "write time at {ct_ns}ns");
            assert_eq!(t.recovery_cycles(), recovery, "recovery at {ct_ns}ns");
        }
    }

    #[test]
    fn footnote_13_260ns_latency() {
        // "A 260ns latency makes for a 12 cycle read request for a block
        // size of 4 and a cycle time of 40ns."
        let config = MemoryConfig::builder().read_op(Nanos(260)).build().unwrap();
        let t = MemoryTiming::new(&config, CycleTime::from_ns(40).unwrap());
        assert_eq!(t.read_time(4), 12);
    }

    #[test]
    fn section5_latency_grid_in_cycles() {
        // 100..420ns at 40ns/cycle quantize to 3, 5, 7, 9, 11 cycles.
        let ct = CycleTime::from_ns(40).unwrap();
        for (ns, cycles) in [(100, 3), (180, 5), (260, 7), (340, 9), (420, 11)] {
            let config = MemoryConfig::builder().read_op(Nanos(ns)).build().unwrap();
            assert_eq!(MemoryTiming::new(&config, ct).latency_cycles(), cycles);
        }
    }

    #[test]
    fn miss_penalty_rises_as_cycle_time_falls() {
        // The hidden variable of section 6: 20ns -> 14 cycles, 80ns -> 8.
        let config = MemoryConfig::paper_default();
        let at = |ns| MemoryTiming::new(&config, CycleTime::from_ns(ns).unwrap()).read_time(4);
        assert_eq!(at(20), 14);
        assert_eq!(at(80), 8);
        let mut prev = u64::MAX;
        for ns in (20..=80).step_by(4) {
            let now = at(ns);
            assert!(now <= prev, "read cycles must not increase with cycle time");
            prev = now;
        }
    }

    #[test]
    fn bus_time_excludes_write_op() {
        let config = MemoryConfig::paper_default();
        let t = MemoryTiming::new(&config, CycleTime::from_ns(40).unwrap());
        assert_eq!(t.write_bus_time(4), 5); // 1 addr + 4 transfer
        assert_eq!(t.write_time(4), t.write_bus_time(4) + t.write_op_cycles());
    }

    #[test]
    fn memory_speed_product() {
        let config = MemoryConfig::paper_default();
        let t = MemoryTiming::new(&config, CycleTime::from_ns(40).unwrap());
        assert_eq!(t.memory_speed_product(), 5.0); // la=5, tr=1
        let fast_bus = MemoryConfig::builder()
            .transfer(crate::TransferRate::WordsPerCycle(4))
            .build()
            .unwrap();
        let t = MemoryTiming::new(&fast_bus, CycleTime::from_ns(40).unwrap());
        assert_eq!(t.memory_speed_product(), 20.0);
    }
}
