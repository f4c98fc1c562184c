//! Figure 5-2: execution time versus block size and memory parameters.
//!
//! "The latency … is varied from 100ns (three 40ns cycles) to 420ns
//! (eleven 40ns cycles) … The transfer rate is varied over a range of
//! four words in one cycle to one word in four cycles" — peak bandwidths
//! of 400 MB/s down to 25 MB/s.

use crate::runner::{aggregate, TraceSet, BLOCK_WORDS, MEM_LATENCIES_NS};
use cachetime::{replay_many, BehavioralSim, SimResult, SystemConfig};
use cachetime_analysis::table::Table;
use cachetime_cache::CacheConfig;
use cachetime_mem::{MemoryConfig, TransferRate};
use cachetime_types::{BlockWords, CacheSize, Nanos};

/// The paper's transfer-rate sweep, fastest first.
pub const TRANSFER_RATES: [TransferRate; 5] = [
    TransferRate::WordsPerCycle(4),
    TransferRate::WordsPerCycle(2),
    TransferRate::WordsPerCycle(1),
    TransferRate::CyclesPerWord(2),
    TransferRate::CyclesPerWord(4),
];

/// One curve: a (latency, transfer-rate) pairing swept over block sizes.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Memory latency (read = write = recovery), ns.
    pub latency_ns: u64,
    /// Backplane transfer rate.
    pub transfer: TransferRate,
    /// Block sizes sampled (words).
    pub block_words: Vec<u32>,
    /// Execution time per reference (ns) per block size.
    pub time_per_ref_ns: Vec<f64>,
}

impl Curve {
    /// The memory-speed product `la × tr` at the 40 ns clock.
    pub fn memory_speed_product(&self) -> f64 {
        let la = (self.latency_ns as f64 / 40.0).ceil();
        la * self.transfer.words_per_cycle()
    }
}

/// Sweeps all 25 (latency, transfer) pairings over the block sizes.
pub fn run(traces: &TraceSet) -> Vec<Curve> {
    run_over(traces, &MEM_LATENCIES_NS, &TRANSFER_RATES, &BLOCK_WORDS)
}

/// [`run`] on a worker pool (`jobs == 0` = available parallelism).
pub fn run_jobs(traces: &TraceSet, jobs: usize) -> Vec<Curve> {
    run_over_jobs(
        traces,
        &MEM_LATENCIES_NS,
        &TRANSFER_RATES,
        &BLOCK_WORDS,
        jobs,
    )
}

/// Sweeps explicit axes.
pub fn run_over(
    traces: &TraceSet,
    latencies_ns: &[u64],
    transfers: &[TransferRate],
    blocks: &[u32],
) -> Vec<Curve> {
    run_over_jobs(traces, latencies_ns, transfers, blocks, 1)
}

/// One `(block size, trace)` unit of work in the sweep: the block size is
/// the *organization* axis, so one behavioral pass per task covers every
/// (latency, transfer) pairing via timing replay.
#[derive(Debug, Clone, Copy)]
struct CurveTask {
    block_words: u32,
    trace: usize,
}

/// [`run_over`] on a worker pool. Tasks fan out one per
/// `(block size, trace)` pair; each records the trace's behavioral events
/// once and reprices them under every (latency, transfer) memory, so the
/// memory axes cost a replay per point instead of a full simulation.
/// Curves are reassembled in input order and replay is bit-identical to
/// direct simulation, so the output matches the old per-triple path for
/// every job count.
pub fn run_over_jobs(
    traces: &TraceSet,
    latencies_ns: &[u64],
    transfers: &[TransferRate],
    blocks: &[u32],
    jobs: usize,
) -> Vec<Curve> {
    let n_traces = traces.traces().len();
    let mut tasks = Vec::with_capacity(blocks.len() * n_traces);
    for &bw in blocks {
        for trace in 0..n_traces {
            tasks.push(CurveTask {
                block_words: bw,
                trace,
            });
        }
    }
    let run = crate::sweep::run(&tasks, jobs, |_idx, task| {
        let l1 = CacheConfig::builder(CacheSize::from_kib(64).expect("power of two"))
            .block(BlockWords::new(task.block_words).expect("power of two"))
            .build()
            .expect("valid cache");
        let mk = |lat: u64, tr: TransferRate| {
            let memory = MemoryConfig::uniform_latency(Nanos(lat), tr).expect("valid memory");
            SystemConfig::builder()
                .l1_both(l1)
                .memory(memory)
                .build()
                .expect("valid system")
        };
        let mut configs = Vec::with_capacity(latencies_ns.len() * transfers.len());
        for &lat in latencies_ns {
            for &tr in transfers {
                configs.push(mk(lat, tr));
            }
        }
        let events =
            BehavioralSim::new(&configs[0].organization()).record(&traces.traces()[task.trace]);
        replay_many(&events, &configs).expect("same organization")
    })
    .expect("simulation does not panic");

    let mut curves = Vec::new();
    for (p, (&lat, &tr)) in latencies_ns
        .iter()
        .flat_map(|lat| transfers.iter().map(move |tr| (lat, tr)))
        .enumerate()
    {
        let time_per_ref_ns = blocks
            .iter()
            .enumerate()
            .map(|(bi, _)| {
                let cell: Vec<SimResult> = (0..n_traces)
                    .map(|t| run.results[bi * n_traces + t][p])
                    .collect();
                aggregate(&cell).time_per_ref_ns
            })
            .collect();
        curves.push(Curve {
            latency_ns: lat,
            transfer: tr,
            block_words: blocks.to_vec(),
            time_per_ref_ns,
        });
    }
    curves
}

/// Renders every curve, normalized to the global best point.
pub fn render(curves: &[Curve]) -> String {
    let base = curves
        .iter()
        .flat_map(|c| &c.time_per_ref_ns)
        .copied()
        .fold(f64::INFINITY, f64::min);
    let blocks = &curves.first().expect("nonempty").block_words;
    let mut headers = vec!["latency".to_string(), "transfer".to_string()];
    headers.extend(blocks.iter().map(|b| format!("{b}W")));
    let mut t = Table::new(headers);
    for c in curves {
        let mut row = vec![format!("{}ns", c.latency_ns), c.transfer.to_string()];
        row.extend(
            c.time_per_ref_ns
                .iter()
                .map(|&v| format!("{:.3}", v / base)),
        );
        t.row(row);
    }
    format!("Figure 5-2: execution time vs block size and memory parameters\n{t}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slower_memory_is_slower_and_blocks_have_interior_optimum() {
        let traces = TraceSet::quick();
        let curves = run_over(
            &traces,
            &[100, 420],
            &[TransferRate::WordsPerCycle(1)],
            &[1, 4, 32, 128],
        );
        assert_eq!(curves.len(), 2);
        let (fast, slow) = (&curves[0], &curves[1]);
        for (f, s) in fast.time_per_ref_ns.iter().zip(&slow.time_per_ref_ns) {
            assert!(f < s, "higher latency must cost time");
        }
        // Huge blocks are bad: the transfer term dominates.
        let last = *fast.time_per_ref_ns.last().unwrap();
        let mid = fast.time_per_ref_ns[1];
        assert!(last > mid, "128W blocks must lose to 4W");
        assert!(render(&curves).contains("latency"));
    }

    #[test]
    fn memory_speed_product_matches_paper_quantization() {
        let c = Curve {
            latency_ns: 260,
            transfer: TransferRate::WordsPerCycle(2),
            block_words: vec![],
            time_per_ref_ns: vec![],
        };
        assert_eq!(c.memory_speed_product(), 14.0); // ceil(260/40)=7, tr=2
    }
}
