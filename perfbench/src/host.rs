//! Host speed calibration.
//!
//! The benchmark runs on small virtual machines whose physical cores
//! other tenants share. On the 2-vCPU machine it was defined on, their
//! load slowed the program in two ways, each by up to 2× for minutes at a
//! time, and ten runs of one workload spread by 15–45% however each run
//! was summarised (the README gives the numbers). Within a run a slow host
//! looks exactly like a slow program; measurements beside the program
//! tell them apart.
//!
//! * **Slower cores.** Neighbours on the same physical core and cache
//!   make every instruction slower. Before each timed pass and each
//!   set-up, while the program is idle, the benchmark times [`kernel`] —
//!   its own code, which no change to the program can move — on as many
//!   threads as the workload keeps busy.
//! * **Stolen time.** The hypervisor takes a virtual CPU away for whole
//!   time slices. The guest kernel counts that time per CPU as `steal` in
//!   `/proc/stat`, and leaves it out of each thread's CPU time. So the
//!   kernel is timed in thread CPU time, which stolen slices do not
//!   inflate, and the stolen share is read from `/proc/stat` for the
//!   stretch as a whole.
//!
//! A time measured over a stretch of the run is reported at quiet-host
//! speed, `raw × speed`, where `speed` is `QUIET_KERNEL_US` over the
//! median kernel time of the stretch, times the stretch's
//! [availability](Coupling): the share of it the program's CPUs were its
//! own. On a quiet host `speed` is about 1 and calibrated times equal raw
//! ones. Raw times are printed and saved beside the calibrated ones.
//!
//! The kernel runs right after a pass has evicted its table from the
//! cache, so it also feels the memory system's contention, as the
//! simulator does. One median per stretch, not one factor per pass,
//! because a single kernel run is itself noisy and sweep's passes are few.

use crate::stats::median;
use std::sync::Mutex;

/// The kernel's time on a quiet host: about the 10th percentile of the
/// median kernel times of 160 runs (40 per workload) on the 2-vCPU
/// machine the benchmark was defined on. Per workload, the median of
/// those run medians was 1,190–1,420 µs and their maximum 1,680–2,060 µs.
pub const QUIET_KERNEL_US: f64 = 1_100.0;

/// The least share of a stretch a CPU is taken to have been the
/// program's own.
const MIN_AVAILABLE: f64 = 0.1;

/// 1 MiB of table per thread: about one core's share of the cache, so the
/// kernel feels cache contention from neighbours as the simulator does.
const TABLE_WORDS: usize = 1 << 17;

/// Steps of one kernel run, about a millisecond on a quiet host.
const KERNEL_STEPS: usize = 200_000;

/// How a stretch's work depends on the CPUs it may run on, which decides
/// how much time stolen from them slows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coupling {
    /// The work divides among the CPUs: one thread, or workers that take
    /// tasks from one queue. Its availability is one minus the mean share
    /// of time stolen from them.
    Shared,
    /// Every operation passes through threads on each of the CPUs: on
    /// serve-cold, both clients' requests go through the server's one
    /// loop thread, and each round waits for both clients. It progresses
    /// only while all the CPUs run, so its availability is the product of
    /// each CPU's. In 22 runs of serve-cold with 0–44% of time stolen, the
    /// raw request rate over this product spread by 0.04; over the mean,
    /// by 0.24 (the README has the study).
    Chained,
}

/// Times the reference kernel and the time stolen from the CPUs, and
/// keeps every sample.
#[derive(Debug)]
pub struct HostClock {
    /// One table per calibration thread.
    tables: Mutex<Vec<Vec<u64>>>,
    /// Kernel time of each calibration, in microseconds (the mean over
    /// its threads).
    samples: Mutex<Vec<f64>>,
    /// `/proc/stat` counters of the CPUs the program may run on, read at
    /// each calibration.
    marks: Mutex<Vec<Vec<CpuTicks>>>,
    /// Which CPUs those are.
    cpus: Vec<usize>,
    coupling: Coupling,
}

impl HostClock {
    /// A clock that calibrates on `threads` threads at once, for work on
    /// the CPUs this thread may run on, coupled as `coupling` says.
    pub fn new(threads: usize, coupling: Coupling) -> HostClock {
        // Written once so the kernel never pays for first-touch faults.
        let tables = (0..threads.max(1))
            .map(|t| (0..TABLE_WORDS as u64).map(|i| i ^ t as u64).collect())
            .collect();
        HostClock {
            tables: Mutex::new(tables),
            samples: Mutex::new(Vec::new()),
            marks: Mutex::new(Vec::new()),
            cpus: allowed_cpus(),
            coupling,
        }
    }

    /// Runs the kernel once on every thread at the same time and records
    /// its time, and reads the CPUs' counters. One thread runs on the
    /// caller's own thread (and so on its CPU); more are spawned, the
    /// `i`-th pinned to the clock's `i`-th CPU, so that each CPU the work
    /// runs on is timed, not one of them twice.
    pub fn calibrate(&self) {
        let ticks = cpu_ticks(&self.cpus);
        self.marks
            .lock()
            .expect("calibration lock poisoned")
            .push(ticks);
        let mut tables = self.tables.lock().expect("calibration lock poisoned");
        let times: Vec<f64> = if let [table] = tables.as_mut_slice() {
            vec![kernel(table)]
        } else {
            std::thread::scope(|s| {
                let runs: Vec<_> = tables
                    .iter_mut()
                    .enumerate()
                    .map(|(i, t)| {
                        let cpu = (!self.cpus.is_empty()).then(|| self.cpus[i % self.cpus.len()]);
                        s.spawn(move || {
                            if let Some(cpu) = cpu {
                                pin_current_thread(&[cpu]);
                            }
                            kernel(t)
                        })
                    })
                    .collect();
                runs.into_iter()
                    .map(|r| r.join().expect("the kernel does not panic"))
                    .collect()
            })
        };
        let us = times.iter().sum::<f64>() / times.len() as f64;
        self.samples
            .lock()
            .expect("calibration lock poisoned")
            .push(us);
    }

    /// Every kernel time measured so far, in microseconds.
    pub fn samples(&self) -> Vec<f64> {
        self.samples
            .lock()
            .expect("calibration lock poisoned")
            .clone()
    }

    /// The host's speed over the stretch from the `from`-th calibration
    /// to now: `QUIET_KERNEL_US` over the stretch's median kernel time,
    /// times its [`availability_since`](Self::availability_since); 1 if
    /// the stretch had no calibration.
    pub fn speed_since(&self, from: usize) -> f64 {
        let samples = self.samples();
        match samples.get(from..) {
            Some(stretch) if !stretch.is_empty() => {
                QUIET_KERNEL_US / median(stretch) * self.availability_since(from)
            }
            _ => 1.0,
        }
    }

    /// The share of the stretch from the `from`-th calibration to now
    /// that the CPUs were the program's own, combined as the clock's
    /// [`Coupling`] says; 1 when `/proc/stat` could not be read.
    pub fn availability_since(&self, from: usize) -> f64 {
        let marks = self.marks.lock().expect("calibration lock poisoned");
        let Some(start) = marks.get(from) else {
            return 1.0;
        };
        let end = cpu_ticks(&self.cpus);
        let kept: Vec<f64> = start
            .iter()
            .zip(&end)
            .filter_map(|(a, b)| {
                let total = b.total.checked_sub(a.total).filter(|&t| t > 0)?;
                let stolen = b.steal.saturating_sub(a.steal);
                // Counters tick every 10 ms, so a stretch of a few ticks
                // can read as wholly stolen; no stretch timed was.
                Some((1.0 - stolen as f64 / total as f64).max(MIN_AVAILABLE))
            })
            .collect();
        if kept.is_empty() {
            return 1.0;
        }
        match self.coupling {
            Coupling::Shared => kept.iter().sum::<f64>() / kept.len() as f64,
            Coupling::Chained => kept.iter().product(),
        }
    }
}

/// One CPU's `/proc/stat` counters, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CpuTicks {
    /// Time in every state, stolen time included.
    total: u64,
    /// Time the hypervisor ran something else while this CPU had work.
    steal: u64,
}

/// The counters of each of `cpus` (empty if `/proc/stat` cannot be read
/// or lacks one of them).
fn cpu_ticks(cpus: &[usize]) -> Vec<CpuTicks> {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return Vec::new();
    };
    cpus.iter()
        .map(|cpu| {
            let name = format!("cpu{cpu}");
            let line = stat
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name.as_str()))?;
            parse_cpu_line(line)
        })
        .collect::<Option<_>>()
        .unwrap_or_default()
}

/// Parses a `cpuN user nice system idle iowait irq softirq steal ...`
/// line. `guest` time, which follows, is already counted in `user`.
fn parse_cpu_line(line: &str) -> Option<CpuTicks> {
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let steal = *fields.get(7)?;
    Some(CpuTicks {
        total: fields.iter().sum(),
        steal,
    })
}

/// Keeps the calling thread, and every thread it starts from now on, on
/// `cpus`. Best effort: on failure, or given no CPU, the thread stays where
/// it may run now.
pub fn pin_current_thread(cpus: &[usize]) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1,024 CPUs.
    let mut mask = [0u64; 16];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    if mask == [0; 16] {
        return;
    }
    // SAFETY: `sched_setaffinity` reads `cpusetsize` bytes from `mask`,
    // which is exactly the initialized array passed; pid 0 names the
    // calling thread. The call has no other memory effects.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// The CPUs this thread may run on, from `/proc/thread-self/status`;
/// none if it cannot be read, which leaves availability at 1 and threads
/// unpinned.
pub fn allowed_cpus() -> Vec<usize> {
    std::fs::read_to_string("/proc/thread-self/status")
        .ok()
        .and_then(|status| {
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            parse_cpu_list(list.trim())
        })
        .unwrap_or_default()
}

/// Parses a CPU list such as `0`, `0-1` or `0,2-3`.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        match part.split_once('-') {
            Some((a, b)) => cpus.extend(a.parse::<usize>().ok()?..=b.parse().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    Some(cpus)
}

/// This thread's CPU time in nanoseconds. Time the hypervisor stole while
/// the thread was running is not counted.
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for) through the
    // pointer, which points to a live, writable `Timespec` of that layout.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU-time clock is always available");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// The reference work, timed in microseconds of thread CPU time:
/// SplitMix64 steps that each read, test and rewrite one pseudo-random
/// table word — hashing, unpredictable branches and cache misses, as in a
/// cache simulator.
pub fn kernel(table: &mut [u64]) -> f64 {
    let mask = table.len() - 1;
    assert!(table.len().is_power_of_two(), "the table indexes by mask");
    let started = thread_cpu_ns();
    let mut x = 0x5EED_u64;
    let mut acc = 0u64;
    for _ in 0..KERNEL_STEPS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let i = (z >> 40) as usize & mask;
        let v = table[i];
        if v & 1 == 0 {
            acc = acc.wrapping_add(v);
        } else {
            acc ^= v.rotate_left(7);
        }
        table[i] = v.wrapping_add(z);
    }
    std::hint::black_box(acc);
    (thread_cpu_ns() - started) as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_quiet_time_over_the_median_kernel_time_times_availability() {
        for (threads, coupling) in [(1, Coupling::Shared), (2, Coupling::Chained)] {
            let clock = HostClock::new(threads, coupling);
            assert_eq!(clock.speed_since(0), 1.0, "no calibration yet");
            for _ in 0..3 {
                clock.calibrate();
            }
            let samples = clock.samples();
            assert_eq!(samples.len(), 3);
            assert!(samples.iter().all(|&us| us > 0.0));
            let available = clock.availability_since(1);
            assert!((MIN_AVAILABLE..=1.0).contains(&available));
            let speed = clock.speed_since(1);
            let kernel_speed = QUIET_KERNEL_US / median(&samples[1..]);
            assert!(speed <= kernel_speed && speed >= MIN_AVAILABLE * MIN_AVAILABLE * kernel_speed);
            assert_eq!(clock.speed_since(3), 1.0, "an empty stretch");
        }
    }

    #[test]
    fn proc_stat_lines_and_cpu_lists_parse() {
        let t = parse_cpu_line("cpu1 939855 0 81300 1211158 18243 0 12347 14046 5 0").unwrap();
        assert_eq!(t.steal, 14046);
        assert_eq!(t.total, 939855 + 81300 + 1211158 + 18243 + 12347 + 14046);
        assert_eq!(parse_cpu_line("cpu1 1 2 3"), None);
        assert_eq!(parse_cpu_list("0"), Some(vec![0]));
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0,2-3"), Some(vec![0, 2, 3]));
        assert_eq!(parse_cpu_list("x"), None);
        assert!(!allowed_cpus().is_empty());
    }

    #[test]
    fn a_pinned_thread_runs_only_where_it_was_pinned() {
        let last = *allowed_cpus().last().expect("the test runs somewhere");
        let (pinned, started) = std::thread::spawn(move || {
            pin_current_thread(&[last]);
            let started = std::thread::spawn(allowed_cpus).join().unwrap();
            (allowed_cpus(), started)
        })
        .join()
        .unwrap();
        assert_eq!(pinned, [last]);
        assert_eq!(started, [last], "threads it starts inherit the pin");
    }
}
