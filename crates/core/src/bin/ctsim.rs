//! `ctsim` — run one machine configuration over one or more traces and
//! print the full report, dinero-style.
//!
//! ```text
//! ctsim [options] (--din FILE | --workload NAMES)
//!
//!   --din FILE          din-format trace (0=read, 1=write, 2=ifetch, hex bytes)
//!   --workload NAMES    synthetic catalog trace(s): one name, a
//!                       comma-separated list, or `all` (mu3 mu6 mu10 savec
//!                       rd1n3 rd2n4 rd1n5 rd2n7)
//!   --jobs N            workers for multi-workload runs (default: all
//!                       cores; results are identical for every N)
//!   --scale F           catalog scale factor (default 0.1)
//!   --warm N            warm-start reference index for --din (default 0)
//!   --size KB           per-cache L1 size (default 64)
//!   --block W           block size in words (default 4)
//!   --assoc N           set associativity (default 1)
//!   --ct NS             cycle time (default 40)
//!   --unified           one unified L1 instead of split I/D
//!   --l2 KB             add a unified L2 of this size
//!   --mem-latency NS    DRAM read-operation time (default 180)
//!   --single-issue      serialize couplet halves
//!   --early-continuation resume on requested-word arrival
//!   --stream            stream a --din file through the simulator without
//!                       materializing it (skips the trace summary line)
//!   --histogram         print the couplet-latency histogram
//!   --profile PATH      append span timings (record/replay/sweep phases)
//!                       as JSONL trace records to PATH
//! ```

use cachetime::{simulate, sweep, LevelTwoConfig, SimResult, Simulator, SystemConfig};
use cachetime_cache::CacheConfig;
use cachetime_mem::MemoryConfig;
use cachetime_trace::{catalog, io::read_din_trace, io::DinIter, Trace, WorkloadSpec};
use cachetime_types::{Assoc, BlockWords, CacheSize, CycleTime, Nanos};
use std::process::ExitCode;

#[derive(Debug)]
struct Options {
    din: Option<std::path::PathBuf>,
    workload: Option<String>,
    jobs: usize,
    scale: f64,
    warm: usize,
    size_kb: u64,
    block_words: u32,
    assoc: u32,
    ct_ns: u32,
    unified: bool,
    l2_kb: Option<u64>,
    mem_latency_ns: u64,
    single_issue: bool,
    early_continuation: bool,
    stream: bool,
    histogram: bool,
    profile: Option<std::path::PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            din: None,
            workload: None,
            jobs: 0,
            scale: 0.1,
            warm: 0,
            size_kb: 64,
            block_words: 4,
            assoc: 1,
            ct_ns: 40,
            unified: false,
            l2_kb: None,
            mem_latency_ns: 180,
            single_issue: false,
            early_continuation: false,
            stream: false,
            histogram: false,
            profile: None,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    parse_args_from(std::env::args().skip(1))
}

fn parse_args_from(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options::default();
    let mut args = args;
    fn value<T: std::str::FromStr>(
        args: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|e| format!("bad value for {flag}: {e}"))
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--din" => o.din = Some(value::<String>(&mut args, "--din")?.into()),
            "--workload" => o.workload = Some(value(&mut args, "--workload")?),
            "--jobs" => o.jobs = value(&mut args, "--jobs")?,
            "--scale" => o.scale = value(&mut args, "--scale")?,
            "--warm" => o.warm = value(&mut args, "--warm")?,
            "--size" => o.size_kb = value(&mut args, "--size")?,
            "--block" => o.block_words = value(&mut args, "--block")?,
            "--assoc" => o.assoc = value(&mut args, "--assoc")?,
            "--ct" => o.ct_ns = value(&mut args, "--ct")?,
            "--unified" => o.unified = true,
            "--l2" => o.l2_kb = Some(value(&mut args, "--l2")?),
            "--mem-latency" => o.mem_latency_ns = value(&mut args, "--mem-latency")?,
            "--single-issue" => o.single_issue = true,
            "--early-continuation" => o.early_continuation = true,
            "--stream" => o.stream = true,
            "--histogram" => o.histogram = true,
            "--profile" => o.profile = Some(value::<String>(&mut args, "--profile")?.into()),
            "--help" | "-h" => {
                return Err("see the doc comment at the top of ctsim.rs or README".into())
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    if o.din.is_some() == o.workload.is_some() {
        return Err("exactly one of --din and --workload is required".into());
    }
    Ok(o)
}

/// The catalog workload names, in canonical order (`--workload all`).
const CATALOG_NAMES: [&str; 8] = [
    "mu3", "mu6", "mu10", "savec", "rd1n3", "rd2n4", "rd1n5", "rd2n7",
];

fn workload_spec(name: &str, scale: f64) -> Result<WorkloadSpec, String> {
    Ok(match name {
        "mu3" => catalog::mu3(scale),
        "mu6" => catalog::mu6(scale),
        "mu10" => catalog::mu10(scale),
        "savec" => catalog::savec(scale),
        "rd1n3" => catalog::rd1n3(scale),
        "rd2n4" => catalog::rd2n4(scale),
        "rd1n5" => catalog::rd1n5(scale),
        "rd2n7" => catalog::rd2n7(scale),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Expands the `--workload` argument into catalog specs: a single name,
/// a comma-separated list, or `all`.
fn workload_specs(o: &Options) -> Result<Vec<WorkloadSpec>, String> {
    let raw = o.workload.as_deref().expect("checked by parse_args");
    if raw == "all" {
        return CATALOG_NAMES
            .iter()
            .map(|n| workload_spec(n, o.scale))
            .collect();
    }
    raw.split(',')
        .filter(|n| !n.is_empty())
        .map(|n| workload_spec(n, o.scale))
        .collect::<Result<Vec<_>, _>>()
        .and_then(|specs| {
            if specs.is_empty() {
                Err("--workload needs at least one name".into())
            } else {
                Ok(specs)
            }
        })
}

fn load_trace(o: &Options) -> Result<Trace, String> {
    if let Some(path) = &o.din {
        return read_din_trace(path, &path.display().to_string(), o.warm)
            .map_err(|e| e.to_string());
    }
    let specs = workload_specs(o)?;
    if specs.len() != 1 {
        return Err("load_trace expects exactly one workload".into());
    }
    Ok(specs[0].generate())
}

fn build_system(o: &Options) -> Result<SystemConfig, String> {
    let err = |e: cachetime_types::ConfigError| e.to_string();
    let l1 = CacheConfig::builder(CacheSize::from_kib(o.size_kb).map_err(err)?)
        .block(BlockWords::new(o.block_words).map_err(err)?)
        .assoc(Assoc::new(o.assoc).map_err(err)?)
        .build()
        .map_err(err)?;
    let memory = MemoryConfig::builder()
        .read_op(Nanos(o.mem_latency_ns))
        .build()
        .map_err(err)?;
    let mut b = SystemConfig::builder();
    b.cycle_time(CycleTime::from_ns(o.ct_ns).map_err(err)?)
        .l1_both(l1)
        .unified(o.unified)
        .memory(memory)
        .dual_issue(!o.single_issue)
        .early_continuation(o.early_continuation);
    if let Some(kb) = o.l2_kb {
        let l2block = BlockWords::new(o.block_words.max(16)).map_err(err)?;
        let l2 = CacheConfig::builder(CacheSize::from_kib(kb).map_err(err)?)
            .block(l2block)
            .build()
            .map_err(err)?;
        b.l2(LevelTwoConfig::new(l2));
    }
    b.build().map_err(err)
}

/// Streams a din file straight into the simulator at constant memory.
fn run_streaming(o: &Options, config: &SystemConfig) -> Result<SimResult, String> {
    let Some(path) = &o.din else {
        return Err("--stream requires --din".into());
    };
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let reader = std::io::BufReader::new(file);
    let mut failure: Option<String> = None;
    let refs = DinIter::new(reader).map_while(|r| match r {
        Ok(m) => Some(m),
        Err(e) => {
            failure = Some(e.to_string());
            None
        }
    });
    println!("trace:    {} (streamed)", path.display());
    let result = Simulator::new(config).run_refs(refs, o.warm);
    match failure {
        Some(e) => Err(e),
        None => Ok(result),
    }
}

fn report(r: &SimResult, histogram: bool) {
    println!();
    println!("cycles            {}", r.cycles.0);
    println!("couplets          {}", r.couplets);
    println!("cycles/ref        {:.4}", r.cycles_per_ref());
    println!("time/ref          {:.2} ns", r.time_per_ref_ns());
    println!("execution time    {}", r.exec_time());
    println!(
        "hierarchy stalls  {:.4} cycles/ref ({:.1}% of all cycles)",
        r.stalls_per_ref(),
        100.0 * r.stall_fraction()
    );
    println!();
    println!("read miss ratio   {:.4}%", 100.0 * r.read_miss_ratio());
    println!("  ifetch          {:.4}%", 100.0 * r.ifetch_miss_ratio());
    println!("  load            {:.4}%", 100.0 * r.load_miss_ratio());
    println!("read traffic      {:.4} words/ref", r.read_traffic_ratio());
    println!(
        "write traffic     {:.4} (blocks) / {:.4} (dirty words)",
        r.write_traffic_ratio_block(),
        r.write_traffic_ratio_dirty()
    );
    if let Some(l2) = r.l2 {
        println!(
            "L2                {} reads, {:.4}% miss",
            l2.reads,
            100.0 * l2.read_miss_ratio()
        );
    }
    println!(
        "memory            {} reads, {} writes, {} read-match stalls",
        r.mem.reads, r.mem.writes, r.mem.read_match_stalls
    );
    if histogram {
        println!("\n{}", r.latency);
    }
}

/// Runs several catalog workloads through one configuration on the sweep
/// executor and prints a report per workload, in catalog-argument order.
fn run_workloads(o: &Options, config: &SystemConfig, specs: &[WorkloadSpec]) -> Result<(), String> {
    let run = sweep::run(specs, o.jobs, |_idx, spec| {
        let trace = spec.generate();
        let stats = trace.stats().to_string();
        (stats, simulate(config, &trace))
    })
    .map_err(|e| e.to_string())?;
    let mut total_refs = 0u64;
    for ((spec, (stats, r)), task_time) in specs.iter().zip(&run.results).zip(&run.task_times) {
        println!();
        println!("=== {} [{task_time:.1?}] ===", spec.name);
        println!("trace:    {} ({stats})", spec.name);
        total_refs += r.refs;
        report(r, o.histogram);
    }
    eprintln!(
        "[{} workloads on {} workers in {:.1?}; {:.0} refs/sec simulated]",
        specs.len(),
        run.jobs,
        run.wall_time,
        run.throughput(total_refs)
    );
    Ok(())
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let config = match build_system(&o) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &o.profile {
        match cachetime_obs::JsonlSink::create(path) {
            Ok(sink) => cachetime_obs::global().set_sink(Some(std::sync::Arc::new(sink))),
            Err(e) => {
                eprintln!("cannot open profile file {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("machine:  {config}");
    if o.stream {
        match run_streaming(&o, &config) {
            Ok(r) => report(&r, o.histogram),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else if o.din.is_some() {
        let trace = match load_trace(&o) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        println!("trace:    {} ({})", trace.name(), trace.stats());
        report(&simulate(&config, &trace), o.histogram);
    } else {
        let specs = match workload_specs(&o) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        if let [spec] = specs.as_slice() {
            // Single workload: identical output shape to earlier versions.
            let trace = spec.generate();
            println!("trace:    {} ({})", trace.name(), trace.stats());
            report(&simulate(&config, &trace), o.histogram);
        } else if let Err(e) = run_workloads(&o, &config, &specs) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn requires_exactly_one_source() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--din", "x", "--workload", "mu3"]).is_err());
        assert!(parse(&["--workload", "mu3"]).is_ok());
        assert!(parse(&["--din", "x.din"]).is_ok());
    }

    #[test]
    fn flags_round_trip() {
        let o = parse(&[
            "--workload",
            "savec",
            "--size",
            "16",
            "--block",
            "8",
            "--assoc",
            "2",
            "--ct",
            "32",
            "--l2",
            "256",
            "--mem-latency",
            "260",
            "--single-issue",
            "--early-continuation",
            "--stream",
            "--histogram",
            "--warm",
            "100",
            "--profile",
            "spans.jsonl",
        ])
        .unwrap();
        assert_eq!(o.size_kb, 16);
        assert_eq!(o.block_words, 8);
        assert_eq!(o.assoc, 2);
        assert_eq!(o.ct_ns, 32);
        assert_eq!(o.l2_kb, Some(256));
        assert_eq!(o.mem_latency_ns, 260);
        assert!(o.single_issue && o.early_continuation && o.stream && o.histogram);
        assert_eq!(o.warm, 100);
        assert_eq!(
            o.profile.as_deref(),
            Some(std::path::Path::new("spans.jsonl"))
        );
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(parse(&["--workload", "mu3", "--size", "abc"]).is_err());
        assert!(parse(&["--workload", "mu3", "--size"]).is_err());
        assert!(parse(&["--workload", "mu3", "--bogus"]).is_err());
    }

    #[test]
    fn build_system_validates() {
        let mut o = parse(&["--workload", "mu3"]).unwrap();
        o.size_kb = 3; // not a power of two
        assert!(build_system(&o).is_err());
        o.size_kb = 64;
        assert!(build_system(&o).is_ok());
    }

    #[test]
    fn load_trace_rejects_unknown_workload() {
        let o = parse(&["--workload", "nonesuch"]).unwrap();
        assert!(load_trace(&o).is_err());
    }
}
