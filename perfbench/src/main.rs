//! `cachetime-perfbench`: the command `BENCHMARK.json` names.
//!
//! ```text
//! cachetime-perfbench run --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]
//! cachetime-perfbench compare <dirA> <dirB>
//! ```
//!
//! `run` prints `<workload> <metric> <value> <unit>` for every metric
//! (untraced, also each as measured before host calibration, as
//! `<metric>.raw`), the host's kernel time and availability, the results digest, and last
//! one JSON line with `correct`, `attempted`, `failed` and `metrics`. It saves the same report as
//! `<out>/<workload>-<e2e|trace>-<seed>-<pid>.json`, and in a traced run
//! the spans as `<out>/<workload>-<seed>.spans.jsonl`. `<out>`
//! defaults to `perfbench/` inside the Cargo target directory.

use cachetime_perfbench::spans::{write_jsonl_file, Collector};
use cachetime_perfbench::spec::Spec;
use cachetime_perfbench::workloads::{run_full, RunOptions, WORKLOADS};
use cachetime_perfbench::{compare, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage:
  cachetime-perfbench run --workload <sweep|serve-warm|serve-cold|ingest> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]
  cachetime-perfbench compare <dirA> <dirB>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_dirs(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("cachetime-perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Parses a decimal or `0x`-prefixed hexadecimal seed.
fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("--seed takes an integer, not {s:?}"))
}

/// `<target>/perfbench`, next to the binary's own `release/` directory.
fn default_out() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    exe.parent()
        .and_then(|release| release.parent())
        .expect("the binary lies in <target>/<profile>/")
        .join("perfbench")
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut seed = 0xBEEF;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut out_dir = default_out();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = parse_seed(value()?)?,
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or(format!("--seconds takes a positive number, not {v:?}"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let spec = Spec::compiled();
    let work_dir = out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let opts = RunOptions {
        seed,
        seconds,
        traced,
        work_dir: work_dir.clone(),
    };

    let collector = traced.then(|| Arc::new(Collector::default()));
    let obs = cachetime_obs::global();
    if let Some(c) = &collector {
        obs.set_sink(Some(c.clone()));
    }
    let outcome = run_full(&workload, &opts, collector.as_deref());
    obs.set_sink(None);
    let _ = std::fs::remove_dir_all(&work_dir);

    let report = Report::new(&spec, &workload, seed, traced, &outcome);
    for m in spec.metrics(traced) {
        println!(
            "{workload} {} {} {}",
            m.name, report.metrics[&m.name], m.unit
        );
    }
    for m in spec.metrics(traced) {
        if let Some(raw) = report.raw.get(&m.name) {
            println!("{workload} {}.raw {raw} {}", m.name, m.unit);
        }
    }
    println!("{workload} host.kernel_us {} us", report.kernel_us);
    println!("{workload} host.available {} frac", report.available);
    println!(
        "{workload} results_digest {} over {} results; {} of {} checks agreed",
        report.results_digest,
        outcome.digest.count,
        outcome.checks - outcome.checks_failed,
        outcome.checks
    );
    let stem = format!(
        "{workload}-{}-{seed}-{}",
        if traced { "trace" } else { "e2e" },
        std::process::id()
    );
    let saved = out_dir.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&saved, report.to_json().pretty()) {
        eprintln!("cachetime-perfbench: cannot save {}: {e}", saved.display());
    }
    if traced {
        let trees: Vec<_> = outcome.trees.iter().collect();
        let path = out_dir.join(format!("{workload}-{seed}.spans.jsonl"));
        if let Err(e) = write_jsonl_file(&path, &workload, &trees) {
            eprintln!("cachetime-perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", report.result_line(&spec));
    Ok(ExitCode::SUCCESS)
}

fn compare_dirs(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let load =
        |dir: &str| compare::load_dir(dir.as_ref()).map_err(|e| format!("cannot read {dir}: {e}"));
    let (text, ok) = compare::compare(&Spec::compiled(), &load(a)?, &load(b)?);
    print!("{text}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
