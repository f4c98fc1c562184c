//! `repro` — regenerate every table and figure of *Performance Tradeoffs
//! in Cache Design* (ISCA 1988).
//!
//! ```text
//! repro [--scale F] [--quick] [--jobs N] <experiment>...
//! repro list            # the experiment index
//! repro all             # everything, sharing the big grids
//! ```
//!
//! `--scale` multiplies the trace lengths (1.0 = paper-sized, the default
//! 0.25 keeps a laptop run in seconds per experiment; footprints never
//! scale). `--quick` is shorthand for `--scale 0.05`. `--jobs N` sets the
//! simulation worker count (default: all available cores; `--jobs 1`
//! forces serial). Output is bit-identical for every job count.
//! `--profile PATH` appends engine span timings (record/replay/sweep) as
//! JSONL trace records to PATH while the experiments run.

use cachetime_experiments::runner::{SpeedSizeGrid, TraceSet, SIZES_PER_CACHE_KB};
use cachetime_experiments::{
    csv, designer, ext, fig3_1, fig3_2, fig3_3, fig3_4, fig4_1, fig4_2, fig4_345, fig5_1, fig5_2,
    fig5_3, fig5_4, fig_assoc_threshold, sec6, table1, table2, table3,
};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;

const EXPERIMENTS: &[(&str, &str)] = &[
    ("table1", "description of the traces"),
    ("table2", "memory access cycle counts vs cycle time"),
    ("fig3-1", "miss and traffic ratios vs total L1 size"),
    ("fig3-2", "normalized cycle count vs size and cycle time"),
    ("fig3-3", "execution time vs size and cycle time"),
    ("fig3-4", "lines of equal performance; ns per doubling"),
    ("fig4-1", "read miss ratio vs set associativity"),
    (
        "fig4-2",
        "execution time vs size, associativity, cycle time",
    ),
    (
        "fig-assoc-threshold",
        "associativity threshold: way prediction and victim caches vs the 2-way break-even",
    ),
    ("fig4-3", "break-even cycle time for set size 2"),
    ("fig4-4", "break-even cycle time for set size 4"),
    ("fig4-5", "break-even cycle time for set size 8"),
    ("fig5-1", "miss ratios and execution time vs block size"),
    (
        "fig5-2",
        "execution time vs block size and memory parameters",
    ),
    ("fig5-3", "optimal execution time vs memory parameters"),
    ("fig5-4", "optimal block size vs memory speed product"),
    ("table3", "memory performance vs cache miss penalty"),
    ("sec6", "two-level hierarchy experiment"),
    (
        "ext-mmu",
        "extension: virtual vs physical caches (MMU + TLB)",
    ),
    ("ext-fill", "extension: fill policy vs optimal block size"),
    ("ext-write", "extension: write policy comparison"),
    ("ext-split", "extension: I:D capacity partition"),
    ("ext-subblock", "extension: sub-block fetching"),
    (
        "ext-seeds",
        "extension: seed robustness of the headline results",
    ),
    (
        "designer",
        "rank the paper-era RAM catalog by execution time",
    ),
];

/// Lazily computed shared state: traces and the expensive grids.
struct Ctx {
    scale: f64,
    jobs: usize,
    csv_dir: Option<std::path::PathBuf>,
    traces: Option<TraceSet>,
    dm_grid: Option<SpeedSizeGrid>,
    assoc_grids: Option<fig4_2::AssocGrids>,
    fig5_2_curves: Option<Vec<fig5_2::Curve>>,
}

impl Ctx {
    fn traces(&mut self) -> &TraceSet {
        if self.traces.is_none() {
            let t0 = Instant::now();
            self.traces = Some(TraceSet::generate_jobs(self.scale, self.jobs));
            eprintln!("[traces generated in {:.1?}]", t0.elapsed());
        }
        self.traces.as_ref().expect("just generated")
    }

    fn dm_grid(&mut self) -> &SpeedSizeGrid {
        if self.dm_grid.is_none() {
            self.traces();
            let t0 = Instant::now();
            let grid =
                SpeedSizeGrid::compute_jobs(self.traces.as_ref().expect("generated"), 1, self.jobs);
            eprintln!("[speed-size grid in {:.1?}]", t0.elapsed());
            self.dm_grid = Some(grid);
        }
        self.dm_grid.as_ref().expect("just computed")
    }

    fn assoc_grids(&mut self) -> &fig4_2::AssocGrids {
        if self.assoc_grids.is_none() {
            self.traces();
            let t0 = Instant::now();
            let grids = fig4_2::run_jobs(self.traces.as_ref().expect("generated"), self.jobs);
            eprintln!("[associativity grids in {:.1?}]", t0.elapsed());
            self.assoc_grids = Some(grids);
        }
        self.assoc_grids.as_ref().expect("just computed")
    }

    fn fig5_2_curves(&mut self) -> &[fig5_2::Curve] {
        if self.fig5_2_curves.is_none() {
            self.traces();
            let t0 = Instant::now();
            let curves = fig5_2::run_jobs(self.traces.as_ref().expect("generated"), self.jobs);
            eprintln!("[block-size curves in {:.1?}]", t0.elapsed());
            self.fig5_2_curves = Some(curves);
        }
        self.fig5_2_curves.as_ref().expect("just computed")
    }
}

fn write_csv(ctx: &Ctx, name: &str, contents: &str) {
    let Some(dir) = &ctx.csv_dir else { return };
    let path = dir.join(format!("{name}.csv"));
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("failed to write {}: {e}", path.display());
    } else {
        eprintln!("[wrote {}]", path.display());
    }
}

fn run_one(ctx: &mut Ctx, id: &str) -> Result<(), String> {
    let t0 = Instant::now();
    match id {
        "table1" => println!("{}", table1::render(&table1::run(ctx.traces()))),
        "table2" => {
            let rows = table2::run();
            write_csv(ctx, "table2", &csv::table2(&rows));
            println!("{}", table2::render(&rows));
        }
        "fig3-1" => {
            let pts = fig3_1::run(ctx.traces());
            write_csv(ctx, "fig3-1", &csv::fig3_1(&pts));
            println!("{}", fig3_1::render(&pts));
        }
        "fig3-2" => println!("{}", fig3_2::render(&fig3_2::run(ctx.dm_grid()))),
        "fig3-3" => {
            println!("{}", fig3_3::render(&fig3_3::run(ctx.dm_grid())));
            let g = csv::grid(ctx.dm_grid());
            write_csv(ctx, "speed-size-grid", &g);
        }
        "fig3-4" => {
            println!("{}", fig3_4::render(&fig3_4::run(ctx.dm_grid(), 16)));
            println!(
                "{}",
                fig3_4::render_slope_map(&fig3_4::slope_map(ctx.dm_grid()))
            );
        }
        "fig4-1" => {
            let m = fig4_1::run(ctx.traces());
            write_csv(ctx, "fig4-1", &csv::fig4_1(&m));
            println!("{}", fig4_1::render(&m));
        }
        "fig4-2" => {
            println!("{}", fig4_2::render(ctx.assoc_grids()));
            let all: String = ctx
                .assoc_grids()
                .grids
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    let csv_text = csv::grid(g);
                    if i == 0 {
                        csv_text
                    } else {
                        // Drop the repeated header for a single long file.
                        csv_text
                            .split_once('\n')
                            .map(|x| x.1.to_string())
                            .unwrap_or_default()
                    }
                })
                .collect();
            write_csv(ctx, "fig4-2", &all);
        }
        "fig-assoc-threshold" => {
            let jobs = ctx.jobs;
            let study = fig_assoc_threshold::run(ctx.traces(), jobs);
            write_csv(
                ctx,
                "fig-assoc-threshold",
                &fig_assoc_threshold::to_csv(&study),
            );
            println!("{}", fig_assoc_threshold::render(&study));
        }
        "fig4-3" | "fig4-4" | "fig4-5" => {
            let ways = match id {
                "fig4-3" => 2,
                "fig4-4" => 4,
                _ => 8,
            };
            let m = fig4_345::run(ctx.assoc_grids(), ways);
            write_csv(ctx, id, &csv::break_even(&m));
            println!("{}", fig4_345::render(&m));
        }
        "fig5-1" => {
            let pts = fig5_1::run(ctx.traces());
            write_csv(ctx, "fig5-1", &csv::fig5_1(&pts));
            println!("{}", fig5_1::render(&pts));
        }
        "fig5-2" => println!("{}", fig5_2::render(ctx.fig5_2_curves())),
        "fig5-3" => {
            let minima = fig5_3::run(ctx.fig5_2_curves());
            write_csv(ctx, "fig5-3", &csv::fig5_3(&minima));
            println!("{}", fig5_3::render(&minima));
        }
        "fig5-4" => {
            let minima = fig5_3::run(ctx.fig5_2_curves());
            let pts = fig5_4::run(&minima);
            write_csv(ctx, "fig5-4", &csv::fig5_4(&pts));
            println!("{}", fig5_4::render(&pts));
        }
        "table3" => {
            let grid = ctx.dm_grid();
            let rows = table3::run(grid);
            println!("{}", table3::render(grid, &rows, &[4, 16, 64, 256]));
        }
        "sec6" => {
            let sizes: Vec<u64> = SIZES_PER_CACHE_KB[..8].to_vec();
            let (without, with) = sec6::run(ctx.traces(), 20, &sizes);
            write_csv(ctx, "sec6", &csv::sec6(&without, &with));
            println!("{}", sec6::render(&without, &with));
        }
        "ext-mmu" => {
            let pts = ext::translation::run(ctx.traces(), &[2, 8, 32, 128, 512]);
            println!("{}", ext::translation::render(&pts));
        }
        "ext-fill" => {
            let pts = ext::fill_policy::run(ctx.traces(), &[1, 2, 4, 8, 16, 32, 64, 128]);
            println!("{}", ext::fill_policy::render(&pts));
        }
        "ext-write" => {
            println!(
                "{}",
                ext::write_policy::render(&ext::write_policy::run(ctx.traces()))
            );
        }
        "ext-split" => {
            println!(
                "{}",
                ext::split_ratio::render(&ext::split_ratio::run(ctx.traces()))
            );
        }
        "ext-subblock" => {
            println!(
                "{}",
                ext::sub_block::render(&ext::sub_block::run(ctx.traces()))
            );
        }
        "ext-seeds" => {
            // Re-rolls generate their own trace sets; cap the cost.
            let scale = ctx.scale.min(0.25);
            println!("{}", ext::seeds::render(&ext::seeds::run(scale, 3)));
        }
        "designer" => {
            let catalog = designer::paper_era_catalog().expect("valid catalog");
            let jobs = ctx.jobs;
            let ranked = designer::best_design_jobs(ctx.traces(), &catalog, jobs);
            println!("{}", designer::render(&ranked));
        }
        other => return Err(format!("unknown experiment '{other}' (try 'list')")),
    }
    eprintln!("[{id} in {:.1?}]", t0.elapsed());
    Ok(())
}

fn main() -> ExitCode {
    let mut scale = 0.25f64;
    let mut jobs = 0usize; // 0 = available parallelism
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut wanted: BTreeSet<String> = BTreeSet::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => scale = v,
                _ => {
                    eprintln!("--scale needs a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--csv" => match args.next() {
                Some(dir) => {
                    let dir = std::path::PathBuf::from(dir);
                    if let Err(e) = std::fs::create_dir_all(&dir) {
                        eprintln!("cannot create {}: {e}", dir.display());
                        return ExitCode::FAILURE;
                    }
                    csv_dir = Some(dir);
                }
                None => {
                    eprintln!("--csv needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => jobs = v,
                None => {
                    eprintln!("--jobs needs a non-negative integer (0 = all cores)");
                    return ExitCode::FAILURE;
                }
            },
            "--quick" => scale = 0.05,
            "--profile" => match args.next() {
                Some(path) => match cachetime_obs::JsonlSink::create(path.as_ref()) {
                    Ok(sink) => {
                        cachetime_obs::global().set_sink(Some(std::sync::Arc::new(sink)));
                    }
                    Err(e) => {
                        eprintln!("cannot open profile file {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--profile needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "list" => {
                println!("experiments (run with: repro [--scale F] <id>...):");
                for (id, desc) in EXPERIMENTS {
                    println!("  {id:8} {desc}");
                }
                println!("  all      every experiment, sharing the grids");
                return ExitCode::SUCCESS;
            }
            "all" => {
                wanted.extend(EXPERIMENTS.iter().map(|(id, _)| id.to_string()));
            }
            other => {
                wanted.insert(other.to_string());
            }
        }
    }
    if wanted.is_empty() {
        eprintln!("nothing to do; try 'repro list'");
        return ExitCode::FAILURE;
    }
    let mut ctx = Ctx {
        scale,
        jobs,
        csv_dir,
        traces: None,
        dm_grid: None,
        assoc_grids: None,
        fig5_2_curves: None,
    };
    eprintln!(
        "[scale {scale}, jobs {}]",
        cachetime_experiments::sweep::resolve_jobs(jobs)
    );
    // Run in the canonical order regardless of argument order.
    for (id, _) in EXPERIMENTS {
        if wanted.remove(*id) {
            if let Err(e) = run_one(&mut ctx, id) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
            println!();
        }
    }
    if let Some(leftover) = wanted.iter().next() {
        eprintln!("unknown experiment '{leftover}' (try 'list')");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
