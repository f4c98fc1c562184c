//! The repository benchmark.
//!
//! `cachetime-perfbench run --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` runs one of four seeded workloads against the program
//! built from this checkout, checks its outputs, and prints each metric
//! declared in `BENCHMARK.json` — the end-to-end ones untraced, the
//! per-layer ones traced — ending with one JSON line. `compare <dirA>
//! <dirB>` judges two sets of saved reports against the declared bounds.
//! The README beside this crate describes the workloads and metrics.

pub mod compare;
pub mod host;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;

use cachetime_types::{json_object, Json};
use spec::Spec;
use std::collections::BTreeMap;
use workloads::Outcome;

/// One run's saved result: what `run` prints last, plus what `compare`
/// needs to group and pair runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// The seed the inputs came from.
    pub seed: u64,
    /// Whether this was a traced (per-layer) run.
    pub traced: bool,
    /// Whether every operation succeeded and every check agreed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, plus failed checks.
    pub failed: u64,
    /// Digest over the run's first results.
    pub results_digest: String,
    /// Metric values by name; times calibrated for the host's speed.
    pub metrics: BTreeMap<String, f64>,
    /// The end-to-end metrics as measured, without calibration (empty in
    /// a traced run).
    pub raw: BTreeMap<String, f64>,
    /// The median reference-kernel time of the run, in microseconds.
    pub kernel_us: f64,
    /// The share of the untraced timed phase the CPUs were the program's
    /// own.
    pub available: f64,
}

impl Report {
    /// Builds the report of a finished run: the end-to-end metrics from
    /// the untraced phase, or the per-layer metrics from the traced one.
    pub fn new(spec: &Spec, workload: &str, seed: u64, traced: bool, out: &Outcome) -> Report {
        let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
        let mut metrics = BTreeMap::new();
        let mut raw = BTreeMap::new();
        for m in spec.metrics(traced) {
            let value = if traced {
                layer_value(out, &m.name)
            } else {
                raw.insert(
                    m.name.clone(),
                    finite(end_to_end_value(out, &m.name, false)),
                );
                end_to_end_value(out, &m.name, true)
            };
            metrics.insert(m.name.clone(), finite(value));
        }
        Report {
            workload: workload.to_string(),
            seed,
            traced,
            correct: out.failed() == 0,
            attempted: out.attempted().max(1),
            failed: out.failed(),
            results_digest: out.digest.hex(),
            metrics,
            raw,
            kernel_us: stats::median(&out.kernel_us),
            available: out.main.available,
        }
    }

    /// The line the benchmark ends with.
    pub fn result_line(&self, spec: &Spec) -> String {
        let metrics = self.metrics.iter().map(|(name, &value)| {
            let unit = spec.metric(name).map_or("", |m| m.unit.as_str());
            (
                name.clone(),
                json_object([("value", Json::Float(value)), ("unit", Json::from(unit))]),
            )
        });
        json_object([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Object(metrics.collect())),
        ])
        .to_string()
    }

    /// The saved form, read back by [`Report::from_json`].
    pub fn to_json(&self) -> Json {
        json_object([
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::UInt(self.seed)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("results_digest", Json::from(self.results_digest.as_str())),
            ("metrics", float_map(&self.metrics)),
            ("raw", float_map(&self.raw)),
            ("kernel_us", Json::Float(self.kernel_us)),
            ("available", Json::Float(self.available)),
        ])
    }

    /// Reads a saved report; `None` for any other JSON.
    pub fn from_json(v: &Json) -> Option<Report> {
        Some(Report {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_u64()?,
            traced: v.get("traced")?.as_bool()?,
            correct: v.get("correct")?.as_bool()?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            results_digest: v.get("results_digest")?.as_str()?.to_string(),
            metrics: read_float_map(v.get("metrics")?)?,
            raw: read_float_map(v.get("raw")?)?,
            kernel_us: v.get("kernel_us")?.as_f64()?,
            available: v.get("available")?.as_f64()?,
        })
    }
}

fn float_map(m: &BTreeMap<String, f64>) -> Json {
    Json::Object(
        m.iter()
            .map(|(k, &v)| (k.clone(), Json::Float(v)))
            .collect(),
    )
}

fn read_float_map(v: &Json) -> Option<BTreeMap<String, f64>> {
    v.as_object()?
        .iter()
        .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect()
}

/// An end-to-end metric of a finished run, its times calibrated for the
/// host's speed or raw.
///
/// # Panics
///
/// On a name `BENCHMARK.json` declares but this benchmark does not
/// measure — the declaration and the code disagree.
pub fn end_to_end_value(out: &Outcome, name: &str, calibrated: bool) -> f64 {
    match name {
        "setup_s" => out.setup_s(calibrated),
        "work_per_s" => out.main.work_per_s(calibrated),
        "lat_p50_us" => out.main.latency_us(0.5, calibrated),
        "lat_tail_us" => out.main.latency_us(out.tail_q, calibrated),
        "peak_rss_mb" => out.main.peak_rss_mb,
        other => panic!("BENCHMARK.json declares {other:?}, which no workload measures"),
    }
}

/// A per-layer metric of a finished traced run; 0 where the layer is not
/// on this workload's path.
pub fn layer_value(out: &Outcome, name: &str) -> f64 {
    if name == "obs.overhead_frac" {
        let traced = out.traced.as_ref().map_or(0.0, |p| p.latency_us(0.5, true));
        let untraced = out.main.latency_us(0.5, true);
        return if untraced == 0.0 {
            0.0
        } else {
            traced / untraced - 1.0
        };
    }
    out.layers.get(name).copied().unwrap_or(0.0)
}
