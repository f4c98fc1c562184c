//! The benchmark's declaration, `BENCHMARK.json` at the repository root,
//! compiled into the binary so `run` emits exactly the declared metrics
//! and `compare` judges against exactly the declared bounds.

use cachetime_types::Json;

/// The text of `BENCHMARK.json`.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `lat_p50_us`.
    pub name: String,
    /// Unit, e.g. `us`.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// The share of the baseline median by which the metric may worsen;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported with `--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (reported with `--trace 1`).
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// The declaration compiled into this binary.
    pub fn compiled() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    /// Parses a `BENCHMARK.json` text.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or mistyped field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            v.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("{key} must be an array"))
        };
        let str_field = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("every entry needs a string {key}"))
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = str_field(m, "better")?;
                    if better != "higher" && better != "lower" {
                        return Err(format!("better must be higher or lower, not {better:?}"));
                    }
                    let bound = if bounded {
                        Some(
                            m.get("bound")
                                .and_then(Json::as_f64)
                                .ok_or("every end_to_end metric needs a bound")?,
                        )
                    } else {
                        None
                    };
                    Ok(Metric {
                        name: str_field(m, "name")?,
                        unit: str_field(m, "unit")?,
                        higher_is_better: better == "higher",
                        bound,
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| str_field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// The metric list a run reports: end-to-end untraced, per-layer traced.
    pub fn metrics(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a metric up in either list.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// Whether `name` is a valid metric or workload name: a letter or digit
/// first, then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
