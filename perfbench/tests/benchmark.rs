//! The declaration and the code agree: `BENCHMARK.json` is well formed,
//! every workload reports exactly the declared metrics, and the traced
//! runs between them compute every declared layer metric.

use cachetime_perfbench::spans::Collector;
use cachetime_perfbench::spec::{valid_name, Spec};
use cachetime_perfbench::workloads::{
    ingest, serve_cold, serve_warm, sweep, Outcome, RunOptions, WORKLOADS,
};
use cachetime_perfbench::Report;
use cachetime_types::Json;
use std::collections::BTreeSet;
use std::sync::Arc;

fn run_tiny(name: &str, opts: &RunOptions, col: Option<&Collector>) -> Outcome {
    match name {
        "sweep" => sweep::run(&sweep::Params::tiny(), opts, col),
        "serve-warm" => serve_warm::run(&serve_warm::Params::tiny(), opts, col),
        "serve-cold" => serve_cold::run(&serve_cold::Params::tiny(), opts, col),
        "ingest" => ingest::run(&ingest::Params::tiny(), opts, col),
        other => panic!("unknown workload {other}"),
    }
}

fn names(metrics: &[cachetime_perfbench::spec::Metric]) -> BTreeSet<String> {
    metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn benchmark_json_is_well_formed() {
    let spec = Spec::compiled();
    assert_eq!(spec.workloads, WORKLOADS);
    let all: Vec<&String> = spec
        .workloads
        .iter()
        .chain(
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .map(|m| &m.name),
        )
        .collect();
    for name in &all {
        assert!(valid_name(name), "{name:?} is not a valid name");
    }
    let unique: BTreeSet<&String> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{}: bad unit {:?}",
            m.name,
            m.unit
        );
    }
    let setup = spec.metric("setup_s").expect("setup_s is declared");
    assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
    for m in &spec.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        assert!(
            bound <= setup.bound.unwrap(),
            "setup_s has the largest bound"
        );
    }
}

#[test]
fn every_workload_reports_the_declared_metrics() {
    let spec = Spec::compiled();
    let collector = Arc::new(Collector::default());
    cachetime_obs::global().set_sink(Some(collector.clone()));
    let mut computed = BTreeSet::from(["obs.overhead_frac".to_string()]);
    for name in WORKLOADS {
        let mut digests = Vec::new();
        for traced in [false, true] {
            let opts = RunOptions {
                seed: 7,
                seconds: 0.2,
                traced,
                work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name),
            };
            let out = run_tiny(name, &opts, traced.then_some(&*collector));
            let report = Report::new(&spec, name, opts.seed, traced, &out);
            assert!(
                report.correct && out.checks > 0,
                "{name}: {} of {} failed, {} checks",
                report.failed,
                report.attempted,
                out.checks
            );
            let declared = names(spec.metrics(traced));
            assert_eq!(
                report.metrics.keys().cloned().collect::<BTreeSet<_>>(),
                declared,
                "{name} (traced: {traced}) reports other metrics than declared"
            );
            let line = Json::parse(&report.result_line(&spec)).expect("the result line is JSON");
            let keys: Vec<&str> = line
                .as_object()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            if traced {
                for key in out.layers.keys() {
                    assert!(declared.contains(key), "{name} computes undeclared {key}");
                    computed.insert(key.clone());
                }
                assert!(!out.trees.is_empty(), "{name} kept no spans");
            } else {
                for (metric, value) in &report.metrics {
                    assert!(*value > 0.0, "{name}: {metric} is {value}");
                }
            }
            digests.push(out.digest.hex());
        }
        // The traced run's untraced half starts at the same request as a
        // plain run, so its first results — and their digest — match.
        assert_eq!(
            digests[0], digests[1],
            "{name}: results digest is not reproducible"
        );
    }
    cachetime_obs::global().set_sink(None);
    assert_eq!(
        computed,
        names(&spec.per_layer),
        "the traced runs together compute every declared layer metric"
    );
}
