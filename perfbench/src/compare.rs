//! `compare <dirA> <dirB>`: two sets of saved reports (say, five runs
//! of a parent commit and five of a change) judged metric by metric
//! against the bounds `BENCHMARK.json` declares.
//!
//! For every (workload, end-to-end metric) it prints each side's median
//! and quartiles, how much B moved against A, and a verdict:
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — either side's quartile spread exceeds the bound, so
//!   the bound cannot be judged;
//! * `better` — B won at least nine in ten runs paired by seed, and the
//!   medians differ by more than A's quartile spread;
//! * `same` — none of the above.
//!
//! Each metric is judged twice: on the values calibrated for the host's
//! speed, and on the raw values. Calibration times a kernel between
//! passes, so a change that leaves the program busy after a pass (say,
//! slower write-behind spills) slows the kernel too and cancels part of
//! its own regression; the raw verdict still sees it. A/B runs that
//! alternate sides share the host's drift, so raw values compare fairly.
//!
//! It also flags results digests that differ between runs of one seed
//! and runs that failed. The exit status is 1 on any `worse`, calibrated
//! or raw, digest disagreement or failure.

use crate::spec::Spec;
use crate::stats::{median, quartiles};
use crate::Report;
use cachetime_types::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Every report saved in `dir` (files ending in `.json` that hold one).
///
/// # Errors
///
/// When the directory cannot be listed or a file read.
pub fn load_dir(dir: &Path) -> std::io::Result<Vec<Report>> {
    let mut reports = Vec::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    paths.sort();
    for path in paths {
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path)?;
            if let Some(r) = Json::parse(&text).ok().as_ref().and_then(Report::from_json) {
                reports.push(r);
            }
        }
    }
    Ok(reports)
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B worse than A by more than the bound.
    Worse,
    /// The spread is wider than the bound.
    Unresolved,
    /// B better by the nine-in-ten-pairs rule.
    Better,
    /// Within the bound.
    Same,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Better => "better",
            Verdict::Same => "same",
        }
    }
}

/// Judges B against A for one metric. `pairs` are `(a, b)` values of
/// runs with the same seed.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    pairs: &[(f64, f64)],
    higher_is_better: bool,
    bound: f64,
) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (mb - ma) / ma.abs();
    let (qa1, qa3) = quartiles(a);
    let (qb1, qb3) = quartiles(b);
    let spread_a = (qa3 - qa1) / ma.abs();
    let spread_b = if mb == 0.0 {
        0.0
    } else {
        (qb3 - qb1) / mb.abs()
    };
    if worse_by > bound {
        return Verdict::Worse;
    }
    if spread_a > bound || spread_b > bound {
        return Verdict::Unresolved;
    }
    let wins = pairs.iter().filter(|(x, y)| sign * (y - x) < 0.0).count();
    if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && (mb - ma).abs() > qa3 - qa1 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One side's values of one metric, and `(a, b)` values of runs paired by
/// seed, read from the calibrated (`raw` false) or raw values.
fn values(
    ra: &[Report],
    rb: &[Report],
    name: &str,
    raw: bool,
) -> (Vec<f64>, Vec<f64>, Vec<(f64, f64)>) {
    let get = |r: &Report| if raw { &r.raw } else { &r.metrics }.get(name).copied();
    let side = |rs: &[Report]| rs.iter().filter_map(get).collect::<Vec<f64>>();
    let pairs = ra
        .iter()
        .filter_map(|x| {
            let y = rb.iter().find(|y| y.seed == x.seed)?;
            Some((get(x)?, get(y)?))
        })
        .collect();
    (side(ra), side(rb), pairs)
}

/// Compares the untraced reports of `a` and `b`; returns the printed
/// table and whether everything passed.
pub fn compare(spec: &Spec, a: &[Report], b: &[Report]) -> (String, bool) {
    let mut text = String::new();
    let mut ok = true;
    let _ = writeln!(
        text,
        "{:<11} {:<12} {:>30} {:>30} {:>8} {:>6} {:>6}  verdict (raw)",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "bound", "pairs"
    );
    for workload in &spec.workloads {
        let runs = |set: &[Report]| -> Vec<Report> {
            set.iter()
                .filter(|r| &r.workload == workload && !r.traced)
                .cloned()
                .collect()
        };
        let (ra, rb) = (runs(a), runs(b));
        if ra.is_empty() || rb.is_empty() {
            let _ = writeln!(text, "{workload:<11} (no untraced runs on one side)");
            continue;
        }
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or(0.0);
            let (va, vb, pairs) = values(&ra, &rb, &m.name, false);
            let v = verdict(&va, &vb, &pairs, m.higher_is_better, bound);
            let (raw_a, raw_b, raw_pairs) = values(&ra, &rb, &m.name, true);
            let raw = verdict(&raw_a, &raw_b, &raw_pairs, m.higher_is_better, bound);
            ok &= v != Verdict::Worse && raw != Verdict::Worse;
            let side = |vs: &[f64]| {
                let (q1, q3) = quartiles(vs);
                format!("{:.4} [{:.4}, {:.4}]", median(vs), q1, q3)
            };
            let (ma, mb) = (median(&va), median(&vb));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let wins = pairs
                .iter()
                .filter(|(x, y)| if m.higher_is_better { y > x } else { y < x })
                .count();
            let _ = writeln!(
                text,
                "{workload:<11} {:<12} {:>30} {:>30} {:>+7.2}% {:>5.0}% {:>6}  {} ({})",
                m.name,
                side(&va),
                side(&vb),
                change * 100.0,
                bound * 100.0,
                format!("{wins}/{}", pairs.len()),
                v.as_str(),
                raw.as_str()
            );
        }
    }

    // Results digests must agree between every two runs of one seed, and
    // no run may have failed.
    let mut digests: BTreeMap<(&str, u64), &str> = BTreeMap::new();
    for r in a.iter().chain(b) {
        let d = digests
            .entry((r.workload.as_str(), r.seed))
            .or_insert(r.results_digest.as_str());
        if *d != r.results_digest {
            ok = false;
            let _ = writeln!(
                text,
                "{} seed {}: results digest {} differs from {}",
                r.workload, r.seed, r.results_digest, d
            );
        }
        if !r.correct || r.failed > 0 {
            ok = false;
            let _ = writeln!(
                text,
                "{} seed {}: {} of {} operations failed",
                r.workload, r.seed, r.failed, r.attempted
            );
        }
    }
    (text, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_pair_rule() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let pairs = |b: &[f64]| a.iter().copied().zip(b.iter().copied()).collect::<Vec<_>>();
        // 20% slower on a lower-is-better metric with a 10% bound.
        let b = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&a, &b, &pairs(&b), false, 0.1), Verdict::Worse);
        // The same numbers are a clear win when higher is better.
        assert_eq!(verdict(&a, &b, &pairs(&b), true, 0.1), Verdict::Better);
        // Within the bound and no consistent winner.
        let b = [100.2, 100.8, 99.1, 100.4, 99.9];
        assert_eq!(verdict(&a, &b, &pairs(&b), false, 0.1), Verdict::Same);
        // A spread wider than the bound cannot be judged.
        let b = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&a, &b, &pairs(&b), false, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn a_raw_regression_fails_even_when_calibration_hides_it() {
        let spec = Spec::parse(
            r#"{"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap();
        let report = |seed: u64, calibrated: f64, raw: f64| Report {
            workload: "w".into(),
            seed,
            traced: false,
            correct: true,
            attempted: 1,
            failed: 0,
            results_digest: "d".into(),
            metrics: [("t".to_string(), calibrated)].into(),
            raw: [("t".to_string(), raw)].into(),
            kernel_us: 1.0,
            available: 1.0,
        };
        let a: Vec<Report> = (0..5).map(|s| report(s, 1.0, 1.0)).collect();
        let same: Vec<Report> = (0..5).map(|s| report(s, 1.0, 1.01)).collect();
        assert!(compare(&spec, &a, &same).1);
        // The kernel slowed with the program: calibrated the same, raw 30%
        // slower.
        let hidden: Vec<Report> = (0..5).map(|s| report(s, 1.0, 1.3)).collect();
        let (text, ok) = compare(&spec, &a, &hidden);
        assert!(!ok, "{text}");
        assert!(text.contains("same (worse)"), "{text}");
    }
}
