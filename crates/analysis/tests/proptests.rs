//! Property-based tests for the analysis toolkit, on the hermetic
//! testkit runner (`TESTKIT_SEED=… cargo test -q` reproduces a failure).

use cachetime_analysis::{
    crossing, geometric_mean, interp_at, parabola_vertex, sampled_minimum, smooth_index,
};
use cachetime_testkit::{check, prop_assert, prop_assert_eq, shrink, SplitMix64};

/// A strictly increasing x axis with matching y values (2..20 points).
fn gen_curve(rng: &mut SplitMix64) -> (Vec<f64>, Vec<f64>) {
    let n = rng.gen_range(2usize..20);
    let mut x = 0.0;
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        x += rng.gen_range(0.1f64..10.0);
        xs.push(x);
        ys.push(rng.gen_range(-100.0f64..100.0));
    }
    (xs, ys)
}

/// The geometric mean lies between min and max and is scale-covariant.
#[test]
fn geomean_bounds_and_scaling() {
    check(
        "geomean_bounds_and_scaling",
        |rng| {
            let k = rng.gen_range(1e-3f64..1e3);
            let n = rng.gen_range(1usize..30);
            let vals: Vec<f64> = (0..n).map(|_| rng.gen_range(1e-6f64..1e6)).collect();
            (k, vals)
        },
        shrink::pair_vec,
        |(k, vals)| {
            if vals.is_empty() {
                return Ok(()); // shrunk away; nothing to check
            }
            let g = geometric_mean(vals);
            let min = vals.iter().copied().fold(f64::MAX, f64::min);
            let max = vals.iter().copied().fold(f64::MIN, f64::max);
            prop_assert!(
                g >= min * 0.999999 && g <= max * 1.000001,
                "{g} not in [{min}, {max}]"
            );
            let scaled: Vec<f64> = vals.iter().map(|v| v * k).collect();
            let gs = geometric_mean(&scaled);
            prop_assert!((gs / (g * k) - 1.0).abs() < 1e-9);
            Ok(())
        },
    );
}

/// Interpolation is exact at the sample points and bounded by the
/// segment endpoints between them.
#[test]
fn interp_exact_and_bounded() {
    check(
        "interp_exact_and_bounded",
        |rng| (gen_curve(rng), rng.gen_range(0.0f64..1.0)),
        shrink::none,
        |((xs, ys), t)| {
            for (x, y) in xs.iter().zip(ys) {
                prop_assert!((interp_at(xs, ys, *x) - y).abs() < 1e-9);
            }
            // A point inside a random segment stays within that segment's
            // span.
            let i = ((xs.len() - 1) as f64 * t) as usize;
            let i = i.min(xs.len() - 2);
            let x = xs[i] + (xs[i + 1] - xs[i]) * 0.5;
            let y = interp_at(xs, ys, x);
            let lo = ys[i].min(ys[i + 1]);
            let hi = ys[i].max(ys[i + 1]);
            prop_assert!(y >= lo - 1e-9 && y <= hi + 1e-9);
            Ok(())
        },
    );
}

/// If `crossing` finds an x, interpolating there recovers the target.
#[test]
fn crossing_inverts_interpolation() {
    check(
        "crossing_inverts_interpolation",
        |rng| (gen_curve(rng), rng.gen_range(0.0f64..1.0)),
        shrink::none,
        |((xs, ys), t)| {
            let min = ys.iter().copied().fold(f64::MAX, f64::min);
            let max = ys.iter().copied().fold(f64::MIN, f64::max);
            let target = min + (max - min) * t;
            if let Some(x) = crossing(xs, ys, target) {
                prop_assert!(x >= xs[0] - 1e-9 && x <= *xs.last().unwrap() + 1e-9);
                prop_assert!(
                    (interp_at(xs, ys, x) - target).abs() < 1e-6,
                    "crossing at {x} does not hit {target}"
                );
            } else {
                // Only possible if the target is an unattained extremum of
                // a non-degenerate range — i.e. target equals max or min
                // attained only at interior plateau boundaries. For targets
                // strictly inside the attained range a crossing must exist.
                prop_assert!(
                    target <= min + 1e-12 || target >= max - 1e-12 || min == max,
                    "missed an interior target {target} in [{min}, {max}]"
                );
            }
            Ok(())
        },
    );
}

/// Smoothing touches exactly one sample.
#[test]
fn smoothing_is_local() {
    check(
        "smoothing_is_local",
        |rng| (gen_curve(rng), rng.gen_range(0.0f64..1.0)),
        shrink::none,
        |((xs, ys), t)| {
            let i = ((ys.len() - 1) as f64 * t) as usize;
            let s = smooth_index(xs, ys, i);
            prop_assert_eq!(s.len(), ys.len());
            for (j, (&orig, &new)) in ys.iter().zip(&s).enumerate() {
                if j != i {
                    prop_assert_eq!(orig, new);
                }
            }
            Ok(())
        },
    );
}

/// The fitted vertex of a sampled exact parabola recovers its true
/// minimum, and `sampled_minimum` stays inside the sampled range.
#[test]
fn parabola_recovers_vertex() {
    check(
        "parabola_recovers_vertex",
        |rng| {
            (
                rng.gen_range(-5.0f64..5.0),
                rng.gen_range(0.01f64..10.0),
                rng.gen_range(-10.0f64..10.0),
            )
        },
        shrink::none,
        |&(center, a, c)| {
            let f = |x: f64| a * (x - center).powi(2) + c;
            let v = parabola_vertex((-7.0, f(-7.0)), (0.5, f(0.5)), (8.0, f(8.0)))
                .expect("upward parabola");
            prop_assert!((v - center).abs() < 1e-6);

            let xs: Vec<f64> = (-8..=8).map(|i| i as f64).collect();
            let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
            let m = sampled_minimum(&xs, &ys);
            prop_assert!(m >= xs[0] && m <= *xs.last().unwrap());
            prop_assert!(
                (m - center).abs() < 1e-6,
                "sampled min {m} vs true {center}"
            );
            Ok(())
        },
    );
}
