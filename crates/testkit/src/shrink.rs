//! Linear shrinking strategies for the property runner.
//!
//! Shrinkers return an ordered list of *candidate* smaller inputs; the
//! runner greedily descends into the first candidate that still fails.
//! "Linear" means candidate counts stay O(n) per step, so a full shrink is
//! O(n²) property evaluations in the worst case — fine for the workspace's
//! input sizes (vectors of a few hundred elements).

/// Shrinks a vector by halving (front half, back half) and then removing
/// single elements (up to 64, evenly spaced across the vector).
#[allow(
    clippy::ptr_arg,
    reason = "the runner hands a shrinker `&T`, and for a vector input `T` is a `Vec`: \
              a slice parameter would not fit `Fn(&Vec<T>)`"
)]
pub fn vec_linear<T: Clone>(v: &Vec<T>) -> Vec<Vec<T>> {
    let n = v.len();
    let mut out = Vec::new();
    if n == 0 {
        return out;
    }
    if n > 1 {
        out.push(v[..n / 2].to_vec());
        out.push(v[n - n / 2..].to_vec());
    }
    let stride = n.div_ceil(64).max(1);
    for i in (0..n).step_by(stride) {
        let mut smaller = v.clone();
        smaller.remove(i);
        if !smaller.is_empty() || n == 1 {
            out.push(smaller);
        }
    }
    out
}

/// Shrinks an unsigned scalar toward zero: first the halfway point, then
/// binary-search steps back toward the original, ending at `v - 1`. The
/// greedy runner converges to a boundary in O(log² v) evaluations.
pub fn halves(v: &u64) -> Vec<u64> {
    let v = *v;
    let mut out = Vec::new();
    if v == 0 {
        return out;
    }
    out.push(v / 2);
    let mut d = v - v / 2;
    while d > 1 {
        d /= 2;
        out.push(v - d);
    }
    if out.last() != Some(&(v - 1)) {
        out.push(v - 1);
    }
    out
}

/// No shrinking: for inputs where smaller cases carry no extra signal
/// (e.g. pure configuration tuples).
pub fn none<T>(_: &T) -> Vec<T> {
    Vec::new()
}

/// Combines a vector shrinker with a fixed context: shrinks only the
/// vector half of a `(context, vec)` pair, cloning the context.
pub fn pair_vec<C: Clone, T: Clone>(input: &(C, Vec<T>)) -> Vec<(C, Vec<T>)> {
    let (ctx, v) = input;
    vec_linear(v)
        .into_iter()
        .map(|smaller| (ctx.clone(), smaller))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_linear_produces_strictly_smaller_candidates() {
        let v: Vec<u32> = (0..10).collect();
        for c in vec_linear(&v) {
            assert!(c.len() < v.len());
        }
    }

    #[test]
    fn vec_linear_reaches_singletons() {
        // A [x] input shrinks to [] so the runner can confirm minimality.
        let v = vec![5u32];
        let candidates = vec_linear(&v);
        assert!(candidates.iter().any(|c| c.is_empty()));
    }

    #[test]
    fn vec_linear_caps_candidate_count() {
        let v: Vec<u32> = (0..10_000).collect();
        assert!(vec_linear(&v).len() <= 2 + 64);
    }

    #[test]
    fn halves_descends_to_zero() {
        let mut v = 1000u64;
        let mut steps = 0;
        while v > 0 {
            v = halves(&v)[0];
            steps += 1;
            assert!(steps < 64);
        }
    }

    #[test]
    fn pair_vec_keeps_context() {
        let input = ("ctx", vec![1, 2, 3, 4]);
        for (c, v) in pair_vec(&input) {
            assert_eq!(c, "ctx");
            assert!(v.len() < 4);
        }
    }
}
