//! Order statistics and seed derivation.

/// Median of `xs` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` ∈ [0, 100] of `xs`; 0 for an empty
/// slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Derives an independent 64-bit seed from the workload seed and a path of
/// indices (stream tag, repetition, item), so every generated input is a
/// pure function of `--seed`.
pub fn derive(seed: u64, path: &[u64]) -> u64 {
    let mut state = seed;
    let mut out = ams_prng::splitmix64(&mut state);
    for &p in path {
        state ^= p.wrapping_mul(0xA076_1D64_78BD_642F);
        out = ams_prng::splitmix64(&mut state);
    }
    out
}

/// A uniform draw in `[lo, hi)` from a derived seed.
pub fn uniform(seed: u64, path: &[u64], lo: f64, hi: f64) -> f64 {
    let unit = (derive(seed, path) >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * unit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn derived_seeds_differ_by_path_and_seed() {
        assert_eq!(derive(7, &[1, 2]), derive(7, &[1, 2]));
        assert_ne!(derive(7, &[1, 2]), derive(7, &[2, 1]));
        assert_ne!(derive(7, &[1, 2]), derive(8, &[1, 2]));
        let u = uniform(3, &[4], 0.5, 1.5);
        assert!((0.5..1.5).contains(&u));
    }
}
