//! Power-of-two row/column equilibration for the CSC kernel.
//!
//! Grid-scale MNA matrices mix conductance stamps spanning many decades
//! (milliohm pad resistors next to gigohm gmin entries), which makes
//! threshold pivoting needlessly timid. Before factoring, the CSC path
//! scales `A' = R·A·C` with diagonal `R`/`C` whose entries are exact powers
//! of two, chosen so each row's and then each column's largest magnitude
//! lands near 1. Power-of-two factors only touch the floating-point
//! exponent, so scaling is *exact*: it changes which pivots pass the
//! threshold but introduces no rounding of its own, and the unscaled
//! residual used by iterative refinement is unaffected.
//!
//! Both scale vectors are pure functions of the assembled values, computed
//! identically by factor and refactor, so refactorization replays remain
//! bit-identical.

use crate::sparse::Scalar;

/// Largest magnitude exponent we will correct; keeps `exp2` comfortably
/// inside the normal range even for adversarial inputs.
const MAX_EXP: f64 = 1000.0;

/// The exact power of two closest to `1 / mag`; `1.0` for zero or
/// non-finite magnitudes (nothing sensible to correct).
pub(crate) fn pow2_recip(mag: f64) -> f64 {
    if mag > 0.0 && mag.is_finite() {
        f64::exp2(-mag.log2().round().clamp(-MAX_EXP, MAX_EXP))
    } else {
        1.0
    }
}

/// Row then column power-of-two equilibration of an assembled CSC matrix.
/// Returns `(r, c)` with `A'[i][j] = r[i]·A[i][j]·c[j]`.
pub(crate) fn equilibrate<T: Scalar>(
    n: usize,
    col_ptr: &[u32],
    row_idx: &[u32],
    vals: &[T],
) -> (Vec<f64>, Vec<f64>) {
    let mut row_max = vec![0.0f64; n];
    for j in 0..n {
        for s in col_ptr[j] as usize..col_ptr[j + 1] as usize {
            let i = row_idx[s] as usize;
            row_max[i] = row_max[i].max(vals[s].mag());
        }
    }
    let r: Vec<f64> = row_max.iter().map(|&m| pow2_recip(m)).collect();
    let mut c = vec![1.0f64; n];
    for j in 0..n {
        let mut col_max = 0.0f64;
        for s in col_ptr[j] as usize..col_ptr[j + 1] as usize {
            col_max = col_max.max(vals[s].mag() * r[row_idx[s] as usize]);
        }
        c[j] = pow2_recip(col_max);
    }
    (r, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_recip_is_an_exact_power_of_two() {
        for mag in [1e-30, 3.7e-3, 0.5, 1.0, 2.0, 123.456, 8e20] {
            let s = pow2_recip(mag);
            assert!(s > 0.0 && s.is_finite());
            // Exact power of two: mantissa bits all zero.
            assert_eq!(s.to_bits() & ((1u64 << 52) - 1), 0, "mag={mag} s={s}");
            let scaled = mag * s;
            assert!(
                (2f64.sqrt() / 2.0..=2f64.sqrt()).contains(&scaled),
                "mag={mag} scaled={scaled}"
            );
        }
    }

    #[test]
    fn degenerate_magnitudes_scale_by_one() {
        assert_eq!(pow2_recip(0.0), 1.0);
        assert_eq!(pow2_recip(f64::NAN), 1.0);
        assert_eq!(pow2_recip(f64::INFINITY), 1.0);
        assert_eq!(pow2_recip(-1.0), 1.0);
    }

    #[test]
    fn equilibrate_normalizes_rows_and_columns() {
        // 2×2 CSC: [[1e6, 0], [2e-6, 4e-6]].
        let col_ptr = [0u32, 2, 3];
        let row_idx = [0u32, 1, 1];
        let vals = [1e6, 2e-6, 4e-6];
        let (r, c) = equilibrate::<f64>(2, &col_ptr, &row_idx, &vals);
        for j in 0..2 {
            let mut col_max = 0.0f64;
            for s in col_ptr[j] as usize..col_ptr[j + 1] as usize {
                col_max = col_max.max(vals[s].abs() * r[row_idx[s] as usize] * c[j]);
            }
            assert!(
                (0.5..=2.0).contains(&col_max),
                "col {j} max {col_max} not near 1"
            );
        }
    }
}
