//! Fill-in forecasting without numbers, for patterns with no BTF.
//!
//! Gaussian elimination on a sparse matrix creates entries where none were
//! stamped — eliminating unknown `v` couples every pair of its remaining
//! neighbors. The forecast here symmetrizes the pattern (`A + Aᵀ`, standard
//! practice for unsymmetric matrices — MNA is symmetric except for
//! controlled-source blocks), picks an AMD elimination order ([`order`]),
//! and replays symbolic elimination on that order exactly. Fill is counted
//! as **two** per new undirected edge so the number is directly comparable
//! to the sparse kernel's `fill_in`, which counts vacant positions created.
//!
//! Structurally *nonsingular* patterns never come through here: the
//! analyzer forecasts those on the composed BTF∘AMD order instead (see
//! `structural::analyze`), which is the order the CSC factor actually uses.
//! This module covers the singular fallback, where no BTF exists.
//!
//! The underlying AMD ties break toward the lowest vertex index and every
//! container is ordered, so the forecast is bit-identical across runs.

use super::order;

/// Forecasts LU fill-in for `rows` under AMD elimination. Returns the
/// number of matrix positions created beyond the stamped pattern.
pub(crate) fn forecast_fill(rows: &[Vec<u32>]) -> u64 {
    let adj = order::symmetrize_pattern(rows);
    let ord = order::amd_order(&adj);
    order::elimination_fill(&adj, &ord)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chain (tridiagonal) patterns factor with zero fill under any
    /// elimination order that respects minimum degree.
    #[test]
    fn tridiagonal_chain_has_zero_fill() {
        let n = 16;
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|r| {
                let mut cols = vec![r as u32];
                if r > 0 {
                    cols.push(r as u32 - 1);
                }
                if r + 1 < n {
                    cols.push(r as u32 + 1);
                }
                cols.sort_unstable();
                cols
            })
            .collect();
        assert_eq!(forecast_fill(&rows), 0);
    }

    /// A star eliminates leaves first (degree 1) and never fills; the
    /// worst-first order would clique all the leaves instead.
    #[test]
    fn star_pattern_has_zero_fill_under_min_degree() {
        let n = 10u32;
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        rows[0] = (0..n).collect();
        for r in 1..n {
            rows[r as usize] = vec![0, r];
        }
        assert_eq!(forecast_fill(&rows), 0);
    }

    /// A 4-cycle fills exactly one pair: eliminating any (degree-2) corner
    /// couples its two neighbors across the missing diagonal.
    #[test]
    fn four_cycle_fills_one_edge() {
        let rows: Vec<Vec<u32>> = vec![vec![0, 1, 3], vec![0, 1, 2], vec![1, 2, 3], vec![0, 2, 3]];
        assert_eq!(forecast_fill(&rows), 2);
    }
}
