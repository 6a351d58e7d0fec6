//! Sparse linear algebra shared by the sparse backend: the [`Scalar`] field
//! trait, triplet assembly, refactorization errors, block-structure
//! metadata, and the factor-or-refactor cache every sparse solve goes
//! through.
//!
//! MNA matrices from grid-scale RAIL analysis (§3.2 of the tutorial) have a
//! few nonzeros per row, so the dense O(n³) LU in [`crate::linalg`] is
//! hopeless beyond a few hundred unknowns. Every sparse factorization runs
//! on the KLU-style CSC kernel in [`crate::csc`], following the classic
//! SPICE fast path:
//!
//! 1. **First factorization** — symbolic analysis (fill-reducing column
//!    order) plus numeric elimination with threshold pivoting, recording
//!    the pivot rows and the full fill pattern.
//! 2. **Numeric refactorization** — while the assembled pattern is
//!    unchanged (Newton iterations, transient timesteps, AC frequency
//!    points), only the numeric elimination repeats over the frozen
//!    pattern; no symbolic analysis.
//!
//! The solver is generic over [`Scalar`] so one implementation serves the
//! real analyses (DC, transient) and the complex ones (AC, noise), where
//! the pattern of `G + jωC` is constant across the whole sweep.

use std::sync::Arc;

use crate::csc::CscLu;
use crate::linalg::{Complex, SingularMatrix};

/// Relative magnitude threshold for pivot acceptance: a candidate must be
/// at least this fraction of the largest magnitude in its column.
pub(crate) const PIVOT_THRESHOLD: f64 = 1e-3;
/// Absolute pivot underflow guard, matching the dense LU.
pub(crate) const PIVOT_MIN: f64 = 1e-300;
/// A refactorization pivot that has decayed below this fraction of its
/// column's largest entry signals that the frozen pivot order went
/// numerically stale.
pub(crate) const REFACTOR_DECAY: f64 = 1e-12;

/// Field element the sparse LU is generic over: `f64` for DC/transient,
/// [`Complex`] for AC/noise.
pub trait Scalar: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Additive identity.
    const ZERO: Self;
    /// Magnitude used for pivot comparisons.
    fn mag(self) -> f64;
    /// True when the value is finite in every component.
    fn finite(self) -> bool;
    /// `self + rhs`.
    fn add(self, rhs: Self) -> Self;
    /// `self − rhs`.
    fn sub(self, rhs: Self) -> Self;
    /// `self · rhs`.
    fn mul(self, rhs: Self) -> Self;
    /// `self / rhs`.
    fn div(self, rhs: Self) -> Self;
    /// Componentwise scaling by a real factor. The CSC kernel only calls
    /// this with exact powers of two (equilibration), where it is exact.
    fn scale(self, f: f64) -> Self;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    fn mag(self) -> f64 {
        self.abs()
    }
    fn finite(self) -> bool {
        self.is_finite()
    }
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }
    fn scale(self, f: f64) -> Self {
        self * f
    }
}

impl Scalar for Complex {
    const ZERO: Self = Complex { re: 0.0, im: 0.0 };
    fn mag(self) -> f64 {
        self.abs()
    }
    fn finite(self) -> bool {
        !self.is_bad()
    }
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
    fn scale(self, f: f64) -> Self {
        Complex {
            re: self.re * f,
            im: self.im * f,
        }
    }
}

/// Triplet (coordinate-format) builder for a square sparse matrix.
///
/// Duplicate `(row, col)` entries are allowed and sum during assembly —
/// exactly the semantics MNA stamping needs. The *sequence* of pushed
/// coordinates is the pattern key for [`CscLu::refactor`]: re-stamping
/// the same circuit at a different operating point produces the same
/// sequence, so only numbers change.
#[derive(Debug, Clone)]
pub struct Triplets<T> {
    dim: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Scalar> Triplets<T> {
    /// Empty builder for a `dim × dim` matrix.
    pub fn new(dim: usize) -> Self {
        assert!(dim < u32::MAX as usize, "dimension too large");
        Triplets {
            dim,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of pushed entries (duplicates not merged).
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when no entry has been pushed.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Adds `v` at `(i, j)`. Zero values are kept: they hold a place in the
    /// pattern so re-stamps with a nonzero there still refactor cleanly.
    pub fn push(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.dim && j < self.dim, "triplet out of bounds");
        self.rows.push(i as u32);
        self.cols.push(j as u32);
        self.vals.push(v);
    }

    /// Raw `(rows, cols, vals)` views for the CSC kernel.
    pub(crate) fn parts(&self) -> (&[u32], &[u32], &[T]) {
        (&self.rows, &self.cols, &self.vals)
    }

    /// Dense `A·x` for residual checks and tests.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        let mut y = vec![T::ZERO; self.dim];
        for k in 0..self.vals.len() {
            let (i, j) = (self.rows[k] as usize, self.cols[k] as usize);
            y[i] = y[i].add(self.vals[k].mul(x[j]));
        }
        y
    }
}

/// Why a numeric refactorization could not reuse the frozen pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefactorError {
    /// The triplet sequence no longer matches the symbolic pattern (e.g. a
    /// MOS device changed orientation between Newton iterations).
    PatternChanged,
    /// A pivot on the frozen order underflowed or decayed; the caller must
    /// run a fresh full factorization to re-pivot.
    Unstable {
        /// Elimination step at which the pivot failed.
        step: usize,
    },
}

impl std::fmt::Display for RefactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefactorError::PatternChanged => write!(f, "matrix pattern changed"),
            RefactorError::Unstable { step } => {
                write!(f, "pivot order went unstable at step {step}")
            }
        }
    }
}

/// Block-triangular structure of a matrix pattern, as computed by the
/// structural analyzer (`ams_lint::structural`): unknowns listed block by
/// block in a dependencies-first (block lower triangular) order. Attached
/// to a [`CscLu`] by the session: it nests the fill-reducing column order
/// inside the block partition, and stays attached so downstream consumers
/// can exploit it without re-running the decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockStructure {
    /// Column permutation, blocks concatenated in topological order.
    pub perm: Vec<u32>,
    /// `perm[block_ptr[b] as usize..block_ptr[b + 1] as usize]` is block
    /// `b`.
    pub block_ptr: Vec<u32>,
}

impl BlockStructure {
    /// Number of irreducible diagonal blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_ptr.len().saturating_sub(1)
    }
}

/// Factor-or-refactor solve against a cached factorization slot: tries a
/// numeric refactorization of `*lu` first and falls back to a fresh
/// symbolic+numeric factorization (updating the cache) when the pattern
/// changed or the refactorization went unstable. `btf` is the structural
/// analyzer's block partition when the caller has one; it seeds the column
/// ordering on fresh factorizations. Bumps the
/// `sim.sparse.{symbolic,symbolic_reuse,refactor,fill_in}` trace counters
/// accordingly; every caching sparse solve in the crate funnels through
/// here so the counters stay consistent.
pub(crate) fn solve_cached<T: Scalar>(
    lu: &mut Option<CscLu<T>>,
    t: &Triplets<T>,
    b: &[T],
    btf: Option<Arc<BlockStructure>>,
) -> Result<Vec<T>, SingularMatrix> {
    if let Some(f) = lu.as_mut() {
        if f.refactor(t).is_ok() {
            ams_trace::counter_add("sim.sparse.symbolic_reuse", 1);
            ams_trace::counter_add("sim.sparse.refactor", 1);
            return Ok(f.solve_refined(t, b));
        }
        // Pattern changed or the replayed pivots decayed: discard and redo
        // the symbolic analysis from scratch.
        *lu = None;
    }
    let f = CscLu::factor(t, btf)?;
    ams_trace::counter_add("sim.sparse.symbolic", 1);
    ams_trace::counter_add("sim.sparse.fill_in", f.fill_in());
    let x = f.solve_refined(t, b);
    *lu = Some(f);
    Ok(x)
}
