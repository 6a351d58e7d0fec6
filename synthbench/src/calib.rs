//! Machine-speed calibration of end-to-end times.
//!
//! On a shared host the same work can run 40 % slower a few minutes
//! later, with the process on-CPU the whole time (the slowdown is in the
//! core, not in scheduling), so seed-to-seed spreads would measure the
//! host rather than the program. Each run therefore interleaves fixed
//! calibration slices — dense LU factorizations, bench-owned code no
//! program change can touch, allocating almost nothing so the peak RSS
//! stays the workload's — with its repetitions, and reports end-to-end
//! times in reference seconds: measured seconds × [`REF_SLICE_S`] / mean
//! slice.

use std::hint::black_box;
use std::time::Instant;

/// A slice's time on the reference host, seconds; it sets the unit of
/// the reported times.
pub const REF_SLICE_S: f64 = 0.03;
/// Order of the slice's dense LU.
const LU_N: usize = 120;
/// LU factorizations per slice.
const LU_REPS: usize = 40;
/// Calibration state of one run: the slice times taken so far.
#[derive(Debug, Default)]
pub struct Calibration {
    slices: Vec<f64>,
}

impl Calibration {
    /// Runs one slice and records its time.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(lu_work());
        self.slices.push(t.elapsed().as_secs_f64());
    }

    /// Mean slice time of this run, seconds. A mean, like the mean
    /// repetition time it scales, integrates the host's second-to-second
    /// speed swings over the whole run.
    pub fn slice_s(&self) -> f64 {
        self.slices.iter().sum::<f64>() / self.slices.len().max(1) as f64
    }

    /// Every slice time so far, seconds.
    pub fn slices(&self) -> &[f64] {
        &self.slices
    }

    /// Converts measured seconds to reference seconds.
    pub fn to_reference(&self, measured_s: f64) -> f64 {
        measured_s * REF_SLICE_S / self.slice_s()
    }
}

/// [`LU_REPS`] partial-pivot-free LU factorizations of a fixed, diagonally
/// dominant matrix; returns a checksum so the work cannot be elided.
fn lu_work() -> f64 {
    let n = LU_N;
    let mut sum = 0.0;
    for rep in 0..LU_REPS {
        let mut a: Vec<f64> = (0..n * n)
            .map(|i| {
                let diag = if i % (n + 1) == 0 { n as f64 } else { 0.0 };
                ((i * 7919 + rep) % 1009) as f64 / 1009.0 + diag
            })
            .collect();
        for k in 0..n {
            let pivot = a[k * n + k];
            for i in k + 1..n {
                let f = a[i * n + k] / pivot;
                for j in k..n {
                    a[i * n + j] -= f * a[k * n + j];
                }
            }
        }
        sum += black_box(&a)[n * n - 1];
    }
    sum
}
