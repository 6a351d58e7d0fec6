//! `grid_dc`: RAIL-style power-grid DC on `GridSpec::synthetic` meshes,
//! one size on each side of the sparse-kernel switch.
//!
//! * 14²–18² around 16² (266 unknowns; all in the Markowitz band below
//!   the CSC switch): [`SMALL_GRIDS`] fresh solves per repetition —
//!   session, analysis, factor, Newton, every time.
//! * 128² (≈16k unknowns, CSC): a fresh session's structural analysis and
//!   first solve, then [`REPLAYS`] frozen-pattern re-solves
//!   (`invalidate_op` + `op`: numeric refactor only).
//!
//! The seed sets each small grid's side and every grid's core tap
//! current; circuits are compiled in set-up.

use super::{
    common_layers, paired, span_us, timed_setup, untraced_pass, without_trace, Checks, Outcome,
    RunOptions, Verdict,
};
use crate::calib::Calibration;
use crate::ledger::Ledger;
use crate::stats::{derive, median, ratio, uniform};
use crate::timed::time_us;
use ams_netlist::Circuit;
use ams_rail::{GridSpec, PowerGrid};
use ams_sim::{Backend, OpPoint, SimSession};
use std::collections::BTreeMap;

/// Seed stream of the tap currents.
const GRID_STREAM: u64 = 4;
/// Sides of the small meshes: 14 to 18.
const SMALL_N: (usize, u64) = (14, 5);
/// Side of the large mesh.
const LARGE_N: usize = 128;
/// Distinct small grids, each solved fresh once per repetition.
const SMALL_GRIDS: usize = 32;
/// Small-grid solves between calibration slices in the untraced pass.
const SMALL_PER_SLICE: usize = 8;
/// Frozen-pattern re-solves of the large grid per repetition.
const REPLAYS: usize = 2;
/// Uniform strap width, meters.
const WIDTH_M: f64 = 10e-6;
/// Nominal untraced repetition time, reference seconds.
const REP_REF_S: f64 = 1.75;
/// Repetitions of each half of a traced run.
const TRACE_REPS: u64 = 4;
/// Sparse-vs-dense agreement required on the small grids, volts.
const DENSE_TOL: f64 = 1e-9;

/// Compiled grid circuits.
struct Grids {
    small: Vec<Circuit>,
    large: Circuit,
    /// `PowerGrid::to_circuit` time of the large grid, milliseconds.
    to_circuit_ms: f64,
}

fn grid(n: usize, tap_amps: f64) -> PowerGrid {
    let mut spec = GridSpec::synthetic(n);
    spec.taps[0].dc_amps = tap_amps;
    PowerGrid::uniform(spec, WIDTH_M)
}

impl Grids {
    fn new(seed: u64) -> Grids {
        let small = (0..SMALL_GRIDS as u64)
            .map(|j| {
                let n = SMALL_N.0 + (derive(seed, &[GRID_STREAM, 2, j]) % SMALL_N.1) as usize;
                grid(n, uniform(seed, &[GRID_STREAM, 0, j], 0.1, 0.3)).to_circuit()
            })
            .collect();
        let large = grid(LARGE_N, uniform(seed, &[GRID_STREAM, 1], 0.15, 0.25));
        let (large, us) = time_us(|| large.to_circuit());
        Grids {
            small,
            large,
            to_circuit_ms: us / 1e3,
        }
    }
}

/// Timings of one repetition, microseconds.
#[derive(Default)]
struct GridRep {
    small_us: Vec<f64>,
    session_us: f64,
    analyze_us: f64,
    first_op_us: f64,
    replay_us: Vec<f64>,
    /// Replay time per Newton linearization.
    per_lin_us: Vec<f64>,
}

impl GridRep {
    fn wall_us(&self) -> f64 {
        self.small_us.iter().sum::<f64>()
            + self.session_us
            + self.analyze_us
            + self.first_op_us
            + self.replay_us.iter().sum::<f64>()
    }
}

/// Verdict of a solve that returned: its solution must be finite and pass
/// the workload's reference check.
fn solved(op: &OpPoint, reference_ok: bool) -> Verdict {
    if op.x.iter().all(|v| v.is_finite()) && reference_ok {
        Verdict::Ok
    } else {
        Verdict::Wrong
    }
}

/// Worst node-voltage disagreement between the auto (sparse) solve and a
/// dense solve of the same circuit.
fn dense_gap(ckt: &Circuit, sparse: &OpPoint) -> Option<f64> {
    let dense = SimSession::with_backend(ckt, Backend::Dense).op().ok()?;
    let gap = sparse
        .x
        .iter()
        .zip(&dense.x)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    Some(gap)
}

/// Whether the droop grows monotonically along each diagonal from a
/// corner pad to the central tap.
fn droop_monotone(ckt: &Circuit, op: &OpPoint) -> bool {
    let c = LARGE_N / 2;
    let v = |x: usize, y: usize| {
        op.voltage(ckt, &PowerGrid::node_name(x, y))
            .unwrap_or(f64::NAN)
    };
    let last = LARGE_N - 1;
    let corners: [(usize, usize, i64, i64); 4] = [
        (0, 0, 1, 1),
        (last, 0, -1, 1),
        (0, last, 1, -1),
        (last, last, -1, -1),
    ];
    corners.iter().all(|&(x0, y0, dx, dy)| {
        let steps = c.min(last - c) as i64;
        (0..steps).all(|k| {
            let at = |k: i64| ((x0 as i64 + dx * k) as usize, (y0 as i64 + dy * k) as usize);
            let (xa, ya) = at(k);
            let (xb, yb) = at(k + 1);
            v(xb, yb) <= v(xa, ya)
        })
    })
}

/// One repetition; `cal`, in the untraced pass, is sampled between the
/// timed calls.
fn rep(grids: &Grids, i: u64, checks: &mut Checks, mut cal: Option<&mut Calibration>) -> GridRep {
    let sample = |cal: &mut Option<&mut Calibration>| {
        if let Some(cal) = cal.as_mut() {
            cal.sample();
        }
    };
    let mut r = GridRep::default();
    for (j, ckt) in grids.small.iter().enumerate() {
        if j > 0 && j % SMALL_PER_SLICE == 0 {
            sample(&mut cal);
        }
        let (op, us) = time_us(|| SimSession::new(ckt).op());
        r.small_us.push(us);
        // One grid per repetition, rotating, is re-solved densely.
        let verdict = match &op {
            Ok(op) if j == i as usize % SMALL_GRIDS => {
                let gap = without_trace(|| dense_gap(ckt, op));
                solved(op, gap.is_some_and(|g| g <= DENSE_TOL))
            }
            Ok(op) => solved(op, true),
            Err(_) => Verdict::Failed,
        };
        checks.record(verdict, || {
            format!("grid_dc rep {i}: small grid {j}: {:?}", op.as_ref().err())
        });
    }
    sample(&mut cal);
    let ckt = &grids.large;
    let (ses, us) = time_us(|| SimSession::new(ckt));
    r.session_us = us;
    r.analyze_us = time_us(|| ses.structural()).1;
    let (op, us) = time_us(|| ses.op());
    r.first_op_us = us;
    let verdict = match &op {
        Ok(op) => solved(op, droop_monotone(ckt, op)),
        Err(_) => Verdict::Failed,
    };
    checks.record(verdict, || {
        format!(
            "grid_dc rep {i}: 128² first solve: droop not monotone or {:?}",
            op.as_ref().err()
        )
    });
    for k in 0..REPLAYS {
        sample(&mut cal);
        ses.invalidate_op();
        let (op, us) = time_us(|| ses.op());
        r.replay_us.push(us);
        let verdict = match &op {
            Ok(op) => {
                r.per_lin_us.push(us / op.iterations.max(1) as f64);
                solved(op, true)
            }
            Err(_) => Verdict::Failed,
        };
        checks.record(verdict, || {
            format!(
                "grid_dc rep {i}: 128² re-solve {k}: {:?}",
                op.as_ref().err()
            )
        });
    }
    r
}

/// `grid_dc`.
pub(super) fn run(opts: &RunOptions) -> Outcome {
    let (grids, setup_s) = timed_setup(|| Grids::new(opts.seed));
    let mut checks = Checks::default();
    if !opts.trace {
        let ledger = untraced_pass(opts, setup_s, REP_REF_S, |i, cal| {
            rep(&grids, i, &mut checks, Some(cal)).wall_us() / 1e6
        });
        return Outcome {
            checks,
            ledger,
            counts: BTreeMap::new(),
        };
    }

    let mut ledger = Ledger::default();
    let (untraced, traced_reps, snap) = paired(&mut ledger, TRACE_REPS, |i, _| {
        rep(&grids, i, &mut checks, None)
    });
    let untraced_us: f64 = untraced.iter().map(GridRep::wall_us).sum();
    let traced_us: f64 = traced_reps.iter().map(GridRep::wall_us).sum();
    common_layers(&mut ledger, &snap, untraced_us, traced_us);

    let first_s: Vec<f64> = untraced
        .iter()
        .map(|r| (r.session_us + r.analyze_us + r.first_op_us) / 1e6)
        .collect();
    ledger.set("first_solve_s", median(&first_s));
    let per_lin: Vec<f64> = untraced.iter().flat_map(|r| r.per_lin_us.clone()).collect();
    ledger.set("refactor_ms", median(&per_lin) / 1e3);
    let small: Vec<f64> = untraced.iter().flat_map(|r| r.small_us.clone()).collect();
    ledger.set("small_solve_ms", median(&small) / 1e3);

    let ms = |f: &dyn Fn(&GridRep) -> f64| {
        let xs: Vec<f64> = traced_reps.iter().map(f).collect();
        median(&xs) / 1e3
    };
    ledger.set("sim.analyze_ms", ms(&|r| r.analyze_us));
    ledger.set("sim.first_op_ms", ms(&|r| r.first_op_us));
    let per_lin: Vec<f64> = traced_reps
        .iter()
        .flat_map(|r| r.per_lin_us.clone())
        .collect();
    ledger.set("sim.refactor_ms_per_lin", median(&per_lin) / 1e3);
    let small: Vec<f64> = traced_reps
        .iter()
        .flat_map(|r| r.small_us.clone())
        .collect();
    ledger.set("sim.small_op_ms", median(&small) / 1e3);
    ledger.set("rail.to_circuit_ms", grids.to_circuit_ms);

    // Sparse work: the large grid's analysis, first solve and re-solves,
    // and the small grids' fresh solves.
    let sparse_us: f64 = traced_reps.iter().map(|r| r.wall_us() - r.session_us).sum();
    ledger.set("sim.sparse_wall_share", ratio(sparse_us, traced_us));
    // Coverage: the DC solver's own spans plus the timed structural
    // analyses, against every timed call into the simulator.
    let analyze_us: f64 = traced_reps.iter().map(|r| r.analyze_us).sum();
    ledger.set(
        "layers.coverage_frac",
        ratio(span_us(&snap, "sim.dc_op") + analyze_us, traced_us),
    );
    Outcome {
        checks,
        ledger,
        counts: snap.counters,
    }
}
