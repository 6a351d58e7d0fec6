//! The four workloads and the pass structure they share.
//!
//! Every run first repeats the workload's set-up for two seconds (reporting
//! the median).
//! An untraced run then repeats the workload's fixed unit of work as many
//! times as fill `--seconds` on the reference host, each repetition on
//! inputs derived from `--seed` and its index. The count depends on
//! `--seconds` alone, never on the clock, so a seed's operations and
//! their failures repeat exactly from run to run. A traced run instead
//! runs a fixed number of repetitions in pairs — untraced, then traced on
//! the same inputs — so its work counts depend on the seed alone and both
//! halves of a pair see the same machine state.

mod grid_dc;
mod opamp_flow;
mod sizing;

use crate::calib::Calibration;
use crate::env::{self, Settings};
use crate::ledger::{Ledger, RunReport, COUNTED};
use crate::stats::{median, ratio};
use ams_trace::Snapshot;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up repeats for at least this long, seconds …
const SETUP_MIN_S: f64 = 2.0;
/// … and at least this many times; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 5;
/// Set-ups too quick to time alone are timed in batches of at least
/// this many seconds.
const SETUP_BATCH_S: f64 = 1e-3;
/// Seconds of set-up between calibration slices.
const SETUP_SLICE_EVERY_S: f64 = 0.1;
/// Minimum repetitions of the untraced pass.
const MIN_REPS: u64 = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 1 pulse-detector sizing on the simulated model (AC-bound).
    Table1Sim,
    /// ASTRX/OBLX-style two-stage opamp sizing with AWE (Newton-bound).
    OpampAwe,
    /// The §2.1 opamp flow over a seed set (layout-bound).
    OpampFlow,
    /// RAIL-style power-grid DC at 16² and 128² (sparse-kernel-bound).
    GridDc,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Table1Sim,
        Workload::OpampAwe,
        Workload::OpampFlow,
        Workload::GridDc,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Sim => "table1_sim",
            Workload::OpampAwe => "opamp_awe",
            Workload::OpampFlow => "opamp_flow",
            Workload::GridDc => "grid_dc",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measurement time of the untraced pass, seconds.
    pub seconds: f64,
    /// Run the traced pass and report the per-layer ledger instead.
    pub trace: bool,
}

/// Runs one workload and assembles its report.
pub fn run(workload: Workload, opts: &RunOptions, settings: &Settings) -> RunReport {
    let out = match workload {
        Workload::Table1Sim => sizing::run_table1(opts),
        Workload::OpampAwe => sizing::run_opamp_awe(opts),
        Workload::OpampFlow => opamp_flow::run(opts),
        Workload::GridDc => grid_dc::run(opts),
    };
    let mut ledger = out.ledger;
    if opts.trace {
        ledger.set("env.hw_threads", settings.hw_threads as f64);
        ledger.set("env.exec_threads", settings.exec_threads as f64);
        ledger.set(
            "failed_frac",
            ratio(out.checks.failed as f64, out.checks.attempted as f64),
        );
    } else {
        ledger.set("peak_rss_mb", env::peak_rss_mb().unwrap_or(0.0));
    }
    RunReport {
        workload: workload.name(),
        traced: opts.trace,
        attempted: out.checks.attempted,
        failed: out.checks.failed,
        correct: out.checks.wrong == 0 && out.checks.attempted > 0,
        ledger,
        counts: out.counts,
    }
}

/// What a workload module hands back.
struct Outcome {
    checks: Checks,
    ledger: Ledger,
    counts: BTreeMap<String, u64>,
}

/// The outcome of checking one top-level operation's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The operation delivered what it was asked for.
    Ok,
    /// The operation did not deliver, and its own result says so (an
    /// error, an infeasible champion reported as infeasible, a flow
    /// labelled `RoutingIncomplete`).
    Failed,
    /// The output contradicts itself or an independent reference (a
    /// champion claimed feasible that misses a bound, sparse ≠ dense).
    Wrong,
}

/// Tally of output checks over top-level operations. Both non-`Ok`
/// verdicts count as failed operations; only `Wrong` makes a run
/// incorrect.
#[derive(Debug, Default, Clone, Copy)]
struct Checks {
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Checks {
    /// Records one checked operation; a failure is logged to stderr and
    /// counted, never ignored.
    fn record(&mut self, verdict: Verdict, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if verdict != Verdict::Ok {
            self.failed += 1;
            self.wrong += u64::from(verdict == Verdict::Wrong);
            eprintln!("check {verdict:?}: {}", what());
        }
    }
}

/// Verdict of a sizing champion: `claimed` is the optimizer's own
/// feasibility flag, `meets` the spec re-checked on its performance.
fn sizing_verdict(claimed: bool, meets: bool) -> Verdict {
    match (claimed, meets) {
        (true, true) => Verdict::Ok,
        (false, false) => Verdict::Failed,
        _ => Verdict::Wrong,
    }
}

/// Runs `f` with tracing paused: output checks re-solve circuits, and
/// that work belongs neither to the timed layers nor to the work ledger.
fn without_trace<T>(f: impl FnOnce() -> T) -> T {
    let was = ams_trace::enabled();
    ams_trace::set_enabled(false);
    let out = f();
    ams_trace::set_enabled(was);
    out
}

/// Repeats `setup` for [`SETUP_MIN_S`] (at least [`SETUP_MIN_REPS`]
/// times), interleaved with calibration slices, and returns the last
/// result with the median set-up time in reference seconds. Spreading
/// set-up over two seconds averages the host's second-to-second swings, as
/// the repetitions do for `wall_s`.
fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut cal = Calibration::default();
    let start = Instant::now();
    let mut since_slice = Instant::now();
    let mut per_setup = Vec::new();
    let mut batch = 1usize;
    loop {
        let t = Instant::now();
        let mut out = setup();
        for _ in 1..batch {
            out = setup();
        }
        let dt = t.elapsed().as_secs_f64();
        per_setup.push(dt / batch as f64);
        if dt < SETUP_BATCH_S {
            batch *= 2;
        }
        if since_slice.elapsed().as_secs_f64() >= SETUP_SLICE_EVERY_S {
            cal.sample();
            since_slice = Instant::now();
        }
        if per_setup.len() >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_MIN_S {
            cal.sample();
            let raw = median(&per_setup);
            eprintln!(
                "setup: {raw:.9} s (median of {}), calibration slice {:.3} ms",
                per_setup.len(),
                cal.slice_s() * 1e3
            );
            return (out, cal.to_reference(raw));
        }
    }
}

/// Repetitions of an untraced run: as many as fill `seconds` at the
/// workload's nominal repetition time `rep_ref_s` (reference seconds),
/// and at least [`MIN_REPS`].
fn untraced_reps(seconds: f64, rep_ref_s: f64) -> u64 {
    ((seconds / rep_ref_s).round() as u64).max(MIN_REPS)
}

/// The untraced pass: runs `rep(0, cal)`, `rep(1, cal)`, … — each
/// returning its wall seconds — [`untraced_reps`] times, with a
/// calibration slice before the first and after every repetition. A
/// repetition made of several timed calls also samples `cal` between
/// them, so the mean slice follows the host through the repetition. `wall_s` is the mean
/// repetition time in reference seconds (a mean, so that it integrates
/// the host's speed over the run exactly as the mean slice does);
/// `setup_s` is passed through from [`timed_setup`]. Peak RSS is read
/// last, in [`run`].
fn untraced_pass(
    opts: &RunOptions,
    setup_s: f64,
    rep_ref_s: f64,
    mut rep: impl FnMut(u64, &mut Calibration) -> f64,
) -> Ledger {
    let mut cal = Calibration::default();
    cal.sample();
    let wall: Vec<f64> = (0..untraced_reps(opts.seconds, rep_ref_s))
        .map(|i| {
            let dt = rep(i, &mut cal);
            cal.sample();
            dt
        })
        .collect();
    let mean_wall = wall.iter().sum::<f64>() / wall.len() as f64;
    eprintln!(
        "measured: wall {mean_wall:.6} s (mean of {}), calibration slice {:.3} ms",
        wall.len(),
        cal.slice_s() * 1e3
    );
    eprintln!("repetitions_s: {wall:?}");
    eprintln!("slices_s: {:?}", cal.slices());
    let mut ledger = Ledger::default();
    ledger.set("wall_s", cal.to_reference(mean_wall));
    ledger.set("setup_s", setup_s);
    ledger
}

/// The traced pass: `reps` pairs on a fresh trace collector, each running
/// `rep(i, false)` untraced and then `rep(i, true)` with tracing on, with
/// a calibration slice before each pair (its mean is reported as
/// `env.calib_ms`, so the pass's raw times can be related to host speed).
/// Returns both halves and the snapshot of the traced work alone.
fn paired<R>(
    ledger: &mut Ledger,
    reps: u64,
    mut rep: impl FnMut(u64, bool) -> R,
) -> (Vec<R>, Vec<R>, Snapshot) {
    ams_trace::reset();
    let mut cal = Calibration::default();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for i in 0..reps {
        cal.sample();
        off.push(rep(i, false));
        ams_trace::set_enabled(true);
        on.push(rep(i, true));
        ams_trace::set_enabled(false);
    }
    ledger.set("env.calib_ms", cal.slice_s() * 1e3);
    (off, on, ams_trace::snapshot())
}

/// Total microseconds of every span whose innermost name is `leaf`,
/// wherever it nests.
fn span_us(snap: &Snapshot, leaf: &str) -> f64 {
    snap.spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
        .map(|(_, s)| s.total_us)
        .sum()
}

/// Total microseconds of the direct children of the span path `parent`.
fn children_us(snap: &Snapshot, parent: &str) -> f64 {
    let prefix = format!("{parent}/");
    snap.spans
        .iter()
        .filter(|(path, _)| {
            path.strip_prefix(&prefix)
                .is_some_and(|rest| !rest.contains('/'))
        })
        .map(|(_, s)| s.total_us)
        .sum()
}

/// A counter's value, 0 when never bumped.
fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Per-layer metrics every traced run derives the same way: the counted
/// trace counters, Newton and DC-failure ratios, cache hit rate, and the
/// tracing overhead of `traced_s` over `untraced_s` for identical work.
fn common_layers(ledger: &mut Ledger, snap: &Snapshot, untraced_s: f64, traced_s: f64) {
    for &name in COUNTED {
        ledger.set(name, counter(snap, name) as f64);
    }
    let solves = counter(snap, "sim.dc_solves") as f64;
    ledger.set(
        "sim.newton_per_solve",
        ratio(counter(snap, "sim.newton_iters") as f64, solves),
    );
    ledger.set(
        "sim.dc_fail_frac",
        ratio(counter(snap, "sim.dc_failures") as f64, solves),
    );
    let hits = counter(snap, "exec.cache.hit") as f64;
    let misses = counter(snap, "exec.cache.miss") as f64;
    ledger.set("exec.cache.hit_rate", ratio(hits, hits + misses));
    ledger.set("trace.overhead_frac", ratio(traced_s, untraced_s) - 1.0);
}
