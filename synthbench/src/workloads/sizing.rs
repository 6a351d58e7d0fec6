//! The two simulation-in-the-loop sizing workloads.
//!
//! * `table1_sim` — `ams_sizing::optimize` on the simulated Table 1
//!   pulse-detector model: every candidate runs a DC solve and a
//!   241-point AC sweep, and the sweep dominates.
//! * `opamp_awe` — `ams_sizing::synthesize` on the two-stage opamp
//!   template with AWE order 3 against the Fig. 1 spec: no sweep, and the
//!   DC ladder (gmin / source stepping, perturbed retries) dominates.
//!
//! Both anneal on the default 60-stage schedule with a seed derived per
//! repetition (`opamp_awe` with fewer moves per stage, see
//! [`AWE_MOVES_PER_STAGE`]), and time every candidate evaluation through
//! a bench-side wrapper.

use super::{
    common_layers, paired, sizing_verdict, span_us, timed_setup, untraced_pass, Checks, Outcome,
    RunOptions,
};
use crate::ledger::Ledger;
use crate::stats::{derive, median, percentile, ratio};
use crate::timed::{time_us, Samples, TimedModel, TimedTemplate};
use ams_awe::AweModel;
use ams_core::{table1_spec, PulseDetectorModel, SimulatedPulseDetectorModel};
use ams_guard::Retry;
use ams_netlist::Technology;
use ams_sim::{log_frequencies, BatchSession};
use ams_sizing::{
    optimize, synthesize, AcEvaluator, AnnealConfig, PerfModel, SimulatedTemplate, TwoStageCircuit,
};
use ams_topology::{Bound, Spec};
use std::collections::BTreeMap;

/// Seed stream of `table1_sim` anneals.
const TABLE1_STREAM: u64 = 1;
/// Seed stream of `opamp_awe` anneals.
const AWE_STREAM: u64 = 2;
/// Seed stream of the `opamp_awe` replay sample.
const REPLAY_STREAM: u64 = 20;
/// Nominal untraced repetition time of `table1_sim`, reference seconds.
const TABLE1_REP_REF_S: f64 = 2.2;
/// Nominal untraced repetition time of `opamp_awe`, reference seconds.
const AWE_REP_REF_S: f64 = 1.35;
/// Repetitions of each half of a traced run.
const TRACE_REPS: u64 = 2;
/// Anneal moves per temperature stage of `opamp_awe`: half the default,
/// on the default 60-stage cooling schedule. One anneal's cost
/// depends on its trajectory (2–6 s at the full default budget), so a run
/// must hold many anneals for its mean to be steady across seeds; at the
/// default budget a 25 s run held about 8, and on a 2-vCPU shared VM the
/// seed-to-seed spread of `wall_s` was 0.17–0.21.
const AWE_MOVES_PER_STAGE: usize = 100;
/// Candidates the `opamp_awe` replay re-simulates layer by layer.
const REPLAY_SAMPLE: usize = 64;
/// Points of the replayed AC sweep (the `table1_sim` sweep length).
const AC_POINTS: usize = 241;
/// AWE order of `opamp_awe`.
const AWE_ORDER: usize = 3;
/// A hand-picked two-stage sizing (w1, w3, w6, itail, i2, cc, l) that
/// biases cleanly; set-up measures it once to capture the template's
/// shared symbolic analysis.
const REFERENCE_SIZING: [f64; 7] = [60e-6, 30e-6, 150e-6, 50e-6, 150e-6, 2e-12, 2.4e-6];

/// One optimizer call: its wall time, work, champion power, and the
/// per-candidate samples the wrapper took.
struct SizingRep {
    wall_s: f64,
    evals: usize,
    power_mw: f64,
    samples: Samples,
}

/// The Fig. 1 two-stage spec: UGF ≥ 10 MHz, slew ≥ 10 V/µs, PM ≥ 60°,
/// minimum power.
fn fig1_spec() -> Spec {
    Spec::new()
        .require("ugf_hz", Bound::AtLeast(1e7))
        .require("slew_v_per_s", Bound::AtLeast(1e7))
        .require("phase_margin_deg", Bound::AtLeast(60.0))
        .minimizing("power_w")
}

/// The default anneal budget, seeded for repetition `rep`.
fn anneal(seed: u64, stream: u64, rep: u64) -> AnnealConfig {
    AnnealConfig {
        seed: derive(seed, &[stream, rep]),
        ..AnnealConfig::default()
    }
}

/// `table1_sim`.
pub(super) fn run_table1(opts: &RunOptions) -> Outcome {
    let ((model, spec), setup_s) = timed_setup(|| {
        let model = SimulatedPulseDetectorModel::new(Technology::generic_1p2um());
        // The first evaluation captures the symbolic analysis every later
        // candidate reuses: lazy set-up, paid here rather than in rep 0.
        let manual = PulseDetectorModel::new(model.tech.clone()).manual_design();
        let _ = model.evaluate(&manual);
        (model, table1_spec())
    });
    let rep = |i: u64, _record: bool, checks: &mut Checks| {
        let timed = TimedModel::new(&model);
        let (r, us) = time_us(|| optimize(&timed, &spec, &anneal(opts.seed, TABLE1_STREAM, i)));
        let verdict = sizing_verdict(r.feasible, spec.satisfied_by(&r.perf));
        checks.record(verdict, || {
            format!("table1_sim rep {i}: champion {:?}", r.perf)
        });
        SizingRep {
            wall_s: us / 1e6,
            evals: r.evaluations,
            power_mw: r.perf.get("power_w").copied().unwrap_or(0.0) * 1e3,
            samples: timed.take(),
        }
    };
    drive(opts, setup_s, TABLE1_REP_REF_S, rep, |_, _| {})
}

/// `opamp_awe`.
pub(super) fn run_opamp_awe(opts: &RunOptions) -> Outcome {
    let ((template, batch, spec), setup_s) = timed_setup(|| {
        let template = TwoStageCircuit::new(Technology::generic_1p2um(), 5e-12);
        let reference = template.build(&REFERENCE_SIZING);
        // Captures the template's shared symbolic analysis (see above).
        let _ = template.measure(&reference, AcEvaluator::Awe { order: AWE_ORDER });
        let batch = BatchSession::capture(&reference);
        (template, batch, fig1_spec())
    });
    let ac = AcEvaluator::Awe { order: AWE_ORDER };
    let rep = |i: u64, record: bool, checks: &mut Checks| {
        let timed = TimedTemplate::new(&template, record);
        let cfg = AnnealConfig {
            moves_per_stage: AWE_MOVES_PER_STAGE,
            ..anneal(opts.seed, AWE_STREAM, i)
        };
        let (r, us) = time_us(|| synthesize(&timed, &spec, ac, &cfg));
        let verdict = sizing_verdict(r.feasible, spec.satisfied_by(&r.perf));
        checks.record(verdict, || {
            format!("opamp_awe rep {i}: champion {:?}", r.perf)
        });
        SizingRep {
            wall_s: us / 1e6,
            evals: r.evaluations,
            power_mw: r.perf.get("power_w").copied().unwrap_or(0.0) * 1e3,
            samples: timed.take(),
        }
    };
    drive(opts, setup_s, AWE_REP_REF_S, rep, |ledger, reps| {
        let visited: Vec<&[f64]> = reps
            .iter()
            .flat_map(|r| r.samples.visited.iter().map(Vec::as_slice))
            .collect();
        replay(ledger, &template, &batch, &visited, opts.seed);
    })
}

/// The pass structure of both sizing workloads; `rep_ref_s` is the
/// nominal untraced repetition time, and `replay` adds workload-specific
/// per-layer metrics from the traced repetitions.
fn drive(
    opts: &RunOptions,
    setup_s: f64,
    rep_ref_s: f64,
    mut rep: impl FnMut(u64, bool, &mut Checks) -> SizingRep,
    replay: impl FnOnce(&mut Ledger, &[SizingRep]),
) -> Outcome {
    let mut checks = Checks::default();
    if !opts.trace {
        let ledger = untraced_pass(opts, setup_s, rep_ref_s, |i, _| {
            rep(i, false, &mut checks).wall_s
        });
        return Outcome {
            checks,
            ledger,
            counts: BTreeMap::new(),
        };
    }

    let mut ledger = Ledger::default();
    let (untraced, traced_reps, snap) =
        paired(&mut ledger, TRACE_REPS, |i, on| rep(i, on, &mut checks));
    let untraced_s: f64 = untraced.iter().map(|r| r.wall_s).sum();
    let traced_s: f64 = traced_reps.iter().map(|r| r.wall_s).sum();
    common_layers(&mut ledger, &snap, untraced_s, traced_s);

    let evals: usize = untraced.iter().map(|r| r.evals).sum();
    ledger.set("evals_per_s", ratio(evals as f64, untraced_s));
    let power: Vec<f64> = untraced.iter().map(|r| r.power_mw).collect();
    ledger.set("power_mw", median(&power));

    let eval_us: Vec<f64> = traced_reps
        .iter()
        .flat_map(|r| r.samples.eval_us.iter().copied())
        .collect();
    let build_us: Vec<f64> = traced_reps
        .iter()
        .flat_map(|r| r.samples.build_us.iter().copied())
        .collect();
    let eval_total: f64 = eval_us.iter().sum();
    let wall_us = traced_s * 1e6;
    ledger.set("sizing.eval_us_p50", percentile(&eval_us, 50.0));
    ledger.set("sizing.eval_us_p99", percentile(&eval_us, 99.0));
    ledger.set("sizing.loop_self_share", 1.0 - ratio(eval_total, wall_us));
    ledger.set("layers.coverage_frac", ratio(eval_total, wall_us));
    ledger.set(
        "sim.dc_op_share",
        ratio(span_us(&snap, "sim.dc_op"), eval_total),
    );
    if !build_us.is_empty() {
        ledger.set("netlist.build_us", median(&build_us));
    }
    replay(&mut ledger, &traced_reps);

    Outcome {
        checks,
        ledger,
        counts: snap.counters,
    }
}

/// Re-simulates a seeded sample of the candidates the traced `opamp_awe`
/// anneal visited, one public call at a time, to split an evaluation into
/// ERC, structural analysis, bind, DC, linearization, AC per point, and
/// the AWE model. Runs untraced, so it adds nothing to the work ledger.
fn replay(
    ledger: &mut Ledger,
    template: &TwoStageCircuit,
    batch: &BatchSession,
    visited: &[&[f64]],
    seed: u64,
) {
    if visited.is_empty() {
        return;
    }
    let ac_freqs = log_frequencies(10.0, 1e10, AC_POINTS);
    // The AWE evaluator's response grid inside `TwoStageCircuit::measure`.
    let awe_freqs = log_frequencies(10.0, 1e10, 181);
    let (mut erc, mut structural, mut bind, mut op) = (vec![], vec![], vec![], vec![]);
    let (mut linearize, mut ac, mut awe) = (vec![], vec![], vec![]);
    for j in 0..REPLAY_SAMPLE {
        let pick = derive(seed, &[REPLAY_STREAM, j as u64]) % visited.len() as u64;
        let ckt = template.build(visited[pick as usize]);
        erc.push(time_us(|| ams_lint::lint_circuit(&ckt)).1);
        structural.push(time_us(|| ams_lint::analyze_circuit_structure(&ckt)).1);
        let (ses, us) = time_us(|| batch.bind(&ckt));
        bind.push(us);
        let Ok(ses) = ses else { continue };
        let (bias, us) = time_us(|| ses.op_retry(&Retry::default()));
        op.push(us);
        if bias.is_err() {
            continue;
        }
        let (net, us) = time_us(|| ses.linearize());
        linearize.push(us);
        let (Ok(net), Some(out)) = (net, ses.output_index("out")) else {
            continue;
        };
        let (sweep, us) = time_us(|| ses.ac("out", &ac_freqs));
        if sweep.is_ok() {
            ac.push(us / AC_POINTS as f64);
        }
        let (_, us) = time_us(|| {
            AweModel::from_net(&net, out, AWE_ORDER).map(|m| m.frequency_response(&awe_freqs))
        });
        awe.push(us);
    }
    ledger.set("lint.erc_us", median(&erc));
    ledger.set("lint.structural_us", median(&structural));
    ledger.set("sim.bind_us", median(&bind));
    ledger.set("sim.op_us", median(&op));
    ledger.set("sim.linearize_us", median(&linearize));
    ledger.set("sim.ac_us_per_point", median(&ac));
    ledger.set("awe.model_us", median(&awe));
}
