//! `opamp_flow`: the §2.1 flow — topology selection, analytic sizing,
//! ERC, place, route, extraction — over a seed set.
//!
//! Each repetition runs `ams_core::synthesize_opamp` [`FLOWS_PER_REP`]
//! times, each with its own sizing and placer seed derived from the
//! workload seed. The flow composes its phases privately, so the traced
//! pass reads the flow's existing `flow.*` and `layout.*` spans and
//! counters, and replays the sizing phase through `ams_sizing::optimize`
//! with a timed model to split evaluations from the anneal loop.

use super::{
    children_us, common_layers, counter, paired, span_us, timed_setup, untraced_pass, Checks,
    Outcome, RunOptions, Verdict,
};
use crate::calib::Calibration;
use crate::ledger::Ledger;
use crate::stats::{derive, median, percentile, ratio};
use crate::timed::{time_us, TimedModel};
use ams_core::{synthesize_opamp, DegradeReason, FlowConfig, FlowError, FlowOutcome, FlowReport};
use ams_netlist::Technology;
use ams_sizing::{optimize, AnnealConfig, PerfModel, SymmetricalOtaModel, TwoStageModel};
use ams_topology::{Bound, Spec};
use std::collections::BTreeMap;

/// Seed stream of the flow seed set.
const FLOW_STREAM: u64 = 3;
/// Flow runs per repetition.
const FLOWS_PER_REP: u64 = 8;
/// Nominal untraced repetition time, reference seconds.
const REP_REF_S: f64 = 1.5;
/// Repetitions of each half of a traced run.
const TRACE_REPS: u64 = 4;
/// Load capacitance of the synthesized opamp, farads.
const LOAD_F: f64 = 5e-12;

/// The flow's opamp spec (the `opamp_flow` example's).
fn flow_spec() -> Spec {
    Spec::new()
        .require("gain_db", Bound::AtLeast(60.0))
        .require("ugf_hz", Bound::AtLeast(5e6))
        .require("phase_margin_deg", Bound::AtLeast(55.0))
        .require("slew_v_per_s", Bound::AtLeast(4e6))
        .require("swing_v", Bound::AtLeast(2.0))
        .minimizing("power_w")
}

/// One flow run as the benchmark saw it.
struct FlowRun {
    call_us: f64,
    nominal: bool,
    area_um2: f64,
    power_mw: f64,
    topology: String,
    sizing: AnnealConfig,
    /// Layout time of a run that needed the relaxed router (its failed
    /// first layout plus the relaxed re-route), microseconds; traced only.
    relaxed_us: f64,
}

/// `opamp_flow`.
pub(super) fn run(opts: &RunOptions) -> Outcome {
    let ((spec, tech, base), setup_s) = timed_setup(|| {
        (
            flow_spec(),
            Technology::generic_1p2um(),
            FlowConfig::default(),
        )
    });
    let mut checks = Checks::default();
    let rep = |i: u64,
               checks: &mut Checks,
               traced: bool,
               mut cal: Option<&mut Calibration>|
     -> Vec<FlowRun> {
        (0..FLOWS_PER_REP)
            .map(|k| {
                // A slice between flow runs; the untraced pass takes the
                // one after the last.
                if let (Some(cal), true) = (cal.as_mut(), k > 0) {
                    cal.sample();
                }
                let mut cfg = base.clone();
                cfg.sizing.seed = derive(opts.seed, &[FLOW_STREAM, i, k, 0]);
                cfg.layout.placer.seed = derive(opts.seed, &[FLOW_STREAM, i, k, 1]);
                let before = traced.then(ams_trace::snapshot);
                let (res, call_us) = time_us(|| synthesize_opamp(&spec, &tech, LOAD_F, &cfg));
                let relaxed_us = before.map_or(0.0, |b| relaxed_layout_us(&b));
                checks.record(flow_verdict(&res, &spec), || match &res {
                    Ok(r) => format!(
                        "opamp_flow rep {i} run {k}: unrouted {:?}, outcome {:?}",
                        r.layout.failed_nets, r.outcome
                    ),
                    Err(e) => format!("opamp_flow rep {i} run {k}: {e}"),
                });
                FlowRun {
                    call_us,
                    nominal: res.as_ref().is_ok_and(|r| !r.outcome.is_degraded()),
                    area_um2: res.as_ref().map_or(0.0, |r| r.layout.area_um2),
                    power_mw: res.as_ref().map_or(0.0, |r| {
                        r.pre_layout_perf.get("power_w").copied().unwrap_or(0.0) * 1e3
                    }),
                    topology: res.as_ref().map_or(String::new(), |r| r.topology.clone()),
                    sizing: cfg.sizing,
                    relaxed_us,
                }
            })
            .collect()
    };

    if !opts.trace {
        let ledger = untraced_pass(opts, setup_s, REP_REF_S, |i, cal| {
            let runs = rep(i, &mut checks, false, Some(cal));
            runs.iter().map(|r| r.call_us).sum::<f64>() / 1e6
        });
        return Outcome {
            checks,
            ledger,
            counts: BTreeMap::new(),
        };
    }

    let mut ledger = Ledger::default();
    let (untraced, traced_runs, snap) = paired(&mut ledger, TRACE_REPS, |i, on| {
        rep(i, &mut checks, on, None)
    });
    let (untraced, traced_runs): (Vec<FlowRun>, Vec<FlowRun>) = (
        untraced.into_iter().flatten().collect(),
        traced_runs.into_iter().flatten().collect(),
    );
    let untraced_us: f64 = untraced.iter().map(|r| r.call_us).sum();
    let traced_us: f64 = traced_runs.iter().map(|r| r.call_us).sum();
    common_layers(&mut ledger, &snap, untraced_us, traced_us);

    let nominal = untraced.iter().filter(|r| r.nominal).count();
    ledger.set("nominal_frac", ratio(nominal as f64, untraced.len() as f64));
    let areas: Vec<f64> = untraced.iter().map(|r| r.area_um2).collect();
    ledger.set("area_um2_p50", median(&areas));
    let power: Vec<f64> = untraced.iter().map(|r| r.power_mw).collect();
    ledger.set("power_mw", median(&power));

    let runs = traced_runs.len() as f64;
    let per_run_ms = |us: f64| us / runs / 1e3;
    let place = span_us(&snap, "layout.place");
    let route = span_us(&snap, "layout.route");
    ledger.set("layout.place_ms", per_run_ms(place));
    ledger.set("layout.route_ms", per_run_ms(route));
    ledger.set(
        "layout.relaxed_ms",
        per_run_ms(traced_runs.iter().map(|r| r.relaxed_us).sum()),
    );
    ledger.set("layout.wall_share", ratio(place + route, traced_us));
    ledger.set("lint.erc_ms", per_run_ms(span_us(&snap, "flow.erc")));
    ledger.set(
        "topology.select_ms",
        per_run_ms(span_us(&snap, "flow.topology_select")),
    );
    let flow_us = span_us(&snap, "flow.synthesize_opamp");
    let phases_us = children_us(&snap, "flow.synthesize_opamp");
    ledger.set("core.flow_self_ms", per_run_ms(flow_us - phases_us));
    ledger.set("layers.coverage_frac", ratio(phases_us, traced_us));

    replay_sizing(&mut ledger, &spec, &tech, &traced_runs);
    Outcome {
        checks,
        ledger,
        counts: snap.counters,
    }
}

/// A flow run must return `Ok` with a completely routed layout. An error,
/// or an incomplete layout labelled `RoutingIncomplete`, is a reported
/// failure; an unlabelled incomplete layout, or a `Nominal` outcome that
/// misses the spec, is wrong.
fn flow_verdict(res: &Result<FlowReport, FlowError>, spec: &Spec) -> Verdict {
    let Ok(report) = res else {
        return Verdict::Failed;
    };
    let complete = report.layout.is_complete();
    match &report.outcome {
        FlowOutcome::Nominal if complete && report.meets(spec) => Verdict::Ok,
        FlowOutcome::Nominal => Verdict::Wrong,
        FlowOutcome::Degraded { .. } if complete => Verdict::Ok,
        FlowOutcome::Degraded { reasons } => {
            let labelled = reasons
                .iter()
                .any(|r| matches!(r, DegradeReason::RoutingIncomplete { .. }));
            if labelled {
                Verdict::Failed
            } else {
                Verdict::Wrong
            }
        }
    }
}

/// Layout time since `before` if the run took the relaxed-router rung:
/// the failed first layout plus the relaxed re-route.
fn relaxed_layout_us(before: &ams_trace::Snapshot) -> f64 {
    let after = ams_trace::snapshot();
    if counter(&after, "flow.router_relaxed") == counter(before, "flow.router_relaxed") {
        return 0.0;
    }
    ["flow.layout", "flow.layout_relaxed"]
        .iter()
        .map(|leaf| span_us(&after, leaf) - span_us(before, leaf))
        .sum()
}

/// Replays the sizing phase of the first repetition's flow runs through
/// `ams_sizing::optimize` with a timed model (untraced), giving the
/// per-evaluation cost and the anneal loop's own share.
fn replay_sizing(ledger: &mut Ledger, spec: &Spec, tech: &Technology, runs: &[FlowRun]) {
    let (mut eval_us, mut wall_us, mut evals) = (Vec::new(), 0.0, 0usize);
    for run in runs.iter().take(FLOWS_PER_REP as usize) {
        let (evaluations, us, samples) = if run.topology == "symmetrical_ota" {
            sized(
                &SymmetricalOtaModel::new(tech.clone(), LOAD_F),
                spec,
                &run.sizing,
            )
        } else {
            sized(&TwoStageModel::new(tech.clone(), LOAD_F), spec, &run.sizing)
        };
        evals += evaluations;
        wall_us += us;
        eval_us.extend(samples);
    }
    let eval_total: f64 = eval_us.iter().sum();
    ledger.set("evals_per_s", ratio(evals as f64, wall_us / 1e6));
    ledger.set("sizing.eval_us_p50", percentile(&eval_us, 50.0));
    ledger.set("sizing.eval_us_p99", percentile(&eval_us, 99.0));
    ledger.set("sizing.loop_self_share", 1.0 - ratio(eval_total, wall_us));
}

/// One timed `optimize` call: evaluations, wall microseconds, and the
/// per-evaluation samples.
fn sized<M: PerfModel>(model: &M, spec: &Spec, cfg: &AnnealConfig) -> (usize, f64, Vec<f64>) {
    let timed = TimedModel::new(model);
    let (r, us) = time_us(|| optimize(&timed, spec, cfg));
    (r.evaluations, us, timed.take().eval_us)
}
