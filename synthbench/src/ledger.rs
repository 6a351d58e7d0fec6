//! The metric catalogue, per-run ledger, and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's contract with
//! `BENCHMARK.json`: an untraced run reports exactly the first list, a
//! traced run exactly the second. Every workload reports every metric; a
//! per-layer metric of a layer the workload bypasses reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics `(name, unit)` of the traced pass.
pub const PER_LAYER: &[(&str, &str)] = &[
    // sizing
    ("sizing.eval_us_p50", "us"),
    ("sizing.eval_us_p99", "us"),
    ("sizing.loop_self_share", "ratio"),
    ("sizing.anneal_evals", "count"),
    // exec
    ("exec.cache.hit", "count"),
    ("exec.cache.miss", "count"),
    ("exec.cache.hit_rate", "ratio"),
    // netlist
    ("netlist.build_us", "us"),
    // lint
    ("lint.erc_us", "us"),
    ("lint.structural_us", "us"),
    ("lint.erc_ms", "ms"),
    // sim: sizing-eval breakdown
    ("sim.dc_op_share", "ratio"),
    ("sim.newton_iters", "count"),
    ("sim.dc_solves", "count"),
    ("sim.dc_failures", "count"),
    ("sim.dc_retries", "count"),
    ("sim.dc_gmin_stages", "count"),
    ("sim.dc_source_steps", "count"),
    ("sim.lu_factors", "count"),
    ("sim.newton_per_solve", "iter/solve"),
    ("sim.dc_fail_frac", "ratio"),
    ("sim.bind_us", "us"),
    ("sim.op_us", "us"),
    ("sim.linearize_us", "us"),
    ("sim.ac_us_per_point", "us"),
    // sim: grid
    ("sim.analyze_ms", "ms"),
    ("sim.first_op_ms", "ms"),
    ("sim.refactor_ms_per_lin", "ms"),
    ("sim.small_op_ms", "ms"),
    ("sim.sparse.fill_in", "count"),
    ("sim.sparse.refactor", "count"),
    ("sim.sparse_wall_share", "ratio"),
    // awe
    ("awe.model_us", "us"),
    // layout
    ("layout.place_ms", "ms"),
    ("layout.route_ms", "ms"),
    ("layout.relaxed_ms", "ms"),
    ("layout.route_expansions", "count"),
    ("layout.route_ripups", "count"),
    ("layout.route_nets_failed", "count"),
    ("layout.wall_share", "ratio"),
    // core
    ("core.flow_self_ms", "ms"),
    ("flow.redesign_iterations", "count"),
    ("flow.router_relaxed", "count"),
    // topology
    ("topology.select_ms", "ms"),
    // rail
    ("rail.to_circuit_ms", "ms"),
    // trace
    ("trace.overhead_frac", "ratio"),
    ("layers.coverage_frac", "ratio"),
    // the workload's own figures, from the untraced half of a traced run
    ("evals_per_s", "1/s"),
    ("power_mw", "mW"),
    ("nominal_frac", "ratio"),
    ("area_um2_p50", "um2"),
    ("first_solve_s", "s"),
    ("refactor_ms", "ms"),
    ("small_solve_ms", "ms"),
    ("failed_frac", "ratio"),
    // settings
    ("env.hw_threads", "count"),
    ("env.exec_threads", "count"),
    ("env.calib_ms", "ms"),
];

/// Trace counters copied verbatim into the per-layer metrics; they are
/// also part of the exact-match work ledger.
pub const COUNTED: &[&str] = &[
    "sizing.anneal_evals",
    "exec.cache.hit",
    "exec.cache.miss",
    "sim.newton_iters",
    "sim.dc_solves",
    "sim.dc_failures",
    "sim.dc_retries",
    "sim.dc_gmin_stages",
    "sim.dc_source_steps",
    "sim.lu_factors",
    "sim.sparse.fill_in",
    "sim.sparse.refactor",
    "layout.route_expansions",
    "layout.route_ripups",
    "layout.route_nets_failed",
    "flow.redesign_iterations",
    "flow.router_relaxed",
];

/// Metric values of one run, keyed by catalogue name.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .find(|&n| n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        self.values.insert(key, value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// Top-level operations whose outputs were checked.
    pub attempted: u64,
    /// Checked operations that failed (reported by the program or not).
    pub failed: u64,
    /// No operation's output contradicted itself or its reference.
    pub correct: bool,
    /// Metric values.
    pub ledger: Ledger,
    /// Exact-match work ledger of the traced pass (every `ams-trace`
    /// counter); empty for an untraced run.
    pub counts: BTreeMap<String, u64>,
}

impl RunReport {
    /// The metrics this run reports, in catalogue order: [`END_TO_END`]
    /// untraced, [`PER_LAYER`] traced. Unset per-layer metrics (layers the
    /// workload bypasses) read 0.
    ///
    /// # Panics
    ///
    /// Panics when an end-to-end metric was not set.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        if self.traced {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, self.ledger.get(n).unwrap_or(0.0), u))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| {
                    let v = self.ledger.get(n);
                    (
                        n,
                        v.unwrap_or_else(|| panic!("end-to-end metric `{n}` unset")),
                        u,
                    )
                })
                .collect()
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN/inf; a non-finite value is a benchmark bug
            // and reads as 0 rather than breaking the line.
            let v = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }

    /// The exact-match work ledger as one JSON object of counters.
    pub fn counts_json(&self) -> String {
        let body: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}
