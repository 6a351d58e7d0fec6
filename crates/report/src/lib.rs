//! Regression reporting over `BENCH_table1.json` documents.
//!
//! The library half of the `ams-report` binary: loading, flattening,
//! classifying and diffing bench reports, plus a synthetic-regression
//! injector used by the `scripts/check.sh` self-check gate (quick bench
//! twice → diff passes; injected regression → diff fails).
//!
//! Metrics are classified into two kinds:
//!
//! * **checked** — deterministic for a fixed seed and build (counters,
//!   fill-in, unknowns, BTF blocks, feasibility, power reduction).
//!   Differences beyond the per-metric tolerance are regressions and make
//!   `diff` exit nonzero.
//! * **informational** — wall-clock derived (`*_s`, `*_us`, `*per_sec*`,
//!   speedups, `hw_threads`, work-stealing counts). Differences are
//!   printed but never fail the diff.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ams_bench::table1_report::FILL_BAND;
use ams_trace::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Loads and parses a JSON report file.
pub fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("could not read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One flattened scalar metric of a report.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A JSON number.
    Num(f64),
    /// A JSON boolean.
    Bool(bool),
    /// A JSON string.
    Text(String),
    /// JSON `null` (e.g. `dense_s` above the cutoff).
    Null,
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Metric::Num(v) => write!(f, "{v}"),
            Metric::Bool(b) => write!(f, "{b}"),
            Metric::Text(s) => write!(f, "{s}"),
            Metric::Null => write!(f, "null"),
        }
    }
}

/// Flattens a report into `path → scalar` with `/`-joined object keys and
/// `[i]`-indexed array elements, e.g. `counters/sim.newton_iters` or
/// `grid_scaling[2]/fill_in`.
pub fn flatten(v: &Value) -> BTreeMap<String, Metric> {
    let mut out = BTreeMap::new();
    flatten_into("", v, &mut out);
    out
}

fn flatten_into(prefix: &str, v: &Value, out: &mut BTreeMap<String, Metric>) {
    match v {
        Value::Object(members) => {
            for (k, child) in members {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}/{k}")
                };
                flatten_into(&key, child, out);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten_into(&format!("{prefix}[{i}]"), child, out);
            }
        }
        Value::Number(n) => {
            out.insert(prefix.to_string(), Metric::Num(*n));
        }
        Value::Bool(b) => {
            out.insert(prefix.to_string(), Metric::Bool(*b));
        }
        Value::String(s) => {
            out.insert(prefix.to_string(), Metric::Text(s.clone()));
        }
        Value::Null => {
            out.insert(prefix.to_string(), Metric::Null);
        }
    }
}

/// Whether a flattened metric path is wall-clock derived (or otherwise
/// schedule-sensitive) and therefore never a regression. Every `/`-path
/// segment is tested, so a counter leaf like `bench.parallel.serial_us`
/// classifies the same way as a top-level field, and an entire subtree
/// under a wall-clock name — e.g. the `histograms/ckpt.write_us/{count,
/// mean,p95,…}` summary of checkpoint commit latencies — is informational
/// as a unit. `ckpt_bytes` is exempted explicitly: journal size is
/// wall-clock-free but schedule-sensitive through the counter deltas the
/// journal embeds. Checkpoint *counters* (`ckpt.commits`, …) carry none
/// of these suffixes and stay deterministic-exact.
pub fn is_informational(path: &str) -> bool {
    path.split('/').any(|seg| {
        seg.ends_with("_s")
            || seg.ends_with("_us")
            || seg.ends_with("_seconds")
            || seg.contains("wall")
            || seg.contains("per_sec")
            || seg.contains("speedup")
            || seg.contains("steals")
            || seg == "hw_threads"
            || seg == "ckpt_bytes"
    })
}

/// Tolerances for the checked comparison.
pub struct DiffOptions {
    /// Relative tolerance applied to checked numeric metrics without a
    /// per-metric override. `0.0` means exact.
    pub default_tol: f64,
    /// Per-metric relative tolerances, keyed by full flattened path or by
    /// leaf name (leaf matches every row/phase carrying that field).
    pub tolerances: BTreeMap<String, f64>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        let mut tolerances = BTreeMap::new();
        // `fill_ratio` is actual-over-forecast fill of the sparse DC
        // factorization. Both sides are deterministic for a fixed build,
        // but the ratio legitimately moves when either the AMD ordering
        // or the kernel's pivot tie-breaks are retuned; the hard accuracy
        // gate is the `FILL_BAND` asserted by the bench and the test
        // battery, so report diffs only flag drift beyond 5%.
        tolerances.insert("fill_ratio".to_string(), 0.05);
        // `evals_per_sec` is throughput (work over wall time) and is
        // already classified informational by `is_informational` via its
        // `per_sec` segment; the explicit entry documents the intent and
        // keeps the metric out of the regression set even if the leaf is
        // ever renamed into a checked subtree.
        tolerances.insert("evals_per_sec".to_string(), f64::INFINITY);
        DiffOptions {
            default_tol: 0.0,
            tolerances,
        }
    }
}

impl DiffOptions {
    fn tol_for(&self, path: &str) -> f64 {
        if let Some(&t) = self.tolerances.get(path) {
            return t;
        }
        let leaf = path.rsplit('/').next().unwrap_or(path);
        self.tolerances
            .get(leaf)
            .copied()
            .unwrap_or(self.default_tol)
    }
}

/// Outcome of diffing two reports.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Checked metrics that changed beyond tolerance (or appeared /
    /// disappeared). Non-empty ⇒ regression ⇒ nonzero exit.
    pub regressions: Vec<String>,
    /// Informational (wall-clock) metrics that changed.
    pub informational: Vec<String>,
    /// Number of checked metrics that matched.
    pub checked_ok: usize,
}

impl DiffReport {
    /// Renders the diff as a printable block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.regressions.is_empty() {
            let _ = writeln!(out, "PASS: {} checked metrics match", self.checked_ok);
        } else {
            let _ = writeln!(
                out,
                "FAIL: {} regression(s), {} checked metrics match",
                self.regressions.len(),
                self.checked_ok
            );
            for r in &self.regressions {
                let _ = writeln!(out, "  REGRESSION {r}");
            }
        }
        for i in &self.informational {
            let _ = writeln!(out, "  info {i}");
        }
        out
    }
}

/// Diffs two reports: `a` is the baseline, `b` the candidate.
pub fn diff(a: &Value, b: &Value, opts: &DiffOptions) -> DiffReport {
    let fa = flatten(a);
    let fb = flatten(b);
    let mut report = DiffReport::default();
    let mut keys: Vec<&String> = fa.keys().collect();
    for k in fb.keys() {
        if !fa.contains_key(k) {
            keys.push(k);
        }
    }
    for key in keys {
        let (va, vb) = (fa.get(key), fb.get(key));
        let line = |x: Option<&Metric>| x.map_or("<absent>".to_string(), |m| m.to_string());
        let differs = match (va, vb) {
            (Some(Metric::Num(x)), Some(Metric::Num(y))) => {
                let tol = opts.tol_for(key);
                let scale = x.abs().max(y.abs()).max(1e-300);
                (x - y).abs() > tol * scale && x.to_bits() != y.to_bits()
            }
            (Some(x), Some(y)) => x != y,
            _ => true,
        };
        if !differs {
            if !is_informational(key) {
                report.checked_ok += 1;
            }
            continue;
        }
        let msg = format!("{key}: {} -> {}", line(va), line(vb));
        if is_informational(key) {
            report.informational.push(msg);
        } else {
            report.regressions.push(msg);
        }
    }
    report
}

/// Re-renders a parsed report as JSON text (pretty enough to be diffable,
/// stable member order as parsed).
pub fn render_json(v: &Value) -> String {
    let mut out = String::new();
    render_into(v, 0, &mut out);
    out.push('\n');
    out
}

fn render_into(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent + 1);
    let close = "  ".repeat(indent);
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Value::String(s) => {
            let _ = write!(out, "\"{}\"", json::escape_str(s));
        }
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&pad);
                render_into(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&close);
            out.push(']');
        }
        Value::Object(members) => {
            if members.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&pad);
                let _ = write!(out, "\"{}\": ", json::escape_str(k));
                render_into(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&close);
            out.push('}');
        }
    }
}

/// Injects a synthetic regression into a report: doubles (plus one) every
/// counter named in `targets`, or the first checked counter when `targets`
/// is empty. Returns the names perturbed. Used by the check.sh negative
/// test: a diff against the unperturbed report must fail.
pub fn inject_regression(v: &mut Value, targets: &[String]) -> Vec<String> {
    let mut hit = Vec::new();
    if let Value::Object(members) = v {
        for (k, child) in members.iter_mut() {
            if k != "counters" {
                continue;
            }
            if let Value::Object(counters) = child {
                for (name, val) in counters.iter_mut() {
                    let wanted = if targets.is_empty() {
                        hit.is_empty() && !is_informational(name)
                    } else {
                        targets.iter().any(|t| t == name)
                    };
                    if !wanted {
                        continue;
                    }
                    if let Value::Number(n) = val {
                        *n = n.mul_add(2.0, 1.0);
                        hit.push(name.clone());
                    }
                }
            }
        }
    }
    hit
}

/// Renders a one-screen human summary of a report: headline metrics, grid
/// scaling with fill ratios, histograms, and the largest counters.
pub fn summary(v: &Value) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== BENCH_table1 summary ==");
    if let Some(b) = v.get("bench").and_then(Value::as_str) {
        let _ = writeln!(out, "bench:            {b}");
    }
    for (label, key, unit) in [
        ("feasible", "feasible", ""),
        ("power reduction", "power_reduction", "x"),
        ("sizing evals", "sizing_evals", ""),
        ("evals / second", "evals_per_sec", ""),
        ("wall (quick)", "wall_s_quick", " s"),
        ("4-thread speedup", "parallel_speedup_4t", "x"),
        ("cache hit rate", "parallel_cache_hit_rate", ""),
    ] {
        if let Some(m) = v.get(key) {
            let _ = writeln!(out, "{label:<18}{m}{unit}", m = flatten_leaf(m));
        }
    }
    if let Some(rows) = v.get("grid_scaling").and_then(Value::as_array) {
        let _ = writeln!(
            out,
            "\n{:>5} {:>9} {:>10} {:>11} {:>10} {:>10} {:>9} {:>10} {:>11}",
            "n",
            "unknowns",
            "sparse_s",
            "refactor_s",
            "evals/s",
            "fill_in",
            "predicted",
            "fill_ratio",
            "btf_blocks"
        );
        for r in rows {
            let g = |k: &str| {
                r.get(k)
                    .map_or("null".to_string(), |m| flatten_leaf(m).to_string())
            };
            let _ = writeln!(
                out,
                "{:>5} {:>9} {:>10} {:>11} {:>10} {:>10} {:>9} {:>10} {:>11}",
                g("n"),
                g("unknowns"),
                g("sparse_s"),
                g("refactor_s"),
                g("evals_per_sec"),
                g("fill_in"),
                g("predicted_fill"),
                g("fill_ratio"),
                g("btf_blocks")
            );
            if let Some(ratio) = r.get("fill_ratio").and_then(Value::as_f64) {
                if !(1.0 / FILL_BAND..=FILL_BAND).contains(&ratio) {
                    let _ = writeln!(
                        out,
                        "      ^ WARNING: fill forecast off {ratio:.2}x — outside the {FILL_BAND}x band"
                    );
                }
            }
        }
    }
    if let Some(hists) = v.get("histograms").and_then(Value::as_object) {
        let _ = writeln!(out, "\nhistograms:");
        for (name, h) in hists {
            let g = |k: &str| {
                h.get(k)
                    .map_or("?".to_string(), |m| flatten_leaf(m).to_string())
            };
            let _ = writeln!(
                out,
                "  {name:<36} n={} mean={} p50={} p95={}",
                g("count"),
                g("mean"),
                g("p50"),
                g("p95")
            );
        }
    }
    if let Some(counters) = v.get("counters").and_then(Value::as_object) {
        let mut top: Vec<(&str, f64)> = counters
            .iter()
            .filter_map(|(k, m)| m.as_f64().map(|n| (k.as_str(), n)))
            .collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        let _ = writeln!(out, "\ntop counters:");
        for (k, n) in top.iter().take(12) {
            let _ = writeln!(out, "  {k:<36} {n:>12.0}");
        }
    }
    out
}

fn flatten_leaf(m: &Value) -> String {
    match m {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n:.4}")
            }
        }
        Value::String(s) => s.clone(),
        _ => "…".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(counter: u64) -> Value {
        json::parse(&format!(
            r#"{{"feasible": true, "wall_s_quick": 0.5,
                 "counters": {{"sim.newton_iters": {counter}, "bench.parallel.serial_us": 123}},
                 "grid_scaling": [{{"n": 8, "fill_in": 4, "fill_ratio": 1.0}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_reports_pass() {
        let d = diff(&doc(7), &doc(7), &DiffOptions::default());
        assert!(d.regressions.is_empty(), "{:?}", d.regressions);
        assert!(d.checked_ok > 0);
    }

    #[test]
    fn counter_change_is_regression_but_wall_time_is_not() {
        let mut b = doc(7);
        // Perturb only the wall-clock field: still a pass.
        if let Value::Object(m) = &mut b {
            for (k, v) in m.iter_mut() {
                if k == "wall_s_quick" {
                    *v = Value::Number(9.9);
                }
            }
        }
        let d = diff(&doc(7), &b, &DiffOptions::default());
        assert!(d.regressions.is_empty());
        assert_eq!(d.informational.len(), 1);
        // A checked counter change fails.
        let d = diff(&doc(7), &doc(8), &DiffOptions::default());
        assert_eq!(d.regressions.len(), 1);
        assert!(d.regressions[0].contains("sim.newton_iters"));
    }

    #[test]
    fn tolerance_overrides_apply_by_leaf() {
        let mut opts = DiffOptions::default();
        opts.tolerances.insert("sim.newton_iters".to_string(), 0.5);
        let d = diff(&doc(8), &doc(7), &opts);
        assert!(d.regressions.is_empty(), "{:?}", d.regressions);
    }

    #[test]
    fn injected_regression_fails_diff() {
        let a = doc(7);
        let mut b = doc(7);
        let hit = inject_regression(&mut b, &[]);
        assert_eq!(hit, vec!["sim.newton_iters".to_string()]);
        let d = diff(&a, &b, &DiffOptions::default());
        assert!(!d.regressions.is_empty());
    }

    #[test]
    fn ckpt_metrics_classify_per_the_crash_safety_contract() {
        // Counters are deterministic-exact…
        assert!(!is_informational("counters/ckpt.commits"));
        assert!(!is_informational("crash_resume/ckpt_commits"));
        // …while commit latency (a histogram subtree: the wall-clock name
        // is the parent segment, not the leaf) and journal size are
        // informational.
        assert!(is_informational("histograms/ckpt.write_us/count"));
        assert!(is_informational("histograms/ckpt.write_us/p95"));
        assert!(is_informational("crash_resume/fresh_us"));
        assert!(is_informational("crash_resume/resume_speedup"));
        assert!(is_informational("crash_resume/ckpt_bytes"));
    }

    #[test]
    fn evals_per_sec_is_informational_throughput() {
        // The headline throughput metric is wall-clock derived: never a
        // regression, at any nesting depth.
        assert!(is_informational("evals_per_sec"));
        assert!(is_informational("grid_scaling/3/evals_per_sec"));
        assert!(is_informational("parallel_serial_evals_per_sec"));
        // Belt and braces: the default tolerance table also carries an
        // explicit unbounded entry for it.
        let opts = DiffOptions::default();
        assert_eq!(
            opts.tolerances.get("evals_per_sec").copied(),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn render_round_trips() {
        let a = doc(7);
        let text = render_json(&a);
        let back = json::parse(&text).unwrap();
        assert!(diff(&a, &back, &DiffOptions::default())
            .regressions
            .is_empty());
    }
}
