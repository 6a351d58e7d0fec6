//! The benchmark's own contract: the traced work ledger repeats exactly
//! for a seed and moves with it, an untraced run's checked operations
//! repeat for a seed, and `BENCHMARK.json` declares exactly the metrics
//! the benchmark reports.
//!
//! Full-size workloads: run with `cargo test --release`.

use std::sync::Mutex;
use synthbench::{env, run, RunOptions, Workload, END_TO_END, PER_LAYER};

/// `ams-trace` and `ams-exec` settings are process-global: one workload
/// at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn counts(workload: Workload, seed: u64) -> std::collections::BTreeMap<String, u64> {
    let settings = env::pin();
    let opts = RunOptions {
        seed,
        seconds: 0.0,
        trace: true,
    };
    let report = run(workload, &opts, &settings);
    assert!(
        report.correct,
        "{}: an output check was wrong",
        workload.name()
    );
    assert!(!report.counts.is_empty());
    report.counts
}

fn ledger_is_exact(workload: Workload) {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let first = counts(workload, 11);
    let again = counts(workload, 11);
    assert_eq!(
        first,
        again,
        "{}: same seed, different work",
        workload.name()
    );
    let other = counts(workload, 12);
    assert_ne!(
        first,
        other,
        "{}: the seed does not reach the inputs",
        workload.name()
    );
}

#[test]
fn table1_sim_ledger_is_exact() {
    ledger_is_exact(Workload::Table1Sim);
}

#[test]
fn opamp_awe_ledger_is_exact() {
    ledger_is_exact(Workload::OpampAwe);
}

#[test]
fn opamp_flow_ledger_is_exact() {
    ledger_is_exact(Workload::OpampFlow);
}

#[test]
fn grid_dc_ledger_is_exact() {
    ledger_is_exact(Workload::GridDc);
}

/// An untraced run does a fixed number of operations for its seed and
/// run length, so which of them fail repeats too, however fast the host.
#[test]
fn untraced_checks_repeat() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let checks = || {
        let settings = env::pin();
        let opts = RunOptions {
            seed: 2,
            seconds: 3.0,
            trace: false,
        };
        let report = run(Workload::OpampFlow, &opts, &settings);
        assert!(report.correct, "opamp_flow: an output check was wrong");
        (report.attempted, report.failed)
    };
    assert_eq!(checks(), checks());
}

/// The `"name"` values of one `BENCHMARK.json` section, in order; the
/// section runs up to the key `next` (or the end of the file).
fn declared(json: &str, section: &str, next: Option<&str>) -> Vec<String> {
    let key = |k: &str| json.find(&format!("\"{k}\"")).expect("key present");
    let body = &json[key(section)..next.map_or(json.len(), key)];
    body.split("\"name\":")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect()
}

#[test]
fn benchmark_json_declares_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(
        declared(&json, "end_to_end", Some("per_layer")),
        names(END_TO_END)
    );
    assert_eq!(declared(&json, "per_layer", None), names(PER_LAYER));
    let workloads = declared(&json, "workloads", Some("end_to_end"));
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
}
