//! Process environment pinning and process-level measurements.

/// Environment overrides the benchmark clears so a shell setting cannot
/// change the backend, kernel, or worker count under measurement.
pub const CLEARED_ENV: [&str; 4] = [
    "AMS_SIM_BACKEND",
    "AMS_SPARSE_KERNEL",
    "AMS_EXEC_THREADS",
    ams_exec::EVAL_CACHE_PATH_ENV,
];

/// The settings a run executes under, recorded in its output.
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    /// Hardware threads the host reports.
    pub hw_threads: usize,
    /// Worker count `ams-exec` uses.
    pub exec_threads: usize,
    /// Eval-cache mode in force (`memory` after pinning: no journal
    /// carries over between runs).
    pub eval_cache: &'static str,
}

impl Settings {
    /// One-line human rendering for the log.
    pub fn describe(&self) -> String {
        format!(
            "hw_threads={} exec_threads={} eval_cache={} cleared={}",
            self.hw_threads,
            self.exec_threads,
            self.eval_cache,
            CLEARED_ENV.join(",")
        )
    }
}

/// Pins the environment: one `ams-exec` worker, an in-memory eval cache
/// (so `AMS_EVAL_CACHE=disk` left in the shell cannot warm-start one run
/// from another's journal), and the backend / kernel / thread overrides
/// cleared. Call before any workspace code runs.
pub fn pin() -> Settings {
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    std::env::set_var(ams_exec::EVAL_CACHE_ENV, "memory");
    ams_exec::set_threads(Some(1));
    ams_trace::set_enabled(false);
    Settings {
        hw_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        exec_threads: ams_exec::configured_threads(),
        eval_cache: match ams_exec::mode_from_env() {
            ams_exec::EvalCacheMode::Off => "off",
            ams_exec::EvalCacheMode::Memory => "memory",
            ams_exec::EvalCacheMode::Disk => "disk",
        },
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
