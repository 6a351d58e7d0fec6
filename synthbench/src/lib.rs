//! End-to-end and per-layer benchmark of the ams-synth workspace.
//!
//! One process runs one workload (or all four in sequence) closed-loop:
//! a single caller makes one public call at a time, with `ams-exec`
//! pinned to one worker. The untraced pass gives the end-to-end metrics;
//! the traced pass (`--trace 1`) re-runs a fixed set of repetitions with
//! `ams-trace` enabled and reports the per-layer ledger, the exact work
//! counts, and the tracing overhead. See `README.md` for the workloads,
//! the metric definitions, and the layer → end-to-end map.

pub mod calib;
pub mod env;
pub mod ledger;
pub mod stats;
pub mod timed;
pub mod workloads;

pub use ledger::{Ledger, RunReport, END_TO_END, PER_LAYER};
pub use workloads::{run, RunOptions, Workload};
