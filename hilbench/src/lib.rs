//! Closed-loop HiL benchmark of the LKAS reproduction.
//!
//! Four workloads drive the closed loop through the library's public
//! items only (see `README.md`). An untraced run reports end-to-end
//! metrics — control cycles per host second, peak memory and set-up
//! time — measured over passes that each run in a fresh process; a
//! traced run records the per-cycle schedule and replays it to time
//! every layer (`replay`). `compare` judges two sets of runs against
//! the bounds in `BENCHMARK.json`.

pub mod compare;
pub mod measure;
pub mod pins;
pub mod replay;
pub mod stats;
pub mod workload;

use serde::Deserialize;

/// The benchmark definition this build measures against: metric names,
/// units, directions and bounds come from here and nowhere else.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The parts of `BENCHMARK.json` the benchmark reads.
#[derive(Debug, Clone, Deserialize)]
pub struct Benchmark {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Declared workloads.
    pub workloads: Vec<WorkloadDecl>,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<MetricDecl>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricDecl>,
}

/// One declared workload.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadDecl {
    /// Workload name.
    pub name: String,
}

/// One declared metric.
#[derive(Debug, Clone, Deserialize)]
pub struct MetricDecl {
    /// Metric name.
    pub name: String,
    /// Unit it is reported in.
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

impl MetricDecl {
    /// `true` when a larger value is better.
    pub fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }
}

/// The parsed benchmark definition.
///
/// # Panics
///
/// Panics if the compiled-in `BENCHMARK.json` does not parse (a build
/// that cannot name its metrics cannot report them).
pub fn benchmark() -> Benchmark {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}
