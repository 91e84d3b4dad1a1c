//! Shared machinery for the experiment harnesses.
//!
//! Every table and figure of the paper has a dedicated binary in
//! `src/bin/` (see DESIGN.md §5); this library provides their common
//! pieces: parallel HiL execution, classifier-bundle caching, plain-text
//! table rendering, and JSON result emission into `results/`.

pub mod fleet;
pub mod robustness;

use lkas::cases::Case;
use lkas::hil::{HilConfig, HilResult, HilSimulator, SituationSource};
use lkas::identify::ClassifierBundle;
use lkas_nn::classifiers::{
    ClassifierSpec, LaneClassifier, RoadClassifier, SceneClassifier, TrainReport,
};
use lkas_runtime::{merge_shard_files, read_shard_file, MergedShards};
use lkas_scene::track::Track;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub use lkas_runtime::{Executor, Metrics, MetricsSnapshot, TraceRecorder, TraceSink};

/// Directory where harnesses drop machine-readable results.
pub const RESULTS_DIR: &str = "results";

/// Directory where trained artifacts (classifier bundles) are cached.
pub const ARTIFACTS_DIR: &str = "artifacts";

/// Writes a serializable result as pretty JSON under [`RESULTS_DIR`].
///
/// # Panics
///
/// Panics on I/O or serialization failure (harness binaries want loud
/// failures).
pub fn write_result<T: Serialize>(name: &str, value: &T) {
    let path = Path::new(RESULTS_DIR).join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize result");
    lkas_runtime::write_atomic(&path, json.as_bytes()).expect("write result file");
    eprintln!("[written] {}", path.display());
}

/// Renders a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {c:<w$} |"));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<1$}|", "", w + 2));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Classifier training scale used by the harnesses when a full Table IV
/// run is not requested: enough for ≥95 % accuracy at a fraction of the
/// generation cost.
pub fn quick_spec() -> ClassifierSpec {
    ClassifierSpec {
        train_per_class: 300,
        val_per_class: 60,
        epochs: 60,
        ..ClassifierSpec::default()
    }
}

/// The Table IV dataset scales per classifier: (train, val) totals.
pub const TABLE4_SCALES: [(usize, usize); 3] = [(5353, 513), (3939, 842), (3892, 811)];

/// Trains the three classifiers at the given spec and returns the bundle
/// plus the three training reports (road, lane, scene).
pub fn train_bundle(spec: &ClassifierSpec, seed: u64) -> (ClassifierBundle, [TrainReport; 3]) {
    eprintln!("[training] road classifier ({} train/class)…", spec.train_per_class);
    let (road, road_report) = RoadClassifier::train(spec, seed);
    eprintln!("[training] lane classifier…");
    let (lane, lane_report) = LaneClassifier::train(spec, seed + 1);
    eprintln!("[training] scene classifier…");
    let (scene, scene_report) = SceneClassifier::train(spec, seed + 2);
    (ClassifierBundle { road, lane, scene }, [road_report, lane_report, scene_report])
}

/// Loads the cached classifier bundle, or trains one at the quick scale
/// and caches it.
pub fn load_or_train_bundle() -> Arc<ClassifierBundle> {
    let path = PathBuf::from(ARTIFACTS_DIR).join("classifiers.json");
    if let Ok(json) = std::fs::read_to_string(&path) {
        if let Ok(bundle) = ClassifierBundle::from_json(&json) {
            eprintln!("[loaded] {}", path.display());
            return Arc::new(bundle);
        }
        eprintln!("[warning] stale bundle at {}; retraining", path.display());
    }
    let (bundle, reports) = train_bundle(&quick_spec(), 42);
    for (name, r) in ["road", "lane", "scene"].iter().zip(&reports) {
        eprintln!("[trained] {name}: val accuracy {:.2}%", r.val_accuracy * 100.0);
    }
    std::fs::create_dir_all(ARTIFACTS_DIR).expect("create artifacts dir");
    std::fs::write(&path, bundle.to_json().expect("serialize bundle")).expect("write bundle");
    eprintln!("[cached] {}", path.display());
    Arc::new(bundle)
}

/// A single HiL job for the shared [`Executor`].
#[derive(Clone)]
pub struct HilJob {
    /// Job label (used in progress output).
    pub label: String,
    /// Track to drive.
    pub track: Track,
    /// Full HiL configuration.
    pub config: HilConfig,
    /// Sweep-wide telemetry registry this job aggregates into. The
    /// executor gives each worker thread a private registry and merges
    /// it into this one when the worker drains (histogram mergeability
    /// makes that exactly equal to direct shared recording, minus the
    /// cache-line contention).
    pub shared_metrics: Option<Arc<Metrics>>,
}

impl HilJob {
    /// Builds a job for a case on a track, wiring the situation source
    /// (oracle when no bundle is given).
    pub fn new(
        label: impl Into<String>,
        case: Case,
        track: Track,
        bundle: Option<&Arc<ClassifierBundle>>,
        seed: u64,
    ) -> Self {
        let source = match bundle {
            Some(b) => SituationSource::Trained(Arc::clone(b)),
            None => SituationSource::Oracle,
        };
        HilJob {
            label: label.into(),
            track,
            config: HilConfig::new(case, source).with_seed(seed),
            shared_metrics: None,
        }
    }

    /// Attaches a shared telemetry registry (builder style). All jobs of
    /// a sweep typically share one `Arc` so the emitted artifact
    /// aggregates the whole sweep.
    pub fn with_metrics(mut self, metrics: &Arc<Metrics>) -> Self {
        self.shared_metrics = Some(Arc::clone(metrics));
        self
    }

    /// Attaches a per-run trace sink (builder style); obtain one per
    /// job from a shared [`TraceRecorder`].
    pub fn with_trace_sink(mut self, sink: TraceSink) -> Self {
        self.config = self.config.with_trace_sink(sink);
        self
    }
}

/// Runs HiL jobs through the shared [`lkas_runtime::Executor`]:
/// results come back in input order and worker panics propagate.
///
/// Telemetry attached via [`HilJob::with_metrics`] is recorded into a
/// worker-local registry and merged into the shared one when each
/// worker finishes ([`Executor::run_with_local`]), so the histogram
/// buckets see no cross-thread contention on the hot path.
pub fn run_hil_jobs(jobs: Vec<HilJob>, threads: usize) -> Vec<HilResult> {
    let total = jobs.len();
    let indexed: Vec<(usize, HilJob)> = jobs.into_iter().enumerate().collect();
    // Worker-local state: one private registry per distinct shared
    // registry this worker has seen (sweeps nearly always use one).
    type Local = Vec<(Arc<Metrics>, Arc<Metrics>)>;
    Executor::new(threads).run_with_local(
        indexed,
        Local::new,
        |(idx, mut job), locals: &mut Local| {
            eprintln!("[run {}/{}] {}", idx + 1, total, job.label);
            if let Some(shared) = &job.shared_metrics {
                let local = match locals.iter().find(|(s, _)| Arc::ptr_eq(s, shared)) {
                    Some((_, local)) => Arc::clone(local),
                    None => {
                        let local = Arc::new(Metrics::new());
                        locals.push((Arc::clone(shared), Arc::clone(&local)));
                        local
                    }
                };
                job.config = job.config.with_metrics(local);
            }
            HilSimulator::new(job.track, job.config).run()
        },
        |locals| {
            for (shared, local) in locals {
                shared.merge_from(&local);
            }
        },
    )
}

/// Resolves where a harness writes its telemetry artifact: the
/// `--metrics-out PATH` override, or `artifacts/telemetry_<name>.json`.
pub fn metrics_out_path(name: &str) -> PathBuf {
    arg_value("--metrics-out")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(ARTIFACTS_DIR).join(format!("telemetry_{name}.json")))
}

/// Writes the telemetry artifact for a harness (see
/// [`metrics_out_path`]) and logs its location.
///
/// # Panics
///
/// Panics on I/O failure (harness binaries want loud failures).
pub fn write_metrics(name: &str, metrics: &Metrics) {
    let path = metrics_out_path(name);
    metrics.write_json(&path).expect("write telemetry artifact");
    eprintln!("[telemetry] {}", path.display());
}

/// Resolves the `--trace-out PATH` flag: where a harness writes its
/// Chrome trace-event export, or `None` when tracing is off.
pub fn trace_out_path() -> Option<PathBuf> {
    arg_value("--trace-out").map(PathBuf::from)
}

/// Writes a recorder's Chrome trace-event JSON to `path` and logs its
/// location. Open the file in Perfetto (<https://ui.perfetto.dev>).
///
/// # Panics
///
/// Panics on I/O failure (harness binaries want loud failures).
pub fn write_trace(recorder: &TraceRecorder, path: &Path) {
    recorder.write_json(path).expect("write trace artifact");
    eprintln!("[trace] {} ({} events)", path.display(), recorder.event_count());
}

/// Number of worker threads for parallel sweeps — the runtime
/// executor's default, so every harness agrees on one fallback.
pub fn default_threads() -> usize {
    Executor::default_threads()
}

/// `true` if `--oracle` was passed (skip trained classifiers).
pub fn oracle_flag() -> bool {
    std::env::args().any(|a| a == "--oracle")
}

/// Prints `error: MSG` and exits with status 2 — how harness binaries
/// reject bad arguments and unreadable inputs.
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The `merge SHARD...` subcommand of the sharded harnesses: collects
/// the shard paths from `args` (skipping each flag in `value_flags`
/// together with its value, which the caller reads with [`arg_value`]),
/// reads every shard file and merges them. Returns the merge and the
/// number of shard files; any error [`fail`]s.
pub fn merge_shards_cli(args: &[String], value_flags: &[&str]) -> (MergedShards, usize) {
    let mut paths = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if value_flags.contains(&arg.as_str()) {
            iter.next();
        } else if arg.starts_with("--") {
            fail(&format!("unknown merge flag `{arg}`"));
        } else {
            paths.push(PathBuf::from(arg));
        }
    }
    if paths.is_empty() {
        fail("merge needs at least one shard file");
    }
    let files = paths.iter().map(|p| read_shard_file(p).unwrap_or_else(|e| fail(&e))).collect();
    (merge_shard_files(files).unwrap_or_else(|e| fail(&e)), paths.len())
}

/// Fetches `--arg value` style overrides from the command line.
pub fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["a", "long header"],
            &[vec!["1".into(), "2".into()], vec!["wide cell".into(), "x".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "all rows equal width:\n{t}");
    }

    #[test]
    fn arg_value_parses() {
        // No flags in the test environment: must be None.
        assert!(arg_value("--definitely-not-set").is_none());
    }
}
