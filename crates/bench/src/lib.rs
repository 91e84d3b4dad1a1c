//! Shared machinery for the experiment harnesses.
//!
//! Every table and figure of the paper has a dedicated binary in
//! `src/bin/` (see DESIGN.md §5); this library provides their common
//! pieces: classifier-bundle caching, plain-text table rendering,
//! JSON result emission into `results/`, strict argument parsing
//! ([`Args`]) and the one sharding command line behind both campaign
//! binaries ([`run_sharded`]). Sweeps build plain `HilConfig`s and map
//! them through the shared [`Executor`].

#![forbid(unsafe_code)]

pub mod fleet;
pub mod reference;
pub mod robustness;

use lkas::identify::ClassifierBundle;
use lkas_nn::classifiers::{
    ClassifierSpec, LaneClassifier, RoadClassifier, SceneClassifier, TrainReport,
};
use lkas_runtime::{
    merge_shard_files, read_shard_file, run_campaign, write_shard_file, Campaign, CampaignSpec,
    MergedShards, Shard,
};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

pub use lkas_runtime::{Executor, Metrics, MetricsSnapshot, TraceRecorder};

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
    let json = bundle.to_json().expect("serialize bundle");
    lkas_runtime::write_atomic(&path, json.as_bytes()).expect("write bundle");
    eprintln!("[cached] {}", path.display());
    Arc::new(bundle)
}

/// Resolves where a harness writes its telemetry artifact: the
/// `--metrics-out PATH` override, or `artifacts/telemetry_<name>.json`.
pub fn metrics_out_path(args: &Args, name: &str) -> PathBuf {
    args.value("--metrics-out")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(ARTIFACTS_DIR).join(format!("telemetry_{name}.json")))
}

/// Writes the telemetry artifact for a harness (see
/// [`metrics_out_path`]) and logs its location.
///
/// # Panics
///
/// Panics on I/O failure (harness binaries want loud failures).
pub fn write_metrics(args: &Args, name: &str, metrics: &Metrics) {
    let path = metrics_out_path(args, name);
    metrics.write_json(&path).expect("write telemetry artifact");
    eprintln!("[telemetry] {}", path.display());
}

/// Resolves the `--trace-out PATH` flag: where a harness writes its
/// Chrome trace-event export, or `None` when tracing is off.
pub fn trace_out_path(args: &Args) -> Option<PathBuf> {
    args.value("--trace-out").map(PathBuf::from)
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

/// Prints `error: MSG` and exits with status 2 — how harness binaries
/// reject bad arguments and unreadable inputs.
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// A command line checked against the flags a harness knows: every
/// `--flag` is one of them and given once, every value flag carries a
/// value, and only a harness that takes positional arguments gets any.
/// Any other argument [`fail`]s (exit 2) before the harness runs.
pub struct Args {
    flags: Vec<(String, Option<String>)>,
    /// The arguments that are not flags (a `merge`'s shard files).
    pub positional: Vec<String>,
}

impl Args {
    /// Parses `args` against the harness's `value_flags` (`--flag
    /// VALUE`) and `switches` (`--flag`), each a space-separated list;
    /// `positional` says whether the harness takes positional arguments.
    pub fn parse(args: &[String], value_flags: &str, switches: &str, positional: bool) -> Args {
        let known = |list: &str, arg: &str| list.split_whitespace().any(|flag| flag == arg);
        let mut parsed = Args { flags: Vec::new(), positional: Vec::new() };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let value = if known(value_flags, arg) {
                match iter.next() {
                    Some(value) if !value.starts_with("--") => Some(value.clone()),
                    _ => fail(&format!("`{arg}` needs a value")),
                }
            } else if known(switches, arg) {
                None
            } else if arg.starts_with("--") {
                fail(&format!("unknown flag `{arg}`"))
            } else if !positional {
                fail(&format!("unexpected argument `{arg}`"))
            } else {
                parsed.positional.push(arg.clone());
                continue;
            };
            if parsed.has(arg) {
                fail(&format!("`{arg}` given twice"));
            }
            parsed.flags.push((arg.clone(), value));
        }
        parsed
    }

    /// The value of `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(name, _)| name == flag).and_then(|(_, value)| value.as_deref())
    }

    /// The value of `flag` parsed as `T`; a value that does not parse
    /// [`fail`]s.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag)
            .map(|text| text.parse().unwrap_or_else(|_| fail(&format!("bad {flag} `{text}`"))))
    }

    /// `true` if the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| name == flag)
    }
}

/// Runs `campaign` under the sharding flags of `args` — `--shard I/N`,
/// `--checkpoint PATH`, `--resume` and `--shard-out PATH` — with
/// `metrics` attached, and logs the run's accounting. The unsharded run
/// without `--shard-out` returns the whole grid's entries; any other
/// writes the shard artifact (`--shard-out`, or
/// `artifacts/<stem>_shard_<I>of<N>.json`) and returns `None`. A bad
/// `--shard` or a `--resume` without `--checkpoint` [`fail`]s before
/// anything runs.
pub fn run_sharded<C: Campaign>(
    args: &Args,
    campaign: &C,
    stem: &str,
    metrics: &Arc<Metrics>,
) -> Option<Vec<C::Entry>> {
    let shard = args
        .value("--shard")
        .map_or(Shard::full(), |text| Shard::parse(text).unwrap_or_else(|e| fail(&e)));
    let checkpoint = args.value("--checkpoint").map(PathBuf::from);
    if args.has("--resume") && checkpoint.is_none() {
        fail("--resume needs --checkpoint PATH");
    }
    let spec = CampaignSpec { shard, checkpoint, resume: args.has("--resume") };
    let run = run_campaign(campaign, &spec, Some(metrics));
    eprintln!(
        "[campaign] shard {shard}: {} owned, {} evaluated, {} restored (grid {})",
        run.stats.owned, run.stats.evaluated, run.stats.restored, run.stats.grid_size
    );
    let out = match args.value("--shard-out") {
        None if shard.is_full() => return Some(run.entries.into_iter().map(|(_, e)| e).collect()),
        Some(path) => PathBuf::from(path),
        None => Path::new(ARTIFACTS_DIR)
            .join(format!("{stem}_shard_{}of{}.json", shard.index, shard.count)),
    };
    write_shard_file(&out, campaign, shard, &run, Some(metrics));
    eprintln!("[shard] {}", out.display());
    None
}

/// The `merge SHARD...` subcommand of the sharded harnesses: reads
/// every shard file in `paths` and merges them; any error [`fail`]s.
pub fn merge_shards_cli(paths: &[String]) -> MergedShards {
    if paths.is_empty() {
        fail("merge needs at least one shard file");
    }
    let files =
        paths.iter().map(|p| read_shard_file(Path::new(p)).unwrap_or_else(|e| fail(&e))).collect();
    merge_shard_files(files).unwrap_or_else(|e| fail(&e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkas_runtime::Counter;
    use serde::Value;

    /// A synthetic campaign: squares of `0..7`.
    struct Squares;

    impl Campaign for Squares {
        type Job = u64;
        type Entry = u64;

        fn name(&self) -> &'static str {
            "squares"
        }

        fn params(&self) -> Value {
            Value::Null
        }

        fn fingerprint(&self) -> String {
            "squares-v1".to_string()
        }

        fn threads(&self) -> usize {
            2
        }

        fn grid(&self) -> Vec<(String, u64)> {
            (0..7).map(|i| (format!("sq-{i}"), i)).collect()
        }

        fn evaluate(&self, _key: &str, job: u64, _metrics: Option<&Arc<Metrics>>) -> u64 {
            job * job
        }
    }

    fn sharded(args: &[&str]) -> (Option<Vec<u64>>, Arc<Metrics>) {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let args = Args::parse(&args, "--shard --checkpoint --shard-out", "--resume", false);
        let metrics = Arc::new(Metrics::new());
        (run_sharded(&args, &Squares, "squares", &metrics), metrics)
    }

    #[test]
    fn checkpoint_on_the_full_shard_writes_one_line_per_grid_point() {
        let dir = std::env::temp_dir().join(format!("lkas-bench-sharded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let checkpoint = dir.join("squares.jsonl");
        let checkpoint = checkpoint.to_str().unwrap();
        let (entries, metrics) = sharded(&["--checkpoint", checkpoint]);
        assert_eq!(entries, Some(vec![0, 1, 4, 9, 16, 25, 36]));
        assert_eq!(metrics.counter(Counter::CampaignEvaluations), 7);
        assert_eq!(std::fs::read_to_string(checkpoint).unwrap().lines().count(), 7);

        // Resuming restores the whole grid and evaluates nothing.
        let (resumed, metrics) = sharded(&["--checkpoint", checkpoint, "--resume"]);
        assert_eq!(resumed, entries);
        assert_eq!(metrics.counter(Counter::CampaignEvaluations), 0);
        assert_eq!(metrics.counter(Counter::CampaignRestored), 7);

        // A slice writes its shard artifact instead of returning entries.
        let out = dir.join("shard.json");
        let (slice, _) = sharded(&["--shard", "1/2", "--shard-out", out.to_str().unwrap()]);
        assert_eq!(slice, None);
        let file = read_shard_file(&out).unwrap();
        assert_eq!((file.campaign.as_str(), file.shard_index, file.shard_count), ("squares", 1, 2));
        assert_eq!(file.entries.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn args_split_flags_switches_and_positionals() {
        let args: Vec<String> = ["a.json", "--out", "r.json", "--quick", "b.json"]
            .iter()
            .map(|a| a.to_string())
            .collect();
        let args = Args::parse(&args, "--out --seed", "--quick --resume", true);
        assert_eq!(args.value("--out"), Some("r.json"));
        assert_eq!(args.value("--seed"), None);
        assert_eq!(args.parsed::<u64>("--seed"), None);
        assert!(args.has("--quick") && !args.has("--resume"));
        assert_eq!(args.positional, vec!["a.json".to_string(), "b.json".to_string()]);
    }

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
}
