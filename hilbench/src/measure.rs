//! One benchmark run of one workload: set-up timing, measured passes
//! in fresh processes (untraced), or the recorded pass plus its
//! schedule replay (traced).

use crate::pins;
use crate::replay::{layer_metrics, replay, LayerInputs, Spans};
use crate::stats::median;
use crate::workload::{
    candidate_run, prepare, run_hil, run_pass, train_bundle, Inputs, Job, Options, RunOutcome,
    Workload,
};
use crate::MetricDecl;
use lkas::hil::{HilConfig, HilResult};
use lkas::identify::ClassifierBundle;
use lkas_runtime::Executor;
use lkas_scene::track::Track;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Light set-ups timed at each of the four points of an untraced run:
/// before the passes, in each pass process, after the passes. A light
/// set-up takes well under a millisecond, so load from other work on
/// the host can slow every repeat at one point by half or more;
/// `setup_s` takes the median at each point and reports the fastest
/// point, as `cycles_per_s` reports the fastest pass.
const SETUP_REPEATS: usize = 9;

/// Share of `--seconds` the first pass may take for a second pass to
/// follow.
const SECOND_PASS_WITHIN: f64 = 0.6;

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that panicked (or whose pass process died).
    pub failed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Failed output checks.
    pub problems: Vec<String>,
}

impl Outcome {
    /// `true` when every run completed and every output check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// One pass as its process reports it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PassReport {
    /// Host wall time of the pass (s), process start and input
    /// building excluded.
    pub wall_s: f64,
    /// Control cycles over the pass's runs.
    pub cycles: u64,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that panicked.
    pub failed: u64,
    /// Peak resident set of the pass process (`VmHWM`, kB).
    pub peak_rss_kb: u64,
    /// Outcome of every run.
    pub runs: Vec<RunOutcome>,
    /// `characterize`: winning tuning per situation.
    pub winners: Vec<String>,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Median light set-up time (s) in the pass process.
    pub setup_s: f64,
}

/// Runs the workload's light set-up [`SETUP_REPEATS`] times and returns
/// the last inputs with the median set-up time (s).
pub fn light_setups(
    workload: Workload,
    opts: Options,
    bundle: Option<&Arc<ClassifierBundle>>,
) -> (Inputs, f64) {
    let mut times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        inputs = Some(prepare(workload, opts, bundle));
        times.push(started.elapsed().as_secs_f64());
    }
    (inputs.expect("at least one set-up"), median(&times))
}

/// Runs one untraced pass in this process and summarizes it — the body
/// of the `pass` subcommand every measured pass runs in.
pub fn pass_report(inputs: &Inputs, setup_s: f64) -> PassReport {
    let pass = run_pass(inputs, false);
    PassReport {
        setup_s,
        wall_s: pass.wall_s,
        cycles: pass.cycles(),
        attempted: pass.runs.len() as u64,
        failed: pass.failed(),
        peak_rss_kb: peak_rss_kb(),
        runs: pass.runs.iter().map(|r| r.outcome.clone()).collect(),
        winners: pass.winners.clone(),
        problems: pass.all_problems(),
    }
}

/// Peak resident set size of this process (kB), 0 where `/proc` is
/// unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The workload's set-up: classifier training (`fig8-trained` only,
/// once — it takes seconds) and the light set-ups, both timed.
struct SetUp {
    inputs: Inputs,
    bundle: Option<Arc<ClassifierBundle>>,
    train_s: f64,
    light_s: f64,
}

fn set_up(workload: Workload, opts: Options, out: &mut Outcome) -> SetUp {
    let mut train_s = 0.0;
    let bundle = (workload == Workload::Fig8Trained).then(|| {
        let started = Instant::now();
        let (bundle, reports) = train_bundle(opts);
        train_s = started.elapsed().as_secs_f64();
        let acc: Vec<String> = reports.iter().map(|r| format!("{:.3}", r.val_accuracy)).collect();
        out.lines.push(format!(
            "set-up: trained road/lane/scene in {train_s:.2} s, val accuracy {}",
            acc.join("/")
        ));
        Arc::new(bundle)
    });
    let (inputs, light_s) = light_setups(workload, opts, bundle.as_ref());
    SetUp { inputs, bundle, train_s, light_s }
}

/// Runs one measured pass in a fresh process of this binary, handing it
/// the trained bundle on stdin.
fn spawn_pass(
    workload: Workload,
    opts: Options,
    bundle_json: Option<&str>,
) -> Result<PassReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["pass", "--workload", workload.name(), "--seed", &opts.seed.to_string()]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn pass: {e}"))?;
    let mut stdin = child.stdin.take().expect("piped stdin");
    let written = stdin.write_all(bundle_json.unwrap_or("").as_bytes());
    drop(stdin);
    let output = child.wait_with_output().map_err(|e| format!("wait for pass: {e}"))?;
    written.map_err(|e| format!("hand the bundle to the pass: {e}"))?;
    if !output.status.success() {
        return Err(format!("pass process failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("pass printed nothing")?;
    serde_json::from_str(line).map_err(|e| format!("pass report does not parse: {e}"))
}

/// An untraced run: set-up timing, then one pass in a fresh process
/// and a second one when the first took at most 60 % of `seconds`. A
/// pass is a fixed list of runs, so both do identical work;
/// `cycles_per_s` is taken from the faster one, which filters part of
/// the interference from other work on the host.
pub fn run_untraced(workload: Workload, opts: Options, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let setup = set_up(workload, opts, &mut out);
    let jobs = setup.inputs.jobs.len() as u64;
    let bundle_json =
        setup.bundle.as_ref().map(|b| b.to_json().expect("classifier bundle serializes"));
    let mut reports: Vec<PassReport> = Vec::new();
    let mut pass = |out: &mut Outcome| match spawn_pass(workload, opts, bundle_json.as_deref()) {
        Ok(report) => reports.push(report),
        Err(e) => {
            out.attempted += jobs;
            out.failed += jobs;
            out.problems.push(e);
        }
    };
    let started = Instant::now();
    pass(&mut out);
    if started.elapsed().as_secs_f64() <= SECOND_PASS_WITHIN * seconds {
        pass(&mut out);
    }
    let mut light_s = setup.light_s.min(light_setups(workload, opts, setup.bundle.as_ref()).1);
    for r in &reports {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.problems.extend(r.problems.iter().cloned());
        light_s = light_s.min(r.setup_s);
    }
    out.metrics.insert("setup_s".into(), setup.train_s + light_s);
    let Some(first) = reports.first() else {
        return out;
    };
    if reports.iter().any(|r| r.runs != first.runs || r.winners != first.winners) {
        out.problems.push("identical passes produced different outcomes".into());
    }
    let fastest = reports.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min);
    let rss: Vec<f64> = reports.iter().map(|r| r.peak_rss_kb as f64 / 1024.0).collect();
    out.metrics.insert("cycles_per_s".into(), first.cycles as f64 / fastest);
    out.metrics.insert("peak_rss_mb".into(), median(&rss));
    if !opts.smoke {
        out.problems.extend(pins::check(workload, opts.seed, &first.runs, &first.winners));
    }
    let walls: Vec<String> = reports.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    out.lines.push(format!(
        "{} passes of {} runs, {} cycles each; pass wall s: {}",
        reports.len(),
        first.runs.len(),
        first.cycles,
        walls.join(" ")
    ));
    out.lines.push(format!(
        "fail_frac {:.4} ({} failed / {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    out
}

/// One recorded run queued for the replay.
struct Recorded {
    label: String,
    track: Track,
    config: HilConfig,
    telemetry: bool,
    result: HilResult,
    span_s: f64,
}

/// A traced run: set-up, one pass that records every run's schedule,
/// then the replay of those schedules with a span around every layer
/// call. `characterize` evaluates its candidates through
/// `Characterizer::evaluate`, which records nothing, so each candidate
/// is recorded again through the equivalent run configuration and
/// checked against its evaluation.
pub fn run_traced(workload: Workload, opts: Options) -> Outcome {
    let mut out = Outcome::default();
    let setup = set_up(workload, opts, &mut out);
    let inputs = &setup.inputs;
    let executor = Executor::new(workload.workers());
    let pass = run_pass(inputs, true);
    out.attempted = pass.runs.len() as u64;
    out.failed = pass.failed();
    out.problems.extend(pass.all_problems());

    let finished: Vec<(&Job, &HilResult, f64)> = inputs
        .jobs
        .iter()
        .zip(&pass.runs)
        .filter_map(|(job, run)| Some((job, run.result.as_ref()?, run.span_s)))
        .collect();
    let recorded = executor.run(finished, |(job, evaluated, span_s)| match job {
        Job::Hil { label, track, config, telemetry } => {
            let config = HilConfig::clone(config);
            let (track, telemetry, result) = (track.clone(), *telemetry, evaluated.clone());
            (Recorded { label: label.clone(), track, config, telemetry, result, span_s }, None)
        }
        Job::Candidate { label, situation, tuning } => {
            let (track, config) = candidate_run(inputs, *situation, *tuning);
            let started = Instant::now();
            let (result, _) = run_hil(&track, &config, false, true);
            let span_s = started.elapsed().as_secs_f64();
            let same = (result.samples, result.overall_mae())
                == (evaluated.samples, evaluated.overall_mae());
            let problem = (!same).then(|| format!("{label}: recorded run differs from evaluate"));
            (
                Recorded { label: label.clone(), track, config, telemetry: false, result, span_s },
                problem,
            )
        }
    });
    let (queue, problems): (Vec<Recorded>, Vec<Option<String>>) = recorded.into_iter().unzip();
    out.problems.extend(problems.into_iter().flatten());
    let replayed_wall_s = queue.iter().map(|r| r.span_s).sum();
    let replayed_cycles = queue.iter().map(|r| r.result.samples).sum();
    let replays = executor.run(queue.iter().collect(), |r: &Recorded| {
        replay(&r.label, &r.track, &r.config, r.telemetry, &r.result)
    });
    let mut spans = Spans::default();
    for (s, problems) in replays {
        spans.absorb(s);
        out.problems.extend(problems);
    }
    let results: Vec<_> = pass.runs.iter().filter_map(|r| r.result.as_ref()).collect();
    let (metrics, lines) = layer_metrics(&LayerInputs {
        spans: &spans,
        workers: workload.workers(),
        pass_wall_s: pass.wall_s,
        run_spans_s: pass.runs.iter().map(|r| r.span_s).collect(),
        results,
        replayed_wall_s,
        replayed_cycles,
    });
    out.metrics = metrics;
    out.lines.extend(lines);
    out
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// declared metric of the run's kind with its unit. A declared metric
/// the run did not produce is a harness error.
///
/// # Errors
///
/// Returns the name of the first declared metric that is missing.
pub fn result_json(out: &Outcome, declared: &[MetricDecl]) -> Result<String, String> {
    use serde_json::Value;
    let mut metrics = Vec::new();
    for d in declared {
        let value =
            *out.metrics.get(&d.name).ok_or_else(|| format!("metric {} missing", d.name))?;
        metrics.push((
            d.name.clone(),
            Value::Object(vec![
                ("value".into(), Value::F64(value)),
                ("unit".into(), Value::Str(d.unit.clone())),
            ]),
        ));
    }
    let doc = Value::Object(vec![
        ("correct".into(), Value::Bool(out.correct())),
        ("attempted".into(), Value::U64(out.attempted.max(1))),
        ("failed".into(), Value::U64(out.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).map_err(|e| e.to_string())
}
