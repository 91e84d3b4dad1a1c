//! Telemetry snapshot inspection and the CI perf smoke gate.
//!
//! Usage:
//!
//! ```text
//! telemetry_report show SNAPSHOT.json
//! telemetry_report diff BASELINE.json CANDIDATE.json \
//!     [--max-rel-mean F] [--max-rel-tail F] [--min-mean-us F] [--no-counters]
//! telemetry_report fold STREAM.jsonl [--out SNAPSHOT.json]
//! telemetry_report tail STREAM.jsonl [--last N]
//! ```
//!
//! `show` pretty-prints a `lkas-telemetry-v{1,2,3}` artifact.
//!
//! `diff` compares a candidate snapshot against a checked-in baseline:
//! deterministic quantities (event counters, per-stage observation
//! counts) must match exactly; wall-clock quantities (stage mean and
//! p50/p90/p99) gate on relative thresholds. Exit code 0 means the
//! gate passes, 1 means at least one regression, 2 means usage or I/O
//! error. `ci.sh` runs this against `BENCH_telemetry_baseline.json`.
//!
//! `fold` replays a per-cycle stream capture (one `lkas-stream-v1`
//! `CycleDelta` per line, from `robustness_campaign drift
//! --stream-out`) into a telemetry snapshot. With `--out` it writes
//! the exact bytes `Metrics::write_json` produces, so
//! `cmp folded.json metrics.json` is the stream-equivalence gate.
//!
//! `tail` pretty-prints the last N events of a stream capture
//! (default 10) — lane-offset estimate vs ground truth, stage latency
//! samples, counter increments, and event labels per cycle.

use lkas_runtime::report::{diff_snapshots, format_snapshot, DiffThresholds};
use lkas_runtime::{CycleDelta, MetricsSnapshot};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (value_flags, switches): (&[&str], &[&str]) = match args.first().map(String::as_str) {
        Some("show") => (&[], &[]),
        Some("diff") => {
            (&["--max-rel-mean", "--max-rel-tail", "--min-mean-us"], &["--no-counters"])
        }
        Some("fold") => (&["--out"], &[]),
        Some("tail") => (&["--last"], &[]),
        _ => return usage("expected `show`, `diff`, `fold`, or `tail`"),
    };
    let parsed = match Args::parse(&args[1..], value_flags, switches) {
        Ok(parsed) => parsed,
        Err(e) => return usage(&e),
    };
    let outcome = match args[0].as_str() {
        "show" => show(&parsed),
        "diff" => diff(&parsed),
        "fold" => fold(&parsed),
        _ => tail(&parsed),
    };
    outcome.unwrap_or_else(|e| e)
}

/// A subcommand's arguments: positional paths plus the value flags and
/// switches it accepts. Each value flag takes the next argument as its
/// value wherever it appears; any other `--flag` is an error.
struct Args<'a> {
    paths: Vec<&'a str>,
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn parse(args: &'a [String], value_flags: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut parsed = Args { paths: Vec::new(), values: Vec::new(), switches: Vec::new() };
        let mut iter = args.iter().map(String::as_str);
        while let Some(arg) = iter.next() {
            if value_flags.contains(&arg) {
                let value = iter.next().ok_or_else(|| format!("{arg} takes a value"))?;
                parsed.values.push((arg, value));
            } else if switches.contains(&arg) {
                parsed.switches.push(arg);
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag `{arg}`"));
            } else {
                parsed.paths.push(arg);
            }
        }
        Ok(parsed)
    }

    /// The value of flag `name` (the last one given), parsed as `T`.
    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ExitCode> {
        match self.values.iter().rev().find(|(flag, _)| *flag == name) {
            None => Ok(None),
            Some((_, v)) => {
                v.parse().map(Some).map_err(|_| usage(&format!("{name} takes a number")))
            }
        }
    }
}

/// A subcommand's exit code; `Err` carries an early usage or I/O exit.
type Outcome = Result<ExitCode, ExitCode>;

fn show(args: &Args) -> Outcome {
    let [path] = args.paths.as_slice() else {
        return Err(usage("show takes exactly one snapshot path"));
    };
    print!("{}", format_snapshot(&load(path).map_err(|e| fail(&e))?));
    Ok(ExitCode::SUCCESS)
}

fn diff(args: &Args) -> Outcome {
    let [baseline_path, candidate_path] = args.paths.as_slice() else {
        return Err(usage("diff takes a baseline and a candidate path"));
    };
    let mut thresholds = DiffThresholds::default();
    if let Some(f) = args.value("--max-rel-mean")? {
        thresholds.max_rel_mean = f;
    }
    if let Some(f) = args.value("--max-rel-tail")? {
        thresholds.max_rel_tail = f;
    }
    if let Some(f) = args.value("--min-mean-us")? {
        thresholds.min_mean_us = f;
    }
    thresholds.check_counters = !args.switches.contains(&"--no-counters");
    let (baseline, candidate) = match (load(baseline_path), load(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => return Err(fail(&e)),
    };
    let outcome = diff_snapshots(&baseline, &candidate, &thresholds);
    print!("{}", outcome.report);
    Ok(if outcome.passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn fold(args: &Args) -> Outcome {
    let [path] = args.paths.as_slice() else {
        return Err(usage("fold takes one stream capture path"));
    };
    let deltas = load_stream(path).map_err(|e| fail(&e))?;
    let metrics = lkas_runtime::fold(&deltas);
    match args.value::<String>("--out")? {
        Some(out) => {
            metrics.write_json(&out).map_err(|e| fail(&format!("cannot write {out}: {e}")))?;
            eprintln!("[fold] {} event(s) -> {out}", deltas.len());
        }
        None => print!("{}", format_snapshot(&metrics.snapshot())),
    }
    Ok(ExitCode::SUCCESS)
}

fn tail(args: &Args) -> Outcome {
    let [path] = args.paths.as_slice() else {
        return Err(usage("tail takes one stream capture path"));
    };
    let last = args.value("--last")?.unwrap_or(10);
    let deltas = load_stream(path).map_err(|e| fail(&e))?;
    for delta in &deltas[deltas.len().saturating_sub(last)..] {
        println!("{}", format_cycle(delta));
    }
    Ok(ExitCode::SUCCESS)
}

/// One human-readable line per stream event.
fn format_cycle(delta: &CycleDelta) -> String {
    let offset = |v: Option<f64>| v.map_or("-".to_string(), |y| format!("{y:+.4}"));
    let mut line = format!(
        "cycle {:>6} t={:>9}us y_l={} true={}",
        delta.cycle,
        delta.ts_us,
        offset(delta.y_l_measured),
        offset(delta.y_l_true)
    );
    for (stage, samples) in &delta.samples {
        let ns: Vec<String> = samples.iter().map(|n| format!("{n}ns")).collect();
        line.push_str(&format!(" {stage}={}", ns.join("/")));
    }
    for (counter, inc) in &delta.counters {
        line.push_str(&format!(" {counter}+{inc}"));
    }
    if !delta.labels.is_empty() {
        line.push_str(&format!(" [{}]", delta.labels.join(",")));
    }
    line
}

fn load_stream(path: &str) -> Result<Vec<CycleDelta>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            serde_json::from_str(line).map_err(|e| format!("{path}:{}: bad event: {e}", i + 1))
        })
        .collect()
}

fn load(path: &str) -> Result<MetricsSnapshot, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let snap: MetricsSnapshot =
        serde_json::from_str(&json).map_err(|e| format!("cannot parse {path}: {e}"))?;
    if !snap.schema_is_supported() {
        return Err(format!("{path}: unsupported schema `{}`", snap.schema));
    }
    Ok(snap)
}

fn usage(context: &str) -> ExitCode {
    eprintln!("error: {context}");
    eprintln!(
        "usage: telemetry_report show SNAPSHOT.json\n\
         \x20      telemetry_report diff BASELINE.json CANDIDATE.json \
         [--max-rel-mean F] [--max-rel-tail F] [--min-mean-us F] [--no-counters]\n\
         \x20      telemetry_report fold STREAM.jsonl [--out SNAPSHOT.json]\n\
         \x20      telemetry_report tail STREAM.jsonl [--last N]"
    );
    ExitCode::from(2)
}

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::from(2)
}
