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

use lkas_bench::{fail, Args};
use lkas_runtime::report::{diff_snapshots, format_snapshot, DiffThresholds};
use lkas_runtime::{CycleDelta, MetricsSnapshot};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (value_flags, switches) = match args.first().map(String::as_str) {
        Some("show") => ("", ""),
        Some("diff") => ("--max-rel-mean --max-rel-tail --min-mean-us", "--no-counters"),
        Some("fold") => ("--out", ""),
        Some("tail") => ("--last", ""),
        _ => usage("expected `show`, `diff`, `fold`, or `tail`"),
    };
    let parsed = Args::parse(&args[1..], value_flags, switches, true);
    match args[0].as_str() {
        "show" => show(&parsed),
        "diff" => diff(&parsed),
        "fold" => fold(&parsed),
        _ => tail(&parsed),
    }
}

fn show(args: &Args) -> ExitCode {
    let [path] = args.positional.as_slice() else {
        usage("show takes exactly one snapshot path");
    };
    print!("{}", format_snapshot(&load(path)));
    ExitCode::SUCCESS
}

fn diff(args: &Args) -> ExitCode {
    let [baseline_path, candidate_path] = args.positional.as_slice() else {
        usage("diff takes a baseline and a candidate path");
    };
    let mut thresholds = DiffThresholds::default();
    if let Some(f) = args.parsed("--max-rel-mean") {
        thresholds.max_rel_mean = f;
    }
    if let Some(f) = args.parsed("--max-rel-tail") {
        thresholds.max_rel_tail = f;
    }
    if let Some(f) = args.parsed("--min-mean-us") {
        thresholds.min_mean_us = f;
    }
    thresholds.check_counters = !args.has("--no-counters");
    let outcome = diff_snapshots(&load(baseline_path), &load(candidate_path), &thresholds);
    print!("{}", outcome.report);
    if outcome.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fold(args: &Args) -> ExitCode {
    let [path] = args.positional.as_slice() else {
        usage("fold takes one stream capture path");
    };
    let deltas = load_stream(path);
    let metrics = lkas_runtime::fold(&deltas);
    match args.value("--out") {
        Some(out) => {
            metrics.write_json(out).unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
            eprintln!("[fold] {} event(s) -> {out}", deltas.len());
        }
        None => print!("{}", format_snapshot(&metrics.snapshot())),
    }
    ExitCode::SUCCESS
}

fn tail(args: &Args) -> ExitCode {
    let [path] = args.positional.as_slice() else {
        usage("tail takes one stream capture path");
    };
    let last = args.parsed("--last").unwrap_or(10);
    let deltas = load_stream(path);
    for delta in &deltas[deltas.len().saturating_sub(last)..] {
        println!("{}", format_cycle(delta));
    }
    ExitCode::SUCCESS
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

fn load_stream(path: &str) -> Vec<CycleDelta> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            serde_json::from_str(line)
                .unwrap_or_else(|e| fail(&format!("{path}:{}: bad event: {e}", i + 1)))
        })
        .collect()
}

fn load(path: &str) -> MetricsSnapshot {
    let json =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let snap: MetricsSnapshot =
        serde_json::from_str(&json).unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));
    if !snap.schema_is_supported() {
        fail(&format!("{path}: unsupported schema `{}`", snap.schema));
    }
    snap
}

fn usage(context: &str) -> ! {
    eprintln!("error: {context}");
    eprintln!(
        "usage: telemetry_report show SNAPSHOT.json\n\
         \x20      telemetry_report diff BASELINE.json CANDIDATE.json \
         [--max-rel-mean F] [--max-rel-tail F] [--min-mean-us F] [--no-counters]\n\
         \x20      telemetry_report fold STREAM.jsonl [--out SNAPSHOT.json]\n\
         \x20      telemetry_report tail STREAM.jsonl [--last N]"
    );
    std::process::exit(2)
}
