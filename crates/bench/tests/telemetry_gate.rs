//! Acceptance tests for the observability layer: trace determinism
//! across executor thread counts, a shared registry's thread-count
//! invariance, and the `telemetry_report` gate's exit codes.

use lkas::cases::Case;
use lkas::hil::{HilConfig, HilResult, HilSimulator, SituationSource};
use lkas_bench::{Executor, Metrics, TraceRecorder};
use lkas_scene::camera::Camera;
use lkas_scene::situation::TABLE3_SITUATIONS;
use lkas_scene::track::Track;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

/// A short Case 3 run on the 256×128 camera.
fn short_config(seed: u64) -> HilConfig {
    HilConfig::new(Case::Case3, SituationSource::Oracle)
        .with_seed(seed)
        .with_camera(Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians()))
        .with_max_time(3.0)
}

/// Runs `(track, config)` jobs on `threads` executor workers.
fn sweep(jobs: Vec<(Track, HilConfig)>, threads: usize) -> Vec<HilResult> {
    Executor::new(threads).run(jobs, |(track, config)| HilSimulator::new(track, config).run())
}

/// A small 3-job sweep with per-run trace sinks; returns the exported
/// Chrome trace JSON.
fn traced_sweep(threads: usize) -> String {
    let recorder = TraceRecorder::new();
    let jobs = (0..3u64)
        .map(|i| {
            let track = Track::for_situation(&TABLE3_SITUATIONS[i as usize * 7 % 21], 80.0);
            (track, short_config(42 + i).with_trace_sink(recorder.sink(i, format!("job-{i}"))))
        })
        .collect();
    assert_eq!(sweep(jobs, threads).len(), 3);
    recorder.chrome_trace_json()
}

#[test]
fn trace_export_is_byte_identical_across_thread_counts() {
    let sequential = traced_sweep(1);
    let parallel = traced_sweep(4);
    assert_eq!(
        sequential.as_bytes(),
        parallel.as_bytes(),
        "virtual timestamps must make the trace thread-count independent"
    );
    // The export is a loadable Chrome trace document with stage spans.
    assert!(sequential.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(sequential.contains("\"ph\":\"X\""));
    assert!(sequential.contains("\"name\":\"process_name\""));
    assert!(sequential.contains("\"name\":\"actuation\""));
}

#[test]
fn shared_metrics_shape_is_independent_of_thread_count() {
    let metered = |threads: usize| {
        let metrics = Arc::new(Metrics::new());
        let jobs = (0..4u64)
            .map(|i| {
                let track = Track::for_situation(&TABLE3_SITUATIONS[0], 80.0);
                (track, short_config(7 + i).with_metrics(Arc::clone(&metrics)))
            })
            .collect();
        sweep(jobs, threads);
        metrics.snapshot()
    };
    let seq = metered(1);
    let par = metered(4);
    // Wall-clock histograms differ run to run, but the deterministic
    // shape must match: same schema, same counters, same stage counts.
    assert_eq!(seq.schema, par.schema);
    for (name, value) in &seq.counters {
        if name.starts_with("controller_cache") {
            continue; // split races benignly; compared as a sum below
        }
        assert_eq!(par.counter(name), Some(*value), "counter {name}");
    }
    let cache_sum = |s: &lkas_bench::MetricsSnapshot| {
        s.counter("controller_cache_hits").unwrap() + s.counter("controller_cache_misses").unwrap()
    };
    assert_eq!(cache_sum(&seq), cache_sum(&par));
    for stage in &seq.stages {
        let other = par.stage(&stage.stage).expect("stage present");
        assert_eq!(other.count, stage.count, "stage {} count", stage.stage);
    }
}

fn report_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_telemetry_report"))
}

fn write_snapshot(dir: &std::path::Path, name: &str, perception_us: u64) -> PathBuf {
    use lkas_runtime::{Counter, Stage};
    use std::time::Duration;
    let m = Metrics::new();
    for _ in 0..20 {
        m.record(Stage::Perception, Duration::from_micros(perception_us));
        m.incr(Counter::Cycles);
    }
    let path = dir.join(name);
    m.write_json(&path).unwrap();
    path
}

#[test]
fn telemetry_report_diff_exit_codes() {
    let dir = std::env::temp_dir().join(format!("lkas-telemetry-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = write_snapshot(&dir, "base.json", 100);
    let slow = write_snapshot(&dir, "slow.json", 4000);

    // Identical snapshots pass (exit 0).
    let ok = report_bin().args(["diff"]).arg(&base).arg(&base).output().unwrap();
    assert!(ok.status.success(), "identical snapshots must pass: {ok:?}");
    assert!(String::from_utf8_lossy(&ok.stdout).contains("PASS"));

    // An inflated stage time fails (exit 1).
    let bad = report_bin().args(["diff"]).arg(&base).arg(&slow).output().unwrap();
    assert_eq!(bad.status.code(), Some(1), "inflated stage time must fail");
    assert!(String::from_utf8_lossy(&bad.stdout).contains("FAIL"));

    // ...unless the thresholds are loosened enough.
    let loose = report_bin()
        .args(["diff", "--max-rel-mean", "1000", "--max-rel-tail", "1000"])
        .arg(&base)
        .arg(&slow)
        .output()
        .unwrap();
    assert!(loose.status.success(), "{loose:?}");

    // `show` renders the latency table.
    let show = report_bin().arg("show").arg(&base).output().unwrap();
    assert!(show.status.success());
    let text = String::from_utf8_lossy(&show.stdout);
    assert!(text.contains("perception") && text.contains("p99_us"), "{text}");

    // Usage errors exit 2.
    let usage = report_bin().arg("diff").arg(&base).output().unwrap();
    assert_eq!(usage.status.code(), Some(2));
    let missing = report_bin().args(["show", "nonexistent.json"]).output().unwrap();
    assert_eq!(missing.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_report_failure_modes_are_distinct() {
    use lkas_runtime::{Counter, Stage};
    use std::time::Duration;

    let dir = std::env::temp_dir().join(format!("lkas-telemetry-fail-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good = write_snapshot(&dir, "good.json", 100);

    // A missing baseline file exits 2 and says it cannot read it.
    let absent = dir.join("no-such-baseline.json");
    let out = report_bin().arg("diff").arg(&absent).arg(&good).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "missing baseline: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read") && err.contains("no-such-baseline.json"), "{err}");

    // A malformed candidate exits 2 with a parse (not read) message.
    let malformed = dir.join("malformed.json");
    std::fs::write(&malformed, "{ this is not json").unwrap();
    let out = report_bin().arg("diff").arg(&good).arg(&malformed).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "malformed candidate: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot parse") && err.contains("malformed.json"), "{err}");
    assert!(!err.contains("cannot read"), "parse failure must not read as an I/O failure: {err}");

    // A drifted deterministic counter exits 1 and names the counter
    // with both values.
    let drifted = dir.join("drifted.json");
    let m = Metrics::new();
    for _ in 0..20 {
        m.record(Stage::Perception, Duration::from_micros(100));
        m.incr(Counter::Cycles);
    }
    m.incr(Counter::Cycles); // one extra cycle
    m.write_json(&drifted).unwrap();
    let out = report_bin()
        .args(["diff", "--max-rel-mean", "1000", "--max-rel-tail", "1000"])
        .arg(&good)
        .arg(&drifted)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "counter drift: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("counter cycles: 20 -> 21"), "{text}");

    // A misspelled flag is rejected with exit 2, not silently ignored.
    let out = report_bin().args(["diff", "--no-countrs"]).arg(&good).arg(&good).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown flag: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--no-countrs`"));

    // Value flags may precede the stream path: their values are never
    // taken for it.
    let stream = dir.join("stream.jsonl");
    let lines: Vec<String> = (0..3u64)
        .map(|cycle| {
            let mut delta = lkas_runtime::CycleDelta::new(cycle);
            delta.counters.push(("cycles".to_string(), 1));
            serde_json::to_string(&delta).unwrap()
        })
        .collect();
    std::fs::write(&stream, lines.join("\n") + "\n").unwrap();
    let folded = dir.join("folded.json");
    let out = report_bin().arg("fold").arg("--out").arg(&folded).arg(&stream).output().unwrap();
    assert!(out.status.success(), "flag-first fold: {out:?}");
    let text = std::fs::read_to_string(&folded).unwrap();
    let snap: lkas_bench::MetricsSnapshot = serde_json::from_str(&text).unwrap();
    assert_eq!(snap.counter("cycles"), Some(3));
    let out = report_bin().args(["tail", "--last", "2"]).arg(&stream).output().unwrap();
    assert!(out.status.success(), "flag-first tail: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 2, "{text}");
    assert!(text.starts_with("cycle      1"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}
