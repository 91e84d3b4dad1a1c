//! `--smoke` mode end to end: every workload, untraced and traced, runs
//! through the real binary with every run capped at 3 s of simulated
//! time, checks its outputs, and emits exactly the metrics
//! `BENCHMARK.json` declares, each with its declared unit.

use hilbench::{benchmark, MetricDecl};
use serde_json::Value;
use std::process::Command;
use std::time::Instant;

fn field<'a>(fields: &'a [(String, Value)], name: &str) -> &'a Value {
    &fields.iter().find(|(k, _)| k == name).unwrap_or_else(|| panic!("no `{name}`")).1
}

/// Runs one smoke run and returns the result line's `(name, unit)`
/// pairs after checking `correct`, `attempted` and `failed`.
fn smoke_run(workload: &str, trace: &str) -> Vec<(String, String)> {
    let output = Command::new(env!("CARGO_BIN_EXE_hilbench"))
        .args(["run", "--workload", workload, "--seed", "5", "--trace", trace, "--smoke"])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{workload} trace {trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let Value::Object(doc) = serde_json::from_str::<Value>(last).expect("result is JSON") else {
        panic!("result is not an object: {last}");
    };
    let keys: Vec<&str> = doc.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(field(&doc, "correct"), &Value::Bool(true), "{stdout}");
    assert!(field(&doc, "attempted").as_u64().is_some_and(|n| n >= 1));
    assert_eq!(field(&doc, "failed").as_u64(), Some(0));
    let Value::Object(metrics) = field(&doc, "metrics") else { panic!("metrics is not an object") };
    metrics
        .iter()
        .map(|(name, m)| {
            let Value::Object(m) = m else { panic!("{name} is not an object") };
            assert!(field(m, "value").as_f64().is_some_and(f64::is_finite), "{name} value");
            let Value::Str(unit) = field(m, "unit") else { panic!("{name} unit") };
            (name.clone(), unit.clone())
        })
        .collect()
}

fn declared(metrics: &[MetricDecl]) -> Vec<(String, String)> {
    metrics.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
}

#[test]
fn smoke_mode_emits_every_declared_metric_within_a_minute() {
    let bench = benchmark();
    let started = Instant::now();
    for w in &bench.workloads {
        assert_eq!(smoke_run(&w.name, "0"), declared(&bench.end_to_end), "{} untraced", w.name);
        assert_eq!(smoke_run(&w.name, "1"), declared(&bench.per_layer), "{} traced", w.name);
    }
    let elapsed = started.elapsed().as_secs_f64();
    assert!(elapsed < 60.0, "smoke mode took {elapsed:.1} s");
}
