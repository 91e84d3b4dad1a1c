//! `compare` verdicts: an injected 1.5× slowdown of one ISP span and a
//! drop in cycles/s past its bound are flagged, identical and repeated
//! sets pass, and noise wider than a bound is reported as unresolved.

use hilbench::compare::{compare, judge, parse_log, LoggedRun, Verdict, PER_LAYER_BOUND};
use hilbench::{benchmark, MetricDecl};

/// Ten deterministic samples spread ±`spread`/2 around `center`.
fn noisy(center: f64, spread: f64) -> Vec<f64> {
    (0..10).map(|i| center * (1.0 + spread * (((i * 7) % 10) as f64 / 9.0 - 0.5))).collect()
}

fn decl(name: &str) -> MetricDecl {
    let bench = benchmark();
    bench.end_to_end.iter().chain(&bench.per_layer).find(|m| m.name == name).unwrap().clone()
}

fn bound(m: &MetricDecl) -> f64 {
    m.bound.unwrap_or(PER_LAYER_BOUND)
}

#[test]
fn identical_sets_are_within_bound() {
    for name in ["cycles_per_s", "imaging.isp_p50_us", "setup_s"] {
        let m = decl(name);
        let v = noisy(400.0, 0.03);
        assert_eq!(judge(&m, bound(&m), &v, &v).0, Verdict::WithinBound, "{name}");
    }
}

#[test]
fn cycles_per_second_regress_past_the_bound_only() {
    let m = decl("cycles_per_s");
    let base = noisy(400.0, 0.03);
    let past: Vec<f64> = base.iter().map(|v| v * (0.98 - bound(&m))).collect();
    assert_eq!(judge(&m, bound(&m), &base, &past).0, Verdict::Regressed);
    let within: Vec<f64> = base.iter().map(|v| v * (1.02 - bound(&m))).collect();
    assert_eq!(judge(&m, bound(&m), &base, &within).0, Verdict::WithinBound);
}

#[test]
fn one_and_a_half_times_slower_isp_regresses() {
    let m = decl("imaging.isp_p50_us");
    let base = noisy(420.0, 0.04);
    let slower: Vec<f64> = base.iter().map(|v| v * 1.5).collect();
    assert_eq!(judge(&m, bound(&m), &base, &slower).0, Verdict::Regressed);
}

#[test]
fn clear_gains_improve_and_wide_noise_is_unresolved() {
    let m = decl("cycles_per_s");
    let base = noisy(400.0, 0.03);
    let faster: Vec<f64> = base.iter().map(|v| v * 1.15).collect();
    assert_eq!(judge(&m, bound(&m), &base, &faster).0, Verdict::Improved);
    let wide = noisy(400.0, 0.5);
    assert_eq!(judge(&m, bound(&m), &base, &wide).0, Verdict::Unresolved);
}

#[test]
fn checked_in_acceptance_sets_agree_and_an_injected_drop_is_caught() {
    let bench = benchmark();
    let a = parse_log(include_str!("../baseline/setA.jsonl")).expect("set A parses");
    let b = parse_log(include_str!("../baseline/setB.jsonl")).expect("set B parses");
    let rows = compare(&bench, &a, &b);
    assert_eq!(rows.len(), bench.workloads.len() * bench.end_to_end.len());
    for r in &rows {
        assert_eq!(r.verdict, Verdict::WithinBound, "{} {}", r.workload, r.metric);
    }
    let dropped: Vec<LoggedRun> = a
        .iter()
        .cloned()
        .map(|mut run| {
            for (name, v) in &mut run.metrics {
                if name == "cycles_per_s" {
                    *v *= 0.7;
                }
            }
            run
        })
        .collect();
    let flagged = compare(&bench, &a, &dropped);
    for r in flagged.iter().filter(|r| r.metric == "cycles_per_s") {
        assert_eq!(r.verdict, Verdict::Regressed, "{}", r.workload);
    }
}
