//! Judging a change: two sets of runs, metric by metric.
//!
//! Each set is a JSON-lines log of benchmark runs (`run --log`). For
//! every workload × metric the two sides are paired by seed, and the
//! verdict follows the rule of the choosing-metrics guide:
//!
//! * **improved** — the new side wins at least nine tenths of the
//!   pairs and the medians differ by more than the base side's
//!   inter-quartile distance;
//! * **regressed** — the new median is worse than the base median by
//!   more than the metric's bound;
//! * **unresolved** — otherwise, when either side's spread (IQR over
//!   median) is wider than the bound and not every new run beats every
//!   base run;
//! * **within bound** — otherwise.
//!
//! End-to-end bounds come from `BENCHMARK.json`; per-layer metrics have
//! none there and are judged against [`PER_LAYER_BOUND`].

use crate::stats::{quartiles, spread};
use crate::{Benchmark, MetricDecl};
use serde_json::Value;

/// Bound applied to per-layer metrics: a 25 % loss in one layer.
pub const PER_LAYER_BOUND: f64 = 0.25;

/// One logged benchmark run.
#[derive(Debug, Clone)]
pub struct LoggedRun {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Metric name → value.
    pub metrics: Vec<(String, f64)>,
}

impl LoggedRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Parses a JSON-lines set log.
///
/// # Errors
///
/// Returns the first malformed line.
pub fn parse_log(text: &str) -> Result<Vec<LoggedRun>, String> {
    let field = |fields: &[(String, Value)], name: &str| -> Option<Value> {
        fields.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
    };
    let mut runs = Vec::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = || format!("line {}: not a logged run", i + 1);
        let doc: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let Value::Object(top) = doc else { return Err(bad()) };
        let workload = match field(&top, "workload") {
            Some(Value::Str(s)) => s,
            _ => return Err(bad()),
        };
        let seed = field(&top, "seed").and_then(|v| v.as_u64()).ok_or_else(bad)?;
        let Some(Value::Object(result)) = field(&top, "result") else { return Err(bad()) };
        let Some(Value::Object(metrics)) = field(&result, "metrics") else { return Err(bad()) };
        let metrics = metrics
            .iter()
            .filter_map(|(name, v)| match v {
                Value::Object(m) => Some((name.clone(), field(m, "value")?.as_f64()?)),
                _ => None,
            })
            .collect();
        runs.push(LoggedRun { workload, seed, metrics });
    }
    Ok(runs)
}

/// A comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better, by the pair-win and IQR rule.
    Improved,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse than the bound allows.
    Regressed,
    /// Too noisy to tell against the bound.
    Unresolved,
}

impl Verdict {
    /// The verdict as printed.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared workload × metric.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Base side quartiles (q1, median, q3).
    pub base: [f64; 3],
    /// New side quartiles.
    pub new: [f64; 3],
    /// Relative change of the median, positive = worse.
    pub worse: f64,
    /// Pairs the new side won, and pairs compared.
    pub wins: (usize, usize),
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric from paired samples (`base[i]` and `new[i]` share
/// a seed).
pub fn judge(decl: &MetricDecl, bound: f64, base: &[f64], new: &[f64]) -> (Verdict, f64, usize) {
    let better = |a: f64, b: f64| if decl.higher_is_better() { a > b } else { a < b };
    let [bq1, bmed, bq3] = quartiles(base);
    let [_, nmed, _] = quartiles(new);
    let delta = if decl.higher_is_better() { bmed - nmed } else { nmed - bmed };
    let worse = if bmed != 0.0 {
        delta / bmed.abs()
    } else if delta > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    let wins = base.iter().zip(new).filter(|(b, n)| better(**n, **b)).count();
    let all_better = new.iter().all(|n| base.iter().all(|b| better(*n, *b)));
    let verdict = if wins * 10 >= base.len() * 9 && delta < 0.0 && -delta > bq3 - bq1 {
        Verdict::Improved
    } else if worse > bound {
        Verdict::Regressed
    } else if spread(base).max(spread(new)) > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    (verdict, worse, wins)
}

/// Compares two sets for every workload × declared metric both sides
/// report, pairing runs by seed.
pub fn compare(bench: &Benchmark, base: &[LoggedRun], new: &[LoggedRun]) -> Vec<Row> {
    let mut rows = Vec::new();
    let metrics = bench.end_to_end.iter().chain(&bench.per_layer);
    for decl in metrics {
        let bound = decl.bound.unwrap_or(PER_LAYER_BOUND);
        for w in &bench.workloads {
            let mut pairs: Vec<(f64, f64)> = Vec::new();
            for b in base.iter().filter(|r| r.workload == w.name) {
                let partner = new.iter().find(|r| r.workload == w.name && r.seed == b.seed);
                if let (Some(bv), Some(nv)) =
                    (b.metric(&decl.name), partner.and_then(|p| p.metric(&decl.name)))
                {
                    pairs.push((bv, nv));
                }
            }
            if pairs.is_empty() {
                continue;
            }
            let (bs, ns): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            let (verdict, worse, wins) = judge(decl, bound, &bs, &ns);
            rows.push(Row {
                workload: w.name.clone(),
                metric: decl.name.clone(),
                unit: decl.unit.clone(),
                base: quartiles(&bs),
                new: quartiles(&ns),
                worse,
                wins: (wins, bs.len()),
                verdict,
            });
        }
    }
    rows
}

/// Renders rows as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<13} {:<27} {:>34} {:>34} {:>8} {:>6}  verdict\n",
        "workload", "metric", "base q1 / median / q3", "new q1 / median / q3", "worse", "wins"
    );
    for r in rows {
        let q = |v: [f64; 3]| format!("{:.4} / {:.4} / {:.4}", v[0], v[1], v[2]);
        out.push_str(&format!(
            "{:<13} {:<27} {:>34} {:>34} {:>7.1}% {:>6}  {}\n",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            q(r.base),
            q(r.new),
            r.worse * 100.0,
            format!("{}/{}", r.wins.0, r.wins.1),
            r.verdict.label()
        ));
    }
    out
}
