//! Order statistics shared by the run report and `compare`.

/// Median of a non-empty sample (mean of the two middle values for an
/// even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of an empty sample");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads this crate prints match the ones an external checker
/// computes from the same values. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    assert!(!s.is_empty(), "quartiles of an empty sample");
    if s.len() == 1 {
        return [s[0]; 3];
    }
    let (n, m) = (4usize, s.len() + 1);
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / n).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        ((q3 - q1) / med).abs()
    }
}

/// Nearest-rank percentile of raw samples (`p` in `[0, 100]`).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of p99/p90/p50 that leaves at least ten samples above
/// it, with its label — a tail percentile is reported only where the
/// sample supports it.
pub fn supported_tail(values: &[f64]) -> (&'static str, f64) {
    let n = values.len() as f64;
    for (label, p) in [("p99", 99.0), ("p90", 90.0)] {
        if n * (1.0 - p / 100.0) >= 10.0 {
            return (label, percentile(values, p));
        }
    }
    ("p50", percentile(values, 50.0))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(supported_tail(&v), ("p99", 990.0));
        assert_eq!(supported_tail(&v[..200]).0, "p90");
        assert_eq!(supported_tail(&v[..50]).0, "p50");
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
