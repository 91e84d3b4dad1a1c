//! Lock-free log2-bucket latency histograms.
//!
//! [`LatencyHistogram`] is the per-stage accumulator behind [`Metrics`]:
//! 64 power-of-two buckets over nanoseconds, each an `AtomicU64`, so a
//! recording is two relaxed `fetch_add`s and one `fetch_max` — safe to
//! share across every worker of a sweep without locking. Histograms are
//! *mergeable* (bucket-wise addition), which lets each executor worker
//! keep a local registry and fold it into the sweep's shared one at the
//! end; the merged result is exactly the histogram a single-thread run
//! would have produced, whatever the interleaving (property-tested in
//! `tests/hist_props.rs`).
//!
//! Percentiles are read from the bucket boundaries: `percentile_ns(q)`
//! returns the inclusive upper bound of the bucket where the cumulative
//! count crosses `q`, clamped to the exact observed maximum. The
//! estimate is conservative (never below the true quantile's bucket) and
//! monotone in `q`, so `p50 ≤ p90 ≤ p99 ≤ max` always holds.
//!
//! [`Metrics`]: crate::Metrics

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: one per power of two of a nanosecond `u64`.
pub const HIST_BUCKETS: usize = 64;

/// The bucket index for an observation of `ns` nanoseconds: bucket `i`
/// holds values in `[2^i, 2^(i+1))` (bucket 0 also holds 0).
pub fn bucket_index(ns: u64) -> usize {
    (u64::BITS - ns.leading_zeros()).saturating_sub(1) as usize
}

/// The inclusive upper bound (ns) of bucket `index`.
pub fn bucket_upper_ns(index: usize) -> u64 {
    if index >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (index + 1)) - 1
    }
}

/// A lock-free fixed-bucket log2 latency histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Adds every observation of `other` into `self` (bucket-wise).
    /// Merging histograms yields exactly the single histogram of the
    /// combined observation stream.
    pub fn merge_from(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.total_ns.fetch_add(other.total_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_ns.fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A plain (non-atomic) point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }

    /// Adds every observation of a serialized snapshot into `self` —
    /// the cross-process counterpart of [`LatencyHistogram::merge_from`],
    /// used when folding shard telemetry dumps back together.
    pub fn merge_snapshot(&self, snap: &HistogramSnapshot) {
        for (mine, &n) in self.buckets.iter().zip(&snap.counts) {
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.total_ns.fetch_add(snap.total_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(snap.max_ns, Ordering::Relaxed);
    }
}

/// A plain copy of a [`LatencyHistogram`], for reporting, tests, and
/// the raw telemetry dumps shard artifacts carry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`HIST_BUCKETS`] entries).
    pub counts: Vec<u64>,
    /// Sum of all observations (ns).
    pub total_ns: u64,
    /// Exact largest observation (ns).
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// A conservative estimate of the `q`-quantile (ns), `q` in [0, 1]:
    /// the upper bound of the bucket where the cumulative count crosses
    /// `q`, clamped to the exact maximum. Returns 0 for an empty
    /// histogram. Monotone in `q`.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return bucket_upper_ns(i).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_ns(0), 1);
        assert_eq!(bucket_upper_ns(9), 1023);
        assert_eq!(bucket_upper_ns(63), u64::MAX);
    }

    #[test]
    fn records_and_reports() {
        let h = LatencyHistogram::new();
        for ns in [100, 200, 400, 800, 100_000] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.total_ns, 101_500);
        assert_eq!(s.max_ns, 100_000);
        // p50 falls in the bucket of 400 ns ([256, 512)).
        assert_eq!(s.percentile_ns(0.5), 511);
        // The top quantiles clamp to the exact max.
        assert_eq!(s.percentile_ns(1.0), 100_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile_ns(0.5), 0);
        assert_eq!(s.max_ns, 0);
    }

    #[test]
    fn merge_snapshot_round_trips_through_json() {
        // Dump a histogram, serialize, parse, merge into an empty one:
        // the result must equal the original exactly.
        let original = LatencyHistogram::new();
        for ns in [1u64, 100, 10_000, 1_000_000, 1_000_000] {
            original.record_ns(ns);
        }
        let json = serde_json::to_string(&original.snapshot()).unwrap();
        let parsed: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        let restored = LatencyHistogram::new();
        restored.merge_snapshot(&parsed);
        assert_eq!(restored.snapshot(), original.snapshot());
    }

    #[test]
    fn merge_equals_combined_recording() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let combined = LatencyHistogram::new();
        for (i, ns) in [10u64, 20, 5000, 1, 0, 999_999].iter().enumerate() {
            if i % 2 == 0 { &a } else { &b }.record_ns(*ns);
            combined.record_ns(*ns);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), combined.snapshot());
    }

    #[test]
    fn percentiles_are_monotone() {
        let h = LatencyHistogram::new();
        for ns in 0..1000u64 {
            h.record_ns(ns * ns);
        }
        let s = h.snapshot();
        let p50 = s.percentile_ns(0.50);
        let p90 = s.percentile_ns(0.90);
        let p99 = s.percentile_ns(0.99);
        assert!(p50 <= p90 && p90 <= p99 && p99 <= s.max_ns, "{p50} {p90} {p99}");
    }
}
