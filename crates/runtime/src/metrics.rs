//! Lock-free telemetry: per-stage latency histograms and event
//! counters, exportable as a JSON artifact.

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Identifies the telemetry JSON layout written by
/// [`Metrics::write_json`].
///
/// v3 replaces the mean/max-only stage accumulators with log2 latency
/// histograms: every stage entry now carries `p50_us`/`p90_us`/`p99_us`
/// percentile estimates alongside the v1/v2 fields, and the `actuation`
/// stage joins the breakdown. v2 extended v1 with the fault-injection
/// and graceful-degradation counters (`faults_injected` …
/// `degraded_cycles`). The layout is strictly additive across versions,
/// so v1/v2 documents still deserialize into [`MetricsSnapshot`] (the
/// percentile fields read back as `None`) — readers should accept all
/// three tags (see [`MetricsSnapshot::schema_is_supported`]).
pub const TELEMETRY_SCHEMA: &str = "lkas-telemetry-v3";

/// The mean/max-only schema with fault counters, still accepted on read.
pub const TELEMETRY_SCHEMA_V2: &str = "lkas-telemetry-v2";

/// The original telemetry schema tag, still accepted on read.
pub const TELEMETRY_SCHEMA_V1: &str = "lkas-telemetry-v1";

/// The pipeline stages of one closed-loop cycle, mirroring the paper's
/// Table II runtime breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Scene rendering (simulation-only cost; the paper's camera feed).
    Render,
    /// Sensor capture: exposure, noise, Bayer sampling.
    Sensor,
    /// The configurable ISP pipeline.
    Isp,
    /// Situation-classifier invocation (road / lane / scene heads).
    Classifier,
    /// Lane perception (rectify, binarize, sliding-window fit).
    Perception,
    /// Controller design lookups plus the control-law step.
    Control,
    /// Steering-command actuation: pending-command activation plus the
    /// vehicle physics step (recorded once per physics step, so its
    /// count exceeds `cycles`).
    Actuation,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::Render,
        Stage::Sensor,
        Stage::Isp,
        Stage::Classifier,
        Stage::Perception,
        Stage::Control,
        Stage::Actuation,
    ];

    /// The stage's snake_case name as written to JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Render => "render",
            Stage::Sensor => "sensor",
            Stage::Isp => "isp",
            Stage::Classifier => "classifier",
            Stage::Perception => "perception",
            Stage::Control => "control",
            Stage::Actuation => "actuation",
        }
    }

    /// Looks up a stage by its snake_case name.
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|s| s.name() == name)
    }
}

/// Monotonic event counters tracked alongside stage timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Closed-loop cycles simulated.
    Cycles,
    /// Perception returned no usable lateral estimate.
    PerceptionFailures,
    /// The situation estimate changed between cycles.
    SituationSwitches,
    /// ISP knob reconfigurations applied.
    IspReconfigurations,
    /// Perception/ROI knob reconfigurations applied.
    PerceptionReconfigurations,
    /// Controller (gain/period) reconfigurations applied.
    ControlReconfigurations,
    /// Controller designs served from the memoizing cache.
    ControllerCacheHits,
    /// Controller designs derived from scratch.
    ControllerCacheMisses,
    /// Control samples whose situation estimate disagreed with ground
    /// truth.
    Misidentifications,
    /// Knob-tuning changes of any group (the aggregate the HiL result
    /// reports as `reconfigurations`).
    KnobReconfigurations,
    /// Cycles in which at least one injected fault was active
    /// (telemetry-v2, `lkas-faults`).
    FaultsInjected,
    /// Camera frames dropped by an injected fault.
    FrameDrops,
    /// Cycles whose situation estimate was overridden by an injected
    /// classifier misprediction.
    ForcedMispredictions,
    /// Cycles whose actuation was delayed past the designed `τ` by an
    /// injected perception timeout.
    DeadlineOverruns,
    /// Cycles driven with a stuck or lagged steering actuator fault.
    ActuationFaults,
    /// Perception misses bridged by the degradation policy's
    /// hold-and-extrapolate.
    MeasurementHolds,
    /// Past-budget misses (or gated glitch frames) bridged by the
    /// degradation policy's Kalman observer coast instead of going
    /// blind.
    ObserverCoasts,
    /// Coast-ending measurements accepted through the degradation
    /// policy's re-acquisition innovation gate.
    ObserverReacquisitions,
    /// Transitions of the degradation policy into the safe fallback
    /// mode.
    DegradedEntries,
    /// Hysteresis exits of the degradation policy back to nominal.
    DegradedExits,
    /// Control samples spent in the degraded (safe fallback) mode.
    DegradedCycles,
    /// Scene-render rejections (an invalid camera surfaced as a typed
    /// `RenderError` instead of a panic); the cycle proceeds frameless,
    /// as with a dropped frame.
    RenderErrors,
    /// Campaign grid candidates evaluated from scratch by the campaign
    /// engine this run.
    CampaignEvaluations,
    /// Campaign grid candidates restored from a checkpoint instead of
    /// re-evaluated.
    CampaignRestored,
    /// Knob decisions taken by the online re-characterization tuner
    /// (one per completed reward window or situation switch).
    TunerDecisions,
    /// Tuner decisions that picked a non-prior arm to gather reward
    /// (unexplored-arm visits plus epsilon-random picks).
    TunerExplorations,
    /// Tuner decisions forced back to the characterized prior tuning
    /// (safe-mode entries and post-degradation resets).
    TunerFallbacks,
    /// Jobs admitted to a fleet daemon's queue.
    FleetJobsAccepted,
    /// Jobs refused by fleet admission control (queue saturated).
    FleetJobsRejected,
    /// Fleet submissions answered from the fingerprint-keyed results
    /// cache without re-simulation.
    FleetCacheHits,
    /// Fleet jobs that missed the results cache and were simulated.
    FleetCacheMisses,
    /// Per-cycle telemetry events evicted from a bounded stream ring
    /// (drop-oldest backpressure on a slow subscriber). Accounted by
    /// the bus/daemon, never by a simulation run's own registry, so a
    /// folded stream stays byte-identical to the run snapshot.
    StreamDropped,
    /// Flight-recorder rings dumped as post-mortem artifacts.
    FlightDumps,
}

impl Counter {
    /// Every counter, in reporting order.
    pub const ALL: [Counter; 33] = [
        Counter::Cycles,
        Counter::PerceptionFailures,
        Counter::SituationSwitches,
        Counter::IspReconfigurations,
        Counter::PerceptionReconfigurations,
        Counter::ControlReconfigurations,
        Counter::ControllerCacheHits,
        Counter::ControllerCacheMisses,
        Counter::Misidentifications,
        Counter::KnobReconfigurations,
        Counter::FaultsInjected,
        Counter::FrameDrops,
        Counter::ForcedMispredictions,
        Counter::DeadlineOverruns,
        Counter::ActuationFaults,
        Counter::MeasurementHolds,
        Counter::ObserverCoasts,
        Counter::ObserverReacquisitions,
        Counter::DegradedEntries,
        Counter::DegradedExits,
        Counter::DegradedCycles,
        Counter::RenderErrors,
        Counter::CampaignEvaluations,
        Counter::CampaignRestored,
        Counter::TunerDecisions,
        Counter::TunerExplorations,
        Counter::TunerFallbacks,
        Counter::FleetJobsAccepted,
        Counter::FleetJobsRejected,
        Counter::FleetCacheHits,
        Counter::FleetCacheMisses,
        Counter::StreamDropped,
        Counter::FlightDumps,
    ];

    /// The counter's snake_case name as written to JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Cycles => "cycles",
            Counter::PerceptionFailures => "perception_failures",
            Counter::SituationSwitches => "situation_switches",
            Counter::IspReconfigurations => "isp_reconfigurations",
            Counter::PerceptionReconfigurations => "perception_reconfigurations",
            Counter::ControlReconfigurations => "control_reconfigurations",
            Counter::ControllerCacheHits => "controller_cache_hits",
            Counter::ControllerCacheMisses => "controller_cache_misses",
            Counter::Misidentifications => "misidentifications",
            Counter::KnobReconfigurations => "knob_reconfigurations",
            Counter::FaultsInjected => "faults_injected",
            Counter::FrameDrops => "frame_drops",
            Counter::ForcedMispredictions => "forced_mispredictions",
            Counter::DeadlineOverruns => "deadline_overruns",
            Counter::ActuationFaults => "actuation_faults",
            Counter::MeasurementHolds => "measurement_holds",
            Counter::ObserverCoasts => "observer_coasts",
            Counter::ObserverReacquisitions => "observer_reacquisitions",
            Counter::DegradedEntries => "degraded_entries",
            Counter::DegradedExits => "degraded_exits",
            Counter::DegradedCycles => "degraded_cycles",
            Counter::RenderErrors => "render_errors",
            Counter::CampaignEvaluations => "campaign_evaluations",
            Counter::CampaignRestored => "campaign_restored",
            Counter::TunerDecisions => "tuner_decisions",
            Counter::TunerExplorations => "tuner_explorations",
            Counter::TunerFallbacks => "tuner_fallbacks",
            Counter::FleetJobsAccepted => "fleet_jobs_accepted",
            Counter::FleetJobsRejected => "fleet_jobs_rejected",
            Counter::FleetCacheHits => "fleet_cache_hits",
            Counter::FleetCacheMisses => "fleet_cache_misses",
            Counter::StreamDropped => "stream_dropped",
            Counter::FlightDumps => "flight_dumps",
        }
    }

    /// Looks up a counter by its snake_case name.
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.iter().copied().find(|c| c.name() == name)
    }
}

/// A thread-safe telemetry registry.
///
/// All recording is relaxed-atomic (per-stage [`LatencyHistogram`]s and
/// counter cells), so one `Metrics` can be shared (via `Arc` or plain
/// reference) across every worker of a parallel sweep and across every
/// stage of a simulation cycle without locking. Registries are also
/// *mergeable* ([`Metrics::merge_from`]): a job's private registry can
/// be folded into a shared one, which is how the fleet daemon
/// aggregates its jobs.
#[derive(Debug)]
pub struct Metrics {
    stages: [LatencyHistogram; Stage::ALL.len()],
    counters: [AtomicU64; Counter::ALL.len()],
}

// Written out because `[T; N]: Default` stops at N = 32 and the counter
// set has grown past it.
impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            stages: std::array::from_fn(|_| LatencyHistogram::default()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one observation of `elapsed` for `stage`.
    pub fn record(&self, stage: Stage, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.record_ns(stage, ns);
    }

    /// Records one observation of exactly `ns` nanoseconds for `stage`.
    ///
    /// The telemetry stream carries the same raw values, so recording
    /// the identical `u64` into both the registry and a
    /// [`crate::CycleDelta`] keeps a folded stream byte-identical to
    /// the end-of-run snapshot.
    pub fn record_ns(&self, stage: Stage, ns: u64) {
        self.stages[stage as usize].record_ns(ns);
    }

    /// Adds every observation and counter of `other` into `self`.
    /// Merging registries (the fleet daemon folds each job's registry
    /// into its own) is equivalent to having recorded everything into
    /// one registry directly.
    pub fn merge_from(&self, other: &Metrics) {
        for (mine, theirs) in self.stages.iter().zip(&other.stages) {
            mine.merge_from(theirs);
        }
        for &counter in &Counter::ALL {
            let n = other.counter(counter);
            if n > 0 {
                self.add(counter, n);
            }
        }
    }

    /// Increments `counter` by one.
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Increments `counter` by `n`.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy for reporting. (Individual
    /// loads are relaxed; call after the workload quiesces for exact
    /// totals.)
    pub fn snapshot(&self) -> MetricsSnapshot {
        let stages = Stage::ALL
            .iter()
            .map(|&stage| {
                let hist = self.stages[stage as usize].snapshot();
                let count = hist.count();
                StageSnapshot {
                    stage: stage.name().to_string(),
                    count,
                    total_ms: hist.total_ns as f64 / 1e6,
                    mean_us: if count == 0 {
                        0.0
                    } else {
                        hist.total_ns as f64 / count as f64 / 1e3
                    },
                    max_us: hist.max_ns as f64 / 1e3,
                    p50_us: Some(hist.percentile_ns(0.50) as f64 / 1e3),
                    p90_us: Some(hist.percentile_ns(0.90) as f64 / 1e3),
                    p99_us: Some(hist.percentile_ns(0.99) as f64 / 1e3),
                }
            })
            .collect();
        let counters = Counter::ALL
            .iter()
            .map(|&counter| (counter.name().to_string(), self.counter(counter)))
            .collect();
        MetricsSnapshot { schema: TELEMETRY_SCHEMA.to_string(), stages, counters }
    }

    /// Serializes a snapshot as pretty JSON and writes it to `path`,
    /// creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Returns any underlying filesystem error.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let json =
            serde_json::to_string_pretty(&self.snapshot()).expect("telemetry snapshot serializes");
        write_atomic(path.as_ref(), (json + "\n").as_bytes())
    }

    /// A raw, lossless, *mergeable* copy of the registry — full
    /// histogram buckets rather than the percentile summaries of
    /// [`Metrics::snapshot`]. Shard artifacts carry this form so a
    /// merge can fold shards' telemetry back together exactly
    /// ([`Metrics::absorb`]); summaries cannot be merged, buckets can.
    pub fn dump(&self) -> MetricsDump {
        MetricsDump {
            schema: METRICS_DUMP_SCHEMA.to_string(),
            stages: Stage::ALL
                .iter()
                .map(|&stage| (stage.name().to_string(), self.stages[stage as usize].snapshot()))
                .collect(),
            counters: Counter::ALL
                .iter()
                .map(|&counter| (counter.name().to_string(), self.counter(counter)))
                .collect(),
        }
    }

    /// Adds every observation and counter of a serialized dump into
    /// `self` — the cross-process counterpart of
    /// [`Metrics::merge_from`]. Names this build does not know are
    /// ignored (a newer writer's extra stages or counters cannot be
    /// represented here).
    pub fn absorb(&self, dump: &MetricsDump) {
        for (name, snap) in &dump.stages {
            if let Some(stage) = Stage::ALL.iter().copied().find(|s| s.name() == name) {
                self.stages[stage as usize].merge_snapshot(snap);
            }
        }
        for (name, value) in &dump.counters {
            if *value > 0 {
                if let Some(counter) = Counter::from_name(name) {
                    self.add(counter, *value);
                }
            }
        }
    }
}

/// Schema tag of the raw mergeable telemetry dump embedded in campaign
/// shard artifacts.
pub const METRICS_DUMP_SCHEMA: &str = "lkas-metrics-dump-v1";

/// A raw, mergeable serialization of a [`Metrics`] registry: full
/// per-stage histogram buckets plus the counters. Unlike
/// [`MetricsSnapshot`] (percentile summaries for humans and the diff
/// gate), a dump can be folded into another registry without loss —
/// that is how a campaign merge reconstructs sweep-wide telemetry from
/// per-shard runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsDump {
    /// Schema tag, always [`METRICS_DUMP_SCHEMA`].
    pub schema: String,
    /// `(stage name, raw histogram)` pairs, in [`Stage::ALL`] order.
    pub stages: Vec<(String, HistogramSnapshot)>,
    /// `(name, value)` counter pairs, in [`Counter::ALL`] order.
    pub counters: Vec<(String, u64)>,
}

/// Writes `bytes` to `path` atomically: the content lands in a
/// temporary file in the same directory and is renamed into place, so a
/// killed process never leaves a torn artifact. Parent directories are
/// created as needed.
///
/// # Errors
///
/// Returns any underlying filesystem error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("artifact");
    let tmp = path.with_file_name(format!(".{file_name}.tmp-{}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Timing for one stage within a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Stage name (see [`Stage::name`]).
    pub stage: String,
    /// Number of recorded observations.
    pub count: u64,
    /// Total time across observations, in milliseconds.
    pub total_ms: f64,
    /// Mean time per observation, in microseconds.
    pub mean_us: f64,
    /// Worst single observation, in microseconds.
    pub max_us: f64,
    /// Median estimate (µs), from the log2 histogram buckets. `None`
    /// when read from a pre-v3 document.
    pub p50_us: Option<f64>,
    /// 90th-percentile estimate (µs). `None` in pre-v3 documents.
    pub p90_us: Option<f64>,
    /// 99th-percentile estimate (µs). `None` in pre-v3 documents.
    pub p99_us: Option<f64>,
}

/// The JSON-exportable telemetry report (schema
/// [`TELEMETRY_SCHEMA`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Schema tag, always [`TELEMETRY_SCHEMA`].
    pub schema: String,
    /// Per-stage timing, in [`Stage::ALL`] order.
    pub stages: Vec<StageSnapshot>,
    /// `(name, value)` counter pairs, in [`Counter::ALL`] order.
    pub counters: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// `true` if this snapshot's schema tag is one this crate can
    /// interpret (the current schema or the backward-readable v1/v2).
    pub fn schema_is_supported(&self) -> bool {
        self.schema == TELEMETRY_SCHEMA
            || self.schema == TELEMETRY_SCHEMA_V2
            || self.schema == TELEMETRY_SCHEMA_V1
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a stage's timing by name.
    pub fn stage(&self, name: &str) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.stage == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_and_counters_accumulate() {
        let metrics = Metrics::new();
        metrics.record(Stage::Isp, Duration::from_micros(200));
        metrics.record(Stage::Isp, Duration::from_micros(100));
        metrics.record(Stage::Control, Duration::from_millis(1));
        metrics.incr(Counter::Cycles);
        metrics.add(Counter::IspReconfigurations, 3);

        let snap = metrics.snapshot();
        let isp = snap.stage("isp").expect("isp stage present");
        assert_eq!(isp.count, 2);
        assert!((isp.total_ms - 0.3).abs() < 1e-9);
        assert!((isp.mean_us - 150.0).abs() < 1e-9);
        assert!((isp.max_us - 200.0).abs() < 1e-9);
        // Percentiles come from log2 bucket bounds, clamped to the max.
        let p50 = isp.p50_us.expect("v3 snapshots carry percentiles");
        let p99 = isp.p99_us.unwrap();
        assert!(p50 > 0.0 && p50 <= p99 && p99 <= isp.max_us, "{p50} {p99}");
        let control = snap.stage("control").expect("control stage present");
        assert_eq!(control.count, 1);
        assert!(control.total_ms >= 1.0);
        assert_eq!(snap.counter("cycles"), Some(1));
        assert_eq!(snap.counter("isp_reconfigurations"), Some(3));
        assert_eq!(snap.counter("perception_failures"), Some(0));
    }

    #[test]
    fn shared_across_threads() {
        let metrics = Metrics::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        metrics.incr(Counter::Cycles);
                        metrics.record(Stage::Perception, Duration::from_nanos(10));
                    }
                });
            }
        });
        assert_eq!(metrics.counter(Counter::Cycles), 4000);
        assert_eq!(metrics.snapshot().stage("perception").unwrap().count, 4000);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let metrics = Metrics::new();
        metrics.record(Stage::Render, Duration::from_micros(42));
        metrics.incr(Counter::SituationSwitches);
        let snap = metrics.snapshot();
        let json = serde_json::to_string_pretty(&snap).unwrap();
        assert!(json.contains(TELEMETRY_SCHEMA));
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn write_json_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("lkas-runtime-test-metrics");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/telemetry.json");
        Metrics::new().write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("lkas-telemetry-v3"));
        // The atomic writer leaves no temp file behind.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_documents_remain_readable() {
        // A pre-fault-subsystem artifact (schema v1, 8 counters, no
        // fault/degradation fields) must still deserialize and answer
        // lookups; the v2-only counters are simply absent.
        let v1 = r#"{
            "schema": "lkas-telemetry-v1",
            "stages": [
                { "stage": "render", "count": 3, "total_ms": 1.5,
                  "mean_us": 500.0, "max_us": 700.0 }
            ],
            "counters": [["cycles", 3], ["perception_failures", 1]]
        }"#;
        let snap: MetricsSnapshot = serde_json::from_str(v1).unwrap();
        assert!(snap.schema_is_supported());
        assert_eq!(snap.counter("cycles"), Some(3));
        assert_eq!(snap.counter("faults_injected"), None);
        let render = snap.stage("render").unwrap();
        assert_eq!(render.count, 3);
        // Pre-v3 documents have no percentile fields.
        assert_eq!(render.p50_us, None);
        assert_eq!(render.p99_us, None);
    }

    #[test]
    fn v2_documents_remain_readable() {
        // A pre-histogram artifact (schema v2, mean/max-only stages, no
        // actuation stage) must still deserialize and answer lookups.
        let v2 = r#"{
            "schema": "lkas-telemetry-v2",
            "stages": [
                { "stage": "control", "count": 10, "total_ms": 2.0,
                  "mean_us": 200.0, "max_us": 900.0 }
            ],
            "counters": [["cycles", 10], ["faults_injected", 2]]
        }"#;
        let snap: MetricsSnapshot = serde_json::from_str(v2).unwrap();
        assert!(snap.schema_is_supported());
        assert_eq!(snap.counter("faults_injected"), Some(2));
        assert_eq!(snap.stage("control").unwrap().p99_us, None);
        assert!(snap.stage("actuation").is_none());
    }

    #[test]
    fn v3_snapshot_carries_fault_counters_and_percentiles() {
        let metrics = Metrics::new();
        metrics.incr(Counter::FaultsInjected);
        metrics.add(Counter::DegradedCycles, 7);
        metrics.record(Stage::Actuation, Duration::from_micros(12));
        let snap = metrics.snapshot();
        assert!(snap.schema_is_supported());
        assert_eq!(snap.schema, TELEMETRY_SCHEMA);
        assert_eq!(snap.counter("faults_injected"), Some(1));
        assert_eq!(snap.counter("degraded_cycles"), Some(7));
        assert_eq!(snap.counter("measurement_holds"), Some(0));
        let act = snap.stage("actuation").expect("v3 adds the actuation stage");
        assert_eq!(act.count, 1);
        assert!(act.p50_us.unwrap() > 0.0);
    }

    #[test]
    fn dump_absorb_round_trip_equals_direct_recording() {
        // Two "shard processes" record disjoint work; absorbing their
        // serialized dumps must equal having recorded everything in one
        // registry — the property behind the campaign telemetry merge.
        let (shard_a, shard_b, direct) = (Metrics::new(), Metrics::new(), Metrics::new());
        for (i, us) in [3u64, 9, 27, 81, 243, 729].iter().enumerate() {
            let m = if i % 2 == 0 { &shard_a } else { &shard_b };
            m.record(Stage::Isp, Duration::from_micros(*us));
            m.incr(Counter::CampaignEvaluations);
            direct.record(Stage::Isp, Duration::from_micros(*us));
            direct.incr(Counter::CampaignEvaluations);
        }
        let merged = Metrics::new();
        for shard in [&shard_a, &shard_b] {
            let json = serde_json::to_string_pretty(&shard.dump()).unwrap();
            let dump: MetricsDump = serde_json::from_str(&json).unwrap();
            assert_eq!(dump.schema, METRICS_DUMP_SCHEMA);
            merged.absorb(&dump);
        }
        assert_eq!(merged.snapshot(), direct.snapshot());
        assert_eq!(merged.dump(), direct.dump());
        // Unknown names from a future writer are ignored, not fatal.
        let mut alien = shard_a.dump();
        alien.counters.push(("counter_from_the_future".to_string(), 5));
        Metrics::new().absorb(&alien);
    }

    #[test]
    fn merge_from_equals_direct_recording() {
        let shared = Metrics::new();
        let (a, b) = (Metrics::new(), Metrics::new());
        let direct = Metrics::new();
        for (i, us) in [5u64, 10, 20, 40, 80].iter().enumerate() {
            let m = if i % 2 == 0 { &a } else { &b };
            m.record(Stage::Perception, Duration::from_micros(*us));
            m.incr(Counter::Cycles);
            direct.record(Stage::Perception, Duration::from_micros(*us));
            direct.incr(Counter::Cycles);
        }
        shared.merge_from(&a);
        shared.merge_from(&b);
        assert_eq!(shared.snapshot(), direct.snapshot());
        assert_eq!(shared.dump(), direct.dump());
    }
}
