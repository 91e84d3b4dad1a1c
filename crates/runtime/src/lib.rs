//! Shared execution layer for the LKAS reproduction.
//!
//! Every sweep driver and experiment binary funnels through this crate
//! instead of hand-rolling its own thread pool:
//!
//! - [`Executor`] — an ordered parallel map over a job list, built on
//!   `std::thread::scope` and an atomic job cursor. Results come back in
//!   input order regardless of completion order, and a worker panic
//!   propagates to the caller (no silently dropped jobs).
//! - [`Metrics`] — a lock-free telemetry registry recording per-cycle
//!   stage durations (render, sensor, ISP, classifier invocation,
//!   perception, control, actuation) into log2 latency
//!   histograms ([`LatencyHistogram`]) plus monotonic event counters
//!   (perception failures, situation switches, per-knob
//!   reconfigurations, fault/degradation events), exportable as a JSON
//!   artifact (`lkas-telemetry-v3`: p50/p90/p99/max per stage) mirroring
//!   the paper's Table II runtime breakdown.
//! - [`TraceRecorder`] / [`TraceSink`] — bounded per-run ring buffers of
//!   per-cycle spans and instant events with deterministic virtual
//!   timestamps, exportable as Chrome trace-event JSON viewable in
//!   Perfetto.
//! - [`TelemetryBus`] / [`CycleDelta`] — a bounded, non-blocking
//!   per-cycle telemetry stream with drop-oldest backpressure
//!   (`stream_dropped` accounting), the one per-cycle wire form: the
//!   [`FlightRecorder`] post-mortem ring keeps it and the fleet daemon
//!   forwards it to watchers, and [`fold`] rebuilds a run's registry
//!   from it.
//! - [`report`] — snapshot pretty-printing and the baseline-diff logic
//!   behind the `telemetry_report` harness and the CI perf smoke gate.
//! - [`campaign`] — sharded, resumable campaign execution: a
//!   deterministic `--shard i/N` work-partitioner over any canonical
//!   candidate grid, a content-keyed JSONL checkpoint that lets an
//!   interrupted shard resume without re-evaluating completed
//!   candidates, and a shard-artifact merge whose output is
//!   byte-identical to the single-process sweep at any shard and
//!   thread count.

pub mod campaign;
mod executor;
mod hist;
mod metrics;
pub mod report;
mod stream;
mod trace;

pub use campaign::{
    merge_shard_files, read_shard_file, run_campaign, write_shard_file, CampaignRun, CampaignSpec,
    CampaignStats, Fingerprint, MergedShards, Shard, ShardFile, SHARD_SCHEMA,
};
pub use executor::Executor;
pub use hist::{bucket_index, bucket_upper_ns, HistogramSnapshot, LatencyHistogram, HIST_BUCKETS};
pub use metrics::{
    write_atomic, Counter, Metrics, MetricsDump, MetricsSnapshot, Stage, StageSnapshot,
    METRICS_DUMP_SCHEMA, TELEMETRY_SCHEMA, TELEMETRY_SCHEMA_V1, TELEMETRY_SCHEMA_V2,
};
pub use stream::{
    fold, CycleDelta, FlightDump, FlightRecorder, Subscription, TelemetryBus,
    DEFAULT_FLIGHT_CAPACITY, DEFAULT_STREAM_CAPACITY, FLIGHT_SCHEMA, FLIGHT_TRIGGER_LABEL,
    STREAM_SCHEMA,
};
pub use trace::{TraceRecorder, TraceSink, CYCLE_TICKS, DEFAULT_TRACE_CAPACITY, STAGE_TICKS};
