//! Streaming per-cycle telemetry: a bounded, non-blocking bus and a
//! flight recorder for post-mortem triage.
//!
//! The HiL loop publishes one [`CycleDelta`] per control cycle to a
//! [`TelemetryBus`]. Publishing never blocks: each subscriber owns a
//! bounded drop-oldest ring, so a slow (or dead) consumer costs the
//! control loop one clone and an evicted event, never a stall. Every
//! eviction is accounted — per subscription and bus-wide — under the
//! `stream_dropped` counter name (see [`Counter::StreamDropped`]).
//!
//! Timestamps are **virtual**, in the same tick base as
//! [`crate::trace`]: cycle `n` is stamped `n ×`[`CYCLE_TICKS`] µs.
//! Nothing wall-clock enters the event *structure*, so a stream
//! captured without latency sampling is byte-identical across
//! repetitions and executor thread counts, and [`fold`]ing any stream
//! reconstructs the run's [`Metrics`] registry exactly (the CI
//! `gate-stream-equivalence` stage `cmp`s the folded snapshot against
//! the end-of-run artifact).

use crate::metrics::{write_atomic, Counter, Metrics, Stage};
use crate::trace::CYCLE_TICKS;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Schema name of the per-cycle stream artifact (one [`CycleDelta`]
/// JSON object per line).
pub const STREAM_SCHEMA: &str = "lkas-stream-v1";

/// Schema tag of the flight-recorder dump artifact.
pub const FLIGHT_SCHEMA: &str = "lkas-flight-v1";

/// Default per-subscription ring capacity of a [`TelemetryBus`].
pub const DEFAULT_STREAM_CAPACITY: usize = 1 << 12;

/// Default [`FlightRecorder`] ring capacity (recent cycles retained).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// The label a [`FlightRecorder`] auto-dumps on: the degradation
/// policy entered the safe fallback mode this cycle.
pub const FLIGHT_TRIGGER_LABEL: &str = "degraded_enter";

/// One control cycle's structured telemetry event.
///
/// `samples` carries the cycle's raw per-stage latency observations
/// (exact nanosecond values, grouped by stage), so folding a stream
/// rebuilds the run's latency histograms without loss; `counters`
/// carries the cycle's counter increments. Both are empty when the run
/// has no metrics registry attached — the stream then stays fully
/// deterministic (labels, counters, estimates, and virtual timestamps
/// only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CycleDelta {
    /// Control-cycle index within the run.
    pub cycle: u64,
    /// Virtual timestamp: `cycle ×` [`CYCLE_TICKS`] µs.
    pub ts_us: u64,
    /// `(stage name, raw ns observations)` recorded this cycle, in
    /// [`Stage::ALL`] order; stages with no observation are omitted.
    pub samples: Vec<(String, Vec<u64>)>,
    /// `(name, increment)` counter deltas this cycle, in
    /// [`Counter::ALL`] order; unchanged counters are omitted.
    pub counters: Vec<(String, u64)>,
    /// Raw perception lane-offset estimate (m) before any
    /// hold-and-extrapolate bridging; `None` on a perception miss.
    pub y_l_measured: Option<f64>,
    /// Ground-truth lateral offset (m) at the control sample.
    pub y_l_true: Option<f64>,
    /// Event labels this cycle, in emission order (mirrors the trace
    /// sink's instants: `fault:*`, `situation_switch`,
    /// `tuner_decision`/`tuner_explore`/`tuner_fallback`, `reconfig:*`,
    /// `measurement_hold`, `degraded_enter`/`degraded_exit`,
    /// `render_error`).
    pub labels: Vec<String>,
}

impl CycleDelta {
    /// An empty event for `cycle`, stamped with its virtual timestamp.
    pub fn new(cycle: u64) -> CycleDelta {
        CycleDelta {
            cycle,
            ts_us: cycle * CYCLE_TICKS,
            samples: Vec::new(),
            counters: Vec::new(),
            y_l_measured: None,
            y_l_true: None,
            labels: Vec::new(),
        }
    }
}

struct SubscriberRing {
    queue: Mutex<RingState>,
    closed: AtomicBool,
}

#[derive(Default)]
struct RingState {
    events: VecDeque<CycleDelta>,
    dropped: u64,
}

/// A bounded, non-blocking fan-out bus for [`CycleDelta`] events.
///
/// [`TelemetryBus::publish`] clones the event into every live
/// subscription's ring, evicting that subscription's oldest event when
/// it is full (drop-oldest backpressure). The publisher never waits on
/// a consumer, so the control loop's cost is bounded regardless of how
/// slow — or gone — a subscriber is.
pub struct TelemetryBus {
    capacity: usize,
    subscribers: Mutex<Vec<Arc<SubscriberRing>>>,
    published: AtomicU64,
    dropped: AtomicU64,
}

impl std::fmt::Debug for TelemetryBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryBus")
            .field("capacity", &self.capacity)
            .field("published", &self.published())
            .field("dropped", &self.dropped())
            .finish_non_exhaustive()
    }
}

impl Default for TelemetryBus {
    fn default() -> Self {
        TelemetryBus::new(DEFAULT_STREAM_CAPACITY)
    }
}

impl TelemetryBus {
    /// A bus bounding every subscription's ring to `capacity` events.
    pub fn new(capacity: usize) -> TelemetryBus {
        TelemetryBus {
            capacity: capacity.max(1),
            subscribers: Mutex::new(Vec::new()),
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Opens a new subscription receiving every event published from
    /// now on. Dropping the subscription closes it; the bus prunes
    /// closed rings on the next publish.
    pub fn subscribe(&self) -> Subscription {
        let ring = Arc::new(SubscriberRing {
            queue: Mutex::new(RingState::default()),
            closed: AtomicBool::new(false),
        });
        self.subscribers.lock().expect("bus subscriber lock").push(Arc::clone(&ring));
        Subscription { ring }
    }

    /// Fans `delta` out to every live subscription without blocking.
    /// Returns the number of events evicted across rings by this
    /// publish (0 when every subscriber has room).
    pub fn publish(&self, delta: &CycleDelta) -> u64 {
        self.published.fetch_add(1, Ordering::Relaxed);
        let mut evicted = 0;
        let mut subscribers = self.subscribers.lock().expect("bus subscriber lock");
        subscribers.retain(|ring| !ring.closed.load(Ordering::Acquire));
        for ring in subscribers.iter() {
            let mut state = ring.queue.lock().expect("subscription ring lock");
            if state.events.len() >= self.capacity {
                state.events.pop_front();
                state.dropped += 1;
                evicted += 1;
            }
            state.events.push_back(delta.clone());
        }
        drop(subscribers);
        if evicted > 0 {
            self.dropped.fetch_add(evicted, Ordering::Relaxed);
        }
        evicted
    }

    /// Per-subscription ring bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events published so far.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Events evicted across all subscriptions so far (the bus-wide
    /// `stream_dropped` total).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Live (not yet dropped) subscriptions.
    pub fn subscriber_count(&self) -> usize {
        let mut subscribers = self.subscribers.lock().expect("bus subscriber lock");
        subscribers.retain(|ring| !ring.closed.load(Ordering::Acquire));
        subscribers.len()
    }
}

/// One consumer's end of a [`TelemetryBus`]: a bounded ring the bus
/// pushes into and the subscriber drains at its own pace.
pub struct Subscription {
    ring: Arc<SubscriberRing>,
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Subscription {
    /// Takes the oldest buffered event, if any (never blocks).
    pub fn try_next(&self) -> Option<CycleDelta> {
        self.ring.queue.lock().expect("subscription ring lock").events.pop_front()
    }

    /// Takes every buffered event, oldest first.
    pub fn drain(&self) -> Vec<CycleDelta> {
        let mut state = self.ring.queue.lock().expect("subscription ring lock");
        state.events.drain(..).collect()
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.queue.lock().expect("subscription ring lock").events.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from this subscription's ring because it was
    /// full when the bus published.
    pub fn dropped(&self) -> u64 {
        self.ring.queue.lock().expect("subscription ring lock").dropped
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
    }
}

/// Replays a stream of [`CycleDelta`]s into a fresh [`Metrics`]
/// registry: every raw latency sample is re-recorded and every counter
/// increment re-applied, so folding a complete stream yields a
/// registry whose snapshot is byte-identical to the end-of-run
/// artifact. Stage or counter names this build does not know are
/// ignored (forward compatibility with a newer writer).
pub fn fold<'a>(deltas: impl IntoIterator<Item = &'a CycleDelta>) -> Metrics {
    let metrics = Metrics::new();
    for delta in deltas {
        for (name, samples) in &delta.samples {
            if let Some(stage) = Stage::from_name(name) {
                for &ns in samples {
                    metrics.record_ns(stage, ns);
                }
            }
        }
        for (name, increment) in &delta.counters {
            if *increment > 0 {
                if let Some(counter) = Counter::from_name(name) {
                    metrics.add(counter, *increment);
                }
            }
        }
    }
    metrics
}

/// The JSON document a [`FlightRecorder`] dump writes (schema
/// [`FLIGHT_SCHEMA`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Schema tag, always [`FLIGHT_SCHEMA`].
    pub schema: String,
    /// Why the ring was dumped (`degraded_enter`, `runner_panic`,
    /// `cancel_requested`, or a caller-supplied reason).
    pub reason: String,
    /// Cycle events evicted from the ring before the dump (the ring
    /// holds only the most recent window).
    pub evicted: u64,
    /// The retained ring, oldest first.
    pub deltas: Vec<CycleDelta>,
}

struct FlightState {
    ring: VecDeque<CycleDelta>,
    evicted: u64,
}

/// A bounded ring of recent [`CycleDelta`]s, dumped as a JSON artifact
/// when something goes wrong — safe-mode entry (the
/// [`FLIGHT_TRIGGER_LABEL`] label, auto-dumped when an auto path is
/// configured), a runner panic, or a job cancellation — so the last
/// moments before the incident survive for post-mortem triage.
pub struct FlightRecorder {
    capacity: usize,
    state: Mutex<FlightState>,
    auto_path: Option<PathBuf>,
    dumps: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dumps", &self.dumps())
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` cycle events.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            state: Mutex::new(FlightState { ring: VecDeque::new(), evicted: 0 }),
            auto_path: None,
            dumps: AtomicU64::new(0),
        }
    }

    /// Dumps to `path` automatically whenever an ingested event
    /// carries the [`FLIGHT_TRIGGER_LABEL`] label (safe-mode entry).
    pub fn with_auto_dump(mut self, path: impl Into<PathBuf>) -> FlightRecorder {
        self.auto_path = Some(path.into());
        self
    }

    /// Appends one cycle event to the ring (evicting the oldest past
    /// capacity) and auto-dumps on the trigger label when configured.
    pub fn ingest(&self, delta: &CycleDelta) {
        {
            let mut state = self.state.lock().expect("flight ring lock");
            if state.ring.len() >= self.capacity {
                state.ring.pop_front();
                state.evicted += 1;
            }
            state.ring.push_back(delta.clone());
        }
        if let Some(path) = &self.auto_path {
            if delta.labels.iter().any(|l| l == FLIGHT_TRIGGER_LABEL) {
                // Post-mortem best effort: a failed dump must not take
                // the control loop down with it.
                let _ = self.dump(path, FLIGHT_TRIGGER_LABEL);
            }
        }
    }

    /// Writes the current ring to `path` as a pretty-printed
    /// [`FlightDump`] (atomic: temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns any underlying filesystem error.
    pub fn dump(&self, path: impl AsRef<Path>, reason: &str) -> io::Result<()> {
        let dump = {
            let state = self.state.lock().expect("flight ring lock");
            FlightDump {
                schema: FLIGHT_SCHEMA.to_string(),
                reason: reason.to_string(),
                evicted: state.evicted,
                deltas: state.ring.iter().cloned().collect(),
            }
        };
        let json = serde_json::to_string_pretty(&dump).expect("flight dump serializes");
        write_atomic(path.as_ref(), (json + "\n").as_bytes())?;
        self.dumps.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Cycle events currently retained.
    pub fn len(&self) -> usize {
        self.state.lock().expect("flight ring lock").ring.len()
    }

    /// `true` when no event has been ingested (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Successful dumps so far.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta_with(
        cycle: u64,
        samples: &[(Stage, &[u64])],
        counters: &[(Counter, u64)],
    ) -> CycleDelta {
        let mut delta = CycleDelta::new(cycle);
        delta.samples =
            samples.iter().map(|(stage, ns)| (stage.name().to_string(), ns.to_vec())).collect();
        delta.counters =
            counters.iter().map(|(counter, n)| (counter.name().to_string(), *n)).collect();
        delta
    }

    #[test]
    fn virtual_timestamps_follow_the_trace_tick_base() {
        assert_eq!(CycleDelta::new(0).ts_us, 0);
        assert_eq!(CycleDelta::new(7).ts_us, 7 * CYCLE_TICKS);
    }

    #[test]
    fn bus_fans_out_to_every_live_subscription() {
        let bus = TelemetryBus::new(8);
        let a = bus.subscribe();
        let b = bus.subscribe();
        let delta = delta_with(0, &[], &[(Counter::Cycles, 1)]);
        assert_eq!(bus.publish(&delta), 0);
        assert_eq!(a.drain(), vec![delta.clone()]);
        assert_eq!(b.try_next(), Some(delta));
        assert_eq!(b.try_next(), None);
        assert_eq!(bus.published(), 1);
        assert_eq!(bus.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_oldest_and_accounts_every_eviction() {
        let bus = TelemetryBus::new(2);
        let sub = bus.subscribe();
        for cycle in 0..5 {
            bus.publish(&CycleDelta::new(cycle));
        }
        // Ring holds the two newest; three were evicted and counted.
        let kept: Vec<u64> = sub.drain().iter().map(|d| d.cycle).collect();
        assert_eq!(kept, vec![3, 4]);
        assert_eq!(sub.dropped(), 3);
        assert_eq!(bus.dropped(), 3);
        assert_eq!(bus.published(), 5);
    }

    #[test]
    fn dropped_subscriptions_are_pruned_not_published_to() {
        let bus = TelemetryBus::new(2);
        let sub = bus.subscribe();
        drop(sub);
        // Publishing to a closed ring must neither panic nor count
        // drops against the departed subscriber.
        for cycle in 0..10 {
            bus.publish(&CycleDelta::new(cycle));
        }
        assert_eq!(bus.subscriber_count(), 0);
        assert_eq!(bus.dropped(), 0);
    }

    #[test]
    fn folding_a_stream_equals_direct_recording() {
        let direct = Metrics::new();
        direct.record_ns(Stage::Isp, 1_500);
        direct.record_ns(Stage::Isp, 90_000);
        direct.record_ns(Stage::Control, 4_000);
        direct.incr(Counter::Cycles);
        direct.incr(Counter::Cycles);
        direct.add(Counter::MeasurementHolds, 3);

        let stream = [
            delta_with(
                0,
                &[(Stage::Isp, &[1_500]), (Stage::Control, &[4_000])],
                &[(Counter::Cycles, 1)],
            ),
            delta_with(
                1,
                &[(Stage::Isp, &[90_000])],
                &[(Counter::Cycles, 1), (Counter::MeasurementHolds, 3)],
            ),
        ];
        let folded = fold(stream.iter());
        assert_eq!(folded.snapshot(), direct.snapshot());
        // Unknown names from a future writer are skipped, not fatal.
        let mut alien = CycleDelta::new(2);
        alien.samples.push(("warp_core".to_string(), vec![1]));
        alien.counters.push(("counter_from_the_future".to_string(), 9));
        let folded = fold(stream.iter().chain(std::iter::once(&alien)));
        assert_eq!(folded.snapshot(), direct.snapshot());
    }

    #[test]
    fn flight_recorder_retains_a_bounded_tail_and_dumps_on_demand() {
        let dir = std::env::temp_dir().join("lkas-runtime-test-flight");
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = FlightRecorder::new(3);
        for cycle in 0..5 {
            recorder.ingest(&CycleDelta::new(cycle));
        }
        assert_eq!(recorder.len(), 3);
        let path = dir.join("nested/flight.json");
        recorder.dump(&path, "cancel_requested").unwrap();
        assert_eq!(recorder.dumps(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let dump: FlightDump = serde_json::from_str(&text).unwrap();
        assert_eq!(dump.schema, FLIGHT_SCHEMA);
        assert_eq!(dump.reason, "cancel_requested");
        assert_eq!(dump.evicted, 2);
        assert_eq!(dump.deltas.iter().map(|d| d.cycle).collect::<Vec<_>>(), vec![2, 3, 4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_recorder_auto_dumps_on_safe_mode_entry() {
        let dir = std::env::temp_dir().join("lkas-runtime-test-flight-auto");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("auto_flight.json");
        let recorder = FlightRecorder::new(8).with_auto_dump(&path);
        recorder.ingest(&CycleDelta::new(0));
        assert!(!path.exists(), "no trigger label, no dump");
        let mut entered = CycleDelta::new(1);
        entered.labels.push(FLIGHT_TRIGGER_LABEL.to_string());
        recorder.ingest(&entered);
        assert_eq!(recorder.dumps(), 1);
        let dump: FlightDump =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(dump.reason, FLIGHT_TRIGGER_LABEL);
        assert_eq!(dump.deltas.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
